//! The traced replay: the served run's seeded operation sequence,
//! replayed in process through the same layers the server calls, with a
//! timer around each call into a layer's public functions. The timers
//! live here, in the benchmark, not in the program.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use txlog_base::obs::Metrics;
use txlog_base::{Atom, Symbol};
use txlog_constraints::SessionConstraint;
use txlog_engine::{check_program, CommitConstraint, Env, EventCallback, Footprint, MemStore};
use txlog_events::{Automaton, Pattern};
use txlog_logic::{parse_fformula, parse_fterm, ParseCtx};
use txlog_relational::{codec, DbState, Schema, TupleVal};
use txlog_server::frame::{decode_frame, encode_frame};
use txlog_server::{Request, Response, WireError, DEFAULT_MAX_FRAME_LEN};

use crate::report::{median, Stages};
use crate::served::{open_database, Config};
use crate::workload::{Expect, Rng, ALLOC_PATTERN};

/// Samples per size point of the relational layer.
const SIZE_SAMPLES: usize = 64;

/// Rows in the relational size point's small copy.
const SMALL_ROWS: usize = 1_000;

/// The commit-path stages of a served autocommit, in pipeline order.
/// Their medians sum to the in-process commit time that
/// `trace.attributed_share` compares with the served p50.
pub const COMMIT_STAGES: &[&str] = &[
    "server.req_codec_us",
    "logic.parse_us",
    "exec.engine_build_us",
    "db.footprint_us",
    "exec.execute_us",
    "db.submit_us",
    "db.ack_wait_us",
    "server.resp_codec_us",
];

/// A notification the in-process subscription received: the commit
/// version and the binding of `x`.
type Delivery = (u64, Option<Atom>);

#[derive(Default)]
pub struct Replay {
    /// Commit-path stage samples of successful commits, the query path's
    /// `exec.eval_truth_us`, and the off-path probes (`logic.check_us`,
    /// `relational.*`, `constraints.*`, `events.*`).
    pub stages: Stages,
    /// In-process end-to-end time of each commit (sum of its stages).
    pub commit_total_us: Vec<f64>,
    pub commits: u64,
    pub asks: u64,
    pub affected: u64,
    pub constraint_slots: u64,
    pub matches: u64,
    pub size_ratio: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Encode a request, frame it, unframe it and decode it again: the
/// client's and the server's codec work for one request.
fn request_roundtrip(req: &Request) -> Request {
    let frame = encode_frame(&req.encode(), DEFAULT_MAX_FRAME_LEN).expect("request fits a frame");
    let (payload, _) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
        .expect("frame decodes")
        .expect("frame is complete");
    Request::decode(payload).expect("request decodes")
}

fn response_roundtrip(resp: &Response) -> Response {
    let frame = encode_frame(&resp.encode(), DEFAULT_MAX_FRAME_LEN).expect("response fits a frame");
    let (payload, _) = decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
        .expect("frame decodes")
        .expect("frame is complete");
    Response::decode(payload).expect("response decodes")
}

pub fn run(cfg: &Config, budget: Duration) -> Result<Replay, String> {
    let (schema, initial) = cfg
        .workload
        .initial_state(cfg.seed)
        .map_err(|e| e.to_string())?;
    let db = open_database(
        cfg,
        &schema,
        initial.clone(),
        MemStore::new(),
        Metrics::disabled(),
    )?;
    let ctx = ParseCtx::new(schema.decls().iter().map(|d| d.name));
    let env = Env::new();
    let constraints: Vec<SessionConstraint> =
        cfg.workload.constraints().map_err(|e| e.to_string())?;
    let window = constraints
        .iter()
        .map(|c| c.window_states())
        .max()
        .unwrap_or(1);

    // the subscriber's pattern, twice: delivered by the database (as the
    // server's subscription is) and advanced directly for timing
    let delivered: Arc<Mutex<Vec<Delivery>>> = Arc::default();
    let mut automaton = None;
    if cfg.workload.has_subscriber() {
        let pattern = Pattern::parse(ALLOC_PATTERN).map_err(|e| e.to_string())?;
        let sink = Arc::clone(&delivered);
        let x = Symbol::new("x");
        let callback: EventCallback = Arc::new(move |n| {
            sink.lock()
                .expect("notification sink lock")
                .push((n.version, n.binding.get(&x).copied()));
        });
        db.subscribe_pattern("bench", &pattern, callback)
            .map_err(|e| e.to_string())?;
        automaton = Some(Automaton::compile(&pattern, &schema).map_err(|e| e.to_string())?);
    }

    let committers = cfg.workload.committers();
    let mut streams: Vec<_> = (0..committers)
        .map(|i| cfg.workload.stream(cfg.seed, i, &initial, &schema))
        .collect();
    let mut sessions: Vec<_> = (0..committers).map(|_| db.session()).collect();
    let mut out = Replay::default();
    // the committed history the constraint windows are cut from
    let mut recent: VecDeque<DbState> = VecDeque::from([initial]);
    let mut labels: VecDeque<String> = VecDeque::new();
    let mut must_notify: Vec<(u64, Atom)> = Vec::new();

    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed() < budget {
        let client = n % committers;
        n += 1;
        let op = streams[client].next_op();
        let session = &mut sessions[client];
        out.attempted += 1;
        let label = format!("c{client}-{n}");
        let st = &mut out.stages;

        if !op.is_commit() {
            let Request::Ask { formula } = request_roundtrip(&Request::Ask {
                formula: op.text.clone(),
            }) else {
                unreachable!("an Ask decodes as an Ask")
            };
            let p = parse_fformula(&formula, &ctx, &[]).map_err(|e| e.to_string())?;
            let engine = db.engine().map_err(|e| e.to_string())?;
            session.refresh();
            let t = Instant::now();
            let value = engine
                .eval_truth(session.state(), &p, &env)
                .map_err(|e| e.to_string())?;
            st.push("exec.eval_truth_us", us(t));
            out.asks += 1;
            response_roundtrip(&Response::Truth { value });
            if op.expect != Expect::Truth(value) {
                out.failures.push(format!(
                    "{label} ask: expected {:?}, got {value}",
                    op.expect
                ));
            }
            continue;
        }

        // commit-path stage times, kept only if the commit succeeds (the
        // served percentiles cover successful commits only)
        let mut path: Vec<(&'static str, f64)> = Vec::new();
        let mut timed = |name: &'static str, t: Instant| path.push((name, us(t)));
        let t = Instant::now();
        let Request::Execute { program, .. } = request_roundtrip(&Request::Execute {
            label: label.clone(),
            program: op.text.clone(),
        }) else {
            unreachable!("an Execute decodes as an Execute")
        };
        timed("server.req_codec_us", t);
        let t = Instant::now();
        let term = parse_fterm(&program, &ctx, &[]).map_err(|e| e.to_string())?;
        timed("logic.parse_us", t);
        let t = Instant::now();
        check_program(&schema, &term, &[]).map_err(|e| e.to_string())?;
        st.push("logic.check_us", us(t));
        session.refresh();
        let t = Instant::now();
        let engine = db.engine().map_err(|e| e.to_string())?;
        timed("exec.engine_build_us", t);
        let t = Instant::now();
        let _footprint = Footprint::of_program(&term);
        timed("db.footprint_us", t);
        let t = Instant::now();
        let exec = engine
            .execute_traced(session.state(), &term, &env)
            .map_err(|e| e.to_string())?;
        timed("exec.execute_us", t);

        // off-path probes on this commit's delta and candidate state
        let t = Instant::now();
        let bytes = codec::encode_delta(&exec.delta);
        st.push("relational.encode_delta_us", us(t));
        st.push("relational.delta_bytes", bytes.len() as f64);
        for c in &constraints {
            out.constraint_slots += 1;
            if !c.affected_by(&schema, &exec.delta) {
                continue;
            }
            out.affected += 1;
            // the window the engine builds: trailing committed states
            // plus the candidate, the commit's label closing it
            let take = (c.window_states().max(1) - 1).min(recent.len());
            let mut states: Vec<DbState> =
                recent.iter().skip(recent.len() - take).cloned().collect();
            states.push(exec.state.clone());
            let prior = take.saturating_sub(1).min(labels.len());
            let mut names: Vec<&str> = labels
                .iter()
                .skip(labels.len() - prior)
                .map(String::as_str)
                .collect();
            names.push(&label);
            let t = Instant::now();
            c.check(&schema, &states, &names)
                .map_err(|e| e.to_string())?;
            st.push(&format!("constraints.check_us.{}", c.name()), us(t));
        }

        // the commit itself, from a prepared execution so that the
        // stages above are not timed twice
        let prepared = session.prepare(&term, &env).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let submitted = session.submit_prepared(&label, &prepared);
        timed("db.submit_us", t);
        let resp = match submitted {
            Ok((commit, ticket)) => {
                let t = Instant::now();
                ticket.wait().map_err(|e| e.to_string())?;
                timed("db.ack_wait_us", t);
                Response::Executed {
                    version: commit.version,
                    retries: commit.retries,
                    forwarded: commit.forwarded,
                }
            }
            Err(e) => Response::Error(WireError::from_commit(&e)),
        };
        let t = Instant::now();
        let resp = response_roundtrip(&resp);
        timed("server.resp_codec_us", t);

        match (&resp, &op.expect, submitted_error(&resp)) {
            (Response::Executed { version, .. }, Expect::Commit, _) => {
                out.commits += 1;
                out.commit_total_us.push(path.iter().map(|(_, v)| v).sum());
                for (name, v) in path {
                    st.push(name, v);
                }
                if let Some(x) = op.notify {
                    must_notify.push((*version, x));
                }
                if let Some(a) = automaton.as_mut() {
                    let t = Instant::now();
                    let fired = a.advance(&exec.delta);
                    st.push("events.advance_us", us(t));
                    out.matches += fired.matches.len() as u64;
                }
                recent.push_back(session.state().clone());
                labels.push_back(label);
                while recent.len() > window {
                    recent.pop_front();
                }
                while labels.len() + 1 > recent.len() {
                    labels.pop_front();
                }
            }
            (_, Expect::Refused(name), Some(refused)) if refused == *name => {}
            (other, want, _) => out.failures.push(format!(
                "{label} {}: expected {want:?}, got {other:?}",
                op.kind
            )),
        }
    }

    let delivered = delivered.lock().expect("notification sink lock").clone();
    let want: Vec<Delivery> = must_notify.iter().map(|(v, x)| (*v, Some(*x))).collect();
    if cfg.workload.has_subscriber() && delivered != want {
        out.failures.push(format!(
            "in-process subscription delivered {} notifications, {} commits required one each",
            delivered.len(),
            want.len()
        ));
    }

    let head = db.snapshot();
    let (rel, attr) = cfg.workload.size_point();
    let big = size_point(&head, &schema, rel, attr, cfg.seed)?;
    let rid = schema.rel_id(rel).map_err(|e| e.to_string())?;
    let members: Vec<TupleVal> = head
        .relation(rid)
        .map(|r| r.iter().take(SMALL_ROWS).map(|t| t.val()).collect())
        .unwrap_or_default();
    let small_state = head
        .assign(rid, members.first().map_or(1, TupleVal::arity), &members)
        .map_err(|e| e.to_string())?;
    let small = size_point(&small_state, &schema, rel, attr, cfg.seed)?;
    out.stages.push("relational.modify_us", big.0);
    out.stages.push("relational.apply_us", big.1);
    out.size_ratio = (big.0 + big.1) / (small.0 + small.1);
    Ok(out)
}

fn submitted_error(resp: &Response) -> Option<&str> {
    match resp {
        Response::Error(e) if e.code == txlog_server::ErrorCode::ConstraintViolation => {
            Some(e.message.as_str())
        }
        _ => None,
    }
}

/// Median time of `DbState::modify` on one tuple of `rel` and of
/// `Delta::apply` of the resulting one-tuple delta, over sampled tuples.
fn size_point(
    state: &DbState,
    schema: &Schema,
    rel: &str,
    attr: usize,
    seed: u64,
) -> Result<(f64, f64), String> {
    let rid = schema.rel_id(rel).map_err(|e| e.to_string())?;
    let tuples: Vec<TupleVal> = state
        .relation(rid)
        .map(|r| r.iter().map(|t| t.val()).collect())
        .unwrap_or_default();
    if tuples.is_empty() {
        return Err(format!("relation {rel} is empty"));
    }
    // compare sizes, not index states: a head the workload has queried
    // carries a built column index that every modify copies, so build
    // it on both sides before timing
    if let Some(r) = state.relation(rid) {
        r.probe(1, &Atom::nat(0));
    }
    let mut rng = Rng::new(seed, 77);
    let (mut modify, mut apply) = (Vec::new(), Vec::new());
    for _ in 0..SIZE_SAMPLES {
        let tv = &tuples[rng.below(tuples.len() as u64) as usize];
        let value = Atom::nat(rng.below(1_000_000));
        let t = Instant::now();
        let next = std::hint::black_box(state.modify(tv, attr, value).map_err(|e| e.to_string())?);
        modify.push(us(t));
        let delta = state.diff(&next);
        let t = Instant::now();
        std::hint::black_box(delta.apply(state).map_err(|e| e.to_string())?);
        apply.push(us(t));
    }
    Ok((median(&modify), median(&apply)))
}
