//! The served run: an in-process `Server` on loopback, driven in a
//! closed loop (no think time) by `Client`s from the same process, then
//! checked against a sequential replay and a recovery from the log.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use txlog_base::obs::Metrics;
use txlog_base::Atom;
use txlog_engine::{Database, Durability, Engine, Env, MemStore};
use txlog_logic::{parse_fterm, ParseCtx};
use txlog_relational::{DbState, Schema};
use txlog_server::{Client, ClientError, ErrorCode, NotificationEvent, Server, ServerConfig};

use crate::workload::{by_value, Expect, Op, Rows, Workload, ALLOC_PATTERN};

/// Worker threads, one per client connection of every workload.
const WORKERS: usize = 2;

/// How long the subscriber waits, after the last commit, for
/// notifications still in flight before it counts them missing.
const NOTIFY_GRACE: Duration = Duration::from_secs(5);

#[derive(Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub durability: Durability,
}

impl Config {
    /// The configuration of round `round` of a run: its own inputs,
    /// drawn from a seed derived from the run's (round 0 keeps it).
    pub fn round(self, round: u64) -> Config {
        Config {
            seed: self.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..self
        }
    }
}

/// A database opened over an in-memory log and served on loopback.
pub struct Served {
    pub server: Server,
    pub store: MemStore,
    pub schema: Schema,
    pub initial: DbState,
    pub opening_log_len: usize,
}

/// Open the workload's database over `store`: its initial state, its
/// commit constraints, and the run's durability.
pub fn open_database(
    cfg: &Config,
    schema: &Schema,
    initial: DbState,
    store: MemStore,
    metrics: Metrics,
) -> Result<Database, String> {
    let mut builder = Database::builder(schema.clone())
        .metrics(metrics)
        .durability(cfg.durability)
        .initial(initial);
    for c in cfg.workload.constraints().map_err(|e| e.to_string())? {
        builder = builder.constraint(Box::new(c));
    }
    let (db, _) = builder
        .open_store(Box::new(store))
        .map_err(|e| format!("opening the database failed: {e}"))?;
    Ok(db)
}

/// Set-up as `setup_s` times it: build the initial state, open the
/// database over a fresh log, bind the server.
pub fn setup(cfg: &Config, metrics: Metrics) -> Result<Served, String> {
    let (schema, initial) = cfg
        .workload
        .initial_state(cfg.seed)
        .map_err(|e| format!("building the initial state failed: {e}"))?;
    let store = MemStore::new();
    let db = open_database(cfg, &schema, initial.clone(), store.clone(), metrics)?;
    let opening_log_len = store.contents().len();
    let server = Server::bind_with(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("binding the server failed: {e}"))?;
    Ok(Served {
        server,
        store,
        schema,
        initial,
        opening_log_len,
    })
}

/// What one served run measured and found.
#[derive(Default)]
pub struct Outcome {
    /// Latency of successful autocommits, µs.
    pub commit_us: Vec<f64>,
    /// Latency of the read path, µs: `Ask` round trips, or commit send
    /// to notification receipt on the subscriber.
    pub read_us: Vec<f64>,
    pub commits: u64,
    pub refused: u64,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The log cut after its first `recovered_commits` commits, which
    /// `recover_ms` times the recovery of.
    pub recovery_log: Vec<u8>,
    pub recovered_commits: u64,
    /// Log bytes written after the opening checkpoint.
    pub wal_bytes: usize,
    /// `VmHWM` after the served run, MiB.
    pub peak_rss_mb: f64,
    /// Log bytes written before the first commit (the opening checkpoint).
    pub opening_log_len: usize,
    /// The served database's metrics handle (recording only when the
    /// run was opened with `Metrics::enabled()`).
    pub metrics: Metrics,
}

#[derive(Default)]
struct ClientLog {
    commit_us: Vec<f64>,
    read_us: Vec<f64>,
    attempted: u64,
    refused: u64,
    failures: Vec<String>,
    commits: u64,
    /// the client's own OLTP relation, key → value, as its acknowledged
    /// writes leave it
    model: Model,
    /// every acknowledged commit that is not an OLTP write, with its
    /// version
    accepted: Vec<(u64, Op)>,
    /// (version, x, send time) of every commit that must notify
    notify: Vec<(u64, Atom, Instant)>,
    finished: Option<Instant>,
}

fn committer(
    cfg: &Config,
    served: &Served,
    addr: SocketAddr,
    client_no: usize,
    model: Model,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        model,
        ..ClientLog::default()
    };
    let mut client = match Client::connect(addr, &format!("bench-{client_no}")) {
        Ok(c) => c,
        Err(e) => {
            log.failures
                .push(format!("client {client_no} connect: {e}"));
            return log;
        }
    };
    let mut stream = cfg
        .workload
        .stream(cfg.seed, client_no, &served.initial, &served.schema);
    let mut n = 0u64;
    while Instant::now() < deadline {
        let op = stream.next_op();
        n += 1;
        log.attempted += 1;
        let label = format!("c{client_no}-{n}");
        let sent = Instant::now();
        let (verdict, lost) = if op.is_commit() {
            let reply = client.execute(&label, &op.text);
            let us = sent.elapsed().as_secs_f64() * 1e6;
            let lost = reply.as_ref().is_err_and(connection_lost);
            let verdict = match (reply, &op.expect) {
                (Ok(c), Expect::Commit) => {
                    log.commit_us.push(us);
                    log.commits += 1;
                    if let Some(x) = op.notify {
                        log.notify.push((c.version, x, sent));
                    }
                    // a client writes only its own relation and waits
                    // for each ack, so its writes apply in version order
                    match op.write {
                        Some(w) => w.apply(&mut log.model),
                        None => log.accepted.push((c.version, op)),
                    }
                    Ok(())
                }
                (Err(ClientError::Server(e)), Expect::Refused(name))
                    if e.code == ErrorCode::ConstraintViolation && e.message == *name =>
                {
                    log.refused += 1;
                    Ok(())
                }
                (other, want) => Err(format!(
                    "{label} {}: expected {want:?}, got {other:?}",
                    op.kind
                )),
            };
            (verdict, lost)
        } else {
            let reply = client.ask(&op.text);
            let us = sent.elapsed().as_secs_f64() * 1e6;
            let lost = reply.as_ref().is_err_and(connection_lost);
            let verdict = match (reply, &op.expect) {
                (Ok(v), Expect::Truth(want)) if v == *want => {
                    log.read_us.push(us);
                    Ok(())
                }
                (other, want) => Err(format!(
                    "{label} {}: expected {want:?}, got {other:?}",
                    op.kind
                )),
            };
            (verdict, lost)
        };
        if let Err(msg) = verdict {
            log.failures.push(msg);
        }
        if lost {
            break;
        }
    }
    log.finished = Some(Instant::now());
    log
}

/// True when the connection can carry no further requests.
fn connection_lost(e: &ClientError) -> bool {
    !matches!(e, ClientError::Server(_) | ClientError::Protocol(_))
}

/// Notifications as the subscriber got them: version, the binding of
/// `x`, and the time of receipt.
type Received = Vec<(u64, Option<Atom>, Instant)>;

/// The subscriber: holds one wire subscription and timestamps every
/// pushed notification until `expected` (set once the committers are
/// done) have arrived or the grace period ends.
fn subscriber(
    addr: SocketAddr,
    ready: mpsc::Sender<Result<(), String>>,
    expected: &AtomicUsize,
) -> (Received, Vec<String>) {
    let mut got = Vec::new();
    let mut failures = Vec::new();
    let mut client = match Client::connect(addr, "bench-subscriber")
        .and_then(|mut c| c.subscribe("alloc", ALLOC_PATTERN).map(|()| c))
    {
        Ok(c) => c,
        Err(e) => {
            let _ = ready.send(Err(format!("subscriber: {e}")));
            return (got, failures);
        }
    };
    let _ = ready.send(Ok(()));
    let mut done_at: Option<Instant> = None;
    loop {
        match client.next_notification(Duration::from_millis(10)) {
            Ok(Some(NotificationEvent::Match(n))) => {
                let x = n.binding.iter().find(|(v, _)| v == "x").map(|(_, a)| *a);
                got.push((n.version, x, Instant::now()));
            }
            Ok(Some(NotificationEvent::Overflow { name, capacity })) => {
                failures.push(format!(
                    "subscription {name} overflowed (capacity {capacity})"
                ));
                break;
            }
            Ok(None) => {}
            Err(e) => {
                failures.push(format!("subscription dropped: {e}"));
                break;
            }
        }
        let want = expected.load(Ordering::Acquire);
        if want != usize::MAX {
            let since = *done_at.get_or_insert_with(Instant::now);
            if got.len() >= want || since.elapsed() > NOTIFY_GRACE {
                break;
            }
        }
    }
    (got, failures)
}

/// Match received notifications to the commits that must produce them:
/// each exactly once, with the right binding, in version order. Returns
/// the send-to-receipt latencies (µs) and the violations.
fn check_notifications(
    expected: &[(u64, Atom, Instant)],
    got: &Received,
) -> (Vec<f64>, Vec<String>) {
    let mut want: BTreeMap<u64, (Atom, Instant, bool)> = expected
        .iter()
        .map(|(v, x, t)| (*v, (*x, *t, false)))
        .collect();
    let mut lat = Vec::new();
    let mut failures = Vec::new();
    let mut last = 0u64;
    for (version, x, at) in got {
        if *version < last {
            failures.push(format!(
                "notification for version {version} arrived after {last}"
            ));
        }
        last = last.max(*version);
        match want.get_mut(version) {
            Some((wx, sent, seen)) if Some(*wx) == *x && !*seen => {
                *seen = true;
                lat.push(at.duration_since(*sent).as_secs_f64() * 1e6);
            }
            Some((_, _, true)) => {
                failures.push(format!("duplicate notification for version {version}"))
            }
            _ => failures.push(format!(
                "unexpected notification {x:?} at version {version}"
            )),
        }
    }
    for (version, (x, _, seen)) in want {
        if !seen {
            failures.push(format!(
                "no notification for {x} committed at version {version}"
            ));
        }
    }
    (lat, failures)
}

/// An OLTP relation by value: key → value.
type Model = BTreeMap<u64, u64>;

/// Each OLTP relation of `initial` by value, in schema order (none on
/// the paper workload).
fn initial_models(workload: Workload, schema: &Schema, initial: &DbState) -> Vec<Model> {
    if workload == Workload::PaperConstraints {
        return Vec::new();
    }
    by_value(schema, initial)
        .into_iter()
        .map(|(_, rows)| {
            rows.iter()
                .map(|r| {
                    (
                        r[0].as_nat().unwrap_or(u64::MAX),
                        r[1].as_nat().unwrap_or(u64::MAX),
                    )
                })
                .collect()
        })
        .collect()
}

/// The head the acknowledged commits must have produced, by value: the
/// OLTP models as the clients' writes left them, or the paper's
/// transactions replayed through the engine in version order.
fn expected_head(
    workload: Workload,
    schema: &Schema,
    initial: &DbState,
    mut accepted: Vec<(u64, Op)>,
    models: Vec<Model>,
) -> Result<Rows, String> {
    if workload == Workload::PaperConstraints {
        accepted.sort_by_key(|(v, _)| *v);
        let engine = Engine::builder(schema)
            .metrics(Metrics::disabled())
            .build()
            .map_err(|e| e.to_string())?;
        let ctx = ParseCtx::new(schema.decls().iter().map(|d| d.name));
        let mut state = initial.clone();
        for (version, op) in &accepted {
            let t = parse_fterm(&op.text, &ctx, &[])
                .map_err(|e| format!("replay of v{version}: {e}"))?;
            state = engine
                .execute(&state, &t, &Env::new())
                .map_err(|e| format!("replay of v{version}: {e}"))?;
        }
        return Ok(by_value(schema, &state));
    }
    Ok(schema
        .decls()
        .iter()
        .zip(models)
        .map(|(d, rel)| {
            let rows = rel
                .into_iter()
                .map(|(k, v)| vec![Atom::nat(k), Atom::nat(v)])
                .collect();
            (d.name.as_str().to_string(), rows)
        })
        .collect())
}

/// Timed recoveries: at least `MIN_RECOVERIES`, and more (up to
/// `MAX_RECOVERIES`) until the budget has passed.
const MIN_RECOVERIES: usize = 3;
const MAX_RECOVERIES: usize = 100_000;

/// Time recoveries of `log`, which must recover to version `commits`,
/// for `budget`; their times in ms.
pub fn time_recoveries(
    schema: &Schema,
    log: &[u8],
    commits: u64,
    budget: Duration,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let began = Instant::now();
    while times.len() < MIN_RECOVERIES
        || (times.len() < MAX_RECOVERIES && began.elapsed() < budget)
    {
        let t = Instant::now();
        let db = recover(schema, log)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if db.head_version() != commits {
            return Err(format!(
                "the log cut after {commits} commits recovered version {}",
                db.head_version()
            ));
        }
    }
    Ok(times)
}

/// Commit records `recover_ms` replays: the timed recoveries reopen the
/// log cut after this many commits, so the figure does not grow with
/// how many commits the run happened to make.
const RECOVER_COMMITS: u64 = 64;

/// The log cut after its first `commits` commit records following the
/// opening checkpoint at `opening_len` (the whole log if it holds fewer),
/// and the number of commit records kept. Records are framed
/// `len:u32 ‖ crc:u32 ‖ payload`, little-endian, as `txlog_engine::wal`
/// writes them.
fn log_prefix(bytes: &[u8], opening_len: usize, commits: u64) -> (Vec<u8>, u64) {
    let mut end = opening_len;
    let mut kept = 0;
    while kept < commits && end + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[end..end + 4].try_into().expect("4 bytes")) as usize;
        if end + 8 + len > bytes.len() {
            break;
        }
        end += 8 + len;
        kept += 1;
    }
    (bytes[..end].to_vec(), kept)
}

/// Reopen a copy of `bytes` with log recovery alone (checkpoint decode +
/// delta replay): the constraint re-check at open would add a cost that
/// depends on where the run stopped, and `constraints.check_us` times it.
fn recover(schema: &Schema, bytes: &[u8]) -> Result<Database, String> {
    Database::builder(schema.clone())
        .metrics(Metrics::disabled())
        .durability(Durability::Off)
        .open_store(Box::new(MemStore::from_bytes(bytes.to_vec())))
        .map(|(db, _)| db)
        .map_err(|e| format!("recovery failed: {e}"))
}

/// Serve `seconds` of the workload and check the outcome, including a
/// recovery of the whole log.
pub fn run(cfg: &Config, served: Served, seconds: f64) -> Outcome {
    let addr = served.server.local_addr();
    let mut out = Outcome {
        metrics: served.server.database().metrics().clone(),
        ..Outcome::default()
    };
    let expected = AtomicUsize::new(usize::MAX);
    let mut models = initial_models(cfg.workload, &served.schema, &served.initial).into_iter();
    let (logs, sub) = std::thread::scope(|s| {
        let sub = cfg.workload.has_subscriber().then(|| {
            let (tx, rx) = mpsc::channel();
            let handle = s.spawn(|| subscriber(addr, tx, &expected));
            let ready = rx
                .recv()
                .unwrap_or_else(|_| Err("subscriber exited".to_string()));
            (handle, ready)
        });
        if let Some((_, Err(e))) = &sub {
            expected.store(0, Ordering::Release);
            out.failures.push(e.clone());
        }
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let handles: Vec<_> = (0..cfg.workload.committers())
            .map(|i| {
                let served = &served;
                let model = models.next().unwrap_or_default();
                s.spawn(move || committer(cfg, served, addr, i, model, deadline))
            })
            .collect();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("committer thread panicked"))
            .collect();
        let end = logs
            .iter()
            .filter_map(|l| l.finished)
            .max()
            .unwrap_or(start);
        out.elapsed_s = end.duration_since(start).as_secs_f64();
        let total: usize = logs.iter().map(|l| l.notify.len()).sum();
        expected.store(total, Ordering::Release);
        let sub = sub.map(|(h, _)| h.join().expect("subscriber thread panicked"));
        (logs, sub)
    });
    // the served run's high-water mark, before the checks below add theirs
    out.peak_rss_mb = crate::report::peak_rss_mb();

    let mut accepted = Vec::new();
    let mut notify = Vec::new();
    let mut models = Vec::new();
    for log in logs {
        out.commit_us.extend(log.commit_us);
        out.read_us.extend(log.read_us);
        out.attempted += log.attempted;
        out.refused += log.refused;
        out.failures.extend(log.failures);
        out.commits += log.commits;
        accepted.extend(log.accepted);
        notify.extend(log.notify);
        models.push(log.model);
    }
    if let Some((got, failures)) = sub {
        out.failures.extend(failures);
        let (lat, bad) = check_notifications(&notify, &got);
        out.read_us = lat;
        out.failures.extend(bad);
    }

    // the final head against a sequential replay of what was acknowledged
    let head = served.server.database().snapshot();
    let head_version = served.server.database().head_version();
    let head_rows = by_value(&served.schema, &head);
    match expected_head(
        cfg.workload,
        &served.schema,
        &served.initial,
        accepted,
        models,
    ) {
        Ok(rows) if rows == head_rows => {}
        Ok(_) => out.failures.push(
            "final head differs from the sequential replay of acknowledged commits".to_string(),
        ),
        Err(e) => out.failures.push(e),
    }
    if head_version != out.commits {
        out.failures.push(format!(
            "head is at version {head_version} after {} acknowledged commits",
            out.commits
        ));
    }

    // shut down (the log writer drains on drop), then recover from the
    // final log bytes
    let Served {
        server,
        store,
        schema,
        opening_log_len,
        ..
    } = served;
    drop(server);
    out.opening_log_len = opening_log_len;
    let bytes = store.contents();
    out.wal_bytes = bytes.len() - opening_log_len;
    match recover(&schema, &bytes) {
        Ok(db)
            if db.head_version() == head_version
                && by_value(&schema, &db.snapshot()) == head_rows => {}
        Ok(_) => out
            .failures
            .push("recovered state differs from the final head".to_string()),
        Err(e) => out.failures.push(e),
    }
    let (prefix, kept) = log_prefix(&bytes, opening_log_len, RECOVER_COMMITS);
    out.recovery_log = prefix;
    out.recovered_commits = kept;
    out
}
