//! The served-commit benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --sync-every 64 --checkpoint-every 0 \
//!     --workload small_oltp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run serves one workload from an in-process `txlog_server::Server`
//! on loopback (2 workers) to at most two closed-loop `Client`s in the
//! same process, over a group-committed write-ahead log on a `MemStore`.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer decomposition from a traced replay of the same seeded
//! operations. Every run checks its outputs; the last stdout line is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the workloads and metrics.

mod report;
mod served;
mod traced;
mod workload;

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use txlog_base::obs::{Counter, Hist, Metrics as Obs};
use txlog_engine::Durability;

use report::{median, quantile, Metrics};
use served::Config;
use workload::Workload;

/// Rounds of an end-to-end run. Each round sets up, serves
/// `--seconds / ROUNDS`, checks, and times recoveries, and the metrics
/// pool the rounds' samples: set-up and recovery run outside the served
/// window, and this host's speed drifts over seconds, so sampling them
/// across the whole run and not at one moment of it keeps them steady.
const ROUNDS: u32 = 5;

/// Probes per round of each kind. A probe is a fresh process of this
/// program that times set-ups (`--setup-probe`) or recoveries of the
/// round's log, read from its stdin (`--recover-probe N`), and prints
/// their median. How fast one process does either depends on the
/// process (its hash seeds and memory layout: on the paper workload
/// some processes take half as long again as others), so `setup_s` and
/// `recover_ms` are means of the probes' medians, over
/// `ROUNDS * PROBES` processes spread across the run.
const PROBES: u32 = 2;

/// Set-ups per probe: at least `MIN_SETUPS`, and more (up to
/// `MAX_SETUPS`) while they take under `PROBE_BUDGET` in all, so a
/// set-up of a few milliseconds is still a median of many.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 80;
const PROBE_BUDGET: Duration = Duration::from_millis(200);

/// Time a recovery probe spends timing recoveries.
const RECOVERY_BUDGET: Duration = Duration::from_millis(400);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    /// `--recover-probe N`: the commits the log on stdin holds
    recover_probe: Option<u64>,
    sync_every: u64,
    checkpoint_every: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let name = get("--workload")?;
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        setup_probe: argv.iter().any(|a| a == "--setup-probe"),
        recover_probe: match argv.iter().any(|a| a == "--recover-probe") {
            true => Some(num("--recover-probe")?),
            false => None,
        },
        sync_every: num("--sync-every")?,
        checkpoint_every: num("--checkpoint-every")?,
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// Failures and attempts across every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }

    fn require(&mut self, what: &str, samples: usize) {
        if samples == 0 {
            self.failures.push(format!("no {what} samples"));
        }
    }

    fn finish(self, metrics: &Metrics) {
        for f in self.failures.iter().take(20) {
            println!("# failure: {f}");
        }
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(1);
        println!("# fail_ratio: {} ratio", failed as f64 / attempted as f64);
        metrics.print_lines();
        println!("{}", metrics.json(failed == 0, attempted, failed));
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        durability: Durability::Wal {
            sync_every: args.sync_every,
            checkpoint_every: args.checkpoint_every,
        },
    };
    if args.setup_probe {
        return setup_probe(&cfg);
    }
    if let Some(commits) = args.recover_probe {
        return recover_probe(&cfg, commits);
    }
    for (k, v) in report::provenance() {
        println!("# {k}: {v}");
    }
    println!(
        "# run: workload={:?} seed={} seconds={} trace={} durability=wal(group commit, sync_every={}, checkpoint_every={}) store=MemStore workers=2 clients=2 closed-loop",
        cfg.workload, cfg.seed, args.seconds, args.trace as u8, args.sync_every, args.checkpoint_every
    );
    if args.trace {
        per_layer(&cfg, args.seconds)
    } else {
        end_to_end(&cfg, args.seconds)
    }
}

/// Probe mode: time set-ups for `PROBE_BUDGET` and print their median
/// in seconds.
fn setup_probe(cfg: &Config) -> Result<(), String> {
    let mut times = Vec::new();
    let began = Instant::now();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && began.elapsed() < PROBE_BUDGET)
    {
        let t = Instant::now();
        let served = served::setup(cfg, Obs::disabled())?;
        times.push(t.elapsed().as_secs_f64());
        drop(served);
    }
    println!("{}", median(&times));
    Ok(())
}

/// Probe mode: time recoveries of the log on stdin, which must recover
/// to version `commits`, for `RECOVERY_BUDGET` and print their median
/// in ms.
fn recover_probe(cfg: &Config, commits: u64) -> Result<(), String> {
    let mut log = Vec::new();
    std::io::stdin()
        .read_to_end(&mut log)
        .map_err(|e| format!("reading the log: {e}"))?;
    let (schema, _) = cfg.workload.initial_state(cfg.seed).map_err(|e| e.to_string())?;
    let times = served::time_recoveries(&schema, &log, commits, RECOVERY_BUDGET)?;
    println!("{}", median(&times));
    Ok(())
}

/// Run a probe (this program with this run's arguments and `probe`),
/// feed it `input`, wait for it to end, and return the median it
/// printed.
fn run_probe(probe: &[String], input: &[u8]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("probe: {e}"))?;
    let mut child = Command::new(exe)
        .args(std::env::args().skip(1))
        .args(probe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("probe: {e}"))?;
    // a probe that fails before reading its input closes the pipe; its
    // exit status and stderr below say why
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input);
    let out = child
        .wait_with_output()
        .map_err(|e| format!("probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} failed: {}",
            probe[0],
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("{} printed no time", probe[0]))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn end_to_end(cfg: &Config, seconds: f64) -> Result<(), String> {
    let mut tally = Tally::default();
    let (mut setups, mut commit_us, mut read_us, mut recover_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut commits, mut refused, mut wal_bytes, mut elapsed_s) = (0, 0, 0, 0.0);
    let mut peak_rss_mb = f64::NAN;
    let mut recovered_commits = u64::MAX;
    for round in 0..ROUNDS {
        for _ in 0..PROBES {
            setups.push(run_probe(&["--setup-probe".to_string()], &[])?);
        }
        let cfg = cfg.round(u64::from(round));
        let served = served::setup(&cfg, Obs::disabled())?;
        let o = served::run(&cfg, served, seconds / f64::from(ROUNDS));
        let probe = ["--recover-probe".to_string(), o.recovered_commits.to_string()];
        for _ in 0..PROBES {
            recover_ms.push(run_probe(&probe, &o.recovery_log)?);
        }
        tally.add(o.attempted, o.failures);
        commit_us.extend(o.commit_us);
        read_us.extend(o.read_us);
        commits += o.commits;
        refused += o.refused;
        wal_bytes += o.wal_bytes;
        elapsed_s += o.elapsed_s;
        recovered_commits = recovered_commits.min(o.recovered_commits);
        if round == 0 {
            // later rounds would read the high-water mark the checks of
            // earlier ones left
            peak_rss_mb = o.peak_rss_mb;
        }
    }
    tally.require("commit", commit_us.len());
    tally.require("read", read_us.len());
    println!(
        "# samples: rounds={ROUNDS} commit={} read={} refused={refused} setup_probes={} recovery_probes={} (of at least {recovered_commits} commits each)",
        commit_us.len(),
        read_us.len(),
        setups.len(),
        recover_ms.len(),
    );
    println!("# read path: {}", read_path(cfg.workload));
    let mut m = Metrics::default();
    m.put("setup_s", mean(&setups), "s");
    m.put("commit_p50_us", median(&commit_us), "us");
    m.put("commit_p95_us", quantile(&commit_us, 0.95), "us");
    m.put("commit_tput", commits as f64 / elapsed_s, "1/s");
    m.put("read_p50_us", median(&read_us), "us");
    m.put("read_p95_us", quantile(&read_us, 0.95), "us");
    m.put("recover_ms", mean(&recover_ms), "ms");
    m.put(
        "wal_bytes_per_commit",
        wal_bytes as f64 / commits.max(1) as f64,
        "bytes",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    tally.finish(&m);
    Ok(())
}

fn read_path(w: Workload) -> &'static str {
    if w.has_subscriber() {
        "commit send to Notification receipt on the subscriber connection"
    } else {
        "Ask round trip"
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A traced run spends `--seconds` in three phases: this share on the
/// untraced served run, as much on the recording one, and the rest on
/// the in-process replay.
const SERVED_SHARE: f64 = 0.4;

fn per_layer(cfg: &Config, seconds: f64) -> Result<(), String> {
    let mut tally = Tally::default();

    // 1. the untraced served run, as `--trace 0` measures it
    let served_s = seconds * SERVED_SHARE;
    let plain = served::run(cfg, served::setup(cfg, Obs::disabled())?, served_s);
    tally.require("commit", plain.commit_us.len());
    tally.add(plain.attempted, plain.failures);
    let served_p50 = median(&plain.commit_us);

    // 2. the same run against a recording database: the obs counters,
    //    and the tracing overhead on the served p50
    let rec = served::run(cfg, served::setup(cfg, Obs::enabled())?, served_s);
    tally.require("traced commit", rec.commit_us.len());
    tally.add(rec.attempted, rec.failures);
    let traced_p50 = median(&rec.commit_us);
    let c = |k| rec.metrics.get(k) as f64;
    let installed = c(Counter::CommitsApplied) + c(Counter::CommitsForwarded);
    let batches = rec.metrics.hist(Hist::WalGroupBatchSize);

    // 3. the in-process replay with a timer around each layer call
    let r = traced::run(cfg, Duration::from_secs_f64(seconds - 2.0 * served_s))?;
    tally.add(r.attempted, r.failures);
    let s = &r.stages;
    println!(
        "# samples: served_commit={} traced_commit={} replay_commit={} replay_ask={} refused={}",
        plain.commit_us.len(),
        rec.commit_us.len(),
        r.commits,
        r.asks,
        plain.refused
    );

    let mut m = Metrics::default();
    for name in ["server.req_codec_us", "server.resp_codec_us"] {
        m.put(name, s.median(name), "us");
    }
    m.put(
        "server.residual_us",
        served_p50 - median(&r.commit_total_us),
        "us",
    );
    m.put("logic.parse_us", s.median("logic.parse_us"), "us");
    m.put("logic.check_us", s.median("logic.check_us"), "us");
    m.put(
        "exec.engine_build_us",
        s.median("exec.engine_build_us"),
        "us",
    );
    m.put("exec.execute_us", s.median("exec.execute_us"), "us");
    m.put("exec.eval_truth_us", s.median("exec.eval_truth_us"), "us");
    m.put(
        "plan.rows_per_result",
        ratio(
            c(Counter::ScanRows) + c(Counter::ProbeRows),
            c(Counter::AssignmentsEmitted),
        ),
        "ratio",
    );
    m.put(
        "plan.index_builds_per_op",
        ratio(c(Counter::IndexBuilds), rec.attempted as f64),
        "ratio",
    );
    for name in ["db.footprint_us", "db.submit_us", "db.ack_wait_us"] {
        m.put(name, s.median(name), "us");
    }
    m.put(
        "db.first_try_ratio",
        ratio(
            c(Counter::CommitAttempts) - c(Counter::CommitConflicts),
            c(Counter::CommitAttempts),
        ),
        "ratio",
    );
    m.put(
        "db.forwarded_share",
        ratio(c(Counter::CommitsForwarded), installed),
        "ratio",
    );
    for name in constraint_names() {
        let key = format!("constraints.check_us.{name}");
        let v = s.median(&key);
        m.put(key, v, "us");
    }
    m.put(
        "constraints.affected_ratio",
        ratio(r.affected as f64, r.constraint_slots as f64),
        "ratio",
    );
    for name in [
        "relational.modify_us",
        "relational.apply_us",
        "relational.encode_delta_us",
    ] {
        m.put(name, s.median(name), "us");
    }
    m.put(
        "relational.delta_bytes",
        s.median("relational.delta_bytes"),
        "bytes",
    );
    m.put("relational.size_ratio", r.size_ratio, "ratio");
    m.put(
        "wal.batch_size_mean",
        ratio(batches.sum as f64, batches.count as f64),
        "count",
    );
    m.put(
        "wal.bytes_per_commit",
        ratio(c(Counter::WalBytes) - rec.opening_log_len as f64, installed),
        "bytes",
    );
    m.put("events.advance_us", s.median("events.advance_us"), "us");
    m.put(
        "events.matches_per_commit",
        ratio(r.matches as f64, r.commits as f64),
        "ratio",
    );
    let attributed: f64 = traced::COMMIT_STAGES.iter().map(|n| s.median(n)).sum();
    m.put("trace.attributed_share", attributed / served_p50, "ratio");
    m.put("trace.overhead_us", traced_p50 - served_p50, "us");
    tally.finish(&m);
    Ok(())
}

/// Every constraint the paper workload registers, named as its
/// `constraints.check_us.<name>` metric; 0 on workloads without them.
fn constraint_names() -> Vec<String> {
    use txlog_engine::CommitConstraint;
    txlog_empdb::constraints::session_constraints()
        .map(|cs| cs.iter().map(|c| c.name().to_string()).collect())
        .unwrap_or_default()
}
