//! B9 — concurrent sessions: read scaling over shared snapshots and
//! optimistic commit throughput under contention.
//!
//! The session layer's claims, quantified:
//!
//! * readers share `Arc` snapshots of the committed head, so read
//!   throughput should scale with reader threads (no lock on the read
//!   path);
//! * writers whose static footprints touch *disjoint* relations should
//!   almost always commit first try (the delta-forwarding fast path),
//!   while writers contending on one relation pay conflicts + retries
//!   but still all serialize.
//!
//! Beyond the timing groups, `report_commit_pipeline` prints first-try
//! success and conflict rates and asserts the acceptance bar: ≥ 90%
//! first-try success for four disjoint writers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use txlog::empdb::transactions::{add_dept, add_project, obtain_skill, raise_salary};
use txlog::empdb::{populate, Sizes};
use txlog::engine::{Database, Env};
use txlog::logic::parse_fformula;

fn database(n: usize) -> Database {
    let (schema, db) = populate(Sizes::scaled(n), 2).expect("population generates");
    Database::builder(schema)
        .initial(db)
        .build()
        .expect("database builds")
}

/// Read throughput with 1..=8 reader threads evaluating the same query
/// against their own snapshots. The read path takes the head lock only
/// to clone an `Arc`, so aggregate elements/sec should scale with
/// threads up to the core count — and, crucially, must not *collapse*
/// under oversubscription (that would betray a lock on the read path).
/// `report_read_scaling` asserts the no-collapse property, which is the
/// machine-independent half of the claim (single-core CI boxes cannot
/// show a speedup).
fn bench_read_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("b9_read_scaling");
    let db = database(100);
    let ctx = txlog::empdb::parse_ctx();
    let query =
        parse_fformula("exists e: 5tup . e in EMP & salary(e) > 400", &ctx, &[]).expect("parses");
    const READS_PER_THREAD: usize = 20;
    for &readers in &[1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((readers * READS_PER_THREAD) as u64));
        group.bench_with_input(
            BenchmarkId::new("readers", readers),
            &readers,
            |b, &readers| {
                b.iter(|| {
                    thread::scope(|s| {
                        for _ in 0..readers {
                            s.spawn(|| {
                                let engine = db.engine().expect("engine builds");
                                let env = Env::new();
                                for _ in 0..READS_PER_THREAD {
                                    let snap = db.snapshot();
                                    assert!(engine
                                        .eval_truth(&snap, &query, &env)
                                        .expect("evaluates"));
                                }
                            });
                        }
                    })
                })
            },
        );
    }
    group.finish();
}

/// Sequential commit throughput through a session — the single-writer
/// baseline the concurrent numbers are judged against.
fn bench_commit_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("b9_commit_throughput");
    group.throughput(Throughput::Elements(1));
    group.bench_function("raise_salary", |b| {
        let db = database(50);
        let mut session = db.session();
        let tx = raise_salary("emp-0", 1);
        let env = Env::new();
        b.iter(|| session.commit("raise", &tx, &env).expect("commits"))
    });
    group.finish();
}

/// One transaction per writer thread, each touching its own relation.
fn disjoint_tx(writer: usize, round: usize) -> txlog::logic::FTerm {
    match writer {
        0 => raise_salary("emp-0", 1),
        1 => obtain_skill("emp-1", 1000 + round as u64),
        2 => add_project(&format!("proj-w2-{round}"), 0),
        _ => add_dept(&format!("dept-w3-{round}"), "emp-2", "hq"),
    }
}

struct Tally {
    commits: AtomicU64,
    first_try: AtomicU64,
    retries: AtomicU64,
    forwarded: AtomicU64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            commits: AtomicU64::new(0),
            first_try: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
        }
    }

    fn record(&self, commit: &txlog::engine::Commit) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.retries
            .fetch_add(commit.retries as u64, Ordering::Relaxed);
        if commit.retries == 0 {
            self.first_try.fetch_add(1, Ordering::Relaxed);
        }
        if commit.forwarded {
            self.forwarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn run_writers(
    db: &Database,
    writers: usize,
    rounds: usize,
    tx_for: impl Fn(usize, usize) -> txlog::logic::FTerm + Sync,
) -> Tally {
    let tally = Tally::new();
    thread::scope(|s| {
        for w in 0..writers {
            let tally = &tally;
            let tx_for = &tx_for;
            s.spawn(move || {
                let env = Env::new();
                let mut session = db.session();
                for round in 0..rounds {
                    let tx = tx_for(w, round);
                    let commit = session
                        .commit(&format!("w{w}-r{round}"), &tx, &env)
                        .expect("commit succeeds within the retry budget");
                    tally.record(&commit);
                }
            });
        }
    });
    tally
}

/// Asserts the no-collapse half of the read-scaling claim: aggregate
/// read throughput with 8 reader threads stays within 2x of a single
/// reader (snapshot reads never queue on a lock).
fn report_read_scaling(_c: &mut Criterion) {
    let db = database(100);
    let ctx = txlog::empdb::parse_ctx();
    let query =
        parse_fformula("exists e: 5tup . e in EMP & salary(e) > 400", &ctx, &[]).expect("parses");
    const READS: usize = 200;
    let time_readers = |threads: usize| {
        let start = std::time::Instant::now();
        thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let engine = db.engine().expect("engine builds");
                    let env = Env::new();
                    for _ in 0..READS {
                        let snap = db.snapshot();
                        assert!(engine.eval_truth(&snap, &query, &env).expect("evaluates"));
                    }
                });
            }
        });
        (threads * READS) as f64 / start.elapsed().as_secs_f64()
    };
    let single = time_readers(1);
    let oversubscribed = time_readers(8);
    let ratio = oversubscribed / single;
    eprintln!(
        "b9_read_scaling_report: 1 reader {single:.0} reads/s,          8 readers {oversubscribed:.0} reads/s aggregate (ratio {ratio:.2})"
    );
    assert!(
        ratio >= 0.5,
        "aggregate read throughput collapsed under 8 readers: ratio {ratio:.2}"
    );
}

/// The headline numbers: disjoint-footprint writers commit first try
/// (forwarding), contended writers conflict but all serialize.
fn report_commit_pipeline(_c: &mut Criterion) {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 25;

    // four writers, four relations: EMP, SKILL, PROJ, DEPT
    let db = database(50);
    let base_version = db.head_version();
    let tally = run_writers(&db, WRITERS, ROUNDS, disjoint_tx);
    let commits = tally.commits.load(Ordering::Relaxed);
    let first_try = tally.first_try.load(Ordering::Relaxed);
    assert_eq!(commits, (WRITERS * ROUNDS) as u64, "every commit lands");
    assert_eq!(
        db.head_version(),
        base_version + commits,
        "one head version per commit"
    );
    let pct = 100.0 * first_try as f64 / commits as f64;
    eprintln!(
        "b9_disjoint_writers/{WRITERS}: {commits} commits, first-try {pct:.1}%, \
         forwarded {}, retries {}",
        tally.forwarded.load(Ordering::Relaxed),
        tally.retries.load(Ordering::Relaxed),
    );
    assert!(
        pct >= 90.0,
        "disjoint writers must commit first try >= 90% of the time, got {pct:.1}%"
    );

    // four writers contending on one relation: conflicts expected, but
    // every increment must survive serialization
    let (schema, initial) = populate(Sizes::scaled(50), 2).expect("population generates");
    let db = Database::builder(schema)
        .initial(initial)
        .default_retry(txlog::engine::RetryPolicy {
            max_retries: 64,
            ..Default::default()
        })
        .build()
        .expect("database builds");
    let tally = run_writers(&db, WRITERS, ROUNDS, |w, _| {
        raise_salary(&format!("emp-{w}"), 1)
    });
    let commits = tally.commits.load(Ordering::Relaxed);
    assert_eq!(commits, (WRITERS * ROUNDS) as u64, "every commit lands");
    let snap = db.snapshot();
    let schema = db.schema();
    let emp = schema.rel_id("EMP").expect("EMP exists");
    for w in 0..WRITERS {
        let name = format!("emp-{w}");
        let raised = snap
            .relation(emp)
            .expect("relation exists")
            .iter()
            .find(|t| t.fields()[0] == txlog::base::Atom::str(&name))
            .map(|t| t.fields()[2].as_nat().expect("salary is a nat"))
            .expect("employee present");
        // what matters is that all ROUNDS raises survived serialization
        assert!(
            raised >= ROUNDS as u64,
            "lost update: emp-{w} salary {raised} < {ROUNDS}"
        );
    }
    eprintln!(
        "b9_contended_writers/{WRITERS}: {commits} commits, first-try {:.1}%, retries {}",
        100.0 * tally.first_try.load(Ordering::Relaxed) as f64 / commits as f64,
        tally.retries.load(Ordering::Relaxed),
    );
}

criterion_group!(
    benches,
    bench_read_scaling,
    bench_commit_throughput,
    report_read_scaling,
    report_commit_pipeline
);
criterion_main!(benches);
