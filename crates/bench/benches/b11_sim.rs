//! B11 — the simulation seam's cost, and explorer throughput.
//!
//! The commit/WAL pipeline consults an optional [`StepHook`] at every
//! decision point so the model checker can schedule interleavings and
//! faults. In normal operation the hook is `None` and each point costs
//! one branch. This bench quantifies that claim the same way
//! b8-style metrics measurements do: commit throughput with no hook
//! installed vs. with a do-nothing hook, plus the explorer's
//! schedules/second so the CI model-check budget stays honest.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;
use txlog::empdb::transactions::raise_salary;
use txlog::empdb::{populate, Sizes};
use txlog::engine::sim::{
    explore_exhaustive, ExploreOptions, SimConfig, StepAction, StepHook, StepPoint,
};
use txlog::engine::{Database, Env};

/// The do-nothing hook: every step proceeds, nothing is recorded. The
/// difference between this and no hook at all is the dynamic-dispatch
/// cost the seam adds when armed.
struct NoopHook;

impl StepHook for NoopHook {
    fn on_step(&self, _point: StepPoint) -> StepAction {
        StepAction::Proceed
    }
}

fn database() -> Database {
    let (schema, db) = populate(Sizes::small(), 2).expect("population generates");
    Database::builder(schema)
        .initial(db)
        .build()
        .expect("database builds")
}

/// Commit throughput with the seam disarmed (hook `None`, the normal
/// build) and armed with a no-op hook.
fn bench_seam_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("b11_seam_overhead");
    group.throughput(Throughput::Elements(1));
    let tx = raise_salary("emp-0", 1);
    let env = Env::new();

    group.bench_function("no_hook", |b| {
        let db = database();
        let mut session = db.session();
        b.iter(|| session.commit("raise", &tx, &env).expect("commits"))
    });
    group.bench_function("noop_hook", |b| {
        let mut db = database();
        db.set_step_hook(Arc::new(NoopHook));
        let db = db;
        let mut session = db.session();
        b.iter(|| session.commit("raise", &tx, &env).expect("commits"))
    });
    group.finish();
}

/// Explorer throughput: full exhaustive enumeration of the 2-session
/// contended empdb workload, in schedules (leaves) per run.
fn bench_explorer(c: &mut Criterion) {
    let mut group = c.benchmark_group("b11_explorer");
    group.sample_size(10);
    let cfg = || {
        let (schema, db) = populate(Sizes::small(), 2).expect("population generates");
        SimConfig::new(schema)
            .initial(db)
            .session("a", vec![raise_salary("emp-0", 10)])
            .session("b", vec![raise_salary("emp-0", 7)])
    };
    group.bench_function("exhaustive_2x1_contended", |b| {
        let cfg = cfg();
        b.iter(|| {
            let report = explore_exhaustive(&cfg, &ExploreOptions::default()).expect("explores");
            assert!(report.failure.is_none());
            report.schedules
        })
    });
    group.finish();
}

/// The machine-independent half of the "seam is free" claim: commits
/// with no hook installed must not run materially slower than with a
/// no-op hook armed — the disarmed branch cannot be the expensive side.
fn report_seam_overhead(_c: &mut Criterion) {
    const COMMITS: usize = 400;
    let time_commits = |hook: bool| {
        let mut db = database();
        if hook {
            db.set_step_hook(Arc::new(NoopHook));
        }
        let db = db;
        let tx = raise_salary("emp-0", 1);
        let env = Env::new();
        let mut session = db.session();
        let start = std::time::Instant::now();
        for i in 0..COMMITS {
            session
                .commit(&format!("raise-{i}"), &tx, &env)
                .expect("commits");
        }
        COMMITS as f64 / start.elapsed().as_secs_f64()
    };
    // warm both paths once, then measure
    time_commits(false);
    time_commits(true);
    let disarmed = time_commits(false);
    let armed = time_commits(true);
    let ratio = disarmed / armed;
    eprintln!(
        "b11_seam_overhead_report: disarmed {disarmed:.0} commits/s, \
         noop-armed {armed:.0} commits/s (disarmed/armed ratio {ratio:.2})"
    );
    assert!(
        ratio >= 0.5,
        "the disarmed seam must not cost more than a real hook: ratio {ratio:.2}"
    );
}

criterion_group!(
    benches,
    bench_seam_overhead,
    bench_explorer,
    report_seam_overhead
);
criterion_main!(benches);
