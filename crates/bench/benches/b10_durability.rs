//! B10 — durability: what the write-ahead log costs and what recovery
//! buys.
//!
//! Three questions, quantified:
//!
//! * **Commit overhead** — throughput of the same insert workload with
//!   durability off, with a WAL batch cap of 1 (one fsync per commit),
//!   and with a cap of 64. A *single* sequential committer always
//!   drains as a batch of one — acknowledgment waits on the group
//!   fsync either way — so the last two should be close; the batching
//!   win needs concurrent committers and is measured in
//!   `b12_group_commit`. The gap to `off` is the price of the log.
//! * **Recovery cost** — time to recover a database from logs of
//!   growing length, with and without periodic checkpoints. Checkpoints
//!   should make recovery nearly flat in history length, because replay
//!   starts at the last checkpoint instead of the log's origin.
//! * **Accounting** — `report_wal_counters` runs a fixed workload with
//!   a live metrics registry, prints the `wal_*` / `recover_*`
//!   counters, and asserts the acceptance bar: every acknowledged
//!   commit survives recovery, and checkpointed recovery replays
//!   strictly fewer deltas than checkpoint-free recovery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use txlog::engine::{Database, Durability, Env, MemStore};
use txlog::logic::{parse_fterm, FTerm, ParseCtx};
use txlog::prelude::{Counter, Metrics, Schema};

fn schema() -> Schema {
    Schema::new()
        .relation("LEDGER", &["l-entry", "amount"])
        .expect("schema builds")
}

fn ctx() -> ParseCtx {
    ParseCtx::with_relations(&["LEDGER"])
}

fn entry(n: u64) -> FTerm {
    parse_fterm(&format!("insert(tuple('e-{n}', {n}), LEDGER)"), &ctx(), &[]).expect("parses")
}

/// Commit throughput against a file-backed log in a temp directory —
/// fsync cadence is the experimental variable, so the log must live on
/// a real filesystem.
fn bench_commit_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("b10_commit_overhead");
    group.throughput(Throughput::Elements(1));
    let variants: [(&str, Option<Durability>); 3] = [
        ("off", None),
        (
            "wal_sync_1",
            Some(Durability::Wal {
                sync_every: 1,
                checkpoint_every: 1 << 20,
            }),
        ),
        (
            "wal_sync_64",
            Some(Durability::Wal {
                sync_every: 64,
                checkpoint_every: 1 << 20,
            }),
        ),
    ];
    for (name, durability) in variants {
        let dir = std::env::temp_dir().join("txlog-b10");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}.wal"));
        let _ = std::fs::remove_file(&path);
        let db = match durability {
            None => Database::builder(schema())
                .build()
                .expect("database builds"),
            Some(d) => {
                Database::builder(schema())
                    .durability(d)
                    .open_path(&path)
                    .expect("log opens")
                    .0
            }
        };
        let env = Env::new();
        let mut n = 0u64;
        group.bench_function(BenchmarkId::new("commit", name), |b| {
            b.iter(|| {
                n += 1;
                db.session()
                    .commit(&format!("e-{n}"), &entry(n), &env)
                    .expect("commit succeeds")
            })
        });
        drop(db);
        let _ = std::fs::remove_file(&path);
    }
    group.finish();
}

/// Build an in-memory log of `commits` inserts and return its bytes.
fn logged_history(commits: u64, checkpoint_every: u64) -> Vec<u8> {
    let store = MemStore::default();
    let (db, _) = Database::builder(schema())
        .durability(Durability::Wal {
            sync_every: u64::MAX,
            checkpoint_every,
        })
        .open_store(Box::new(store.clone()))
        .expect("log opens");
    let env = Env::new();
    let mut session = db.session();
    for n in 0..commits {
        session
            .commit(&format!("e-{n}"), &entry(n), &env)
            .expect("commit succeeds");
    }
    drop(session);
    drop(db);
    store.contents()
}

/// Recovery time as the log grows, with checkpoints every 64 commits
/// versus none at all (replay from the origin).
fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("b10_recovery");
    for &commits in &[64u64, 256] {
        for (name, cadence) in [("checkpointed", 64u64), ("replay_all", u64::MAX)] {
            let bytes = logged_history(commits, cadence);
            group.throughput(Throughput::Elements(commits));
            group.bench_with_input(
                BenchmarkId::new(name, commits),
                &bytes,
                |b, bytes: &Vec<u8>| {
                    b.iter(|| {
                        let (db, report) = Database::builder(schema())
                            .open_store(Box::new(MemStore::from_bytes(bytes.clone())))
                            .expect("recovers");
                        assert_eq!(report.version, commits, "full history recovered");
                        db
                    })
                },
            );
        }
    }
    group.finish();
}

/// Print the WAL counters for a fixed workload and assert the
/// accounting invariants the timing groups rely on.
fn report_wal_counters(_c: &mut Criterion) {
    const COMMITS: u64 = 200;
    let env = Env::new();
    let metrics = Metrics::enabled();
    let store = MemStore::default();
    let (db, _) = Database::builder(schema())
        .metrics(metrics.clone())
        .durability(Durability::Wal {
            sync_every: 8,
            checkpoint_every: 64,
        })
        .open_store(Box::new(store.clone()))
        .expect("log opens");
    let mut session = db.session();
    for n in 0..COMMITS {
        session
            .commit(&format!("e-{n}"), &entry(n), &env)
            .expect("commit succeeds");
    }
    drop(session);
    drop(db);

    let recover = |bytes: Vec<u8>, m: &Metrics| {
        Database::builder(schema())
            .metrics(m.clone())
            .open_store(Box::new(MemStore::from_bytes(bytes)))
            .expect("recovers")
    };
    let ckpt_metrics = Metrics::enabled();
    let (_, with_ckpt) = recover(store.contents(), &ckpt_metrics);
    let flat = logged_history(COMMITS, u64::MAX);
    let (_, no_ckpt) = recover(flat, &Metrics::enabled());

    eprintln!(
        "b10_wal_counters: appends {}, bytes {}, fsyncs {}, checkpoints {}",
        metrics.get(Counter::WalAppends),
        metrics.get(Counter::WalBytes),
        metrics.get(Counter::WalFsyncs),
        metrics.get(Counter::WalCheckpoints),
    );
    eprintln!(
        "b10_recovery: v{} replaying {} deltas (checkpointed) vs v{} replaying {} (flat log)",
        with_ckpt.version, with_ckpt.replayed_deltas, no_ckpt.version, no_ckpt.replayed_deltas,
    );
    assert_eq!(with_ckpt.version, COMMITS, "no acknowledged commit lost");
    assert_eq!(no_ckpt.version, COMMITS, "no acknowledged commit lost");
    assert!(
        with_ckpt.replayed_deltas < no_ckpt.replayed_deltas,
        "checkpoints must shorten replay"
    );
    assert_eq!(
        no_ckpt.replayed_deltas, COMMITS,
        "a checkpoint-free log replays everything"
    );
    assert!(
        metrics.get(Counter::WalCheckpoints) >= COMMITS / 64,
        "checkpoint cadence was honored"
    );
    assert!(
        metrics.get(Counter::WalFsyncs) <= metrics.get(Counter::WalAppends),
        "syncs cannot outnumber appends"
    );
}

criterion_group!(
    benches,
    bench_commit_overhead,
    bench_recovery,
    report_wal_counters
);
criterion_main!(benches);
