//! Edge cases of delta forwarding (`Delta::rebase_fresh`) that the
//! simulation explorer surfaces: an *empty* delta forwarded over a
//! moved head, a forwarded rebase whose WAL record lands across a
//! checkpoint boundary, and a rebase attempt aborted by a poisoned WAL.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use txlog_base::Atom;
use txlog_engine::sim::{StepAction, StepHook, StepPoint};
use txlog_engine::{CommitError, Database, Durability, Env, MemStore, WalError};
use txlog_logic::{parse_fterm, FTerm, ParseCtx};
use txlog_relational::codec::encode_db_state;
use txlog_relational::{DbState, Schema};

fn schema() -> Schema {
    Schema::new()
        .relation("EMP", &["e-name", "salary"])
        .expect("EMP declares")
        .relation("LOG", &["l-name"])
        .expect("LOG declares")
}

fn populated(schema: &Schema) -> DbState {
    let emp = schema.rel_id("EMP").expect("EMP exists");
    let (db, _) = schema
        .initial_state()
        .insert_fields(emp, &[Atom::str("ann"), Atom::nat(500)])
        .expect("seed row inserts");
    db
}

fn tx(src: &str) -> FTerm {
    parse_fterm(src, &ParseCtx::with_relations(&["EMP", "LOG"]), &[]).expect("transaction parses")
}

fn raise() -> FTerm {
    tx("foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end")
}

/// An empty delta (here: the identity transaction, whose footprint is
/// empty too) forwards over a moved head without touching its state:
/// the commit lands, claims a version, and the head content is exactly
/// what the concurrent writer installed.
#[test]
fn empty_delta_forwards_over_a_moved_head() {
    let s = schema();
    let db = Database::builder(s.clone())
        .initial(populated(&s))
        .build()
        .expect("database builds");
    let env = Env::new();

    let mut stale = db.session(); // pinned at version 0
    let mut writer = db.session();
    writer.commit("raise", &raise(), &env).expect("raise lands");
    let head_after_raise = (*db.snapshot()).clone();

    let commit = stale
        .commit("noop", &FTerm::Identity, &env)
        .expect("empty delta commits");
    assert!(commit.forwarded, "stale empty delta takes the rebase path");
    assert_eq!(commit.retries, 0, "an empty footprint never conflicts");
    assert_eq!(commit.version, 2, "the no-op still claims a version");
    assert!(
        db.snapshot().content_eq(&head_after_raise),
        "forwarding an empty delta must not change the head's content"
    );
}

/// A forwarded rebase whose commit record lands right after a
/// checkpoint record (`checkpoint_every: 1` checkpoints after every
/// commit): recovery from the raw store bytes reproduces the forwarded
/// head byte-for-byte at the right version.
#[test]
fn forwarded_rebase_recovers_across_a_checkpoint_boundary() {
    let s = schema();
    let store = MemStore::default();
    let (db, report) = Database::builder(s.clone())
        .initial(populated(&s))
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 1,
        })
        .open_store(Box::new(store.clone()))
        .expect("fresh log opens");
    assert!(report.fresh);
    let env = Env::new();

    let mut stale = db.session(); // pinned at version 0
    let mut writer = db.session();
    writer.commit("raise", &raise(), &env).expect("raise lands");
    // the raise logged a commit record and then a checkpoint; the
    // forwarded insert below is the first record past that boundary
    let commit = stale
        .commit("memo", &tx("insert(tuple('memo'), LOG)"), &env)
        .expect("disjoint insert commits");
    assert!(commit.forwarded, "stale disjoint commit forwards");
    assert_eq!(commit.version, 2);

    let (recovered, report) = Database::builder(s)
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 1,
        })
        .open_store(Box::new(MemStore::from_bytes(store.contents())))
        .expect("log reopens");
    assert!(!report.fresh);
    assert_eq!(recovered.head_version(), 2, "both commits recover");
    assert_eq!(
        encode_db_state(&recovered.snapshot()),
        encode_db_state(&db.snapshot()),
        "recovery reproduces the forwarded head byte-for-byte"
    );
}

/// Fails the `n`-th fsync it sees (1-based), cleanly, once.
struct FailNthFsync {
    seen: AtomicU32,
    nth: u32,
}

impl StepHook for FailNthFsync {
    fn on_step(&self, point: StepPoint) -> StepAction {
        if point == StepPoint::WalFsync && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.nth
        {
            return StepAction::FailIo;
        }
        StepAction::Proceed
    }
}

/// A session holding a stale snapshot attempts a forwarded rebase after
/// another writer's fsync failure poisoned the WAL: the rebase aborts
/// with `Poisoned` (fatal, no retry). The commit whose fsync failed
/// *did* install (installation precedes the append under group commit)
/// but was never acknowledged; recovery returns it — nothing the
/// aborted rebase touched.
#[test]
fn rebase_attempt_after_poisoned_wal_aborts_cleanly() {
    let s = schema();
    let store = MemStore::default();
    let (mut db, _) = Database::builder(s.clone())
        .initial(populated(&s))
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 0,
        })
        .open_store(Box::new(store.clone()))
        .expect("fresh log opens");
    // installed after open, so the open-time checkpoint's fsync is not
    // counted: the second *commit* fsync is the one that fails
    db.set_step_hook(Arc::new(FailNthFsync {
        seen: AtomicU32::new(0),
        nth: 2,
    }));
    let db = db;
    let env = Env::new();

    let mut stale = db.session(); // pinned at version 0
    let mut writer = db.session();
    writer
        .commit("raise-1", &raise(), &env)
        .expect("first lands");
    let err = writer
        .commit("raise-2", &raise(), &env)
        .expect_err("second commit's fsync fails");
    assert!(
        matches!(err, CommitError::Durability(WalError::Io { .. })),
        "the failing fsync surfaces as an I/O durability error, got {err:?}"
    );
    assert_eq!(
        db.head_version(),
        2,
        "the unacknowledged commit installed before its batch failed"
    );

    // the stale session's footprint (LOG) is disjoint from the raises
    // (EMP), so this would forward — but the WAL is poisoned
    let err = stale
        .commit("memo", &tx("insert(tuple('memo'), LOG)"), &env)
        .expect_err("rebase against a poisoned WAL must abort");
    assert!(
        matches!(err, CommitError::Durability(WalError::Poisoned { .. })),
        "poisoning is fatal and not retried, got {err:?}"
    );
    assert_eq!(db.head_version(), 2, "the aborted rebase never installs");

    // recovery sees the durable-but-unacked second raise, not the memo
    let (recovered, _) = Database::builder(s)
        .durability(Durability::Wal {
            sync_every: 1,
            checkpoint_every: 0,
        })
        .open_store(Box::new(MemStore::from_bytes(store.contents())))
        .expect("log reopens");
    assert_eq!(
        recovered.head_version(),
        2,
        "the appended-but-unsynced commit is on disk and recovers"
    );
    let emp = recovered.schema().rel_id("EMP").expect("EMP exists");
    let snap = recovered.snapshot();
    let salaries: Vec<u64> = snap
        .relation(emp)
        .expect("EMP recovers")
        .iter()
        .map(|t| t.fields()[1].as_nat().expect("salary is a nat"))
        .collect();
    assert_eq!(
        salaries,
        vec![520],
        "both raises are in the recovered state"
    );
}
