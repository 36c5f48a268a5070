//! Sessions: snapshot pinning, isolation levels, and the commit attempt.

use super::{submit_error, Commit, CommitError, CommitTicket, Database, Footprint};
use crate::env::Env;
use crate::exec::Execution;
use crate::sim::{ProtocolBug, StepPoint};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use txlog_base::obs::Counter;
use txlog_base::TxResult;
use txlog_logic::{FFormula, FTerm};
use txlog_relational::DbState;

/// Retry/backoff policy for optimistic commits.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Re-executions allowed after the first conflicted attempt before
    /// [`CommitError::RetriesExhausted`].
    pub max_retries: u32,
    /// First backoff delay; doubles per retry. Zero disables sleeping
    /// (useful for deterministic tests).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff delay.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A policy that retries up to `max_retries` times without sleeping.
    pub fn no_backoff(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    fn delay(&self, retry: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let mult = 1u32.checked_shl(retry.min(16)).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(mult)
            .unwrap_or(self.backoff_cap)
            .min(self.backoff_cap)
    }
}

/// The concurrency contract a [`Session`] runs under — which anomalies
/// the session tolerates in exchange for cheaper commits.
///
/// * [`ReadCommitted`](IsolationLevel::ReadCommitted) re-pins the head
///   snapshot at every statement boundary ([`Session::execute`],
///   [`Session::prepare`], [`Session::ask`], and each commit call), and
///   conflicts only on *write-write* overlap with concurrently
///   committed deltas (first committer wins). Non-repeatable reads
///   between statements are permitted; lost updates are not.
/// * [`Snapshot`](IsolationLevel::Snapshot) — the default — keeps the
///   session pinned to one snapshot and conflicts when the *full*
///   program footprint (reads ∪ writes) overlaps concurrent deltas.
///   Statements always see one consistent state; write skew across
///   statement-level reads is permitted.
/// * [`Serializable`](IsolationLevel::Serializable) extends snapshot
///   validation with SSI-style read certification: the session
///   accumulates the read footprint of every statement it runs, and a
///   commit aborts with [`CommitError::SerializationFailure`] when any
///   concurrently committed delta intersects that read set. Stale reads
///   cannot be repaired by re-execution, so the failure is fatal rather
///   than retried — callers restart the whole transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum IsolationLevel {
    /// Statement-level snapshots, write-write conflict detection only.
    ReadCommitted,
    /// One snapshot per transaction, full-footprint conflict detection.
    #[default]
    Snapshot,
    /// Snapshot plus commit-time certification of accumulated reads.
    Serializable,
}

impl IsolationLevel {
    /// Every level, weakest first.
    pub const ALL: [IsolationLevel; 3] = [
        IsolationLevel::ReadCommitted,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ];

    /// Stable kebab-case name, used on the wire and in the REPL.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "read-committed",
            IsolationLevel::Snapshot => "snapshot",
            IsolationLevel::Serializable => "serializable",
        }
    }

    /// Parse a level name as typed in a REPL (`read-committed`,
    /// `snapshot`, `serializable`, plus the usual abbreviations).
    pub fn parse(s: &str) -> Option<IsolationLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "read-committed" | "read_committed" | "readcommitted" | "rc" => {
                Some(IsolationLevel::ReadCommitted)
            }
            "snapshot" | "si" => Some(IsolationLevel::Snapshot),
            "serializable" | "ssi" => Some(IsolationLevel::Serializable),
            _ => None,
        }
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-session configuration, consumed by [`Database::session_with`].
///
/// ```
/// # use txlog_engine::db::{Database, IsolationLevel, RetryPolicy, SessionOptions};
/// # use txlog_relational::Schema;
/// # let schema = Schema::new().relation("EMP", &["name"]).unwrap();
/// # let db = Database::builder(schema).build().unwrap();
/// let session =
///     db.session_with(SessionOptions::serializable().retry(RetryPolicy::no_backoff(4)));
/// assert_eq!(session.isolation(), IsolationLevel::Serializable);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SessionOptions {
    /// The session's isolation level.
    pub isolation: IsolationLevel,
    /// The session's retry policy; `None` inherits the database-wide
    /// default ([`DatabaseBuilder::default_retry`](super::DatabaseBuilder::default_retry)).
    pub retry: Option<RetryPolicy>,
}

impl SessionOptions {
    /// Default options: snapshot isolation, database-default retries.
    pub fn new() -> SessionOptions {
        SessionOptions::default()
    }

    /// Options at [`IsolationLevel::ReadCommitted`].
    pub fn read_committed() -> SessionOptions {
        SessionOptions::new().isolation(IsolationLevel::ReadCommitted)
    }

    /// Options at [`IsolationLevel::Snapshot`].
    pub fn snapshot() -> SessionOptions {
        SessionOptions::new().isolation(IsolationLevel::Snapshot)
    }

    /// Options at [`IsolationLevel::Serializable`].
    pub fn serializable() -> SessionOptions {
        SessionOptions::new().isolation(IsolationLevel::Serializable)
    }

    /// Set the isolation level.
    pub fn isolation(mut self, level: IsolationLevel) -> SessionOptions {
        self.isolation = level;
        self
    }

    /// Set a session-specific retry policy (overrides the database
    /// default).
    pub fn retry(mut self, retry: RetryPolicy) -> SessionOptions {
        self.retry = Some(retry);
        self
    }
}

impl Database {
    /// Open a [`Snapshot`](IsolationLevel::Snapshot) session with the
    /// database's default retry policy, pinned to the current head.
    pub fn session(&self) -> Session<'_> {
        self.session_with(SessionOptions::new())
    }

    /// Open a session with explicit [`SessionOptions`], pinned to the
    /// current head.
    ///
    /// A [`ReadCommitted`](IsolationLevel::ReadCommitted) request is
    /// *escalated* to [`Snapshot`](IsolationLevel::Snapshot) when the
    /// database carries any registered constraint with a checkability
    /// window of two or more states: transition constraints are judged
    /// against a stable pre-state, and statement-boundary re-pinning is
    /// exactly what makes the pre-state unstable. The escalation is
    /// observable as the `sessions_escalated` counter.
    pub fn session_with(&self, opts: SessionOptions) -> Session<'_> {
        let mut opts = opts;
        if opts.isolation == IsolationLevel::ReadCommitted && self.max_window >= 2 {
            opts.isolation = IsolationLevel::Snapshot;
            self.metrics.bump(Counter::SessionsEscalated);
        }
        self.metrics.bump(match opts.isolation {
            IsolationLevel::ReadCommitted => Counter::SessionsReadCommitted,
            IsolationLevel::Snapshot => Counter::SessionsSnapshot,
            IsolationLevel::Serializable => Counter::SessionsSerializable,
        });
        self.step(StepPoint::Pin);
        let head = self.head.lock().expect("db head lock");
        Session {
            db: self,
            base_version: head.version,
            base: Arc::clone(&head.state),
            reads_since: head.version,
            read_fp: Footprint::empty(),
            opts,
        }
    }
}

/// A dry-run execution paired with the transaction's static footprint:
/// everything a single commit attempt needs, produced by
/// [`Session::prepare`] and consumed by [`Session::commit_prepared`].
///
/// [`Session::commit`] fuses execute-and-attempt into one call (with
/// internal retries); this decomposed form exists so the deterministic
/// simulator ([`crate::sim`]) can schedule the execute step and the
/// attempt step independently — which is exactly the freedom real
/// threads have, since execution runs outside the head lock against an
/// immutable snapshot.
pub struct Prepared {
    execution: Execution,
    footprint: Footprint,
}

impl Prepared {
    /// The candidate successor state and delta.
    pub fn execution(&self) -> &Execution {
        &self.execution
    }

    /// The transaction's static footprint.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }
}

/// Why a single commit attempt did not install — either a retryable
/// conflict (with the fresh head to re-pin to) or a fatal error.
enum AttemptError {
    Conflicted {
        head_version: u64,
        fresh: Arc<DbState>,
    },
    Fatal(CommitError),
}

/// A snapshot-pinned view of a [`Database`]: read freely, then commit
/// optimistically. Cheap to open; hold one per writer.
///
/// The session's [`IsolationLevel`] (fixed at open by
/// [`Database::session_with`]) governs what "pinned" means: snapshot
/// and serializable sessions keep one snapshot until a commit or
/// [`refresh`](Session::refresh) moves it; read-committed sessions
/// re-pin to the head at every statement boundary. Serializable
/// sessions additionally accumulate the static read footprint of every
/// statement and certify it at commit time.
pub struct Session<'db> {
    db: &'db Database,
    base_version: u64,
    base: Arc<DbState>,
    /// The head version the accumulated read set is valid from: reads
    /// taken since this version are certified against everything
    /// committed after it (Serializable only).
    reads_since: u64,
    /// Union of the read footprints of every statement this session ran
    /// since `reads_since` (Serializable only; stays empty elsewhere).
    read_fp: Footprint,
    opts: SessionOptions,
}

impl<'db> Session<'db> {
    /// The snapshot this session reads from and executes against.
    pub fn state(&self) -> &DbState {
        &self.base
    }

    /// An `Arc` share of the snapshot (outlives the session).
    pub fn snapshot(&self) -> Arc<DbState> {
        Arc::clone(&self.base)
    }

    /// The head version the snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.base_version
    }

    /// The isolation level this session runs under (after any
    /// constraint-window escalation — see [`Database::session_with`]).
    pub fn isolation(&self) -> IsolationLevel {
        self.opts.isolation
    }

    /// Re-pin the session to the current committed head. Also discards
    /// the accumulated read set of a serializable session — the reads
    /// are re-taken against the fresh snapshot.
    pub fn refresh(&mut self) {
        self.db.step(StepPoint::Pin);
        let head = self.db.head.lock().expect("db head lock");
        self.base_version = head.version;
        self.base = Arc::clone(&head.state);
        drop(head);
        self.reads_since = self.base_version;
        self.read_fp = Footprint::empty();
    }

    /// A statement boundary: read-committed sessions re-pin to the
    /// current head here; everyone else keeps their snapshot.
    fn pin_statement(&mut self) {
        if self.opts.isolation == IsolationLevel::ReadCommitted {
            self.refresh();
        }
    }

    /// Record a statement's read footprint for commit-time
    /// certification (serializable sessions only).
    fn record_reads(&mut self, fp: &Footprint) {
        if self.opts.isolation == IsolationLevel::Serializable {
            self.read_fp.merge(fp);
        }
    }

    /// Execute a transaction against the session's view *without*
    /// committing — a dry run returning the candidate [`Execution`].
    /// A statement boundary: read-committed sessions re-pin first;
    /// serializable sessions record the program's whole footprint as
    /// reads (the caller observes state derived from everything the
    /// program touched).
    pub fn execute(&mut self, tx: &FTerm, env: &Env) -> TxResult<Execution> {
        self.pin_statement();
        self.record_reads(&Footprint::of_program(tx).as_reads());
        self.db.engine()?.execute_traced(&self.base, tx, env)
    }

    /// Evaluate a truth-valued formula against the session's view — a
    /// statement boundary, like [`Session::execute`], with the
    /// formula's footprint recorded as reads under
    /// [`IsolationLevel::Serializable`].
    pub fn ask(&mut self, p: &FFormula, env: &Env) -> TxResult<bool> {
        self.pin_statement();
        self.record_reads(&Footprint::of_formula(p));
        self.db.engine()?.eval_truth(&self.base, p, env)
    }

    /// Execute against the session's view and package the result with
    /// the transaction's footprint, ready for
    /// [`Session::commit_prepared`]. A statement boundary, like
    /// [`Session::execute`].
    pub fn prepare(&mut self, tx: &FTerm, env: &Env) -> TxResult<Prepared> {
        self.pin_statement();
        let footprint = Footprint::of_program(tx);
        self.record_reads(&footprint.as_reads());
        self.db.step(StepPoint::Execute);
        let execution = self.db.engine()?.execute_traced(&self.base, tx, env)?;
        Ok(Prepared {
            execution,
            footprint,
        })
    }

    /// One commit attempt of a prepared execution: no internal retry and
    /// no re-execution. A moved head with an overlapping footprint
    /// surfaces as [`CommitError::Conflict`] and leaves the session on
    /// its snapshot — the caller decides whether to [`refresh`], re-
    /// [`prepare`] and attempt again, which is how the simulator turns
    /// the retry loop into individually scheduled steps.
    ///
    /// The prepared execution must have been produced against this
    /// session's current snapshot; attempting a stale one conflicts (or
    /// forwards, when provably disjoint) exactly as a stale `commit`
    /// would.
    ///
    /// [`refresh`]: Session::refresh
    /// [`prepare`]: Session::prepare
    pub fn commit_prepared(
        &mut self,
        label: &str,
        prepared: &Prepared,
    ) -> Result<Commit, CommitError> {
        let (commit, ticket) = self.submit_prepared(label, prepared)?;
        ticket.wait()?;
        Ok(commit)
    }

    /// Like [`Session::commit_prepared`] but *without* waiting for the
    /// group fsync: on success the commit is installed (the session is
    /// re-pinned to it) and the returned [`CommitTicket`] resolves once
    /// the log writer acknowledges its batch. Submitting several commits
    /// before waiting on their tickets is how a single session fills a
    /// batch; with
    /// [`DatabaseBuilder::manual_log_writer`](super::DatabaseBuilder::manual_log_writer)
    /// this is the only commit call that cannot deadlock.
    pub fn submit_prepared(
        &mut self,
        label: &str,
        prepared: &Prepared,
    ) -> Result<(Commit, CommitTicket), CommitError> {
        self.db.metrics.bump(Counter::CommitAttempts);
        match self.attempt(label, prepared.execution.clone(), &prepared.footprint, 0) {
            Ok(r) => Ok(r),
            Err(AttemptError::Fatal(e)) => Err(e),
            Err(AttemptError::Conflicted { head_version, .. }) => {
                Err(CommitError::Conflict { head_version })
            }
        }
    }

    /// Execute and commit, retrying conflicted attempts per the
    /// database's [`RetryPolicy`]. On success the session is re-pinned
    /// to the new head.
    pub fn commit(&mut self, label: &str, tx: &FTerm, env: &Env) -> Result<Commit, CommitError> {
        self.commit_inner(label, tx, env, true)
    }

    /// Like [`Session::commit`] but with a single attempt: a conflict
    /// surfaces as [`CommitError::Conflict`] instead of retrying (the
    /// session stays on its snapshot so the caller can inspect and
    /// decide).
    pub fn try_commit(
        &mut self,
        label: &str,
        tx: &FTerm,
        env: &Env,
    ) -> Result<Commit, CommitError> {
        self.commit_inner(label, tx, env, false)
    }

    fn commit_inner(
        &mut self,
        label: &str,
        tx: &FTerm,
        env: &Env,
        retry: bool,
    ) -> Result<Commit, CommitError> {
        let db = self.db;
        let engine = db.engine()?;
        // a commit is itself a statement boundary for read-committed
        self.pin_statement();
        let footprint = Footprint::of_program(tx);
        let policy = self.opts.retry.unwrap_or(db.retry);
        let mut retries = 0u32;
        loop {
            db.metrics.bump(Counter::CommitAttempts);
            db.step(StepPoint::Execute);
            // execute outside the lock, against the pinned snapshot
            let exec = engine.execute_traced(&self.base, tx, env)?;
            match self.attempt(label, exec, &footprint, retries) {
                Ok((commit, ticket)) => {
                    // block for the group ack outside the head lock; a
                    // durability failure here is fatal (the commit is
                    // installed but unacknowledged, the log poisoned)
                    ticket.wait()?;
                    return Ok(commit);
                }
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Conflicted {
                    head_version,
                    fresh,
                }) => {
                    if !retry {
                        return Err(CommitError::Conflict { head_version });
                    }
                    if retries >= policy.max_retries {
                        return Err(CommitError::RetriesExhausted {
                            attempts: retries + 1,
                        });
                    }
                    let delay = policy.delay(retries);
                    retries += 1;
                    db.metrics.bump(Counter::CommitRetries);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    self.base_version = head_version;
                    self.base = fresh;
                }
            }
        }
    }

    /// One commit attempt of an executed candidate: take the head lock,
    /// certify a serializable session's reads, pick the state to install
    /// (the execution itself on an unmoved head, its rebased delta
    /// applied to a moved head when the footprint is provably disjoint),
    /// or conflict. Either candidate then runs the same tail: validate,
    /// log and install, enqueue events. The atomic section of the
    /// pipeline — both `commit`'s retry loop and `commit_prepared` end
    /// here.
    ///
    /// With durability on, the head lock section only validates, encodes
    /// the commit record, enqueues it to the group committer, and
    /// installs; the append and fsync run on the log-writer thread and
    /// the returned [`CommitTicket`] resolves when the batch flushes.
    fn attempt(
        &mut self,
        label: &str,
        exec: Execution,
        footprint: &Footprint,
        retries: u32,
    ) -> Result<(Commit, CommitTicket), AttemptError> {
        let db = self.db;
        db.step(StepPoint::LockAcquire);
        let mut head = db.head.lock().expect("db head lock");
        // SSI-style certification: a serializable session's accumulated
        // statement reads must not intersect anything committed since
        // they were taken. `reads_since` can trail `base_version` (a
        // conflict re-pin moves the snapshot but cannot re-take reads
        // the caller already observed), so this triggers even when the
        // head looks unmoved from the snapshot's point of view. A
        // too-short delta log cannot prove the reads unharmed, so it
        // fails the certification too.
        if self.opts.isolation == IsolationLevel::Serializable
            && self.read_fp.has_reads()
            && head.version > self.reads_since
        {
            let clean = match head.delta_since(self.reads_since) {
                Some(concurrent) => !self.read_fp.reads_overlap_delta(&db.schema, &concurrent),
                None => false,
            };
            if !clean {
                let head_version = head.version;
                drop(head);
                db.metrics.bump(Counter::CommitSerializationFailures);
                return Err(AttemptError::Fatal(CommitError::SerializationFailure {
                    head_version,
                }));
            }
        }
        // Pick the candidate. An unmoved head takes the execution as it
        // stands: the forward over an empty concurrent delta, minus the
        // rebase. A moved head forwards when the footprint is provably
        // disjoint from what landed — read committed only demands
        // first-committer-wins on write-write overlap; snapshot and
        // serializable require the whole program footprint (reads
        // included) to be untouched — with fresh tuple identities
        // renumbered from the head's allocator.
        let candidate = if head.version == self.base_version {
            Some((exec.state, exec.delta, false))
        } else {
            head.delta_since(self.base_version)
                .filter(|concurrent| {
                    let overlaps = match self.opts.isolation {
                        IsolationLevel::ReadCommitted => {
                            footprint.writes_overlap_delta(&db.schema, concurrent)
                        }
                        _ => footprint.overlaps_delta(&db.schema, concurrent),
                    };
                    !overlaps || db.bug(ProtocolBug::ValidateAgainstSnapshot)
                })
                .and_then(|_| {
                    let rebased = exec
                        .delta
                        .rebase_fresh(self.base.next_tuple_id(), head.state.next_tuple_id());
                    let next = rebased.apply(&head.state).ok()?;
                    Some((next, rebased, true))
                })
        };
        let Some((state, delta, forwarded)) = candidate else {
            // conflict: surface the fresh head so the caller can re-pin
            db.metrics.bump(Counter::CommitConflicts);
            return Err(AttemptError::Conflicted {
                head_version: head.version,
                fresh: Arc::clone(&head.state),
            });
        };
        db.validate(&head, &state, &delta, label)
            .map_err(AttemptError::Fatal)?;
        let state = Arc::new(state);
        let evt = db.events.is_active().then(|| delta.clone());
        let slot = db
            .log_and_install(&mut head, label, Arc::clone(&state), delta)
            .map_err(|e| AttemptError::Fatal(submit_error(e)))?;
        let version = head.version;
        db.metrics.bump(if forwarded {
            Counter::CommitsForwarded
        } else {
            Counter::CommitsApplied
        });
        if let Some(d) = evt {
            // enqueue under the head lock: queue order = commit order
            db.events.enqueue(version, d);
        }
        drop(head);
        db.dispatch_events();
        self.base_version = version;
        self.base = state;
        self.reads_since = version;
        self.read_fp = Footprint::empty();
        Ok((
            Commit {
                version,
                retries,
                forwarded,
            },
            CommitTicket {
                slot,
                metrics: db.metrics.clone(),
            },
        ))
    }
}
