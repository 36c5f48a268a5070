//! Snapshot-isolated database sessions with optimistic parallel commits.
//!
//! The paper's states are immutable values related by transaction arcs,
//! which is exactly the shape multi-version concurrency wants: a
//! [`Database`] keeps a single committed *head* [`DbState`] behind a
//! mutex, readers share `Arc` snapshots of it without any coordination,
//! and writers go through an optimistic commit pipeline:
//!
//! 1. A [`Session`] executes a transaction against its snapshot with
//!    [`Engine::execute_traced`], producing an [`Execution`](crate::exec::Execution) — the
//!    candidate successor state plus the [`Delta`] of the run.
//! 2. [`Session::commit`] takes the head lock. If the head is still the
//!    session's snapshot, the execution is the candidate as it stands.
//! 3. If the head moved, the commit is *forwarded* when the
//!    transaction's static [`Footprint`] (every relation it can read or
//!    write) is disjoint from the composition of the concurrently
//!    committed deltas: the recorded delta — with freshly allocated
//!    tuple identities renumbered from the head's allocator via
//!    [`Delta::rebase_fresh`] — is applied directly to the head, no
//!    re-execution needed. Disjointness of the full footprint means the
//!    transaction would have read the same values and written the same
//!    changes at the moved head, so the forward is serializable.
//!    Either way the candidate is validated, logged, and installed by
//!    one shared tail.
//! 4. Otherwise the commit *conflicts*: the session re-executes against
//!    a fresh snapshot after a bounded exponential backoff, up to
//!    [`RetryPolicy::max_retries`] times, then surfaces
//!    [`CommitError::RetriesExhausted`].
//!
//! Constraint validation runs before installation, under the head lock
//! (commits serialize; readers never block). Each registered
//! [`CommitConstraint`] is first screened by its read set: a constraint
//! whose reads are disjoint from the commit's delta kept its verdict by
//! induction (the head always satisfies every registered constraint), so
//! only the affected ones are re-checked — fanned out across a
//! `std::thread::scope` worker pool. A violation aborts the commit with
//! [`CommitError::ConstraintViolation`] and leaves the head untouched.
//!
//! Durable databases commit through the *group-commit* stage (the
//! crate-private `group` module): the head lock section only validates, encodes the
//! commit record, enqueues it into a bounded submission queue, and
//! installs; a dedicated log-writer thread batches queued records, issues
//! one fsync per batch, and acknowledges every commit in the batch
//! together. [`Session::commit`] blocks on that acknowledgment (so no
//! fsync runs under the head lock, and concurrent sessions share
//! flushes); [`Session::submit_prepared`] returns the [`CommitTicket`]
//! unawaited for callers that pipeline their own commits.
//!
//! The whole pipeline reports into [`txlog_base::obs`]: commit
//! attempts/conflicts/retries counters, applied-vs-forwarded outcomes,
//! validation runs and read-set skips, a `commit.validate` span, and a
//! `commit.log_wait` span covering the wait for group ack.

mod builder;
mod footprint;
mod session;
#[cfg(test)]
mod tests;

pub use builder::DatabaseBuilder;
pub use footprint::Footprint;
pub use session::{IsolationLevel, Prepared, RetryPolicy, Session, SessionOptions};

use crate::events::{EventCallback, EventHub, SubId};
use crate::exec::Engine;
use crate::group::{GroupCommitter, Slot, SubmitError, WriterOp};
use crate::sim::{ProtocolBug, StepHook, StepPoint};
use crate::wal::{Wal, WalError};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use txlog_base::obs::{Counter, Metrics};
use txlog_base::{Atom, RelId, TxError, TxResult};
use txlog_events::Pattern;
use txlog_relational::{DbState, Delta, Schema};

/// How many recent `(version, delta)` pairs the head retains for
/// conflict analysis. A session whose snapshot is older than the log can
/// still commit — it just always takes the conservative conflict path.
const DELTA_LOG_CAP: usize = 64;

/// An integrity constraint checkable at commit time.
///
/// The engine crate cannot name the constraints crate (the dependency
/// points the other way), so the commit pipeline validates through this
/// trait; `txlog_constraints::SessionConstraint` is the standard
/// implementation, wrapping an s-formula with its checkability window
/// and read set.
pub trait CommitConstraint: Send + Sync {
    /// Diagnostic name, used in [`CommitError::ConstraintViolation`].
    fn name(&self) -> &str;

    /// Number of consecutive states (`>= 1`) a check needs to see: 1 for
    /// static constraints, 2 for single-transition constraints, etc.
    fn window_states(&self) -> usize;

    /// Whether a commit with this delta can change the constraint's
    /// verdict. Sound to over-approximate; returning `false` skips the
    /// check (the head satisfies every registered constraint by
    /// induction, so an unaffected verdict carries over).
    fn affected_by(&self, schema: &Schema, delta: &Delta) -> bool;

    /// Decide the constraint over a window of consecutive states,
    /// oldest first, where `labels[i]` names the transaction that
    /// produced `states[i + 1]`. The window holds at most
    /// [`window_states`](CommitConstraint::window_states) states (fewer
    /// near the start of history).
    fn check(&self, schema: &Schema, states: &[DbState], labels: &[&str]) -> TxResult<bool>;
}

/// Why a commit did not install.
#[derive(Debug)]
pub enum CommitError {
    /// The head moved past the session's snapshot and the transaction's
    /// footprint overlapped the concurrently committed deltas. Only
    /// [`Session::try_commit`] surfaces this; [`Session::commit`]
    /// retries until the policy is exhausted.
    Conflict {
        /// The head version the commit raced against.
        head_version: u64,
    },
    /// The candidate state violated a registered constraint. Not
    /// retried: the transaction itself produces an illegal state.
    ConstraintViolation {
        /// Name of the violated constraint.
        constraint: String,
    },
    /// Every attempt permitted by the [`RetryPolicy`] conflicted.
    RetriesExhausted {
        /// Total execution attempts made.
        attempts: u32,
    },
    /// A [`Serializable`](IsolationLevel::Serializable) session's
    /// accumulated read set intersected a concurrently committed delta
    /// (or the head's delta log no longer reached back far enough to
    /// prove it did not). Stale reads cannot be repaired by
    /// re-executing the commit, so this is fatal — restart the whole
    /// transaction, reads included, from a fresh session or after
    /// [`Session::refresh`].
    SerializationFailure {
        /// The head version the certification ran against.
        head_version: u64,
    },
    /// The transaction failed to execute, or a constraint check errored.
    Execution(TxError),
    /// The group-commit submission queue is full: the log writer is not
    /// keeping up with the commit rate. The commit did *not* install (the
    /// queue is checked before a version is consumed) and is not retried
    /// automatically — backpressure is the caller's decision.
    Overload {
        /// The configured queue capacity ([`DatabaseBuilder::log_queue_cap`]).
        capacity: usize,
    },
    /// The write-ahead log could not persist the commit record. If the
    /// error surfaced at submit time (a poisoned log), the commit did not
    /// install. If it surfaced from the [`CommitTicket`] wait, the commit
    /// *did* install — it is visible in memory but unacknowledged, the
    /// log is poisoned, and crash recovery may or may not retain it;
    /// reopen the database to resume committing.
    Durability(WalError),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Conflict { head_version } => write!(
                f,
                "commit conflict: head advanced to version {head_version} with \
                 overlapping changes"
            ),
            CommitError::ConstraintViolation { constraint } => {
                write!(f, "commit rejected: constraint {constraint} violated")
            }
            CommitError::RetriesExhausted { attempts } => {
                write!(f, "commit gave up after {attempts} conflicted attempts")
            }
            CommitError::SerializationFailure { head_version } => write!(
                f,
                "commit aborted: a delta committed before version {head_version} \
                 intersects this serializable session's reads"
            ),
            CommitError::Execution(e) => write!(f, "commit failed to execute: {e}"),
            CommitError::Overload { capacity } => write!(
                f,
                "commit rejected: the log submission queue is full ({capacity} pending)"
            ),
            CommitError::Durability(e) => {
                write!(f, "commit could not be made durable: {e}")
            }
        }
    }
}

impl std::error::Error for CommitError {
    /// The wrapped cause, for the variants that carry one: walking the
    /// chain from a [`CommitError::Durability`] reaches the
    /// [`WalError`], and from there any [`CodecError`] or engine error
    /// underneath — which is what lets a wire-protocol front end map
    /// commit failures to typed errors without string matching.
    ///
    /// [`CodecError`]: txlog_relational::codec::CodecError
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommitError::Execution(e) => Some(e),
            CommitError::Durability(e) => Some(e),
            CommitError::Conflict { .. }
            | CommitError::ConstraintViolation { .. }
            | CommitError::RetriesExhausted { .. }
            | CommitError::SerializationFailure { .. }
            | CommitError::Overload { .. } => None,
        }
    }
}

impl From<TxError> for CommitError {
    fn from(e: TxError) -> CommitError {
        CommitError::Execution(e)
    }
}

/// Receipt for a successfully installed commit.
#[derive(Clone, Copy, Debug)]
pub struct Commit {
    /// The head version this commit produced (versions start at 0 for
    /// the initial state and increase by 1 per commit).
    pub version: u64,
    /// How many conflicted attempts preceded the successful one.
    pub retries: u32,
    /// True when the commit installed by forwarding its delta onto a
    /// moved head instead of re-executing.
    pub forwarded: bool,
}

/// Handle on a commit's durability acknowledgment.
///
/// A durable commit *installs* (becomes visible to new snapshots) under
/// the head lock, but is only *acknowledged* once the log writer has
/// fsynced the batch containing its record. The ticket is that
/// acknowledgment: [`CommitTicket::wait`] blocks until the batch
/// flushes (what [`Session::commit`] does internally);
/// [`Session::submit_prepared`] hands the ticket to the caller instead,
/// so a pipeline of commits can overlap their waits. Without durability
/// the ticket is born complete.
pub struct CommitTicket {
    /// `None` when durability is off: nothing to wait for.
    slot: Option<Arc<Slot>>,
    metrics: Metrics,
}

impl CommitTicket {
    /// Block until the log writer acknowledges (or fails) the commit.
    /// An `Err` means the commit is installed in memory but its record
    /// never became durable and the log is poisoned — see
    /// [`CommitError::Durability`].
    pub fn wait(&self) -> Result<(), CommitError> {
        match &self.slot {
            None => Ok(()),
            Some(slot) => {
                let _span = self.metrics.span("commit.log_wait");
                slot.wait()
                    .map_err(|e| CommitError::Durability(e.into_wal()))
            }
        }
    }

    /// The acknowledgment if it already happened (non-blocking).
    pub fn try_result(&self) -> Option<Result<(), CommitError>> {
        match &self.slot {
            None => Some(Ok(())),
            Some(slot) => slot
                .try_result()
                .map(|r| r.map_err(|e| CommitError::Durability(e.into_wal()))),
        }
    }

    /// True once the log writer has decided this commit's fate (always
    /// true without durability).
    pub fn is_complete(&self) -> bool {
        self.try_result().is_some()
    }
}

/// Map a submission rejection (which happens before the commit consumes
/// a version) onto the public error type.
fn submit_error(e: SubmitError) -> CommitError {
    match e {
        SubmitError::Overload { capacity } => CommitError::Overload { capacity },
        SubmitError::Poisoned { detail } => CommitError::Durability(WalError::Poisoned { detail }),
    }
}

/// The committed head plus the bookkeeping the pipeline needs.
struct Head {
    version: u64,
    state: Arc<DbState>,
    /// Trailing committed states, oldest first, ending at `state`;
    /// bounded by the largest constraint window.
    recent: VecDeque<Arc<DbState>>,
    /// `labels[i]` names the commit that produced `recent[i + 1]`.
    labels: VecDeque<String>,
    /// Recent committed deltas as `(version_after, delta)`, oldest
    /// first, for composing "what happened since snapshot v".
    log: VecDeque<(u64, Delta)>,
}

impl Head {
    /// Compose the deltas committed after `since`, oldest first, or
    /// `None` if the log no longer reaches back that far.
    fn delta_since(&self, since: u64) -> Option<Delta> {
        let needed = self.version - since;
        let tail: Vec<&Delta> = self
            .log
            .iter()
            .filter(|(v, _)| *v > since)
            .map(|(_, d)| d)
            .collect();
        if tail.len() as u64 != needed {
            return None;
        }
        let mut out = Delta::empty();
        for d in tail {
            out = out.compose(d);
        }
        Some(out)
    }

    fn install(&mut self, label: &str, state: Arc<DbState>, delta: Delta, keep_states: usize) {
        self.version += 1;
        self.state = Arc::clone(&state);
        self.recent.push_back(state);
        self.labels.push_back(label.to_string());
        while self.recent.len() > keep_states.max(1) {
            self.recent.pop_front();
            self.labels.pop_front();
        }
        self.log.push_back((self.version, delta));
        while self.log.len() > DELTA_LOG_CAP {
            self.log.pop_front();
        }
    }
}

/// A shared database: one committed head, any number of snapshot
/// readers, optimistic writers. Share it by reference across
/// `std::thread::scope` (or wrap it in an `Arc`); it is deliberately
/// not `Clone` — clones would be independent databases.
pub struct Database {
    schema: Schema,
    metrics: Metrics,
    /// Default retry policy for sessions that do not set their own
    /// ([`SessionOptions::retry`]).
    retry: RetryPolicy,
    constraints: Vec<Box<dyn CommitConstraint>>,
    /// Largest constraint window, governing how many trailing states the
    /// head retains.
    max_window: usize,
    /// Simulation seam: when installed (model-checking builds only) the
    /// commit pipeline announces every decision point to it. `None` in
    /// normal operation, so the whole seam costs one branch per point.
    hook: Option<Arc<dyn StepHook>>,
    /// The group-commit stage, when durability is on. Submissions happen
    /// under the head lock (so the queue order is exactly commit order);
    /// draining, batching, and fsync happen off it.
    committer: Option<Arc<GroupCommitter>>,
    /// The dedicated log-writer thread, absent in
    /// [`DatabaseBuilder::manual_log_writer`] mode (the deterministic
    /// simulator pumps the committer itself).
    writer_thread: Option<JoinHandle<()>>,
    /// The reactive-event stage: committed deltas are enqueued under
    /// the head lock and dispatched through the registered automata
    /// after it is released (see [`crate::events`]).
    events: EventHub,
    head: Mutex<Head>,
}

impl Drop for Database {
    fn drop(&mut self) {
        if let Some(c) = &self.committer {
            c.shutdown();
            match self.writer_thread.take() {
                // the writer drains everything before honoring shutdown,
                // so joining it flushes all pending commits
                Some(t) => drop(t.join()),
                None => {
                    // manual mode: drain what we can, then make sure no
                    // ticket waits forever
                    c.pump_all();
                    c.fail_pending("database closed");
                }
            }
        }
    }
}

impl Database {
    /// Install a [`StepHook`]: every nondeterministic decision point in
    /// the commit/WAL pipeline is announced to it, which is how the
    /// deterministic simulator ([`crate::sim`]) schedules interleavings
    /// and injects faults. Also threads the hook into the write-ahead
    /// log, when one is attached. Without a hook the seam is a single
    /// `Option` branch per point (measured by the `b11_sim` bench).
    pub fn set_step_hook(&mut self, hook: Arc<dyn StepHook>) {
        if let Some(c) = &self.committer {
            c.set_hook(Arc::clone(&hook));
        }
        self.hook = Some(hook);
    }

    /// Announce a decision point to the installed hook, if any.
    #[inline]
    fn step(&self, point: StepPoint) {
        if let Some(h) = &self.hook {
            h.on_step(point);
        }
    }

    /// Whether the installed hook injects `bug` (model-checker
    /// self-tests only; always false without a hook).
    #[inline]
    fn bug(&self, bug: ProtocolBug) -> bool {
        match &self.hook {
            Some(h) => h.injected_bug() == Some(bug),
            None => false,
        }
    }

    /// Drain the group-commit queue to the log: run the log writer's
    /// micro-steps until it goes idle (every queued commit appended,
    /// fsynced, and acknowledged). A no-op without durability or with an
    /// already-idle writer. Only needed in
    /// [`DatabaseBuilder::manual_log_writer`] mode — with the dedicated
    /// writer thread the draining happens continuously.
    pub fn pump_log_writer(&self) {
        if let Some(c) = &self.committer {
            c.pump_all();
        }
    }

    /// Register a live event subscription: `pattern` is compiled into
    /// an incremental automaton advanced on every subsequent commit,
    /// and `callback` is invoked once per new match, in commit order,
    /// on the committing thread. The automaton is primed over the
    /// hub's retained history *silently*: matches completing at or
    /// after the subscription are delivered, matches wholly in the
    /// past are not. Patterns that should survive restarts or
    /// materialize into relations are registered at build time instead
    /// ([`DatabaseBuilder::event_pattern`]).
    pub fn subscribe_pattern(
        &self,
        name: &str,
        pattern: &Pattern,
        callback: EventCallback,
    ) -> TxResult<SubId> {
        // The hub records history only while it has registrations; the
        // head's recent delta log fills the gap for a first subscriber.
        let primer: Vec<(u64, Delta)> = {
            let head = self.head.lock().expect("db head lock");
            head.log.iter().cloned().collect()
        };
        self.events.subscribe(
            name,
            pattern,
            &self.schema,
            callback,
            &self.metrics,
            &primer,
        )
    }

    /// Drop a live subscription. Returns false for an unknown (or
    /// already-removed) id.
    pub fn unsubscribe(&self, id: SubId) -> bool {
        self.events.unsubscribe(id)
    }

    /// Drain the event hub: advance every automaton over the newly
    /// committed deltas, install materializations, invoke subscribers.
    /// Called by the commit pipeline after releasing the head lock, and
    /// by the recovery replay in `open_store`.
    fn dispatch_events(&self) {
        if !self.events.is_active() {
            return;
        }
        self.events.drain(&self.metrics, &mut |name, rel, rows| {
            self.install_system_rows(name, rel, rows)
        });
    }

    /// Install a pattern's new matches as tuples of its system
    /// relation: an engine-internal commit that skips constraint
    /// validation and the event hub (no feedback loops), inserts
    /// if-absent (so recovery replay is idempotent), and is WAL-logged
    /// like any other commit. Rows already present consume no version.
    fn install_system_rows(&self, name: &str, rel: RelId, rows: Vec<Vec<Atom>>) {
        let mut head = self.head.lock().expect("db head lock");
        let mut state = (*head.state).clone();
        let mut inserted = 0u64;
        for row in rows {
            let exists = state
                .relation(rel)
                .is_some_and(|r| r.iter().any(|t| t.fields() == row.as_slice()));
            if exists {
                continue;
            }
            if let Ok((next, _)) = state.insert_fields(rel, &row) {
                state = next;
                inserted += 1;
            }
        }
        if inserted == 0 {
            return;
        }
        let label = format!("events/{name}");
        let delta = head.state.diff(&state);
        // A poisoned or overloaded log skips the install rather than let
        // memory diverge from what recovery can reconstruct — the match
        // re-fires from the replayed WAL suffix on reopen.
        if self
            .log_and_install(&mut head, &label, Arc::new(state), delta)
            .is_ok()
        {
            self.metrics.add(Counter::EvtMaterialized, inserted);
        }
    }

    /// The one way a commit reaches the head, under its lock: encode the
    /// commit record and enqueue it with the group committer (durable
    /// databases only), then install `state` as the next version. A
    /// rejected submission happens before the version is consumed, so
    /// nothing installs. Returns the durability slot to wait on.
    fn log_and_install(
        &self,
        head: &mut Head,
        label: &str,
        state: Arc<DbState>,
        delta: Delta,
    ) -> Result<Option<Arc<Slot>>, SubmitError> {
        let slot = match &self.committer {
            Some(c) => {
                let version = head.version + 1;
                let payload = Wal::encode_commit(version, label, &delta, &state);
                Some(c.submit(version, payload, Arc::clone(&state))?)
            }
            None => None,
        };
        self.step(StepPoint::Install);
        head.install(label, state, delta, self.max_window);
        Ok(slot)
    }

    /// The group-commit stage, for the deterministic simulator (which
    /// schedules the log writer as an actor via
    /// [`GroupCommitter::next_op`] / [`GroupCommitter::micro_step`]).
    pub(crate) fn group_committer(&self) -> Option<&Arc<GroupCommitter>> {
        self.committer.as_ref()
    }

    /// The log writer's next store operation, if it has work
    /// (simulation seam).
    pub(crate) fn writer_next_op(&self) -> Option<WriterOp> {
        self.committer.as_ref().and_then(|c| c.next_op())
    }

    /// Perform one log-writer micro-step (simulation seam). Returns
    /// false when the writer was idle.
    pub(crate) fn writer_micro_step(&self) -> bool {
        self.committer.as_ref().is_some_and(|c| c.micro_step())
    }

    /// The schema this database evolves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The observability sink the pipeline reports into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// An engine configured like this database's sessions — the reader
    /// side: evaluate queries against any [`Database::snapshot`] without
    /// touching the head lock again.
    pub fn engine(&self) -> TxResult<Engine<'_>> {
        Engine::builder(&self.schema)
            .metrics(self.metrics.clone())
            .build()
    }

    /// An `Arc` share of the committed head state. Readers hold it as
    /// long as they like; commits never mutate shared states.
    pub fn snapshot(&self) -> Arc<DbState> {
        Arc::clone(&self.head.lock().expect("db head lock").state)
    }

    /// The committed head version (0 = initial state).
    pub fn head_version(&self) -> u64 {
        self.head.lock().expect("db head lock").version
    }

    /// Validate a candidate commit against the registered constraints,
    /// fanning affected checks across a scoped worker pool. Caller holds
    /// the head lock.
    fn validate(
        &self,
        head: &Head,
        candidate: &DbState,
        delta: &Delta,
        label: &str,
    ) -> Result<(), CommitError> {
        let affected: Vec<&dyn CommitConstraint> = self
            .constraints
            .iter()
            .map(|c| &**c)
            .filter(|c| {
                let hit = c.affected_by(&self.schema, delta);
                if !hit {
                    self.metrics.bump(Counter::CommitValidationSkips);
                }
                hit
            })
            .collect();
        if affected.is_empty() {
            return Ok(());
        }
        self.step(StepPoint::Validate);
        let _span = self.metrics.span("commit.validate");
        self.metrics
            .add(Counter::CommitValidations, affected.len() as u64);
        // Build each constraint's window up front: trailing committed
        // states plus the candidate, with the commit label closing it.
        let jobs: Vec<(Vec<DbState>, Vec<&str>)> = affected
            .iter()
            .map(|c| {
                let want_prior = c.window_states().max(1) - 1;
                let take = want_prior.min(head.recent.len());
                let mut states: Vec<DbState> = head
                    .recent
                    .iter()
                    .skip(head.recent.len() - take)
                    .map(|s| (**s).clone())
                    .collect();
                states.push(candidate.clone());
                let mut labels: Vec<&str> = if take > 0 {
                    head.labels
                        .iter()
                        .skip(head.labels.len() - (take - 1))
                        .map(String::as_str)
                        .collect()
                } else {
                    Vec::new()
                };
                labels.push(label);
                (states, labels)
            })
            .collect();
        // under a hook, validate serially: the simulator's schedules
        // must not depend on worker-pool timing
        let workers = if self.hook.is_some() {
            1
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(affected.len())
        };
        let results: Vec<Mutex<Option<TxResult<bool>>>> =
            affected.iter().map(|_| Mutex::new(None)).collect();
        if workers <= 1 {
            for (i, c) in affected.iter().enumerate() {
                let (states, labels) = &jobs[i];
                *results[i].lock().expect("validation slot") =
                    Some(c.check(&self.schema, states, labels));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Relaxed);
                        let Some(c) = affected.get(i) else { break };
                        let (states, labels) = &jobs[i];
                        let verdict = c.check(&self.schema, states, labels);
                        *results[i].lock().expect("validation slot") = Some(verdict);
                    });
                }
            });
        }
        // report deterministically: first failure in registration order
        for (i, c) in affected.iter().enumerate() {
            let verdict = results[i]
                .lock()
                .expect("validation slot")
                .take()
                .expect("every validation job ran");
            match verdict {
                Ok(true) => {}
                Ok(false) => {
                    return Err(CommitError::ConstraintViolation {
                        constraint: c.name().to_string(),
                    })
                }
                Err(e) => return Err(CommitError::Execution(e)),
            }
        }
        Ok(())
    }
}
