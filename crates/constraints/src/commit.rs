//! Bridging declared s-formula constraints into the session layer.
//!
//! [`Database`](txlog_engine::Database) validates commits through the
//! engine-side [`CommitConstraint`] trait, which knows nothing about
//! s-formulas. [`SessionConstraint`] is the adapter: it packages one
//! constraint formula together with the two static analyses this crate
//! already provides —
//!
//! * [`checkability`] decides how many consecutive states a check must
//!   see (the paper's Section 3 window), rejecting constraints that
//!   would need the complete history;
//! * [`read_set`] over-approximates the relations the verdict can
//!   depend on, which the session layer intersects with each commit's
//!   [`Delta`] to skip checks that cannot change the verdict.
//!
//! A check builds a [`History`] from the window the session hands over
//! and decides the formula in its window model, exactly like
//! [`WindowedChecker`](crate::WindowedChecker) does for linear
//! histories.

use crate::readset::{read_set, ReadSet};
use crate::window::{checkability, Hints, History, Window};
use txlog_base::{TxError, TxResult};
use txlog_engine::CommitConstraint;
use txlog_logic::SFormula;
use txlog_relational::{DbState, Delta, Schema};

/// A declared constraint, packaged for [`DatabaseBuilder::constraint`].
///
/// [`DatabaseBuilder::constraint`]: txlog_engine::DatabaseBuilder::constraint
///
/// ```
/// use txlog_constraints::{Hints, SessionConstraint};
/// use txlog_engine::Database;
/// use txlog_logic::{parse_sformula, ParseCtx};
/// use txlog_relational::Schema;
///
/// let schema = Schema::new().relation("EMP", &["e-name", "salary"]).unwrap();
/// let ctx = ParseCtx::with_relations(&["EMP"]);
/// let cap = parse_sformula(
///     "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
///     &ctx,
/// )
/// .unwrap();
/// let c = SessionConstraint::new("salary-cap", cap, Hints::default()).unwrap();
/// let db = Database::builder(schema)
///     .constraint(Box::new(c))
///     .build()
///     .unwrap();
/// ```
pub struct SessionConstraint {
    name: String,
    formula: SFormula,
    window: usize,
    readset: ReadSet,
}

impl SessionConstraint {
    /// Package `formula` for commit-time validation.
    ///
    /// Runs [`checkability`] under `hints`; constraints classified
    /// [`Window::Complete`] or [`Window::NotCheckable`] are rejected —
    /// a session window is bounded by construction, so enforcing an
    /// unbounded constraint there would be silently unsound.
    pub fn new(
        name: impl Into<String>,
        formula: SFormula,
        hints: Hints,
    ) -> TxResult<SessionConstraint> {
        let name = name.into();
        let window = match checkability(&formula, hints) {
            Window::States(k) => k.max(1),
            Window::Complete => {
                return Err(TxError::eval(format!(
                    "constraint {name:?} needs the complete history; \
                     sessions retain a bounded window (encode it first, \
                     e.g. NeverReinsertEncoding)"
                )))
            }
            Window::NotCheckable(reason) => {
                return Err(TxError::eval(format!(
                    "constraint {name:?} is not checkable: {reason}"
                )))
            }
        };
        let readset = read_set(&formula);
        Ok(SessionConstraint {
            name,
            formula,
            window,
            readset,
        })
    }

    /// The constraint formula.
    pub fn formula(&self) -> &SFormula {
        &self.formula
    }

    /// The read-set commit skipping is keyed on.
    pub fn read_set(&self) -> &ReadSet {
        &self.readset
    }

    /// The weakest [`IsolationLevel`] at which sessions can soundly run
    /// while this constraint is registered.
    ///
    /// A window-1 (static) constraint judges only the candidate state,
    /// so even read-committed's statement-boundary re-pinning cannot
    /// change its verdict. A window of two or more states judges a
    /// *transition*, which requires the pre-state the session was
    /// pinned to when the transaction executed — exactly what
    /// read-committed gives up. [`Database::session_with`] enforces
    /// this by escalating read-committed requests to snapshot whenever
    /// such a constraint is registered.
    ///
    /// [`IsolationLevel`]: txlog_engine::IsolationLevel
    /// [`Database::session_with`]: txlog_engine::Database::session_with
    pub fn min_isolation(&self) -> txlog_engine::IsolationLevel {
        if self.window >= 2 {
            txlog_engine::IsolationLevel::Snapshot
        } else {
            txlog_engine::IsolationLevel::ReadCommitted
        }
    }
}

impl CommitConstraint for SessionConstraint {
    fn name(&self) -> &str {
        &self.name
    }

    fn window_states(&self) -> usize {
        self.window
    }

    fn affected_by(&self, schema: &Schema, delta: &Delta) -> bool {
        self.readset.overlaps(schema, delta)
    }

    fn check(&self, schema: &Schema, states: &[DbState], labels: &[&str]) -> TxResult<bool> {
        let Some((first, rest)) = states.split_first() else {
            return Err(TxError::eval("constraint check over an empty window"));
        };
        let mut history = History::new(schema.clone(), first.clone());
        for (i, state) in rest.iter().enumerate() {
            let label = labels.get(i).copied().unwrap_or("step");
            history.push_state(label, state.clone());
        }
        history.window_model(states.len())?.check(&self.formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::Atom;
    use txlog_engine::{CommitError, Database};
    use txlog_logic::{parse_fterm, parse_sformula, ParseCtx};

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
    }

    fn ctx() -> ParseCtx {
        ParseCtx::with_relations(&["EMP"])
    }

    #[test]
    fn static_constraint_gets_window_one() {
        let cap = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
            &ctx(),
        )
        .unwrap();
        let c = SessionConstraint::new("cap", cap, Hints::default()).unwrap();
        assert_eq!(c.window_states(), 1);
        assert_eq!(
            c.min_isolation(),
            txlog_engine::IsolationLevel::ReadCommitted,
            "a static constraint is safe under statement-level snapshots"
        );
    }

    #[test]
    fn transition_constraint_gets_window_two() {
        let mono = parse_sformula(
            "forall s: state, t: tx, e: 2tup .
               (s:e in s:EMP & (s;t):e in (s;t):EMP)
                 -> salary(s:e) <= salary((s;t):e)",
            &ctx(),
        )
        .unwrap();
        // without the transitivity argument no bounded window is sound
        assert!(SessionConstraint::new("mono", mono.clone(), Hints::default()).is_err());
        let transitive = Hints {
            step_relation_transitive: true,
            ..Hints::default()
        };
        let c = SessionConstraint::new("mono", mono, transitive).unwrap();
        assert_eq!(c.window_states(), 2);
        assert_eq!(
            c.min_isolation(),
            txlog_engine::IsolationLevel::Snapshot,
            "a transition constraint needs a stable pre-state"
        );
    }

    #[test]
    fn session_constraint_enforces_through_commits() {
        let cap = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
            &ctx(),
        )
        .unwrap();
        let c = SessionConstraint::new("cap", cap, Hints::default()).unwrap();
        let schema = schema();
        let emp = schema.rel_id("EMP").unwrap();
        let (initial, _) = schema
            .initial_state()
            .insert_fields(emp, &[Atom::str("ann"), Atom::nat(500)])
            .unwrap();
        let db = Database::builder(schema)
            .initial(initial)
            .constraint(Box::new(c))
            .build()
            .unwrap();

        let ok = parse_fterm("insert(tuple('bob', 900), EMP)", &ctx(), &[]).unwrap();
        db.session()
            .commit("hire bob", &ok, &txlog_engine::Env::new())
            .unwrap();

        let bad = parse_fterm("insert(tuple('eve', 2000), EMP)", &ctx(), &[]).unwrap();
        let err = db
            .session()
            .commit("hire eve", &bad, &txlog_engine::Env::new())
            .unwrap_err();
        assert!(
            matches!(&err, CommitError::ConstraintViolation { constraint } if constraint == "cap"),
            "{err}"
        );
        // the violating commit was not installed
        assert_eq!(db.head_version(), 1);
    }

    #[test]
    fn unbounded_constraint_is_rejected_up_front() {
        // a constraint on future transactions (Example 4's shape) is
        // not checkable by any state window
        let cap = parse_sformula(
            "forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000",
            &ctx(),
        )
        .unwrap();
        let future = Hints {
            refers_to_future: true,
            ..Hints::default()
        };
        assert!(SessionConstraint::new("future", cap, future).is_err());
    }
}
