//! The three workloads: their initial states, their seeded operation
//! streams, and the oracle each operation carries (what the server must
//! answer). Everything here is a pure function of the seed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use txlog_base::{Atom, TxResult};
use txlog_constraints::SessionConstraint;
use txlog_empdb::transactions as tx;
use txlog_relational::{DbState, Schema, TupleVal};

/// Keys at or above this are never inserted, so an `Ask` for one must
/// answer false.
const ABSENT_KEY_BASE: u64 = 1 << 40;

/// The subscription every `paper_constraints` run holds: it matches
/// exactly the hires and allocations of the mix (a raise is an EMP
/// delete+insert, so a pattern on EMP inserts would also match raises).
pub const ALLOC_PATTERN: &str = "insert(ALLOC, x, _, _)";

/// Fresh keys an OLTP client keeps live: once it has inserted this many,
/// each insert also deletes its oldest fresh key, so a relation stays at
/// its initial size plus this many rows however long the run.
const FRESH_LIVE: u64 = 32;

/// Largest percentage of a fitting allocation; a hire opens with at
/// least 10%.
const FITTING_PERC: u64 = 5;

/// Seed of the paper workload's employee population.
const PAPER_POPULATION_SEED: u64 = 1988;

/// The constraint that must refuse every over-allocation.
pub const ALLOC_CONSTRAINT: &str = "alloc-within-100";

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// A fixed operation mix: every block of `template.len()` operations
/// holds exactly the template's kinds, in a seeded order, so the mix of
/// a run does not drift with the seed.
struct Mix<K: 'static> {
    template: &'static [K],
    pending: Vec<K>,
}

impl<K: Copy> Mix<K> {
    fn new(template: &'static [K]) -> Mix<K> {
        Mix {
            template,
            pending: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> K {
        if self.pending.is_empty() {
            self.pending = self.template.to_vec();
            for i in (1..self.pending.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                self.pending.swap(i, j);
            }
        }
        self.pending.pop().expect("a refilled block is not empty")
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SmallOltp,
    LargeState,
    PaperConstraints,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "small_oltp" => Some(Workload::SmallOltp),
            "large_state" => Some(Workload::LargeState),
            "paper_constraints" => Some(Workload::PaperConstraints),
            _ => None,
        }
    }

    /// Client connections that send operations (the paper workload's
    /// second connection only subscribes).
    pub fn committers(self) -> usize {
        match self {
            Workload::PaperConstraints => 1,
            _ => 2,
        }
    }

    pub fn has_subscriber(self) -> bool {
        self == Workload::PaperConstraints
    }

    fn oltp_rows(self) -> u64 {
        match self {
            Workload::SmallOltp => 1_000,
            Workload::LargeState => 50_000,
            Workload::PaperConstraints => 0,
        }
    }

    /// Build the initial state in time linear in its size: one
    /// `DbState::assign` per OLTP relation.
    pub fn initial_state(self, seed: u64) -> TxResult<(Schema, DbState)> {
        if self == Workload::PaperConstraints {
            // one fixed 16-employee population: the seed varies the
            // transaction stream, not how many allocations and skills
            // every constraint check has to read
            return txlog_empdb::populate(txlog_empdb::Sizes::scaled(16), PAPER_POPULATION_SEED);
        }
        let schema = Schema::new()
            .relation("R0", &["k0", "v0"])?
            .relation("R1", &["k1", "v1"])?;
        let mut rng = Rng::new(seed, 1000);
        let mut state = schema.initial_state();
        for name in ["R0", "R1"] {
            let members: Vec<TupleVal> = (0..self.oltp_rows())
                .map(|k| TupleVal::anonymous(vec![Atom::nat(k), Atom::nat(rng.below(1_000_000))]))
                .collect();
            state = state.assign(schema.rel_id(name)?, 2, &members)?;
        }
        Ok((schema, state))
    }

    /// The commit constraints the database registers.
    pub fn constraints(self) -> TxResult<Vec<SessionConstraint>> {
        match self {
            Workload::PaperConstraints => txlog_empdb::constraints::session_constraints(),
            _ => Ok(Vec::new()),
        }
    }

    /// The relation and 1-based attribute the relational size point
    /// modifies: the workload's largest written relation.
    pub fn size_point(self) -> (&'static str, usize) {
        match self {
            Workload::PaperConstraints => ("EMP", 3),
            _ => ("R0", 2),
        }
    }

    /// The operation stream of committer `client`.
    pub fn stream(self, seed: u64, client: usize, initial: &DbState, schema: &Schema) -> Stream {
        let rng = Rng::new(seed, client as u64 + 1);
        match self {
            Workload::PaperConstraints => Stream::Paper(PaperStream::new(rng, initial, schema)),
            _ => Stream::Oltp(OltpStream {
                rng,
                mix: Mix::new(OLTP_MIX),
                own: client,
                other: 1 - client,
                rows: self.oltp_rows(),
                next_key: self.oltp_rows(),
            }),
        }
    }
}

/// What the server must answer to one operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The program commits.
    Commit,
    /// The program is refused by the named commit constraint.
    Refused(&'static str),
    /// The formula evaluates to this truth value.
    Truth(bool),
}

/// One generated request: its text, which is all the server receives,
/// and its oracle.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: &'static str,
    pub text: String,
    pub expect: Expect,
    /// A committed op that must reach the subscriber exactly once, with
    /// the pattern variable `x` bound to this atom.
    pub notify: Option<Atom>,
    /// An OLTP write, for the key → value model the final head is
    /// checked against.
    pub write: Option<Write>,
}

/// After an OLTP commit, `key` maps to `value` in the client's relation
/// (a modify of a key that is absent changes nothing) and `retire`, if
/// any, is gone from it.
#[derive(Clone, Copy, Debug)]
pub struct Write {
    pub key: u64,
    pub value: u64,
    pub insert: bool,
    pub retire: Option<u64>,
}

impl Write {
    /// Apply the write to its relation's key → value model.
    pub fn apply(self, rel: &mut BTreeMap<u64, u64>) {
        if self.insert || rel.contains_key(&self.key) {
            rel.insert(self.key, self.value);
        }
        if let Some(old) = self.retire {
            rel.remove(&old);
        }
    }
}

impl Op {
    pub fn is_commit(&self) -> bool {
        !matches!(self.expect, Expect::Truth(_))
    }
}

pub enum Stream {
    Oltp(OltpStream),
    Paper(PaperStream),
}

impl Stream {
    pub fn next_op(&mut self) -> Op {
        match self {
            Stream::Oltp(s) => s.next_op(),
            Stream::Paper(s) => s.next_op(),
        }
    }
}

#[derive(Clone, Copy)]
enum OltpKind {
    Modify,
    Insert,
    Ask,
}

const OLTP_MIX: &[OltpKind] = &[
    OltpKind::Modify,
    OltpKind::Modify,
    OltpKind::Modify,
    OltpKind::Modify,
    OltpKind::Modify,
    OltpKind::Modify,
    OltpKind::Insert,
    OltpKind::Insert,
    OltpKind::Ask,
    OltpKind::Ask,
];

/// 60% point modify by key in the client's own relation, 20% insert of
/// a fresh key there (which, past `FRESH_LIVE` live fresh keys, also
/// deletes the oldest of them in the same program), 20% point `Ask` on
/// the other client's relation (half for initial keys, which always
/// exist, half for keys that never do).
pub struct OltpStream {
    rng: Rng,
    mix: Mix<OltpKind>,
    own: usize,
    other: usize,
    rows: u64,
    next_key: u64,
}

impl OltpStream {
    /// The oldest live fresh key (`next_key` when there is none).
    fn first_fresh(&self) -> u64 {
        self.next_key.saturating_sub(FRESH_LIVE).max(self.rows)
    }

    fn next_op(&mut self) -> Op {
        let c = self.own;
        let value = self.rng.below(1_000_000);
        match self.mix.next(&mut self.rng) {
            OltpKind::Modify => {
                // an initial key or a live fresh one
                let fresh = self.next_key - self.first_fresh();
                let i = self.rng.below(self.rows + fresh);
                let key = if i < self.rows {
                    i
                } else {
                    self.first_fresh() + (i - self.rows)
                };
                Op {
                    kind: "modify",
                    text: format!(
                        "foreach r: 2tup | r in R{c} & k{c}(r) = {key} do modify(r, v{c}, {value}) end"
                    ),
                    expect: Expect::Commit,
                    notify: None,
                    write: Some(Write {
                        key,
                        value,
                        insert: false,
                        retire: None,
                    }),
                }
            }
            OltpKind::Insert => {
                let key = self.next_key;
                let retire = (key >= self.rows + FRESH_LIVE).then(|| key - FRESH_LIVE);
                self.next_key += 1;
                let mut text = format!("insert(tuple({key}, {value}), R{c})");
                if let Some(old) = retire {
                    text += &format!(
                        " ;; foreach r: 2tup | r in R{c} & k{c}(r) = {old} do delete(r, R{c}) end"
                    );
                }
                Op {
                    kind: "insert",
                    text,
                    expect: Expect::Commit,
                    notify: None,
                    write: Some(Write {
                        key,
                        value,
                        insert: true,
                        retire,
                    }),
                }
            }
            OltpKind::Ask => {
                let o = self.other;
                let present = self.rng.below(2) == 0;
                let key = self.rng.below(self.rows) + if present { 0 } else { ABSENT_KEY_BASE };
                Op {
                    kind: "ask",
                    text: format!("exists r: 2tup . r in R{o} & k{o}(r) = {key}"),
                    expect: Expect::Truth(present),
                    notify: None,
                    write: None,
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum PaperKind {
    Raise,
    Skill,
    Switch,
    Allocate,
    HireOrFire,
}

const PAPER_MIX: &[PaperKind] = &[
    PaperKind::Raise,
    PaperKind::Raise,
    PaperKind::Raise,
    PaperKind::Raise,
    PaperKind::Raise,
    PaperKind::Skill,
    PaperKind::Skill,
    PaperKind::Switch,
    PaperKind::Switch,
    PaperKind::Allocate,
    PaperKind::Allocate,
    PaperKind::Allocate,
    PaperKind::Allocate,
    PaperKind::Allocate,
    PaperKind::Allocate,
    PaperKind::Allocate,
    PaperKind::HireOrFire,
    PaperKind::HireOrFire,
    PaperKind::HireOrFire,
    PaperKind::HireOrFire,
];

/// The paper's transactions from `txlog_empdb::transactions`, with a
/// model of EMP/ALLOC that predicts every constraint verdict. Per block
/// of 20: 5 raises, 2 skills obtained by a live hire (raises while there
/// is none), 2 moves to another department, 7 allocations (every fourth
/// over-allocates and `alloc-within-100` must refuse it, as must one
/// that finds no live hire) and 4 hire-or-fire (a fire retires the
/// oldest of two live hires). Hires carry every skill and allocation the
/// run adds, and a fire deletes them, so the state the constraints read
/// stays the same size however long the run.
pub struct PaperStream {
    rng: Rng,
    mix: Mix<PaperKind>,
    emps: Vec<String>,
    /// employee → department
    dept_of: BTreeMap<String, String>,
    depts: Vec<String>,
    projs: Vec<String>,
    /// employee → its (project, percentage) allocations
    allocs: BTreeMap<String, BTreeSet<(String, u64)>>,
    hired: VecDeque<String>,
    next_hire: u64,
    next_skill: u64,
    /// allocations so far, modulo 4 (every fourth over-allocates)
    allocates: u64,
}

fn column_strings(state: &DbState, schema: &Schema, rel: &str) -> Vec<Vec<Atom>> {
    let id = schema.rel_id(rel).expect("employee schema relation");
    state
        .relation(id)
        .map(|r| r.iter().map(|t| t.fields().to_vec()).collect())
        .unwrap_or_default()
}

fn atom_text(a: Atom) -> String {
    a.as_symbol()
        .map(|s| s.as_str().to_string())
        .unwrap_or_else(|_| a.to_string())
}

impl PaperStream {
    fn new(rng: Rng, initial: &DbState, schema: &Schema) -> PaperStream {
        let first = |rel| -> Vec<String> {
            let mut v: Vec<String> = column_strings(initial, schema, rel)
                .iter()
                .map(|row| atom_text(row[0]))
                .collect();
            v.sort();
            v
        };
        let mut allocs: BTreeMap<String, BTreeSet<(String, u64)>> = BTreeMap::new();
        for row in column_strings(initial, schema, "ALLOC") {
            let perc = row[2].as_nat().expect("perc is a number");
            allocs
                .entry(atom_text(row[0]))
                .or_default()
                .insert((atom_text(row[1]), perc));
        }
        PaperStream {
            rng,
            mix: Mix::new(PAPER_MIX),
            emps: first("EMP"),
            dept_of: column_strings(initial, schema, "EMP")
                .iter()
                .map(|row| (atom_text(row[0]), atom_text(row[1])))
                .collect(),
            depts: first("DEPT"),
            projs: first("PROJ"),
            allocs,
            hired: VecDeque::new(),
            next_hire: 0,
            next_skill: 1_000,
            allocates: 0,
        }
    }

    /// An employee's distinct percentages: `alloc-within-100` sums the
    /// *set* of them, so equal percentages on two projects count once.
    fn percs(&self, emp: &str) -> BTreeSet<u64> {
        self.allocs
            .get(emp)
            .map(|s| s.iter().map(|(_, p)| *p).collect())
            .unwrap_or_default()
    }

    fn allocated(&self, emp: &str) -> u64 {
        self.percs(emp).iter().sum()
    }

    fn allocated_with(&self, emp: &str, perc: u64) -> u64 {
        let mut percs = self.percs(emp);
        percs.insert(perc);
        percs.iter().sum()
    }

    fn op(kind: &'static str, t: txlog_logic::FTerm, expect: Expect, notify: Option<&str>) -> Op {
        Op {
            kind,
            text: t.to_string(),
            expect,
            notify: notify.map(Atom::str),
            write: None,
        }
    }

    fn next_op(&mut self) -> Op {
        match self.mix.next(&mut self.rng) {
            PaperKind::Skill if !self.hired.is_empty() => {
                // only live hires learn skills: firing them deletes the
                // skills again, so SKILL (which skill-retention reads)
                // stays the same size however long the run
                let emp = self.hired[self.rng.below(self.hired.len() as u64) as usize].clone();
                self.next_skill += 1;
                Self::op(
                    "skill",
                    tx::obtain_skill(&emp, self.next_skill),
                    Expect::Commit,
                    None,
                )
            }
            PaperKind::Raise | PaperKind::Skill => {
                let emp = self.rng.pick(&self.emps).clone();
                let amount = 1 + self.rng.below(50);
                Self::op(
                    "raise",
                    tx::raise_salary(&emp, amount),
                    Expect::Commit,
                    None,
                )
            }
            PaperKind::Switch => {
                // always to another department: a switch to the current
                // one changes nothing and skips validation entirely
                let emp = self.rng.pick(&self.emps).clone();
                let others: Vec<String> = self
                    .depts
                    .iter()
                    .filter(|d| self.dept_of.get(&emp) != Some(*d))
                    .cloned()
                    .collect();
                let dept = self.rng.pick(&others).clone();
                self.dept_of.insert(emp.clone(), dept.clone());
                Self::op("switch", tx::switch_dept(&emp, &dept), Expect::Commit, None)
            }
            PaperKind::Allocate => self.allocate(),
            PaperKind::HireOrFire => self.hire_or_fire(),
        }
    }

    fn allocate(&mut self) -> Op {
        self.allocates = (self.allocates + 1) % 4;
        let proj = self.rng.pick(&self.projs).clone();
        if self.allocates != 0 {
            if let Some((emp, perc)) = self.fitting_allocation(&proj) {
                self.allocs
                    .entry(emp.clone())
                    .or_default()
                    .insert((proj.clone(), perc));
                return Self::op(
                    "allocate",
                    tx::allocate(&emp, &proj, perc),
                    Expect::Commit,
                    Some(&emp),
                );
            }
        }
        // over-allocate: push the employee's percentage set past 100
        let emp = self.rng.pick(&self.emps).clone();
        let mut perc = 101 - self.allocated(&emp).min(100) + self.rng.below(10);
        while self.allocated_with(&emp, perc) <= 100 {
            perc += 1;
        }
        Self::op(
            "over-allocate",
            tx::allocate(&emp, &proj, perc),
            Expect::Refused(ALLOC_CONSTRAINT),
            None,
        )
    }

    /// A live hire and a new (project, percentage) pair for them. The
    /// percentage is at most `FITTING_PERC`, below any hire's opening
    /// allocation, so a hire's distinct percentages never pass 100; and
    /// firing the hire deletes the rows again, so ALLOC holds the same
    /// rows on average however long the run. `None` before the first
    /// hire, or when eight draws find no new pair.
    fn fitting_allocation(&mut self, proj: &str) -> Option<(String, u64)> {
        if self.hired.is_empty() {
            return None;
        }
        let emp = self.hired[self.rng.below(self.hired.len() as u64) as usize].clone();
        (0..8).find_map(|_| {
            let perc = 1 + self.rng.below(FITTING_PERC);
            let held = self.allocs.get(&emp);
            let new = !held.is_some_and(|h| h.contains(&(proj.to_string(), perc)));
            (new && self.allocated_with(&emp, perc) <= 100).then(|| (emp.clone(), perc))
        })
    }

    fn hire_or_fire(&mut self) -> Op {
        if self.hired.len() < 2 {
            return self.hire();
        }
        let emp = self.hired.pop_front().expect("two live hires");
        self.emps.retain(|e| *e != emp);
        self.dept_of.remove(&emp);
        self.allocs.remove(&emp);
        Self::op("fire", tx::fire(&emp), Expect::Commit, None)
    }

    fn hire(&mut self) -> Op {
        let emp = format!("hire-{}", self.next_hire);
        self.next_hire += 1;
        let dept = self.rng.pick(&self.depts).clone();
        let proj = self.rng.pick(&self.projs).clone();
        let salary = 300 + self.rng.below(600);
        let age = 22 + self.rng.below(38);
        let status = if self.rng.below(2) == 0 { "S" } else { "M" };
        let perc = 10 + self.rng.below(31);
        self.emps.push(emp.clone());
        self.dept_of.insert(emp.clone(), dept.clone());
        self.hired.push_back(emp.clone());
        self.allocs
            .entry(emp.clone())
            .or_default()
            .insert((proj.clone(), perc));
        Self::op(
            "hire",
            tx::hire(&emp, &dept, salary, age, status, &proj, perc),
            Expect::Commit,
            Some(&emp),
        )
    }
}

/// A state's contents by value: per relation, its name and sorted rows.
pub type Rows = Vec<(String, Vec<Vec<Atom>>)>;

/// A state's contents by value: per relation, its rows sorted. Tuple
/// identities are excluded, since forwarding renumbers fresh tuples.
pub fn by_value(schema: &Schema, state: &DbState) -> Rows {
    schema
        .decls()
        .iter()
        .map(|d| {
            let mut rows: Vec<Vec<Atom>> = state
                .relation(d.id)
                .map(|r| r.iter().map(|t| t.fields().to_vec()).collect())
                .unwrap_or_default();
            rows.sort();
            (d.name.as_str().to_string(), rows)
        })
        .collect()
}
