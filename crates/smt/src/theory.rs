//! The linear-integer-arithmetic theory solver.
//!
//! Given a conjunction of [`LinAtom`]s (each tagged with the index of the
//! asserting literal), this module decides satisfiability over the *integers*:
//!
//! 1. build a [`Simplex`] tableau — declared variable bounds get sentinel
//!    tags, each atom becomes a bound on a (shared) slack row,
//! 2. check rational feasibility; an infeasible bound certificate maps back
//!    to a small **core** of atom indices,
//! 3. if rationally feasible, run **branch-and-bound** on integer variables
//!    with fractional values. Cores from the two branches are merged (branch
//!    bounds stripped), which is sound: any integer assignment satisfies one
//!    of the two branch bounds, so it would have to satisfy one full branch
//!    core.
//!
//! Because every problem variable carries finite declared bounds, the
//! branch-and-bound tree is finite; a node budget additionally caps runaway
//! searches and surfaces as [`TheoryVerdict::Unknown`].
//!
//! # Incrementality
//!
//! [`TheorySession`] keeps one simplex tableau alive across DPLL(T) checks:
//! declared variables are mirrored once (and incrementally as the pool
//! grows), slack rows are interned by coefficient vector and reused
//! forever, and each check only asserts its atoms' *bounds* against the
//! live tableau, then retracts them via the trail — carrying the basis
//! (and the witness point `β`) forward so a check that differs from its
//! predecessor by a few literals resolves in a handful of pivots.
//!
//! Atoms are named by their index in an append-only *registry* (the SMT
//! layer's atom table) plus a polarity. Each `(index, polarity)` literal is
//! compiled once — to an upper or lower bound on one simplex variable, or
//! to a constant — and the compiled bound is reused by every later check,
//! so a check costs one table lookup and one bound assert per literal.
//! [`check_conjunction`] remains as the stateless oracle: a fresh
//! single-check session over the same compile step, used by the warm-start
//! equivalence proptests.

use std::collections::BTreeMap;

use crate::error::SolverError;
use crate::linear::LinAtom;
use crate::rational::Rational;
use crate::simplex::{BoundTag, Feasibility, SVar, Simplex};
use crate::term::{Sort, TermPool, VarId};

/// Sentinel base for declared-bound tags (always-true, filtered from cores).
const DECL_BASE: u32 = 1 << 30;
/// Sentinel for branch-and-bound bounds (stripped during core merging).
const BRANCH_TAG: u32 = u32::MAX;

/// The verdict of a theory check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// Satisfiable; integer values for every declared integer variable.
    /// Kept in a `BTreeMap` so model iteration order is deterministic.
    Sat(BTreeMap<VarId, i64>),
    /// Unsatisfiable; positions (into the checked literal slice) of a
    /// conflicting subset. May be empty if the declared bounds alone are
    /// inconsistent.
    Unsat(Vec<usize>),
    /// The node budget was exhausted before a decision was reached.
    Unknown,
}

/// Configuration for the theory check.
#[derive(Clone, Copy, Debug)]
pub struct TheoryConfig {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: u64,
}

impl Default for TheoryConfig {
    fn default() -> Self {
        TheoryConfig { max_nodes: 50_000 }
    }
}

/// Per-session theory work counters: the per-check cost profile.
///
/// `pivots` is read live from the simplex (see [`TheorySession::pivots`]);
/// everything else is accumulated here. For a fresh session per check (the
/// historical behaviour, still available via [`check_conjunction`]),
/// `tableau_builds == checks`; a warm session pays the build once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TheoryStats {
    /// Theory checks served by this session.
    pub checks: u64,
    /// Sync rounds that mirrored at least one newly declared variable into
    /// the tableau (a warm session builds once; a fresh-per-check backend
    /// rebuilds every time).
    pub tableau_builds: u64,
    /// Simplex variables created (declared mirrors + slack rows).
    pub tableau_vars: u64,
    /// Slack rows translated and added to the tableau (interning misses).
    pub slack_rows_built: u64,
    /// Multi-variable literal asserts served by an already-interned slack
    /// row (every such assert except the one that built the row).
    pub slack_row_hits: u64,
    /// Branch-and-bound nodes explored.
    pub bnb_nodes: u64,
}

/// One atom literal compiled to the bound it asserts on the tableau.
#[derive(Clone, Copy, Debug)]
enum AtomBound {
    /// `v ≤ b` on a declared variable.
    Upper(SVar, Rational),
    /// `s ≤ b` on an interned slack row `s = Σ c·x`.
    Row(SVar, Rational),
    /// `v ≥ b` on a declared variable (a single negative coefficient).
    Lower(SVar, Rational),
    /// A variable-free atom: always true or always false.
    Const(bool),
}

/// A persistent, warm-started theory backend.
///
/// Owns one [`Simplex`] for the lifetime of the owning solver. Each
/// [`Self::check`] asserts the literals' compiled bounds on the live
/// tableau, runs branch-and-bound, and retracts the bounds through the
/// trail — leaving the pivoted basis and the feasible point `β` in place as
/// the warm start for the next check. Declared-variable bounds are asserted
/// below every check's snapshot, so they persist; slack rows are interned
/// by coefficient vector and never rebuilt.
///
/// Verdicts are semantically equivalent to [`check_conjunction`] (Sat ↔ Sat
/// with a feasible model, Unsat ↔ Unsat with a valid core), but the *model
/// values* and *core composition* may differ: the warm basis starts each
/// check at a different vertex than a cold tableau would. The equivalence
/// proptests in `tests/theory_warm_start.rs` pin this contract down.
#[derive(Default)]
pub struct TheorySession {
    sx: Simplex,
    /// Pool variables mirrored so far (`pool.vars()` prefix length).
    synced_vars: usize,
    /// Every declared integer variable with its simplex variable, in
    /// ascending `VarId` order.
    int_vars: Vec<(VarId, SVar)>,
    /// Simplex variable per pool variable index (`None` for booleans).
    svar_of: Vec<Option<SVar>>,
    /// Interned slack rows per coefficient vector.
    slack_of: BTreeMap<Vec<(SVar, Rational)>, SVar>,
    /// Compiled bound per registry literal: slot `2·i` holds atom `i`, slot
    /// `2·i + 1` its negation; `None` until the literal is first checked.
    compiled: Vec<Option<AtomBound>>,
    stats: TheoryStats,
}

impl TheorySession {
    /// Creates an empty session (tableau is built lazily on first check).
    pub fn new() -> TheorySession {
        TheorySession::default()
    }

    /// The session's accumulated cost profile.
    pub fn stats(&self) -> TheoryStats {
        self.stats
    }

    /// Total simplex pivots performed across all checks.
    pub fn pivots(&self) -> u64 {
        self.sx.pivots
    }

    /// Current tableau size as `(variables, slack rows)`. Bounded by the
    /// declared variables plus the distinct atom linear forms ever checked —
    /// *not* by the number of checks (the steady-state regression tests
    /// assert exactly this).
    pub fn tableau_size(&self) -> (usize, usize) {
        (self.sx.num_vars(), self.sx.num_rows())
    }

    /// Slots in the compiled-bound table: at most twice the length of the
    /// registry the session has been checked against (one slot per atom
    /// polarity), never growing with the number of checks.
    pub fn compiled_len(&self) -> usize {
        self.compiled.len()
    }

    /// Mirrors integer variables declared since the last sync. Their
    /// declared bounds are asserted below any future snapshot, so they are
    /// never retracted.
    fn sync_pool(&mut self, pool: &TermPool) -> Result<(), SolverError> {
        let vars = pool.vars();
        if vars.len() == self.synced_vars {
            return Ok(());
        }
        let mut added = false;
        for (idx, info) in vars.iter().enumerate().skip(self.synced_vars) {
            if info.sort != Sort::Int {
                self.svar_of.push(None);
                continue;
            }
            let v = VarId(idx as u32);
            let sv = self.sx.add_var();
            self.svar_of.push(Some(sv));
            self.int_vars.push((v, sv));
            self.stats.tableau_vars += 1;
            added = true;
            let tag = BoundTag(DECL_BASE + idx as u32);
            // Declared bounds can never conflict with each other (lo <= hi).
            if self
                .sx
                .assert_lower(sv, Rational::from_int(info.lo), tag)
                .is_err()
                || self
                    .sx
                    .assert_upper(sv, Rational::from_int(info.hi), tag)
                    .is_err()
            {
                return Err(SolverError::Internal("declared bounds are inconsistent"));
            }
        }
        self.synced_vars = vars.len();
        if added {
            self.stats.tableau_builds += 1;
        }
        Ok(())
    }

    /// Translates `atom` (Σ c·x + k ≤ 0) into the bound it asserts,
    /// interning its slack row when it has more than one variable.
    fn compile(&mut self, atom: &LinAtom) -> Result<AtomBound, SolverError> {
        if atom.expr.is_constant() {
            return Ok(AtomBound::Const(atom.expr.constant <= 0));
        }
        // Σ c·x + k ≤ 0  ⇔  Σ c·x ≤ −k.
        let neg_k = atom
            .expr
            .constant
            .checked_neg()
            .ok_or(SolverError::Overflow("negating atom constant"))?;
        let bound = Rational::from_int(neg_k);
        let mut coeffs: Vec<(SVar, Rational)> = Vec::with_capacity(atom.expr.coeffs.len());
        for (&v, &c) in &atom.expr.coeffs {
            let sv = self
                .svar_of
                .get(v.0 as usize)
                .copied()
                .flatten()
                .ok_or(SolverError::Internal("atom references undeclared variable"))?;
            coeffs.push((sv, Rational::from_int(c)));
        }
        if let &[(sv, c)] = coeffs.as_slice() {
            // c·x ≤ bound  ⇔  x ≤ bound/c (c>0)  or  x ≥ bound/c (c<0).
            return Ok(if c.is_positive() {
                AtomBound::Upper(sv, bound / c)
            } else {
                AtomBound::Lower(sv, bound / c)
            });
        }
        let sv = match self.slack_of.get(&coeffs) {
            Some(&sv) => {
                self.stats.slack_row_hits += 1;
                sv
            }
            None => {
                let sv = self.sx.add_row(&coeffs)?;
                self.slack_of.insert(coeffs, sv);
                self.stats.slack_rows_built += 1;
                self.stats.tableau_vars += 1;
                sv
            }
        };
        Ok(AtomBound::Row(sv, bound))
    }

    /// The compiled bound of registry atom `atom` taken with polarity
    /// `value`, compiling it on first use.
    fn bound_of(
        &mut self,
        registry: &[LinAtom],
        atom: usize,
        value: bool,
    ) -> Result<AtomBound, SolverError> {
        let slot = 2 * atom + usize::from(!value);
        if let Some(&Some(b)) = self.compiled.get(slot) {
            if let AtomBound::Row(..) = b {
                self.stats.slack_row_hits += 1;
            }
            return Ok(b);
        }
        let a = registry
            .get(atom)
            .ok_or(SolverError::Internal("atom index outside the registry"))?;
        let b = if value {
            self.compile(a)?
        } else {
            self.compile(&a.negated())?
        };
        if self.compiled.len() <= slot {
            self.compiled.resize(2 * (atom + 1), None);
        }
        let entry = self
            .compiled
            .get_mut(slot)
            .ok_or(SolverError::Internal("compiled-bound table too short"))?;
        *entry = Some(b);
        Ok(b)
    }

    /// Asserts the compiled bound of every literal, tagged with its
    /// position in `lits`. Returns an early `Unsat` verdict on an immediate
    /// bound clash or a constant-false atom.
    fn assert_literals(
        &mut self,
        registry: &[LinAtom],
        lits: &[(usize, bool)],
    ) -> Result<Option<TheoryVerdict>, SolverError> {
        for (pos, &(atom, value)) in lits.iter().enumerate() {
            let tag = BoundTag(pos as u32);
            let result = match self.bound_of(registry, atom, value)? {
                AtomBound::Upper(sv, b) | AtomBound::Row(sv, b) => self.sx.assert_upper(sv, b, tag),
                AtomBound::Lower(sv, b) => self.sx.assert_lower(sv, b, tag),
                AtomBound::Const(true) => Ok(()),
                AtomBound::Const(false) => return Ok(Some(TheoryVerdict::Unsat(vec![pos]))),
            };
            if let Err(core) = result {
                return Ok(Some(TheoryVerdict::Unsat(filter_core(core))));
            }
        }
        Ok(None)
    }

    /// Checks the conjunction of `lits` against the live tableau. Each
    /// literal `(i, value)` names atom `registry[i]` (`value = true`) or its
    /// integer negation (`false`); an Unsat core lists positions in `lits`.
    ///
    /// `registry` must be append-only across the session's checks: entry
    /// `i` may never change once checked, because its compiled bound is
    /// reused.
    ///
    /// Bound assert/retract protocol: newly declared variables are mirrored
    /// first (below the snapshot — their bounds persist), then every
    /// literal's bound is asserted tagged with its position,
    /// branch-and-bound runs, and finally the trail is unwound to the
    /// snapshot. The basis and `β` are *not* restored — they carry forward
    /// as the warm start.
    pub fn check(
        &mut self,
        pool: &TermPool,
        registry: &[LinAtom],
        lits: &[(usize, bool)],
        config: TheoryConfig,
    ) -> Result<TheoryVerdict, SolverError> {
        self.sync_pool(pool)?;
        self.stats.checks += 1;
        let snap = self.sx.snapshot();
        let out = self.check_asserted(registry, lits, config);
        self.sx.undo_to(snap);
        out
    }

    /// The body of [`Self::check`], between snapshot and undo.
    fn check_asserted(
        &mut self,
        registry: &[LinAtom],
        lits: &[(usize, bool)],
        config: TheoryConfig,
    ) -> Result<TheoryVerdict, SolverError> {
        if let Some(verdict) = self.assert_literals(registry, lits)? {
            return Ok(verdict);
        }
        let mut nodes = 0u64;
        let result = branch_and_bound(&mut self.sx, &self.int_vars, &mut nodes, config.max_nodes);
        self.stats.bnb_nodes += nodes;
        match result? {
            BnB::Sat => {
                let mut model: BTreeMap<VarId, i64> = BTreeMap::new();
                for &(v, sv) in &self.int_vars {
                    let val = self
                        .sx
                        .value_of(sv)
                        .to_i64()
                        .ok_or(SolverError::Internal("non-integral model value"))?;
                    model.insert(v, val);
                }
                Ok(TheoryVerdict::Sat(model))
            }
            BnB::Unsat(core) => Ok(TheoryVerdict::Unsat(filter_core(core))),
            BnB::Unknown => Ok(TheoryVerdict::Unknown),
        }
    }
}

/// Checks the conjunction of `atoms` over the integers, respecting the
/// declared bounds of every integer variable in `pool`. Unsat core indices
/// point into `atoms`.
///
/// Stateless: builds a fresh single-check [`TheorySession`] with `atoms` as
/// its registry, so every call pays the full tableau build and compile —
/// this is the *oracle* the warm-start equivalence proptests compare
/// against. The production path is the session owned by [`crate::Solver`].
///
/// `Err` means the atoms could not even be translated (arithmetic overflow,
/// a reference to an undeclared variable, or a broken simplex invariant) —
/// distinct from [`TheoryVerdict::Unknown`], which is a budget exhaustion.
pub fn check_conjunction(
    pool: &TermPool,
    atoms: &[LinAtom],
    config: TheoryConfig,
) -> Result<TheoryVerdict, SolverError> {
    let lits: Vec<(usize, bool)> = (0..atoms.len()).map(|i| (i, true)).collect();
    TheorySession::new().check(pool, atoms, &lits, config)
}

enum BnB {
    Sat,
    Unsat(Vec<BoundTag>),
    Unknown,
}

fn branch_and_bound(
    sx: &mut Simplex,
    int_vars: &[(VarId, SVar)],
    nodes: &mut u64,
    max_nodes: u64,
) -> Result<BnB, SolverError> {
    *nodes += 1;
    if *nodes > max_nodes {
        return Ok(BnB::Unknown);
    }
    match sx.check()? {
        Feasibility::Infeasible(core) => return Ok(BnB::Unsat(core)),
        Feasibility::Feasible => {}
    }
    // Find the most fractional integer variable.
    let mut pick: Option<(SVar, Rational)> = None;
    let mut best_frac = Rational::ZERO;
    for &(_, sv) in int_vars {
        let val = sx.value_of(sv);
        if !val.is_integer() {
            let fl = Rational::new(val.floor(), 1);
            let frac = val - fl;
            // Distance from 1/2, smaller is more fractional.
            let half = Rational::new(1, 2);
            let dist = if frac > half {
                frac - half
            } else {
                half - frac
            };
            if pick.is_none() || dist < best_frac {
                best_frac = dist;
                pick = Some((sv, val));
            }
        }
    }
    let Some((sv, val)) = pick else {
        return Ok(BnB::Sat); // all integral
    };
    let floor = Rational::new(val.floor(), 1);
    let ceil = Rational::new(val.ceil(), 1);
    let btag = BoundTag(BRANCH_TAG);

    // Branch 1: x ≤ floor.
    let snap = sx.snapshot();
    let down = match sx.assert_upper(sv, floor, btag) {
        Ok(()) => branch_and_bound(sx, int_vars, nodes, max_nodes)?,
        Err(core) => BnB::Unsat(core),
    };
    sx.undo_to(snap);
    let down_core = match down {
        BnB::Sat => return Ok(BnB::Sat),
        BnB::Unknown => return Ok(BnB::Unknown),
        BnB::Unsat(c) => c,
    };

    // Branch 2: x ≥ ceil.
    let snap = sx.snapshot();
    let up = match sx.assert_lower(sv, ceil, btag) {
        Ok(()) => branch_and_bound(sx, int_vars, nodes, max_nodes)?,
        Err(core) => BnB::Unsat(core),
    };
    sx.undo_to(snap);
    let up_core = match up {
        BnB::Sat => return Ok(BnB::Sat),
        BnB::Unknown => return Ok(BnB::Unknown),
        BnB::Unsat(c) => c,
    };

    // Merge: strip branch tags; any integer point satisfies x ≤ floor or
    // x ≥ ceil, so it falsifies one of the two cores entirely.
    let mut merged: Vec<BoundTag> = down_core
        .into_iter()
        .chain(up_core)
        .filter(|t| t.0 != BRANCH_TAG)
        .collect();
    merged.sort_unstable();
    merged.dedup();
    Ok(BnB::Unsat(merged))
}

/// Keeps only real atom indices (drops declared-bound and branch sentinels).
fn filter_core(core: Vec<BoundTag>) -> Vec<usize> {
    let mut out: Vec<usize> = core
        .into_iter()
        .filter(|t| t.0 < DECL_BASE)
        .map(|t| t.0 as usize)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    fn atom(coeffs: &[(VarId, i64)], constant: i64) -> LinAtom {
        let mut e = LinExpr::constant(constant);
        for &(v, c) in coeffs {
            e.add_term(v, c);
        }
        LinAtom { expr: e }
    }

    fn pool_with_vars(n: usize, lo: i64, hi: i64) -> (TermPool, Vec<VarId>) {
        let mut p = TermPool::new();
        let vs = (0..n)
            .map(|i| p.int_var(&format!("x{i}"), lo, hi))
            .collect();
        (p, vs)
    }

    #[test]
    fn empty_conjunction_is_sat() {
        let (p, vs) = pool_with_vars(2, 0, 10);
        match check_conjunction(&p, &[], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Sat(m) => {
                for v in vs {
                    let val = m[&v];
                    assert!((0..=10).contains(&val));
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn simple_bounds_conflict() {
        let (p, vs) = pool_with_vars(1, 0, 10);
        // x >= 4  and  x <= 3:   (-x + 4 <= 0), (x - 3 <= 0).
        let a1 = atom(&[(vs[0], -1)], 4);
        let a2 = atom(&[(vs[0], 1)], -3);
        match check_conjunction(&p, &[a1, a2], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Unsat(core) => assert_eq!(core, vec![0, 1]),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn declared_bounds_are_respected_and_filtered() {
        let (p, vs) = pool_with_vars(1, 0, 10);
        // x >= 11 conflicts with the declared upper bound only.
        let a = atom(&[(vs[0], -1)], 11);
        match check_conjunction(&p, &[a], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Unsat(core) => assert_eq!(core, vec![0]),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn sum_equality_feasible() {
        let (p, vs) = pool_with_vars(5, 0, 60);
        // sum = 100 via <= and >=.
        let le = atom(&vs.iter().map(|&v| (v, 1)).collect::<Vec<_>>(), -100);
        let ge = atom(&vs.iter().map(|&v| (v, -1)).collect::<Vec<_>>(), 100);
        match check_conjunction(&p, &[le, ge], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Sat(m) => {
                let total: i64 = vs.iter().map(|v| m[v]).sum();
                assert_eq!(total, 100);
                assert!(vs.iter().all(|v| (0..=60).contains(&m[v])));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_requires_branching() {
        let (p, vs) = pool_with_vars(1, 0, 10);
        // 2x >= 5 and 2x <= 5  → x = 5/2, no integer solution.
        let ge = atom(&[(vs[0], -2)], 5);
        let le = atom(&[(vs[0], 2)], -5);
        match check_conjunction(&p, &[ge, le], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Unsat(core) => {
                assert!(!core.is_empty());
                assert!(core.iter().all(|&i| i < 2));
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_branching_finds_solutions() {
        let (p, vs) = pool_with_vars(2, 0, 10);
        // 2x + 2y = 10 has integer solutions even though the LP relaxation
        // may first land on fractional points; 3x + 3y = 10 does not.
        let a1 = atom(&[(vs[0], 2), (vs[1], 2)], -10);
        let a2 = atom(&[(vs[0], -2), (vs[1], -2)], 10);
        match check_conjunction(&p, &[a1, a2], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Sat(m) => assert_eq!(m[&vs[0]] + m[&vs[1]], 5),
            other => panic!("expected sat, got {other:?}"),
        }
        let b1 = atom(&[(vs[0], 3), (vs[1], 3)], -10);
        let b2 = atom(&[(vs[0], -3), (vs[1], -3)], 10);
        assert!(matches!(
            check_conjunction(&p, &[b1, b2], TheoryConfig::default()).unwrap(),
            TheoryVerdict::Unsat(_)
        ));
    }

    #[test]
    fn trivially_false_constant_atom() {
        let (p, _vs) = pool_with_vars(1, 0, 10);
        // 0·x + 3 <= 0 is false.
        let a = atom(&[], 3);
        match check_conjunction(&p, &[a], TheoryConfig::default()).unwrap() {
            TheoryVerdict::Unsat(core) => assert_eq!(core, vec![0]),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn lookahead_range_shape() {
        // The Fig. 1b scenario: I0..I4 in [0,60], sum=100, I0..I2 fixed to
        // 20,15,25. Then I3 = 41 must be unsat, I3 = 40 sat.
        let (p, vs) = pool_with_vars(5, 0, 60);
        let mut atoms = vec![
            atom(&vs.iter().map(|&v| (v, 1)).collect::<Vec<_>>(), -100),
            atom(&vs.iter().map(|&v| (v, -1)).collect::<Vec<_>>(), 100),
        ];
        for (i, val) in [(0usize, 20i64), (1, 15), (2, 25)] {
            atoms.push(atom(&[(vs[i], 1)], -val));
            atoms.push(atom(&[(vs[i], -1)], val));
        }
        let mut with_41 = atoms.clone();
        with_41.push(atom(&[(vs[3], -1)], 41));
        assert!(matches!(
            check_conjunction(&p, &with_41, TheoryConfig::default()).unwrap(),
            TheoryVerdict::Unsat(_)
        ));
        let mut with_40 = atoms.clone();
        with_40.push(atom(&[(vs[3], -1)], 40));
        assert!(matches!(
            check_conjunction(&p, &with_40, TheoryConfig::default()).unwrap(),
            TheoryVerdict::Sat(_)
        ));
    }

    #[test]
    fn node_budget_surfaces_unknown() {
        let (p, vs) = pool_with_vars(3, 0, 1000);
        // A system needing at least one branch, with a budget of 1 node.
        let a1 = atom(&[(vs[0], 2), (vs[1], 2), (vs[2], 2)], -7);
        let a2 = atom(&[(vs[0], -2), (vs[1], -2), (vs[2], -2)], 7);
        let config = TheoryConfig { max_nodes: 1 };
        let verdict = check_conjunction(&p, &[a1, a2], config).unwrap();
        assert_eq!(verdict, TheoryVerdict::Unknown);
    }
}
