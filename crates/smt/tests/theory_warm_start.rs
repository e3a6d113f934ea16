//! Warm-start equivalence: a persistent [`TheorySession`] checked against
//! the stateless [`check_conjunction`] oracle.
//!
//! The warm session carries its simplex basis (and the feasible point `β`)
//! across checks, so its Sat *models* and Unsat *cores* may differ from a
//! cold rebuild — but its verdicts must be semantically equivalent on every
//! check of any sequence:
//!
//! * same Sat/Unsat discriminant as a fresh single-check session,
//! * a Sat model satisfies every checked atom and every declared bound,
//! * an Unsat core holds valid indices whose sub-conjunction the oracle
//!   also rejects.
//!
//! A second family of tests pins the steady-state memory contract: the live
//! tableau is bounded by the declared variables plus the *distinct* atom
//! linear forms, and the compiled-bound table by twice the atom registry —
//! neither grows with the number of checks.
//!
//! A third family checks the compiled-bound path against brute-force
//! enumeration of integer points, an oracle that shares no code with the
//! compile step: random literal conjunctions over a registry with constant
//! atoms, negative coefficients, and multi-variable forms that share and
//! negate slack rows.

use proptest::prelude::*;

use lejit_smt::{
    check_conjunction, LinAtom, LinExpr, Solver, TermPool, TheoryConfig, TheorySession,
    TheoryVerdict, VarId,
};

/// A random conjunction problem: a shared variable box plus a sequence of
/// conjunctions checked one after another against the same warm session.
#[derive(Clone, Debug)]
struct WarmProblem {
    num_vars: usize,
    lo: i64,
    hi: i64,
    /// Each inner vec is one check's conjunction, as `(coeffs, constant)`
    /// rows meaning `Σ cᵢ·xᵢ + k ≤ 0`.
    checks: Vec<Vec<(Vec<i64>, i64)>>,
}

fn warm_problem() -> impl Strategy<Value = WarmProblem> {
    (2usize..=3, 0i64..=2, 4i64..=8).prop_flat_map(|(num_vars, lo, hi_off)| {
        let atom = (proptest::collection::vec(-3i64..=3, num_vars), -20i64..=20);
        proptest::collection::vec(proptest::collection::vec(atom, 0..=4), 1..=8).prop_map(
            move |checks| WarmProblem {
                num_vars,
                lo,
                hi: lo + hi_off,
                checks,
            },
        )
    })
}

fn build_pool(p: &WarmProblem) -> (TermPool, Vec<VarId>) {
    let mut pool = TermPool::new();
    let vars = (0..p.num_vars)
        .map(|i| pool.int_var(&format!("x{i}"), p.lo, p.hi))
        .collect();
    (pool, vars)
}

fn build_atom(vars: &[VarId], coeffs: &[i64], constant: i64) -> LinAtom {
    let mut e = LinExpr::constant(constant);
    for (i, &c) in coeffs.iter().enumerate() {
        e.add_term(vars[i], c);
    }
    LinAtom { expr: e }
}

fn build_atoms(vars: &[VarId], rows: &[(Vec<i64>, i64)]) -> Vec<LinAtom> {
    rows.iter()
        .map(|(coeffs, constant)| build_atom(vars, coeffs, *constant))
        .collect()
}

/// Interns `atoms` into an append-only `registry` (an atom seen before
/// keeps its index, so its compiled bound is reused) and returns one
/// positive literal per atom, as a session check takes them.
fn intern(registry: &mut Vec<LinAtom>, atoms: &[LinAtom]) -> Vec<(usize, bool)> {
    atoms
        .iter()
        .map(|a| match registry.iter().position(|r| r == a) {
            Some(i) => (i, true),
            None => {
                registry.push(a.clone());
                (registry.len() - 1, true)
            }
        })
        .collect()
}

/// Body of `warm_session_is_semantically_equivalent_to_fresh_oracle`, a
/// plain function to keep the `proptest!` macro small.
fn check_equivalence(p: &WarmProblem) {
    let (pool, vars) = build_pool(p);
    let config = TheoryConfig::default();
    let mut session = TheorySession::new();
    let mut registry = Vec::new();
    for (step, rows) in p.checks.iter().enumerate() {
        let atoms = build_atoms(&vars, rows);
        let lits = intern(&mut registry, &atoms);
        let warm = session.check(&pool, &registry, &lits, config).unwrap();
        let fresh = check_conjunction(&pool, &atoms, config).unwrap();
        match (&warm, &fresh) {
            (TheoryVerdict::Sat(model), TheoryVerdict::Sat(_)) => {
                // The warm model need not equal the fresh model, but it must
                // be a *witness*: every atom and every declared bound holds.
                let assign = |v: VarId| model[&v];
                for (i, a) in atoms.iter().enumerate() {
                    prop_assert!(
                        a.holds(&assign),
                        "step {step}: warm model {model:?} violates atom {i}"
                    );
                }
                for &v in &vars {
                    let info = pool.var_info(v);
                    prop_assert!(
                        (info.lo..=info.hi).contains(&model[&v]),
                        "step {step}: warm model violates declared bounds of {}",
                        info.name
                    );
                }
            }
            (TheoryVerdict::Unsat(core), TheoryVerdict::Unsat(_)) => {
                // Valid indices, and the core alone must already be
                // inconsistent according to the stateless oracle.
                prop_assert!(core.iter().all(|&i| i < atoms.len()), "step {step}");
                let sub: Vec<LinAtom> = core.iter().map(|&i| atoms[i].clone()).collect();
                let sub_verdict = check_conjunction(&pool, &sub, config).unwrap();
                prop_assert!(
                    matches!(sub_verdict, TheoryVerdict::Unsat(_)),
                    "step {step}: warm core {core:?} is not itself unsat"
                );
            }
            _ => prop_assert!(
                false,
                "step {step}: warm verdict {warm:?} disagrees with fresh {fresh:?}"
            ),
        }
    }
}

/// Body of `tableau_is_bounded_by_distinct_linear_forms`.
fn check_tableau_bound(p: &WarmProblem) {
    let (pool, vars) = build_pool(p);
    let config = TheoryConfig::default();
    let mut session = TheorySession::new();
    let mut registry = Vec::new();
    // One full pass interns every distinct linear form the sequence uses.
    for rows in &p.checks {
        let lits = intern(&mut registry, &build_atoms(&vars, rows));
        session.check(&pool, &registry, &lits, config).unwrap();
    }
    let high_water = session.tableau_size();
    // Re-running the whole sequence (in any number of cycles) must not grow
    // the tableau: every row is answered by the interning map.
    for _ in 0..3 {
        for rows in &p.checks {
            let lits = intern(&mut registry, &build_atoms(&vars, rows));
            session.check(&pool, &registry, &lits, config).unwrap();
        }
    }
    prop_assert_eq!(
        session.tableau_size(),
        high_water,
        "tableau grew on re-checked conjunctions: rows are not interned"
    );
    // The bound itself: one simplex var per declared int var, plus at most
    // one slack row per *distinct* multi-variable linear form ever checked.
    let mut forms: std::collections::BTreeSet<Vec<(VarId, i64)>> =
        std::collections::BTreeSet::new();
    for rows in &p.checks {
        for a in &build_atoms(&vars, rows) {
            if a.expr.coeffs.len() > 1 {
                forms.insert(a.expr.coeffs.iter().map(|(&v, &c)| (v, c)).collect());
            }
        }
    }
    let (tab_vars, tab_rows) = session.tableau_size();
    prop_assert!(
        tab_rows <= forms.len(),
        "{tab_rows} slack rows for {} distinct multi-var forms",
        forms.len()
    );
    prop_assert!(tab_vars <= p.num_vars + tab_rows);
}

/// A random literal-conjunction problem over one append-only registry,
/// on a domain small enough to enumerate.
#[derive(Clone, Debug)]
struct LiteralProblem {
    num_vars: usize,
    lo: i64,
    hi: i64,
    /// Registry atoms as `(coeffs, constant)` meaning `Σ cᵢ·xᵢ + k ≤ 0`.
    registry: Vec<(Vec<i64>, i64)>,
    /// Each check's literals as `(registry index, polarity)`.
    checks: Vec<Vec<(usize, bool)>>,
}

fn literal_problem() -> impl Strategy<Value = LiteralProblem> {
    (2usize..=3, -2i64..=1, 2i64..=4).prop_flat_map(|(num_vars, lo, width)| {
        // Two shared linear forms, so different atoms land on the same
        // slack row and a negated form lands on its mirror row.
        let forms = proptest::collection::vec(proptest::collection::vec(-3i64..=3, num_vars), 2);
        // Each atom: 0 = constant, 1 = single variable, 2 = a shared form,
        // 3 = a shared form negated; plus variable pick, scale, constant.
        let atom = (0u8..4, 0usize..num_vars, -3i64..=3, -12i64..=12);
        (
            forms,
            proptest::collection::vec(atom, 3..=8),
            proptest::collection::vec(
                proptest::collection::vec((0usize..64, proptest::bool::ANY), 0..=6),
                1..=8,
            ),
        )
            .prop_map(move |(forms, atoms, checks)| {
                let registry: Vec<(Vec<i64>, i64)> = atoms
                    .iter()
                    .map(|&(kind, var, scale, k)| {
                        let coeffs = match kind {
                            0 => vec![0; num_vars],
                            1 => {
                                let mut c = vec![0; num_vars];
                                c[var] = if scale == 0 { -1 } else { scale };
                                c
                            }
                            2 => forms[var % 2].clone(),
                            _ => forms[var % 2].iter().map(|c| -c).collect(),
                        };
                        (coeffs, k)
                    })
                    .collect();
                let n = registry.len();
                let checks = checks
                    .into_iter()
                    .map(|c| c.into_iter().map(|(i, v)| (i % n, v)).collect())
                    .collect();
                LiteralProblem {
                    num_vars,
                    lo,
                    hi: lo + width,
                    registry,
                    checks,
                }
            })
    })
}

/// Brute force: whether some integer point of the box satisfies every
/// literal, evaluating atoms directly (no compile step, no simplex).
fn enumerate_sat(
    vars: &[VarId],
    lo: i64,
    hi: i64,
    registry: &[LinAtom],
    lits: &[(usize, bool)],
) -> bool {
    let n = vars.len();
    let mut point = vec![lo; n];
    loop {
        let assign = |v: VarId| point[vars.iter().position(|&u| u == v).unwrap()];
        if lits
            .iter()
            .all(|&(i, value)| registry[i].holds(&assign) == value)
        {
            return true;
        }
        // Odometer step over the box.
        let mut k = 0;
        while k < n && point[k] == hi {
            point[k] = lo;
            k += 1;
        }
        if k == n {
            return false;
        }
        point[k] += 1;
    }
}

/// Body of `compiled_literals_agree_with_enumeration_and_fresh_oracle`.
fn check_literal_oracles(p: &LiteralProblem) {
    let mut pool = TermPool::new();
    let vars: Vec<VarId> = (0..p.num_vars)
        .map(|i| pool.int_var(&format!("x{i}"), p.lo, p.hi))
        .collect();
    let registry: Vec<LinAtom> = p
        .registry
        .iter()
        .map(|(coeffs, k)| build_atom(&vars, coeffs, *k))
        .collect();
    let config = TheoryConfig::default();
    let mut session = TheorySession::new();
    for (step, lits) in p.checks.iter().enumerate() {
        let warm = session.check(&pool, &registry, lits, config).unwrap();
        let materialized: Vec<LinAtom> = lits
            .iter()
            .map(|&(i, v)| {
                if v {
                    registry[i].clone()
                } else {
                    registry[i].negated()
                }
            })
            .collect();
        let fresh = check_conjunction(&pool, &materialized, config).unwrap();
        let brute = enumerate_sat(&vars, p.lo, p.hi, &registry, lits);
        match &warm {
            TheoryVerdict::Sat(model) => {
                prop_assert!(brute, "step {step}: Sat but no integer point exists");
                prop_assert!(matches!(fresh, TheoryVerdict::Sat(_)), "step {step}");
                let assign = |v: VarId| model[&v];
                for &(i, value) in lits {
                    prop_assert_eq!(
                        registry[i].holds(&assign),
                        value,
                        "step {}: model {:?} violates literal ({}, {})",
                        step,
                        model,
                        i,
                        value
                    );
                }
                for &v in &vars {
                    prop_assert!((p.lo..=p.hi).contains(&model[&v]), "step {step}");
                }
            }
            TheoryVerdict::Unsat(core) => {
                prop_assert!(!brute, "step {step}: Unsat but enumeration found a point");
                prop_assert!(matches!(fresh, TheoryVerdict::Unsat(_)), "step {step}");
                prop_assert!(core.iter().all(|&pos| pos < lits.len()), "step {step}");
                let sub: Vec<(usize, bool)> = core.iter().map(|&pos| lits[pos]).collect();
                prop_assert!(
                    !enumerate_sat(&vars, p.lo, p.hi, &registry, &sub),
                    "step {step}: core {core:?} is satisfiable on its own"
                );
            }
            TheoryVerdict::Unknown => prop_assert!(false, "step {step}: budget exhausted"),
        }
        prop_assert!(session.compiled_len() <= 2 * registry.len());
    }
    // Steady state: once every literal has been compiled, repeating the
    // checks neither grows the compiled table nor the tableau.
    let (compiled, tableau) = (session.compiled_len(), session.tableau_size());
    for _ in 0..2 {
        for lits in &p.checks {
            session.check(&pool, &registry, lits, config).unwrap();
        }
    }
    prop_assert_eq!(session.compiled_len(), compiled);
    prop_assert_eq!(session.tableau_size(), tableau);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warm_session_is_semantically_equivalent_to_fresh_oracle(p in warm_problem()) {
        check_equivalence(&p);
    }

    #[test]
    fn tableau_is_bounded_by_distinct_linear_forms(p in warm_problem()) {
        check_tableau_bound(&p);
    }

    #[test]
    fn compiled_literals_agree_with_enumeration_and_fresh_oracle(p in literal_problem()) {
        check_literal_oracles(&p);
    }
}

#[test]
fn solver_tableau_reaches_steady_state_under_framed_probing() {
    // The PR 5 high-water-mark methodology, applied to the theory tableau:
    // a long run of identical push/assert/check/pop frames against one
    // solver must hold `theory_tableau_size()` flat after the first frame —
    // the warm backend interns each frame's rows once and reuses them, so
    // session lifetime does not leak into tableau size.
    let mut s = Solver::new();
    let vars: Vec<_> = (0..5).map(|t| s.int_var(&format!("i{t}"), 0, 60)).collect();
    let terms: Vec<_> = vars.iter().map(|&v| s.var(v)).collect();
    let total = s.add(&terms);
    let hundred = s.int(100);
    let sum_eq = s.eq(total, hundred);
    s.assert(sum_eq);
    let mut sizes = Vec::new();
    for round in 0..12 {
        s.push();
        let c = s.int(17 + (round % 3));
        let eq = s.eq(terms[0], c);
        s.assert(eq);
        s.check().unwrap();
        s.pop();
        sizes.push(s.theory_tableau_size());
    }
    let warmup_max = sizes[..3].iter().max().copied().unwrap();
    for (i, &sz) in sizes.iter().enumerate().skip(3) {
        assert!(
            sz <= warmup_max,
            "round {i}: tableau {sz:?} exceeds warm-up high-water mark \
             {warmup_max:?} — slack rows are leaking (sizes: {sizes:?})"
        );
    }
}
