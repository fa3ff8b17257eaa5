//! Property-based tests across the workspace: parser round-trips, solver
//! agreement, engine invariants, and structural closure properties.

use casekit::logic::fol::{unify, Substitution, Term};
use casekit::logic::prop::{self, Formula};
use proptest::prelude::*;

/// Strategy: arbitrary propositional formulas over a small atom alphabet.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        prop_oneof![Just("p"), Just("q"), Just("r"), Just("s")].prop_map(Formula::atom),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
        ]
    })
}

/// Strategy: arbitrary ground-ish first-order terms.
fn term_strategy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Term::constant),
        prop_oneof![Just("X"), Just("Y"), Just("Z")].prop_map(Term::var),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (
            prop_oneof![Just("f"), Just("g")],
            collection::vec(inner, 1..3),
        )
            .prop_map(|(functor, args)| Term::compound(functor, args))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn formula_display_parse_round_trip(f in formula_strategy()) {
        let printed = f.to_string();
        let reparsed = prop::parse(&printed).expect("rendered formula parses");
        prop_assert_eq!(f, reparsed);
    }

    #[test]
    fn dpll_agrees_with_truth_table(f in formula_strategy()) {
        let brute = prop::truth_table(&f).expect("small alphabet").models() > 0;
        prop_assert_eq!(f.is_satisfiable(), brute);
    }

    #[test]
    fn nnf_preserves_equivalence(f in formula_strategy()) {
        prop_assert!(f.equivalent(&f.to_nnf()));
    }

    #[test]
    fn distributive_cnf_preserves_equivalence(f in formula_strategy()) {
        let cnf = f.to_cnf();
        let tt = prop::truth_table(&f).expect("small alphabet");
        for (values, expected) in tt.rows() {
            let v: prop::Valuation = tt
                .atoms()
                .iter()
                .cloned()
                .zip(values.iter().copied())
                .collect();
            prop_assert_eq!(cnf.eval(&v), *expected);
        }
    }

    #[test]
    fn tseitin_is_equisatisfiable(f in formula_strategy()) {
        let direct = f.is_satisfiable();
        let via_tseitin = prop::dpll_clauses(&f.to_cnf_tseitin()).is_sat();
        prop_assert_eq!(direct, via_tseitin);
    }

    #[test]
    fn entailment_is_reflexive_and_supports_weakening(f in formula_strategy(), g in formula_strategy()) {
        prop_assert!(f.entails(&f));
        // f & g entails f.
        prop_assert!(f.clone().and(g).entails(&f));
    }

    #[test]
    fn unification_produces_a_unifier(a in term_strategy(), b in term_strategy()) {
        if let Some(s) = unify(&a, &b, &Substitution::new()) {
            prop_assert_eq!(s.apply(&a), s.apply(&b));
        }
    }

    #[test]
    fn unification_is_symmetric_in_success(a in term_strategy(), b in term_strategy()) {
        let fwd = unify(&a, &b, &Substitution::new()).is_some();
        let bwd = unify(&b, &a, &Substitution::new()).is_some();
        prop_assert_eq!(fwd, bwd);
    }

    #[test]
    fn renamed_clauses_share_no_variables(t in term_strategy()) {
        let renamed = t.rename_variables(7);
        for v in t.variables() {
            prop_assert!(!renamed.occurs(&v));
        }
    }
}

// ---------------------------------------------------------------------------
// The formula front end's depth bound: a tree exactly `MAX_DEPTH` tall,
// built in code along a random spine of connectives, prints and parses
// back; one level more is refused.
// ---------------------------------------------------------------------------

mod depth_bound_props {
    use casekit::logic::ltl::{parse_ltl, Ltl};
    use casekit::logic::prop::{parse, Formula};
    use casekit::logic::{SyntaxErrorKind, MAX_DEPTH};
    use proptest::prelude::*;

    /// Wraps `f` in one more level: a negation, or a connective with a
    /// fresh atom on either side.
    fn wrap_formula(f: Formula, step: usize, i: usize) -> Formula {
        let a = Formula::atom(format!("p{i}"));
        match step % 9 {
            0 => f.not(),
            1 => f.and(a),
            2 => a.and(f),
            3 => f.or(a),
            4 => a.or(f),
            5 => f.implies(a),
            6 => a.implies(f),
            7 => f.iff(a),
            _ => a.iff(f),
        }
    }

    fn wrap_ltl(f: Ltl, step: usize, i: usize) -> Ltl {
        let a = Ltl::prop(format!("p{i}"));
        match step % 12 {
            0 => f.not(),
            1 => f.next(),
            2 => f.finally(),
            3 => f.globally(),
            4 => f.and(a),
            5 => a.or(f),
            6 => f.implies(a),
            7 => a.implies(f),
            8 => f.until(a),
            9 => a.until(f),
            10 => f.release(a),
            _ => a.release(f),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn trees_at_the_bound_round_trip_and_one_more_level_is_refused(
            spine in collection::vec(0..12usize, MAX_DEPTH..MAX_DEPTH + 1),
        ) {
            let (last, spine) = spine.split_last().unwrap();
            let f = spine
                .iter()
                .enumerate()
                .fold(Formula::atom("p"), |f, (i, &step)| wrap_formula(f, step, i));
            prop_assert_eq!(f.depth(), MAX_DEPTH);
            prop_assert_eq!(parse(&f.to_string()).unwrap(), f.clone());
            let over = wrap_formula(f, *last, MAX_DEPTH);
            prop_assert_eq!(parse(&over.to_string()).unwrap_err().kind, SyntaxErrorKind::TooDeep);

            let g = spine
                .iter()
                .enumerate()
                .fold(Ltl::prop("p"), |g, (i, &step)| wrap_ltl(g, step, i));
            prop_assert_eq!(parse_ltl(&g.to_string()).unwrap(), g.clone());
            let over = wrap_ltl(g, *last, MAX_DEPTH);
            prop_assert_eq!(parse_ltl(&over.to_string()).unwrap_err().kind, SyntaxErrorKind::TooDeep);
        }
    }
}

// ---------------------------------------------------------------------------
// Solver agreement: the CDCL core, the chronological watched-literal DPLL
// baseline, the legacy recursive DPLL (the differential-testing oracle),
// resolution, and brute-force truth tables must agree on satisfiability for
// fuzzed formulas over up to 12 atoms.
// ---------------------------------------------------------------------------

/// Strategy: arbitrary propositional formulas over a 12-atom alphabet.
fn wide_formula_strategy() -> impl Strategy<Value = Formula> {
    let atom = prop_oneof![
        Just("a"),
        Just("b"),
        Just("c"),
        Just("d"),
        Just("e"),
        Just("f"),
        Just("g"),
        Just("h"),
        Just("i"),
        Just("j"),
        Just("k"),
        Just("l"),
    ]
    .prop_map(Formula::atom);
    let leaf = prop_oneof![Just(Formula::True), Just(Formula::False), atom];
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
        ]
    })
}

/// Decides satisfiability of `f` on the chronological DPLL baseline:
/// Tseitin clauses interned by hand into a [`casekit_oracle::DpllSolver`].
fn dpll_baseline_is_sat(f: &Formula) -> bool {
    let cs = f.to_cnf_tseitin();
    let mut solver = casekit_oracle::DpllSolver::new();
    let mut atoms = prop::AtomTable::new();
    let mut clause: Vec<prop::Lit> = Vec::new();
    for c in cs.clauses() {
        clause.clear();
        for literal in c.literals() {
            let var = atoms.intern_with(&literal.atom, || solver.new_var());
            clause.push(var.lit(literal.positive));
        }
        solver.add_clause(&clause);
    }
    solver.check()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn four_solvers_agree_on_satisfiability(f in wide_formula_strategy()) {
        // Ground truth: brute-force enumeration (≤ 12 atoms by strategy).
        let brute = prop::truth_table(&f).expect("at most 12 atoms").models() > 0;
        // CDCL core (the production path under dpll()).
        prop_assert_eq!(prop::dpll(&f).is_sat(), brute, "CDCL core vs truth table");
        // Chronological watched-literal DPLL baseline.
        prop_assert_eq!(dpll_baseline_is_sat(&f), brute, "DPLL baseline vs truth table");
        // Legacy recursive DPLL oracle.
        prop_assert_eq!(casekit_oracle::legacy::dpll(&f).is_sat(), brute, "legacy oracle vs truth table");
        // Resolution refutation over the equisatisfiable Tseitin CNF.
        // Saturation is quadratic per round, so keep it to the small
        // instances and skip when the budget runs out — agreement is
        // still exercised on every formula that resolves in budget.
        let cs = f.to_cnf_tseitin();
        if cs.len() <= 24 {
            match prop::resolution_refute(&cs, 8_000) {
                prop::ResolutionOutcome::Refuted(_) => prop_assert!(!brute, "resolution refuted a satisfiable formula"),
                prop::ResolutionOutcome::Saturated => prop_assert!(brute, "resolution saturated on an unsatisfiable formula"),
                prop::ResolutionOutcome::BudgetExhausted => {}
            }
        }
    }

    #[test]
    fn watched_solver_models_satisfy_the_formula(f in wide_formula_strategy()) {
        if let prop::SatResult::Sat(model) = prop::dpll(&f) {
            prop_assert!(f.eval(&model), "witness model must satisfy the formula");
        }
    }

    #[test]
    fn sessions_agree_with_monolithic_solves(
        premises in collection::vec(wide_formula_strategy(), 1..5),
        conclusion in wide_formula_strategy(),
    ) {
        // An assume/check/retract session over one compiled theory must
        // answer exactly like building the conjunction formula each time.
        let mut theory = prop::Theory::new();
        let lits: Vec<prop::Lit> = premises.iter().map(|p| theory.formula_lit(p)).collect();
        let not_conclusion = !theory.formula_lit(&conclusion);

        // Entailment: premises ∧ ¬conclusion unsat.
        for &l in &lits { theory.assume(l); }
        theory.assume(not_conclusion);
        let session_entails = !theory.check();
        theory.retract_all();
        let monolithic = Formula::conj(premises.iter().cloned())
            .entails(&conclusion);
        prop_assert_eq!(session_entails, monolithic);

        // Retraction restores the weaker query: premises alone.
        for &l in &lits { theory.assume(l); }
        let session_consistent = theory.check();
        theory.retract_all();
        let consistent = Formula::conj(premises.iter().cloned()).is_satisfiable();
        prop_assert_eq!(session_consistent, consistent);
    }

    #[test]
    fn cdcl_learning_never_changes_session_verdicts(
        clauses in collection::vec(
            collection::vec((0u32..10, 0u8..2), 1..4),
            1..24,
        ),
        rounds in collection::vec(
            collection::vec((0u32..10, 0u8..2), 0..4),
            1..8,
        ),
    ) {
        // One random clause database, one random script of assumption
        // rounds, both engines. The CDCL solver carries learned clauses
        // from each round into the next; every verdict must still match
        // the memoryless chronological baseline.
        let mut cdcl = prop::Solver::new();
        let mut base = casekit_oracle::DpllSolver::new();
        let cv: Vec<prop::Var> = (0..10).map(|_| cdcl.new_var()).collect();
        let bv: Vec<prop::Var> = (0..10).map(|_| base.new_var()).collect();
        for clause in &clauses {
            let cc: Vec<prop::Lit> =
                clause.iter().map(|&(v, pos)| cv[v as usize].lit(pos == 1)).collect();
            let bc: Vec<prop::Lit> =
                clause.iter().map(|&(v, pos)| bv[v as usize].lit(pos == 1)).collect();
            cdcl.add_clause(&cc);
            base.add_clause(&bc);
        }
        for (i, round) in rounds.iter().enumerate() {
            for &(v, pos) in round {
                cdcl.assume(cv[v as usize].lit(pos == 1));
                base.assume(bv[v as usize].lit(pos == 1));
            }
            let (c_sat, b_sat) = (cdcl.check(), base.check());
            prop_assert_eq!(c_sat, b_sat, "round {} of {:?}", i, rounds);
            if c_sat {
                // The CDCL model must actually satisfy the database.
                for clause in &clauses {
                    prop_assert!(
                        clause.iter().any(|&(v, pos)| {
                            cdcl.value(cv[v as usize].lit(pos == 1)) == Some(true)
                        }),
                        "model falsifies {:?} on round {}", clause, i
                    );
                }
            }
            cdcl.retract_all();
            base.retract_all();
        }
    }
}

// ---------------------------------------------------------------------------
// The witness pool answers exactly what the solver answers. Every batch
// caller (the machine checker, the what-if probe, the lint passes, the
// case service and its from-scratch agreement oracle) asks through a
// pool, so the pool is checked question by question against the raw
// session here.
// ---------------------------------------------------------------------------

/// Strategy: arbitrary propositional formulas over an 8-atom alphabet.
fn eight_atom_formula_strategy() -> impl Strategy<Value = Formula> {
    let atom = prop_oneof![
        Just("a"),
        Just("b"),
        Just("c"),
        Just("d"),
        Just("e"),
        Just("f"),
        Just("g"),
        Just("h"),
    ]
    .prop_map(Formula::atom);
    let leaf = prop_oneof![Just(Formula::True), Just(Formula::False), atom];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.iff(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn witness_pool_answers_like_the_solver(
        stages in collection::vec(
            (
                collection::vec(eight_atom_formula_strategy(), 1..4),
                collection::vec(collection::vec((0usize..64, 0u8..2), 1..6), 1..6),
            ),
            1..5,
        ),
    ) {
        // One theory compiled in stages, as `ArgumentTheory::recompile`
        // grows a live case: new definitions arrive between batches of
        // questions, so later questions reach variables newer than the
        // witnesses stored before them.
        let mut theory = prop::Theory::new();
        let mut pool = prop::WitnessPool::new();
        let mut lits: Vec<prop::Lit> = Vec::new();
        let mut asked = 0;
        for (stage, (formulas, questions)) in stages.iter().enumerate() {
            lits.extend(formulas.iter().map(|f| theory.formula_lit(f)));
            for question in questions {
                let assumptions: Vec<prop::Lit> = question
                    .iter()
                    .map(|&(i, positive)| {
                        let lit = lits[i % lits.len()];
                        if positive == 1 { lit } else { !lit }
                    })
                    .collect();
                let pooled = pool.check(&mut theory, &assumptions);
                asked += 1;
                prop_assert_eq!(
                    pooled,
                    theory.check_under(assumptions.iter().copied()),
                    "stage {} question {:?} of {:?}", stage, question, stages
                );
            }
        }
        prop_assert_eq!(pool.solver_calls() + pool.witness_hits(), asked);
    }
}

// Structural hashing in `Theory::formula_lit`: a formula or sub-formula
// compiled before gets its old literal back, so literals are shared
// across formulas and stages. Every literal must still be equivalent to
// its formula: each question is checked against the truth table.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn shared_sub_formulas_answer_like_the_truth_table(
        pool in collection::vec(formula_strategy(), 2..6),
        stages in collection::vec(
            (
                collection::vec((0u8..5, 0usize..64, 0usize..64), 1..4),
                collection::vec(collection::vec((0usize..64, 0u8..2), 1..5), 1..5),
            ),
            1..5,
        ),
    ) {
        // Each pick compiles a pool member (op 4) or joins two of them
        // (ops 0–3); a join enters the pool, so later picks nest and
        // repeat earlier formulas and their sub-formulas.
        let mut pool = pool;
        let mut theory = prop::Theory::new();
        let mut compiled: Vec<(Formula, prop::Lit)> = Vec::new();
        for (stage, (picks, questions)) in stages.iter().enumerate() {
            for &(op, i, j) in picks {
                let (l, r) = (pool[i % pool.len()].clone(), pool[j % pool.len()].clone());
                let f = match op {
                    0 => l.and(r),
                    1 => l.or(r),
                    2 => l.implies(r),
                    3 => l.iff(r),
                    _ => l,
                };
                if op < 4 {
                    pool.push(f.clone());
                }
                let lit = theory.formula_lit(&f);
                compiled.push((f, lit));
            }
            for question in questions {
                let (assumptions, signed): (Vec<prop::Lit>, Vec<Formula>) = question
                    .iter()
                    .map(|&(i, positive)| {
                        let (f, lit) = &compiled[i % compiled.len()];
                        if positive == 1 { (*lit, f.clone()) } else { (!*lit, f.clone().not()) }
                    })
                    .unzip();
                let table = prop::truth_table(&Formula::conj(signed)).unwrap();
                prop_assert_eq!(
                    theory.check_under(assumptions),
                    table.models() > 0,
                    "stage {} question {:?} over {:?}", stage, question, compiled
                );
            }
        }
    }
}

// Pattern instantiation is closed over GSN well-formedness for arbitrary
// hazard lists.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hazard_pattern_instances_always_well_formed(
        hazards in collection::vec("[a-z]{1,12}", 1..12),
        system in "[A-Za-z ]{1,20}",
    ) {
        use casekit::patterns::{library, Binding, ParamValue};
        let binding = Binding::new().with("system", system).with(
            "hazards",
            ParamValue::List(hazards.into_iter().map(ParamValue::Str).collect()),
        );
        let argument = library::hazard_directed_breakdown()
            .instantiate(&binding)
            .expect("well-typed binding instantiates");
        prop_assert!(casekit::core::gsn::check(&argument).is_empty());
        // And the DSL round-trips it.
        let rendered = casekit::core::dsl::render_dsl(&argument);
        let reparsed = casekit::core::dsl::parse_argument(&rendered).expect("round trip");
        prop_assert_eq!(argument.len(), reparsed.len());
    }

    #[test]
    fn query_results_are_subset_of_annotated_nodes(
        severities in collection::vec(0usize..3, 3..10),
    ) {
        use casekit::core::{Argument, NodeKind};
        use casekit::query::{parse_query, AnnotationStore, FieldType, Ontology};
        let names = ["catastrophic", "major", "minor"];
        let mut builder = Argument::builder("q").add("g_top", NodeKind::Goal, "top");
        for i in 0..severities.len() {
            builder = builder
                .add(&format!("g{i}"), NodeKind::Goal, &format!("hazard {i}"))
                .supported_by("g_top", &format!("g{i}"))
                .add(&format!("e{i}"), NodeKind::Solution, "ev")
                .supported_by(&format!("g{i}"), &format!("e{i}"));
        }
        let argument = builder.build().unwrap();
        let mut ontology = Ontology::new();
        ontology.declare_enum("severity", names);
        ontology.declare_attribute(
            "hazard",
            [("severity", FieldType::Enum("severity".into()))],
        );
        let mut store = AnnotationStore::new(ontology);
        for (i, s) in severities.iter().enumerate() {
            store
                .annotate(&argument, &format!("g{i}"), "hazard", [("severity", names[*s])])
                .unwrap();
        }
        let q = parse_query("select goals where hazard.severity = catastrophic").unwrap();
        let hits = q.run(&argument, &store);
        let expected = severities.iter().filter(|&&s| s == 0).count();
        prop_assert_eq!(hits.len(), expected);
    }
}

// Mutating any single line reference of a valid proof is caught.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nd_checker_rejects_reference_mutations(
        line in 5usize..11,
        delta in 1usize..4,
    ) {
        use casekit::logic::nd::{Proof, Rule};
        let good = Proof::haley_example();
        let mut mutated = Proof::new();
        for (i, l) in good.lines().iter().enumerate() {
            let number = i + 1;
            let rule = if number == line {
                match &l.rule {
                    Rule::Detach(a, b) => Rule::Detach(a.saturating_sub(delta).max(1), *b),
                    Rule::Split(a) => Rule::Split(a.saturating_sub(delta).max(1)),
                    Rule::Conclusion(a) => Rule::Conclusion(a.saturating_sub(delta).max(1)),
                    other => other.clone(),
                }
            } else {
                l.rule.clone()
            };
            mutated.add(l.formula.clone(), rule);
        }
        // Either the mutation was a no-op (reference unchanged) or the
        // checker rejects.
        if mutated != good {
            prop_assert!(mutated.check().is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Arena graph core: construction fuzzing, index-plane invariants, and DSL
// round-trips.
// ---------------------------------------------------------------------------

mod arena_props {
    use casekit::analysis::{lint_argument, Level, LintCode, LintConfig};
    use casekit::core::{Argument, Edge, EdgeKind, NodeId, NodeKind};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const KINDS: [NodeKind; 6] = [
        NodeKind::Goal,
        NodeKind::Strategy,
        NodeKind::Solution,
        NodeKind::Context,
        NodeKind::Assumption,
        NodeKind::Justification,
    ];

    /// The edge kind the DSL infers from nesting under a parent.
    fn dsl_edge_kind(child: NodeKind) -> EdgeKind {
        match child {
            NodeKind::Context | NodeKind::Assumption | NodeKind::Justification => {
                EdgeKind::InContextOf
            }
            _ => EdgeKind::SupportedBy,
        }
    }

    /// Strategy: a built argument with `n` nodes — a random single-rooted
    /// tree (guaranteeing every node renders from the root) plus extra
    /// forward `SupportedBy` edges (emitted as `ref`s by the renderer).
    fn built_argument() -> impl Strategy<Value = Argument> {
        (
            2usize..32,
            collection::vec(0usize..1_000_000, 1..32),
            collection::vec((0usize..1_000_000, 0usize..1_000_000), 0..16),
            0usize..6,
        )
            .prop_map(|(n, parent_picks, extra_picks, kind_offset)| {
                let kind_of = |i: usize| KINDS[(i + kind_offset) % KINDS.len()];
                let mut builder = Argument::builder("fuzz");
                // Node 0 is the root and must be able to carry children.
                builder = builder.add("n0", NodeKind::Goal, "root claim \"quoted\"");
                for i in 1..n {
                    builder = builder.add(
                        &format!("n{i}"),
                        kind_of(i),
                        &format!("text {i} with \\ and \""),
                    );
                }
                let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
                for i in 1..n {
                    // Tree edge from some earlier non-leaf-kind node; fall
                    // back to the root, which always accepts children.
                    let pick = parent_picks[i % parent_picks.len()] % i;
                    let parent = if matches!(
                        kind_of(pick),
                        NodeKind::Solution
                            | NodeKind::Context
                            | NodeKind::Assumption
                            | NodeKind::Justification
                    ) && pick != 0
                    {
                        0
                    } else {
                        pick
                    };
                    edges.insert((parent, i));
                    builder = builder.edge(
                        &format!("n{parent}"),
                        &format!("n{i}"),
                        dsl_edge_kind(kind_of(i)),
                    );
                }
                // Extra forward DAG edges; the DSL renders these as `ref`
                // children, which parse back as SupportedBy, so only
                // target support-kind nodes.
                for &(a, b) in &extra_picks {
                    let from = a % n;
                    let to = b % n;
                    if from >= to || edges.contains(&(from, to)) {
                        continue;
                    }
                    if dsl_edge_kind(kind_of(to)) != EdgeKind::SupportedBy || to == 0 {
                        continue;
                    }
                    if matches!(
                        kind_of(from),
                        NodeKind::Solution
                            | NodeKind::Context
                            | NodeKind::Assumption
                            | NodeKind::Justification
                    ) && from != 0
                    {
                        continue;
                    }
                    edges.insert((from, to));
                    builder = builder.edge(
                        &format!("n{from}"),
                        &format!("n{to}"),
                        EdgeKind::SupportedBy,
                    );
                }
                builder.build().expect("fuzzed construction is valid")
            })
    }

    fn edge_set(a: &Argument) -> BTreeSet<(String, String, EdgeKind)> {
        a.edges()
            .iter()
            .map(|e| {
                (
                    e.from.as_str().to_string(),
                    e.to.as_str().to_string(),
                    e.kind,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn interner_is_a_bijection(a in built_argument()) {
            for idx in a.node_indices() {
                prop_assert_eq!(a.node_idx(a.id_at(idx)), Some(idx));
            }
            prop_assert_eq!(a.node_indices().len(), a.len());
            // And every id-plane lookup agrees with the index plane.
            for node in a.nodes() {
                let idx = a.node_idx(&node.id).unwrap();
                prop_assert_eq!(a.node_at(idx).id.as_str(), node.id.as_str());
            }
        }

        #[test]
        fn csr_adjacency_matches_edge_list(a in built_argument()) {
            // Per-node children by kind must equal a filtered scan of
            // edges(), in edge-insertion order (the legacy contract).
            for node in a.nodes() {
                for kind in [EdgeKind::SupportedBy, EdgeKind::InContextOf] {
                    let via_api: Vec<String> = a
                        .children(&node.id, kind)
                        .iter()
                        .map(|n| n.id.as_str().to_string())
                        .collect();
                    let via_scan: Vec<String> = a
                        .edges()
                        .iter()
                        .filter(|e| e.from == node.id && e.kind == kind)
                        .map(|e| e.to.as_str().to_string())
                        .collect();
                    prop_assert_eq!(via_api, via_scan);
                }
                let parents_api: BTreeSet<String> = a
                    .parents(&node.id)
                    .iter()
                    .map(|n| n.id.as_str().to_string())
                    .collect();
                let parents_scan: BTreeSet<String> = a
                    .edges()
                    .iter()
                    .filter(|e| e.to == node.id)
                    .map(|e| e.from.as_str().to_string())
                    .collect();
                prop_assert_eq!(parents_api, parents_scan);
            }
            // Degree sums account for every edge exactly once per side.
            let out_total: usize = a.node_indices().map(|i| a.out_degree(i)).sum();
            let in_total: usize = a.node_indices().map(|i| a.in_degree(i)).sum();
            prop_assert_eq!(out_total, a.edges().len());
            prop_assert_eq!(in_total, a.edges().len());
        }

        #[test]
        fn dsl_render_parse_round_trip_preserves_argument(
            dag in built_argument(),
            back_picks in collection::vec((0usize..1_000_000, 0usize..1_000_000), 0..4),
        ) {
            // Support edges from a later node back to an earlier one close
            // cycles; one into n0 leaves no root, so nothing renders from
            // a root at all.
            let n = dag.len();
            let mut edges = dag.edges().to_vec();
            for (x, y) in back_picks {
                let (from, to) = (x % n, y % n);
                let back = Edge {
                    from: NodeId::new(format!("n{from}")),
                    to: NodeId::new(format!("n{to}")),
                    kind: EdgeKind::SupportedBy,
                };
                if to < from
                    && dsl_edge_kind(dag.arena()[to].kind) == EdgeKind::SupportedBy
                    && !edges.contains(&back)
                {
                    edges.push(back);
                }
            }
            let a = Argument::from_parts(dag.name(), dag.arena().to_vec(), edges)
                .expect("back edges join existing nodes");
            let rendered = casekit::core::dsl::render_dsl(&a);
            let reparsed = casekit::core::dsl::parse_argument(&rendered)
                .expect("rendered DSL parses");
            prop_assert_eq!(reparsed.name(), a.name());
            prop_assert_eq!(reparsed.len(), a.len());
            for node in a.nodes() {
                let back = reparsed.node(&node.id).expect("node survives round trip");
                prop_assert_eq!(back.kind, node.kind);
                prop_assert_eq!(&back.text, &node.text);
                prop_assert_eq!(back.undeveloped, node.undeveloped);
            }
            prop_assert_eq!(edge_set(&reparsed), edge_set(&a));
        }

        #[test]
        fn serde_round_trip_preserves_fuzzed_arguments(a in built_argument()) {
            let json = serde_json::to_string(&a).unwrap();
            let back: Argument = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, &a);
            // The reconstructed arena answers traversals identically.
            for node in a.nodes() {
                prop_assert_eq!(
                    back.all_children(&node.id).len(),
                    a.all_children(&node.id).len()
                );
            }
        }

        #[test]
        fn reachability_and_acyclicity_agree_with_naive_definitions(
            dag in built_argument(),
            back_picks in collection::vec((0usize..1_000_000, 0usize..1_000_000), 0..4),
        ) {
            // `built_argument` only makes forward DAGs; support edges from
            // a later node back to an earlier one close cycles.
            let n = dag.len();
            let mut edges = dag.edges().to_vec();
            for (x, y) in back_picks {
                let (from, to) = (x % n, y % n);
                let back = Edge {
                    from: NodeId::new(format!("n{from}")),
                    to: NodeId::new(format!("n{to}")),
                    kind: EdgeKind::SupportedBy,
                };
                if to < from && !edges.contains(&back) {
                    edges.push(back);
                }
            }
            let a = Argument::from_parts(dag.name(), dag.arena().to_vec(), edges)
                .expect("back edges join existing nodes");
            // Naive support reachability by edge-list scans: reach[i][j]
            // when one or more SupportedBy edges lead from n{i} to n{j}.
            let position = |id: &NodeId| id.as_str()[1..].parse::<usize>().unwrap();
            let mut reach = vec![vec![false; n]; n];
            for (i, row) in reach.iter_mut().enumerate() {
                let mut frontier = vec![i];
                while let Some(current) = frontier.pop() {
                    for e in a.edges() {
                        let j = position(&e.to);
                        if e.kind == EdgeKind::SupportedBy && position(&e.from) == current && !row[j] {
                            row[j] = true;
                            frontier.push(j);
                        }
                    }
                }
            }
            prop_assert_eq!(a.is_acyclic(), (0..n).all(|i| !reach[i][i]));
            // CK002 reports exactly the mutual-reachability classes.
            let naive: BTreeSet<BTreeSet<String>> = (0..n)
                .filter(|&i| reach[i][i])
                .map(|i| {
                    (0..n)
                        .filter(|&j| reach[i][j] && reach[j][i])
                        .map(|j| format!("n{j}"))
                        .collect()
                })
                .collect();
            let config = LintConfig::allow_all().with_level(LintCode::SupportCycle, Level::Warn);
            let reported: BTreeSet<BTreeSet<String>> = lint_argument(&a, &config)
                .iter()
                .filter(|d| d.code == LintCode::SupportCycle)
                .map(|d| {
                    d.primary
                        .iter()
                        .chain(&d.related)
                        .map(|id| id.as_str().to_string())
                        .collect()
                })
                .collect();
            prop_assert_eq!(reported, naive);
            // reachable_from == transitive closure computed by scanning.
            let root = a.node_idx(&"n0".into()).unwrap();
            let fast: BTreeSet<String> = a
                .reachable_from(root)
                .into_iter()
                .map(|i| a.id_at(i).as_str().to_string())
                .collect();
            let mut slow: BTreeSet<String> = BTreeSet::new();
            let mut frontier = vec!["n0".to_string()];
            while let Some(current) = frontier.pop() {
                for e in a.edges().iter().filter(|e| e.from.as_str() == current) {
                    if slow.insert(e.to.as_str().to_string()) {
                        frontier.push(e.to.as_str().to_string());
                    }
                }
            }
            // The start is excluded even when a cycle leads back to it.
            slow.remove("n0");
            prop_assert_eq!(fast, slow);
        }
    }
}

mod runtime_props {
    use casekit::experiments::runtime::Runtime;
    use casekit::experiments::{exp_a, exp_b, exp_c, exp_d, exp_e};
    use proptest::prelude::*;

    // The acceptance property of the experiment runtime: for any master
    // seed, `Runtime { workers: k }` with k in {1, 2, 4, 8} produces
    // byte-identical reports across all five §VI studies (small
    // configurations keep the fuzzing budget sane; worker count must be
    // unobservable at any scale by the same construction).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn worker_count_is_unobservable_across_all_five_experiments(seed in 0u64..1 << 48) {
            let workers = [1usize, 2, 4, 8];

            let a_cfg = exp_a::Config { per_arm: 9, arguments: 3, hazards: 5, seed };
            let a_base = exp_a::run_with(&a_cfg, &Runtime::with_workers(1)).unwrap();
            for k in workers {
                prop_assert_eq!(
                    &exp_a::run_with(&a_cfg, &Runtime::with_workers(k)).unwrap(),
                    &a_base,
                    "exp_a, workers = {}", k
                );
            }

            let b_cfg = exp_b::Config { sizes: vec![10, 20], per_background: 3, seed };
            let b_base = exp_b::run_with(&b_cfg, &Runtime::with_workers(1)).unwrap();
            for k in workers {
                prop_assert_eq!(
                    &exp_b::run_with(&b_cfg, &Runtime::with_workers(k)).unwrap(),
                    &b_base,
                    "exp_b, workers = {}", k
                );
            }

            let c_cfg = exp_c::Config { per_cell: 5, words: 400, questions: 5, seed };
            let c_base = exp_c::run_with(&c_cfg, &Runtime::with_workers(1)).unwrap();
            for k in workers {
                prop_assert_eq!(
                    &exp_c::run_with(&c_cfg, &Runtime::with_workers(k)).unwrap(),
                    &c_base,
                    "exp_c, workers = {}", k
                );
            }

            let d_cfg = exp_d::Config { instantiations: 3, per_arm: 7, seed };
            let d_base = exp_d::run_with(&d_cfg, &Runtime::with_workers(1)).unwrap();
            for k in workers {
                prop_assert_eq!(
                    &exp_d::run_with(&d_cfg, &Runtime::with_workers(k)).unwrap(),
                    &d_base,
                    "exp_d, workers = {}", k
                );
            }

            let e_cfg = exp_e::Config { per_arm: 6, leaves: 6, seed };
            let e_base = exp_e::run_with(&e_cfg, &Runtime::with_workers(1)).unwrap();
            for k in workers {
                prop_assert_eq!(
                    &exp_e::run_with(&e_cfg, &Runtime::with_workers(k)).unwrap(),
                    &e_base,
                    "exp_e, workers = {}", k
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Interned FOL engine: the indexed iterative machine against the seed
// recursive engine, outcome for outcome, on fuzzed Horn programs.
// ---------------------------------------------------------------------------

mod fol_props {
    use casekit::logic::fol::{parse_program, parse_query, KnowledgeBase, SolveConfig};
    use proptest::prelude::*;

    /// The shared budgets: deep enough to explore cyclic edge relations,
    /// with a work budget no fuzzed instance approaches (the engines
    /// count work differently, so the comparison is only exact while
    /// neither trips it).
    const CONFIG: SolveConfig = SolveConfig {
        max_depth: 12,
        max_work: 1_000_000_000,
        max_solutions: 32,
    };

    /// Strategy: a program of random ground `edge/2` facts over six
    /// constants (cycles and duplicates allowed) plus the fixed
    /// transitive-closure rules. Every derivable answer is ground, so
    /// the engines must agree on the exact solution list — the seed's
    /// leaked rename counters and the interned engine's canonical
    /// `_G{n}` names only diverge on non-ground answers.
    fn program_strategy() -> impl Strategy<Value = KnowledgeBase> {
        collection::vec((0usize..6, 0usize..6), 0..15).prop_map(|edges| {
            let mut src = String::new();
            for (a, b) in edges {
                src.push_str(&format!("edge(c{a}, c{b}).\n"));
            }
            src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n");
            parse_program(&src).expect("generated program parses")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn interned_engine_matches_seed_outcome_for_outcome(kb in program_strategy()) {
            // Bound starts, open ends, ground checks, and an all-variable
            // query: same solutions, same order, same truncation flag.
            for query in [
                "path(c0, X)",
                "path(c3, X)",
                "path(c1, c4)",
                "path(X, Y)",
                "edge(X, c2)",
            ] {
                let goal = parse_query(query).expect("static query");
                prop_assert_eq!(
                    kb.solve_with(&goal, CONFIG),
                    casekit_oracle::fol::solve_with(&kb, &goal, CONFIG),
                    "query {}", query
                );
            }
        }
    }

    #[test]
    fn deep_chains_resolve_without_overflowing_the_stack() {
        // The old `assert!` here is the seed engine's call stack: a
        // derivation tens of thousands of steps deep is exactly what the
        // interned machine's explicit goal stack exists for.
        let n = 30_000usize;
        let mut src = String::new();
        for i in 0..n - 1 {
            src.push_str(&format!("edge(c{i}, c{}).\n", i + 1));
        }
        src.push_str("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n");
        let kb = parse_program(&src).unwrap();
        let goal = parse_query(&format!("path(c0, c{})", n - 1)).unwrap();
        let out = kb.solve_with(
            &goal,
            SolveConfig {
                max_depth: 3 * n,
                max_work: 50 * n,
                max_solutions: 1,
            },
        );
        assert!(out.succeeded());
        assert!(!out.truncated);
    }
}

// ---------------------------------------------------------------------------
// CSR LTL checking: the closure-table plane against the seed trace
// checker, result for result, on fuzzed Kripke structures and formulas.
// ---------------------------------------------------------------------------

mod ltl_props {
    use casekit::logic::ltl::{Kripke, Ltl};
    use proptest::prelude::*;

    /// Strategy: LTL formulas to nesting depth 4 over `a`/`b`/`c` — plus
    /// the never-labelled `d`, which the CSR plane must compile to false
    /// exactly like the trace evaluator treats an absent proposition.
    fn ltl_strategy() -> impl Strategy<Value = Ltl> {
        let leaf = prop_oneof![
            Just(Ltl::True),
            Just(Ltl::False),
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(Ltl::prop),
        ];
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(Ltl::not),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.and(q)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.or(q)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.implies(q)),
                inner.clone().prop_map(Ltl::next),
                inner.clone().prop_map(Ltl::finally),
                inner.clone().prop_map(Ltl::globally),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.until(q)),
                (inner.clone(), inner).prop_map(|(p, q)| p.release(q)),
            ]
        })
    }

    /// Strategy: a Kripke structure of up to 8 states labelled over
    /// `a`/`b`/`c`, with a random transition relation (deadlocks and
    /// self-loops included) and state 0 always initial.
    fn kripke_strategy() -> impl Strategy<Value = Kripke> {
        (1usize..9).prop_flat_map(|n| {
            (
                collection::vec(collection::vec(0usize..3, 0..3), n..n + 1),
                collection::vec((0..n, 0..n), 0..2 * n + 1),
                collection::vec(0..n, 0..3),
            )
                .prop_map(|(labels, transitions, extra_initial)| {
                    let names = ["a", "b", "c"];
                    let mut k = Kripke::new();
                    let states: Vec<_> = labels
                        .iter()
                        .map(|ps| k.add_state(ps.iter().map(|&p| names[p])))
                        .collect();
                    for (from, to) in transitions {
                        k.add_transition(states[from], states[to])
                            .expect("in range");
                    }
                    k.add_initial(states[0]).expect("in range");
                    for s in extra_initial {
                        k.add_initial(states[s]).expect("in range");
                    }
                    k
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn csr_checker_matches_trace_checker_result_for_result(
            k in kripke_strategy(),
            f in ltl_strategy(),
        ) {
            // Identical verdicts AND identical counterexample lassos:
            // the CSR plane visits candidates in the oracle's order.
            prop_assert_eq!(
                k.check_bounded(&f, 6),
                casekit_oracle::ltl::check_bounded(&k, &f, 6)
            );
        }
    }
}

mod af_props {
    use casekit::logic::af::scc::Decomposed;
    use casekit::logic::af::{ArgId, Framework};
    use casekit_oracle::af as naive;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Strategy: a framework with up to `max_args` arguments and a
    /// random attack relation (self-attacks included).
    fn framework_strategy(max_args: usize) -> impl Strategy<Value = Framework> {
        (1..max_args + 1).prop_flat_map(|n| {
            collection::vec((0..n, 0..n), 0..3 * n + 1).prop_map(move |attacks| {
                let mut af = Framework::new();
                for i in 0..n {
                    af.add_argument(format!("a{i}"));
                }
                for (attacker, target) in attacks {
                    af.add_attack(attacker, target).expect("ids are in range");
                }
                af
            })
        })
    }

    fn as_set(extensions: Vec<BTreeSet<ArgId>>) -> BTreeSet<BTreeSet<ArgId>> {
        extensions.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sat_engine_agrees_with_subset_enumeration(af in framework_strategy(9)) {
            // The SAT labelling path against the seed's exponential
            // enumerator, semantics for semantics.
            prop_assert_eq!(
                as_set(af.complete_extensions()),
                as_set(naive::complete_extensions(&af).expect("within cap"))
            );
            prop_assert_eq!(
                as_set(af.preferred_extensions()),
                as_set(naive::preferred_extensions(&af).expect("within cap"))
            );
            prop_assert_eq!(
                as_set(af.stable_extensions()),
                as_set(naive::stable_extensions(&af).expect("within cap"))
            );
        }

        #[test]
        fn acceptance_agrees_between_engines(af in framework_strategy(8)) {
            let naive_preferred = naive::preferred_extensions(&af).expect("within cap");
            let naive_grounded = naive::grounded_extension(&af);
            for id in 0..af.len() {
                prop_assert_eq!(
                    af.credulously_accepted(id).expect("id in range"),
                    naive::credulously_accepted(&af, id).expect("within cap")
                );
                prop_assert_eq!(
                    af.sceptically_accepted_preferred(id).expect("id in range"),
                    naive_preferred.iter().all(|e| e.contains(&id))
                );
                prop_assert_eq!(
                    af.sceptically_accepted(id).expect("id in range"),
                    naive_grounded.contains(&id)
                );
            }
        }

        #[test]
        fn grounded_csr_matches_the_fixpoint_scan(af in framework_strategy(24)) {
            prop_assert_eq!(af.grounded_extension(), naive::grounded_extension(&af));
        }

        #[test]
        fn decomposed_engine_agrees_with_monolithic(af in framework_strategy(40)) {
            // The SCC-decomposed engine against the monolithic SAT
            // path, set for set — on frameworks below the routing
            // threshold, so `af.*_extensions()` is the monolithic
            // answer and the comparison is between distinct engines.
            let dec = Decomposed::new(&af);
            prop_assert_eq!(
                as_set(dec.complete_extensions()),
                as_set(af.complete_extensions())
            );
            prop_assert_eq!(
                as_set(dec.preferred_extensions()),
                as_set(af.preferred_extensions())
            );
            prop_assert_eq!(
                as_set(dec.stable_extensions()),
                as_set(af.stable_extensions())
            );
            for id in 0..af.len() {
                prop_assert_eq!(
                    dec.credulous(id),
                    af.credulously_accepted(id).expect("id in range")
                );
                prop_assert_eq!(
                    dec.sceptical_preferred(id),
                    af.sceptically_accepted_preferred(id).expect("id in range")
                );
            }
        }

        #[test]
        fn condensation_is_acyclic_and_covers_every_argument(af in framework_strategy(40)) {
            let dec = Decomposed::new(&af);
            let cond = dec.condensation();
            // Coverage: the components partition the arguments.
            let mut seen = vec![false; af.len()];
            for c in 0..cond.num_components() {
                for &a in cond.members(c) {
                    prop_assert!(!seen[a], "argument {} in two components", a);
                    seen[a] = true;
                    prop_assert_eq!(cond.component_of(a), c);
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "every argument is covered");
            // Acyclicity in attackers-first order: a cross-component
            // attack always points from a lower-numbered (and strictly
            // shallower) component to a higher one.
            for target in 0..af.len() {
                let tc = cond.component_of(target);
                for attacker in af.attackers(target) {
                    let ac = cond.component_of(attacker);
                    if ac != tc {
                        prop_assert!(ac < tc, "attacker component ordered first");
                        prop_assert!(
                            cond.depth(ac) < cond.depth(tc),
                            "attacks only deepen the condensation"
                        );
                    }
                }
            }
        }

        #[test]
        fn semantics_invariants_hold_beyond_the_enumeration_cap(af in framework_strategy(40)) {
            // Sizes the enumerator cannot cross-check: the classical
            // containments must still hold.
            let grounded = af.grounded_extension();
            let preferred = af.preferred_extensions();
            prop_assert!(!preferred.is_empty(), "preferred semantics is universal");
            for p in &preferred {
                prop_assert!(af.admissible(p), "preferred extensions are admissible");
                prop_assert!(grounded.is_subset(p), "grounded is the sceptical core");
            }
            for s in af.stable_extensions() {
                prop_assert!(
                    preferred.contains(&s),
                    "every stable extension is preferred"
                );
            }
        }
    }

    #[test]
    fn preferred_succeeds_on_a_200_argument_framework() {
        // The old `assert!(n <= 16)` ceiling, exceeded by an order of
        // magnitude: a deterministic pseudo-random framework (SplitMix
        // steps) with cycles, solved through the SAT path.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let n = 200usize;
        let mut af = Framework::new();
        for i in 0..n {
            af.add_argument(format!("a{i}"));
        }
        for _ in 0..2 * n {
            let attacker = next() as usize % n;
            let target = next() as usize % n;
            af.add_attack(attacker, target).expect("ids in range");
        }
        let preferred = af.preferred_extensions();
        assert!(!preferred.is_empty());
        let grounded = af.grounded_extension();
        for p in &preferred {
            assert!(af.admissible(p));
            assert!(grounded.is_subset(p));
        }
    }
}
