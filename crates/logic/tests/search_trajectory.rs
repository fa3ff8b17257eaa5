//! The CDCL search trajectory, pinned question by question.
//!
//! Two sessions of the shapes the `check` workload lints, compiled
//! through [`Theory`] with short atom names (names never reach the
//! solver: variables are numbered in order of first sight):
//!
//! * PHP(6,5), the pigeonhole case: one premise per pigeon ("in some
//!   hole") and one per hole ("at most one pigeon"), asked under all
//!   its premises (UNSAT, found by conflict analysis), without pigeon
//!   5 (SAT, after 147 learned clauses), and under all of them again;
//! * a light case: five chained premises of width 16 under a
//!   conclusion over four chain ends, asked the lint's questions in
//!   lint order: the step, the premises, the denied conclusion, the
//!   conclusion, the entailment, then the drop-probes 0 to 4.
//!
//! Every answer records the verdict, the cumulative [`SolverStats`]
//! after it and an FNV-1a hash of the SAT witness. A change that only
//! makes the solver cheaper (heap bookkeeping, allocation, model
//! snapshots) leaves every row as it is; a row that moves means the
//! search itself changed, and the new values need a reason before
//! they are recorded.

use casekit_logic::prop::{parse, Lit, SolverStats, Theory};

/// One answered question.
#[derive(Debug, PartialEq, Eq)]
struct Answer {
    sat: bool,
    /// FNV-1a of the witness, one byte per variable (SAT only).
    witness: Option<u64>,
    /// Cumulative counters after the question.
    stats: SolverStats,
}

/// The expected answer: verdict, witness hash, and the counters
/// `[decisions, propagations, conflicts, restarts, learned,
/// learned_dropped, simplifications]`.
type Row = (bool, Option<u64>, [u64; 7]);

fn expected(row: Row) -> Answer {
    let (sat, witness, [d, p, c, r, l, dropped, simplified]) = row;
    Answer {
        sat,
        witness,
        stats: SolverStats {
            decisions: d,
            propagations: p,
            conflicts: c,
            restarts: r,
            learned: l,
            learned_dropped: dropped,
            simplifications: simplified,
        },
    }
}

fn fnv(witness: &[bool]) -> u64 {
    witness.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &value| {
        (hash ^ u64::from(value)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn lit(theory: &mut Theory, src: &str) -> Lit {
    theory.formula_lit(&parse(src).expect("test formulas parse"))
}

fn ask(theory: &mut Theory, question: &[Lit]) -> Answer {
    let witness = theory.witness_under(question.iter().copied());
    Answer {
        sat: witness.is_some(),
        witness: witness.as_deref().map(fnv),
        stats: theory.stats(),
    }
}

fn assert_trajectory(theory: &mut Theory, questions: &[Vec<Lit>], rows: &[Row]) {
    assert_eq!(questions.len(), rows.len());
    for (i, (question, &row)) in questions.iter().zip(rows).enumerate() {
        assert_eq!(ask(theory, question), expected(row), "question {i}");
    }
}

#[test]
fn pigeonhole_trajectory_is_pinned() {
    const HOLES: usize = 5;
    let mut theory = Theory::new();
    lit(&mut theory, "all_housed"); // the conclusion compiles first
    let mut premises = Vec::new();
    for p in 0..=HOLES {
        let some_hole: Vec<String> = (0..HOLES).map(|h| format!("s{p}_{h}")).collect();
        premises.push(lit(&mut theory, &some_hole.join(" | ")));
    }
    for h in 0..HOLES {
        let mut pairs = Vec::new();
        for a in 0..=HOLES {
            for b in a + 1..=HOLES {
                pairs.push(format!("~(s{a}_{h} & s{b}_{h})"));
            }
        }
        premises.push(lit(&mut theory, &pairs.join(" & ")));
    }
    assert_eq!((theory.num_vars(), theory.num_clauses()), (200, 507));
    let mut housed = premises.clone();
    housed.remove(HOLES);
    assert_trajectory(
        &mut theory,
        &[premises.clone(), housed, premises],
        &[
            (false, None, [233, 3220, 147, 1, 147, 0, 0]),
            (
                true,
                Some(9504177214098661023),
                [254, 3414, 148, 1, 148, 0, 0],
            ),
            (false, None, [264, 3527, 148, 1, 148, 0, 0]),
        ],
    );
}

#[test]
fn chain_lint_trajectory_is_pinned() {
    const WIDTH: usize = 16;
    const PREMISES: usize = 5;
    let mut theory = Theory::new();
    let ends: Vec<String> = (0..PREMISES - 1).map(|i| format!("a{i}_{WIDTH}")).collect();
    let conclusion = lit(&mut theory, &ends.join(" & "));
    let premises: Vec<Lit> = (0..PREMISES)
        .map(|i| {
            let links: Vec<String> = (0..WIDTH)
                .map(|j| format!("(a{i}_{j} -> a{i}_{})", j + 1))
                .collect();
            lit(&mut theory, &format!("a{i}_0 & {}", links.join(" & ")))
        })
        .collect();
    assert_eq!((theory.num_vars(), theory.num_clauses()), (248, 489));
    let entailment: Vec<Lit> = premises.iter().copied().chain([!conclusion]).collect();
    let mut questions = vec![
        entailment.clone(), // the step: every premise supports the root
        premises.clone(),
        vec![!conclusion],
        vec![conclusion],
        entailment,
    ];
    for skip in 0..PREMISES {
        let mut probe = premises.clone();
        probe.remove(skip);
        probe.push(!conclusion);
        questions.push(probe);
    }
    assert_trajectory(
        &mut theory,
        &questions,
        &[
            (false, None, [5, 243, 0, 0, 0, 0, 0]),
            (true, Some(15584479094214789373), [10, 486, 0, 0, 0, 0, 0]),
            (true, Some(5376884024872118521), [95, 649, 0, 0, 0, 0, 0]),
            (true, Some(15584479094214789373), [177, 815, 0, 0, 0, 0, 0]),
            (false, None, [182, 1058, 0, 0, 0, 0, 0]),
            (true, Some(17932202665975288451), [203, 1285, 0, 0, 0, 0, 0]),
            (true, Some(15531120788271101501), [224, 1512, 0, 0, 0, 0, 0]),
            (true, Some(8891689797860476752), [245, 1739, 0, 0, 0, 0, 0]),
            (true, Some(5376884024872118521), [266, 1966, 0, 0, 0, 0, 0]),
            (false, None, [270, 2161, 0, 0, 0, 0, 0]),
        ],
    );
}
