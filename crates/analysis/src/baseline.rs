//! The one-tool-per-lint baseline: every check runs as its own
//! standalone tool over the same case, so every logical lint pays its
//! own Tseitin compilation and every standalone fallacy detector
//! compiles its own premise/conclusion session. At the source level
//! ([`lint_source_recompiling`]) each tool additionally re-parses the
//! case text, exactly as separate command-line tools over one file
//! would. Diagnostics are identical to [`crate::lint_argument`] by
//! construction (the pass bodies are shared); only the parse and
//! compilation counts differ, which is exactly what `BENCH_lint.json`
//! measures.
//!
//! It stays here, not in `casekit-oracle`, because it is not an
//! independent oracle: it runs this crate's own pass bodies, which are
//! private, and moving it would make them product API.

use crate::diagnostic::{Diagnostic, LintConfig, Sink};
use crate::{logical, structural};
use casekit_core::dsl::parse_argument;
use casekit_core::semantics::{
    formal_conclusion, formal_conclusion_index, formal_premise_indices, formal_premises,
    ArgumentTheory,
};
use casekit_core::Argument;
use casekit_fallacies::formal;
use casekit_logic::prop::{Formula, WitnessPool};
use casekit_logic::ParseError;

/// One standalone tool: a single lint pass over a freshly obtained
/// argument, paying its own compilation if it needs the solver.
type Tool = fn(&Argument, &mut Sink<'_>);

fn tool_structural(argument: &Argument, sink: &mut Sink<'_>) {
    structural::run(argument, sink);
}

fn tool_non_deductive(argument: &Argument, sink: &mut Sink<'_>) {
    logical::pass_non_deductive(
        argument,
        &mut ArgumentTheory::compile(argument),
        &mut WitnessPool::new(),
        sink,
    );
}

fn tool_inconsistent_premises(argument: &Argument, sink: &mut Sink<'_>) {
    logical::pass_inconsistent_premises(
        argument,
        &mut ArgumentTheory::compile(argument),
        &mut WitnessPool::new(),
        sink,
    );
}

fn tool_tautological_conclusion(argument: &Argument, sink: &mut Sink<'_>) {
    logical::pass_tautological_conclusion(
        argument,
        &mut ArgumentTheory::compile(argument),
        &mut WitnessPool::new(),
        sink,
    );
}

fn tool_unsatisfiable_conclusion(argument: &Argument, sink: &mut Sink<'_>) {
    logical::pass_unsatisfiable_conclusion(
        argument,
        &mut ArgumentTheory::compile(argument),
        &mut WitnessPool::new(),
        sink,
    );
}

fn tool_entailment(argument: &Argument, sink: &mut Sink<'_>) {
    logical::pass_entailment(
        argument,
        &mut ArgumentTheory::compile(argument),
        &mut WitnessPool::new(),
        sink,
    );
}

fn tool_redundant_premises(argument: &Argument, sink: &mut Sink<'_>) {
    logical::pass_redundant_premises(
        argument,
        &mut ArgumentTheory::compile(argument),
        &mut WitnessPool::new(),
        sink,
    );
}

fn tool_circular_steps(argument: &Argument, sink: &mut Sink<'_>) {
    logical::pass_circular_steps(
        argument,
        &mut ArgumentTheory::compile(argument),
        &mut WitnessPool::new(),
        sink,
    );
}

/// Shared shape of the six standalone fallacy tools: extract the formal
/// premises and conclusion, run one detector (which compiles its own
/// session), and route the findings into the diagnostic stream.
fn fallacy_tool(
    argument: &Argument,
    sink: &mut Sink<'_>,
    detect: fn(&[&Formula], &Formula) -> Vec<formal::Finding>,
) {
    let premises = formal_premises(argument);
    if premises.is_empty() {
        return;
    }
    if let Some(conclusion) = formal_conclusion(argument) {
        let findings = detect(&premises, conclusion);
        logical::emit_fallacy_findings(
            argument,
            &formal_premise_indices(argument),
            formal_conclusion_index(argument),
            findings,
            sink,
        );
    }
}

fn tool_begging(argument: &Argument, sink: &mut Sink<'_>) {
    fallacy_tool(argument, sink, |p, c| formal::begging_the_question(p, c));
}

fn tool_incompatible(argument: &Argument, sink: &mut Sink<'_>) {
    fallacy_tool(argument, sink, |p, _| formal::incompatible_premises(p));
}

fn tool_contradiction(argument: &Argument, sink: &mut Sink<'_>) {
    fallacy_tool(argument, sink, |p, c| {
        formal::premise_conclusion_contradiction(p, c)
    });
}

fn tool_denying(argument: &Argument, sink: &mut Sink<'_>) {
    fallacy_tool(argument, sink, |p, c| formal::denying_the_antecedent(p, c));
}

fn tool_affirming(argument: &Argument, sink: &mut Sink<'_>) {
    fallacy_tool(argument, sink, |p, c| {
        formal::affirming_the_consequent(p, c)
    });
}

fn tool_conversion(argument: &Argument, sink: &mut Sink<'_>) {
    fallacy_tool(argument, sink, |p, c| formal::false_conversion(p, c));
}

fn tool_quantifier(argument: &Argument, sink: &mut Sink<'_>) {
    logical::pass_quantifier(argument, sink);
}

/// Every check as its own tool, in the engine's pass order (so findings
/// — and hence diagnostics — are byte-identical to the shared-session
/// sweep). Thirteen of the fifteen tools compile a solver session.
const TOOLS: &[Tool] = &[
    tool_structural,
    tool_non_deductive,
    tool_inconsistent_premises,
    tool_tautological_conclusion,
    tool_unsatisfiable_conclusion,
    tool_entailment,
    tool_redundant_premises,
    tool_circular_steps,
    tool_begging,
    tool_incompatible,
    tool_contradiction,
    tool_denying,
    tool_affirming,
    tool_conversion,
    tool_quantifier,
];

/// [`crate::lint_argument`], paid the expensive way: one fresh
/// [`ArgumentTheory`] (or detector session) compilation per
/// solver-backed tool — thirteen compilations for a fully formal
/// argument, against the engine's one.
pub fn lint_argument_recompiling(argument: &Argument, config: &LintConfig) -> Vec<Diagnostic> {
    let mut sink = Sink::new(config);
    for tool in TOOLS {
        tool(argument, &mut sink);
    }
    sink.finish()
}

/// [`crate::lint_source`], paid the expensive way: every tool re-parses
/// the case text *and* recompiles its own session — the cost model of
/// running fifteen separate command-line checkers over one `.case`
/// file.
///
/// # Errors
///
/// Returns the [`ParseError`] if `src` is not a well-formed case.
pub fn lint_source_recompiling(
    src: &str,
    config: &LintConfig,
) -> Result<Vec<Diagnostic>, ParseError> {
    let mut sink = Sink::new(config);
    let mut tools = TOOLS.iter();
    if let Some(tool) = tools.next() {
        // The first tool's parse doubles as validation: one parse per
        // tool, exactly fifteen in total.
        tool(&parse_argument(src)?, &mut sink);
    }
    for tool in tools {
        if let Ok(argument) = parse_argument(src) {
            tool(&argument, &mut sink);
        }
    }
    Ok(sink.finish())
}
