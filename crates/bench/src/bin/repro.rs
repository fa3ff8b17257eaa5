//! `repro` — regenerates every table and figure of Graydon (DSN 2015).
//!
//! Usage:
//!
//! ```text
//! repro [table1 | claims | figure1 | haley | greenwell |
//!        exp-a | exp-b | exp-c | exp-d | exp-e | graph | logic |
//!        af | fol | ltl | experiments | lint | service | dsl | all | gate]
//! ```
//!
//! `graph` additionally writes the measured legacy-vs-indexed graph-core
//! comparison to `BENCH_graph.json` in the working directory; `logic`
//! does the same for the legacy-vs-interned batch entailment sweep plus
//! the CDCL-vs-DPLL-vs-legacy hard-instance comparison
//! (`BENCH_logic.json`), `af` for the subset-enumeration-vs-SAT
//! argumentation-framework comparison (`BENCH_af.json`), `fol` for the
//! seed-vs-interned resolution-engine comparison (`BENCH_fol.json`),
//! `ltl` for the trace-vs-CSR bounded-checking comparison
//! (`BENCH_ltl.json`), `experiments` for the serial-vs-parallel
//! experiment runtime (`BENCH_experiments.json`), `lint` for the
//! recompile-per-lint-vs-compile-once CaseLint comparison
//! (`BENCH_lint.json`), `service` for the
//! recompile-per-query-vs-incremental CaseService comparison under
//! mixed edit/query traffic (`BENCH_service.json`), and `dsl` for the
//! recovering-frontend corpus-ingestion comparison against the
//! abort-on-first-error seed parser (`BENCH_dsl.json`). Each of these
//! nine exits 1 when an agreement flag of its report is false (`af`
//! also when its decomposed engine did not reach 10^5 arguments).
//!
//! `gate` is the bench-regression gate (`casekit_bench::gate`): the
//! nine benchmark arms at smoke scale for five round-robin rounds,
//! every speedup floor judged on its median and every agreement flag
//! required in every round. It prints one line per check, writes the
//! last round as `BENCH_*.smoke.json`, and exits 1 if any check fails.
//! It takes no options; the floors are constants in that module.
//!
//! With no argument (or `all`), prints the ten paper artefacts,
//! `table1` through `exp-e`: the same bytes on every run. The benchmark
//! arms run only by name.

use casekit_bench::gate::{self, Report};
use casekit_bench::{self as bench, write_artifact};
use casekit_bench::{af, dsl, experiments, fol, graph, lint, logic, ltl, service};

fn main() {
    let mut args = std::env::args().skip(1);
    let arg = args.next().unwrap_or_else(|| "all".to_string());
    if let Some(extra) = args.next() {
        eprintln!("unexpected extra argument `{extra}`");
        std::process::exit(2);
    }
    let workers = bench::experiments_bench_workers();
    // A benchmark artefact also writes its report as `BENCH_<arg>.json`
    // and sets the exit status from its agreement flags.
    let mut json = None;
    let mut flags = Vec::new();
    let output = match arg.as_str() {
        "table1" => bench::table_i(),
        "claims" => bench::claims_summary(),
        "figure1" => bench::figure_1(),
        "haley" => bench::haley_proof(),
        "greenwell" => bench::greenwell_table(),
        "exp-a" => bench::experiment_a(),
        "exp-b" => bench::experiment_b(),
        "exp-c" => bench::experiment_c(),
        "exp-d" => bench::experiment_d(),
        "exp-e" => bench::experiment_e(),
        "graph" => {
            let report = graph::run_graph_bench(10_000);
            (json, flags) = (Some(graph::bench_graph_json(&report)), report.flags());
            graph::render_report(&report)
        }
        "logic" => {
            let report = logic::run_logic_bench(120, &logic::hard_population_full());
            (json, flags) = (Some(logic::bench_logic_json(&report)), report.flags());
            logic::render_report(&report)
        }
        "af" => {
            // The decomposed engine runs to 10^5 arguments, with a
            // monolithic cross-check up to 10^4.
            let sizes = [1_000, 10_000, gate::FULL_SCALE_AF_SCC_N];
            let report = af::run_af_bench(12, 6, 300, &[12, 50, 200, 1000], &sizes, 10_000);
            (json, flags) = (
                Some(af::bench_af_json(&report)),
                gate::af_full_scale_flags(&report),
            );
            af::render_report(&report)
        }
        "fol" => {
            let report = fol::run_fol_bench(&[200, 400, 800], 30_000);
            (json, flags) = (Some(fol::bench_fol_json(&report)), report.flags());
            fol::render_report(&report)
        }
        "ltl" => {
            // (states, chords, bound) triples for the cross-checked
            // sweep, then the CSR-only deep point.
            let report = ltl::run_ltl_bench(&[(10, 30, 10), (12, 36, 11)], (14, 42, 12));
            (json, flags) = (Some(ltl::bench_ltl_json(&report)), report.flags());
            ltl::render_report(&report)
        }
        "experiments" => {
            let report = experiments::run_experiments_bench(workers);
            (json, flags) = (
                Some(experiments::bench_experiments_json(&report)),
                report.flags(),
            );
            experiments::render_report(&report)
        }
        "lint" => {
            let report = lint::run_lint_bench(workers);
            (json, flags) = (Some(lint::bench_lint_json(&report)), report.flags());
            lint::render_report(&report)
        }
        "service" => {
            let report = service::run_service_bench(workers);
            (json, flags) = (Some(service::bench_service_json(&report)), report.flags());
            service::render_report(&report)
        }
        "dsl" => {
            let report = dsl::run_dsl_bench(workers);
            (json, flags) = (Some(dsl::bench_dsl_json(&report)), report.flags());
            dsl::render_report(&report)
        }
        "all" => bench::all(),
        "gate" => std::process::exit(if gate::run() { 0 } else { 1 }),
        other => {
            eprintln!(
                "unknown artefact `{other}`; expected table1, claims, figure1, haley, \
                 greenwell, exp-a..exp-e, graph, logic, af, fol, ltl, experiments, lint, \
                 service, dsl, all, or gate"
            );
            std::process::exit(2);
        }
    };
    if let Some(json) = json {
        write_artifact(&format!("BENCH_{arg}.json"), &json);
    }
    print!("{output}");
    if !gate::full_scale_holds(&arg, &flags) {
        std::process::exit(1);
    }
}
