//! Argumentation-framework benchmark harness: seeded framework
//! generators, the subset-enumeration baseline (the oracle
//! [`casekit_oracle::af`]), the monolithic SAT labelling path, and the
//! SCC-decomposed engine that carries the semantics to 10^5 arguments.
//!
//! The seed computed complete/preferred extensions by walking all `2^n`
//! argument subsets behind an `assert!(n <= 16)`, and derived the
//! grounded extension with a fixpoint that re-scanned the whole attack
//! relation per candidate per pass. The SAT path
//! ([`casekit_logic::af::encode::AfSat`]) lifts the ceiling; the CSR
//! worklist ([`casekit_logic::af::Adjacency::grounded`]) makes grounded
//! O(V+E); the condensation walk ([`casekit_logic::af::scc::Decomposed`])
//! lifts preferred/stable to sizes the monolithic encoding cannot touch.
//! All the old paths survive so the speedups stay measurable:
//! [`run_af_bench`] cross-checks naive/SAT/decomposed set for set on
//! every ≤ 16-argument instance, cross-checks decomposed-vs-monolithic
//! at every size up to the cross-check ceiling, and emits the
//! comparison as `BENCH_af.json` (via `repro af`).
//!
//! Uniformly-random digraphs at attack density 2 grow a giant strongly
//! connected component (~63% of all arguments), which no decomposition
//! can split — so the large-n scenarios use the [`scale_free_framework`]
//! and [`layered_debate_framework`] generators, whose condensations
//! look like real deliberation graphs: overwhelmingly singleton
//! components plus a bounded handful of mutual-attack pairs.

use casekit_logic::af::encode::AfSat;
use casekit_logic::af::scc::Decomposed;
use casekit_logic::af::{ArgId, Framework};
use casekit_oracle::af as naive;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeSet;

/// A seeded uniformly-random framework: `n` arguments, `attacks`
/// attack pairs drawn with replacement (self-attacks allowed, as in
/// real benchmark suites).
pub fn random_framework(n: usize, attacks: usize, seed: u64) -> Framework {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xAF00_0000_0000_0000);
    let mut af = Framework::new();
    for i in 0..n {
        af.add_argument(format!("arg{i}"));
    }
    for _ in 0..attacks {
        let attacker = rng.gen_range(0..n);
        let target = rng.gen_range(0..n);
        af.add_attack(attacker, target).expect("ids are in range");
    }
    af
}

/// A seeded deliberation-shaped framework: a proposal followed by
/// dialogue moves, each attacking one (sometimes two) earlier
/// arguments — the acyclic, tree-ish shape Tolchinsky-style dialogues
/// produce, where the grounded extension decides everything.
pub fn deliberation_framework(n: usize, seed: u64) -> Framework {
    assert!(n >= 1, "a deliberation has at least the proposal");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1A1_0000_0000_0000);
    let mut af = Framework::new();
    af.add_argument("proposal");
    for i in 1..n {
        let id = af.add_argument(format!("move{i}"));
        let target = rng.gen_range(0..id);
        af.add_attack(id, target).expect("ids are in range");
        if rng.gen_bool(0.25) {
            let second = rng.gen_range(0..id);
            af.add_attack(id, second).expect("ids are in range");
        }
    }
    af
}

/// A seeded scale-free attack graph: each new argument attacks one or
/// two earlier ones chosen by preferential attachment (heavily-attacked
/// arguments attract more attacks — the hub structure real debate
/// corpora show), then a bounded handful of existing attacks are
/// reversed into mutual pairs. The condensation is almost entirely
/// singletons plus ≤ 3 two-cycles, so the decomposed engine resolves
/// nearly everything by propagation and the preferred-extension count
/// stays ≤ 2^3 at any size.
pub fn scale_free_framework(n: usize, seed: u64) -> Framework {
    assert!(n >= 1, "at least one argument");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5CAF_0000_0000_0000);
    let mut af = Framework::new();
    for i in 0..n {
        af.add_argument(format!("arg{i}"));
    }
    // Endpoint pool: each argument appears once per attack it is part
    // of, so sampling the pool uniformly is degree-proportional.
    let mut pool: Vec<ArgId> = vec![0];
    let mut edges: Vec<(ArgId, ArgId)> = Vec::new();
    for i in 1..n {
        let attacks = if rng.gen_bool(0.5) { 2 } else { 1 };
        for _ in 0..attacks {
            let target = pool[rng.gen_range(0..pool.len())];
            af.add_attack(i, target).expect("ids are in range");
            edges.push((i, target));
            pool.push(target);
        }
        pool.push(i);
    }
    // Mutual pairs: reverse a few existing attacks into two-cycles —
    // the non-trivial components that force real per-component solves.
    if !edges.is_empty() {
        for _ in 0..3.min(n / 4) {
            let (attacker, target) = edges[rng.gen_range(0..edges.len())];
            af.add_attack(target, attacker).expect("ids are in range");
        }
    }
    af
}

/// A seeded layered-debate attack graph: `layers` tiers of arguments,
/// tier 0 holding the core theses (with ≤ 3 mutual-attack pairs among
/// them — the genuinely contested claims), and every later tier's
/// arguments attacking one or two arguments of the tier before it.
/// The condensation has exactly the mutual pairs as non-trivial
/// components and a depth equal to the tier count, so components at
/// each depth form a wide independent batch — the shape the parallel
/// dispatch is built for.
pub fn layered_debate_framework(n: usize, layers: usize, seed: u64) -> Framework {
    assert!(
        layers >= 1 && n >= layers,
        "at least one argument per layer"
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1A7E_0000_0000_0000);
    let mut af = Framework::new();
    for i in 0..n {
        af.add_argument(format!("arg{i}"));
    }
    let per_layer = n / layers;
    let layer_start = |l: usize| l * per_layer;
    let layer_len = |l: usize| {
        if l == layers - 1 {
            n - layer_start(l)
        } else {
            per_layer
        }
    };
    for pair in 0..3.min(layer_len(0) / 2) {
        af.add_attack(2 * pair, 2 * pair + 1)
            .expect("ids are in range");
        af.add_attack(2 * pair + 1, 2 * pair)
            .expect("ids are in range");
    }
    for l in 1..layers {
        let (prev_start, prev_len) = (layer_start(l - 1), layer_len(l - 1));
        for i in layer_start(l)..layer_start(l) + layer_len(l) {
            let attacks = if rng.gen_bool(0.4) { 2 } else { 1 };
            for _ in 0..attacks {
                let target = prev_start + rng.gen_range(0..prev_len);
                af.add_attack(i, target).expect("ids are in range");
            }
        }
    }
    af
}

/// A reinstatement chain: argument `i + 1` attacks argument `i`. The
/// grounded fixpoint needs ~`n/2` passes here, which is exactly where
/// a per-candidate attack-relation scan degrades quadratically.
pub fn chain_framework(n: usize) -> Framework {
    let mut af = Framework::new();
    for i in 0..n {
        af.add_argument(format!("c{i}"));
    }
    for i in 1..n {
        af.add_attack(i, i - 1).expect("ids are in range");
    }
    af
}

/// Everything one engine reports about one framework; both engines
/// must produce exactly this, set for set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticsVerdict {
    /// The complete extensions, as a set of sets.
    pub complete: BTreeSet<BTreeSet<ArgId>>,
    /// The preferred extensions, as a set of sets.
    pub preferred: BTreeSet<BTreeSet<ArgId>>,
    /// The stable extensions, as a set of sets.
    pub stable: BTreeSet<BTreeSet<ArgId>>,
    /// Per argument: credulously accepted?
    pub credulous: Vec<bool>,
}

/// The full semantics sweep through the subset enumerator (panics over
/// 16 arguments — smoke instances only).
///
/// For a fair baseline the `2^n` walk runs only twice (complete and
/// stable): preferred is the maximality filter over the complete set
/// and credulous is membership in it, mirroring how [`sat_sweep`]
/// shares one session — the measured gap is enumeration vs SAT, not
/// redundant re-enumeration.
pub fn naive_sweep(af: &Framework) -> SemanticsVerdict {
    let complete = naive::complete_extensions(af).expect("smoke instance");
    let preferred = naive::preferred_from(&complete).into_iter().collect();
    let credulous = (0..af.len())
        .map(|id| complete.iter().any(|e| e.contains(&id)))
        .collect();
    SemanticsVerdict {
        complete: complete.into_iter().collect(),
        preferred,
        stable: naive::stable_extensions(af)
            .expect("smoke instance")
            .into_iter()
            .collect(),
        credulous,
    }
}

/// The same sweep through the SAT path: one complete-semantics session
/// answers the complete enumeration, the preferred maximality loop,
/// and every credulous probe; stable gets its own encoding.
pub fn sat_sweep(af: &Framework) -> SemanticsVerdict {
    let mut session = AfSat::complete(af);
    let complete = session.extensions(None).into_iter().collect();
    let preferred = session.preferred().into_iter().collect();
    let credulous = (0..af.len()).map(|id| session.credulous(id)).collect();
    let stable = AfSat::stable(af).extensions(None).into_iter().collect();
    SemanticsVerdict {
        complete,
        preferred,
        stable,
        credulous,
    }
}

/// The same sweep through the SCC-decomposed engine (the third
/// cross-checked engine on every smoke instance): condensation walk,
/// per-component solves, reassembly.
pub fn scc_sweep(af: &Framework) -> SemanticsVerdict {
    let dec = Decomposed::new(af);
    SemanticsVerdict {
        complete: dec.complete_extensions().into_iter().collect(),
        preferred: dec.preferred_extensions().into_iter().collect(),
        stable: dec.stable_extensions().into_iter().collect(),
        credulous: (0..af.len()).map(|id| dec.credulous(id)).collect(),
    }
}

/// Measured engine comparison at one framework size (SAT path only —
/// the enumerator cannot follow past 16 arguments).
#[derive(Debug, Clone, Default, Serialize)]
pub struct AfSizeReport {
    /// Arguments in the seeded random framework.
    pub n: usize,
    /// Attacks in the seeded random framework.
    pub attacks: usize,
    /// CSR grounded fixpoint, milliseconds (best of 3).
    pub grounded_ms: f64,
    /// Arguments in the grounded extension.
    pub grounded_size: usize,
    /// SAT preferred enumeration (maximality loop), milliseconds.
    pub preferred_ms: f64,
    /// Preferred extensions found.
    pub preferred_count: usize,
    /// SAT stable enumeration, milliseconds.
    pub stable_ms: f64,
    /// Stable extensions found.
    pub stable_count: usize,
    /// On the same-size deliberation-shaped framework: the preferred
    /// extension is unique and equals the grounded extension (the
    /// acyclicity invariant the dialogue layer relies on).
    pub deliberation_preferred_is_grounded: bool,
}

/// Measured decomposed-engine run at one large-n scenario, with the
/// monolithic SAT path alongside wherever the size still permits a
/// cross-check.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AfSccSizeReport {
    /// Which generator produced the framework (`scale_free` or
    /// `layered_debate`).
    pub generator: String,
    /// Arguments in the framework.
    pub n: usize,
    /// Attacks in the framework.
    pub attacks: usize,
    /// Strongly connected components in the condensation.
    pub components: usize,
    /// Members of the largest component.
    pub largest_component: usize,
    /// Depth levels in the condensation (batches of independent
    /// components the runtime can farm out).
    pub levels: usize,
    /// CSR grounded fixpoint, milliseconds (best of 3).
    pub grounded_ms: f64,
    /// Decomposed preferred enumeration (condensation + walk),
    /// milliseconds (best of 3).
    pub preferred_ms: f64,
    /// Preferred extensions found.
    pub preferred_count: usize,
    /// Decomposed stable enumeration, milliseconds (best of 3).
    pub stable_ms: f64,
    /// Stable extensions found.
    pub stable_count: usize,
    /// Monolithic SAT preferred enumeration on the identical
    /// framework, milliseconds — only at cross-checkable sizes.
    pub monolithic_preferred_ms: Option<f64>,
    /// Decomposed and monolithic returned identical preferred and
    /// stable extension sets (only at cross-checkable sizes).
    pub agrees_with_monolithic: Option<bool>,
    /// monolithic preferred / decomposed preferred (only at
    /// cross-checkable sizes).
    pub speedup_vs_monolithic: Option<f64>,
}

/// The measured comparison, serialized into `BENCH_af.json`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AfBenchReport {
    /// ≤ 16-argument instances swept by both engines.
    pub smoke_instances: usize,
    /// Arguments per smoke instance.
    pub smoke_n: usize,
    /// Subset-enumeration sweep over the smoke instances, milliseconds
    /// (best of 3, like every other arm).
    pub naive_ms: f64,
    /// SAT sweep over the same instances, milliseconds (best of 3).
    pub sat_ms: f64,
    /// naive / sat.
    pub sat_over_naive: f64,
    /// Both engines returned identical complete/preferred/stable
    /// extension sets and credulous verdicts on every smoke instance.
    pub extensions_agree: bool,
    /// Chain length for the grounded comparison.
    pub grounded_chain_n: usize,
    /// Seed-style grounded fixpoint (attack-relation scan per
    /// candidate per pass) on the chain, milliseconds.
    pub grounded_naive_ms: f64,
    /// CSR worklist grounded on the same chain, milliseconds.
    pub grounded_csr_ms: f64,
    /// naive / csr.
    pub grounded_over_naive: f64,
    /// Both grounded engines agree on the chain.
    pub grounded_agree: bool,
    /// The SCC-decomposed engine matched the monolithic SAT engine on
    /// every smoke instance and at every cross-checkable large size.
    pub scc_agree: bool,
    /// monolithic preferred / decomposed preferred at the largest
    /// cross-checked size (0.0 when nothing was cross-checked).
    pub scc_speedup: f64,
    /// Largest framework the decomposed engine completed
    /// grounded/preferred/stable on.
    pub scc_largest_n: usize,
    /// SAT-only measurements at sizes the enumerator cannot reach.
    pub sizes: Vec<AfSizeReport>,
    /// Decomposed-engine scenarios at sizes the monolithic encoding
    /// cannot reach (two generators per entry in the size list).
    pub decomposed: Vec<AfSccSizeReport>,
}

/// Builds the two large-n scenario frameworks at `n` arguments.
fn scc_scenarios(n: usize) -> [(&'static str, Framework); 2] {
    let layers = (n / 50).clamp(4, 40.min(n));
    [
        ("scale_free", scale_free_framework(n, 0xD15C ^ n as u64)),
        (
            "layered_debate",
            layered_debate_framework(n, layers, 0xD15C ^ n as u64),
        ),
    ]
}

/// Runs the engine comparison: a three-way cross-checked smoke
/// population at `smoke_n` arguments, the grounded chain comparison at
/// `grounded_chain_n`, SAT-path measurements at each of `sizes`, and
/// decomposed-engine scenarios at each of `scc_sizes` — cross-checked
/// against the monolithic encoding up to `scc_crosscheck_max`
/// arguments, decomposed-only beyond it.
pub fn run_af_bench(
    smoke_n: usize,
    smoke_seeds: usize,
    grounded_chain_n: usize,
    sizes: &[usize],
    scc_sizes: &[usize],
    scc_crosscheck_max: usize,
) -> AfBenchReport {
    assert!(smoke_n <= 16, "smoke instances must fit the enumerator");
    let smoke: Vec<Framework> = (0..smoke_seeds as u64)
        .flat_map(|seed| {
            [
                random_framework(smoke_n, 2 * smoke_n, seed),
                deliberation_framework(smoke_n, seed),
                // Multi-SCC shapes: mutual pairs plus singleton tails,
                // so the decomposed walk exercises branching, not just
                // propagation, inside the smoke gate.
                scale_free_framework(smoke_n, seed),
                layered_debate_framework(smoke_n, 3.min(smoke_n), seed),
            ]
        })
        .collect();

    let (naive_ms, naive_verdicts) =
        crate::best_of_ms(3, || smoke.iter().map(naive_sweep).collect::<Vec<_>>());
    let (sat_ms, sat_verdicts) =
        crate::best_of_ms(3, || smoke.iter().map(sat_sweep).collect::<Vec<_>>());
    let extensions_agree = naive_verdicts == sat_verdicts;
    let scc_verdicts: Vec<SemanticsVerdict> = smoke.iter().map(scc_sweep).collect();
    let mut scc_agree = scc_verdicts == sat_verdicts;

    let chain = chain_framework(grounded_chain_n);
    let (grounded_naive_ms, grounded_naive) =
        crate::best_of_ms(3, || naive::grounded_extension(&chain));
    let (grounded_csr_ms, grounded_csr) = crate::best_of_ms(3, || chain.grounded_extension());
    let grounded_agree = grounded_naive == grounded_csr;

    let sizes = sizes
        .iter()
        .map(|&n| {
            let af = random_framework(n, 2 * n, 0xBEEF ^ n as u64);
            let (grounded_ms, grounded) = crate::best_of_ms(3, || af.grounded_extension());
            let (preferred_ms, preferred) = crate::best_of_ms(3, || af.preferred_extensions());
            let (stable_ms, stable) = crate::best_of_ms(3, || af.stable_extensions());
            let dialogue = deliberation_framework(n, 0xBEEF ^ n as u64);
            let deliberation_preferred_is_grounded =
                dialogue.preferred_extensions() == vec![dialogue.grounded_extension()];
            AfSizeReport {
                n,
                attacks: af.attack_count(),
                grounded_ms,
                grounded_size: grounded.len(),
                preferred_ms,
                preferred_count: preferred.len(),
                stable_ms,
                stable_count: stable.len(),
                deliberation_preferred_is_grounded,
            }
        })
        .collect();

    let mut scc_speedup = 0.0;
    let mut scc_largest_n = 0;
    let mut decomposed = Vec::new();
    for &n in scc_sizes {
        for (generator, af) in scc_scenarios(n) {
            let (grounded_ms, _) = crate::best_of_ms(3, || af.grounded_extension());
            let (preferred_ms, preferred) =
                crate::best_of_ms(3, || Decomposed::new(&af).preferred_extensions());
            let (stable_ms, stable) =
                crate::best_of_ms(3, || Decomposed::new(&af).stable_extensions());
            let dec = Decomposed::new(&af);
            let cond = dec.condensation();
            let largest = cond.largest_component();

            let (monolithic_preferred_ms, agrees_with_monolithic, speedup_vs_monolithic) =
                if n <= scc_crosscheck_max {
                    let (mono_ms, mono_preferred) =
                        crate::best_of_ms(3, || AfSat::complete(&af).preferred());
                    let mono_stable = AfSat::stable(&af).extensions(None);
                    let as_set = |v: &[BTreeSet<ArgId>]| -> BTreeSet<BTreeSet<ArgId>> {
                        v.iter().cloned().collect()
                    };
                    let agrees = as_set(&mono_preferred) == as_set(&preferred)
                        && as_set(&mono_stable) == as_set(&stable);
                    scc_agree &= agrees;
                    let speedup = mono_ms / preferred_ms.max(1e-9);
                    scc_speedup = speedup;
                    (Some(mono_ms), Some(agrees), Some(speedup))
                } else {
                    (None, None, None)
                };

            scc_largest_n = scc_largest_n.max(n);
            decomposed.push(AfSccSizeReport {
                generator: generator.to_string(),
                n,
                attacks: af.attack_count(),
                components: cond.num_components(),
                largest_component: largest,
                levels: cond.num_levels(),
                grounded_ms,
                preferred_ms,
                preferred_count: preferred.len(),
                stable_ms,
                stable_count: stable.len(),
                monolithic_preferred_ms,
                agrees_with_monolithic,
                speedup_vs_monolithic,
            });
        }
    }

    AfBenchReport {
        smoke_instances: smoke.len(),
        smoke_n,
        naive_ms,
        sat_ms,
        sat_over_naive: naive_ms / sat_ms.max(1e-9),
        extensions_agree,
        grounded_chain_n,
        grounded_naive_ms,
        grounded_csr_ms,
        grounded_over_naive: grounded_naive_ms / grounded_csr_ms.max(1e-9),
        grounded_agree,
        scc_agree,
        scc_speedup,
        scc_largest_n,
        sizes,
        decomposed,
    }
}

/// Renders the report as JSON (the `BENCH_af.json` artifact).
pub fn bench_af_json(report: &AfBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Human-readable summary for the repro binary.
pub fn render_report(report: &AfBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "argumentation-framework semantics, {} cross-checked {}-argument instances\n\
           subset enumeration (complete+preferred+stable+credulous): {:>10.3} ms\n\
           SAT labelling sessions (same queries):                    {:>10.3} ms\n\
           speedup: {:.1}x   extensions agree: {}\n\
         grounded on a {}-argument reinstatement chain\n\
           fixpoint with per-candidate attack scans: {:>10.3} ms\n\
           CSR worklist:                             {:>10.3} ms\n\
           speedup: {:.1}x   grounded agree: {}",
        report.smoke_instances,
        report.smoke_n,
        report.naive_ms,
        report.sat_ms,
        report.sat_over_naive,
        report.extensions_agree,
        report.grounded_chain_n,
        report.grounded_naive_ms,
        report.grounded_csr_ms,
        report.grounded_over_naive,
        report.grounded_agree,
    );
    let _ = writeln!(out, "SAT path beyond the old 16-argument ceiling:");
    for s in &report.sizes {
        let _ = writeln!(
            out,
            "  n={:<5} attacks={:<5} grounded {:>8.3} ms ({} in)   \
             preferred {:>9.3} ms ({})   stable {:>9.3} ms ({})   dialogue-unique: {}",
            s.n,
            s.attacks,
            s.grounded_ms,
            s.grounded_size,
            s.preferred_ms,
            s.preferred_count,
            s.stable_ms,
            s.stable_count,
            s.deliberation_preferred_is_grounded,
        );
    }
    let _ = writeln!(
        out,
        "SCC-decomposed engine on deliberation-shaped scenarios \
         (agree: {}, speedup vs monolithic at largest cross-check: {:.1}x):",
        report.scc_agree, report.scc_speedup,
    );
    for s in &report.decomposed {
        let _ = writeln!(
            out,
            "  {:<14} n={:<7} attacks={:<7} comps={:<7} largest={:<3} levels={:<3} \
             grounded {:>8.3} ms   preferred {:>9.3} ms ({})   stable {:>9.3} ms ({})",
            s.generator,
            s.n,
            s.attacks,
            s.components,
            s.largest_component,
            s.levels,
            s.grounded_ms,
            s.preferred_ms,
            s.preferred_count,
            s.stable_ms,
            s.stable_count,
        );
        if let (Some(mono), Some(agrees), Some(speedup)) = (
            s.monolithic_preferred_ms,
            s.agrees_with_monolithic,
            s.speedup_vs_monolithic,
        ) {
            let _ = writeln!(
                out,
                "  {:<14} monolithic preferred {:>9.3} ms   agree: {}   decomposed speedup: {:.1}x",
                "", mono, agrees, speedup,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_framework(10, 20, 7), random_framework(10, 20, 7));
        assert_eq!(deliberation_framework(10, 7), deliberation_framework(10, 7));
        let af = random_framework(10, 20, 7);
        assert_eq!(af.len(), 10);
        assert!(af.attack_count() <= 20);
    }

    #[test]
    fn engines_agree_on_smoke_scale_instances() {
        for seed in 0..4 {
            let af = random_framework(8, 16, seed);
            assert_eq!(naive_sweep(&af), sat_sweep(&af), "random seed {seed}");
            let d = deliberation_framework(8, seed);
            assert_eq!(naive_sweep(&d), sat_sweep(&d), "deliberation seed {seed}");
        }
    }

    #[test]
    fn preferred_succeeds_on_a_200_argument_random_framework() {
        // The acceptance-criteria instance: impossible before the SAT
        // path (the enumerator asserted n <= 16).
        let af = random_framework(200, 400, 0xBEEF ^ 200);
        let preferred = af.preferred_extensions();
        assert!(!preferred.is_empty());
        let grounded = af.grounded_extension();
        for p in &preferred {
            assert!(af.admissible(p));
            assert!(grounded.is_subset(p));
        }
    }

    #[test]
    fn deliberation_frameworks_are_acyclic_and_grounded_decides() {
        let af = deliberation_framework(60, 3);
        let preferred = af.preferred_extensions();
        assert_eq!(preferred, vec![af.grounded_extension()]);
        assert_eq!(af.stable_extensions(), preferred);
    }

    #[test]
    fn csr_grounded_does_not_degrade_quadratically_on_chains() {
        // The old fixpoint re-scans the attack relation per candidate
        // per pass: O(n^2) scans of O(n) each. The CSR worklist is
        // O(V+E); a 50k chain completes instantly, where a quadratic
        // path would need ~10^9 edge visits and a cubic one ~10^14.
        let big = chain_framework(50_000);
        let grounded = big.grounded_extension();
        assert_eq!(grounded.len(), 25_000);
        assert!(grounded.contains(&49_999), "the unattacked top is in");
        assert!(!grounded.contains(&49_998));

        // And on a size the old path can still handle, the two agree —
        // with the CSR path far ahead even at n=160 in a debug build.
        let small = chain_framework(160);
        let (naive_ms, naive_grounded) = crate::best_of_ms(2, || naive::grounded_extension(&small));
        let (csr_ms, csr_grounded) = crate::best_of_ms(2, || small.grounded_extension());
        assert_eq!(naive_grounded, csr_grounded);
        assert!(
            csr_ms <= naive_ms,
            "CSR grounded ({csr_ms} ms) should not lose to the \
             quadratic fixpoint ({naive_ms} ms) on a 160-chain"
        );
    }

    #[test]
    fn report_is_sane_at_small_scale() {
        let report = run_af_bench(8, 2, 120, &[8, 20], &[120], 120);
        assert!(report.extensions_agree);
        assert!(report.grounded_agree);
        assert!(report.scc_agree);
        assert!(report.scc_speedup > 0.0);
        assert_eq!(report.scc_largest_n, 120);
        assert_eq!(report.smoke_instances, 8);
        assert_eq!(report.sizes.len(), 2);
        for s in &report.sizes {
            assert!(s.deliberation_preferred_is_grounded);
            assert!(s.preferred_count >= 1);
        }
        assert_eq!(report.decomposed.len(), 2);
        for s in &report.decomposed {
            assert_eq!(s.agrees_with_monolithic, Some(true));
            assert!(s.preferred_count >= 1);
            assert!(s.components > 1, "multi-SCC by construction");
        }
        let json = bench_af_json(&report);
        assert!(json.contains("\"sat_over_naive\""));
        assert!(json.contains("\"grounded_over_naive\""));
        assert!(json.contains("\"extensions_agree\": true"));
        assert!(json.contains("\"scc_agree\": true"));
        assert!(json.contains("\"speedup_vs_monolithic\""));
        assert!(render_report(&report).contains("extensions agree: true"));
    }

    #[test]
    fn scenario_generators_are_deterministic_and_multi_scc() {
        assert_eq!(scale_free_framework(60, 9), scale_free_framework(60, 9));
        assert_eq!(
            layered_debate_framework(60, 4, 9),
            layered_debate_framework(60, 4, 9)
        );
        for (name, af) in scc_scenarios(200) {
            let dec = Decomposed::new(&af);
            let cond = dec.condensation();
            assert!(
                cond.num_components() < af.len(),
                "{name}: some non-trivial component"
            );
            assert!(
                cond.largest_component() >= 2,
                "{name}: a mutual pair survives"
            );
            assert!(cond.num_levels() >= 2, "{name}: real condensation depth");
            // Bounded branching is the design contract: preferred count
            // stays within 2^pairs regardless of size.
            let preferred = dec.preferred_extensions();
            assert!((1..=8).contains(&preferred.len()), "{name}");
        }
    }

    #[test]
    fn scc_sweep_matches_sat_sweep_on_scenario_shapes() {
        for seed in 0..3 {
            let sf = scale_free_framework(14, seed);
            assert_eq!(scc_sweep(&sf), sat_sweep(&sf), "scale_free seed {seed}");
            let ld = layered_debate_framework(14, 3, seed);
            assert_eq!(scc_sweep(&ld), sat_sweep(&ld), "layered seed {seed}");
        }
    }
}
