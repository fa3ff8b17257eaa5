//! Seeded input generators for the three workloads.
//!
//! Ported from `casekit_bench::{dsl, lint, service}`, whose generators
//! are deterministic and take no seed. Here the seed drives defect
//! placement, atom names, chain widths, heavy-case placement and the
//! interleaving schedule, while every class share, size and width
//! multiset stays fixed, so every seed gives the program the same bytes
//! and the same amount of work. Each input carries the outcome its
//! construction implies — the diagnostic codes its defect class
//! injects, or the entailment a traffic step leaves — and outputs are
//! checked against that rather than against the code under test.

use casekit_analysis::{Diagnostic, LintCode};
use casekit_core::dsl::parse_argument_seed;
use casekit_core::{Argument, FormalPayload, Node, NodeId, NodeKind};
use casekit_logic::prop::parse;
use casekit_service::{EditOp, LoadedCase};
use std::fmt::Write as _;
use std::ops::Range;

/// Letters in the seeded tag that makes each input's names its own.
const TAG_LEN: usize = 6;

/// SplitMix64: small and fully specified, so one seed gives the same
/// inputs on every host and toolchain.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// The stream for `seed` on `lane`, one lane per generator.
    fn new(seed: u64, lane: u64) -> Self {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`, up to a negligible modulo bias.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A lowercase tag of [`TAG_LEN`] letters.
    fn tag(&mut self) -> String {
        (0..TAG_LEN)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }
}

/// The distinct codes of a diagnostic stream, in code order.
pub(crate) fn codes(diagnostics: &[Diagnostic]) -> Vec<LintCode> {
    let mut codes: Vec<LintCode> = diagnostics.iter().map(|d| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// Atom `j` of chain `i` in the input tagged `tag`: a long descriptive
/// name, as real formal cases carry, which the frontend pays to lex and
/// intern.
fn atom(tag: &str, i: usize, j: usize) -> String {
    format!(
        "independent_verification_activity_for_subsystem_component_{i}_{tag}_confirms_the_stage_{j}_safety_requirement_allocation"
    )
}

/// Chain `i` of `width` links: `a_0 & (a_0 -> a_1) & … & (a_{w-1} -> a_w)`.
fn chain(tag: &str, i: usize, width: usize) -> String {
    let mut src = atom(tag, i, 0);
    for j in 0..width {
        let _ = write!(src, " & ({} -> {})", atom(tag, i, j), atom(tag, i, j + 1));
    }
    src
}

// ------------------------------------------------------------------ ingest

/// Defect classes of the ingest corpus: those of `repro dsl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileClass {
    Clean,
    Truncated,
    KeywordTypo,
    BrokenPayload,
    UnterminatedString,
    StrayChar,
    DuplicateAndDangling,
}

/// One block of eight files: two clean and one of each defect class,
/// six of every eight defective as in `repro dsl`.
const FILE_BLOCK: [FileClass; 8] = [
    FileClass::Clean,
    FileClass::Clean,
    FileClass::Truncated,
    FileClass::KeywordTypo,
    FileClass::BrokenPayload,
    FileClass::UnterminatedString,
    FileClass::StrayChar,
    FileClass::DuplicateAndDangling,
];

/// Node declarations per ingest file.
const NODES_PER_FILE: usize = 12;

impl FileClass {
    /// The codes this class injects, in code order.
    fn expected_codes(self) -> &'static [LintCode] {
        match self {
            FileClass::Clean => &[],
            FileClass::Truncated | FileClass::StrayChar => &[LintCode::SyntaxGeneral],
            FileClass::KeywordTypo => &[LintCode::UnknownKeyword],
            FileClass::BrokenPayload => &[LintCode::MalformedPayload],
            // The open literal swallows the closing braces too.
            FileClass::UnterminatedString => {
                &[LintCode::SyntaxGeneral, LintCode::UnterminatedString]
            }
            FileClass::DuplicateAndDangling => &[LintCode::InvalidStructure],
        }
    }
}

/// The ingest corpus and what each file must load to.
pub(crate) struct IngestCorpus {
    pub(crate) sources: Vec<String>,
    pub(crate) classes: Vec<FileClass>,
    /// The seed parser's argument for each clean file.
    reference: Vec<Option<Argument>>,
}

impl IngestCorpus {
    /// Whether `loaded` is the load of files `files`, each as its class
    /// implies: a clean file loads with no diagnostic to the seed
    /// parser's argument, a defective one with exactly its injected
    /// codes, each with a span.
    pub(crate) fn loads_ok(&self, files: Range<usize>, loaded: &[LoadedCase]) -> bool {
        loaded.len() == files.len()
            && loaded
                .iter()
                .zip(files)
                .all(|(case, i)| match self.classes.get(i) {
                    Some(FileClass::Clean) => {
                        case.diagnostics.is_empty()
                            && case.argument.is_some()
                            && case.argument == self.reference[i]
                    }
                    Some(class) => {
                        codes(&case.diagnostics) == class.expected_codes()
                            && case.diagnostics.iter().all(|d| d.span.is_some())
                    }
                    None => false,
                })
    }
}

/// A clean ingest file: a formalised root over a context and a strategy
/// over propositional, temporal and undeveloped premises.
fn ingest_file(k: usize, tag: &str) -> String {
    let mut src = format!("argument \"case-{k}-{tag}\" {{\n");
    let _ = writeln!(
        src,
        "  goal n0 \"top-level claim\" formal \"root_claim_{tag}\" {{"
    );
    src.push_str("    context n1 \"operating envelope\"\n");
    src.push_str("    strategy n2 \"argue over premises\" {\n");
    for i in 3..NODES_PER_FILE {
        let _ = match i % 3 {
            0 => writeln!(
                src,
                "      goal n{i} \"premise {i}\" formal \"p{i}_{tag} & (p{i}_{tag} -> q{i}_{tag})\" {{ solution s{i} \"evidence report {i}\" }}"
            ),
            1 => writeln!(
                src,
                "      goal n{i} \"liveness premise {i}\" temporal \"G (req{i}_{tag} -> F ack{i}_{tag})\" {{ solution s{i} \"trace log {i}\" }}"
            ),
            _ => writeln!(src, "      claim n{i} \"informal claim {i}\" undeveloped"),
        };
    }
    src.push_str("    }\n  }\n}\n");
    src
}

/// Injects `class`'s defect into a clean file.
fn inject(mut src: String, class: FileClass, tag: &str) -> String {
    match class {
        FileClass::Clean => {}
        // Keep the first two thirds of the lines: the file ends inside
        // the strategy's block.
        FileClass::Truncated => {
            let lines: Vec<&str> = src.split_inclusive('\n').collect();
            src = lines[..lines.len() * 2 / 3].concat();
        }
        FileClass::KeywordTypo => src = src.replacen("goal n0", "gaol n0", 1),
        FileClass::BrokenPayload => {
            src = src.replacen(
                &format!("\"root_claim_{tag}\""),
                &format!("\"root_claim_{tag} &\""),
                1,
            );
        }
        FileClass::UnterminatedString => {
            let last_quote = src.rfind('"').expect("every file has strings");
            src.remove(last_quote);
        }
        FileClass::StrayChar => src = src.replacen("  goal n0", "  $ goal n0", 1),
        FileClass::DuplicateAndDangling => {
            let close = src.rfind('}').expect("every file has braces");
            src.insert_str(
                close,
                "  goal n0 \"duplicate of the root\"\n  goal nx \"dangler\" { ref zz }\n",
            );
        }
    }
    src
}

/// `files` ingest files; each block of eight holds every class once
/// (clean twice) in a seeded order.
pub(crate) fn ingest_corpus(seed: u64, files: usize) -> IngestCorpus {
    let mut rng = Rng::new(seed, 1);
    let mut classes = Vec::with_capacity(files);
    while classes.len() < files {
        let mut block = FILE_BLOCK;
        rng.shuffle(&mut block);
        classes.extend(block);
    }
    classes.truncate(files);
    let sources: Vec<String> = classes
        .iter()
        .enumerate()
        .map(|(k, &class)| {
            let tag = rng.tag();
            inject(ingest_file(k, &tag), class, &tag)
        })
        .collect();
    let reference = sources
        .iter()
        .zip(&classes)
        .map(|(src, &class)| {
            if class == FileClass::Clean {
                parse_argument_seed(src).ok()
            } else {
                None
            }
        })
        .collect();
    IngestCorpus {
        sources,
        classes,
        reference,
    }
}

// ------------------------------------------------------------------- check

/// Case classes of the check corpus: the six defect classes of
/// `repro lint`, and pigeonhole cases that only conflict analysis
/// refutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CaseClass {
    Plain,
    DuplicateEvidence,
    DetachedCycle,
    GapAndShadow,
    Contradiction,
    Quantifier,
    Pigeonhole,
}

const LIGHT_CLASSES: [CaseClass; 6] = [
    CaseClass::Plain,
    CaseClass::DuplicateEvidence,
    CaseClass::DetachedCycle,
    CaseClass::GapAndShadow,
    CaseClass::Contradiction,
    CaseClass::Quantifier,
];

/// Chain widths of a block's cases of one light class (mean 16, the
/// `repro lint` width), in a seeded order.
const LIGHT_WIDTHS: [usize; 7] = [13, 14, 15, 16, 17, 18, 19];
/// Pigeonhole cases per block: with six times seven light cases, one
/// case in eight.
const HEAVY_PER_BLOCK: usize = 6;
/// Cases per check block.
const CHECK_BLOCK: usize = LIGHT_CLASSES.len() * LIGHT_WIDTHS.len() + HEAVY_PER_BLOCK;
/// Formalised premises per light case, as in `repro lint`.
const PREMISES: usize = 5;
/// Holes of a pigeonhole case: PHP(HOLES + 1, HOLES).
const HOLES: usize = 5;

impl CaseClass {
    /// The codes this class injects, in code order.
    fn expected_codes(self) -> &'static [LintCode] {
        match self {
            CaseClass::Plain => &[LintCode::RedundantPremise],
            CaseClass::DuplicateEvidence => {
                &[LintCode::DuplicateEvidence, LintCode::RedundantPremise]
            }
            CaseClass::DetachedCycle => &[
                LintCode::UnreachableNode,
                LintCode::SupportCycle,
                LintCode::RedundantPremise,
            ],
            CaseClass::GapAndShadow => &[
                LintCode::UndevelopedGoal,
                LintCode::ContextShadowing,
                LintCode::RedundantPremise,
            ],
            CaseClass::Contradiction | CaseClass::Pigeonhole => &[
                LintCode::InconsistentPremises,
                LintCode::IncompatiblePremises,
            ],
            CaseClass::Quantifier => &[LintCode::RedundantPremise, LintCode::QuantifierMismatch],
        }
    }
}

/// The check corpus and each case's class.
pub(crate) struct CheckCorpus {
    pub(crate) sources: Vec<String>,
    pub(crate) classes: Vec<CaseClass>,
}

impl CheckCorpus {
    /// Whether case `k` checked to exactly the codes its class injects,
    /// each with a span, and rendered to text if and only if it has
    /// diagnostics.
    pub(crate) fn case_ok(&self, k: usize, diagnostics: &[Diagnostic], rendered: &str) -> bool {
        codes(diagnostics) == self.classes[k].expected_codes()
            && diagnostics.iter().all(|d| d.span.is_some())
            && rendered.is_empty() == diagnostics.is_empty()
    }
}

/// A light case, ported from `repro lint`: a goal over the conjunction
/// of the chain ends of all premises but the last, over a strategy over
/// `PREMISES` chained premise goals (the last redundant by
/// construction), plus the extra structure of `class`.
fn light_case(k: usize, class: CaseClass, width: usize, tag: &str) -> String {
    let conclusion: Vec<String> = (0..PREMISES - 1).map(|i| atom(tag, i, width)).collect();
    let mut src = format!("argument \"case-{k}-{tag}\" {{\n");
    let _ = writeln!(
        src,
        "  goal g0 \"top-level claim\" formal \"{}\" {{",
        conclusion.join(" & ")
    );
    if class == CaseClass::GapAndShadow {
        src.push_str("    context c1 \"Operating envelope\"\n");
    }
    src.push_str("    strategy s0 \"argue over premise chains\" {\n");
    for i in 0..PREMISES {
        let _ = writeln!(
            src,
            "      goal p{i} \"premise {i}\" formal \"{}\" {{",
            chain(tag, i, width)
        );
        if i == 0 && class == CaseClass::GapAndShadow {
            src.push_str("        context c2 \"operating  envelope\"\n");
        }
        let _ = writeln!(src, "        solution e{i} \"analysis report {i}\"");
        if i == 0 && class == CaseClass::DuplicateEvidence {
            src.push_str("        solution d1 \"Stress test log\"\n");
            src.push_str("        solution d2 \"stress  test log\"\n");
        }
        src.push_str("      }\n");
    }
    match class {
        CaseClass::GapAndShadow => src.push_str("      goal u1 \"unargued side claim\"\n"),
        CaseClass::Contradiction => {
            let _ = writeln!(
                src,
                "      goal q1 \"asserts q\" formal \"q_{tag}\" {{ solution eq1 \"report for q\" }}"
            );
            let _ = writeln!(
                src,
                "      goal q2 \"denies q\" formal \"~q_{tag}\" {{ solution eq2 \"report against q\" }}"
            );
        }
        _ => {}
    }
    src.push_str("    }\n");
    if class == CaseClass::Quantifier {
        src.push_str("    goal a1 \"All inputs are validated\" {\n");
        src.push_str("      solution ea1 \"spot checks on some inputs\"\n");
        src.push_str("    }\n");
    }
    src.push_str("  }\n");
    if class == CaseClass::DetachedCycle {
        // The back-reference detaches the pair from every root.
        src.push_str("  goal x1 \"orbiting claim a\" {\n");
        src.push_str("    goal x2 \"orbiting claim b\" { ref x1 }\n");
        src.push_str("  }\n");
    }
    src.push_str("}\n");
    src
}

/// A pigeonhole case, PHP(HOLES + 1, HOLES): one premise per pigeon
/// ("in some hole") and one per hole ("at most one pigeon"). The
/// premises are jointly unsatisfiable, which only conflict analysis
/// shows.
fn pigeonhole_case(k: usize, tag: &str) -> String {
    let sits = |p: usize, h: usize| format!("pigeon_{p}_rests_in_hole_{h}_of_the_{tag}_loft");
    let mut src = format!("argument \"php-{k}-{tag}\" {{\n");
    let _ = writeln!(
        src,
        "  goal g0 \"every pigeon is housed\" formal \"all_pigeons_housed_{tag}\" {{"
    );
    src.push_str("    strategy s0 \"argue over pigeons and holes\" {\n");
    for p in 0..=HOLES {
        let some_hole: Vec<String> = (0..HOLES).map(|h| sits(p, h)).collect();
        let _ = writeln!(
            src,
            "      goal p{p} \"pigeon {p} rests in some hole\" formal \"{}\" {{ solution e{p} \"placement survey {p}\" }}",
            some_hole.join(" | ")
        );
    }
    for h in 0..HOLES {
        let mut pairs = Vec::new();
        for a in 0..=HOLES {
            for b in a + 1..=HOLES {
                pairs.push(format!("~({} & {})", sits(a, h), sits(b, h)));
            }
        }
        let _ = writeln!(
            src,
            "      goal q{h} \"hole {h} holds at most one pigeon\" formal \"{}\" {{ solution f{h} \"hole inspection {h}\" }}",
            pairs.join(" & ")
        );
    }
    src.push_str("    }\n  }\n}\n");
    src
}

/// `blocks` blocks of the check corpus, each with seven cases of every
/// light class and six pigeonhole cases in a seeded order.
pub(crate) fn check_corpus(seed: u64, blocks: usize) -> CheckCorpus {
    let mut rng = Rng::new(seed, 2);
    let mut sources = Vec::with_capacity(blocks * CHECK_BLOCK);
    let mut classes = Vec::with_capacity(blocks * CHECK_BLOCK);
    for _ in 0..blocks {
        let mut block: Vec<(CaseClass, usize)> = Vec::with_capacity(CHECK_BLOCK);
        for class in LIGHT_CLASSES {
            let mut widths = LIGHT_WIDTHS;
            rng.shuffle(&mut widths);
            block.extend(widths.map(|width| (class, width)));
        }
        block.extend([(CaseClass::Pigeonhole, 0); HEAVY_PER_BLOCK]);
        rng.shuffle(&mut block);
        for (class, width) in block {
            let tag = rng.tag();
            let k = sources.len();
            sources.push(match class {
                CaseClass::Pigeonhole => pigeonhole_case(k, &tag),
                _ => light_case(k, class, width, &tag),
            });
            classes.push(class);
        }
    }
    CheckCorpus { sources, classes }
}

// ----------------------------------------------------------------- session

/// Deductive branches per session case.
const BRANCHES: usize = 4;
/// Cases per session block.
pub(crate) const SESSION_BLOCK: usize = 16;
/// Chain widths of a session block's cases, in a seeded order.
const SESSION_WIDTHS: [usize; SESSION_BLOCK] = [5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7];
/// Light defects of a session block, in a seeded order: as in
/// `repro service`, one case in four carries duplicate evidence and one
/// an unargued side claim.
const SESSION_DEFECTS: [SessionDefect; 4] = [
    SessionDefect::Clean,
    SessionDefect::DuplicateEvidence,
    SessionDefect::Clean,
    SessionDefect::Gap,
];
/// Hot cases per session block: edited often enough to cross the
/// service's compaction threshold within one pass.
const HOT_PER_BLOCK: usize = 1;
/// Sever-and-restore episodes of a hot case per pass.
const HOT_EPISODES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionDefect {
    Clean,
    DuplicateEvidence,
    Gap,
}

impl SessionDefect {
    /// The codes `open_source` reports for this defect.
    fn expected_codes(self) -> &'static [LintCode] {
        match self {
            SessionDefect::Clean => &[],
            SessionDefect::DuplicateEvidence => &[LintCode::DuplicateEvidence],
            SessionDefect::Gap => &[LintCode::UndevelopedGoal],
        }
    }
}

/// One request of the session schedule: an edit burst followed by
/// `answers`, or, with no edits, a repeated `answers`.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    pub(crate) case: usize,
    pub(crate) edits: Vec<EditOp>,
    /// Whether the root conclusion is entailed afterwards: not while a
    /// premise chain is severed, again once it is restored.
    pub(crate) entailed: bool,
}

/// The session fleet's sources and one pass of its traffic.
pub(crate) struct SessionWorkload {
    pub(crate) sources: Vec<String>,
    /// The codes `open_source` must report, per case.
    pub(crate) open_codes: Vec<&'static [LintCode]>,
    pub(crate) schedule: Vec<Request>,
}

/// A session case, ported from `repro service`: the top claim (every
/// branch's chain end) over a strategy over `BRANCHES` branch goals,
/// each argued from its own premise chain, so each branch is its own
/// deductive step.
fn session_case(k: usize, width: usize, defect: SessionDefect, tag: &str) -> String {
    let conclusion: Vec<String> = (0..BRANCHES).map(|i| atom(tag, i, width)).collect();
    let mut src = format!("argument \"case-{k}-{tag}\" {{\n");
    let _ = writeln!(
        src,
        "  goal g0 \"top-level claim\" formal \"{}\" {{",
        conclusion.join(" & ")
    );
    src.push_str("    strategy s0 \"argue per subsystem branch\" {\n");
    for i in 0..BRANCHES {
        let _ = writeln!(
            src,
            "      goal b{i} \"branch {i} chain end\" formal \"{}\" {{",
            atom(tag, i, width)
        );
        let _ = writeln!(
            src,
            "        goal p{i} \"premise {i}\" formal \"{}\" {{",
            chain(tag, i, width)
        );
        let _ = writeln!(src, "          solution e{i} \"analysis report {i}\"");
        if i == 0 && defect == SessionDefect::DuplicateEvidence {
            src.push_str("          solution d1 \"Stress test log\"\n");
            src.push_str("          solution d2 \"stress  test log\"\n");
        }
        src.push_str("        }\n      }\n");
    }
    if defect == SessionDefect::Gap {
        src.push_str("      goal u1 \"unargued side claim\"\n");
    }
    src.push_str("    }\n  }\n}\n");
    src
}

#[derive(Debug, Clone, Copy)]
enum Episode {
    /// Cut the last link of chain `i`, reread; restore it and retitle
    /// the root, reread.
    SeverRestore(usize),
    /// Add a supporting premise, reread; remove it, reread.
    AddRemove,
    /// Retitle the root, reread.
    Retitle,
    /// Reread.
    Reread,
}

/// One case's requests for one pass, each with the entailment it
/// leaves. Every episode ends where it began, so passes repeat.
fn case_requests(rng: &mut Rng, tag: &str, width: usize, hot: bool) -> Vec<(Vec<EditOp>, bool)> {
    let mut episodes: Vec<Episode> = if hot {
        (0..HOT_EPISODES)
            .map(|_| Episode::SeverRestore(rng.below(BRANCHES)))
            .collect()
    } else {
        vec![
            Episode::SeverRestore(rng.below(BRANCHES)),
            Episode::SeverRestore(rng.below(BRANCHES)),
            Episode::AddRemove,
            Episode::Retitle,
            Episode::Reread,
        ]
    };
    rng.shuffle(&mut episodes);
    let set_chain = |i: usize, width: usize| EditOp::ReplaceFormula {
        node: NodeId::new(format!("p{i}")),
        formula: parse(&chain(tag, i, width)).expect("generated formulas parse"),
    };
    let retitle = |r: usize| EditOp::SetText {
        node: "g0".into(),
        text: format!("top-level claim, revision {r}"),
    };
    let mut out = Vec::new();
    for (r, episode) in episodes.into_iter().enumerate() {
        match episode {
            Episode::SeverRestore(i) => {
                out.push((vec![set_chain(i, width - 1)], false));
                out.push((Vec::new(), false));
                out.push((vec![set_chain(i, width), retitle(r)], true));
                out.push((Vec::new(), true));
            }
            Episode::AddRemove => {
                let premise = parse(&atom(tag, BRANCHES, 0)).expect("generated formulas parse");
                let extra = Node::new("w0", NodeKind::Goal, "late-added premise")
                    .with_formal(FormalPayload::Prop(premise));
                out.push((
                    vec![EditOp::AddSupport {
                        parent: "s0".into(),
                        node: extra,
                    }],
                    true,
                ));
                out.push((Vec::new(), true));
                out.push((vec![EditOp::RemoveNode { node: "w0".into() }], true));
                out.push((Vec::new(), true));
            }
            Episode::Retitle => {
                out.push((vec![retitle(r)], true));
                out.push((Vec::new(), true));
            }
            Episode::Reread => out.push((Vec::new(), true)),
        }
    }
    out
}

/// `cases` session cases in blocks of [`SESSION_BLOCK`], and one pass of
/// their traffic: a seeded shuffle of one label per request, each label
/// taking its case's next request, so requests interleave across cases
/// while each case keeps its own order.
pub(crate) fn session_workload(seed: u64, cases: usize) -> SessionWorkload {
    assert_eq!(cases % SESSION_BLOCK, 0, "the fleet is whole blocks");
    let mut rng = Rng::new(seed, 3);
    let mut sources = Vec::with_capacity(cases);
    let mut open_codes = Vec::with_capacity(cases);
    let mut streams = Vec::with_capacity(cases);
    for _ in 0..cases / SESSION_BLOCK {
        let mut widths = SESSION_WIDTHS;
        rng.shuffle(&mut widths);
        let mut defects = SESSION_DEFECTS.repeat(SESSION_BLOCK / SESSION_DEFECTS.len());
        rng.shuffle(&mut defects);
        let mut hot = [false; SESSION_BLOCK];
        hot[..HOT_PER_BLOCK].fill(true);
        rng.shuffle(&mut hot);
        for ((&width, &defect), &hot) in widths.iter().zip(&defects).zip(&hot) {
            let tag = rng.tag();
            sources.push(session_case(sources.len(), width, defect, &tag));
            open_codes.push(defect.expected_codes());
            streams.push(case_requests(&mut rng, &tag, width, hot));
        }
    }
    let mut labels: Vec<usize> = streams
        .iter()
        .enumerate()
        .flat_map(|(case, stream)| std::iter::repeat_n(case, stream.len()))
        .collect();
    rng.shuffle(&mut labels);
    let mut streams: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
    let schedule = labels
        .into_iter()
        .map(|case| {
            let (edits, entailed) = streams[case].next().expect("one label per request");
            Request {
                case,
                edits,
                entailed,
            }
        })
        .collect();
    SessionWorkload {
        sources,
        open_codes,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_analysis::{check_source, LintConfig};
    use casekit_runtime::Runtime;
    use casekit_service::{batch_answers, CaseService, CorpusLoader};

    fn total_len(sources: &[String]) -> usize {
        sources.iter().map(String::len).sum()
    }

    fn schedule(workload: &SessionWorkload) -> Vec<(usize, Vec<EditOp>, bool)> {
        workload
            .schedule
            .iter()
            .map(|r| (r.case, r.edits.clone(), r.entailed))
            .collect()
    }

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        let (a, b, c) = (
            ingest_corpus(7, 64),
            ingest_corpus(7, 64),
            ingest_corpus(8, 64),
        );
        assert_eq!((&a.sources, &a.classes), (&b.sources, &b.classes));
        assert_ne!(a.sources, c.sources);
        assert_ne!(a.classes, c.classes);
        assert_eq!(total_len(&a.sources), total_len(&c.sources), "same bytes");

        let (a, b, c) = (check_corpus(7, 1), check_corpus(7, 1), check_corpus(8, 1));
        assert_eq!((&a.sources, &a.classes), (&b.sources, &b.classes));
        assert_ne!(a.classes, c.classes);
        assert_eq!(total_len(&a.sources), total_len(&c.sources), "same bytes");

        let (a, b, c) = (
            session_workload(7, SESSION_BLOCK),
            session_workload(7, SESSION_BLOCK),
            session_workload(8, SESSION_BLOCK),
        );
        assert_eq!(a.sources, b.sources);
        assert_eq!(schedule(&a), schedule(&b));
        assert_ne!(a.sources, c.sources);
        assert_ne!(schedule(&a), schedule(&c));
        assert_eq!(total_len(&a.sources), total_len(&c.sources), "same bytes");
        assert_eq!(a.schedule.len(), c.schedule.len(), "same requests");
    }

    #[test]
    fn every_defect_class_yields_its_codes() {
        let corpus = ingest_corpus(3, 16);
        let loaded = CorpusLoader::new().load(&corpus.sources, &Runtime::serial());
        for (i, case) in loaded.iter().enumerate() {
            assert!(
                corpus.loads_ok(i..i + 1, std::slice::from_ref(case)),
                "file {i} ({:?}) gave {:?}",
                corpus.classes[i],
                codes(&case.diagnostics)
            );
        }

        let corpus = check_corpus(3, 1);
        let config = LintConfig::new();
        for (k, src) in corpus.sources.iter().enumerate() {
            let analysis = check_source(src, &config);
            assert_eq!(
                codes(&analysis.diagnostics),
                corpus.classes[k].expected_codes(),
                "case {k} ({:?})",
                corpus.classes[k]
            );
        }
    }

    #[test]
    fn session_traffic_implies_its_answers_and_crosses_compaction() {
        let workload = session_workload(3, SESSION_BLOCK);
        let mut service = CaseService::new();
        for (k, src) in workload.sources.iter().enumerate() {
            let (case, diagnostics) = service.open_source(src);
            assert_eq!(case, Some(k));
            assert_eq!(codes(&diagnostics), workload.open_codes[k], "case {k}");
        }
        let config = LintConfig::new();
        for request in &workload.schedule {
            for edit in &request.edits {
                service
                    .apply(request.case, edit)
                    .expect("generated edits apply");
            }
            let answers = service.answers(request.case).expect("the case is open");
            assert_eq!(
                answers.probe.as_ref().map(|p| p.entailed),
                Some(request.entailed)
            );
            let session = service.session(request.case).expect("the case is open");
            assert_eq!(answers, batch_answers(session.argument(), &config));
        }
        let rebuilds: u64 = (0..service.len())
            .filter_map(|case| service.session(case))
            .map(|session| session.stats().full_rebuilds)
            .sum();
        assert!(rebuilds > 0, "a hot case compacts within one pass");
    }
}
