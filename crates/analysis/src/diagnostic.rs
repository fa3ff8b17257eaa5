//! The diagnostic substrate: stable lint codes, severities, configurable
//! levels, and the [`Diagnostic`] record every pass emits.
//!
//! Codes are *stable*: once published they never change meaning, so
//! tooling (CI gates, editor integrations, suppression lists) can key on
//! them. `CK0xx` codes are structural (graph-shape) lints, `CK1xx` are
//! logical (solver-backed) and fallacy lints, and `CK2xx` are syntax
//! diagnostics raised by the recovering DSL frontend. The registry
//! ([`LintCode::ALL`], [`LintCode::descriptor`]) is the single source of
//! truth for names, default levels, and pass classification — the README
//! lint table is generated from the same data the engine dispatches on.

use casekit_core::NodeId;
use casekit_logic::{LineIndex, Span};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Configured reporting level for one lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Suppress the lint entirely.
    Allow,
    /// Report as a warning.
    Warn,
    /// Report as an error.
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        })
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "allow" => Ok(Level::Allow),
            "warn" => Ok(Level::Warn),
            "deny" => Ok(Level::Deny),
            other => Err(format!("unknown lint level `{other}` (allow|warn|deny)")),
        }
    }
}

/// Severity of an emitted diagnostic (derived from the configured
/// [`Level`]: `Warn` emits warnings, `Deny` emits errors, `Allow` emits
/// nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth a look; does not fail a deny-level run by itself.
    Warning,
    /// Fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which plane a lint runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PassKind {
    /// Source-plane diagnostics from the recovering DSL frontend.
    Syntax,
    /// O(V+E) graph-shape passes on the arena/CSR index plane.
    Structural,
    /// Solver-backed passes on a compiled [`casekit_core::semantics::ArgumentTheory`] session.
    Logical,
    /// Re-routed formal/informal fallacy detectors.
    Fallacy,
}

impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PassKind::Syntax => "syntax",
            PassKind::Structural => "structural",
            PassKind::Logical => "logical",
            PassKind::Fallacy => "fallacy",
        })
    }
}

macro_rules! lint_codes {
    ($( $variant:ident = ($code:expr, $num:expr, $name:expr, $default:expr, $pass:expr, $summary:expr), )*) => {
        /// Stable lint codes. `CK0xx` structural, `CK1xx`
        /// logical/fallacy, `CK2xx` syntax.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LintCode {
            $(
                #[doc = $summary]
                $variant,
            )*
        }

        impl LintCode {
            /// Every registered lint, in code order.
            pub const ALL: &'static [LintCode] = &[ $( LintCode::$variant, )* ];

            /// The stable code string, e.g. `"CK001"`.
            pub fn as_str(self) -> &'static str {
                match self { $( LintCode::$variant => $code, )* }
            }

            /// Numeric value of the code, for ordering.
            pub fn number(self) -> u16 {
                match self { $( LintCode::$variant => $num, )* }
            }

            /// The registry descriptor for this lint.
            pub fn descriptor(self) -> LintDescriptor {
                match self {
                    $( LintCode::$variant => LintDescriptor {
                        code: LintCode::$variant,
                        name: $name,
                        default_level: $default,
                        pass: $pass,
                        summary: $summary,
                    }, )*
                }
            }

            /// Parses a code (`"CK001"`) or kebab-case name
            /// (`"unreachable-node"`).
            pub fn parse(s: &str) -> Option<LintCode> {
                match s {
                    $( $code | $name => Some(LintCode::$variant), )*
                    _ => None,
                }
            }
        }
    };
}

lint_codes! {
    UnreachableNode = ("CK001", 1, "unreachable-node", Level::Warn, PassKind::Structural,
        "node is not reachable from any root of the argument"),
    SupportCycle = ("CK002", 2, "support-cycle", Level::Deny, PassKind::Structural,
        "the support relation contains a cycle"),
    UndevelopedGoal = ("CK003", 3, "undeveloped-goal", Level::Warn, PassKind::Structural,
        "goal or strategy has no support and is not marked undeveloped"),
    UndevelopedWithSupport = ("CK004", 4, "undeveloped-with-support", Level::Warn, PassKind::Structural,
        "node is marked undeveloped yet has supporting children"),
    DuplicateEvidence = ("CK005", 5, "duplicate-evidence", Level::Warn, PassKind::Structural,
        "two evidence nodes carry identical text"),
    ContextShadowing = ("CK006", 6, "context-shadowing", Level::Warn, PassKind::Structural,
        "context restates one already in force at an ancestor"),
    InconsistentPremises = ("CK101", 101, "inconsistent-premises", Level::Deny, PassKind::Logical,
        "the formal premises are jointly unsatisfiable"),
    TautologicalConclusion = ("CK102", 102, "tautological-conclusion", Level::Warn, PassKind::Logical,
        "the formal conclusion is a tautology (true regardless of the evidence)"),
    UnsatisfiableConclusion = ("CK103", 103, "unsatisfiable-conclusion", Level::Deny, PassKind::Logical,
        "the formal conclusion is unsatisfiable"),
    RedundantPremise = ("CK104", 104, "redundant-premise", Level::Warn, PassKind::Logical,
        "dropping this premise still leaves the conclusion entailed"),
    CircularStep = ("CK105", 105, "circular-step", Level::Warn, PassKind::Logical,
        "a support child is logically equivalent to the claim it supports"),
    NonDeductiveStep = ("CK106", 106, "non-deductive-step", Level::Warn, PassKind::Logical,
        "a formalised step's support does not entail its claim"),
    ConclusionNotEntailed = ("CK107", 107, "conclusion-not-entailed", Level::Deny, PassKind::Logical,
        "the formal premises do not entail the formal conclusion"),
    BeggingTheQuestion = ("CK110", 110, "begging-the-question", Level::Deny, PassKind::Fallacy,
        "a premise restates the conclusion"),
    IncompatiblePremises = ("CK111", 111, "incompatible-premises", Level::Deny, PassKind::Fallacy,
        "a localised subset of premises cannot all be true together"),
    PremiseConclusionContradiction = ("CK112", 112, "premise-conclusion-contradiction", Level::Deny, PassKind::Fallacy,
        "a premise contradicts the conclusion"),
    DenyingTheAntecedent = ("CK113", 113, "denying-the-antecedent", Level::Warn, PassKind::Fallacy,
        "concluding `~q` from `p -> q` and `~p`"),
    AffirmingTheConsequent = ("CK114", 114, "affirming-the-consequent", Level::Warn, PassKind::Fallacy,
        "concluding `p` from `p -> q` and `q`"),
    FalseConversion = ("CK115", 115, "false-conversion", Level::Warn, PassKind::Fallacy,
        "concluding `q -> p` from `p -> q`"),
    UndistributedMiddle = ("CK116", 116, "undistributed-middle", Level::Warn, PassKind::Fallacy,
        "categorical syllogism whose middle term is never distributed (reserved for syllogistic analyses)"),
    IllicitDistribution = ("CK117", 117, "illicit-distribution", Level::Warn, PassKind::Fallacy,
        "term distributed in the conclusion but not in its premise (reserved for syllogistic analyses)"),
    QuantifierMismatch = ("CK120", 120, "quantifier-mismatch", Level::Warn, PassKind::Fallacy,
        "a universal claim supported only by partial evidence (lexical cue)"),
    SyntaxGeneral = ("CK201", 201, "syntax-error", Level::Deny, PassKind::Syntax,
        "the source text could not be parsed at this point"),
    UnterminatedString = ("CK202", 202, "unterminated-string", Level::Deny, PassKind::Syntax,
        "a string literal runs to the end of the file without a closing quote"),
    UnknownKeyword = ("CK203", 203, "unknown-keyword", Level::Deny, PassKind::Syntax,
        "a word appears where a node kind was expected but names no known kind"),
    MalformedPayload = ("CK204", 204, "malformed-payload", Level::Deny, PassKind::Syntax,
        "a `formal` or `temporal` payload is not a well-formed formula"),
    InvalidStructure = ("CK205", 205, "invalid-structure", Level::Deny, PassKind::Syntax,
        "a declaration is syntactically fine but structurally ill-formed (duplicate id, bad `ref`, …)"),
    TooDeep = ("CK206", 206, "too-deep", Level::Deny, PassKind::Syntax,
        "node bodies nest deeper than the parser's depth limit (`casekit_logic::MAX_DEPTH`)"),
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Registry entry for one lint: its stable code, human name, default
/// level, and which pass plane emits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintDescriptor {
    /// The stable code.
    pub code: LintCode,
    /// Kebab-case name, accepted anywhere a code is.
    pub name: &'static str,
    /// Level used when [`LintConfig`] carries no override.
    pub default_level: Level,
    /// Which pass plane emits this lint.
    pub pass: PassKind,
    /// One-line description.
    pub summary: &'static str,
}

/// Per-lint level configuration: registry defaults plus overrides.
///
/// ```
/// use casekit_analysis::{Level, LintCode, LintConfig};
/// let config = LintConfig::new().with_level(LintCode::RedundantPremise, Level::Deny);
/// assert_eq!(config.level(LintCode::RedundantPremise), Level::Deny);
/// assert_eq!(config.level(LintCode::UnreachableNode), Level::Warn);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    overrides: BTreeMap<LintCode, Level>,
}

impl LintConfig {
    /// Registry defaults, no overrides.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every lint at [`Level::Deny`] — the configuration CI uses to hold
    /// an example corpus to zero diagnostics.
    pub fn deny_all() -> Self {
        let mut config = Self::new();
        for &code in LintCode::ALL {
            config.set(code, Level::Deny);
        }
        config
    }

    /// Every lint at [`Level::Allow`] — a base for opting in to a few.
    pub fn allow_all() -> Self {
        let mut config = Self::new();
        for &code in LintCode::ALL {
            config.set(code, Level::Allow);
        }
        config
    }

    /// Sets the level for one lint.
    pub fn set(&mut self, code: LintCode, level: Level) {
        self.overrides.insert(code, level);
    }

    /// Builder-style [`set`](Self::set).
    pub fn with_level(mut self, code: LintCode, level: Level) -> Self {
        self.set(code, level);
        self
    }

    /// The effective level for `code` (override, else registry default).
    pub fn level(&self, code: LintCode) -> Level {
        self.overrides
            .get(&code)
            .copied()
            .unwrap_or(code.descriptor().default_level)
    }
}

/// One finding: a stable code, a severity, the node it anchors to, any
/// related nodes, a human-readable message, and an optional fix-it hint.
///
/// `primary` is `None` only for findings with no node anchor (header
/// syntax errors, trailing input, …). Diagnostics raised from source
/// text — the `CK2xx` family, and graph lints routed through
/// [`crate::check_source`] — additionally carry a byte `span` into the
/// source they were raised from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// Severity derived from the configured level.
    pub severity: Severity,
    /// The node the finding anchors to.
    pub primary: Option<NodeId>,
    /// Other nodes involved (cycle members, the shadowed context, …).
    pub related: Vec<NodeId>,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the pass can tell.
    pub hint: Option<String>,
    /// Byte span into the source text this finding was raised from.
    /// `None` when the diagnostic came from a pre-built [`Argument`]
    /// with no source attached.
    ///
    /// [`Argument`]: casekit_core::Argument
    pub span: Option<Span>,
}

impl Diagnostic {
    /// Canonical ordering key: code, then primary node id, then message
    /// — the deterministic order [`crate::lint_argument`] sorts into.
    pub(crate) fn sort_key(&self) -> (u16, &str, &str) {
        (
            self.code.number(),
            self.primary.as_ref().map_or("", |id| id.as_str()),
            &self.message,
        )
    }

    /// Renders this diagnostic with a `line:col` prefix resolved through
    /// a precomputed [`LineIndex`] over the source it was raised from.
    ///
    /// Diagnostics without a span fall back to the plain [`Display`]
    /// form.
    ///
    /// [`Display`]: fmt::Display
    ///
    /// ```
    /// use casekit_analysis::{check_source, LintConfig};
    /// use casekit_logic::LineIndex;
    /// let src = "argument \"a\" {\n  gaol g1 \"top\"\n}\n";
    /// let analysis = check_source(src, &LintConfig::new());
    /// let index = LineIndex::new(src);
    /// let first = analysis.diagnostics.first().unwrap();
    /// assert!(first.located(&index).starts_with("2:3: "));
    /// ```
    pub fn located(&self, index: &LineIndex) -> String {
        match self.span {
            Some(span) => {
                let (line, col) = index.line_col(span.start);
                format!("{line}:{col}: {self}")
            }
            None => self.to_string(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(primary) = &self.primary {
            write!(f, " (at `{primary}`")?;
            if !self.related.is_empty() {
                write!(f, "; see")?;
                for id in &self.related {
                    write!(f, " `{id}`")?;
                }
            }
            write!(f, ")")?;
        }
        if let Some(hint) = &self.hint {
            write!(f, " help: {hint}")?;
        }
        Ok(())
    }
}

/// Collects diagnostics during a run, applying the configured levels.
#[derive(Debug)]
pub(crate) struct Sink<'c> {
    config: &'c LintConfig,
    out: Vec<Diagnostic>,
}

impl<'c> Sink<'c> {
    pub(crate) fn new(config: &'c LintConfig) -> Self {
        Sink {
            config,
            out: Vec::new(),
        }
    }

    /// Emits one diagnostic unless the lint is allowed away.
    pub(crate) fn emit(
        &mut self,
        code: LintCode,
        primary: Option<NodeId>,
        related: Vec<NodeId>,
        message: String,
        hint: Option<String>,
    ) {
        let severity = match self.config.level(code) {
            Level::Allow => return,
            Level::Warn => Severity::Warning,
            Level::Deny => Severity::Error,
        };
        self.out.push(Diagnostic {
            code,
            severity,
            primary,
            related,
            message,
            hint,
            span: None,
        });
    }

    /// Emits one diagnostic anchored to a source span, unless the lint
    /// is allowed away.
    pub(crate) fn emit_at(
        &mut self,
        code: LintCode,
        primary: Option<NodeId>,
        message: String,
        hint: Option<String>,
        span: Span,
    ) {
        let severity = match self.config.level(code) {
            Level::Allow => return,
            Level::Warn => Severity::Warning,
            Level::Deny => Severity::Error,
        };
        self.out.push(Diagnostic {
            code,
            severity,
            primary,
            related: Vec::new(),
            message,
            hint,
            span: Some(span),
        });
    }

    /// The collected diagnostics, in canonical order.
    pub(crate) fn finish(mut self) -> Vec<Diagnostic> {
        self.out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_ordered() {
        assert_eq!(LintCode::UnreachableNode.as_str(), "CK001");
        assert_eq!(LintCode::QuantifierMismatch.as_str(), "CK120");
        assert_eq!(LintCode::SyntaxGeneral.as_str(), "CK201");
        assert_eq!(LintCode::InvalidStructure.as_str(), "CK205");
        let numbers: Vec<u16> = LintCode::ALL.iter().map(|c| c.number()).collect();
        let mut sorted = numbers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(numbers, sorted, "codes are unique and ascending");
    }

    #[test]
    fn parse_accepts_code_and_name() {
        assert_eq!(LintCode::parse("CK104"), Some(LintCode::RedundantPremise));
        assert_eq!(
            LintCode::parse("redundant-premise"),
            Some(LintCode::RedundantPremise)
        );
        assert_eq!(LintCode::parse("CK999"), None);
    }

    #[test]
    fn config_levels_resolve_defaults_and_overrides() {
        let config = LintConfig::new();
        assert_eq!(config.level(LintCode::SupportCycle), Level::Deny);
        assert_eq!(config.level(LintCode::RedundantPremise), Level::Warn);
        let strict = LintConfig::deny_all();
        for &code in LintCode::ALL {
            assert_eq!(strict.level(code), Level::Deny);
        }
        let lax = LintConfig::allow_all().with_level(LintCode::SupportCycle, Level::Warn);
        assert_eq!(lax.level(LintCode::SupportCycle), Level::Warn);
        assert_eq!(lax.level(LintCode::UnreachableNode), Level::Allow);
    }

    #[test]
    fn allow_suppresses_and_deny_escalates() {
        let config = LintConfig::allow_all().with_level(LintCode::UnreachableNode, Level::Deny);
        let mut sink = Sink::new(&config);
        sink.emit(
            LintCode::UnreachableNode,
            Some(NodeId::new("g1")),
            vec![],
            "x".into(),
            None,
        );
        sink.emit(
            LintCode::SupportCycle,
            Some(NodeId::new("g2")),
            vec![],
            "y".into(),
            None,
        );
        let out = sink.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Error);
    }

    #[test]
    fn diagnostics_render_with_anchor_and_hint() {
        let d = Diagnostic {
            code: LintCode::DuplicateEvidence,
            severity: Severity::Warning,
            primary: Some(NodeId::new("e1")),
            related: vec![NodeId::new("e2")],
            message: "duplicate".into(),
            hint: Some("merge them".into()),
            span: None,
        };
        let rendered = d.to_string();
        assert!(rendered.contains("warning[CK005]"));
        assert!(rendered.contains("`e1`"));
        assert!(rendered.contains("`e2`"));
        assert!(rendered.contains("help: merge them"));
    }

    #[test]
    fn level_round_trips_through_strings() {
        for level in [Level::Allow, Level::Warn, Level::Deny] {
            assert_eq!(level.to_string().parse::<Level>(), Ok(level));
        }
        assert!("loud".parse::<Level>().is_err());
    }

    #[test]
    fn descriptors_agree_with_registry() {
        for &code in LintCode::ALL {
            let d = code.descriptor();
            assert_eq!(d.code, code);
            assert_eq!(LintCode::parse(d.name), Some(code));
            assert!(!d.summary.is_empty());
        }
    }
}
