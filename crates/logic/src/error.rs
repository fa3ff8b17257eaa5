//! Shared error types for the logic substrates.
//!
//! The parsing side of the toolkit — propositional formulas, LTL
//! formulas, and the `.case` DSL in `casekit-core` — reports failures
//! through one typed family: [`SyntaxError`], a structured record of
//! *what kind* of thing went wrong ([`SyntaxErrorKind`]), *where*
//! ([`Span`]), what the parser *expected* and *found*, and an optional
//! fix-it hint. [`ParseError`] is an alias for [`SyntaxError`]: the
//! historical constructor ([`SyntaxError::new`]) and fields
//! (`message`, `span`) are preserved, so the typed family is a strict
//! extension of the old message-and-span errors.
//!
//! [`LineIndex`] precomputes the line table of a source string so
//! errors and diagnostics can render human-locatable `line:col`
//! positions ([`SyntaxError::located`]) without re-scanning the source
//! for every lookup.

use std::fmt;

/// A half-open byte range into a source string, used to locate parse errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Span {
    /// Byte offset of the first character of the offending region.
    pub start: usize,
    /// Byte offset one past the last character of the offending region.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// A zero-width span at `pos`, used for end-of-input errors.
    pub fn point(pos: usize) -> Self {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// The span shifted right by `delta` bytes — used to re-anchor an
    /// error produced against an embedded sub-string (a formula payload
    /// inside a `.case` file) into the enclosing source.
    pub fn offset(self, delta: usize) -> Self {
        Span {
            start: self.start + delta,
            end: self.end + delta,
        }
    }

    /// Number of bytes the span covers.
    pub fn len(self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span covers zero bytes (an end-of-input point).
    pub fn is_empty(self) -> bool {
        self.end <= self.start
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// What class of syntax problem a [`SyntaxError`] reports.
///
/// The kinds are deliberately coarse — one per *recovery strategy and
/// diagnostic code*, not one per grammar production — so downstream
/// tooling (the CaseLint `CK2xx` codes, editor integrations) can key
/// on them without tracking every parser change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyntaxErrorKind {
    /// A character no token can start with.
    UnexpectedChar,
    /// A string literal that never closes.
    UnterminatedString,
    /// A well-lexed token in a position the grammar does not allow.
    UnexpectedToken,
    /// The input ended where the grammar required more.
    UnexpectedEof,
    /// A word appeared where a known keyword was required.
    UnknownKeyword,
    /// An embedded payload (a `formal`/`temporal` formula inside a
    /// `.case` file) failed to parse.
    BadPayload,
    /// The parsed text is structurally invalid (duplicate ids,
    /// dangling references, misplaced constructs).
    Structure,
    /// Well-formed input followed by trailing garbage.
    TrailingInput,
    /// Nesting deeper than [`MAX_DEPTH`](crate::MAX_DEPTH): a formula
    /// operator whose node would be taller, or a `.case` block that would
    /// open one more level.
    TooDeep,
    /// Errors constructed from a bare message ([`SyntaxError::new`]).
    Other,
}

impl fmt::Display for SyntaxErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SyntaxErrorKind::UnexpectedChar => "unexpected-char",
            SyntaxErrorKind::UnterminatedString => "unterminated-string",
            SyntaxErrorKind::UnexpectedToken => "unexpected-token",
            SyntaxErrorKind::UnexpectedEof => "unexpected-eof",
            SyntaxErrorKind::UnknownKeyword => "unknown-keyword",
            SyntaxErrorKind::BadPayload => "bad-payload",
            SyntaxErrorKind::Structure => "structure",
            SyntaxErrorKind::TrailingInput => "trailing-input",
            SyntaxErrorKind::TooDeep => "too-deep",
            SyntaxErrorKind::Other => "other",
        })
    }
}

/// A typed syntax error: kind, location, expected/found, and hint.
///
/// Produced by the propositional, LTL, and `.case` DSL parsers.
/// `message` is always populated with the rendered human-readable
/// description (so string-matching callers keep working); the
/// structured fields carry the same information for tooling that wants
/// to render "expected X, found Y" fix-its itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    /// The error class (drives recovery and diagnostic codes).
    pub kind: SyntaxErrorKind,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Where in the input the problem was detected.
    pub span: Span,
    /// What the parser was looking for, when it can tell.
    pub expected: Option<String>,
    /// What it found instead (`None` when the input simply ended).
    pub found: Option<String>,
    /// How to fix it, when the parser can tell.
    pub hint: Option<String>,
}

/// The historical name for [`SyntaxError`]. Every parser in the
/// workspace returns this alias; the two names are the same type.
pub type ParseError = SyntaxError;

impl SyntaxError {
    /// Creates a parse error with the given message and location
    /// (kind [`SyntaxErrorKind::Other`], no structured fields).
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        SyntaxError {
            kind: SyntaxErrorKind::Other,
            message: message.into(),
            span,
            expected: None,
            found: None,
            hint: None,
        }
    }

    /// Creates a parse error of an explicit kind.
    pub fn with_kind(kind: SyntaxErrorKind, message: impl Into<String>, span: Span) -> Self {
        SyntaxError {
            kind,
            ..SyntaxError::new(message, span)
        }
    }

    /// Creates an "expected X, found Y" error. `found: None` means the
    /// input ended ([`SyntaxErrorKind::UnexpectedEof`]); otherwise the
    /// kind is [`SyntaxErrorKind::UnexpectedToken`].
    pub fn expected_found(expected: impl Into<String>, found: Option<String>, span: Span) -> Self {
        let expected = expected.into();
        let (kind, message) = match &found {
            Some(found) => (
                SyntaxErrorKind::UnexpectedToken,
                format!("expected {expected}, found {found}"),
            ),
            None => (
                SyntaxErrorKind::UnexpectedEof,
                format!("expected {expected}, found end of input"),
            ),
        };
        SyntaxError {
            kind,
            message,
            span,
            expected: Some(expected),
            found,
            hint: None,
        }
    }

    /// Attaches a fix-it hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// The error re-anchored `delta` bytes to the right — used when an
    /// embedded sub-string (a formula payload) was parsed standalone
    /// and the error must locate into the enclosing source.
    pub fn offset(mut self, delta: usize) -> Self {
        self.span = self.span.offset(delta);
        self
    }

    /// A display adapter rendering the error at `line:col` resolved
    /// through a precomputed [`LineIndex`] — human-locatable without
    /// the CLI's caret excerpts.
    ///
    /// ```
    /// use casekit_logic::{LineIndex, ParseError, Span};
    /// let src = "p &\n q @";
    /// let index = LineIndex::new(src);
    /// let err = ParseError::new("unexpected character `@`", Span::new(7, 8));
    /// assert_eq!(err.located(&index).to_string(), "2:4: unexpected character `@`");
    /// ```
    pub fn located<'a>(&'a self, index: &'a LineIndex) -> Located<'a> {
        Located { error: self, index }
    }
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)?;
        if let Some(hint) = &self.hint {
            write!(f, " (help: {hint})")?;
        }
        Ok(())
    }
}

impl std::error::Error for SyntaxError {}

/// [`SyntaxError`] rendered at a `line:col` position (see
/// [`SyntaxError::located`]).
#[derive(Debug, Clone, Copy)]
pub struct Located<'a> {
    error: &'a SyntaxError,
    index: &'a LineIndex,
}

impl fmt::Display for Located<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (line, col) = self.index.line_col(self.error.span.start);
        write!(f, "{line}:{col}: {}", self.error.message)?;
        if let Some(hint) = &self.error.hint {
            write!(f, " (help: {hint})")?;
        }
        Ok(())
    }
}

/// A precomputed table of line-start byte offsets for one source
/// string, answering byte-offset → `line:col` lookups in O(log lines)
/// — so rendering a thousand diagnostics does not re-scan the source a
/// thousand times.
///
/// Lines and columns are 1-based; columns count bytes from the line
/// start (identical to character columns for ASCII sources).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineIndex {
    /// Byte offset of the first byte of each line (always starts `[0]`).
    line_starts: Vec<usize>,
    /// Total length of the indexed source, in bytes.
    len: usize,
}

impl LineIndex {
    /// Builds the line table for `src` in one pass.
    pub fn new(src: &str) -> Self {
        let mut line_starts = vec![0];
        for (i, byte) in src.bytes().enumerate() {
            if byte == b'\n' {
                line_starts.push(i + 1);
            }
        }
        LineIndex {
            line_starts,
            len: src.len(),
        }
    }

    /// The 1-based `(line, column)` of a byte offset. Offsets past the
    /// end of the source resolve to one past the last line's content
    /// (where end-of-input errors point).
    pub fn line_col(&self, byte: usize) -> (usize, usize) {
        let byte = byte.min(self.len);
        let line = match self.line_starts.binary_search(&byte) {
            Ok(exact) => exact,
            Err(insert) => insert - 1,
        };
        (line + 1, byte - self.line_starts[line] + 1)
    }

    /// The byte span of 1-based `line`'s content (newline excluded), or
    /// `None` if the source has no such line.
    pub fn line_span(&self, line: usize) -> Option<Span> {
        let start = *self.line_starts.get(line.checked_sub(1)?)?;
        let end = self.line_starts.get(line).map_or(self.len, |next| next - 1);
        Some(Span::new(start, end.max(start)))
    }

    /// Number of lines in the indexed source (at least 1).
    pub fn lines(&self) -> usize {
        self.line_starts.len()
    }
}

/// Errors produced by logic-engine operations other than parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// A proof step referenced a line that does not exist (or is not yet
    /// available at that point in the proof).
    BadLineReference {
        /// The proof line making the reference.
        at_line: usize,
        /// The referenced line number.
        referenced: usize,
    },
    /// A proof step's cited rule does not justify its formula.
    InvalidStep {
        /// The offending proof line (1-based, as printed).
        line: usize,
        /// Why the step is not justified.
        reason: String,
    },
    /// A symbol was used in a way inconsistent with its declared sort.
    SortViolation {
        /// The offending symbol.
        symbol: String,
        /// Description of the clash.
        detail: String,
    },
    /// A name was referenced but never declared.
    Undeclared {
        /// The undeclared name.
        name: String,
    },
    /// An enumeration-based procedure (truth table, model listing) was
    /// asked to cover more atoms than it can enumerate.
    TooManyAtoms {
        /// How many atoms the formula has.
        atoms: usize,
        /// The procedure's limit.
        limit: usize,
    },
    /// An argumentation-framework operation referenced an argument id
    /// that the framework never allocated.
    UnknownArgument {
        /// The out-of-range argument id.
        id: usize,
        /// How many arguments the framework holds (valid ids are
        /// `0..arguments`).
        arguments: usize,
    },
    /// A Kripke-structure operation referenced a state id that the
    /// structure never allocated.
    UnknownState {
        /// The out-of-range state id.
        id: usize,
        /// How many states the structure holds (valid ids are
        /// `0..states`).
        states: usize,
    },
    /// A model-checking run was asked for on a Kripke structure with no
    /// initial states, so there is nothing to check.
    NoInitialState,
    /// An operation that requires a ground (variable-free) term was
    /// given a term containing variables.
    NonGroundTerm {
        /// Rendering of the offending term.
        term: String,
    },
    /// An axiom's conclusion mentions a variable that its trigger does
    /// not bind, so applying the axiom could produce non-ground facts.
    UnguardedVariable {
        /// The unbound variable name.
        variable: String,
        /// Rendering of the offending axiom.
        axiom: String,
    },
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::BadLineReference {
                at_line,
                referenced,
            } => {
                write!(
                    f,
                    "line {at_line} references line {referenced}, which is not available"
                )
            }
            LogicError::InvalidStep { line, reason } => {
                write!(f, "invalid step at line {line}: {reason}")
            }
            LogicError::SortViolation { symbol, detail } => {
                write!(f, "sort violation on `{symbol}`: {detail}")
            }
            LogicError::Undeclared { name } => write!(f, "`{name}` was not declared"),
            LogicError::TooManyAtoms { atoms, limit } => {
                write!(
                    f,
                    "{atoms} atoms exceed the enumeration limit of {limit}; \
                     use the solver for deciding"
                )
            }
            LogicError::UnknownArgument { id, arguments } => {
                write!(
                    f,
                    "argument id {id} is out of range for a framework of \
                     {arguments} argument(s)"
                )
            }
            LogicError::UnknownState { id, states } => {
                write!(
                    f,
                    "state id {id} is out of range for a structure of \
                     {states} state(s)"
                )
            }
            LogicError::NoInitialState => {
                write!(f, "the Kripke structure has no initial states")
            }
            LogicError::NonGroundTerm { term } => {
                write!(
                    f,
                    "`{term}` contains variables where a ground term is required"
                )
            }
            LogicError::UnguardedVariable { variable, axiom } => {
                write!(
                    f,
                    "variable `{variable}` in `{axiom}` is not bound by the \
                     axiom's trigger"
                )
            }
        }
    }
}

impl std::error::Error for LogicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_display() {
        assert_eq!(Span::new(3, 7).to_string(), "3..7");
        assert_eq!(Span::point(5).to_string(), "5..5");
    }

    #[test]
    fn span_offset_and_len() {
        let s = Span::new(3, 7).offset(10);
        assert_eq!(s, Span::new(13, 17));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(Span::point(4).is_empty());
    }

    #[test]
    fn parse_error_display_mentions_span_and_message() {
        let e = ParseError::new("unexpected token", Span::new(1, 2));
        let s = e.to_string();
        assert!(s.contains("1..2"));
        assert!(s.contains("unexpected token"));
        assert_eq!(e.kind, SyntaxErrorKind::Other);
    }

    #[test]
    fn expected_found_renders_both_arms() {
        let e = SyntaxError::expected_found("`}`", Some("`goal`".into()), Span::new(4, 8));
        assert_eq!(e.kind, SyntaxErrorKind::UnexpectedToken);
        assert_eq!(e.message, "expected `}`, found `goal`");
        assert_eq!(e.expected.as_deref(), Some("`}`"));
        assert_eq!(e.found.as_deref(), Some("`goal`"));

        let e = SyntaxError::expected_found("a formula", None, Span::point(9));
        assert_eq!(e.kind, SyntaxErrorKind::UnexpectedEof);
        assert_eq!(e.message, "expected a formula, found end of input");
        assert!(e.found.is_none());
    }

    #[test]
    fn hints_render_in_both_displays() {
        let src = "goal g1\n  x";
        let index = LineIndex::new(src);
        let e = SyntaxError::with_kind(
            SyntaxErrorKind::UnknownKeyword,
            "unknown node kind `x`",
            Span::new(10, 11),
        )
        .with_hint("try `goal`");
        assert!(e.to_string().contains("help: try `goal`"));
        let located = e.located(&index).to_string();
        assert!(located.starts_with("2:3: "), "{located}");
        assert!(located.contains("help: try `goal`"));
    }

    #[test]
    fn line_index_lookups() {
        let src = "ab\ncde\n\nf";
        let index = LineIndex::new(src);
        assert_eq!(index.lines(), 4);
        assert_eq!(index.line_col(0), (1, 1));
        assert_eq!(index.line_col(1), (1, 2));
        assert_eq!(index.line_col(3), (2, 1));
        assert_eq!(index.line_col(5), (2, 3));
        assert_eq!(index.line_col(7), (3, 1));
        assert_eq!(index.line_col(8), (4, 1));
        // Past the end clamps to one past the final byte.
        assert_eq!(index.line_col(999), (4, 2));
        assert_eq!(index.line_span(1), Some(Span::new(0, 2)));
        assert_eq!(index.line_span(2), Some(Span::new(3, 6)));
        assert_eq!(index.line_span(3), Some(Span::new(7, 7)));
        assert_eq!(index.line_span(4), Some(Span::new(8, 9)));
        assert_eq!(index.line_span(5), None);
        assert_eq!(index.line_span(0), None);
    }

    #[test]
    fn line_index_empty_source() {
        let index = LineIndex::new("");
        assert_eq!(index.lines(), 1);
        assert_eq!(index.line_col(0), (1, 1));
        assert_eq!(index.line_span(1), Some(Span::new(0, 0)));
    }

    #[test]
    fn error_offset_reanchors() {
        let e = SyntaxError::expected_found("`)`", None, Span::point(3)).offset(40);
        assert_eq!(e.span, Span::point(43));
    }

    #[test]
    fn logic_error_display() {
        let e = LogicError::InvalidStep {
            line: 4,
            reason: "Detach needs an implication".into(),
        };
        assert!(e.to_string().contains("line 4"));
        let e = LogicError::SortViolation {
            symbol: "bank".into(),
            detail: "used as both Institution and Landform".into(),
        };
        assert!(e.to_string().contains("bank"));
        let e = LogicError::Undeclared { name: "x".into() };
        assert!(e.to_string().contains("x"));
        let e = LogicError::BadLineReference {
            at_line: 6,
            referenced: 9,
        };
        assert!(e.to_string().contains('9'));
        let e = LogicError::TooManyAtoms {
            atoms: 30,
            limit: 24,
        };
        assert!(e.to_string().contains("30"));
        assert!(e.to_string().contains("24"));
        let e = LogicError::UnknownArgument {
            id: 17,
            arguments: 4,
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains('4'));
        let e = LogicError::UnknownState { id: 9, states: 3 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('3'));
        let e = LogicError::NoInitialState;
        assert!(e.to_string().contains("initial"));
        let e = LogicError::NonGroundTerm {
            term: "tap(X, bob)".into(),
        };
        assert!(e.to_string().contains("tap(X, bob)"));
        let e = LogicError::UnguardedVariable {
            variable: "W".into(),
            axiom: "tap(U) initiates seen(W)".into(),
        };
        assert!(e.to_string().contains('W'));
        assert!(e.to_string().contains("seen(W)"));
    }
}
