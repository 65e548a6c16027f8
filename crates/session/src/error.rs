//! The single error type of the `Session` API.
//!
//! Every layer of the stack has its own error type — [`ParseError`] from
//! the lexer/parser, [`AnnotateError`] from the §2 annotation pass,
//! [`SchemaError`] from DDL, [`EvalError`] from typing and evaluation —
//! and before `Session` existed every consumer had to juggle all four.
//! [`SqlsemError`] wraps each of them together with the SQL text and the
//! byte span of the statement that caused it, so a session returns one
//! error type whose `Display` can always point back at the offending
//! SQL.

use std::fmt;

use sqlsem_core::{EvalError, SchemaError, Span};
use sqlsem_parser::{AnnotateError, ParseError};

/// Any failure a [`Session`](crate::Session) can report: one
/// `#[non_exhaustive]` enum with a variant per pipeline stage, each
/// carrying the SQL source it was executing and the span of the
/// offending statement within it.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SqlsemError {
    /// The text did not lex or parse.
    Parse {
        /// The parser's error (with its own byte offset).
        source: ParseError,
        /// The SQL source being executed.
        sql: String,
        /// Span of the offending statement within `sql`.
        span: Span,
    },
    /// A query did not resolve against the schema (§2 annotation).
    Annotate {
        /// The annotation error.
        source: AnnotateError,
        /// The SQL source being executed.
        sql: String,
        /// Span of the offending statement within `sql`.
        span: Span,
    },
    /// A DDL statement violated schema well-formedness (§2: distinct
    /// non-empty attributes, unique table names).
    Schema {
        /// The schema error.
        source: SchemaError,
        /// The SQL source being executed.
        sql: String,
        /// Span of the offending statement within `sql`.
        span: Span,
    },
    /// Typing or evaluation failed (the errors of Figures 4–7 and the
    /// dialects' static checks).
    Eval {
        /// The evaluation error.
        source: EvalError,
        /// The SQL source being executed.
        sql: String,
        /// Span of the offending statement within `sql`.
        span: Span,
    },
    /// The session was configured inconsistently: a shared database
    /// combined with a seed database (a
    /// [`SharedDatabase`](crate::SharedDatabase) is seeded when it is
    /// created, not per connection).
    Config {
        /// What was inconsistent.
        message: String,
    },
    /// The durable storage layer failed: an I/O error, a corrupt
    /// checkpoint file, or a WAL record that no longer replays. Carries
    /// the rendered storage error — the underlying `io::Error` is
    /// neither `Clone` nor `PartialEq`, so the message is kept rather
    /// than the source.
    Storage {
        /// The rendered storage error.
        message: String,
    },
}

impl SqlsemError {
    pub(crate) fn parse(source: ParseError, sql: impl Into<String>) -> Self {
        let sql = sql.into();
        let span = Span::new(source.offset.min(sql.len()), sql.len());
        SqlsemError::Parse { source, sql, span }
    }

    pub(crate) fn annotate(source: AnnotateError, sql: impl Into<String>, span: Span) -> Self {
        SqlsemError::Annotate { source, sql: sql.into(), span }
    }

    pub(crate) fn schema(source: SchemaError, sql: impl Into<String>, span: Span) -> Self {
        SqlsemError::Schema { source, sql: sql.into(), span }
    }

    pub(crate) fn eval(source: EvalError, sql: impl Into<String>, span: Span) -> Self {
        SqlsemError::Eval { source, sql: sql.into(), span }
    }

    pub(crate) fn storage_failure(source: impl fmt::Display) -> Self {
        SqlsemError::Storage { message: source.to_string() }
    }

    pub(crate) fn config(message: impl Into<String>) -> Self {
        SqlsemError::Config { message: message.into() }
    }

    /// The SQL source the session was executing when the error arose
    /// (empty for storage errors, which may arise outside any
    /// statement — at open or checkpoint time).
    pub fn sql(&self) -> &str {
        match self {
            SqlsemError::Parse { sql, .. }
            | SqlsemError::Annotate { sql, .. }
            | SqlsemError::Schema { sql, .. }
            | SqlsemError::Eval { sql, .. } => sql,
            SqlsemError::Storage { .. } | SqlsemError::Config { .. } => "",
        }
    }

    /// Byte span of the offending statement within [`SqlsemError::sql`].
    pub fn span(&self) -> Span {
        match self {
            SqlsemError::Parse { span, .. }
            | SqlsemError::Annotate { span, .. }
            | SqlsemError::Schema { span, .. }
            | SqlsemError::Eval { span, .. } => *span,
            SqlsemError::Storage { .. } | SqlsemError::Config { .. } => Span::new(0, 0),
        }
    }

    /// The offending statement's text, if the span is in bounds.
    pub fn statement(&self) -> Option<&str> {
        self.span().slice(self.sql()).map(str::trim)
    }

    /// The wrapped [`EvalError`], when the failure came from typing or
    /// evaluation — what the §4 comparison criterion inspects.
    pub fn eval_error(&self) -> Option<&EvalError> {
        match self {
            SqlsemError::Eval { source, .. } => Some(source),
            _ => None,
        }
    }

    /// `true` iff this is the ambiguous-reference error of the
    /// Standard/Oracle (Example 2) — the error class the §4 harness
    /// treats as agreement when both sides raise it.
    pub fn is_ambiguity(&self) -> bool {
        self.eval_error().is_some_and(EvalError::is_ambiguity)
    }
}

impl fmt::Display for SqlsemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Parse errors re-render against the source for the caret.
            SqlsemError::Parse { source, sql, .. } => f.write_str(&source.render(sql)),
            SqlsemError::Annotate { source, .. } => {
                write!(f, "annotation error: {source}")?;
                self.write_statement(f)
            }
            SqlsemError::Schema { source, .. } => {
                write!(f, "schema error: {source}")?;
                self.write_statement(f)
            }
            SqlsemError::Eval { source, .. } => {
                write!(f, "evaluation error: {source}")?;
                self.write_statement(f)
            }
            SqlsemError::Storage { message } => write!(f, "storage error: {message}"),
            SqlsemError::Config { message } => write!(f, "configuration error: {message}"),
        }
    }
}

impl SqlsemError {
    fn write_statement(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(stmt) = self.statement() {
            if !stmt.is_empty() {
                write!(f, "\n  in: {stmt}")?;
                // Only point into the script when the statement is a
                // proper part of it.
                let whole = self.sql().trim().trim_end_matches(';').trim_end();
                if stmt != whole {
                    write!(f, "\n  ({} of the script)", self.span())?;
                }
            }
        }
        Ok(())
    }
}

impl std::error::Error for SqlsemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqlsemError::Parse { source, .. } => Some(source),
            SqlsemError::Annotate { source, .. } => Some(source),
            SqlsemError::Schema { source, .. } => Some(source),
            SqlsemError::Eval { source, .. } => Some(source),
            SqlsemError::Storage { .. } | SqlsemError::Config { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn parse_errors_render_with_a_caret() {
        let sql = "SELECT A FROM WHERE";
        let e = sqlsem_parser::parse_statement(sql).unwrap_err();
        let err = SqlsemError::parse(e, sql);
        let text = err.to_string();
        assert!(text.contains("parse error"), "{text}");
        assert!(text.contains('^'), "{text}");
        assert!(err.source().is_some());
        assert!(err.eval_error().is_none());
    }

    #[test]
    fn eval_errors_point_at_their_statement() {
        let sql = "CREATE TABLE T (A); SELECT A FROM T";
        let inner = EvalError::UnknownTable(sqlsem_core::Name::new("T"));
        let err = SqlsemError::eval(inner.clone(), sql, Span::new(20, 35));
        assert_eq!(err.statement(), Some("SELECT A FROM T"));
        assert_eq!(err.eval_error(), Some(&inner));
        let text = err.to_string();
        assert!(text.contains("unknown base table"), "{text}");
        assert!(text.contains("in: SELECT A FROM T"), "{text}");
    }

    #[test]
    fn ambiguity_classification_delegates() {
        let amb = EvalError::AmbiguousReference(sqlsem_core::FullName::new("T", "A"));
        assert!(SqlsemError::eval(amb, "q", Span::of("q")).is_ambiguity());
        let schema_err = SchemaError::UnknownTable(sqlsem_core::Name::new("R"));
        assert!(!SqlsemError::schema(schema_err, "q", Span::of("q")).is_ambiguity());
    }
}
