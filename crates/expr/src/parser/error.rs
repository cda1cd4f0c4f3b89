//! Parser error reporting.

use std::error::Error;
use std::fmt;

/// A failure to parse a subscription expression.
///
/// Carries the byte offset into the input where the problem was found;
/// [`fmt::Display`] includes it, so errors read like
/// `"expected a literal value, found end of input at byte 4"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    kind: ErrorKind,
    offset: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ErrorKind {
    UnexpectedChar {
        ch: char,
    },
    UnterminatedString,
    InvalidNumber {
        text: String,
    },
    UnexpectedEof {
        expected: &'static str,
    },
    Expected {
        expected: &'static str,
        found: &'static str,
    },
    TrailingInput {
        token: &'static str,
    },
    StringOperatorNeedsString {
        op: &'static str,
    },
    TooDeep {
        limit: usize,
    },
}

impl ParseError {
    pub(crate) fn new(kind: ErrorKind, offset: usize) -> ParseError {
        ParseError { kind, offset }
    }

    /// Byte offset into the input at which parsing failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::UnexpectedChar { ch } => {
                write!(f, "unexpected character `{ch}`")?;
            }
            ErrorKind::UnterminatedString => {
                write!(f, "unterminated string literal")?;
            }
            ErrorKind::InvalidNumber { text } => {
                write!(f, "invalid numeric literal `{text}`")?;
            }
            ErrorKind::UnexpectedEof { expected } => {
                write!(f, "expected {expected}, found end of input")?;
            }
            ErrorKind::Expected { expected, found } => {
                write!(f, "expected {expected}, found {found}")?;
            }
            ErrorKind::TrailingInput { token } => {
                write!(f, "trailing input starting with {token}")?;
            }
            ErrorKind::StringOperatorNeedsString { op } => {
                write!(f, "operator `{op}` requires a string literal")?;
            }
            ErrorKind::TooDeep { limit } => {
                write!(f, "expression nested deeper than {limit} levels")?;
            }
        }
        write!(f, " at byte {}", self.offset)
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset() {
        let e = ParseError::new(ErrorKind::UnterminatedString, 7);
        assert_eq!(e.to_string(), "unterminated string literal at byte 7");
        assert_eq!(e.offset(), 7);
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ParseError>();
    }
}
