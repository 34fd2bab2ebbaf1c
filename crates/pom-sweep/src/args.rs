//! The shared `key=value` argument error.
//!
//! Both front ends of the toolkit accept the same flat argument surface:
//! the CLI takes `pom simulate n=40 sigma=3` words, the campaign daemon
//! takes `?follow=1&from=3` query strings and `pom serve threads=4`
//! options. The command registry ([`crate::registry`]) parses all of
//! them and reports every rejection as one [`ArgError`] naming the
//! offending key, so the CLI and the HTTP API reject *identical* inputs
//! with identical wording.

use std::fmt;

/// Typed-argument errors with the offending key for actionable messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An argument was not of the form `key=value`.
    Malformed(String),
    /// A key appeared twice.
    Duplicate(String),
    /// A required key is missing.
    Missing(&'static str),
    /// A value failed to parse.
    BadValue {
        /// The key.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A key is not accepted by the command (registry-driven parsing).
    Unknown {
        /// The key as given.
        key: String,
        /// Pre-rendered list of accepted keys (`a, b, c`), for the message.
        accepted: String,
        /// A close accepted key, when one is within edit distance 2.
        suggestion: Option<String>,
    },
    /// A positional argument beyond what the command declares.
    UnexpectedPositional(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Malformed(arg) => write!(f, "`{arg}` is not of the form key=value"),
            ArgError::Duplicate(key) => write!(f, "key `{key}` given twice"),
            ArgError::Missing(key) => write!(f, "missing required key `{key}`"),
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "`{key}={value}`: expected {expected}")
            }
            ArgError::Unknown {
                key,
                accepted,
                suggestion,
            } => {
                write!(f, "unknown key `{key}`")?;
                if let Some(s) = suggestion {
                    write!(f, "; did you mean `{s}`?")?;
                }
                if accepted.is_empty() {
                    write!(f, " (no keys accepted)")
                } else {
                    write!(f, " (accepted: {accepted})")
                }
            }
            ArgError::UnexpectedPositional(arg) => {
                write!(f, "unexpected positional argument `{arg}`")
            }
        }
    }
}

impl std::error::Error for ArgError {}
