//! Per-client token quotas (`auth=tokens.toml`).
//!
//! The daemon is open-access by default; handing [`crate::ServeConfig`]
//! a [`TokenBook`] turns on admission control for `POST /jobs`: requests
//! must carry a known token (`Authorization: Bearer <token>` or
//! `X-Pom-Token: <token>`, answered with 401 otherwise), and each token's
//! quotas bound how much of the daemon it can hold at once — rejected
//! submits answer 429 naming the offending bound. The token file is the
//! same TOML subset every other surface uses ([`pom_sweep::parse_toml`]):
//!
//! ```toml
//! [tokens.alice]
//! max_active_jobs = 2      # running jobs at once (0 = unlimited)
//! max_total_points = 1000  # grid points across running jobs (0 = unlimited)
//!
//! [tokens.bob]             # listed with no bounds: authenticated, unlimited
//! ```
//!
//! Accounting is over *running* jobs, so quota is returned as jobs
//! finish, and each job's owning token is persisted in its spool meta
//! file — a daemon restart recovers the books along with the jobs.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use pom_sweep::{parse_toml, Value};

/// Bounds for one token. Zero means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TokenQuota {
    /// Running jobs this token may hold at once.
    pub max_active_jobs: usize,
    /// Grid points summed across this token's running jobs (including
    /// the submission being checked).
    pub max_total_points: usize,
}

/// The parsed token file: token → quota.
#[derive(Debug, Clone, Default)]
pub struct TokenBook {
    tokens: BTreeMap<String, TokenQuota>,
}

impl TokenBook {
    /// Parse the `tokens.toml` format (see the module docs).
    pub fn parse(text: &str) -> Result<TokenBook, String> {
        let root = parse_toml(text).map_err(|e| e.to_string())?;
        let Some(Value::Table(tokens)) = root.get("tokens") else {
            return Err("token file needs a [tokens.<name>] table per token".into());
        };
        let mut book = TokenBook::default();
        for (name, spec) in tokens {
            let Value::Table(fields) = spec else {
                return Err(format!(
                    "token `{name}` must be a table ([tokens.{name}]), got a scalar"
                ));
            };
            let mut quota = TokenQuota::default();
            for (key, value) in fields {
                let bound = value.as_i64().filter(|v| *v >= 0).ok_or_else(|| {
                    format!("token `{name}`: `{key}` must be a non-negative integer")
                })? as usize;
                match key.as_str() {
                    "max_active_jobs" => quota.max_active_jobs = bound,
                    "max_total_points" => quota.max_total_points = bound,
                    other => {
                        return Err(format!(
                            "token `{name}`: unknown key `{other}` \
                             (allowed: max_active_jobs, max_total_points)"
                        ));
                    }
                }
            }
            book.tokens.insert(name.clone(), quota);
        }
        if book.tokens.is_empty() {
            return Err("token file defines no tokens; remove auth= for open access".into());
        }
        Ok(book)
    }

    /// Load and parse a token file.
    pub fn from_file(path: impl AsRef<Path>) -> io::Result<TokenBook> {
        let text = std::fs::read_to_string(path.as_ref())?;
        Self::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.as_ref().display()),
            )
        })
    }

    /// The quota for a token, `None` when the token is unknown.
    pub(crate) fn get(&self, token: &str) -> Option<TokenQuota> {
        self.tokens.get(token).copied()
    }

    /// Number of tokens in the book.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no tokens are defined (never the case for a parsed book).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_quotas_and_defaults() {
        let book = TokenBook::parse(
            "[tokens.alice]\nmax_active_jobs = 2\nmax_total_points = 100\n[tokens.bob]\n",
        )
        .unwrap();
        assert_eq!(book.len(), 2);
        assert_eq!(
            book.get("alice"),
            Some(TokenQuota {
                max_active_jobs: 2,
                max_total_points: 100
            })
        );
        // Listed with no bounds: authenticated and unlimited.
        assert_eq!(book.get("bob"), Some(TokenQuota::default()));
        assert_eq!(book.get("mallory"), None);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        let err = TokenBook::parse("[tokens.a]\nmax_jobs = 1\n").unwrap_err();
        assert!(err.contains("unknown key `max_jobs`"), "{err}");
        let err = TokenBook::parse("[tokens.a]\nmax_active_jobs = -1\n").unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = TokenBook::parse("just_a_key = 1\n").unwrap_err();
        assert!(err.contains("[tokens"), "{err}");
        let err = TokenBook::parse("").unwrap_err();
        assert!(err.contains("[tokens"), "{err}");
    }
}
