//! Subcommand dispatch, generated from the command registry.
//!
//! Each submodule owns one command: it binds a [`CommandSpec`] from
//! [`pom_sweep::registry::defs`] to a `run(&Parsed) -> Result<String,
//! CliError>` function. The dispatcher below is the only list of that
//! binding, and [`commands`] is pinned against the registry by a
//! structural test — a command added to one side without the other
//! fails the build's test run, not a user at the terminal.

mod fig2;
mod help;
mod potentials;
mod scaling;
mod serve;
mod sigma_sweep;
mod simulate;
mod sweep;
mod wave_sweep;

use std::fmt;

use pom_sweep::registry::{toolkit, CommandSpec, Parsed};
use pom_sweep::ArgError;

/// One command's entry point.
pub(crate) type RunFn = fn(&Parsed) -> Result<String, CliError>;

/// Every command: its registry spec next to its implementation. Order
/// matches the registry's help order (pinned by a test).
pub fn commands() -> &'static [(&'static CommandSpec, RunFn)] {
    use pom_sweep::registry::defs;
    &[
        (&defs::POTENTIALS, potentials::run),
        (&defs::SCALING, scaling::run),
        (&defs::FIG2, fig2::run),
        (&defs::SIMULATE, simulate::run),
        (&defs::SWEEP, sweep::run),
        (&defs::SERVE, serve::run),
        (&defs::WAVE_SWEEP, wave_sweep::run),
        (&defs::SIGMA_SWEEP, sigma_sweep::run),
        (&defs::HELP, help::run),
    ]
}

/// CLI errors: configuration problems or failures in the underlying runs.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand (with a "did you mean" when one is close).
    UnknownCommand {
        /// The command word as given.
        name: String,
        /// A registered command within edit distance 2, if any.
        suggestion: Option<&'static str>,
    },
    /// Bad `key=value` arguments, already rendered with the offending
    /// key's doc line ([`CommandSpec::explain`]).
    Args(String),
    /// Bad `key=value` arguments (semantic checks past the parser).
    Config(ArgError),
    /// A model/simulator run failed.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand { name, suggestion } => {
                write!(f, "unknown command `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, "; did you mean `{s}`?")?;
                }
                write!(f, " try `pom help`")
            }
            CliError::Args(msg) => write!(f, "configuration error: {msg}"),
            CliError::Config(e) => write!(f, "configuration error: {e}"),
            CliError::Run(msg) => write!(f, "run failed: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Config(e)
    }
}

impl From<pom_sweep::SweepError> for CliError {
    fn from(e: pom_sweep::SweepError) -> Self {
        CliError::Run(e.to_string())
    }
}

/// Top-level dispatch: `run_cli(["fig2", "panel=a"]) → report`.
///
/// The command word selects a [`CommandSpec`]; its generic driver parses
/// the remaining words (positionals and `key=value`, any order) into a
/// typed table, and the command's `run` renders the report. Parse
/// errors carry the registry's explanation (offending key plus its doc
/// line); an unknown command suggests the nearest registered one.
pub fn run_cli<I, S>(args: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut it = args.into_iter();
    let Some(cmd) = it.next() else {
        return Ok(help());
    };
    let cmd = cmd.as_ref();
    let rest: Vec<String> = it.map(|s| s.as_ref().to_string()).collect();
    let Some((spec, run)) = commands()
        .iter()
        .find(|(s, _)| s.name == cmd || s.aliases.contains(&cmd))
    else {
        return Err(CliError::UnknownCommand {
            name: cmd.to_string(),
            suggestion: toolkit().suggest_command(cmd),
        });
    };
    let parsed = spec
        .parse(&rest)
        .map_err(|e| CliError::Args(spec.explain(&e)))?;
    run(&parsed)
}

/// The full usage text, generated from the registry.
pub fn help() -> String {
    toolkit().help()
}
