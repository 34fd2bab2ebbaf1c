//! Command-line interface to the POM toolkit — the scriptable equivalent
//! of the paper's MATLAB application (§3.2).
//!
//! Every subcommand is declared once in the command registry
//! ([`pom_sweep::registry`]): the `cmd` dispatch table binds each
//! registry [`pom_sweep::registry::CommandSpec`] to a run function that
//! receives already-validated, typed arguments
//! ([`pom_sweep::registry::Parsed`]). Help text (`pom help`,
//! `pom help <command>`, `format=json|md`), "did you mean" suggestions,
//! and error wording are all generated from the registry — there is no
//! hand-written usage block in this crate.
//!
//! Subcommands (each takes `key=value` arguments):
//!
//! | command | reproduces |
//! |---------|------------|
//! | `potentials` | Fig. 1(a): the two interaction potentials |
//! | `scaling` | Fig. 1(b): per-socket bandwidth scaling of the three kernels |
//! | `fig2` | one corner case of Fig. 2 on both substrates |
//! | `simulate` | a fully parameterized oscillator-model run with the three result views |
//! | `sweep` | a declarative TOML/JSON campaign through the sweep engine |
//! | `serve` | the campaign daemon: HTTP job API over the sweep engine |
//! | `help` | the registry, rendered as text, JSON (≡ `GET /schema`) or markdown (≡ `docs/CLI.md`) |
//! | `wave-sweep` | §5.1.1: idle-wave speed vs. coupling βκ |
//! | `sigma-sweep` | §5.2.2: asymptotic phase gap vs. interaction horizon σ |
//!
//! All command functions return the report as a `String` so they are
//! directly testable; the binary just prints.
//!
//! The sweep-shaped subcommands (`sweep`, `wave-sweep`, `sigma-sweep`)
//! delegate to the `pom-sweep` campaign engine: a self-balancing worker
//! pool whose workers each hold one reusable integrator workspace, with
//! per-point seeds derived from the point index so output is bitwise
//! identical for any `threads=` value.

mod cmd;

pub use cmd::{commands, help, run_cli, CliError};
