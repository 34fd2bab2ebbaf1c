//! Analysis toolkit: extracting the paper's observables from simulator
//! traces and model runs.
//!
//! The evaluation section of the paper (§5) rests on a handful of derived
//! quantities:
//!
//! * **idle-wave arrival and speed** — when does an injected one-off delay
//!   first disturb rank `r`, and how fast does the front move (ranks per
//!   iteration / per second)? §5.1.1 correlates the speed with `β·κ`.
//! * **de-/resynchronization verdicts** — does the system return to
//!   lockstep after the wave (scalable) or retain a residual
//!   *computational wavefront* (bottlenecked)? §5.1.2, §5.2.
//! * **phase spread and wavefront slope** — the asymptotic phase pattern
//!   of the oscillator model; §5.2.2 connects the spread to the
//!   interaction horizon `σ` (settling at `2σ/3`).
//!
//! `idlewave` implements front extraction on both substrates (simulator
//! [`pom_mpisim::SimTrace`] and model [`pom_core::PomRun`]), `desync`
//! the wavefront/resync diagnostics, `stats` the small regression
//! toolbox used by the speed fits, and `compare` the model-vs-simulator
//! agreement verdicts that `repro F2` prints.

mod compare;
mod desync;
mod idlewave;
mod stats;
mod streaming;

pub use compare::{fig2_verdict, Fig2Verdict};
pub use desync::{model_residual_spread, residual_spread, socket_offsets, DesyncVerdict};
pub use idlewave::{
    model_wave_arrivals, model_wave_speed, model_wave_speed_in, sim_wave_arrivals, sim_wave_speed,
    sim_wave_speed_in, wave_speed_fit, MeasuredWave, WaveGeometry, WaveSpeed,
};
pub use stats::{mean, std_dev};
pub use streaming::{RunSummaryProbe, Welford};
