//! Renderers for POM results — the paper tool's three views plus the
//! ITAC-style trace Gantt, in ASCII, SVG and CSV backends.
//!
//! The paper's MATLAB application offers (§3.2): "(i) the circle diagram,
//! where colors represent the different frequencies, (ii) the timeline of
//! phase differences for oscillators, and (iii) the timeline of
//! potentials", with a standard view of `θ_i − ωt` normalized to the
//! lagger. Fig. 2 additionally juxtaposes MPI traces (compute vs.
//! communication per rank over time).
//!
//! Everything here is dependency-free: ASCII renderings for terminals and
//! tests, a tiny hand-rolled SVG writer for files, and CSV for
//! downstream plotting.

mod circle;
mod csv;
mod gantt;
mod heatmap;
mod svg;
mod timeline;

pub use circle::{circle_ascii, circle_svg};
pub use csv::{write_series, write_table};
pub use gantt::{gantt_ascii, gantt_svg};
pub use heatmap::phase_heatmap_ascii;
pub use svg::SvgCanvas;
pub use timeline::{ascii_chart, phase_timeline_csv, potential_timeline_csv};
