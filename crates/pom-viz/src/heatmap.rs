//! Rank × time heatmaps of model runs — the model-side analog of the
//! trace Gantt: an idle wave appears as a diagonal ridge of phase lag,
//! a computational wavefront as a persistent vertical gradient.

use pom_core::PomRun;

/// Shade characters from low to high.
const SHADES: [char; 7] = [' ', '.', ':', '-', '=', '#', '@'];

/// ASCII heatmap of the lagger-normalized phases `θ_i − ωt − min`:
/// one row per oscillator, `width` time columns, darker = further ahead
/// of the lagger.
pub fn phase_heatmap_ascii(run: &PomRun, width: usize) -> String {
    assert!(width >= 10, "heatmap needs at least 10 columns");
    let tr = run.trajectory();
    let n = tr.dim();
    let samples = tr.len();
    if samples == 0 {
        return String::from("(empty run)\n");
    }

    // Collect the normalized field and its maximum for scaling.
    let mut field = vec![vec![0.0; width]; n];
    let mut v_max: f64 = 0.0;
    for (c, col) in (0..width).map(|c| {
        let k = c * (samples - 1) / width.max(1);
        (c, run.normalized_snapshot(k.min(samples - 1)))
    }) {
        for i in 0..n {
            field[i][c] = col[i];
            v_max = v_max.max(col[i]);
        }
    }
    let scale = if v_max <= 0.0 { 1.0 } else { v_max };

    let mut out = String::new();
    for (i, row) in field.iter().enumerate() {
        let line: String = row
            .iter()
            .map(|&v| {
                let idx = ((v / scale) * (SHADES.len() - 1) as f64).round() as usize;
                SHADES[idx.min(SHADES.len() - 1)]
            })
            .collect();
        out.push_str(&format!("{i:>4} |{}|\n", line));
    }
    out.push_str(&format!(
        "{:>5} t: {:.2} … {:.2}   (darkest = {v_max:.3} rad ahead of lagger)\n",
        "",
        tr.time(0),
        tr.time(samples - 1)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_core::{InitialCondition, Normalization, PomBuilder, Potential, SimOptions};
    use pom_noise::{DelayEvent, OneOffDelays};
    use pom_topology::Topology;

    fn wave_run() -> PomRun {
        PomBuilder::new(12)
            .topology(Topology::ring(12, &[-1, 1]))
            .potential(Potential::Tanh)
            .compute_time(0.9)
            .comm_time(0.1)
            .coupling(2.0)
            .normalization(Normalization::ByDegree)
            .local_noise(OneOffDelays::new(vec![DelayEvent {
                rank: 5,
                t_start: 2.0,
                duration: 2.0,
                extra: 1.0,
            }]))
            .build()
            .unwrap()
            .simulate_with(
                InitialCondition::Synchronized,
                &SimOptions::new(30.0).samples(120),
            )
            .unwrap()
    }

    #[test]
    fn heatmap_rows_match_oscillators() {
        let run = wave_run();
        let art = phase_heatmap_ascii(&run, 60);
        assert_eq!(art.lines().count(), 13); // 12 rows + scale line
                                             // The wave leaves visible shading.
        assert!(art.contains('@') || art.contains('#'), "{art}");
    }

    #[test]
    fn synchronized_run_is_blank() {
        let run = PomBuilder::new(6)
            .topology(Topology::ring(6, &[-1, 1]))
            .potential(Potential::Tanh)
            .compute_time(1.0)
            .comm_time(0.0)
            .coupling(2.0)
            .build()
            .unwrap()
            .simulate(InitialCondition::Synchronized, 10.0)
            .unwrap();
        let art = phase_heatmap_ascii(&run, 40);
        // No deviations: only the lightest shade appears.
        assert!(!art.contains('@'));
        assert!(!art.contains('#'));
    }

    #[test]
    #[should_panic(expected = "at least 10")]
    fn narrow_heatmap_rejected() {
        phase_heatmap_ascii(&wave_run(), 4);
    }
}
