//! Reproduce §5.2.2 (experiment C4): the interaction horizon σ governs
//! the bottlenecked asymptotic state.
//!
//! Paper claims: phase differences settle at the first zero `2σ/3`;
//! small σ ≈ stiff, almost synchronized code; large σ = strong
//! desynchronization; σ correlates with idle-wave speed and phase
//! spread (a 3× stiffness increase gave 3× speed and correspondingly
//! smaller spread between Fig. 2(b) and (d)).
//!
//! Both sweeps run as declarative `pom-sweep` campaigns across all cores.

use crate::{save, Verdict};
use pom_sweep::Campaign;
use pom_viz::write_table;

const SIGMAS: [f64; 6] = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0];

/// Asymptotic |adjacent gap| on a chain (the clean 2σ/3 geometry). The
/// original loop used `amplitude = 0.1·σ`, so σ and amplitude sweep as a
/// zipped axis.
fn gap_campaign() -> Campaign {
    let zipped: Vec<String> = SIGMAS
        .iter()
        .map(|s| format!("[{s}, {}]", 0.1 * s))
        .collect();
    let spec = format!(
        r#"
        [campaign]
        name = "sigma-gap"
        observables = ["mean_abs_gap", "rel_err_two_thirds"]
        [model]
        n = 16
        potential = "desync"
        tcomp = 0.9
        tcomm = 0.1
        coupling = 4.0
        [topology]
        kind = "chain"
        [init]
        kind = "spread"
        seed = 11
        [sim]
        t_end = 400.0
        samples = 200
        [[axes]]
        keys = ["model.sigma", "init.amplitude"]
        values = [{}]
        "#,
        zipped.join(", ")
    );
    Campaign::from_str(&spec).expect("gap campaign spec")
}

/// Idle-wave speed through a developed wavefront with horizon σ.
fn wave_campaign() -> Campaign {
    let spec = format!(
        r#"
        [campaign]
        name = "sigma-wave"
        observables = ["wave_speed"]
        [model]
        n = 32
        potential = "desync"
        tcomp = 0.9
        tcomm = 0.1
        coupling = 4.0
        [topology]
        kind = "ring"
        [init]
        kind = "sync"
        [inject]
        rank = 5
        at = 2.0
        len = 3.0
        extra = 1.0
        [sim]
        t_end = 60.0
        samples = 600
        [wave]
        threshold = 0.05
        max_distance = 10
        [[axes]]
        key = "model.sigma"
        values = [{}]
        "#,
        SIGMAS.map(|s| s.to_string()).join(", ")
    );
    Campaign::from_str(&spec).expect("wave campaign spec")
}

pub(crate) fn check() -> Verdict {
    let gap_rows = gap_campaign().run_collect(0).expect("gap campaign");
    let wave_rows = wave_campaign().run_collect(0).expect("wave campaign");

    println!(
        "{:>6}  {:>12}  {:>10}  {:>10}  {:>14}",
        "σ", "gap [rad]", "2σ/3", "rel.err", "wave [rk/cyc]"
    );
    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    let mut speeds = Vec::new();
    for (g, w) in gap_rows.iter().zip(&wave_rows) {
        assert!(
            g.error.is_none() && w.error.is_none(),
            "{:?} {:?}",
            g.error,
            w.error
        );
        let sigma = g.params[0].1.as_f64().unwrap();
        let gap = g.observables[0].1;
        let rel = g.observables[1].1;
        let expect = 2.0 * sigma / 3.0;
        let speed = Some(w.observables[0].1).filter(|s| s.is_finite());
        println!(
            "{sigma:>6.1}  {gap:>12.4}  {expect:>10.4}  {rel:>10.4}  {:>14}",
            speed.map_or("n/a".into(), |s| format!("{s:.3}"))
        );
        rows.push(vec![sigma, gap, expect, rel, speed.unwrap_or(-1.0)]);
        gaps.push((sigma, gap, rel));
        if let Some(s) = speed {
            speeds.push((sigma, s));
        }
    }
    save(
        "sigma_sweep.csv",
        &write_table(
            &["sigma", "gap", "two_thirds_sigma", "rel_err", "wave_speed"],
            &rows,
        ),
    );

    // The paper's Fig. 2(b) → (d) stiffness step: σ 3 → 1.
    let gap_b = gaps.iter().find(|g| g.0 == 3.0).unwrap().1;
    let gap_d = gaps.iter().find(|g| g.0 == 1.0).unwrap().1;
    println!(
        "\nFig. 2(b)→(d) analog: σ 3 → 1 shrinks the gap {gap_b:.3} → {gap_d:.3} rad ({:.2}×)",
        gap_b / gap_d
    );

    let law_ok = gaps.iter().all(|g| g.2 < 0.05);
    let monotone_gap = gaps.windows(2).all(|w| w[1].1 > w[0].1);
    // Wave speed should not *increase* with σ (stiffness = small σ is
    // faster); tolerate plateaus.
    let speed_trend_ok = speeds.windows(2).all(|w| w[1].1 <= w[0].1 * 1.15);
    let ratio_bd = gap_b / gap_d;

    Verdict {
        ok: law_ok && monotone_gap && speed_trend_ok && (ratio_bd - 3.0).abs() < 0.3,
        detail: format!(
            "2σ/3 law holds within 5% across σ ∈ [0.5, 6]; gap scales {ratio_bd:.2}× for the 3× stiffness step"
        ),
    }
}
