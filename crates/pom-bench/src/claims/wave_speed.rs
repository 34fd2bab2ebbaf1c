//! Reproduce §5.1.1 (experiment C1): idle-wave speed as a function of the
//! coupling βκ — on the model (βκ sweep at fixed topology) and on the
//! simulator (distance sets and protocols change the effective βκ).
//!
//! Paper claims: βκ ≈ 0 → free processes (no wave); βκ = 1 → minimum
//! speed; larger βκ → faster waves, stiffer system.
//!
//! Both sides run as declarative `pom-sweep` campaigns: the model sweep
//! over a coupling axis, the simulator sweep over a zipped
//! distances/protocol axis.

use crate::{save, Verdict};
use pom_mpisim::MpiProtocol;
use pom_sweep::Campaign;
use pom_viz::write_table;

fn model_campaign() -> Campaign {
    Campaign::from_str(
        r#"
        [campaign]
        name = "wave-speed-model"
        observables = ["wave_speed"]
        [model]
        n = 40
        potential = "tanh"
        tcomp = 0.9
        tcomm = 0.1
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
        t_end = 100.0
        samples = 500
        [wave]
        threshold = 0.05
        max_distance = 14
        [[axes]]
        key = "model.coupling"
        values = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
        "#,
    )
    .expect("model campaign spec")
}

fn sim_campaign() -> Campaign {
    Campaign::from_str(
        r#"
        [campaign]
        name = "wave-speed-sim"
        workload = "mpisim"
        observables = ["wave_speed"]
        [mpisim]
        n = 40
        iterations = 36
        kernel = "pisolver"
        work_seconds = 1e-3
        [inject]
        rank = 12
        iteration = 4
        extra_seconds = 5e-3
        [wave]
        threshold = 2e-3
        max_distance = 12
        [[axes]]
        keys = ["mpisim.distances", "mpisim.protocol"]
        values = [
            [[-1, 1], "eager"],
            [[-1, 1], "rendezvous"],
            [[-2, -1, 1], "eager"],
            [[-3, -1, 1], "eager"],
        ]
        "#,
    )
    .expect("sim campaign spec")
}

pub(crate) fn check() -> Verdict {
    // --- model sweep ---
    println!("model (ring ±1, tanh), speed vs βκ:");
    println!("{:>8}  {:>16}", "βκ", "speed [rk/cycle]");
    let model_rows = model_campaign().run_collect(0).expect("model campaign");
    let mut rows = Vec::new();
    let mut speeds = Vec::new();
    for row in &model_rows {
        assert!(row.error.is_none(), "{:?}", row.error);
        let bk = row.params[0].1.as_f64().unwrap();
        let s = row.observables[0].1;
        if s.is_finite() {
            println!("{bk:>8.1}  {s:>16.4}");
            rows.push(vec![bk, s]);
            speeds.push((bk, s));
        } else {
            println!("{bk:>8.1}  {:>16}", "no wave");
            rows.push(vec![bk, 0.0]);
        }
    }
    save(
        "wave_speed_vs_beta_kappa.csv",
        &write_table(&["beta_kappa", "speed"], &rows),
    );

    let monotone = speeds.windows(2).all(|w| w[1].1 > w[0].1);
    let free_ok = rows[0][1] == 0.0; // βκ = 0 → no wave

    // --- simulator: distance sets and protocols ---
    println!("\nsimulator (PISOLVER), speed vs distance set and protocol:");
    println!(
        "{:>16}  {:>12}  {:>16}",
        "distances", "protocol", "speed [rk/iter]"
    );
    let sim_rows_raw = sim_campaign().run_collect(0).expect("sim campaign");
    let mut sim_rows = Vec::new();
    let mut sim_speeds = Vec::new();
    for row in &sim_rows_raw {
        assert!(row.error.is_none(), "{:?}", row.error);
        let distances: Vec<i64> = row.params[0]
            .1
            .as_array()
            .unwrap()
            .iter()
            .map(|d| d.as_i64().unwrap())
            .collect();
        let protocol = match row.params[1].1.as_str().unwrap() {
            "eager" => MpiProtocol::Eager,
            "rendezvous" => MpiProtocol::Rendezvous,
            other => panic!("unexpected protocol label `{other}`"),
        };
        let beta = protocol.beta();
        // The engine reports ranks/second; 1 iteration ≈ 1 ms here.
        let s = Some(row.observables[0].1)
            .filter(|s| s.is_finite())
            .unwrap_or(0.0)
            * 1e-3;
        println!(
            "{:>16}  {:>12}  {s:>16.3}",
            format!("{distances:?}"),
            protocol.name()
        );
        sim_rows.push(vec![
            distances.iter().map(|x| x.abs()).sum::<i64>() as f64,
            beta,
            s,
        ]);
        sim_speeds.push(s);
    }
    save(
        "wave_speed_sim.csv",
        &write_table(&["kappa_sum", "beta", "speed_rk_per_iter"], &sim_rows),
    );

    // Wider stencils are faster; the -3 leg beats the -2 leg.
    let stencil_ok = sim_speeds[2] > sim_speeds[0] && sim_speeds[3] > sim_speeds[2];

    Verdict {
        ok: monotone && free_ok && stencil_ok,
        detail: format!(
            "model speed monotone in βκ ({} points), free at βκ=0; simulator speed grows with stencil reach",
            speeds.len()
        ),
    }
}
