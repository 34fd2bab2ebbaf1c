//! `pom sweep <spec.toml>`: run a declarative campaign from a spec
//! file, streaming JSONL/CSV rows.

use std::fmt::Write as _;

use pom_sweep::registry::Parsed;
use pom_sweep::{Campaign, ProgressSink, RunOptions, TeeSink};

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let spec_path = p.str("spec");
    let campaign = Campaign::from_file(spec_path).map_err(|e| CliError::Run(e.to_string()))?;
    let threads = p.usize("threads");
    let resume = p.bool("resume");
    let format = p.str("format");
    let stats = p.bool("stats");
    if stats {
        // Opt-in instrumentation: per-point wall times land in the
        // registry histogram the summary below reads back.
        pom_obs::set_enabled(true);
    }

    // Resume state lives in the JSONL header's spec hash; silently
    // re-running a whole campaign instead would discard completed work.
    if resume && (p.opt_str("out").is_none() || format != "jsonl") {
        return Err(CliError::Run(
            "resume=1 requires out=<file> with format=jsonl (only the JSONL stream \
             carries the spec hash and completed points)"
                .to_string(),
        ));
    }

    let summary = match p.opt_str("out") {
        None => {
            // No output file: the report *is* the JSONL stream.
            let mut text = campaign
                .run_jsonl_string(threads)
                .map_err(|e| CliError::Run(e.to_string()))?;
            if stats {
                text.push_str(&stats_report());
            }
            return Ok(text);
        }
        Some(out_path) => {
            let mut progress = ProgressSink::new(campaign.total_points());
            match format {
                "csv" => {
                    let file = std::fs::File::create(out_path)
                        .map_err(|e| CliError::Run(format!("create {out_path}: {e}")))?;
                    let mut sink = pom_sweep::CsvSink::new(file);
                    let mut tee = TeeSink::new(vec![&mut sink, &mut progress]);
                    campaign
                        .run(&RunOptions::with_threads(threads), &mut tee)
                        .map_err(|e| CliError::Run(e.to_string()))?
                }
                _ => {
                    let (mut file_sink, opts) = campaign
                        .jsonl_file_sink(out_path, threads, resume)
                        .map_err(|e| CliError::Run(e.to_string()))?;
                    let mut tee = TeeSink::new(vec![&mut file_sink, &mut progress]);
                    campaign
                        .run(&opts, &mut tee)
                        .map_err(|e| CliError::Run(e.to_string()))?
                }
            }
        }
    };

    let mut out = String::new();
    let _ = writeln!(out, "# campaign `{}`", campaign.spec.name);
    let _ = writeln!(out, "points:   {}", summary.total);
    let _ = writeln!(out, "executed: {}", summary.executed);
    let _ = writeln!(out, "skipped:  {} (resume cache)", summary.skipped);
    let _ = writeln!(out, "errors:   {}", summary.errors);
    if let Some(path) = p.opt_str("out") {
        let _ = writeln!(out, "wrote {path}");
    }
    if stats {
        out.push_str(&stats_report());
    }
    Ok(out)
}

/// The `sweep stats=1` trailer: per-point wall-time quantiles read back
/// from the registry histogram the executor fills.
fn stats_report() -> String {
    let h = pom_obs::registry().histogram(
        pom_sweep::POINT_DURATION_METRIC,
        "Wall time of one executed sweep point.",
    );
    let mut out = String::new();
    let _ = writeln!(out, "# point latency ({} timed points)", h.count());
    if h.count() == 0 {
        let _ = writeln!(out, "no points executed (everything resumed from cache?)");
        return out;
    }
    let us = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{:.0} µs", v));
    let _ = writeln!(out, "mean: {}", us(h.mean()));
    let _ = writeln!(out, "p50:  {}", us(h.quantile(0.5)));
    let _ = writeln!(out, "p90:  {}", us(h.quantile(0.9)));
    let _ = writeln!(out, "p99:  {}", us(h.quantile(0.99)));
    let _ = writeln!(
        out,
        "max:  {}",
        h.max().map_or("n/a".to_string(), |v| format!("{v} µs"))
    );
    out
}
