//! `pom sweep <spec.toml>`: run a declarative campaign from a spec
//! file, streaming JSONL/CSV rows.

use std::fmt::Write as _;

use pom_sweep::registry::Parsed;
use pom_sweep::{Campaign, CsvSink, JsonlSink, ProgressSink, ResultSink, RunOptions, TeeSink};

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let campaign = Campaign::from_file(p.str("spec"))?;
    let threads = p.usize("threads");
    let resume = p.bool("resume");
    let format = p.str("format");
    let out_path = p.opt_str("out");
    let stats = p.bool("stats");
    if stats {
        // Opt-in instrumentation: per-point wall times land in the
        // registry histogram the summary below reads back.
        pom_obs::set_enabled(true);
    }

    // Resume state lives in the JSONL header's spec hash; silently
    // re-running a whole campaign instead would discard completed work.
    if resume && (out_path.is_none() || format != "jsonl") {
        return Err(CliError::Run(
            "resume=1 requires out=<file> with format=jsonl (only the JSONL stream \
             carries the spec hash and completed points)"
                .to_string(),
        ));
    }

    // `format` picks the row encoding; the rows go to `out=` when given
    // and otherwise are the report itself.
    let mut stream = Vec::new();
    let mut opts = RunOptions::with_threads(threads);
    let mut rows: Box<dyn ResultSink + '_> = match (format, out_path) {
        ("csv", Some(path)) => Box::new(CsvSink::new(
            std::fs::File::create(path)
                .map_err(|e| CliError::Run(format!("create {path}: {e}")))?,
        )),
        ("csv", None) => Box::new(CsvSink::new(&mut stream)),
        (_, Some(path)) => {
            let (sink, resumed) = campaign.jsonl_file_sink(path, threads, resume)?;
            opts = resumed;
            Box::new(sink)
        }
        (_, None) => Box::new(JsonlSink::new(&mut stream)),
    };
    let Some(path) = out_path else {
        campaign.run(&opts, rows.as_mut())?;
        drop(rows);
        let mut text = String::from_utf8(stream).expect("rows are utf-8");
        if stats {
            text.push_str(&stats_report());
        }
        return Ok(text);
    };
    let mut progress = ProgressSink::new(campaign.total_points());
    let summary = campaign.run(&opts, &mut TeeSink::new(vec![rows.as_mut(), &mut progress]))?;

    let mut out = String::new();
    let _ = writeln!(out, "# campaign `{}`", campaign.spec.name);
    let _ = writeln!(out, "points:   {}", summary.total);
    let _ = writeln!(out, "executed: {}", summary.executed);
    let _ = writeln!(out, "skipped:  {} (resume cache)", summary.skipped);
    let _ = writeln!(out, "errors:   {}", summary.errors);
    let _ = writeln!(out, "wrote {path}");
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
