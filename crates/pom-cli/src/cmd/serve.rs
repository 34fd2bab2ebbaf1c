//! `pom serve`: run the campaign daemon until `POST /shutdown` or a
//! termination signal, then drain and report.

use std::fmt::Write as _;

use pom_sweep::registry::Parsed;

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let level = pom_obs::Level::from_name(p.str("log-level"))
        .unwrap_or_else(|| unreachable!("enum-checked log-level `{}`", p.str("log-level")));
    pom_obs::set_log_level(level);
    let auth = match p.opt_str("auth") {
        None => None,
        Some(path) => {
            Some(pom_serve::TokenBook::from_file(path).map_err(|e| CliError::Run(e.to_string()))?)
        }
    };
    let retain_age_s = p.u64("retain-age-s");
    let config = pom_serve::ServeConfig {
        addr: p.str("addr").to_string(),
        spool: std::path::PathBuf::from(p.str("spool")),
        threads: p.usize("threads"),
        max_jobs: p.usize("max-jobs").max(1),
        max_conns: p.usize("max-conns"),
        auth,
        read_timeout: std::time::Duration::from_millis(p.u64("read-timeout-ms")),
        write_timeout: std::time::Duration::from_millis(p.u64("write-timeout-ms")),
        retain_count: p.usize("retain"),
        retain_age: (retain_age_s > 0).then(|| std::time::Duration::from_secs(retain_age_s)),
        faults: pom_serve::Faults::disabled(),
        handle_signals: true,
    };
    let spool = config.spool.display().to_string();
    let server = pom_serve::Server::start(config).map_err(|e| CliError::Run(e.to_string()))?;
    // The daemon blocks until shutdown; announce readiness immediately
    // instead of via the (post-shutdown) report string.
    println!("pom serve: listening on http://{}", server.addr());
    println!("pom serve: spool at {spool}; POST /shutdown or SIGTERM stops with a drain");
    let s = server.join();

    let mut out = String::new();
    let _ = writeln!(out, "# pom serve: drained and stopped");
    let _ = writeln!(
        out,
        "jobs: {} total — {} done, {} incomplete (auto-resume on restart), \
         {} cancelled, {} failed",
        s.jobs, s.done, s.running, s.cancelled, s.failed
    );
    let _ = writeln!(out, "rows written: {}", s.rows_written);
    Ok(out)
}
