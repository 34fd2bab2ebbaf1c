//! Spool-directory layout: the daemon's durable state.
//!
//! Every job owns one directory under the spool root:
//!
//! ```text
//! spool/
//!   j1/
//!     spec            the submitted campaign spec, byte-for-byte
//!     results.jsonl   header + completed rows (the checkpoint format)
//!     cancelled       empty marker, present while the job is cancelled
//!   j2/
//!     …
//! ```
//!
//! There is deliberately no separate checkpoint file: `results.jsonl` is
//! exactly what `pom sweep out=… resume=1` writes, so the FNV spec hash in
//! its header plus the completed-point scan *is* the resume state. A
//! killed daemon restarted over the same spool re-derives every job's
//! remaining work from these files alone, and a spool directory can
//! equally be finished off by the CLI.
//!
//! Two small extras harden the layout: `meta` (JSON) persists the
//! submit-time extras that are deliberately *not* part of the spec —
//! priority band, absolute deadline, owning auth token — so scheduling
//! and quota accounting survive a restart without perturbing the spec
//! hash; and a root-level `seq` file pins the id high-water mark, so
//! spool GC removing the newest job directories can never cause a
//! restarted daemon to reissue an old job id.
//!
//! Recovery reads go through [`crate::faults::Faults`]: the chaos suite
//! injects short reads and `EAGAIN` storms exactly here.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::faults::Faults;

/// Name of the raw spec file inside a job directory.
pub(crate) const SPEC_FILE: &str = "spec";
/// Name of the JSONL result stream inside a job directory.
pub(crate) const RESULTS_FILE: &str = "results.jsonl";
/// Name of the cancelled marker inside a job directory. Empty for a
/// plain client cancel (back-compat), otherwise a JSON object with a
/// structured `reason` (e.g. a deadline expiry).
pub(crate) const CANCELLED_MARKER: &str = "cancelled";
/// Name of the optional JSON meta file inside a job directory
/// (priority / deadline / token; absent for all-default submissions).
pub(crate) const META_FILE: &str = "meta";
/// Root-level file pinning the highest job sequence ever issued.
pub(crate) const SEQ_FILE: &str = "seq";

/// A job's directory under the spool root.
pub(crate) fn job_dir(spool: &Path, id: &str) -> PathBuf {
    spool.join(id)
}

/// The job id for a sequence number (`7` → `"j7"`).
pub(crate) fn job_id(seq: u64) -> String {
    format!("j{seq}")
}

/// Parse a job id back to its sequence number (`"j7"` → `7`).
pub(crate) fn parse_job_id(id: &str) -> Option<u64> {
    id.strip_prefix('j')?.parse().ok()
}

/// Enumerate job ids present in the spool, ascending by sequence number.
/// Non-job entries (anything not named `j<seq>`) are ignored.
pub(crate) fn scan_job_ids(spool: &Path) -> io::Result<Vec<String>> {
    let mut seqs: Vec<u64> = Vec::new();
    for entry in fs::read_dir(spool)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        if let Some(seq) = entry.file_name().to_str().and_then(parse_job_id) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs.into_iter().map(job_id).collect())
}

/// The next unused sequence number in the spool: past the highest job
/// directory present *and* past the persisted high-water mark, so ids
/// are never reissued after GC removed the newest directories.
pub(crate) fn next_seq(spool: &Path) -> io::Result<u64> {
    let max = scan_job_ids(spool)?
        .iter()
        .filter_map(|id| parse_job_id(id))
        .max()
        .unwrap_or(0);
    Ok(max.max(seq_floor(spool)) + 1)
}

/// The persisted id high-water mark (0 when absent/garbled).
pub(crate) fn seq_floor(spool: &Path) -> u64 {
    fs::read_to_string(spool.join(SEQ_FILE))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Persist the id high-water mark (best effort — a lost update only
/// weakens the no-reuse guarantee as far as the directories on disk).
pub(crate) fn store_seq_floor(spool: &Path, seq: u64) {
    let _ = fs::write(spool.join(SEQ_FILE), format!("{seq}\n"));
}

/// Read one job file through the fault layer. `Ok(None)` when absent.
pub(crate) fn read_job_file(dir: &Path, name: &str, faults: &Faults) -> io::Result<Option<String>> {
    let path = dir.join(name);
    if !path.exists() {
        return Ok(None);
    }
    faults.read_to_string(&path).map(Some)
}

/// Remove a job directory (spool GC). Errors are returned so the caller
/// can decide whether a half-removed directory matters; the scan simply
/// re-skips whatever survives.
pub(crate) fn remove_job_dir(spool: &Path, id: &str) -> io::Result<()> {
    fs::remove_dir_all(job_dir(spool, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_scan_sorts() {
        assert_eq!(job_id(7), "j7");
        assert_eq!(parse_job_id("j7"), Some(7));
        assert_eq!(parse_job_id("x7"), None);
        assert_eq!(parse_job_id("j"), None);

        let dir = std::env::temp_dir().join(format!("pom-spool-scan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for name in ["j10", "j2", "j1", "not-a-job"] {
            fs::create_dir_all(dir.join(name)).unwrap();
        }
        fs::write(dir.join("stray-file"), b"x").unwrap();
        assert_eq!(scan_job_ids(&dir).unwrap(), vec!["j1", "j2", "j10"]);
        assert_eq!(next_seq(&dir).unwrap(), 11);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seq_floor_survives_gc_of_newest_dirs() {
        let dir = std::env::temp_dir().join(format!("pom-spool-seq-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("j3")).unwrap();
        store_seq_floor(&dir, 3);
        // GC removes the newest (and only) job directory…
        remove_job_dir(&dir, "j3").unwrap();
        // …but the high-water mark keeps ids moving forward.
        assert_eq!(seq_floor(&dir), 3);
        assert_eq!(next_seq(&dir).unwrap(), 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
