//! Leveled structured events, one JSONL record per call.
//!
//! Events are filtered by a process-global level (default [`Level::Warn`])
//! that is independent of the metrics switch, so operational warnings —
//! e.g. a corrupt spool entry being skipped — surface even when metrics
//! are off. Records go to stderr as single-line JSON:
//!
//! ```text
//! {"ts_us":123456789,"level":"warn","event":"spool_skip","job":"j-3","error":"bad header"}
//! ```

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity. Ordered so that `level >= threshold` means "emit".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Verbose diagnostics (per-job scheduling decisions, stream progress).
    Debug = 0,
    /// Normal lifecycle events (job submitted, job done).
    Info = 1,
    /// Something was skipped or degraded but the process carries on.
    Warn = 2,
    /// An operation failed.
    Error = 3,
    /// Suppress all events.
    Off = 4,
}

impl Level {
    /// Parse a level name as used by `pom serve log-level=<name>`.
    pub fn from_name(s: &str) -> Option<Level> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            "off" => Some(Level::Off),
            _ => None,
        }
    }

    /// The name rendered into the JSON record.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
            Level::Off => "off",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            3 => Level::Error,
            _ => Level::Off,
        }
    }
}

/// Minimum severity that gets emitted; independent of the metrics switch.
static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Set the minimum severity to emit.
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current minimum severity.
pub(crate) fn log_level() -> Level {
    Level::from_u8(LOG_LEVEL.load(Ordering::Relaxed))
}

/// Emit a structured event at `level` with string `fields`, if `level`
/// clears the threshold. The below-threshold path is one relaxed atomic
/// load and a compare.
#[inline]
pub fn event(level: Level, name: &str, fields: &[(&str, &str)]) {
    if level < log_level() || level == Level::Off {
        return;
    }
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let line = render_event(ts_us, level, name, fields);
    // One write_all of a complete line keeps concurrent events from
    // interleaving mid-record on POSIX pipes.
    let mut err = std::io::stderr().lock();
    let _ = err.write_all(line.as_bytes());
}

/// Render an event record (including trailing newline) without emitting
/// it — the pure core of [`event`], used directly by tests.
pub(crate) fn render_event(
    ts_us: u64,
    level: Level,
    name: &str,
    fields: &[(&str, &str)],
) -> String {
    let mut s = String::with_capacity(64 + fields.len() * 24);
    s.push_str("{\"ts_us\":");
    s.push_str(&ts_us.to_string());
    s.push_str(",\"level\":\"");
    s.push_str(level.as_str());
    s.push_str("\",\"event\":");
    push_json_str(&mut s, name);
    for (k, v) in fields {
        s.push(',');
        push_json_str(&mut s, k);
        s.push(':');
        push_json_str(&mut s, v);
    }
    s.push_str("}\n");
    s
}

/// Append `v` as a JSON string literal (quoted, escaped).
fn push_json_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip() {
        for l in [
            Level::Debug,
            Level::Info,
            Level::Warn,
            Level::Error,
            Level::Off,
        ] {
            assert_eq!(Level::from_name(l.as_str()), Some(l));
        }
        assert_eq!(Level::from_name("verbose"), None);
    }

    #[test]
    fn render_is_one_json_line() {
        let line = render_event(
            42,
            Level::Warn,
            "spool_skip",
            &[("job", "j-3"), ("error", "bad \"header\"\nline 2")],
        );
        assert_eq!(
            line,
            "{\"ts_us\":42,\"level\":\"warn\",\"event\":\"spool_skip\",\
             \"job\":\"j-3\",\"error\":\"bad \\\"header\\\"\\nline 2\"}\n"
        );
        // Exactly one newline, at the end: a JSONL record.
        assert_eq!(line.matches('\n').count(), 1);
    }

    #[test]
    fn control_chars_are_escaped() {
        let line = render_event(0, Level::Error, "e", &[("k", "a\u{1}b\tc")]);
        assert!(line.contains("\\u0001"));
        assert!(line.contains("\\t"));
    }

    #[test]
    fn default_level_is_warn_and_orders() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        assert!(Level::Error < Level::Off);
        // Don't assert the live global here (parallel tests may set it);
        // just check the setter/getter round-trips.
        set_log_level(Level::Info);
        assert_eq!(log_level(), Level::Info);
        set_log_level(Level::Warn);
        assert_eq!(log_level(), Level::Warn);
    }
}
