//! Streaming result sinks and the resume scanner.
//!
//! The executor emits [`PointRow`]s strictly in grid order, so every sink
//! here produces byte-identical output for the same spec regardless of
//! thread count. JSONL is the primary format (one self-describing object
//! per line, header first); CSV is provided for spreadsheet-style
//! consumers.

use std::collections::HashSet;
use std::io::{self, Write};

use crate::run::PointRow;
use crate::spec::CampaignSpec;
use crate::value::{format_f64, parse_json, write_json_str, Value};

/// Campaign completion statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Grid size.
    pub total: usize,
    /// Points executed in this invocation.
    pub executed: usize,
    /// Points skipped because a resume cache already had them.
    pub skipped: usize,
    /// Points whose row carries an error.
    pub errors: usize,
}

/// Receives campaign output as it streams.
pub trait ResultSink {
    /// Called once before any row.
    fn begin(&mut self, spec: &CampaignSpec) -> io::Result<()>;
    /// Called once per executed point, in ascending `index` order.
    fn row(&mut self, row: &PointRow) -> io::Result<()>;
    /// Called once after the last row.
    fn end(&mut self, summary: &CampaignSummary) -> io::Result<()>;
}

impl PointRow {
    /// The row's JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"point\":");
        out.push_str(&self.index.to_string());
        out.push_str(",\"seed\":");
        out.push_str(&self.seed.to_string());
        out.push_str(",\"params\":{");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(k, &mut out);
            out.push(':');
            out.push_str(&v.canonical());
        }
        out.push('}');
        if let Some(e) = &self.error {
            out.push_str(",\"error\":");
            write_json_str(e, &mut out);
        } else {
            out.push_str(",\"observables\":{");
            for (i, (k, v)) in self.observables.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(k, &mut out);
                out.push(':');
                out.push_str(&format_f64(*v));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// The JSONL header line for a campaign (no trailing newline).
pub fn header_json(spec: &CampaignSpec) -> String {
    let mut out = String::new();
    out.push_str("{\"campaign\":");
    write_json_str(&spec.name, &mut out);
    out.push_str(",\"spec_hash\":");
    write_json_str(&format!("{:016x}", spec.spec_hash), &mut out);
    out.push_str(",\"points\":");
    out.push_str(&spec.total_points().to_string());
    out.push_str(",\"seed\":");
    out.push_str(&spec.seed.to_string());
    // Only replicated campaigns carry the field: `replicas = 1` headers
    // stay byte-identical to pre-ensemble output (back-compat pin).
    if spec.replicas > 1 {
        out.push_str(",\"replicas\":");
        out.push_str(&spec.replicas.to_string());
    }
    out.push_str(",\"axes\":[");
    for (i, axis) in spec.axes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(&axis.keys.join(","), &mut out);
    }
    out.push_str("],\"observables\":[");
    for (i, col) in spec.observable_columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(col, &mut out);
    }
    out.push_str("]}");
    out
}

/// JSON-lines sink: one header object, then one object per point.
pub struct JsonlSink<W: Write> {
    writer: W,
    /// Suppress the header (used when appending to a resumed file).
    skip_header: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Sink writing a fresh stream (header + rows).
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            skip_header: false,
        }
    }

    /// Sink appending rows to an existing stream (no header).
    pub fn appending(writer: W) -> Self {
        Self {
            writer,
            skip_header: true,
        }
    }

    /// Recover the writer (e.g. the built string/buffer).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

/// Emit one row as a single `write_all` of the full line followed by one
/// `flush`. This is *the* durability contract of the checkpoint format:
/// because each row reaches the writer as exactly one write call, a crash
/// (or an injected torn write) can only ever leave a prefix of the final
/// line — never interleave two rows — which is what lets
/// [`scan_completed_at`] treat any unterminated tail as recoverable.
pub fn write_row_line(w: &mut impl Write, row: &PointRow) -> io::Result<()> {
    let mut line = row.to_json();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

impl<W: Write> ResultSink for JsonlSink<W> {
    /// Writes the header line as one `write_all` plus one `flush`, the
    /// contract [`write_row_line`] documents for rows: a crash right
    /// after `begin` leaves a valid resume target with no rows.
    fn begin(&mut self, spec: &CampaignSpec) -> io::Result<()> {
        if !self.skip_header {
            let mut line = header_json(spec);
            line.push('\n');
            self.writer.write_all(line.as_bytes())?;
            self.writer.flush()?;
        }
        Ok(())
    }

    fn row(&mut self, row: &PointRow) -> io::Result<()> {
        write_row_line(&mut self.writer, row)
    }

    fn end(&mut self, _summary: &CampaignSummary) -> io::Result<()> {
        self.writer.flush()
    }
}

/// CSV sink: `point,seed,<axis keys…>,<observables…>,error`.
pub struct CsvSink<W: Write> {
    writer: W,
}

impl<W: Write> CsvSink<W> {
    /// Sink writing header row + data rows.
    pub fn new(writer: W) -> Self {
        Self { writer }
    }

    /// Recover the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn value_cell(v: &Value) -> String {
    match v {
        Value::Str(s) => csv_cell(s),
        other => csv_cell(&other.canonical()),
    }
}

impl<W: Write> ResultSink for CsvSink<W> {
    fn begin(&mut self, spec: &CampaignSpec) -> io::Result<()> {
        let mut cols = vec!["point".to_string(), "seed".to_string()];
        for axis in &spec.axes {
            cols.extend(axis.keys.iter().cloned());
        }
        cols.extend(spec.observable_columns());
        cols.push("error".to_string());
        writeln!(self.writer, "{}", cols.join(","))
    }

    fn row(&mut self, row: &PointRow) -> io::Result<()> {
        let mut cells = vec![row.index.to_string(), row.seed.to_string()];
        cells.extend(row.params.iter().map(|(_, v)| value_cell(v)));
        cells.extend(row.observables.iter().map(|(_, v)| format_f64(*v)));
        cells.push(row.error.as_deref().map(csv_cell).unwrap_or_default());
        writeln!(self.writer, "{}", cells.join(","))?;
        self.writer.flush()
    }

    fn end(&mut self, _summary: &CampaignSummary) -> io::Result<()> {
        self.writer.flush()
    }
}

/// In-memory sink for tests and programmatic consumers.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Collected rows, in grid order.
    pub rows: Vec<PointRow>,
}

impl ResultSink for MemorySink {
    fn begin(&mut self, _spec: &CampaignSpec) -> io::Result<()> {
        Ok(())
    }

    fn row(&mut self, row: &PointRow) -> io::Result<()> {
        self.rows.push(row.clone());
        Ok(())
    }

    fn end(&mut self, _summary: &CampaignSummary) -> io::Result<()> {
        Ok(())
    }
}

/// Broadcast to several sinks at once (e.g. file + progress meter).
pub struct TeeSink<'a> {
    sinks: Vec<&'a mut dyn ResultSink>,
}

impl<'a> TeeSink<'a> {
    /// Combine sinks; rows go to each in order.
    pub fn new(sinks: Vec<&'a mut dyn ResultSink>) -> Self {
        Self { sinks }
    }
}

impl ResultSink for TeeSink<'_> {
    fn begin(&mut self, spec: &CampaignSpec) -> io::Result<()> {
        self.sinks.iter_mut().try_for_each(|s| s.begin(spec))
    }

    fn row(&mut self, row: &PointRow) -> io::Result<()> {
        self.sinks.iter_mut().try_for_each(|s| s.row(row))
    }

    fn end(&mut self, summary: &CampaignSummary) -> io::Result<()> {
        self.sinks.iter_mut().try_for_each(|s| s.end(summary))
    }
}

/// Detailed outcome of scanning an existing JSONL stream for resume.
#[derive(Debug, Clone, Default)]
pub struct ScanOutcome {
    /// Point indices with a well-formed, error-free row.
    pub done: HashSet<usize>,
    /// Byte length of the well-formed prefix. Shorter than the scanned
    /// text only when the final line is a torn row (or a torn header):
    /// resuming writers must truncate the file to this length before
    /// appending, so the stream stays a whole-line prefix.
    pub retain_len: usize,
    /// The retained prefix is valid JSON-lines content but lacks its
    /// final newline (only the `\n` of the last row was lost to the
    /// tear); appenders must write one before the next row.
    pub needs_newline: bool,
}

/// Scan an existing JSONL stream for completed points, distinguishing a
/// torn *final* row from mid-file corruption.
///
/// Because every row is emitted as one `write_all` + flush
/// ([`write_row_line`]), an interrupted writer can only ever leave a
/// prefix of the **last** line. A malformed line that is *followed by
/// more bytes* therefore cannot be crash truncation — something else
/// damaged the file — and the scan refuses with an error naming the byte
/// offset rather than silently dropping data. A malformed unterminated
/// final line is the torn-write case: it is excluded from `retain_len`
/// (callers truncate it) and its point simply re-runs.
///
/// Fails if the header's `spec_hash` does not match `spec` (the file
/// belongs to a different campaign — resuming would silently mix
/// incompatible results).
pub fn scan_completed_at(text: &str, spec: &CampaignSpec) -> Result<ScanOutcome, String> {
    let total = spec.total_points();
    let want = format!("{:016x}", spec.spec_hash);
    let mut out = ScanOutcome {
        done: HashSet::new(),
        retain_len: text.len(),
        needs_newline: false,
    };
    let mut saw_header = false;
    let mut offset = 0usize;
    for seg in text.split_inclusive('\n') {
        let start = offset;
        offset += seg.len();
        let terminated = seg.ends_with('\n');
        let line = seg.trim();
        if line.is_empty() {
            continue; // blank padding (editors, `echo >>`) is a no-op
        }
        let row = match parse_json(line) {
            Ok(v) => v,
            Err(e) => {
                if terminated {
                    return Err(format!(
                        "corrupt result stream: malformed {} at byte offset {start} ({e}) is \
                         followed by more data, so it cannot be torn-write truncation; \
                         repair or delete the file",
                        if saw_header { "row" } else { "header" },
                    ));
                }
                // Torn final line: everything before it is intact. A torn
                // *header* leaves nothing usable — retain nothing.
                out.retain_len = if saw_header { start } else { 0 };
                out.needs_newline = false;
                return Ok(out);
            }
        };
        if !saw_header {
            let Some(file_hash) = row.get("spec_hash").and_then(Value::as_str) else {
                return Err(format!(
                    "spec hash mismatch: result file carries no `spec_hash` header \
                     (current spec is {want}); delete it or run without resume"
                ));
            };
            if file_hash != want {
                return Err(format!(
                    "spec hash mismatch: result file was written by spec {file_hash}, \
                     current spec is {want}; delete it or run without resume"
                ));
            }
            saw_header = true;
        } else if row.get("error").is_none() {
            // Failed points re-run on resume; good rows count once.
            if let Some(idx) = row.get("point").and_then(Value::as_i64) {
                if idx >= 0 && (idx as usize) < total {
                    out.done.insert(idx as usize);
                }
            }
        }
        if !terminated {
            // A complete row whose newline alone was torn: keep it, the
            // appender restores the `\n`.
            out.needs_newline = true;
        }
    }
    if !saw_header {
        out.retain_len = 0; // only blanks: recreate from scratch
    }
    Ok(out)
}

/// Scan an existing JSONL stream for completed points (see
/// [`scan_completed_at`] for the torn-tail/corruption distinction; this
/// wrapper returns just the completed set).
pub(crate) fn scan_completed(text: &str, spec: &CampaignSpec) -> Result<HashSet<usize>, String> {
    Ok(scan_completed_at(text, spec)?.done)
}
