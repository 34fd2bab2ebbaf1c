//! A small dynamic value tree plus TOML-subset and JSON parsers.
//!
//! Campaign specs arrive as TOML or JSON files. The build environment has
//! no registry access, so instead of `serde`/`toml` this module implements
//! the required subset directly:
//!
//! * **TOML**: `[table]` and `[[array-of-tables]]` headers, `key = value`
//!   pairs with string / integer / float / boolean / single-line array /
//!   inline-table values, and `#` comments.
//! * **JSON**: the full scalar/array/object grammar.
//!
//! [`Value::canonical`] renders any tree into a canonical JSON string
//! (sorted keys, deterministic float formatting) used for content hashing
//! and for the JSONL result stream.

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically typed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer (TOML integers, JSON numbers without `.`/exponent).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered list.
    Array(Vec<Value>),
    /// A key-sorted table.
    Table(BTreeMap<String, Value>),
}

/// Parse error with a human-readable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line (TOML) or byte offset (JSON).
    pub at: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Empty table.
    pub(crate) fn table() -> Self {
        Value::Table(BTreeMap::new())
    }

    /// Borrow as table.
    pub(crate) fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Borrow as array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view (integers widen to float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Integer view (floats with integral value narrow).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(x) if x.fract() == 0.0 && x.abs() < 2f64.powi(53) => Some(*x as i64),
            _ => None,
        }
    }

    /// Boolean view.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Walk a dotted path (`"model.sigma"`) through nested tables.
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.as_table()?.get(seg)?;
        }
        Some(cur)
    }

    /// Set a dotted path, creating intermediate tables. Errors if a
    /// non-table intermediate exists.
    pub fn set(&mut self, path: &str, value: Value) -> Result<(), ParseError> {
        let mut cur = self;
        let segs: Vec<&str> = path.split('.').collect();
        for (i, seg) in segs.iter().enumerate() {
            let table = match cur {
                Value::Table(t) => t,
                _ => {
                    return Err(ParseError {
                        at: path.to_string(),
                        message: format!("`{}` is not a table", segs[..i].join(".")),
                    })
                }
            };
            if i == segs.len() - 1 {
                table.insert(seg.to_string(), value);
                return Ok(());
            }
            cur = table.entry(seg.to_string()).or_insert_with(Value::table);
        }
        unreachable!("empty path");
    }

    /// Canonical JSON rendering: keys sorted (BTreeMap order), floats via
    /// Rust's shortest round-trip formatting, non-finite floats as `null`.
    /// Identical trees always render identically — the basis for the
    /// campaign content hash and for bitwise-reproducible JSONL output.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Value::Str(s) => write_json_str(s, out),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(x) => out.push_str(&format_f64(*x)),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_canonical(out);
                }
                out.push(']');
            }
            Value::Table(t) => {
                out.push('{');
                for (i, (k, v)) in t.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(k, out);
                    out.push(':');
                    v.write_canonical(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deterministic JSON number rendering for a float; non-finite → `null`.
pub(crate) fn format_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    // Rust's Display for f64 is the shortest round-trip decimal, which is
    // fully deterministic; "2" (not "2.0") is still a valid JSON number.
    format!("{x}")
}

/// JSON string escape.
pub fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
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

/// FNV-1a over a byte string — the campaign content hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Auto-detect TOML vs JSON (JSON documents start with `{`).
pub fn parse_auto(text: &str) -> Result<Value, ParseError> {
    if text.trim_start().starts_with('{') {
        parse_json(text)
    } else {
        parse_toml(text)
    }
}

// ---------------------------------------------------------------------------
// TOML subset
// ---------------------------------------------------------------------------

/// Parse the TOML subset described in the module docs.
pub fn parse_toml(text: &str) -> Result<Value, ParseError> {
    let mut root = Value::table();
    // Path of the table currently receiving keys.
    let mut current: Vec<String> = Vec::new();

    let mut lines = text.lines().enumerate();
    while let Some((lineno, raw)) = lines.next() {
        let mut line = strip_comment(raw).trim().to_string();
        let err = |message: String| ParseError {
            at: format!("line {}", lineno + 1),
            message,
        };
        if line.is_empty() {
            continue;
        }
        // Multi-line arrays/inline tables: keep consuming lines until the
        // brackets opened on this line are balanced again.
        while bracket_depth(&line) > 0 {
            let Some((_, next)) = lines.next() else {
                return Err(err(format!("unterminated value starting at `{line}`")));
            };
            line.push(' ');
            line.push_str(strip_comment(next).trim());
        }
        let line = line.as_str();
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let path: Vec<String> = header
                .trim()
                .split('.')
                .map(|s| s.trim().to_string())
                .collect();
            push_array_table(&mut root, &path)
                .map_err(|m| err(format!("bad array-of-tables header: {m}")))?;
            current = path;
            current.push(String::new()); // marker: inside the last array element
        } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let path: Vec<String> = header
                .trim()
                .split('.')
                .map(|s| s.trim().to_string())
                .collect();
            if path.iter().any(|s| s.is_empty()) {
                return Err(err(format!("bad table header `{line}`")));
            }
            ensure_table(&mut root, &path).map_err(|m| err(format!("bad table header: {m}")))?;
            current = path;
        } else if let Some((key, rest)) = line.split_once('=') {
            let key = key.trim();
            if key.is_empty() || key.contains(' ') {
                return Err(err(format!("bad key `{key}`")));
            }
            let value = parse_toml_value(rest.trim(), 0).map_err(err)?;
            let target = resolve_mut(&mut root, &current)
                .ok_or_else(|| err("internal: lost current table".to_string()))?;
            let Value::Table(t) = target else {
                return Err(err("current header is not a table".to_string()));
            };
            if t.insert(key.to_string(), value).is_some() {
                return Err(err(format!("duplicate key `{key}`")));
            }
        } else {
            return Err(err(format!(
                "expected `key = value` or `[table]`, got `{line}`"
            )));
        }
    }
    Ok(root)
}

/// Net `[`/`{` minus `]`/`}` outside strings (positive ⇒ line continues).
fn bracket_depth(line: &str) -> i32 {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside a basic string starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn ensure_table(root: &mut Value, path: &[String]) -> Result<(), String> {
    let mut cur = root;
    for seg in path {
        let t = match cur {
            Value::Table(t) => t,
            Value::Array(a) => match a.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return Err(format!("`{seg}` addresses a non-table array element")),
            },
            _ => return Err(format!("`{seg}` is not a table")),
        };
        cur = t.entry(seg.clone()).or_insert_with(Value::table);
    }
    Ok(())
}

fn push_array_table(root: &mut Value, path: &[String]) -> Result<(), String> {
    let (last, prefix) = path.split_last().ok_or("empty header")?;
    let mut cur = root;
    for seg in prefix {
        let t = cur.as_table().is_some();
        if !t {
            return Err(format!("`{seg}` is not a table"));
        }
        let Value::Table(table) = cur else {
            unreachable!()
        };
        cur = table.entry(seg.clone()).or_insert_with(Value::table);
    }
    let Value::Table(table) = cur else {
        return Err("array-of-tables parent is not a table".to_string());
    };
    let arr = table
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    let Value::Array(a) = arr else {
        return Err(format!("`{last}` exists and is not an array"));
    };
    a.push(Value::table());
    Ok(())
}

/// Walk `path` where a trailing empty segment means "last element of the
/// array-of-tables addressed by the preceding segments".
fn resolve_mut<'a>(root: &'a mut Value, path: &[String]) -> Option<&'a mut Value> {
    let mut cur = root;
    for seg in path {
        if seg.is_empty() {
            let Value::Array(a) = cur else { return None };
            cur = a.last_mut()?;
        } else {
            let Value::Table(t) = cur else { return None };
            cur = t.get_mut(seg)?;
        }
    }
    Some(cur)
}

/// Deepest array/table nesting either parser accepts. Specs nest a few
/// levels; the bound keeps a hostile document from overflowing the
/// stack of the thread that parses it (a daemon connection handler).
const MAX_NESTING: usize = 128;

fn nesting_error() -> String {
    format!("values nest deeper than {MAX_NESTING} levels")
}

/// Parse one TOML value nested `depth` arrays/inline tables deep.
fn parse_toml_value(s: &str, depth: usize) -> Result<Value, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("missing value".to_string());
    }
    if s.starts_with(['[', '{']) && depth == MAX_NESTING {
        return Err(nesting_error());
    }
    if let Some(rest) = s.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{s}`"))?;
        return Ok(Value::Str(unescape(inner)?));
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if s.starts_with('[') {
        let inner = s
            .strip_prefix('[')
            .and_then(|x| x.strip_suffix(']'))
            .ok_or_else(|| format!("unterminated array `{s}`"))?;
        return Ok(Value::Array(
            split_top_level(inner)?
                .into_iter()
                .map(|item| parse_toml_value(item.trim(), depth + 1))
                .collect::<Result<_, _>>()?,
        ));
    }
    if s.starts_with('{') {
        let inner = s
            .strip_prefix('{')
            .and_then(|x| x.strip_suffix('}'))
            .ok_or_else(|| format!("unterminated inline table `{s}`"))?;
        let mut t = BTreeMap::new();
        for item in split_top_level(inner)? {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (k, v) = item
                .split_once('=')
                .ok_or_else(|| format!("inline table entry `{item}` is not key = value"))?;
            t.insert(k.trim().to_string(), parse_toml_value(v.trim(), depth + 1)?);
        }
        return Ok(Value::Table(t));
    }
    parse_number(s)
}

/// Split on top-level commas (ignoring commas nested in `[]`/`{}`/strings).
fn split_top_level(s: &str) -> Result<Vec<&str>, String> {
    let mut parts = Vec::new();
    let (mut depth, mut in_str, mut start) = (0i32, false, 0usize);
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err(format!("unbalanced brackets in `{s}`"));
    }
    if !s[start..].trim().is_empty() {
        parts.push(&s[start..]);
    }
    Ok(parts)
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code =
                    u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint {code}"))?);
            }
            other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

/// Parse the spec-file number grammar (`3`, `3.0`, `1.5e-3`, `1_000`)
/// into an [`Value::Int`]/[`Value::Float`] — shared with the typed
/// `key=value` argument layer so every input surface types numbers the
/// same way.
pub(crate) fn parse_number(s: &str) -> Result<Value, String> {
    let cleaned = s.replace('_', "");
    if !cleaned.contains(['.', 'e', 'E']) || cleaned.starts_with("0x") {
        // `-0` stays a float: an integer has no negative zero, and `-0`
        // is how [`Value::canonical`] renders the float `-0.0`.
        if let Some(i) = cleaned
            .parse::<i64>()
            .ok()
            .filter(|&i| i != 0 || !cleaned.starts_with('-'))
        {
            return Ok(Value::Int(i));
        }
    }
    cleaned
        .parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("`{s}` is not a number, boolean, string, array or inline table"))
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = json_value(bytes, &mut pos, 0)?;
    json_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(json_err(pos, "trailing characters"));
    }
    Ok(v)
}

fn json_err(pos: usize, message: &str) -> ParseError {
    ParseError {
        at: format!("offset {pos}"),
        message: message.to_string(),
    }
}

fn json_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one JSON value nested `depth` arrays/objects deep.
fn json_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    json_ws(b, pos);
    match b.get(*pos) {
        None => Err(json_err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_NESTING => Err(json_err(*pos, &nesting_error())),
        Some(b'{') => {
            *pos += 1;
            let mut t = BTreeMap::new();
            json_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Table(t));
            }
            loop {
                json_ws(b, pos);
                let Value::Str(key) = json_string(b, pos)? else {
                    unreachable!()
                };
                json_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(json_err(*pos, "expected `:`"));
                }
                *pos += 1;
                let v = json_value(b, pos, depth + 1)?;
                t.insert(key, v);
                json_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Table(t));
                    }
                    _ => return Err(json_err(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut a = Vec::new();
            json_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(a));
            }
            loop {
                a.push(json_value(b, pos, depth + 1)?);
                json_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(a));
                    }
                    _ => return Err(json_err(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'"') => json_string(b, pos),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            // Campaign rows use null for non-finite observables.
            *pos += 4;
            Ok(Value::Float(f64::NAN))
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).unwrap();
            parse_number(s).map_err(|m| json_err(start, &m))
        }
    }
}

fn json_string(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(json_err(*pos, "expected string"));
    }
    *pos += 1;
    let start = *pos;
    let mut escaped = false;
    while *pos < b.len() {
        match b[*pos] {
            b'\\' => {
                escaped = true;
                *pos += 2;
            }
            b'"' => {
                let raw = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| json_err(start, "invalid utf-8"))?;
                *pos += 1;
                let s = if escaped {
                    unescape(raw).map_err(|m| json_err(start, &m))?
                } else {
                    raw.to_string()
                };
                return Ok(Value::Str(s));
            }
            _ => *pos += 1,
        }
    }
    Err(json_err(start, "unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_tables_scalars_arrays() {
        let v = parse_toml(
            r#"
            # campaign
            title = "demo"
            [campaign]
            seed = 42            # trailing comment
            gain = 1.5e-3
            flag = true
            [model]
            distances = [-1, 1]
            grid = { start = 0.5, stop = 8.0, steps = 4 }
            "#,
        )
        .unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("campaign.seed").unwrap().as_i64(), Some(42));
        assert_eq!(v.get("campaign.gain").unwrap().as_f64(), Some(1.5e-3));
        assert_eq!(v.get("campaign.flag").unwrap().as_bool(), Some(true));
        let d = v.get("model.distances").unwrap().as_array().unwrap();
        assert_eq!(
            d.iter().map(|x| x.as_i64().unwrap()).collect::<Vec<_>>(),
            vec![-1, 1]
        );
        assert_eq!(v.get("model.grid.steps").unwrap().as_i64(), Some(4));
    }

    #[test]
    fn toml_array_of_tables() {
        let v = parse_toml(
            r#"
            [[axes]]
            key = "model.sigma"
            values = [0.5, 1.0]
            [[axes]]
            key = "model.coupling"
            values = [2, 4]
            "#,
        )
        .unwrap();
        let axes = v.get("axes").unwrap().as_array().unwrap();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[1].get("key").unwrap().as_str(), Some("model.coupling"));
    }

    #[test]
    fn toml_nested_arrays_for_zipped_axes() {
        let v =
            parse_toml(r#"values = [[[-1, 1], "eager"], [[-2, -1, 1], "rendezvous"]]"#).unwrap();
        let vals = v.get("values").unwrap().as_array().unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0].as_array().unwrap()[1].as_str(), Some("eager"));
        assert_eq!(vals[1].as_array().unwrap()[0].as_array().unwrap().len(), 3);
    }

    #[test]
    fn toml_multiline_arrays() {
        let v = parse_toml(
            r#"
            values = [
                [[-1, 1], "eager"],   # first case
                [[-2, -1, 1], "rendezvous"],
            ]
            after = 7
            "#,
        )
        .unwrap();
        let vals = v.get("values").unwrap().as_array().unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[1].as_array().unwrap()[1].as_str(), Some("rendezvous"));
        assert_eq!(v.get("after").unwrap().as_i64(), Some(7));
    }

    #[test]
    fn toml_errors_carry_line_numbers() {
        let e = parse_toml("ok = 1\nbroken").unwrap_err();
        assert!(e.at.contains("line 2"), "{e}");
        let e = parse_toml("k = 1\nk = 2").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn json_round_trip() {
        let src = r#"{"campaign":{"name":"j","seed":7},"axes":[{"key":"model.sigma","values":[0.5,1]}],"ok":true,"s":"a\nb"}"#;
        let v = parse_json(src).unwrap();
        assert_eq!(v.get("campaign.seed").unwrap().as_i64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\nb"));
        // Canonicalization is stable under re-parsing.
        let c1 = v.canonical();
        let c2 = parse_json(&c1).unwrap().canonical();
        assert_eq!(c1, c2);
    }

    #[test]
    fn auto_detects_format() {
        assert!(parse_auto(r#"{"a": 1}"#).unwrap().get("a").is_some());
        assert!(parse_auto("a = 1").unwrap().get("a").is_some());
    }

    #[test]
    fn canonical_is_sorted_and_deterministic() {
        let mut t = Value::table();
        t.set("b", Value::Int(2)).unwrap();
        t.set("a.x", Value::Float(0.5)).unwrap();
        assert_eq!(t.canonical(), r#"{"a":{"x":0.5},"b":2}"#);
        assert_eq!(
            fnv1a(t.canonical().as_bytes()),
            fnv1a(t.canonical().as_bytes())
        );
    }

    #[test]
    fn set_rejects_non_table_intermediate() {
        let mut t = Value::table();
        t.set("a", Value::Int(1)).unwrap();
        assert!(t.set("a.b", Value::Int(2)).is_err());
    }
}
