//! Declarative command registry: one definition per command drives CLI
//! parsing, help text, and the daemon's request schema.
//!
//! Before this module every front end re-listed its argument surface by
//! hand: `pom-cli` had a 1400-line dispatcher plus a hand-maintained
//! USAGE block, `pom-serve` re-listed accepted query keys per route, and
//! the sweep-spec parser kept its own allowed-key tables. Each new knob
//! had to be threaded through all three, and they could silently drift.
//!
//! Now a command is *data*: an [`ArgSpec`] table (name, [`ArgKind`],
//! default, doc line, positional/required flags) inside a
//! [`CommandSpec`]. One generic driver ([`CommandSpec::parse`]) turns
//! `key=value` words and positionals into a typed [`Parsed`] table,
//! rejecting unknown keys (with a "did you mean" suggestion), duplicate
//! keys, bad types and stray positionals with one set of [`ArgError`]
//! wordings. From the same
//! tables the registry generates:
//!
//! * the CLI help (full command table and per-command pages),
//! * the daemon's `GET /schema` document ([`Registry::schema_json`]),
//! * the committed `docs/CLI.md` reference ([`Registry::markdown`]),
//! * sweep-spec section validation (`SectionSpec::check`).
//!
//! The toolkit's own definitions live in [`defs`]; [`toolkit`] returns
//! the whole registry.

pub mod defs;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::args::ArgError;
use crate::value::{parse_number, write_json_str, Value};

/// The type of one argument value; drives parsing, spec-file kind
/// checks, and the rendered schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgKind {
    /// `0`/`1`/`true`/`false`/`yes`/`no`.
    Bool,
    /// A non-negative integer (spec number grammar: `1_000` works).
    U64,
    /// A float (spec number grammar: `1.5e-3` works).
    F64,
    /// Any string.
    Str,
    /// A filesystem path (string; tagged for docs/schema).
    Path,
    /// Comma-separated signed integers (`distances=-2,-1,1`).
    IntList,
    /// An array of strings (spec files only, e.g. `observables`).
    StrList,
    /// One of a closed set of variants.
    Enum {
        /// Every accepted spelling.
        variants: &'static [&'static str],
        /// Pre-rendered expected-value phrase for error messages
        /// (e.g. `"one of a, b, c, d"`).
        expected: &'static str,
    },
}

impl ArgKind {
    /// Machine-readable kind tag (schema/docs).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ArgKind::Bool => "bool",
            ArgKind::U64 => "u64",
            ArgKind::F64 => "f64",
            ArgKind::Str => "string",
            ArgKind::Path => "path",
            ArgKind::IntList => "int-list",
            ArgKind::StrList => "string-list",
            ArgKind::Enum { .. } => "enum",
        }
    }

    /// The expected-value phrase used in [`ArgError::BadValue`].
    pub(crate) fn expected(&self) -> &'static str {
        match self {
            ArgKind::Bool => "a boolean (0/1/true/false)",
            ArgKind::U64 => "a non-negative integer",
            ArgKind::F64 => "a number",
            ArgKind::Str | ArgKind::Path => "a string",
            ArgKind::IntList => "comma-separated integers",
            ArgKind::StrList => "comma-separated names",
            ArgKind::Enum { expected, .. } => expected,
        }
    }

    /// Parse one raw CLI/query value into a typed [`ArgValue`].
    pub(crate) fn parse_value(&self, key: &str, raw: &str) -> Result<ArgValue, ArgError> {
        let bad = || ArgError::BadValue {
            key: key.to_string(),
            value: raw.to_string(),
            expected: self.expected(),
        };
        match self {
            ArgKind::Bool => match raw {
                "1" | "true" | "yes" => Ok(ArgValue::Bool(true)),
                "0" | "false" | "no" => Ok(ArgValue::Bool(false)),
                _ => Err(bad()),
            },
            ArgKind::U64 => parse_number(raw)
                .ok()
                .and_then(|v| v.as_i64())
                .and_then(|i| u64::try_from(i).ok())
                .map(ArgValue::U64)
                .ok_or_else(bad),
            ArgKind::F64 => parse_number(raw)
                .ok()
                .and_then(|v| v.as_f64())
                .map(ArgValue::F64)
                .ok_or_else(bad),
            ArgKind::Str | ArgKind::Path => Ok(ArgValue::Str(raw.to_string())),
            ArgKind::IntList => raw
                .split(',')
                .map(|p| p.trim().parse().map_err(|_| bad()))
                .collect::<Result<Vec<i32>, _>>()
                .map(ArgValue::Ints),
            ArgKind::StrList => Ok(ArgValue::Strs(
                raw.split(',').map(|p| p.trim().to_string()).collect(),
            )),
            ArgKind::Enum { variants, .. } => {
                if variants.contains(&raw) {
                    Ok(ArgValue::Str(raw.to_string()))
                } else {
                    Err(bad())
                }
            }
        }
    }

    /// Does a spec-file [`Value`] satisfy this kind? (Enum membership is
    /// left to the scenario resolver, which owns the legacy wordings —
    /// the kind check only demands a string.)
    pub(crate) fn admits(&self, v: &Value) -> bool {
        match self {
            ArgKind::Bool => v.as_bool().is_some(),
            ArgKind::U64 => v.as_i64().is_some_and(|i| i >= 0),
            ArgKind::F64 => v.as_f64().is_some(),
            ArgKind::Str | ArgKind::Path | ArgKind::Enum { .. } => v.as_str().is_some(),
            ArgKind::IntList => v
                .as_array()
                .is_some_and(|a| a.iter().all(|e| e.as_i64().is_some())),
            ArgKind::StrList => v
                .as_array()
                .is_some_and(|a| a.iter().all(|e| e.as_str().is_some())),
        }
    }

    /// The `must be …` phrase for spec-file kind mismatches.
    fn spec_phrase(&self) -> &'static str {
        match self {
            ArgKind::Bool => "a bool",
            ArgKind::U64 => "a non-negative integer",
            ArgKind::F64 => "a number",
            ArgKind::Str | ArgKind::Path | ArgKind::Enum { .. } => "a string",
            ArgKind::IntList => "an array of integers",
            ArgKind::StrList => "an array of strings",
        }
    }
}

/// One parsed argument value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ArgValue {
    /// Boolean flag.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// String, path, or enum variant.
    Str(String),
    /// Signed integer list.
    Ints(Vec<i32>),
    /// String list.
    Strs(Vec<String>),
}

/// One declared argument: everything the drivers, help, and schema need.
///
/// Built with the const chain `ArgSpec::new(..).with_default(..)` so the
/// [`defs`] tables stay readable.
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Canonical key.
    pub name: &'static str,
    /// Alternate accepted spellings (e.g. `rhs_threads` for
    /// `rhs-threads`); they parse into the canonical name.
    pub aliases: &'static [&'static str],
    /// Value type.
    pub kind: ArgKind,
    /// Default, rendered exactly as a user would type it; parsed through
    /// `ArgKind::parse_value` when the key is absent.
    pub default: Option<&'static str>,
    /// Reject the invocation when absent.
    pub required: bool,
    /// Fillable by a bare word (no `key=`); `key=value` also works.
    pub positional: bool,
    /// One-line description (help, docs, and error explanations).
    pub doc: &'static str,
}

impl ArgSpec {
    /// A plain optional keyword argument.
    pub const fn new(name: &'static str, kind: ArgKind, doc: &'static str) -> Self {
        Self {
            name,
            aliases: &[],
            kind,
            default: None,
            required: false,
            positional: false,
            doc,
        }
    }

    /// Attach a default value (given as the user would type it).
    pub const fn with_default(mut self, default: &'static str) -> Self {
        self.default = Some(default);
        self
    }

    /// Mark required.
    pub const fn required(mut self) -> Self {
        self.required = true;
        self
    }

    /// Mark positional (a bare word can fill it).
    pub const fn positional(mut self) -> Self {
        self.positional = true;
        self
    }

    /// Accept alternate spellings.
    pub(crate) const fn with_aliases(mut self, aliases: &'static [&'static str]) -> Self {
        self.aliases = aliases;
        self
    }

    /// Does `key` address this argument (canonical name or alias)?
    pub(crate) fn matches(&self, key: &str) -> bool {
        self.name == key || self.aliases.contains(&key)
    }
}

/// One CLI command: name, summary, argument table, examples.
///
/// ```
/// use pom_sweep::registry::{ArgKind, ArgSpec, CommandSpec};
///
/// static ARGS: &[ArgSpec] = &[
///     ArgSpec::new("spec", ArgKind::Path, "campaign spec file")
///         .required()
///         .positional(),
///     ArgSpec::new("threads", ArgKind::U64, "worker threads").with_default("0"),
/// ];
/// static SWEEP: CommandSpec = CommandSpec {
///     name: "sweep",
///     aliases: &[],
///     summary: "run a campaign",
///     args: ARGS,
///     examples: &[],
/// };
///
/// // One driver parses positionals and key=value words into a typed
/// // table; unknown keys, duplicates and type errors are rejected with
/// // the shared `ArgError` wordings.
/// let parsed = SWEEP.parse(["run.toml", "threads=4"]).unwrap();
/// assert_eq!(parsed.str("spec"), "run.toml");
/// assert_eq!(parsed.u64("threads"), 4);
/// assert!(SWEEP.parse(["run.toml", "treads=4"]).is_err()); // did you mean `threads`?
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CommandSpec {
    /// Command word.
    pub name: &'static str,
    /// Alternate command words (e.g. `--help` for `help`).
    pub aliases: &'static [&'static str],
    /// One-line summary for the command table.
    pub summary: &'static str,
    /// Declared arguments.
    pub args: &'static [ArgSpec],
    /// Example invocations (shown in per-command help).
    pub examples: &'static [&'static str],
}

impl CommandSpec {
    /// Parse CLI words (`key=value` or positionals) against this spec.
    pub fn parse<I, S>(&self, words: I) -> Result<Parsed, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        parse_words(self.args, words)
    }

    /// `usage`-style one-liner: `pom sweep <spec> [key=value ...]`.
    pub(crate) fn usage(&self) -> String {
        let mut out = format!("pom {}", self.name);
        for a in self.args.iter().filter(|a| a.positional) {
            let _ = write!(
                out,
                " {}",
                if a.required {
                    format!("<{}>", a.name)
                } else {
                    format!("[{}]", a.name)
                }
            );
        }
        if self.args.iter().any(|a| !a.positional) {
            out.push_str(" [key=value ...]");
        }
        out
    }

    /// The per-command help page (`pom help <cmd>`).
    pub fn help_page(&self) -> String {
        let mut out = format!(
            "pom {} — {}\n\nUSAGE: {}\n",
            self.name,
            self.summary,
            self.usage()
        );
        if !self.args.is_empty() {
            out.push_str("\nARGUMENTS\n");
            let labels: Vec<String> = self.args.iter().map(arg_label).collect();
            let width = labels.iter().map(String::len).max().unwrap_or(0);
            for (a, label) in self.args.iter().zip(&labels) {
                let _ = writeln!(out, "  {label:<width$}  {}{}", a.doc, arg_notes(a));
            }
        }
        if !self.examples.is_empty() {
            out.push_str("\nEXAMPLES\n");
            for e in self.examples {
                let _ = writeln!(out, "  {e}");
            }
        }
        out
    }

    /// Append the offending key's doc line to a parse error, so the
    /// message both names the key and says what the key means. Shared by
    /// the CLI and the HTTP API — both front ends produce the same text.
    pub fn explain(&self, e: &ArgError) -> String {
        explain(self.args, e)
    }
}

/// One HTTP route: method, path pattern, summary, query-arg table.
#[derive(Debug, Clone, Copy)]
pub struct RouteSpec {
    /// HTTP method.
    pub method: &'static str,
    /// Path pattern (`/jobs/{id}/rows`).
    pub path: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Accepted query parameters.
    pub args: &'static [ArgSpec],
}

impl RouteSpec {
    /// Validate a query string against the declared parameters.
    pub fn parse_pairs<I, K, V>(&self, pairs: I) -> Result<Parsed, ArgError>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: AsRef<str>,
    {
        parse_pairs(self.args, pairs)
    }

    /// See [`CommandSpec::explain`].
    pub fn explain(&self, e: &ArgError) -> String {
        explain(self.args, e)
    }
}

/// One sweep-spec section (`[model]`, `[sim]`, …) with its key table.
#[derive(Debug, Clone, Copy)]
pub struct SectionSpec {
    /// Section name as written in the spec file.
    pub name: &'static str,
    /// Which workload the section belongs to (`model`, `mpisim`, or
    /// `both`) — docs/schema metadata, and the lookup discriminator for
    /// the two `[inject]` shapes.
    pub workload: &'static str,
    /// Accepted keys.
    pub keys: &'static [ArgSpec],
}

impl SectionSpec {
    /// Validate a parsed section table: unknown keys use the legacy
    /// `unknown key `sec.k` (allowed: …)` wording, kind mismatches the
    /// legacy `` `sec.k` must be … `` wording. Enum membership is left
    /// to the scenario resolver (it owns those wordings).
    pub(crate) fn check(&self, t: &BTreeMap<String, Value>) -> Result<(), String> {
        for (k, v) in t {
            let Some(spec) = self.keys.iter().find(|a| a.matches(k)) else {
                let allowed: Vec<&str> = self.keys.iter().map(|a| a.name).collect();
                return Err(format!(
                    "unknown key `{}.{k}` (allowed: {})",
                    self.name,
                    allowed.join(", ")
                ));
            };
            if !spec.kind.admits(v) {
                return Err(format!(
                    "`{}.{k}` must be {}",
                    self.name,
                    spec.kind.spec_phrase()
                ));
            }
        }
        Ok(())
    }
}

/// The whole registry: every command, route, and spec section.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    /// CLI commands, in help order.
    pub commands: &'static [CommandSpec],
    /// HTTP routes, in docs order.
    pub routes: &'static [RouteSpec],
    /// Sweep-spec sections.
    pub sections: &'static [SectionSpec],
}

impl Registry {
    /// Look up a command by name or alias.
    pub fn command(&self, name: &str) -> Option<&'static CommandSpec> {
        self.commands
            .iter()
            .find(|c| c.name == name || c.aliases.contains(&name))
    }

    /// Look up a spec section by name and workload.
    pub(crate) fn section(&self, name: &str, workload: &str) -> Option<&'static SectionSpec> {
        self.sections
            .iter()
            .find(|s| s.name == name && (s.workload == workload || s.workload == "both"))
    }

    /// The closest command name within edit distance 2 ("did you mean").
    pub fn suggest_command(&self, input: &str) -> Option<&'static str> {
        closest(input, self.commands.iter().map(|c| c.name))
    }

    /// The full `pom help` table, generated from the command list.
    pub fn help(&self) -> String {
        let mut out = String::from(
            "pom — Physical Oscillator Model toolkit (arXiv:2310.05701 reproduction)\n\
             \n\
             USAGE: pom <command> [key=value ...]\n\
             \n\
             COMMANDS\n",
        );
        let width = self
            .commands
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(0);
        for c in self.commands {
            let _ = writeln!(out, "  {:<width$}  {}", c.name, c.summary);
        }
        out.push_str(
            "\nRun `pom help <command>` for one command's arguments, and\n\
             `pom help format=json` for the machine-readable registry\n\
             (the same document the daemon serves at GET /schema).\n",
        );
        out
    }

    /// The registry as deterministic JSON — the `GET /schema` body and
    /// the `pom help format=json` dump (identical by construction).
    pub fn schema_json(&self) -> String {
        let mut out = String::from("{\"commands\":[");
        for (i, c) in self.commands.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_str(c.name, &mut out);
            out.push_str(",\"aliases\":");
            json_str_list(&mut out, c.aliases);
            out.push_str(",\"summary\":");
            write_json_str(c.summary, &mut out);
            out.push_str(",\"args\":");
            json_args(&mut out, c.args);
            out.push_str(",\"examples\":");
            json_str_list(&mut out, c.examples);
            out.push('}');
        }
        out.push_str("],\"routes\":[");
        for (i, r) in self.routes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"method\":");
            write_json_str(r.method, &mut out);
            out.push_str(",\"path\":");
            write_json_str(r.path, &mut out);
            out.push_str(",\"summary\":");
            write_json_str(r.summary, &mut out);
            out.push_str(",\"args\":");
            json_args(&mut out, r.args);
            out.push('}');
        }
        out.push_str("],\"sections\":[");
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_str(s.name, &mut out);
            out.push_str(",\"workload\":");
            write_json_str(s.workload, &mut out);
            out.push_str(",\"keys\":");
            json_args(&mut out, s.keys);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The committed CLI reference (`docs/CLI.md`), regenerated by
    /// `pom help format=md`; the `help_sync` test fails when stale.
    pub fn markdown(&self) -> String {
        let mut out = String::from(
            "# pom command reference\n\n\
             > Generated from the command registry (`pom_sweep::registry`) by\n\
             > `pom help format=md > docs/CLI.md`. Do not edit by hand — the\n\
             > `help_sync` test fails when this file is stale.\n\n\
             ## CLI commands\n\n",
        );
        for c in self.commands {
            let _ = writeln!(out, "### `{}`\n\n{}\n", c.usage(), c.summary);
            md_args(&mut out, c.args);
            if !c.examples.is_empty() {
                out.push_str("Examples:\n\n");
                for e in c.examples {
                    let _ = writeln!(out, "```\n{e}\n```");
                }
                out.push('\n');
            }
        }
        out.push_str("## HTTP API (`pom serve`)\n\n");
        for r in self.routes {
            let _ = writeln!(out, "### `{} {}`\n\n{}\n", r.method, r.path, r.summary);
            md_args(&mut out, r.args);
        }
        out.push_str("## Sweep-spec sections\n\n");
        for s in self.sections {
            let _ = writeln!(out, "### `[{}]` ({} workload)\n", s.name, s.workload);
            md_args(&mut out, s.keys);
        }
        out
    }
}

/// The toolkit's registry (every `pom` command, daemon route, and spec
/// section).
pub fn toolkit() -> &'static Registry {
    &defs::TOOLKIT
}

/// A parsed, typed argument table: declared defaults applied, every
/// value already through its [`ArgKind`]. Accessors panic on a key the
/// spec does not declare with that kind — that is a programmer error
/// (the structural registry tests pin every table).
#[derive(Debug, Clone)]
pub struct Parsed {
    values: BTreeMap<&'static str, ArgValue>,
    given: Vec<&'static str>,
}

impl Parsed {
    /// Was the key explicitly given (not just defaulted)?
    pub fn is_given(&self, name: &str) -> bool {
        self.given.contains(&name)
    }

    fn value(&self, name: &str) -> Option<&ArgValue> {
        self.values.get(name)
    }

    fn expect(&self, name: &str) -> &ArgValue {
        self.value(name)
            .unwrap_or_else(|| panic!("argument `{name}` has no value and no default in this spec"))
    }

    /// Required/defaulted bool.
    pub fn bool(&self, name: &str) -> bool {
        match self.expect(name) {
            ArgValue::Bool(b) => *b,
            v => panic!("argument `{name}` is not a bool: {v:?}"),
        }
    }

    /// Required/defaulted u64.
    pub fn u64(&self, name: &str) -> u64 {
        match self.expect(name) {
            ArgValue::U64(n) => *n,
            v => panic!("argument `{name}` is not a u64: {v:?}"),
        }
    }

    /// Required/defaulted usize.
    pub fn usize(&self, name: &str) -> usize {
        usize::try_from(self.u64(name)).expect("u64 fits usize")
    }

    /// Required/defaulted f64.
    pub fn f64(&self, name: &str) -> f64 {
        match self.expect(name) {
            ArgValue::F64(x) => *x,
            v => panic!("argument `{name}` is not an f64: {v:?}"),
        }
    }

    /// Required/defaulted string (or enum variant).
    pub fn str(&self, name: &str) -> &str {
        match self.expect(name) {
            ArgValue::Str(s) => s,
            v => panic!("argument `{name}` is not a string: {v:?}"),
        }
    }

    /// Required/defaulted integer list.
    pub fn ints(&self, name: &str) -> &[i32] {
        match self.expect(name) {
            ArgValue::Ints(l) => l,
            v => panic!("argument `{name}` is not an int list: {v:?}"),
        }
    }

    /// Optional u64 (no default declared).
    pub fn opt_u64(&self, name: &str) -> Option<u64> {
        self.value(name).map(|v| match v {
            ArgValue::U64(n) => *n,
            v => panic!("argument `{name}` is not a u64: {v:?}"),
        })
    }

    /// Optional usize (no default declared).
    pub fn opt_usize(&self, name: &str) -> Option<usize> {
        self.opt_u64(name)
            .map(|n| usize::try_from(n).expect("u64 fits usize"))
    }

    /// Optional f64 (no default declared).
    pub fn opt_f64(&self, name: &str) -> Option<f64> {
        self.value(name).map(|v| match v {
            ArgValue::F64(x) => *x,
            v => panic!("argument `{name}` is not an f64: {v:?}"),
        })
    }

    /// Optional string (no default declared).
    pub fn opt_str(&self, name: &str) -> Option<&str> {
        self.value(name).map(|v| match v {
            ArgValue::Str(s) => s.as_str(),
            v => panic!("argument `{name}` is not a string: {v:?}"),
        })
    }
}

/// Generic driver for CLI words: `key=value` in any position, bare
/// words fill declared positionals in order. Surplus bare words are an
/// [`ArgError::UnexpectedPositional`] when the command declares any
/// positional, and the legacy [`ArgError::Malformed`] when it declares
/// none (nothing a bare word could have meant).
pub(crate) fn parse_words<I, S>(table: &'static [ArgSpec], words: I) -> Result<Parsed, ArgError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut positionals = table.iter().filter(|a| a.positional);
    let has_positionals = table.iter().any(|a| a.positional);
    let mut raw: Vec<(&'static ArgSpec, String)> = Vec::new();
    for word in words {
        let word = word.as_ref();
        if let Some((k, v)) = word.split_once('=') {
            let k = k.trim();
            let spec = find_arg(table, k).ok_or_else(|| unknown_key(table, k))?;
            raw.push((spec, v.trim().to_string()));
        } else if let Some(spec) = positionals.next() {
            raw.push((spec, word.trim().to_string()));
        } else if has_positionals {
            return Err(ArgError::UnexpectedPositional(word.to_string()));
        } else {
            return Err(ArgError::Malformed(word.to_string()));
        }
    }
    finish(table, raw)
}

/// Generic driver for pre-split pairs (HTTP query strings).
pub(crate) fn parse_pairs<I, K, V>(table: &'static [ArgSpec], pairs: I) -> Result<Parsed, ArgError>
where
    I: IntoIterator<Item = (K, V)>,
    K: AsRef<str>,
    V: AsRef<str>,
{
    let mut raw: Vec<(&'static ArgSpec, String)> = Vec::new();
    for (k, v) in pairs {
        let k = k.as_ref().trim();
        let spec = find_arg(table, k).ok_or_else(|| unknown_key(table, k))?;
        raw.push((spec, v.as_ref().trim().to_string()));
    }
    finish(table, raw)
}

/// Shared tail: duplicate detection, typed conversion, defaults,
/// required keys.
fn finish(
    table: &'static [ArgSpec],
    raw: Vec<(&'static ArgSpec, String)>,
) -> Result<Parsed, ArgError> {
    let mut values = BTreeMap::new();
    let mut given = Vec::new();
    for (spec, v) in raw {
        if values.contains_key(spec.name) {
            return Err(ArgError::Duplicate(spec.name.to_string()));
        }
        values.insert(spec.name, spec.kind.parse_value(spec.name, &v)?);
        given.push(spec.name);
    }
    for spec in table {
        if values.contains_key(spec.name) {
            continue;
        }
        if let Some(default) = spec.default {
            let v = spec
                .kind
                .parse_value(spec.name, default)
                .unwrap_or_else(|e| panic!("default for `{}` does not parse: {e}", spec.name));
            values.insert(spec.name, v);
        } else if spec.required {
            return Err(ArgError::Missing(spec.name));
        }
    }
    Ok(Parsed { values, given })
}

/// Append the offending key's doc line to a parse error. Both front
/// ends (CLI and HTTP) route errors through this, so the differential
/// suite can compare them verbatim.
pub(crate) fn explain(table: &'static [ArgSpec], e: &ArgError) -> String {
    let key = match e {
        ArgError::Duplicate(k) => Some(k.as_str()),
        ArgError::Missing(k) => Some(*k),
        ArgError::BadValue { key, .. } => Some(key.as_str()),
        _ => None,
    };
    match key.and_then(|k| find_arg(table, k)) {
        Some(spec) if !spec.doc.is_empty() => format!("{e} — {}: {}", spec.name, spec.doc),
        _ => e.to_string(),
    }
}

fn find_arg(table: &'static [ArgSpec], key: &str) -> Option<&'static ArgSpec> {
    table.iter().find(|a| a.matches(key))
}

fn unknown_key(table: &'static [ArgSpec], key: &str) -> ArgError {
    let accepted: Vec<&str> = table.iter().map(|a| a.name).collect();
    ArgError::Unknown {
        key: key.to_string(),
        suggestion: closest(key, accepted.iter().copied()).map(str::to_string),
        accepted: accepted.join(", "),
    }
}

/// Levenshtein edit distance (iterative two-row DP).
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate within edit distance 2 of `input`, closest first
/// (ties: first declared). `None` when nothing is close.
pub(crate) fn closest<'a>(
    input: &str,
    candidates: impl Iterator<Item = &'a str>,
) -> Option<&'a str> {
    candidates
        .map(|c| (edit_distance(input, c), c))
        .filter(|(d, _)| *d <= 2)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

fn arg_label(a: &ArgSpec) -> String {
    if a.positional {
        let tag = if a.required { "required" } else { "optional" };
        format!("<{}> ({tag} positional)", a.name)
    } else {
        match a.default {
            Some(d) => format!("{}={d}", a.name),
            None => format!("{}=…", a.name),
        }
    }
}

fn arg_notes(a: &ArgSpec) -> String {
    let mut notes = Vec::new();
    if let ArgKind::Enum { variants, .. } = a.kind {
        notes.push(format!("one of: {}", variants.join(", ")));
    }
    if !a.aliases.is_empty() {
        notes.push(format!("alias: {}", a.aliases.join(", ")));
    }
    if notes.is_empty() {
        String::new()
    } else {
        format!(" [{}]", notes.join("; "))
    }
}

fn json_str_list(out: &mut String, items: &[&str]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(s, out);
    }
    out.push(']');
}

fn json_args(out: &mut String, args: &[ArgSpec]) {
    out.push('[');
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_str(a.name, out);
        out.push_str(",\"kind\":");
        write_json_str(a.kind.name(), out);
        out.push_str(",\"aliases\":");
        json_str_list(out, a.aliases);
        out.push_str(",\"default\":");
        match a.default {
            Some(d) => write_json_str(d, out),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"required\":{},\"positional\":{}",
            a.required, a.positional
        );
        out.push_str(",\"variants\":");
        match a.kind {
            ArgKind::Enum { variants, .. } => json_str_list(out, variants),
            _ => out.push_str("null"),
        }
        out.push_str(",\"doc\":");
        write_json_str(a.doc, out);
        out.push('}');
    }
    out.push(']');
}

fn md_args(out: &mut String, args: &[ArgSpec]) {
    if args.is_empty() {
        out.push_str("No arguments.\n\n");
        return;
    }
    out.push_str("| key | kind | default | description |\n|---|---|---|---|\n");
    for a in args {
        let mut kind = a.kind.name().to_string();
        if let ArgKind::Enum { variants, .. } = a.kind {
            kind = variants.join("\\|");
        }
        let default = match (a.positional, a.required, a.default) {
            (true, true, _) => "*(required positional)*".to_string(),
            (true, false, _) => "*(positional)*".to_string(),
            (_, true, _) => "*(required)*".to_string(),
            (_, _, Some(d)) => format!("`{d}`"),
            (_, _, None) => "—".to_string(),
        };
        let mut doc = a.doc.to_string();
        if !a.aliases.is_empty() {
            let _ = write!(doc, " (alias: `{}`)", a.aliases.join("`, `"));
        }
        let _ = writeln!(out, "| `{}` | {kind} | {default} | {doc} |", a.name);
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    static T: &[ArgSpec] = &[
        ArgSpec::new("spec", ArgKind::Path, "the spec file")
            .required()
            .positional(),
        ArgSpec::new("threads", ArgKind::U64, "worker threads").with_default("0"),
        ArgSpec::new("gain", ArgKind::F64, "gain"),
        ArgSpec::new(
            "mode",
            ArgKind::Enum {
                variants: &["fast", "slow"],
                expected: "one of fast, slow",
            },
            "speed mode",
        )
        .with_default("fast"),
        ArgSpec::new("rhs-threads", ArgKind::U64, "rhs threads")
            .with_default("1")
            .with_aliases(&["rhs_threads"]),
        ArgSpec::new("follow", ArgKind::Bool, "tail the stream").with_default("0"),
        ArgSpec::new("distances", ArgKind::IntList, "offsets").with_default("-1,1"),
    ];

    #[test]
    fn positional_and_keyed_forms_agree() {
        let a = parse_words(T, ["x.toml", "threads=4"]).unwrap();
        let b = parse_words(T, ["spec=x.toml", "threads=4"]).unwrap();
        assert_eq!(a.str("spec"), b.str("spec"));
        assert_eq!(a.u64("threads"), 4);
    }

    #[test]
    fn defaults_apply_and_is_given_tracks() {
        let p = parse_words(T, ["x.toml"]).unwrap();
        assert_eq!(p.u64("threads"), 0);
        assert_eq!(p.str("mode"), "fast");
        assert!(!p.bool("follow"));
        assert_eq!(p.ints("distances"), &[-1, 1]);
        assert!(p.is_given("spec"));
        assert!(!p.is_given("threads"));
        assert_eq!(p.opt_f64("gain"), None);
        let p = parse_words(T, ["x.toml", "gain=1.5e-3"]).unwrap();
        assert_eq!(p.opt_f64("gain"), Some(1.5e-3));
    }

    #[test]
    fn missing_required_positional_is_named() {
        assert_eq!(
            parse_words(T, Vec::<String>::new()).unwrap_err(),
            ArgError::Missing("spec")
        );
    }

    #[test]
    fn surplus_positional_is_rejected() {
        let e = parse_words(T, ["x.toml", "y.toml"]).unwrap_err();
        assert_eq!(e, ArgError::UnexpectedPositional("y.toml".into()));
        // A command with no declared positionals keeps the legacy
        // malformed wording for a bare word.
        static NP: &[ArgSpec] = &[ArgSpec::new("n", ArgKind::U64, "count").with_default("1")];
        let e = parse_words(NP, ["oops"]).unwrap_err();
        assert_eq!(e, ArgError::Malformed("oops".into()));
    }

    #[test]
    fn unknown_key_suggests_nearest() {
        let e = parse_words(T, ["x.toml", "treads=4"]).unwrap_err();
        match &e {
            ArgError::Unknown {
                key, suggestion, ..
            } => {
                assert_eq!(key, "treads");
                assert_eq!(suggestion.as_deref(), Some("threads"));
            }
            other => panic!("{other:?}"),
        }
        let msg = e.to_string();
        assert!(msg.contains("`treads`"), "{msg}");
        assert!(msg.contains("did you mean `threads`?"), "{msg}");
        assert!(msg.contains("accepted: spec, threads"), "{msg}");
    }

    #[test]
    fn aliases_parse_into_canonical_and_duplicate_across_spellings() {
        let p = parse_words(T, ["x.toml", "rhs_threads=3"]).unwrap();
        assert_eq!(p.u64("rhs-threads"), 3);
        assert!(p.is_given("rhs-threads"));
        let e = parse_words(T, ["x.toml", "rhs_threads=3", "rhs-threads=2"]).unwrap_err();
        assert_eq!(e, ArgError::Duplicate("rhs-threads".into()));
    }

    #[test]
    fn typed_errors_keep_the_legacy_wordings() {
        let e = parse_words(T, ["x.toml", "threads=-1"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "`threads=-1`: expected a non-negative integer"
        );
        let e = parse_words(T, ["x.toml", "follow=2"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "`follow=2`: expected a boolean (0/1/true/false)"
        );
        let e = parse_words(T, ["x.toml", "mode=medium"]).unwrap_err();
        assert_eq!(e.to_string(), "`mode=medium`: expected one of fast, slow");
        let e = parse_words(T, ["x.toml", "distances=1,x"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "`distances=1,x`: expected comma-separated integers"
        );
        let e = parse_words(T, ["x.toml", "threads=1", "threads=2"]).unwrap_err();
        assert_eq!(e.to_string(), "key `threads` given twice");
    }

    #[test]
    fn explain_appends_the_doc_line() {
        let e = parse_words(T, ["x.toml", "gain=abc"]).unwrap_err();
        assert_eq!(explain(T, &e), "`gain=abc`: expected a number — gain: gain");
        let e = parse_words(T, Vec::<String>::new()).unwrap_err();
        assert_eq!(
            explain(T, &e),
            "missing required key `spec` — spec: the spec file"
        );
    }

    #[test]
    fn pairs_and_words_reject_identically() {
        let w = parse_words(T, ["x.toml", "follow=2"]).unwrap_err();
        let p = parse_pairs(T, [("spec", "x.toml"), ("follow", "2")]).unwrap_err();
        assert_eq!(w, p);
        let w = parse_words(T, ["x.toml", "fllow=1"]).unwrap_err();
        let p = parse_pairs(T, [("spec", "x.toml"), ("fllow", "1")]).unwrap_err();
        assert_eq!(w, p);
    }

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("sweep", "sweep"), 0);
        assert_eq!(edit_distance("sweeep", "sweep"), 1);
        assert_eq!(edit_distance("serv", "serve"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(
            closest("sweeep", ["sweep", "serve"].into_iter()),
            Some("sweep")
        );
        assert_eq!(closest("frobnicate", ["sweep", "serve"].into_iter()), None);
    }
}
