//! `pom help [command] [format=text|json|md]`.

use pom_sweep::registry::{toolkit, Parsed};

use super::CliError;

pub(crate) fn run(p: &Parsed) -> Result<String, CliError> {
    let reg = toolkit();
    match p.str("format") {
        // The machine-readable registry — byte-identical to the body the
        // daemon serves at GET /schema (both render `Registry::schema_json`).
        "json" => Ok(format!("{}\n", reg.schema_json())),
        // The docs/CLI.md source; the `help_sync` test pins the committed
        // file against this output.
        "md" => Ok(reg.markdown()),
        _ => match p.opt_str("command") {
            Some(name) => match reg.command(name) {
                Some(c) => Ok(c.help_page()),
                None => Err(CliError::UnknownCommand {
                    name: name.to_string(),
                    suggestion: reg.suggest_command(name),
                }),
            },
            None => Ok(reg.help()),
        },
    }
}
