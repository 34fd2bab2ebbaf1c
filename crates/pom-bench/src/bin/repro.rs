//! Run the paper-claim table [`pom_bench::CLAIMS`]: `repro` or
//! `repro all` runs every row, `repro <id>…` the named rows in the order
//! given. An unknown id lists the valid ids and exits 2 before any claim
//! runs; a `DEVIATES` verdict exits 1 once every requested claim has run.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pom_bench::select(&args) {
        Ok(claims) => {
            let deviating = claims.iter().map(|c| c.run()).filter(|v| !v.ok).count();
            ExitCode::from(u8::from(deviating > 0))
        }
        Err(msg) => {
            eprintln!("repro: {msg}");
            ExitCode::from(2)
        }
    }
}
