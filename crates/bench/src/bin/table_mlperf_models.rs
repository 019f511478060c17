//! Regenerates the MLPerf-Tiny model inventory (E7): the stock models
//! CFU Playground ships for benchmarking, with baseline cycle counts.
//!
//! Usage: `table_mlperf_models [--fast]` (`--fast` shrinks MobileNetV2).
//! Any other flag prints the usage and exits 2.

use cfu_bench::cli::{self, CliError};

const USAGE: &str = "table_mlperf_models [--fast]";

/// Whether `--fast` was given.
fn parse(args: impl IntoIterator<Item = String>) -> Result<bool, CliError> {
    let mut fast = false;
    cli::parse_flags(args, |flag, _| {
        match flag {
            "--fast" => fast = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(fast)
}

fn main() {
    let fast = cli::or_exit(USAGE, parse(std::env::args().skip(1)));
    println!("E7 — MLPerf Tiny stock models, baseline (generic kernels, Arty)\n");
    let rows = cfu_bench::tables::mlperf_tiny_inventory(fast);
    print!("{}", cfu_bench::tables::render_inventory(&rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<bool, CliError> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn fast_is_the_only_flag() {
        assert_eq!(parse_strs(&[]), Ok(false));
        assert_eq!(parse_strs(&["--fast"]), Ok(true));
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert_eq!(parse_strs(&["--fats"]), Err(CliError::UnknownFlag("--fats".into())));
        assert_eq!(parse_strs(&["fast"]), Err(CliError::UnknownFlag("fast".into())));
        assert_eq!(
            parse_strs(&["--fast", "--threads", "2"]),
            Err(CliError::UnknownFlag("--threads".into()))
        );
    }
}
