//! Regenerates the §III-A profile (E1): where the unaccelerated
//! MobileNetV2 baseline spends its ~900M cycles.
//!
//! Usage: `profile_mnv2 [--input-hw N]` (default 96; a positive multiple
//! of 8 up to 224). An unknown flag or a missing, non-integer or out-of-rule value
//! prints the usage and exits 2.

use cfu_bench::cli::{self, CliError};

const USAGE: &str = "profile_mnv2 [--input-hw N]";

/// The `--input-hw` value (default 96).
fn parse(args: impl IntoIterator<Item = String>) -> Result<usize, CliError> {
    let mut input_hw = 96;
    cli::parse_flags(args, |flag, value| {
        match flag {
            "--input-hw" => input_hw = value.input_hw()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(input_hw)
}

fn main() {
    let input_hw = cli::or_exit(USAGE, parse(std::env::args().skip(1)));
    println!("E1 — unaccelerated MobileNetV2 profile on Arty A7-35T ({input_hw}x{input_hw})\n");
    let profile = cfu_bench::tables::profile_mnv2_baseline(input_hw);
    print!("{}", cfu_bench::tables::render_mnv2_profile(&profile));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<usize, CliError> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn input_hw_parses_with_a_default() {
        assert_eq!(parse_strs(&[]), Ok(96));
        assert_eq!(parse_strs(&["--input-hw", "32"]), Ok(32));
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert_eq!(
            parse_strs(&["--input-hw", "x"]),
            Err(CliError::NotAnInteger { flag: "--input-hw".into(), value: "x".into() })
        );
        assert_eq!(parse_strs(&["--input-hw"]), Err(CliError::MissingValue("--input-hw".into())));
        for value in ["0", "12", "17"] {
            assert!(
                matches!(parse_strs(&["--input-hw", value]), Err(CliError::BadValue { .. })),
                "{value}"
            );
        }
        assert_eq!(parse_strs(&["--fast"]), Err(CliError::UnknownFlag("--fast".into())));
        assert_eq!(
            parse_strs(&["--input-hw", "32", "--csv", "p.csv"]),
            Err(CliError::UnknownFlag("--csv".into()))
        );
    }
}
