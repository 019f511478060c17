//! Flag parsing shared by the four figure binaries (`fig4_mnv2_ladder`,
//! `fig6_kws_ladder`, `fig7_dse_pareto`, `table_energy_ladder`).
//!
//! [`parse`] reads the common flags — `--csv PATH`, `--svg PATH` where a
//! binary has it, `--threads N`, `--store PATH` and `--resume` — into a
//! [`RunSpec`], opening the result
//! store on the way, and hands every other flag to the binary's own
//! callback. Unknown flags, missing or malformed values, `--resume`
//! without `--store` and an unopenable store are typed [`CliError`]s;
//! [`parse_or_exit`] prints them (with the usage line for flag errors)
//! and exits with status 2. Binaries without the common flags
//! (`profile_mnv2`, `table_mlperf_models`) parse through
//! [`parse_flags`] and [`or_exit`] with the same errors and exit status.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use cfu_dse::ResultStore;

use crate::{Run, RunSpec};

/// The largest `--input-hw`: MobileNetV2's largest published input
/// resolution, which deploys on Arty at width 1.0. Far larger values
/// overflow the board's memory at deployment or the host's at model
/// build, so the figure binaries refuse every value above it.
pub const MAX_INPUT_HW: usize = 224;

/// What one figure binary accepts beyond the always-present
/// `--csv`, `--threads`, `--store` and `--resume`.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The usage line printed after a flag error.
    pub usage: &'static str,
    /// Accepts `--svg PATH`.
    pub svg: bool,
    /// Reports failure tombstones on the `store:` line.
    pub tombstones: bool,
}

/// The parsed common flags.
#[derive(Debug)]
pub struct Args {
    /// `--csv PATH`.
    pub csv: Option<String>,
    /// `--svg PATH`.
    pub svg: Option<String>,
    /// `--store PATH`, already opened into [`RunSpec::store`].
    pub store_path: Option<String>,
    /// How the run executes.
    pub spec: RunSpec,
}

/// A command line the binary refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag this binary does not take.
    UnknownFlag(String),
    /// A flag whose value is missing.
    MissingValue(String),
    /// A flag whose value does not parse as the integer it needs.
    NotAnInteger {
        /// The flag.
        flag: String,
        /// The value given.
        value: String,
    },
    /// A flag whose integer value breaks the flag's rule.
    BadValue {
        /// The flag.
        flag: String,
        /// The value given.
        value: String,
        /// What the value must be.
        rule: &'static str,
    },
    /// `--resume` without `--store PATH`.
    ResumeWithoutStore,
    /// The result store could not be opened.
    Store {
        /// The `--store` path.
        path: String,
        /// Why opening failed.
        error: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::NotAnInteger { flag, value } => {
                write!(f, "{flag} needs an integer, got {value:?}")
            }
            CliError::BadValue { flag, value, rule } => {
                write!(f, "{flag} must be {rule}, got {value}")
            }
            CliError::ResumeWithoutStore => write!(f, "--resume requires --store PATH"),
            CliError::Store { path, error } => {
                write!(f, "cannot open result store {path}: {error}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The value of the flag being parsed, for a binary's own flags.
pub struct Value<'a> {
    flag: &'a str,
    args: &'a mut dyn Iterator<Item = String>,
}

impl Value<'_> {
    /// The next argument, taken as the flag's value.
    pub fn string(&mut self) -> Result<String, CliError> {
        self.args.next().ok_or_else(|| CliError::MissingValue(self.flag.to_owned()))
    }

    /// The next argument, parsed as an integer of type `T`.
    pub fn int<T: FromStr>(&mut self) -> Result<T, CliError> {
        let value = self.string()?;
        value.parse().map_err(|_| CliError::NotAnInteger { flag: self.flag.to_owned(), value })
    }

    /// The next argument as a MobileNetV2 input resolution: a positive
    /// multiple of 8, as the model's five stride-2 stages need, and at
    /// most [`MAX_INPUT_HW`].
    pub fn input_hw(&mut self) -> Result<usize, CliError> {
        let hw: usize = self.int()?;
        if hw == 0 || !hw.is_multiple_of(8) || hw > MAX_INPUT_HW {
            return Err(CliError::BadValue {
                flag: self.flag.to_owned(),
                value: hw.to_string(),
                rule: "a positive multiple of 8 up to 224",
            });
        }
        Ok(hw)
    }
}

/// Hands every flag of `args` (without the program name) to `handle`,
/// which consumes the flag's value through the [`Value`] and returns
/// whether it knew the flag; an unknown flag is an error.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    mut handle: impl FnMut(&str, &mut Value<'_>) -> Result<bool, CliError>,
) -> Result<(), CliError> {
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if !handle(&flag, &mut Value { flag: &flag, args: &mut args })? {
            return Err(CliError::UnknownFlag(flag));
        }
    }
    Ok(())
}

/// Parses `args` (without the program name) for `cmd`. Flags that are
/// not common go to `extra`, as in [`parse_flags`].
pub fn parse(
    cmd: &Command,
    args: impl IntoIterator<Item = String>,
    mut extra: impl FnMut(&str, &mut Value<'_>) -> Result<bool, CliError>,
) -> Result<Args, CliError> {
    let mut out = Args { csv: None, svg: None, store_path: None, spec: RunSpec::default() };
    parse_flags(args, |flag, value| {
        match flag {
            "--csv" => out.csv = Some(value.string()?),
            "--svg" if cmd.svg => out.svg = Some(value.string()?),
            "--threads" => {
                out.spec.threads = Some(value.int()?);
                out.spec.progress = true;
            }
            "--store" => out.store_path = Some(value.string()?),
            "--resume" => out.spec.resume = true,
            other => return extra(other, value),
        }
        Ok(true)
    })?;
    if out.spec.resume && out.store_path.is_none() {
        return Err(CliError::ResumeWithoutStore);
    }
    if let Some(path) = &out.store_path {
        let store = ResultStore::open(path)
            .map_err(|e| CliError::Store { path: path.clone(), error: e.to_string() })?;
        out.spec.store = Some(Arc::new(store));
    }
    Ok(out)
}

/// [`parse`] over the process arguments; on error prints it (plus the
/// usage line for a flag error) to stderr and exits with status 2.
pub fn parse_or_exit(
    cmd: &Command,
    extra: impl FnMut(&str, &mut Value<'_>) -> Result<bool, CliError>,
) -> Args {
    or_exit(cmd.usage, parse(cmd, std::env::args().skip(1), extra))
}

/// The parsed value, or on error prints it (plus the usage line for a
/// flag error) to stderr and exits with status 2.
pub fn or_exit<T>(usage: &str, parsed: Result<T, CliError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        if !matches!(e, CliError::Store { .. }) {
            eprintln!("usage: {usage}");
        }
        std::process::exit(2)
    })
}

impl Command {
    /// Prints the `store:` line for a run that used `--store`.
    pub fn print_store<R, P>(&self, args: &Args, run: &Run<R, P>) {
        if let Some(path) = &args.store_path {
            let tombstones = if self.tombstones {
                format!(", {} tombstone(s)", run.tombstoned)
            } else {
                String::new()
            };
            eprintln!(
                "store: {path}: {} prior result(s) loaded, {} new result(s) appended{tombstones}",
                run.hydrated, run.appended
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: Command = Command { usage: "ladder", svg: true, tombstones: false };
    const TABLE: Command = Command { usage: "table", svg: false, tombstones: false };

    fn run(cmd: &Command, args: &[&str]) -> Result<Args, CliError> {
        let mut input_hw = 0usize;
        parse(cmd, args.iter().map(|a| a.to_string()), |flag, value| {
            match flag {
                "--input-hw" => input_hw = value.input_hw()?,
                "--full-width" => {}
                _ => return Ok(false),
            }
            Ok(true)
        })
    }

    fn err(cmd: &Command, args: &[&str]) -> CliError {
        run(cmd, args).expect_err("command line must be refused")
    }

    #[test]
    fn common_and_extra_flags_parse() {
        let args = run(
            &LADDER,
            &["--csv", "a.csv", "--svg", "a.svg", "--threads", "3", "--input-hw", "8"],
        )
        .unwrap();
        assert_eq!(args.csv.as_deref(), Some("a.csv"));
        assert_eq!(args.svg.as_deref(), Some("a.svg"));
        assert_eq!(args.spec.threads, Some(3));
        assert!(args.spec.progress, "--threads turns the progress readout on");
        let default = run(&LADDER, &[]).unwrap().spec;
        assert_eq!(default.threads, None, "no --threads: the figure's default workers");
        assert!(!default.progress);
    }

    #[test]
    fn unknown_flags_are_refused() {
        assert_eq!(err(&LADDER, &["--bogus"]), CliError::UnknownFlag("--bogus".into()));
        assert_eq!(err(&TABLE, &["--svg", "x.svg"]), CliError::UnknownFlag("--svg".into()));

        // A known flag never hides an unknown one after it.
        assert_eq!(
            err(&LADDER, &["--csv", "a.csv", "--trials", "4"]),
            CliError::UnknownFlag("--trials".into())
        );
    }

    #[test]
    fn missing_values_are_refused() {
        for flag in ["--csv", "--svg", "--threads", "--store", "--input-hw"] {
            assert_eq!(err(&LADDER, &[flag]), CliError::MissingValue(flag.into()), "{flag}");
        }
    }

    #[test]
    fn non_integer_values_are_refused() {
        for (flag, value) in [("--threads", "x"), ("--threads", "-1"), ("--input-hw", "1.5")] {
            assert_eq!(
                err(&LADDER, &[flag, value]),
                CliError::NotAnInteger { flag: flag.into(), value: value.into() }
            );
        }
    }

    #[test]
    fn input_resolutions_must_be_positive_multiples_of_8() {
        assert!(run(&LADDER, &["--input-hw", "8"]).is_ok());
        assert!(run(&LADDER, &["--input-hw", "96"]).is_ok());
        assert!(run(&LADDER, &["--input-hw", "224"]).is_ok());
        for value in ["0", "12", "17", "100", "232", "8192", "4294967288"] {
            assert_eq!(
                err(&LADDER, &["--input-hw", value]),
                CliError::BadValue {
                    flag: "--input-hw".into(),
                    value: value.into(),
                    rule: "a positive multiple of 8 up to 224"
                }
            );
        }
        assert_eq!(
            err(&LADDER, &["--input-hw", "0"]).to_string(),
            "--input-hw must be a positive multiple of 8 up to 224, got 0"
        );
    }

    #[test]
    fn resume_needs_a_store() {
        assert_eq!(err(&LADDER, &["--resume"]), CliError::ResumeWithoutStore);
    }

    #[test]
    fn an_unopenable_store_is_refused() {
        let dir = std::env::temp_dir().join(format!("cfu-bench-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A directory is not a store file.
        let path = dir.to_string_lossy().into_owned();
        assert!(matches!(err(&LADDER, &["--store", &path]), CliError::Store { .. }));
        std::fs::remove_dir(&dir).unwrap();
    }
}
