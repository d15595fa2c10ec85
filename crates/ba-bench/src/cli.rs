//! Flag parsing for the binaries: [`value_of`] / [`parse_num`] for `check`,
//! [`BenchArgs`] for the four `bench_*` binaries. Every one of
//! them exits with status 2 on malformed input, and only then.

/// The value following `flag`.
pub fn value_of(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    })
}

/// `flag`'s value as a non-negative integer.
pub fn parse_num(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a non-negative integer, got {text:?}");
        std::process::exit(2);
    })
}

/// Reports a usage error on stderr and exits with status 2.
pub fn usage_error(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(2);
}

/// A `bench_*` command line: repeatable `--section NAME`, the binary's
/// valued flags and switches, and at most one positional output path.
/// Values are parsed by the typed accessors, which exit 2 on a bad one.
#[derive(Debug)]
pub struct BenchArgs {
    bin: String,
    /// Where the report is written.
    pub out: String,
    sections: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl BenchArgs {
    /// Parses `args` (program name excluded) against the binary's known
    /// `sections`, `valued_flags` and `switches`.
    ///
    /// # Errors
    /// A usage message for an unknown flag or section, a flag missing its
    /// value, or a second positional argument.
    pub fn parse(
        bin: &str,
        default_out: &str,
        sections: &[&str],
        valued_flags: &[&str],
        switches: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<BenchArgs, String> {
        let mut parsed = BenchArgs {
            bin: bin.to_string(),
            out: default_out.to_string(),
            sections: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let takes_sections = !sections.is_empty();
        let mut out_given = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if (takes_sections && arg == "--section") || valued_flags.contains(&arg.as_str()) {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                if arg != "--section" {
                    parsed.values.push((arg, value));
                } else if sections.contains(&value.as_str()) {
                    parsed.sections.push(value);
                } else {
                    return Err(format!(
                        "unknown section {value:?} (known: {})",
                        sections.join(", ")
                    ));
                }
            } else if switches.contains(&arg.as_str()) {
                parsed.switches.push(arg);
            } else if arg.starts_with('-') || out_given {
                let flags: String = (takes_sections.then_some(&"--section"))
                    .into_iter()
                    .chain(valued_flags)
                    .chain(switches)
                    .map(|flag| format!("{flag}, "))
                    .collect();
                return Err(format!(
                    "unexpected argument {arg:?} (accepts {flags}one output path)"
                ));
            } else {
                parsed.out = arg;
                out_given = true;
            }
        }
        Ok(parsed)
    }

    /// [`BenchArgs::parse`] on the process arguments; exits 2 on error.
    pub fn from_env(
        bin: &str,
        default_out: &str,
        sections: &[&str],
        valued_flags: &[&str],
        switches: &[&str],
    ) -> BenchArgs {
        let args = std::env::args().skip(1);
        Self::parse(bin, default_out, sections, valued_flags, switches, args)
            .unwrap_or_else(|e| usage_error(bin, &e))
    }

    /// Whether section `name` runs: it was named, or no section was.
    pub fn section(&self, name: &str) -> bool {
        self.sections.is_empty() || self.sections.iter().any(|s| s == name)
    }

    /// The sections named on the command line.
    pub fn named_sections(&self) -> &[String] {
        &self.sections
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// `flag`'s value as a non-negative integer.
    pub fn num(&self, flag: &str) -> Option<usize> {
        self.typed(flag, parse_count)
    }

    /// `flag`'s value as a comma-separated list of non-negative integers.
    pub fn list(&self, flag: &str) -> Option<Vec<usize>> {
        self.typed(flag, parse_list)
    }

    /// `flag`'s value as a positive ratio.
    pub fn ratio(&self, flag: &str) -> Option<f64> {
        self.typed(flag, parse_ratio)
    }

    /// Reports a usage error and exits 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        usage_error(&self.bin, msg)
    }

    /// The last value given for `flag`, parsed; exits 2 if it does not.
    fn typed<T>(&self, flag: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
        let (_, text) = self.values.iter().rev().find(|(f, _)| f == flag)?;
        Some(parse(text).unwrap_or_else(|e| self.usage_error(&format!("{flag}: {e}"))))
    }
}

fn parse_count(text: &str) -> Result<usize, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("expected a non-negative integer, got {text:?}"))
}

fn parse_list(text: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|entry| parse_count(entry).map_err(|_| format!("bad entry {entry:?} in {text:?}")))
        .collect()
}

fn parse_ratio(text: &str) -> Result<f64, String> {
    text.parse()
        .ok()
        .filter(|r: &f64| r.is_finite() && *r > 0.0)
        .ok_or_else(|| format!("expected a positive ratio, got {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(
            "bench_test",
            "BENCH_test.json",
            &["small", "full"],
            &["--threads", "--k"],
            &["--check-overhead"],
            args.iter().map(|a| a.to_string()),
        )
    }

    #[test]
    fn flags_sections_and_the_output_path_parse() {
        let args = parse(&[
            "--section",
            "full",
            "--threads",
            "1, 4",
            "--check-overhead",
            "out.json",
        ])
        .unwrap();
        assert_eq!(args.out, "out.json");
        assert!(args.section("full") && !args.section("small"));
        assert_eq!(args.named_sections(), ["full"]);
        assert!(args.switch("--check-overhead"));
        assert_eq!(args.list("--threads"), Some(vec![1, 4]));
        assert_eq!(args.num("--k"), None);

        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.out, "BENCH_test.json");
        assert!(defaults.section("small") && defaults.section("full"));
        assert!(defaults.named_sections().is_empty());
        assert!(!defaults.switch("--check-overhead"));
    }

    #[test]
    fn unknown_arguments_are_usage_errors() {
        for bad in [
            &["--help"][..],
            &["-h"],
            &["--dump-trace", "1"],
            &["a.json", "b.json"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("unexpected argument"), "{bad:?}: {err}");
        }
        let err = parse(&["--section", "huge"]).unwrap_err();
        assert!(err.contains("unknown section \"huge\""), "{err}");
        let bare = BenchArgs::parse("b", "o", &[], &[], &[], ["--section".to_string()]);
        assert_eq!(
            bare.unwrap_err(),
            "unexpected argument \"--section\" (accepts one output path)"
        );
    }

    #[test]
    fn a_flag_without_its_value_is_a_usage_error() {
        assert_eq!(
            parse(&["--threads"]).unwrap_err(),
            "--threads needs a value"
        );
        assert_eq!(
            parse(&["--section"]).unwrap_err(),
            "--section needs a value"
        );
    }

    #[test]
    fn values_parse_strictly() {
        assert_eq!(parse_list("1,4,8"), Ok(vec![1, 4, 8]));
        assert!(parse_list("1,,4").unwrap_err().contains("bad entry \"\""));
        assert!(parse_list("").is_err());
        assert_eq!(parse_count(" 8 "), Ok(8));
        assert!(parse_count("-1").is_err());
        assert_eq!(parse_ratio("1.25"), Ok(1.25));
        for bad in ["0", "-1", "NaN", "inf", "x"] {
            assert!(parse_ratio(bad).is_err(), "{bad}");
        }
    }
}
