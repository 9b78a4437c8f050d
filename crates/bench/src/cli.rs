//! A minimal, dependency-free command-line parser for the figure binaries.
//!
//! All binaries accept the same flag style: `--key value` pairs plus the
//! boolean flag `--paper` which switches from the quick default scale to the
//! paper's full scale (10,000 nodes, 100 runs per configuration).
//!
//! A binary reads every option it understands and then calls
//! [`Args::finish`], which rejects whatever was given but never read — a
//! typo such as `--fanout 2` for `--fanouts 2` is an error, not a silently
//! ignored default sweep.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::ops::RangeBounds;
use std::str::FromStr;

/// Parsed command-line arguments: a map of `--key value` pairs plus a set of
/// boolean flags (keys given without a value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    /// Every key an accessor has been asked for; [`Args::finish`] reports
    /// the given keys that are not in here.
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses the given iterator of arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns an error if an argument does not start with `--`.
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = Args::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument '{arg}', expected --key [value]"
                ));
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    parsed.values.insert(key.to_owned(), value);
                }
                _ => parsed.flags.push(key.to_owned()),
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments (skipping the program name).
    ///
    /// # Errors
    ///
    /// Returns an error if any argument is malformed.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Returns `true` if the boolean flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.read.borrow_mut().insert(name.to_owned());
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of `--name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().insert(name.to_owned());
        self.values.get(name).map(String::as_str)
    }

    /// Checks that every `--key` given was read by an accessor. Call it
    /// once all options are parsed and before any work starts.
    ///
    /// # Errors
    ///
    /// Returns an error naming the unrecognised keys, with a pointed
    /// message for the removed `--engine`.
    pub fn finish(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let unknown: Vec<&str> = self
            .values
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .filter(|key| !read.contains(*key))
            .collect();
        if unknown.contains(&"engine") {
            return Err(String::from(
                "--engine was removed: every figure runs the dense engines. The BTree engines \
                 are test oracles; compare them with `cargo bench --bench engine` and \
                 `cargo bench --bench membership`",
            ));
        }
        if unknown.is_empty() {
            return Ok(());
        }
        let listed: Vec<String> = unknown.iter().map(|key| format!("--{key}")).collect();
        Err(format!("unrecognised option(s): {}", listed.join(", ")))
    }

    /// Parses `--name` as `T`, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but does not parse.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --{name}")),
        }
    }

    /// Parses `--name` as a comma-separated list of `T`, falling back to
    /// `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error if any element fails to parse.
    pub fn get_list_or<T: FromStr>(&self, name: &str, default: Vec<T>) -> Result<Vec<T>, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .split(',')
                .filter(|part| !part.is_empty())
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| format!("invalid element '{part}' in --{name}"))
                })
                .collect(),
        }
    }

    /// Parses `--name` as a number (a float or an integer count) that
    /// `range` must contain, falling back to `default` when absent.
    /// `expected` names the range in the error (`"in [0, 1)"`); `NaN` is in
    /// no range.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse or lies outside `range`.
    pub fn get_in<T: FromStr + PartialOrd + Display>(
        &self,
        name: &str,
        default: T,
        range: impl RangeBounds<T>,
        expected: &str,
    ) -> Result<T, String> {
        let value = self.get_or(name, default)?;
        check_in(name, &value, &range, expected)?;
        Ok(value)
    }

    /// Parses `--name` as a comma-separated list of numbers, each of which
    /// `range` must contain (see [`Args::get_in`]), falling back to
    /// `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error if an element does not parse or lies outside
    /// `range`.
    pub fn get_list_in<T: FromStr + PartialOrd + Display>(
        &self,
        name: &str,
        default: Vec<T>,
        range: impl RangeBounds<T>,
        expected: &str,
    ) -> Result<Vec<T>, String> {
        let values = self.get_list_or(name, default)?;
        for value in &values {
            check_in(name, value, &range, expected)?;
        }
        Ok(values)
    }

    /// Parses `--name` as a comma-separated list that must not descend
    /// (offsets along one timeline), falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error if an element does not parse or is smaller than the
    /// one before it.
    pub fn get_ascending_list_or<T: FromStr + PartialOrd + Display>(
        &self,
        name: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        let values = self.get_list_or(name, default)?;
        if let Some(pair) = values.windows(2).find(|pair| pair[1] < pair[0]) {
            return Err(format!(
                "--{name} must not descend: {} after {}",
                pair[1], pair[0]
            ));
        }
        Ok(values)
    }
}

/// The `main` of every binary: `fn main() { run_main(run) }`. An `Err` from
/// `run` becomes one `error: ...` line on stderr and exit status 1.
pub fn run_main(run: impl FnOnce() -> Result<(), String>) {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn check_in<T: PartialOrd + Display>(
    name: &str,
    value: &T,
    range: &impl RangeBounds<T>,
    expected: &str,
) -> Result<(), String> {
    if range.contains(value) {
        Ok(())
    } else {
        Err(format!("--{name} must be {expected}, got {value}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_value_pairs_and_flags() {
        let args = Args::parse(["--nodes", "500", "--paper", "--fanouts", "1,2,3"]).unwrap();
        assert_eq!(args.value("nodes"), Some("500"));
        assert!(args.flag("paper"));
        assert!(!args.flag("quick"));
        assert_eq!(args.get_or("nodes", 0usize).unwrap(), 500);
        assert_eq!(args.get_or("runs", 42usize).unwrap(), 42);
        assert_eq!(
            args.get_list_or("fanouts", vec![9usize]).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(args.get_list_or("missing", vec![9usize]).unwrap(), vec![9]);
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(Args::parse(["nodes"]).is_err());
        let args = Args::parse(["--nodes", "abc"]).unwrap();
        assert!(args.get_or("nodes", 1usize).is_err());
        let args = Args::parse(["--fanouts", "1,x"]).unwrap();
        assert!(args.get_list_or("fanouts", Vec::<usize>::new()).is_err());
    }

    #[test]
    fn ranged_numbers_are_checked_where_they_are_parsed() {
        // A failure fraction: [0, 1) — killing everyone leaves no origin.
        let fractions = |raw: &str| {
            Args::parse(["--fractions", raw]).unwrap().get_list_in(
                "fractions",
                vec![0.05],
                0.0..1.0,
                "in [0, 1)",
            )
        };
        assert_eq!(fractions("0,0.5,0.99").unwrap(), vec![0.0, 0.5, 0.99]);
        assert_eq!(
            fractions("0.1,1.5").unwrap_err(),
            "--fractions must be in [0, 1), got 1.5"
        );
        for bad in ["1.0", "1", "-0.1", "nan", "inf"] {
            let err = fractions(bad).unwrap_err();
            assert!(err.starts_with("--fractions must be in [0, 1)"), "{err}");
        }
        assert!(fractions("0.1,x").unwrap_err().contains("invalid element"));

        // A loss rate: [0, 1], both ends allowed.
        let loss = |raw: &str| {
            Args::parse(["--loss-rates", raw]).unwrap().get_list_in(
                "loss-rates",
                vec![],
                0.0..=1.0,
                "in [0, 1]",
            )
        };
        assert_eq!(loss("0,1").unwrap(), vec![0.0, 1.0]);
        assert!(loss("1.5").is_err());
        assert!(loss("-0.01").is_err());

        // A duration: finite and non-negative.
        let duration = |raw: &str| {
            Args::parse(["--durations", raw]).unwrap().get_list_in(
                "durations",
                vec![],
                0.0..f64::INFINITY,
                "finite and >= 0",
            )
        };
        assert_eq!(duration("0,2.5").unwrap(), vec![0.0, 2.5]);
        for bad in ["-3", "inf", "nan"] {
            let err = duration(bad).unwrap_err();
            assert!(err.contains("finite and >= 0"), "{err}");
        }

        // A delay ratio: finite and non-negative, like a duration.
        let ratios = |raw: &str| {
            Args::parse(["--ratios", raw]).unwrap().get_list_in(
                "ratios",
                vec![0.1],
                0.0..f64::INFINITY,
                "finite and >= 0",
            )
        };
        assert_eq!(ratios("0,3").unwrap(), vec![0.0, 3.0]);
        for bad in ["-1", "nan", "inf"] {
            let err = ratios(bad).unwrap_err();
            assert!(err.starts_with("--ratios must be finite and >= 0"), "{err}");
        }

        // Counts: a view length, a fanout and a population are at least 1.
        let views = |raw: &str| {
            Args::parse(["--views", raw])
                .unwrap()
                .get_list_in("views", vec![5usize], 1.., ">= 1")
        };
        assert_eq!(views("5,40").unwrap(), vec![5, 40]);
        assert_eq!(views("5,0").unwrap_err(), "--views must be >= 1, got 0");
        assert!(views("-1").unwrap_err().contains("invalid element"));
        let count = |name: &str, raw: &str| {
            Args::parse([format!("--{name}"), raw.to_string()])
                .unwrap()
                .get_in(name, 3usize, 1.., ">= 1")
        };
        assert_eq!(count("fanout", "2"), Ok(2));
        assert_eq!(
            count("fanout", "0").unwrap_err(),
            "--fanout must be >= 1, got 0"
        );
        assert_eq!(
            count("nodes", "0").unwrap_err(),
            "--nodes must be >= 1, got 0"
        );

        // A churn rate: a fraction of the population, [0, 1].
        let churn = |raw: &str| {
            Args::parse(["--churn-rate", raw]).unwrap().get_in(
                "churn-rate",
                0.002,
                0.0..=1.0,
                "in [0, 1]",
            )
        };
        assert_eq!(churn("1"), Ok(1.0));
        assert_eq!(
            churn("1.5").unwrap_err(),
            "--churn-rate must be in [0, 1], got 1.5"
        );

        // Offsets along one timeline: the list must not descend.
        let offsets = |raw: &str| {
            Args::parse(["--extra-cycles", raw])
                .unwrap()
                .get_ascending_list_or("extra-cycles", vec![0usize, 20, 50])
        };
        assert_eq!(offsets("0,5,5,9").unwrap(), vec![0, 5, 5, 9]);
        assert_eq!(
            offsets("5,2").unwrap_err(),
            "--extra-cycles must not descend: 2 after 5"
        );
        assert!(offsets("5,x").unwrap_err().contains("invalid element"));

        // The scalar form, and the default when the option is absent.
        let none = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(
            none.get_in("fraction", 0.05, 0.0..1.0, "in [0, 1)"),
            Ok(0.05)
        );
        let one = Args::parse(["--fraction", "1.0"]).unwrap();
        assert_eq!(
            one.get_in("fraction", 0.05, 0.0..1.0, "in [0, 1)")
                .unwrap_err(),
            "--fraction must be in [0, 1), got 1"
        );
    }

    #[test]
    fn finish_rejects_keys_no_accessor_read() {
        let args = Args::parse(["--nodes", "300", "--fanout", "2", "--verbose"]).unwrap();
        assert_eq!(args.get_or("nodes", 0usize).unwrap(), 300);
        assert!(args.get_list_or("fanouts", vec![1usize]).is_ok());
        let err = args.finish().unwrap_err();
        assert_eq!(err, "unrecognised option(s): --fanout, --verbose");

        // Reading a key — as a value or as a flag, given or not — accepts it.
        assert_eq!(args.value("fanout"), Some("2"));
        assert!(args.flag("verbose"));
        assert!(!args.flag("paper"));
        args.finish().unwrap();
    }

    #[test]
    fn finish_points_a_stale_engine_flag_at_the_benches() {
        let args = Args::parse(["--engine", "btree", "--oops"]).unwrap();
        let err = args.finish().unwrap_err();
        assert!(err.contains("--engine was removed"), "{err}");
        assert!(err.contains("cargo bench --bench engine"), "{err}");
    }

    #[test]
    fn empty_args_use_defaults() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args.get_or("seed", 7u64).unwrap(), 7);
        assert!(!args.flag("paper"));
        args.finish().unwrap();
    }
}
