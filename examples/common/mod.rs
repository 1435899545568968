//! Positional-argument parsing shared by the examples. A malformed
//! argument is rejected with a one-line usage message and exit status 2,
//! never silently replaced by its default.

// Each example uses only the parsers it needs.
#![allow(dead_code)]

use std::str::FromStr;

/// An example's command-line arguments (program name excluded).
pub struct Args {
    usage: &'static str,
    args: Vec<String>,
}

impl Args {
    /// Collect the arguments; more than `max` of them is a usage error.
    pub fn parse(usage: &'static str, max: usize) -> Args {
        let args = Args {
            usage,
            args: std::env::args().skip(1).collect(),
        };
        if args.args.len() > max {
            args.fail(&format!("expected at most {max} arguments"));
        }
        args
    }

    /// Argument `i` (0-based) as a positive integer, `default` if absent.
    pub fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        i: usize,
        name: &str,
        default: T,
    ) -> T {
        match self.args.get(i) {
            None => default,
            Some(s) => match s.parse::<T>() {
                Ok(v) if v > T::default() => v,
                _ => self.fail(&format!("{name} must be a positive integer, got `{s}`")),
            },
        }
    }

    /// Argument `i` as one of `choices`, the first of which is the default.
    pub fn choice(&self, i: usize, name: &str, choices: &[&'static str]) -> &'static str {
        match self.args.get(i) {
            None => choices[0],
            Some(s) => choices.iter().copied().find(|c| c == s).unwrap_or_else(|| {
                self.fail(&format!(
                    "{name} must be one of {}, got `{s}`",
                    choices.join("|")
                ))
            }),
        }
    }

    /// Print `msg` and the usage line, then exit with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}; usage: {}", self.usage);
        std::process::exit(2)
    }
}
