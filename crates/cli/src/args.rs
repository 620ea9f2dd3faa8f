//! A small, dependency-free argument parser: `--key value` pairs and
//! positional arguments, with typed accessors and unknown-flag checking.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeInclusive;

/// A parsed command line: one subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    subcommand: Option<String>,
    options: BTreeMap<String, String>,
}

/// Errors produced while parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared without a value.
    MissingValue(String),
    /// An option was not recognized by the subcommand.
    Unknown(String),
    /// An option's value failed to parse.
    Invalid {
        /// Option name.
        key: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A bare word appeared where an option was expected.
    Unexpected(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::Unknown(k) => write!(f, "unknown option --{k}"),
            ArgError::Invalid {
                key,
                value,
                expected,
            } => write!(f, "--{key} {value}: expected {expected}"),
            ArgError::Unexpected(arg) => write!(
                f,
                "unexpected argument `{arg}` (options take the form --key value)"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

impl ArgError {
    /// An [`ArgError::Invalid`]: `--key value` is not what `expected`
    /// describes.
    pub fn invalid(key: &str, value: impl fmt::Display, expected: &'static str) -> Self {
        ArgError::Invalid {
            key: key.to_string(),
            value: value.to_string(),
            expected,
        }
    }
}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingValue`] if a `--flag` has no value,
    /// or [`ArgError::Unexpected`] for a second bare word.
    pub fn parse<I, S>(argv: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = argv.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                out.options.insert(key.to_string(), value);
            } else if out.subcommand.is_none() {
                out.subcommand = Some(tok);
            } else {
                return Err(ArgError::Unexpected(tok));
            }
        }
        Ok(out)
    }

    /// The subcommand, if any.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A parsed numeric/typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Invalid`] if present but unparseable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::invalid(key, v, expected)),
        }
    }

    /// [`Args::get_parsed`], also rejecting a present value outside
    /// `range`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Invalid`] if present but unparseable or out
    /// of range.
    pub fn get_in_range<T: std::str::FromStr + PartialOrd>(
        &self,
        key: &str,
        default: T,
        range: RangeInclusive<T>,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        let v = self.get_parsed(key, default, expected)?;
        match self.get(key) {
            Some(raw) if !range.contains(&v) => Err(ArgError::invalid(key, raw, expected)),
            _ => Ok(v),
        }
    }

    /// Rejects any option not in `allowed`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Unknown`] naming the first unexpected option.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::Unknown(key.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_options() {
        let a = Args::parse(["run", "--app", "jacobi", "--gpus", "4"]).unwrap();
        assert_eq!(a.subcommand(), Some("run"));
        assert_eq!(a.get("app"), Some("jacobi"));
        assert_eq!(a.get_parsed("gpus", 2u8, "integer").unwrap(), 4);
        assert_eq!(a.get_or("paradigm", "all"), "all");
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = Args::parse(["run", "--app"]).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("app".into()));
    }

    #[test]
    fn stray_positional_is_unknown() {
        let e = Args::parse(["run", "jacobi"]).unwrap_err();
        assert_eq!(e, ArgError::Unexpected("jacobi".into()));
        assert_eq!(
            e.to_string(),
            "unexpected argument `jacobi` (options take the form --key value)"
        );
    }

    #[test]
    fn invalid_typed_value() {
        let a = Args::parse(["run", "--gpus", "lots"]).unwrap();
        let e = a.get_parsed("gpus", 2u8, "integer").unwrap_err();
        assert!(e.to_string().contains("expected integer"));
    }

    #[test]
    fn out_of_range_value_is_invalid() {
        let a = Args::parse(["run", "--gpus", "65"]).unwrap();
        let e = a
            .get_in_range("gpus", 4u8, 1..=64, "integer 1-64")
            .unwrap_err();
        assert_eq!(e.to_string(), "--gpus 65: expected integer 1-64");
        assert_eq!(a.get_in_range("iterations", 2u32, 1..=9, "1-9").unwrap(), 2);
    }

    #[test]
    fn expect_only_flags_unknown_options() {
        let a = Args::parse(["run", "--bogus", "1"]).unwrap();
        assert!(a.expect_only(&["app", "gpus"]).is_err());
        assert!(a.expect_only(&["bogus"]).is_ok());
    }
}
