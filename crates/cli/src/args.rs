//! Minimal `--key value` argument parsing.

use std::collections::BTreeMap;
use std::error::Error;
use std::str::FromStr;

/// Parsed flags: a map from `--key` (without dashes) to its value.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses `--key value` pairs (a `--key` followed by another `--key`
    /// or nothing is treated as the boolean value `"true"`).
    ///
    /// # Errors
    ///
    /// Rejects positional arguments (everything must be a flag).
    pub fn parse(argv: &[String]) -> Result<Self, Box<dyn Error>> {
        let mut values = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found `{arg}`"))?;
            let next_is_value = argv
                .get(i + 1)
                .map(|v| !v.starts_with("--"))
                .unwrap_or(false);
            if next_is_value {
                values.insert(key.to_owned(), argv[i + 1].clone());
                i += 2;
            } else {
                values.insert(key.to_owned(), "true".to_owned());
                i += 1;
            }
        }
        Ok(Args { values })
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Errors if the flag is missing.
    pub fn require(&self, key: &str) -> Result<&str, Box<dyn Error>> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}").into())
    }

    /// A typed flag with a default.
    ///
    /// # Errors
    ///
    /// Errors if the flag is present but does not parse as `T`.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, Box<dyn Error>>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("invalid --{key} `{raw}`: {e}").into()),
            None => Ok(default),
        }
    }

    /// A count flag with a default that must be at least 1.
    ///
    /// # Errors
    ///
    /// Errors if the flag does not parse as `T` or is zero.
    pub fn get_count<T>(&self, key: &str, default: T) -> Result<T, Box<dyn Error>>
    where
        T: FromStr + PartialOrd + From<u8>,
        T::Err: std::fmt::Display,
    {
        let value = self.get_or(key, default)?;
        if value < T::from(1) {
            return Err(format!("--{key} must be at least 1").into());
        }
        Ok(value)
    }

    /// A real-valued flag with a default that must be finite and at
    /// least `min`.
    ///
    /// # Errors
    ///
    /// Errors if the flag does not parse, is infinite or NaN, or is
    /// below `min`.
    pub fn get_finite(&self, key: &str, default: f64, min: f64) -> Result<f64, Box<dyn Error>> {
        let value: f64 = self.get_or(key, default)?;
        if !value.is_finite() || value < min {
            return Err(format!("--{key} must be a finite number >= {min}, got {value}").into());
        }
        Ok(value)
    }

    /// A boolean flag (present = true).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Rejects every flag `command` does not read, so a misspelled flag
    /// fails instead of silently running with a default.
    ///
    /// # Errors
    ///
    /// Names the first flag (in sorted order) that is not in `known`.
    pub fn reject_unknown(&self, command: &str, known: &[&str]) -> Result<(), Box<dyn Error>> {
        match self.values.keys().find(|k| !known.contains(&k.as_str())) {
            Some(key) => Err(format!("unknown flag --{key} for {command}").into()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = Args::parse(&argv(&["--tasks", "100", "--seed", "7"])).unwrap();
        assert_eq!(a.get("tasks"), Some("100"));
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_or("missing", 42u64).unwrap(), 42);
    }

    #[test]
    fn parses_boolean_flags() {
        let a = Args::parse(&argv(&["--gantt", "--budget", "50"])).unwrap();
        assert!(a.flag("gantt"));
        assert!(!a.flag("absent"));
        assert_eq!(a.get_or("budget", 0u64).unwrap(), 50);
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Args::parse(&argv(&["oops"])).is_err());
    }

    #[test]
    fn rejects_bad_typed_values() {
        let a = Args::parse(&argv(&["--tasks", "many"])).unwrap();
        assert!(a.get_or("tasks", 1usize).is_err());
    }

    #[test]
    fn counts_must_be_positive() {
        let a = Args::parse(&argv(&["--budget", "0", "--dags", "3"])).unwrap();
        let err = a.get_count("budget", 100u64).unwrap_err().to_string();
        assert_eq!(err, "--budget must be at least 1");
        assert_eq!(a.get_count("dags", 5usize).unwrap(), 3);
        assert_eq!(a.get_count("tasks", 100usize).unwrap(), 100);
    }

    #[test]
    fn reals_must_be_finite_and_in_range() {
        for raw in ["inf", "-inf", "NaN", "0.5"] {
            let a = Args::parse(&argv(&["--straggler", raw])).unwrap();
            assert!(a.get_finite("straggler", 1.5, 1.0).is_err(), "{raw}");
        }
        let a = Args::parse(&argv(&["--mean-gap", "0"])).unwrap();
        assert_eq!(a.get_finite("mean-gap", 8.0, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn unknown_flags_are_named() {
        let a = Args::parse(&argv(&["--bugdet", "5", "--seed", "1"])).unwrap();
        let err = a
            .reject_unknown("schedule", &["budget", "seed"])
            .unwrap_err()
            .to_string();
        assert_eq!(err, "unknown flag --bugdet for schedule");
        assert!(a.reject_unknown("schedule", &["bugdet", "seed"]).is_ok());
    }

    #[test]
    fn require_reports_missing_flags() {
        let a = Args::parse(&[]).unwrap();
        let err = a.require("dag").unwrap_err().to_string();
        assert!(err.contains("--dag"));
    }
}
