//! Tiny flag parser shared by the subcommands.

use std::collections::HashMap;

/// Parsed `--key value` flags plus positional arguments.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `args`; every `--key` consumes the following token as value.
    /// A key outside `known` (the command's flags) is an error, so a typo
    /// never silently falls back to a default.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut out = Flags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !known.contains(&key) {
                    return Err(format!("unknown flag --{key}"));
                }
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                if out.values.insert(key.to_string(), v.clone()).is_some() {
                    return Err(format!("flag --{key} given twice"));
                }
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    /// Raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required --{key}"))
    }

    /// Optional parsed value.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("bad value for --{key}: {e}")),
        }
    }

    /// Parsed value with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        Flags::parse(&args, &["n", "seed", "out"])
    }

    #[test]
    fn flags_and_positionals() {
        let f = parse(&["--n", "100", "input.txt", "--seed", "7"]).unwrap();
        assert_eq!(f.get("n"), Some("100"));
        assert_eq!(f.get_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(f.positional, vec!["input.txt"]);
        assert_eq!(f.get_or::<usize>("missing", 5).unwrap(), 5);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["--n"]).is_err());
    }

    #[test]
    fn duplicate_flag_is_error() {
        assert!(parse(&["--n", "1", "--n", "2"]).is_err());
    }

    #[test]
    fn bad_parse_reports_flag() {
        let f = parse(&["--n", "xyz"]).unwrap();
        let err = f.get_parsed::<usize>("n").unwrap_err();
        assert!(err.contains("--n"));
    }

    #[test]
    fn require_reports_missing() {
        let f = parse(&[]).unwrap();
        assert!(f.require("out").unwrap_err().contains("--out"));
    }
}
