//! Command-line parsing shared by every bench binary: `reproduce`'s
//! `--scale` / `--seed` ([`parse_args`]) and the harnesses' `--key value`
//! flags ([`Flags`]). Malformed input exits the process with status 2
//! and a message; it never falls back to a default.

use std::fmt::Display;
use std::str::FromStr;

/// Workload scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast sanity run.
    Smoke,
    /// Shape-reproducing run (~a minute per figure).
    Default,
    /// The longest traces (minutes).
    Full,
}

impl Scale {
    /// Parse from the CLI token.
    pub(crate) fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "default" => Ok(Scale::Default),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale `{other}` (smoke|default|full)")),
        }
    }

    /// Catalog-size multiplier applied to the traffic-class parameters.
    pub fn catalog_factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.02,
            Scale::Default => 0.5,
            Scale::Full => 1.0,
        }
    }

    /// Request-rate multiplier. Kept high relative to the catalog factor:
    /// the paper's traces run at hundreds of requests/second per city, so
    /// a satellite warms its cache *within* one pass over a region —
    /// scaling the rate down with the catalog would exaggerate cold-cache
    /// effects and understate the LRU baseline.
    pub fn rate_factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.15,
            Scale::Default => 2.0,
            Scale::Full => 3.0,
        }
    }

    /// Trace duration, hours.
    pub fn trace_hours(self) -> u64 {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 24,
            Scale::Full => 120, // the paper's 5 days
        }
    }
}

/// `Scale::parse`, so a `--scale` flag reads like any other value.
impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        Scale::parse(s)
    }
}

/// Parsed common arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub scale: Scale,
    pub seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args { scale: Scale::Default, seed: 42 }
    }
}

/// `--key value` pairs, every key from a fixed set.
#[derive(Debug)]
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parse `argv` as `--key value` pairs; a key outside `keys` or a
    /// key without a value is an error.
    pub(crate) fn parse(
        argv: impl IntoIterator<Item = String>,
        keys: &[&str],
    ) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = argv.into_iter();
        while let Some(key) = it.next() {
            if !keys.contains(&key.as_str()) {
                return Err(format!("unknown argument `{key}` (accepted: {})", keys.join(" ")));
            }
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            pairs.push((key, value));
        }
        Ok(Flags(pairs))
    }

    /// `Flags::parse` over the current process's arguments.
    pub fn from_env(keys: &[&str]) -> Flags {
        Flags::parse(std::env::args().skip(1), keys).unwrap_or_else(|e| die(&e))
    }

    /// The last value given for `key`, parsed as a `T` (a [`Scale`]
    /// through [`Scale::parse`]); `Ok(None)` when the flag is absent.
    pub(crate) fn try_get<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        match self.0.iter().rev().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v.parse().map(Some).map_err(|e| format!("{key} `{v}`: {e}")),
        }
    }

    /// `Flags::try_get`; a malformed value exits.
    pub fn get<T: FromStr>(&self, key: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.try_get(key).unwrap_or_else(|e| die(&e))
    }

    /// [`Flags::get`] for a flag the run cannot do without.
    pub fn require<T: FromStr>(&self, key: &str) -> T
    where
        T::Err: Display,
    {
        self.get(key).unwrap_or_else(|| die(&format!("{key} is required")))
    }
}

/// Parse `--scale` / `--seed` from an iterator of CLI tokens.
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Args {
    let flags = Flags::parse(argv, &["--scale", "--seed"]).unwrap_or_else(|e| die(&e));
    let d = Args::default();
    Args {
        scale: flags.get("--scale").unwrap_or(d.scale),
        seed: flags.get("--seed").unwrap_or(d.seed),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(argv: &[&str], keys: &[&str]) -> Result<Flags, String> {
        Flags::parse(argv.iter().map(|s| s.to_string()), keys)
    }

    #[test]
    fn defaults() {
        let a = parse_args(Vec::<String>::new());
        assert_eq!(a, Args { scale: Scale::Default, seed: 42 });
    }

    #[test]
    fn parses_scale_and_seed() {
        let a = parse_args(["--scale", "smoke", "--seed", "7"].map(String::from));
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn scale_presets_ordered() {
        assert!(Scale::Smoke.catalog_factor() < Scale::Default.catalog_factor());
        assert!(Scale::Default.catalog_factor() < Scale::Full.catalog_factor());
        assert!(Scale::Smoke.rate_factor() < Scale::Default.rate_factor());
        assert_eq!(Scale::Full.trace_hours(), 120);
    }

    #[test]
    fn scale_parse_errors() {
        assert!(Scale::parse("medium").is_err());
        assert_eq!(Scale::parse("full"), Ok(Scale::Full));
    }

    #[test]
    fn flags_parse_scale_and_numbers_strictly() {
        let keys = ["--scale", "--seeds"];
        let f = flags(&["--scale", "smoke", "--seeds", "64"], &keys).unwrap();
        assert_eq!(f.try_get("--scale"), Ok(Some(Scale::Smoke)));
        assert_eq!(f.try_get("--seeds"), Ok(Some(64u64)));

        // A typo is an error, never the full sweep or the default count.
        let f = flags(&["--scale", "smok", "--seeds", "x"], &keys).unwrap();
        let e = f.try_get::<Scale>("--scale").unwrap_err();
        assert!(e.contains("unknown scale `smok`"), "{e}");
        let e = f.try_get::<u64>("--seeds").unwrap_err();
        assert!(e.starts_with("--seeds `x`"), "{e}");
        assert!(flags(&["--seeds", "-3"], &keys).unwrap().try_get::<u64>("--seeds").is_err());
    }

    #[test]
    fn flags_absent_and_repeated() {
        let f = flags(&["--seeds", "1", "--seeds", "2"], &["--scale", "--seeds"]).unwrap();
        assert_eq!(f.try_get::<Scale>("--scale"), Ok(None));
        assert_eq!(f.try_get("--seeds"), Ok(Some(2u64)), "the last value wins");
    }

    #[test]
    fn flags_reject_unknown_keys_and_missing_values() {
        let e = flags(&["--sedes", "5"], &["--seeds"]).unwrap_err();
        assert!(e.contains("unknown argument `--sedes`"), "{e}");
        let e = flags(&["--seeds"], &["--seeds"]).unwrap_err();
        assert_eq!(e, "--seeds needs a value");
        assert!(flags(&["smoke"], &["--scale"]).is_err(), "a bare value is not a flag");
    }
}
