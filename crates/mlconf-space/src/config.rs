//! A concrete configuration: an assignment of values to every parameter of
//! a space, in the space's declaration order.

use mlconf_util::json::Json;
use serde::{Deserialize, Serialize};

use crate::error::SpaceError;
use crate::param::ParamValue;

/// An ordered assignment of values to named parameters.
///
/// Order always matches the declaring [`ConfigSpace`](crate::space::ConfigSpace)'s
/// parameter order, so two configurations from the same space can be
/// compared entry-wise.
///
/// # Examples
///
/// ```
/// use mlconf_space::config::Configuration;
///
/// let cfg = Configuration::from_pairs([
///     ("num_workers", 8i64.into()),
///     ("arch", "ps".into()),
/// ]);
/// assert_eq!(cfg.get_int("num_workers")?, 8);
/// assert_eq!(cfg.get_str("arch")?, "ps");
/// # Ok::<(), mlconf_space::error::SpaceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Configuration {
    entries: Vec<(String, ParamValue)>,
}

impl Configuration {
    /// Creates a configuration from `(name, value)` pairs in order.
    pub fn from_pairs<N: Into<String>>(pairs: impl IntoIterator<Item = (N, ParamValue)>) -> Self {
        Configuration {
            entries: pairs.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// Number of parameters assigned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no parameters are assigned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a value by parameter name.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Returns the value at position `idx` (the space's parameter order).
    pub fn value_at(&self, idx: usize) -> Option<&ParamValue> {
        self.entries.get(idx).map(|(_, v)| v)
    }

    /// Replaces the value for `name`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] if `name` is not present.
    pub fn set(&mut self, name: &str, value: ParamValue) -> Result<(), SpaceError> {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => {
                *v = value;
                Ok(())
            }
            None => Err(SpaceError::UnknownParam { name: name.into() }),
        }
    }

    /// Typed accessor for an integer parameter.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] or [`SpaceError::TypeMismatch`].
    pub fn get_int(&self, name: &str) -> Result<i64, SpaceError> {
        let v = self
            .get(name)
            .ok_or_else(|| SpaceError::UnknownParam { name: name.into() })?;
        v.as_int().ok_or_else(|| SpaceError::TypeMismatch {
            name: name.into(),
            expected: "int",
            found: v.type_name(),
        })
    }

    /// Typed accessor for a float parameter.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] or [`SpaceError::TypeMismatch`].
    pub fn get_float(&self, name: &str) -> Result<f64, SpaceError> {
        let v = self
            .get(name)
            .ok_or_else(|| SpaceError::UnknownParam { name: name.into() })?;
        v.as_float().ok_or_else(|| SpaceError::TypeMismatch {
            name: name.into(),
            expected: "float",
            found: v.type_name(),
        })
    }

    /// Typed accessor for a categorical parameter.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] or [`SpaceError::TypeMismatch`].
    pub fn get_str(&self, name: &str) -> Result<&str, SpaceError> {
        let v = self
            .get(name)
            .ok_or_else(|| SpaceError::UnknownParam { name: name.into() })?;
        v.as_str().ok_or_else(|| SpaceError::TypeMismatch {
            name: name.into(),
            expected: "categorical",
            found: v.type_name(),
        })
    }

    /// Typed accessor for a boolean parameter.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] or [`SpaceError::TypeMismatch`].
    pub fn get_bool(&self, name: &str) -> Result<bool, SpaceError> {
        let v = self
            .get(name)
            .ok_or_else(|| SpaceError::UnknownParam { name: name.into() })?;
        v.as_bool().ok_or_else(|| SpaceError::TypeMismatch {
            name: name.into(),
            expected: "bool",
            found: v.type_name(),
        })
    }

    /// Iterates over `(name, value)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// A stable single-line key for deduplication (name=value pairs joined
    /// by commas). Float values are formatted with full precision.
    pub fn key(&self) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v)| match v {
                ParamValue::Float(x) => format!("{n}={x:?}"),
                other => format!("{n}={other}"),
            })
            .collect();
        parts.join(",")
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a Configuration {
    type Item = (&'a str, &'a ParamValue);
    type IntoIter = std::vec::IntoIter<(&'a str, &'a ParamValue)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries
            .iter()
            .map(|(n, v)| (n.as_str(), v))
            .collect::<Vec<_>>()
            .into_iter()
    }
}

/// Encodes a configuration as a flat `{name: value}` JSON object in
/// parameter order — the one encoding shared by the service API, JSONL
/// traces and the CLI's `--json` summary.
pub fn config_to_json(cfg: &Configuration) -> Json {
    Json::Obj(
        cfg.iter()
            .map(|(name, value)| {
                let v = match value {
                    ParamValue::Int(i) => Json::Num(*i as f64),
                    ParamValue::Float(f) => Json::Num(*f),
                    ParamValue::Str(s) => Json::Str(s.clone()),
                    ParamValue::Bool(b) => Json::Bool(*b),
                };
                (name.to_owned(), v)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Configuration {
        Configuration::from_pairs([
            ("workers", ParamValue::Int(8)),
            ("rate", ParamValue::Float(0.5)),
            ("arch", ParamValue::Str("ps".into())),
            ("pipelined", ParamValue::Bool(true)),
        ])
    }

    #[test]
    fn typed_getters() {
        let c = sample();
        assert_eq!(c.get_int("workers").unwrap(), 8);
        assert_eq!(c.get_float("rate").unwrap(), 0.5);
        assert_eq!(c.get_str("arch").unwrap(), "ps");
        assert!(c.get_bool("pipelined").unwrap());
    }

    #[test]
    fn getter_errors() {
        let c = sample();
        assert!(matches!(
            c.get_int("nope"),
            Err(SpaceError::UnknownParam { .. })
        ));
        assert!(matches!(
            c.get_int("rate"),
            Err(SpaceError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn set_replaces_value() {
        let mut c = sample();
        c.set("workers", ParamValue::Int(16)).unwrap();
        assert_eq!(c.get_int("workers").unwrap(), 16);
        assert!(c.set("nope", ParamValue::Int(1)).is_err());
    }

    #[test]
    fn ordering_is_preserved() {
        let c = sample();
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["workers", "rate", "arch", "pipelined"]);
        assert_eq!(c.value_at(0), Some(&ParamValue::Int(8)));
        assert_eq!(c.value_at(9), None);
    }

    #[test]
    fn key_distinguishes_configs() {
        let a = sample();
        let mut b = sample();
        b.set("workers", ParamValue::Int(9)).unwrap();
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key(), sample().key());
    }

    #[test]
    fn display_shows_all_entries() {
        let s = sample().to_string();
        assert!(s.contains("workers: 8"));
        assert!(s.contains("arch: ps"));
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(sample().len(), 4);
        assert!(!sample().is_empty());
        let e = Configuration::from_pairs(Vec::<(String, ParamValue)>::new());
        assert!(e.is_empty());
    }
}
