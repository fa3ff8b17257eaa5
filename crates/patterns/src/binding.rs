//! Typed pattern parameters and bindings.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The type of a pattern parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamType {
    /// An integer, optionally range-restricted (inclusive).
    Int {
        /// Lower bound, if any.
        min: Option<i64>,
        /// Upper bound, if any.
        max: Option<i64>,
    },
    /// A natural number (≥ 0).
    Nat,
    /// A percentage: an integer in 0..=100 (Matsuno's CPU example).
    Percent,
    /// Free-form text.
    Str,
    /// One of an enumerated set of allowed strings (Denney et al.'s
    /// `userDefinedEnum`).
    Enum {
        /// The enumeration's name (for messages).
        name: String,
        /// The allowed values.
        values: Vec<String>,
    },
    /// A list whose elements all have the given type; used for
    /// multiplicity expansion.
    List(Box<ParamType>),
}

impl ParamType {
    /// Convenience: enumeration.
    pub fn enumeration(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ParamType::Enum {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Convenience: list of `elem`.
    pub fn list(elem: ParamType) -> Self {
        ParamType::List(Box::new(elem))
    }
}

impl fmt::Display for ParamType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamType::Int {
                min: None,
                max: None,
            } => write!(f, "Int"),
            ParamType::Int { min, max } => {
                let lo = min.map_or(String::from("-inf"), |v| v.to_string());
                let hi = max.map_or(String::from("+inf"), |v| v.to_string());
                write!(f, "Int[{lo}..{hi}]")
            }
            ParamType::Nat => write!(f, "Nat"),
            ParamType::Percent => write!(f, "Percent"),
            ParamType::Str => write!(f, "String"),
            ParamType::Enum { name, .. } => write!(f, "{name}"),
            ParamType::List(t) => write!(f, "List<{t}>"),
        }
    }
}

/// A parameter value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamValue {
    /// An integer.
    Int(i64),
    /// A string (also used for enum values).
    Str(String),
    /// A list of values.
    List(Vec<ParamValue>),
}

impl ParamValue {
    /// Renders the value as text for placeholder substitution.
    pub fn render(&self) -> String {
        match self {
            ParamValue::Int(v) => v.to_string(),
            ParamValue::Str(s) => s.clone(),
            ParamValue::List(items) => items
                .iter()
                .map(ParamValue::render)
                .collect::<Vec<_>>()
                .join(", "),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<&str> for ParamValue {
    fn from(s: &str) -> Self {
        ParamValue::Str(s.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(s: String) -> Self {
        ParamValue::Str(s)
    }
}

/// A type-checking failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeError {
    /// The parameter at fault.
    pub param: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parameter `{}`: {}", self.param, self.message)
    }
}

impl std::error::Error for TypeError {}

/// Checks a value against a type.
pub(crate) fn type_check(param: &str, value: &ParamValue, ty: &ParamType) -> Result<(), TypeError> {
    let err = |message: String| {
        Err(TypeError {
            param: param.to_string(),
            message,
        })
    };
    match (ty, value) {
        (ParamType::Int { min, max }, ParamValue::Int(v)) => {
            if let Some(lo) = min {
                if v < lo {
                    return err(format!("{v} is below the minimum {lo}"));
                }
            }
            if let Some(hi) = max {
                if v > hi {
                    return err(format!("{v} is above the maximum {hi}"));
                }
            }
            Ok(())
        }
        (ParamType::Nat, ParamValue::Int(v)) => {
            if *v < 0 {
                err(format!("{v} is not a natural number"))
            } else {
                Ok(())
            }
        }
        (ParamType::Percent, ParamValue::Int(v)) => {
            if (0..=100).contains(v) {
                Ok(())
            } else {
                err(format!("{v} is not a percentage (0..=100)"))
            }
        }
        (ParamType::Str, ParamValue::Str(_)) => Ok(()),
        (ParamType::Enum { name, values }, ParamValue::Str(s)) => {
            if values.iter().any(|v| v == s) {
                Ok(())
            } else {
                err(format!(
                    "`{s}` is not a member of {name} (allowed: {})",
                    values.join(" | ")
                ))
            }
        }
        (ParamType::List(elem), ParamValue::List(items)) => {
            for (i, item) in items.iter().enumerate() {
                type_check(&format!("{param}[{i}]"), item, elem)?;
            }
            Ok(())
        }
        (ty, value) => err(format!("value `{value}` does not have type {ty}")),
    }
}

/// A set of parameter bindings.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    values: BTreeMap<String, ParamValue>,
}

impl Binding {
    /// An empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `param` to `value`, chaining.
    pub fn with(mut self, param: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.values.insert(param.into(), value.into());
        self
    }

    /// Binds `param` to `value`.
    pub fn set(&mut self, param: impl Into<String>, value: impl Into<ParamValue>) {
        self.values.insert(param.into(), value.into());
    }

    /// The value bound to `param`, if any.
    pub fn get(&self, param: &str) -> Option<&ParamValue> {
        self.values.get(param)
    }

    /// The bound parameter names.
    pub fn params(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl FromIterator<(String, ParamValue)> for Binding {
    fn from_iter<I: IntoIterator<Item = (String, ParamValue)>>(iter: I) -> Self {
        Binding {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_checks() {
        let ty = ParamType::Int {
            min: Some(0),
            max: Some(100),
        };
        assert!(type_check("u", &ParamValue::Int(50), &ty).is_ok());
        assert!(type_check("u", &ParamValue::Int(0), &ty).is_ok());
        assert!(type_check("u", &ParamValue::Int(100), &ty).is_ok());
        let e = type_check("u", &ParamValue::Int(101), &ty).unwrap_err();
        assert!(e.message.contains("above"));
        let e = type_check("u", &ParamValue::Int(-1), &ty).unwrap_err();
        assert!(e.message.contains("below"));
    }

    #[test]
    fn percent_is_matsunos_cpu_example() {
        // "restricting a claimed CPU utilisation to the range 0–100%".
        assert!(type_check("cpu", &ParamValue::Int(73), &ParamType::Percent).is_ok());
        assert!(type_check("cpu", &ParamValue::Int(130), &ParamType::Percent).is_err());
    }

    #[test]
    fn nat_rejects_negative() {
        assert!(type_check("n", &ParamValue::Int(0), &ParamType::Nat).is_ok());
        assert!(type_check("n", &ParamValue::Int(-3), &ParamType::Nat).is_err());
    }

    #[test]
    fn enum_is_denneys_element_example() {
        // "element ::= aileron | elevator | flaps".
        let ty = ParamType::enumeration("element", ["aileron", "elevator", "flaps"]);
        assert!(type_check("e", &"aileron".into(), &ty).is_ok());
        let err = type_check("e", &"Railway hazards".into(), &ty).unwrap_err();
        assert!(err.message.contains("not a member"));
        assert!(err.message.contains("aileron | elevator | flaps"));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let e = type_check("s", &ParamValue::Int(3), &ParamType::Str).unwrap_err();
        assert!(e.message.contains("does not have type"));
        let int = ParamType::Int {
            min: None,
            max: None,
        };
        assert!(type_check("i", &"three".into(), &int).is_err());
    }

    #[test]
    fn list_elements_checked_with_index() {
        let ty = ParamType::list(ParamType::Percent);
        let ok = ParamValue::List(vec![ParamValue::Int(10), ParamValue::Int(90)]);
        assert!(type_check("xs", &ok, &ty).is_ok());
        let bad = ParamValue::List(vec![ParamValue::Int(10), ParamValue::Int(900)]);
        let err = type_check("xs", &bad, &ty).unwrap_err();
        assert_eq!(err.param, "xs[1]");
    }

    #[test]
    fn binding_builder_and_lookup() {
        let b = Binding::new().with("x", 2i64).with("z", "hello");
        assert_eq!(b.get("x"), Some(&ParamValue::Int(2)));
        assert_eq!(b.get("z"), Some(&ParamValue::Str("hello".into())));
        assert!(b.get("y").is_none());
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        let names: Vec<_> = b.params().collect();
        assert_eq!(names, vec!["x", "z"]);
    }

    #[test]
    fn value_rendering() {
        assert_eq!(ParamValue::Int(5).render(), "5");
        assert_eq!(ParamValue::Str("hi".into()).render(), "hi");
        assert_eq!(
            ParamValue::List(vec![1i64.into(), 2i64.into()]).render(),
            "1, 2"
        );
    }

    #[test]
    fn type_display() {
        let int = ParamType::Int {
            min: None,
            max: None,
        };
        assert_eq!(int.to_string(), "Int");
        let range = ParamType::Int {
            min: Some(0),
            max: Some(9),
        };
        assert_eq!(range.to_string(), "Int[0..9]");
        assert_eq!(ParamType::Percent.to_string(), "Percent");
        assert_eq!(
            ParamType::enumeration("element", ["a"]).to_string(),
            "element"
        );
        assert_eq!(ParamType::list(ParamType::Nat).to_string(), "List<Nat>");
    }

    #[test]
    fn type_error_display() {
        let e = TypeError {
            param: "x".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "parameter `x`: boom");
    }
}
