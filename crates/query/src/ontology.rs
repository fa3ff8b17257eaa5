//! Ontologies: declared attribute schemas and enumerations.
//!
//! Denney et al.'s grammar: `attribute ::= attributeName param*` with
//! `param ::= String | Int | Nat | … userDefinedEnum`. We give params
//! names so queries can say `hazard.severity`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The type of one attribute field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldType {
    /// Free text.
    Str,
    /// Any integer.
    Int,
    /// A natural number.
    Nat,
    /// A member of the named user-defined enumeration.
    Enum(String),
}

/// An ontology: enumerations plus attribute schemas.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ontology {
    enums: BTreeMap<String, Vec<String>>,
    attributes: BTreeMap<String, Vec<(String, FieldType)>>,
}

impl Ontology {
    /// An empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or replaces) an enumeration.
    pub fn declare_enum(
        &mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) {
        self.enums
            .insert(name.into(), values.into_iter().map(Into::into).collect());
    }

    /// Declares (or replaces) an attribute schema with named, typed fields.
    pub fn declare_attribute(
        &mut self,
        name: impl Into<String>,
        fields: impl IntoIterator<Item = (impl Into<String>, FieldType)>,
    ) {
        self.attributes.insert(
            name.into(),
            fields.into_iter().map(|(n, t)| (n.into(), t)).collect(),
        );
    }

    /// The schema of an attribute, if declared.
    pub fn attribute_schema(&self, name: &str) -> Option<&[(String, FieldType)]> {
        self.attributes.get(name).map(Vec::as_slice)
    }

    /// Whether `value` is valid for `ty`.
    pub fn field_ok(&self, ty: &FieldType, value: &crate::annotation::FieldValue) -> bool {
        use crate::annotation::FieldValue;
        match (ty, value) {
            (FieldType::Str, FieldValue::Str(_)) => true,
            (FieldType::Int, FieldValue::Int(_)) => true,
            (FieldType::Nat, FieldValue::Int(v)) => *v >= 0,
            (FieldType::Enum(name), FieldValue::Str(s)) => self
                .enums
                .get(name)
                .is_some_and(|vals| vals.iter().any(|v| v == s)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::FieldValue;

    #[test]
    fn declarations_and_lookup() {
        let mut o = Ontology::new();
        o.declare_enum("element", ["aileron", "elevator", "flaps"]);
        o.declare_attribute("verifies", [("element", FieldType::Enum("element".into()))]);
        let element = FieldType::Enum("element".into());
        for value in ["aileron", "elevator", "flaps"] {
            assert!(o.field_ok(&element, &FieldValue::Str(value.into())));
        }
        assert_eq!(o.attribute_schema("verifies").unwrap().len(), 1);
        assert!(o.attribute_schema("missing").is_none());
    }

    #[test]
    fn field_validation() {
        let mut o = Ontology::new();
        o.declare_enum("severity", ["catastrophic", "major"]);
        assert!(o.field_ok(&FieldType::Str, &FieldValue::Str("x".into())));
        assert!(o.field_ok(&FieldType::Int, &FieldValue::Int(-5)));
        assert!(o.field_ok(&FieldType::Nat, &FieldValue::Int(5)));
        assert!(!o.field_ok(&FieldType::Nat, &FieldValue::Int(-5)));
        assert!(o.field_ok(
            &FieldType::Enum("severity".into()),
            &FieldValue::Str("major".into())
        ));
        assert!(!o.field_ok(
            &FieldType::Enum("severity".into()),
            &FieldValue::Str("negligible".into())
        ));
        assert!(!o.field_ok(
            &FieldType::Enum("undeclared".into()),
            &FieldValue::Str("major".into())
        ));
        assert!(!o.field_ok(&FieldType::Int, &FieldValue::Str("5".into())));
    }

    #[test]
    fn redeclaration_replaces() {
        let mut o = Ontology::new();
        o.declare_enum("e", ["a"]);
        o.declare_enum("e", ["b", "c"]);
        let e = FieldType::Enum("e".into());
        assert!(!o.field_ok(&e, &FieldValue::Str("a".into())));
        assert!(o.field_ok(&e, &FieldValue::Str("b".into())));
        assert!(o.field_ok(&e, &FieldValue::Str("c".into())));
    }
}
