//! Node annotations validated against an ontology.

use crate::ontology::{FieldType, Ontology};
use casekit_core::{Argument, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A field value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Text (also enum members).
    Str(String),
    /// Integer.
    Int(i64),
}

impl FieldValue {
    /// Renders for display and query comparison.
    pub fn render(&self) -> String {
        match self {
            FieldValue::Str(s) => s.clone(),
            FieldValue::Int(v) => v.to_string(),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}

/// Errors from annotating.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnnotationError {
    /// The node does not exist in the argument.
    UnknownNode(String),
    /// The attribute is not declared in the ontology.
    UnknownAttribute(String),
    /// A field name is not part of the attribute's schema.
    UnknownField {
        /// The attribute.
        attribute: String,
        /// The offending field.
        field: String,
    },
    /// A schema field was not supplied.
    MissingField {
        /// The attribute.
        attribute: String,
        /// The missing field.
        field: String,
    },
    /// A value failed type checking.
    BadValue {
        /// The attribute.
        attribute: String,
        /// The field.
        field: String,
        /// The rejected value.
        value: String,
    },
}

impl fmt::Display for AnnotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnotationError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            AnnotationError::UnknownAttribute(a) => write!(f, "undeclared attribute `{a}`"),
            AnnotationError::UnknownField { attribute, field } => {
                write!(f, "attribute `{attribute}` has no field `{field}`")
            }
            AnnotationError::MissingField { attribute, field } => {
                write!(f, "attribute `{attribute}` requires field `{field}`")
            }
            AnnotationError::BadValue {
                attribute,
                field,
                value,
            } => write!(f, "value `{value}` is invalid for `{attribute}.{field}`"),
        }
    }
}

impl std::error::Error for AnnotationError {}

/// One attribute instance attached to a node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Annotation {
    /// The attribute name.
    pub attribute: String,
    /// Field values by field name.
    pub fields: BTreeMap<String, FieldValue>,
}

/// A store of annotations keyed by node, validated against an [`Ontology`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnotationStore {
    ontology: Ontology,
    annotations: BTreeMap<NodeId, Vec<Annotation>>,
}

impl AnnotationStore {
    /// Creates a store over the given ontology.
    pub fn new(ontology: Ontology) -> Self {
        AnnotationStore {
            ontology,
            annotations: BTreeMap::new(),
        }
    }

    /// The ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Annotates `node` in `argument` with an attribute instance.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes, undeclared attributes, unknown or missing
    /// fields, and ill-typed values.
    pub fn annotate(
        &mut self,
        argument: &Argument,
        node: &str,
        attribute: &str,
        fields: impl IntoIterator<Item = (impl Into<String>, impl Into<FieldValue>)>,
    ) -> Result<(), AnnotationError> {
        let node_id = NodeId::new(node);
        if argument.node(&node_id).is_none() {
            return Err(AnnotationError::UnknownNode(node.to_string()));
        }
        let schema: Vec<(String, FieldType)> = self
            .ontology
            .attribute_schema(attribute)
            .ok_or_else(|| AnnotationError::UnknownAttribute(attribute.to_string()))?
            .to_vec();
        let supplied: BTreeMap<String, FieldValue> = fields
            .into_iter()
            .map(|(k, v)| (k.into(), v.into()))
            .collect();
        for name in supplied.keys() {
            if !schema.iter().any(|(n, _)| n == name) {
                return Err(AnnotationError::UnknownField {
                    attribute: attribute.to_string(),
                    field: name.clone(),
                });
            }
        }
        for (name, ty) in &schema {
            match supplied.get(name) {
                None => {
                    return Err(AnnotationError::MissingField {
                        attribute: attribute.to_string(),
                        field: name.clone(),
                    })
                }
                Some(value) => {
                    if !self.ontology.field_ok(ty, value) {
                        return Err(AnnotationError::BadValue {
                            attribute: attribute.to_string(),
                            field: name.clone(),
                            value: value.render(),
                        });
                    }
                }
            }
        }
        self.annotations
            .entry(node_id)
            .or_default()
            .push(Annotation {
                attribute: attribute.to_string(),
                fields: supplied,
            });
        Ok(())
    }

    /// The annotations on `node`.
    pub fn annotations(&self, node: &NodeId) -> &[Annotation] {
        self.annotations.get(node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of annotation instances.
    pub fn len(&self) -> usize {
        self.annotations.values().map(Vec::len).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.annotations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casekit_core::dsl::parse_argument;

    fn setup() -> (Argument, AnnotationStore) {
        let arg = parse_argument(
            r#"argument "a" {
                goal g1 "top" {
                  goal g2 "fire hazard handled" { solution e1 "test" }
                }
            }"#,
        )
        .unwrap();
        let mut ontology = Ontology::new();
        ontology.declare_enum("severity", ["catastrophic", "major", "minor"]);
        ontology.declare_enum("likelihood", ["frequent", "probable", "remote"]);
        ontology.declare_attribute(
            "hazard",
            [
                ("severity", FieldType::Enum("severity".into())),
                ("likelihood", FieldType::Enum("likelihood".into())),
            ],
        );
        ontology.declare_attribute("wcet_ms", [("value", FieldType::Nat)]);
        (arg, AnnotationStore::new(ontology))
    }

    #[test]
    fn annotate_and_read_back() {
        let (arg, mut store) = setup();
        store
            .annotate(
                &arg,
                "g2",
                "hazard",
                [("severity", "catastrophic"), ("likelihood", "remote")],
            )
            .unwrap();
        let anns = store.annotations(&NodeId::new("g2"));
        assert_eq!(anns.len(), 1);
        assert_eq!(anns[0].attribute, "hazard");
        assert_eq!(
            anns[0].fields["severity"],
            FieldValue::Str("catastrophic".into())
        );
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn unknown_node_rejected() {
        let (arg, mut store) = setup();
        let err = store
            .annotate(
                &arg,
                "zzz",
                "hazard",
                [("severity", "major"), ("likelihood", "remote")],
            )
            .unwrap_err();
        assert_eq!(err, AnnotationError::UnknownNode("zzz".into()));
    }

    #[test]
    fn undeclared_attribute_rejected() {
        let (arg, mut store) = setup();
        let err = store
            .annotate(&arg, "g2", "mystery", [("x", "y")])
            .unwrap_err();
        assert_eq!(err, AnnotationError::UnknownAttribute("mystery".into()));
    }

    #[test]
    fn unknown_and_missing_fields_rejected() {
        let (arg, mut store) = setup();
        let err = store
            .annotate(
                &arg,
                "g2",
                "hazard",
                [
                    ("severity", "major"),
                    ("likelihood", "remote"),
                    ("colour", "red"),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, AnnotationError::UnknownField { .. }));
        let err = store
            .annotate(&arg, "g2", "hazard", [("severity", "major")])
            .unwrap_err();
        assert!(matches!(
            err,
            AnnotationError::MissingField { ref field, .. } if field == "likelihood"
        ));
    }

    #[test]
    fn enum_membership_enforced() {
        let (arg, mut store) = setup();
        let err = store
            .annotate(
                &arg,
                "g2",
                "hazard",
                [("severity", "apocalyptic"), ("likelihood", "remote")],
            )
            .unwrap_err();
        assert!(matches!(err, AnnotationError::BadValue { .. }));
        assert!(err.to_string().contains("apocalyptic"));
    }

    #[test]
    fn nat_field_enforced() {
        let (arg, mut store) = setup();
        assert!(store
            .annotate(&arg, "e1", "wcet_ms", [("value", 250i64)])
            .is_ok());
        let err = store
            .annotate(&arg, "e1", "wcet_ms", [("value", -1i64)])
            .unwrap_err();
        assert!(matches!(err, AnnotationError::BadValue { .. }));
    }

    #[test]
    fn multiple_annotations_per_node() {
        let (arg, mut store) = setup();
        store
            .annotate(
                &arg,
                "g2",
                "hazard",
                [("severity", "major"), ("likelihood", "remote")],
            )
            .unwrap();
        store
            .annotate(
                &arg,
                "g2",
                "hazard",
                [("severity", "minor"), ("likelihood", "frequent")],
            )
            .unwrap();
        assert_eq!(store.annotations(&NodeId::new("g2")).len(), 2);
    }

    #[test]
    fn error_displays() {
        assert!(AnnotationError::UnknownNode("n".into())
            .to_string()
            .contains("`n`"));
        assert!(AnnotationError::MissingField {
            attribute: "a".into(),
            field: "f".into()
        }
        .to_string()
        .contains("requires"));
    }
}
