//! The conceptual model: classes, relationships, and an instance store.
//!
//! OOHDM's first design phase produces a *conceptual model* — plain domain
//! classes with attributes and relationships, knowing nothing about
//! navigation (that is the point of the paper). `navsep-core`'s museum
//! generator instantiates this schema; the navigational schema in
//! [`crate::navigational`] defines *views* over it.

use crate::error::ModelError;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An attribute declaration on a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    /// Attribute name (e.g. `title`).
    pub name: String,
    /// Whether every instance must supply it.
    pub required: bool,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    /// Class name (e.g. `Painter`).
    pub name: String,
    /// Declared attributes.
    pub attributes: Vec<AttributeDef>,
}

/// Cardinality of a relationship end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// Exactly one.
    One,
    /// Zero or more.
    Many,
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cardinality::One => "1",
            Cardinality::Many => "*",
        })
    }
}

/// A binary relationship declaration between two classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationshipDef {
    /// Relationship name (e.g. `painted`).
    pub name: String,
    /// Source class name.
    pub source: String,
    /// Target class name.
    pub target: String,
    /// Cardinality at the target end (source assumed `Many` for simplicity).
    pub target_cardinality: Cardinality,
}

/// The conceptual schema: class and relationship declarations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConceptualSchema {
    classes: Vec<ClassDef>,
    relationships: Vec<RelationshipDef>,
}

impl ConceptualSchema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a class with the given attribute names (all optional).
    pub fn class(mut self, name: &str, attributes: &[&str]) -> Self {
        self.classes.push(ClassDef {
            name: name.to_string(),
            attributes: attributes
                .iter()
                .map(|a| AttributeDef {
                    name: (*a).to_string(),
                    required: false,
                })
                .collect(),
        });
        self
    }

    /// Declares a relationship `source -name-> target`.
    pub fn relationship(
        mut self,
        name: &str,
        source: &str,
        target: &str,
        target_cardinality: Cardinality,
    ) -> Self {
        self.relationships.push(RelationshipDef {
            name: name.to_string(),
            source: source.to_string(),
            target: target.to_string(),
            target_cardinality,
        });
        self
    }

    /// Looks up a class declaration.
    pub fn class_def(&self, name: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Looks up a relationship declaration.
    pub fn relationship_def(&self, name: &str) -> Option<&RelationshipDef> {
        self.relationships.iter().find(|r| r.name == name)
    }

    /// All class declarations.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// All relationship declarations.
    pub fn relationships(&self) -> &[RelationshipDef] {
        &self.relationships
    }
}

/// A stable object identifier (unique within an [`InstanceStore`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(String);

impl ObjectId {
    /// Wraps a string id.
    pub fn new(id: impl Into<String>) -> Self {
        ObjectId(id.into())
    }

    /// The id as text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Lets id-keyed maps answer a `&str` lookup without allocating an
/// `ObjectId`; the derived `Hash`/`Eq` agree with `str`'s.
impl Borrow<str> for ObjectId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectId {
    fn from(s: &str) -> Self {
        ObjectId::new(s)
    }
}

impl From<String> for ObjectId {
    fn from(s: String) -> Self {
        ObjectId(s)
    }
}

impl From<&ObjectId> for ObjectId {
    fn from(id: &ObjectId) -> Self {
        id.clone()
    }
}

/// One instance of a conceptual class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptualObject {
    id: ObjectId,
    class: String,
    attributes: BTreeMap<String, String>,
}

impl ConceptualObject {
    /// The object's id.
    pub fn id(&self) -> &ObjectId {
        &self.id
    }

    /// The object's class name.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// An attribute value.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes.get(name).map(String::as_str)
    }

    /// All attributes, sorted by name.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attributes
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// A populated conceptual model: objects plus relationship links, validated
/// against a [`ConceptualSchema`].
///
/// The store is append-only: objects and links can be added but never
/// removed or changed, so its indexes are only ever extended and need no
/// invalidation. With `n` objects, `r` declared relationships and `a`
/// attributes on the created object's class:
///
/// * [`object`](Self::object) / [`object_by_str`](Self::object_by_str):
///   one hash lookup (a `&str` lookup allocates nothing);
/// * [`create`](Self::create): `O(a)` schema checks plus one hash lookup
///   for the duplicate check;
/// * [`link`](Self::link): `O(r)` to find the relationship, two hash
///   lookups for the endpoints, `O(1)` for the `One`-cardinality check;
/// * [`related`](Self::related) / [`related_to`](Self::related_to):
///   `O(r + k)` for `k` results, read from per-`(relationship, endpoint)`
///   adjacency lists kept in link order;
/// * [`objects_of_class`](Self::objects_of_class): `O(n)`, one pass in
///   creation order.
///
/// # Examples
///
/// ```
/// use navsep_hypermodel::{Cardinality, ConceptualSchema, InstanceStore};
///
/// let schema = ConceptualSchema::new()
///     .class("Painter", &["name"])
///     .class("Painting", &["title", "year"])
///     .relationship("painted", "Painter", "Painting", Cardinality::Many);
/// let mut store = InstanceStore::new(schema);
/// store.create("picasso", "Painter", &[("name", "Pablo Picasso")])?;
/// store.create("guitar", "Painting", &[("title", "Guitar")])?;
/// store.link("painted", "picasso", "guitar")?;
/// assert_eq!(store.related("picasso", "painted")?.len(), 1);
/// # Ok::<(), navsep_hypermodel::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InstanceStore {
    schema: ConceptualSchema,
    objects: Vec<ConceptualObject>,
    /// Position in `objects` of every id.
    by_id: HashMap<ObjectId, usize>,
    /// One entry per declared relationship, parallel to
    /// `schema.relationships()`.
    adjacency: Vec<Adjacency>,
}

/// The links of one relationship, as lists of object positions indexed by
/// the position of the other endpoint, each in link order.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    /// `targets[from]`: the objects `from` links to.
    targets: Vec<Vec<usize>>,
    /// `sources[to]`: the objects that link to `to`.
    sources: Vec<Vec<usize>>,
}

impl Adjacency {
    fn add(&mut self, from: usize, to: usize) {
        fn push(lists: &mut Vec<Vec<usize>>, at: usize, value: usize) {
            if lists.len() <= at {
                lists.resize_with(at + 1, Vec::new);
            }
            lists[at].push(value);
        }
        push(&mut self.targets, from, to);
        push(&mut self.sources, to, from);
    }

    fn list(lists: &[Vec<usize>], at: usize) -> &[usize] {
        lists.get(at).map_or(&[], Vec::as_slice)
    }
}

impl InstanceStore {
    /// Creates an empty store governed by `schema`.
    pub fn new(schema: ConceptualSchema) -> Self {
        let adjacency = vec![Adjacency::default(); schema.relationships.len()];
        InstanceStore {
            schema,
            objects: Vec::new(),
            by_id: HashMap::new(),
            adjacency,
        }
    }

    /// The governing schema.
    pub fn schema(&self) -> &ConceptualSchema {
        &self.schema
    }

    /// Creates an object of `class` with the given attributes.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownClass`] for undeclared classes;
    /// * [`ModelError::UnknownAttribute`] for undeclared attributes;
    /// * [`ModelError::DuplicateObject`] when the id is taken.
    pub fn create(
        &mut self,
        id: impl Into<ObjectId>,
        class: &str,
        attributes: &[(&str, &str)],
    ) -> Result<ObjectId, ModelError> {
        let id = id.into();
        let class_def = self
            .schema
            .class_def(class)
            .ok_or_else(|| ModelError::UnknownClass(class.to_string()))?;
        for (name, _) in attributes {
            if !class_def.attributes.iter().any(|a| a.name == *name) {
                return Err(ModelError::UnknownAttribute {
                    class: class.to_string(),
                    attribute: (*name).to_string(),
                });
            }
        }
        if self.by_id.contains_key(&id) {
            return Err(ModelError::DuplicateObject(id.to_string()));
        }
        self.by_id.insert(id.clone(), self.objects.len());
        self.objects.push(ConceptualObject {
            id: id.clone(),
            class: class.to_string(),
            attributes: attributes
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        });
        Ok(id)
    }

    /// Links `from` to `to` through `relationship`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownRelationship`] / [`ModelError::UnknownObject`];
    /// * [`ModelError::BadLink`] when endpoint classes don't match the
    ///   declaration or a `One`-cardinality end would be exceeded.
    pub fn link(
        &mut self,
        relationship: &str,
        from: impl Into<ObjectId>,
        to: impl Into<ObjectId>,
    ) -> Result<(), ModelError> {
        let from = from.into();
        let to = to.into();
        let (rel_at, rel) = self
            .relationship(relationship)
            .ok_or_else(|| ModelError::UnknownRelationship(relationship.to_string()))?;
        let from_at = self.position(from.as_str())?;
        let to_at = self.position(to.as_str())?;
        let from_class = self.objects[from_at].class();
        let to_class = self.objects[to_at].class();
        if from_class != rel.source {
            return Err(ModelError::BadLink {
                relationship: rel.name.clone(),
                reason: format!("source must be {}, got {from_class}", rel.source),
            });
        }
        if to_class != rel.target {
            return Err(ModelError::BadLink {
                relationship: rel.name.clone(),
                reason: format!("target must be {}, got {to_class}", rel.target),
            });
        }
        if rel.target_cardinality == Cardinality::One
            && !Adjacency::list(&self.adjacency[rel_at].targets, from_at).is_empty()
        {
            return Err(ModelError::BadLink {
                relationship: rel.name.clone(),
                reason: "target cardinality 1 exceeded".into(),
            });
        }
        self.adjacency[rel_at].add(from_at, to_at);
        Ok(())
    }

    /// The position and declaration of the relationship named `name`.
    fn relationship(&self, name: &str) -> Option<(usize, &RelationshipDef)> {
        self.schema
            .relationships
            .iter()
            .enumerate()
            .find(|(_, r)| r.name == name)
    }

    /// The position in `objects` of `id`.
    fn position(&self, id: &str) -> Result<usize, ModelError> {
        self.by_id
            .get(id)
            .copied()
            .ok_or_else(|| ModelError::UnknownObject(id.to_string()))
    }

    /// The objects the `lists` side of `relationship` holds for `id`, in
    /// link order; empty when the relationship is undeclared.
    fn adjacent(
        &self,
        id: impl Into<ObjectId>,
        relationship: &str,
        lists: impl Fn(&Adjacency) -> &[Vec<usize>],
    ) -> Result<Vec<&ConceptualObject>, ModelError> {
        let at = self.position(id.into().as_str())?;
        Ok(self
            .relationship(relationship)
            .map_or(&[][..], |(rel_at, _)| {
                Adjacency::list(lists(&self.adjacency[rel_at]), at)
            })
            .iter()
            .map(|&i| &self.objects[i])
            .collect())
    }

    /// Looks up an object by id.
    pub fn object(&self, id: &ObjectId) -> Option<&ConceptualObject> {
        self.object_by_str(id.as_str())
    }

    /// Looks up an object by raw id text.
    pub fn object_by_str(&self, id: &str) -> Option<&ConceptualObject> {
        self.by_id.get(id).map(|&i| &self.objects[i])
    }

    /// All objects of `class`, in creation order.
    pub fn objects_of_class<'a>(
        &'a self,
        class: &'a str,
    ) -> impl Iterator<Item = &'a ConceptualObject> + 'a {
        self.objects.iter().filter(move |o| o.class == class)
    }

    /// All objects.
    pub fn objects(&self) -> &[ConceptualObject] {
        &self.objects
    }

    /// Objects linked from `from` through `relationship`, in link order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownObject`] when `from` does not exist.
    pub fn related(
        &self,
        from: impl Into<ObjectId>,
        relationship: &str,
    ) -> Result<Vec<&ConceptualObject>, ModelError> {
        self.adjacent(from, relationship, |a| &a.targets)
    }

    /// Objects that link *to* `to` through `relationship` (reverse lookup),
    /// in link order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownObject`] when `to` does not exist.
    pub fn related_to(
        &self,
        to: impl Into<ObjectId>,
        relationship: &str,
    ) -> Result<Vec<&ConceptualObject>, ModelError> {
        self.adjacent(to, relationship, |a| &a.sources)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when no objects exist.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ConceptualSchema {
        ConceptualSchema::new()
            .class("Painter", &["name"])
            .class("Painting", &["title", "year"])
            .class("Movement", &["name"])
            .relationship("painted", "Painter", "Painting", Cardinality::Many)
            .relationship("belongs_to", "Painting", "Movement", Cardinality::One)
    }

    fn store() -> InstanceStore {
        let mut s = InstanceStore::new(schema());
        s.create("picasso", "Painter", &[("name", "Pablo Picasso")])
            .unwrap();
        s.create(
            "guitar",
            "Painting",
            &[("title", "Guitar"), ("year", "1913")],
        )
        .unwrap();
        s.create("guernica", "Painting", &[("title", "Guernica")])
            .unwrap();
        s.create("cubism", "Movement", &[("name", "Cubism")])
            .unwrap();
        s.link("painted", "picasso", "guitar").unwrap();
        s.link("painted", "picasso", "guernica").unwrap();
        s.link("belongs_to", "guitar", "cubism").unwrap();
        s
    }

    #[test]
    fn create_and_query() {
        let s = store();
        assert_eq!(s.len(), 4);
        let guitar = s.object_by_str("guitar").unwrap();
        assert_eq!(guitar.attribute("title"), Some("Guitar"));
        assert_eq!(guitar.class(), "Painting");
        assert_eq!(s.objects_of_class("Painting").count(), 2);
    }

    #[test]
    fn related_follows_links_in_order() {
        let s = store();
        let works = s.related("picasso", "painted").unwrap();
        assert_eq!(works.len(), 2);
        assert_eq!(works[0].id().as_str(), "guitar");
        assert_eq!(works[1].id().as_str(), "guernica");
    }

    #[test]
    fn reverse_lookup() {
        let s = store();
        let by = s.related_to("guitar", "painted").unwrap();
        assert_eq!(by.len(), 1);
        assert_eq!(by[0].id().as_str(), "picasso");
    }

    #[test]
    fn schema_violations_rejected() {
        let mut s = store();
        assert!(matches!(
            s.create("x", "Sculptor", &[]),
            Err(ModelError::UnknownClass(_))
        ));
        assert!(matches!(
            s.create("y", "Painting", &[("smell", "oil")]),
            Err(ModelError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            s.create("guitar", "Painting", &[]),
            Err(ModelError::DuplicateObject(_))
        ));
        assert!(matches!(
            s.link("sculpted", "picasso", "guitar"),
            Err(ModelError::UnknownRelationship(_))
        ));
        assert!(matches!(
            s.link("painted", "guitar", "guernica"),
            Err(ModelError::BadLink { .. })
        ));
    }

    #[test]
    fn one_cardinality_enforced() {
        let mut s = store();
        s.create("surrealism", "Movement", &[("name", "Surrealism")])
            .unwrap();
        // guitar already belongs to cubism.
        assert!(matches!(
            s.link("belongs_to", "guitar", "surrealism"),
            Err(ModelError::BadLink { .. })
        ));
    }

    #[test]
    fn unknown_object_in_queries() {
        let s = store();
        assert!(s.related("nobody", "painted").is_err());
        assert!(s.related_to("nothing", "painted").is_err());
    }
}
