//! Property-based tests for the conceptual instance store, among them
//! the oracle law: the indexed [`InstanceStore`] answers every call as the
//! linear-scan store it replaced ([`NaiveStore`]) does.

use navsep_hypermodel::{
    Cardinality, ConceptualObject, ConceptualSchema, InstanceStore, ModelError, ObjectId,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeMap;

/// The instance store as it was before it kept indexes: objects and links
/// in flat vectors, every lookup a linear scan. Kept as the test oracle of
/// the indexed store.
struct NaiveStore {
    schema: ConceptualSchema,
    objects: Vec<NaiveObject>,
    links: Vec<(String, ObjectId, ObjectId)>,
}

/// `(id, class, attributes)`, comparable with a [`ConceptualObject`]
/// through [`view`].
type NaiveObject = (ObjectId, String, BTreeMap<String, String>);

/// What a test compares of an object: id, class and sorted attributes.
type View = (String, String, Vec<(String, String)>);

fn view(o: &ConceptualObject) -> View {
    (
        o.id().to_string(),
        o.class().to_string(),
        o.attributes()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

fn naive_view(o: &NaiveObject) -> View {
    (
        o.0.to_string(),
        o.1.clone(),
        o.2.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
    )
}

impl NaiveStore {
    fn new(schema: ConceptualSchema) -> Self {
        NaiveStore {
            schema,
            objects: Vec::new(),
            links: Vec::new(),
        }
    }

    fn create(
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
        if self.objects.iter().any(|o| o.0 == id) {
            return Err(ModelError::DuplicateObject(id.to_string()));
        }
        self.objects.push((
            id.clone(),
            class.to_string(),
            attributes
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        ));
        Ok(id)
    }

    fn link(
        &mut self,
        relationship: &str,
        from: impl Into<ObjectId>,
        to: impl Into<ObjectId>,
    ) -> Result<(), ModelError> {
        let from = from.into();
        let to = to.into();
        let rel = self
            .schema
            .relationship_def(relationship)
            .ok_or_else(|| ModelError::UnknownRelationship(relationship.to_string()))?
            .clone();
        let from_obj = self
            .object(&from)
            .ok_or_else(|| ModelError::UnknownObject(from.to_string()))?;
        let to_obj = self
            .object(&to)
            .ok_or_else(|| ModelError::UnknownObject(to.to_string()))?;
        if from_obj.1 != rel.source {
            return Err(ModelError::BadLink {
                relationship: rel.name.clone(),
                reason: format!("source must be {}, got {}", rel.source, from_obj.1),
            });
        }
        if to_obj.1 != rel.target {
            return Err(ModelError::BadLink {
                relationship: rel.name.clone(),
                reason: format!("target must be {}, got {}", rel.target, to_obj.1),
            });
        }
        if rel.target_cardinality == Cardinality::One
            && self
                .links
                .iter()
                .any(|(r, f, _)| *r == rel.name && *f == from)
        {
            return Err(ModelError::BadLink {
                relationship: rel.name.clone(),
                reason: "target cardinality 1 exceeded".into(),
            });
        }
        self.links.push((rel.name.clone(), from, to));
        Ok(())
    }

    fn object(&self, id: &ObjectId) -> Option<&NaiveObject> {
        self.objects.iter().find(|o| &o.0 == id)
    }

    fn object_by_str(&self, id: &str) -> Option<&NaiveObject> {
        self.objects.iter().find(|o| o.0.as_str() == id)
    }

    fn objects_of_class<'a>(&'a self, class: &'a str) -> impl Iterator<Item = &'a NaiveObject> {
        self.objects.iter().filter(move |o| o.1 == class)
    }

    fn related(&self, from: &str, relationship: &str) -> Result<Vec<&NaiveObject>, ModelError> {
        let from = ObjectId::from(from);
        if self.object(&from).is_none() {
            return Err(ModelError::UnknownObject(from.to_string()));
        }
        Ok(self
            .links
            .iter()
            .filter(|(r, f, _)| r == relationship && *f == from)
            .filter_map(|(_, _, t)| self.object(t))
            .collect())
    }

    fn related_to(&self, to: &str, relationship: &str) -> Result<Vec<&NaiveObject>, ModelError> {
        let to = ObjectId::from(to);
        if self.object(&to).is_none() {
            return Err(ModelError::UnknownObject(to.to_string()));
        }
        Ok(self
            .links
            .iter()
            .filter(|(r, _, t)| r == relationship && *t == to)
            .filter_map(|(_, f, _)| self.object(f))
            .collect())
    }
}

/// The oracle law's schema: a `Many` relationship, a `One` end, a
/// relationship from a class to itself.
fn oracle_schema() -> ConceptualSchema {
    ConceptualSchema::new()
        .class("Group", &["name"])
        .class("Item", &["title", "year"])
        .class("Tag", &["label"])
        .relationship("holds", "Group", "Item", Cardinality::Many)
        .relationship("tagged", "Item", "Tag", Cardinality::One)
        .relationship("follows", "Group", "Group", Cardinality::Many)
}

/// Drawn from by the generated calls: an undeclared class, attribute and
/// relationship each, and ids from a pool small enough to repeat.
const CLASSES: [&str; 4] = ["Group", "Item", "Tag", "Ghost"];
const ATTRIBUTES: [&str; 5] = ["name", "title", "year", "label", "smell"];
const RELATIONSHIPS: [&str; 4] = ["holds", "tagged", "follows", "ghost"];
/// Ids `o0` … `o8`; `o{i}`'s natural class is `CLASSES[i % 3]`.
const IDS: usize = 9;
/// `(source, target)` natural-class indexes of each declared relationship.
const ENDS: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 0)];

/// Every query both stores answer, over every pooled id (and one never
/// created), every class and every relationship name.
fn assert_same_answers(indexed: &InstanceStore, naive: &NaiveStore) -> Result<(), TestCaseError> {
    prop_assert_eq!(indexed.len(), naive.objects.len());
    for id in (0..=IDS).map(|i| format!("o{i}")) {
        let by_id = indexed.object(&ObjectId::from(id.as_str())).map(view);
        prop_assert_eq!(
            &by_id,
            &naive.object(&ObjectId::from(id.as_str())).map(naive_view)
        );
        prop_assert_eq!(&by_id, &indexed.object_by_str(&id).map(view));
        prop_assert_eq!(&by_id, &naive.object_by_str(&id).map(naive_view));
        for rel in RELATIONSHIPS {
            let ids = |r: Result<Vec<&ConceptualObject>, ModelError>| {
                r.map(|os| os.into_iter().map(view).collect::<Vec<_>>())
            };
            let naive_ids = |r: Result<Vec<&NaiveObject>, ModelError>| {
                r.map(|os| os.into_iter().map(naive_view).collect::<Vec<_>>())
            };
            prop_assert_eq!(
                ids(indexed.related(id.as_str(), rel)),
                naive_ids(naive.related(&id, rel)),
                "related({}, {})",
                id,
                rel
            );
            prop_assert_eq!(
                ids(indexed.related_to(id.as_str(), rel)),
                naive_ids(naive.related_to(&id, rel)),
                "related_to({}, {})",
                id,
                rel
            );
        }
    }
    for class in CLASSES {
        let a: Vec<View> = indexed.objects_of_class(class).map(view).collect();
        let b: Vec<View> = naive.objects_of_class(class).map(naive_view).collect();
        prop_assert_eq!(a, b, "objects_of_class({})", class);
    }
    Ok(())
}

fn schema() -> ConceptualSchema {
    ConceptualSchema::new()
        .class("Group", &["name"])
        .class("Item", &["title"])
        .relationship("holds", "Group", "Item", Cardinality::Many)
}

proptest! {
    /// `related` and `related_to` are dual: x ∈ related(g) ⟺ g ∈ related_to(x).
    #[test]
    fn related_and_related_to_are_dual(
        groups in 1usize..4,
        items in 1usize..6,
        links in proptest::collection::vec((0usize..4, 0usize..6), 0..12),
    ) {
        let mut store = InstanceStore::new(schema());
        for g in 0..groups {
            store.create(format!("g{g}"), "Group", &[("name", "G")]).unwrap();
        }
        for i in 0..items {
            store.create(format!("i{i}"), "Item", &[("title", "T")]).unwrap();
        }
        for (g, i) in links {
            let g = g % groups;
            let i = i % items;
            store.link("holds", format!("g{g}"), format!("i{i}")).unwrap();
        }
        for g in 0..groups {
            let forward = store.related(format!("g{g}"), "holds").unwrap();
            for item in &forward {
                let reverse = store.related_to(item.id().clone(), "holds").unwrap();
                let group_id = format!("g{g}");
                let item_id = item.id().to_string();
                prop_assert!(
                    reverse.iter().any(|o| o.id().as_str() == group_id),
                    "duality violated for {} -> {}",
                    group_id,
                    item_id
                );
            }
        }
        for i in 0..items {
            let item_id = format!("i{i}");
            let reverse = store.related_to(item_id.as_str(), "holds").unwrap();
            for group in &reverse {
                let forward = store.related(group.id().clone(), "holds").unwrap();
                prop_assert!(forward.iter().any(|o| o.id().as_str() == item_id));
            }
        }
    }

    /// Link order is preserved: related() returns targets in insertion order.
    #[test]
    fn link_order_preserved(n in 1usize..8) {
        let mut store = InstanceStore::new(schema());
        store.create("g", "Group", &[]).unwrap();
        for i in 0..n {
            store.create(format!("i{i}"), "Item", &[]).unwrap();
        }
        // Link in reverse order; related() must reflect exactly that.
        for i in (0..n).rev() {
            store.link("holds", "g", format!("i{i}")).unwrap();
        }
        let related = store.related("g", "holds").unwrap();
        let ids: Vec<String> = related.iter().map(|o| o.id().to_string()).collect();
        let expected: Vec<String> = (0..n).rev().map(|i| format!("i{i}")).collect();
        prop_assert_eq!(ids, expected);
    }

    /// Object count equals creations; duplicate ids always rejected.
    #[test]
    fn creation_count_and_duplicates(ids in proptest::collection::vec("[a-d]{1,2}", 1..12)) {
        let mut store = InstanceStore::new(schema());
        let mut unique = std::collections::BTreeSet::new();
        for id in &ids {
            let fresh = unique.insert(id.clone());
            let result = store.create(id.as_str(), "Item", &[]);
            prop_assert_eq!(result.is_ok(), fresh);
        }
        prop_assert_eq!(store.len(), unique.len());
    }

    /// The indexed store is the linear-scan store: over random `create`
    /// and `link` calls (duplicate ids, unknown ids, classes, attributes
    /// and relationships, class mismatches, a `One` end linked twice),
    /// both return the same `Ok`/`Err` for every call and the same answer
    /// to every query after it, `related`/`related_to` in link order.
    #[test]
    fn indexed_store_matches_the_linear_scan_oracle(
        calls in proptest::collection::vec((0usize..3, 0usize..IDS, 0usize..IDS, 0usize..4, 0usize..8), 0..48),
    ) {
        let mut indexed = InstanceStore::new(oracle_schema());
        let mut naive = NaiveStore::new(oracle_schema());
        for (kind, a, b, c, d) in calls {
            if kind == 0 {
                // Mostly the id's natural class, so that typed links
                // find their endpoints; else another class (a mismatch
                // for later links) or an undeclared one. `d` past the
                // attribute list creates without attributes.
                let class = match c {
                    0 | 1 => CLASSES[a % 3],
                    2 => CLASSES[(a + 1) % 3],
                    _ => CLASSES[3],
                };
                let id = format!("o{a}");
                let value = format!("v{b}");
                let attributes: Vec<(&str, &str)> = ATTRIBUTES
                    .get(d)
                    .map(|name| (*name, value.as_str()))
                    .into_iter()
                    .collect();
                prop_assert_eq!(
                    indexed.create(id.as_str(), class, &attributes),
                    naive.create(id.as_str(), class, &attributes),
                    "create({}, {}, {:?})",
                    id,
                    class,
                    attributes
                );
            } else {
                // Kind 1 links ids whose natural classes fit the
                // relationship (three sources per class, so a `One` end
                // is often linked twice); kind 2 links any two ids.
                let (from, to) = match ENDS.get(c) {
                    Some(&(source, target)) if kind == 1 => {
                        (a / 3 * 3 + source, b / 3 * 3 + target)
                    }
                    _ => (a, b),
                };
                let (from, to) = (format!("o{from}"), format!("o{to}"));
                prop_assert_eq!(
                    indexed.link(RELATIONSHIPS[c], from.as_str(), to.as_str()),
                    naive.link(RELATIONSHIPS[c], from.as_str(), to.as_str()),
                    "link({}, {}, {})",
                    RELATIONSHIPS[c],
                    from,
                    to
                );
            }
            assert_same_answers(&indexed, &naive)?;
        }
    }
}
