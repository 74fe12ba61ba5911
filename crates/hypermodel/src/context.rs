//! Navigational contexts — OOHDM's contribution, and the paper's key
//! navigation concept.
//!
//! A **navigational context** is "a set of nodes, links, context classes and
//! other navigational contexts … organized in consistent sets that can be
//! traversed following a particular order" (paper §4). The museum example in
//! §2 is about exactly this: *Next* from the Guitar page means something
//! different inside the "paintings by Picasso" context than inside the
//! "Cubism paintings" context.
//!
//! A [`ContextFamily`] groups the contexts produced by one derivation rule
//! ("by painter" yields one context per painter).

use crate::access::{AccessGraph, AccessStructureKind, Member};
use crate::conceptual::InstanceStore;
use crate::error::ModelError;
use crate::navigational::{NavNode, NavigationalSchema};
use std::collections::HashMap;

/// One navigational context: an ordered member set plus its access structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NavigationalContext {
    /// Unique context name, e.g. `by-painter:picasso`.
    pub name: String,
    /// Display title, e.g. `Paintings by Pablo Picasso`.
    pub title: String,
    /// Ordered members.
    pub members: Vec<Member>,
    /// How the members are organized.
    pub access: AccessStructureKind,
}

impl NavigationalContext {
    /// Creates a context.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidContext`] for an empty name.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        members: Vec<Member>,
        access: AccessStructureKind,
    ) -> Result<Self, ModelError> {
        let name = name.into();
        if name.is_empty() {
            return Err(ModelError::InvalidContext("empty context name".into()));
        }
        Ok(NavigationalContext {
            name,
            title: title.into(),
            members,
            access,
        })
    }

    /// The derived access graph for this context.
    pub fn access_graph(&self) -> AccessGraph {
        AccessGraph::build(self.access, &self.members)
    }

    /// Whether `slug` is a member.
    pub fn contains(&self, slug: &str) -> bool {
        self.members.iter().any(|m| m.slug == slug)
    }

    /// 1-based position of `slug` among the members.
    pub fn position(&self, slug: &str) -> Option<usize> {
        self.members
            .iter()
            .position(|m| m.slug == slug)
            .map(|p| p + 1)
    }

    /// The member after `slug` *in this context's order* — the paper's
    /// context-dependent "Next".
    pub fn next_of(&self, slug: &str) -> Option<&Member> {
        let pos = self.members.iter().position(|m| m.slug == slug)?;
        self.members.get(pos + 1)
    }

    /// The member before `slug` in this context's order.
    pub fn prev_of(&self, slug: &str) -> Option<&Member> {
        let pos = self.members.iter().position(|m| m.slug == slug)?;
        pos.checked_sub(1).and_then(|p| self.members.get(p))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the context has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A family of contexts produced by one derivation rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextFamily {
    /// Family name, e.g. `by-painter`.
    pub name: String,
    /// The contexts, one per grouping object.
    pub contexts: Vec<NavigationalContext>,
}

impl ContextFamily {
    /// Derives one context per object of `group_class`: the members are the
    /// objects related through `relationship`, viewed as `member_node_class`
    /// nodes, in link order.
    ///
    /// This is the "paintings **by painter**" rule: `group_class = Painter`,
    /// `relationship = painted`, members are `PaintingNode`s.
    ///
    /// # Errors
    ///
    /// Propagates schema violations from node derivation and relationship
    /// lookup.
    #[allow(clippy::too_many_arguments)] // the derivation rule genuinely has seven knobs
    pub fn group_by(
        family_name: &str,
        store: &InstanceStore,
        nav: &NavigationalSchema,
        group_class: &str,
        group_title_attribute: &str,
        relationship: &str,
        member_node_class: &str,
        access: AccessStructureKind,
    ) -> Result<Self, ModelError> {
        if store.schema().relationship_def(relationship).is_none() {
            return Err(ModelError::UnknownRelationship(relationship.to_string()));
        }
        // Validate the member node class exists up front.
        let _ = nav
            .node_class_named(member_node_class)
            .ok_or_else(|| ModelError::UnknownClass(member_node_class.to_string()))?;
        let member_nodes = nav.derive_nodes(member_node_class, store)?;
        let by_slug: HashMap<&str, &NavNode> =
            member_nodes.iter().map(|n| (n.slug.as_str(), n)).collect();
        let mut contexts = Vec::new();
        for group in store.objects_of_class(group_class) {
            let related = store.related(group.id(), relationship)?;
            let members: Vec<Member> = related
                .iter()
                .filter_map(|obj| {
                    by_slug
                        .get(obj.id().as_str())
                        .map(|n| Member::new(n.slug.clone(), n.title.clone()))
                })
                .collect();
            let group_title = group
                .attribute(group_title_attribute)
                .unwrap_or(group.id().as_str());
            contexts.push(NavigationalContext::new(
                format!("{family_name}:{}", group.id()),
                group_title.to_string(),
                members,
                access,
            )?);
        }
        Ok(ContextFamily {
            name: family_name.to_string(),
            contexts,
        })
    }

    /// The context grouping object `group_slug` (e.g. `by-painter:picasso`).
    pub fn context_of(&self, group_slug: &str) -> Option<&NavigationalContext> {
        let want = format!("{}:{group_slug}", self.name);
        self.contexts.iter().find(|c| c.name == want)
    }

    /// All contexts containing member `slug`.
    pub fn contexts_containing(&self, slug: &str) -> Vec<&NavigationalContext> {
        self.contexts.iter().filter(|c| c.contains(slug)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conceptual::{Cardinality, ConceptualSchema};

    /// The paper's §2 museum: navigation by author vs by pictorial movement.
    fn museum() -> (InstanceStore, NavigationalSchema) {
        let schema = ConceptualSchema::new()
            .class("Painter", &["name"])
            .class("Movement", &["name"])
            .class("Painting", &["title", "year"])
            .relationship("painted", "Painter", "Painting", Cardinality::Many)
            .relationship("includes", "Movement", "Painting", Cardinality::Many);
        let mut s = InstanceStore::new(schema);
        s.create("picasso", "Painter", &[("name", "Pablo Picasso")])
            .unwrap();
        s.create("braque", "Painter", &[("name", "Georges Braque")])
            .unwrap();
        s.create("cubism", "Movement", &[("name", "Cubism")])
            .unwrap();
        s.create(
            "guitar",
            "Painting",
            &[("title", "Guitar"), ("year", "1913")],
        )
        .unwrap();
        s.create(
            "guernica",
            "Painting",
            &[("title", "Guernica"), ("year", "1937")],
        )
        .unwrap();
        s.create(
            "violin",
            "Painting",
            &[("title", "Violin and Candlestick"), ("year", "1910")],
        )
        .unwrap();
        s.link("painted", "picasso", "guitar").unwrap();
        s.link("painted", "picasso", "guernica").unwrap();
        s.link("painted", "braque", "violin").unwrap();
        // Cubism includes guitar and violin — but NOT guernica.
        s.link("includes", "cubism", "guitar").unwrap();
        s.link("includes", "cubism", "violin").unwrap();
        let nav = NavigationalSchema::new()
            .node_class("PaintingNode", "Painting", "title", &["title", "year"])
            .node_class("PainterNode", "Painter", "name", &["name"]);
        (s, nav)
    }

    #[test]
    fn group_by_painter() {
        let (store, nav) = museum();
        let fam = ContextFamily::group_by(
            "by-painter",
            &store,
            &nav,
            "Painter",
            "name",
            "painted",
            "PaintingNode",
            AccessStructureKind::IndexedGuidedTour,
        )
        .unwrap();
        assert_eq!(fam.contexts.len(), 2);
        let picasso = fam.context_of("picasso").unwrap();
        assert_eq!(picasso.len(), 2);
        assert_eq!(picasso.title, "Pablo Picasso");
        assert!(picasso.contains("guitar"));
        assert!(picasso.contains("guernica"));
    }

    #[test]
    fn the_papers_context_dependent_next() {
        // §2: reaching Guitar via the author gives Next = next painting by
        // the same author; reaching it via the movement gives Next = next
        // painting in that movement.
        let (store, nav) = museum();
        let by_painter = ContextFamily::group_by(
            "by-painter",
            &store,
            &nav,
            "Painter",
            "name",
            "painted",
            "PaintingNode",
            AccessStructureKind::IndexedGuidedTour,
        )
        .unwrap();
        let by_movement = ContextFamily::group_by(
            "by-movement",
            &store,
            &nav,
            "Movement",
            "name",
            "includes",
            "PaintingNode",
            AccessStructureKind::IndexedGuidedTour,
        )
        .unwrap();
        let via_author = by_painter.context_of("picasso").unwrap();
        let via_movement = by_movement.context_of("cubism").unwrap();
        // Same node, different Next.
        assert_eq!(via_author.next_of("guitar").unwrap().slug, "guernica");
        assert_eq!(via_movement.next_of("guitar").unwrap().slug, "violin");
    }

    #[test]
    fn contexts_containing_finds_all() {
        let (store, nav) = museum();
        let by_movement = ContextFamily::group_by(
            "by-movement",
            &store,
            &nav,
            "Movement",
            "name",
            "includes",
            "PaintingNode",
            AccessStructureKind::Index,
        )
        .unwrap();
        assert_eq!(by_movement.contexts_containing("guitar").len(), 1);
        assert_eq!(by_movement.contexts_containing("guernica").len(), 0);
    }

    #[test]
    fn position_and_prev() {
        let (store, nav) = museum();
        let fam = ContextFamily::group_by(
            "by-painter",
            &store,
            &nav,
            "Painter",
            "name",
            "painted",
            "PaintingNode",
            AccessStructureKind::GuidedTour,
        )
        .unwrap();
        let ctx = fam.context_of("picasso").unwrap();
        assert_eq!(ctx.position("guitar"), Some(1));
        assert_eq!(ctx.position("guernica"), Some(2));
        assert_eq!(ctx.prev_of("guernica").unwrap().slug, "guitar");
        assert!(ctx.prev_of("guitar").is_none());
    }

    #[test]
    fn unknown_relationship_rejected() {
        let (store, nav) = museum();
        assert!(matches!(
            ContextFamily::group_by(
                "x",
                &store,
                &nav,
                "Painter",
                "name",
                "sculpted",
                "PaintingNode",
                AccessStructureKind::Index,
            ),
            Err(ModelError::UnknownRelationship(_))
        ));
    }

    #[test]
    fn empty_context_name_rejected() {
        assert!(NavigationalContext::new("", "t", vec![], AccessStructureKind::Index).is_err());
    }

    #[test]
    fn access_graph_respects_context_order() {
        let (store, nav) = museum();
        let fam = ContextFamily::group_by(
            "by-painter",
            &store,
            &nav,
            "Painter",
            "name",
            "painted",
            "PaintingNode",
            AccessStructureKind::IndexedGuidedTour,
        )
        .unwrap();
        let g = fam.context_of("picasso").unwrap().access_graph();
        assert_eq!(g.next_of("guitar").unwrap().slug, "guernica");
    }
}
