//! Compiled pointcuts: candidate join-point sets from the document index.
//!
//! The naive weaver tests every rule against every element of the page — an
//! O(elements × rules) cross-product. Most pointcuts, however, name the
//! elements they can possibly match: `element("nav")` can only match nodes in
//! the index's `nav` tag bucket, `id("room-3")` at most one node, and a
//! `page("painter-*")` conjunct gates the whole rule to nothing on other
//! pages. [`CompiledPointcut`] extracts that structure once per pointcut into
//! a [`CandidatePlan`]; at weave time the plan resolves against the page's
//! [`DocumentIndex`] into a candidate set, and only those candidates are
//! tested.
//!
//! Correctness does not rest on the plan being exact: the plan only has to be
//! a **superset** of the true matches, because every candidate is re-verified
//! with [`Pointcut::matches`] before any advice applies. Pointcut forms the
//! index cannot narrow (`class(…)`, `attr(…)` existence, negations) simply
//! plan to [`CandidatePlan::All`] and degrade to the naive scan for that rule
//! alone. The equivalence law — compiled weaving is byte-identical to naive
//! weaving, with an identical event log — is enforced by a proptest suite.

use crate::aspect::Aspect;
use crate::error::WeaveError;
use crate::joinpoint::JoinPoint;
use crate::pointcut::{glob_match, Pointcut};
use crate::weaver::{precedence_order, ApplyBook, WeaveEvent, WeaveReport};
use navsep_xml::{Document, DocumentIndex, NodeId};

/// How a pointcut's possible matches can be enumerated from the index.
///
/// Every variant denotes a *superset* of the elements the source pointcut can
/// match on any page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidatePlan {
    /// No narrowing: every element is a candidate.
    All,
    /// Elements with this local name (tag bucket).
    Tag(String),
    /// Elements whose plain `id` attribute equals the value (id bucket).
    IdAttr(String),
    /// Elements whose `name` attribute equals the value (name bucket).
    NameAttr(String),
    /// The page's root element only.
    Root,
    /// Page-path gate: all elements when the glob matches the page being
    /// woven, no elements otherwise.
    PageGate(String),
    /// Conjunction: candidates in both operand sets.
    Intersect(Box<CandidatePlan>, Box<CandidatePlan>),
    /// Disjunction: candidates in either operand set.
    Union(Box<CandidatePlan>, Box<CandidatePlan>),
}

/// A resolved candidate set for one (pointcut, page, document) triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Candidates {
    /// Every element of the page is a candidate (no narrowing applied).
    All,
    /// Exactly these elements, in document order.
    Set(Vec<NodeId>),
}

impl Candidates {
    /// Number of candidates, given the page's element count for [`All`].
    ///
    /// [`All`]: Candidates::All
    pub fn len(&self, element_count: usize) -> usize {
        match self {
            Candidates::All => element_count,
            Candidates::Set(v) => v.len(),
        }
    }

    /// Whether the set is empty (for [`All`](Candidates::All), whether the
    /// page has no elements).
    pub fn is_empty(&self, element_count: usize) -> bool {
        self.len(element_count) == 0
    }
}

impl CandidatePlan {
    /// Builds the narrowing plan for a pointcut.
    fn plan(pointcut: &Pointcut) -> CandidatePlan {
        match pointcut {
            Pointcut::Element(name) => CandidatePlan::Tag(name.clone()),
            // `id("v")` and `attr("id", "v")` both test the plain `id`
            // attribute — exactly the index's id bucket.
            Pointcut::Id(v) => CandidatePlan::IdAttr(v.clone()),
            Pointcut::AttrEquals(name, v) if name == "id" => CandidatePlan::IdAttr(v.clone()),
            Pointcut::AttrEquals(name, v) if name == "name" => CandidatePlan::NameAttr(v.clone()),
            Pointcut::Page(glob) => CandidatePlan::PageGate(glob.clone()),
            Pointcut::Root => CandidatePlan::Root,
            Pointcut::And(a, b) => match (Self::plan(a), Self::plan(b)) {
                // All is the identity of intersection.
                (CandidatePlan::All, p) | (p, CandidatePlan::All) => p,
                (pa, pb) => CandidatePlan::Intersect(Box::new(pa), Box::new(pb)),
            },
            Pointcut::Or(a, b) => match (Self::plan(a), Self::plan(b)) {
                // All absorbs union.
                (CandidatePlan::All, _) | (_, CandidatePlan::All) => CandidatePlan::All,
                (pa, pb) => CandidatePlan::Union(Box::new(pa), Box::new(pb)),
            },
            // Negations and the remaining predicates are not bucketed; their
            // candidates are every element.
            Pointcut::Not(_)
            | Pointcut::AttrExists(_)
            | Pointcut::AttrEquals(_, _)
            | Pointcut::HasClass(_)
            | Pointcut::Always => CandidatePlan::All,
        }
    }

    /// Resolves the plan against a page's index into a concrete set.
    fn resolve(&self, doc: &Document, index: &DocumentIndex, page: &str) -> Candidates {
        match self {
            CandidatePlan::All => Candidates::All,
            CandidatePlan::Tag(name) => Candidates::Set(index.elements_named(name).to_vec()),
            CandidatePlan::IdAttr(v) => Candidates::Set(index.elements_with_id(v).to_vec()),
            CandidatePlan::NameAttr(v) => {
                Candidates::Set(index.elements_with_name_attr(v).to_vec())
            }
            CandidatePlan::Root => Candidates::Set(doc.root_element().into_iter().collect()),
            CandidatePlan::PageGate(glob) => {
                if glob_match(glob, page) {
                    Candidates::All
                } else {
                    Candidates::Set(Vec::new())
                }
            }
            CandidatePlan::Intersect(a, b) => {
                let (ca, cb) = (a.resolve(doc, index, page), b.resolve(doc, index, page));
                match (ca, cb) {
                    (Candidates::All, c) | (c, Candidates::All) => c,
                    (Candidates::Set(x), Candidates::Set(y)) => {
                        Candidates::Set(merge_intersect(&x, &y, index))
                    }
                }
            }
            CandidatePlan::Union(a, b) => {
                let (ca, cb) = (a.resolve(doc, index, page), b.resolve(doc, index, page));
                match (ca, cb) {
                    (Candidates::All, _) | (_, Candidates::All) => Candidates::All,
                    (Candidates::Set(x), Candidates::Set(y)) => {
                        Candidates::Set(merge_union(&x, &y, index))
                    }
                }
            }
        }
    }
}

/// Sorted-merge intersection of two document-ordered candidate vectors.
fn merge_intersect(x: &[NodeId], y: &[NodeId], index: &DocumentIndex) -> Vec<NodeId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        let (oi, oj) = (index.order_of(x[i]), index.order_of(y[j]));
        match oi.cmp(&oj) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Sorted-merge union of two document-ordered candidate vectors.
fn merge_union(x: &[NodeId], y: &[NodeId], index: &DocumentIndex) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(x.len() + y.len());
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        let (oi, oj) = (index.order_of(x[i]), index.order_of(y[j]));
        match oi.cmp(&oj) {
            std::cmp::Ordering::Less => {
                out.push(x[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(y[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(x[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&x[i..]);
    out.extend_from_slice(&y[j..]);
    out
}

/// A pointcut analyzed into a candidate plan, reusable across pages.
///
/// # Examples
///
/// ```
/// use navsep_aspect::{CompiledPointcut, Pointcut};
/// use navsep_xml::Document;
///
/// let pc = Pointcut::parse(r#"element("painting") && attr("id", "guitar")"#)?;
/// let compiled = CompiledPointcut::compile(pc);
/// assert!(compiled.uses_index());
///
/// let doc = Document::parse(
///     r#"<museum><painting id="guitar"/><painting id="girl"/></museum>"#,
/// )?;
/// // One candidate instead of three elements scanned.
/// let n = compiled.candidate_count(&doc, "any.html");
/// assert_eq!(n, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledPointcut {
    source: Pointcut,
    plan: CandidatePlan,
}

impl CompiledPointcut {
    /// Analyzes a pointcut into its candidate plan.
    pub fn compile(pointcut: Pointcut) -> Self {
        let plan = CandidatePlan::plan(&pointcut);
        CompiledPointcut {
            source: pointcut,
            plan,
        }
    }

    /// The original pointcut.
    pub fn source(&self) -> &Pointcut {
        &self.source
    }

    /// The candidate plan.
    pub fn plan(&self) -> &CandidatePlan {
        &self.plan
    }

    /// Whether compilation found any index-backed narrowing (`false` means
    /// this rule scans every element, exactly like the naive weaver).
    pub fn uses_index(&self) -> bool {
        self.plan != CandidatePlan::All
    }

    /// Resolves the candidate set for one page document.
    ///
    /// The result is a superset of the join points [`Pointcut::matches`]
    /// accepts; callers must still re-verify each candidate.
    pub fn candidates(&self, doc: &Document, page: &str) -> Candidates {
        self.plan.resolve(doc, doc.index(), page)
    }

    /// Number of candidates this pointcut yields on a page.
    pub fn candidate_count(&self, doc: &Document, page: &str) -> usize {
        self.candidates(doc, page).len(doc.index().element_count())
    }

    /// Whether the pointcut selects `jp` (delegates to the source pointcut).
    pub fn matches(&self, jp: &JoinPoint<'_>) -> bool {
        self.source.matches(jp)
    }
}

/// A weaver whose rule pointcuts are pre-compiled into candidate plans.
///
/// Produced by [`Weaver::compile`](crate::Weaver::compile); reusable across
/// any number of pages and threads. Weaving a page touches
/// O(candidates + output) nodes per rule instead of O(elements) — on a large
/// page with id- or tag-narrowed rules that is the difference between a full
/// DOM scan per rule and a handful of bucket lookups.
#[derive(Debug, Clone)]
pub struct CompiledWeaver {
    aspects: Vec<Aspect>,
    /// Application order: precedence, then registration order.
    order: Vec<usize>,
    /// Per aspect (registration order), per rule: the compiled pointcut.
    plans: Vec<Vec<CompiledPointcut>>,
}

impl CompiledWeaver {
    /// Compiles every rule pointcut of every aspect.
    pub fn compile(aspects: Vec<Aspect>) -> Self {
        let order = precedence_order(&aspects);
        let plans = aspects
            .iter()
            .map(|a| {
                a.rules()
                    .iter()
                    .map(|r| CompiledPointcut::compile(r.pointcut.clone()))
                    .collect()
            })
            .collect();
        CompiledWeaver {
            aspects,
            order,
            plans,
        }
    }

    /// The aspects, in registration order.
    pub fn aspects(&self) -> &[Aspect] {
        &self.aspects
    }

    /// Compiled pointcuts for the aspect at `index`, in rule order.
    pub fn rule_plans(&self, index: usize) -> &[CompiledPointcut] {
        &self.plans[index]
    }

    /// How many rules (across all aspects) gained index-backed narrowing.
    pub fn narrowed_rules(&self) -> usize {
        self.plans
            .iter()
            .flatten()
            .filter(|p| p.uses_index())
            .count()
    }

    /// Weaves one page: per rule, only the candidate join points are tested.
    ///
    /// Byte-identical to [`Weaver::weave_page_naive`] with an identical
    /// [`WeaveReport`] — candidates are supersets resolved in document order
    /// and every candidate is re-verified, so the sequence of advice
    /// applications cannot differ.
    ///
    /// [`Weaver::weave_page_naive`]: crate::Weaver::weave_page_naive
    ///
    /// # Errors
    ///
    /// Same as [`Weaver::weave_page`](crate::Weaver::weave_page).
    pub fn weave_page(
        &self,
        page: &str,
        doc: &Document,
    ) -> Result<(Document, WeaveReport), WeaveError> {
        if doc.root_element().is_none() {
            return Err(WeaveError::EmptyPage(page.to_string()));
        }
        let index = doc.index();
        // The clone shares NodeIds with the input: matching happens on the
        // input, mutation on the clone — aspects never see each other. The
        // headroom keeps the first woven-in node from reallocating the whole
        // arena copy.
        let mut out = doc.cloned_with_headroom(crate::weaver::weave_headroom(doc));
        let mut report = WeaveReport {
            page: page.to_string(),
            join_points: index.element_count(),
            ..WeaveReport::default()
        };
        let mut book = ApplyBook::default();

        for &ai in &self.order {
            let aspect = &self.aspects[ai];
            for (ri, rule) in aspect.rules().iter().enumerate() {
                let compiled = &self.plans[ai][ri];
                let candidates = compiled.candidates(doc, page);
                let nodes: &[NodeId] = match &candidates {
                    Candidates::All => index.elements(),
                    Candidates::Set(v) => v,
                };
                for &element in nodes {
                    let jp = JoinPoint { page, doc, element };
                    if !compiled.matches(&jp) {
                        continue;
                    }
                    let realized = rule.advice.content.realize(&jp);
                    crate::weaver::apply_advice(
                        &self.aspects,
                        &mut out,
                        &jp,
                        rule.advice.position,
                        realized,
                        ai,
                        &mut book,
                        page,
                    )?;
                    report.events.push(WeaveEvent {
                        aspect: aspect.name().to_string(),
                        rule_index: ri,
                        position: rule.advice.position,
                        element_path: jp.element_path(),
                    });
                }
            }
        }
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advice::AdvicePosition;
    use crate::joinpoint::join_points;
    use crate::weaver::Weaver;
    use navsep_xml::ElementBuilder;

    fn museum() -> Document {
        Document::parse(
            r#"<museum>
                 <room id="r1" name="cubism">
                   <painting id="guitar" class="star"><title>Guitar</title></painting>
                   <painting id="girl"><title>Girl</title></painting>
                 </room>
                 <room id="r2">
                   <sculpture name="cubism"/>
                   <painting id="bull" class="star"/>
                 </room>
               </museum>"#,
        )
        .unwrap()
    }

    /// Brute-force reference: elements the pointcut actually matches.
    fn true_matches(pc: &Pointcut, doc: &Document, page: &str) -> Vec<NodeId> {
        join_points(page, doc)
            .iter()
            .filter(|jp| pc.matches(jp))
            .map(|jp| jp.element)
            .collect()
    }

    fn as_set(c: Candidates, doc: &Document) -> Vec<NodeId> {
        match c {
            Candidates::All => doc.index().elements().to_vec(),
            Candidates::Set(v) => v,
        }
    }

    #[test]
    fn plans_classify_narrowing() {
        let narrowed = [
            r#"element("painting")"#,
            r#"id("guitar")"#,
            r#"attr("id", "guitar")"#,
            r#"attr("name", "cubism")"#,
            r#"page("painting-*")"#,
            "root()",
            r#"element("painting") && class("star")"#,
            r#"id("a") || id("b")"#,
        ];
        for src in narrowed {
            let pc = Pointcut::parse(src).unwrap();
            assert!(
                CompiledPointcut::compile(pc).uses_index(),
                "{src} should narrow"
            );
        }
        let unnarrowed = [
            "true",
            r#"class("star")"#,
            r#"attr("id")"#,
            r#"attr("role", "nav")"#,
            r#"!element("painting")"#,
            r#"element("a") || class("star")"#,
        ];
        for src in unnarrowed {
            let pc = Pointcut::parse(src).unwrap();
            assert!(
                !CompiledPointcut::compile(pc).uses_index(),
                "{src} should not narrow"
            );
        }
    }

    #[test]
    fn candidates_are_supersets_in_document_order() {
        let doc = museum();
        let page = "painting-guitar.html";
        for src in [
            r#"element("painting")"#,
            r#"id("guitar")"#,
            r#"attr("name", "cubism")"#,
            "root()",
            r#"element("painting") && class("star")"#,
            r#"id("guitar") || attr("name", "cubism")"#,
            r#"element("room") && id("r2")"#,
            r#"page("painting-*") && element("painting")"#,
            r#"page("painter-*") && element("painting")"#,
            r#"element("painting") && element("room")"#,
            "true",
        ] {
            let pc = Pointcut::parse(src).unwrap();
            let compiled = CompiledPointcut::compile(pc.clone());
            let cands = as_set(compiled.candidates(&doc, page), &doc);
            // Document order.
            let orders: Vec<u32> = cands.iter().map(|&n| doc.index().order_of(n)).collect();
            let mut sorted = orders.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(orders, sorted, "{src}: candidates not in document order");
            // Superset of the true matches.
            for m in true_matches(&pc, &doc, page) {
                assert!(cands.contains(&m), "{src}: dropped true match");
            }
        }
    }

    #[test]
    fn intersection_narrows_to_the_smaller_bucket() {
        let doc = museum();
        let pc = Pointcut::parse(r#"element("painting") && class("star")"#).unwrap();
        let compiled = CompiledPointcut::compile(pc);
        // class(…) cannot narrow, but the tag bucket still applies: three
        // painting candidates, not every element.
        assert_eq!(compiled.candidate_count(&doc, "x"), 3);
    }

    #[test]
    fn page_gate_empties_other_pages() {
        let doc = museum();
        let pc = Pointcut::parse(r#"page("painter-*") && element("painting")"#).unwrap();
        let compiled = CompiledPointcut::compile(pc);
        assert_eq!(compiled.candidate_count(&doc, "painting-guitar.html"), 0);
        assert_eq!(compiled.candidate_count(&doc, "painter-picasso.html"), 3);
    }

    fn mixed_weaver() -> Weaver {
        Weaver::new()
            .aspect(Aspect::new("nav").with_precedence(1).rule(
                Pointcut::parse(r#"id("guitar")"#).unwrap(),
                AdvicePosition::After,
                vec![ElementBuilder::new("a").attr("href", "girl.html")],
            ))
            .aspect(Aspect::new("badges").rule(
                Pointcut::parse(r#"element("painting") && class("star")"#).unwrap(),
                AdvicePosition::Prepend,
                vec![ElementBuilder::new("badge")],
            ))
            .aspect(Aspect::new("audit").text_rule(
                Pointcut::parse(r#"attr("name", "cubism")"#).unwrap(),
                AdvicePosition::Append,
                "seen",
            ))
            .aspect(Aspect::new("gated").rule(
                Pointcut::parse(r#"page("painter-*") && element("room")"#).unwrap(),
                AdvicePosition::Before,
                vec![ElementBuilder::new("hr")],
            ))
    }

    #[test]
    fn compiled_weave_equals_naive() {
        let doc = museum();
        let w = mixed_weaver();
        for page in ["painting-guitar.html", "painter-picasso.html"] {
            let (naive_doc, naive_rep) = w.weave_page_naive(page, &doc).unwrap();
            let (fast_doc, fast_rep) = w.compile().weave_page(page, &doc).unwrap();
            assert_eq!(naive_doc.to_xml_string(), fast_doc.to_xml_string());
            assert_eq!(naive_rep.events, fast_rep.events);
            assert_eq!(naive_rep.join_points, fast_rep.join_points);
        }
    }

    #[test]
    fn replace_conflicts_surface_identically() {
        let doc = museum();
        let mk = |name: &str| {
            Aspect::new(name).text_rule(
                Pointcut::parse(r#"id("guitar")"#).unwrap(),
                AdvicePosition::ReplaceContent,
                name.to_string(),
            )
        };
        let w = Weaver::new().aspect(mk("one")).aspect(mk("two"));
        let naive = w.weave_page_naive("x", &doc).unwrap_err();
        let fast = w.compile().weave_page("x", &doc).unwrap_err();
        assert_eq!(naive.to_string(), fast.to_string());
    }

    #[test]
    fn empty_page_error_matches() {
        // A rootless document cannot be parsed, so build one by detaching.
        let mut empty = Document::parse("<a/>").unwrap();
        let root = empty.root_element().unwrap();
        empty.detach(root);
        let w = mixed_weaver();
        let naive = w.weave_page_naive("p", &empty).unwrap_err();
        let fast = w.compile().weave_page("p", &empty).unwrap_err();
        assert_eq!(naive.to_string(), fast.to_string());
    }

    #[test]
    fn narrowed_rule_count() {
        let w = mixed_weaver();
        let compiled = w.compile();
        assert_eq!(compiled.narrowed_rules(), 4);
        assert_eq!(compiled.aspects().len(), 4);
        assert_eq!(compiled.rule_plans(0).len(), 1);
    }

    #[test]
    fn compiled_weaver_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledWeaver>();
        assert_send_sync::<CompiledPointcut>();
        assert_send_sync::<Candidates>();
    }
}
