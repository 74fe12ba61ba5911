//! Aspects: named bundles of (pointcut → advice) rules with precedence.

use crate::advice::{Advice, AdviceContent, AdvicePosition};
use crate::joinpoint::JoinPoint;
use crate::pointcut::Pointcut;
use navsep_xml::ElementBuilder;

/// One rule: when the pointcut matches a join point, apply the advice.
#[derive(Debug, Clone)]
pub struct AdviceRule {
    /// The predicate.
    pub pointcut: Pointcut,
    /// The action.
    pub advice: Advice,
}

/// An aspect: a named concern woven into pages.
///
/// Higher `precedence` weaves later, so its output lands *after* (and, for
/// `ReplaceContent`, on top of) lower-precedence aspects. Ties are broken by
/// declaration order in the weaver, making weaving fully deterministic.
///
/// # Examples
///
/// ```
/// use navsep_aspect::{Aspect, AdvicePosition, Pointcut};
/// use navsep_xml::ElementBuilder;
///
/// let nav = Aspect::new("navigation")
///     .with_precedence(10)
///     .rule(
///         Pointcut::parse(r#"element("body")"#)?,
///         AdvicePosition::Append,
///         vec![ElementBuilder::new("nav").text("Next")],
///     );
/// assert_eq!(nav.rules().len(), 1);
/// # Ok::<(), navsep_aspect::ParsePointcutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Aspect {
    name: String,
    precedence: i32,
    rules: Vec<AdviceRule>,
}

impl Aspect {
    /// Creates an empty aspect with precedence 0.
    pub fn new(name: impl Into<String>) -> Self {
        Aspect {
            name: name.into(),
            precedence: 0,
            rules: Vec::new(),
        }
    }

    /// Sets the precedence (higher weaves later).
    pub fn with_precedence(mut self, precedence: i32) -> Self {
        self.precedence = precedence;
        self
    }

    /// Adds a rule inserting fixed elements.
    pub fn rule(
        mut self,
        pointcut: Pointcut,
        position: AdvicePosition,
        elements: Vec<ElementBuilder>,
    ) -> Self {
        self.rules.push(AdviceRule {
            pointcut,
            advice: Advice::insert(position, elements),
        });
        self
    }

    /// Adds a rule inserting text.
    pub fn text_rule(
        mut self,
        pointcut: Pointcut,
        position: AdvicePosition,
        text: impl Into<String>,
    ) -> Self {
        self.rules.push(AdviceRule {
            pointcut,
            advice: Advice::text(position, text),
        });
        self
    }

    /// Adds a rule whose content is computed per join point.
    pub fn generated_rule(
        mut self,
        pointcut: Pointcut,
        position: AdvicePosition,
        f: impl Fn(&JoinPoint<'_>) -> Vec<ElementBuilder> + Send + Sync + 'static,
    ) -> Self {
        self.rules.push(AdviceRule {
            pointcut,
            advice: Advice::generated(position, f),
        });
        self
    }

    /// Adds a rule whose content is computed from the page path alone
    /// (it never reads the page, unlike `generated_rule`).
    pub fn page_generated_rule(
        mut self,
        pointcut: Pointcut,
        position: AdvicePosition,
        f: impl Fn(&str) -> Vec<ElementBuilder> + Send + Sync + 'static,
    ) -> Self {
        self.rules.push(AdviceRule {
            pointcut,
            advice: Advice::page_generated(position, f),
        });
        self
    }

    /// Adds a pre-built rule.
    pub fn push_rule(mut self, rule: AdviceRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The aspect's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The aspect's precedence.
    pub fn precedence(&self) -> i32 {
        self.precedence
    }

    /// The rules, in declaration order.
    pub fn rules(&self) -> &[AdviceRule] {
        &self.rules
    }

    /// `true` when any rule carries [`AdvicePosition::ReplaceContent`].
    pub fn replaces_content(&self) -> bool {
        self.rules
            .iter()
            .any(|r| r.advice.position == AdvicePosition::ReplaceContent)
    }

    /// Whether any rule uses generated (join-point- or page-dependent)
    /// content.
    pub fn is_dynamic(&self) -> bool {
        self.rules.iter().any(|r| {
            matches!(
                r.advice.content,
                AdviceContent::Generated(_) | AdviceContent::PageGenerated(_)
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_rules() {
        let a = Aspect::new("x")
            .with_precedence(3)
            .text_rule(Pointcut::Always, AdvicePosition::Before, "t")
            .rule(Pointcut::Root, AdvicePosition::Append, vec![]);
        assert_eq!(a.name(), "x");
        assert_eq!(a.precedence(), 3);
        assert_eq!(a.rules().len(), 2);
        assert!(!a.is_dynamic());
        assert!(!a.replaces_content());
    }

    #[test]
    fn dynamic_and_replace_detection() {
        let a = Aspect::new("y").generated_rule(
            Pointcut::Always,
            AdvicePosition::ReplaceContent,
            |_| vec![],
        );
        assert!(a.is_dynamic());
        assert!(a.replaces_content());
    }
}
