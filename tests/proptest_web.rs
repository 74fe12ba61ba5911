//! Model-based property test: a navigation session's back/forward behaviour
//! must match a simple reference model under arbitrary action sequences.

use navsep::web::{NavigationSession, SessionError, ShardedSiteHandler, ShardedSiteStore, Site};
use navsep::xml::Document;
use proptest::prelude::*;
use std::sync::Arc;

/// A ring site: page i links to page (i+1) % n with anchor text "next".
fn ring_site(n: usize) -> Site {
    let mut site = Site::new();
    for i in 0..n {
        let next = (i + 1) % n;
        site.put_page(
            format!("p{i}.html"),
            Document::parse(&format!(
                r#"<html><head><title>P{i}</title></head><body>
  <a href="p{next}.html">next</a>
</body></html>"#
            ))
            .expect("page parses"),
        );
    }
    site
}

#[derive(Debug, Clone)]
enum Action {
    FollowNext,
    Back,
    Forward,
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(Action::FollowNext),
            2 => Just(Action::Back),
            1 => Just(Action::Forward),
        ],
        0..40,
    )
}

/// The reference model of browser history.
struct Model {
    n: usize,
    current: usize,
    back: Vec<usize>,
    forward: Vec<usize>,
}

impl Model {
    fn follow_next(&mut self) {
        self.back.push(self.current);
        self.forward.clear();
        self.current = (self.current + 1) % self.n;
    }

    fn back(&mut self) -> bool {
        match self.back.pop() {
            Some(target) => {
                self.forward.push(self.current);
                self.current = target;
                true
            }
            None => false,
        }
    }

    fn forward(&mut self) -> bool {
        match self.forward.pop() {
            Some(target) => {
                self.back.push(self.current);
                self.current = target;
                true
            }
            None => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn session_history_matches_model(n in 2usize..6, script in actions()) {
        let store = Arc::new(ShardedSiteStore::from_site(1, &ring_site(n)));
        let mut session = NavigationSession::new(ShardedSiteHandler::new(store));
        session.visit("p0.html").unwrap();
        let mut model = Model { n, current: 0, back: Vec::new(), forward: Vec::new() };

        for action in &script {
            match action {
                Action::FollowNext => {
                    session.follow("next").unwrap();
                    model.follow_next();
                }
                Action::Back => {
                    let real = session.back();
                    let expected = model.back();
                    prop_assert_eq!(real.is_ok(), expected);
                    if let Err(e) = real {
                        prop_assert!(matches!(e, SessionError::HistoryExhausted(_)));
                    }
                }
                Action::Forward => {
                    let real = session.forward();
                    let expected = model.forward();
                    prop_assert_eq!(real.is_ok(), expected);
                }
            }
            // The invariant: session position equals the model's.
            let expected_path = format!("p{}.html", model.current);
            prop_assert_eq!(session.current_path(), Some(expected_path.as_str()));
            prop_assert_eq!(session.history().back_len(), model.back.len());
            prop_assert_eq!(session.history().forward_len(), model.forward.len());
        }
    }
}
