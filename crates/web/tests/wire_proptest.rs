//! Property tests for the wire parser's robustness contract: malformed
//! request lines, oversized and duplicate headers, and truncated bodies
//! all produce a clean typed error (a 400 answer or a silent close) —
//! never a panic, never a misframed request. The resumable-parser laws
//! additionally check segmentation independence: pushing a buffer one
//! byte at a time must produce exactly the same requests and the same
//! terminal error as pushing it whole.

use navsep_web::wire::{read_request, serialize_request, RequestParser, WireError, WireLimits};
use navsep_web::{Method, Request, WireRequest};
use proptest::prelude::*;
use std::io::Cursor;

fn parse(input: &[u8]) -> Result<navsep_web::WireRequest, WireError> {
    read_request(&mut Cursor::new(input.to_vec()))
}

/// Drains every complete request the parser currently holds, stopping at
/// NeedMore (`Ok(None)`) or the first terminal error.
fn drain_parser(parser: &mut RequestParser) -> (Vec<WireRequest>, Option<WireError>) {
    let mut requests = Vec::new();
    loop {
        match parser.next_request() {
            Ok(Some(request)) => requests.push(request),
            Ok(None) => return (requests, None),
            Err(error) => return (requests, Some(error)),
        }
    }
}

/// Parses `input` two ways: pushed whole, and pushed one byte at a time
/// (draining between bytes, like readiness events delivering single-byte
/// segments). Returns both outcomes for comparison.
#[allow(clippy::type_complexity)]
fn parse_both_ways(
    input: &[u8],
) -> (
    (Vec<WireRequest>, Option<WireError>),
    (Vec<WireRequest>, Option<WireError>),
) {
    let mut whole = RequestParser::new(WireLimits::default());
    whole.push(input);
    let whole_outcome = drain_parser(&mut whole);

    let mut resumable = RequestParser::new(WireLimits::default());
    let mut requests = Vec::new();
    let mut error = None;
    for byte in input {
        resumable.push(&[*byte]);
        let (mut got, err) = drain_parser(&mut resumable);
        requests.append(&mut got);
        if err.is_some() {
            error = err;
            break;
        }
    }
    (whole_outcome, (requests, error))
}

/// Arbitrary bytes, biased toward wire-ish content so the parser gets past
/// the first character more often than pure noise would manage.
fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..256).prop_map(|b| b as u8),
            Just(b'\r'),
            Just(b'\n'),
            Just(b' '),
            Just(b':'),
            Just(b'/'),
            Just(b'G'),
            Just(b'E'),
            Just(b'T'),
        ],
        0..400,
    )
}

/// A line that is structurally not `METHOD SP TARGET SP HTTP/1.x`.
fn malformed_request_line() -> impl Strategy<Value = String> {
    prop_oneof![
        // Too few tokens.
        "[A-Z]{1,6}".prop_map(|m| m),
        ("[A-Z]{1,6}", "/[a-z]{1,8}").prop_map(|(m, t)| format!("{m} {t}")),
        // Too many tokens.
        ("[A-Z]{1,6}", "/[a-z]{1,8}").prop_map(|(m, t)| format!("{m} {t} HTTP/1.1 extra")),
        // Bad version.
        ("[A-Z]{1,6}", "/[a-z]{1,8}", "[A-Z0-9./]{1,8}")
            .prop_filter("not a real version", |(_, _, v)| {
                v != "HTTP/1.1" && v != "HTTP/1.0"
            })
            .prop_map(|(m, t, v)| format!("{m} {t} {v}")),
        // Target missing the leading slash.
        ("[A-Z]{1,6}", "[a-z]{1,8}").prop_map(|(m, t)| format!("{m} {t} HTTP/1.1")),
        // Method with non-token characters.
        ("[a-z]{0,3}", "/[a-z]{1,8}").prop_map(|(m, t)| format!("{m}@{m} {t} HTTP/1.1")),
    ]
}

proptest! {
    /// The parser never panics on arbitrary input, and every error either
    /// has no answer (clean close) or answers 400.
    #[test]
    fn arbitrary_bytes_never_panic(input in arbitrary_bytes()) {
        match parse(&input) {
            Ok(request) => {
                // Anything accepted must satisfy the parsed invariants.
                prop_assert!(request.target().starts_with('/') || request.target() == "*");
            }
            Err(error) => {
                if let Some(response) = error.response() {
                    prop_assert_eq!(response.status().code(), 400);
                }
            }
        }
    }

    /// Malformed request lines are always a 400, never a dropped-on-the-
    /// floor connection and never a panic.
    #[test]
    fn malformed_request_lines_answer_400(line in malformed_request_line()) {
        let input = format!("{line}\r\n\r\n");
        let error = parse(input.as_bytes()).expect_err("malformed line must not parse");
        let response = error.response().expect("malformed line gets an answer");
        prop_assert_eq!(response.status().code(), 400);
    }

    /// Oversized header sections hit a bound (line length or header count)
    /// rather than an allocation.
    #[test]
    fn oversized_headers_are_bounded(
        count in 65usize..90,
        value_len in 1usize..32,
        oversize_one in proptest::option::of(Just(())),
    ) {
        let mut input = String::from("GET /a.xml HTTP/1.1\r\n");
        if oversize_one.is_some() {
            // One single header line past the 8 KiB line bound.
            input.push_str(&format!("h: {}\r\n", "v".repeat(9000)));
        } else {
            for i in 0..count {
                input.push_str(&format!("h{i}: {}\r\n", "v".repeat(value_len)));
            }
        }
        input.push_str("\r\n");
        let error = parse(input.as_bytes()).expect_err("oversized headers must not parse");
        prop_assert!(
            matches!(error, WireError::TooManyHeaders | WireError::LineTooLong),
            "unexpected error: {:?}", error
        );
        prop_assert_eq!(error.response().expect("bounded input gets an answer").status().code(), 400);
    }

    /// `content-length` twice — agreeing or not — is rejected outright
    /// (the request-smuggling guard).
    #[test]
    fn duplicate_content_length_is_rejected(a in 0u64..1000, b in 0u64..1000) {
        let body = "x".repeat(a.max(b) as usize);
        let input = format!(
            "GET /a.xml HTTP/1.1\r\ncontent-length: {a}\r\ncontent-length: {b}\r\n\r\n{body}"
        );
        let error = parse(input.as_bytes()).expect_err("duplicate lengths must not parse");
        prop_assert!(matches!(error, WireError::BadContentLength(_)));
        prop_assert_eq!(error.response().unwrap().status().code(), 400);
    }

    /// A body shorter than its advertised `content-length` is a clean
    /// truncation error, answered 400 — never a hang or a misframe.
    #[test]
    fn truncated_bodies_are_clean(advertised in 1usize..300, short_by in 1usize..300) {
        let provided = advertised.saturating_sub(short_by);
        let input = format!(
            "POST /a.xml HTTP/1.1\r\ncontent-length: {advertised}\r\n\r\n{}",
            "x".repeat(provided)
        );
        let error = parse(input.as_bytes()).expect_err("short body must not parse");
        prop_assert_eq!(error.clone(), WireError::Truncated);
        prop_assert_eq!(error.response().unwrap().status().code(), 400);
    }

    /// Truncation anywhere in the head section is equally clean.
    #[test]
    fn truncated_heads_are_clean(cut in 1usize..46) {
        let full = "GET /a.xml HTTP/1.1\r\nx-navsep-if-generation: 3\r\n\r\n";
        prop_assume!(cut < full.len());
        let error = parse(full[..cut].as_bytes()).expect_err("truncated head must not parse");
        prop_assert!(
            matches!(error, WireError::Truncated | WireError::Closed),
            "unexpected error: {:?}", error
        );
    }

    /// Valid requests round-trip: serialize → parse recovers the method,
    /// slash-normalized path, and every header.
    #[test]
    fn serialize_then_parse_is_identity(
        method_pick in 0usize..3,
        path in "[a-z]{1,8}\\.(xml|html|css)",
        at_gen in proptest::option::of(0u64..100),
        if_gen in proptest::option::of(0u64..100),
    ) {
        let method = [Method::Get, Method::Head, Method::Post][method_pick];
        let mut request = Request::new(method, path.clone());
        if let Some(generation) = at_gen {
            request = request.header("x-navsep-at-generation", generation.to_string());
        }
        if let Some(generation) = if_gen {
            request = request.header("x-navsep-if-generation", generation.to_string());
        }
        let parsed = parse(&serialize_request(&request)).expect("valid request parses");
        prop_assert_eq!(parsed.method(), method);
        let slashed = format!("/{path}");
        prop_assert_eq!(parsed.target(), slashed.as_str());
        for (name, value) in request.headers() {
            prop_assert_eq!(parsed.header_value(name), Some(value.as_str()));
        }
        prop_assert!(parsed.wants_keep_alive());
    }

    /// The resumable parser is segmentation-independent on arbitrary
    /// bytes: feeding one byte at a time never panics and yields exactly
    /// the requests and terminal error of a whole-buffer parse.
    #[test]
    fn byte_by_byte_parsing_matches_whole_buffer_on_arbitrary_bytes(
        input in arbitrary_bytes()
    ) {
        let ((whole_requests, whole_error), (byte_requests, byte_error)) =
            parse_both_ways(&input);
        prop_assert_eq!(whole_requests, byte_requests);
        prop_assert_eq!(whole_error, byte_error);
    }

    /// The same law on well-formed pipelined traffic: a run of valid
    /// requests (optionally ending in a partial tail) parses to the same
    /// request sequence whether it arrives whole or one byte per event.
    #[test]
    fn byte_by_byte_parsing_matches_whole_buffer_on_pipelined_requests(
        paths in proptest::collection::vec("[a-z]{1,8}\\.(xml|html|css)", 1..6),
        cut_tail in proptest::option::of(1usize..20),
    ) {
        let mut segment = Vec::new();
        for (i, path) in paths.iter().enumerate() {
            let mut request = Request::get(path.clone());
            if i % 2 == 1 {
                request = request.header("x-navsep-at-generation", i.to_string());
            }
            segment.extend_from_slice(&serialize_request(&request));
        }
        if let Some(cut) = cut_tail {
            // A trailing partial request: both parsers must hold it as
            // NeedMore without inventing or dropping anything.
            let tail = serialize_request(&Request::get("tail.xml"));
            segment.extend_from_slice(&tail[..cut.min(tail.len() - 1)]);
        }
        let ((whole_requests, whole_error), (byte_requests, byte_error)) =
            parse_both_ways(&segment);
        prop_assert_eq!(whole_requests.len(), paths.len());
        prop_assert_eq!(whole_error, None);
        prop_assert_eq!(whole_requests, byte_requests);
        prop_assert_eq!(byte_error, None);
    }
}
