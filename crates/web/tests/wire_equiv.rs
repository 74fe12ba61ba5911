//! Wire-vs-in-process equivalence: every scenario request shape served
//! over real TCP must produce **byte-identical** responses to calling
//! `ShardedSiteHandler::handle` directly and serializing the result.
//!
//! The matrix covers GET/HEAD × existing/unknown paths × time-travel
//! (`x-navsep-at-generation`: retained, past-horizon, junk) × conditional
//! navigation (`x-navsep-if-generation`: fresh, stale, junk) × unsupported
//! methods — the exact shapes the traffic fleet drives. A keep-alive test
//! asserts N sequential responses on one connection are byte-identical to
//! N in-process handler calls.

use navsep_web::store::{AT_GENERATION_HEADER, IF_GENERATION_HEADER};
use navsep_web::wire::{serialize_request, serialize_response};
use navsep_web::{
    Handler, HttpListener, ListenerConfig, Method, Request, ShardedSiteHandler, ShardedSiteStore,
    Site,
};
use navsep_xml::Document;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Five published generations over a retention ring of 2: generation 5 is
/// latest, 4 is retained, 1–3 are past the horizon. `a.xml` and
/// `index.html` change in every generation; `style.css` never does, so it
/// keeps generation 1's stamp.
fn fixture() -> (Arc<ShardedSiteHandler>, HttpListener) {
    let store = Arc::new(ShardedSiteStore::with_retention(8, 2));
    for generation in 1..=5u64 {
        let mut site = Site::new();
        site.put_document(
            "a.xml",
            Document::parse(&format!("<a gen=\"{generation}\">hello</a>")).unwrap(),
        );
        site.put_page(
            "index.html",
            Document::parse(&format!(
                "<html><body><p>museum v{generation}</p></body></html>"
            ))
            .unwrap(),
        );
        site.put_css("style.css", "p { margin: 0 }");
        store.publish_incremental(&site);
    }
    let handler = Arc::new(ShardedSiteHandler::new(store));
    let listener = HttpListener::bind("127.0.0.1:0", Arc::clone(&handler), ListenerConfig::new(2))
        .expect("bind ephemeral port");
    (handler, listener)
}

/// Every request shape the traffic fleet's scenarios generate.
fn scenario_shapes() -> Vec<Request> {
    let mut shapes = Vec::new();
    for method in [Method::Get, Method::Head] {
        for path in ["/a.xml", "/index.html", "/style.css", "/ghost.xml"] {
            // Plain.
            shapes.push(Request::new(method, path));
            // Time travel: retained, latest-by-number, past-horizon, junk.
            for at in ["5", "4", "1", "banana"] {
                shapes.push(Request::new(method, path).header(AT_GENERATION_HEADER, at));
            }
            // Conditional navigation: stale, fresh, junk.
            for recorded in ["1", "5", "99", "junk"] {
                shapes.push(Request::new(method, path).header(IF_GENERATION_HEADER, recorded));
            }
            // Combined: a back-button replay that both time-travels and
            // asks about staleness.
            shapes.push(
                Request::new(method, path)
                    .header(AT_GENERATION_HEADER, "4")
                    .header(IF_GENERATION_HEADER, "4"),
            );
        }
    }
    // Unsupported methods must answer 405, identically on both paths.
    for method in [
        Method::Post,
        Method::Put,
        Method::Delete,
        Method::Options,
        Method::Other,
    ] {
        shapes.push(Request::new(method, "/a.xml"));
    }
    shapes
}

#[test]
fn every_scenario_shape_is_byte_identical_over_tcp() {
    let (handler, listener) = fixture();
    let addr = listener.local_addr();
    for shape in scenario_shapes() {
        let request = shape.clone().header("connection", "close");
        let head = request.method() == Method::Head;
        let expected = serialize_response(&handler.handle(&request), head, false);

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&serialize_request(&request)).unwrap();
        stream.flush().unwrap();
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();

        assert_eq!(
            got,
            expected,
            "wire bytes diverge from in-process for {:?} {:?} {:?}\n wire: {}\n proc: {}",
            request.method(),
            request.path(),
            request.headers(),
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected),
        );
    }
    listener.shutdown();
}

#[test]
fn keep_alive_serves_n_byte_identical_responses_on_one_connection() {
    let (handler, listener) = fixture();
    let mut stream = TcpStream::connect(listener.local_addr()).expect("connect");
    let shapes: Vec<Request> = vec![
        Request::get("/a.xml"),
        Request::head("/a.xml"),
        Request::get("/index.html").header(AT_GENERATION_HEADER, "4"),
        Request::get("/ghost.xml"),
        Request::new(Method::Post, "/a.xml"),
        Request::get("/style.css").header(IF_GENERATION_HEADER, "1"),
        Request::get("/a.xml").header(AT_GENERATION_HEADER, "1"),
        Request::head("/index.html").header(IF_GENERATION_HEADER, "99"),
    ];
    for shape in &shapes {
        let head = shape.method() == Method::Head;
        let expected = serialize_response(&handler.handle(shape), head, true);
        stream.write_all(&serialize_request(shape)).unwrap();
        stream.flush().unwrap();
        let mut got = vec![0u8; expected.len()];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(
            got,
            expected,
            "keep-alive bytes diverge for {:?} {:?}",
            shape.method(),
            shape.path(),
        );
    }
    assert_eq!(listener.stats().accepted, 1, "one socket for all shapes");
    assert_eq!(listener.stats().requests_served, shapes.len() as u64);
    drop(stream);
    listener.shutdown();
}

#[test]
fn pipelined_requests_in_one_segment_answer_in_order_byte_identically() {
    let (handler, listener) = fixture();
    let shapes: Vec<Request> = vec![
        Request::get("/a.xml"),
        Request::head("/index.html"),
        Request::get("/ghost.xml"),
        Request::get("/style.css").header(AT_GENERATION_HEADER, "4"),
        Request::new(Method::Post, "/a.xml"),
        Request::get("/index.html").header(IF_GENERATION_HEADER, "1"),
        Request::get("/a.xml").header(AT_GENERATION_HEADER, "banana"),
    ];
    // True HTTP/1.1 pipelining: every request goes out in ONE write —
    // one TCP segment's worth of back-to-back requests — before any
    // response is read. The last request closes the connection.
    let mut segment = Vec::new();
    let mut expected = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let last = i + 1 == shapes.len();
        let shape = if last {
            shape.clone().header("connection", "close")
        } else {
            shape.clone()
        };
        let head = shape.method() == Method::Head;
        segment.extend_from_slice(&serialize_request(&shape));
        expected.extend_from_slice(&serialize_response(&handler.handle(&shape), head, !last));
    }
    let mut stream = TcpStream::connect(listener.local_addr()).expect("connect");
    stream.write_all(&segment).unwrap();
    stream.flush().unwrap();
    let mut got = Vec::new();
    stream.read_to_end(&mut got).unwrap();
    assert_eq!(
        got,
        expected,
        "pipelined responses must arrive in request order, byte-identical\n wire: {}\n proc: {}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&expected),
    );
    assert_eq!(listener.stats().accepted, 1);
    assert_eq!(listener.stats().requests_served, shapes.len() as u64);
    listener.shutdown();
}

#[test]
fn slashed_and_bare_paths_are_equivalent_end_to_end() {
    let (handler, listener) = fixture();
    let addr = listener.local_addr();
    // In-process callers historically used bare keys; the wire always
    // sends a leading slash. Both must produce identical bytes.
    for (bare, slashed) in [("a.xml", "/a.xml"), ("ghost.xml", "/ghost.xml")] {
        let expected = serialize_response(&handler.handle(&Request::get(bare)), false, false);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(&serialize_request(
                &Request::get(slashed).header("connection", "close"),
            ))
            .unwrap();
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();
        // The wire request carries an extra `connection` header the
        // in-process call lacks; the handler ignores it, so bytes match.
        assert_eq!(got, expected, "bare {bare:?} vs wire {slashed:?}");
    }
    listener.shutdown();
}
