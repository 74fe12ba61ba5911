//! The load generators: an open loop that sends on a fixed schedule over
//! one pipelined keep-alive connection, and a closed loop that keeps a
//! fixed pipeline depth on each of its connections. Every response is
//! recorded as an [`Obs`] and checked after the run.

use crate::gen::{ReadOp, Rng};
use navsep_web::store::{
    AT_GENERATION_HEADER, DEGRADED_HEADER, GENERATION_HEADER, IF_GENERATION_HEADER,
};
use navsep_web::wire::{read_response, serialize_request};
use navsep_web::{Request, WireResponse};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one response carried, kept for the checks after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obs {
    /// Index into the run's path list.
    pub path: u32,
    /// Whether the request was a HEAD.
    pub head: bool,
    /// HTTP status (0 when the exchange failed with an I/O error).
    pub status: u16,
    /// The `x-navsep-generation` stamp.
    pub generation: u64,
    /// GET: body length; HEAD: advertised `content-length`.
    pub len: u64,
    /// FNV-1a of the body (GET only).
    pub hash: u64,
    /// The generation a back-button replay asked for.
    pub asked_generation: Option<u64>,
    /// The response said the replay degraded to the latest generation.
    pub degraded: bool,
}

/// One blocking keep-alive HTTP/1.1 connection over loopback.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle off.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(64 * 1024, writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Writes one request.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads the next response in pipeline order.
    pub fn recv(&mut self, head: bool) -> io::Result<WireResponse> {
        read_response(&mut self.reader, head).map_err(|e| io::Error::other(format!("{e:?}")))
    }

    /// One request, one response.
    pub fn exchange(&mut self, request: &Request, head: bool) -> io::Result<WireResponse> {
        self.send(&serialize_request(request))?;
        self.recv(head)
    }
}

/// The wire request for a fresh read of `path`.
pub fn read_request(path: &str, head: bool) -> Request {
    if head {
        Request::head(path)
    } else {
        Request::get(path)
    }
}

/// The wire request replaying history entry `(path, generation)`.
pub fn replay_request(path: &str, generation: u64) -> Request {
    Request::get(path)
        .header(AT_GENERATION_HEADER, generation.to_string())
        .header(IF_GENERATION_HEADER, generation.to_string())
}

/// Condenses a response into an [`Obs`].
pub fn observe(path: u32, head: bool, asked: Option<u64>, response: &WireResponse) -> Obs {
    let generation = response
        .header_value(GENERATION_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let len = if head {
        response
            .header_value("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(u64::MAX)
    } else {
        response.body.len() as u64
    };
    Obs {
        path,
        head,
        status: response.status,
        generation,
        len,
        hash: if head {
            0
        } else {
            navsep_xml::fnv1a64(&response.body)
        },
        asked_generation: asked,
        degraded: response.header_value(DEGRADED_HEADER).is_some(),
    }
}

/// The observation recorded for an exchange that failed with an I/O error.
pub fn failed_obs(path: u32, head: bool) -> Obs {
    Obs {
        path,
        head,
        status: 0,
        generation: 0,
        len: 0,
        hash: 0,
        asked_generation: None,
        degraded: false,
    }
}

/// Recent `(path, generation)` pairs readers have seen: the history a
/// back-button replay goes back to.
#[derive(Debug, Default)]
pub struct History {
    entries: Mutex<Vec<(u32, u64)>>,
    next: AtomicU64,
}

/// Entries a back-button replay picks from: about 0.4 s of fresh reads in
/// churn, several commits back, so some replays outlive the 4-epoch ring
/// and degrade.
const HISTORY_DEPTH: usize = 1024;

impl History {
    fn push(&self, path: u32, generation: u64) {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) as usize % HISTORY_DEPTH;
        let mut entries = self.entries.lock().expect("history lock poisoned");
        if entries.len() < HISTORY_DEPTH {
            entries.push((path, generation));
        } else {
            entries[slot] = (path, generation);
        }
    }

    fn pick(&self, rng: &mut Rng) -> Option<(u32, u64)> {
        let entries = self.entries.lock().expect("history lock poisoned");
        (!entries.is_empty()).then(|| entries[rng.below(entries.len())])
    }
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Response time from the scheduled send time, µs.
    pub latency_us: Vec<f64>,
    /// Response time from the actual send time, µs.
    pub rtt_us: Vec<f64>,
    /// Actual minus scheduled send time, µs.
    pub lateness_us: Vec<f64>,
    /// One per response.
    pub obs: Vec<Obs>,
    /// Requests written to the socket.
    pub sent: u64,
    /// The request sequence as sent, for the traced serving breakdown.
    pub requests: Vec<SentRequest>,
}

/// One sent request: path index, HEAD, and the generation a back-button
/// replay asked for.
pub type SentRequest = (u32, bool, Option<u64>);

struct InFlight {
    due: Instant,
    sent: Instant,
    path: u32,
    head: bool,
    asked: Option<u64>,
}

/// Sends `ops` at `rate` per second on one connection (a sender thread
/// writes on schedule, a receiver thread reads in pipeline order), timing
/// each response from when it was due. Replay ops go back to an entry of
/// `history`; fresh GETs feed it.
pub fn open_loop(
    addr: SocketAddr,
    paths: &[String],
    ops: &[ReadOp],
    rate: f64,
    history: &History,
    seed: u64,
) -> io::Result<OpenLoop> {
    let conn = Conn::connect(addr)?;
    let Conn {
        mut writer,
        mut reader,
    } = conn;
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now() + Duration::from_millis(5);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut result = OpenLoop::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> (u64, Vec<f64>, Vec<SentRequest>) {
            let mut rng = Rng::new(seed, 11);
            let mut sent = 0u64;
            let mut lateness = Vec::with_capacity(ops.len());
            let mut requests = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let due = start + interval.mul_f64(i as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (path, head, asked) = match op.replay.then(|| history.pick(&mut rng)).flatten()
                {
                    Some((path, generation)) => (path, false, Some(generation)),
                    None => (op.path, op.head, None),
                };
                let request = match asked {
                    Some(generation) => replay_request(&paths[path as usize], generation),
                    None => read_request(&paths[path as usize], head),
                };
                let bytes = serialize_request(&request);
                let sent_at = Instant::now();
                lateness.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e6);
                requests.push((path, head, asked));
                if tx
                    .send(InFlight {
                        due,
                        sent: sent_at,
                        path,
                        head,
                        asked,
                    })
                    .is_err()
                {
                    break;
                }
                if writer.write_all(&bytes).is_err() {
                    break;
                }
                sent += 1;
            }
            drop(tx);
            (sent, lateness, requests)
        });
        let receiver = scope.spawn(|| {
            let mut latency = Vec::with_capacity(ops.len());
            let mut rtt = Vec::with_capacity(ops.len());
            let mut obs = Vec::with_capacity(ops.len());
            let mut broken = false;
            for flight in rx {
                if broken {
                    latency.push(f64::INFINITY);
                    obs.push(failed_obs(flight.path, flight.head));
                    continue;
                }
                match read_response(&mut reader, flight.head) {
                    Ok(response) => {
                        let done = Instant::now();
                        // A failed read misses any latency limit.
                        latency.push(if (200..300).contains(&response.status) {
                            done.duration_since(flight.due).as_secs_f64() * 1e6
                        } else {
                            f64::INFINITY
                        });
                        rtt.push(done.duration_since(flight.sent).as_secs_f64() * 1e6);
                        let o = observe(flight.path, flight.head, flight.asked, &response);
                        if !o.head && o.asked_generation.is_none() && o.status == 200 {
                            history.push(o.path, o.generation);
                        }
                        obs.push(o);
                    }
                    Err(_) => {
                        broken = true;
                        latency.push(f64::INFINITY);
                        obs.push(failed_obs(flight.path, flight.head));
                    }
                }
            }
            (latency, rtt, obs)
        });
        let (sent, lateness, requests) = sender.join().expect("open-loop sender panicked");
        let (latency, rtt, obs) = receiver.join().expect("open-loop receiver panicked");
        result = OpenLoop {
            latency_us: latency,
            rtt_us: rtt,
            lateness_us: lateness,
            obs,
            sent,
            requests,
        };
    });
    Ok(result)
}

/// What a closed-loop saturation phase measured.
#[derive(Debug, Default)]
pub struct Saturation {
    /// 2xx responses received.
    pub ok: u64,
    /// When each 2xx response arrived, ns after the phase started.
    pub ok_at_ns: Vec<u64>,
    /// Wall time from the first send to the last response, seconds.
    pub seconds: f64,
    /// One per response.
    pub obs: Vec<Obs>,
    /// Requests written to the sockets.
    pub sent: u64,
}

/// Keeps `depth` requests in flight on each of `conns` connections (one
/// thread each) for `duration`, then drains.
pub fn saturate(
    addr: SocketAddr,
    paths: &[String],
    ops: &[ReadOp],
    conns: usize,
    depth: usize,
    duration: Duration,
) -> io::Result<Saturation> {
    let mut connections = Vec::with_capacity(conns);
    for _ in 0..conns {
        connections.push(Conn::connect(addr)?);
    }
    let start = Instant::now();
    let deadline = start + duration;
    let parts: Vec<(Vec<u64>, Vec<Obs>, u64, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mut cursor = c * ops.len() / conns;
                    let mut next = || {
                        let op = ops[cursor % ops.len()];
                        cursor += 1;
                        op
                    };
                    let mut in_flight = std::collections::VecDeque::with_capacity(depth);
                    let mut obs = Vec::new();
                    let mut ok = Vec::new();
                    let mut sent = 0u64;
                    let mut broken = false;
                    for _ in 0..depth {
                        let op = next();
                        let request = read_request(&paths[op.path as usize], op.head);
                        if conn.send(&serialize_request(&request)).is_err() {
                            broken = true;
                            break;
                        }
                        sent += 1;
                        in_flight.push_back(op);
                    }
                    let mut last = Instant::now();
                    while let Some(op) = in_flight.pop_front() {
                        if broken {
                            obs.push(failed_obs(op.path, op.head));
                            continue;
                        }
                        match conn.recv(op.head) {
                            Ok(response) => {
                                last = Instant::now();
                                if (200..300).contains(&response.status) {
                                    ok.push(last.duration_since(start).as_nanos() as u64);
                                }
                                obs.push(observe(op.path, op.head, None, &response));
                            }
                            Err(_) => {
                                broken = true;
                                obs.push(failed_obs(op.path, op.head));
                                continue;
                            }
                        }
                        if last < deadline {
                            let op = next();
                            let request = read_request(&paths[op.path as usize], op.head);
                            if conn.send(&serialize_request(&request)).is_err() {
                                broken = true;
                                obs.push(failed_obs(op.path, op.head));
                                continue;
                            }
                            sent += 1;
                            in_flight.push_back(op);
                        }
                    }
                    (ok, obs, sent, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation thread panicked"))
            .collect()
    });
    let mut result = Saturation::default();
    let mut end = start;
    for (ok, obs, sent, last) in parts {
        result.ok += ok.len() as u64;
        result.ok_at_ns.extend(ok);
        result.obs.extend(obs);
        result.sent += sent;
        end = end.max(last);
    }
    result.seconds = end.duration_since(start).as_secs_f64();
    result.ok_at_ns.sort_unstable();
    Ok(result)
}
