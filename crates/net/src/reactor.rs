//! Readiness-driven connection reactor.
//!
//! One poll thread owns every connection of a server: it reads whatever
//! bytes are available, carves complete wire messages out of per-connection
//! buffers, and hands each decoded request to the dispatch callback
//! together with a [`Responder`] completion token. Request handling
//! happens elsewhere (serving replica workers, broker RPC workers); when a
//! response is ready the worker calls [`Responder::send`], which queues the
//! encoded bytes back to the reactor and wakes it. The reactor writes
//! responses strictly in per-connection request order, so pipelined clients
//! written against the blocking one-thread-per-connection servers keep
//! working unchanged.
//!
//! There is no OS readiness API in this stack (no epoll wrapper available
//! offline), so the reactor approximates readiness with non-blocking
//! sockets plus a short timed wait on a [`Waker`]: any completed response
//! or newly accepted connection wakes it immediately; otherwise it wakes
//! every `PARK` to poll for client bytes. A loop that has just made
//! progress does not park at once: for `LINGER` it keeps polling, yielding
//! the processor between polls, so a peer in the middle of an exchange —
//! its next request a few microseconds behind the response it just read,
//! or a large frame that fills the socket buffer — is served at once and
//! not one timer later. That keeps the idle cost bounded
//! while the hot path — under load the loop always finds work and never
//! sleeps — stays allocation-free: the `poll_*` functions reuse
//! per-connection buffers and are covered by the `HOT_PATH_ALLOC` lint.
//! The `Waker` (rather than raw `thread::park`) exists so the
//! producer/consumer handoff is loom-modelable; see `tests/loom.rs`.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::codec::{poll_parse, ParseStep, MAX_FRAME_BYTES};
use crate::server::{assemble_handle, ServerHandle};
use crate::waker::Waker;
use crate::Result;

/// Idle poll interval. An upper bound on wakeup latency, never the only
/// wakeup path: completions and new connections wake the reactor directly.
const PARK: Duration = Duration::from_micros(100);

/// How long after its last progress the loop keeps polling (yielding the
/// processor between polls) before it parks. Without it, whether the next
/// request of a request/response exchange meets a parked reactor is decided
/// by which of the two threads the scheduler runs first after the response
/// is written: an RPC costs ~20 us or ~180 us, and a whole exchange (a
/// consumer's eight reads, its eight commits) flips between the two from
/// one run to the next. One park interval covers a client's turnaround,
/// score of a small record included, and bounds the extra polling to what
/// one park costs anyway; an idle reactor never lingers.
const LINGER: Duration = PARK;

/// Cap on unparsed buffered bytes before a connection is declared
/// malformed (an HTTP peer that never finishes its headers, say).
const MAX_BUFFERED: usize = MAX_FRAME_BYTES + 64 * 1024;

/// Read chunk size per `poll_read` call.
const READ_CHUNK: usize = 16 * 1024;

/// The wire format a reactor server speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Length-prefixed binary frames (TF-Serving / TorchServe analogs,
    /// broker RPC).
    Grpc,
    /// HTTP/1.1 with `Content-Length` bodies (Ray Serve analog).
    Http,
}

/// Completed responses travelling from handler workers back to the poll
/// thread: `(connection id, request seq, encoded wire bytes)`.
struct Completions {
    ready: Mutex<Vec<(u64, u64, Vec<u8>)>>,
    /// Wakes the poll thread the moment a response is queued.
    waker: Arc<Waker>,
}

/// Completion token for one in-flight request. Consumed by sending the
/// encoded response bytes; the reactor writes them once every earlier
/// response on the same connection has been written.
pub struct Responder {
    completions: Arc<Completions>,
    conn: u64,
    seq: u64,
}

impl Responder {
    /// Queue this request's encoded response and wake the reactor.
    pub fn send(self, bytes: Vec<u8>) {
        self.completions
            .ready
            .lock()
            .push((self.conn, self.seq, bytes));
        self.completions.waker.notify();
    }
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Responder")
            .field("conn", &self.conn)
            .field("seq", &self.seq)
            .finish()
    }
}

/// Per-connection state: the socket, its read/write buffers, and the
/// request/response sequencing that keeps pipelined responses in order.
struct Conn {
    stream: TcpStream,
    /// Buffered inbound bytes; `[parsed..]` is not yet consumed.
    inbuf: Vec<u8>,
    parsed: usize,
    /// Encoded outbound bytes; `[written..]` is not yet on the wire.
    outbuf: Vec<u8>,
    written: usize,
    /// Seq assigned to the next parsed request.
    next_seq: u64,
    /// Seq whose response is next to enter `outbuf`.
    next_write: u64,
    /// Out-of-order completions parked until their turn.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Read side saw EOF; drain remaining responses, then drop.
    peer_closed: bool,
    /// Unrecoverable (reset, malformed wire bytes); drop immediately.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            parsed: 0,
            outbuf: Vec::new(),
            written: 0,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            peer_closed: false,
            dead: false,
        }
    }

    /// Responses outstanding: parsed requests whose bytes have not fully
    /// left the socket yet.
    fn draining(&self) -> bool {
        self.next_write < self.next_seq || self.written < self.outbuf.len()
    }

    fn finished(&self) -> bool {
        self.dead || (self.peer_closed && !self.draining())
    }
}

/// State shared between the accept thread, the handler workers, and the
/// poll thread.
struct ReactorShared {
    stop: Arc<AtomicBool>,
    /// Freshly accepted connections awaiting adoption by the poll thread.
    injector: Mutex<Vec<(u64, TcpStream)>>,
    completions: Arc<Completions>,
    /// The server-wide connection registry (`ServerHandle` severs these on
    /// shutdown; the reactor prunes entries as connections die).
    registry: Arc<Mutex<HashMap<u64, TcpStream>>>,
}

/// Spawn a reactor server: an accept thread feeding connections to a poll
/// thread which invokes `on_request(payload, responder)` for every
/// complete wire message. The callback must eventually resolve every
/// responder (admission sheds included) or the client hangs until
/// shutdown.
pub fn spawn_reactor_on(
    name: &'static str,
    addr: SocketAddr,
    wire: Wire,
    mut on_request: impl FnMut(&[u8], Responder) + Send + 'static,
) -> Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let registry: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let waker = Arc::new(Waker::new());
    let shared = Arc::new(ReactorShared {
        stop: stop.clone(),
        injector: Mutex::new(Vec::new()),
        completions: Arc::new(Completions {
            ready: Mutex::new(Vec::new()),
            waker: waker.clone(),
        }),
        registry: registry.clone(),
    });

    let poll_shared = Arc::clone(&shared);
    let poll_thread = std::thread::Builder::new()
        .name(format!("{name}-reactor"))
        .spawn(move || run_reactor(&poll_shared, wire, &mut on_request))?;

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            let mut next_conn_id = 0u64;
            for stream in listener.incoming() {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                stream.set_nodelay(true).ok();
                let id = next_conn_id;
                next_conn_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    accept_shared.registry.lock().insert(id, clone);
                }
                accept_shared.injector.lock().push((id, stream));
                accept_shared.completions.waker.notify();
            }
        })?;

    let mut handle = assemble_handle(name, addr, stop, accept_thread, registry);
    let mut join = Some(poll_thread);
    handle.add_teardown(move || {
        if let Some(h) = join.take() {
            waker.notify();
            let _ = h.join();
        }
    });
    Ok(handle)
}

/// The poll loop. Exits when the stop flag is raised.
fn run_reactor(
    shared: &ReactorShared,
    wire: Wire,
    on_request: &mut (impl FnMut(&[u8], Responder) + Send),
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut scratch = [0u8; READ_CHUNK];
    // When the loop last made progress, while it is still inside `LINGER`.
    let mut last_progress: Option<Instant> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            // Connections were (or will be) severed by the handle; any
            // still-undelivered responses die with the server.
            for (_, c) in conns.drain() {
                let _ = c.stream.shutdown(Shutdown::Both);
            }
            return;
        }
        let mut progress = false;

        // Adopt newly accepted connections.
        for (id, stream) in shared.injector.lock().drain(..) {
            if stream.set_nonblocking(true).is_err() {
                shared.registry.lock().remove(&id);
                continue;
            }
            conns.insert(id, Conn::new(stream));
            progress = true;
        }

        // Route completed responses to their connections. Completions for
        // connections that died in the meantime are dropped.
        for (cid, seq, bytes) in shared.completions.ready.lock().drain(..) {
            if let Some(c) = conns.get_mut(&cid) {
                c.pending.insert(seq, bytes);
                progress = true;
            }
        }

        for (&id, c) in conns.iter_mut() {
            // Promote in-order completions into the write buffer.
            while let Some(bytes) = c.pending.remove(&c.next_write) {
                if c.outbuf.is_empty() {
                    // Nothing queued ahead of it: send the response from
                    // the buffer it arrived in.
                    c.outbuf = bytes;
                } else {
                    c.outbuf.extend_from_slice(&bytes);
                }
                c.next_write += 1;
                progress = true;
            }

            progress |= poll_read(c, &mut scratch);

            // Carve complete messages out of the input buffer and hand
            // them to the dispatch callback (which allocates freely — the
            // decode and the handler push live there, not here).
            loop {
                match poll_parse(wire, &c.inbuf[c.parsed..]) {
                    ParseStep::Msg {
                        start,
                        end,
                        consumed,
                    } => {
                        let (abs_start, abs_end) = (c.parsed + start, c.parsed + end);
                        c.parsed += consumed;
                        let seq = c.next_seq;
                        c.next_seq += 1;
                        let responder = Responder {
                            completions: Arc::clone(&shared.completions),
                            conn: id,
                            seq,
                        };
                        on_request(&c.inbuf[abs_start..abs_end], responder);
                        progress = true;
                    }
                    ParseStep::Incomplete => {
                        if c.inbuf.len() - c.parsed > MAX_BUFFERED {
                            c.dead = true;
                        }
                        break;
                    }
                    ParseStep::Bad => {
                        c.dead = true;
                        break;
                    }
                }
            }
            poll_compact(c);

            progress |= poll_write(c);
        }

        // Drop finished connections and prune them from the registry.
        let before = conns.len();
        conns.retain(|_, c| !c.finished());
        if conns.len() != before {
            let mut registry = shared.registry.lock();
            registry.retain(|id, _| conns.contains_key(id));
            progress = true;
        }

        if progress {
            last_progress = Some(crayfish_sim::now());
        } else if last_progress.is_some_and(|at| at.elapsed() < LINGER) {
            // Let the peer run if it shares this processor; on a free
            // processor this returns at once and the loop polls hot.
            std::thread::yield_now();
        } else {
            last_progress = None;
            shared.completions.waker.wait_timeout(PARK);
        }
    }
}

/// Pull available bytes off the socket into the connection's input buffer.
/// Returns whether any bytes arrived.
fn poll_read(c: &mut Conn, scratch: &mut [u8]) -> bool {
    if c.dead || c.peer_closed {
        return false;
    }
    let mut any = false;
    loop {
        match c.stream.read(scratch) {
            Ok(0) => {
                c.peer_closed = true;
                return any;
            }
            Ok(n) => {
                c.inbuf.extend_from_slice(&scratch[..n]);
                any = true;
                if n < scratch.len() {
                    return any;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return any,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return any;
            }
        }
    }
}

/// Flush as much of the write buffer as the socket accepts. Returns
/// whether any bytes left.
fn poll_write(c: &mut Conn) -> bool {
    if c.dead {
        return false;
    }
    let mut any = false;
    while c.written < c.outbuf.len() {
        match c.stream.write(&c.outbuf[c.written..]) {
            Ok(0) => {
                c.dead = true;
                return any;
            }
            Ok(n) => {
                c.written += n;
                any = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return any,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return any;
            }
        }
    }
    if c.written == c.outbuf.len() && c.written > 0 {
        c.outbuf.clear();
        c.written = 0;
    }
    any
}

/// Reclaim consumed bytes from the input buffer once everything buffered
/// has been parsed (the steady state), or when the consumed prefix has
/// grown large.
fn poll_compact(c: &mut Conn) {
    if c.parsed == 0 {
        return;
    }
    if c.parsed == c.inbuf.len() {
        c.inbuf.clear();
        c.parsed = 0;
    } else if c.parsed > READ_CHUNK * 4 {
        c.inbuf.copy_within(c.parsed.., 0);
        c.inbuf.truncate(c.inbuf.len() - c.parsed);
        c.parsed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{frame_bytes, poll_parse_grpc, poll_parse_http, read_frame, write_frame};
    use std::io::{BufRead, BufReader};

    fn echo_server(wire: Wire) -> ServerHandle {
        spawn_reactor_on(
            "echo-reactor",
            SocketAddr::from(([127, 0, 0, 1], 0)),
            wire,
            move |payload, responder| {
                let bytes = match wire {
                    Wire::Grpc => frame_bytes(payload).unwrap(),
                    Wire::Http => {
                        let mut out = Vec::new();
                        write!(
                            out,
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                            payload.len()
                        )
                        .unwrap();
                        out.extend_from_slice(payload);
                        out
                    }
                };
                responder.send(bytes);
            },
        )
        .unwrap()
    }

    #[test]
    fn grpc_echo_roundtrip() {
        let server = echo_server(Wire::Grpc);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut c, b"hello reactor").unwrap();
        let got = read_frame(&mut c).unwrap().unwrap();
        assert_eq!(got, b"hello reactor");
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_come_back_in_order() {
        let server = echo_server(Wire::Grpc);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        // Write a burst of frames before reading anything back.
        for i in 0..32u32 {
            write_frame(&mut c, &i.to_le_bytes()).unwrap();
        }
        for i in 0..32u32 {
            let got = read_frame(&mut c).unwrap().unwrap();
            assert_eq!(got, i.to_le_bytes(), "response order violated");
        }
        server.shutdown();
    }

    #[test]
    fn http_echo_roundtrip() {
        let server = echo_server(Wire::Http);
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.write_all(b"POST /infer HTTP/1.1\r\nContent-Length: 4\r\n\r\nping")
            .unwrap();
        let mut r = BufReader::new(c);
        let mut status = String::new();
        r.read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.1 200"));
        let mut blank = String::new();
        r.read_line(&mut blank).unwrap(); // Content-Length
        r.read_line(&mut blank).unwrap(); // empty line
        let mut body = [0u8; 4];
        r.read_exact(&mut body).unwrap();
        assert_eq!(&body, b"ping");
        server.shutdown();
    }

    #[test]
    fn malformed_http_headers_kill_only_that_connection() {
        let server = echo_server(Wire::Http);
        let mut bad = TcpStream::connect(server.addr()).unwrap();
        bad.write_all(b"POST /infer HTTP/1.1\r\nNo-Length: x\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 1];
        // The reactor drops the connection: read returns EOF.
        bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(bad.read(&mut buf).unwrap_or(0), 0);
        // A well-formed connection still works.
        let mut good = TcpStream::connect(server.addr()).unwrap();
        good.write_all(b"POST /infer HTTP/1.1\r\nContent-Length: 2\r\n\r\nok")
            .unwrap();
        let mut r = BufReader::new(good);
        let mut status = String::new();
        r.read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.1 200"));
        server.shutdown();
    }

    #[test]
    fn parse_helpers_handle_every_split() {
        let frame = frame_bytes(b"abcdef").unwrap();
        for cut in 0..frame.len() {
            match poll_parse_grpc(&frame[..cut]) {
                ParseStep::Incomplete => {}
                _ => panic!("prefix of {cut} bytes should be incomplete"),
            }
        }
        match poll_parse_grpc(&frame) {
            ParseStep::Msg {
                start,
                end,
                consumed,
            } => {
                assert_eq!(&frame[start..end], b"abcdef");
                assert_eq!(consumed, frame.len());
            }
            _ => panic!("complete frame did not parse"),
        }
        assert!(matches!(
            poll_parse_grpc(&(u32::MAX).to_le_bytes()),
            ParseStep::Bad
        ));

        let req = b"POST /infer HTTP/1.1\r\ncontent-LENGTH:  3\r\n\r\nxyz";
        match poll_parse_http(req) {
            ParseStep::Msg { start, end, .. } => assert_eq!(&req[start..end], b"xyz"),
            _ => panic!("http request did not parse"),
        }
        for cut in 0..req.len() {
            match poll_parse_http(&req[..cut]) {
                ParseStep::Incomplete => {}
                _ => panic!("http prefix of {cut} bytes should be incomplete"),
            }
        }
    }
}
