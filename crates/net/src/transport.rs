//! The pluggable request/response seam.
//!
//! A [`Transport`] carries one length-prefixed request frame to a service
//! and returns its response frame. Two implementations:
//!
//! * [`InProcTransport`] — direct dispatch into the service's handler on
//!   the caller's thread. No sockets, no buffering, no reordering: the
//!   single-process semantics (and test determinism) of calling the
//!   service directly are preserved exactly.
//! * [`TcpTransport`] — a real socket to a [`spawn_rpc_server`] endpoint,
//!   lazily connected and re-established after any failure. Chaos fault
//!   windows (extra delay, connection resets, dead/isolated peers) are
//!   applied here, at the seam, so the same fault matrix drives both the
//!   in-process broker and a broker living in another process.
//!
//! Every error a `TcpTransport` returns is transient by construction: the
//! next call reconnects. Request/response framing errors are the one
//! terminal case and indicate a protocol bug, not weather.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crayfish_chaos::ChaosHandle;
use crayfish_obs::{Counter, ObsHandle};
use parking_lot::Mutex;

use crate::codec::{frame_in_place, read_frame, write_frame, FRAME_PREFIX, MAX_FRAME_BYTES};
use crate::reactor::{spawn_reactor_on, Wire};
use crate::server::ServerHandle;
use crate::{NetError, Result};

/// A service's request handler: takes one request payload by value (a
/// service may keep the allocation, e.g. store slices of it) and appends
/// the response payload to the buffer it is given. Shared between the
/// in-process transport (which calls it directly) and the RPC server
/// (which calls it from worker threads and frames the buffer in place).
pub type RpcHandler = Arc<dyn Fn(Vec<u8>, &mut Vec<u8>) + Send + Sync>;

/// Appends the response a service gives when the one its handler wrote
/// (of the given size) does not fit a frame: an error in the service's own
/// encoding, so the client learns why instead of waiting out a timeout.
pub type OversizeReply = fn(usize, &mut Vec<u8>);

/// One request/response exchange with a service.
pub trait Transport: Send + Sync {
    /// Send `request`, block until the response arrives.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>>;
}

/// Direct in-process dispatch: `call` runs the handler on the caller's
/// thread and returns its response. Infallible and deterministic.
pub struct InProcTransport {
    handler: RpcHandler,
}

impl InProcTransport {
    /// Wrap a handler.
    pub fn new(handler: RpcHandler) -> InProcTransport {
        InProcTransport { handler }
    }
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport").finish_non_exhaustive()
    }
}

impl Transport for InProcTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>> {
        let mut response = Vec::new();
        (self.handler)(request.to_vec(), &mut response);
        Ok(response)
    }
}

/// Default per-call read timeout. Long-poll RPCs clamp their server-side
/// wait well below this, so a timeout firing means the peer is gone.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A lazily connected, self-healing client socket to one RPC endpoint.
///
/// Calls are serialized over a single connection (one request frame out,
/// one response frame in); any I/O failure drops the connection so the
/// next call dials fresh. When constructed with instruments, byte
/// counters, a reconnect counter, and chaos fault windows attach here —
/// the seam through which `NetworkDelay`, connection resets, and
/// dead/isolated-peer faults reach a remote service.
pub struct TcpTransport {
    addr: SocketAddr,
    conn: Mutex<Option<TcpStream>>,
    read_timeout: Duration,
    /// Numeric peer id consulted against chaos dead/isolated windows.
    peer: Option<u32>,
    chaos: ChaosHandle,
    bytes_out: Counter,
    bytes_in: Counter,
    reconnects: Counter,
    /// Distinguishes the first dial (not a reconnect) from re-dials.
    ever_connected: AtomicBool,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addr", &self.addr)
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// A bare transport with no instrumentation and no chaos coupling.
    pub fn new(addr: SocketAddr) -> TcpTransport {
        TcpTransport::with_instruments(addr, &ObsHandle::disabled(), ChaosHandle::disabled())
    }

    /// A transport wired into observability counters and chaos windows.
    pub fn with_instruments(addr: SocketAddr, obs: &ObsHandle, chaos: ChaosHandle) -> TcpTransport {
        TcpTransport {
            addr,
            conn: Mutex::new(None),
            read_timeout: READ_TIMEOUT,
            peer: None,
            chaos,
            bytes_out: obs.counter("net_bytes_out"),
            bytes_in: obs.counter("net_bytes_in"),
            reconnects: obs.counter("net_reconnects"),
            ever_connected: AtomicBool::new(false),
        }
    }

    /// Tag this transport with the peer id chaos uses for dead/isolated
    /// windows (`set_broker_dead` / `set_broker_isolated`).
    pub fn with_peer(mut self, peer: u32) -> TcpTransport {
        self.peer = Some(peer);
        self
    }

    /// Override the per-call read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> TcpTransport {
        self.read_timeout = timeout;
        self
    }

    /// The endpoint this transport dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn dial(&self) -> Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.read_timeout))?;
        if self.ever_connected.swap(true, Ordering::Relaxed) {
            self.reconnects.inc();
        }
        Ok(stream)
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>> {
        // Chaos windows apply before any bytes move: a degraded network
        // delays every call, a dead or isolated peer refuses them all.
        if let Some(extra) = self.chaos.extra_net_delay() {
            std::thread::sleep(extra);
        }
        let mut conn = self.conn.lock();
        if let Some(peer) = self.peer {
            if self.chaos.broker_dead(peer) || self.chaos.broker_isolated(peer) {
                *conn = None;
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "peer unreachable (fault window)",
                )));
            }
        }
        if self.chaos.connection_reset_due() {
            *conn = None;
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "connection reset (fault window)",
            )));
        }
        if conn.is_none() {
            *conn = Some(self.dial()?);
        }
        let Some(stream) = conn.as_mut() else {
            return Err(NetError::Closed);
        };
        if let Err(e) = write_frame(stream, request) {
            *conn = None;
            return Err(e);
        }
        self.bytes_out.add(4 + request.len() as u64);
        match read_frame(stream) {
            Ok(Some(response)) => {
                self.bytes_in.add(4 + response.len() as u64);
                Ok(response)
            }
            Ok(None) => {
                *conn = None;
                Err(NetError::Closed)
            }
            Err(e) => {
                *conn = None;
                Err(e)
            }
        }
    }
}

/// Spawn a length-prefixed RPC service: a reactor accepts connections and
/// frames, a pool of `workers` threads runs the handler (so slow or
/// blocking RPCs — long polls, replication fan-out — do not stall the
/// poll thread), and responses flow back through the reactor in
/// per-connection request order. A response over [`MAX_FRAME_BYTES`] is
/// replaced by what `oversize` writes.
///
/// [`MAX_FRAME_BYTES`]: crate::MAX_FRAME_BYTES
pub fn spawn_rpc_server(
    name: &'static str,
    addr: SocketAddr,
    workers: usize,
    handler: RpcHandler,
    oversize: OversizeReply,
) -> Result<ServerHandle> {
    let (tx, rx) = crossbeam::channel::unbounded::<(Vec<u8>, crate::reactor::Responder)>();
    let mut pool = Vec::with_capacity(workers.max(1));
    for i in 0..workers.max(1) {
        let rx = rx.clone();
        let handler = handler.clone();
        let worker = std::thread::Builder::new()
            .name(format!("{name}-rpc-{i}"))
            .spawn(move || {
                while let Ok((request, responder)) = rx.recv() {
                    // The handler writes behind the reserved prefix, so the
                    // buffer it fills is the one the reactor sends.
                    let mut frame = vec![0u8; FRAME_PREFIX];
                    handler(request, &mut frame);
                    let len = frame.len().saturating_sub(FRAME_PREFIX);
                    if len > MAX_FRAME_BYTES {
                        frame.truncate(FRAME_PREFIX);
                        oversize(len, &mut frame);
                    }
                    // A stand-in that is itself oversized is a service bug:
                    // dropping the responder leaves the client to its read
                    // timeout rather than corrupting the stream.
                    if frame_in_place(&mut frame).is_ok() {
                        responder.send(frame);
                    }
                }
            })?;
        pool.push(worker);
    }
    drop(rx);

    let mut handle = spawn_reactor_on(name, addr, Wire::Grpc, move |payload, responder| {
        // The reactor's callback must not block; hand off to the pool.
        // Send fails only during teardown, when responses no longer
        // matter.
        let _ = tx.send((payload.to_vec(), responder));
    })?;
    // Teardown order: the reactor hook (registered by spawn_reactor_on)
    // joins the poll thread first, which drops the dispatch closure and
    // with it the last sender — so by the time this hook runs, worker
    // recv() calls are draining toward disconnect.
    handle.add_teardown(move || {
        for worker in pool {
            let _ = worker.join();
        }
    });
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upper_handler() -> RpcHandler {
        Arc::new(|req: Vec<u8>, out: &mut Vec<u8>| out.extend(req.to_ascii_uppercase()))
    }

    fn too_large(len: usize, out: &mut Vec<u8>) {
        out.extend(format!("too large: {len}").bytes());
    }

    #[test]
    fn inproc_call_dispatches_directly() {
        let t = InProcTransport::new(upper_handler());
        assert_eq!(t.call(b"ping").unwrap(), b"PING");
    }

    #[test]
    fn tcp_call_roundtrips_through_an_rpc_server() {
        let server = spawn_rpc_server(
            "upper",
            SocketAddr::from(([127, 0, 0, 1], 0)),
            2,
            upper_handler(),
            too_large,
        )
        .unwrap();
        let t = TcpTransport::new(server.addr());
        assert_eq!(t.call(b"hello").unwrap(), b"HELLO");
        assert_eq!(t.call(b"again").unwrap(), b"AGAIN");
        server.shutdown();
    }

    #[test]
    fn oversize_response_is_answered_not_dropped() {
        let handler: RpcHandler = Arc::new(|req: Vec<u8>, out: &mut Vec<u8>| {
            if req == b"big" {
                out.resize(out.len() + crate::MAX_FRAME_BYTES + 1, 0);
            } else {
                out.extend(req);
            }
        });
        let server = spawn_rpc_server(
            "oversize",
            SocketAddr::from(([127, 0, 0, 1], 0)),
            1,
            handler,
            too_large,
        )
        .unwrap();
        let t = TcpTransport::new(server.addr()).with_read_timeout(Duration::from_secs(5));
        let expected = format!("too large: {}", crate::MAX_FRAME_BYTES + 1);
        assert_eq!(t.call(b"big").unwrap(), expected.as_bytes());
        // The connection survives and stays in step.
        assert_eq!(t.call(b"small").unwrap(), b"small");
        server.shutdown();
    }

    #[test]
    fn tcp_transport_reconnects_after_server_restart() {
        let addr;
        {
            let server = spawn_rpc_server(
                "upper-a",
                SocketAddr::from(([127, 0, 0, 1], 0)),
                1,
                upper_handler(),
                too_large,
            )
            .unwrap();
            addr = server.addr();
            let t = TcpTransport::new(addr);
            assert_eq!(t.call(b"one").unwrap(), b"ONE");
            server.shutdown();
            // The connection is severed; the next call errors but heals.
            assert!(t.call(b"two").is_err());
            let revived = spawn_rpc_server("upper-b", addr, 1, upper_handler(), too_large).unwrap();
            assert_eq!(t.call(b"three").unwrap(), b"THREE");
            revived.shutdown();
        }
    }

    #[test]
    fn chaos_dead_peer_refuses_calls() {
        let server = spawn_rpc_server(
            "upper-chaos",
            SocketAddr::from(([127, 0, 0, 1], 0)),
            1,
            upper_handler(),
            too_large,
        )
        .unwrap();
        let chaos = ChaosHandle::enabled();
        let t =
            TcpTransport::with_instruments(server.addr(), &ObsHandle::disabled(), chaos.clone())
                .with_peer(3);
        assert_eq!(t.call(b"up").unwrap(), b"UP");
        chaos.set_broker_dead(3, true);
        let err = t.call(b"down").unwrap_err();
        assert!(err.is_transient(), "dead-peer error must be retryable");
        chaos.set_broker_dead(3, false);
        assert_eq!(t.call(b"back").unwrap(), b"BACK");
        server.shutdown();
    }
}
