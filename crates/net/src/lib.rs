//! # crayfish-net
//!
//! The shared transport layer of the Crayfish reproduction: everything that
//! moves request/response bytes between processes lives here, extracted
//! from `crayfish-serving` so the broker's RPC service and the serving
//! tier run on one reactor and one framing codec.
//!
//! * [`codec`] — incremental length-prefixed (gRPC-like) and
//!   `Content-Length` (HTTP-like) frame parsing, plus the blocking
//!   `write_frame`/`read_frame` helpers clients use. One codec, used by the
//!   serving servers, the broker RPC service, and every client of either.
//! * [`reactor`] — the readiness-driven connection reactor: one poll thread
//!   multiplexes every connection of a server, carves complete messages out
//!   of per-connection buffers, and writes responses strictly in
//!   per-connection request order.
//! * [`server`] — listener lifecycle: [`ServerHandle`], the blocking
//!   thread-per-connection accept loop, and the handle assembly the
//!   reactor uses.
//! * [`transport`] — the pluggable request/response seam: a [`Transport`]
//!   trait with an in-process implementation (direct dispatch, preserving
//!   single-process semantics and test determinism exactly) and a TCP
//!   implementation (real sockets, reconnect-on-failure, chaos fault
//!   windows applied at the seam).
//! * [`waker`] — the loom-modelable event-count the reactor parks on
//!   instead of raw `thread::park`, so the injector/wakeup handshake can
//!   be checked for lost wakeups under loom.

#![forbid(unsafe_code)]

pub mod codec;
pub mod reactor;
pub mod server;
pub mod transport;
pub mod waker;

pub use codec::{
    frame_bytes, frame_in_place, read_frame, write_frame, FRAME_PREFIX, MAX_FRAME_BYTES,
};
pub use reactor::{spawn_reactor_on, Responder, Wire};
pub use server::{assemble_handle, spawn_listener_on, ServerHandle};
pub use transport::{
    spawn_rpc_server, InProcTransport, OversizeReply, RpcHandler, TcpTransport, Transport,
};
pub use waker::Waker;

use std::fmt;

/// Transport-layer errors.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed or oversized frame.
    Frame(String),
    /// The peer (or the local endpoint) has shut down.
    Closed,
}

impl NetError {
    /// Whether retrying (usually after a reconnect) can plausibly succeed.
    /// Socket failures and closed peers are transient at this layer — the
    /// caller decides whether its own protocol tolerates a retry. Framing
    /// violations are terminal.
    pub fn is_transient(&self) -> bool {
        matches!(self, NetError::Io(_) | NetError::Closed)
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Frame(msg) => write!(f, "framing error: {msg}"),
            NetError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_splits_io_from_framing() {
        assert!(NetError::Closed.is_transient());
        assert!(NetError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "reset"
        ))
        .is_transient());
        assert!(!NetError::Frame("oversized".into()).is_transient());
    }
}
