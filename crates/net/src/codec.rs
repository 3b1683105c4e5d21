//! Incremental wire-format parsing and blocking frame I/O.
//!
//! Two message shapes, one codec:
//!
//! * **gRPC-like** — `u32 LE length ++ payload`, the frame used by the
//!   TF-Serving / TorchServe analogs and the broker RPC service;
//! * **HTTP-like** — HTTP/1.1 with a `Content-Length` body (Ray Serve
//!   analog).
//!
//! The `poll_parse*` functions are the reactor's hot path: they carve one
//! complete message out of a connection's buffered bytes without consuming
//! input or allocating (covered by the `HOT_PATH_ALLOC` lint), and report
//! `Incomplete` until a full message is buffered — any split boundary,
//! byte-at-a-time included, resumes cleanly. The blocking
//! [`write_frame`]/[`read_frame`] pair is the client-side counterpart over
//! an ordinary socket.

use std::io::{Read, Write};

use crate::{NetError, Result};

/// Maximum accepted frame/body size (mirrors the paper's 50 MB Kafka cap).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// One step of wire parsing over `buf` (the unparsed tail of a
/// connection's input buffer). Indices are relative to `buf`.
#[derive(Debug)]
pub enum ParseStep {
    /// A complete message: payload at `[start..end)`, `consumed` bytes
    /// total (framing included).
    Msg {
        /// Payload start, relative to the parsed buffer.
        start: usize,
        /// Payload end (exclusive).
        end: usize,
        /// Total bytes consumed, framing included.
        consumed: usize,
    },
    /// Need more bytes.
    Incomplete,
    /// Unrecoverable framing violation; kill the connection.
    Bad,
}

/// Try to carve one complete message of `wire` shape out of `buf`.
pub fn poll_parse(wire: crate::reactor::Wire, buf: &[u8]) -> ParseStep {
    match wire {
        crate::reactor::Wire::Grpc => poll_parse_grpc(buf),
        crate::reactor::Wire::Http => poll_parse_http(buf),
    }
}

/// Length-prefixed frame: `u32 LE length ++ payload`.
pub fn poll_parse_grpc(buf: &[u8]) -> ParseStep {
    let Some(len_bytes) = buf.first_chunk::<4>() else {
        return ParseStep::Incomplete;
    };
    let len = u32::from_le_bytes(*len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return ParseStep::Bad;
    }
    if buf.len() < 4 + len {
        return ParseStep::Incomplete;
    }
    ParseStep::Msg {
        start: 4,
        end: 4 + len,
        consumed: 4 + len,
    }
}

/// HTTP/1.1 message with a `Content-Length` body. The payload handed to
/// dispatch is the body; the request line and headers are framing (every
/// request hits the one `/infer` route).
pub fn poll_parse_http(buf: &[u8]) -> ParseStep {
    let Some(head_end) = find_double_crlf(buf) else {
        return ParseStep::Incomplete;
    };
    let Some(len) = http_content_length(&buf[..head_end]) else {
        return ParseStep::Bad;
    };
    if len > MAX_FRAME_BYTES {
        return ParseStep::Bad;
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + len {
        return ParseStep::Incomplete;
    }
    ParseStep::Msg {
        start: body_start,
        end: body_start + len,
        consumed: body_start + len,
    }
}

/// Offset of the first `\r\n\r\n` in `buf`, if any.
pub fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse the `Content-Length` header out of a raw header block without
/// allocating.
pub fn http_content_length(head: &[u8]) -> Option<usize> {
    const KEY: &[u8] = b"content-length:";
    for line in head.split(|&b| b == b'\n') {
        if line.len() < KEY.len() {
            continue;
        }
        if !line[..KEY.len()].eq_ignore_ascii_case(KEY) {
            continue;
        }
        let mut value: usize = 0;
        let mut seen = false;
        for &b in &line[KEY.len()..] {
            match b {
                b' ' | b'\t' if !seen => {}
                b'\r' => break,
                b'0'..=b'9' => {
                    seen = true;
                    value = value.checked_mul(10)?.checked_add((b - b'0') as usize)?;
                }
                _ => return None,
            }
        }
        return seen.then_some(value);
    }
    None
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!(
            "frame of {} bytes exceeds cap",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Build one length-prefixed frame as a byte vector — what [`write_frame`]
/// puts on the wire, for transports (the reactor) that queue response
/// bytes instead of writing them inline.
pub fn frame_bytes(payload: &[u8]) -> Result<Vec<u8>> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!(
            "frame of {} bytes exceeds cap",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Size of the length prefix of a frame.
pub const FRAME_PREFIX: usize = 4;

/// Frame a payload where it was written: `frame` holds [`FRAME_PREFIX`]
/// reserved bytes followed by the payload, and becomes what
/// [`frame_bytes`] would build from that payload, without the copy.
pub fn frame_in_place(frame: &mut [u8]) -> Result<()> {
    let Some((prefix, payload)) = frame.split_first_chunk_mut::<FRAME_PREFIX>() else {
        return Err(NetError::Frame("frame lacks its length prefix".into()));
    };
    if payload.len() > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!(
            "frame of {} bytes exceeds cap",
            payload.len()
        )));
    }
    *prefix = (payload.len() as u32).to_le_bytes();
    Ok(())
}

/// Read one length-prefixed frame. Returns `None` on clean EOF at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Frame(format!("frame of {len} bytes exceeds cap")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_bytes_matches_write_frame() {
        let mut written = Vec::new();
        write_frame(&mut written, b"payload").unwrap();
        assert_eq!(frame_bytes(b"payload").unwrap(), written);
        assert!(frame_bytes(&vec![0u8; MAX_FRAME_BYTES + 1]).is_err());
    }

    #[test]
    fn frame_in_place_matches_frame_bytes() {
        let mut framed = vec![0u8; FRAME_PREFIX];
        framed.extend_from_slice(b"payload");
        frame_in_place(&mut framed).unwrap();
        assert_eq!(framed, frame_bytes(b"payload").unwrap());
        assert!(frame_in_place(&mut [0u8; 3]).is_err());
        assert!(frame_in_place(&mut vec![0u8; FRAME_PREFIX + MAX_FRAME_BYTES + 1]).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
        assert!(matches!(
            poll_parse_grpc(&(u32::MAX).to_le_bytes()),
            ParseStep::Bad
        ));
    }

    #[test]
    fn content_length_is_parsed_case_insensitively() {
        assert_eq!(
            http_content_length(b"POST / HTTP/1.1\r\ncOnTeNt-LeNgTh:  42\r"),
            Some(42)
        );
        assert_eq!(http_content_length(b"POST / HTTP/1.1\r\nHost: x\r"), None);
        assert_eq!(http_content_length(b"content-length: 1x\r"), None);
    }
}
