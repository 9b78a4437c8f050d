//! The wire format spoken between nodes.
//!
//! Frames carry the three protocol layers: Cyclon shuffles, Vicinity
//! exchanges and dissemination pushes. Frames are serialized as JSON and,
//! when travelling over a byte stream (TCP), length-prefixed with a 32-bit
//! big-endian length so they can be reassembled from arbitrary read chunks.

use serde::{Deserialize, Serialize};

use hybridcast_core::message::Message;
use hybridcast_graph::NodeId;
use hybridcast_membership::descriptor::Descriptor;
use hybridcast_membership::proximity::RingPosition;

/// A descriptor as it travels on the wire: the peer's id, age and ring
/// position.
pub type WireDescriptor = Descriptor<RingPosition>;

/// A protocol frame exchanged between two nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Cyclon shuffle request: the initiator offers `payload` descriptors.
    CyclonRequest {
        /// The initiating node.
        from: NodeId,
        /// Descriptors offered by the initiator (including itself, age 0).
        payload: Vec<WireDescriptor>,
    },
    /// Cyclon shuffle reply.
    CyclonResponse {
        /// The replying node.
        from: NodeId,
        /// Descriptors returned by the responder.
        payload: Vec<WireDescriptor>,
    },
    /// Vicinity exchange request.
    VicinityRequest {
        /// The initiating node.
        from: NodeId,
        /// The initiator's ring position (lets the responder rank its reply).
        from_position: RingPosition,
        /// Descriptors offered by the initiator.
        payload: Vec<WireDescriptor>,
    },
    /// Vicinity exchange reply.
    VicinityResponse {
        /// The replying node.
        from: NodeId,
        /// Descriptors returned by the responder.
        payload: Vec<WireDescriptor>,
    },
    /// A disseminated message pushed from `from`.
    Dissemination {
        /// The forwarding node (not necessarily the origin).
        from: NodeId,
        /// The message itself.
        message: Message,
    },
    /// Orderly termination of the receiving node's event loop.
    Shutdown,
}

impl Frame {
    /// The sender of the frame, when it carries one.
    pub fn sender(&self) -> Option<NodeId> {
        match self {
            Frame::CyclonRequest { from, .. }
            | Frame::CyclonResponse { from, .. }
            | Frame::VicinityRequest { from, .. }
            | Frame::VicinityResponse { from, .. }
            | Frame::Dissemination { from, .. } => Some(*from),
            Frame::Shutdown => None,
        }
    }
}

/// The largest frame body, in bytes, that [`encode_frame`] writes and
/// [`decode_frame`] accepts. The biggest frame the protocols emit — a
/// Cyclon shuffle of a few dozen descriptors — is under a kilobyte, so 1 MiB
/// is three orders of magnitude of headroom; what the cap buys is that a
/// peer announcing a 4 GB body is refused after four bytes instead of
/// being buffered.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Why the bytes at the front of a receive buffer are not a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix announces a body larger than [`MAX_FRAME_LEN`].
    /// Nothing was consumed; the stream cannot be re-synchronised, so the
    /// caller must drop the connection.
    TooLarge {
        /// The announced body length.
        len: usize,
    },
    /// The body (consumed from the buffer) is not valid JSON for a
    /// [`Frame`].
    Malformed(serde_json::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len } => write!(
                f,
                "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
            ),
            FrameError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes a frame into `buf` as a 4-byte big-endian length followed by the
/// JSON body.
///
/// # Panics
///
/// Panics if the frame fails to serialize (only possible with non-string map
/// keys, which the frame types never contain) or its body exceeds
/// [`MAX_FRAME_LEN`] (no receiver would accept it).
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) {
    let body = serde_json::to_vec(frame).expect("frame serialization cannot fail");
    assert!(
        body.len() <= MAX_FRAME_LEN,
        "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
        body.len()
    );
    let len = u32::try_from(body.len()).expect("MAX_FRAME_LEN fits in u32");
    buf.reserve(4 + body.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&body);
}

/// Attempts to decode one length-prefixed frame from the front of `buf`.
///
/// Returns `Ok(None)`, leaving `buf` untouched, when it does not yet hold a
/// complete frame (more bytes must be read from the stream first). `buf`
/// never grows here, and a well-formed prefix never asks the caller to
/// buffer more than `4 + MAX_FRAME_LEN` bytes.
///
/// # Errors
///
/// [`FrameError::TooLarge`] as soon as the four prefix bytes announce a body
/// over [`MAX_FRAME_LEN`] — before any of the body arrives;
/// [`FrameError::Malformed`] if a complete body is not valid JSON for a
/// [`Frame`].
pub fn decode_frame(buf: &mut Vec<u8>) -> Result<Option<Frame>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let announced = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    // A length that does not even fit in `usize` is certainly too large.
    let len = usize::try_from(announced).unwrap_or(usize::MAX);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { len });
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let parsed = serde_json::from_slice(&buf[4..4 + len]);
    buf.drain(..4 + len);
    parsed.map(Some).map_err(FrameError::Malformed)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::CyclonRequest {
                from: n(1),
                payload: vec![Descriptor::new(n(1), 42)],
            },
            Frame::CyclonResponse {
                from: n(2),
                payload: vec![Descriptor::with_age(n(3), 7, 99)],
            },
            Frame::VicinityRequest {
                from: n(1),
                from_position: 1234,
                payload: vec![],
            },
            Frame::VicinityResponse {
                from: n(2),
                payload: vec![Descriptor::new(n(5), 500)],
            },
            Frame::Dissemination {
                from: n(4),
                message: Message::marker(n(4), 9),
            },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn sender_extraction() {
        assert_eq!(sample_frames()[0].sender(), Some(n(1)));
        assert_eq!(Frame::Shutdown.sender(), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let decoded = decode_frame(&mut buf).unwrap().unwrap();
            assert_eq!(decoded, frame);
            assert!(buf.is_empty(), "frame consumed entirely");
        }
    }

    #[test]
    fn decode_handles_partial_and_back_to_back_frames() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut stream);
        }

        // Feed the stream a few bytes at a time, as a TCP read would.
        let mut rx_buf = Vec::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(7) {
            rx_buf.extend_from_slice(chunk);
            while let Some(frame) = decode_frame(&mut rx_buf).unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn decode_incomplete_returns_none() {
        let mut whole = Vec::new();
        encode_frame(&sample_frames()[0], &mut whole);
        // Every strict prefix: none, part of the header, header only, part
        // of the body.
        for cut in 0..whole.len() {
            let mut partial = whole[..cut].to_vec();
            assert!(decode_frame(&mut partial).unwrap().is_none(), "cut {cut}");
            assert_eq!(&partial[..], &whole[..cut], "cut {cut}: buffer untouched");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"???");
        assert!(matches!(
            decode_frame(&mut buf),
            Err(FrameError::Malformed(_))
        ));
        assert!(buf.is_empty(), "the bad body was consumed");
    }

    #[test]
    fn decode_refuses_an_oversized_prefix_before_any_body_arrives() {
        for announced in [MAX_FRAME_LEN + 1, 1 << 24, u32::MAX as usize] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&(announced as u32).to_be_bytes());
            let err = decode_frame(&mut buf).unwrap_err();
            assert!(
                matches!(err, FrameError::TooLarge { len } if len == announced),
                "{err}"
            );
            assert!(err.to_string().contains("exceeds"), "{err}");
            assert_eq!(buf.len(), 4, "nothing consumed, nothing awaited");
        }
        // The limit itself is still a frame worth waiting for.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32).to_be_bytes());
        assert!(decode_frame(&mut buf).unwrap().is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn encode_refuses_a_frame_no_receiver_would_accept() {
        let frame = Frame::Dissemination {
            from: n(1),
            message: Message::new(
                hybridcast_core::message::MessageId::new(n(1), 1),
                vec![b'x'; MAX_FRAME_LEN],
            ),
        };
        encode_frame(&frame, &mut Vec::new());
    }

    proptest! {
        /// Whatever bytes a peer sends, draining frames from them never
        /// panics, never grows the buffer, and stops: at `Ok(None)` with
        /// the unread tail kept, or at the first error.
        #[test]
        fn decode_survives_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..200),
            valid_first in any::<bool>(),
            tiny_prefix in any::<bool>(),
        ) {
            let mut buf = Vec::new();
            if valid_first {
                encode_frame(&sample_frames()[1], &mut buf);
            }
            if tiny_prefix {
                // Steer some cases past the length check into the JSON
                // parser: a prefix that the random tail can satisfy.
                buf.extend_from_slice(&((bytes.len() / 2) as u32).to_be_bytes());
            }
            buf.extend_from_slice(&bytes);
            let mut decoded = 0usize;
            loop {
                let before = buf.len();
                let outcome = decode_frame(&mut buf);
                prop_assert!(buf.len() <= before, "decode grew the buffer");
                match outcome {
                    Ok(Some(_)) => {
                        prop_assert!(buf.len() + 4 <= before, "a frame consumes its prefix");
                        decoded += 1;
                    }
                    Ok(None) => {
                        prop_assert_eq!(buf.len(), before, "an incomplete frame is left alone");
                        break;
                    }
                    Err(FrameError::TooLarge { len }) => {
                        prop_assert!(len > MAX_FRAME_LEN);
                        prop_assert_eq!(buf.len(), before);
                        break;
                    }
                    Err(FrameError::Malformed(_)) => break,
                }
            }
            if valid_first {
                prop_assert!(decoded >= 1, "the leading valid frame always decodes");
            }
        }
    }
}
