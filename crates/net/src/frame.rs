//! Socket framing: `[u32 LE length][version][type][from][to][payload]`.
//!
//! The payload of a [`FrameType::Msg`] frame is a `lhrs_core::wire`
//! encoding; [`FrameType::Registry`] carries a [`RegistryUpdate`]
//! allocation-table snapshot; [`FrameType::RegistryPull`] is an empty
//! control frame asking the authoritative host for the current table;
//! [`FrameType::Hello`] / [`FrameType::HelloReply`] open a connection and
//! tell the dialer which nodes it reaches.

use std::io::{self, Read, Write};

use lhrs_core::wire::{Reader, Wire, WireError};
use lhrs_sim::NodeId;

/// Frame layout version (independent of the message codec's
/// [`lhrs_core::wire::WIRE_VERSION`], which versions the payload).
pub const FRAME_VERSION: u8 = 1;

/// Hard cap on a frame's payload: even a full-bucket shard transfer stays
/// far below this; anything bigger is a corrupt length field.
pub const MAX_FRAME: u32 = 64 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// A protocol message (`lhrs_core::wire`-encoded [`lhrs_core::msg::Msg`]).
    Msg,
    /// An allocation-table snapshot ([`RegistryUpdate`]).
    Registry,
    /// A request for the current allocation table (empty payload).
    RegistryPull,
    /// The `STATS` command: ask the receiving process for a metrics
    /// snapshot (empty payload). Answered on the same connection with a
    /// [`FrameType::StatsReply`] — a plain request/response exchange, so
    /// operator tooling needs no listener of its own.
    StatsPull,
    /// A metrics snapshot in Prometheus text exposition format (UTF-8
    /// payload).
    StatsReply,
    /// The first frame a dialing transport writes (empty payload): asks
    /// the accepting process which nodes it hosts.
    Hello,
    /// The answer, on the same connection: the hosted node ids
    /// ([`hosted_payload`]). The dialer then sends every frame for any of
    /// those nodes over this one connection.
    HelloReply,
}

impl FrameType {
    fn to_byte(self) -> u8 {
        match self {
            FrameType::Msg => 0,
            FrameType::Registry => 1,
            FrameType::RegistryPull => 2,
            FrameType::StatsPull => 3,
            FrameType::StatsReply => 4,
            FrameType::Hello => 5,
            FrameType::HelloReply => 6,
        }
    }

    fn from_byte(b: u8) -> Option<FrameType> {
        match b {
            0 => Some(FrameType::Msg),
            1 => Some(FrameType::Registry),
            2 => Some(FrameType::RegistryPull),
            3 => Some(FrameType::StatsPull),
            4 => Some(FrameType::StatsReply),
            5 => Some(FrameType::Hello),
            6 => Some(FrameType::HelloReply),
            _ => None,
        }
    }
}

/// A decoded frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// What the payload is.
    pub ftype: FrameType,
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Serialize a frame into a write-ready byte string.
pub fn encode_frame(ftype: FrameType, from: NodeId, to: NodeId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len().saturating_add(14));
    encode_frame_into(&mut out, ftype, from, to, |out| {
        out.extend_from_slice(payload)
    });
    out
}

/// Append a frame to `out`, its payload written in place by `payload` —
/// how a transport encodes a message straight into a connection's write
/// buffer.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    ftype: FrameType,
    from: NodeId,
    to: NodeId,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]); // the length, known once the payload is written
    out.push(FRAME_VERSION);
    out.push(ftype.to_byte());
    out.extend_from_slice(&from.0.to_le_bytes());
    out.extend_from_slice(&to.0.to_le_bytes());
    payload(out);
    if let Some((len, body)) = out
        .get_mut(start..)
        .and_then(|frame| frame.split_first_chunk_mut::<4>())
    {
        // Saturate instead of truncating: an absurd payload produces a
        // frame the receiver's MAX_FRAME check rejects, never a desynced
        // stream.
        *len = u32::try_from(body.len()).unwrap_or(u32::MAX).to_le_bytes();
    }
}

/// The [`FrameType::HelloReply`] payload: the nodes a process hosts.
pub fn hosted_payload(nodes: &[NodeId]) -> Vec<u8> {
    let mut out = Vec::new();
    NodeId::put_list(nodes, &mut out);
    out
}

/// Decode a [`hosted_payload`]; rejects truncated or trailing-garbage
/// payloads.
pub fn decode_hosted(buf: &[u8]) -> Result<Vec<NodeId>, WireError> {
    Reader::new(buf).rest()
}

/// Read one frame off a stream. `Ok(None)` is a clean EOF (the peer closed
/// between frames); a mid-frame EOF or a malformed header is an error.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean close (0 bytes) from a torn frame.
    let mut got = 0;
    while let Some(rest) = len_buf.get_mut(got..) {
        if rest.is_empty() {
            break;
        }
        let n = stream.read(rest)?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_buf);
    if !(10..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    let len = usize::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds address space",
        )
    })?;
    let body = {
        let mut b = vec![0u8; len];
        stream.read_exact(&mut b)?;
        b
    };
    decode_frame_body(&body).map(Some)
}

/// Incremental frame decoder for nonblocking reads: feed whatever bytes
/// the socket had ([`FrameAccumulator::extend`]), pop complete frames
/// ([`FrameAccumulator::next_frame`]). Performs exactly the validation of
/// [`read_frame`], but never blocks — a partial frame simply stays
/// buffered until more bytes arrive.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by popped frames; compacted lazily
    /// so a burst of small frames does not memmove per frame.
    consumed: usize,
}

impl FrameAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        FrameAccumulator::default()
    }

    /// Buffer newly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a popped frame.
    pub fn pending(&self) -> usize {
        self.buf.len().saturating_sub(self.consumed)
    }

    /// Pop the next complete frame. `Ok(None)` means more bytes are
    /// needed; an error means the stream is corrupt (bad length, version,
    /// or type) and the connection must be dropped — the byte stream has
    /// no recoverable sync point.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let avail = self.buf.get(self.consumed..).unwrap_or(&[]);
        let Some(len_bytes) = avail.get(..4) else {
            return Ok(None);
        };
        let len_buf: [u8; 4] = len_bytes.try_into().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "frame length slice sized above")
        })?;
        let len = u32::from_le_bytes(len_buf);
        if !(10..=MAX_FRAME).contains(&len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} out of range"),
            ));
        }
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "frame length overflows usize")
        })?;
        let Some(body) = avail.get(4..4 + len) else {
            return Ok(None); // body not fully buffered yet
        };
        let frame = decode_frame_body(body)?;
        self.consumed += 4 + len;
        // Compact once the dead prefix dominates, amortising the memmove.
        if self.consumed > 4096 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(Some(frame))
    }
}

/// Decode a frame body (everything after the length word); shared by
/// [`read_frame`] and [`FrameAccumulator`].
fn decode_frame_body(body: &[u8]) -> io::Result<Frame> {
    let (hdr, payload) = body.split_at_checked(10).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "frame body shorter than its header",
        )
    })?;
    let hdr: [u8; 10] = hdr.try_into().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "frame body shorter than its header",
        )
    })?;
    let [version, tbyte, f0, f1, f2, f3, t0, t1, t2, t3] = hdr;
    if version != FRAME_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame version {version} (supported {FRAME_VERSION})"),
        ));
    }
    let ftype = FrameType::from_byte(tbyte)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("frame type {tbyte}")))?;
    let from = NodeId(u32::from_le_bytes([f0, f1, f2, f3]));
    let to = NodeId(u32::from_le_bytes([t0, t1, t2, t3]));
    Ok(Frame {
        ftype,
        from,
        to,
        payload: payload.to_vec(),
    })
}

/// Write a frame and leave it in the writer's buffer (callers flush in
/// batches).
pub fn write_frame(
    stream: &mut impl Write,
    ftype: FrameType,
    from: NodeId,
    to: NodeId,
    payload: &[u8],
) -> io::Result<()> {
    stream.write_all(&encode_frame(ftype, from, to, payload))
}

/// A versioned full snapshot of the allocation table, broadcast by the
/// process hosting the coordinator whenever the table changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryUpdate {
    /// Monotone snapshot version; receivers apply only strictly newer ones.
    pub version: u64,
    /// The coordinator node.
    pub coordinator: NodeId,
    /// Data bucket number → node, dense from bucket 0.
    pub data: Vec<NodeId>,
    /// Per bucket group: parity column index → node.
    pub parity: Vec<Vec<NodeId>>,
}

impl RegistryUpdate {
    /// Encode the snapshot (the [`FrameType::Registry`] payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * self.data.len());
        self.version.put(&mut out);
        self.coordinator.put(&mut out);
        self.data.put(&mut out);
        self.parity.put(&mut out);
        out
    }

    /// Decode a snapshot; rejects truncated or trailing-garbage payloads.
    pub fn decode(buf: &[u8]) -> Result<RegistryUpdate, WireError> {
        let mut r = Reader::new(buf);
        let update = RegistryUpdate {
            version: Wire::get(&mut r)?,
            coordinator: Wire::get(&mut r)?,
            data: Wire::get(&mut r)?,
            parity: Wire::get(&mut r)?,
        };
        r.finish()?;
        Ok(update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let buf = encode_frame(FrameType::Msg, NodeId(3), NodeId(9), b"payload");
        let mut cursor = io::Cursor::new(buf);
        let f = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(f.ftype, FrameType::Msg);
        assert_eq!(f.from, NodeId(3));
        assert_eq!(f.to, NodeId(9));
        assert_eq!(f.payload, b"payload");
        // Stream exhausted: clean EOF.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn torn_frame_is_an_error() {
        let buf = encode_frame(FrameType::Msg, NodeId(1), NodeId(2), b"abc");
        let mut cursor = io::Cursor::new(&buf[..buf.len() - 1]);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 32]);
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn accumulator_reassembles_byte_by_byte() {
        let f1 = encode_frame(FrameType::Msg, NodeId(1), NodeId(2), b"alpha");
        let f2 = encode_frame(FrameType::StatsReply, NodeId(2), NodeId(1), b"beta");
        let mut acc = FrameAccumulator::new();
        let mut popped = Vec::new();
        for chunk in f1.iter().chain(f2.iter()) {
            acc.extend(&[*chunk]);
            while let Some(f) = acc.next_frame().unwrap() {
                popped.push(f);
            }
        }
        assert_eq!(popped.len(), 2);
        assert_eq!(popped[0].payload, b"alpha");
        assert_eq!(popped[0].ftype, FrameType::Msg);
        assert_eq!(popped[1].payload, b"beta");
        assert_eq!(popped[1].ftype, FrameType::StatsReply);
        assert_eq!(acc.pending(), 0);
    }

    #[test]
    fn accumulator_pops_multiple_frames_from_one_chunk() {
        let mut bytes = Vec::new();
        for i in 0..5u32 {
            bytes.extend(encode_frame(
                FrameType::Msg,
                NodeId(i),
                NodeId(9),
                &i.to_le_bytes(),
            ));
        }
        let mut acc = FrameAccumulator::new();
        acc.extend(&bytes);
        for i in 0..5u32 {
            let f = acc.next_frame().unwrap().expect("frame buffered");
            assert_eq!(f.from, NodeId(i));
        }
        assert!(acc.next_frame().unwrap().is_none());
    }

    #[test]
    fn accumulator_rejects_garbage_header() {
        let mut acc = FrameAccumulator::new();
        // Length far above MAX_FRAME: corrupt stream, no resync possible.
        acc.extend(&u32::MAX.to_le_bytes());
        assert!(acc.next_frame().is_err());
        let mut acc = FrameAccumulator::new();
        let mut frame = encode_frame(FrameType::Msg, NodeId(1), NodeId(2), b"x");
        frame[4] = 99; // bad version byte
        acc.extend(&frame);
        assert!(acc.next_frame().is_err());
    }

    #[test]
    fn registry_update_roundtrip() {
        let up = RegistryUpdate {
            version: 17,
            coordinator: NodeId(0),
            data: vec![NodeId(2), NodeId(5), NodeId(7)],
            parity: vec![vec![NodeId(3)], vec![NodeId(9), NodeId(11)]],
        };
        assert_eq!(RegistryUpdate::decode(&up.encode()).unwrap(), up);
    }
}
