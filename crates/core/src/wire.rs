//! Binary wire codec for the LH\*RS protocol.
//!
//! Everything a [`Msg`] can carry is encoded into a self-contained byte
//! string so messages can cross real sockets (the `lhrs-net` crate) instead
//! of being moved in-memory by the simulator. The workspace is
//! registry-free, so the codec is hand-rolled and zero-dependency, and it
//! is type-driven: the [`Wire`] impl of each field type *is* the format,
//! and one table per enum/struct lists the variants with their tag and
//! their fields in wire order. The table expands to the [`tag`] constants,
//! the encode `match` (no wildcard — a variant without a row does not
//! compile), the decode `match`, [`TAGS`] and the `msgs_sent{kind}` label
//! `match` behind `Payload::kind`. To add a message: the variant in
//! `msg.rs`, one row here with its counter label, one pin in
//! `wire_tags.toml`.
//!
//! * **Versioned**: every encoding starts with [`WIRE_VERSION`]; a decoder
//!   refuses other versions with [`WireError::Version`].
//! * **Tagged**: each enum variant carries a one-byte tag (see [`tag`] for
//!   the `Msg` table, pinned in `wire_tags.toml`). Unknown tags are rejected
//!   with [`WireError::UnknownTag`] naming the enum that was being decoded.
//! * **Varint integers**: `u64`/`usize` quantities use LEB128 (7 bits per
//!   byte, little-endian groups), so small keys, ranks, and lengths cost one
//!   byte. Node ids are fixed 4-byte little-endian (they include the
//!   `u32::MAX` driver sentinel).
//! * **Defensive decode**: length fields are checked against both a hard
//!   cap ([`MAX_LEN`], rejecting absurd claims before any allocation) and
//!   the bytes actually remaining (rejecting truncated frames), and a
//!   successful decode must consume the buffer exactly ([`WireError::Trailing`]).
//!   No input can make the decoder panic or over-allocate.
//!
//! Encode→decode is the identity on every well-formed message; the
//! `wire_roundtrip` integration test fuzzes this across all variants, and
//! `wire_golden` pins the encoded bytes themselves.

use lhrs_sim::NodeId;

use crate::msg::{
    ClientOp, DeltaEntry, FilterSpec, Iam, KeyOp, Msg, OpResult, ReplayEntry, ReqKind, ShardContent,
};
use crate::record::Record;

/// Wire format version; bumped on any incompatible layout change (2: the
/// Δ messages carry the sender's durable watermark; 3: a request carries
/// its client's floor, and a split or merge load the sender's floors).
pub const WIRE_VERSION: u8 = 3;

/// Hard cap on any single length field (bytes or element count). Frames are
/// far smaller in practice; the cap only exists so a corrupt length cannot
/// trigger a giant allocation before the truncation check.
pub const MAX_LEN: u64 = 1 << 30;

/// Typed decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the encoding did.
    Truncated,
    /// The leading version byte is not [`WIRE_VERSION`].
    Version {
        /// The version byte found.
        got: u8,
    },
    /// An enum tag byte had no assigned meaning.
    UnknownTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length field exceeded [`MAX_LEN`].
    Oversized {
        /// The field being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// The encoding decoded cleanly but left unconsumed bytes.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A varint ran past 10 bytes (would overflow `u64`).
    VarintOverflow,
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Version { got } => {
                write!(f, "wire version {got} (supported: {WIRE_VERSION})")
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Oversized { what, len } => {
                write!(f, "oversized {what} length {len} (cap {MAX_LEN})")
            }
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            WireError::VarintOverflow => write!(f, "varint overflows u64"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for WireError {}

// ----- primitives -----
//
// Everything that can truncate, overflow or run out of bytes lives in these
// `fn`s, and the tables below only call them.

/// Append a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let [low, ..] = v.to_le_bytes();
        v >>= 7;
        if v == 0 {
            out.push(low & 0x7f);
            return;
        }
        out.push(low | 0x80);
    }
}

/// Append a varint-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// A bounds-checked cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let (b, rest) = self.buf.split_first().ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(*b)
    }

    /// Read a fixed 4-byte little-endian `u32`.
    pub fn u32le(&mut self) -> Result<u32, WireError> {
        let (word, rest) = self
            .buf
            .split_first_chunk::<4>()
            .ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(u32::from_le_bytes(*word))
    }

    /// Read a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64u32).step_by(7) {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7f);
            // The 10th byte may only contribute the final bit.
            if shift == 63 && low > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= low.wrapping_shl(shift);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Read a length field: a varint checked against [`MAX_LEN`] and the
    /// bytes remaining (every encoded element costs ≥ 1 byte, so a count
    /// beyond `remaining` is necessarily truncation).
    pub fn len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.varint()?;
        if n > MAX_LEN {
            return Err(WireError::Oversized { what, len: n });
        }
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(WireError::Truncated),
        }
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// Read a varint-length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = self.len(what)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Require full consumption (call after the top-level decode).
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing {
                extra: self.remaining(),
            });
        }
        Ok(())
    }

    /// Decode the buffer's one remaining value; trailing bytes are an error.
    #[inline]
    pub fn rest<T: Wire>(mut self) -> Result<T, WireError> {
        let v = T::get(&mut self)?;
        self.finish()?;
        Ok(v)
    }
}

// ----- the format, one impl per field type -----

/// A type with a wire encoding. The impl *is* the format: there is no
/// other description of how a `u64`, a list or a `Msg` looks in bytes.
pub trait Wire: Sized {
    /// Append the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value, consuming exactly its encoding.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Append a list: varint count, then the elements.
    fn put_list(items: &[Self], out: &mut Vec<u8>) {
        put_varint(out, items.len() as u64);
        for item in items {
            item.put(out);
        }
    }

    /// Decode a list; the count is bounded by [`Reader::len`] before the
    /// vector is allocated.
    fn get_list(r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        let n = r.len("list")?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

/// A raw byte. A list of them (payloads, cells) is one bulk copy.
impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
    fn put_list(items: &[u8], out: &mut Vec<u8>) {
        put_bytes(out, items);
    }
    fn get_list(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        r.bytes("bytes")
    }
}

/// LEB128: small keys, ranks and sequence numbers cost one byte.
impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
}

/// LEB128; a value that does not fit the receiver's `usize` is rejected.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.varint()?;
        usize::try_from(v).map_err(|_| WireError::Oversized {
            what: "usize",
            len: v,
        })
    }
}

/// One byte, 0 or 1 (any nonzero byte decodes as `true`).
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.u8()? != 0)
    }
}

/// Fixed 4-byte little-endian (ids include the `u32::MAX` driver sentinel).
impl Wire for NodeId {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.u32le()?))
    }
}

/// A length-prefixed UTF-8 byte string.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(r.bytes("string")?).map_err(|_| WireError::BadUtf8)
    }
}

/// A presence byte (0 or 1), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            tag => Err(WireError::UnknownTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        T::put_list(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::get_list(r)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

// ----- the tables -----

/// `wire_struct!(T { a, b })`: the fields of `T` in wire order. (The
/// generated impls are `#[inline]` so `decode_msg` builds a message in
/// place instead of moving a `Result<Msg>` out of every level.)
macro_rules! wire_struct {
    ($T:ident { $($f:ident),+ }) => {
        impl Wire for $T {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $( self.$f.put(out); )+
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($T { $( $f: Wire::get(r)? ),+ })
            }
        }
    };
}

/// `wire_enum!(E { tag => Variant { a, b }, tag => Variant(a), tag => Variant })`:
/// one row per variant — its tag byte, then its fields in wire order. The
/// row is used as the encode pattern and as the decode constructor, so a
/// field is named once. `wire_enum!(E in tags { NAME = tag label => … })`
/// also emits `pub mod tags` with one constant per row and `pub const TAGS`.
/// Rows that all carry a label after the tag emit `E::label`: the row's
/// `msgs_sent{kind}` counter label, a string, or `(field)` for the label of
/// that field (`Msg::Req` counts under its `ReqKind`).
///
/// A tuple-variant argument is a field binder or the folded option `None`
/// / `Some(binder)`: an `Option` whose presence is carried by the variant's
/// own tag instead of a presence byte (`OpResult::Value`). A struct-variant
/// field `f (below base)` is a `u64` no greater than the earlier field
/// `base`, sent as the gap `base − f` (`Msg::Req`'s floor: one byte while
/// the client's oldest open op is recent). A gap past `base` decodes as 0.
macro_rules! wire_enum {
    (@putf $out:ident; $f:ident) => {
        $crate::wire::Wire::put($f, $out)
    };
    (@putf $out:ident; $f:ident (below $base:ident)) => {
        $crate::wire::Wire::put(&u64::saturating_sub(*$base, *$f), $out)
    };
    (@getf $r:ident; $f:ident) => {
        let $f = $crate::wire::Wire::get($r)?;
    };
    (@getf $r:ident; $f:ident (below $base:ident)) => {
        let $f = u64::saturating_sub($base, $crate::wire::Wire::get($r)?);
    };
    (@put $out:ident; None) => {};
    (@put $out:ident; $b:ident) => {
        $crate::wire::Wire::put($b, $out)
    };
    (@put $out:ident; $some:ident($b:ident)) => {
        $crate::wire::Wire::put($b, $out)
    };
    (@get $r:ident; None) => {};
    (@get $r:ident; $b:ident) => {
        let $b = $crate::wire::Wire::get($r)?;
    };
    (@get $r:ident; $some:ident($b:ident)) => {
        let $b = $crate::wire::Wire::get($r)?;
    };
    (@label_pat $E:ident $V:ident ($f:ident)) => { $E::$V { $f, .. } };
    (@label_pat $E:ident $V:ident $label:literal) => { $E::$V { .. } };
    (@label ($f:ident)) => { $f.label() };
    (@label $label:literal) => { $label };
    (@labels $E:ident { $( $V:ident ),+ }) => {};
    (@labels $E:ident { $( $V:ident $label:tt ),+ }) => {
        impl $E {
            /// The `msgs_sent{kind}` counter label of this variant.
            pub(crate) fn label(&self) -> &'static str {
                match self { $(
                    $crate::wire::wire_enum!(@label_pat $E $V $label) => {
                        $crate::wire::wire_enum!(@label $label)
                    }
                )+ }
            }
        }
    };
    ($E:ident in $tags:ident { $(
        $name:ident = $n:literal $label:tt => $V:ident
            $( { $($f:ident $( (below $fb:ident) )?),+ } )?
            $( ( $($a:ident $( ($ai:ident) )?),+ ) )?
    ),+ $(,)? }) => {
        #[doc = concat!("The tag byte of every [`", stringify!($E), "`] variant. Stable for a given")]
        /// [`WIRE_VERSION`]: new variants append, retired tags are never reused
        /// (`wire_tags.toml` pins the table; `tests/wire_manifest.rs` enforces it).
        pub mod $tags {
            $(
                #[doc = concat!("`", stringify!($E), "::", stringify!($V), "`")]
                pub const $name: u8 = $n;
            )+
        }

        #[doc = concat!("Every [`", stringify!($E), "`] tag as `(name, value)`, in table order.")]
        pub const TAGS: &[(&str, u8)] = &[ $( (stringify!($name), $n) ),+ ];

        $crate::wire::wire_enum!(@labels $E { $( $V $label ),+ });
        $crate::wire::wire_enum!($E { $(
            $n => $V $( { $($f $( (below $fb) )?),+ } )? $( ( $($a $( ($ai) )?),+ ) )?
        ),+ });
    };
    ($E:ident { $(
        $n:literal $( $label:literal )? => $V:ident
            $( { $($f:ident $( (below $fb:ident) )?),+ } )?
            $( ( $($a:ident $( ($ai:ident) )?),+ ) )?
    ),+ $(,)? }) => {
        $crate::wire::wire_enum!(@labels $E { $( $V $( $label )? ),+ });
        impl $crate::wire::Wire for $E {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self { $(
                    $E::$V $( { $($f),+ } )? $( ( $($a $( ($ai) )?),+ ) )? => {
                        out.push($n);
                        $( $( $crate::wire::wire_enum!(@putf out; $f $( (below $fb) )?); )+ )?
                        $( $( $crate::wire::wire_enum!(@put out; $a $( ($ai) )?); )+ )?
                    }
                )+ }
            }
            #[inline]
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                match r.u8()? {
                    $( $n => {
                        $( $( $crate::wire::wire_enum!(@getf r; $f $( (below $fb) )?); )+ )?
                        $( $( $crate::wire::wire_enum!(@get r; $a $( ($ai) )?); )+ )?
                        Ok($E::$V $( { $($f),+ } )? $( ( $($a $( ($ai) )?),+ ) )?)
                    } )+
                    tag => Err($crate::wire::WireError::UnknownTag {
                        what: stringify!($E),
                        tag,
                    }),
                }
            }
        }
    };
}

pub(crate) use wire_enum;

wire_struct!(Record { key, payload });
wire_struct!(Iam { level, bucket });
wire_struct!(DeltaEntry {
    seq,
    rank,
    col,
    key_op,
    delta_cell
});
wire_struct!(ReplayEntry {
    client,
    op_id,
    key,
    result
});

wire_enum!(FilterSpec {
    0 => All,
    1 => PayloadContains(needle),
    2 => KeyRange(lo, hi),
});

wire_enum!(ClientOp {
    0 => Insert { key, payload },
    1 => Lookup { key },
    2 => Update { key, payload },
    3 => Delete { key },
    4 => Scan { filter },
});

wire_enum!(ReqKind {
    0 "insert" => Insert(key, payload),
    1 "lookup" => Lookup(key),
    2 "update" => Update(key, payload),
    3 "delete" => Delete(key),
});

wire_enum!(OpResult {
    0 => Inserted,
    1 => DuplicateKey,
    2 => Updated,
    3 => Deleted,
    4 => Value(None),
    5 => Value(Some(payload)),
    6 => NotFound,
    7 => ScanHits(hits),
    8 => Failed(text),
});

wire_enum!(KeyOp {
    0 => Add(key),
    1 => Remove(key),
    2 => Keep,
});

wire_enum!(ShardContent {
    0 => Data { level, next_rank, delta_seq, records },
    1 => Parity { records, col_seqs },
});

wire_enum!(Msg in tag {
    DO = 1 "app-do" => Do { op_id, op },
    REQ = 2 (kind) => Req { op_id, floor (below op_id), client, intended, hops, kind },
    REPLY = 3 "reply" => Reply { op_id, result, iam },
    SCAN = 4 "scan" => Scan { op_id, client, filter, assumed_level, reply_if_empty },
    SCAN_REPLY = 5 "scan-reply" => ScanReply { op_id, bucket, level, hits },
    PARITY_DELTA = 6 "parity-delta" => ParityDelta { group, entry, durable, ack_to },
    PARITY_BATCH = 7 "parity-batch" => ParityBatch { group, entries, durable, ack_to },
    PARITY_ACK = 8 "parity-ack" => ParityAck { col, upto },
    REPORT_OVERFLOW = 9 "overflow" => ReportOverflow { bucket, size },
    INIT_DATA = 10 "init-data" => InitData { bucket, level, delta_seq },
    INIT_PARITY = 11 "init-parity" => InitParity { group, index, k },
    DO_SPLIT = 12 "split" => DoSplit { source, target, new_level },
    SPLIT_LOAD = 13 "split-load" => SplitLoad { bucket, level, records, replay, floors },
    SUSPECT = 14 "suspect" => Suspect { op_id, client, bucket, kind },
    PROBE = 15 "probe" => Probe { token },
    PROBE_ACK = 16 "probe-ack" => ProbeAck { token, bucket },
    TRANSFER_SHARD = 17 "transfer-req" => TransferShard { token },
    SHARD_DATA = 18 "transfer-data" => ShardData { token, shard, content },
    INSTALL = 19 "install" => Install { group, bucket, index, k, content, token },
    INSTALL_ACK = 20 "install-ack" => InstallAck { token },
    FIND_RECORD = 21 "find-record" => FindRecord { key, token },
    FIND_RECORD_REPLY = 22 "find-record-reply" => FindRecordReply { token, found },
    READ_CELL = 23 "read-cell" => ReadCell { rank, token },
    CELL_DATA = 24 "cell-data" => CellData { token, shard, cell },
    SPLIT_DONE = 25 "split-done" => SplitDone { bucket },
    FORCE_MERGE = 26 "force-merge" => ForceMerge,
    DO_MERGE = 27 "merge" => DoMerge { source, target, new_level },
    MERGE_LOAD = 28 "merge-load" => MergeLoad { level, records, replay, floors, final_seq },
    MERGE_DONE = 29 "merge-done" => MergeDone { bucket, final_seq },
    RETIRE = 30 "retire" => Retire,
    SELF_REPORT = 31 "self-report" => SelfReport,
    CHECK_OWNERSHIP = 32 "check-ownership" => CheckOwnership { bucket, parity },
    OWNERSHIP_ACK = 33 "ownership-ack" => OwnershipAck,
    CHECK_GROUP = 34 "check-group" => CheckGroup { group },
    RECOVER_FILE_STATE = 35 "recover-file-state" => RecoverFileState,
    STATE_QUERY = 36 "state-query" => StateQuery,
    STATE_REPLY = 37 "state-reply" => StateReply { bucket, level },
    RESTART_REPORT = 38 "restart-report" => RestartReport { bucket, delta_seq },
    SUFFIX_PULL = 39 "suffix-pull" => SuffixPull { group, col, from_seq, target },
    DELTA_SUFFIX = 40 "delta-suffix" => DeltaSuffix { col, from_seq, entries, complete },
    SUFFIX_INFO = 41 "suffix-info" => SuffixInfo { bucket, col, next_seq, covered, count, bytes },
    RESTART_ABORT = 42 "restart-abort" => RestartAbort { bucket },
    RESUME_WRITES = 43 "resume-writes" => ResumeWrites { group },
});

// ----- top-level message codec -----

/// Encode a message (starts with [`WIRE_VERSION`]).
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_msg_into(msg, &mut out);
    out
}

/// Append the [`encode_msg`] bytes of `msg` to `out` — for a caller that
/// already holds the buffer the bytes are bound for.
pub fn encode_msg_into(msg: &Msg, out: &mut Vec<u8>) {
    out.push(WIRE_VERSION);
    msg.put(out);
}

/// Decode a message produced by [`encode_msg`]. The whole buffer must be
/// consumed.
pub fn decode_msg(buf: &[u8]) -> Result<Msg, WireError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::Version { got: version });
    }
    r.rest()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        assert_eq!(
            Reader::new(&buf).varint().unwrap_err(),
            WireError::VarintOverflow
        );
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut buf = encode_msg(&Msg::StateQuery);
        buf[0] = 99;
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::Version { got: 99 }
        );
    }

    #[test]
    fn unknown_msg_tag_rejected() {
        let buf = [WIRE_VERSION, 200];
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::UnknownTag {
                what: "Msg",
                tag: 200
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode_msg(&Msg::StateQuery);
        buf.push(0);
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::Trailing { extra: 1 }
        );
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // CellData with a cell length claim beyond MAX_LEN.
        let mut buf = vec![WIRE_VERSION, tag::CELL_DATA];
        put_varint(&mut buf, 7); // token
        put_varint(&mut buf, 0); // shard
        put_varint(&mut buf, MAX_LEN + 1); // absurd cell length
        assert_eq!(
            decode_msg(&buf).unwrap_err(),
            WireError::Oversized {
                what: "bytes",
                len: MAX_LEN + 1
            }
        );
    }

    #[test]
    fn length_beyond_remaining_is_truncation() {
        let mut buf = vec![WIRE_VERSION, tag::CELL_DATA];
        put_varint(&mut buf, 7);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 1000); // claims 1000 bytes, none follow
        assert_eq!(decode_msg(&buf).unwrap_err(), WireError::Truncated);
    }

    /// Adversarial frame: a nested list-of-lists where the *outer* count is
    /// plausible but an *inner* length claims more than the frame holds.
    /// The decoder must reject before allocating, not over-allocate or
    /// panic.
    #[test]
    fn nested_inner_length_is_bounded_by_remaining_bytes() {
        // FindRecordReply: token, presence byte, rank, then a key list whose
        // claimed count dwarfs the actual frame.
        let mut buf = vec![WIRE_VERSION, tag::FIND_RECORD_REPLY];
        put_varint(&mut buf, 9); // token
        buf.push(1); // found = Some
        put_varint(&mut buf, 1); // rank
        put_varint(&mut buf, 1 << 20); // key count: under MAX_LEN, over frame
        assert_eq!(decode_msg(&buf).unwrap_err(), WireError::Truncated);
    }

    /// A huge claimed element count with a tiny frame must fail the
    /// remaining-bytes bound even when it is under MAX_LEN.
    #[test]
    fn batch_count_under_cap_but_over_frame_is_truncation() {
        let mut buf = vec![WIRE_VERSION, tag::PARITY_BATCH];
        put_varint(&mut buf, 3); // group
        put_varint(&mut buf, MAX_LEN); // exactly the cap, frame is ~4 bytes
        assert_eq!(decode_msg(&buf).unwrap_err(), WireError::Truncated);
    }

    /// Truncating a well-formed encoding at every prefix must yield a typed
    /// error — never a panic and never a bogus success.
    #[test]
    fn every_prefix_of_a_real_message_fails_cleanly() {
        let buf = encode_msg(&Msg::FindRecordReply {
            token: 3,
            found: Some((4, vec![Some(7), None, Some(11)])),
        });
        for cut in 0..buf.len() {
            assert!(
                decode_msg(&buf[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
        assert!(decode_msg(&buf).is_ok());
    }

    /// A request's floor goes on the wire as its gap below the op id, one
    /// byte while the gap is under 128; a gap past the op id, which no
    /// sender writes, decodes as floor 0 ("no information").
    #[test]
    fn a_floor_travels_as_its_gap_below_the_op_id() {
        let req = |op_id, floor| Msg::Req {
            op_id,
            floor,
            client: NodeId(1),
            intended: 0,
            hops: 0,
            kind: ReqKind::Lookup(7),
        };
        let op_id = 1 << 40;
        let near = encode_msg(&req(op_id, op_id - 5));
        assert_eq!(near.len(), encode_msg(&req(op_id, op_id)).len());
        let mut head = vec![WIRE_VERSION, tag::REQ];
        put_varint(&mut head, op_id);
        head.push(5);
        assert!(near.starts_with(&head), "{near:?}");
        assert_eq!(decode_msg(&near).unwrap(), req(op_id, op_id - 5));

        let mut past = vec![WIRE_VERSION, tag::REQ];
        put_varint(&mut past, 3); // op id
        put_varint(&mut past, 9); // gap > op id
        past.extend_from_slice(&1u32.to_le_bytes()); // client
        past.extend_from_slice(&[0, 0, 1, 7]); // intended, hops, Lookup(7)
        assert_eq!(decode_msg(&past).unwrap(), req(3, 0));
    }

    #[test]
    fn restart_suffix_messages_roundtrip() {
        let entry = DeltaEntry {
            seq: 9,
            rank: 4,
            col: 2,
            key_op: KeyOp::Keep,
            delta_cell: vec![1, 2, 3],
        };
        let msgs = [
            Msg::RestartReport {
                bucket: 6,
                delta_seq: 41,
            },
            Msg::SuffixPull {
                group: 1,
                col: 2,
                from_seq: 41,
                target: lhrs_sim::NodeId(9),
            },
            Msg::DeltaSuffix {
                col: 2,
                from_seq: 41,
                entries: vec![entry.clone(), entry],
                complete: true,
            },
            Msg::DeltaSuffix {
                col: 0,
                from_seq: 0,
                entries: Vec::new(),
                complete: false,
            },
            Msg::SuffixInfo {
                bucket: 6,
                col: 2,
                next_seq: 43,
                covered: true,
                count: 2,
                bytes: 6,
            },
            Msg::RestartAbort { bucket: 6 },
            Msg::ResumeWrites { group: 3 },
        ];
        for m in &msgs {
            let buf = encode_msg(m);
            assert_eq!(&decode_msg(&buf).unwrap(), m, "{m:?}");
        }
    }
}
