//! lhrs-wal: the file-backed [`BucketStore`] for durable LH\*RS buckets.
//!
//! Layout of one store directory (one per data bucket; parity columns keep
//! no store — a lost one is re-encoded from its group):
//!
//! ```text
//! <dir>/SNAPSHOT        magic "LHS1" + one CRC frame (latest bucket state)
//! <dir>/wal-<seq>.log   magic "LHW1" + CRC frames (ops since the snapshot)
//! ```
//!
//! Every record is framed as `[LEB128 length][CRC-32 LE][payload]`, the
//! CRC covering the payload only. The CRC is the IEEE 802.3 one, computed
//! slicing-by-8 over compile-time tables: every logged byte passes through
//! it on the host thread. Appends go to the highest-numbered
//! segment; segments rotate at a size cap so truncation after a snapshot
//! is a directory scan + unlink, never an in-place rewrite. Snapshots are
//! atomic: write `SNAPSHOT.tmp`, fsync, rename, fsync the directory —
//! a crash leaves either the old snapshot or the new one, never a hybrid.
//!
//! Replay is defensive, per the crash model of the paper's high-availability
//! claim: a torn final record (power loss mid-append) is treated as clean
//! EOF, a CRC mismatch truncates to the clean prefix and is surfaced as
//! [`TailState::Corrupt`], and no input — hostile or otherwise — panics.
//! What the local log cannot provide, the Δ-suffix handshake with the
//! parity group reconciles (see `lhrs-core::storage`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic audit: no aborts outside tests (DESIGN §8.2).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
    )
)]

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use lhrs_core::storage::{BucketStore, Replay, StoreError, StoreFactory, StoreId, TailState};
use lhrs_core::FsyncPolicy;

/// Magic prefix of a snapshot file.
const SNAP_MAGIC: &[u8; 4] = b"LHS1";
/// Magic prefix of a log segment.
const SEG_MAGIC: &[u8; 4] = b"LHW1";
/// Default segment-rotation threshold.
const DEFAULT_SEGMENT_CAP: u64 = 1 << 20;
/// A length claim above this is corruption, not a large record.
const MAX_FRAME_LEN: u64 = 1 << 30;

// ----- integrity primitives -----

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time: `CRC_TABLES[0][b]` is the
/// CRC step of byte `b`, and `CRC_TABLES[s][b]` that of `b` followed by
/// `s` zero bytes, so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

#[expect(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "const evaluation only: every index is below 256 by its loop bound \
              or its 0xFF mask, and an out-of-bounds index would fail the build, \
              never a running program"
)]
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// One table lookup. A byte index is always in bounds, so the compiler
/// drops both the check and the fallback.
#[inline(always)]
fn crc_lookup(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// CRC-32 (IEEE 802.3, reflected) by slicing-by-8: every logged and
/// snapshotted byte passes through here on the host thread, so it folds
/// eight bytes per step instead of one bit. The bytes it yields are those
/// of the plain bitwise definition (pinned by the tests below).
fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (words, tail) = bytes.as_chunks::<8>();
    for &[a, b, c, d, e, f, g, h] in words {
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([a, b, c, d])).to_le_bytes();
        crc = crc_lookup(t7, c0)
            ^ crc_lookup(t6, c1)
            ^ crc_lookup(t5, c2)
            ^ crc_lookup(t4, c3)
            ^ crc_lookup(t3, e)
            ^ crc_lookup(t2, f)
            ^ crc_lookup(t1, g)
            ^ crc_lookup(t0, h);
    }
    for &byte in tail {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ crc_lookup(t0, low ^ byte);
    }
    !crc
}

/// Append a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let low = 0x7F & v;
        let byte = u8::try_from(low).unwrap_or(0x7F); // masked to 7 bits; cannot fail
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Outcome of pulling one varint off a byte stream.
enum VarintEnd {
    /// Decoded value + bytes consumed.
    Value(u64, usize),
    /// The stream ended mid-varint (torn write).
    Short,
    /// More than 10 continuation bytes: not a varint at all.
    Malformed,
}

fn get_varint(buf: &[u8]) -> VarintEnd {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift >= 64 {
            return VarintEnd::Malformed;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return VarintEnd::Value(v, i + 1);
        }
        shift += 7;
    }
    VarintEnd::Short
}

fn get_u32_le(buf: &[u8]) -> Option<u32> {
    let mut it = buf.iter();
    let mut v = 0u32;
    for shift in [0u32, 8, 16, 24] {
        v |= u32::from(*it.next()?) << shift;
    }
    Some(v)
}

/// Encode one framed record.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What scanning the frames of one buffer found.
struct Scan {
    /// Intact payloads, in order.
    frames: Vec<Vec<u8>>,
    /// Byte offset of the end of the last intact frame.
    clean_len: usize,
    /// `Clean`, or why the scan stopped early.
    tail: TailState,
}

/// Walk `buf` frame by frame from `start`, stopping at the first torn or
/// corrupt record. Never panics; never reads past the buffer.
fn scan_frames(buf: &[u8], start: usize) -> Scan {
    let mut frames = Vec::new();
    let mut pos = start;
    while let Some(rest) = buf.get(pos..) {
        if rest.is_empty() {
            break;
        }
        let dropped = (buf.len() - pos) as u64;
        let (len, len_bytes) = match get_varint(rest) {
            VarintEnd::Value(len, n) => (len, n),
            VarintEnd::Short => {
                return Scan {
                    frames,
                    clean_len: pos,
                    tail: TailState::Torn {
                        bytes_dropped: dropped,
                    },
                };
            }
            VarintEnd::Malformed => {
                return Scan {
                    frames,
                    clean_len: pos,
                    tail: TailState::Corrupt {
                        context: "malformed frame length".into(),
                        bytes_dropped: dropped,
                    },
                };
            }
        };
        if len > MAX_FRAME_LEN {
            return Scan {
                frames,
                clean_len: pos,
                tail: TailState::Corrupt {
                    context: format!("frame claims {len} bytes"),
                    bytes_dropped: dropped,
                },
            };
        }
        let Ok(len) = usize::try_from(len) else {
            return Scan {
                frames,
                clean_len: pos,
                tail: TailState::Corrupt {
                    context: format!("frame length {len} overflows"),
                    bytes_dropped: dropped,
                },
            };
        };
        let body_at = pos + len_bytes;
        let Some(crc_bytes) = buf.get(body_at..body_at + 4) else {
            return Scan {
                frames,
                clean_len: pos,
                tail: TailState::Torn {
                    bytes_dropped: dropped,
                },
            };
        };
        let Some(want) = get_u32_le(crc_bytes) else {
            return Scan {
                frames,
                clean_len: pos,
                tail: TailState::Torn {
                    bytes_dropped: dropped,
                },
            };
        };
        let Some(payload) = buf.get(body_at + 4..body_at + 4 + len) else {
            return Scan {
                frames,
                clean_len: pos,
                tail: TailState::Torn {
                    bytes_dropped: dropped,
                },
            };
        };
        if crc32(payload) != want {
            return Scan {
                frames,
                clean_len: pos,
                tail: TailState::Corrupt {
                    context: "frame CRC mismatch".into(),
                    bytes_dropped: dropped,
                },
            };
        }
        frames.push(payload.to_vec());
        pos = body_at + 4 + len;
    }
    Scan {
        frames,
        clean_len: pos,
        tail: TailState::Clean,
    }
}

// ----- the file-backed store -----

fn io_err(what: &str, e: &std::io::Error) -> StoreError {
    StoreError::Io(format!("{what}: {e}"))
}

/// A file-backed write-ahead log + snapshot store for one bucket.
///
/// See the crate docs for the on-disk format. One `FileWal` owns its
/// directory exclusively; opening repairs any torn tail left by a crash
/// (the partial record is truncated away and later segments — unreachable
/// past the tear — are unlinked).
pub struct FileWal {
    dir: PathBuf,
    seg: File,
    seg_seq: u64,
    seg_len: u64,
    segment_cap: u64,
    fsync: FsyncPolicy,
    appended: u64,
    op_bytes: u64,
    tail: TailState,
    dirty: bool,
    /// Appends buffered since the last durability point (fsync, snapshot,
    /// or reset) — the group-commit batch the next `sync` covers.
    unsynced: u64,
}

/// The log segments of `dir`, sorted by sequence number.
fn segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segs = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("read_dir", &e))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let seq = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok());
        if let Some(seq) = seq {
            segs.push((seq, path));
        }
    }
    segs.sort();
    Ok(segs)
}

/// Ordered IO-event probe, test builds only. `MemDisk` (the simulated
/// store the kill drills run against) has no directory model, so the
/// "rename/create is durable-ordered" property of `FileWal` cannot be
/// crash-injected there; instead every durability-relevant IO step records
/// an event here and the tests assert the order directly. This checks the
/// sequence of calls, not the kernel's behaviour — an honest but weaker
/// guarantee than a crash test.
#[cfg(test)]
mod probe {
    use std::cell::RefCell;
    thread_local! {
        static EVENTS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }
    pub fn record(ev: &'static str) {
        EVENTS.with(|e| e.borrow_mut().push(ev));
    }
    pub fn take() -> Vec<&'static str> {
        EVENTS.with(|e| e.borrow_mut().drain(..).collect())
    }
}

#[cfg(not(test))]
mod probe {
    pub fn record(_ev: &'static str) {}
}

fn create_segment(dir: &Path, seq: u64) -> Result<File, StoreError> {
    let path = dir.join(format!("wal-{seq}.log"));
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err("create segment", &e))?;
    f.write_all(SEG_MAGIC)
        .map_err(|e| io_err("write segment magic", &e))?;
    probe::record("segment_create");
    Ok(f)
}

/// Fsync a directory so a rename/unlink inside it is durable (best-effort
/// on platforms where directories cannot be opened).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    probe::record("sync_dir");
}

impl FileWal {
    /// Open (or create) the store in `dir`, repairing any torn tail.
    pub fn open(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Result<FileWal, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create store dir", &e))?;
        let segs = segments(&dir)?;

        let mut appended = 0u64;
        let mut op_bytes = 0u64;
        let mut tail = TailState::Clean;
        let mut keep_upto = segs.len(); // segments after a tear are unreachable
        for (i, (_, path)) in segs.iter().enumerate() {
            let buf = fs::read(path).map_err(|e| io_err("read segment", &e))?;
            if buf.get(..SEG_MAGIC.len()) != Some(SEG_MAGIC.as_slice()) {
                tail = TailState::Corrupt {
                    context: format!("segment {} has no magic", path.display()),
                    bytes_dropped: buf.len() as u64,
                };
                // The whole segment is unusable: truncate it to just the
                // magic so appends can continue cleanly.
                let _ = fs::write(path, SEG_MAGIC);
                keep_upto = i + 1;
                break;
            }
            let scan = scan_frames(&buf, SEG_MAGIC.len());
            appended += scan.frames.len() as u64;
            op_bytes += scan.frames.iter().map(|f| f.len() as u64).sum::<u64>();
            if !matches!(scan.tail, TailState::Clean) {
                tail = scan.tail;
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err("open segment for repair", &e))?;
                f.set_len(scan.clean_len as u64)
                    .map_err(|e| io_err("truncate torn tail", &e))?;
                let _ = f.sync_all();
                keep_upto = i + 1;
                break;
            }
        }
        // Unlink segments past a tear: their contents follow a hole in the
        // op sequence and can never be replayed.
        for (_, path) in segs.iter().skip(keep_upto) {
            if let TailState::Torn { bytes_dropped } | TailState::Corrupt { bytes_dropped, .. } =
                &mut tail
            {
                if let Ok(meta) = fs::metadata(path) {
                    *bytes_dropped += meta.len();
                }
            }
            let _ = fs::remove_file(path);
        }

        let (seg_seq, seg) = match segs.get(..keep_upto).and_then(|s| s.last()) {
            Some((seq, path)) => {
                let f = OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| io_err("open segment", &e))?;
                (*seq, f)
            }
            None => (0, create_segment(&dir, 0)?),
        };
        let seg_len = seg
            .metadata()
            .map_err(|e| io_err("segment metadata", &e))?
            .len();
        Ok(FileWal {
            dir,
            seg,
            seg_seq,
            seg_len,
            segment_cap: DEFAULT_SEGMENT_CAP,
            fsync,
            appended,
            op_bytes,
            tail,
            dirty: false,
            unsynced: 0,
        })
    }

    /// Set the segment-rotation threshold (bytes); returns `self` for
    /// builder-style use.
    pub fn with_segment_cap(mut self, bytes: u64) -> FileWal {
        self.segment_cap = bytes.max(64);
        self
    }

    /// Whether `dir` holds a seedable store (a snapshot was ever written).
    pub fn has_state(dir: &Path) -> bool {
        dir.join("SNAPSHOT").is_file()
    }

    /// Modification time of `dir`'s snapshot, if one exists — lets a host
    /// with several surviving stores rank them newest-first.
    pub fn state_mtime(dir: &Path) -> Option<std::time::SystemTime> {
        fs::metadata(dir.join("SNAPSHOT")).ok()?.modified().ok()
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        if !matches!(self.fsync, FsyncPolicy::Never) {
            self.seg
                .sync_data()
                .map_err(|e| io_err("sync on rotation", &e))?;
            probe::record("segment_sync");
        }
        self.seg_seq += 1;
        self.seg = create_segment(&self.dir, self.seg_seq)?;
        self.seg_len = SEG_MAGIC.len() as u64;
        // The new segment's directory entry must survive a crash before
        // anything is appended to it: ops written to a file the directory
        // has forgotten are lost without any torn-tail evidence.
        if !matches!(self.fsync, FsyncPolicy::Never) {
            sync_dir(&self.dir);
        }
        Ok(())
    }
}

impl BucketStore for FileWal {
    fn append(&mut self, op: &[u8]) -> Result<(), StoreError> {
        let mut frame = Vec::with_capacity(op.len() + 12);
        put_frame(&mut frame, op);
        self.seg
            .write_all(&frame)
            .map_err(|e| io_err("append", &e))?;
        self.seg_len += frame.len() as u64;
        self.appended += 1;
        self.op_bytes += op.len() as u64;
        match self.fsync {
            FsyncPolicy::Always => {
                self.seg.sync_data().map_err(|e| io_err("fsync", &e))?;
            }
            FsyncPolicy::Batch | FsyncPolicy::Never => {
                self.dirty = true;
                self.unsynced += 1;
            }
        }
        if self.seg_len >= self.segment_cap {
            self.rotate()?;
        }
        Ok(())
    }

    fn snapshot(&mut self, state: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join("SNAPSHOT.tmp");
        let mut buf = Vec::with_capacity(state.len() + 16);
        buf.extend_from_slice(SNAP_MAGIC);
        put_frame(&mut buf, state);
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot tmp", &e))?;
            f.write_all(&buf)
                .map_err(|e| io_err("write snapshot", &e))?;
            f.sync_all().map_err(|e| io_err("sync snapshot", &e))?;
            probe::record("snapshot_tmp_fsync");
        }
        fs::rename(&tmp, self.dir.join("SNAPSHOT")).map_err(|e| io_err("rename snapshot", &e))?;
        probe::record("snapshot_rename");
        sync_dir(&self.dir);
        // The log is now redundant: unlink every segment and start fresh.
        for (_, path) in segments(&self.dir)? {
            let _ = fs::remove_file(path);
        }
        sync_dir(&self.dir);
        self.seg_seq += 1;
        self.seg = create_segment(&self.dir, self.seg_seq)?;
        self.seg_len = SEG_MAGIC.len() as u64;
        sync_dir(&self.dir);
        self.appended = 0;
        self.op_bytes = 0;
        self.tail = TailState::Clean;
        self.dirty = false;
        self.unsynced = 0;
        Ok(())
    }

    fn replay(&mut self) -> Result<Replay, StoreError> {
        let snap_path = self.dir.join("SNAPSHOT");
        let snapshot = match fs::read(&snap_path) {
            Ok(buf) => {
                if buf.get(..SNAP_MAGIC.len()) != Some(SNAP_MAGIC.as_slice()) {
                    return Err(StoreError::Corrupt("snapshot has no magic".into()));
                }
                let scan = scan_frames(&buf, SNAP_MAGIC.len());
                match (scan.frames.into_iter().next(), scan.tail) {
                    (Some(state), TailState::Clean) => Some(state),
                    _ => {
                        // The snapshot is the base of the fold: a damaged
                        // one cannot seed a bucket (unlike a damaged log
                        // tail, which only costs the suffix).
                        return Err(StoreError::Corrupt("snapshot frame damaged".into()));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read snapshot", &e)),
        };
        let mut ops = Vec::new();
        for (_, path) in segments(&self.dir)? {
            let buf = fs::read(&path).map_err(|e| io_err("read segment", &e))?;
            if buf.get(..SEG_MAGIC.len()) != Some(SEG_MAGIC.as_slice()) {
                break;
            }
            let scan = scan_frames(&buf, SEG_MAGIC.len());
            ops.extend(scan.frames);
            if !matches!(scan.tail, TailState::Clean) {
                break;
            }
        }
        Ok(Replay {
            snapshot,
            ops,
            tail: self.tail.clone(),
        })
    }

    fn reset(&mut self) -> Result<(), StoreError> {
        let _ = fs::remove_file(self.dir.join("SNAPSHOT"));
        let _ = fs::remove_file(self.dir.join("SNAPSHOT.tmp"));
        for (_, path) in segments(&self.dir)? {
            let _ = fs::remove_file(path);
        }
        sync_dir(&self.dir);
        self.seg_seq = 0;
        self.seg = create_segment(&self.dir, 0)?;
        self.seg_len = SEG_MAGIC.len() as u64;
        sync_dir(&self.dir);
        self.appended = 0;
        self.op_bytes = 0;
        self.tail = TailState::Clean;
        self.dirty = false;
        self.unsynced = 0;
        Ok(())
    }

    fn appended_since_snapshot(&self) -> u64 {
        self.appended
    }

    fn wal_bytes(&self) -> u64 {
        self.op_bytes
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if self.dirty {
            self.seg.sync_data().map_err(|e| io_err("sync", &e))?;
            self.dirty = false;
            self.unsynced = 0;
        }
        Ok(())
    }

    fn unsynced_ops(&self) -> u64 {
        self.unsynced
    }
}

// ----- factory -----

/// Directory for one shard's store under `root`.
pub fn store_dir(root: &Path, id: &StoreId) -> PathBuf {
    let StoreId::Data { bucket } = id;
    root.join(format!("data-{bucket}"))
}

/// A [`StoreFactory`] rooted at `root`: each shard gets its own
/// subdirectory. Returns `None` from the factory (modelling a dead disk)
/// when the directory cannot be opened.
pub fn factory(root: PathBuf, fsync: FsyncPolicy) -> StoreFactory {
    Rc::new(move |_node, id| {
        let dir = store_dir(&root, id);
        FileWal::open(dir, fsync)
            .ok()
            .map(|w| Box::new(w) as Box<dyn BucketStore>)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("lhrs-wal-{tag}-{}-{n}", std::process::id()))
    }

    /// The definition the tables must reproduce: one bit per step.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    /// `len` bytes of a fixed xorshift stream.
    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_crc32_equals_the_bitwise_definition() {
        // Every length across several 8-byte words, at every alignment.
        let buf = seeded_bytes(1_200 + 8);
        for offset in 0..8 {
            for len in 0..=1_200 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
        let big = seeded_bytes(64 * 1024);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    #[test]
    fn frame_bytes_are_those_written_before_the_tables() {
        // `put_frame(b"lhrs")` as the bitwise CRC framed it: a log written
        // by that build replays under this one.
        let mut frame = Vec::new();
        put_frame(&mut frame, b"lhrs");
        assert_eq!(frame, [4, 0xCD, 0x36, 0x75, 0xC2, b'l', b'h', b'r', b's']);
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            match get_varint(&buf) {
                VarintEnd::Value(got, used) => {
                    assert_eq!(got, v);
                    assert_eq!(used, buf.len());
                }
                _ => panic!("varint {v} failed to decode"),
            }
        }
    }

    #[test]
    fn append_snapshot_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        w.snapshot(b"state-1").unwrap();
        w.append(b"op-a").unwrap();
        w.append(b"op-bb").unwrap();
        assert_eq!(w.appended_since_snapshot(), 2);
        assert_eq!(w.wal_bytes(), 9);
        drop(w);

        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(w.appended_since_snapshot(), 2);
        let rep = w.replay().unwrap();
        assert_eq!(rep.snapshot.as_deref(), Some(&b"state-1"[..]));
        assert_eq!(rep.ops, vec![b"op-a".to_vec(), b"op-bb".to_vec()]);
        assert_eq!(rep.tail, TailState::Clean);

        // A new snapshot truncates the log.
        w.snapshot(b"state-2").unwrap();
        assert_eq!(w.appended_since_snapshot(), 0);
        let rep = w.replay().unwrap();
        assert_eq!(rep.snapshot.as_deref(), Some(&b"state-2"[..]));
        assert!(rep.ops.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = temp_dir("rotate");
        let mut w = FileWal::open(&dir, FsyncPolicy::Never)
            .unwrap()
            .with_segment_cap(64);
        w.snapshot(b"base").unwrap();
        for i in 0..32u8 {
            w.append(&[i; 8]).unwrap();
        }
        assert!(segments(&dir).unwrap().len() > 1, "rotation never fired");
        drop(w);
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        let rep = w.replay().unwrap();
        assert_eq!(rep.ops.len(), 32);
        for (i, op) in rep.ops.iter().enumerate() {
            assert_eq!(op, &vec![u8::try_from(i).unwrap(); 8]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_clean_eof() {
        let dir = temp_dir("torn");
        let mut w = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        w.snapshot(b"base").unwrap();
        w.append(b"keep-me").unwrap();
        w.append(b"torn-away").unwrap();
        drop(w);
        // Chop mid-record: drop the last 3 bytes of the segment.
        let (_, path) = segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let mut w = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(w.appended_since_snapshot(), 1);
        let rep = w.replay().unwrap();
        assert_eq!(rep.ops, vec![b"keep-me".to_vec()]);
        assert!(matches!(rep.tail, TailState::Torn { bytes_dropped } if bytes_dropped > 0));
        // The repair means appends after the reopen land cleanly.
        w.append(b"after").unwrap();
        drop(w);
        let mut w = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        let rep = w.replay().unwrap();
        assert_eq!(rep.ops, vec![b"keep-me".to_vec(), b"after".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_surfaces_corrupt_tail() {
        let dir = temp_dir("flip");
        let mut w = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        w.snapshot(b"base").unwrap();
        w.append(b"good-record").unwrap();
        w.append(b"bad-record!").unwrap();
        drop(w);
        let (_, path) = segments(&dir).unwrap().pop().unwrap();
        let mut buf = fs::read(&path).unwrap();
        let at = buf.len() - 2; // inside the second payload
        buf[at] ^= 0x40;
        fs::write(&path, &buf).unwrap();

        let mut w = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(w.appended_since_snapshot(), 1);
        let rep = w.replay().unwrap();
        assert_eq!(rep.ops, vec![b"good-record".to_vec()]);
        assert!(matches!(rep.tail, TailState::Corrupt { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_snapshot_refuses_to_seed() {
        let dir = temp_dir("snapdmg");
        let mut w = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        w.snapshot(b"important-state").unwrap();
        drop(w);
        let path = dir.join("SNAPSHOT");
        let mut buf = fs::read(&path).unwrap();
        let at = buf.len() - 4;
        buf[at] ^= 0x01;
        fs::write(&path, &buf).unwrap();
        let mut w = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        assert!(matches!(w.replay(), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_erases_everything() {
        let dir = temp_dir("reset");
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        w.snapshot(b"state").unwrap();
        w.append(b"op").unwrap();
        w.reset().unwrap();
        assert!(!FileWal::has_state(&dir));
        assert_eq!(w.appended_since_snapshot(), 0);
        let rep = w.replay().unwrap();
        assert!(rep.snapshot.is_none());
        assert!(rep.ops.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_snapshot_rename_are_durable_ordered() {
        // `MemDisk` has no directory model, so this asserts the *sequence*
        // of durability-relevant IO calls via the probe (crate docs on
        // `mod probe`): the old segment's data reaches disk before the new
        // segment's directory entry exists, and that entry is itself
        // sync_dir'd before any op can land in the new file; a snapshot
        // fsyncs the tmp file before the rename and sync_dirs after it.
        let dir = temp_dir("ordered");
        let mut w = FileWal::open(&dir, FsyncPolicy::Always)
            .unwrap()
            .with_segment_cap(64);
        let _ = probe::take(); // discard open()'s events

        while segments(&dir).unwrap().len() < 2 {
            w.append(&[7u8; 8]).unwrap();
        }
        let ev = probe::take();
        let pos = |needle: &str| {
            ev.iter()
                .position(|e| *e == needle)
                .unwrap_or_else(|| panic!("{needle} missing from {ev:?}"))
        };
        assert!(
            pos("segment_sync") < pos("segment_create"),
            "old segment data must be durable before the new entry: {ev:?}"
        );
        assert!(
            pos("segment_create") < pos("sync_dir"),
            "the new entry must be sync_dir'd: {ev:?}"
        );

        w.snapshot(b"state").unwrap();
        let ev = probe::take();
        let pos = |needle: &str| {
            ev.iter()
                .position(|e| *e == needle)
                .unwrap_or_else(|| panic!("{needle} missing from {ev:?}"))
        };
        assert!(pos("snapshot_tmp_fsync") < pos("snapshot_rename"), "{ev:?}");
        assert!(pos("snapshot_rename") < pos("sync_dir"), "{ev:?}");
        let trailing_create = ev
            .iter()
            .rposition(|e| *e == "segment_create")
            .unwrap_or_else(|| panic!("no segment_create in {ev:?}"));
        assert!(
            ev.get(trailing_create..)
                .is_some_and(|rest| rest.contains(&"sync_dir")),
            "the fresh segment after a snapshot must be sync_dir'd: {ev:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn factory_roots_each_shard_in_its_own_dir() {
        let root = temp_dir("factory");
        let f = factory(root.clone(), FsyncPolicy::Never);
        let a_id = StoreId::Data { bucket: 4 };
        let b_id = StoreId::Data { bucket: 5 };
        let mut a = f(lhrs_core::NodeId(7), &a_id).unwrap();
        let mut b = f(lhrs_core::NodeId(8), &b_id).unwrap();
        a.snapshot(b"A").unwrap();
        b.snapshot(b"B").unwrap();
        assert!(FileWal::has_state(&store_dir(&root, &a_id)));
        assert!(FileWal::has_state(&store_dir(&root, &b_id)));
        assert_eq!(a.replay().unwrap().snapshot.as_deref(), Some(&b"A"[..]));
        assert_eq!(b.replay().unwrap().snapshot.as_deref(), Some(&b"B"[..]));
        fs::remove_dir_all(&root).unwrap();
    }
}
