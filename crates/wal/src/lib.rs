//! lhrs-wal: the file-backed [`BucketStore`] for durable LH\*RS buckets.
//!
//! Layout of one store directory (one per data bucket; parity columns keep
//! no store — a lost one is re-encoded from its group):
//!
//! ```text
//! <dir>/SNAPSHOT        magic "LHS1" + CRC frames: the latest bucket state,
//!                       then the first segment number it does not cover
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
//! Segments older than the snapshot's cover (an unlink the crash cut
//! short) are skipped and unlinked on the next open or replay; a snapshot
//! of one frame, written before the cover existed, covers none.
//!
//! Under [`FsyncPolicy::Batch`] an append is a `write` on the caller's
//! thread and [`BucketStore::sync`] only queues the store for one disk
//! thread per process (`lhrs-wal-sync`), which fsyncs its current segment
//! in the background. A store has at most one fsync queued: appends made
//! while the disk is busy ride on the next one, so one fsync covers as
//! many sync calls as the disk takes. A background fsync that fails fails
//! the store's next `append`, `snapshot` or `sync`; dropping a store
//! fsyncs what the disk thread has not covered yet.
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

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use lhrs_core::storage::{BucketStore, GroupCommits, Replay, StoreError, StoreId, TailState};
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
    /// The segment appends go to; `disk.seg` holds the same file.
    seg: Arc<File>,
    seg_seq: u64,
    seg_len: u64,
    segment_cap: u64,
    fsync: FsyncPolicy,
    appended: u64,
    op_bytes: u64,
    tail: TailState,
    /// What this store shares with the disk thread.
    disk: Arc<DiskState>,
    /// `disk.written` at the last hand-off: every append up to it is
    /// covered by an fsync that starts after it was written.
    requested: u64,
}

/// The state one store shares with the disk thread.
struct DiskState {
    /// The store's directory; it also names the store to the probe.
    dir: PathBuf,
    /// The segment appends go to. Replaced before the first append into a
    /// new segment, and only after the old one was fsynced or made moot,
    /// so a job that reads it after reading `written` fsyncs the file
    /// holding every append it counts that is not durable yet.
    seg: Mutex<Arc<File>>,
    /// Appends written to the kernel so far; only the store's own thread
    /// adds to it, with `Release`, so an fsync that reads a count with
    /// `Acquire` before it starts covers that many appends.
    written: AtomicU64,
    /// Appends known durable: covered by a finished fsync, or made moot by
    /// a rotation's fsync, a snapshot or a reset. Only grows.
    synced: AtomicU64,
    /// A job for this store waits in the queue, not yet started. Read and
    /// written under the queue lock only.
    queued: AtomicBool,
    /// A background fsync failed: the log may have a hole.
    failed: AtomicBool,
    /// Fsyncs finished since the store last reported them, and the appends
    /// they covered (statistics only).
    fsyncs: AtomicU64,
    fsync_ops: AtomicU64,
}

impl DiskState {
    fn new(dir: PathBuf, seg: Arc<File>) -> DiskState {
        DiskState {
            dir,
            seg: Mutex::new(seg),
            written: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            queued: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            fsyncs: AtomicU64::new(0),
            fsync_ops: AtomicU64::new(0),
        }
    }

    /// Everything written so far is durable (or moot).
    fn mark_synced(&self) {
        self.synced
            .fetch_max(self.written.load(Ordering::Acquire), Ordering::AcqRel);
    }
}

// ----- the disk thread -----

struct Queue {
    /// The stores owed an fsync, oldest request first.
    jobs: VecDeque<Arc<DiskState>>,
    /// The disk thread is running a job.
    busy: bool,
    /// The disk thread exists.
    spawned: bool,
}

/// The process's one disk thread and its FIFO of jobs, at most one queued
/// per store.
struct Disk {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued.
    work: Condvar,
    /// Signalled when the queue drains.
    idle: Condvar,
}

static DISK: Disk = Disk {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        busy: false,
        spawned: false,
    }),
    work: Condvar::new(),
    idle: Condvar::new(),
};

/// Lock the job queue. No code panics while holding it, and every update
/// leaves it valid, so a poisoned lock still guards a usable queue.
fn lock_queue() -> MutexGuard<'static, Queue> {
    DISK.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Queue an fsync of `state`'s store, spawning the disk thread on first
/// use. A job already queued for the store covers these appends too,
/// since it reads the append count only when it starts.
fn request_fsync(state: &Arc<DiskState>) -> Result<(), StoreError> {
    let mut q = lock_queue();
    if state.queued.load(Ordering::Relaxed) {
        return Ok(());
    }
    if !q.spawned {
        // Detached: it serves every store for the life of the process.
        std::thread::Builder::new()
            .name("lhrs-wal-sync".into())
            .spawn(disk_thread)
            .map_err(|e| io_err("spawn lhrs-wal-sync", &e))?;
        q.spawned = true;
    }
    state.queued.store(true, Ordering::Relaxed);
    q.jobs.push_back(Arc::clone(state));
    DISK.work.notify_one();
    Ok(())
}

fn disk_thread() {
    let mut q = lock_queue();
    loop {
        let Some(state) = q.jobs.pop_front() else {
            q.busy = false;
            DISK.idle.notify_all();
            q = DISK.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        q.busy = true;
        // From here on an append may miss this fsync, so the next sync
        // call queues another.
        state.queued.store(false, Ordering::Relaxed);
        drop(q);
        fsync(&state);
        q = lock_queue();
    }
}

/// One job: fsync the store's current segment, then record what it
/// covered, or that it failed.
fn fsync(state: &DiskState) {
    // Count first, then fetch the segment (see `DiskState::seg`).
    let covered = state.written.load(Ordering::Acquire);
    let seg = Arc::clone(&state.seg.lock().unwrap_or_else(PoisonError::into_inner));
    let result = probe::fault(&state.dir, &seg).map_or_else(|| seg.sync_data(), Err);
    probe::record(&state.dir, "append_fsync");
    match result {
        Ok(()) => {
            let before = state.synced.fetch_max(covered, Ordering::AcqRel);
            state
                .fsync_ops
                .fetch_add(covered.saturating_sub(before), Ordering::Relaxed);
            state.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => state.failed.store(true, Ordering::Release),
    }
}

/// Block until the disk thread has no fsync queued or running: every
/// [`FsyncPolicy::Batch`] sync handed off before the call has finished
/// (or failed).
pub fn wait_disk_idle() {
    let mut q = lock_queue();
    while q.busy || !q.jobs.is_empty() {
        q = DISK.idle.wait(q).unwrap_or_else(PoisonError::into_inner);
    }
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

/// Ordered IO-event probe and fault injection, test builds only. `MemDisk`
/// (the simulated store the kill drills run against) has no directory
/// model, so the "rename/create is durable-ordered" property of `FileWal`
/// cannot be crash-injected there; instead every durability-relevant IO
/// step records an event here, with the store's directory and the name of
/// the thread that ran it, and the tests assert the order directly. This
/// checks the sequence of calls, not the kernel's behaviour — an honest
/// but weaker guarantee than a crash test. The probe is process-global so
/// it sees the disk thread; keying every event by directory keeps tests
/// running in parallel apart.
#[cfg(test)]
mod probe {
    use std::fs::File;
    use std::path::{Path, PathBuf};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;

    /// One recorded IO step: its store, its name, its thread's name.
    type Event = (PathBuf, &'static str, String);

    /// A held fsync: its store, where to report its start (with the
    /// length of the file it is about to fsync), what to wait on.
    type Pause = (PathBuf, Sender<u64>, Receiver<()>);

    static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    /// Stores whose next background fsync fails.
    static FAIL: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    /// Stores whose next background fsync reports its start and waits.
    static PAUSE: Mutex<Vec<Pause>> = Mutex::new(Vec::new());

    pub fn record(dir: &Path, ev: &'static str) {
        let thread = std::thread::current().name().unwrap_or("").to_owned();
        EVENTS.lock().unwrap().push((dir.to_path_buf(), ev, thread));
    }

    /// Remove and return `dir`'s events, oldest first, each with the name
    /// of the thread that recorded it.
    pub fn take(dir: &Path) -> Vec<(&'static str, String)> {
        let mut all = EVENTS.lock().unwrap();
        let (mine, rest): (Vec<Event>, Vec<Event>) = all.drain(..).partition(|e| e.0 == dir);
        *all = rest;
        mine.into_iter().map(|(_, ev, t)| (ev, t)).collect()
    }

    /// Make the next background fsync of `dir` fail.
    pub fn fail_next_fsync(dir: &Path) {
        FAIL.lock().unwrap().push(dir.to_path_buf());
    }

    /// Hold the next background fsync of `dir` in flight: once started it
    /// sends the length of the file it fsyncs on the first channel, then
    /// waits for a message on the second.
    pub fn pause_next_fsync(dir: &Path) -> (Receiver<u64>, Sender<()>) {
        let (started_tx, started_rx) = channel();
        let (resume_tx, resume_rx) = channel();
        PAUSE
            .lock()
            .unwrap()
            .push((dir.to_path_buf(), started_tx, resume_rx));
        (started_rx, resume_tx)
    }

    /// Run by the disk thread before it fsyncs `seg`: honour a pause, and
    /// return the injected error in place of the fsync's own.
    pub fn fault(dir: &Path, seg: &File) -> Option<std::io::Error> {
        let paused = {
            let mut pauses = PAUSE.lock().unwrap();
            let at = pauses.iter().position(|p| p.0 == dir);
            at.map(|at| pauses.remove(at))
        };
        if let Some((_, started, resume)) = paused {
            // A test that died holding the pause must not take the disk
            // thread, which every other test shares, with it.
            let _ = started.send(seg.metadata().map_or(0, |m| m.len()));
            let _ = resume.recv();
        }
        let mut fails = FAIL.lock().unwrap();
        let at = fails.iter().position(|d| d == dir)?;
        fails.remove(at);
        Some(std::io::Error::other("injected fsync failure"))
    }
}

#[cfg(not(test))]
mod probe {
    use std::fs::File;
    use std::path::Path;

    pub fn record(_dir: &Path, _ev: &'static str) {}

    pub fn fault(_dir: &Path, _seg: &File) -> Option<std::io::Error> {
        None
    }
}

fn create_segment(dir: &Path, seq: u64) -> Result<Arc<File>, StoreError> {
    let path = dir.join(format!("wal-{seq}.log"));
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err("create segment", &e))?;
    f.write_all(SEG_MAGIC)
        .map_err(|e| io_err("write segment magic", &e))?;
    probe::record(dir, "segment_create");
    Ok(Arc::new(f))
}

/// Fsync a directory so a rename/unlink inside it is durable (best-effort
/// on platforms where directories cannot be opened).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    probe::record(dir, "sync_dir");
}

/// The snapshot in `dir`: its state and the first segment it does not
/// cover, `None` if there is none. A one-frame snapshot (written before
/// the cover frame existed) covers no segment.
fn read_snapshot(dir: &Path) -> Result<Option<(Vec<u8>, u64)>, StoreError> {
    let buf = match fs::read(dir.join("SNAPSHOT")) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read snapshot", &e)),
    };
    if buf.get(..SNAP_MAGIC.len()) != Some(SNAP_MAGIC.as_slice()) {
        return Err(StoreError::Corrupt("snapshot has no magic".into()));
    }
    // The snapshot is the base of the fold: a damaged one cannot seed a
    // bucket (unlike a damaged log tail, which only costs the suffix).
    let damaged = || StoreError::Corrupt("snapshot frame damaged".into());
    let scan = scan_frames(&buf, SNAP_MAGIC.len());
    if !matches!(scan.tail, TailState::Clean) {
        return Err(damaged());
    }
    let mut frames = scan.frames.into_iter();
    let state = frames.next().ok_or_else(damaged)?;
    let first_uncovered = match frames.next() {
        None => 0,
        Some(cover) => {
            u64::from_le_bytes(<[u8; 8]>::try_from(cover.as_slice()).map_err(|_| damaged())?)
        }
    };
    Ok(Some((state, first_uncovered)))
}

/// The segments of `dir` from `first` on, sorted. Older ones are unlinked:
/// the snapshot covers them, and only a crash between its rename and
/// their unlink leaves them behind.
fn live_segments(dir: &Path, first: u64) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let (covered, live): (Vec<_>, Vec<_>) = segments(dir)?
        .into_iter()
        .partition(|(seq, _)| *seq < first);
    if !covered.is_empty() {
        for (_, path) in covered {
            let _ = fs::remove_file(path);
        }
        sync_dir(dir);
    }
    Ok(live)
}

impl FileWal {
    /// Open (or create) the store in `dir`, repairing any torn tail.
    pub fn open(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Result<FileWal, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create store dir", &e))?;
        // A damaged snapshot covers nothing here; replay refuses it.
        let first_live = read_snapshot(&dir)
            .ok()
            .flatten()
            .map_or(0, |(_, first)| first);
        let segs = live_segments(&dir, first_live)?;

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
                (*seq, Arc::new(f))
            }
            // Numbered past the snapshot's cover, or replay would skip it.
            None => (first_live, create_segment(&dir, first_live)?),
        };
        let seg_len = seg
            .metadata()
            .map_err(|e| io_err("segment metadata", &e))?
            .len();
        Ok(FileWal {
            disk: Arc::new(DiskState::new(dir, Arc::clone(&seg))),
            seg,
            seg_seq,
            seg_len,
            segment_cap: DEFAULT_SEGMENT_CAP,
            fsync,
            appended,
            op_bytes,
            tail,
            requested: 0,
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

    /// Fail if a background fsync failed: the log may have a hole.
    fn check_disk(&self) -> Result<(), StoreError> {
        if self.disk.failed.load(Ordering::Acquire) {
            return Err(StoreError::Io(format!(
                "background fsync of {} failed",
                self.disk.dir.display()
            )));
        }
        Ok(())
    }

    /// Everything appended so far is durable or moot: no hand-off owed.
    fn mark_synced(&mut self) {
        self.disk.mark_synced();
        self.requested = self.disk.written.load(Ordering::Relaxed);
    }

    /// Create segment `seg_seq` and direct appends, and fsyncs, to it.
    fn start_segment(&mut self) -> Result<(), StoreError> {
        self.seg = create_segment(&self.disk.dir, self.seg_seq)?;
        self.seg_len = SEG_MAGIC.len() as u64;
        *self.disk.seg.lock().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&self.seg);
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        if !matches!(self.fsync, FsyncPolicy::Never) {
            self.seg
                .sync_data()
                .map_err(|e| io_err("sync on rotation", &e))?;
            probe::record(&self.disk.dir, "segment_sync");
            self.mark_synced();
        }
        self.seg_seq += 1;
        self.start_segment()?;
        // The new segment's directory entry must survive a crash before
        // anything is appended to it: ops written to a file the directory
        // has forgotten are lost without any torn-tail evidence.
        if !matches!(self.fsync, FsyncPolicy::Never) {
            sync_dir(&self.disk.dir);
        }
        Ok(())
    }
}

impl BucketStore for FileWal {
    fn append(&mut self, op: &[u8]) -> Result<(), StoreError> {
        self.check_disk()?;
        let mut frame = Vec::with_capacity(op.len() + 12);
        put_frame(&mut frame, op);
        (&*self.seg)
            .write_all(&frame)
            .map_err(|e| io_err("append", &e))?;
        self.disk.written.fetch_add(1, Ordering::Release);
        self.seg_len += frame.len() as u64;
        self.appended += 1;
        self.op_bytes += op.len() as u64;
        if self.fsync == FsyncPolicy::Always {
            self.seg.sync_data().map_err(|e| io_err("fsync", &e))?;
            probe::record(&self.disk.dir, "append_fsync");
        }
        if self.seg_len >= self.segment_cap {
            self.rotate()?;
        }
        Ok(())
    }

    fn snapshot(&mut self, state: &[u8]) -> Result<(), StoreError> {
        self.check_disk()?;
        // Segments from this number on hold ops the snapshot does not.
        let first_live = self.seg_seq + 1;
        let tmp = self.disk.dir.join("SNAPSHOT.tmp");
        let mut buf = Vec::with_capacity(state.len() + 32);
        buf.extend_from_slice(SNAP_MAGIC);
        put_frame(&mut buf, state);
        put_frame(&mut buf, &first_live.to_le_bytes());
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot tmp", &e))?;
            f.write_all(&buf)
                .map_err(|e| io_err("write snapshot", &e))?;
            f.sync_all().map_err(|e| io_err("sync snapshot", &e))?;
            probe::record(&self.disk.dir, "snapshot_tmp_fsync");
        }
        fs::rename(&tmp, self.disk.dir.join("SNAPSHOT"))
            .map_err(|e| io_err("rename snapshot", &e))?;
        probe::record(&self.disk.dir, "snapshot_rename");
        sync_dir(&self.disk.dir);
        // The log is now redundant: unlink every segment and start fresh.
        live_segments(&self.disk.dir, first_live)?;
        self.seg_seq = first_live;
        self.start_segment()?;
        sync_dir(&self.disk.dir);
        self.appended = 0;
        self.op_bytes = 0;
        self.tail = TailState::Clean;
        self.mark_synced();
        Ok(())
    }

    fn replay(&mut self) -> Result<Replay, StoreError> {
        let (snapshot, first_live) = match read_snapshot(&self.disk.dir)? {
            Some((state, first)) => (Some(state), first),
            None => (None, 0),
        };
        let mut ops = Vec::new();
        for (_, path) in live_segments(&self.disk.dir, first_live)? {
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
        let _ = fs::remove_file(self.disk.dir.join("SNAPSHOT"));
        let _ = fs::remove_file(self.disk.dir.join("SNAPSHOT.tmp"));
        for (_, path) in segments(&self.disk.dir)? {
            let _ = fs::remove_file(path);
        }
        sync_dir(&self.disk.dir);
        self.seg_seq = 0;
        self.start_segment()?;
        sync_dir(&self.disk.dir);
        self.appended = 0;
        self.op_bytes = 0;
        self.tail = TailState::Clean;
        // The erased log has no hole left to report.
        self.disk.failed.store(false, Ordering::Release);
        self.mark_synced();
        Ok(())
    }

    fn appended_since_snapshot(&self) -> u64 {
        self.appended
    }

    fn wal_bytes(&self) -> u64 {
        self.op_bytes
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.check_disk()?;
        let written = self.disk.written.load(Ordering::Relaxed);
        if self.fsync == FsyncPolicy::Batch && written > self.requested {
            request_fsync(&self.disk)?;
            self.requested = written;
        }
        Ok(())
    }

    fn take_group_commits(&mut self) -> GroupCommits {
        GroupCommits {
            fsyncs: self.disk.fsyncs.swap(0, Ordering::Relaxed),
            ops: self.disk.fsync_ops.swap(0, Ordering::Relaxed),
        }
    }
}

impl Drop for FileWal {
    /// A clean shutdown leaves every append synced: fsync on this thread
    /// what the disk thread has not covered yet.
    fn drop(&mut self) {
        let written = self.disk.written.load(Ordering::Relaxed);
        if self.fsync == FsyncPolicy::Batch && self.disk.synced.load(Ordering::Acquire) < written {
            let _ = self.seg.sync_data();
        }
    }
}

/// Directory for one shard's store under `root`.
pub fn store_dir(root: &Path, id: &StoreId) -> PathBuf {
    let StoreId::Data { bucket } = id;
    root.join(format!("data-{bucket}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhrs_core::{Config, LhrsFile};
    use std::rc::Rc;

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
        // Inside the state: past the magic, its 1-byte length and its CRC.
        let at = SNAP_MAGIC.len() + 1 + 4 + 2;
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

    /// `dir`'s probe events, names only.
    fn events(dir: &Path) -> Vec<&'static str> {
        probe::take(dir).into_iter().map(|(ev, _)| ev).collect()
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
        let _ = events(&dir); // discard open()'s events

        while segments(&dir).unwrap().len() < 2 {
            w.append(&[7u8; 8]).unwrap();
        }
        let ev = events(&dir);
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
        let ev = events(&dir);
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
    fn stale_segment_beside_a_newer_snapshot_is_not_replayed() {
        let dir = temp_dir("cover");
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        w.append(b"old-op").unwrap(); // wal-0
        w.snapshot(b"state").unwrap(); // covers wal-0; appends go to wal-1
        w.append(b"new-op").unwrap();
        drop(w);
        // A crash between the snapshot's rename and its unlinks leaves
        // wal-0 behind, full of ops the snapshot already holds.
        let mut stale = SEG_MAGIC.to_vec();
        put_frame(&mut stale, b"old-op");
        let stale_path = dir.join("wal-0.log");
        fs::write(&stale_path, &stale).unwrap();

        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(w.appended_since_snapshot(), 1);
        let rep = w.replay().unwrap();
        assert_eq!(rep.snapshot.as_deref(), Some(&b"state"[..]));
        assert_eq!(rep.ops, vec![b"new-op".to_vec()]);
        assert!(!stale_path.exists(), "open unlinks the covered segment");

        // Planted after the open, replay skips and unlinks it too.
        fs::write(&stale_path, &stale).unwrap();
        assert_eq!(w.replay().unwrap().ops, vec![b"new-op".to_vec()]);
        assert!(!stale_path.exists());

        // A one-frame snapshot, as written before the cover frame, covers
        // no segment: everything replays, as it always did.
        let mut legacy = SNAP_MAGIC.to_vec();
        put_frame(&mut legacy, b"state");
        fs::write(dir.join("SNAPSHOT"), &legacy).unwrap();
        fs::write(&stale_path, &stale).unwrap();
        assert_eq!(
            w.replay().unwrap().ops,
            vec![b"old-op".to_vec(), b"new-op".to_vec()]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_sync_never_fsyncs_on_the_calling_thread() {
        let dir = temp_dir("offthread");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch).unwrap();
        w.snapshot(b"base").unwrap();
        let _ = probe::take(&dir);
        for i in 0..64u8 {
            w.append(&[i; 16]).unwrap();
            w.sync().unwrap();
        }
        wait_disk_idle();
        let ev = probe::take(&dir);
        let me = std::thread::current().name().unwrap_or("").to_owned();
        assert!(
            ev.iter().all(|(_, thread)| *thread != me),
            "appends and syncs did IO on the calling thread: {ev:?}"
        );
        assert!(
            ev.iter()
                .any(|(e, thread)| *e == "append_fsync" && thread == "lhrs-wal-sync"),
            "the disk thread must have fsynced the appends: {ev:?}"
        );
        let done = w.take_group_commits();
        assert!(done.fsyncs >= 1, "{done:?}");
        assert_eq!(done.ops, 64, "every append is covered once: {done:?}");
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_during_an_inflight_fsync_share_the_next_one() {
        let dir = temp_dir("inflight");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch).unwrap();
        let (started, resume) = probe::pause_next_fsync(&dir);
        w.append(b"a").unwrap();
        w.sync().unwrap();
        started.recv().unwrap(); // the first fsync is running, covering "a"
        for op in [b"b", b"c", b"d"] {
            w.append(op).unwrap();
            w.sync().unwrap();
        }
        resume.send(()).unwrap();
        wait_disk_idle();
        assert_eq!(
            w.take_group_commits(),
            GroupCommits { fsyncs: 2, ops: 4 },
            "b, c and d ride one fsync queued behind the running one"
        );
        let fsyncs = events(&dir)
            .iter()
            .filter(|e| **e == "append_fsync")
            .count();
        assert_eq!(fsyncs, 2);
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queued_fsync_follows_a_rotation_to_the_new_segment() {
        let dir = temp_dir("rotated");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch)
            .unwrap()
            .with_segment_cap(64);
        let (first, resume_first) = probe::pause_next_fsync(&dir);
        w.append(&[1u8; 8]).unwrap();
        w.sync().unwrap();
        first.recv().unwrap(); // running on wal-0
                               // Fill wal-0 until it rotates, write one op into wal-1, and queue
                               // the fsync that must cover it.
        while segments(&dir).unwrap().len() < 2 {
            w.append(&[2u8; 8]).unwrap();
        }
        w.append(b"in-wal-1").unwrap();
        w.sync().unwrap();
        let (second, resume_second) = probe::pause_next_fsync(&dir);
        resume_first.send(()).unwrap();
        let fsynced_len = second.recv().unwrap();
        let (_, newest) = segments(&dir).unwrap().pop().unwrap();
        assert_eq!(
            fsynced_len,
            fs::metadata(&newest).unwrap().len(),
            "the queued fsync must target the segment holding the new op"
        );
        resume_second.send(()).unwrap();
        wait_disk_idle();
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `NodeHost::poll`'s sync pass in miniature: each append is followed
    /// by the hand-off the host makes at the end of a poll batch.
    struct SyncEachAppend(FileWal);

    impl BucketStore for SyncEachAppend {
        fn append(&mut self, op: &[u8]) -> Result<(), StoreError> {
            self.0.append(op)?;
            self.0.sync()
        }
        fn snapshot(&mut self, state: &[u8]) -> Result<(), StoreError> {
            self.0.snapshot(state)
        }
        fn replay(&mut self) -> Result<Replay, StoreError> {
            self.0.replay()
        }
        fn reset(&mut self) -> Result<(), StoreError> {
            self.0.reset()
        }
        fn appended_since_snapshot(&self) -> u64 {
            self.0.appended_since_snapshot()
        }
        fn wal_bytes(&self) -> u64 {
            self.0.wal_bytes()
        }
        fn sync(&mut self) -> Result<(), StoreError> {
            self.0.sync()
        }
    }

    #[test]
    fn failed_background_fsync_poisons_the_store() {
        let root = temp_dir("bgfail");
        let cfg = Config {
            ack_writes: true,
            ack_parity: true,
            bucket_capacity: 1000,
            ..Config::default()
        };
        let mut file = LhrsFile::new(cfg).unwrap();
        let factory_root = root.clone();
        file.install_store_factory(Rc::new(move |_node, id| {
            let w = FileWal::open(store_dir(&factory_root, id), FsyncPolicy::Batch).ok()?;
            Some(Box::new(SyncEachAppend(w)) as Box<dyn BucketStore>)
        }));
        let dir = store_dir(&root, &StoreId::Data { bucket: 0 });
        let keys: Vec<u64> = (0..).filter(|k| file.address_of(*k) == 0).take(3).collect();
        let payload = |k: u64| format!("bg-{k}").into_bytes();
        let wal_errors = |file: &LhrsFile| file.metrics().counter("wal_errors");

        file.insert(keys[0], payload(keys[0])).unwrap();
        wait_disk_idle();
        probe::fail_next_fsync(&dir);
        file.insert(keys[1], payload(keys[1])).unwrap(); // its fsync fails
        wait_disk_idle();
        assert_eq!(
            wal_errors(&file),
            0,
            "the failure surfaces at the next write"
        );
        assert!(FileWal::has_state(&dir));

        file.insert(keys[2], payload(keys[2])).unwrap();
        assert_eq!(wal_errors(&file), 1);
        assert!(
            !FileWal::has_state(&dir),
            "the poisoned store is reset, so a durable boot of it is Blank"
        );

        file.crash_data_bucket(0);
        assert!(
            file.restart_data_bucket_from_store(0).is_err(),
            "a poisoned store must refuse to resurrect"
        );
        let rec = file.check_group(0);
        assert!(rec.recovered, "{rec:?}");
        for k in keys {
            assert_eq!(file.lookup(k).unwrap(), Some(payload(k)), "acked key {k}");
        }
        fs::remove_dir_all(&root).unwrap();
    }
}
