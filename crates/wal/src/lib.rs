//! lhrs-wal: the file-backed [`BucketStore`] for durable LH\*RS buckets.
//!
//! Layout of one store directory (one per data bucket; parity columns keep
//! no store — a lost one is re-encoded from its group):
//!
//! ```text
//! <dir>/SNAPSHOT        magic "LHS1" + CRC frames: the latest bucket state,
//!                       then the first segment number it does not cover
//! <dir>/wal-<seq>.log   magic "LHW2", a CRC-framed header naming the segment
//!                       it follows and that one's length at the rotation,
//!                       then CRC frames (ops since the snapshot)
//! ```
//!
//! Every record is framed as `[LEB128 length][CRC-32 LE][payload]`, the
//! CRC covering the payload only. The CRC is the IEEE 802.3 one, computed
//! slicing-by-8 over compile-time tables: every logged byte passes through
//! it on the host thread. Appends go to the highest-numbered
//! segment; segments rotate at a size cap so truncation after a snapshot
//! is a directory scan + unlink, never an in-place rewrite.
//!
//! A rotation fsyncs nothing: the new segment's header records how long
//! its predecessor was, and replay stops at a predecessor that is shorter
//! than that or missing (a crash took its unsynced tail), so no op is ever
//! folded in over a hole.
//!
//! Snapshots are atomic: write `SNAPSHOT.tmp`, fsync, rename, fsync the
//! directory — a crash leaves either the old snapshot or the new one,
//! never a hybrid. The host thread only rotates to a fresh segment (the
//! snapshot's cover) and hands the state to the disk thread, which does
//! that I/O and then unlinks the covered segments. Until the rename lands
//! the old snapshot and every segment since replay to the same state;
//! segments older than the cover (an unlink the crash cut short) are
//! skipped and unlinked on the next open or replay. A snapshot of one
//! frame, written before the cover existed, covers none.
//!
//! One disk thread per process (`lhrs-wal-sync`) serves every store.
//! Under [`FsyncPolicy::Batch`] an append is a `write` on the caller's
//! thread and [`BucketStore::sync`] only queues the store for the disk
//! thread, which fsyncs its segments in the background. A store has at
//! most one job queued, and at most one snapshot pending: appends made
//! while the disk is busy ride on the next fsync, and a newer snapshot
//! replaces one the disk thread has not started. A background fsync or
//! snapshot that fails fails the store's next `append`, `snapshot` or
//! `sync`. Dropping a store writes its pending snapshot and fsyncs what
//! the disk thread has not covered yet; resetting one first waits out
//! its running job and drops its pending snapshot.
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

use lhrs_core::storage::{
    BucketStore, Durable, GroupCommits, Replay, StoreError, StoreId, TailState,
};
use lhrs_core::wire::{put_varint, Reader, WireError};
use lhrs_core::FsyncPolicy;

/// Magic prefix of a snapshot file.
const SNAP_MAGIC: &[u8; 4] = b"LHS1";
/// Magic prefix of a log segment: a header frame follows.
const SEG_MAGIC: &[u8; 4] = b"LHW2";
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
/// snapshotted byte passes through here, so it folds eight bytes per step
/// instead of one bit. The bytes it yields are those of the plain bitwise
/// definition (pinned by the tests below).
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

/// Append the length and CRC that frame `payload`, not the payload itself.
fn put_frame_head(out: &mut Vec<u8>, payload: &[u8]) {
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Encode one framed record.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_frame_head(out, payload);
    out.extend_from_slice(payload);
}

/// What one step of a frame walk found.
enum Frame<'a> {
    /// An intact payload, and the offset just past its frame.
    Intact(&'a [u8], usize),
    /// The buffer ends here, on a frame boundary.
    End,
    /// The frame here is torn or corrupt: why, and how much it drops.
    Bad(TailState),
}

/// The frame of `buf` starting at `pos`. Never panics; never reads past
/// the buffer.
fn next_frame(buf: &[u8], pos: usize) -> Frame<'_> {
    let rest = buf.get(pos..).unwrap_or_default();
    if rest.is_empty() {
        return Frame::End;
    }
    let bytes_dropped = rest.len() as u64;
    let torn = || Frame::Bad(TailState::Torn { bytes_dropped });
    let corrupt = |context: String| {
        Frame::Bad(TailState::Corrupt {
            context,
            bytes_dropped,
        })
    };
    let mut r = Reader::new(rest);
    let len = match r.varint() {
        Ok(len) => len,
        Err(WireError::VarintOverflow) => return corrupt("malformed frame length".into()),
        Err(_) => return torn(),
    };
    if len > MAX_FRAME_LEN {
        return corrupt(format!("frame claims {len} bytes"));
    }
    let Ok(len) = usize::try_from(len) else {
        return corrupt(format!("frame length {len} overflows"));
    };
    let (Ok(crc), Ok(payload)) = (r.u32le(), r.take(len)) else {
        return torn();
    };
    if crc32(payload) != crc {
        return corrupt("frame CRC mismatch".into());
    }
    Frame::Intact(payload, pos + rest.len() - r.remaining())
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
/// corrupt record.
fn scan_frames(buf: &[u8], start: usize) -> Scan {
    let mut frames = Vec::new();
    let mut pos = start;
    loop {
        let tail = match next_frame(buf, pos) {
            Frame::Intact(payload, next) => {
                frames.push(payload.to_vec());
                pos = next;
                continue;
            }
            Frame::End => TailState::Clean,
            Frame::Bad(tail) => tail,
        };
        return Scan {
            frames,
            clean_len: pos,
            tail,
        };
    }
}

// ----- segments -----

/// The head of a new segment: the magic, then one frame naming the segment
/// it follows and that one's length now (two `u64` LE; length 0 names
/// none).
fn segment_head(pred: Option<(u64, u64)>) -> Vec<u8> {
    let (seq, len) = pred.unwrap_or((0, 0));
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&len.to_le_bytes());
    let mut head = SEG_MAGIC.to_vec();
    put_frame(&mut head, &header);
    head
}

/// Where the frames of segment `buf` start, and the predecessor its header
/// names; `Err` with the tail to report when the head itself is unusable.
fn parse_head(buf: &[u8]) -> Result<(usize, Option<(u64, u64)>), TailState> {
    if buf.get(..SEG_MAGIC.len()) != Some(SEG_MAGIC.as_slice()) {
        return Err(TailState::Corrupt {
            context: "segment has no magic".into(),
            bytes_dropped: buf.len() as u64,
        });
    }
    match next_frame(buf, SEG_MAGIC.len()) {
        Frame::Intact(header, body) => {
            let pred = header.split_first_chunk::<8>().and_then(|(seq, len)| {
                let len = u64::from_le_bytes(<[u8; 8]>::try_from(len).ok()?);
                Some((u64::from_le_bytes(*seq), len))
            });
            match pred {
                Some((_, 0)) => Ok((body, None)),
                Some(pred) => Ok((body, Some(pred))),
                None => Err(TailState::Corrupt {
                    context: format!("segment header of {} bytes", header.len()),
                    bytes_dropped: buf.len() as u64,
                }),
            }
        }
        // Created but its header never written: a torn head.
        Frame::End => Err(TailState::Torn {
            bytes_dropped: buf.len() as u64,
        }),
        Frame::Bad(tail) => Err(tail),
    }
}

/// What reading a store's live segments in order found.
struct Log {
    /// The replayable ops, oldest first.
    ops: Vec<Vec<u8>>,
    /// `Clean`, or why the replayable log ends early.
    tail: TailState,
    /// How many of the segments hold replayable ops; those after them
    /// follow a hole and are never replayed.
    keep: usize,
    /// How to cut the last kept segment back to its replayable ops.
    repair: Option<Repair>,
}

/// How [`FileWal::open`] cuts a damaged segment back.
enum Repair {
    /// A torn or corrupt frame: keep this many bytes.
    Truncate(u64),
    /// An unusable magic or header: rewrite the head, naming no
    /// predecessor.
    Rehead,
}

/// Read the live segments `segs` (sorted) of a store whose snapshot covers
/// the segments below `first_live`, stopping at the first damage: an
/// unusable head, a torn or corrupt frame, or a segment whose header names
/// a live predecessor that is missing or shorter than it was at the
/// rotation. That predecessor lost a tail the segment's ops follow, and
/// folding them in would skip over the hole.
fn read_log(segs: &[(u64, PathBuf)], first_live: u64) -> Result<Log, StoreError> {
    let mut log = Log {
        ops: Vec::new(),
        tail: TailState::Clean,
        keep: segs.len(),
        repair: None,
    };
    let mut prev: Option<(u64, u64)> = None;
    for (i, (seq, path)) in segs.iter().enumerate() {
        let buf = fs::read(path).map_err(|e| io_err("read segment", &e))?;
        let (body, pred) = match parse_head(&buf) {
            Ok(head) => head,
            Err(tail) => {
                log.tail = tail;
                log.keep = i + 1;
                log.repair = Some(Repair::Rehead);
                break;
            }
        };
        if let Some((pred_seq, pred_len)) = pred {
            let chained = prev.is_some_and(|(seq, len)| seq == pred_seq && len >= pred_len);
            if pred_seq >= first_live && !chained {
                log.tail = TailState::Torn { bytes_dropped: 0 };
                log.keep = i;
                break;
            }
        }
        let scan = scan_frames(&buf, body);
        log.ops.extend(scan.frames);
        if !matches!(scan.tail, TailState::Clean) {
            log.tail = scan.tail;
            log.keep = i + 1;
            log.repair = Some(Repair::Truncate(scan.clean_len as u64));
            break;
        }
        prev = Some((*seq, buf.len() as u64));
    }
    Ok(log)
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
    /// The segment appends go to.
    seg: Arc<File>,
    seg_seq: u64,
    seg_len: u64,
    segment_cap: u64,
    appended: u64,
    op_bytes: u64,
    tail: TailState,
    /// What this store shares with the disk thread.
    disk: Arc<DiskState>,
    /// `disk.written` at the last hand-off: every append up to it is
    /// covered by an fsync that starts after it was written.
    requested: u64,
    /// Snapshots handed to the disk thread so far: the number of the last.
    snapshots: u64,
}

/// The state one store shares with the disk thread.
struct DiskState {
    /// The store's directory; it also names the store to the probe.
    dir: PathBuf,
    /// When appends are fsynced; under [`FsyncPolicy::Batch`] the disk
    /// thread does it, and tracks the segments to fsync.
    fsync: FsyncPolicy,
    /// The work handed to the disk thread and not yet taken.
    owed: Mutex<Owed>,
    /// Appends written to the kernel so far; only the store's own thread
    /// adds to it, with `Release`, so an fsync that reads a count with
    /// `Acquire` before it starts covers that many appends.
    written: AtomicU64,
    /// Appends known durable: covered by a finished fsync (under
    /// [`FsyncPolicy::Always`], the append's own), or made moot by a
    /// landed snapshot or a reset. Only grows.
    synced: AtomicU64,
    /// The number of the last snapshot landed (see [`Pending::nth`]).
    /// Only grows.
    landed: AtomicU64,
    /// A job for this store waits in the queue, not yet started. Read and
    /// written under the queue lock only.
    queued: AtomicBool,
    /// A background fsync or snapshot failed: the log may have a hole.
    failed: AtomicBool,
    /// Fsyncs finished since the store last reported them, and the appends
    /// they covered (statistics only).
    fsyncs: AtomicU64,
    fsync_ops: AtomicU64,
}

/// What a store owes the disk thread.
#[derive(Default)]
struct Owed {
    /// The snapshot to write; a newer one replaces it until a job takes it.
    snapshot: Option<Pending>,
    /// A sync asked for the appends written so far to be fsynced.
    fsync: bool,
    /// Under `Batch`: the segments that may hold appends no fsync has
    /// covered, oldest first; the last is the one appends go to. A segment
    /// joins before the first append into it, so a job that reads
    /// `written` and then takes these holds every append it counts.
    segs: Vec<(u64, Arc<File>)>,
    /// Under `Batch`: a segment was created whose directory entry may not
    /// be durable yet.
    new_entry: bool,
}

/// A snapshot handed to the disk thread.
struct Pending {
    /// The bucket state, moved in from the caller.
    state: Vec<u8>,
    /// The first segment it does not cover: the one started for it.
    cover: u64,
    /// Appends written before it was taken, all moot once it lands.
    written: u64,
    /// Its number among the store's snapshots, counted from 1 at open.
    nth: u64,
}

impl DiskState {
    fn new(dir: PathBuf, fsync: FsyncPolicy) -> DiskState {
        DiskState {
            dir,
            fsync,
            owed: Mutex::new(Owed::default()),
            written: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            landed: AtomicU64::new(0),
            queued: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            fsyncs: AtomicU64::new(0),
            fsync_ops: AtomicU64::new(0),
        }
    }

    /// Lock what the store owes. No code panics while holding it.
    fn owed(&self) -> MutexGuard<'_, Owed> {
        self.owed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Everything written so far is durable (or moot).
    fn mark_synced(&self) {
        self.synced
            .fetch_max(self.written.load(Ordering::Acquire), Ordering::AcqRel);
    }
}

// ----- the disk thread -----

struct Queue {
    /// The stores owed work, oldest request first.
    jobs: VecDeque<Arc<DiskState>>,
    /// The store whose job the disk thread is running.
    running: Option<Arc<DiskState>>,
    /// The disk thread exists.
    spawned: bool,
}

/// The process's one disk thread and its FIFO of jobs, at most one queued
/// per store.
struct Disk {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued.
    work: Condvar,
    /// Signalled when a job finishes.
    done: Condvar,
}

static DISK: Disk = Disk {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        running: None,
        spawned: false,
    }),
    work: Condvar::new(),
    done: Condvar::new(),
};

/// Lock the job queue. No code panics while holding it, and every update
/// leaves it valid, so a poisoned lock still guards a usable queue.
fn lock_queue() -> MutexGuard<'static, Queue> {
    DISK.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Queue a job for `state`'s store, spawning the disk thread on first use.
/// A job already queued for the store does this work too, since it takes
/// what the store owes only when it starts.
fn request(state: &Arc<DiskState>) -> Result<(), StoreError> {
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
            q = DISK.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        // From here on new work needs a new job.
        state.queued.store(false, Ordering::Relaxed);
        q.running = Some(Arc::clone(&state));
        drop(q);
        let (snapshot, fsync) = {
            let mut owed = state.owed();
            (owed.snapshot.take(), std::mem::take(&mut owed.fsync))
        };
        run_job(&state, snapshot, fsync);
        q = lock_queue();
        q.running = None;
        DISK.done.notify_all();
    }
}

/// One job: write the store's snapshot, then fsync its appends if a sync
/// asked for that. A failure is left for the store's next call to report.
fn run_job(state: &DiskState, snapshot: Option<Pending>, fsync: bool) {
    if let Some(snapshot) = snapshot {
        if write_snapshot(state, snapshot).is_err() {
            state.failed.store(true, Ordering::Release);
        }
    }
    if fsync {
        fsync_appends(state);
    }
}

/// Make `snap` the store's snapshot: write `SNAPSHOT.tmp`, fsync it, rename
/// it over `SNAPSHOT`, fsync the directory, unlink the covered segments.
/// Whether a crash comes before or after the rename, the snapshot on disk
/// and the segments it does not cover replay to the state the host had.
fn write_snapshot(state: &DiskState, snap: Pending) -> Result<(), StoreError> {
    let dir = &state.dir;
    let Pending {
        state: bytes,
        cover,
        written,
        nth,
    } = snap;
    let tmp = dir.join("SNAPSHOT.tmp");
    {
        let mut head = SNAP_MAGIC.to_vec();
        put_frame_head(&mut head, &bytes);
        let mut cover_frame = Vec::with_capacity(16);
        put_frame(&mut cover_frame, &cover.to_le_bytes());
        let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot tmp", &e))?;
        for part in [&head, &bytes, &cover_frame] {
            f.write_all(part)
                .map_err(|e| io_err("write snapshot", &e))?;
        }
        drop(bytes);
        probe::fault(dir, "snapshot_tmp_fsync", Some(&f))
            .map_or_else(|| f.sync_all(), Err)
            .map_err(|e| io_err("sync snapshot", &e))?;
        probe::record(dir, "snapshot_tmp_fsync");
    }
    probe::fault(dir, "snapshot_rename", None)
        .map_or_else(|| fs::rename(&tmp, dir.join("SNAPSHOT")), Err)
        .map_err(|e| io_err("rename snapshot", &e))?;
    probe::record(dir, "snapshot_rename");
    if let Some(e) = probe::fault(dir, "snapshot_renamed", None) {
        return Err(io_err("after snapshot rename", &e));
    }
    // This fsync also makes every segment entry created so far durable.
    state.owed().new_entry = false;
    sync_dir(dir);
    // The covered segments are moot: unlink them and owe them no fsync.
    live_segments(dir, cover)?;
    state.owed().segs.retain(|(seq, _)| *seq >= cover);
    state.synced.fetch_max(written, Ordering::AcqRel);
    state.landed.fetch_max(nth, Ordering::AcqRel);
    Ok(())
}

/// Fsync every segment that may hold appends no fsync covers, oldest
/// first, and the directory before the newest if a new segment's entry
/// may not be durable; then record what that covered, or that it failed.
fn fsync_appends(state: &DiskState) {
    // Count first, then take the segments (see `Owed::segs`).
    let covered = state.written.load(Ordering::Acquire);
    if state.synced.load(Ordering::Acquire) >= covered {
        return;
    }
    let (segs, new_entry) = {
        let mut owed = state.owed();
        let current: Vec<_> = owed.segs.last().cloned().into_iter().collect();
        (
            std::mem::replace(&mut owed.segs, current),
            std::mem::take(&mut owed.new_entry),
        )
    };
    let Some(((_, current), older)) = segs.split_last() else {
        return;
    };
    let mut result = Ok(());
    for (_, seg) in older {
        result = result.and_then(|()| seg.sync_data());
        probe::record(&state.dir, "segment_sync");
    }
    if new_entry {
        sync_dir(&state.dir);
    }
    result = result.and_then(|()| {
        probe::fault(&state.dir, "append_fsync", Some(current))
            .map_or_else(|| current.sync_data(), Err)
    });
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

/// Block until the disk thread has no job queued or running: every
/// snapshot and [`FsyncPolicy::Batch`] sync handed off before the call has
/// finished (or failed).
pub fn wait_disk_idle() {
    let mut q = lock_queue();
    while q.running.is_some() || !q.jobs.is_empty() {
        q = DISK.done.wait(q).unwrap_or_else(PoisonError::into_inner);
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
/// the thread that ran it, and the tests assert the order directly — and
/// copy a store's directory while the disk thread is held between two
/// steps, which is what a `SIGKILL` there leaves behind. The probe is
/// process-global so it sees the disk thread; keying every event by
/// directory keeps tests running in parallel apart.
#[cfg(test)]
mod probe {
    use std::fs::File;
    use std::path::{Path, PathBuf};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;

    /// One recorded IO step: its store, its name, its thread's name.
    type Event = (PathBuf, &'static str, String);

    /// A held step: its store, its name, where to report that it was
    /// reached (with the length of the file it is about to fsync, or 0),
    /// what to wait on.
    type Pause = (PathBuf, &'static str, Sender<u64>, Receiver<()>);

    static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    /// Steps whose next run fails, by store.
    static FAIL: Mutex<Vec<(PathBuf, &'static str)>> = Mutex::new(Vec::new());
    /// Steps whose next run reports and waits, by store.
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

    /// Whether `dir` has recorded `ev` (the events stay for `take`).
    pub fn seen(dir: &Path, ev: &str) -> bool {
        EVENTS
            .lock()
            .unwrap()
            .iter()
            .any(|e| e.0 == dir && e.1 == ev)
    }

    /// Make the next `step` of `dir`'s disk work fail.
    pub fn fail_next(dir: &Path, step: &'static str) {
        FAIL.lock().unwrap().push((dir.to_path_buf(), step));
    }

    /// Hold the next `step` of `dir`'s disk work: once reached it sends the
    /// length of the file it is about to fsync (0 for other steps) on the
    /// first channel, then waits for a message on the second.
    pub fn pause_next(dir: &Path, step: &'static str) -> (Receiver<u64>, Sender<()>) {
        let (started_tx, started_rx) = channel();
        let (resume_tx, resume_rx) = channel();
        PAUSE
            .lock()
            .unwrap()
            .push((dir.to_path_buf(), step, started_tx, resume_rx));
        (started_rx, resume_tx)
    }

    /// Run before `step` of `dir`: honour a pause, and return the injected
    /// error in place of the step's own.
    pub fn fault(dir: &Path, step: &str, file: Option<&File>) -> Option<std::io::Error> {
        let paused = {
            let mut pauses = PAUSE.lock().unwrap();
            let at = pauses.iter().position(|p| p.0 == dir && p.1 == step);
            at.map(|at| pauses.remove(at))
        };
        if let Some((_, _, started, resume)) = paused {
            let len = file.and_then(|f| f.metadata().ok()).map_or(0, |m| m.len());
            // A test that died holding the pause must not take the disk
            // thread, which every other test shares, with it.
            let _ = started.send(len);
            let _ = resume.recv();
        }
        let mut fails = FAIL.lock().unwrap();
        let at = fails.iter().position(|f| f.0 == dir && f.1 == step)?;
        fails.remove(at);
        Some(std::io::Error::other(format!("injected {step} failure")))
    }
}

#[cfg(not(test))]
mod probe {
    use std::fs::File;
    use std::path::Path;

    pub fn record(_dir: &Path, _ev: &'static str) {}

    pub fn fault(_dir: &Path, _step: &str, _file: Option<&File>) -> Option<std::io::Error> {
        None
    }
}

/// Create segment `seq` of `dir`, its header naming `pred`; returns the
/// file and its length.
fn create_segment(
    dir: &Path,
    seq: u64,
    pred: Option<(u64, u64)>,
) -> Result<(Arc<File>, u64), StoreError> {
    let path = dir.join(format!("wal-{seq}.log"));
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err("create segment", &e))?;
    let head = segment_head(pred);
    f.write_all(&head)
        .map_err(|e| io_err("write segment head", &e))?;
    probe::record(dir, "segment_create");
    Ok((Arc::new(f), head.len() as u64))
}

/// Fsync a directory so a rename/create inside it is durable (best-effort
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
/// their unlink leaves them behind. The unlinks need no directory fsync:
/// a segment the crash brings back is below the cover again.
fn live_segments(dir: &Path, first: u64) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let (covered, live): (Vec<_>, Vec<_>) = segments(dir)?
        .into_iter()
        .partition(|(seq, _)| *seq < first);
    for (_, path) in covered {
        let _ = fs::remove_file(path);
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
        let log = read_log(&segs, first_live)?;
        let mut tail = log.tail;
        let kept = log.keep.checked_sub(1).and_then(|last| segs.get(last));
        if let (Some((_, path)), Some(repair)) = (kept, log.repair) {
            match repair {
                // Appends can continue after a fresh head.
                Repair::Rehead => {
                    let _ = fs::write(path, segment_head(None));
                }
                Repair::Truncate(len) => {
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| io_err("open segment for repair", &e))?;
                    f.set_len(len)
                        .map_err(|e| io_err("truncate torn tail", &e))?;
                    let _ = f.sync_all();
                }
            }
        }
        // Unlink segments past the end: their contents follow a hole in
        // the op sequence and can never be replayed.
        for (_, path) in segs.iter().skip(log.keep) {
            if let TailState::Torn { bytes_dropped } | TailState::Corrupt { bytes_dropped, .. } =
                &mut tail
            {
                if let Ok(meta) = fs::metadata(path) {
                    *bytes_dropped += meta.len();
                }
            }
            let _ = fs::remove_file(path);
        }

        let (seg_seq, seg, seg_len, created) = match kept {
            Some((seq, path)) => {
                let f = OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| io_err("open segment", &e))?;
                let len = f
                    .metadata()
                    .map_err(|e| io_err("segment metadata", &e))?
                    .len();
                (*seq, Arc::new(f), len, false)
            }
            // Numbered past the snapshot's cover, or replay would skip it.
            None => {
                let (seg, len) = create_segment(&dir, first_live, None)?;
                (first_live, seg, len, true)
            }
        };
        let disk = Arc::new(DiskState::new(dir, fsync));
        if fsync == FsyncPolicy::Batch {
            let mut owed = disk.owed();
            owed.segs.push((seg_seq, Arc::clone(&seg)));
            owed.new_entry = created;
        }
        Ok(FileWal {
            disk,
            seg,
            seg_seq,
            seg_len,
            segment_cap: DEFAULT_SEGMENT_CAP,
            appended: log.ops.len() as u64,
            op_bytes: log.ops.iter().map(|op| op.len() as u64).sum(),
            tail,
            requested: 0,
            snapshots: 0,
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

    /// Fail if a background fsync or snapshot failed: the log may have a
    /// hole, or the snapshot the log was cut for may be missing.
    fn check_disk(&self) -> Result<(), StoreError> {
        if self.disk.failed.load(Ordering::Acquire) {
            return Err(StoreError::Io(format!(
                "background write to {} failed",
                self.disk.dir.display()
            )));
        }
        Ok(())
    }

    /// Wait out a job of this store the disk thread is running, and take
    /// back the snapshot it has not started. Until the store hands it new
    /// work, the disk thread then changes nothing in the store's directory.
    fn settle(&self) -> Option<Pending> {
        let mut q = lock_queue();
        while q
            .running
            .as_ref()
            .is_some_and(|running| Arc::ptr_eq(running, &self.disk))
        {
            probe::record(&self.disk.dir, "settle_wait");
            q = DISK.done.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        let pending = self.disk.owed().snapshot.take();
        drop(q);
        pending
    }

    /// Create segment `seg_seq`, its header naming `pred`, and direct
    /// appends to it.
    fn start_segment(&mut self, pred: Option<(u64, u64)>) -> Result<(), StoreError> {
        let (seg, len) = create_segment(&self.disk.dir, self.seg_seq, pred)?;
        self.seg = seg;
        self.seg_len = len;
        if self.disk.fsync == FsyncPolicy::Batch {
            let mut owed = self.disk.owed();
            owed.segs.push((self.seg_seq, Arc::clone(&self.seg)));
            owed.new_entry = true;
        }
        Ok(())
    }

    /// Start the next segment. Its header names this one and its length
    /// now, so this one's unsynced tail needs no fsync here: a crash that
    /// loses it stops replay at the hole instead of folding the new
    /// segment's ops over it. Under `Always` every append is fsynced
    /// already, and the new entry is made durable before an op acked from
    /// the new segment can depend on it.
    fn rotate(&mut self) -> Result<(), StoreError> {
        let pred = (self.seg_seq, self.seg_len);
        self.seg_seq += 1;
        self.start_segment(Some(pred))?;
        if self.disk.fsync == FsyncPolicy::Always {
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
        let written = self.disk.written.fetch_add(1, Ordering::Release) + 1;
        self.seg_len += frame.len() as u64;
        self.appended += 1;
        self.op_bytes += op.len() as u64;
        if self.disk.fsync == FsyncPolicy::Always {
            self.seg.sync_data().map_err(|e| io_err("fsync", &e))?;
            probe::record(&self.disk.dir, "append_fsync");
            self.disk.synced.fetch_max(written, Ordering::AcqRel);
        }
        if self.seg_len >= self.segment_cap {
            self.rotate()?;
        }
        Ok(())
    }

    /// Rotate to the snapshot's cover segment and hand `state` to the disk
    /// thread, which writes it (see the crate docs).
    fn snapshot(&mut self, state: Vec<u8>) -> Result<(), StoreError> {
        self.check_disk()?;
        let written = self.disk.written.load(Ordering::Relaxed);
        // Ops from here on go to segments the snapshot does not cover.
        self.rotate()?;
        self.snapshots += 1;
        self.disk.owed().snapshot = Some(Pending {
            state,
            cover: self.seg_seq,
            written,
            nth: self.snapshots,
        });
        request(&self.disk)?;
        self.appended = 0;
        self.op_bytes = 0;
        self.tail = TailState::Clean;
        Ok(())
    }

    fn replay(&mut self) -> Result<Replay, StoreError> {
        // Land a pending snapshot first, so the directory holds still.
        if let Some(pending) = self.settle() {
            if write_snapshot(&self.disk, pending).is_err() {
                self.disk.failed.store(true, Ordering::Release);
            }
        }
        let (snapshot, first_live) = match read_snapshot(&self.disk.dir)? {
            Some((state, first)) => (Some(state), first),
            None => (None, 0),
        };
        let log = read_log(&live_segments(&self.disk.dir, first_live)?, first_live)?;
        let tail = match log.tail {
            TailState::Clean => self.tail.clone(),
            damaged => damaged,
        };
        Ok(Replay {
            snapshot,
            ops: log.ops,
            tail,
        })
    }

    fn reset(&mut self) -> Result<(), StoreError> {
        // A snapshot that lands after the erase would resurrect the state
        // it held: wait out a running one, and drop a pending one.
        drop(self.settle());
        let _ = fs::remove_file(self.disk.dir.join("SNAPSHOT"));
        let _ = fs::remove_file(self.disk.dir.join("SNAPSHOT.tmp"));
        for (_, path) in segments(&self.disk.dir)? {
            let _ = fs::remove_file(path);
        }
        sync_dir(&self.disk.dir);
        self.disk.owed().segs.clear();
        self.seg_seq = 0;
        self.start_segment(None)?;
        sync_dir(&self.disk.dir);
        self.appended = 0;
        self.op_bytes = 0;
        self.tail = TailState::Clean;
        // The erased log has no hole left to report.
        self.disk.failed.store(false, Ordering::Release);
        self.disk.mark_synced();
        self.requested = self.disk.written.load(Ordering::Relaxed);
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
        if self.disk.fsync == FsyncPolicy::Batch && written > self.requested {
            self.disk.owed().fsync = true;
            request(&self.disk)?;
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

    /// Under `Batch` an append is durable once a finished fsync covers
    /// it, under `Always` at the append, under `Never` only once a landed
    /// snapshot makes it moot; a snapshot, once its rename is fsynced.
    fn durable(&self) -> Durable {
        Durable {
            appends: self.disk.synced.load(Ordering::Acquire),
            snapshots: self.disk.landed.load(Ordering::Acquire),
        }
    }
}

impl Drop for FileWal {
    /// A clean shutdown leaves the snapshot written and every append
    /// synced: on this thread, land the snapshot the disk thread has not
    /// started and fsync what it has not covered, so no segment's replay
    /// depends on an unsynced predecessor.
    fn drop(&mut self) {
        let pending = self.settle();
        run_job(&self.disk, pending, self.disk.fsync == FsyncPolicy::Batch);
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
    fn append_snapshot_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        w.snapshot(b"state-1".to_vec()).unwrap();
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
        w.snapshot(b"state-2".to_vec()).unwrap();
        wait_disk_idle();
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
        w.snapshot(b"base".to_vec()).unwrap();
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
        w.snapshot(b"base".to_vec()).unwrap();
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
        w.snapshot(b"base".to_vec()).unwrap();
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
        w.snapshot(b"important-state".to_vec()).unwrap();
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
        w.snapshot(b"state".to_vec()).unwrap();
        w.append(b"op").unwrap();
        w.reset().unwrap();
        wait_disk_idle();
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

    /// The position of the first `needle` in `ev`.
    fn pos(ev: &[&'static str], needle: &str) -> usize {
        ev.iter()
            .position(|e| *e == needle)
            .unwrap_or_else(|| panic!("{needle} missing from {ev:?}"))
    }

    #[test]
    fn rotation_and_snapshot_rename_are_durable_ordered() {
        // `MemDisk` has no directory model, so this asserts the *sequence*
        // of durability-relevant IO calls via the probe (crate docs on
        // `mod probe`), all of them on the disk thread: after a rotation
        // the old segment's data reaches disk and the new segment's
        // directory entry is sync_dir'd before the fsync that makes an op
        // in it durable; a snapshot fsyncs the tmp file before the rename
        // and sync_dirs after it, which also covers the fresh segment the
        // host started for it.
        let dir = temp_dir("ordered");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch)
            .unwrap()
            .with_segment_cap(64);
        let _ = events(&dir); // discard open()'s events

        while segments(&dir).unwrap().len() < 2 {
            w.append(&[7u8; 8]).unwrap();
        }
        w.append(b"in-the-new-one").unwrap();
        w.sync().unwrap();
        wait_disk_idle();
        let all = probe::take(&dir);
        let on_disk: Vec<&'static str> = all
            .iter()
            .filter(|(_, t)| t == "lhrs-wal-sync")
            .map(|(e, _)| *e)
            .collect();
        assert!(
            pos(&on_disk, "segment_sync") < pos(&on_disk, "sync_dir"),
            "old segment data must be durable before the new entry: {all:?}"
        );
        assert!(
            pos(&on_disk, "sync_dir") < pos(&on_disk, "append_fsync"),
            "the new entry must be durable before the op in it: {all:?}"
        );

        w.snapshot(b"state".to_vec()).unwrap();
        wait_disk_idle();
        let ev = events(&dir);
        assert!(pos(&ev, "segment_create") < pos(&ev, "snapshot_tmp_fsync"));
        assert!(
            pos(&ev, "snapshot_tmp_fsync") < pos(&ev, "snapshot_rename"),
            "{ev:?}"
        );
        assert!(pos(&ev, "snapshot_rename") < pos(&ev, "sync_dir"), "{ev:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn host_thread_issues_no_fsync_sync_dir_or_rename_under_batch() {
        let dir = temp_dir("host-io");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch)
            .unwrap()
            .with_segment_cap(64);
        let _ = probe::take(&dir);
        for round in 0..3u8 {
            w.snapshot(vec![round; 32]).unwrap();
            // Enough to cross the cap more than once.
            for i in 0..12u8 {
                w.append(&[i; 8]).unwrap();
                w.sync().unwrap();
            }
        }
        wait_disk_idle();
        let ev = probe::take(&dir);
        let me = std::thread::current().name().unwrap_or("").to_owned();
        let mine: Vec<&str> = ev
            .iter()
            .filter(|(_, thread)| *thread == me)
            .map(|(e, _)| *e)
            .collect();
        assert!(
            mine.iter().all(|e| *e == "segment_create"),
            "the calling thread may only create segments: {mine:?}"
        );
        assert!(
            mine.len() > 3,
            "snapshots and cap rotations both started segments: {mine:?}"
        );
        for step in [
            "snapshot_tmp_fsync",
            "snapshot_rename",
            "sync_dir",
            "append_fsync",
        ] {
            assert!(
                ev.iter()
                    .any(|(e, thread)| *e == step && thread == "lhrs-wal-sync"),
                "the disk thread ran {step}: {ev:?}"
            );
        }
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_segment_beside_a_newer_snapshot_is_not_replayed() {
        let dir = temp_dir("cover");
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        w.append(b"old-op").unwrap(); // wal-0
        w.snapshot(b"state".to_vec()).unwrap(); // covers wal-0; appends go to wal-1
        w.append(b"new-op").unwrap();
        drop(w);
        // A crash between the snapshot's rename and its unlinks leaves
        // wal-0 behind, full of ops the snapshot already holds.
        let mut stale = segment_head(None);
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

    /// Three segments: `a` in wal-0, `b` in wal-1, `c` in wal-2, each
    /// rotated by the cap; no snapshot, so every one is live.
    fn three_segment_store(tag: &str) -> PathBuf {
        let dir = temp_dir(tag);
        let mut w = FileWal::open(&dir, FsyncPolicy::Never)
            .unwrap()
            .with_segment_cap(64);
        for op in [b'a', b'b', b'c'] {
            // A 34-byte payload frames to 39 bytes: the head plus one
            // frame reaches the cap, so each op ends its segment.
            w.append(&[op; 34]).unwrap();
        }
        drop(w);
        let seqs: Vec<u64> = segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(seqs, [0, 1, 2, 3], "one op per segment, then an empty one");
        dir
    }

    #[test]
    fn a_predecessor_shorter_than_its_successor_header_stops_replay() {
        let op = |b: u8| vec![b; 34];
        let intact = three_segment_store("chain");
        let mut w = FileWal::open(&intact, FsyncPolicy::Never).unwrap();
        assert_eq!(w.replay().unwrap().ops, [op(b'a'), op(b'b'), op(b'c')]);
        drop(w);

        // wal-1 lost its unsynced op, cut at the frame boundary: it scans
        // clean on its own, but wal-2's header says it was longer.
        let dir = three_segment_store("short");
        let wal1 = dir.join("wal-1.log");
        let head = segment_head(Some((0, 0))).len();
        let buf = fs::read(&wal1).unwrap();
        fs::write(&wal1, &buf[..head]).unwrap();
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        let rep = w.replay().unwrap();
        assert_eq!(rep.ops, [op(b'a')], "c must not be folded in over b's hole");
        assert!(matches!(rep.tail, TailState::Torn { .. }), "{:?}", rep.tail);
        assert!(
            !dir.join("wal-2.log").exists(),
            "open unlinks past the hole"
        );
        // Appends continue in the short segment, and the next open keeps
        // them.
        w.append(b"after").unwrap();
        drop(w);
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(w.replay().unwrap().ops, [op(b'a'), b"after".to_vec()]);
        drop(w);

        // Planted after the open, replay stops there by itself.
        let live = three_segment_store("short-live");
        let mut w = FileWal::open(&live, FsyncPolicy::Never).unwrap();
        let buf = fs::read(live.join("wal-1.log")).unwrap();
        fs::write(live.join("wal-1.log"), &buf[..head]).unwrap();
        let rep = w.replay().unwrap();
        assert_eq!(rep.ops, [op(b'a')]);
        assert!(matches!(rep.tail, TailState::Torn { .. }), "{:?}", rep.tail);
        drop(w);

        // A missing predecessor is a hole too.
        let missing = three_segment_store("missing");
        fs::remove_file(missing.join("wal-1.log")).unwrap();
        let mut w = FileWal::open(&missing, FsyncPolicy::Never).unwrap();
        let rep = w.replay().unwrap();
        assert_eq!(rep.ops, [op(b'a')]);
        assert!(matches!(rep.tail, TailState::Torn { .. }), "{:?}", rep.tail);
        drop(w);

        // A headerless "LHW1" segment, as written before the chain, is a
        // corrupt head now, not replayed ops.
        let legacy = temp_dir("legacy");
        fs::create_dir_all(&legacy).unwrap();
        let mut seg = b"LHW1".to_vec();
        put_frame(&mut seg, b"x");
        fs::write(legacy.join("wal-0.log"), seg).unwrap();
        let mut w = FileWal::open(&legacy, FsyncPolicy::Never).unwrap();
        let rep = w.replay().unwrap();
        assert!(rep.ops.is_empty() && matches!(rep.tail, TailState::Corrupt { .. }));
        drop(w);
        for d in [intact, dir, live, missing, legacy] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn batch_sync_never_fsyncs_on_the_calling_thread() {
        let dir = temp_dir("offthread");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch).unwrap();
        w.snapshot(b"base".to_vec()).unwrap();
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
        let (started, resume) = probe::pause_next(&dir, "append_fsync");
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

    /// Under `Batch` an append counts as durable once a finished fsync
    /// covers it, and a snapshot once it has landed (which also covers
    /// the appends before it).
    #[test]
    fn batch_durability_moves_with_finished_fsyncs_and_landed_snapshots() {
        let dir = temp_dir("durable-batch");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch).unwrap();
        let (started, resume) = probe::pause_next(&dir, "append_fsync");
        w.append(b"a").unwrap();
        w.append(b"b").unwrap();
        assert_eq!(w.durable(), Durable::default(), "written, not fsynced");
        w.sync().unwrap();
        started.recv().unwrap(); // the fsync covering a and b is running
        assert_eq!(w.durable(), Durable::default(), "not finished yet");
        resume.send(()).unwrap();
        wait_disk_idle();
        let synced = Durable {
            appends: 2,
            snapshots: 0,
        };
        assert_eq!(w.durable(), synced);

        let (reached, resume) = probe::pause_next(&dir, "snapshot_rename");
        w.append(b"c").unwrap();
        w.snapshot(b"state".to_vec()).unwrap();
        reached.recv().unwrap(); // held just before its rename
        assert_eq!(w.durable(), synced, "c and the snapshot are in flight");
        resume.send(()).unwrap();
        wait_disk_idle();
        assert_eq!(
            w.durable(),
            Durable {
                appends: 3,
                snapshots: 1
            },
            "the landed snapshot covers c"
        );
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Under `Always` an append is durable when it returns; under `Never`
    /// only a landed snapshot makes anything durable.
    #[test]
    fn always_durability_is_per_append_and_never_waits_for_snapshots() {
        let dir = temp_dir("durable-always");
        let mut w = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        w.append(b"a").unwrap();
        assert_eq!(w.durable().appends, 1);
        w.append(b"b").unwrap();
        assert_eq!(w.durable().appends, 2);
        drop(w);
        fs::remove_dir_all(&dir).unwrap();

        let dir = temp_dir("durable-never");
        let mut w = FileWal::open(&dir, FsyncPolicy::Never).unwrap();
        w.append(b"a").unwrap();
        w.sync().unwrap();
        wait_disk_idle();
        assert_eq!(w.durable(), Durable::default(), "no fsync under Never");
        let (reached, resume) = probe::pause_next(&dir, "snapshot_rename");
        w.snapshot(b"state".to_vec()).unwrap();
        w.append(b"b").unwrap();
        reached.recv().unwrap();
        assert_eq!(w.durable(), Durable::default(), "not landed yet");
        resume.send(()).unwrap();
        wait_disk_idle();
        assert_eq!(
            w.durable(),
            Durable {
                appends: 1,
                snapshots: 1
            },
            "the landing covers a, not b"
        );
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queued_fsync_follows_a_rotation_to_the_new_segment() {
        let dir = temp_dir("rotated");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch)
            .unwrap()
            .with_segment_cap(64);
        let (first, resume_first) = probe::pause_next(&dir, "append_fsync");
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
        let (second, resume_second) = probe::pause_next(&dir, "append_fsync");
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

    #[test]
    fn reset_during_a_paused_snapshot_job_leaves_no_snapshot() {
        let dir = temp_dir("reset-race");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch).unwrap();
        let (reached, resume) = probe::pause_next(&dir, "snapshot_rename");
        w.snapshot(b"running".to_vec()).unwrap();
        reached.recv().unwrap(); // held just before its rename
        w.snapshot(b"pending".to_vec()).unwrap();
        let resetter = std::thread::spawn(move || {
            w.reset().unwrap();
            w
        });
        // Let the job go once the reset is waiting on it (bounded, so a
        // reset that does not wait fails the assertion below, not the run).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !probe::seen(&dir, "settle_wait") && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        resume.send(()).unwrap();
        let mut w = resetter.join().unwrap();
        wait_disk_idle();
        assert!(
            !FileWal::has_state(&dir),
            "neither the running nor the pending snapshot outlives the reset"
        );
        let rep = w.replay().unwrap();
        assert!(rep.snapshot.is_none() && rep.ops.is_empty());
        drop(w);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_lands_a_pending_snapshot_itself() {
        // Hold the disk thread on another store, so this one's snapshot
        // is still pending when the store is dropped.
        let blocker_dir = temp_dir("blocker");
        let mut blocker = FileWal::open(&blocker_dir, FsyncPolicy::Batch).unwrap();
        let (reached, resume) = probe::pause_next(&blocker_dir, "snapshot_rename");
        blocker.snapshot(b"blocker".to_vec()).unwrap();
        reached.recv().unwrap();

        let dir = temp_dir("drop-pending");
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch).unwrap();
        w.append(b"covered").unwrap();
        w.snapshot(b"state".to_vec()).unwrap();
        w.append(b"after").unwrap();
        let _ = probe::take(&dir);
        drop(w);
        let me = std::thread::current().name().unwrap_or("").to_owned();
        let ev = probe::take(&dir);
        assert!(
            ev.iter().any(|(e, t)| *e == "snapshot_rename" && *t == me)
                && ev.iter().any(|(e, t)| *e == "append_fsync" && *t == me),
            "the drop landed the snapshot, then fsynced the append after it: {ev:?}"
        );
        let (state, cover) = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!((state.as_slice(), cover), (&b"state"[..], 1));
        assert!(!dir.join("wal-0.log").exists());

        resume.send(()).unwrap();
        wait_disk_idle();
        drop(blocker);
        let mut w = FileWal::open(&dir, FsyncPolicy::Batch).unwrap();
        assert_eq!(w.replay().unwrap().ops, vec![b"after".to_vec()]);
        drop(w);
        for d in [dir, blocker_dir] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    /// `NodeHost::poll`'s sync pass in miniature: each append is followed
    /// by the hand-off the host makes at the end of a poll batch.
    struct SyncEachAppend(FileWal);

    impl BucketStore for SyncEachAppend {
        fn append(&mut self, op: &[u8]) -> Result<(), StoreError> {
            self.0.append(op)?;
            self.0.sync()
        }
        fn snapshot(&mut self, state: Vec<u8>) -> Result<(), StoreError> {
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
        fn durable(&self) -> Durable {
            self.0.durable()
        }
    }

    /// A simulated file whose data buckets log to `FileWal`s under `root`
    /// (`Batch`, synced after every append), snapshotting every
    /// `snapshot_every` appends.
    fn durable_file(root: &Path, snapshot_every: u64) -> LhrsFile {
        let cfg = Config {
            ack_writes: true,
            ack_parity: true,
            bucket_capacity: 1000,
            wal_snapshot_every: snapshot_every,
            ..Config::default()
        };
        let mut file = LhrsFile::new(cfg).unwrap();
        let factory_root = root.to_path_buf();
        file.install_store_factory(Rc::new(move |_node, id| {
            let w = FileWal::open(store_dir(&factory_root, id), FsyncPolicy::Batch).ok()?;
            Some(Box::new(SyncEachAppend(w)) as Box<dyn BucketStore>)
        }));
        file
    }

    fn payload(k: u64) -> Vec<u8> {
        format!("bg-{k}").into_bytes()
    }

    /// Keys of bucket 0 (the file never splits at this capacity).
    fn bucket0_keys(file: &LhrsFile, n: usize) -> Vec<u64> {
        (0..).filter(|k| file.address_of(*k) == 0).take(n).collect()
    }

    /// A disk-thread failure at `step` during the second insert poisons
    /// the store: the next insert resets it, counts one `wal_errors`, and
    /// the bucket can no longer resurrect from it; its group rebuilds it.
    fn background_failure_poisons_the_store(tag: &str, step: &'static str, snapshot_every: u64) {
        let root = temp_dir(tag);
        let mut file = durable_file(&root, snapshot_every);
        let dir = store_dir(&root, &StoreId::Data { bucket: 0 });
        let keys = bucket0_keys(&file, 3);
        let wal_errors = |file: &LhrsFile| file.metrics().counter("wal_errors");

        file.insert(keys[0], payload(keys[0])).unwrap();
        wait_disk_idle();
        probe::fail_next(&dir, step);
        file.insert(keys[1], payload(keys[1])).unwrap(); // its disk job fails
        wait_disk_idle();
        assert_eq!(
            wal_errors(&file),
            0,
            "the failure surfaces at the next write"
        );
        assert!(FileWal::has_state(&dir));

        file.insert(keys[2], payload(keys[2])).unwrap();
        assert_eq!(wal_errors(&file), 1);
        wait_disk_idle();
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
        // The rebuilt bucket's store may still be writing its snapshot.
        drop(file);
        wait_disk_idle();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failed_background_fsync_poisons_the_store() {
        background_failure_poisons_the_store("bgfail", "append_fsync", 1024);
    }

    #[test]
    fn failed_background_snapshot_poisons_the_store() {
        background_failure_poisons_the_store("bgsnapfail", "snapshot_tmp_fsync", 2);
    }

    /// Copy every file of `from` into a fresh `to`.
    fn copy_dir(from: &Path, to: &Path) {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }

    /// Hold bucket 0's next snapshot job at `step`, copy its store
    /// directory there — what a `SIGKILL` at that moment leaves — and
    /// boot the bucket from the copy: every acked key reads back and
    /// parity still equals RS(data).
    fn killed_mid_snapshot_boots_to_the_acked_state(tag: &str, step: &'static str) {
        let root = temp_dir(tag);
        let mut file = durable_file(&root, 8);
        let dir = store_dir(&root, &StoreId::Data { bucket: 0 });
        let keys = bucket0_keys(&file, 40);
        let mut keys = keys.into_iter();
        let mut acked = Vec::new();
        let mut insert = |file: &mut LhrsFile, acked: &mut Vec<u64>| {
            let k = keys.next().unwrap();
            file.insert(k, payload(k)).unwrap();
            acked.push(k);
        };
        for _ in 0..3 {
            insert(&mut file, &mut acked);
        }
        wait_disk_idle();

        let (reached, resume) = probe::pause_next(&dir, step);
        let snapshots = file.metrics().counter("wal_snapshots");
        while file.metrics().counter("wal_snapshots") == snapshots {
            insert(&mut file, &mut acked);
        }
        reached.recv().unwrap();
        // Acked while the job is held: these live in the new segment.
        for _ in 0..3 {
            insert(&mut file, &mut acked);
        }
        let killed = root.join("killed");
        copy_dir(&dir, &killed);
        // The copy is behind the parity group by whatever is acked after
        // it: the restart's Δ-suffix must bring those back. They are acked
        // while the job is still held, so none of them is durable yet and
        // no Δ can carry a watermark past the copy: a store never reports
        // as durable what its crash state lacks.
        for _ in 0..2 {
            insert(&mut file, &mut acked);
        }
        resume.send(()).unwrap();
        wait_disk_idle();
        file.crash_data_bucket(0);
        fs::remove_dir_all(&dir).unwrap();
        fs::rename(&killed, &dir).unwrap();
        assert_eq!(file.restart_data_bucket_from_store(0), Ok(true));
        assert_eq!(
            file.metrics().counter("restart_suffix_entries"),
            2,
            "the copy replays every op acked before it; the suffix brings only the rest"
        );
        for k in &acked {
            assert_eq!(file.lookup(*k).unwrap(), Some(payload(*k)), "acked key {k}");
        }
        file.verify_integrity().unwrap();
        assert_eq!(file.metrics().counter("wal_errors"), 0);
        drop(file);
        wait_disk_idle();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_kill_before_the_snapshot_rename_boots_to_the_acked_state() {
        killed_mid_snapshot_boots_to_the_acked_state("kill-before", "snapshot_rename");
    }

    #[test]
    fn a_kill_after_the_snapshot_rename_boots_to_the_acked_state() {
        killed_mid_snapshot_boots_to_the_acked_state("kill-after", "snapshot_renamed");
    }
}
