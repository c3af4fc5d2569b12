//! The closed-loop driver and its oracle.
//!
//! "Window w" means w callers that each wait for their reply before asking
//! again, so a slow system is offered less load. The loop is written on
//! the client's public `submit` / `pump` / `take_completed` calls; it never
//! has two operations in flight on one key, which is what lets the oracle
//! know exactly which value every lookup must return.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use lhrs_core::msg::{ClientOp, OpId, OpResult};
use lhrs_net::client::NetClient;
use lhrs_net::transport::Transport;

use crate::opstream::{key_of, payload, Mix, OpKind, OpStream, StreamOp};

/// How long the loop blocks for inbound traffic when it has nothing to
/// submit. A reply wakes it at once; this only bounds an idle wait.
pub const PUMP_WAIT: Duration = Duration::from_millis(1);

/// Backstop deadline per operation. The client gives up by itself after
/// its retries and the escalation grace period (about 12 s with the pinned
/// timers); an operation still unsettled after this is counted as failed.
const OP_DEADLINE: Duration = Duration::from_secs(30);

/// What every key must currently hold: the last acknowledged version.
pub struct Oracle {
    seed: u64,
    payload_len: usize,
    /// Last acknowledged version per key index; 0 = never stored.
    versions: Vec<u32>,
    /// Keys `0..stored` have all been acknowledged at least once.
    stored: u32,
    /// Keys whose last write failed or timed out: the file may hold the
    /// acknowledged version or the next one.
    uncertain: HashSet<u32>,
}

impl Oracle {
    pub fn new(seed: u64, payload_len: usize) -> Oracle {
        Oracle {
            seed,
            payload_len,
            versions: Vec::new(),
            stored: 0,
            uncertain: HashSet::new(),
        }
    }

    /// Keys `0..stored()` are stored and may be read or updated.
    pub fn stored(&self) -> u32 {
        self.stored
    }

    fn version(&self, idx: u32) -> u32 {
        self.versions.get(idx as usize).copied().unwrap_or(0)
    }

    /// The operation `kind` on key `idx` asks of the file, and the version
    /// it writes: the one after the acknowledged one (0 for a lookup).
    pub fn client_op(&self, kind: OpKind, idx: u32) -> (u32, ClientOp) {
        let key = key_of(idx);
        if kind == OpKind::Lookup {
            return (0, ClientOp::Lookup { key });
        }
        let version = self.version(idx) + 1;
        let payload = payload(self.seed, key, version, self.payload_len);
        let op = match kind {
            OpKind::Insert => ClientOp::Insert { key, payload },
            _ => ClientOp::Update { key, payload },
        };
        (version, op)
    }

    /// Judge how an operation ended and remember what it acknowledged.
    pub fn settle(&mut self, kind: OpKind, idx: u32, version: u32, result: OpResult) -> Outcome {
        let outcome = match (kind, result) {
            (_, OpResult::Failed(_)) => Outcome::Failed,
            (OpKind::Lookup, OpResult::Value(got)) if self.accepts(idx, got.as_deref()) => {
                Outcome::Verified
            }
            (OpKind::Update, OpResult::Updated) | (OpKind::Insert, OpResult::Inserted) => {
                self.acknowledge(idx, version);
                Outcome::Verified
            }
            _ => Outcome::Rejected,
        };
        if outcome != Outcome::Verified && kind != OpKind::Lookup {
            // An unacknowledged write may or may not have been applied.
            self.uncertain.insert(idx);
        }
        outcome
    }

    fn acknowledge(&mut self, idx: u32, version: u32) {
        let slot = idx as usize;
        if self.versions.len() <= slot {
            self.versions.resize(slot + 1, 0);
        }
        self.versions[slot] = version;
        self.uncertain.remove(&idx);
        while self.version(self.stored) > 0 {
            self.stored += 1;
        }
    }

    /// Whether a lookup of `idx` may return `got`.
    fn accepts(&self, idx: u32, got: Option<&[u8]>) -> bool {
        let version = self.version(idx);
        let matches = |v: u32| match (v, got) {
            (0, None) => true,
            (0, Some(_)) | (_, None) => false,
            (v, Some(bytes)) => bytes == payload(self.seed, key_of(idx), v, self.payload_len),
        };
        matches(version) || (self.uncertain.contains(&idx) && matches(version + 1))
    }
}

/// Picks the next operation off the stream, holding the stream's head back
/// while its key still has an operation in flight.
pub struct Scheduler {
    stream: OpStream,
    held: Option<StreamOp>,
    busy: HashSet<u32>,
    next_fresh: u32,
}

impl Scheduler {
    /// `next_fresh` is the index the first insert takes.
    pub fn new(stream: OpStream, next_fresh: u32) -> Scheduler {
        Scheduler {
            stream,
            held: None,
            busy: HashSet::new(),
            next_fresh,
        }
    }

    /// The next operation to submit, or `None` when the head of the stream
    /// has to wait because its key is busy. Order is kept — a held
    /// operation is not overtaken. While nothing is stored yet there is no
    /// key to read or update, so whatever the stream draws goes out as an
    /// insert: the first few operations of a file that starts empty.
    pub fn next(&mut self, stored: u32) -> Option<(OpKind, u32)> {
        let op = self.held.take().unwrap_or_else(|| self.stream.next_op());
        let kind = if stored == 0 { OpKind::Insert } else { op.kind };
        let idx = if kind == OpKind::Insert {
            let idx = self.next_fresh;
            self.next_fresh += 1;
            idx
        } else {
            let idx = (op.draw % u64::from(stored)) as u32;
            if self.busy.contains(&idx) {
                self.held = Some(op);
                return None;
            }
            idx
        };
        self.busy.insert(idx);
        Some((kind, idx))
    }

    /// The operation on `idx` has completed; its key is free again.
    pub fn complete(&mut self, idx: u32) {
        self.busy.remove(&idx);
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with the value or acknowledgement the oracle expects.
    Verified,
    /// Ended `Failed`, or hit the driver's deadline.
    Failed,
    /// Completed with a value the oracle rejects.
    Rejected,
}

/// One completed operation, as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub op_id: OpId,
    pub kind: OpKind,
    pub idx: u32,
    pub submitted: Instant,
    pub completed: Instant,
    pub outcome: Outcome,
}

impl Completion {
    pub fn latency_ns(&self) -> u64 {
        u64::try_from((self.completed - self.submitted).as_nanos()).unwrap_or(u64::MAX)
    }
}

struct InFlight {
    kind: OpKind,
    idx: u32,
    /// The version a write carries (unused for lookups).
    version: u32,
    submitted: Instant,
}

/// Totals over everything a [`ClosedLoop`] has run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
}

/// `window` callers over one client.
pub struct ClosedLoop<'a, T: Transport> {
    client: &'a mut NetClient<T>,
    oracle: &'a mut Oracle,
    window: usize,
    inflight: HashMap<OpId, InFlight>,
    /// How long a turn blocks for inbound traffic ([`PUMP_WAIT`] unless the
    /// whole file lives in this thread and nothing can ever arrive).
    pub pump_wait: Duration,
    pub totals: Totals,
    /// Turns of the loop that stopped submitting because the window was
    /// full: the window, not the stream, limited the offered load.
    pub window_full_rounds: u64,
    /// Operations that hit [`OP_DEADLINE`] (a subset of `totals.failed`).
    pub deadline_expiries: u64,
}

impl<'a, T: Transport> ClosedLoop<'a, T> {
    pub fn new(client: &'a mut NetClient<T>, oracle: &'a mut Oracle, window: usize) -> Self {
        ClosedLoop {
            client,
            oracle,
            window: window.max(1),
            inflight: HashMap::new(),
            pump_wait: PUMP_WAIT,
            totals: Totals::default(),
            window_full_rounds: 0,
            deadline_expiries: 0,
        }
    }

    pub fn stored(&self) -> u32 {
        self.oracle.stored()
    }

    fn submit(&mut self, kind: OpKind, idx: u32) {
        let (version, op) = self.oracle.client_op(kind, idx);
        let submitted = Instant::now();
        let op_id = self.client.submit(op);
        self.totals.attempted += 1;
        self.inflight.insert(
            op_id,
            InFlight {
                kind,
                idx,
                version,
                submitted,
            },
        );
    }

    /// Wait for inbound traffic once and settle every operation that
    /// completed or ran out of time.
    fn collect(&mut self) -> Vec<Completion> {
        self.client.pump(self.pump_wait);
        let completed = Instant::now();
        let mut ended = self.client.take_completed();
        let expired: Vec<OpId> = self
            .inflight
            .iter()
            .filter(|(_, op)| completed.duration_since(op.submitted) >= OP_DEADLINE)
            .map(|(id, _)| *id)
            .collect();
        for op_id in expired {
            self.client.abandon(op_id);
            self.deadline_expiries += 1;
            ended.push((op_id, OpResult::Failed("driver deadline".into())));
        }
        ended
            .into_iter()
            .filter_map(|(op_id, result)| {
                let op = self.inflight.remove(&op_id)?;
                Some(Completion {
                    op_id,
                    kind: op.kind,
                    idx: op.idx,
                    submitted: op.submitted,
                    completed,
                    outcome: self.settle(&op, result),
                })
            })
            .collect()
    }

    fn settle(&mut self, op: &InFlight, result: OpResult) -> Outcome {
        let outcome = self.oracle.settle(op.kind, op.idx, op.version, result);
        match outcome {
            Outcome::Verified => {}
            Outcome::Failed => self.totals.failed += 1,
            Outcome::Rejected => self.totals.rejected += 1,
        }
        outcome
    }

    /// One turn of the loop: submit up to `budget` operations from `sched`
    /// as the window allows, wait for traffic, return what completed.
    pub fn step(&mut self, sched: &mut Scheduler, budget: u64) -> Vec<Completion> {
        let mut budget = budget;
        while budget > 0 && self.inflight.len() < self.window {
            let Some((kind, idx)) = sched.next(self.oracle.stored()) else {
                break;
            };
            self.submit(kind, idx);
            budget -= 1;
        }
        if budget > 0 && self.inflight.len() >= self.window {
            self.window_full_rounds += 1;
        }
        let done = self.collect();
        for c in &done {
            sched.complete(c.idx);
        }
        done
    }

    /// Submit exactly `ops` more operations from `sched` and run until
    /// nothing is in flight (`ops` = 0 drains the window).
    pub fn run_ops(&mut self, sched: &mut Scheduler, ops: u64, mut sink: impl FnMut(Completion)) {
        let target = self.totals.attempted + ops;
        while self.totals.attempted < target || !self.inflight.is_empty() {
            for c in self.step(sched, target - self.totals.attempted) {
                sink(c);
            }
            if crate::signal::interrupted() {
                return;
            }
        }
    }

    /// Insert keys `0..keys` through a window of 64, whatever the workload's
    /// own window: loading is not what a window-1 workload measures.
    pub fn preload(
        client: &'a mut NetClient<T>,
        oracle: &'a mut Oracle,
        seed: u64,
        keys: u32,
        pump_wait: Duration,
    ) -> Result<(), String> {
        let inserts = Mix {
            lookup_pct: 0,
            update_pct: 0,
            insert_pct: 100,
        };
        let mut sched = Scheduler::new(OpStream::new(seed, inserts), 0);
        let mut lp = ClosedLoop::new(client, oracle, 64);
        lp.pump_wait = pump_wait;
        lp.run_ops(&mut sched, u64::from(keys), |_| {});
        if crate::signal::interrupted() {
            return Err("interrupted".into());
        }
        if lp.totals.failed + lp.totals.rejected > 0 || lp.stored() != keys {
            return Err(format!(
                "preload: {} failed, {} rejected, {} of {keys} keys stored",
                lp.totals.failed,
                lp.totals.rejected,
                lp.stored(),
            ));
        }
        Ok(())
    }

    /// Read back every stored key and count those whose last acknowledged
    /// write is not what the file returns. Run outside any timed window.
    pub fn verify_sweep(&mut self) -> u64 {
        debug_assert!(self.inflight.is_empty());
        let before = self.totals;
        let stored = self.oracle.stored();
        let mut next = 0u32;
        while next < stored || !self.inflight.is_empty() {
            while next < stored && self.inflight.len() < self.window.max(64) {
                self.submit(OpKind::Lookup, next);
                next += 1;
            }
            self.collect();
            if crate::signal::interrupted() {
                break;
            }
        }
        let lost = (self.totals.failed - before.failed) + (self.totals.rejected - before.rejected);
        // The sweep is the check, not part of the workload's op count.
        self.totals = before;
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opstream::Rng;

    #[test]
    fn never_two_operations_in_flight_on_one_key() {
        // A tiny key space and a wide window force collisions constantly.
        let mix = Mix {
            lookup_pct: 40,
            update_pct: 50,
            insert_pct: 10,
        };
        let mut sched = Scheduler::new(OpStream::new(3, mix), 8);
        let mut rng = Rng::new(99);
        let mut stored = 8u32;
        let mut inflight: Vec<(OpKind, u32)> = Vec::new();
        let mut submitted = 0;
        let mut held_back = 0;
        while submitted < 20_000 {
            while inflight.len() < 16 {
                match sched.next(stored) {
                    Some((kind, idx)) => {
                        assert!(
                            inflight.iter().all(|(_, other)| *other != idx),
                            "key {idx} submitted while in flight"
                        );
                        if kind == OpKind::Insert {
                            assert!(idx >= stored, "insert of a stored key");
                        } else {
                            assert!(idx < stored, "access to a key not yet stored");
                        }
                        inflight.push((kind, idx));
                        submitted += 1;
                    }
                    None => {
                        held_back += 1;
                        break;
                    }
                }
            }
            // Complete one operation, out of order.
            let pick = (rng.next_u64() % inflight.len() as u64) as usize;
            let (kind, idx) = inflight.swap_remove(pick);
            sched.complete(idx);
            if kind == OpKind::Insert && idx == stored {
                stored += 1;
            }
        }
        assert!(held_back > 100, "the test never exercised a busy key");
    }

    #[test]
    fn an_empty_file_is_offered_inserts_until_something_is_stored() {
        let mix = Mix {
            lookup_pct: 50,
            update_pct: 0,
            insert_pct: 50,
        };
        // Whatever the seed draws first, the loop can never be left with
        // nothing in flight and nothing it may submit.
        for seed in 0..32 {
            let mut sched = Scheduler::new(OpStream::new(seed, mix), 0);
            for expect in 0..64 {
                assert_eq!(sched.next(0), Some((OpKind::Insert, expect)), "seed {seed}");
            }
        }
        // Once keys are stored the stream's own kinds come through.
        let mut sched = Scheduler::new(OpStream::new(1, mix), 0);
        let lookups = (0..1000)
            .filter_map(|_| sched.next(1_000_000))
            .filter(|(kind, _)| *kind == OpKind::Lookup)
            .count();
        assert!((400..600).contains(&lookups), "{lookups}");
    }

    #[test]
    fn oracle_tracks_versions_and_the_stored_prefix() {
        let mut o = Oracle::new(5, 32);
        assert!(o.accepts(0, None));
        assert!(!o.accepts(0, Some(&payload(5, key_of(0), 1, 32))));
        // Inserts acknowledged out of order: the prefix waits for key 0.
        o.acknowledge(1, 1);
        assert_eq!(o.stored(), 0);
        o.acknowledge(0, 1);
        assert_eq!(o.stored(), 2);
        assert!(o.accepts(0, Some(&payload(5, key_of(0), 1, 32))));
        assert!(!o.accepts(0, None), "an acknowledged key must be found");
        let (version, op) = o.client_op(OpKind::Update, 0);
        assert_eq!(version, 2);
        let ClientOp::Update { payload: bytes, .. } = op else {
            panic!("an update carries a payload");
        };
        assert!(!o.accepts(0, Some(&bytes)), "version 2 is not acknowledged");
        // A failed write leaves both versions acceptable until the next ack.
        o.uncertain.insert(0);
        assert!(o.accepts(0, Some(&bytes)));
        assert!(o.accepts(0, Some(&payload(5, key_of(0), 1, 32))));
        o.acknowledge(0, 2);
        assert!(!o.accepts(0, Some(&payload(5, key_of(0), 1, 32))));
    }
}
