//! Deterministic network fault injection: message loss, duplication,
//! reordering, and timed partitions.
//!
//! LH\*RS's availability claims are about surviving *failures*; a perfectly
//! reliable network never exercises the client's timeout/escalation paths or
//! the coordinator's retransmission logic. A [`FaultPlan`] makes the
//! simulated network adversarial while keeping the run **bit-for-bit
//! reproducible**: every fault decision is a pure function of the plan's
//! seed and the engine's event sequence number, exactly like latency jitter.
//!
//! Semantics:
//!
//! - **Drop**: the message is never enqueued (counted in the
//!   [`Sim::metrics`](crate::Sim::metrics) counter `fault_dropped`).
//! - **Duplicate**: the message is enqueued twice; each copy gets its own
//!   delay draw (counted in `fault_duplicated`).
//! - **Reorder**: the message skips the per-channel FIFO clamp and is given
//!   extra delay, so later sends on the same channel can overtake it
//!   (counted in `fault_reordered`).
//! - **Partition**: during `[from_us, until_us)`, messages crossing the
//!   boundary between the partitioned set and the rest are dropped
//!   (counted in `partition_dropped`).
//!
//! Messages injected by the external driver ([`Sim::send_external`]
//! (crate::Sim::send_external)) model the application handing work to its
//! local client — not network traffic — and are exempt.

use crate::engine::NodeId;

/// Rates are expressed in permille (0..=1000) so plans stay integer-only
/// and hashable into the deterministic decision stream.
pub const PERMILLE: u64 = 1000;

/// A time-windowed network partition: `nodes` are unreachable from (and
/// cannot reach) every node outside the set while `from_us <= now < until_us`.
#[derive(Debug, Clone)]
pub struct Partition {
    nodes: Vec<NodeId>,
    from_us: u64,
    until_us: u64,
}

impl Partition {
    /// Isolate `nodes` from the rest of the network during
    /// `[from_us, until_us)`.
    pub fn new(nodes: Vec<NodeId>, from_us: u64, until_us: u64) -> Self {
        assert!(from_us < until_us, "empty partition window");
        Partition {
            nodes,
            from_us,
            until_us,
        }
    }

    /// Whether a message `from → to` sent at `now` crosses this partition's
    /// boundary while it is active.
    fn severs(&self, now: u64, from: NodeId, to: NodeId) -> bool {
        if now < self.from_us || now >= self.until_us {
            return false;
        }
        let a = self.nodes.contains(&from);
        let b = self.nodes.contains(&to);
        a != b
    }
}

/// What the fault layer decided for one message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultOutcome {
    /// Deliver normally (possibly as `copies > 1` duplicates); a reordered
    /// message carries extra delay and skips the FIFO clamp.
    Deliver {
        /// 1 normally, 2 when duplicated.
        copies: u32,
        /// `Some(extra_us)` when the message is reordered.
        reorder_extra_us: Option<u64>,
    },
    /// Silently dropped by random loss.
    Dropped,
    /// Dropped because an active partition severs the channel.
    Partitioned,
}

/// A seeded, deterministic fault-injection plan.
///
/// Build one with the fluent setters and install it via
/// [`Sim::set_fault_plan`](crate::Sim::set_fault_plan):
///
/// ```
/// use lhrs_sim::{FaultPlan, NodeId, Partition};
///
/// let plan = FaultPlan::new(42)
///     .drop_permille(10)      // 1% loss
///     .dup_permille(10)       // 1% duplication
///     .reorder_permille(20)   // 2% reordered
///     .reorder_window_us(400) // reordered messages arrive ≤ 400 µs late
///     .partition(Partition::new(vec![NodeId(3)], 10_000, 20_000));
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    drop_permille: u64,
    dup_permille: u64,
    reorder_permille: u64,
    reorder_window_us: u64,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A fault-free plan with the given decision seed; compose rates with
    /// the fluent setters.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            reorder_permille: 0,
            reorder_window_us: 500,
            partitions: Vec::new(),
        }
    }

    /// The decision seed (two sims sharing a seed and workload draw
    /// identical faults).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drop each node-to-node message with probability `p`/1000.
    pub fn drop_permille(mut self, p: u64) -> Self {
        assert!(p <= PERMILLE, "drop rate {p}‰ > 1000‰");
        self.drop_permille = p;
        self
    }

    /// Duplicate each delivered message with probability `p`/1000.
    pub fn dup_permille(mut self, p: u64) -> Self {
        assert!(p <= PERMILLE, "dup rate {p}‰ > 1000‰");
        self.dup_permille = p;
        self
    }

    /// Reorder each delivered message with probability `p`/1000: it skips
    /// the per-channel FIFO clamp and is delayed by up to
    /// [`reorder_window_us`](Self::reorder_window_us) extra microseconds.
    pub fn reorder_permille(mut self, p: u64) -> Self {
        assert!(p <= PERMILLE, "reorder rate {p}‰ > 1000‰");
        self.reorder_permille = p;
        self
    }

    /// Maximum extra delay (µs) applied to reordered messages.
    pub fn reorder_window_us(mut self, us: u64) -> Self {
        self.reorder_window_us = us;
        self
    }

    /// Add a timed partition window.
    pub fn partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// An independent deterministic draw for decision `salt` on event `seq`.
    fn draw(&self, seq: u64, salt: u64) -> u64 {
        splitmix64(
            self.seed ^ splitmix64(seq.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(salt)),
        )
    }

    /// Decide the fate of a message about to be enqueued as event `seq`.
    pub(crate) fn decide(&self, seq: u64, now: u64, from: NodeId, to: NodeId) -> FaultOutcome {
        if self.partitions.iter().any(|p| p.severs(now, from, to)) {
            return FaultOutcome::Partitioned;
        }
        if self.drop_permille > 0 && self.draw(seq, 1) % PERMILLE < self.drop_permille {
            return FaultOutcome::Dropped;
        }
        let copies = if self.dup_permille > 0 && self.draw(seq, 2) % PERMILLE < self.dup_permille {
            2
        } else {
            1
        };
        let reorder_extra_us =
            if self.reorder_permille > 0 && self.draw(seq, 3) % PERMILLE < self.reorder_permille {
                Some(self.draw(seq, 4) % (self.reorder_window_us + 1))
            } else {
                None
            };
        FaultOutcome::Deliver {
            copies,
            reorder_extra_us,
        }
    }
}

/// SplitMix64 (same mixer as the latency jitter): decisions and jitter come
/// from the same deterministic family.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(7)
            .drop_permille(100)
            .dup_permille(100)
            .reorder_permille(100);
        for seq in 0..2000 {
            let a = plan.decide(seq, 0, NodeId(1), NodeId(2));
            let b = plan.decide(seq, 0, NodeId(1), NodeId(2));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::new(99).drop_permille(100); // 10%
        let drops = (0..10_000)
            .filter(|&seq| plan.decide(seq, 0, NodeId(0), NodeId(1)) == FaultOutcome::Dropped)
            .count();
        assert!((700..1300).contains(&drops), "10% of 10k ≈ {drops}");
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let plan = FaultPlan::new(1);
        for seq in 0..1000 {
            assert_eq!(
                plan.decide(seq, 0, NodeId(0), NodeId(1)),
                FaultOutcome::Deliver {
                    copies: 1,
                    reorder_extra_us: None
                }
            );
        }
    }

    #[test]
    fn partition_severs_boundary_but_not_interior() {
        let plan =
            FaultPlan::new(0).partition(Partition::new(vec![NodeId(1), NodeId(2)], 100, 200));
        // Crossing the boundary inside the window: severed both ways.
        assert_eq!(
            plan.decide(0, 150, NodeId(1), NodeId(5)),
            FaultOutcome::Partitioned
        );
        assert_eq!(
            plan.decide(0, 150, NodeId(5), NodeId(2)),
            FaultOutcome::Partitioned
        );
        // Inside the partitioned set: unaffected.
        assert!(matches!(
            plan.decide(0, 150, NodeId(1), NodeId(2)),
            FaultOutcome::Deliver { .. }
        ));
        // Outside the set entirely: unaffected.
        assert!(matches!(
            plan.decide(0, 150, NodeId(5), NodeId(6)),
            FaultOutcome::Deliver { .. }
        ));
        // Outside the window: unaffected.
        assert!(matches!(
            plan.decide(0, 99, NodeId(1), NodeId(5)),
            FaultOutcome::Deliver { .. }
        ));
        assert!(matches!(
            plan.decide(0, 200, NodeId(1), NodeId(5)),
            FaultOutcome::Deliver { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "empty partition window")]
    fn empty_partition_window_rejected() {
        let _ = Partition::new(vec![NodeId(0)], 100, 100);
    }

    #[test]
    #[should_panic(expected = "> 1000")]
    fn over_unit_rate_rejected() {
        let _ = FaultPlan::new(0).drop_permille(1001);
    }
}
