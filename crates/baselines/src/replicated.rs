//! The three replicated baselines — LH\*, LH\*m (mirroring) and LH\*s
//! (striping) — as one type, [`ReplicatedLh`]; the crate docs compare
//! them.

use lhrs_obs::Snapshot;
use lhrs_sim::{LatencyModel, NodeId, Sim};

use crate::common::{BClient, BCoordinator, BHandle, BMsg, BNode, BOp, BRegistry, BShared, Mode};
use crate::Scheme;

/// A replicated LH\* file: every logical bucket is held by one server
/// (LH\*), two (LH\*m) or `m + 1` (LH\*s). One type for the three schemes;
/// the constructor picks which.
pub struct ReplicatedLh {
    sim: Sim<BMsg, BNode>,
    shared: BHandle,
    client: NodeId,
    next_op: u64,
    mode: Mode,
}

impl ReplicatedLh {
    /// Plain LH\*: one bucket per server, no redundancy.
    pub fn plain(capacity: usize, node_pool: usize, latency: LatencyModel) -> Self {
        Self::new(Mode::Plain, capacity, node_pool, latency)
    }

    /// LH\*m: a primary and a mirror bucket per logical bucket.
    pub fn mirror(capacity: usize, node_pool: usize, latency: LatencyModel) -> Self {
        Self::new(Mode::Mirror, capacity, node_pool, latency)
    }

    /// LH\*s with stripe width `m ≥ 1`.
    pub fn stripe(m: usize, capacity: usize, node_pool: usize, latency: LatencyModel) -> Self {
        assert!(m >= 1);
        Self::new(Mode::Stripe { m }, capacity, node_pool, latency)
    }

    fn new(mode: Mode, capacity: usize, node_pool: usize, latency: LatencyModel) -> Self {
        let replicas = mode.replicas();
        let shared: BHandle = std::rc::Rc::new(BShared {
            registry: std::cell::RefCell::new(BRegistry {
                nodes: vec![Vec::new(); replicas],
                coordinator: lhrs_sim::EXTERNAL,
            }),
            mode,
            capacity,
        });
        let mut sim: Sim<BMsg, BNode> = Sim::new(latency);
        let ids: Vec<NodeId> = (0..node_pool)
            .map(|_| {
                sim.add_node(BNode::Blank {
                    shared: shared.clone(),
                    pending: Vec::new(),
                })
            })
            .collect();
        let coordinator = ids[0];
        let client = ids[1];
        {
            let mut reg = shared.registry.borrow_mut();
            reg.coordinator = coordinator;
            for r in 0..replicas {
                reg.nodes[r].push(ids[2 + r]);
            }
        }
        for r in 0..replicas {
            sim.replace(
                ids[2 + r],
                BNode::Bucket(crate::common::BBucket::new(shared.clone(), 0, 0, r)),
            );
        }
        let pool: Vec<NodeId> = ids[2 + replicas..].iter().rev().copied().collect();
        sim.replace(
            coordinator,
            BNode::Coordinator(BCoordinator::new(shared.clone(), pool)),
        );
        sim.replace(client, BNode::Client(BClient::new(shared.clone())));
        ReplicatedLh {
            sim,
            shared,
            client,
            next_op: 1,
            mode,
        }
    }

    fn exec(&mut self, op: BOp) -> Option<Vec<u8>> {
        let op_id = self.next_op;
        self.next_op += 1;
        self.sim.send_external(self.client, BMsg::Do { op_id, op });
        self.sim.run_until_idle();
        let c = self.sim.actor_mut(self.client).as_client_mut();
        c.settle_writes();
        c.take_results()
            .into_iter()
            .find(|(id, _)| *id == op_id)
            .expect("operation completed")
            .1
    }

    /// Crash the node carrying `(replica, bucket)`: replica 0 is the
    /// primary (LH\*m) or the first data fragment (LH\*s, where replica `m`
    /// is the parity fragment).
    pub fn crash_replica(&mut self, bucket: u64, replica: usize) {
        let node = self.shared.registry.borrow().nodes[replica][bucket as usize];
        self.sim.crash(node);
    }

    /// Rebuild `(replica, bucket)` onto a spare from the surviving
    /// replicas: one bulk copy for mirroring, XOR over the other `m`
    /// fragments of every record for striping. Returns whether the
    /// coordinator confirmed the install.
    pub fn recover_replica(&mut self, bucket: u64, replica: usize) -> bool {
        let coord = self.shared.registry.borrow().coordinator;
        self.sim
            .send_external(coord, BMsg::RecoverReplica { bucket, replica });
        self.sim.run_until_idle();
        let done = self
            .sim
            .actor(coord)
            .as_coordinator()
            .recovered
            .contains(&(bucket, replica));
        done
    }
}

impl Scheme for ReplicatedLh {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Plain => "LH*",
            Mode::Mirror => "LH*m",
            Mode::Stripe { .. } => "LH*s",
        }
    }

    fn insert(&mut self, key: u64, payload: Vec<u8>) {
        self.exec(BOp::Insert(key, payload));
    }

    fn lookup(&mut self, key: u64) -> Option<Vec<u8>> {
        self.exec(BOp::Lookup(key))
    }

    fn stats(&self) -> Snapshot {
        self.sim.metrics().snapshot()
    }

    fn data_buckets(&self) -> u64 {
        self.sim
            .actor(self.shared.registry.borrow().coordinator)
            .as_coordinator()
            .state
            .bucket_count()
    }

    fn total_servers(&self) -> u64 {
        self.data_buckets() * self.mode.replicas() as u64
    }

    fn storage_bytes(&self) -> (u64, u64) {
        let reg = self.shared.registry.borrow();
        let mut primary = 0u64;
        let mut redundant = 0u64;
        for (r, nodes) in reg.nodes.iter().enumerate() {
            for node in nodes {
                let bytes: u64 = self
                    .sim
                    .actor(*node)
                    .as_bucket()
                    .records
                    .values()
                    .map(|p| p.len() as u64)
                    .sum();
                match self.mode {
                    Mode::Plain => primary += bytes,
                    Mode::Mirror => {
                        if r == 0 {
                            primary += bytes
                        } else {
                            redundant += bytes
                        }
                    }
                    Mode::Stripe { m } => {
                        if r < m {
                            primary += bytes
                        } else {
                            redundant += bytes
                        }
                    }
                }
            }
        }
        (primary, redundant)
    }

    fn availability(&self, p: f64) -> f64 {
        let m = self.data_buckets();
        match self.mode {
            Mode::Plain => lhrs_core::availability::lh_star_availability(m, p),
            Mode::Mirror => lhrs_core::availability::mirrored_availability(m, p),
            // Each logical bucket's m+1 stripe servers tolerate one loss.
            Mode::Stripe { m: width } => {
                lhrs_core::availability::group_availability(width, 1, p).powi(m as i32)
            }
        }
    }

    fn tolerates(&self) -> usize {
        match self.mode {
            Mode::Plain => 0,
            Mode::Mirror | Mode::Stripe { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_lh_scales_and_serves() {
        let mut f = ReplicatedLh::plain(8, 512, LatencyModel::instant());
        for k in 0..1000u64 {
            f.insert(lhrs_lh::scramble(k), format!("v{k}").into_bytes());
        }
        assert!(f.data_buckets() > 60);
        for k in 0..1000u64 {
            assert_eq!(
                f.lookup(lhrs_lh::scramble(k)).unwrap(),
                format!("v{k}").into_bytes()
            );
        }
        assert_eq!(f.lookup(u64::MAX), None);
        let (primary, redundant) = f.storage_bytes();
        assert!(primary > 0);
        assert_eq!(redundant, 0);
        assert_eq!(f.total_servers(), f.data_buckets());
    }

    #[test]
    fn plain_insert_costs_one_message_steady_state() {
        let mut f = ReplicatedLh::plain(16, 512, LatencyModel::instant());
        for k in 0..2000u64 {
            f.insert(lhrs_lh::scramble(k), vec![0u8; 16]);
        }
        // Warm the image.
        for k in 0..100u64 {
            f.lookup(lhrs_lh::scramble(k));
        }
        let before = f.stats();
        for k in 10_000..10_100u64 {
            f.insert(lhrs_lh::scramble(k), vec![0u8; 16]);
        }
        let cost = f.stats().since(&before);
        let structural: u64 = ["overflow", "split", "split-load", "init-data"]
            .iter()
            .map(|k| cost.count(k))
            .sum();
        let per_insert = (cost.total_messages() - structural) as f64 / 100.0;
        assert!(
            (1.0..=1.2).contains(&per_insert),
            "LH* insert cost {per_insert}"
        );
    }

    #[test]
    fn mirror_stores_two_full_copies() {
        let mut f = ReplicatedLh::mirror(8, 768, LatencyModel::instant());
        for k in 0..800u64 {
            f.insert(lhrs_lh::scramble(k), vec![7u8; 20]);
        }
        for k in 0..800u64 {
            assert_eq!(f.lookup(lhrs_lh::scramble(k)).unwrap(), vec![7u8; 20]);
        }
        let (primary, redundant) = f.storage_bytes();
        assert_eq!(primary, 800 * 20);
        assert_eq!(redundant, 800 * 20, "mirror must hold a full copy");
        assert_eq!(f.total_servers(), 2 * f.data_buckets());
    }

    #[test]
    fn mirror_recovery_is_one_bulk_copy() {
        let mut f = ReplicatedLh::mirror(8, 768, LatencyModel::instant());
        for k in 0..500u64 {
            f.insert(lhrs_lh::scramble(k), vec![5u8; 24]);
        }
        // Lose the primary copy of bucket 3; rebuild it from the mirror.
        f.crash_replica(3, 0);
        let before = f.stats();
        assert!(f.recover_replica(3, 0));
        let cost = f.stats().since(&before);
        // 1 transfer request + 1 bulk reply + install + ack.
        assert_eq!(cost.count("transfer-req"), 1);
        assert_eq!(cost.count("transfer-data"), 1);
        assert_eq!(cost.count("install"), 1);
        // Everything still readable.
        for k in 0..500u64 {
            assert_eq!(f.lookup(lhrs_lh::scramble(k)).unwrap(), vec![5u8; 24]);
        }
    }

    #[test]
    fn mirror_insert_costs_two_messages() {
        let mut f = ReplicatedLh::mirror(16, 768, LatencyModel::instant());
        for k in 0..1500u64 {
            f.insert(lhrs_lh::scramble(k), vec![0u8; 16]);
        }
        for k in 0..100u64 {
            f.lookup(lhrs_lh::scramble(k));
        }
        let before = f.stats();
        for k in 10_000..10_100u64 {
            f.insert(lhrs_lh::scramble(k), vec![0u8; 16]);
        }
        let cost = f.stats().since(&before);
        let structural: u64 = ["overflow", "split", "split-load", "init-data"]
            .iter()
            .map(|k| cost.count(k))
            .sum();
        let per_insert = (cost.total_messages() - structural) as f64 / 100.0;
        assert!(
            (2.0..=2.4).contains(&per_insert),
            "LH*m insert cost {per_insert}"
        );
    }

    #[test]
    fn striped_records_reassemble_exactly() {
        let mut f = ReplicatedLh::stripe(4, 8, 1024, LatencyModel::instant());
        for k in 0..500u64 {
            let payload = format!("record-{k}-{}", "x".repeat((k % 23) as usize)).into_bytes();
            f.insert(lhrs_lh::scramble(k), payload);
        }
        for k in 0..500u64 {
            let expect = format!("record-{k}-{}", "x".repeat((k % 23) as usize)).into_bytes();
            assert_eq!(f.lookup(lhrs_lh::scramble(k)).unwrap(), expect, "key {k}");
        }
        assert_eq!(f.lookup(u64::MAX), None);
        assert_eq!(f.total_servers(), 5 * f.data_buckets());
    }

    #[test]
    fn stripe_recovery_rebuilds_any_fragment_server() {
        let mut f = ReplicatedLh::stripe(4, 8, 1024, LatencyModel::instant());
        for k in 0..400u64 {
            let payload = format!("sr-{k}-{}", "y".repeat((k % 13) as usize)).into_bytes();
            f.insert(lhrs_lh::scramble(k), payload);
        }
        // Lose a data-fragment server and the parity server of bucket 2.
        for replica in [1usize, 4] {
            f.crash_replica(2, replica);
            let before = f.stats();
            assert!(f.recover_replica(2, replica));
            let cost = f.stats().since(&before);
            // m = 4 surviving replicas consulted.
            assert_eq!(cost.count("transfer-req"), 4);
            assert_eq!(cost.count("transfer-data"), 4);
        }
        for k in 0..400u64 {
            let expect = format!("sr-{k}-{}", "y".repeat((k % 13) as usize)).into_bytes();
            assert_eq!(f.lookup(lhrs_lh::scramble(k)).unwrap(), expect, "key {k}");
        }
    }

    #[test]
    fn stripe_lookup_costs_two_m_messages() {
        let m = 4;
        let mut f = ReplicatedLh::stripe(m, 16, 1024, LatencyModel::instant());
        for k in 0..1000u64 {
            f.insert(lhrs_lh::scramble(k), vec![1u8; 64]);
        }
        for k in 0..100u64 {
            f.lookup(lhrs_lh::scramble(k)); // warm image
        }
        let before = f.stats();
        for k in 0..100u64 {
            f.lookup(lhrs_lh::scramble(k));
        }
        let cost = f.stats().since(&before);
        let per_lookup = cost.total_messages() as f64 / 100.0;
        // m requests + m replies.
        assert!(
            (2.0 * m as f64..=2.0 * m as f64 + 0.5).contains(&per_lookup),
            "LH*s lookup cost {per_lookup}"
        );
    }

    #[test]
    fn stripe_overhead_is_one_over_m() {
        let mut f = ReplicatedLh::stripe(4, 8, 1024, LatencyModel::instant());
        for k in 0..400u64 {
            f.insert(lhrs_lh::scramble(k), vec![9u8; 64]);
        }
        let (primary, redundant) = f.storage_bytes();
        // The striped cell is [4-byte len | payload] = 68 B → 17 B/fragment.
        assert_eq!(primary, 400 * 68);
        assert_eq!(redundant, 400 * 17);
        // Overhead ratio is exactly 1/m.
        assert!((redundant as f64 / primary as f64 - 0.25).abs() < 1e-9);
    }
}
