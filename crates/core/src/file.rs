//! [`LhrsFile`]: the synchronous driver API wrapping the simulated LH\*RS
//! multicomputer.
//!
//! The driver owns the discrete-event simulation, injects operations
//! through a client node, runs the network to quiescence, and returns the
//! result — so library users get an ordinary key-value API while every
//! message, failure, and recovery underneath is fully simulated and
//! accounted.

use std::collections::BTreeMap;

use lhrs_gf::Gf8;
use lhrs_obs::{Event, Metrics, Snapshot, TimedEvent};
use lhrs_rs::RsCode;
use lhrs_sim::{NodeId, Sim};

use crate::client::Client;
use crate::coordinator::Coordinator;
use crate::data_bucket::DataBucket;
use crate::msg::{ClientOp, FilterSpec, Msg, OpId, OpResult};
use crate::node::Node;
use crate::parity_bucket::ParityBucket;
use crate::record::encode_cell;
use crate::registry::{initial_layout, Shared, SharedHandle};
use crate::storage::{self, StoreError, StoreFactory, StoreId};
use crate::{Config, Error, Key};

/// Index of a client created by [`LhrsFile::add_client`]; the file always
/// has client 0.
pub type ClientId = usize;

/// Storage accounting of the whole file.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageReport {
    /// Data buckets in the file (`M`).
    pub data_buckets: usize,
    /// Parity buckets across all groups.
    pub parity_buckets: usize,
    /// Primary records stored.
    pub data_records: usize,
    /// Parity records stored.
    pub parity_records: usize,
    /// Application payload bytes in data buckets.
    pub data_bytes: usize,
    /// Parity cell bytes in parity buckets.
    pub parity_bytes: usize,
    /// Bytes the data buckets' record stores take, from their lengths:
    /// cells, keys, ranks, rank maps and free ranks (key indexes not
    /// counted).
    pub data_store_bytes: usize,
    /// Bytes the parity buckets' record stores take, from their lengths:
    /// a cell and `m` key slots per rank (key indexes not counted).
    pub parity_store_bytes: usize,
    /// Average data-bucket load factor (records / (buckets × capacity)).
    pub load_factor: f64,
    /// Parity storage overhead: parity buckets / data buckets (the paper's
    /// ≈ k/m figure).
    pub storage_overhead: f64,
}

/// What a failure drill did, distilled from the coordinator's trace events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shard indices detected as failed (`0..m` data, `m..` parity).
    pub failed_shards: Vec<usize>,
    /// Whether the group was rebuilt.
    pub recovered: bool,
    /// Whether the group was declared unrecoverable.
    pub unrecoverable: bool,
    /// Simulated duration from detection to recovery, µs.
    pub duration_us: u64,
}

/// A running LH\*RS file over the simulated multicomputer.
pub struct LhrsFile {
    sim: Sim<Msg, Node>,
    shared: SharedHandle,
    coordinator: NodeId,
    clients: Vec<NodeId>,
    next_op: OpId,
    /// Nodes taken down by the failure-injection API, so restart drills can
    /// find them again: (node, what it carried).
    crashed_log: Vec<(NodeId, CrashedShard)>,
}

/// What a crashed node was carrying at crash time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashedShard {
    Data(u64),
    Parity(u64, usize),
}

impl LhrsFile {
    /// Create a file: one data bucket, `k` parity buckets for group 0, one
    /// client, a coordinator, and a pool of blank spare nodes.
    pub fn new(cfg: Config) -> Result<Self, Error> {
        cfg.validate()?;
        let latency = cfg.latency;
        let k = cfg.initial_k;
        let shared = Shared::new(cfg);
        let mut sim: Sim<Msg, Node> = Sim::new(latency);
        let total = shared.cfg.node_pool;
        let ids: Vec<NodeId> = (0..total)
            .map(|_| {
                sim.add_node(Node::Blank {
                    shared: shared.clone(),
                    pending: Vec::new(),
                })
            })
            .collect();
        let coordinator = ids[0];
        let client = ids[1];
        let (bucket0, parity, pool) = initial_layout(&ids[2..], k)
            .ok_or_else(|| Error::InvalidConfig("node_pool too small for group 0".into()))?;

        {
            let mut reg = shared.registry.borrow_mut();
            reg.set_coordinator(coordinator);
            reg.push_data(0, bucket0);
            reg.set_parity(0, parity.clone());
        }
        sim.replace(
            coordinator,
            Node::Coordinator(Box::new(Coordinator::new(shared.clone(), pool))),
        );
        sim.replace(client, Node::Client(Client::new(shared.clone())));
        sim.replace(bucket0, Node::Data(DataBucket::new(shared.clone(), 0, 0)));
        for (q, node) in parity.iter().enumerate() {
            let p = ParityBucket::new(shared.clone(), 0, q, k)
                .map_err(|e| Error::InvalidConfig(e.to_string()))?;
            sim.replace(*node, Node::Parity(p));
        }
        Ok(LhrsFile {
            sim,
            shared,
            coordinator,
            clients: vec![client],
            next_op: 1,
            crashed_log: Vec::new(),
        })
    }

    // ----- key-value API -----

    /// Insert a record.
    pub fn insert(&mut self, key: Key, payload: Vec<u8>) -> Result<(), Error> {
        self.check_payload(&payload)?;
        match self.exec_on(0, ClientOp::Insert { key, payload })? {
            OpResult::Inserted => Ok(()),
            OpResult::DuplicateKey => Err(Error::DuplicateKey(key)),
            other => Err(Error::Stuck(format!("unexpected insert result {other:?}"))),
        }
    }

    /// Key search; `Ok(None)` is an unsuccessful search.
    pub fn lookup(&mut self, key: Key) -> Result<Option<Vec<u8>>, Error> {
        self.lookup_via(0, key)
    }

    /// Key search through a specific client.
    pub fn lookup_via(&mut self, client: ClientId, key: Key) -> Result<Option<Vec<u8>>, Error> {
        match self.exec_on(client, ClientOp::Lookup { key })? {
            OpResult::Value(v) => Ok(v),
            OpResult::Failed(e) => Err(Error::Stuck(e)),
            other => Err(Error::Stuck(format!("unexpected lookup result {other:?}"))),
        }
    }

    /// Replace the payload of an existing record.
    pub fn update(&mut self, key: Key, payload: Vec<u8>) -> Result<(), Error> {
        self.check_payload(&payload)?;
        match self.exec_on(0, ClientOp::Update { key, payload })? {
            OpResult::Updated => Ok(()),
            OpResult::NotFound => Err(Error::KeyNotFound(key)),
            other => Err(Error::Stuck(format!("unexpected update result {other:?}"))),
        }
    }

    /// Delete a record.
    pub fn delete(&mut self, key: Key) -> Result<(), Error> {
        match self.exec_on(0, ClientOp::Delete { key })? {
            OpResult::Deleted => Ok(()),
            OpResult::NotFound => Err(Error::KeyNotFound(key)),
            other => Err(Error::Stuck(format!("unexpected delete result {other:?}"))),
        }
    }

    /// Parallel scan with a server-side filter; results sorted by key.
    pub fn scan(&mut self, filter: FilterSpec) -> Result<Vec<(Key, Vec<u8>)>, Error> {
        self.scan_via(0, filter)
    }

    /// Scan through a specific client.
    pub fn scan_via(
        &mut self,
        client: ClientId,
        filter: FilterSpec,
    ) -> Result<Vec<(Key, Vec<u8>)>, Error> {
        match self.exec_on(client, ClientOp::Scan { filter })? {
            OpResult::ScanHits(hits) => Ok(hits),
            OpResult::Failed(e) => Err(Error::Stuck(e)),
            other => Err(Error::Stuck(format!("unexpected scan result {other:?}"))),
        }
    }

    /// Pipelined bulk insert: all operations are injected before the
    /// network runs, modelling a client streaming inserts. Fails on the
    /// first error.
    ///
    /// Structural maintenance (splits/upgrades) may interleave; do not
    /// combine with concurrent failure injection.
    pub fn insert_batch(
        &mut self,
        items: impl IntoIterator<Item = (Key, Vec<u8>)>,
    ) -> Result<usize, Error> {
        let client = self.clients[0];
        let mut ids = Vec::new();
        for (key, payload) in items {
            self.check_payload(&payload)?;
            let op_id = self.next_op;
            self.next_op += 1;
            ids.push((op_id, key));
            self.sim.send_external(
                client,
                Msg::Do {
                    op_id,
                    op: ClientOp::Insert { key, payload },
                },
            );
        }
        self.sim.run_until_idle();
        self.bulk_outcome(&[client], &ids, "bulk insert")
    }

    /// Settle the bulk inserts `ids` (op id, key, in op order) sent
    /// through `clients` and count them. Every op must have exactly one
    /// answer. Fails with the lowest op's failure: answers are read in op
    /// order, not reply order.
    fn bulk_outcome(
        &mut self,
        clients: &[NodeId],
        ids: &[(u64, Key)],
        what: &str,
    ) -> Result<usize, Error> {
        let mut answers = BTreeMap::new();
        for &node in clients {
            let client = self.sim.actor_mut(node).as_client_mut();
            client.settle_optimistic();
            for (op_id, result) in client.take_results() {
                if answers.insert(op_id, result).is_some() {
                    return Err(Error::Stuck(format!("op {op_id} got two answers")));
                }
            }
        }
        for &(op_id, key) in ids {
            match answers.remove(&op_id) {
                Some(OpResult::Inserted) => {}
                Some(OpResult::DuplicateKey) => return Err(Error::DuplicateKey(key)),
                Some(other) => return Err(Error::Stuck(format!("{what}: {other:?}"))),
                None => return Err(Error::Stuck(format!("op {op_id} got no answer"))),
            }
        }
        Ok(ids.len())
    }

    /// Pipelined bulk insert spread round-robin across `n_clients` clients
    /// (created on demand), modelling concurrent writers. Returns the
    /// number of records inserted. Same caveats as
    /// [`LhrsFile::insert_batch`].
    pub fn parallel_load(
        &mut self,
        n_clients: usize,
        items: impl IntoIterator<Item = (Key, Vec<u8>)>,
    ) -> Result<usize, Error> {
        assert!(n_clients >= 1);
        while self.clients.len() < n_clients {
            self.add_client();
        }
        let mut ids = Vec::new();
        for (i, (key, payload)) in items.into_iter().enumerate() {
            self.check_payload(&payload)?;
            let node = self.clients[i % n_clients];
            let op_id = self.next_op;
            self.next_op += 1;
            ids.push((op_id, key));
            self.sim.send_external(
                node,
                Msg::Do {
                    op_id,
                    op: ClientOp::Insert { key, payload },
                },
            );
        }
        self.sim.run_until_idle();
        let clients = self.clients[..n_clients].to_vec();
        self.bulk_outcome(&clients, &ids, "parallel load")
    }

    /// Insert/lookup via an explicit client id (any [`ClientOp`]).
    /// Run `op` through client 0 and map its protocol result into the
    /// [`crate::api::KvClient`] outcome shape.
    fn outcome_of(&mut self, op: ClientOp) -> crate::api::OpOutcome {
        match self.exec_on(0, op) {
            Ok(result) => crate::api::OpOutcome::from_result(result),
            Err(e) => crate::api::OpOutcome::Failed(e.to_string()),
        }
    }

    fn exec_on(&mut self, client: ClientId, op: ClientOp) -> Result<OpResult, Error> {
        let node = *self
            .clients
            .get(client)
            .ok_or_else(|| Error::Stuck(format!("unknown client {client}")))?;
        let op_id = self.next_op;
        self.next_op += 1;
        self.sim.send_external(node, Msg::Do { op_id, op });
        self.sim.run_until_idle();
        self.sim.actor_mut(node).as_client_mut().settle_optimistic();
        let results = self.sim.actor_mut(node).as_client_mut().take_results();
        results
            .into_iter()
            .find(|(id, _)| *id == op_id)
            .map(|(_, r)| r)
            .ok_or_else(|| Error::Stuck("operation produced no result".into()))
    }

    fn check_payload(&self, payload: &[u8]) -> Result<(), Error> {
        if payload.len() > self.shared.cfg.record_len {
            return Err(Error::PayloadTooLarge {
                got: payload.len(),
                max: self.shared.cfg.record_len,
            });
        }
        Ok(())
    }

    // ----- topology & introspection -----

    /// Create an additional client with a fresh (worst-case) image;
    /// returns its id for the `*_via` methods.
    pub fn add_client(&mut self) -> ClientId {
        let node = self
            .sim
            .add_node(Node::Client(Client::new(self.shared.clone())));
        self.clients.push(node);
        self.clients.len() - 1
    }

    /// Number of data buckets `M`.
    pub fn bucket_count(&self) -> u64 {
        self.coord().state.bucket_count()
    }

    /// The correct bucket for `key` under the true file state.
    pub fn address_of(&self, key: Key) -> u64 {
        self.coord().state.address(key)
    }

    /// Number of bucket groups with parity provisioned.
    pub fn group_count(&self) -> usize {
        self.coord().group_k.len()
    }

    /// Availability level of group `g`.
    pub fn group_k(&self, g: u64) -> usize {
        self.coord().group_k[g as usize]
    }

    /// Current file-wide availability level.
    pub fn k_file(&self) -> usize {
        self.coord().k_file
    }

    /// The file configuration.
    pub fn config(&self) -> &Config {
        &self.shared.cfg
    }

    /// Every counter and histogram so far: messages by kind
    /// ([`Snapshot::count`], [`Snapshot::total_messages`]), bytes, fault
    /// outcomes, and the protocol's own counters.
    pub fn stats(&self) -> Snapshot {
        self.metrics().snapshot()
    }

    /// The observability handle: counters, latency histograms, and the
    /// structured trace ring recorded by every actor in this file, on a
    /// logical clock (events are stamped with simulated µs, so readings
    /// are deterministic).
    ///
    /// [`Metrics`] is cheaply cloneable (`Arc` inside), so callers can hold
    /// a copy across mutations of the file.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Run `f` and return what it cost: the [`Snapshot`] diff across it.
    pub fn cost_of(&mut self, f: impl FnOnce(&mut Self)) -> Snapshot {
        let before = self.stats();
        f(self);
        self.stats().since(&before)
    }

    /// The retained trace, oldest first: every structural fact the
    /// coordinator recorded (splits, merges, `k` raises, upgrades,
    /// failures, recoveries, restarts, invariant violations) and the other
    /// actors' events. The ring keeps the newest 4096; count facts over a
    /// whole run with the `events{kind}` counter instead.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.metrics().events()
    }

    /// IAMs received by a client (image-convergence metric).
    pub fn client_iams(&self, client: ClientId) -> u64 {
        self.sim
            .actor(self.clients[client])
            .as_client()
            .iams_received
    }

    /// The image `(n', i')` a client currently holds.
    pub fn client_image(&self, client: ClientId) -> (u64, u8) {
        self.sim
            .actor(self.clients[client])
            .as_client()
            .image
            .parts()
    }

    /// Current simulated time (µs).
    pub fn now_us(&self) -> u64 {
        self.sim.now()
    }

    /// Storage accounting across all buckets.
    pub fn storage_report(&self) -> StorageReport {
        let reg = self.shared.registry.borrow();
        let m_buckets = reg.data_count();
        let mut data_records = 0;
        let mut data_bytes = 0;
        let mut data_store_bytes = 0;
        for b in 0..m_buckets as u64 {
            let node = reg.data_node(b);
            if self.sim.is_crashed(node) {
                continue;
            }
            let d = self.sim.actor(node).as_data();
            data_records += d.len();
            data_bytes += d.payload_bytes();
            data_store_bytes += d.store_bytes();
        }
        let mut parity_buckets = 0;
        let mut parity_records = 0;
        let mut parity_bytes = 0;
        let mut parity_store_bytes = 0;
        for g in 0..reg.group_count() as u64 {
            for node in reg.parity_nodes(g) {
                parity_buckets += 1;
                if self.sim.is_crashed(*node) {
                    continue;
                }
                let p = self.sim.actor(*node).as_parity();
                parity_records += p.len();
                parity_bytes += p.parity_bytes();
                parity_store_bytes += p.store_bytes();
            }
        }
        StorageReport {
            data_buckets: m_buckets,
            parity_buckets,
            data_records,
            parity_records,
            data_bytes,
            parity_bytes,
            data_store_bytes,
            parity_store_bytes,
            load_factor: data_records as f64
                / (m_buckets as f64 * self.shared.cfg.bucket_capacity as f64),
            storage_overhead: parity_buckets as f64 / m_buckets as f64,
        }
    }

    // ----- failure injection & drills -----

    /// Install a network fault plan (message loss, duplication, reordering,
    /// timed partitions) on the underlying simulator. Takes effect for all
    /// traffic sent after the call; replaces any previous plan. Drills that
    /// inject loss should run with [`Config::ack_parity`] (and usually
    /// [`Config::ack_writes`]) enabled, otherwise lost Δ-commits have no
    /// retransmission path and parity may drift until the next recovery.
    pub fn set_fault_plan(&mut self, plan: lhrs_sim::FaultPlan) {
        self.sim.set_fault_plan(plan);
    }

    /// Remove the active fault plan (the network is reliable again);
    /// returns the plan that was installed, if any.
    pub fn clear_fault_plan(&mut self) -> Option<lhrs_sim::FaultPlan> {
        self.sim.clear_fault_plan()
    }

    /// The simulator node currently carrying data bucket `bucket` — the
    /// handle fault drills need to aim a [`lhrs_sim::Partition`] at a
    /// specific server.
    pub fn data_node_id(&self, bucket: u64) -> NodeId {
        self.shared.registry.borrow().data_node(bucket)
    }

    /// The simulator node running the coordinator.
    pub fn coordinator_node_id(&self) -> NodeId {
        self.coordinator
    }

    /// The simulator node currently carrying parity bucket `index` of
    /// `group`.
    pub fn parity_node_id(&self, group: u64, index: usize) -> NodeId {
        self.shared.registry.borrow().parity_nodes(group)[index]
    }

    /// Crash the node carrying data bucket `bucket`.
    pub fn crash_data_bucket(&mut self, bucket: u64) {
        let node = self.shared.registry.borrow().data_node(bucket);
        self.sim.crash(node);
        self.crashed_log.push((node, CrashedShard::Data(bucket)));
    }

    /// Drill hook: corrupt the retained Δ-history of data column `col` on
    /// parity bucket `index` of `group`. Pair with a data-bucket restart to
    /// drive the catch-up abort path: the shipped suffix arrives
    /// undecodable and the bucket must give itself up to the full RS
    /// rebuild rather than resume below the certified watermark.
    pub fn corrupt_parity_history(&mut self, group: u64, index: usize, col: usize) {
        let node = self.shared.registry.borrow().parity_nodes(group)[index];
        self.sim
            .actor_mut(node)
            .as_parity_mut()
            .corrupt_history(col);
    }

    /// Crash parity bucket `index` of `group`.
    pub fn crash_parity_bucket(&mut self, group: u64, index: usize) {
        let node = self.shared.registry.borrow().parity_nodes(group)[index];
        self.sim.crash(node);
        self.crashed_log
            .push((node, CrashedShard::Parity(group, index)));
    }

    /// Drill hook: commit a split in the coordinator's address space, then
    /// crash the split's source bucket before the `DoSplit` order reaches
    /// it — the interleaving where a node dies after `state.split()` has
    /// committed the new address space but before the bucket partitioned.
    /// The RS rebuild later restores the pre-split content at the
    /// post-split level, and the install path must expel the records that
    /// address elsewhere. Returns the committed `(source, target)` pair.
    ///
    /// Call on an idle file with a non-busy coordinator and spare nodes in
    /// the pool; otherwise the split is deferred and the hook panics.
    pub fn drill_kill_during_split(&mut self) -> (u64, u64) {
        let source = self.coord().state.split_pointer();
        let target = self.bucket_count();
        let node = self.shared.registry.borrow().data_node(source);
        // Ask for a split exactly as an overflowing bucket would (the
        // coordinator ignores the report fields) ...
        self.sim.send_external(
            self.coordinator,
            Msg::ReportOverflow {
                bucket: source,
                size: 0,
            },
        );
        // ... deliver events until the address space commits ...
        while self.bucket_count() == target {
            assert!(self.sim.step(), "coordinator must act on the overflow");
        }
        // ... and kill the source before anything else — the DoSplit order
        // in particular — can reach it.
        self.sim.crash(node);
        self.crashed_log.push((node, CrashedShard::Data(source)));
        (source, target)
    }

    /// Bring back the node that was crashed while carrying data bucket
    /// `bucket`, with its state intact, and run the §2.5.4 self-detection
    /// protocol: the node asks the coordinator whether it still owns the
    /// bucket. Returns `true` if it resumed as the owner, `false` if it was
    /// demoted to a hot spare (the bucket had been recreated elsewhere).
    ///
    /// # Panics
    /// Panics if no such crash was injected.
    pub fn restart_data_bucket(&mut self, bucket: u64) -> bool {
        let pos = self
            .crashed_log
            .iter()
            .position(|(_, s)| *s == CrashedShard::Data(bucket))
            .expect("no crashed node recorded for this bucket");
        let (node, _) = self.crashed_log.remove(pos);
        self.sim.restart(node);
        self.sim.send_external(node, Msg::SelfReport);
        self.sim.run_until_idle();
        self.shared.registry.borrow().data_node(bucket) == node && !self.sim.actor(node).is_blank()
    }

    // ----- durable-store drills -----

    /// Install a [`StoreFactory`]: every data bucket initialised from now
    /// on logs its committed ops to a per-shard store, and every *live*
    /// data bucket already in the file gets a store attached and seeded
    /// with a snapshot of its current state. Parity columns keep no store
    /// (a lost one is re-encoded from its group); they start retaining the
    /// Δ-history restarted data buckets pull. Pair with
    /// [`storage::MemHub`] for deterministic disk-survives/disk-lost
    /// drills.
    pub fn install_store_factory(&mut self, factory: StoreFactory) {
        self.shared.set_store_factory(factory);
        let reg = self.shared.registry.borrow();
        let data: Vec<(u64, NodeId)> = (0..reg.data_count() as u64)
            .map(|b| (b, reg.data_node(b)))
            .collect();
        drop(reg);
        for (bucket, node) in data {
            if self.sim.is_crashed(node) {
                continue;
            }
            let id = StoreId::Data { bucket };
            if let Some(mut store) = self.shared.make_store(node, &id) {
                let _ = store.reset();
                let d = self.sim.actor_mut(node).as_data_mut();
                d.attach_store(store);
                d.snapshot_now();
            }
        }
    }

    /// Bring back the node that was crashed while carrying data bucket
    /// `bucket`, with its *memory lost* but its durable store intact: the
    /// bucket is rebuilt from its local snapshot + WAL, then runs the
    /// Δ-suffix handshake with the coordinator to catch up on whatever it
    /// missed while down. Returns `true` if it resumed as the owner.
    ///
    /// # Errors
    /// [`StoreError`] when no store factory is installed, the factory
    /// declines (disk lost), or the store cannot seed a bucket — the
    /// caller's fallback is the full RS rebuild via
    /// [`LhrsFile::check_group`].
    ///
    /// # Panics
    /// Panics if no such crash was injected.
    pub fn restart_data_bucket_from_store(&mut self, bucket: u64) -> Result<bool, StoreError> {
        let pos = self
            .crashed_log
            .iter()
            .position(|(_, s)| *s == CrashedShard::Data(bucket))
            .expect("no crashed node recorded for this bucket");
        let (node, _) = self.crashed_log[pos];
        let store = self
            .shared
            .make_store(node, &StoreId::Data { bucket })
            .ok_or_else(|| StoreError::Io("no durable store for this bucket".into()))?;
        let recovered = storage::recover(&self.shared, store)?;
        self.crashed_log.remove(pos);
        self.metrics().trace(
            self.sim.now(),
            lhrs_obs::Event::WalReplay {
                bucket,
                ops: recovered.ops_replayed,
                bytes: recovered.bytes_replayed,
            },
        );
        self.sim.replace(node, recovered.node);
        self.sim.send_external(node, Msg::SelfReport);
        self.sim.run_until_idle();
        Ok(self.shared.registry.borrow().data_node(bucket) == node
            && !self.sim.actor(node).is_blank())
    }

    /// Audit a group's liveness and recover any failed shards; returns what
    /// happened.
    pub fn check_group(&mut self, group: u64) -> RecoveryReport {
        let cursor = self.metrics().trace_log().map_or(0, |t| t.pushed());
        self.sim
            .send_external(self.coordinator, Msg::CheckGroup { group });
        self.sim.run_until_idle();
        let mut report = RecoveryReport {
            failed_shards: Vec::new(),
            recovered: false,
            unrecoverable: false,
            duration_us: 0,
        };
        let mut t_detect = None;
        for ev in self.events().into_iter().filter(|e| e.seq >= cursor) {
            let t = ev.at_us;
            match ev.event {
                Event::FailureDetected { group: g, shards } if g == group => {
                    report.failed_shards = shards.into_iter().map(|s| s as usize).collect();
                    t_detect = Some(t);
                }
                Event::RecoveryEnd {
                    group: g, ok: true, ..
                } if g == group => {
                    report.recovered = true;
                    report.duration_us = t - t_detect.unwrap_or(t);
                }
                Event::RecoveryEnd {
                    group: g,
                    ok: false,
                    ..
                } if g == group => report.unrecoverable = true,
                _ => {}
            }
        }
        report
    }

    /// Undo the last split: merge the last bucket back into its split
    /// source (§4.3 shrink operation for deletion-heavy files), retiring
    /// the freed node — and, when a group empties, its parity nodes — to
    /// the spare pool. Returns `false` when the file is at its initial
    /// size. The *when* (load-control policy) is left to the deployment,
    /// as in the paper; call this when the load factor warrants it.
    pub fn force_merge(&mut self) -> bool {
        let before = self.bucket_count();
        if before <= 1 {
            return false;
        }
        self.sim.send_external(self.coordinator, Msg::ForceMerge);
        self.sim.run_until_idle();
        self.bucket_count() == before - 1
    }

    /// Drill algorithm A6: wipe the coordinator's `(n, i)` and rebuild it
    /// from a bucket scan. Returns the recovered `(n, i)`.
    ///
    /// As in the paper, the scan assumes the queried data buckets are
    /// available (A6 handles the loss of the *state*, held at bucket 0 in
    /// the original design, not concurrent bucket outages — recover those
    /// first via [`LhrsFile::check_group`]). If some buckets never reply,
    /// the scan does not terminate and the previous state is returned
    /// unchanged.
    pub fn drill_file_state_recovery(&mut self) -> (u64, u8) {
        self.sim
            .send_external(self.coordinator, Msg::RecoverFileState);
        self.sim.run_until_idle();
        let state = self.coord().state;
        (state.split_pointer(), state.level())
    }

    // ----- deep invariants (used heavily by the test suite) -----

    /// Verify the global LH\*RS invariants across every group:
    ///
    /// 1. every record's bucket matches A1 under the true file state;
    /// 2. for every group and rank, the parity cells equal the
    ///    Reed–Solomon encoding of the member cells;
    /// 3. the key lists in every parity bucket match the data buckets;
    /// 4. all parity buckets of a group agree on membership.
    ///
    /// Groups containing crashed nodes are skipped (call after recovery).
    pub fn verify_integrity(&self) -> Result<(), String> {
        let reg = self.shared.registry.borrow();
        let cfg = &self.shared.cfg;
        let m = cfg.group_size;
        let cell_len = cfg.cell_len();
        let state = self.coord().state;
        let total = reg.data_count() as u64;
        let groups = reg.group_count() as u64;

        for g in 0..groups {
            let k_g = reg.group_k(g);
            let data_nodes: Vec<(u64, NodeId)> = (g * m as u64..((g + 1) * m as u64).min(total))
                .map(|b| (b, reg.data_node(b)))
                .collect::<Vec<_>>();
            let parity_nodes = reg.parity_nodes(g);
            if data_nodes.iter().any(|(_, n)| self.sim.is_crashed(*n))
                || parity_nodes.iter().any(|n| self.sim.is_crashed(*n))
            {
                continue;
            }
            let code = RsCode::<Gf8>::new(m, k_g).map_err(|e| e.to_string())?;

            // Gather per-rank member cells and keys.
            use std::collections::BTreeMap;
            type MemberRow = Vec<Option<(Key, Vec<u8>)>>;
            let mut members: BTreeMap<u64, MemberRow> = BTreeMap::new();
            for (b, node) in &data_nodes {
                let bucket = self.sim.actor(*node).as_data();
                if bucket.bucket != *b {
                    return Err(format!("node carries bucket {} not {b}", bucket.bucket));
                }
                if state.level_of(*b) != bucket.level {
                    return Err(format!(
                        "bucket {b} level {} but state implies {}",
                        bucket.level,
                        state.level_of(*b)
                    ));
                }
                let col = (b % m as u64) as usize;
                for (rank, key, payload) in bucket.iter() {
                    if state.address(key) != *b {
                        return Err(format!("record {key} misplaced in bucket {b}"));
                    }
                    members.entry(rank).or_insert_with(|| vec![None; m])[col] =
                        Some((key, payload.to_vec()));
                }
            }

            for (q, pnode) in parity_nodes.iter().enumerate() {
                let pb = self.sim.actor(*pnode).as_parity();
                if pb.group != g || pb.index != q {
                    return Err(format!(
                        "parity node mismatch: carries ({}, {}), expected ({g}, {q})",
                        pb.group, pb.index
                    ));
                }
                let mut seen = 0usize;
                for (rank, keys, cell) in pb.iter() {
                    seen += 1;
                    let Some(row) = members.get(&rank) else {
                        return Err(format!(
                            "group {g} parity {q} has ghost record at rank {rank}"
                        ));
                    };
                    // Keys must match exactly.
                    for (c, slot) in row.iter().enumerate() {
                        let expect = slot.as_ref().map(|(k, _)| *k);
                        if keys[c] != expect {
                            return Err(format!(
                                "group {g} parity {q} rank {rank} col {c}: keys {:?} != {:?}",
                                keys[c], expect
                            ));
                        }
                    }
                    // Parity cell must equal the RS encoding.
                    let cells: Vec<Vec<u8>> = row
                        .iter()
                        .map(|slot| match slot {
                            Some((_, payload)) => encode_cell(payload, cell_len),
                            None => vec![0u8; cell_len],
                        })
                        .collect();
                    let refs: Vec<&[u8]> = cells.iter().map(|c| c.as_slice()).collect();
                    let expect = code.encode(&refs).map_err(|e| e.to_string())?;
                    if cell != expect[q] {
                        return Err(format!(
                            "group {g} parity {q} rank {rank}: parity cell mismatch"
                        ));
                    }
                }
                if seen != members.len() {
                    return Err(format!(
                        "group {g} parity {q}: {seen} parity records but {} record groups",
                        members.len()
                    ));
                }
            }
        }
        Ok(())
    }

    fn coord(&self) -> &Coordinator {
        self.sim.actor(self.coordinator).as_coordinator()
    }
}

/// The unified client API over the simulated file: every operation runs
/// through client 0 and drives the simulation to quiescence.
impl crate::api::KvClient for LhrsFile {
    fn insert(&mut self, key: Key, payload: Vec<u8>) -> crate::api::OpOutcome {
        if let Err(e) = self.check_payload(&payload) {
            return crate::api::OpOutcome::Failed(e.to_string());
        }
        self.outcome_of(ClientOp::Insert { key, payload })
    }

    fn lookup(&mut self, key: Key) -> crate::api::OpOutcome {
        self.outcome_of(ClientOp::Lookup { key })
    }

    fn update(&mut self, key: Key, payload: Vec<u8>) -> crate::api::OpOutcome {
        if let Err(e) = self.check_payload(&payload) {
            return crate::api::OpOutcome::Failed(e.to_string());
        }
        self.outcome_of(ClientOp::Update { key, payload })
    }

    fn delete(&mut self, key: Key) -> crate::api::OpOutcome {
        self.outcome_of(ClientOp::Delete { key })
    }

    fn scan(&mut self, filter: FilterSpec) -> crate::api::OpOutcome {
        self.outcome_of(ClientOp::Scan { filter })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhrs_sim::LatencyModel;

    /// The split target's load row: a target whose source never partitions
    /// (here, `DoSplit` is lost until the split row gives up) holds the key
    /// request it gets, and serves it when the row expires instead of
    /// holding key traffic for good.
    #[test]
    fn a_split_target_whose_load_never_comes_serves_after_its_watchdog() {
        let cfg = Config {
            group_size: 4,
            initial_k: 1,
            bucket_capacity: 8,
            ack_writes: true,
            ack_parity: true,
            latency: LatencyModel::instant(),
            ..Config::default()
        };
        let (retransmit, rounds) = (cfg.coord_retransmit_us, u64::from(cfg.coord_retries));
        let mut file = LhrsFile::new(cfg).unwrap();
        let mut key = 0u64;
        while file.bucket_count() < 4 {
            file.insert(key, vec![7; 4]).unwrap();
            key += 1;
        }
        let source = file.data_node_id(0);
        let now = file.now_us();
        let silent = lhrs_sim::Partition::new(vec![source], now, now + 100 * retransmit);
        file.set_fault_plan(lhrs_sim::FaultPlan::new(0).partition(silent));
        file.sim
            .send_external(file.coordinator, Msg::ReportOverflow { bucket: 0, size: 0 });
        while file.bucket_count() == 4 {
            assert!(file.sim.step(), "the overflow commits a split");
        }
        let target = file.data_node_id(4);
        while file.sim.actor(target).is_blank() {
            assert!(file.sim.step(), "InitData reaches the target");
        }
        let fresh = (key..).find(|k| file.address_of(*k) == 4).unwrap();
        let insert = Msg::Req {
            op_id: 1 << 40,
            floor: 1 << 40,
            client: file.clients[0],
            intended: 4,
            hops: 0,
            kind: crate::msg::ReqKind::Insert(fresh, vec![9; 4]),
        };
        let held_at = file.now_us();
        file.sim.send_as(file.clients[0], target, insert);
        file.sim.run_until_idle();

        assert_eq!(file.metrics().counter("split_load_expired"), 1);
        assert!(file.now_us() >= held_at + (rounds + 2) * retransmit);
        let records: Vec<Key> = file
            .sim
            .actor(target)
            .as_data()
            .iter()
            .map(|r| r.1)
            .collect();
        assert_eq!(records, vec![fresh], "the held insert applied");
    }

    /// A duplicated update delivered after the client's later writes, once
    /// a split has moved its key: one copy as the client first sent it, to
    /// the key's old bucket, and one as the coordinator replays a parked op
    /// (floor 0), to its new one. The old bucket knows the client's floor
    /// from the later writes; the new one only from the split load's
    /// floors. Both refuse the copy, and the newer value survives.
    #[test]
    fn a_late_duplicate_update_after_a_split_loses_to_the_newer_value() {
        let mut file = LhrsFile::new(Config {
            group_size: 4,
            initial_k: 1,
            bucket_capacity: 8,
            ack_writes: true,
            ack_parity: true,
            latency: LatencyModel::instant(),
            ..Config::default()
        })
        .unwrap();
        for key in 0..4u64 {
            file.insert(key, vec![0; 4]).unwrap();
        }
        // Key 1 moves to bucket 1 when bucket 0 splits.
        let key = 1;
        file.update(key, b"old".to_vec()).unwrap();
        let op_id = file.next_op - 1;
        let copy = |floor, intended, hops| Msg::Req {
            op_id,
            floor,
            client: file.clients[0],
            intended,
            hops,
            kind: crate::msg::ReqKind::Update(key, b"old".to_vec()),
        };
        let (dup, replayed) = (copy(op_id, 0, 0), copy(0, 1, 1));
        file.update(key, b"new".to_vec()).unwrap();
        let mut next = 4u64;
        while file.bucket_count() < 2 {
            file.insert(next, vec![0; 4]).unwrap();
            next += 1;
        }
        assert_eq!(file.address_of(key), 1, "the split moved the key");

        file.sim.send_as(file.clients[0], file.data_node_id(0), dup);
        file.sim
            .send_as(file.coordinator, file.data_node_id(1), replayed);
        file.sim.run_until_idle();

        assert_eq!(file.metrics().counter("replay_stale"), 2);
        assert_eq!(file.lookup(key).unwrap(), Some(b"new".to_vec()));
        file.verify_integrity().unwrap();
    }

    /// `FindRecordReply` arrives off the wire, so a parity bucket that
    /// claims "found" with a key list lacking the key (buggy or byzantine)
    /// must cost exactly that one lookup: an audit event and a failed
    /// reply, not a coordinator abort.
    #[test]
    fn lying_find_record_reply_fails_one_lookup_and_leaves_an_audit_event() {
        let mut file = LhrsFile::new(Config {
            group_size: 4,
            initial_k: 1,
            bucket_capacity: 64,
            ack_writes: true,
            ack_parity: true,
            latency: LatencyModel::instant(),
            ..Config::default()
        })
        .unwrap();
        for key in 0..8u64 {
            file.insert(key, vec![7; 4]).unwrap();
        }
        let pnode = file.parity_node_id(0, 0);
        file.crash_data_bucket(0);

        // Start a lookup by hand and stop the world the moment the
        // coordinator asks the parity bucket which rank holds the key ...
        let client = file.clients[0];
        let op_id = file.next_op;
        file.next_op += 1;
        let op = ClientOp::Lookup { key: 3 };
        file.sim.send_external(client, Msg::Do { op_id, op });
        while file.metrics().counter_kind("msgs_sent", "find-record") == 0 {
            assert!(file.sim.step(), "the degraded read must start");
        }
        // ... then answer in the parity bucket's place. The token is the
        // coordinator's secret; a reply under any other one is ignored, so
        // sweep the small token space.
        file.sim.crash(pnode);
        for token in 0..64 {
            let found = Some((0, vec![None; 4]));
            let lie = Msg::FindRecordReply { token, found };
            file.sim.send_as(pnode, file.coordinator, lie);
        }
        file.sim.run_until_idle();

        let results = file.sim.actor_mut(client).as_client_mut().take_results();
        assert!(
            matches!(results.as_slice(), [(id, OpResult::Failed(why))]
                if *id == op_id && why.contains("inconsistent parity reply")),
            "{results:?}"
        );
        assert!(file
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::InvariantViolated { .. })));
        assert_eq!(file.metrics().counter("invariant_violations"), 1);
    }

    /// A `ShardData` settles its (token, shard) once: a duplicate that
    /// arrives after the collection completed must not decode again, take
    /// a second spare or send a second `Install`.
    #[test]
    fn a_duplicated_shard_data_does_not_rerun_the_rebuild() {
        let mut file = LhrsFile::new(Config {
            group_size: 4,
            initial_k: 1,
            bucket_capacity: 64,
            ack_writes: true,
            ack_parity: true,
            latency: LatencyModel::instant(),
            ..Config::default()
        })
        .unwrap();
        for key in 0..8u64 {
            file.insert(key, vec![7; 4]).unwrap();
        }
        let pnode = file.parity_node_id(0, 0);
        let spares = file.coord().pool.len();
        file.crash_data_bucket(0);

        // Audit the group and stop the world once the collection is
        // complete and the rebuilt shard is on its way to a spare ...
        file.sim
            .send_external(file.coordinator, Msg::CheckGroup { group: 0 });
        while file.metrics().counter_kind("msgs_sent", "install") == 0 {
            assert!(file.sim.step(), "the rebuild must start");
        }
        // ... then deliver the parity shard again under every token in
        // the small token space.
        for token in 0..64 {
            let content = crate::msg::ShardContent::Parity {
                records: Vec::new(),
                col_seqs: vec![0; 4],
            };
            let again = Msg::ShardData {
                token,
                shard: 4,
                content,
            };
            file.sim.send_as(pnode, file.coordinator, again);
        }
        file.sim.run_until_idle();

        assert_eq!(file.metrics().counter("recoveries_completed"), 1);
        assert_eq!(file.stats().count("install"), 1);
        assert_eq!(file.coord().pool.len(), spares - 1);
        assert_eq!(file.lookup(3).unwrap(), Some(vec![7; 4]));
    }

    /// A Δ's `col` is a `usize` off the wire. An entry for a column outside
    /// the group is dropped and counted; the rest of its batch applies.
    #[test]
    fn a_delta_for_a_column_outside_the_group_is_dropped() {
        let mut file = LhrsFile::new(Config {
            group_size: 4,
            initial_k: 1,
            latency: LatencyModel::instant(),
            ..Config::default()
        })
        .unwrap();
        for key in 0..8u64 {
            file.insert(key, vec![7; 4]).unwrap();
        }
        let (data, parity) = (file.data_node_id(0), file.parity_node_id(0, 0));
        let bucket = file.sim.actor(data).as_data();
        let (rank, _, _) = bucket.iter().next().unwrap();
        // What the bucket sends for an update that rewrites a payload
        // unchanged: the next Δ of column 0, zero, no key-list effect.
        let entry = |col| crate::msg::DeltaEntry {
            seq: bucket.delta_seq(),
            rank,
            col,
            key_op: crate::msg::KeyOp::Keep,
            delta_cell: vec![0; file.shared.cfg.cell_len()],
        };
        let (valid, outside) = (entry(0), entry(4));
        let applied = file.metrics().counter("deltas_applied");
        let batch = Msg::ParityBatch {
            group: 0,
            entries: vec![valid, outside],
            durable: None,
            ack_to: None,
        };
        file.sim.send_as(data, parity, batch);
        file.sim.run_until_idle();

        assert_eq!(file.metrics().counter("deltas_applied"), applied + 1);
        assert_eq!(file.metrics().counter("deltas_dropped"), 1);
        file.verify_integrity().unwrap();
        for key in 0..8u64 {
            assert_eq!(file.lookup(key).unwrap(), Some(vec![7; 4]));
        }
    }

    /// A group check that ends while a merge is in flight must not start a
    /// deferred split: the split would re-create the bucket being merged
    /// away. Merges count as structural work for `run_owed` as they do
    /// for `busy()`, so the split waits for `MergeDone`.
    #[test]
    fn check_ending_mid_merge_defers_the_split_until_the_merge_lands() {
        for latency in [LatencyModel::instant(), LatencyModel::default()] {
            let mut file = LhrsFile::new(Config {
                group_size: 4,
                initial_k: 2,
                latency,
                ..Config::default()
            })
            .unwrap();
            for key in 0..200u64 {
                file.insert(key, vec![key as u8; 8]).unwrap();
            }
            let cursor = file.metrics().trace_log().unwrap().pushed();
            for msg in [
                Msg::ForceMerge,
                Msg::ReportOverflow { bucket: 0, size: 0 },
                Msg::CheckGroup { group: 0 },
            ] {
                file.sim.send_external(file.coordinator, msg);
            }
            file.sim.run_until_idle();

            let events: Vec<Event> = file
                .events()
                .into_iter()
                .filter(|e| e.seq >= cursor)
                .map(|e| e.event)
                .collect();
            assert!(
                matches!(
                    events.as_slice(),
                    [
                        Event::MergeDone { .. },
                        Event::SplitStart { .. },
                        Event::SplitEnd { .. }
                    ]
                ),
                "{events:?}"
            );
            file.verify_integrity().unwrap();
            for key in 0..200u64 {
                assert_eq!(file.lookup(key).unwrap(), Some(vec![key as u8; 8]));
            }
        }
    }
}
