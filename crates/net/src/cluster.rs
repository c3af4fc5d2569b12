//! The cluster specification every process of a deployment parses: node
//! ids, addresses, roles, and the file [`Config`].
//!
//! A deployment is described by one text file (see [`ClusterSpec::parse`])
//! that every `lhrs-netd` / `lhrs-netcli` invocation reads. Because each
//! process derives the *same* initial registry from the same spec (by
//! [`initial_layout`], as `LhrsFile::new` does), the cluster starts
//! coherent without any bootstrap protocol; from then on the coordinator's
//! host broadcasts [`crate::frame::RegistryUpdate`] snapshots as the table
//! evolves.
//!
//! ```text
//! # lines are `config <key> <value>` or `node <id> <addr> [role]`
//! config group_size 2
//! config initial_k 1
//! config ack_writes true
//! node 0 127.0.0.1:7000 coordinator
//! node 1 127.0.0.1:7001 client
//! node 2 127.0.0.1:7002
//! node 3 127.0.0.1:7003
//! ...
//! ```
//!
//! Ids must be dense from 0; node 0 must be the coordinator. Server nodes
//! (no role) are laid out by [`initial_layout`], as in the simulator's
//! initial file.

use lhrs_core::client::Client;
use lhrs_core::coordinator::Coordinator;
use lhrs_core::data_bucket::DataBucket;
use lhrs_core::node::Node;
use lhrs_core::parity_bucket::ParityBucket;
use lhrs_core::registry::{initial_layout, Shared, SharedHandle};
use lhrs_core::Config;
use lhrs_sim::NodeId;

/// What a node in the spec is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The coordinator (exactly one, id 0).
    Coordinator,
    /// A client host (not part of the server pool).
    Client,
    /// A server: data bucket, parity bucket, or spare, as the file decides.
    Server,
}

/// One node of the deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// The node id (dense from 0 across the spec).
    pub id: u32,
    /// `host:port` the hosting process listens on for this node.
    pub addr: String,
    /// The node's role.
    pub role: Role,
}

/// A full deployment description: file config plus the node list.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The LH\*RS file configuration (shared verbatim by every process).
    pub cfg: Config,
    /// All nodes, indexed by id.
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// Parse the text format described in the module docs.
    pub fn parse(text: &str) -> Result<ClusterSpec, String> {
        let mut cfg = Config::default();
        let mut nodes: Vec<NodeSpec> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            match parts.next() {
                Some("config") => {
                    let key = parts.next().ok_or_else(|| err("missing config key"))?;
                    let val = parts.next().ok_or_else(|| err("missing config value"))?;
                    apply_config(&mut cfg, key, val).map_err(|e| err(&e))?;
                }
                Some("node") => {
                    let id: u32 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad node id"))?;
                    let addr = parts.next().ok_or_else(|| err("missing address"))?;
                    let role = match parts.next() {
                        None => Role::Server,
                        Some("coordinator") => Role::Coordinator,
                        Some("client") => Role::Client,
                        Some(other) => return Err(err(&format!("unknown role {other:?}"))),
                    };
                    nodes.push(NodeSpec {
                        id,
                        addr: addr.to_string(),
                        role,
                    });
                }
                Some(other) => return Err(err(&format!("unknown directive {other:?}"))),
                None => unreachable!("blank lines skipped above"),
            }
        }
        cfg.node_pool = nodes.iter().filter(|n| n.role == Role::Server).count() + 2;
        let spec = ClusterSpec { cfg, nodes };
        spec.validate()?;
        Ok(spec)
    }

    /// Render back to the text format (inverse of [`ClusterSpec::parse`]
    /// for the keys the format covers).
    pub fn render(&self) -> String {
        let c = &self.cfg;
        let mut out = String::new();
        for (key, val) in [
            ("group_size", c.group_size.to_string()),
            ("initial_k", c.initial_k.to_string()),
            ("bucket_capacity", c.bucket_capacity.to_string()),
            ("record_len", c.record_len.to_string()),
            ("ack_writes", c.ack_writes.to_string()),
            ("ack_parity", c.ack_parity.to_string()),
            ("client_timeout_us", c.client_timeout_us.to_string()),
            ("client_retries", c.client_retries.to_string()),
            ("retry_backoff_cap_us", c.retry_backoff_cap_us.to_string()),
            ("delta_retransmit_us", c.delta_retransmit_us.to_string()),
            ("probe_timeout_us", c.probe_timeout_us.to_string()),
            ("coord_retransmit_us", c.coord_retransmit_us.to_string()),
            ("coord_retries", c.coord_retries.to_string()),
            ("client_window", c.client_window.to_string()),
            ("wal_snapshot_every", c.wal_snapshot_every.to_string()),
            ("wal_fsync", c.wal_fsync.to_string()),
        ] {
            out.push_str(&format!("config {key} {val}\n"));
        }
        for n in &self.nodes {
            let role = match n.role {
                Role::Coordinator => " coordinator",
                Role::Client => " client",
                Role::Server => "",
            };
            out.push_str(&format!("node {} {}{}\n", n.id, n.addr, role));
        }
        out
    }

    /// Check the file config against [`Config::validate`] and the spec's
    /// structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        self.cfg.validate().map_err(|e| e.to_string())?;
        if !self.cfg.ack_writes {
            return Err(
                "ack_writes must be true: without acks a networked client never \
                 hears that a write succeeded (only the simulator settles un-acked \
                 writes, once its network is quiet)"
                    .into(),
            );
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id as usize != i {
                return Err(format!(
                    "node ids must be dense from 0; got {} at {i}",
                    n.id
                ));
            }
        }
        match self.nodes.first() {
            Some(n) if n.role == Role::Coordinator => {}
            _ => return Err("node 0 must be the coordinator".into()),
        }
        if self
            .nodes
            .iter()
            .skip(1)
            .any(|n| n.role == Role::Coordinator)
        {
            return Err("exactly one coordinator allowed".into());
        }
        let servers = self.server_ids();
        if servers.len() < 1 + self.cfg.initial_k {
            return Err(format!(
                "need at least {} server nodes (bucket 0 + k parity), got {}",
                1 + self.cfg.initial_k,
                servers.len()
            ));
        }
        Ok(())
    }

    /// Server node ids in ascending order.
    pub fn server_ids(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|n| n.role == Role::Server)
            .map(|n| n.id)
            .collect()
    }

    /// The initial placement, [`initial_layout`] over the server nodes:
    /// `(bucket0, parity nodes of group 0, spare pool)`.
    pub fn layout(&self) -> (NodeId, Vec<NodeId>, Vec<NodeId>) {
        let servers: Vec<NodeId> = self.server_ids().into_iter().map(NodeId).collect();
        initial_layout(&servers, self.cfg.initial_k)
            .expect("validate() requires bucket 0 + k parity servers")
    }

    /// Build this process's shared handle with the initial allocation
    /// table. Every process derives the identical table from the spec.
    pub fn build_shared(&self) -> SharedHandle {
        let shared = Shared::new(self.cfg.clone());
        let (bucket0, parity, _) = self.layout();
        {
            let mut reg = shared.registry.borrow_mut();
            reg.set_coordinator(NodeId(0));
            reg.push_data(0, bucket0);
            reg.set_parity(0, parity);
        }
        shared
    }

    /// Build the initial [`Node`] actor for id `id` within this process.
    pub fn build_node(&self, shared: &SharedHandle, id: u32) -> Node {
        let (bucket0, parity, pool) = self.layout();
        let k = self.cfg.initial_k;
        let spec = &self.nodes[id as usize];
        match spec.role {
            Role::Coordinator => {
                Node::Coordinator(Box::new(Coordinator::new(shared.clone(), pool)))
            }
            Role::Client => Node::Client(Client::new(shared.clone())),
            Role::Server => {
                if NodeId(id) == bucket0 {
                    Node::Data(DataBucket::new(shared.clone(), 0, 0))
                } else if let Some(q) = parity.iter().position(|n| *n == NodeId(id)) {
                    Node::Parity(
                        ParityBucket::new(shared.clone(), 0, q, k)
                            .expect("the spec's group_size + initial_k fits its field"),
                    )
                } else {
                    Node::Blank {
                        shared: shared.clone(),
                        pending: Vec::new(),
                    }
                }
            }
        }
    }

    /// `(id, addr)` pairs for the transport's peer map.
    pub fn addr_map(&self) -> Vec<(u32, String)> {
        self.nodes.iter().map(|n| (n.id, n.addr.clone())).collect()
    }

    /// The address of node `id`.
    pub fn addr_of(&self, id: u32) -> &str {
        &self.nodes[id as usize].addr
    }
}

/// Apply one `config <key> <value>` line.
fn apply_config(cfg: &mut Config, key: &str, val: &str) -> Result<(), String> {
    fn p<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
        val.parse()
            .map_err(|_| format!("bad value {val:?} for {key}"))
    }
    match key {
        "group_size" => cfg.group_size = p(key, val)?,
        "initial_k" => cfg.initial_k = p(key, val)?,
        "bucket_capacity" => cfg.bucket_capacity = p(key, val)?,
        "record_len" => cfg.record_len = p(key, val)?,
        "ack_writes" => cfg.ack_writes = p(key, val)?,
        "ack_parity" => cfg.ack_parity = p(key, val)?,
        "client_timeout_us" => cfg.client_timeout_us = p(key, val)?,
        "client_retries" => cfg.client_retries = p(key, val)?,
        "retry_backoff_cap_us" => cfg.retry_backoff_cap_us = p(key, val)?,
        "delta_retransmit_us" => cfg.delta_retransmit_us = p(key, val)?,
        "probe_timeout_us" => cfg.probe_timeout_us = p(key, val)?,
        "coord_retransmit_us" => cfg.coord_retransmit_us = p(key, val)?,
        "coord_retries" => cfg.coord_retries = p(key, val)?,
        "client_window" => cfg.client_window = p(key, val)?,
        "wal_snapshot_every" => cfg.wal_snapshot_every = p(key, val)?,
        "wal_fsync" => cfg.wal_fsync = p(key, val)?,
        other => return Err(format!("unknown config key {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# demo cluster
config group_size 2
config initial_k 1
config ack_writes true
config ack_parity true
node 0 127.0.0.1:7000 coordinator
node 1 127.0.0.1:7001 client
node 2 127.0.0.1:7002
node 3 127.0.0.1:7003
node 4 127.0.0.1:7004
node 5 127.0.0.1:7005
";

    #[test]
    fn parse_and_layout() {
        let spec = ClusterSpec::parse(SPEC).unwrap();
        assert_eq!(spec.cfg.group_size, 2);
        assert!(spec.cfg.ack_writes && spec.cfg.ack_parity);
        assert_eq!(spec.nodes.len(), 6);
        let (b0, parity, pool) = spec.layout();
        assert_eq!(b0, NodeId(2));
        assert_eq!(parity, vec![NodeId(3)]);
        // Spares listed highest id first, like the simulator's.
        assert_eq!(pool, vec![NodeId(5), NodeId(4)]);
    }

    #[test]
    fn render_roundtrips() {
        let spec = ClusterSpec::parse(SPEC).unwrap();
        let again = ClusterSpec::parse(&spec.render()).unwrap();
        assert_eq!(spec.nodes, again.nodes);
        assert_eq!(spec.cfg.group_size, again.cfg.group_size);
        assert_eq!(spec.cfg.client_window, again.cfg.client_window);
        assert_eq!(spec.cfg.wal_snapshot_every, again.cfg.wal_snapshot_every);
        assert_eq!(spec.cfg.wal_fsync, again.cfg.wal_fsync);
    }

    #[test]
    fn wal_knobs_parse() {
        let text = format!("{SPEC}config wal_snapshot_every 16\nconfig wal_fsync always\n");
        let spec = ClusterSpec::parse(&text).unwrap();
        assert_eq!(spec.cfg.wal_snapshot_every, 16);
        assert_eq!(spec.cfg.wal_fsync, lhrs_core::FsyncPolicy::Always);
        assert!(ClusterSpec::parse(&format!("{SPEC}config wal_fsync sometimes\n")).is_err());
    }

    #[test]
    fn client_window_parses() {
        let spec = ClusterSpec::parse(&format!("{SPEC}config client_window 128\n")).unwrap();
        assert_eq!(spec.cfg.client_window, 128);
        // A zero window is rejected at spec-parse time, not at first use.
        assert!(ClusterSpec::parse(&format!("{SPEC}config client_window 0\n")).is_err());
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(ClusterSpec::parse("node 1 x:1 coordinator").is_err());
        assert!(ClusterSpec::parse("flurb 0").is_err());
        assert!(ClusterSpec::parse("config group_size banana").is_err());
        // Coordinator not at id 0.
        assert!(ClusterSpec::parse("node 0 x:1 client\nnode 1 x:2 coordinator").is_err());
        // Values `Config::validate` refuses: an error here, not a panic at boot.
        for line in [
            "config group_size 300",
            "config group_size 0",
            "config initial_k 0",
            "config initial_k 18446744073709551615",
            "config record_len 0",
            "config record_len 4000000",
        ] {
            assert!(
                ClusterSpec::parse(&format!("{SPEC}{line}\n")).is_err(),
                "{line}"
            );
        }
    }

    #[test]
    fn writes_without_acks_are_refused() {
        let spec = SPEC.replace("config ack_writes true\n", "");
        let err = ClusterSpec::parse(&spec).expect_err("ack_writes defaults to false");
        assert!(err.contains("ack_writes must be true"), "{err}");
        let off = SPEC.replace("ack_writes true", "ack_writes false");
        assert!(ClusterSpec::parse(&off).is_err());
    }

    #[test]
    fn shared_table_matches_layout() {
        let spec = ClusterSpec::parse(SPEC).unwrap();
        let shared = spec.build_shared();
        let reg = shared.registry.borrow();
        assert_eq!(reg.coordinator(), NodeId(0));
        assert_eq!(reg.data_node(0), NodeId(2));
        assert_eq!(reg.parity_nodes(0), &[NodeId(3)]);
    }
}
