//! Golden-bytes pin of every persistent or peer-visible encoding: a seeded
//! corpus is encoded and folded into one digest, so a codec change that
//! moves a single bit on the wire, in the WAL or in a snapshot fails here
//! (round-trip tests cannot see that — a codec that changes both halves
//! consistently still round-trips).
//!
//! The corpus only goes through public API, so this file runs unchanged
//! against older commits. An *intended* format change bumps
//! `WIRE_VERSION`/`SNAP_VERSION` and re-pins `GOLDEN`.

mod arb;

use arb::{arb_delta_entry, arb_key, arb_msg_variant, arb_node, arb_payload, VARIANTS};
use lhrs_core::storage::{encode_op, MemHub, StoreId, WalOp};
use lhrs_core::wire::encode_msg;
use lhrs_core::{Config, LhrsFile};
use lhrs_net::frame::{encode_frame, hosted_payload, FrameType, RegistryUpdate};
use lhrs_sim::{LatencyModel, NodeId};
use lhrs_testkit::Rng;

/// FNV-1a over length-prefixed items (the prefix keeps item boundaries in
/// the digest: moving a byte from one encoding to the next changes it).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn item(&mut self, encoded: &[u8]) {
        self.bytes(&(encoded.len() as u64).to_le_bytes());
        self.bytes(encoded);
    }
}

/// The snapshot a bucket's store holds, read back through the store API.
fn snapshot_of(hub: &MemHub, id: &StoreId) -> Vec<u8> {
    let disk = hub.disk(id).unwrap_or_else(|| panic!("{id:?} has a disk"));
    let replay = disk.open().replay().expect("mem store replays");
    replay
        .snapshot
        .unwrap_or_else(|| panic!("{id:?} has a snapshot"))
}

const GOLDEN: u64 = 0xc9e1_5932_7ba3_89d3;

#[test]
fn encodings_match_the_pinned_digest() {
    let mut d = Digest::new();
    let mut rng = Rng::new(0x4C48_2A52_5321);

    // Every Msg variant, 8 instances each.
    for _ in 0..8 {
        for v in 0..VARIANTS {
            let buf = encode_msg(&arb_msg_variant(&mut rng, v));
            assert_eq!(u64::from(buf[1]), v + 1, "variant {v} carries tag {v}+1");
            d.item(&buf);
        }
    }

    // Every WalOp, as the stores log them.
    for _ in 0..8 {
        d.item(&encode_op(&WalOp::Set {
            rank: rng.below(1 << 20),
            key: arb_key(&mut rng),
            payload: arb_payload(&mut rng),
            delta_seq: rng.next_u64() >> 16,
        }));
        d.item(&encode_op(&WalOp::Del {
            rank: rng.below(1 << 20),
            key: arb_key(&mut rng),
            delta_seq: rng.next_u64() >> 16,
        }));
        d.item(&encode_op(&WalOp::Delta(arb_delta_entry(&mut rng))));
    }

    // The data snapshot encoding (parity columns keep no store). The
    // encoder is crate-private, so let a one-bucket file write it: snapshot
    // after every logged op, five inserts, no split — the snapshot then
    // holds ranks 0..5 of bucket 0, and nothing else of the protocol's
    // behaviour leaks into the digest.
    let mut file = LhrsFile::new(Config {
        group_size: 4,
        initial_k: 1,
        bucket_capacity: 8,
        record_len: 32,
        ack_writes: true,
        ack_parity: true,
        latency: LatencyModel::instant(),
        wal_snapshot_every: 1,
        ..Config::default()
    })
    .unwrap();
    let hub = MemHub::new();
    file.install_store_factory(hub.factory());
    for key in 0..5u64 {
        file.insert(key, format!("golden-{key}").into_bytes())
            .unwrap();
    }
    assert_eq!(
        file.bucket_count(),
        1,
        "the corpus must not depend on splits"
    );
    let data = snapshot_of(&hub, &StoreId::Data { bucket: 0 });
    assert!(data.len() > 5 * 8, "non-empty shard");
    d.item(&data);

    // The allocation-table broadcast.
    d.item(
        &RegistryUpdate {
            version: rng.next_u64() >> 20,
            coordinator: arb_node(&mut rng),
            data: (0..9).map(|_| arb_node(&mut rng)).collect(),
            parity: (0..3)
                .map(|g| (0..g).map(|_| arb_node(&mut rng)).collect())
                .collect(),
        }
        .encode(),
    );

    assert_eq!(
        d.0, GOLDEN,
        "an encoding changed: bytes on the wire / in the WAL are a compatibility contract \
         (digest is now {:#018x})",
        d.0
    );
}

/// The hello exchange that opens every TCP connection, byte for byte: a
/// dialer and a listener of different builds must agree on exactly this.
#[test]
fn hello_frames_match_the_pinned_bytes() {
    assert_eq!(
        encode_frame(FrameType::Hello, NodeId(1), NodeId(0x0102), &[]),
        [10, 0, 0, 0, 1, 5, 1, 0, 0, 0, 2, 1, 0, 0],
        "length 10 | frame version 1 | type 5 | from | to | no payload"
    );
    assert_eq!(
        encode_frame(
            FrameType::HelloReply,
            NodeId(0x0102),
            NodeId(1),
            &hosted_payload(&[NodeId(0x0102), NodeId(7)]),
        ),
        [19, 0, 0, 0, 1, 6, 2, 1, 0, 0, 1, 0, 0, 0, 2, 2, 1, 0, 0, 7, 0, 0, 0],
        "length 19 | frame version 1 | type 6 | from | to | count 2 | the hosted nodes"
    );
}
