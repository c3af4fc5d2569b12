//! The seeded inputs: which operation comes next, on which key, carrying
//! which payload. Everything here is a pure function of the seed, so the
//! same seed replays the same stream on every commit.

/// SplitMix64: a small, fast generator whose whole state is one word.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }
}

/// The SplitMix64 output function: a bijective 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What the caller asks the file to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read a key that is known to be stored.
    Lookup,
    /// Replace the payload of a stored key.
    Update,
    /// Store a key that has never been stored.
    Insert,
}

/// One element of the stream. The key is not fixed here: `draw` selects
/// uniformly among the keys that are stored when the operation is
/// submitted (`draw % stored`), which for a file that grows during the run
/// is only known then. An insert ignores `draw` and takes the next fresh
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOp {
    pub kind: OpKind,
    pub draw: u64,
}

/// The share of each kind in a workload's stream, in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub lookup_pct: u8,
    pub update_pct: u8,
    pub insert_pct: u8,
}

/// The endless, seeded operation stream of one workload.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    mix: Mix,
}

impl OpStream {
    pub fn new(seed: u64, mix: Mix) -> OpStream {
        assert_eq!(
            u32::from(mix.lookup_pct) + u32::from(mix.update_pct) + u32::from(mix.insert_pct),
            100,
            "mix shares must sum to 100"
        );
        OpStream {
            rng: Rng::new(mix64(seed, 0x6f70_7374_7265_616d)),
            mix,
        }
    }

    /// FNV-1a hash of the stream's first `n` operations: two streams with
    /// the same hash hand the client the same operations in the same order.
    pub fn hash_prefix(&self, n: usize) -> u64 {
        let mut stream = self.clone();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..n {
            let op = stream.next_op();
            for byte in std::iter::once(op.kind as u8).chain(op.draw.to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    pub fn next_op(&mut self) -> StreamOp {
        let roll = (self.rng.next_u64() % 100) as u8;
        let kind = if roll < self.mix.lookup_pct {
            OpKind::Lookup
        } else if roll < self.mix.lookup_pct + self.mix.update_pct {
            OpKind::Update
        } else {
            OpKind::Insert
        };
        StreamOp {
            kind,
            draw: self.rng.next_u64(),
        }
    }
}

fn mix64(a: u64, b: u64) -> u64 {
    mix(mix(a) ^ b)
}

/// Keys are dense from 1: LH\* addresses a key by `key mod 2^level`, so a
/// dense key space is the uniform case the paper's load analysis assumes.
pub fn key_of(index: u32) -> u64 {
    u64::from(index) + 1
}

/// The payload a write of `version` to `key` carries: `len` pseudo-random
/// bytes that are a function of (seed, key, version) only.
pub fn payload(seed: u64, key: u64, version: u32, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(mix64(seed ^ key.rotate_left(32), u64::from(version)));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        lookup_pct: 50,
        update_pct: 30,
        insert_pct: 20,
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = OpStream::new(7, MIX);
        let b = OpStream::new(7, MIX);
        let c = OpStream::new(8, MIX);
        assert_eq!(a.hash_prefix(50_000), b.hash_prefix(50_000));
        assert_ne!(a.hash_prefix(50_000), c.hash_prefix(50_000));
        // Hashing does not consume the stream.
        let mut a2 = a.clone();
        let mut b2 = b;
        for _ in 0..1000 {
            assert_eq!(a2.next_op(), b2.next_op());
        }
    }

    #[test]
    fn mix_shares_are_respected() {
        let mut stream = OpStream::new(1, MIX);
        let mut counts = [0u32; 3];
        for _ in 0..100_000 {
            counts[stream.next_op().kind as usize] += 1;
        }
        for (count, pct) in counts.iter().zip([50u32, 30, 20]) {
            let expect = pct * 1000;
            assert!(count.abs_diff(expect) < 1000, "{counts:?}");
        }
    }

    #[test]
    fn payload_depends_on_seed_key_and_version_only() {
        assert_eq!(payload(1, 5, 2, 1024), payload(1, 5, 2, 1024));
        assert_eq!(payload(1, 5, 2, 1024).len(), 1024);
        assert_eq!(payload(1, 5, 2, 31).len(), 31);
        assert_ne!(payload(1, 5, 2, 32), payload(1, 5, 3, 32));
        assert_ne!(payload(1, 5, 2, 32), payload(1, 6, 2, 32));
        assert_ne!(payload(1, 5, 2, 32), payload(2, 5, 2, 32));
        // A shorter payload is a prefix of a longer one: the length is the
        // workload's, not an input to the bytes.
        assert_eq!(payload(1, 5, 2, 32), payload(1, 5, 2, 64)[..32]);
    }
}
