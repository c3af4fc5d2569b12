//! Records, record-group keys, and fixed-size coding cells.
//!
//! Parity arithmetic needs equal-length buffers, but applications store
//! variable-length payloads. LH\*RS pads; we make the padding carry the
//! length so that erasure decoding recovers the exact payload: a **cell**
//! is `[len: u32 LE | payload bytes | zero padding]` of fixed size
//! `4 + record_len`. Cells are what flows in Δ-messages and what parity
//! buckets accumulate.

use crate::{Key, Rank};

/// The logical record-group key `(g, r)`: bucket group and rank. All
/// records with the same `(g, r)` — at most one per bucket of group `g` —
/// form one record group protected by one parity record per parity bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Bucket-group number `g`.
    pub group: u64,
    /// Rank `r` within the group.
    pub rank: Rank,
}

/// A primary record as stored in a data bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Application key.
    pub key: Key,
    /// Application payload (variable length, ≤ `record_len`).
    pub payload: Vec<u8>,
}

/// Encode a payload into a fixed-size coding cell.
///
/// # Panics
/// Panics if `payload.len() > cell_len - 4`; the driver validates payload
/// sizes before they reach this point.
pub fn encode_cell(payload: &[u8], cell_len: usize) -> Vec<u8> {
    assert!(payload.len() + 4 <= cell_len, "payload exceeds cell");
    let mut cell = vec![0u8; cell_len];
    cell[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    cell[4..4 + payload.len()].copy_from_slice(payload);
    cell
}

/// Decode a coding cell back into the exact payload.
///
/// Returns `None` if the cell is malformed (length prefix beyond the cell),
/// which after a correct RS decode indicates corruption.
pub fn decode_cell(cell: &[u8]) -> Option<Vec<u8>> {
    if cell.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(cell[..4].try_into().ok()?) as usize;
    if 4 + len > cell.len() {
        return None;
    }
    Some(cell[4..4 + len].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip_various_lengths() {
        for len in [0usize, 1, 10, 60] {
            let payload: Vec<u8> = (0..len as u32).map(|i| (i * 3 + 1) as u8).collect();
            let cell = encode_cell(&payload, 68);
            assert_eq!(cell.len(), 68);
            assert_eq!(decode_cell(&cell).unwrap(), payload);
        }
    }

    #[test]
    fn empty_payload_is_not_zero_cell() {
        // An empty payload still has a zero length prefix — which IS the
        // zero cell. Distinguishing "record with empty payload" from "no
        // record" is done by the key lists in parity records, never by cell
        // content; this test documents that deliberately.
        let cell = encode_cell(&[], 8);
        assert!(cell.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds cell")]
    fn oversized_payload_panics() {
        encode_cell(&[0u8; 10], 12);
    }

    #[test]
    fn malformed_cells_rejected() {
        assert_eq!(decode_cell(&[1, 2]), None);
        // Length prefix claims 100 bytes in a 8-byte cell.
        let mut bad = vec![0u8; 8];
        bad[0] = 100;
        assert_eq!(decode_cell(&bad), None);
    }
}
