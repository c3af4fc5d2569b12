//! Bucket storage: each bucket keeps its records as fixed-size cells
//! (`[len | payload | pad]`, `cell_len` bytes, exactly what parity
//! encodes; see [`crate::record`]) back to back in one `Vec<u8>`.
//!
//! A record costs its cell and a few bytes beside it, not a heap
//! allocation and a tree node. An update forms its Δ from the stored cell
//! and overwrites it in place, and a parity Δ folds straight into its
//! slot.
//!
//! * **Data buckets** ([`DataSlab`]) keep cells by *slot*, with parallel
//!   key and rank vectors. A removal moves the last slot into the hole
//!   (swap-remove), so a freed rank keeps no cell resident. A rank-indexed
//!   `Vec<u32>` of slots serves the paths that go by rank (`ReadCell`,
//!   suffix catch-up, split retraction) and gives snapshots, shard content
//!   and scans their rank order. It costs 4 B per rank, holes included: a
//!   split source keeps the ranks of its movers, which a cell per rank
//!   would keep resident too.
//! * **Parity buckets** ([`ParitySlab`]) index their slab by rank, since
//!   record groups are dense: each rank holds one cell and `m` key slots.
//!   A group with no members is a zero cell with no keys, and trailing
//!   empty ranks are truncated.
//! * **Key indexes** (key → data slot, key → parity key slot) hold only
//!   `u32` positions, since the keys are in the slab already; each shrinks
//!   once under half full, after a split's retraction or a parity batch
//!   that removed keys.
//!
//! # The rank bound
//!
//! A rank sizes an allocation here (the slot map, the parity slab), so no
//! rank at or past [`RANK_LIMIT`] is stored. Every valid rank stays below
//! it. A rank is made only by [`DataSlab::insert`], which hands out the
//! smallest free rank and refuses to open rank [`RANK_LIMIT`]. So a
//! bucket's ranks count the records it held at once, and only a bucket
//! that held 2^24 records at once could reach the bound. Every
//! other rank is a copy of one so made:
//! * a Δ stream carries the ranks its data bucket allocated;
//! * a snapshot or WAL op carries the ranks of the bucket that wrote it;
//! * an install carries the ranks its group's survivors hold. A rebuilt
//!   bucket's `next_rank` can lie past its last live rank, but never past
//!   its predecessor's, which the bound held.
//!
//! A rank or a `next_rank` past the bound is therefore hostile or corrupt.
//! An install or a store that carries one is refused
//! ([`DataSlab::restore`] and [`ParitySlab::restore`] return `None`)
//! before anything is allocated. A parity Δ is held to a tighter bound: a
//! valid one grows the slab by one rank at most, since a column's `Add`
//! takes its smallest free rank, so all its lower ranks are live and inside
//! the slab. [`ParitySlab::apply`] refuses any other, and the parity
//! bucket counts it dropped.

use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::BinaryHeap;
use std::hash::BuildHasher;
use std::mem::size_of;
use std::ops::Range;

use crate::{Key, Rank};

/// The most ranks one bucket holds: no rank at or past it is stored.
pub const RANK_LIMIT: Rank = 1 << 24;

/// A rank with no record, in [`DataSlab`]'s slot map.
const VACANT: u32 = u32::MAX;

/// `rank` as an index into a rank-indexed vector, if inside the bound.
fn rank_index(rank: Rank) -> Option<u32> {
    if rank < RANK_LIMIT {
        u32::try_from(rank).ok()
    } else {
        None
    }
}

/// The bytes of cell `i` in a slab of `cell_len`-byte cells.
fn cell_range(i: usize, cell_len: usize) -> Range<usize> {
    let start = i.saturating_mul(cell_len);
    start..start.saturating_add(cell_len)
}

/// Give back a vector's capacity once it is under half used.
fn shrink<T>(v: &mut Vec<T>) {
    if v.len().saturating_mul(2) < v.capacity() {
        v.shrink_to_fit();
    }
}

/// The payload a well-formed cell holds (empty for a malformed one).
fn payload_of(cell: &[u8]) -> &[u8] {
    let len = cell
        .get(..4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map_or(0, u32::from_le_bytes);
    let end = usize::try_from(len).map_or(usize::MAX, |l| l.saturating_add(4));
    cell.get(4..end).unwrap_or(&[])
}

/// Overwrite `cell` with the encoding of `payload`; `old_len` is the
/// payload length `cell` held, beyond which it is already zero.
fn write_cell(cell: &mut [u8], payload: &[u8], old_len: usize) {
    let Ok(len) = u32::try_from(payload.len()) else {
        return;
    };
    if let Some(prefix) = cell.get_mut(..4) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
    let end = payload.len().saturating_add(4);
    if let Some(body) = cell.get_mut(4..end) {
        body.copy_from_slice(payload);
    }
    let stale = old_len.saturating_add(4).min(cell.len());
    if let Some(tail) = cell.get_mut(end..stale) {
        tail.fill(0);
    }
}

/// An empty [`KeyIndex`] slot.
const EMPTY: u32 = u32::MAX;

/// A hash index from keys to the positions that hold them in a slab's key
/// vector: open addressing with linear probing, each slot a `u32`
/// position whose key is read back from the slab. A slot takes 4 B, where
/// a `HashMap<Key, u32>` entry takes 16 B and a control byte, since the
/// key is already in the slab. Keys are hashed with the std `HashMap`'s
/// randomly keyed hasher. The table holds at most 3/4 of its slots, so a
/// probe always meets an empty one.
#[derive(Debug, Default)]
struct KeyIndex {
    slots: Vec<u32>,
    len: usize,
    hasher: RandomState,
}

impl KeyIndex {
    /// The most entries `slots` table slots hold.
    fn max_load(slots: usize) -> usize {
        slots.saturating_mul(3) / 4
    }

    fn next(&self, i: usize) -> usize {
        i.wrapping_add(1) & self.slots.len().wrapping_sub(1)
    }

    /// Where `key`'s probe sequence starts.
    fn home(&self, key: Key) -> usize {
        let mask = self.slots.len().wrapping_sub(1) as u64;
        usize::try_from(self.hasher.hash_one(key) & mask).unwrap_or(0)
    }

    /// The table slot holding `key`.
    fn find(&self, key: Key, key_of: impl Fn(u32) -> Option<Key>) -> Option<usize> {
        let mut i = self.home(key);
        for _ in 0..self.slots.len() {
            let pos = *self.slots.get(i)?;
            if pos == EMPTY {
                return None;
            }
            if key_of(pos) == Some(key) {
                return Some(i);
            }
            i = self.next(i);
        }
        None
    }

    /// The position holding `key`.
    fn get(&self, key: Key, key_of: impl Fn(u32) -> Option<Key>) -> Option<u32> {
        self.slots.get(self.find(key, key_of)?).copied()
    }

    /// Point `key` at `pos`: `key_of(pos)` must read `key` already.
    fn set(&mut self, key: Key, pos: u32, key_of: impl Fn(u32) -> Option<Key>) {
        if let Some(slot) = self.find(key, &key_of).and_then(|i| self.slots.get_mut(i)) {
            *slot = pos;
            return;
        }
        if self.len >= Self::max_load(self.slots.len()) {
            let wanted = self.slots.len().saturating_mul(2).max(8);
            self.rebuild(wanted, &key_of);
        }
        self.put(key, pos);
    }

    /// Write `pos` into the first empty slot of `key`'s probe sequence.
    fn put(&mut self, key: Key, pos: u32) {
        let mut i = self.home(key);
        for _ in 0..self.slots.len() {
            match self.slots.get_mut(i) {
                Some(slot) if *slot == EMPTY => {
                    *slot = pos;
                    self.len = self.len.saturating_add(1);
                    return;
                }
                Some(_) => i = self.next(i),
                None => return,
            }
        }
    }

    /// Drop `key`, shifting the rest of its probe run back over the hole;
    /// `key_of` must still read every indexed key.
    fn remove(&mut self, key: Key, key_of: impl Fn(u32) -> Option<Key>) {
        let Some(mut hole) = self.find(key, &key_of) else {
            return;
        };
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = self.next(hole);
        for _ in 0..self.slots.len() {
            let pos = self.slots.get(i).copied().unwrap_or(EMPTY);
            if pos == EMPTY {
                break;
            }
            // An entry moves back when the hole lies on its probe path:
            // it sits at least as far from its home as from the hole.
            let home = key_of(pos).map_or(i, |k| self.home(k));
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                if let Some(slot) = self.slots.get_mut(hole) {
                    *slot = pos;
                }
                hole = i;
            }
            i = self.next(i);
        }
        if let Some(slot) = self.slots.get_mut(hole) {
            *slot = EMPTY;
        }
        self.len = self.len.saturating_sub(1);
    }

    /// Re-insert every entry into a table of `size` slots (a power of two
    /// above the entries' load).
    fn rebuild(&mut self, size: usize, key_of: impl Fn(u32) -> Option<Key>) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; size]);
        self.len = 0;
        for pos in old.into_iter().filter(|&p| p != EMPTY) {
            if let Some(key) = key_of(pos) {
                self.put(key, pos);
            }
        }
    }

    /// Give the table back down to the least that holds its entries once
    /// it is under half full (at most half its maximum load).
    fn shrink(&mut self, key_of: impl Fn(u32) -> Option<Key>) {
        if self.len.saturating_mul(2) >= Self::max_load(self.slots.len()) {
            return;
        }
        let mut size = 8usize;
        while Self::max_load(size) < self.len {
            size = size.saturating_mul(2);
        }
        if size < self.slots.len() {
            self.rebuild(size, key_of);
        }
    }
}

/// A data bucket's records: cells by slot, and the slot of each rank.
#[derive(Debug, Default)]
pub(crate) struct DataSlab {
    cell_len: usize,
    /// Slot `s`'s cell at `s * cell_len`.
    cells: Vec<u8>,
    /// Slot `s`'s key.
    keys: Vec<Key>,
    /// Slot `s`'s rank (below [`RANK_LIMIT`], so it fits).
    ranks: Vec<u32>,
    /// Rank `r`'s slot, or [`VACANT`]; its length is `next_rank`.
    slot_of: Vec<u32>,
    /// Vacant ranks below `next_rank`, smallest first (a rank refilled by
    /// [`Self::place`] may linger here and is skipped when popped).
    free: BinaryHeap<Reverse<u32>>,
    /// Key → slot.
    by_key: KeyIndex,
}

impl DataSlab {
    /// An empty slab of `cell_len`-byte cells.
    pub(crate) fn new(cell_len: usize) -> Self {
        DataSlab {
            cell_len,
            ..DataSlab::default()
        }
    }

    /// A slab holding `records` with the insert counter at `next_rank`
    /// (raised past the highest record). `None` if a rank or `next_rank`
    /// lies past [`RANK_LIMIT`], a rank or key repeats, or a payload does
    /// not fit a cell; the bounds are checked before anything is
    /// allocated.
    pub(crate) fn restore(
        cell_len: usize,
        next_rank: Rank,
        records: Vec<(Rank, Key, Vec<u8>)>,
    ) -> Option<Self> {
        if next_rank > RANK_LIMIT || records.iter().any(|(r, _, _)| rank_index(*r).is_none()) {
            return None;
        }
        let mut slab = DataSlab::new(cell_len);
        slab.open_ranks(u32::try_from(next_rank).ok()?);
        for (rank, key, payload) in records {
            if !slab.place(rank, key, &payload) {
                return None;
            }
        }
        let slot_of = &slab.slot_of;
        (slab.free).retain(|&Reverse(r)| {
            usize::try_from(r).is_ok_and(|r| slot_of.get(r) == Some(&VACANT))
        });
        Some(slab)
    }

    /// Records held.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The insert counter: one past the highest rank ever opened.
    pub(crate) fn next_rank(&self) -> Rank {
        self.slot_of.len() as Rank
    }

    /// Whether a record with `key` is held.
    pub(crate) fn contains(&self, key: Key) -> bool {
        self.slot_of_key(key).is_some()
    }

    fn slot_of_key(&self, key: Key) -> Option<u32> {
        let keys = &self.keys;
        (self.by_key).get(key, |slot| keys.get(usize::try_from(slot).ok()?).copied())
    }

    fn cell(&self, slot: u32) -> Option<&[u8]> {
        let slot = usize::try_from(slot).ok()?;
        self.cells.get(cell_range(slot, self.cell_len))
    }

    fn slot_at(&self, rank: Rank) -> Option<u32> {
        let slot = *self.slot_of.get(usize::try_from(rank).ok()?)?;
        (slot != VACANT).then_some(slot)
    }

    /// The payload stored under `key`.
    pub(crate) fn payload(&self, key: Key) -> Option<&[u8]> {
        self.cell(self.slot_of_key(key)?).map(payload_of)
    }

    /// The payload stored at `rank`.
    pub(crate) fn payload_at(&self, rank: Rank) -> Option<&[u8]> {
        self.cell(self.slot_at(rank)?).map(payload_of)
    }

    /// The key stored at `rank`.
    pub(crate) fn key_at(&self, rank: Rank) -> Option<Key> {
        self.keys.get(usize::try_from(self.slot_at(rank)?).ok()?).copied()
    }

    /// The cell stored at `rank`.
    pub(crate) fn cell_at(&self, rank: Rank) -> Option<&[u8]> {
        self.cell(self.slot_at(rank)?)
    }

    /// `(rank, key, payload)` in rank order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Rank, Key, &[u8])> {
        self.slot_of
            .iter()
            .enumerate()
            .filter(|(_, &slot)| slot != VACANT)
            .filter_map(move |(rank, &slot)| {
                let key = *self.keys.get(usize::try_from(slot).ok()?)?;
                Some((rank as Rank, key, payload_of(self.cell(slot)?)))
            })
    }

    /// Payload bytes held.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.cells
            .chunks_exact(self.cell_len.max(1))
            .map(|cell| payload_of(cell).len())
            .sum()
    }

    /// Bytes the cells, keys, ranks, slot map and free ranks take, from
    /// their lengths (the key index is not counted).
    pub(crate) fn store_bytes(&self) -> usize {
        let words = self.keys.len().saturating_mul(size_of::<Key>());
        let ranks = (self.ranks.len())
            .saturating_add(self.slot_of.len())
            .saturating_add(self.free.len())
            .saturating_mul(size_of::<u32>());
        self.cells.len().saturating_add(words).saturating_add(ranks)
    }

    /// Extend the slot map to `next` ranks; the new ranks are free.
    fn open_ranks(&mut self, next: u32) {
        let from = self.slot_of.len();
        let Ok(to) = usize::try_from(next) else {
            return;
        };
        if to <= from {
            return;
        }
        self.slot_of.resize(to, VACANT);
        for rank in from..to {
            if let Ok(rank) = u32::try_from(rank) {
                self.free.push(Reverse(rank));
            }
        }
    }

    /// Append a cell for `key` at `rank` (vacant, below `next_rank`).
    fn push(&mut self, rank: u32, key: Key, payload: &[u8]) -> Option<u32> {
        if payload.len().saturating_add(4) > self.cell_len {
            return None;
        }
        let slot = u32::try_from(self.keys.len()).ok()?;
        let entry = self.slot_of.get_mut(usize::try_from(rank).ok()?)?;
        *entry = slot;
        let start = self.cells.len();
        self.cells.resize(start.saturating_add(self.cell_len), 0);
        if let Some(cell) = self.cells.get_mut(start..) {
            write_cell(cell, payload, 0);
        }
        self.keys.push(key);
        self.ranks.push(rank);
        let keys = &self.keys;
        (self.by_key).set(key, slot, |s| keys.get(usize::try_from(s).ok()?).copied());
        Some(slot)
    }

    /// Insert a record under the smallest free rank, or a new one: its
    /// rank and cell, the Δ of the insert. `None` when the payload does
    /// not fit a cell or every rank below [`RANK_LIMIT`] is taken; the
    /// caller has checked that `key` is absent.
    pub(crate) fn insert(&mut self, key: Key, payload: &[u8]) -> Option<(Rank, &[u8])> {
        if payload.len().saturating_add(4) > self.cell_len {
            return None;
        }
        let rank = loop {
            match self.free.pop() {
                Some(Reverse(rank)) if self.slot_at(Rank::from(rank)).is_none() => break rank,
                Some(_) => continue, // refilled by `place`
                None => {
                    let rank = rank_index(self.next_rank())?;
                    self.slot_of.push(VACANT);
                    break rank;
                }
            }
        };
        let slot = self.push(rank, key, payload)?;
        Some((Rank::from(rank), self.cell(slot)?))
    }

    /// Store a record at a given rank (a restore or a replayed Δ); the
    /// insert counter moves past it. `false` if the rank is past the
    /// bound or taken, the key is held, or the payload does not fit.
    pub(crate) fn place(&mut self, rank: Rank, key: Key, payload: &[u8]) -> bool {
        let Some(r) = rank_index(rank) else {
            return false;
        };
        if self.contains(key) || self.slot_at(rank).is_some() {
            return false;
        }
        self.open_ranks(r.saturating_add(1));
        self.push(r, key, payload).is_some()
    }

    /// Overwrite `key`'s payload in place: its rank and the Δ of the
    /// update, `stored ⊕ encode(payload)`. `None` if `key` is absent or
    /// the payload does not fit.
    pub(crate) fn update(&mut self, key: Key, payload: &[u8]) -> Option<(Rank, Vec<u8>)> {
        if payload.len().saturating_add(4) > self.cell_len {
            return None;
        }
        let slot = self.slot_of_key(key)?;
        let rank = Rank::from(*self.ranks.get(usize::try_from(slot).ok()?)?);
        let range = cell_range(usize::try_from(slot).ok()?, self.cell_len);
        let stored = self.cells.get_mut(range)?;
        let old_len = payload_of(stored).len();
        let mut delta = stored.to_vec();
        let len = u32::try_from(payload.len()).ok()?.to_le_bytes();
        lhrs_gf::add_slice(&len, &mut delta);
        if let Some(body) = delta.get_mut(4..) {
            lhrs_gf::add_slice(payload, body);
        }
        write_cell(stored, payload, old_len);
        Some((rank, delta))
    }

    /// XOR `delta` into the cell at `rank` (a replayed update). `false`,
    /// and nothing changes, if the rank is vacant or the result is not a
    /// well-formed cell.
    pub(crate) fn xor_at(&mut self, rank: Rank, delta: &[u8]) -> bool {
        let Some(slot) = self.slot_at(rank).and_then(|s| usize::try_from(s).ok()) else {
            return false;
        };
        let Some(cell) = self.cells.get_mut(cell_range(slot, self.cell_len)) else {
            return false;
        };
        let mut next = cell.to_vec();
        lhrs_gf::add_slice(delta, &mut next);
        let len = next
            .get(..4)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map_or(u32::MAX, u32::from_le_bytes);
        let fits = usize::try_from(len).is_ok_and(|l| l.saturating_add(4) <= next.len());
        if delta.len() != next.len() || !fits {
            return false;
        }
        cell.copy_from_slice(&next);
        true
    }

    /// Remove `key`'s record: its rank and cell, the Δ of the removal.
    pub(crate) fn remove(&mut self, key: Key) -> Option<(Rank, Vec<u8>)> {
        let slot = self.slot_of_key(key)?;
        let rank = Rank::from(*self.ranks.get(usize::try_from(slot).ok()?)?);
        let (_, cell) = self.remove_at(rank)?;
        Some((rank, cell))
    }

    /// Remove the record at `rank`: its key and cell. The last slot moves
    /// into the hole, and the rank becomes free.
    pub(crate) fn remove_at(&mut self, rank: Rank) -> Option<(Key, Vec<u8>)> {
        let slot = self.slot_at(rank)?;
        let s = usize::try_from(slot).ok()?;
        let last = self.keys.len().checked_sub(1)?;
        let key = *self.keys.get(s)?;
        let hole = cell_range(s, self.cell_len);
        let cell = self.cells.get(hole.clone())?.to_vec();
        let key_of = |keys: &Vec<Key>, slot: u32| keys.get(usize::try_from(slot).ok()?).copied();
        let keys = &self.keys;
        self.by_key.remove(key, |slot| key_of(keys, slot));
        if s != last {
            let tail = cell_range(last, self.cell_len);
            self.cells.copy_within(tail, hole.start);
            let (moved_key, moved_rank) = (*self.keys.get(last)?, *self.ranks.get(last)?);
            *self.keys.get_mut(s)? = moved_key;
            *self.ranks.get_mut(s)? = moved_rank;
            *self.slot_of.get_mut(usize::try_from(moved_rank).ok()?)? = slot;
            // The moved key's entry still reads it at `last`: repoint it.
            let keys = &self.keys;
            self.by_key.set(moved_key, slot, |slot| key_of(keys, slot));
        }
        self.cells.truncate(cell_range(last, self.cell_len).start);
        self.keys.truncate(last);
        self.ranks.truncate(last);
        let r = u32::try_from(rank).ok()?;
        *self.slot_of.get_mut(usize::try_from(r).ok()?)? = VACANT;
        self.free.push(Reverse(r));
        Some((key, cell))
    }

    /// Give back memory after a bulk removal: the key index and the slot
    /// vectors once under half used (a hash table never shrinks itself).
    pub(crate) fn shrink(&mut self) {
        let keys = &self.keys;
        (self.by_key).shrink(|slot| keys.get(usize::try_from(slot).ok()?).copied());
        shrink(&mut self.cells);
        shrink(&mut self.keys);
        shrink(&mut self.ranks);
    }
}

/// A parity bucket's records: one cell and `m` key slots per rank.
#[derive(Debug, Default)]
pub(crate) struct ParitySlab {
    cell_len: usize,
    m: usize,
    /// Rank `r`'s parity cell at `r * cell_len`.
    cells: Vec<u8>,
    /// Rank `r`'s member keys by column at `r * m`: a slot holds a key
    /// only where `member` is set (a key and a flag take 9 B, an
    /// `Option<Key>` 16).
    keys: Vec<Key>,
    /// Whether column `c` has a member at rank `r`, at `r * m + c`.
    member: Vec<bool>,
    /// Ranks with at least one member.
    groups: usize,
    /// Key → key slot (`rank * m + col`): the "secondary index internal
    /// to each parity bucket" of §4.1.
    key_index: KeyIndex,
}

impl ParitySlab {
    /// An empty slab for groups of `m` columns and `cell_len`-byte cells.
    pub(crate) fn new(cell_len: usize, m: usize) -> Self {
        ParitySlab {
            cell_len,
            m,
            ..ParitySlab::default()
        }
    }

    /// A slab holding `records`. `None` if a rank lies past
    /// [`RANK_LIMIT`] or repeats, or a record's keys or cell have the
    /// wrong length; the ranks are checked before anything is allocated.
    pub(crate) fn restore(
        cell_len: usize,
        m: usize,
        records: Vec<(Rank, Vec<Option<Key>>, Vec<u8>)>,
    ) -> Option<Self> {
        let well_formed = |(r, keys, cell): &(Rank, Vec<Option<Key>>, Vec<u8>)| {
            rank_index(*r).is_some() && keys.len() == m && cell.len() == cell_len
        };
        if !records.iter().all(well_formed) {
            return None;
        }
        let mut slab = ParitySlab::new(cell_len, m);
        for (rank, keys, cell) in records {
            if keys.iter().all(Option::is_none) {
                continue; // no members: nothing to hold
            }
            let r = usize::try_from(rank).ok()?;
            slab.open_rank(r);
            if slab.is_live(r) {
                return None; // a repeated rank
            }
            let first = slab.key_range(r).start;
            for (i, key) in (first..).zip(keys) {
                if let Some(key) = key {
                    slab.add_key(i, key);
                }
            }
            slab.cells
                .get_mut(cell_range(r, cell_len))?
                .copy_from_slice(&cell);
            slab.groups = slab.groups.saturating_add(1);
        }
        Some(slab)
    }

    /// Record groups held: ranks with at least one member.
    pub(crate) fn len(&self) -> usize {
        self.groups
    }

    /// Ranks the slab spans, empty ones included.
    fn ranks(&self) -> usize {
        self.keys.len().checked_div(self.m).unwrap_or(0)
    }

    fn key_range(&self, r: usize) -> Range<usize> {
        cell_range(r, self.m)
    }

    /// The member key at key slot `i`.
    fn key_at(keys: &[Key], member: &[bool], i: u32) -> Option<Key> {
        let i = usize::try_from(i).ok()?;
        member.get(i)?.then(|| keys.get(i).copied())?
    }

    /// Make `key` the member at key slot `i`.
    fn add_key(&mut self, i: usize, key: Key) {
        let (Some(slot), Some(flag), Ok(pos)) =
            (self.keys.get_mut(i), self.member.get_mut(i), u32::try_from(i))
        else {
            return;
        };
        (*slot, *flag) = (key, true);
        let (keys, member) = (&self.keys, &self.member);
        (self.key_index).set(key, pos, |p| Self::key_at(keys, member, p));
    }

    /// Clear the member at key slot `i`.
    fn remove_key(&mut self, i: usize) {
        let Some(key) = u32::try_from(i)
            .ok()
            .and_then(|p| Self::key_at(&self.keys, &self.member, p))
        else {
            return;
        };
        let (keys, member) = (&self.keys, &self.member);
        (self.key_index).remove(key, |p| Self::key_at(keys, member, p));
        if let Some(flag) = self.member.get_mut(i) {
            *flag = false;
        }
    }

    /// Whether rank `r` has a member.
    fn is_live(&self, r: usize) -> bool {
        let flags = self.member.get(self.key_range(r)).unwrap_or(&[]);
        flags.iter().any(|&f| f)
    }

    /// Rank `r`'s member keys by column.
    fn members(&self, r: usize) -> Vec<Option<Key>> {
        let range = self.key_range(r);
        let keys = self.keys.get(range.clone()).unwrap_or(&[]);
        let flags = self.member.get(range).unwrap_or(&[]);
        (keys.iter().zip(flags))
            .map(|(&key, &f)| f.then_some(key))
            .collect()
    }

    /// Grow the slab to hold rank `r`: the new ranks are empty groups.
    fn open_rank(&mut self, r: usize) {
        let to = r.saturating_add(1);
        let from = self.ranks();
        if to <= from {
            return;
        }
        self.cells.resize(to.saturating_mul(self.cell_len), 0);
        self.keys.resize(to.saturating_mul(self.m), 0);
        self.member.resize(to.saturating_mul(self.m), false);
    }

    /// `(rank, member keys by column, parity cell)` of each record group,
    /// in rank order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Rank, Vec<Option<Key>>, &[u8])> {
        let cells = self.cells.chunks_exact(self.cell_len.max(1));
        cells
            .enumerate()
            .filter(|(r, _)| self.is_live(*r))
            .map(|(r, cell)| (r as Rank, self.members(r), cell))
    }

    /// The rank and member keys of the record group `key` belongs to.
    pub(crate) fn find(&self, key: Key) -> Option<(Rank, Vec<Option<Key>>)> {
        let (keys, member) = (&self.keys, &self.member);
        let pos = (self.key_index).get(key, |p| Self::key_at(keys, member, p))?;
        let r = usize::try_from(pos).ok()?.checked_div(self.m)?;
        Some((r as Rank, self.members(r)))
    }

    /// The parity cell at `rank` (a zero cell for an empty group).
    pub(crate) fn cell_at(&self, rank: Rank) -> Option<&[u8]> {
        let r = usize::try_from(rank).ok()?;
        self.cells.get(cell_range(r, self.cell_len))
    }

    /// Parity cell bytes of the record groups held.
    pub(crate) fn parity_bytes(&self) -> usize {
        self.groups.saturating_mul(self.cell_len)
    }

    /// Bytes the cells and key slots take, from their lengths (the key
    /// index is not counted).
    pub(crate) fn store_bytes(&self) -> usize {
        let keys = self.keys.len().saturating_mul(size_of::<Key>());
        (self.cells.len())
            .saturating_add(keys)
            .saturating_add(self.member.len())
    }

    /// Apply one Δ to rank `rank`, column `col`: set, clear or keep the
    /// column's key and fold the Δ into the cell with `fold`. A group left
    /// with no members becomes a zero cell, and trailing empty ranks go.
    /// `false`, and nothing changes, if `col` is past `m` or the rank lies
    /// past the slab's end (an `Add` may land one past it).
    pub(crate) fn apply(
        &mut self,
        rank: Rank,
        col: usize,
        key_op: crate::msg::KeyOp,
        fold: impl FnOnce(&mut [u8]),
    ) -> bool {
        use crate::msg::KeyOp;
        let (Some(r), true) = (rank_index(rank), col < self.m) else {
            return false;
        };
        let Ok(r) = usize::try_from(r) else {
            return false;
        };
        // A valid Δ grows the slab by one rank at most: an `Add` lands on
        // its column's smallest free rank, so every lower rank holds that
        // column's member and is inside the slab; a `Remove` or `Keep`
        // finds its member there.
        let ranks = self.ranks();
        if r > ranks || (r == ranks && !matches!(key_op, KeyOp::Add(_))) {
            return false;
        }
        self.open_rank(r);
        let was_live = self.is_live(r);
        let i = self.key_range(r).start.saturating_add(col);
        let held = u32::try_from(i)
            .ok()
            .and_then(|p| Self::key_at(&self.keys, &self.member, p));
        match key_op {
            KeyOp::Add(key) => {
                debug_assert!(held.is_none(), "column already occupied");
                self.remove_key(i);
                self.add_key(i, key);
            }
            KeyOp::Remove(key) => {
                debug_assert_eq!(held, Some(key), "removing wrong member");
                self.remove_key(i);
            }
            KeyOp::Keep => debug_assert!(held.is_some(), "update of absent member"),
        }
        let is_live = self.is_live(r);
        let Some(cell) = self.cells.get_mut(cell_range(r, self.cell_len)) else {
            return false;
        };
        fold(cell);
        if !is_live {
            debug_assert!(cell.iter().all(|&b| b == 0), "ghost parity after last removal");
            cell.fill(0);
        }
        match (was_live, is_live) {
            (false, true) => self.groups = self.groups.saturating_add(1),
            (true, false) => self.groups = self.groups.saturating_sub(1),
            _ => {}
        }
        self.truncate();
        true
    }

    /// Drop trailing empty ranks.
    fn truncate(&mut self) {
        let mut ranks = self.ranks();
        while let Some(last) = ranks.checked_sub(1) {
            if self.is_live(last) {
                break;
            }
            ranks = last;
        }
        self.keys.truncate(ranks.saturating_mul(self.m));
        self.member.truncate(ranks.saturating_mul(self.m));
        self.cells.truncate(ranks.saturating_mul(self.cell_len));
    }

    /// Give back memory after a batch that removed keys: the key index and
    /// the slab once under half used.
    pub(crate) fn shrink(&mut self) {
        let (keys, member) = (&self.keys, &self.member);
        (self.key_index).shrink(|p| Self::key_at(keys, member, p));
        shrink(&mut self.cells);
        shrink(&mut self.keys);
        shrink(&mut self.member);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::KeyOp;
    use crate::record::{encode_cell, Record};
    use lhrs_testkit::cases;
    use std::collections::BTreeMap;

    const CELL: usize = 12;

    fn check_against(slab: &DataSlab, model: &BTreeMap<Rank, Record>) {
        let held: Vec<(Rank, Key, Vec<u8>)> =
            slab.iter().map(|(r, k, p)| (r, k, p.to_vec())).collect();
        let want: Vec<(Rank, Key, Vec<u8>)> = model
            .iter()
            .map(|(r, rec)| (*r, rec.key, rec.payload.clone()))
            .collect();
        assert_eq!(held, want, "contents in rank order");
        assert_eq!(slab.len(), model.len());
        for (rank, rec) in model {
            assert_eq!(slab.payload(rec.key), Some(rec.payload.as_slice()));
            assert_eq!(
                slab.cell_at(*rank),
                Some(encode_cell(&rec.payload, CELL).as_slice())
            );
        }
        let live = slab.len();
        let ranks = usize::try_from(slab.next_rank()).unwrap();
        assert!(slab.store_bytes() >= live * (CELL + 12) + ranks * 4);
    }

    /// The smallest rank the model leaves free, as a fresh insert takes.
    fn smallest_free(model: &BTreeMap<Rank, Record>) -> Rank {
        (0..).find(|r| !model.contains_key(r)).unwrap()
    }

    /// Random inserts, updates, deletes, retracts, absorbs and restores
    /// against a `BTreeMap` model of ranks: contents, rank order and the
    /// smallest-first reuse of freed ranks all agree.
    #[test]
    fn the_data_slab_matches_a_rank_map() {
        cases("data_slab_model", 64, |rng| {
            let mut slab = DataSlab::new(CELL);
            let mut model: BTreeMap<Rank, Record> = BTreeMap::new();
            let payload = |rng: &mut lhrs_testkit::Rng| -> Vec<u8> {
                let len = rng.below(CELL as u64 - 3) as usize;
                (0..len).map(|_| rng.next_u64() as u8).collect()
            };
            for _ in 0..300 {
                let key = rng.below(40);
                let held = model.values().any(|r| r.key == key);
                match rng.below(6) {
                    // insert
                    0 | 1 if !held => {
                        let p = payload(rng);
                        let want = smallest_free(&model);
                        let (rank, cell) = slab.insert(key, &p).unwrap();
                        assert_eq!(rank, want, "smallest free rank first");
                        assert_eq!(cell, encode_cell(&p, CELL).as_slice());
                        model.insert(rank, Record { key, payload: p });
                    }
                    // update
                    2 if held => {
                        let p = payload(rng);
                        let (rank, rec) = model.iter_mut().find(|(_, r)| r.key == key).unwrap();
                        let old = encode_cell(&rec.payload, CELL);
                        let (got, delta) = slab.update(key, &p).unwrap();
                        assert_eq!(got, *rank);
                        let new = encode_cell(&p, CELL);
                        let xor: Vec<u8> = old.iter().zip(&new).map(|(a, b)| a ^ b).collect();
                        assert_eq!(delta, xor, "Δ = encode(old) ⊕ encode(new)");
                        rec.payload = p;
                    }
                    // delete
                    3 if held => {
                        let rank = *model.iter().find(|(_, r)| r.key == key).unwrap().0;
                        let rec = model.remove(&rank).unwrap();
                        let (got, cell) = slab.remove(key).unwrap();
                        assert_eq!(got, rank);
                        assert_eq!(cell, encode_cell(&rec.payload, CELL));
                    }
                    // retract a few ranks by rank, then shrink
                    4 => {
                        let ranks: Vec<Rank> = model
                            .keys()
                            .copied()
                            .filter(|_| rng.below(4) == 0)
                            .collect();
                        for rank in ranks {
                            let rec = model.remove(&rank).unwrap();
                            let (key, cell) = slab.remove_at(rank).unwrap();
                            assert_eq!((key, cell), (rec.key, encode_cell(&rec.payload, CELL)));
                        }
                        slab.shrink();
                    }
                    // absorb at a given rank (a replayed Add)
                    5 if !held => {
                        let rank = rng.below(slab.next_rank() + 3);
                        let p = payload(rng);
                        let ok = slab.place(rank, key, &p);
                        assert_eq!(ok, !model.contains_key(&rank));
                        if ok {
                            model.insert(rank, Record { key, payload: p });
                        }
                    }
                    _ => {}
                }
                check_against(&slab, &model);
                assert!(slab.next_rank() > model.keys().last().copied().unwrap_or(0) || model.is_empty());
            }
            // A restore from the content rebuilds the same slab.
            let content: Vec<(Rank, Key, Vec<u8>)> =
                slab.iter().map(|(r, k, p)| (r, k, p.to_vec())).collect();
            let restored = DataSlab::restore(CELL, slab.next_rank(), content).unwrap();
            check_against(&restored, &model);
            assert_eq!(restored.next_rank(), slab.next_rank());
            let mut restored = restored;
            if let Some(want) = (smallest_free(&model) < slab.next_rank()).then(|| smallest_free(&model)) {
                let key = 1000;
                assert_eq!(restored.insert(key, b"x").unwrap().0, want);
            }
        });
    }

    /// The key index through growth, removals (each shifting its probe
    /// run back) and shrinking: every held key is found at its own slot,
    /// and no removed key is found.
    #[test]
    fn the_key_index_finds_exactly_the_held_keys() {
        cases("slab_key_index", 8, |rng| {
            let mut slab = DataSlab::new(CELL);
            let mut held = std::collections::BTreeSet::new();
            for _ in 0..4000 {
                let key = rng.next_u64() % 3000;
                if held.insert(key) {
                    slab.insert(key, &key.to_le_bytes()).unwrap();
                } else if rng.below(2) == 0 {
                    held.remove(&key);
                    slab.remove(key).unwrap();
                }
                if rng.below(500) == 0 {
                    slab.shrink();
                }
            }
            let gone: Vec<u64> = held.iter().copied().filter(|_| rng.below(4) != 0).collect();
            for key in gone {
                held.remove(&key);
                slab.remove(key).unwrap();
            }
            slab.shrink();
            for key in 0..3000 {
                let want = held.contains(&key).then(|| key.to_le_bytes().to_vec());
                assert_eq!(slab.payload(key).map(<[u8]>::to_vec), want, "key {key}");
            }
            assert!(
                slab.by_key.slots.len() <= 8 * held.len().max(1),
                "the index shrank to its entries"
            );
        });
    }

    #[test]
    fn a_replayed_update_checks_the_cell() {
        let mut slab = DataSlab::new(CELL);
        slab.insert(7, b"abc").unwrap();
        let delta: Vec<u8> = encode_cell(b"abc", CELL)
            .iter()
            .zip(encode_cell(b"wxyz", CELL))
            .map(|(a, b)| a ^ b)
            .collect();
        assert!(slab.xor_at(0, &delta));
        assert_eq!(slab.payload(7), Some(&b"wxyz"[..]));
        // A Δ whose length prefix runs past the cell changes nothing.
        assert!(!slab.xor_at(0, &[0xFF; CELL]));
        assert_eq!(slab.payload(7), Some(&b"wxyz"[..]));
        assert!(!slab.xor_at(1, &delta), "vacant rank");
    }

    #[test]
    fn ranks_past_the_bound_are_refused_before_allocating() {
        assert!(DataSlab::restore(CELL, 1 << 40, Vec::new()).is_none());
        assert!(DataSlab::restore(CELL, 1, vec![(1 << 40, 1, Vec::new())]).is_none());
        assert!(DataSlab::restore(CELL, RANK_LIMIT, Vec::new()).is_some());
        assert!(ParitySlab::restore(CELL, 2, vec![(1 << 40, vec![Some(1), None], vec![0; CELL])])
            .is_none());
        let mut p = ParitySlab::new(CELL, 2);
        assert!(!p.apply(1 << 40, 0, KeyOp::Add(1), |_| {}));
        assert!(!p.apply(RANK_LIMIT, 0, KeyOp::Add(1), |_| {}));
        // Inside the bound, a Δ still grows the slab by one rank at most.
        assert!(!p.apply(RANK_LIMIT - 1, 0, KeyOp::Add(1), |_| {}));
        assert!(!p.apply(1, 0, KeyOp::Add(1), |_| {}));
        assert!(!p.apply(0, 0, KeyOp::Keep, |_| {}));
        assert!(!p.apply(0, 0, KeyOp::Remove(1), |_| {}));
        assert_eq!(p.store_bytes(), 0);
        assert!(p.apply(0, 0, KeyOp::Add(1), |_| {}));
        assert!(p.apply(1, 1, KeyOp::Add(2), |_| {}));
    }

    #[test]
    fn the_parity_slab_drops_empty_groups_and_trailing_ranks() {
        let mut p = ParitySlab::new(CELL, 2);
        let xor = |d: Vec<u8>| move |cell: &mut [u8]| lhrs_gf::add_slice(&d, cell);
        let cell = |k: u64| encode_cell(&k.to_le_bytes(), CELL);
        assert!(p.apply(0, 0, KeyOp::Add(10), xor(cell(10))));
        for (rank, key) in [(0, 11), (1, 12), (2, 13), (3, 14)] {
            assert!(p.apply(rank, 1, KeyOp::Add(key), xor(cell(key))));
        }
        assert_eq!((p.len(), p.ranks()), (4, 4));
        assert_eq!(p.store_bytes(), 4 * (CELL + 2 * 9));
        // A group with no members is a zero cell, and the slab keeps it.
        assert!(p.apply(1, 1, KeyOp::Remove(12), xor(cell(12))));
        assert_eq!((p.len(), p.ranks()), (3, 4));
        assert_eq!(p.cell_at(1), Some(&[0u8; CELL][..]), "a hole is a zero cell");
        assert_eq!(p.find(12), None);
        assert_eq!(p.find(14), Some((3, vec![None, Some(14)])));
        // Trailing empty ranks go.
        assert!(p.apply(3, 1, KeyOp::Remove(14), xor(cell(14))));
        assert!(p.apply(2, 1, KeyOp::Remove(13), xor(cell(13))));
        assert!(p.apply(0, 1, KeyOp::Remove(11), xor(cell(11))));
        assert_eq!((p.len(), p.ranks()), (1, 1), "trailing empty ranks go");
        assert_eq!(p.find(14), None);
        let rows: Vec<(Rank, Vec<Option<Key>>)> = p.iter().map(|(r, k, _)| (r, k)).collect();
        assert_eq!(rows, vec![(0, vec![Some(10), None])]);
        let content: Vec<_> = p.iter().map(|(r, k, c)| (r, k, c.to_vec())).collect();
        let q = ParitySlab::restore(CELL, 2, content.clone()).unwrap();
        let again: Vec<_> = q.iter().map(|(r, k, c)| (r, k, c.to_vec())).collect();
        assert_eq!(again, content);
        let twice = [content.clone(), content].concat();
        assert!(ParitySlab::restore(CELL, 2, twice).is_none(), "a repeated rank");
    }
}
