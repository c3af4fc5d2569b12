//! The systematic generalized Reed–Solomon code used by LH\*RS bucket
//! groups.

use lhrs_gf::{add_slice, GaloisField};

use crate::{Matrix, RsError};

/// A systematic `(m + k, m)` generalized Reed–Solomon erasure code over the
/// field `F`.
///
/// `m` is the bucket-group size (data shards), `k` the availability level
/// (parity shards). The generator is `[I | Γ]` with `Γ` a normalised Cauchy
/// matrix whose first row and first column are all ones (see the crate
/// docs); any `k` erasures among the `m + k` shards are recoverable.
#[derive(Clone, Debug)]
pub struct RsCode<F: GaloisField> {
    m: usize,
    k: usize,
    gamma: Matrix<F>,
}

impl<F: GaloisField> RsCode<F> {
    /// Create the code for `m` data and `k` parity shards.
    ///
    /// # Errors
    /// [`RsError::InvalidParameters`] when `m == 0`, `k == 0`, or
    /// `m + k > 2^f` (the Cauchy construction needs that many distinct
    /// field points).
    pub fn new(m: usize, k: usize) -> Result<Self, RsError> {
        if m == 0 || k == 0 {
            return Err(RsError::InvalidParameters {
                m,
                k,
                field_order: F::ORDER,
            });
        }
        let mut gamma = Matrix::<F>::cauchy(m, k)?;
        // Normalise: first make column 0 all ones (row scaling), then row 0
        // all ones (column scaling; column 0 keeps its ones because
        // Γ[0][0] = 1 after the row pass). Row/column scaling by nonzero
        // constants preserves the all-square-submatrices-nonsingular
        // property of Cauchy matrices, hence the code stays MDS.
        for i in 0..m {
            // Cauchy entries are nonzero, so inversion cannot fail; surface
            // the impossible case as the decoder's singularity error rather
            // than aborting.
            let inv = F::inv(gamma.get(i, 0)).ok_or(RsError::SingularMatrix)?;
            gamma.scale_row(i, inv);
        }
        for j in 0..k {
            let inv = F::inv(gamma.get(0, j)).ok_or(RsError::SingularMatrix)?;
            gamma.scale_col(j, inv);
        }
        Ok(RsCode { m, k, gamma })
    }

    /// Number of data shards (bucket-group size `m`).
    pub fn data_shards(&self) -> usize {
        self.m
    }

    /// Number of parity shards (availability level `k`).
    pub fn parity_shards(&self) -> usize {
        self.k
    }

    /// Total shards `m + k`.
    pub fn total_shards(&self) -> usize {
        self.m.saturating_add(self.k)
    }

    /// Generator coefficient `Γ[i][j]`: the weight of data shard `i` in
    /// parity shard `j`.
    pub fn coeff(&self, data_index: usize, parity_index: usize) -> F::Elem {
        self.gamma.get(data_index, parity_index)
    }

    /// Compute all `k` parity buffers from exactly `m` equal-length data
    /// buffers.
    ///
    /// ```
    /// use lhrs_rs::RsCode;
    /// use lhrs_gf::Gf8;
    ///
    /// let code: RsCode<Gf8> = RsCode::new(2, 1).unwrap();
    /// let parity = code.encode(&[&[1, 2][..], &[3, 4][..]]).unwrap();
    /// // k = 1 parity is the XOR of the data shards.
    /// assert_eq!(parity, vec![vec![1 ^ 3, 2 ^ 4]]);
    /// ```
    ///
    /// # Errors
    /// [`RsError::WrongShardCount`] if `data.len() != m`;
    /// [`RsError::InconsistentShardLength`] on ragged or misaligned buffers.
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.m {
            return Err(RsError::WrongShardCount {
                got: data.len(),
                expected: self.m,
            });
        }
        // `data.len() == m ≥ 1` was just checked, so `first()` is `Some`.
        let len = data.first().map_or(0, |d| d.len());
        self.check_len(len)?;
        if data.iter().any(|d| d.len() != len) {
            return Err(RsError::InconsistentShardLength);
        }
        let mut parity = vec![vec![0u8; len]; self.k];
        for (i, d) in data.iter().enumerate() {
            self.add_shard_into_parity(i, d, &mut parity);
        }
        Ok(parity)
    }

    /// Compute all `k` parity buffers from a *sparse* record group: only the
    /// listed `(data_index, payload)` members are nonzero, the rest are
    /// implicit zero buffers of length `len`. This is how LH\*RS encodes a
    /// record group with fewer than `m` live members.
    ///
    /// # Errors
    /// [`RsError::WrongShardCount`] on an out-of-range index;
    /// [`RsError::InconsistentShardLength`] on ragged or misaligned buffers.
    pub fn encode_sparse(
        &self,
        members: &[(usize, &[u8])],
        len: usize,
    ) -> Result<Vec<Vec<u8>>, RsError> {
        self.check_len(len)?;
        let mut parity = vec![vec![0u8; len]; self.k];
        for &(i, d) in members {
            if i >= self.m {
                return Err(RsError::WrongShardCount {
                    got: i,
                    expected: self.m,
                });
            }
            if d.len() != len {
                return Err(RsError::InconsistentShardLength);
            }
            self.add_shard_into_parity(i, d, &mut parity);
        }
        Ok(parity)
    }

    /// Commit a record delta into one parity buffer:
    /// `parity ^= Γ[data_index][parity_index] · delta`.
    ///
    /// ```
    /// use lhrs_rs::RsCode;
    /// use lhrs_gf::Gf8;
    ///
    /// let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
    /// let mut parity = vec![0u8; 8];
    /// let old = [5u8; 8];
    /// let new = [9u8; 8];
    /// let delta: Vec<u8> = old.iter().zip(&new).map(|(a, b)| a ^ b).collect();
    /// code.apply_delta(2, 1, &old, &mut parity);   // record appears
    /// code.apply_delta(2, 1, &delta, &mut parity); // record updated
    /// let mut direct = vec![0u8; 8];
    /// code.apply_delta(2, 1, &new, &mut direct);
    /// assert_eq!(parity, direct);
    /// ```
    ///
    /// This is the whole computational work of a parity bucket on an LH\*RS
    /// insert, update, or delete (`Δ = new ⊕ old`, with absent = all-zero).
    /// For `parity_index == 0` the coefficient is 1, so the commit is a pure
    /// XOR — the LH\*g-compatible fast path.
    ///
    /// Out-of-range indices make the call a no-op and mismatched buffer
    /// lengths degrade to the common prefix (see
    /// [`GaloisField::mul_add_slice`]): a malformed Δ from a remote data
    /// bucket must surface as a parity divergence caught by scans, not
    /// abort the parity actor — an abort here looks exactly like a killed
    /// bucket and triggers a needless group recovery.
    pub fn apply_delta(
        &self,
        data_index: usize,
        parity_index: usize,
        delta: &[u8],
        parity: &mut [u8],
    ) {
        if data_index >= self.m || parity_index >= self.k {
            return;
        }
        F::mul_add_slice(self.coeff(data_index, parity_index), delta, parity);
    }

    /// Reconstruct every missing shard in place. `shards.len()` must be
    /// `m + k`; indices `0..m` are data shards, `m..m+k` parity shards.
    /// Present shards are left untouched.
    ///
    /// # Errors
    /// [`RsError::WrongShardCount`], [`RsError::TooManyErasures`],
    /// [`RsError::InconsistentShardLength`] — see the variants.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.total_shards() {
            return Err(RsError::WrongShardCount {
                got: shards.len(),
                expected: self.total_shards(),
            });
        }
        let missing: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        if missing.len() > self.k {
            return Err(RsError::TooManyErasures {
                missing: missing.len(),
                tolerated: self.k,
            });
        }
        // `missing.len() ≤ k < m + k`, so at least one shard is present.
        let Some(len) = shards.iter().flatten().map(Vec::len).next() else {
            return Err(RsError::TooManyErasures {
                missing: missing.len(),
                tolerated: self.k,
            });
        };
        self.check_len(len)?;
        if shards.iter().flatten().any(|s| s.len() != len) {
            return Err(RsError::InconsistentShardLength);
        }

        // Phase 1: recover missing *data* shards by inverting the m×m
        // submatrix of [I | Γ] formed by m available shard columns.
        let missing_data: Vec<usize> = missing.iter().copied().filter(|&i| i < self.m).collect();
        if !missing_data.is_empty() {
            let avail: Vec<usize> = shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(i, _)| i)
                .take(self.m)
                .collect();
            if avail.len() != self.m {
                return Err(RsError::TooManyErasures {
                    missing: missing.len(),
                    tolerated: self.k,
                });
            }
            // A[r][t] = G[r][avail[t]]: the generator column of each chosen
            // shard; c_avail = d · A, hence d = c_avail · A⁻¹.
            // t < m == avail.len() (checked above); an impossible miss
            // degrades to column 0, making the matrix singular and the
            // decode fail cleanly instead of aborting the actor.
            let a = Matrix::<F>::from_fn(self.m, self.m, |r, t| {
                let col = avail.get(t).copied().unwrap_or(0);
                if col < self.m {
                    if r == col {
                        F::one()
                    } else {
                        F::zero()
                    }
                } else {
                    self.gamma.get(r, col.saturating_sub(self.m))
                }
            });
            let inv = a.inverse()?;
            for &x in &missing_data {
                let mut buf = vec![0u8; len];
                for (t, &src) in avail.iter().enumerate() {
                    let c = inv.get(t, x);
                    let Some(shard) = shards.get(src).and_then(|s| s.as_deref()) else {
                        return Err(RsError::TooManyErasures {
                            missing: missing.len(),
                            tolerated: self.k,
                        });
                    };
                    F::mul_add_slice(c, shard, &mut buf);
                }
                if let Some(slot) = shards.get_mut(x) {
                    *slot = Some(buf);
                }
            }
        }

        // Phase 2: recompute missing parity shards from the (now complete)
        // data shards.
        for &x in missing.iter().filter(|&&i| i >= self.m) {
            let j = x.saturating_sub(self.m);
            let mut buf = vec![0u8; len];
            for (i, shard) in shards.iter().take(self.m).enumerate() {
                let c = self.gamma.get(i, j);
                // Phase 1 restored every data shard, so this is always Some.
                let Some(shard) = shard.as_deref() else {
                    return Err(RsError::TooManyErasures {
                        missing: missing.len(),
                        tolerated: self.k,
                    });
                };
                F::mul_add_slice(c, shard, &mut buf);
            }
            // Borrow of `shards` above has ended; write the parity back.
            if let Some(slot) = shards.get_mut(x) {
                *slot = Some(buf);
            }
        }
        Ok(())
    }

    /// Reconstruct a single data shard without materialising the others —
    /// the record-level degraded-mode read of LH\*RS (answer a key search
    /// while the bucket rebuild is still running).
    ///
    /// `available` supplies at least `m` shards as `(shard_index, payload)`.
    ///
    /// # Errors
    /// [`RsError::TooManyErasures`] if fewer than `m` shards are supplied;
    /// [`RsError::DuplicateShardIndex`] if a shard index repeats (a
    /// duplicated survivor list would otherwise build a singular decode
    /// matrix and fail opaquely inside the inversion);
    /// length errors as for [`RsCode::reconstruct`].
    pub fn reconstruct_one(
        &self,
        target_data_index: usize,
        available: &[(usize, &[u8])],
    ) -> Result<Vec<u8>, RsError> {
        if available.len() < self.m {
            return Err(RsError::TooManyErasures {
                missing: self.total_shards().saturating_sub(available.len()),
                tolerated: self.k,
            });
        }
        let mut seen = vec![false; self.total_shards()];
        for &(idx, _) in available {
            if idx >= self.total_shards() {
                return Err(RsError::WrongShardCount {
                    got: idx,
                    expected: self.total_shards(),
                });
            }
            let dup = seen
                .get_mut(idx)
                .map(|s| std::mem::replace(s, true))
                .unwrap_or(true);
            if dup {
                return Err(RsError::DuplicateShardIndex { index: idx });
            }
        }
        // `available.len() ≥ m` was checked on entry.
        let Some(chosen) = available.get(..self.m) else {
            return Err(RsError::TooManyErasures {
                missing: self.total_shards().saturating_sub(available.len()),
                tolerated: self.k,
            });
        };
        let len = chosen.first().map_or(0, |(_, s)| s.len());
        self.check_len(len)?;
        if chosen.iter().any(|(_, s)| s.len() != len) {
            return Err(RsError::InconsistentShardLength);
        }
        // t < m == chosen.len() (by the get(..m) above); an impossible miss
        // degrades to column 0 — singular matrix, clean decode error.
        let a = Matrix::<F>::from_fn(self.m, self.m, |r, t| {
            let col = chosen.get(t).map_or(0, |c| c.0);
            if col < self.m {
                if r == col {
                    F::one()
                } else {
                    F::zero()
                }
            } else {
                self.gamma.get(r, col.saturating_sub(self.m))
            }
        });
        let inv = a.inverse()?;
        let mut buf = vec![0u8; len];
        for (t, &(_, shard)) in chosen.iter().enumerate() {
            F::mul_add_slice(inv.get(t, target_data_index), shard, &mut buf);
        }
        Ok(buf)
    }

    /// XOR-combine `delta` into `acc` — re-exported here so callers coding
    /// against `RsCode` don't need the field crate for the common case.
    pub fn xor_into(delta: &[u8], acc: &mut [u8]) {
        add_slice(delta, acc);
    }

    /// `parity[j] ^= Γ[i][j] · shard` for every parity buffer — the inner
    /// loop of both dense and sparse encoding.
    fn add_shard_into_parity(&self, i: usize, shard: &[u8], parity: &mut [Vec<u8>]) {
        for (j, p) in parity.iter_mut().enumerate() {
            F::mul_add_slice(self.gamma.get(i, j), shard, p);
        }
    }

    fn check_len(&self, len: usize) -> Result<(), RsError> {
        if !len.is_multiple_of(F::SYMBOL_BYTES) {
            return Err(RsError::InconsistentShardLength);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhrs_gf::{Gf16, Gf4, Gf8};

    fn sample_data(m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..m)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 131 + b * 7 + 3) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn first_parity_column_is_all_ones() {
        for (m, k) in [(1, 1), (4, 1), (4, 3), (16, 4), (128, 8)] {
            let code: RsCode<Gf8> = RsCode::new(m, k).unwrap();
            for i in 0..m {
                assert_eq!(code.coeff(i, 0), 1, "m={m} k={k} i={i}");
            }
        }
    }

    #[test]
    fn first_data_row_is_all_ones() {
        let code: RsCode<Gf8> = RsCode::new(8, 4).unwrap();
        for j in 0..4 {
            assert_eq!(code.coeff(0, j), 1);
        }
    }

    #[test]
    fn parity_zero_is_xor_of_data() {
        let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
        let data = sample_data(4, 32);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let mut xor = vec![0u8; 32];
        for d in &data {
            add_slice(d, &mut xor);
        }
        assert_eq!(parity[0], xor);
    }

    #[test]
    fn reconstruct_all_single_and_double_erasures() {
        let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
        let data = sample_data(4, 24);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
        let n = full.len();
        for a in 0..n {
            for b in a..n {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                code.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(
                        s.as_deref(),
                        Some(&full[i][..]),
                        "erased ({a},{b}) shard {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_detected() {
        let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
        let data = sample_data(4, 8);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert!(matches!(
            code.reconstruct(&mut shards),
            Err(RsError::TooManyErasures {
                missing: 3,
                tolerated: 2
            })
        ));
    }

    #[test]
    fn delta_commit_equals_reencoding() {
        let code: RsCode<Gf8> = RsCode::new(4, 3).unwrap();
        let mut data = sample_data(4, 16);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = code.encode(&refs).unwrap();

        // Update record 2 via delta on every parity shard.
        let new_payload: Vec<u8> = (0..16).map(|b| (b * 17 + 1) as u8).collect();
        let mut delta = data[2].clone();
        add_slice(&new_payload, &mut delta);
        for (j, p) in parity.iter_mut().enumerate() {
            code.apply_delta(2, j, &delta, p);
        }
        data[2] = new_payload;

        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let direct = code.encode(&refs).unwrap();
        assert_eq!(parity, direct);
    }

    #[test]
    fn sparse_encode_matches_dense_with_zero_fill() {
        let code: RsCode<Gf8> = RsCode::new(6, 2).unwrap();
        let d1 = vec![9u8; 10];
        let d4 = vec![200u8; 10];
        let sparse = code.encode_sparse(&[(1, &d1), (4, &d4)], 10).unwrap();
        let zero = vec![0u8; 10];
        let dense_in: Vec<&[u8]> = vec![&zero, &d1, &zero, &zero, &d4, &zero];
        let dense = code.encode(&dense_in).unwrap();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn reconstruct_one_during_degraded_mode() {
        let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
        let data = sample_data(4, 12);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        // Shard 1 and 3 lost; rebuild only shard 3 from shards {0, 2, p0, p1}.
        let avail: Vec<(usize, &[u8])> = vec![
            (0, data[0].as_slice()),
            (2, data[2].as_slice()),
            (4, parity[0].as_slice()),
            (5, parity[1].as_slice()),
        ];
        let got = code.reconstruct_one(3, &avail).unwrap();
        assert_eq!(got, data[3]);
    }

    #[test]
    fn reconstruct_one_rejects_duplicate_indices_up_front() {
        let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
        let data = sample_data(4, 12);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        // Shard 0 listed twice: without the up-front check this built a
        // singular matrix and surfaced as an inscrutable SingularMatrix.
        let avail: Vec<(usize, &[u8])> = vec![
            (0, data[0].as_slice()),
            (0, data[0].as_slice()),
            (2, data[2].as_slice()),
            (4, parity[0].as_slice()),
        ];
        assert_eq!(
            code.reconstruct_one(3, &avail),
            Err(RsError::DuplicateShardIndex { index: 0 })
        );
        // Duplicates beyond the first m survivors are rejected too — the
        // caller's list is inconsistent even if the chosen prefix is fine.
        let avail: Vec<(usize, &[u8])> = vec![
            (0, data[0].as_slice()),
            (1, data[1].as_slice()),
            (2, data[2].as_slice()),
            (4, parity[0].as_slice()),
            (4, parity[0].as_slice()),
        ];
        assert_eq!(
            code.reconstruct_one(3, &avail),
            Err(RsError::DuplicateShardIndex { index: 4 })
        );
        // An out-of-range index is caught before it can panic in the
        // matrix build.
        let avail: Vec<(usize, &[u8])> = vec![
            (0, data[0].as_slice()),
            (1, data[1].as_slice()),
            (2, data[2].as_slice()),
            (9, parity[0].as_slice()),
        ];
        assert!(matches!(
            code.reconstruct_one(3, &avail),
            Err(RsError::WrongShardCount { .. })
        ));
    }

    #[test]
    fn k_equals_one_is_pure_xor_scheme() {
        // With k = 1 the code degenerates to LH*g: parity is XOR and a lost
        // shard is the XOR of the survivors.
        let code: RsCode<Gf8> = RsCode::new(3, 1).unwrap();
        let data = sample_data(3, 8);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let mut expect = vec![0u8; 8];
        for d in &data {
            add_slice(d, &mut expect);
        }
        assert_eq!(parity[0], expect);
        let avail: Vec<(usize, &[u8])> = vec![
            (0, data[0].as_slice()),
            (2, data[2].as_slice()),
            (3, parity[0].as_slice()),
        ];
        assert_eq!(code.reconstruct_one(1, &avail).unwrap(), data[1]);
    }

    #[test]
    fn gf16_roundtrip() {
        let code: RsCode<Gf16> = RsCode::new(8, 3).unwrap();
        let data = sample_data(8, 32); // even length for GF(2^16)
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        shards[0] = None;
        shards[5] = None;
        shards[9] = None;
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[0].as_deref(), Some(&data[0][..]));
        assert_eq!(shards[5].as_deref(), Some(&data[5][..]));
        assert_eq!(shards[9].as_deref(), Some(&parity[1][..]));
    }

    #[test]
    fn gf4_supports_small_groups_only() {
        assert!(RsCode::<Gf4>::new(12, 4).is_ok()); // 16 = 2^4
        assert!(matches!(
            RsCode::<Gf4>::new(14, 3),
            Err(RsError::InvalidParameters { .. })
        ));
        let code: RsCode<Gf4> = RsCode::new(4, 2).unwrap();
        let data = sample_data(4, 16);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        shards[1] = None;
        shards[4] = None;
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
        assert_eq!(shards[4].as_deref(), Some(&parity[0][..]));
    }

    #[test]
    fn generator_columns_are_prefix_stable_in_k() {
        // Raising k must not change the existing parity columns — this is
        // what lets LH*RS scalable availability add parity buckets to a
        // group without touching the existing ones.
        for m in [1usize, 2, 4, 8, 16, 100] {
            let codes: Vec<RsCode<Gf8>> = (1..=4).map(|k| RsCode::new(m, k).unwrap()).collect();
            for (ki, code) in codes.iter().enumerate() {
                for smaller in &codes[..ki] {
                    for i in 0..m {
                        for j in 0..smaller.parity_shards() {
                            assert_eq!(code.coeff(i, j), smaller.coeff(i, j), "m={m} i={i} j={j}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parity_encoded_at_low_k_decodes_under_higher_k() {
        // End-to-end version of prefix stability: parity shards produced by
        // the (m, 1) code remain valid shards of the (m, 3) code.
        let m = 4;
        let low: RsCode<Gf8> = RsCode::new(m, 1).unwrap();
        let high: RsCode<Gf8> = RsCode::new(m, 3).unwrap();
        let data = sample_data(m, 20);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let p_low = low.encode(&refs).unwrap();
        let p_high = high.encode(&refs).unwrap();
        assert_eq!(p_low[0], p_high[0]);
        // Decode two data losses using the old parity plus one new column.
        let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
        shards.extend(p_high.iter().cloned().map(Some));
        shards[0] = None;
        shards[2] = None;
        high.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[0].as_deref(), Some(&data[0][..]));
        assert_eq!(shards[2].as_deref(), Some(&data[2][..]));
    }

    #[test]
    fn zero_parameters_rejected() {
        assert!(RsCode::<Gf8>::new(0, 2).is_err());
        assert!(RsCode::<Gf8>::new(4, 0).is_err());
    }

    #[test]
    fn misaligned_gf16_buffers_rejected() {
        let code: RsCode<Gf16> = RsCode::new(2, 1).unwrap();
        let d = vec![1u8; 7]; // odd
        assert_eq!(
            code.encode(&[&d, &d]).unwrap_err(),
            RsError::InconsistentShardLength
        );
    }

    #[test]
    fn ragged_buffers_rejected() {
        let code: RsCode<Gf8> = RsCode::new(2, 1).unwrap();
        let a = vec![1u8; 8];
        let b = vec![1u8; 9];
        assert_eq!(
            code.encode(&[&a, &b]).unwrap_err(),
            RsError::InconsistentShardLength
        );
    }

    /// A group with `k` parities fed `k + 1` erasures must degrade with a
    /// typed error, never panic: the recovery matrix is rank-deficient and
    /// the decode path has to say so.
    #[test]
    fn k_plus_one_erasures_is_a_typed_error_not_a_panic() {
        let code: RsCode<Gf8> = RsCode::new(4, 2).unwrap();
        let data = sample_data(4, 16);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .chain(parity.iter())
            .cloned()
            .map(Some)
            .collect();
        // k = 2 tolerated; erase k + 1 = 3 shards (two data, one parity).
        shards[0] = None;
        shards[2] = None;
        shards[5] = None;
        match code.reconstruct(&mut shards) {
            Err(RsError::TooManyErasures {
                missing: 3,
                tolerated: 2,
            }) => {}
            other => panic!("expected TooManyErasures, got {other:?}"),
        }
        // The survivors are untouched by the failed attempt.
        assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
        assert_eq!(shards[3].as_deref(), Some(&data[3][..]));
        assert_eq!(shards[4].as_deref(), Some(&parity[0][..]));
    }

    /// Same rule for the record-level degraded read: fewer than `m`
    /// survivors is an error, not an abort.
    #[test]
    fn reconstruct_one_with_too_few_survivors_errors() {
        let code: RsCode<Gf8> = RsCode::new(3, 2).unwrap();
        let d = sample_data(3, 8);
        let avail: Vec<(usize, &[u8])> = vec![(0, &d[0][..]), (1, &d[1][..])];
        assert!(matches!(
            code.reconstruct_one(2, &avail),
            Err(RsError::TooManyErasures { .. })
        ));
    }

    /// A malformed Δ-commit (out-of-range indices or a short buffer) must
    /// degrade instead of aborting the parity actor: bad indices are a
    /// no-op, and a short delta only touches the common prefix.
    #[test]
    fn apply_delta_out_of_range_degrades_instead_of_aborting() {
        let code: RsCode<Gf8> = RsCode::new(3, 2).unwrap();
        let before = [7u8, 8, 9, 10];

        let mut parity = before;
        code.apply_delta(3, 0, &[1, 2, 3, 4], &mut parity);
        assert_eq!(parity, before, "data_index >= m is a no-op");

        let mut parity = before;
        code.apply_delta(0, 2, &[1, 2, 3, 4], &mut parity);
        assert_eq!(parity, before, "parity_index >= k is a no-op");

        // Short delta: parity_index 0 has coefficient 1 (pure XOR), so only
        // the two-byte prefix changes.
        let mut parity = before;
        code.apply_delta(1, 0, &[0xFF, 0xFF], &mut parity);
        assert_eq!(parity, [7 ^ 0xFF, 8 ^ 0xFF, 9, 10]);
    }
}
