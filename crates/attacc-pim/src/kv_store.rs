//! Physical KV-cache placement inside a stack.
//!
//! The head allocator decides *which stack* holds a head (§4.2); this
//! module manages *where inside the stack* its KV vectors land. Each head
//! owns two growing regions — `Kᵀ` and `V` — carved from the stack in
//! row-interleaved extents so that streaming a head touches every bank of
//! every pseudo-channel (the property the GEMV timing model assumes).
//!
//! The store is functional: it resolves (head, token) to the physical
//! beats holding its elements, enforces per-stack capacity, and reclaims
//! extents when requests retire.

use crate::mapping::HeadId;
use attacc_hbm::{AddressMap, Interleave, PhysicalAddr, StackGeometry};
use std::collections::HashMap;
use std::fmt;

/// Error returned when the stack cannot hold another extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvStoreFull {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes remaining.
    pub available: u64,
}

impl fmt::Display for KvStoreFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KV store full: {} bytes requested, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for KvStoreFull {}

/// Which of a head's two matrices a region belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvHalf {
    /// The transposed key matrix.
    Key,
    /// The value matrix.
    Value,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Extent {
    /// First beat of the extent in the stack's linear beat space.
    start_beat: u64,
    /// Beats reserved.
    beats: u64,
    /// Beats currently used.
    used: u64,
}

/// A per-stack KV placement manager.
#[derive(Debug, Clone, PartialEq)]
pub struct KvStore {
    geom: StackGeometry,
    map: AddressMap,
    /// Next unallocated beat (bump allocation; retired extents go to the
    /// free list).
    next_beat: u64,
    free: Vec<(u64, u64)>, // (start, beats)
    extents: HashMap<(HeadId, KvHalf), Extent>,
    /// Beats one token's half-vector occupies.
    beats_per_token: u64,
    /// Tokens an extent is provisioned for.
    extent_tokens: u64,
}

impl KvStore {
    /// A store over `geom` for heads of `d_head` elements of
    /// `dtype_bytes`, provisioning extents of `extent_tokens` tokens
    /// (the request's maximum length, so growth never relocates).
    ///
    /// # Panics
    /// Panics if any argument is zero.
    #[must_use]
    pub fn new(geom: StackGeometry, d_head: u64, dtype_bytes: u64, extent_tokens: u64) -> KvStore {
        assert!(d_head > 0 && dtype_bytes > 0 && extent_tokens > 0, "zero dimension");
        let bytes_per_token = d_head * dtype_bytes;
        let beats_per_token = bytes_per_token.div_ceil(geom.prefetch_bytes).max(1);
        KvStore {
            map: AddressMap::new(geom.clone(), Interleave::RowInterleaved),
            geom,
            next_beat: 0,
            free: Vec::new(),
            extents: HashMap::new(),
            beats_per_token,
            extent_tokens,
        }
    }

    /// Total beats of the stack.
    #[must_use]
    pub fn capacity_beats(&self) -> u64 {
        self.map.total_beats()
    }

    /// Beats still unreserved.
    #[must_use]
    pub fn available_beats(&self) -> u64 {
        let freed: u64 = self.free.iter().map(|&(_, b)| b).sum();
        self.capacity_beats() - self.next_beat + freed
    }

    fn reserve(&mut self, beats: u64) -> Result<u64, KvStoreFull> {
        // First-fit on the free list.
        if let Some(i) = self.free.iter().position(|&(_, b)| b >= beats) {
            let (start, size) = self.free[i];
            if size == beats {
                self.free.remove(i);
            } else {
                self.free[i] = (start + beats, size - beats);
            }
            return Ok(start);
        }
        if beats > self.capacity_beats() - self.next_beat {
            return Err(KvStoreFull {
                requested: beats.saturating_mul(self.geom.prefetch_bytes),
                available: self.available_beats() * self.geom.prefetch_bytes,
            });
        }
        let start = self.next_beat;
        self.next_beat += beats;
        Ok(start)
    }

    /// Opens both extents of a head (done at admission).
    ///
    /// # Errors
    /// Returns [`KvStoreFull`] if either extent cannot be reserved; no
    /// partial reservation survives.
    pub fn open_head(&mut self, head: HeadId) -> Result<(), KvStoreFull> {
        // A product past `u64` saturates, and no stack holds that many.
        let beats = self.beats_per_token.saturating_mul(self.extent_tokens);
        let k_start = self.reserve(beats)?;
        match self.reserve(beats) {
            Ok(v_start) => {
                self.extents.insert(
                    (head, KvHalf::Key),
                    Extent { start_beat: k_start, beats, used: 0 },
                );
                self.extents.insert(
                    (head, KvHalf::Value),
                    Extent { start_beat: v_start, beats, used: 0 },
                );
                Ok(())
            }
            Err(e) => {
                self.free.push((k_start, beats));
                Err(e)
            }
        }
    }

    /// Appends one token's vector to a head's half; returns the physical
    /// beats it occupies.
    ///
    /// # Panics
    /// Panics if the head was not opened or its extent is exhausted. The
    /// controller rejects an append past `max_l` before it gets here.
    pub fn append(&mut self, head: HeadId, half: KvHalf) -> Vec<PhysicalAddr> {
        let bpt = self.beats_per_token;
        let ext = self
            .extents
            .get_mut(&(head, half))
            .expect("head must be opened before appending");
        assert!(ext.used + bpt <= ext.beats, "extent exhausted");
        let first = ext.start_beat + ext.used;
        ext.used += bpt;
        (first..first + bpt).map(|b| self.map.decode(b)).collect()
    }

    /// Physical beats of a head's entire half (for streaming).
    #[must_use]
    pub fn beats_of(&self, head: HeadId, half: KvHalf) -> Option<Vec<u64>> {
        self.extents
            .get(&(head, half))
            .map(|e| (e.start_beat..e.start_beat + e.used).collect())
    }

    /// Distinct (pCH, bank) pairs a head's half currently spans — the
    /// streaming parallelism available to the GEMV units.
    #[must_use]
    pub fn banks_spanned(&self, head: HeadId, half: KvHalf) -> usize {
        let Some(beats) = self.beats_of(head, half) else {
            return 0;
        };
        let mut seen = std::collections::HashSet::new();
        for b in beats {
            let a = self.map.decode(b);
            seen.insert((a.pch, a.bank));
        }
        seen.len()
    }

    /// Releases both extents of a head (request retired).
    pub fn close_head(&mut self, head: HeadId) {
        for half in [KvHalf::Key, KvHalf::Value] {
            if let Some(e) = self.extents.remove(&(head, half)) {
                self.free.push((e.start_beat, e.beats));
            }
        }
    }

    /// Number of live extents (two per open head).
    #[must_use]
    pub fn live_extents(&self) -> usize {
        self.extents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KvStore {
        KvStore::new(StackGeometry::hbm3_8hi(), 128, 2, 4096)
    }

    fn head(r: u64, h: u32) -> HeadId {
        HeadId { request: r, head: h }
    }

    #[test]
    fn append_and_stream_roundtrip() {
        let mut s = store();
        s.open_head(head(0, 0)).unwrap();
        let beats_per_token = (128 * 2u64).div_ceil(32);
        for tok in 0..10u64 {
            let addrs = s.append(head(0, 0), KvHalf::Key);
            assert_eq!(addrs.len() as u64, beats_per_token);
            let _ = tok;
        }
        let all = s.beats_of(head(0, 0), KvHalf::Key).unwrap();
        assert_eq!(all.len() as u64, 10 * beats_per_token);
        // Contiguous beats within the extent.
        assert!(all.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn long_head_spans_many_banks() {
        let mut s = store();
        s.open_head(head(0, 0)).unwrap();
        for _ in 0..2048 {
            let _ = s.append(head(0, 0), KvHalf::Key);
        }
        // 2048 tokens × 256 B = 512 KiB: spans ≥ 32 banks under row
        // interleaving (one pCH's worth at 16 KiB per (pch, bank) row...).
        let spanned = s.banks_spanned(head(0, 0), KvHalf::Key);
        assert!(spanned >= 512, "spanned = {spanned}");
    }

    #[test]
    fn close_reclaims_space() {
        let mut s = store();
        s.open_head(head(0, 0)).unwrap();
        let before = s.available_beats();
        s.open_head(head(1, 0)).unwrap();
        assert!(s.available_beats() < before);
        s.close_head(head(1, 0));
        assert_eq!(s.available_beats(), before);
        // The freed extent is reused.
        s.open_head(head(2, 0)).unwrap();
        assert_eq!(s.live_extents(), 4);
    }

    #[test]
    fn capacity_is_enforced_atomically() {
        // Tiny stack: 1 MiB.
        let geom = StackGeometry {
            capacity_bytes: 1 << 20,
            ..StackGeometry::hbm3_8hi()
        };
        let mut s = KvStore::new(geom, 128, 2, 1024);
        // Each half-extent = 1024 tokens × 256 B = 256 KiB; a head = 512 KiB.
        s.open_head(head(0, 0)).unwrap();
        let before = s.available_beats();
        // Second head fits exactly; third cannot.
        s.open_head(head(0, 1)).unwrap();
        let err = s.open_head(head(0, 2)).unwrap_err();
        assert!(err.available < err.requested);
        assert!(!err.to_string().is_empty());
        let _ = before;
    }

    #[test]
    #[should_panic(expected = "opened before appending")]
    fn append_without_open_panics() {
        let mut s = store();
        let _ = s.append(head(9, 9), KvHalf::Value);
    }

    #[test]
    fn halves_are_disjoint() {
        let mut s = store();
        s.open_head(head(0, 0)).unwrap();
        let _ = s.append(head(0, 0), KvHalf::Key);
        let _ = s.append(head(0, 0), KvHalf::Value);
        let k = s.beats_of(head(0, 0), KvHalf::Key).unwrap();
        let v = s.beats_of(head(0, 0), KvHalf::Value).unwrap();
        assert!(k.iter().all(|b| !v.contains(b)));
    }
}
