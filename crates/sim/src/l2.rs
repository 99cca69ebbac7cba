//! A direct-mapped sector cache standing in for the GPU's L2.
//!
//! The model only sees *gather-style* traffic: streaming reads/writes bypass
//! it (hardware streams with an evict-first policy, so they neither benefit
//! from nor meaningfully pollute L2 for our purposes). This is what makes
//! small-relation unclustered gathers cheap — the paper observes exactly this
//! on TPC-H J3 — while large-relation gathers miss constantly.

/// Direct-mapped, sector-granular (32 B) cache model.
pub struct L2Cache {
    /// Tag per set; `u64::MAX` marks an empty set.
    tags: Vec<u64>,
    mask: u64,
}

impl L2Cache {
    /// Create a cache of `capacity_bytes`, rounded down to a power of two
    /// number of 32-byte sectors.
    pub fn new(capacity_bytes: u64) -> Self {
        let sectors = (capacity_bytes / crate::SECTOR_BYTES).max(1);
        let sets = sectors.next_power_of_two() >> if sectors.is_power_of_two() { 0 } else { 1 };
        L2Cache {
            tags: vec![u64::MAX; sets as usize],
            mask: sets - 1,
        }
    }

    /// Number of sets (== sectors of capacity).
    pub fn sets(&self) -> usize {
        self.tags.len()
    }

    /// Access one sector; returns `true` on hit. Misses install the sector.
    #[inline]
    pub fn access(&mut self, sector: u64) -> bool {
        let idx = (sector & self.mask) as usize;
        // Safety note: idx is masked to the table size, so indexing cannot
        // panic; plain indexing keeps the bounds check visible to LLVM.
        let tag = &mut self.tags[idx];
        if *tag == sector {
            true
        } else {
            *tag = sector;
            false
        }
    }

    /// Invalidate everything.
    pub fn clear(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_power_of_two_sectors() {
        let c = L2Cache::new(40 << 20);
        assert!(c.sets().is_power_of_two());
        assert!(c.sets() <= (40 << 20) / 32);
        let small = L2Cache::new(33);
        assert_eq!(small.sets(), 1);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = L2Cache::new(1 << 20);
        assert!(!c.access(42));
        assert!(c.access(42));
        c.clear();
        assert!(!c.access(42));
    }

    #[test]
    fn conflicting_sectors_evict() {
        let mut c = L2Cache::new(1 << 10); // 32 sets
        let sets = c.sets() as u64;
        assert!(!c.access(7));
        assert!(!c.access(7 + sets)); // maps to the same set
        assert!(!c.access(7)); // was evicted
    }

    #[test]
    fn working_set_within_capacity_all_hits_second_round() {
        let mut c = L2Cache::new(1 << 14); // 512 sets
        let n = c.sets() as u64;
        for s in 0..n {
            assert!(!c.access(s));
        }
        for s in 0..n {
            assert!(c.access(s), "sector {s} should still be resident");
        }
    }
}
