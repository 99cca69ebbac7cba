//! Hash-based match finding: the per-partition shared-memory join kernel
//! (PHJ match finding, Sections 3.2 and 4.3) and the global hash table of
//! the non-partitioned baseline (cuDF's join, Section 5.2.2).

use crate::{BUILD_WARP_INSTR, GLOBAL_HASH_WARP_INSTR, PROBE_WARP_INSTR};
use sim::{Device, DeviceBuffer, Element};

/// Matched tuples: the intermediate relation `T'(key, ID_R, ID_S)` of
/// Section 2.2. Depending on the pattern, the index columns hold physical
/// tuple IDs (GFUR) or positions in the transformed relations (GFTR).
pub struct MatchResult<K: Element> {
    /// Matched key values, one per output row.
    pub keys: DeviceBuffer<K>,
    /// Matching positions into the R side.
    pub r_idx: DeviceBuffer<u32>,
    /// Matching positions into the S side.
    pub s_idx: DeviceBuffer<u32>,
}

impl<K: Element> MatchResult<K> {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the join produced no matches.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Diagnostics from [`join_copartitions`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CoPartitionCost {
    /// Largest number of build-side chunks any partition needed (1 means
    /// every build partition fit the shared-memory hash table at once).
    pub max_build_chunks: u32,
    /// Total probe-side tuples re-read due to multi-chunk (block-nested-
    /// loop) processing, beyond the first pass.
    pub probe_rereads: u64,
}

/// Multiplicative hash into `mask + 1` slots (Fibonacci hashing).
#[inline]
fn slot_of(key: u64, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// Join co-partitions with per-partition shared-memory hash tables — the
/// match-finding kernel of the partitioned hash joins (Figure 6, step 2).
///
/// `r_offsets`/`s_offsets` are the partition boundary arrays produced by
/// [`crate::radix_partition`]; both sides must use the same fan-out. A
/// thread block builds a hash table from (a chunk of) the build partition in
/// shared memory and streams the probe co-partition through it; build
/// partitions larger than the shared-memory budget fall back to the
/// block-nested-loop behaviour the paper describes, re-reading the probe
/// partition once per chunk.
///
/// Returned positions are *global* indices into the partitioned arrays, and
/// the probe-side (`s_idx`) output is non-decreasing — the clustering that
/// GFTR's cheap materialization relies on.
pub fn join_copartitions<K: Element + Eq>(
    dev: &Device,
    r_keys: &DeviceBuffer<K>,
    r_offsets: &[u32],
    s_keys: &DeviceBuffer<K>,
    s_offsets: &[u32],
) -> (MatchResult<K>, CoPartitionCost) {
    assert_eq!(
        r_offsets.len(),
        s_offsets.len(),
        "co-partitioned inputs must share a fan-out"
    );
    let parts = r_offsets.len() - 1;
    // Shared-memory hash table capacity, in tuples of (key, position).
    let cap = dev.config().shared_mem_tuples(K::SIZE + 4).max(64) as usize;

    let mut keys = Vec::new();
    let mut r_idx = Vec::new();
    let mut s_idx = Vec::new();
    let mut cost = CoPartitionCost::default();

    // Reusable open-addressing table: (radix key, global r position).
    let mut table: Vec<(u64, u32)> = Vec::new();

    let mut probe_tuples_read = 0u64;
    let mut build_tuples_read = 0u64;
    let (r_keys, s_keys) = (r_keys.as_slice(), s_keys.as_slice());

    for p in 0..parts {
        let r_range = r_offsets[p] as usize..r_offsets[p + 1] as usize;
        let s_range = s_offsets[p] as usize..s_offsets[p + 1] as usize;
        if r_range.is_empty() || s_range.is_empty() {
            continue;
        }
        let chunks = r_range.len().div_ceil(cap);
        cost.max_build_chunks = cost.max_build_chunks.max(chunks as u32);
        if chunks > 1 {
            cost.probe_rereads += (chunks as u64 - 1) * s_range.len() as u64;
        }

        for chunk in 0..chunks {
            let chunk_start = r_range.start + chunk * cap;
            let chunk_end = (chunk_start + cap).min(r_range.end);

            // Build: open addressing sized to the next power of two ≥ 2x.
            let chunk_len = chunk_end - chunk_start;
            let slots = (chunk_len * 2).next_power_of_two();
            let mask = slots - 1;
            table.clear();
            table.resize(slots, (u64::MAX, u32::MAX));
            for (gi, rk) in (chunk_start..chunk_end).zip(&r_keys[chunk_start..chunk_end]) {
                let k = rk.to_radix();
                let mut s = slot_of(k, mask);
                while table[s].1 != u32::MAX {
                    s = (s + 1) & mask;
                }
                table[s] = (k, gi as u32);
            }
            build_tuples_read += chunk_len as u64;

            // Probe: stream the S co-partition; duplicates on the build side
            // are found by continuing the probe chain to the first empty slot.
            for (sg, sk) in s_range.clone().map(|i| (i, s_keys[i])) {
                let k = sk.to_radix();
                let mut s = slot_of(k, mask);
                while table[s].1 != u32::MAX {
                    if table[s].0 == k {
                        keys.push(sk);
                        r_idx.push(table[s].1);
                        s_idx.push(sg as u32);
                    }
                    s = (s + 1) & mask;
                }
            }
            probe_tuples_read += s_range.len() as u64;
        }
    }

    let out_rows = keys.len() as u64;
    dev.kernel("copartition.build")
        .items(build_tuples_read, BUILD_WARP_INSTR)
        .seq_read_bytes(build_tuples_read * K::SIZE)
        .launch();
    dev.kernel("copartition.probe")
        .items(probe_tuples_read, PROBE_WARP_INSTR)
        .seq_read_bytes(probe_tuples_read * K::SIZE)
        .seq_write_bytes(out_rows * (K::SIZE + 4 + 4))
        .launch();

    (
        MatchResult {
            keys: dev.upload(keys, "copartition_join.keys"),
            r_idx: dev.upload(r_idx, "copartition_join.r_idx"),
            s_idx: dev.upload(s_idx, "copartition_join.s_idx"),
        },
        cost,
    )
}

/// A global hash table in device memory — the core of the non-partitioned
/// hash join (cuDF baseline). Every insert and probe chases random slots in
/// global memory; the simulator routes those accesses through the L2 model,
/// so small tables are cheap and large ones pay the paper's random-access
/// tax (Section 5.2.2: "cuDF is the most inefficient of all because of the
/// random accesses during the construction and probing of the hash table").
pub struct GlobalHashTable<K: Element> {
    keys: DeviceBuffer<u64>,
    vals: DeviceBuffer<u32>,
    occupied: Vec<bool>,
    mask: usize,
    _marker: std::marker::PhantomData<K>,
}

impl<K: Element + Eq> GlobalHashTable<K> {
    /// Allocate a table able to hold `n` entries at ≤50% load factor.
    pub fn new(dev: &Device, n: usize) -> Self {
        let slots = (n.max(1) * 2).next_power_of_two();
        GlobalHashTable {
            keys: dev.alloc::<u64>(slots, "global_ht.keys"),
            vals: dev.alloc::<u32>(slots, "global_ht.vals"),
            occupied: vec![false; slots],
            mask: slots - 1,
            _marker: std::marker::PhantomData,
        }
    }

    /// Build the table from `build_keys`, storing each key's position.
    pub fn build(&mut self, dev: &Device, build_keys: &DeviceBuffer<K>) {
        let mask = self.mask;
        let slot_addr = self.keys.addr_of(0);
        let (keys, vals) = (self.keys.as_mut_slice(), self.vals.as_mut_slice());
        let occupied = &mut self.occupied;
        dev.kernel("global_ht.build")
            .items(build_keys.len() as u64, GLOBAL_HASH_WARP_INSTR)
            .seq_read_bytes(build_keys.len() as u64 * K::SIZE)
            // The insert loop is the address stream: every slot an insert
            // inspects is one lane of the store charge.
            .warp_stores_with(12, |lanes| {
                for (i, bk) in build_keys.iter().enumerate() {
                    let k = bk.to_radix();
                    let mut s = slot_of(k, mask);
                    loop {
                        lanes.push(slot_addr + s as u64 * 8);
                        if !occupied[s] {
                            occupied[s] = true;
                            keys[s] = k;
                            vals[s] = i as u32;
                            break;
                        }
                        s = (s + 1) & mask;
                    }
                }
            })
            .launch();
    }

    /// Probe with `probe_keys`; returns matches in probe order (`s_idx`
    /// clustered, `r_idx` random — which is why the NPHJ's materialization
    /// of the build side stays expensive).
    pub fn probe(&self, dev: &Device, probe_keys: &DeviceBuffer<K>) -> MatchResult<K> {
        let mut keys = Vec::new();
        let mut r_idx = Vec::new();
        let mut s_idx = Vec::new();
        let mask = self.mask;
        let (table_keys, vals) = (self.keys.as_slice(), self.vals.as_slice());
        let kernel = dev
            .kernel("global_ht.probe")
            .items(probe_keys.len() as u64, GLOBAL_HASH_WARP_INSTR)
            .seq_read_bytes(probe_keys.len() as u64 * K::SIZE)
            // As in `build`, the probe loop streams the inspected slots.
            .warp_loads_with(12, |lanes| {
                for (j, &pk) in probe_keys.iter().enumerate() {
                    let k = pk.to_radix();
                    let mut s = slot_of(k, mask);
                    loop {
                        lanes.push(self.keys.addr_of(s));
                        if !self.occupied[s] {
                            break;
                        }
                        if table_keys[s] == k {
                            keys.push(pk);
                            r_idx.push(vals[s]);
                            s_idx.push(j as u32);
                        }
                        s = (s + 1) & mask;
                    }
                }
            });
        let out_rows = keys.len() as u64;
        kernel
            .seq_write_bytes(out_rows * (K::SIZE + 4 + 4))
            .launch();
        MatchResult {
            keys: dev.upload(keys, "global_ht.out_keys"),
            r_idx: dev.upload(r_idx, "global_ht.out_r_idx"),
            s_idx: dev.upload(s_idx, "global_ht.out_s_idx"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix_partition;
    use sim::Device;

    #[test]
    fn copartition_join_matches_oracle() {
        let dev = Device::a100();
        let r: Vec<i32> = (0..1000).collect();
        let s: Vec<i32> = (0..2000).map(|i| (i * 7) % 1500).collect();
        let rk = dev.upload(r.clone(), "r");
        let rv = dev.upload((0..r.len() as u32).collect::<Vec<_>>(), "rv");
        let sk = dev.upload(s.clone(), "s");
        let sv = dev.upload((0..s.len() as u32).collect::<Vec<_>>(), "sv");
        let rp = radix_partition(&dev, &rk, &rv, 4);
        let sp = radix_partition(&dev, &sk, &sv, 4);
        let (m, _) = join_copartitions(&dev, &rp.keys, &rp.offsets, &sp.keys, &sp.offsets);

        let expected: usize = s.iter().filter(|&&v| (0..1000).contains(&v)).count();
        assert_eq!(m.len(), expected);
        for i in 0..m.len() {
            assert_eq!(rp.keys[m.r_idx[i] as usize], m.keys[i]);
            assert_eq!(sp.keys[m.s_idx[i] as usize], m.keys[i]);
        }
        // Probe side clustered.
        assert!(m.s_idx.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn copartition_join_handles_duplicates_on_both_sides() {
        let dev = Device::a100();
        let rk = dev.upload(vec![4i32, 4, 8], "r");
        let rv = dev.upload(vec![0u32, 1, 2], "rv");
        let sk = dev.upload(vec![4i32, 8, 4], "s");
        let sv = dev.upload(vec![0u32, 1, 2], "sv");
        let rp = radix_partition(&dev, &rk, &rv, 2);
        let sp = radix_partition(&dev, &sk, &sv, 2);
        let (m, _) = join_copartitions(&dev, &rp.keys, &rp.offsets, &sp.keys, &sp.offsets);
        // key 4: 2 (R) × 2 (S) + key 8: 1 × 1.
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn oversized_build_partition_falls_back_to_chunks() {
        let mut cfg = sim::DeviceConfig::a100();
        cfg.shared_mem_bytes = 1 << 10; // tiny: 64-tuple chunks
        let dev = Device::new(cfg);
        let n = 1000i32;
        let rk = dev.upload((0..n).collect::<Vec<_>>(), "r");
        let rv = dev.upload((0..n as u32).collect::<Vec<_>>(), "rv");
        let sk = dev.upload((0..n).collect::<Vec<_>>(), "s");
        let sv = dev.upload((0..n as u32).collect::<Vec<_>>(), "sv");
        // Single partition => build side far larger than shared memory.
        let rp = radix_partition(&dev, &rk, &rv, 0);
        let sp = radix_partition(&dev, &sk, &sv, 0);
        let (m, cost) = join_copartitions(&dev, &rp.keys, &rp.offsets, &sp.keys, &sp.offsets);
        assert_eq!(m.len(), n as usize);
        assert!(cost.max_build_chunks > 1);
        assert!(cost.probe_rereads > 0);
    }

    #[test]
    fn global_table_build_probe_roundtrip() {
        let dev = Device::a100();
        let build = dev.upload((0..512i32).map(|i| i * 2).collect::<Vec<_>>(), "b");
        let probe = dev.upload((0..512i32).collect::<Vec<_>>(), "p");
        let mut ht = GlobalHashTable::new(&dev, build.len());
        ht.build(&dev, &build);
        let m = ht.probe(&dev, &probe);
        assert_eq!(m.len(), 256); // even numbers only
        for i in 0..m.len() {
            assert_eq!(build[m.r_idx[i] as usize], m.keys[i]);
            assert_eq!(probe[m.s_idx[i] as usize], m.keys[i]);
        }
        assert!(m.s_idx.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn global_table_random_access_is_charged() {
        let dev = Device::a100();
        // Large table (footprint >> L2) with shuffled keys: probes must
        // touch many sectors.
        let n = 1 << 21;
        let keys: Vec<i32> = (0..n)
            .map(|i| (i * 2654435761u64 as i64 % n) as i32)
            .collect();
        let build = dev.upload(keys, "b");
        let mut ht = GlobalHashTable::new(&dev, build.len());
        dev.reset_stats();
        ht.build(&dev, &build);
        let c = dev.counters();
        assert!(
            c.sectors_per_request() > 8.0,
            "spr={}",
            c.sectors_per_request()
        );
    }

    #[test]
    fn global_table_handles_duplicate_build_keys() {
        let dev = Device::a100();
        let build = dev.upload(vec![7i32, 7, 9], "b");
        let probe = dev.upload(vec![7i32], "p");
        let mut ht = GlobalHashTable::new(&dev, 3);
        ht.build(&dev, &build);
        let m = ht.probe(&dev, &probe);
        assert_eq!(m.len(), 2);
    }
}
