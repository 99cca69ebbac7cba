//! Kernel launch accounting: the cost model.
//!
//! A kernel's simulated time is `max(compute, memory) + atomic_serialization
//! + launch_overhead`:
//!
//! * compute = warp instructions / chip-wide issue rate;
//! * memory = DRAM traffic / effective bandwidth, where gather-style traffic
//!   is counted in *sectors actually touched per warp* and poorly coalesced
//!   sectors pay a latency-bound penalty (see [`crate::DeviceConfig`]);
//! * atomic serialization = the hottest contended address's update count
//!   times the per-update serialization cost — the bucket-chain partitioner's
//!   skew pathology (Figure 14 of the paper).
//!
//! The calibration is validated against Table 4 of the paper in
//! `tests/calibration.rs` of the `primitives` crate.

use crate::trace::{KernelEvent, TraceEvent};
use crate::{Counters, Device, L2Cache, SimTime, SECTOR_BYTES, WARP_SIZE};

/// Warps per block in the parallel warp-traffic path: addresses are
/// materialized block-wise (1 Mi addresses, 8 MiB of sector ids) so memory
/// stays bounded on arbitrarily long streams.
const PAR_BLOCK_WARPS: usize = 1 << 15;

/// Below this many warps per thread a block is charged sequentially — the
/// scoped-thread spawn cost would dominate. The outcome is identical either
/// way; this is purely a latency cutoff.
const PAR_MIN_WARPS_PER_THREAD: usize = 32;

/// Builder describing one kernel launch. Obtain via [`Device::kernel`],
/// charge work to it, then call [`KernelBuilder::launch`].
#[must_use = "a kernel builder does nothing until launch() is called"]
pub struct KernelBuilder<'d> {
    dev: &'d Device,
    name: &'static str,
    /// The launch's counter record, accumulated as work is charged;
    /// `launch` stamps its launch count and cycles.
    c: Counters,
    /// Perfectly coalesced streaming bytes, read and written.
    seq_bytes: u64,
    /// Gather DRAM bytes after the per-request coalescing penalty.
    penalized_gather_bytes: f64,
    atomics_hottest: u64,
}

impl<'d> KernelBuilder<'d> {
    pub(crate) fn new(dev: &'d Device, name: &'static str) -> Self {
        KernelBuilder {
            dev,
            name,
            c: Counters::default(),
            seq_bytes: 0,
            penalized_gather_bytes: 0.0,
            atomics_hottest: 0,
        }
    }

    /// Charge instruction work for `n` data items, `warp_instr` warp
    /// instructions per warp of 32 items. The paper's gather kernel issues
    /// ~18.5 warp instructions per warp (Table 4: 77.6M for 2^27 items).
    pub fn items(mut self, n: u64, warp_instr: f64) -> Self {
        let warps = n.div_ceil(WARP_SIZE as u64);
        self.c.warp_instructions += (warps as f64 * warp_instr).round() as u64;
        self
    }

    /// Charge perfectly coalesced streaming reads.
    pub fn seq_read_bytes(mut self, bytes: u64) -> Self {
        self.c.dram_read_bytes += bytes;
        self.seq_bytes += bytes;
        self
    }

    /// Charge perfectly coalesced streaming writes.
    pub fn seq_write_bytes(mut self, bytes: u64) -> Self {
        self.c.dram_write_bytes += bytes;
        self.seq_bytes += bytes;
        self
    }

    /// Charge warp-level loads of `elem_size`-byte values at the given
    /// simulated addresses, 32 lanes per request. Addresses are deduplicated
    /// to 32-byte sectors per request (coalescing), filtered through the L2
    /// model, and the surviving DRAM sectors pay the uncoalesced penalty
    /// proportional to how far the request is from its ideal sector count.
    ///
    /// With `host_threads > 1` (see [`crate::DeviceConfig::host_threads`])
    /// the accounting fans out across host cores: sector dedup and penalty
    /// math run per thread on warp-aligned chunks without the device lock,
    /// and the L2 is probed through disjoint set shards, which makes the
    /// resulting counters, times and hit/miss outcomes bit-identical to the
    /// sequential reference path.
    pub fn warp_loads<I>(self, elem_size: u64, addrs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let threads = self.dev.inner.config.host_threads.max(1);
        if threads == 1 {
            self.warp_loads_seq(elem_size, addrs)
        } else {
            self.warp_loads_par(elem_size, addrs, threads)
        }
    }

    /// The sequential reference implementation: streams addresses one at a
    /// time under the device lock, exactly as shipped originally.
    fn warp_loads_seq<I>(mut self, elem_size: u64, addrs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let ideal = (elem_size * WARP_SIZE as u64).div_ceil(SECTOR_BYTES).max(1) as f64;
        let penalty = self.dev.inner.config.uncoalesced_penalty;
        let query = self.dev.query;
        let mut st = self.dev.inner.state.lock();
        let l2 = &mut st.scope(query).l2;
        let mut lane_sectors = [u64::MAX; WARP_SIZE];
        let mut lanes = 0usize;
        let mut iter = addrs.into_iter();
        loop {
            let addr = iter.next();
            if let Some(a) = addr {
                // A lane may touch two sectors if the element straddles a
                // boundary; element sizes here are 4/8 bytes and buffers are
                // 256-byte aligned, so one sector suffices.
                lane_sectors[lanes] = a / SECTOR_BYTES;
                lanes += 1;
            }
            if lanes == WARP_SIZE || (addr.is_none() && lanes > 0) {
                // One warp request: dedupe sectors, probe L2.
                let warp = &mut lane_sectors[..lanes];
                warp.sort_unstable();
                let mut distinct = 0u64;
                let mut dram = 0u64;
                let mut prev = u64::MAX;
                for &s in warp.iter() {
                    if s != prev {
                        distinct += 1;
                        if !l2.access(s) {
                            dram += 1;
                        }
                        prev = s;
                    }
                }
                self.charge_warp(distinct, dram, ideal, penalty);
                lanes = 0;
            }
            if addr.is_none() {
                break;
            }
        }
        self
    }

    /// Fold one warp request's outcome into the builder. Shared by both
    /// paths; the parallel path calls it in warp order, so the f64 penalty
    /// accumulation happens in the exact sequence the reference path uses.
    #[inline]
    fn charge_warp(&mut self, distinct: u64, dram: u64, ideal: f64, penalty: f64) {
        self.c.load_requests += 1;
        self.c.sectors_requested += distinct;
        self.c.l2_hits += distinct - dram;
        self.c.l2_misses += dram;
        self.c.dram_read_bytes += dram * SECTOR_BYTES;
        // Latency-bound penalty per *excess* sector, in units of a
        // fully coalesced 4-byte request (4 sectors). Crucially this
        // depends on how scattered the request is, not on the
        // element width — the paper observes that unclustered 4-byte
        // and 8-byte gathers cost about the same, since both touch
        // ~32 sectors per warp (Section 5.2.5).
        let spr = distinct as f64;
        let factor = 1.0 + penalty * ((spr - ideal).max(0.0) / 4.0);
        self.penalized_gather_bytes += dram as f64 * SECTOR_BYTES as f64 * factor;
    }

    /// The parallel path: materialize warp-aligned blocks of sector ids
    /// outside the device lock, then charge each block with `threads`
    /// workers. See `charge_block` for the determinism argument.
    fn warp_loads_par<I>(mut self, elem_size: u64, addrs: I, threads: usize) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let ideal = (elem_size * WARP_SIZE as u64).div_ceil(SECTOR_BYTES).max(1) as f64;
        let penalty = self.dev.inner.config.uncoalesced_penalty;
        let query = self.dev.query;
        let block_lanes = PAR_BLOCK_WARPS * WARP_SIZE;
        let mut iter = addrs.into_iter();
        let mut sectors: Vec<u64> = Vec::with_capacity(block_lanes.min(1 << 16));
        loop {
            // Collect the next block without holding the lock — the address
            // iterator (often a closure over buffer contents) runs here.
            sectors.clear();
            while sectors.len() < block_lanes {
                match iter.next() {
                    Some(a) => sectors.push(a / SECTOR_BYTES),
                    None => break,
                }
            }
            if sectors.is_empty() {
                break;
            }
            let exhausted = sectors.len() < block_lanes;
            let mut st = self.dev.inner.state.lock();
            self.charge_block(&mut st.scope(query).l2, &sectors, threads, ideal, penalty);
            drop(st);
            if exhausted {
                break;
            }
        }
        self
    }

    /// Charge one warp-aligned block of sector ids using up to `threads`
    /// workers.
    ///
    /// Phase A (parallel, lock-free): workers own contiguous warp ranges;
    /// each warp is sorted and deduplicated locally, its distinct count
    /// recorded, and every distinct sector routed to the bucket of the L2
    /// shard owning its set — in (warp, ascending-sector) order.
    ///
    /// Phase B (parallel, under the caller's lock): each L2 shard owns a
    /// disjoint contiguous range of direct-mapped sets. A set's accesses
    /// all live in one shard, and the shard replays them in the original
    /// warp order (worker buckets visited in worker order = warp order;
    /// in-warp order is ascending, as in the sequential dedup loop), so
    /// every probe sees exactly the tag state it would have seen
    /// sequentially — hit/miss outcomes are bit-identical.
    ///
    /// Phase C (sequential): per-warp partials are folded into the builder
    /// in warp order, reproducing the reference f64 summation order.
    fn charge_block(
        &mut self,
        l2: &mut L2Cache,
        sectors: &[u64],
        threads: usize,
        ideal: f64,
        penalty: f64,
    ) {
        let warps = sectors.len().div_ceil(WARP_SIZE);
        if warps < PAR_MIN_WARPS_PER_THREAD * threads {
            self.charge_block_seq(l2, sectors, ideal, penalty);
            return;
        }
        let mask = l2.set_mask();
        let (chunk, mut shards) = l2.shards(threads);
        let n_shards = shards.len();
        let warps_per_worker = warps.div_ceil(threads);
        let mut distinct = vec![0u32; warps];

        // Phase A: per-warp dedup, bucketed by owning shard.
        let buckets: Vec<Vec<Vec<(u32, u64)>>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = sectors
                .chunks(warps_per_worker * WARP_SIZE)
                .zip(distinct.chunks_mut(warps_per_worker))
                .enumerate()
                .map(|(worker, (worker_sectors, worker_distinct))| {
                    scope.spawn(move |_| {
                        let base_warp = (worker * warps_per_worker) as u32;
                        let mut local: Vec<Vec<(u32, u64)>> =
                            (0..n_shards).map(|_| Vec::new()).collect();
                        let mut lane_sectors = [0u64; WARP_SIZE];
                        for (i, warp) in worker_sectors.chunks(WARP_SIZE).enumerate() {
                            let w = &mut lane_sectors[..warp.len()];
                            w.copy_from_slice(warp);
                            w.sort_unstable();
                            let mut d = 0u32;
                            let mut prev = u64::MAX;
                            for &s in w.iter() {
                                if s != prev {
                                    d += 1;
                                    let set = (s & mask) as usize;
                                    local[set / chunk].push((base_warp + i as u32, s));
                                    prev = s;
                                }
                            }
                            worker_distinct[i] = d;
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();

        // Phase B: disjoint-set L2 probing, one worker per shard.
        let dram_per_shard: Vec<Vec<u32>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .enumerate()
                .map(|(sid, shard)| {
                    let buckets = &buckets;
                    scope.spawn(move |_| {
                        let mut dram = vec![0u32; warps];
                        for worker_buckets in buckets {
                            for &(w, s) in &worker_buckets[sid] {
                                let set = (s & mask) as usize;
                                if !shard.access(s, set) {
                                    dram[w as usize] += 1;
                                }
                            }
                        }
                        dram
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();

        // Phase C: fold per-warp partials in warp order.
        for (w, &d) in distinct.iter().enumerate() {
            let dram: u64 = dram_per_shard.iter().map(|v| u64::from(v[w])).sum();
            self.charge_warp(u64::from(d), dram, ideal, penalty);
        }
    }

    /// Reference charging of an already-materialized block, used when the
    /// block is too small to be worth fanning out.
    fn charge_block_seq(&mut self, l2: &mut L2Cache, sectors: &[u64], ideal: f64, penalty: f64) {
        let mut lane_sectors = [0u64; WARP_SIZE];
        for warp in sectors.chunks(WARP_SIZE) {
            let w = &mut lane_sectors[..warp.len()];
            w.copy_from_slice(warp);
            w.sort_unstable();
            let mut distinct = 0u64;
            let mut dram = 0u64;
            let mut prev = u64::MAX;
            for &s in w.iter() {
                if s != prev {
                    distinct += 1;
                    if !l2.access(s) {
                        dram += 1;
                    }
                    prev = s;
                }
            }
            self.charge_warp(distinct, dram, ideal, penalty);
        }
    }

    /// Charge warp-level *stores* at the given addresses. Stores follow the
    /// same coalescing and penalty rules as loads; a DRAM-missing sector
    /// additionally costs a read-modify-write (the write is narrower than a
    /// sector), i.e. double traffic.
    pub fn warp_stores<I>(mut self, elem_size: u64, addrs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let before = self.c.l2_misses;
        self = self.warp_loads(elem_size, addrs);
        let new_dram = self.c.l2_misses - before;
        // RMW: each missing sector is both fetched and written back; the
        // write-back half is charged to DRAM writes as well as to time.
        self.c.dram_write_bytes += new_dram * SECTOR_BYTES;
        self.penalized_gather_bytes += (new_dram * SECTOR_BYTES) as f64;
        self
    }

    /// Charge `total` global atomic updates of which the hottest single
    /// address receives `hottest`. The hottest address serializes.
    pub fn atomics(mut self, total: u64, hottest: u64) -> Self {
        self.c.atomics += total;
        self.atomics_hottest = self.atomics_hottest.max(hottest);
        let instr = self.dev.inner.config.atomic_instr_cost;
        self.c.warp_instructions += (total as f64 * instr / WARP_SIZE as f64).ceil() as u64;
        self
    }

    /// Launch: convert the accounted work into simulated time, advance the
    /// device clock and counters, and return the kernel's duration.
    ///
    /// On a query handle the launch first passes the scheduling turn gate
    /// (blocking until the session's policy designates this query), then
    /// charges the work twice: to the query's private counters, clock and
    /// trace, and to the device-wide aggregates (whose trace tags the event
    /// with the query id, yielding the multi-tenant timeline).
    pub fn launch(self) -> SimTime {
        let cfg = &self.dev.inner.config;
        let t_comp = self.c.warp_instructions as f64 / cfg.issue_rate();
        let t_mem = (self.seq_bytes as f64 + self.penalized_gather_bytes)
            / cfg.effective_bandwidth()
            + (self.c.l2_hits * SECTOR_BYTES) as f64 / cfg.l2_bandwidth();
        let t_atomic = self.atomics_hottest as f64 * cfg.atomic_serialize_cycles / cfg.clock_hz;
        let t = t_comp.max(t_mem) + t_atomic + cfg.kernel_launch_overhead;

        // Planning-scope launches (the planner's statistics samplers, see
        // `Device::with_planning`) charge nothing — no clock, counters,
        // trace, metrics or scheduling turn. They model work a cached plan
        // skips, so a recorded (cold) run and its cached replay must
        // observe identical bytes on every clock. Safe because sampling
        // kernels stream charges only (no `warp_loads`): they never mutate
        // the shared L2 image or the memory ledger.
        if crate::planning_active() {
            return SimTime::from_secs(t);
        }

        // The one per-launch record every view — counters, trace, metrics
        // — is folded from.
        let delta = Counters {
            kernel_launches: 1,
            cycles: t * cfg.clock_hz,
            ..self.c
        };
        let (name, query) = (self.name, self.dev.query);
        let gated = query.is_some_and(|qid| self.dev.acquire_turn(qid));

        let mut st = self.dev.inner.state.lock();
        for scope in std::iter::once(None).chain(query.map(Some)) {
            let s = st.scope(scope);
            let start = s.clock;
            s.clock += t;
            s.counters += &delta;
            st.record(scope, |tr| {
                tr.push(TraceEvent::Kernel(KernelEvent {
                    name,
                    start,
                    dur: t,
                    query,
                    counters: delta.clone(),
                }))
            });
        }
        let clock_after = st.base.clock;
        if let Some(m) = st.metrics.as_deref_mut() {
            m.on_kernel(clock_after, query, t, &delta);
        }
        drop(st);
        if gated {
            self.dev.complete_turn(query.unwrap(), t);
        }
        SimTime::from_secs(t)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Device, SECTOR_BYTES};

    #[test]
    fn streaming_kernel_is_bandwidth_bound() {
        let dev = Device::a100();
        let bytes = 1u64 << 30;
        let t = dev
            .kernel("stream")
            .items(bytes / 4, 4.0)
            .seq_read_bytes(bytes)
            .seq_write_bytes(bytes)
            .launch();
        let expected = 2.0 * bytes as f64 / dev.config().effective_bandwidth();
        assert!(
            (t.secs() - expected).abs() / expected < 0.05,
            "t={} expected~{expected}",
            t.secs()
        );
    }

    #[test]
    fn coalesced_loads_touch_ideal_sectors() {
        let dev = Device::a100();
        let buf = dev.alloc::<i32>(1 << 16, "x");
        dev.kernel("coalesced")
            .warp_loads(4, (0..buf.len()).map(|i| buf.addr_of(i)))
            .launch();
        let c = dev.counters();
        // 32 consecutive 4-byte lanes span exactly 4 sectors.
        assert_eq!(c.load_requests, (1 << 16) / 32);
        assert!((c.sectors_per_request() - 4.0).abs() < 0.25);
    }

    #[test]
    fn strided_loads_touch_many_sectors_and_cost_more() {
        let dev = Device::a100();
        // Large enough that memory traffic dwarfs the fixed launch overhead
        // and the strided footprint (64 MB) exceeds the 40 MB L2.
        let n = 1usize << 20;
        let buf = dev.alloc::<i32>(n * 16, "x");
        let t_seq = dev
            .kernel("seq")
            .warp_loads(4, (0..n).map(|i| buf.addr_of(i)))
            .launch();
        dev.reset_stats();
        let t_strided = dev
            .kernel("strided")
            .warp_loads(4, (0..n).map(|i| buf.addr_of(i * 16)))
            .launch();
        let c = dev.counters();
        assert!(c.sectors_per_request() > 16.0);
        assert!(t_strided.secs() > 4.0 * t_seq.secs());
    }

    #[test]
    fn l2_absorbs_repeated_random_access_to_small_region() {
        let dev = Device::a100();
        let n = 1usize << 14; // 64 KiB region, far below 40 MB L2
        let buf = dev.alloc::<i32>(n, "small");
        // Pseudo-random permutation touches every element twice.
        let addrs = |round: usize| {
            let buf = &buf;
            (0..n).map(move |i| buf.addr_of((i * 769 + round * 13) % n))
        };
        dev.kernel("warmup").warp_loads(4, addrs(0)).launch();
        let before = dev.counters();
        dev.kernel("hot").warp_loads(4, addrs(1)).launch();
        let d = dev.counters().delta_since(&before);
        assert!(
            d.l2_hit_rate() > 0.95,
            "expected hot region to hit in L2, got {}",
            d.l2_hit_rate()
        );
    }

    #[test]
    fn atomic_hotspot_serializes() {
        let dev = Device::a100();
        let n = 1u64 << 22;
        // All updates to one address.
        let t_hot = dev.kernel("hot").atomics(n, n).launch();
        // Updates spread over many addresses.
        let t_spread = dev.kernel("spread").atomics(n, n / 4096).launch();
        assert!(t_hot.secs() > 10.0 * t_spread.secs());
        assert_eq!(dev.counters().atomics, 2 * n);
    }

    #[test]
    fn stores_pay_rmw_traffic() {
        let dev = Device::a100();
        let n = 1usize << 14;
        let buf = dev.alloc::<i32>(n * 64, "x");
        let t_load = dev
            .kernel("l")
            .warp_loads(4, (0..n).map(|i| buf.addr_of(i * 64)))
            .launch();
        let read_only = dev.counters();
        assert_eq!(
            read_only.dram_write_bytes, 0,
            "loads must not charge DRAM writes"
        );
        dev.reset_stats();
        dev.flush_l2();
        let t_store = dev
            .kernel("s")
            .warp_stores(4, (0..n).map(|i| buf.addr_of(i * 64)))
            .launch();
        assert!(t_store.secs() > t_load.secs());
        // The RMW write-back must show up in the write counter, one sector
        // per DRAM-missing store sector.
        let c = dev.counters();
        assert!(c.dram_write_bytes > 0, "RMW write-back missing from writes");
        assert_eq!(c.dram_write_bytes, c.l2_misses * SECTOR_BYTES);
    }

    #[test]
    fn parallel_path_is_bit_identical_to_sequential() {
        // A mixed stream: strided (uncoalesced), sequential, and a
        // conflict-heavy modulus pattern, over enough warps to engage the
        // parallel path. Counters, simulated time and clock must match the
        // host_threads=1 reference exactly.
        let run = |threads: usize| {
            let dev = Device::new(crate::DeviceConfig::a100().with_host_threads(threads));
            let n = 1usize << 16;
            let buf = dev.alloc::<i32>(n * 16, "x");
            let t1 = dev
                .kernel("mixed")
                .warp_loads(4, (0..n).map(|i| buf.addr_of(i * 16)))
                .warp_loads(4, (0..n).map(|i| buf.addr_of(i)))
                .warp_stores(8, (0..n).map(|i| buf.addr_of((i * 769) % (n * 16))))
                .launch();
            let t2 = dev
                .kernel("tail")
                .warp_loads(4, (0..40).map(|i| buf.addr_of(i)))
                .launch();
            (dev.counters(), t1, t2, dev.elapsed())
        };
        let reference = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run(threads), reference, "host_threads={threads}");
        }
    }

    #[test]
    fn partial_final_warp_counts_one_request() {
        let dev = Device::a100();
        let buf = dev.alloc::<i32>(40, "x");
        dev.kernel("tail")
            .warp_loads(4, (0..40).map(|i| buf.addr_of(i)))
            .launch();
        assert_eq!(dev.counters().load_requests, 2);
        let _ = SECTOR_BYTES;
    }
}
