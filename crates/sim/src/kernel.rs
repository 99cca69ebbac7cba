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

use crate::trace::KernelEvent;
use crate::{Counters, Device, L2Cache, SimTime, SECTOR_BYTES, WARP_SIZE};

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
    /// The address iterator runs while the device state lock is held, so
    /// it must not call back into the [`Device`] (allocate, launch, read
    /// counters, ...): that would deadlock.
    pub fn warp_loads<I>(mut self, elem_size: u64, addrs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let warp = WarpCost::new(self.dev, elem_size);
        let query = self.dev.query;
        let mut st = self.dev.inner.state.lock();
        let l2 = &mut st.scope(query).l2;
        let mut lane_sectors = [u64::MAX; WARP_SIZE];
        let mut lanes = 0usize;
        for a in addrs {
            // A lane may touch two sectors if the element straddles a
            // boundary; element sizes here are 4/8 bytes and buffers are
            // 256-byte aligned, so one sector suffices.
            lane_sectors[lanes] = a / SECTOR_BYTES;
            lanes += 1;
            if lanes == WARP_SIZE {
                warp.charge(l2, &mut self, &mut lane_sectors);
                lanes = 0;
            }
        }
        if lanes > 0 {
            warp.charge(l2, &mut self, &mut lane_sectors[..lanes]);
        }
        drop(st);
        self
    }

    /// [`warp_loads`](Self::warp_loads) fed by a loop instead of an
    /// iterator: `feed` pushes one address per lane into [`WarpLanes`], so
    /// a probe loop can charge the slots it inspects as it runs, without
    /// staging them. The same lock rule applies to `feed`. (`warp_loads`
    /// keeps its own lane loop: routing an iterator through `WarpLanes`
    /// made a clustered gather's charging ≈35% slower.)
    pub fn warp_loads_with(
        mut self,
        elem_size: u64,
        feed: impl FnOnce(&mut WarpLanes<'_, 'd>),
    ) -> Self {
        let query = self.dev.query;
        let mut st = self.dev.inner.state.lock();
        let mut lanes = WarpLanes {
            warp: WarpCost::new(self.dev, elem_size),
            l2: &mut st.scope(query).l2,
            kernel: &mut self,
            sectors: [u64::MAX; WARP_SIZE],
            len: 0,
        };
        feed(&mut lanes);
        if lanes.len > 0 {
            let len = lanes.len;
            lanes
                .warp
                .charge(lanes.l2, lanes.kernel, &mut lanes.sectors[..len]);
        }
        drop(st);
        self
    }

    /// Charge warp-level *stores* at the given addresses. Stores follow the
    /// same coalescing and penalty rules as loads; a DRAM-missing sector
    /// additionally costs a read-modify-write (the write is narrower than a
    /// sector), i.e. double traffic.
    pub fn warp_stores<I>(self, elem_size: u64, addrs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let misses = self.c.l2_misses;
        self.warp_loads(elem_size, addrs).write_back(misses)
    }

    /// [`warp_stores`](Self::warp_stores) fed by a loop; see
    /// [`warp_loads_with`](Self::warp_loads_with).
    pub fn warp_stores_with(
        self,
        elem_size: u64,
        feed: impl FnOnce(&mut WarpLanes<'_, 'd>),
    ) -> Self {
        let misses = self.c.l2_misses;
        self.warp_loads_with(elem_size, feed).write_back(misses)
    }

    /// The read-modify-write half of a store: each sector that missed L2
    /// since `misses_before` is both fetched and written back, so the
    /// write-back is charged to DRAM writes as well as to time.
    fn write_back(mut self, misses_before: u64) -> Self {
        let new_dram = self.c.l2_misses - misses_before;
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
    /// On a query handle the launch charges the query's private counters,
    /// clock and trace. During a scheduling session it also appends the
    /// kernel's record to the query's log, which [`Device::sched_run`]
    /// folds into the device-wide aggregates in policy order (the base
    /// trace tags the event with the query id, yielding the multi-tenant
    /// timeline); outside a session it folds the record in at once.
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
        // — is folded from; `start` is stamped per scope as it is charged.
        let k = KernelEvent {
            name: self.name,
            start: 0.0,
            dur: t,
            query: self.dev.query,
            counters: Counters {
                kernel_launches: 1,
                cycles: t * cfg.clock_hz,
                ..self.c
            },
        };
        let mut st = self.dev.inner.state.lock();
        match k.query {
            Some(q) if st.sched.active() => {
                st.charge(Some(q), &k);
                st.queries[q as usize].log.push_back(k);
            }
            Some(q) => {
                st.charge(Some(q), &k);
                st.fold(&k);
            }
            None => {
                st.fold(&k);
            }
        }
        SimTime::from_secs(t)
    }
}

/// The lane sink of [`KernelBuilder::warp_loads_with`]: every
/// [`push`](WarpLanes::push) is one lane's address, and each 32 lanes form
/// one warp request (a final partial warp is one request too).
pub struct WarpLanes<'k, 'd> {
    warp: WarpCost,
    l2: &'k mut L2Cache,
    kernel: &'k mut KernelBuilder<'d>,
    sectors: [u64; WARP_SIZE],
    len: usize,
}

impl WarpLanes<'_, '_> {
    /// Charge one lane loading the element at simulated address `addr`.
    #[inline]
    pub fn push(&mut self, addr: u64) {
        self.sectors[self.len] = addr / SECTOR_BYTES;
        self.len += 1;
        if self.len == WARP_SIZE {
            self.warp.charge(self.l2, self.kernel, &mut self.sectors);
            self.len = 0;
        }
    }
}

/// The per-request constants of one `warp_loads` call.
#[derive(Clone, Copy)]
struct WarpCost {
    /// Sectors a perfectly coalesced request of this element size touches.
    ideal: f64,
    penalty: f64,
}

impl WarpCost {
    fn new(dev: &Device, elem_size: u64) -> Self {
        WarpCost {
            ideal: (elem_size * WARP_SIZE as u64).div_ceil(SECTOR_BYTES).max(1) as f64,
            penalty: dev.inner.config.uncoalesced_penalty,
        }
    }

    /// Charge one warp request over its lanes' sectors: dedupe them, probe
    /// L2, and add the counters and the coalescing penalty to `k`.
    #[inline]
    fn charge(self, l2: &mut L2Cache, k: &mut KernelBuilder<'_>, warp: &mut [u64]) {
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
        k.c.load_requests += 1;
        k.c.sectors_requested += distinct;
        k.c.l2_hits += distinct - dram;
        k.c.l2_misses += dram;
        k.c.dram_read_bytes += dram * SECTOR_BYTES;
        // Latency-bound penalty per *excess* sector, in units of a fully
        // coalesced 4-byte request (4 sectors). Crucially this depends on
        // how scattered the request is, not on the element width — the
        // paper observes that unclustered 4-byte and 8-byte gathers cost
        // about the same, since both touch ~32 sectors per warp (Section
        // 5.2.5).
        let spr = distinct as f64;
        let factor = 1.0 + self.penalty * ((spr - self.ideal).max(0.0) / 4.0);
        k.penalized_gather_bytes += dram as f64 * SECTOR_BYTES as f64 * factor;
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
