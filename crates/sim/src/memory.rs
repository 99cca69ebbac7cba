//! Device-memory ledger and RAII buffers.
//!
//! Every intermediate a join or aggregation allocates goes through
//! [`DeviceBuffer`] (or, for memory nothing reads, a host-less
//! [`Reservation`]), so peak usage (Table 5 of the paper, and the analytic
//! model of Tables 1-2) falls out of the simulation for free. Buffers also
//! carry a fake, monotonically increasing base address so the L2 model can
//! distinguish sectors of different buffers.
//!
//! The host holds only the bytes the simulation reads: an alias shares its
//! source's host storage, and a reservation holds none.

use crate::{Device, Element};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// CUDA's `cudaMalloc` alignment.
const ALLOC_ALIGN: u64 = 256;

/// Snapshot of device-memory usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemReport {
    /// Bytes currently allocated.
    pub current_bytes: u64,
    /// High-water mark since creation or the last [`Device::reset_peak_mem`].
    pub peak_bytes: u64,
    /// Number of live allocations.
    pub live_allocations: u64,
}

/// Why a [`MemLedger::try_alloc`] could not be satisfied; the caller turns
/// this into the appropriate failure (device OOM panic or typed
/// [`crate::BudgetError`]).
pub(crate) struct AllocFailure {
    /// Requested bytes after alignment rounding.
    pub(crate) requested_bytes: u64,
    /// Bytes the ledger already had in use.
    pub(crate) in_use_bytes: u64,
}

#[derive(Default)]
pub(crate) struct MemLedger {
    next_addr: u64,
    current: u64,
    peak: u64,
    live: u64,
}

impl MemLedger {
    /// A ledger whose address space starts at `base` — per-query sub-ledgers
    /// all start at [`crate::QUERY_ADDR_BASE`], disjoint from the base
    /// ledger's low addresses but deliberately identical to each other.
    pub(crate) fn with_base(base: u64) -> Self {
        MemLedger {
            next_addr: base,
            ..MemLedger::default()
        }
    }

    /// Reserve `bytes` if they fit in `capacity`, returning the base
    /// address. A rejection leaves the ledger untouched (an unwound join
    /// must balance back to zero).
    pub(crate) fn try_alloc(&mut self, bytes: u64, capacity: u64) -> Result<u64, AllocFailure> {
        let rounded = bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        if self.current + rounded > capacity {
            return Err(AllocFailure {
                requested_bytes: rounded,
                in_use_bytes: self.current,
            });
        }
        // Mirror of free(): zero-byte allocations charge nothing and are
        // not counted live (their drop is a no-op), but still receive a
        // distinct address range.
        if rounded > 0 {
            self.current += rounded;
            self.live += 1;
            self.peak = self.peak.max(self.current);
        }
        let addr = self.next_addr;
        self.next_addr += rounded.max(ALLOC_ALIGN);
        Ok(addr)
    }

    pub(crate) fn free(&mut self, bytes: u64) {
        // Zero-charged drops (aliasing views, empty buffers) never entered
        // the ledger, so freeing them must not disturb the live count.
        if bytes == 0 {
            return;
        }
        let rounded = bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        self.current = self.current.saturating_sub(rounded);
        self.live = self.live.saturating_sub(1);
    }

    /// Rebase the watermark to the current usage; returns the old peak.
    pub(crate) fn reset_peak(&mut self) -> u64 {
        std::mem::replace(&mut self.peak, self.current)
    }

    /// Fold an enclosing bracket's watermark back in; returns the peak
    /// before folding.
    pub(crate) fn raise_peak(&mut self, floor: u64) -> u64 {
        let inner = self.peak;
        self.peak = inner.max(floor);
        inner
    }

    pub(crate) fn report(&self) -> MemReport {
        MemReport {
            current_bytes: self.current,
            peak_bytes: self.peak,
            live_allocations: self.live,
        }
    }
}

/// A charge against the device-memory ledger: a simulated address range
/// of `bytes`, credited back exactly once on drop. It holds no host storage
/// — the form for memory the simulation accounts for but never reads (the
/// joins' pre-allocated output, Section 5.2.6 of the paper). Obtain one
/// with [`Device::reserve`]; every [`DeviceBuffer`] carries one too.
pub struct Reservation {
    base_addr: u64,
    /// Bytes charged at construction (0 for an alias view); credited on drop.
    charged_bytes: u64,
    label: &'static str,
    dev: Device,
}

impl Reservation {
    pub(crate) fn new(dev: Device, bytes: u64, label: &'static str) -> Self {
        let mut st = dev.inner.state.lock();
        let capacity = match dev.query {
            Some(q) => st.queries[q as usize].budget_bytes,
            None => dev.inner.config.global_mem_bytes,
        };
        let base_addr = match st.scope(dev.query).mem.try_alloc(bytes, capacity) {
            Ok(addr) => addr,
            Err(f) => {
                drop(st);
                let Some(query) = dev.query else {
                    panic!(
                        "device out of memory allocating {bytes} bytes for '{label}': \
                         {} in use of {capacity} capacity",
                        f.in_use_bytes + f.requested_bytes
                    );
                };
                // A query allocation is capped at its reserved budget.
                // Exceeding it raises a *typed* panic (`sim::BudgetError`)
                // that a scheduler can catch and convert, leaving co-tenants
                // untouched — the base ledger and every other query's
                // sub-ledger never move. resume_unwind rather than
                // panic_any: budget overruns are typed control flow the
                // scheduler catches per tenant, not programmer errors — skip
                // the default panic hook's stderr noise.
                std::panic::resume_unwind(Box::new(crate::BudgetError {
                    query,
                    budget_bytes: capacity,
                    requested_bytes: f.requested_bytes,
                    in_use_bytes: f.in_use_bytes,
                    label: label.to_string(),
                }));
            }
        };
        st.on_mem(dev.query);
        drop(st);
        Reservation {
            base_addr,
            charged_bytes: bytes,
            label,
            dev,
        }
    }

    /// A second handle on the same address range that charges nothing.
    fn view(&self) -> Reservation {
        Reservation {
            base_addr: self.base_addr,
            charged_bytes: 0,
            label: self.label,
            dev: self.dev.clone(),
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        // Zero-charged drops (aliases, empty buffers) never moved the
        // ledger, so they produce no timeline sample either.
        if self.charged_bytes == 0 {
            return;
        }
        let mut st = self.dev.inner.state.lock();
        // A query buffer may legally outlive its scheduling session (the
        // next sched_start clears the per-query slots), in which case the
        // credit has nowhere to go and is dropped.
        if self
            .dev
            .query
            .is_some_and(|q| q as usize >= st.queries.len())
        {
            return;
        }
        st.scope(self.dev.query).mem.free(self.charged_bytes);
        st.on_mem(self.dev.query);
    }
}

/// A typed allocation in simulated device memory.
///
/// Dereferences to a slice for host-side algorithm execution; the memory
/// ledger is charged on construction and credited on drop. The buffer's
/// *simulated address* ([`DeviceBuffer::addr_of`]) feeds the coalescing and
/// L2 models.
///
/// Host storage is shared between a buffer and its aliases
/// ([`DeviceBuffer::alias`]) and copied on the first write through a handle
/// that shares it, so every handle stays independent. Reads cost two
/// pointer hops; hot loops bind [`DeviceBuffer::as_slice`] (or
/// [`DeviceBuffer::as_mut_slice`]) once rather than index the buffer.
pub struct DeviceBuffer<T: Element> {
    data: Arc<Vec<T>>,
    mem: Reservation,
}

impl<T: Element> DeviceBuffer<T> {
    pub(crate) fn from_vec(dev: Device, data: Vec<T>, label: &'static str) -> Self {
        let mem = Reservation::new(dev, data.len() as u64 * T::SIZE, label);
        DeviceBuffer {
            data: Arc::new(data),
            mem,
        }
    }

    pub(crate) fn zeroed(dev: Device, len: usize, label: &'static str) -> Self {
        Self::from_vec(dev, vec![T::default(); len], label)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes as charged to the ledger (before alignment rounding).
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64 * T::SIZE
    }

    /// Simulated device address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        self.mem.base_addr + i as u64 * T::SIZE
    }

    /// The label given at allocation time (for debugging OOMs).
    pub fn label(&self) -> &'static str {
        self.mem.label
    }

    /// The device this buffer lives on.
    pub fn device(&self) -> &Device {
        &self.mem.dev
    }

    /// View as a host slice (the simulator executes on the host).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable host view. Copies the host storage first if an alias
    /// shares it.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consume the buffer, returning the host vector (copied only if an
    /// alias still shares it). The ledger is credited as if the buffer
    /// were freed.
    pub fn into_vec(self) -> Vec<T> {
        Arc::unwrap_or_clone(self.data)
    }

    /// A zero-cost aliasing view: the same simulated address range and the
    /// same host storage, no additional ledger charge, no kernel traffic.
    /// This models passing a column pointer between operators. A write
    /// through either handle copies the host storage first, so the other
    /// handle's bytes never change.
    pub fn alias(&self) -> DeviceBuffer<T> {
        DeviceBuffer {
            data: Arc::clone(&self.data),
            mem: self.mem.view(),
        }
    }
}

impl<T: Element> std::ops::Deref for DeviceBuffer<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Element> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("label", &self.mem.label)
            .field("len", &self.data.len())
            .field("base_addr", &self.mem.base_addr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

    #[test]
    fn ledger_tracks_current_and_peak() {
        let dev = Device::a100();
        let a = dev.alloc::<i32>(1024, "a");
        let r1 = dev.mem_report();
        assert_eq!(r1.current_bytes, 4096);
        assert_eq!(r1.live_allocations, 1);
        {
            let _b = dev.alloc::<i64>(1024, "b");
            let r2 = dev.mem_report();
            assert_eq!(r2.current_bytes, 4096 + 8192);
            assert_eq!(r2.peak_bytes, 4096 + 8192);
        }
        let r3 = dev.mem_report();
        assert_eq!(r3.current_bytes, 4096);
        assert_eq!(r3.peak_bytes, 4096 + 8192, "peak survives frees");
        drop(a);
        assert_eq!(dev.mem_report().current_bytes, 0);
        assert_eq!(dev.mem_report().live_allocations, 0);
    }

    #[test]
    fn reset_peak_rebases_to_current() {
        let dev = Device::a100();
        {
            let _a = dev.alloc::<i64>(1 << 20, "a");
        }
        assert!(dev.mem_report().peak_bytes > 0);
        dev.reset_peak_mem();
        assert_eq!(dev.mem_report().peak_bytes, 0);
    }

    #[test]
    fn addresses_are_disjoint_and_typed() {
        let dev = Device::a100();
        let a = dev.alloc::<i32>(16, "a");
        let b = dev.alloc::<i64>(16, "b");
        assert_eq!(a.addr_of(1) - a.addr_of(0), 4);
        assert_eq!(b.addr_of(1) - b.addr_of(0), 8);
        // Buffers never overlap.
        assert!(a.addr_of(15) < b.addr_of(0) || b.addr_of(15) < a.addr_of(0));
    }

    #[test]
    fn alias_drop_leaves_ledger_untouched() {
        let dev = Device::a100();
        let a = dev.alloc::<i32>(1024, "a");
        let before = dev.mem_report();
        assert_eq!(before.live_allocations, 1);
        {
            let view = a.alias();
            // The alias shares the address range and charges nothing.
            assert_eq!(view.addr_of(0), a.addr_of(0));
            assert_eq!(dev.mem_report(), before);
        }
        // Regression: dropping the alias used to decrement live_allocations.
        assert_eq!(dev.mem_report(), before);
        drop(a);
        assert_eq!(dev.mem_report().live_allocations, 0);
        assert_eq!(dev.mem_report().current_bytes, 0);
    }

    #[test]
    fn alias_shares_host_storage_until_a_write() {
        let dev = Device::a100();
        let mut a = dev.upload(vec![1i32, 2, 3], "a");
        let mut view = a.alias();
        assert_eq!(view.as_slice().as_ptr(), a.as_slice().as_ptr());
        let before = dev.mem_report();
        // A write through the alias copies first: the source keeps its bytes.
        view.as_mut_slice()[0] = 10;
        assert_eq!(a.as_slice(), &[1, 2, 3]);
        assert_eq!(view.as_slice(), &[10, 2, 3]);
        // And a write through a shared source leaves the alias unchanged.
        let second = a.alias();
        a.as_mut_slice()[1] = 20;
        assert_eq!(second.as_slice(), &[1, 2, 3]);
        assert_eq!(a.as_slice(), &[1, 20, 3]);
        // Neither the copies nor the alias drops move the ledger.
        assert_eq!(dev.mem_report(), before);
        drop((view, second));
        assert_eq!(dev.mem_report(), before);
        assert_eq!(a.into_vec(), vec![1, 20, 3]);
        assert_eq!(dev.mem_report().current_bytes, 0);
    }

    #[test]
    fn reservation_charges_exactly_like_an_alloc() {
        // Mirror every step on two fresh devices: one allocates host-backed
        // buffers, the other reserves the same bytes.
        let (alloc_dev, reserve_dev) = (Device::a100(), Device::a100());
        for bytes in [1000u64, 0, 4096] {
            let buf = alloc_dev.alloc::<u8>(bytes as usize, "buf");
            let res = reserve_dev.reserve(bytes, "res");
            assert_eq!(reserve_dev.mem_report(), alloc_dev.mem_report());
            // Both took the same address range: the next one handed out
            // is the same on both devices.
            let (next_a, next_r) = (
                alloc_dev.alloc::<u8>(1, "n"),
                reserve_dev.alloc::<u8>(1, "n"),
            );
            assert_eq!(next_a.addr_of(0), next_r.addr_of(0));
            drop((buf, next_a));
            drop((res, next_r));
            assert_eq!(reserve_dev.mem_report(), alloc_dev.mem_report());
        }
        assert_eq!(reserve_dev.mem_report().current_bytes, 0);
        assert_eq!(reserve_dev.mem_report().live_allocations, 0);
        assert!(reserve_dev.mem_report().peak_bytes > 0);
    }

    #[test]
    fn zero_length_buffers_balance() {
        let dev = Device::a100();
        {
            let empty = dev.alloc::<i32>(0, "empty");
            assert!(empty.is_empty());
            // Nothing charged, nothing counted live.
            assert_eq!(dev.mem_report().live_allocations, 0);
            assert_eq!(dev.mem_report().current_bytes, 0);
        }
        assert_eq!(dev.mem_report().live_allocations, 0);
    }

    #[test]
    fn alignment_rounds_small_allocations_up() {
        let dev = Device::a100();
        let _a = dev.alloc::<i32>(1, "tiny");
        assert_eq!(dev.mem_report().current_bytes, 256);
    }

    #[test]
    #[should_panic(expected = "device out of memory")]
    fn oom_panics() {
        let mut cfg = crate::DeviceConfig::a100();
        cfg.global_mem_bytes = 1024;
        let dev = Device::new(cfg);
        let _a = dev.alloc::<i64>(1024, "too big");
    }

    #[test]
    fn upload_and_into_vec_roundtrip() {
        let dev = Device::a100();
        let buf = dev.upload(vec![3i32, 1, 2], "v");
        assert_eq!(buf.as_slice(), &[3, 1, 2]);
        let v = buf.into_vec();
        assert_eq!(v, vec![3, 1, 2]);
        assert_eq!(dev.mem_report().current_bytes, 0);
    }
}
