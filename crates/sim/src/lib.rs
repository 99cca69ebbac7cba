//! # sim — a software GPU execution simulator
//!
//! This crate stands in for the CUDA substrate used by the paper
//! *Efficiently Processing Large Relational Joins on GPUs* (and its SIGMOD'25
//! successor covering grouped aggregations). No physical GPU is required:
//! algorithms execute on the host over real data, while every kernel charges
//! its memory traffic and instruction work to a calibrated cost model that
//! mirrors how NVIDIA hardware (and the Nsight Compute profiler) accounts for
//! it.
//!
//! The simulator models exactly the effects the paper's results hinge on:
//!
//! * **Coalescing** — warp-level loads are grouped 32 lanes at a time and
//!   deduplicated to distinct 32-byte *sectors*, the unit DRAM traffic is
//!   measured in. A clustered gather touches ~`elem_size` sectors per warp
//!   request; an unclustered gather touches up to 32.
//! * **L2 reach** — a direct-mapped sector cache sized to the device's L2
//!   (40 MB on A100, 6 MB on RTX 3090). Gathers into small relations hit in
//!   L2 and stop being expensive, which is why the paper's TPC-H J3 favors
//!   unoptimized materialization.
//! * **Latency-bound penalty** — poorly coalesced traffic cannot saturate
//!   DRAM bandwidth; the model applies a penalty proportional to the excess
//!   sectors per request, calibrated to Table 4 of the paper (8.5x cycle gap
//!   between unclustered and clustered gathers at 3x the bytes).
//! * **Atomic contention** — bucket-chain partitioning serializes atomics on
//!   hot partitions; the hottest partition's update stream bounds the kernel,
//!   reproducing the Zipf collapse of Figure 14.
//! * **Memory ledger** — every intermediate allocation flows through
//!   [`DeviceBuffer`], giving the peak-usage numbers of Table 5.
//!
//! ## Host execution
//!
//! Warp-traffic accounting — the hot loop of every experiment — runs in one
//! loop on the thread that charges the kernel, under the device state lock;
//! fanning it out across host cores lost on every benchmark workload, so
//! [`DeviceConfig::host_threads`] is an inert field. Simulated outputs are a
//! pure function of the inputs: rerunning a configuration reproduces every
//! byte.
//!
//! ## Multi-query scheduling
//!
//! A device can host several concurrent queries (see [`sched`]). The base
//! handle starts a session with [`Device::sched_start`] and registers each
//! query with [`Device::sched_register_spec`], which reserves the query a
//! memory budget and returns a *query handle* — a `Device` whose counters,
//! clock, L2 image, memory ledger and trace are private to that query.
//! [`Device::sched_run`] then executes each query on the calling thread as
//! it is admitted, logging its kernels, and replays the logs into the
//! device-wide view one kernel per turn in policy order. The interleaving
//! (and every per-query byte of state) is a pure function of simulated
//! time — concurrent execution is bit-identical to serial.
//!
//! ## Quick example
//!
//! ```
//! use sim::{Device, DeviceConfig};
//!
//! let dev = Device::a100();
//! // A streaming kernel over 1M 4-byte items:
//! dev.kernel("copy")
//!     .items(1 << 20, 4.0)
//!     .seq_read_bytes(4 << 20)
//!     .seq_write_bytes(4 << 20)
//!     .launch();
//! assert!(dev.elapsed().secs() > 0.0);
//! ```

pub mod analysis;
mod config;
mod counters;
mod element;
mod kernel;
mod l2;
mod memory;
pub mod metrics;
pub mod sched;
mod stats;
mod time;
pub mod trace;

pub use analysis::{
    diagnose, roofline, AccessPattern, Bottleneck, Diagnosis, KernelAnalysis, Roofline,
};
pub use config::DeviceConfig;
pub use counters::{Counters, CountersDelta};
pub use element::Element;
pub use kernel::{KernelBuilder, WarpLanes};
pub use l2::L2Cache;
pub use memory::{DeviceBuffer, MemReport, Reservation};
pub use metrics::{
    metrics_json, openmetrics, secs_to_ticks, HdrHistogram, MetricsRegistry, MetricsSnapshot,
    QueryLifecycle, SECONDS_SCALE,
};
pub use sched::{AdmissionError, BudgetError, QueryId, QuerySchedStats, QueueLimits, SchedPolicy};
pub use stats::OpStats;
pub use time::{PhaseTimes, SimTime};
pub use trace::{LifecycleEvent, LifecycleStage, SpanCat, Trace, TraceEvent};

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use trace::KernelEvent;

thread_local! {
    /// Set while the current thread executes a planning-phase closure (see
    /// [`Device::with_planning`]).
    static PLANNING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is inside [`Device::with_planning`]. Read by
/// the kernel launch path to make planning work charge-free.
pub(crate) fn planning_active() -> bool {
    PLANNING.with(|p| p.get())
}

/// Restores the thread's planning flag even if the closure unwinds (a
/// budget OOM can fire inside a planning kernel).
struct PlanningGuard(bool);

impl Drop for PlanningGuard {
    fn drop(&mut self) {
        PLANNING.with(|p| p.set(self.0));
    }
}

/// Number of 32-bit lanes in a warp. Fixed across all NVIDIA architectures
/// the paper evaluates.
pub const WARP_SIZE: usize = 32;

/// Size in bytes of a DRAM sector — the granularity at which the memory
/// subsystem moves data and at which Nsight Compute reports traffic.
pub const SECTOR_BYTES: u64 = 32;

/// Base simulated address of every query's private sub-ledger. All queries
/// start at the *same* base: their address spaces only need to be disjoint
/// from the base ledger's (catalog-resident buffers), not from each other,
/// because each query probes its own private L2 image. Identical bases are
/// what make a query's sector stream — and therefore its L2 hits, penalties
/// and simulated times — independent of which co-tenants run beside it.
pub(crate) const QUERY_ADDR_BASE: u64 = 1 << 40;

/// One scope's virtual device state: the base device's, or one query's.
/// A query's scope is touched only by that query's kernels, in program
/// order, so it evolves identically under any scheduling policy.
pub(crate) struct ScopeState {
    pub(crate) counters: Counters,
    pub(crate) l2: L2Cache,
    pub(crate) mem: memory::MemLedger,
    /// Simulated clock, in seconds, advanced by every kernel launch of the
    /// scope (a query's clock is the sum of its own kernel times).
    pub(crate) clock: f64,
    /// Opt-in event recorder (see [`trace`]); `None` costs nothing.
    pub(crate) trace: Option<Box<Trace>>,
}

impl ScopeState {
    fn new(config: &DeviceConfig, addr_base: u64) -> Self {
        ScopeState {
            counters: Counters::default(),
            l2: L2Cache::new(config.l2_bytes),
            mem: memory::MemLedger::with_base(addr_base),
            clock: 0.0,
            trace: None,
        }
    }
}

/// A query's scope plus the reservation its sub-ledger is capped at.
pub(crate) struct QueryState {
    pub(crate) scope: ScopeState,
    pub(crate) budget_bytes: u64,
    /// The query's kernel records not yet folded into the base scope, in
    /// launch order (see [`Device::sched_run`]).
    pub(crate) log: VecDeque<KernelEvent>,
}

pub(crate) struct DeviceState {
    /// The base device's scope: device-wide totals and the catalog ledger.
    pub(crate) base: ScopeState,
    /// Opt-in service-level metrics recorder (see [`metrics`]); like the
    /// trace, `None` costs one branch per launch.
    pub(crate) metrics: Option<Box<metrics::DeviceMetrics>>,
    /// Virtual state of the current scheduling session's queries, indexed by
    /// [`QueryId`]. Cleared by the next [`Device::sched_start`].
    pub(crate) queries: Vec<QueryState>,
    /// The scheduling session's admission and designation state.
    pub(crate) sched: sched::SchedState,
}

impl DeviceState {
    /// The scope a handle routes to: the query's on a query handle, the
    /// base device's otherwise.
    pub(crate) fn scope(&mut self, query: Option<QueryId>) -> &mut ScopeState {
        match query {
            Some(q) => &mut self.queries[q as usize].scope,
            None => &mut self.base,
        }
    }

    /// Push one event into `query`'s trace — `push` runs only when that
    /// trace is on, so nothing is built while tracing is off — and fold any
    /// flight-recorder evictions into the `trace_events_dropped_total`
    /// metric.
    pub(crate) fn record(&mut self, query: Option<QueryId>, push: impl FnOnce(&mut Trace) -> u64) {
        let Some(tr) = self.scope(query).trace.as_deref_mut() else {
            return;
        };
        let dropped = push(tr);
        if dropped > 0 {
            if let Some(m) = self.metrics.as_deref_mut() {
                m.registry
                    .counter_add("trace_events_dropped_total", Vec::new(), dropped);
            }
        }
    }

    /// Charge one kernel record to `scope`: advance its clock and counters
    /// and record the kernel in its trace at the scope's clock. Returns
    /// the kernel's start on that clock.
    pub(crate) fn charge(&mut self, scope: Option<QueryId>, k: &KernelEvent) -> f64 {
        let s = self.scope(scope);
        let start = s.clock;
        s.clock += k.dur;
        s.counters += &k.counters;
        self.record(scope, |tr| {
            tr.push(TraceEvent::Kernel(KernelEvent { start, ..k.clone() }))
        });
        start
    }

    /// Fold one kernel record into the device-wide view: the base clock,
    /// counters and trace (tagged with the record's query) and metrics.
    /// Returns the kernel's start on the device clock.
    pub(crate) fn fold(&mut self, k: &KernelEvent) -> f64 {
        let start = self.charge(None, k);
        if let Some(m) = self.metrics.as_deref_mut() {
            m.on_kernel(self.base.clock, k.query, k.dur, &k.counters);
        }
        start
    }

    /// Retire `q` at the device clock and record its lifecycle.
    fn retire(&mut self, q: QueryId) {
        self.sched.retire(q, self.base.clock);
        let stats = self.sched.stats(q);
        if let Some(m) = self.metrics.as_deref_mut() {
            m.push_lifecycle(QueryLifecycle {
                query: q,
                arrival_secs: stats.arrival_secs,
                admitted_secs: stats.admitted_secs,
                completion_secs: stats.completion_secs,
                busy_secs: stats.busy_secs,
                budget_bytes: stats.budget_bytes,
                class: stats.class,
                slo_secs: stats.slo_secs,
            });
        }
    }

    /// Sample `query`'s ledger after an allocation or free: a trace memory
    /// event, plus the metrics occupancy series for the base ledger. Only
    /// the base ledger feeds metrics: a query allocates when it executes,
    /// not when its kernels replay onto the device clock, so its ledger
    /// has no place on the device's sample grid (its peak is reported per
    /// query instead).
    pub(crate) fn on_mem(&mut self, query: Option<QueryId>) {
        let s = self.scope(query);
        let (clock, current) = (s.clock, s.mem.report().current_bytes);
        self.record(query, |tr| tr.push_mem(clock, current));
        if query.is_none() {
            if let Some(m) = self.metrics.as_deref_mut() {
                m.on_mem(current);
            }
        }
    }
}

pub(crate) struct DeviceInner {
    pub(crate) config: DeviceConfig,
    pub(crate) state: Mutex<DeviceState>,
}

/// A handle to a simulated GPU.
///
/// Cheap to clone (it is an `Arc` internally); all clones observe the same
/// counters, memory ledger and simulated clock. A `Device` is the first
/// argument of every primitive and operator in this workspace.
///
/// A handle returned by [`Device::sched_register_spec`] is a *query
/// handle*: it shares the physical device but routes counters, clock, L2,
/// memory and tracing to that query's private virtual state, and its kernel
/// launches reach the device-wide view in the session's policy order.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
    /// `Some(q)` on a query handle; `None` on the base device handle.
    pub(crate) query: Option<QueryId>,
}

impl Device {
    /// Create a device from an explicit configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            inner: Arc::new(DeviceInner {
                state: Mutex::new(DeviceState {
                    base: ScopeState::new(&config, 0),
                    metrics: None,
                    queries: Vec::new(),
                    sched: sched::SchedState::default(),
                }),
                config,
            }),
            query: None,
        }
    }

    /// An NVIDIA A100 (40 GB, SXM) — the data-center GPU the paper reports
    /// most results on.
    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    /// An NVIDIA GeForce RTX 3090 — the consumer Ampere part used as the
    /// paper's second machine.
    pub fn rtx3090() -> Self {
        Self::new(DeviceConfig::rtx3090())
    }

    /// The configuration this device was created with.
    pub fn config(&self) -> &DeviceConfig {
        &self.inner.config
    }

    /// The query this handle routes to, if it is a query handle.
    pub fn query_id(&self) -> Option<QueryId> {
        self.query
    }

    /// The memory capacity visible to this handle: the query's budget on a
    /// query handle, the device's global memory otherwise. Out-of-core
    /// planning (`joins::chunked`) sizes chunks against this.
    pub fn mem_capacity(&self) -> u64 {
        match self.query {
            Some(q) => self.inner.state.lock().queries[q as usize].budget_bytes,
            None => self.inner.config.global_mem_bytes,
        }
    }

    /// Run `f` on the scope this handle routes to, under the state lock.
    fn with_scope<R>(&self, f: impl FnOnce(&mut ScopeState) -> R) -> R {
        f(self.inner.state.lock().scope(self.query))
    }

    /// Begin describing a kernel launch. Call accounting methods on the
    /// returned builder and finish with [`KernelBuilder::launch`].
    pub fn kernel(&self, name: &'static str) -> KernelBuilder<'_> {
        KernelBuilder::new(self, name)
    }

    /// Snapshot of the cumulative hardware counters (this query's own
    /// counters on a query handle; device-wide totals otherwise).
    pub fn counters(&self) -> Counters {
        self.with_scope(|s| s.counters.clone())
    }

    /// Total simulated time elapsed: the query's private clock (sum of its
    /// own kernels) on a query handle, the device clock otherwise.
    pub fn elapsed(&self) -> SimTime {
        SimTime::from_secs(self.with_scope(|s| s.clock))
    }

    /// Current and peak device-memory usage (the query's sub-ledger on a
    /// query handle).
    pub fn mem_report(&self) -> MemReport {
        self.with_scope(|s| s.mem.report())
    }

    /// Reset the peak-memory watermark to the current usage. Call between
    /// experiments that share a device.
    pub fn reset_peak_mem(&self) {
        self.with_scope(|s| s.mem.reset_peak());
    }

    /// Run `f` as a nested peak-memory bracket: the watermark is reset to
    /// the current usage on entry, and on exit the outer watermark is
    /// restored as `max(outer, inner)`, so enclosing brackets and the
    /// handle's [`Device::mem_report`] still see every byte `f` held.
    /// Returns `f`'s result and the bracket's peak — the highest *absolute*
    /// usage reached inside it (not the increment over entry).
    pub fn peak_bracket<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let outer = self.with_scope(|s| s.mem.reset_peak());
        let out = f();
        (out, self.with_scope(|s| s.mem.raise_peak(outer)))
    }

    /// Reset counters, simulated clock, and the peak-memory watermark. Live
    /// allocations and L2 contents are kept — resetting *statistics* does
    /// not cool down the hardware cache; use [`Device::flush_l2`] for that.
    ///
    /// An active trace records a `reset_stats` marker at the old clock:
    /// events after the reset restart at timestamp zero, so a multi-reset
    /// trace is a sequence of overlapping timelines separated by markers.
    pub fn reset_stats(&self) {
        let mut st = self.inner.state.lock();
        let clock = st.scope(self.query).clock;
        st.record(self.query, |tr| {
            tr.push(TraceEvent::Instant(trace::InstantEvent {
                name: "reset_stats",
                ts: clock,
            }))
        });
        let s = st.scope(self.query);
        s.counters = Counters::default();
        s.clock = 0.0;
        s.mem.reset_peak();
        if self.query.is_none() {
            if let Some(m) = st.metrics.as_deref_mut() {
                // Cumulative metrics totals stay monotone across the
                // reset; only the sample grid rebases to the new clock.
                m.on_reset();
            }
        }
    }

    /// Start recording trace events (see the [`trace`] module). Idempotent:
    /// enabling an already-tracing device keeps the existing event log. On a
    /// query handle this starts the query's private trace, named
    /// `"<device>#q<id>"`.
    pub fn enable_tracing(&self) {
        self.trace_recorder(|_| {});
    }

    /// [`Device::enable_tracing`] in bounded flight-recorder mode: the
    /// recorder keeps at most `capacity` events, evicting the oldest when
    /// full and counting evictions into the `trace_events_dropped_total`
    /// metric (and [`Trace::dropped_events`]). Long open-loop serving runs
    /// can keep tracing on without unbounded memory. Calling this on an
    /// already-tracing handle keeps the event log and (re)sets the cap.
    pub fn enable_tracing_ring(&self, capacity: usize) {
        self.trace_recorder(|tr| tr.set_capacity(capacity));
    }

    /// Run `f` on this handle's trace recorder, starting one if needed.
    fn trace_recorder(&self, f: impl FnOnce(&mut Trace)) {
        let name = &self.inner.config.name;
        let mut st = self.inner.state.lock();
        let tr = st.scope(self.query).trace.get_or_insert_with(|| {
            Box::new(Trace::new(match self.query {
                Some(q) => format!("{name}#q{q}"),
                None => name.clone(),
            }))
        });
        f(tr);
    }

    /// Whether this handle is currently recording trace events. Check this
    /// before doing work (string formatting, snapshotting `elapsed`) whose
    /// only purpose is a [`Device::trace_span`] call.
    pub fn tracing_enabled(&self) -> bool {
        self.with_scope(|s| s.trace.is_some())
    }

    /// Stop tracing and return the recorded event log, if tracing was on.
    pub fn take_trace(&self) -> Option<Trace> {
        self.with_scope(|s| s.trace.take().map(|b| *b))
    }

    /// Clone the event log recorded so far without stopping the recorder.
    pub fn trace_snapshot(&self) -> Option<Trace> {
        self.with_scope(|s| s.trace.as_deref().cloned())
    }

    /// Record a retroactive span `[start, end]` on the simulated clock.
    /// No-op when tracing is disabled. Harnesses call this after measuring
    /// an interval they already bracket with [`Device::elapsed`]; children
    /// therefore appear in the log before their enclosing parent.
    pub fn trace_span(&self, cat: SpanCat, name: &str, start: SimTime, end: SimTime) {
        self.inner.state.lock().record(self.query, |tr| {
            tr.push(TraceEvent::Span(trace::SpanEvent {
                cat,
                name: name.to_string(),
                start: start.secs(),
                end: end.secs(),
            }))
        });
    }

    /// Record a query-lifecycle stage `[start, end]` (equal for instants)
    /// into the *base* device trace — the serving path's multi-tenant
    /// timeline — regardless of which handle this is called on. No-op when
    /// base tracing is disabled. `query` is `None` for stages that predate
    /// a query id (admission-rejected specs, standalone plan-cache use).
    pub fn trace_lifecycle(
        &self,
        query: Option<QueryId>,
        stage: LifecycleStage,
        start: SimTime,
        end: SimTime,
    ) {
        self.inner.state.lock().record(None, |tr| {
            tr.push(TraceEvent::Lifecycle(LifecycleEvent {
                query,
                stage,
                start: start.secs(),
                end: end.secs(),
            }))
        });
    }

    /// Start recording service-level metrics (see the [`metrics`] module):
    /// a registry of counters/gauges/histograms plus time-series sampled
    /// every `interval` of *simulated* time. Call on the base handle; query
    /// handles feed the same recorder with per-tenant labels (dual
    /// accounting, like counters and traces). Idempotent: enabling an
    /// already-recording device keeps the existing recorder and interval.
    pub fn enable_metrics(&self, interval: SimTime) {
        assert!(self.query.is_none(), "enable_metrics on a query handle");
        let mut st = self.inner.state.lock();
        if st.metrics.is_none() {
            let clock = st.base.clock;
            let current = st.base.mem.report().current_bytes;
            let mut m =
                metrics::DeviceMetrics::new(self.inner.config.name.clone(), interval.secs(), clock);
            m.on_mem(current);
            st.metrics = Some(Box::new(m));
        }
    }

    /// Whether this device is currently recording service-level metrics.
    pub fn metrics_enabled(&self) -> bool {
        self.inner.state.lock().metrics.is_some()
    }

    /// Snapshot the metrics recorded so far without stopping the recorder.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner
            .state
            .lock()
            .metrics
            .as_deref()
            .map(|m| m.snapshot())
    }

    /// Run `f` against the open metrics registry (no-op when metrics are
    /// disabled — callers can record unconditionally). Engine layers use
    /// this for their own instruments: per-operator duration histograms,
    /// per-tenant latency histograms. See the [`metrics`] module docs for
    /// the determinism rules.
    pub fn with_metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        let mut st = self.inner.state.lock();
        if let Some(m) = st.metrics.as_deref_mut() {
            f(&mut m.registry);
        }
    }

    /// Run `f` with this thread marked as *planning*: kernels launched
    /// inside `f` (the planner's statistics-sampling kernels) charge
    /// nothing — no clock, counters, trace, metrics or scheduling turn, on
    /// either the device or a query handle. Planning work models what a
    /// plan-cache hit skips, so a recording (cold) run and its cached
    /// replay observe identical bytes on every clock. Only valid for
    /// kernels that stream charges without touching shared state (no
    /// `warp_loads`, no allocations) — the sampling estimators qualify.
    pub fn with_planning<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = PLANNING.with(|p| p.replace(true));
        let _restore = PlanningGuard(prev);
        f()
    }

    /// Invalidate the modeled L2 (the query's private image on a query
    /// handle), e.g. to measure a cold run.
    pub fn flush_l2(&self) {
        self.with_scope(|s| s.l2.clear());
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc<T: Element>(&self, len: usize, label: &'static str) -> DeviceBuffer<T> {
        DeviceBuffer::zeroed(self.clone(), len, label)
    }

    /// Move a host vector into device memory, charging the allocation to the
    /// ledger (but not the transfer: the paper measures join time only, with
    /// inputs resident).
    pub fn upload<T: Element>(&self, data: Vec<T>, label: &'static str) -> DeviceBuffer<T> {
        DeviceBuffer::from_vec(self.clone(), data, label)
    }

    /// Charge `bytes` of device memory to the ledger without host storage:
    /// the same current, peak, live count and address range as an
    /// [`alloc`](Device::alloc) of those bytes, credited when the
    /// [`Reservation`] drops.
    pub fn reserve(&self, bytes: u64, label: &'static str) -> Reservation {
        Reservation::new(self.clone(), bytes, label)
    }

    // --- Multi-query scheduling session (see the `sched` module) ---

    /// Begin a scheduling session on this device. Call on the base handle.
    ///
    /// Snapshots the currently free device memory (capacity minus resident
    /// allocations, e.g. a catalog) as the pool query budgets are reserved
    /// from, and discards any previous session's per-query state. `limits`
    /// bounds the waiting room: an arrival that cannot be admitted
    /// immediately and finds the queue full is *shed* and never runs.
    /// Panics if a session is already active.
    pub fn sched_start(&self, policy: SchedPolicy, limits: QueueLimits) {
        assert!(self.query.is_none(), "sched_start on a query handle");
        let mut st = self.inner.state.lock();
        st.queries.clear();
        let used = st.base.mem.report().current_bytes;
        let available = self.inner.config.global_mem_bytes.saturating_sub(used);
        st.sched.start(policy, available, limits);
        // Exec slices exist for the lifecycle timeline; record them only
        // when the base trace will consume them.
        st.sched.record_slices = st.base.trace.is_some();
    }

    /// Register a query with the active session and return its query
    /// handle. The spec: fair-share `weight`, a memory budget of
    /// `budget_bytes`, an optional future `arrival` (`None` = arrives
    /// now), the cost model's `predicted` execution time (the ranking key
    /// of the shortest-job policies), and the serving `class` label and
    /// optional latency target `slo` for lifecycle exports.
    ///
    /// Budgets are granted in policy order; a query whose budget does not
    /// currently fit queues until earlier queries retire. A budget that can
    /// *never* fit — larger than the session's free pool — is rejected
    /// here. A future arrival is open-loop load generation: admission and
    /// scheduling ignore the query until the simulated clock reaches
    /// `arrival`; if the device drains idle while only future arrivals
    /// remain, the clock jumps forward to the earliest one. Register in
    /// arrival order: query ids are assigned in call order, and FIFO
    /// admission is in id order.
    pub fn sched_register_spec(
        &self,
        weight: f64,
        budget_bytes: u64,
        arrival: Option<SimTime>,
        predicted: SimTime,
        class: &str,
        slo: Option<SimTime>,
    ) -> Result<Device, AdmissionError> {
        assert!(
            self.query.is_none(),
            "sched_register_spec on a query handle"
        );
        let mut st = self.inner.state.lock();
        let now = st.base.clock;
        let spec = sched::QuerySched::new(
            weight,
            budget_bytes,
            arrival.map_or(now, SimTime::secs),
            predicted.secs(),
            Some(class.to_string()),
            slo.map(SimTime::secs),
        );
        let qid = st.sched.register_spec(spec, now)?;
        debug_assert_eq!(st.queries.len(), qid as usize);
        st.queries.push(QueryState {
            scope: ScopeState::new(&self.inner.config, QUERY_ADDR_BASE),
            budget_bytes,
            log: VecDeque::new(),
        });
        Ok(self.query_handle(qid))
    }

    fn query_handle(&self, qid: QueryId) -> Device {
        Device {
            inner: Arc::clone(&self.inner),
            query: Some(qid),
        }
    }

    /// Run the session to completion on the calling thread, then end it.
    /// Call on the base handle after registering every query.
    ///
    /// This is a discrete-event replay. The moment a query is admitted,
    /// `run` executes it on its query handle: its kernels charge only the
    /// query's own state and are logged. The replay then folds the
    /// designated query's next logged kernel into the device-wide clock,
    /// counters, trace and metrics, and passes the turn on. A query
    /// retires right after its last kernel's turn (at admission if it
    /// launched none), releasing its reservation; when no query is
    /// runnable the clock jumps to the next arrival. Shed queries never
    /// run. Per-query stats and traces remain readable until the next
    /// [`Device::sched_start`].
    pub fn sched_run(&self, mut run: impl FnMut(&Device)) {
        assert!(self.query.is_none(), "sched_run on a query handle");
        loop {
            let mut st = self.inner.state.lock();
            let admitted = st.sched.take_admitted();
            if !admitted.is_empty() {
                drop(st);
                for q in admitted {
                    run(&self.query_handle(q));
                    let mut st = self.inner.state.lock();
                    if st.queries[q as usize].log.is_empty() {
                        st.retire(q);
                    }
                }
                continue;
            }
            let now = st.base.clock;
            if let Some(q) = st.sched.designated() {
                let k = st.queries[q as usize]
                    .log
                    .pop_front()
                    .expect("a designated query has a kernel left to replay");
                let start = st.fold(&k);
                let now = st.base.clock;
                st.sched.complete_turn(q, k.dur, start, now);
                if st.queries[q as usize].log.is_empty() {
                    st.retire(q);
                }
            } else if let Some(next) = st.sched.next_arrival(now) {
                st.base.clock += next - now;
                let now = st.base.clock;
                st.sched.arrive(now);
            } else {
                st.sched.finish();
                return;
            }
        }
    }

    /// The exec slices (contiguous runs of kernel turns, device-clock
    /// `[start, end]` pairs) recorded for a query of the current or
    /// just-finished session. Empty unless the base trace was enabled when
    /// the session started.
    pub fn sched_query_slices(&self, query: QueryId) -> Vec<(f64, f64)> {
        self.inner.state.lock().sched.slices(query)
    }

    /// Scheduling outcome (busy time, completion time, budget) of a query in
    /// the current or just-finished session.
    pub fn sched_query_stats(&self, query: QueryId) -> QuerySchedStats {
        self.inner.state.lock().sched.stats(query)
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.inner.config.name)
            .field("query", &self.query)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_starts_clean() {
        let dev = Device::a100();
        assert_eq!(dev.counters().kernel_launches, 0);
        assert_eq!(dev.elapsed().secs(), 0.0);
        assert_eq!(dev.mem_report().current_bytes, 0);
        assert_eq!(dev.query_id(), None);
        assert_eq!(dev.mem_capacity(), dev.config().global_mem_bytes);
    }

    #[test]
    fn clones_share_state() {
        let dev = Device::a100();
        let dev2 = dev.clone();
        dev.kernel("k").items(1024, 1.0).launch();
        assert_eq!(dev2.counters().kernel_launches, 1);
    }

    #[test]
    fn reset_stats_clears_clock_and_counters() {
        let dev = Device::rtx3090();
        dev.kernel("k")
            .items(1 << 20, 2.0)
            .seq_read_bytes(1 << 22)
            .launch();
        assert!(dev.elapsed().secs() > 0.0);
        dev.reset_stats();
        assert_eq!(dev.elapsed().secs(), 0.0);
        assert_eq!(dev.counters().kernel_launches, 0);
    }

    fn register(dev: &Device, budget: u64) -> Result<Device, AdmissionError> {
        dev.sched_register_spec(1.0, budget, None, SimTime::ZERO, "default", None)
    }

    #[test]
    fn query_handles_virtualize_device_state() {
        let dev = Device::a100();
        dev.sched_start(SchedPolicy::RoundRobin, QueueLimits::default());
        let q0 = register(&dev, 1 << 30).unwrap();
        let q1 = register(&dev, 1 << 30).unwrap();
        assert_eq!(q0.query_id(), Some(0));
        assert_eq!(q1.mem_capacity(), 1 << 30);

        dev.sched_run(|q| {
            if q.query_id() == Some(0) {
                q.kernel("k0").items(1 << 20, 2.0).launch();
                // The query's own state moves at launch; the base device
                // sees the kernel only when the replay folds it in.
                assert_eq!(q.counters().kernel_launches, 1);
                assert_eq!(dev.counters().kernel_launches, 0);
            } else {
                let _buf = q.alloc::<i64>(1024, "q1.buf");
                assert_eq!(q.mem_report().current_bytes, 8192);
                assert_eq!(dev.mem_report().current_bytes, 0, "base ledger untouched");
            }
        });
        // Query state is private; the base device aggregates.
        assert_eq!(q0.counters().kernel_launches, 1);
        assert_eq!(q1.counters().kernel_launches, 0);
        assert_eq!(dev.counters().kernel_launches, 1);
        assert!(q0.elapsed().secs() > 0.0);
        assert_eq!(q1.elapsed().secs(), 0.0);
        assert_eq!(q1.mem_report().peak_bytes, 8192);

        let s0 = dev.sched_query_stats(0);
        assert_eq!(s0.busy_secs, q0.elapsed().secs());
        assert_eq!(s0.completion_secs, dev.elapsed().secs());
        assert_eq!(s0.budget_bytes, 1 << 30);
        assert_eq!(
            dev.sched_query_stats(1).completion_secs,
            0.0,
            "a query without kernels retires at admission"
        );
    }

    #[test]
    fn oversized_budget_is_rejected() {
        let dev = Device::a100();
        dev.sched_start(SchedPolicy::Serial, QueueLimits::default());
        let cap = dev.config().global_mem_bytes;
        let err = register(&dev, cap + 1).unwrap_err();
        assert_eq!(err.available_bytes, cap);
        dev.sched_run(|_| unreachable!("nothing was registered"));
    }
}
