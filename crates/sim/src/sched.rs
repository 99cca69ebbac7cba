//! Multi-query scheduling on one simulated device.
//!
//! The paper's framework assumes an operator owns the whole GPU; a
//! production engine serves many tenants on one device. This module adds
//! the device-side half of that story:
//!
//! * **Admission control** — each query reserves a fixed memory budget out
//!   of the device's free capacity before it runs. Reservations are granted
//!   in policy order (query-id FIFO for the fair-share policies, predicted
//!   cost for the shortest-job policies); a query whose budget does not fit
//!   queues behind the head of that line until earlier queries retire and
//!   release theirs. Because the sum of granted budgets never exceeds the
//!   free capacity, no tenant can OOM a co-tenant. Sessions may also bound
//!   the waiting room ([`QueueLimits`]): an arrival that cannot be admitted
//!   immediately and finds the queue full is *shed* — marked finished
//!   without ever holding a reservation — rather than waiting forever.
//! * **Kernel-granular interleaving** — a query's kernel launches pass
//!   through a turn gate: the launch blocks until the scheduling policy
//!   designates that query, performs its accounting, then hands the turn
//!   on. The designation is a pure function of *simulated* state (query
//!   ids, per-query busy time, weights, predicted costs), so the
//!   interleaving — and with it every counter, clock and trace byte — is
//!   deterministic regardless of host thread timing.
//! * **Turn-gated completion stamp** — every completed turn stamps the
//!   owning query with the post-kernel simulated clock; retire reads the
//!   stamp instead of the live device clock. A query's completion time is
//!   therefore the clock right after its last kernel — a pure function of
//!   the (deterministic) turn sequence — rather than whatever the clock
//!   happened to read when its host thread got around to retiring. That is
//!   what makes latency metrics and full exports byte-identical across
//!   *all* policies and host-thread counts, not just `Serial`.
//! * **Virtualized device state** — each query gets its own counters,
//!   clock, L2 image, trace and budget-capped memory sub-ledger (see
//!   `lib.rs`), so a query's observable execution is touched only by its
//!   own kernels, in program order. That is the whole concurrent-equals-
//!   serial argument: per-query state evolves identically under any policy.
//!
//! The engine's `scheduler` module drives this API; it is exposed on
//! [`crate::Device`] as the `sched_*` methods.

use serde::{Deserialize, Serialize};

/// Identifier of one admitted query on a device, assigned densely from 0
/// in registration order.
pub type QueryId = u32;

/// How the turn gate picks the next query to run a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Run admitted queries to completion in query-id order — the serial
    /// baseline the equivalence suite compares against. (It still uses the
    /// same budgets, ids and accounting as the concurrent policies.)
    Serial,
    /// Cycle through runnable queries in id order, one kernel per turn.
    RoundRobin,
    /// Designate the runnable query with the smallest `busy_time / weight`
    /// (lowest id on ties): long-run device time is shared in proportion
    /// to the configured weights.
    WeightedFair,
    /// Shortest job first: designate the runnable query with the smallest
    /// *predicted* execution time (lowest id on ties), and grant budget
    /// reservations in the same order. Preemptive at kernel granularity: a
    /// newly arrived shorter job takes the turn at the next kernel
    /// boundary.
    Sjf,
    /// Shortest job first with aging: rank by
    /// `predicted / (1 + wait_time)`, so a long job's effective rank decays
    /// toward zero the longer it waits and it cannot starve behind an
    /// endless stream of short arrivals.
    SjfAging,
}

impl SchedPolicy {
    /// Stable lowercase label for reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Serial => "serial",
            SchedPolicy::RoundRobin => "round_robin",
            SchedPolicy::WeightedFair => "weighted_fair",
            SchedPolicy::Sjf => "sjf",
            SchedPolicy::SjfAging => "sjf_aging",
        }
    }

    /// Whether admission and designation rank by predicted cost rather
    /// than id order.
    fn cost_ordered(self) -> bool {
        matches!(self, SchedPolicy::Sjf | SchedPolicy::SjfAging)
    }
}

/// Bounds on the waiting room (arrived but not yet admitted queries) of a
/// scheduling session. The default is unbounded — the pre-existing
/// behaviour. With `total_depth: Some(0)` nothing ever waits: a query is
/// admitted the instant it arrives or shed on the spot, which degrades the
/// bounded queue to pure admission control.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueLimits {
    /// Maximum queries that may wait for admission at once. `None` =
    /// unbounded.
    pub total_depth: Option<usize>,
}

/// What [`crate::Device::sched_admit`] resolved to: the query either holds
/// its reservation and may launch kernels, or it was shed by the bounded
/// queue and must not touch the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The reservation was granted; run the query.
    Admitted,
    /// The waiting room was full when the query arrived; it was dropped
    /// without ever holding a reservation and its completion time is its
    /// arrival time.
    Shed,
}

/// Typed payload carried by the panic a budget-capped allocation raises
/// when a query's sub-ledger would exceed its reservation.
///
/// The device cannot return a `Result` from deep inside an executing
/// operator (the OOM surface is `DeviceBuffer` construction), so — like the
/// device-capacity OOM — the failure unwinds; unlike it, the payload is
/// typed so a scheduler can `catch_unwind`, downcast, and convert it into
/// its own error type while co-tenants keep running.
#[derive(Debug, Clone)]
pub struct BudgetError {
    /// The query whose allocation failed.
    pub query: QueryId,
    /// The query's reserved budget, bytes.
    pub budget_bytes: u64,
    /// Bytes the failing allocation requested (after alignment rounding).
    pub requested_bytes: u64,
    /// Bytes the query already had in use.
    pub in_use_bytes: u64,
    /// Label of the failing allocation.
    pub label: String,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query {} exceeded its {} byte memory budget allocating {} bytes \
             for '{}' ({} already in use)",
            self.query, self.budget_bytes, self.requested_bytes, self.label, self.in_use_bytes
        )
    }
}

/// Error returned by [`crate::Device::sched_register`] when a query's
/// requested budget can never be satisfied on this device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionError {
    /// Bytes the query asked to reserve.
    pub requested_bytes: u64,
    /// Free device bytes when the scheduling session started (capacity
    /// minus catalog residents) — the most any reservation can get.
    pub available_bytes: u64,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requested budget of {} bytes exceeds the device's {} free bytes",
            self.requested_bytes, self.available_bytes
        )
    }
}

/// Scheduling outcome of one retired query, for fairness reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySchedStats {
    /// Simulated seconds of kernel time this query received.
    pub busy_secs: f64,
    /// The query's turn-gated completion stamp (seconds): the simulated
    /// clock right after its last kernel turn (its admission time if it
    /// ran no kernels; its arrival time if it was shed).
    pub completion_secs: f64,
    /// Device clock when the query's budget reservation was granted.
    pub admitted_secs: f64,
    /// Device clock when the query arrived — registration time for
    /// closed-loop queries, the scheduled open-loop arrival otherwise.
    pub arrival_secs: f64,
    /// Device clock at the query's first completed kernel turn — when it
    /// first actually ran. `None` if it never launched a kernel.
    pub started_secs: Option<f64>,
    /// The reservation the query ran under, bytes.
    pub budget_bytes: u64,
    /// The query was shed by the bounded queue: it never held a
    /// reservation and ran nothing.
    pub shed: bool,
    /// Serving class label, when the session annotated one.
    pub class: Option<String>,
    /// Per-class latency target (seconds), when the session set one.
    pub slo_secs: Option<f64>,
}

/// Per-query scheduling bookkeeping.
pub(crate) struct QuerySched {
    weight: f64,
    budget_bytes: u64,
    /// Predicted execution time (seconds) from the engine's cost model;
    /// the ranking key of the shortest-job policies. Zero when the caller
    /// has no estimate.
    predicted_secs: f64,
    admitted: bool,
    finished: bool,
    shed: bool,
    busy_secs: f64,
    admitted_secs: f64,
    completion_secs: f64,
    /// Turn-gated completion stamp: the clock right after this query's
    /// most recent kernel turn (seeded with the admission time). Retire
    /// copies it into `completion_secs` instead of reading the live device
    /// clock, which keeps completion times independent of host timing.
    stamp_secs: f64,
    /// Simulated time at which the query enters the system. Until then it
    /// is invisible to admission and designation.
    arrival_secs: f64,
    arrived: bool,
    /// Device clock at the first completed kernel turn.
    first_turn_secs: Option<f64>,
    /// Contiguous runs of this query's kernel turns `[(start, end)]` on the
    /// device clock, recorded only when [`SchedState::record_slices`] is
    /// set (lifecycle tracing active). Consecutive turns with no foreign
    /// clock advance in between coalesce into one slice.
    slices: Vec<(f64, f64)>,
    /// Serving class label attached by the session for lifecycle exports.
    class_name: Option<String>,
    /// Per-class latency target attached by the session.
    slo_secs: Option<f64>,
}

/// The state behind the turn gate. Guarded by a dedicated `std` mutex (and
/// condvar) in `DeviceInner`, *never* held together with the device-state
/// lock.
#[derive(Default)]
pub(crate) struct SchedState {
    policy: Option<SchedPolicy>,
    limits: QueueLimits,
    queries: Vec<QuerySched>,
    designated: Option<QueryId>,
    /// The designated query has taken its turn and its kernel is being
    /// accounted. The designation stays fixed until the turn completes: a
    /// co-tenant's retire may admit a better-ranked query meanwhile, but
    /// that query can only take the *next* turn.
    turn_in_flight: bool,
    /// Round-robin resume point: the first id considered for the next turn.
    rr_cursor: u32,
    /// Sum of granted (admitted, unretired) reservations.
    reserved_bytes: u64,
    /// Free device bytes at session start (capacity minus base residents).
    available_bytes: u64,
    /// Mirror of the device clock, maintained without ever touching the
    /// state lock: seeded at `start`, advanced by each completed turn and
    /// each committed idle advance. During a session those are the only
    /// ways the device clock moves, and the mirror applies the identical
    /// float additions in identical order, so the two are *exactly* equal —
    /// every timestamp in this module reads simulated time from here.
    clock: f64,
    /// An idle advance is in flight: one thread is applying a clock jump to
    /// the device state with the sched lock released. Until it commits via
    /// [`SchedState::finish_idle_advance`], no other thread may start one.
    advancing: bool,
    /// Record per-query exec slices in [`SchedState::complete_turn`]. Set
    /// by the device when lifecycle tracing is active at session start;
    /// zero-cost (one branch per turn) otherwise.
    pub(crate) record_slices: bool,
}

impl SchedState {
    pub(crate) fn start(
        &mut self,
        policy: SchedPolicy,
        available_bytes: u64,
        device_clock: f64,
        limits: QueueLimits,
    ) {
        assert!(
            self.policy.is_none(),
            "a scheduling session is already active on this device"
        );
        self.policy = Some(policy);
        self.limits = limits;
        self.queries.clear();
        self.designated = None;
        self.turn_in_flight = false;
        self.rr_cursor = 0;
        self.reserved_bytes = 0;
        self.available_bytes = available_bytes;
        self.clock = device_clock;
        self.advancing = false;
        self.record_slices = false;
    }

    pub(crate) fn finish(&mut self) {
        assert!(
            self.queries.iter().all(|q| q.finished),
            "sched_finish with unretired queries"
        );
        self.policy = None;
        self.designated = None;
    }

    pub(crate) fn active(&self) -> bool {
        self.policy.is_some()
    }

    /// Register a query with the session; returns its id. Admission (the
    /// actual reservation) happens separately, in policy order.
    pub(crate) fn register(
        &mut self,
        weight: f64,
        budget_bytes: u64,
    ) -> Result<QueryId, AdmissionError> {
        let clock = self.clock;
        self.register_spec(weight, budget_bytes, clock, 0.0)
    }

    /// Register a query with its full serving spec: arrival time (possibly
    /// in the future) and predicted execution time (the shortest-job
    /// ranking key). Until the
    /// clock reaches its arrival the query is invisible to admission and
    /// designation; when every in-system query has drained and only future
    /// arrivals remain, the clock jumps forward (see
    /// [`SchedState::begin_idle_advance`]).
    pub(crate) fn register_spec(
        &mut self,
        weight: f64,
        budget_bytes: u64,
        arrival_secs: f64,
        predicted_secs: f64,
    ) -> Result<QueryId, AdmissionError> {
        assert!(self.active(), "sched_register outside a session");
        assert!(weight > 0.0, "query weight must be positive");
        assert!(
            arrival_secs.is_finite(),
            "query arrival time must be finite"
        );
        assert!(
            predicted_secs.is_finite() && predicted_secs >= 0.0,
            "predicted time must be finite and non-negative"
        );
        if budget_bytes > self.available_bytes {
            return Err(AdmissionError {
                requested_bytes: budget_bytes,
                available_bytes: self.available_bytes,
            });
        }
        let id = self.queries.len() as QueryId;
        self.queries.push(QuerySched {
            weight,
            budget_bytes,
            predicted_secs,
            admitted: false,
            finished: false,
            shed: false,
            busy_secs: 0.0,
            admitted_secs: 0.0,
            completion_secs: 0.0,
            stamp_secs: arrival_secs,
            arrival_secs,
            arrived: arrival_secs <= self.clock,
            first_turn_secs: None,
            slices: Vec::new(),
            class_name: None,
            slo_secs: None,
        });
        Ok(id)
    }

    /// Attach a serving-class label and latency target to a registered
    /// query, for lifecycle exports and SLO accounting.
    pub(crate) fn annotate(
        &mut self,
        id: QueryId,
        class_name: Option<String>,
        slo_secs: Option<f64>,
    ) {
        let q = &mut self.queries[id as usize];
        q.class_name = class_name;
        q.slo_secs = slo_secs;
    }

    /// The exec slices recorded for a query (empty unless
    /// [`SchedState::record_slices`] was set for the session).
    pub(crate) fn slices(&self, id: QueryId) -> Vec<(f64, f64)> {
        self.queries[id as usize].slices.clone()
    }

    /// Flip queries whose arrival time the clock has reached to arrived;
    /// returns the newly arrived ids in id order (the shed check runs over
    /// exactly these).
    fn mark_arrivals(&mut self) -> Vec<QueryId> {
        let mut newly = Vec::new();
        for (i, q) in self.queries.iter_mut().enumerate() {
            if !q.arrived && q.arrival_secs <= self.clock {
                q.arrived = true;
                newly.push(i as QueryId);
            }
        }
        newly
    }

    /// A query occupying the waiting room: in the system but not yet
    /// holding a reservation.
    fn waiting(q: &QuerySched) -> bool {
        q.arrived && !q.admitted && !q.finished
    }

    /// The policy's ranking key for a waiting or runnable query. Lower
    /// runs (or is admitted) first; ties break toward the lower id at the
    /// call sites.
    fn rank(&self, q: &QuerySched) -> f64 {
        match self.policy {
            Some(SchedPolicy::SjfAging) => {
                // A job's rank decays with its time in system, so waiting
                // long jobs eventually outrank fresh short ones.
                q.predicted_secs / (1.0 + (self.clock - q.arrival_secs).max(0.0))
            }
            _ => q.predicted_secs,
        }
    }

    /// Grant reservations in policy order until one does not fit: id
    /// (FIFO) order for the fair-share policies, predicted-cost order for
    /// the shortest-job policies. The head of the chosen line blocks
    /// everyone behind it, which keeps admission order — and therefore
    /// everything downstream — deterministic. Queries that have not yet
    /// *arrived* are skipped rather than blocking.
    pub(crate) fn admit_pass(&mut self) {
        let cost_ordered = self.policy.is_some_and(|p| p.cost_ordered());
        let mut order: Vec<QueryId> = (0..self.queries.len() as QueryId)
            .filter(|&id| Self::waiting(&self.queries[id as usize]))
            .collect();
        if cost_ordered {
            order.sort_by(|&a, &b| {
                let (qa, qb) = (&self.queries[a as usize], &self.queries[b as usize]);
                self.rank(qa)
                    .partial_cmp(&self.rank(qb))
                    .unwrap()
                    .then(a.cmp(&b))
            });
        }
        for id in order {
            let q = &mut self.queries[id as usize];
            if self.reserved_bytes + q.budget_bytes > self.available_bytes {
                break;
            }
            self.reserved_bytes += q.budget_bytes;
            q.admitted = true;
            q.admitted_secs = self.clock;
            // A query that never launches a kernel completes the moment it
            // is admitted; every completed turn advances this stamp.
            q.stamp_secs = self.clock;
        }
        if self.designated.is_none() {
            self.redesignate();
        }
    }

    /// Shed newly arrived queries that were not admitted on arrival and
    /// find the waiting room full. `candidates` are processed in id order;
    /// a shed query finishes immediately (completion = arrival) without
    /// ever holding a reservation. With unbounded limits this is a no-op.
    pub(crate) fn shed_overflow(&mut self, candidates: &[QueryId]) {
        for &id in candidates {
            if !Self::waiting(&self.queries[id as usize]) {
                continue;
            }
            let others = self
                .queries
                .iter()
                .enumerate()
                .filter(|(i, q)| *i as QueryId != id && Self::waiting(q))
                .count();
            if self.limits.total_depth.is_some_and(|cap| others >= cap) {
                let q = &mut self.queries[id as usize];
                q.finished = true;
                q.shed = true;
                q.completion_secs = q.arrival_secs;
                q.stamp_secs = q.arrival_secs;
            }
        }
    }

    /// Run the arrival pipeline after a registration: admission pass, then
    /// the shed check for the new query if it arrived unadmitted.
    pub(crate) fn on_register(&mut self, id: QueryId) {
        self.admit_pass();
        self.shed_overflow(&[id]);
    }

    /// If the device is idle (no runnable query) but future arrivals exist,
    /// claim the right to jump the clock to the earliest one. Returns the
    /// jump delta; the caller must release the sched lock, advance the
    /// *device* clock by the delta, then commit with
    /// [`SchedState::finish_idle_advance`]. The `advancing` flag keeps the
    /// jump exclusive; designation stays `None` until the commit, so no
    /// kernel can read the device clock mid-jump (any admitted unfinished
    /// query would be designated and therefore block the advance).
    pub(crate) fn begin_idle_advance(&mut self) -> Option<f64> {
        if !self.active() || self.advancing || self.designated.is_some() {
            return None;
        }
        let next = self
            .queries
            .iter()
            .filter(|q| !q.arrived && !q.finished && q.arrival_secs > self.clock)
            .map(|q| q.arrival_secs)
            .fold(f64::INFINITY, f64::min);
        if !next.is_finite() {
            return None;
        }
        self.advancing = true;
        Some(next - self.clock)
    }

    /// Commit an idle advance after the device clock has been moved.
    pub(crate) fn finish_idle_advance(&mut self, delta: f64) {
        debug_assert!(self.advancing, "finish_idle_advance without begin");
        self.advancing = false;
        self.clock += delta;
        let newly = self.mark_arrivals();
        self.admit_pass();
        self.shed_overflow(&newly);
        self.redesignate();
    }

    pub(crate) fn is_admitted(&self, id: QueryId) -> bool {
        self.queries[id as usize].admitted
    }

    pub(crate) fn is_shed(&self, id: QueryId) -> bool {
        self.queries[id as usize].shed
    }

    /// Take the turn if `id` is designated; the designation then holds
    /// until [`SchedState::complete_turn`].
    pub(crate) fn take_turn(&mut self, id: QueryId) -> bool {
        if self.designated != Some(id) {
            return false;
        }
        self.turn_in_flight = true;
        true
    }

    /// Account a completed kernel turn and pass the turn on. The clock
    /// mirror advances with the kernel (the device clock already did, under
    /// the state lock), the owning query's completion stamp moves to the
    /// post-kernel clock, and new arrivals may enter the system.
    pub(crate) fn complete_turn(&mut self, id: QueryId, kernel_secs: f64) {
        debug_assert_eq!(self.designated, Some(id), "turn completed out of order");
        self.turn_in_flight = false;
        let turn_start = self.clock;
        self.queries[id as usize].busy_secs += kernel_secs;
        self.clock += kernel_secs;
        let clock = self.clock;
        {
            let q = &mut self.queries[id as usize];
            q.stamp_secs = clock;
            if q.first_turn_secs.is_none() {
                q.first_turn_secs = Some(turn_start);
            }
            if self.record_slices {
                match q.slices.last_mut() {
                    // Back-to-back turns share a boundary: extend the slice.
                    Some(last) if last.1 == turn_start => last.1 = clock,
                    _ => q.slices.push((turn_start, clock)),
                }
            }
        }
        let newly = self.mark_arrivals();
        self.admit_pass();
        self.shed_overflow(&newly);
        if self.policy == Some(SchedPolicy::RoundRobin) {
            self.rr_cursor = id + 1;
        }
        self.redesignate();
    }

    /// Mark a query finished, release its reservation, and re-run the
    /// admission pass for queued queries. Completion time comes from the
    /// query's turn-gated stamp — the clock right after its last kernel —
    /// never from the live device clock, so it is identical under every
    /// policy and host-thread count.
    pub(crate) fn retire(&mut self, id: QueryId) {
        let q = &mut self.queries[id as usize];
        assert!(!q.finished, "query retired twice");
        q.finished = true;
        q.completion_secs = q.stamp_secs;
        if q.admitted {
            self.reserved_bytes -= q.budget_bytes;
        }
        self.admit_pass();
        self.redesignate();
    }

    pub(crate) fn stats(&self, id: QueryId) -> QuerySchedStats {
        let q = &self.queries[id as usize];
        QuerySchedStats {
            busy_secs: q.busy_secs,
            completion_secs: q.completion_secs,
            admitted_secs: q.admitted_secs,
            arrival_secs: q.arrival_secs,
            started_secs: q.first_turn_secs,
            budget_bytes: q.budget_bytes,
            shed: q.shed,
            class: q.class_name.clone(),
            slo_secs: q.slo_secs,
        }
    }

    /// Recompute the designated query from simulated state only. A no-op
    /// while a turn is in flight: its completion redesignates.
    fn redesignate(&mut self) {
        if self.turn_in_flight {
            return;
        }
        let runnable = |q: &QuerySched| q.arrived && q.admitted && !q.finished;
        let n = self.queries.len() as u32;
        self.designated = match self.policy {
            None => None,
            Some(SchedPolicy::Serial) => {
                self.queries.iter().position(runnable).map(|i| i as QueryId)
            }
            Some(SchedPolicy::RoundRobin) => (0..n)
                .map(|off| (self.rr_cursor + off) % n.max(1))
                .find(|&id| runnable(&self.queries[id as usize])),
            Some(SchedPolicy::WeightedFair) => self
                .queries
                .iter()
                .enumerate()
                .filter(|(_, q)| runnable(q))
                .min_by(|(_, a), (_, b)| {
                    (a.busy_secs / a.weight)
                        .partial_cmp(&(b.busy_secs / b.weight))
                        .unwrap()
                })
                .map(|(i, _)| i as QueryId),
            Some(SchedPolicy::Sjf) | Some(SchedPolicy::SjfAging) => self
                .queries
                .iter()
                .enumerate()
                .filter(|(_, q)| runnable(q))
                .min_by(|(ia, a), (ib, b)| {
                    self.rank(a)
                        .partial_cmp(&self.rank(b))
                        .unwrap()
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i as QueryId),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(policy: SchedPolicy, budgets: &[u64], available: u64) -> SchedState {
        let mut st = SchedState::default();
        st.start(policy, available, 0.0, QueueLimits::default());
        for &b in budgets {
            st.register(1.0, b).unwrap();
        }
        st.admit_pass();
        st
    }

    #[test]
    fn round_robin_cycles_in_id_order() {
        let mut st = session(SchedPolicy::RoundRobin, &[10, 10, 10], 100);
        let mut order = Vec::new();
        for _ in 0..6 {
            let id = st.designated.unwrap();
            order.push(id);
            st.complete_turn(id, 1.0);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        st.retire(1);
        let id = st.designated.unwrap();
        assert_eq!(id, 0, "cursor wraps past the retired query");
        st.complete_turn(id, 1.0);
        assert_eq!(st.designated, Some(2));
    }

    #[test]
    fn serial_runs_to_completion_in_id_order() {
        let mut st = session(SchedPolicy::Serial, &[10, 10], 100);
        for _ in 0..5 {
            assert_eq!(st.designated, Some(0));
            st.complete_turn(0, 1.0);
        }
        st.retire(0);
        assert_eq!(st.designated, Some(1));
        assert_eq!(
            st.stats(0).completion_secs,
            5.0,
            "completion is the post-kernel stamp"
        );
    }

    #[test]
    fn weighted_fair_shares_busy_time_by_weight() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::WeightedFair, 100, 0.0, QueueLimits::default());
        st.register(3.0, 10).unwrap();
        st.register(1.0, 10).unwrap();
        st.admit_pass();
        let mut turns = [0u32; 2];
        for _ in 0..8 {
            let id = st.designated.unwrap();
            turns[id as usize] += 1;
            st.complete_turn(id, 1.0);
        }
        assert_eq!(turns, [6, 2], "3:1 weights split equal-cost turns 3:1");
    }

    #[test]
    fn fifo_admission_blocks_behind_the_head_of_line() {
        // Query 1 does not fit while 0 runs; query 2 would fit but must
        // queue behind 1.
        let mut st = session(SchedPolicy::RoundRobin, &[60, 60, 10], 100);
        assert!(st.is_admitted(0));
        assert!(!st.is_admitted(1));
        assert!(!st.is_admitted(2), "FIFO: 2 queues behind 1");
        assert_eq!(st.designated, Some(0));
        st.retire(0);
        assert!(st.is_admitted(1));
        assert!(st.is_admitted(2), "both fit after 0 released its budget");
    }

    #[test]
    fn future_arrivals_are_invisible_until_the_clock_reaches_them() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::Serial, 100, 0.0, QueueLimits::default());
        st.register_spec(1.0, 10, 5.0, 0.0).unwrap();
        st.admit_pass();
        assert!(!st.is_admitted(0), "query 0 has not arrived yet");
        assert_eq!(st.designated, None);

        // The device is idle with one future arrival: jump to it.
        let delta = st.begin_idle_advance().expect("idle advance available");
        assert_eq!(delta, 5.0);
        assert_eq!(
            st.begin_idle_advance(),
            None,
            "advance is exclusive while in flight"
        );
        st.finish_idle_advance(delta);
        assert!(st.is_admitted(0));
        assert_eq!(st.designated, Some(0));
        assert_eq!(st.stats(0).arrival_secs, 5.0);
        assert_eq!(st.stats(0).admitted_secs, 5.0);
    }

    #[test]
    fn kernel_turns_advance_the_clock_mirror_and_admit_arrivals() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::Serial, 100, 0.0, QueueLimits::default());
        st.register_spec(1.0, 10, 0.0, 0.0).unwrap();
        st.register_spec(1.0, 10, 2.5, 0.0).unwrap();
        st.admit_pass();
        assert_eq!(st.designated, Some(0));
        assert!(!st.is_admitted(1));

        st.complete_turn(0, 1.0);
        assert!(!st.is_admitted(1), "clock at 1.0 < arrival 2.5");
        st.complete_turn(0, 2.0);
        assert!(st.is_admitted(1), "clock at 3.0 >= arrival 2.5");
        assert_eq!(st.stats(1).admitted_secs, 3.0);
        assert_eq!(st.designated, Some(0), "serial still runs query 0");

        st.retire(0);
        assert_eq!(st.designated, Some(1));
        assert_eq!(
            st.stats(0).completion_secs,
            3.0,
            "stamp tracks the last completed turn"
        );
        assert_eq!(
            st.begin_idle_advance(),
            None,
            "no advance while a query is runnable"
        );
    }

    #[test]
    fn sjf_designates_by_predicted_time() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::Sjf, 100, 0.0, QueueLimits::default());
        st.register_spec(1.0, 10, 0.0, 5.0).unwrap();
        st.register_spec(1.0, 10, 0.0, 1.0).unwrap();
        st.register_spec(1.0, 10, 0.0, 3.0).unwrap();
        st.admit_pass();
        assert_eq!(st.designated, Some(1), "smallest predicted time first");
        st.complete_turn(1, 1.0);
        st.retire(1);
        assert_eq!(st.designated, Some(2));
        st.retire(2);
        assert_eq!(st.designated, Some(0));
        st.retire(0);
    }

    #[test]
    fn sjf_preempts_at_kernel_boundaries() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::Sjf, 100, 0.0, QueueLimits::default());
        st.register_spec(1.0, 10, 0.0, 10.0).unwrap();
        st.register_spec(1.0, 10, 0.5, 1.0).unwrap();
        st.admit_pass();
        assert_eq!(st.designated, Some(0), "only job in the system");
        st.complete_turn(0, 1.0);
        assert_eq!(
            st.designated,
            Some(1),
            "shorter arrival takes the next turn"
        );
    }

    #[test]
    fn sjf_admits_reservations_in_cost_order() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::Sjf, 100, 0.0, QueueLimits::default());
        st.register_spec(1.0, 80, 0.0, 9.0).unwrap();
        st.register_spec(1.0, 80, 0.0, 2.0).unwrap();
        st.admit_pass();
        assert!(
            !st.is_admitted(0) && st.is_admitted(1),
            "the shorter job gets the reservation even with a higher id"
        );
        st.retire(1);
        assert!(st.is_admitted(0));
        st.retire(0);
    }

    #[test]
    fn aging_decays_rank_with_waiting_time() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::SjfAging, 100, 0.0, QueueLimits::default());
        // A long job arrives first; short jobs keep arriving behind it.
        // Pure SJF would hand every turn to the freshest short job; aging
        // divides a job's rank by its time in system, so the long job's
        // effective rank decays below a fresh short job's.
        st.register_spec(1.0, 10, 0.0, 8.0).unwrap(); // long
        st.register_spec(1.0, 10, 1.0, 1.0).unwrap(); // short @ 1s
        st.register_spec(1.0, 10, 8.0, 1.0).unwrap(); // short @ 8s
        st.admit_pass();
        assert_eq!(st.designated, Some(0), "only arrival so far");
        st.complete_turn(0, 1.0);
        // Clock 1: the fresh short job (rank 1/1) outranks the barely aged
        // long one (rank 8/2) and preempts it.
        assert_eq!(st.designated, Some(1));
        st.complete_turn(1, 1.0);
        st.retire(1);
        assert_eq!(st.designated, Some(0));
        for _ in 0..6 {
            st.complete_turn(0, 1.0);
        }
        // Clock 8: a brand-new short job arrives (rank 1/1 = 1), but the
        // long job has aged to rank 8/9 < 1 and keeps the device — no
        // starvation.
        assert_eq!(st.designated, Some(0), "aged long job outranks fresh short");
        st.complete_turn(0, 1.0);
        st.retire(0);
        st.retire(2);
    }

    #[test]
    fn full_queue_sheds_on_arrival() {
        let mut st = SchedState::default();
        st.start(
            SchedPolicy::Serial,
            100,
            0.0,
            QueueLimits {
                total_depth: Some(1),
            },
        );
        // 0 takes the whole device; 1 waits (depth 1); 2 finds the waiting
        // room full and is shed.
        st.register(1.0, 100).unwrap();
        st.on_register(0);
        st.register(1.0, 10).unwrap();
        st.on_register(1);
        st.register(1.0, 10).unwrap();
        st.on_register(2);
        assert!(st.is_admitted(0) && !st.is_shed(0));
        assert!(!st.is_admitted(1) && !st.is_shed(1), "within depth: waits");
        assert!(st.is_shed(2), "overflow arrival is shed");
        let s = st.stats(2);
        assert!(s.shed);
        assert_eq!(s.completion_secs, s.arrival_secs);
        st.retire(0);
        assert!(st.is_admitted(1), "the queued query still runs");
        st.retire(1);
        st.finish();
    }

    #[test]
    fn zero_capacity_queue_admits_immediately_or_sheds() {
        let mut st = SchedState::default();
        st.start(
            SchedPolicy::Serial,
            100,
            0.0,
            QueueLimits {
                total_depth: Some(0),
            },
        );
        // Fits right away: admitted, never waited, never shed.
        st.register(1.0, 60).unwrap();
        st.on_register(0);
        assert!(st.is_admitted(0) && !st.is_shed(0));
        // Would have to wait: shed on the spot.
        st.register(1.0, 60).unwrap();
        st.on_register(1);
        assert!(st.is_shed(1));
        st.retire(0);
        st.finish();
    }

    #[test]
    fn retire_during_a_turn_keeps_the_designation() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::Sjf, 100, 0.0, QueueLimits::default());
        st.register_spec(1.0, 60, 0.0, 5.0).unwrap(); // B
        st.on_register(0);
        st.register_spec(1.0, 40, 0.5, 2.0).unwrap(); // A
        st.on_register(1);
        assert_eq!(st.designated, Some(0));
        st.complete_turn(0, 0.5); // B's last turn; A arrives and preempts
        assert_eq!(st.designated, Some(1));
        // A's worker takes its turn.
        assert!(st.take_turn(1));
        // D arrives mid-turn, ranks lowest, and queues behind B's budget.
        st.register_spec(1.0, 50, 0.5, 1.0).unwrap(); // D
        st.on_register(2);
        assert!(!st.is_admitted(2));
        st.retire(0); // admits D, but A's turn is in flight
        assert!(st.is_admitted(2));
        assert_eq!(st.designated, Some(1), "designation fixed mid-turn");
        st.complete_turn(1, 1.0);
        assert_eq!(st.designated, Some(2), "D takes the next turn");
    }

    #[test]
    fn oversized_budget_is_rejected_at_registration() {
        let mut st = SchedState::default();
        st.start(SchedPolicy::Serial, 100, 0.0, QueueLimits::default());
        let err = st.register(1.0, 101).unwrap_err();
        assert_eq!(err.requested_bytes, 101);
        assert_eq!(err.available_bytes, 100);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn budget_error_display_names_the_query() {
        let e = BudgetError {
            query: 3,
            budget_bytes: 1024,
            requested_bytes: 4096,
            in_use_bytes: 512,
            label: "probe.out".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.contains("query 3"));
        assert!(msg.contains("probe.out"));
        assert!(msg.contains("budget"));
    }
}
