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
//! * **Replay of a single kernel stream** — a query executes, on the
//!   calling thread, the moment it is admitted; its kernels charge only its
//!   own virtual state and are logged. The device then replays the logs
//!   one kernel per turn in the order the policy designates: the
//!   designation is a pure function of *simulated* state (query ids,
//!   per-query busy time, weights, predicted costs), so the interleaving —
//!   and with it every counter, clock and trace byte — is a pure function
//!   of the inputs.
//! * **Retire at the last kernel** — a query retires right after its last
//!   kernel's turn (at admission if it launched none): its completion time
//!   is the device clock at that point, and the admission pass its retire
//!   triggers runs at that same clock under every policy.
//! * **Virtualized device state** — each query gets its own counters,
//!   clock, L2 image, trace and budget-capped memory sub-ledger (see
//!   `lib.rs`), so a query's observable execution is touched only by its
//!   own kernels, in program order. Per-query state therefore evolves
//!   identically under any policy, and concurrent execution is
//!   bit-identical to serial.
//!
//! `SchedState` is the pure state machine; every method takes the device
//! clock as an argument instead of keeping a copy of it. The engine's
//! `scheduler` module drives it through the `sched_*` methods of
//! [`crate::Device`].

use serde::{Deserialize, Serialize};

/// Identifier of one admitted query on a device, assigned densely from 0
/// in registration order.
pub type QueryId = u32;

/// How a session picks the next query to run a kernel.
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

/// Error returned by [`crate::Device::sched_register_spec`] when a query's
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
    /// The query's completion time (seconds): the device clock right after
    /// its last kernel turn (its admission time if it ran no kernels; its
    /// arrival time if it was shed).
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
    /// Serving class label given at registration.
    pub class: Option<String>,
    /// Per-class latency target (seconds), when registration set one.
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
    /// Serving class label for lifecycle exports.
    class_name: Option<String>,
    /// Per-class latency target.
    slo_secs: Option<f64>,
}

impl QuerySched {
    /// A query's serving spec: fair-share weight, reservation, arrival
    /// time (possibly in the future), predicted execution time (the
    /// shortest-job ranking key), class label and latency target.
    pub(crate) fn new(
        weight: f64,
        budget_bytes: u64,
        arrival_secs: f64,
        predicted_secs: f64,
        class_name: Option<String>,
        slo_secs: Option<f64>,
    ) -> Self {
        assert!(weight > 0.0, "query weight must be positive");
        assert!(
            arrival_secs.is_finite(),
            "query arrival time must be finite"
        );
        assert!(
            predicted_secs.is_finite() && predicted_secs >= 0.0,
            "predicted time must be finite and non-negative"
        );
        QuerySched {
            weight,
            budget_bytes,
            predicted_secs,
            admitted: false,
            finished: false,
            shed: false,
            busy_secs: 0.0,
            admitted_secs: 0.0,
            completion_secs: 0.0,
            arrival_secs,
            arrived: false,
            first_turn_secs: None,
            slices: Vec::new(),
            class_name,
            slo_secs,
        }
    }
}

/// A session's scheduling state. Lives in the device state, under its one
/// lock; a pure function of the calls made on it.
#[derive(Default)]
pub(crate) struct SchedState {
    policy: Option<SchedPolicy>,
    limits: QueueLimits,
    queries: Vec<QuerySched>,
    designated: Option<QueryId>,
    /// Queries admitted since the last [`SchedState::take_admitted`], in
    /// admission order: the replay executes each before its first turn.
    admitted_log: Vec<QueryId>,
    /// Round-robin resume point: the first id considered for the next turn.
    rr_cursor: u32,
    /// Sum of granted (admitted, unretired) reservations.
    reserved_bytes: u64,
    /// Free device bytes at session start (capacity minus base residents).
    available_bytes: u64,
    /// Record per-query exec slices in [`SchedState::complete_turn`]. Set
    /// by the device when lifecycle tracing is active at session start;
    /// zero-cost (one branch per turn) otherwise.
    pub(crate) record_slices: bool,
}

impl SchedState {
    pub(crate) fn start(&mut self, policy: SchedPolicy, available_bytes: u64, limits: QueueLimits) {
        assert!(
            self.policy.is_none(),
            "a scheduling session is already active on this device"
        );
        *self = SchedState {
            policy: Some(policy),
            limits,
            available_bytes,
            ..SchedState::default()
        };
    }

    pub(crate) fn finish(&mut self) {
        assert!(
            self.queries.iter().all(|q| q.finished),
            "scheduling session ended with unretired queries"
        );
        self.policy = None;
        self.designated = None;
    }

    pub(crate) fn active(&self) -> bool {
        self.policy.is_some()
    }

    /// Register a query, then run the arrival pipeline: an admission pass
    /// at `now`, and the shed check if the query arrived unadmitted. Until
    /// the clock reaches its arrival the query is invisible to admission
    /// and designation.
    pub(crate) fn register_spec(
        &mut self,
        mut q: QuerySched,
        now: f64,
    ) -> Result<QueryId, AdmissionError> {
        assert!(self.active(), "sched_register_spec outside a session");
        if q.budget_bytes > self.available_bytes {
            return Err(AdmissionError {
                requested_bytes: q.budget_bytes,
                available_bytes: self.available_bytes,
            });
        }
        let id = self.queries.len() as QueryId;
        q.arrived = q.arrival_secs <= now;
        self.queries.push(q);
        self.admit_pass(now);
        self.shed_overflow(&[id]);
        Ok(id)
    }

    /// The exec slices recorded for a query (empty unless
    /// [`SchedState::record_slices`] was set for the session).
    pub(crate) fn slices(&self, id: QueryId) -> Vec<(f64, f64)> {
        self.queries[id as usize].slices.clone()
    }

    /// A query occupying the waiting room: in the system but not yet
    /// holding a reservation.
    fn waiting(q: &QuerySched) -> bool {
        q.arrived && !q.admitted && !q.finished
    }

    /// The policy's ranking key at clock `now` for a waiting or runnable
    /// query. Lower runs (or is admitted) first; ties break toward the
    /// lower id at the call sites.
    fn rank(&self, q: &QuerySched, now: f64) -> f64 {
        match self.policy {
            Some(SchedPolicy::SjfAging) => {
                // A job's rank decays with its time in system, so waiting
                // long jobs eventually outrank fresh short ones.
                q.predicted_secs / (1.0 + (now - q.arrival_secs).max(0.0))
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
    fn admit_pass(&mut self, now: f64) {
        let cost_ordered = self.policy.is_some_and(|p| p.cost_ordered());
        let mut order: Vec<QueryId> = (0..self.queries.len() as QueryId)
            .filter(|&id| Self::waiting(&self.queries[id as usize]))
            .collect();
        if cost_ordered {
            order.sort_by(|&a, &b| {
                let (qa, qb) = (&self.queries[a as usize], &self.queries[b as usize]);
                self.rank(qa, now)
                    .partial_cmp(&self.rank(qb, now))
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
            q.admitted_secs = now;
            self.admitted_log.push(id);
        }
        if self.designated.is_none() {
            self.redesignate(now);
        }
    }

    /// Shed newly arrived queries that were not admitted on arrival and
    /// find the waiting room full. `candidates` are processed in id order;
    /// a shed query finishes immediately (completion = arrival) without
    /// ever holding a reservation. With unbounded limits this is a no-op.
    fn shed_overflow(&mut self, candidates: &[QueryId]) {
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
            }
        }
    }

    /// The clock moved to `now` (after a kernel turn, or an idle jump to
    /// [`SchedState::next_arrival`]): queries whose arrival it reached
    /// enter the system, the admission pass runs, newly arrived queries
    /// that find the waiting room full are shed, and the designation is
    /// recomputed.
    pub(crate) fn arrive(&mut self, now: f64) {
        let mut newly = Vec::new();
        for (i, q) in self.queries.iter_mut().enumerate() {
            if !q.arrived && q.arrival_secs <= now {
                q.arrived = true;
                newly.push(i as QueryId);
            }
        }
        self.admit_pass(now);
        self.shed_overflow(&newly);
        self.redesignate(now);
    }

    /// The earliest arrival after `now`: the time an idle clock jumps to.
    pub(crate) fn next_arrival(&self, now: f64) -> Option<f64> {
        let next = self
            .queries
            .iter()
            .filter(|q| !q.arrived && !q.finished && q.arrival_secs > now)
            .map(|q| q.arrival_secs)
            .fold(f64::INFINITY, f64::min);
        next.is_finite().then_some(next)
    }

    /// The query designated to run the next kernel turn.
    pub(crate) fn designated(&self) -> Option<QueryId> {
        self.designated
    }

    /// Drain the queries admitted since the last call, in admission order.
    pub(crate) fn take_admitted(&mut self) -> Vec<QueryId> {
        std::mem::take(&mut self.admitted_log)
    }

    #[cfg(test)]
    fn is_admitted(&self, id: QueryId) -> bool {
        self.queries[id as usize].admitted
    }

    #[cfg(test)]
    fn is_shed(&self, id: QueryId) -> bool {
        self.queries[id as usize].shed
    }

    /// Account the designated query's kernel turn `[start, now]` of
    /// `kernel_secs` and pass the turn on; new arrivals may enter the
    /// system.
    pub(crate) fn complete_turn(&mut self, id: QueryId, kernel_secs: f64, start: f64, now: f64) {
        debug_assert_eq!(self.designated, Some(id), "turn completed out of order");
        let q = &mut self.queries[id as usize];
        q.busy_secs += kernel_secs;
        q.first_turn_secs.get_or_insert(start);
        if self.record_slices {
            match q.slices.last_mut() {
                // Back-to-back turns share a boundary: extend the slice.
                Some(last) if last.1 == start => last.1 = now,
                _ => q.slices.push((start, now)),
            }
        }
        if self.policy == Some(SchedPolicy::RoundRobin) {
            self.rr_cursor = id + 1;
        }
        self.arrive(now);
    }

    /// Mark a query finished at clock `now`, release its reservation, and
    /// re-run the admission pass for queued queries.
    pub(crate) fn retire(&mut self, id: QueryId, now: f64) {
        let q = &mut self.queries[id as usize];
        assert!(!q.finished, "query retired twice");
        q.finished = true;
        q.completion_secs = now;
        if q.admitted {
            self.reserved_bytes -= q.budget_bytes;
        }
        self.admit_pass(now);
        self.redesignate(now);
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

    /// Recompute the designated query from simulated state only.
    fn redesignate(&mut self, now: f64) {
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
                    self.rank(a, now)
                        .partial_cmp(&self.rank(b, now))
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

    /// A session plus the device clock it is driven at, advanced the way
    /// the device's replay advances it.
    struct Session {
        st: SchedState,
        now: f64,
    }

    impl Session {
        fn new(policy: SchedPolicy, available: u64, limits: QueueLimits) -> Self {
            let mut st = SchedState::default();
            st.start(policy, available, limits);
            Session { st, now: 0.0 }
        }

        fn with_budgets(policy: SchedPolicy, budgets: &[u64], available: u64) -> Self {
            let mut s = Session::new(policy, available, QueueLimits::default());
            for &b in budgets {
                s.register(1.0, b, 0.0, 0.0).unwrap();
            }
            s
        }

        fn register(
            &mut self,
            weight: f64,
            budget: u64,
            arrival: f64,
            predicted: f64,
        ) -> Result<QueryId, AdmissionError> {
            let q = QuerySched::new(weight, budget, arrival, predicted, None, None);
            self.st.register_spec(q, self.now)
        }

        /// Run one kernel turn of `secs` for the designated query `id`.
        fn turn(&mut self, id: QueryId, secs: f64) {
            let start = self.now;
            self.now += secs;
            self.st.complete_turn(id, secs, start, self.now);
        }

        fn retire(&mut self, id: QueryId) {
            self.st.retire(id, self.now);
        }

        fn designated(&self) -> Option<QueryId> {
            self.st.designated()
        }
    }

    #[test]
    fn round_robin_cycles_in_id_order() {
        let mut s = Session::with_budgets(SchedPolicy::RoundRobin, &[10, 10, 10], 100);
        let mut order = Vec::new();
        for _ in 0..6 {
            let id = s.designated().unwrap();
            order.push(id);
            s.turn(id, 1.0);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        s.retire(1);
        let id = s.designated().unwrap();
        assert_eq!(id, 0, "cursor wraps past the retired query");
        s.turn(id, 1.0);
        assert_eq!(s.designated(), Some(2));
    }

    #[test]
    fn serial_runs_to_completion_in_id_order() {
        let mut s = Session::with_budgets(SchedPolicy::Serial, &[10, 10], 100);
        for _ in 0..5 {
            assert_eq!(s.designated(), Some(0));
            s.turn(0, 1.0);
        }
        s.retire(0);
        assert_eq!(s.designated(), Some(1));
        assert_eq!(
            s.st.stats(0).completion_secs,
            5.0,
            "completion is the clock at retire"
        );
    }

    #[test]
    fn weighted_fair_shares_busy_time_by_weight() {
        let mut s = Session::new(SchedPolicy::WeightedFair, 100, QueueLimits::default());
        s.register(3.0, 10, 0.0, 0.0).unwrap();
        s.register(1.0, 10, 0.0, 0.0).unwrap();
        let mut turns = [0u32; 2];
        for _ in 0..8 {
            let id = s.designated().unwrap();
            turns[id as usize] += 1;
            s.turn(id, 1.0);
        }
        assert_eq!(turns, [6, 2], "3:1 weights split equal-cost turns 3:1");
    }

    #[test]
    fn fifo_admission_blocks_behind_the_head_of_line() {
        // Query 1 does not fit while 0 runs; query 2 would fit but must
        // queue behind 1.
        let mut s = Session::with_budgets(SchedPolicy::RoundRobin, &[60, 60, 10], 100);
        assert!(s.st.is_admitted(0));
        assert!(!s.st.is_admitted(1));
        assert!(!s.st.is_admitted(2), "FIFO: 2 queues behind 1");
        assert_eq!(s.designated(), Some(0));
        s.retire(0);
        assert!(s.st.is_admitted(1));
        assert!(s.st.is_admitted(2), "both fit after 0 released its budget");
        assert_eq!(s.st.take_admitted(), vec![0, 1, 2], "admission order");
    }

    #[test]
    fn future_arrivals_are_invisible_until_the_clock_reaches_them() {
        let mut s = Session::new(SchedPolicy::Serial, 100, QueueLimits::default());
        s.register(1.0, 10, 5.0, 0.0).unwrap();
        assert!(!s.st.is_admitted(0), "query 0 has not arrived yet");
        assert_eq!(s.designated(), None);

        // The device is idle with one future arrival: jump to it.
        let next = s.st.next_arrival(s.now).expect("idle advance available");
        assert_eq!(next, 5.0);
        s.now += next - s.now;
        s.st.arrive(s.now);
        assert!(s.st.is_admitted(0));
        assert_eq!(s.designated(), Some(0));
        assert_eq!(s.st.stats(0).arrival_secs, 5.0);
        assert_eq!(s.st.stats(0).admitted_secs, 5.0);
    }

    #[test]
    fn kernel_turns_advance_the_clock_and_admit_arrivals() {
        let mut s = Session::new(SchedPolicy::Serial, 100, QueueLimits::default());
        s.register(1.0, 10, 0.0, 0.0).unwrap();
        s.register(1.0, 10, 2.5, 0.0).unwrap();
        assert_eq!(s.designated(), Some(0));
        assert!(!s.st.is_admitted(1));

        s.turn(0, 1.0);
        assert!(!s.st.is_admitted(1), "clock at 1.0 < arrival 2.5");
        s.turn(0, 2.0);
        assert!(s.st.is_admitted(1), "clock at 3.0 >= arrival 2.5");
        assert_eq!(s.st.stats(1).admitted_secs, 3.0);
        assert_eq!(s.designated(), Some(0), "serial still runs query 0");

        s.retire(0);
        assert_eq!(s.designated(), Some(1));
        assert_eq!(s.st.stats(0).completion_secs, 3.0);
    }

    #[test]
    fn sjf_designates_by_predicted_time() {
        // All three arrive together, after the clock jumps to them.
        let mut s = Session::new(SchedPolicy::Sjf, 100, QueueLimits::default());
        s.register(1.0, 10, 1.0, 5.0).unwrap();
        s.register(1.0, 10, 1.0, 1.0).unwrap();
        s.register(1.0, 10, 1.0, 3.0).unwrap();
        s.now = s.st.next_arrival(s.now).unwrap();
        s.st.arrive(s.now);
        assert_eq!(s.designated(), Some(1), "smallest predicted time first");
        s.turn(1, 1.0);
        s.retire(1);
        assert_eq!(s.designated(), Some(2));
        s.retire(2);
        assert_eq!(s.designated(), Some(0));
        s.retire(0);
    }

    #[test]
    fn sjf_preempts_at_kernel_boundaries() {
        let mut s = Session::new(SchedPolicy::Sjf, 100, QueueLimits::default());
        s.register(1.0, 10, 0.0, 10.0).unwrap();
        s.register(1.0, 10, 0.5, 1.0).unwrap();
        assert_eq!(s.designated(), Some(0), "only job in the system");
        s.turn(0, 1.0);
        assert_eq!(
            s.designated(),
            Some(1),
            "shorter arrival takes the next turn"
        );
    }

    #[test]
    fn sjf_admits_reservations_in_cost_order() {
        // 0 holds the device while 1 and 2 queue; when it retires, the
        // shorter job gets the reservation even with a higher id.
        let mut s = Session::new(SchedPolicy::Sjf, 100, QueueLimits::default());
        s.register(1.0, 30, 0.0, 1.0).unwrap();
        s.register(1.0, 80, 0.0, 9.0).unwrap();
        s.register(1.0, 80, 0.0, 2.0).unwrap();
        assert!(!s.st.is_admitted(1) && !s.st.is_admitted(2));
        s.retire(0);
        assert!(
            !s.st.is_admitted(1) && s.st.is_admitted(2),
            "the shorter job gets the reservation even with a higher id"
        );
        s.retire(2);
        assert!(s.st.is_admitted(1));
        s.retire(1);
    }

    #[test]
    fn aging_decays_rank_with_waiting_time() {
        let mut s = Session::new(SchedPolicy::SjfAging, 100, QueueLimits::default());
        // A long job arrives first; short jobs keep arriving behind it.
        // Pure SJF would hand every turn to the freshest short job; aging
        // divides a job's rank by its time in system, so the long job's
        // effective rank decays below a fresh short job's.
        s.register(1.0, 10, 0.0, 8.0).unwrap(); // long
        s.register(1.0, 10, 1.0, 1.0).unwrap(); // short @ 1s
        s.register(1.0, 10, 8.0, 1.0).unwrap(); // short @ 8s
        assert_eq!(s.designated(), Some(0), "only arrival so far");
        s.turn(0, 1.0);
        // Clock 1: the fresh short job (rank 1/1) outranks the barely aged
        // long one (rank 8/2) and preempts it.
        assert_eq!(s.designated(), Some(1));
        s.turn(1, 1.0);
        s.retire(1);
        assert_eq!(s.designated(), Some(0));
        for _ in 0..6 {
            s.turn(0, 1.0);
        }
        // Clock 8: a brand-new short job arrives (rank 1/1 = 1), but the
        // long job has aged to rank 8/9 < 1 and keeps the device — no
        // starvation.
        assert_eq!(
            s.designated(),
            Some(0),
            "aged long job outranks fresh short"
        );
        s.turn(0, 1.0);
        s.retire(0);
        s.retire(2);
    }

    #[test]
    fn full_queue_sheds_on_arrival() {
        let limits = QueueLimits {
            total_depth: Some(1),
        };
        let mut s = Session::new(SchedPolicy::Serial, 100, limits);
        // 0 takes the whole device; 1 waits (depth 1); 2 finds the waiting
        // room full and is shed.
        s.register(1.0, 100, 0.0, 0.0).unwrap();
        s.register(1.0, 10, 0.0, 0.0).unwrap();
        s.register(1.0, 10, 0.0, 0.0).unwrap();
        assert!(s.st.is_admitted(0) && !s.st.is_shed(0));
        assert!(
            !s.st.is_admitted(1) && !s.st.is_shed(1),
            "within depth: waits"
        );
        assert!(s.st.is_shed(2), "overflow arrival is shed");
        let stats = s.st.stats(2);
        assert!(stats.shed);
        assert_eq!(stats.completion_secs, stats.arrival_secs);
        s.retire(0);
        assert!(s.st.is_admitted(1), "the queued query still runs");
        s.retire(1);
        s.st.finish();
    }

    #[test]
    fn zero_capacity_queue_admits_immediately_or_sheds() {
        let limits = QueueLimits {
            total_depth: Some(0),
        };
        let mut s = Session::new(SchedPolicy::Serial, 100, limits);
        // Fits right away: admitted, never waited, never shed.
        s.register(1.0, 60, 0.0, 0.0).unwrap();
        assert!(s.st.is_admitted(0) && !s.st.is_shed(0));
        // Would have to wait: shed on the spot.
        s.register(1.0, 60, 0.0, 0.0).unwrap();
        assert!(s.st.is_shed(1));
        s.retire(0);
        s.st.finish();
    }

    #[test]
    fn retire_at_the_last_kernel_admits_at_that_clock() {
        // B holds 60 of 100 bytes; A (40) and D (50) arrive together at
        // the end of B's last kernel. D ranks first but does not fit
        // beside B, so both wait. The replay retires B right after that
        // kernel's turn, so D is admitted at exactly that clock and takes
        // the next turn.
        let mut s = Session::new(SchedPolicy::Sjf, 100, QueueLimits::default());
        let b = s.register(1.0, 60, 0.0, 5.0).unwrap();
        let a = s.register(1.0, 40, 0.5, 2.0).unwrap();
        let d = s.register(1.0, 50, 0.5, 1.0).unwrap();
        assert_eq!(s.st.take_admitted(), vec![b]);
        s.turn(b, 0.25);
        s.turn(b, 0.25); // B's last kernel; A and D arrive
        assert!(!s.st.is_admitted(a) && !s.st.is_admitted(d));
        assert_eq!(s.designated(), Some(b));
        s.retire(b);
        assert_eq!(s.st.stats(b).completion_secs, 0.5);
        assert_eq!(s.st.take_admitted(), vec![d, a], "SJF admission order");
        assert_eq!(s.st.stats(d).admitted_secs, 0.5);
        assert_eq!(s.st.stats(a).admitted_secs, 0.5);
        assert_eq!(s.designated(), Some(d), "D takes the next turn");
        s.turn(d, 1.0);
        s.retire(d);
        assert_eq!(s.designated(), Some(a));
    }

    #[test]
    fn oversized_budget_is_rejected_at_registration() {
        let mut s = Session::new(SchedPolicy::Serial, 100, QueueLimits::default());
        let err = s.register(1.0, 101, 0.0, 0.0).unwrap_err();
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
