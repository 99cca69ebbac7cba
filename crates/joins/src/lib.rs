//! # joins — the paper's join implementations
//!
//! Four GPU join variants around the two transformation strategies (sort,
//! partition) and the two materialization patterns (GFUR, GFTR):
//!
//! | name                        | transform        | materialization | section |
//! |-----------------------------|------------------|-----------------|---------|
//! | [`smj::smj_um`] (SMJ-UM)    | sort (key, ID)   | GFUR, unclustered gathers | 3.1 |
//! | [`smj::smj_om`] (SMJ-OM)    | sort all columns | GFTR, clustered gathers   | 4.2 |
//! | [`phj_um::phj_um`] (PHJ-UM) | bucket-chain partition (key, ID) | GFUR | 3.2 |
//! | [`phj_om::phj_om`] (PHJ-OM) | stable radix partition, all columns | GFTR (or GFUR) | 4.3 |
//!
//! plus the two baselines of the evaluation:
//!
//! * [`nphj::nphj`] — non-partitioned global-hash-table join (cuDF stand-in);
//! * [`cpu::cpu_radix_join`] — a real multi-threaded CPU radix join
//!   (Balkesen et al. stand-in), measured in host wall-clock.
//!
//! All of them consume [`columnar::Relation`]s and produce a [`JoinOutput`]
//! with the materialized result plus per-phase timing and peak memory.
//! [`oracle::hash_join_oracle`] provides the reference results the test
//! suite checks every implementation against, and [`plan`] chains joins into
//! the star-schema pipelines of Figure 16.

pub mod chunked;
pub mod cpu;
pub mod kinds;
pub mod nphj;
pub mod oracle;
pub mod phj_om;
pub mod phj_um;
pub mod plan;
pub mod smj;

pub use kinds::JoinKind;

use columnar::{Column, Relation};
use serde::{Deserialize, Serialize};
use sim::{Device, OpStats, PhaseTimes, SimTime};

/// Which join implementation to run — the paper's four variants plus the
/// two baselines. The short labels (SU/PU/SO/PO) follow Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Sort-merge join, unoptimized materialization (GFUR).
    SmjUm,
    /// Sort-merge join, optimized materialization (GFTR).
    SmjOm,
    /// Bucket-chain partitioned hash join, unoptimized materialization.
    PhjUm,
    /// Radix-partitioned hash join, optimized materialization.
    PhjOm,
    /// Radix-partitioned hash join run in GFUR mode (Section 4.3's remark
    /// that the new implementation can also skip payload partitioning).
    PhjOmGfur,
    /// Non-partitioned global hash join (cuDF baseline).
    Nphj,
    /// Multi-threaded CPU radix join (Balkesen et al. baseline).
    CpuRadix,
}

impl Algorithm {
    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::SmjUm => "SMJ-UM",
            Algorithm::SmjOm => "SMJ-OM",
            Algorithm::PhjUm => "PHJ-UM",
            Algorithm::PhjOm => "PHJ-OM",
            Algorithm::PhjOmGfur => "PHJ-OM/GFUR",
            Algorithm::Nphj => "NPHJ",
            Algorithm::CpuRadix => "CPU",
        }
    }

    /// The materialization strategy label (the paper's Section 4.2 split):
    /// `"GFTR"` for gather-from-transformed-relations variants, `"GFUR"`
    /// for gather-from-untransformed-relations, `"CPU"` for the host
    /// baseline.
    pub fn materialization(self) -> &'static str {
        match self {
            Algorithm::SmjOm | Algorithm::PhjOm => "GFTR",
            Algorithm::SmjUm | Algorithm::PhjUm | Algorithm::PhjOmGfur | Algorithm::Nphj => "GFUR",
            Algorithm::CpuRadix => "CPU",
        }
    }

    /// All GPU variants compared throughout Section 5.
    pub const GPU_VARIANTS: [Algorithm; 4] = [
        Algorithm::SmjUm,
        Algorithm::SmjOm,
        Algorithm::PhjUm,
        Algorithm::PhjOm,
    ];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pre-allocated output memory, matching the paper's measurement protocol
/// (Section 4.4 assumes "the output relation is already allocated"; Section
/// 5.2.6: "we allocate the majority of the consumed memory before executing
/// the join"). One reservation piece per output column, released right
/// before the real column is written so nothing is double-counted. The
/// pieces are ledger charges only: nothing reads them, so they hold no
/// host bytes.
pub(crate) struct OutputReservation {
    keys: Option<sim::Reservation>,
    r_cols: Vec<Option<sim::Reservation>>,
    s_cols: Vec<Option<sim::Reservation>>,
}

impl OutputReservation {
    /// Reserve space for `rows` output rows of `r ⋈ s`'s schema.
    pub(crate) fn new(dev: &Device, r: &Relation, s: &Relation, rows: usize) -> Self {
        let piece = |dtype: columnar::DType| {
            Some(dev.reserve(rows as u64 * dtype.size(), "output_reservation"))
        };
        OutputReservation {
            keys: piece(r.key().dtype()),
            r_cols: r.payloads().iter().map(|c| piece(c.dtype())).collect(),
            s_cols: s.payloads().iter().map(|c| piece(c.dtype())).collect(),
        }
    }

    /// Release the key column's reservation (call right before the match
    /// keys are written).
    pub(crate) fn release_keys(&mut self) {
        self.keys = None;
    }

    /// Release R payload column `i`'s reservation.
    pub(crate) fn release_r(&mut self, i: usize) {
        self.r_cols[i] = None;
    }

    /// Release S payload column `i`'s reservation.
    pub(crate) fn release_s(&mut self, i: usize) {
        self.s_cols[i] = None;
    }
}

/// The output-size estimate used for the reservation: the caller's explicit
/// expectation, else the PK-FK default `|T| = |S|` (the paper's setting).
pub(crate) fn estimated_out_rows(config: &JoinConfig, s: &Relation) -> usize {
    config.expected_out_rows.unwrap_or_else(|| s.len())
}

/// Tuning knobs shared by the join implementations.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Declare the build side (R) duplicate-free — the PK-FK case the paper
    /// focuses on. Enables the single-bounds-pass merge join.
    pub unique_build: bool,
    /// Radix bits for the partitioned joins; `None` sizes partitions to the
    /// device's shared memory (the paper's 15-16 bits at 2^27 tuples).
    pub radix_bits: Option<u32>,
    /// Bucket capacity (tuples) for the bucket-chain partitioner of PHJ-UM;
    /// `0` (the default) sizes buckets to the shared-memory hash table.
    pub bucket_tuples: usize,
    /// Seed for the simulated block scheduler — different seeds expose
    /// PHJ-UM's non-deterministic partition layouts (Section 4.3).
    pub scheduler_seed: u64,
    /// Expected output cardinality, used to pre-allocate the output
    /// relation (the paper's protocol). `None` assumes the PK-FK case
    /// `|T| = |S|`.
    pub expected_out_rows: Option<usize>,
    /// Join semantics: inner (the paper's setting), or probe-side
    /// semi/anti/outer (see [`kinds::JoinKind`]).
    pub kind: JoinKind,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            unique_build: true,
            radix_bits: None,
            bucket_tuples: 0,
            scheduler_seed: 0,
            expected_out_rows: None,
            kind: JoinKind::Inner,
        }
    }
}

/// Execution report for one join: the algorithm that ran plus the shared
/// per-operator report ([`sim::OpStats`]: phases, rows, peak memory,
/// hardware counters). Dereferences to [`OpStats`], so `stats.phases`,
/// `stats.rows`, `stats.peak_mem_bytes` and the former
/// `JoinStats::throughput_tuples` helper (now [`OpStats::throughput_tuples`])
/// all keep working unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinStats {
    /// Which implementation produced this.
    pub algorithm: Algorithm,
    /// The shared per-operator report.
    pub op: OpStats,
}

impl JoinStats {
    /// Assemble from the measurements every join implementation takes; the
    /// hardware-counter delta is filled in centrally by [`run_join`].
    pub fn new(algorithm: Algorithm, phases: PhaseTimes, rows: usize, peak_mem_bytes: u64) -> Self {
        JoinStats {
            algorithm,
            op: OpStats::new(phases, rows, peak_mem_bytes),
        }
    }
}

impl std::ops::Deref for JoinStats {
    type Target = OpStats;
    fn deref(&self) -> &OpStats {
        &self.op
    }
}

/// A materialized join result `T(k, r_1..r_n, s_1..s_m)` plus statistics.
pub struct JoinOutput {
    /// The matched key column.
    pub keys: Column,
    /// Materialized payload columns from R, in schema order.
    pub r_payloads: Vec<Column>,
    /// Materialized payload columns from S, in schema order.
    pub s_payloads: Vec<Column>,
    /// Timing and memory report.
    pub stats: JoinStats,
}

impl JoinOutput {
    /// Output cardinality.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the join matched nothing.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// All rows as widened tuples `(key, r payloads…, s payloads…)`, sorted —
    /// an order-insensitive form for oracle comparison in tests.
    pub fn rows_sorted(&self) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = (0..self.len())
            .map(|i| {
                let mut row = Vec::with_capacity(1 + self.r_payloads.len() + self.s_payloads.len());
                row.push(self.keys.value(i));
                row.extend(self.r_payloads.iter().map(|c| c.value(i)));
                row.extend(self.s_payloads.iter().map(|c| c.value(i)));
                row
            })
            .collect();
        rows.sort_unstable();
        rows
    }
}

/// Run `algorithm` on `(r, s)` — the uniform entry point used by the
/// benchmark harness, the engine's operator layer and the decision-tree
/// validation. Captures the per-join hardware-counter delta (Table 4
/// metrics) into the shared [`OpStats`] report.
pub fn run_join(
    dev: &Device,
    algorithm: Algorithm,
    r: &Relation,
    s: &Relation,
    config: &JoinConfig,
) -> JoinOutput {
    let before = dev.counters();
    let t0 = dev.elapsed();
    // A nested peak bracket: the algorithm's own watermark reset must not
    // hide what the enclosing operator and query held before it.
    let (mut out, _) = dev.peak_bracket(|| match algorithm {
        Algorithm::SmjUm => smj::smj_um(dev, r, s, config),
        Algorithm::SmjOm => smj::smj_om(dev, r, s, config),
        Algorithm::PhjUm => phj_um::phj_um(dev, r, s, config),
        Algorithm::PhjOm => phj_om::phj_om(dev, r, s, config),
        Algorithm::PhjOmGfur => phj_om::phj_om_gfur(dev, r, s, config),
        Algorithm::Nphj => nphj::nphj(dev, r, s, config),
        Algorithm::CpuRadix => cpu::cpu_radix_join(dev, r, s, config),
    });
    out.stats.op.counters = dev.counters().delta_since(&before).0;
    out.stats.op.query = dev.query_id();
    dev.trace_span(sim::SpanCat::Join, algorithm.name(), t0, dev.elapsed());
    out
}

/// Time a closure in simulated device time.
pub(crate) fn timed<T>(dev: &Device, f: impl FnOnce() -> T) -> (T, SimTime) {
    let t0 = dev.elapsed();
    let out = f();
    (out, dev.elapsed() - t0)
}

/// Time a closure in simulated device time *and* record it as a paper-phase
/// span (`transform` / `match_find` / `materialize`) on the device trace.
/// The returned duration is exactly the recorded span's, so phase-span sums
/// in a trace reproduce [`sim::PhaseTimes`] bit for bit.
pub(crate) fn timed_phase<T>(
    dev: &Device,
    phase: &'static str,
    f: impl FnOnce() -> T,
) -> (T, SimTime) {
    let t0 = dev.elapsed();
    let out = f();
    let t1 = dev.elapsed();
    dev.trace_span(sim::SpanCat::Phase, phase, t0, t1);
    (out, t1 - t0)
}

/// Pick the radix fan-out: partitions sized to the shared-memory hash table,
/// clamped to the 2-pass range the paper uses (Section 4.3).
pub(crate) fn choose_radix_bits(
    dev: &Device,
    build_rows: usize,
    key_bytes: u64,
    config: &JoinConfig,
) -> u32 {
    if let Some(bits) = config.radix_bits {
        return bits;
    }
    let target = dev.config().shared_mem_tuples(key_bytes + 4).max(64);
    let parts = (build_rows as u64).div_ceil(target).max(1);
    (64 - (parts - 1).leading_zeros()).clamp(1, 16)
}
