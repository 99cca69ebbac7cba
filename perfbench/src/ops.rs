//! `ops_gftr` and `ops_gfur`: the paper's operators called directly,
//! bypassing engine, SQL and scheduler.
//!
//! Both sides run on the same relations. GFTR (gather from transformed
//! relations) runs SMJ-OM and PHJ-OM, the SORT-OM and PART-OM group-bys and
//! a clustered gather; GFUR (gather from untransformed relations) runs
//! SMJ-UM, PHJ-UM and NPHJ, the SORT-UM, PART-UM and HASH group-bys and an
//! unclustered gather. Every group-by algorithm is measured, not only the
//! one the engine would pick.

use crate::{device, row_checksum, splitmix64, Opts, Outcome, Passes};
use columnar::Relation;
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use joins::{Algorithm, JoinConfig};
use serde_json::json;
use sim::{Device, DeviceBuffer};
use std::time::Instant;
use workloads::agg::AggWorkload;
use workloads::JoinWorkload;

/// Paper-regime scale: log2 of the build relation's tuples.
const SCALE: u32 = 18;
/// Build side R of the wide join; S has twice as many tuples.
const JOIN_R: usize = 1 << SCALE;
/// Group-by input rows and distinct groups (128 rows per group).
const AGG_ROWS: usize = 1 << 19;
const AGG_GROUPS: usize = 1 << 12;
/// Gathered 4-byte items (source and map both this long).
const GATHER_N: usize = 1 << 20;
/// The group-by aggregates: one sum over the payload column.
const AGGS: [AggFn; 1] = [AggFn::Sum];

/// Every join algorithm either side runs.
pub const JOIN_ALGS: [Algorithm; 5] = [
    Algorithm::SmjOm,
    Algorithm::PhjOm,
    Algorithm::SmjUm,
    Algorithm::PhjUm,
    Algorithm::Nphj,
];

/// Every group-by algorithm either side runs.
pub const GROUPBY_ALGS: [GroupByAlgorithm; 5] = [
    GroupByAlgorithm::SortGftr,
    GroupByAlgorithm::PartitionedGftr,
    GroupByAlgorithm::SortGfur,
    GroupByAlgorithm::PartitionedGfur,
    GroupByAlgorithm::HashGlobal,
];

/// Which materialization strategy a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Gather from transformed relations: clustered gathers.
    Gftr,
    /// Gather from untransformed relations: random gathers.
    Gfur,
}

impl Side {
    fn joins(self) -> &'static [Algorithm] {
        match self {
            Side::Gftr => &JOIN_ALGS[..2],
            Side::Gfur => &JOIN_ALGS[2..],
        }
    }

    fn group_bys(self) -> &'static [GroupByAlgorithm] {
        match self {
            Side::Gftr => &GROUPBY_ALGS[..2],
            Side::Gfur => &GROUPBY_ALGS[2..],
        }
    }
}

/// The inputs of one pass, uploaded to that pass's device.
struct Inputs {
    r: Relation,
    s: Relation,
    agg: Relation,
    src: DeviceBuffer<i32>,
    map: DeviceBuffer<u32>,
}

/// The gather map: sorted random row ids when clustered (what a GFTR
/// gather sees after the transform), a random permutation otherwise.
fn gather_map(seed: u64, clustered: bool) -> Vec<u32> {
    let mut rng = seed ^ 0x6761_7468_6572; // "gather"
    let n = GATHER_N as u64;
    if clustered {
        let mut map: Vec<u32> = (0..n).map(|_| (splitmix64(&mut rng) % n) as u32).collect();
        map.sort_unstable();
        map
    } else {
        let mut map: Vec<u32> = (0..GATHER_N as u32).collect();
        for i in (1..map.len()).rev() {
            let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
            map.swap(i, j);
        }
        map
    }
}

fn gather_source(seed: u64) -> Vec<i32> {
    (0..GATHER_N as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9).wrapping_add(seed) & 0x7FFF_FFFF) as i32)
        .collect()
}

fn join_workload(seed: u64) -> JoinWorkload {
    JoinWorkload {
        seed,
        ..JoinWorkload::wide(JOIN_R)
    }
}

fn agg_workload(seed: u64) -> AggWorkload {
    AggWorkload {
        seed,
        ..AggWorkload::uniform(AGG_ROWS, AGG_GROUPS)
    }
}

fn generate(dev: &Device, seed: u64, side: Side) -> Inputs {
    let (r, s) = join_workload(seed).generate(dev);
    Inputs {
        r,
        s,
        agg: agg_workload(seed).generate(dev),
        src: dev.upload(gather_source(seed), "perfbench.gather.src"),
        map: dev.upload(gather_map(seed, side == Side::Gftr), "perfbench.gather.map"),
    }
}

fn join_checksum(out: &joins::JoinOutput) -> (u64, usize) {
    row_checksum((0..out.len()).map(|i| {
        std::iter::once(out.keys.value(i))
            .chain(out.r_payloads.iter().map(move |c| c.value(i)))
            .chain(out.s_payloads.iter().map(move |c| c.value(i)))
    }))
}

fn group_by_checksum(out: &groupby::GroupByOutput) -> (u64, usize) {
    row_checksum((0..out.len()).map(|i| {
        std::iter::once(out.keys.value(i)).chain(out.aggregates.iter().map(move |c| c.value(i)))
    }))
}

/// Run the workload for `side`.
pub fn run(
    side: Side,
    opts: &Opts,
    passes: &mut Passes,
    tr: &mut crate::spans::Tracer,
    out: &mut Outcome,
) {
    let seed = opts.seed;
    let join_cfg = JoinConfig::default();
    let agg_cfg = GroupByConfig::default();
    // Output checksums of every pass, checked against the oracles once the
    // passes are done (so the oracles' memory stays out of the peak RSS).
    let mut join_sums: Vec<(&str, (u64, usize))> = Vec::new();
    let mut agg_sums: Vec<(&str, (u64, usize))> = Vec::new();

    while let Some(index) = passes.next_pass() {
        let wall = Instant::now();
        tr.set_enabled(passes.traced(index));
        tr.set_pass(index);
        let dev = device(SCALE);

        let t = Instant::now();
        let open = tr.begin("workloads.generate.host_s", &dev);
        let inputs = generate(&dev, seed, side);
        tr.end(open, &dev);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if index == 0 {
            let bytes =
                join_workload(seed).total_bytes() + (AGG_ROWS as u64) * 8 + (GATHER_N as u64) * 8;
            out.info("scale_log2", json!(SCALE));
            out.info("input_bytes", json!(bytes));
            out.info("scaled_l2_bytes", json!(dev.config().l2_bytes));
            out.info(
                "sizes",
                json!(format!(
                    "wide join |R|=2^{SCALE} |S|=2^{}; group-by 2^{} rows / 2^{} groups; gather 2^{}",
                    SCALE + 1,
                    AGG_ROWS.ilog2(),
                    AGG_GROUPS.ilog2(),
                    GATHER_N.ilog2()
                )),
            );
        }

        // -- Timed region: the operator calls only. ----------------------
        let sim0 = dev.elapsed();
        let t = Instant::now();
        let pass_span = tr.begin("pass", &dev);
        let mut join_outs = Vec::new();
        for &alg in side.joins() {
            let open = tr.begin(format!("joins.{}.host_s", alg.name()), &dev);
            join_outs.push(joins::run_join(&dev, alg, &inputs.r, &inputs.s, &join_cfg));
            tr.end(open, &dev);
        }
        let mut agg_outs = Vec::new();
        for &alg in side.group_bys() {
            let open = tr.begin(format!("groupby.{}.host_s", alg.name()), &dev);
            agg_outs.push(groupby::run_group_by(
                &dev,
                alg,
                &inputs.agg,
                &AGGS,
                &agg_cfg,
            ));
            tr.end(open, &dev);
        }
        let g_before = dev.counters();
        let g_sim0 = dev.elapsed();
        let open = tr.begin("primitives.gather.host_s", &dev);
        let gathered = primitives::gather(&dev, &inputs.src, &inputs.map);
        tr.end(open, &dev);
        let g_sim = (dev.elapsed() - g_sim0).secs();
        let g_counters = dev.counters().delta_since(&g_before).0;
        tr.end(pass_span, &dev);
        let host = t.elapsed().as_secs_f64();
        // -------------------------------------------------------------------

        if tr.enabled() {
            out.traced_host_s.push(host);
        } else {
            out.host_s.push(host);
        }
        out.sim_s.push((dev.elapsed() - sim0).secs());
        out.attempted += (join_outs.len() + agg_outs.len() + 1) as u64;
        if tr.enabled() {
            for j in &join_outs {
                let a = j.stats.algorithm.name();
                let p = &j.stats.phases;
                out.layer(format!("joins.{a}.sim_transform_s"), p.transform.secs());
                out.layer(format!("joins.{a}.sim_match_s"), p.match_find.secs());
                out.layer(format!("joins.{a}.sim_materialize_s"), p.materialize.secs());
            }
            for g in &agg_outs {
                let a = g.stats.algorithm.name();
                out.layer(format!("groupby.{a}.sim_s"), g.stats.total_time().secs());
            }
            out.layer("primitives.gather.sim_s", g_sim);
            out.layer(
                "primitives.gather.sectors_per_request",
                g_counters.sectors_per_request(),
            );
        }

        // -- Output checks, outside the timed region. ---------------------
        join_sums.extend(
            join_outs
                .iter()
                .map(|j| (j.stats.algorithm.name(), join_checksum(j))),
        );
        agg_sums.extend(
            agg_outs
                .iter()
                .map(|g| (g.stats.algorithm.name(), group_by_checksum(g))),
        );
        let ok = gathered.len() == GATHER_N
            && inputs
                .map
                .iter()
                .zip(gathered.iter())
                .all(|(&m, &v)| inputs.src[m as usize] == v);
        out.failed += u64::from(!ok);
        out.check("gather returns src[map[i]]", ok);
        passes.finish(wall.elapsed().as_secs_f64());
    }
    tr.set_enabled(false);
    out.peak_rss_mb = crate::peak_rss_mb();

    let dev = device(SCALE);
    let inputs = generate(&dev, seed, side);
    let join_ref = row_checksum(joins::oracle::hash_join_oracle(&inputs.r, &inputs.s).into_iter());
    let agg_ref = row_checksum(groupby::oracle::group_by_oracle(&inputs.agg, &AGGS).into_iter());
    for (alg, sum) in join_sums {
        out.failed += u64::from(sum != join_ref);
        out.check(format!("{alg} matches hash_join_oracle"), sum == join_ref);
    }
    for (alg, sum) in agg_sums {
        out.failed += u64::from(sum != agg_ref);
        out.check(format!("{alg} matches group_by_oracle"), sum == agg_ref);
    }
    fidelity(side, seed, out);
}

/// Table 4 next to the speed numbers: sectors per request of both gather
/// kinds and their cycle ratio, on one fresh device with a flushed L2 per
/// gather, against the paper's 18 vs 6 sectors and ~8.5x cycles.
fn fidelity(side: Side, seed: u64, out: &mut Outcome) {
    let dev = device(SCALE);
    let src = dev.upload(gather_source(seed), "perfbench.t4.src");
    let measure = |clustered: bool| {
        let map = dev.upload(gather_map(seed, clustered), "perfbench.t4.map");
        dev.reset_stats();
        dev.flush_l2();
        let _ = primitives::gather(&dev, &src, &map);
        dev.counters()
    };
    let unclustered = measure(false);
    let clustered = measure(true);
    let ratio = unclustered.cycles / clustered.cycles;
    let own = if side == Side::Gftr {
        &clustered
    } else {
        &unclustered
    };
    out.extra(
        "fidelity.gather.sectors_per_request.this_workload",
        own.sectors_per_request(),
        "sectors",
    );
    out.extra(
        "fidelity.gather.sectors_per_request.unclustered",
        unclustered.sectors_per_request(),
        "sectors (paper 18)",
    );
    out.extra(
        "fidelity.gather.sectors_per_request.clustered",
        clustered.sectors_per_request(),
        "sectors (paper 6)",
    );
    out.extra(
        "fidelity.gather.cycle_ratio.unclustered_over_clustered",
        ratio,
        "x (paper ~8.5)",
    );
}
