//! `tpch_sql`: TPC-H Q3 and Q18 as SQL text, through `sql::plan_sql` and
//! then fused `engine::execute`, over `engine::demo::tpch_full`. The only
//! workload that runs SQL, fusion, operator glue and algorithm choice at
//! data scale, with no scheduler in the way.

use crate::spans::Tracer;
use crate::{device, Opts, Outcome, Passes};
use engine::demo::{q18_sql, q3_sql, tpch_full};
use engine::NodeStats;
use serde_json::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Paper-regime scale; the catalog holds `2^(SCALE - 1)` lineitems.
const SCALE: u32 = 20;
const LINEITEMS: usize = 1 << (SCALE - 1);

/// Operator kinds of the fused Q3 and Q18 plans that take simulated time:
/// a `NodeStats` label up to its first `(` or space. (Scans are free.)
pub const OP_KINDS: [&str; 4] = ["Fused", "Join", "Aggregate", "Sort"];

fn kind(label: &str) -> &str {
    label.split(['(', ' ']).next().unwrap_or(label)
}

/// Simulated self time per operator kind over a node tree.
fn self_time_by_kind(node: &NodeStats, acc: &mut BTreeMap<String, f64>) {
    *acc.entry(kind(&node.label).to_string()).or_default() += node.time().secs();
    for child in &node.children {
        self_time_by_kind(child, acc);
    }
}

/// A result table as column names plus widened values, for byte-identity
/// comparison (names, values and row order).
type Snapshot = Vec<(String, Vec<i64>)>;

fn snapshot(table: &engine::Table) -> Snapshot {
    table
        .columns()
        .iter()
        .map(|(name, col)| (name.clone(), col.to_vec_i64()))
        .collect()
}

/// Run the workload.
pub fn run(opts: &Opts, passes: &mut Passes, tr: &mut Tracer, out: &mut Outcome) {
    let queries = [("Q3", q3_sql()), ("Q18", q18_sql())];
    // Fused results of every pass, compared with unfused execution once the
    // passes are done (so its memory stays out of the peak RSS).
    let mut fused: Vec<(&str, Snapshot)> = Vec::new();

    while let Some(index) = passes.next_pass() {
        let wall = Instant::now();
        tr.set_enabled(passes.traced(index));
        tr.set_pass(index);
        let dev = device(SCALE);

        let t = Instant::now();
        let open = tr.begin("workloads.generate.host_s", &dev);
        let catalog = tpch_full(&dev, LINEITEMS, opts.seed);
        tr.end(open, &dev);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if index == 0 {
            let bytes: u64 = catalog
                .table_names()
                .iter()
                .map(|n| {
                    let t = catalog.get(n).expect("listed table exists");
                    t.columns()
                        .iter()
                        .map(|(_, c)| c.len() as u64 * c.dtype().size())
                        .sum::<u64>()
                })
                .sum();
            out.info("scale_log2", json!(SCALE));
            out.info("lineitems", json!(LINEITEMS));
            out.info("input_bytes", json!(bytes));
            out.info("scaled_l2_bytes", json!(dev.config().l2_bytes));
        }

        // -- Timed region: planning and fused execution. ------------------
        let sim0 = dev.elapsed();
        let t = Instant::now();
        let pass_span = tr.begin("pass", &dev);
        let mut results = Vec::new();
        for (name, text) in queries {
            let open = tr.begin("sql.plan_sql.host_s", &dev);
            let lowered = sql::plan_sql(text, &catalog);
            tr.end(open, &dev);
            let open = tr.begin(format!("engine.execute.host_s.{name}"), &dev);
            let result =
                lowered.and_then(|l| engine::execute(&dev, &catalog, &l.plan).map(|o| (l, o)));
            tr.end(open, &dev);
            results.push((name, result));
        }
        tr.end(pass_span, &dev);
        let host = t.elapsed().as_secs_f64();
        // -------------------------------------------------------------------

        if tr.enabled() {
            out.traced_host_s.push(host);
        } else {
            out.host_s.push(host);
        }
        out.sim_s.push((dev.elapsed() - sim0).secs());
        out.attempted += results.len() as u64;

        // -- Output checks, outside the timed region. ---------------------
        let mut by_kind = BTreeMap::new();
        for (name, result) in &results {
            match result {
                Ok((_, o)) => {
                    fused.push((name, snapshot(&o.table)));
                    self_time_by_kind(&o.stats, &mut by_kind);
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(format!("{name} runs ({e})"), false);
                }
            }
        }
        if tr.enabled() {
            for (k, secs) in by_kind {
                out.layer(format!("engine.op.{k}.sim_self_s"), secs);
            }
        }
        passes.finish(wall.elapsed().as_secs_f64());
    }
    tr.set_enabled(false);
    out.peak_rss_mb = crate::peak_rss_mb();

    // Fusion must not perturb results: unfused execution of the same plans
    // over the same catalog is the reference, byte for byte.
    let dev = device(SCALE);
    let catalog = tpch_full(&dev, LINEITEMS, opts.seed);
    let reference: Vec<(&str, Option<Snapshot>)> = queries
        .iter()
        .map(|(name, text)| {
            let table = sql::plan_sql(text, &catalog)
                .and_then(|l| engine::execute_unfused(&dev, &catalog, &l.plan));
            (*name, table.ok().map(|o| snapshot(&o.table)))
        })
        .collect();
    for (name, got) in fused {
        let want = reference
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, s)| s.as_ref());
        // A non-empty result, identical to the reference.
        let ok = got.first().is_some_and(|(_, c)| !c.is_empty()) && Some(&got) == want;
        out.failed += u64::from(!ok);
        out.check(
            format!("{name} fused == execute_unfused, byte for byte"),
            ok,
        );
    }
}
