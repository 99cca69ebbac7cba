//! The repository's benchmark: host cost and simulated results of the GPU
//! join / group-by simulator on four fixed workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ops_gftr --seed 1 --seconds 12 --trace 0
//! ```
//!
//! * `ops_gftr` / `ops_gfur`: the paper's join and group-by operators and a
//!   gather, called directly (GFTR vs GFUR materialization).
//! * `tpch_sql`: TPC-H Q3 and Q18 as SQL text through `sql::plan_sql` and
//!   `engine::execute`.
//! * `serving`: an open loop of independent tenants through
//!   `engine::run_open_loop_with` at three frozen arrival rates.
//!
//! A run repeats whole passes until `--seconds` is used up. Every pass
//! starts on a fresh paper-regime-scaled A100 device, so the modelled L2
//! starts cold. Two clocks are reported: the host clock (what the
//! simulator costs) and the simulated device clock (the paper's result,
//! deterministic for a seed). Outputs are checked against oracles outside
//! the timed regions; a failed check exits with code 1.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes, wraps every call into a layer in a span
//! (see [`spans`]) and prints the per-layer metrics plus the tracing
//! overhead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Spans and the full
//! report are written to `.bench_out/` when the run ends.

mod ops;
mod serving;
mod spans;
mod stats;
mod tpch;

use serde_json::{json, Value};
use spans::{self_secs, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics of every workload, with units (the contract's
/// `end_to_end` list).
pub const END_TO_END: [(&str, &str); 4] = [
    ("host_s", "s"),
    ("setup_s", "s"),
    ("host_peak_rss_mb", "MB"),
    ("sim_s", "s"),
];

/// The per-layer metrics of the traced run, with units (the contract's
/// `per_layer` list). A layer a workload does not call reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("sim.warp_requests", "count"),
        ("sim.host_ns_per_warp_request", "ns"),
        ("sim.kernel_launches", "count"),
        ("sim.host_us_per_launch", "us"),
        ("sim.sectors_per_request", "sectors"),
        ("sim.l2_hit_ratio", "ratio"),
        ("sim.dram_gb", "GB"),
        ("sim.atomics", "count"),
        ("primitives.gather.host_s", "s"),
        ("primitives.gather.sim_s", "s"),
        ("primitives.gather.sectors_per_request", "sectors"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for alg in ops::JOIN_ALGS {
        let a = alg.name();
        m.push((format!("joins.{a}.host_s"), "s"));
        for phase in ["transform", "match", "materialize"] {
            m.push((format!("joins.{a}.sim_{phase}_s"), "s"));
        }
    }
    for alg in ops::GROUPBY_ALGS {
        let a = alg.name();
        m.push((format!("groupby.{a}.host_s"), "s"));
        m.push((format!("groupby.{a}.sim_s"), "s"));
    }
    m.push(("sql.plan_sql.host_s".into(), "s"));
    for q in ["Q3", "Q18"] {
        m.push((format!("engine.execute.host_s.{q}"), "s"));
    }
    for kind in tpch::OP_KINDS {
        m.push((format!("engine.op.{kind}.sim_self_s"), "s"));
    }
    for rate in serving::RATES {
        let r = rate.name;
        m.push((format!("engine.scheduler.host_s.{r}"), "s"));
        m.push((format!("engine.scheduler.queue_wait_p50_s.{r}"), "s"));
        m.push((format!("engine.scheduler.queue_wait_p90_s.{r}"), "s"));
        m.push((format!("engine.scheduler.utilization.{r}"), "ratio"));
        m.push((format!("engine.scheduler.shed.{r}"), "count"));
        m.push((format!("engine.scheduler.rejected.{r}"), "count"));
    }
    m.push(("workloads.generate.host_s".into(), "s"));
    m.push(("trace.overhead_s".into(), "s"));
    m
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed for every generator.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <ops_gftr|ops_gfur|tpch_sql|serving> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench --calibrate [--seed <n>]"
    );
    std::process::exit(2)
}

fn parse_args() -> (Opts, bool) {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
    };
    let mut calibrate = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--calibrate" => calibrate = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    (opts, calibrate)
}

/// The paper-regime-scaled A100 a pass runs on: capacities shrink by
/// `2^(27 - scale)` so data and L2 keep the paper's 2^27-tuple ratio.
pub fn device(scale_log2: u32) -> sim::Device {
    let factor = 2f64.powi(27 - scale_log2 as i32).max(1.0);
    sim::Device::new(sim::DeviceConfig::a100().scaled(factor))
}

/// `splitmix64` step: the benchmark's own deterministic generator, used
/// for maps and arrival times.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-insensitive checksum of widened rows: a wrapping sum of a mixed
/// hash per row, so an output can be compared against an oracle without
/// sorting either.
pub fn row_checksum(rows: impl Iterator<Item = impl IntoIterator<Item = i64>>) -> (u64, usize) {
    let mut sum = 0u64;
    let mut n = 0usize;
    for row in rows {
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for v in row {
            h ^= v as u64;
            h = splitmix64(&mut h);
        }
        sum = sum.wrapping_add(h);
        n += 1;
    }
    (sum, n)
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (joins, group-bys, gathers, queries).
    pub attempted: u64,
    /// Operations that failed, were shed or were rejected.
    pub failed: u64,
    /// Named output checks: how often each held, of how many.
    pub checks: Vec<(String, u32, u32)>,
    /// Host seconds of each untraced pass, set-up excluded.
    pub host_s: Vec<f64>,
    /// Host seconds of each traced pass, set-up excluded.
    pub traced_host_s: Vec<f64>,
    /// Host seconds of each set-up (one device's inputs).
    pub setup_s: Vec<f64>,
    /// Simulated seconds of each pass.
    pub sim_s: Vec<f64>,
    /// Per-layer samples from traced passes, by metric name.
    pub layers: BTreeMap<String, Vec<f64>>,
    /// Workload-specific results printed next to the metrics: name, value,
    /// unit.
    pub extra: Vec<(String, f64, String)>,
    /// Facts recorded with the run (scale, input bytes, ...).
    pub info: Vec<(String, Value)>,
    /// Process `VmHWM` in MB, read before the output checks.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Record one outcome of the named check (checks repeat per pass).
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
        match self.checks.iter_mut().find(|c| c.0 == name) {
            Some(c) => {
                c.1 += u32::from(ok);
                c.2 += 1;
            }
            None => self.checks.push((name, u32::from(ok), 1)),
        }
    }

    /// Add one per-layer sample.
    pub fn layer(&mut self, name: impl Into<String>, v: f64) {
        self.layers.entry(name.into()).or_default().push(v);
    }

    /// Record a workload-specific result.
    pub fn extra(&mut self, name: impl Into<String>, v: f64, unit: &str) {
        self.extra.push((name.into(), v, unit.to_string()));
    }

    /// Record a fact about the run.
    pub fn info(&mut self, key: &str, v: Value) {
        self.info.push((key.to_string(), v));
    }
}

/// Pass scheduling shared by the workloads: whether pass `index` is
/// traced, and whether another pass fits into the run.
pub struct Passes {
    start: Instant,
    seconds: f64,
    trace: bool,
    done: u32,
    durations: Vec<f64>,
}

impl Passes {
    fn new(opts: &Opts) -> Self {
        Passes {
            start: Instant::now(),
            seconds: opts.seconds,
            trace: opts.trace,
            done: 0,
            durations: Vec::new(),
        }
    }

    /// The next pass index, or `None` when the run's time is used up. A
    /// run makes at least one pass, and a traced run at least one untraced
    /// and one traced pass; otherwise a pass starts only if a typical pass
    /// still fits.
    pub fn next_pass(&mut self) -> Option<u32> {
        let min = if self.trace { 2 } else { 1 };
        if self.done >= min {
            let typical = stats::median(&self.durations).unwrap_or(0.0);
            if self.start.elapsed().as_secs_f64() + typical > self.seconds {
                return None;
            }
        }
        Some(self.done)
    }

    /// Whether pass `index` records spans (odd passes of a traced run).
    pub fn traced(&self, index: u32) -> bool {
        self.trace && index % 2 == 1
    }

    /// Mark the current pass finished after `secs` of wall time.
    pub fn finish(&mut self, secs: f64) {
        self.done += 1;
        self.durations.push(secs);
    }
}

/// Process peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide CPU steal time so far, seconds: time the hypervisor ran
/// other guests while this machine's CPUs wanted to run. A run with much
/// steal measured a contended machine. (`/proc/stat` counts in USER_HZ,
/// 100 per second on Linux.)
fn steal_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The commit the checkout came from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

/// Fold the traced passes' spans into per-layer samples: the self time of
/// every span named after a `*.host_s*` metric, summed per pass, and the
/// `sim.*` counters of the spans named `pass`.
fn fold_spans(tr: &Tracer, out: &mut Outcome) {
    let spans = tr.spans();
    let mut per_pass: BTreeMap<u32, BTreeMap<&str, f64>> = BTreeMap::new();
    let mut pass_totals: BTreeMap<u32, (sim::Counters, f64)> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if s.name == "pass" {
            let e = pass_totals.entry(s.pass).or_default();
            add_counters(&mut e.0, &s.counters);
            e.1 += s.secs();
        } else {
            *per_pass
                .entry(s.pass)
                .or_default()
                .entry(&s.name)
                .or_default() += self_secs(spans, id);
        }
    }
    for names in per_pass.values() {
        for (name, secs) in names {
            out.layer(*name, *secs);
        }
    }
    for (c, secs) in pass_totals.values() {
        let per = |n: u64, scale: f64| if n == 0 { 0.0 } else { secs * scale / n as f64 };
        out.layer("sim.warp_requests", c.load_requests as f64);
        out.layer("sim.host_ns_per_warp_request", per(c.load_requests, 1e9));
        out.layer("sim.kernel_launches", c.kernel_launches as f64);
        out.layer("sim.host_us_per_launch", per(c.kernel_launches, 1e6));
        out.layer("sim.sectors_per_request", c.sectors_per_request());
        let hit = if c.sectors_requested == 0 {
            0.0
        } else {
            c.l2_hits as f64 / c.sectors_requested as f64
        };
        out.layer("sim.l2_hit_ratio", hit);
        out.layer("sim.dram_gb", c.dram_bytes() as f64 / 1e9);
        out.layer("sim.atomics", c.atomics as f64);
    }
}

fn add_counters(acc: &mut sim::Counters, c: &sim::Counters) {
    acc.kernel_launches += c.kernel_launches;
    acc.cycles += c.cycles;
    acc.warp_instructions += c.warp_instructions;
    acc.dram_read_bytes += c.dram_read_bytes;
    acc.dram_write_bytes += c.dram_write_bytes;
    acc.load_requests += c.load_requests;
    acc.sectors_requested += c.sectors_requested;
    acc.l2_hits += c.l2_hits;
    acc.l2_misses += c.l2_misses;
    acc.atomics += c.atomics;
}

/// `median, tail percentile, n` for a timing, as one printable line.
fn describe(xs: &[f64]) -> String {
    let med = stats::median(xs).unwrap_or(f64::NAN);
    match stats::tail_percentile(xs, 10) {
        Some((p, v)) => format!("median {med:.6} p{p} {v:.6} (n={})", xs.len()),
        None => format!(
            "median {med:.6} (n={}; no percentile has 10 samples beyond it)",
            xs.len()
        ),
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("json renders")
}

fn main() {
    let (opts, calibrate) = parse_args();
    if calibrate {
        serving::calibrate(opts.seed);
        return;
    }
    let steal0 = steal_secs();
    let mut tr = Tracer::new(false);
    let mut out = Outcome::default();
    let mut passes = Passes::new(&opts);
    match opts.workload.as_str() {
        "ops_gftr" => ops::run(ops::Side::Gftr, &opts, &mut passes, &mut tr, &mut out),
        "ops_gfur" => ops::run(ops::Side::Gfur, &opts, &mut passes, &mut tr, &mut out),
        "tpch_sql" => tpch::run(&opts, &mut passes, &mut tr, &mut out),
        "serving" => serving::run(&opts, &mut passes, &mut tr, &mut out),
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload {other}")),
    }
    fold_spans(&tr, &mut out);

    // Simulated time must repeat exactly across the passes of one seed.
    let sim_repeats = out.sim_s.windows(2).all(|w| w[0] == w[1]);
    out.check("sim_s identical across passes", sim_repeats);
    let correct = out.checks.iter().all(|(_, ok, n)| ok == n);
    let host_s = stats::median(&out.host_s).unwrap_or(0.0);

    println!(
        "perfbench {} seed {} ({} s run, {} mode)",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" }
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.info("commit", json!(commit()));
    out.info("nproc", json!(threads));
    out.info(
        "device_host_threads",
        json!(sim::DeviceConfig::a100().host_threads),
    );
    out.info("l2_cold_each_pass", json!(true));
    out.info("machine_steal_s_during_run", json!(steal_secs() - steal0));
    for (k, v) in &out.info {
        println!("  info {k} = {}", render(v));
    }
    println!("  host_s    {}", describe(&out.host_s));
    println!("  setup_s   {}", describe(&out.setup_s));
    println!(
        "  sim_s     {:.9} s (deterministic per seed)",
        out.sim_s.first().unwrap_or(&0.0)
    );
    println!("  host_peak_rss_mb {:.1} MB", out.peak_rss_mb);
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_ratio {failed_ratio} ratio ({} of {} attempted)",
        out.failed, out.attempted
    );
    for (name, v, unit) in &out.extra {
        println!("  {name} {v} {unit}");
    }
    for (name, ok, n) in &out.checks {
        let verdict = if ok == n { "ok  " } else { "FAIL" };
        println!("  check {verdict} {name} ({ok}/{n})");
    }

    let mut metrics: Vec<(String, Value)> = Vec::new();
    if opts.trace {
        let overhead = stats::median(&out.traced_host_s).unwrap_or(0.0) - host_s;
        out.layer("trace.overhead_s", overhead);
        println!(
            "  tracing overhead {overhead:.6} s per pass (traced {}, untraced {})",
            describe(&out.traced_host_s),
            describe(&out.host_s)
        );
        for (name, unit) in per_layer() {
            let v = out
                .layers
                .get(&name)
                .and_then(|xs| stats::median(xs))
                .unwrap_or(0.0);
            println!("  layer {name} {v} {unit}");
            metrics.push((name, json!({"value": v, "unit": unit})));
        }
    } else {
        let values = [
            host_s,
            stats::median(&out.setup_s).unwrap_or(0.0),
            out.peak_rss_mb,
            out.sim_s.first().copied().unwrap_or(0.0),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), json!({"value": v, "unit": unit})));
        }
    }

    let detail = json!({
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "info": Value::Object(out.info.clone()),
        "host_s": out.host_s,
        "traced_host_s": out.traced_host_s,
        "setup_s": out.setup_s,
        "sim_s": out.sim_s,
        "extra": out.extra.iter().map(|(n, v, u)| json!({"name": n, "value": v, "unit": u})).collect::<Vec<_>>(),
        "checks": out.checks.iter().map(|(c, ok, n)| json!({"check": c, "held": ok, "of": n})).collect::<Vec<_>>(),
        "spans": tr.spans().iter().map(|s| json!({
            "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
            "parent": s.parent, "pass": s.pass,
            "launches": s.counters.kernel_launches,
            "warp_requests": s.counters.load_requests,
            "sectors": s.counters.sectors_requested,
        })).collect::<Vec<_>>(),
    });
    let dir = std::path::Path::new(".bench_out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload, opts.seed, opts.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| {
        std::fs::write(
            &file,
            serde_json::to_string_pretty(&detail).expect("json renders"),
        )
    }) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }

    println!(
        "{}",
        render(&json!({
            "correct": correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": Value::Object(metrics),
        }))
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the program prints are the ones BENCHMARK.json
    /// declares, in order and with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            bench[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer()));
    }

    #[test]
    fn row_checksum_ignores_row_order_but_not_values() {
        let a = row_checksum([vec![1, 2], vec![3, 4]].into_iter());
        let b = row_checksum([vec![3, 4], vec![1, 2]].into_iter());
        let c = row_checksum([vec![1, 2], vec![3, 5]].into_iter());
        let d = row_checksum([vec![2, 1], vec![3, 4]].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
