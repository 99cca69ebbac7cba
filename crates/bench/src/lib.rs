//! # bench — the experiment harness
//!
//! One runnable target per table and figure of the paper's evaluation
//! (Section 5), plus the grouped-aggregation extension experiments
//! (G1..G5). Every binary:
//!
//! * prints the same rows/series the paper reports (who wins, by what
//!   factor, where the crossovers fall — absolute numbers come from the
//!   simulator's calibrated cost model, not real hardware);
//! * accepts `--scale <log2-tuples>` (default 22; the paper's headline scale
//!   is 27), `--device a100|rtx3090`, and `--json <path>` to dump
//!   machine-readable rows;
//! * is deterministic: the simulator has no noise, so the paper's
//!   "median of 7 runs" protocol collapses to a single run (the CPU
//!   baseline, which measures real wall-clock, still repeats and takes the
//!   median).
//!
//! Run everything at once with `cargo run --release -p bench --bin run_all`.

pub mod diff;
pub mod exp;
pub mod gate;

use serde::Serialize;
use sim::Device;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Shared command-line arguments for experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// log2 of the base tuple count (the paper's |R| = 2^27 corresponds to
    /// `--scale 27`).
    pub scale_log2: u32,
    /// Device preset name.
    pub device: String,
    /// Optional JSON output path.
    pub json: Option<PathBuf>,
    /// Repetitions for wall-clock (CPU) measurements.
    pub reps: usize,
    /// Optional Chrome-trace output path (`--trace`). When set, every
    /// device [`Args::device`] creates records `sim::trace` events, and
    /// [`Report::finish`] exports the cumulative timeline here (plus a
    /// JSONL event log next to it).
    pub trace: Option<PathBuf>,
    /// Optional EXPLAIN ANALYZE output path (`--explain`). When set,
    /// engine-level experiments record attributed per-query reports via
    /// [`Args::record_explain`], and [`Report::finish`] writes the
    /// cumulative JSON report (queries + per-kernel roofline analysis)
    /// here. Implies tracing, so the kernel section has data.
    pub explain: Option<PathBuf>,
    /// Optional service-level metrics output path (`--metrics`). When set,
    /// every device [`Args::device`] creates records `sim::metrics`
    /// (counters, latency histograms, sampled utilization time-series on
    /// the simulated clock), and [`Report::finish`] exports the cumulative
    /// snapshots here as JSON plus OpenMetrics text at the same path with
    /// an `.om` extension.
    pub metrics: Option<PathBuf>,
    /// Optional slow-query digest output path (`--digest`). When set,
    /// serving experiments record their [`engine::SlowQueryDigest`]s via
    /// [`Args::record_digest`], and [`Report::finish`] writes the
    /// cumulative JSON report here plus the human-readable text at the
    /// same path with a `.txt` extension. Implies both tracing (for the
    /// lifecycle spans) and metrics (for SLO annotations).
    pub digest: Option<PathBuf>,
    /// Devices created while tracing, shared across clones of these args
    /// so a multi-experiment driver (`run_all`) accumulates one trace.
    trace_devices: Arc<Mutex<Vec<Device>>>,
    /// Devices created while recording metrics, shared like
    /// [`Args::trace_devices`].
    metrics_devices: Arc<Mutex<Vec<Device>>>,
    /// Attributed query reports accumulated by [`Args::record_explain`],
    /// shared across clones like the trace devices.
    explain_queries: Arc<Mutex<Vec<serde_json::Value>>>,
    /// Slow-query digests accumulated by [`Args::record_digest`], shared
    /// across clones like the trace devices.
    digest_sections: Arc<Mutex<Vec<serde_json::Value>>>,
    /// Optional SQL text (`--sql`): the `q_tpch` binary runs this query
    /// instead of its built-in Q3/Q18 pair.
    pub sql: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale_log2: 22,
            device: "a100".to_string(),
            json: None,
            reps: 3,
            trace: None,
            explain: None,
            metrics: None,
            digest: None,
            trace_devices: Arc::new(Mutex::new(Vec::new())),
            metrics_devices: Arc::new(Mutex::new(Vec::new())),
            explain_queries: Arc::new(Mutex::new(Vec::new())),
            digest_sections: Arc::new(Mutex::new(Vec::new())),
            sql: None,
        }
    }
}

impl Args {
    /// Parse from `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> Args {
        let mut out = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    out.scale_log2 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a number"));
                }
                "--device" => {
                    out.device = it.next().unwrap_or_else(|| usage("--device needs a name"));
                }
                "--json" => {
                    out.json = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--json needs a path")),
                    ));
                }
                "--reps" => {
                    out.reps = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--reps needs a number"));
                }
                "--trace" => {
                    out.trace = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--trace needs a path")),
                    ));
                }
                "--explain" => {
                    out.explain = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--explain needs a path")),
                    ));
                }
                "--metrics" => {
                    out.metrics = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--metrics needs a path")),
                    ));
                }
                "--digest" => {
                    out.digest = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| usage("--digest needs a path")),
                    ));
                }
                "--sql" => {
                    out.sql = Some(it.next().unwrap_or_else(|| usage("--sql needs a query")));
                }
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        out
    }

    /// Build the requested device, applying *paper-regime scaling*: the
    /// paper's headline scale is 2^27 tuples, so a `--scale L` run shrinks
    /// the device's capacity parameters (L2, shared memory, global memory,
    /// launch overhead) by `2^(27 - L)` — see
    /// [`sim::DeviceConfig::scaled`]. At `--scale 27` you get the real
    /// hardware parameters.
    pub fn device(&self) -> Device {
        let cfg = match self.device.as_str() {
            "a100" => sim::DeviceConfig::a100(),
            "rtx3090" => sim::DeviceConfig::rtx3090(),
            other => usage(&format!("unknown device '{other}' (a100|rtx3090)")),
        };
        let dev = Device::new(cfg.scaled(self.regime_factor()));
        // A digest needs both the lifecycle spans (trace) and the SLO
        // annotations (metrics), so --digest implies both on every device.
        if self.trace.is_some() || self.explain.is_some() || self.digest.is_some() {
            dev.enable_tracing();
            self.trace_devices.lock().unwrap().push(dev.clone());
        }
        if self.metrics.is_some() || self.digest.is_some() {
            dev.enable_metrics(self.metrics_interval());
            self.metrics_devices.lock().unwrap().push(dev.clone());
        }
        dev
    }

    /// The sampling interval metrics-enabled devices use: 100 µs of
    /// simulated time at the paper's full scale, shrunk by the same
    /// paper-regime factor as the device itself so the sample density per
    /// kernel stays comparable across `--scale` settings. (The sampler
    /// emits at most one point per kernel launch regardless, so this only
    /// bounds resolution, not cost.)
    pub fn metrics_interval(&self) -> sim::SimTime {
        sim::SimTime::from_secs(1e-4 / self.regime_factor())
    }

    /// The scaled configuration [`Args::device`] builds devices from.
    pub fn device_config(&self) -> sim::DeviceConfig {
        let cfg = match self.device.as_str() {
            "a100" => sim::DeviceConfig::a100(),
            "rtx3090" => sim::DeviceConfig::rtx3090(),
            other => usage(&format!("unknown device '{other}' (a100|rtx3090)")),
        };
        cfg.scaled(self.regime_factor())
    }

    /// True when `--explain` was given: engine-level experiments should
    /// record their attributed query reports.
    pub fn explain_enabled(&self) -> bool {
        self.explain.is_some()
    }

    /// Record one query's EXPLAIN ANALYZE report under `query` (an
    /// experiment-chosen label). No-op without `--explain`.
    pub fn record_explain(&self, query: &str, explain: &engine::QueryExplain) {
        if self.explain.is_none() {
            return;
        }
        self.explain_queries
            .lock()
            .unwrap()
            .push(serde_json::json!({
                "query": query,
                "tree": explain.render(),
                "report": explain.to_json(),
            }));
    }

    /// Export the cumulative EXPLAIN ANALYZE report: every query recorded
    /// via [`Args::record_explain`] plus the per-kernel roofline analysis
    /// of all traced devices. No-op without `--explain`. Called by
    /// [`Report::finish`]; re-exports overwrite.
    pub fn write_explain(&self) {
        let Some(path) = &self.explain else { return };
        let cfg = self.device_config();
        let traces = self.trace_snapshots();
        let kernels = sim::analysis::analyze_kernels(&traces, &cfg);
        let doc = serde_json::json!({
            "device": cfg.name,
            "queries": self.explain_queries.lock().unwrap().clone(),
            "kernels": serde_json::to_value(&kernels),
        });
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let data = serde_json::to_string_pretty(&doc).expect("explain report serializes");
        std::fs::write(path, data).expect("write explain report");
        println!("(wrote explain: {})", path.display());
    }

    /// True when `--digest` was given: serving experiments should build
    /// and record slow-query digests.
    pub fn digest_enabled(&self) -> bool {
        self.digest.is_some()
    }

    /// Record one session's slow-query digest under `label` (an
    /// experiment-chosen identifier, e.g. `"m04_slo rho=1.50"`). No-op
    /// without `--digest`.
    pub fn record_digest(&self, label: &str, digest: &engine::SlowQueryDigest) {
        if self.digest.is_none() {
            return;
        }
        let body = serde_json::to_value(digest);
        self.digest_sections
            .lock()
            .unwrap()
            .push(serde_json::json!({
                "label": label,
                "digest": body,
                "text": digest.render(),
            }));
    }

    /// Export the cumulative slow-query digest: JSON at the `--digest`
    /// path and human-readable text next to it (same path, `.txt`
    /// extension). No-op without `--digest`. Called by [`Report::finish`];
    /// re-exports overwrite with the cumulative superset.
    pub fn write_digest(&self) {
        let Some(path) = &self.digest else { return };
        let sections = self.digest_sections.lock().unwrap().clone();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let doc = serde_json::json!({ "sections": sections });
        let data = serde_json::to_string_pretty(&doc).expect("digest report serializes");
        std::fs::write(path, data).expect("write digest json");
        let txt_path = path.with_extension("txt");
        let mut text = String::new();
        for s in &sections {
            if let (Some(label), Some(body)) = (s["label"].as_str(), s["text"].as_str()) {
                text.push_str(&format!("== {label} ==\n{body}\n"));
            }
        }
        std::fs::write(&txt_path, text).expect("write digest text");
        println!(
            "(wrote digest: {} + {})",
            path.display(),
            txt_path.display()
        );
    }

    /// Export the cumulative trace of every device created so far: Chrome
    /// `trace_event` JSON at the `--trace` path and a JSONL event log next
    /// to it (`<path>l`, i.e. `trace.json` → `trace.jsonl`). No-op without
    /// `--trace`. Called by [`Report::finish`], so each experiment that
    /// completes refreshes the files; re-exports overwrite.
    pub fn write_trace(&self) {
        let Some(path) = &self.trace else { return };
        let traces = self.trace_snapshots();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, sim::trace::chrome_trace_json(&traces)).expect("write chrome trace");
        let mut jsonl_path = path.clone().into_os_string();
        jsonl_path.push("l");
        std::fs::write(PathBuf::from(jsonl_path), sim::trace::jsonl(&traces))
            .expect("write jsonl trace");
        println!("(wrote trace: {})", path.display());
    }

    /// Export the cumulative service-level metrics of every
    /// metrics-enabled device created so far: JSON at the `--metrics` path
    /// and OpenMetrics text next to it (same path, `.om` extension). No-op
    /// without `--metrics`. Called by [`Report::finish`]; re-exports
    /// overwrite with the (cumulative) superset.
    pub fn write_metrics(&self) {
        let Some(path) = &self.metrics else { return };
        let snaps = self.metrics_snapshots();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, sim::metrics_json(&snaps)).expect("write metrics json");
        let om_path = path.with_extension("om");
        std::fs::write(&om_path, sim::openmetrics(&snaps)).expect("write openmetrics");
        println!(
            "(wrote metrics: {} + {})",
            path.display(),
            om_path.display()
        );
    }

    /// Snapshots of every metrics-enabled device, in creation order.
    pub fn metrics_snapshots(&self) -> Vec<sim::MetricsSnapshot> {
        self.metrics_devices
            .lock()
            .unwrap()
            .iter()
            .filter_map(|d| d.metrics_snapshot())
            .collect()
    }

    /// Snapshots of every traced device's event log, in creation order.
    pub fn trace_snapshots(&self) -> Vec<sim::Trace> {
        self.trace_devices
            .lock()
            .unwrap()
            .iter()
            .filter_map(|d| d.trace_snapshot())
            .collect()
    }

    /// The paper-regime scaling factor `2^(27 - scale)` (1 at the paper's
    /// full scale).
    pub fn regime_factor(&self) -> f64 {
        2f64.powi(27 - self.scale_log2 as i32).max(1.0)
    }

    /// Base tuple count `2^scale_log2`.
    pub fn tuples(&self) -> usize {
        1usize << self.scale_log2
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: <bin> [--scale LOG2] [--device a100|rtx3090] [--json PATH] [--reps N] \
         [--trace PATH] [--explain PATH] [--metrics PATH] [--digest PATH] [--sql QUERY]"
    );
    std::process::exit(2)
}

/// A finished experiment: an identifier, headline text, and JSON rows.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Experiment id (e.g. "fig10").
    pub experiment: &'static str,
    /// What the paper's corresponding artifact shows.
    pub title: &'static str,
    /// Device the run used.
    pub device: String,
    /// Base scale (log2 tuples).
    pub scale_log2: u32,
    /// One JSON object per printed row.
    pub rows: Vec<serde_json::Value>,
    /// Headline findings, one sentence each (these feed EXPERIMENTS.md).
    pub findings: Vec<String>,
}

impl Report {
    /// Create an empty report.
    pub fn new(experiment: &'static str, title: &'static str, args: &Args) -> Self {
        Report {
            experiment,
            title,
            device: args.device.clone(),
            scale_log2: args.scale_log2,
            rows: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, row: serde_json::Value) {
        self.rows.push(row);
    }

    /// Record a headline finding (also printed).
    pub fn finding(&mut self, text: String) {
        println!(">> {text}");
        self.findings.push(text);
    }

    /// Write to `--json` if requested, and refresh the `--trace`,
    /// `--explain` and `--metrics` exports.
    ///
    /// Shared export paths are guarded: when two experiments in one
    /// process (a `run_all` invocation) point the same flag at the same
    /// path, the write is only allowed if they share the same accumulator
    /// (cloned [`Args`]) — then later finishes rewrite the file with the
    /// cumulative superset, exactly like the shared trace devices. Two
    /// *independent* [`Args`] aiming at one path would silently overwrite
    /// each other with partial data, so that panics instead.
    pub fn finish(&self, args: &Args) {
        if let Some(path) = &args.json {
            // Re-finishing the same experiment may rewrite its own file;
            // a *different* experiment aiming at the path is the bug.
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.experiment.hash(&mut h);
            claim_export_path(path, h.finish() as usize, "--json");
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let data = serde_json::to_string_pretty(self).expect("report serializes");
            std::fs::write(path, data).expect("write json report");
            println!("(wrote {})", path.display());
        }
        if let Some(path) = &args.trace {
            claim_export_path(path, Arc::as_ptr(&args.trace_devices) as usize, "--trace");
        }
        if let Some(path) = &args.explain {
            claim_export_path(
                path,
                Arc::as_ptr(&args.explain_queries) as usize,
                "--explain",
            );
        }
        if let Some(path) = &args.metrics {
            claim_export_path(
                path,
                Arc::as_ptr(&args.metrics_devices) as usize,
                "--metrics",
            );
        }
        if let Some(path) = &args.digest {
            claim_export_path(
                path,
                Arc::as_ptr(&args.digest_sections) as usize,
                "--digest",
            );
        }
        args.write_trace();
        args.write_explain();
        args.write_metrics();
        args.write_digest();
    }
}

/// Process-wide registry of export paths and the accumulator (or report)
/// identity that owns each; see [`Report::finish`].
static EXPORT_PATHS: std::sync::OnceLock<Mutex<std::collections::HashMap<PathBuf, usize>>> =
    std::sync::OnceLock::new();

fn claim_export_path(path: &std::path::Path, owner: usize, flag: &str) {
    // Poison-robust: the panic this function raises on a conflict must not
    // wedge every later (legitimate) export in the process.
    let mut map = EXPORT_PATHS
        .get_or_init(|| Mutex::new(std::collections::HashMap::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match map.entry(path.to_path_buf()) {
        std::collections::hash_map::Entry::Occupied(e) => {
            assert!(
                *e.get() == owner,
                "two experiments would write {flag} path '{}' through different \
                 accumulators; the later write would overwrite the earlier one with \
                 partial data. Share one cloned Args (like run_all does) so the \
                 exports merge cumulatively, or give each experiment its own path.",
                path.display()
            );
        }
        std::collections::hash_map::Entry::Vacant(v) => {
            v.insert(owner);
        }
    }
}

/// Format a tuples/second figure the way the paper's axes do (M tuples/s).
pub fn mtps(tuples: usize, t: sim::SimTime) -> f64 {
    tuples as f64 / t.secs() / 1e6
}

/// `GB` with one decimal.
pub fn gb(bytes: u64) -> String {
    format!("{:.2} GB", bytes as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args() {
        let a = Args::default();
        assert_eq!(a.tuples(), 1 << 22);
        assert!(a.device().config().name.starts_with("A100"));
    }

    #[test]
    fn report_accumulates() {
        let args = Args::default();
        let mut r = Report::new("figX", "test", &args);
        r.push(serde_json::json!({"a": 1}));
        r.finding("works".to_string());
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.findings.len(), 1);
    }

    #[test]
    fn mtps_math() {
        let v = mtps(2_000_000, sim::SimTime::from_secs(1.0));
        assert!((v - 2.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_flag_enables_device_metrics() {
        let dir = std::env::temp_dir().join("bench_metrics_flag_test");
        let args = Args {
            metrics: Some(dir.join("metrics.json")),
            ..Args::default()
        };
        let dev = args.device();
        assert!(dev.metrics_enabled());
        dev.kernel("k").items(1 << 12, 1.0).launch();
        let snaps = args.metrics_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].totals.counters.kernel_launches, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_export_paths_from_different_accumulators_panic() {
        let dir = std::env::temp_dir().join("bench_dup_path_test");
        let path = dir.join("metrics.json");

        // Same Args clone → shared accumulator → merging rewrite allowed.
        let shared = Args {
            metrics: Some(path.clone()),
            ..Args::default()
        };
        let r1 = Report::new("dup_a", "t", &shared);
        r1.finish(&shared);
        r1.finish(&shared.clone());

        // Fresh Args, same path → different accumulator → must panic
        // instead of silently overwriting with partial data.
        let other = Args {
            metrics: Some(path.clone()),
            ..Args::default()
        };
        let r2 = Report::new("dup_b", "t", &other);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r2.finish(&other)));
        assert!(err.is_err(), "conflicting --metrics paths must not merge");

        // Same story for --json: one experiment may re-finish, two may not
        // share a file.
        let json_path = dir.join("report.json");
        let jargs = Args {
            json: Some(json_path.clone()),
            ..Args::default()
        };
        Report::new("dup_j", "t", &jargs).finish(&jargs);
        Report::new("dup_j", "t", &jargs).finish(&jargs);
        let clash = Report::new("dup_k", "t", &jargs);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| clash.finish(&jargs)));
        assert!(err.is_err(), "two experiments must not share a --json path");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
