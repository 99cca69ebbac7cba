//! `serving`: an open loop of independent tenants. Poisson arrivals of the
//! demo mix (`q18_like` / `q3_like` / `q1_like`, rotating) run over
//! `tpch_mini` through `engine::run_open_loop_with` under
//! `Policy::SjfAging`, with a bounded waiting room, the memory gate,
//! per-class SLOs and the metrics recorder on.
//!
//! The three arrival rates and the SLOs are frozen as absolute simulated
//! values (see [`calibrate`] for the measurement they came from), so a
//! faster engine shows as lower latency rather than as a rescaled load.
//! Arrivals are simulated timestamps: the generator cannot run late, and
//! its lateness is 0 by construction.

use crate::spans::Tracer;
use crate::{device, splitmix64, stats, Opts, Outcome, Passes};
use engine::demo::{q18_like, q1_like, q3_like, tpch_mini};
use engine::scheduler::{OpenQuery, Policy, QuerySpec, ServingConfig};
use engine::{EngineError, Plan};
use serde_json::json;
use sim::SimTime;
use std::time::Instant;

/// Paper-regime scale; the catalog holds `2^SCALE / 16` orders.
const SCALE: u32 = 16;
const ORDERS: usize = (1 << SCALE) / 16;
/// Arrivals per rate: at least 100, so p90 has 10 samples beyond it.
const ARRIVALS: usize = 100;
/// Waiting-room depth (queries in the system). Sized so that no rate
/// sheds: every operation of the workload must complete.
const DEPTH: usize = 32;
/// Catalog set-ups per rate step (the set-up time is their median).
const SETUP_REPS: usize = 5;
/// SLO attainment a rate needs to count toward `max_qps_within_slo`.
const ATTAINMENT_TARGET: f64 = 0.9;

/// One frozen arrival rate.
#[derive(Debug, Clone, Copy)]
pub struct Rate {
    /// Metric suffix.
    pub name: &'static str,
    /// Offered load, simulated queries per second.
    pub qps: f64,
}

/// The frozen rates: about 0.5x, 0.9x and 1.3x of the capacity measured
/// by [`calibrate`] at definition (seed 1: 299664.7 q/s).
pub const RATES: [Rate; 3] = [
    Rate {
        name: "low",
        qps: 149_832.3,
    },
    Rate {
        name: "mid",
        qps: 269_698.2,
    },
    Rate {
        name: "high",
        qps: 389_564.1,
    },
];

/// Mean solo service time of the mix at definition, `1 / capacity`: the
/// slack of the growing-backlog test.
const MEAN_SERVICE_S: f64 = 1.0 / 299_664.7;

/// Frozen per-class SLOs, simulated seconds of `completion - arrival`:
/// 2.5x each class's solo service time at definition.
pub const SLOS: [(&str, f64); 3] = [
    ("q18", 9.703274e-6),
    ("q3", 7.071007e-6),
    ("q1", 8.253694e-6),
];

fn mix(i: usize) -> (&'static str, Plan) {
    match i % 3 {
        0 => ("q18", q18_like()),
        1 => ("q3", q3_like()),
        _ => ("q1", q1_like()),
    }
}

fn slo(class: &str) -> f64 {
    SLOS.iter()
        .find(|(c, _)| *c == class)
        .map(|(_, s)| *s)
        .expect("every class has a frozen SLO")
}

/// Metrics sampling interval: 100 us of simulated time at the paper's
/// full scale, shrunk by the paper-regime factor like the device.
fn metrics_interval() -> SimTime {
    SimTime::from_secs(1e-4 / 2f64.powi(27 - SCALE as i32))
}

/// Poisson arrivals at `qps`, starting at `t0`.
fn arrivals(seed: u64, step: usize, qps: f64, t0: f64) -> Vec<OpenQuery> {
    let mut rng = seed ^ 0x7365_7276_696e_6700 ^ step as u64; // "serving"
    let mut at = t0;
    (0..ARRIVALS)
        .map(|i| {
            let u = ((splitmix64(&mut rng) >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() / qps;
            let (class, plan) = mix(i);
            OpenQuery::new(SimTime::from_secs(at), class, QuerySpec::new(plan))
        })
        .collect()
}

/// What one rate step produced, on the simulated clock.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    latencies: Vec<f64>,
    attainment: f64,
    backlog_grows: bool,
    busy_s: f64,
    queue_wait_p50: f64,
    queue_wait_p90: f64,
    utilization: f64,
    shed: u64,
    rejected: u64,
}

/// Run the workload.
pub fn run(opts: &Opts, passes: &mut Passes, tr: &mut Tracer, out: &mut Outcome) {
    let mut serving = ServingConfig::new()
        .with_total_depth(DEPTH)
        .with_memory_gate();
    for (class, s) in SLOS {
        serving = serving.with_slo(class, s);
    }
    let mut first: Option<Vec<Step>> = None;

    while let Some(index) = passes.next_pass() {
        let wall = Instant::now();
        tr.set_enabled(passes.traced(index));
        tr.set_pass(index);
        let mut host = 0.0;
        let mut steps = Vec::new();
        for (step, rate) in RATES.iter().enumerate() {
            let dev = device(SCALE);
            dev.enable_metrics(metrics_interval());

            // A catalog takes well under a millisecond to build, so set up
            // several times for a steady median; the last one is served.
            let mut catalog = None;
            for _ in 0..SETUP_REPS {
                drop(catalog.take());
                let t = Instant::now();
                let open = tr.begin("workloads.generate.host_s", &dev);
                catalog = Some(tpch_mini(&dev, ORDERS, opts.seed));
                tr.end(open, &dev);
                out.setup_s.push(t.elapsed().as_secs_f64());
            }
            let catalog = catalog.expect("at least one set-up");
            if index == 0 && step == 0 {
                out.info("scale_log2", json!(SCALE));
                out.info("orders", json!(ORDERS));
                out.info("scaled_l2_bytes", json!(dev.config().l2_bytes));
                out.info("arrivals_per_rate", json!(ARRIVALS));
                out.info("waiting_room_depth", json!(DEPTH));
                out.info("policy", json!("SjfAging, memory gate on"));
                out.info("generator_lateness_s", json!(0.0));
            }
            let offered = arrivals(opts.seed, step, rate.qps, dev.elapsed().secs());
            let classes: Vec<&str> = (0..ARRIVALS).map(|i| mix(i).0).collect();
            let first_arrival = offered[0].at.secs();

            // -- Timed region: the serving session. -----------------------
            let t = Instant::now();
            let pass_span = tr.begin("pass", &dev);
            let open = tr.begin(format!("engine.scheduler.host_s.{}", rate.name), &dev);
            let reports =
                engine::run_open_loop_with(&dev, &catalog, offered, Policy::SjfAging, &serving);
            tr.end(open, &dev);
            tr.end(pass_span, &dev);
            host += t.elapsed().as_secs_f64();
            // ---------------------------------------------------------------

            // Peak RSS so far, read before this step's checks (which
            // allocate next to nothing); the last read covers the run.
            out.peak_rss_mb = crate::peak_rss_mb();
            let s = judge(rate, &classes, first_arrival, &reports, &dev, out);
            if tr.enabled() {
                let r = rate.name;
                out.layer(
                    format!("engine.scheduler.queue_wait_p50_s.{r}"),
                    s.queue_wait_p50,
                );
                out.layer(
                    format!("engine.scheduler.queue_wait_p90_s.{r}"),
                    s.queue_wait_p90,
                );
                out.layer(format!("engine.scheduler.utilization.{r}"), s.utilization);
                out.layer(format!("engine.scheduler.shed.{r}"), s.shed as f64);
                out.layer(format!("engine.scheduler.rejected.{r}"), s.rejected as f64);
            }
            steps.push(s);
        }
        if tr.enabled() {
            out.traced_host_s.push(host);
        } else {
            out.host_s.push(host);
        }
        out.sim_s.push(steps.iter().map(|s| s.busy_s).sum());
        match &first {
            None => first = Some(steps),
            Some(f) => out.check("serving results identical to pass 0", *f == steps),
        }
        passes.finish(wall.elapsed().as_secs_f64());
    }
    tr.set_enabled(false);
    if let Some(steps) = first {
        report(&steps, out);
    }
}

/// Check one rate step's outputs and reduce it to its simulated results.
fn judge(
    rate: &Rate,
    classes: &[&str],
    first_arrival: f64,
    reports: &[engine::scheduler::QueryReport],
    dev: &sim::Device,
    out: &mut Outcome,
) -> Step {
    let (mut completed, mut shed, mut rejected, mut errored) = (0u64, 0u64, 0u64, 0u64);
    let mut latencies = Vec::new();
    let mut waits = Vec::new();
    let mut met = 0usize;
    let mut busy_s = 0.0;
    let mut last_completion = first_arrival;
    for (report, class) in reports.iter().zip(classes) {
        match &report.result {
            Ok(_) => {
                completed += 1;
                let latency = (report.completion - report.arrival).secs();
                met += usize::from(latency <= slo(class));
                latencies.push(latency);
                waits.push(report.queue_wait().secs());
                busy_s += report.busy.secs();
                last_completion = last_completion.max(report.completion.secs());
            }
            Err(EngineError::QueueShed { .. }) => shed += 1,
            Err(EngineError::AdmissionRejected { .. }) => rejected += 1,
            Err(e) => {
                eprintln!("perfbench: serving query failed: {e}");
                errored += 1;
            }
        }
    }
    let offered = classes.len() as u64;
    out.attempted += offered;
    out.failed += shed + rejected + errored;
    out.check(
        format!("{}: completed + shed + rejected == offered", rate.name),
        reports.len() == classes.len() && completed + shed + rejected == offered,
    );
    let snap = dev.metrics_snapshot().expect("metrics recorder is on");
    for (class, _) in SLOS {
        let done = reports
            .iter()
            .zip(classes)
            .filter(|(r, c)| **c == class && r.result.is_ok())
            .count() as u64;
        let counted = snap
            .registry
            .histogram("query_latency_seconds", &[("class", class)])
            .map_or(0, |h| h.count());
        out.check(
            format!(
                "{}: query_latency_seconds{{class={class}}} count == completed",
                rate.name
            ),
            counted == done,
        );
    }
    let span = last_completion - first_arrival;
    Step {
        attainment: met as f64 / offered as f64,
        backlog_grows: stats::backlog_grows(&waits, MEAN_SERVICE_S),
        queue_wait_p50: stats::percentile(&waits, 50).unwrap_or(0.0),
        queue_wait_p90: stats::percentile(&waits, 90).unwrap_or(0.0),
        utilization: if span > 0.0 { busy_s / span } else { 0.0 },
        latencies,
        busy_s,
        shed,
        rejected,
    }
}

/// Print the serving results of the first pass (later passes must repeat
/// them exactly).
fn report(steps: &[Step], out: &mut Outcome) {
    for (rate, s) in RATES.iter().zip(steps) {
        let p90 = stats::percentile(&s.latencies, 90).unwrap_or(0.0);
        out.extra(
            format!("sim_p90_s.{}", rate.name),
            p90,
            &format!(
                "s (n={}, {} beyond)",
                s.latencies.len(),
                stats::beyond(s.latencies.len(), 90)
            ),
        );
        if rate.name == "mid" {
            let p50 = stats::percentile(&s.latencies, 50).unwrap_or(0.0);
            out.extra(
                "sim_p50_s.mid",
                p50,
                &format!("s (n={})", s.latencies.len()),
            );
        }
        out.extra(
            format!("slo_attainment.{}", rate.name),
            s.attainment,
            "ratio",
        );
        out.extra(
            format!("queue_wait_p90_s.{}", rate.name),
            s.queue_wait_p90,
            "s",
        );
        out.extra(
            format!("backlog_grows.{}", rate.name),
            f64::from(u8::from(s.backlog_grows)),
            "bool",
        );
    }
    let max_qps = RATES
        .iter()
        .zip(steps)
        .filter(|(_, s)| s.attainment >= ATTAINMENT_TARGET && !s.backlog_grows)
        .map(|(r, _)| r.qps)
        .fold(0.0, f64::max);
    out.extra("max_qps_within_slo", max_qps, "q/s (simulated)");
}

/// Measure capacity once: each class's solo service time on a fresh
/// device (`Policy::Serial`, one query), capacity `1 / mean service`, and
/// the rates and SLOs derived from it. Prints what [`RATES`] and [`SLOS`]
/// freeze.
pub fn calibrate(seed: u64) {
    let solo: Vec<(&str, f64)> = (0..3)
        .map(|i| {
            let dev = device(SCALE);
            let catalog = tpch_mini(&dev, ORDERS, seed);
            let (class, plan) = mix(i);
            let reports =
                engine::run_queries(&dev, &catalog, vec![QuerySpec::new(plan)], Policy::Serial);
            assert!(reports[0].result.is_ok(), "solo demo query must run");
            (class, reports[0].busy.secs())
        })
        .collect();
    let mean = solo.iter().map(|(_, s)| s).sum::<f64>() / solo.len() as f64;
    let capacity = 1.0 / mean;
    println!("scale {SCALE}, {ORDERS} orders, seed {seed}");
    for (class, s) in &solo {
        println!("solo {class}: {:.6e} s -> SLO 2.5x = {:.6e} s", s, 2.5 * s);
    }
    println!("capacity {capacity:.1} q/s");
    for f in [0.5, 0.9, 1.3] {
        println!("rate {f}x = {:.1} q/s", f * capacity);
    }
}
