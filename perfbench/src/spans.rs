//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call it makes into a layer (`run_join`,
//! `run_group_by`, `gather`, `plan_sql`, `execute`, `run_open_loop_with`,
//! the generators) in a span: name, host start and end, parent span, the
//! pass it belongs to, and the device-counter delta over the call. Spans
//! stay in memory and are written out when the run ends. When tracing is
//! off, `begin`/`end` record nothing and read no counters.

use sim::{Counters, Device};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `joins.SMJ-OM`.
    pub name: String,
    /// Host nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass (or serving rate step) the span belongs to.
    pub pass: u32,
    /// Device counters accumulated during the span.
    pub counters: Counters,
}

impl Span {
    /// Host duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span: its index and the counters at entry.
pub struct Open {
    id: Option<usize>,
    before: Counters,
}

/// Span recorder. Spans nest by call order on the benchmark's one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between passes.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing only between spans");
        self.enabled = on;
    }

    /// Tag the spans that follow with pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Open a span around a call into `dev`.
    pub fn begin(&mut self, name: impl Into<String>, dev: &Device) -> Open {
        if !self.enabled {
            return Open {
                id: None,
                before: Counters::default(),
            };
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            pass: self.pass,
            counters: Counters::default(),
        });
        self.stack.push(id);
        Open {
            id: Some(id),
            before: dev.counters(),
        }
    }

    /// Close the span `open` (the innermost open one).
    pub fn end(&mut self, open: Open, dev: &Device) {
        let Some(id) = open.id else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let counters = dev.counters().delta_since(&open.before).0;
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.counters = counters;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of `spans[id]`, seconds: its duration minus the part of its
/// interval that its direct children cover (overlapping children count
/// once).
pub fn self_secs(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns - covered) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            pass: 0,
            counters: Counters::default(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the first child by 10
            span(25, 28, Some(1)),  // grandchild: not the root's child
            span(90, 120, Some(0)), // clipped to the parent's end
        ];
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert!((self_secs(&spans, 0) - 50e-9).abs() < 1e-15);
        assert!((self_secs(&spans, 1) - 17e-9).abs() < 1e-15);
        assert!((self_secs(&spans, 3) - 3e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_records_counter_deltas() {
        let dev = Device::new(sim::DeviceConfig::a100().with_host_threads(1));
        let mut tr = Tracer::new(true);
        tr.set_pass(7);
        let outer = tr.begin("outer", &dev);
        let inner = tr.begin("inner", &dev);
        dev.kernel("probe").items(1024, 1.0).launch();
        tr.end(inner, &dev);
        tr.end(outer, &dev);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].pass, 7);
        assert_eq!(s[0].counters.kernel_launches, 1);
        assert_eq!(s[1].counters.kernel_launches, 1);
        assert!(self_secs(s, 0) <= s[0].secs());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let dev = Device::new(sim::DeviceConfig::a100().with_host_threads(1));
        let mut tr = Tracer::new(false);
        let open = tr.begin("x", &dev);
        tr.end(open, &dev);
        assert!(tr.spans().is_empty());
    }
}
