//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only from this package, around public calls into
//! the simulator's crates; no crate of the simulator is instrumented.
//! A disabled tracer reads no clock, so untraced runs pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.advance_to`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Time spent in spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover, ns.
    pub self_ns: u64,
}

/// Records nested spans when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; it encloses every span opened before its [`exit`].
    ///
    /// [`exit`]: Tracer::exit
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Total and self time per span name. Children run one after another
    /// inside their parent, so self time is the parent's duration minus
    /// the sum of its children's.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(cov);
        }
        out
    }

    /// The spans as JSON Lines, one object per span.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "slice",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "core.advance_to",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
            },
            Span {
                name: "telemetry.scrape",
                start_ns: 70,
                end_ns: 90,
                parent: Some(0),
            },
        ];
        let lt = t.layer_times();
        assert_eq!(lt["slice"].total_ns, 100);
        assert_eq!(lt["slice"].self_ns, 20);
        assert_eq!(lt["core.advance_to"].self_ns, 60);
        let all_self: u64 = lt.values().map(|l| l.self_ns).sum();
        assert_eq!(all_self, 100, "self times partition the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.new", || 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new(true);
        t.enter("slice");
        t.span("workload.drive", || ());
        t.exit();
        t.span("core.run_until_idle", || ());
        let p: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(p, vec![None, Some(0), None]);
        assert!(t
            .jsonl("w")
            .lines()
            .all(|l| l.contains("\"workload\":\"w\"")));
    }
}
