//! The benchmark's own span recorder (choosing-metrics §4): spans are taken
//! in the benchmark's files only, around each call into a layer of the
//! system, kept in memory, and written as Chrome-trace JSON at exit.
//!
//! A disabled tracer records nothing, so untraced runs pay one branch per
//! call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span ids of a pump thread's tracer start here, apart from the main
/// thread's, until `absorb` renames them.
const PUMP_ID_BASE: u32 = 1 << 24;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    /// 0 = the thread that calls into the system, 1 = the load generator.
    pub lane: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    lane: u8,
    next_id: u32,
    /// Open spans, innermost last: `begin` parents to the top.
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            lane: 0,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for the load-generator thread whose spans hang under
    /// `parent`; merge it back with [`Tracer::absorb`].
    pub fn for_pump(&self, parent: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            lane: 1,
            next_id: PUMP_ID_BASE,
            stack: vec![parent],
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id (0 when
    /// tracing is off).
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            lane: self.lane,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("an open span was recorded at begin");
        span.end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Record a finished interval under `parent` (clamped into it), e.g. a
    /// window close reconstructed from the callback time and its duration.
    pub fn add(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let (mut start_ns, end_ns) = (self.ns(start), self.ns(end));
        if let Some(p) = self.spans.iter().find(|s| s.id == parent) {
            start_ns = start_ns.max(p.start_ns);
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            lane: self.lane,
            start_ns: start_ns.min(end_ns),
            end_ns,
        });
    }

    /// Take over a pump tracer's spans under fresh ids of this tracer, so
    /// that any number of pump tracers can be merged.
    pub fn absorb(&mut self, pump: Tracer) {
        let mut renamed = BTreeMap::new();
        for mut span in pump.spans {
            renamed.insert(span.id, self.next_id);
            span.id = self.next_id;
            self.next_id += 1;
            // A parent opened on the pump thread was renamed before its
            // children; any other parent is one of this tracer's spans.
            if let Some(&parent) = renamed.get(&span.parent) {
                span.parent = parent;
            }
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean cost of recording one span, measured on a scratch tracer.
    pub fn span_cost_ns() -> f64 {
        const N: u32 = 20_000;
        let mut t = Tracer::new(true, Instant::now());
        let t0 = Instant::now();
        for _ in 0..N {
            let id = t.begin("calibrate");
            t.end(id);
        }
        std::hint::black_box(&t.spans);
        t0.elapsed().as_nanos() as f64 / N as f64
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children may overlap each other across lanes).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per span name, in ms, for the report.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += selfs[&s.id] as f64 / 1e6;
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per span, carrying its id, parent id and the workload.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\"}}}}",
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            workload
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            lane: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children [10,40) and [30,60) overlap: they cover 50 of 100.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 2, 10, 20),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x");
        t.end(id);
        t.add("y", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_open_one() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer");
        t.scope("inner", |t| {
            let leaf = t.begin("leaf");
            t.end(leaf);
        });
        t.end(outer);
        assert_eq!(t.spans()[0].parent, 0);
        assert_eq!(t.spans()[1].parent, t.spans()[0].id);
        assert_eq!(t.spans()[2].parent, t.spans()[1].id);
    }
}
