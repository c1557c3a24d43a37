//! Spans recorded from the benchmark's own files around calls into each
//! layer (choosing-metrics §4). Spans stay in memory and are written out
//! when the run ends; end-to-end numbers always come from a run with the
//! recorder off, so the same `open`/`close` pair is also the only clock
//! the workloads read.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Allocation calls so far: exact under the `benchmark-traced` binary
/// (which installs the counting allocator), 0 under the plain one.
pub fn alloc_count() -> u64 {
    #[cfg(feature = "trace")]
    {
        seacma_util::alloc::alloc_count()
    }
    #[cfg(not(feature = "trace"))]
    {
        0
    }
}

/// Bytes requested so far; same caveat as [`alloc_count`].
pub fn alloc_bytes() -> u64 {
    #[cfg(feature = "trace")]
    {
        seacma_util::alloc::alloc_bytes()
    }
    #[cfg(not(feature = "trace"))]
    {
        0
    }
}

/// One call across a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (points, visits, queries …).
    pub items: u64,
    /// Allocation calls inside the span; exact on one thread only.
    pub allocs: u64,
}

/// An open span: the clock and allocation readings at `open`.
#[derive(Debug)]
pub struct Open {
    at: Instant,
    allocs: u64,
    slot: Option<usize>,
}

/// Per-thread span recorder. Threads record into their own recorder
/// (sharing the run's origin instant) and are merged afterwards.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    last_allocs: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            last_allocs: 0,
        }
    }

    /// A recorder for another thread: same origin, nothing recorded yet.
    pub fn fork(&self) -> Self {
        Self {
            spans: Vec::new(),
            stack: Vec::new(),
            ..*self
        }
    }

    /// Allocation calls inside the span closed last (0 when disabled).
    pub fn last_allocs(&self) -> u64 {
        self.last_allocs
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Open {
        let slot = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                layer,
                name,
                start_ns: 0,
                end_ns: 0,
                items: 0,
                allocs: 0,
            });
            self.stack.push(id);
            id as usize
        });
        // Read the clock last so recorder bookkeeping stays outside.
        Open {
            allocs: alloc_count(),
            slot,
            at: Instant::now(),
        }
    }

    /// Closes `open` and returns the seconds it covered. Spans close in
    /// LIFO order.
    pub fn close(&mut self, open: Open, items: u64) -> f64 {
        let elapsed = open.at.elapsed();
        if let Some(slot) = open.slot {
            let allocs = alloc_count() - open.allocs;
            let start_ns = open.at.duration_since(self.origin).as_nanos() as u64;
            let span = &mut self.spans[slot];
            span.start_ns = start_ns;
            span.end_ns = start_ns + elapsed.as_nanos() as u64;
            span.items = items;
            span.allocs = allocs;
            self.last_allocs = allocs;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot as u32), "spans must close innermost-first");
        }
        elapsed.as_secs_f64()
    }

    /// Times one call as a span.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(layer, name);
        let out = f();
        let secs = self.close(open, items);
        (out, secs)
    }

    /// Records an already-measured leaf under the innermost open span
    /// (used by the query loop, which reads the clock once per query).
    pub fn leaf(&mut self, layer: &'static str, name: &'static str, at: Instant, ns: u64) {
        if self.enabled {
            let start_ns = at.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id: self.spans.len() as u32,
                parent: self.stack.last().copied(),
                layer,
                name,
                start_ns,
                end_ns: start_ns + ns,
                items: 1,
                allocs: 0,
            });
        }
    }

    /// Adopts another thread's spans; its roots become children of the
    /// innermost open span here.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        let root = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset).or(root);
            s
        }));
    }
}

/// Seconds and calls of the spans named `(layer, name)`, `name` matched
/// as a prefix.
pub fn total_of(spans: &[Span], layer: &str, name: &str) -> (f64, u64) {
    let named = spans
        .iter()
        .filter(|s| s.layer == layer && s.name.starts_with(name));
    named.fold((0.0, 0), |(secs, calls), s| {
        (secs + (s.end_ns - s.start_ns) as f64 / 1e9, calls + 1)
    })
}

/// Totals of one `(layer, name)` over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    pub calls: u64,
    pub total_ns: u64,
    /// Time not covered by any child span.
    pub self_ns: u64,
    pub items: u64,
    pub allocs: u64,
}

/// Length of the union of `[start, end)` intervals clipped to `within`.
fn covered_ns(within: (u64, u64), mut children: Vec<(u64, u64)>) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, within.0);
    for (s, e) in children {
        let (s, e) = (s.max(cursor), e.min(within.1));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children on other threads may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered_ns((s.start_ns, s.end_ns), kids))
        .collect()
}

/// Per-`(layer, name)` totals, in name order.
pub fn summarize(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Summary> {
    let mut out: BTreeMap<_, Summary> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry((s.layer, s.name)).or_default();
        e.calls += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
        e.items += s.items;
        e.allocs += s.allocs;
    }
    out
}

/// Spans of one name written to the file before the rest are only
/// counted: a ten-second serve run opens half a million query spans.
pub const SPANS_PER_NAME_IN_FILE: usize = 2_000;

/// The span file: every span (capped per name) plus the summary.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(256 * 1024);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    );
    let mut written: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut first = true;
    for s in spans {
        let n = written.entry((s.layer, s.name)).or_default();
        *n += 1;
        if *n > SPANS_PER_NAME_IN_FILE {
            continue;
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n  {{\"id\": {}, \"parent\": {parent}, \"workload\": \"{workload}\", \"layer\": \"{}\", \
             \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"items\": {}, \"allocs\": {}}}",
            if first { "" } else { "," },
            s.id,
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            s.items,
            s.allocs
        );
        first = false;
    }
    out.push_str("\n], \"summary\": [");
    for (i, ((layer, name), t)) in summarize(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  {{\"layer\": \"{layer}\", \"name\": \"{name}\", \"calls\": {}, \"total_ns\": {}, \
             \"self_ns\": {}, \"items\": {}, \"allocs\": {}, \"spans_in_file\": {}}}",
            if i == 0 { "" } else { "," },
            t.calls,
            t.total_ns,
            t.self_ns,
            t.items,
            t.allocs,
            written[&(*layer, *name)].min(SPANS_PER_NAME_IN_FILE)
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            items: 1,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps span 1 (another thread): the union is [10, 60).
            span(2, Some(0), 30, 60),
            span(3, Some(0), 80, 90),
            // A grandchild only reduces its own parent.
            span(4, Some(1), 15, 20),
            // A child running past its parent is clipped to it.
            span(5, Some(3), 85, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 5, 5, 35]);
    }

    #[test]
    fn nested_spans_record_parent_and_merge_reparents() {
        let mut t = Tracer::new(true);
        let outer = t.open("core", "outer");
        let inner = t.open("vision", "inner");
        t.close(inner, 3);
        let mut other = t.fork();
        let o = other.open("daemon", "thread");
        other.close(o, 1);
        t.merge(other);
        t.close(outer, 9);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0)]
        );
        assert_eq!((s[0].items, s[1].items, s[2].id), (9, 3, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let sum = summarize(s);
        assert_eq!(sum[&("core", "outer")].calls, 1);
        assert!(sum[&("core", "outer")].self_ns <= sum[&("core", "outer")].total_ns);
    }

    #[test]
    fn a_disabled_recorder_still_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.call("core", "x", 1, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_file_caps_spans_per_name_and_keeps_the_summary_whole() {
        let spans: Vec<Span> = (0..SPANS_PER_NAME_IN_FILE as u32 + 5)
            .map(|i| span(i, None, 0, 1))
            .collect();
        let doc = seacma_util::json::parse(&to_json("w", 1, &spans)).expect("span file parses");
        let n = |k: &str| doc.get(k).and_then(|v| v.as_array()).expect("array").len();
        assert_eq!((n("spans"), n("summary")), (SPANS_PER_NAME_IN_FILE, 1));
        let calls = doc
            .get("summary")
            .and_then(|v| v.as_array())
            .expect("array")[0]
            .get("calls");
        assert_eq!(
            calls.and_then(|v| v.as_u64()),
            Some(SPANS_PER_NAME_IN_FILE as u64 + 5)
        );
    }
}
