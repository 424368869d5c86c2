//! Spans recorded by the harness around its calls into each layer.
//!
//! The product is not instrumented in this change: a span is either a
//! wall-clock interval the harness measured itself (`bench.client`,
//! `core.execute`, `server.roundtrip`) or a duration the response
//! reported (`exec_ns`, `caching_ns`, ...), turned into a child span laid
//! back to back from its parent's start. Reported children therefore have
//! exact durations but derived positions; self time — a span's duration
//! minus what its children cover — needs only the durations.

use std::io::Write;
use std::time::Instant;

/// Span names, `<layer>.<what>`; the layer is the crate the time is
/// charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One client's whole timed loop; its self time is the harness's own
    /// work between requests (request generation, result hashing).
    BenchClient,
    /// `ReCache::execute`, measured by the caller.
    CoreExecute,
    /// Post-execution cache maintenance (`QueryStats::caching_ns`).
    CoreCaching,
    /// Registry lookup, R-tree included (`QueryStats::lookup_ns`).
    CacheLookup,
    /// Engine execution (`exec_ns`).
    EngineExec,
    /// Data access on cached scans (the paper's `D`).
    EngineCacheData,
    /// Compute on cached scans (the paper's `C`).
    EngineCacheCompute,
    /// A table scanned raw.
    DataRawScan,
    /// A lazy entry's selective re-read of the raw file.
    DataLazyReread,
    /// `Client::query`, measured by the caller.
    ServerRoundtrip,
    /// The session's end-to-end time as the reply reports it
    /// (`telemetry.total_ns`).
    CoreServed,
}

impl Name {
    pub const ALL: [Name; 11] = [
        Name::BenchClient,
        Name::CoreExecute,
        Name::CoreCaching,
        Name::CacheLookup,
        Name::EngineExec,
        Name::EngineCacheData,
        Name::EngineCacheCompute,
        Name::DataRawScan,
        Name::DataLazyReread,
        Name::ServerRoundtrip,
        Name::CoreServed,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::BenchClient => "bench.client",
            Name::CoreExecute => "core.execute",
            Name::CoreCaching => "core.caching",
            Name::CacheLookup => "cache.lookup",
            Name::EngineExec => "engine.exec",
            Name::EngineCacheData => "engine.cache_data",
            Name::EngineCacheCompute => "engine.cache_compute",
            Name::DataRawScan => "data.raw_scan",
            Name::DataLazyReread => "data.lazy_reread",
            Name::ServerRoundtrip => "server.roundtrip",
            Name::CoreServed => "core.served",
        }
    }
}

/// Request id of spans that belong to no request (client loops).
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within a trace, starting at 1.
    pub id: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    /// Spans of one request share this.
    pub request: u64,
    pub name: Name,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client thread's span buffer. Spans stay in memory until the run
/// ends; nothing is written or locked on the request path.
#[derive(Debug)]
pub struct ThreadTrace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl ThreadTrace {
    /// All threads of a run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant) -> Self {
        ThreadTrace {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a measured span and returns its (thread-local) id.
    pub fn push(
        &mut self,
        parent: u32,
        request: u64,
        name: Name,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Lays reported durations back to back inside `parent`, starting at
    /// the parent's start; a child that would pass the parent's end is
    /// cut there (reported times are CPU sums under parallel scans and
    /// can exceed the wall interval that contains them). Zero durations
    /// record nothing. Returns the ids given to the children, 0 where
    /// nothing was recorded.
    pub fn push_reported(&mut self, parent: u32, children: &[(Name, u64)]) -> Vec<u32> {
        let (request, mut cursor, end) = {
            let p = &self.spans[parent as usize - 1];
            (p.request, p.start_ns, p.end_ns)
        };
        children
            .iter()
            .map(|&(name, duration_ns)| {
                let stop = cursor.saturating_add(duration_ns).min(end);
                if stop == cursor {
                    return 0;
                }
                let id = self.push(parent, request, name, cursor, stop);
                cursor = stop;
                id
            })
            .collect()
    }

    pub fn close(&mut self, id: u32, end_ns: u64) {
        self.spans[id as usize - 1].end_ns = end_ns;
    }
}

/// Merges per-thread buffers into one trace, renumbering ids so they stay
/// unique and parents keep pointing at the right span.
pub fn merge(threads: Vec<ThreadTrace>) -> Vec<Span> {
    let mut out = Vec::with_capacity(threads.iter().map(|t| t.spans.len()).sum());
    for thread in threads {
        let offset = out.len() as u32;
        out.extend(thread.spans.into_iter().map(|mut span| {
            span.id += offset;
            if span.parent != 0 {
                span.parent += offset;
            }
            span
        }));
    }
    out
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its children cover (overlapping children
/// are counted once, children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index_of = |id: u32| id as usize - 1;
    debug_assert!(spans.iter().enumerate().all(|(i, s)| index_of(s.id) == i));
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != 0 {
            let parent = &spans[index_of(span.parent)];
            let lo = span.start_ns.max(parent.start_ns);
            let hi = span.end_ns.min(parent.end_ns);
            if hi > lo {
                children[index_of(span.parent)].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in intervals.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per span name; index with `name as usize`.
pub fn self_time_by_name(spans: &[Span]) -> [u64; Name::ALL.len()] {
    let mut totals = [0u64; Name::ALL.len()];
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        totals[span.name as usize] += self_ns;
    }
    totals
}

/// Spans written to a trace file at most; a served run records millions
/// and the first requests show the tree as well as all of them.
pub const MAX_WRITTEN_SPANS: usize = 200_000;

/// Writes spans as JSON lines: `id, parent, request, name, start_ns,
/// end_ns`. Requests that have no request id (client loops) write `null`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans.iter().take(MAX_WRITTEN_SPANS) {
        let request = if span.request == NO_REQUEST {
            "null".to_owned()
        } else {
            span.request.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id,
            span.parent,
            request,
            span.name.as_str(),
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            // client loop 0..1000 with two requests inside
            span(1, 0, Name::BenchClient, 0, 1000),
            span(2, 1, Name::CoreExecute, 100, 500),
            span(3, 2, Name::CacheLookup, 100, 120),
            span(4, 2, Name::EngineExec, 120, 420),
            span(5, 4, Name::DataRawScan, 120, 400),
            span(6, 1, Name::CoreExecute, 600, 900),
            // overlapping children count once; one sticks out of its parent
            span(7, 6, Name::EngineExec, 600, 800),
            span(8, 6, Name::CoreCaching, 700, 950),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 1000 - 400 - 300, "client: gaps between requests");
        assert_eq!(own[1], 400 - 20 - 300, "execute: lookup and exec removed");
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 300 - 280);
        assert_eq!(own[4], 280);
        assert_eq!(own[5], 0, "children cover 600..900 entirely");
        assert_eq!(own[6], 200);
        assert_eq!(own[7], 250, "a child's own self time is not clipped");
        // Every nanosecond of a root is charged exactly once when children
        // nest properly: the first request's subtree sums to its span.
        assert_eq!(own[1] + own[2] + own[3] + own[4], 400);
        let by_name = self_time_by_name(&spans);
        let of = |n: Name| by_name[n as usize];
        assert_eq!(of(Name::CoreExecute), 80);
        assert_eq!(of(Name::EngineExec), 220);
        assert_eq!(of(Name::ServerRoundtrip), 0);
    }

    #[test]
    fn reported_children_are_laid_back_to_back_and_cut() {
        let mut trace = ThreadTrace::new(Instant::now());
        let root = trace.push(0, 7, Name::CoreExecute, 1000, 2000);
        let ids = trace.push_reported(
            root,
            &[
                (Name::CacheLookup, 100),
                (Name::CoreCaching, 0),
                (Name::EngineExec, 700),
                (Name::CoreCaching, 500),
            ],
        );
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[1], 0, "zero durations record nothing");
        let spans = merge(vec![trace]);
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1000, 1100));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1100, 1800));
        assert_eq!(
            (spans[3].start_ns, spans[3].end_ns),
            (1800, 2000),
            "cut at the parent's end"
        );
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn merge_keeps_ids_unique_and_parents_attached() {
        let epoch = Instant::now();
        let mut a = ThreadTrace::new(epoch);
        let root_a = a.push(0, NO_REQUEST, Name::BenchClient, 0, 10);
        a.push(root_a, 0, Name::CoreExecute, 1, 5);
        let mut b = ThreadTrace::new(epoch);
        let root_b = b.push(0, NO_REQUEST, Name::BenchClient, 0, 20);
        b.push(root_b, 1, Name::CoreExecute, 2, 12);
        let spans = merge(vec![a, b]);
        let ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(spans[3].parent, 3);
        assert_eq!(self_times(&spans), vec![6, 4, 10, 10]);
    }

    #[test]
    fn names_index_the_totals_table() {
        for (i, name) in Name::ALL.iter().enumerate() {
            assert_eq!(*name as usize, i, "ALL must follow declaration order");
            assert!(name.as_str().contains('.'), "names are <layer>.<what>");
        }
    }
}
