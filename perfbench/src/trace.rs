//! In-memory spans recorded around the public calls the benchmark makes.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! epoch), the span that caused it, the thread it ran on, and a request id
//! shared by every span of one request. Spans stay in memory until the run
//! ends and are written out then ([`write_jsonl`]). A span's *self time*
//! is its duration minus the part of its interval that its child spans
//! cover ([`self_times`]).
//!
//! A disabled tracer (the untraced run) hands out inert guards that never
//! read the clock.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The request this span belongs to.
    pub request: u64,
    /// Layer-boundary name, for example `prefix.profile`.
    pub name: &'static str,
    /// Small per-run thread number.
    pub thread: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span that closes when the guard drops. `parent` is the id of
    /// the causing span ([`SpanGuard::id`]).
    pub fn span(&self, name: &'static str, request: u64, parent: Option<u64>) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                id,
                parent,
                request,
                name,
                start: Instant::now(),
            }),
        }
    }

    /// Removes and returns every recorded span, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Instant,
}

/// An open span; records itself when dropped.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl SpanGuard<'_> {
    /// The span's id, to pass as the parent of the spans it causes; `None`
    /// when tracing is off.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|s| s.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.open.take() {
            let end = Instant::now();
            let span = Span {
                id: s.id,
                parent: s.parent,
                request: s.request,
                name: s.name,
                thread: thread_number(),
                start_ns: s.tracer.nanos(s.start),
                end_ns: s.tracer.nanos(end),
            };
            // Never panic in drop: a poisoned buffer loses the span.
            if let Ok(mut spans) = s.tracer.spans.lock() {
                spans.push(span);
            }
        }
    }
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static NUMBER: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

/// Self time of every span, in the order of `spans`: the span's duration
/// minus the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Checks that spans nest: every parent exists, shares the request id, and
/// encloses its child's interval.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!(
                "span {} ({}) names missing parent {pid}",
                s.id, s.name
            ));
        };
        if p.request != s.request {
            return Err(format!(
                "span {} ({}) and parent {pid} differ in request",
                s.id, s.name
            ));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) escapes parent {pid} ({})",
                s.id, s.name, p.name
            ));
        }
    }
    Ok(())
}

/// Durations (nanoseconds) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// The share of root-span time that child spans account for, over the
/// root spans that have children: `1 − Σ self(root) / Σ duration(root)`.
pub fn child_coverage(spans: &[Span], selfs: &[u64]) -> f64 {
    let parents: std::collections::HashSet<u64> = spans.iter().filter_map(|s| s.parent).collect();
    let (mut total, mut own) = (0u64, 0u64);
    for (s, &t) in spans.iter().zip(selfs) {
        if s.parent.is_none() && parents.contains(&s.id) {
            total += s.duration_ns();
            own += t;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

/// Writes one JSON object per span, with its self time.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    for (s, t) in spans.iter().zip(selfs) {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"thread\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{t}}}",
            s.id, s.request, s.name, s.thread, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name: "t",
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60), // overlaps 2: union is 10..60
            span(4, Some(2), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
        assert!(check_nesting(&spans).is_ok());
        assert!((child_coverage(&spans, &self_times(&spans)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nesting_check_rejects_escaping_children() {
        let spans = vec![span(1, None, 0, 10), span(2, Some(1), 5, 11)];
        assert!(check_nesting(&spans).is_err());
        let orphan = vec![span(2, Some(9), 0, 1)];
        assert!(check_nesting(&orphan).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("x", 1, None);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(t.take().is_empty());

        let t = Tracer::new(true);
        {
            let outer = t.span("outer", 1, None);
            let _inner = t.span("inner", 1, outer.id());
        }
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert!(check_nesting(&spans).is_ok());
    }
}
