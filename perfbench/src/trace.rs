//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start and end (ns since the tracer was made),
//! the span that caused it and the operation it belongs to. Spans stay in
//! memory and are written out when the benchmark exits. A disabled tracer
//! records nothing, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes when dropped. Id 0 means "not recorded".
pub struct Guard<'a> {
    tr: &'a Tracer,
    pub id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Mark the operation later spans belong to.
    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }

    pub fn span(&self, name: &'static str, parent: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tr: self,
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        Guard {
            tr: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span log poisoned by a panicking worker"),
        )
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.tr.op.load(Ordering::Relaxed),
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tr.now_ns(),
        };
        if let Ok(mut spans) = self.tr.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per span name: count, inclusive seconds and self seconds (duration minus
/// the union of the intervals its children cover).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |iv| {
            iv.sort_unstable();
            let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in iv.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        total += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            total + cur.map_or(0, |(a, b)| b - a)
        });
        let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += dur as f64 * 1e-9;
        e.2 += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// One JSON object per line, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut s = String::new();
    for sp in spans {
        s.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            sp.id, sp.parent, sp.op, sp.name, sp.start_ns, sp.end_ns
        ));
    }
    s
}
