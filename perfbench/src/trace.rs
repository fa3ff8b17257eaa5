//! Spans around the public calls of the traced run.
//!
//! Spans are kept in memory on the client thread — the runtime runs at
//! one worker, so `Runtime::map` calls back on that thread — and
//! written out when the run ends. Each has a name, a start, an end, a
//! parent and a request id shared by every span of one op. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use crate::report::Layers;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// Root spans: `op` around an op's public calls, and `free` around
/// dropping its result once the output is checked.
const ROOTS: [&str; 2] = ["op", "free"];

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    /// Index of the enclosing span.
    pub(crate) parent: Option<u32>,
    pub(crate) request: u32,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub(crate) fn start() {
    RECORDER.with(|recorder| {
        *recorder.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        });
    });
}

/// Starts the next op: spans opened from here on share a new request
/// id.
pub(crate) fn next_request() {
    RECORDER.with(|recorder| {
        if let Some(rec) = recorder.borrow_mut().as_mut() {
            rec.request += 1;
        }
    });
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub(crate) struct Guard(u32);

/// Opens a span under the innermost open one.
pub(crate) fn span(name: &'static str) -> Guard {
    RECORDER.with(|recorder| {
        let mut recorder = recorder.borrow_mut();
        let rec = recorder
            .as_mut()
            .expect("recording starts before the first span");
        let index = u32::try_from(rec.spans.len()).expect("fewer than 2^32 spans");
        let now = rec.now();
        let parent = rec.open.last().copied();
        let request = rec.request;
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        rec.open.push(index);
        Guard(index)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        RECORDER.with(|recorder| {
            if let Some(rec) = recorder.borrow_mut().as_mut() {
                let now = rec.now();
                if let Some(span) = rec.spans.get_mut(self.0 as usize) {
                    span.end_ns = now;
                }
                rec.open.pop();
            }
        });
    }
}

/// Stops recording, writes the spans to
/// `perfbench/traces/<workload>-seed<seed>.tsv`, and summarizes them.
pub(crate) fn finish(workload: &str, seed: u64) -> Result<SpanSummary, String> {
    let spans = RECORDER.with(|recorder| {
        recorder
            .borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    });
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.tsv"));
    write(&spans, &path).map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    Ok(SpanSummary::new(&spans))
}

/// One tab-separated line per span: request, index, parent (-1 for a
/// root), name, and start and end in ns since recording started.
fn write(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{}\t{index}\t{parent}\t{}\t{}\t{}",
            span.request, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover, overlaps among the children counted once.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].start_ns);
    let mut covered = vec![0u64; spans.len()];
    // How far each span's children, taken in start order, reach so far.
    let mut reach = vec![0u64; spans.len()];
    for i in order {
        let Some(parent) = spans[i].parent.map(|p| p as usize) else {
            continue;
        };
        let start = spans[i]
            .start_ns
            .max(spans[parent].start_ns)
            .max(reach[parent]);
        let end = spans[i].end_ns.min(spans[parent].end_ns);
        if end > start {
            covered[parent] += end - start;
            reach[parent] = end;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.end_ns - span.start_ns - covered)
        .collect()
}

/// Per-name self times of a traced run, and the op time they are shares
/// of.
pub(crate) struct SpanSummary {
    /// Span count and summed self time (ns) per name.
    totals: BTreeMap<&'static str, (u64, u64)>,
    /// Ops traced: one `op` span each.
    ops: u64,
    /// Summed duration of the root spans.
    root_ns: u64,
    /// The part of it no child span covers.
    root_self_ns: u64,
}

impl SpanSummary {
    fn new(spans: &[Span]) -> Self {
        let mut summary = SpanSummary {
            totals: BTreeMap::new(),
            ops: 0,
            root_ns: 0,
            root_self_ns: 0,
        };
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            let (count, total) = summary.totals.entry(span.name).or_default();
            *count += 1;
            *total += self_ns;
            if span.parent.is_none() && ROOTS.contains(&span.name) {
                summary.root_ns += span.end_ns - span.start_ns;
                summary.root_self_ns += self_ns;
                summary.ops += u64::from(span.name == ROOTS[0]);
            }
        }
        summary
    }

    fn self_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |&(_, ns)| ns)
    }

    /// `name`'s self time as a share of all op time.
    pub(crate) fn share(&self, name: &str) -> f64 {
        self.self_ns(name) as f64 / self.root_ns.max(1) as f64
    }

    /// Mean self time of one `name` span, µs; 0 when there is none.
    pub(crate) fn mean_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |&(count, ns)| ns as f64 / count as f64 / 1e3)
    }

    /// Summed self time of the `name` spans, s.
    pub(crate) fn self_s(&self, name: &str) -> f64 {
        self.self_ns(name) as f64 / 1e9
    }

    /// Sets the tracing metrics: the traced op time against
    /// `untraced_us`, the mean untraced op time of the same run, and the
    /// share of op time no layer span covers.
    pub(crate) fn fill_common(&self, layers: &mut Layers, untraced_us: f64) {
        let traced_us = self.root_ns as f64 / self.ops.max(1) as f64 / 1e3;
        layers.set(
            "trace.overhead_share",
            (traced_us - untraced_us) / untraced_us,
        );
        layers.set(
            "trace.unattributed_share",
            self.root_self_ns as f64 / self.root_ns.max(1) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_exactly_what_children_cover() {
        // op [0,100] has children a [10,30] and b [20,50], which overlap,
        // c [60,70], and e [90,120], which runs past its parent; d
        // [12,14] is a's child, not op's.
        let spans = [
            at("op", 0, 100, None),
            at("a", 10, 30, Some(0)),
            at("d", 12, 14, Some(1)),
            at("b", 20, 50, Some(0)),
            at("c", 60, 70, Some(0)),
            at("e", 90, 120, Some(0)),
            at("free", 100, 110, None),
        ];
        assert_eq!(self_times(&spans), [40, 18, 2, 30, 10, 30, 10]);

        let summary = SpanSummary::new(&spans);
        assert_eq!(
            (summary.ops, summary.root_ns, summary.root_self_ns),
            (1, 110, 50)
        );
        assert_eq!(summary.mean_us("a"), 0.018);
        assert_eq!(summary.mean_us("missing"), 0.0);
    }

    #[test]
    fn guards_nest_spans_and_share_a_request_id() {
        start();
        next_request();
        {
            let _op = span("op");
            let _dsl = span("dsl");
        }
        next_request();
        drop(span("free"));
        let spans = RECORDER
            .with(|recorder| recorder.borrow_mut().take())
            .expect("recording")
            .spans;
        let shape: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            shape,
            [("op", None, 1), ("dsl", Some(0), 1), ("free", None, 2)]
        );
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
    }
}
