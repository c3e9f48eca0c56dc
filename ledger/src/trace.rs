//! The benchmark's own span recorder.
//!
//! Spans are recorded only from this crate, around the calls it makes into
//! the program's public API (client ops, transports, the WAL filesystem),
//! so tracing needs no support inside the program. Spans stay in memory and
//! are written out once the run ends.
//!
//! Tracing is switched per thread and per op: in a traced run every other
//! op of a thread is traced, so traced and untraced ops share one state
//! and one period, and their latency gap is the tracing overhead.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer the span belongs to: `op`, `net`, `cluster` or `wal`.
    pub layer: &'static str,
    /// What ran in that layer: an op kind, a protocol verb or a file call.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// This span's id (never 0).
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// The client op this span belongs to; 0 outside any op (server-side
    /// work on another thread).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
    })
}

thread_local! {
    /// `(op id, innermost open span id)` while a traced op runs here.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Whether server-side spans (no op on this thread) are being recorded.
static SERVER_SIDE: AtomicU64 = AtomicU64::new(0);

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

fn push(span: Span) {
    recorder().spans.lock().expect("span store poisoned").push(span);
}

/// Runs one client op under a root `op` span when `traced`; returns its
/// value and the op id (0 when untraced).
pub fn op<T>(name: &'static str, traced: bool, f: impl FnOnce() -> T) -> (T, u64) {
    if !traced {
        return (f(), 0);
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    CURRENT.with(|c| c.set(Some((id, id))));
    let out = f();
    CURRENT.with(|c| c.set(None));
    push(Span { layer: "op", name, start_ns, end_ns: now_ns(), id, parent: 0, op: id });
    (out, id)
}

/// Runs `f` under a child span of the innermost open span, if this thread
/// is inside a traced op; otherwise just runs it.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some((op, parent)) = CURRENT.with(|c| c.get()) else {
        return f();
    };
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    CURRENT.with(|c| c.set(Some((op, id))));
    let out = f();
    CURRENT.with(|c| c.set(Some((op, parent))));
    push(Span { layer, name, start_ns, end_ns: now_ns(), id, parent, op });
    out
}

/// Turns recording of server-side spans (see [`server_span`]) on or off.
pub fn set_server_side(on: bool) {
    SERVER_SIDE.store(u64::from(on), Ordering::Relaxed);
}

/// Like [`span`], but for work that runs on a server thread with no client
/// op of its own (WAL appends and fsyncs): recorded as a root with op 0
/// while server-side recording is on.
pub fn server_span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    if CURRENT.with(|c| c.get()).is_some() {
        return span(layer, name, f);
    }
    if SERVER_SIDE.load(Ordering::Relaxed) == 0 {
        return f();
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let out = f();
    push(Span { layer, name, start_ns, end_ns: now_ns(), id, parent: 0, op: 0 });
    out
}

/// Takes every span recorded so far, leaving the store empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("span store poisoned"))
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes spans as JSON lines: `{"name","start_ns","end_ns","id","parent","op"}`,
/// the name as `layer.name`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
            s.layer, s.name, s.start_ns, s.end_ns, s.id, s.parent, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mk = |id, parent, a, b| Span {
            layer: "op",
            name: "x",
            start_ns: a,
            end_ns: b,
            id,
            parent,
            op: 1,
        };
        // Root 0..100 with children 10..30 and 20..50 (overlapping) and 60..70.
        let spans = vec![mk(1, 0, 0, 100), mk(2, 1, 10, 30), mk(3, 1, 20, 50), mk(4, 1, 60, 70)];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 10]);
    }
}
