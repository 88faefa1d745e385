//! Wall-clock spans recorded around calls into the Elk layers.
//!
//! A [`Tracer`] keeps every span in memory (name, start, end, parent,
//! worker) and hands them back at the end of a traced pass. Parents are
//! tracked per thread, so a span opened inside another span's closure
//! on the same thread becomes its child. A disabled tracer records
//! nothing and costs one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub worker: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

thread_local! {
    /// Indices of this thread's open spans, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` on worker `worker`.
    pub fn span<R>(&self, name: &'static str, worker: usize, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let idx = {
            let mut spans = self.spans.lock().expect("span lock poisoned by a panic");
            spans.push(Span {
                name,
                worker,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.now_ns();
        self.spans.lock().expect("span lock poisoned by a panic")[idx].end_ns = end;
        out
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned by a panic"))
    }
}

/// Self time (span minus its children) and call count per span name.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub calls: BTreeMap<&'static str, u64>,
    /// Sum of root-span durations over all workers.
    pub covered_ns: u64,
}

impl LayerTimes {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = LayerTimes::default();
        for (s, children) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            *out.self_ns.entry(s.name).or_default() += dur.saturating_sub(*children);
            *out.calls.entry(s.name).or_default() += 1;
            if s.parent.is_none() {
                out.covered_ns += dur;
            }
        }
        out
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", 0, || {
            t.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let l = LayerTimes::of(&spans);
        assert!(l.ms("inner") >= 5.0);
        assert!(l.ms("outer") < l.ms("inner"));
        assert_eq!(l.calls("outer"), 1);
        assert_eq!(l.covered_ns, spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.take().is_empty());
    }
}
