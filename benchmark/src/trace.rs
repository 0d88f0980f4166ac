//! Spans recorded from outside the program under test: every span wraps
//! one call into a public function of a layer. Spans stay in memory and
//! are written out once, when the workload ends.

use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started; `rep` is the repetition it belongs to (0 = set-up and
/// probes), which together with the trace file's workload is the id all
/// spans of one repetition share.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::enter`] and consumed by [`Tracer::exit`].
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer records nothing: `enter`/`exit` cost one branch,
    /// which is what lets the serve driver loop be the same code with
    /// tracing off (end-to-end metrics) and on (per-layer metrics).
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start a new repetition; returns its id.
    pub fn next_rep(&mut self) -> u32 {
        self.rep += 1;
        self.rep
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            rep: self.rep,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Summed duration of the spans called `name` in repetition `rep`.
    pub fn seconds(&self, name: &str, rep: u32) -> f64 {
        self.named(name)
            .filter(|s| s.rep == rep)
            .map(Span::seconds)
            .sum()
    }

    /// All spans called `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time per span: its duration minus the part of it its child
    /// spans cover (children of one span never overlap — the harness is
    /// one thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_ns();
        writeln!(w, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"rep\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{comma}",
                s.name, s.rep, s.start_ns, s.end_ns, own[id]
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(true);
        t.next_rep();
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", || ());
        t.exit(outer);
        assert_eq!(t.named("inner").count(), 2);
        assert!(t.named("inner").all(|s| s.parent == Some(0) && s.rep == 1));
        let own = t.self_ns();
        let outer = &t.spans[0];
        assert_eq!(
            own[0],
            (outer.end_ns - outer.start_ns)
                - t.named("inner").map(|s| s.end_ns - s.start_ns).sum::<u64>()
        );
        assert!(t.seconds("inner", 1) >= 0.002);
        assert_eq!(t.seconds("inner", 2), 0.0);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", || ());
        assert_eq!(t.named("x").count(), 0);
    }
}
