//! In-memory span recorder. Spans wrap the benchmark's own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The packet sequence number or batch id the span covers.
    pub id: u64,
    /// Frames the span covered (for per-packet figures).
    pub items: u64,
}

/// An open span: its kept index (or [`ROOT`] past the cap) and start.
pub struct Open {
    pub index: u32,
    name: &'static str,
    start_ns: u64,
}

/// Keeps at most `cap` spans; per-name totals cover every span.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Once `cap` spans are
    /// kept, further spans only feed the totals.
    pub fn begin(&mut self, name: &'static str, parent: u32, id: u64) -> Open {
        let start_ns = self.now();
        let index = if self.spans.len() < self.cap {
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id, items: 0 });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            ROOT
        };
        Open { index, name, start_ns }
    }

    pub fn end(&mut self, open: Open, items: u64) {
        let end_ns = self.now();
        let total = self.totals.entry(open.name).or_default();
        total.0 += end_ns - open.start_ns;
        total.1 += items;
        if open.index != ROOT {
            let s = &mut self.spans[open.index as usize];
            s.end_ns = end_ns;
            s.items = items;
        }
    }

    /// Records an already-measured span (the replay's timed loops).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        id: u64,
        items: u64,
    ) -> u32 {
        let total = self.totals.entry(name).or_default();
        total.0 += end_ns - start_ns;
        total.1 += items;
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, id, items });
        (self.spans.len() - 1) as u32
    }

    /// Total nanoseconds and items of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.totals.get(name).copied().unwrap_or((0, 0))
    }

    /// Nanoseconds per item over every span named `name` (0 when none ran).
    pub fn per_item(&self, name: &str) -> f64 {
        let (ns, items) = self.total(name);
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64
        }
    }

    /// Checks the kept spans: every span ends after it starts, every child
    /// lies inside its parent, and every span's self time (duration minus
    /// its children's) is non-negative. Returns the violations found.
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                problems.push(format!("span {i} '{}' ends before it starts", s.name));
            }
            if s.parent != ROOT {
                let p = &self.spans[s.parent as usize];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    problems.push(format!("span {i} '{}' lies outside its parent '{}'", s.name, p.name));
                }
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if child_ns[i] > s.end_ns.saturating_sub(s.start_ns) {
                problems.push(format!("span {i} '{}' has negative self time", s.name));
            }
        }
        problems
    }

    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the kept spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{},\"items\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id, s.items
            )?;
        }
        out.flush()
    }
}
