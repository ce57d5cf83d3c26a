//! In-memory spans and counts recorded around calls into the layers.
//!
//! A span covers one call (or one loop of calls) into a layer's public
//! functions. Spans nest: a span's parent is whichever span was open
//! when it began, and its self time is its duration minus the time its
//! children cover. The layer of a span is the part of its name before
//! the first `.`, so `select.aware` is charged to `select`. Spans stay in
//! memory until [`Tracer::write`] dumps them at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Allocation calls made by the whole process so far (0 in the plain
/// build, which runs on the system allocator).
pub fn alloc_calls() -> u64 {
    #[cfg(feature = "traced")]
    {
        peercache_bench::alloc_count::alloc_calls()
    }
    #[cfg(not(feature = "traced"))]
    {
        0
    }
}

/// Live heap bytes, process-wide (0 in the plain build).
pub fn bytes_in_use() -> u64 {
    #[cfg(feature = "traced")]
    {
        peercache_bench::alloc_count::bytes_in_use()
    }
    #[cfg(not(feature = "traced"))]
    {
        0
    }
}

/// Heap high-water mark since the last [`reset_peak`] (0 in the plain
/// build).
pub fn peak_bytes() -> u64 {
    #[cfg(feature = "traced")]
    {
        peercache_bench::alloc_count::peak_bytes()
    }
    #[cfg(not(feature = "traced"))]
    {
        0
    }
}

/// Rebase the heap high-water mark to the current live bytes.
pub fn reset_peak() {
    #[cfg(feature = "traced")]
    peercache_bench::alloc_count::reset_peak();
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    /// Work items the span covered (lookups, nodes, messages...).
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, which covers `count` items.
    pub fn span<R>(&mut self, name: &str, count: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            count,
        });
        let allocs = alloc_calls();
        let start = self.now_ns();
        self.spans[id].start_ns = start;
        self.open.push((id, allocs));
        let out = f(self);
        let end = self.now_ns();
        let (_, allocs_before) = self.open.pop().expect("span stack is balanced");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = alloc_calls() - allocs_before;
        out
    }

    /// Total seconds, allocation calls and items over every span named
    /// `name`.
    pub fn total(&self, name: &str) -> (f64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0, 0), |(t, a, c), s| {
                (t + s.secs(), a + s.allocs, c + s.count)
            })
    }

    /// Self seconds per layer, over every span below the root span
    /// `root`, plus the root's own self time (the `unattributed` part).
    pub fn self_times(&self, root: &str) -> (BTreeMap<String, f64>, f64, f64) {
        let Some(root_id) = self.spans.iter().position(|s| s.name == root) else {
            return (BTreeMap::new(), 0.0, 0.0);
        };
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.secs();
            }
        }
        let under_root = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if p == root_id => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut layers = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i != root_id && under_root(i) {
                *layers.entry(s.layer().to_string()).or_insert(0.0) += s.secs() - child_time[i];
            }
        }
        let root_span = &self.spans[root_id];
        (
            layers,
            root_span.secs() - child_time[root_id],
            root_span.secs(),
        )
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.allocs, s.count
            )?;
        }
        out.flush()
    }
}
