//! Spans recorded by the benchmark around calls into each layer's public
//! functions. Spans stay in memory and are written once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(NO_PARENT, |p| p as u32),
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, µs, grouped by span name: the span's
    /// duration minus the time its child spans cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Writes the spans of the requests `keep` selects as JSON lines
    /// (`name, start_ns, end_ns, parent, req`), so the file stays small
    /// however long the run.
    pub fn write(
        &self,
        path: &std::path::Path,
        keep: impl Fn(u32) -> bool,
    ) -> Result<usize, String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        let mut written = 0;
        for (id, s) in self.spans.iter().enumerate() {
            if !keep(s.req) {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
            written += 1;
        }
        w.flush().map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(written)
    }
}
