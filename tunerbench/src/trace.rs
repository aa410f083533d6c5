//! Spans recorded by the benchmark around each call it makes into a
//! layer. Spans are kept in memory and written out when the run ends;
//! with tracing off, nothing is recorded.

use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `serve.suggest` or `tuner.suggest`.
    pub name: &'static str,
    /// Seconds since the run's epoch.
    pub start: f64,
    /// Seconds since the run's epoch.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to (shared by all spans of one
    /// step or read).
    pub step: u64,
    /// Free-form marker set by the caller (e.g. `hyperopt`, `snapshot`).
    pub tag: Option<&'static str>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// A span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span at `start`; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        step: u64,
        start: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let t = start.duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            step,
            tag: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        if let Some(i) = span {
            self.spans[i].end = end.duration_since(self.epoch).as_secs_f64();
        }
    }

    /// Marks a span.
    pub fn tag(&mut self, span: Option<usize>, tag: &'static str) {
        if let Some(i) = span {
            self.spans[i].tag = Some(tag);
        }
    }

    /// Records a closed span in one call.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        step: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let span = self.open(name, parent, step, start);
        self.close(span, end);
        span
    }

    /// Moves another tracer's spans into this one, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Durations (ms) of the spans called `name` carrying `tag`
    /// (`Some`) or no tag (`None`).
    pub fn durations_tagged(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(Span::ms)
            .collect()
    }

    /// Self times (ms) of the spans called `name`: each span's duration
    /// minus the time its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ms() - child_ms[i])
            .collect()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let tag = s.tag.map_or("null".to_owned(), |t| format!("\"{t}\""));
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"step\":{},\"tag\":{tag}}}",
                s.name, s.start, s.end, s.step
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_absorb_keeps_links() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut a = Tracer::new(true, epoch);
        let root = a.open("step", None, 1, at(0));
        a.record("serve.suggest", root, 1, at(1), at(4));
        a.record("serve.report", root, 1, at(5), at(7));
        a.close(root, at(10));
        let mut b = Tracer::new(true, epoch);
        b.absorb(a);
        assert_eq!(b.durations("step"), vec![10.0]);
        let self_ms = b.self_times("step");
        assert!((self_ms[0] - 5.0).abs() < 1e-9, "{self_ms:?}");
        assert_eq!(b.spans()[1].parent, Some(0));

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.open("step", None, 0, at(0)), None);
        assert!(off.spans().is_empty());
    }
}
