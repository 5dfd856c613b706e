//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public stage functions (the program itself is not instrumented):
//! name, start, end, parent, and the id of the op the span belongs to.
//! They stay in memory and are written out once, when the run ends.

use std::time::Instant;

use serde::Value;

use crate::json::{num, obj, text};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub op: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Collects [`Span`]s against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Times `body` as span `name` of op `op` under `parent`; the body gets
    /// the tracer back plus the new span's id, for nesting children.
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<u64>,
        name: &str,
        body: impl FnOnce(&mut Tracer, u64) -> T,
    ) -> T {
        let id = self.spans.len() as u64;
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            op,
            parent,
            name: name.to_string(),
            start_us,
            end_us: start_us,
        });
        let out = body(self, id);
        let end_us = self.now_us();
        self.spans[id as usize].end_us = end_us;
        out
    }

    /// Records a span measured elsewhere (times in µs since `origin`, the
    /// clock of the measurement); returns its id.
    pub fn push(
        &mut self,
        op: u64,
        parent: Option<u64>,
        name: &str,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            op,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
        });
        id
    }

    /// A span with no children.
    pub fn leaf<T>(&mut self, op: u64, parent: u64, name: &str, body: impl FnOnce() -> T) -> T {
        self.span(op, Some(parent), name, |_, _| body())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Summed duration (ms) of the spans called `name`, per op; `None` when
    /// there are none.
    pub fn per_op_ms(&self, name: &str, ops: usize) -> Option<f64> {
        let spans = self.durations_ms(name);
        (!spans.is_empty() && ops > 0).then(|| spans.iter().fold(0.0, |a, b| a + b) / ops as f64)
    }

    /// Summed duration (ms) of the direct children of span `id`.
    pub fn children_ms(&self, id: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .fold(0.0, |a, b| a + b)
    }

    /// Span dump for the results directory.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", Value::UInt(s.id)),
                        ("op", Value::UInt(s.op)),
                        ("parent", s.parent.map_or(Value::Null, Value::UInt)),
                        ("name", text(s.name.as_str())),
                        ("start_us", num(s.start_us)),
                        ("end_us", num(s.end_us)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_children_fit_inside_their_parent() {
        let mut t = Tracer::default();
        let root = t.span(7, None, "op", |t, id| {
            t.leaf(7, id, "a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.leaf(7, id, "b", || ());
            id
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_us >= s.start_us));
        assert_eq!(spans[1].parent, Some(root));
        assert!(t.children_ms(root) <= spans[0].ms());
        assert!(t.total_ms("a") >= 2.0);
        assert_eq!(t.durations_ms("missing"), Vec::<f64>::new());
    }
}
