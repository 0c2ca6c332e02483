//! In-memory spans recorded around the benchmark's calls into each layer,
//! with the program's own `RunReport` phase trees grafted underneath.
//!
//! A span is `(name, start, end, parent, run id)`. Spans stay in memory
//! until the run ends and are written out once. A span's self time is its
//! duration minus the part of its interval that its children cover.

use parcom_obs::{json, PhaseReport, RunReport};
use std::time::Instant;

/// One recorded interval, in seconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans; ids are indices into [`Tracer::spans`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts a new run id; spans opened from now on carry it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span. Returns `f`'s result and the span id.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, usize) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (out, id)
    }

    /// Grafts a report's phase tree under span `parent`. Phases carry
    /// durations but no start times; siblings ran one after another, so
    /// each starts where the previous one ended, from the parent's start.
    pub fn graft(&mut self, parent: usize, report: &RunReport) {
        let start = self.spans[parent].start;
        self.graft_phases(parent, start, &report.phases);
    }

    fn graft_phases(&mut self, parent: usize, mut at: f64, phases: &[PhaseReport]) {
        for phase in phases {
            let id = self.spans.len();
            self.spans.push(Span {
                name: phase.name.clone(),
                start: at,
                end: at + phase.wall_seconds,
                parent: Some(parent),
                run: self.spans[parent].run,
            });
            self.graft_phases(id, at, &phase.children);
            at += phase.wall_seconds;
        }
    }

    /// Seconds from the tracer's origin to `instant`.
    pub fn offset_of(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records an already-timed interval under the innermost open span.
    pub fn record(&mut self, name: &str, start: f64, end: f64) {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent: self.open.last().copied(),
            run: self.run,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        self_times(&self.spans)
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("[");
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":{i},\"name\":"));
            json::write_str(&mut out, &s.name);
            out.push_str(",\"start\":");
            json::write_f64(&mut out, s.start);
            out.push_str(",\"end\":");
            json::write_f64(&mut out, s.end);
            match s.parent {
                Some(p) => out.push_str(&format!(",\"parent\":{p}")),
                None => out.push_str(",\"parent\":null"),
            }
            out.push_str(&format!(",\"run\":{},\"self\":", s.run));
            json::write_f64(&mut out, *own);
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,10] ← a [1,4] ← a1 [2,3]
        //             ← b [3,6]   (overlaps a: union of children is [1,6])
        //             ← c [8,12]  (clipped to [8,10])
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a1", 2.0, 3.0, Some(1)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 8.0, 12.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10.0 - 5.0 - 2.0, 3.0 - 1.0, 1.0, 3.0, 4.0]);
    }

    #[test]
    fn grafted_phases_sum_to_their_parent() {
        let mut report = RunReport::empty("PLM");
        report.phases.push(PhaseReport {
            name: "level-0".into(),
            wall_seconds: 1.0,
            children: vec![
                PhaseReport {
                    name: "move-phase".into(),
                    wall_seconds: 0.5,
                    ..Default::default()
                },
                PhaseReport {
                    name: "coarsen".into(),
                    wall_seconds: 0.25,
                    ..Default::default()
                },
            ],
            ..Default::default()
        });
        let mut t = Tracer::new();
        let ((), id) = t.span("core.detect", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.graft(id, &report);
        let own = t.self_times();
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["core.detect", "level-0", "move-phase", "coarsen"]);
        assert!((own[1] - 0.25).abs() < 1e-12);
        assert!((own[2] - 0.5).abs() < 1e-12 && (own[3] - 0.25).abs() < 1e-12);
        // level-0 sticks out of its (shorter) bench span: clipped, not negative
        assert_eq!(own[0], 0.0);
        assert!(json::validate(&t.to_json()).is_ok());
    }
}
