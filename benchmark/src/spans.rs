//! Harness-side spans: one `{name, start, end, parent, op_id}` record
//! around every call the traced pass makes into a layer. Kept in memory,
//! written once at exit. The timed pass records none.
//!
//! The harness is single-threaded (one closed-loop client), so the open
//! spans form a stack and `parent` is whatever was open at `enter`.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (all spans of one op share it).
    pub op_id: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Start a new op: subsequent spans carry the next `op_id`.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Run `f` inside a span called `name`; returns `f`'s result and the
    /// span's duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[idx].end = end;
        (out, end - self.spans[idx].start)
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The spans as a JSON array (numbers in seconds, `parent` an index
    /// into the same array or `null`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {}, \"op_id\": {}}}",
                    s.name,
                    s.start,
                    s.end,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op_id
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

/// The per-task busy/idle breakdown of a traced executor run, as shares
/// of the pool's capacity (`workers · wall`, summed over the ops): time inside the dense kernel,
/// time workers ran rank work that was not the kernel (gets, packing,
/// scheduling of a resumed rank, fences), and time workers had nothing
/// to run. No clamping anywhere, so the three sum to 1 by construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shares {
    pub compute: f64,
    pub noncompute_busy: f64,
    pub idle: f64,
}

pub fn shares(compute_s: f64, busy_s: f64, capacity: f64) -> Shares {
    Shares {
        compute: compute_s / capacity,
        noncompute_busy: (busy_s - compute_s) / capacity,
        idle: 1.0 - busy_s / capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_op_id() {
        let mut sp = Spans::new();
        sp.next_op();
        sp.time("op", |sp| {
            sp.time("core.multiply", |_| ());
            sp.time("comm.gather", |_| ());
        });
        sp.next_op();
        sp.time("op", |_| ());
        let s = sp.all();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[0].op_id, s[2].op_id, s[3].op_id), (1, 1, 2));
        assert!(s.iter().all(|x| x.end >= x.start));
        assert_eq!(sp.durations("op").len(), 2);
        let children = sp.durations("core.multiply")[0] + sp.durations("comm.gather")[0];
        assert!(sp.durations("op")[0] >= children);
    }

    #[test]
    fn three_shares_sum_to_one() {
        for (compute, busy, capacity) in [
            (0.37, 0.91, 1.0),
            (0.0, 0.0, 2.0),
            (1.999, 2.0, 2.0),
            (3.1e-4, 7.7e-4, 1.0246e-3),
            (12.5, 40.25, 48.0),
        ] {
            let s = shares(compute, busy, capacity);
            assert!(
                (s.compute + s.noncompute_busy + s.idle - 1.0).abs() <= 1e-9,
                "{s:?}"
            );
        }
    }

    #[test]
    fn json_has_one_row_per_span() {
        let mut sp = Spans::new();
        sp.time("a", |sp| sp.time("b", |_| ()));
        let j = sp.to_json();
        assert_eq!(j.matches("\"name\"").count(), 2);
        assert!(j.contains("\"parent\": null") && j.contains("\"parent\": 0"));
    }
}
