//! The benchmark's own spans around the calls it makes into the
//! program. They stay in memory and are written out when a traced pass
//! ends; no span is recorded inside the program.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
struct Record {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    instance: Option<usize>,
}

/// A tree of spans, opened and closed in stack order.
pub struct Spans {
    origin: Instant,
    records: Vec<Record>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty tree; span times count from now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, instance: Option<usize>) {
        let now = self.origin.elapsed();
        self.records.push(Record {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            instance,
        });
        self.open.push(self.records.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        let i = self.open.pop().expect("exit matches an enter");
        self.records[i].end = self.origin.elapsed();
        self.records[i].end - self.records[i].start
    }

    /// Each span's duration minus the durations of its children.
    fn self_times(&self) -> Vec<Duration> {
        let mut times: Vec<Duration> = self.records.iter().map(|r| r.end - r.start).collect();
        for r in &self.records {
            if let Some(p) = r.parent {
                times[p] = times[p].saturating_sub(r.end - r.start);
            }
        }
        times
    }

    /// Total self time of the spans called `name`.
    pub fn self_time(&self, name: &str) -> Duration {
        self.records
            .iter()
            .zip(self.self_times())
            .filter(|(r, _)| r.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// One JSON object per span, in opening order; `names` labels the
    /// instance ids.
    pub fn to_jsonl(&self, pass: usize, names: &[String]) -> String {
        let mut out = String::new();
        for (i, (r, self_time)) in self.records.iter().zip(self.self_times()).enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let label = r
                .instance
                .and_then(|i| names.get(i))
                .map_or_else(|| "null".to_string(), |n| format!("\"{n}\""));
            let _ = writeln!(
                out,
                "{{\"pass\": {pass}, \"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \
                 \"end_us\": {}, \"self_us\": {}, \"parent\": {}, \"instance\": {}, \
                 \"instance_name\": {label}}}",
                r.name,
                r.start.as_micros(),
                r.end.as_micros(),
                self_time.as_micros(),
                opt(r.parent),
                opt(r.instance),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        spans.enter("pass", None);
        spans.enter("instance", Some(0));
        std::thread::sleep(Duration::from_millis(2));
        let child = spans.exit();
        std::thread::sleep(Duration::from_millis(2));
        let whole = spans.exit();
        assert_eq!(spans.self_time("pass"), whole - child);
        assert_eq!(spans.self_time("instance"), child);
        let lines = spans.to_jsonl(3, &["php-7".to_string()]);
        assert_eq!(lines.lines().count(), 2);
        assert!(
            lines.contains("\"parent\": 0, \"instance\": 0, \"instance_name\": \"php-7\""),
            "{lines}"
        );
    }
}
