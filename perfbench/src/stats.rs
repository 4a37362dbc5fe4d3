//! The benchmark's own arithmetic: percentiles, medians, span self
//! time, virtual-latency attribution and the shape of the result line.
//! Everything here is pure so the unit tests below can pin it.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p`% of the samples at or below it. `None` when the
/// slice is empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// True when `n` samples support reporting percentile `p`: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Median of a set of measurements (mean of the middle two for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded span, in nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// For each span, the index of its parent: the innermost span that
/// encloses it (ties broken by the earlier start, then the longer
/// span). All spans of one op are causally nested calls, so enclosure
/// in time is enclosure in the call tree even across threads.
pub fn parents(spans: &[Interval]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .start
            .cmp(&spans[b].start)
            .then(spans[b].end.cmp(&spans[a].end))
            .then(a.cmp(&b))
    });
    let mut out = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = stack.last() {
            if spans[top].contains(&spans[i]) {
                break;
            }
            stack.pop();
        }
        out[i] = stack.last().copied();
        stack.push(i);
    }
    out
}

/// Length of the union of `intervals`, each clipped to `within`.
pub fn covered(within: Interval, intervals: &mut [Interval]) -> u64 {
    intervals.sort_by_key(|iv| iv.start);
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for iv in intervals.iter() {
        let s = iv.start.max(within.start);
        let e = iv.end.min(within.end);
        if e <= s {
            continue;
        }
        match cur.as_mut() {
            Some(c) if s <= c.end => c.end = c.end.max(e),
            _ => {
                if let Some(c) = cur {
                    total += c.len();
                }
                cur = Some(Interval { start: s, end: e });
            }
        }
    }
    total + cur.map_or(0, |c| c.len())
}

/// Self time of every span: its length minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let par = parents(spans);
    let mut children: Vec<Vec<Interval>> = vec![Vec::new(); spans.len()];
    for (i, p) in par.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(spans[i]);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.len() - covered(*s, kids))
        .collect()
}

/// Attributes virtual time to ops. Virtual latency is the network
/// latency charged plus server-disk busy time. Only one op is in
/// flight at a time, so only it can change either counter, and the
/// change across an op is that op's virtual latency.
#[derive(Clone, Copy, Debug, Default)]
pub struct VirtualMeter {
    net_us: u64,
    disk_us: u64,
}

impl VirtualMeter {
    /// Starts metering from the given cumulative counters.
    pub fn at(net_us: u64, disk_us: u64) -> VirtualMeter {
        VirtualMeter { net_us, disk_us }
    }

    /// Virtual µs since the last reading; moves the mark forward.
    pub fn take(&mut self, net_us: u64, disk_us: u64) -> u64 {
        let v = net_us.saturating_sub(self.net_us) + disk_us.saturating_sub(self.disk_us);
        self.net_us = net_us;
        self.disk_us = disk_us;
        v
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Formats a float for JSON: shortest round-trip digits, finite only.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric an object of `value` and `unit`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 needs 1000 samples: 990 at or below, 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        // The median is supported from 20 samples on.
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_of_nested_spans() {
        // client [0,100] -> server [10,90] -> episode [20,30], [40,60]
        let spans = [iv(0, 100), iv(10, 90), iv(20, 30), iv(40, 60)];
        assert_eq!(parents(&spans), vec![None, Some(0), Some(1), Some(1)]);
        assert_eq!(self_times(&spans), vec![20, 50, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children of one parent that overlap each other, and one
        // grandchild inside the second child.
        let spans = [iv(0, 100), iv(10, 50), iv(30, 70), iv(55, 60)];
        let par = parents(&spans);
        assert_eq!(par[1], Some(0));
        assert_eq!(par[2], Some(0));
        assert_eq!(par[3], Some(2));
        // Children cover [10,70] = 60 of the parent's 100.
        assert_eq!(self_times(&spans), vec![40, 40, 35, 5]);
    }

    #[test]
    fn self_time_of_unrelated_roots() {
        let spans = [iv(0, 10), iv(20, 30)];
        assert_eq!(parents(&spans), vec![None, None]);
        assert_eq!(self_times(&spans), vec![10, 10]);
    }

    #[test]
    fn coverage_is_clipped_to_the_parent() {
        let mut kids = [iv(0, 20), iv(90, 130)];
        assert_eq!(covered(iv(10, 100), &mut kids), 20);
    }

    #[test]
    fn virtual_latency_is_attributed_to_the_op_that_moved_the_counters() {
        let mut m = VirtualMeter::at(1_000, 50_000);
        // A cache hit moves nothing.
        assert_eq!(m.take(1_000, 50_000), 0);
        // One RPC (200 µs) plus one sequential disk write (4 ms).
        assert_eq!(m.take(1_200, 54_000), 4_200);
        // Network only.
        assert_eq!(m.take(1_600, 54_000), 400);
        // Attribution is complete: the per-op values sum to the total.
        assert_eq!(4_200 + 400, (1_600 - 1_000) + (54_000 - 50_000));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric {
                    name: "a".into(),
                    unit: "us",
                    value: 1.5,
                },
                Metric {
                    name: "b.c".into(),
                    unit: "count",
                    value: 2.0,
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \
             \"b.c\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_are_refused() {
        result_line(
            true,
            1,
            0,
            &[Metric {
                name: "x".into(),
                unit: "s",
                value: f64::NAN,
            }],
        );
    }
}
