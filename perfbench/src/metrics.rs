//! The benchmark's own arithmetic: percentiles with their sample counts,
//! ratios with their bases, span self time and open-loop latency.

use std::fmt;

/// Percentiles considered for the tail report, lowest first.
const TAIL_CANDIDATES: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

/// Percentiles of one sample set, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples recorded.
    pub n: usize,
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 97.5th percentile.
    pub p97_5_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// The highest candidate percentile with at least [`MIN_BEYOND`]
    /// samples beyond it: `(percentile, value_us, samples_beyond)`.
    pub tail: Option<(f64, f64, usize)>,
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Moves every sample of `other` into `self`.
    pub fn merge(&mut self, mut other: Samples) {
        self.ns.append(&mut other.ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentiles; `None` without samples.
    pub fn summary(&mut self) -> Option<Summary> {
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        self.ns.sort_unstable();
        let at = |p: f64| self.ns[rank(p, n) - 1] as f64 / 1e3;
        let tail = TAIL_CANDIDATES
            .iter()
            .rev()
            .map(|&p| (p, n - rank(p, n)))
            .find(|&(_, beyond)| beyond >= MIN_BEYOND)
            .map(|(p, beyond)| (p, at(p), beyond));
        Some(Summary {
            n,
            p50_us: at(50.0),
            p90_us: at(90.0),
            p97_5_us: at(97.5),
            p99_us: at(99.0),
            tail,
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={:.2}us p90={:.2}us p97.5={:.2}us p99={:.2}us",
            self.n, self.p50_us, self.p90_us, self.p97_5_us, self.p99_us
        )?;
        match self.tail {
            Some((p, v, beyond)) => write!(f, " p{p}={v:.2}us ({beyond} beyond)"),
            None => write!(f, " (no percentile has {MIN_BEYOND} samples beyond it)"),
        }
    }
}

/// A ratio that always travels with its numerator and denominator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The quotient; 0 when the base is 0 (nothing to divide).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {}", self.num, self.den)
    }
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// that the union of its children's spans covers. Children may overlap
/// each other and may stick out of the parent; only the covered part of
/// the parent counts.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    pe.saturating_sub(ps) - covered
}

/// One request of an open loop, as offsets in nanoseconds from the
/// loop's start: when it was due, when the generator sent it, and when
/// its reply arrived.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOp {
    /// Scheduled send time.
    pub due: u64,
    /// Actual send time.
    pub sent: u64,
    /// Reply time.
    pub done: u64,
}

impl OpenLoopOp {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall also charges the requests queued behind it.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// Due time of request `i` at `rate` requests per second.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        // 1..=1000 us: p50 is the 500th sample, p99 the 990th.
        let sum = samples((1..=1000).map(|us| us * 1000)).summary().unwrap();
        assert_eq!(sum.n, 1000);
        assert_eq!(sum.p50_us, 500.0);
        assert_eq!(sum.p90_us, 900.0);
        assert_eq!(sum.p97_5_us, 975.0);
        assert_eq!(sum.p99_us, 990.0);
        // p99.9 leaves only 1 sample beyond; p99 leaves 10.
        assert_eq!(sum.tail, Some((99.0, 990.0, 10)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let sum = samples((1..=100_000).map(|v| v * 1000)).summary().unwrap();
        // p99.99 has exactly 10 beyond (rank 99_990); p99.999 has 1.
        assert_eq!(sum.tail, Some((99.99, 99_990.0, 10)));
        // Too few samples for any tail: 10 samples leave 5 beyond p50.
        let small = samples(1..=10).summary().unwrap();
        assert_eq!(small.tail, None);
        assert!(small.to_string().contains("no percentile"));
        assert!(Samples::default().summary().is_none());
    }

    #[test]
    fn summary_prints_its_sample_counts() {
        let text = samples((1..=1000).map(|us| us * 1000))
            .summary()
            .unwrap()
            .to_string();
        assert!(text.contains("n=1000"), "{text}");
        assert!(text.contains("(10 beyond)"), "{text}");
    }

    #[test]
    fn merged_samples_are_sorted_together() {
        let mut a = samples([5000, 1000]);
        a.merge(samples([3000]));
        let sum = a.summary().unwrap();
        assert_eq!((sum.n, sum.p50_us), (3, 3.0));
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.to_string(), "3 / 4");
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);
        assert_eq!(Ratio::new(5.0, 0.0).to_string(), "5 / 0");
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 150)]), 70);
        // Full cover leaves no self time.
        assert_eq!(self_time((0, 100), &[(0, 60), (60, 100)]), 0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let rate = 1000.0; // one request per millisecond
        let ms = 1_000_000;
        assert_eq!(due_ns(3, rate), 3 * ms);
        // Request 0 stalls for 5 ms; requests 1..=4 were due meanwhile
        // and are sent late, right after it returns.
        let mut ops = vec![OpenLoopOp {
            due: 0,
            sent: 0,
            done: 5 * ms,
        }];
        for i in 1..=4 {
            let sent = 5 * ms;
            ops.push(OpenLoopOp {
                due: due_ns(i, rate),
                sent,
                done: sent + ms / 10,
            });
        }
        let lat: Vec<u64> = ops.iter().map(OpenLoopOp::latency).collect();
        let late: Vec<u64> = ops.iter().map(OpenLoopOp::lateness).collect();
        // Timed from the send, request 1 would read 0.1 ms; from its due
        // time it waited 4 ms for the stall first.
        assert_eq!(
            lat,
            vec![
                5 * ms,
                4 * ms + ms / 10,
                3 * ms + ms / 10,
                2 * ms + ms / 10,
                ms + ms / 10
            ]
        );
        assert_eq!(late, vec![0, 4 * ms, 3 * ms, 2 * ms, ms]);
        // A request sent before it was due is not early-credited.
        assert_eq!(
            OpenLoopOp {
                due: 10,
                sent: 5,
                done: 8
            }
            .latency(),
            0
        );
        assert_eq!(
            OpenLoopOp {
                due: 10,
                sent: 5,
                done: 8
            }
            .lateness(),
            0
        );
    }
}
