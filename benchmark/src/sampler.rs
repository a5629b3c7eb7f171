//! The sampler: time-boxed repetition of one operation and the
//! statistics reported over its samples (median, quartiles, MAD, and
//! the highest percentile that still has ten samples beyond it).

use std::time::{Duration, Instant};

/// Percentiles tried from the top, in per mille so the rank arithmetic
/// stays in integers; the first with at least `MIN_BEYOND` samples
/// above it is the one reported.
const PERMILLE_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];
const MIN_BEYOND: usize = 10;

/// Summary of one sample set. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so the
/// spread printed here is the spread an outside reader recomputes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// `(percentile, value)`: the highest percentile of the ladder with
    /// at least ten samples beyond it; `(50, median)` when that is the
    /// median or `n < 20`.
    pub high: (f64, f64),
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn iqr_over_median(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sorted slice.
fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    median_sorted(&sorted(values))
}

/// `items` per second at the median of `secs` (0 when there is none).
pub fn per_sec(items: u64, secs: &[f64]) -> f64 {
    let m = median(secs);
    if m > 0.0 {
        items as f64 / m
    } else {
        0.0
    }
}

/// `statistics.quantiles(v, n=4, method='exclusive')` on a sorted slice
/// of at least two values.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile of a non-empty sorted slice.
fn percentile_sorted(v: &[f64], permille: usize) -> f64 {
    let rank = (v.len() * permille).div_ceil(1000);
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile, given in per mille (0 when empty).
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(values), permille)
}

/// Summarize a sample set; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let (q1, med, q3) = if n >= 2 { quartiles_sorted(&v) } else { (v[0], v[0], v[0]) };
    let deviations: Vec<f64> = v.iter().map(|x| (x - med).abs()).collect();
    let permille = PERMILLE_LADDER
        .iter()
        .copied()
        .find(|p| n * (1000 - p) >= MIN_BEYOND * 1000)
        .unwrap_or(500);
    Some(Summary {
        n,
        min: v[0],
        q1,
        median: med,
        q3,
        max: v[n - 1],
        mad: median(&deviations),
        high: (
            permille as f64 / 10.0,
            if permille == 500 { med } else { percentile_sorted(&v, permille) },
        ),
    })
}

/// What one time-boxed loop produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds of each successful iteration, in run order.
    pub secs: Vec<f64>,
    /// Iterations that returned an error or panicked.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Samples {
    pub fn attempted(&self) -> u64 {
        self.secs.len() as u64 + self.failed
    }
}

/// One timed operation: returns the seconds to count, or why it failed.
pub type Op<'a> = &'a mut dyn FnMut() -> Result<f64, String>;

/// One catch-unwind-wrapped call of `op`, booked into `out`. A panic is
/// caught here, at the iteration boundary, and counted as a failure.
fn attempt(out: &mut Samples, op: Op) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op))
        .unwrap_or_else(|_| Err("panic inside the iteration".to_string()));
    match result {
        Ok(secs) => out.secs.push(secs),
        Err(e) => {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(e);
            }
        }
    }
}

/// An operation that keeps failing is not retried for the whole budget:
/// the run is already lost.
fn gave_up(s: &Samples, min_iters: usize) -> bool {
    s.failed >= min_iters.max(3) as u64
}

/// Repeat `op` until `budget` is spent and at least `min_iters`
/// iterations ran. `op` times itself and returns the seconds to count,
/// so checks it makes on its outputs stay outside the sample.
pub fn run_for(
    budget: Duration,
    min_iters: usize,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Samples {
    let mut out = Samples::default();
    let start = Instant::now();
    while (out.attempted() < min_iters as u64 || start.elapsed() < budget)
        && !gave_up(&out, min_iters)
    {
        attempt(&mut out, &mut op);
    }
    out
}

/// Run several operations round-robin — one iteration of each per round
/// — until `budget` is spent and `min_rounds` rounds ran. Every operation
/// gets the same number of samples, spread over the whole window, so a
/// slow stretch of a shared machine lands on all of them instead of on
/// whichever ran at that moment.
pub fn run_interleaved(budget: Duration, min_rounds: usize, ops: &mut [Op]) -> Vec<Samples> {
    let mut out: Vec<Samples> = ops.iter().map(|_| Samples::default()).collect();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < budget {
        let mut ran = false;
        for (samples, op) in out.iter_mut().zip(ops.iter_mut()) {
            if !gave_up(samples, min_rounds) {
                attempt(samples, &mut **op);
                ran = true;
            }
        }
        if !ran {
            break;
        }
        rounds += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn iqr_over_median_is_the_drivers_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert!((s.iqr_over_median() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).unwrap().iqr_over_median(), 0.0);
    }

    #[test]
    fn mad_and_extremes() {
        let s = summarize(&[1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0]).unwrap();
        assert_eq!(s.median, 2.0);
        assert_eq!(s.mad, 1.0);
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 7));
        let one = summarize(&[5.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3, one.mad), (5.0, 5.0, 5.0, 0.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let of = |n: usize| {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            summarize(&v).unwrap().high
        };
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(of(12), (50.0, 6.5));
        assert_eq!(of(20), (50.0, 10.5));
        assert_eq!(of(40), (75.0, 30.0));
        assert_eq!(of(100), (90.0, 90.0));
        assert_eq!(of(200), (95.0, 190.0));
        assert_eq!(of(1000), (99.0, 990.0));
        assert_eq!(of(10_000), (99.9, 9990.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 990), 4.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 500), 2.0);
        assert_eq!(percentile(&[], 990), 0.0);
    }

    #[test]
    fn run_for_honours_min_iters_and_counts_failures() {
        let mut calls = 0;
        let s = run_for(Duration::ZERO, 4, || {
            calls += 1;
            Ok(calls as f64)
        });
        assert_eq!(s.secs, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.failed, s.attempted()), (0, 4));
        assert_eq!(median(&s.secs), 2.5);

        let mut calls = 0;
        let s = run_for(Duration::from_secs(3600), 2, || {
            calls += 1;
            if calls % 2 == 0 {
                panic!("boom")
            }
            Err("typed".to_string())
        });
        assert!(s.secs.is_empty());
        assert_eq!(s.failed, 3, "gives up instead of failing for an hour");
        assert_eq!(s.errors[0], "typed");
        assert_eq!(s.errors[1], "panic inside the iteration");
    }

    #[test]
    fn interleaving_is_round_robin_and_honours_min_rounds() {
        let pause = |ms: u64| std::thread::sleep(Duration::from_millis(ms));
        let order = std::cell::RefCell::new(String::new());
        let mut fast = || {
            order.borrow_mut().push('a');
            pause(1);
            Ok(0.001)
        };
        let mut slow = || {
            order.borrow_mut().push('b');
            pause(3);
            Ok(0.003)
        };
        let mut broken = || Err("no".to_string());
        let out =
            run_interleaved(Duration::from_millis(40), 2, &mut [&mut fast, &mut slow, &mut broken]);
        // The same number of samples each, whatever an iteration costs.
        assert_eq!(out[0].secs.len(), out[1].secs.len());
        assert!(out[0].secs.len() >= 5, "{} rounds in 40 ms", out[0].secs.len());
        assert_eq!((out[2].failed, out[2].secs.len()), (3, 0), "gives up after three failures");
        assert!(order.borrow().starts_with("abab"), "{}", order.borrow());

        // Zero budget: exactly `min_rounds` of each.
        let mut one = || Ok(1.0);
        let mut two = || Ok(2.0);
        let out = run_interleaved(Duration::ZERO, 4, &mut [&mut one, &mut two]);
        assert_eq!((out[0].secs.len(), out[1].secs.len()), (4, 4));

        // Nothing left to run: it ends instead of spinning out the budget.
        let out = run_interleaved(Duration::from_secs(3600), 2, &mut [&mut broken]);
        assert_eq!(out[0].failed, 3);
    }
}
