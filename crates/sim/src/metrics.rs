//! Measurement plumbing for simulations: throughput time series and
//! summary statistics.

use crate::Time;
use serde::{Deserialize, Serialize};

/// Transferred volume summed per time window, for a rate time series.
///
/// Used to reproduce Figs. 2 and 7 (PS network throughput over time).
/// Each [`record_interval`](Self::record_interval) adds its volume to the
/// window that holds the interval's midpoint, so memory is one `f64` per
/// window up to the latest one recorded, whatever the number of calls.
///
/// [`series`](Self::series) and [`mean_rate`](Self::mean_rate) are bit for
/// bit what bucketing a list of every `(midpoint, volume)` sample at the
/// end would give (the sample-list recorder kept as this module's test
/// oracle):
/// - a sample goes to window `(t / window) as usize`, and each window's sum
///   is the same f64 additions in record order, from `0.0`;
/// - with `n = ceil(horizon / window)` windows in the series, a sample in
///   window `n` or later is folded into window `n − 1` in record order.
///   Every interval ends by the horizon (give or take the rounding of its
///   end time) and f64 division is monotone, so only window `n` can be
///   past the end: the recorder keeps the top two windows' sum in record
///   order for that fold;
/// - the total starts at `-0.0`, the empty sum of `Iterator::sum`, so an
///   idle recorder's mean rate is `-0.0`.
#[derive(Debug, Clone)]
pub struct ThroughputRecorder {
    window: Time,
    /// Volume per window, in record order; the last entry is the highest
    /// window recorded so far.
    sums: Vec<f64>,
    /// The top two windows' volume added in record order, starting from
    /// the lower one's sum when the top one was opened. It is the last
    /// window of a series whose horizon ends where the top window starts.
    top_two: f64,
    total: f64,
}

impl ThroughputRecorder {
    /// Creates an empty recorder bucketing by `window` seconds.
    ///
    /// # Panics
    /// Panics unless `window` is finite and positive.
    pub fn new(window: Time) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "throughput window must be finite and positive, got {window}"
        );
        ThroughputRecorder {
            window,
            sums: Vec::new(),
            top_two: 0.0,
            total: -0.0,
        }
    }

    /// Records that `volume` (MB) finished transferring during the interval
    /// ending at `t_end` with duration `dt`; the volume is counted at the
    /// interval's midpoint. Volumes `<= 0` are ignored.
    pub fn record_interval(&mut self, t_end: Time, dt: Time, volume: f64) {
        if volume <= 0.0 {
            return;
        }
        let t = if dt <= 0.0 { t_end } else { t_end - dt * 0.5 };
        let i = (t / self.window) as usize;
        if i >= self.sums.len() {
            self.sums.resize(i + 1, 0.0);
            self.top_two = if i > 0 { self.sums[i - 1] } else { 0.0 };
        }
        self.sums[i] += volume;
        if i + 2 >= self.sums.len() {
            self.top_two += volume;
        }
        self.total += volume;
    }

    /// The recorded volume as `(window_center_time, rate)` pairs over
    /// `[0, horizon]`, rate = volume in window / window length.
    ///
    /// # Panics
    /// Panics if a sample's midpoint lies more than one window past the
    /// horizon (an interval ended after it).
    pub fn series(&self, horizon: Time) -> Vec<(Time, f64)> {
        let n = (horizon / self.window).ceil().max(1.0) as usize;
        assert!(
            self.sums.len() <= n + 1,
            "throughput recorded past the horizon {horizon}"
        );
        let past_end = self.sums.len() == n + 1;
        (0..n)
            .map(|i| {
                let v = if past_end && i + 1 == n {
                    self.top_two
                } else {
                    self.sums.get(i).copied().unwrap_or(0.0)
                };
                ((i as f64 + 0.5) * self.window, v / self.window)
            })
            .collect()
    }

    /// Mean rate over the busy portion `[0, horizon]`.
    pub fn mean_rate(&self, horizon: Time) -> f64 {
        if horizon <= 0.0 {
            0.0
        } else {
            self.total / horizon
        }
    }
}

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    pub n: usize,
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl Stats {
    /// Computes count/mean/sample-std/min/max of `xs`. Empty input yields
    /// zeros.
    pub fn of(xs: &[f64]) -> Stats {
        let n = xs.len();
        if n == 0 {
            return Stats {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Stats {
            n,
            mean,
            std: var.sqrt(),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Mean absolute percentage error between predictions and observations,
/// the accuracy metric used throughout Sec. 5.1 of the paper.
///
/// # Panics
/// Panics if the slices differ in length or an observation is zero.
pub fn mape(predicted: &[f64], observed: &[f64]) -> f64 {
    assert_eq!(predicted.len(), observed.len(), "length mismatch");
    assert!(!predicted.is_empty(), "mape of empty sample");
    let total: f64 = predicted
        .iter()
        .zip(observed)
        .map(|(p, o)| {
            assert!(*o != 0.0, "observation must be nonzero");
            ((p - o) / o).abs()
        })
        .sum();
    total / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The sample-list recorder that [`ThroughputRecorder`] replaced: one
    /// `(midpoint, volume)` pair per call, bucketed at the end. It is the
    /// oracle for the per-window sums.
    #[derive(Default)]
    struct SampleList {
        samples: Vec<(Time, f64)>,
    }

    impl SampleList {
        fn record_interval(&mut self, t_end: Time, dt: Time, volume: f64) {
            if volume <= 0.0 {
                return;
            }
            if dt <= 0.0 {
                self.samples.push((t_end, volume));
            } else {
                self.samples.push((t_end - dt * 0.5, volume));
            }
        }

        fn series(&self, window: Time, horizon: Time) -> Vec<(Time, f64)> {
            let n = (horizon / window).ceil().max(1.0) as usize;
            let mut buckets = vec![0.0f64; n];
            for &(t, v) in &self.samples {
                let i = ((t / window) as usize).min(n - 1);
                buckets[i] += v;
            }
            buckets
                .into_iter()
                .enumerate()
                .map(|(i, v)| ((i as f64 + 0.5) * window, v / window))
                .collect()
        }

        fn mean_rate(&self, horizon: Time) -> f64 {
            if horizon <= 0.0 {
                0.0
            } else {
                self.samples.iter().map(|(_, v)| v).sum::<f64>() / horizon
            }
        }
    }

    fn bits(series: &[(Time, f64)]) -> Vec<(u64, u64)> {
        series
            .iter()
            .map(|(t, r)| (t.to_bits(), r.to_bits()))
            .collect()
    }

    /// Records every `(t_end, dt, volume)` into both recorders and compares
    /// their series and mean rate bit for bit; returns whether a sample
    /// landed past the last window and had to be folded back.
    fn same_as_oracle(window: Time, horizon: Time, records: &[(Time, Time, f64)]) -> bool {
        let mut rec = ThroughputRecorder::new(window);
        let mut oracle = SampleList::default();
        for &(t_end, dt, v) in records {
            rec.record_interval(t_end, dt, v);
            oracle.record_interval(t_end, dt, v);
        }
        assert_eq!(
            bits(&rec.series(horizon)),
            bits(&oracle.series(window, horizon)),
            "series, window {window}, horizon {horizon}, records {records:?}"
        );
        assert_eq!(
            rec.mean_rate(horizon).to_bits(),
            oracle.mean_rate(horizon).to_bits(),
            "mean rate, window {window}, horizon {horizon}, records {records:?}"
        );
        rec.sums.len() > (horizon / window).ceil().max(1.0) as usize
    }

    #[test]
    fn throughput_buckets_volume() {
        let mut r = ThroughputRecorder::new(1.0);
        r.record_interval(1.0, 1.0, 10.0); // midpoint 0.5 -> bucket 0
        r.record_interval(3.0, 1.0, 30.0); // midpoint 2.5 -> bucket 2
        let s = r.series(4.0);
        assert_eq!(s.len(), 4);
        assert!((s[0].1 - 10.0).abs() < 1e-12);
        assert!((s[2].1 - 30.0).abs() < 1e-12);
        assert_eq!(s[1].1, 0.0);
        assert!((r.mean_rate(4.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn an_idle_recorder_has_a_negative_zero_mean_rate() {
        let mut r = ThroughputRecorder::new(10.0);
        r.record_interval(5.0, 5.0, 0.0);
        r.record_interval(5.0, 5.0, -1.0);
        assert_eq!(r.mean_rate(5.0).to_bits(), (-0.0f64).to_bits());
        assert!(!same_as_oracle(10.0, 5.0, &[]));
    }

    /// The horizon ends exactly where window 1 starts, so window 1's
    /// samples fold into window 0 in record order: each `1.1e-16` rounds
    /// away against the `1.0` already there, where adding the two windows'
    /// sums would keep them.
    #[test]
    fn a_window_past_the_horizon_folds_into_the_last_in_record_order() {
        let tiny = (1.0, 0.0, 1.1e-16);
        let records = [(1.0, 0.5, 1.0), tiny, tiny, tiny, tiny, (1.0, 0.0, 0.5)];
        assert!(same_as_oracle(1.0, 1.0, &records));
        let mut r = ThroughputRecorder::new(1.0);
        for (t_end, dt, v) in records {
            r.record_interval(t_end, dt, v);
        }
        assert_eq!(r.series(1.0), vec![(0.5, 1.5)]);
        assert_eq!(1.0 + (4.0 * 1.1e-16 + 0.5), 1.5000000000000004);
    }

    #[test]
    #[should_panic(expected = "past the horizon")]
    fn a_sample_two_windows_past_the_horizon_panics() {
        let mut r = ThroughputRecorder::new(1.0);
        r.record_interval(2.5, 0.0, 1.0);
        r.series(1.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn a_zero_window_is_rejected() {
        ThroughputRecorder::new(0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Random windows, non-decreasing interval ends up to the horizon,
        /// zero, tiny and long intervals, and volumes from `1e-17` to
        /// `1e4` with zeros and negatives. Half the windows are `m / 16`,
        /// so `k · window / window == k` exactly and an interval ending at
        /// the horizon lands in window `n`, past the end.
        #[test]
        fn per_window_sums_match_the_sample_list_bit_for_bit(
            sixteenths in prop::option::of(1u32..400),
            free_window in 0.01f64..30.0,
            k in 1u32..12,
            beyond in prop::option::of(0.0f64..1.0),
            records in prop::collection::vec(
                (0.0f64..1.0, 0u8..4, 0u8..6, 0.0f64..2.0, -17i32..5, 0u8..8),
                0..40,
            ),
        ) {
            let window = sixteenths.map_or(free_window, |m| m as f64 / 16.0);
            let horizon = (k as f64 + beyond.unwrap_or(0.0)) * window;
            let mut ends: Vec<Time> = records
                .iter()
                .map(|&(u, at_end, ..)| if at_end == 0 { horizon } else { u * horizon })
                .collect();
            ends.sort_by(f64::total_cmp);
            let records: Vec<(Time, Time, f64)> = ends
                .into_iter()
                .zip(&records)
                .map(|(t_end, &(u, _, dt_kind, dt_frac, exp, vol_kind))| {
                    let dt = match dt_kind {
                        0 | 1 => 0.0,
                        2 => t_end * 1e-17,
                        _ => dt_frac * window,
                    };
                    let v = (1.0 + u) * 10f64.powi(exp);
                    let v = match vol_kind {
                        0 => 0.0,
                        1 => -v,
                        _ => v,
                    };
                    (t_end, dt, v)
                })
                .collect();
            same_as_oracle(window, horizon, &records);
        }
    }

    #[test]
    fn stats_of_sample() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // Sample variance of 1..4 = 5/3.
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_and_singleton() {
        assert_eq!(Stats::of(&[]).n, 0);
        let s = Stats::of(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn mape_basic() {
        let e = mape(&[110.0, 90.0], &[100.0, 100.0]);
        assert!((e - 0.1).abs() < 1e-12);
    }
}
