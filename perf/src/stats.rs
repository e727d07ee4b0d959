//! Order statistics and the noise floor.
//!
//! A timing the harness cannot stand behind is refused, not printed: the
//! repo's old `BENCH_obs.json` gated a 2% overhead on a 34 ms run.

/// A timing metric needs at least this long a timed section.
pub const MIN_TIMED_SECONDS: f64 = 5.0;
/// A percentile needs at least this many samples beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;
/// A mean from a direct probe needs this many iterations, or this long.
pub const MIN_PROBE_ITERS: usize = 30;
pub const MIN_PROBE_SECONDS: f64 = 0.2;

/// `--smoke` switches the floors off (and prints no result line).
static FLOORS_OFF: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

pub fn disable_floors() {
    FLOORS_OFF.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile, refused unless `MIN_SAMPLES_BEYOND` samples
/// lie beyond it (for a median: on either side).
pub fn percentile<T: Copy + Ord>(samples: &mut [T], p: f64, what: &str) -> Result<T, String> {
    if samples.is_empty() {
        return Err(format!("{what}: no samples"));
    }
    samples.sort_unstable();
    let rank = nearest_rank(samples.len(), p);
    let above = samples.len() - rank;
    let beyond = if p <= 50.0 {
        above.min(rank - 1)
    } else {
        above
    };
    if beyond < MIN_SAMPLES_BEYOND && !FLOORS_OFF.load(std::sync::atomic::Ordering::Relaxed) {
        return Err(format!(
            "{what}: p{p} of {} samples has only {beyond} beyond it (need {MIN_SAMPLES_BEYOND})",
            samples.len()
        ));
    }
    Ok(samples[rank - 1])
}

/// Every timed section is cut into this many consecutive slices.
pub const SLICES: usize = 5;

/// One slice of a timed section: how long it lasted, how many ops
/// completed in it, and the latencies sampled from them.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    pub seconds: f64,
    pub ops: u64,
    pub lat_ns: Vec<u64>,
}

/// The steady numbers of a timed section: the sandbox shares two cores
/// with whatever else the host runs, and a burst of that lands in one or
/// two slices. Throughput and median latency are therefore taken per
/// slice and reported as the median over slices; the tail percentile
/// needs every sample and is taken over the whole section.
pub struct Steady {
    /// Each slice's own rate, for the reader to judge steadiness by.
    pub slice_ops_per_s: Vec<f64>,
    pub ops_per_s: f64,
    pub p50_ns: f64,
    pub tail_ns: f64,
    pub samples: usize,
}

pub fn steady(slices: &mut [Slice], tail_percentile: f64) -> Result<Steady, String> {
    let mut rates = Vec::new();
    let mut medians = Vec::new();
    let mut all = Vec::new();
    let floors_off = FLOORS_OFF.load(std::sync::atomic::Ordering::Relaxed);
    for (i, s) in slices.iter_mut().enumerate() {
        if s.seconds <= 0.0 || s.ops == 0 {
            if floors_off {
                continue;
            }
            return Err(format!("slice {i} of the timed section is empty"));
        }
        rates.push(s.ops as f64 / s.seconds);
        medians.push(percentile(&mut s.lat_ns, 50.0, "lat_p50_ms of a slice")? as f64);
        all.extend_from_slice(&s.lat_ns);
    }
    Ok(Steady {
        ops_per_s: median(&rates),
        slice_ops_per_s: rates,
        p50_ns: median(&medians),
        tail_ns: percentile(&mut all, tail_percentile, "lat_tail_ms")? as f64,
        samples: all.len(),
    })
}

/// Cut a timed section made of equal-sized consecutive units (blocks,
/// rounds) into SLICES runs of whole units, as evenly as possible.
/// `unit_seconds[i]` is what unit `i` took and `lat_ns` holds every op's
/// latency, unit after unit.
pub fn slices_of_units(unit_seconds: &[f64], lat_ns: &[u64]) -> Vec<Slice> {
    let units = unit_seconds.len().max(1);
    let mut slices = vec![Slice::default(); SLICES];
    for (i, (seconds, lat)) in unit_seconds
        .iter()
        .zip(lat_ns.chunks(lat_ns.len() / units))
        .enumerate()
    {
        let s = &mut slices[(i * SLICES / units).min(SLICES - 1)];
        s.seconds += seconds;
        s.ops += lat.len() as u64;
        s.lat_ns.extend_from_slice(lat);
    }
    slices
}

/// Median of a small set of repeated measurements (mean of the middle
/// pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Tracing overhead from passes over one sample of ops. In a pass of
/// parity `p`, op `k` ran traced iff `k % 2 == p`, so every pass holds
/// both arms and a pass that ran fast or slow as a whole favours neither.
/// Per op: fastest traced time ÷ fastest untraced time; the result is the
/// median over ops, which a heavy-tailed op mix cannot drown.
pub fn alternating_ratio(passes: &[(usize, Vec<u64>)]) -> f64 {
    let ops = passes.iter().map(|(_, ns)| ns.len()).min().unwrap_or(0);
    let fastest = |k: usize, traced: bool| {
        passes
            .iter()
            .filter(|(parity, _)| (k % 2 == *parity) == traced)
            .map(|(_, ns)| ns[k])
            .min()
            .unwrap_or(1)
            .max(1) as f64
    };
    let ratios: Vec<f64> = (0..ops)
        .map(|k| fastest(k, true) / fastest(k, false))
        .collect();
    median(&ratios)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; the benchmark's acceptance rule is
/// written in those terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // position i*(n+1)/4, 1-based, linearly interpolated
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_inputs() {
        let percentile_sorted = |v: &[u32], p: f64| v[nearest_rank(v.len(), p) - 1];
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 90.0), 90);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        // The textbook example: p30 of 5 values is the 2nd.
        let w = [15u32, 20, 35, 40, 50];
        assert_eq!(percentile_sorted(&w, 30.0), 20);
        assert_eq!(percentile_sorted(&w, 40.0), 20);
        assert_eq!(percentile_sorted(&w, 50.0), 35);
        assert_eq!(percentile_sorted(&w, 0.0), 15);
    }

    #[test]
    fn percentile_is_refused_below_the_noise_floor() {
        let mut few: Vec<u32> = (1..=100).collect();
        assert!(
            percentile(&mut few, 99.0, "t").is_err(),
            "1 sample beyond p99"
        );
        assert_eq!(percentile(&mut few, 90.0, "t"), Ok(90));
        let mut tiny: Vec<u32> = (1..=15).collect();
        assert!(percentile(&mut tiny, 50.0, "t").is_err());
        let mut unsorted = vec![5u32; 40];
        unsorted[39] = 1;
        assert_eq!(percentile(&mut unsorted, 50.0, "t"), Ok(5));
    }

    #[test]
    fn alternating_ratio_cancels_a_slow_pass_and_an_outlier_op() {
        // Tracing costs 10%; the second pass runs 20% slower as a whole;
        // op 4 hiccups once.
        let base = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0];
        let pass = |parity: usize, slow: f64, hiccup: u64| {
            let ns = (0..6)
                .map(|k| {
                    let traced = if k % 2 == parity { 1.1 } else { 1.0 };
                    (base[k] * traced * slow) as u64 + if k == 4 { hiccup } else { 0 }
                })
                .collect();
            (parity, ns)
        };
        let passes = [
            pass(0, 1.0, 9_000),
            pass(1, 1.2, 0),
            pass(1, 1.0, 0),
            pass(0, 1.2, 0),
        ];
        assert!(
            (alternating_ratio(&passes) - 1.1).abs() < 0.01,
            "{}",
            alternating_ratio(&passes)
        );
    }

    #[test]
    fn steady_numbers_shrug_off_one_disturbed_slice() {
        let quiet = Slice {
            seconds: 2.0,
            ops: 200,
            lat_ns: (0..200).map(|i| 1000 + i).collect(),
        };
        let mut slices = vec![quiet.clone(); SLICES];
        slices[1] = Slice {
            seconds: 2.0,
            ops: 100,
            lat_ns: (0..100).map(|i| 9000 + i).collect(),
        };
        let s = steady(&mut slices, 90.0).unwrap();
        assert_eq!(s.ops_per_s, 100.0);
        assert_eq!(s.p50_ns, 1099.0);
        assert_eq!(s.samples, 900);
        assert!(s.tail_ns >= 9000.0, "the tail does see the disturbance");
        slices[3].ops = 0;
        assert!(steady(&mut slices, 90.0).is_err());
        // Units spread evenly, in order: 17 blocks of 2 ops.
        let lat: Vec<u64> = (0..34).collect();
        let cut = slices_of_units(&[1.0; 17], &lat);
        assert_eq!(
            cut.iter().map(|s| s.ops).collect::<Vec<_>>(),
            [8, 6, 8, 6, 6]
        );
        assert_eq!(
            cut.iter().map(|s| s.seconds).collect::<Vec<_>>(),
            [4.0, 3.0, 4.0, 3.0, 3.0]
        );
        assert_eq!(cut[1].lat_ns, [8, 9, 10, 11, 12, 13]);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!(
            (q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12,
            "{q1} {q3}"
        );
    }
}
