//! Order statistics over latency samples and the result-bit digest.

use rfa_engine::SqlColumn;

/// Nearest-rank `p`-quantile (`0 < p <= 1`) of ascending `sorted`
/// samples: the smallest sample with at least `p·n` samples at or
/// below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p`-quantile's rank.
/// A percentile is reported only when at least ten do.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Fewest samples whose `p`-quantile has ten samples beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= 10)
        .expect("some n qualifies")
}

/// The middle value, or the mean of the middle two of an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n > 0 && n.is_multiple_of(2) {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    } else {
        percentile(&v, 0.5)
    }
}

/// Completions per window of [`windows`]: the fewest whose p90 has ten
/// samples beyond it.
pub const WINDOW: usize = 100;

/// One window of consecutive completions of a closed loop.
#[derive(Debug, PartialEq)]
pub struct Window {
    /// Median of the window's latencies (ms).
    pub p50_ms: f64,
    /// 90th percentile of the window's latencies (ms).
    pub p90_ms: f64,
    /// The window's completions ÷ the time from the completion before it
    /// (or the loop's start) to its last one (1/s).
    pub per_s: f64,
}

/// Cuts a loop's completions into windows of [`WINDOW`] consecutive
/// ones, in completion order across sessions. `done` holds (completion
/// time since the loop's start, latency) pairs in ns, in any order. A
/// trailing partial window is dropped unless it is the only one.
///
/// A median over windows follows the host's typical speed during the
/// loop: a slow stretch that covers a tenth of a loop moves the loop's
/// whole-run p90 to the stretch's latency, but moves the median of
/// window p90s only if it covers half of the windows. Window medians
/// vary less than single latencies, so the median of window p50s also
/// moves less than the whole-run p50.
pub fn windows(done: &mut [(u64, u64)]) -> Vec<Window> {
    done.sort_unstable();
    let (size, used) = if done.len() < WINDOW {
        (done.len().max(1), done.len())
    } else {
        (WINDOW, done.len() / WINDOW * WINDOW)
    };
    let mut out = Vec::new();
    let mut prev_end = 0;
    for chunk in done[..used].chunks(size) {
        let mut ms: Vec<f64> = chunk.iter().map(|&(_, ns)| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        let end = chunk[chunk.len() - 1].0;
        let span_s = (end - prev_end).max(1) as f64 / 1e9;
        out.push(Window {
            p50_ms: percentile(&ms, 0.5),
            p90_ms: percentile(&ms, 0.9),
            per_s: chunk.len() as f64 / span_s,
        });
        prev_end = end;
    }
    out
}

/// A result's bits as one word stream: the column count, then per
/// column its type tag, length and every value's bits. Two results are
/// the same answer exactly when their streams are equal.
pub fn result_bits(columns: &[SqlColumn]) -> Vec<u64> {
    let mut out = vec![columns.len() as u64];
    for col in columns {
        match col {
            SqlColumn::I64(v) => {
                out.extend([0, v.len() as u64]);
                out.extend(v.iter().map(|&x| x as u64));
            }
            SqlColumn::U64(v) => {
                out.extend([1, v.len() as u64]);
                out.extend(v.iter().copied());
            }
            SqlColumn::F64(v) => {
                out.extend([2, v.len() as u64]);
                out.extend(v.iter().map(|x| x.to_bits()));
            }
        }
    }
    out
}

/// 64-bit FNV-1a over a sequence of words, fed little-endian; chained
/// through `seed` so replies fold in order.
pub fn digest(seed: u64, words: &[u64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = seed;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

/// FNV-1a offset basis: the digest of nothing.
pub const DIGEST_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(250, 0.9), 25);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(beyond(0, 0.9), 0);
        assert_eq!(beyond(WINDOW, 0.9), 10);
    }

    #[test]
    fn windows_cut_completions_in_completion_order() {
        // Two sessions' completions, interleaved in time: 250 queries of
        // 1..=250 ms latency, one finishing every 2 ms from t = 2 ms.
        let ms = 1_000_000u64;
        let mut done: Vec<(u64, u64)> = (1..=250u64).map(|i| (2 * i * ms, i * ms)).collect();
        done.reverse();
        let w = windows(&mut done);
        assert_eq!(w.len(), 2, "the trailing 50 completions are dropped");
        assert_eq!((w[0].p50_ms, w[1].p50_ms), (50.0, 150.0));
        assert_eq!(w[0].p90_ms, 90.0);
        assert_eq!(w[1].p90_ms, 190.0);
        assert_eq!(w[0].per_s, 500.0);
        assert_eq!(w[1].per_s, 500.0);
        // Fewer than a window: the partial one stands alone.
        let mut few: Vec<(u64, u64)> = (1..=10u64).map(|i| (4 * i * ms, i * ms)).collect();
        assert_eq!(
            windows(&mut few),
            vec![Window {
                p50_ms: 5.0,
                p90_ms: 9.0,
                per_s: 250.0
            }]
        );
        assert!(windows(&mut []).is_empty());
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // The pinned value keeps two builds' digests comparable; it is
        // FNV-1a 64 of the word stream's little-endian bytes.
        assert_eq!(digest(DIGEST_BASIS, &[]), DIGEST_BASIS);
        let cols = vec![
            SqlColumn::I64(vec![1, -2]),
            SqlColumn::F64(vec![0.1, -0.0]),
            SqlColumn::U64(vec![7, 8]),
        ];
        let bits = result_bits(&cols);
        assert_eq!(bits.len(), 1 + 3 * 4);
        assert_eq!(bits[7], 0.1f64.to_bits());
        assert_eq!(digest(DIGEST_BASIS, &bits), 0xC161_AA18_0EED_181D);
        // -0.0 and 0.0 compare equal as floats but not as bits.
        let zero = vec![SqlColumn::F64(vec![0.0])];
        let neg_zero = vec![SqlColumn::F64(vec![-0.0])];
        assert_ne!(result_bits(&zero), result_bits(&neg_zero));
        let ab = digest(digest(DIGEST_BASIS, &[1]), &[2]);
        let ba = digest(digest(DIGEST_BASIS, &[2]), &[1]);
        assert_ne!(ab, ba);
        assert_eq!(ab, digest(DIGEST_BASIS, &[1, 2]));
    }
}
