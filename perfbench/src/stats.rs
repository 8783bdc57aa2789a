//! Percentiles over exact samples and over window deltas of the
//! program's log-linear histograms.

use ft_metrics::{Histogram, HistogramSnapshot};

/// Nearest-rank quantile of exact samples (the order statistic at rank
/// `ceil(q * n)`), `None` when empty.
pub fn exact_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank `q` position: what backs a
/// percentile's tail. A percentile with fewer than ten is refused.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// One timed distribution: exact samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v
    }

    pub fn quantile(&self, q: f64) -> Option<u64> {
        exact_quantile(&self.sorted(), q)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&v| v as f64).sum::<f64>() / self.0.len() as f64
    }

    pub fn max(&self) -> u64 {
        self.0.iter().copied().max().unwrap_or(0)
    }

    /// The `q`-quantile of each run of `chunk` consecutive samples (in
    /// recording order), and their median: a percentile that a burst of
    /// host noise confined to a few chunks does not move. `None` until
    /// one chunk is full.
    pub fn chunked_quantile(&self, q: f64, chunk: usize) -> Option<u64> {
        let mut per_chunk: Vec<u64> = self
            .0
            .chunks_exact(chunk)
            .filter_map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                exact_quantile(&c, q)
            })
            .collect();
        per_chunk.sort_unstable();
        exact_quantile(&per_chunk, 0.5)
    }

    /// The median of the means of consecutive `chunk`-sample runs. The
    /// means average over this host's alternating fast and slow CPU
    /// spells; the median drops chunks a longer stall ruined.
    pub fn median_of_chunk_means(&self, chunk: usize) -> f64 {
        let mut means: Vec<f64> = self
            .0
            .chunks_exact(chunk)
            .map(|c| c.iter().map(|&v| v as f64).sum::<f64>() / chunk as f64)
            .collect();
        means.sort_by(f64::total_cmp);
        match means.len() {
            0 => 0.0,
            n if n % 2 == 1 => means[n / 2],
            n => 0.5 * (means[n / 2 - 1] + means[n / 2]),
        }
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }
}

/// What a histogram recorded between two snapshots: bucket-exact, so
/// its quantiles keep the histogram's `REL_ERROR` bound against the
/// exact order statistics of the window's samples.
pub fn window_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let old: std::collections::HashMap<usize, u64> = before.sparse_buckets().into_iter().collect();
    let delta: Vec<(usize, u64)> = after
        .sparse_buckets()
        .into_iter()
        .filter_map(|(i, c)| {
            let d = c - old.get(&i).copied().unwrap_or(0);
            (d > 0).then_some((i, d))
        })
        .collect();
    HistogramSnapshot::from_sparse(
        &delta,
        after.sum.wrapping_sub(before.sum),
        after.clamped - before.clamped,
        0,
    )
    .expect("indices come from the same histogram")
}

/// A histogram's window: the snapshot when the window opened.
pub struct Window {
    hists: Vec<(std::sync::Arc<Histogram>, HistogramSnapshot)>,
}

impl Window {
    pub fn open(hists: &[std::sync::Arc<Histogram>]) -> Self {
        Self {
            hists: hists.iter().map(|h| (h.clone(), h.snapshot())).collect(),
        }
    }

    /// The merged delta of every histogram since `open`.
    pub fn close(&self) -> HistogramSnapshot {
        let mut merged: Option<HistogramSnapshot> = None;
        for (h, before) in &self.hists {
            let d = window_delta(before, &h.snapshot());
            match merged.as_mut() {
                Some(m) => m.merge(&d),
                None => merged = Some(d),
            }
        }
        merged.unwrap_or_else(|| HistogramSnapshot::from_sparse(&[], 0, 0, 0).expect("empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn window_delta_quantiles_match_exact_order_statistics() {
        let h = Histogram::new();
        let mut rng = Rng::new(5);
        // History before the window, with a different distribution, so
        // the delta must really subtract it.
        for _ in 0..5000 {
            h.record(rng.range(10, 2_000_000));
        }
        let before = h.snapshot();
        let mut window = Vec::new();
        for _ in 0..20_000 {
            // Sparse, heavy-tailed: most samples near 2 µs, a tail out
            // to 40 ms, leaving most buckets empty.
            let v = if rng.unit() < 0.97 {
                rng.range(1_500, 2_500)
            } else {
                rng.range(1_000_000, 40_000_000)
            };
            window.push(v);
            h.record(v);
        }
        let delta = window_delta(&before, &h.snapshot());
        assert_eq!(delta.count, window.len() as u64);
        window.sort_unstable();
        for q in [0.5, 0.9, 0.97, 0.99, 0.999] {
            let exact = exact_quantile(&window, q).unwrap() as f64;
            let approx = delta.quantile(q).unwrap() as f64;
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= Histogram::REL_ERROR,
                "q={q}: exact {exact} vs window {approx} (rel {rel})"
            );
        }
    }

    #[test]
    fn beyond_counts_the_tail() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(20, 0.5), 10);
    }
}
