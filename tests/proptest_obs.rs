//! Property tests for the observability layer: sharded recording must be
//! observationally equivalent to recording everything through a single
//! recorder.
//!
//! Hot loops (the wall-clock runtime's delay wheel, for one) keep private
//! `Histogram`s and fold them into the shared [`Recorder`] with
//! `merge_hist`; these properties pin the algebra that makes that fold
//! exact — merge conserves count/sum/extremes and lands every sample in
//! the same log2 bucket a single recorder would have used, so quantiles
//! cannot drift with how samples were split.

use bft_cupft::obs::{Histogram, Recorder};
use proptest::prelude::*;

/// Samples spanning the full bucket range: small values, bucket
/// boundaries (2^k ± 1), and the saturating top end.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u64..64, 0u8..4).prop_map(|(shift, kind)| {
            let base = 1u64 << shift;
            match kind {
                0 => shift,                  // small linear values
                1 => base,                   // exact bucket lower bound
                2 => base.saturating_sub(1), // bucket upper bound
                _ => u64::MAX - shift,       // saturating top end
            }
        }),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting a sample stream across any number of shard-local
    /// histograms and merging them equals recording the stream into one
    /// histogram — regardless of how samples are dealt to shards.
    #[test]
    fn merged_shard_histograms_equal_a_single_histogram(
        samples in arb_samples(),
        shards in 1usize..8,
    ) {
        let mut single = Histogram::default();
        let mut shard_hists = vec![Histogram::default(); shards];
        for (i, &v) in samples.iter().enumerate() {
            single.record(v);
            shard_hists[i % shards].record(v);
        }
        let mut merged = Histogram::default();
        for shard in &shard_hists {
            merged.merge(shard);
        }
        prop_assert_eq!(&merged, &single);
        prop_assert_eq!(merged.count(), samples.len() as u64);
        prop_assert_eq!(merged.p50(), single.p50());
        prop_assert_eq!(merged.p99(), single.p99());
        prop_assert_eq!(merged.p999(), single.p999());
    }

    /// The same equivalence through the [`Recorder`] API the router
    /// actually uses: N shards folded with `merge_hist` produce the same
    /// report histogram as one recorder seeing every sample directly.
    #[test]
    fn sharded_recorders_fold_to_the_single_recorder_report(
        samples in arb_samples(),
        shards in 1usize..8,
    ) {
        let single = Recorder::new();
        let sharded = Recorder::new();
        let mut shard_hists = vec![Histogram::default(); shards];
        for (i, &v) in samples.iter().enumerate() {
            single.hist_record("router_inbox_depth", v);
            shard_hists[i % shards].record(v);
        }
        for shard in &shard_hists {
            sharded.merge_hist("router_inbox_depth", shard);
        }
        let a = single.snapshot();
        let b = sharded.snapshot();
        prop_assert_eq!(
            a.histogram("router_inbox_depth"),
            b.histogram("router_inbox_depth")
        );
    }

    /// Quantiles are always bracketed by the recorded extremes, merged or
    /// not (the clamp that keeps bucket-derived quantiles honest).
    #[test]
    fn quantiles_stay_within_recorded_extremes(samples in arb_samples()) {
        let mut h = Histogram::default();
        for &v in &samples {
            h.record(v);
        }
        if let (Some(min), Some(max)) = (h.min(), h.max()) {
            for q in [h.p50(), h.p99(), h.p999()] {
                prop_assert!(min <= q && q <= max);
            }
        }
    }
}
