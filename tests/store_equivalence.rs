//! Differential and property tests of the two-layer sample store.
//!
//! The exact layer must be **bit-for-bit** equivalent to the frozen
//! pre-partitioning store (`grass_core::grass::reference::ReferenceSampleStore`):
//! same retained samples, same counts, same `predict_rate` bits under arbitrary
//! record interleavings, capacities and queries — partitioning is a pure
//! reorganisation, not a behaviour change.
//!
//! The sketched layer has weaker, explicitly-stated guarantees, checked here as
//! properties: every prediction is a convex combination of recorded rates (so it
//! lies inside the observed rate range), and the `min_samples` gate counts
//! lifetime records.

use grass::prelude::*;
use grass_core::grass::reference::ReferenceSampleStore;
use grass_core::grass::{BoundKind, QueryContext, Sample};
use proptest::prelude::*;

/// Case count, overridable via `PROPTEST_CASES` (see `tests/properties.rs`).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn mode_of(sel: u8) -> SpeculationMode {
    if sel.is_multiple_of(2) {
        SpeculationMode::Gs
    } else {
        SpeculationMode::Ras
    }
}

fn kind_of(sel: u8) -> BoundKind {
    if sel.is_multiple_of(2) {
        BoundKind::Deadline
    } else {
        BoundKind::Error
    }
}

fn factors_of(sel: u8) -> FactorSet {
    match sel % 4 {
        0 => FactorSet::all(),
        1 => FactorSet::best_one(),
        2 => FactorSet::best_two_utilization(),
        _ => FactorSet::best_two_accuracy(),
    }
}

/// One record operation, compactly encoded so the strategy stays within the
/// shim's 5-element tuple limit: selectors pick the partition and size bucket,
/// floats supply the measured values.
fn sample_strategy() -> impl Strategy<Value = (u8, u8, f64, f64, f64)> {
    (
        0u8..4,        // mode (low bit) and kind (high bit) selector
        0u8..10,       // size bucket
        0.1f64..500.0, // bound value
        0.1f64..300.0, // performance
        0.0f64..1.0,   // utilization (accuracy derived below)
    )
}

fn build_sample(op: &(u8, u8, f64, f64, f64)) -> Sample {
    let (sel, size, bound, perf, util) = *op;
    Sample {
        mode: mode_of(sel),
        kind: kind_of(sel / 2),
        size_bucket: SizeBucket(size),
        bound_value: bound,
        performance: perf,
        utilization: util,
        // Derived rather than drawn to stay within the tuple limit; still
        // exercises the accuracy kernel with varied values.
        accuracy: (util * 7.3).fract(),
    }
}

fn query_strategy() -> impl Strategy<Value = (u8, u8, f64, f64, f64)> {
    (0u8..8, 0u8..10, 0.1f64..500.0, 0.0f64..1.0, 0.0f64..1.0)
}

fn build_query(q: &(u8, u8, f64, f64, f64)) -> (SpeculationMode, QueryContext, FactorSet) {
    let (sel, size, bound, util, acc) = *q;
    (
        mode_of(sel),
        QueryContext {
            kind: kind_of(sel / 2),
            size_bucket: SizeBucket(size),
            bound_value: bound,
            utilization: util,
            accuracy: acc,
        },
        factors_of(sel / 4 + size),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: configured_cases(),
        ..ProptestConfig::default()
    })]

    /// Under arbitrary record interleavings and eviction pressure, the exact
    /// partitioned store retains the same samples in the same order as the
    /// frozen whole-vector reference, and every prediction agrees bit for bit.
    #[test]
    fn exact_store_matches_the_frozen_reference_bit_for_bit(
        ops in prop::collection::vec(sample_strategy(), 1..120),
        queries in prop::collection::vec(query_strategy(), 1..12),
        cap in 1usize..24,
        min_samples in 0usize..6,
    ) {
        let store = SampleStore::with_capacity(cap);
        let reference = ReferenceSampleStore::with_capacity(cap);
        for op in &ops {
            let sample = build_sample(op);
            store.record(sample.clone());
            reference.record(sample);

            // Retention and counts agree after every single record — this is
            // what makes global-FIFO-by-sequence ≡ drain-from-the-front.
            prop_assert_eq!(store.len(), reference.len());
            prop_assert_eq!(store.counts_snapshot(), reference.counts_snapshot());
        }
        for mode in [SpeculationMode::Gs, SpeculationMode::Ras] {
            for kind in [BoundKind::Deadline, BoundKind::Error] {
                prop_assert_eq!(
                    store.samples_for(mode, kind),
                    reference.samples_for(mode, kind)
                );
            }
        }
        for q in &queries {
            let (mode, ctx, factors) = build_query(q);
            let got = store.predict_rate(mode, &ctx, factors, min_samples);
            let want = reference.predict_rate(mode, &ctx, factors, min_samples);
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        }
    }

    /// A sketched prediction is a convex combination of recorded rates, so it
    /// always lies within the [min, max] rate range of its partition, and the
    /// `min_samples` gate counts lifetime (never-evicted) records.
    #[test]
    fn sketched_prediction_stays_within_the_recorded_rate_range(
        ops in prop::collection::vec(sample_strategy(), 1..120),
        queries in prop::collection::vec(query_strategy(), 1..12),
    ) {
        let store = SampleStore::sketched();
        for op in &ops {
            store.record(build_sample(op));
        }
        for q in &queries {
            let (mode, ctx, factors) = build_query(q);
            let rates: Vec<f64> = ops
                .iter()
                .map(build_sample)
                .filter(|s| s.mode == mode && s.kind == ctx.kind)
                .map(|s| s.rate())
                .collect();
            let gate = store.count_for(mode, ctx.kind);
            prop_assert_eq!(gate, rates.len());
            prop_assert!(store.predict_rate(mode, &ctx, factors, gate + 1).is_none());
            if let Some(p) = store.predict_rate(mode, &ctx, factors, gate) {
                let lo = rates.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                // Convexity up to float rounding of the weighted sums.
                let slack = 1e-9 * (1.0 + hi.abs());
                prop_assert!(
                    p >= lo - slack && p <= hi + slack,
                    "prediction {} outside recorded rate range [{}, {}]",
                    p, lo, hi
                );
            }
        }
    }
}

/// Pinned decision oracle: with clearly separated GS-fast / RAS-slow evidence,
/// both layers must predict the same ordering — the sketched approximation may
/// move the numbers, but it must not flip the switch decision GRASS derives
/// from them.
#[test]
fn both_layers_agree_on_the_pinned_switch_decision() {
    let exact = SampleStore::with_capacity(1000);
    let sketched = SampleStore::sketched();
    for i in 0..40 {
        let spread = (i % 5) as f64;
        let gs = Sample {
            mode: SpeculationMode::Gs,
            kind: BoundKind::Deadline,
            size_bucket: SizeBucket(3),
            bound_value: 40.0 + spread,
            performance: 80.0 + spread, // fast: ~2 tasks per bound-second
            utilization: 0.5 + spread / 50.0,
            accuracy: 0.7,
        };
        let ras = Sample {
            performance: 20.0 + spread, // slow: ~0.5 tasks per bound-second
            mode: SpeculationMode::Ras,
            ..gs.clone()
        };
        exact.record(gs.clone());
        exact.record(ras.clone());
        sketched.record(gs);
        sketched.record(ras);
    }
    let ctx = QueryContext {
        kind: BoundKind::Deadline,
        size_bucket: SizeBucket(3),
        bound_value: 42.0,
        utilization: 0.52,
        accuracy: 0.7,
    };
    for store in [&exact, &sketched] {
        let gs = store
            .predict_rate(SpeculationMode::Gs, &ctx, FactorSet::all(), 1)
            .expect("gs prediction");
        let ras = store
            .predict_rate(SpeculationMode::Ras, &ctx, FactorSet::all(), 1)
            .expect("ras prediction");
        assert!(
            gs > 2.0 * ras,
            "GS must dominate RAS on this evidence (gs={gs}, ras={ras}, sketched={})",
            store.is_sketched()
        );
    }
}
