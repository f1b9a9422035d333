//! Property tests of the fused scan pipeline: for arbitrary lineitem
//! contents, every backend, and every batch/morsel/thread shape, the
//! TPC-H plans must be **bit-identical** to the row-at-a-time reference
//! interpreter ([`oracle`]) — the acceptance contract of the zero-copy
//! scan — and every SUM must lie within the paper's error bound of the
//! exactly rounded sum.
//!
//! Why bit-identity holds per backend (and is therefore assertable for
//! *all* of them, not just the reproducible ones):
//!
//! * repro backends — per-slot deposits commute and state merging is
//!   exact, so any batch/morsel/thread schedule finalizes identically;
//! * plain `Double` — the fused executor deliberately scans it serially
//!   at any requested thread count (exact merging is impossible), and the
//!   serial fused scan performs the oracle's addition sequence;
//! * `SortedDouble` — each group's values are sorted by `total_cmp`
//!   before summing, so its result depends only on the group's multiset.

mod oracle;

use oracle::{assert_matches, evaluate, force_pool, lineitem_strategy, shapes, BACKENDS};
use proptest::prelude::*;
use rfa_core::analysis::{conventional_bound, reproducible_bound_anchored};
use rfa_engine::{
    lineitem_table, q15_plan, q1_plan, q6_plan, AggCall, ExecOptions, QueryPlan, SumBackend,
};
use rfa_workloads::Lineitem;

/// Executes `plan` over `t` in every shape on every backend and checks
/// each result against the oracle, bitwise.
fn check_against_oracle(plan: &QueryPlan, t: &Lineitem) {
    let table = lineitem_table(t);
    for backend in BACKENDS {
        let want = evaluate(plan, &table, backend).unwrap();
        for opts in shapes() {
            let got = plan.execute(&table, backend, &opts).unwrap();
            assert_matches(&got, &want, &format!("{backend:?} {opts:?}"));
        }
    }
}

/// The a-priori error bound of `backend` on a group of `n` values: Eq. 5
/// for the double backends, Eq. 6 for the reproducible ones (with the
/// anchored ladder's factor 2, see `rfa_core::analysis`).
fn error_bound(backend: SumBackend, n: usize, max_abs: f64, sum_abs: f64) -> f64 {
    let levels = match backend {
        SumBackend::Double | SumBackend::SortedDouble => {
            return conventional_bound::<f64>(n, sum_abs);
        }
        SumBackend::ReproUnbuffered | SumBackend::ReproBuffered { .. } => 4,
        SumBackend::Rsum { levels } | SumBackend::RsumBuffered { levels, .. } => levels,
    };
    reproducible_bound_anchored::<f64>(n, levels as usize, max_abs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn q1_fused_matches_oracle(t in lineitem_strategy(700)) {
        force_pool();
        check_against_oracle(&q1_plan(), &t);
    }

    #[test]
    fn q6_fused_matches_oracle(t in lineitem_strategy(900)) {
        force_pool();
        check_against_oracle(&q6_plan(), &t);
    }

    /// Every SUM of Q1, Q6 and Q15 lies within its backend's error bound
    /// of the exactly rounded sum (plus the half-ulp that separates the
    /// exactly rounded sum from the exact one, and the result's own final
    /// rounding).
    #[test]
    fn sums_lie_within_the_paper_error_bounds(t in lineitem_strategy(700)) {
        force_pool();
        let table = lineitem_table(&t);
        for plan in [q1_plan(), q6_plan(), q15_plan()] {
            for backend in BACKENDS {
                let want = evaluate(&plan, &table, backend).unwrap();
                let got = plan.execute(&table, backend, &ExecOptions::parallel()).unwrap();
                for (a, call) in plan.aggs.iter().enumerate() {
                    let (AggCall::Sum(_), Some(exact)) = (call, &want.exact[a]) else {
                        continue;
                    };
                    for (e, &sum) in exact.iter().zip(got.columns[a].f64s()) {
                        let bound = error_bound(backend, e.n, e.max_abs, e.sum_abs)
                            + 2.0 * f64::EPSILON * e.sum().abs();
                        let err = (sum - e.sum()).abs();
                        prop_assert!(
                            err <= bound,
                            "{:?} agg {}: |{:e} - {:e}| = {:e} > {:e}",
                            backend, a, sum, e.sum(), err, bound
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn q1_fused_is_physical_order_invariant_for_repro(
        t in lineitem_strategy(400),
        seed in any::<u64>(),
    ) {
        force_pool();
        // Shuffle all columns with one permutation; the fused repro result
        // must not move a bit (the paper's data-independence claim, now on
        // the fused path).
        let n = t.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut s = seed | 1;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            idx.swap(i, (s >> 33) as usize % (i + 1));
        }
        let shuffled = Lineitem::from_columns(
            idx.iter().map(|&i| t.quantity[i]).collect(),
            idx.iter().map(|&i| t.extendedprice[i]).collect(),
            idx.iter().map(|&i| t.discount[i]).collect(),
            idx.iter().map(|&i| t.tax[i]).collect(),
            idx.iter().map(|&i| t.shipdate[i]).collect(),
            idx.iter().map(|&i| t.returnflag[i]).collect(),
            idx.iter().map(|&i| t.linestatus[i]).collect(),
            idx.iter().map(|&i| t.suppkey[i]).collect(),
        );
        let opts = ExecOptions {
            threads: 2,
            batch_rows: 128,
            morsel_rows: 256,
            ..ExecOptions::default()
        };
        for backend in [
            SumBackend::ReproUnbuffered,
            SumBackend::RsumBuffered { levels: 2, buffer_size: 32 },
            SumBackend::SortedDouble,
        ] {
            let a = q1_plan().execute(&lineitem_table(&t), backend, &opts).unwrap();
            let b = q1_plan().execute(&lineitem_table(&shuffled), backend, &opts).unwrap();
            let want = evaluate(&q1_plan(), &lineitem_table(&t), backend).unwrap();
            assert_matches(&a, &want, &format!("{backend:?}"));
            assert_matches(&b, &want, &format!("{backend:?} shuffled"));
        }
    }
}
