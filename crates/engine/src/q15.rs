//! Tests of the TPC-H Q15 revenue view ([`crate::tpch::q15_plan`]): the
//! engine's high-cardinality hash-grouped query, checked against a
//! per-supplier reference and across thread counts and row orders.

#[cfg(test)]
mod tests {
    use crate::plan::PlanResult;
    use crate::q1::tests::assert_bitwise;
    use crate::tpch::{lineitem_table, q15_plan, Q15_DATE_HI, Q15_DATE_LO};
    use crate::{ExecOptions, GroupedStates, SumBackend};
    use rfa_workloads::Lineitem;
    use std::collections::BTreeMap;

    fn table() -> Lineitem {
        Lineitem::generate(150_000, 23)
    }

    fn run_q15(t: &Lineitem, backend: SumBackend, opts: &ExecOptions) -> PlanResult {
        q15_plan()
            .execute(&lineitem_table(t), backend, opts)
            .unwrap()
    }

    /// Scalar reference: per-supplier dense ids in a BTreeMap, each
    /// selected row deposited on its own, in row order; rows ascend by
    /// supplier key. Returns (suppkey, revenue, count) rows.
    fn reference(t: &Lineitem, backend: SumBackend) -> Vec<(i64, f64, u64)> {
        let sel: Vec<usize> = (0..t.len())
            .filter(|&i| (Q15_DATE_LO..Q15_DATE_HI).contains(&t.shipdate[i]))
            .collect();
        let mut rank: BTreeMap<i32, u32> = BTreeMap::new();
        for &i in &sel {
            let next = rank.len() as u32;
            rank.entry(t.suppkey[i]).or_insert(next);
        }
        let mut states = GroupedStates::new(backend, rank.len(), 1, 0, 0);
        for &i in &sel {
            let g = rank[&t.suppkey[i]];
            states.add_counts(&[g]);
            states
                .update_sum(0, &[g], &[t.extendedprice[i] * (1.0 - t.discount[i])])
                .unwrap();
        }
        let out = states.finalize().unwrap();
        rank.iter()
            .map(|(&k, &g)| (k as i64, out.sums[0][g as usize], out.counts[g as usize]))
            .collect()
    }

    #[test]
    fn q15_selects_a_plausible_supplier_slice() {
        let t = table();
        let r = run_q15(&t, SumBackend::ReproUnbuffered, &ExecOptions::serial());
        // ~3.4% of a 7-year window: thousands of suppliers see revenue.
        assert!(r.keys.len() > 1_000, "{} suppliers", r.keys.len());
        assert!(r.keys.windows(2).all(|w| w[0] < w[1]));
        assert!(r.columns[0].f64s().iter().all(|&v| v > 0.0));
        assert!(r.columns[1].u64s().iter().all(|&c| c > 0));
        let total_rows: u64 = r.columns[1].u64s().iter().sum();
        let frac = total_rows as f64 / t.len() as f64;
        assert!((0.01..0.08).contains(&frac), "selectivity {frac}");
    }

    #[test]
    fn q15_matches_dense_reference_bitwise_for_every_fused_backend() {
        let t = table();
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 64 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 128,
            },
        ] {
            let expected = reference(&t, backend);
            let r = run_q15(&t, backend, &ExecOptions::serial());
            assert_eq!(r.keys.len(), expected.len(), "{backend:?}");
            for (i, &(suppkey, revenue, count)) in expected.iter().enumerate() {
                assert_eq!(r.keys[i], suppkey, "{backend:?}");
                assert_eq!(r.columns[1].u64s()[i], count, "{backend:?} supp {suppkey}");
                assert_eq!(
                    r.columns[0].f64s()[i].to_bits(),
                    revenue.to_bits(),
                    "{backend:?} supp {suppkey}"
                );
            }
        }
    }

    #[test]
    fn q15_is_bit_identical_across_thread_counts_for_repro_backends() {
        let t = table();
        for backend in [
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 256 },
            SumBackend::Rsum { levels: 2 },
            SumBackend::RsumBuffered {
                levels: 4,
                buffer_size: 64,
            },
            SumBackend::SortedDouble,
        ] {
            let serial = run_q15(&t, backend, &ExecOptions::serial());
            for threads in [2usize, 8] {
                let opts = ExecOptions {
                    threads,
                    morsel_rows: 8192,
                    ..ExecOptions::default()
                };
                let parallel = run_q15(&t, backend, &opts);
                assert_bitwise(&serial, &parallel, &format!("{backend:?} t{threads}"));
            }
        }
        // Plain doubles stay thread-independent too (serial scan).
        let serial = run_q15(&t, SumBackend::Double, &ExecOptions::serial());
        let parallel = run_q15(&t, SumBackend::Double, &ExecOptions::parallel());
        assert_bitwise(&serial, &parallel, "Double");
    }

    #[test]
    fn q15_is_physical_order_invariant_for_repro() {
        let t = table();
        let rev = Lineitem::from_columns(
            t.quantity.iter().rev().copied().collect(),
            t.extendedprice.iter().rev().copied().collect(),
            t.discount.iter().rev().copied().collect(),
            t.tax.iter().rev().copied().collect(),
            t.shipdate.iter().rev().copied().collect(),
            t.returnflag.iter().rev().copied().collect(),
            t.linestatus.iter().rev().copied().collect(),
            t.suppkey.iter().rev().copied().collect(),
        );
        let serial = ExecOptions::serial();
        let fwd = run_q15(&t, SumBackend::ReproUnbuffered, &serial);
        let bwd = run_q15(&rev, SumBackend::ReproUnbuffered, &serial);
        assert_bitwise(&fwd, &bwd, "reversed rows");
    }
}
