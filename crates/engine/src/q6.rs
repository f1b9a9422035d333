//! Tests of TPC-H Q6 ([`crate::tpch::q6_plan`]): selectivity, backend
//! agreement, and bit-identity across thread counts and row orders.

#[cfg(test)]
mod tests {
    use crate::q1::tests::assert_bitwise;
    use crate::tpch::{lineitem_table, q6_plan, Q6_DATE_HI, Q6_DATE_LO};
    use crate::{ExecOptions, SumBackend};
    use rfa_workloads::Lineitem;

    fn table() -> Lineitem {
        Lineitem::generate(100_000, 11)
    }

    fn run_q6(t: &Lineitem, backend: SumBackend, opts: &ExecOptions) -> f64 {
        q6_plan()
            .execute(&lineitem_table(t), backend, opts)
            .unwrap()
            .columns[0]
            .f64s()[0]
    }

    #[test]
    fn q6_selects_a_plausible_fraction() {
        let t = table();
        let sel = (0..t.len())
            .filter(|&i| {
                (Q6_DATE_LO..Q6_DATE_HI).contains(&t.shipdate[i])
                    && (0.05..=0.07).contains(&t.discount[i])
                    && t.quantity[i] < 24.0
            })
            .count();
        // Spec selectivity is ~2%; synthetic data lands in the same range.
        let frac = sel as f64 / t.len() as f64;
        assert!((0.005..0.06).contains(&frac), "selectivity {frac}");
    }

    #[test]
    fn backends_agree() {
        let t = table();
        let serial = ExecOptions::serial();
        let d = run_q6(&t, SumBackend::Double, &serial);
        let r = run_q6(&t, SumBackend::Rsum { levels: 3 }, &serial);
        let b = run_q6(
            &t,
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 512,
            },
            &serial,
        );
        let s = run_q6(&t, SumBackend::SortedDouble, &serial);
        assert!((d - r).abs() <= 1e-9 * d.abs());
        assert!((d - s).abs() <= 1e-9 * d.abs());
        assert_eq!(r.to_bits(), b.to_bits());
        assert!(d > 0.0);
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_serial_for_every_backend() {
        let t = lineitem_table(&table());
        for backend in [
            SumBackend::Double,
            SumBackend::Rsum { levels: 2 },
            SumBackend::Rsum { levels: 4 },
            SumBackend::RsumBuffered {
                levels: 3,
                buffer_size: 512,
            },
            SumBackend::ReproUnbuffered,
            SumBackend::ReproBuffered { buffer_size: 256 },
            SumBackend::SortedDouble,
        ] {
            let serial = q6_plan()
                .execute(&t, backend, &ExecOptions::serial())
                .unwrap();
            let parallel = q6_plan()
                .execute(&t, backend, &ExecOptions::parallel())
                .unwrap();
            assert_bitwise(&serial, &parallel, &format!("{backend:?}"));
        }
    }

    #[test]
    fn repro_backend_is_reorder_invariant() {
        let t = table();
        // Physically reverse all columns.
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
        for backend in [SumBackend::Rsum { levels: 2 }, SumBackend::SortedDouble] {
            let r1 = run_q6(&t, backend, &serial);
            let r2 = run_q6(&rev, backend, &serial);
            assert_eq!(r1.to_bits(), r2.to_bits(), "{backend:?}");
        }
        // And the plain double is not (on 100k rows it virtually always
        // differs in the last bits; if equal, the test data got lucky —
        // so only numeric equality is asserted).
        let d1 = run_q6(&t, SumBackend::Double, &serial);
        let d2 = run_q6(&rev, SumBackend::Double, &serial);
        assert!((d1 - d2).abs() <= 1e-6 * d1.abs());
    }
}
