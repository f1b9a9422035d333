//! Tests of TPC-H Q1 ([`crate::tpch::q1_plan`]) over the lineitem table
//! views: output groups, backend agreement, and bit-identity across
//! thread counts, physical row orders and column encodings.

#[cfg(test)]
pub(crate) mod tests {
    use crate::plan::{AggColumn, PlanResult};
    use crate::tpch::{lineitem_table, lineitem_table_encoded, q1_plan};
    use crate::{Column, ExecOptions, SumBackend};
    use rfa_workloads::Lineitem;

    fn table() -> Lineitem {
        Lineitem::generate(120_000, 7)
    }

    fn run_q1(t: &Lineitem, backend: SumBackend, opts: &ExecOptions) -> PlanResult {
        q1_plan()
            .execute(&lineitem_table(t), backend, opts)
            .unwrap()
    }

    /// Asserts two plan results hold the same keys and the same bits in
    /// every column.
    pub(crate) fn assert_bitwise(a: &PlanResult, b: &PlanResult, ctx: &str) {
        assert_eq!(a.keys, b.keys, "{ctx}");
        for (c, cols) in a.columns.iter().zip(&b.columns).enumerate() {
            match cols {
                (AggColumn::F64(x), AggColumn::F64(y)) => {
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(x), bits(y), "{ctx} column {c}");
                }
                (AggColumn::U64(x), AggColumn::U64(y)) => assert_eq!(x, y, "{ctx} column {c}"),
                _ => panic!("{ctx} column {c}: kind mismatch"),
            }
        }
    }

    const ALL_BACKENDS: [SumBackend; 6] = [
        SumBackend::Double,
        SumBackend::SortedDouble,
        SumBackend::ReproUnbuffered,
        SumBackend::ReproBuffered { buffer_size: 512 },
        SumBackend::Rsum { levels: 3 },
        SumBackend::RsumBuffered {
            levels: 3,
            buffer_size: 256,
        },
    ];

    #[test]
    fn q1_produces_the_four_tpch_groups() {
        let r = run_q1(&table(), SumBackend::Double, &ExecOptions::serial());
        let groups: Vec<(char, char)> = r
            .keys
            .iter()
            .map(|&g| Lineitem::decode_group(g as u32))
            .collect();
        assert_eq!(groups, vec![('A', 'F'), ('N', 'F'), ('N', 'O'), ('R', 'F')]);
    }

    #[test]
    fn backends_agree_numerically() {
        let t = table();
        let serial = ExecOptions::serial();
        let d = run_q1(&t, SumBackend::Double, &serial);
        let u = run_q1(&t, SumBackend::ReproUnbuffered, &serial);
        let b = run_q1(&t, SumBackend::ReproBuffered { buffer_size: 1024 }, &serial);
        let s = run_q1(&t, SumBackend::SortedDouble, &serial);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        for g in 0..d.keys.len() {
            let charge = |r: &PlanResult| r.columns[3].f64s()[g];
            assert!(close(charge(&d), charge(&u)));
            assert!(close(charge(&d), charge(&s)));
            assert_eq!(d.columns[7].u64s()[g], u.columns[7].u64s()[g]);
        }
        // Both repro variants are bit-identical to each other.
        assert_bitwise(&u, &b, "unbuffered vs buffered");
    }

    #[test]
    fn repro_backend_survives_physical_reorder() {
        let t = table();
        // Reorder the table physically (reverse) and re-run.
        let n = t.len();
        let perm: Vec<usize> = (0..n).rev().collect();
        let reordered = Lineitem::from_columns(
            perm.iter().map(|&i| t.quantity[i]).collect(),
            perm.iter().map(|&i| t.extendedprice[i]).collect(),
            perm.iter().map(|&i| t.discount[i]).collect(),
            perm.iter().map(|&i| t.tax[i]).collect(),
            perm.iter().map(|&i| t.shipdate[i]).collect(),
            perm.iter().map(|&i| t.returnflag[i]).collect(),
            perm.iter().map(|&i| t.linestatus[i]).collect(),
            perm.iter().map(|&i| t.suppkey[i]).collect(),
        );
        // The repro backends and the sorted baseline are reproducible.
        for backend in [SumBackend::ReproUnbuffered, SumBackend::SortedDouble] {
            let a = run_q1(&t, backend, &ExecOptions::serial());
            let b = run_q1(&reordered, backend, &ExecOptions::serial());
            assert_bitwise(&a, &b, &format!("{backend:?}"));
        }
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_serial_for_every_backend() {
        // Plain doubles scan serially at any thread count; repro and sorted
        // states merge exactly.
        let t = table();
        for backend in ALL_BACKENDS {
            let serial = run_q1(&t, backend, &ExecOptions::serial());
            let parallel = run_q1(&t, backend, &ExecOptions::parallel());
            assert_bitwise(&serial, &parallel, &format!("{backend:?}"));
        }
    }

    /// Q1 over the compressed table layouts — dictionary everywhere, and
    /// RLE group keys after clustering by the group pair — is
    /// bit-identical to the plain layout for every backend and thread
    /// count, and the encodings genuinely engage (the group columns are
    /// stored encoded, not silently decoded).
    #[test]
    fn q1_over_encoded_tables_is_bit_identical_to_plain() {
        let t = table();
        let plain = lineitem_table(&t);
        let dict = lineitem_table_encoded(&t);
        let sorted = t.sorted_by_q1_group();
        let rle = lineitem_table_encoded(&sorted);

        // The unsorted twin dictionary-encodes the flags; the clustered
        // twin stores them as a handful of runs.
        assert!(matches!(
            dict.column("l_returnflag").unwrap(),
            Column::Dict { .. }
        ));
        assert!(matches!(
            rle.column("l_returnflag").unwrap(),
            Column::Rle { .. }
        ));
        assert!(matches!(
            rle.column("l_linestatus").unwrap(),
            Column::Rle { .. }
        ));
        assert!(matches!(
            dict.column("l_quantity").unwrap(),
            Column::Dict { .. }
        ));
        // The auto-encoder widens to u16 codes where 256 entries don't
        // fit (the 10 000-supplier key) and leaves near-unique columns
        // plain (a dictionary over l_extendedprice would outgrow it).
        assert_eq!(
            dict.column("l_suppkey").unwrap().storage_name(),
            "Dict16<I32>"
        );
        assert_eq!(
            dict.column("l_extendedprice").unwrap().storage_name(),
            "F64"
        );

        let plan = q1_plan();
        let sorted_plain = lineitem_table(&sorted);
        for backend in [
            SumBackend::Double,
            SumBackend::SortedDouble,
            SumBackend::ReproUnbuffered,
            SumBackend::Rsum { levels: 2 },
        ] {
            for threads in [1usize, 4] {
                let opts = ExecOptions {
                    threads,
                    ..ExecOptions::default()
                };
                let want = plan.execute(&plain, backend, &opts).unwrap();
                let got = plan.execute(&dict, backend, &opts).unwrap();
                assert_bitwise(&want, &got, &format!("{backend:?} t{threads} dict"));
                // The clustered RLE twin must match a plain table in the
                // same (sorted) physical order.
                let want = plan.execute(&sorted_plain, backend, &opts).unwrap();
                let got = plan.execute(&rle, backend, &opts).unwrap();
                assert_bitwise(&want, &got, &format!("{backend:?} t{threads} rle"));
            }
        }
    }

    #[test]
    fn averages_are_consistent() {
        let r = run_q1(
            &table(),
            SumBackend::ReproUnbuffered,
            &ExecOptions::serial(),
        );
        for g in 0..r.keys.len() {
            let (sum_qty, avg_qty) = (r.columns[0].f64s()[g], r.columns[4].f64s()[g]);
            let count = r.columns[7].u64s()[g];
            assert!((avg_qty - sum_qty / count as f64).abs() < 1e-12);
            assert!((1.0..=50.0).contains(&avg_qty));
            assert!((0.0..=0.10).contains(&r.columns[6].f64s()[g]));
        }
    }
}
