//! Property tests of the plan layer: plans built through the *public*
//! [`QueryPlan`] builder must be bit-identical to the row-at-a-time
//! reference interpreter ([`oracle`]), and hash-keyed grouping must be
//! bit-identical to dense-keyed grouping on key domains small enough to
//! run both — for all six backends.
//!
//! The plans are constructed via the builder API, so the lowering itself
//! (SUM-state sharing for AVG, COUNT wiring, group-key routing) is under
//! test: the oracle interprets each aggregate call on its own.

mod oracle;

use oracle::{assert_matches, evaluate, force_pool, lineitem_strategy, shapes, BACKENDS};
use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::plan::QueryPlan;
use rfa_engine::{lineitem_table, q1_plan, q6_plan, AggColumn, Column, Expr, Table};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Builder-constructed Q1 plan == oracle, bitwise, for every backend
    /// × thread count × batch/morsel shape — including the
    /// engine-finalized AVG and COUNT columns.
    #[test]
    fn q1_plan_matches_oracle_bitwise(t in lineitem_strategy(600)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            let want = evaluate(&q1_plan(), &table, backend).unwrap();
            for opts in shapes() {
                let got = q1_plan().execute(&table, backend, &opts).unwrap();
                assert_matches(&got, &want, &format!("{backend:?} {opts:?}"));
            }
        }
    }

    /// Builder-constructed Q6 plan == oracle, bitwise.
    #[test]
    fn q6_plan_matches_oracle_bitwise(t in lineitem_strategy(800)) {
        force_pool();
        let table = lineitem_table(&t);
        for backend in BACKENDS {
            let want = evaluate(&q6_plan(), &table, backend).unwrap();
            for opts in shapes() {
                let got = q6_plan().execute(&table, backend, &opts).unwrap();
                assert_matches(&got, &want, &format!("{backend:?} {opts:?}"));
            }
        }
    }

    /// Hash-keyed grouping == dense-keyed grouping, bitwise, on a key
    /// domain small enough to run both: the same rows grouped (a) densely
    /// via a U8 pair encoding and (b) through the hash arm on an I32
    /// column holding the identical group value.
    #[test]
    fn hash_grouping_matches_dense_grouping_bitwise(
        rows in vec(((0u8..3), (0u8..4), (-1.0e4..1.0e4f64)), 0..500)
    ) {
        force_pool();
        fn encode(a: u8, b: u8) -> u32 {
            (a as u32) * 4 + (b as u32)
        }
        let mut table = Table::new("t");
        table
            .add_column("ka", Column::u8(rows.iter().map(|r| r.0).collect::<Vec<_>>()))
            .unwrap();
        table
            .add_column("kb", Column::u8(rows.iter().map(|r| r.1).collect::<Vec<_>>()))
            .unwrap();
        table
            .add_column(
                "key",
                Column::i32(
                    rows.iter()
                        .map(|r| encode(r.0, r.1) as i32)
                        .collect::<Vec<_>>(),
                ),
            )
            .unwrap();
        table
            .add_column("v", Column::f64(rows.iter().map(|r| r.2).collect::<Vec<_>>()))
            .unwrap();

        let aggs = |p: QueryPlan| {
            p.sum(Expr::col("v"))
                .count()
                .avg(Expr::col("v"))
                .min(Expr::col("v"))
                .max(Expr::col("v"))
        };
        let dense = aggs(QueryPlan::scan("t").group_by_dense("ka", "kb", encode, 12));
        let hashed = aggs(QueryPlan::scan("t").group_by_key("key"));
        for backend in BACKENDS {
            for opts in shapes() {
                let d = dense.execute(&table, backend, &opts).unwrap();
                let h = hashed.execute(&table, backend, &opts).unwrap();
                // Dense ids equal the key values, so the sorted outputs
                // must line up row for row, column for column.
                prop_assert_eq!(&d.keys, &h.keys, "{:?} {:?}", backend, opts);
                for (c, (dc, hc)) in d.columns.iter().zip(&h.columns).enumerate() {
                    match (dc, hc) {
                        (AggColumn::F64(x), AggColumn::F64(y)) => {
                            for (a, b) in x.iter().zip(y) {
                                prop_assert_eq!(
                                    a.to_bits(), b.to_bits(),
                                    "col {} {:?} {:?}", c, backend, opts
                                );
                            }
                        }
                        (AggColumn::U64(x), AggColumn::U64(y)) => {
                            prop_assert_eq!(x, y, "col {} {:?} {:?}", c, backend, opts)
                        }
                        _ => prop_assert!(false, "column kind mismatch"),
                    }
                }
            }
        }
    }
}
