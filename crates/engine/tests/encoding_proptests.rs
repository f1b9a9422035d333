//! Property tests of the compressed-column scan paths: for arbitrary
//! (values, encoding) pairs, encode → decode must round-trip **exactly**
//! (same storage bits), and Q1/Q6/Q15-shaped plans over Dict/Dict16/Rle
//! columns must be bit-identical to the same plans over plain columns —
//! across every backend, thread count, and batch/morsel shape.
//!
//! Why bit-identity holds: dictionary pushdown evaluates the predicate
//! once per dictionary *entry* over the same f64/i32 bits a plain scan
//! would load per row, and the aggregate legs are *algebraic* — an RLE
//! run deposits once as an exact k·v product split, a dictionary batch
//! accumulates per-(group, code) counts and flushes each touched entry
//! once — transforms proven bit-transparent to the per-row order for
//! every backend whose merge is exact (`Double` keeps the per-row path
//! and is covered here too).

mod oracle;

use oracle::{force_pool, shapes, BACKENDS};
use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::{
    lineitem_table, lineitem_table_encoded, q15_plan, q1_plan, q6_plan, AggColumn, Column,
    PlanResult, QueryPlan, Table,
};
use rfa_workloads::Lineitem;

/// Lineitem rows with deliberately small domains (quantities and dates
/// from a few dozen values) so dictionary encoding always applies and
/// sorted orders produce long runs.
fn lineitem_strategy(max_rows: usize) -> impl Strategy<Value = Lineitem> {
    let row = (
        (0u8..50).prop_map(|q| q as f64 + 0.5), // quantity: 50 distinct
        (-1.0e5..1.0e5f64),                     // extendedprice: plain
        (0u8..11).prop_map(|d| d as f64 / 100.0), // discount: 11 distinct
        (0u8..9).prop_map(|t| t as f64 / 100.0), // tax: 9 distinct
        (700i32..1200),                         // shipdate straddles the Q6 window
        (0u8..3),                               // returnflag index
        (0u8..2),                               // linestatus index
        (1i32..20),                             // suppkey
    );
    vec(row, 0..max_rows).prop_map(|rows| {
        let n = rows.len();
        let mut quantity = Vec::with_capacity(n);
        let mut extendedprice = Vec::with_capacity(n);
        let mut discount = Vec::with_capacity(n);
        let mut tax = Vec::with_capacity(n);
        let mut shipdate = Vec::with_capacity(n);
        let mut returnflag = Vec::with_capacity(n);
        let mut linestatus = Vec::with_capacity(n);
        let mut suppkey = Vec::with_capacity(n);
        for (q, p, d, t, s, rf, ls, sk) in rows {
            quantity.push(q);
            extendedprice.push(p);
            discount.push(d);
            tax.push(t);
            shipdate.push(s);
            returnflag.push([b'A', b'N', b'R'][rf as usize]);
            linestatus.push([b'F', b'O'][ls as usize]);
            suppkey.push(sk);
        }
        Lineitem::from_columns(
            quantity,
            extendedprice,
            discount,
            tax,
            shipdate,
            returnflag,
            linestatus,
            suppkey,
        )
    })
}

/// Bitwise storage equality: f64 payloads compared as raw bits so that
/// `-0.0` vs `0.0` or NaN payload drift would fail the round-trip.
fn assert_columns_bitwise(a: &Column, b: &Column) {
    match (a, b) {
        (Column::F64(x), Column::F64(y)) => {
            prop_assert_eq!(x.len(), y.len());
            for (u, v) in x.iter().zip(y.iter()) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        (Column::I32(x), Column::I32(y)) => prop_assert_eq!(x, y),
        (Column::U32(x), Column::U32(y)) => prop_assert_eq!(x, y),
        (Column::U8(x), Column::U8(y)) => prop_assert_eq!(x, y),
        (x, y) => prop_assert!(false, "storage kind mismatch: {:?} vs {:?}", x, y),
    }
}

fn assert_results_bitwise(a: &PlanResult, b: &PlanResult, ctx: &str) {
    prop_assert_eq!(&a.keys, &b.keys, "{}", ctx);
    prop_assert_eq!(a.columns.len(), b.columns.len(), "{}", ctx);
    for (c, cols) in a.columns.iter().zip(&b.columns).enumerate() {
        match cols {
            (AggColumn::F64(x), AggColumn::F64(y)) => {
                prop_assert_eq!(x.len(), y.len(), "{} column {}", ctx, c);
                for (u, v) in x.iter().zip(y.iter()) {
                    prop_assert_eq!(u.to_bits(), v.to_bits(), "{} column {}", ctx, c);
                }
            }
            (AggColumn::U64(x), AggColumn::U64(y)) => {
                prop_assert_eq!(x, y, "{} column {}", ctx, c)
            }
            _ => prop_assert!(false, "{} column {}: kind mismatch", ctx, c),
        }
    }
}

/// Re-encodes each column of a plain lineitem table per the chosen
/// per-column encoding (0 = plain, 1 = dict, 2 = rle, 3 = dict16 with
/// codes force-widened to u16), falling back to plain when the encoding
/// does not apply (e.g. >65536 distinct values).
fn encoded_twin(plain: &Table, choices: &[u8]) -> Table {
    let names = [
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_shipdate",
        "l_returnflag",
        "l_linestatus",
        "l_suppkey",
    ];
    let mut table = Table::new("lineitem");
    for (i, name) in names.iter().enumerate() {
        let col = plain.column(name).expect("lineitem column").clone();
        let col = match choices[i % choices.len()] % 4 {
            1 => col.dict_encode().unwrap_or(col),
            2 => col.rle_encode().unwrap_or(col),
            // `dict_encode` only emits u16 codes past 256 entries; widen
            // small dictionaries by hand so Dict16 scan paths see the
            // same tiny domains as Dict.
            3 => match col.dict_encode() {
                Ok(Column::Dict { codes, dict }) => {
                    let wide: Vec<u16> = codes.iter().map(|&c| c as u16).collect();
                    Column::dict16(wide, *dict).expect("widened codes stay valid")
                }
                Ok(other) => other,
                Err(_) => col,
            },
            _ => col,
        };
        table.add_column(*name, col).expect("fresh table");
    }
    table
}

fn check_plans_over(plain: &Table, encoded: &Table, ctx: &str) {
    for (plan, which) in [(q1_plan(), "q1"), (q6_plan(), "q6"), (q15_plan(), "q15")] {
        let plan: QueryPlan = plan;
        for backend in BACKENDS {
            for opts in shapes() {
                let want = plan.execute(plain, backend, &opts).unwrap();
                let got = plan.execute(encoded, backend, &opts).unwrap();
                assert_results_bitwise(
                    &want,
                    &got,
                    &format!("{ctx} {which} {backend:?} t{}", opts.threads),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode is the exact identity on the stored bits, for
    /// every (values, encoding) pair where the encoding applies.
    #[test]
    fn encode_decode_round_trips_exactly(
        f64s in vec((0u8..40).prop_map(|v| (v as f64 - 7.0) * 0.25), 0..300),
        i32s in vec(-50i32..50, 0..300),
        u8s in vec(0u8..6, 0..300),
        pick_rle in any::<bool>(),
    ) {
        let cols = [Column::f64(f64s), Column::i32(i32s), Column::u8(u8s)];
        for col in cols {
            let encoded = if pick_rle { col.rle_encode() } else { col.dict_encode() };
            let encoded = encoded.expect("small domains always encode");
            prop_assert!(encoded.validate_encoding().is_ok());
            prop_assert_eq!(encoded.len(), col.len());
            assert_columns_bitwise(&encoded.decode(), &col);
        }
    }

    /// Q1/Q6/Q15 plans over per-column (dict | dict16 | rle | plain)
    /// storage choices produce bitwise the results of the all-plain
    /// table, for every fused backend × thread count × batch/morsel
    /// shape.
    #[test]
    fn plans_over_random_encodings_match_plain_bitwise(
        t in lineitem_strategy(400),
        choices in vec(0u8..4, 8..9),
    ) {
        force_pool();
        let plain = lineitem_table(&t);
        let encoded = encoded_twin(&plain, &choices);
        check_plans_over(&plain, &encoded, "random");
    }

    /// The production encoding policy (`lineitem_table_encoded`) over
    /// clustered physical orders — where RLE genuinely engages on the
    /// group keys and the shipdate band — is also bit-identical.
    #[test]
    fn plans_over_policy_encodings_match_plain_bitwise(t in lineitem_strategy(400)) {
        force_pool();
        for ordered in [t.sorted_by_q1_group(), t.sorted_by_shipdate()] {
            let plain = lineitem_table(&ordered);
            let encoded = lineitem_table_encoded(&ordered);
            check_plans_over(&plain, &encoded, "policy");
        }
    }
}
