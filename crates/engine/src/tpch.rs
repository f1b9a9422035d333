//! The TPC-H queries of the evaluation as plans and as pinned SQL texts,
//! over a zero-copy table view of the workload's `lineitem` columns.
//!
//! * **Q1** (paper §VI-E, Table IV) — four SUMs, three AVGs and a COUNT
//!   over the `(l_returnflag, l_linestatus)` pair at ~98% selectivity:
//!   grouped aggregation over a handful of groups.
//! * **Q6** — one un-grouped SUM over a ~2% selective predicate: the
//!   single-accumulator path (the §III summation kernel), whose result is
//!   a *single* float — the sharpest demonstration of run-to-run flips.
//! * **Q15's revenue view** — revenue SUM and COUNT grouped by
//!   `l_suppkey`, whose 10 000 values take the executor's hash arm.
//!
//! Each query is a [`QueryPlan`] (`q*_plan`) and a SQL text (`q*_sql`)
//! that lowers to the same fused query, so both give the same bits for
//! every backend, thread count and batch shape. Dates are stored as days
//! since 1992-01-01, and the SQL texts inline them as day numbers.

use crate::column::{Column, EncodePolicy, Table};
use crate::expr::Expr;
use crate::plan::QueryPlan;
use rfa_workloads::tpch::{Lineitem, Q1_SHIPDATE_CUTOFF};

/// Q6 date window in days since 1992-01-01: [1994-01-01, 1995-01-01).
pub const Q6_DATE_LO: i32 = 2 * 365;
pub const Q6_DATE_HI: i32 = 3 * 365;

/// Q15 revenue window in days since 1992-01-01: [1996-01-01, +3 months).
pub const Q15_DATE_LO: i32 = 4 * 365;
pub const Q15_DATE_HI: i32 = 4 * 365 + 90;

/// Dense Q1 group ids: 3 returnflags × 2 linestatuses.
const Q1_GROUPS: usize = 6;

/// Builds a zero-copy engine [`Table`] view of all lineitem columns the
/// TPC-H queries touch: each column is an `Arc` clone of the workload's
/// storage — a refcount bump, not a data copy.
pub fn lineitem_table(t: &Lineitem) -> Table {
    let mut table = Table::new("lineitem");
    for (name, column) in [
        ("l_quantity", Column::F64(t.quantity.clone())),
        ("l_extendedprice", Column::F64(t.extendedprice.clone())),
        ("l_discount", Column::F64(t.discount.clone())),
        ("l_tax", Column::F64(t.tax.clone())),
        ("l_shipdate", Column::I32(t.shipdate.clone())),
        ("l_returnflag", Column::U8(t.returnflag.clone())),
        ("l_linestatus", Column::U8(t.linestatus.clone())),
        ("l_suppkey", Column::I32(t.suppkey.clone())),
    ] {
        table.add_column(name, column).expect("fresh table");
    }
    table
}

/// The compressed twin of [`lineitem_table`]: every low-cardinality
/// column is stored encoded, and the fused executor reads the encodings
/// directly (predicates evaluate once per dictionary entry or run,
/// RLE group keys assign ids per run) — results are bit-identical to the
/// plain layout.
///
/// Per column, [`Table::encode_auto`] chooses the best encoding *for the
/// table's current physical order*: RLE when the layout gives the column
/// long runs (at most one run per 4 rows — e.g. the flag pair after
/// [`Lineitem::sorted_by_q1_group`], or `l_shipdate` after
/// [`Lineitem::sorted_by_shipdate`]), else a dictionary when it pays —
/// u8 codes for ≤256 distinct values (`l_quantity` has 50, `l_discount`
/// 11, `l_tax` 9, the flags 3 and 2), u16 codes up to 65 536
/// (`l_suppkey` spans the 10 000-supplier domain) — else plain
/// (`l_extendedprice` is near-unique: a dictionary would cost more than
/// the codes save).
pub fn lineitem_table_encoded(t: &Lineitem) -> Table {
    let mut table = lineitem_table(t);
    table.encode_auto(EncodePolicy::default());
    table
}

/// The Q1 logical plan: one filter conjunct and the eight TPC-H output
/// aggregates in SQL order, grouped by the dictionary-encoded flag pair
/// ([`Lineitem::encode_group`]). Lowering shares SUM states between the
/// SUM and AVG calls, so exactly five SUM state arrays run.
pub fn q1_plan() -> QueryPlan {
    let disc_price =
        || Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount")));
    QueryPlan::scan("lineitem")
        .filter(Expr::col("l_shipdate").le(Expr::lit(Q1_SHIPDATE_CUTOFF as f64)))
        .group_by_dense(
            "l_returnflag",
            "l_linestatus",
            Lineitem::encode_group,
            Q1_GROUPS,
        )
        .sum(Expr::col("l_quantity"))
        .sum(Expr::col("l_extendedprice"))
        .sum(disc_price())
        .sum(disc_price().mul(Expr::lit(1.0).add(Expr::col("l_tax"))))
        .avg(Expr::col("l_quantity"))
        .avg(Expr::col("l_extendedprice"))
        .avg(Expr::col("l_discount"))
        .count()
}

/// The pinned Q1 SQL text. It groups through the hash-pair arm rather
/// than [`q1_plan`]'s dense encoding, but every group receives the
/// identical value sequence and both output orders ascend by
/// `(l_returnflag, l_linestatus)`, so the results are bit-identical.
pub fn q1_sql() -> String {
    format!(
        "SELECT l_returnflag, l_linestatus, \
         SUM(l_quantity), SUM(l_extendedprice), \
         SUM(l_extendedprice * (1 - l_discount)), \
         SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
         AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) \
         FROM lineitem \
         WHERE l_shipdate <= {Q1_SHIPDATE_CUTOFF} \
         GROUP BY l_returnflag, l_linestatus"
    )
}

/// The Q6 logical plan: three filter conjuncts in the SQL's order, one
/// un-grouped SUM of `l_extendedprice * l_discount`.
pub fn q6_plan() -> QueryPlan {
    QueryPlan::scan("lineitem")
        .filter(Expr::col("l_shipdate").ge(Expr::lit(Q6_DATE_LO as f64)))
        .filter(Expr::col("l_shipdate").lt(Expr::lit(Q6_DATE_HI as f64)))
        .filter(Expr::col("l_discount").between(Expr::lit(0.05), Expr::lit(0.07)))
        .filter(Expr::col("l_quantity").lt(Expr::lit(24.0)))
        .sum(Expr::col("l_extendedprice").mul(Expr::col("l_discount")))
}

/// The pinned Q6 SQL text: it lowers to the identical fused query as
/// [`q6_plan`].
pub fn q6_sql() -> String {
    format!(
        "SELECT SUM(l_extendedprice * l_discount) \
         FROM lineitem \
         WHERE l_shipdate >= {Q6_DATE_LO} AND l_shipdate < {Q6_DATE_HI} \
         AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
    )
}

/// The Q15 revenue-view plan: one date-range conjunct, revenue SUM and
/// COUNT grouped by `l_suppkey` through the hash arm with the paper's
/// identity hashing (suppkeys are a dense domain, §VI-A). Output rows
/// ascend by supplier key regardless of scan order.
pub fn q15_plan() -> QueryPlan {
    QueryPlan::scan("lineitem")
        .filter(Expr::col("l_shipdate").ge(Expr::lit(Q15_DATE_LO as f64)))
        .filter(Expr::col("l_shipdate").lt(Expr::lit(Q15_DATE_HI as f64)))
        .group_by_key("l_suppkey")
        .sum(Expr::col("l_extendedprice").mul(Expr::lit(1.0).sub(Expr::col("l_discount"))))
        .count()
}

/// The pinned Q15 revenue-view SQL text: it lowers to the identical fused
/// query as [`q15_plan`].
pub fn q15_sql() -> String {
    format!(
        "SELECT l_suppkey, \
         SUM(l_extendedprice * (1 - l_discount)), COUNT(*) \
         FROM lineitem \
         WHERE l_shipdate >= {Q15_DATE_LO} AND l_shipdate < {Q15_DATE_HI} \
         GROUP BY l_suppkey"
    )
}
