//! The test oracle: a row-at-a-time reference interpreter of
//! [`QueryPlan`]s, plus the shared lineitem inputs and execution shapes
//! the property suites feed it.
//!
//! The interpreter shares nothing with the fused executor's physical
//! choices. It reads the plan's public fields, decodes every column,
//! filters with the general [`BoolExpr::eval`] mask program, evaluates
//! aggregate inputs with [`Expr::eval`], and deposits one row at a time,
//! in row order, into [`GroupedStates`]. Every backend's state is thus
//! fed the row-order sequence of its group's values, which is the
//! sequence the fused executor must reproduce bit for bit (plain doubles
//! included: they always scan serially). Output rows follow the plan's
//! order: ascending group key, one row for an un-grouped plan.
//!
//! Each SUM/AVG group also keeps an [`ExactSum`], so accuracy tests can
//! compare any backend with the exactly rounded sum.
#![allow(dead_code)] // each test binary uses a different subset

use proptest::collection::vec;
use proptest::prelude::*;
use rfa_engine::{
    AggCall, AggColumn, BoolExpr, Column, ExecOptions, Expr, GroupKey, GroupedStates, PlanError,
    PlanResult, QueryPlan, SumBackend, Table,
};
use rfa_exact::ExactSum;
use rfa_workloads::Lineitem;
use std::collections::BTreeMap;

/// Exact reference data of one SUM/AVG group.
#[derive(Clone, Default)]
pub struct Exact {
    acc: ExactSum,
    pub n: usize,
    pub max_abs: f64,
    pub sum_abs: f64,
}

impl Exact {
    fn add(&mut self, v: f64) {
        self.acc.add(v);
        self.n += 1;
        self.max_abs = self.max_abs.max(v.abs());
        self.sum_abs += v.abs();
    }

    /// The exactly rounded sum of the group's inputs.
    pub fn sum(&self) -> f64 {
        self.acc.round_f64()
    }
}

/// The oracle's answer to a plan: the same shape as a [`PlanResult`],
/// plus `exact[a][row]` for every SUM/AVG column `a`.
pub struct Oracle {
    pub keys: Vec<i64>,
    pub columns: Vec<AggColumn>,
    pub exact: Vec<Option<Vec<Exact>>>,
}

/// Evaluates `plan` over `table` row at a time on `backend`.
pub fn evaluate(plan: &QueryPlan, table: &Table, backend: SumBackend) -> Result<Oracle, PlanError> {
    let mut plain = Table::new(table.name.clone());
    for name in table.column_names() {
        plain.add_column(name, table.column(name)?.decode())?;
    }
    let all: Vec<u32> = (0..plain.rows() as u32).collect();
    let masks: Vec<Vec<bool>> = plan
        .filter
        .iter()
        .map(|p| BoolExpr::eval(p, &plain, &all))
        .collect::<Result<_, _>>()?;
    let sel: Vec<u32> = all
        .into_iter()
        .filter(|&i| masks.iter().all(|m| m[i as usize]))
        .collect();
    let inputs: Vec<Option<Vec<f64>>> = plan
        .aggs
        .iter()
        .map(|call| match call {
            AggCall::Count => Ok(None),
            AggCall::Sum(e) | AggCall::Avg(e) | AggCall::Min(e) | AggCall::Max(e) => {
                Expr::eval(e, &plain, &sel).map(Some)
            }
        })
        .collect::<Result<_, _>>()?;

    // Group slots in first-seen order; an un-grouped plan has one row
    // even over no input.
    let mut slots: BTreeMap<i64, usize> = BTreeMap::new();
    if matches!(plan.group_by, GroupKey::None) {
        slots.insert(0, 0);
    }
    let aggs = plan.aggs.len();
    let mut states = GroupedStates::new(backend, slots.len(), aggs, aggs, aggs);
    let mut exact: Vec<Vec<Exact>> = vec![Vec::new(); aggs];
    for (r, &row) in sel.iter().enumerate() {
        let key = group_key(&plain, &plan.group_by, row as usize);
        let next = slots.len();
        let g = *slots.entry(key).or_insert(next);
        states.ensure_groups(g + 1);
        states.add_counts(&[g as u32]);
        for (a, call) in plan.aggs.iter().enumerate() {
            let Some(v) = inputs[a].as_ref().map(|vals| vals[r]) else {
                continue;
            };
            match call {
                AggCall::Sum(_) | AggCall::Avg(_) => {
                    states.update_sum(a, &[g as u32], &[v])?;
                    let groups = &mut exact[a];
                    if groups.len() <= g {
                        groups.resize_with(g + 1, Exact::default);
                    }
                    groups[g].add(v);
                }
                AggCall::Min(_) => states.update_min(a, &[g as u32], &[v]),
                AggCall::Max(_) => states.update_max(a, &[g as u32], &[v]),
                AggCall::Count => {}
            }
        }
    }

    let out = states.finalize()?;
    let order: Vec<(i64, usize)> = slots.into_iter().collect();
    let pick = |v: &[f64]| -> Vec<f64> { order.iter().map(|&(_, g)| v[g]).collect() };
    let columns = plan
        .aggs
        .iter()
        .enumerate()
        .map(|(a, call)| match call {
            AggCall::Sum(_) => AggColumn::F64(pick(&out.sums[a])),
            AggCall::Avg(_) => AggColumn::F64(
                order
                    .iter()
                    .map(|&(_, g)| out.sums[a][g] / out.counts[g] as f64)
                    .collect(),
            ),
            AggCall::Min(_) => AggColumn::F64(pick(&out.mins[a])),
            AggCall::Max(_) => AggColumn::F64(pick(&out.maxs[a])),
            AggCall::Count => AggColumn::U64(order.iter().map(|&(_, g)| out.counts[g]).collect()),
        })
        .collect();
    let exact = plan
        .aggs
        .iter()
        .zip(exact)
        .map(|(call, mut groups)| {
            groups.resize_with(order.len(), Exact::default);
            matches!(call, AggCall::Sum(_) | AggCall::Avg(_))
                .then(|| order.iter().map(|&(_, g)| groups[g].clone()).collect())
        })
        .collect();
    Ok(Oracle {
        keys: order.into_iter().map(|(k, _)| k).collect(),
        columns,
        exact,
    })
}

/// The output key of row `i`: what [`PlanResult::keys`] reports.
fn group_key(t: &Table, key: &GroupKey, i: usize) -> i64 {
    let u8_at = |c: &str| t.column(c).unwrap().as_u8()[i];
    match key {
        GroupKey::None => 0,
        GroupKey::Dense { spec, .. } => {
            (spec.encode)(u8_at(spec.a.as_str()), u8_at(spec.b.as_str())) as i64
        }
        GroupKey::Hash { col, .. } => match t.column(col.as_str()).unwrap() {
            Column::I32(v) => v[i] as i64,
            Column::U32(v) => v[i] as i64,
            Column::U8(v) => v[i] as i64,
            other => panic!("hash key over {}", other.type_name()),
        },
        GroupKey::HashPair { a, b, .. } => {
            ((u8_at(a.as_str()) as i64) << 8) | u8_at(b.as_str()) as i64
        }
    }
}

/// Asserts `got` holds the oracle's keys and, bit for bit, its columns.
pub fn assert_matches(got: &PlanResult, want: &Oracle, ctx: &str) {
    assert_eq!(got.keys, want.keys, "{ctx}: keys");
    assert_eq!(got.columns.len(), want.columns.len(), "{ctx}: columns");
    for (c, pair) in got.columns.iter().zip(&want.columns).enumerate() {
        match pair {
            (AggColumn::F64(x), AggColumn::F64(y)) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "{ctx}: column {c}");
            }
            (AggColumn::U64(x), AggColumn::U64(y)) => assert_eq!(x, y, "{ctx}: column {c}"),
            _ => panic!("{ctx}: column {c} kind mismatch"),
        }
    }
}

/// All six SUM backends: Table IV's columns plus the §V-D RSUM forms.
pub const BACKENDS: [SumBackend; 6] = [
    SumBackend::Double,
    SumBackend::ReproUnbuffered,
    SumBackend::ReproBuffered { buffer_size: 64 },
    SumBackend::SortedDouble,
    SumBackend::Rsum { levels: 2 },
    SumBackend::RsumBuffered {
        levels: 3,
        buffer_size: 48,
    },
];

/// Requests an 8-worker pool so the parallel paths genuinely run
/// multi-threaded even on small CI boxes (a pinned `RFA_THREADS` still
/// takes precedence inside the builder).
pub fn force_pool() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build_global();
}

/// Small batch/morsel shapes force many batches per morsel and many
/// morsels per input even at proptest input sizes, so the 2- and 8-thread
/// runs exercise real splits and merges.
pub fn shapes() -> [ExecOptions; 4] {
    let shape = |threads, batch_rows, morsel_rows| ExecOptions {
        threads,
        batch_rows,
        morsel_rows,
        ..ExecOptions::default()
    };
    [
        shape(1, 32, 1 << 16),
        shape(1, 4096, 1 << 16),
        shape(2, 64, 192),
        shape(8, 17, 96),
    ]
}

/// Arbitrary lineitem rows: quantities, prices, discounts and taxes over
/// (and beyond) the dbgen ranges, shipdates straddling the Q6 window, the
/// Q15 window and the Q1 cutoff, all six flag/status combinations, and a
/// small supplier domain so every key repeats.
pub fn lineitem_strategy(max_rows: usize) -> impl Strategy<Value = Lineitem> {
    let row = (
        (0.0..60.0f64),     // quantity (crosses the Q6 < 24 predicate)
        (-1.0e5..1.0e5f64), // extendedprice (signs exercise cancellation)
        (0.0..0.12f64),     // discount (crosses the 0.05..=0.07 window)
        (0.0..0.09f64),     // tax
        (600i32..2600),     // shipdate: Q6 [730, 1095), Q15 [1460, 1550), Q1 cutoff 2437
        (0u8..3),           // returnflag index -> 'A' | 'N' | 'R'
        (0u8..2),           // linestatus index -> 'F' | 'O'
        (1i32..40),         // suppkey
    );
    vec(row, 0..max_rows).prop_map(|rows| {
        Lineitem::from_columns(
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| r.1).collect(),
            rows.iter().map(|r| r.2).collect(),
            rows.iter().map(|r| r.3).collect(),
            rows.iter().map(|r| r.4).collect(),
            rows.iter()
                .map(|r| [b'A', b'N', b'R'][r.5 as usize])
                .collect(),
            rows.iter().map(|r| [b'F', b'O'][r.6 as usize]).collect(),
            rows.iter().map(|r| r.7).collect(),
        )
    })
}
