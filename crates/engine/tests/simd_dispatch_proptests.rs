//! Forced-dispatch bit-identity tests at the *query* level: the whole
//! scan pipeline — AVX2 selection-vector build, mask compaction and the
//! AVX2 repro summation kernel — must produce results bit-identical to
//! the scalar paths, for every query, backend and thread shape.
//!
//! `RFA_SIMD` flips the dispatch level process-wide; these tests flip it
//! programmatically via [`rfa_core::cpu::set_override`] (serialized by a
//! local mutex — the engine's own parallel workers are fine because all
//! levels are bit-identical, which is exactly what is being asserted).
//! On hardware without AVX2 / AVX-512F the corresponding forced leg is
//! skipped and the tests reduce to scalar self-consistency.

mod oracle;

use oracle::{force_pool, lineitem_strategy, shapes, BACKENDS};
use proptest::collection::vec;
use proptest::prelude::*;
use rfa_agg::HashKind;
use rfa_core::cpu::{self, SimdLevel};
use rfa_engine::{
    lineitem_table, q15_plan, q1_plan, q6_plan, AggColumn, BoolExpr, Column, EvalScratch,
    ExecOptions, Expr, PlanResult, QueryPlan, SumBackend, Table,
};
use rfa_workloads::Lineitem;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the process-global dispatch override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_guard() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under a forced dispatch level, restoring auto afterwards.
fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    let _guard = override_guard();
    cpu::set_override(Some(level));
    let r = f();
    cpu::set_override(None);
    r
}

/// Runs `f` under forced scalar, then forced AVX2 and AVX-512 (where
/// supported), and asserts every level equals scalar.
fn both_levels<R: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> R) -> R {
    let scalar = with_level(SimdLevel::Scalar, &mut f);
    if cpu::avx2_supported() {
        let avx2 = with_level(SimdLevel::Avx2, &mut f);
        assert_eq!(scalar, avx2, "scalar and AVX2 pipelines disagree");
    }
    if cpu::avx512_supported() {
        let avx512 = with_level(SimdLevel::Avx512, &mut f);
        assert_eq!(scalar, avx512, "scalar and AVX-512 pipelines disagree");
    }
    scalar
}

/// A plan result as comparable bit patterns: keys, then every aggregate
/// column.
fn result_bits(r: PlanResult) -> (Vec<i64>, Vec<Vec<u64>>) {
    let cols = r
        .columns
        .iter()
        .map(|c| match c {
            AggColumn::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            AggColumn::U64(v) => v.clone(),
        })
        .collect();
    (r.keys, cols)
}

/// A TPC-H plan's result over `t` as comparable bit patterns.
fn tpch_bits(
    plan: &QueryPlan,
    t: &Lineitem,
    backend: SumBackend,
    opts: &ExecOptions,
) -> (Vec<i64>, Vec<Vec<u64>>) {
    result_bits(plan.execute(&lineitem_table(t), backend, opts).unwrap())
}

/// A hash-grouped plan's full result (keys, then every aggregate column
/// as bit patterns) — the comparable unit for the probe-kernel matrix.
fn hash_group_bits(
    t: &Table,
    key_col: &str,
    hash: HashKind,
    backend: SumBackend,
    opts: &ExecOptions,
) -> (Vec<i64>, Vec<Vec<u64>>) {
    let r = QueryPlan::scan("t")
        .group_by_key_with(key_col, hash)
        .sum(Expr::col("v"))
        .count()
        .execute(t, backend, opts)
        .unwrap();
    result_bits(r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SIMD batched probe + gid-cache front-end (`GroupKey::Hash`):
    /// every key distribution the probe kernels specialize for —
    /// run-clustered (cache-friendly), uniform random (cache-adversarial,
    /// gate must trip harmlessly), and hash-hostile strides under both
    /// hash kinds — produces bit-identical group keys, sums and counts
    /// at every dispatch level, backend and thread shape. The Double
    /// backend's sums are order-sensitive, so this also proves per-row
    /// deposit order is level-invariant.
    #[test]
    fn hash_grouped_probe_is_dispatch_level_independent(
        rows in vec((0u32..600, -1.0e4..1.0e4f64), 0..900),
        stride in prop_oneof![Just(1u32), Just(977), Just(1 << 16)],
        run_len in 1usize..40,
    ) {
        force_pool();
        let n = rows.len();
        // Clustered stream: keys repeat in runs of `run_len` (the shape
        // the gid cache exploits), then strided to sparse domains.
        let keys: Vec<i32> = (0..n)
            .map(|i| {
                let (base, _) = rows[i / run_len.max(1) % n.max(1)];
                (base * stride) as i32
            })
            .collect();
        let values: Vec<f64> = rows.iter().map(|&(_, v)| v).collect();
        let mut t = Table::new("t");
        t.add_column("k", Column::i32(keys)).unwrap();
        t.add_column("v", Column::f64(values)).unwrap();
        for hash in [HashKind::Identity, HashKind::Multiplicative] {
            for backend in [SumBackend::Double, SumBackend::ReproBuffered { buffer_size: 64 }] {
                for opts in shapes() {
                    both_levels(|| hash_group_bits(&t, "k", hash, backend, &opts));
                }
            }
        }
    }

    /// Q1 (grouped, expression-heavy) is dispatch-level independent for
    /// every backend and thread shape.
    #[test]
    fn q1_is_dispatch_level_independent(t in lineitem_strategy(600)) {
        force_pool();
        for backend in BACKENDS {
            for opts in shapes() {
                both_levels(|| tpch_bits(&q1_plan(), &t, backend, &opts));
            }
        }
    }

    /// Q6 (selective filter + single SUM: the selection kernels' hottest
    /// consumer) and Q15 (hash-grouped) under both levels.
    #[test]
    fn q6_and_q15_are_dispatch_level_independent(t in lineitem_strategy(800)) {
        force_pool();
        for backend in BACKENDS {
            for opts in shapes() {
                both_levels(|| tpch_bits(&q6_plan(), &t, backend, &opts));
                both_levels(|| tpch_bits(&q15_plan(), &t, backend, &opts));
            }
        }
    }

    /// The selection kernels directly: fill (first conjunct) and refine
    /// (later conjuncts) over f64 and i32 columns produce the same
    /// selection vector under both levels, for every comparison operator
    /// and a BETWEEN, including NaN-laden data.
    #[test]
    fn selection_vectors_are_dispatch_level_independent(
        f64s in vec(
            prop_oneof![
                8 => -100.0..100.0f64,
                1 => Just(f64::NAN),
                1 => Just(0.0),
                1 => Just(-0.0),
            ],
            0..700,
        ),
        i32s in vec(-1000..1000i32, 0..700),
        threshold in -50.0..50.0f64,
        ithreshold in -500..500i32,
    ) {
        let n = f64s.len().min(i32s.len());
        let mut table = Table::new("t");
        table
            .add_column("x", rfa_engine::Column::f64(f64s[..n].to_vec()))
            .unwrap();
        table
            .add_column("k", rfa_engine::Column::i32(i32s[..n].to_vec()))
            .unwrap();
        // Low-cardinality dict leg: a Cmp over a Dict column compiles to
        // the code-membership fill (`fill_u8_in_set`), which has distinct
        // AVX2 and AVX-512 kernels.
        let dicted: Vec<i32> = i32s[..n].iter().map(|v| v.rem_euclid(97)).collect();
        let dicted = rfa_engine::Column::i32(dicted).dict_encode();
        if n > 0 {
            table.add_column("d", dicted.unwrap()).unwrap();
        }

        let mut preds = vec![
            BoolExpr::Cmp(rfa_engine::CmpOp::Lt, Box::new(Expr::col("x")), Box::new(Expr::lit(threshold))),
            BoolExpr::Cmp(rfa_engine::CmpOp::Ge, Box::new(Expr::col("x")), Box::new(Expr::lit(threshold))),
            BoolExpr::Cmp(rfa_engine::CmpOp::Ne, Box::new(Expr::col("x")), Box::new(Expr::lit(threshold))),
            BoolExpr::Cmp(rfa_engine::CmpOp::Le, Box::new(Expr::col("k")), Box::new(Expr::lit(ithreshold as f64))),
            BoolExpr::Between(
                Box::new(Expr::col("x")),
                Box::new(Expr::lit(-25.0)),
                Box::new(Expr::lit(25.0)),
            ),
            // No typed fast path (two columns): exercises the general
            // program + AVX2 mask compaction.
            BoolExpr::Cmp(rfa_engine::CmpOp::Gt, Box::new(Expr::col("x")), Box::new(Expr::col("k"))),
        ];
        if n > 0 {
            preds.push(BoolExpr::Cmp(
                rfa_engine::CmpOp::Lt,
                Box::new(Expr::col("d")),
                Box::new(Expr::lit(48.0)),
            ));
        }
        for pred in &preds {
            let compiled = pred.compile();
            let bound = compiled.bind(&table).unwrap();
            let filled = both_levels(|| {
                let mut sel = Vec::new();
                let mut scratch = EvalScratch::default();
                bound.fill(0, n, &mut sel, &mut scratch);
                sel
            });
            // Refine the filled set with a second conjunct.
            let refiner = BoolExpr::Cmp(
                rfa_engine::CmpOp::Ge,
                Box::new(Expr::col("k")),
                Box::new(Expr::lit(0.0)),
            )
            .compile();
            let refiner = refiner.bind(&table).unwrap();
            both_levels(|| {
                let mut sel = filled.clone();
                let mut scratch = EvalScratch::default();
                refiner.refine(&mut sel, &mut scratch);
                sel
            });
        }
    }
}
