//! Table IV — CPU time of different approaches for TPC-H Query 1,
//! relative to the total CPU time on built-in doubles (in %).
//!
//! Paper values (MonetDB): double = 34.2 agg / 65.8 other / 100 total;
//! repro<d,4> unbuffered = 51.3 / 63.1 / 114.4; repro<d,4> buffered =
//! 38.7 / 64.0 / 102.7 (the 2.7% headline); sorted double = 45.1 / 682.1
//! / 727.2 (sorting is catastrophic).
//!
//! Every column runs the Q1 plan on the fused zero-copy scan; the sorted
//! baseline keeps each group's values and sorts them when it finalizes.
//! The last column runs the buffered backend morsel-parallel on the pool.
//!
//! Phase accounting: "Scan" is selection + group-id + projection,
//! "Aggregations" the SUM-state deposits and merges, "Other"
//! finalization, which includes the sorted baseline's sort. The paper's Table IV folds our Scan into its "Other";
//! compare paper "other" against Scan + Other. Table-view setup is
//! zero-copy (Arc clones) and free — it no longer pollutes any phase.

use rfa_bench::{BenchConfig, ResultTable};
use rfa_core::CacheModel;
use rfa_engine::{lineitem_table, q1_plan, ExecOptions, PhaseTiming, SumBackend, Table};
use rfa_workloads::Lineitem;

/// The fastest of `reps` warm runs, with its phase split.
fn measure(t: &Table, backend: SumBackend, opts: &ExecOptions, reps: usize) -> PhaseTiming {
    let plan = q1_plan();
    let run = || {
        plan.execute(t, backend, opts)
            .expect("Q1 must not overflow")
            .timing
    };
    let _warmup = run();
    (0..reps)
        .map(|_| run())
        .min_by_key(PhaseTiming::total)
        .unwrap_or_default()
}

fn main() {
    let cfg = BenchConfig::from_env();
    // Q1 groups = 6, so Eq. 4 gives the maximal buffer size.
    let bsz = CacheModel::default().buffer_size(6, 8, 0);
    let rows_n = cfg.n;
    println!("generating lineitem with {rows_n} rows ...");
    let t = lineitem_table(&Lineitem::generate(rows_n, 1));
    let serial = ExecOptions::serial();
    let buffered = SumBackend::ReproBuffered { buffer_size: bsz };

    let double = measure(&t, SumBackend::Double, &serial, cfg.reps);
    let unbuf = measure(&t, SumBackend::ReproUnbuffered, &serial, cfg.reps);
    let buf = measure(&t, buffered, &serial, cfg.reps);
    let sorted = measure(&t, SumBackend::SortedDouble, &serial, cfg.reps);
    // Morsel-driven parallel fused scan + aggregation on the work-stealing
    // pool (bit-identical to the serial column; phase times are summed
    // across workers, i.e. CPU time like the paper reports).
    let pool = rayon::current_num_threads();
    let buf_par = measure(&t, buffered, &ExecOptions::parallel(), cfg.reps);

    let base = double.total().as_secs_f64();
    let pct = |d: std::time::Duration| format!("{:.1}", 100.0 * d.as_secs_f64() / base);

    let par_col = format!("buffered par({pool}t)");
    let mut table = ResultTable::new(
        format!(
            "Table IV: TPC-H Q1 CPU time relative to double total (%), {rows_n} rows, bsz={bsz}"
        ),
        &[
            "phase",
            "double",
            "repro<d,4> unbuffered",
            "repro<d,4> buffered",
            "double (sorted)",
            &par_col,
        ],
    );
    type PhaseGetter = fn(&PhaseTiming) -> std::time::Duration;
    let phases: [(&str, PhaseGetter); 4] = [
        ("Scan", |t| t.scan),
        ("Aggregations", |t| t.aggregation),
        ("Other", |t| t.other),
        ("Total", |t| t.total()),
    ];
    for (name, phase) in phases {
        table.row(vec![
            name.into(),
            pct(phase(&double)),
            pct(phase(&unbuf)),
            pct(phase(&buf)),
            pct(phase(&sorted)),
            pct(phase(&buf_par)),
        ]);
    }
    table.print();
    table.write_csv("table4_tpch_q1");
    println!(
        "  paper (agg/other/total): double 34.2/65.8/100.0; unbuffered 51.3/63.1/114.4;\n  \
         buffered 38.7/64.0/102.7; sorted 45.1/682.1/727.2. Our Scan row is part of\n  \
         the paper's 'other'; compare paper other vs Scan + Other.\n  \
         shape to check: buffered overhead within a few %, unbuffered tens of %,\n  \
         sorted several-fold slower end to end. The parallel column is CPU time\n  \
         summed over the {pool}-worker pool — wall clock drops by ~the worker count\n  \
         on real multicore hardware, bit-identical output either way."
    );
}
