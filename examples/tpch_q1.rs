//! TPC-H Query 1 on the columnar mini-engine with all four SUM backends
//! (the paper's Table IV experiment, §VI-E).
//!
//! Run with: `cargo run --release --example tpch_q1`

use rfa::engine::{lineitem_table, q1_plan, ExecOptions, SumBackend};
use rfa::workloads::Lineitem;

fn main() {
    let rows = 500_000;
    println!("generating lineitem with {rows} rows ...\n");
    let lineitem = lineitem_table(&Lineitem::generate(rows, 42));
    let plan = q1_plan();
    let run_q1 = |backend| {
        plan.execute(&lineitem, backend, &ExecOptions::serial())
            .expect("Q1 must not overflow")
    };

    let backends = [
        ("double (MonetDB baseline)", SumBackend::Double),
        ("repro<double,4> unbuffered", SumBackend::ReproUnbuffered),
        (
            "repro<double,4> buffered",
            SumBackend::ReproBuffered { buffer_size: 1024 },
        ),
        ("double over sorted input", SumBackend::SortedDouble),
    ];

    // Warm up allocator, page cache and CPU clocks, then report the
    // fastest of three runs per backend (like the Table IV bench).
    for (_, backend) in backends {
        let _ = run_q1(backend);
    }

    let mut base_total = None;
    for (name, backend) in backends {
        let result = (0..3)
            .map(|_| run_q1(backend))
            .min_by_key(|r| r.timing.total())
            .expect("three runs");
        let timing = result.timing;
        let total = timing.total().as_secs_f64();
        let rel = base_total.map_or(100.0, |b: f64| 100.0 * total / b);
        if base_total.is_none() {
            base_total = Some(total);
        }
        println!(
            "{name}: total {:.1} ms (scan {:.1} ms, agg {:.1} ms, other {:.1} ms) = {rel:.1}% of baseline",
            total * 1e3,
            timing.scan.as_secs_f64() * 1e3,
            timing.aggregation.as_secs_f64() * 1e3,
            timing.other.as_secs_f64() * 1e3,
        );
        if matches!(backend, SumBackend::ReproBuffered { .. }) {
            println!("\n  l_rf l_ls |      sum_qty |   sum_base_price |   sum_disc_price |       sum_charge | count");
            for (i, &gid) in result.keys.iter().enumerate() {
                let (rf, ls) = Lineitem::decode_group(gid as u32);
                let sum = |c: usize| result.columns[c].f64s()[i];
                println!(
                    "     {rf}    {ls} | {:>12.2} | {:>16.2} | {:>16.2} | {:>16.2} | {:>6}",
                    sum(0),
                    sum(1),
                    sum(2),
                    sum(3),
                    result.columns[7].u64s()[i],
                );
            }
            println!();
        }
    }

    println!("\npaper shape (Table IV): buffered repro within a few percent of the");
    println!("baseline, unbuffered tens of percent, sorted input several-fold slower.");
}
