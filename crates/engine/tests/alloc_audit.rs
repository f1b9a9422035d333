//! Allocation audit of the fused scan pipeline — the "no n-sized
//! intermediates" acceptance check, enforced with a counting global
//! allocator rather than by inspection.
//!
//! The audit runs the serial paths only (the parallel path allocates
//! batch-sized scratch per morsel — still O(batch) at a time, but
//! scheduling makes byte totals nondeterministic), and asserts:
//!
//! 1. building the zero-copy table view allocates O(columns) bytes —
//!    no per-query column clones;
//! 2. a fused Q1 run over 1M rows allocates far less than one n-sized
//!    vector (its footprint is batch-sized scratch + 6 group states),
//!    while a materializing pipeline would allocate six-plus of them;
//! 3. a fused Q6 run stays within an even tighter budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting cumulative allocated bytes.
struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count only the growth; shrinking is free.
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocated_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.load(Ordering::Relaxed);
    f();
    ALLOCATED.load(Ordering::Relaxed) - before
}

#[test]
fn fused_pipeline_performs_no_n_sized_allocations() {
    use rfa_engine::{lineitem_table, q1_plan, q6_plan, ExecOptions, SumBackend};
    use rfa_workloads::Lineitem;

    const N: usize = 1_000_000;
    let t = Lineitem::generate(N, 5);
    let n_vector_bytes = N * std::mem::size_of::<f64>(); // one 8 MB column

    // (1) Zero-copy table view: refcount bumps plus name strings — far
    // under even 1% of a single column.
    let view_bytes = allocated_during(|| {
        let table = lineitem_table(&t);
        assert_eq!(table.rows(), N);
        drop(table);
    });
    assert!(
        view_bytes < 16 * 1024,
        "table view allocated {view_bytes} bytes — expected O(columns), not clones"
    );

    let table = lineitem_table(&t);
    let backend = SumBackend::ReproBuffered { buffer_size: 1024 };
    let opts = ExecOptions::serial();

    // Warm-up run (so one-time lazy initialization is not billed), then
    // audit a steady-state fused execution.
    q1_plan().execute(&table, backend, &opts).unwrap();
    let fused_bytes = allocated_during(|| {
        q1_plan().execute(&table, backend, &opts).unwrap();
    });
    // (2) Fused budget: selection + group-id vectors (2 × 16 KiB), one
    // output register + expression scratch (few × 32 KiB), 6 buffered
    // group states × 5 aggregates (~240 KiB for bsz=1024), output rows.
    // Allow 2 MiB of slack — still 4× under ONE n-sized vector, while the
    // materializing pipeline allocates six-plus of them.
    assert!(
        fused_bytes < 2 * 1024 * 1024,
        "fused Q1 allocated {fused_bytes} bytes — expected O(batch + groups)"
    );
    assert!(
        fused_bytes < n_vector_bytes / 4,
        "fused Q1 allocated {fused_bytes} bytes — not clearly below an n-sized vector ({n_vector_bytes})"
    );

    // (3) Q6 single-accumulator path: the budget is even tighter (one
    // sink, three predicate columns, ~2% selectivity).
    q6_plan().execute(&table, backend, &opts).unwrap();
    let q6_bytes = allocated_during(|| {
        q6_plan().execute(&table, backend, &opts).unwrap();
    });
    assert!(
        q6_bytes < 1024 * 1024,
        "fused Q6 allocated {q6_bytes} bytes — expected O(batch)"
    );
}
