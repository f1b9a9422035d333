//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions, plus values
//! the engine already returns (`PhaseTiming`, `PlanCacheStats`,
//! `ServerStats`). End-to-end numbers never come from this run.
//!
//! Three phases share the `--seconds` budget:
//!
//! 1. the workload's own closed loop with every other query traced, for
//!    `trace.overhead` (traced ÷ untraced median latency);
//! 2. layer rounds over the same query stream: parse, resolve and
//!    execute as the workload does, then the same plan on `Double`,
//!    unbuffered repro, the other thread count and the other table
//!    encoding, and through a `Client` — run back to back in rotating
//!    order, so each ratio compares executions taken moments apart;
//! 3. kernel calls over the workload's own columns: group-id probes,
//!    SUM deposits and merges, the summation buffer, the block kernel
//!    and the auto-encoder.
//!
//! Every reply of phases 1 and 2 except `Double`'s is checked bit for bit
//! against the workload's references.

use crate::qgen::{Kind, QueryGen};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::workload::{self, Spec, BACKEND};
use crate::{metric, Report};
use rfa_agg::{AggHashTable, HashKind};
use rfa_core::{simd, ReproSum, SummationBuffer};
use rfa_engine::column::EncodePolicy;
use rfa_engine::{
    lineitem_table, lineitem_table_encoded, parse_select, resolve_select, Column, ExecOptions,
    GroupedSums, PlanCache, SqlColumn, SqlQuery, SqlResult, SumBackend, Table,
};
use rfa_server::{Client, Response, Server, ServerStats};
use rfa_workloads::Lineitem;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shares of `--seconds` for phases 1 and 2; phase 3 takes the rest.
const LOOP_SHARE: f64 = 0.4;
const ROUNDS_SHARE: f64 = 0.45;
/// Floors that keep each phase's medians meaningful on slow workloads.
const MIN_LOOP_QUERIES: usize = 40;
const MIN_ROUNDS: usize = 5;
const MIN_KERNEL_REPS: usize = 3;
/// Rows per kernel call in phase 3: the executor's batch and the
/// summation buffer's size.
const CHUNK: usize = 1024;
/// Span query ids of phase 2 start here, above every phase-1 id.
const ROUND_IDS: u64 = 1 << 48;

pub fn traced_run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let lineitem = Lineitem::generate(spec.rows, seed);
    let refs = workload::references(spec, &lineitem)?;
    let mut setup = workload::set_up(spec, seed)?;
    let epoch = Instant::now();
    let stats_before = setup.server.as_ref().map(Server::stats).unwrap_or_default();

    // Phase 1: the workload's loop, odd query ids untraced.
    let tracers: Vec<Mutex<Tracer>> = (0..spec.clients)
        .map(|_| Mutex::new(Tracer::new(epoch)))
        .collect();
    let table = setup.table.clone();
    let opts = spec.exec_options();
    let call = |session: usize, client: Option<&mut Client>, text: &str, id: u64| {
        if id % 2 == 1 {
            return workload::query(spec, &table, client, text);
        }
        let span_id = ((session as u64) << 32) | id;
        let mut tr = tracers[session].lock().expect("tracer lock poisoned");
        tr.begin("query", span_id);
        let reply = match client {
            Some(c) => {
                tr.span("server.query", span_id, || {
                    workload::query_wire(c, text, spec.threads)
                })
                .0
            }
            None => traced_query(&mut tr, span_id, text, &table, &opts)
                .map(|(_, r, _)| r.columns)
                .map_err(|e| e.to_string()),
        };
        tr.end();
        reply
    };
    workload::run_sessions(
        spec,
        seed,
        &mut setup,
        &refs,
        Duration::ZERO,
        2 * spec.clients,
        call,
    );
    for t in &tracers {
        *t.lock().expect("tracer lock poisoned") = Tracer::new(epoch);
    }
    let budget = Duration::from_secs_f64(seconds * LOOP_SHARE);
    let sessions = workload::run_sessions(
        spec,
        seed,
        &mut setup,
        &refs,
        budget,
        MIN_LOOP_QUERIES,
        call,
    );
    let mut report = Report::from_sessions(&sessions, spec);
    let mut tracer = Tracer::new(epoch);
    for t in tracers {
        tracer.absorb(t.into_inner().expect("tracer lock poisoned"));
    }
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for s in &sessions {
        for (&id, &ns) in s.query_ids.iter().zip(&s.latency_ns) {
            let side = if id % 2 == 0 {
                &mut traced_ms
            } else {
                &mut untraced_ms
            };
            side.push(ns as f64 / 1e6);
        }
    }
    if traced_ms.is_empty() || untraced_ms.is_empty() {
        return Err(format!(
            "traced loop completed no queries: {:?}",
            report.errors
        ));
    }
    let trace_overhead = median(&traced_ms) / median(&untraced_ms);

    // Phase 2: layer rounds over session 0's stream.
    let other_table = if spec.encoded {
        lineitem_table(&lineitem)
    } else {
        lineitem_table_encoded(&lineitem)
    };
    let own_server = match setup.server {
        Some(_) => None,
        None => Some(workload::spawn_server(&setup.table)?),
    };
    let server = setup
        .server
        .as_ref()
        .or(own_server.as_ref())
        .expect("one server");
    let mut probe = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let ctx = RoundCtx {
        spec,
        table: &setup.table,
        other_table: &other_table,
        refs: &refs,
    };
    let mut gen = QueryGen::new(seed, 0, spec.kinds);
    let mut rounds = Rounds::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds * ROUNDS_SHARE);
    while start.elapsed() < budget || rounds.execute_ns.len() < MIN_ROUNDS {
        let params = gen.next_params();
        let id = ROUND_IDS + rounds.execute_ns.len() as u64;
        ctx.round(
            &mut tracer,
            &mut probe,
            id,
            &params,
            &mut rounds,
            &mut report,
        )?;
    }
    drop(probe);
    let served = server.stats();

    // The plan cache a server session would hold, replayed per session.
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (i, s) in sessions.iter().enumerate() {
        let cache = PlanCache::new();
        let mut gen = QueryGen::new(seed, i as u64, spec.kinds);
        for _ in 0..s.attempted {
            cache
                .get_or_resolve(&gen.next_params().text(), &setup.table)
                .map_err(|e| e.to_string())?;
        }
        let st = cache.stats();
        hits += st.hits;
        lookups += st.hits + st.misses;
    }

    // Phase 3: kernels over the workload's columns.
    let kernels = kernel_calls(spec, &lineitem, &mut tracer, seconds, epoch)?;

    let rows_in = setup.table.rows() as f64;
    let rows_selected = median(&rounds.rows_selected);
    let delta = |f: fn(&ServerStats) -> u64| (f(&served) - f(&stats_before)) as f64;
    let us = |v: &[f64]| median(v) / 1e3;
    let ms = |v: &[f64]| median(v) / 1e6;
    report.metrics = vec![
        metric("sql.parse_us", us(&rounds.parse_ns), "us"),
        metric("sql.resolve_us", us(&rounds.resolve_ns), "us"),
        metric(
            "sql.plan_cache_hit_ratio",
            hits as f64 / lookups as f64,
            "ratio",
        ),
        metric("plan.execute_ms", ms(&rounds.execute_ns), "ms"),
        metric("fused.scan_ms", median(&rounds.scan_ms), "ms"),
        metric("fused.agg_ms", median(&rounds.agg_ms), "ms"),
        metric("fused.other_ms", median(&rounds.other_ms), "ms"),
        metric("fused.rows_in", rows_in, "count"),
        metric("fused.rows_selected", rows_selected, "count"),
        metric("fused.selectivity", rows_selected / rows_in, "ratio"),
        metric("fused.groups_out", median(&rounds.groups_out), "count"),
        metric(
            "fused.parallel_speedup",
            median(&rounds.parallel_speedup),
            "ratio",
        ),
        metric(
            "sum_op.repro_overhead",
            median(&rounds.repro_overhead),
            "ratio",
        ),
        metric(
            "sum_op.unbuffered_overhead",
            median(&rounds.unbuffered_overhead),
            "ratio",
        ),
        metric("sum_op.update_ns_per_row", kernels.update_ns_per_row, "ns"),
        metric("sum_op.merge_us", kernels.merge_us, "us"),
        metric("core.buffer_push_ns", kernels.buffer_push_ns, "ns"),
        metric("core.add_slice_ns", kernels.add_slice_ns, "ns"),
        metric("agg.probe_gids_ns_per_key", kernels.probe_ns_per_key, "ns"),
        metric("column.encode_s", kernels.encode_s, "s"),
        metric("column.bytes_ratio", kernels.bytes_ratio, "ratio"),
        metric(
            "column.encoded_vs_plain",
            median(&rounds.encoded_vs_plain),
            "ratio",
        ),
        metric(
            "server.overhead_ms",
            median(&rounds.server_overhead_ns) / 1e6,
            "ms",
        ),
        metric("server.encode_us", us(&rounds.encode_ns), "us"),
        metric("server.reply_bytes", median(&rounds.reply_bytes), "bytes"),
        metric("server.completed", delta(|s| s.completed), "count"),
        metric(
            "server.rejected_overload",
            delta(|s| s.rejected_overload),
            "count",
        ),
        metric("trace.overhead", trace_overhead, "ratio"),
    ];
    drop(own_server);
    write_spans(spec, seed, &tracer)?;
    for (name, (count, total, own)) in tracer.summary() {
        report.notes.push(format!(
            "span {name:<28} n={count:<6} mean {:>12.3} us, self {:>12.3} us",
            total as f64 / count as f64 / 1e3,
            own as f64 / count as f64 / 1e3
        ));
    }
    Ok(report)
}

/// Parse, resolve and execute as three spans under the open one;
/// returns the resolved query, its result and the three durations.
fn traced_query(
    tr: &mut Tracer,
    id: u64,
    text: &str,
    table: &Table,
    opts: &ExecOptions,
) -> Result<(SqlQuery, SqlResult, [u64; 3]), rfa_engine::SqlError> {
    let (stmt, parse) = tr.span("sql.parse", id, || parse_select(text));
    let (query, resolve) = tr.span("sql.resolve", id, || resolve_select(&stmt?, table));
    let query = query?;
    let (result, execute) = tr.span("plan.execute", id, || query.execute(table, BACKEND, opts));
    Ok((query, result?, [parse, resolve, execute]))
}

/// Per-round samples of phase 2.
#[derive(Default)]
struct Rounds {
    parse_ns: Vec<f64>,
    resolve_ns: Vec<f64>,
    execute_ns: Vec<f64>,
    scan_ms: Vec<f64>,
    agg_ms: Vec<f64>,
    other_ms: Vec<f64>,
    rows_selected: Vec<f64>,
    groups_out: Vec<f64>,
    parallel_speedup: Vec<f64>,
    repro_overhead: Vec<f64>,
    unbuffered_overhead: Vec<f64>,
    encoded_vs_plain: Vec<f64>,
    server_overhead_ns: Vec<f64>,
    encode_ns: Vec<f64>,
    reply_bytes: Vec<f64>,
    /// `COUNT(*)` per filter text, counted once.
    selected: HashMap<String, f64>,
}

struct RoundCtx<'a> {
    spec: &'a Spec,
    table: &'a Table,
    other_table: &'a Table,
    refs: &'a workload::References,
}

/// The executions of one round besides the workload's own.
#[derive(Clone, Copy)]
enum Variant {
    Double,
    Unbuffered,
    OtherThreads,
    OtherTable,
    Wire,
}

const VARIANTS: [Variant; 5] = [
    Variant::Double,
    Variant::Unbuffered,
    Variant::OtherThreads,
    Variant::OtherTable,
    Variant::Wire,
];

impl RoundCtx<'_> {
    /// One text through every execution path. The workload's own
    /// execution goes first; the others follow in an order rotated by
    /// round, so no path always runs right after another.
    fn round(
        &self,
        tr: &mut Tracer,
        client: &mut Client,
        id: u64,
        params: &crate::qgen::Params,
        out: &mut Rounds,
        report: &mut Report,
    ) -> Result<(), String> {
        let spec = self.spec;
        let text = params.text();
        let opts = spec.exec_options();
        tr.begin("query", id);
        let (query, base, [parse, resolve, execute]) =
            traced_query(tr, id, &text, self.table, &opts).map_err(|e| e.to_string())?;
        self.check(report, &text, &base.columns);
        // Untimed: the same text resolved against the other table, whose
        // column storage differs.
        let other_query =
            rfa_engine::sql_query(&text, self.other_table).map_err(|e| e.to_string())?;
        let other_threads = ExecOptions {
            threads: if spec.threads == 1 { 2 } else { 1 },
            ..opts.clone()
        };
        let mut ns = [0u64; VARIANTS.len()];
        let round = out.execute_ns.len();
        for k in 0..VARIANTS.len() {
            let v = (round + k) % VARIANTS.len();
            let (columns, took) = match VARIANTS[v] {
                Variant::Double => {
                    let (r, t) = tr.span("plan.execute.double", id, || {
                        query.execute(self.table, SumBackend::Double, &opts)
                    });
                    // Plain doubles are not reproducible: no bit check.
                    r.map_err(|e| e.to_string())?;
                    (None, t)
                }
                Variant::Unbuffered => {
                    let (r, t) = tr.span("plan.execute.unbuffered", id, || {
                        query.execute(self.table, SumBackend::ReproUnbuffered, &opts)
                    });
                    (Some(r.map_err(|e| e.to_string())?.columns), t)
                }
                Variant::OtherThreads => {
                    let (r, t) = tr.span("plan.execute.other_threads", id, || {
                        query.execute(self.table, BACKEND, &other_threads)
                    });
                    (Some(r.map_err(|e| e.to_string())?.columns), t)
                }
                Variant::OtherTable => {
                    let (r, t) = tr.span("plan.execute.other_table", id, || {
                        other_query.execute(self.other_table, BACKEND, &opts)
                    });
                    (Some(r.map_err(|e| e.to_string())?.columns), t)
                }
                Variant::Wire => {
                    let (r, t) = tr.span("server.query", id, || {
                        client.query(&text, BACKEND, spec.threads as u32, None)
                    });
                    let rs = r.map_err(|e| e.to_string())?;
                    out.reply_bytes.push(rs.wire_size() as f64);
                    let reply = Response::Result {
                        query_id: id,
                        result: rs.clone(),
                    };
                    let (frame, enc) = tr.span("server.encode", id, || reply.encode());
                    black_box(frame);
                    out.encode_ns.push(enc as f64);
                    (Some(rs.columns), t)
                }
            };
            if let Some(columns) = columns {
                self.check(report, &text, &columns);
            }
            ns[v] = took;
        }
        tr.end();

        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let [double, unbuffered, other_threads, other_table, wire] = ns;
        out.parse_ns.push(parse as f64);
        out.resolve_ns.push(resolve as f64);
        out.execute_ns.push(execute as f64);
        out.scan_ms.push(base.timing.scan.as_secs_f64() * 1e3);
        out.agg_ms.push(base.timing.aggregation.as_secs_f64() * 1e3);
        out.other_ms.push(base.timing.other.as_secs_f64() * 1e3);
        out.groups_out.push(base.rows as f64);
        out.repro_overhead.push(ratio(execute, double));
        out.unbuffered_overhead.push(ratio(unbuffered, double));
        out.parallel_speedup.push(if spec.threads == 1 {
            ratio(execute, other_threads)
        } else {
            ratio(other_threads, execute)
        });
        out.encoded_vs_plain.push(if spec.encoded {
            ratio(execute, other_table)
        } else {
            ratio(other_table, execute)
        });
        out.server_overhead_ns.push(wire as f64 - execute as f64);
        let selected = match out.selected.get(&text) {
            Some(&n) => n,
            None => {
                let n = count_selected(self.table, &params.count_text())?;
                out.selected.insert(text, n);
                n
            }
        };
        out.rows_selected.push(selected);
        Ok(())
    }

    fn check(&self, report: &mut Report, text: &str, columns: &[SqlColumn]) {
        report.attempted += 1;
        if self.refs.get(text) != Some(&stats::result_bits(columns)) {
            report.failed += 1;
            report.mismatches += 1;
            report
                .errors
                .push(format!("result bits differ from the reference: {text}"));
        }
    }
}

fn count_selected(table: &Table, count_text: &str) -> Result<f64, String> {
    let r = rfa_engine::sql_query(count_text, table)
        .and_then(|q| q.execute(table, BACKEND, &ExecOptions::serial()))
        .map_err(|e| e.to_string())?;
    match r.columns.as_slice() {
        [SqlColumn::U64(c)] if c.len() == 1 => Ok(c[0] as f64),
        _ => Err(format!("unexpected COUNT(*) result for {count_text}")),
    }
}

struct Kernels {
    probe_ns_per_key: f64,
    update_ns_per_row: f64,
    merge_us: f64,
    buffer_push_ns: f64,
    add_slice_ns: f64,
    encode_s: f64,
    bytes_ratio: f64,
}

/// The group key the workload's grouped queries hash: `l_suppkey` when
/// it runs Q15, the Q1 flag pair otherwise when it runs Q1, else one
/// constant key (ungrouped Q6).
fn group_keys(spec: &Spec, t: &Lineitem) -> Vec<u32> {
    if spec.kinds.contains(&Kind::Q15) {
        t.suppkey.iter().map(|&k| k as u32).collect()
    } else if spec.kinds.contains(&Kind::Q1) {
        (0..t.len())
            .map(|i| (u32::from(t.returnflag[i]) << 8) | u32::from(t.linestatus[i]))
            .collect()
    } else {
        vec![0; t.len()]
    }
}

/// Phase 3: rounds of kernel calls until `seconds` have passed since
/// `run_start` (at least `MIN_KERNEL_REPS`); each metric is the median
/// over rounds.
fn kernel_calls(
    spec: &Spec,
    t: &Lineitem,
    tr: &mut Tracer,
    seconds: f64,
    run_start: Instant,
) -> Result<Kernels, String> {
    let keys = group_keys(spec, t);
    let values: &[f64] = &t.extendedprice;
    let n = values.len() as f64;
    let plain_bytes = table_bytes(&lineitem_table(t))?;
    let mut samples: [Vec<f64>; 6] = Default::default();
    let mut bytes_ratio = 0.0;
    let deadline = Duration::from_secs_f64(seconds);
    let id = u64::MAX;
    while run_start.elapsed() < deadline || samples[0].len() < MIN_KERNEL_REPS {
        let mut hash = AggHashTable::<u32>::with_capacity(CHUNK, HashKind::Identity, &u32::MAX);
        let mut gids = Vec::with_capacity(keys.len());
        let mut groups = 0u32;
        let ((), ns) = tr.span("agg.probe_gids", id, || {
            for batch in keys.chunks(CHUNK) {
                hash.probe_gids(batch, &mut gids, |_| {
                    groups += 1;
                    groups - 1
                });
            }
        });
        samples[0].push(ns as f64 / n);

        let mut sums = GroupedSums::new(BACKEND, groups as usize);
        let (r, ns) = tr.span("sum_op.update", id, || deposit(&mut sums, &gids, values));
        r?;
        samples[1].push(ns as f64 / n);
        black_box(sums.finalize());

        let half = gids.len() / 2;
        let mut a = GroupedSums::new(BACKEND, groups as usize);
        let mut b = GroupedSums::new(BACKEND, groups as usize);
        deposit(&mut a, &gids[..half], &values[..half])?;
        deposit(&mut b, &gids[half..], &values[half..])?;
        let (r, ns) = tr.span("sum_op.merge", id, || a.merge(b));
        r.map_err(|e| format!("merge: {e:?}"))?;
        samples[2].push(ns as f64 / 1e3);
        black_box(a.finalize());

        let mut buffer = SummationBuffer::<f64, 4>::new(CHUNK);
        let ((), ns) = tr.span("core.buffer_push", id, || {
            for &v in values {
                buffer.push(black_box(v));
            }
        });
        black_box(buffer.finalize());
        samples[3].push(ns as f64 / n);

        let mut acc = ReproSum::<f64, 4>::new();
        let ((), ns) = tr.span("core.add_slice", id, || {
            for chunk in values.chunks(CHUNK) {
                simd::add_slice(&mut acc, black_box(chunk));
            }
        });
        black_box(acc.finalize());
        samples[4].push(ns as f64 / n);

        let mut table = lineitem_table(t);
        let ((), ns) = tr.span("column.encode_auto", id, || {
            table.encode_auto(EncodePolicy::default())
        });
        samples[5].push(ns as f64 / 1e9);
        bytes_ratio = table_bytes(&table)? / plain_bytes;
    }
    let [probe, update, merge, push, add, encode] = samples.map(|s| median(&s));
    Ok(Kernels {
        probe_ns_per_key: probe,
        update_ns_per_row: update,
        merge_us: merge,
        buffer_push_ns: push,
        add_slice_ns: add,
        encode_s: encode,
        bytes_ratio,
    })
}

fn deposit(sums: &mut GroupedSums, gids: &[u32], values: &[f64]) -> Result<(), String> {
    for (g, v) in gids.chunks(CHUNK).zip(values.chunks(CHUNK)) {
        sums.update(g, v).map_err(|e| format!("deposit: {e:?}"))?;
    }
    Ok(())
}

/// Bytes a table's columns store, as their variants lay them out.
fn table_bytes(table: &Table) -> Result<f64, String> {
    fn bytes(c: &Column) -> usize {
        match c {
            Column::F64(v) => 8 * v.len(),
            Column::F32(v) => 4 * v.len(),
            Column::I32(v) => 4 * v.len(),
            Column::U32(v) => 4 * v.len(),
            Column::U8(v) => v.len(),
            Column::Dict { codes, dict } => codes.len() + bytes(dict),
            Column::Dict16 { codes, dict } => 2 * codes.len() + bytes(dict),
            Column::Rle { run_ends, values } => 4 * run_ends.len() + bytes(values),
        }
    }
    let mut total = 0;
    for name in table.column_names() {
        total += bytes(table.column(name).map_err(|e| e.to_string())?);
    }
    Ok(total as f64)
}

/// Writes the spans next to the benchmark's sources, under `out/`.
fn write_spans(spec: &Spec, seed: u64, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", spec.name));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))
}
