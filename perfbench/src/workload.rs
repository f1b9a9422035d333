//! The four workloads: their tables, set-up, reference answers and the
//! closed client loop that times queries from SQL text to result columns.

use crate::qgen::{self, Kind, Params, QueryGen};
use crate::stats::{self, DIGEST_BASIS};
use rfa_engine::{
    lineitem_table, lineitem_table_encoded, sql_query, ExecOptions, SqlColumn, SumBackend, Table,
};
use rfa_exact::ExactSum;
use rfa_server::{Client, Server, ServerConfig};
use rfa_workloads::Lineitem;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The documented default backend: `repro<double, 4>` with 1024-slot
/// summation buffers.
pub const BACKEND: SumBackend = SumBackend::ReproBuffered { buffer_size: 1024 };

pub struct Spec {
    pub name: &'static str,
    pub rows: usize,
    pub kinds: &'static [Kind],
    /// `ExecOptions::threads` of every query.
    pub threads: usize,
    /// Concurrent closed-loop client sessions.
    pub clients: usize,
    /// Scan `lineitem_table_encoded` instead of the plain table.
    pub encoded: bool,
    /// Send queries over TCP to a `Server` instead of executing in process.
    pub wire: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "q1-deposit",
        rows: 1 << 20,
        kinds: &[Kind::Q1],
        threads: 1,
        clients: 1,
        encoded: false,
        wire: false,
    },
    Spec {
        name: "q15-groups",
        rows: 1 << 20,
        kinds: &[Kind::Q15],
        // Serial: at 2 threads on a 2-core host, run-to-run spread of the
        // median reached 0.15-0.30 of it. The traced run's
        // `fused.parallel_speedup` compares 1 and 2 threads back to back.
        threads: 1,
        clients: 1,
        encoded: false,
        wire: false,
    },
    Spec {
        name: "q6-encoded",
        rows: 1 << 20,
        kinds: &[Kind::Q6],
        threads: 1,
        clients: 1,
        encoded: true,
        wire: false,
    },
    Spec {
        name: "wire-mixed",
        rows: 1 << 16,
        kinds: &[Kind::Q1, Kind::Q6, Kind::Q15],
        threads: 1,
        clients: 2,
        encoded: false,
        wire: true,
    },
];

/// A `Server` over `table` with 2 workers, as the wire workload and the
/// traced run's server probe use.
pub fn spawn_server(table: &Arc<Table>) -> Result<Server, String> {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    Server::spawn(Arc::clone(table), config).map_err(|e| format!("spawn: {e}"))
}

/// Fewest completed queries per run: ten samples beyond the p90.
pub fn min_queries() -> usize {
    stats::min_samples(0.9)
}

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            threads: self.threads,
            ..ExecOptions::default()
        }
    }

    /// The table the workload scans.
    pub fn table(&self, lineitem: &Lineitem) -> Table {
        if self.encoded {
            lineitem_table_encoded(lineitem)
        } else {
            lineitem_table(lineitem)
        }
    }

    /// Every query text the workload's generator can produce.
    pub fn domain(&self) -> Vec<Params> {
        self.kinds.iter().flat_map(|&k| qgen::domain(k)).collect()
    }
}

/// What a timed run queries: the table, and for the wire workload the
/// server and one connected client per session.
pub struct Setup {
    // Clients drop before the server, so its session threads end first.
    pub clients: Vec<Client>,
    pub server: Option<Server>,
    pub table: Arc<Table>,
}

/// Data generation, table build (and encoding), server spawn and
/// connect: everything `setup_s` times.
pub fn set_up(spec: &Spec, seed: u64) -> Result<Setup, String> {
    let table = Arc::new(spec.table(&Lineitem::generate(spec.rows, seed)));
    let (server, clients) = if spec.wire {
        let server = spawn_server(&table)?;
        let clients = (0..spec.clients)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        (Some(server), clients)
    } else {
        (None, Vec::new())
    };
    Ok(Setup {
        clients,
        server,
        table,
    })
}

/// Reference answers, keyed by SQL text, as [`stats::result_bits`].
pub type References = HashMap<String, Vec<u64>>;

/// One reference per distinct text the workload can send: computed on
/// the plain table, serially, with batch and morsel sizes unlike the
/// defaults, so every timed reply is checked against another execution
/// shape. Q1 references are also recounted: `COUNT(*)` by integer count
/// and `SUM(l_quantity)` by the exact accumulator, per group.
pub fn references(spec: &Spec, lineitem: &Lineitem) -> Result<References, String> {
    let table = lineitem_table(lineitem);
    let opts = ExecOptions {
        threads: 1,
        batch_rows: 777,
        morsel_rows: 12_345,
        ..ExecOptions::default()
    };
    let mut refs = References::new();
    for p in spec.domain() {
        let text = p.text();
        let result = sql_query(&text, &table)
            .and_then(|q| q.execute(&table, BACKEND, &opts))
            .map_err(|e| format!("reference {text}: {e}"))?;
        if let Some(cutoff) = p.q1_cutoff() {
            check_q1_recount(lineitem, cutoff, &result.columns)
                .map_err(|e| format!("reference {text}: {e}"))?;
        }
        refs.insert(text, stats::result_bits(&result.columns));
    }
    Ok(refs)
}

/// Compares a Q1 result's groups, `SUM(l_quantity)` (column 2) and
/// `COUNT(*)` (last column) with a row-at-a-time recount.
fn check_q1_recount(t: &Lineitem, cutoff: i32, columns: &[SqlColumn]) -> Result<(), String> {
    let mut groups: BTreeMap<(i64, i64), (u64, ExactSum)> = BTreeMap::new();
    for i in 0..t.len() {
        if t.shipdate[i] <= cutoff {
            let key = (i64::from(t.returnflag[i]), i64::from(t.linestatus[i]));
            let e = groups.entry(key).or_insert_with(|| (0, ExactSum::new()));
            e.0 += 1;
            e.1.add(t.quantity[i]);
        }
    }
    let (
        [SqlColumn::I64(flags), SqlColumn::I64(status), SqlColumn::F64(sum_qty), ..],
        Some(SqlColumn::U64(counts)),
    ) = (columns, columns.last())
    else {
        return Err("unexpected Q1 column types".into());
    };
    if flags.len() != groups.len() {
        return Err(format!(
            "{} groups, recount has {}",
            flags.len(),
            groups.len()
        ));
    }
    for (g, key) in flags.iter().zip(status).enumerate() {
        let (count, sum) = groups
            .get(&(*key.0, *key.1))
            .ok_or_else(|| format!("group {key:?} is not in the recount"))?;
        if counts[g] != *count {
            return Err(format!("group {key:?}: COUNT(*) {} != {count}", counts[g]));
        }
        if sum_qty[g].to_bits() != sum.round_f64().to_bits() {
            return Err(format!(
                "group {key:?}: SUM(l_quantity) {} != exact {}",
                sum_qty[g],
                sum.round_f64()
            ));
        }
    }
    Ok(())
}

/// What one client session saw.
#[derive(Default)]
pub struct SessionOut {
    /// Latency of every completed, correct reply, in send order (ns).
    pub latency_ns: Vec<u64>,
    /// Query id of each entry of `latency_ns`.
    pub query_ids: Vec<u64>,
    /// When each entry of `latency_ns` completed, since the loop's start
    /// (ns).
    pub done_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Replies whose bits differ from the reference.
    pub mismatches: u64,
    /// Failure messages, at most a few.
    pub errors: Vec<String>,
    /// Digest of the first `min_done` replies, in order.
    pub digest: u64,
}

/// A closed loop: sends the session's next query only after the reply to
/// the previous one, until `budget` has passed and at least `min_done`
/// queries completed. Only `call` is timed; each reply is then checked
/// against its reference, and the first `min_done` replies feed the
/// digest, so runs of any length digest the same replies. Completion
/// times count from `epoch`, the start all sessions of a loop share.
pub fn run_session(
    epoch: Instant,
    gen: &mut QueryGen,
    refs: &References,
    budget: Duration,
    min_done: usize,
    mut call: impl FnMut(&str, u64) -> Result<Vec<SqlColumn>, String>,
) -> SessionOut {
    let mut out = SessionOut {
        digest: DIGEST_BASIS,
        ..SessionOut::default()
    };
    let start = Instant::now();
    let mut query_id = 0u64;
    while start.elapsed() < budget || out.latency_ns.len() < min_done {
        let text = gen.next_params().text();
        query_id += 1;
        let t0 = Instant::now();
        let reply = call(&text, query_id);
        let ns = t0.elapsed().as_nanos() as u64;
        let done = epoch.elapsed().as_nanos() as u64;
        out.attempted += 1;
        let bits = reply.map(|cols| stats::result_bits(&cols));
        if out.attempted as usize <= min_done {
            out.digest = match &bits {
                Ok(b) => stats::digest(out.digest, b),
                Err(_) => stats::digest(out.digest, &[u64::MAX]),
            };
        }
        let failure = match (&bits, refs.get(&text)) {
            (Ok(b), Some(r)) if b == r => None,
            (Ok(_), Some(_)) => {
                out.mismatches += 1;
                Some(format!("result bits differ from the reference: {text}"))
            }
            (Ok(_), None) => Some(format!("no reference for {text}")),
            (Err(e), _) => Some(e.clone()),
        };
        match failure {
            None => {
                out.latency_ns.push(ns);
                out.query_ids.push(query_id);
                out.done_ns.push(done);
            }
            Some(e) => {
                out.failed += 1;
                if out.errors.len() < 3 {
                    out.errors.push(e);
                }
                // A session that only fails would never reach `min_done`.
                if out.failed as usize > min_done.max(100) {
                    break;
                }
            }
        }
    }
    out
}

/// One query the way the workload sends it: over the session's client
/// when it has one, else in process (parse, resolve and lower, execute).
pub fn query(
    spec: &Spec,
    table: &Table,
    client: Option<&mut Client>,
    text: &str,
) -> Result<Vec<SqlColumn>, String> {
    match client {
        Some(c) => query_wire(c, text, spec.threads),
        None => sql_query(text, table)
            .and_then(|q| q.execute(table, BACKEND, &spec.exec_options()))
            .map(|r| r.columns)
            .map_err(|e| e.to_string()),
    }
}

/// Over-the-wire query through a session client.
pub fn query_wire(
    client: &mut Client,
    text: &str,
    threads: usize,
) -> Result<Vec<SqlColumn>, String> {
    client
        .query(text, BACKEND, threads as u32, None)
        .map(|rs| rs.columns)
        .map_err(|e| e.to_string())
}

/// Runs every session of `spec` against `setup` in its own thread
/// (in-process workloads have one session and run on this thread).
/// `call` gets the session index, the text and the query id.
pub fn run_sessions(
    spec: &Spec,
    seed: u64,
    setup: &mut Setup,
    refs: &References,
    budget: Duration,
    min_total: usize,
    call: impl Fn(usize, Option<&mut Client>, &str, u64) -> Result<Vec<SqlColumn>, String> + Sync,
) -> Vec<SessionOut> {
    let min_done = min_total.div_ceil(spec.clients);
    let epoch = Instant::now();
    let session = &|i: usize, mut client: Option<&mut Client>| {
        let mut gen = QueryGen::new(seed, i as u64, spec.kinds);
        run_session(epoch, &mut gen, refs, budget, min_done, |text, id| {
            call(i, client.as_deref_mut(), text, id)
        })
    };
    if setup.clients.is_empty() {
        return vec![session(0, None)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || session(i, Some(c))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client session thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q1_ONLY: Spec = Spec {
        name: "test",
        rows: 2_000,
        kinds: &[Kind::Q1],
        threads: 1,
        clients: 1,
        encoded: false,
        wire: false,
    };

    #[test]
    fn replies_are_gated_on_reference_bits() {
        let lineitem = Lineitem::generate(Q1_ONLY.rows, 3);
        let mut refs = references(&Q1_ONLY, &lineitem).unwrap();
        assert_eq!(refs.len(), 61);
        let table = lineitem_table(&lineitem);
        let run = |refs: &References| {
            let mut gen = QueryGen::new(5, 0, Q1_ONLY.kinds);
            run_session(
                Instant::now(),
                &mut gen,
                refs,
                Duration::ZERO,
                20,
                |text, _| query(&Q1_ONLY, &table, None, text),
            )
        };
        let good = run(&refs);
        assert_eq!((good.attempted, good.failed, good.mismatches), (20, 0, 0));
        assert_eq!(good.latency_ns.len(), 20);
        assert!(good.done_ns.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(good.digest, run(&refs).digest);
        // Flip one bit of every reference: every reply now mismatches.
        for bits in refs.values_mut() {
            *bits.last_mut().unwrap() ^= 1;
        }
        let bad = run(&refs);
        assert_eq!(bad.mismatches, bad.attempted);
        assert_eq!(bad.failed, bad.attempted);
        assert!(bad.latency_ns.is_empty());
    }

    #[test]
    fn q1_recount_catches_a_wrong_sum_or_count() {
        let lineitem = Lineitem::generate(Q1_ONLY.rows, 4);
        let p = Params::Q1 { delta: 90 };
        let table = lineitem_table(&lineitem);
        let columns = query(&Q1_ONLY, &table, None, &p.text()).unwrap();
        let cutoff = p.q1_cutoff().unwrap();
        check_q1_recount(&lineitem, cutoff, &columns).unwrap();
        let mut wrong_sum = columns.clone();
        if let SqlColumn::F64(v) = &mut wrong_sum[2] {
            v[0] += 1.0;
        }
        assert!(check_q1_recount(&lineitem, cutoff, &wrong_sum).is_err());
        let mut wrong_count = columns;
        if let Some(SqlColumn::U64(v)) = wrong_count.last_mut() {
            v[1] -= 1;
        }
        assert!(check_q1_recount(&lineitem, cutoff, &wrong_count).is_err());
    }
}
