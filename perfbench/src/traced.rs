//! The traced run: the workload's statements replayed through the
//! decomposed public pipeline, with a span recorded around every call
//! into a layer, plus standalone calls into the layers the pipeline hides
//! (PerfectRef, minimization, mining, commit, the WAL and the wire).
//!
//! Spans are kept in memory and written to `out/spans/` when the run
//! ends. A span's self time is its duration minus the time its child
//! spans cover.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obda_core::{gdl, prune_fol, CostEstimator, GdlConfig, InstrumentedEstimator, QueryAnalysis};
use obda_dllite::{ConstraintSet, Dependencies, TBoxClosure};
use obda_query::{minimize_ucq, FolQuery};
use obda_rdbms::{Backend, EvalOptions, ExplainEstimator, PreparedPlans, Server, ServerConfig};
use obda_reform::{perfect_ref_pruned, perfect_ref_with_stats};

use crate::dataset::{AboxState, Dataset, Digest};
use crate::reference::{bench_dir, Reference};
use crate::stats::{median, ms, secs};
use crate::workloads::{commit_in_process, wire_select, Tally, TempDir, Wire};

/// Warm replays of the mix in the traced run's serving section.
const WARM_REPLAYS: usize = 5;
/// In-process commits timed in the traced run.
const TRACE_COMMITS: usize = 8;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub stmt: usize,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// An in-memory span recorder. Spans nest by call order: a span opened
/// while another is open is its child.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, stmt: usize, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                name,
                stmt,
                start: self.t0.elapsed(),
                end: Duration::ZERO,
                parent: self.open.borrow().last().copied(),
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.t0.elapsed();
        out
    }

    fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Total duration of the spans named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.end - s.start))
            .sum()
    }

    /// Self time of every span that descends from a span named `root`.
    pub fn self_time_under(&self, root: &str) -> f64 {
        let spans = self.spans();
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let under = |mut i: usize| loop {
            match spans[i].parent {
                Some(p) if spans[p].name == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        spans
            .iter()
            .enumerate()
            .filter(|&(i, _)| under(i))
            .map(|(i, s)| secs((s.end - s.start).saturating_sub(child_time[i])))
            .sum()
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("# id\tparent\tstmt\tname\tstart_us\tend_us\n");
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.stmt,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        std::fs::create_dir_all(path.parent().expect("spans dir"))?;
        std::fs::write(path, out)
    }
}

/// The cost estimator handed to GDL: `InstrumentedEstimator` around the
/// engine's `ExplainEstimator`, with a span per call.
struct SpanEstimator<'a> {
    inner: InstrumentedEstimator<'a, ExplainEstimator<'a>>,
    tracer: &'a Tracer,
    stmt: usize,
}

impl CostEstimator for SpanEstimator<'_> {
    fn estimate(&self, q: &FolQuery) -> f64 {
        self.tracer
            .span("core.estimate", self.stmt, || self.inner.estimate(q))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What one shape's decomposed compilation produced.
struct Compiled {
    fol: FolQuery,
    plans: PreparedPlans,
    sql_bytes: usize,
}

/// Per-layer sums over one decomposed pass.
#[derive(Default)]
struct PassCounts {
    estimate_calls: u64,
    covers_explored: u64,
    moves_applied: u64,
    arms_in: u64,
    arms_kept: u64,
    sql_bytes: u64,
    rows_out: u64,
    scanned: f64,
    work_units: f64,
}

pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub tally: Tally,
    pub spans_path: std::path::PathBuf,
    pub spans: usize,
}

/// The traced run of `workload`.
pub fn run(workload: &str, data: &mut Dataset, reference: &Reference) -> Traced {
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let dir = TempDir::new(&format!("traced-{workload}"));
    let config = ServerConfig::default();
    let server = Arc::new(
        Server::create_durable(
            &dir.0,
            data.onto.voc.clone(),
            data.onto.tbox.clone(),
            &data.abox,
            config,
        )
        .expect("create the durable store"),
    );
    let deps = Dependencies::compute(&data.onto.voc, &data.onto.tbox);
    let mut mine_times = vec![mine_time(&server)];

    // On `commit_mix` the journey starts with a commit.
    let mut state = AboxState::Full;
    if workload == "commit_mix" {
        state = AboxState::Without;
        commit_in_process(&server, &data.toggled, state).expect("commit the toggled facts");
        mine_times.push(mine_time(&server));
    }
    // Each statement is answered twice, on the same snapshot: untraced
    // by `Server::query`, and traced through the decomposed pipeline. The
    // two alternate which goes first, so neither profits from running
    // later in the process.
    let snap = server.snapshot();
    let engine = snap.engine();
    let constraints: Arc<ConstraintSet> = snap.constraints();
    let stats_before = server.cache_stats();
    let order = data.mix_order();
    let mut untraced_pass = Duration::ZERO;
    let mut counts = PassCounts::default();
    let mut compiled: Vec<Option<Compiled>> = (0..data.shapes.len()).map(|_| None).collect();
    for (k, &i) in order.iter().enumerate() {
        let shape = &data.shapes[i];
        let untraced = |pass: &mut Duration| {
            let t0 = Instant::now();
            let out = server.query(&shape.cq);
            *pass += t0.elapsed();
            out.map(|o| {
                (
                    Digest::of_ids(&o.outcome.rows, snap.vocabulary()),
                    o.outcome.sql_bytes,
                )
            })
            .map_err(|e| e.to_string())
        };
        let server_first = k % 2 == 0;
        let early = server_first.then(|| untraced(&mut untraced_pass));
        let (comp, rows) = tracer.span("statement", i, || {
            let fol = tracer.span("reformulate", i, || {
                let analysis = QueryAnalysis::new(&shape.cq, &deps);
                let explain = ExplainEstimator::new(engine);
                let estimator = SpanEstimator {
                    inner: InstrumentedEstimator::new(&explain),
                    tracer: &tracer,
                    stmt: i,
                };
                let out = tracer.span("core.gdl", i, || {
                    gdl(
                        &shape.cq,
                        snap.tbox(),
                        &analysis,
                        &estimator,
                        &GdlConfig::default(),
                    )
                });
                counts.estimate_calls += estimator.inner.calls() as u64;
                counts.covers_explored += (out.explored_simple + out.explored_generalized) as u64;
                counts.moves_applied += out.moves_applied as u64;
                let (fol, stats) = tracer.span("reform.prune", i, || {
                    prune_fol(&FolQuery::Jucq(out.jucq), &constraints)
                });
                counts.arms_in += stats.arms_in as u64;
                counts.arms_kept += stats.kept as u64;
                fol
            });
            let plans = tracer.span("rdbms.plan", i, || engine.prepare(&fol));
            let sql_bytes = tracer.span("rdbms.sqlgen", i, || engine.sql_for(&fol).len());
            let comp = Compiled {
                fol,
                plans,
                sql_bytes,
            };
            let out = tracer.span("rdbms.execute", i, || {
                engine.evaluate_opts(&comp.fol, &eval_options(&comp))
            });
            (comp, out)
        });
        let server_answer = early.unwrap_or_else(|| untraced(&mut untraced_pass));
        counts.sql_bytes += comp.sql_bytes as u64;
        let got = match (rows, server_answer) {
            (Ok(o), Ok(server_answer)) => {
                counts.rows_out += o.rows.len() as u64;
                counts.scanned += o.metrics.scanned;
                counts.work_units += o.metrics.work_units();
                let d = Digest::of_ids(&o.rows, snap.vocabulary());
                // Reconciliation: the decomposed pipeline answers exactly as
                // `Server::query` does, with the same SQL size.
                if (d, comp.sql_bytes) == server_answer {
                    Ok(d)
                } else {
                    Err(format!(
                        "decomposed pipeline ({} rows, {} SQL bytes) differs from Server::query ({} rows, {} SQL bytes)",
                        d.rows, comp.sql_bytes, server_answer.0.rows, server_answer.1
                    ))
                }
            }
            (Err(e), _) => Err(e.to_string()),
            (_, Err(e)) => Err(format!("Server::query: {e}")),
        };
        tally.check(&shape.name, got, reference.expected(state, i));
        compiled[i] = Some(comp);
    }
    let mut hit_ratio = hit_ratio_since(&server, &stats_before);
    let traced_pass = tracer.total("statement");

    // Standalone layer calls the pipeline hides inside GDL.
    let mut output_cqs = 0u64;
    let (mut generated, mut axiom_apps, mut reduce_steps, mut removed) = (0u64, 0u64, 0u64, 0u64);
    for &i in &data.timed {
        let shape = &data.shapes[i];
        let tbox = &data.onto.tbox;
        let pruned = tracer.span("reform.perfect_ref", i, || {
            perfect_ref_pruned(&shape.cq, tbox)
        });
        output_cqs += pruned.len() as u64;
        let (_, stats) = tracer.span("reform.perfect_ref_with_stats", i, || {
            perfect_ref_with_stats(&shape.cq, tbox)
        });
        generated += stats.generated as u64;
        axiom_apps += stats.axiom_applications as u64;
        reduce_steps += stats.reduce_steps as u64;
        let minimized = tracer.span("query.minimize", i, || minimize_ucq(&pruned));
        removed += (pruned.len() - minimized.len()) as u64;
    }

    // Serving section: warm replays, prepared-plan execution and the wire.
    // On `warm_wire` these replays are the journey whose hit ratio counts.
    let stats_before = server.cache_stats();
    let wire = Wire::bind(server.clone());
    let mut client = wire.connect();
    let mut overhead = Vec::new();
    let mut execute_by_shape: Vec<Vec<f64>> = vec![Vec::new(); data.shapes.len()];
    for _ in 0..WARM_REPLAYS {
        for &i in &data.mix_order() {
            let shape = &data.shapes[i];
            let comp = compiled[i].as_ref().expect("compiled in the pass");
            let t0 = Instant::now();
            let _ = tracer.span("rdbms.execute_warm", i, || {
                engine.evaluate_opts(&comp.fol, &eval_options(comp))
            });
            execute_by_shape[i].push(secs(t0.elapsed()));
            let t0 = Instant::now();
            let local = tracer.span("server.query", i, || server.query(&shape.cq));
            let local_s = secs(t0.elapsed());
            let t0 = Instant::now();
            let remote = tracer.span("pgwire.query", i, || wire_select(&mut client, &shape.wire));
            overhead.push(secs(t0.elapsed()) - local_s);
            let local = local
                .map(|o| Digest::of_ids(&o.outcome.rows, server.snapshot().vocabulary()))
                .map_err(|e| e.to_string());
            tally.check(&shape.name, local, reference.expected(state, i));
            tally.check(&shape.name, remote, reference.expected(state, i));
        }
    }
    client.terminate();
    drop(wire);
    if workload == "warm_wire" {
        hit_ratio = hit_ratio_since(&server, &stats_before);
    }

    // Commit section: in-process commits, their groups and WAL growth.
    let wal = dir.0.join("wal.bin");
    let wal_before = std::fs::metadata(&wal).map_or(0, |m| m.len());
    let groups_before = server.txn_stats().commit_groups;
    let mut commit_times = Vec::new();
    for k in 0..TRACE_COMMITS {
        let target = if (k % 2 == 0) == (state == AboxState::Full) {
            AboxState::Without
        } else {
            AboxState::Full
        };
        let t0 = Instant::now();
        let committed = tracer.span("server.commit", k, || {
            commit_in_process(&server, &data.toggled, target)
        });
        commit_times.push(ms(t0.elapsed()));
        tally.check_ok("in-process commit", committed);
        mine_times.push(mine_time(&server));
    }
    let wal_growth = std::fs::metadata(&wal).map_or(0, |m| m.len()) - wal_before;
    let invalidated = server.cache_stats().invalidated;
    let groups = server.txn_stats().commit_groups - groups_before;

    let gdl_s = tracer.total("core.gdl");
    let estimate_s = tracer.total("core.estimate");
    let accounted = tracer.self_time_under("statement");
    let untraced_s = secs(untraced_pass);
    let output = output_cqs as f64;
    let metrics = vec![
        (
            "reform.perfect_ref_s",
            tracer.total("reform.perfect_ref"),
            "s",
        ),
        ("reform.generated_cqs", generated as f64, "count"),
        ("reform.output_cqs", output, "count"),
        (
            "reform.kept_ratio",
            output / generated.max(1) as f64,
            "ratio",
        ),
        ("reform.axiom_applications", axiom_apps as f64, "count"),
        ("reform.reduce_steps", reduce_steps as f64, "count"),
        ("reform.prune_s", tracer.total("reform.prune"), "s"),
        ("reform.arms_in", counts.arms_in as f64, "count"),
        ("reform.arms_kept", counts.arms_kept as f64, "count"),
        ("query.minimize_s", tracer.total("query.minimize"), "s"),
        ("query.minimize_removed", removed as f64, "count"),
        ("core.gdl_s", gdl_s, "s"),
        ("core.estimate_s", estimate_s, "s"),
        ("core.estimate_calls", counts.estimate_calls as f64, "count"),
        ("core.gdl_self_s", gdl_s - estimate_s, "s"),
        (
            "core.covers_explored",
            counts.covers_explored as f64,
            "count",
        ),
        ("core.moves_applied", counts.moves_applied as f64, "count"),
        ("dllite.mine_s", median(&mine_times), "s"),
        ("rdbms.plan_s", tracer.total("rdbms.plan"), "s"),
        ("rdbms.sqlgen_s", tracer.total("rdbms.sqlgen"), "s"),
        ("rdbms.sql_bytes", counts.sql_bytes as f64, "count"),
        (
            "rdbms.execute_s",
            execute_by_shape
                .iter()
                .filter(|v| !v.is_empty())
                .map(|v| median(v))
                .sum(),
            "s",
        ),
        ("rdbms.rows_out", counts.rows_out as f64, "count"),
        (
            "rdbms.scanned_per_row",
            counts.scanned / counts.rows_out.max(1) as f64,
            "ratio",
        ),
        ("rdbms.work_units", counts.work_units, "count"),
        ("server.cache_hit_ratio", hit_ratio, "ratio"),
        ("server.cache_invalidated", invalidated as f64, "count"),
        ("server.commit_ms", median(&commit_times), "ms"),
        ("server.commit_groups", groups as f64, "count"),
        (
            "store.wal_bytes_per_commit",
            wal_growth as f64 / TRACE_COMMITS as f64,
            "bytes",
        ),
        ("pgwire.overhead_ms", median(&overhead) * 1e3, "ms"),
        ("trace.pass_s", traced_pass, "s"),
        ("trace.untraced_pass_s", untraced_s, "s"),
        ("trace.accounted_ratio", accounted / untraced_s, "ratio"),
        (
            "trace.overhead_ratio",
            traced_pass / untraced_s - 1.0,
            "ratio",
        ),
    ];
    let spans_path = bench_dir()
        .join("out")
        .join("spans")
        .join(format!("{workload}-seed{}.tsv", data.seed));
    if let Err(e) = tracer.write(&spans_path) {
        eprintln!("cannot write {}: {e}", spans_path.display());
    }
    let spans = tracer.spans().len();
    Traced {
        metrics,
        tally,
        spans_path,
        spans,
    }
}

/// The evaluation options `Server::query` uses for a compiled statement
/// on the native backend.
fn eval_options(comp: &Compiled) -> EvalOptions<'_> {
    EvalOptions {
        prepared: Some(&comp.plans),
        threads: ServerConfig::default().threads,
        sql_bytes: Some(comp.sql_bytes),
        backend: Some(Backend::Native),
        ..EvalOptions::default()
    }
}

/// Plan-cache hits per statement served since `before`.
fn hit_ratio_since(server: &Server, before: &obda_rdbms::CacheStats) -> f64 {
    let now = server.cache_stats();
    let served = (now.hits + now.misses) - (before.hits + before.misses);
    (now.hits - before.hits) as f64 / served.max(1) as f64
}

/// Time mining the constraints of the server's current generation anew
/// (TBox closure, extents, `ConstraintSet::mine`), as the first compile
/// against a fresh generation does.
fn mine_time(server: &Server) -> f64 {
    let snap = server.snapshot();
    let t0 = Instant::now();
    let closure = TBoxClosure::compute(snap.tbox());
    let extents = snap.engine().extract_extents(snap.vocabulary());
    std::hint::black_box(ConstraintSet::mine(&closure, &extents));
    secs(t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {}
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        tracer.span("statement", 0, || {
            tracer.span("outer", 0, || {
                busy(Duration::from_millis(4));
                tracer.span("inner", 0, || busy(Duration::from_millis(6)));
            });
        });
        let (outer, inner) = (tracer.total("outer"), tracer.total("inner"));
        assert!(outer >= 0.010 && inner >= 0.006 && inner < outer);
        // Self times under the statement sum to the outer span: the outer
        // span's own part plus the inner span.
        assert!((tracer.self_time_under("statement") - outer).abs() < 1e-9);
        assert!((tracer.self_time_under("outer") - inner).abs() < 1e-9);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
    }
}
