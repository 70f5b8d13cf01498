//! The timed workloads (tracing off). Each sets up its server, runs its
//! closed loop for the requested seconds and checks every answer
//! against the reference.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obda_rdbms::{PgConfig, PgListener, Server, ServerConfig, WireClient};

use crate::dataset::{AboxState, Dataset, Digest, Fact};
use crate::reference::{bench_dir, Reference};
use crate::stats::{median, peak_rss_mb, percentile, secs, tail};

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 9;

/// The measurements of one timed run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Per-statement latencies of the read loop, seconds.
    pub stmt: Vec<f64>,
    /// Wall time of each replay of the mix, seconds.
    pub pass: Vec<f64>,
    /// Commit round trips, seconds (`commit_mix` only).
    pub commit: Vec<f64>,
    /// Wall time of the priming pass, seconds (`warm_wire` only).
    pub prime_s: Option<f64>,
    /// Read-loop statement latencies by shape index, seconds.
    pub by_shape: Vec<Vec<f64>>,
    pub setup_s: f64,
    /// Wall time of the read loop, seconds.
    pub window_s: f64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one statement, failed unless it returned `expected`.
    pub fn check(&mut self, what: &str, got: Result<Digest, String>, expected: Digest) {
        self.attempted += 1;
        let problem = match got {
            Ok(d) if d == expected => return,
            Ok(d) => format!(
                "{what}: {} rows (digest {:016x}), expected {} ({:016x})",
                d.rows, d.sum, expected.rows, expected.sum
            ),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(problem);
        }
    }

    /// Record one statement latency of shape `i`.
    fn timed(&mut self, i: usize, took: f64) {
        if self.by_shape.len() <= i {
            self.by_shape.resize(i + 1, Vec::new());
        }
        self.by_shape[i].push(took);
        self.stmt.push(took);
    }

    /// Count one statement that has no rows to check, failed on error.
    pub fn check_ok<T>(&mut self, what: &str, got: Result<T, String>) {
        self.check(what, got.map(|_| Digest::default()), Digest::default());
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.pass.extend(other.pass);
        for (i, v) in other.by_shape.into_iter().enumerate() {
            for took in v {
                self.timed(i, took);
            }
        }
        self.failures.extend(other.failures);
    }

    /// The sum over the mix's shapes of `pick` applied to each shape's
    /// latencies, seconds.
    fn per_shape_sum(&self, pick: impl Fn(&[f64]) -> f64) -> f64 {
        self.by_shape
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| pick(v))
            .sum()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            (
                "pass_best_s",
                self.per_shape_sum(|v| percentile(v, 0.0)),
                "s",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// Figures printed and recorded with every result but not bounded:
    /// they follow the host's slow phases (see README).
    pub fn unbounded(&self) -> Vec<(String, f64, &'static str)> {
        let (p, tail_s) = tail(&self.stmt);
        let mut out = vec![
            ("pass_p50_s".into(), self.per_shape_sum(median), "s"),
            ("stmt_p50_ms".into(), median(&self.stmt) * 1e3, "ms"),
            (
                format!("stmt_tail_ms (p{p} of {})", self.stmt.len()),
                tail_s * 1e3,
                "ms",
            ),
            (
                "qps".into(),
                self.stmt.len() as f64 / self.window_s,
                "stmt/s",
            ),
        ];
        if !self.commit.is_empty() {
            out.push(("commit_p50_ms".into(), median(&self.commit) * 1e3, "ms"));
        }
        if let Some(prime_s) = self.prime_s {
            out.push(("prime_s".into(), prime_s, "s"));
        }
        out
    }

    /// How many samples each figure rests on.
    pub fn note(&self) -> String {
        format!(
            "{} statements, {} passes, {} commits in {:.1} s",
            self.stmt.len(),
            self.pass.len(),
            self.commit.len(),
            self.window_s
        )
    }
}

/// Build a server with the `ServerConfig` defaults (simple layout,
/// native backend, GDL without a time budget, constraints on, plan cache
/// on, `sync_commits` off) and mine its constraints; the set-up every
/// workload repeats. `dir` makes it durable.
fn build_server(data: &Dataset, dir: Option<&Path>) -> (Server, f64) {
    let started = Instant::now();
    let config = ServerConfig::default();
    let (voc, tbox) = (data.onto.voc.clone(), data.onto.tbox.clone());
    let server = match dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Server::create_durable(dir, voc, tbox, &data.abox, config)
                .expect("create the durable store")
        }
        None => Server::new(voc, tbox, &data.abox, config),
    };
    server.snapshot().constraints();
    (server, secs(started.elapsed()))
}

fn repeated_setup(data: &Dataset, dir: Option<&Path>) -> (Server, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (server, t) = build_server(data, dir);
        times.push(t);
        last = Some(server);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// A temporary directory for a durable store, inside the benchmark's
/// ignored output directory; removed when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        let dir = bench_dir()
            .join("out")
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.parent().expect("tmp parent"))
            .expect("create the temporary directory");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Commit one transaction that moves the ABox into `state`.
pub fn commit_in_process(
    server: &Server,
    toggled: &[Fact],
    state: AboxState,
) -> Result<u64, String> {
    let mut txn = server.begin();
    for f in toggled {
        match (*f, state) {
            (Fact::Concept(c, a), AboxState::Full) => txn.insert_concept(c, a),
            (Fact::Concept(c, a), AboxState::Without) => txn.retract_concept(c, a),
            (Fact::Role(r, a, b), AboxState::Full) => txn.insert_role(r, a, b),
            (Fact::Role(r, a, b), AboxState::Without) => txn.retract_role(r, a, b),
        }
    }
    txn.commit().map_err(|e| e.to_string())
}

/// A wire listener on an ephemeral local port, shut down on drop.
pub struct Wire(pub PgListener);

impl Wire {
    pub fn bind(server: Arc<Server>) -> Wire {
        let listener = PgListener::bind("127.0.0.1:0", server, PgConfig::default())
            .expect("bind the wire listener");
        Wire(listener)
    }

    pub fn connect(&self) -> WireClient {
        WireClient::connect(&self.0.local_addr(), &[]).expect("connect a wire session")
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Run one SELECT over the wire and digest its rows.
pub fn wire_select(client: &mut WireClient, text: &str) -> Result<Digest, String> {
    let results = client.simple_query(text).map_err(|e| e.to_string())?;
    match results.as_slice() {
        [one] => Ok(Digest::of_text(&one.rows)),
        other => Err(format!("expected one result, got {}", other.len())),
    }
}

/// Run one `BEGIN; …; COMMIT` buffer over the wire.
pub fn wire_commit(client: &mut WireClient, text: &str) -> Result<(), String> {
    let results = client.simple_query(text).map_err(|e| e.to_string())?;
    match results.last() {
        Some(r) if r.tag == "COMMIT" => Ok(()),
        Some(r) => Err(format!("commit ended with tag '{}'", r.tag)),
        None => Err("commit returned no results".into()),
    }
}

/// One replay of the mix by one wire session, in `order`.
fn wire_pass(
    client: &mut WireClient,
    data: &Dataset,
    reference: &Reference,
    state: AboxState,
    order: &[usize],
    tally: &mut Tally,
) {
    let pass_started = Instant::now();
    for &i in order {
        let shape = &data.shapes[i];
        let t0 = Instant::now();
        let got = wire_select(client, &shape.wire);
        tally.timed(i, secs(t0.elapsed()));
        tally.check(&shape.name, got, reference.expected(state, i));
    }
    tally.pass.push(secs(pass_started.elapsed()));
}

/// `warm_wire`: two wire sessions replay the mix in a closed loop after
/// one priming pass.
pub fn warm_wire(data: &mut Dataset, reference: &Reference, seconds: f64) -> Tally {
    let (server, build_s) = repeated_setup(data, None);
    let started = Instant::now();
    let wire = Wire::bind(Arc::new(server));
    let mut clients = [wire.connect(), wire.connect()];
    let mut tally = Tally {
        setup_s: build_s + secs(started.elapsed()),
        ..Tally::default()
    };
    // One priming pass, split between the two sessions (alternate shapes
    // of the mix), so every shape is compiled once. It is timed apart
    // from set-up: a cold compile on two threads, its median moved by a
    // fifth between two ten-seed sets of the same code.
    let primed = Instant::now();
    let primes: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let data: &Dataset = data;
                s.spawn(move || {
                    let mut part = Tally::default();
                    let shapes: Vec<usize> =
                        data.timed.iter().copied().skip(k).step_by(2).collect();
                    wire_pass(client, data, reference, AboxState::Full, &shapes, &mut part);
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("priming thread"))
            .collect()
    });
    tally.prime_s = Some(secs(primed.elapsed()));
    // The priming answers count, their times do not.
    for prime in primes {
        tally.attempted += prime.attempted;
        tally.failed += prime.failed;
        tally.failures.extend(prime.failures);
    }

    // Each session replays the mix in its own seed-determined orders.
    let orders: Vec<Vec<Vec<usize>>> = (0..clients.len())
        .map(|_| (0..32).map(|_| data.mix_order()).collect())
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let loop_started = Instant::now();
    let data_ref: &Dataset = data;
    let parts: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&orders)
            .map(|(client, orders)| {
                s.spawn(move || {
                    let mut part = Tally::default();
                    let mut k = 0;
                    while Instant::now() < deadline {
                        let order = &orders[k % orders.len()];
                        wire_pass(
                            client,
                            data_ref,
                            reference,
                            AboxState::Full,
                            order,
                            &mut part,
                        );
                        k += 1;
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    tally.window_s = secs(loop_started.elapsed());
    for part in parts {
        tally.absorb(part);
    }
    for c in clients {
        c.terminate();
    }
    tally
}

/// `commit_mix`: rounds of one committed write by one session followed
/// by one replay of the mix by the other, on a durable server.
pub fn commit_mix(data: &mut Dataset, reference: &Reference, seconds: f64) -> Tally {
    let dir = TempDir::new("commit_mix");
    let (server, build_s) = repeated_setup(data, Some(&dir.0));
    let started = Instant::now();
    let wire = Wire::bind(Arc::new(server));
    let (mut writer, mut reader) = (wire.connect(), wire.connect());
    let mut tally = Tally {
        setup_s: build_s + secs(started.elapsed()),
        ..Tally::default()
    };
    let loop_started = Instant::now();
    let mut state = AboxState::Full;
    while tally.pass.is_empty() || secs(loop_started.elapsed()) < seconds {
        state = match state {
            AboxState::Full => AboxState::Without,
            AboxState::Without => AboxState::Full,
        };
        let t0 = Instant::now();
        let committed = wire_commit(&mut writer, &data.commit_text(state));
        tally.commit.push(secs(t0.elapsed()));
        tally.check_ok("wire commit", committed);
        let order = data.mix_order();
        wire_pass(&mut reader, data, reference, state, &order, &mut tally);
    }
    tally.window_s = secs(loop_started.elapsed());
    writer.terminate();
    reader.terminate();
    tally
}
