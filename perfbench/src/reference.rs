//! Expected answers, from evaluators that share no code with
//! reformulation or the executor.
//!
//! * **Blessed** references come from `obda_query::eval::certain_answers`
//!   (a chase-based evaluator). It is far too slow to run inside a
//!   benchmark run (minutes per shape at 20k facts), so `perfbench bless`
//!   runs it once per seed and stores one digest per (ABox state, shape)
//!   under `reference/`.
//! * For a seed without a blessed file, the run computes its own
//!   reference before set-up starts, by evaluating each shape over one
//!   bounded chase of the ABox with the join below, and caches it under
//!   `out/reference/`. Blessing runs both evaluators and refuses to write
//!   a file on which they disagree, so the fast one is checked against
//!   the slow one on every blessed seed.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use obda_dllite::{chase, ABox, ChaseInstance, ChaseTerm, IndividualId, TBox, Vocabulary};
use obda_query::{Atom, Term, CQ};

use crate::dataset::{AboxState, Dataset, Digest};

pub const STATES: [AboxState; 2] = [AboxState::Full, AboxState::Without];

/// Expected digests, per ABox state and shape index.
pub struct Reference {
    full: Vec<Digest>,
    without: Vec<Digest>,
    /// Where the digests came from: `blessed`, `cached` or `computed`.
    pub origin: &'static str,
    /// Time spent computing a reference in this run (0 when loaded).
    pub compute_s: f64,
}

impl Reference {
    pub fn expected(&self, state: AboxState, shape: usize) -> Digest {
        match state {
            AboxState::Full => self.full[shape],
            AboxState::Without => self.without[shape],
        }
    }

    /// Load the blessed or cached reference of `data`'s seed, computing
    /// (and caching) it when neither exists.
    pub fn for_dataset(data: &Dataset) -> Reference {
        for (path, origin) in [
            (blessed_path(data.seed), "blessed"),
            (cache_path(data.seed), "cached"),
        ] {
            if let Ok(text) = std::fs::read_to_string(&path) {
                match parse(&text, data) {
                    Ok((full, without)) => {
                        return Reference {
                            full,
                            without,
                            origin,
                            compute_s: 0.0,
                        }
                    }
                    Err(e) => eprintln!("ignoring {}: {e}", path.display()),
                }
            }
        }
        let started = Instant::now();
        let full = chase_digests(data, AboxState::Full);
        let without = chase_digests(data, AboxState::Without);
        let reference = Reference {
            full,
            without,
            origin: "computed",
            compute_s: started.elapsed().as_secs_f64(),
        };
        let path = cache_path(data.seed);
        let text = render(data, &reference.full, &reference.without, CHASE_JOIN);
        if let Err(e) = std::fs::create_dir_all(path.parent().expect("cache dir"))
            .and_then(|()| std::fs::write(&path, text))
        {
            eprintln!("cannot cache the reference at {}: {e}", path.display());
        }
        reference
    }
}

pub fn bench_dir() -> PathBuf {
    PathBuf::from(std::env::var("PERFBENCH_DIR").unwrap_or_else(|_| "perfbench".into()))
}

fn blessed_path(seed: u64) -> PathBuf {
    bench_dir()
        .join("reference")
        .join(format!("seed-{seed}.tsv"))
}

fn cache_path(seed: u64) -> PathBuf {
    bench_dir()
        .join("out")
        .join("reference")
        .join(format!("seed-{seed}.tsv"))
}

/// Which evaluator produced a digest.
const CERTAIN: &str = "certain_answers";
const CHASE_JOIN: &str = "chase_join";

fn header(data: &Dataset) -> String {
    format!(
        "# seed {} facts {} toggled {}\n",
        data.seed,
        data.abox.len(),
        data.toggled.len()
    )
}

fn line(state: AboxState, shape: &str, d: Digest, evaluator: &str) -> String {
    format!(
        "{}\t{shape}\t{}\t{:016x}\t{evaluator}\n",
        state.label(),
        d.rows,
        d.sum
    )
}

fn render(data: &Dataset, full: &[Digest], without: &[Digest], evaluator: &str) -> String {
    let mut out = header(data);
    out.push_str("# state shape rows digest evaluator\n");
    for (state, digests) in [(AboxState::Full, full), (AboxState::Without, without)] {
        for (shape, d) in data.shapes.iter().zip(digests) {
            out.push_str(&line(state, &shape.name, *d, evaluator));
        }
    }
    out
}

/// A reference file's digests and evaluators, by (state label, shape name).
type Entries = HashMap<(String, String), (Digest, String)>;

/// The entries of a reference file.
fn entries(text: &str, data: &Dataset) -> Result<Entries, String> {
    if !text.starts_with(&header(data)) {
        return Err("header does not match the generated dataset".into());
    }
    let mut map = HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 5 {
            return Err(format!("malformed line '{line}'"));
        }
        let rows = f[2]
            .parse()
            .map_err(|_| format!("bad row count in '{line}'"))?;
        let sum = u64::from_str_radix(f[3], 16).map_err(|_| format!("bad digest in '{line}'"))?;
        map.insert(
            (f[0].to_owned(), f[1].to_owned()),
            (Digest { rows, sum }, f[4].to_owned()),
        );
    }
    Ok(map)
}

fn parse(text: &str, data: &Dataset) -> Result<(Vec<Digest>, Vec<Digest>), String> {
    let map = entries(text, data)?;
    let mut states = STATES.iter().map(|state| {
        data.shapes
            .iter()
            .map(|s| {
                map.get(&(state.label().to_owned(), s.name.clone()))
                    .map(|(d, _)| *d)
                    .ok_or_else(|| format!("no digest for {} {}", state.label(), s.name))
            })
            .collect::<Result<Vec<Digest>, String>>()
    });
    let full = states.next().expect("two states")?;
    let without = states.next().expect("two states")?;
    Ok((full, without))
}

/// `perfbench bless --seed N --cap-seconds S`: for every ABox state and
/// shape, run `certain_answers` in a child process (`bless-one`) and
/// compare it with the fast chase join; refuse on any disagreement. A
/// shape whose `certain_answers` run exceeds the cap is stored with the
/// chase join's digest and marked `chase_join`. Progress is kept under
/// `out/bless/`, so an interrupted blessing resumes where it stopped.
pub fn bless(seed: u64, cap: Duration) -> Result<(), String> {
    let data = Dataset::generate(seed);
    let progress = bench_dir()
        .join("out")
        .join("bless")
        .join(format!("seed-{seed}.tsv"));
    let mut done = std::fs::read_to_string(&progress)
        .ok()
        .and_then(|t| entries(&t, &data).ok())
        .unwrap_or_default();
    if done.is_empty() {
        std::fs::create_dir_all(progress.parent().expect("bless dir"))
            .map_err(|e| e.to_string())?;
        std::fs::write(&progress, header(&data)).map_err(|e| e.to_string())?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = header(&data);
    out.push_str("# state shape rows digest evaluator (certain_answers, or chase_join where certain_answers ran over the cap)\n");
    for state in STATES {
        let fast = chase_digests(&data, state);
        for (i, shape) in data.shapes.iter().enumerate() {
            let key = (state.label().to_owned(), shape.name.clone());
            let (d, evaluator) = match done.remove(&key) {
                Some((d, evaluator)) => (d, evaluator),
                None => {
                    let started = Instant::now();
                    let (d, evaluator) = match bless_one_child(&exe, seed, state, i, cap)? {
                        Some(d) => (d, CERTAIN.to_owned()),
                        None => (fast[i], CHASE_JOIN.to_owned()),
                    };
                    eprintln!(
                        "seed {seed} {} {}: {} rows by {evaluator} in {:.1} s",
                        state.label(),
                        shape.name,
                        d.rows,
                        started.elapsed().as_secs_f64()
                    );
                    let mut f = std::fs::OpenOptions::new()
                        .append(true)
                        .open(&progress)
                        .map_err(|e| e.to_string())?;
                    std::io::Write::write_all(
                        &mut f,
                        line(state, &shape.name, d, &evaluator).as_bytes(),
                    )
                    .map_err(|e| e.to_string())?;
                    (d, evaluator)
                }
            };
            if d != fast[i] {
                return Err(format!(
                    "seed {seed} {} {}: {evaluator} gives {d:?}, the chase join {:?}",
                    state.label(),
                    shape.name,
                    fast[i]
                ));
            }
            out.push_str(&line(state, &shape.name, d, &evaluator));
        }
    }
    let path = blessed_path(seed);
    std::fs::create_dir_all(path.parent().expect("reference dir")).map_err(|e| e.to_string())?;
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Run `bless-one` for one shape; `None` when it uses more than `cap` of
/// CPU time.
fn bless_one_child(
    exe: &std::path::Path,
    seed: u64,
    state: AboxState,
    shape: usize,
    cap: Duration,
) -> Result<Option<Digest>, String> {
    let mut child = std::process::Command::new(exe)
        .args([
            "bless-one",
            "--seed",
            &seed.to_string(),
            "--state",
            state.label(),
            "--shape",
            &shape.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut child.stdout.take().expect("piped"), &mut text)
                .map_err(|e| e.to_string())?;
            let f: Vec<&str> = text.split_whitespace().collect();
            return match (status.success(), f.as_slice()) {
                (true, [rows, sum]) => Ok(Some(Digest {
                    rows: rows.parse().map_err(|_| "bad bless-one output")?,
                    sum: u64::from_str_radix(sum, 16).map_err(|_| "bad bless-one output")?,
                })),
                _ => Err(format!("bless-one failed: {status}, output '{text}'")),
            };
        }
        if cpu_time(child.id()) > cap {
            let _ = child.kill();
            let _ = child.wait();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// CPU time a process has used (user + system, from `/proc`), so the cap
/// holds however the process is niced, paused or contended.
fn cpu_time(pid: u32) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15, in clock ticks (100 per second).
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// `perfbench bless-one`: print the `certain_answers` digest of one
/// shape in one ABox state as `rows digest`.
pub fn bless_one(seed: u64, state: AboxState, shape: usize) {
    let data = Dataset::generate(seed);
    let abox = data.abox_in(state);
    let answers = obda_query::eval::certain_answers(&data.onto.tbox, &abox, &data.shapes[shape].cq);
    let d = digest_answers(&answers, &data.onto.voc);
    println!("{} {:016x}", d.rows, d.sum);
}

fn digest_answers(answers: &HashSet<Vec<IndividualId>>, voc: &Vocabulary) -> Digest {
    let mut d = Digest::default();
    for row in answers {
        d.add_row(row.iter().map(|&i| voc.individual_name(i)));
    }
    d
}

/// Digests of every shape over one chase of `state`'s ABox, deep enough
/// for the largest shape (`|q| + 1`, the bound `certain_answers` uses).
fn chase_digests(data: &Dataset, state: AboxState) -> Vec<Digest> {
    let abox = data.abox_in(state);
    let depth = data
        .shapes
        .iter()
        .map(|s| s.cq.num_atoms())
        .max()
        .unwrap_or(0) as u32
        + 1;
    let join = ChaseJoin::new(&data.onto.tbox, &abox, &data.onto.voc, depth);
    data.shapes
        .iter()
        .map(|s| digest_answers(&join.answers(&s.cq), &data.onto.voc))
        .collect()
}

/// Certain answers by backtracking over a chased instance, always
/// extending with the atom that has the fewest candidates under the
/// current bindings.
struct ChaseJoin {
    inst: ChaseInstance,
    concept: HashMap<obda_dllite::ConceptId, HashSet<ChaseTerm>>,
    forward: HashMap<obda_dllite::RoleId, HashMap<ChaseTerm, Vec<ChaseTerm>>>,
    backward: HashMap<obda_dllite::RoleId, HashMap<ChaseTerm, Vec<ChaseTerm>>>,
}

impl ChaseJoin {
    fn new(tbox: &TBox, abox: &ABox, voc: &Vocabulary, depth: u32) -> ChaseJoin {
        let inst = chase(tbox, abox, depth);
        let concept = voc
            .concept_ids()
            .map(|c| (c, inst.concept_members(c).iter().copied().collect()))
            .collect();
        let (mut forward, mut backward) = (HashMap::new(), HashMap::new());
        for r in voc.role_ids() {
            let (mut fwd, mut bwd): (HashMap<_, Vec<_>>, HashMap<_, Vec<_>>) =
                (HashMap::new(), HashMap::new());
            for &(a, b) in inst.role_pairs(r) {
                fwd.entry(a).or_default().push(b);
                bwd.entry(b).or_default().push(a);
            }
            forward.insert(r, fwd);
            backward.insert(r, bwd);
        }
        ChaseJoin {
            inst,
            concept,
            forward,
            backward,
        }
    }

    fn answers(&self, cq: &CQ) -> HashSet<Vec<IndividualId>> {
        let terms = cq.atoms().iter().flat_map(|a| match *a {
            Atom::Concept(_, t) => vec![t],
            Atom::Role(_, s, o) => vec![s, o],
        });
        let nvars = terms
            .chain(cq.head().iter().copied())
            .filter_map(|t| match t {
                Term::Var(v) => Some(v.0 as usize + 1),
                Term::Const(_) => None,
            })
            .max()
            .unwrap_or(0);
        let mut head_var = vec![false; nvars];
        for t in cq.head() {
            if let Term::Var(v) = t {
                head_var[v.0 as usize] = true;
            }
        }
        let search = Search {
            join: self,
            head_var,
        };
        let mut out = HashSet::new();
        let mut binding = vec![None; nvars];
        let mut remaining: Vec<Atom> = cq.atoms().to_vec();
        search.extend(&mut remaining, &mut binding, cq.head(), &mut out);
        out
    }
}

struct Search<'a> {
    join: &'a ChaseJoin,
    head_var: Vec<bool>,
}

impl Search<'_> {
    fn value(&self, t: Term, binding: &[Option<ChaseTerm>]) -> Option<ChaseTerm> {
        match t {
            Term::Const(c) => Some(ChaseTerm::Const(c)),
            Term::Var(v) => binding[v.0 as usize],
        }
    }

    /// Candidate count of `atom` under `binding` (smaller is better).
    fn width(&self, atom: &Atom, binding: &[Option<ChaseTerm>]) -> usize {
        match *atom {
            Atom::Concept(c, t) => match self.value(t, binding) {
                Some(_) => 0,
                None => self.join.concept[&c].len(),
            },
            Atom::Role(r, s, o) => match (self.value(s, binding), self.value(o, binding)) {
                (Some(_), Some(_)) => 0,
                (Some(a), None) => self.join.forward[&r].get(&a).map_or(0, Vec::len),
                (None, Some(b)) => self.join.backward[&r].get(&b).map_or(0, Vec::len),
                (None, None) => self.join.inst.role_pairs(r).len(),
            },
        }
    }

    /// Bind `t` to `value`; false when that contradicts the binding or
    /// puts a null into the answer head.
    fn bind(
        &self,
        t: Term,
        value: ChaseTerm,
        binding: &mut [Option<ChaseTerm>],
        bound: &mut Vec<usize>,
    ) -> bool {
        match t {
            Term::Const(c) => value == ChaseTerm::Const(c),
            Term::Var(v) => {
                let i = v.0 as usize;
                match binding[i] {
                    Some(existing) => existing == value,
                    None => {
                        if self.head_var[i] && !value.is_const() {
                            return false;
                        }
                        binding[i] = Some(value);
                        bound.push(i);
                        true
                    }
                }
            }
        }
    }

    fn extend(
        &self,
        remaining: &mut Vec<Atom>,
        binding: &mut [Option<ChaseTerm>],
        head: &[Term],
        out: &mut HashSet<Vec<IndividualId>>,
    ) {
        let Some(pick) = (0..remaining.len()).min_by_key(|&i| self.width(&remaining[i], binding))
        else {
            let row: Vec<IndividualId> = head
                .iter()
                .map(|&t| match self.value(t, binding) {
                    Some(ChaseTerm::Const(c)) => c,
                    _ => unreachable!("head variables bind to constants"),
                })
                .collect();
            out.insert(row);
            return;
        };
        let atom = remaining.swap_remove(pick);
        let candidates: Vec<(ChaseTerm, Option<ChaseTerm>)> = match atom {
            Atom::Concept(c, t) => match self.value(t, binding) {
                Some(v) if self.join.concept[&c].contains(&v) => vec![(v, None)],
                Some(_) => Vec::new(),
                None => self.join.concept[&c].iter().map(|&v| (v, None)).collect(),
            },
            Atom::Role(r, s, o) => match (self.value(s, binding), self.value(o, binding)) {
                (Some(a), Some(b)) => {
                    let hit = self.join.forward[&r]
                        .get(&a)
                        .is_some_and(|bs| bs.contains(&b));
                    if hit {
                        vec![(a, Some(b))]
                    } else {
                        Vec::new()
                    }
                }
                (Some(a), None) => self.join.forward[&r]
                    .get(&a)
                    .map(|bs| bs.iter().map(|&b| (a, Some(b))).collect())
                    .unwrap_or_default(),
                (None, Some(b)) => self.join.backward[&r]
                    .get(&b)
                    .map(|as_| as_.iter().map(|&a| (a, Some(b))).collect())
                    .unwrap_or_default(),
                (None, None) => self
                    .join
                    .inst
                    .role_pairs(r)
                    .iter()
                    .map(|&(a, b)| (a, Some(b)))
                    .collect(),
            },
        };
        for (first, second) in candidates {
            let mut bound = Vec::new();
            let ok = match atom {
                Atom::Concept(_, t) => self.bind(t, first, binding, &mut bound),
                Atom::Role(_, s, o) => {
                    self.bind(s, first, binding, &mut bound)
                        && self.bind(o, second.expect("role pair"), binding, &mut bound)
                }
            };
            if ok {
                self.extend(remaining, binding, head, out);
            }
            for i in bound {
                binding[i] = None;
            }
        }
        remaining.push(atom);
        let last = remaining.len() - 1;
        remaining.swap(pick, last);
    }
}
