//! The benchmark's inputs, all made from one seed: the LUBM ABox, the
//! 14-shape statement mix (rendered to wire text from vocabulary names),
//! the facts the commit workload toggles, and the per-seed statement
//! order.

use obda_dllite::{ABox, IndividualId};
use obda_lubm::{generate, star_query, workload, GenConfig, UnivOntology};
use obda_query::{Atom, Term, CQ};

/// The ABox size target; 20,330 facts at the generator's default seed.
pub const TARGET_FACTS: usize = 20_000;

/// The shapes left out of the mix: each takes 0.8-16 s to compile cold
/// at the seed commit. A run holds too few of their compiles for a
/// steady figure when the host slows for minutes at a time (README,
/// "The mix").
pub const LEFT_OUT: [&str; 5] = ["Q6", "Q7", "Q9", "Q10", "Q13"];

/// One statement shape of the mix.
pub struct Shape {
    pub name: String,
    pub cq: CQ,
    /// The same query as wire text (`SELECT ?v0 WHERE Name(?v0), ...`).
    pub wire: String,
}

/// A ground fact, by vocabulary ids.
#[derive(Clone, Copy, Debug)]
pub enum Fact {
    Concept(obda_dllite::ConceptId, IndividualId),
    Role(obda_dllite::RoleId, IndividualId, IndividualId),
}

/// The two ABox states of the commit workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AboxState {
    /// The generated ABox.
    Full,
    /// The generated ABox minus the toggled facts.
    Without,
}

impl AboxState {
    pub fn label(self) -> &'static str {
        match self {
            AboxState::Full => "full",
            AboxState::Without => "without",
        }
    }
}

pub struct Dataset {
    pub seed: u64,
    pub onto: UnivOntology,
    pub abox: ABox,
    pub shapes: Vec<Shape>,
    /// The shapes the workloads replay: every shape but the
    /// [`LEFT_OUT`] ones.
    pub timed: Vec<usize>,
    /// Facts deleted and re-inserted by the commit workload: every fact
    /// mentioning one graduate student chosen by the seed.
    pub toggled: Vec<Fact>,
    rng: SplitMix,
}

impl Dataset {
    pub fn generate(seed: u64) -> Dataset {
        let mut onto = UnivOntology::build();
        let (abox, _) = generate(
            &mut onto,
            &GenConfig {
                seed,
                target_facts: TARGET_FACTS,
                ..GenConfig::default()
            },
        );
        let mut cqs: Vec<(String, CQ)> = workload(&onto)
            .into_iter()
            .map(|w| (w.name, w.cq))
            .collect();
        cqs.push(("A4".to_owned(), star_query(&onto, 4)));
        let shapes: Vec<Shape> = cqs
            .into_iter()
            .map(|(name, cq)| {
                let wire = render_wire(&onto, &cq);
                Shape { name, cq, wire }
            })
            .collect();
        let timed = (0..shapes.len())
            .filter(|&i| !LEFT_OUT.contains(&shapes[i].name.as_str()))
            .collect();
        let mut rng = SplitMix(seed ^ 0x5eed_0bda_be9c_4a11);
        let toggled = choose_toggled(&onto, &abox, &mut rng);
        Dataset {
            seed,
            onto,
            abox,
            shapes,
            timed,
            toggled,
            rng,
        }
    }

    /// The ABox of `state`.
    pub fn abox_in(&self, state: AboxState) -> ABox {
        let mut abox = self.abox.clone();
        if state == AboxState::Without {
            for f in &self.toggled {
                match *f {
                    Fact::Concept(c, a) => abox.retract_concept(c, a),
                    Fact::Role(r, a, b) => abox.retract_role(r, a, b),
                };
            }
        }
        abox
    }

    /// A seed-determined permutation of the timed mix (each pass replays
    /// the mix in its own order).
    pub fn mix_order(&mut self) -> Vec<usize> {
        let mut order = self.timed.clone();
        for i in (1..order.len()).rev() {
            let j = (self.rng.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// The wire statement that moves the ABox into `state`, as one
    /// `BEGIN; …; COMMIT` buffer.
    pub fn commit_text(&self, state: AboxState) -> String {
        let verb = match state {
            AboxState::Full => "INSERT",
            AboxState::Without => "DELETE",
        };
        let facts: Vec<String> = self.toggled.iter().map(|f| self.fact_text(f)).collect();
        format!("BEGIN; {verb} {}; COMMIT", facts.join(", "))
    }

    fn fact_text(&self, f: &Fact) -> String {
        let voc = &self.onto.voc;
        match *f {
            Fact::Concept(c, a) => format!("{}({})", voc.concept_name(c), voc.individual_name(a)),
            Fact::Role(r, a, b) => format!(
                "{}({}, {})",
                voc.role_name(r),
                voc.individual_name(a),
                voc.individual_name(b)
            ),
        }
    }
}

fn render_wire(onto: &UnivOntology, cq: &CQ) -> String {
    let term = |t: &Term| match t {
        Term::Var(v) => format!("?v{}", v.0),
        Term::Const(c) => onto.voc.individual_name(*c).to_owned(),
    };
    let head: Vec<String> = cq.head().iter().map(term).collect();
    let body: Vec<String> = cq
        .atoms()
        .iter()
        .map(|a| match a {
            Atom::Concept(c, t) => format!("{}({})", onto.voc.concept_name(*c), term(t)),
            Atom::Role(r, s, o) => {
                format!("{}({}, {})", onto.voc.role_name(*r), term(s), term(o))
            }
        })
        .collect();
    format!("SELECT {} WHERE {}", head.join(", "), body.join(", "))
}

/// Every asserted fact mentioning one graduate student that has an
/// advisor, chosen by the seed — removing them changes the answers of the
/// shapes over students and advisors.
fn choose_toggled(onto: &UnivOntology, abox: &ABox, rng: &mut SplitMix) -> Vec<Fact> {
    let candidates: Vec<IndividualId> = abox
        .concept_members(onto.graduate_student)
        .filter(|&s| {
            abox.role_assertions()
                .iter()
                .any(|&(r, a, _)| r == onto.advisor && a == s)
        })
        .collect();
    assert!(
        !candidates.is_empty(),
        "the ABox has advised graduate students"
    );
    let x = candidates[(rng.next() % candidates.len() as u64) as usize];
    let mut facts: Vec<Fact> = abox
        .concept_assertions()
        .iter()
        .filter(|&&(_, a)| a == x)
        .map(|&(c, a)| Fact::Concept(c, a))
        .collect();
    facts.extend(
        abox.role_assertions()
            .iter()
            .filter(|&&(_, a, b)| a == x || b == x)
            .map(|&(r, a, b)| Fact::Role(r, a, b)),
    );
    facts
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// choices, independent of the data generator's RNG.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }
}

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An order-independent digest of an answer set: the row count and the
/// wrapping sum of one hash per row. Rows are hashed by individual
/// *names*, so answers read over the wire, from the in-process server and
/// from the reference evaluator digest identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add_row<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for name in names {
            for &b in name.as_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
            h = (h ^ 0x1f).wrapping_mul(0x0100_0000_01b3);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(mix64(h));
    }

    pub fn of_ids(rows: &[Vec<u32>], voc: &obda_dllite::Vocabulary) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            d.add_row(row.iter().map(|&v| voc.individual_name(IndividualId(v))));
        }
        d
    }

    pub fn of_text(rows: &[Vec<String>]) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            d.add_row(row.iter().map(String::as_str));
        }
        d
    }
}
