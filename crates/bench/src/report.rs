//! The paper's experiments as data: Table 1, Table 2, Figure 2, the five
//! ablations and the SemPlan rules-off/on accounting, computed in one
//! pass ([`Report::compute`]). Two readers share that data: the markdown
//! renderer ([`Report::blocks`], spliced into EXPERIMENTS.md by
//! [`splice`]) and the fixed list of shape claims ([`Report::claims`])
//! that the `paper-report` binary gates on.

use crate::eval::{Harness, MethodId, Outcome};
use crate::queries::QueryType::{Aggregation, Comparison, MatchBased, Ranking};
use crate::queries::{BenchQuery, QueryKind, QueryType};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use tag_core::answer::{exact_match, Answer};
use tag_core::env::TagEnv;
use tag_core::methods::{HandWrittenTag, Rag};
use tag_core::model::TagMethod;
use tag_core::multihop::{run_two_hop, TwoHopQuery};
use tag_datagen::{generate_all, DomainData, Scale};
use tag_lm::model::LanguageModel;
use tag_lm::nlq::{NlFilter, NlQuery, SemProperty};
use tag_lm::sim::{SimConfig, SimLm};
use tag_semops::{sem_agg, sem_agg_refine, SemEngine};
use tag_sql::SemOptOptions;

/// Accuracy + execution-time aggregate for one method over one bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    correct: usize,
    graded: usize,
    seconds: f64,
    runs: usize,
}

impl Cell {
    fn add(&mut self, correct: Option<bool>, seconds: f64) {
        if let Some(c) = correct {
            self.graded += 1;
            self.correct += usize::from(c);
        }
        self.seconds += seconds;
        self.runs += 1;
    }

    fn of<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> Cell {
        let mut cell = Cell::default();
        outcomes
            .into_iter()
            .for_each(|o| cell.add(o.correct, o.seconds));
        cell
    }

    /// Exact-match accuracy. NaN when nothing was graded (aggregation), so
    /// an ungraded cell fails every claim instead of passing one vacuously.
    fn acc(&self) -> f64 {
        match self.graded {
            0 => f64::NAN,
            graded => self.correct as f64 / graded as f64,
        }
    }

    /// Mean execution time in (simulated) seconds.
    fn mean_seconds(&self) -> f64 {
        self.seconds / self.runs.max(1) as f64
    }
}

/// Table 1's query types, in column order; the first three are graded.
const TYPES: [QueryType; 4] = [MatchBased, Comparison, Ranking, Aggregation];

/// Table 2's query kinds, in column order.
const KINDS: [QueryKind; 2] = [QueryKind::Knowledge, QueryKind::Reasoning];

/// One method's row of Tables 1 and 2: all 80 queries, then per
/// [`TYPES`] and per [`KINDS`], and its LM calls over all 80.
#[derive(Debug, Clone)]
struct MethodCells {
    method: MethodId,
    overall: Cell,
    by_type: [Cell; 4],
    by_kind: [Cell; 2],
    lm_calls: u64,
}

impl MethodCells {
    fn from_outcomes(method: MethodId, outcomes: &[Outcome], queries: &[BenchQuery]) -> Self {
        let mine: Vec<&Outcome> = outcomes.iter().filter(|o| o.method == method).collect();
        let query = |o: &Outcome| queries.iter().find(|q| q.id == o.query_id).expect("query");
        let cell = |pred: &dyn Fn(&BenchQuery) -> bool| {
            Cell::of(mine.iter().copied().filter(|o| pred(query(o))))
        };
        MethodCells {
            method,
            overall: cell(&|_| true),
            by_type: TYPES.map(|t| cell(&|q| q.qtype == t)),
            by_kind: KINDS.map(|k| cell(&|q| q.kind == k)),
            lm_calls: mine.iter().map(|o| o.lm_calls).sum(),
        }
    }
}

/// The paper's values (§4.2), per method in [`MethodId::all`] order:
/// Table 1's exact match (overall, match-based, comparison, ranking) and
/// ET (overall, aggregation), and Table 2's exact match (knowledge,
/// reasoning).
type PaperRow = ([f64; 4], [f64; 2], [f64; 2]);
const PAPER: [PaperRow; 5] = [
    ([0.17, 0.20, 0.20, 0.10], [5.63, 6.53], [0.20, 0.10]),
    ([0.00, 0.00, 0.00, 0.00], [3.23, 4.89], [0.00, 0.00]),
    ([0.02, 0.00, 0.05, 0.00], [4.82, 5.46], [0.03, 0.00]),
    ([0.13, 0.10, 0.10, 0.20], [9.08, 9.38], [0.10, 0.20]),
    ([0.55, 0.60, 0.65, 0.40], [2.94, 2.50], [0.53, 0.60]),
];

/// One pipeline's answer to Ablation C's compositional question, and its
/// simulated seconds.
type Hop = (String, f64);

/// One §2.3 generation pattern in Ablation D: name, simulated seconds, LM
/// calls and LM batches.
type Pattern = (&'static str, f64, u64, u64);

/// Every experiment's measured data.
#[derive(Debug, Clone)]
pub struct Report {
    /// Tables 1 and 2 in [`MethodId::all`] order, SemPlan rules on.
    methods: Vec<MethodCells>,
    /// Figure 2: the Sepang answers of RAG, Text2SQL + LM and TAG.
    sepang: Vec<(MethodId, String)>,
    /// Ablation A: hand-written TAG on match/comparison per batch size.
    batch: Vec<(usize, Cell)>,
    /// Ablation B: RAG on the graded queries per retrieval depth k.
    depth: Vec<(usize, Cell)>,
    /// Ablation C: the true count, then single-hop and two-hop TAG.
    multihop: (usize, Hop, Hop),
    /// Ablation D: input rows, then the fold and refinement patterns.
    patterns: (usize, [Pattern; 2]),
    /// Ablation E: graded queries, then (coverage, Text2SQL, TAG) rows.
    coverage: (usize, Vec<(f64, Cell, Cell)>),
    /// SemPlan: LM calls per method with the rules off.
    calls_off: Vec<u64>,
    /// SemPlan: answers compared between rules off and on, and differing.
    answers_differing: (usize, usize),
}

const MULTIHOP_QUESTION: &str = "How many sarcastic comments are there on technical posts?";
const SEPANG_YEARS: std::ops::RangeInclusive<u32> = 1999..=2017;

fn domains(harness: &Harness) -> BTreeSet<&'static str> {
    harness.queries().iter().map(|q| q.domain).collect()
}

fn set_rules(harness: &Harness, opts: SemOptOptions) {
    for d in domains(harness) {
        harness.env(d).set_sem_opt(opts);
    }
}

impl Report {
    /// Run every experiment at seed 42 and `Scale::default()`.
    pub fn compute() -> Report {
        let mut harness = Harness::standard();
        let on = harness.run_all(&MethodId::all());
        set_rules(&harness, SemOptOptions::none());
        let off = harness.run_all(&MethodId::all());
        set_rules(&harness, SemOptOptions::default());
        let differing = on
            .iter()
            .zip(&off)
            .filter(|(a, b)| format!("{:?}", a.answer) != format!("{:?}", b.answer))
            .count();
        let sepang = harness
            .queries()
            .iter()
            .find(|q| q.qtype == Aggregation && q.question().contains("Sepang"))
            .expect("Sepang aggregation query in benchmark")
            .id;
        let community = generate_all(42, Scale::default())
            .into_iter()
            .find(|d| d.name == "codebase_community")
            .expect("community domain");
        let methods =
            MethodId::all().map(|m| MethodCells::from_outcomes(m, &on, harness.queries()));
        let calls_off = MethodId::all()
            .map(|m| MethodCells::from_outcomes(m, &off, harness.queries()).lm_calls);
        Report {
            methods: methods.to_vec(),
            sepang: [MethodId::Rag, MethodId::Text2SqlLm, MethodId::HandWritten]
                .iter()
                .map(|&m| {
                    let o = on.iter().find(|o| o.method == m && o.query_id == sepang);
                    (m, o.expect("Sepang outcome").answer.to_string())
                })
                .collect(),
            depth: depth_sweep(&harness),
            batch: batch_sweep(&mut harness),
            multihop: multihop(&community),
            patterns: gen_patterns(community),
            coverage: coverage_sweep(),
            calls_off: calls_off.to_vec(),
            answers_differing: (on.len(), differing),
        }
    }

    fn cells(&self, method: MethodId) -> &MethodCells {
        let row = self.methods.iter().find(|r| r.method == method);
        row.expect("every method has a row")
    }
}

fn ids(harness: &Harness, pred: impl Fn(&BenchQuery) -> bool) -> Vec<usize> {
    harness
        .queries()
        .iter()
        .filter(|q| pred(q))
        .map(|q| q.id)
        .collect()
}

fn run(harness: &Harness, method: MethodId, ids: &[usize]) -> Cell {
    Cell::of(
        &ids.iter()
            .map(|&id| harness.run_one(method, id))
            .collect::<Vec<_>>(),
    )
}

/// Ablation A: swap every domain's engine for one with the ablated batch
/// size and rerun hand-written TAG on the match/comparison queries.
fn batch_sweep(harness: &mut Harness) -> Vec<(usize, Cell)> {
    let ids = ids(harness, |q| matches!(q.qtype, MatchBased | Comparison));
    let sweep = [1usize, 4, 16, 64].map(|batch| {
        for d in domains(harness) {
            let env = harness.env_mut(d);
            env.engine = SemEngine::with_batch_size(Arc::clone(&env.lm), batch);
        }
        (batch, run(harness, MethodId::HandWritten, &ids))
    });
    sweep.to_vec()
}

/// Ablation B: RAG over every graded query at each retrieval depth.
fn depth_sweep(harness: &Harness) -> Vec<(usize, Cell)> {
    let graded = || harness.queries().iter().filter(|q| q.qtype != Aggregation);
    let sweep = [1usize, 5, 10, 50, 100].map(|k| {
        let mut cell = Cell::default();
        for q in graded() {
            let env = harness.env(q.domain);
            let _ = env.row_store();
            env.reset_metrics();
            let answer = Rag {
                k,
                ..Rag::default()
            }
            .answer(&q.question(), env);
            let correct = harness
                .truth(q.id)
                .map(|t| exact_match(&answer, t, q.ordered()));
            cell.add(correct, env.elapsed_seconds());
        }
        (k, cell)
    });
    sweep.to_vec()
}

/// Ablation C: count sarcastic comments on technical posts (level >= 2),
/// single-hop (hop 2's filter alone: one table cannot express the
/// composition) against two-hop TAG. Truth comes from planted labels.
fn multihop(community: &DomainData) -> (usize, Hop, Hop) {
    let labels = &community.labels;
    let table = |name| community.db.catalog().table(name).expect("table");
    let (posts, comments) = (table("posts"), table("comments"));
    let col = |t: &tag_sql::Table, c| t.schema().index_of(c).expect("column");
    let (id, cid, pid) = (
        col(posts, "Id"),
        col(comments, "Id"),
        col(comments, "PostId"),
    );
    let technical: BTreeSet<i64> = (posts.rows().iter())
        .filter_map(|r| r[id].as_i64())
        .filter(|id| labels.post_technicality[id] >= 2)
        .collect();
    let truth = (comments.rows().iter())
        .filter(|r| {
            let (c, p) = (r[cid].as_i64().unwrap_or(0), r[pid].as_i64().unwrap_or(0));
            technical.contains(&p) && labels.comment_sarcastic[&c]
        })
        .count();

    let env = TagEnv::new(
        community.db.clone(),
        Arc::new(SimLm::new(SimConfig::default())),
    );
    let semantic = |attr: &str, property| {
        vec![NlFilter::Semantic {
            attr: attr.into(),
            property,
        }]
    };
    let (entity, select_attr) = ("posts".into(), "Id".into());
    let filters = semantic("Title", SemProperty::Technical);
    let hop1 = NlQuery::List {
        entity,
        select_attr,
        filters,
    };
    let (entity, filters) = ("comments".into(), semantic("Text", SemProperty::Sarcastic));
    let hop2 = NlQuery::Count { entity, filters };
    let hop = |answer: Answer| match answer {
        Answer::List(v) => (v.join(", "), env.elapsed_seconds()),
        other => (other.to_string(), env.elapsed_seconds()),
    };
    env.reset_metrics();
    let single = hop(HandWrittenTag.answer_structured(&hop2, &env));
    env.reset_metrics();
    let join_attr = "PostId".into();
    let two = hop(run_two_hop(
        &TwoHopQuery {
            hop1,
            join_attr,
            hop2,
        },
        &env,
    ));
    (truth, single, two)
}

/// Ablation D: summarize every comment with a batched hierarchical fold
/// and with serial sequential refinement, under a window small enough to
/// force several rounds.
fn gen_patterns(community: DomainData) -> (usize, [Pattern; 2]) {
    let scan = community.db.query_frame("SELECT Text FROM comments");
    let comments = scan.expect("scan");
    let summarize = |name, refine: bool| -> Pattern {
        let config = SimConfig {
            context_window: 2048,
            ..SimConfig::default()
        };
        let lm = Arc::new(SimLm::new(config));
        let engine = SemEngine::new(lm.clone() as Arc<dyn LanguageModel>);
        let agg = if refine { sem_agg_refine } else { sem_agg };
        let summary = agg(&engine, &comments, "Summarize the comments").expect("aggregation");
        assert!(!summary.is_empty());
        (name, lm.elapsed_seconds(), lm.calls(), lm.batches())
    };
    (
        comments.len(),
        [
            summarize("hierarchical fold", false),
            summarize("sequential refinement", true),
        ],
    )
}

/// Ablation E: graded knowledge queries under a model whose recognition
/// coverage varies and whose free recall stays at 0.55 × recognition
/// (the knowledge seed stays the default).
fn coverage_sweep() -> (usize, Vec<(f64, Cell, Cell)>) {
    let mut graded = 0;
    let sweep = [0.5f64, 0.7, 0.9, 1.0].map(|coverage| {
        let mut config = SimConfig::default();
        config.knowledge.coverage = coverage;
        config.knowledge.enumeration_coverage = (coverage * 0.55).min(1.0);
        let harness = Harness::new(42, Scale::default(), config);
        let ids = ids(&harness, |q| {
            q.kind == QueryKind::Knowledge && q.qtype != Aggregation
        });
        graded = ids.len();
        let (t2s, tag) = (MethodId::Text2Sql, MethodId::HandWritten);
        (coverage, run(&harness, t2s, &ids), run(&harness, tag, &ids))
    });
    (graded, sweep.to_vec())
}

/// One shape claim, evaluated against the measured data: its id (`T1.1`,
/// `A`, `S.2`, ...), the claim as stated, whether it holds, and the
/// numbers it was judged on.
#[derive(Debug, Clone)]
pub struct Claim {
    id: &'static str,
    text: &'static str,
    /// Whether the measured data satisfies the claim.
    pub holds: bool,
    numbers: String,
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.holds { "holds" } else { "FAILS" };
        write!(f, "{verdict} · {} {}: {}", self.id, self.text, self.numbers)
    }
}

fn join<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(", ")
}

fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// A hop's relative error against the true count; NaN unless the answer
/// is a single number.
fn rel_err(truth: usize, hop: &Hop) -> f64 {
    let count = hop.0.parse::<f64>().unwrap_or(f64::NAN);
    (count - truth as f64).abs() / truth as f64
}

impl Report {
    /// The paper's shape claims, fixed in advance. A claim that does not
    /// hold is a deviation to list, not a threshold to move.
    pub fn claims(&self) -> Vec<Claim> {
        let claim = |id, text, holds, numbers| Claim {
            id,
            text,
            holds,
            numbers,
        };
        let tag = self.cells(MethodId::HandWritten);
        let baselines = &self.methods[..4];
        let retrieval = [self.cells(MethodId::Rag), self.cells(MethodId::Rerank)];
        let by_acc =
            |a: &&MethodCells, b: &&MethodCells| a.overall.acc().total_cmp(&b.overall.acc());
        let best = baselines.iter().max_by(by_acc).expect("baselines");
        let (tag_acc, best_acc) = (tag.overall.acc(), best.overall.acc());
        let slower = [MethodId::Rag, MethodId::Rerank, MethodId::Text2SqlLm].map(|m| self.cells(m));
        let overall = |r: &MethodCells| format!("{} {}", r.method.label(), f2(r.overall.acc()));
        let et = |r: &MethodCells| r.overall.mean_seconds();
        let tag_et = et(tag);
        let slower_by = |r: &MethodCells| {
            let (label, e) = (r.method.label(), et(r));
            format!("{label} {e:.2} s ({:.1}×)", e / tag_et)
        };
        let both_kinds = |r: &MethodCells| r.by_kind.iter().all(|c| c.acc() > 0.50);
        let kinds = |m: &MethodCells| {
            let [k, r] = m.by_kind.map(|c| f2(c.acc()));
            format!("{} {k}/{r}", m.method.label())
        };
        let t2s = self.cells(MethodId::Text2Sql);
        let (first, last) = (&self.batch[0], &self.batch[self.batch.len() - 1]);
        let (truth, single, two) = &self.multihop;
        let [(_, fold, ..), (_, refine, ..)] = &self.patterns.1;
        let (compared, differing) = self.answers_differing;
        let calls = || self.methods.iter().zip(&self.calls_off);
        vec![
            claim(
                "T1.1",
                "every baseline ≤ 0.20 overall",
                baselines.iter().all(|r| r.overall.acc() <= 0.20),
                join(baselines, overall),
            ),
            claim(
                "T1.2",
                "TAG ≥ 0.35 on every graded type",
                tag.by_type[..3].iter().all(|c| c.acc() >= 0.35),
                join(0..3, |i| {
                    format!("{} {}", TYPES[i].label(), f2(tag.by_type[i].acc()))
                }),
            ),
            claim(
                "T1.3",
                "TAG overall ≥ the best baseline + 0.20",
                tag_acc >= best_acc + 0.20,
                format!(
                    "TAG {tag_acc:.2}, best {}: {:+.2}",
                    overall(best),
                    tag_acc - best_acc
                ),
            ),
            claim(
                "T1.4",
                "RAG and Retrieval + LM Rank ≤ 0.05 overall",
                retrieval.iter().all(|r| r.overall.acc() <= 0.05),
                join(retrieval, overall),
            ),
            claim(
                "T1.5",
                "TAG's overall ET below RAG's, Retrieval + LM Rank's and Text2SQL + LM's",
                slower.iter().all(|r| tag_et < et(r)),
                format!("TAG {tag_et:.2} s; {}", join(slower, slower_by)),
            ),
            claim(
                "T2.1",
                "TAG is the only method > 0.50 on both Knowledge and Reasoning",
                both_kinds(tag) && !baselines.iter().any(both_kinds),
                join(&self.methods, kinds),
            ),
            claim(
                "T2.2",
                "Text2SQL Knowledge > Text2SQL Reasoning",
                t2s.by_kind[0].acc() > t2s.by_kind[1].acc(),
                format!("Knowledge/Reasoning: {}", kinds(t2s)),
            ),
            claim(
                "T2.3",
                "RAG and Retrieval + LM Rank ≤ 0.10 on both kinds",
                retrieval
                    .iter()
                    .all(|r| r.by_kind.iter().all(|c| c.acc() <= 0.10)),
                join(retrieval, kinds),
            ),
            claim(
                "A",
                "ET strictly decreasing as the batch grows, accuracy equal at every size",
                self.batch.windows(2).all(|w| {
                    w[1].1.mean_seconds() < w[0].1.mean_seconds() && w[1].1.acc() == w[0].1.acc()
                }),
                format!(
                    "ET {}; accuracy {}; batch {} → {}: {:.0}×",
                    join(&self.batch, |(b, c)| format!(
                        "{b}: {:.2} s",
                        c.mean_seconds()
                    )),
                    join(&self.batch, |(_, c)| f2(c.acc())),
                    first.0,
                    last.0,
                    first.1.mean_seconds() / last.1.mean_seconds()
                ),
            ),
            claim(
                "B",
                "RAG accuracy ≤ 0.05 at every k",
                self.depth.iter().all(|(_, c)| c.acc() <= 0.05),
                join(&self.depth, |(k, c)| format!("k={k}: {}", f2(c.acc()))),
            ),
            claim(
                "C",
                "two-hop relative error < single-hop relative error",
                rel_err(*truth, two) < rel_err(*truth, single),
                format!(
                    "two-hop {:.0}%, single-hop {:.0}%",
                    100.0 * rel_err(*truth, two),
                    100.0 * rel_err(*truth, single)
                ),
            ),
            claim(
                "D",
                "fold ET < refinement ET",
                fold < refine,
                format!(
                    "fold {fold:.2} s, refinement {refine:.2} s ({:.1}×)",
                    refine / fold
                ),
            ),
            claim(
                "E",
                "TAG ≥ Text2SQL at every coverage, and TAG > Text2SQL at 1.0",
                self.coverage.1.iter().all(|(cov, t2s, tag)| {
                    tag.acc() >= t2s.acc() && (*cov < 1.0 || tag.acc() > t2s.acc())
                }) && self.coverage.1.iter().any(|(cov, ..)| *cov == 1.0),
                join(&self.coverage.1, |(cov, t2s, tag)| {
                    format!("{cov:.2}: TAG {} vs {}", f2(tag.acc()), f2(t2s.acc()))
                }),
            ),
            claim(
                "S.1",
                "every answer is byte-identical with the rules off and on",
                differing == 0 && compared > 0,
                format!("{differing} of {compared} answers differ"),
            ),
            claim(
                "S.2",
                "for every method, LM calls with the rules on ≤ with the rules off",
                calls().all(|(r, &off)| r.lm_calls <= off),
                join(calls(), |(r, off)| {
                    format!("{} {off} → {}", r.method.label(), r.lm_calls)
                }),
            ),
        ]
    }
}

/// Every generated block in EXPERIMENTS.md, in document order, with the
/// id prefix of the claims rendered in it.
const BLOCKS: [(&str, &str); 9] = [
    ("table1", "T1"),
    ("table2", "T2"),
    ("figure2", "F"),
    ("ablation-a", "A"),
    ("ablation-b", "B"),
    ("ablation-c", "C"),
    ("ablation-d", "D"),
    ("ablation-e", "E"),
    ("semplan", "S"),
];

fn md_table(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let rule = "---|".repeat(header.len());
    let mut out = format!("| {} |\n|{rule}\n", header.join(" | "));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

impl Report {
    fn render(&self, block: &str) -> String {
        // "paper → **measured**" cells, one row per method.
        let vs = |paper: &[f64], measured: &[f64]| -> Vec<String> {
            let cells = paper.iter().zip(measured);
            cells.map(|(p, m)| format!("{p:.2} → **{m:.2}**")).collect()
        };
        let rows = |cells: &dyn Fn(&MethodCells, &PaperRow) -> Vec<String>| -> Vec<Vec<String>> {
            let rows = self.methods.iter().zip(&PAPER);
            rows.map(|(r, p)| [vec![r.method.label().to_owned()], cells(r, p)].concat())
                .collect()
        };
        match block {
            "table1" => format!(
                "Exact match (paper → measured):\n\n{}\nExecution time in seconds \
                 (paper → measured, simulated):\n\n{}",
                md_table(
                    &["Method", "Overall", "Match-based", "Comparison", "Ranking"],
                    rows(&|r, p| {
                        let [m, c, k, _] = r.by_type.map(|c| c.acc());
                        vs(&p.0, &[r.overall.acc(), m, c, k])
                    })
                ),
                md_table(
                    &["Method", "Overall", "Aggregation"],
                    rows(&|r, p| {
                        vs(
                            &p.1,
                            &[r.overall.mean_seconds(), r.by_type[3].mean_seconds()],
                        )
                    })
                )
            ),
            "table2" => format!(
                "Exact match (paper → measured):\n\n{}",
                md_table(
                    &["Method", "Knowledge", "Reasoning"],
                    rows(&|r, p| vs(&p.2, &r.by_kind.map(|c| c.acc())))
                )
            ),
            "figure2" => {
                let covered = |answer: &String| {
                    let years = SEPANG_YEARS.filter(|y| answer.contains(&y.to_string()));
                    format!("{} of {}", years.count(), SEPANG_YEARS.count())
                };
                let mut out = md_table(
                    &["Method", "Sepang race years covered"],
                    self.sepang
                        .iter()
                        .map(|(m, a)| vec![m.label().to_owned(), covered(a)]),
                );
                for (m, answer) in &self.sepang {
                    out.push_str(&format!("\n**{}:** {answer}\n", m.label()));
                }
                out
            }
            "ablation-a" | "ablation-b" => {
                let (head, sweep) = if block == "ablation-a" {
                    ("batch", &self.batch)
                } else {
                    ("k", &self.depth)
                };
                md_table(
                    &[head, "mean ET (s)", "accuracy"],
                    sweep
                        .iter()
                        .map(|(x, c)| vec![x.to_string(), f2(c.mean_seconds()), f2(c.acc())]),
                )
            }
            "ablation-c" => {
                let (truth, single, two) = &self.multihop;
                let row = |name: &str, h: &Hop| {
                    let err = format!("{:.0}%", 100.0 * rel_err(*truth, h));
                    vec![name.to_owned(), h.0.clone(), err, f2(h.1)]
                };
                format!(
                    "Compositional query: *\"{MULTIHOP_QUESTION}\"* (ground truth {truth}).\n\n{}",
                    md_table(
                        &["Pipeline", "answer", "relative error", "ET (s)"],
                        [row("single-hop TAG", single), row("two-hop TAG", two)]
                    )
                )
            }
            "ablation-d" => format!(
                "{} comment texts summarized under a 2048-token window:\n\n{}",
                self.patterns.0,
                md_table(
                    &["pattern", "ET (s)", "LM calls", "batches"],
                    (self.patterns.1.iter()).map(|(name, seconds, calls, batches)| {
                        vec![format!("{name} | {seconds:.2} | {calls} | {batches}")]
                    })
                )
            ),
            "ablation-e" => format!(
                "Accuracy on the {} graded knowledge queries as the model's parametric \
                 coverage varies (free recall fixed at 0.55 × recognition):\n\n{}",
                self.coverage.0,
                md_table(
                    &["coverage", "Text2SQL", "Hand-written TAG"],
                    (self.coverage.1.iter()).map(|(cov, t2s, tag)| {
                        vec![format!("{cov:.2} | {:.2} | {:.2}", t2s.acc(), tag.acc())]
                    })
                )
            ),
            "semplan" => md_table(
                &[
                    "Method",
                    "LM calls (off → on)",
                    "LM calls / query (off → on)",
                ],
                self.methods.iter().zip(&self.calls_off).map(|(r, &off)| {
                    let per = |calls: u64| f2(calls as f64 / r.overall.runs.max(1) as f64);
                    vec![
                        r.method.label().to_owned(),
                        format!("{off} → **{}**", r.lm_calls),
                        format!("{} → **{}**", per(off), per(r.lm_calls)),
                    ]
                }),
            ),
            other => unreachable!("no block {other}"),
        }
    }

    /// Every block's markdown, in document order: the measured tables,
    /// then the block's gated claims.
    pub fn blocks(&self) -> Vec<(&'static str, String)> {
        let claims = self.claims();
        let render = |(block, prefix): (&'static str, &str)| {
            let mut body = self.render(block);
            let mut mine = claims
                .iter()
                .filter(|c| c.id.starts_with(prefix))
                .peekable();
            if mine.peek().is_some() {
                body.push_str("\nGated shape claims:\n\n");
            }
            for c in mine {
                body.push_str(&format!("- {c}\n"));
            }
            (block, body)
        };
        BLOCKS.map(render).to_vec()
    }
}

/// Replace the body of every `<!-- paper-report:NAME -->` …
/// `<!-- /paper-report:NAME -->` block in `doc` with the rendered one.
///
/// The doc must hold exactly one opening and one closing marker per
/// block, in that order, and no other `paper-report` marker: anything
/// else is an error, never a silent append.
pub fn splice(doc: &str, blocks: &[(&str, String)]) -> Result<String, String> {
    let opens = doc.matches("<!-- paper-report:").count();
    let closes = doc.matches("<!-- /paper-report:").count();
    if opens != blocks.len() || closes != blocks.len() {
        let n = blocks.len();
        return Err(format!(
            "{opens} opening, {closes} closing markers; want {n} each"
        ));
    }
    let unique = |doc: &str, marker: &str| {
        let mut hits = doc.match_indices(marker).map(|(i, _)| i);
        match (hits.next(), hits.next()) {
            (Some(i), None) => Ok(i),
            (None, _) => Err(format!("missing marker {marker:?}")),
            _ => Err(format!("duplicated marker {marker:?}")),
        }
    };
    let mut out = doc.to_owned();
    for (name, body) in blocks {
        let open = format!("<!-- paper-report:{name} -->\n");
        let start = unique(&out, &open)? + open.len();
        let end = unique(&out, &format!("<!-- /paper-report:{name} -->"))?;
        if end < start {
            return Err(format!("block {name} closes before it opens"));
        }
        out.replace_range(start..end, body);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use MethodId::*;
    use QueryKind::{Knowledge as K, Reasoning as R};

    fn cell(correct: usize, graded: usize, seconds: f64) -> Cell {
        let mut cell = Cell::default();
        (cell.correct, cell.graded, cell.seconds, cell.runs) = (correct, graded, seconds, 1);
        cell
    }

    /// A report every claim holds on. Tables 1 and 2 come from fake
    /// outcomes over five graded queries and one aggregation: TAG gets
    /// all five right in 1 s, Text2SQL only the first (a knowledge query),
    /// and every baseline takes 2 s.
    fn passing() -> Report {
        let types = [
            (MatchBased, K),
            (MatchBased, R),
            (Comparison, K),
            (Comparison, R),
        ];
        let types = types.into_iter().chain([(Ranking, K), (Aggregation, R)]);
        let queries: Vec<BenchQuery> = (1..)
            .zip(types)
            .map(|(id, (qtype, kind))| {
                let (entity, filters) = ("t".into(), vec![]);
                let query = NlQuery::Count { entity, filters };
                BenchQuery {
                    id,
                    domain: "x",
                    qtype,
                    kind,
                    query,
                }
            })
            .collect();
        let mut outcomes = Vec::new();
        for (method, q) in MethodId::all()
            .into_iter()
            .flat_map(|m| queries.iter().map(move |q| (m, q)))
        {
            let (correct, seconds) = match (method, q.qtype) {
                (HandWritten, Aggregation) => (None, 1.0),
                (HandWritten, _) => (Some(true), 1.0),
                (_, Aggregation) => (None, 2.0),
                (m, _) => (Some(m == Text2Sql && q.id == 1), 2.0),
            };
            let (query_id, answer) = (q.id, Answer::List(vec!["1".into()]));
            outcomes.push(Outcome {
                query_id,
                method,
                correct,
                seconds,
                lm_calls: 1,
                answer,
            });
        }
        let hop = |answer: &str| (answer.to_owned(), 1.0);
        let methods = MethodId::all().map(|m| MethodCells::from_outcomes(m, &outcomes, &queries));
        let coverage = vec![
            (0.5, cell(2, 10, 1.0), cell(2, 10, 1.0)),
            (1.0, cell(4, 10, 1.0), cell(9, 10, 1.0)),
        ];
        Report {
            methods: methods.to_vec(),
            sepang: vec![(HandWritten, "1999 and 2017".into())],
            batch: vec![(1, cell(5, 10, 8.0)), (4, cell(5, 10, 2.0))],
            depth: vec![(1, cell(0, 20, 1.0)), (5, cell(1, 20, 1.0))],
            multihop: (100, hop("150"), hop("95")),
            patterns: (10, [("fold", 1.0, 2, 1), ("refine", 9.0, 2, 1)]),
            coverage: (10, coverage),
            calls_off: vec![6; 5],
            answers_differing: (30, 0),
        }
    }

    fn row(r: &mut Report, m: MethodId) -> &mut MethodCells {
        r.methods.iter_mut().find(|c| c.method == m).unwrap()
    }

    fn failing(r: &Report) -> Vec<&'static str> {
        let claims = r.claims().into_iter();
        claims.filter(|c| !c.holds).map(|c| c.id).collect()
    }

    #[test]
    fn each_claim_fails_on_exactly_the_table_that_breaks_it() {
        let base = passing();
        let tag = base.cells(HandWritten);
        assert_eq!(tag.overall.acc(), 1.0);
        assert!(tag.by_type[3].acc().is_nan(), "aggregation is ungraded");
        assert_eq!(tag.by_type[3].mean_seconds(), 1.0);
        assert_eq!(base.cells(Text2Sql).overall.acc(), 0.2);
        assert_eq!(failing(&base), Vec::<&str>::new());

        type Break = fn(&mut Report);
        let cases: [(&str, Break); 17] = [
            ("T1.1", |r| row(r, Text2SqlLm).overall = cell(2, 5, 2.0)),
            ("T1.2", |r| row(r, HandWritten).by_type[1] = cell(1, 3, 1.0)),
            ("T1.3", |r| row(r, HandWritten).overall = cell(39, 100, 1.0)),
            ("T1.4", |r| row(r, Rag).overall = cell(3, 50, 2.0)),
            ("T1.5", |r| row(r, HandWritten).overall = cell(5, 5, 2.5)),
            ("T2.1", |r| {
                row(r, Text2SqlLm).by_kind = [cell(3, 5, 2.0); 2]
            }),
            ("T2.2", |r| row(r, Text2Sql).by_kind.swap(0, 1)),
            ("T2.3", |r| row(r, Rerank).by_kind[1] = cell(1, 5, 2.0)),
            ("A", |r| r.batch[1].1 = cell(5, 10, 8.0)),
            ("A", |r| r.batch[1].1 = cell(6, 10, 2.0)),
            ("B", |r| r.depth[1].1 = cell(2, 20, 1.0)),
            ("C", |r| r.multihop.2 .0 = "160".into()),
            ("D", |r| r.patterns.1[0].1 = 10.0),
            ("E", |r| r.coverage.1[0].2 = cell(1, 10, 1.0)),
            ("E", |r| r.coverage.1[1].2 = cell(4, 10, 1.0)),
            ("S.1", |r| r.answers_differing.1 = 1),
            ("S.2", |r| row(r, Rerank).lm_calls = 7),
        ];
        let mut seen = BTreeSet::new();
        for (id, break_it) in cases {
            let mut broken = base.clone();
            break_it(&mut broken);
            assert_eq!(failing(&broken), vec![id], "breaking {id}");
            seen.insert(id);
        }
        let all: BTreeSet<&str> = base.claims().iter().map(|c| c.id).collect();
        assert_eq!(seen, all, "every claim has a table that breaks it");

        let blocks = base.blocks();
        let table1 = &blocks[0].1;
        assert!(table1.contains("| Hand-written TAG | 0.55 → **1.00** |"));
        assert!(table1.contains("- holds · T1.1 every baseline"), "{table1}");
        assert!(blocks[2].1.contains("| 2 of 19 |"), "{}", blocks[2].1);
    }

    fn doc(names: &[&str]) -> String {
        let mut out = String::from("# Title\n\nprose\n");
        for n in names {
            out += &format!("<!-- paper-report:{n} -->\nx\n<!-- /paper-report:{n} -->\n\nprose\n");
        }
        out
    }

    #[test]
    fn splice_is_idempotent_and_rejects_bad_markers() {
        let blocks = [("a", "fresh a\n".to_owned()), ("b", "fresh b\n".to_owned())];
        let once = splice(&doc(&["a", "b"]), &blocks).unwrap();
        assert!(once.contains("<!-- paper-report:a -->\nfresh a\n<!-- /paper-report:a -->"));
        assert!(!once.contains("\nx\n"));
        assert_eq!(splice(&once, &blocks).unwrap(), once);

        let close_a_first = doc(&["b", "a"]).replace(
            "<!-- paper-report:a -->\nx\n<!-- /paper-report:a -->",
            "<!-- /paper-report:a -->\nx\n<!-- paper-report:a -->\n",
        );
        let bad = [
            ("missing", doc(&["a"])),
            ("missing", doc(&["a", "c"])),
            ("duplicated", doc(&["a", "a"])),
            ("unknown", doc(&["a", "b", "c"])),
            (
                "unclosed",
                doc(&["a", "b"]).replace("<!-- /paper-report:b", ""),
            ),
            ("closed first", close_a_first),
        ];
        for (what, text) in bad {
            assert!(splice(&text, &blocks).is_err(), "{what}:\n{text}");
        }
    }
}
