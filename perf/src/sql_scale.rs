//! `sql_scale`: one thread over a plain `TagEnv` on
//! `schools::generate_bulk(seed, 20_000)`: `schools` + `frpm` +
//! `satscores`, 6 × 10⁴ rows, 33× the curated benchmark's tables.
//!
//! Relational execution dominates here and the LM does almost nothing;
//! it is the only workload where "one relational executor" and index
//! selection can show. Ops come in seed-shuffled blocks of 20:
//!
//! | ops | what |
//! |---|---|
//! | 8 | `run_method(Text2Sql, q)` over generated `schools` questions |
//! | 4 | `run_method(HandWritten, q)` over the same pool |
//!
//! The 12 method ops of a block walk the 11 `schools` templates in turn
//! (one variant each, the twelfth wraps), and which four of them run as
//! hand-written TAG rotates from block to block, so every block, and so
//! every run, asks the same kinds of question in the same proportion.
//!
//! | ops | what |
//! |---|---|
//! | 7 | analyst statements through `TagEnv::run_sql`: 2 `GROUP BY City`, 2 `schools ⋈ satscores` filter + top-k, 2 keyed aggregates, 1 primary-key lookup |
//! | 1 | `env.db.execute` inserting 10 rows |
//!
//! The analyst statements are what the paper's expert pipelines do before
//! the semantic step; none of them occurs in the 80×5 replay, whose SQL is
//! all single-table filter/sort/limit. Each insert is followed by ordinary
//! ops, so plan-cache and columnar-image invalidation is paid on the
//! clock and a read-side cache that taxes writes shows. Whole blocks are
//! measured, so every run has exactly this mix.

use crate::digest::{self, fnv1a};
use crate::metrics::Report;
use crate::probes::{Exercised, ProbeOp, Probes};
use crate::questions::{self, Question};
use crate::rng::Rng;
use crate::spans::{self, Recorder};
use crate::stats::{alternating_ratio, slices_of_units};
use crate::timed_lm::TimedLm;
use crate::twin::{fill_prompt_cache, SerialStats};
use crate::{Config, Outcome};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use tag_core::env::TagEnv;
use tag_datagen::{generate_all, schools, DomainData, Scale};
use tag_lm::model::LanguageModel;
use tag_lm::sim::{SimConfig, SimLm};
use tag_serve::{format_answer, run_method, MethodName};
use tag_sql::ResultSet;

pub const ROWS: usize = 20_000;
const DOMAIN: &str = "california_schools";
/// Generated variants of each `schools` template the method ops draw from.
const VARIANTS: usize = 12;
/// Ops measured at least, however slow the machine: p90 then has 12
/// samples beyond it, and the committed digests are covered.
const MIN_OPS: usize = 120;

#[derive(Debug, Clone)]
enum Op {
    Method { method: MethodName, question: usize },
    GroupBy,
    Join { min_math: i64 },
    KeyedAgg { city: String },
    Lookup { id: i64 },
    Insert { first_id: i64, city: String },
}

/// Values of one school the harness inserts: `(name, math, enrollment)`.
fn added_school(id: i64) -> (String, i64, i64) {
    (
        format!("Perf Added School {id}"),
        400 + id % 300,
        100 + (id * 11) % 3000,
    )
}

/// A 10-row `INSERT INTO schools`, ids from `first_id` up.
pub fn insert_schools_sql(first_id: i64, city: &str) -> String {
    let city = city.replace('\'', "''");
    let rows: Vec<String> = (first_id..first_id + 10)
        .map(|id| {
            let (name, math, enrollment) = added_school(id);
            format!(
                "({id}, '{name}', '{city}', '{city} County', -120.{:04}, 36.{:04}, \
                 {math}, {}, {enrollment}, 'K-5', 0, 'Directly funded', '00', '00', 'Traditional', 'N', 0, \
                 '(555) 555-0000', '90000', 'Alex', 'Rivera', 'admin{id}@example.edu', '2015-06-01')",
                id % 10_000,
                (id * 7) % 10_000,
                400 + (id * 3) % 300,
            )
        })
        .collect();
    format!("INSERT INTO schools VALUES {}", rows.join(", "))
}

impl Op {
    fn sql(&self) -> Option<String> {
        Some(match self {
            Op::Method { .. } => return None,
            Op::GroupBy => "SELECT City, COUNT(*), AVG(AvgScrMath) FROM schools GROUP BY City ORDER BY City".to_owned(),
            Op::Join { min_math } => format!(
                "SELECT s.School, t.NumTstTakr FROM schools s JOIN satscores t ON s.CDSCode = t.cds \
                 WHERE s.AvgScrMath > {min_math} ORDER BY t.NumTstTakr DESC, s.CDSCode LIMIT 10"
            ),
            Op::KeyedAgg { city } => format!(
                "SELECT COUNT(*), AVG(Enrollment) FROM schools WHERE City = '{}'",
                city.replace('\'', "''")
            ),
            Op::Lookup { id } => format!("SELECT School FROM schools WHERE CDSCode = {id}"),
            Op::Insert { first_id, city } => insert_schools_sql(*first_id, city),
        })
    }

    fn label(&self, pool: &[Question]) -> String {
        match self {
            Op::Method { method, question } => format!("{method} {}", pool[*question].text),
            Op::Insert { first_id, .. } => format!("insert 10 schools from {first_id}"),
            other => other.sql().expect("statement op"),
        }
    }
}

/// The harness's own copy of the columns the analyst statements read,
/// kept in step with its inserts: an oracle that shares no code with the
/// engine, and that a stale cached plan or columnar image cannot fool.
struct Shadow {
    /// `(id, name, city, math, enrollment)`
    schools: Vec<(i64, String, String, i64, i64)>,
    takers: HashMap<i64, i64>,
    cities: Vec<String>,
    math_sorted: Vec<i64>,
}

impl Shadow {
    fn read(env: &TagEnv) -> Result<Shadow, String> {
        let q = |sql: &str| env.run_sql(sql).map_err(|e| format!("{sql}: {e}"));
        let cell = |v: &tag_sql::Value| {
            v.as_i64()
                .ok_or_else(|| format!("expected an integer, got {v}"))
        };
        let mut schools = Vec::new();
        for r in q("SELECT CDSCode, School, City, AvgScrMath, Enrollment FROM schools")?.rows {
            schools.push((
                cell(&r[0])?,
                r[1].to_string(),
                r[2].to_string(),
                cell(&r[3])?,
                cell(&r[4])?,
            ));
        }
        let mut takers = HashMap::new();
        for r in q("SELECT cds, NumTstTakr FROM satscores")?.rows {
            takers.insert(cell(&r[0])?, cell(&r[1])?);
        }
        let mut cities: Vec<String> = schools.iter().map(|s| s.2.clone()).collect();
        cities.sort();
        cities.dedup();
        let mut math_sorted: Vec<i64> = schools.iter().map(|s| s.3).collect();
        math_sorted.sort_unstable();
        Ok(Shadow {
            schools,
            takers,
            cities,
            math_sorted,
        })
    }

    fn apply_insert(&mut self, first_id: i64, city: &str) {
        for id in first_id..first_id + 10 {
            let (name, math, enrollment) = added_school(id);
            self.schools
                .push((id, name, city.to_owned(), math, enrollment));
        }
    }

    /// Does `rs` hold what `op` must return over the shadow's rows?
    fn agrees(&self, op: &Op, rs: &ResultSet) -> bool {
        let close = |got: Option<f64>, want: f64| {
            got.is_some_and(|g| (g - want).abs() <= 1e-9 * want.abs().max(1.0))
        };
        match op {
            Op::GroupBy => {
                let mut groups: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
                for s in &self.schools {
                    let g = groups.entry(&s.2).or_default();
                    g.0 += 1;
                    g.1 += s.3;
                }
                rs.rows.len() == groups.len()
                    && rs.rows.iter().zip(&groups).all(|(r, (city, (n, sum)))| {
                        r[0].as_str() == Some(city)
                            && r[1].as_i64() == Some(*n)
                            && close(r[2].as_f64(), *sum as f64 / *n as f64)
                    })
            }
            Op::Join { min_math } => {
                let mut hits: Vec<(i64, i64, &str)> = self
                    .schools
                    .iter()
                    .filter(|s| s.3 > *min_math)
                    .filter_map(|s| self.takers.get(&s.0).map(|t| (-t, s.0, s.1.as_str())))
                    .collect();
                hits.sort_unstable();
                hits.truncate(10);
                rs.rows.len() == hits.len()
                    && rs.rows.iter().zip(&hits).all(|(r, (neg_takers, _, name))| {
                        r[0].as_str() == Some(name) && r[1].as_i64() == Some(-neg_takers)
                    })
            }
            Op::KeyedAgg { city } => {
                let (n, sum) = self
                    .schools
                    .iter()
                    .filter(|s| s.2 == *city)
                    .fold((0i64, 0i64), |(n, sum), s| (n + 1, sum + s.4));
                rs.rows.len() == 1
                    && rs.rows[0][0].as_i64() == Some(n)
                    && (n == 0 || close(rs.rows[0][1].as_f64(), sum as f64 / n as f64))
            }
            Op::Lookup { id } => {
                let want: Vec<&str> = self
                    .schools
                    .iter()
                    .filter(|s| s.0 == *id)
                    .map(|s| s.1.as_str())
                    .collect();
                rs.rows.len() == want.len()
                    && rs
                        .rows
                        .iter()
                        .zip(&want)
                        .all(|(r, name)| r[0].as_str() == Some(name))
            }
            Op::Method { .. } | Op::Insert { .. } => true,
        }
    }
}

/// Block `b` of the op stream: the fixed mix, parameters from the seed.
fn block(b: usize, templates: usize, shadow: &Shadow, rng: &Rng) -> Vec<Op> {
    let mut rng = rng.fork(b as u64 + 1);
    let mut ops = Vec::with_capacity(20);
    for i in 0..12 {
        // `pool` holds VARIANTS questions per template, template-major.
        let template = (12 * b + i) % templates;
        ops.push(Op::Method {
            method: if (i + b).is_multiple_of(3) {
                MethodName::HandWritten
            } else {
                MethodName::Text2Sql
            },
            question: template * VARIANTS + rng.below(VARIANTS),
        });
    }
    let quantile =
        |rng: &mut Rng| shadow.math_sorted[(1 + rng.below(39)) * shadow.math_sorted.len() / 40];
    ops.push(Op::GroupBy);
    ops.push(Op::GroupBy);
    for _ in 0..2 {
        ops.push(Op::Join {
            min_math: quantile(&mut rng),
        });
        ops.push(Op::KeyedAgg {
            city: rng.pick(&shadow.cities).clone(),
        });
    }
    ops.push(Op::Lookup {
        id: 1 + rng.below(ROWS) as i64,
    });
    ops.push(Op::Insert {
        first_id: 1_000_000 + 10 * b as i64,
        city: rng.pick(&shadow.cities).clone(),
    });
    rng.shuffle(&mut ops);
    ops
}

enum Done {
    Answer(String),
    Rows(Result<ResultSet, String>),
    Inserted(Result<(), String>),
}

impl Done {
    fn digest(&self) -> u64 {
        match self {
            Done::Answer(text) => fnv1a(text.as_bytes()),
            Done::Rows(Ok(rs)) => {
                let lines: Vec<String> = rs
                    .rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join("\u{1f}")
                    })
                    .collect();
                fnv1a(lines.join("\n").as_bytes())
            }
            Done::Rows(Err(e)) | Done::Inserted(Err(e)) => fnv1a(e.as_bytes()),
            Done::Inserted(Ok(())) => fnv1a(b"ok"),
        }
    }
}

fn execute(env: &mut TagEnv, op: &Op, pool: &[Question]) -> Done {
    match op {
        Op::Method { method, question } => Done::Answer(format_answer(&run_method(
            *method,
            &pool[*question].text,
            env,
        ))),
        Op::Insert { .. } => Done::Inserted(
            env.db
                .execute(&op.sql().expect("insert statement"))
                .map(|_| ())
                .map_err(|e| e.to_string()),
        ),
        _ => Done::Rows(
            env.run_sql(&op.sql().expect("analyst statement"))
                .map_err(|e| e.to_string()),
        ),
    }
}

/// Datagen + construction + the first touch of every statement kind
/// (index and columnar-image builds happen there).
fn set_up(
    seed: u64,
    lm: Arc<dyn LanguageModel>,
    pool: &[Question],
) -> Result<(TagEnv, f64, f64), String> {
    let t = Instant::now();
    let domain = schools::generate_bulk(seed, ROWS);
    let generate_s = t.elapsed().as_secs_f64();
    let mut env = TagEnv::new(domain.db, lm);
    let warm = [
        Op::GroupBy,
        Op::Join { min_math: 500 },
        Op::KeyedAgg {
            city: "Fresno".to_owned(),
        },
        Op::Lookup { id: 1 },
        Op::Method {
            method: MethodName::Text2Sql,
            question: 0,
        },
        Op::Method {
            method: MethodName::HandWritten,
            question: 0,
        },
    ];
    for op in &warm {
        if let Done::Rows(Err(e)) = execute(&mut env, op, pool) {
            return Err(format!("warm-up statement failed: {e}"));
        }
    }
    Ok((env, t.elapsed().as_secs_f64(), generate_s))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let rng = Rng::new(cfg.seed);
    // Templates come from the standard data set; their parameters are
    // re-drawn from the big tables.
    let big: DomainData = schools::generate_bulk(cfg.seed, ROWS);
    // The probes' environments first: their RSS deltas need a process
    // that has not freed anything yet.
    let mut probes = cfg
        .trace
        .then(|| Probes::build(std::slice::from_ref(&big), epoch))
        .transpose()?;
    let small = generate_all(cfg.seed, Scale::default());
    let pool = questions::generate_per_template(&big, &small, VARIANTS, &mut rng.fork(0x9e57));
    drop((small, big));

    let timed = cfg.trace.then(|| Arc::new(TimedLm::new(epoch)));
    let lm = || match &timed {
        Some(t) => Arc::clone(t) as Arc<dyn LanguageModel>,
        None => Arc::new(SimLm::new(SimConfig::default())),
    };
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setups() {
        drop(built.take());
        let (env, secs, generate_s) = set_up(cfg.seed, lm(), &pool)?;
        setups.push(secs);
        built = Some((env, generate_s));
    }
    let (mut env, generate_s) = built.expect("set-up ran");
    let mut shadow = Shadow::read(&env)?;

    // The timed section: whole blocks until the time is up.
    let mut rec = Recorder::new(epoch);
    if let Some(t) = &timed {
        t.set_logging(true);
    }
    let mut serial = SerialStats::default();
    let mut ops: Vec<Op> = Vec::new();
    let mut done: Vec<Done> = Vec::new();
    let mut lat_ns: Vec<u64> = Vec::new();
    let mut block_s: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut b = 0;
    // The traced run spends half its time here and the rest on probes.
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    while started.elapsed().as_secs_f64() < seconds || ops.len() < cfg.min_ops(MIN_OPS) {
        for op in block(b, pool.len() / VARIANTS, &shadow, &rng) {
            let lm0 = timed.as_ref().map(|t| (t.totals(), t.usage()));
            let t0 = Instant::now();
            let out = execute(&mut env, &op, &pool);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            if let (Some(t), Some((totals0, (v0, _, c0)))) = (&timed, lm0) {
                let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
                let name = match op {
                    Op::Method { .. } => "core.run_method",
                    Op::Insert { .. } => "sql.execute",
                    _ => "sql.run_sql",
                };
                let root = rec.push(name, None, ops.len() as u64, since(t0), since(t1));
                for (s, e, _) in t.take_calls() {
                    rec.push("lm.generate_batch", Some(root), ops.len() as u64, s, e);
                }
                if let Op::Method { method, .. } = op {
                    let (v1, _, c1) = t.usage();
                    serial.record(method, ns, t.totals() - totals0, v1 - v0, c1 - c0);
                }
            }
            lat_ns.push(ns);
            ops.push(op);
            done.push(out);
        }
        b += 1;
        block_s.push(started.elapsed().as_secs_f64() - block_s.iter().sum::<f64>());
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Correctness, off the clock: replay the inserts into the shadow and
    // hold every analyst result against it; hold every op against the
    // committed digests where this seed has them.
    let mut notes = Vec::new();
    let mut bad = vec![false; ops.len()];
    for (i, (op, out)) in ops.iter().zip(&done).enumerate() {
        let ok = match out {
            Done::Answer(_) => true,
            Done::Rows(Ok(rs)) => shadow.agrees(op, rs),
            Done::Rows(Err(_)) | Done::Inserted(Err(_)) => false,
            Done::Inserted(Ok(())) => true,
        };
        if let Op::Insert { first_id, city } = op {
            shadow.apply_insert(*first_id, city);
        }
        if !ok {
            bad[i] = true;
            notes.push(format!(
                "op {i} ({}) disagrees with the harness's oracle",
                op.label(&pool)
            ));
        }
    }
    let digests: Vec<(String, u64)> = ops
        .iter()
        .zip(&done)
        .take(MIN_OPS)
        .map(|(op, out)| (op.label(&pool), out.digest()))
        .collect();
    for i in digest::hold(cfg, &digests, &mut notes)? {
        bad[i] = true;
    }
    let failed = bad.iter().filter(|b| **b).count() as u64;
    notes.truncate(8);

    let attempted = ops.len() as u64;
    if !cfg.trace {
        cfg.check_timed_section(elapsed)?;
        // Slices are runs of whole blocks, so each holds the same mix.
        let mut slices = slices_of_units(&block_s, &lat_ns);
        let report = Report::end_to_end(&mut slices, 90.0, &setups, &mut notes)?;
        return Ok(Outcome {
            attempted,
            failed,
            report,
            notes,
        });
    }

    // ---- the traced run: per-layer metrics ---------------------------
    let mut report = Report::per_layer();
    report.set("tag-datagen.generate_s", generate_s);
    serial.fill(&mut report)?;
    fill_prompt_cache(std::iter::once(&env), &mut report);
    let plan = env.db.plan_cache_stats();
    report.set_share(
        "tag-sql.plan_cache_hit_ratio",
        plan.hits,
        plan.hits + plan.misses,
    );
    // Tracing overhead on the first block's Text2SQL and analyst ops,
    // replayed on the warm environment with every other op traced.
    let timed = timed.expect("traced run has a TimedLm");
    let sample: Vec<&Op> = ops
        .iter()
        .take(20)
        .filter(|op| {
            !matches!(
                op,
                Op::Insert { .. }
                    | Op::Method {
                        method: MethodName::HandWritten,
                        ..
                    }
            )
        })
        .take(8)
        .collect();
    let mut passes = Vec::new();
    for parity in [0, 1, 1, 0] {
        let mut scratch = Recorder::new(epoch);
        let mut pass = Vec::new();
        for (k, op) in sample.iter().enumerate() {
            let traced = k % 2 == parity;
            timed.set_logging(traced);
            let t0 = scratch.now_ns();
            let _ = execute(&mut env, op, &pool);
            if traced {
                let root = scratch.push("op", None, 0, t0, scratch.now_ns());
                for (s, e, _) in timed.take_calls() {
                    scratch.push("lm.generate_batch", Some(root), 0, s, e);
                }
            }
            pass.push(scratch.now_ns() - t0);
        }
        passes.push((parity, pass));
    }
    report.set_n(
        "tag-perf.trace_overhead_ratio",
        alternating_ratio(&passes),
        sample.len(),
    );

    let method_ops: Vec<ProbeOp> = ops
        .iter()
        .zip(&lat_ns)
        .filter_map(|(op, ns)| match op {
            Op::Method { method, question } => Some(ProbeOp {
                domain: DOMAIN.to_owned(),
                method: *method,
                question: pool[*question].text.clone(),
                serial_ns: *ns,
            }),
            _ => None,
        })
        .take(36)
        .collect();
    drop(env);
    probes.as_mut().expect("built when tracing").run(
        &method_ops,
        Exercised {
            retrieval: false,
            answer_cache: false,
        },
        &mut report,
    )?;

    let all_spans = rec.into_spans();
    notes.push(spans::finish(&cfg.spans_path(), &all_spans)?);
    Ok(Outcome {
        attempted,
        failed,
        report,
        notes,
    })
}
