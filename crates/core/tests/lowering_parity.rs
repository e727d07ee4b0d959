//! `lower_scans` changes where the relational prefix of a plan runs,
//! never what the plan returns.
//!
//! The reference is the un-lowered chain (`optimize_sem` output, every
//! scan `SELECT *`, every predicate and cut a frame kernel) run through
//! `execute_sem` here in the test; nothing ships that path.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use tag_core::{compile_nlq, plan_nlq, Answer, HandWrittenTag, SemRuntime, TagEnv};
use tag_datagen::{generate_all, Scale};
use tag_lm::model::{LanguageModel, LmRequest, LmResponse, LmResult};
use tag_lm::nlq::NlQuery;
use tag_lm::sim::{SimConfig, SimLm};
use tag_sql::{
    execute_sem, lower_scans, optimize_sem, CutSpec, Database, FrameSource, SemFrame,
    SemOptOptions, SemPlan, SemReads, SemStep, Value,
};

/// A `SimLm` that remembers every prompt it was sent, in order.
struct RecordingLm {
    inner: SimLm,
    prompts: Mutex<Vec<String>>,
}

impl RecordingLm {
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut self.prompts.lock().unwrap())
    }
}

impl LanguageModel for RecordingLm {
    fn generate_batch(&self, requests: &[LmRequest]) -> LmResult<Vec<LmResponse>> {
        self.prompts
            .lock()
            .unwrap()
            .extend(requests.iter().map(|r| r.prompt.clone()));
        self.inner.generate_batch(requests)
    }

    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }

    fn reset_metrics(&self) {
        self.inner.reset_metrics()
    }

    fn batches(&self) -> u64 {
        self.inner.batches()
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

fn all_opts() -> Vec<SemOptOptions> {
    let mut out = Vec::new();
    for pushdown in [false, true] {
        for distinct_rewrite in [false, true] {
            for precut in [false, true] {
                out.push(SemOptOptions {
                    pushdown,
                    distinct_rewrite,
                    precut,
                });
            }
        }
    }
    out
}

/// What `HandWrittenTag` makes of a plan's result, written out again so
/// the reference shares no code with the shipped consumer.
fn read_answer(q: &NlQuery, frame: Result<SemFrame, String>) -> Answer {
    let frame = match frame {
        Ok(f) => f,
        Err(e) => return Answer::Error(e),
    };
    match q {
        NlQuery::Superlative { select_attr, .. }
        | NlQuery::List { select_attr, .. }
        | NlQuery::TopK { select_attr, .. }
        | NlQuery::SemanticRank { select_attr, .. } => {
            match frame
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(select_attr))
            {
                Some(i) => Answer::List(frame.rows().iter().map(|r| r[i].to_string()).collect()),
                None => Answer::Error(format!("no such column: {select_attr}")),
            }
        }
        NlQuery::Count { .. } => Answer::List(vec![frame.rows().len().to_string()]),
        NlQuery::Summarize { .. } | NlQuery::ProvideInfo { .. } => Answer::Text(
            frame
                .rows()
                .first()
                .and_then(|r| r.first())
                .map(|v| v.to_string())
                .unwrap_or_default(),
        ),
    }
}

/// 80 canonical questions × 8 rule sets: the shipped (lowered) path and
/// the un-lowered reference give the same answer from the same prompts.
#[test]
fn lowered_plans_answer_as_unlowered_plans_do() {
    let scale = Scale {
        schools: 120,
        players: 150,
        posts: 60,
        customers: 120,
        drivers: 10,
    };
    let domains = generate_all(42, scale);
    let queries = tag_bench::build_benchmark(&domains);
    assert_eq!(queries.len(), 80);
    let mut folded = 0;
    let mut projected = 0;
    for domain in &domains {
        let lm = Arc::new(RecordingLm {
            inner: SimLm::new(SimConfig::default()),
            prompts: Mutex::new(Vec::new()),
        });
        let env = TagEnv::new(domain.db.clone(), lm.clone());
        for q in queries.iter().filter(|q| q.domain == domain.name) {
            for opts in all_opts() {
                env.set_sem_opt(opts);

                env.reset_metrics();
                let reference = optimize_sem(compile_nlq(&q.query), &opts);
                let want = read_answer(&q.query, execute_sem(&reference, &SemRuntime::new(&env)));
                let (want_calls, want_prompts) = (lm.calls(), lm.take());

                env.reset_metrics();
                let got = HandWrittenTag.answer_structured(&q.query, &env);
                let (got_calls, got_prompts) = (lm.calls(), lm.take());

                let tag = format!("query {} rules={}", q.id, opts.cache_tag());
                assert_eq!(got, want, "{tag}");
                assert_eq!(got_calls, want_calls, "{tag}");
                assert_eq!(got_prompts, want_prompts, "{tag}");

                let plan = plan_nlq(&q.query, &opts, &env.db).explain();
                folded += usize::from(plan.contains(" WHERE ") || plan.contains(" ORDER BY "));
                projected += usize::from(plan.contains(": SELECT \""));
            }
        }
    }
    // The sweep exercised the lowering, not 640 bare scans.
    assert!(folded > 100, "{folded} plans folded a predicate or cut");
    assert!(projected > 400, "{projected} plans projected their scan");
}

/// The shapes `sql_scale` asks, over its `schools` table at 2,000 rows,
/// where early stop judges its values over several rounds: the 11
/// canonical `schools` questions (superlatives, lists and counts with an
/// INTEGER predicate folded into the scan, top-k), plus a superlative
/// with a folded INTEGER predicate and a count and a top-k whose REAL
/// predicate stays above the scan as a frame kernel. Under every rule
/// set, each answers, calls the LM and prompts it exactly as the
/// un-lowered chain does.
#[test]
fn sql_scale_shapes_answer_as_unlowered_plans_do() {
    let scale = Scale {
        schools: 120,
        players: 150,
        posts: 60,
        customers: 120,
        drivers: 10,
    };
    let mut questions: Vec<NlQuery> = tag_bench::build_benchmark(&generate_all(42, scale))
        .into_iter()
        .filter(|q| q.domain == "california_schools")
        .map(|q| q.query)
        .collect();
    assert_eq!(questions.len(), 11);
    for text in [
        "What is the School of the schools with the highest Longitude among those with \
         AvgScrMath over 600 and located in the Bay Area region?",
        "How many schools with Longitude under -120 and located in the Bay Area region are there?",
        "List the top 3 schools by AvgScrMath: give their School among those with Latitude \
         over 36 and located in the Central Valley region.",
    ] {
        questions.push(NlQuery::parse(text).expect(text));
    }
    let lm = Arc::new(RecordingLm {
        inner: SimLm::new(SimConfig::default()),
        prompts: Mutex::new(Vec::new()),
    });
    let env = TagEnv::new(
        tag_datagen::schools::generate_bulk(42, 2_000).db,
        lm.clone(),
    );
    let (mut rounds, mut above_scan) = (0, 0);
    for q in &questions {
        for opts in all_opts() {
            env.set_sem_opt(opts);

            env.reset_metrics();
            let reference = optimize_sem(compile_nlq(q), &opts);
            let want = read_answer(q, execute_sem(&reference, &SemRuntime::new(&env)));
            let (want_calls, want_prompts) = (lm.calls(), lm.take());

            env.reset_metrics();
            let got = HandWrittenTag.answer_structured(q, &env);
            let (got_calls, got_prompts) = (lm.calls(), lm.take());

            let tag = format!("{} rules={}", q.render(), opts.cache_tag());
            assert!(!matches!(got, Answer::Error(_)), "{tag}: {got:?}");
            assert_eq!(got, want, "{tag}");
            assert_eq!(got_calls, want_calls, "{tag}");
            assert_eq!(got_prompts, want_prompts, "{tag}");

            if opts.precut {
                rounds = rounds.max(lm.batches());
            }
            let plan = plan_nlq(q, &opts, &env.db).explain();
            above_scan += usize::from(plan.contains("Predicate "));
        }
    }
    assert!(rounds >= 2, "early stop needed {rounds} round(s) at most");
    assert!(
        above_scan >= 16,
        "{above_scan} plans kept a predicate above the scan"
    );
}

fn small_env(ddl: &str) -> TagEnv {
    let mut db = Database::new();
    db.execute_script(ddl).unwrap();
    TagEnv::new(db, Arc::new(SimLm::new(SimConfig::default())))
}

/// Errors come out of the code they always came out of, so their text
/// is the parent commit's, byte for byte.
#[test]
fn error_text_is_unchanged() {
    let env = small_env(
        "CREATE TABLE schools (CDSCode INTEGER PRIMARY KEY, School TEXT, City TEXT, \
                               Longitude REAL, AvgScrMath INTEGER);
         INSERT INTO schools VALUES (1, 'Gunn High', 'Palo Alto', -122.1, 700);
         CREATE TABLE posts (Id INTEGER, Title TEXT, ViewCount INTEGER);
         INSERT INTO posts VALUES (1, 'Bayesian kernel regression', 900);",
    );
    let answer =
        |question: &str| HandWrittenTag.answer_structured(&NlQuery::parse(question).unwrap(), &env);
    // A missing table.
    assert_eq!(
        answer("How many dragons are there?"),
        Answer::Error("base scan failed: catalog error: no such table: dragons".into())
    );
    // A missing select_attr, behind a folded predicate.
    assert_eq!(
        answer("List the Mascot of schools with AvgScrMath over 600."),
        Answer::Error("binding error: no such column: Mascot".into())
    );
    // A semantic filter none of whose candidate columns exists.
    assert_eq!(
        answer("How many posts located in the Bay Area region are there?"),
        Answer::Error(
            "semantic operator frame error: binding error: pipeline expects one of the columns \
             [\"City\", \"city\"], frame has [\"Id\", \"Title\", \"ViewCount\"]"
                .into()
        )
    );
    // A cut on a missing column.
    assert_eq!(
        answer("What is the School of the schools with the highest Altitude?"),
        Answer::Error("binding error: no such column: Altitude".into())
    );
}

fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        (-3i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        "[a-c]{0,2}".prop_map(Value::Text),
    ]
}

/// The declared type of the key column decides which variants survive
/// the insert's coercion, so all three are drawn.
fn declared() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("INTEGER"), Just("REAL"), Just("TEXT")]
}

/// `step` over a bare scan of `t`.
fn over_scan(step: SemStep) -> SemPlan {
    SemPlan::Frame {
        source: FrameSource::scan("t"),
        steps: vec![step],
        gen: None,
    }
}

fn keyed_db(keys: &[Value], dtype: &str) -> Database {
    let mut db = Database::new();
    db.execute(&format!("CREATE TABLE t (id INTEGER, k {dtype}, pad TEXT)"))
        .unwrap();
    for (i, k) in keys.iter().enumerate() {
        db.catalog_mut()
            .table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(i as i64), k.clone(), Value::text("p")])
            .unwrap();
    }
    db
}

proptest! {
    /// A cut folded into the scan returns the rows, in the order, of a
    /// stable sort + truncate over the full scan's rows:
    /// NULL keys, mixed Int/Float keys (a REAL column's NaN and -0.0
    /// included) and duplicate keys, whose order the stable (key, seq)
    /// tiebreak on both sides decides.
    #[test]
    fn folded_cut_matches_frame_kernel(
        keys in prop::collection::vec(cell(), 0..24),
        dtype in declared(),
        descending in any::<bool>(),
        k in 0usize..8,
    ) {
        let env = TagEnv::new(keyed_db(&keys, dtype), Arc::new(SimLm::new(SimConfig::default())));
        let cut = CutSpec { sort_by: "k".into(), descending, k };
        let naive = over_scan(SemStep::Cut { cut: cut.clone() });
        let lowered = lower_scans(naive, env.db.catalog(), &SemReads::columns(&["id"]));
        prop_assert!(
            matches!(
                &lowered,
                SemPlan::Frame {
                    source: FrameSource::Scan { cut: Some(_), columns: Some(_), .. },
                    steps,
                    gen: None,
                } if steps.is_empty()
            ),
            "{}", lowered.explain()
        );
        let got = execute_sem(&lowered, &SemRuntime::new(&env)).unwrap();

        // `t`'s columns are (id, k, pad).
        let mut rows = env.db.query("SELECT * FROM t").unwrap().rows;
        rows.sort_by(|a, b| {
            let ord = a[1].total_cmp(&b[1]);
            if descending { ord.reverse() } else { ord }
        });
        rows.truncate(k);
        let want: Vec<Vec<Value>> = rows.into_iter().map(|r| vec![r[0].clone()]).collect();
        prop_assert_eq!(got.columns, vec!["id".to_owned()]);
        prop_assert_eq!(format!("{:?}", got.rows()), format!("{:?}", want));
    }

    /// A predicate `lower_scans` folds keeps the rows its frame kernel
    /// keeps, whatever the declared type let into the column; one it
    /// leaves alone is still a frame node.
    #[test]
    fn folded_predicates_match_frame_kernels(
        keys in prop::collection::vec(cell(), 0..24),
        dtype in declared(),
        over in any::<bool>(),
        threshold in prop_oneof![(-3i64..4).prop_map(|i| i as f64 / 2.0), Just(-0.0), Just(f64::NAN)],
        needle in "[a-cA-C%_]{0,2}",
    ) {
        let env = TagEnv::new(keyed_db(&keys, dtype), Arc::new(SimLm::new(SimConfig::default())));
        let runtime = SemRuntime::new(&env);
        for pred in [
            tag_sql::SemPredicate::NumCmp { attr: "k".into(), over, value: threshold },
            tag_sql::SemPredicate::TextEq { attr: "K".into(), value: needle.clone() },
        ] {
            let naive = over_scan(SemStep::Predicate { pred });
            let want = execute_sem(&naive, &runtime).unwrap();
            let lowered = lower_scans(naive, env.db.catalog(), &SemReads::All);
            let got = execute_sem(&lowered, &runtime).unwrap();
            prop_assert_eq!(
                format!("{:?}", got.rows()), format!("{:?}", want.rows()),
                "{}", lowered.explain()
            );
        }
    }
}
