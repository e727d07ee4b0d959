//! The shared question generator.
//!
//! The 80 curated TAG-Bench queries at 600 rows are one point. The
//! workloads replay *synthesised* questions instead: for each of the 80
//! templates the free parameters of its `NlQuery` are re-drawn from the
//! seed, from values the generated tables actually hold. Answers that
//! come back as `Answer::Error` are valid outputs (Text2SQL failing on a
//! reasoning clause is the paper's result), not failures.

use crate::rng::Rng;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use tag_bench::{build_benchmark, BenchQuery, QueryKind, QueryType};
use tag_datagen::DomainData;
use tag_lm::nlq::{NlFilter, NlQuery, SemProperty};
use tag_sql::Database;

/// One generated question.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// Id of the TAG-Bench template (1..=80) this is a variant of.
    pub template: usize,
    pub domain: &'static str,
    pub qtype: QueryType,
    pub kind: QueryKind,
    pub query: NlQuery,
    pub text: String,
}

const PROPERTIES: [SemProperty; 4] = [
    SemProperty::Positive,
    SemProperty::Negative,
    SemProperty::Sarcastic,
    SemProperty::Technical,
];

/// The values parameters are drawn from: the knowledge-clause vocabulary
/// of the templates themselves, and column contents read through SQL.
pub struct Pools {
    /// `(entity, attr)` → ascending numeric column values.
    numeric: BTreeMap<(String, String), Vec<f64>>,
    /// entity → numeric attributes the templates filter or rank on.
    numeric_attrs: BTreeMap<String, Vec<String>>,
    /// `(entity, attr)` → distinct text values, sorted.
    text: BTreeMap<(String, String), Vec<String>>,
    regions: Vec<String>,
    persons: Vec<String>,
    continents: Vec<String>,
    circuits: Vec<String>,
    verticals: Vec<String>,
}

fn column(db: &Database, table: &str, col: &str) -> Vec<tag_sql::Value> {
    let rs = db
        .query(&format!("SELECT {col} FROM {table}"))
        .unwrap_or_else(|e| panic!("reading {table}.{col} for the question pools: {e}"));
    rs.rows.into_iter().map(|mut r| r.swap_remove(0)).collect()
}

fn distinct_text(db: &Database, table: &str, col: &str) -> Vec<String> {
    let set: BTreeSet<String> = column(db, table, col)
        .iter()
        .filter_map(|v| v.as_str().map(str::to_owned))
        .collect();
    set.into_iter().collect()
}

impl Pools {
    /// Read the pools for `templates` out of `domains`.
    pub fn new(domains: &[DomainData], templates: &[BenchQuery]) -> Pools {
        let mut p = Pools {
            numeric: BTreeMap::new(),
            numeric_attrs: BTreeMap::new(),
            text: BTreeMap::new(),
            regions: Vec::new(),
            persons: Vec::new(),
            continents: Vec::new(),
            circuits: Vec::new(),
            verticals: Vec::new(),
        };
        fn add(list: &mut Vec<String>, v: &str) {
            if !list.iter().any(|x| x == v) {
                list.push(v.to_owned());
            }
        }
        for t in templates {
            let db = &domains
                .iter()
                .find(|d| d.name == t.domain)
                .expect("template domain generated")
                .db;
            let entity = t.query.entity().to_owned();
            let numeric = |p: &mut Pools, attr: &str| {
                let key = (entity.clone(), attr.to_owned());
                if p.numeric.contains_key(&key) {
                    return;
                }
                let mut vals: Vec<f64> = column(db, &entity, attr)
                    .iter()
                    .filter_map(tag_sql::Value::as_f64)
                    .collect();
                vals.sort_by(f64::total_cmp);
                p.numeric.insert(key, vals);
                add(p.numeric_attrs.entry(entity.clone()).or_default(), attr);
            };
            match &t.query {
                NlQuery::Superlative { rank_attr, .. }
                | NlQuery::TopK { rank_attr, .. }
                | NlQuery::SemanticRank { rank_attr, .. } => numeric(&mut p, rank_attr),
                _ => {}
            }
            for f in t.query.filters() {
                match f {
                    NlFilter::NumCmp { attr, .. } => numeric(&mut p, attr),
                    NlFilter::TextEq { attr, .. } => {
                        // `PostTitle` on comments names the parent post.
                        let (table, col) = if attr == "PostTitle" {
                            ("posts", "Title")
                        } else {
                            (entity.as_str(), attr.as_str())
                        };
                        p.text
                            .entry((entity.clone(), attr.clone()))
                            .or_insert_with(|| distinct_text(db, table, col));
                    }
                    NlFilter::InRegion { region } => add(&mut p.regions, region),
                    NlFilter::TallerThan { person } => add(&mut p.persons, person),
                    NlFilter::CircuitContinent { continent } => add(&mut p.continents, continent),
                    NlFilter::VerticalIs { vertical } => add(&mut p.verticals, vertical),
                    NlFilter::AtCircuit { .. } if p.circuits.is_empty() => {
                        p.circuits = distinct_text(db, &entity, "Circuit");
                    }
                    _ => {}
                }
            }
        }
        p
    }

    /// A threshold at one of 39 evenly spaced quantiles of the column.
    fn threshold(&self, entity: &str, attr: &str, rng: &mut Rng) -> Option<f64> {
        let vals = self.numeric.get(&(entity.to_owned(), attr.to_owned()))?;
        if vals.is_empty() {
            return None;
        }
        let step = 1 + rng.below(39);
        Some(vals[(step * vals.len() / 40).min(vals.len() - 1)])
    }

    fn redraw_filter(&self, entity: &str, f: &NlFilter, rng: &mut Rng) -> NlFilter {
        let pick = |list: &[String], old: &str, rng: &mut Rng| {
            if list.is_empty() {
                old.to_owned()
            } else {
                rng.pick(list).clone()
            }
        };
        match f {
            NlFilter::NumCmp { attr, op, value } => NlFilter::NumCmp {
                attr: attr.clone(),
                op: *op,
                value: self.threshold(entity, attr, rng).unwrap_or(*value),
            },
            NlFilter::TextEq { attr, value } => {
                let pool = self.text.get(&(entity.to_owned(), attr.clone()));
                NlFilter::TextEq {
                    attr: attr.clone(),
                    value: pick(pool.map_or(&[][..], Vec::as_slice), value, rng),
                }
            }
            NlFilter::InRegion { region } => NlFilter::InRegion {
                region: pick(&self.regions, region, rng),
            },
            NlFilter::TallerThan { person } => NlFilter::TallerThan {
                person: pick(&self.persons, person, rng),
            },
            NlFilter::CircuitContinent { continent } => NlFilter::CircuitContinent {
                continent: pick(&self.continents, continent, rng),
            },
            NlFilter::AtCircuit { circuit } => NlFilter::AtCircuit {
                circuit: pick(&self.circuits, circuit, rng),
            },
            NlFilter::VerticalIs { vertical } => NlFilter::VerticalIs {
                vertical: pick(&self.verticals, vertical, rng),
            },
            NlFilter::Semantic { attr, .. } => NlFilter::Semantic {
                attr: attr.clone(),
                property: *rng.pick(&PROPERTIES),
            },
            NlFilter::EuCountry | NlFilter::ClassicMovie => f.clone(),
        }
    }

    /// Re-draw the template's filters; half the time add one relational
    /// threshold on a numeric attribute not yet constrained. Without it
    /// the low-cardinality templates (one circuit, one post title, "EU
    /// countries") could not fill their share of distinct questions.
    fn redraw_filters(&self, entity: &str, filters: &[NlFilter], rng: &mut Rng) -> Vec<NlFilter> {
        let mut out: Vec<NlFilter> = filters
            .iter()
            .map(|f| self.redraw_filter(entity, f, rng))
            .collect();
        if rng.coin() {
            let free: Vec<&String> = self
                .numeric_attrs
                .get(entity)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .filter(|a| {
                    !out.iter()
                        .any(|f| matches!(f, NlFilter::NumCmp { attr, .. } if attr == *a))
                })
                .collect();
            if !free.is_empty() {
                let attr = (*rng.pick(&free)).clone();
                if let Some(value) = self.threshold(entity, &attr, rng) {
                    let op = if rng.coin() {
                        tag_lm::nlq::CmpOp::Over
                    } else {
                        tag_lm::nlq::CmpOp::Under
                    };
                    out.push(NlFilter::NumCmp { attr, op, value });
                }
            }
        }
        out
    }

    /// One variant of `template` with its free parameters re-drawn.
    pub fn redraw(&self, template: &NlQuery, rng: &mut Rng) -> NlQuery {
        let entity = template.entity();
        let filters = self.redraw_filters(entity, template.filters(), rng);
        match template.clone() {
            NlQuery::Superlative {
                entity,
                select_attr,
                rank_attr,
                ..
            } => NlQuery::Superlative {
                entity,
                select_attr,
                rank_attr,
                highest: rng.coin(),
                filters,
            },
            NlQuery::Count { entity, .. } => NlQuery::Count { entity, filters },
            NlQuery::List {
                entity,
                select_attr,
                ..
            } => NlQuery::List {
                entity,
                select_attr,
                filters,
            },
            NlQuery::SemanticRank {
                entity,
                select_attr,
                rank_attr,
                on_attr,
                ..
            } => NlQuery::SemanticRank {
                entity,
                select_attr,
                rank_attr,
                k: 1 + rng.below(10),
                property: *rng.pick(&PROPERTIES),
                on_attr,
            },
            NlQuery::TopK {
                entity,
                select_attr,
                rank_attr,
                ..
            } => NlQuery::TopK {
                entity,
                select_attr,
                rank_attr,
                k: 1 + rng.below(10),
                highest: rng.coin(),
                filters,
            },
            NlQuery::Summarize { entity, topic, .. } => NlQuery::Summarize {
                entity,
                topic,
                filters,
            },
            NlQuery::ProvideInfo { entity, .. } => NlQuery::ProvideInfo { entity, filters },
        }
    }
}

/// Draw `per_group` distinct questions from each group of
/// templates that `group_of` puts together, cycling over the group's
/// templates, then shuffle the lot. Questions are deduplicated on their
/// rendered text and must survive `parse(render(q)) == q`.
fn generate_grouped<K: Ord + Copy>(
    domains: &[DomainData],
    templates: &[BenchQuery],
    per_group: usize,
    group_of: impl Fn(&BenchQuery) -> K,
    rng: &mut Rng,
) -> Vec<Question> {
    let pools = Pools::new(domains, templates);
    let mut groups: BTreeMap<K, Vec<&BenchQuery>> = BTreeMap::new();
    for t in templates {
        groups.entry(group_of(t)).or_default().push(t);
    }
    let mut seen: HashSet<String> = HashSet::new();
    let mut out = Vec::new();
    for members in groups.values() {
        let mut got = 0;
        let mut attempts = 0;
        while got < per_group {
            let t = members[attempts % members.len()];
            attempts += 1;
            assert!(
                attempts < 400 * per_group.max(10),
                "templates of {}/{:?}/{:?} cannot yield {per_group} distinct questions",
                t.domain,
                t.qtype,
                t.kind
            );
            let query = pools.redraw(&t.query, rng);
            let text = query.render();
            if NlQuery::parse(&text).as_ref() != Some(&query) || !seen.insert(text.clone()) {
                continue;
            }
            got += 1;
            out.push(Question {
                template: t.id,
                domain: t.domain,
                qtype: t.qtype,
                kind: t.kind,
                query,
                text,
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

/// `n` distinct questions (a multiple of 8) holding TAG-Bench's quotas:
/// a quarter per query type, and within each type half knowledge, half
/// reasoning.
pub fn generate(domains: &[DomainData], n: usize, rng: &mut Rng) -> Vec<Question> {
    assert!(
        n.is_multiple_of(8),
        "question count must split over 4 types x 2 kinds"
    );
    let templates = build_benchmark(domains);
    let cell = |t: &BenchQuery| (t.qtype as u8, t.kind as u8);
    generate_grouped(domains, &templates, n / 8, cell, rng)
}

/// `per_template` distinct questions for each of one domain's templates,
/// template-major (the first `per_template` belong to its first
/// template, and so on). `all` is the standard data set the templates are
/// built against; parameters are re-drawn from `domain`'s own tables.
pub fn generate_per_template(
    domain: &DomainData,
    all: &[DomainData],
    per_template: usize,
    rng: &mut Rng,
) -> Vec<Question> {
    let templates: Vec<BenchQuery> = build_benchmark(all)
        .into_iter()
        .filter(|t| t.domain == domain.name)
        .collect();
    let mut out = generate_grouped(
        std::slice::from_ref(domain),
        &templates,
        per_template,
        |t| t.id,
        rng,
    );
    // `generate_grouped` shuffles; a stable sort puts the groups back.
    out.sort_by_key(|q| q.template);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tag_datagen::{generate_all, Scale};

    fn questions(seed: u64, n: usize) -> Vec<Question> {
        let domains = generate_all(seed, Scale::default());
        generate(&domains, n, &mut Rng::new(seed))
    }

    #[test]
    fn same_seed_same_questions_and_another_seed_differs() {
        let a = questions(5, 160);
        assert_eq!(a, questions(5, 160));
        let b = questions(6, 160);
        assert_ne!(
            a.iter().map(|q| &q.text).collect::<Vec<_>>(),
            b.iter().map(|q| &q.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_question_round_trips_is_distinct_and_quotas_hold() {
        let qs = questions(42, 800);
        assert_eq!(qs.len(), 800);
        let texts: HashSet<&String> = qs.iter().map(|q| &q.text).collect();
        assert_eq!(texts.len(), 800, "deduplicated on text");
        for q in &qs {
            assert_eq!(
                NlQuery::parse(&q.text).as_ref(),
                Some(&q.query),
                "{}",
                q.text
            );
            assert_eq!(q.query.render(), q.text);
        }
        for t in [
            QueryType::MatchBased,
            QueryType::Comparison,
            QueryType::Ranking,
            QueryType::Aggregation,
        ] {
            let of_type: Vec<&Question> = qs.iter().filter(|q| q.qtype == t).collect();
            assert_eq!(of_type.len(), 200, "{t:?}");
            let knowledge = of_type
                .iter()
                .filter(|q| q.kind == QueryKind::Knowledge)
                .count();
            assert_eq!(knowledge, 100, "{t:?}");
        }
    }

    #[test]
    fn parameters_come_from_the_generated_tables() {
        let domains = generate_all(9, Scale::default());
        let templates = build_benchmark(&domains);
        let pools = Pools::new(&domains, &templates);
        assert!(pools.regions.iter().any(|r| r == "Bay Area"));
        assert!(pools.circuits.len() > 5, "{:?}", pools.circuits);
        let math = &pools.numeric[&("schools".to_owned(), "AvgScrMath".to_owned())];
        assert_eq!(math.len(), Scale::default().schools);
        let mut rng = Rng::new(1);
        for _ in 0..50 {
            let t = pools.threshold("schools", "AvgScrMath", &mut rng).unwrap();
            assert!(math.contains(&t), "threshold {t} is an observed value");
        }
    }
}
