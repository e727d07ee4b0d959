//! Ground-truth computation.
//!
//! Stands in for the paper's human labelling: every query's correct
//! answer is computed from the generated data, the *full-coverage*
//! knowledge base (ground-truth world facts), and the labels *planted at
//! generation time* — never from the simulated LM's own judgments.

use crate::queries::{BenchQuery, QueryType};
use tag_datagen::{DomainData, Labels};
use tag_lm::knowledge::{KnowledgeBase, KnowledgeConfig};
use tag_lm::nlq::{CmpOp, NlFilter, NlQuery, SemProperty};
use tag_sql::{Row, Schema, Value};

/// The oracle: ground-truth facts + planted labels for one domain.
pub struct Oracle {
    kb: KnowledgeBase,
}

impl Default for Oracle {
    fn default() -> Self {
        Self::new()
    }
}

impl Oracle {
    /// Build an oracle (full-coverage knowledge).
    pub fn new() -> Self {
        Oracle {
            kb: KnowledgeBase::new(KnowledgeConfig {
                coverage: 1.0,
                enumeration_coverage: 1.0,
                seed: 0,
            }),
        }
    }

    /// The labelled correct answer for a query, or `None` for aggregation
    /// queries (graded qualitatively, as in §4.1).
    ///
    /// # Panics
    /// Panics when the query is ill-posed over the data (ambiguous
    /// superlative, tied ranking); the benchmark test-suite validates
    /// every query against this.
    pub fn answer(&self, query: &BenchQuery, domain: &DomainData) -> Option<Vec<String>> {
        if query.qtype == QueryType::Aggregation {
            return None;
        }
        let table = domain
            .db
            .catalog()
            .table(query.query.entity())
            .expect("benchmark entity table exists");
        let schema = table.schema();
        // Filters read a cell or two; only the rows that pass are gathered.
        let image = table.columnar();
        let kept: Vec<Row> = (0..image.len())
            .filter(|&id| {
                let cell = |col: usize| image.value_at(id, col);
                query
                    .query
                    .filters()
                    .iter()
                    .all(|f| self.filter_truth(f, schema, &cell, &domain.labels))
            })
            .map(|id| image.row(id))
            .collect();
        let rows: Vec<&Row> = kept.iter().collect();

        let col = |name: &str| -> usize { schema.index_of(name).expect("benchmark column exists") };

        Some(match &query.query {
            NlQuery::Count { .. } => vec![rows.len().to_string()],
            NlQuery::Superlative {
                select_attr,
                rank_attr,
                highest,
                ..
            } => {
                let ri = col(rank_attr);
                let si = col(select_attr);
                let best = rows.iter().max_by(|a, b| {
                    let ord = a[ri].total_cmp(&b[ri]);
                    if *highest {
                        ord
                    } else {
                        ord.reverse()
                    }
                });
                let Some(best) = best else {
                    return Some(Vec::new());
                };
                // Well-posedness: the extreme rank value must be unique.
                let ties = rows.iter().filter(|r| r[ri] == best[ri]).count();
                assert_eq!(
                    ties, 1,
                    "query {} has an ambiguous superlative ({} ties)",
                    query.id, ties
                );
                vec![best[si].to_string()]
            }
            NlQuery::List { select_attr, .. } => {
                let si = col(select_attr);
                rows.iter().map(|r| r[si].to_string()).collect()
            }
            NlQuery::TopK {
                select_attr,
                rank_attr,
                k,
                highest,
                ..
            } => {
                let ri = col(rank_attr);
                let si = col(select_attr);
                let mut sorted = rows.clone();
                sorted.sort_by(|a, b| {
                    let ord = a[ri].total_cmp(&b[ri]);
                    if *highest {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                // Well-posedness: no tie across the k-boundary and the
                // kept keys are distinct (order is the answer).
                let cut: Vec<&&Row> = sorted.iter().take(*k).collect();
                if sorted.len() > *k {
                    assert_ne!(
                        sorted[*k - 1][ri],
                        sorted[*k][ri],
                        "query {} has a tie at the top-k boundary",
                        query.id
                    );
                }
                for w in cut.windows(2) {
                    assert_ne!(
                        w[0][ri], w[1][ri],
                        "query {} has tied ranking keys",
                        query.id
                    );
                }
                cut.iter().map(|r| r[si].to_string()).collect()
            }
            NlQuery::SemanticRank {
                select_attr,
                rank_attr,
                k,
                property,
                ..
            } => {
                let ri = col(rank_attr);
                let si = col(select_attr);
                let mut sorted = rows.clone();
                sorted.sort_by(|a, b| b[ri].total_cmp(&a[ri]));
                let mut cut: Vec<&&Row> = sorted.iter().take(*k).collect();
                let grade = |r: &Row| -> i64 {
                    self.semantic_grade(query.query.entity(), schema, r, *property, &domain.labels)
                };
                cut.sort_by_key(|r| std::cmp::Reverse(grade(r)));
                for w in cut.windows(2) {
                    assert_ne!(
                        grade(w[0]),
                        grade(w[1]),
                        "query {} has tied semantic grades",
                        query.id
                    );
                }
                cut.iter().map(|r| r[si].to_string()).collect()
            }
            NlQuery::Summarize { .. } | NlQuery::ProvideInfo { .. } => unreachable!(),
        })
    }

    /// Ground truth of one filter clause for one row, whose cells `cell`
    /// reads by column position.
    fn filter_truth(
        &self,
        f: &NlFilter,
        schema: &Schema,
        cell: &dyn Fn(usize) -> Value,
        labels: &Labels,
    ) -> bool {
        let field = |names: &[&str]| -> Option<Value> {
            names.iter().find_map(|n| schema.index_of(n)).map(cell)
        };
        match f {
            NlFilter::NumCmp { attr, op, value } => field(&[attr])
                .and_then(|v| v.as_f64())
                .map(|x| match op {
                    CmpOp::Over => x > *value,
                    CmpOp::Under => x < *value,
                })
                .unwrap_or(false),
            NlFilter::TextEq { attr, value } => field(&[attr])
                .map(|v| v.to_string().eq_ignore_ascii_case(value))
                .unwrap_or(false),
            NlFilter::AtCircuit { circuit } => field(&["Circuit"])
                .map(|v| v.to_string().eq_ignore_ascii_case(circuit))
                .unwrap_or(false),
            NlFilter::InRegion { region } => field(&["City"])
                .map(|v| {
                    self.kb
                        .true_cities_in_region(region)
                        .iter()
                        .any(|c| c.eq_ignore_ascii_case(&v.to_string()))
                })
                .unwrap_or(false),
            NlFilter::TallerThan { person } => {
                let h = field(&["height", "Height"]).and_then(|v| v.as_f64());
                let ref_h = self.kb.true_person_height_cm(person);
                matches!((h, ref_h), (Some(a), Some(b)) if a > b)
            }
            NlFilter::EuCountry => field(&["Country"])
                .map(|v| self.kb.true_is_eu_member(&v.to_string()))
                .unwrap_or(false),
            NlFilter::CircuitContinent { continent } => field(&["Circuit"])
                .and_then(|v| {
                    let fact = self.kb.true_circuit_fact(&v.to_string())?;
                    let c = self.kb.true_country_continent(fact.country)?;
                    Some(c.eq_ignore_ascii_case(continent))
                })
                .unwrap_or(false),
            NlFilter::ClassicMovie => field(&["movie_title", "title", "Title"])
                .map(|v| self.kb.true_is_classic_movie(&v.to_string()))
                .unwrap_or(false),
            NlFilter::VerticalIs { vertical } => field(&["account_name", "Company"])
                .and_then(|v| self.kb.true_company_vertical(&v.to_string()))
                .map(|x| x.eq_ignore_ascii_case(vertical))
                .unwrap_or(false),
            NlFilter::Semantic { attr, property } => {
                self.semantic_truth(schema, cell, attr, *property, labels)
            }
        }
    }

    /// Planted truth of a semantic property on one row.
    fn semantic_truth(
        &self,
        schema: &Schema,
        cell: &dyn Fn(usize) -> Value,
        attr: &str,
        property: SemProperty,
        labels: &Labels,
    ) -> bool {
        // Resolve the row's identity for label lookup.
        let id = schema.index_of("Id").and_then(|i| cell(i).as_i64());
        let title = schema.index_of("movie_title").map(|i| cell(i).to_string());
        match (attr, property) {
            ("Text", SemProperty::Sarcastic) => id
                .and_then(|i| labels.comment_sarcastic.get(&i).copied())
                .unwrap_or(false),
            ("Text", SemProperty::Positive) => id
                .and_then(|i| labels.comment_sentiment.get(&i).copied())
                .map(|s| s > 0)
                .unwrap_or(false),
            ("Text", SemProperty::Negative) => id
                .and_then(|i| labels.comment_sentiment.get(&i).copied())
                .map(|s| s < 0)
                .unwrap_or(false),
            ("Title", SemProperty::Technical) => id
                .and_then(|i| labels.post_technicality.get(&i).copied())
                .map(|lvl| lvl >= 2)
                .unwrap_or(false),
            ("review", SemProperty::Positive) => title
                .and_then(|t| labels.review_sentiment.get(&t).copied())
                .map(|s| s > 0)
                .unwrap_or(false),
            ("review", SemProperty::Negative) => title
                .and_then(|t| labels.review_sentiment.get(&t).copied())
                .map(|s| s < 0)
                .unwrap_or(false),
            _ => false,
        }
    }

    /// Planted graded score used for semantic-ranking truth.
    fn semantic_grade(
        &self,
        entity: &str,
        schema: &Schema,
        row: &Row,
        property: SemProperty,
        labels: &Labels,
    ) -> i64 {
        match (entity, property) {
            ("posts", SemProperty::Technical) => schema
                .index_of("Id")
                .and_then(|i| row[i].as_i64())
                .and_then(|id| labels.post_technicality.get(&id).copied())
                .map(i64::from)
                .unwrap_or(0),
            ("movies", SemProperty::Positive) => schema
                .index_of("movie_title")
                .and_then(|i| labels.review_sentiment.get(&row[i].to_string()).copied())
                .map(i64::from)
                .unwrap_or(0),
            ("movies", SemProperty::Negative) => schema
                .index_of("movie_title")
                .and_then(|i| labels.review_sentiment.get(&row[i].to_string()).copied())
                .map(|s| -i64::from(s))
                .unwrap_or(0),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::build_benchmark;
    use tag_datagen::{generate_all, Scale};

    fn setup() -> (Vec<DomainData>, Vec<BenchQuery>) {
        let domains = generate_all(
            42,
            Scale {
                schools: 120,
                players: 150,
                posts: 60,
                customers: 120,
                drivers: 10,
            },
        );
        let queries = build_benchmark(&domains);
        (domains, queries)
    }

    #[test]
    fn every_query_has_well_posed_ground_truth() {
        let (domains, queries) = setup();
        let oracle = Oracle::new();
        for q in &queries {
            let domain = domains.iter().find(|d| d.name == q.domain).unwrap();
            let truth = oracle.answer(q, domain); // panics if ill-posed
            match q.qtype {
                QueryType::Aggregation => assert!(truth.is_none()),
                _ => {
                    let t = truth.expect("non-aggregation has truth");
                    assert!(
                        !t.is_empty(),
                        "query {} ({}) has an empty answer",
                        q.id,
                        q.question()
                    );
                    assert!(
                        t.len() <= 40,
                        "query {} answer too large ({})",
                        q.id,
                        t.len()
                    );
                }
            }
        }
    }

    #[test]
    fn known_truths_spot_checks() {
        let (domains, queries) = setup();
        let oracle = Oracle::new();
        // Paper query: players over 180 with volley over 70 taller than
        // Curry — the truth must equal a direct computation.
        let q = queries
            .iter()
            .find(|q| {
                q.question().contains("taller than Stephen Curry")
                    && matches!(q.query, NlQuery::Count { .. })
            })
            .unwrap();
        let domain = domains.iter().find(|d| d.name == q.domain).unwrap();
        let truth: i64 = oracle.answer(q, domain).unwrap()[0].parse().unwrap();
        let players = domain.db.catalog().table("players").unwrap();
        let hi = players.schema().index_of("height").unwrap();
        let vi = players.schema().index_of("volley").unwrap();
        let expect = players
            .rows()
            .iter()
            .filter(|r| {
                r[hi].as_f64().unwrap() > 188.0
                    && r[hi].as_f64().unwrap() > 180.0
                    && r[vi].as_f64().unwrap() > 70.0
            })
            .count() as i64;
        assert_eq!(truth, expect);
    }

    #[test]
    fn sepang_aggregation_has_no_labelled_truth() {
        let (domains, queries) = setup();
        let oracle = Oracle::new();
        let q = queries
            .iter()
            .find(|q| q.question().contains("Sepang"))
            .unwrap();
        let domain = domains.iter().find(|d| d.name == q.domain).unwrap();
        assert!(oracle.answer(q, domain).is_none());
    }
}
