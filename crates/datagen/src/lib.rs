//! # tag-datagen — synthetic BIRD-style domain databases
//!
//! TAG-Bench (§4.1) draws its queries from five BIRD domains. The real
//! BIRD data cannot ship here, so each domain is regenerated
//! deterministically at realistic scale, embedding exactly the entity
//! classes the benchmark's knowledge/reasoning clauses probe (region
//! cities, player heights, F1 circuits incl. Sepang 1999–2017,
//! stats.SE-style posts/comments with planted semantic labels, EU /
//! non-EU customers) plus the Figure 1 movies table. Ground-truth labels
//! for semantic properties are *planted at generation time* and returned
//! alongside the data, so the benchmark oracle never depends on the
//! simulated LM's own judgments.

#![warn(missing_docs)]

pub mod community;
pub mod corpus;
pub mod debit;
pub mod football;
pub mod formula1;
pub mod movies;
pub mod schools;

use std::collections::HashMap;
use tag_sql::Database;

/// Planted ground-truth labels for generated text.
#[derive(Debug, Clone, Default)]
pub struct Labels {
    /// comment id → sentiment (-1, 0, +1).
    pub comment_sentiment: HashMap<i64, i8>,
    /// comment id → sarcastic?
    pub comment_sarcastic: HashMap<i64, bool>,
    /// post id → technicality level (0 casual … 4 dense jargon).
    pub post_technicality: HashMap<i64, u8>,
    /// movie title → review sentiment (-1 / +1).
    pub review_sentiment: HashMap<String, i8>,
}

/// One generated domain: its database plus planted labels.
#[derive(Debug, Clone)]
pub struct DomainData {
    /// Domain name (matches the paper's BIRD domain names).
    pub name: &'static str,
    /// The populated database.
    pub db: Database,
    /// Planted labels (empty for purely numeric domains).
    pub labels: Labels,
}

impl DomainData {
    /// A domain without text labels.
    pub fn new(name: &'static str, db: Database) -> Self {
        DomainData {
            name,
            db,
            labels: Labels::default(),
        }
    }

    /// A domain with planted labels.
    pub fn with_labels(name: &'static str, db: Database, labels: Labels) -> Self {
        DomainData { name, db, labels }
    }
}

/// Scale knobs for the standard benchmark dataset.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows in `schools`.
    pub schools: usize,
    /// Rows in `players`.
    pub players: usize,
    /// Posts in the community domain (comments ≈ 4×).
    pub posts: usize,
    /// Customers in the debit domain.
    pub customers: usize,
    /// Drivers in the F1 domain (races are fixed by circuit history).
    pub drivers: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            schools: 600,
            players: 800,
            posts: 250,
            customers: 500,
            drivers: 18,
        }
    }
}

impl Scale {
    /// The `small` tier: a fast-everything dataset for smoke tests.
    pub fn small() -> Scale {
        Scale {
            schools: 60,
            players: 80,
            posts: 25,
            customers: 50,
            drivers: 8,
        }
    }

    /// The seeded `huge` tier: ≥10⁶ rows in each scalable domain's
    /// largest table (schools/players/customers directly; community
    /// via its ≈4× comments fan-out; F1 stays fixed — its cardinality
    /// is circuit history, not a knob). Generating this tier through
    /// the per-row SQL path takes minutes; the scale sweep uses the
    /// bulk fast path ([`schools::generate_bulk`]) instead, which
    /// draws the identical rows through the typed row API.
    pub fn huge() -> Scale {
        Scale {
            schools: 1_000_000,
            players: 1_000_000,
            posts: 250_000,
            customers: 1_000_000,
            drivers: 18,
        }
    }
}

/// Generate every benchmark domain (plus movies) at the given scale.
pub fn generate_all(seed: u64, scale: Scale) -> Vec<DomainData> {
    vec![
        schools::generate(seed, scale.schools),
        football::generate(seed, scale.players),
        formula1::generate(seed, scale.drivers),
        community::generate(seed, scale.posts),
        debit::generate(seed, scale.customers),
        movies::generate(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_all_covers_the_five_domains_plus_movies() {
        let domains = generate_all(
            7,
            Scale {
                schools: 50,
                players: 50,
                posts: 20,
                customers: 40,
                drivers: 8,
            },
        );
        let names: Vec<&str> = domains.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec![
                "california_schools",
                "european_football_2",
                "formula_1",
                "codebase_community",
                "debit_card_specializing",
                "movies"
            ]
        );
        for d in &domains {
            assert!(!d.db.catalog().is_empty(), "{} has no tables", d.name);
        }
    }
}
