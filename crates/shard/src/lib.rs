//! A shim for `perf/src/probes.rs`. ISSUE 15 measured and removed sharded
//! execution (DESIGN.md §14); the frozen benchmark still compiles against
//! `ShardSet::{new, env, name}`. This crate and the `tag-shard.*` metrics
//! go with the next `benchmark` PR.

use std::sync::Arc;
use tag_core::env::TagEnv;
use tag_datagen::DomainData;
use tag_lm::model::LanguageModel;

/// One domain on one plain [`TagEnv`].
pub struct ShardSet {
    name: &'static str,
    env: Arc<TagEnv>,
}

impl ShardSet {
    /// `TagEnv::new(domain.db, lm)`; panics unless `n == 1`.
    pub fn new(domain: DomainData, lm: Arc<dyn LanguageModel>, n: usize) -> ShardSet {
        assert!(n == 1, "ISSUE 15 removed sharded execution: n = {n}");
        let env = Arc::new(TagEnv::new(domain.db, lm));
        let name = domain.name;
        ShardSet { name, env }
    }

    /// The domain's BIRD name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The domain's environment.
    pub fn env(&self) -> &Arc<TagEnv> {
        &self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tag_datagen::schools::generate;

    fn lm() -> Arc<dyn LanguageModel> {
        Arc::new(tag_lm::sim::SimLm::new(Default::default()))
    }

    #[test]
    fn env_answers_as_a_plain_tag_env() {
        let sql = "SELECT City, COUNT(*), AVG(AvgScrMath) FROM schools GROUP BY City";
        let rows = |env: &TagEnv| env.db.query(sql).unwrap().rows;
        let plain = TagEnv::new(generate(23, 150).db, lm());
        let set = ShardSet::new(generate(23, 150), lm(), 1);
        assert_eq!(rows(set.env()), rows(&plain));
    }

    #[test]
    #[should_panic(expected = "ISSUE 15 removed sharded execution: n = 2")]
    fn more_than_one_shard_panics() {
        ShardSet::new(generate(23, 150), lm(), 2);
    }
}
