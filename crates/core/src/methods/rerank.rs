//! The Retrieval + LM Rank baseline (§4.2): retrieve a candidate pool,
//! rerank with LM relevance scores (STaRK-style), keep the top rows.

use crate::answer::Answer;
use crate::env::TagEnv;
use crate::methods::gen_frame_to_answer;
use crate::model::TagMethod;
use crate::semplan::{compile_rerank, run_semplan};
use tag_sql::SemReads;

/// Retrieval with LM reranking.
#[derive(Debug, Clone, Copy)]
pub struct RetrievalLmRank {
    /// Candidate pool retrieved by embedding similarity.
    pub pool: usize,
    /// Rows kept after reranking (fed to generation).
    pub k: usize,
    /// List-answer vs free-form prompt.
    pub list_format: bool,
}

impl Default for RetrievalLmRank {
    fn default() -> Self {
        RetrievalLmRank {
            pool: 30,
            k: 10,
            list_format: true,
        }
    }
}

impl RetrievalLmRank {
    /// Variant with the free-form aggregation prompt.
    pub fn aggregation() -> Self {
        RetrievalLmRank {
            list_format: false,
            ..Self::default()
        }
    }
}

impl TagMethod for RetrievalLmRank {
    fn name(&self) -> &'static str {
        "Retrieval + LM Rank"
    }

    fn answer(&self, request: &str, env: &TagEnv) -> Answer {
        // retrieve -> rerank -> generate as a semantic plan through the
        // shared planner. The rerank stage scores every candidate 0–1
        // with the LM in one batch, exactly as before.
        let plan = compile_rerank(request, self.pool, self.k, self.list_format);
        match run_semplan(env, plan, &SemReads::All) {
            Ok(frame) => gen_frame_to_answer(&frame, self.list_format),
            Err(e) => Answer::Error(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tag_lm::sim::{SimConfig, SimLm};
    use tag_sql::Database;

    #[test]
    fn rerank_keeps_k_and_answers() {
        let mut db = Database::new();
        db.execute("CREATE TABLE posts (Id INTEGER, Title TEXT, ViewCount INTEGER)")
            .unwrap();
        for i in 0..40 {
            db.execute(&format!(
                "INSERT INTO posts VALUES ({i}, 'post about topic {i}', {})",
                1000 - i
            ))
            .unwrap();
        }
        let env = TagEnv::new(db, Arc::new(SimLm::new(SimConfig::default())));
        let ans = RetrievalLmRank::default()
            .answer("How many posts with ViewCount over 990 are there?", &env);
        // The reranker feeds only 10 rows; the true count is 10 (views
        // 991..1000). Whether it matches depends on retrieval quality —
        // the method must at least produce a list.
        assert!(matches!(ans, Answer::List(_)), "{ans:?}");
    }
}
