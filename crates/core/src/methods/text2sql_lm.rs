//! The Text2SQL + LM baseline (§4.2): the LM first writes SQL that
//! *retrieves relevant rows*, then a second LM call generates the answer
//! from those rows in context. Large retrieved sets overflow the context
//! window — the failure the paper observes on match-based and comparison
//! queries.

use crate::answer::Answer;
use crate::env::TagEnv;
use crate::methods::gen_frame_to_answer;
use crate::model::TagMethod;
use crate::semplan::{compile_generate_over, run_semplan};
use tag_lm::prompts::text2sql_prompt;
use tag_sql::{SemFrame, SemReads};

/// Text2SQL for retrieval, LM for generation.
#[derive(Debug, Clone, Copy)]
pub struct Text2SqlLm {
    /// List-answer vs free-form prompt for the generation step.
    pub list_format: bool,
}

impl Default for Text2SqlLm {
    fn default() -> Self {
        Text2SqlLm { list_format: true }
    }
}

impl Text2SqlLm {
    /// Variant with the free-form aggregation prompt.
    pub fn aggregation() -> Self {
        Text2SqlLm { list_format: false }
    }
}

impl TagMethod for Text2SqlLm {
    fn name(&self) -> &'static str {
        "Text2SQL + LM"
    }

    fn answer(&self, request: &str, env: &TagEnv) -> Answer {
        // Step 1: LM writes retrieval SQL (relational clauses only; the
        // knowledge/reasoning clauses are deferred to generation).
        let completion = {
            let _span = tag_trace::span(tag_trace::Stage::Syn, "text2sql");
            let prompt = text2sql_prompt(env.schema_prompt(), request, true);
            match env.engine.complete(&prompt) {
                Ok(c) => c,
                Err(e) => return Answer::Error(e.to_string()),
            }
        };
        let sql = format!("SELECT {completion}");
        let frame = match env.scan(&sql) {
            Ok(frame) => frame,
            Err(e) => {
                // Retrieval failed: generation proceeds with no data and
                // must rely on parametric knowledge (Figure 2, middle).
                let plan = compile_generate_over(SemFrame::empty(), request, self.list_format);
                return match run_semplan(env, plan, &SemReads::All) {
                    Ok(frame) => gen_frame_to_answer(&frame, self.list_format),
                    Err(lm_e) => Answer::Error(format!("{e}; then LM: {lm_e}")),
                };
            }
        };

        // Step 2: feed every retrieved row in context, through a
        // generation plan over the retrieved frame (a selection over the
        // engine's columns, not a copy of them).
        let plan = compile_generate_over(frame, request, self.list_format);
        match run_semplan(env, plan, &SemReads::All) {
            Ok(frame) => gen_frame_to_answer(&frame, self.list_format),
            Err(e) => Answer::Error(e), // context overflow lands here
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tag_lm::sim::{SimConfig, SimLm};
    use tag_lm::KnowledgeConfig;
    use tag_sql::Database;

    fn lm() -> Arc<SimLm> {
        Arc::new(SimLm::new(SimConfig {
            knowledge: KnowledgeConfig {
                coverage: 1.0,
                enumeration_coverage: 1.0,
                seed: 3,
            },
            judgment_noise: 0.0,
            ..SimConfig::default()
        }))
    }

    #[test]
    fn defers_knowledge_to_generation() {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE schools (CDSCode INTEGER PRIMARY KEY, School TEXT, City TEXT, \
             Longitude REAL, GSoffered TEXT)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO schools VALUES
               (1, 'Gunn High', 'Palo Alto', -122.1, 'K-12'),
               (2, 'Fresno High', 'Fresno', -119.8, '9-12'),
               (3, 'Lincoln High', 'San Jose', -121.9, '9-12')",
        )
        .unwrap();
        let env = TagEnv::new(db, lm());
        let ans = Text2SqlLm::default().answer(
            "What is the GSoffered of the schools with the highest Longitude \
             among those located in the Silicon Valley region?",
            &env,
        );
        // 3 rows fit comfortably; generation applies the region knowledge.
        assert_eq!(ans, Answer::List(vec!["9-12".into()]));
        // Two LM calls happened.
        assert_eq!(env.lm.calls(), 2);
    }

    #[test]
    fn large_retrieval_overflows_context() {
        let mut db = Database::new();
        db.execute("CREATE TABLE posts (Id INTEGER, Title TEXT, Body TEXT)")
            .unwrap();
        for i in 0..200 {
            db.execute(&format!(
                "INSERT INTO posts VALUES ({i}, 'title {i}', '{}')",
                "long body text with many words repeated over and over ".repeat(5)
            ))
            .unwrap();
        }
        let lm = Arc::new(SimLm::new(SimConfig {
            context_window: 2048,
            ..SimConfig::default()
        }));
        let env = TagEnv::new(db, lm);
        let ans = Text2SqlLm::default().answer("How many posts with Id over 50 are there?", &env);
        match ans {
            Answer::Error(e) => assert!(e.contains("context"), "{e}"),
            other => panic!("expected context error, got {other:?}"),
        }
    }
}
