//! The vanilla Text2SQL baseline (§4.2).
//!
//! The LM generates SQL which is executed to obtain the answer directly;
//! there is no generation step. Questions whose knowledge or reasoning
//! clauses have no relational equivalent fail here — the paper's central
//! observation.

use crate::answer::Answer;
use crate::env::TagEnv;
use crate::methods::result_to_answer;
use crate::model::{QuerySynthesis, TagMethod};
use tag_lm::prompts::text2sql_prompt;

/// Vanilla Text2SQL: `syn` = LM over a BIRD prompt, `gen` = identity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Text2Sql;

impl QuerySynthesis for Text2Sql {
    fn synthesize(&self, request: &str, env: &TagEnv) -> Result<String, String> {
        let _span = tag_trace::span(tag_trace::Stage::Syn, "text2sql");
        let prompt = text2sql_prompt(env.schema_prompt(), request, false);
        let completion = env.engine.complete(&prompt).map_err(|e| e.to_string())?;
        Ok(format!("SELECT {completion}"))
    }
}

impl TagMethod for Text2Sql {
    fn name(&self) -> &'static str {
        "Text2SQL"
    }

    fn answer(&self, request: &str, env: &TagEnv) -> Answer {
        let sql = match self.synthesize(request, env) {
            Ok(s) => s,
            Err(e) => return Answer::Error(e),
        };
        match env.run_sql(&sql) {
            Ok(rs) => result_to_answer(&rs),
            Err(e) => Answer::Error(format!("generated SQL failed: {e}")),
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

    fn env() -> TagEnv {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE schools (CDSCode INTEGER PRIMARY KEY, School TEXT, City TEXT, \
                                   Longitude REAL, GSoffered TEXT);
             INSERT INTO schools VALUES
               (1, 'Gunn High', 'Palo Alto', -122.1, 'K-12'),
               (2, 'Fresno High', 'Fresno', -119.8, '9-12'),
               (3, 'Lincoln High', 'San Jose', -121.9, '9-12');",
        )
        .unwrap();
        TagEnv::new(
            db,
            Arc::new(SimLm::new(SimConfig {
                knowledge: KnowledgeConfig {
                    coverage: 1.0,
                    enumeration_coverage: 1.0,
                    seed: 3,
                },
                judgment_noise: 0.0,
                ..SimConfig::default()
            })),
        )
    }

    #[test]
    fn relational_question_answers_correctly() {
        let env = env();
        let ans = Text2Sql.answer(
            "How many schools with Longitude under -120 are there?",
            &env,
        );
        assert_eq!(ans, Answer::List(vec!["2".into()]));
    }

    #[test]
    fn knowledge_question_uses_inlined_memory() {
        let env = env();
        let ans = Text2Sql.answer(
            "What is the GSoffered of the schools with the highest Longitude \
             among those located in the Silicon Valley region?",
            &env,
        );
        // With full knowledge coverage this succeeds: Gunn High (Palo
        // Alto) has the highest longitude magnitude... highest value is
        // San Jose (-121.9 > -122.1).
        assert_eq!(ans, Answer::List(vec!["9-12".into()]));
    }

    #[test]
    fn reasoning_question_fails() {
        let env = env();
        // A semantic filter that either gets dropped (wrong count) or
        // produces invalid SQL (error) — never a correct pipeline.
        let ans = Text2Sql.answer("How many schools whose School is positive are there?", &env);
        match ans {
            Answer::List(v) => assert_eq!(v, vec!["3".to_string()], "clause dropped"),
            Answer::Error(e) => assert!(e.contains("failed"), "{e}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
