//! The serving protocol: method names, the shared dispatch helper, and
//! the `ASK` line protocol used by the `tag-serve` binary.
//!
//! [`run_method`] is the single place that maps (method, question) to a
//! concrete TAG pipeline. The server and every serial
//! baseline (tests, the load generator) call it, so concurrent and
//! serial runs are byte-identical by construction.

use tag_core::answer::Answer;
use tag_core::env::TagEnv;
use tag_core::methods::{HandWrittenTag, Rag, RetrievalLmRank, Text2Sql, Text2SqlLm};
use tag_core::model::TagMethod;
use tag_lm::nlq::NlQuery;

/// The five servable methods (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodName {
    /// Vanilla Text2SQL.
    Text2Sql,
    /// Row-level RAG.
    Rag,
    /// Retrieval + LM rank.
    Rerank,
    /// Text2SQL + LM generation.
    Text2SqlLm,
    /// Hand-written TAG pipelines.
    HandWritten,
}

impl MethodName {
    /// All methods, in Table 1 order.
    pub fn all() -> [MethodName; 5] {
        [
            MethodName::Text2Sql,
            MethodName::Rag,
            MethodName::Rerank,
            MethodName::Text2SqlLm,
            MethodName::HandWritten,
        ]
    }

    /// The wire token for this method.
    pub fn as_str(self) -> &'static str {
        match self {
            MethodName::Text2Sql => "text2sql",
            MethodName::Rag => "rag",
            MethodName::Rerank => "rerank",
            MethodName::Text2SqlLm => "text2sql_lm",
            MethodName::HandWritten => "handwritten",
        }
    }

    /// Parse a wire token (case-insensitive).
    pub fn parse(s: &str) -> Option<MethodName> {
        match s.to_ascii_lowercase().as_str() {
            "text2sql" => Some(MethodName::Text2Sql),
            "rag" => Some(MethodName::Rag),
            "rerank" => Some(MethodName::Rerank),
            "text2sql_lm" | "text2sqllm" => Some(MethodName::Text2SqlLm),
            "handwritten" | "tag" => Some(MethodName::HandWritten),
            _ => None,
        }
    }
}

impl std::fmt::Display for MethodName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Answer `question` with `method` over `env`.
///
/// Aggregation questions (`Summarize …` / `Provide information …`)
/// route to each method's aggregation variant, mirroring the benchmark
/// harness: those two query families are exactly the benchmark's
/// aggregation set.
pub fn run_method(method: MethodName, question: &str, env: &TagEnv) -> Answer {
    let parsed = NlQuery::parse(question);
    let aggregation = matches!(
        parsed,
        Some(NlQuery::Summarize { .. }) | Some(NlQuery::ProvideInfo { .. })
    );
    match method {
        MethodName::Text2Sql => Text2Sql.answer(question, env),
        MethodName::Rag => {
            let m = if aggregation {
                Rag::aggregation()
            } else {
                Rag::default()
            };
            m.answer(question, env)
        }
        MethodName::Rerank => {
            let m = if aggregation {
                RetrievalLmRank::aggregation()
            } else {
                RetrievalLmRank::default()
            };
            m.answer(question, env)
        }
        MethodName::Text2SqlLm => {
            let m = if aggregation {
                Text2SqlLm::aggregation()
            } else {
                Text2SqlLm::default()
            };
            m.answer(question, env)
        }
        // Hand-written pipelines run against the structured query when
        // the question parses (the paper's per-query expert code does);
        // otherwise fall back to the method's own text path.
        MethodName::HandWritten => match parsed {
            Some(q) => HandWrittenTag.answer_structured(&q, env),
            None => HandWrittenTag.answer(question, env),
        },
    }
}

/// One parsed protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `ASK <domain> <method> <question…>`
    Ask {
        /// Target domain name.
        domain: String,
        /// Method to run.
        method: MethodName,
        /// The natural-language question (rest of the line).
        question: String,
    },
    /// `EXPLAIN <domain> <statement…>` — render a plan without running
    /// it: `EXPLAIN <domain> SELECT …` for relational plans,
    /// `EXPLAIN <domain> SEMPLAN <question>` for semantic plans,
    /// `EXPLAIN <domain> VERIFY <question>` for the static checker's
    /// report on one.
    Explain {
        /// Target domain name.
        domain: String,
        /// The statement after the domain (`SELECT …`, `SEMPLAN
        /// <question>` or `VERIFY <question>`), run as `EXPLAIN
        /// <statement>` by the domain's `TagEnv::run_sql`.
        statement: String,
    },
    /// `STATS` — print the metrics report.
    Stats,
    /// `METRICS` — print the Prometheus-text exposition.
    Metrics,
    /// `TRACE <id> [JSONL]` — print a captured request trace as a span
    /// tree, or as JSONL when the `JSONL` token is present.
    Trace {
        /// The trace id from the `ASK` reply.
        id: u64,
        /// Emit one JSON object per span instead of the rendered tree.
        jsonl: bool,
    },
    /// `QUIT` — shut down.
    Quit,
}

/// Parse one protocol line. Returns `Err` with a human-readable message
/// on malformed input.
pub fn parse_line(line: &str) -> Result<Command, String> {
    let line = line.trim();
    let mut parts = line.splitn(4, char::is_whitespace);
    let verb = parts.next().unwrap_or("");
    match verb.to_ascii_uppercase().as_str() {
        "ASK" => {
            let domain = parts
                .next()
                .ok_or_else(|| "ASK needs: ASK <domain> <method> <question>".to_owned())?;
            let method_tok = parts
                .next()
                .ok_or_else(|| "ASK needs: ASK <domain> <method> <question>".to_owned())?;
            let method = MethodName::parse(method_tok).ok_or_else(|| {
                format!(
                    "unknown method {method_tok:?} (expected one of: {})",
                    MethodName::all().map(|m| m.as_str()).join(", ")
                )
            })?;
            let question = parts.next().unwrap_or("").trim().to_owned();
            if question.is_empty() {
                return Err("ASK needs a question".to_owned());
            }
            Ok(Command::Ask {
                domain: domain.to_owned(),
                method,
                question,
            })
        }
        "EXPLAIN" => {
            // Re-split: the statement keeps its own interior whitespace.
            let mut p = line.splitn(3, char::is_whitespace);
            let _verb = p.next();
            let domain = p
                .next()
                .ok_or_else(|| "EXPLAIN needs: EXPLAIN <domain> <statement>".to_owned())?;
            let statement = p.next().unwrap_or("").trim().to_owned();
            if statement.is_empty() {
                return Err("EXPLAIN needs: EXPLAIN <domain> <statement>".to_owned());
            }
            Ok(Command::Explain {
                domain: domain.to_owned(),
                statement,
            })
        }
        "STATS" => Ok(Command::Stats),
        "METRICS" => Ok(Command::Metrics),
        "TRACE" => {
            let id_tok = parts
                .next()
                .ok_or_else(|| "TRACE needs: TRACE <id> [JSONL]".to_owned())?;
            let id: u64 = id_tok
                .parse()
                .map_err(|_| format!("bad trace id {id_tok:?}"))?;
            let jsonl = match parts.next().map(str::trim) {
                None | Some("") => false,
                Some(tok) if tok.eq_ignore_ascii_case("jsonl") => true,
                Some(tok) => return Err(format!("unknown TRACE option {tok:?}")),
            };
            Ok(Command::Trace { id, jsonl })
        }
        "QUIT" | "EXIT" => Ok(Command::Quit),
        "" => Err("empty line".to_owned()),
        other => Err(format!(
            "unknown command {other:?} (ASK/EXPLAIN/STATS/METRICS/TRACE/QUIT)"
        )),
    }
}

/// Render an answer as a single protocol line (no interior newlines).
pub fn format_answer(a: &Answer) -> String {
    match a {
        Answer::List(v) => format!("LIST\t{}", v.join("\u{1f}")),
        Answer::Text(t) => format!("TEXT\t{}", t.replace('\n', " ")),
        Answer::Error(e) => format!("ERROR\t{}", e.replace('\n', " ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_tokens_round_trip() {
        for m in MethodName::all() {
            assert_eq!(MethodName::parse(m.as_str()), Some(m));
        }
        assert_eq!(MethodName::parse("TAG"), Some(MethodName::HandWritten));
        assert_eq!(MethodName::parse("nope"), None);
    }

    #[test]
    fn ask_line_parses_with_question_intact() {
        let c = parse_line("ASK formula_1 rag Which driver won?  ").unwrap();
        assert_eq!(
            c,
            Command::Ask {
                domain: "formula_1".into(),
                method: MethodName::Rag,
                question: "Which driver won?".into(),
            }
        );
        assert!(parse_line("ASK onlydomain").is_err());
        assert!(parse_line("ASK d badmethod q").is_err());
        assert!(parse_line("ASK d rag").is_err());
        assert_eq!(parse_line("stats").unwrap(), Command::Stats);
        assert_eq!(parse_line("metrics").unwrap(), Command::Metrics);
        assert_eq!(parse_line("QUIT").unwrap(), Command::Quit);
        assert!(parse_line("").is_err());
        let err = parse_line("FROB").unwrap_err();
        assert!(err.contains("METRICS"), "{err}");
    }

    #[test]
    fn explain_line_keeps_statement_intact() {
        let c = parse_line("EXPLAIN formula_1 SELECT * FROM races WHERE year = 2008").unwrap();
        assert_eq!(
            c,
            Command::Explain {
                domain: "formula_1".into(),
                statement: "SELECT * FROM races WHERE year = 2008".into(),
            }
        );
        let c = parse_line("explain debit_card SEMPLAN How many schools are there?").unwrap();
        assert_eq!(
            c,
            Command::Explain {
                domain: "debit_card".into(),
                statement: "SEMPLAN How many schools are there?".into(),
            }
        );
        assert!(parse_line("EXPLAIN").is_err());
        assert!(parse_line("EXPLAIN onlydomain").is_err());
    }

    #[test]
    fn trace_line_parses_id_and_format() {
        assert_eq!(
            parse_line("TRACE 17").unwrap(),
            Command::Trace {
                id: 17,
                jsonl: false
            }
        );
        assert_eq!(
            parse_line("trace 3 jsonl").unwrap(),
            Command::Trace { id: 3, jsonl: true }
        );
        assert!(parse_line("TRACE").is_err());
        assert!(parse_line("TRACE notanumber").is_err());
        assert!(parse_line("TRACE 3 csv").is_err());
    }

    #[test]
    fn answers_render_single_line() {
        let l = format_answer(&Answer::List(vec!["a".into(), "b".into()]));
        assert!(l.starts_with("LIST\t"));
        assert!(!l.contains('\n'));
        let t = format_answer(&Answer::Text("x\ny".into()));
        assert_eq!(t, "TEXT\tx y");
        assert!(format_answer(&Answer::Error("e".into())).starts_with("ERROR\t"));
    }
}
