//! The five methods evaluated in §4: vanilla Text2SQL, RAG,
//! Retrieval + LM Rank, Text2SQL + LM, and hand-written TAG.

mod handwritten;
mod rag;
mod rerank;
mod text2sql;
mod text2sql_lm;

pub use handwritten::HandWrittenTag;
pub use rag::Rag;
pub use rerank::RetrievalLmRank;
pub use text2sql::Text2Sql;
pub use text2sql_lm::Text2SqlLm;

use crate::answer::Answer;
use tag_sql::{ResultSet, SemFrame};

/// Flatten a SQL result into the benchmark's list-of-values answer
/// format (row-major cell order).
pub(crate) fn result_to_answer(rs: &ResultSet) -> Answer {
    let values: Vec<String> = rs
        .rows
        .iter()
        .flat_map(|r| r.iter().map(|v| v.to_string()))
        .collect();
    Answer::List(values)
}

/// Interpret the one-cell frame a SemPlan `Generate` node produces.
pub(crate) fn gen_frame_to_answer(frame: &SemFrame, list_format: bool) -> Answer {
    response_to_answer(&first_cell(frame), list_format)
}

/// The text of a frame's first cell, or nothing when it has none.
pub(crate) fn first_cell(frame: &SemFrame) -> String {
    if frame.is_empty() || frame.columns.is_empty() {
        return String::new();
    }
    frame.value(0, 0).to_string()
}

/// Interpret an LM answer-generation response: list answers parse into
/// `Answer::List`, anything else is free text.
pub(crate) fn response_to_answer(text: &str, list_format: bool) -> Answer {
    if list_format {
        match tag_lm::prompts::parse_answer_list(text) {
            Some(values) => Answer::List(values),
            None => Answer::Text(text.to_owned()),
        }
    } else {
        Answer::Text(text.to_owned())
    }
}
