//! Prompt protocols.
//!
//! Every interaction with the LM goes through plain-text prompts, exactly
//! as in the paper (Appendix B). This module centralizes the prompt
//! *builders* used by the TAG methods and semantic operators, and the
//! corresponding *parsers* used by the simulated LM's router. Keeping
//! both sides in one file makes the protocol auditable and testable.

use crate::nlq::SemProperty;
use std::fmt::Write as _;

/// A row rendered for the LM: ordered `(column, value)` pairs.
pub type DataPoint = Vec<(String, String)>;

const ANSWER_LIST_HEAD: &str =
    "You will be given a list of data points and a question. Use the data points \
     to answer the question. Your answer must be a list of values that is \
     evaluatable in Python. Respond in the format [value1, value2, ..., valueN]. \
     If you are unable to answer the question, respond with []. Respond with only \
     the list of values and nothing else. If a value is a string, it must be \
     enclosed in double quotes.\n\n";

const ANSWER_FREE_HEAD: &str =
    "You will be given a list of data points and a question. Use the data points \
     to answer the question. If a value is a string, it must be enclosed in \
     double quotes.\n\n";

/// Appendix B.2: the list-answer variant (match-based / comparison /
/// ranking) when `list_format`, the free-form variant (aggregation
/// queries) otherwise. `write_points` appends the data points, each
/// through [`push_data_point`], into the one prompt string.
pub fn answer_prompt(
    question: &str,
    list_format: bool,
    write_points: impl FnOnce(&mut String),
) -> String {
    let head = if list_format {
        ANSWER_LIST_HEAD
    } else {
        ANSWER_FREE_HEAD
    };
    let mut s = String::from(head);
    write_points(&mut s);
    s.push_str("Question: ");
    s.push_str(question);
    s.push('\n');
    s
}

/// Append data point `index` (0-based) in the paper's format: a
/// `Data Point {index + 1}:` line, the `- col: val` lines `write_fields`
/// appends through [`push_field`], and a blank line.
pub fn push_data_point(s: &mut String, index: usize, write_fields: impl FnOnce(&mut String)) {
    // Writing into a `String` cannot fail.
    let _ = writeln!(s, "Data Point {}:", index + 1);
    write_fields(s);
    s.push('\n');
}

/// Append one `- col: val` line of a data point; `write_value` appends
/// the value.
pub fn push_field(s: &mut String, col: &str, write_value: impl FnOnce(&mut String)) {
    s.push_str("- ");
    s.push_str(col);
    s.push_str(": ");
    write_value(s);
    s.push('\n');
}

/// [`answer_prompt`] in the list-answer format over `points`.
pub fn answer_list_prompt(question: &str, points: &[DataPoint]) -> String {
    answer_prompt(question, true, |s| push_points(s, points))
}

/// [`answer_prompt`] in the free-form format over `points`.
pub fn answer_free_prompt(question: &str, points: &[DataPoint]) -> String {
    answer_prompt(question, false, |s| push_points(s, points))
}

fn push_points(s: &mut String, points: &[DataPoint]) {
    for (i, point) in points.iter().enumerate() {
        push_data_point(s, i, |s| {
            for (col, val) in point {
                push_field(s, col, |s| s.push_str(val));
            }
        });
    }
}

/// Appendix B.1: BIRD-style Text2SQL prompt over CREATE TABLE schemas.
/// `retrieval_only` asks for relevant *rows* rather than a direct answer
/// (the Text2SQL + LM baseline).
pub fn text2sql_prompt(schemas: &str, question: &str, retrieval_only: bool) -> String {
    let task = if retrieval_only {
        "-- Using valid SQLite, write a query that retrieves the rows relevant to \
         the following question for the tables provided above"
    } else {
        "-- Using valid SQLite and understanding External Knowledge, answer the \
         following questions for the tables provided above"
    };
    format!("{schemas}\n-- External Knowledge: None\n{task}\n-- {question}\nSELECT")
}

/// A boolean semantic claim about one value (LM UDF / `sem_filter`).
#[derive(Debug, Clone, PartialEq)]
pub enum SemClaim {
    /// The value is a city in the given region.
    CityInRegion {
        /// Region name.
        region: String,
    },
    /// The value is a film considered a classic.
    ClassicMovie,
    /// The value is an EU member country.
    EuCountry,
    /// The value is a country on the given continent.
    CountryInContinent {
        /// Continent name.
        continent: String,
    },
    /// The value is an F1 circuit located on the given continent.
    CircuitInContinent {
        /// Continent name.
        continent: String,
    },
    /// The value is a company in the given business vertical.
    CompanyInVertical {
        /// Vertical name.
        vertical: String,
    },
    /// The value (a height in cm) is greater than the person's height.
    HeightTallerThan {
        /// The person to compare against.
        person: String,
    },
    /// The value (text) exhibits the given semantic property.
    Property(SemProperty),
}

impl SemClaim {
    fn phrase(&self) -> String {
        match self {
            SemClaim::CityInRegion { region } => {
                format!("a city located in the {region} region")
            }
            SemClaim::ClassicMovie => "a film considered a classic".to_owned(),
            SemClaim::EuCountry => "a country in the European Union".to_owned(),
            SemClaim::CountryInContinent { continent } => {
                format!("a country in {continent}")
            }
            SemClaim::CircuitInContinent { continent } => {
                format!("a racing circuit located in {continent}")
            }
            SemClaim::CompanyInVertical { vertical } => {
                format!("a company in the {vertical} vertical")
            }
            SemClaim::HeightTallerThan { person } => {
                format!("a height in cm greater than the height of {person}")
            }
            SemClaim::Property(p) => format!(
                "text that reads as {}",
                match p {
                    SemProperty::Positive => "positive",
                    SemProperty::Negative => "negative",
                    SemProperty::Sarcastic => "sarcastic",
                    SemProperty::Technical => "technical",
                }
            ),
        }
    }

    fn from_phrase(phrase: &str) -> Option<SemClaim> {
        if let Some(rest) = phrase.strip_prefix("a city located in the ") {
            return Some(SemClaim::CityInRegion {
                region: rest.strip_suffix(" region")?.to_owned(),
            });
        }
        if phrase == "a film considered a classic" {
            return Some(SemClaim::ClassicMovie);
        }
        if phrase == "a country in the European Union" {
            return Some(SemClaim::EuCountry);
        }
        if let Some(rest) = phrase.strip_prefix("a company in the ") {
            return Some(SemClaim::CompanyInVertical {
                vertical: rest.strip_suffix(" vertical")?.to_owned(),
            });
        }
        if let Some(rest) = phrase.strip_prefix("a height in cm greater than the height of ") {
            return Some(SemClaim::HeightTallerThan {
                person: rest.to_owned(),
            });
        }
        if let Some(rest) = phrase.strip_prefix("a racing circuit located in ") {
            return Some(SemClaim::CircuitInContinent {
                continent: rest.to_owned(),
            });
        }
        if let Some(rest) = phrase.strip_prefix("a country in ") {
            return Some(SemClaim::CountryInContinent {
                continent: rest.to_owned(),
            });
        }
        if let Some(rest) = phrase.strip_prefix("text that reads as ") {
            let p = match rest {
                "positive" => SemProperty::Positive,
                "negative" => SemProperty::Negative,
                "sarcastic" => SemProperty::Sarcastic,
                "technical" => SemProperty::Technical,
                _ => return None,
            };
            return Some(SemClaim::Property(p));
        }
        None
    }
}

/// Build a boolean filter prompt over one value.
pub fn sem_filter_prompt(claim: &SemClaim, value: &str) -> String {
    format!(
        "Decide whether the claim is true.\nItem: {value}\nClaim: the item is {}.\n\
         Answer TRUE or FALSE and nothing else.",
        claim.phrase()
    )
}

/// Parse a filter prompt back into `(claim, value)`.
pub fn parse_sem_filter_prompt(prompt: &str) -> Option<(SemClaim, String)> {
    let rest = prompt.strip_prefix("Decide whether the claim is true.\nItem: ")?;
    let (value, rest) = rest.split_once("\nClaim: the item is ")?;
    let phrase = rest.strip_suffix(".\nAnswer TRUE or FALSE and nothing else.")?;
    Some((SemClaim::from_phrase(phrase)?, value.to_owned()))
}

/// Build a pairwise comparison prompt (`sem_topk`).
pub fn sem_compare_prompt(property: SemProperty, a: &str, b: &str) -> String {
    let word = match property {
        SemProperty::Positive => "positive",
        SemProperty::Negative => "negative",
        SemProperty::Sarcastic => "sarcastic",
        SemProperty::Technical => "technical",
    };
    format!(
        "Which of the two items is more {word}?\nItem A: {a}\nItem B: {b}\n\
         Answer A or B and nothing else."
    )
}

/// Parse a comparison prompt back into `(property, a, b)`.
pub fn parse_sem_compare_prompt(prompt: &str) -> Option<(SemProperty, String, String)> {
    let rest = prompt.strip_prefix("Which of the two items is more ")?;
    let (word, rest) = rest.split_once("?\nItem A: ")?;
    let property = match word {
        "positive" => SemProperty::Positive,
        "negative" => SemProperty::Negative,
        "sarcastic" => SemProperty::Sarcastic,
        "technical" => SemProperty::Technical,
        _ => return None,
    };
    let (a, rest) = rest.split_once("\nItem B: ")?;
    let b = rest.strip_suffix("\nAnswer A or B and nothing else.")?;
    Some((property, a.to_owned(), b.to_owned()))
}

/// Build a 0–1 relevance scoring prompt (Retrieval + LM Rank, as in
/// STaRK-style rerankers).
pub fn relevance_prompt(question: &str, point_text: &str) -> String {
    relevance_prompt_over(question, |s| s.push_str(point_text))
}

/// [`relevance_prompt`] with the data point's text appended by
/// `write_point` into the one prompt string.
pub fn relevance_prompt_over(question: &str, write_point: impl FnOnce(&mut String)) -> String {
    let mut s = String::from(
        "Rate how relevant the data point is to the question on a scale from 0 to 1.\n\
         Question: ",
    );
    s.push_str(question);
    s.push_str("\nData point: ");
    write_point(&mut s);
    s.push_str("\nAnswer with a single number between 0 and 1 and nothing else.");
    s
}

/// Parse a relevance prompt back into `(question, data point)`.
pub fn parse_relevance_prompt(prompt: &str) -> Option<(String, String)> {
    let rest = prompt.strip_prefix(
        "Rate how relevant the data point is to the question on a scale from 0 to 1.\nQuestion: ",
    )?;
    let (q, rest) = rest.split_once("\nData point: ")?;
    let d = rest.strip_suffix("\nAnswer with a single number between 0 and 1 and nothing else.")?;
    Some((q.to_owned(), d.to_owned()))
}

/// Build a summarization prompt over items (`sem_agg`).
pub fn sem_agg_prompt(instruction: &str, items: &[String]) -> String {
    let mut s = format!("{instruction}\n");
    for item in items {
        s.push_str(&format!("Item: {item}\n"));
    }
    s.push_str("Write a concise summary covering every item.");
    s
}

/// Parse a summarization prompt back into `(instruction, items)`.
pub fn parse_sem_agg_prompt(prompt: &str) -> Option<(String, Vec<String>)> {
    let body = prompt.strip_suffix("Write a concise summary covering every item.")?;
    let mut lines = body.lines();
    let instruction = lines.next()?.to_owned();
    let mut items = Vec::new();
    let mut current: Option<String> = None;
    for line in lines {
        if let Some(rest) = line.strip_prefix("Item: ") {
            if let Some(c) = current.take() {
                items.push(c);
            }
            current = Some(rest.to_owned());
        } else if let Some(c) = &mut current {
            // multi-line item
            c.push('\n');
            c.push_str(line);
        }
    }
    if let Some(c) = current.take() {
        let trimmed = c.trim_end().to_owned();
        if !trimmed.is_empty() {
            items.push(trimmed);
        }
    }
    Some((instruction, items))
}

/// Parse the shared body of the answer-generation prompts into
/// `(question, data points)`, plus whether the list format was requested.
pub fn parse_answer_prompt(prompt: &str) -> Option<(String, Vec<DataPoint>, bool)> {
    let list_format = prompt.contains("Respond in the format [value1");
    if !prompt.starts_with("You will be given a list of data points and a question.") {
        return None;
    }
    let q_idx = prompt.rfind("Question: ")?;
    let question = prompt[q_idx + "Question: ".len()..].trim().to_owned();
    let body = &prompt[..q_idx];
    let mut points: Vec<DataPoint> = Vec::new();
    let mut current: Option<DataPoint> = None;
    for line in body.lines() {
        if line.starts_with("Data Point ") && line.ends_with(':') {
            if let Some(p) = current.take() {
                points.push(p);
            }
            current = Some(Vec::new());
        } else if let Some(rest) = line.strip_prefix("- ") {
            if let Some(p) = &mut current {
                if let Some((col, val)) = rest.split_once(": ") {
                    p.push((col.to_owned(), val.to_owned()));
                } else if let Some(col) = rest.strip_suffix(':') {
                    p.push((col.to_owned(), String::new()));
                }
            }
        }
    }
    if let Some(p) = current.take() {
        points.push(p);
    }
    Some((question, points, list_format))
}

/// Render an answer list the way the paper's prompt demands:
/// `[value1, value2, ...]`, strings double-quoted.
pub fn render_answer_list(values: &[String]) -> String {
    let parts: Vec<String> = values
        .iter()
        .map(|v| {
            if v.parse::<f64>().is_ok() {
                v.clone()
            } else {
                format!("\"{}\"", v.replace('"', "\\\""))
            }
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

/// Parse a `[...]` answer list back into raw values.
pub fn parse_answer_list(text: &str) -> Option<Vec<String>> {
    let t = text.trim();
    let inner = t.strip_prefix('[')?.strip_suffix(']')?;
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in inner.chars() {
        if escaped {
            current.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut current).trim().to_owned());
            }
            other => current.push(other),
        }
    }
    out.push(current.trim().to_owned());
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> DataPoint {
        vec![
            ("School".to_owned(), "Gunn High".to_owned()),
            ("AvgScrMath".to_owned(), "605".to_owned()),
        ]
    }

    #[test]
    fn answer_prompt_round_trip() {
        let points = vec![point(), point()];
        let prompt = answer_list_prompt("How many schools are there?", &points);
        let (q, parsed, list) = parse_answer_prompt(&prompt).unwrap();
        assert_eq!(q, "How many schools are there?");
        assert_eq!(parsed, points);
        assert!(list);

        let prompt = answer_free_prompt("Summarize.", &points);
        let (_, parsed, list) = parse_answer_prompt(&prompt).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(!list);
    }

    #[test]
    fn sem_filter_round_trip() {
        for claim in [
            SemClaim::CityInRegion {
                region: "Silicon Valley".into(),
            },
            SemClaim::ClassicMovie,
            SemClaim::EuCountry,
            SemClaim::CountryInContinent {
                continent: "Asia".into(),
            },
            SemClaim::CircuitInContinent {
                continent: "Asia".into(),
            },
            SemClaim::CompanyInVertical {
                vertical: "retail".into(),
            },
            SemClaim::HeightTallerThan {
                person: "Stephen Curry".into(),
            },
            SemClaim::Property(SemProperty::Sarcastic),
        ] {
            let p = sem_filter_prompt(&claim, "Some Value");
            let (parsed, value) =
                parse_sem_filter_prompt(&p).unwrap_or_else(|| panic!("failed on {p}"));
            assert_eq!(parsed, claim);
            assert_eq!(value, "Some Value");
        }
    }

    #[test]
    fn compare_round_trip() {
        let p = sem_compare_prompt(SemProperty::Technical, "title A", "title B");
        let (prop, a, b) = parse_sem_compare_prompt(&p).unwrap();
        assert_eq!(prop, SemProperty::Technical);
        assert_eq!(a, "title A");
        assert_eq!(b, "title B");
    }

    #[test]
    fn relevance_round_trip() {
        let p = relevance_prompt("what is x?", "- a: 1");
        let (q, d) = parse_relevance_prompt(&p).unwrap();
        assert_eq!(q, "what is x?");
        assert_eq!(d, "- a: 1");
    }

    #[test]
    fn agg_round_trip() {
        let p = sem_agg_prompt(
            "Summarize the comments",
            &["first comment".into(), "second\nwith newline".into()],
        );
        let (inst, items) = parse_sem_agg_prompt(&p).unwrap();
        assert_eq!(inst, "Summarize the comments");
        assert_eq!(items, vec!["first comment", "second\nwith newline"]);
    }

    #[test]
    fn answer_list_round_trip() {
        let vals = vec!["Gunn High".to_owned(), "3".to_owned(), "a, b".to_owned()];
        let rendered = render_answer_list(&vals);
        assert_eq!(rendered, "[\"Gunn High\", 3, \"a, b\"]");
        let parsed = parse_answer_list(&rendered).unwrap();
        assert_eq!(parsed, vec!["Gunn High", "3", "a, b"]);
        assert_eq!(parse_answer_list("[]").unwrap(), Vec::<String>::new());
        assert!(parse_answer_list("nope").is_none());
    }

    #[test]
    fn text2sql_prompt_shape() {
        let p = text2sql_prompt("CREATE TABLE t (a TEXT)", "How many t are there?", false);
        assert!(p.starts_with("CREATE TABLE"));
        assert!(p.ends_with("SELECT"));
        assert!(p.contains("-- How many t are there?"));
    }
}
