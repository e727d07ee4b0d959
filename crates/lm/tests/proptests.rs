//! Property-based tests for the simulated LM substrate.

use proptest::prelude::*;
use tag_lm::cost::CostModel;
use tag_lm::model::{LanguageModel, LmRequest};
use tag_lm::nlq::{CmpOp, NlFilter, NlQuery, SemProperty};
use tag_lm::prompts;
use tag_lm::sim::{SimConfig, SimLm};
use tag_lm::tokenizer::count_tokens;

fn attr() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9]{0,10}".prop_map(|s| s)
}

fn text_value() -> impl Strategy<Value = String> {
    // No single quotes (the canonical renderer requires quote-free values,
    // matching the benchmark's data) and no leading/trailing spaces.
    "[A-Za-z0-9][A-Za-z0-9 ,?!-]{0,30}[A-Za-z0-9]".prop_map(|s| s)
}

/// Values for name-like slots (regions, people, circuits...): the
/// canonical question language joins filters with ", " and " and ", so
/// names in the benchmark vocabulary never contain those separators.
fn name_value() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9 -]{0,20}[A-Za-z0-9]".prop_filter("no join separators in names", |s| {
        !s.contains(", ") && !s.contains(" and ")
    })
}

fn property() -> impl Strategy<Value = SemProperty> {
    prop_oneof![
        Just(SemProperty::Positive),
        Just(SemProperty::Negative),
        Just(SemProperty::Sarcastic),
        Just(SemProperty::Technical),
    ]
}

fn filter() -> impl Strategy<Value = NlFilter> {
    prop_oneof![
        (attr(), any::<bool>(), -1000.0f64..1000.0).prop_map(|(a, over, v)| {
            NlFilter::NumCmp {
                attr: a,
                op: if over { CmpOp::Over } else { CmpOp::Under },
                // canonical rendering is exact for halves
                value: (v * 2.0).round() / 2.0,
            }
        }),
        (attr(), text_value()).prop_map(|(a, v)| NlFilter::TextEq { attr: a, value: v }),
        name_value().prop_map(|r| NlFilter::InRegion { region: r }),
        name_value().prop_map(|p| NlFilter::TallerThan { person: p }),
        Just(NlFilter::EuCountry),
        name_value().prop_map(|c| NlFilter::CircuitContinent { continent: c }),
        name_value().prop_map(|c| NlFilter::AtCircuit { circuit: c }),
        Just(NlFilter::ClassicMovie),
        name_value().prop_map(|v| NlFilter::VerticalIs { vertical: v }),
        (attr(), property()).prop_map(|(a, p)| NlFilter::Semantic {
            attr: a,
            property: p
        }),
    ]
}

fn entity() -> impl Strategy<Value = String> {
    "[a-z]{3,10}".prop_map(|s| s)
}

fn filters() -> impl Strategy<Value = Vec<NlFilter>> {
    prop::collection::vec(filter(), 0..3)
}

fn query() -> impl Strategy<Value = NlQuery> {
    prop_oneof![
        (entity(), attr(), attr(), any::<bool>(), filters()).prop_map(|(e, s, r, h, f)| {
            NlQuery::Superlative {
                entity: e,
                select_attr: s,
                rank_attr: r,
                highest: h,
                filters: f,
            }
        }),
        (entity(), filters()).prop_map(|(e, f)| NlQuery::Count {
            entity: e,
            filters: f
        }),
        (entity(), attr(), filters()).prop_map(|(e, s, f)| NlQuery::List {
            entity: e,
            select_attr: s,
            filters: f,
        }),
        (entity(), attr(), attr(), 1usize..20, property(), attr()).prop_map(
            |(e, s, r, k, p, o)| NlQuery::SemanticRank {
                entity: e,
                select_attr: s,
                rank_attr: r,
                k,
                property: p,
                on_attr: o,
            }
        ),
        (
            entity(),
            attr(),
            attr(),
            1usize..20,
            any::<bool>(),
            filters()
        )
            .prop_map(|(e, s, r, k, h, f)| NlQuery::TopK {
                entity: e,
                select_attr: s,
                rank_attr: r,
                k,
                highest: h,
                filters: f,
            }),
        (entity(), attr(), filters()).prop_map(|(e, t, f)| NlQuery::Summarize {
            entity: e,
            topic: t,
            filters: f,
        }),
        (entity(), filters()).prop_map(|(e, f)| NlQuery::ProvideInfo {
            entity: e,
            filters: f,
        }),
    ]
}

/// The tokenizer's definition before its ASCII byte pass: words split on
/// `char::is_whitespace`, each `ceil(alnum / 4)` plus one per other char.
fn count_tokens_reference(text: &str) -> usize {
    let mut tokens = 0usize;
    for word in text.split_whitespace() {
        let alnum: usize = word.chars().filter(|c| c.is_alphanumeric()).count();
        let punct = word.chars().count() - alnum;
        tokens += alnum.div_ceil(4).max(usize::from(alnum > 0)) + punct;
    }
    tokens
}

/// Text mixing ASCII with the characters where a byte pass could part
/// from the char definition: U+000B/U+000C (whitespace, the first not
/// `u8::is_ascii_whitespace`), U+001F (not whitespace), U+0085, U+00A0
/// and U+3000 (non-ASCII whitespace) and non-ASCII letters.
fn mixed_text() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '7', ' ', '\t', '\n', '\r', '.', '-', '\u{0B}', '\u{0C}', '\u{1F}', '\u{85}',
        '\u{A0}', '\u{3000}', 'é',
    ];
    let pick = prop_oneof![
        (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        Just('中'),
    ];
    prop::collection::vec(pick, 0..40).prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    /// `count_tokens` equals its char definition on any text.
    #[test]
    fn token_count_matches_char_definition(
        s in mixed_text(),
        ascii in prop::collection::vec(0u8..128, 0..60),
    ) {
        let ascii: String = ascii.into_iter().map(char::from).collect();
        prop_assert_eq!(count_tokens(&s), count_tokens_reference(&s), "text: {:?}", s);
        prop_assert_eq!(count_tokens(&ascii), count_tokens_reference(&ascii), "text: {:?}", ascii);
    }

    /// The canonical question language round-trips: parse(render(q)) == q.
    #[test]
    fn nlq_round_trips(q in query()) {
        let text = q.render();
        let parsed = NlQuery::parse(&text);
        prop_assert_eq!(parsed, Some(q), "text: {}", text);
    }

    /// The NL parser never panics on arbitrary text.
    #[test]
    fn nlq_parse_never_panics(s in "\\PC{0,200}") {
        let _ = NlQuery::parse(&s);
    }

    /// Answer lists round-trip for quote-free values.
    #[test]
    fn answer_list_round_trips(vals in prop::collection::vec(text_value(), 0..8)) {
        let rendered = prompts::render_answer_list(&vals);
        let parsed = prompts::parse_answer_list(&rendered).unwrap();
        prop_assert_eq!(parsed, vals);
    }

    /// Answer-generation prompts round-trip their data points.
    #[test]
    fn answer_prompt_round_trips(
        points in prop::collection::vec(
            prop::collection::vec((attr(), text_value()), 1..4), 0..6),
        list in any::<bool>(),
    ) {
        let q = "How many things are there?";
        let prompt = if list {
            prompts::answer_list_prompt(q, &points)
        } else {
            prompts::answer_free_prompt(q, &points)
        };
        let (pq, pp, pl) = prompts::parse_answer_prompt(&prompt).unwrap();
        prop_assert_eq!(pq, q);
        prop_assert_eq!(pp, points);
        prop_assert_eq!(pl, list);
    }

    /// Token counting is monotone under concatenation and zero only for
    /// empty-ish text.
    #[test]
    fn token_count_monotone(a in "\\PC{0,80}", b in "\\PC{0,80}") {
        let joined = format!("{a} {b}");
        prop_assert!(count_tokens(&joined) >= count_tokens(&a));
        prop_assert!(count_tokens(&joined) >= count_tokens(&b));
    }

    /// Cost is monotone in both prompt and completion tokens.
    #[test]
    fn cost_monotone(p in 1usize..5000, c in 1usize..500) {
        let m = CostModel::default();
        let base = m.round_seconds(&[(p, c)]);
        prop_assert!(m.round_seconds(&[(p + 100, c)]) >= base);
        prop_assert!(m.round_seconds(&[(p, c + 10)]) >= base);
    }

    /// The simulated LM is deterministic: identical prompts, identical
    /// outputs, on any prompt.
    #[test]
    fn sim_lm_is_deterministic(s in "\\PC{1,200}") {
        let a = SimLm::new(SimConfig::default());
        let b = SimLm::new(SimConfig::default());
        let ra = a.generate(&LmRequest::new(s.clone()));
        let rb = b.generate(&LmRequest::new(s));
        match (ra, rb) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.text, y.text),
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            other => prop_assert!(false, "divergent results: {:?}", other),
        }
    }

    /// The LM never panics on arbitrary prompts.
    #[test]
    fn sim_lm_never_panics(s in "\\PC{0,500}") {
        let lm = SimLm::new(SimConfig::default());
        let _ = lm.generate(&LmRequest::new(s));
    }
}
