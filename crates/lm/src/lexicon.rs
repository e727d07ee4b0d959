//! Lexicon-based semantic reasoning: sentiment, technicality, sarcasm.
//!
//! These are the simulated model's "reasoning circuits" for the TAG
//! benchmark's *reasoning* queries (sentiment of reviews, most technical
//! titles, most sarcastic comments). Scores are deterministic functions
//! of the text; the data generator plants the same signals, so the
//! simulated LM recovers the intended labels with realistic imperfection
//! on ambiguous text.

/// Words contributing positive sentiment.
pub const POSITIVE_WORDS: &[&str] = &[
    "great",
    "excellent",
    "amazing",
    "wonderful",
    "fantastic",
    "love",
    "loved",
    "best",
    "beautiful",
    "masterpiece",
    "brilliant",
    "superb",
    "delightful",
    "stunning",
    "perfect",
    "enjoyable",
    "charming",
    "captivating",
    "impressive",
    "memorable",
    "helpful",
    "clear",
    "insightful",
    "elegant",
];

/// Words contributing negative sentiment.
pub const NEGATIVE_WORDS: &[&str] = &[
    "terrible",
    "awful",
    "horrible",
    "worst",
    "boring",
    "hate",
    "hated",
    "bad",
    "disappointing",
    "dull",
    "mediocre",
    "mess",
    "waste",
    "weak",
    "flat",
    "tedious",
    "confusing",
    "wrong",
    "useless",
    "poor",
    "shallow",
    "predictable",
    "forgettable",
    "overrated",
];

/// Jargon terms contributing technicality.
pub const TECHNICAL_TERMS: &[&str] = &[
    "algorithm",
    "regression",
    "boosting",
    "gradient",
    "variance",
    "bayesian",
    "kernel",
    "matrix",
    "eigenvalue",
    "stochastic",
    "convergence",
    "entropy",
    "likelihood",
    "optimization",
    "neural",
    "hyperparameter",
    "covariance",
    "heteroscedasticity",
    "regularization",
    "cross-validation",
    "bootstrap",
    "asymptotic",
    "multicollinearity",
    "autocorrelation",
    "posterior",
    "prior",
    "logistic",
    "quantile",
    "estimator",
    "overfitting",
    "dropout",
    "softmax",
];

/// Phrases that mark sarcasm.
pub const SARCASM_MARKERS: &[&str] = &[
    "oh great",
    "oh sure",
    "yeah right",
    "obviously",
    "thanks a lot",
    "well done",
    "what a surprise",
    "because that always works",
    "truly groundbreaking",
    "pure genius",
    "how original",
    "shocking, really",
    "as if",
    "good luck with that",
    "clearly the best idea ever",
    "i'm sure that will work",
];

fn normalized_words(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric() && c != '-' && c != '\'')
        .filter(|w| !w.is_empty())
        .map(|w| w.to_ascii_lowercase())
        .collect()
}

/// Sentiment in [-1, 1]: (positives − negatives) / (positives + negatives),
/// 0.0 for neutral text.
pub fn sentiment_score(text: &str) -> f64 {
    let words = normalized_words(text);
    let pos = words
        .iter()
        .filter(|w| POSITIVE_WORDS.contains(&w.as_str()))
        .count() as f64;
    let neg = words
        .iter()
        .filter(|w| NEGATIVE_WORDS.contains(&w.as_str()))
        .count() as f64;
    if pos + neg == 0.0 {
        0.0
    } else {
        (pos - neg) / (pos + neg)
    }
}

/// Technicality in [0, 1]: jargon density, scaled so a couple of terms
/// in a short title score high but density keeps separating levels
/// (saturation would make dense titles indistinguishable to rank).
pub fn technicality_score(text: &str) -> f64 {
    let words = normalized_words(text);
    if words.is_empty() {
        return 0.0;
    }
    let jargon = words
        .iter()
        .filter(|w| TECHNICAL_TERMS.contains(&w.as_str()))
        .count() as f64;
    (jargon * 2.0 / words.len() as f64).min(1.0)
}

/// Sarcasm in [0, 1]: marker phrases plus the positive-words-with-
/// negative-context pattern.
pub fn sarcasm_score(text: &str) -> f64 {
    let lower = text.to_ascii_lowercase();
    let marker_hits = SARCASM_MARKERS
        .iter()
        .filter(|m| lower.contains(*m))
        .count() as f64;
    // Exaggerated praise next to a complaint is the classic signature.
    let pos = sentiment_score(text);
    let has_negation = ["not", "never", "n't", "except", "but"]
        .iter()
        .any(|n| lower.contains(n));
    let irony_bonus = if pos > 0.5 && has_negation { 0.3 } else { 0.0 };
    let exclaim_bonus = if lower.contains('!') && marker_hits > 0.0 {
        0.1
    } else {
        0.0
    };
    (marker_hits * 0.45 + irony_bonus + exclaim_bonus).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentiment_directions() {
        assert!(sentiment_score("An amazing, beautiful masterpiece. Loved it.") > 0.5);
        assert!(sentiment_score("Terrible, boring waste of time.") < -0.5);
        assert_eq!(
            sentiment_score("The movie has a runtime of two hours."),
            0.0
        );
    }

    #[test]
    fn sentiment_mixed() {
        let s = sentiment_score("great acting but a boring, predictable plot");
        assert!(s < 0.0, "got {s}");
    }

    #[test]
    fn technicality_ranks_jargon() {
        let technical = technicality_score(
            "Bayesian regularization of gradient boosting hyperparameter selection",
        );
        let casual = technicality_score("What is your favorite chart color?");
        assert!(technical > 0.8, "got {technical}");
        assert_eq!(casual, 0.0);
        assert!(technical > casual);
    }

    #[test]
    fn technicality_empty() {
        assert_eq!(technicality_score(""), 0.0);
        assert_eq!(technicality_score("   "), 0.0);
    }

    #[test]
    fn sarcasm_detects_markers() {
        assert!(sarcasm_score("Oh great, another overfitted model. Pure genius.") > 0.5);
        assert!(sarcasm_score("This derivation is correct and well presented.") < 0.2);
    }

    #[test]
    fn sarcasm_irony_pattern() {
        let s = sarcasm_score("What a brilliant, perfect answer — except it never runs!");
        assert!(s > 0.2, "got {s}");
    }

    #[test]
    fn scores_are_bounded() {
        for text in [
            "great great great great",
            "terrible awful horrible worst",
            &"algorithm ".repeat(50),
            &"oh great yeah right obviously pure genius ".repeat(5),
        ] {
            assert!((-1.0..=1.0).contains(&sentiment_score(text)));
            assert!((0.0..=1.0).contains(&technicality_score(text)));
            assert!((0.0..=1.0).contains(&sarcasm_score(text)));
        }
    }
}
