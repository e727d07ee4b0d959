//! Approximate token counting.
//!
//! The cost model and context-window checks need token counts, not exact
//! BPE ids. We approximate with a word-piece heuristic calibrated to
//! Llama-style tokenizers: one token per ~4 characters of prose, with
//! punctuation and numbers counted individually.

/// Approximate the number of tokens in `text`.
///
/// Heuristic: each whitespace-separated word contributes
/// `ceil(len / 4)` tokens (sub-word splitting), and standalone
/// punctuation contributes one token each.
///
/// "Whitespace" and "alphanumeric" are `char::is_whitespace` and
/// `char::is_alphanumeric`. ASCII text is counted in one byte pass: on
/// ASCII those are exactly ` \t\n\x0B\x0C\r` (note U+000B, which
/// `u8::is_ascii_whitespace` omits) and `u8::is_ascii_alphanumeric`.
/// The first non-ASCII byte hands the whole text to the char pass.
pub fn count_tokens(text: &str) -> usize {
    let (mut tokens, mut alnum, mut punct) = (0usize, 0usize, 0usize);
    for &b in text.as_bytes() {
        if !b.is_ascii() {
            return count_tokens_chars(text);
        }
        if matches!(b, b' ' | b'\t'..=b'\r') {
            tokens += alnum.div_ceil(4) + punct;
            (alnum, punct) = (0, 0);
        } else if b.is_ascii_alphanumeric() {
            alnum += 1;
        } else {
            punct += 1;
        }
    }
    tokens + alnum.div_ceil(4) + punct
}

/// [`count_tokens`] of any text, a char at a time.
fn count_tokens_chars(text: &str) -> usize {
    let word_tokens = |word: &str| {
        let alnum = word.chars().filter(|c| c.is_alphanumeric()).count();
        alnum.div_ceil(4) + word.chars().count() - alnum
    };
    text.split_whitespace().map(word_tokens).sum()
}

/// Truncate text to approximately `max_tokens` tokens, keeping whole
/// words. Returns the truncated text and whether truncation occurred.
pub fn truncate_to_tokens(text: &str, max_tokens: usize) -> (String, bool) {
    let mut used = 0usize;
    let mut end_byte = 0usize;
    let mut truncated = false;
    for word in text.split_inclusive(char::is_whitespace) {
        let t = count_tokens(word);
        if used + t > max_tokens {
            truncated = true;
            break;
        }
        used += t;
        end_byte += word.len();
    }
    (text[..end_byte].to_owned(), truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertical_tab_separates_words() {
        // `u8::is_ascii_whitespace` omits U+000B; `char::is_whitespace`
        // does not. ("a\u{0B}b" also counts 2 as one word: 1 + 1 punct.)
        assert_eq!(count_tokens("a\u{0B}b"), 2);
        assert_eq!(count_tokens("\u{0B}"), 0);
        assert_eq!(count_tokens("a\u{0B}\u{0B}b"), 2);
        assert_eq!(count_tokens("a\u{0C}b\u{1F}c"), 3);
    }

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(count_tokens(""), 0);
        assert_eq!(count_tokens("   \n\t "), 0);
    }

    #[test]
    fn words_split_into_subwords() {
        assert_eq!(count_tokens("hi"), 1);
        assert_eq!(count_tokens("hello"), 2); // 5 chars -> 2 tokens
        assert_eq!(count_tokens("internationalization"), 5); // 20 chars
    }

    #[test]
    fn punctuation_counts() {
        assert!(count_tokens("a, b, c") >= 5);
        assert_eq!(count_tokens("..."), 3);
    }

    #[test]
    fn scales_roughly_linearly() {
        let short = count_tokens("the quick brown fox");
        let long = count_tokens(&"the quick brown fox ".repeat(10));
        assert!(long >= short * 9 && long <= short * 11);
    }

    #[test]
    fn truncation() {
        let text = "alpha beta gamma delta epsilon";
        let (t, was) = truncate_to_tokens(text, 4);
        assert!(was);
        assert!(t.split_whitespace().count() < 5);
        let (t, was) = truncate_to_tokens(text, 1000);
        assert!(!was);
        assert_eq!(t, text);
    }
}
