//! String-similarity measures used for metadata (name) matching.
//!
//! Column-name similarity is one of CMDL's unionability signals and the
//! entity-matching baselines use Jaro similarity for tuple matching; both are
//! implemented here from scratch.

/// Jaro similarity between two strings, in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    // ASCII strings compare byte for byte: their bytes are their chars.
    if a.is_ascii() && b.is_ascii() {
        return jaro_of(a.as_bytes(), b.as_bytes());
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_of(&a, &b)
}

/// Names of up to this many units keep their Jaro match flags on the stack.
const STACK_FLAGS: usize = 64;

/// Jaro similarity over two sequences of characters.
fn jaro_of<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    if a.len() <= STACK_FLAGS && b.len() <= STACK_FLAGS {
        let (mut a_flags, mut b_flags) = ([false; STACK_FLAGS], [false; STACK_FLAGS]);
        jaro_with_flags(a, b, &mut a_flags[..a.len()], &mut b_flags[..b.len()])
    } else {
        jaro_with_flags(a, b, &mut vec![false; a.len()], &mut vec![false; b.len()])
    }
}

/// [`jaro_of`] with caller-provided, all-false match flags, one per unit of
/// `a` and of `b`.
fn jaro_with_flags<T: PartialEq>(
    a: &[T],
    b: &[T],
    a_matches: &mut [bool],
    b_matches: &mut [bool],
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let match_distance = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut matches = 0usize;
    for (i, ca) in a.iter().enumerate() {
        let start = i.saturating_sub(match_distance);
        let end = (i + match_distance + 1).min(b.len());
        for j in start..end {
            if !b_matches[j] && b[j] == *ca {
                a_matches[i] = true;
                b_matches[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let mut transpositions = 0usize;
    let mut k = 0usize;
    for (i, matched) in a_matches.iter().enumerate() {
        if *matched {
            while !b_matches[k] {
                k += 1;
            }
            if a[i] != b[k] {
                transpositions += 1;
            }
            k += 1;
        }
    }
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by the length of the common prefix.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Normalized Levenshtein similarity: `1 - distance / max_len`, in `[0, 1]`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let dist = prev[b.len()] as f64;
    1.0 - dist / a.len().max(b.len()) as f64
}

/// Token-level name similarity used for column/table names: splits names on
/// `_`, `-`, whitespace, and case boundaries, then combines the Jaccard
/// similarity of the token sets with the Jaro-Winkler similarity of the raw
/// strings. The same as [`name_similarity_of`] over two fresh [`NameKey`]s.
pub fn name_similarity(a: &str, b: &str) -> f64 {
    name_similarity_of(&NameKey::new(a), &NameKey::new(b))
}

/// A name prepared for [`name_similarity_of`]: its lowercase form and its
/// token set, so a name compared many times is split and lowercased once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameKey {
    /// The lowercase name (the Jaro-Winkler input).
    lower: String,
    /// [`name_tokens`] of the name, sorted and deduplicated (a name has a
    /// handful of tokens, so a sorted list beats a hash set).
    tokens: Vec<String>,
}

impl NameKey {
    /// Prepare `name`.
    pub fn new(name: &str) -> Self {
        let mut tokens = name_tokens(name);
        tokens.sort_unstable();
        tokens.dedup();
        Self {
            lower: name.to_lowercase(),
            tokens,
        }
    }
}

/// [`name_similarity`] over prepared names.
pub fn name_similarity_of(a: &NameKey, b: &NameKey) -> f64 {
    let (ta, tb) = (&a.tokens, &b.tokens);
    let jaccard = if ta.is_empty() || tb.is_empty() {
        0.0
    } else {
        let inter = ta.iter().filter(|t| tb.binary_search(t).is_ok()).count() as f64;
        let union = (ta.len() + tb.len()) as f64 - inter;
        inter / union
    };
    let jw = jaro_winkler(&a.lower, &b.lower);
    jaccard.max(jw * 0.9)
}

/// Split a column/table name into lowercase tokens on delimiters and case
/// boundaries.
pub fn name_tokens(name: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut prev_lower = false;
    for ch in name.chars() {
        if ch == '_' || ch == '-' || ch == ' ' || ch == '.' {
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            prev_lower = false;
        } else {
            if ch.is_uppercase() && prev_lower && !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
            current.extend(ch.to_lowercase());
            prev_lower = ch.is_lowercase() || ch.is_ascii_digit();
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaro_basics() {
        assert!((jaro("drug", "drug") - 1.0).abs() < 1e-12);
        assert_eq!(jaro("", "abc"), 0.0);
        assert!((jaro("", "") - 1.0).abs() < 1e-12);
        assert!(jaro("martha", "marhta") > 0.9);
        assert!(jaro("drug", "enzyme") < 0.5);
    }

    #[test]
    fn jaro_winkler_boosts_prefix() {
        let j = jaro("drugbank", "drugbase");
        let jw = jaro_winkler("drugbank", "drugbase");
        assert!(jw >= j);
        assert!(jw <= 1.0);
    }

    #[test]
    fn levenshtein_similarity_basics() {
        assert!((levenshtein_similarity("kitten", "kitten") - 1.0).abs() < 1e-12);
        assert!((levenshtein_similarity("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-9);
        assert!((levenshtein_similarity("", "") - 1.0).abs() < 1e-12);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn name_tokens_split_cases() {
        assert_eq!(name_tokens("Drug_Key"), vec!["drug", "key"]);
        assert_eq!(name_tokens("regionCode"), vec!["region", "code"]);
        assert_eq!(name_tokens("drug-name id"), vec!["drug", "name", "id"]);
    }

    /// `name_similarity` with the token sets as hash sets and Jaro over
    /// char vectors with heap match flags: the reference the sorted-token
    /// lists, the ASCII byte path and the stack flags must match bit for bit.
    fn reference_name_similarity(a: &str, b: &str) -> f64 {
        let (ta, tb) = (name_tokens(a), name_tokens(b));
        let jaccard = if ta.is_empty() || tb.is_empty() {
            0.0
        } else {
            let sa: std::collections::HashSet<&String> = ta.iter().collect();
            let sb: std::collections::HashSet<&String> = tb.iter().collect();
            let inter = sa.intersection(&sb).count() as f64;
            inter / ((sa.len() + sb.len()) as f64 - inter)
        };
        let (la, lb) = (a.to_lowercase(), b.to_lowercase());
        let ca: Vec<char> = la.chars().collect();
        let cb: Vec<char> = lb.chars().collect();
        let j = jaro_with_flags(
            &ca,
            &cb,
            &mut vec![false; ca.len()],
            &mut vec![false; cb.len()],
        );
        let prefix = ca
            .iter()
            .zip(&cb)
            .take(4)
            .take_while(|(x, y)| x == y)
            .count() as f64;
        jaccard.max((j + prefix * 0.1 * (1.0 - j)) * 0.9)
    }

    #[test]
    fn name_similarity_matches_hash_set_reference() {
        let names = [
            "Drug_Key",
            "drug_key",
            "DrugId",
            "Drugs.Id",
            "Id",
            "id_id_ID",
            "",
            "_",
            "region_code",
            "Enzyme_Targets.Drug_Key",
            "Café_Owner",
            "café owner",
            "Ünit-Price",
            "priceUnit",
            // At and past the stack flags' length, on one side or both.
            "Enzyme_Targets_Drug_Key_Reference_Column_With_A_Very_Long_Name_1",
            "Enzyme_Targets_Drug_Key_Reference_Column_With_A_Very_Long_Name_01",
            "enzyme_targets_drug_key_reference_column_with_a_very_long_name_02",
            "Ünit_Price_Of_The_Reference_Product_In_The_Catalogue_Of_Suppliers_Ⅱ",
        ];
        for a in names {
            for b in names {
                assert_eq!(
                    name_similarity(a, b).to_bits(),
                    reference_name_similarity(a, b).to_bits(),
                    "{a:?} vs {b:?}"
                );
                assert_eq!(
                    name_similarity_of(&NameKey::new(a), &NameKey::new(b)).to_bits(),
                    name_similarity(a, b).to_bits(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn name_similarity_matches_related_names() {
        assert!(name_similarity("Drug_Key", "drug_key") > 0.9);
        assert!(name_similarity("Drug_Key", "DrugId") > 0.3);
        assert!(
            name_similarity("Drug_Key", "region_code") < name_similarity("Drug_Key", "drug_id")
        );
    }
}
