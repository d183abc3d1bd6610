//! Exact set-similarity helpers.
//!
//! [`sorted_containments`] scores one column pair by one linear merge over
//! two already-sorted distinct value lists. The structured discovery
//! queries count overlaps with every column at once through a value
//! postings index instead, and turn the counts into containments with
//! [`overlap_containments`].
//! [`exact_jaccard`] and [`exact_containment`] take arbitrary slices and
//! build hash sets; they serve the baselines, brute-force ground truth
//! (paper Table 2: "Brute force" ground truth for Benchmarks 2B/2C) and the
//! reference side of the parity tests.

use std::cmp::Ordering;
use std::collections::HashSet;

/// Exact Jaccard similarity `|A ∩ B| / |A ∪ B|` of two string sets.
pub fn exact_jaccard<S: AsRef<str> + Eq + std::hash::Hash>(a: &[S], b: &[S]) -> f64 {
    let sa: HashSet<&str> = a.iter().map(|s| s.as_ref()).collect();
    let sb: HashSet<&str> = b.iter().map(|s| s.as_ref()).collect();
    if sa.is_empty() && sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Exact Jaccard set containment `|A ∩ B| / |A|` of set `a` in set `b`.
pub fn exact_containment<S: AsRef<str> + Eq + std::hash::Hash>(a: &[S], b: &[S]) -> f64 {
    let sa: HashSet<&str> = a.iter().map(|s| s.as_ref()).collect();
    if sa.is_empty() {
        return 0.0;
    }
    let sb: HashSet<&str> = b.iter().map(|s| s.as_ref()).collect();
    let inter = sa.intersection(&sb).count();
    inter as f64 / sa.len() as f64
}

/// `|A ∩ B|` of two strictly increasing (sorted, duplicate-free) string
/// slices, by one linear merge.
fn sorted_intersection_len<S: AsRef<str>>(a: &[S], b: &[S]) -> usize {
    debug_assert!(
        is_strictly_increasing(a),
        "merge input `a` is not sorted and distinct"
    );
    debug_assert!(
        is_strictly_increasing(b),
        "merge input `b` is not sorted and distinct"
    );
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].as_ref().cmp(b[j].as_ref()) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Both set containments `(|A ∩ B| / |A|, |A ∩ B| / |B|)` of two strictly
/// increasing string slices from one merge. Equal bit for bit to
/// `(exact_containment(a, b), exact_containment(b, a))`: with no duplicates
/// the slice lengths are the set sizes, and an empty side gives 0.
pub fn sorted_containments<S: AsRef<str>>(a: &[S], b: &[S]) -> (f64, f64) {
    overlap_containments(sorted_intersection_len(a, b), a.len(), b.len())
}

/// Both set containments `(inter / a_len, inter / b_len)` of two sets of
/// sizes `a_len` and `b_len` that share `inter` values, however `inter`
/// was counted.
pub fn overlap_containments(inter: usize, a_len: usize, b_len: usize) -> (f64, f64) {
    (
        containment_ratio(inter, a_len),
        containment_ratio(inter, b_len),
    )
}

/// `inter / len`, or 0 for an empty set — the division `exact_containment`
/// performs.
pub fn containment_ratio(inter: usize, len: usize) -> f64 {
    if len == 0 {
        0.0
    } else {
        inter as f64 / len as f64
    }
}

/// Is every element strictly greater than its predecessor (byte order)?
pub fn is_strictly_increasing<S: AsRef<str>>(values: &[S]) -> bool {
    values.windows(2).all(|w| w[0].as_ref() < w[1].as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_basic() {
        let a = vec!["a", "b", "c"];
        let b = vec!["b", "c", "d"];
        assert!((exact_jaccard(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn containment_basic() {
        let a = vec!["a", "b"];
        let b = vec!["a", "b", "c", "d"];
        assert!((exact_containment(&a, &b) - 1.0).abs() < 1e-12);
        assert!((exact_containment(&b, &a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicates_ignored() {
        let a = vec!["a", "a", "b"];
        let b = vec!["a", "b", "b"];
        assert!((exact_jaccard(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strictly_increasing_rejects_duplicates_and_disorder() {
        assert!(is_strictly_increasing(&["a", "b", "c"]));
        assert!(is_strictly_increasing::<&str>(&[]));
        assert!(!is_strictly_increasing(&["a", "a"]));
        assert!(!is_strictly_increasing(&["b", "a"]));
        // Byte order: uppercase sorts before lowercase.
        assert!(is_strictly_increasing(&["Z", "a"]));
    }

    #[test]
    fn empty_sets() {
        let empty: Vec<&str> = vec![];
        let b = vec!["a"];
        assert_eq!(exact_jaccard(&empty, &b), 0.0);
        assert_eq!(exact_containment(&empty, &b), 0.0);
        assert_eq!(exact_jaccard(&empty, &empty), 0.0);
    }
}
