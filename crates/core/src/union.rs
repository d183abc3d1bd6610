//! Unionable-table discovery.
//!
//! Two tables are unionable when a one-to-one column mapping exists in which
//! the mapped column pairs exhibit name, value-containment, numeric-range, or
//! semantic similarity (paper Section 2.1 / 5.1). CMDL combines the four
//! measures into an *ensemble* score per column pair first, finds candidate
//! tables from per-column top-k searches, and then aligns each candidate's
//! columns with the query table's columns through maximal bipartite graph
//! matching (greedy weighted matching, as the TUS-style algorithm the paper
//! defers to), the matched weight normalized by the larger column count
//! giving the table-level unionability score.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use cmdl_datalake::DeId;
use cmdl_index::ann::cosine_similarity;
use cmdl_sketch::{numeric_overlap, overlap_containments, sorted_containments};
use cmdl_text::strsim::{name_similarity, name_similarity_of};

use crate::config::CmdlConfig;
use crate::profile::{DeProfile, ProfiledLake};

/// The individual similarity measures combined by the unionability ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnionSignals {
    /// Column-name similarity.
    pub name: f64,
    /// Symmetric value containment.
    pub containment: f64,
    /// Numeric range overlap (0 for non-numeric pairs).
    pub numeric: f64,
    /// Semantic (solo embedding) cosine similarity.
    pub semantic: f64,
}

impl UnionSignals {
    /// The ensemble score: emphasis on the most discriminating evidence
    /// (maximum) blended with the average of all signals.
    pub fn ensemble(&self) -> f64 {
        let values = [self.name, self.containment, self.numeric, self.semantic];
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        let avg = values.iter().sum::<f64>() / values.len() as f64;
        0.7 * max + 0.3 * avg
    }

    /// The score of a single named measure (used by the Table 5 analysis).
    pub fn by_name(&self, measure: &str) -> f64 {
        match measure {
            "name" => self.name,
            "containment" => self.containment,
            "numeric" => self.numeric,
            "semantic" => self.semantic,
            _ => self.ensemble(),
        }
    }
}

/// A table-level unionability result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnionScore {
    /// Candidate table name.
    pub table: String,
    /// Table-level unionability score in `[0, 1]`.
    pub score: f64,
    /// The matched column pairs `(query column, candidate column, score)`.
    pub mapping: Vec<(String, String, f64)>,
    /// The matched column pairs as element ids, parallel to `mapping`
    /// (heaviest pair first). Lets callers recover the per-pair similarity
    /// signals without a name lookup.
    pub id_mapping: Vec<(DeId, DeId)>,
}

/// Unionability discovery over a profiled lake.
pub struct UnionDiscovery<'a> {
    profiled: &'a ProfiledLake,
    #[allow(dead_code)]
    config: &'a CmdlConfig,
}

impl<'a> UnionDiscovery<'a> {
    /// Create a union-discovery engine.
    pub fn new(profiled: &'a ProfiledLake, config: &'a CmdlConfig) -> Self {
        Self { profiled, config }
    }

    /// The four unionability signals between two column profiles.
    pub fn signals(&self, a: &DeProfile, b: &DeProfile) -> UnionSignals {
        signals_given(a, b, name_similarity(&a.name, &b.name), || {
            sorted_containments(&a.distinct_values, &b.distinct_values)
        })
    }

    /// Column-pair ensemble score.
    pub fn column_score(&self, a: &DeProfile, b: &DeProfile) -> f64 {
        self.signals(a, b).ensemble()
    }

    /// Find the `top_k` tables unionable with `table_name` using the ensemble
    /// measure.
    pub fn unionable_tables(&self, table_name: &str, top_k: usize) -> Vec<UnionScore> {
        self.unionable_tables_with(table_name, top_k, "ensemble")
    }

    /// Find unionable tables scoring column pairs with a single named measure
    /// (`"name"`, `"containment"`, `"numeric"`, `"semantic"`) or the ensemble
    /// (any other string). Used by the individual-measure analysis (Table 5).
    pub fn unionable_tables_with(
        &self,
        table_name: &str,
        top_k: usize,
        measure: &str,
    ) -> Vec<UnionScore> {
        let query: Vec<(DeId, &DeProfile)> = self
            .profiled
            .columns_of_table(table_name)
            .into_iter()
            .filter_map(|id| self.profiled.profile(id).map(|p| (id, p)))
            .collect();
        if query.is_empty() {
            return Vec::new();
        }
        let mut results = self.unionable_candidates(table_name, &query, measure);
        sort_union_scores(&mut results);
        results.truncate(top_k);
        results
    }

    /// The unsorted per-candidate-table scoring underlying
    /// [`unionable_tables_with`](Self::unionable_tables_with). The query
    /// columns arrive as explicit `(id, profile)` pairs so they may be
    /// *foreign* (resident on another shard); candidate tables are always
    /// local. Because a candidate table's columns all live on one shard,
    /// the per-table pair list — and therefore the tie order inside
    /// `greedy_matching` — is identical whether the scan runs over the
    /// whole lake or is scattered across shards and merged with
    /// [`sort_union_scores`].
    pub fn unionable_candidates(
        &self,
        query_table: &str,
        query: &[(DeId, &DeProfile)],
        measure: &str,
    ) -> Vec<UnionScore> {
        // Candidate tables: any table owning a column with a non-trivial
        // pairwise score against some query column. Each query column
        // probes the value index once and reads its overlap with every
        // column by slot.
        let values = self.profiled.values();
        let mut candidates: HashMap<&str, Vec<(DeId, DeId, f64)>> = HashMap::new();
        for &(qcol, qprofile) in query {
            let overlaps = values.overlaps(qprofile);
            let qnames = values.names_of(qprofile);
            for (slot, (&ccol, &overlap)) in
                self.profiled.column_ids().iter().zip(&overlaps).enumerate()
            {
                let Some(cprofile) = self.profiled.profile(ccol) else {
                    continue;
                };
                let Some(ctable) = cprofile.table_name.as_deref() else {
                    continue;
                };
                if ctable == query_table {
                    continue;
                }
                let name = name_similarity_of(&qnames.name, &values.names(slot).name);
                let signals = signals_given(qprofile, cprofile, name, || {
                    overlap_containments(
                        overlap as usize,
                        qprofile.distinct_values.len(),
                        cprofile.distinct_values.len(),
                    )
                });
                let score = signals.by_name(measure);
                if score > 0.15 {
                    candidates
                        .entry(ctable)
                        .or_default()
                        .push((qcol, ccol, score));
                }
            }
        }

        let query_names: HashMap<DeId, &str> = query
            .iter()
            .map(|&(id, profile)| (id, profile.name.as_str()))
            .collect();
        candidates
            .into_iter()
            .filter_map(|(table, pairs)| {
                let candidate_columns = self
                    .profiled
                    .lake
                    .table(table)
                    .map_or(0, |t| t.num_columns());
                debug_assert_eq!(
                    candidate_columns,
                    self.profiled.columns_of_table(table).len()
                );
                let mapping = greedy_matching(&pairs);
                if mapping.is_empty() {
                    return None;
                }
                let matched_weight: f64 = mapping.iter().map(|(_, _, s)| s).sum();
                let denom = query.len().max(candidate_columns) as f64;
                let score = (matched_weight / denom).clamp(0.0, 1.0);
                let id_mapping: Vec<(DeId, DeId)> =
                    mapping.iter().map(|&(q, c, _)| (q, c)).collect();
                let named_mapping = mapping
                    .into_iter()
                    .map(|(q, c, s)| {
                        (
                            query_names
                                .get(&q)
                                .map(|n| n.to_string())
                                .unwrap_or_default(),
                            self.profiled
                                .profile(c)
                                .map(|p| p.name.clone())
                                .unwrap_or_default(),
                            s,
                        )
                    })
                    .collect();
                Some(UnionScore {
                    table: table.to_string(),
                    score,
                    mapping: named_mapping,
                    id_mapping,
                })
            })
            .collect()
    }
}

/// The four signals of a column pair given its name similarity and its two
/// containments, which `containments` yields only for a textual pair.
fn signals_given(
    a: &DeProfile,
    b: &DeProfile,
    name: f64,
    containments: impl FnOnce() -> (f64, f64),
) -> UnionSignals {
    let containment = if a.tags.numeric || b.tags.numeric {
        0.0
    } else {
        let (ab, ba) = containments();
        ab.max(ba)
    };
    let numeric = match (&a.numeric, &b.numeric) {
        (Some(na), Some(nb)) => numeric_overlap(na, nb),
        _ => 0.0,
    };
    let semantic = cosine_similarity(&a.solo.content, &b.solo.content).max(0.0);
    UnionSignals {
        name,
        containment,
        numeric,
        semantic,
    }
}

/// Sort table-level union scores by score descending, ties by table name —
/// the canonical order, shared by the single-catalog path and the shard
/// router's merge. (Candidates come out of a `HashMap`, so without the
/// tie-break equal-scored tables — and any truncated prefix — would surface
/// in a run-dependent order.)
pub fn sort_union_scores(results: &mut [UnionScore]) {
    results.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.table.cmp(&b.table))
    });
}

/// Greedy maximal weighted bipartite matching over `(left, right, weight)`
/// candidate pairs: repeatedly pick the heaviest pair whose endpoints are
/// both unmatched.
fn greedy_matching(pairs: &[(DeId, DeId, f64)]) -> Vec<(DeId, DeId, f64)> {
    let mut sorted: Vec<&(DeId, DeId, f64)> = pairs.iter().collect();
    sorted.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut used_left = std::collections::HashSet::new();
    let mut used_right = std::collections::HashSet::new();
    let mut out = Vec::new();
    for &&(l, r, w) in &sorted {
        if used_left.contains(&l) || used_right.contains(&r) {
            continue;
        }
        used_left.insert(l);
        used_right.insert(r);
        out.push((l, r, w));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;
    use cmdl_datalake::synth;

    fn setup() -> (ProfiledLake, CmdlConfig) {
        let config = CmdlConfig::fast();
        let profiled = Profiler::new(&config)
            .profile_lake(synth::ukopen::generate(&synth::UkOpenConfig::tiny()).lake);
        (profiled, config)
    }

    #[test]
    fn finds_family_tables_as_unionable() {
        let (profiled, config) = setup();
        let discovery = UnionDiscovery::new(&profiled, &config);
        let results = discovery.unionable_tables("education_spending_0", 5);
        assert!(!results.is_empty());
        let names: Vec<&str> = results.iter().map(|r| r.table.as_str()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("education_spending_")),
            "family members should rank among {names:?}"
        );
        // Family members should outrank the unrelated reference table.
        let family_rank = names
            .iter()
            .position(|n| n.starts_with("education_spending_"));
        let councils_rank = names.iter().position(|n| *n == "councils");
        if let (Some(f), Some(c)) = (family_rank, councils_rank) {
            assert!(f < c, "family should rank above councils");
        }
    }

    #[test]
    fn mapping_is_one_to_one() {
        let (profiled, config) = setup();
        let discovery = UnionDiscovery::new(&profiled, &config);
        let results = discovery.unionable_tables("education_spending_0", 3);
        for r in &results {
            let lefts: std::collections::HashSet<&String> =
                r.mapping.iter().map(|(l, _, _)| l).collect();
            let rights: std::collections::HashSet<&String> =
                r.mapping.iter().map(|(_, rr, _)| rr).collect();
            assert_eq!(lefts.len(), r.mapping.len());
            assert_eq!(rights.len(), r.mapping.len());
            assert!(r.score >= 0.0 && r.score <= 1.0);
        }
    }

    #[test]
    fn single_measure_variants_work() {
        let (profiled, config) = setup();
        let discovery = UnionDiscovery::new(&profiled, &config);
        for measure in ["name", "containment", "numeric", "semantic", "ensemble"] {
            let results = discovery.unionable_tables_with("education_spending_0", 3, measure);
            // Name/semantic/ensemble should find something for this family;
            // numeric may or may not — just ensure no panic and valid scores.
            for r in &results {
                assert!(r.score >= 0.0 && r.score <= 1.0, "bad score for {measure}");
            }
        }
    }

    #[test]
    fn unknown_table_returns_empty() {
        let (profiled, config) = setup();
        let discovery = UnionDiscovery::new(&profiled, &config);
        assert!(discovery.unionable_tables("missing", 5).is_empty());
    }

    #[test]
    fn greedy_matching_is_maximal_one_to_one() {
        let pairs = vec![
            (DeId(1), DeId(10), 0.9),
            (DeId(1), DeId(11), 0.8),
            (DeId(2), DeId(10), 0.7),
            (DeId(2), DeId(11), 0.6),
        ];
        let m = greedy_matching(&pairs);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&(DeId(1), DeId(10), 0.9)));
        assert!(m.contains(&(DeId(2), DeId(11), 0.6)));
    }

    #[test]
    fn signals_in_unit_range() {
        let (profiled, config) = setup();
        let discovery = UnionDiscovery::new(&profiled, &config);
        let a = profiled.profile(profiled.column_ids()[0]).unwrap();
        let b = profiled.profile(profiled.column_ids()[1]).unwrap();
        let s = discovery.signals(a, b);
        for v in [s.name, s.containment, s.numeric, s.semantic, s.ensemble()] {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "signal out of range: {v}");
        }
    }
}
