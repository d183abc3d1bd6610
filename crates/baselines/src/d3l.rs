//! The D3L baseline (Bogatu et al., ICDE 2020).
//!
//! D3L builds hash-based signature sketches on multiple fine-grained signals
//! per column (name, value set, word embeddings, numeric distribution, and
//! format) and combines them *at query time* with a weighted Euclidean
//! distance over the per-signal distances — in contrast to CMDL, which
//! combines scores into an ensemble before the table alignment. Like Aurum,
//! its value-overlap signal is symmetric Jaccard similarity, so the syntactic
//! join results of Table 3 track Aurum's.

use std::collections::HashMap;

use cmdl_core::profile::{DeProfile, ProfiledLake};
use cmdl_core::CmdlConfig;
use cmdl_datalake::DeId;
use cmdl_index::ann::cosine_similarity;
use cmdl_sketch::{exact_jaccard, numeric_overlap};
use cmdl_text::strsim::name_similarity;

use crate::TableAnswer;

/// Per-signal distances D3L computes between two columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct D3lDistances {
    /// Name-signal distance.
    pub name: f64,
    /// Value-overlap (Jaccard) distance.
    pub value: f64,
    /// Embedding-signal distance.
    pub embedding: f64,
    /// Numeric-distribution distance.
    pub numeric: f64,
}

impl D3lDistances {
    /// Weighted Euclidean combination of the per-signal distances, converted
    /// to a similarity in `[0, 1]`.
    pub fn combined_similarity(&self, weights: &[f64; 4]) -> f64 {
        let ds = [self.name, self.value, self.embedding, self.numeric];
        let wsum: f64 = weights.iter().sum();
        if wsum == 0.0 {
            return 0.0;
        }
        let dist = ds
            .iter()
            .zip(weights)
            .map(|(d, w)| w * d * d)
            .sum::<f64>()
            .sqrt()
            / wsum.sqrt();
        (1.0 - dist).clamp(0.0, 1.0)
    }
}

/// The D3L baseline system.
pub struct D3l<'a> {
    profiled: &'a ProfiledLake,
    #[allow(dead_code)]
    config: &'a CmdlConfig,
    /// Signal weights (name, value, embedding, numeric).
    pub weights: [f64; 4],
}

impl<'a> D3l<'a> {
    /// Create the baseline over a profiled lake with the default equal
    /// weights.
    pub fn new(profiled: &'a ProfiledLake, config: &'a CmdlConfig) -> Self {
        Self {
            profiled,
            config,
            weights: [1.0, 1.0, 1.0, 1.0],
        }
    }

    /// Per-signal distances between two column profiles.
    pub fn distances(&self, a: &DeProfile, b: &DeProfile) -> D3lDistances {
        let name = 1.0 - name_similarity(&a.name, &b.name);
        let value = if a.tags.numeric || b.tags.numeric {
            1.0
        } else {
            1.0 - exact_jaccard(&a.distinct_values, &b.distinct_values)
        };
        let embedding = 1.0 - cosine_similarity(&a.solo.content, &b.solo.content).max(0.0);
        let numeric = match (&a.numeric, &b.numeric) {
            (Some(na), Some(nb)) => 1.0 - numeric_overlap(na, nb),
            _ => 1.0,
        };
        D3lDistances {
            name,
            value,
            embedding,
            numeric,
        }
    }

    /// Join score between two columns: D3L's syntactic joinability is driven
    /// by the value-overlap (Jaccard) signal.
    pub fn join_score(&self, a: &DeProfile, b: &DeProfile) -> f64 {
        if a.tags.numeric && b.tags.numeric {
            return match (&a.numeric, &b.numeric) {
                (Some(na), Some(nb)) => numeric_overlap(na, nb),
                _ => 0.0,
            };
        }
        if a.tags.numeric != b.tags.numeric {
            return 0.0;
        }
        exact_jaccard(&a.distinct_values, &b.distinct_values)
    }

    /// Top-k joinable columns for a query column.
    pub fn joinable_columns(&self, column: DeId, top_k: usize) -> Vec<(DeId, f64)> {
        let Some(query) = self.profiled.profile(column) else {
            return Vec::new();
        };
        let mut scored: Vec<(DeId, f64)> = self
            .profiled
            .column_ids()
            .iter()
            .filter_map(|&id| {
                if id == column {
                    return None;
                }
                let candidate = self.profiled.profile(id)?;
                if candidate.table_name == query.table_name || !candidate.tags.join_candidate {
                    return None;
                }
                let score = self.join_score(query, candidate);
                (score > 0.0).then_some((id, score))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(top_k);
        scored
    }

    /// Unionable-table discovery: per query column, find the most similar
    /// columns under *each individual signal*, then combine the per-signal
    /// distances of the candidates with the weighted Euclidean score and
    /// aggregate to tables.
    pub fn unionable_tables(&self, table_name: &str, top_k: usize) -> Vec<TableAnswer> {
        let query_columns = self.profiled.columns_of_table(table_name);
        if query_columns.is_empty() {
            return Vec::new();
        }
        let mut per_table: HashMap<String, Vec<f64>> = HashMap::new();
        for &qcol in &query_columns {
            let Some(q) = self.profiled.profile(qcol) else {
                continue;
            };
            // Candidate generation: most similar columns per signal.
            let mut candidates: Vec<(DeId, D3lDistances)> = self
                .profiled
                .column_ids()
                .iter()
                .filter_map(|&id| {
                    if id == qcol {
                        return None;
                    }
                    let c = self.profiled.profile(id)?;
                    let ctable = c.table_name.as_deref()?;
                    if ctable == table_name {
                        return None;
                    }
                    Some((id, self.distances(q, c)))
                })
                .collect();
            candidates.sort_by(|a, b| {
                a.1.combined_similarity(&self.weights)
                    .partial_cmp(&b.1.combined_similarity(&self.weights))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .reverse()
            });
            for (id, distances) in candidates.into_iter().take(20) {
                let score = distances.combined_similarity(&self.weights);
                if score <= 0.3 {
                    continue;
                }
                if let Some(table) = self.profiled.profile(id).and_then(|p| p.table_name.clone()) {
                    per_table.entry(table).or_default().push(score);
                }
            }
        }
        let mut out: Vec<TableAnswer> = per_table
            .into_iter()
            .map(|(table, scores)| {
                let denom = self
                    .profiled
                    .columns_of_table(&table)
                    .len()
                    .max(query_columns.len()) as f64;
                let mut sorted = scores;
                sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
                sorted.truncate(denom as usize);
                (table, (sorted.iter().sum::<f64>() / denom).clamp(0.0, 1.0))
            })
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out.truncate(top_k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::Profiler;
    use cmdl_datalake::synth;

    fn setup() -> (ProfiledLake, CmdlConfig) {
        let config = CmdlConfig::fast();
        let profiled = Profiler::new(&config)
            .profile_lake(synth::ukopen::generate(&synth::UkOpenConfig::tiny()).lake);
        (profiled, config)
    }

    #[test]
    fn distances_in_unit_range_and_identity_small() {
        let (profiled, config) = setup();
        let d3l = D3l::new(&profiled, &config);
        let id = profiled
            .lake
            .column_id_by_name("regions", "region_code")
            .unwrap();
        let a = profiled.profile(id).unwrap();
        let d_self = d3l.distances(a, a);
        assert!(d_self.name < 0.11);
        assert!(d_self.value < 1e-9);
        // The numeric signal carries no evidence for a text column, which
        // caps self-similarity at 0.5 with equal weights.
        let sim = d_self.combined_similarity(&d3l.weights);
        assert!(sim >= 0.5);
        assert!((0.0..=1.0).contains(&sim));
    }

    #[test]
    fn unionable_finds_family_members() {
        let (profiled, config) = setup();
        let d3l = D3l::new(&profiled, &config);
        let results = d3l.unionable_tables("education_spending_0", 5);
        assert!(!results.is_empty());
        assert!(results
            .iter()
            .any(|(t, _)| t.starts_with("education_spending_") || t.ends_with("_spending_1")));
    }

    #[test]
    fn joinable_columns_by_jaccard() {
        let (profiled, config) = setup();
        let d3l = D3l::new(&profiled, &config);
        let id = profiled
            .lake
            .column_id_by_name("regions", "region_code")
            .unwrap();
        let results = d3l.joinable_columns(id, 10);
        assert!(!results.is_empty());
        assert!(results.iter().all(|(_, s)| *s > 0.0));
    }

    #[test]
    fn zero_weights_give_zero_similarity() {
        let d = D3lDistances {
            name: 0.5,
            value: 0.5,
            embedding: 0.5,
            numeric: 0.5,
        };
        assert_eq!(d.combined_similarity(&[0.0; 4]), 0.0);
    }
}
