//! The containment-search (sketch-based) baseline.
//!
//! Uses MinHash sketches indexed in an LSH Ensemble, querying with the
//! document's token set and aggregating column hits to tables. Being
//! threshold-based, the ranking within the result set is coarse — the paper
//! points at exactly this limitation ("LSHEnsemble index is threshold based,
//! and therefore it is incapable of producing meaningful ranked results").

use std::collections::HashMap;

use cmdl_core::profile::ProfiledLake;
use cmdl_core::CmdlConfig;
use cmdl_sketch::{LshEnsemble, LshEnsembleConfig, MinHasher};
use cmdl_text::BagOfWords;

use crate::TableAnswer;

/// The containment-search baseline.
#[derive(Debug, Clone)]
pub struct ContainmentSearch {
    ensemble: LshEnsemble,
    hasher: MinHasher,
    column_tables: HashMap<u64, String>,
    /// Containment threshold used when querying. Default 0.3.
    pub threshold: f64,
}

impl ContainmentSearch {
    /// Build the baseline from a profiled lake. The configuration must be the
    /// one the lake was profiled with so that the query signatures match the
    /// stored MinHash signatures.
    pub fn build(profiled: &ProfiledLake, config: &CmdlConfig) -> Self {
        let mut ensemble = LshEnsemble::new(LshEnsembleConfig {
            num_hashes: config.minhash_hashes,
            ..Default::default()
        });
        let mut column_tables = HashMap::new();
        for &id in profiled.column_ids() {
            let Some(profile) = profiled.profile(id) else {
                continue;
            };
            ensemble.insert(id.raw(), profile.minhash.clone());
            if let Some(table) = &profile.table_name {
                column_tables.insert(id.raw(), table.clone());
            }
        }
        ensemble.build();
        Self {
            ensemble,
            // Must match the profiler's hasher exactly (scheme, seed, and
            // length) or query signatures are incomparable with the stored
            // ones.
            hasher: MinHasher::with_scheme(
                config.minhash_hashes,
                config.seed,
                config.sketch_scheme,
            ),
            column_tables,
            threshold: 0.3,
        }
    }

    /// Doc→Table search by containment of the query token set in columns.
    pub fn doc_to_table(&self, query: &BagOfWords, top_k: usize) -> Vec<TableAnswer> {
        let signature = self.hasher.signature(query.terms());
        let mut hits = self.ensemble.query(&signature, self.threshold);
        if hits.is_empty() {
            hits = self.ensemble.query_top_k(&signature, top_k * 4);
        }
        let mut tables: HashMap<String, f64> = HashMap::new();
        for (id, score) in hits {
            if let Some(table) = self.column_tables.get(&id) {
                let entry = tables.entry(table.clone()).or_insert(0.0);
                if score > *entry {
                    *entry = score;
                }
            }
        }
        let mut out: Vec<TableAnswer> = tables.into_iter().collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out.truncate(top_k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::{CmdlConfig, Profiler};
    use cmdl_datalake::synth;

    #[test]
    fn finds_tables_containing_query_terms() {
        let config = CmdlConfig::fast();
        let profiled = Profiler::new(&config)
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake);
        let baseline = ContainmentSearch::build(&profiled, &config);
        let drug = profiled
            .lake
            .table("Drugs")
            .unwrap()
            .column("Drug")
            .unwrap()
            .values[1]
            .as_text();
        let query = BagOfWords::from_tokens(drug.split_whitespace().map(|s| s.to_lowercase()));
        let results = baseline.doc_to_table(&query, 5);
        assert!(!results.is_empty());
        for w in results.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn mismatched_hasher_is_not_an_issue_for_empty_query() {
        let config = CmdlConfig::fast();
        let profiled =
            Profiler::new(&config).profile_lake(synth::mlopen(synth::MlOpenScale::Small).lake);
        let baseline = ContainmentSearch::build(&profiled, &config);
        let results = baseline.doc_to_table(&BagOfWords::new(), 5);
        assert!(results.len() <= 5);
    }
}
