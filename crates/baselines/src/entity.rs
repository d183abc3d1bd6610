//! Entity-matching Doc→Table baselines (SpaCy / SciSpaCy style).
//!
//! The baseline extracts entity-like mentions from the query document and
//! from every table *tuple* (treating each tuple as a document, as the paper
//! describes), and declares a document related to a table when any tuple
//! shares enough entities with the document under the chosen string metric.
//! Two metrics are supported: set Jaccard over entity mentions and
//! Jaro-based fuzzy matching (the latter quadratic in the number of
//! mentions — the reason the paper could not run it on Benchmark 1B).
//!
//! The generic extractor uses shape heuristics (capitalized words,
//! identifier-like tokens) and is intentionally imprecise — mirroring the
//! near-random behaviour of untuned SpaCy on Benchmarks 1A/1C. The
//! *fine-tuned* mode is additionally primed with a domain vocabulary (the
//! distinct values of the lake's textual key/name columns), mirroring
//! SciSpaCy fine-tuned on PubMed for Benchmark 1B.

use std::collections::{HashMap, HashSet};

use cmdl_core::profile::ProfiledLake;
use cmdl_text::strsim::jaro;

use crate::TableAnswer;

/// Entity-mention similarity metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityMetric {
    /// Exact-match Jaccard over the entity sets.
    Jaccard,
    /// Fuzzy matching with Jaro similarity (expensive).
    Jaro,
}

/// The entity-matching baseline.
#[derive(Debug, Clone)]
pub struct EntityMatcher {
    metric: EntityMetric,
    /// Entities per table (union over tuples, kept per-table for scoring).
    table_entities: HashMap<String, HashSet<String>>,
    /// Domain vocabulary for the fine-tuned mode (empty when generic).
    domain_vocabulary: HashSet<String>,
}

impl EntityMatcher {
    /// Build a generic (untuned) matcher.
    pub fn build(profiled: &ProfiledLake, metric: EntityMetric) -> Self {
        Self::build_inner(profiled, metric, false)
    }

    /// Build a domain fine-tuned matcher (SciSpaCy analogue): the extractor
    /// additionally recognizes every distinct value of the lake's textual
    /// name/key columns as an entity.
    pub fn build_fine_tuned(profiled: &ProfiledLake, metric: EntityMetric) -> Self {
        Self::build_inner(profiled, metric, true)
    }

    fn build_inner(profiled: &ProfiledLake, metric: EntityMetric, fine_tuned: bool) -> Self {
        let mut domain_vocabulary = HashSet::new();
        if fine_tuned {
            for &id in profiled.column_ids() {
                let Some(profile) = profiled.profile(id) else {
                    continue;
                };
                if profile.tags.text_searchable {
                    for v in &profile.distinct_values {
                        if v.len() >= 4 && v.split_whitespace().count() <= 3 {
                            domain_vocabulary.insert(v.to_lowercase());
                        }
                    }
                }
            }
        }
        let mut table_entities: HashMap<String, HashSet<String>> = HashMap::new();
        for table in profiled.lake.tables() {
            let mut entities = HashSet::new();
            for column in &table.columns {
                for value in column.distinct_texts() {
                    for mention in extract_entities(&value, &domain_vocabulary) {
                        entities.insert(mention);
                    }
                }
            }
            table_entities.insert(table.name.clone(), entities);
        }
        Self {
            metric,
            table_entities,
            domain_vocabulary,
        }
    }

    /// Is this the fine-tuned variant?
    pub fn is_fine_tuned(&self) -> bool {
        !self.domain_vocabulary.is_empty()
    }

    /// Doc→Table search: extract entities from the document text and score
    /// every table by entity-set similarity.
    pub fn doc_to_table(&self, document_text: &str, top_k: usize) -> Vec<TableAnswer> {
        let doc_entities = extract_entities(document_text, &self.domain_vocabulary);
        if doc_entities.is_empty() {
            return Vec::new();
        }
        let mut scored: Vec<TableAnswer> = self
            .table_entities
            .iter()
            .map(|(table, entities)| {
                let score = match self.metric {
                    EntityMetric::Jaccard => jaccard(&doc_entities, entities),
                    EntityMetric::Jaro => fuzzy_overlap(&doc_entities, entities),
                };
                (table.clone(), score)
            })
            .filter(|(_, s)| *s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(top_k);
        scored
    }
}

/// Extract entity-like mentions: identifier-shaped tokens, capitalized
/// multi-word spans, and (when provided) domain-vocabulary matches.
fn extract_entities(text: &str, domain_vocabulary: &HashSet<String>) -> HashSet<String> {
    let mut entities = HashSet::new();
    let words: Vec<&str> = text.split_whitespace().collect();
    for w in &words {
        let cleaned: String = w
            .chars()
            .filter(|c| c.is_alphanumeric() || *c == '-')
            .collect();
        if cleaned.len() < 3 {
            continue;
        }
        let has_digit = cleaned.chars().any(|c| c.is_ascii_digit());
        let starts_upper = cleaned
            .chars()
            .next()
            .map(|c| c.is_uppercase())
            .unwrap_or(false);
        if has_digit || starts_upper {
            entities.insert(cleaned.to_lowercase());
        }
    }
    if !domain_vocabulary.is_empty() {
        let lower = text.to_lowercase();
        for term in domain_vocabulary {
            if lower.contains(term) {
                entities.insert(term.clone());
            }
        }
    }
    entities
}

fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Fuzzy overlap: the fraction of document entities that have a Jaro match
/// above 0.9 among the table entities (quadratic).
fn fuzzy_overlap(doc: &HashSet<String>, table: &HashSet<String>) -> f64 {
    if doc.is_empty() || table.is_empty() {
        return 0.0;
    }
    let matched = doc
        .iter()
        .filter(|d| table.iter().any(|t| jaro(d, t) > 0.9))
        .count();
    matched as f64 / doc.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdl_core::{CmdlConfig, Profiler};
    use cmdl_datalake::synth;

    fn profiled() -> ProfiledLake {
        Profiler::new(&CmdlConfig::fast())
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake)
    }

    #[test]
    fn fine_tuned_beats_generic_on_pharma() {
        let profiled = profiled();
        let generic = EntityMatcher::build(&profiled, EntityMetric::Jaccard);
        let tuned = EntityMatcher::build_fine_tuned(&profiled, EntityMetric::Jaccard);
        assert!(!generic.is_fine_tuned());
        assert!(tuned.is_fine_tuned());

        let doc = &profiled.lake.documents()[0].text;
        let generic_hits = generic.doc_to_table(doc, 6);
        let tuned_hits = tuned.doc_to_table(doc, 6);
        // The tuned matcher should surface the Drugs (or other entity) table;
        // the generic one relies only on capitalization, which lowercased drug
        // names defeat.
        let tuned_found = tuned_hits.iter().any(|(t, _)| {
            t == "Drugs" || t == "Compounds" || t == "Chemical_Entities" || t == "Enzymes"
        });
        assert!(
            tuned_found,
            "tuned matcher should find entity tables: {tuned_hits:?}"
        );
        assert!(tuned_hits.len() >= generic_hits.len().min(1));
    }

    #[test]
    fn jaro_metric_works() {
        let profiled = profiled();
        let tuned = EntityMatcher::build_fine_tuned(&profiled, EntityMetric::Jaro);
        let doc = &profiled.lake.documents()[1].text;
        let hits = tuned.doc_to_table(doc, 5);
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn empty_document_returns_nothing() {
        let profiled = profiled();
        let matcher = EntityMatcher::build(&profiled, EntityMetric::Jaccard);
        assert!(matcher.doc_to_table("", 5).is_empty());
    }

    #[test]
    fn entity_extraction_heuristics() {
        let vocab = HashSet::new();
        let entities = extract_entities("Pemetrexed targets DHFR and DB00642 today", &vocab);
        assert!(entities.contains("pemetrexed"));
        assert!(entities.contains("dhfr"));
        assert!(entities.contains("db00642"));
        assert!(!entities.contains("and"));
    }
}
