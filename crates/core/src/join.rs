//! Joinability discovery: syntactic joins and PK-FK links.
//!
//! CMDL discovers two flavours of joinability (paper Sections 5.1 and 6.2):
//!
//! * **syntactic joins** between any pair of columns with high value overlap,
//!   measured with the Jaccard *set containment* in both directions — the key
//!   difference from Aurum/D3L, which use symmetric Jaccard similarity and
//!   therefore degrade when the joined columns have skewed cardinalities;
//! * **PK-FK links**: the FK column's values must be (almost) contained in
//!   the PK column, the PK column must be key-like (cardinality ≈ 1), and
//!   the two columns should have similar names; numeric key pairs use the
//!   numeric-overlap similarity as in Aurum.
//!
//! Both are exact. Every scan counts a query column's overlap with every
//! column of the lake in one probe of the lake's value postings index
//! ([`ValueIndex::overlaps`](crate::value_index::ValueIndex::overlaps)) and
//! reads each pair's count by column slot: once per query column for joins,
//! once per PK candidate for the PK-FK sweep. A single pair
//! ([`JoinDiscovery::join_score`]) is scored by one merge of the two sorted
//! distinct value lists ([`sorted_containments`]).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use cmdl_datalake::{DeId, DeKind};
use cmdl_sketch::{containment_ratio, numeric_overlap, overlap_containments, sorted_containments};
use cmdl_text::strsim::name_similarity_of;

use crate::config::CmdlConfig;
use crate::profile::{DeProfile, ProfiledLake};

/// A discovered PK-FK link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PkFkLink {
    /// Primary-key column id.
    pub pk: DeId,
    /// Foreign-key column id.
    pub fk: DeId,
    /// Qualified name of the PK column.
    pub pk_name: String,
    /// Qualified name of the FK column.
    pub fk_name: String,
    /// Combined link score.
    pub score: f64,
    /// The raw containment signal (FK values ⊂ PK values).
    pub containment: f64,
    /// The raw column-name-similarity signal.
    pub name_sim: f64,
    /// The raw PK-uniqueness signal.
    pub uniqueness: f64,
}

/// Joinability discovery over a profiled lake.
pub struct JoinDiscovery<'a> {
    profiled: &'a ProfiledLake,
    config: &'a CmdlConfig,
}

impl<'a> JoinDiscovery<'a> {
    /// Create a join-discovery engine.
    pub fn new(profiled: &'a ProfiledLake, config: &'a CmdlConfig) -> Self {
        Self { profiled, config }
    }

    /// Bidirectional containment-based join score between two column
    /// profiles: `max(containment(a ⊂ b), containment(b ⊂ a))`, computed
    /// exactly by one linear merge of the two sorted distinct value lists
    /// (see [`DeProfile::distinct_values`]), with numeric columns falling
    /// back to the numeric range-overlap measure.
    pub fn join_score(&self, a: &DeProfile, b: &DeProfile) -> f64 {
        join_score_given(a, b, || {
            sorted_containments(&a.distinct_values, &b.distinct_values)
        })
    }

    /// Find the `top_k` columns (in other tables) joinable with the given
    /// column. Returns `(column id, score)` sorted by score descending
    /// (ties broken by ascending id, so any truncated prefix is
    /// deterministic and partition-independent).
    pub fn joinable_columns(&self, column: DeId, top_k: usize) -> Vec<(DeId, f64)> {
        let Some(query) = self.profiled.profile(column) else {
            return Vec::new();
        };
        let mut scored = self.joinable_candidates(query);
        sort_join_candidates(&mut scored);
        scored.truncate(top_k);
        scored
    }

    /// The unsorted scan underlying
    /// [`joinable_columns`](Self::joinable_columns): score every local
    /// join-candidate column against the query profile. The query profile
    /// may be *foreign* (resident on another shard) — the shard router
    /// scatters this scan across shards and merges with
    /// [`sort_join_candidates`], which is exactly the single-catalog
    /// order because the per-shard candidate sets are disjoint.
    pub fn joinable_candidates(&self, query: &DeProfile) -> Vec<(DeId, f64)> {
        if query.kind != DeKind::Column || !query.tags.join_candidate {
            return Vec::new();
        }
        let overlaps = self.profiled.values().overlaps(query);
        self.profiled
            .column_ids()
            .iter()
            .zip(overlaps)
            .filter_map(|(&id, overlap)| {
                if id == query.id {
                    return None;
                }
                let candidate = self.profiled.profile(id)?;
                if !candidate.tags.join_candidate {
                    return None;
                }
                if candidate.table_name == query.table_name {
                    return None; // only joins across tables
                }
                let score = join_score_given(query, candidate, || {
                    overlap_containments(
                        overlap as usize,
                        query.distinct_values.len(),
                        candidate.distinct_values.len(),
                    )
                });
                if score > 0.0 {
                    Some((id, score))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Find the `top_k` tables joinable with the given table: the best join
    /// score over any column pair, aggregated per candidate table.
    pub fn joinable_tables(&self, table_name: &str, top_k: usize) -> Vec<(String, f64)> {
        let query_columns: Vec<&DeProfile> = self
            .profiled
            .columns_of_table(table_name)
            .into_iter()
            .filter_map(|id| self.profiled.profile(id))
            .collect();
        let best = self.joinable_table_candidates(&query_columns);
        let mut out: Vec<(String, f64)> = best.into_iter().collect();
        // Tie-break by table name: `best` is a HashMap, so without this the
        // order of equal-scored tables (and thus the truncated result set)
        // would vary from run to run.
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        out.truncate(top_k);
        out
    }

    /// The per-table-best aggregation underlying
    /// [`joinable_tables`](Self::joinable_tables): the best join score over
    /// any (query column, local candidate column) pair, keyed by candidate
    /// table. The query columns may be foreign profiles; a per-table max is
    /// order-independent, so merging per-shard maps with another max
    /// reproduces the single-catalog aggregate exactly.
    ///
    /// Aggregates over *all* scored partners (the per-column scan is
    /// linear anyway): the per-table best score is exact and does not
    /// depend on `top_k`, so paginated fetches of different depths rank
    /// tables identically.
    pub fn joinable_table_candidates(&self, query_columns: &[&DeProfile]) -> HashMap<String, f64> {
        let mut best: HashMap<String, f64> = HashMap::new();
        for query in query_columns {
            for (other, score) in self.joinable_candidates(query) {
                let Some(other_table) = self
                    .profiled
                    .profile(other)
                    .and_then(|p| p.table_name.as_deref())
                else {
                    continue;
                };
                // Clone the name only when the table is first seen.
                match best.get_mut(other_table) {
                    Some(entry) => *entry = entry.max(score),
                    None => {
                        best.insert(other_table.to_string(), score);
                    }
                }
            }
        }
        best
    }

    /// Discover all PK-FK links in the lake with the configured signal
    /// weights.
    ///
    /// A pair `(p, f)` is reported when `p` is key-like, `f`'s values are
    /// contained in `p`'s values above the configured containment threshold,
    /// the columns have similar names (schema similarity filter), and they
    /// live in different tables.
    pub fn pkfk_links(&self) -> Vec<PkFkLink> {
        self.pkfk_links_weighted(
            self.config.pkfk_containment_weight,
            self.config.pkfk_name_weight,
            self.config.pkfk_uniqueness_weight,
        )
    }

    /// [`pkfk_links`](Self::pkfk_links) with explicit signal weights (the
    /// per-query override path of the unified
    /// [`DiscoveryQuery`](crate::query::DiscoveryQuery) API). The candidate
    /// *filters* (containment and name-similarity thresholds) stay as
    /// configured; only the score blend changes.
    pub fn pkfk_links_weighted(
        &self,
        w_containment: f64,
        w_name: f64,
        w_uniqueness: f64,
    ) -> Vec<PkFkLink> {
        let mut links =
            self.pkfk_link_candidates(&self.pk_candidates(), w_containment, w_name, w_uniqueness);
        sort_pkfk_links(&mut links);
        links
    }

    /// The lake's PK candidates: key-like join-candidate columns, in column
    /// order.
    pub fn pk_candidates(&self) -> Vec<&'a DeProfile> {
        self.profiled
            .column_ids()
            .iter()
            .filter_map(|&id| self.profiled.profile(id))
            .filter(|p| p.tags.key_like && p.tags.join_candidate)
            .collect()
    }

    /// The unsorted PK-FK sweep underlying
    /// [`pkfk_links_weighted`](Self::pkfk_links_weighted): every link from
    /// one of `pks` to a local FK candidate (any join-candidate column). The
    /// PKs may be *foreign*: the shard router gathers every shard's PK
    /// candidates and has each shard sweep its own FK columns, then sorts
    /// the union with [`sort_pkfk_links`]. The pair math is per pair and
    /// the sort is a total order (qualified names are unique across live
    /// tables), so that merge reproduces the single-catalog links bit for
    /// bit.
    ///
    /// Each PK probes the value index once; a textual pair's containment
    /// is its overlap count over the FK column's size.
    pub fn pkfk_link_candidates(
        &self,
        pks: &[&DeProfile],
        w_containment: f64,
        w_name: f64,
        w_uniqueness: f64,
    ) -> Vec<PkFkLink> {
        let values = self.profiled.values();
        let mut links = Vec::new();
        for pk in pks {
            let overlaps = values.overlaps(pk);
            let pk_names = values.names_of(pk);
            for (slot, (&fk_id, &overlap)) in
                self.profiled.column_ids().iter().zip(&overlaps).enumerate()
            {
                let Some(fk) = self.profiled.profile(fk_id) else {
                    continue;
                };
                if !fk.tags.join_candidate {
                    continue;
                }
                if pk.id == fk.id || pk.table_name == fk.table_name {
                    continue;
                }
                if pk.tags.numeric != fk.tags.numeric {
                    continue;
                }
                let containment = if pk.tags.numeric {
                    match (&fk.numeric, &pk.numeric) {
                        (Some(nf), Some(np)) => {
                            if nf.range_contained_in(np) {
                                1.0
                            } else {
                                numeric_overlap(nf, np)
                            }
                        }
                        _ => 0.0,
                    }
                } else {
                    containment_ratio(overlap as usize, fk.distinct_values.len())
                };
                if containment < self.config.pkfk_containment {
                    continue;
                }
                let fk_names = values.names(slot);
                let name_sim = name_similarity_of(&pk_names.name, &fk_names.name).max(
                    name_similarity_of(&pk_names.qualified_name, &fk_names.qualified_name),
                );
                if name_sim < self.config.pkfk_name_similarity {
                    continue;
                }
                links.push(PkFkLink {
                    pk: pk.id,
                    fk: fk.id,
                    pk_name: pk.qualified_name.clone(),
                    fk_name: fk.qualified_name.clone(),
                    score: w_containment * containment
                        + w_name * name_sim
                        + w_uniqueness * pk.uniqueness,
                    containment,
                    name_sim,
                    uniqueness: pk.uniqueness,
                });
            }
        }
        links
    }
}

/// The join score of a column pair given its two containments, which
/// `containments` yields only for a textual pair: numeric pairs use the
/// numeric range overlap, and a numeric/text pair scores 0.
fn join_score_given(
    a: &DeProfile,
    b: &DeProfile,
    containments: impl FnOnce() -> (f64, f64),
) -> f64 {
    if a.tags.numeric && b.tags.numeric {
        return match (&a.numeric, &b.numeric) {
            (Some(na), Some(nb)) => numeric_overlap(na, nb),
            _ => 0.0,
        };
    }
    if a.tags.numeric != b.tags.numeric {
        return 0.0;
    }
    let (c_ab, c_ba) = containments();
    c_ab.max(c_ba)
}

/// Sort PK-FK links by score descending, tie-broken on the qualified names
/// so equal-scored links (and thus any truncated prefix) surface in a
/// run-independent order: the canonical order, shared by the
/// single-catalog path and the shard router's merge.
pub fn sort_pkfk_links(links: &mut [PkFkLink]) {
    links.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.pk_name.cmp(&b.pk_name))
            .then_with(|| a.fk_name.cmp(&b.fk_name))
    });
}

/// Sort scored join candidates by score descending, ties by ascending id —
/// the canonical joinable-columns order, shared by the single-catalog path
/// and the shard router's merge.
pub fn sort_join_candidates(scored: &mut [(DeId, f64)]) {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profiler;
    use cmdl_datalake::synth;

    fn setup() -> (ProfiledLake, CmdlConfig) {
        let config = CmdlConfig::fast();
        let profiled = Profiler::new(&config)
            .profile_lake(synth::pharma::generate(&synth::PharmaConfig::tiny()).lake);
        (profiled, config)
    }

    #[test]
    fn joinable_columns_find_fk_partners() {
        let (profiled, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &config);
        let id = profiled.lake.column_id_by_name("Drugs", "Id").unwrap();
        let results = discovery.joinable_columns(id, 10);
        assert!(!results.is_empty());
        let names: Vec<String> = results
            .iter()
            .map(|(c, _)| profiled.profile(*c).unwrap().qualified_name.clone())
            .collect();
        assert!(
            names.iter().any(|n| n == "Enzyme_Targets.Drug_Key"),
            "expected Enzyme_Targets.Drug_Key among {names:?}"
        );
        // Scores sorted descending.
        for w in results.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn joinable_excludes_same_table() {
        let (profiled, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &config);
        let id = profiled.lake.column_id_by_name("Drugs", "Id").unwrap();
        for (col, _) in discovery.joinable_columns(id, 50) {
            assert_ne!(
                profiled.profile(col).unwrap().table_name.as_deref(),
                Some("Drugs")
            );
        }
    }

    #[test]
    fn joinable_tables_aggregates() {
        let (profiled, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &config);
        let tables = discovery.joinable_tables("Drugs", 5);
        assert!(!tables.is_empty());
        let names: Vec<&str> = tables.iter().map(|(t, _)| t.as_str()).collect();
        assert!(
            names.contains(&"Enzyme_Targets")
                || names.contains(&"Drug_Interactions")
                || names.contains(&"Dosages"),
            "expected a drug-key table among {names:?}"
        );
    }

    #[test]
    fn pkfk_links_recover_schema_keys() {
        let (profiled, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &config);
        let links = discovery.pkfk_links();
        assert!(!links.is_empty());
        let pairs: Vec<(String, String)> = links
            .iter()
            .map(|l| (l.pk_name.clone(), l.fk_name.clone()))
            .collect();
        assert!(
            pairs
                .iter()
                .any(|(pk, fk)| pk == "Drugs.Id" && fk == "Enzyme_Targets.Drug_Key"),
            "expected Drugs.Id -> Enzyme_Targets.Drug_Key among {} links",
            pairs.len()
        );
        // All reported links satisfy the containment threshold by construction.
        assert!(links.iter().all(|l| l.score > 0.0));
    }

    #[test]
    fn unknown_column_returns_empty() {
        let (profiled, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &config);
        assert!(discovery.joinable_columns(DeId(999_999), 5).is_empty());
        assert!(discovery.joinable_tables("NoSuchTable", 5).is_empty());
    }

    #[test]
    fn numeric_and_text_columns_do_not_join() {
        let (profiled, config) = setup();
        let discovery = JoinDiscovery::new(&profiled, &config);
        let text = profiled.lake.column_id_by_name("Drugs", "Drug").unwrap();
        let numeric = profiled
            .lake
            .column_id_by_name("Dosages", "Dose_Mg")
            .unwrap();
        let a = profiled.profile(text).unwrap();
        let b = profiled.profile(numeric).unwrap();
        assert_eq!(discovery.join_score(a, b), 0.0);
    }
}
