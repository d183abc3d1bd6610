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
//! Both are exact. A column pair's overlap comes from one merge of the two
//! sorted distinct value lists ([`sorted_containments`]); the PK-FK sweep
//! counts every FK column's overlap with all PK candidates at once through
//! a value → PK postings map (the JOSIE approach, Zhu et al. SIGMOD 2019).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use cmdl_datalake::{DeId, DeKind};
use cmdl_sketch::{containment_ratio, numeric_overlap, sorted_containments};
use cmdl_text::strsim::name_similarity;

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
        if a.tags.numeric && b.tags.numeric {
            return match (&a.numeric, &b.numeric) {
                (Some(na), Some(nb)) => numeric_overlap(na, nb),
                _ => 0.0,
            };
        }
        if a.tags.numeric != b.tags.numeric {
            return 0.0;
        }
        let (c_ab, c_ba) = sorted_containments(&a.distinct_values, &b.distinct_values);
        c_ab.max(c_ba)
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
        self.profiled
            .column_ids
            .iter()
            .filter_map(|&id| {
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
                let score = self.join_score(query, candidate);
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
    pub fn joinable_table_candidates(
        &self,
        query_columns: &[&DeProfile],
    ) -> std::collections::HashMap<String, f64> {
        let mut best: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for query in query_columns {
            for (other, score) in self.joinable_candidates(query) {
                if let Some(profile) = self.profiled.profile(other) {
                    if let Some(other_table) = &profile.table_name {
                        let entry = best.entry(other_table.clone()).or_insert(0.0);
                        if score > *entry {
                            *entry = score;
                        }
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
        let candidates: Vec<&DeProfile> = self
            .profiled
            .column_ids
            .iter()
            .filter_map(|id| self.profiled.profile(*id))
            .collect();
        pkfk_links_over(
            &candidates,
            self.config,
            w_containment,
            w_name,
            w_uniqueness,
        )
    }
}

/// The PK-FK sweep over an explicit candidate set: the single code path
/// shared by [`JoinDiscovery::pkfk_links_weighted`] (candidates = the local
/// lake's columns) and the shard router (candidates = every shard's columns,
/// gathered). The pair math is per-pair and the final sort is a total order
/// (qualified names are unique across live tables), so the result is
/// independent of the candidate ordering — a partitioned gather reproduces
/// the single-catalog links bit for bit.
///
/// Each (PK, FK) pair is visited once. Textual containment is the exact
/// overlap count from `text_overlaps` over the FK column's size.
pub fn pkfk_links_over(
    columns: &[&DeProfile],
    config: &CmdlConfig,
    w_containment: f64,
    w_name: f64,
    w_uniqueness: f64,
) -> Vec<PkFkLink> {
    let pk_candidates: Vec<&DeProfile> = columns
        .iter()
        .copied()
        .filter(|p| p.tags.key_like && p.tags.join_candidate)
        .collect();
    let fk_candidates: Vec<&DeProfile> = columns
        .iter()
        .copied()
        .filter(|p| p.tags.join_candidate)
        .collect();

    let overlaps = text_overlaps(&pk_candidates, &fk_candidates);
    let mut links = Vec::new();
    for (p, pk) in pk_candidates.iter().enumerate() {
        for (f, fk) in fk_candidates.iter().enumerate() {
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
                let overlap = overlaps[f * pk_candidates.len() + p] as usize;
                containment_ratio(overlap, fk.distinct_values.len())
            };
            if containment < config.pkfk_containment {
                continue;
            }
            let name_sim = name_similarity(&pk.name, &fk.name)
                .max(name_similarity(&pk.qualified_name, &fk.qualified_name));
            if name_sim < config.pkfk_name_similarity {
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
    // Tie-break on the qualified names so equal-scored links (and thus
    // any truncated prefix) surface in a run-independent order.
    links.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.pk_name.cmp(&b.pk_name))
            .then_with(|| a.fk_name.cmp(&b.fk_name))
    });
    links
}

/// `|FK ∩ PK|` of every (FK, PK) pair of textual candidates, row-major by
/// FK (numeric columns keep 0: their containment is the range overlap).
/// A value → PK postings map is built once; each FK column then adds one to
/// every PK sharing each of its values, in one pass over its own values.
/// Exact because every `distinct_values` list is duplicate-free.
fn text_overlaps(pks: &[&DeProfile], fks: &[&DeProfile]) -> Vec<u32> {
    let mut postings: HashMap<&str, Vec<u32>> = HashMap::new();
    for (p, pk) in pks.iter().enumerate().filter(|(_, pk)| !pk.tags.numeric) {
        debug_assert!(cmdl_sketch::is_strictly_increasing(&pk.distinct_values));
        for value in &pk.distinct_values {
            postings.entry(value.as_str()).or_default().push(p as u32);
        }
    }
    let mut overlaps = vec![0u32; pks.len() * fks.len()];
    // Nothing to count (this also covers `pks` empty, a chunk size of 0).
    if postings.is_empty() {
        return overlaps;
    }
    for (row, fk) in overlaps.chunks_mut(pks.len()).zip(fks) {
        if fk.tags.numeric {
            continue;
        }
        debug_assert!(cmdl_sketch::is_strictly_increasing(&fk.distinct_values));
        for value in &fk.distinct_values {
            if let Some(sharing) = postings.get(value.as_str()) {
                for &p in sharing {
                    row[p as usize] += 1;
                }
            }
        }
    }
    overlaps
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
