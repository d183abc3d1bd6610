//! Hot-path parity suite: the fast layouts must be *bit-identical* to
//! their exact baselines.
//!
//! * Block-max-pruned BM25/LM top-k == the unpruned DAAT heap scan == the
//!   pre-optimization exhaustive HashMap scan, over randomized corpora
//!   including tombstoned documents and post-finalize delta tails.
//! * `i8` scalar-quantized ANN pre-rank + `f32` rerank == the pure-`f32`
//!   path, both at the index level and through the full cross-modal query
//!   path on the pharma lake (set `HOTPATH_SCALE=bench` for the
//!   benchmark-scale lake; the default is the fast tiny lake so plain
//!   `cargo test` stays quick).
//! * The sorted-merge join and union scores and the postings-based PK-FK
//!   sweep == test-local reference versions of the pairwise formulas built
//!   on `exact_containment`, through `execute`, on the pharma lake (same
//!   scale switch) and the tiny UK-open lake.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use cmdl::core::{
    CatalogSnapshot, Cmdl, CmdlConfig, DeProfile, PkFkLink, QueryBuilder, SignalWeights,
};
use cmdl::datalake::synth::{self, PharmaConfig, UkOpenConfig};
use cmdl::datalake::{DataLake, DeId};
use cmdl::index::ann::cosine_similarity;
use cmdl::index::{Bm25Params, InvertedIndex, ScoringFunction};
use cmdl::sketch::{exact_containment, numeric_overlap};
use cmdl::text::strsim::name_similarity;
use cmdl::text::BagOfWords;

/// Turn term indexes into a bag of words over the shared tiny vocabulary.
fn bow_of(terms: &[usize]) -> BagOfWords {
    BagOfWords::from_tokens(terms.iter().map(|t| VOCAB[t % VOCAB.len()]))
}

const VOCAB: [&str; 12] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    "lambda", "mu",
];

const SCORINGS: [ScoringFunction; 3] = [
    ScoringFunction::Bm25(Bm25Params { k1: 1.2, b: 0.75 }),
    ScoringFunction::Bm25(Bm25Params { k1: 0.6, b: 0.3 }),
    ScoringFunction::LmDirichlet { mu: 150.0 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pruned top-k (ids *and* scores) must equal the unpruned DAAT scan
    /// and the exhaustive reference exactly — including under tombstones
    /// and a delta tail, where the block bounds must stay conservative.
    #[test]
    fn blockmax_pruned_matches_exhaustive(
        docs in prop::collection::vec(prop::collection::vec(0usize..12, 1..24), 40..300),
        removals in prop::collection::vec(0usize..300, 0..25),
        delta in prop::collection::vec(prop::collection::vec(0usize..12, 1..16), 0..20),
        query in prop::collection::vec(0usize..12, 1..5),
        k in 1usize..12,
    ) {
        let mut idx = InvertedIndex::new();
        for (i, terms) in docs.iter().enumerate() {
            idx.add(i as u64, &bow_of(terms));
        }
        idx.finalize();
        for &r in &removals {
            // Unknown ids are no-ops, which is part of the contract.
            idx.remove(r as u64);
        }
        // Post-finalize adds land in the per-term delta tails.
        for (i, terms) in delta.iter().enumerate() {
            idx.add(10_000 + i as u64, &bow_of(terms));
        }
        let query = bow_of(&query);
        for scoring in SCORINGS {
            let pruned = idx.search_pruned(&query, k, scoring);
            let unpruned = idx.search_unpruned(&query, k, scoring);
            prop_assert_eq!(&pruned, &unpruned);
            let exhaustive = idx.search_exhaustive(&query, k, scoring);
            prop_assert_eq!(&pruned, &exhaustive);
        }
    }

    /// Compaction preserves the pruned/unpruned agreement (block metadata
    /// is rebuilt from scratch).
    #[test]
    fn blockmax_parity_survives_compaction(
        docs in prop::collection::vec(prop::collection::vec(0usize..12, 1..20), 150..400),
        removals in prop::collection::vec(0usize..400, 5..60),
        query in prop::collection::vec(0usize..12, 1..4),
        k in 1usize..10,
    ) {
        let mut idx = InvertedIndex::new();
        for (i, terms) in docs.iter().enumerate() {
            idx.add(i as u64, &bow_of(terms));
        }
        idx.finalize();
        for &r in &removals {
            idx.remove(r as u64);
        }
        idx.compact();
        let query = bow_of(&query);
        for scoring in SCORINGS {
            let pruned = idx.search_pruned(&query, k, scoring);
            let unpruned = idx.search_unpruned(&query, k, scoring);
            prop_assert_eq!(&pruned, &unpruned);
        }
    }
}

/// The pharma lake the quantization parity runs on: tiny by default, the
/// benchmark-scale lake under `HOTPATH_SCALE=bench` (the CI bench-smoke
/// job sets it; release builds make it cheap).
fn pharma_config() -> PharmaConfig {
    if std::env::var("HOTPATH_SCALE").as_deref() == Ok("bench") {
        PharmaConfig {
            num_drugs: 60,
            num_enzymes: 30,
            num_documents: 80,
            num_interactions: 120,
            num_synthetic_tables: 10,
            ..Default::default()
        }
    } else {
        PharmaConfig::tiny()
    }
}

/// `i8` pre-rank + `f32` rerank must return the identical top-k (ids and
/// scores) as the pure-`f32` path, across the whole cross-modal surface of
/// the pharma lake.
///
/// This is an *empirical* contract on the pinned lake/seed/config — scalar
/// quantization has no mathematical exactness guarantee; the rerank pool
/// (`ann_rerank_factor × top_k`) is what absorbs the ~1/127 per-row
/// quantization error in practice. If a legitimate future change to
/// embedding training or lake synthesis trips this assert with no ANN code
/// change, widen `ann_rerank_factor` here (and in the bench) rather than
/// weakening the equality.
#[test]
fn quantized_ann_matches_exact_on_pharma_lake() {
    let lake = synth::pharma::generate(&pharma_config()).lake;
    let exact_cfg = CmdlConfig {
        ann_quantize: false,
        ..CmdlConfig::fast()
    };
    let quant_cfg = CmdlConfig {
        ann_quantize: true,
        ann_rerank_factor: 4,
        ..CmdlConfig::fast()
    };
    let exact = Cmdl::build(lake.clone(), exact_cfg);
    let quant = Cmdl::build(lake, quant_cfg);
    let (snap_exact, snap_quant) = (exact.snapshot(), quant.snapshot());

    // Index-level parity: every profiled embedding queried against both
    // solo ANN indexes (identical trees — the seed and the insertion order
    // are the same — so any divergence is the pre-rank).
    let mut probes = 0usize;
    for (_, profile) in snap_exact.profiled.profiles.iter() {
        let a = snap_exact.indexes.solo_search(&profile.solo.content, 10);
        let b = snap_quant.indexes.solo_search(&profile.solo.content, 10);
        assert_eq!(a, b, "solo ANN diverged for {:?}", profile.id);
        probes += 1;
    }
    assert!(probes > 20, "expected a real probe workload, got {probes}");

    // Query-level parity: the blended cross-modal hits must match exactly
    // (the embedding signal is the only path through the ANN index).
    for doc in 0..snap_exact.profiled.lake.num_documents() {
        let query = QueryBuilder::cross_modal_doc(doc).top_k(8).build();
        let a = snap_exact.execute(&query).expect("exact");
        let b = snap_quant.execute(&query).expect("quantized");
        assert_eq!(a.hits, b.hits, "cross-modal hits diverged for doc {doc}");
    }
}

// ---------------------------------------------------------------------------
// Structured kernels: reference parity.
//
// The references below are the pairwise formulas as they stood before the
// merge and postings kernels: every column pair scored on its own, with
// containment from `exact_containment`'s hash sets. Ranking, tie-breaks and
// the greedy union matching are restated here so that only the kernels
// differ between the two sides.
// ---------------------------------------------------------------------------

/// Pairwise join score: `max` of the two hash-set containments, numeric
/// columns by range overlap.
fn reference_join_score(a: &DeProfile, b: &DeProfile) -> f64 {
    if a.tags.numeric && b.tags.numeric {
        return match (&a.numeric, &b.numeric) {
            (Some(na), Some(nb)) => numeric_overlap(na, nb),
            _ => 0.0,
        };
    }
    if a.tags.numeric != b.tags.numeric {
        return 0.0;
    }
    exact_containment(&a.distinct_values, &b.distinct_values)
        .max(exact_containment(&b.distinct_values, &a.distinct_values))
}

/// Every local join partner of `query` with a positive score, unsorted.
fn reference_join_partners(snap: &CatalogSnapshot, query: &DeProfile) -> Vec<(DeId, f64)> {
    if !query.tags.join_candidate {
        return Vec::new();
    }
    let profiled = &snap.profiled;
    profiled
        .column_ids()
        .iter()
        .filter_map(|&id| {
            let candidate = profiled.profile(id)?;
            if id == query.id
                || !candidate.tags.join_candidate
                || candidate.table_name == query.table_name
            {
                return None;
            }
            let score = reference_join_score(query, candidate);
            (score > 0.0).then_some((id, score))
        })
        .collect()
}

fn reference_joinable_column(
    snap: &CatalogSnapshot,
    column: DeId,
    top_k: usize,
) -> Vec<(DeId, u64)> {
    let query = snap.profiled.profile(column).expect("query column");
    let mut scored = reference_join_partners(snap, query);
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    scored.truncate(top_k);
    scored
        .into_iter()
        .map(|(id, s)| (id, s.to_bits()))
        .collect()
}

fn reference_joinable_table(
    snap: &CatalogSnapshot,
    table: &str,
    top_k: usize,
) -> Vec<(String, u64)> {
    let profiled = &snap.profiled;
    let mut best: HashMap<String, f64> = HashMap::new();
    for id in profiled.columns_of_table(table) {
        let query = profiled.profile(id).unwrap();
        for (other, score) in reference_join_partners(snap, query) {
            let other_table = profiled.profile(other).unwrap().table_name.clone().unwrap();
            let entry = best.entry(other_table).or_insert(0.0);
            if score > *entry {
                *entry = score;
            }
        }
    }
    let mut out: Vec<(String, f64)> = best.into_iter().collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    out.truncate(top_k);
    out.into_iter().map(|(t, s)| (t, s.to_bits())).collect()
}

/// The union ensemble of one column pair, containment from hash sets.
fn reference_union_score(a: &DeProfile, b: &DeProfile) -> f64 {
    let name = name_similarity(&a.name, &b.name);
    let containment = if a.tags.numeric || b.tags.numeric {
        0.0
    } else {
        exact_containment(&a.distinct_values, &b.distinct_values)
            .max(exact_containment(&b.distinct_values, &a.distinct_values))
    };
    let numeric = match (&a.numeric, &b.numeric) {
        (Some(na), Some(nb)) => numeric_overlap(na, nb),
        _ => 0.0,
    };
    let semantic = cosine_similarity(&a.solo.content, &b.solo.content).max(0.0);
    let values = [name, containment, numeric, semantic];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    let avg = values.iter().sum::<f64>() / values.len() as f64;
    0.7 * max + 0.3 * avg
}

/// `(table, score bits, matched column ids)` of the top unionable tables.
type UnionRow = (String, u64, Vec<(DeId, DeId)>);

fn reference_unionable(snap: &CatalogSnapshot, table: &str, top_k: usize) -> Vec<UnionRow> {
    let profiled = &snap.profiled;
    let query = profiled.columns_of_table(table);
    let mut candidates: HashMap<String, Vec<(DeId, DeId, f64)>> = HashMap::new();
    for &qcol in &query {
        let qprofile = profiled.profile(qcol).unwrap();
        for &ccol in profiled.column_ids() {
            let cprofile = profiled.profile(ccol).unwrap();
            let ctable = cprofile.table_name.clone().unwrap();
            if ctable == table {
                continue;
            }
            let score = reference_union_score(qprofile, cprofile);
            if score > 0.15 {
                candidates
                    .entry(ctable)
                    .or_default()
                    .push((qcol, ccol, score));
            }
        }
    }
    let mut out: Vec<UnionRow> = candidates
        .into_iter()
        .map(|(name, mut pairs)| {
            // Greedy maximal matching: heaviest pair first (stable on ties).
            pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
            let (mut left, mut right) = (HashSet::new(), HashSet::new());
            let mut matched = Vec::new();
            for (l, r, w) in pairs {
                if left.contains(&l) || right.contains(&r) {
                    continue;
                }
                left.insert(l);
                right.insert(r);
                matched.push((l, r, w));
            }
            let weight: f64 = matched.iter().map(|(_, _, w)| w).sum();
            let mapping = matched.into_iter().map(|(l, r, _)| (l, r)).collect();
            let denom = query.len().max(profiled.columns_of_table(&name).len()) as f64;
            (name, (weight / denom).clamp(0.0, 1.0).to_bits(), mapping)
        })
        .collect();
    let score = |row: &UnionRow| f64::from_bits(row.1);
    out.sort_by(|a, b| {
        score(b)
            .partial_cmp(&score(a))
            .unwrap()
            .then_with(|| a.0.cmp(&b.0))
    });
    out.truncate(top_k);
    out
}

/// The pairwise PK-FK sweep: every (PK, FK) pair scored on its own, textual
/// containment from hash sets.
fn reference_pkfk(
    snap: &CatalogSnapshot,
    config: &CmdlConfig,
    weights: (f64, f64, f64),
) -> Vec<PkFkLink> {
    let (w_containment, w_name, w_uniqueness) = weights;
    let profiled = &snap.profiled;
    let columns: Vec<&DeProfile> = profiled
        .column_ids()
        .iter()
        .filter_map(|id| profiled.profile(*id))
        .collect();
    let mut links = Vec::new();
    for pk in columns
        .iter()
        .filter(|p| p.tags.key_like && p.tags.join_candidate)
    {
        for fk in columns.iter().filter(|p| p.tags.join_candidate) {
            if pk.id == fk.id
                || pk.table_name == fk.table_name
                || pk.tags.numeric != fk.tags.numeric
            {
                continue;
            }
            let containment = if pk.tags.numeric {
                match (&fk.numeric, &pk.numeric) {
                    (Some(nf), Some(np)) if nf.range_contained_in(np) => 1.0,
                    (Some(nf), Some(np)) => numeric_overlap(nf, np),
                    _ => 0.0,
                }
            } else {
                exact_containment(&fk.distinct_values, &pk.distinct_values)
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
    links.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then_with(|| a.pk_name.cmp(&b.pk_name))
            .then_with(|| a.fk_name.cmp(&b.fk_name))
    });
    links
}

/// Bit-level identity of a PK-FK link.
fn link_bits(link: &PkFkLink) -> (DeId, DeId, u64, u64, u64, u64) {
    (
        link.pk,
        link.fk,
        link.score.to_bits(),
        link.containment.to_bits(),
        link.name_sim.to_bits(),
        link.uniqueness.to_bits(),
    )
}

/// Deep enough to return every hit of every structured query on these lakes.
const ALL: usize = 100_000;

/// Assert `execute` matches the references for every table's joinable and
/// unionable query, every join-candidate column's joinable-column query, and
/// PK-FK under default and re-weighted triples. Returns the number of
/// non-empty result lists compared.
fn assert_structured_parity(lake: DataLake, config: CmdlConfig) -> usize {
    let cmdl = Cmdl::build(lake, config.clone());
    let snap = cmdl.snapshot();
    let mut compared = 0usize;
    let tables: Vec<String> = snap
        .profiled
        .lake
        .tables()
        .iter()
        .map(|t| t.name.clone())
        .filter(|name| snap.profiled.lake.table(name).is_some())
        .collect();
    for table in &tables {
        let hits = snap
            .execute(&QueryBuilder::joinable(table.as_str()).top_k(ALL).build())
            .unwrap()
            .hits;
        let got: Vec<(String, u64)> = hits
            .iter()
            .map(|h| (h.label.clone(), h.score.to_bits()))
            .collect();
        assert_eq!(
            got,
            reference_joinable_table(&snap, table, ALL),
            "joinable {table}"
        );
        compared += usize::from(!got.is_empty());

        let hits = snap
            .execute(&QueryBuilder::unionable(table.as_str()).top_k(ALL).build())
            .unwrap()
            .hits;
        let got: Vec<UnionRow> = hits
            .iter()
            .map(|h| {
                let union = h.union.as_ref().expect("unionable hit carries its mapping");
                (h.label.clone(), h.score.to_bits(), union.id_mapping.clone())
            })
            .collect();
        assert_eq!(
            got,
            reference_unionable(&snap, table, ALL),
            "unionable {table}"
        );
        compared += usize::from(!got.is_empty());

        for id in snap.profiled.columns_of_table(table) {
            let profile = snap.profiled.profile(id).unwrap();
            if !profile.tags.join_candidate {
                continue;
            }
            let query = QueryBuilder::joinable_column(table.as_str(), profile.name.as_str())
                .top_k(ALL)
                .build();
            let got: Vec<(DeId, u64)> = snap
                .execute(&query)
                .unwrap()
                .hits
                .iter()
                .map(|h| (h.element.expect("column hit"), h.score.to_bits()))
                .collect();
            assert_eq!(
                got,
                reference_joinable_column(&snap, id, ALL),
                "joinable column {}",
                profile.qualified_name
            );
            compared += usize::from(!got.is_empty());
        }
    }

    let defaults = (
        config.pkfk_containment_weight,
        config.pkfk_name_weight,
        config.pkfk_uniqueness_weight,
    );
    for (triple, weights) in [
        (defaults, SignalWeights::default()),
        (
            (0.2, 0.7, 0.1),
            SignalWeights {
                containment: Some(0.2),
                name: Some(0.7),
                uniqueness: Some(0.1),
                ..Default::default()
            },
        ),
        (
            (1.0, 0.0, 0.0),
            SignalWeights {
                containment: Some(1.0),
                name: Some(0.0),
                uniqueness: Some(0.0),
                ..Default::default()
            },
        ),
    ] {
        let hits = snap
            .execute(&QueryBuilder::pkfk().weights(weights).top_k(ALL).build())
            .unwrap()
            .hits;
        let got: Vec<_> = hits
            .iter()
            .map(|h| link_bits(h.pkfk.as_ref().expect("pkfk hit carries its link")))
            .collect();
        let want: Vec<_> = reference_pkfk(&snap, &config, triple)
            .iter()
            .map(link_bits)
            .collect();
        assert_eq!(got, want, "pkfk weights {triple:?}");
        compared += usize::from(!got.is_empty());
    }
    compared
}

#[test]
fn structured_kernels_match_pairwise_reference_on_pharma_lake() {
    let lake = synth::pharma::generate(&pharma_config()).lake;
    let compared = assert_structured_parity(lake, CmdlConfig::fast());
    assert!(
        compared > 20,
        "expected a real workload, compared {compared} lists"
    );
}

#[test]
fn structured_kernels_match_pairwise_reference_on_ukopen_lake() {
    let lake = synth::ukopen::generate(&UkOpenConfig::tiny()).lake;
    let compared = assert_structured_parity(lake, CmdlConfig::fast());
    assert!(
        compared > 10,
        "expected a real workload, compared {compared} lists"
    );
}
