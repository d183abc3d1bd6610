//! Workspace-level property-based tests over the core data structures and
//! invariants (proptest).

mod common;

use std::collections::BTreeSet;

use proptest::prelude::*;

use cmdl::core::{Cmdl, CmdlConfig, DeProfile, Profiler, SearchMode, ValueIndex};
use cmdl::datalake::{Column, DataLake, DeId, Document, Table};
use cmdl::eval::{precision_at_k, r_precision, recall_at_k};
use cmdl::index::{InvertedIndex, ScoringFunction, TopK};
use cmdl::nn::{triplet_loss, Matrix, TripletBatch};
use cmdl::sketch::{
    exact_containment, exact_jaccard, overlap_containments, sorted_containments, MinHasher,
};
use cmdl::text::{BagOfWords, Pipeline, PipelineConfig};

fn word_vec() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{2,8}", 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MinHash containment estimates stay in [0, 1] and a true subset's
    /// estimated containment in its superset is high.
    #[test]
    fn minhash_containment_bounds(words in prop::collection::vec("[a-z]{2,8}", 20..60)) {
        let hasher = MinHasher::new(256, 7);
        let set: BTreeSet<String> = words.iter().cloned().collect();
        prop_assume!(set.len() >= 10);
        let subset: Vec<String> = set.iter().take(set.len() / 2).cloned().collect();
        let sig_subset = hasher.signature(subset.iter());
        let sig_full = hasher.signature(set.iter());
        let c = sig_subset.containment_in(&sig_full);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(c > 0.5, "subset containment estimate too low: {c}");
    }

    /// The Jaccard estimate from MinHash is within 0.25 of the exact Jaccard
    /// for reasonably sized sets (128 hashes).
    #[test]
    fn minhash_jaccard_estimate_close(a in word_vec(), b in word_vec()) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let hasher = MinHasher::new(128, 11);
        let sa: BTreeSet<String> = a.iter().cloned().collect();
        let sb: BTreeSet<String> = b.iter().cloned().collect();
        let sig_a = hasher.signature(sa.iter());
        let sig_b = hasher.signature(sb.iter());
        let exact = exact_jaccard(&sa.iter().cloned().collect::<Vec<_>>(), &sb.iter().cloned().collect::<Vec<_>>());
        let estimate = sig_a.jaccard(&sig_b);
        prop_assert!((estimate - exact).abs() < 0.25, "exact {exact} vs estimate {estimate}");
        prop_assert!((0.0..=1.0).contains(&estimate));
    }

    /// Exact containment is within [0, 1], and a set is always fully
    /// contained in any superset of itself.
    #[test]
    fn containment_invariants(words in word_vec(), extra in word_vec()) {
        prop_assume!(!words.is_empty());
        let mut superset = words.clone();
        superset.extend(extra.clone());
        let c = exact_containment(&words, &superset);
        prop_assert!((c - 1.0).abs() < 1e-12);
        let any = exact_containment(&words, &extra);
        prop_assert!((0.0..=1.0).contains(&any));
    }

    /// The sorted-merge kernel's two containments equal `exact_containment`
    /// in both directions, bit for bit, on sorted distinct sets: random
    /// pairs (either side may be empty), equal sets, a subset against its
    /// superset, and disjoint sets. Short words over a small alphabet (with
    /// a two-byte letter and the empty string) make overlaps common.
    #[test]
    fn sorted_containments_match_exact(
        a in prop::collection::vec("[abcZé]{0,3}", 0..30),
        b in prop::collection::vec("[abcZé]{0,3}", 0..30),
    ) {
        let sorted = |words: &[String]| -> Vec<String> {
            words.iter().cloned().collect::<BTreeSet<String>>().into_iter().collect()
        };
        let (a, b) = (sorted(&a), sorted(&b));
        let subset: Vec<String> = a.iter().step_by(2).cloned().collect();
        let disjoint: Vec<String> = b.iter().filter(|w| a.binary_search(w).is_err()).cloned().collect();
        let empty: Vec<String> = Vec::new();
        for (x, y) in [(&a, &b), (&a, &a), (&subset, &a), (&a, &disjoint), (&empty, &a), (&empty, &empty)] {
            let (xy, yx) = sorted_containments(x, y);
            prop_assert_eq!(xy.to_bits(), exact_containment(x, y).to_bits());
            prop_assert_eq!(yx.to_bits(), exact_containment(y, x).to_bits());
        }
    }

    /// The value index's overlap counts equal the merge intersection behind
    /// `sorted_containments`, slot by slot, and give the same containments
    /// bit for bit: for every indexed column as the query (a probe by value
    /// ids), for a foreign column the index does not hold (a probe by
    /// dictionary lookup), and again after one column is removed. The lake
    /// holds random columns plus an empty one, an equal copy, a subset and
    /// a disjoint column of the first.
    #[test]
    fn value_index_overlaps_match_merge(
        columns in prop::collection::vec(prop::collection::vec("[abcZé]{1,3}", 0..20), 1..5),
        foreign in prop::collection::vec("[abcZé]{1,3}", 0..20),
        gone in 0usize..16,
    ) {
        let profiler = Profiler::new(&CmdlConfig::fast());
        let profile = |id: u64, values: &[String]| -> DeProfile {
            let column = Column::from_texts("value", values.iter().cloned());
            profiler.profile_column(DeId(id), &format!("T{id}"), &column, values.len())
        };
        let first = &columns[0];
        let subset: Vec<String> = first.iter().step_by(2).cloned().collect();
        let disjoint: Vec<String> = foreign.iter().filter(|w| !first.contains(w)).cloned().collect();
        let mut lake: Vec<DeProfile> = columns
            .iter()
            .chain([&Vec::new(), first, &subset, &disjoint])
            .enumerate()
            .map(|(i, values)| profile(i as u64, values))
            .collect();
        prop_assert!(lake.iter().all(|p| !p.tags.numeric));
        let foreign = profile(1_000, &foreign);

        let check = |index: &ValueIndex, lake: &[DeProfile]| -> Result<(), TestCaseError> {
            let ids: Vec<DeId> = lake.iter().map(|p| p.id).collect();
            prop_assert_eq!(index.column_ids(), ids.as_slice());
            for query in lake.iter().chain([&foreign]) {
                let overlaps = index.overlaps(query);
                prop_assert_eq!(overlaps.len(), lake.len());
                let values: BTreeSet<&String> = query.distinct_values.iter().collect();
                for (column, &overlap) in lake.iter().zip(&overlaps) {
                    let merged = column.distinct_values.iter().filter(|v| values.contains(v)).count();
                    prop_assert_eq!(overlap as usize, merged);
                    let (qc, cq) = overlap_containments(
                        overlap as usize,
                        query.distinct_values.len(),
                        column.distinct_values.len(),
                    );
                    let (want_qc, want_cq) =
                        sorted_containments(&query.distinct_values, &column.distinct_values);
                    prop_assert_eq!(qc.to_bits(), want_qc.to_bits());
                    prop_assert_eq!(cq.to_bits(), want_cq.to_bits());
                }
            }
            Ok(())
        };

        let mut index = ValueIndex::build(&lake);
        check(&index, &lake)?;
        let removed = lake.remove(gone % lake.len());
        index.remove(std::slice::from_ref(&removed));
        check(&index, &lake)?;
    }

    /// The NLP pipeline never panics and produces only non-empty lowercase
    /// terms without stop words.
    #[test]
    fn pipeline_output_well_formed(text in ".{0,300}") {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let bow = pipeline.process(&text);
        for (term, count) in bow.iter() {
            prop_assert!(!term.is_empty());
            prop_assert!(count > 0);
            prop_assert_eq!(term.to_lowercase(), term.to_string());
        }
    }

    /// BM25 scores are positive, and the top-1 result for a query equal to an
    /// indexed document is that document.
    #[test]
    fn bm25_self_retrieval(docs in prop::collection::vec(word_vec(), 1..8)) {
        let mut index = InvertedIndex::new();
        let bows: Vec<BagOfWords> = docs
            .iter()
            .map(|words| BagOfWords::from_tokens(words.iter().cloned()))
            .collect();
        for (i, bow) in bows.iter().enumerate() {
            index.add(i as u64, bow);
        }
        for (i, bow) in bows.iter().enumerate() {
            if bow.is_empty() { continue; }
            let results = index.search(bow, docs.len());
            prop_assert!(!results.is_empty());
            prop_assert!(results.iter().all(|(_, s)| *s > 0.0));
            // The document itself must appear in the results.
            prop_assert!(results.iter().any(|(id, _)| *id == i as u64));
        }
    }

    /// TopK returns at most k results, sorted by score descending.
    #[test]
    fn topk_sorted_and_bounded(scores in prop::collection::vec(0.0f64..1.0, 0..50), k in 0usize..10) {
        let mut topk = TopK::new(k);
        for (i, s) in scores.iter().enumerate() {
            topk.push(i as u64, *s);
        }
        let out = topk.into_sorted_vec();
        prop_assert!(out.len() <= k.min(scores.len()));
        for w in out.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    /// The triplet loss is always non-negative and zero when positive and
    /// anchor coincide while the negative is far away.
    #[test]
    fn triplet_loss_nonnegative(
        anchor in prop::collection::vec(-1.0f32..1.0, 4),
        positive in prop::collection::vec(-1.0f32..1.0, 4),
        negative in prop::collection::vec(-1.0f32..1.0, 4),
        margin in 0.0f32..1.0,
    ) {
        let batch = TripletBatch {
            anchors: Matrix::from_rows(std::slice::from_ref(&anchor)),
            positives: Matrix::from_rows(&[positive]),
            negatives: Matrix::from_rows(&[negative]),
        };
        prop_assert!(triplet_loss(&batch, margin) >= 0.0);
        let ideal = TripletBatch {
            anchors: Matrix::from_rows(std::slice::from_ref(&anchor)),
            positives: Matrix::from_rows(std::slice::from_ref(&anchor)),
            negatives: Matrix::from_rows(&[anchor.iter().map(|x| x + 100.0).collect()]),
        };
        prop_assert_eq!(triplet_loss(&ideal, margin), 0.0);
    }

    /// Estimator parity: the one-permutation (densified) scheme and the
    /// classic k-independent scheme estimate the same Jaccard similarity
    /// and containment, each within tolerance of the exact value.
    #[test]
    fn oph_and_classic_estimates_agree(a in prop::collection::vec("[a-z]{2,6}", 10..60), b in prop::collection::vec("[a-z]{2,6}", 10..60)) {
        let sa: BTreeSet<String> = a.iter().cloned().collect();
        let sb: BTreeSet<String> = b.iter().cloned().collect();
        prop_assume!(sa.len() >= 5 && sb.len() >= 5);
        let classic = MinHasher::new(512, 77);
        let oph = MinHasher::one_permutation(512, 77);
        let exact_j = exact_jaccard(
            &sa.iter().cloned().collect::<Vec<_>>(),
            &sb.iter().cloned().collect::<Vec<_>>(),
        );
        let exact_c = exact_containment(
            &sa.iter().cloned().collect::<Vec<_>>(),
            &sb.iter().cloned().collect::<Vec<_>>(),
        );
        let jc = classic.signature(sa.iter()).jaccard(&classic.signature(sb.iter()));
        let jo = oph.signature(sa.iter()).jaccard(&oph.signature(sb.iter()));
        prop_assert!((jc - exact_j).abs() < 0.12, "classic jaccard {jc} vs exact {exact_j}");
        prop_assert!((jo - exact_j).abs() < 0.12, "oph jaccard {jo} vs exact {exact_j}");
        prop_assert!((jc - jo).abs() < 0.2, "schemes diverge: classic {jc} vs oph {jo}");
        let cc = classic.signature(sa.iter()).containment_in(&classic.signature(sb.iter()));
        let co = oph.signature(sa.iter()).containment_in(&oph.signature(sb.iter()));
        prop_assert!((cc - exact_c).abs() < 0.25, "classic containment {cc} vs exact {exact_c}");
        prop_assert!((co - exact_c).abs() < 0.25, "oph containment {co} vs exact {exact_c}");
    }

    /// The heap-based top-k BM25 search returns the same ranked set as
    /// exhaustive scoring: same length, same scores in the same order, and
    /// every returned id carries its exhaustive score.
    #[test]
    fn bm25_heap_matches_exhaustive(docs in prop::collection::vec(word_vec(), 2..10), k in 1usize..8) {
        let mut index = InvertedIndex::new();
        for (i, words) in docs.iter().enumerate() {
            index.add(i as u64, &BagOfWords::from_tokens(words.iter().cloned()));
        }
        index.finalize();
        for words in &docs {
            if words.is_empty() { continue; }
            let query = BagOfWords::from_tokens(words.iter().cloned());
            for scoring in [ScoringFunction::default(), ScoringFunction::LmDirichlet { mu: 200.0 }] {
                let heap = index.search_with(&query, k, scoring);
                let exhaustive = index.search_exhaustive(&query, k, scoring);
                prop_assert_eq!(heap.len(), exhaustive.len());
                for (h, e) in heap.iter().zip(exhaustive.iter()) {
                    prop_assert!((h.1 - e.1).abs() < 1e-9, "score order diverges: {:?} vs {:?}", h, e);
                }
                // Ids may legitimately differ only within exact ties; every
                // returned id must carry its exhaustive score.
                let full = index.search_exhaustive(&query, docs.len(), scoring);
                for (id, score) in &heap {
                    let reference = full.iter().find(|(fid, _)| fid == id);
                    prop_assert!(reference.is_some(), "id {} missing from exhaustive scoring", id);
                    prop_assert!((reference.unwrap().1 - score).abs() < 1e-9);
                }
            }
        }
    }

    /// Precision/recall metrics stay in [0, 1] and R-precision equals
    /// precision at |expected|.
    #[test]
    fn metric_bounds(ranked in word_vec(), expected in word_vec()) {
        let expected: BTreeSet<String> = expected.into_iter().collect();
        for k in [1usize, 3, 10] {
            let p = precision_at_k(&ranked, &expected, k);
            let r = recall_at_k(&ranked, &expected, k);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!((0.0..=1.0).contains(&r));
        }
        if !expected.is_empty() {
            let rp = r_precision(&ranked, &expected);
            prop_assert!((0.0..=1.0).contains(&rp));
            // R-precision divides by |expected|; precision@|expected| divides
            // by the retrieved count, so they coincide only when enough
            // answers were returned and never exceed each other otherwise.
            if ranked.len() >= expected.len() {
                prop_assert!((rp - precision_at_k(&ranked, &expected, expected.len())).abs() < 1e-12);
            } else {
                prop_assert!(rp <= precision_at_k(&ranked, &expected, expected.len()) + 1e-12);
            }
        }
    }
}

/// A random miniature lake: tables of random textual columns over a small
/// shared vocabulary, plus a few free-text documents.
fn mini_tables() -> impl Strategy<Value = Vec<Vec<Vec<String>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec("[a-z]{3,7}", 3..8), 1..3),
        2..5,
    )
}

fn mini_docs() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(prop::collection::vec("[a-z]{3,8}", 4..12), 1..4)
}

fn build_mini_lake(tables: &[Table], docs: &[Document]) -> DataLake {
    let mut lake = DataLake::new("mini");
    for t in tables {
        lake.add_table(t.clone());
    }
    for d in docs {
        lake.add_document(d.clone());
    }
    lake
}

fn mini_config() -> CmdlConfig {
    CmdlConfig {
        // Refresh the IDF cache on every mutation: with a zero staleness
        // bound, BM25 scores under ingestion are *exact*, so the delta path
        // must match the batch build even before compaction.
        idf_refresh_ratio: 0.0,
        ..CmdlConfig::fast()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of table/document ingestion and removal, applied to
    /// a seed subset of a random miniature lake, yields the same discovery
    /// results as a fresh batch build of the surviving elements: BM25
    /// results agree even before compaction (zero IDF staleness bound,
    /// tombstones skipped exactly), and the full discovery surface agrees
    /// after compaction.
    #[test]
    fn interleaved_ingest_matches_batch_build(
        raw_tables in mini_tables(),
        raw_docs in mini_docs(),
        mask in 0u32..u32::MAX,
    ) {
        let tables: Vec<Table> = raw_tables
            .iter()
            .enumerate()
            .map(|(ti, columns)| {
                Table::new(
                    format!("t{ti}"),
                    columns
                        .iter()
                        .enumerate()
                        .map(|(ci, values)| Column::from_texts(format!("c{ci}"), values.clone()))
                        .collect(),
                )
            })
            .collect();
        let docs: Vec<Document> = raw_docs
            .iter()
            .enumerate()
            .map(|(di, words)| Document::new(format!("d{di}"), "synthetic", words.join(" ")))
            .collect();

        // Seed subset sizes and removal sets, all derived from `mask`.
        let table_seed = 1 + (mask as usize) % tables.len();
        let doc_seed = ((mask >> 4) as usize) % (docs.len() + 1);
        let removed_tables: Vec<usize> = (0..tables.len())
            .filter(|i| (mask >> (8 + i)) & 1 == 1)
            .take(tables.len() - 1) // keep at least one table
            .collect();
        let removed_docs: Vec<usize> = (0..docs.len())
            .filter(|i| (mask >> (16 + i)) & 1 == 1)
            .collect();

        // Incremental: seed build, interleaved ingest, then removals.
        let config = mini_config();
        let mut incremental = Cmdl::build(
            build_mini_lake(&tables[..table_seed], &docs[..doc_seed]),
            config.clone(),
        );
        let mut pending_tables = tables[table_seed..].iter();
        let mut pending_docs = docs[doc_seed..].iter();
        loop {
            match (pending_tables.next(), pending_docs.next()) {
                (None, None) => break,
                (t, d) => {
                    if let Some(t) = t {
                        incremental.ingest_table(t.clone()).unwrap();
                    }
                    if let Some(d) = d {
                        incremental.ingest_document(d.clone()).unwrap();
                    }
                }
            }
        }
        for &ti in &removed_tables {
            incremental.remove_table(&format!("t{ti}")).unwrap();
        }
        for &di in &removed_docs {
            incremental.remove_document(di).unwrap();
        }

        // Batch build over the survivors only.
        let surviving_tables: Vec<Table> = tables
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed_tables.contains(i))
            .map(|(_, t)| t.clone())
            .collect();
        let surviving_docs: Vec<Document> = docs
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed_docs.contains(i))
            .map(|(_, d)| d.clone())
            .collect();
        let batch = Cmdl::build(build_mini_lake(&surviving_tables, &surviving_docs), config);

        prop_assert_eq!(batch.profiled.len(), incremental.profiled.len());

        // Query workload: vocabulary drawn from the surviving data.
        let mut queries: Vec<String> = surviving_tables
            .iter()
            .take(2)
            .flat_map(|t| t.columns.first())
            .flat_map(|c| c.values.first())
            .map(|v| v.as_text())
            .collect();
        queries.extend(surviving_docs.first().map(|d| d.text.clone()));

        // Tombstone correctness + exact BM25 parity *before* compaction.
        for (qi, query) in queries.iter().enumerate() {
            let delta: Vec<(String, f64)> = incremental
                .content_search(query, SearchMode::All, 10)
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            for (label, _) in &delta {
                for &ti in &removed_tables {
                    prop_assert!(
                        !label.starts_with(&format!("t{ti}.")),
                        "tombstoned column surfaced: {label}"
                    );
                }
                for &di in &removed_docs {
                    prop_assert!(label != &format!("d{di}"), "tombstoned document surfaced");
                }
            }
            let fresh: Vec<(String, f64)> = batch
                .content_search(query, SearchMode::All, 10)
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            common::assert_result_parity(&format!("pre-compact content[{qi}]"), &fresh, &delta);
        }

        // Full-surface parity after compaction.
        incremental.compact();
        for (qi, query) in queries.iter().enumerate() {
            let delta: Vec<(String, f64)> = incremental
                .content_search(query, SearchMode::All, 10)
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            let fresh: Vec<(String, f64)> = batch
                .content_search(query, SearchMode::All, 10)
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            common::assert_result_parity(&format!("post-compact content[{qi}]"), &fresh, &delta);

            let delta_cm: Vec<(String, f64)> = incremental
                .cross_modal_search_text(query, 5)
                .unwrap()
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            let fresh_cm: Vec<(String, f64)> = batch
                .cross_modal_search_text(query, 5)
                .unwrap()
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            common::assert_result_parity(&format!("cross_modal[{qi}]"), &fresh_cm, &delta_cm);
        }
        for table in &surviving_tables {
            let delta: Vec<(String, f64)> = incremental
                .joinable(&table.name, 5)
                .unwrap()
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            let fresh: Vec<(String, f64)> = batch
                .joinable(&table.name, 5)
                .unwrap()
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            common::assert_result_parity(&format!("joinable[{}]", table.name), &fresh, &delta);
        }
    }
}
