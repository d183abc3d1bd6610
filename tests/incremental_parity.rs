//! Incremental-ingestion parity: building the pharma lake in one batch and
//! building it as a seed subset plus `ingest_*` deltas (with a final
//! `compact()`) must yield identical discovery results. The structured
//! surfaces (joinable, unionable, PK-FK) read the value postings index,
//! which every ingest and removal updates in place, so they must also agree
//! before any compaction and after `Cmdl::open` reloads the durable
//! directory.
//!
//! This is the guard that keeps the delta path honest: every index delta
//! (BM25 postings with lazy IDF, LSH pending inserts and tombstones, ANN
//! delta tails, document-frequency flip patching) must fold back into a
//! catalog that is indistinguishable from a batch build over the same
//! elements. The CI `incremental-parity` job runs this test at bench scale
//! (`PARITY_SCALE=bench`); the default scale keeps it cheap enough for the
//! tier-1 suite.
//!
//! Results are compared modulo reordering within exact score ties (element
//! ids differ between the two systems, so equal-scored elements may be
//! enumerated in a different order; see `common::assert_result_parity`).

mod common;

use cmdl::core::{Cmdl, CmdlConfig, SearchMode};
use cmdl::datalake::{synth, DataLake, Document, Table};
use common::assert_result_parity;

fn parity_config() -> synth::PharmaConfig {
    if std::env::var("PARITY_SCALE").as_deref() == Ok("bench") {
        synth::PharmaConfig {
            num_drugs: 60,
            num_enzymes: 30,
            num_documents: 80,
            num_interactions: 120,
            num_synthetic_tables: 10,
            ..Default::default()
        }
    } else {
        synth::PharmaConfig::tiny()
    }
}

/// The full pharma lake plus its raw tables and documents (for replay).
fn full_lake() -> (DataLake, Vec<Table>, Vec<Document>) {
    let lake = synth::pharma::generate(&parity_config()).lake;
    let tables = lake.tables().to_vec();
    let documents = lake.documents().to_vec();
    (lake, tables, documents)
}

/// A lake containing `tables` then `documents`, in order.
fn lake_of(name: &str, tables: &[Table], documents: &[Document]) -> DataLake {
    let mut lake = DataLake::new(name);
    for t in tables {
        lake.add_table(t.clone());
    }
    for d in documents {
        lake.add_document(d.clone());
    }
    lake
}

/// Deterministic query workload derived from the raw lake data (identical
/// strings for both systems, independent of either system's ids).
fn query_workload(tables: &[Table], documents: &[Document]) -> Vec<String> {
    let mut queries = Vec::new();
    for table in tables.iter().take(6) {
        for column in table.columns.iter().take(2) {
            if let Some(v) = column.values.first() {
                let text = v.as_text();
                if !text.is_empty() {
                    queries.push(text);
                }
            }
        }
    }
    for doc in documents.iter().take(6) {
        queries.push(doc.title.clone());
        queries.push(doc.text.chars().take(60).collect());
    }
    queries.push("drug enzyme inhibitor target".to_string());
    queries
}

/// Collect every discovery surface of a system as comparable
/// `(tag, results)` pairs.
fn discovery_surface(cmdl: &Cmdl, queries: &[String]) -> Vec<(String, Vec<(String, f64)>)> {
    let mut surfaces = Vec::new();
    for (qi, query) in queries.iter().enumerate() {
        for (mode, mode_name) in [
            (SearchMode::All, "all"),
            (SearchMode::Text, "text"),
            (SearchMode::Tables, "tables"),
        ] {
            let results = cmdl
                .content_search(query, mode, 10)
                .into_iter()
                .map(|r| (r.label, r.score))
                .collect();
            surfaces.push((format!("content[{qi}][{mode_name}]"), results));
        }
        let results = cmdl
            .cross_modal_search_text(query, 5)
            .unwrap()
            .into_iter()
            .map(|r| (r.label, r.score))
            .collect();
        surfaces.push((format!("cross_modal[{qi}]"), results));
    }
    surfaces.extend(structured_surface(cmdl));
    surfaces
}

/// The joinable, unionable and PK-FK results of a system, over every live
/// table.
fn structured_surface(cmdl: &Cmdl) -> Vec<(String, Vec<(String, f64)>)> {
    let mut surfaces = Vec::new();
    let mut table_names: Vec<String> = cmdl
        .profiled
        .lake
        .tables()
        .iter()
        .enumerate()
        .filter(|&(i, _)| !cmdl.profiled.lake.is_table_removed(i))
        .map(|(_, t)| t.name.clone())
        .collect();
    table_names.sort();
    for name in &table_names {
        let joins = cmdl
            .joinable(name, 5)
            .unwrap()
            .into_iter()
            .map(|r| (r.label, r.score))
            .collect();
        surfaces.push((format!("joinable[{name}]"), joins));
        let unions = cmdl
            .unionable(name, 5)
            .unwrap()
            .into_iter()
            .map(|u| (u.table, u.score))
            .collect();
        surfaces.push((format!("unionable[{name}]"), unions));
    }
    let pkfk = cmdl
        .pkfk()
        .unwrap()
        .into_iter()
        .map(|l| (format!("{}->{}", l.pk_name, l.fk_name), l.score))
        .collect();
    surfaces.push(("pkfk".to_string(), pkfk));
    surfaces
}

fn assert_systems_agree(batch: &Cmdl, incremental: &Cmdl, queries: &[String]) {
    assert_surfaces_agree(
        "",
        &discovery_surface(batch, queries),
        &discovery_surface(incremental, queries),
    );
}

fn assert_structured_agree(stage: &str, batch: &Cmdl, incremental: &Cmdl) {
    assert_surfaces_agree(
        stage,
        &structured_surface(batch),
        &structured_surface(incremental),
    );
}

type Surface = Vec<(String, Vec<(String, f64)>)>;

fn assert_surfaces_agree(stage: &str, batch: &Surface, incremental: &Surface) {
    assert_eq!(batch.len(), incremental.len(), "{stage}: surface sizes");
    for ((tag_a, results_a), (tag_b, results_b)) in batch.iter().zip(incremental.iter()) {
        assert_eq!(tag_a, tag_b);
        assert_result_parity(&format!("{stage}{tag_a}"), results_a, results_b);
    }
}

/// A fresh scratch directory for a durable catalog.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cmdl-incremental-parity-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A configuration that never compacts on its own, so the catalog keeps
/// every delta until the test says otherwise.
fn uncompacted_config() -> CmdlConfig {
    CmdlConfig {
        compaction_ratio: f64::INFINITY,
        ..CmdlConfig::fast()
    }
}

/// Reload a durable catalog from its directory (segment plus WAL replay).
fn reopen(dir: &std::path::Path) -> Cmdl {
    Cmdl::open(dir, uncompacted_config(), || {
        panic!("the catalog directory must load")
    })
    .unwrap()
}

#[test]
fn batch_and_incremental_builds_agree() {
    let (lake, tables, documents) = full_lake();
    let config = CmdlConfig::fast();
    let batch = Cmdl::build(lake, config.clone());

    // Seed with ~90% of the lake, ingest the remainder element by element.
    let table_seed = (tables.len() * 9).div_ceil(10);
    let doc_seed = (documents.len() * 9).div_ceil(10);
    let mut incremental = Cmdl::build(
        lake_of("pharma-seed", &tables[..table_seed], &documents[..doc_seed]),
        config,
    );
    for table in &tables[table_seed..] {
        incremental.ingest_table(table.clone()).unwrap();
    }
    for doc in &documents[doc_seed..] {
        incremental.ingest_document(doc.clone()).unwrap();
    }
    incremental.compact();

    assert_eq!(
        batch.profiled.len(),
        incremental.profiled.len(),
        "element counts must agree"
    );
    assert_eq!(
        batch.profiled.doc_df.num_docs(),
        incremental.profiled.doc_df.num_docs(),
        "corpus statistics must agree"
    );
    let queries = query_workload(&tables, &documents);
    assert_systems_agree(&batch, &incremental, &queries);
}

#[test]
fn removal_then_compact_matches_batch_of_survivors() {
    let (lake, tables, documents) = full_lake();
    let config = CmdlConfig::fast();

    // Incremental: build everything, then remove the last two tables and the
    // last two documents.
    let mut incremental = Cmdl::build(lake, config.clone());
    let removed_tables: Vec<String> = tables
        .iter()
        .rev()
        .take(2)
        .map(|t| t.name.clone())
        .collect();
    for name in &removed_tables {
        incremental.remove_table(name).unwrap();
    }
    for index in (documents.len() - 2..documents.len()).rev() {
        incremental.remove_document(index).unwrap();
    }
    incremental.compact();

    // Batch: build only the survivors.
    let surviving_tables: Vec<Table> = tables
        .iter()
        .filter(|t| !removed_tables.contains(&t.name))
        .cloned()
        .collect();
    let surviving_docs: Vec<Document> = documents[..documents.len() - 2].to_vec();
    let batch = Cmdl::build(
        lake_of("pharma-survivors", &surviving_tables, &surviving_docs),
        config,
    );

    assert_eq!(batch.profiled.len(), incremental.profiled.len());
    let queries = query_workload(&surviving_tables, &surviving_docs);
    assert_systems_agree(&batch, &incremental, &queries);
}

#[test]
fn structured_results_agree_after_ingest_before_compaction_and_after_reopen() {
    let (lake, tables, documents) = full_lake();
    let batch = Cmdl::build(lake, CmdlConfig::fast());

    let table_seed = (tables.len() * 9).div_ceil(10);
    let doc_seed = (documents.len() * 9).div_ceil(10);
    let dir = scratch_dir("ingest");
    let seed_lake = lake_of("pharma-seed", &tables[..table_seed], &documents[..doc_seed]);
    let mut incremental = Cmdl::open(&dir, uncompacted_config(), || seed_lake).unwrap();
    for table in &tables[table_seed..] {
        incremental.ingest_table(table.clone()).unwrap();
    }
    for doc in &documents[doc_seed..] {
        incremental.ingest_document(doc.clone()).unwrap();
    }
    assert_structured_agree("ingest, uncompacted: ", &batch, &incremental);

    drop(incremental);
    let reopened = reopen(&dir);
    assert_eq!(batch.profiled.len(), reopened.profiled.len());
    assert_structured_agree("ingest, reopened: ", &batch, &reopened);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn structured_results_agree_after_removal_before_compaction_and_after_reopen() {
    let (lake, tables, documents) = full_lake();
    // A table from the middle as well as the last one, so the removal
    // moves the slots of every later column.
    let removed_tables: Vec<String> = [&tables[1], &tables[tables.len() - 1]]
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let surviving_tables: Vec<Table> = tables
        .iter()
        .filter(|t| !removed_tables.contains(&t.name))
        .cloned()
        .collect();
    let surviving_docs: Vec<Document> = documents[..documents.len() - 2].to_vec();
    let batch = Cmdl::build(
        lake_of("pharma-survivors", &surviving_tables, &surviving_docs),
        CmdlConfig::fast(),
    );

    let dir = scratch_dir("removal");
    let mut incremental = Cmdl::open(&dir, uncompacted_config(), || lake).unwrap();
    for name in &removed_tables {
        incremental.remove_table(name).unwrap();
    }
    for index in (documents.len() - 2..documents.len()).rev() {
        incremental.remove_document(index).unwrap();
    }
    assert_structured_agree("removal, uncompacted: ", &batch, &incremental);

    drop(incremental);
    let reopened = reopen(&dir);
    assert_eq!(batch.profiled.len(), reopened.profiled.len());
    assert_structured_agree("removal, reopened: ", &batch, &reopened);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
