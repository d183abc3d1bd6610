//! Catalog introspection.
//!
//! [`CmdlStats`] is a serializable summary of one catalog generation: lake
//! cardinalities, per-index sizes, delta-state pressure, and joint-model
//! status. It is computed from a pinned [`CatalogSnapshot`] (so a `/stats`
//! probe is consistent even while writers land batches) and surfaced by the
//! service layer's `Stats` request and `/stats` endpoint.

use serde::{Deserialize, Serialize};

use crate::discovery::Cmdl;
use crate::indexes::DeltaStats;
use crate::replicate::ReplicaStatus;
use crate::snapshot::CatalogSnapshot;

/// Live entry counts of every index in the catalog.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexSizes {
    /// Elements in the content inverted index.
    pub content: usize,
    /// Elements in the metadata inverted index.
    pub metadata: usize,
    /// Columns in the containment (LSH Ensemble) index.
    pub containment: usize,
    /// Columns in the solo-embedding ANN index.
    pub solo_ann: usize,
    /// Columns in the joint-embedding ANN index (0 until trained).
    pub joint_ann: usize,
    /// Joint embeddings installed across all elements (0 until trained).
    pub joint_embeddings: usize,
}

/// A consistent introspection summary of one catalog generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmdlStats {
    /// The generation the statistics describe.
    pub generation: u64,
    /// Live tables in the lake.
    pub tables: usize,
    /// Live documents in the lake.
    pub documents: usize,
    /// Live profiled columns.
    pub columns: usize,
    /// Whether the joint representation model is trained.
    pub joint_trained: bool,
    /// Live entry counts per index.
    pub index_sizes: IndexSizes,
    /// Pending-insert/tombstone counts per index.
    pub delta: DeltaStats,
    /// The largest delta fraction across the indexes — the signal the
    /// periodic-compaction policy thresholds on.
    pub delta_pressure: f64,
    /// Whether the serving layer's writer gate is wedged (mutations
    /// rejected, reads still served). Always `false` at the catalog layer —
    /// the service fills it in, since wedging is a gate property, not a
    /// snapshot property.
    pub wedged: bool,
    /// Whether a background reconfiguration is rebuilding this catalog.
    /// Like `wedged`, filled in by the service layer.
    pub reconfiguring: bool,
    /// Per-replica status on a replicated deployment. Always empty at the
    /// catalog layer — like `wedged`, the service fills it in, since
    /// replication is serving-layer wiring, not snapshot state.
    pub replicas: Vec<ReplicaStatus>,
}

impl CatalogSnapshot {
    /// Introspection statistics of this pinned generation.
    pub fn stats(&self) -> CmdlStats {
        let joint_ann = self
            .indexes
            .joint_ann
            .as_ref()
            .map(|ann| ann.len())
            .unwrap_or(0);
        CmdlStats {
            generation: self.generation,
            tables: self.profiled.lake.num_tables(),
            documents: self.profiled.lake.num_documents(),
            columns: self.profiled.column_ids().len(),
            joint_trained: self.joint.is_some(),
            index_sizes: IndexSizes {
                content: self.indexes.content.len(),
                metadata: self.indexes.metadata.len(),
                containment: self.indexes.containment.len(),
                solo_ann: self.indexes.solo_ann.len(),
                joint_ann,
                joint_embeddings: self.indexes.joint_embeddings.len(),
            },
            delta: self.indexes.delta_stats(),
            delta_pressure: self.indexes.delta_pressure(),
            wedged: false,
            reconfiguring: false,
            replicas: Vec::new(),
        }
    }
}

impl Cmdl {
    /// Introspection statistics of the current generation. Equivalent to
    /// `self.snapshot().stats()`.
    pub fn stats(&self) -> CmdlStats {
        self.snapshot().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CmdlConfig;
    use cmdl_datalake::{synth, Column, Table};

    fn system() -> Cmdl {
        let lake = synth::pharma::generate(&synth::PharmaConfig::tiny()).lake;
        Cmdl::build(lake, CmdlConfig::fast())
    }

    #[test]
    fn stats_reflect_lake_and_indexes() {
        let cmdl = system();
        let stats = cmdl.stats();
        assert_eq!(stats.generation, 0);
        assert_eq!(stats.tables, cmdl.profiled.lake.num_tables());
        assert_eq!(stats.documents, cmdl.profiled.lake.num_documents());
        assert_eq!(stats.columns, cmdl.profiled.column_ids().len());
        assert!(!stats.joint_trained);
        assert_eq!(stats.index_sizes.content, cmdl.indexes.content.len());
        assert_eq!(stats.index_sizes.joint_ann, 0);
        assert_eq!(stats.delta, crate::indexes::DeltaStats::default());
        assert_eq!(stats.delta_pressure, 0.0);
    }

    #[test]
    fn stats_track_mutations_and_training() {
        let mut cmdl = system();
        let before = cmdl.stats();
        cmdl.ingest_table(Table::new(
            "Stats_Probe",
            vec![Column::from_texts("V", ["a", "b", "c"])],
        ))
        .unwrap();
        cmdl.remove_table("Enzymes").unwrap();
        let after = cmdl.stats();
        assert!(after.generation > before.generation);
        assert_eq!(after.tables, before.tables);
        assert!(after.columns < before.columns + 1);
        // Either tombstones are visible or an auto-compaction folded them.
        assert!(after.delta_pressure > 0.0 || after.delta == crate::indexes::DeltaStats::default());

        cmdl.train_joint(None);
        let trained = cmdl.stats();
        assert!(trained.joint_trained);
        assert!(trained.index_sizes.joint_embeddings > 0);
        assert!(trained.index_sizes.joint_ann > 0);
    }

    #[test]
    fn stats_roundtrip_through_serde_json() {
        let stats = system().stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: CmdlStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn snapshot_stats_are_pinned() {
        let mut cmdl = system();
        let snap = cmdl.snapshot();
        cmdl.ingest_document(cmdl_datalake::Document::new(
            "note",
            "PubMed",
            "A short pharmacology note.",
        ))
        .unwrap();
        assert_eq!(snap.stats().documents + 1, cmdl.stats().documents);
        assert!(snap.stats().generation < cmdl.stats().generation);
    }
}
