//! # cmdl-sketch
//!
//! Similarity sketches used by the CMDL profiler (paper Section 3):
//!
//! * [`minhash`] — minwise hashing signatures for estimating Jaccard
//!   similarity and Jaccard *set containment* between discoverable elements.
//! * [`lsh`] — a banded Locality Sensitive Hashing index over MinHash
//!   signatures for approximate Jaccard-similarity search.
//! * [`lshensemble`] — the LSH Ensemble structure of Zhu et al. (VLDB 2016):
//!   signatures are partitioned by set cardinality and each partition uses
//!   band parameters tuned for *containment* queries, which is the metric
//!   CMDL relies on for cross-modality and PK-FK discovery.
//! * [`numeric`] — numeric column statistics (min/max/distinct/domain) and
//!   the range-overlap similarity used for numeric columns.
//! * [`similarity`] — exact set similarity: the sorted-merge containment
//!   kernel of the structured discovery queries, and hash-set helpers for
//!   baselines, tests and brute-force ground-truth generation.

pub mod lsh;
pub mod lshensemble;
pub mod minhash;
pub mod numeric;
pub mod similarity;

pub use lsh::LshIndex;
pub use lshensemble::{LshEnsemble, LshEnsembleConfig};
pub use minhash::{MinHash, MinHasher, SketchScheme};
pub use numeric::{numeric_overlap, NumericProfile};
pub use similarity::{
    containment_ratio, exact_containment, exact_jaccard, is_strictly_increasing,
    overlap_containments, sorted_containments,
};
