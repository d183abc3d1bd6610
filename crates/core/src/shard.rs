//! Sharded serving: partition the lake across N catalogs, query them as one.
//!
//! [`ShardedCmdl`] is a thread-safe router over `N` ordinary [`Cmdl`]
//! catalogs, each owning a disjoint slice of the lake (tables and documents
//! are atomic partition units — a table's columns never split). It exists
//! for *serving scale*: per-query work scatters across shards with rayon,
//! and ingest batches routed to different shards profile and index
//! concurrently under per-shard writer gates.
//!
//! The design contract — held by the `shard-parity` CI job — is **bit
//! parity**: for every [`DiscoveryQuery`] kind, a sharded deployment returns
//! exactly the hits (scores, breakdowns, order, pagination) of a single
//! unpartitioned catalog over the same lake. Four mechanisms make the exact
//! surfaces exact and the sketch surfaces identical rather than merely
//! approximate:
//!
//! 1. **Global ids.** The router mirrors one global id counter and pins it
//!    on the owning shard ([`Cmdl::set_next_element_id`]) before every
//!    ingest, so a partitioned build assigns each element exactly the id a
//!    single build would — and the canonical total orders (`score desc, id
//!    asc` and friends) merge across shards without renumbering.
//! 2. **Global corpus statistics.** Keyword scoring is BM25/LM over corpus
//!    document frequencies, which a partitioned text index cannot see
//!    locally. The gather phase sums integer statistics across shards into
//!    a [`CorpusStats`] and re-scatters them, so every shard scores
//!    against the exact global corpus (see *Keyword semantics* below).
//!    Likewise the document-frequency *filter* that derives document
//!    profiles is kept global: every shard holds the full corpus DF table,
//!    and document ingest/removal broadcasts the raw token bag to all
//!    shards ([`Cmdl::note_foreign_document`]) so keep-status flips patch
//!    identically everywhere.
//! 3. **A replicated sketch catalog.** The LSH Ensemble's cardinality
//!    partitions and the ANN forest's split topology depend on the *full*
//!    indexed population — probing per-shard sketches and merging would
//!    change candidate sets, not just their order. The router therefore
//!    maintains one global sketch replica
//!    ([`IndexCatalog::build_sketch_only`]) through the same canonical
//!    build/ingest/compact code paths as a single catalog, so cross-modal
//!    probes are bit-identical. (The shards still build their own — unused —
//!    sketch indexes; the memory overhead is accepted for keeping shards
//!    plain `Cmdl`s.)
//! 4. **Shared ranking code.** Every merge runs the same comparators and
//!    aggregation helpers as the single-catalog path
//!    ([`crate::join::sort_join_candidates`],
//!    [`crate::union::sort_union_scores`], [`crate::join::sort_pkfk_links`],
//!    and the doc-to-table aggregation in [`crate::query`]), all of which
//!    are total orders over disjoint per-shard inputs.
//!
//! ## Keyword (BM25) semantics across shards
//!
//! A single catalog refreshes its cached IDF lazily (the
//! `idf_refresh_ratio` policy), so between refreshes its keyword scores use
//! *boundedly stale* corpus statistics. The sharded path always scores
//! against exact live global statistics — there is no per-shard cache to go
//! stale. The two agree bit-for-bit whenever the single catalog's cache is
//! fresh: at build, after any compaction, and always when
//! `idf_refresh_ratio` is `0.0` (the configuration the parity suite pins).
//! Under lazy refresh the sharded scores are the *more* current of the two.
//!
//! ## What sharding does not support
//!
//! The joint model ([`Cmdl::train_joint`]) and EKG materialization are
//! single-catalog features for now: a sharded catalog always serves
//! cross-modal queries from the solo space (exactly like an untrained
//! single catalog) and reports only structural EKG edges.
//!
//! ```no_run
//! use cmdl_core::{CmdlConfig, QueryBuilder, ShardedCmdl};
//! use cmdl_datalake::synth;
//!
//! let mut config = CmdlConfig::fast();
//! config.shards = 4;
//! let sharded = ShardedCmdl::build(synth::pharma().lake, config);
//! let response = sharded
//!     .execute(&QueryBuilder::keyword("thymidylate synthase").top_k(5).build())
//!     .unwrap();
//! for hit in &response.hits {
//!     println!("{:.3}  {}", hit.score, hit.label);
//! }
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rayon::prelude::*;

use cmdl_datalake::{DataLake, DeId, DeKind, Document, Table};
use cmdl_embed::SoloEmbedding;
use cmdl_index::{CorpusStats, ScoringFunction};
use cmdl_text::BagOfWords;

use crate::config::{CmdlConfig, ShardPolicy};
use crate::discovery::{Cmdl, SearchMode};
use crate::error::CmdlError;
use crate::indexes::{DeltaStats, IndexCatalog};
use crate::join::{sort_join_candidates, sort_pkfk_links, JoinDiscovery, PkFkLink};
use crate::profile::{DeProfile, Profiler};
use crate::query::{
    aggregate_doc_to_table, pkfk_link_hits, probe_depth, union_breakdown, DiscoveryQuery, DocQuery,
    Hit, QueryResponse, ScoreBreakdown, Signal, SignalWeights,
};
use crate::snapshot::CatalogSnapshot;
use crate::stats::{CmdlStats, IndexSizes};
use crate::union::{sort_union_scores, UnionDiscovery, UnionScore};

/// Ranked PK-FK link lists shared across a batch, keyed by the resolved
/// weight triple as bits (mirrors the single-catalog batch cache).
type PkFkCache = HashMap<(u64, u64, u64), Arc<Vec<PkFkLink>>>;

/// Routing state: everything needed to decide *where* an element lives.
/// Guarded by the first lock in the router's ordering (see the lock-order
/// note on [`ShardedCmdl`]).
struct RouteState {
    /// The global id the next ingested element will receive (mirrors what a
    /// single unpartitioned lake's counter would hold).
    next_id: u64,
    /// Live elements (columns + documents) per shard, driving the
    /// [`ShardPolicy::SizeBalanced`] policy.
    element_counts: Vec<usize>,
    /// Live table name → owning shard.
    table_owner: HashMap<String, usize>,
    /// Global document index → `(shard, shard-local document index)`.
    /// Removed documents keep their slot as `None`, mirroring the slot
    /// stability of a single lake's document indices. Behind an `Arc` so
    /// snapshots share it copy-on-write.
    doc_locations: Arc<Vec<Option<(usize, usize)>>>,
}

/// The replicated global sketch catalog and the published generation.
/// Guarded by the last lock in the router's ordering.
struct ReplicaState {
    /// LSH Ensemble + solo ANN over *all* shards' columns, maintained
    /// through the same canonical code paths as a single catalog (see the
    /// module docs on why these cannot be partitioned).
    sketch: Arc<IndexCatalog>,
    /// Router-level generation, bumped once per mutation (and once per
    /// [`compact`](ShardedCmdl::compact)).
    generation: u64,
}

/// A sharded CMDL deployment: `N` independent catalogs behind one router
/// that preserves single-catalog query semantics bit for bit.
///
/// All methods take `&self`: the router is internally synchronized and is
/// the writer gate of a sharded service. Lock ordering (always acquired in
/// this sequence, never the reverse): routing state → shards (ascending
/// index) → sketch replica. Table mutations hold only the owning shard
/// during the expensive profiling work, so ingest routed to different
/// shards runs concurrently; document mutations hold all shards (their DF
/// bookkeeping is inherently global).
///
/// See the module docs for the full design and the
/// [`ShardedSnapshot`] docs for query execution.
pub struct ShardedCmdl {
    /// System configuration (`config.shards` is the shard count the catalog
    /// was built with).
    config: CmdlConfig,
    shards: Vec<Mutex<Cmdl>>,
    profiler: Arc<Profiler>,
    route: Mutex<RouteState>,
    replica: Mutex<ReplicaState>,
}

/// Deterministic shard choice for an element whose first global id is
/// `first_id` (a table's first column id; a document's own id).
fn route_to(policy: ShardPolicy, first_id: u64, element_counts: &[usize]) -> usize {
    let n = element_counts.len().max(1);
    match policy {
        // Fibonacci multiplicative hash: uniform in expectation, stateless.
        ShardPolicy::HashId => {
            ((first_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % n as u64) as usize
        }
        ShardPolicy::SizeBalanced => element_counts
            .iter()
            .enumerate()
            .min_by_key(|&(i, &count)| (count, i))
            .map(|(i, _)| i)
            .unwrap_or(0),
    }
}

impl ShardedCmdl {
    /// Profile and partition a lake across `config.shards` catalogs (at
    /// least one).
    ///
    /// The lake is profiled *once*, globally — so corpus document-frequency
    /// statistics are global — then carved into per-shard sub-lakes with
    /// every element keeping the id it already has. Per-shard catalogs
    /// build concurrently.
    pub fn build(lake: DataLake, config: CmdlConfig) -> Self {
        let num_shards = config.shards.max(1);
        let profiler = Arc::new(Profiler::new(&config));
        let profiled = profiler.profile_lake(lake);
        let sketch = Arc::new(IndexCatalog::build_sketch_only(&profiled, &config));

        let mut sub_lakes: Vec<DataLake> = (0..num_shards)
            .map(|i| DataLake::new(format!("shard-{i}")))
            .collect();
        let mut element_counts = vec![0usize; num_shards];
        let mut table_owner: HashMap<String, usize> = HashMap::new();
        let mut doc_locations: Vec<Option<(usize, usize)>> =
            Vec::with_capacity(profiled.lake.documents().len());

        for (t_idx, table) in profiled.lake.tables().iter().enumerate() {
            if profiled.lake.is_table_removed(t_idx) {
                continue;
            }
            let first_id = profiled
                .lake
                .column_id(t_idx, 0)
                .map(|id| id.raw())
                .unwrap_or(t_idx as u64);
            let owner = route_to(config.shard_policy, first_id, &element_counts);
            element_counts[owner] += table.num_columns();
            table_owner.insert(table.name.clone(), owner);
            let sub = &mut sub_lakes[owner];
            if let Some(id) = profiled.lake.column_id(t_idx, 0) {
                // Pin the sub-lake's counter so the re-added columns keep
                // their global ids.
                sub.set_next_id(id.raw());
            }
            sub.add_table(table.clone());
        }
        for (d_idx, document) in profiled.lake.documents().iter().enumerate() {
            if profiled.lake.is_document_removed(d_idx) {
                doc_locations.push(None);
                continue;
            }
            let id = profiled
                .lake
                .document_id(d_idx)
                .expect("live document has an id")
                .raw();
            let owner = route_to(config.shard_policy, id, &element_counts);
            element_counts[owner] += 1;
            let sub = &mut sub_lakes[owner];
            sub.set_next_id(id);
            let local_idx = sub.add_document(document.clone());
            doc_locations.push(Some((owner, local_idx)));
        }

        let next_id = profiled.lake.next_id();
        // The vendored rayon shim only maps by reference, so hand each
        // worker its partition through a take-once slot.
        let parts: Vec<Mutex<Option<crate::profile::ProfiledLake>>> = sub_lakes
            .into_iter()
            .map(|sub| Mutex::new(Some(profiled.partition_for(sub))))
            .collect();
        let shards: Vec<Mutex<Cmdl>> = parts
            .par_iter()
            .map(|slot| {
                let part = slot
                    .lock()
                    .expect("partition slot lock")
                    .take()
                    .expect("partition taken exactly once");
                Cmdl::from_profiled(part, config.clone())
            })
            .collect::<Vec<Cmdl>, Cmdl>()
            .into_iter()
            .map(Mutex::new)
            .collect();

        Self {
            config,
            shards,
            profiler,
            route: Mutex::new(RouteState {
                next_id,
                element_counts,
                table_owner,
                doc_locations: Arc::new(doc_locations),
            }),
            replica: Mutex::new(ReplicaState {
                sketch,
                generation: 0,
            }),
        }
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current router generation (bumped once per mutation).
    pub fn generation(&self) -> u64 {
        self.lock_replica().generation
    }

    /// Live elements (columns + documents) per shard — the balance the
    /// [`ShardPolicy`] produced.
    pub fn shard_element_counts(&self) -> Vec<usize> {
        self.lock_route().element_counts.clone()
    }

    fn lock_route(&self) -> MutexGuard<'_, RouteState> {
        self.route
            .lock()
            .expect("shard router routing state poisoned")
    }

    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, Cmdl> {
        self.shards[shard]
            .lock()
            .expect("shard catalog lock poisoned")
    }

    fn lock_all_shards(&self) -> Vec<MutexGuard<'_, Cmdl>> {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("shard catalog lock poisoned"))
            .collect()
    }

    fn lock_replica(&self) -> MutexGuard<'_, ReplicaState> {
        self.replica.lock().expect("sketch replica lock poisoned")
    }

    /// Pin a consistent [`ShardedSnapshot`] of every shard's current
    /// generation plus the sketch replica. Holding the routing lock blocks
    /// new mutations from *starting*; in-flight ones finish (they update
    /// the replica before releasing their shard), so the assembled view is
    /// never torn across shards.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let route = self.lock_route();
        let guards = self.lock_all_shards();
        let replica = self.lock_replica();
        ShardedSnapshot {
            generation: replica.generation,
            config: self.config.clone(),
            shards: guards.iter().map(|shard| shard.snapshot()).collect(),
            sketch: Arc::clone(&replica.sketch),
            profiler: Arc::clone(&self.profiler),
            doc_locations: Arc::clone(&route.doc_locations),
        }
    }

    /// Execute one typed query against the current generation. Equivalent
    /// to `self.snapshot().execute(query)`.
    pub fn execute(&self, query: &DiscoveryQuery) -> Result<QueryResponse, CmdlError> {
        self.snapshot().execute(query)
    }

    /// Execute a batch of queries in parallel against one pinned
    /// generation.
    pub fn execute_many(
        &self,
        queries: &[DiscoveryQuery],
    ) -> Vec<Result<QueryResponse, CmdlError>> {
        self.snapshot().execute_many(queries)
    }

    /// Aggregated introspection statistics. Equivalent to
    /// `self.snapshot().stats()`.
    pub fn stats(&self) -> CmdlStats {
        self.snapshot().stats()
    }

    /// Ingest a table into its owning shard. Returns the *shard-local*
    /// table index (tables are addressed by name throughout the discovery
    /// API, so the index is informational).
    ///
    /// The expensive work — profiling and indexing the columns — runs under
    /// only the owning shard's lock, so ingests routed to different shards
    /// proceed concurrently.
    pub fn ingest_table(&self, table: Table) -> Result<usize, CmdlError> {
        let name = table.name.clone();
        let num_columns = table.columns.len();
        let (owner, first_id) = {
            let mut route = self.lock_route();
            if route.table_owner.contains_key(&name) {
                return Err(CmdlError::DuplicateTable(name));
            }
            let first_id = route.next_id;
            route.next_id += num_columns as u64;
            let owner = route_to(self.config.shard_policy, first_id, &route.element_counts);
            route.element_counts[owner] += num_columns;
            route.table_owner.insert(name.clone(), owner);
            (owner, first_id)
        };

        let mut shard = self.lock_shard(owner);
        shard.set_next_element_id(first_id);
        let table_idx = match shard.ingest_table(table) {
            Ok(idx) => idx,
            Err(e) => {
                drop(shard);
                // The reserved ids are burned, but the routing entry must
                // not outlive the failed ingest.
                let mut route = self.lock_route();
                route.table_owner.remove(&name);
                route.element_counts[owner] -= num_columns;
                return Err(e);
            }
        };
        let new_profiles: Vec<DeProfile> = (0..num_columns)
            .filter_map(|c| shard.profiled.lake.column_id(table_idx, c))
            .filter_map(|id| shard.profiled.profile(id).cloned())
            .collect();

        let mut replica = self.lock_replica();
        let sketch = Arc::make_mut(&mut replica.sketch);
        for profile in &new_profiles {
            sketch.ingest_profile_sketch_only(profile);
        }
        replica.generation += 1;
        Ok(table_idx)
    }

    /// Ingest a document. Returns its *global* document index — the index
    /// every query (and [`remove_document`](Self::remove_document))
    /// addresses it by, exactly as in a single catalog.
    ///
    /// Document mutations are global: besides the owning shard's ingest,
    /// the raw token bag is broadcast to every other shard so the corpus
    /// document-frequency statistics (and any keep-status flips they cause)
    /// stay identical on all shards.
    pub fn ingest_document(&self, document: Document) -> Result<usize, CmdlError> {
        let raw = self.profiler.doc_pipeline().process(&document.text);
        let mut route = self.lock_route();
        let id = route.next_id;
        let owner = route_to(self.config.shard_policy, id, &route.element_counts);

        let mut guards = self.lock_all_shards();
        guards[owner].set_next_element_id(id);
        let local_idx = guards[owner].ingest_document(document)?;
        route.next_id += 1;
        route.element_counts[owner] += 1;
        for (i, shard) in guards.iter_mut().enumerate() {
            if i != owner {
                shard.note_foreign_document(&raw);
            }
        }

        let doc_profile = guards[owner]
            .profiled
            .lake
            .document_id(local_idx)
            .and_then(|did| guards[owner].profiled.profile(did).cloned());
        let mut replica = self.lock_replica();
        if let Some(profile) = &doc_profile {
            // Documents never enter the sketch indexes (column-only), but
            // routing through the canonical path keeps that invariant in
            // one place.
            Arc::make_mut(&mut replica.sketch).ingest_profile_sketch_only(profile);
        }
        replica.generation += 1;
        drop(replica);

        let locations = Arc::make_mut(&mut route.doc_locations);
        let global_idx = locations.len();
        locations.push(Some((owner, local_idx)));
        Ok(global_idx)
    }

    /// Remove a table (by name) from its owning shard. Returns the number
    /// of removed elements.
    pub fn remove_table(&self, name: &str) -> Result<usize, CmdlError> {
        let mut route = self.lock_route();
        let owner = *route
            .table_owner
            .get(name)
            .ok_or_else(|| CmdlError::UnknownTable(name.to_string()))?;
        let mut shard = self.lock_shard(owner);
        let removed_profiles: Vec<DeProfile> = shard
            .profiled
            .columns_of_table(name)
            .into_iter()
            .filter_map(|id| shard.profiled.profile(id).cloned())
            .collect();
        let removed = shard.remove_table(name)?;
        route.table_owner.remove(name);
        route.element_counts[owner] -= removed;

        let mut replica = self.lock_replica();
        let sketch = Arc::make_mut(&mut replica.sketch);
        for profile in &removed_profiles {
            sketch.remove_element_sketch_only(profile);
        }
        replica.generation += 1;
        Ok(removed)
    }

    /// Remove a document by its *global* index. The slot stays addressable
    /// (as removed), mirroring single-catalog document-index stability, and
    /// the retraction is broadcast to every shard's corpus statistics.
    pub fn remove_document(&self, index: usize) -> Result<(), CmdlError> {
        let mut route = self.lock_route();
        let (owner, local_idx) = route
            .doc_locations
            .get(index)
            .copied()
            .flatten()
            .ok_or(CmdlError::UnknownDocument(index))?;

        let mut guards = self.lock_all_shards();
        let profile = guards[owner]
            .profiled
            .lake
            .document_id(local_idx)
            .and_then(|did| guards[owner].profiled.profile(did).cloned())
            .ok_or(CmdlError::UnknownDocument(index))?;
        let raw = profile.raw_content.clone().unwrap_or_else(BagOfWords::new);
        guards[owner].remove_document(local_idx)?;
        for (i, shard) in guards.iter_mut().enumerate() {
            if i != owner {
                shard.note_foreign_document_removed(&raw);
            }
        }

        let mut replica = self.lock_replica();
        Arc::make_mut(&mut replica.sketch).remove_element_sketch_only(&profile);
        replica.generation += 1;
        drop(replica);

        Arc::make_mut(&mut route.doc_locations)[index] = None;
        route.element_counts[owner] -= 1;
        Ok(())
    }

    /// Compact every shard and rebuild the sketch replica from the global
    /// canonical element order (all columns by ascending id, then all
    /// documents) — the same order a single catalog's compaction uses, so
    /// probe parity survives compaction.
    ///
    /// The replica deliberately skips the shards' automatic
    /// compact-on-pressure policy (rebuilding it needs a quiescent view of
    /// every shard); call this explicitly, as a single catalog's operator
    /// would call [`Cmdl::compact`].
    pub fn compact(&self) {
        let _route = self.lock_route();
        let mut guards = self.lock_all_shards();
        for shard in guards.iter_mut() {
            shard.compact();
        }
        let mut columns: Vec<(DeId, DeProfile)> = Vec::new();
        let mut documents: Vec<(DeId, DeProfile)> = Vec::new();
        for shard in guards.iter() {
            for &id in shard.profiled.column_ids() {
                if let Some(profile) = shard.profiled.profile(id) {
                    columns.push((id, profile.clone()));
                }
            }
            for &id in &shard.profiled.doc_ids {
                if let Some(profile) = shard.profiled.profile(id) {
                    documents.push((id, profile.clone()));
                }
            }
        }
        columns.sort_by_key(|&(id, _)| id);
        documents.sort_by_key(|&(id, _)| id);
        let ordered: Vec<&DeProfile> = columns
            .iter()
            .map(|(_, p)| p)
            .chain(documents.iter().map(|(_, p)| p))
            .collect();
        let mut replica = self.lock_replica();
        Arc::make_mut(&mut replica.sketch).compact_sketch_only(&ordered, &self.config);
        replica.generation += 1;
    }
}

/// A consistent, immutable view of one sharded generation: every shard's
/// [`CatalogSnapshot`] pinned together with the sketch replica and the
/// document location table.
///
/// All query execution happens here (readers never touch the router's
/// locks): [`execute`](Self::execute) scatters the per-shard half of each
/// query kind, merges under the single-catalog total order, and wraps the
/// result in the standard [`QueryResponse`] envelope.
#[derive(Clone)]
pub struct ShardedSnapshot {
    /// The router generation this snapshot pins.
    pub generation: u64,
    /// System configuration at snapshot time.
    pub config: CmdlConfig,
    /// Per-shard catalog snapshots, in shard order.
    pub shards: Vec<CatalogSnapshot>,
    sketch: Arc<IndexCatalog>,
    profiler: Arc<Profiler>,
    doc_locations: Arc<Vec<Option<(usize, usize)>>>,
}

impl ShardedSnapshot {
    /// Execute one typed [`DiscoveryQuery`] against this pinned generation,
    /// with the same envelope semantics as [`CatalogSnapshot::execute`]
    /// (validation, `min_score`, pagination, timing) and — by construction —
    /// the same hits.
    pub fn execute(&self, query: &DiscoveryQuery) -> Result<QueryResponse, CmdlError> {
        self.execute_cached(query, None)
    }

    fn execute_cached(
        &self,
        query: &DiscoveryQuery,
        pkfk_cache: Option<&PkFkCache>,
    ) -> Result<QueryResponse, CmdlError> {
        let started = Instant::now();
        let options = query.options();
        if options.top_k == 0 {
            return Err(CmdlError::InvalidQuery(
                "top_k must be at least 1".to_string(),
            ));
        }
        let fetch = options.offset.saturating_add(options.top_k);
        let mut hits = match query {
            DiscoveryQuery::Keyword { text, mode, .. } => self.run_keyword(text, *mode, fetch),
            DiscoveryQuery::CrossModalDoc { document, .. } => {
                let profile = self.document_profile(*document)?;
                self.run_doc_to_table(&profile.solo, &profile.content, fetch, &options.weights)
            }
            DiscoveryQuery::CrossModalText { text, .. } => {
                let (content, solo) = self.profiler.profile_query_text(text);
                self.run_doc_to_table(&solo, &content, fetch, &options.weights)
            }
            DiscoveryQuery::DocToTable {
                query: doc_query, ..
            } => {
                // A sharded catalog has no joint model, so every strategy
                // resolves to the solo space — exactly like an untrained
                // single catalog.
                let (solo, content) = match doc_query {
                    DocQuery::Text(text) => {
                        let (content, solo) = self.profiler.profile_query_text(text);
                        (solo, content)
                    }
                    DocQuery::Document(index) => {
                        let profile = self.document_profile(*index)?;
                        (profile.solo.clone(), profile.content.clone())
                    }
                };
                self.run_doc_to_table(&solo, &content, fetch, &options.weights)
            }
            DiscoveryQuery::JoinableTable { table, .. } => self.run_joinable_table(table, fetch)?,
            DiscoveryQuery::JoinableColumn { table, column, .. } => {
                self.run_joinable_columns(table, column, fetch)?
            }
            DiscoveryQuery::Unionable { table, .. } => self.run_unionable(table, fetch)?,
            DiscoveryQuery::PkFk { .. } => self.run_pkfk(fetch, &options.weights, pkfk_cache),
        };
        hits.retain(|h| h.score >= options.min_score);
        let total_candidates = hits.len();
        let hits: Vec<Hit> = hits
            .into_iter()
            .skip(options.offset)
            .take(options.top_k)
            .collect();
        Ok(QueryResponse {
            query: query.clone(),
            generation: self.generation,
            hits,
            total_candidates,
            elapsed_micros: started.elapsed().as_micros() as u64,
        })
    }

    /// Execute a batch of queries in parallel (rayon), sharing one PK-FK
    /// sweep per distinct weight triple across the whole batch — the
    /// whole-lake sweep is the one query whose cost does not depend on
    /// `top_k`, so a serving batch never repeats it.
    pub fn execute_many(
        &self,
        queries: &[DiscoveryQuery],
    ) -> Vec<Result<QueryResponse, CmdlError>> {
        let mut triples: Vec<(u64, u64, u64)> = queries
            .iter()
            .filter_map(|query| match query {
                DiscoveryQuery::PkFk { options } => Some(self.pkfk_weight_key(&options.weights)),
                _ => None,
            })
            .collect();
        triples.sort_unstable();
        triples.dedup();
        let pkfk_cache: PkFkCache = triples
            .into_iter()
            .map(|key @ (wc, wn, wu)| {
                let links =
                    self.pkfk_links(f64::from_bits(wc), f64::from_bits(wn), f64::from_bits(wu));
                (key, Arc::new(links))
            })
            .collect();
        queries
            .par_iter()
            .map(|query| self.execute_cached(query, Some(&pkfk_cache)))
            .collect()
    }

    /// Aggregated introspection statistics: lake cardinalities and index
    /// sizes summed across shards (including the shards' own — unused —
    /// sketch indexes), delta pressure as the per-shard maximum.
    pub fn stats(&self) -> CmdlStats {
        let mut total = CmdlStats {
            generation: self.generation,
            tables: 0,
            documents: 0,
            columns: 0,
            joint_trained: false,
            index_sizes: IndexSizes::default(),
            delta: DeltaStats::default(),
            delta_pressure: 0.0,
            wedged: false,
            reconfiguring: false,
            replicas: Vec::new(),
        };
        for shard in &self.shards {
            let stats = shard.stats();
            total.tables += stats.tables;
            total.documents += stats.documents;
            total.columns += stats.columns;
            total.index_sizes.content += stats.index_sizes.content;
            total.index_sizes.metadata += stats.index_sizes.metadata;
            total.index_sizes.containment += stats.index_sizes.containment;
            total.index_sizes.solo_ann += stats.index_sizes.solo_ann;
            total.index_sizes.joint_ann += stats.index_sizes.joint_ann;
            total.index_sizes.joint_embeddings += stats.index_sizes.joint_embeddings;
            total.delta.content_tombstoned += stats.delta.content_tombstoned;
            total.delta.containment_delta += stats.delta.containment_delta;
            total.delta.solo_delta += stats.delta.solo_delta;
            total.delta.joint_delta += stats.delta.joint_delta;
            total.delta_pressure = total.delta_pressure.max(stats.delta_pressure);
        }
        total
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    // ------------------------------------------------------------------
    // Cross-shard resolution helpers
    // ------------------------------------------------------------------

    /// The shard snapshot holding an element's profile.
    fn owner_of(&self, id: DeId) -> Option<&CatalogSnapshot> {
        self.shards
            .iter()
            .find(|s| s.profiled.profile(id).is_some())
    }

    /// An element's profile, wherever it lives.
    fn profile_global(&self, id: DeId) -> Option<&DeProfile> {
        self.shards.iter().find_map(|s| s.profiled.profile(id))
    }

    /// An element's owning table name, wherever it lives.
    fn table_of(&self, id: DeId) -> Option<String> {
        self.profile_global(id).and_then(|p| p.table_name.clone())
    }

    /// The shard snapshot holding a live table.
    fn table_owner_snapshot(&self, table: &str) -> Option<&CatalogSnapshot> {
        self.shards
            .iter()
            .find(|s| s.profiled.lake.table(table).is_some())
    }

    /// Resolve a *global* document index to its profile.
    fn document_profile(&self, index: usize) -> Result<&DeProfile, CmdlError> {
        let (shard, local_idx) = self
            .doc_locations
            .get(index)
            .copied()
            .flatten()
            .ok_or(CmdlError::UnknownDocument(index))?;
        self.shards
            .get(shard)
            .and_then(|s| s.profiled.lake.document_id(local_idx))
            .and_then(|id| self.shards[shard].profiled.profile(id))
            .ok_or(CmdlError::UnknownDocument(index))
    }

    // ------------------------------------------------------------------
    // Per-kind scatter/gather
    // ------------------------------------------------------------------

    /// Q1: gather exact global corpus statistics, scatter the scan, merge
    /// under the canonical `(score desc, id asc)` order.
    fn run_keyword(&self, text: &str, mode: SearchMode, fetch: usize) -> Vec<Hit> {
        let (bow, _) = self.profiler.profile_query_text(text);
        let kind = match mode {
            SearchMode::Text => Some(DeKind::Document),
            SearchMode::Tables => Some(DeKind::Column),
            SearchMode::All => None,
        };
        let mut stats = CorpusStats::default();
        for shard in &self.shards {
            shard.indexes.absorb_content_stats(&mut stats, &bow);
        }
        let per_shard: Vec<Vec<(DeId, f64)>> = self
            .shards
            .par_iter()
            .map(|shard| {
                shard.indexes.content_search_with_stats(
                    &shard.profiled,
                    &bow,
                    kind,
                    fetch,
                    ScoringFunction::default(),
                    &stats,
                )
            })
            .collect();
        let mut merged: Vec<(DeId, f64)> = per_shard.into_iter().flatten().collect();
        // Same comparator as the single catalog's top-k heap; element ids
        // are globally unique, so the merge is a total order.
        sort_join_candidates(&mut merged);
        merged.truncate(fetch);
        merged
            .into_iter()
            .filter_map(|(id, score)| {
                self.owner_of(id).map(|snap| {
                    snap.element_hit(id, score, ScoreBreakdown::single(Signal::Bm25, score, 1.0))
                })
            })
            .collect()
    }

    /// Q2/Q3: probe the replicated global sketch catalog (identical
    /// candidates to a single catalog) and aggregate through the shared
    /// doc-to-table helper.
    fn run_doc_to_table(
        &self,
        solo: &SoloEmbedding,
        content: &BagOfWords,
        fetch: usize,
        weights: &SignalWeights,
    ) -> Vec<Hit> {
        let w_embed = weights
            .embedding
            .unwrap_or(self.config.cross_modal_embed_weight);
        let w_contain = weights
            .containment
            .unwrap_or(self.config.cross_modal_containment_weight);
        let probe_k = probe_depth(fetch);
        let column_scores = self.sketch.solo_search(&solo.content, probe_k);
        let minhash = self.profiler.minhasher().signature(content.terms());
        let containment = self.sketch.containment_search(&minhash, probe_k);
        aggregate_doc_to_table(
            column_scores,
            containment,
            |id| self.table_of(id),
            w_embed,
            w_contain,
            fetch,
        )
    }

    /// Q4 (table granularity): the query columns live wholly on the owning
    /// shard; every shard aggregates its local per-table best, and a
    /// max-merge reproduces the single-catalog aggregate exactly.
    fn run_joinable_table(&self, table: &str, fetch: usize) -> Result<Vec<Hit>, CmdlError> {
        let owner = self
            .table_owner_snapshot(table)
            .ok_or_else(|| CmdlError::UnknownTable(table.to_string()))?;
        let query_columns: Vec<&DeProfile> = owner
            .profiled
            .columns_of_table(table)
            .into_iter()
            .filter_map(|id| owner.profiled.profile(id))
            .collect();
        let per_shard: Vec<HashMap<String, f64>> = self
            .shards
            .par_iter()
            .map(|shard| {
                JoinDiscovery::new(&shard.profiled, &self.config)
                    .joinable_table_candidates(&query_columns)
            })
            .collect();
        let mut best: HashMap<String, f64> = HashMap::new();
        for partial in per_shard {
            for (name, score) in partial {
                let entry = best.entry(name).or_insert(0.0);
                if score > *entry {
                    *entry = score;
                }
            }
        }
        let mut scored: Vec<(String, f64)> = best.into_iter().collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(fetch);
        Ok(scored
            .into_iter()
            .map(|(name, score)| Hit {
                element: None,
                label: name.clone(),
                table: Some(name),
                score,
                breakdown: ScoreBreakdown::single(Signal::Containment, score, 1.0),
                pkfk: None,
                union: None,
            })
            .collect())
    }

    /// Q4 (column granularity): scatter the candidate scan with the (maybe
    /// foreign) query profile, merge under `(score desc, id asc)`.
    fn run_joinable_columns(
        &self,
        table: &str,
        column: &str,
        fetch: usize,
    ) -> Result<Vec<Hit>, CmdlError> {
        let (owner, id) = self
            .shards
            .iter()
            .find_map(|s| {
                s.profiled
                    .lake
                    .column_id_by_name(table, column)
                    .map(|id| (s, id))
            })
            .ok_or_else(|| CmdlError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        let Some(query) = owner.profiled.profile(id) else {
            return Ok(Vec::new());
        };
        let per_shard: Vec<Vec<(DeId, f64)>> = self
            .shards
            .par_iter()
            .map(|shard| {
                JoinDiscovery::new(&shard.profiled, &self.config).joinable_candidates(query)
            })
            .collect();
        let mut merged: Vec<(DeId, f64)> = per_shard.into_iter().flatten().collect();
        sort_join_candidates(&mut merged);
        merged.truncate(fetch);
        Ok(merged
            .into_iter()
            .filter_map(|(cid, score)| {
                self.owner_of(cid).map(|snap| {
                    snap.element_hit(
                        cid,
                        score,
                        ScoreBreakdown::single(Signal::Containment, score, 1.0),
                    )
                })
            })
            .collect())
    }

    /// Q5: candidate tables are shard-local (tables never split), so each
    /// shard's per-candidate pair lists — and the greedy matching over
    /// them — are identical to the single catalog's; only the final sort
    /// merges across shards.
    fn run_unionable(&self, table: &str, fetch: usize) -> Result<Vec<Hit>, CmdlError> {
        let owner = self
            .table_owner_snapshot(table)
            .ok_or_else(|| CmdlError::UnknownTable(table.to_string()))?;
        let query: Vec<(DeId, &DeProfile)> = owner
            .profiled
            .columns_of_table(table)
            .into_iter()
            .filter_map(|id| owner.profiled.profile(id).map(|p| (id, p)))
            .collect();
        if query.is_empty() {
            return Ok(Vec::new());
        }
        let per_shard: Vec<Vec<UnionScore>> = self
            .shards
            .par_iter()
            .map(|shard| {
                UnionDiscovery::new(&shard.profiled, &self.config)
                    .unionable_candidates(table, &query, "ensemble")
            })
            .collect();
        let mut scores: Vec<UnionScore> = per_shard.into_iter().flatten().collect();
        sort_union_scores(&mut scores);
        scores.truncate(fetch);
        // `signals` only reads the two profiles, so any shard's engine
        // computes the breakdown of a cross-shard pair.
        let reference = UnionDiscovery::new(&owner.profiled, &self.config);
        Ok(scores
            .into_iter()
            .map(|score| {
                let mut breakdown = ScoreBreakdown::default();
                if let Some(&(q, c)) = score.id_mapping.first() {
                    if let (Some(qp), Some(cp)) = (self.profile_global(q), self.profile_global(c)) {
                        breakdown = union_breakdown(&reference.signals(qp, cp));
                    }
                }
                Hit {
                    element: None,
                    label: score.table.clone(),
                    table: Some(score.table.clone()),
                    score: score.score,
                    breakdown,
                    pkfk: None,
                    union: Some(score),
                }
            })
            .collect())
    }

    /// The whole-lake PK-FK sweep: the PK candidates are gathered from
    /// every shard, each shard probes its own value index with all of them
    /// to find the links to its FK columns, and the union is sorted into
    /// the canonical order.
    fn pkfk_links(&self, w_containment: f64, w_name: f64, w_uniqueness: f64) -> Vec<PkFkLink> {
        let pks: Vec<&DeProfile> = self
            .shards
            .iter()
            .flat_map(|shard| JoinDiscovery::new(&shard.profiled, &self.config).pk_candidates())
            .collect();
        let per_shard: Vec<Vec<PkFkLink>> = self
            .shards
            .par_iter()
            .map(|shard| {
                JoinDiscovery::new(&shard.profiled, &self.config).pkfk_link_candidates(
                    &pks,
                    w_containment,
                    w_name,
                    w_uniqueness,
                )
            })
            .collect();
        let mut links: Vec<PkFkLink> = per_shard.into_iter().flatten().collect();
        sort_pkfk_links(&mut links);
        links
    }

    /// The resolved PK-FK weight triple as a hashable bit key (mirrors the
    /// single-catalog batch cache key).
    fn pkfk_weight_key(&self, weights: &SignalWeights) -> (u64, u64, u64) {
        (
            weights
                .containment
                .unwrap_or(self.config.pkfk_containment_weight)
                .to_bits(),
            weights
                .name
                .unwrap_or(self.config.pkfk_name_weight)
                .to_bits(),
            weights
                .uniqueness
                .unwrap_or(self.config.pkfk_uniqueness_weight)
                .to_bits(),
        )
    }

    /// PK-FK discovery, reusing a batch-shared link list when available.
    fn run_pkfk(
        &self,
        fetch: usize,
        weights: &SignalWeights,
        pkfk_cache: Option<&PkFkCache>,
    ) -> Vec<Hit> {
        let w_contain = weights
            .containment
            .unwrap_or(self.config.pkfk_containment_weight);
        let w_name = weights.name.unwrap_or(self.config.pkfk_name_weight);
        let w_unique = weights
            .uniqueness
            .unwrap_or(self.config.pkfk_uniqueness_weight);
        let links = match pkfk_cache.and_then(|cache| cache.get(&self.pkfk_weight_key(weights))) {
            Some(shared) => shared.iter().take(fetch).cloned().collect(),
            None => {
                let mut links = self.pkfk_links(w_contain, w_name, w_unique);
                links.truncate(fetch);
                links
            }
        };
        pkfk_link_hits(links, w_contain, w_name, w_unique, |id| self.table_of(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use cmdl_datalake::{synth, Column};

    /// The parity configuration: exact IDF (no lazy-refresh staleness on
    /// the single catalog) and no automatic compaction (whose trigger
    /// depends on per-catalog index sizes).
    fn parity_config(shards: usize, policy: ShardPolicy) -> CmdlConfig {
        let mut config = CmdlConfig::fast();
        config.idf_refresh_ratio = 0.0;
        config.compaction_ratio = 1_000_000.0;
        config.shards = shards;
        config.shard_policy = policy;
        config
    }

    fn lake() -> DataLake {
        synth::pharma::generate(&synth::PharmaConfig::tiny()).lake
    }

    #[test]
    fn build_partitions_all_elements_and_preserves_ids() {
        let source = lake();
        let tables = source.num_tables();
        let documents = source.num_documents();
        let columns = source.num_columns();
        let sharded = ShardedCmdl::build(source, parity_config(3, ShardPolicy::HashId));
        let snap = sharded.snapshot();
        assert_eq!(snap.num_shards(), 3);
        let stats = snap.stats();
        assert_eq!(stats.tables, tables);
        assert_eq!(stats.documents, documents);
        assert_eq!(stats.columns, columns);
        // Ids are globally unique across shards.
        let mut ids: Vec<DeId> = snap
            .shards
            .iter()
            .flat_map(|s| {
                s.profiled
                    .column_ids()
                    .iter()
                    .chain(s.profiled.doc_ids.iter())
            })
            .copied()
            .collect();
        let total = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), total);
    }

    #[test]
    fn size_balanced_policy_keeps_counts_tight() {
        let sharded = ShardedCmdl::build(lake(), parity_config(4, ShardPolicy::SizeBalanced));
        let counts = sharded.shard_element_counts();
        let min = counts.iter().min().copied().unwrap_or(0);
        let max = counts.iter().max().copied().unwrap_or(0);
        // Tables are atomic, so balance is bounded by the widest table.
        assert!(max - min <= 12, "unbalanced shards: {counts:?}");
    }

    #[test]
    fn sharded_results_match_single_catalog() {
        let single = Cmdl::build(lake(), parity_config(1, ShardPolicy::HashId));
        let sharded = ShardedCmdl::build(lake(), parity_config(3, ShardPolicy::HashId));
        let single_snap = single.snapshot();
        let sharded_snap = sharded.snapshot();
        for query in [
            QueryBuilder::keyword("drug").top_k(8).build(),
            QueryBuilder::keyword("enzyme")
                .mode(SearchMode::Tables)
                .top_k(5)
                .build(),
            QueryBuilder::cross_modal_doc(0).top_k(5).build(),
            QueryBuilder::cross_modal_text("enzyme inhibitor")
                .top_k(4)
                .build(),
            QueryBuilder::joinable("Drugs").top_k(5).build(),
            QueryBuilder::joinable_column("Drugs", "Id")
                .top_k(6)
                .build(),
            QueryBuilder::unionable("Drugs").top_k(4).build(),
            QueryBuilder::pkfk().top_k(6).build(),
        ] {
            let a = single_snap.execute(&query).expect("single executes");
            let b = sharded_snap.execute(&query).expect("sharded executes");
            assert_eq!(a.hits, b.hits, "hits diverge for {}", query.kind());
            assert_eq!(
                a.total_candidates,
                b.total_candidates,
                "candidate counts diverge for {}",
                query.kind()
            );
        }
    }

    #[test]
    fn unknown_references_error_like_a_single_catalog() {
        let sharded = ShardedCmdl::build(lake(), parity_config(2, ShardPolicy::HashId));
        let snap = sharded.snapshot();
        assert!(matches!(
            snap.execute(&QueryBuilder::cross_modal_doc(10_000).build()),
            Err(CmdlError::UnknownDocument(_))
        ));
        assert!(matches!(
            snap.execute(&QueryBuilder::joinable("NoSuch").build()),
            Err(CmdlError::UnknownTable(_))
        ));
        assert!(matches!(
            snap.execute(&QueryBuilder::joinable_column("Drugs", "NoCol").build()),
            Err(CmdlError::UnknownColumn { .. })
        ));
        assert!(matches!(
            snap.execute(&QueryBuilder::unionable("NoSuch").build()),
            Err(CmdlError::UnknownTable(_))
        ));
        assert!(matches!(
            snap.execute(&QueryBuilder::keyword("drug").top_k(0).build()),
            Err(CmdlError::InvalidQuery(_))
        ));
    }

    #[test]
    fn mutations_route_and_stay_queryable() {
        let sharded = ShardedCmdl::build(lake(), parity_config(2, ShardPolicy::SizeBalanced));
        let gen0 = sharded.generation();
        sharded
            .ingest_table(Table::new(
                "Trial_Sites",
                vec![Column::from_texts(
                    "Site",
                    ["Boston General", "Lyon Institute", "Osaka Center"],
                )],
            ))
            .unwrap();
        assert!(matches!(
            sharded.ingest_table(Table::new("Trial_Sites", vec![])),
            Err(CmdlError::DuplicateTable(_))
        ));
        let doc_idx = sharded
            .ingest_document(Document::new(
                "xo-note",
                "PubMed",
                "Febuxostat potently inhibits xanthine oxidase.",
            ))
            .unwrap();
        assert!(sharded.generation() > gen0);

        let snap = sharded.snapshot();
        let hits = snap
            .execute(
                &QueryBuilder::keyword("Lyon Institute")
                    .mode(SearchMode::Tables)
                    .top_k(5)
                    .build(),
            )
            .unwrap();
        assert!(
            hits.hits
                .iter()
                .any(|h| h.table.as_deref() == Some("Trial_Sites")),
            "ingested table must be discoverable, got {:?}",
            hits.hits
        );
        // The new document answers by its global index.
        assert!(snap
            .execute(&QueryBuilder::cross_modal_doc(doc_idx).top_k(3).build())
            .is_ok());

        sharded.remove_table("Trial_Sites").unwrap();
        assert!(matches!(
            sharded.remove_table("Trial_Sites"),
            Err(CmdlError::UnknownTable(_))
        ));
        sharded.remove_document(doc_idx).unwrap();
        assert!(matches!(
            sharded.remove_document(doc_idx),
            Err(CmdlError::UnknownDocument(_))
        ));
        sharded.compact();
        assert!(!sharded
            .execute(&QueryBuilder::keyword("drug").top_k(5).build())
            .unwrap()
            .hits
            .is_empty());
    }

    #[test]
    fn execute_many_matches_sequential_execute() {
        let sharded = ShardedCmdl::build(lake(), parity_config(3, ShardPolicy::HashId));
        let snap = sharded.snapshot();
        let queries = vec![
            QueryBuilder::keyword("drug").top_k(5).build(),
            QueryBuilder::cross_modal_text("enzyme inhibitor")
                .top_k(4)
                .build(),
            QueryBuilder::joinable("Drugs").top_k(3).build(),
            QueryBuilder::joinable("NoSuch").top_k(3).build(),
            QueryBuilder::pkfk().top_k(5).build(),
            QueryBuilder::pkfk().top_k(2).weight_name(1.0).build(),
        ];
        let batched = snap.execute_many(&queries);
        assert_eq!(batched.len(), queries.len());
        for (query, result) in queries.iter().zip(&batched) {
            match (result, snap.execute(query)) {
                (Ok(a), Ok(b)) => assert_eq!(a.hits, b.hits, "hits differ for {}", query.kind()),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("divergent outcomes for {}: {a:?} vs {b:?}", query.kind()),
            }
        }
    }
}
