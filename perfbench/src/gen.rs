//! Seeded inputs: the ×4 pharma lake, the catalog configuration, and the
//! three request streams (`mixed`, `search`, `ingest`).
//!
//! Everything here is a pure function of the run seed. Sub-seeds are
//! derived by label, so the lake, the ingest source lake, each
//! connection's stream, the warm-up pass and the traced pass draw from
//! independent sequences. The random generator is a local SplitMix64, so a
//! stream stays byte-identical whatever the vendored `rand` does.
//!
//! Kind and hot-set shares are dealt from shuffled decks rather than drawn
//! independently: a block of 164 `mixed` requests always holds exactly one
//! PK-FK query, so the rarest and slowest kind cannot swing a run's
//! throughput by the luck of the draw.

use std::sync::Arc;

use cmdl_core::{CmdlConfig, DiscoveryQuery, QueryBuilder, SearchMode};
use cmdl_datalake::synth::{self, PharmaConfig};
use cmdl_datalake::{DataLake, Document, Table};

/// SplitMix64: small, fast, and fully specified by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Derive an independent seed for `label` (and an index within it).
pub fn sub_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = Rng::new(seed ^ h ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64()
}

/// The pharma generator at ×4 bench scale: 51 tables, 138 columns, about
/// 10.1k rows and 320 documents.
pub fn lake_config(seed: u64) -> PharmaConfig {
    PharmaConfig {
        num_drugs: 240,
        num_enzymes: 120,
        num_documents: 320,
        num_interactions: 480,
        num_synthetic_tables: 40,
        seed,
    }
}

/// The lake set-up `index` of a run serves.
pub fn lake(seed: u64, index: usize) -> DataLake {
    synth::pharma::generate(&lake_config(sub_seed(seed, "lake", index as u64))).lake
}

/// The lake the `ingest` writer draws its tables and documents from.
pub fn source_lake(seed: u64) -> DataLake {
    synth::pharma::generate(&lake_config(sub_seed(seed, "source", 0))).lake
}

/// The bench-scale catalog configuration (the repository's bench ratios,
/// fixed here so the benchmark does not move when a default does).
pub fn cmdl_config() -> CmdlConfig {
    CmdlConfig {
        minhash_hashes: 64,
        embedding_dim: 48,
        joint_dim: 32,
        label_probe_top_k: 10,
        sample_ratio: 0.3,
        mini_batch_ratio: 0.08,
        max_epochs: 60,
        ann_trees: 8,
        ..CmdlConfig::default()
    }
}

/// Shape of a lake, as recorded with every run.
pub fn lake_shape(lake: &DataLake) -> (usize, usize, usize, usize) {
    let rows = lake.tables().iter().map(Table::num_rows).sum();
    (
        lake.num_tables(),
        lake.num_columns(),
        rows,
        lake.num_documents(),
    )
}

/// What the streams draw parameters from: the base lake's table names,
/// cell texts, document titles, document word windows and term vocabulary.
/// Built once per run, in lake order, so it is deterministic.
pub struct LakeView {
    tables: Vec<String>,
    cells: Vec<String>,
    titles: Vec<String>,
    doc_words: Vec<Vec<String>>,
    terms: Vec<String>,
}

impl LakeView {
    pub fn new(lake: &DataLake) -> Self {
        let mut tables = Vec::new();
        let mut cells = Vec::new();
        let mut terms = Vec::new();
        for table in lake.tables() {
            if lake.table_index(&table.name).is_none() {
                continue;
            }
            tables.push(table.name.clone());
            for column in &table.columns {
                for value in &column.values {
                    let text = value.as_text();
                    if text.trim().is_empty() {
                        continue;
                    }
                    terms.extend(words(&text));
                    cells.push(text);
                }
            }
        }
        let mut titles = Vec::new();
        let mut doc_words = Vec::new();
        for (_, index) in lake.document_ids() {
            let document = &lake.documents()[index];
            titles.push(document.title.clone());
            let w: Vec<String> = words(&document.text).collect();
            terms.extend(w.iter().cloned());
            doc_words.push(w);
        }
        terms.sort_unstable();
        terms.dedup();
        Self {
            tables,
            cells,
            titles,
            doc_words,
            terms,
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| w.len() >= 3)
        .map(str::to_lowercase)
}

/// A shuffled deck of labels dealt in blocks: every full block holds each
/// label exactly its weight times.
#[derive(Debug, Clone)]
struct Deck<K: Copy> {
    weights: Vec<(K, u32)>,
    pending: Vec<K>,
}

impl<K: Copy> Deck<K> {
    fn new(weights: &[(K, u32)]) -> Self {
        Self {
            weights: weights.to_vec(),
            pending: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> K {
        if self.pending.is_empty() {
            for &(k, w) in &self.weights {
                self.pending.extend(std::iter::repeat_n(k, w as usize));
            }
            for i in (1..self.pending.len()).rev() {
                let j = rng.below(i + 1);
                self.pending.swap(i, j);
            }
        }
        self.pending.pop().expect("a refilled deck is not empty")
    }
}

/// Query kinds of the streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Keyword,
    CrossModal,
    Joinable,
    Unionable,
    PkFk,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Keyword,
        Kind::CrossModal,
        Kind::Joinable,
        Kind::Unionable,
        Kind::PkFk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Keyword => "keyword",
            Kind::CrossModal => "cross_modal",
            Kind::Joinable => "joinable",
            Kind::Unionable => "unionable",
            Kind::PkFk => "pkfk",
        }
    }

    pub fn of(query: &DiscoveryQuery) -> Kind {
        match query {
            DiscoveryQuery::Keyword { .. } => Kind::Keyword,
            DiscoveryQuery::JoinableTable { .. } | DiscoveryQuery::JoinableColumn { .. } => {
                Kind::Joinable
            }
            DiscoveryQuery::Unionable { .. } => Kind::Unionable,
            DiscoveryQuery::PkFk { .. } => Kind::PkFk,
            _ => Kind::CrossModal,
        }
    }
}

/// The `server_load` mix: 120 keyword, 25 cross-modal, 12 joinable,
/// 6 unionable and 1 PK-FK query per 164.
pub const MIXED_WEIGHTS: [(Kind, u32); 5] = [
    (Kind::Keyword, 120),
    (Kind::CrossModal, 25),
    (Kind::Joinable, 12),
    (Kind::Unionable, 6),
    (Kind::PkFk, 1),
];

/// `search`: 80% keyword, 20% cross-modal text.
pub const SEARCH_WEIGHTS: [(Kind, u32); 2] = [(Kind::Keyword, 4), (Kind::CrossModal, 1)];

/// `search`: 3 in 10 requests replay the hot set.
pub const HOT_WEIGHTS: [(bool, u32); 2] = [(true, 3), (false, 7)];

/// Size of the `search` hot set (51 keyword + 13 cross-modal queries).
pub const HOT_SET: usize = 64;

fn mixed_query(kind: Kind, view: &LakeView, rng: &mut Rng) -> DiscoveryQuery {
    match kind {
        Kind::Keyword => {
            let mode = *rng.pick(&SEARCH_MODES);
            QueryBuilder::keyword(rng.pick(&view.cells).as_str())
                .mode(mode)
                .top_k(10)
                .build()
        }
        Kind::CrossModal => QueryBuilder::cross_modal_text(rng.pick(&view.titles).as_str())
            .top_k(5)
            .build(),
        Kind::Joinable => QueryBuilder::joinable(rng.pick(&view.tables).as_str())
            .top_k(5)
            .build(),
        Kind::Unionable => QueryBuilder::unionable(rng.pick(&view.tables).as_str())
            .top_k(5)
            .build(),
        Kind::PkFk => QueryBuilder::pkfk().top_k(20).build(),
    }
}

fn search_query(kind: Kind, view: &LakeView, rng: &mut Rng) -> DiscoveryQuery {
    match kind {
        Kind::CrossModal => {
            // A highlighted passage: 4 to 8 consecutive words of a document.
            let doc = rng.pick(&view.doc_words);
            let len = (4 + rng.below(5)).min(doc.len());
            let start = rng.below(doc.len() - len + 1);
            QueryBuilder::cross_modal_text(doc[start..start + len].join(" "))
                .top_k(5)
                .build()
        }
        _ => {
            let n = 1 + rng.below(3);
            let text: Vec<&str> = (0..n).map(|_| rng.pick(&view.terms).as_str()).collect();
            let mode = *rng.pick(&SEARCH_MODES);
            search_keyword(&text.join(" "), mode)
        }
    }
}

const SEARCH_MODES: [SearchMode; 3] = [SearchMode::All, SearchMode::Text, SearchMode::Tables];

fn search_keyword(text: &str, mode: SearchMode) -> DiscoveryQuery {
    QueryBuilder::keyword(text).mode(mode).top_k(10).build()
}

/// The `search` queries that repeat from outside the hot set: every
/// one-term keyword query in every mode (three times the vocabulary, about
/// 6.6k on the x4 lake), followed by the hot set. Two- and three-term
/// queries and passages almost never repeat. Sending this list once puts
/// the result cache where a long `search` stream leaves it, so its hit
/// ratio does not climb through the timed window.
pub fn search_repeats(view: &LakeView, hot: &HotSet) -> Vec<DiscoveryQuery> {
    let mut queries: Vec<DiscoveryQuery> = view
        .terms
        .iter()
        .flat_map(|term| SEARCH_MODES.map(|mode| search_keyword(term, mode)))
        .collect();
    queries.extend(hot.keyword.iter().chain(&hot.cross_modal).cloned());
    queries
}

/// The `search` hot set: per kind, a list ranked by Zipf popularity.
pub struct HotSet {
    keyword: Vec<DiscoveryQuery>,
    cross_modal: Vec<DiscoveryQuery>,
}

impl HotSet {
    pub fn new(view: &LakeView, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let cross = HOT_SET / 5;
        let cross_modal = (0..cross)
            .map(|_| search_query(Kind::CrossModal, view, &mut rng))
            .collect();
        let keyword = (0..HOT_SET - cross)
            .map(|_| search_query(Kind::Keyword, view, &mut rng))
            .collect();
        Self {
            keyword,
            cross_modal,
        }
    }

    fn draw(&self, kind: Kind, rng: &mut Rng) -> DiscoveryQuery {
        let list = match kind {
            Kind::CrossModal => &self.cross_modal,
            _ => &self.keyword,
        };
        list[zipf_rank(list.len(), rng)].clone()
    }
}

/// A Zipf(s = 1) rank in `0..n`.
fn zipf_rank(n: usize, rng: &mut Rng) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut target = rng.unit() * total;
    for r in 1..=n {
        target -= 1.0 / r as f64;
        if target < 0.0 {
            return r - 1;
        }
    }
    n - 1
}

/// One request of a query stream, with whether it replays the hot set.
pub struct Drawn {
    pub query: DiscoveryQuery,
    pub hot: bool,
}

/// A read stream: `mixed` or `search`.
pub struct QueryStream {
    rng: Rng,
    view: Arc<LakeView>,
    kinds: Deck<Kind>,
    hot: Option<(Arc<HotSet>, Deck<bool>)>,
}

impl QueryStream {
    pub fn mixed(view: Arc<LakeView>, seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            view,
            kinds: Deck::new(&MIXED_WEIGHTS),
            hot: None,
        }
    }

    pub fn search(view: Arc<LakeView>, hot: Arc<HotSet>, seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            view,
            kinds: Deck::new(&SEARCH_WEIGHTS),
            hot: Some((hot, Deck::new(&HOT_WEIGHTS))),
        }
    }

    /// Only the given kind, with `mixed` parameters (the traced run's
    /// probes for kinds a workload never sends).
    pub fn only(view: Arc<LakeView>, kind: Kind, seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            view,
            kinds: Deck::new(&[(kind, 1)]),
            hot: None,
        }
    }

    pub fn draw(&mut self) -> Drawn {
        let kind = self.kinds.deal(&mut self.rng);
        match &mut self.hot {
            None => Drawn {
                query: mixed_query(kind, &self.view, &mut self.rng),
                hot: false,
            },
            Some((set, deck)) => {
                if deck.deal(&mut self.rng) {
                    Drawn {
                        query: set.draw(kind, &mut self.rng),
                        hot: true,
                    }
                } else {
                    Drawn {
                        query: search_query(kind, &self.view, &mut self.rng),
                        hot: false,
                    }
                }
            }
        }
    }
}

/// Most ingested tables (and, separately, documents) live at once.
pub const LIVE_CAP: usize = 8;

/// One lake mutation of the `ingest` writer. Documents are named by their
/// ingest ordinal; the client maps an ordinal to the index the server
/// acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    IngestTable(Table),
    IngestDocument { ordinal: u64, document: Document },
    RemoveTable(String),
    RemoveDocument { ordinal: u64 },
}

impl WriteOp {
    pub const OPS: [&'static str; 4] = [
        "ingest_table",
        "ingest_document",
        "remove_table",
        "remove_document",
    ];

    pub fn name(&self) -> &'static str {
        match self {
            WriteOp::IngestTable(_) => "ingest_table",
            WriteOp::IngestDocument { .. } => "ingest_document",
            WriteOp::RemoveTable(_) => "remove_table",
            WriteOp::RemoveDocument { .. } => "remove_document",
        }
    }
}

/// The tables and documents the writer ingests.
pub struct Source {
    tables: Vec<Table>,
    documents: Vec<Document>,
}

impl Source {
    pub fn new(lake: &DataLake) -> Self {
        Self {
            tables: lake
                .tables()
                .iter()
                .filter(|t| lake.table_index(&t.name).is_some())
                .cloned()
                .collect(),
            documents: lake
                .document_ids()
                .map(|(_, i)| lake.documents()[i].clone())
                .collect(),
        }
    }
}

/// The `ingest` writer stream. It keeps its own view of the live ingested
/// set: at most [`LIVE_CAP`] tables and [`LIVE_CAP`] documents, so the lake
/// stays the same size however long the run is.
pub struct WriteStream {
    rng: Rng,
    source: Arc<Source>,
    tag: &'static str,
    modality: Deck<bool>,
    next_ordinal: u64,
    live_tables: Vec<String>,
    live_docs: Vec<(u64, String)>,
}

impl WriteStream {
    /// `tag` prefixes every ingested name, so streams never collide.
    pub fn new(source: Arc<Source>, tag: &'static str, seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            source,
            tag,
            modality: Deck::new(&[(true, 1), (false, 1)]),
            next_ordinal: 0,
            live_tables: Vec::new(),
            live_docs: Vec::new(),
        }
    }

    fn ingest_next(&mut self, live: usize) -> bool {
        live == 0 || (live < LIVE_CAP && self.rng.below(2) == 0)
    }

    pub fn draw(&mut self) -> WriteOp {
        let ordinal = self.next_ordinal;
        if self.modality.deal(&mut self.rng) {
            if self.ingest_next(self.live_tables.len()) {
                self.next_ordinal += 1;
                let mut table = self.rng.pick(&self.source.tables).clone();
                table.name = format!("{}{ordinal:06}_{}", self.tag, table.name);
                self.live_tables.push(table.name.clone());
                WriteOp::IngestTable(table)
            } else {
                let i = self.rng.below(self.live_tables.len());
                WriteOp::RemoveTable(self.live_tables.swap_remove(i))
            }
        } else if self.ingest_next(self.live_docs.len()) {
            self.next_ordinal += 1;
            let mut document = self.rng.pick(&self.source.documents).clone();
            document.title = format!("{}{ordinal:06} {}", self.tag, document.title);
            self.live_docs.push((ordinal, document.title.clone()));
            WriteOp::IngestDocument { ordinal, document }
        } else {
            let i = self.rng.below(self.live_docs.len());
            let (ordinal, _) = self.live_docs.swap_remove(i);
            WriteOp::RemoveDocument { ordinal }
        }
    }

    /// Removals that empty the live set (the warm-up's clean-up).
    pub fn drain(&mut self) -> Vec<WriteOp> {
        let mut ops: Vec<WriteOp> = self
            .live_tables
            .drain(..)
            .map(WriteOp::RemoveTable)
            .collect();
        ops.extend(
            self.live_docs
                .drain(..)
                .map(|(ordinal, _)| WriteOp::RemoveDocument { ordinal }),
        );
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn view() -> Arc<LakeView> {
        Arc::new(LakeView::new(&lake(7, 0)))
    }

    fn encode_query(q: &DiscoveryQuery) -> Vec<u8> {
        serde_json::to_vec(q).expect("query serializes")
    }

    #[test]
    fn lake_has_the_x4_shape() {
        let (tables, columns, rows, docs) = lake_shape(&lake(7, 0));
        assert_eq!((tables, columns, docs), (51, 138, 320));
        assert!((9_000..11_500).contains(&rows), "rows {rows}");
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let v = view();
        let hot = Arc::new(HotSet::new(&v, 7));
        let source = Arc::new(Source::new(&source_lake(7)));
        let run = || {
            let mut bytes = Vec::new();
            let mut m = QueryStream::mixed(Arc::clone(&v), 11);
            let mut s = QueryStream::search(Arc::clone(&v), Arc::clone(&hot), 11);
            let mut w = WriteStream::new(Arc::clone(&source), "m", 11);
            for _ in 0..2_000 {
                bytes.extend(encode_query(&m.draw().query));
                bytes.extend(encode_query(&s.draw().query));
                bytes.extend(format!("{:?}", w.draw()).into_bytes());
            }
            bytes
        };
        assert_eq!(run(), run());
        assert_eq!(lake_shape(&lake(7, 1)), lake_shape(&lake(7, 1)));
        let other: Vec<u8> = {
            let mut m = QueryStream::mixed(Arc::clone(&v), 12);
            (0..200)
                .flat_map(|_| encode_query(&m.draw().query))
                .collect()
        };
        let first: Vec<u8> = {
            let mut m = QueryStream::mixed(Arc::clone(&v), 11);
            (0..200)
                .flat_map(|_| encode_query(&m.draw().query))
                .collect()
        };
        assert_ne!(first, other, "different seeds give different streams");
    }

    fn shares(kinds: impl Iterator<Item = Kind>) -> BTreeMap<Kind, f64> {
        let mut counts = BTreeMap::new();
        let mut n = 0.0;
        for k in kinds {
            *counts.entry(k).or_insert(0.0) += 1.0;
            n += 1.0;
        }
        counts.into_iter().map(|(k, c)| (k, c / n)).collect()
    }

    #[test]
    fn kind_and_hot_shares_land_on_target() {
        let v = view();
        let hot = Arc::new(HotSet::new(&v, 3));
        for seed in [1, 2, 3] {
            let mut m = QueryStream::mixed(Arc::clone(&v), seed);
            let got = shares((0..10_000).map(|_| Kind::of(&m.draw().query)));
            for (kind, weight) in MIXED_WEIGHTS {
                let target = f64::from(weight) / 164.0;
                let share = got.get(&kind).copied().unwrap_or(0.0);
                assert!(
                    (share - target).abs() < 0.01,
                    "{kind:?} {share} vs {target}"
                );
            }

            let mut s = QueryStream::search(Arc::clone(&v), Arc::clone(&hot), seed);
            let drawn: Vec<Drawn> = (0..10_000).map(|_| s.draw()).collect();
            let got = shares(drawn.iter().map(|d| Kind::of(&d.query)));
            assert!((got[&Kind::Keyword] - 0.8).abs() < 0.01);
            assert!((got[&Kind::CrossModal] - 0.2).abs() < 0.01);
            let hot_share = drawn.iter().filter(|d| d.hot).count() as f64 / 10_000.0;
            assert!((hot_share - 0.3).abs() < 0.01, "hot share {hot_share}");
        }
    }

    #[test]
    fn search_repeats_hold_every_hot_and_one_term_query() {
        let v = view();
        let hot = Arc::new(HotSet::new(&v, 3));
        let repeats: std::collections::HashSet<Vec<u8>> =
            search_repeats(&v, &hot).iter().map(encode_query).collect();
        let mut s = QueryStream::search(Arc::clone(&v), Arc::clone(&hot), 5);
        let mut covered = 0;
        for _ in 0..10_000 {
            let drawn = s.draw();
            let one_term =
                matches!(&drawn.query, DiscoveryQuery::Keyword { text, .. } if !text.contains(' '));
            if drawn.hot || one_term {
                assert!(repeats.contains(&encode_query(&drawn.query)));
                covered += 1;
            }
        }
        // 30% hot, plus a third of the other keyword queries.
        let share = f64::from(covered) / 10_000.0;
        assert!((0.45..0.52).contains(&share), "covered share {share}");
    }

    #[test]
    fn ingest_live_set_stays_bounded() {
        let source = Arc::new(Source::new(&source_lake(5)));
        let mut w = WriteStream::new(source, "m", 9);
        let mut live_tables = std::collections::HashSet::new();
        let mut live_docs = std::collections::HashSet::new();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for _ in 0..10_000 {
            let op = w.draw();
            *counts.entry(op.name()).or_default() += 1;
            match op {
                WriteOp::IngestTable(t) => assert!(live_tables.insert(t.name)),
                WriteOp::RemoveTable(name) => assert!(live_tables.remove(&name)),
                WriteOp::IngestDocument { ordinal, .. } => assert!(live_docs.insert(ordinal)),
                WriteOp::RemoveDocument { ordinal } => assert!(live_docs.remove(&ordinal)),
            }
            assert!(live_tables.len() <= LIVE_CAP && live_docs.len() <= LIVE_CAP);
        }
        // Every op kind keeps a steady share, so nothing drifts with run
        // length.
        for op in WriteOp::OPS {
            let share = counts[op] as f64 / 10_000.0;
            assert!((0.2..0.3).contains(&share), "{op} share {share}");
        }
        let drained = w.drain();
        assert_eq!(drained.len(), live_tables.len() + live_docs.len());
    }
}
