//! The traced run: per-layer metrics timed from outside the program.
//!
//! Each request of a sequential pass gets an id and a root span: its
//! socket round trip on the reactor. Each inner layer's public call is then
//! replayed on the same input right after — the same request on the
//! thread-pool transport, `CmdlService::handle_json_bytes`,
//! `CatalogSnapshot::execute`, the profiler and the kernel — each as a
//! child span. A layer's self time is its span minus the next-inner span of
//! the same request. A reactor cache hit (seen as a hit-counter change)
//! gets no inner replay. Kinds the workload never sends are measured on a
//! few probe queries (spans marked `probe`, left out of the time shares),
//! and the write path is replayed on shadow catalogs, so every workload
//! reports every layer.
//!
//! Spans stay in memory and are written as JSON lines to
//! `.bench_out/spans-<workload>-<seed>.jsonl` when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmdl_core::{
    CatalogSnapshot, Cmdl, DiscoveryQuery, ElementData, JoinDiscovery, SearchMode, UnionDiscovery,
};
use cmdl_datalake::{DeId, DeKind};
use cmdl_index::ScoringFunction;
use cmdl_server::{
    route_envelope, serve, serve_reactor, CmdlService, HttpConfig, ResponsePayload, ServiceMetrics,
};

use crate::client::Conn;
use crate::gen::{self, Kind, QueryStream, WriteOp};
use crate::load::{self, Inputs, Workload};
use crate::{metric, Metric, Report};

/// The traced run keeps the last set-up serving, and its lake.
const LAKE: usize = load::SETUPS - 1;

/// Requests in the traced (and the untraced reference) pass.
fn prefix_len(workload: Workload) -> usize {
    match workload {
        Workload::Mixed => 1_000,
        Workload::Search | Workload::Ingest => 2_000,
    }
}

/// Each query kind is timed at least this often (probes fill the gap).
const MIN_PER_KIND: usize = 12;

/// Writes replayed on the shadow catalogs.
const SHADOW_WRITES: usize = 96;

/// The shadow catalogs compact every this many writes.
const COMPACT_EVERY: usize = 32;

struct Span {
    request: u64,
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    kind: Option<&'static str>,
    probe: bool,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    samples: Samples,
}

impl Tracer {
    fn span<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            request,
            name,
            parent,
            start,
            end,
            kind: None,
            probe: false,
        });
        (out, self.spans.len() - 1)
    }

    fn micros(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        (s.end - s.start).as_nanos() as f64 / 1e3
    }

    /// Record a span's duration, in microseconds, as a sample of `key`.
    fn record(&mut self, key: impl Into<String>, span: usize) {
        let us = self.micros(span);
        self.samples.push(key, us);
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"kind\":{},\"probe\":{}}}",
                s.request,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.kind.map_or("null".to_string(), |k| format!("\"{k}\"")),
                s.probe,
            )?;
        }
        out.flush()
    }
}

/// Samples of one per-layer quantity, in microseconds (or its own unit).
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    fn get(&mut self, name: &str) -> &mut Vec<f64> {
        self.0.entry(name.to_string()).or_default()
    }

    fn quantile(&mut self, name: &str, q: f64) -> f64 {
        let v = self.get(name);
        v.sort_by(f64::total_cmp);
        load::quantile(v, q)
    }

    fn count(&mut self, name: &str) -> usize {
        self.get(name).len()
    }

    fn sum(&mut self, name: &str) -> f64 {
        self.get(name).iter().fold(0.0, |a, b| a + b)
    }
}

/// Reactor counters read around the closed-loop window.
#[derive(Clone, Copy)]
struct Counters {
    hits: u64,
    misses: u64,
    evicted: u64,
    invalidated: u64,
    batches: u64,
    coalesced: u64,
}

impl Counters {
    fn read(m: &ServiceMetrics) -> Self {
        Self {
            hits: m.cache_hits_total(),
            misses: m.cache_misses_total(),
            evicted: m.cache_evicted_total(),
            invalidated: m.cache_invalidated_total(),
            batches: m.coalesce_batches_total(),
            coalesced: m.coalesce_queries_total(),
        }
    }
}

fn probe_depth(fetch: usize) -> usize {
    // The cross-modal probe depth of `CatalogSnapshot::execute`.
    fetch.saturating_mul(6).max(20)
}

/// Replay the inner layers of one query under `parent`, returning its
/// `service` span.
fn replay_inner(
    tracer: &mut Tracer,
    request: u64,
    parent: Option<usize>,
    service: &CmdlService,
    snapshot: &CatalogSnapshot,
    query: &DiscoveryQuery,
    probe: bool,
) -> Result<usize, String> {
    let kind = Kind::of(query);
    let envelope = format!(
        "{{\"Query\":{}}}",
        String::from_utf8_lossy(&load::query_path(query))
    );
    let (body, service_span) = tracer.span(request, "service", parent, || {
        service.handle_json_bytes(envelope.as_bytes())
    });
    if body.is_empty() {
        return Err("service returned an empty body".to_string());
    }
    let (response, query_span) = tracer.span(request, "query", Some(service_span), || {
        snapshot.execute(query)
    });
    response.map_err(|e| format!("execute failed: {e}"))?;
    let fetch = query.options().offset + query.options().top_k;
    let inner = |tracer: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| {
        tracer.span(request, name, Some(query_span), f).1
    };
    let mut kernel_spans = Vec::new();
    match query {
        DiscoveryQuery::Keyword { text, mode, .. } => {
            let mut bow = None;
            let p = inner(tracer, "profile", &mut || {
                bow = Some(snapshot.profiler.profile_query_text(text).0)
            });
            tracer.record("profile.query_text_us", p);
            let bow = bow.expect("profiled");
            let scope = match mode {
                SearchMode::Text => Some(DeKind::Document),
                SearchMode::Tables => Some(DeKind::Column),
                SearchMode::All => None,
            };
            kernel_spans.push((
                "bm25.search_us",
                inner(tracer, "bm25", &mut || {
                    std::hint::black_box(snapshot.indexes.content_search(
                        &snapshot.profiled,
                        &bow,
                        scope,
                        fetch,
                        ScoringFunction::default(),
                    ));
                }),
            ));
        }
        DiscoveryQuery::CrossModalText { text, .. } => {
            let mut solo = None;
            let p = inner(tracer, "profile", &mut || {
                solo = Some(snapshot.profiler.profile_query_text(text).1)
            });
            tracer.record("profile.query_text_us", p);
            let model = snapshot.joint.as_ref().ok_or("joint model not trained")?;
            let vector = model.embed(&solo.expect("profiled"));
            kernel_spans.push((
                "ann.search_us",
                inner(tracer, "ann", &mut || {
                    std::hint::black_box(
                        snapshot.indexes.joint_search(&vector, probe_depth(fetch)),
                    );
                }),
            ));
        }
        DiscoveryQuery::JoinableTable { table, .. } => {
            kernel_spans.push((
                "join.joinable_tables_us",
                inner(tracer, "join.joinable_tables", &mut || {
                    let discovery = JoinDiscovery::new(&snapshot.profiled, &snapshot.config);
                    std::hint::black_box(discovery.joinable_tables(table, fetch));
                }),
            ));
        }
        DiscoveryQuery::Unionable { table, .. } => {
            kernel_spans.push((
                "union.unionable_tables_us",
                inner(tracer, "union.unionable_tables", &mut || {
                    let discovery = UnionDiscovery::new(&snapshot.profiled, &snapshot.config);
                    std::hint::black_box(discovery.unionable_tables(table, fetch));
                }),
            ));
        }
        DiscoveryQuery::PkFk { .. } => {
            kernel_spans.push((
                "join.pkfk_us",
                inner(tracer, "join.pkfk", &mut || {
                    let c = &snapshot.config;
                    let discovery = JoinDiscovery::new(&snapshot.profiled, c);
                    std::hint::black_box(discovery.pkfk_links_weighted(
                        c.pkfk_containment_weight,
                        c.pkfk_name_weight,
                        c.pkfk_uniqueness_weight,
                    ));
                }),
            ));
        }
        other => return Err(format!("the streams never send {}", other.kind())),
    }
    for (name, span) in kernel_spans {
        tracer.record(name, span);
    }
    let exec = tracer.micros(query_span);
    let service_self = tracer.micros(service_span) - exec;
    let samples = &mut tracer.samples;
    samples.push(format!("query.exec_us.{}", kind.name()), exec);
    samples.push("service.self_us", service_self);
    if !probe {
        samples.push(format!("stream.exec_us.{}", kind.name()), exec);
    }
    for span in &mut tracer.spans[parent.unwrap_or(service_span)..] {
        span.kind = Some(kind.name());
        span.probe = probe;
    }
    Ok(service_span)
}

/// Set up [`load::SETUPS`] times and keep the last catalog serving.
fn setups(inputs: &Inputs) -> Result<(load::Served, Vec<load::SetupTimes>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for index in 0..load::SETUPS {
        let (served, t) = load::setup(inputs, index)?;
        times.push(t);
        if let Some(previous) = kept.replace(served) {
            load::Served::close(previous);
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

pub fn run(inputs: &Inputs, seconds: u64) -> Result<Report, String> {
    let workload = inputs.workload;
    let (served, setup_times) = setups(inputs)?;
    let service = Arc::clone(&served.service);

    // The reactor's own counters need concurrent load: read them around
    // the same closed-loop window the untraced run measures.
    let before = Counters::read(service.metrics());
    let length = Duration::from_secs_f64(seconds as f64 / load::SETUPS as f64);
    let mut window = load::window(inputs, &served, length, LAKE);
    let after = Counters::read(service.metrics());
    let mut problems = std::mem::take(&mut window.problems);
    let writes_acked = window.writer.as_ref().map_or(0, |w| w.acked);

    // The traced prefix of the workload's own read stream, and an
    // untraced pass over it on a fresh reactor (an empty cache) for the
    // overhead reference.
    let mut stream = inputs.reads("trace", 0, LAKE);
    let prefix: Vec<DiscoveryQuery> = (0..prefix_len(workload))
        .map(|_| stream.draw().query)
        .collect();
    let bodies: Vec<Vec<u8>> = prefix.iter().map(load::query_path).collect();
    let mut untraced = Vec::with_capacity(prefix.len());
    {
        let reactor = serve_reactor(Arc::clone(&service), workload.reactor_config())
            .map_err(|e| format!("bind the reactor: {e}"))?;
        let mut conn = Conn::connect(reactor.addr()).map_err(|e| format!("connect: {e}"))?;
        for body in &bodies {
            let sent = Instant::now();
            let status = conn
                .call("POST", "/query", body)
                .map_err(|e| format!("untraced pass: {e}"))?;
            untraced.push(sent.elapsed().as_nanos() as f64 / 1e3);
            if status != 200 {
                problems.push(format!("untraced pass answered {status}"));
            }
        }
        drop(conn);
        reactor.shutdown();
    }

    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        samples: Samples::default(),
    };
    let reactor = serve_reactor(Arc::clone(&service), workload.reactor_config())
        .map_err(|e| format!("bind the reactor: {e}"))?;
    let pool = serve(
        Arc::clone(&service),
        HttpConfig {
            threads: load::CONNECTIONS,
            queue_capacity: load::CONNECTIONS,
            ..HttpConfig::default()
        },
    )
    .map_err(|e| format!("bind the thread pool: {e}"))?;
    let snapshot = service.snapshot();
    let mut per_kind: HashMap<Kind, usize> = HashMap::new();
    let mut hits = 0usize;
    {
        let mut conn = Conn::connect(reactor.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut pool_conn = Conn::connect(pool.addr()).map_err(|e| format!("connect: {e}"))?;
        for (request, (query, body)) in prefix.iter().zip(&bodies).enumerate() {
            let request = request as u64;
            let hits_before = service.metrics().cache_hits_total();
            let (status, root) = tracer.span(request, "reactor", None, || {
                conn.call("POST", "/query", body)
            });
            tracer.spans[root].kind = Some(Kind::of(query).name());
            let status = status.map_err(|e| format!("traced pass: {e}"))?;
            if status != 200 {
                problems.push(format!("traced pass answered {status}"));
                continue;
            }
            tracer
                .samples
                .push("service.envelope_bytes", conn.body.len() as f64);
            tracer.record("reactor.rt_us", root);
            let rt = tracer.micros(root);
            if service.metrics().cache_hits_total() > hits_before {
                hits += 1;
                tracer.samples.push("reactor.self_us", rt);
                continue;
            }
            let (pool_status, http) = tracer.span(request, "http", Some(root), || {
                pool_conn.call("POST", "/query", body)
            });
            if pool_status.map_err(|e| format!("pool replay: {e}"))? != 200 {
                problems.push("pool replay failed".to_string());
            }
            let service_span = replay_inner(
                &mut tracer,
                request,
                Some(root),
                &service,
                &snapshot,
                query,
                false,
            )?;
            let service_us = tracer.micros(service_span);
            let http_us = tracer.micros(http);
            tracer.samples.push("reactor.self_us", rt - service_us);
            tracer.samples.push("http.self_us", http_us - service_us);
            *per_kind.entry(Kind::of(query)).or_default() += 1;
        }
    }
    pool.shutdown();
    reactor.shutdown();

    // Probes: kinds the prefix sent too rarely to time.
    let mut request = prefix.len() as u64;
    for (i, kind) in Kind::ALL.into_iter().enumerate() {
        let have = per_kind.get(&kind).copied().unwrap_or(0);
        let mut probes = QueryStream::only(
            Arc::clone(&inputs.lakes[LAKE].view),
            kind,
            gen::sub_seed(inputs.seed, "probe", i as u64),
        );
        for _ in have..MIN_PER_KIND {
            let query = probes.draw().query;
            replay_inner(
                &mut tracer,
                request,
                None,
                &service,
                &snapshot,
                &query,
                true,
            )?;
            request += 1;
        }
    }
    drop(snapshot);

    // The write path, on shadow catalogs.
    let shadow = shadow_writes(inputs, &mut tracer, request)?;

    if let Some(writer) = &window.writer {
        problems.extend(load::check_durable(served, writer));
    } else {
        load::Served::close(served);
    }

    let out = std::path::PathBuf::from(".bench_out");
    let span_file = out.join(format!("spans-{}-{}.jsonl", workload.name(), inputs.seed));
    std::fs::create_dir_all(&out)
        .and_then(|_| tracer.write(&span_file))
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;

    // Metrics.
    let mut samples = std::mem::take(&mut tracer.samples);
    let mut m: Vec<Metric> = Vec::new();
    let mut counts: Vec<(String, usize)> = Vec::new();
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let hit = d(after.hits, before.hits);
    let miss = d(after.misses, before.misses);
    m.push(metric(
        "reactor.self_us.p50",
        samples.quantile("reactor.self_us", 0.5),
        "us",
    ));
    m.push(metric(
        "reactor.self_us.p99",
        samples.quantile("reactor.self_us", 0.99),
        "us",
    ));
    counts.push(("reactor".into(), samples.count("reactor.self_us")));
    m.push(metric(
        "reactor.cache_hit_ratio",
        hit / (hit + miss).max(1.0),
        "ratio",
    ));
    m.push(metric(
        "reactor.cache_evicted",
        d(after.evicted, before.evicted),
        "count",
    ));
    m.push(metric(
        "reactor.cache_invalidated_per_write",
        d(after.invalidated, before.invalidated) / (writes_acked.max(1) as f64),
        "count",
    ));
    m.push(metric(
        "reactor.coalesce_batch_mean",
        d(after.coalesced, before.coalesced) / d(after.batches, before.batches).max(1.0),
        "count",
    ));
    m.push(metric(
        "http.self_us.p50",
        samples.quantile("http.self_us", 0.5),
        "us",
    ));
    m.push(metric(
        "http.self_us.p99",
        samples.quantile("http.self_us", 0.99),
        "us",
    ));
    counts.push(("http".into(), samples.count("http.self_us")));
    m.push(metric(
        "service.self_us",
        samples.quantile("service.self_us", 0.5),
        "us",
    ));
    counts.push(("service".into(), samples.count("service.self_us")));
    m.push(metric(
        "service.envelope_bytes",
        samples.quantile("service.envelope_bytes", 0.5),
        "bytes",
    ));
    for op in WriteOp::OPS {
        let key = format!("service.write_us.{op}");
        m.push(metric(
            format!("{key}.p50"),
            samples.quantile(&key, 0.5),
            "us",
        ));
        m.push(metric(
            format!("{key}.p99"),
            samples.quantile(&key, 0.99),
            "us",
        ));
        counts.push((key.clone(), samples.count(&key)));
    }
    let stream_total: f64 = Kind::ALL
        .iter()
        .map(|k| samples.sum(&format!("stream.exec_us.{}", k.name())))
        .sum();
    for kind in Kind::ALL {
        let k = kind.name();
        let key = format!("query.exec_us.{k}");
        m.push(metric(
            format!("{key}.p50"),
            samples.quantile(&key, 0.5),
            "us",
        ));
        m.push(metric(
            format!("{key}.p99"),
            samples.quantile(&key, 0.99),
            "us",
        ));
        counts.push((key.clone(), samples.count(&key)));
        m.push(metric(
            format!("query.time_share.{k}"),
            samples.sum(&format!("stream.exec_us.{k}")) / stream_total.max(1e-9),
            "share",
        ));
    }
    for key in [
        "profile.query_text_us",
        "profile.element_us",
        "bm25.search_us",
        "ann.search_us",
        "join.joinable_tables_us",
        "join.pkfk_us",
        "union.unionable_tables_us",
    ] {
        m.push(metric(key, samples.quantile(key, 0.5), "us"));
        counts.push((key.to_string(), samples.count(key)));
    }
    for op in WriteOp::OPS {
        for family in ["core.apply_us", "core.apply_pinned_us"] {
            let key = format!("{family}.{op}");
            m.push(metric(key.clone(), samples.quantile(&key, 0.5), "us"));
            counts.push((key.clone(), samples.count(&key)));
        }
    }
    for key in [
        "indexes.compact_us",
        "persist.wal_us",
        "persist.checkpoint_us",
    ] {
        m.push(metric(key, samples.quantile(key, 0.5), "us"));
        counts.push((key.to_string(), samples.count(key)));
    }
    m.push(metric(
        "persist.bytes_per_write",
        shadow.bytes_per_write,
        "bytes",
    ));

    let stage = |f: fn(&load::SetupTimes) -> f64| {
        let mut v: Vec<f64> = setup_times.iter().map(f).collect();
        load::median(&mut v)
    };
    let (build_s, open_s) = match workload {
        Workload::Ingest => (shadow.build_s, stage(|t| t.catalog)),
        _ => (stage(|t| t.catalog), shadow.open_s),
    };
    m.push(metric("setup.lake_s", stage(|t| t.lake), "s"));
    m.push(metric("setup.build_s", build_s, "s"));
    m.push(metric("setup.joint_s", stage(|t| t.joint), "s"));
    m.push(metric("setup.open_s", open_s, "s"));
    m.push(metric("setup.warmup_s", stage(|t| t.warmup), "s"));

    let untraced_p50 = load::median(&mut untraced);
    let traced_p50 = samples.quantile("reactor.rt_us", 0.5);
    m.push(metric(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50.max(1e-9) - 1.0) * 100.0,
        "%",
    ));

    let mut lines = vec![format!(
        "traced run: workload {} seed {} prefix {} requests ({} reactor cache hits), {} probe kinds, {} shadow writes; spans in {}",
        workload.name(),
        inputs.seed,
        prefix.len(),
        hits,
        Kind::ALL.iter().filter(|k| per_kind.get(k).copied().unwrap_or(0) < MIN_PER_KIND).count(),
        SHADOW_WRITES,
        span_file.display(),
    )];
    lines.push(format!(
        "reactor round trip p50: traced {traced_p50:.1} us, untraced {untraced_p50:.1} us"
    ));
    lines.push("call counts:".to_string());
    for (name, n) in counts {
        lines.push(format!("  {name:<44} n={n}"));
    }
    Ok(Report {
        lines,
        metrics: m,
        problems,
        attempted: window.attempted,
        failed: window.failed,
    })
}

struct ShadowSummary {
    bytes_per_write: f64,
    build_s: f64,
    open_s: f64,
}

/// Replay a prefix of the writer stream on four shadow catalogs built like
/// the served one: in memory; in memory with a snapshot pinned across
/// every write; durable; and behind an in-memory `CmdlService`.
fn shadow_writes(
    inputs: &Inputs,
    tracer: &mut Tracer,
    first_request: u64,
) -> Result<ShadowSummary, String> {
    let config = gen::cmdl_config();
    let built = || {
        let mut cmdl = Cmdl::build(gen::lake(inputs.seed, LAKE), config.clone());
        cmdl.train_joint(None);
        cmdl
    };
    let start = Instant::now();
    let mut plain = Cmdl::build(gen::lake(inputs.seed, LAKE), config.clone());
    let build_s = start.elapsed().as_secs_f64();
    plain.train_joint(None);
    let mut pinned = built();
    let service = CmdlService::new(built());
    let dir = inputs.work.join("shadow-durable");
    let _ = std::fs::remove_dir_all(&dir);
    let lake = gen::lake(inputs.seed, LAKE);
    let start = Instant::now();
    let mut durable = Cmdl::open(&dir, config, move || lake)
        .map_err(|e| format!("open shadow {}: {e}", dir.display()))?;
    let open_s = start.elapsed().as_secs_f64();
    durable.train_joint(None);

    // Document ordinal -> index, per shadow (service, plain, pinned, durable).
    let mut docs: [HashMap<u64, (usize, String)>; 4] = Default::default();
    let mut stream = inputs.writes("shadow", 0, "m");
    let mut wchar = 0.0;
    for i in 0..SHADOW_WRITES {
        let request = first_request + i as u64;
        let op = stream.draw();
        let name = op.name();

        // Profiler cost of the elements the write brings in.
        let profiler = plain.profiler().clone();
        match &op {
            WriteOp::IngestTable(table) => {
                for (c, column) in table.columns.iter().enumerate() {
                    let (_, span) = tracer.span(request, "profile.element", None, || {
                        std::hint::black_box(profiler.profile_element(
                            DeId(u64::MAX - c as u64),
                            ElementData::Column {
                                table_name: &table.name,
                                column,
                                table_rows: table.num_rows(),
                            },
                        ));
                    });
                    tracer.record("profile.element_us", span);
                }
            }
            WriteOp::IngestDocument { document, .. } => {
                let raw = profiler.doc_pipeline().process(&document.text);
                let df = &plain.profiled.doc_df;
                let (_, span) = tracer.span(request, "profile.element", None, || {
                    std::hint::black_box(profiler.profile_element(
                        DeId(u64::MAX),
                        ElementData::Document { document, raw, df },
                    ));
                });
                tracer.record("profile.element_us", span);
            }
            _ => {}
        }

        let (path, body) =
            load::write_request(&op, &docs[0]).ok_or("shadow write names an unknown document")?;
        let envelope = route_envelope("POST", path, &String::from_utf8_lossy(&body))
            .expect("write routes exist");
        let (response, span) = tracer.span(request, "service.write", None, || {
            service.handle_json(envelope.as_bytes())
        });
        tracer.record(format!("service.write_us.{name}"), span);
        match (&op, response.payload) {
            (
                WriteOp::IngestDocument { ordinal, document },
                Some(ResponsePayload::IngestedDocument {
                    document: index, ..
                }),
            ) => {
                docs[0].insert(*ordinal, (index, document.title.clone()));
            }
            (_, None) => {
                return Err(format!(
                    "shadow service rejected {name}: {:?}",
                    response.error
                ))
            }
            _ => {}
        }

        let apply = |tracer: &mut Tracer,
                     cmdl: &mut Cmdl,
                     docs: &mut HashMap<u64, (usize, String)>,
                     span_name: &'static str,
                     pin: bool|
         -> Result<f64, String> {
            let held = pin.then(|| cmdl.snapshot());
            let (result, span) =
                tracer.span(request, span_name, None, || apply_op(cmdl, &op, docs));
            drop(held);
            result?;
            Ok(tracer.micros(span))
        };
        let [_, plain_docs, pinned_docs, durable_docs] = &mut docs;
        let mem = apply(tracer, &mut plain, plain_docs, "core.apply", false)?;
        tracer.samples.push(format!("core.apply_us.{name}"), mem);
        let pin = apply(tracer, &mut pinned, pinned_docs, "core.apply_pinned", true)?;
        tracer
            .samples
            .push(format!("core.apply_pinned_us.{name}"), pin);
        let io_before = load::proc_field("/proc/self/io", "wchar:").unwrap_or(0.0);
        let dur = apply(
            tracer,
            &mut durable,
            durable_docs,
            "persist.apply_durable",
            false,
        )?;
        wchar += load::proc_field("/proc/self/io", "wchar:").unwrap_or(0.0) - io_before;
        tracer.samples.push("persist.wal_us", dur - mem);

        if (i + 1) % COMPACT_EVERY == 0 {
            let (_, mem) = tracer.span(request, "indexes.compact", None, || plain.compact());
            let (_, dur) = tracer.span(request, "persist.compact_durable", None, || {
                durable.compact()
            });
            let mem = tracer.micros(mem);
            let dur = tracer.micros(dur);
            tracer.samples.push("indexes.compact_us", mem);
            tracer.samples.push("persist.checkpoint_us", dur - mem);
        }
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ShadowSummary {
        bytes_per_write: wchar / SHADOW_WRITES as f64,
        build_s,
        open_s,
    })
}

fn apply_op(
    cmdl: &mut Cmdl,
    op: &WriteOp,
    docs: &mut HashMap<u64, (usize, String)>,
) -> Result<(), String> {
    let result = match op {
        WriteOp::IngestTable(table) => cmdl.ingest_table(table.clone()).map(drop),
        WriteOp::IngestDocument { ordinal, document } => {
            cmdl.ingest_document(document.clone()).map(|index| {
                docs.insert(*ordinal, (index, document.title.clone()));
            })
        }
        WriteOp::RemoveTable(name) => cmdl.remove_table(name).map(drop),
        WriteOp::RemoveDocument { ordinal } => {
            let (index, _) = docs
                .remove(ordinal)
                .ok_or("removal of a document the shadow never ingested")?;
            cmdl.remove_document(index)
        }
    };
    result.map_err(|e| format!("shadow {}: {e}", op.name()))
}
