//! Set-up, closed-loop load and output checks.
//!
//! A run sets the catalog up several times (see [`setup_seconds`]). Each
//! set-up serves one share of the timed window, driven from two client
//! threads over loopback, each sending its next request only after the
//! previous reply.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cmdl_core::{Cmdl, DiscoveryQuery, QueryResponse, RecoveryReport};
use cmdl_server::reactor::cache::CacheConfig;
use cmdl_server::{
    serve_reactor, CmdlService, ReactorConfig, ReactorHandle, ResponsePayload, ServiceResponse,
};

use crate::client::Conn;
use crate::gen::{self, Drawn, HotSet, LakeView, QueryStream, Source, WriteOp, WriteStream};

/// Client connections (one thread each): the host has two cores.
pub const CONNECTIONS: usize = 2;

/// Set-ups per run (see [`setup_seconds`]).
pub const SETUPS: usize = 5;

/// Length of the sub-windows a timed window is cut into for selection
/// on host CPU steal (see [`window_stats`]): short enough to cut around
/// the host's shorter bursts, long enough to read steal to about 1%
/// (`/proc/stat` counts in 10 ms ticks).
const SUB_WINDOW: Duration = Duration::from_millis(500);

/// How many equal sub-windows of about [`SUB_WINDOW`] a timed window of
/// `length` is cut into.
fn sub_windows(length: Duration) -> usize {
    ((length.as_nanos() / SUB_WINDOW.as_nanos()) as usize).max(1)
}

/// Every `SAMPLE_EVERY`-th read of a connection is checked against an
/// in-process `CatalogSnapshot::execute`.
pub const SAMPLE_EVERY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mixed,
    Search,
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "mixed" => Some(Workload::Mixed),
            "search" => Some(Workload::Search),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::Search => "search",
            Workload::Ingest => "ingest",
        }
    }

    /// `mixed` runs with the result cache off, so every query reaches the
    /// engine; the other two run the reactor's default cache.
    pub fn reactor_config(self) -> ReactorConfig {
        let cache = match self {
            Workload::Mixed => CacheConfig {
                enabled: false,
                ..CacheConfig::default()
            },
            _ => CacheConfig::default(),
        };
        ReactorConfig {
            cache,
            ..ReactorConfig::default()
        }
    }

    /// Reads per connection in the untimed warm-up pass. It fills the
    /// thread-local word-vector caches of the executor and rayon threads;
    /// on `search` it sends the whole of [`gen::search_repeats`] instead,
    /// which also brings the result cache to its steady state. (On `ingest`
    /// every write empties the result cache, so there is no state to
    /// reach.)
    fn warmup_reads(self) -> usize {
        match self {
            Workload::Mixed => 328,
            Workload::Search => usize::MAX,
            Workload::Ingest => 500,
        }
    }
}

/// Connections of the `search` warm-up. With more connections than cores,
/// the pass is bound by the work of its cache misses rather than by
/// round-trip wake-ups, which vary much more with the host's load.
const PRIME_CONNECTIONS: usize = 8;

/// Warm-up writes on `ingest` (then drained, so the lake is back to its
/// base size when timing starts).
const WARMUP_WRITES: usize = 24;

/// The stream inputs drawn from one served lake.
pub struct LakeInputs {
    pub view: Arc<LakeView>,
    pub hot: Arc<HotSet>,
    /// Tables, columns, rows and documents.
    pub shape: (usize, usize, usize, usize),
}

/// The seeded inputs of a run, derived before any timing starts. Set-up
/// `i` serves lake `i`, so a run's figures average over [`SETUPS`] lakes
/// rather than hang on one.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub lakes: Vec<LakeInputs>,
    pub source: Arc<Source>,
    pub work: PathBuf,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64, work: PathBuf) -> Self {
        let lakes = (0..SETUPS)
            .map(|index| {
                let lake = gen::lake(seed, index);
                let view = Arc::new(LakeView::new(&lake));
                let hot = Arc::new(HotSet::new(&view, gen::sub_seed(seed, "hot", index as u64)));
                LakeInputs {
                    view,
                    hot,
                    shape: gen::lake_shape(&lake),
                }
            })
            .collect();
        Self {
            workload,
            seed,
            lakes,
            source: Arc::new(Source::new(&gen::source_lake(seed))),
            work,
        }
    }

    /// Read stream number `stream` of `pass` ("run", "warmup", "trace"),
    /// with parameters drawn from lake `lake`.
    pub fn reads(&self, pass: &str, stream: u64, lake: usize) -> QueryStream {
        let seed = gen::sub_seed(self.seed, pass, stream);
        let lake = &self.lakes[lake];
        match self.workload {
            Workload::Mixed => QueryStream::mixed(Arc::clone(&lake.view), seed),
            _ => QueryStream::search(Arc::clone(&lake.view), Arc::clone(&lake.hot), seed),
        }
    }

    /// Write stream number `stream` of `pass`.
    pub fn writes(&self, pass: &str, stream: u64, tag: &'static str) -> WriteStream {
        WriteStream::new(
            Arc::clone(&self.source),
            tag,
            gen::sub_seed(self.seed, &format!("{pass}-writes"), stream),
        )
    }
}

/// Stage times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub lake: f64,
    /// `Cmdl::build` (in memory) or `Cmdl::open` on a fresh directory.
    pub catalog: f64,
    pub joint: f64,
    pub serve: f64,
    pub warmup: f64,
    pub total: f64,
    /// Host CPU steal share over the whole set-up.
    pub steal: f64,
}

/// `setup_s`: the median total of the half of the set-ups (rounded up)
/// with the least host CPU steal, for the reason given at
/// [`window_stats`].
pub fn setup_seconds(times: &[SetupTimes]) -> f64 {
    let mut by_steal = times.to_vec();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let mut totals: Vec<f64> = by_steal[..times.len().div_ceil(2)]
        .iter()
        .map(|t| t.total)
        .collect();
    median(&mut totals)
}

pub struct Served {
    pub service: Arc<CmdlService>,
    pub reactor: ReactorHandle,
    pub dir: Option<PathBuf>,
}

impl Served {
    /// Shut the front end down (acknowledged writes are flushed) and drop
    /// the catalog, so its directory can be reopened.
    pub fn close(self) -> Option<PathBuf> {
        let Served {
            service,
            reactor,
            dir,
        } = self;
        reactor.shutdown();
        service.flush();
        drop(service);
        dir
    }
}

/// One full set-up: generate the lake, build (or durably open) the
/// catalog, train the joint model, serve it, and run the warm-up pass.
pub fn setup(inputs: &Inputs, index: usize) -> Result<(Served, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let ticks = cpu_ticks();
    let start = Instant::now();
    let lake = gen::lake(inputs.seed, index);
    times.lake = start.elapsed().as_secs_f64();

    let mark = Instant::now();
    let (mut cmdl, dir) = match inputs.workload {
        Workload::Ingest => {
            let dir = inputs.work.join(format!("lake-{index}"));
            let _ = std::fs::remove_dir_all(&dir);
            let cmdl = Cmdl::open(&dir, gen::cmdl_config(), move || lake)
                .map_err(|e| format!("open {}: {e}", dir.display()))?;
            (cmdl, Some(dir))
        }
        _ => (Cmdl::build(lake, gen::cmdl_config()), None),
    };
    times.catalog = mark.elapsed().as_secs_f64();

    let mark = Instant::now();
    cmdl.train_joint(None);
    times.joint = mark.elapsed().as_secs_f64();

    let mark = Instant::now();
    let service = Arc::new(CmdlService::new(cmdl));
    let reactor = serve_reactor(Arc::clone(&service), inputs.workload.reactor_config())
        .map_err(|e| format!("bind the reactor on loopback: {e}"))?;
    times.serve = mark.elapsed().as_secs_f64();

    let served = Served {
        service,
        reactor,
        dir,
    };
    let mark = Instant::now();
    let warm = warmup(inputs, &served, index);
    times.warmup = mark.elapsed().as_secs_f64();
    times.total = start.elapsed().as_secs_f64();
    times.steal = steal_share(&ticks, &cpu_ticks());
    if !warm.correct() || warm.failed > 0 {
        return Err(format!(
            "warm-up pass failed: {} failed requests, {}",
            warm.failed,
            warm.problems.join("; ")
        ));
    }
    Ok((served, times))
}

fn warmup(inputs: &Inputs, served: &Served, index: usize) -> Outcome {
    let roles: Vec<Role> = match inputs.workload {
        Workload::Mixed => (0..CONNECTIONS as u64)
            .map(|conn| Role::Reader(inputs.reads("warmup", conn, index)))
            .collect(),
        Workload::Search => {
            let lake = &inputs.lakes[index];
            let mut parts = vec![Vec::new(); PRIME_CONNECTIONS];
            for (i, query) in gen::search_repeats(&lake.view, &lake.hot)
                .into_iter()
                .enumerate()
            {
                parts[i % PRIME_CONNECTIONS].push(query);
            }
            parts.into_iter().map(Role::Replay).collect()
        }
        Workload::Ingest => vec![
            Role::Writer(inputs.writes("warmup", 0, "w")),
            Role::Reader(inputs.reads("warmup", 1, index)),
        ],
    };
    let mut outcome = drive(
        served,
        roles,
        Length::Count {
            reads: inputs.workload.warmup_reads(),
            writes: WARMUP_WRITES,
        },
        inputs.workload == Workload::Ingest,
    );
    outcome.check_samples(&served.service);
    outcome
}

/// How long a load pass runs: a timed window, or a count of requests.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// A timed window cut into `per` equal sub-windows.
    Window {
        length: Duration,
        per: usize,
    },
    Count {
        reads: usize,
        writes: usize,
    },
}

impl Length {
    /// Whether a connection that started at `start` and has sent `count`
    /// requests (reads, or writes when not `reader`) is done.
    fn done(self, start: Instant, count: usize, reader: bool) -> bool {
        match self {
            Length::Window { length, .. } => start.elapsed() >= length,
            Length::Count { reads, writes } => count >= if reader { reads } else { writes },
        }
    }

    /// The sub-window a read completing now falls in.
    fn bucket(self, start: Instant) -> u16 {
        match self {
            Length::Window { length, per } => {
                let per = per as u128;
                let i = start.elapsed().as_nanos() * per / length.as_nanos().max(1);
                i.min(per - 1) as u16
            }
            Length::Count { .. } => 0,
        }
    }
}

/// One completed read: its sub-window and its latency in nanoseconds.
pub type Read = (u16, u32);

pub enum Role {
    Reader(QueryStream),
    /// A fixed list of reads, sent once.
    Replay(Vec<DiscoveryQuery>),
    Writer(WriteStream),
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    reads: Vec<Read>,
    write_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    samples: Vec<(DiscoveryQuery, QueryResponse)>,
    parity_checked: u64,
    writer: Option<WriterLog>,
    hot_reads: u64,
}

/// The writer's view of what the server acknowledged.
#[derive(Default)]
pub struct WriterLog {
    pub live_tables: HashSet<String>,
    pub live_docs: HashMap<u64, (usize, String)>,
    pub acked: u64,
}

/// Results of a load pass over all connections.
#[derive(Default)]
pub struct Outcome {
    pub reads: Vec<Read>,
    pub write_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub parity_checked: u64,
    pub hot_reads: u64,
    pub seconds: f64,
    /// Host CPU steal share of each sub-window of a timed window.
    pub steal: Vec<f64>,
    pub writer: Option<WriterLog>,
    samples: Vec<(DiscoveryQuery, QueryResponse)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Check the deferred samples against the currently published
    /// generation (reads-only workloads never change it).
    pub fn check_samples(&mut self, service: &CmdlService) {
        let snapshot = service.snapshot();
        for (query, served) in std::mem::take(&mut self.samples) {
            if let Some(problem) = parity(&snapshot, &query, &served) {
                self.problems.push(problem);
            }
            self.parity_checked += 1;
        }
    }
}

/// Compare a served query response with an in-process execution on the
/// same generation: the same hits and bit-identical scores, ignoring only
/// the execution time.
pub fn parity(
    snapshot: &cmdl_core::CatalogSnapshot,
    query: &DiscoveryQuery,
    served: &QueryResponse,
) -> Option<String> {
    if served.generation != snapshot.generation {
        return Some(format!(
            "sample served at generation {} checked against {}",
            served.generation, snapshot.generation
        ));
    }
    let local = match snapshot.execute(query) {
        Ok(local) => local,
        Err(e) => return Some(format!("in-process execute failed: {e}")),
    };
    let same_bits = served.hits.len() == local.hits.len()
        && served
            .hits
            .iter()
            .zip(&local.hits)
            .all(|(a, b)| a.score.to_bits() == b.score.to_bits() && a.element == b.element);
    let mut a = served.clone();
    let mut b = local;
    a.elapsed_micros = 0;
    b.elapsed_micros = 0;
    if same_bits && a == b {
        None
    } else {
        Some(format!(
            "served response differs from execute for {query:?}"
        ))
    }
}

/// Run one load pass: one client thread per role, all released together.
pub fn drive(served: &Served, roles: Vec<Role>, length: Length, inline_samples: bool) -> Outcome {
    let addr = served.reactor.addr();
    // The window starts when every client has connected.
    let start = Arc::new(std::sync::OnceLock::new());
    let barrier = Arc::new(Barrier::new(roles.len() + 1));
    let (logs, steal, seconds) = std::thread::scope(|scope| {
        let handles: Vec<_> = roles
            .into_iter()
            .map(|role| {
                let barrier = Arc::clone(&barrier);
                let start = Arc::clone(&start);
                let service = Arc::clone(&served.service);
                scope.spawn(move || {
                    run_conn(
                        addr,
                        role,
                        length,
                        &start,
                        &barrier,
                        &service,
                        inline_samples,
                    )
                })
            })
            .collect();
        barrier.wait();
        let started = *start.get_or_init(Instant::now);
        // Host CPU steal per sub-window, read at each boundary.
        let mut steal = Vec::new();
        if let Length::Window { length: d, per } = length {
            let mut ticks = cpu_ticks();
            for k in 1..=per {
                let boundary = started + d.mul_f64(k as f64 / per as f64);
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                let now = cpu_ticks();
                steal.push(steal_share(&ticks, &now));
                ticks = now;
            }
        }
        let logs: Vec<ConnLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (logs, steal, started.elapsed().as_secs_f64())
    });
    let mut outcome = Outcome {
        seconds,
        steal,
        ..Outcome::default()
    };
    for log in logs {
        outcome.reads.extend(log.reads);
        outcome.write_ns.extend(log.write_ns);
        outcome.attempted += log.attempted;
        outcome.failed += log.failed;
        outcome.problems.extend(log.problems);
        outcome.samples.extend(log.samples);
        outcome.parity_checked += log.parity_checked;
        outcome.hot_reads += log.hot_reads;
        if log.writer.is_some() {
            outcome.writer = log.writer;
        }
    }
    outcome
}

fn body_hash(body: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// Parse a response body as a service envelope.
pub fn envelope(body: &[u8]) -> Result<ServiceResponse, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    serde_json::from_str::<ServiceResponse>(text).map_err(|e| format!("bad envelope: {e}"))
}

pub fn query_path(query: &DiscoveryQuery) -> Vec<u8> {
    serde_json::to_vec(query).expect("a query serializes")
}

/// The route and body of a write; `None` when it names a document whose
/// ingest was never acknowledged.
pub fn write_request(
    op: &WriteOp,
    docs: &HashMap<u64, (usize, String)>,
) -> Option<(&'static str, Vec<u8>)> {
    Some(match op {
        WriteOp::IngestTable(table) => (
            "/ingest/table",
            serde_json::to_vec(table).expect("a table serializes"),
        ),
        WriteOp::IngestDocument { document, .. } => (
            "/ingest/document",
            serde_json::to_vec(document).expect("a document serializes"),
        ),
        WriteOp::RemoveTable(name) => (
            "/remove/table",
            format!(
                "{{\"name\":{}}}",
                serde_json::to_string(name).expect("a name serializes")
            )
            .into_bytes(),
        ),
        WriteOp::RemoveDocument { ordinal } => {
            let (index, _) = docs.get(ordinal)?;
            (
                "/remove/document",
                format!("{{\"index\":{index}}}").into_bytes(),
            )
        }
    })
}

fn run_conn(
    addr: SocketAddr,
    role: Role,
    length: Length,
    start: &std::sync::OnceLock<Instant>,
    barrier: &Barrier,
    service: &Arc<CmdlService>,
    inline_samples: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut conn = Conn::connect(addr);
    barrier.wait();
    let start = *start.get_or_init(Instant::now);
    let Ok(conn) = conn.as_mut() else {
        log.attempted = 1;
        log.failed = 1;
        log.problems.push(format!("connect to {addr} failed"));
        return log;
    };
    match role {
        Role::Reader(mut stream) => read_loop(
            &mut log,
            conn,
            length,
            start,
            service,
            inline_samples,
            || Some(stream.draw()),
        ),
        Role::Replay(queries) => {
            let mut queries = queries.into_iter();
            read_loop(
                &mut log,
                conn,
                length,
                start,
                service,
                inline_samples,
                || queries.next().map(|query| Drawn { query, hot: false }),
            )
        }
        Role::Writer(mut stream) => {
            let mut writer = WriterLog::default();
            let mut writes = 0usize;
            // A counted pass (the warm-up) ends by removing what it left
            // live, so timing starts on the base lake.
            let mut tail: Option<std::vec::IntoIter<WriteOp>> = None;
            loop {
                let op = match &mut tail {
                    Some(ops) => match ops.next() {
                        Some(op) => op,
                        None => break,
                    },
                    None if length.done(start, writes, false) => match length {
                        Length::Count { .. } => {
                            tail = Some(stream.drain().into_iter());
                            continue;
                        }
                        Length::Window { .. } => break,
                    },
                    None => stream.draw(),
                };
                writes += 1;
                log.attempted += 1;
                let Some((path, body)) = write_request(&op, &writer.live_docs) else {
                    // Its ingest failed, so the removal cannot be sent.
                    log.failed += 1;
                    continue;
                };
                let sent = Instant::now();
                let status = conn.call("POST", path, &body);
                let elapsed = sent.elapsed().as_nanos() as u64;
                match status {
                    Ok(200) => log.write_ns.push(elapsed),
                    Ok(_) => {
                        log.failed += 1;
                        continue;
                    }
                    Err(_) => {
                        log.failed += 1;
                        if conn.reconnect().is_err() {
                            break;
                        }
                        continue;
                    }
                }
                let payload = match envelope(&conn.body) {
                    Ok(ServiceResponse {
                        ok: true,
                        payload: Some(payload),
                        ..
                    }) => payload,
                    Ok(other) => {
                        log.problems
                            .push(format!("write envelope without a payload: {other:?}"));
                        continue;
                    }
                    Err(e) => {
                        log.problems.push(e);
                        continue;
                    }
                };
                writer.acked += 1;
                match (op, payload) {
                    (WriteOp::IngestTable(table), ResponsePayload::IngestedTable { .. }) => {
                        writer.live_tables.insert(table.name);
                    }
                    (
                        WriteOp::IngestDocument { ordinal, document },
                        ResponsePayload::IngestedDocument {
                            document: index, ..
                        },
                    ) => {
                        writer.live_docs.insert(ordinal, (index, document.title));
                    }
                    (WriteOp::RemoveTable(name), ResponsePayload::RemovedTable { .. }) => {
                        writer.live_tables.remove(&name);
                    }
                    (
                        WriteOp::RemoveDocument { ordinal },
                        ResponsePayload::RemovedDocument { .. },
                    ) => {
                        writer.live_docs.remove(&ordinal);
                    }
                    (op, payload) => log
                        .problems
                        .push(format!("{} acknowledged with {payload:?}", op.name())),
                }
            }
            log.writer = Some(writer);
        }
    }
    log
}

/// Send reads from `next` until the pass ends or `next` runs out.
fn read_loop(
    log: &mut ConnLog,
    conn: &mut Conn,
    length: Length,
    start: Instant,
    service: &CmdlService,
    inline_samples: bool,
    mut next: impl FnMut() -> Option<Drawn>,
) {
    let mut parsed: HashSet<u64> = HashSet::new();
    let mut owe_sample = false;
    let mut reads = 0usize;
    while !length.done(start, reads, true) {
        let Some(drawn) = next() else {
            break;
        };
        let body = query_path(&drawn.query);
        log.attempted += 1;
        let sent = Instant::now();
        let status = conn.call("POST", "/query", &body);
        let elapsed = sent.elapsed().as_nanos() as u64;
        reads += 1;
        let sample = owe_sample || reads % SAMPLE_EVERY == 1;
        match status {
            Ok(200) => log.reads.push((
                length.bucket(start),
                elapsed.min(u64::from(u32::MAX)) as u32,
            )),
            Ok(_) => {
                // A failed read owes its sample to the next one.
                log.failed += 1;
                owe_sample = sample;
                continue;
            }
            Err(_) => {
                log.failed += 1;
                owe_sample = sample;
                if conn.reconnect().is_err() {
                    break;
                }
                continue;
            }
        }
        log.hot_reads += u64::from(drawn.hot);
        let hash = body_hash(&conn.body);
        if !sample && parsed.contains(&hash) {
            continue;
        }
        let served = match envelope(&conn.body) {
            Ok(ServiceResponse {
                ok: true,
                payload: Some(ResponsePayload::Query(served)),
                ..
            }) => served,
            Ok(other) => {
                log.problems
                    .push(format!("query envelope without a result: {other:?}"));
                continue;
            }
            Err(e) => {
                log.problems.push(e);
                continue;
            }
        };
        parsed.insert(hash);
        if !sample {
            continue;
        }
        owe_sample = false;
        if inline_samples {
            // Writes move the generation; check now, against the
            // same generation, or owe the sample to the next read.
            let snapshot = service.snapshot();
            owe_sample = snapshot.generation != served.generation;
            if !owe_sample {
                if let Some(problem) = parity(&snapshot, &drawn.query, &served) {
                    log.problems.push(problem);
                }
                log.parity_checked += 1;
            }
        } else {
            log.samples.push((drawn.query, served));
        }
    }
}

/// Timed window number `index` of a run; each draws its own streams.
pub fn window(inputs: &Inputs, served: &Served, length: Duration, index: usize) -> Outcome {
    let first = (index * CONNECTIONS) as u64;
    let roles = match inputs.workload {
        Workload::Ingest => vec![
            Role::Writer(inputs.writes("run", first, "m")),
            Role::Reader(inputs.reads("run", first + 1, index)),
        ],
        _ => (first..first + CONNECTIONS as u64)
            .map(|conn| Role::Reader(inputs.reads("run", conn, index)))
            .collect(),
    };
    let ingest = inputs.workload == Workload::Ingest;
    let per = sub_windows(length);
    let mut outcome = drive(served, roles, Length::Window { length, per }, ingest);
    outcome.check_samples(&served.service);
    if outcome.failed > 0 {
        outcome.problems.push(format!(
            "{} of {} requests failed in timed window {index}",
            outcome.failed, outcome.attempted
        ));
    }
    outcome
}

/// Tagged names the benchmark ingested: `<tag><6 digits>_` for tables and
/// `<tag><6 digits> ` for document titles.
fn tagged(name: &str, sep: char) -> bool {
    let bytes = name.as_bytes();
    bytes.len() > 8
        && (bytes[0] == b'm' || bytes[0] == b'w')
        && bytes[1..7].iter().all(u8::is_ascii_digit)
        && bytes[7] == sep as u8
}

/// The benchmark-ingested tables and document titles live in a catalog.
pub fn live_ingested(cmdl_lake: &cmdl_datalake::DataLake) -> (HashSet<String>, HashSet<String>) {
    let tables = cmdl_lake
        .tables()
        .iter()
        .filter(|t| tagged(&t.name, '_') && cmdl_lake.table_index(&t.name).is_some())
        .map(|t| t.name.clone())
        .collect();
    let docs = cmdl_lake
        .document_ids()
        .map(|(_, i)| &cmdl_lake.documents()[i].title)
        .filter(|t| tagged(t, ' '))
        .cloned()
        .collect();
    (tables, docs)
}

/// After `ingest`: the live ingested set matches the acknowledged writes,
/// both in the serving catalog and after reopening its directory.
pub fn check_durable(served: Served, writer: &WriterLog) -> Vec<String> {
    let mut problems = Vec::new();
    let expected_tables = writer.live_tables.clone();
    let expected_docs: HashSet<String> =
        writer.live_docs.values().map(|(_, t)| t.clone()).collect();
    let snapshot = served.service.snapshot();
    let (tables, docs) = live_ingested(&snapshot.profiled.lake);
    drop(snapshot);
    if tables != expected_tables || docs != expected_docs {
        problems.push(format!(
            "serving catalog holds {} tables / {} docs of the benchmark's, acknowledged {} / {}",
            tables.len(),
            docs.len(),
            expected_tables.len(),
            expected_docs.len()
        ));
    }
    let Some(dir) = served.close() else {
        problems.push("ingest catalog has no directory".to_string());
        return problems;
    };
    match reopen(&dir) {
        Ok((tables, docs)) => {
            if tables != expected_tables || docs != expected_docs {
                problems.push(format!(
                    "reopened catalog holds {} tables / {} docs, acknowledged {} / {}",
                    tables.len(),
                    docs.len(),
                    expected_tables.len(),
                    expected_docs.len()
                ));
            }
        }
        Err(e) => problems.push(e),
    }
    problems
}

fn reopen(dir: &Path) -> Result<(HashSet<String>, HashSet<String>), String> {
    let cmdl = Cmdl::open(dir, gen::cmdl_config(), || {
        cmdl_datalake::DataLake::new("unexpected rebuild")
    })
    .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    match cmdl.recovery_report() {
        Some(RecoveryReport::Loaded { .. }) => Ok(live_ingested(&cmdl.profiled.lake)),
        other => Err(format!("reopen did not load the directory: {other:?}")),
    }
}

/// Reads per second, p50 and p99 in ns, of the reads of some seconds.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub qps: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub reads: usize,
}

impl Figures {
    fn of(mut latencies: Vec<u64>, seconds: f64) -> Self {
        latencies.sort_unstable();
        Figures {
            qps: latencies.len() as f64 / seconds.max(1e-9),
            p50_ns: quantile(&latencies, 0.50) as f64,
            p99_ns: quantile(&latencies, 0.99) as f64,
            reads: latencies.len(),
        }
    }
}

/// Figures of the timed windows of a run.
pub struct WindowStats {
    /// Over the reads of all kept sub-windows together.
    pub all: Figures,
    /// Over the kept sub-windows of each set-up, with their number.
    pub per_setup: Vec<(usize, Figures)>,
    pub sub_windows: usize,
    /// Length of one sub-window, in seconds.
    pub width: f64,
    pub kept: usize,
    /// Largest steal share among the kept sub-windows, and overall.
    pub kept_steal: f64,
    pub max_steal: f64,
}

/// Cut each set-up's timed window of `length` into sub-windows
/// (`steal[window][sub-window]`), keep the third of all of them with the
/// least host CPU steal, and take the throughput and latency quantiles of
/// their reads together. The hypervisor runs other guests on this
/// machine's cores in bursts of a fraction of a second to minutes; a
/// closed loop of two connections loses several times the stolen share in
/// throughput, because every request waits on three thread wake-ups. The
/// steal counter is the host's, not the program's, so selecting on it
/// keeps the figures about the program. Equal steal goes to the
/// sub-window furthest into its window, taking each set-up in turn, so a
/// run without steal keeps the last third of every window. `reads` carry
/// (window, (sub-window, latency)).
pub fn window_stats(reads: &[(usize, Read)], steal: &[Vec<f64>], length: Duration) -> WindowStats {
    let per = steal.first().map_or(1, Vec::len).max(1);
    let n = per * steal.len();
    let steal_of = |i: usize| steal[i / per].get(i % per).copied().unwrap_or(0.0);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (per - i % per, i / per));
    order.sort_by(|&a, &b| steal_of(a).total_cmp(&steal_of(b)));
    let kept = n.div_ceil(3);
    let mut keep = vec![false; n];
    for &i in &order[..kept] {
        keep[i] = true;
    }
    let mut by_setup = vec![Vec::new(); steal.len()];
    for &(w, (b, ns)) in reads {
        if keep[w * per + usize::from(b)] {
            by_setup[w].push(u64::from(ns));
        }
    }
    let width = length.as_secs_f64() / per as f64;
    let all = Figures::of(by_setup.concat(), kept as f64 * width);
    WindowStats {
        all,
        per_setup: by_setup
            .into_iter()
            .enumerate()
            .map(|(w, l)| {
                let k = keep[w * per..(w + 1) * per].iter().filter(|&&k| k).count();
                (k, Figures::of(l, k as f64 * width))
            })
            .collect(),
        sub_windows: n,
        width,
        kept,
        kept_steal: order[..kept]
            .iter()
            .map(|&i| steal_of(i))
            .fold(0.0, f64::max),
        max_steal: (0..n).map(steal_of).fold(0.0, f64::max),
    }
}

/// `q`-quantile (nearest rank) of sorted values; the default when empty.
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The aggregate `cpu` line of `/proc/stat`, in ticks.
pub fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("cpu "))?.to_string();
            Some(
                line.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings (the eighth field is steal).
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    delta
        .get(7)
        .map_or(0.0, |&steal| steal as f64 / total.max(1) as f64)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// A numeric field of a `/proc` key-value file.
pub fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}
