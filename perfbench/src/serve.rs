//! `serve_loopback`: a closed loop of client connections, each with one
//! session in flight, against an in-process `serve_listener` on
//! `127.0.0.1:0` with journaling on.
//!
//! Every frame is two writes (length prefix, then payload), so the last
//! segment of a session and of its reply each wait out a Nagle/delayed-ACK
//! stall of about 44 ms on loopback. The server checks the bulk of a
//! session while the first stall runs, so the corpus is sized for about
//! 70 ms of in-process work per session: with smaller sessions the
//! latency is the stalls alone, and the engine's layers cannot move it.

use crate::live::{App, Counts};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, paired_delta, Rng};
use cusan::{replay, Flavor, SessionSummary, Trace};
use cusan_apps::{JacobiConfig, RaceMode, TeaLeafConfig};
use cusan_serve::proto::{
    close_frame, data_frame, heartbeat_frame, open_frame, parse_reply, read_frame, write_frame,
};
use cusan_serve::{
    serve_listener, solo_summary, summary_to_json, EngineConfig, Reply, ServeEngine,
};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. One set-up records and
/// replays the corpus in about a second; nine of them span enough of the
/// run that one burst of host noise does not move the median.
const SETUP_REPS: usize = 9;
/// Chunk sizes drawn per DATA frame, in bytes. Trace records are tens of
/// bytes long, so nearly every frame boundary lands mid-record.
const CHUNK_MIN: usize = 256;
const CHUNK_MAX: usize = 8192;
/// Shadow pages the engine retains across finished sessions (16 KiB
/// each), so a long run does not grow without bound.
const GLOBAL_PAGE_BUDGET: usize = 4096;
/// Connections one server accepts over its life; unused ones are used
/// up at shutdown so the listener thread ends.
const CONNECTION_SLOTS: usize = 64;
/// A reply slower than this is a failed session.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Heartbeats per probe session.
const HEARTBEATS: usize = 8;

/// One recorded per-rank trace and its solo reference.
struct Entry {
    bytes: Vec<u8>,
    racy: bool,
    events: u64,
    solo: SessionSummary,
}

/// The app runs the corpus is recorded from: both mini-apps, clean and
/// race-injected. Jacobi's ranges are large (per-byte shadow work),
/// TeaLeaf's are many and small (per-event work). The sizes make every
/// trace cost 50 to 100 ms to check, so session latency is one mode and
/// its median does not jump between apps with the seeded mix; TeaLeaf's
/// CG is capped at 14 iterations per step because the race-injected
/// run never converges and would otherwise record twice the events.
fn corpus_apps() -> Vec<App> {
    let mut v = Vec::new();
    for race in [RaceMode::None, RaceMode::SkipSyncBeforeExchange] {
        v.push(App::Jacobi(JacobiConfig {
            nx: 1024,
            ny: 512,
            ranks: 2,
            iters: 40,
            race,
        }));
        v.push(App::TeaLeaf(TeaLeafConfig {
            nx: 32,
            ny: 32,
            ranks: 2,
            steps: 40,
            max_iters: 14,
            race,
            ..TeaLeafConfig::default()
        }));
    }
    v
}

/// Record the corpus and its solo reference summaries.
///
/// # Panics
/// If a recorded trace does not replay, or a race-injected run records
/// no race: the workload's inputs would be unfit.
fn record_corpus() -> Vec<Entry> {
    let mut corpus = Vec::new();
    for app in corpus_apps() {
        let racy = app.race() != RaceMode::None;
        let traces = app.run(Flavor::MustCusan.config(), true).traces;
        assert!(!traces.is_empty(), "traced run recorded no traces");
        let mut app_races = 0;
        for bytes in traces {
            let solo = solo_summary(&bytes).expect("recorded trace replays");
            app_races += solo.race_count;
            let events = Trace::from_bytes(&bytes)
                .expect("recorded trace decodes")
                .events
                .len() as u64;
            corpus.push(Entry {
                bytes,
                racy,
                events,
                solo,
            });
        }
        assert!(!racy || app_races > 0, "race-injected run recorded no race");
    }
    corpus
}

/// A fresh, process- and run-unique directory inside the working
/// directory for one engine's journals.
fn unique_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    PathBuf::from(".perfbench-tmp").join(format!(
        "{tag}-{}-{nanos}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn engine_config(spill_dir: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        global_page_budget: Some(GLOBAL_PAGE_BUDGET),
        spill_dir,
        ..EngineConfig::default()
    }
}

/// An in-process `serve_listener` on an ephemeral loopback port with
/// its own spill directory.
struct Server {
    addr: SocketAddr,
    engine: Arc<ServeEngine>,
    used: AtomicUsize,
    handle: Option<JoinHandle<io::Result<()>>>,
    dir: PathBuf,
}

impl Server {
    fn start() -> Server {
        let dir = unique_dir("serve");
        let engine = ServeEngine::new(engine_config(Some(dir.clone())));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let e = Arc::clone(&engine);
        let handle =
            std::thread::spawn(move || serve_listener(e, listener, Some(CONNECTION_SLOTS)));
        Server {
            addr,
            engine,
            used: AtomicUsize::new(0),
            handle: Some(handle),
            dir,
        }
    }

    fn connect(&self) -> io::Result<Conn> {
        if self.used.fetch_add(1, Ordering::SeqCst) >= CONNECTION_SLOTS {
            return Err(io::Error::other("connection slots exhausted"));
        }
        let writer = TcpStream::connect(self.addr)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    /// Use up the remaining connection slots so the listener returns,
    /// join it, and remove the spill directory. Every client connection
    /// must be closed first.
    fn stop(mut self) -> io::Result<()> {
        while self.used.fetch_add(1, Ordering::SeqCst) < CONNECTION_SLOTS {
            drop(TcpStream::connect(self.addr)?);
        }
        let joined = self
            .handle
            .take()
            .expect("listener running")
            .join()
            .map_err(|_| io::Error::other("listener thread panicked"))?;
        remove_dir(&self.dir);
        joined
    }
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        // Only succeeds once the last run's directory is gone.
        let _ = std::fs::remove_dir(parent);
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One session's schedule: which trace, cut into which chunks.
struct Plan {
    id: u64,
    entry: usize,
    chunks: Vec<usize>,
}

/// The `k`-th session of the seeded schedule.
fn plan(seed: u64, k: u64, corpus: &[Entry]) -> Plan {
    let mut rng = Rng::new(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407));
    let entry = rng.range(0, corpus.len() - 1);
    let mut left = corpus[entry].bytes.len();
    let mut chunks = Vec::new();
    while left > 0 {
        let c = rng.range(CHUNK_MIN, CHUNK_MAX).min(left);
        chunks.push(c);
        left -= c;
    }
    Plan {
        id: k + 1,
        entry,
        chunks,
    }
}

/// Frames and bytes a client wrote.
#[derive(Debug, Default, Clone, Copy)]
struct Wire {
    frames: u64,
    bytes: u64,
}

impl Wire {
    fn send(&mut self, w: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
        self.frames += 1;
        self.bytes += 4 + payload.len() as u64;
        write_frame(w, payload)
    }
}

/// Read replies until the one for session `id`: a summary or an error.
fn await_reply(conn: &mut Conn, id: u64) -> Result<Reply, String> {
    loop {
        let payload = read_frame(&mut conn.reader)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        let reply = parse_reply(&payload).map_err(|e| e.to_string())?;
        let rid = match &reply {
            Reply::Ack { id, .. } | Reply::Summary { id, .. } | Reply::Error { id, .. } => *id,
        };
        if rid == id {
            return Ok(reply);
        }
    }
}

/// The outcome of one socket session.
enum Served {
    Summary(String),
    Error(String),
}

/// Runs between the two halves of a session's `DATA` frames, given the
/// stream offset sent so far.
type Midway<'a> = &'a mut dyn FnMut(&mut Conn, &mut Wire, u64) -> Result<(), String>;

/// O, the first half of the DATA frames, `midway`, the rest, C, then
/// wait for the reply; with `spans`, the C-to-S wait is its own span.
fn socket_session(
    conn: &mut Conn,
    wire: &mut Wire,
    p: &Plan,
    bytes: &[u8],
    spans: Option<&mut Spans>,
    mut midway: Option<Midway>,
) -> Result<Served, String> {
    let io = |e: io::Error| e.to_string();
    wire.send(&mut conn.writer, &open_frame(p.id)).map_err(io)?;
    let half = p.chunks.len() / 2;
    let mut offset = 0;
    for (i, &c) in p.chunks.iter().enumerate() {
        if i == half {
            if let Some(f) = midway.as_deref_mut() {
                f(conn, wire, offset as u64)?;
            }
        }
        let frame = data_frame(p.id, offset as u64, &bytes[offset..offset + c]);
        wire.send(&mut conn.writer, &frame).map_err(io)?;
        offset += c;
    }
    let mut close = |conn: &mut Conn| -> Result<Reply, String> {
        wire.send(&mut conn.writer, &close_frame(p.id))
            .map_err(io)?;
        await_reply(conn, p.id)
    };
    let reply = match spans {
        Some(s) => s.time("serve.close_to_summary", p.id, |_| close(conn))?,
        None => close(conn)?,
    };
    Ok(match reply {
        Reply::Summary { json, .. } => Served::Summary(json),
        Reply::Error { message, .. } => Served::Error(message),
        Reply::Ack { .. } => Served::Error("ack in reply to close".into()),
    })
}

/// A served session passes when its summary is byte-identical to the
/// solo replay of the same trace, and a race-injected run's trace
/// reports its races.
fn session_ok(served: &Served, p: &Plan, corpus: &[Entry]) -> bool {
    let e = &corpus[p.entry];
    match served {
        Served::Summary(json) => {
            *json == summary_to_json(p.id, &e.solo) && (!e.racy || e.solo.race_count > 0)
        }
        Served::Error(message) => {
            eprintln!("serve_loopback: session {} got E: {message}", p.id);
            false
        }
    }
}

/// What one closed-loop phase measured.
#[derive(Default)]
struct LoopStats {
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    error_replies: u64,
    wire: Wire,
    sessions: Vec<usize>,
    wall: f64,
}

impl LoopStats {
    /// Add another phase's or client's counts and samples (not `wall`).
    fn absorb(&mut self, o: LoopStats) {
        self.latencies.extend(o.latencies);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.error_replies += o.error_replies;
        self.wire.frames += o.wire.frames;
        self.wire.bytes += o.wire.bytes;
        self.sessions.extend(o.sessions);
    }
}

/// `clients` connections, one session in flight each, until `deadline`.
/// Session indices come from `next`, so phases never reuse an id.
fn closed_loop(
    server: &Server,
    corpus: &[Entry],
    seed: u64,
    next: &AtomicU64,
    clients: usize,
    deadline: Instant,
    spans: Option<&mut Spans>,
) -> LoopStats {
    let start = Instant::now();
    let origin = spans.as_ref().map(|s| s.origin());
    let results: Vec<(LoopStats, Option<Spans>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut st = LoopStats::default();
                    let mut sp = origin.map(Spans::new);
                    let mut conn = server.connect().ok();
                    while Instant::now() < deadline {
                        let Some(c) = conn.as_mut() else { break };
                        let p = plan(seed, next.fetch_add(1, Ordering::SeqCst), corpus);
                        let bytes = &corpus[p.entry].bytes;
                        let mut wire = Wire::default();
                        let t = Instant::now();
                        let r = match sp.as_mut() {
                            Some(s) => s.time("serve.session", p.id, |s| {
                                socket_session(c, &mut wire, &p, bytes, Some(s), None)
                            }),
                            None => socket_session(c, &mut wire, &p, bytes, None, None),
                        };
                        let secs = t.elapsed().as_secs_f64();
                        st.attempted += 1;
                        match r {
                            Ok(served) => {
                                if matches!(served, Served::Error(_)) {
                                    st.error_replies += 1;
                                }
                                if session_ok(&served, &p, corpus) {
                                    st.latencies.push(secs);
                                    st.wire.frames += wire.frames;
                                    st.wire.bytes += wire.bytes;
                                    st.sessions.push(p.entry);
                                } else {
                                    st.failed += 1;
                                }
                            }
                            Err(e) => {
                                eprintln!("serve_loopback: session {} failed: {e}", p.id);
                                st.failed += 1;
                                conn = server.connect().ok();
                            }
                        }
                    }
                    (st, sp)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopStats::default();
    let mut spans = spans;
    for (st, sp) in results {
        all.absorb(st);
        if let (Some(s), Some(sp)) = (spans.as_deref_mut(), sp) {
            s.merge(sp);
        }
    }
    all.wall = start.elapsed().as_secs_f64();
    all
}

/// Corpus recording, solo references and listener start, repeated;
/// returns the last corpus and server and the median set-up time.
fn timed_set_up() -> (Vec<Entry>, Server, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let corpus = record_corpus();
        let server = Server::start();
        times.push(t.elapsed().as_secs_f64());
        if let Some((_, old)) = kept.replace((corpus, server)) {
            old.stop().expect("stop a set-up server");
        }
    }
    let (corpus, server) = kept.expect("at least one set-up");
    (corpus, server, median(&times))
}

fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn provenance(report: &mut Report, corpus: &[Entry]) {
    let apps: Vec<String> = corpus_apps().iter().map(App::describe).collect();
    report.note("corpus", format!("[{}]", apps.join(", ")));
    report.note("corpus_traces", corpus.len().to_string());
    report.note("flavor", "\"MUST & CuSan\"".into());
    report.note(
        "trace_format",
        format!("\"{}\"", Flavor::MustCusan.config().trace_format.name()),
    );
    report.note("connections", clients().to_string());
    report.note("chunk_bytes", format!("[{CHUNK_MIN}, {CHUNK_MAX}]"));
    report.note("global_page_budget", GLOBAL_PAGE_BUDGET.to_string());
    report.note("journal", "true".into());
}

/// The end-to-end run.
pub fn end_to_end(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (corpus, server, setup_s) = timed_set_up();
    let next = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let st = closed_loop(&server, &corpus, seed, &next, clients(), deadline, None);
    server.stop().expect("stop the server");
    report.attempted = st.attempted;
    report.failed = st.failed;
    provenance(&mut report, &corpus);
    report.set("setup_s", setup_s);
    report.verdicts(&st.latencies, st.wall);
    report
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Heartbeat round trips on open sessions of one connection until
/// `deadline`: each session sends H→A round trips halfway through its
/// DATA frames and is then checked like any session.
fn heartbeat_probe(
    server: &Server,
    corpus: &[Entry],
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    spans: &mut Spans,
    report: &mut Report,
) {
    let Ok(mut conn) = server.connect() else {
        report.attempt(false);
        return;
    };
    while Instant::now() < deadline {
        let p = plan(seed, next.fetch_add(1, Ordering::SeqCst), corpus);
        let mut beats = |conn: &mut Conn, wire: &mut Wire, acked: u64| -> Result<(), String> {
            for _ in 0..HEARTBEATS {
                let reply = spans.time("proto.heartbeat", p.id, |_| {
                    wire.send(&mut conn.writer, &heartbeat_frame(p.id))
                        .map_err(|e| e.to_string())?;
                    await_reply(conn, p.id)
                })?;
                if reply != (Reply::Ack { id: p.id, acked }) {
                    return Err(format!("unexpected heartbeat reply {reply:?}"));
                }
            }
            Ok(())
        };
        let bytes = &corpus[p.entry].bytes;
        let mut wire = Wire::default();
        match socket_session(&mut conn, &mut wire, &p, bytes, None, Some(&mut beats)) {
            Ok(served) => report.attempt(session_ok(&served, &p, corpus)),
            Err(e) => {
                eprintln!("serve_loopback: heartbeat session {} failed: {e}", p.id);
                report.attempt(false);
                return;
            }
        }
    }
}

/// Feed one planned session through an engine in process.
fn inproc_session(engine: &ServeEngine, p: &Plan, bytes: &[u8]) -> Result<SessionSummary, String> {
    engine.open_new(p.id).map_err(|e| e.to_string())?;
    let mut off = 0;
    for &c in &p.chunks {
        engine
            .feed(p.id, off as u64, &bytes[off..off + c])
            .map_err(|e| format!("{e:?}"))?;
        off += c;
    }
    engine.close(p.id)
}

/// The in-process layers, one planned session at a time until
/// `deadline`, rotating the order of the variants each session.
fn inproc_phase(
    corpus: &[Entry],
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    spans: &mut Spans,
    report: &mut Report,
) {
    let dir = unique_dir("inproc");
    let journaled = ServeEngine::new(engine_config(Some(dir.clone())));
    let plain = ServeEngine::new(engine_config(None));
    let mut turn = 0usize;
    while Instant::now() < deadline {
        let p = plan(seed, next.fetch_add(1, Ordering::SeqCst), corpus);
        let e = &corpus[p.entry];
        let want = summary_to_json(p.id, &e.solo);
        for step in 0..4 {
            match (turn + step) % 4 {
                0 => {
                    let r = spans.time("engine.inproc", p.id, |_| {
                        inproc_session(&journaled, &p, &e.bytes)
                    });
                    report.attempt(r.is_ok_and(|s| summary_to_json(p.id, &s) == want));
                }
                1 => {
                    let r = spans.time("engine.inproc_no_journal", p.id, |_| {
                        inproc_session(&plain, &p, &e.bytes)
                    });
                    report.attempt(r.is_ok_and(|s| summary_to_json(p.id, &s) == want));
                }
                2 => {
                    let r = spans.time("serve.solo", p.id, |_| solo_summary(&e.bytes));
                    report.attempt(r.is_ok_and(|s| summary_to_json(p.id, &s) == want));
                }
                _ => {
                    let t = spans.time("trace.decode", p.id, |_| Trace::from_bytes(&e.bytes));
                    let ok = match t {
                        Ok(t) => {
                            let out = spans.time("tsan.apply", p.id, |_| replay(&t));
                            out.stats == e.solo.stats && out.reports == e.solo.reports
                        }
                        Err(_) => false,
                    };
                    report.attempt(ok);
                }
            }
        }
        turn += 1;
    }
    remove_dir(&dir);
}

/// The span run: alternating untraced and traced socket phases, a
/// heartbeat probe, the in-process layers and the corpus encode cost.
pub fn span_run(seed: u64, seconds: f64, origin: Instant) -> (Report, Spans) {
    let mut report = Report::default();
    let mut spans = Spans::new(origin);
    let (corpus, server, _) = timed_set_up();
    let next = AtomicU64::new(0);
    let slice = |share: f64| Instant::now() + Duration::from_secs_f64(seconds * share);
    let mut untraced = LoopStats::default();
    let mut traced = LoopStats::default();
    for _ in 0..3 {
        let u = closed_loop(&server, &corpus, seed, &next, clients(), slice(0.1), None);
        let t = closed_loop(
            &server,
            &corpus,
            seed,
            &next,
            clients(),
            slice(0.1),
            Some(&mut spans),
        );
        untraced.absorb(u);
        traced.absorb(t);
    }
    heartbeat_probe(
        &server,
        &corpus,
        seed,
        &next,
        slice(0.1),
        &mut spans,
        &mut report,
    );
    inproc_phase(&corpus, seed, &next, slice(0.25), &mut spans, &mut report);
    let encode_deadline = slice(0.05);
    let mut round = 0u64;
    while round < 3 || Instant::now() < encode_deadline {
        round += 1;
        let mc = Flavor::MustCusan.config();
        for (name, traced) in [("corpus.traced", true), ("corpus.untraced", false)] {
            spans.time(name, round, |_| {
                corpus_apps().iter().for_each(|a| drop(a.run(mc, traced)))
            });
        }
    }
    let stats = server.engine.stats();
    server.stop().expect("stop the server");

    report.attempted += untraced.attempted + traced.attempted;
    report.failed += untraced.failed + traced.failed;
    let secs = |name: &str| median_or_zero(&spans.durations(name));
    let ms = |name: &str| secs(name) * 1e3;
    // The in-process phase runs every variant on each planned session,
    // so its spans pair up by position.
    let paired_ms = |a: &str, b: &str| paired_delta(&spans.durations(a), &spans.durations(b)) * 1e3;
    let sessions = traced.sessions.len().max(1) as f64;
    let session_ms = median_or_zero(&traced.latencies) * 1e3;
    let untraced_ms = median_or_zero(&untraced.latencies) * 1e3;
    let inproc_ms = ms("engine.inproc");
    provenance(&mut report, &corpus);
    report.note("samples", traced.latencies.len().to_string());
    report.set("proto.heartbeat_rtt_ms", ms("proto.heartbeat"));
    report.set("serve.close_to_summary_ms", ms("serve.close_to_summary"));
    report.set("engine.inproc_session_ms", inproc_ms);
    report.set(
        "engine.journal_ms",
        paired_ms("engine.inproc", "engine.inproc_no_journal"),
    );
    report.set("serve.solo_ms", ms("serve.solo"));
    report.set(
        "core.pool_handoff_ms",
        paired_ms("engine.inproc_no_journal", "serve.solo"),
    );
    report.set("serve.socket_ms", session_ms - inproc_ms);
    report.set(
        "proto.frames_per_session",
        traced.wire.frames as f64 / sessions,
    );
    report.set(
        "proto.bytes_per_session",
        traced.wire.bytes as f64 / sessions,
    );
    report.set(
        "serve.labels_shared",
        stats.labels_shared as f64 / stats.sessions_finished.max(1) as f64,
    );
    report.set(
        "serve.error_replies",
        (untraced.error_replies + traced.error_replies) as f64,
    );
    report.set(
        "serve.duplicate_bytes_dropped",
        stats.duplicate_bytes_dropped as f64,
    );
    report.set(
        "trace.encode_s",
        secs("corpus.traced") - secs("corpus.untraced"),
    );
    report.set("trace.decode_s", secs("trace.decode"));
    report.set("tsan.apply_s", secs("tsan.apply"));

    // Per-session means over the traced phase's served mix.
    let mut counts = Counts::default();
    for &i in &traced.sessions {
        let e = &corpus[i];
        counts.add_tsan(&e.solo.stats);
        counts.must_requests += e.solo.counters.requests_begun;
        counts.events += e.events;
        counts.trace_bytes += e.bytes.len() as u64;
    }
    counts.report(&mut report, sessions);
    report.set("span.verdict_s", session_ms / 1e3);
    report.set("span.untraced_verdict_s", untraced_ms / 1e3);
    report.set(
        "span.overhead_share",
        if untraced_ms > 0.0 {
            session_ms / untraced_ms - 1.0
        } else {
            0.0
        },
    );
    report.zero_rest();
    (report, spans)
}
