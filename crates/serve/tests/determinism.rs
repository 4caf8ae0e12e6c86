//! The serve determinism contract: N concurrent sessions, each checked
//! inline on its own feeding thread through one engine, produce
//! summaries bit-for-bit identical to solo replays — under chunked
//! interleaved delivery, under a global shadow budget forcing
//! cross-session eviction, and with a detector panic in a neighbouring
//! session.
//!
//! The corpus is the golden TeaLeaf fixture (recorded by
//! `tests/trace_fixture.rs` — regenerate, don't hand-edit) plus
//! chaos-twin traces of both mini-apps generated fresh per test run.

use cusan_serve::{solo_summary, summary_to_json, EngineConfig, ServeEngine, SessionIngest};
use std::sync::Arc;

const GOLDEN: &str = include_str!("../../../tests/data/tealeaf_small.trace");

/// Golden fixture + one chaos-twin trace per rank per mini-app.
fn corpus() -> Vec<Vec<u8>> {
    let mut traces = vec![GOLDEN.as_bytes().to_vec()];
    let cfg = cusan_apps::ChaosConfig::default();
    for out in [
        cusan_apps::run_chaos_jacobi(&cfg, cusan::Flavor::MustCusan),
        cusan_apps::run_chaos_tealeaf(&cfg, cusan::Flavor::MustCusan),
    ] {
        for rank in out.ranks {
            traces.push(rank.trace.expect("chaos runs are always traced"));
        }
    }
    traces
}

/// Drive `sessions[i] = corpus[i % corpus.len()]` concurrently through
/// one engine (one thread per session, chunked feeds) and assert every
/// summary equals its solo replay. Returns the engine for stats checks.
fn run_sessions(
    config: EngineConfig,
    corpus: &[Vec<u8>],
    sessions: usize,
    chunk: usize,
) -> Arc<ServeEngine> {
    let solo: Vec<_> = corpus
        .iter()
        .map(|t| solo_summary(t).expect("corpus traces parse"))
        .collect();
    let engine = ServeEngine::new(config);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let trace = &corpus[i % corpus.len()];
                scope.spawn(move || {
                    let mut ingest = SessionIngest::new(engine);
                    for c in trace.chunks(chunk) {
                        ingest.feed(c).expect("feed");
                    }
                    (i, ingest.finish().expect("finish"))
                })
            })
            .collect();
        for h in handles {
            let (i, served) = h.join().expect("session thread");
            let expected = &solo[i % corpus.len()];
            assert_eq!(
                &served,
                expected,
                "session {i} (corpus trace {}) diverged from solo sync replay",
                i % corpus.len()
            );
            // The JSON layer preserves the equality byte-for-byte.
            assert_eq!(
                summary_to_json(i as u64, &served),
                summary_to_json(i as u64, expected)
            );
        }
    });
    engine
}

#[test]
fn concurrent_sessions_match_solo_replay() {
    let corpus = corpus();
    let engine = run_sessions(
        EngineConfig {
            global_page_budget: None,
            ..EngineConfig::default()
        },
        &corpus,
        corpus.len(),
        311, // prime chunk size: every session splits lines mid-byte
    );
    let stats = engine.stats();
    assert_eq!(stats.sessions_finished, corpus.len() as u64);
    assert_eq!(stats.sessions_evicted, 0, "no budget, no eviction");
}

#[test]
fn sixty_four_concurrent_sessions_share_labels() {
    let corpus = corpus();
    let engine = run_sessions(
        EngineConfig {
            global_page_budget: None,
            ..EngineConfig::default()
        },
        &corpus,
        64,
        1024,
    );
    let stats = engine.stats();
    assert_eq!(stats.sessions_finished, 64);
    // Cross-session label sharing must have fired: 64 sessions over a
    // handful of distinct traces re-present the same labels constantly.
    assert!(
        stats.labels_shared > stats.labels_unique,
        "labels shared {} vs unique {}",
        stats.labels_shared,
        stats.labels_unique
    );
    assert!(
        stats.peak_resident_pages > 0,
        "finished sessions retain shadow"
    );
}

#[test]
fn global_budget_evicts_idle_sessions_without_changing_races() {
    let corpus = corpus();
    // Baseline: unlimited retention, to learn the corpus's real page load.
    let unlimited = run_sessions(
        EngineConfig {
            global_page_budget: None,
            ..EngineConfig::default()
        },
        &corpus,
        16,
        512,
    );
    let full = unlimited.stats().resident_pages;
    assert!(
        full > 0,
        "corpus must produce shadow pages to make the test meaningful"
    );

    // A budget of a quarter of that forces evictions. run_sessions
    // itself asserts every summary still equals solo replay — the
    // budget provably cannot change any session's detected race set.
    let budget = (full / 4).max(1);
    let capped = run_sessions(
        EngineConfig {
            global_page_budget: Some(budget as usize),
            ..EngineConfig::default()
        },
        &corpus,
        16,
        512,
    );
    let stats = capped.stats();
    assert!(
        stats.sessions_evicted > 0,
        "budget {budget} of {full} must evict"
    );
    assert!(stats.shadow_pages_evicted > 0);
    assert!(
        stats.resident_pages <= budget,
        "resident {} exceeds budget {budget}",
        stats.resident_pages
    );
    assert_eq!(stats.sessions_finished, 16);
}

#[test]
fn socket_end_to_end_replies_with_solo_identical_json() {
    use cusan_serve::proto::tcp_halves;
    use cusan_serve::{check_traces, serve_listener, Reply};
    use std::net::{TcpListener, TcpStream};

    let corpus = corpus();
    let engine = ServeEngine::new(EngineConfig {
        global_page_budget: None,
        ..EngineConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_listener(engine, listener, Some(1)))
    };

    // One connection multiplexing every corpus trace, tiny interleaved
    // chunks.
    let traces: Vec<(u64, Vec<u8>)> = corpus
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u64, t.clone()))
        .collect();
    let (reader, writer) = tcp_halves(TcpStream::connect(addr).unwrap()).unwrap();
    let mut replies = check_traces(reader, writer, &traces, 173).unwrap();
    server.join().unwrap().unwrap();

    replies.sort_by_key(|r| match r {
        Reply::Summary { id, .. } | Reply::Error { id, .. } | Reply::Ack { id, .. } => *id,
    });
    assert_eq!(replies.len(), corpus.len());
    for (i, reply) in replies.iter().enumerate() {
        let expected = summary_to_json(i as u64, &solo_summary(&corpus[i]).unwrap());
        match reply {
            Reply::Summary { id, json } => {
                assert_eq!(*id, i as u64);
                assert_eq!(*json, expected, "session {i} JSON diverged");
            }
            Reply::Error { id, message } => {
                panic!("session {id} failed server-side: {message}")
            }
            Reply::Ack { id, .. } => panic!("session {id}: stray ack as terminal reply"),
        }
    }
    assert_eq!(engine.stats().sessions_finished, corpus.len() as u64);
}

#[test]
fn heartbeat_round_trips_do_not_wait_out_nagle_stalls() {
    use cusan_serve::proto::{
        close_frame, data_frame, heartbeat_frame, open_frame, parse_reply, quit_frame, read_frame,
        write_frame,
    };
    use cusan_serve::{serve_listener, Reply};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    const ID: u64 = 11;
    const ROUND_TRIPS: usize = 20;
    let engine = ServeEngine::new(EngineConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_listener(engine, listener, Some(1)))
    };

    // A raw client socket that leaves Nagle on, as a client outside this
    // crate may: the server side alone must keep round trips stall-free.
    let mut stream = TcpStream::connect(addr).unwrap();
    let trace = GOLDEN.as_bytes();
    let acked = trace.len() as u64;
    write_frame(&mut stream, &open_frame(ID)).unwrap();
    write_frame(&mut stream, &data_frame(ID, 0, trace)).unwrap();
    let started = Instant::now();
    for _ in 0..ROUND_TRIPS {
        write_frame(&mut stream, &heartbeat_frame(ID)).unwrap();
        let reply = parse_reply(&read_frame(&mut stream).unwrap().expect("an ack")).unwrap();
        assert_eq!(reply, Reply::Ack { id: ID, acked });
    }
    let elapsed = started.elapsed();
    // A delayed-ACK stall is ~40 ms per direction on Linux loopback; with
    // split frames or Nagle on the server this loop takes ~1.7 s.
    assert!(
        elapsed < Duration::from_millis(500),
        "{ROUND_TRIPS} heartbeat round trips took {elapsed:?}"
    );

    write_frame(&mut stream, &close_frame(ID)).unwrap();
    let expected = summary_to_json(ID, &solo_summary(GOLDEN).unwrap());
    match parse_reply(&read_frame(&mut stream).unwrap().expect("a summary")).unwrap() {
        Reply::Summary { id, json } => {
            assert_eq!(id, ID);
            assert_eq!(json, expected);
        }
        other => panic!("expected the session summary, got {other:?}"),
    }
    write_frame(&mut stream, &quit_frame()).unwrap();
    server.join().unwrap().unwrap();
    assert_eq!(engine.stats().sessions_finished, 1);
}

#[test]
fn binary_corpus_serves_identically_to_text() {
    // Transcode every corpus trace into the v3 binary encoding and serve
    // *those*: the summaries must still be byte-identical to solo sync
    // replays of the text originals — the serve determinism contract is
    // format-blind.
    let text = corpus();
    let solo: Vec<_> = text
        .iter()
        .map(|t| solo_summary(t).expect("corpus traces parse"))
        .collect();
    let binary: Vec<Vec<u8>> = text
        .iter()
        .map(|t| cusan::transcode(&t[..], cusan::TraceFormat::Binary).expect("transcode"))
        .collect();
    for (t, b) in text.iter().zip(&binary) {
        assert!(b.len() < t.len(), "binary twin should be smaller");
    }
    let engine = run_sessions(
        EngineConfig {
            global_page_budget: None,
            ..EngineConfig::default()
        },
        &binary,
        binary.len(),
        89, // prime chunk: feeds split varints and length prefixes mid-record
    );
    assert_eq!(engine.stats().sessions_finished, binary.len() as u64);
    // Binary solo replay agrees with text solo replay too.
    for (b, expected) in binary.iter().zip(&solo) {
        assert_eq!(&solo_summary(b).unwrap(), expected);
    }
}

#[test]
fn bad_streams_fail_cleanly_without_poisoning_the_engine() {
    let engine = ServeEngine::new(EngineConfig::default());

    // Garbage header.
    let mut bad = SessionIngest::new(Arc::clone(&engine));
    assert!(bad.feed(b"not a trace\n").is_err());

    // Valid header, malformed body line.
    let mut bad = SessionIngest::new(Arc::clone(&engine));
    bad.feed(b"cusan-trace v2 rank 0 tiered 1 budget none\n")
        .unwrap();
    let err = bad.feed(b"rr zz 8 0\n").unwrap_err();
    assert!(err.contains("bad hex number"), "got: {err}");

    // Close without a header.
    let empty = SessionIngest::new(Arc::clone(&engine));
    assert!(empty.finish().is_err());

    // The engine still checks good sessions afterwards.
    let mut good = SessionIngest::new(Arc::clone(&engine));
    good.feed(GOLDEN.as_bytes()).unwrap();
    let summary = good.finish().unwrap();
    assert_eq!(summary, solo_summary(GOLDEN).unwrap());
    assert_eq!(engine.stats().sessions_finished, 1);
}

#[test]
fn detector_panic_fails_only_its_own_session() {
    use cusan_serve::proto::{
        data_frame, open_frame, parse_reply, quit_frame, read_frame, resume_frame, tcp_halves,
        write_frame,
    };
    use cusan_serve::{check_traces, serve_listener, Reply};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    // Well-framed but impossible: switching to a destroyed fiber trips
    // the detector's liveness assertion mid-apply.
    const POISON: &str = "cusan-trace v2 rank 0 tiered 1 budget none\n\
                          s 0 doomed stream\n\
                          fc 1 0\n\
                          fd 1\n\
                          fs 1\n";
    const DOOMED: u64 = 7;

    let engine = ServeEngine::new(EngineConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let engine = Arc::clone(&engine);
        // The healthy client, the poisoned one, and its resume attempt.
        std::thread::spawn(move || serve_listener(engine, listener, Some(3)))
    };
    let request = |frames: &[Vec<u8>]| -> Reply {
        let (mut reader, mut writer) = tcp_halves(TcpStream::connect(addr).unwrap()).unwrap();
        for f in frames {
            write_frame(&mut writer, f).unwrap();
        }
        writer.flush().unwrap();
        let reply = parse_reply(&read_frame(&mut reader).unwrap().expect("a reply")).unwrap();
        write_frame(&mut writer, &quit_frame()).unwrap();
        reply
    };

    std::thread::scope(|scope| {
        let healthy = scope.spawn(|| {
            let (reader, writer) = tcp_halves(TcpStream::connect(addr).unwrap()).unwrap();
            check_traces(reader, writer, &[(1, GOLDEN.as_bytes().to_vec())], 97).unwrap()
        });

        match request(&[open_frame(DOOMED), data_frame(DOOMED, 0, POISON.as_bytes())]) {
            Reply::Error { id, message } => {
                assert_eq!(id, DOOMED);
                assert!(message.contains("switch to dead fiber"), "{message}");
            }
            other => panic!("poisoned feed must be refused with E, got {other:?}"),
        }
        match request(&[resume_frame(DOOMED)]) {
            Reply::Error { id, .. } => assert_eq!(id, DOOMED),
            other => panic!("a failed session must not resume, got {other:?}"),
        }

        let expected = summary_to_json(1, &solo_summary(GOLDEN).unwrap());
        match healthy.join().unwrap().as_slice() {
            [Reply::Summary { id: 1, json }] => assert_eq!(*json, expected),
            other => panic!("healthy session must get its summary, got {other:?}"),
        }
    });
    server.join().unwrap().unwrap();
    assert_eq!(engine.live_sessions(), 0, "the failed session was dropped");
    assert_eq!(engine.stats().sessions_finished, 1);
}
