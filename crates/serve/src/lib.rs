//! # cusan-serve — a multi-session trace-checking service
//!
//! Long-running checking as a service: many clients stream recorded
//! [`cusan`] traces (shard by shard, interleaved) to one server process,
//! which checks every session inline on the connection thread that
//! receives its bytes and replies with per-session race/report summaries
//! as JSON.
//!
//! The layering (see `DESIGN.md`, "Sessions & the serve path"):
//!
//! ```text
//! TcpListener ──► serve_connection ──► ServeEngine::feed / close
//!                 (one thread per        │  per-session lock, journal,
//!                  connection)           │  panic guard
//!                                        ▼
//!                                   SessionIngest ──► TracePushParser
//!                                        │            SharedLabels
//!                                        ▼
//!                                   CheckSession::apply (inline)
//! ```
//!
//! The [`ServeEngine`] also owns the live-session registry, the
//! finished sessions retained under the global shadow budget, and the
//! spill directory.
//!
//! Everything downstream of [`SessionIngest`] is the same machinery live
//! instrumentation uses — [`cusan::CheckSession::apply`] on the thread
//! that produced the event — so a served session's summary is
//! bit-for-bit identical to a solo replay of the same trace. The
//! determinism tests and the `selftest` binary mode assert this for ≥ 64
//! concurrent sessions.
//!
//! Since the crash-safety work, that contract extends to *failures*:
//! sessions are owned by the engine and survive their connections (the
//! `R` resume op reattaches and replays from the last acked offset),
//! unfinished idle sessions can be spilled to disk and transparently
//! restored, and a restarted server recovers in-flight sessions from
//! its spill directory. The [`chaos`] harness drives all of it with
//! seeded socket-level fault schedules and asserts the summaries stay
//! byte-identical to solo replay. See `DESIGN.md`, "Failure model &
//! resumption".

pub mod chaos;
pub mod client;
pub mod engine;
pub mod ingest;
pub mod json;
pub mod labels;
pub mod proto;

pub use chaos::{chaos_serve, ChaosOptions, ChaosReport};
pub use client::{check_traces_resilient, RetryPolicy};
pub use engine::{AttachError, EngineConfig, FeedError, ServeEngine, ServeStats};
pub use ingest::SessionIngest;
pub use json::summary_to_json;
pub use labels::SharedLabels;
pub use proto::{check_traces, serve_connection, FrameError, Reply};

use cusan::{CheckSession, SessionOptions, SessionSummary, TraceReader, TraceRecord};
use std::net::TcpListener;
use std::sync::Arc;

/// Reference result: replay `trace` (text or binary bytes — the reader
/// sniffs) solo, synchronously, in this thread — the baseline every
/// served session is compared against.
pub fn solo_summary(trace: impl AsRef<[u8]>) -> Result<SessionSummary, String> {
    let mut reader = TraceReader::new(trace.as_ref())?;
    let h = *reader.header();
    let mut session = CheckSession::new(&SessionOptions::for_trace(h.rank, h.tiered, h.budget));
    for rec in &mut reader {
        match rec? {
            TraceRecord::Str { label, .. } => {
                session.intern_shared(&label);
            }
            TraceRecord::Event(ev) => session.apply(&ev),
        }
    }
    Ok(session.into_summary())
}

/// Accept connections on `listener` forever (or until `max_connections`,
/// when given — the selftest's bounded variant), one thread per
/// connection, all sharing `engine`. Accept errors and per-connection
/// setup and I/O errors are logged, not fatal: one misbehaving client
/// must not take the service down. A failed accept still uses up a
/// `max_connections` slot, so a bounded listener always ends.
pub fn serve_listener(
    engine: Arc<ServeEngine>,
    listener: TcpListener,
    max_connections: Option<usize>,
) -> std::io::Result<()> {
    std::thread::scope(|scope| {
        for (accepted, stream) in listener.incoming().enumerate() {
            match stream {
                Ok(stream) => {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || {
                        let peer = stream
                            .peer_addr()
                            .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string());
                        let result = proto::tcp_halves(stream)
                            .and_then(|(mut r, mut w)| serve_connection(&engine, &mut r, &mut w));
                        if let Err(e) = result {
                            eprintln!("cusan-serve: connection from {peer} failed: {e}");
                        }
                    });
                }
                Err(e) => {
                    eprintln!("cusan-serve: accept failed: {e}");
                    // Out of descriptors clears only when a connection
                    // ends; do not spin on it.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
            if max_connections.is_some_and(|max| accepted + 1 >= max) {
                break;
            }
        }
        Ok(())
    })
}
