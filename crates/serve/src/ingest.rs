//! Per-stream trace ingestion.
//!
//! A [`SessionIngest`] turns an incrementally delivered byte stream (a
//! socket's `DATA` frames, a file read in chunks — any framing) into a
//! checked session: it frames *records* — text lines or binary
//! length-delimited frames, sniffed from the magic — with
//! [`cusan::TracePushParser`] and applies each one to the
//! [`cusan::CheckSession`] it owns, inline, on the thread that fed the
//! chunk. Chunk boundaries are arbitrary (mid-line, mid-varint,
//! mid-code-point splits are all fine). String-table entries are
//! canonicalized through the engine's [`crate::SharedLabels`] before
//! mirroring, so concurrent sessions share label allocations instead of
//! copying them.
//!
//! The apply path is [`cusan::CheckSession::apply`] — the same one live
//! instrumentation and offline replay use — which is what makes a
//! served session's summary bit-for-bit identical to a solo replay of
//! the same trace, in either trace format. The engine serializes feeds
//! to one session under that session's lock, so an ingest never needs
//! a lock of its own.

use crate::engine::ServeEngine;
use cusan::{
    CheckSession, SessionOptions, SessionSummary, TraceItem, TracePushParser, TraceRecord,
};
use std::sync::Arc;
use tsan_rt::{SnapshotReader, SnapshotWriter};

enum IngestState {
    /// Nothing decoded yet: the parser is still sniffing/expecting the
    /// header record.
    AwaitHeader,
    /// Header accepted; body records are applied to the session.
    Body { session: Box<CheckSession> },
    /// `finish` consumed the session (or a feed failed fatally).
    Done,
}

/// One client trace stream being checked (see the module docs).
pub struct SessionIngest {
    engine: Arc<ServeEngine>,
    /// Record framing + validation + string table; buffers the
    /// unconsumed tail of the stream (never grows past one record plus
    /// one chunk).
    parser: TracePushParser,
    state: IngestState,
}

impl SessionIngest {
    /// Fresh ingest; the session itself is created lazily when the
    /// header record arrives.
    pub fn new(engine: Arc<ServeEngine>) -> Self {
        SessionIngest {
            engine,
            parser: TracePushParser::new(),
            state: IngestState::AwaitHeader,
        }
    }

    /// Feed one chunk. Chunk boundaries are arbitrary — mid-record
    /// splits of either format are fine (only complete records are
    /// decoded). The first error poisons the ingest.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), String> {
        if matches!(self.state, IngestState::Done) {
            return Err("session already closed".to_string());
        }
        self.parser.feed(chunk);
        self.pump()
    }

    /// Apply every complete record the parser holds to the session.
    fn pump(&mut self) -> Result<(), String> {
        loop {
            let item = match self.parser.poll() {
                Ok(Some(item)) => item,
                Ok(None) => return Ok(()),
                Err(e) => {
                    self.state = IngestState::Done;
                    return Err(e);
                }
            };
            match item {
                TraceItem::Header(header) => {
                    debug_assert!(matches!(self.state, IngestState::AwaitHeader));
                    let session = CheckSession::new(&SessionOptions::for_trace(
                        header.rank,
                        header.tiered,
                        header.budget,
                    ));
                    self.engine.note_open();
                    self.state = IngestState::Body {
                        session: Box::new(session),
                    };
                }
                TraceItem::Record(rec) => {
                    let IngestState::Body { session } = &mut self.state else {
                        unreachable!("parser yields records only after the header");
                    };
                    match rec {
                        TraceRecord::Str { label, .. } => {
                            // Mirror the canonical allocation, not the
                            // parser's private one: concurrent sessions
                            // of the same app share label bytes.
                            session.intern_shared(&self.engine.labels().canon(&label));
                        }
                        TraceRecord::Event(ev) => session.apply(&ev),
                    }
                }
            }
        }
    }

    /// Resident shadow pages of the session under check (0 before the
    /// header arrives).
    pub fn resident_pages(&self) -> usize {
        match &self.state {
            IngestState::Body { session } => session.shadow_pages(),
            _ => 0,
        }
    }

    /// Spill this *unfinished* ingest to a compact byte blob: the full
    /// detector state ([`CheckSession::snapshot_bytes`]) plus the
    /// parser's complete mid-stream state (pending bytes, string table,
    /// position, binary delta state), so the blob captures every byte
    /// ever fed; [`SessionIngest::restore`] rebuilds an ingest that
    /// continues bit-for-bit identically to one that was never spilled.
    /// Consumes the ingest, which is the point: spilling frees the
    /// session's entire memory footprint.
    pub fn spill(mut self) -> Result<Vec<u8>, String> {
        let mut w = SnapshotWriter::new();
        match std::mem::replace(&mut self.state, IngestState::Done) {
            IngestState::Done => return Err("session already closed".to_string()),
            IngestState::AwaitHeader => {
                w.put_u8(0);
                self.parser.spill_to(&mut w);
            }
            IngestState::Body { session } => {
                w.put_u8(1);
                self.parser.spill_to(&mut w);
                w.put_bytes(&session.snapshot_bytes());
            }
        }
        Ok(w.into_bytes())
    }

    /// Rebuild an ingest from [`SessionIngest::spill`] output. The
    /// restored ingest accepts the byte stream exactly where the spilled
    /// one left off.
    pub fn restore(engine: Arc<ServeEngine>, blob: &[u8]) -> Result<Self, String> {
        let mut r = SnapshotReader::new(blob);
        let err = |e: tsan_rt::SnapshotError| format!("corrupt session spill: {e}");
        let tag = r.get_u8().map_err(err)?;
        let parser = TracePushParser::restore_from(&mut r)
            .map_err(|e| format!("corrupt session spill: {e}"))?;
        let state = match tag {
            0 => IngestState::AwaitHeader,
            1 => {
                let session_blob = r.get_bytes().map_err(err)?;
                let session = CheckSession::restore_bytes(session_blob).map_err(err)?;
                IngestState::Body {
                    session: Box::new(session),
                }
            }
            t => return Err(format!("corrupt session spill: unknown state tag {t}")),
        };
        r.expect_end().map_err(err)?;
        Ok(SessionIngest {
            engine,
            parser,
            state,
        })
    }

    /// Close the stream: apply any trailing record, snapshot the summary,
    /// and retire the session into the engine (where it becomes evictable
    /// under the global budget). A trailing text line without a final
    /// newline is accepted; a binary stream must end exactly at its
    /// end-of-trace marker or this reports the truncation.
    pub fn finish(mut self) -> Result<SessionSummary, String> {
        if matches!(self.state, IngestState::Done) {
            return Err("session already closed".to_string());
        }
        self.parser.close();
        self.pump().map_err(|e| {
            if e == "empty trace" {
                "empty session: no trace header received".to_string()
            } else {
                e
            }
        })?;
        match std::mem::replace(&mut self.state, IngestState::Done) {
            IngestState::AwaitHeader => Err("empty session: no trace header received".to_string()),
            IngestState::Done => Err("session already closed".to_string()),
            IngestState::Body { session } => {
                // Summary *before* the session becomes evictable — the
                // eviction-soundness contract (see crate::engine docs).
                let summary = session.summary();
                self.engine.finish_session(*session, &summary);
                Ok(summary)
            }
        }
    }
}
