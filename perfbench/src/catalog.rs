//! Every metric the benchmark emits, with its unit, its direction and,
//! for per-layer metrics, the end-to-end metric and workload it should
//! move. `BENCHMARK.json` lists the same names, units and directions
//! (checked by the tests below); it has no field for the "moves" notes,
//! so they live here and in the benchmark's span-run output.

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as emitted and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as emitted.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What the metric measures and, for layers, which end-to-end metric
    /// on which workload it should move.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower",
      "median of the run's set-ups (61 live, 9 serve): kernel registry, vanilla reference and warm-up (live); corpus recording, solo reference summaries, listener start (serve)"),
    m("verdict_p50_s", "s", "lower",
      "median time to one verdict: a fully checked MUST & CuSan app run (live), or one served session from O written to S read (serve)"),
    m("verdict_tail_s", "s", "lower",
      "the workload's fixed tail percentile of the same samples (see provenance: tail_percentile, samples)"),
    m("verdicts_per_s", "1/s", "higher",
      "verdicts completed per second of measured wall time, closed loop"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not run reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("apps.vanilla_s", "s", "lower",
      "T(Vanilla): cuda-sim, mpi-sim and the kernels; moves verdict_p50_s on tealeaf_live"),
    m("tsan.host_s", "s", "lower", "T(TSan) - T(Vanilla)"),
    m("cusan.intercept_s", "s", "lower",
      "T(CuSan without ranges) - T(TSan): CUDA interception, stream fibers, clock ops; moves verdict_p50_s on tealeaf_live"),
    m("tsan.shadow_s", "s", "lower",
      "T(CuSan) - T(CuSan without ranges): the shadow walk; a small share of tealeaf_live's ~600 B ranges; the per-byte regime moves serve_loopback through tsan.apply_s"),
    m("must.s", "s", "lower",
      "T(MUST & CuSan) - T(CuSan): MPI interception and request fibers; moves verdict_p50_s on tealeaf_live"),
    m("trace.encode_s", "s", "lower",
      "traced run minus untraced run; moves no live verdict (recording is off by default), moves setup_s on serve_loopback"),
    m("tsan.apply_s", "s", "lower",
      "replay() of pre-decoded traces, per verdict or session: the detector without a simulator; moves verdict_p50_s on serve_loopback"),
    m("trace.decode_s", "s", "lower",
      "Trace::from_bytes on the same traces, per verdict or session; moves verdict_p50_s on serve_loopback"),
    m("cusan.overhead_x.tsan", "x", "lower", "Fig. 10: T(TSan) / T(Vanilla)"),
    m("cusan.overhead_x.must", "x", "lower", "Fig. 10: T(MUST) / T(Vanilla)"),
    m("cusan.overhead_x.cusan", "x", "lower", "Fig. 10: T(CuSan) / T(Vanilla)"),
    m("cusan.overhead_x.must_cusan", "x", "lower", "Fig. 10: T(MUST & CuSan) / T(Vanilla)"),
    m("tool.memory_mib", "MiB", "lower",
      "Fig. 11: WorldOutcome::total_tool_memory of one MUST & CuSan run (exact)"),
    m("core.events", "count", "lower", "events emitted per verdict or session"),
    m("tsan.range_calls", "count", "lower", "range annotations per verdict or session"),
    m("tsan.range_bytes", "B", "lower", "bytes annotated per verdict or session"),
    m("tsan.bytes_per_range_call", "B", "lower", "tsan.range_bytes / tsan.range_calls"),
    m("tsan.page_summaries", "count", "higher", "whole-page summaries stored"),
    m("tsan.page_unfolds", "count", "lower", "summaries unfolded to per-word shadow"),
    m("tsan.fiber_switches", "count", "lower", "fiber switches per verdict or session"),
    m("tsan.full_clock_joins", "count", "lower", "vector-clock joins off the epoch fast path"),
    m("tsan.epoch_fast_ops", "count", "higher", "acquires and releases on the epoch fast path"),
    m("tsan.races_reported", "count", "lower", "races per verdict or session (0 on the clean live apps)"),
    m("must.requests", "count", "lower", "non-blocking MPI requests modelled as fibers"),
    m("cuda-sim.kernel_calls", "count", "lower", "simulated kernel launches per verdict"),
    m("trace.bytes_per_event", "B", "lower", "trace bytes / events in the default trace format"),
    m("proto.heartbeat_rtt_ms", "ms", "lower",
      "H to A round trip on an open session: framing and socket stalls; moves verdict_p50_s and verdicts_per_s on serve_loopback"),
    m("serve.close_to_summary_ms", "ms", "lower", "C written to S read"),
    m("engine.inproc_session_ms", "ms", "lower",
      "the same chunks through ServeEngine open_new/feed/close in process, journal on"),
    m("engine.journal_ms", "ms", "lower",
      "in-process session with spill_dir minus without, median of per-session differences"),
    m("serve.solo_ms", "ms", "lower", "solo_summary: decode plus apply"),
    m("core.pool_handoff_ms", "ms", "lower",
      "in-process session without journal minus solo_summary, median of per-session differences"),
    m("serve.socket_ms", "ms", "lower",
      "span-run session latency minus engine.inproc_session_ms: what the socket adds beyond the engine; small when checking overlaps the stalls"),
    m("proto.frames_per_session", "count", "lower", "client frames per session"),
    m("proto.bytes_per_session", "B", "lower", "client bytes per session, length prefixes included"),
    m("serve.labels_shared", "count", "higher", "label interns served from the shared table, per session"),
    m("serve.error_replies", "count", "lower", "E replies in the span run"),
    m("serve.duplicate_bytes_dropped", "B", "lower", "re-delivered bytes dropped by the offset check"),
    m("failed_share", "share", "lower", "failed operations / attempted operations in the span run"),
    m("span.verdict_s", "s", "lower",
      "span run: median verdict time with spans recorded (MUST & CuSan step, or socket session); the layers above sum to it by construction"),
    m("span.untraced_verdict_s", "s", "lower",
      "span run: median verdict time measured as the end-to-end run measures verdict_p50_s, no spans, same process"),
    m("span.overhead_share", "share", "lower",
      "tracing overhead: span.verdict_s / span.untraced_verdict_s - 1"),
];

/// The catalog for a run mode.
pub fn for_trace(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of each entry in one array of
    /// `BENCHMARK.json`. The file is flat, hand-written JSON with one
    /// metric object per line, so a line scan is enough.
    fn listed(array: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{array}\""))
            .unwrap_or_else(|| panic!("{array} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |line: &str, key: &str| -> String {
            let k = format!("\"{key}\": \"");
            let at = line.find(&k).unwrap_or_else(|| panic!("{key} in {line}")) + k.len();
            line[at..at + line[at..].find('"').expect("closing quote")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
            .collect()
    }

    fn entries(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), entries(END_TO_END));
        assert_eq!(listed("per_layer"), entries(PER_LAYER));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
    }
}
