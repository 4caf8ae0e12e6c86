//! Shadow-tier microbenchmark with a JSON trajectory record.
//!
//! Times six `shadow_access_range` cases with tiering on and off, prints
//! a table, and writes `BENCH_shadow.json` to the current directory
//! (override with `CUSAN_BENCH_SHADOW_JSON`) so future changes have a
//! perf baseline to diff against. Every time is the median over
//! `CUSAN_BENCH_RUNS` runs (default 5), recorded with its min and max
//! and the machine's `hw_threads`.
//!
//! The cases:
//! - `cold_1MiB`: first-touch page-aligned write (summary tier);
//! - `repeated_1MiB_x256`: identical re-annotations (same-state fast
//!   path);
//! - `resummarize_2MiB_foreign_epoch`: the Jacobi shape — two fibers
//!   take turns re-annotating 512 summarized pages, each after a
//!   happens-before edge from the other, so every page re-summarizes
//!   cleanly at a new epoch;
//! - `unaligned_4KiB_over_unfolded`: the TeaLeaf shape — 4 KiB ranges
//!   straddling two unfolded pages, re-annotated by alternating fibers
//!   (the run-granular walk);
//! - `partial_unfold_64pages` and `unfold_cold_total_64pages`: splitting
//!   summaries with partial writes.
//!
//! Targets from the tiered-shadow change: ≥ 5× on the repeated
//! whole-buffer case and ≥ 2× on cold page-aligned ranges.
//!
//! The partial-unfold pair needs careful reading. `partial_unfold_64pages`
//! times *only* the partial writes, after an untimed setup — which hands
//! the flat walk its slot-array allocation for free while the tiered
//! shadow pays it inside the timed region (unfolding a summary is where
//! the flat representation is first materialized, and first-touch page
//! faults dominate everything else in the loop). That asymmetry is the
//! whole 0.1x "cliff"; the unfold itself replicates only the live summary
//! prefix and adds no work beyond the deferred allocation.
//! `unfold_cold_total_64pages` times the same workload end-to-end
//! (summarize/cold-walk + partial writes) so both modes account their
//! allocation, and carries the regression assertion: tiered must land
//! within ~4× of the flat walk (it is expected to win, since summaries
//! make the setup nearly free).

use cusan::Flavor;
use cusan_apps::{run_jacobi, run_tealeaf};
use cusan_bench::{banner, env_u64, fmt_bytes, jacobi_config, tealeaf_config};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tsan_rt::{FiberId, SyncKey, TsanRuntime, TsanStats};

const COLD_LEN: u64 = 1 << 20;
const REPEATS: u64 = 256;
const PAGE: u64 = 4096;
/// Pages of the re-summarized buffer (2 MiB).
const RESUM_PAGES: u64 = 512;
/// Fiber turns in the two epoch-hopping cases.
const TURNS: u64 = 16;
/// Unfolded pages under the unaligned 4 KiB ranges.
const UNALIGNED_PAGES: u64 = 64;

/// Median, min and max of one case's per-run times.
#[derive(Clone, Copy)]
struct Stat {
    median: Duration,
    min: Duration,
    max: Duration,
}

impl Stat {
    fn of(mut runs: Vec<Duration>) -> Stat {
        runs.sort_unstable();
        Stat {
            median: runs[runs.len() / 2],
            min: runs[0],
            max: runs[runs.len() - 1],
        }
    }

    /// `"<key>_ns": median, "<key>_min_ns": min, "<key>_max_ns": max`.
    fn json(&self, key: &str) -> String {
        format!(
            "\"{key}_ns\": {}, \"{key}_min_ns\": {}, \"{key}_max_ns\": {}",
            self.median.as_nanos(),
            self.min.as_nanos(),
            self.max.as_nanos()
        )
    }
}

struct Case {
    name: &'static str,
    /// Bytes of shadow-annotated traffic one timed invocation covers.
    bytes: u64,
    tiered: Stat,
    flat: Stat,
    /// True when the two modes do *not* pay the same costs inside the
    /// timed region (see the module docs on `partial_unfold_64pages`:
    /// flat gets its slot-array allocation for free in the untimed
    /// setup). Informational cases are reported but carry no target and
    /// must not be diffed as a regression signal.
    informational: bool,
}

impl Case {
    fn new(
        name: &'static str,
        bytes: u64,
        runs: usize,
        f: impl Fn(&mut TsanRuntime) -> Duration,
    ) -> Case {
        Case {
            name,
            bytes,
            tiered: time_opts(runs, true, true, &f),
            flat: time_opts(runs, false, true, &f),
            informational: false,
        }
    }

    /// Ratio of the medians.
    fn speedup(&self) -> f64 {
        self.flat.median.as_secs_f64() / self.tiered.median.as_secs_f64().max(1e-12)
    }
}

/// Time `f` on `runs` fresh runtimes with the representation knobs
/// explicit (tiered shadow, epoch-compressed clocks).
fn time_opts(
    runs: usize,
    tiered: bool,
    epoch: bool,
    f: impl Fn(&mut TsanRuntime) -> Duration,
) -> Stat {
    Stat::of(
        (0..runs)
            .map(|_| f(&mut TsanRuntime::with_options("bench", tiered, epoch)))
            .collect(),
    )
}

/// Cold: first-touch page-covering write of a 1 MiB buffer.
fn cold(rt: &mut TsanRuntime) -> Duration {
    let ctx = rt.intern_ctx("cold");
    let t = Instant::now();
    rt.write_range(0x10_0000, COLD_LEN, ctx);
    t.elapsed()
}

/// Repeated: one cold write, then `REPEATS` identical re-annotations
/// (the Jacobi/TeaLeaf iteration-loop shape). Reported per whole batch.
fn repeated(rt: &mut TsanRuntime) -> Duration {
    let ctx = rt.intern_ctx("repeat");
    rt.write_range(0x10_0000, COLD_LEN, ctx);
    let t = Instant::now();
    for _ in 0..REPEATS {
        rt.write_range(0x10_0000, COLD_LEN, ctx);
    }
    t.elapsed()
}

/// Hand the turn to `to`: it acquires what the previous fiber released
/// on `key`, so its next access is ordered after (and foreign to) the
/// previous fiber's.
fn take_turn(rt: &mut TsanRuntime, to: FiberId, key: SyncKey) {
    rt.annotate_happens_before(key);
    rt.switch_to_fiber(to);
    rt.annotate_happens_after(key);
}

/// Jacobi shape: the host writes a 2 MiB buffer (512 summaries), then
/// host and a stream fiber take `TURNS` turns re-annotating all of it,
/// each ordered after the other by a release/acquire edge. Every page
/// re-summarizes cleanly with a foreign slot present.
fn resummarize(rt: &mut TsanRuntime) -> Duration {
    let ctx = rt.intern_ctx("resummarize");
    let fibers = [rt.create_fiber("stream"), rt.host_fiber()];
    let key = SyncKey(0x700);
    rt.write_range(0x10_0000, RESUM_PAGES * PAGE, ctx);
    let t = Instant::now();
    for turn in 0..TURNS {
        take_turn(rt, fibers[(turn % 2) as usize], key);
        rt.write_range(0x10_0000, RESUM_PAGES * PAGE, ctx);
    }
    t.elapsed()
}

/// TeaLeaf shape: `UNALIGNED_PAGES` pages unfolded by ragged writes,
/// then alternating fibers re-annotate 4 KiB ranges that start mid-page
/// and straddle two unfolded pages, one turn per fiber.
fn unaligned(rt: &mut TsanRuntime) -> Duration {
    let ctx = rt.intern_ctx("unaligned");
    let fibers = [rt.create_fiber("stream"), rt.host_fiber()];
    let key = SyncKey(0x700);
    for p in 0..UNALIGNED_PAGES {
        rt.write_range(0x10_0000 + p * PAGE + 8, PAGE - 16, ctx);
    }
    let t = Instant::now();
    for turn in 0..TURNS {
        take_turn(rt, fibers[(turn % 2) as usize], key);
        for p in 0..UNALIGNED_PAGES - 1 {
            rt.write_range(0x10_0000 + p * PAGE + PAGE / 2, PAGE, ctx);
        }
    }
    t.elapsed()
}

/// Unfold: summarize 64 pages, then split each with a partial write.
fn unfold(rt: &mut TsanRuntime) -> Duration {
    let ctx = rt.intern_ctx("unfold");
    rt.write_range(0x10_0000, 64 * PAGE, ctx);
    let t = Instant::now();
    for p in 0..64u64 {
        rt.write_range(0x10_0040 + p * PAGE, 128, ctx);
    }
    t.elapsed()
}

/// Unfold, end-to-end: same workload as [`unfold`] but the setup write is
/// *inside* the timed region, so the flat walk pays its cold slot-array
/// allocation in the measurement just like the tiered unfold does.
fn unfold_total(rt: &mut TsanRuntime) -> Duration {
    let ctx = rt.intern_ctx("unfold");
    let t = Instant::now();
    rt.write_range(0x10_0000, 64 * PAGE, ctx);
    for p in 0..64u64 {
        rt.write_range(0x10_0040 + p * PAGE, 128, ctx);
    }
    t.elapsed()
}

/// The Jacobi/TeaLeaf sync-op mix, distilled (Table I proportions): one
/// stream fiber, bursts of device ops (sync switch in, completion
/// release, non-sync return) punctuated by host sync points that acquire
/// the stream's key. Returns the elapsed time; counter assertions on this
/// shape live in `main`.
fn sync_op_mix(rt: &mut TsanRuntime) -> Duration {
    let stream = rt.create_fiber("stream");
    let host = rt.host_fiber();
    let key = SyncKey(0x600);
    let t = Instant::now();
    for _ in 0..128 {
        for _ in 0..6 {
            rt.switch_to_fiber_sync(stream);
            rt.annotate_happens_before(key);
            rt.switch_to_fiber(host);
        }
        rt.annotate_happens_after(key); // cudaDeviceSynchronize
    }
    t.elapsed()
}

/// The epoch-hopping cases must time clean re-annotations: no races,
/// and the Jacobi shape must stay entirely at the summary tier.
fn check_shapes() {
    for tiered in [true, false] {
        let mut rt = TsanRuntime::with_shadow_tiering("bench", tiered);
        resummarize(&mut rt);
        assert_eq!(rt.race_count(), 0, "resummarize races (tiered={tiered})");
        if tiered {
            let s = rt.stats();
            assert_eq!(s.page_unfolds, 0, "resummarize unfolded a summary");
            assert_eq!(s.page_summaries_stored, RESUM_PAGES * (TURNS + 1));
        }
        let mut rt = TsanRuntime::with_shadow_tiering("bench", tiered);
        unaligned(&mut rt);
        assert_eq!(rt.race_count(), 0, "unaligned races (tiered={tiered})");
    }
}

fn main() {
    let runs = (env_u64("CUSAN_BENCH_RUNS", 5) as usize).max(1);
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    banner(
        "Shadow tiers — access_range fast-path microbenchmark",
        &format!(
            "median [min, max] of {runs} runs per case | tiered vs flat walk | {hw_threads} hw threads"
        ),
    );
    check_shapes();

    let mut partial = Case::new("partial_unfold_64pages", 64 * 128, runs, unfold);
    // Asymmetric by construction (flat's allocation is untimed) — kept
    // for the shape of the cliff, flagged informational;
    // `unfold_cold_total_64pages` is the fair measurement.
    partial.informational = true;
    let cases = [
        Case::new("cold_1MiB", COLD_LEN, runs, cold),
        Case::new("repeated_1MiB_x256", COLD_LEN * REPEATS, runs, repeated),
        partial,
        Case::new(
            "unfold_cold_total_64pages",
            64 * PAGE + 64 * 128,
            runs,
            unfold_total,
        ),
        Case::new(
            "resummarize_2MiB_foreign_epoch",
            TURNS * RESUM_PAGES * PAGE,
            runs,
            resummarize,
        ),
        Case::new(
            "unaligned_4KiB_over_unfolded",
            TURNS * (UNALIGNED_PAGES - 1) * PAGE,
            runs,
            unaligned,
        ),
    ];

    println!(
        "{:<32} {:>11} {:>30} {:>30} {:>9}",
        "Case", "Bytes", "Tiered", "Flat", "Speedup"
    );
    println!("{:-<116}", "");
    let fmt = |s: &Stat| format!("{:.2?} [{:.2?}, {:.2?}]", s.median, s.min, s.max);
    for c in &cases {
        println!(
            "{:<32} {:>11} {:>30} {:>30} {:>8.2}x{}",
            c.name,
            fmt_bytes(c.bytes),
            fmt(&c.tiered),
            fmt(&c.flat),
            c.speedup(),
            if c.informational {
                "  (informational)"
            } else {
                ""
            }
        );
    }

    // ---- epoch clocks: the sync-op mix, compressed vs join-always ---------
    let epoch_on = time_opts(runs, true, true, sync_op_mix);
    let epoch_off = time_opts(runs, true, false, sync_op_mix);
    let mix_stats = {
        let mut rt = TsanRuntime::with_options("bench", true, true);
        sync_op_mix(&mut rt);
        rt.stats()
    };
    println!();
    println!(
        "sync_op_mix (128 bursts x 6 device ops): epoch {} | join-always {} | {:.2}x",
        fmt(&epoch_on),
        fmt(&epoch_off),
        epoch_off.median.as_secs_f64() / epoch_on.median.as_secs_f64().max(1e-12)
    );
    println!(
        "  epoch_fast_acquires {} | epoch_fast_releases {} | full_clock_joins {}",
        mix_stats.epoch_fast_acquires, mix_stats.epoch_fast_releases, mix_stats.full_clock_joins
    );

    // ---- the real apps: epoch/arena counters on the paper fixtures --------
    let app_stats = |name: &str| -> TsanStats {
        match name {
            "jacobi" => run_jacobi(&jacobi_config(), Flavor::Cusan).outcome.ranks[0].tsan,
            _ => run_tealeaf(&tealeaf_config(), Flavor::Cusan).outcome.ranks[0].tsan,
        }
    };
    let (jt, tt) = (app_stats("jacobi"), app_stats("tealeaf"));
    for (app, s) in [("jacobi", &jt), ("tealeaf", &tt)] {
        println!(
            "{app}: epoch_fast_acquires {} | full_clock_joins {} | arena_slabs_allocated {}",
            s.epoch_fast_acquires, s.full_clock_joins, s.arena_slabs_allocated
        );
    }

    // Hand-rolled JSON: the workspace is offline, so no serde.
    let mut json = format!(
        "{{\n  \"benchmark\": \"shadow_access_range\",\n  \"statistic\": \"median\",\n  \
         \"runs\": {runs},\n  \"hw_threads\": {hw_threads},\n  \"cases\": [\n"
    );
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"bytes\": {}, {}, {}, \"speedup\": {:.2}, \"informational\": {}}}{}",
            c.name,
            c.bytes,
            c.tiered.json("tiered"),
            c.flat.json("flat"),
            c.speedup(),
            c.informational,
            if i + 1 < cases.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"epoch_clocks\": {\n");
    let _ = writeln!(
        json,
        "    \"sync_op_mix\": {{{}, {}, \"epoch_fast_acquires\": {}, \"epoch_fast_releases\": {}, \"full_clock_joins\": {}}},",
        epoch_on.json("epoch"),
        epoch_off.json("join_always"),
        mix_stats.epoch_fast_acquires,
        mix_stats.epoch_fast_releases,
        mix_stats.full_clock_joins
    );
    let _ = writeln!(
        json,
        "    \"jacobi\": {{\"epoch_fast_acquires\": {}, \"epoch_fast_releases\": {}, \"full_clock_joins\": {}, \"arena_pages_reused\": {}, \"arena_slabs_allocated\": {}}},",
        jt.epoch_fast_acquires, jt.epoch_fast_releases, jt.full_clock_joins, jt.arena_pages_reused, jt.arena_slabs_allocated
    );
    let _ = writeln!(
        json,
        "    \"tealeaf\": {{\"epoch_fast_acquires\": {}, \"epoch_fast_releases\": {}, \"full_clock_joins\": {}, \"arena_pages_reused\": {}, \"arena_slabs_allocated\": {}}}",
        tt.epoch_fast_acquires, tt.epoch_fast_releases, tt.full_clock_joins, tt.arena_pages_reused, tt.arena_slabs_allocated
    );
    json.push_str("  }\n}\n");
    let path =
        std::env::var("CUSAN_BENCH_SHADOW_JSON").unwrap_or_else(|_| "BENCH_shadow.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    let repeated_ok = cases[1].speedup() >= 5.0;
    let cold_ok = cases[0].speedup() >= 2.0;
    let unfold_total_ok = cases[3].speedup() >= 0.25;
    let mix_ok = mix_stats.epoch_fast_acquires > mix_stats.full_clock_joins;
    let tealeaf_ok = tt.epoch_fast_acquires > 0 && tt.epoch_fast_acquires > tt.full_clock_joins;
    println!(
        "targets: repeated >= 5x -> {} | cold >= 2x -> {} | unfold total within 4x of flat -> {} \
         | mix fast > joins -> {} | tealeaf fast > joins -> {}",
        if repeated_ok { "met" } else { "MISSED" },
        if cold_ok { "met" } else { "MISSED" },
        if unfold_total_ok { "met" } else { "MISSED" },
        if mix_ok { "met" } else { "MISSED" },
        if tealeaf_ok { "met" } else { "MISSED" },
    );
    assert!(
        unfold_total_ok,
        "partial-unfold regression: end-to-end tiered run is {:.2}x of flat (must stay within 4x)",
        cases[3].speedup()
    );
    assert!(
        mix_ok,
        "epoch regression: the sync-op mix should be dominated by fast paths ({mix_stats:?})"
    );
    assert!(
        tealeaf_ok,
        "epoch regression on the TeaLeaf fixture: fast acquires {} vs full joins {}",
        tt.epoch_fast_acquires, tt.full_clock_joins
    );
}
