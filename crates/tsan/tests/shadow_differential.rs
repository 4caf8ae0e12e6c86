//! Differential safety net for the tiered shadow.
//!
//! Replays randomized access/sync traces against two implementations:
//!
//! * the **tiered** [`ShadowMemory`] (page summaries + same-state fast
//!   path) — the code under test;
//! * a **naive reference shadow** written here from scratch: a plain
//!   `HashMap<word, [u64; 4]>` that walks every word of every access with
//!   the same slot state machine and the same word-local eviction victim.
//!
//! Because eviction is deterministic and word-local in both, the two must
//! produce *exactly* equal conflict multisets (as word-addr/packed-prev
//! pairs) and equal final per-word slot contents — not merely equal
//! modulo eviction order. Any divergence (a lost detection, a spurious
//! conflict, a fast-path skip that mattered) fails the test.
//!
//! The trace generator is a seeded LCG, so failures reproduce. The op mix
//! is shaped like real CuSan workloads: mostly whole-buffer (page-covering)
//! annotations, frequent identical re-annotations (the fast-path pattern),
//! some partial/unaligned accesses (unfold pressure), 6 fibers (slot
//! eviction pressure), and release/acquire edges over a few sync keys.
//!
//! Three scripted shapes aim at the boundaries of the run-granular walk
//! and of summary-tier emission — a divergent word inside a uniform
//! unfolded range, foreign unordered whole-page re-annotations of
//! summaries, and runs whose decision is an eviction. They never repeat
//! an access back to back, so there the tiered shadow must match the
//! reference *exactly*: every conflict emission, in order.

use std::collections::{BTreeMap, HashMap};

use tsan_rt::clock::VectorClock;
use tsan_rt::fiber::FiberId;
use tsan_rt::report::CtxId;
use tsan_rt::shadow::{
    pack, unpack, RawConflict, ShadowAccess, ShadowMemory, PAGE_BYTES, SLOTS_PER_WORD, WORD_BYTES,
};

// ---- naive reference shadow ------------------------------------------------

/// Flat per-word shadow with no tiers. Semantics duplicated independently
/// of `shadow.rs` internals (same published rules: subsumption, HB check,
/// word-local eviction victim `(word ^ fiber) % 4`).
#[derive(Default)]
struct ReferenceShadow {
    words: HashMap<u64, [u64; SLOTS_PER_WORD]>,
}

impl ReferenceShadow {
    #[allow(clippy::too_many_arguments)]
    fn access_range(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        fiber: FiberId,
        clock: u32,
        ctx: CtxId,
        fiber_clock: &VectorClock,
        mut on_conflict: impl FnMut(RawConflict),
    ) {
        if len == 0 {
            return;
        }
        let new_raw = pack(ShadowAccess {
            fiber,
            clock,
            ctx,
            write,
        });
        let first = addr / WORD_BYTES;
        let last = (addr + len - 1) / WORD_BYTES;
        for w in first..=last {
            let slots = self.words.entry(w).or_default();
            let mut store_at = None;
            let mut skip = false;
            let mut empty_at = None;
            for (i, &raw) in slots.iter().enumerate() {
                if raw == 0 {
                    if empty_at.is_none() {
                        empty_at = Some(i);
                    }
                    continue;
                }
                let prev = unpack(raw);
                if prev.fiber == fiber {
                    if write || !prev.write {
                        store_at = Some(i);
                    } else {
                        skip = true;
                    }
                    continue;
                }
                if (write || prev.write) && fiber_clock.get(prev.fiber) < prev.clock {
                    on_conflict(RawConflict {
                        word_addr: w * WORD_BYTES,
                        prev,
                    });
                }
            }
            if !skip {
                let i = store_at
                    .or(empty_at)
                    .unwrap_or((w as usize ^ fiber.index()) % SLOTS_PER_WORD);
                slots[i] = new_raw;
            }
        }
    }

    fn word_accesses(&self, addr: u64) -> Vec<ShadowAccess> {
        self.words
            .get(&(addr / WORD_BYTES))
            .map(|s| s.iter().filter(|&&r| r != 0).map(|&r| unpack(r)).collect())
            .unwrap_or_default()
    }
}

// ---- deterministic trace generator ----------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Knuth MMIX constants.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const FIBERS: usize = 6;
const SYNC_KEYS: usize = 4;
/// The tracked arena: 8 pages.
const ARENA_PAGES: u64 = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// (addr, len, write, fiber, ctx)
    Access(u64, u64, bool, usize, u32),
    /// Re-issue the previous access verbatim (fast-path bait).
    RepeatLast,
    /// fiber releases key.
    Release(usize, usize),
    /// fiber acquires key.
    Acquire(usize, usize),
}

fn gen_op(rng: &mut Lcg) -> Op {
    match rng.below(100) {
        // Whole-buffer annotation: 1..=3 pages, page-aligned.
        0..=34 => {
            let pages = 1 + rng.below(3);
            let page = rng.below(ARENA_PAGES - pages + 1);
            Op::Access(
                page * PAGE_BYTES,
                pages * PAGE_BYTES,
                rng.below(2) == 0,
                rng.below(FIBERS as u64) as usize,
                rng.below(8) as u32,
            )
        }
        // Identical re-annotation pressure.
        35..=54 => Op::RepeatLast,
        // Partial / unaligned access (unfold pressure).
        55..=79 => {
            let addr = rng.below(ARENA_PAGES * PAGE_BYTES - 512);
            let len = 1 + rng.below(500);
            Op::Access(
                addr,
                len,
                rng.below(2) == 0,
                rng.below(FIBERS as u64) as usize,
                rng.below(8) as u32,
            )
        }
        // Sync edges.
        80..=89 => Op::Release(
            rng.below(FIBERS as u64) as usize,
            rng.below(SYNC_KEYS as u64) as usize,
        ),
        _ => Op::Acquire(
            rng.below(FIBERS as u64) as usize,
            rng.below(SYNC_KEYS as u64) as usize,
        ),
    }
}

// ---- run-boundary shapes ----------------------------------------------------

/// A scripted op sequence drawn with its parameters from the LCG.
type Shape = fn(&mut Lcg) -> Vec<Op>;

/// Access op: (addr, len, write, fiber) with a ctx derived from the fiber.
fn access(addr: u64, len: u64, write: bool, fiber: usize) -> Op {
    Op::Access(addr, len, write, fiber, fiber as u32)
}

/// One divergent word in the middle of an otherwise uniform unfolded
/// range: fiber `a` reads a ragged multi-page range (every page
/// unfolded, all words alike), fiber `b` writes one word inside it, and
/// an unordered fiber `c` re-annotates the whole range — the run walk
/// must break at the divergent word and resume after it.
fn divergent_word_shape(rng: &mut Lcg) -> Vec<Op> {
    let pages = 1 + rng.below(3);
    let base = rng.below(ARENA_PAGES - pages) * PAGE_BYTES;
    let (start, len) = (base + 8 * (1 + rng.below(4)), pages * PAGE_BYTES - 64);
    let odd = start + 8 * (1 + rng.below(len / 8 - 2));
    vec![
        access(start, len, false, 0),
        access(odd, 8, true, 1),
        access(start - 8, len + 16, rng.below(2) == 0, 2),
    ]
}

/// A foreign, unordered whole-page re-annotation of summarized pages:
/// conflicts found at the summary tier are re-emitted for every word.
/// A release/acquire edge orders the re-annotator after some writers
/// only, so clean and racy summary re-annotations mix.
fn summary_conflict_shape(rng: &mut Lcg) -> Vec<Op> {
    let pages = 1 + rng.below(3);
    let base = rng.below(ARENA_PAGES - pages + 1) * PAGE_BYTES;
    let len = pages * PAGE_BYTES;
    let mut ops = vec![access(base, len, true, 0), access(base, len, false, 1)];
    if rng.below(2) == 0 {
        ops.push(Op::Release(0, 0));
        ops.push(Op::Acquire(3, 0));
    }
    ops.push(access(base, len, rng.below(2) == 0, 3));
    ops.push(access(base, len, true, 4));
    ops
}

/// A run whose decision is `Evict`: five fibers read one range, so every
/// word holds four foreign epochs when the fifth arrives and each word
/// evicts its own victim; a writer then conflicts with the survivors.
/// Half the time the range is page-aligned (summaries that must unfold
/// first), half the time ragged (unfolded from the start).
fn evict_run_shape(rng: &mut Lcg) -> Vec<Op> {
    let base = rng.below(ARENA_PAGES - 1) * PAGE_BYTES;
    let (start, len) = if rng.below(2) == 0 {
        (base, PAGE_BYTES)
    } else {
        (base + 24, PAGE_BYTES + 40)
    };
    let mut ops: Vec<Op> = (0..5).map(|f| access(start, len, false, f)).collect();
    ops.push(access(start + 16, len - 32, true, 5));
    ops
}

// ---- the differential harness ---------------------------------------------

/// Conflict multiset: (word_addr, packed prev) → count. Multiset (not
/// set) so a fast-path skip that drops a duplicate *emission* on one side
/// would still be caught by the `word_accesses` comparison while the
/// conflict comparison stays meaningful per word.
type Conflicts = BTreeMap<(u64, u64), u64>;

fn record(conflicts: &mut Conflicts, c: RawConflict) {
    *conflicts.entry((c.word_addr, pack(c.prev))).or_insert(0) += 1;
}

/// The shadow under test and the reference, fed the same ops under one
/// happens-before state.
struct Harness {
    dut: ShadowMemory,
    reference: ReferenceShadow,
    clocks: Vec<VectorClock>,
    sync: Vec<Option<VectorClock>>,
}

impl Harness {
    fn new(tiered: bool) -> Self {
        Harness {
            dut: ShadowMemory::with_tiering(tiered),
            reference: ReferenceShadow::default(),
            clocks: (0..FIBERS)
                .map(|f| {
                    let mut c = VectorClock::new();
                    c.set(FiberId::from_index(f), 1);
                    c
                })
                .collect(),
            sync: vec![None; SYNC_KEYS],
        }
    }

    /// Apply one op to both shadows, passing each side's conflicts, in
    /// emission order, to its own callback.
    fn apply(
        &mut self,
        op: Op,
        mut on_dut: impl FnMut(RawConflict),
        mut on_ref: impl FnMut(RawConflict),
    ) {
        match op {
            Op::Access(addr, len, write, f, ctx) => {
                let fiber = FiberId::from_index(f);
                let clock = self.clocks[f].get(fiber);
                let fc = &self.clocks[f];
                self.dut
                    .access_range(addr, len, write, fiber, clock, CtxId(ctx), fc, &mut on_dut);
                self.reference.access_range(
                    addr,
                    len,
                    write,
                    fiber,
                    clock,
                    CtxId(ctx),
                    fc,
                    &mut on_ref,
                );
            }
            Op::Release(f, k) => {
                let fiber = FiberId::from_index(f);
                let snapshot = self.clocks[f].clone();
                match &mut self.sync[k] {
                    Some(sv) => sv.join(&snapshot),
                    None => self.sync[k] = Some(snapshot),
                }
                let cur = self.clocks[f].get(fiber);
                self.clocks[f].set(fiber, cur + 1);
            }
            Op::Acquire(f, k) => {
                if let Some(sv) = &self.sync[k] {
                    self.clocks[f].join(sv);
                }
            }
            Op::RepeatLast => unreachable!("run_trace resolves repeats"),
        }
    }

    /// Assert both sides hold the same slots at `addr`.
    fn assert_word_agrees(&self, addr: u64, what: &str) {
        let mut a = self.dut.word_accesses(addr);
        let mut b = self.reference.word_accesses(addr);
        let key = |x: &ShadowAccess| pack(*x);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "{what}: slots diverged at {addr:#x}");
    }

    /// Full sweep over every word both sides could have touched.
    fn assert_all_words_agree(&self, what: &str) {
        for w in 0..(ARENA_PAGES * PAGE_BYTES / WORD_BYTES) {
            self.assert_word_agrees(w * WORD_BYTES, what);
        }
    }
}

fn run_trace(seed: u64, ops: usize, tiered: bool) -> (Conflicts, Conflicts) {
    let mut rng = Lcg(seed);
    let mut h = Harness::new(tiered);
    let mut dut_conflicts = Conflicts::new();
    let mut ref_conflicts = Conflicts::new();
    let mut last_access: Option<(u64, u64, bool, usize, u32)> = None;

    for i in 0..ops {
        let op = match gen_op(&mut rng) {
            Op::RepeatLast => match last_access {
                // A fast-path hit only happens when nothing else ran in
                // between, which the generator produces often enough.
                Some((a, l, w, f, c)) => Op::Access(a, l, w, f, c),
                None => Op::Access(0, PAGE_BYTES, true, 0, 0),
            },
            op => op,
        };
        if let Op::Access(a, l, w, f, c) = op {
            last_access = Some((a, l, w, f, c));
        }
        h.apply(
            op,
            |c| record(&mut dut_conflicts, c),
            |c| record(&mut ref_conflicts, c),
        );
        // Spot-check slot-level equality as the trace evolves (cheap:
        // a few words per step).
        if i % 97 == 0 {
            let w = (rng.below(ARENA_PAGES * PAGE_BYTES / WORD_BYTES)) * WORD_BYTES;
            h.assert_word_agrees(w, &format!("seed {seed} step {i}"));
        }
    }
    h.assert_all_words_agree(&format!("seed {seed} final"));
    (dut_conflicts, ref_conflicts)
}

/// Run `shape`-generated op sequences back to back (no op repeats its
/// predecessor, so the same-state fast path never fires) and require
/// the conflicts — every emission, in order — and the final slots to
/// equal the reference's exactly. Returns the number of conflicts seen.
fn run_shape_exact(seed: u64, tiered: bool, shape: Shape) -> usize {
    let mut rng = Lcg(seed);
    let mut h = Harness::new(tiered);
    let (mut dut, mut reference) = (Vec::new(), Vec::new());
    for round in 0..6 {
        for op in shape(&mut rng) {
            h.apply(op, |c| dut.push(c), |c| reference.push(c));
        }
        // Fresh epochs for the next round, so its first access is never
        // identical to this round's last.
        for f in 0..FIBERS {
            h.apply(Op::Release(f, round % SYNC_KEYS), |_| {}, |_| {});
        }
    }
    assert_eq!(h.dut.counters().fastpath_hits, 0, "seed {seed}");
    assert_eq!(
        dut, reference,
        "seed {seed} (tiered={tiered}): conflict emissions diverged"
    );
    h.assert_all_words_agree(&format!("seed {seed} (tiered={tiered})"));
    dut.len()
}

/// Conflict *sets* (with per-word granularity) must match exactly. The
/// tiers may legitimately skip re-*emitting* a conflict the reference
/// re-emits (the same-state fast path skips a walk whose conflicts were
/// all emitted by the immediately preceding identical call), so counts
/// are compared only down to "seen at this word about this prev access".
fn assert_same_detections(seed: u64, dut: &Conflicts, reference: &Conflicts) {
    let dut_keys: Vec<_> = dut.keys().collect();
    let ref_keys: Vec<_> = reference.keys().collect();
    assert_eq!(
        dut_keys, ref_keys,
        "seed {seed}: tiered and reference shadows disagree on the conflict set"
    );
    for (k, n) in dut {
        assert!(
            reference[k] >= *n,
            "seed {seed}: tiered shadow over-reports {k:?} ({n} > {})",
            reference[k]
        );
    }
}

#[test]
fn tiered_matches_reference_on_random_traces() {
    // ~10k randomized ops across several seeds.
    for seed in [1, 2, 3, 0xDEAD, 0xC0FFEE] {
        let (dut, reference) = run_trace(seed, 2000, true);
        assert_same_detections(seed, &dut, &reference);
        assert!(
            !reference.is_empty(),
            "seed {seed}: trace produced no conflicts — generator is too tame to test anything"
        );
    }
}

#[test]
fn untiered_matches_reference_exactly() {
    // With tiering off the walk is the same algorithm as the reference;
    // even the emission counts must line up.
    for seed in [7, 8] {
        let (dut, reference) = run_trace(seed, 1500, false);
        assert_eq!(
            dut, reference,
            "seed {seed}: untiered shadow diverged from reference"
        );
    }
}

#[test]
fn run_boundaries_match_reference_exactly() {
    let shapes: [(&str, Shape); 3] = [
        ("divergent word", divergent_word_shape),
        ("summary-tier conflicts", summary_conflict_shape),
        ("evict run", evict_run_shape),
    ];
    for (name, shape) in shapes {
        for tiered in [true, false] {
            let mut conflicts = 0;
            for seed in [1, 2, 3, 0xBEEF, 0xC0FFEE] {
                conflicts += run_shape_exact(seed, tiered, shape);
            }
            assert!(conflicts > 0, "{name}: shape raised no conflicts");
        }
    }
}

#[test]
fn fastpath_only_skips_redundant_emissions() {
    // Direct check of the one place tiered emission counts may drop:
    // an identical back-to-back re-annotation.
    let mut tiered = ShadowMemory::new();
    let clk = VectorClock::new();
    let f1 = FiberId::from_index(1);
    let f2 = FiberId::from_index(2);
    tiered.access_range(0, PAGE_BYTES, true, f1, 1, CtxId(0), &clk, |_| {});
    let mut first = 0u64;
    tiered.access_range(0, PAGE_BYTES, false, f2, 1, CtxId(1), &clk, |_| first += 1);
    let mut second = 0u64;
    tiered.access_range(0, PAGE_BYTES, false, f2, 1, CtxId(1), &clk, |_| second += 1);
    assert_eq!(first, PAGE_BYTES / WORD_BYTES);
    assert_eq!(second, 0, "fast path skips the duplicate emission");
    assert_eq!(tiered.counters().fastpath_hits, 1);
}
