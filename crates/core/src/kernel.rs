//! SIMD split kernels for the `O(3^n)` inner loop.
//!
//! [`crate::split::find_best_split`] consumes the hot cost array one
//! 4-byte probe at a time: the pruning cascade is a long chain of scalar
//! compares, each waiting on its load. The kernels here reformulate the
//! loop at the instruction level without changing a single output bit:
//!
//! 1. **Batching.** The subset-successor walk (split or conv, see
//!    `split::walk`) is inherently serial, but each step is ~2 ALU ops
//!    — so the walk runs ahead and deposits up to [`LANES`] candidate
//!    `lhs` sets into a small buffer. The batch then has no serial
//!    dependencies left.
//! 2. **Gather.** For layouts exposing a dense cost column
//!    ([`TableLayout::cost_base`]), `cost[lhs]` (and, for surviving
//!    batches, `cost[rhs]`) is gathered for the whole batch at once —
//!    as per-lane loads feeding AVX2/NEON vectors; hardware
//!    `vgatherdps` measured slower than pipelined scalar loads on
//!    cache-resident tables (see [`gather_mask_avx2`]).
//! 3. **Branchless cascade.** The cascade's first test runs as one
//!    vector compare `lhs_cost < best` over every lane; a move-mask
//!    turns the survivors into a bit set. Most batches produce an empty
//!    mask and retire right there, after a single gather — mirroring the
//!    scalar cascade, which never touches `cost[rhs]` for a failing
//!    `lhs`. Only batches with survivors gather the `rhs` column and
//!    apply the second compare `lhs_cost + rhs_cost < best`.
//! 4. **Order-preserving reduction.** Surviving lanes are re-judged in
//!    ascending lane order against the *running* best, exactly as the
//!    scalar cascade would — preserving the first-wins tie-break
//!    contract documented in `find_best_split` and therefore bit-for-bit
//!    output parity (table bits, `best_lhs`, canonical plans).
//!
//! # Counter parity
//!
//! The issue planning this work expected kernel-mode [`crate::Counters`]
//! to diverge from the scalar cascade's short-circuit counts. The
//! re-judge pass makes that unnecessary — counters are *bit-identical*
//! to the scalar kernel, by this argument:
//!
//! The scalar cascade evaluates `κ''` for a lane iff `lhs_cost < best`
//! **and** `lhs_cost + rhs_cost < best` hold against the running best at
//! the moment the lane is reached. The vector mask keeps a lane iff
//! `lhs_cost < best₀` **and** `lhs_cost + rhs_cost < best₀` where
//! `best₀` is the running best at batch entry. Since `best` only ever
//! decreases, `best ≤ best₀` when the lane is re-judged, so every lane
//! the scalar cascade would have accepted is in the mask (each mask
//! condition is implied by the corresponding scalar test against the
//! tighter running best), and the re-judge applies the scalar's two
//! tests verbatim — in the same order, against the same running best —
//! before counting `kappa_dep` or `cond_hit`. Masked-out lanes are
//! exactly lanes the scalar cascade would have dropped before `κ''`.
//! NaN costs (a pathological model) compare `false` under `<` in both
//! the vector and scalar forms, so they drop out identically. Hence
//! `kappa_dep_evals`, `cond_hits`, `loop_iters` (counted while the
//! walk fills the buffer), `subsets` and `kappa_ind_evals` all match
//! the scalar kernel exactly, and the analytic counter identities of
//! Section 3.3 keep holding under every kernel. Nothing in the argument
//! depends on which candidates the walk visits, so it holds for both
//! walks.
//!
//! # Dispatch
//!
//! [`KernelChoice`] is the user-facing knob on
//! [`crate::DriveOptions`]; it resolves once per drive (never per row)
//! to a [`ResolvedKernel`]: `Simd` picks AVX-512 when
//! `is_x86_feature_detected!("avx512f")` says so, else AVX2, NEON on
//! aarch64, and degrades to the scalar cascade elsewhere — so `Simd` is
//! always safe to request. `RowEngine::run_row` picks the cascade per
//! row: the unpruned (`PRUNE = false`) ablation variant has no cascade
//! to vectorize — `κ''` runs on every lane by definition — so it always
//! runs the scalar reference. Batch buffers are sized to the widest
//! kernel ([`LANES_WIDE`]); each resolved kernel reports how many lanes
//! of them it fills per batch via [`ResolvedKernel::lanes`].

use crate::bitset::RelSet;
use crate::cost::CostModel;
use crate::split::{finish_row, kappa_dep_oriented, walk};
use crate::stats::Stats;
use crate::table::TableLayout;

/// Batch width of the 256-bit kernels: AVX2's eight `f32` lanes. The
/// NEON path consumes the same batch as two four-lane halves.
pub(crate) const LANES: usize = 8;

/// Batch width of the widest kernel (AVX-512's sixteen `f32` lanes) and
/// therefore the size of the shared batch buffers; the narrower kernels
/// operate on a [`LANES`]-long prefix of them.
pub(crate) const LANES_WIDE: usize = 16;

/// A batch buffer pinned to the start of a 64-byte cache line. The
/// vector kernels load and store whole batches, and a buffer's offset
/// within its line would otherwise depend on the stack frame of
/// whichever driver the cascade is inlined into: a 512-bit access that
/// straddles two lines pays a split on every batch (see EXPERIMENTS.md).
#[derive(Copy, Clone)]
#[repr(C, align(64))]
pub(crate) struct LineAligned<T>(pub(crate) T);

/// Runtime name for the split-kernel variant used by the DP drivers,
/// selectable per [`crate::DriveOptions`] (the service configures
/// `Simd`). Every kernel produces bit-identical tables, plans and
/// [`crate::Counters`]; they differ only in speed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// The scalar reference cascade of [`crate::split`] — the paper's
    /// nested-`if` loop, one probe at a time. The default.
    #[default]
    Scalar,
    /// Runtime-dispatched SIMD kernel: AVX-512 mask-register batches on
    /// x86-64 when `avx512f` is detected, else AVX2 lane loads + vector
    /// compare, NEON on aarch64, otherwise the scalar cascade.
    Simd,
}

impl KernelChoice {
    /// All selectable kernels, for equivalence sweeps.
    pub const ALL: [KernelChoice; 2] = [KernelChoice::Scalar, KernelChoice::Simd];

    /// Stable lower-case name (`scalar` / `simd`).
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Scalar => "scalar",
            KernelChoice::Simd => "simd",
        }
    }

    /// The kernel this choice runs on the current host: `scalar`,
    /// `avx2`, `avx512` or `neon` — the fact benchmark artifacts stamp
    /// beside their numbers.
    pub fn resolved_name(self) -> &'static str {
        self.resolve().name()
    }

    /// Resolve the user-facing choice against the running hardware, once
    /// per drive. `Simd` degrades gracefully: the scalar cascade stands
    /// in wherever no vector path shipped (or the CPU lacks AVX2), so
    /// requesting `Simd` is always portable.
    pub(crate) fn resolve(self) -> ResolvedKernel {
        match self {
            KernelChoice::Scalar => ResolvedKernel::Scalar,
            KernelChoice::Simd => {
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        return ResolvedKernel::Avx512;
                    }
                    if std::arch::is_x86_feature_detected!("avx2") {
                        return ResolvedKernel::Avx2;
                    }
                    ResolvedKernel::Scalar
                }
                #[cfg(target_arch = "aarch64")]
                {
                    ResolvedKernel::Neon
                }
                #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
                {
                    ResolvedKernel::Scalar
                }
            }
        }
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A [`KernelChoice`] pinned to the running hardware: the drivers
/// resolve once per drive and hand workers this `Copy` token, so the
/// feature detection never sits on the row path.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ResolvedKernel {
    /// Scalar reference cascade (also the `Simd` fallback).
    Scalar,
    /// AVX2 lane loads + vector-compare batches.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 mask-register batches ([`LANES_WIDE`] lanes).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// NEON batches (two four-lane halves per batch).
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl ResolvedKernel {
    /// Stable lower-case name (`scalar` / `avx2` / `avx512` / `neon`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ResolvedKernel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            ResolvedKernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            ResolvedKernel::Avx512 => "avx512",
            #[cfg(target_arch = "aarch64")]
            ResolvedKernel::Neon => "neon",
        }
    }

    /// Candidates per batch for this kernel — how far the successor walk
    /// runs ahead before the cascade judges the batch. Batch width is
    /// invisible in the output: the in-order re-judge replays the exact
    /// scalar cascade against the running best whatever the width, so a
    /// 16-lane batch produces the same bits and counters as an 8-lane
    /// one (see the module docs).
    pub(crate) fn lanes(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            ResolvedKernel::Avx512 => LANES_WIDE,
            _ => LANES,
        }
    }
}

/// The vector cascade. Mirrors [`crate::split::find_best_split`] stage
/// for stage (κ' hoist and loop skip, the `CONV` [`walk`], cascade,
/// finish) with the loop body batched as described in the module docs.
///
/// Never inlined: its [`LineAligned`] buffers make the host function
/// realign its stack and give up a register to the frame pointer, and
/// out of line that cost stays here instead of taxing every driver loop
/// the cascade would be inlined into. One call per row is noise beside
/// the row's `2^k` candidates.
#[inline(never)]
pub(crate) fn find_best_split_batched<L, M, St, const PRUNE: bool, const CONV: bool>(
    table: &mut L,
    model: &M,
    s: RelSet,
    cap: f32,
    stats: &mut St,
    kernel: ResolvedKernel,
) where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    stats.subset();
    let out_card = table.card(s);

    // κ'(S) hoist + loop skip — verbatim from the scalar cascade.
    stats.kappa_ind();
    let kappa_ind = model.kappa_ind(out_card);
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(kappa_ind < cap) {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
        stats.loop_skipped();
        return;
    }

    // SAFETY: the pointer (when present) is dereferenced only by the
    // gather paths below, which index it with `lhs.index()` and
    // `rhs.index()` for nonempty strict subsets of `s` — every walk
    // candidate and its complement are — all smaller than
    // `1 << rels()`, the extent `cost_base` guarantees — while the
    // `&mut L` borrow held by this function keeps the buffer alive.
    let base = unsafe { table.cost_base() };

    let mut best = f32::INFINITY;
    let mut best_lhs = RelSet::EMPTY;
    let mut lhs_buf = LineAligned([RelSet::EMPTY; LANES_WIDE]);
    let mut lhs_cost = LineAligned([0.0f32; LANES_WIDE]);
    let mut oprnd = LineAligned([0.0f32; LANES_WIDE]);
    let lanes = kernel.lanes();

    // Same walk, same order, same termination as the scalar cascade; the
    // batch buffer never reorders candidates, so the first-wins
    // tie-break is decided on exactly the scalar visit order. Neither
    // cascade issues software prefetch: measured, the hint cost the
    // scalar cascade more than it hid (EXPERIMENTS.md, "Software
    // prefetch, deleted").
    let (anchor, space, mut sub) = walk::<CONV>(s);
    while sub != space {
        // Run the successor walk ahead, depositing up to `lanes`
        // candidates. `loop_iters` counts here — once per candidate,
        // exactly as the scalar loop head does.
        let mut len = 0usize;
        while len < lanes && sub != space {
            stats.loop_iter();
            lhs_buf.0[len] = anchor | sub;
            len += 1;
            sub = space.subset_successor(sub);
        }

        // Gather operand costs and evaluate the first two cascade tests
        // branchlessly against best₀ (the running best at batch entry):
        // bit i of `mask` ⇔ `lhs_cost[i] < best₀` ∧
        // `lhs_cost[i] + rhs_cost[i] < best₀`. The rhs column is only
        // touched when some lane survives the first test — exactly the
        // load the scalar cascade skips for a failing lhs.
        let mask = match (kernel, base) {
            #[cfg(target_arch = "x86_64")]
            (ResolvedKernel::Avx512, Some(base)) if len == LANES_WIDE => {
                // SAFETY: `Avx512` is only resolved after
                // `is_x86_feature_detected!("avx512f")`, and `base`
                // covers every gathered index per the `cost_base`
                // contract (all lanes hold nonempty strict subsets of
                // `s`).
                unsafe {
                    gather_mask_avx512(base, s, &lhs_buf.0, best, &mut lhs_cost.0, &mut oprnd.0)
                }
            }
            #[cfg(target_arch = "x86_64")]
            (ResolvedKernel::Avx2, Some(base)) if len == LANES => {
                // The 256-bit kernel fills a LANES-long prefix of the
                // wide buffers; `first_chunk` re-types that prefix
                // without copying. The unwraps are shape facts
                // (LANES ≤ LANES_WIDE), not runtime conditions.
                let lhs8 = lhs_buf.0.first_chunk::<LANES>().unwrap();
                let lc8 = lhs_cost.0.first_chunk_mut::<LANES>().unwrap();
                let op8 = oprnd.0.first_chunk_mut::<LANES>().unwrap();
                // SAFETY: `Avx2` is only resolved after
                // `is_x86_feature_detected!("avx2")`, and `base` covers
                // every gathered index per the `cost_base` contract (all
                // lanes hold nonempty strict subsets of `s`).
                unsafe { gather_mask_avx2(base, s, lhs8, best, lc8, op8) }
            }
            #[cfg(target_arch = "aarch64")]
            (ResolvedKernel::Neon, Some(base)) if len == LANES => {
                let lhs8 = lhs_buf.0.first_chunk::<LANES>().unwrap();
                let lc8 = lhs_cost.0.first_chunk_mut::<LANES>().unwrap();
                let op8 = oprnd.0.first_chunk_mut::<LANES>().unwrap();
                // SAFETY: NEON is baseline on aarch64, and `base` covers
                // every gathered index per the `cost_base` contract (all
                // lanes hold nonempty strict subsets of `s`).
                unsafe { gather_mask_neon(base, s, lhs8, best, lc8, op8) }
            }
            _ => gather_mask_portable(
                table,
                s,
                &lhs_buf.0,
                len,
                best,
                &mut lhs_cost.0,
                &mut oprnd.0,
            ),
        };

        // Re-judge surviving lanes in ascending (= walk) order against
        // the *running* best, applying the scalar cascade verbatim —
        // this is what keeps output bits, tie-breaks and counters
        // identical to the reference (see the module docs).
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let cand = lhs_buf.0[i];
            let cand_cost = lhs_cost.0[i];
            if cand_cost < best {
                let oprnd_cost = oprnd.0[i];
                if oprnd_cost < best {
                    let dpnd_cost = if M::HAS_DEP {
                        stats.kappa_dep();
                        let rhs = s - cand;
                        oprnd_cost
                            + kappa_dep_oriented::<L, M, CONV>(table, model, out_card, s, cand, rhs)
                    } else {
                        oprnd_cost
                    };
                    if dpnd_cost < best {
                        stats.cond_hit();
                        best = dpnd_cost;
                        best_lhs = cand;
                    }
                }
            }
        }
    }

    finish_row(table, s, best, best_lhs, kappa_ind, cap);
}

/// Portable batch evaluation through the layout's safe accessors: the
/// tail path (fewer candidates than the kernel's lane count), the
/// no-dense-column path (e.g. [`crate::table::AosTable`]), and the
/// shadow-checked path (under `--cfg blitz_check`,
/// [`crate::table::SyncTableView::cost_base`] returns `None` so every
/// batched read funnels through the guard-checked `cost()` accessor and
/// the wave discipline stays machine-enforced). Operates on the shared
/// [`LANES_WIDE`] buffers; only the first `len` lanes are touched.
#[inline]
pub(crate) fn gather_mask_portable<L: TableLayout>(
    table: &L,
    s: RelSet,
    lhs_buf: &[RelSet; LANES_WIDE],
    len: usize,
    best: f32,
    lhs_cost: &mut [f32; LANES_WIDE],
    oprnd: &mut [f32; LANES_WIDE],
) -> u32 {
    let mut first = 0u32;
    for i in 0..len {
        let lc = table.cost(lhs_buf[i]);
        lhs_cost[i] = lc;
        first |= u32::from(lc < best) << i;
    }
    if first == 0 {
        return 0;
    }
    let mut mask = 0u32;
    let mut m = first;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        m &= m - 1;
        let oc = lhs_cost[i] + table.cost(s - lhs_buf[i]);
        oprnd[i] = oc;
        mask |= u32::from(oc < best) << i;
    }
    mask
}

/// AVX2 batch evaluation: the eight lhs costs are loaded lane-by-lane
/// from the dense cost column into a vector and hit with one
/// ordered-less-than compare against best₀; only if some lane survives
/// are the rhs costs loaded, added, and re-compared. Most batches
/// retire after the first compare with an empty mask, matching the
/// scalar cascade's habit of never loading `cost[rhs]` for a failing
/// lhs.
///
/// The lane loads are deliberately scalar: `vgatherdps` was measured
/// *slower* here — on cache-resident tables a hardware gather's ~20+
/// cycle latency lands on the critical path to the survivors branch,
/// while eight independent scalar loads pipeline through the load
/// ports and let the out-of-order core run batches ahead. The vector
/// win comes from the branchless eight-wide compare, not from how the
/// lanes are fetched. `_CMP_LT_OQ` is ordered and quiet: NaN lanes
/// compare `false`, exactly like the scalar `<`.
///
/// # Safety
///
/// Callers must ensure the `avx2` target feature is available on the
/// running CPU, and that `base` is valid for reads at offset
/// `lhs.index()` and `(s - lhs).index()` (in `f32` units) for every
/// `lhs` in `lhs_buf` — which the [`TableLayout::cost_base`] contract
/// provides for any nonempty strict subset of an in-bounds `s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gather_mask_avx2(
    base: *const f32,
    s: RelSet,
    lhs_buf: &[RelSet; LANES],
    best: f32,
    lhs_cost: &mut [f32; LANES],
    oprnd: &mut [f32; LANES],
) -> u32 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps,
        _mm256_storeu_ps, _CMP_LT_OQ,
    };
    let mut lc8 = LineAligned([0.0f32; LANES]);
    for (lc, lhs) in lc8.0.iter_mut().zip(lhs_buf) {
        // SAFETY: every `lhs_buf` index is in bounds for `base` per this
        // function's contract.
        *lc = unsafe { *base.add(lhs.index()) };
    }
    // SAFETY: unaligned loads from properly sized local arrays.
    let lc = unsafe { _mm256_loadu_ps(lc8.0.as_ptr()) };
    let best_v = _mm256_set1_ps(best);
    let first = lane_mask(_mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(lc, best_v)));
    if first == 0 {
        return 0;
    }
    let mut rc8 = LineAligned([0.0f32; LANES]);
    for (rc, &lhs) in rc8.0.iter_mut().zip(lhs_buf) {
        // SAFETY: every rhs index is in bounds for `base` per this
        // function's contract.
        *rc = unsafe { *base.add((s - lhs).index()) };
    }
    // SAFETY: unaligned loads/stores on properly sized local arrays.
    unsafe {
        let op = _mm256_add_ps(lc, _mm256_loadu_ps(rc8.0.as_ptr()));
        let survivors = _mm256_cmp_ps::<_CMP_LT_OQ>(op, best_v);
        _mm256_storeu_ps(lhs_cost.as_mut_ptr(), lc);
        _mm256_storeu_ps(oprnd.as_mut_ptr(), op);
        first & lane_mask(_mm256_movemask_ps(survivors))
    }
}

/// AVX-512 batch evaluation: sixteen lanes per batch, judged by
/// mask-register compares. Structure mirrors [`gather_mask_avx2`] —
/// per-lane scalar loads lifted into one 512-bit vector, a first
/// ordered-less-than compare against best₀ whose `__mmask16` result
/// retires most batches without touching the rhs column, then the add
/// and second compare for survivors only. `_mm512_cmp_ps_mask` writes
/// its verdict straight to a mask register — no `movemask` shuffle as
/// on AVX2 — and `__mmask16` is plain `u16`, so the lane set widens to
/// `u32` losslessly via `u32::from`.
///
/// The lane loads are deliberately scalar, for the same measured reason
/// as the AVX2 path: on cache-resident tables a hardware gather's
/// serial latency beats sixteen independent pipelined loads. The win
/// is the 16-wide branchless compare (twice the AVX2 batch per cascade
/// test), not the fetch. `_CMP_LT_OQ` is ordered and quiet: NaN lanes
/// compare `false`, exactly like the scalar `<`.
///
/// # Safety
///
/// Callers must ensure the `avx512f` target feature is available on
/// the running CPU, and that `base` is valid for reads at offset
/// `lhs.index()` and `(s - lhs).index()` (in `f32` units) for every
/// `lhs` in `lhs_buf` — which the [`TableLayout::cost_base`] contract
/// provides for any nonempty strict subset of an in-bounds `s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn gather_mask_avx512(
    base: *const f32,
    s: RelSet,
    lhs_buf: &[RelSet; LANES_WIDE],
    best: f32,
    lhs_cost: &mut [f32; LANES_WIDE],
    oprnd: &mut [f32; LANES_WIDE],
) -> u32 {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_cmp_ps_mask, _mm512_loadu_ps, _mm512_set1_ps, _mm512_storeu_ps,
        _CMP_LT_OQ,
    };
    let mut lc16 = LineAligned([0.0f32; LANES_WIDE]);
    for (lc, lhs) in lc16.0.iter_mut().zip(lhs_buf) {
        // SAFETY: every `lhs_buf` index is in bounds for `base` per this
        // function's contract.
        *lc = unsafe { *base.add(lhs.index()) };
    }
    // SAFETY: unaligned loads from properly sized local arrays.
    let lc = unsafe { _mm512_loadu_ps(lc16.0.as_ptr()) };
    let best_v = _mm512_set1_ps(best);
    let first = u32::from(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(lc, best_v));
    if first == 0 {
        return 0;
    }
    let mut rc16 = LineAligned([0.0f32; LANES_WIDE]);
    for (rc, &lhs) in rc16.0.iter_mut().zip(lhs_buf) {
        // SAFETY: every rhs index is in bounds for `base` per this
        // function's contract.
        *rc = unsafe { *base.add((s - lhs).index()) };
    }
    // SAFETY: unaligned loads/stores on properly sized local arrays.
    unsafe {
        let op = _mm512_add_ps(lc, _mm512_loadu_ps(rc16.0.as_ptr()));
        let survivors = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(op, best_v);
        _mm512_storeu_ps(lhs_cost.as_mut_ptr(), lc);
        _mm512_storeu_ps(oprnd.as_mut_ptr(), op);
        first & u32::from(survivors)
    }
}

/// Reinterpret a `movemask` result as a lane bitmask. The intrinsic
/// returns `i32` with only the low 8 bits ever set, so the conversion
/// is bit-preserving by construction; routing it through `to_ne_bytes`
/// keeps the hot path free of bare narrowing `as` casts.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_mask(movemask: i32) -> u32 {
    u32::from_ne_bytes(movemask.to_ne_bytes())
}

/// NEON batch evaluation: the eight-lane batch is consumed as two
/// four-lane halves. aarch64 has no gather instruction, so lanes are
/// loaded individually into stack arrays and lifted into vectors; the
/// two-stage compare then mirrors the AVX2 path — a half whose four lhs
/// costs all fail `< best₀` retires without touching the rhs column,
/// like the scalar cascade. `vcltq_f32` is an ordered compare: NaN
/// lanes produce all-zero masks, like scalar `<`.
///
/// # Safety
///
/// `base` must be valid for reads at offset `lhs.index()` and
/// `(s - lhs).index()` (in `f32` units) for every `lhs` in `lhs_buf` —
/// which the [`TableLayout::cost_base`] contract provides for any
/// nonempty strict subset of an in-bounds `s`. (NEON is baseline on
/// every aarch64 target this crate builds for.)
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
pub(crate) unsafe fn gather_mask_neon(
    base: *const f32,
    s: RelSet,
    lhs_buf: &[RelSet; LANES],
    best: f32,
    lhs_cost: &mut [f32; LANES],
    oprnd: &mut [f32; LANES],
) -> u32 {
    use std::arch::aarch64::{
        vaddq_f32, vcltq_f32, vdupq_n_f32, vld1q_f32, vst1q_f32, vst1q_u32,
    };
    let best_v = vdupq_n_f32(best);
    let mut mask = 0u32;
    for half in 0..2usize {
        let o = half * 4;
        let mut lc4 = [0.0f32; 4];
        for i in 0..4 {
            // SAFETY: in-bounds offsets per this function's contract.
            unsafe {
                lc4[i] = *base.add(lhs_buf[o + i].index());
            }
        }
        // First cascade test on the whole half; a half with no survivor
        // retires before any rhs load.
        let mut first = 0u32;
        // SAFETY: 16-byte loads/stores on properly sized local arrays.
        unsafe {
            let lc = vld1q_f32(lc4.as_ptr());
            let lt1 = vcltq_f32(lc, best_v);
            let mut bits4 = [0u32; 4];
            vst1q_u32(bits4.as_mut_ptr(), lt1);
            for (i, b) in bits4.iter().enumerate() {
                first |= (b & 1) << i;
            }
        }
        if first == 0 {
            continue;
        }
        let mut rc4 = [0.0f32; 4];
        for i in 0..4 {
            // SAFETY: in-bounds offsets per this function's contract.
            unsafe {
                rc4[i] = *base.add((s - lhs_buf[o + i]).index());
            }
        }
        // SAFETY: 16-byte loads/stores on properly sized local arrays.
        unsafe {
            let lc = vld1q_f32(lc4.as_ptr());
            let op = vaddq_f32(lc, vld1q_f32(rc4.as_ptr()));
            let lt = vcltq_f32(op, best_v);
            vst1q_f32(lhs_cost.as_mut_ptr().add(o), lc);
            vst1q_f32(oprnd.as_mut_ptr().add(o), op);
            let mut bits4 = [0u32; 4];
            vst1q_u32(bits4.as_mut_ptr(), lt);
            for (i, b) in bits4.iter().enumerate() {
                mask |= ((first >> i) & b & 1) << (o + i);
            }
        }
    }
    mask
}

/// Every vector kernel the running host can execute, narrowest first:
/// AVX2 and AVX-512 where detected on x86-64, NEON on aarch64. The unit
/// tests sweep all of them, so an AVX-512 host still runs the AVX2 path.
#[cfg(test)]
pub(crate) fn host_vector_kernels() -> Vec<ResolvedKernel> {
    #[allow(unused_mut)]
    let mut kernels = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(ResolvedKernel::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            kernels.push(ResolvedKernel::Avx512);
        }
    }
    #[cfg(target_arch = "aarch64")]
    kernels.push(ResolvedKernel::Neon);
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{DriverChoice, RowEngine};
    use crate::cost::{DiskNestedLoops, Kappa0, SmDnl, SortMerge};
    use crate::spec::JoinSpec;
    use crate::split::tests::fill_with_engine;
    use crate::stats::Counters;
    use crate::table::{AosTable, HotColdTable};

    #[test]
    fn kernel_choice_names_roundtrip() {
        for choice in KernelChoice::ALL {
            assert_eq!(format!("{choice}"), choice.name());
        }
        assert_eq!(KernelChoice::default(), KernelChoice::Scalar);
    }

    /// `Simd` resolves to the widest vector kernel the host runs, and to
    /// the scalar cascade where there is none.
    #[test]
    fn simd_resolves_to_the_widest_host_kernel() {
        let widest = host_vector_kernels().last().copied().unwrap_or(ResolvedKernel::Scalar);
        assert_eq!(KernelChoice::Simd.resolve(), widest);
        assert_eq!(KernelChoice::Simd.resolved_name(), widest.name());
        assert_eq!(KernelChoice::Scalar.resolve(), ResolvedKernel::Scalar);
    }

    /// Every vector kernel × both layouts × both walks must reproduce the
    /// scalar AoS rows of the same walk, `best_lhs`, *and* counters
    /// bit-for-bit — including under a model with κ'' (the cascade's
    /// third stage) and one with aux memos. The tables are filled on one
    /// worker — hot/cold in waves, through the dense-column gathers, as
    /// in production — so rows below the wave floor run the scalar
    /// cascade here as they do there.
    #[test]
    fn kernels_are_bit_identical_to_scalar_reference() {
        let spec = JoinSpec::new(
            &[120.0, 7.0, 3300.0, 42.0, 9.0, 260.0, 18.0],
            &[
                (0, 1, 0.01),
                (1, 2, 0.5),
                (2, 3, 0.002),
                (3, 4, 0.9),
                (0, 5, 0.03),
                (4, 6, 0.25),
            ],
        )
        .unwrap();
        check_spec_against_reference(&spec);
    }

    /// Tie-heavy catalog: uniform cardinalities and selectivities make
    /// many splits cost-equal, so any reduction that does not preserve
    /// the first-wins order shows up as a different `best_lhs`.
    #[test]
    fn kernels_preserve_first_wins_ties() {
        let spec = JoinSpec::cartesian(&[10.0; 9]).unwrap();
        check_spec_against_reference(&spec);
    }

    /// Overflowing costs must reject identically through every kernel
    /// (the κ' loop skip and the `+∞` finish path).
    #[test]
    fn kernels_agree_on_overflow() {
        let spec = JoinSpec::cartesian(&[1e30, 1e30, 1e32, 1e28, 1e30]).unwrap();
        check_spec_against_reference(&spec);
    }

    fn check_spec_against_reference(spec: &JoinSpec) {
        fn snapshot<L: TableLayout, M: CostModel + Sync>(
            spec: &JoinSpec,
            model: &M,
            engine: RowEngine,
        ) -> (Vec<(u64, u32, u32)>, Counters) {
            let mut counters = Counters::default();
            let mut table = L::with_rels(spec.n());
            fill_with_engine::<L, M, _, true>(&mut table, spec, model, engine, &mut counters);
            let rows = (1u32..(1u32 << spec.n()))
                .map(|b| {
                    let s = RelSet::from_bits(b);
                    (table.card(s).to_bits(), table.cost(s).to_bits(), table.best_lhs(s).bits())
                })
                .collect();
            (rows, counters)
        }
        fn check_model<M: CostModel + Sync>(spec: &JoinSpec, model: &M) {
            for driver in [DriverChoice::Split, DriverChoice::Conv] {
                let scalar = RowEngine { kernel: ResolvedKernel::Scalar, driver };
                let reference = snapshot::<AosTable, M>(spec, model, scalar);
                for kernel in host_vector_kernels() {
                    let engine = RowEngine { kernel, driver };
                    let aos = snapshot::<AosTable, M>(spec, model, engine);
                    let hot = snapshot::<HotColdTable, M>(spec, model, engine);
                    for got in [&aos, &hot] {
                        let name = model.name();
                        assert_eq!(got.0, reference.0, "{name} {driver} rows via {kernel:?}");
                        assert_eq!(got.1, reference.1, "{name} {driver} counters via {kernel:?}");
                    }
                }
            }
        }
        check_model(spec, &Kappa0);
        check_model(spec, &SortMerge);
        check_model(spec, &DiskNestedLoops::default());
        check_model(spec, &SmDnl::default());
    }
}
