//! The dynamic-programming table (paper Sections 3.2, 4.1 and 5.4).
//!
//! The table has one row per nonempty subset of the `n` relations, indexed
//! by the subset's integer bit-vector representation, for `2^n` slots in
//! all (slot 0, the empty set, is unused). Each row carries:
//!
//! * `card` — the (estimated) cardinality of the intermediate result over
//!   the subset (`f64` for wide dynamic range, per footnote 2);
//! * `cost` — the cost of the best plan found (`f32`; overflow ⇒ `+∞` ⇒
//!   rejected, per Section 6.3);
//! * `best_lhs` — the left-hand side of the best split (bit-vector);
//! * `pi_fan` — the memoized fan selectivity product `Π_fan` (Section 5.4;
//!   join optimization only);
//! * `aux` — an optional cost-model memo (e.g. the sort-merge log term).
//!
//! Three layouts are provided behind the [`TableLayout`] trait:
//! [`AosTable`] (array of structs, the paper's layout and the reference
//! every other configuration is checked against), [`HotColdTable`]
//! (hot/cold split: a dense, 64-byte-aligned `cost` array feeds the
//! pruning cascade at 4 bytes per probe, with every other column
//! banished to cold arrays — the service's layout, and the only one
//! that fills in rank waves) and [`CompactProductTable`] (the
//! paper's exact 16-byte product row, for the §4.1 ablation). The
//! optimizer is generic over the layout and monomorphizes each;
//! [`LayoutChoice`] names the first two for runtime dispatch at the
//! non-generic entry points.

use crate::bitset::{RelSet, MAX_RELS};
use std::marker::PhantomData;

/// Runtime name for a monomorphized table layout, used by the
/// non-generic entry points ([`crate::join::optimize_join_with`] and
/// friends) and the service/CLI configuration surface. The generic
/// `*_into` functions ignore it — there the caller picks the layout as
/// a type parameter.
///
/// Only `HotCold` fills in rank waves, at every thread count (see
/// [`runs_waves`](LayoutChoice::runs_waves)). `Aos` is the paper's
/// serial reference: it fills in integer order on the calling thread
/// whatever [`crate::DriveOptions::parallelism`] says, with the same
/// bits.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum LayoutChoice {
    /// [`AosTable`] — the paper's array-of-structs layout.
    #[default]
    Aos,
    /// [`HotColdTable`] — dense aligned `cost` hot array, cold rest.
    HotCold,
}

impl LayoutChoice {
    /// All selectable layouts, for equivalence sweeps.
    pub const ALL: [LayoutChoice; 2] = [LayoutChoice::Aos, LayoutChoice::HotCold];

    /// Stable lower-case name (`aos` / `hotcold`).
    pub fn name(self) -> &'static str {
        match self {
            LayoutChoice::Aos => "aos",
            LayoutChoice::HotCold => "hotcold",
        }
    }

    /// Whether this layout fills in rank waves on
    /// [`crate::DriveOptions::parallelism`] workers — whether its table's
    /// [`TableLayout::wave_table`] is `Some` — rather than in integer
    /// order on the calling thread. Callers that size work by thread
    /// count (the service's deadline estimate) ask this instead of
    /// naming a layout.
    pub fn runs_waves(self) -> bool {
        match self {
            LayoutChoice::Aos => false,
            LayoutChoice::HotCold => true,
        }
    }
}

impl std::fmt::Display for LayoutChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Guard against absurd allocations: `2^28` rows of 32 bytes is 8 GiB.
pub const MAX_TABLE_RELS: usize = 28;

/// Storage for the dynamic-programming table, indexed by [`RelSet`].
///
/// All accessors are expected to be O(1) and inline; they sit inside the
/// optimizer's `O(3^n)` split loop.
pub trait TableLayout {
    /// Allocate a table for `n` relations (`2^n` rows).
    ///
    /// # Panics
    /// Panics if `n > MAX_TABLE_RELS` (or `n > MAX_RELS`).
    fn with_rels(n: usize) -> Self;

    /// Number of relations this table was allocated for.
    fn rels(&self) -> usize;

    /// Estimated cardinality of the set's intermediate result.
    fn card(&self, s: RelSet) -> f64;
    /// Set the cardinality field.
    fn set_card(&mut self, s: RelSet, v: f64);

    /// Cost of the best plan found for the set (`+∞` if none).
    fn cost(&self, s: RelSet) -> f32;
    /// Set the cost field.
    fn set_cost(&mut self, s: RelSet, v: f32);

    /// Left-hand side of the best split (`EMPTY` for singletons).
    fn best_lhs(&self, s: RelSet) -> RelSet;
    /// Set the best-split field.
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet);

    /// Memoized fan selectivity product `Π_fan(S)` (Section 5.3).
    fn pi_fan(&self, s: RelSet) -> f64;
    /// Set the fan product field.
    fn set_pi_fan(&mut self, s: RelSet, v: f64);

    /// Memoized per-set cost-model value (see [`crate::cost::CostModel::aux`]).
    fn aux(&self, s: RelSet) -> f32;
    /// Set the cost-model memo field.
    fn set_aux(&mut self, s: RelSet, v: f32);

    /// Base pointer of a dense `cost` column indexed by
    /// [`RelSet::index`], if this layout has one — the batched/SIMD
    /// split kernels gather operand costs straight from it. The default
    /// `None` routes kernels through the safe
    /// [`cost`](TableLayout::cost) accessor instead (AoS has no dense
    /// column; checked-build views decline on purpose so every read
    /// stays guard-validated).
    ///
    /// # Safety
    ///
    /// Implementors returning `Some(p)` guarantee `p` is valid for reads
    /// of `1 << rels()` consecutive `f32`s (the whole cost column, one
    /// per row index) for as long as `self` is borrowed. Callers must
    /// not read through the pointer beyond that extent or after the
    /// borrow ends, and — on shared views — must respect the same
    /// race-freedom discipline as [`cost`](TableLayout::cost) reads.
    #[inline]
    unsafe fn cost_base(&self) -> Option<*const f32> {
        None
    }

    /// This table as the rank-wave driver shares it, or `None` — the
    /// default — for layouts that fill in integer order. A `Some` table
    /// fills in waves at every thread count, one included. Only
    /// [`HotColdTable`] runs waves: parallel [`AosTable`] lost to
    /// parallel hot/cold in every measured cell (see EXPERIMENTS.md), so
    /// the array-of-structs and 16-byte layouts stay serial references
    /// and fill in integer order on the calling thread at any requested
    /// thread count. [`LayoutChoice::runs_waves`] gives the same answer
    /// by name.
    ///
    /// An override must return a table allocated for
    /// [`rels()`](TableLayout::rels) relations; the wave driver panics
    /// on any other size rather than index past its buffers.
    #[inline]
    fn wave_table(&mut self) -> Option<&mut HotColdTable> {
        None
    }
}

fn check_rels(n: usize) {
    assert!(n <= MAX_RELS, "{n} relations exceed MAX_RELS = {MAX_RELS}");
    assert!(
        n <= MAX_TABLE_RELS,
        "{n} relations exceed MAX_TABLE_RELS = {MAX_TABLE_RELS} (table would need 2^{n} rows)"
    );
}

/// One row of the array-of-structs layout.
///
/// 32 bytes: the paper's 16-byte product row (`card` + `cost` + `best_lhs`)
/// plus the `Π_fan` column added in Section 5.4 and the cost-model memo.
#[derive(Copy, Clone, Debug)]
#[repr(C)]
struct Row {
    card: f64,
    pi_fan: f64,
    cost: f32,
    best_lhs: u32,
    aux: f32,
    _pad: u32,
}

impl Default for Row {
    fn default() -> Self {
        Row { card: 0.0, pi_fan: 1.0, cost: f32::INFINITY, best_lhs: 0, aux: 0.0, _pad: 0 }
    }
}

/// Array-of-structs table layout — each row's fields are contiguous, as in
/// the paper's C implementation.
pub struct AosTable {
    n: usize,
    rows: Vec<Row>,
}

impl TableLayout for AosTable {
    fn with_rels(n: usize) -> Self {
        check_rels(n);
        AosTable { n, rows: vec![Row::default(); 1usize << n] }
    }

    #[inline]
    fn rels(&self) -> usize {
        self.n
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        self.rows[s.index()].card
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        self.rows[s.index()].card = v;
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        self.rows[s.index()].cost
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        self.rows[s.index()].cost = v;
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        RelSet::from_bits(self.rows[s.index()].best_lhs)
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        self.rows[s.index()].best_lhs = v.bits();
    }

    #[inline]
    fn pi_fan(&self, s: RelSet) -> f64 {
        self.rows[s.index()].pi_fan
    }

    #[inline]
    fn set_pi_fan(&mut self, s: RelSet, v: f64) {
        self.rows[s.index()].pi_fan = v;
    }

    #[inline]
    fn aux(&self, s: RelSet) -> f32 {
        self.rows[s.index()].aux
    }

    #[inline]
    fn set_aux(&mut self, s: RelSet, v: f32) {
        self.rows[s.index()].aux = v;
    }
}

/// One row of the paper-exact 16-byte layout (Section 4.1):
///
/// > each row of our dynamic programming table need occupy only 16
/// > bytes: 8 bytes for the real `card`, 4 bytes for the real `cost`,
/// > and 4 bytes for the bit-vector `best_lhs`.
#[derive(Copy, Clone, Debug)]
#[repr(C)]
struct CompactRow {
    card: f64,
    cost: f32,
    best_lhs: u32,
}

impl Default for CompactRow {
    fn default() -> Self {
        CompactRow { card: 0.0, cost: f32::INFINITY, best_lhs: 0 }
    }
}

/// The paper's exact 16-byte-per-row table for **Cartesian product**
/// optimization: no `Π_fan` column, no cost-model memo.
///
/// Only usable where those columns are never needed — i.e. with the
/// serial [`crate::cartesian::optimize_products_into`] under cost models
/// with `HAS_AUX == false`. It has no raw parallel view: it exists for
/// the §4.1 row-size ablation, which runs serially.
/// `pi_fan` reads return the neutral 1.0 and writes of the neutral value
/// are accepted (singleton initialization writes 1.0); any other use
/// panics rather than silently corrupting an optimization.
pub struct CompactProductTable {
    n: usize,
    rows: Vec<CompactRow>,
}

impl TableLayout for CompactProductTable {
    fn with_rels(n: usize) -> Self {
        check_rels(n);
        CompactProductTable { n, rows: vec![CompactRow::default(); 1usize << n] }
    }

    #[inline]
    fn rels(&self) -> usize {
        self.n
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        self.rows[s.index()].card
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        self.rows[s.index()].card = v;
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        self.rows[s.index()].cost
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        self.rows[s.index()].cost = v;
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        RelSet::from_bits(self.rows[s.index()].best_lhs)
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        self.rows[s.index()].best_lhs = v.bits();
    }

    #[inline]
    fn pi_fan(&self, _s: RelSet) -> f64 {
        1.0
    }

    #[inline]
    fn set_pi_fan(&mut self, _s: RelSet, v: f64) {
        assert!(v == 1.0, "CompactProductTable has no Π_fan column (products only)");
    }

    #[inline]
    fn aux(&self, _s: RelSet) -> f32 {
        0.0
    }

    #[inline]
    fn set_aux(&mut self, _s: RelSet, v: f32) {
        assert!(v == 0.0, "CompactProductTable has no aux column");
    }
}

/// Dense, 64-byte-aligned `f32` buffer for [`HotColdTable`]'s hot
/// `cost` column.
///
/// `Vec<f32>` only guarantees 4-byte alignment; aligning the base to a
/// cache-line boundary makes row-index arithmetic line arithmetic too
/// (16 costs per 64-byte line, no straddling), which is what lets the
/// chunked wave scheduler hand workers line-disjoint runs of the hot
/// array.
struct AlignedCosts {
    ptr: std::ptr::NonNull<f32>,
    len: usize,
}

/// Alignment of the hot cost buffer: one x86/aarch64 cache line.
const COST_ALIGN: usize = 64;

impl AlignedCosts {
    /// Allocate `len` costs, all initialized to `+∞` (the table's "no
    /// plan found" sentinel).
    fn new_infinite(len: usize) -> AlignedCosts {
        assert!(len > 0 && len <= isize::MAX as usize / 4);
        let layout = std::alloc::Layout::from_size_align(len * 4, COST_ALIGN)
            .expect("cost buffer layout");
        // SAFETY: `layout` has nonzero size; allocation failure aborts
        // via `handle_alloc_error`; every element is initialized below
        // before the buffer is readable through safe accessors.
        let ptr = unsafe {
            let p = std::alloc::alloc(layout) as *mut f32;
            let Some(nn) = std::ptr::NonNull::new(p) else {
                std::alloc::handle_alloc_error(layout);
            };
            for i in 0..len {
                nn.as_ptr().add(i).write(f32::INFINITY);
            }
            nn
        };
        AlignedCosts { ptr, len }
    }

    #[inline]
    fn get(&self, i: usize) -> f32 {
        assert!(i < self.len);
        // SAFETY: in-bounds index into an initialized, owned buffer.
        unsafe { *self.ptr.as_ptr().add(i) }
    }

    #[inline]
    fn set(&mut self, i: usize, v: f32) {
        assert!(i < self.len);
        // SAFETY: in-bounds index into an owned buffer, under `&mut`.
        unsafe { *self.ptr.as_ptr().add(i) = v }
    }

    #[inline]
    fn as_mut_ptr(&mut self) -> *mut f32 {
        self.ptr.as_ptr()
    }
}

impl Drop for AlignedCosts {
    fn drop(&mut self) {
        // SAFETY: same layout as the allocation in `new_infinite`.
        unsafe {
            let layout =
                std::alloc::Layout::from_size_align_unchecked(self.len * 4, COST_ALIGN);
            std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, layout);
        }
    }
}

// SAFETY: `AlignedCosts` uniquely owns its heap buffer of plain `f32`s
// (no interior mutability, no shared state), exactly like `Vec<f32>`.
unsafe impl Send for AlignedCosts {}
// SAFETY: `&AlignedCosts` exposes only reads of plain data.
unsafe impl Sync for AlignedCosts {}

/// Hot/cold split table layout.
///
/// The nested-`if` pruning cascade in `find_best_split` resolves the
/// overwhelming majority of splits on the first one or two tests —
/// `lhs_cost < best`, then `lhs_cost + rhs_cost < best` — which need
/// only the 4-byte `cost` field of each operand row. Under [`AosTable`]
/// every such probe drags a full 32-byte row through the cache (half a
/// line). `HotColdTable` gives the
/// `cost` column its own dense, 64-byte-aligned buffer — 16 probes per
/// cache line — and exiles `card`/`Π_fan`/`aux`/`best_lhs` to cold
/// arrays touched only on the rare `κ''` evaluation and the per-row
/// write path. Field semantics are identical to [`AosTable`]'s, so the
/// two produce bit-identical tables.
pub struct HotColdTable {
    n: usize,
    /// Hot: the pruning cascade reads only this.
    costs: AlignedCosts,
    /// Cold: read only when a split survives to the `κ''` test
    /// (`card`, `aux`) or after the row is final (`best_lhs`, `pi_fan`).
    cards: Vec<f64>,
    pi_fans: Vec<f64>,
    best_lhss: Vec<u32>,
    auxs: Vec<f32>,
}

impl TableLayout for HotColdTable {
    fn with_rels(n: usize) -> Self {
        check_rels(n);
        let cap = 1usize << n;
        HotColdTable {
            n,
            costs: AlignedCosts::new_infinite(cap),
            cards: vec![0.0; cap],
            pi_fans: vec![1.0; cap],
            best_lhss: vec![0; cap],
            auxs: vec![0.0; cap],
        }
    }

    #[inline]
    fn rels(&self) -> usize {
        self.n
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        self.cards[s.index()]
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        self.cards[s.index()] = v;
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        self.costs.get(s.index())
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        self.costs.set(s.index(), v);
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        RelSet::from_bits(self.best_lhss[s.index()])
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        self.best_lhss[s.index()] = v.bits();
    }

    #[inline]
    fn pi_fan(&self, s: RelSet) -> f64 {
        self.pi_fans[s.index()]
    }

    #[inline]
    fn set_pi_fan(&mut self, s: RelSet, v: f64) {
        self.pi_fans[s.index()] = v;
    }

    #[inline]
    fn aux(&self, s: RelSet) -> f32 {
        self.auxs[s.index()]
    }

    #[inline]
    fn set_aux(&mut self, s: RelSet, v: f32) {
        self.auxs[s.index()] = v;
    }

    // No `cost_base`: every fill reads this table through a
    // `SyncTableView`, which has one.
    #[inline]
    fn wave_table(&mut self) -> Option<&mut HotColdTable> {
        Some(self)
    }
}

/// Base pointers of a [`HotColdTable`]'s buffers — the hot cost column
/// plus one per cold column — captured by [`SyncTable::from_mut`].
#[derive(Copy, Clone)]
struct Columns {
    n: usize,
    costs: *mut f32,
    cards: *mut f64,
    pi_fans: *mut f64,
    best_lhss: *mut u32,
    auxs: *mut f32,
}

/// Shared-table handle for the rank-wave driver: lets its workers — the
/// calling thread alone, or several threads — hold mutable views of one
/// [`HotColdTable`] at the same time.
///
/// # Why this is sound
///
/// Two hazards must be ruled out: **data races** and **reference
/// aliasing**.
///
/// *Data races.* The rank-wave driver processes subsets in waves by
/// cardinality (popcount). Every table access made while filling the row
/// for a set `S` with `|S| = k` falls into one of two classes:
///
/// * **writes** to the row of `S` itself (`set_card`/`set_cost`/
///   `set_best_lhs`/`set_pi_fan`/`set_aux`), and
/// * **reads** of rows of *strict subsets* of `S`, all of which have
///   popcount `< k` (operand costs/cards in `find_best_split`, the
///   fan-recurrence lookups in `compute_properties`).
///
/// Within one wave each row is assigned to exactly one worker, so all
/// concurrent writes target pairwise-disjoint rows; all concurrent reads
/// target rows of earlier waves, which no thread writes anymore. A
/// barrier between waves establishes the happens-before edge from the
/// wave-`k` writes to the wave-`k+1` reads. Hence no memory location is
/// ever accessed concurrently by a writer and anyone else: the program
/// is data-race free even though the borrow checker cannot see it.
///
/// *Reference aliasing.* Race freedom is necessary but not sufficient:
/// materializing a `&mut HotColdTable` to the whole table on two
/// threads — even to write disjoint rows — would be undefined behavior
/// by itself, because exclusive references assert alias-freedom over all
/// bytes they cover. So the wave driver never forms a reference into
/// the table at all: [`SyncTable::from_mut`] captures the buffer base
/// pointers while it holds the table `&mut` (and its `PhantomData`
/// borrow keeps that exclusive borrow alive for the handle's whole
/// lifetime, so nothing else can touch the table; neither the aligned
/// cost buffer nor the cold `Vec`s reallocate meanwhile), and every
/// [`SyncTableView`] accessor is a single in-bounds *element* read or
/// write through those pointers. Raw pointers carry no aliasing claims,
/// so with the race freedom above each access is a plain, uncontended
/// memory operation — sound under Stacked/Tree Borrows, not merely
/// under the data-race rules.
pub struct SyncTable<'t> {
    cols: Columns,
    /// Shadow epoch/owner words validating every view access against the
    /// wave discipline (`--cfg blitz_check` builds only). Boxed so the
    /// views' pointer to it survives moves of the handle itself.
    #[cfg(blitz_check)]
    shadow: Box<crate::check::ShadowState>,
    /// Keeps the source table exclusively borrowed while views exist.
    _borrow: PhantomData<&'t mut HotColdTable>,
}

impl<'t> SyncTable<'t> {
    /// Wrap an exclusively borrowed table for the duration of a wave
    /// computation, capturing its buffer base pointers.
    pub fn from_mut(table: &'t mut HotColdTable) -> SyncTable<'t> {
        #[cfg(blitz_check)]
        let shadow = Box::new(crate::check::ShadowState::new(table.n));
        SyncTable {
            cols: Columns {
                n: table.n,
                costs: table.costs.as_mut_ptr(),
                cards: table.cards.as_mut_ptr(),
                pi_fans: table.pi_fans.as_mut_ptr(),
                best_lhss: table.best_lhss.as_mut_ptr(),
                auxs: table.auxs.as_mut_ptr(),
            },
            #[cfg(blitz_check)]
            shadow,
            _borrow: PhantomData,
        }
    }

    /// Create one worker's mutable view of the shared table.
    ///
    /// # Safety
    ///
    /// Callers must uphold the rank-wave discipline documented on
    /// [`SyncTable`]: while any two views are live on different threads,
    /// each table row is written by at most one of them, and rows read by
    /// one view are never written by another without an intervening
    /// synchronization point (barrier/join). Views must not outlive the
    /// handle, and every set passed to a view's accessors must be in
    /// bounds for the table (`s.index() < 1 << rels()`; only debug
    /// builds check it).
    ///
    /// Under `--cfg blitz_check` this discipline is additionally
    /// *enforced*: each view gets a worker id, and once the driver calls
    /// [`SyncTableView::begin_wave`], every access is validated against
    /// the shared shadow table — violations panic instead of silently
    /// racing.
    pub unsafe fn view(&self) -> SyncTableView {
        SyncTableView {
            cols: self.cols,
            #[cfg(all(debug_assertions, not(blitz_check)))]
            guard: crate::check::WaveGuard::unconstrained(),
            #[cfg(blitz_check)]
            guard: crate::check::WaveGuard::unconstrained(&self.shadow),
        }
    }
}

/// One worker's view into a [`SyncTable`]; implements [`TableLayout`] by
/// reading and writing single elements of the hot/cold buffers through
/// their base pointers, so the generic `find_best_split`/
/// `compute_properties` code runs on it unchanged — without ever forming
/// a reference to the shared table.
///
/// Cannot be allocated directly: [`TableLayout::with_rels`] panics.
pub struct SyncTableView {
    cols: Columns,
    /// Wave/chunk bookkeeping validating accesses in checked builds
    /// (plain `debug_assertions`: write-side popcount/chunk assertions;
    /// `--cfg blitz_check`: the full shadow epoch/owner protocol).
    #[cfg(any(blitz_check, debug_assertions))]
    guard: crate::check::WaveGuard,
}

impl SyncTableView {
    /// Tell the view which wave it is about to process, and which colex
    /// rank range `[lo, hi)` of that wave this worker owns (`None` when a
    /// single view fills the whole wave). The wave drivers call this at
    /// the top of every wave; in ordinary release builds it compiles to
    /// nothing, while checked builds use it to validate every subsequent
    /// access against the rank-wave discipline.
    #[inline]
    pub fn begin_wave(&mut self, k: usize, chunk: Option<(u64, u64)>) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.begin_wave(k, chunk);
        #[cfg(not(any(blitz_check, debug_assertions)))]
        let _ = (k, chunk);
    }

    /// The element offset of row `s`, bounds-checked in debug builds:
    /// the wave driver derives every `s` from a relation count it has
    /// asserted equal to the table's own `n`.
    #[inline(always)]
    fn at(&self, s: RelSet) -> usize {
        debug_assert!(s.index() < (1usize << self.cols.n), "row {s:?} out of bounds");
        s.index()
    }
}

// SAFETY: the view is a bundle of raw pointers into a `HotColdTable`'s
// plain-data buffers plus, in checked builds, a `WaveGuard` that is
// `Send` itself; moving it to another thread is safe because all
// *accesses* through the pointers are covered by the `SyncTable::view`
// contract (no conflicting concurrent accesses, in-bounds rows), and the
// table itself is `Send`.
unsafe impl Send for SyncTableView {}

impl TableLayout for SyncTableView {
    fn with_rels(_n: usize) -> Self {
        unreachable!("SyncTableView is a borrowed view; allocate a HotColdTable instead")
    }

    // The safety argument for every access below: the pointers were
    // captured by a `SyncTable` whose exclusive borrow of the table
    // outlives this view, the row is in bounds (both by
    // `SyncTable::view`'s contract; the wave driver asserts its relation
    // count equals the table's own `n` and derives every `s` from it, and
    // `at` checks it in debug builds), and the view contract rules out
    // concurrent conflicting accesses to that row. Checked builds verify
    // the access against the wave guard *before* touching memory, so a
    // discipline violation panics instead of performing the racy access.
    #[inline]
    fn rels(&self) -> usize {
        self.cols.n
    }

    #[inline]
    fn card(&self, s: RelSet) -> f64 {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.cards.add(self.at(s)) }
    }

    #[inline]
    fn set_card(&mut self, s: RelSet, v: f64) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.cards.add(self.at(s)) = v }
    }

    #[inline]
    fn cost(&self, s: RelSet) -> f32 {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.costs.add(self.at(s)) }
    }

    #[inline]
    fn set_cost(&mut self, s: RelSet, v: f32) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.costs.add(self.at(s)) = v }
    }

    #[inline]
    fn best_lhs(&self, s: RelSet) -> RelSet {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        RelSet::from_bits(unsafe { *self.cols.best_lhss.add(self.at(s)) })
    }

    #[inline]
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.best_lhss.add(self.at(s)) = v.bits() }
    }

    #[inline]
    fn pi_fan(&self, s: RelSet) -> f64 {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.pi_fans.add(self.at(s)) }
    }

    #[inline]
    fn set_pi_fan(&mut self, s: RelSet, v: f64) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.pi_fans.add(self.at(s)) = v }
    }

    #[inline]
    fn aux(&self, s: RelSet) -> f32 {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_read(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.auxs.add(self.at(s)) }
    }

    #[inline]
    fn set_aux(&mut self, s: RelSet, v: f32) {
        #[cfg(any(blitz_check, debug_assertions))]
        self.guard.check_write(s);
        // SAFETY: live borrow, in-bounds row, race-free (see above).
        unsafe { *self.cols.auxs.add(self.at(s)) = v }
    }

    // SAFETY: (implementor-side guarantee) the hot column holds
    // `1 << rels()` `f32`s, valid for as long as — and under the same
    // wave discipline as — this view's `cost()` reads, which go through
    // the very same pointer.
    #[inline]
    unsafe fn cost_base(&self) -> Option<*const f32> {
        // Under the shadow checker, decline the dense column on purpose:
        // the vector kernels then read every cost through the
        // guard-checked `cost()` accessor above, so the wave discipline
        // stays machine-enforced for the batched access pattern too.
        #[cfg(blitz_check)]
        {
            None
        }
        #[cfg(not(blitz_check))]
        {
            Some(self.cols.costs as *const f32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<L: TableLayout>() {
        let mut t = L::with_rels(4);
        assert_eq!(t.rels(), 4);
        let s = RelSet::from_bits(0b1011);
        t.set_card(s, 600.0);
        t.set_cost(s, 42.5);
        t.set_best_lhs(s, RelSet::from_bits(0b0011));
        t.set_pi_fan(s, 0.125);
        t.set_aux(s, 7.0);
        assert_eq!(t.card(s), 600.0);
        assert_eq!(t.cost(s), 42.5);
        assert_eq!(t.best_lhs(s), RelSet::from_bits(0b0011));
        assert_eq!(t.pi_fan(s), 0.125);
        assert_eq!(t.aux(s), 7.0);
        // Other rows untouched.
        let other = RelSet::from_bits(0b0111);
        assert_eq!(t.card(other), 0.0);
        assert!(t.cost(other).is_infinite());
        assert_eq!(t.pi_fan(other), 1.0);
    }

    #[test]
    fn aos_roundtrip() {
        roundtrip::<AosTable>();
    }

    #[test]
    fn hotcold_roundtrip() {
        roundtrip::<HotColdTable>();
    }

    /// `LayoutChoice::runs_waves` names exactly the layouts whose table
    /// hands the wave driver a view; the 16-byte rows run serially too.
    #[test]
    fn runs_waves_matches_wave_table() {
        fn waves<L: TableLayout>() -> bool {
            L::with_rels(3).wave_table().is_some()
        }
        assert_eq!(LayoutChoice::Aos.runs_waves(), waves::<AosTable>());
        assert_eq!(LayoutChoice::HotCold.runs_waves(), waves::<HotColdTable>());
        assert!(LayoutChoice::HotCold.runs_waves());
        assert!(!waves::<CompactProductTable>());
    }

    #[test]
    fn hotcold_cost_buffer_is_cache_line_aligned() {
        for n in [1usize, 4, 8] {
            let t = HotColdTable::with_rels(n);
            assert_eq!(t.costs.ptr.as_ptr() as usize % COST_ALIGN, 0, "n={n}");
            assert_eq!(t.costs.len, 1 << n);
        }
    }

    #[test]
    fn hotcold_defaults_match_other_layouts() {
        let t = HotColdTable::with_rels(3);
        for bits in 1u32..8 {
            let s = RelSet::from_bits(bits);
            assert!(t.cost(s).is_infinite());
            assert_eq!(t.card(s), 0.0);
            assert_eq!(t.pi_fan(s), 1.0);
            assert_eq!(t.aux(s), 0.0);
            assert_eq!(t.best_lhs(s), RelSet::EMPTY);
        }
    }

    #[test]
    fn hotcold_sync_view_forwards() {
        let mut t = HotColdTable::with_rels(4);
        {
            let shared = SyncTable::from_mut(&mut t);
            // SAFETY: single-threaded use trivially satisfies the wave
            // discipline.
            let mut view = unsafe { shared.view() };
            assert_eq!(view.rels(), 4);
            let s = RelSet::from_bits(0b1010);
            view.set_card(s, 44.0);
            view.set_cost(s, 3.25);
            view.set_pi_fan(s, 0.5);
            view.set_aux(s, 1.5);
            view.set_best_lhs(s, RelSet::from_bits(0b0010));
            assert_eq!(view.cost(s), 3.25);
        }
        let s = RelSet::from_bits(0b1010);
        assert_eq!(t.card(s), 44.0);
        assert_eq!(t.cost(s), 3.25);
        assert_eq!(t.pi_fan(s), 0.5);
        assert_eq!(t.aux(s), 1.5);
        assert_eq!(t.best_lhs(s), RelSet::from_bits(0b0010));
    }

    #[test]
    fn layout_choice_names_roundtrip() {
        for choice in LayoutChoice::ALL {
            assert_eq!(format!("{choice}"), choice.name());
        }
        assert_eq!(LayoutChoice::default(), LayoutChoice::Aos);
    }

    #[test]
    fn default_cost_is_infinite() {
        let t = AosTable::with_rels(3);
        for bits in 1u32..8 {
            assert!(t.cost(RelSet::from_bits(bits)).is_infinite());
        }
    }

    #[test]
    #[should_panic]
    fn too_many_rels_panics() {
        let _ = AosTable::with_rels(MAX_TABLE_RELS + 1);
    }

    #[test]
    fn row_is_32_bytes() {
        // The paper's product-only row is 16 bytes; ours adds the Π_fan
        // column (8) and the cost-model memo (4+pad). Keep it compact.
        assert_eq!(std::mem::size_of::<Row>(), 32);
    }

    #[test]
    fn compact_row_is_exactly_16_bytes() {
        // Section 4.1's headline number.
        assert_eq!(std::mem::size_of::<CompactRow>(), 16);
    }

    #[test]
    fn compact_table_roundtrips_product_fields() {
        let mut t = CompactProductTable::with_rels(4);
        let s = RelSet::from_bits(0b1011);
        t.set_card(s, 600.0);
        t.set_cost(s, 42.5);
        t.set_best_lhs(s, RelSet::from_bits(0b0011));
        t.set_pi_fan(s, 1.0); // neutral write accepted
        t.set_aux(s, 0.0);
        assert_eq!(t.card(s), 600.0);
        assert_eq!(t.cost(s), 42.5);
        assert_eq!(t.best_lhs(s), RelSet::from_bits(0b0011));
        assert_eq!(t.pi_fan(s), 1.0);
    }

    #[test]
    fn disjoint_row_writes_from_two_threads() {
        let mut t = HotColdTable::with_rels(6);
        {
            let shared = SyncTable::from_mut(&mut t);
            std::thread::scope(|scope| {
                for half in 0..2u32 {
                    // SAFETY: the two views write disjoint rows (split by
                    // the low bit of the set index) and read nothing.
                    let mut view = unsafe { shared.view() };
                    scope.spawn(move || {
                        for bits in 1u32..64 {
                            if bits & 1 == half {
                                view.set_cost(RelSet::from_bits(bits), bits as f32);
                            }
                        }
                    });
                }
            });
        }
        for bits in 1u32..64 {
            assert_eq!(t.cost(RelSet::from_bits(bits)), bits as f32);
        }
    }

    /// The wave pattern proper: both threads *read* rows of an earlier,
    /// already-final wave while writing disjoint rows of the current one.
    #[test]
    fn concurrent_prior_wave_reads_with_disjoint_writes() {
        let mut t = HotColdTable::with_rels(6);
        for rel in 0..6 {
            let s = RelSet::singleton(rel);
            t.set_cost(s, rel as f32);
            t.set_card(s, 1.0);
        }
        {
            let shared = SyncTable::from_mut(&mut t);
            std::thread::scope(|scope| {
                for half in 0..2usize {
                    // SAFETY: writes target disjoint pair rows (split by
                    // the parity of the lower relation index); reads
                    // target singleton rows, which no thread writes.
                    let mut view = unsafe { shared.view() };
                    scope.spawn(move || {
                        for i in 0..6usize {
                            for j in (i + 1)..6usize {
                                if i % 2 == half {
                                    let s = RelSet::singleton(i) | RelSet::singleton(j);
                                    let sum = view.cost(RelSet::singleton(i))
                                        + view.cost(RelSet::singleton(j));
                                    view.set_cost(s, sum);
                                }
                            }
                        }
                    });
                }
            });
        }
        for i in 0..6usize {
            for j in (i + 1)..6usize {
                let s = RelSet::singleton(i) | RelSet::singleton(j);
                assert_eq!(t.cost(s), (i + j) as f32);
            }
        }
    }

    #[test]
    #[should_panic]
    fn compact_table_rejects_fan_writes() {
        let mut t = CompactProductTable::with_rels(3);
        t.set_pi_fan(RelSet::from_bits(0b11), 0.5);
    }
}
