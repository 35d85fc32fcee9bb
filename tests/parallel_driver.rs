//! Cross-checks for the rank-wave parallel DP driver.
//!
//! The parallel driver's contract is strong: not merely the same optimal
//! cost as the serial driver, but a **bit-identical DP table** — every
//! row's cost bits, cardinality bits, fan product and `best_lhs` — on
//! every spec, because each row is computed self-contained by exactly one
//! worker running the same code over the same already-final inputs
//! (strictly smaller popcounts). These tests pin that contract across all
//! four paper topologies × three cost models, against the brute-force
//! oracle, and through the multi-pass threshold schedule.
//!
//! Only `HotColdTable` runs waves — at every thread count, one included —
//! so every wave run here is on hot/cold, checked against the `AosTable`
//! integer-order reference; a parallel request on AoS fills in integer
//! order on the calling thread, which is pinned too.

use blitzsplit::baselines::best_bushy;
use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::{
    optimize_join_into, optimize_join_threshold_arena_cancellable,
    optimize_join_threshold_arena_with, AosTable, ArenaThresholdOutcome, ConvSupport, Counters,
    HotColdTable, NoStats, PlanArena, RelSet, Stats, TableLayout,
};
use blitzsplit::{
    optimize_join_threshold_with, optimize_join_with, CostModel, DiskNestedLoops, DriveOptions,
    DriverChoice, JoinSpec, Kappa0, LayoutChoice, SortMerge, ThresholdSchedule,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

const TOPOLOGIES: [Topology; 4] =
    [Topology::Chain, Topology::CyclePlus3, Topology::Star, Topology::Clique];

/// Rank-wave parallel execution on `threads` workers, on the one layout
/// that runs waves.
fn parallel(threads: usize) -> DriveOptions {
    DriveOptions::parallel(threads).with_layout(LayoutChoice::HotCold)
}

fn assert_tables_bit_identical<A: TableLayout, B: TableLayout>(
    n: usize,
    serial: &A,
    parallel: &B,
    label: &str,
) {
    for bits in 1u32..(1u32 << n) {
        let s = RelSet::from_bits(bits);
        assert_eq!(
            serial.cost(s).to_bits(),
            parallel.cost(s).to_bits(),
            "{label}: cost of {s:?}"
        );
        assert_eq!(
            serial.card(s).to_bits(),
            parallel.card(s).to_bits(),
            "{label}: card of {s:?}"
        );
        assert_eq!(serial.best_lhs(s), parallel.best_lhs(s), "{label}: best_lhs of {s:?}");
        assert_eq!(
            serial.pi_fan(s).to_bits(),
            parallel.pi_fan(s).to_bits(),
            "{label}: pi_fan of {s:?}"
        );
    }
}

/// Both drivers, each against its own serial AoS reference: the conv
/// walk records the other orientation of a winning partition, so its
/// `best_lhs` bits are its own.
fn check_bit_identical<M: CostModel + Sync>(spec: &JoinSpec, model: &M, threads: usize) {
    for driver in DriverChoice::ALL {
        let inf = f32::INFINITY;
        let (serial, waves) =
            (DriveOptions::serial().with_driver(driver), parallel(threads).with_driver(driver));
        let reference: AosTable =
            optimize_join_into::<_, _, _, true>(spec, model, inf, serial, &mut NoStats);
        let filled: HotColdTable =
            optimize_join_into::<_, _, _, true>(spec, model, inf, waves, &mut NoStats);
        let label = format!("{} {driver} n={} threads={}", model.name(), spec.n(), threads);
        assert_tables_bit_identical(spec.n(), &reference, &filled, &label);

        // Tie-break determinism surfaces in the extracted plan: identical
        // `best_lhs` chains mean identical canonical trees, not just equal
        // costs.
        let ser = optimize_join_with(spec, model, serial).unwrap();
        let par = optimize_join_with(spec, model, waves).unwrap();
        assert_eq!(ser.cost.to_bits(), par.cost.to_bits(), "{label}: plan cost");
        assert_eq!(ser.plan.canonical(), par.plan.canonical(), "{label}: canonical plan");

        // AoS is the serial reference: a parallel request on it runs the
        // serial driver and returns the serial AoS bits.
        let aos = DriveOptions::parallel(threads).with_layout(LayoutChoice::Aos);
        let on_aos = optimize_join_with(spec, model, aos.with_driver(driver)).unwrap();
        assert_eq!(on_aos.cost.to_bits(), ser.cost.to_bits(), "{label}: parallel aos cost");
        assert_eq!(on_aos.card.to_bits(), ser.card.to_bits(), "{label}: parallel aos card");
        assert_eq!(on_aos.plan, ser.plan, "{label}: parallel aos plan");
    }
}

#[test]
fn parallel_matches_serial_bit_for_bit_across_topologies_and_models() {
    for topo in TOPOLOGIES {
        for n in [4usize, 7, 10] {
            let spec = Workload::new(n, topo, 100.0, 0.5).spec();
            check_bit_identical(&spec, &Kappa0, 4);
            check_bit_identical(&spec, &SortMerge, 4);
            check_bit_identical(&spec, &DiskNestedLoops::default(), 4);
        }
    }
}

/// Thread counts that don't divide the wave sizes evenly (and exceed the
/// row count of small waves) must not change a single bit.
#[test]
fn parallel_is_invariant_to_thread_count() {
    let spec = Workload::new(9, Topology::CyclePlus3, 200.0, 0.7).spec();
    for threads in [2usize, 3, 5, 8, 16] {
        check_bit_identical(&spec, &Kappa0, threads);
    }
}

/// Worker counts far beyond the widest wave's row count — here n=4, whose
/// widest wave has C(4,2) = 6 rows, driven with 16 requested workers —
/// must clamp to the useful width, complete (no worker may wait on a
/// barrier that the clamped crew never reaches), and still reproduce the
/// serial table bit-for-bit.
#[test]
fn oversubscribed_tiny_problem_clamps_and_matches_serial() {
    for topo in TOPOLOGIES {
        let spec = Workload::new(4, topo, 100.0, 0.5).spec();
        check_bit_identical(&spec, &Kappa0, 16);
        check_bit_identical(&spec, &SortMerge, 16);
    }
    // n=2 and n=3 collapse to a single useful worker (widest waves of
    // 1 and 3 rows, one 16-row chunk): the caller fills them alone.
    for n in [2usize, 3] {
        let spec = Workload::new(n, Topology::Chain, 100.0, 0.5).spec();
        check_bit_identical(&spec, &Kappa0, 16);
    }
}

/// The parallel driver against ground truth: the non-memoized recursive
/// brute-force oracle over all bushy trees.
#[test]
fn parallel_matches_bruteforce_oracle() {
    for topo in TOPOLOGIES {
        let spec = Workload::new(6, topo, 50.0, 0.4).spec();
        check_oracle(&spec, &Kappa0);
        check_oracle(&spec, &SortMerge);
        check_oracle(&spec, &DiskNestedLoops::default());
    }
}

fn check_oracle<M: CostModel + Sync>(spec: &JoinSpec, model: &M) {
    let (_, oracle) = best_bushy(spec, model, spec.all_rels());
    let par = optimize_join_with(spec, model, parallel(4)).unwrap();
    let tol = oracle.abs() * 1e-4 + 1e-4;
    assert!(
        (par.cost - oracle).abs() <= tol,
        "{}: parallel {} vs oracle {}",
        model.name(),
        par.cost,
        oracle
    );
    // The returned plan must re-cost to what the table claims.
    let (_, recost) = par.plan.cost(spec, model);
    let tol = par.cost.abs() * 1e-4 + 1e-4;
    assert!((recost - par.cost).abs() <= tol, "plan recost {recost} vs table {}", par.cost);
}

/// A multi-pass threshold schedule at `threads = 4`: pass counts, final
/// cost bits, canonical plan, and even the instrumentation counters must
/// match the serial schedule (the counters are per-row deterministic, so
/// per-thread sinks absorb back to the exact serial totals).
#[test]
fn threshold_schedule_agrees_at_four_threads() {
    // Tight initial threshold forces escalation before success.
    let spec = Workload::new(10, Topology::Clique, 1000.0, 0.5).spec();
    let schedule = ThresholdSchedule::new(10.0, 1e3, 6);

    let serial = optimize_join_threshold_with(&spec, &Kappa0, schedule, DriveOptions::serial())
        .unwrap();
    let par = optimize_join_threshold_with(&spec, &Kappa0, schedule, parallel(4)).unwrap();
    assert!(serial.passes > 1, "want a schedule that actually escalates");
    assert_eq!(serial.passes, par.passes);
    assert_eq!(serial.final_cap.to_bits(), par.final_cap.to_bits());
    assert_eq!(serial.optimized.cost.to_bits(), par.optimized.cost.to_bits());
    assert_eq!(serial.optimized.plan.canonical(), par.optimized.plan.canonical());

    let mut ts = AosTable::with_rels(spec.n());
    let mut cs = Counters::default();
    optimize_join_threshold_arena_with::<AosTable, _, _, true>(
        &mut ts,
        &mut PlanArena::new(),
        &spec,
        &Kappa0,
        schedule,
        DriveOptions::serial(),
        &mut cs,
    );
    let mut tp = HotColdTable::with_rels(spec.n());
    let mut cp = Counters::default();
    optimize_join_threshold_arena_with::<HotColdTable, _, _, true>(
        &mut tp,
        &mut PlanArena::new(),
        &spec,
        &Kappa0,
        schedule,
        parallel(4),
        &mut cp,
    );
    assert_eq!(cs, cp, "instrumentation counters diverged between drivers");
    assert_tables_bit_identical(spec.n(), &ts, &tp, "thresholded k0 n=10");
}

/// Split and conv, each on one wave worker (the calling thread) and on
/// four.
fn cancellable_configs() -> [(&'static str, DriveOptions); 4] {
    let (serial, parallel) = (DriveOptions::serial(), parallel(4));
    [
        ("split serial", serial.with_driver(DriverChoice::Split)),
        ("split threads=4", parallel.with_driver(DriverChoice::Split)),
        ("conv serial", serial.with_driver(DriverChoice::Conv)),
        ("conv threads=4", parallel.with_driver(DriverChoice::Conv)),
    ]
}

fn assert_outcomes_bit_identical(
    got: (&ArenaThresholdOutcome, &PlanArena),
    want: (&ArenaThresholdOutcome, &PlanArena),
    label: &str,
) {
    let ((got, got_arena), (want, want_arena)) = (got, want);
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{label}: cost");
    assert_eq!(got.card.to_bits(), want.card.to_bits(), "{label}: card");
    assert_eq!(got.passes, want.passes, "{label}: passes");
    assert_eq!(got.final_cap.to_bits(), want.final_cap.to_bits(), "{label}: final cap");
    assert_eq!(
        got_arena.to_plan(got.root).canonical(),
        want_arena.to_plan(want.root).canonical(),
        "{label}: plan"
    );
}

/// The cancellable form with a flag nobody sets is the plain arena run:
/// same outcome, same table bits, same §3.3 counters — through a
/// schedule that escalates over several passes.
#[test]
fn never_set_cancel_flag_is_bit_identical_to_the_plain_arena_run() {
    let spec = Workload::new(10, Topology::Clique, 1000.0, 0.5).spec();
    let schedule = ThresholdSchedule::new(10.0, 1e3, 6);
    for (label, options) in cancellable_configs() {
        let mut plain = HotColdTable::with_rels(spec.n());
        let mut plain_arena = PlanArena::new();
        let mut plain_counters = Counters::default();
        let want = optimize_join_threshold_arena_with::<HotColdTable, _, _, true>(
            &mut plain,
            &mut plain_arena,
            &spec,
            &Kappa0,
            schedule,
            options,
            &mut plain_counters,
        );
        assert!(want.passes > 1, "want a schedule that actually escalates");

        let mut table = HotColdTable::with_rels(spec.n());
        let mut arena = PlanArena::new();
        let mut counters = Counters::default();
        let never = AtomicBool::new(false);
        let got = optimize_join_threshold_arena_cancellable::<HotColdTable, _, _, true>(
            &mut table,
            &mut arena,
            &spec,
            &Kappa0,
            schedule,
            options,
            &never,
            &mut counters,
        )
        .expect("a flag nobody sets cannot cancel");
        assert_outcomes_bit_identical((&got, &arena), (&want, &plain_arena), label);
        assert_eq!(counters, plain_counters, "{label}: counters");
        assert_tables_bit_identical(spec.n(), &table, &plain, label);
    }
}

/// Another thread sets the flag while an 18-relation drive has almost
/// all of its `3^18` work ahead: the run must come back `None`, and
/// promptly — no worker may be stranded at a wave barrier.
#[test]
fn cancel_flag_set_mid_drive_stops_an_eighteen_relation_run() {
    // Uniform tiny cardinalities keep every plan far below the cost cap,
    // so nothing is pruned and the full enumeration is pending.
    let spec = JoinSpec::cartesian(&[2.0; 18]).unwrap();
    for (label, options) in cancellable_configs() {
        let cancel = std::sync::Arc::new(AtomicBool::new(false));
        let (done, finished) = std::sync::mpsc::channel();
        {
            let (spec, cancel) = (spec.clone(), std::sync::Arc::clone(&cancel));
            std::thread::spawn(move || {
                let mut table = HotColdTable::with_rels(spec.n());
                let mut arena = PlanArena::new();
                let out = optimize_join_threshold_arena_cancellable::<HotColdTable, _, _, true>(
                    &mut table,
                    &mut arena,
                    &spec,
                    &Kappa0,
                    ThresholdSchedule::default(),
                    options,
                    &cancel,
                    &mut NoStats,
                );
                let _ = done.send(out.is_some());
            });
        }
        std::thread::sleep(Duration::from_millis(10));
        cancel.store(true, Relaxed);
        let completed = finished
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("{label}: cancelled drive never returned"));
        assert!(!completed, "{label}: a cancelled drive must return no plan");
    }
}

/// Sets [`TRIPPED`] once a sink has seen [`TRIP_AFTER_ROWS`] rows, so a
/// run cancels itself mid-table at a reproducible point (per worker on
/// the wave driver), and counts as `late` the rows a sink starts once it
/// reads the flag set.
#[derive(Default)]
struct Tripwire {
    rows: u64,
    late: u64,
}

static TRIPPED: AtomicBool = AtomicBool::new(false);
static TRIP_AFTER_ROWS: AtomicU64 = AtomicU64::new(u64::MAX);
/// Held by each test that arms the tripwire, since they share its
/// statics.
static TRIPWIRE: Mutex<()> = Mutex::new(());

/// Arm the tripwire for one run: clear [`TRIPPED`] and trip after `rows`.
fn arm_tripwire(rows: u64) {
    TRIP_AFTER_ROWS.store(rows, Relaxed);
    TRIPPED.store(false, Relaxed);
}

impl Stats for Tripwire {
    fn subset(&mut self) {
        if TRIPPED.load(Relaxed) {
            self.late += 1;
        }
        self.rows += 1;
        if self.rows == TRIP_AFTER_ROWS.load(Relaxed) {
            TRIPPED.store(true, Relaxed);
        }
    }
    fn loop_iter(&mut self) {}
    fn kappa_ind(&mut self) {}
    fn kappa_dep(&mut self) {}
    fn cond_hit(&mut self) {}
    fn loop_skipped(&mut self) {}
    fn pass(&mut self) {}
    fn absorb(&mut self, child: Tripwire) {
        self.rows += child.rows;
        // Per worker: the bound holds for each, not for their sum.
        self.late = self.late.max(child.late);
    }
}

/// A cancelled run leaves its table half-written. The table goes back to
/// the pool as is, so the next run on it must be bit-identical to a run
/// on a fresh table.
#[test]
fn a_cancelled_runs_table_gives_bit_identical_results_next_time() {
    let n = 14;
    let cancelled_spec = JoinSpec::cartesian(&[3.0; 14]).unwrap();
    let spec = Workload::new(n, Topology::CyclePlus3, 100.0, 0.5).spec();
    let schedule = ThresholdSchedule::default();
    let _armed = TRIPWIRE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for (label, options) in cancellable_configs() {
        arm_tripwire(500);
        let mut table = HotColdTable::with_rels(n);
        let mut arena = PlanArena::new();
        let cancelled = optimize_join_threshold_arena_cancellable::<HotColdTable, _, _, true>(
            &mut table,
            &mut arena,
            &cancelled_spec,
            &Kappa0,
            schedule,
            options,
            &TRIPPED,
            &mut Tripwire::default(),
        );
        assert!(cancelled.is_none(), "{label}: the tripwire must stop the run");

        let mut counters = Counters::default();
        let reused = optimize_join_threshold_arena_with::<HotColdTable, _, _, true>(
            &mut table, &mut arena, &spec, &Kappa0, schedule, options, &mut counters,
        );
        let mut fresh = HotColdTable::with_rels(n);
        let mut fresh_arena = PlanArena::new();
        let mut fresh_counters = Counters::default();
        let want = optimize_join_threshold_arena_with::<HotColdTable, _, _, true>(
            &mut fresh,
            &mut fresh_arena,
            &spec,
            &Kappa0,
            schedule,
            options,
            &mut fresh_counters,
        );
        assert_outcomes_bit_identical((&reused, &arena), (&want, &fresh_arena), label);
        assert_eq!(counters, fresh_counters, "{label}: counters");
        assert_tables_bit_identical(n, &table, &fresh, label);
    }
}

/// Every wave worker polls the cancel flag every 4096 rows of its chunk,
/// not only at wave tops. Tripped about 1000 rows into the widest wave of
/// an 18-relation fill — C(18, 9) = 48620 rows, 24310 a worker on two —
/// no worker may start more than 4096 rows once it reads the flag set.
/// A cap of 1 is below every row's κ′, so each row skips its loop and
/// the fill is cheap.
#[test]
fn cancel_flag_stops_a_wave_worker_mid_chunk() {
    fn binomial(n: u64, k: u64) -> u64 {
        (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }
    let n = 18;
    let spec = JoinSpec::cartesian(&[2.0; 18]).unwrap();
    let before_widest: u64 = (2..9).map(|k| binomial(n, k)).sum();
    let _armed = TRIPWIRE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for (threads, options) in [(1u64, DriveOptions::serial()), (2, parallel(2))] {
        for driver in DriverChoice::ALL {
            let label = format!("{driver} threads={threads}");
            // A worker's share of the earlier waves is within 16 rows a
            // wave of an even split, so every worker trips in wave 9.
            arm_tripwire(before_widest / threads + 1000);
            let mut sink = Tripwire::default();
            let out = optimize_join_threshold_arena_cancellable::<HotColdTable, _, _, true>(
                &mut HotColdTable::with_rels(n as usize),
                &mut PlanArena::new(),
                &spec,
                &Kappa0,
                ThresholdSchedule::single(1.0),
                options.with_driver(driver),
                &TRIPPED,
                &mut sink,
            );
            assert!(out.is_none(), "{label}: the tripwire must stop the run");
            assert!(sink.late <= 4096, "{label}: {} rows started after the flag", sink.late);
        }
    }
}

/// κ0 whose `κ′` panics on the full set of a 12-relation product of
/// tens, whose cardinality (10¹²) no smaller set reaches: the panic comes
/// from the last wave, which one worker runs while its siblings wait.
struct PanicsOnFullSet;

impl CostModel for PanicsOnFullSet {
    const HAS_DEP: bool = false;
    const HAS_AUX: bool = false;
    const CONV_SUPPORT: ConvSupport = ConvSupport::Native;

    fn kappa_ind(&self, out_card: f64) -> f32 {
        assert!(out_card < 5e11, "kappa_ind of the full set");
        out_card as f32
    }

    fn kappa_dep(&self, _out: f64, _lhs: f64, _rhs: f64, _la: f32, _ra: f32) -> f32 {
        0.0
    }

    fn name(&self) -> &'static str {
        "panics_on_full_set"
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

/// A row that panics fails its drive instead of hanging it: its worker
/// still passes every barrier its siblings wait at, and the panic comes
/// back to the caller — on one wave worker, two and four, split and
/// conv. Each drive runs on its own thread under a watchdog, so a hang
/// fails the test instead of stalling the suite.
#[test]
fn a_panicking_row_fails_its_drive_instead_of_hanging_it() {
    let spec = JoinSpec::cartesian(&[10.0; 12]).unwrap();
    for options in [DriveOptions::serial(), DriveOptions::parallel(2), DriveOptions::parallel(4)] {
        for driver in DriverChoice::ALL {
            let label = format!("{driver} threads={}", options.parallelism);
            let (spec, options) = (spec.clone(), options.with_driver(driver));
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(|| {
                    let _: HotColdTable = optimize_join_into::<_, _, _, true>(
                        &spec,
                        &PanicsOnFullSet,
                        f32::INFINITY,
                        options,
                        &mut NoStats,
                    );
                });
                let _ = done.send(run.err().map(panic_message));
            });
            let got = finished
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{label}: the drive hung"));
            assert_eq!(got.as_deref(), Some("kappa_ind of the full set"), "{label}");
        }
    }
}

/// A downstream layout whose `wave_table` override hands the wave driver
/// a two-relation table while the layout itself holds `n` relations.
struct MisSizedWaves {
    rows: AosTable,
    waves: HotColdTable,
}

impl TableLayout for MisSizedWaves {
    fn with_rels(n: usize) -> Self {
        MisSizedWaves { rows: AosTable::with_rels(n), waves: HotColdTable::with_rels(2) }
    }
    fn rels(&self) -> usize {
        self.rows.rels()
    }
    fn card(&self, s: RelSet) -> f64 {
        self.rows.card(s)
    }
    fn set_card(&mut self, s: RelSet, v: f64) {
        self.rows.set_card(s, v)
    }
    fn cost(&self, s: RelSet) -> f32 {
        self.rows.cost(s)
    }
    fn set_cost(&mut self, s: RelSet, v: f32) {
        self.rows.set_cost(s, v)
    }
    fn best_lhs(&self, s: RelSet) -> RelSet {
        self.rows.best_lhs(s)
    }
    fn set_best_lhs(&mut self, s: RelSet, v: RelSet) {
        self.rows.set_best_lhs(s, v)
    }
    fn pi_fan(&self, s: RelSet) -> f64 {
        self.rows.pi_fan(s)
    }
    fn set_pi_fan(&mut self, s: RelSet, v: f64) {
        self.rows.set_pi_fan(s, v)
    }
    fn aux(&self, s: RelSet) -> f32 {
        self.rows.aux(s)
    }
    fn set_aux(&mut self, s: RelSet, v: f32) {
        self.rows.set_aux(s, v)
    }
    fn wave_table(&mut self) -> Option<&mut HotColdTable> {
        Some(&mut self.waves)
    }
}

/// The wave driver indexes its table through raw pointers, so a wrongly
/// sized `wave_table` must stop it with a panic — in release builds too —
/// before any row is written, through both generic entry points that
/// take a caller's layout.
#[test]
fn mis_sized_wave_table_panics_instead_of_writing_out_of_bounds() {
    let spec = Workload::new(10, Topology::Chain, 100.0, 0.5).spec();
    let expect = "wave table allocated for a different relation count";
    let message = panic_message;
    // One worker fills in waves too, so it reaches the same assertion.
    for options in [DriveOptions::serial(), DriveOptions::parallel(2)] {
        let into = std::panic::catch_unwind(|| {
            let _: MisSizedWaves = optimize_join_into::<_, _, _, true>(
                &spec,
                &Kappa0,
                f32::INFINITY,
                options,
                &mut NoStats,
            );
        });
        assert!(message(into.expect_err("optimize_join_into")).contains(expect));
        let arena = std::panic::catch_unwind(|| {
            let mut table = MisSizedWaves::with_rels(spec.n());
            optimize_join_threshold_arena_with::<_, _, _, true>(
                &mut table,
                &mut PlanArena::new(),
                &spec,
                &Kappa0,
                ThresholdSchedule::default(),
                options,
                &mut NoStats,
            );
        });
        assert!(message(arena.expect_err("optimize_join_threshold_arena_with")).contains(expect));
    }
}
