//! Reproduces **Figure 2**: Cartesian-product optimization time as a
//! function of the number of relations, together with the formula-(3) fit
//! `t(n) = 3^n·T_loop + (ln2/2)·n·2^n·T_cond + 2^n·T_subset`.
//!
//! The paper's Sun SPARCstation 2 took ~0.9 s and its HP 9000/755 ~0.3 s
//! at n = 15, with fitted `T_loop` ≈ 180 ns (Sun) / 50 ns (HP). Modern
//! hardware lands a couple of orders of magnitude lower; what should
//! *reproduce* is the exponential shape, the closeness of the fit through
//! n ≈ 15, and a `T_loop` of a few nanoseconds.
//!
//! Environment knobs: `BLITZ_MAX_N` (default 16), `BLITZ_MIN_N`
//! (default 4), `BLITZ_BENCH_MIN_MS` (per-point budget, default 50).

use blitz_bench::render::fmt_secs;
use blitz_bench::timing::env_usize;
use blitz_bench::{fit_formula3, time_avg, Table, TimingConfig};
use blitz_core::{optimize_products_into, AosTable, DriveOptions, Kappa0, NoStats, TableLayout};

fn main() {
    let min_n = env_usize("BLITZ_MIN_N", 4);
    let max_n = env_usize("BLITZ_MAX_N", 16).min(24);
    let cfg = TimingConfig::from_env();

    println!("Figure 2: Cartesian product optimization times (cost model k0)\n");

    let mut points: Vec<(usize, f64)> = Vec::new();
    for n in min_n..=max_n {
        // Diverse cardinalities: 10 · 1.5^i (the exact values are
        // irrelevant to enumeration work under κ0).
        let cards: Vec<f64> = (0..n).map(|i| 10.0 * 1.5f64.powi(i as i32)).collect();
        let avg = time_avg(
            || {
                let mut stats = NoStats;
                let t: AosTable = optimize_products_into::<AosTable, _, _, true>(
                    &cards,
                    &Kappa0,
                    f32::INFINITY,
                    DriveOptions::serial(),
                    &mut stats,
                );
                std::hint::black_box(t.rels());
            },
            cfg,
        );
        points.push((n, avg.as_secs_f64()));
    }

    let fit = fit_formula3(&points);

    let mut table = Table::new(["n", "measured", "fitted", "ratio"]);
    for &(n, t) in &points {
        let p = fit.predict(n);
        table.row([
            n.to_string(),
            fmt_secs(t),
            fmt_secs(p),
            format!("{:.3}", t / p.max(1e-300)),
        ]);
    }
    print!("{}", table.render());

    println!("\nFormula (3) fit: t(n) = 3^n*T_loop + (ln2/2)*n*2^n*T_cond + 2^n*T_subset");
    println!("  T_loop   = {:8.2} ns   (paper: ~180 ns Sun, ~50 ns HP)", fit.t_loop * 1e9);
    println!("  T_cond   = {:8.2} ns", fit.t_cond * 1e9);
    println!("  T_subset = {:8.2} ns", fit.t_subset * 1e9);
    if let Some(&(n, t)) = points.iter().find(|&&(n, _)| n == 15) {
        println!("\nAt n = 15: {} (paper: ~0.9 s Sun / ~0.3 s HP)", fmt_secs(t));
        let _ = n;
    }
}
