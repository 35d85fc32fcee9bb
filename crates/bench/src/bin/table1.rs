//! Reproduces **Table 1** of the paper: the dynamic-programming table for
//! the Cartesian product `A × B × C × D` with cardinalities 10/20/30/40
//! under the naive cost model `κ0`.
//!
//! Expected output: the fifteen rows of Table 1, ending with
//! `{A,B,C,D}  240000  {A,D}  241000`, and the extracted optimal
//! expression `(A × D) × (B × C)`.

use blitz_bench::render::fmt_num;
use blitz_bench::Table;
use blitz_core::{
    optimize_products_into, AosTable, DriveOptions, Kappa0, NoStats, Plan, RelSet, TableLayout,
};

fn set_name(s: RelSet) -> String {
    const NAMES: [&str; 4] = ["A", "B", "C", "D"];
    let names: Vec<&str> = s.iter().map(|i| NAMES[i]).collect();
    format!("{{{}}}", names.join(","))
}

fn main() {
    let cards = [10.0, 20.0, 30.0, 40.0];
    let mut stats = NoStats;
    let table: AosTable = optimize_products_into::<AosTable, _, _, true>(
        &cards,
        &Kappa0,
        f32::INFINITY,
        DriveOptions::serial(),
        &mut stats,
    );

    println!("Table 1: Dynamic programming table for A x B x C x D");
    println!("(cards 10/20/30/40, naive cost model k0 = |R_out|)\n");

    let mut out = Table::new(["Relation Set", "Cardinality", "Best LHS", "Cost"]);
    // The paper lists singletons, then pairs, then triples, then the full
    // set — i.e. ordered by set size, ties by integer value.
    let mut sets: Vec<RelSet> = (1u32..16).map(RelSet::from_bits).collect();
    sets.sort_by_key(|s| (s.len(), s.bits()));
    for s in sets {
        let best = table.best_lhs(s);
        out.row([
            set_name(s),
            fmt_num(table.card(s)),
            if best.is_empty() { "none".to_string() } else { set_name(best) },
            fmt_num(table.cost(s) as f64),
        ]);
    }
    print!("{}", out.render());

    let plan = Plan::extract(&table, RelSet::full(4));
    println!("\nExtracted optimal expression: {}", rename(&plan));
    println!("Paper's optimal expression:   ((A x D) x (B x C)), cost 241000");
}

fn rename(p: &Plan) -> String {
    const NAMES: [&str; 4] = ["A", "B", "C", "D"];
    match p {
        Plan::Scan { rel } => NAMES[*rel].to_string(),
        Plan::Join { left, right } => format!("({} x {})", rename(left), rename(right)),
    }
}
