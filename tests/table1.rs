//! Integration test: reproduce the paper's Table 1 through the public
//! umbrella-crate API.

use blitzsplit::core::{optimize_products_into, AosTable, NoStats, TableLayout};
use blitzsplit::{optimize_products, DriveOptions, Kappa0, Plan, RelSet};

#[test]
fn table1_final_row_and_plan() {
    let cards = [10.0, 20.0, 30.0, 40.0];
    let opt = optimize_products(&cards, &Kappa0).unwrap();
    assert_eq!(opt.cost, 241_000.0);
    assert_eq!(opt.card, 240_000.0);
    // (A × D) × (B × C), up to commutativity.
    let expect = Plan::join(
        Plan::join(Plan::scan(0), Plan::scan(3)),
        Plan::join(Plan::scan(1), Plan::scan(2)),
    );
    assert_eq!(opt.plan.canonical(), expect.canonical());
}

#[test]
fn table1_every_row() {
    let cards = [10.0, 20.0, 30.0, 40.0];
    let mut stats = NoStats;
    let t: AosTable = optimize_products_into::<AosTable, _, _, true>(
        &cards,
        &Kappa0,
        f32::INFINITY,
        DriveOptions::serial(),
        &mut stats,
    );
    let rows: &[(u32, f64, f32)] = &[
        (0b0001, 10.0, 0.0),
        (0b0010, 20.0, 0.0),
        (0b0100, 30.0, 0.0),
        (0b1000, 40.0, 0.0),
        (0b0011, 200.0, 200.0),
        (0b0101, 300.0, 300.0),
        (0b1001, 400.0, 400.0),
        (0b0110, 600.0, 600.0),
        (0b1010, 800.0, 800.0),
        (0b1100, 1200.0, 1200.0),
        (0b0111, 6000.0, 6200.0),
        (0b1011, 8000.0, 8200.0),
        (0b1101, 12000.0, 12300.0),
        (0b1110, 24000.0, 24600.0),
        (0b1111, 240_000.0, 241_000.0),
    ];
    for &(bits, card, cost) in rows {
        let s = RelSet::from_bits(bits);
        assert_eq!(t.card(s), card, "cardinality of {s:?}");
        assert_eq!(t.cost(s), cost, "cost of {s:?}");
    }
}

#[test]
fn table1_best_lhs_column() {
    // The paper's Best LHS column (up to commutativity: the complement is
    // an equally good recording of the same split).
    let cards = [10.0, 20.0, 30.0, 40.0];
    let mut stats = NoStats;
    let t: AosTable = optimize_products_into::<AosTable, _, _, true>(
        &cards,
        &Kappa0,
        f32::INFINITY,
        DriveOptions::serial(),
        &mut stats,
    );
    let check = |set: u32, expect: u32| {
        let s = RelSet::from_bits(set);
        let got = t.best_lhs(s).bits();
        assert!(
            got == expect || got == set & !expect,
            "best lhs of {s:?}: got {got:#b}, want {expect:#b} (or complement)"
        );
    };
    // Pairs: best LHS is the smaller relation (cost is |out| either way;
    // the first split examined wins ties — the paper lists {A}, {B}, {C}).
    check(0b0011, 0b0001);
    check(0b0101, 0b0001);
    check(0b1001, 0b0001);
    check(0b0110, 0b0010);
    check(0b1010, 0b0010);
    check(0b1100, 0b0100);
    // Triples: {A,B} for ABC and ABD; {A,C} for ACD; {B,C} for BCD.
    check(0b0111, 0b0011);
    check(0b1011, 0b0011);
    check(0b1101, 0b0101);
    check(0b1110, 0b0110);
    // Full set: {A,D}.
    check(0b1111, 0b1001);
}
