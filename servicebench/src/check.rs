//! Reference answers and the response checker.
//!
//! Every response's `cost=` must equal `{:.6e}` of a reference the
//! harness computes in-process, chosen by the response's `source=`:
//!
//! * `exact` — the serial split driver with the scalar kernel on the
//!   array-of-structs table: the paper's enumeration;
//! * `greedy_*` — GOO (`goo`, or the ladder's `goo_big` beyond a
//!   [`blitz_core::JoinSpec`]);
//! * `ladder_*` — `optimize_ladder` with the server's budgets (see
//!   [`ladder_config`]), which must also name the same winning rung.
//!
//! The plan's leaves must be a permutation of `0..n`.

use crate::workload::{with_model, Instance, Query};
use blitz_core::{
    optimize_join_with, CostModel, DriveOptions, DriverChoice, KernelChoice, LayoutChoice,
};
use blitz_ladder::{optimize_ladder, LadderConfig, Rung};
use blitz_service::server::response_field;
use blitz_service::ServiceConfig;

/// What a response for one pool entry may say.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Expected {
    /// Exact optimum; `None` until computed (entries expected to degrade
    /// defer it until one answers exactly).
    pub exact: Option<f32>,
    /// GOO cost.
    pub greedy: f32,
    /// Ladder answer and its winning rung (queries over the exact limit,
    /// when the server runs the ladder).
    pub ladder: Option<(f32, Rung)>,
}

impl Expected {
    /// The cost a healthy server returns: the ladder's, else the exact
    /// optimum, else (deadline fallbacks) the greedy plan's.
    pub fn served(&self) -> f32 {
        self.ladder
            .map(|(c, _)| c)
            .or(self.exact)
            .unwrap_or(self.greedy)
    }
}

/// The exact optimum by the paper's enumeration.
pub fn exact_cost(query: &Query) -> f32 {
    fn go<M: CostModel + Sync>(q: &Query, model: &M) -> f32 {
        let spec = q.spec().expect("exact references need a JoinSpec");
        let options = DriveOptions::serial()
            .with_driver(DriverChoice::Split)
            .with_kernel(KernelChoice::Scalar)
            .with_layout(LayoutChoice::Aos);
        optimize_join_with(&spec, model, options)
            .expect("n is within the table limit")
            .cost
    }
    with_model(
        query.model,
        |m| go(query, m),
        |m| go(query, m),
        |m| go(query, m),
        |m| go(query, m),
    )
}

/// The ladder configuration the service runs for `config`.
///
/// The wall clock is kept even though it never binds here: with a clock
/// set, `optimize_ladder` runs iterated improvement in 1024-proposal
/// chunks, and each chunk restarts the consecutive-failure count, so the
/// same budgets without a clock return different plans.
pub fn ladder_config(config: &ServiceConfig) -> Option<LadderConfig> {
    config.ladder.as_ref().map(|s| LadderConfig {
        max_exact_rels: config.max_exact_rels,
        dp_window: s.dp_window,
        dp_rounds: s.dp_rounds,
        refine_steps: s.refine_steps,
        seed: s.seed,
        wall_clock: s.budget,
        driver: config.driver,
        ..LadderConfig::default()
    })
}

fn ladder_answer(query: &Query, cfg: &LadderConfig) -> (f32, Rung) {
    let spec = query.big_spec();
    let report = with_model(
        query.model,
        |m| optimize_ladder(&spec, m, cfg),
        |m| optimize_ladder(&spec, m, cfg),
        |m| optimize_ladder(&spec, m, cfg),
        |m| optimize_ladder(&spec, m, cfg),
    );
    (report.cost, report.rung)
}

/// References for every pool entry of `instance` under `config`, computed
/// on two threads. Entries with a deadline only get their greedy
/// reference; their exact one is computed if one answers exactly.
pub fn references(instance: &Instance, config: &ServiceConfig) -> Vec<Expected> {
    let ladder = ladder_config(config);
    let compute = |q: &Query| {
        let over_limit = q.n() > config.max_exact_rels;
        Expected {
            exact: (!over_limit && q.deadline_ms.is_none()).then(|| exact_cost(q)),
            greedy: q.greedy_cost(),
            ladder: ladder
                .as_ref()
                .filter(|_| over_limit)
                .map(|cfg| ladder_answer(q, cfg)),
        }
    };
    let pool = &instance.pool;
    let mid = pool.len() / 2;
    std::thread::scope(|s| {
        let first = s.spawn(|| pool[..mid].iter().map(compute).collect::<Vec<_>>());
        let mut out: Vec<Expected> = pool[mid..].iter().map(compute).collect();
        let mut all = first.join().expect("reference thread panicked");
        all.append(&mut out);
        all
    })
}

/// A response that passed the checks.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Checked {
    /// The (reference-equal) cost returned.
    pub cost: f32,
    /// A greedy answer to a query the exact path admits.
    pub degraded: bool,
}

/// The checker's verdict on one response.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Matches its reference.
    Ok(Checked),
    /// An exact answer whose reference was not computed up front.
    Deferred,
    /// Wrong, malformed or an `ERR`.
    Wrong(String),
}

/// The relation indices named in a plan expression like
/// `((R0 x R3) x R1)`.
fn plan_leaves(plan: &str) -> Option<Vec<usize>> {
    plan.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty() && *t != "x")
        .map(|t| t.strip_prefix('R')?.parse().ok())
        .collect()
}

/// Check one response line for `query` against `expected`. `max_exact`
/// is the server's exact-path limit (a greedy answer below it is
/// degraded).
pub fn verify(line: &str, query: &Query, expected: &Expected, max_exact: usize) -> Verdict {
    if !line.starts_with("OK ") {
        return Verdict::Wrong(format!("not OK: {line}"));
    }
    let (Some(source), Some(cost), Some(plan)) = (
        response_field(line, "source"),
        response_field(line, "cost"),
        response_field(line, "plan"),
    ) else {
        return Verdict::Wrong(format!("malformed: {line}"));
    };
    let mut leaves = match plan_leaves(plan) {
        Some(l) => l,
        None => return Verdict::Wrong(format!("unparsable plan: {plan}")),
    };
    leaves.sort_unstable();
    if !leaves.iter().copied().eq(0..query.n()) {
        return Verdict::Wrong(format!("plan leaves are not 0..{}: {plan}", query.n()));
    }
    let reference = match source {
        "exact" => match expected.exact {
            Some(c) => c,
            None => return Verdict::Deferred,
        },
        s if s.starts_with("greedy_") => expected.greedy,
        s => match (s.strip_prefix("ladder_"), expected.ladder) {
            (Some(rung), Some((c, want))) if rung == want.name() => c,
            _ => return Verdict::Wrong(format!("unexpected source {s} (reference {expected:?})")),
        },
    };
    let want = format!("{reference:.6e}");
    if cost != want {
        return Verdict::Wrong(format!("cost={cost} from {source}, reference {want}"));
    }
    Verdict::Ok(Checked {
        cost: reference,
        degraded: source.starts_with("greedy_") && query.n() <= max_exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blitz_service::ModelId;

    fn query() -> Query {
        Query {
            cards: vec![10.0, 20.0, 30.0, 40.0],
            preds: vec![(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.05)],
            model: ModelId::Kappa0,
            big: false,
            deadline_ms: None,
        }
    }

    fn expected(q: &Query) -> Expected {
        Expected {
            exact: Some(exact_cost(q)),
            greedy: q.greedy_cost(),
            ladder: None,
        }
    }

    #[test]
    fn accepts_the_reference_and_rejects_corruption() {
        let q = query();
        let e = expected(&q);
        let cost = format!("{:.6e}", e.exact.unwrap());
        let good =
            format!("OK cost={cost} card=1 source=exact cache=miss plan=((R0 x R1) x (R2 x R3))");
        assert!(matches!(verify(&good, &q, &e, 20), Verdict::Ok(c) if !c.degraded));

        let bumped = format!("{:.6e}", e.exact.unwrap() * 1.001);
        let corrupted = good.replace(&cost, &bumped);
        assert!(
            matches!(verify(&corrupted, &q, &e, 20), Verdict::Wrong(_)),
            "{corrupted}"
        );

        let missing_leaf = good.replace("(R2 x R3)", "(R2 x R2)");
        assert!(matches!(
            verify(&missing_leaf, &q, &e, 20),
            Verdict::Wrong(_)
        ));
        let short = good.replace(" x (R2 x R3)", "");
        assert!(matches!(verify(&short, &q, &e, 20), Verdict::Wrong(_)));

        assert!(matches!(verify("ERR boom", &q, &e, 20), Verdict::Wrong(_)));
    }

    #[test]
    fn greedy_answers_are_degraded_and_deferred_exacts_wait() {
        let q = query();
        let e = expected(&q);
        let greedy = format!(
            "OK cost={:.6e} source=greedy_deadline cache=miss plan=(((R0 x R1) x R2) x R3)",
            e.greedy
        );
        assert!(matches!(verify(&greedy, &q, &e, 20), Verdict::Ok(c) if c.degraded));
        assert!(matches!(verify(&greedy, &q, &e, 3), Verdict::Ok(c) if !c.degraded));
        let lazy = Expected { exact: None, ..e };
        let exact = greedy.replace("greedy_deadline", "exact");
        assert_eq!(verify(&exact, &q, &lazy, 20), Verdict::Deferred);
    }

    #[test]
    fn plan_leaves_parse() {
        assert_eq!(plan_leaves("((R0 x R13) x R2)"), Some(vec![0, 13, 2]));
        assert_eq!(plan_leaves("R7"), Some(vec![7]));
        assert_eq!(plan_leaves("(R0 x Q1)"), None);
    }
}
