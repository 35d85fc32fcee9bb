//! Seeded workload generation: the query pools, the request streams that
//! draw from them, and the server flags each workload pins.
//!
//! Every pool entry's *shape* (relation count, join-graph topology, cost
//! model) is a fixed function of its index, so every seed yields the same
//! mix of work; the seed draws the statistics (cardinalities,
//! selectivities, random graphs), the draw order and the relabelings.
//! Entries whose greedy plan overflows `f32` are redrawn, which bounds the
//! exact and ladder costs too (both are never worse than greedy).

use blitz_baselines::goo;
use blitz_catalog::{Topology, Workload as Grid};
use blitz_core::{CostModel, DiskNestedLoops, JoinSpec, Kappa0, SmDnl, SortMerge};
use blitz_ladder::{goo_big, BigSpec};
use blitz_service::server::format_optimize_request;
use blitz_service::{LadderSettings, ModelId, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The four cost models, in wire order.
pub const MODELS: [ModelId; 4] = [
    ModelId::Kappa0,
    ModelId::SortMerge,
    ModelId::DiskNestedLoops,
    ModelId::SmDnl,
];

/// Server settings shared by every workload: two optimizer workers, two
/// wave threads per large exact job, exact DP up to 20 relations.
const WORKERS: usize = 2;
const THREADS: usize = 2;
const MAX_RELS: usize = 20;
/// Ladder wall-clock ceiling on `big_ladder`: far above what the work
/// budgets take, so the budgets bind first and answers are deterministic.
const LADDER_BUDGET_MS: u64 = 10_000;

/// Stream B of `mixed_deadline`: offered rate, per-request deadline and
/// the number of distinct queries it can send before wrapping.
const B_RATE: f64 = 2.0;
const B_DEADLINE_MS: u64 = 25;
const B_QUERIES: usize = 128;

/// One of the benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache hits only: Zipf draws over 512 small queries, relabeled.
    HotRepeat,
    /// Cache misses only: every request runs the exact DP (n = 13–16).
    ColdExact,
    /// Closed-loop small queries beside an open-loop stream of n = 17
    /// queries whose 25 ms deadline expires while their DP keeps running.
    MixedDeadline,
    /// Anytime-ladder queries, n = 24–100, under deterministic budgets.
    BigLadder,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::HotRepeat,
        Workload::ColdExact,
        Workload::MixedDeadline,
        Workload::BigLadder,
    ];

    /// Stable name (CLI, `BENCHMARK.json`, artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRepeat => "hot_repeat",
            Workload::ColdExact => "cold_exact",
            Workload::MixedDeadline => "mixed_deadline",
            Workload::BigLadder => "big_ladder",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn cache_capacity(self) -> usize {
        match self {
            // `--cache 0` still keeps one plan per shard (eight slots),
            // far too few for a 96-query cycle to ever hit.
            Workload::ColdExact => 0,
            _ => 1024,
        }
    }

    /// Arguments after `blitzsplit serve --addr 127.0.0.1:0`.
    pub fn server_args(self) -> Vec<String> {
        let mut args = vec![
            "--workers".to_string(),
            WORKERS.to_string(),
            "--threads".to_string(),
            THREADS.to_string(),
            "--max-rels".to_string(),
            MAX_RELS.to_string(),
            "--cache".to_string(),
            self.cache_capacity().to_string(),
        ];
        if self == Workload::BigLadder {
            args.extend(["--ladder".to_string(), "--budget-ms".to_string()]);
            args.push(LADDER_BUDGET_MS.to_string());
        }
        args
    }

    /// The [`ServiceConfig`] `blitzsplit serve` builds from
    /// [`Workload::server_args`], for the in-process replay and tests.
    pub fn service_config(self) -> ServiceConfig {
        ServiceConfig {
            workers: WORKERS,
            parallelism: THREADS,
            max_exact_rels: MAX_RELS,
            cache_capacity: self.cache_capacity(),
            ladder: (self == Workload::BigLadder).then(|| LadderSettings {
                budget: Some(Duration::from_millis(LADDER_BUDGET_MS)),
                ..LadderSettings::default()
            }),
            ..ServiceConfig::default()
        }
    }

    /// Requests a pass of warm-up sends (pool indices, in order) before
    /// any timing: the whole pool on `hot_repeat` so every timed request
    /// hits, a cache-filling quarter of stream S on `mixed_deadline`, and
    /// a few queries of each size elsewhere.
    pub fn warmup(self) -> Vec<usize> {
        match self {
            Workload::HotRepeat => (0..HOT_POOL).collect(),
            Workload::ColdExact => (0..8).chain(COLD_POOL / 2..COLD_POOL / 2 + 8).collect(),
            Workload::MixedDeadline => (0..1024).collect(),
            Workload::BigLadder => (0..4).chain(BIG_POOL / 2..BIG_POOL / 2 + 4).collect(),
        }
    }
}

/// One optimization request as the harness sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Base-relation cardinalities.
    pub cards: Vec<f64>,
    /// Join predicates `(i, j, selectivity)`.
    pub preds: Vec<(usize, usize, f64)>,
    /// Cost model.
    pub model: ModelId,
    /// Part of the workload's heaviest class (`big_latency_p50_ms`).
    pub big: bool,
    /// Wire `deadline_ms=`.
    pub deadline_ms: Option<u64>,
}

impl Query {
    /// Relation count.
    pub fn n(&self) -> usize {
        self.cards.len()
    }

    /// The `OPTIMIZE` request line.
    pub fn line(&self) -> String {
        format_optimize_request(
            &self.cards,
            &self.preds,
            self.model,
            self.deadline_ms.map(Duration::from_millis),
        )
    }

    /// The same query with relation `i` renamed `perm[i]`.
    pub fn relabeled(&self, perm: &[usize]) -> Query {
        let mut cards = vec![0.0; self.n()];
        for (i, &c) in self.cards.iter().enumerate() {
            cards[perm[i]] = c;
        }
        let preds = self
            .preds
            .iter()
            .map(|&(i, j, s)| (perm[i], perm[j], s))
            .collect();
        Query {
            cards,
            preds,
            ..self.clone()
        }
    }

    /// The query as a [`JoinSpec`] (`None` beyond its bit-set width).
    pub fn spec(&self) -> Option<JoinSpec> {
        JoinSpec::new(&self.cards, &self.preds).ok()
    }

    /// The query as a [`BigSpec`].
    pub fn big_spec(&self) -> BigSpec {
        BigSpec::new(&self.cards, &self.preds).expect("generated queries are valid")
    }

    /// Cost of the greedy (GOO) plan: the baseline `goo` when the query
    /// fits a [`JoinSpec`], else the ladder's `goo_big` seed.
    pub fn greedy_cost(&self) -> f32 {
        fn go<M: CostModel>(q: &Query, model: &M) -> f32 {
            match q.spec() {
                Some(spec) => goo(&spec, model).1,
                None => goo_big(&q.big_spec(), model).1,
            }
        }
        with_model(
            self.model,
            |m| go(self, m),
            |m| go(self, m),
            |m| go(self, m),
            |m| go(self, m),
        )
    }
}

/// Static dispatch over [`ModelId`] for code generic in [`CostModel`].
pub fn with_model<R>(
    model: ModelId,
    k0: impl FnOnce(&Kappa0) -> R,
    sm: impl FnOnce(&SortMerge) -> R,
    dnl: impl FnOnce(&DiskNestedLoops) -> R,
    smdnl: impl FnOnce(&SmDnl) -> R,
) -> R {
    match model {
        ModelId::Kappa0 => k0(&Kappa0),
        ModelId::SortMerge => sm(&SortMerge),
        ModelId::DiskNestedLoops => dnl(&DiskNestedLoops::default()),
        ModelId::SmDnl => smdnl(&SmDnl::default()),
    }
}

/// Mix a seed with the labels of what it seeds (SplitMix64 finalizer
/// over each part), so pool entries and streams get independent draws.
pub fn sub_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x5eed_b11c_0000_0001;
    for &p in parts {
        h = h.wrapping_add(p).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

/// Log-uniform draw from `[lo, hi]`.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    rng.random_range(lo.ln()..=hi.ln()).exp()
}

/// How a pool entry's join graph is drawn.
#[derive(Copy, Clone, Debug)]
enum Graph {
    /// A paper topology with random statistics.
    Fixed(Topology),
    /// A connected random graph: a random spanning tree plus about
    /// `extra` further predicates per relation.
    Random { extra: f64 },
}

/// Draw one query of the given shape; `None` when its greedy plan
/// overflows (the caller redraws with the next attempt's seed).
///
/// Cardinalities are log-uniform over `[10, 10^5]`. A predicate's
/// selectivity is `f / max(|R_i|, |R_j|)` with `f` log-uniform over
/// `[0.3, 3]`, capped at 1: key-like joins, whose results stay near their
/// inputs' size, so even 100-relation queries have finite plan costs.
/// (`blitz_catalog::random_spec` draws selectivities independently of
/// the cardinalities and stops at 31 relations.)
fn draw(n: usize, graph: Graph, model: ModelId, seed: u64) -> Option<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cards: Vec<f64> = (0..n).map(|_| log_uniform(&mut rng, 1e3, 1e4)).collect();
    let pairs: Vec<(usize, usize)> = match graph {
        Graph::Fixed(topology) => Grid::new(n, topology, 100.0, 0.0).edges(),
        Graph::Random { extra } => {
            let mut pairs: Vec<(usize, usize)> =
                (1..n).map(|i| (rng.random_range(0..i), i)).collect();
            let wanted = pairs.len() + (extra * n as f64).round() as usize;
            let max = n * (n - 1) / 2;
            while pairs.len() < wanted.min(max) {
                let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
                let pair = (i.min(j), i.max(j));
                if i != j && !pairs.iter().any(|&(a, b)| (a.min(b), a.max(b)) == pair) {
                    pairs.push(pair);
                }
            }
            pairs
        }
    };
    let preds = pairs
        .into_iter()
        .map(|(i, j)| {
            (
                i,
                j,
                (log_uniform(&mut rng, 0.3, 3.0) / cards[i].max(cards[j])).min(1.0),
            )
        })
        .collect();
    let query = Query {
        cards,
        preds,
        model,
        big: false,
        deadline_ms: None,
    };
    let greedy = query.greedy_cost();
    (greedy.is_finite() && greedy > 0.0).then_some(query)
}

/// Draw entry `index` of a pool: the first attempt whose greedy plan is
/// finite.
fn entry(seed: u64, pool: u64, index: usize, n: usize, graph: Graph, model: ModelId) -> Query {
    (0u64..)
        .find_map(|attempt| {
            draw(
                n,
                graph,
                model,
                sub_seed(seed, &[pool, index as u64, attempt]),
            )
        })
        .expect("an unbounded redraw always finds a finite query")
}

const HOT_POOL: usize = 512;
const COLD_POOL: usize = 96;
const MIXED_POOL: usize = 4096;
const BIG_POOL: usize = 64;
/// `big_ladder`'s sizes, one per pool index mod 5: 40 twice, so the
/// median request lies inside the 40-relation class instead of on the
/// boundary between two classes, where it would jump between them.
const BIG_SIZES: [usize; 5] = [24, 40, 40, 64, 100];

/// How a stream picks its next pool entry.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Pick {
    /// Zipf(s = 1) over `0..len` (rank `r` has weight `1/(r+1)`), each
    /// request a fresh random relabeling of its entry.
    ZipfRelabeled {
        /// Pool entries drawn from.
        len: usize,
    },
    /// Cycle through `start..start + len`, beginning at `start + offset`.
    Cycle {
        /// First entry of the walked range.
        start: usize,
        /// Entries in the range.
        len: usize,
        /// Where in the range the walk begins.
        offset: usize,
    },
    /// Uniform draws from `start..start + len`.
    Uniform {
        /// First entry.
        start: usize,
        /// Entries in the range.
        len: usize,
    },
}

/// When a stream sends.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Arrival {
    /// Closed loop: the next request after the previous reply.
    Closed,
    /// Open loop: on a fixed schedule, whatever the replies do.
    Open {
        /// Requests per second.
        rate: f64,
    },
}

/// One connection's worth of load.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Stream {
    /// Closed or open loop.
    pub arrival: Arrival,
    /// How requests pick pool entries.
    pub pick: Pick,
    /// Whether its latencies are the workload's `latency_*` metrics.
    pub primary: bool,
}

/// A workload instantiated for one seed: its pool and its streams.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Which workload.
    pub workload: Workload,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// Every query any stream can send (original labeling).
    pub pool: Vec<Query>,
    /// One entry per connection.
    pub streams: Vec<Stream>,
}

impl Instance {
    /// Generate `workload`'s pool and streams from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Instance {
        let tag = workload as u64;
        let (pool, streams): (Vec<Query>, Vec<Stream>) = match workload {
            Workload::HotRepeat => {
                let pool = (0..HOT_POOL)
                    .map(|i| {
                        let n = 4 + i % 9;
                        let graph = Graph::Random { extra: 0.25 };
                        Query {
                            big: n >= 11,
                            ..entry(seed, tag, i, n, graph, MODELS[(i / 9) % 4])
                        }
                    })
                    .collect();
                let stream = Stream {
                    arrival: Arrival::Closed,
                    pick: Pick::ZipfRelabeled { len: HOT_POOL },
                    primary: true,
                };
                (pool, vec![stream, stream])
            }
            Workload::ColdExact => {
                let pool = (0..COLD_POOL)
                    .map(|i| {
                        let k = i % 64;
                        let n = 13 + k % 4;
                        let graph = Graph::Fixed(Topology::ALL[(k / 4) % 4]);
                        Query {
                            big: n == 16,
                            ..entry(seed, tag, i, n, graph, MODELS[k / 16])
                        }
                    })
                    .collect();
                let half = COLD_POOL / 2;
                let stream = |start| Stream {
                    arrival: Arrival::Closed,
                    pick: Pick::Cycle {
                        start,
                        len: half,
                        offset: 0,
                    },
                    primary: true,
                };
                (pool, vec![stream(0), stream(half)])
            }
            Workload::MixedDeadline => {
                let small = (0..MIXED_POOL).map(|i| {
                    let n = 6 + i % 5;
                    entry(
                        seed,
                        tag,
                        i,
                        n,
                        Graph::Random { extra: 0.25 },
                        MODELS[(i / 5) % 4],
                    )
                });
                // Stars and cliques: n = 17 DP takes far longer than the
                // deadline on either, so B's answers are greedy fallbacks.
                let big = (0..B_QUERIES).map(|j| {
                    let graph = Graph::Fixed([Topology::Star, Topology::Clique][j % 2]);
                    Query {
                        big: true,
                        deadline_ms: Some(B_DEADLINE_MS),
                        ..entry(seed, tag, MIXED_POOL + j, 17, graph, ModelId::Kappa0)
                    }
                });
                let streams = vec![
                    Stream {
                        arrival: Arrival::Closed,
                        pick: Pick::Uniform {
                            start: 0,
                            len: MIXED_POOL,
                        },
                        primary: true,
                    },
                    Stream {
                        arrival: Arrival::Open { rate: B_RATE },
                        pick: Pick::Cycle {
                            start: MIXED_POOL,
                            len: B_QUERIES,
                            offset: 0,
                        },
                        primary: false,
                    },
                ];
                (small.chain(big).collect(), streams)
            }
            Workload::BigLadder => {
                let pool = (0..BIG_POOL)
                    .map(|i| {
                        let n = BIG_SIZES[i % BIG_SIZES.len()];
                        // A clique of 100 relations does not fit a request
                        // line, so the fourth shape is a sparse random graph.
                        let graph = match (i / 5) % 4 {
                            3 => Graph::Random { extra: 0.5 },
                            t => Graph::Fixed(Topology::ALL[t]),
                        };
                        let model = [ModelId::Kappa0, ModelId::SortMerge][(i / 20) % 2];
                        Query {
                            big: n == 100,
                            ..entry(seed, tag, i, n, graph, model)
                        }
                    })
                    .collect();
                let stream = |offset| Stream {
                    arrival: Arrival::Closed,
                    pick: Pick::Cycle {
                        start: 0,
                        len: BIG_POOL,
                        offset,
                    },
                    primary: true,
                };
                (pool, vec![stream(0), stream(BIG_POOL / 2)])
            }
        };
        Instance {
            workload,
            seed,
            pool,
            streams,
        }
    }

    /// The request generator for stream `index`.
    pub fn requests(&self, index: usize) -> Requests<'_> {
        Requests {
            instance: self,
            stream: self.streams[index],
            rng: StdRng::seed_from_u64(sub_seed(
                self.seed,
                &[self.workload as u64, 100, index as u64],
            )),
            zipf: match self.streams[index].pick {
                Pick::ZipfRelabeled { len } => zipf_cdf(len),
                _ => Vec::new(),
            },
            sent: 0,
        }
    }
}

/// Cumulative Zipf(s = 1) weights over `len` ranks.
fn zipf_cdf(len: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..len)
        .map(|r| {
            acc += 1.0 / (r + 1) as f64;
            acc
        })
        .collect()
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Pool entry it was drawn from.
    pub entry: usize,
    /// The relabeling applied (`perm[original] = sent`), if any.
    pub perm: Option<Vec<usize>>,
    /// The wire line.
    pub line: String,
}

/// Deterministic request sequence of one stream.
pub struct Requests<'a> {
    instance: &'a Instance,
    stream: Stream,
    rng: StdRng,
    zipf: Vec<f64>,
    sent: usize,
}

impl Iterator for Requests<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let k = self.sent;
        self.sent += 1;
        let pool = &self.instance.pool;
        let request = match self.stream.pick {
            Pick::ZipfRelabeled { .. } => {
                let total = *self.zipf.last().expect("non-empty Zipf pool");
                let u = self.rng.random::<f64>() * total;
                let entry = self
                    .zipf
                    .partition_point(|&c| c <= u)
                    .min(self.zipf.len() - 1);
                let mut perm: Vec<usize> = (0..pool[entry].n()).collect();
                for i in (1..perm.len()).rev() {
                    perm.swap(i, self.rng.random_range(0..=i));
                }
                let line = pool[entry].relabeled(&perm).line();
                Request {
                    entry,
                    perm: Some(perm),
                    line,
                }
            }
            Pick::Cycle { start, len, offset } => {
                let entry = start + (offset + k) % len;
                Request {
                    entry,
                    perm: None,
                    line: pool[entry].line(),
                }
            }
            Pick::Uniform { start, len } => {
                let entry = start + self.rng.random_range(0..len);
                Request {
                    entry,
                    perm: None,
                    line: pool[entry].line(),
                }
            }
        };
        Some(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: Workload, seed: u64) -> Vec<String> {
        let inst = Instance::new(w, seed);
        (0..inst.streams.len())
            .flat_map(|s| {
                inst.requests(s)
                    .take(50)
                    .map(|r| r.line)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        for w in Workload::ALL {
            let a = lines(w, 1);
            assert_eq!(a, lines(w, 1), "{}", w.name());
            assert_ne!(a, lines(w, 2), "{}", w.name());
        }
    }

    #[test]
    fn shapes_are_seed_independent() {
        for w in Workload::ALL {
            let shape = |seed| {
                Instance::new(w, seed)
                    .pool
                    .iter()
                    .map(|q| (q.n(), q.model, q.big, q.deadline_ms))
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(1), shape(7), "{}", w.name());
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let inst = Instance::new(Workload::HotRepeat, 3);
        let mut counts = vec![0usize; HOT_POOL];
        for r in inst.requests(0).take(20_000) {
            counts[r.entry] += 1;
            let perm = r.perm.expect("hot_repeat relabels");
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..perm.len()).collect::<Vec<_>>());
        }
        // Rank 0 carries 1/H(512) ≈ 14.6% of the draws, rank 9 a tenth of it.
        assert!((2_400..3_500).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > 5 * counts[9], "{} vs {}", counts[0], counts[9]);
    }

    #[test]
    fn relabeling_moves_statistics_with_their_relations() {
        let q = Query {
            cards: vec![10.0, 20.0, 30.0],
            preds: vec![(0, 1, 0.5), (1, 2, 0.25)],
            model: ModelId::Kappa0,
            big: false,
            deadline_ms: None,
        };
        let r = q.relabeled(&[2, 0, 1]);
        assert_eq!(r.cards, vec![20.0, 30.0, 10.0]);
        assert_eq!(r.preds, vec![(2, 0, 0.5), (0, 1, 0.25)]);
    }

    #[test]
    fn server_args_are_separate_words() {
        assert_eq!(
            Workload::BigLadder.server_args(),
            [
                "--workers",
                "2",
                "--threads",
                "2",
                "--max-rels",
                "20",
                "--cache",
                "1024",
                "--ladder",
                "--budget-ms",
                "10000"
            ]
        );
    }
}
