//! The forward pass one tier at a time, in shareable *tier segments*.
//!
//! A tier's forward work — its FCFS queue, its service times, and the
//! child jobs it fires downstream — reads only its own calibration and
//! its ancestors' (the tiers that feed it, transitively), plus the
//! tier's calibration-free draws (service shapes, jitter, cache verdicts
//! and RTTs), which the table draws once per tier as columns by FCFS
//! position.
//! A [`Segment`] is that work's output: the served jobs' wait, service and
//! finish in job order, the spawned child jobs in creation order, and the
//! tier's job-order stats sums. Its *cone key* is the tier index plus the
//! [`TierCal`] bits of the tier and every ancestor, so two assignments
//! that agree on a cone agree on the segment, bit for bit:
//!
//! * Cache hits are drawn by FCFS position, so a tier serves the same
//!   number of jobs — and fires the same number of children — in every
//!   assignment, and each tier's child block sits at the same job-index
//!   offset.
//! * Hence job indices are assignment-invariant, and so are everything
//!   keyed on them: the `(arrival bits, request, job)` FCFS tie-break, the
//!   parent links, the sibling order the critical-child rule scans, and
//!   the job-order stats sums.
//!
//! Job indices: the roots are jobs `0..requests` (tier 0's served jobs),
//! followed by each tier's child block in topological order. Tier `t`'s
//! child `p` rides out-edge `p % out-degree(t)`.
//!
//! A [`SegmentTable`] holds one claim-then-compute slot per cone key: the
//! first assignment to need a segment simulates it while later ones wait
//! on the slot, so each distinct segment is simulated exactly once for
//! any worker count. [`MeshSim::run`](crate::MeshSim::run) uses a fresh
//! table per run; the graph-p99 tuner shares one across its assignments,
//! and a canary campaign shares one across its tune, its baseline and a
//! clean canary, keeping only those two assignments' segments past the
//! tune.

use crate::graph::ServiceGraph;
use crate::sim::{MeshConfig, TierCal};
use crate::MeshError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_telemetry::stats::standard_normal;
use softsku_telemetry::streams::{IdentitySeed, StreamFamily, StreamRegistry};
use softsku_workloads::queuesim::{log_normal_params, FcfsServers};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Critical child of a job no child beat; job 0 is a root, never a child.
pub(crate) const NO_CHILD: u32 = 0;

/// Squared coefficient of variation of every tier's lognormal service
/// times.
const SERVICE_CV2: f64 = 2.0;

/// Per-tier wiring the passes index by tier.
#[derive(Debug, Clone)]
pub(crate) struct TierWiring {
    /// Out-edge indices, in declaration order.
    out: Vec<usize>,
    /// Callers in job order (topological): the caller tier and the
    /// position of its edge to this tier among its out-edges.
    feeds: Vec<(usize, usize)>,
    /// The tier and its ancestors, ascending: every calibration it reads.
    cone: Vec<usize>,
}

/// Wires every tier of `graph`, and bounds its job table: each request
/// puts at most one job on each root-to-tier path, so `requests × paths`
/// jobs must be indexable by `u32`.
///
/// # Errors
///
/// [`MeshError::Config`] when the job table could outgrow `u32`.
pub(crate) fn wire(graph: &ServiceGraph, requests: usize) -> Result<Vec<TierWiring>, MeshError> {
    let n = graph.tiers().len();
    let topo = graph.topo_order();
    let mut rank = vec![0usize; n];
    for (i, &t) in topo.iter().enumerate() {
        rank[t] = i;
    }
    let mut wiring: Vec<TierWiring> = (0..n)
        .map(|t| TierWiring {
            out: graph.edges_from(t),
            feeds: Vec::new(),
            cone: vec![t],
        })
        .collect();
    let mut paths = vec![0u128; n];
    paths[0] = 1;
    for &t in topo {
        let mut feeds: Vec<(usize, usize)> = (0..n)
            .filter_map(|c| {
                let out = &wiring[c].out;
                let e = out.iter().position(|&e| graph.edges()[e].to == t)?;
                Some((c, e))
            })
            .collect();
        feeds.sort_by_key(|&(c, _)| rank[c]);
        let mut cone = vec![t];
        for &(c, _) in &feeds {
            cone.extend_from_slice(&wiring[c].cone);
            paths[t] = paths[t].saturating_add(paths[c]);
        }
        cone.sort_unstable();
        cone.dedup();
        wiring[t].feeds = feeds;
        wiring[t].cone = cone;
    }
    let total = paths.iter().fold(0u128, |acc, &p| acc.saturating_add(p));
    if total.saturating_mul(requests as u128) > u128::from(u32::MAX) {
        return Err(MeshError::Config(format!(
            "{requests} requests over {total} root-to-tier paths overflow the u32 job table"
        )));
    }
    Ok(wiring)
}

/// What the forward pass draws independently of every calibration: root
/// arrivals, regression fates, and every tier's [`TierDraws`].
#[derive(Debug)]
pub(crate) struct Roots {
    /// Root arrival times, in request order.
    pub(crate) arrival: Vec<f64>,
    slowed: Vec<bool>,
    /// Each tier's draws, by tier index.
    draws: Vec<TierDraws>,
}

/// One tier's calibration-free draws, as columns by FCFS position (the
/// k-th served job). Each stream's k-th draw always goes to the k-th
/// served job, and each edge's m-th draw to the m-th cache miss, so every
/// segment of the tier reads the same columns whatever its calibrations.
#[derive(Debug, Default)]
struct TierDraws {
    /// `sigma · z` of each log-normal service draw; its length is the
    /// number of jobs the tier serves.
    shape: Vec<f64>,
    /// Each cache verdict; empty when the tier has no cache.
    hit: Vec<bool>,
    /// `−ln e` of each interference draw; empty unless the tier is
    /// colocated, the only tiers whose retention can fall below 1.
    neg_ln_e: Vec<f64>,
    /// Per out-edge, half of each miss's drawn RTT.
    half_rtt: Vec<Vec<f64>>,
}

impl Roots {
    /// Draws the root arrivals (Poisson at `arrival_rate_hz`), the
    /// regression fates, and every tier's [`TierDraws`] in topological
    /// order: a tier serves one job per miss of each caller. A last
    /// arrival that overflows to infinity is a [`MeshError::Config`].
    pub(crate) fn draw(
        cfg: &MeshConfig,
        graph: &ServiceGraph,
        wiring: &[TierWiring],
    ) -> Result<Roots, MeshError> {
        let mut streams = StreamRegistry::new(cfg.seed);
        let mut arrival_rng = SmallRng::seed_from_u64(streams.derive(StreamFamily::MeshArrivals));
        let service_base = streams.derive(StreamFamily::MeshService);
        let cache_base = streams.derive(StreamFamily::MeshCacheHit);
        let rtt_base = streams.derive(StreamFamily::MeshRtt);
        let jitter_base = streams.derive(StreamFamily::MeshInterference);
        let regress_seed = streams.derive(StreamFamily::MeshRegression);

        // Injected tail-regression fates, one per request in arrival
        // order, from their own stream — drawing them (or not) never
        // moves any other stream's position, so a disabled injection is
        // bit-identical to a build without the feature.
        let slowed: Vec<bool> = if cfg.regress_frac > 0.0 && cfg.regress_scale > 1.0 {
            let mut rng = SmallRng::seed_from_u64(regress_seed);
            (0..cfg.requests)
                .map(|_| rng.gen_range(0.0..1.0) < cfg.regress_frac)
                .collect()
        } else {
            vec![false; cfg.requests]
        };

        let mut t = 0.0f64;
        let arrival: Vec<f64> = (0..cfg.requests)
            .map(|_| {
                let u: f64 = arrival_rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() / cfg.arrival_rate_hz;
                t
            })
            .collect();
        if !t.is_finite() {
            let msg = format!("arrival rate {} Hz overflows time", cfg.arrival_rate_hz);
            return Err(MeshError::Config(msg));
        }

        let tiers = graph.tiers();
        let colocated = |t: usize| {
            graph
                .colocation()
                .is_some_and(|c| c.pairs.iter().any(|&(a, b)| a == t || b == t))
        };
        // `sigma` does not depend on the mean, so the shape is drawn
        // before any calibration.
        let (_, sigma) = log_normal_params(1.0, SERVICE_CV2);
        let mut misses = vec![0usize; tiers.len()];
        let mut draws: Vec<TierDraws> = (0..tiers.len()).map(|_| TierDraws::default()).collect();
        for &t in graph.topo_order() {
            let tier = &tiers[t];
            let served = if t == 0 {
                cfg.requests
            } else {
                wiring[t].feeds.iter().map(|&(c, _)| misses[c]).sum()
            };
            let stream = |base: u64| {
                SmallRng::seed_from_u64(IdentitySeed::new(base).field(&tier.name).finish())
            };
            let mut rng = stream(service_base);
            let shape = (0..served)
                .map(|_| sigma * standard_normal(&mut rng))
                .collect();
            let hit: Vec<bool> = if tier.hit_rate > 0.0 {
                let mut rng = stream(cache_base);
                (0..served)
                    .map(|_| rng.gen_range(0.0..1.0) < tier.hit_rate)
                    .collect()
            } else {
                Vec::new()
            };
            let neg_ln_e = if colocated(t) {
                let mut rng = stream(jitter_base);
                (0..served)
                    .map(|_| {
                        let e: f64 = rng.gen_range(f64::EPSILON..1.0);
                        -e.ln()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            misses[t] = served - hit.iter().filter(|&&h| h).count();
            let half_rtt = wiring[t]
                .out
                .iter()
                .map(|&e| {
                    let edge = graph.edges()[e];
                    let mut rng = SmallRng::seed_from_u64(
                        IdentitySeed::new(rtt_base)
                            .field(&tiers[edge.from].name)
                            .field(&tiers[edge.to].name)
                            .finish(),
                    );
                    (0..misses[t])
                        .map(|_| {
                            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                            let rtt = -edge.rtt_s * u.ln();
                            rtt / 2.0
                        })
                        .collect()
                })
                .collect();
            draws[t] = TierDraws {
                shape,
                hit,
                neg_ln_e,
                half_rtt,
            };
        }
        Ok(Roots {
            arrival,
            slowed,
            draws,
        })
    }
}

/// Job-order sums of one tier: jobs, jobs finished by the horizon, wait
/// and service. The float sums start at `-0.0` like `Iterator::sum`, so
/// an empty tier reports `-0.0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TierSums {
    pub(crate) jobs: u64,
    pub(crate) done: u64,
    pub(crate) wait_s: f64,
    pub(crate) service_s: f64,
}

/// One tier's forward work under one cone of calibrations.
#[derive(Debug)]
pub(crate) struct Segment {
    /// Served jobs, in job order.
    wait: Vec<f64>,
    service: Vec<f64>,
    finish: Vec<f64>,
    /// Child jobs, in creation order.
    parent: Vec<u32>,
    req: Vec<u32>,
    arrival: Vec<f64>,
    rtt_back: Vec<f64>,
    sums: TierSums,
}

#[cfg(debug_assertions)]
impl Segment {
    /// Bitwise equality of every field. Destructured without `..`, so a
    /// new field fails to compile until it is compared.
    fn same_bits(&self, other: &Segment) -> bool {
        let Segment {
            wait,
            service,
            finish,
            parent,
            req,
            arrival,
            rtt_back,
            sums:
                TierSums {
                    jobs,
                    done,
                    wait_s,
                    service_s,
                },
        } = self;
        let bits = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        bits(wait, &other.wait)
            && bits(service, &other.service)
            && bits(finish, &other.finish)
            && parent == &other.parent
            && req == &other.req
            && bits(arrival, &other.arrival)
            && bits(rtt_back, &other.rtt_back)
            && (*jobs, *done) == (other.sums.jobs, other.sums.done)
            && bits(
                &[*wait_s, *service_s],
                &[other.sums.wait_s, other.sums.service_s],
            )
    }
}

/// The cone key of tier `t`: the tier index, then the [`TierCal`] bits
/// of every tier in its cone.
fn cone_key(t: usize, cone: &[usize], cals: &[TierCal]) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + 2 * cone.len());
    key.push(t as u64);
    for &a in cone {
        let TierCal {
            service_s,
            retention,
        } = cals[a];
        key.extend([service_s.to_bits(), retention.to_bits()]);
    }
    key
}

/// One segment slot: empty until the first assignment with its cone key
/// simulates it; concurrent assignments wait in `get_or_init`.
type SegmentSlot = Arc<OnceLock<Arc<Segment>>>;

/// Segments by cone key for one `(graph, config)`, plus the calibration-
/// free [`Roots`] every assignment shares.
#[derive(Debug)]
pub(crate) struct SegmentTable {
    config: MeshConfig,
    roots: Roots,
    slots: Mutex<HashMap<Vec<u64>, SegmentSlot>>,
    passes: AtomicUsize,
    /// In builds with debug assertions, the `(tier, assignment
    /// fingerprint)` input sets whose served segment is known to match a
    /// fresh simulation (see the audit in [`SegmentTable::segment`]).
    #[cfg(debug_assertions)]
    audited: Mutex<HashSet<(usize, u64)>>,
}

impl SegmentTable {
    /// An empty table over freshly drawn roots for `graph` wired as
    /// `wiring`.
    ///
    /// # Errors
    ///
    /// As [`Roots::draw`].
    pub(crate) fn new(
        cfg: &MeshConfig,
        graph: &ServiceGraph,
        wiring: &[TierWiring],
    ) -> Result<SegmentTable, MeshError> {
        Ok(SegmentTable {
            config: *cfg,
            roots: Roots::draw(cfg, graph, wiring)?,
            slots: Mutex::default(),
            passes: AtomicUsize::new(0),
            #[cfg(debug_assertions)]
            audited: Mutex::default(),
        })
    }

    /// The configuration the table's roots and segments were drawn for.
    pub(crate) fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// How many segments this table simulated.
    pub(crate) fn passes(&self) -> usize {
        self.passes.load(Ordering::Relaxed)
    }

    /// Drops every segment outside the cones of `assignments` (one
    /// calibration per tier each). Later runs of those assignments still
    /// hit; any other simulates afresh.
    pub(crate) fn keep_only(&self, wiring: &[TierWiring], assignments: &[&[TierCal]]) {
        let keep: HashSet<Vec<u64>> = assignments
            .iter()
            .flat_map(|cals| (0..wiring.len()).map(move |t| cone_key(t, &wiring[t].cone, cals)))
            .collect();
        if let Ok(mut map) = self.slots.lock() {
            map.retain(|key, _| keep.contains(key));
        }
        // A dropped slot may be simulated again from another input set,
        // so every input set is audited afresh.
        #[cfg(debug_assertions)]
        if let Ok(mut audited) = self.audited.lock() {
            audited.clear();
        }
    }

    /// Tier `t`'s segment under the calibrations `cals` (`cone` is its
    /// cone), simulated by `compute` on first use. The map's lock is held
    /// only to claim the slot.
    fn segment(
        &self,
        t: usize,
        cone: &[usize],
        cals: &[TierCal],
        compute: impl Fn() -> Segment,
    ) -> Arc<Segment> {
        let counted = || {
            self.passes.fetch_add(1, Ordering::Relaxed);
            Arc::new(compute())
        };
        let Ok(mut map) = self.slots.lock() else {
            return counted();
        };
        let slot = Arc::clone(map.entry(cone_key(t, cone, cals)).or_default());
        drop(map);
        let mut simulated = false;
        let seg = Arc::clone(slot.get_or_init(|| {
            simulated = true;
            counted()
        }));
        // The audit, in builds with debug assertions: a segment served
        // from the table is simulated again the first time it serves an
        // input set — the tier and the whole assignment — and must match
        // bit for bit. The callers' segments were audited before this
        // tier's (topological order), so the fresh simulation reads true
        // inputs. A cone key that omits a calibration the segment reads
        // thus fails at its first stale hit, whichever order threads take;
        // replays of an audited assignment cost nothing.
        #[cfg(debug_assertions)]
        {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            format!("{cals:?}").hash(&mut h);
            let inputs = (t, h.finish());
            // Only a failed audit poisons the set; the panic reported it.
            let unaudited = match self.audited.lock() {
                Ok(mut audited) => audited.insert(inputs),
                Err(_) => false,
            };
            if unaudited && !simulated {
                assert!(
                    seg.same_bits(&compute()),
                    "stale segment-table hit: tier {t}'s segment differs from simulation"
                );
            }
        }
        seg
    }

    /// One assignment's forward pass: every tier's segment, in
    /// topological order, taken from the table or simulated into it.
    pub(crate) fn forward<'a>(
        &'a self,
        graph: &'a ServiceGraph,
        wiring: &'a [TierWiring],
        cals: &[TierCal],
    ) -> Forward<'a> {
        let n = graph.tiers().len();
        let mut segs: Vec<Option<Arc<Segment>>> = vec![None; n];
        let mut offset = vec![0usize; n];
        let mut next = self.config.requests;
        for &t in graph.topo_order() {
            let seg = self.segment(t, &wiring[t].cone, cals, || {
                let step = Step {
                    graph,
                    wiring,
                    cfg: &self.config,
                    roots: &self.roots,
                };
                step.run(t, cals[t], &segs, &offset)
            });
            offset[t] = next;
            next += seg.parent.len();
            segs[t] = Some(seg);
        }
        Forward {
            roots: &self.roots,
            graph,
            wiring,
            segs: segs.into_iter().flatten().collect(),
            offset,
            jobs: next,
        }
    }
}

/// Everything one tier step reads besides its calibration and its
/// callers' segments.
struct Step<'a> {
    graph: &'a ServiceGraph,
    wiring: &'a [TierWiring],
    cfg: &'a MeshConfig,
    roots: &'a Roots,
}

impl Step<'_> {
    /// Simulates tier `t`: rebuilds its FCFS keys from its callers'
    /// segments, serves them through a `c`-server queue, and fires the
    /// out-edges of every job whose cache draw misses. The k-th served
    /// job reads position k of the tier's [`TierDraws`], and the m-th miss
    /// reads each out-edge's m-th half-RTT.
    fn run(
        &self,
        t: usize,
        cal: TierCal,
        segs: &[Option<Arc<Segment>>],
        offset: &[usize],
    ) -> Segment {
        let tier = &self.graph.tiers()[t];
        let roots = self.roots;

        // Served jobs in job order: arrival, request, job index.
        let (arrival, req, job): (Vec<f64>, Vec<u32>, Vec<u32>) = if t == 0 {
            let n = roots.arrival.len();
            (
                roots.arrival.clone(),
                (0..n as u32).collect(),
                (0..n as u32).collect(),
            )
        } else {
            let mut cols = (Vec::new(), Vec::new(), Vec::new());
            for &(c, e) in &self.wiring[t].feeds {
                let Some(caller) = &segs[c] else { continue };
                let degree = self.wiring[c].out.len();
                for p in (e..caller.parent.len()).step_by(degree) {
                    cols.0.push(caller.arrival[p]);
                    cols.1.push(caller.req[p]);
                    cols.2.push((offset[c] + p) as u32);
                }
            }
            cols
        };
        let n = arrival.len();
        let draws = &roots.draws[t];
        debug_assert_eq!(
            n,
            draws.shape.len(),
            "tier {t} serves one job per miss of each caller"
        );

        // FCFS: serve jobs in (arrival, request, job) order. Positions
        // are in job order, so they break ties exactly as job indices do;
        // all times are nonnegative finite, so bit order is numeric order.
        let mut order: Vec<(u64, u32, u32)> = (0..n)
            .map(|k| (arrival[k].to_bits(), req[k], k as u32))
            .collect();
        order.sort_unstable();

        let mut servers = FcfsServers::new(tier.concurrency);
        let (mu, _) = log_normal_params(cal.service_s, SERVICE_CV2);
        let children = draws.half_rtt.iter().map(Vec::len).sum();
        let mut seg = Segment {
            wait: vec![0.0; n],
            service: vec![0.0; n],
            finish: vec![0.0; n],
            parent: Vec::with_capacity(children),
            req: Vec::with_capacity(children),
            arrival: Vec::with_capacity(children),
            rtt_back: Vec::with_capacity(children),
            sums: TierSums {
                jobs: n as u64,
                done: 0,
                wait_s: -0.0,
                service_s: -0.0,
            },
        };
        let mut misses = 0;
        for (pos, &(_, r, k)) in order.iter().enumerate() {
            let k = k as usize;
            let mut service = (mu + draws.shape[pos]).exp();
            if cal.retention < 1.0 {
                // Interference jitter: neighbors on the shared socket
                // occasionally stall this tier, in proportion to the
                // throughput the pair measurement says it loses.
                service *= 1.0 + (1.0 - cal.retention) * draws.neg_ln_e[pos];
            }
            if roots.slowed[r as usize] {
                service *= self.cfg.regress_scale;
            }
            let start = servers.admit(arrival[k], service);
            let finish = start + service;
            seg.wait[k] = start - arrival[k];
            seg.service[k] = service;
            seg.finish[k] = finish;

            // Cache short-circuit: on a hit, downstream edges stay silent
            // for this request.
            if tier.hit_rate > 0.0 && draws.hit[pos] {
                continue;
            }
            for half_rtt in &draws.half_rtt {
                seg.parent.push(job[k]);
                seg.req.push(r);
                seg.arrival.push(finish + half_rtt[misses]);
                seg.rtt_back.push(half_rtt[misses]);
            }
            misses += 1;
        }
        for k in 0..n {
            seg.sums.done += u64::from(seg.finish[k] <= self.cfg.horizon_s);
            seg.sums.wait_s += seg.wait[k];
            seg.sums.service_s += seg.service[k];
        }
        seg
    }
}

/// One assignment's forward pass: a reference to every tier's segment and
/// the job-index offset of each tier's child block.
pub(crate) struct Forward<'a> {
    /// The roots the segments were simulated from.
    pub(crate) roots: &'a Roots,
    graph: &'a ServiceGraph,
    wiring: &'a [TierWiring],
    segs: Vec<Arc<Segment>>,
    offset: Vec<usize>,
    jobs: usize,
}

/// One job's creation facts.
pub(crate) struct JobFacts {
    pub(crate) tier: usize,
    pub(crate) req: usize,
    pub(crate) arrival: f64,
    pub(crate) rtt_back_s: f64,
}

impl Forward<'_> {
    /// Tier `t`'s job-order stats sums.
    pub(crate) fn sums(&self, t: usize) -> TierSums {
        self.segs[t].sums
    }

    /// Scatters a served-job field of every segment into job order.
    pub(crate) fn scatter(&self, field: fn(&Segment) -> &[f64]) -> Vec<f64> {
        let mut out = vec![0.0f64; self.jobs];
        for &t in self.graph.topo_order() {
            let values = field(&self.segs[t]);
            if t == 0 {
                out[..values.len()].copy_from_slice(values);
                continue;
            }
            let mut k = 0;
            for &(c, e) in &self.wiring[t].feeds {
                let degree = self.wiring[c].out.len();
                let block = self.offset[c]..self.offset[c] + self.segs[c].parent.len();
                for j in (block.start + e..block.end).step_by(degree) {
                    out[j] = values[k];
                    k += 1;
                }
            }
        }
        out
    }

    /// Every job's finish time, in job order.
    pub(crate) fn finish(&self) -> Vec<f64> {
        self.scatter(|s| &s.finish)
    }

    /// Every job's queue wait and service time, in job order.
    pub(crate) fn wait_and_service(&self) -> (Vec<f64>, Vec<f64>) {
        (self.scatter(|s| &s.wait), self.scatter(|s| &s.service))
    }

    /// The backward response pass over the child blocks, last job first.
    /// `finish` becomes the response vector in place.
    pub(crate) fn backward(&self, finish: Vec<f64>) -> (Vec<f64>, Vec<u32>) {
        let blocks = self.graph.topo_order().iter().rev().map(|&t| {
            let seg = &self.segs[t];
            (self.offset[t], &seg.parent[..], &seg.rtt_back[..])
        });
        backward_pass(finish, blocks)
    }

    /// Creation facts of job `j`: its tier, request, arrival and return
    /// leg (roots have no return leg).
    pub(crate) fn job(&self, j: usize) -> JobFacts {
        if j < self.roots.arrival.len() {
            return JobFacts {
                tier: 0,
                req: j,
                arrival: self.roots.arrival[j],
                rtt_back_s: 0.0,
            };
        }
        let c = self
            .graph
            .topo_order()
            .iter()
            .copied()
            .rfind(|&c| self.offset[c] <= j && !self.segs[c].parent.is_empty())
            .unwrap_or(0);
        self.child(c, j - self.offset[c])
    }

    fn child(&self, c: usize, p: usize) -> JobFacts {
        let seg = &self.segs[c];
        let out = &self.wiring[c].out;
        JobFacts {
            tier: self.graph.edges()[out[p % out.len()]].to,
            req: seg.req[p] as usize,
            arrival: seg.arrival[p],
            rtt_back_s: seg.rtt_back[p],
        }
    }

    /// Every job's parent and return leg, in job order.
    #[cfg(test)]
    pub(crate) fn links(&self) -> (Vec<Option<usize>>, Vec<f64>) {
        let mut parent = vec![None; self.jobs];
        let mut rtt_back = vec![0.0; self.jobs];
        for &c in self.graph.topo_order() {
            let seg = &self.segs[c];
            for p in 0..seg.parent.len() {
                parent[self.offset[c] + p] = Some(seg.parent[p] as usize);
                rtt_back[self.offset[c] + p] = seg.rtt_back[p];
            }
        }
        (parent, rtt_back)
    }

    /// Creation facts of every job, in job order.
    pub(crate) fn all_jobs(&self) -> impl Iterator<Item = JobFacts> + '_ {
        let roots = (0..self.roots.arrival.len()).map(|j| self.job(j));
        let children = self
            .graph
            .topo_order()
            .iter()
            .flat_map(move |&c| (0..self.segs[c].parent.len()).map(move |p| self.child(c, p)));
        roots.chain(children)
    }
}

/// The backward response pass: `response[j]` is `finish[j]` joined with
/// every child's response plus its return leg. `blocks` holds each child
/// block as `(offset, parent, rtt_back)` in descending offset order;
/// children always have higher indices than their parents (jobs are
/// created parent-first), so one reverse sweep suffices. `critical[j]` is
/// the *first* child, in creation order, to strictly beat the running
/// best from `finish[j]`; the sweep meets siblings last-first, so a tie
/// with an already-chosen sibling moves the pick earlier, and a tie with
/// the finish never picks.
pub(crate) fn backward_pass<'b>(
    finish: Vec<f64>,
    blocks: impl Iterator<Item = (usize, &'b [u32], &'b [f64])>,
) -> (Vec<f64>, Vec<u32>) {
    let mut response = finish;
    let mut critical = vec![NO_CHILD; response.len()];
    for (offset, parent, rtt_back) in blocks {
        for p in (0..parent.len()).rev() {
            let j = offset + p;
            let q = parent[p] as usize;
            let via = response[j] + rtt_back[p];
            if via > response[q] || (via == response[q] && critical[q] != NO_CHILD) {
                response[q] = via;
                critical[q] = j as u32;
            }
        }
    }
    (response, critical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{colocation_mix, social_network, Edge, Tier};
    use softsku_cluster::ColocationScenario;
    use softsku_workloads::Microservice;

    /// The wiring and a fresh table of `graph` at seed 21.
    fn fresh(graph: &ServiceGraph, requests: usize) -> (Vec<TierWiring>, SegmentTable) {
        let cfg = MeshConfig {
            requests,
            seed: 21,
            ..MeshConfig::default()
        };
        let wiring = wire(graph, requests).unwrap();
        let table = SegmentTable::new(&cfg, graph, &wiring).unwrap();
        (wiring, table)
    }

    fn cals(graph: &ServiceGraph, retention: f64) -> Vec<TierCal> {
        let cal = TierCal {
            service_s: 1e-3,
            retention,
        };
        vec![cal; graph.tiers().len()]
    }

    #[test]
    fn an_always_hitting_cache_starves_everything_below_it() {
        let graph = ServiceGraph::new(
            "shielded",
            vec![
                Tier::new("front", Microservice::Web, 2, 1e-3).with_hit_rate(1.0),
                Tier::new("back", Microservice::Cache1, 4, 0.3e-3),
                Tier::new("leaf", Microservice::Cache2, 4, 0.3e-3),
            ],
            vec![
                Edge {
                    from: 0,
                    to: 1,
                    rtt_s: 100e-6,
                },
                Edge {
                    from: 1,
                    to: 2,
                    rtt_s: 100e-6,
                },
            ],
        )
        .unwrap();
        let (wiring, table) = fresh(&graph, 200);
        let front = &table.roots.draws[0];
        assert_eq!(front.shape.len(), 200);
        assert!(front.hit.len() == 200 && front.hit.iter().all(|&h| h));
        assert_eq!(front.half_rtt.len(), 1, "one RTT column per out-edge");
        assert!(front.half_rtt[0].is_empty(), "no miss, so no RTT draw");
        for below in &table.roots.draws[1..] {
            assert!(below.shape.is_empty() && below.hit.is_empty());
            assert!(below.half_rtt.iter().all(Vec::is_empty));
        }
        let fwd = table.forward(&graph, &wiring, &cals(&graph, 1.0));
        for t in 1..3 {
            let sums = fwd.sums(t);
            assert_eq!((sums.jobs, sums.done), (0, 0));
            assert_eq!(sums.wait_s.to_bits(), (-0.0f64).to_bits());
            assert_eq!(sums.service_s.to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn columns_are_sized_by_the_callers_misses() {
        let graph = social_network().unwrap();
        let (wiring, table) = fresh(&graph, 300);
        let fwd = table.forward(&graph, &wiring, &cals(&graph, 1.0));
        let mut leaves = 0;
        for (t, tier) in graph.tiers().iter().enumerate() {
            let draws = &table.roots.draws[t];
            let served = draws.shape.len();
            assert_eq!(served as u64, fwd.sums(t).jobs, "{}", tier.name);
            assert_eq!(
                draws.hit.len(),
                if tier.hit_rate > 0.0 { served } else { 0 }
            );
            let misses = served - draws.hit.iter().filter(|&&h| h).count();
            assert_eq!(draws.half_rtt.len(), wiring[t].out.len(), "{}", tier.name);
            assert!(draws.half_rtt.iter().all(|col| col.len() == misses));
            leaves += usize::from(draws.half_rtt.is_empty());
        }
        assert!(leaves > 0, "a leaf tier has no edge columns");
    }

    #[test]
    fn only_colocated_tiers_draw_jitter() {
        // colocation_mix with only web and feed sharing a socket.
        let mix = colocation_mix().unwrap();
        let graph = ServiceGraph::new("half_mix", mix.tiers().to_vec(), mix.edges().to_vec())
            .unwrap()
            .with_colocation(ColocationScenario::demo(), vec![(0, 1)])
            .unwrap();
        let (wiring, table) = fresh(&graph, 300);
        for (t, draws) in table.roots.draws.iter().enumerate() {
            let expected = if t < 2 { draws.shape.len() } else { 0 };
            assert!(!draws.shape.is_empty());
            assert_eq!(draws.neg_ln_e.len(), expected, "tier {t}");
        }
        let plain = social_network().unwrap();
        let (_, plain_table) = fresh(&plain, 300);
        assert!(plain_table
            .roots
            .draws
            .iter()
            .all(|d| d.neg_ln_e.is_empty()));
        // Only colocated tiers can lose retention, and they read their
        // column when they do.
        let mut lossy = cals(&graph, 1.0);
        lossy[0].retention = 0.5;
        lossy[1].retention = 0.5;
        let fwd = table.forward(&graph, &wiring, &lossy);
        assert!(fwd.sums(0).service_s > 0.0);
    }
}
