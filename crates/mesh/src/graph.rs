//! Request-graph topology: RPC-connected microservice tiers.
//!
//! Production requests do not visit one service — they fan out across a
//! DAG of tiers (the paper's Fig. 1 services are exactly such a mesh:
//! `Web` calls the `Feed` aggregators, which lean on the `Cache` tiers in
//! front of storage). A [`ServiceGraph`] captures that topology: tiers are
//! instances of the calibrated microservices, edges are RPC calls with a
//! network round-trip budget, and cache tiers short-circuit their
//! downstream edges on a hit. The graph is pure data — the queueing and
//! latency semantics live in [`crate::sim`].
//!
//! Tiers carry [`FailureDomain`] tags so placement is part of the
//! scenario: tiers tagged into the same domain by
//! [`ServiceGraph::with_colocation`] share a socket, and their mutual
//! interference is measured by the *named* [`ColocationScenario`] rather
//! than ad-hoc constants (see `examples/colocation.rs`, which reads the
//! same source).

use crate::error::MeshError;
use softsku_cluster::{ColocationScenario, FailureDomain};
use softsku_workloads::Microservice;

/// One tier of the request graph: a calibrated microservice serving one
/// hop of the request path.
#[derive(Debug, Clone)]
pub struct Tier {
    /// Unique tier name (also the telemetry entity and the identity-seed
    /// field for the tier's random streams).
    pub name: String,
    /// Which calibrated microservice backs this tier.
    pub service: Microservice,
    /// Parallel worker slots serving this graph's request class (the `c`
    /// of the tier's FCFS multi-server queue).
    pub concurrency: u32,
    /// Mean service demand of one hop at this tier under the service's
    /// *production* SKU, seconds. A hop is one RPC of the graph's
    /// request class, not the service's whole production request; the
    /// simulator rescales this budget by the candidate SKU's engine
    /// speed ratio and the tier's colocation retention.
    pub base_service_s: f64,
    /// Probability a request is satisfied locally without calling the
    /// tier's downstream edges (cache short-circuit); `0.0` for tiers
    /// that always fan out.
    pub hit_rate: f64,
    /// Placement tag: which pool/rack the tier's replicas live in.
    pub domain: FailureDomain,
}

impl Tier {
    /// A tier with the given name, service, concurrency, and per-hop
    /// service budget, placed in its service's default platform pool and
    /// never short-circuiting.
    pub fn new(name: &str, service: Microservice, concurrency: u32, base_service_s: f64) -> Self {
        let pool = match service.default_platform() {
            softsku_workloads::PlatformKind::Broadwell16 => "bdw16",
            softsku_workloads::PlatformKind::Skylake18 => "skl18",
            softsku_workloads::PlatformKind::Skylake20 => "skl20",
        };
        Tier {
            name: name.to_string(),
            service,
            concurrency,
            base_service_s,
            hit_rate: 0.0,
            domain: FailureDomain::new(pool, "r0"),
        }
    }

    /// Sets the cache short-circuit hit rate.
    #[must_use]
    pub fn with_hit_rate(mut self, hit_rate: f64) -> Self {
        self.hit_rate = hit_rate;
        self
    }
}

/// One RPC edge: the tier at `from` calls the tier at `to` once per
/// non-short-circuited request, paying `rtt_s` of network round trip
/// (half on the way out, half on the reply).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Caller tier index.
    pub from: usize,
    /// Callee tier index.
    pub to: usize,
    /// Mean network round-trip time for the hop, seconds.
    pub rtt_s: f64,
}

/// A pair of tiers placed on one shared socket, plus the named scenario
/// whose engine-coupled evaluation provides their interference factors.
#[derive(Debug, Clone)]
pub struct Colocation {
    /// The measurement scenario (core split, engine window, seed).
    pub scenario: ColocationScenario,
    /// Tier-index pairs sharing a socket; each pair's services must be
    /// one of the scenario's measured pairs.
    pub pairs: Vec<(usize, usize)>,
}

/// A validated DAG of RPC-connected tiers. Requests enter at tier 0.
#[derive(Debug, Clone)]
pub struct ServiceGraph {
    name: String,
    tiers: Vec<Tier>,
    edges: Vec<Edge>,
    colocation: Option<Colocation>,
    topo: Vec<usize>,
}

impl ServiceGraph {
    /// Builds and validates a graph. Tier 0 is the root (request entry);
    /// it must have no incoming edges, the edge set must be acyclic, and
    /// every parameter must be in range.
    ///
    /// # Errors
    ///
    /// [`MeshError::Graph`] describing the first violation found.
    pub fn new(name: &str, tiers: Vec<Tier>, edges: Vec<Edge>) -> Result<Self, MeshError> {
        if tiers.is_empty() {
            return Err(MeshError::Graph("graph needs at least one tier".into()));
        }
        for (i, tier) in tiers.iter().enumerate() {
            if tier.name.is_empty() {
                return Err(MeshError::Graph(format!("tier {i} has an empty name")));
            }
            if tiers[..i].iter().any(|t| t.name == tier.name) {
                return Err(MeshError::Graph(format!(
                    "tier name {:?} appears twice",
                    tier.name
                )));
            }
            if tier.concurrency == 0 {
                return Err(MeshError::Graph(format!(
                    "tier {:?} has zero concurrency",
                    tier.name
                )));
            }
            if !(tier.base_service_s.is_finite() && tier.base_service_s > 0.0) {
                return Err(MeshError::Graph(format!(
                    "tier {:?} service budget {} must be a positive finite time",
                    tier.name, tier.base_service_s
                )));
            }
            if !(0.0..=1.0).contains(&tier.hit_rate) {
                return Err(MeshError::Graph(format!(
                    "tier {:?} hit rate {} outside [0, 1]",
                    tier.name, tier.hit_rate
                )));
            }
        }
        for (i, e) in edges.iter().enumerate() {
            if e.from >= tiers.len() || e.to >= tiers.len() {
                return Err(MeshError::Graph(format!(
                    "edge {i} references tier {} of {}",
                    e.from.max(e.to),
                    tiers.len()
                )));
            }
            if e.from == e.to {
                return Err(MeshError::Graph(format!("edge {i} is a self-loop")));
            }
            if e.to == 0 {
                return Err(MeshError::Graph(format!("edge {i} targets the root tier")));
            }
            if !(e.rtt_s.is_finite() && e.rtt_s >= 0.0) {
                return Err(MeshError::Graph(format!(
                    "edge {i} RTT {} is not a nonnegative finite time",
                    e.rtt_s
                )));
            }
            if edges[..i].iter().any(|p| p.from == e.from && p.to == e.to) {
                return Err(MeshError::Graph(format!(
                    "edge {i} duplicates {} -> {}",
                    e.from, e.to
                )));
            }
        }
        let topo = topo_order(tiers.len(), &edges)?;
        Ok(ServiceGraph {
            name: name.to_string(),
            tiers,
            edges,
            colocation: None,
            topo,
        })
    }

    /// Attaches a colocation placement: each `(a, b)` pair of tiers
    /// shares one socket, and their interference factors come from
    /// `scenario`'s engine-coupled measurement of the same service pair.
    ///
    /// # Errors
    ///
    /// [`MeshError::Graph`] when a pair index is out of range, a tier is
    /// placed on two sockets, or a pair's services are not one of the
    /// scenario's measured pairs.
    pub fn with_colocation(
        mut self,
        scenario: ColocationScenario,
        pairs: Vec<(usize, usize)>,
    ) -> Result<Self, MeshError> {
        let mut placed: Vec<usize> = Vec::new();
        for &(a, b) in &pairs {
            if a >= self.tiers.len() || b >= self.tiers.len() || a == b {
                return Err(MeshError::Graph(format!(
                    "colocation pair ({a}, {b}) is not two distinct tiers"
                )));
            }
            if placed.contains(&a) || placed.contains(&b) {
                return Err(MeshError::Graph(format!(
                    "colocation pair ({a}, {b}) reuses a tier already placed"
                )));
            }
            placed.push(a);
            placed.push(b);
            let (sa, sb) = (self.tiers[a].service, self.tiers[b].service);
            let measured = scenario
                .pairs
                .iter()
                .any(|&(x, y)| (x, y) == (sa, sb) || (x, y) == (sb, sa));
            if !measured {
                return Err(MeshError::Graph(format!(
                    "colocated services {}/{} are not a measured pair of the scenario",
                    sa.name(),
                    sb.name()
                )));
            }
        }
        // Colocated tiers share a socket: tag both into one failure
        // domain so the placement is visible to rollout tooling.
        for (socket, &(a, b)) in pairs.iter().enumerate() {
            let pool = self.tiers[a].domain.pool.clone();
            let rack = format!("shared{socket}");
            self.tiers[a].domain = FailureDomain::new(&pool, &rack);
            self.tiers[b].domain = FailureDomain::new(&pool, &rack);
        }
        self.colocation = Some(Colocation { scenario, pairs });
        Ok(self)
    }

    /// Graph name (the telemetry entity for graph-level series).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tiers, in declaration order (tier 0 is the root).
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// The RPC edges, in declaration order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The colocation placement, if any.
    pub fn colocation(&self) -> Option<&Colocation> {
        self.colocation.as_ref()
    }

    /// Tier indices in topological order (root first).
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }

    /// Indices of `edges` leaving `tier`, in declaration order.
    pub fn edges_from(&self, tier: usize) -> Vec<usize> {
        (0..self.edges.len())
            .filter(|&i| self.edges[i].from == tier)
            .collect()
    }
}

/// Kahn's algorithm with deterministic (lowest-index-first) tie-breaking;
/// also rejects graphs whose root has incoming edges or that contain a
/// cycle.
fn topo_order(n: usize, edges: &[Edge]) -> Result<Vec<usize>, MeshError> {
    let mut indegree = vec![0usize; n];
    for e in edges {
        indegree[e.to] += 1;
    }
    if indegree[0] != 0 {
        return Err(MeshError::Graph("root tier has incoming edges".into()));
    }
    let mut order = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while let Some(&next) = ready.first() {
        ready.remove(0);
        order.push(next);
        for e in edges {
            if e.from == next {
                indegree[e.to] -= 1;
                if indegree[e.to] == 0 {
                    // Keep `ready` sorted so the order is deterministic.
                    let pos = ready.partition_point(|&x| x < e.to);
                    ready.insert(pos, e.to);
                }
            }
        }
    }
    if order.len() != n {
        return Err(MeshError::Graph("graph contains a cycle".into()));
    }
    Ok(order)
}

/// The social-network-like preset: a `Web` front end fanning out to two
/// feed aggregators and an ads sidecar, with the aggregators sharing a
/// cache tier that short-circuits 85 % of lookups away from the backing
/// store.
///
/// # Errors
///
/// Never fails in practice; the preset is validated like any graph.
pub fn social_network() -> Result<ServiceGraph, MeshError> {
    let tiers = vec![
        Tier::new("web", Microservice::Web, 6, 2.0e-3),
        Tier::new("feed", Microservice::Feed1, 4, 3.0e-3),
        Tier::new("ranker", Microservice::Feed2, 4, 2.5e-3),
        Tier::new("ads", Microservice::Ads1, 3, 1.5e-3),
        Tier::new("cache", Microservice::Cache1, 8, 0.3e-3).with_hit_rate(0.85),
        Tier::new("store", Microservice::Ads2, 2, 4.0e-3),
    ];
    let edges = vec![
        Edge {
            from: 0,
            to: 1,
            rtt_s: 150e-6,
        },
        Edge {
            from: 0,
            to: 2,
            rtt_s: 150e-6,
        },
        Edge {
            from: 0,
            to: 3,
            rtt_s: 200e-6,
        },
        Edge {
            from: 1,
            to: 4,
            rtt_s: 80e-6,
        },
        Edge {
            from: 2,
            to: 4,
            rtt_s: 80e-6,
        },
        Edge {
            from: 4,
            to: 5,
            rtt_s: 250e-6,
        },
    ];
    ServiceGraph::new("social_network", tiers, edges)
}

/// The media-serving-like preset: a serial chain — front end, encoder,
/// metadata cache (70 % hit), origin store. Serial chains make the p99
/// additive in tier sojourns, the opposite regime from the fan-out
/// preset's max-of-children join.
///
/// # Errors
///
/// Never fails in practice; the preset is validated like any graph.
pub fn media() -> Result<ServiceGraph, MeshError> {
    let tiers = vec![
        Tier::new("edge", Microservice::Web, 6, 1.0e-3),
        Tier::new("encoder", Microservice::Feed2, 4, 3.5e-3),
        Tier::new("metacache", Microservice::Cache2, 8, 0.3e-3).with_hit_rate(0.7),
        Tier::new("origin", Microservice::Ads2, 2, 4.0e-3),
    ];
    let edges = vec![
        Edge {
            from: 0,
            to: 1,
            rtt_s: 120e-6,
        },
        Edge {
            from: 1,
            to: 2,
            rtt_s: 90e-6,
        },
        Edge {
            from: 2,
            to: 3,
            rtt_s: 300e-6,
        },
    ];
    ServiceGraph::new("media", tiers, edges)
}

/// The colocation-mix preset: the quartet of
/// [`ColocationScenario::demo`] arranged as a fan-out graph, with
/// `web`+`feed` sharing one socket and `ranker`+`ads` sharing another.
/// Both placements are measured pairs of the demo scenario, so the
/// interference factors come from the same named source the
/// `colocation` example prints.
///
/// # Errors
///
/// Never fails in practice; the preset is validated like any graph.
pub fn colocation_mix() -> Result<ServiceGraph, MeshError> {
    let tiers = vec![
        Tier::new("web", Microservice::Web, 6, 0.25e-3),
        Tier::new("feed", Microservice::Feed1, 8, 6.0e-3),
        Tier::new("ranker", Microservice::Feed2, 4, 2.5e-3),
        Tier::new("ads", Microservice::Ads1, 3, 1.5e-3),
    ];
    let edges = vec![
        Edge {
            from: 0,
            to: 1,
            rtt_s: 150e-6,
        },
        Edge {
            from: 0,
            to: 2,
            rtt_s: 150e-6,
        },
        Edge {
            from: 1,
            to: 3,
            rtt_s: 100e-6,
        },
        Edge {
            from: 2,
            to: 3,
            rtt_s: 100e-6,
        },
    ];
    ServiceGraph::new("colocation_mix", tiers, edges)?
        .with_colocation(ColocationScenario::demo(), vec![(0, 1), (2, 3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_topo_starts_at_root() {
        for graph in [
            social_network().unwrap(),
            media().unwrap(),
            colocation_mix().unwrap(),
        ] {
            assert_eq!(graph.topo_order()[0], 0, "{}", graph.name());
            assert!(graph.tiers().len() >= 4);
        }
    }

    #[test]
    fn cycles_and_bad_edges_are_rejected() {
        let tiers = || {
            vec![
                Tier::new("a", Microservice::Web, 1, 1e-3),
                Tier::new("b", Microservice::Feed1, 1, 1e-3),
            ]
        };
        let cycle = ServiceGraph::new(
            "bad",
            vec![
                Tier::new("a", Microservice::Web, 1, 1e-3),
                Tier::new("b", Microservice::Feed1, 1, 1e-3),
                Tier::new("c", Microservice::Feed2, 1, 1e-3),
            ],
            vec![
                Edge {
                    from: 1,
                    to: 2,
                    rtt_s: 0.0,
                },
                Edge {
                    from: 2,
                    to: 1,
                    rtt_s: 0.0,
                },
            ],
        );
        assert!(matches!(cycle, Err(MeshError::Graph(_))));
        let into_root = ServiceGraph::new(
            "bad",
            tiers(),
            vec![Edge {
                from: 1,
                to: 0,
                rtt_s: 0.0,
            }],
        );
        assert!(into_root.is_err());
        let dup = ServiceGraph::new(
            "bad",
            vec![
                Tier::new("a", Microservice::Web, 1, 1e-3),
                Tier::new("a", Microservice::Feed1, 1, 1e-3),
            ],
            vec![],
        );
        assert!(dup.is_err());
        let bad_hit = ServiceGraph::new(
            "bad",
            vec![Tier::new("a", Microservice::Web, 1, 1e-3).with_hit_rate(1.5)],
            vec![],
        );
        assert!(bad_hit.is_err());
        let bad_budget = ServiceGraph::new(
            "bad",
            vec![Tier::new("a", Microservice::Web, 1, 0.0)],
            vec![],
        );
        assert!(bad_budget.is_err());
    }

    #[test]
    fn colocation_requires_measured_pairs_and_tags_domains() {
        let graph = colocation_mix().unwrap();
        let coloc = graph.colocation().unwrap();
        assert_eq!(coloc.pairs, vec![(0, 1), (2, 3)]);
        let t = graph.tiers();
        assert_eq!(t[0].domain, t[1].domain, "web+feed share a socket");
        assert_eq!(t[2].domain, t[3].domain, "ranker+ads share a socket");
        assert_ne!(t[0].domain, t[2].domain);

        // Cache1/Ads2 is not a measured pair of the demo scenario.
        let bad = social_network()
            .unwrap()
            .with_colocation(ColocationScenario::demo(), vec![(4, 5)]);
        assert!(bad.is_err());
    }
}
