//! One simulated production server: a workload pinned to a platform under a
//! knob configuration, exposing throughput (MIPS/QPS), latency, and QoS.
//!
//! µSKU measures servers for minutes to hours per knob setting; simulating
//! every instruction of every sample would be intractable and pointless —
//! the microarchitecture does not change between samples, only load and
//! noise do. [`SimServer`] therefore evaluates the architecture engine once
//! per (configuration, load level) and caches a small load→performance
//! curve; the cheap per-sample path interpolates it. Code pushes invalidate
//! the cache (the binary changed), reproducing the measurement-vs-evolution
//! tension of paper Sec. 4.

use crate::error::ClusterError;
use softsku_archsim::engine::{Engine, ServerConfig, WindowReport};
use softsku_workloads::loadgen::CodePush;
use softsku_workloads::request::mmc_wait_factor;
use softsku_workloads::WorkloadProfile;

/// Load grid the engine is evaluated on (fractions of the service's peak
/// utilization); samples interpolate between the grid points.
const LOAD_GRID: [f64; 3] = [0.5, 0.75, 1.0];

/// A simulated server.
///
/// Cloning is cheap relative to construction: the clone carries the
/// already-computed calibration (`insn_per_query`, `production_mips`) and
/// the warmed load-curve cache, so a replica does not re-run the engine for
/// any configuration the original has already evaluated. The A/B scheduler
/// relies on this to fork per-test environment replicas.
#[derive(Debug, Clone)]
pub struct SimServer {
    profile: WorkloadProfile,
    config: ServerConfig,
    seed: u64,
    window_insns: u64,
    /// Instructions of *server* work per query, derived so the production
    /// configuration at peak load serves the profile's peak QPS.
    insn_per_query: f64,
    /// MIPS of the production configuration at peak load (speedup baseline).
    production_mips: f64,
    /// Load curves of the configurations evaluated since the last code
    /// push, matched on the exact configuration.
    cache: Vec<(ServerConfig, LoadCurve)>,
    /// Cumulative multiplier from code pushes.
    push_cpi_scale: f64,
}

#[derive(Debug, Clone)]
struct LoadCurve {
    mips: [f64; 3],
    peak_report: WindowReport,
}

impl SimServer {
    /// Default simulation window per engine evaluation.
    pub const DEFAULT_WINDOW: u64 = 300_000;

    /// Creates a server for `profile` starting in configuration `config`.
    ///
    /// # Errors
    ///
    /// Propagates engine validation/evaluation errors.
    pub fn new(
        profile: WorkloadProfile,
        config: ServerConfig,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        Self::with_window(profile, config, seed, Self::DEFAULT_WINDOW)
    }

    /// Creates a server with an explicit engine window size (tests use
    /// smaller windows for speed; figures use the default).
    ///
    /// # Errors
    ///
    /// Propagates engine validation/evaluation errors.
    pub fn with_window(
        profile: WorkloadProfile,
        config: ServerConfig,
        seed: u64,
        window_insns: u64,
    ) -> Result<Self, ClusterError> {
        let mut server = SimServer {
            profile,
            config,
            seed,
            window_insns,
            insn_per_query: 0.0,
            production_mips: 0.0,
            cache: Vec::new(),
            push_cpi_scale: 1.0,
        };
        // Calibrate the on-server path length against the production
        // configuration at peak load (see DESIGN.md on Table 2 consistency).
        let prod = server.profile.production_config.clone();
        let prod_mips = server
            .engine(&prod)?
            .run_window(server.window_insns, server.profile.peak_utilization)?
            .mips_total;
        server.production_mips = prod_mips;
        server.insn_per_query = prod_mips * 1e6 / server.profile.request.peak_qps;
        Ok(server)
    }

    /// The workload profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Current configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Reconfigures the server. Settings that require a reboot are rejected
    /// for services that cannot tolerate one on live traffic.
    ///
    /// # Errors
    ///
    /// [`ClusterError::RebootNotTolerated`] when `needs_reboot` and the
    /// profile forbids it; engine validation errors otherwise.
    pub fn reconfigure(
        &mut self,
        config: ServerConfig,
        needs_reboot: bool,
    ) -> Result<(), ClusterError> {
        if needs_reboot && !self.profile.constraints.tolerates_reboot {
            return Err(ClusterError::RebootNotTolerated {
                service: self.profile.service.name().to_string(),
            });
        }
        config.validate()?;
        self.config = config;
        Ok(())
    }

    /// Mean MIPS at `load` (fraction of peak utilization, 0–1 scale of the
    /// *service's* peak operating point).
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn mips(&mut self, load: f64) -> Result<f64, ClusterError> {
        let curve = self.curve()?;
        Ok(interp(&curve.mips, load))
    }

    /// MIPS at the peak-load grid point: a cached curve's top point, or
    /// else one window at peak load, which caches no curve.
    ///
    /// Bit-identical to `mips(1.0)`: `interp` computes `m[1] + 1.0 · (m[2]
    /// − m[1])`, and by Sterbenz's lemma `m[2] − m[1]` is exact whenever
    /// `m[2]/2 ≤ m[1] ≤ 2·m[2]`, which the 0.75 and 1.0 load points satisfy
    /// (MIPS grows with load, at most in proportion), so the sum is `m[2]`.
    ///
    /// # Errors
    ///
    /// Engine errors when no curve of the configuration is cached.
    pub fn peak_mips(&self) -> Result<f64, ClusterError> {
        if let Some((_, curve)) = self.cache.iter().find(|(c, _)| *c == self.config) {
            return Ok(curve.mips[2]);
        }
        Ok(self
            .engine(&self.config)?
            .run_window(self.window_insns, self.profile.peak_utilization)?
            .mips_total)
    }

    /// Queries per second at `load`.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn qps(&mut self, load: f64) -> Result<f64, ClusterError> {
        Ok(self.mips(load)? * 1e6 / self.insn_per_query)
    }

    /// Average request latency at `load`, combining the Fig. 2 breakdown
    /// with an M/M/c queueing factor and the configuration's speed ratio.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn latency(&mut self, load: f64) -> Result<f64, ClusterError> {
        let mips = self.mips(load)?;
        let speed = (mips / self.production_mips).max(1e-3);
        let base = self.profile.request.avg_latency_s;
        let servers = (self.config.active_cores * self.config.platform.smt).max(1);
        let rho = (load * self.profile.peak_utilization).clamp(0.01, 0.999);
        let rho_peak = self.profile.peak_utilization.clamp(0.01, 0.999);
        let wait_now = mmc_wait_factor(rho, servers);
        let wait_peak = mmc_wait_factor(rho_peak, servers).max(1e-9);
        let queue_scale = (wait_now / wait_peak).min(50.0);
        match self.profile.request.breakdown {
            Some(b) => {
                let running = base * b.running / speed;
                let queueing = base * (b.queue + b.scheduler) * queue_scale / speed;
                let io = base * b.io;
                Ok(running + queueing + io)
            }
            None => {
                // Cache tiers: concurrent paths; scale the whole latency by
                // speed with a mild queueing term.
                Ok(base / speed * (1.0 + 0.5 * (queue_scale - 1.0).max(0.0)))
            }
        }
    }

    /// Whether the SLO holds at `load`.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn qos_ok(&mut self, load: f64) -> Result<bool, ClusterError> {
        Ok(self.latency(load)? <= self.profile.request.qos_latency_s())
    }

    /// Full engine report at the peak-load grid point for the current
    /// configuration (counters, TMAM, bandwidth).
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a configuration.
    pub fn peak_report(&mut self) -> Result<WindowReport, ClusterError> {
        Ok(self.curve()?.peak_report.clone())
    }

    /// Applies a code push: the binary changed, perturbing base CPI and
    /// invalidating every cached measurement.
    pub fn apply_code_push(&mut self, push: CodePush) {
        // Quantize to 0.5% steps: binaries differ discretely. Every cached
        // curve was measured on the old binary, so the cache empties.
        let raw = (self.push_cpi_scale * push.cpi_scale).clamp(0.8, 1.25);
        self.push_cpi_scale = (raw * 200.0).round() / 200.0;
        self.cache.clear();
    }

    /// The load curve of the current configuration, evaluated on first use.
    fn curve(&mut self) -> Result<&LoadCurve, ClusterError> {
        let hit = self.cache.iter().position(|(c, _)| *c == self.config);
        let i = if let Some(i) = hit {
            i
        } else {
            // The load-grid points are one `run_grid` call on this thread.
            // Points that share structure passes (all three, unless a
            // context switch lands inside the window) run them once, and
            // the others share one trace generation; a cold grid already
            // runs on two threads inside the engine, so threads per point
            // would only add start-up cost.
            let peak = self.profile.peak_utilization;
            let [low, mid, peak_report] = self
                .engine(&self.config)?
                .run_grid(self.window_insns, LOAD_GRID.map(|g| g * peak))?;
            let mips = [low.mips_total, mid.mips_total, peak_report.mips_total];
            let curve = LoadCurve { mips, peak_report };
            self.cache.push((self.config.clone(), curve));
            self.cache.len() - 1
        };
        Ok(&self.cache[i].1)
    }

    /// An engine for `config` on this server's workload, code pushes
    /// included.
    fn engine(&self, config: &ServerConfig) -> Result<Engine, ClusterError> {
        let mut stream = self.profile.stream.clone();
        stream.base_cpi_scale *= self.push_cpi_scale;
        Ok(Engine::new(config.clone(), stream, self.seed)?)
    }
}

/// Interpolates the load curve (grid in fractions of peak).
fn interp(mips: &[f64; 3], load: f64) -> f64 {
    let l = load.clamp(0.0, 1.2);
    if l <= LOAD_GRID[0] {
        // Below the grid: throughput is load-proportional.
        return mips[0] * l / LOAD_GRID[0];
    }
    for i in 0..LOAD_GRID.len() - 1 {
        if l <= LOAD_GRID[i + 1] {
            let t = (l - LOAD_GRID[i]) / (LOAD_GRID[i + 1] - LOAD_GRID[i]);
            return mips[i] + t * (mips[i + 1] - mips[i]);
        }
    }
    // Slight overload: extrapolate the last segment.
    let t = (l - LOAD_GRID[1]) / (LOAD_GRID[2] - LOAD_GRID[1]);
    mips[1] + t * (mips[2] - mips[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_archsim::platform::PlatformKind;
    use softsku_workloads::Microservice;

    const TEST_WINDOW: u64 = 60_000;

    fn web_server() -> SimServer {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let cfg = profile.production_config.clone();
        SimServer::with_window(profile, cfg, 7, TEST_WINDOW).unwrap()
    }

    #[test]
    fn production_peak_qps_matches_table2() {
        let mut s = web_server();
        let qps = s.qps(1.0).unwrap();
        let target = Microservice::Web.targets().table2.0;
        assert!(
            (qps - target).abs() / target < 0.02,
            "qps {qps} vs table2 {target}"
        );
    }

    #[test]
    fn mips_scales_with_load() {
        let mut s = web_server();
        let half = s.mips(0.5).unwrap();
        let full = s.mips(1.0).unwrap();
        assert!(half < full);
        assert!(half > 0.3 * full);
    }

    #[test]
    fn latency_rises_with_load_and_violates_qos_eventually() {
        let mut s = web_server();
        let l_low = s.latency(0.6).unwrap();
        let l_peak = s.latency(1.0).unwrap();
        let l_over = s.latency(1.15).unwrap();
        assert!(l_low < l_peak, "queueing must grow with load");
        assert!(l_peak < l_over);
        assert!(
            s.qos_ok(1.0).unwrap(),
            "peak operating point is QoS-feasible"
        );
    }

    #[test]
    fn faster_config_serves_lower_latency() {
        let mut s = web_server();
        let base = s.latency(1.0).unwrap();
        // Slow the cores down drastically.
        let mut slow_cfg = s.config().clone();
        slow_cfg.core_freq_ghz = 1.6;
        s.reconfigure(slow_cfg, false).unwrap();
        let slow = s.latency(1.0).unwrap();
        assert!(slow > base * 1.02, "slow {slow} vs base {base}");
    }

    #[test]
    fn reboot_gating() {
        let profile = Microservice::Cache2
            .profile(PlatformKind::Skylake18)
            .unwrap();
        let cfg = profile.production_config.clone();
        let mut s = SimServer::with_window(profile, cfg.clone(), 3, TEST_WINDOW).unwrap();
        let mut fewer_cores = cfg.clone();
        fewer_cores.active_cores = 8;
        assert!(matches!(
            s.reconfigure(fewer_cores.clone(), true),
            Err(ClusterError::RebootNotTolerated { .. })
        ));
        // Non-reboot change is fine.
        let mut freq = cfg;
        freq.core_freq_ghz = 1.8;
        s.reconfigure(freq, false).unwrap();
    }

    #[test]
    fn code_push_invalidates_and_perturbs() {
        let mut s = web_server();
        let before = s.mips(1.0).unwrap();
        s.apply_code_push(CodePush {
            cpi_scale: 1.05,
            miss_scale: 1.0,
        });
        let after = s.mips(1.0).unwrap();
        assert!(after < before, "5% CPI regression must reduce MIPS");
    }

    #[test]
    fn peak_mips_has_the_bits_of_mips_at_full_load() {
        // Every service on every platform it runs on: the production
        // configuration, a reconfigured one (slowest cores, prefetchers
        // off) and production after a code push. Each is read uncached,
        // then through `mips(1.0)`'s curve, then from that cached curve.
        let check = |s: &mut SimServer, what: &str| {
            let peak = s.peak_mips().unwrap();
            assert_eq!(peak.to_bits(), s.mips(1.0).unwrap().to_bits(), "{what}");
            assert_eq!(peak.to_bits(), s.peak_mips().unwrap().to_bits(), "{what}");
        };
        for service in Microservice::ALL {
            for &platform in service.supported_platforms() {
                let profile = service.profile(platform).unwrap();
                let prod = profile.production_config.clone();
                let mut s = SimServer::with_window(profile, prod.clone(), 13, 10_000).unwrap();
                let what = format!("{} on {platform:?}", service.name());
                check(&mut s, &format!("{what}, production"));
                let mut other = prod.clone();
                other.core_freq_ghz = other.platform.core_freq_range_ghz.0;
                other.prefetchers = softsku_archsim::prefetch::PrefetcherConfig::all_off();
                assert_ne!(other, prod);
                s.reconfigure(other, false).unwrap();
                check(&mut s, &format!("{what}, reconfigured"));
                s.reconfigure(prod.clone(), false).unwrap();
                s.apply_code_push(CodePush {
                    cpi_scale: 1.05,
                    miss_scale: 1.0,
                });
                check(&mut s, &format!("{what}, after a code push"));
            }
        }
    }

    #[test]
    fn curve_is_cached() {
        let mut s = web_server();
        let _ = s.mips(1.0).unwrap();
        let first = s.mips(0.8).unwrap();
        for _ in 0..1000 {
            assert_eq!(s.mips(0.8).unwrap().to_bits(), first.to_bits());
        }
        // One configuration, one evaluated load curve: every repeat query
        // was served from the cache rather than re-running the engine.
        assert_eq!(s.cache.len(), 1);
    }

    #[test]
    fn reconfiguring_machine_memory_reevaluates_the_curve() {
        // Over-reserved SHPs: the excess pressures memory in proportion to
        // the machine's DRAM, so the same knobs on a smaller machine run
        // slower.
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let mut big = profile.production_config.clone();
        big.shp_pages = 4_000;
        let mut small = big.clone();
        small.machine_memory_bytes = 16 << 30;
        let mut s = SimServer::with_window(profile.clone(), big, 7, TEST_WINDOW).unwrap();
        let before = s.mips(1.0).unwrap();
        s.reconfigure(small.clone(), false).unwrap();
        let after = s.mips(1.0).unwrap();
        let fresh = SimServer::with_window(profile, small, 7, TEST_WINDOW)
            .unwrap()
            .mips(1.0)
            .unwrap();
        assert_eq!(after.to_bits(), fresh.to_bits());
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn reconfiguring_platform_latency_reevaluates_the_curve() {
        // Same platform kind, different memory latency: the curve must be
        // the new configuration's, not the production one's.
        let mut s = web_server();
        let before = s.mips(1.0).unwrap();
        let mut slow_memory = s.profile().production_config.clone();
        slow_memory.platform.mem_unloaded_latency_ns *= 2.0;
        s.reconfigure(slow_memory, false).unwrap();
        let after = s.mips(1.0).unwrap();
        assert_ne!(after.to_bits(), before.to_bits());
    }

    #[test]
    fn cache_tier_latency_model_works() {
        let profile = Microservice::Cache1
            .profile(PlatformKind::Skylake20)
            .unwrap();
        let cfg = profile.production_config.clone();
        let mut s = SimServer::with_window(profile, cfg, 5, TEST_WINDOW).unwrap();
        let lat = s.latency(1.0).unwrap();
        assert!(lat < 1e-3, "cache latency stays microsecond-scale: {lat}");
        // Starving the LLC must blow QoS (the paper's Fig. 10 exclusion).
        let mut starved = s.config().clone();
        starved.llc_ways_enabled = 2;
        s.reconfigure(starved, false).unwrap();
        assert!(!s.qos_ok(1.0).unwrap(), "2-way LLC must violate Cache QoS");
    }
}
