//! Raw performance-counter state produced by a simulation window.
//!
//! These are the "hardware events" a window counts: everything downstream
//! (MPKI, IPC, TMAM, bandwidth) is derived from this struct exactly the way
//! the paper derives its metrics from EMON counters.

/// Event counts accumulated over one simulation window.
///
/// All counts are per simulated hardware thread unless noted. Passive data:
/// fields are public by design (this is the C-style "compound data" case).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counters {
    /// Retired instructions.
    pub instructions: u64,
    /// Core cycles consumed (set by the CPI model).
    pub cycles: f64,

    /// Instruction fetch lookups (one per instruction in this model).
    pub code_accesses: u64,
    /// L1-I misses.
    pub l1i_misses: u64,
    /// Code misses at L2 (went to LLC).
    pub l2_code_misses: u64,
    /// Code misses at LLC (went to memory).
    pub llc_code_misses: u64,

    /// Data accesses (loads + stores).
    pub data_accesses: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// Data misses at L2.
    pub l2_data_misses: u64,
    /// Data misses at LLC.
    pub llc_data_misses: u64,

    /// ITLB first-level misses.
    pub itlb_misses: u64,
    /// ITLB misses that also missed the STLB (page walks).
    pub itlb_walks: u64,
    /// DTLB first-level misses.
    pub dtlb_misses: u64,
    /// DTLB misses attributable to loads.
    pub dtlb_load_misses: u64,
    /// DTLB misses attributable to stores.
    pub dtlb_store_misses: u64,
    /// DTLB misses that also missed the STLB (page walks).
    pub dtlb_walks: u64,

    /// Branch instructions retired.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,
    /// BTB misses (subset of mispredicts).
    pub btb_misses: u64,

    /// Floating-point instructions retired.
    pub fp_ops: u64,

    /// Context switches charged to the window.
    pub context_switches: f64,

    /// Demand lines fetched from memory (code + data after prefetch
    /// coverage).
    pub mem_demand_lines: f64,
    /// Prefetch lines fetched from memory (useful + wasted).
    pub mem_prefetch_lines: f64,
    /// Writeback lines to memory.
    pub mem_writeback_lines: f64,
    /// Non-core memory traffic (NIC/storage DMA, kernel I/O, walk refills).
    pub mem_extra_lines: f64,
}

impl Counters {
    /// Misses per kilo-instruction for an event count.
    pub fn mpki(&self, count: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// L1-I code MPKI.
    pub fn l1i_code_mpki(&self) -> f64 {
        self.mpki(self.l1i_misses)
    }

    /// L1-D data MPKI.
    pub fn l1d_data_mpki(&self) -> f64 {
        self.mpki(self.l1d_misses)
    }

    /// L2 code MPKI.
    pub fn l2_code_mpki(&self) -> f64 {
        self.mpki(self.l2_code_misses)
    }

    /// L2 data MPKI.
    pub fn l2_data_mpki(&self) -> f64 {
        self.mpki(self.l2_data_misses)
    }

    /// LLC code MPKI.
    pub fn llc_code_mpki(&self) -> f64 {
        self.mpki(self.llc_code_misses)
    }

    /// LLC data MPKI.
    pub fn llc_data_mpki(&self) -> f64 {
        self.mpki(self.llc_data_misses)
    }

    /// ITLB MPKI (first-level misses).
    pub fn itlb_mpki(&self) -> f64 {
        self.mpki(self.itlb_misses)
    }

    /// DTLB load MPKI.
    pub fn dtlb_load_mpki(&self) -> f64 {
        self.mpki(self.dtlb_load_misses)
    }

    /// DTLB store MPKI.
    pub fn dtlb_store_mpki(&self) -> f64 {
        self.mpki(self.dtlb_store_misses)
    }

    /// Branch misprediction rate (per branch).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }

    /// Total memory-interface lines (demand + prefetch + writeback + DMA).
    pub fn mem_total_lines(&self) -> f64 {
        self.mem_demand_lines
            + self.mem_prefetch_lines
            + self.mem_writeback_lines
            + self.mem_extra_lines
    }

    /// Merges another window's counts into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.code_accesses += other.code_accesses;
        self.l1i_misses += other.l1i_misses;
        self.l2_code_misses += other.l2_code_misses;
        self.llc_code_misses += other.llc_code_misses;
        self.data_accesses += other.data_accesses;
        self.loads += other.loads;
        self.stores += other.stores;
        self.l1d_misses += other.l1d_misses;
        self.l2_data_misses += other.l2_data_misses;
        self.llc_data_misses += other.llc_data_misses;
        self.itlb_misses += other.itlb_misses;
        self.itlb_walks += other.itlb_walks;
        self.dtlb_misses += other.dtlb_misses;
        self.dtlb_load_misses += other.dtlb_load_misses;
        self.dtlb_store_misses += other.dtlb_store_misses;
        self.dtlb_walks += other.dtlb_walks;
        self.branches += other.branches;
        self.branch_mispredicts += other.branch_mispredicts;
        self.btb_misses += other.btb_misses;
        self.fp_ops += other.fp_ops;
        self.context_switches += other.context_switches;
        self.mem_demand_lines += other.mem_demand_lines;
        self.mem_prefetch_lines += other.mem_prefetch_lines;
        self.mem_writeback_lines += other.mem_writeback_lines;
        self.mem_extra_lines += other.mem_extra_lines;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counters {
        Counters {
            instructions: 10_000,
            cycles: 20_000.0,
            l1i_misses: 500,
            l2_code_misses: 100,
            llc_code_misses: 17,
            l1d_misses: 300,
            llc_data_misses: 50,
            branches: 2_000,
            branch_mispredicts: 100,
            ..Counters::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let c = sample();
        assert!((c.ipc() - 0.5).abs() < 1e-12);
        assert!((c.l1i_code_mpki() - 50.0).abs() < 1e-12);
        assert!((c.llc_code_mpki() - 1.7).abs() < 1e-12);
        assert!((c.mispredict_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_instruction_window_is_safe() {
        let c = Counters::default();
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.mpki(100), 0.0);
        assert_eq!(c.mispredict_rate(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.instructions, 20_000);
        assert_eq!(a.l1i_misses, 1_000);
        assert!(
            (a.ipc() - 0.5).abs() < 1e-12,
            "ratios preserved under merge"
        );
    }
}
