//! Grounding ε: from hardware latencies to the cost-model parameter.
//!
//! The paper treats ε ∈ (0,1) — the cost of a TLB miss relative to an IO —
//! as abstract. This module derives it from first principles so experiments
//! can run at *defensible* ε values:
//!
//! ```text
//! ε = (page-walk latency) / (IO latency)
//!   = walk_touches × memory_latency / io_latency
//! ```
//!
//! A native 4-level radix walk touches 4 table pages, and a virtualized
//! guest-over-host (2D) walk up to (4+1)·(4+1) − 1 = 24, each costing
//! roughly a DRAM access unless caught by the paging-structure caches, and
//! IO latency spans 4 decades from Optane-class (~10 µs) to spinning disk
//! (~10 ms). The resulting ε ranges from ~10⁻⁵ (disk) to ~10⁻¹ (fast NVMe,
//! virtualized walk) — exactly the sensitivity band the `crossover` bench
//! sweeps.

use atp_types::CostModel;

/// Hardware latency assumptions (defaults are contemporary server-class).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Nanoseconds per memory touch during a page walk (DRAM + cache mix).
    pub walk_touch_ns: f64,
    /// Number of memory touches per walk (4 native radix; 24 virtualized;
    /// fewer with paging-structure caches or huge leaves).
    pub walk_touches: f64,
    /// IO latency in nanoseconds (device read of one 4 kB page).
    pub io_ns: f64,
}

impl LatencyModel {
    /// Native 4-level walk over DRAM (~80 ns/touch) against a fast NVMe
    /// device (~20 µs).
    pub fn nvme_native() -> Self {
        Self {
            walk_touch_ns: 80.0,
            walk_touches: 4.0,
            io_ns: 20_000.0,
        }
    }

    /// Virtualized (2D) walk against fast NVMe — the worst translation case
    /// the paper's Section 1 highlights.
    pub fn nvme_virtualized() -> Self {
        Self {
            walk_touch_ns: 80.0,
            walk_touches: 24.0,
            io_ns: 20_000.0,
        }
    }

    /// Native walk against a spinning disk (~10 ms): paging dominates.
    pub fn disk_native() -> Self {
        Self {
            walk_touch_ns: 80.0,
            walk_touches: 4.0,
            io_ns: 10_000_000.0,
        }
    }

    /// The derived ε.
    pub fn epsilon(&self) -> f64 {
        (self.walk_touch_ns * self.walk_touches) / self.io_ns
    }

    /// A [`CostModel`] at the derived ε (clamped into the model's open
    /// interval).
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.epsilon().clamp(1e-9, 1.0 - 1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvme_native_epsilon_is_percent_scale() {
        let e = LatencyModel::nvme_native().epsilon();
        assert!((0.01..0.03).contains(&e), "ε = {e}");
    }

    #[test]
    fn virtualization_multiplies_epsilon_sixfold() {
        let native = LatencyModel::nvme_native().epsilon();
        let virt = LatencyModel::nvme_virtualized().epsilon();
        assert!((virt / native - 6.0).abs() < 1e-9, "24/4 touches");
    }

    #[test]
    fn disk_epsilon_is_negligible() {
        let e = LatencyModel::disk_native().epsilon();
        assert!(e < 1e-4, "ε = {e}");
    }

    #[test]
    fn cost_model_is_valid() {
        for m in [
            LatencyModel::nvme_native(),
            LatencyModel::nvme_virtualized(),
            LatencyModel::disk_native(),
        ] {
            let cm = m.cost_model();
            assert!(cm.epsilon > 0.0 && cm.epsilon < 1.0);
        }
    }

    #[test]
    fn faster_storage_raises_epsilon() {
        // The paper's trend: "trends towards faster storage devices lower
        // the cost of paging, which further increases the relative overhead
        // of address translation."
        let mut fast = LatencyModel::nvme_native();
        fast.io_ns /= 10.0; // CXL-class
        assert!(fast.epsilon() > LatencyModel::nvme_native().epsilon());
    }
}
