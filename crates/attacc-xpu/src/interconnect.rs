//! Device-to-device interconnect models (NVLink, PCIe, inter-node).

/// A bidirectional interconnect with aggregate bandwidth and per-message
/// latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    /// Name for reports.
    pub name: String,
    /// Aggregate bandwidth in bytes/s.
    pub bw_bytes_per_s: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
}

impl Interconnect {
    /// Intra-node NVLink/NVSwitch fabric of a DGX (aggregate ~4.8 TB/s).
    #[must_use]
    pub fn nvlink() -> Interconnect {
        Interconnect {
            name: "NVLink".into(),
            bw_bytes_per_s: 4.8e12,
            latency_s: 2e-6,
        }
    }

    /// PCIe Gen5 ×16 link (~64 GB/s), the xPU↔AttAcc attach point.
    #[must_use]
    pub fn pcie_gen5() -> Interconnect {
        Interconnect {
            name: "PCIe Gen5 x16".into(),
            bw_bytes_per_s: 64e9,
            latency_s: 1e-6,
        }
    }

    /// A high-bandwidth xPU↔AttAcc bridge (NVLink-class, the paper assumes
    /// "commercial high-bandwidth interconnects").
    #[must_use]
    pub fn accelerator_bridge() -> Interconnect {
        Interconnect {
            name: "xPU-AttAcc bridge".into(),
            bw_bytes_per_s: 1.2e12,
            latency_s: 2e-6,
        }
    }

    /// Inter-node fabric between two DGX boxes (InfiniBand-class,
    /// ~400 GB/s aggregate).
    #[must_use]
    pub fn inter_node() -> Interconnect {
        Interconnect {
            name: "inter-node".into(),
            bw_bytes_per_s: 400e9,
            latency_s: 5e-6,
        }
    }

    /// Time to move `bytes` point-to-point.
    #[must_use]
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bw_bytes_per_s
    }

    /// Ring all-reduce time of a `bytes`-sized buffer across `n` peers:
    /// `2·(n-1)/n` traversals of the buffer over the fabric.
    #[must_use]
    pub fn allreduce_s(&self, bytes: u64, n: u32) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let factor = 2.0 * f64::from(n - 1) / f64::from(n);
        self.latency_s * f64::from(n - 1) + factor * bytes as f64 / self.bw_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_includes_latency() {
        let link = Interconnect::pcie_gen5();
        assert!(link.transfer_s(0) >= link.latency_s);
        let t = link.transfer_s(64_000_000_000);
        assert!((t - 1.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn allreduce_single_peer_is_free() {
        assert_eq!(Interconnect::nvlink().allreduce_s(1 << 30, 1), 0.0);
    }

    #[test]
    fn allreduce_grows_with_peers() {
        let link = Interconnect::nvlink();
        let t2 = link.allreduce_s(1 << 30, 2);
        let t8 = link.allreduce_s(1 << 30, 8);
        assert!(t8 > t2);
        // Asymptote: 2× buffer traversal.
        let t_inf = 2.0 * (1u64 << 30) as f64 / link.bw_bytes_per_s;
        assert!(t8 < t_inf * 1.2);
    }

    #[test]
    fn inter_node_is_slower_than_nvlink() {
        assert!(
            Interconnect::inter_node().bw_bytes_per_s < Interconnect::nvlink().bw_bytes_per_s
        );
    }
}
