//! The PCIe DMA transfer-time model (Figure 3).
//!
//! The effective bandwidth between host and device memory "is a property
//! of the DMA controller and the PCI bus" (§4.1.1): each transfer pays a
//! setup latency plus `bytes / bandwidth`. Pageable host buffers
//! additionally pay a staging copy through driver-owned DMA-able memory,
//! which both raises the setup cost and lowers the asymptotic bandwidth —
//! reproducing Figure 3's highlights: (i) small transfers are expensive,
//! (ii) pinned saturates around 256 KB while pageable ramps later,
//! (iii) the pageable/pinned gap narrows for large buffers.

use serde::{Deserialize, Serialize};
use shredder_des::Dur;

use crate::calibration;
use crate::hostmem::HostMemKind;

/// Transfer direction over PCIe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Host memory → device global memory.
    HostToDevice,
    /// Device global memory → host memory.
    DeviceToHost,
}

/// The DMA timing model.
///
/// # Examples
///
/// ```
/// use shredder_gpu::dma::Direction;
/// use shredder_gpu::{DmaModel, HostMemKind};
///
/// let dma = DmaModel::new();
/// let small = dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pinned, 4 << 10);
/// let large = dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pinned, 64 << 20);
/// assert!(large > 10.0 * small); // Figure 3: small buffers are slow
/// ```
#[derive(Debug, Clone, Default)]
pub struct DmaModel {
    _private: (),
}

impl DmaModel {
    /// Creates the calibrated model.
    pub fn new() -> Self {
        DmaModel::default()
    }

    /// Sustained PCIe bandwidth for a direction (Table 1).
    pub fn link_bandwidth(&self, dir: Direction) -> f64 {
        match dir {
            Direction::HostToDevice => calibration::PCIE_H2D_BW,
            Direction::DeviceToHost => calibration::PCIE_D2H_BW,
        }
    }

    /// Time for one DMA transfer of `bytes`.
    pub fn transfer_time(&self, dir: Direction, kind: HostMemKind, bytes: u64) -> Dur {
        let link = Dur::from_bytes_at(bytes.max(1), self.link_bandwidth(dir));
        match kind {
            HostMemKind::Pinned => Dur::from_nanos(calibration::DMA_SETUP_PINNED_NS) + link,
            HostMemKind::Resident => Dur::ZERO,
            HostMemKind::Pageable => {
                // Staging memcpy through driver bounce buffers serializes
                // with the wire transfer.
                let staging = Dur::from_bytes_at(bytes.max(1), calibration::PAGEABLE_STAGING_BW);
                Dur::from_nanos(calibration::DMA_SETUP_PAGEABLE_NS) + link + staging
            }
        }
    }

    /// Effective throughput (bytes/s) of one transfer of `bytes`, i.e.
    /// `bytes / transfer_time` — the y-axis of Figure 3.
    pub fn effective_bandwidth(&self, dir: Direction, kind: HostMemKind, bytes: u64) -> f64 {
        bytes as f64 / self.transfer_time(dir, kind, bytes).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_beats_pageable_at_every_size() {
        let dma = DmaModel::new();
        for shift in 12..27 {
            let bytes = 1u64 << shift;
            let pinned =
                dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pinned, bytes);
            let pageable =
                dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pageable, bytes);
            assert!(pinned > pageable, "at {bytes} bytes");
        }
    }

    #[test]
    fn gap_narrows_for_large_buffers() {
        // Figure 3 highlight (iii): beyond ~32 MB the difference is
        // within the same decade.
        let dma = DmaModel::new();
        let at = |bytes: u64| {
            dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pinned, bytes)
                / dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pageable, bytes)
        };
        let small_ratio = at(4 << 10);
        let large_ratio = at(64 << 20);
        assert!(small_ratio > 2.0, "small ratio {small_ratio}");
        assert!(large_ratio < 2.0, "large ratio {large_ratio}");
    }

    #[test]
    fn pinned_saturates_earlier_than_pageable() {
        // Highlight (ii): pinned reaches 80% of asymptote by 256 KB;
        // pageable does not.
        let dma = DmaModel::new();
        let asym_pinned =
            dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pinned, 1 << 30);
        let pinned_256k =
            dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pinned, 256 << 10);
        assert!(
            pinned_256k > 0.8 * asym_pinned,
            "pinned at 256KB not saturated"
        );

        let asym_pageable =
            dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pageable, 1 << 30);
        let pageable_256k =
            dma.effective_bandwidth(Direction::HostToDevice, HostMemKind::Pageable, 256 << 10);
        assert!(
            pageable_256k < 0.8 * asym_pageable,
            "pageable saturated too early"
        );
    }

    #[test]
    fn table1_bandwidths() {
        let dma = DmaModel::new();
        assert!((dma.link_bandwidth(Direction::HostToDevice) - 5.406e9).abs() < 1.0);
        assert!((dma.link_bandwidth(Direction::DeviceToHost) - 5.129e9).abs() < 1.0);
    }

    #[test]
    fn h2d_64mb_pinned_near_12ms() {
        // 64 MB / 5.406 GB/s ≈ 12.4 ms — the per-buffer transfer of
        // Figure 5.
        let dma = DmaModel::new();
        let t = dma
            .transfer_time(Direction::HostToDevice, HostMemKind::Pinned, 64 << 20)
            .as_millis_f64();
        assert!(t > 11.0 && t < 14.0, "{t}ms");
    }

    #[test]
    fn zero_byte_transfer_costs_setup() {
        let dma = DmaModel::new();
        let t = dma.transfer_time(Direction::HostToDevice, HostMemKind::Pinned, 0);
        assert!(t >= Dur::from_nanos(calibration::DMA_SETUP_PINNED_NS));
    }
}
