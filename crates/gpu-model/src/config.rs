//! GPU hardware configuration — Table III of the paper.

use sim_engine::{Bandwidth, Frequency};

/// GPU hardware parameters, defaulting to the NVIDIA GV100 configuration
/// of Table III.
///
/// # Examples
///
/// ```
/// use gpu_model::GpuConfig;
///
/// let cfg = GpuConfig::gv100();
/// assert_eq!(cfg.num_sms, 80);
/// assert_eq!(cfg.cache_block_bytes, 128);
/// assert_eq!(cfg.global_memory_bytes, 16 << 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Cache block (line) size in bytes.
    pub cache_block_bytes: u32,
    /// L1/L2 sector size in bytes (granularity of partial-line traffic).
    pub sector_bytes: u32,
    /// Global (HBM) memory capacity in bytes.
    pub global_memory_bytes: u64,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads per CTA.
    pub max_threads_per_cta: u32,
    /// Core clock.
    pub clock: Frequency,
    /// Local HBM bandwidth.
    pub hbm_bandwidth: Bandwidth,
    /// SM cycles charged per memory transaction issued to the network.
    pub store_issue_cycles: u32,
    /// SM cycles a warp stalls on an on-demand remote load (why the
    /// P2P-store paradigm keeps loads local, §IV-C).
    pub remote_load_cycles: u32,
}

impl GpuConfig {
    /// The GV100 configuration used in the paper's evaluation (Table III).
    pub fn gv100() -> Self {
        GpuConfig {
            cache_block_bytes: 128,
            sector_bytes: 32,
            global_memory_bytes: 16 << 30,
            num_sms: 80,
            cores_per_sm: 64,
            l2_bytes: 6 << 20,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_threads_per_cta: 1024,
            clock: Frequency::from_ghz(1.4),
            hbm_bandwidth: Bandwidth::from_gbps(900.0),
            store_issue_cycles: 1,
            remote_load_cycles: 1400, // ~1us round trip over the switch
        }
    }

    /// A scaled-down configuration for fast unit tests: 4 SMs, small
    /// memory, same cache geometry.
    pub fn tiny() -> Self {
        GpuConfig {
            num_sms: 4,
            global_memory_bytes: 64 << 20,
            l2_bytes: 1 << 20,
            ..GpuConfig::gv100()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (e.g. sector size does
    /// not divide the cache block size) or outside what the L1 coalescer
    /// handles: a cache block of 8-128 bytes (one `u128` byte mask per
    /// line) and at most 32 lanes (one `u32` active mask per warp).
    pub fn validate(&self) {
        assert!(self.cache_block_bytes.is_power_of_two());
        assert!(self.sector_bytes.is_power_of_two());
        assert_eq!(
            self.cache_block_bytes % self.sector_bytes,
            0,
            "sectors must tile the cache block"
        );
        assert!(
            (8..=128).contains(&self.cache_block_bytes),
            "cache block must be 8-128 bytes"
        );
        assert!(
            self.warp_size > 0 && self.warp_size <= 32,
            "warp size must be 1-32 lanes"
        );
        assert!(self.num_sms > 0);
        assert!(self.max_threads_per_cta <= self.max_threads_per_sm);
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::gv100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::SimTime;

    #[test]
    fn gv100_matches_table3() {
        let c = GpuConfig::gv100();
        c.validate();
        assert_eq!(c.cache_block_bytes, 128);
        assert_eq!(c.global_memory_bytes, 16 << 30);
        assert_eq!(c.num_sms, 80);
        assert_eq!(c.cores_per_sm, 64);
        assert_eq!(c.l2_bytes, 6 << 20);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.max_threads_per_sm, 2048);
        assert_eq!(c.max_threads_per_cta, 1024);
    }

    #[test]
    fn tiny_is_valid() {
        GpuConfig::tiny().validate();
    }

    #[test]
    fn clock_period() {
        let c = GpuConfig::gv100();
        // 1.4 GHz -> 714ps period (rounded).
        assert_eq!(c.clock.cycles_to_time(1), SimTime::from_ps(714));
    }

    #[test]
    #[should_panic(expected = "cache block must be 8-128 bytes")]
    fn oversized_cache_block_panics() {
        let mut c = GpuConfig::gv100();
        c.cache_block_bytes = 256;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "warp size must be 1-32 lanes")]
    fn warp_wider_than_the_active_mask_panics() {
        let mut c = GpuConfig::gv100();
        c.warp_size = 64;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sectors must tile")]
    fn bad_sector_panics() {
        let mut c = GpuConfig::gv100();
        c.sector_bytes = 256; // larger than the cache block: cannot tile it
        c.validate();
    }
}
