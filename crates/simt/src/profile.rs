//! Device profiles: converting counted events into estimated time.
//!
//! The simulator counts *events* (sectors, intrinsics, shared ops...); a
//! [`DeviceProfile`] prices them. Each kernel launch is modeled as
//! `overhead + max(memory_time, compute_time)` — memory and compute overlap
//! on a GPU, and one of them is the bottleneck.
//!
//! Two calibrated profiles ship with the crate, matching the paper's two
//! machines: [`K40C`] (Kepler, the primary evaluation device) and
//! [`GTX750TI`] (Maxwell, §6.3). Absolute times are a model, not a
//! measurement; the profiles are calibrated so that the *relative* behaviour
//! the paper reports (which method wins at which bucket count, how stages
//! scale with `m`) is reproduced. Kepler hides non-coalesced access latency
//! better than this Maxwell part (paper §6.3); we express that as a smaller
//! `waste_factor` multiplier on uncoalesced DRAM traffic.

use crate::stats::BlockStats;

/// Cost coefficients for one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    pub name: &'static str,
    /// Peak DRAM bandwidth (GB/s); used for the "speed of light" bound.
    pub peak_gbps: f64,
    /// Achieved DRAM bandwidth for coalesced streaming traffic (GB/s).
    pub dram_gbps: f64,
    /// Multiplier on *wasted* (fetched-but-unused) sector bytes. < 1 models
    /// latency hiding / L2 write merging of partial sectors; > 1 models a
    /// device that suffers more from scattered traffic.
    pub waste_factor: f64,
    /// Fixed cost per kernel launch (µs).
    pub launch_overhead_us: f64,
    /// Warp-wide intrinsics retired per second, device-wide (G ops/s).
    pub intrinsic_gops: f64,
    /// Shared-memory lane-operations per second (G ops/s).
    pub smem_gops: f64,
    /// Generic per-lane ALU operations per second (G ops/s).
    pub lane_gops: f64,
    /// Global atomic operations per second (G ops/s).
    pub atomic_gops: f64,
    /// Serialized divergent retry iterations per second (G iters/s).
    pub divergent_gops: f64,
    /// Load/store-unit replay passes per second (G replays/s): prices
    /// lane-order-divergent global requests.
    pub replay_gops: f64,
    /// Effective aggregate cost of one `__syncthreads()` in nanoseconds:
    /// barrier latency divided by the number of concurrently resident
    /// blocks. Warp-synchronous kernels (no barriers) dodge this cost —
    /// the paper's third lesson.
    pub barrier_ns: f64,
    /// Streaming multiprocessors on the device. A launch with fewer blocks
    /// than SMs leaves the rest idle; the stream runtime's makespan model
    /// uses `blocks / sm_count` as the launch's occupancy share, letting
    /// small concurrent grids overlap on one device.
    pub sm_count: usize,
    /// Resident threads per SM (the occupancy limit on block size).
    pub max_threads_per_sm: usize,
    /// Resident blocks per SM, whatever their size.
    pub max_blocks_per_sm: usize,
    /// Shared memory per SM, split among its resident blocks (bytes).
    pub smem_per_sm_bytes: usize,
}

/// NVIDIA Tesla K40c (Kepler GK110B): the paper's primary device.
/// 288 GB/s peak DRAM, 15 SMX, 745 MHz.
pub const K40C: DeviceProfile = DeviceProfile {
    name: "Tesla K40c (Kepler)",
    peak_gbps: 288.0,
    dram_gbps: 180.0,
    waste_factor: 0.75,
    launch_overhead_us: 9.0,
    intrinsic_gops: 45.0,
    smem_gops: 350.0,
    lane_gops: 700.0,
    atomic_gops: 2.2,
    divergent_gops: 1.2,
    replay_gops: 20.0,
    barrier_ns: 1.0,
    sm_count: 15,
    max_threads_per_sm: 2048,
    max_blocks_per_sm: 16,
    smem_per_sm_bytes: 48 * 1024,
};

/// NVIDIA GeForce GTX 750 Ti (Maxwell GM107): the §6.3 comparison device.
/// 86.4 GB/s peak DRAM, 5 SMM, ~1.02 GHz.
pub const GTX750TI: DeviceProfile = DeviceProfile {
    name: "GeForce GTX 750 Ti (Maxwell)",
    peak_gbps: 86.4,
    dram_gbps: 68.0,
    waste_factor: 1.25,
    launch_overhead_us: 10.0,
    intrinsic_gops: 20.0,
    smem_gops: 160.0,
    lane_gops: 300.0,
    atomic_gops: 1.6,
    divergent_gops: 0.8,
    replay_gops: 8.0,
    barrier_ns: 3.5,
    sm_count: 5,
    max_threads_per_sm: 2048,
    max_blocks_per_sm: 32,
    smem_per_sm_bytes: 64 * 1024,
};

impl DeviceProfile {
    /// Estimated seconds for one launch with the given summed block stats.
    pub fn estimate(&self, stats: &BlockStats) -> f64 {
        let useful = stats.useful_bytes as f64;
        let wasted = stats.wasted_bytes() as f64;
        // LSU replays serialize the memory pipeline, so they belong on the
        // memory side of the bottleneck max.
        let mem = (useful + wasted * self.waste_factor) / (self.dram_gbps * 1e9)
            + stats.replays as f64 / (self.replay_gops * 1e9);
        let compute = stats.intrinsics as f64 / (self.intrinsic_gops * 1e9)
            + stats.smem_ops as f64 / (self.smem_gops * 1e9)
            + stats.lane_ops as f64 / (self.lane_gops * 1e9)
            + (stats.atomic_ops + 8 * stats.atomic_conflicts) as f64 / (self.atomic_gops * 1e9)
            + stats.divergent_iters as f64 / (self.divergent_gops * 1e9);
        // Barriers serialize the block: their cost hides under neither
        // memory nor compute.
        let barriers = stats.barriers as f64 * self.barrier_ns * 1e-9;
        self.launch_overhead_us * 1e-6 + mem.max(compute) + barriers
    }

    /// The paper's §6.2.2 "speed of light": assume computation is free and
    /// all accesses perfectly coalesced. Multisplit moves 3 words per key
    /// (read for histogram, read + write for the permutation) for key-only,
    /// 5 per pair for key–value. Returns G keys/s.
    pub fn speed_of_light_gkeys(&self, key_value: bool) -> f64 {
        let accesses = if key_value { 5.0 } else { 3.0 };
        self.peak_gbps / (accesses * 4.0)
    }

    /// Blocks of `threads` threads and `smem_bytes` of shared memory that
    /// one SM holds at once: the least of its thread, block-slot and
    /// shared-memory limits. A grid of `sm_count` times this many blocks
    /// fills the device in one wave. At least 1 for any block a launch
    /// accepts (at most 1,024 threads and 48 kB).
    pub fn resident_blocks(&self, threads: usize, smem_bytes: usize) -> usize {
        let by_threads = self.max_threads_per_sm / threads.max(1);
        let by_smem = self
            .smem_per_sm_bytes
            .checked_div(smem_bytes)
            .unwrap_or(usize::MAX);
        by_threads.min(self.max_blocks_per_sm).min(by_smem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_of_light_matches_paper() {
        // Paper §6.2.2: 24 Gkeys/s key-only, 14.4 Gkeys/s key-value on K40c.
        assert!((K40C.speed_of_light_gkeys(false) - 24.0).abs() < 1e-9);
        assert!((K40C.speed_of_light_gkeys(true) - 14.4).abs() < 1e-9);
    }

    #[test]
    fn resident_blocks_take_the_tightest_limit() {
        // Thread-limited: 256-thread blocks with little shared memory.
        assert_eq!(K40C.resident_blocks(256, 1024), 8);
        assert_eq!(GTX750TI.resident_blocks(256, 1024), 8);
        assert_eq!(K40C.resident_blocks(1024, 0), 2);
        // Shared-limited: 8 kB + one 32-word window per block.
        assert_eq!(K40C.resident_blocks(256, 8 * 1024 + 128), 5);
        assert_eq!(GTX750TI.resident_blocks(256, 8 * 1024 + 128), 7);
        assert_eq!(K40C.resident_blocks(32, 48 * 1024), 1);
        assert_eq!(GTX750TI.resident_blocks(32, 48 * 1024), 1);
        // Block-limited: one-warp blocks hit the block slots first.
        assert_eq!(K40C.resident_blocks(32, 0), 16);
        assert_eq!(GTX750TI.resident_blocks(32, 0), 32);
        assert_eq!(GTX750TI.resident_blocks(64, 1024), 32);
        // Any block a launch accepts is resident at least once.
        for p in [K40C, GTX750TI] {
            for threads in [32, 256, 1024] {
                assert!(p.resident_blocks(threads, crate::SMEM_CAPACITY_BYTES) >= 1);
            }
        }
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let t = K40C.estimate(&BlockStats::default());
        assert!((t - 9e-6).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_launch_scales_with_bytes() {
        let s = BlockStats {
            sectors: 1_000_000,
            useful_bytes: 32_000_000,
            ..Default::default()
        };
        let t = K40C.estimate(&s);
        let expect = 9e-6 + 32e6 / (180.0 * 1e9);
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
    }

    #[test]
    fn wasted_bytes_cost_extra() {
        let coalesced = BlockStats {
            sectors: 1_000_000,
            useful_bytes: 32_000_000,
            ..Default::default()
        };
        let scattered = BlockStats {
            sectors: 8_000_000,
            useful_bytes: 32_000_000,
            ..Default::default()
        };
        assert!(K40C.estimate(&scattered) > K40C.estimate(&coalesced) * 2.0);
    }

    #[test]
    fn scattered_traffic_hurts_maxwell_more() {
        let scattered = BlockStats {
            sectors: 8_000_000,
            useful_bytes: 32_000_000,
            ..Default::default()
        };
        let coalesced = BlockStats {
            sectors: 1_000_000,
            useful_bytes: 32_000_000,
            ..Default::default()
        };
        let k_ratio = K40C.estimate(&scattered) / K40C.estimate(&coalesced);
        let m_ratio = GTX750TI.estimate(&scattered) / GTX750TI.estimate(&coalesced);
        assert!(
            m_ratio > k_ratio,
            "Maxwell should be hit harder by waste (paper §6.3)"
        );
    }

    #[test]
    fn compute_bound_launch_uses_compute_time() {
        let s = BlockStats {
            intrinsics: 45_000_000_000,
            ..Default::default()
        };
        let t = K40C.estimate(&s);
        let expect = K40C.launch_overhead_us * 1e-6 + 45e9 / (K40C.intrinsic_gops * 1e9);
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
    }
}
