//! Per-layer metrics derived outside the program from its launch records:
//! the `simt` grid and memory counters, the cost-term breakdown of every
//! launch rebuilt from `BlockStats` and the public `DeviceProfile` fields,
//! the `core` stages, the look-back counters and the `sort` passes.

use simt::{BlockStats, DeviceProfile, LaunchRecord, SECTOR_BYTES};

use crate::Metrics;

/// The stages `msbench::stage_of` assigns to the launches these
/// workloads make; anything else is summed under `other`.
pub const STAGES: [&str; 4] = ["pre-scan", "sweep", "probe", "other"];

/// A launch's modeled cost split into the terms `DeviceProfile::estimate`
/// prices, before the memory/compute bottleneck max is taken.
struct LaunchCost {
    overhead: f64,
    dram: f64,
    waste: f64,
    replay: f64,
    compute: f64,
    barrier: f64,
}

impl LaunchCost {
    fn of(s: &BlockStats, p: &DeviceProfile) -> Self {
        let bw = p.dram_gbps * 1e9;
        LaunchCost {
            overhead: p.launch_overhead_us * 1e-6,
            dram: s.useful_bytes as f64 / bw,
            waste: s.wasted_bytes() as f64 * p.waste_factor / bw,
            replay: s.replays as f64 / (p.replay_gops * 1e9),
            compute: s.intrinsics as f64 / (p.intrinsic_gops * 1e9)
                + s.smem_ops as f64 / (p.smem_gops * 1e9)
                + s.lane_ops as f64 / (p.lane_gops * 1e9)
                + (s.atomic_ops + 8 * s.atomic_conflicts) as f64 / (p.atomic_gops * 1e9)
                + s.divergent_iters as f64 / (p.divergent_gops * 1e9),
            barrier: s.barriers as f64 * p.barrier_ns * 1e-9,
        }
    }

    fn memory(&self) -> f64 {
        self.dram + self.waste + self.replay
    }

    fn memory_bound(&self) -> bool {
        self.memory() >= self.compute
    }

    fn total(&self) -> f64 {
        self.overhead + self.memory().max(self.compute) + self.barrier
    }
}

/// Cost terms summed over launches. Only the bounding side of each
/// launch's max counts, so the terms add up to the modeled seconds.
#[derive(Default)]
pub struct CostTerms {
    pub launch: f64,
    pub dram: f64,
    pub waste: f64,
    pub replay: f64,
    pub compute: f64,
    pub barrier: f64,
    pub mem_bound: u64,
    pub compute_bound: u64,
    /// Largest relative gap between a launch's rebuilt total and its
    /// recorded `LaunchRecord::seconds`.
    pub max_rel_err: f64,
}

/// Launches whose rebuilt cost misses their recorded seconds by more
/// than this relative tolerance are counted as failures.
pub const COST_TOLERANCE: f64 = 1e-12;

pub fn cost_terms(records: &[LaunchRecord], p: &DeviceProfile) -> CostTerms {
    let mut t = CostTerms::default();
    for r in records {
        let c = LaunchCost::of(&r.stats, p);
        t.launch += c.overhead;
        t.barrier += c.barrier;
        if c.memory_bound() {
            t.mem_bound += 1;
            t.dram += c.dram;
            t.waste += c.waste;
            t.replay += c.replay;
        } else {
            t.compute_bound += 1;
            t.compute += c.compute;
        }
        let err = (c.total() - r.seconds).abs() / r.seconds.abs().max(f64::MIN_POSITIVE);
        t.max_rel_err = t.max_rel_err.max(err);
    }
    t
}

fn stage_bucket(label: &str) -> &'static str {
    let stage = msbench::stage_of(label);
    STAGES.into_iter().find(|&s| s == stage).unwrap_or("other")
}

/// Append the metrics of every layer visible in a launch log.
/// `key_read_sectors` is the input key buffers' read traffic, which the
/// records do not attribute per buffer.
pub fn push_launch_metrics(
    out: &mut Metrics,
    records: &[LaunchRecord],
    key_read_sectors: u64,
    p: &DeviceProfile,
) -> CostTerms {
    let mut sum = BlockStats::default();
    let (mut resolves, mut depth, mut spins) = (0u64, 0u64, 0u64);
    for r in records {
        sum += r.stats;
        resolves += r.obs.lookback_resolves;
        depth += r.obs.lookback_depth_total;
        spins += r.obs.spin_polls;
    }
    let blocks: usize = records.iter().map(|r| r.blocks).sum();
    out.count("simt.launches", records.len() as u64);
    out.count("simt.blocks", blocks as u64);
    out.count("simt.dram_sectors", sum.sectors);
    out.push("simt.useful_bytes", sum.useful_bytes as f64, "B");
    let eff = sum.useful_bytes as f64 / (sum.sectors * SECTOR_BYTES).max(1) as f64;
    out.push("simt.coalescing_eff", eff, "ratio");
    out.count("simt.replays", sum.replays);
    out.count("simt.global_requests", sum.global_requests);
    out.count("core.key_read_sectors", key_read_sectors);

    let cost = cost_terms(records, p);
    out.push("cost.launch_s", cost.launch, "model_s");
    out.push("cost.dram_s", cost.dram, "model_s");
    out.push("cost.waste_s", cost.waste, "model_s");
    out.push("cost.replay_s", cost.replay, "model_s");
    out.push("cost.compute_s", cost.compute, "model_s");
    out.push("cost.barrier_s", cost.barrier, "model_s");
    out.count("cost.mem_bound_launches", cost.mem_bound);
    out.count("cost.compute_bound_launches", cost.compute_bound);
    out.push("cost.max_rel_err", cost.max_rel_err, "ratio");

    for stage in STAGES {
        let of_stage = || records.iter().filter(|r| stage_bucket(&r.label) == stage);
        out.count(
            &format!("core.{stage}.sectors"),
            of_stage().map(|r| r.stats.sectors).sum(),
        );
        out.push(
            &format!("core.{stage}.modeled_s"),
            of_stage().fold(0.0, |t, r| t + r.seconds),
            "model_s",
        );
    }
    out.count("core.smem_ops", sum.smem_ops);
    out.count("core.smem_bank_conflicts", sum.smem_bank_conflicts);
    out.count("core.barriers", sum.barriers);
    out.count("core.intrinsics", sum.intrinsics);

    out.count("lookback.resolves", resolves);
    out.push(
        "lookback.mean_depth",
        depth as f64 / resolves.max(1) as f64,
        "ratio",
    );
    out.count("lookback.spin_polls", spins);

    // ms-sort scopes every digit pass as `ms_sort/pass<k>/...` and names
    // its bit-range probe `ms_sort/bits`.
    let sort = || records.iter().filter(|r| r.label.starts_with("ms_sort/"));
    let sort_sectors = |stage: &str| -> u64 {
        sort()
            .filter(|r| stage_bucket(&r.label) == stage)
            .map(|r| r.stats.sectors)
            .sum()
    };
    out.count(
        "sort.passes",
        sort().filter(|r| stage_bucket(&r.label) == "sweep").count() as u64,
    );
    out.count("sort.prescan_sectors", sort_sectors("pre-scan"));
    out.count("sort.sweep_sectors", sort_sectors("sweep"));
    out.count("sort.probe_sectors", sort_sectors("probe"));
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::{Device, GlobalBuffer, K40C};

    #[test]
    fn rebuilt_terms_sum_to_the_recorded_seconds() {
        let dev = Device::sequential(K40C);
        let keys: Vec<u32> = (0..50_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let buf = GlobalBuffer::from_slice(&keys);
        for m in [2u32, 32, 256] {
            let bucket = multisplit::RangeBuckets::new(m);
            let method = multisplit::Method::auto(m, false);
            multisplit::multisplit_device(
                &dev,
                method,
                &buf,
                multisplit::no_values(),
                keys.len(),
                &bucket,
                8,
            );
        }
        let records = dev.records();
        let t = cost_terms(&records, &K40C);
        assert!(t.max_rel_err <= COST_TOLERANCE, "{}", t.max_rel_err);
        assert_eq!(t.mem_bound + t.compute_bound, records.len() as u64);
        let total: f64 = records.iter().map(|r| r.seconds).sum();
        let terms = t.launch + t.dram + t.waste + t.replay + t.compute + t.barrier;
        assert!((terms - total).abs() <= 1e-12 * total);
    }
}
