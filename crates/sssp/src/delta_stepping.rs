//! Delta-stepping SSSP on the simulated GPU — the application that
//! motivated multisplit (paper §1, Davidson et al. \[7\]).
//!
//! Host-orchestrated, device-executed: each iteration relaxes the current
//! frontier's edges with a CSR kernel (atomic-min distance updates,
//! warp-aggregated candidate emission), then **reorganizes** the candidate
//! pool into distance buckets of width Δ — the step Davidson et al.
//! measured at 82% of their sort-based runtime, and the step whose
//! strategy is pluggable here:
//!
//! * [`Bucketing::Multisplit`] — our warp/block-level multisplit over `m`
//!   distance buckets (the paper's fix; footnote 1 used `m = 2`).
//! * [`Bucketing::NearFar`] — Davidson's Near-Far work-saving strategy: a
//!   scan-based two-pile split at `base + Δ`.
//! * [`Bucketing::SortBased`] — full radix sort of (distance, node) pairs,
//!   the baseline whose overhead motivated the whole paper.
//!
//! All three share the same outer loop and produce identical distances
//! (validated against Dijkstra); they differ only in reorganization cost.

use simt::{blocks_for, lanes_from_fn, splat, Device, GlobalBuffer, WARP_SIZE};

use multisplit::{multisplit_device, DeltaBuckets, Method};
use primitives::{split_by_pred, tail_mask};

use crate::dijkstra::INF;
use crate::graph::CsrGraph;

/// How to reorganize candidates into buckets each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucketing {
    /// Multisplit over `m` distance buckets (the paper's contribution).
    Multisplit { m: u32 },
    /// Scan-based near/far split (Davidson et al.'s recommended fallback).
    NearFar,
    /// Full radix sort of candidate distances (the expensive baseline).
    SortBased,
}

impl Bucketing {
    pub fn name(&self) -> String {
        match self {
            Bucketing::Multisplit { m } => format!("multisplit(m={m})"),
            Bucketing::NearFar => "near-far".into(),
            Bucketing::SortBased => "radix-sort".into(),
        }
    }
}

/// Outcome of one SSSP run.
pub struct SsspResult {
    pub dist: Vec<u32>,
    pub iterations: usize,
    /// Estimated device seconds spent in the bucketing/reorganization step.
    pub bucketing_seconds: f64,
    /// Estimated device seconds, total.
    pub total_seconds: f64,
}

/// A device-resident candidate pool: parallel (distance, node) arrays.
struct Pool {
    dist: GlobalBuffer<u32>,
    node: GlobalBuffer<u32>,
    len: usize,
}

impl Pool {
    fn empty() -> Self {
        Self {
            dist: GlobalBuffer::zeroed(0),
            node: GlobalBuffer::zeroed(0),
            len: 0,
        }
    }
}

/// Copy `src[src_range]` into `dst` starting at `dst_off` (device copy).
#[allow(clippy::too_many_arguments)]
fn device_copy(
    dev: &Device,
    label: &str,
    src: (&GlobalBuffer<u32>, &GlobalBuffer<u32>),
    src_start: usize,
    len: usize,
    dst: (&GlobalBuffer<u32>, &GlobalBuffer<u32>),
    dst_off: usize,
    wpb: usize,
) {
    if len == 0 {
        return;
    }
    dev.launch(label, blocks_for(len, wpb), wpb, |blk| {
        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, len);
            if mask == 0 {
                continue;
            }
            let sidx = lanes_from_fn(|l| src_start + (base + l).min(len - 1));
            let didx = lanes_from_fn(|l| dst_off + (base + l).min(len - 1));
            let d = w.gather(src.0, sidx, mask);
            let nd = w.gather(src.1, sidx, mask);
            w.scatter(dst.0, didx, d, mask);
            w.scatter(dst.1, didx, nd, mask);
        }
    });
}

/// Relax every out-edge of the frontier (entries `0..f_len` of `frontier`),
/// appending improved (distance, node) candidates. Returns the candidates.
#[allow(clippy::too_many_arguments)]
fn relax_frontier(
    dev: &Device,
    g_row: &GlobalBuffer<u32>,
    g_col: &GlobalBuffer<u32>,
    g_wgt: &GlobalBuffer<u32>,
    dist: &GlobalBuffer<u32>,
    frontier: &Pool,
    f_len: usize,
    wpb: usize,
) -> Pool {
    let cap = g_col.len().max(1);
    let cand = Pool {
        dist: GlobalBuffer::zeroed(cap),
        node: GlobalBuffer::zeroed(cap),
        len: 0,
    };
    let cursor = GlobalBuffer::<u32>::zeroed(1);
    dev.launch("sssp/relax", blocks_for(f_len, wpb), wpb, |blk| {
        for w in blk.warps() {
            let base = w.global_warp_id * WARP_SIZE;
            let mask = tail_mask(base, f_len);
            if mask == 0 {
                continue;
            }
            let idx = lanes_from_fn(|l| (base + l).min(f_len - 1));
            let v = w.gather(&frontier.node, idx, mask);
            let dv_carried = w.gather(&frontier.dist, idx, mask);
            let vi = lanes_from_fn(|l| v[l] as usize);
            let dv_now = w.gather(dist, vi, mask);
            // Staleness filter: only relax entries whose carried tentative
            // distance still matches (otherwise a better path settled them).
            let live = w.ballot(lanes_from_fn(|l| dv_carried[l] == dv_now[l]), mask);
            if live == 0 {
                continue;
            }
            let row_lo = w.gather(g_row, vi, live);
            let row_hi = w.gather(g_row, lanes_from_fn(|l| vi[l] + 1), live);
            let deg = lanes_from_fn(|l| (row_hi[l] - row_lo[l]) as usize);
            let max_deg = (0..WARP_SIZE)
                .filter(|&l| live >> l & 1 == 1)
                .map(|l| deg[l])
                .max()
                .unwrap_or(0);
            // Lockstep edge loop: lanes with fewer edges idle (divergence).
            for e in 0..max_deg {
                let emask = (0..WARP_SIZE)
                    .filter(|&l| live >> l & 1 == 1 && e < deg[l])
                    .fold(0u32, |m, l| m | 1 << l);
                if emask == 0 {
                    break;
                }
                let eidx = lanes_from_fn(|l| (row_lo[l] as usize + e).min(g_col.len() - 1));
                let u = w.gather(g_col, eidx, emask);
                let wt = w.gather(g_wgt, eidx, emask);
                let nd = lanes_from_fn(|l| dv_now[l].saturating_add(wt[l]));
                let prev = w.atomic_min(dist, lanes_from_fn(|l| u[l] as usize), nd, emask);
                let improved = w.ballot(lanes_from_fn(|l| nd[l] < prev[l]), emask);
                if improved != 0 {
                    // Warp-aggregated append into the candidate pool.
                    let count = improved.count_ones();
                    let cur = w.atomic_add(&cursor, splat(0usize), splat(count), 1)[0];
                    let rank = lanes_from_fn(|l| (improved & simt::lane_mask_lt(l)).count_ones());
                    let dst = lanes_from_fn(|l| (cur + rank[l]) as usize);
                    w.scatter(&cand.dist, dst, nd, improved);
                    w.scatter(&cand.node, dst, u, improved);
                }
            }
            if max_deg > 0 {
                w.charge_divergent(max_deg as u64);
            }
        }
    });
    Pool {
        len: cursor.get(0) as usize,
        ..cand
    }
}

/// Run delta-stepping from `source` with bucket width `delta`.
///
/// ```
/// use simt::{Device, K40C};
/// use sssp::{delta_stepping, Bucketing, CsrGraph};
/// let g = CsrGraph::from_edges(4, &[(0, 1, 1), (0, 2, 4), (1, 2, 2), (2, 3, 1)]);
/// let dev = Device::new(K40C);
/// let r = delta_stepping(&dev, &g, 0, 2, Bucketing::Multisplit { m: 4 });
/// assert_eq!(r.dist, vec![0, 1, 3, 4]);
/// ```
pub fn delta_stepping(
    dev: &Device,
    g: &CsrGraph,
    source: u32,
    delta: u32,
    strategy: Bucketing,
) -> SsspResult {
    assert!(delta >= 1, "bucket width must be positive");
    let n = g.num_nodes();
    assert!((source as usize) < n);
    let wpb = 8;
    let g_row = GlobalBuffer::from_slice(&g.row_offsets);
    let g_col = GlobalBuffer::from_slice(&g.col_indices);
    let g_wgt = GlobalBuffer::from_slice(&g.weights);
    let mut host_dist = vec![INF; n];
    host_dist[source as usize] = 0;
    let dist = GlobalBuffer::from_slice(&host_dist);

    let mut frontier = Pool {
        dist: GlobalBuffer::from_slice(&[0]),
        node: GlobalBuffer::from_slice(&[source]),
        len: 1,
    };
    let mut pending = Pool::empty();
    let mut base = 0u32;
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        assert!(iterations < 1_000_000, "delta-stepping failed to converge");
        // 1. Relax the frontier.
        let cand = relax_frontier(
            dev,
            &g_row,
            &g_col,
            &g_wgt,
            &dist,
            &frontier,
            frontier.len,
            wpb,
        );
        // 2. Merge surviving pending entries with the new candidates.
        let pool_len = pending.len + cand.len;
        if pool_len == 0 {
            break;
        }
        let pool = Pool {
            dist: GlobalBuffer::zeroed(pool_len),
            node: GlobalBuffer::zeroed(pool_len),
            len: pool_len,
        };
        device_copy(
            dev,
            "sssp/merge",
            (&pending.dist, &pending.node),
            0,
            pending.len,
            (&pool.dist, &pool.node),
            0,
            wpb,
        );
        device_copy(
            dev,
            "sssp/merge",
            (&cand.dist, &cand.node),
            0,
            cand.len,
            (&pool.dist, &pool.node),
            pending.len,
            wpb,
        );
        // 3. Reorganize the pool into buckets (the multisplit step).
        let (keys, nodes, near) = dev.with_scope("sssp/bucket", || match strategy {
            Bucketing::Multisplit { m } => {
                let bucket = DeltaBuckets::new(base, delta, m);
                let method = Method::auto(m, true);
                let r = multisplit_device(
                    dev,
                    method,
                    &pool.dist,
                    Some(&pool.node),
                    pool_len,
                    &bucket,
                    wpb,
                );
                let near = r.offsets[1] as usize;
                (r.keys, r.values.unwrap(), near)
            }
            Bucketing::NearFar => {
                let threshold = base.saturating_add(delta);
                let r = split_by_pred(
                    dev,
                    "near-far",
                    &pool.dist,
                    Some(&pool.node),
                    pool_len,
                    wpb,
                    move |d| d >= threshold,
                );
                (r.keys, r.values.unwrap(), r.false_count as usize)
            }
            Bucketing::SortBased => {
                // ms-sort prunes dead high bits with one counted
                // reduction, so early rounds (small tentative distances)
                // cost far fewer passes than a fixed 32-bit radix sort.
                let (sk, sv) = ms_sort::sort_pairs(dev, &pool.dist, &pool.node, pool_len, wpb);
                let sorted = sk.to_vec();
                let threshold = base.saturating_add(delta);
                let near = sorted.partition_point(|&d| d < threshold);
                (sk, sv, near)
            }
        });
        if near > 0 {
            // Process the near bucket; keep the rest pending.
            let far = pool_len - near;
            frontier = Pool {
                dist: keys,
                node: nodes,
                len: near,
            };
            // Splitting the pool: frontier reads entries 0..near in place;
            // pending gets its own compacted copy.
            let new_pending = Pool {
                dist: GlobalBuffer::zeroed(far.max(1)),
                node: GlobalBuffer::zeroed(far.max(1)),
                len: far,
            };
            device_copy(
                dev,
                "sssp/split-pending",
                (&frontier.dist, &frontier.node),
                near,
                far,
                (&new_pending.dist, &new_pending.node),
                0,
                wpb,
            );
            pending = new_pending;
        } else {
            // Near bucket empty: advance the window to the next candidate.
            let keys_host = keys.to_vec();
            let min_d = keys_host[..pool_len].iter().copied().min().unwrap_or(INF);
            if min_d == INF {
                break;
            }
            base = min_d; // window restarts at the smallest outstanding distance
            frontier = Pool::empty();
            pending = Pool {
                dist: keys,
                node: nodes,
                len: pool_len,
            };
        }
    }

    let bucketing_seconds = dev.seconds_with_prefix("sssp/bucket/");
    let total_seconds = dev.seconds_with_prefix("sssp/");
    SsspResult {
        dist: dist.to_vec(),
        iterations,
        bucketing_seconds,
        total_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::generators::{low_diameter, rmat, uniform_random};
    use simt::K40C;

    fn check_strategy(g: &CsrGraph, strategy: Bucketing, delta: u32) -> SsspResult {
        let dev = Device::new(K40C);
        let r = delta_stepping(&dev, g, 0, delta, strategy);
        assert_eq!(
            r.dist,
            dijkstra(g, 0),
            "{} must match Dijkstra",
            strategy.name()
        );
        r
    }

    #[test]
    fn all_strategies_match_dijkstra_on_uniform() {
        let g = uniform_random(800, 6, 40, 3);
        for s in [
            Bucketing::Multisplit { m: 10 },
            Bucketing::Multisplit { m: 2 },
            Bucketing::NearFar,
            Bucketing::SortBased,
        ] {
            check_strategy(&g, s, 16);
        }
    }

    #[test]
    fn works_on_rmat_and_low_diameter() {
        let g = rmat(9, 8, 30, 5);
        check_strategy(&g, Bucketing::Multisplit { m: 10 }, 8);
        let g = low_diameter(600, 3, 20, 7);
        check_strategy(&g, Bucketing::Multisplit { m: 10 }, 8);
    }

    #[test]
    fn disconnected_nodes_stay_unreachable() {
        let g = CsrGraph::from_edges(4, &[(0, 1, 5)]);
        let dev = Device::new(K40C);
        let r = delta_stepping(&dev, &g, 0, 4, Bucketing::Multisplit { m: 4 });
        assert_eq!(r.dist, vec![0, 5, INF, INF]);
    }

    #[test]
    fn multisplit_bucketing_is_cheaper_than_sort() {
        // Footnote 1's ranking: multisplit < near-far < sort in
        // reorganization cost.
        let g = uniform_random(3000, 8, 60, 9);
        let ms = check_strategy(&g, Bucketing::Multisplit { m: 2 }, 16);
        let sort = check_strategy(&g, Bucketing::SortBased, 16);
        assert!(
            ms.bucketing_seconds < sort.bucketing_seconds,
            "multisplit bucketing {:.3}ms should beat sort {:.3}ms",
            ms.bucketing_seconds * 1e3,
            sort.bucketing_seconds * 1e3
        );
    }

    #[test]
    fn delta_extremes_still_converge() {
        let g = uniform_random(300, 5, 20, 13);
        // delta = 1: near-exact Dijkstra ordering; delta = huge: Bellman-ish.
        check_strategy(&g, Bucketing::Multisplit { m: 8 }, 1);
        check_strategy(&g, Bucketing::Multisplit { m: 8 }, 1_000_000);
    }
}
