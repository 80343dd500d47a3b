//! Device-wide exclusive prefix sum (the paper's **global** operation).
//!
//! Multisplit's single global step is an exclusive scan over the
//! row-vectorized histogram matrix `H` (size `m x L`). Two algorithms are
//! implemented, each under its own name:
//!
//! * [`exclusive_scan_u32`] — a **single-pass chained scan with
//!   decoupled look-back** (Merrill & Garland, *Single-pass Parallel
//!   Prefix Scan with Decoupled Look-back*): each block atomically takes a
//!   ticket for its tile, publishes its local aggregate, then resolves its
//!   exclusive prefix by walking back over predecessor tiles' published
//!   `(aggregate | inclusive-prefix)` flag words. The input is read once
//!   and the output written once (~2n traffic), versus ~3n for the
//!   recursive scheme — the "≈2× less scan traffic" this repo's bench
//!   reports per stage.
//!   Every multisplit and compaction in the workspace scans with it.
//! * [`recursive_scan_u32`] — the classic three-kernel reduce /
//!   scan-partials / downsweep structure (as CUB's `DeviceScan` once did),
//!   recursing on the partials when the grid has more than one block.
//!   Kept as the named baseline `paper scan` compares against.
//!
//! Each thread processes [`ITEMS_PER_THREAD`] elements in warp-contiguous
//! chunks so every global access is fully coalesced.
//!
//! ### Why the look-back cannot deadlock
//!
//! Tickets are claimed with a device-scope `fetch_add` at block start, so
//! ticket order is *task-start* order: tile `t` only ever waits on tiles
//! `< t`, all of which have already started. The executor in
//! `simt::Device` runs blocks on OS threads that claim block ids from a
//! shared counter, so a started block always makes progress (the spin wait
//! yields); on `Device::sequential` predecessors have finished before tile
//! `t` even starts and every look-back resolves in one hop.

use simt::{lanes_from_fn, BlockCtx, Device, GlobalBuffer, SharedBuf, WARP_SIZE};

use crate::block_scan::{low_lanes_mask, tail_mask};
use crate::lookback::SegmentedTileStates;
use crate::warp_scan;

/// Thread coarsening factor for scan kernels.
pub const ITEMS_PER_THREAD: usize = 8;

/// Elements processed by one block per scan kernel.
pub fn scan_tile(warps_per_block: usize) -> usize {
    warps_per_block * WARP_SIZE * ITEMS_PER_THREAD
}

/// Exclusive prefix-sum of `input[0..n]` into `output[0..n]`; returns the
/// total. `label` prefixes the launch (e.g. `"direct/scan"`).
///
/// ```
/// use simt::{Device, GlobalBuffer, K40C};
/// let dev = Device::new(K40C);
/// let input = GlobalBuffer::from_slice(&[3u32, 1, 4, 1, 5]);
/// let output = GlobalBuffer::<u32>::zeroed(5);
/// let total = primitives::exclusive_scan_u32(&dev, "demo", &input, &output, 5, 8);
/// assert_eq!(output.to_vec(), vec![0, 3, 4, 8, 9]);
/// assert_eq!(total, 14);
/// ```
///
/// A single-pass chained scan with decoupled look-back: one kernel,
/// launched as `"{label}/scan-chained"`. Per block:
/// 1. claim a tile ticket (device-scope `fetch_add`);
/// 2. locally scan the tile (one coalesced read of the input);
/// 3. publish `aggregate | AGGREGATE`, look back over predecessors until an
///    `INCLUSIVE` word is found summing aggregates on the way, publish
///    `prefix + aggregate | INCLUSIVE`;
/// 4. add the resolved prefix and write the tile's output (one coalesced
///    write).
///
/// Global traffic is ~2n elements plus 3 state words per tile, versus ~3n
/// for [`recursive_scan_u32`] — and one kernel launch instead of
/// 2 + 3·levels.
pub fn exclusive_scan_u32(
    dev: &Device,
    label: &str,
    input: &GlobalBuffer<u32>,
    output: &GlobalBuffer<u32>,
    n: usize,
    warps_per_block: usize,
) -> u32 {
    assert!(
        input.len() >= n && output.len() >= n,
        "scan buffers too short"
    );
    if n == 0 {
        return 0;
    }
    let tile = scan_tile(warps_per_block);
    let blocks = n.div_ceil(tile);
    let ticket = GlobalBuffer::<u32>::zeroed(1);
    // Scalar prefixes: one segment of one-row tile-state records (see
    // `lookback`).
    let states = SegmentedTileStates::new(&[(blocks, 1)]);
    dev.launch(
        &format!("{label}/scan-chained"),
        blocks,
        warps_per_block,
        |blk| {
            let nw = blk.warps_per_block;
            let chunk_sums = blk.alloc_shared::<u32>(nw * ITEMS_PER_THREAD + 1);
            let scratch = blk.alloc_shared::<u32>(tile);
            let tile_id = blk.alloc_shared::<u32>(1);
            // 1. Claim the next tile in task-start order (the deadlock-freedom
            // invariant: we will only ever wait on already-started tiles).
            {
                let w = blk.warp(0);
                tile_id.set(0, w.device_fetch_add(&ticket, 0, 1));
            }
            blk.sync();
            let t = tile_id.get(0) as usize;
            let tile_start = t * tile;
            // 2. Local scan of the tile.
            tile_local_scan(blk, input, &scratch, &chunk_sums, tile_start, n);
            blk.sync();
            let aggregate = chunk_sums.get(nw * ITEMS_PER_THREAD);
            // 3. Publish + decoupled look-back (warp 0; one lane's worth of
            // traffic, negligible next to the tile's 2·tile elements).
            let block_base = {
                let w = blk.warp(0);
                states.resolve_rows(&w, 0, t, &[aggregate])[0]
            };
            blk.sync();
            // 4. Add the resolved prefix and write the tile's output.
            for w in blk.warps() {
                for c in 0..ITEMS_PER_THREAD {
                    let base = tile_start + (w.warp_id * ITEMS_PER_THREAD + c) * WARP_SIZE;
                    let mask = tail_mask(base, n);
                    if mask == 0 {
                        break;
                    }
                    let idx = lanes_from_fn(|l| if base + l < n { base + l } else { base });
                    let local = base - tile_start;
                    let exc = scratch.ld(lanes_from_fn(|l| local + l), mask);
                    let off =
                        block_base.wrapping_add(chunk_sums.get(w.warp_id * ITEMS_PER_THREAD + c));
                    let out = lanes_from_fn(|l| exc[l].wrapping_add(off));
                    w.scatter(output, idx, out, mask);
                }
            }
        },
    );
    states.total(0, 0)
}

/// Recursive reduce / scan-partials / downsweep scan (the pre-chained
/// baseline; ~3n global traffic and 2 + 3·levels kernel launches).
pub fn recursive_scan_u32(
    dev: &Device,
    label: &str,
    input: &GlobalBuffer<u32>,
    output: &GlobalBuffer<u32>,
    n: usize,
    warps_per_block: usize,
) -> u32 {
    assert!(
        input.len() >= n && output.len() >= n,
        "scan buffers too short"
    );
    if n == 0 {
        return 0;
    }
    let tile = scan_tile(warps_per_block);
    let blocks = n.div_ceil(tile);
    if blocks == 1 {
        let total = GlobalBuffer::<u32>::zeroed(1);
        downsweep(
            dev,
            &format!("{label}/scan-single"),
            input,
            output,
            None,
            Some(&total),
            n,
            warps_per_block,
        );
        return total.get(0);
    }
    // 1. Per-block partial sums.
    let partials = GlobalBuffer::<u32>::zeroed(blocks);
    reduce_tiles(
        dev,
        &format!("{label}/scan-reduce"),
        input,
        &partials,
        n,
        warps_per_block,
    );
    // 2. Exclusive scan of the partials (recursive).
    let partials_scanned = GlobalBuffer::<u32>::zeroed(blocks);
    let total = recursive_scan_u32(
        dev,
        label,
        &partials,
        &partials_scanned,
        blocks,
        warps_per_block,
    );
    // 3. Downsweep with per-block base offsets.
    downsweep(
        dev,
        &format!("{label}/scan-downsweep"),
        input,
        output,
        Some(&partials_scanned),
        None,
        n,
        warps_per_block,
    );
    total
}

/// Kernel: each block sums its tile into `partials[block_id]`.
fn reduce_tiles(
    dev: &Device,
    label: &str,
    input: &GlobalBuffer<u32>,
    partials: &GlobalBuffer<u32>,
    n: usize,
    wpb: usize,
) {
    let tile = scan_tile(wpb);
    let blocks = n.div_ceil(tile);
    dev.launch(label, blocks, wpb, |blk| {
        let warp_sums = blk.alloc_shared::<u32>(blk.warps_per_block);
        let tile_start = blk.block_id * tile;
        for w in blk.warps() {
            let mut acc = 0u32;
            for c in 0..ITEMS_PER_THREAD {
                let base = tile_start + (w.warp_id * ITEMS_PER_THREAD + c) * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    break;
                }
                let idx = lanes_from_fn(|l| if base + l < n { base + l } else { base });
                let v = w.gather(input, idx, mask);
                acc += warp_scan::reduce_add(
                    &w,
                    lanes_from_fn(|l| if base + l < n { v[l] } else { 0 }),
                );
            }
            warp_sums.set(w.warp_id, acc);
        }
        blk.sync();
        {
            let w = blk.warp(0);
            let nw = blk.warps_per_block;
            let mask = low_lanes_mask(nw);
            let v = warp_sums.ld(lanes_from_fn(|l| if l < nw { l } else { 0 }), mask);
            let total = warp_scan::reduce_add_low(&w, v, nw);
            w.scatter_merged(
                partials,
                lanes_from_fn(|_| blk.block_id),
                simt::splat(total),
                1,
            );
        }
    });
}

/// Local scan of one tile, shared by the chained and downsweep kernels.
///
/// Phase A: each warp scans its `ITEMS_PER_THREAD` chunks, staging the
/// chunk-exclusive values in `scratch` (saves a second global read of the
/// input, as CUB's shared staging does) and the per-chunk sums in
/// `chunk_sums`. Phase B: warp 0 exclusive-scans the chunk sums in place,
/// leaving the tile total in `chunk_sums[nw * ITEMS_PER_THREAD]`.
///
/// Contains one internal barrier; the caller must barrier again before
/// consuming the results.
fn tile_local_scan(
    blk: &BlockCtx,
    input: &GlobalBuffer<u32>,
    scratch: &SharedBuf<'_, u32>,
    chunk_sums: &SharedBuf<'_, u32>,
    tile_start: usize,
    n: usize,
) {
    for w in blk.warps() {
        for c in 0..ITEMS_PER_THREAD {
            let base = tile_start + (w.warp_id * ITEMS_PER_THREAD + c) * WARP_SIZE;
            let mask = tail_mask(base, n);
            let sum = if mask == 0 {
                0
            } else {
                let idx = lanes_from_fn(|l| if base + l < n { base + l } else { base });
                let v = w.gather(input, idx, mask);
                let padded = lanes_from_fn(|l| if base + l < n { v[l] } else { 0 });
                let inc = warp_scan::inclusive_scan_add(&w, padded);
                let local = base - tile_start;
                scratch.st(
                    lanes_from_fn(|l| local + l),
                    lanes_from_fn(|l| inc[l] - padded[l]),
                    mask,
                );
                let active = mask.count_ones() as usize;
                inc[active - 1]
            };
            chunk_sums.set(w.warp_id * ITEMS_PER_THREAD + c, sum);
        }
    }
    blk.sync();
    // Warp 0 scans all chunk sums (nw * IPT <= 64 for nw=8: two rounds).
    {
        let w = blk.warp(0);
        let nw = blk.warps_per_block;
        let k = nw * ITEMS_PER_THREAD;
        let mut carry = 0u32;
        let mut base = 0usize;
        while base < k {
            let cnt = (k - base).min(WARP_SIZE);
            let mask = low_lanes_mask(cnt);
            let idx = lanes_from_fn(|l| if l < cnt { base + l } else { base });
            let v = chunk_sums.ld(idx, mask);
            let padded = lanes_from_fn(|l| if l < cnt { v[l] } else { 0 });
            let inc = warp_scan::inclusive_scan_add(&w, padded);
            let exc = lanes_from_fn(|l| inc[l] - padded[l] + carry);
            chunk_sums.st(idx, exc, mask);
            carry += inc[cnt - 1];
            base += WARP_SIZE;
        }
        chunk_sums.set(k, carry); // tile total
    }
}

/// Kernel: each block writes the exclusive scan of its tile, offset by
/// `bases[block_id]` (or 0). If `total_out` is given, the grand total is
/// stored to it (single-block path).
#[allow(clippy::too_many_arguments)]
fn downsweep(
    dev: &Device,
    label: &str,
    input: &GlobalBuffer<u32>,
    output: &GlobalBuffer<u32>,
    bases: Option<&GlobalBuffer<u32>>,
    total_out: Option<&GlobalBuffer<u32>>,
    n: usize,
    wpb: usize,
) {
    let tile = scan_tile(wpb);
    let blocks = n.div_ceil(tile);
    dev.launch(label, blocks, wpb, |blk| {
        let nw = blk.warps_per_block;
        let chunk_sums = blk.alloc_shared::<u32>(nw * ITEMS_PER_THREAD + 1);
        let scratch = blk.alloc_shared::<u32>(tile);
        let tile_start = blk.block_id * tile;
        tile_local_scan(blk, input, &scratch, &chunk_sums, tile_start, n);
        blk.sync();
        let block_base = match bases {
            Some(b) => {
                let w = blk.warp(0);
                w.gather_cached(b, lanes_from_fn(|_| blk.block_id), 1)[0]
            }
            None => 0,
        };
        for w in blk.warps() {
            for c in 0..ITEMS_PER_THREAD {
                let base = tile_start + (w.warp_id * ITEMS_PER_THREAD + c) * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    break;
                }
                let idx = lanes_from_fn(|l| if base + l < n { base + l } else { base });
                let local = base - tile_start;
                let exc = scratch.ld(lanes_from_fn(|l| local + l), mask);
                let off = block_base + chunk_sums.get(w.warp_id * ITEMS_PER_THREAD + c);
                let out = lanes_from_fn(|l| exc[l] + off);
                w.scatter(output, idx, out, mask);
            }
        }
        if let Some(t) = total_out {
            if blk.block_id == blocks - 1 {
                let w = blk.warp(0);
                let grand = chunk_sums.get(nw * ITEMS_PER_THREAD) + block_base;
                w.scatter_merged(t, lanes_from_fn(|_| 0), simt::splat(grand), 1);
            }
        }
    });
}

/// Device-wide sum reduction of `input[0..n]`.
pub fn reduce_add_u32(
    dev: &Device,
    label: &str,
    input: &GlobalBuffer<u32>,
    n: usize,
    wpb: usize,
) -> u32 {
    if n == 0 {
        return 0;
    }
    let tile = scan_tile(wpb);
    let blocks = n.div_ceil(tile);
    let partials = GlobalBuffer::<u32>::zeroed(blocks);
    reduce_tiles(dev, &format!("{label}/reduce"), input, &partials, n, wpb);
    if blocks == 1 {
        partials.get(0)
    } else {
        reduce_add_u32(dev, label, &partials, blocks, wpb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::{BlockStats, Device, K40C};

    fn scan_ref(v: &[u32]) -> (Vec<u32>, u32) {
        let mut out = Vec::with_capacity(v.len());
        let mut run = 0u32;
        for &x in v {
            out.push(run);
            run += x;
        }
        (out, run)
    }

    type Scan = fn(&Device, &str, &GlobalBuffer<u32>, &GlobalBuffer<u32>, usize, usize) -> u32;

    /// Both device-wide scans, each by name.
    const SCANS: [(&str, Scan); 2] = [
        ("chained", exclusive_scan_u32),
        ("recursive", recursive_scan_u32),
    ];

    #[test]
    fn scan_matches_reference_across_sizes() {
        // Sizes straddle every edge: smaller than one tile (2048), exactly
        // one tile, one element past a tile boundary, and multi-tile with a
        // ragged tail — for both scans.
        for (name, scan) in SCANS {
            let dev = Device::new(K40C);
            for n in [
                1usize, 31, 32, 33, 255, 256, 2047, 2048, 2049, 10_000, 100_000,
            ] {
                let data: Vec<u32> = (0..n)
                    .map(|i| (i as u32).wrapping_mul(2654435761) % 13)
                    .collect();
                let input = GlobalBuffer::from_slice(&data);
                let output = GlobalBuffer::<u32>::zeroed(n);
                let total = scan(&dev, "t", &input, &output, n, 8);
                let (expect, expect_total) = scan_ref(&data);
                assert_eq!(output.to_vec(), expect, "{name} n={n}");
                assert_eq!(total, expect_total, "{name} n={n}");
            }
        }
    }

    #[test]
    fn scan_empty_is_zero() {
        for (name, scan) in SCANS {
            let dev = Device::new(K40C);
            let input = GlobalBuffer::<u32>::zeroed(0);
            let output = GlobalBuffer::<u32>::zeroed(0);
            assert_eq!(scan(&dev, "t", &input, &output, 0, 8), 0, "{name}");
            assert!(
                dev.records().is_empty(),
                "{name}: no kernel launched for empty scan"
            );
        }
    }

    #[test]
    fn scan_of_ones_is_identity_indices() {
        let dev = Device::new(K40C);
        let n = 5000;
        let input = GlobalBuffer::from_slice(&vec![1u32; n]);
        let output = GlobalBuffer::<u32>::zeroed(n);
        let total = exclusive_scan_u32(&dev, "t", &input, &output, n, 4);
        assert_eq!(total, n as u32);
        let out = output.to_vec();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn exclusive_scan_is_one_chained_launch() {
        let dev = Device::new(K40C);
        let n = 10_000;
        let input = GlobalBuffer::from_slice(&vec![1u32; n]);
        let output = GlobalBuffer::<u32>::zeroed(n);
        exclusive_scan_u32(&dev, "t", &input, &output, n, 8);
        let labels: Vec<String> = dev.records().iter().map(|r| r.label.clone()).collect();
        assert_eq!(labels, vec!["t/scan-chained"], "one kernel, chained label");
    }

    #[test]
    fn chained_parallel_and_sequential_agree() {
        // Bit-identity and schedule-independent stats for the chained scan
        // (same shape as simt's parallel_and_sequential_agree): the look-back
        // may take different paths under the two executors, but outputs and
        // counted traffic must not.
        let n = 100 * 2048 + 321; // 101 tiles, ragged tail
        let data: Vec<u32> = (0..n)
            .map(|i| (i as u32).wrapping_mul(2654435761) % 97)
            .collect();
        let mut outputs = Vec::new();
        let mut totals = Vec::new();
        let mut stats = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let input = GlobalBuffer::from_slice(&data);
            let output = GlobalBuffer::<u32>::zeroed(n);
            totals.push(exclusive_scan_u32(&dev, "t", &input, &output, n, 8));
            outputs.push(output.to_vec());
            stats.push(dev.records()[0].stats);
        }
        let (expect, expect_total) = scan_ref(&data);
        assert_eq!(outputs[0], expect);
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(totals[0], expect_total);
        assert_eq!(totals[0], totals[1]);
        assert_eq!(stats[0], stats[1], "stats must be schedule-independent");
    }

    #[test]
    fn chained_scan_lookback_obs_totals_are_schedule_independent() {
        // Introspection invariant at the scan level: exactly one look-back
        // resolve per tile (so the total is schedule-independent) and the
        // depth histogram sums to it, on both executors. Depths and spin
        // polls may differ between runs — they are exported, not asserted.
        let n: usize = 100 * 2048 + 321; // 101 tiles
        let tiles = n.div_ceil(scan_tile(8)) as u64;
        let data: Vec<u32> = (0..n).map(|i| i as u32 % 11).collect();
        let mut resolves = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let input = GlobalBuffer::from_slice(&data);
            let output = GlobalBuffer::<u32>::zeroed(n);
            exclusive_scan_u32(&dev, "t", &input, &output, n, 8);
            let obs = dev.records()[0].obs;
            assert_eq!(obs.lookback_resolves, tiles, "one resolve per tile");
            assert_eq!(obs.depth_hist_total(), obs.lookback_resolves);
            resolves.push(obs.lookback_resolves);
        }
        assert_eq!(resolves[0], resolves[1]);
    }

    #[test]
    fn chained_moves_at_least_30_percent_fewer_sectors() {
        // The tentpole claim at the scan level: at n = 2^20 the chained
        // stage must report >= 30% fewer global-memory sectors (and lower
        // estimated seconds) than the recursive reduce+downsweep stages.
        let n = 1 << 20;
        let data: Vec<u32> = (0..n).map(|i| (i as u32) % 7).collect();
        let sum_stats = |dev: &Device, needle: &str| {
            dev.records()
                .iter()
                .filter(|r| r.label.contains(needle))
                .fold((BlockStats::default(), 0.0), |(mut a, s), r| {
                    a += r.stats;
                    (a, s + r.seconds)
                })
        };
        let dev = Device::sequential(K40C);
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u32>::zeroed(n);
        exclusive_scan_u32(&dev, "t", &input, &output, n, 8);
        let (chained, chained_secs) = sum_stats(&dev, "scan-chained");
        let dev = Device::sequential(K40C);
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u32>::zeroed(n);
        recursive_scan_u32(&dev, "t", &input, &output, n, 8);
        let (reduce, reduce_secs) = sum_stats(&dev, "scan-reduce");
        let (down, down_secs) = sum_stats(&dev, "scan-downsweep");
        let recursive_sectors = reduce.sectors + down.sectors;
        assert!(
            (chained.sectors as f64) <= 0.70 * recursive_sectors as f64,
            "chained {} vs recursive {} sectors: need >= 30% reduction",
            chained.sectors,
            recursive_sectors
        );
        assert!(
            chained_secs < reduce_secs + down_secs,
            "chained {chained_secs} s vs recursive {} s",
            reduce_secs + down_secs
        );
    }

    #[test]
    fn scan_is_coalesced() {
        // A fully-coalesced chained scan should move close to the ideal
        // byte count: one read + one write of the input (plus tile state).
        let dev = Device::new(K40C);
        let n = 1 << 16;
        let input = GlobalBuffer::from_slice(&vec![1u32; n]);
        let output = GlobalBuffer::<u32>::zeroed(n);
        exclusive_scan_u32(&dev, "t", &input, &output, n, 8);
        let stats = dev
            .records()
            .iter()
            .fold(simt::BlockStats::default(), |mut a, r| {
                a += r.stats;
                a
            });
        let ideal = (2 * n * 4) as u64;
        assert!(
            stats.dram_bytes() < ideal + ideal / 4,
            "scan traffic {} should be within 25% of ideal {}",
            stats.dram_bytes(),
            ideal
        );
    }

    #[test]
    fn reduce_matches_reference() {
        let dev = Device::new(K40C);
        for n in [1usize, 100, 2048, 50_000] {
            let data: Vec<u32> = (0..n).map(|i| i as u32 % 7).collect();
            let input = GlobalBuffer::from_slice(&data);
            let got = reduce_add_u32(&dev, "t", &input, n, 8);
            assert_eq!(got, data.iter().sum::<u32>(), "n={n}");
        }
    }

    #[test]
    fn reduce_empty_is_zero() {
        let dev = Device::new(K40C);
        let input = GlobalBuffer::<u32>::zeroed(0);
        assert_eq!(reduce_add_u32(&dev, "t", &input, 0, 8), 0);
    }

    #[test]
    fn multi_level_recursion_works() {
        // Force 3 levels: tile = 8*32*8 = 2048; need > 2048 blocks. This
        // test exercises the recursion on partials, which the chained scan
        // doesn't have.
        let dev = Device::new(K40C);
        let n = 2048 * 2048 + 17;
        let data = vec![1u32; n];
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u32>::zeroed(n);
        let total = recursive_scan_u32(&dev, "t", &input, &output, n, 8);
        assert_eq!(total, n as u32);
        assert_eq!(output.get(n - 1), (n - 1) as u32);
        assert_eq!(output.get(12345), 12345);
    }

    #[test]
    fn chained_handles_huge_grids() {
        // The chained counterpart of multi_level_recursion_works: > 2048
        // tiles all resolved through one kernel's look-back chain.
        let dev = Device::new(K40C);
        let n = 2048 * 2048 + 17;
        let data = vec![1u32; n];
        let input = GlobalBuffer::from_slice(&data);
        let output = GlobalBuffer::<u32>::zeroed(n);
        let total = exclusive_scan_u32(&dev, "t", &input, &output, n, 8);
        assert_eq!(total, n as u32);
        assert_eq!(output.get(n - 1), (n - 1) as u32);
        assert_eq!(output.get(12345), 12345);
        assert_eq!(dev.records().len(), 1, "single-pass: exactly one launch");
    }
}
