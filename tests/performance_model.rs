//! Model-level invariants: the paper's qualitative performance claims must
//! hold in the cost model (these are the claims the benchmark harness
//! quantifies; here they gate CI).

use msbench::{
    gen_keys, run_contender, scan_stage_cost, subproblem_histogram, Contender, Distribution, Run,
};
use multisplit::{
    multisplit_device, multisplit_segmented, no_values, Method, RangeBuckets, SegmentSpec,
};
use simt::{BlockStats, Device, GlobalBuffer, GTX750TI, K40C};

const N: usize = 1 << 16;

/// An unverified run of `c` at seed 42.
fn at(c: Contender, n: usize, m: u32) -> Run {
    Run {
        seed: 42,
        verify: false,
        ..Run::new(c, n, m)
    }
}

fn time(c: Contender, kv: bool, m: u32) -> f64 {
    run_contender(&Run {
        key_value: kv,
        ..at(c, N, m)
    })
    .total
}

#[test]
fn every_multisplit_method_beats_radix_sort_for_small_m() {
    // Paper Table 6: all speedups > 1 for m <= 32.
    for kv in [false, true] {
        let radix = time(Contender::RadixSort, kv, 8);
        for c in [
            Contender::Direct,
            Contender::WarpLevel,
            Contender::BlockLevel,
            Contender::ReducedBit,
        ] {
            for m in [2u32, 8, 32] {
                let t = time(c, kv, m);
                assert!(
                    t < radix,
                    "{} m={m} kv={kv}: {t} !< radix {radix}",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn warp_level_wins_at_two_buckets_block_level_wins_at_thirty_two() {
    // Paper §6.2: warp-level MS is fastest for small m; block-level for
    // large m (key-only crossovers at ~6 and ~22). Needs a realistic input
    // size — at tiny n kernel-launch overheads swamp the work and invert
    // the small-m ordering.
    let big = 1 << 20;
    let t = |c: Contender, m: u32| run_contender(&at(c, big, m)).total;
    let w2 = t(Contender::WarpLevel, 2);
    let d2 = t(Contender::Direct, 2);
    assert!(
        w2 <= d2,
        "warp-level must beat direct at m=2: w={w2} d={d2}"
    );
    let w32 = t(Contender::WarpLevel, 32);
    let d32 = t(Contender::Direct, 32);
    let b32 = t(Contender::BlockLevel, 32);
    assert!(
        b32 <= w32 && b32 <= d32,
        "block-level must win at m=32: w={w32} d={d32} b={b32}"
    );
}

#[test]
fn multisplit_times_grow_with_bucket_count() {
    // Fig. 3: every method's uniform-distribution time is (weakly)
    // increasing in m over the 2..32 range.
    for c in [
        Contender::Direct,
        Contender::WarpLevel,
        Contender::BlockLevel,
    ] {
        let t2 = time(c, false, 2);
        let t32 = time(c, false, 32);
        assert!(
            t32 > t2,
            "{}: m=32 ({t32}) should cost more than m=2 ({t2})",
            c.name()
        );
    }
}

#[test]
fn reduced_bit_sort_scales_logarithmically_not_linearly() {
    // Fig. 4: reduced-bit sort depends on ceil(log m) while the block
    // method's histogram machinery scales with m.
    let r64 = time(Contender::ReducedBit, false, 64);
    let r1024 = time(Contender::ReducedBit, false, 1024);
    // log2: 6 bits -> 10 bits: at most ~2x, nowhere near 16x.
    assert!(
        r1024 < 2.5 * r64,
        "reduced-bit 1024 buckets {r1024} vs 64 buckets {r64}"
    );
}

#[test]
fn key_value_costs_more_than_key_only() {
    for c in [
        Contender::Direct,
        Contender::WarpLevel,
        Contender::BlockLevel,
        Contender::ReducedBit,
    ] {
        let k = time(c, false, 8);
        let kv = time(c, true, 8);
        assert!(kv > k, "{}: kv {kv} must exceed key-only {k}", c.name());
    }
}

#[test]
fn skewed_distributions_are_faster_than_uniform() {
    // Fig. 5: uniform is the worst case for the reordering methods.
    for dist in [Distribution::Binomial, Distribution::Skew75] {
        let run = |dist| {
            run_contender(&Run {
                dist,
                seed: 7,
                ..at(Contender::BlockLevel, N, 16)
            })
        };
        let (u, s) = (run(Distribution::Uniform), run(dist));
        assert!(
            s.total < u.total,
            "{}: skewed {:.4}ms should beat uniform {:.4}ms",
            dist.name(),
            s.total * 1e3,
            u.total * 1e3
        );
    }
}

#[test]
fn scan_split_beats_radix_at_two_buckets() {
    // Table 3's story: for 2 buckets a single split crushes a full sort.
    let split = run_contender(&Run {
        seed: 1,
        verify: true,
        ..Run::new(Contender::ScanSplit, N, 2)
    })
    .total;
    let radix = time(Contender::RadixSort, false, 2);
    assert!(
        split * 2.0 < radix,
        "split {split} should be far below radix {radix}"
    );
}

#[test]
fn randomized_insertion_loses_to_radix() {
    // §3.5's conclusion at its best setting x = 2. Evaluated at 4N: at
    // 2^16 keys radix's fixed per-pass launch overhead (7 passes) puts the
    // two within a few percent of each other, which is not the regime the
    // paper's asymptotic claim is about; from 2^17 up the gap is >= 1.5x
    // and widens with n.
    let n = 4 * N;
    let rand = run_contender(&at(Contender::Randomized(2.0), n, 8)).total;
    let radix = run_contender(&at(Contender::RadixSort, n, 8)).total;
    assert!(
        rand > radix,
        "randomized {rand} should lose to radix {radix}"
    );
}

#[test]
fn maxwell_is_slower_but_prefers_reordering_more() {
    // §6.3: same ordering, and the reordering methods gain more on the
    // 750 Ti relative to Direct MS.
    let m = 16u32;
    let k40_direct = time(Contender::Direct, false, m);
    let k40_block = time(Contender::BlockLevel, false, m);
    let maxwell = |c| {
        run_contender(&Run {
            profile: GTX750TI,
            ..at(c, N, m)
        })
        .total
    };
    let (max_direct, max_block) = (maxwell(Contender::Direct), maxwell(Contender::BlockLevel));
    assert!(max_direct > k40_direct, "750 Ti must be slower overall");
    let k40_gain = k40_direct / k40_block;
    let max_gain = max_direct / max_block;
    assert!(
        max_gain > k40_gain,
        "reordering should pay off more on Maxwell: {max_gain:.2} vs {k40_gain:.2}"
    );
}

#[test]
fn speed_of_light_is_respected() {
    // No configuration may exceed the §6.2.2 bound.
    for kv in [false, true] {
        let light = K40C.speed_of_light_gkeys(kv);
        for c in [
            Contender::Direct,
            Contender::WarpLevel,
            Contender::BlockLevel,
        ] {
            for m in [2u32, 32] {
                let o = run_contender(&Run {
                    key_value: kv,
                    seed: 3,
                    ..at(c, N, m)
                });
                let rate = o.gkeys(N);
                assert!(
                    rate < light,
                    "{} m={m} kv={kv}: {rate} exceeds light {light}",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn stage_breakdown_sums_to_total() {
    let o = run_contender(&Run {
        seed: 5,
        ..at(Contender::BlockLevel, N, 16)
    });
    let sum: f64 = o.stages.iter().map(|(_, t)| t).sum();
    assert!(
        (sum - o.total).abs() < 1e-12,
        "stages {sum} != total {}",
        o.total
    );
}

/// `paper scan` prices the recursive scan by scanning each three-kernel
/// method's m·L histogram directly. The rule it rests on: a method's scan
/// stage is exactly one `exclusive_scan_u32` over its m·L histogram, in
/// sectors and modeled seconds; and `recursive_scan_u32` over that buffer
/// gives the same scanned histogram (so the same multisplit) at a cost
/// that depends only on the buffer's length.
#[test]
fn scan_stage_is_one_scan_of_the_m_by_l_histogram() {
    type Scan = fn(&Device, &str, &GlobalBuffer<u32>, &GlobalBuffer<u32>, usize, usize) -> u32;
    let (m, wpb) = (32u32, 8usize);
    let bucket = RangeBuckets::new(m);
    let keys_host = gen_keys(N, m, Distribution::Uniform, 7);
    let keys = GlobalBuffer::from_slice(&keys_host);
    // One scan of `input` on a fresh sequential device: its output and cost.
    let scan_once = |scan: Scan, input: &[u32]| {
        let dev = Device::sequential(K40C);
        let output = GlobalBuffer::<u32>::zeroed(input.len());
        let input = GlobalBuffer::from_slice(input);
        scan(&dev, "x/scan", &input, &output, input.len(), wpb);
        (output.to_vec(), scan_stage_cost(&dev))
    };
    for (method, sub) in [
        (Method::Direct, 32),
        (Method::WarpLevel, 32),
        (Method::BlockLevel, 32 * wpb),
    ] {
        let dev = Device::sequential(K40C);
        let r = multisplit_device(&dev, method, &keys, no_values(), N, &bucket, wpb);
        let hist = subproblem_histogram(&keys_host, &bucket, sub);
        assert_eq!(hist.len(), m as usize * N.div_ceil(sub));
        let (chained, chained_cost) = scan_once(primitives::exclusive_scan_u32, &hist);
        assert_eq!(
            chained_cost,
            scan_stage_cost(&dev),
            "{method:?}: chained stage"
        );
        let l = N.div_ceil(sub);
        let row_starts: Vec<u32> = (0..m as usize).map(|b| chained[b * l]).collect();
        assert_eq!(row_starts, r.offsets[..m as usize], "{method:?}: histogram");
        let (recursive, recursive_cost) = scan_once(primitives::recursive_scan_u32, &hist);
        assert_eq!(recursive, chained, "{method:?}: recursive output");
        assert!(recursive_cost.0 > chained_cost.0, "{method:?}");
        let zeros = vec![0u32; hist.len()];
        for scan in [
            primitives::exclusive_scan_u32 as Scan,
            primitives::recursive_scan_u32,
        ] {
            assert_eq!(
                scan_once(scan, &zeros).1,
                scan_once(scan, &hist).1,
                "{method:?}"
            );
        }
    }
}

// ---- Cost-model properties: every modeled number rests on how
// `DeviceProfile::estimate` prices counted events, on both profiles.

/// A `BlockStats` counter, by name.
type Counter = (&'static str, fn(&mut BlockStats) -> &mut u64);

/// Every `BlockStats` counter.
const COUNTERS: [Counter; 12] = [
    ("sectors", |s| &mut s.sectors),
    ("useful_bytes", |s| &mut s.useful_bytes),
    ("global_requests", |s| &mut s.global_requests),
    ("replays", |s| &mut s.replays),
    ("atomic_ops", |s| &mut s.atomic_ops),
    ("atomic_conflicts", |s| &mut s.atomic_conflicts),
    ("smem_ops", |s| &mut s.smem_ops),
    ("smem_bank_conflicts", |s| &mut s.smem_bank_conflicts),
    ("intrinsics", |s| &mut s.intrinsics),
    ("lane_ops", |s| &mut s.lane_ops),
    ("barriers", |s| &mut s.barriers),
    ("divergent_iters", |s| &mut s.divergent_iters),
];

/// Launches of every pre-scan and sweep shape on `dev`: fused, fused
/// large-m, a segmented batch and an ms-sort.
fn run_mixed_launches(dev: &Device) {
    let n = 20_000;
    let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let keys = GlobalBuffer::from_slice(&data);
    for m in [8u32, 100] {
        let bucket = RangeBuckets::new(m);
        multisplit_device(
            dev,
            Method::auto_for(m, false, 8),
            &keys,
            no_values(),
            n,
            &bucket,
            8,
        );
    }
    let (b1, b2) = (RangeBuckets::new(4), RangeBuckets::new(64));
    let segs = [
        SegmentSpec {
            offset: 0,
            n: 1000,
            bucket: &b1,
        },
        SegmentSpec {
            offset: 1024,
            n: 9000,
            bucket: &b2,
        },
    ];
    multisplit_segmented(dev, &keys, no_values(), &segs, 8);
    ms_sort::sort_keys(dev, &keys, n, 8);
}

#[test]
fn estimate_never_falls_when_a_counter_rises() {
    for profile in [K40C, GTX750TI] {
        let dev = Device::sequential(profile);
        run_mixed_launches(&dev);
        let mut bases: Vec<BlockStats> = dev.records().iter().map(|r| r.stats).collect();
        bases.push(BlockStats::default());
        for base in bases {
            let before = profile.estimate(&base);
            for (name, counter) in COUNTERS {
                for delta in [1u64, 977, 1 << 20, 1 << 36] {
                    let mut raised = base;
                    *counter(&mut raised) += delta;
                    if name == "useful_bytes" {
                        // Useful bytes are a share of the sector bytes:
                        // at fixed sectors they would only move bytes out
                        // of the waste term, which GTX750TI prices above
                        // useful traffic. Raised, they arrive in sectors.
                        raised.sectors += delta.div_ceil(32);
                    }
                    let after = profile.estimate(&raised);
                    assert!(
                        after >= before,
                        "{}: +{delta} {name} lowers {before} to {after} ({base:?})",
                        profile.name
                    );
                }
            }
        }
    }
}

#[test]
fn total_seconds_is_the_sum_of_the_launch_records() {
    for profile in [K40C, GTX750TI] {
        let dev = Device::sequential(profile);
        run_mixed_launches(&dev);
        let records = dev.records();
        assert!(records.len() > 6, "{} launches", records.len());
        let mut sum = 0.0;
        for r in &records {
            assert_eq!(r.seconds, profile.estimate(&r.stats), "{}", r.label);
            sum += r.seconds;
        }
        assert_eq!(dev.total_seconds(), sum, "{}", profile.name);
        // Launch groups partition the total.
        let parts: f64 = ["fused/", "fused_large_m/", "segmented/", "ms_sort/"]
            .iter()
            .map(|p| dev.seconds_with_prefix(p))
            .sum();
        assert!(
            (parts - sum).abs() <= 1e-15 * sum.max(1.0),
            "{parts} vs {sum}"
        );
    }
}

#[test]
fn an_empty_launch_costs_exactly_the_launch_overhead() {
    for profile in [K40C, GTX750TI] {
        let overhead = profile.launch_overhead_us * 1e-6;
        assert_eq!(profile.estimate(&BlockStats::default()), overhead);
        let dev = Device::sequential(profile);
        dev.launch("empty", 4, 8, |_| {});
        assert_eq!(dev.records()[0].stats, BlockStats::default());
        assert_eq!(dev.records()[0].seconds, overhead, "{}", profile.name);
        assert_eq!(dev.total_seconds(), overhead);
    }
}
