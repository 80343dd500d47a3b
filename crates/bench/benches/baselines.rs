//! Wall-clock benches for the baseline methods (tiny offline harness;
//! the *modeled* GPU times come from `paper table4/5`).

use baselines::ReducedBitStrategy::MsSort;
use msbench::microbench::time;
use msbench::{gen_keys, Distribution};
use multisplit::{no_values, RangeBuckets};
use simt::{Device, GlobalBuffer, K40C};

fn main() {
    let n = 1 << 16;
    let keys_host = gen_keys(n, 8, Distribution::Uniform, 1);
    let keys = GlobalBuffer::from_slice(&keys_host);
    let bucket = RangeBuckets::new(8);

    {
        let dev = Device::new(K40C);
        time("baselines/radix_sort_32bit", || {
            dev.reset();
            baselines::radix_sort(&dev, "r", &keys, no_values(), n, 8)
        });
    }
    {
        let dev = Device::new(K40C);
        time("baselines/reduced_bit_m8", || {
            dev.reset();
            baselines::reduced_bit_multisplit(&dev, MsSort, &keys, n, &bucket, 8)
        });
    }
    {
        let dev = Device::new(K40C);
        time("baselines/recursive_split_m8", || {
            dev.reset();
            baselines::recursive_scan_multisplit(&dev, &keys, no_values(), n, &bucket, 8)
        });
    }
    {
        let dev = Device::new(K40C);
        time("baselines/randomized_x2_m8", || {
            dev.reset();
            baselines::randomized_multisplit(&dev, &keys, n, &bucket, Default::default())
        });
    }
}
