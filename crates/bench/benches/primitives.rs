//! Wall-clock benches for the device-wide primitives (scan, reduce,
//! histogram, split) — simulator throughput on the host.

use msbench::microbench::time;
use primitives::{
    exclusive_scan_u32, histogram_shared_atomic, recursive_scan_u32, reduce_add_u32, split_by_pred,
};
use simt::{Device, GlobalBuffer, K40C};

fn main() {
    for log_n in [14usize, 18] {
        let n = 1 << log_n;
        let data: Vec<u32> = (0..n as u32).map(|i| i % 5).collect();
        {
            let dev = Device::new(K40C);
            let input = GlobalBuffer::from_slice(&data);
            let output = GlobalBuffer::<u32>::zeroed(n);
            time(&format!("scan/chained/n{n}"), || {
                dev.reset();
                exclusive_scan_u32(&dev, "bench", &input, &output, n, 8)
            });
            time(&format!("scan/recursive/n{n}"), || {
                dev.reset();
                recursive_scan_u32(&dev, "bench", &input, &output, n, 8)
            });
        }
        {
            let dev = Device::new(K40C);
            let input = GlobalBuffer::from_slice(&data);
            time(&format!("reduce/n{n}"), || {
                dev.reset();
                reduce_add_u32(&dev, "bench", &input, n, 8)
            });
        }
    }
    let n = 1 << 16;
    let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
    {
        let dev = Device::new(K40C);
        let input = GlobalBuffer::from_slice(&data);
        time("histogram_shared_m16", || {
            dev.reset();
            histogram_shared_atomic(&dev, "bench", &input, n, 16, 8, |k| k % 16)
        });
    }
    {
        let dev = Device::new(K40C);
        let input = GlobalBuffer::from_slice(&data);
        time("split_by_parity", || {
            dev.reset();
            split_by_pred(&dev, "bench", &input, None, n, 8, |k| k & 1 == 1)
        });
    }
}
