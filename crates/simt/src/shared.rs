//! Per-block shared memory with bank-conflict accounting.
//!
//! Shared memory on NVIDIA hardware is organized in 32 four-byte banks; a
//! warp-wide access that hits the same bank from multiple lanes serializes.
//! We charge each warp-wide access its *serialized* cost: the maximum
//! number of active lanes mapped to any single bank. Conflict-free accesses
//! therefore cost `active_lanes` lane-ops; a worst-case 32-way conflict
//! costs `32 * active_lanes`.

use std::cell::RefCell;

use crate::lanes::{active_lanes, lanes_from_fn, Lanes, WARP_SIZE};
use crate::memory::Scalar;
use crate::stats::StatCells;

/// Number of shared-memory banks (4-byte wide each).
pub const SMEM_BANKS: usize = 32;

/// CUB-style conflict-avoidance padding: one pad word inserted after every
/// [`SMEM_BANKS`] logical elements, so logical stride-32 column accesses
/// land on distinct banks. Staging buffers sized with [`padded_len`] and
/// addressed through this mapping trade a few percent of capacity for
/// conflict-free block-wide reorders.
#[inline]
pub fn padded_index(i: usize) -> usize {
    i + i / SMEM_BANKS
}

/// Physical length a padded buffer needs to hold `len` logical elements
/// addressed through [`padded_index`].
#[inline]
pub fn padded_len(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        padded_index(len - 1) + 1
    }
}

/// A shared-memory array, alive for the duration of one block.
pub struct SharedBuf<'a, T: Scalar> {
    data: RefCell<Box<[T]>>,
    stats: &'a StatCells,
}

impl<'a, T: Scalar> SharedBuf<'a, T> {
    pub(crate) fn new(len: usize, stats: &'a StatCells) -> Self {
        Self {
            data: RefCell::new(vec![T::default(); len].into_boxed_slice()),
            stats,
        }
    }

    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialized cost of one warp-wide access, as `(ops, conflicts)`.
    ///
    /// Hardware broadcasts same-word accesses (multicast), so plain
    /// loads/stores conflict only on *distinct* words mapping to the same
    /// bank; atomics additionally serialize same-word lanes
    /// (`serialize_duplicates`). Ops = worst-case bank passes times the
    /// active lane count; conflicts = the passes *beyond* the first times
    /// the active lane count (the serialization a conflict-free layout
    /// would have avoided — zero for an unconflicted access).
    ///
    /// Plain accesses are priced in rounds: each round keeps one word per
    /// bank (its last remaining lane's) and retires every lane holding
    /// it, so the rounds a request takes are the most distinct words any
    /// bank sees. A round is branch-free over all 32 lanes, with inactive
    /// and retired lanes parked in a 33rd bank; a conflict-free access
    /// takes one round. Atomics count the active lanes per bank instead.
    fn bank_cost(idx: &Lanes<usize>, mask: u32, serialize_duplicates: bool) -> (u64, u64) {
        if mask == 0 {
            return (0, 0);
        }
        // Bank id depends on the 4-byte word address.
        let words = lanes_from_fn(|l| idx[l] * (T::BYTES as usize / 4).max(1));
        let bank = |live: u32, l: usize| {
            if live >> l & 1 == 1 {
                words[l] % SMEM_BANKS
            } else {
                SMEM_BANKS
            }
        };
        let passes = if serialize_duplicates {
            let mut lanes_in = [0u8; SMEM_BANKS + 1];
            for l in 0..WARP_SIZE {
                lanes_in[bank(mask, l)] += 1;
            }
            lanes_in[..SMEM_BANKS].iter().copied().max().unwrap_or(0) as u64
        } else {
            let (mut live, mut rounds) = (mask, 0);
            while live != 0 {
                let mut kept = [0usize; SMEM_BANKS + 1];
                for l in 0..WARP_SIZE {
                    kept[bank(live, l)] = words[l];
                }
                let mut other = 0u32;
                for l in 0..WARP_SIZE {
                    other |= ((kept[words[l] % SMEM_BANKS] != words[l]) as u32) << l;
                }
                live &= other;
                rounds += 1;
            }
            rounds
        };
        let lanes = mask.count_ones() as u64;
        (passes * lanes, (passes - 1) * lanes)
    }

    /// Charge one warp-wide access: serialized passes into `smem_ops`,
    /// the avoidable surplus into `smem_bank_conflicts`.
    fn charge(&self, idx: &Lanes<usize>, mask: u32, serialize_duplicates: bool) {
        let (ops, conflicts) = Self::bank_cost(idx, mask, serialize_duplicates);
        StatCells::bump(&self.stats.smem_ops, ops);
        StatCells::bump(&self.stats.smem_bank_conflicts, conflicts);
    }

    /// Warp-wide load.
    pub fn ld(&self, idx: Lanes<usize>, mask: u32) -> Lanes<T> {
        self.charge(&idx, mask, false);
        let data = self.data.borrow();
        let mut out = [T::default(); WARP_SIZE];
        for lane in active_lanes(mask) {
            out[lane] = data[idx[lane]];
        }
        out
    }

    /// Warp-wide store.
    pub fn st(&self, idx: Lanes<usize>, val: Lanes<T>, mask: u32) {
        self.charge(&idx, mask, false);
        let mut data = self.data.borrow_mut();
        for lane in active_lanes(mask) {
            data[idx[lane]] = val[lane];
        }
    }

    /// Warp-wide read-modify-write add; returns the previous values.
    ///
    /// Lanes hitting the same index accumulate correctly (lane order), as
    /// shared-memory atomics do on hardware; the bank-conflict charge
    /// already prices the serialization of same-index lanes.
    pub fn atomic_add(&self, idx: Lanes<usize>, val: Lanes<T>, mask: u32) -> Lanes<T>
    where
        T: std::ops::Add<Output = T>,
    {
        self.charge(&idx, mask, true);
        let mut data = self.data.borrow_mut();
        let mut out = [T::default(); WARP_SIZE];
        for lane in active_lanes(mask) {
            out[lane] = data[idx[lane]];
            data[idx[lane]] = out[lane] + val[lane];
        }
        out
    }

    /// Single-thread load (costs one op).
    pub fn get(&self, idx: usize) -> T {
        StatCells::bump(&self.stats.smem_ops, 1);
        self.data.borrow()[idx]
    }

    /// Single-thread store (costs one op).
    pub fn set(&self, idx: usize, v: T) {
        StatCells::bump(&self.stats.smem_ops, 1);
        self.data.borrow_mut()[idx] = v;
    }

    /// The same shared bytes as `U` elements, like a CUDA kernel that
    /// casts one staging array to another type once it is done with the
    /// first: the block's budget is not charged again. The old contents
    /// do not carry over, so a kernel must write every word it reads
    /// back (here it reads zero, on a GPU the bits of the old type).
    pub fn recast<U: Scalar>(self) -> SharedBuf<'a, U> {
        let bytes = self.len() * T::BYTES as usize;
        SharedBuf::new(bytes / U::BYTES as usize, self.stats)
    }

    /// Zero-cost debug snapshot (host-side inspection in tests).
    pub fn snapshot(&self) -> Vec<T> {
        self.data.borrow().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{lane_active, lanes_from_fn, splat, FULL_MASK};

    #[test]
    fn conflict_free_access_costs_warp_width() {
        let st = StatCells::default();
        let buf = SharedBuf::<u32>::new(64, &st);
        buf.st(lanes_from_fn(|i| i), lanes_from_fn(|i| i as u32), FULL_MASK);
        assert_eq!(st.smem_ops.get(), 32, "one lane per bank: fully parallel");
        assert_eq!(st.smem_bank_conflicts.get(), 0);
        let got = buf.ld(lanes_from_fn(|i| i), FULL_MASK);
        assert_eq!(got[13], 13);
    }

    #[test]
    fn same_bank_stride_serializes() {
        let st = StatCells::default();
        let buf = SharedBuf::<u32>::new(32 * 32, &st);
        // Stride 32: every lane hits bank 0 -> 32-way conflict.
        buf.ld(lanes_from_fn(|i| i * 32), FULL_MASK);
        assert_eq!(st.smem_ops.get(), 32 * 32);
        // 31 avoidable extra passes x 32 active lanes.
        assert_eq!(st.smem_bank_conflicts.get(), 31 * 32);
    }

    #[test]
    fn padding_breaks_stride_conflicts() {
        let st = StatCells::default();
        let buf = SharedBuf::<u32>::new(padded_len(32 * 32), &st);
        // The same logical stride-32 column access through the padded
        // mapping touches 32 distinct banks: conflict-free.
        buf.ld(lanes_from_fn(|i| padded_index(i * 32)), FULL_MASK);
        assert_eq!(st.smem_ops.get(), 32);
        assert_eq!(st.smem_bank_conflicts.get(), 0);
    }

    #[test]
    fn padded_index_and_len_are_consistent() {
        assert_eq!(padded_index(0), 0);
        assert_eq!(padded_index(31), 31);
        assert_eq!(padded_index(32), 33, "one pad word per 32 elements");
        assert_eq!(padded_index(64), 66);
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(32), 32);
        assert_eq!(padded_len(33), 34);
        // The mapping is strictly increasing, so padded slots never alias.
        for i in 1..4096 {
            assert!(padded_index(i) > padded_index(i - 1));
            assert!(padded_index(i) < padded_len(4096));
        }
    }

    #[test]
    fn same_word_reads_broadcast() {
        // Hardware multicasts same-word accesses: one pass.
        let st = StatCells::default();
        let buf = SharedBuf::<u32>::new(4, &st);
        buf.ld(splat(0), 0b1111);
        assert_eq!(st.smem_ops.get(), 4, "one pass for 4 active lanes");
        assert_eq!(st.smem_bank_conflicts.get(), 0);
    }

    /// The rounds price every access exactly as a linear search over all
    /// distinct words does.
    #[test]
    fn bank_local_dedupe_matches_a_linear_search() {
        fn linear(idx: &Lanes<usize>, mask: u32, dups: bool) -> (u64, u64) {
            let mut per_bank = [0u64; SMEM_BANKS];
            let mut seen = Vec::new();
            for lane in (0..WARP_SIZE).filter(|&l| lane_active(mask, l)) {
                if !dups && seen.contains(&idx[lane]) {
                    continue;
                }
                seen.push(idx[lane]);
                per_bank[idx[lane] % SMEM_BANKS] += 1;
            }
            let worst = per_bank.into_iter().max().unwrap().max(1);
            let lanes = mask.count_ones() as u64;
            (worst * lanes, (worst - 1) * lanes)
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..4000 {
            // Few distinct words per pattern force broadcasts and
            // same-bank repeats; many force conflicts.
            let spread = [1, 3, 40, 100, 1 << 12][case % 5];
            let idx = lanes_from_fn(|_| (next() % spread) as usize);
            let mask = if case % 3 == 0 {
                FULL_MASK
            } else {
                next() as u32
            };
            for dups in [false, true] {
                assert_eq!(
                    SharedBuf::<u32>::bank_cost(&idx, mask, dups),
                    linear(&idx, mask, dups),
                    "{idx:?} mask {mask:#x} dups {dups}"
                );
            }
        }
    }

    #[test]
    fn atomics_serialize_same_word_lanes() {
        let st = StatCells::default();
        let buf = SharedBuf::<u32>::new(4, &st);
        // Write the word before the atomic reads it, then count only the
        // atomic's own traffic.
        buf.set(0, 0);
        let (ops, conflicts) = (st.smem_ops.get(), st.smem_bank_conflicts.get());
        buf.atomic_add(splat(0), splat(1u32), 0b1111);
        // 4 serialized passes x 4 active lanes.
        assert_eq!(st.smem_ops.get() - ops, 16);
        // 3 avoidable passes x 4 active lanes.
        assert_eq!(st.smem_bank_conflicts.get() - conflicts, 12);
        assert_eq!(buf.get(0), 4);
    }

    #[test]
    fn u64_elements_use_word_banks() {
        let st = StatCells::default();
        let buf = SharedBuf::<u64>::new(64, &st);
        // Consecutive u64s map to even banks only -> 2-way conflicts.
        buf.ld(lanes_from_fn(|i| i), FULL_MASK);
        assert_eq!(st.smem_ops.get(), 64);
        assert_eq!(st.smem_bank_conflicts.get(), 32);
    }

    #[test]
    fn recast_keeps_the_bytes_and_their_banks() {
        let st = StatCells::default();
        let words = SharedBuf::<u32>::new(64, &st);
        let pairs = words.recast::<u64>();
        assert_eq!(pairs.len(), 32);
        // Consecutive u64s cost what a freshly allocated u64 buffer does.
        pairs.st(lanes_from_fn(|i| i), lanes_from_fn(|i| i as u64), FULL_MASK);
        assert_eq!(st.smem_ops.get(), 64);
        assert_eq!(st.smem_bank_conflicts.get(), 32);
        assert_eq!(pairs.recast::<u32>().len(), 64);
    }

    #[test]
    fn scalar_ops_cost_one() {
        let st = StatCells::default();
        let buf = SharedBuf::<u32>::new(8, &st);
        buf.set(3, 99);
        assert_eq!(buf.get(3), 99);
        assert_eq!(st.smem_ops.get(), 2);
        assert_eq!(st.smem_bank_conflicts.get(), 0);
    }

    #[test]
    fn inactive_warp_access_is_free() {
        let st = StatCells::default();
        let buf = SharedBuf::<u32>::new(8, &st);
        buf.ld(splat(0), 0);
        assert_eq!(st.smem_ops.get(), 0);
        assert_eq!(st.smem_bank_conflicts.get(), 0);
    }
}
