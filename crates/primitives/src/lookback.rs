//! Decoupled look-back tile states, reusable across aggregate shapes.
//!
//! The chained scan resolves **scalar** tile prefixes by publishing one
//! packed `(value << 2 | flag)` word per tile and walking predecessor
//! tiles' words. The fused multisplit needs the same protocol over
//! **m-row vectors** — one flag word per bucket per tile — so the
//! machinery lives here, parameterized by the number of rows, in one
//! state type, [`SegmentedTileStates`]:
//! [`SegmentedTileStates::new(&[(tiles, 1)])`](SegmentedTileStates::new)
//! is the scalar scan's state, `new(&[(tiles, m)])` carries a bucket
//! histogram per tile, and a segmented batch packs one window per
//! segment.
//!
//! Protocol (Merrill & Garland, *Single-pass Parallel Prefix Scan with
//! Decoupled Look-back*): a tile publishes `aggregate | AGGREGATE`, walks
//! back over predecessors summing aggregates until it meets an
//! `INCLUSIVE` word (per row, independently), then publishes
//! `prefix + aggregate | INCLUSIVE`. Tile 0 publishes `INCLUSIVE`
//! directly.
//!
//! ### Deadlock freedom
//!
//! Tickets must be claimed with a device-scope `fetch_add` at block start,
//! so ticket order is *task-start* order: tile `t` only ever waits on
//! tiles `< t`, all of which have already started. The executor in
//! `simt::Device` runs blocks on OS threads that claim block ids from a
//! shared counter, so a started block always makes progress (the spin
//! wait yields); on `Device::sequential` predecessors have finished
//! before tile `t` even starts and every look-back resolves in one hop.
//!
//! ### Schedule-independent accounting
//!
//! Spin-polls go through the uncounted `device_peek` path (on hardware
//! they hit the hottest, L2-resident lines on the device, and counting
//! retries would make stats depend on thread interleaving). Each tile is
//! charged a fixed, deterministic cost instead: per warp-sized row group,
//! its two record publishes plus one counted record-sized look-back read
//! — so parallel and sequential devices report identical
//! [`simt::BlockStats`]. Records wider than a warp (`rows > 32`, the
//! fused large-m multisplit) simply span multiple groups; `rows <= 32`
//! is one group and reproduces the chained scan's billing bit-for-bit.

use std::sync::atomic::{AtomicUsize, Ordering};

use simt::{lanes_from_fn, EventKind, GlobalBuffer, Lanes, ObsCells, WarpCtx, WARP_SIZE};

use crate::block_scan::low_lanes_mask;

/// Flag values of a tile-state word (low 2 bits).
pub const FLAG_EMPTY: u64 = 0;
pub const FLAG_AGGREGATE: u64 = 1;
pub const FLAG_INCLUSIVE: u64 = 2;

/// Pack a value and a flag into one state word, so a single device-scope
/// load observes both atomically together.
#[inline]
pub fn pack(value: u32, flag: u64) -> u64 {
    (value as u64) << 2 | flag
}

/// Inverse of [`pack`].
#[inline]
pub fn unpack(word: u64) -> (u32, u64) {
    ((word >> 2) as u32, word & 3)
}

/// Spin until the state word at `idx` is published (flag != EMPTY).
///
/// Polls through the uncounted `device_peek` path; the deterministic
/// charge happens once per tile in `resolve_rows_at`. Poll
/// iterations go to the uncounted `obs` side-channel — they depend on
/// thread interleaving, so they are exported for inspection but never
/// priced or compared for equality.
/// Returns the published word and how many polls found it EMPTY (the
/// spin count, already fed to `obs.record_spins`; callers aggregate it
/// into the flight recorder's `Resolve` event).
fn spin_wait_published(
    state: &GlobalBuffer<u64>,
    idx: usize,
    waiting_on: usize,
    obs: &ObsCells,
) -> (u64, u64) {
    let mut spins = 0u64;
    let mut last_word = u64::MAX;
    loop {
        // Adversarial yield point, marking this block as *waiting on
        // tile `waiting_on`'s published state* (the straggler policy's
        // release condition, and the stall watchdog's target); a no-op on
        // the parallel/sequential executors. `last_word` lets a watchdog
        // diagnosis report exactly what the waiter last saw.
        simt::sched::spin_yield_waiting(waiting_on as u32, last_word);
        let word = state.device_peek(idx);
        if word & 3 != FLAG_EMPTY {
            obs.record_spins(spins);
            return (word, spins);
        }
        last_word = word;
        spins += 1;
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        }
        assert!(
            spins < 100_000_000,
            "look-back stalled: state word {idx} never published (executor bug?)"
        );
        std::hint::spin_loop();
    }
}

/// Lane-indexed word addresses and active mask of group `g` of tile `t`'s
/// record inside a state-word window starting at `word_base`: one
/// segment's partition of a [`SegmentedTileStates`].
#[inline]
fn group_record_at(word_base: usize, rows: usize, t: usize, g: usize) -> (Lanes<usize>, u32) {
    let cnt = (rows - g * WARP_SIZE).min(WARP_SIZE);
    let base = word_base + t * rows + g * WARP_SIZE;
    (
        lanes_from_fn(|lane| base + lane.min(cnt - 1)),
        low_lanes_mask(cnt),
    )
}

/// The decoupled look-back resolve over one state-word window: publish
/// tile `t`'s per-row `aggregate` and return its exclusive per-row prefix.
///
/// `word_base` offsets every state-word address, so a window is a
/// self-contained protocol instance — a walk never touches words outside
/// `word_base .. word_base + tiles * rows`, which is what makes the
/// per-segment partitioning of [`SegmentedTileStates`] dependency-free
/// across segments. `ticket_base` maps the window-local tile id onto the
/// *global* ticket space of the launch (the segment's first ticket; 0 for
/// a one-segment launch): the adversarial scheduler's straggler release
/// and stall watchdog key on claimed tickets, and the flight recorder's
/// DAG joins publishes to resolves by ticket, so both must see global ids
/// even when the walk is local.
///
/// Billing is independent of both bases: per warp-sized row group, the
/// two record publishes plus one counted record-sized look-back read.
/// `rows <= 32` is one group: for `rows = 1` that is exactly the scalar
/// chained scan's three words per tile.
fn resolve_rows_at(
    state: &GlobalBuffer<u64>,
    word_base: usize,
    ticket_base: usize,
    rows: usize,
    w: &WarpCtx,
    t: usize,
    aggregate: &[u32],
) -> Vec<u32> {
    assert_eq!(aggregate.len(), rows, "one aggregate per row");
    let groups = rows.div_ceil(WARP_SIZE);
    let gt = (ticket_base + t) as u32; // global ticket, for obs identity
    if t == 0 {
        for g in 0..groups {
            let (rec, mask) = group_record_at(word_base, rows, 0, g);
            let base = g * WARP_SIZE;
            let cnt = (rows - base).min(WARP_SIZE);
            w.device_scatter(
                state,
                rec,
                lanes_from_fn(|l| pack(aggregate[base + l.min(cnt - 1)], FLAG_INCLUSIVE)),
                mask,
            );
            // Tile 0 resolves at depth 0 (no walk). Counting it keeps
            // `lookback_resolves == tiles * row_groups()`, a
            // schedule-independent total.
            w.obs().record_lookback(0);
            w.obs()
                .flight_emit(EventKind::PublishInclusive, gt, g as u32, 0);
            w.obs().flight_emit(EventKind::Resolve, gt, 0, 0);
        }
        return vec![0; rows];
    }
    for g in 0..groups {
        let (rec, mask) = group_record_at(word_base, rows, t, g);
        let base = g * WARP_SIZE;
        let cnt = (rows - base).min(WARP_SIZE);
        w.device_scatter(
            state,
            rec,
            lanes_from_fn(|l| pack(aggregate[base + l.min(cnt - 1)], FLAG_AGGREGATE)),
            mask,
        );
        w.obs()
            .flight_emit(EventKind::PublishAggregate, gt, g as u32, 0);
    }
    let mut prefix = vec![0u32; rows];
    for g in 0..groups {
        let base = g * WARP_SIZE;
        let cnt = (rows - base).min(WARP_SIZE);
        // Walk back until every row in the group has met an INCLUSIVE
        // word. Rows resolve independently: a predecessor may have
        // published its aggregate but not yet its inclusive record, and
        // different rows may stop at different depths. Pure register
        // work + uncounted polls.
        let mut done = [false; WARP_SIZE];
        let mut remaining = cnt;
        let mut p = t;
        let mut group_spins = 0u64;
        while remaining > 0 {
            debug_assert!(p > 0, "tile 0 always publishes INCLUSIVE");
            p -= 1;
            for r in 0..cnt {
                if done[r] {
                    continue;
                }
                let (word, spins) = spin_wait_published(
                    state,
                    word_base + p * rows + base + r,
                    ticket_base + p,
                    w.obs(),
                );
                group_spins += spins;
                let (value, flag) = unpack(word);
                prefix[base + r] = prefix[base + r].wrapping_add(value);
                if flag == FLAG_INCLUSIVE {
                    done[r] = true;
                    remaining -= 1;
                }
            }
        }
        // Introspection: this group's walk reached back `t - p` tiles
        // (the deepest row wins). One resolve per tile per group — that
        // count is schedule-independent; the depth itself is not
        // (sequential execution always stops after one hop, parallel
        // depends on timing).
        w.obs().record_lookback((t - p) as u64);
        // Flight event: the causal edge `t -> p` this walk bound, plus
        // how hard it stalled getting there. One Resolve per group, so
        // per-kind event counts stay schedule-independent even though
        // the depth/spin payloads are not.
        w.obs().flight_emit(
            EventKind::Resolve,
            gt,
            (t - p) as u32,
            group_spins.min(u32::MAX as u64) as u32,
        );
        // Charge the look-back deterministically: one counted
        // record-sized read per tile per group. How many extra hops the
        // walk took depends on scheduling — charging them would break
        // schedule independence.
        let (prev, mask) = group_record_at(word_base, rows, t - 1, g);
        w.device_gather(state, prev, mask);
        w.obs()
            .flight_emit(EventKind::LookbackRead, gt, g as u32, 0);
        let (rec, mask) = group_record_at(word_base, rows, t, g);
        w.device_scatter(
            state,
            rec,
            lanes_from_fn(|l| {
                let r = base + l.min(cnt - 1);
                pack(prefix[r].wrapping_add(aggregate[r]), FLAG_INCLUSIVE)
            }),
            mask,
        );
        w.obs()
            .flight_emit(EventKind::PublishInclusive, gt, g as u32, 0);
    }
    prefix
}

/// One segment's window into a [`SegmentedTileStates`] buffer.
#[derive(Debug, Clone, Copy)]
struct SegWindow {
    /// First state word of this segment's partition.
    word_base: usize,
    /// Global ticket of this segment's tile 0 (segments' tiles are laid
    /// out consecutively in the launch's flattened ticket space).
    tile_base: usize,
    tiles: usize,
    rows: usize,
}

/// Per-segment partitioned tile states for a **single-launch segmented**
/// chained kernel: many independent look-back protocol instances packed
/// into one state buffer.
///
/// Each segment `s` owns a contiguous window of `tiles(s) * rows(s)`
/// state words; [`resolve_rows`](Self::resolve_rows) runs the look-back
/// protocol *inside that window*, so a tile only ever waits on earlier
/// tiles **of its own segment** — no cross-segment dependency exists, and
/// one stalled segment cannot wedge another's walks. A standalone
/// single-pass kernel (the chained scan, a standalone multisplit sweep)
/// is the one-segment case.
///
/// ### Deadlock freedom in the flattened ticket space
///
/// The segmented kernel claims tickets from one device counter over the
/// concatenated tile ranges (segment `s`'s local tile `t` is global
/// ticket `tile_base(s) + t`). Because segments' tiles are consecutive,
/// local tile `t` waits only on local `t - 1` = global ticket
/// `tile_base(s) + t - 1` — a strictly earlier ticket, i.e. an
/// already-started block. The global ticket is also what the walk
/// reports to the adversarial scheduler's stall watchdog and the flight
/// recorder, so segmented launches keep full causal observability.
///
/// ### Billing
///
/// Identical to a one-segment instance per segment: per warp-sized row
/// group, two record publishes plus one counted record-sized look-back
/// read — so a segmented launch's summed look-back stats equal the sum of
/// the per-segment launches it replaces (the serve front-end's ±5% sector
/// acceptance leans on this).
pub struct SegmentedTileStates {
    state: GlobalBuffer<u64>,
    segs: Vec<SegWindow>,
    /// Test-only fault: the global ticket whose `resolve_rows` returns
    /// without publishing anything (`usize::MAX` = no fault). Lets tests
    /// prove the stall watchdog converts a real livelock into a diagnosis.
    stall_ticket: AtomicUsize,
}

impl SegmentedTileStates {
    /// Allocate EMPTY state windows for segments of `(tiles, rows)` each.
    /// Zero-tile segments (empty inputs) are allowed and own no words;
    /// `rows >= 1` is required for every segment regardless.
    pub fn new(parts: &[(usize, usize)]) -> Self {
        let mut segs = Vec::with_capacity(parts.len());
        let mut word_base = 0usize;
        let mut tile_base = 0usize;
        for &(tiles, rows) in parts {
            assert!(rows >= 1, "tile-state records need at least one row");
            segs.push(SegWindow {
                word_base,
                tile_base,
                tiles,
                rows,
            });
            word_base += tiles * rows;
            tile_base += tiles;
        }
        Self {
            state: GlobalBuffer::zeroed(word_base),
            segs,
            stall_ticket: AtomicUsize::new(usize::MAX),
        }
    }

    /// **Test-only fault injection**: make segment `seg`'s local tile `t`
    /// return from `resolve_rows` without publishing AGGREGATE or
    /// INCLUSIVE — every later tile of the segment then spins on EMPTY
    /// words forever. Under an adversarial schedule the stall watchdog
    /// must convert that livelock into a structured abort naming global
    /// ticket `tile_base(seg) + t`; that conversion is exactly what the
    /// injected-stall tests assert.
    pub fn inject_publish_stall(&self, seg: usize, t: usize) {
        let sw = self.segs[seg];
        assert!(t < sw.tiles, "tile {t} out of segment {seg}'s range");
        self.stall_ticket.store(sw.tile_base + t, Ordering::Relaxed);
    }

    pub fn tiles(&self, seg: usize) -> usize {
        self.segs[seg].tiles
    }

    pub fn rows(&self, seg: usize) -> usize {
        self.segs[seg].rows
    }

    /// Global ticket of segment `seg`'s local tile 0.
    pub fn tile_base(&self, seg: usize) -> usize {
        self.segs[seg].tile_base
    }

    /// Total tiles across all segments — the launch's block count.
    pub fn total_tiles(&self) -> usize {
        self.segs.last().map_or(0, |s| s.tile_base + s.tiles)
    }

    /// Warp-sized row groups of segment `seg`'s records (1 for `m <= 32`).
    pub fn row_groups(&self, seg: usize) -> usize {
        self.segs[seg].rows.div_ceil(WARP_SIZE)
    }

    /// Publish segment `seg`'s local tile `t`'s per-row `aggregate`
    /// (`aggregate.len() == rows(seg)`, any size) and resolve its
    /// exclusive per-row prefix (per row: the sum of that row's aggregates
    /// over the segment's tiles `0..t`) by decoupled look-back over **this
    /// segment's tiles only**; publishes the inclusive record before
    /// returning.
    ///
    /// The record is handled in warp-sized row groups. All groups'
    /// AGGREGATE words publish before any group walks, so successors
    /// spinning on a later group never wait for this tile's earlier-group
    /// walk to finish. Each group is then walked and charged
    /// independently — one `record_lookback` and one counted record-sized
    /// read per group per tile — so summed stats stay
    /// schedule-independent.
    ///
    /// Warp-synchronous: call from a single warp (conventionally warp 0).
    /// `t` is segment-local; it must correspond to global ticket
    /// `tile_base(seg) + t` claimed via the launch's shared device-scope
    /// ticket counter (see the type docs on deadlock freedom).
    pub fn resolve_rows(&self, w: &WarpCtx, seg: usize, t: usize, aggregate: &[u32]) -> Vec<u32> {
        let sw = self.segs[seg];
        assert!(t < sw.tiles, "tile {t} out of segment {seg}'s range");
        if self.stall_ticket.load(Ordering::Relaxed) == sw.tile_base + t {
            // Injected fault (see `inject_publish_stall`): hang this
            // tile's publishes forever. Successors now spin on EMPTY.
            return vec![0; sw.rows];
        }
        resolve_rows_at(
            &self.state,
            sw.word_base,
            sw.tile_base,
            sw.rows,
            w,
            t,
            aggregate,
        )
    }

    /// Host-side read of one row's grand total within segment `seg` (its
    /// last tile's inclusive value). Only valid after the kernel
    /// completed; segments with zero tiles have total 0 by construction.
    pub fn total(&self, seg: usize, row: usize) -> u32 {
        let sw = self.segs[seg];
        assert!(row < sw.rows);
        if sw.tiles == 0 {
            return 0;
        }
        let (value, flag) = unpack(
            self.state
                .get(sw.word_base + (sw.tiles - 1) * sw.rows + row),
        );
        debug_assert_eq!(
            flag, FLAG_INCLUSIVE,
            "last tile must have resolved its inclusive prefix"
        );
        value
    }

    /// Host-side read of every row's grand total within segment `seg` —
    /// its last tile's inclusive record. This readback is what lets a
    /// one-tile segment skip the pre-scan: the chained protocol's final
    /// record *is* the per-bucket total count. Uncounted host reads.
    pub fn row_totals(&self, seg: usize) -> Vec<u32> {
        (0..self.segs[seg].rows)
            .map(|r| self.total(seg, r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::{Device, K40C};

    #[test]
    fn pack_unpack_roundtrip() {
        assert_eq!(unpack(pack(0, FLAG_EMPTY)), (0, FLAG_EMPTY));
        assert_eq!(unpack(pack(12345, FLAG_AGGREGATE)), (12345, FLAG_AGGREGATE));
        assert_eq!(
            unpack(pack(u32::MAX, FLAG_INCLUSIVE)),
            (u32::MAX, FLAG_INCLUSIVE)
        );
    }

    /// Drive the protocol with a real ticketed kernel over vector rows and
    /// check prefixes against a host reference, on both executors.
    #[test]
    fn vector_lookback_matches_reference() {
        let (tiles, rows) = (67usize, 5usize);
        // aggregate of tile t, row r
        let agg = |t: usize, r: usize| ((t * 31 + r * 7) % 13) as u32;
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            let out = simt::GlobalBuffer::<u32>::zeroed(tiles * rows);
            dev.launch("lookback-test", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let a: Vec<u32> = (0..rows).map(|r| agg(t, r)).collect();
                let prefix = states.resolve_rows(&w, 0, t, &a);
                w.scatter_merged(
                    &out,
                    lanes_from_fn(|l| t * rows + l.min(rows - 1)),
                    lanes_from_fn(|l| prefix[l.min(rows - 1)]),
                    low_lanes_mask(rows),
                );
            });
            let got = out.to_vec();
            for t in 0..tiles {
                for r in 0..rows {
                    let expect: u32 = (0..t).map(|p| agg(p, r)).sum();
                    assert_eq!(got[t * rows + r], expect, "tile {t} row {r}");
                }
                // inclusive records are fully published
            }
            for r in 0..rows {
                let expect: u32 = (0..tiles).map(|p| agg(p, r)).sum();
                assert_eq!(states.total(0, r), expect, "grand total row {r}");
            }
        }
    }

    #[test]
    fn stats_are_schedule_independent() {
        let (tiles, rows) = (200usize, 32usize);
        let mut all = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            let a: Vec<u32> = (0..rows as u32).collect();
            dev.launch("lookback-stats", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                states.resolve_rows(&w, 0, t, &a);
            });
            all.push(dev.records()[0].stats);
        }
        assert_eq!(
            all[0], all[1],
            "counted look-back cost must not depend on scheduling"
        );
    }

    /// The uncounted obs channel: one resolve per tile (deterministic,
    /// schedule-independent) with the depth histogram summing to exactly
    /// that; depths themselves collapse to one hop under sequential
    /// execution.
    #[test]
    fn lookback_obs_totals_are_schedule_independent() {
        let (tiles, rows) = (200usize, 8usize);
        let mut resolves = Vec::new();
        for (i, dev) in [Device::new(K40C), Device::sequential(K40C)]
            .into_iter()
            .enumerate()
        {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            let a: Vec<u32> = (0..rows as u32).collect();
            dev.launch("lookback-obs", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                states.resolve_rows(&w, 0, t, &a);
            });
            let obs = dev.records()[0].obs;
            assert_eq!(obs.lookback_resolves, tiles as u64, "one resolve per tile");
            assert_eq!(
                obs.depth_hist_total(),
                obs.lookback_resolves,
                "histogram buckets must sum to the resolve count"
            );
            if i == 1 {
                // Sequential: every predecessor has finished, so every
                // walk (tiles 1..) stops after exactly one hop.
                assert_eq!(obs.lookback_depth_total, (tiles - 1) as u64);
                assert_eq!(obs.lookback_depth_hist[1], (tiles - 1) as u64);
                assert_eq!(obs.spin_polls, 0, "nothing to wait for sequentially");
            }
            resolves.push(obs.lookback_resolves);
        }
        assert_eq!(resolves[0], resolves[1]);
    }

    /// `rows > 32` records span multiple warp-sized groups; prefixes must
    /// still match the host reference on both executors.
    #[test]
    fn multi_group_lookback_matches_reference() {
        let (tiles, rows) = (41usize, 70usize);
        let agg = |t: usize, r: usize| ((t * 13 + r * 5) % 17) as u32;
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            let out = simt::GlobalBuffer::<u32>::zeroed(tiles * rows);
            dev.launch("lookback-multirow", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let a: Vec<u32> = (0..rows).map(|r| agg(t, r)).collect();
                let prefix = states.resolve_rows(&w, 0, t, &a);
                for (r, &p) in prefix.iter().enumerate() {
                    out.set(t * rows + r, p);
                }
            });
            let got = out.to_vec();
            for t in 0..tiles {
                for r in 0..rows {
                    let expect: u32 = (0..t).map(|p| agg(p, r)).sum();
                    assert_eq!(got[t * rows + r], expect, "tile {t} row {r}");
                }
            }
            for r in 0..rows {
                let expect: u32 = (0..tiles).map(|p| agg(p, r)).sum();
                assert_eq!(states.total(0, r), expect, "grand total row {r}");
            }
        }
    }

    /// The `rows = 1` case (the chained scan's state) bills exactly the
    /// scalar chained scan's word sequence: tile 0 publishes its INCLUSIVE
    /// word; every later tile publishes its AGGREGATE word, reads its
    /// predecessor's word once and publishes its INCLUSIVE word. The
    /// scalar scan's accounting is the contract.
    #[test]
    fn rows_one_billing_matches_chained_scan() {
        let tiles = 100usize;
        let dev = Device::sequential(K40C);
        let states = SegmentedTileStates::new(&[(tiles, 1)]);
        let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
        dev.launch("lookback-rows1", tiles, 1, |blk| {
            let w = blk.warp(0);
            let t = w.device_fetch_add(&ticket, 0, 1) as usize;
            let p = states.resolve_rows(&w, 0, t, &[t as u32]);
            assert_eq!(p, [(0..t as u32).sum::<u32>()], "tile {t}");
        });
        assert_eq!(states.total(0, 0), (0..tiles as u32).sum::<u32>());
        let words = simt::GlobalBuffer::<u64>::zeroed(tiles);
        let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
        dev.launch("scalar-chain", tiles, 1, |blk| {
            let w = blk.warp(0);
            let t = w.device_fetch_add(&ticket, 0, 1) as usize;
            if t > 0 {
                let agg = simt::splat(pack(t as u32, FLAG_AGGREGATE));
                w.device_scatter(&words, simt::splat(t), agg, 1);
                w.device_gather(&words, simt::splat(t - 1), 1);
            }
            let inc = simt::splat(pack(t as u32, FLAG_INCLUSIVE));
            w.device_scatter(&words, simt::splat(t), inc, 1);
        });
        let recs = dev.records();
        assert_eq!(
            recs[0].stats, recs[1].stats,
            "a rows = 1 resolve must bill the scalar chain's three words"
        );
    }

    /// Multi-group records resolve once per tile per group, and the
    /// histogram invariant stays row-aware: buckets sum to
    /// `tiles * row_groups()` on every schedule.
    #[test]
    fn multi_group_obs_totals_are_schedule_independent() {
        let (tiles, rows) = (60usize, 70usize);
        let groups = rows.div_ceil(WARP_SIZE);
        assert_eq!(groups, 3);
        let mut resolves = Vec::new();
        for (i, dev) in [Device::new(K40C), Device::sequential(K40C)]
            .into_iter()
            .enumerate()
        {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            assert_eq!(states.row_groups(0), groups);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-multirow-obs", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let a: Vec<u32> = (0..rows).map(|r| r as u32).collect();
                states.resolve_rows(&w, 0, t, &a);
            });
            let obs = dev.records()[0].obs;
            assert_eq!(
                obs.lookback_resolves,
                (tiles * groups) as u64,
                "one resolve per tile per row group"
            );
            assert_eq!(obs.depth_hist_total(), obs.lookback_resolves);
            if i == 1 {
                // Sequential: tile 0 contributes `groups` depth-0 resolves,
                // every later tile `groups` one-hop walks.
                assert_eq!(obs.lookback_depth_hist[0], groups as u64);
                assert_eq!(obs.lookback_depth_hist[1], ((tiles - 1) * groups) as u64);
                assert_eq!(obs.spin_polls, 0, "nothing to wait for sequentially");
            }
            resolves.push(obs.lookback_resolves);
        }
        assert_eq!(resolves[0], resolves[1]);
    }

    /// Heterogeneous segments (different tile counts *and* row counts,
    /// including an empty segment and a multi-group record) resolve
    /// against per-segment host references inside one launch, on the
    /// parallel, sequential, and an adversarial executor.
    #[test]
    fn segmented_windows_match_per_segment_reference() {
        let parts: [(usize, usize); 5] = [(5, 3), (0, 4), (1, 1), (13, 70), (7, 32)];
        let agg = |s: usize, t: usize, r: usize| ((s * 37 + t * 31 + r * 7) % 13 + 1) as u32;
        // Global ticket -> (segment, local tile).
        let mut map = Vec::new();
        for (s, &(tiles, _)) in parts.iter().enumerate() {
            for t in 0..tiles {
                map.push((s, t));
            }
        }
        for dev in [
            Device::new(K40C),
            Device::sequential(K40C),
            Device::adversarial(K40C, simt::AdvSchedule::from_seed(7)),
        ] {
            let states = SegmentedTileStates::new(&parts);
            assert_eq!(states.total_tiles(), map.len());
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-segmented", states.total_tiles(), 1, |blk| {
                let w = blk.warp(0);
                let g = w.device_fetch_add(&ticket, 0, 1) as usize;
                let (s, t) = map[g];
                let rows = states.rows(s);
                let a: Vec<u32> = (0..rows).map(|r| agg(s, t, r)).collect();
                let prefix = states.resolve_rows(&w, s, t, &a);
                for (r, &p) in prefix.iter().enumerate() {
                    let expect: u32 = (0..t).map(|q| agg(s, q, r)).sum();
                    assert_eq!(p, expect, "seg {s} tile {t} row {r}");
                }
            });
            for (s, &(tiles, rows)) in parts.iter().enumerate() {
                for r in 0..rows {
                    let expect: u32 = (0..tiles).map(|q| agg(s, q, r)).sum();
                    assert_eq!(states.total(s, r), expect, "seg {s} grand total row {r}");
                }
            }
        }
    }

    /// The partitioning contract the serve front-end's sector acceptance
    /// leans on: one segmented launch bills exactly the sum of the
    /// one-segment launches it replaces, and the billing
    /// is schedule-independent.
    #[test]
    fn segmented_billing_equals_sum_of_per_segment_launches() {
        let parts: [(usize, usize); 4] = [(9, 5), (4, 40), (1, 1), (20, 32)];
        let agg = |s: usize, t: usize, r: usize| ((s * 11 + t * 3 + r) % 17) as u32;
        let mut map = Vec::new();
        for (s, &(tiles, _)) in parts.iter().enumerate() {
            for t in 0..tiles {
                map.push((s, t));
            }
        }
        let fold = |dev: &Device| {
            dev.records()
                .iter()
                .fold(simt::BlockStats::default(), |mut a, r| {
                    a += r.stats;
                    a
                })
        };
        let mut seg_stats = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let states = SegmentedTileStates::new(&parts);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-seg-billing", states.total_tiles(), 1, |blk| {
                let w = blk.warp(0);
                let g = w.device_fetch_add(&ticket, 0, 1) as usize;
                let (s, t) = map[g];
                let a: Vec<u32> = (0..states.rows(s)).map(|r| agg(s, t, r)).collect();
                states.resolve_rows(&w, s, t, &a);
            });
            seg_stats.push(fold(&dev));
        }
        assert_eq!(
            seg_stats[0], seg_stats[1],
            "segmented look-back billing must be schedule-independent"
        );
        // Per-segment reference: a one-segment launch for each segment.
        let dev = Device::sequential(K40C);
        for (s, &(tiles, rows)) in parts.iter().enumerate() {
            if tiles == 0 {
                continue;
            }
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-one-segment", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let a: Vec<u32> = (0..rows).map(|r| agg(s, t, r)).collect();
                states.resolve_rows(&w, 0, t, &a);
            });
        }
        assert_eq!(
            seg_stats[1],
            fold(&dev),
            "segmented launch must bill the sum of the per-segment launches"
        );
    }
}
