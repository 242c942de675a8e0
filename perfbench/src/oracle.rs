//! Output oracle: an order-insensitive fold of result rows, and a plain
//! reference computation of each workload's expected results.
//!
//! The reference regenerates the seeded input with the same generators the
//! engine is fed from and computes the windowed results directly (a count
//! array, a sort-and-sum, a nested-loop join per key), sharing no code with
//! the engine's operators.

use sbx_ingress::{KvSource, Source, YsbSource};

use crate::workload::{Scale, Workload, JOIN_KEYS, SUM_KEYS, VALUE_RANGE, WINDOW_TICKS};
use crate::workload::{BUNDLES_PER_WINDOW, YSB_ADS, YSB_CAMPAIGNS};

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A multiset hash of result rows: row count plus two independent 64-bit
/// row hashes summed with wrapping arithmetic, so row order does not
/// matter but a changed, missing or duplicated row does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fold {
    /// Rows folded in.
    pub rows: u64,
    h1: u64,
    h2: u64,
}

impl Fold {
    fn row_hash(row: &[u64]) -> (u64, u64) {
        let mut a = 0x243f_6a88_85a3_08d3u64;
        let mut b = 0x1319_8a2e_0370_7344u64;
        for &v in row {
            a = mix(a ^ v);
            b = mix(b.wrapping_add(v).rotate_left(17));
        }
        (a, b)
    }

    /// Adds one row.
    pub fn add_row(&mut self, row: &[u64]) {
        let (a, b) = Self::row_hash(row);
        self.rows += 1;
        self.h1 = self.h1.wrapping_add(a);
        self.h2 = self.h2.wrapping_add(b);
    }

    /// Removes one row previously added.
    pub fn remove_row(&mut self, row: &[u64]) {
        let (a, b) = Self::row_hash(row);
        self.rows = self.rows.wrapping_sub(1);
        self.h1 = self.h1.wrapping_sub(a);
        self.h2 = self.h2.wrapping_sub(b);
    }
}

/// Fills one event-time window's rows from `src`.
fn window_rows<S: Source>(src: &mut S, scale: Scale, ncols: usize) -> Vec<u64> {
    let mut rows = Vec::with_capacity(scale.rate() as usize * ncols);
    for _ in 0..BUNDLES_PER_WINDOW {
        src.fill(scale.bundle_rows, &mut rows);
    }
    rows
}

/// The expected fold of `w`'s output at `scale` for `seed`.
pub fn reference(w: Workload, scale: Scale, seed: u64) -> Fold {
    match w {
        Workload::YsbSort | Workload::YsbHash => ysb(scale, seed),
        Workload::SumCkpt => sum(scale, seed),
        Workload::Join => join(scale, seed),
    }
}

/// YSB: keep `ad_type < 2`, count per campaign (`ad_id % campaigns`) per
/// window; rows are `(campaign, count, window_start)`.
fn ysb(scale: Scale, seed: u64) -> Fold {
    let mut src = YsbSource::new(seed, YSB_ADS, YSB_CAMPAIGNS, scale.rate());
    let mut fold = Fold::default();
    for w in 0..scale.windows(Workload::YsbSort) as u64 {
        let rows = window_rows(&mut src, scale, 7);
        let mut counts = vec![0u64; YSB_CAMPAIGNS as usize];
        for r in rows.chunks_exact(7) {
            debug_assert_eq!(r[5] / WINDOW_TICKS, w);
            if r[3] < 2 {
                counts[(r[2] % YSB_CAMPAIGNS) as usize] += 1;
            }
        }
        for (c, &n) in counts.iter().enumerate() {
            if n > 0 {
                fold.add_row(&[c as u64, n, w * WINDOW_TICKS]);
            }
        }
    }
    fold
}

/// Windowed sum per key; rows are `(key, wrapping_sum, window_start)`.
fn sum(scale: Scale, seed: u64) -> Fold {
    let mut src = KvSource::new(seed, SUM_KEYS, scale.rate()).with_value_range(VALUE_RANGE);
    let mut fold = Fold::default();
    for w in 0..scale.windows(Workload::SumCkpt) as u64 {
        let rows = window_rows(&mut src, scale, 3);
        let mut kv: Vec<(u64, u64)> = rows.chunks_exact(3).map(|r| (r[0], r[1])).collect();
        kv.sort_unstable();
        let mut i = 0;
        while i < kv.len() {
            let key = kv[i].0;
            let mut s = 0u64;
            while i < kv.len() && kv[i].0 == key {
                s = s.wrapping_add(kv[i].1);
                i += 1;
            }
            fold.add_row(&[key, s, w * WINDOW_TICKS]);
        }
    }
    fold
}

/// Windowed equi-join of two key/value streams: every `(left, right)` pair
/// with equal keys in the same window; rows are
/// `(key, left_value, right_value, window_start)`.
fn join(scale: Scale, seed: u64) -> Fold {
    let (ls, rs) = crate::workload::join_seeds(seed);
    let mut left = KvSource::new(ls, JOIN_KEYS, scale.rate()).with_value_range(VALUE_RANGE);
    let mut right = KvSource::new(rs, JOIN_KEYS, scale.rate()).with_value_range(VALUE_RANGE);
    let mut fold = Fold::default();
    for w in 0..scale.windows(Workload::Join) as u64 {
        let start = w * WINDOW_TICKS;
        let side = |src: &mut KvSource| {
            let rows = window_rows(src, scale, 3);
            let mut kv: Vec<(u64, u64)> = rows.chunks_exact(3).map(|r| (r[0], r[1])).collect();
            kv.sort_unstable();
            kv
        };
        let l = side(&mut left);
        let r = side(&mut right);
        let (mut i, mut j) = (0, 0);
        while i < l.len() && j < r.len() {
            let (lk, rk) = (l[i].0, r[j].0);
            if lk < rk {
                i += 1;
            } else if rk < lk {
                j += 1;
            } else {
                let ie = i + l[i..].iter().take_while(|p| p.0 == lk).count();
                let je = j + r[j..].iter().take_while(|p| p.0 == lk).count();
                for &(_, lv) in &l[i..ie] {
                    for &(_, rv) in &r[j..je] {
                        fold.add_row(&[lk, lv, rv, start]);
                    }
                }
                i = ie;
                j = je;
            }
        }
    }
    fold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_ignores_order_but_not_content() {
        let rows: [&[u64]; 3] = [&[1, 2, 3], &[4, 5, 6], &[1, 2, 3]];
        let mut a = Fold::default();
        for r in rows {
            a.add_row(r);
        }
        let mut b = Fold::default();
        for r in rows.iter().rev() {
            b.add_row(r);
        }
        assert_eq!(a, b);
        let mut changed = a;
        changed.remove_row(&[4, 5, 6]);
        changed.add_row(&[4, 5, 7]);
        assert_ne!(a, changed);
        let mut dropped = a;
        dropped.remove_row(&[1, 2, 3]);
        assert_ne!(a, dropped);
        let mut dup = a;
        dup.add_row(&[4, 5, 6]);
        assert_ne!(a, dup);
        let mut swapped = Fold::default();
        swapped.add_row(&[2, 1, 3]);
        swapped.add_row(&[4, 5, 6]);
        swapped.add_row(&[1, 2, 3]);
        assert_ne!(a, swapped);
    }
}
