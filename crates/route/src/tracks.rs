//! A sparse per-track table: the one index behind the obstacle map's
//! lanes and the search's active index and coverage ledger.
//!
//! Tracks are grouped into chunks of 64 consecutive coordinates. Each
//! chunk holds one occupancy word (bit `i` set when track `base + i`
//! holds anything) and one non-empty list per set bit, in ascending
//! track order, so a track's list sits at the popcount of the bits
//! below it. The chunks sit in a `Vec` sorted by base.
//!
//! * A lookup is a binary search over the chunks plus a popcount.
//! * The next occupied track above or below is a bit scan, in the
//!   chunk at hand or the neighbouring one.
//! * A range walk visits only occupied tracks.
//!
//! Memory grows with the occupied chunks, never with the coordinate
//! extent, so the whole `i32` plane stays addressable.

/// Tracks per chunk, as a shift.
const CHUNK_BITS: u32 = 6;
/// Clears the offset bits of a track, leaving its chunk base.
const BASE_MASK: i32 = !((1 << CHUNK_BITS) - 1);

/// The chunk base and bit offset of a track. Negative tracks round
/// down: track -1 is offset 63 of the chunk based at -64.
fn split(track: i32) -> (i32, u32) {
    (track & BASE_MASK, (track & !BASE_MASK) as u32)
}

/// The bits of a word at offsets `lo..=hi`.
fn bits_between(lo: u32, hi: u32) -> u64 {
    (u64::MAX << lo) & (u64::MAX >> (63 - hi))
}

#[derive(Debug, Clone)]
struct Chunk<T> {
    base: i32,
    /// Bit `i`: track `base + i` is occupied. Never zero.
    occupied: u64,
    /// One non-empty list per set bit of `occupied`, in bit order.
    slots: Vec<Vec<T>>,
}

impl<T> Chunk<T> {
    /// The slot index of offset `off`: the set bits below it.
    fn rank(&self, off: u32) -> usize {
        (self.occupied & !(u64::MAX << off)).count_ones() as usize
    }

    fn has(&self, off: u32) -> bool {
        self.occupied >> off & 1 == 1
    }

    /// The occupied tracks whose offsets are in `mask`, ascending, with
    /// their lists.
    fn tracks(&self, mask: u64) -> impl Iterator<Item = (i32, &[T])> {
        let mut word = self.occupied & mask;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let off = word.trailing_zeros();
                word &= word - 1;
                (self.base + off as i32, self.slots[self.rank(off)].as_slice())
            })
        })
    }
}

/// Lists of `T` keyed by `i32` track, with ordered neighbour queries.
///
/// A present track always holds at least one value: the edits drop a
/// track they empty, because the sweeps stop at every present track.
#[derive(Debug, Clone)]
pub(crate) struct TrackTable<T> {
    chunks: Vec<Chunk<T>>,
}

impl<T> Default for TrackTable<T> {
    fn default() -> Self {
        TrackTable { chunks: Vec::new() }
    }
}

impl<T> TrackTable<T> {
    /// The index of the chunk based at `base`, or where it would go.
    fn find(&self, base: i32) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&base, |c| c.base)
    }

    /// The values on a track, in insertion order (empty when absent).
    pub(crate) fn get(&self, track: i32) -> &[T] {
        let (base, off) = split(track);
        match self.find(base) {
            Ok(i) if self.chunks[i].has(off) => &self.chunks[i].slots[self.chunks[i].rank(off)],
            _ => &[],
        }
    }

    /// Runs `edit` on a track's list, creating the track when absent
    /// and dropping it (and an emptied chunk) when `edit` leaves the
    /// list empty.
    pub(crate) fn edit<R>(&mut self, track: i32, edit: impl FnOnce(&mut Vec<T>) -> R) -> R {
        let (base, off) = split(track);
        let ci = self.find(base).unwrap_or_else(|ci| {
            self.chunks.insert(ci, Chunk { base, occupied: 0, slots: Vec::new() });
            ci
        });
        let chunk = &mut self.chunks[ci];
        let slot = chunk.rank(off);
        if !chunk.has(off) {
            chunk.occupied |= 1 << off;
            chunk.slots.insert(slot, Vec::new());
        }
        let out = edit(&mut chunk.slots[slot]);
        if chunk.slots[slot].is_empty() {
            chunk.slots.remove(slot);
            chunk.occupied &= !(1 << off);
            if chunk.occupied == 0 {
                self.chunks.remove(ci);
            }
        }
        out
    }

    /// Appends a value to a track.
    pub(crate) fn push(&mut self, track: i32, value: T) {
        self.edit(track, |list| list.push(value));
    }

    /// Drops the values on one track for which `remove` holds; an
    /// absent track stays absent. Returns how many were dropped.
    pub(crate) fn remove_where(&mut self, track: i32, mut remove: impl FnMut(&T) -> bool) -> usize {
        if self.get(track).is_empty() {
            return 0;
        }
        self.edit(track, |list| {
            let before = list.len();
            list.retain(|v| !remove(v));
            before - list.len()
        })
    }

    /// Drops every value for which `remove(track, value)` holds, over
    /// the whole table. Returns how many were dropped.
    pub(crate) fn remove_all_where(&mut self, mut remove: impl FnMut(i32, &T) -> bool) -> usize {
        let mut removed = 0;
        for chunk in &mut self.chunks {
            let (mut word, mut slot) = (chunk.occupied, 0);
            while word != 0 {
                let off = word.trailing_zeros();
                word &= word - 1;
                let track = chunk.base + off as i32;
                let list = &mut chunk.slots[slot];
                let before = list.len();
                list.retain(|v| !remove(track, v));
                removed += before - list.len();
                if list.is_empty() {
                    chunk.slots.remove(slot);
                    chunk.occupied &= !(1 << off);
                } else {
                    slot += 1;
                }
            }
        }
        self.chunks.retain(|c| c.occupied != 0);
        removed
    }

    /// The nearest occupied track strictly above `from`.
    pub(crate) fn next_above(&self, from: i32) -> Option<i32> {
        let (base, off) = split(from.checked_add(1)?);
        let mut i = self.chunks.partition_point(|c| c.base < base);
        let chunk = self.chunks.get(i)?;
        if chunk.base == base {
            let word = chunk.occupied & (u64::MAX << off);
            if word != 0 {
                return Some(base + word.trailing_zeros() as i32);
            }
            i += 1;
        }
        let chunk = self.chunks.get(i)?;
        Some(chunk.base + chunk.occupied.trailing_zeros() as i32)
    }

    /// The nearest occupied track strictly below `from`.
    pub(crate) fn next_below(&self, from: i32) -> Option<i32> {
        let (base, off) = split(from.checked_sub(1)?);
        let mut i = self.chunks.partition_point(|c| c.base <= base);
        let chunk = &self.chunks[i.checked_sub(1)?];
        if chunk.base == base {
            let word = chunk.occupied & bits_between(0, off);
            if word != 0 {
                return Some(base + 63 - word.leading_zeros() as i32);
            }
            i -= 1;
        }
        let chunk = &self.chunks[i.checked_sub(1)?];
        Some(chunk.base + 63 - chunk.occupied.leading_zeros() as i32)
    }

    /// The occupied tracks in `lo..=hi`, ascending, with their lists.
    pub(crate) fn range(&self, lo: i32, hi: i32) -> impl Iterator<Item = (i32, &[T])> {
        let start = self.chunks.partition_point(|c| c.base < split(lo).0);
        self.chunks[start..]
            .iter()
            .take_while(move |c| c.base <= hi)
            .flat_map(move |c| {
                let first = if lo > c.base { (lo - c.base) as u32 } else { 0 };
                let last = if hi < c.base + 63 { (hi - c.base) as u32 } else { 63 };
                c.tracks(bits_between(first, last))
            })
    }

    /// Every occupied track, ascending, with its list.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (i32, &[T])> {
        self.range(i32::MIN, i32::MAX)
    }

    /// How many tracks are occupied.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.occupied.count_ones() as usize).sum()
    }

    /// How many chunks the table holds.
    #[cfg(test)]
    fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// One edit of a random table history.
    #[derive(Debug, Clone)]
    enum Op {
        Push(i32, u8),
        Remove(i32, u8),
        RemoveAll(u8),
    }

    /// Tracks clustered around a few centres, including both ends of
    /// `i32` and chunk boundaries on either side of zero.
    fn track_strategy() -> impl Strategy<Value = i32> {
        let centres = [i32::MIN, -4096, -65, -1, 0, 63, 64, 1 << 20, i32::MAX - 70];
        (prop::sample::select(centres.to_vec()), 0i32..140).prop_map(|(c, d)| c.saturating_add(d))
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..5, track_strategy(), 0u8..4).prop_map(|(op, t, v)| match op {
            0..=2 => Op::Push(t, v),
            3 => Op::Remove(t, v),
            _ => Op::RemoveAll(v),
        })
    }

    fn oracle_next_above(m: &BTreeMap<i32, Vec<u8>>, from: i32) -> Option<i32> {
        let from = from.checked_add(1)?;
        m.range(from..).next().map(|(&t, _)| t)
    }

    fn oracle_next_below(m: &BTreeMap<i32, Vec<u8>>, from: i32) -> Option<i32> {
        m.range(..from).next_back().map(|(&t, _)| t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every query answers as a `BTreeMap` of lists that drops
        /// emptied tracks does.
        #[test]
        fn track_table_matches_a_btreemap(
            ops in prop::collection::vec(op_strategy(), 0..60),
            probes in prop::collection::vec(track_strategy(), 8),
            spans in prop::collection::vec((track_strategy(), track_strategy()), 4),
        ) {
            let mut table = TrackTable::default();
            let mut oracle: BTreeMap<i32, Vec<u8>> = BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Push(t, v) => {
                        table.push(t, v);
                        oracle.entry(t).or_default().push(v);
                    }
                    Op::Remove(t, v) => {
                        let mut want = 0;
                        if let Some(list) = oracle.get_mut(&t) {
                            let before = list.len();
                            list.retain(|&x| x != v);
                            want = before - list.len();
                            if list.is_empty() {
                                oracle.remove(&t);
                            }
                        }
                        prop_assert_eq!(table.remove_where(t, |&x| x == v), want);
                    }
                    Op::RemoveAll(v) => {
                        let mut want = 0;
                        oracle.retain(|&t, list| {
                            let before = list.len();
                            list.retain(|&x| (t as u8 ^ x) & 3 != v);
                            want += before - list.len();
                            !list.is_empty()
                        });
                        let got = table.remove_all_where(|t, &x| (t as u8 ^ x) & 3 == v);
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(table.len(), oracle.len());
                prop_assert!(table.chunk_count() <= oracle.len());
                for &t in probes.iter().chain(oracle.keys()) {
                    prop_assert_eq!(table.get(t), oracle.get(&t).map_or(&[][..], Vec::as_slice));
                    prop_assert_eq!(table.next_above(t), oracle_next_above(&oracle, t));
                    prop_assert_eq!(table.next_below(t), oracle_next_below(&oracle, t));
                }
                for &(a, b) in &spans {
                    let (lo, hi) = (a.min(b), a.max(b));
                    let got: Vec<(i32, &[u8])> = table.range(lo, hi).collect();
                    let want: Vec<(i32, &[u8])> =
                        oracle.range(lo..=hi).map(|(&t, l)| (t, l.as_slice())).collect();
                    prop_assert_eq!(got, want);
                }
                let all: Vec<(i32, &[u8])> = table.iter().collect();
                let want: Vec<(i32, &[u8])> = oracle.iter().map(|(&t, l)| (t, l.as_slice())).collect();
                prop_assert_eq!(all, want);
            }
        }
    }

    #[test]
    fn extremes_have_no_neighbours_beyond_them() {
        let mut table = TrackTable::default();
        table.push(i32::MAX, 1u8);
        table.push(i32::MIN, 2u8);
        assert_eq!(table.next_above(i32::MAX), None);
        assert_eq!(table.next_below(i32::MIN), None);
        assert_eq!(table.next_above(i32::MIN), Some(i32::MAX));
        assert_eq!(table.next_below(i32::MAX), Some(i32::MIN));
        assert_eq!(table.next_above(i32::MAX - 1), Some(i32::MAX));
        assert_eq!(table.next_below(i32::MIN + 1), Some(i32::MIN));
        let all: Vec<i32> = table.range(i32::MIN, i32::MAX).map(|(t, _)| t).collect();
        assert_eq!(all, vec![i32::MIN, i32::MAX]);
    }

    #[test]
    fn negative_tracks_round_down_to_their_chunk() {
        assert_eq!(split(-1), (-64, 63));
        assert_eq!(split(-64), (-64, 0));
        assert_eq!(split(-65), (-128, 63));
        assert_eq!(split(63), (0, 63));
        assert_eq!(split(i32::MIN), (i32::MIN, 0));
        assert_eq!(split(i32::MAX), (i32::MAX - 63, 63));
        let mut table = TrackTable::default();
        for t in [-1, -64, 0] {
            table.push(t, t);
        }
        assert_eq!(table.chunk_count(), 2);
        assert_eq!(table.get(-1), &[-1]);
        assert_eq!(table.next_below(0), Some(-1));
        assert_eq!(table.next_below(-1), Some(-64));
        assert_eq!(table.next_above(-64), Some(-1));
        assert_eq!(table.next_above(-1), Some(0));
    }

    #[test]
    fn sparse_tracks_take_one_chunk_each_at_most() {
        let mut table = TrackTable::default();
        let tracks: Vec<i32> = (0..200).map(|i| (i - 100) * 21_474_836).collect();
        for &t in &tracks {
            table.push(t, ());
        }
        assert_eq!(table.len(), tracks.len());
        assert!(table.chunk_count() <= tracks.len());
        // A range across the whole plane visits only the occupied tracks.
        assert_eq!(table.range(i32::MIN, i32::MAX).count(), tracks.len());
        for &t in &tracks {
            assert_eq!(table.remove_where(t, |_| true), 1);
        }
        assert_eq!(table.chunk_count(), 0);
    }
}
