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
//! * A [`Walk`] steps from one occupied track to the next with no
//!   search at all: it keeps a chunk index and the bits of that chunk
//!   still ahead, and borrows nothing between steps.
//!
//! Memory grows with the occupied chunks, never with the coordinate
//! extent, so the whole `i32` plane stays addressable. A table keeps a
//! few emptied small lists for its next new tracks, so one that is
//! cleared and refilled, as a search's tables are, allocates little.

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
    /// Emptied small lists, kept for the next new tracks.
    spare: Vec<Vec<T>>,
}

/// How many emptied lists a table keeps at most.
const SPARE: usize = 32;
/// The largest capacity of a list a table keeps: that of a list's
/// first allocation, so the spare lists hold little memory.
const SPARE_CAPACITY: usize = 4;

impl<T> Default for TrackTable<T> {
    fn default() -> Self {
        TrackTable { chunks: Vec::new(), spare: Vec::new() }
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
            chunk.slots.insert(slot, self.spare.pop().unwrap_or_default());
        }
        let out = edit(&mut chunk.slots[slot]);
        if chunk.slots[slot].is_empty() {
            let list = chunk.slots.remove(slot);
            chunk.occupied &= !(1 << off);
            if chunk.occupied == 0 {
                self.chunks.remove(ci);
            }
            self.recycle(list);
        }
        out
    }

    /// Keeps an emptied list for the next new track, when it is small
    /// and fewer than [`SPARE`] are kept already.
    fn recycle(&mut self, mut list: Vec<T>) {
        if self.spare.len() < SPARE && list.capacity() <= SPARE_CAPACITY {
            list.clear();
            self.spare.push(list);
        }
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
        Some(self.walk(from, true).next(self)?.track)
    }

    /// The nearest occupied track strictly below `from`.
    pub(crate) fn next_below(&self, from: i32) -> Option<i32> {
        Some(self.walk(from, false).next(self)?.track)
    }

    /// A walk over the occupied tracks strictly above `from` (`up`) or
    /// strictly below it, nearest first.
    pub(crate) fn walk(&self, from: i32, up: bool) -> Walk {
        let start = if up { from.checked_add(1) } else { from.checked_sub(1) };
        let Some(start) = start else {
            // Nothing lies beyond either end of `i32`.
            return Walk { chunk: self.chunks.len(), word: 0, up: true };
        };
        let (base, off) = split(start);
        let ahead = if up { u64::MAX << off } else { bits_between(0, off) };
        let i = self.chunks.partition_point(|c| c.base < base);
        match self.chunks.get(i) {
            Some(c) if c.base == base => Walk { chunk: i, word: c.occupied & ahead, up },
            // The chunk at `i` lies wholly above `start`, and the one
            // before it wholly below.
            Some(c) if up => Walk { chunk: i, word: c.occupied, up },
            _ if up => Walk { chunk: i, word: 0, up },
            _ => match i.checked_sub(1) {
                Some(j) => Walk { chunk: j, word: self.chunks[j].occupied, up },
                None => Walk { chunk: 0, word: 0, up },
            },
        }
    }

    /// The list of a track a [`Walk`] stopped at.
    pub(crate) fn list(&self, stop: Stop) -> &[T] {
        &self.chunks[stop.chunk].slots[stop.slot]
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

    /// Drops every track, keeping the chunk list's capacity and a few
    /// of the emptied lists.
    pub(crate) fn clear(&mut self) {
        let mut chunks = std::mem::take(&mut self.chunks);
        for list in chunks.drain(..).flat_map(|c| c.slots) {
            self.recycle(list);
        }
        self.chunks = chunks;
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

/// An occupied track met by a [`Walk`], and where its list sits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stop {
    pub(crate) track: i32,
    chunk: usize,
    slot: usize,
}

/// A walk over a table's occupied tracks in one direction, nearest
/// first: the chunk at hand and its bits still ahead. It borrows
/// nothing, so the table may change between steps as long as its
/// chunks and occupancy words do not. Pushing onto a track that is
/// already occupied changes neither, and a [`Stop`] met before such a
/// push still reads the track's list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    chunk: usize,
    word: u64,
    up: bool,
}

impl Walk {
    /// The next occupied track of `table`, the table this walk started on.
    pub(crate) fn next<T>(&mut self, table: &TrackTable<T>) -> Option<Stop> {
        while self.word == 0 {
            self.chunk = if self.up { self.chunk + 1 } else { self.chunk.checked_sub(1)? };
            self.word = table.chunks.get(self.chunk)?.occupied;
        }
        let off = if self.up { self.word.trailing_zeros() } else { 63 - self.word.leading_zeros() };
        self.word &= !(1 << off);
        let chunk = &table.chunks[self.chunk];
        Some(Stop { track: chunk.base + off as i32, chunk: self.chunk, slot: chunk.rank(off) })
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
                for &t in &probes {
                    for up in [true, false] {
                        let mut walk = table.walk(t, up);
                        let got: Vec<(i32, &[u8])> = std::iter::from_fn(|| walk.next(&table))
                            .map(|stop| (stop.track, table.list(stop)))
                            .collect();
                        let beyond: Vec<(&i32, &Vec<u8>)> = if up {
                            oracle.range(t..).filter(|&(&k, _)| k > t).collect()
                        } else {
                            oracle.range(..t).rev().collect()
                        };
                        let want: Vec<(i32, &[u8])> =
                            beyond.into_iter().map(|(&k, l)| (k, l.as_slice())).collect();
                        prop_assert_eq!(got, want);
                    }
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
