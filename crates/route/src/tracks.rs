//! A sparse per-track table: the one index behind the obstacle map's
//! lanes and the search's active index and coverage ledgers.
//!
//! Tracks are grouped into chunks of 64 consecutive coordinates. Each
//! chunk holds one occupancy word (bit `i` set when track `base + i`
//! holds anything) and one span per set bit, in ascending track order,
//! so a track's span sits at the popcount of the bits below it. The
//! chunks sit in a `Vec` sorted by base.
//!
//! * A lookup is a binary search over the chunks plus a popcount.
//! * The next occupied track above or below is a bit scan, in the
//!   chunk at hand or the neighbouring one.
//! * A range walk visits only occupied tracks.
//! * A [`Walk`] steps from one occupied track to the next with no
//!   search at all: it keeps a chunk index and the bits of that chunk
//!   still ahead, and borrows nothing between steps.
//!
//! A table allocates nothing per track or per chunk. Every track's
//! values sit in one contiguous value [`Store`], and every chunk's
//! spans in one span store; a span says where a list starts in its
//! store, how long it is and how much room it has.
//!
//! * A list that outgrows its room moves to the end of the store with
//!   twice the room, or grows where it is when it ends the store. The
//!   room it leaves is garbage, as is the room of a list that empties.
//! * When a list must move while the store is full and more than an
//!   eighth of it is garbage, the lists slide down over the garbage
//!   instead of the store growing. A store that must grow grows by a
//!   quarter, so little of it is spare.
//! * Clearing a table keeps [`RETAINED_BYTES`] of each store's
//!   storage, so a table that is cleared and refilled, as a search's
//!   tables are, allocates little.
//!
//! Memory grows with the occupied chunks, never with the coordinate
//! extent, so the whole `i32` plane stays addressable.

use std::ops::Range;

/// Tracks per chunk, as a shift.
const CHUNK_BITS: u32 = 6;
/// Clears the offset bits of a track, leaving its chunk base.
const BASE_MASK: i32 = !((1 << CHUNK_BITS) - 1);
/// The room a list gets when it first grows.
const MIN_ROOM: usize = 4;
/// How many bytes of storage a store keeps when its table is cleared:
/// more than a typical search's tables hold, little next to a large one.
const RETAINED_BYTES: usize = 4096;

/// The chunk base and bit offset of a track. Negative tracks round
/// down: track -1 is offset 63 of the chunk based at -64.
fn split(track: i32) -> (i32, u32) {
    (track & BASE_MASK, (track & !BASE_MASK) as u32)
}

/// The bits of a word at offsets `lo..=hi`.
fn bits_between(lo: u32, hi: u32) -> u64 {
    (u64::MAX << lo) & (u64::MAX >> (63 - hi))
}

/// A store position or size, as a span keeps it.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a track table store holds fewer than 2^32 entries")
}

/// The room a full list moves to.
fn wider(room: u32) -> usize {
    (room as usize * 2).max(MIN_ROOM)
}

/// Where one list sits in a [`Store`].
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    /// The entries from `start` reserved for the list: at least `len`.
    room: u32,
}

impl Span {
    /// The entries holding the list.
    fn live(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// Many lists in one `Vec`, each in the room of its [`Span`], which its
/// owner keeps. Entries in no span's room are garbage.
#[derive(Debug, Clone)]
struct Store<T> {
    entries: Vec<T>,
    garbage: usize,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Store { entries: Vec::new(), garbage: 0 }
    }
}

impl<T: Copy> Store<T> {
    fn list(&self, span: Span) -> &[T] {
        &self.entries[span.live()]
    }

    /// Appends `value` to a list, growing the list's room first when
    /// it is full.
    fn push(&mut self, span: &mut Span, value: T) {
        if span.len == span.room {
            self.grow(span, value);
        }
        self.entries[span.start as usize + span.len as usize] = value;
        span.len += 1;
    }

    /// Replaces the entries at `range` of a list with `value`.
    fn splice(&mut self, span: &mut Span, range: Range<usize>, value: T) {
        if range.is_empty() {
            self.push(span, value);
            self.entries[span.live()][range.start..].rotate_right(1);
            return;
        }
        let list = &mut self.entries[span.live()];
        list[range.start] = value;
        list.copy_within(range.end.., range.start + 1);
        span.len -= index(range.len() - 1);
    }

    /// Gives a full list [`wider`] room: in place when the list ends
    /// the store, else by moving the list to the end. `fill` pads the
    /// new room. Storage that runs out grows by a quarter at least.
    fn grow(&mut self, span: &mut Span, fill: T) {
        let (start, room, wider) = (span.start as usize, span.room as usize, wider(span.room));
        let end = self.entries.len();
        let at_end = start + room == end;
        let need = if at_end { start + wider } else { end + wider };
        if need > self.entries.capacity() {
            self.entries.reserve_exact((need - end).max(end / 4));
        }
        self.entries.resize(need, fill);
        if !at_end {
            self.entries.copy_within(span.live(), end);
            self.garbage += room;
            span.start = index(end);
        }
        span.room = index(wider);
    }

    /// Keeps the entries of a list for which `keep` holds, in order,
    /// and returns how many were dropped. An emptied list's room
    /// becomes garbage.
    fn retain(&mut self, span: &mut Span, mut keep: impl FnMut(&T) -> bool) -> usize {
        let list = &mut self.entries[span.live()];
        let mut kept = 0;
        for i in 0..list.len() {
            if keep(&list[i]) {
                list[kept] = list[i];
                kept += 1;
            }
        }
        let dropped = list.len() - kept;
        span.len = index(kept);
        if kept == 0 {
            self.garbage += span.room as usize;
        }
        dropped
    }

    /// Removes the entry at `at` of a list. An emptied list's room
    /// becomes garbage.
    fn remove(&mut self, span: &mut Span, at: usize) {
        self.entries[span.live()].copy_within(at + 1.., at);
        span.len -= 1;
        if span.len == 0 {
            self.garbage += span.room as usize;
        }
    }

    /// Whether a list moving into `room` entries at the end would
    /// outgrow the storage while an eighth of the store is garbage:
    /// then sliding the lists down makes space without growing.
    fn cramped(&self, room: usize) -> bool {
        self.entries.len() + room > self.entries.capacity() && self.garbage * 8 > self.entries.len()
    }

    /// Slides every list down over the garbage, in store order, each
    /// keeping its room. `lists` holds every list's span, each with a
    /// tag naming its owner; the moved spans are written back there.
    fn compact(&mut self, lists: &mut [(Span, usize)]) {
        lists.sort_unstable_by_key(|(span, _)| span.start);
        let mut at = 0;
        for (span, _) in lists.iter_mut() {
            self.entries.copy_within(span.live(), at);
            span.start = index(at);
            at += span.room as usize;
        }
        self.entries.truncate(at);
        self.garbage = 0;
    }

    /// Drops every list, keeping at most [`RETAINED_BYTES`] of storage.
    fn clear(&mut self) {
        self.entries.clear();
        self.entries.shrink_to(RETAINED_BYTES / std::mem::size_of::<T>().max(1));
        self.garbage = 0;
    }
}

#[derive(Debug, Clone)]
struct Chunk {
    base: i32,
    /// Bit `i`: track `base + i` is occupied. Never zero.
    occupied: u64,
    /// Where the chunk's spans sit in the span store: one per set bit
    /// of `occupied`, in bit order.
    spans: Span,
}

impl Chunk {
    /// The rank of offset `off` among the chunk's spans: the set bits
    /// below it.
    fn rank(&self, off: u32) -> usize {
        (self.occupied & !(u64::MAX << off)).count_ones() as usize
    }

    fn has(&self, off: u32) -> bool {
        self.occupied >> off & 1 == 1
    }

    /// Where the span of the track at rank `slot` sits in the span store.
    fn at(&self, slot: usize) -> usize {
        self.spans.start as usize + slot
    }
}

/// Lists of `T` keyed by `i32` track, with ordered neighbour queries.
///
/// A present track always holds at least one value: the edits drop a
/// track they empty, because the sweeps stop at every present track.
#[derive(Debug, Clone)]
pub(crate) struct TrackTable<T> {
    chunks: Vec<Chunk>,
    /// Every chunk's spans, each list in its chunk's room.
    spans: Store<Span>,
    /// Every track's values, each list in its span's room.
    values: Store<T>,
}

impl<T> Default for TrackTable<T> {
    fn default() -> Self {
        TrackTable { chunks: Vec::new(), spans: Store::default(), values: Store::default() }
    }
}

impl<T: Copy> TrackTable<T> {
    /// The index of the chunk based at `base`, or where it would go.
    fn find(&self, base: i32) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&base, |c| c.base)
    }

    /// The chunk index and rank of a track, when it is occupied.
    fn locate(&self, track: i32) -> Option<(usize, usize)> {
        let (base, off) = split(track);
        let ci = self.find(base).ok()?;
        let chunk = &self.chunks[ci];
        chunk.has(off).then(|| (ci, chunk.rank(off)))
    }

    /// The span of the track at rank `slot` of chunk `ci`.
    fn span(&self, ci: usize, slot: usize) -> Span {
        self.spans.entries[self.chunks[ci].at(slot)]
    }

    /// The values on a track (empty when absent), in the order the
    /// table's pushes and edits left them.
    pub(crate) fn get(&self, track: i32) -> &[T] {
        match self.locate(track) {
            Some((ci, slot)) => self.values.list(self.span(ci, slot)),
            None => &[],
        }
    }

    /// One track, looked up once for a read and an in-place edit.
    pub(crate) fn track_mut(&mut self, track: i32) -> TrackMut<'_, T> {
        let at = self.locate(track);
        TrackMut { table: self, track, at }
    }

    /// Slides the value store's lists down over its garbage.
    fn compact_values(&mut self) {
        let mut lists: Vec<(Span, usize)> = (self.chunks.iter())
            .flat_map(|c| c.spans.live())
            .map(|i| (self.spans.entries[i], i))
            .collect();
        self.values.compact(&mut lists);
        for (span, i) in lists {
            self.spans.entries[i] = span;
        }
    }

    /// Slides the span store's lists down over its garbage.
    fn compact_spans(&mut self) {
        let mut lists: Vec<(Span, usize)> =
            self.chunks.iter().enumerate().map(|(ci, c)| (c.spans, ci)).collect();
        self.spans.compact(&mut lists);
        for (span, ci) in lists {
            self.chunks[ci].spans = span;
        }
    }

    /// The chunk index and rank of a track, which is created with an
    /// empty list when absent: the caller fills it.
    fn occupy(&mut self, track: i32) -> (usize, usize) {
        let (base, off) = split(track);
        let ci = self.find(base).unwrap_or_else(|ci| {
            self.chunks.insert(ci, Chunk { base, occupied: 0, spans: Span::default() });
            ci
        });
        let slot = self.chunks[ci].rank(off);
        if !self.chunks[ci].has(off) {
            let spans = self.chunks[ci].spans;
            if spans.len == spans.room && self.spans.cramped(wider(spans.room)) {
                self.compact_spans();
            }
            let chunk = &mut self.chunks[ci];
            chunk.occupied |= 1 << off;
            self.spans.splice(&mut chunk.spans, slot..slot, Span::default());
        }
        (ci, slot)
    }

    /// Where the span of the list at `(ci, slot)` sits in the span
    /// store, ready for one more value: when that would move the list
    /// and the value store is [`Store::cramped`], the store's lists
    /// slide down first.
    fn make_room(&mut self, (ci, slot): (usize, usize)) -> usize {
        let span = self.span(ci, slot);
        if span.len == span.room && self.values.cramped(wider(span.room)) {
            self.compact_values();
        }
        self.chunks[ci].at(slot)
    }

    /// Appends a value to a track.
    pub(crate) fn push(&mut self, track: i32, value: T) {
        let at = self.occupy(track);
        let at = self.make_room(at);
        self.values.push(&mut self.spans.entries[at], value);
    }

    /// Drops the values on one track for which `remove` holds; an
    /// absent track stays absent. Returns how many were dropped.
    pub(crate) fn remove_where(&mut self, track: i32, mut remove: impl FnMut(&T) -> bool) -> usize {
        let Some((ci, slot)) = self.locate(track) else { return 0 };
        let chunk = &mut self.chunks[ci];
        let span = &mut self.spans.entries[chunk.at(slot)];
        let dropped = self.values.retain(span, |v| !remove(v));
        if span.len == 0 {
            chunk.occupied &= !(1 << split(track).1);
            self.spans.remove(&mut chunk.spans, slot);
            if chunk.occupied == 0 {
                self.chunks.remove(ci);
            }
        }
        dropped
    }

    /// Drops every value for which `remove(track, value)` holds, over
    /// the whole table. Returns how many were dropped.
    pub(crate) fn remove_all_where(&mut self, mut remove: impl FnMut(i32, &T) -> bool) -> usize {
        let mut dropped = 0;
        for chunk in &mut self.chunks {
            let (mut word, mut slot) = (chunk.occupied, 0);
            while word != 0 {
                let off = word.trailing_zeros();
                word &= word - 1;
                let track = chunk.base + off as i32;
                let span = &mut self.spans.entries[chunk.at(slot)];
                dropped += self.values.retain(span, |v| !remove(track, v));
                if span.len == 0 {
                    self.spans.remove(&mut chunk.spans, slot);
                    chunk.occupied &= !(1 << off);
                } else {
                    slot += 1;
                }
            }
        }
        self.chunks.retain(|c| c.occupied != 0);
        dropped
    }

    /// The nearest occupied track strictly above `from`: the oracle of
    /// a [`Walk`] upwards.
    #[cfg(test)]
    pub(crate) fn next_above(&self, from: i32) -> Option<i32> {
        Some(self.walk(from, true).next(self)?.track)
    }

    /// The nearest occupied track strictly below `from`: the oracle of
    /// a [`Walk`] downwards.
    #[cfg(test)]
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
        self.values.list(self.span(stop.chunk, stop.slot))
    }

    /// The occupied tracks of chunk `c` whose offsets are in `mask`,
    /// ascending, with their lists.
    fn tracks<'a>(&'a self, c: &'a Chunk, mask: u64) -> impl Iterator<Item = (i32, &'a [T])> {
        let mut word = c.occupied & mask;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let off = word.trailing_zeros();
                word &= word - 1;
                (c.base + off as i32, self.values.list(self.spans.entries[c.at(c.rank(off))]))
            })
        })
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
                self.tracks(c, bits_between(first, last))
            })
    }

    /// Every occupied track, ascending, with its list.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (i32, &[T])> {
        self.range(i32::MIN, i32::MAX)
    }

    /// Drops every track, keeping the chunk list's capacity and at most
    /// [`RETAINED_BYTES`] of each store's.
    pub(crate) fn clear(&mut self) {
        self.chunks.clear();
        self.spans.clear();
        self.values.clear();
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

    /// Asserts that every list lies in its own room inside its store
    /// and that the rooms and the garbage add up to each store, and
    /// returns the value store's length and garbage.
    #[cfg(test)]
    fn check_stores(&self) -> (usize, usize) {
        fn check<T>(store: &Store<T>, spans: &mut [Span]) {
            spans.sort_unstable_by_key(|s| s.start);
            let mut end = 0;
            for s in spans.iter() {
                assert!(s.len > 0 && s.len <= s.room, "{s:?}");
                assert!(s.start as usize >= end, "rooms overlap at {s:?}");
                end = s.start as usize + s.room as usize;
            }
            assert!(end <= store.entries.len());
            let rooms: usize = spans.iter().map(|s| s.room as usize).sum();
            assert_eq!(rooms + store.garbage, store.entries.len());
        }
        let mut chunk_spans: Vec<Span> = self.chunks.iter().map(|c| c.spans).collect();
        for c in &self.chunks {
            assert_eq!(c.spans.len, c.occupied.count_ones());
        }
        check(&self.spans, &mut chunk_spans);
        let mut track_spans: Vec<Span> =
            self.chunks.iter().flat_map(|c| self.spans.list(c.spans)).copied().collect();
        check(&self.values, &mut track_spans);
        (self.values.entries.len(), self.values.garbage)
    }
}

/// An occupied track met by a [`Walk`], and the rank of its span in
/// its chunk.
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
/// already occupied changes neither, even when the list moves in the
/// store, and a [`Stop`] met before such a push still reads the
/// track's list.
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

/// One track of a [`TrackTable`], looked up once: its values can be
/// read and then edited in place without a second lookup.
pub(crate) struct TrackMut<'a, T> {
    table: &'a mut TrackTable<T>,
    track: i32,
    /// The track's chunk index and rank, once it is occupied.
    at: Option<(usize, usize)>,
}

impl<T: Copy> TrackMut<'_, T> {
    /// The track's values (empty when absent), in the order the
    /// table's pushes and edits left them.
    pub(crate) fn get(&self) -> &[T] {
        match self.at {
            Some((ci, slot)) => self.table.values.list(self.table.span(ci, slot)),
            None => &[],
        }
    }

    /// Replaces the values at `range` with `value`, creating the track
    /// when absent (then `range` must be `0..0`).
    pub(crate) fn replace(&mut self, range: Range<usize>, value: T) {
        let at = match self.at {
            Some(at) => at,
            None => self.table.occupy(self.track),
        };
        self.at = Some(at);
        let at = self.table.make_room(at);
        self.table.values.splice(&mut self.table.spans.entries[at], range, value);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;

    use netart_geom::Interval;
    use proptest::prelude::*;

    use super::*;
    use crate::expand::cover;
    use crate::expand::tests::subtract_all;

    /// Shuffles every track's list of `table` (Fisher–Yates), drawing
    /// from `random`.
    pub(crate) fn shuffle_lists<T: Copy>(
        table: &mut TrackTable<T>,
        random: &mut impl FnMut() -> u64,
    ) {
        for i in table.chunks.iter().flat_map(|c| c.spans.live()) {
            let list = &mut table.values.entries[table.spans.entries[i].live()];
            for j in (1..list.len()).rev() {
                list.swap(j, (random() % (j as u64 + 1)) as usize);
            }
        }
    }

    /// One edit of a random table history.
    #[derive(Debug, Clone)]
    enum Op {
        Push(i32, u8),
        Remove(i32, u8),
        RemoveAll(u8),
        /// Pushes `v` onto 24 tracks from `t` on, three rounds over
        /// them, so their lists outgrow their rooms in turn.
        Spread(i32, u8),
        /// Covers a span on one track of the ledger table.
        Cover(i32, Interval),
        Clear,
    }

    /// Tracks clustered around a few centres, including both ends of
    /// `i32` and chunk boundaries on either side of zero.
    fn track_strategy() -> impl Strategy<Value = i32> {
        let centres = [i32::MIN, -4096, -65, -1, 0, 63, 64, 1 << 20, i32::MAX - 70];
        (prop::sample::select(centres.to_vec()), 0i32..140).prop_map(|(c, d)| c.saturating_add(d))
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let span = (-40i32..40, 0i32..12).prop_map(|(lo, len)| Interval::new(lo, lo + len));
        // Ledger edits stay on a few tracks, so each ledger gathers
        // intervals for later spans to merge.
        let ledger = prop::sample::select(vec![i32::MIN, -1, 0, 64, i32::MAX]);
        (0u8..16, track_strategy(), 0u8..4, ledger, span).prop_map(|(op, t, v, lt, span)| match op {
            0..=4 => Op::Push(t, v),
            5 | 6 => Op::Remove(t, v),
            7 => Op::RemoveAll(v),
            8 | 9 => Op::Spread(t, v),
            10..=14 => Op::Cover(lt, span),
            _ => Op::Clear,
        })
    }

    /// The tracks `Op::Spread` pushes onto, saturating at `i32::MAX`.
    fn spread_tracks(t: i32) -> impl Iterator<Item = i32> {
        (0..24).map(move |k| t.saturating_add(k * 5))
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
        /// emptied tracks does, through histories that move lists in
        /// their store, slide the store down over garbage, clear the
        /// table and refill it; and a ledger edited in place hands out
        /// the pieces that subtracting what it handed out before leaves.
        #[test]
        fn track_table_matches_a_btreemap(
            ops in prop::collection::vec(op_strategy(), 0..60),
            probes in prop::collection::vec(track_strategy(), 8),
            spans in prop::collection::vec((track_strategy(), track_strategy()), 4),
        ) {
            let mut table = TrackTable::default();
            let mut oracle: BTreeMap<i32, Vec<u8>> = BTreeMap::new();
            // The ledger table, its coalesced model, and every piece
            // each track was handed, the model of what it covers.
            let mut ledgers = TrackTable::default();
            let mut ledger_oracle: BTreeMap<i32, Vec<Interval>> = BTreeMap::new();
            let mut handed: BTreeMap<i32, Vec<Interval>> = BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Push(t, v) => {
                        table.push(t, v);
                        oracle.entry(t).or_default().push(v);
                    }
                    Op::Spread(t, v) => {
                        for _ in 0..3 {
                            for t in spread_tracks(t) {
                                table.push(t, v);
                                oracle.entry(t).or_default().push(v);
                            }
                        }
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
                    Op::Cover(t, span) => {
                        let mut pieces = Vec::new();
                        cover(&mut ledgers.track_mut(t), span, &mut pieces);
                        let seen = handed.entry(t).or_default();
                        prop_assert_eq!(&pieces, &subtract_all(span, seen));
                        seen.extend(pieces.iter().copied());
                        cover(ledger_oracle.entry(t).or_default(), span, &mut Vec::new());
                        prop_assert_eq!(ledgers.get(t), ledger_oracle[&t].as_slice());
                    }
                    Op::Clear => {
                        table.clear();
                        oracle.clear();
                        ledgers.clear();
                        ledger_oracle.clear();
                        handed.clear();
                    }
                }
                table.check_stores();
                ledgers.check_stores();
                let all: Vec<(i32, &[Interval])> = ledgers.iter().collect();
                let want: Vec<(i32, &[Interval])> =
                    ledger_oracle.iter().map(|(&t, l)| (t, l.as_slice())).collect();
                prop_assert_eq!(all, want);
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

    /// Pushes interleaved over many tracks move lists to the end of the
    /// store, leaving garbage; once removals add more, the store slides
    /// down over it instead of growing. Every list reads back as pushed
    /// throughout.
    #[test]
    fn lists_move_and_the_store_slides_down() {
        let mut table = TrackTable::default();
        let mut oracle: BTreeMap<i32, Vec<u32>> = BTreeMap::new();
        let (mut moved, mut slid) = (false, false);
        for round in 0..40u32 {
            let (_, before) = table.check_stores();
            for t in (0..50).map(|k| k * 3) {
                table.push(t, round);
                oracle.entry(t).or_default().push(round);
            }
            let (_, after) = table.check_stores();
            moved |= after > before;
            slid |= after < before;
            if round % 4 == 3 {
                let gone = |t: i32, v: u32| (t as u32 / 3 + v).is_multiple_of(3);
                table.remove_all_where(|t, &v| gone(t, v));
                oracle.retain(|&t, list| {
                    list.retain(|&v| !gone(t, v));
                    !list.is_empty()
                });
            }
            let all: Vec<(i32, &[u32])> = table.iter().collect();
            let want: Vec<(i32, &[u32])> = oracle.iter().map(|(&t, l)| (t, l.as_slice())).collect();
            assert_eq!(all, want);
        }
        assert!(moved && slid, "moved {moved}, slid {slid}");
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
