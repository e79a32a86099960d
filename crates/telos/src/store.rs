//! The one append-only storage of a proposition store, shared by the
//! live [`crate::Kb`] and every [`crate::KbVersion`] captured from it.
//!
//! In Telos the knowledge base only grows: a proposition is told once
//! and later has its belief interval closed, and nothing is deleted. So
//! the propositions, the closed log, the three posting indexes and the
//! interned names are all logs that are only appended to, and a
//! [`PropStore`] is a handle on the one `Shelf` holding them plus the
//! [`Mark`] it reads below. Capturing a version clones the handle, O(1);
//! a later write appends above every mark already handed out and copies
//! nothing a version holds. Closing a belief interval writes its end
//! tick in place, once (`Proposition::close`); a version captured
//! before reads that end as open.
//!
//! The one thing that shrinks a log is a rollback, and it cuts back only
//! to the mark its transaction opened at: above every version captured
//! (asserted — `Writer::rollback`), so no reader ever reaches what it
//! cuts.
//!
//! # Safety
//!
//! The `unsafe` of this module is in `AppendLog`, and its soundness
//! rests on three invariants this module keeps by construction:
//!
//! 1. **One writer.** Only `Writer` appends to or truncates a log, and
//!    only through `&mut self`. A shelf is created with its writer and
//!    a writer is never cloned, so each shelf has exactly one.
//! 2. **Reads below a published length.** A [`PropStore`] reads a
//!    truncatable log (propositions, closed log, names) only below its
//!    own mark, which was the writer's length when the handle was made;
//!    the other logs (posting slots and blocks) are never truncated and
//!    are read below their current length.
//! 3. **No cut below a capture.** Every clone of a handle — a capture
//!    is one — raises the shelf's reach to its mark, and the writer
//!    refuses to truncate below the reach, so the elements a reader on
//!    another thread can reach are never dropped or written again while
//!    the shelf lives. (The live handle inside the writer reads above
//!    the reach, but only while no `&mut` to the writer exists, so
//!    never during a truncation.)
//!
//! The two kernels are exported for the rest of a published state: a
//! [`Log`] reads an append-only log below the length it was made at, a
//! [`Chains`] a chain index below a bound its caller gives, and each is
//! written only by the one [`Appender`] made with it, which is not
//! `Clone` and appends through `&mut self`. Neither is ever truncated,
//! so invariants 1 and 2 are all they rest on.
//!
//! Words a reader may see change — an interval's end tick, a posting
//! list's length and its entries above a rollback's mark — are atomics.

use crate::error::{TelosError, TelosResult};
use crate::kb::{L_INSTANCEOF, L_ISA};
use crate::prop::{PropId, Proposition};
use crate::symbols::{Name, Symbol, SymbolMap};
use crate::time::interval::Interval;
use crate::version::Mark;
use std::alloc::{self, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr;
use std::slice;
use std::sync::atomic::{AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// log2 of the first chunk's capacity (32 elements). Chunk `c` holds
/// `32 << c` elements, so 28 chunks cover every `u32` index.
const BASE_BITS: u32 = 5;
/// Number of chunks in a log's spine.
const SPINE: usize = (u32::BITS - BASE_BITS + 1) as usize;

/// Splits an index into (chunk, offset within the chunk).
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let adjusted = i + (1 << BASE_BITS);
    let chunk = (usize::BITS - 1 - adjusted.leading_zeros() - BASE_BITS) as usize;
    (chunk, adjusted - (1 << (chunk as u32 + BASE_BITS)))
}

/// Capacity of chunk `c`; it starts at index `capacity(c) - 32`.
#[inline]
fn capacity(chunk: usize) -> usize {
    1 << (chunk as u32 + BASE_BITS)
}

/// An append-only vector whose elements never move: chunk `c` holds
/// `32 << c` of them and, once allocated, stays put until the log is
/// dropped. A reader holding an index below a length the writer
/// published reads the element with two loads (the chunk pointer, then
/// the element) and no lock. See the module doc for who may call what.
struct AppendLog<T> {
    /// Chunk `c` is null until its first element is pushed.
    spine: [AtomicPtr<T>; SPINE],
    /// Elements initialised: `0..len`.
    len: AtomicUsize,
    elements: PhantomData<T>,
}

impl<T> AppendLog<T> {
    fn new() -> Self {
        const { assert!(size_of::<T>() > 0, "a log of zero-sized elements") };
        AppendLog {
            spine: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            len: AtomicUsize::new(0),
            elements: PhantomData,
        }
    }

    fn layout(chunk: usize) -> Layout {
        Layout::array::<T>(capacity(chunk)).expect("chunk fits the address space")
    }

    /// The length the writer last published.
    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The element at `i`, which must be below a length the writer
    /// published to the caller and has not cut below since
    /// (invariants 2 and 3 of the module doc).
    #[inline]
    fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len.load(Ordering::Relaxed), "read past the log");
        let (chunk, offset) = locate(i);
        let base = self.spine[chunk].load(Ordering::Acquire);
        // SAFETY: `i` is below a published length, so chunk `chunk` was
        // allocated and element `i` written before that length was
        // stored (`Release`) and handed to this reader; the chunk is
        // freed only in `drop`, and the element is dropped only by a
        // `truncate` below `i + 1`, which invariant 3 rules out while a
        // reader can hold `i`.
        unsafe { &*base.add(offset) }
    }

    /// Appends `value`, returning its index. Writer only (invariant 1).
    fn push(&self, value: T) -> usize {
        let i = self.len.load(Ordering::Relaxed);
        let (chunk, offset) = locate(i);
        let mut base = self.spine[chunk].load(Ordering::Relaxed);
        if base.is_null() {
            let layout = Self::layout(chunk);
            // SAFETY: the layout has a non-zero size (`T` is not
            // zero-sized and a chunk holds at least 32 elements).
            base = unsafe { alloc::alloc(layout) }.cast::<T>();
            if base.is_null() {
                alloc::handle_alloc_error(layout);
            }
            self.spine[chunk].store(base, Ordering::Release);
        }
        // SAFETY: `offset < capacity(chunk)` (see `locate`), and slot
        // `i` is at or past `len`, so it holds no element and no reader
        // reads it (invariant 2); the only writer is us (invariant 1).
        unsafe { base.add(offset).write(value) };
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// Drops every element from `len` on. Writer only (invariant 1),
    /// and never below an index a reader may hold (invariant 3).
    fn truncate(&self, len: usize) {
        let old = self.len.load(Ordering::Relaxed);
        if len >= old {
            return;
        }
        self.len.store(len, Ordering::Release);
        for i in len..old {
            let (chunk, offset) = locate(i);
            let base = self.spine[chunk].load(Ordering::Relaxed);
            // SAFETY: element `i` was initialised (below the old
            // length) and, by invariant 3, no reader holds it; it is
            // dropped once, as the length no longer covers it.
            unsafe { ptr::drop_in_place(base.add(offset)) };
        }
    }

    /// The `len` elements from `start` on, which must lie in one chunk
    /// and below a published length (invariant 2).
    fn run(&self, start: usize, len: usize) -> &[T] {
        let (chunk, offset) = locate(start);
        debug_assert!(offset + len <= capacity(chunk), "a run across chunks");
        debug_assert!(
            start + len <= self.len.load(Ordering::Relaxed),
            "read past the log"
        );
        let base = self.spine[chunk].load(Ordering::Acquire);
        // SAFETY: as for `get`, for each element of the run, which all
        // lie in the one chunk `base` points at.
        unsafe { slice::from_raw_parts(base.add(offset), len) }
    }

    /// The elements `0..len` as one slice per chunk, in order.
    fn slices(&self, len: usize) -> impl Iterator<Item = &[T]> {
        (0..SPINE).map_while(move |chunk| {
            let start = capacity(chunk) - capacity(0);
            (start < len).then(|| {
                let base = self.spine[chunk].load(Ordering::Acquire);
                // SAFETY: as for `get`, for each of the first
                // `min(len - start, capacity)` elements of the chunk.
                unsafe { slice::from_raw_parts(base, (len - start).min(capacity(chunk))) }
            })
        })
    }
}

impl<T> Drop for AppendLog<T> {
    fn drop(&mut self) {
        self.truncate(0);
        for (chunk, base) in self.spine.iter_mut().enumerate() {
            let base = *base.get_mut();
            if !base.is_null() {
                // SAFETY: allocated in `push` with this very layout and
                // holding no element any more (truncated above).
                unsafe { alloc::dealloc(base.cast(), Self::layout(chunk)) };
            }
        }
    }
}

/// Ids in a posting chain's first block; block `b` holds `FIRST << b`.
const FIRST: usize = 4;

/// The block of a posting chain holding position `pos`, and the offset
/// in it: block `b` covers positions `FIRST·(2^b − 1) .. FIRST·(2^(b+1) − 1)`.
#[inline]
fn block_of(pos: usize) -> (usize, usize) {
    let b = (pos / FIRST + 1).ilog2() as usize;
    (b, pos - FIRST * ((1 << b) - 1))
}

/// One key's posting list: `len` ids in a chain of blocks that double
/// in size, the ids only ever appended with increasing values (so the
/// list stays sorted) and unfiled from the end by a rollback.
#[derive(Default)]
struct Slot {
    /// The length (low half) and the start of the block holding the
    /// last id (high half), stored together so that a reader loads a
    /// consistent pair.
    state: AtomicU64,
    /// The start of the chain's first block, or 0 for none.
    head: AtomicU32,
}

fn pack(len: usize, tail: u32) -> u64 {
    len as u64 | (tail as u64) << 32
}

fn unpack(state: u64) -> (usize, u32) {
    (state as u32 as usize, (state >> 32) as u32)
}

/// A postings index over a dense key: slot `k` holds the ids of the
/// propositions filed under the key numbered `k`, in id order. Every
/// block of every chain is a run of `words`, inside one chunk of it: its
/// ids, then one word with the start of the chain's next block (0 for
/// none; word 0 starts no block). So a list costs no allocation of its
/// own. Neither log is ever truncated.
struct Index {
    slots: AppendLog<Slot>,
    words: AppendLog<AtomicU32>,
}

impl Default for Index {
    fn default() -> Self {
        let words = AppendLog::new();
        words.push(AtomicU32::new(0));
        Index {
            slots: AppendLog::new(),
            words,
        }
    }
}

impl Index {
    fn slot(&self, key: usize) -> Option<&Slot> {
        (key < self.slots.len()).then(|| self.slots.get(key))
    }

    /// The block starting at `start`, the `b`-th of its chain: its ids,
    /// and the link to the next.
    fn block(&self, start: u32, b: usize) -> (&[AtomicU32], &AtomicU32) {
        let run = self.words.run(start as usize, (FIRST << b) + 1);
        let (link, ids) = run.split_last().expect("a block ends in its link");
        (ids, link)
    }

    /// The start of the `b`-th block of the chain starting at `head`,
    /// which must exist.
    fn nth(&self, head: &AtomicU32, b: usize) -> u32 {
        let mut start = head.load(Ordering::Acquire);
        for k in 0..b {
            start = self.block(start, k).1.load(Ordering::Acquire);
        }
        start
    }

    /// Files `id` under `key`, growing the slots to reach it. Writer
    /// only.
    fn insert(&self, key: usize, id: PropId) {
        while self.slots.len() <= key {
            self.slots.push(Slot::default());
        }
        let slot = self.slots.get(key);
        let (len, tail) = unpack(slot.state.load(Ordering::Relaxed));
        let (b, offset) = block_of(len);
        // Past the end of the tail block: its successor, kept from
        // before a rollback or made now.
        let start = match (len, offset) {
            (0, _) => self.link(&slot.head, 0),
            (_, 0) => self.link(self.block(tail, b - 1).1, b),
            _ => tail,
        };
        self.block(start, b).0[offset].store(id.0, Ordering::Relaxed);
        slot.state.store(pack(len + 1, start), Ordering::Release);
    }

    /// The block `link` points at, after carving one of `FIRST << b`
    /// ids out of the words if it points at none. A block never spans
    /// two chunks: what is left of a chunk too short for it is skipped.
    fn link(&self, link: &AtomicU32, b: usize) -> u32 {
        if let start @ 1.. = link.load(Ordering::Relaxed) {
            return start;
        }
        let size = (FIRST << b) + 1;
        let fits = |at: usize| {
            let (chunk, offset) = locate(at);
            offset + size <= capacity(chunk)
        };
        while !fits(self.words.len()) {
            self.words.push(AtomicU32::new(0));
        }
        let start = self.words.len();
        for _ in 0..size {
            self.words.push(AtomicU32::new(0));
        }
        let start = u32::try_from(start).expect("posting words fit a u32");
        link.store(start, Ordering::Release);
        start
    }

    /// Unfiles `id` if it is the last id filed under `key`: the undo of
    /// the latest [`Index::insert`] under the key. Writer only.
    fn unfile(&self, key: usize, id: PropId) {
        let Some(slot) = self.slot(key) else { return };
        let (len, tail) = unpack(slot.state.load(Ordering::Relaxed));
        let last =
            |(b, offset): (usize, usize)| self.block(tail, b).0[offset].load(Ordering::Relaxed);
        if len == 0 || last(block_of(len - 1)) != id.0 {
            return;
        }
        let tail = match block_of(len - 1) {
            (_, 0) if len == 1 => 0,
            (b, 0) => self.nth(&slot.head, b - 1),
            _ => tail,
        };
        slot.state.store(pack(len - 1, tail), Ordering::Release);
    }

    /// The ids filed under `key` that are below `bound`.
    fn postings(&self, key: usize, bound: usize) -> Postings<'_> {
        let Some(slot) = self.slot(key) else {
            return Postings::empty();
        };
        let (len, tail) = unpack(slot.state.load(Ordering::Acquire));
        let below = |id: &AtomicU32| (id.load(Ordering::Relaxed) as usize) < bound;
        // Positions at or past a rollback's mark may be rewritten under
        // us, but only ever with ids at or above every reader's bound.
        let last = |(b, offset): (usize, usize)| &self.block(tail, b).0[offset];
        let end = match len {
            0 => 0,
            _ if below(last(block_of(len - 1))) => len,
            _ => self.count_below(slot, len, below),
        };
        Postings {
            index: Some(self),
            head: &slot.head,
            ids: &[],
            link: &slot.head,
            next_block: 0,
            front: 0,
            end,
            back: None,
        }
    }

    /// How many of the first `len` ids of `slot`'s chain satisfy
    /// `below` — a prefix, as the ids are sorted.
    fn count_below(&self, slot: &Slot, len: usize, below: impl Fn(&AtomicU32) -> bool) -> usize {
        let mut block = slot.head.load(Ordering::Acquire);
        let mut start = 0;
        for b in 0.. {
            let (ids, link) = self.block(block, b);
            let ids = &ids[..ids.len().min(len - start)];
            if !ids.last().is_some_and(&below) {
                return start + ids.partition_point(&below);
            }
            start += FIRST << b;
            if start >= len {
                break;
            }
            block = link.load(Ordering::Acquire);
        }
        len
    }
}

/// The ids of one posting list a store holds, in id order
/// ([`PropStore::postings_from`] and its siblings).
#[derive(Clone)]
pub struct Postings<'a> {
    index: Option<&'a Index>,
    head: &'a AtomicU32,
    /// The rest of the block `front` is in, the link past it, and the
    /// chain position of the block that link points at.
    ids: &'a [AtomicU32],
    link: &'a AtomicU32,
    next_block: usize,
    front: usize,
    end: usize,
    /// The block `end - 1` was last found in: its chain position and
    /// ids.
    back: Option<(usize, &'a [AtomicU32])>,
}

/// The head of every empty list.
static NO_BLOCK: AtomicU32 = AtomicU32::new(0);

impl Postings<'_> {
    /// The empty list.
    fn empty() -> Postings<'static> {
        Postings {
            index: None,
            head: &NO_BLOCK,
            ids: &[],
            link: &NO_BLOCK,
            next_block: 0,
            front: 0,
            end: 0,
            back: None,
        }
    }
}

impl Iterator for Postings<'_> {
    type Item = PropId;

    #[inline]
    fn next(&mut self) -> Option<PropId> {
        if self.front == self.end {
            return None;
        }
        if self.ids.is_empty() {
            let index = self.index.expect("a non-empty list has an index");
            let start = self.link.load(Ordering::Acquire);
            (self.ids, self.link) = index.block(start, self.next_block);
            self.next_block += 1;
        }
        let id = self.ids[0].load(Ordering::Relaxed);
        self.ids = &self.ids[1..];
        self.front += 1;
        Some(PropId(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.end - self.front;
        (len, Some(len))
    }
}

impl DoubleEndedIterator for Postings<'_> {
    fn next_back(&mut self) -> Option<PropId> {
        if self.front == self.end {
            return None;
        }
        self.end -= 1;
        let (b, offset) = block_of(self.end);
        let ids = match self.back {
            Some((at, ids)) if at == b => ids,
            _ => {
                let index = self.index.expect("a non-empty list has an index");
                let ids = index.block(index.nth(self.head, b), b).0;
                self.back = Some((b, ids));
                ids
            }
        };
        Some(PropId(ids[offset].load(Ordering::Relaxed)))
    }
}

impl ExactSizeIterator for Postings<'_> {}

/// A read handle on an exported append-only log: the elements below
/// the length the log had when the handle was made, at addresses that
/// never change. `Clone` bumps one `Arc`.
pub struct Log<T> {
    log: Arc<AppendLog<T>>,
    len: usize,
}

impl<T> Log<T> {
    /// The number of elements it reads.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if it reads no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `i`, if below the handle's length.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| self.log.get(i))
    }

    /// Every element it reads, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.log.slices(self.len).flatten()
    }
}

impl<T> Clone for Log<T> {
    fn clone(&self) -> Self {
        let log = Arc::clone(&self.log);
        Log { log, len: self.len }
    }
}

/// An empty log.
impl<T> Default for Log<T> {
    fn default() -> Self {
        let log = Arc::new(AppendLog::new());
        Log { log, len: 0 }
    }
}

/// A read handle on an exported chain index: per dense key, the `u32`s
/// filed under it in ascending order, read below a bound the caller
/// gives. `Clone` bumps one `Arc`.
#[derive(Clone, Default)]
pub struct Chains(Arc<Index>);

impl Chains {
    /// The values filed under `key` that are below `bound`, ascending.
    pub fn get(&self, key: usize, bound: usize) -> impl DoubleEndedIterator<Item = u32> + '_ {
        self.0.postings(key, bound).map(|v| v.0)
    }

    /// True if both handles read one index, so every value at one
    /// address.
    pub fn ptr_eq(&self, other: &Chains) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The one writer of a new exported [`Log`] or [`Chains`]: it appends,
/// and derefs to the handle that reads everything appended so far. Not
/// `Clone` (invariant 1).
#[derive(Default)]
pub struct Appender<H>(H);

impl<H> Deref for Appender<H> {
    type Target = H;

    fn deref(&self) -> &H {
        &self.0
    }
}

impl<T> Appender<Log<T>> {
    /// Appends `value`, returning its index.
    pub fn push(&mut self, value: T) -> usize {
        self.0.len = self.0.log.push(value) + 1;
        self.0.len - 1
    }
}

impl Appender<Chains> {
    /// Files `value` under `key`, growing the keys to reach it. The
    /// values filed under one key must ascend.
    pub fn insert(&mut self, key: usize, value: u32) {
        self.0 .0.insert(key, PropId(value));
    }
}

/// The storage one [`Writer`] appends to and every [`PropStore`] of its
/// lineage reads.
struct Shelf {
    props: AppendLog<Proposition>,
    /// Every id whose belief interval was closed, in the order closed.
    closed: AppendLog<PropId>,
    by_source: Index,
    by_label: Index,
    by_dest: Index,
    /// The interned names, by symbol.
    names: AppendLog<Name>,
    ids: SymbolMap,
    /// The highest mark a [`PropStore`] other than the writer's own
    /// ever read below, component by component: what no rollback may
    /// cut below (invariant 3).
    reach: Reach,
}

/// A [`Mark`] raised component by component (see [`Shelf::reach`]).
#[derive(Default)]
struct Reach {
    len: AtomicUsize,
    closed: AtomicUsize,
    symbols: AtomicUsize,
    tick: AtomicI64,
}

impl Reach {
    /// Raises the reach to cover `mark`. A handle cloned from a covered
    /// one finds it covered already and writes nothing.
    fn cover(&self, mark: &Mark) {
        let raise = |reach: &AtomicUsize, at: usize| {
            if reach.load(Ordering::Relaxed) < at {
                reach.fetch_max(at, Ordering::Relaxed);
            }
        };
        raise(&self.len, mark.len);
        raise(&self.closed, mark.closed);
        raise(&self.symbols, mark.symbols);
        if self.tick.load(Ordering::Relaxed) < mark.tick {
            self.tick.fetch_max(mark.tick, Ordering::Relaxed);
        }
    }

    /// True if no handle ever read above `mark`.
    fn within(&self, mark: &Mark) -> bool {
        self.len.load(Ordering::Relaxed) <= mark.len
            && self.closed.load(Ordering::Relaxed) <= mark.closed
            && self.symbols.load(Ordering::Relaxed) <= mark.symbols
            && self.tick.load(Ordering::Relaxed) <= mark.tick
    }
}

/// The proposition store: every proposition ever told, its three
/// access paths, the interned names and the belief clock, read below
/// one [`Mark`]. The live [`crate::Kb`]'s store moves its mark with
/// every write; a [`crate::KbVersion`]'s is the mark it was captured at.
/// `Clone` bumps one `Arc` and records the mark as one no rollback may
/// cut below. The raw read surface here is the one retrieval interface,
/// and [`PropStore::snapshot_at`] the one way to read it by belief time.
pub struct PropStore {
    shelf: Arc<Shelf>,
    mark: Mark,
}

impl Clone for PropStore {
    fn clone(&self) -> Self {
        self.shelf.reach.cover(&self.mark);
        PropStore {
            shelf: Arc::clone(&self.shelf),
            mark: self.mark,
        }
    }
}

impl fmt::Debug for PropStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PropStore")
            .field("mark", &self.mark)
            .finish()
    }
}

impl PropStore {
    /// The current belief tick — for a [`crate::KbVersion`], the tick it
    /// was captured at: all belief ticks ≤ this are fully answerable.
    pub fn now(&self) -> i64 {
        self.mark.tick
    }

    /// Total number of propositions ever told.
    pub fn len(&self) -> usize {
        self.mark.len
    }

    /// True if the store holds no propositions.
    pub fn is_empty(&self) -> bool {
        self.mark.len == 0
    }

    /// This store's position in its lineage (see
    /// [`PropStore::delta_since`]).
    pub fn mark(&self) -> Mark {
        self.mark
    }

    /// The proposition with the given id, if in bounds.
    #[inline]
    pub fn prop(&self, id: PropId) -> Option<&Proposition> {
        (id.idx() < self.mark.len).then(|| self.shelf.props.get(id.idx()))
    }

    /// Every proposition, in id order.
    pub(crate) fn props(&self) -> impl Iterator<Item = &Proposition> {
        self.shelf.props.slices(self.mark.len).flatten()
    }

    /// The closed log from position `from` on: the ids whose belief
    /// intervals were closed, in the order closed.
    pub(crate) fn closed_from(&self, from: usize) -> impl Iterator<Item = PropId> + '_ {
        (from..self.mark.closed).map(|i| *self.shelf.closed.get(i))
    }

    /// The interned name of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not interned in this store.
    fn name(&self, sym: Symbol) -> &Name {
        let i = sym.0 as usize;
        assert!(i < self.mark.symbols, "symbol {i} not interned here");
        self.shelf.names.get(i)
    }

    /// Resolves a symbol to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not interned in this store — that is a logic
    /// error, not a recoverable condition.
    pub fn resolve_sym(&self, sym: Symbol) -> &str {
        &self.name(sym).text
    }

    /// `sym`'s id in a second string pool, remembered with the name:
    /// `pool` runs only if no reader of the name has asked before (or
    /// races one that is asking). Pass the same pool every time.
    ///
    /// # Panics
    /// Panics if `sym` was not interned in this store, like
    /// [`PropStore::resolve_sym`].
    pub fn pooled(&self, sym: Symbol, pool: impl FnOnce(&str) -> u32) -> u32 {
        self.name(sym).pooled(pool)
    }

    /// Looks up an existing symbol without interning.
    pub fn lookup_sym(&self, s: &str) -> Option<Symbol> {
        let sym = self.shelf.ids.get(s)?;
        ((sym.0 as usize) < self.mark.symbols).then_some(sym)
    }

    /// Number of interned symbols: exactly the `Symbol`s below it
    /// resolve.
    pub fn symbol_count(&self) -> usize {
        self.mark.symbols
    }

    /// Ids of propositions with source `x`.
    pub fn postings_from(&self, x: PropId) -> Postings<'_> {
        self.shelf.by_source.postings(x.idx(), self.mark.len)
    }

    /// Ids of propositions carrying `label`.
    pub fn postings_label(&self, label: Symbol) -> Postings<'_> {
        self.shelf
            .by_label
            .postings(label.0 as usize, self.mark.len)
    }

    /// Ids of propositions with destination `y`.
    pub fn postings_to(&self, y: PropId) -> Postings<'_> {
        self.shelf.by_dest.postings(y.idx(), self.mark.len)
    }

    /// The interned `instanceof` symbol.
    pub fn instanceof_sym(&self) -> Symbol {
        Writer::INSTANCEOF
    }

    /// The interned `isa` symbol.
    pub fn isa_sym(&self) -> Symbol {
        Writer::ISA
    }
}

/// The one writer of a shelf: the live store, which moves its mark as
/// it appends. Not `Clone`: a shelf is made with its writer
/// (invariant 1).
pub(crate) struct Writer {
    live: PropStore,
}

impl Deref for Writer {
    type Target = PropStore;

    fn deref(&self) -> &PropStore {
        &self.live
    }
}

impl Writer {
    const INSTANCEOF: Symbol = Symbol(0);
    const ISA: Symbol = Symbol(1);

    /// An empty store at tick 0 with the reserved link labels interned.
    pub(crate) fn new() -> Self {
        let shelf = Shelf {
            props: AppendLog::new(),
            closed: AppendLog::new(),
            by_source: Index::default(),
            by_label: Index::default(),
            by_dest: Index::default(),
            names: AppendLog::new(),
            ids: SymbolMap::default(),
            reach: Reach::default(),
        };
        let mark = Mark {
            len: 0,
            closed: 0,
            symbols: 0,
            tick: 0,
        };
        let mut writer = Writer {
            live: PropStore {
                shelf: Arc::new(shelf),
                mark,
            },
        };
        assert_eq!(writer.intern(L_INSTANCEOF), Writer::INSTANCEOF);
        assert_eq!(writer.intern(L_ISA), Writer::ISA);
        writer
    }

    /// Advances the belief clock and returns the new tick.
    pub(crate) fn tick(&mut self) -> i64 {
        self.live.mark.tick += 1;
        self.live.mark.tick
    }

    /// Interns `s`, returning its symbol (existing or fresh).
    pub(crate) fn intern(&mut self, s: &str) -> Symbol {
        let shelf = &self.live.shelf;
        if let Some(sym) = shelf.ids.get(s) {
            return sym;
        }
        let text: Arc<str> = Arc::from(s);
        let sym = Symbol(shelf.names.push(Name::new(Arc::clone(&text))) as u32);
        shelf.ids.insert(text, sym);
        self.live.mark.symbols += 1;
        sym
    }

    /// Appends `<source, label, dest, history>`, believed from now on,
    /// and files it under its three keys.
    pub(crate) fn append(
        &mut self,
        source: PropId,
        label: Symbol,
        dest: PropId,
        history: Interval,
    ) -> PropId {
        let shelf = &self.live.shelf;
        let id = PropId(self.live.mark.len as u32);
        let tick = self.live.mark.tick;
        shelf
            .props
            .push(Proposition::told(id, source, label, dest, history, tick));
        shelf.by_source.insert(source.idx(), id);
        shelf.by_label.insert(label.0 as usize, id);
        shelf.by_dest.insert(dest.idx(), id);
        self.live.mark.len += 1;
        id
    }

    /// Closes `id`'s belief interval at tick `at` and logs it.
    pub(crate) fn close(&mut self, id: PropId, at: i64) -> TelosResult<&Proposition> {
        let p = (self.live.prop(id)).ok_or(TelosError::UnknownProposition(id))?;
        p.close(at)?;
        self.live.shelf.closed.push(id);
        self.live.mark.closed += 1;
        Ok(self.live.shelf.props.get(id.idx()))
    }

    /// Cuts the store back to `mark`, a position earlier in its lineage
    /// at or above every handle ever cloned from it: the propositions
    /// appended since go with their postings and names, the intervals
    /// closed since are reopened, and the clock is set back.
    ///
    /// # Panics
    /// Panics if a handle — a captured version — was cloned above
    /// `mark`: its reader may be reading what the cut would drop.
    pub(crate) fn rollback(&mut self, mark: Mark) {
        let shelf = &self.live.shelf;
        assert!(
            shelf.reach.within(&mark),
            "rollback below a captured version"
        );
        for p in (mark.len..self.live.mark.len)
            .rev()
            .map(|i| shelf.props.get(i))
        {
            shelf.by_source.unfile(p.source.idx(), p.id);
            shelf.by_label.unfile(p.label.0 as usize, p.id);
            shelf.by_dest.unfile(p.dest.idx(), p.id);
        }
        shelf.props.truncate(mark.len);
        // Only an open interval is ever closed, so each is reopened; one
        // appended since went with the cut above.
        for id in self.live.closed_from(mark.closed) {
            if id.idx() < mark.len {
                shelf.props.get(id.idx()).reopen();
            }
        }
        shelf.closed.truncate(mark.closed);
        for sym in mark.symbols..self.live.mark.symbols {
            shelf.ids.remove(&shelf.names.get(sym).text);
        }
        shelf.names.truncate(mark.symbols);
        self.live.mark = mark;
    }
}

#[cfg(test)]
impl Postings<'_> {
    /// The address of each id the list yields, for tests that prove a
    /// version reads the very words the live store holds.
    pub(crate) fn cells(self) -> Vec<*const AtomicU32> {
        let Some(index) = self.index else {
            return Vec::new();
        };
        (0..self.end)
            .map(|pos| {
                let (b, offset) = block_of(pos);
                &index.block(index.nth(self.head, b), b).0[offset] as *const AtomicU32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(95), (1, 63));
        assert_eq!(locate(96), (2, 0));
        let last = u32::MAX as usize;
        let (chunk, offset) = locate(last);
        assert!(chunk < SPINE && offset < capacity(chunk));
        for pos in [0, 3, 4, 11, 12, 27, 28] {
            let (b, offset) = block_of(pos);
            assert!(offset < FIRST << b, "{pos}");
        }
        assert_eq!(
            [block_of(3), block_of(4), block_of(12)],
            [(0, 3), (1, 0), (2, 0)]
        );
    }

    /// Elements keep their address across later pushes and chunk
    /// allocations; a truncation drops exactly the elements cut, and
    /// the log drops the rest with itself.
    #[test]
    fn a_log_appends_in_place_and_drops_what_it_cuts() {
        let token = Arc::new(());
        let log = AppendLog::new();
        for i in 0..100 {
            assert_eq!(log.push((i, Arc::clone(&token))), i);
        }
        let first: *const (usize, Arc<()>) = log.get(0);
        let slices: Vec<usize> = log.slices(100).map(<[_]>::len).collect();
        assert_eq!(slices, [32, 64, 4]);
        for i in 100..300 {
            log.push((i, Arc::clone(&token)));
        }
        assert!(ptr::eq(first, log.get(0)), "an element moved");
        assert!((0..300).all(|i| log.get(i).0 == i));
        log.truncate(90);
        assert_eq!((log.len(), Arc::strong_count(&token)), (90, 91));
        log.push((90, Arc::clone(&token)));
        assert_eq!(log.get(90).0, 90);
        drop(log);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    fn ids(list: Postings<'_>) -> Vec<u32> {
        list.map(|id| id.0).collect()
    }

    /// A list read below a bound is the prefix of ids under it, from
    /// either end, across block boundaries; an unfiled id is gone and
    /// its position refilled.
    #[test]
    fn an_index_reads_below_a_bound_and_unfiles_from_the_end() {
        let index = Index::default();
        assert_eq!(ids(index.postings(3, 100)), [] as [u32; 0]);
        for id in (0..60).step_by(2) {
            index.insert(3, PropId(id));
        }
        index.insert(1, PropId(7));
        let all: Vec<u32> = (0..60).step_by(2).collect();
        assert_eq!(ids(index.postings(3, 100)), all);
        assert_eq!(ids(index.postings(0, 100)), [] as [u32; 0], "an empty slot");
        assert_eq!(
            ids(index.postings(9, 100)),
            [] as [u32; 0],
            "past the slots"
        );
        for bound in [0, 1, 5, 8, 9, 24, 25, 57, 58, 59, 61] {
            let want: Vec<u32> = all.iter().copied().filter(|&id| id < bound).collect();
            let list = index.postings(3, bound as usize);
            assert_eq!(list.len(), want.len());
            assert_eq!(ids(list.clone()), want, "below {bound}");
            let back: Vec<u32> = list.rev().map(|id| id.0).collect();
            assert!(back.iter().rev().eq(&want), "reversed below {bound}");
        }
        let mut both = index.postings(3, 100);
        assert_eq!(
            (both.next(), both.next_back()),
            (Some(PropId(0)), Some(PropId(58)))
        );
        assert_eq!(both.len(), 28);
        // Unfiling only ever takes the last id, down across blocks.
        index.unfile(3, PropId(4));
        assert_eq!(index.postings(3, 100).len(), 30, "not the last id");
        for id in (24..60).step_by(2).rev() {
            index.unfile(3, PropId(id));
        }
        assert_eq!(
            ids(index.postings(3, 100)),
            (0..24).step_by(2).collect::<Vec<_>>()
        );
        index.insert(3, PropId(25));
        assert_eq!(ids(index.postings(3, 26)).last(), Some(&25));
        assert_eq!(
            index.postings(3, 25).len(),
            12,
            "the refilled id is above the bound"
        );
    }

    /// A log handle reads the elements below the length it was handed
    /// out at, at the addresses the writer's own handle reads them.
    #[test]
    fn an_exported_log_hands_out_handles_bounded_by_their_length() {
        let mut log = Appender::<Log<_>>::default();
        assert!(log.is_empty() && log.get(0).is_none());
        for i in 0..40 {
            assert_eq!(log.push(i.to_string()), i);
        }
        let held = Log::clone(&log);
        for i in 40..200 {
            log.push(i.to_string());
        }
        assert_eq!((held.len(), log.len()), (40, 200));
        assert_eq!(held.get(40), None, "an append after the handle");
        for i in 0..40 {
            assert!(ptr::eq(held.get(i).unwrap(), log.get(i).unwrap()));
        }
        let read: Vec<usize> = log.iter().map(|s| s.parse().unwrap()).collect();
        assert_eq!(read, (0..200).collect::<Vec<_>>());
        assert_eq!(held.iter().count(), 40);
    }

    /// A chain handle reads, per key, the ascending values below the
    /// bound it is given, however many were filed since.
    #[test]
    fn exported_chains_read_below_a_bound() {
        let mut chains = Appender::<Chains>::default();
        for v in 0..50 {
            chains.insert((v % 3) as usize, v);
        }
        let held = Chains::clone(&chains);
        chains.insert(7, 50);
        chains.insert(0, 51);
        let get = |c: &Chains, key, bound| c.get(key, bound).collect::<Vec<_>>();
        assert_eq!(get(&held, 0, 10), [0, 3, 6, 9]);
        assert_eq!(get(&held, 0, 50).len(), 17);
        assert_eq!(get(&chains, 0, 52).last(), Some(&51));
        assert_eq!(get(&held, 7, 50), [] as [u32; 0], "filed above the bound");
        assert_eq!(get(&held, 9, 100), [] as [u32; 0], "past the keys");
        assert_eq!(held.get(1, 50).next_back(), Some(49));
        assert!(held.ptr_eq(&chains));
    }

    /// A reader thread reads log and chain handles while the writer
    /// appends to both: it reads the same answers throughout.
    #[test]
    fn a_reader_thread_reads_exported_handles_while_the_writer_appends() {
        let (n, rounds) = if cfg!(miri) { (40, 20) } else { (500, 400) };
        let mut log = Appender::<Log<_>>::default();
        let mut chains = Appender::<Chains>::default();
        for v in 0..n {
            log.push(v as u64);
            chains.insert(v % 5, v as u32);
        }
        let (held, held_chains) = (Log::clone(&log), Chains::clone(&chains));
        let observe = move || {
            let sum: u64 = held.iter().sum();
            let lists: Vec<Vec<u32>> = (0..6).map(|k| held_chains.get(k, n).collect()).collect();
            (sum, lists)
        };
        let want = observe();
        std::thread::scope(|s| {
            let reader = s.spawn(|| (0..rounds).all(|_| observe() == want));
            for v in n..n + rounds * 4 {
                log.push(v as u64);
                chains.insert(v % 6, v as u32);
            }
            assert!(reader.join().unwrap(), "a handle read a later append");
        });
    }

    /// Interning is idempotent and numbers names in order; a capture
    /// answers lookups only for the names interned before it, and a
    /// rollback forgets the names interned since its mark.
    #[test]
    fn names_are_interned_once_and_read_below_a_count() {
        let mut w = Writer::new();
        let a = w.intern("alpha");
        assert_eq!((w.intern("alpha"), w.symbol_count()), (a, 3));
        assert_eq!(w.lookup_sym("beta"), None, "a lookup does not intern");
        let v = PropStore::clone(&w);
        let mark = w.mark();
        let b = w.intern("beta");
        assert_ne!(a, b);
        assert_eq!((w.resolve_sym(a), w.resolve_sym(b)), ("alpha", "beta"));
        assert_eq!(
            (v.lookup_sym("alpha"), v.lookup_sym("beta")),
            (Some(a), None)
        );
        assert_eq!(v.symbol_count() + 1, w.symbol_count());
        w.rollback(mark);
        assert_eq!(w.lookup_sym("beta"), None);
        assert_eq!(w.intern("gamma"), b, "numbered anew");
    }
}
