//! Bounded cyclic FIFO byte streams — the paper's inter-thread channels.
//!
//! "Each stream is FIFO, and is organized as a cyclic buffer" (§5.1). The
//! buffer capacity is the evaluation's central knob: the absolute sizes
//! of the M and N buffers set the granularity, their ratio sets the
//! concurrency.

use regwin_machine::ThreadId;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a stream within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub(crate) usize);

impl StreamId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Which cross-PE end a remote stream is, if any. A stream marked
/// remote carries bytes across the cluster bus instead of between two
/// local threads; the model follows the wait-free (1,N) mailbox motif —
/// flow control lives entirely at the sending end (capacity counts
/// bytes still in flight on the bus), while the receiving end accepts
/// deliveries unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemoteEnd {
    /// Local threads write; the bus drains (send side on PE *i*).
    Outbound,
    /// The bus delivers; local threads read (receive side on PE *j*).
    Inbound,
}

/// A set of threads blocked on one stream, as a bitmap over
/// [`ThreadId`] indices: inserting and removing a thread are one word
/// operation each, and [`WaiterSet::pop_first`] takes the lowest set
/// bit, so "lowest id first" holds by construction. The bitmap grows
/// to the highest id ever inserted and never shrinks, so a steady-state
/// park and wake allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct WaiterSet {
    words: Vec<u64>,
}

impl WaiterSet {
    /// Adds `t` to the set.
    pub(crate) fn insert(&mut self, t: ThreadId) {
        let (word, bit) = (t.index() / 64, t.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << bit;
    }

    /// Removes `t` from the set (a no-op if it is absent).
    pub(crate) fn remove(&mut self, t: ThreadId) {
        if let Some(word) = self.words.get_mut(t.index() / 64) {
            *word &= !(1 << (t.index() % 64));
        }
    }

    /// Removes and returns the lowest thread id in the set. Visits one
    /// word per 64 threads, so one word for up to 64 threads.
    pub(crate) fn pop_first(&mut self) -> Option<ThreadId> {
        let (i, word) = self.words.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(ThreadId::new(i * 64 + bit))
    }
}

/// A bounded cyclic FIFO byte buffer with writer-counted close semantics
/// (several threads may feed one stream, as T2 and T3 both feed the
/// output stream in the spell checker). It also holds what the
/// scheduler needs to know about the stream's blocked threads: one
/// [`WaiterSet`] per wait kind and the record-lock holder.
#[derive(Debug, Clone)]
pub(crate) struct Stream {
    name: String,
    buf: VecDeque<u8>,
    capacity: usize,
    writers: usize,
    /// Threads blocked reading the empty stream.
    pub(crate) read_waiters: WaiterSet,
    /// Threads blocked writing the full stream.
    pub(crate) write_waiters: WaiterSet,
    /// Writers blocked on another writer's record lock.
    pub(crate) lock_waiters: WaiterSet,
    /// The writer holding the record lock, if any: while one holds it,
    /// other writers block instead of interleaving bytes into its record
    /// (the rt analogue of POSIX `PIPE_BUF` atomicity).
    pub(crate) lock_holder: Option<ThreadId>,
    /// Cross-PE marking; `None` for ordinary intra-machine streams.
    remote: Option<RemoteEnd>,
    /// Outbound only: bytes handed to the bus but not yet granted —
    /// they still occupy sender-side capacity, so a writer blocks until
    /// the bus actually moves them.
    in_flight: usize,
    /// Outbound only: local completion tick of each buffered byte, in
    /// lockstep with `buf` (only the bus pops an outbound stream).
    send_ticks: VecDeque<u64>,
    /// Outbound only: local tick at which the last writer closed.
    close_tick: Option<u64>,
    /// Outbound only: whether the close was already forwarded to the
    /// bus (it is sent exactly once, after the buffered bytes).
    close_forwarded: bool,
}

impl Stream {
    /// Creates a stream with the given capacity and number of writers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-byte cyclic buffer cannot
    /// transfer data under non-preemptive scheduling).
    pub(crate) fn new(name: impl Into<String>, capacity: usize, writers: usize) -> Self {
        assert!(capacity > 0, "stream capacity must be positive");
        Stream {
            name: name.into(),
            buf: VecDeque::with_capacity(capacity),
            capacity,
            writers,
            read_waiters: WaiterSet::default(),
            write_waiters: WaiterSet::default(),
            lock_waiters: WaiterSet::default(),
            lock_holder: None,
            remote: None,
            in_flight: 0,
            send_ticks: VecDeque::new(),
            close_tick: None,
            close_forwarded: false,
        }
    }

    /// The stream's diagnostic name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Whether the buffer is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the buffer is full. For an outbound cross-PE stream,
    /// bytes in flight on the bus still count against the capacity —
    /// that is where the sender's flow control lives.
    pub(crate) fn is_full(&self) -> bool {
        self.buf.len() + self.in_flight >= self.capacity
    }

    /// Whether every writer has closed its end.
    pub(crate) fn is_closed(&self) -> bool {
        self.writers == 0
    }

    /// Pushes one byte. Returns `false` (and buffers nothing) if full.
    pub(crate) fn push(&mut self, byte: u8) -> bool {
        if self.is_full() {
            return false;
        }
        self.buf.push_back(byte);
        true
    }

    /// Pops one byte, or `None` if the buffer is empty.
    pub(crate) fn pop(&mut self) -> Option<u8> {
        self.buf.pop_front()
    }

    /// Closes one writer's end. Returns the number of writers remaining.
    pub(crate) fn close_writer(&mut self) -> usize {
        self.writers = self.writers.saturating_sub(1);
        self.writers
    }

    // ------------------------------------------------------------------
    // Cross-PE (cluster bus) support
    // ------------------------------------------------------------------

    /// The stream's cross-PE marking, if any.
    pub(crate) fn remote(&self) -> Option<RemoteEnd> {
        self.remote
    }

    /// Marks the stream as one end of a cross-PE link.
    pub(crate) fn set_remote(&mut self, end: RemoteEnd) {
        self.remote = Some(end);
    }

    /// Outbound only: records the local completion tick of the byte
    /// just pushed (kept in lockstep with the buffer).
    pub(crate) fn note_send_tick(&mut self, tick: u64) {
        self.send_ticks.push_back(tick);
    }

    /// Outbound only: records the local tick at which the last writer
    /// closed, so the close can be forwarded over the bus in order.
    pub(crate) fn note_close_tick(&mut self, tick: u64) {
        self.close_tick = Some(tick);
    }

    /// Outbound only: the recorded close tick, if the stream closed.
    pub(crate) fn close_tick(&self) -> Option<u64> {
        self.close_tick
    }

    /// Outbound only: whether the close was already forwarded.
    pub(crate) fn close_forwarded(&self) -> bool {
        self.close_forwarded
    }

    /// Outbound only: marks the close as forwarded (exactly once).
    pub(crate) fn mark_close_forwarded(&mut self) {
        self.close_forwarded = true;
    }

    /// Outbound only: hands the oldest buffered byte (with its send
    /// tick) to the bus. The byte leaves the buffer but keeps occupying
    /// sender capacity until [`Stream::grant_send`].
    pub(crate) fn take_send(&mut self) -> Option<(u8, u64)> {
        let byte = self.pop()?;
        let tick = self.send_ticks.pop_front().expect("send tick in lockstep with buffer");
        self.in_flight += 1;
        Some((byte, tick))
    }

    /// Outbound only: the bus granted one in-flight byte, freeing one
    /// unit of sender-side capacity.
    pub(crate) fn grant_send(&mut self) {
        debug_assert!(self.in_flight > 0, "grant without an in-flight byte");
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Outbound only: bytes drained to the bus but not yet granted plus
    /// bytes still buffered — when nonzero, a blocked writer will be
    /// unblocked by bus progress rather than by a local reader.
    pub(crate) fn pending_send(&self) -> usize {
        self.buf.len() + self.in_flight
    }

    /// Inbound only: accepts a bus delivery regardless of capacity (the
    /// receive side of the (1,N) mailbox is elastic; flow control
    /// already happened at the sender).
    pub(crate) fn push_unbounded(&mut self, byte: u8) {
        self.buf.push_back(byte);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Whether a reader would see end-of-stream (closed and drained).
    fn at_eof(s: &Stream) -> bool {
        s.is_closed() && s.is_empty()
    }

    #[test]
    fn fifo_order() {
        let mut s = Stream::new("s", 4, 1);
        assert!(s.push(1));
        assert!(s.push(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn full_rejects_push() {
        let mut s = Stream::new("s", 2, 1);
        assert!(s.push(1));
        assert!(s.push(2));
        assert!(s.is_full());
        assert!(!s.push(3));
        assert_eq!(s.buf.len(), 2);
    }

    #[test]
    fn close_semantics_with_two_writers() {
        let mut s = Stream::new("s", 4, 2);
        assert!(!s.is_closed());
        assert_eq!(s.close_writer(), 1);
        assert!(!s.is_closed());
        assert_eq!(s.close_writer(), 0);
        assert!(s.is_closed());
        assert!(at_eof(&s));
    }

    #[test]
    fn eof_requires_drain() {
        let mut s = Stream::new("s", 4, 1);
        s.push(9);
        s.close_writer();
        assert!(s.is_closed());
        assert!(!at_eof(&s));
        assert_eq!(s.pop(), Some(9));
        assert!(at_eof(&s));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Stream::new("s", 0, 1);
    }

    #[test]
    fn one_byte_buffer_alternates() {
        // The paper's finest granularity: a 1-byte buffer forces a block
        // on every transfer.
        let mut s = Stream::new("s", 1, 1);
        assert!(s.push(1));
        assert!(!s.push(2));
        assert_eq!(s.pop(), Some(1));
        assert!(s.push(2));
    }

    /// The bitmap pops ids in ascending order across word boundaries,
    /// whatever the insertion order, and `remove` drops exactly one id.
    #[test]
    fn waiter_set_pops_lowest_id_first_across_words() {
        let mut set = WaiterSet::default();
        for i in [130, 0, 64, 63, 129, 1, 200] {
            set.insert(ThreadId::new(i));
        }
        set.remove(ThreadId::new(1));
        set.remove(ThreadId::new(1000));
        let popped: Vec<usize> =
            std::iter::from_fn(|| set.pop_first()).map(ThreadId::index).collect();
        assert_eq!(popped, [0, 63, 64, 129, 130, 200]);
        assert_eq!(set.pop_first(), None);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(u8),
        Pop,
        CloseWriter,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![any::<u8>().prop_map(Op::Push), Just(Op::Pop), Just(Op::CloseWriter),]
    }

    proptest! {
        /// Model-based check of the cyclic stream against a plain
        /// `VecDeque` plus a writer count.
        #[test]
        fn stream_behaves_like_a_bounded_deque(
            capacity in 1usize..16,
            writers in 1usize..4,
            ops in prop::collection::vec(op_strategy(), 0..120),
        ) {
            let mut stream = Stream::new("model", capacity, writers);
            let mut model: VecDeque<u8> = VecDeque::new();
            let mut open_writers = writers;
            for op in ops {
                match op {
                    Op::Push(b) => {
                        let accepted = stream.push(b);
                        prop_assert_eq!(accepted, model.len() < capacity);
                        if accepted {
                            model.push_back(b);
                        }
                    }
                    Op::Pop => prop_assert_eq!(stream.pop(), model.pop_front()),
                    Op::CloseWriter => {
                        open_writers = open_writers.saturating_sub(1);
                        prop_assert_eq!(stream.close_writer(), open_writers);
                    }
                }
                prop_assert_eq!(&stream.buf, &model);
                prop_assert_eq!(stream.is_full(), model.len() >= capacity);
                prop_assert_eq!(stream.is_closed(), open_writers == 0);
                prop_assert_eq!(at_eof(&stream), open_writers == 0 && model.is_empty());
            }
        }
    }
}
