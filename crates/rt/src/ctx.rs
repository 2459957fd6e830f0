//! The API a thread body programs against.
//!
//! Operations that can block — stream reads and writes, the record lock
//! and procedure calls, whose bodies may block — are `async`. A blocked
//! operation registers what it waits for and returns `Pending` once,
//! which hands control back to the executor in
//! [`StartedSim::step`](crate::StartedSim::step). When a wake requeues
//! the thread and the scheduler picks it, the next poll resumes the
//! operation, which checks its stream again. Everything else is
//! synchronous.
//!
//! Compute charged here (by [`Ctx::compute`] and per stream byte) is
//! recorded in the trace at once but reaches the CPU as one burst at
//! the next `save`, `restore`, outbound clock read or end of poll —
//! the same bursts a trace replays, so no cycle moves.

use crate::error::RtError;
use crate::sim::{SimState, Wait};
use crate::stream::{RemoteEnd, StreamId};
use crate::trace::TraceEvent;
use regwin_machine::ThreadId;
use regwin_obs::Metric;
use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::Poll;

/// Cycles charged to the simulated CPU per stream byte transferred.
const STREAM_BYTE_CYCLES: u64 = 4;

/// Handle through which a simulated thread computes, calls procedures and
/// performs stream I/O. Every operation is accounted on the simulated CPU;
/// blocking operations suspend the thread and hand control to the
/// scheduler, exactly as the paper's non-preemptive runtime does.
pub struct Ctx {
    state: Rc<RefCell<SimState>>,
    tid: ThreadId,
}

impl Ctx {
    pub(crate) fn new(state: Rc<RefCell<SimState>>, tid: ThreadId) -> Self {
        Ctx { state, tid }
    }

    /// This thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }

    /// Charges `cycles` of application compute to the simulated CPU.
    pub fn compute(&mut self, cycles: u64) {
        self.state.borrow_mut().charge_app(cycles);
    }

    /// Performs a procedure call: executes `save`, runs `f`, then
    /// executes `restore` — the fundamental operation whose cost the
    /// register windows exist to minimise. If the simulation is dropped
    /// while `f` is blocked, the thread never resumes, so the `restore`
    /// never runs.
    ///
    /// # Errors
    ///
    /// Propagates errors from `f` and from the window machinery.
    pub async fn call<R>(
        &mut self,
        f: impl AsyncFnOnce(&mut Ctx) -> Result<R, RtError>,
    ) -> Result<R, RtError> {
        {
            let mut st = self.state.borrow_mut();
            st.flush_app();
            st.record(TraceEvent::Save);
            st.cpu.save()?;
        }
        let result = f(self).await;
        // The restore must happen even if the body failed, to keep the
        // simulated stack balanced for diagnostics; the body error wins.
        let restored = {
            let mut st = self.state.borrow_mut();
            st.flush_app();
            st.record(TraceEvent::Restore);
            st.cpu.restore()
        };
        let value = result?;
        restored?;
        Ok(value)
    }

    /// Runs `attempt` on the state until it is `Ready`. An attempt that
    /// cannot complete parks the thread and returns `Pending`; the
    /// thread then suspends and tries again after a wake. The borrow of
    /// the state ends before the suspension, so no other thread ever
    /// finds it taken.
    async fn block_on<R>(
        &mut self,
        mut attempt: impl FnMut(&mut SimState, ThreadId) -> Poll<R>,
    ) -> R {
        loop {
            let polled = attempt(&mut self.state.borrow_mut(), self.tid);
            if let Poll::Ready(r) = polled {
                return r;
            }
            suspend().await;
        }
    }

    /// Reads one byte from `stream`, blocking (and context-switching)
    /// while it is empty. Returns `None` at end-of-stream.
    ///
    /// # Errors
    ///
    /// Fails on an unknown stream or an injected stream-read fault.
    pub async fn read_byte(&mut self, stream: StreamId) -> Result<Option<u8>, RtError> {
        self.block_on(|st, tid| {
            let Some(s) = st.streams.get(stream.0) else {
                return Poll::Ready(Err(RtError::UnknownStream(stream.0)));
            };
            if !s.is_empty() {
                // Consult the fault plan before touching the stream, so
                // a failed read leaves the byte in place — mirroring the
                // machine's failed-spill-leaves-state-untouched ordering.
                if let Some(index) = st.stream_read_fails.count_transfer() {
                    return Poll::Ready(Err(RtError::FaultInjected { site: "stream-read", index }));
                }
                let b = st.streams[stream.0].pop().expect("checked non-empty");
                st.charge_app(STREAM_BYTE_CYCLES);
                st.bump(Metric::StreamBytesRead, 1);
                st.wake_one_writer(stream);
                return Poll::Ready(Ok(Some(b)));
            }
            if s.is_closed() {
                return Poll::Ready(Ok(None));
            }
            st.park(tid, Wait::ReadEmpty(stream));
            Poll::Pending
        })
        .await
    }

    /// Writes one byte to `stream`, blocking (and context-switching)
    /// while it is full.
    ///
    /// # Errors
    ///
    /// Fails if the stream is unknown or fully closed, or on an injected
    /// stream-write fault.
    pub async fn write_byte(&mut self, stream: StreamId, byte: u8) -> Result<(), RtError> {
        self.block_on(|st, tid| {
            let Some(s) = st.streams.get(stream.0) else {
                return Poll::Ready(Err(RtError::UnknownStream(stream.0)));
            };
            if s.is_closed() {
                return Poll::Ready(Err(RtError::WriteAfterClose(stream.0)));
            }
            if s.is_full() {
                st.park(tid, Wait::WriteFull(stream));
                return Poll::Pending;
            }
            // Fault check before the push: a failed write must not have
            // buffered the byte (see the read-side comment).
            if let Some(index) = st.stream_write_fails.count_transfer() {
                return Poll::Ready(Err(RtError::FaultInjected { site: "stream-write", index }));
            }
            let pushed = st.streams[stream.0].push(byte);
            debug_assert!(pushed, "checked non-full");
            st.charge_app(STREAM_BYTE_CYCLES);
            st.bump(Metric::StreamBytesWritten, 1);
            if st.streams[stream.0].remote() == Some(RemoteEnd::Outbound) {
                // Timestamp the byte's completion for the cluster bus:
                // it becomes the request's arrival tick.
                st.flush_app();
                let tick = st.cpu.total_cycles();
                st.streams[stream.0].note_send_tick(tick);
            }
            st.wake_one_reader(stream);
            Poll::Ready(Ok(()))
        })
        .await
    }

    /// Writes a whole byte slice, blocking as needed.
    ///
    /// Bytes from concurrent writers of the same stream may interleave
    /// if this thread blocks mid-slice on a full buffer; use
    /// [`Ctx::write_record`] when the slice must stay contiguous.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctx::write_byte`].
    pub async fn write_all(&mut self, stream: StreamId, bytes: &[u8]) -> Result<(), RtError> {
        for &b in bytes {
            self.write_byte(stream, b).await?;
        }
        Ok(())
    }

    /// Writes `bytes` as one atomic record with respect to the stream's
    /// other writers: a per-stream record lock is held across the whole
    /// write, so even when this thread blocks mid-record on a full
    /// buffer no other writer can interleave bytes into it — the rt
    /// analogue of POSIX `PIPE_BUF` atomicity. Records may be larger
    /// than the stream capacity; the lock simply stays held across the
    /// resulting blocking writes. Not reentrant: a thread must not call
    /// this while already holding the same stream's record lock.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctx::write_byte`].
    pub async fn write_record(&mut self, stream: StreamId, bytes: &[u8]) -> Result<(), RtError> {
        self.lock_record(stream).await?;
        let result = self.write_all(stream, bytes).await;
        // Release even when the write failed, so other writers are not
        // wedged behind a dead record.
        self.unlock_record(stream);
        result
    }

    /// Acquires the record lock on `stream`, blocking (and
    /// context-switching) while another writer holds it.
    async fn lock_record(&mut self, stream: StreamId) -> Result<(), RtError> {
        self.block_on(|st, tid| {
            let Some(s) = st.streams.get_mut(stream.0) else {
                return Poll::Ready(Err(RtError::UnknownStream(stream.0)));
            };
            match s.lock_holder {
                None => {
                    s.lock_holder = Some(tid);
                    Poll::Ready(Ok(()))
                }
                Some(owner) => {
                    debug_assert_ne!(owner, tid, "record lock is not reentrant");
                    st.park(tid, Wait::WriteLocked(stream));
                    Poll::Pending
                }
            }
        })
        .await
    }

    /// Releases the record lock on `stream` and wakes one waiting writer.
    fn unlock_record(&mut self, stream: StreamId) {
        let mut st = self.state.borrow_mut();
        if st.streams[stream.0].lock_holder.take().is_some() {
            st.wake_one_lock_waiter(stream);
        }
    }

    /// Closes this thread's writer end of `stream`, waking blocked
    /// readers so they can observe end-of-stream.
    ///
    /// # Errors
    ///
    /// Fails on an unknown stream id.
    pub fn close_writer(&mut self, stream: StreamId) -> Result<(), RtError> {
        let mut st = self.state.borrow_mut();
        if st.streams.get(stream.0).is_none() {
            return Err(RtError::UnknownStream(stream.0));
        }
        if st.streams[stream.0].close_writer() == 0 {
            if st.streams[stream.0].remote() == Some(RemoteEnd::Outbound) {
                st.flush_app();
                let tick = st.cpu.total_cycles();
                st.streams[stream.0].note_close_tick(tick);
            }
            st.wake_all_readers(stream);
        }
        Ok(())
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("tid", &self.tid).finish()
    }
}

/// Suspends the running thread: returns `Pending` once, handing control
/// back to the executor, and `Ready` when the thread is polled again
/// after a wake. The caller must have registered its wait already.
async fn suspend() {
    let mut suspended = false;
    poll_fn(|_| {
        if suspended {
            Poll::Ready(())
        } else {
            suspended = true;
            Poll::Pending
        }
    })
    .await;
}
