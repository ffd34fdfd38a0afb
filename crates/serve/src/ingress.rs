//! The ingress layer: bounded request queues with an explicit admission
//! policy, fed by in-process [`ChannelClient`]s and by the socket
//! listeners ([`crate::socket`]), drained by the serving loop.
//!
//! Every request is attributed to a registered *source* (one per channel
//! client or socket connection), and the queue keeps per-source
//! accounting for the whole admission funnel: submitted → queued →
//! admitted, with every loss bucketed (`shed`, `rejected_capacity`,
//! `rejected_invalid`, `rejected_closed`) and boundary clamps counted
//! (`clamped`) — the live counterpart of the batch simulator's
//! released-vs-censored split (PR 2 boundary semantics): a request the
//! session cannot legally time-stamp is *accounted*, never silently bent.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use dream_models::{NodeId, PipelineId};
use dream_sim::SimTime;

/// What to do with a new request when the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Apply backpressure: the submitter blocks until space frees up.
    Block,
    /// Evict the oldest queued request (counted as `shed` against the
    /// evicted request's source) and accept the new one.
    #[default]
    ShedOldest,
    /// Refuse the new request with [`SubmitError::Full`].
    Reject,
}

/// Identifies a registered ingress source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceId(pub usize);

/// Per-source admission-funnel counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Display label ("channel:bench", "tcp:127.0.0.1:51234", …).
    pub label: String,
    /// Requests handed to [`ChannelClient::submit`] (or read off the
    /// source's socket).
    pub submitted: u64,
    /// Requests the engine admitted into the session.
    pub admitted: u64,
    /// Admitted requests whose stamp was clamped (to the open window,
    /// the phase boundary, or per-key time order).
    pub clamped: u64,
    /// Requests evicted from the queue by [`AdmissionPolicy::ShedOldest`].
    pub shed: u64,
    /// Requests refused at submission by [`AdmissionPolicy::Reject`].
    pub rejected_capacity: u64,
    /// Requests the session refused (unknown model, non-root target, or a
    /// stamp at/after the horizon — censored by construction).
    pub rejected_invalid: u64,
    /// Requests that arrived after the session began draining or closed.
    pub rejected_closed: u64,
    /// Connection terminations attributed to this source — EOF, read
    /// errors, write failures. Exactly one per connection lifetime; *not*
    /// part of the per-request funnel identity (it counts connections,
    /// not requests).
    pub disconnects: u64,
}

impl SourceStats {
    /// Per-request losses + successes: every submitted request lands in
    /// exactly one of these buckets (or is still queued). The funnel
    /// identity checked by the chaos tests is
    /// `submitted == funnel_total() + backlog` summed across sources.
    pub fn funnel_total(&self) -> u64 {
        self.admitted
            + self.shed
            + self.rejected_capacity
            + self.rejected_invalid
            + self.rejected_closed
    }
}

/// One inference request traveling through the ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Target pipeline of the current scenario.
    pub pipeline: PipelineId,
    /// Target root node within the pipeline.
    pub node: NodeId,
    /// Explicit virtual arrival instant; `None` = "now" (the frontier of
    /// the tick that drains it).
    pub at: Option<SimTime>,
    /// The source that submitted it.
    pub source: SourceId,
}

/// Why a submission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full ([`AdmissionPolicy::Reject`] only).
    Full,
    /// The serving loop is gone (session drained or engine dropped).
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "ingress queue full"),
            SubmitError::Closed => write!(f, "serving session closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Inner {
    queue: VecDeque<Request>,
    capacity: usize,
    policy: AdmissionPolicy,
    closed: bool,
    sources: Vec<SourceStats>,
}

/// The shared bounded ingress queue (one per [`ServeEngine`]).
///
/// [`ServeEngine`]: crate::ServeEngine
pub(crate) struct Ingress {
    inner: Mutex<Inner>,
    space: Condvar,
}

impl Ingress {
    pub(crate) fn new(capacity: usize, policy: AdmissionPolicy) -> Arc<Self> {
        assert!(capacity > 0, "ingress capacity must be positive");
        Arc::new(Ingress {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity.min(65_536)),
                capacity,
                policy,
                closed: false,
                sources: Vec::new(),
            }),
            space: Condvar::new(),
        })
    }

    pub(crate) fn register(self: &Arc<Self>, label: impl Into<String>) -> SourceId {
        let mut inner = self.lock();
        let id = SourceId(inner.sources.len());
        inner.sources.push(SourceStats {
            label: label.into(),
            ..SourceStats::default()
        });
        id
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("ingress poisoned")
    }

    pub(crate) fn submit(&self, request: Request) -> Result<(), SubmitError> {
        let mut inner = self.lock();
        inner.sources[request.source.0].submitted += 1;
        loop {
            if inner.closed {
                inner.sources[request.source.0].rejected_closed += 1;
                return Err(SubmitError::Closed);
            }
            if inner.queue.len() < inner.capacity {
                inner.queue.push_back(request);
                return Ok(());
            }
            match inner.policy {
                AdmissionPolicy::Block => {
                    inner = self.space.wait(inner).expect("ingress poisoned");
                }
                AdmissionPolicy::ShedOldest => {
                    let evicted = inner.queue.pop_front().expect("full queue is non-empty");
                    inner.sources[evicted.source.0].shed += 1;
                    inner.queue.push_back(request);
                    return Ok(());
                }
                AdmissionPolicy::Reject => {
                    inner.sources[request.source.0].rejected_capacity += 1;
                    return Err(SubmitError::Full);
                }
            }
        }
    }

    /// Moves up to `max` queued requests out (serving-loop side), waking
    /// blocked submitters.
    pub(crate) fn drain(&self, max: usize, out: &mut Vec<Request>) {
        let mut inner = self.lock();
        let n = inner.queue.len().min(max);
        out.extend(inner.queue.drain(..n));
        if n > 0 {
            drop(inner);
            self.space.notify_all();
        }
    }

    #[cfg(test)]
    pub(crate) fn backlog(&self) -> usize {
        self.lock().queue.len()
    }

    pub(crate) fn record_admitted(&self, source: SourceId, clamped: bool) {
        let mut inner = self.lock();
        inner.sources[source.0].admitted += 1;
        if clamped {
            inner.sources[source.0].clamped += 1;
        }
    }

    pub(crate) fn record_invalid(&self, source: SourceId) {
        self.lock().sources[source.0].rejected_invalid += 1;
    }

    /// Accounts a wire-level rejection: the frame never became a
    /// [`Request`], so it enters the funnel here — `submitted` and
    /// `rejected_invalid` move together under one lock, keeping the
    /// funnel identity intact at every snapshot.
    pub(crate) fn record_wire_invalid(&self, source: SourceId) {
        let mut inner = self.lock();
        inner.sources[source.0].submitted += 1;
        inner.sources[source.0].rejected_invalid += 1;
    }

    /// Accounts a connection termination (exactly once per connection).
    pub(crate) fn record_disconnect(&self, source: SourceId) {
        self.lock().sources[source.0].disconnects += 1;
    }

    pub(crate) fn record_closed_rejection(&self, source: SourceId) {
        self.lock().sources[source.0].rejected_closed += 1;
    }

    /// Closes the queue: pending requests are rejected-as-closed and
    /// future submissions fail fast.
    pub(crate) fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        while let Some(req) = inner.queue.pop_front() {
            inner.sources[req.source.0].rejected_closed += 1;
        }
        drop(inner);
        self.space.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }

    pub(crate) fn stats(&self) -> Vec<SourceStats> {
        self.lock().sources.clone()
    }

    /// Stats and backlog read under one lock acquisition, so the funnel
    /// identity (`sum(submitted) == sum(funnel_total()) + backlog`) holds
    /// in the returned pair even while submitters race the snapshot.
    pub(crate) fn funnel_snapshot(&self) -> (Vec<SourceStats>, usize) {
        let inner = self.lock();
        (inner.sources.clone(), inner.queue.len())
    }
}

/// An in-process client handle: the MPSC face of the ingress. Cloning
/// shares the source identity; register separate clients for separate
/// accounting.
#[derive(Clone)]
pub struct ChannelClient {
    pub(crate) ingress: Arc<Ingress>,
    pub(crate) source: SourceId,
}

impl ChannelClient {
    /// Submits a request arriving "now" (at the frontier of the tick that
    /// picks it up).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] under the reject policy,
    /// [`SubmitError::Closed`] once the session drains.
    pub fn submit(&self, pipeline: PipelineId, node: NodeId) -> Result<(), SubmitError> {
        self.ingress.submit(Request {
            pipeline,
            node,
            at: None,
            source: self.source,
        })
    }

    /// Submits a request with an explicit virtual arrival instant (e.g.
    /// accelerated trace feeding). The session clamps it into the legal
    /// window; the clamp is visible in [`SourceStats::clamped`].
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_at(
        &self,
        pipeline: PipelineId,
        node: NodeId,
        at: SimTime,
    ) -> Result<(), SubmitError> {
        self.ingress.submit(Request {
            pipeline,
            node,
            at: Some(at),
            source: self.source,
        })
    }

    /// This client's source id (to find its row in
    /// [`SourceStats`] listings).
    pub fn source(&self) -> SourceId {
        self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(source: SourceId) -> Request {
        Request {
            pipeline: PipelineId(0),
            node: NodeId(0),
            at: None,
            source,
        }
    }

    #[test]
    fn shed_oldest_evicts_head_and_counts() {
        let ingress = Ingress::new(2, AdmissionPolicy::ShedOldest);
        let a = ingress.register("a");
        let b = ingress.register("b");
        ingress.submit(req(a)).unwrap();
        ingress.submit(req(a)).unwrap();
        ingress.submit(req(b)).unwrap(); // evicts the first `a`
        let mut out = Vec::new();
        ingress.drain(usize::MAX, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].source, a);
        assert_eq!(out[1].source, b);
        let stats = ingress.stats();
        assert_eq!(stats[a.0].shed, 1);
        assert_eq!(stats[a.0].submitted, 2);
        assert_eq!(stats[b.0].submitted, 1);
    }

    #[test]
    fn reject_policy_fails_fast_when_full() {
        let ingress = Ingress::new(1, AdmissionPolicy::Reject);
        let s = ingress.register("s");
        ingress.submit(req(s)).unwrap();
        assert_eq!(ingress.submit(req(s)), Err(SubmitError::Full));
        assert_eq!(ingress.stats()[s.0].rejected_capacity, 1);
        assert_eq!(ingress.backlog(), 1);
    }

    #[test]
    fn block_policy_waits_for_drain() {
        let ingress = Ingress::new(1, AdmissionPolicy::Block);
        let s = ingress.register("s");
        ingress.submit(req(s)).unwrap();
        let bg = {
            let ingress = Arc::clone(&ingress);
            std::thread::spawn(move || ingress.submit(req(s)))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!bg.is_finished(), "second submit must block while full");
        let mut out = Vec::new();
        ingress.drain(1, &mut out);
        assert_eq!(bg.join().unwrap(), Ok(()));
        assert_eq!(ingress.backlog(), 1);
    }

    #[test]
    fn close_rejects_pending_and_future() {
        let ingress = Ingress::new(4, AdmissionPolicy::ShedOldest);
        let s = ingress.register("s");
        ingress.submit(req(s)).unwrap();
        ingress.close();
        assert_eq!(ingress.submit(req(s)), Err(SubmitError::Closed));
        let stats = ingress.stats();
        assert_eq!(stats[s.0].rejected_closed, 2, "pending + post-close");
        assert_eq!(ingress.backlog(), 0);
    }

    #[test]
    fn wire_invalid_and_disconnects_keep_the_funnel_identity() {
        let ingress = Ingress::new(4, AdmissionPolicy::Reject);
        let s = ingress.register("s");
        ingress.submit(req(s)).unwrap();
        ingress.record_wire_invalid(s);
        ingress.record_wire_invalid(s);
        ingress.record_disconnect(s);
        let (stats, backlog) = ingress.funnel_snapshot();
        let row = &stats[s.0];
        assert_eq!(row.submitted, 3);
        assert_eq!(row.rejected_invalid, 2);
        assert_eq!(row.disconnects, 1);
        assert_eq!(row.submitted, row.funnel_total() + backlog as u64);
    }

    #[test]
    fn drain_respects_budget() {
        let ingress = Ingress::new(8, AdmissionPolicy::ShedOldest);
        let s = ingress.register("s");
        for _ in 0..5 {
            ingress.submit(req(s)).unwrap();
        }
        let mut out = Vec::new();
        ingress.drain(3, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(ingress.backlog(), 2);
    }
}
