//! `dream-coordinator` — multi-node experiment fabric and metrics
//! plane over the framed wire protocol.
//!
//! A [`Coordinator`] fans an [`ExperimentGrid`] out across N worker
//! nodes (each a `dream-serve` engine started with a
//! [`GridCellRunner`]) and merges the seed-keyed outcomes back into one
//! auditable result:
//!
//! * **Sharding** is round-robin by global cell index (`index %
//!   n_workers`), so the assignment is a pure function of the grid and
//!   the worker count.
//! * **Merging** reassembles outcomes by global index and mixes their
//!   `Metrics` fingerprints in grid order — structurally identical to
//!   [`GridResults::fingerprint`](dream_bench::GridResults::fingerprint),
//!   so a distributed run is *bit-identical* to the single-process run
//!   of the same grid, whatever the worker count or completion order.
//!   That identity is the distribution-safety witness this workspace's
//!   determinism stack (merge-order-invariant aggregation, replayable
//!   sessions) was built to provide, and `tests/cluster_equivalence.rs`
//!   asserts it end-to-end.
//! * **Live ingress** can be fanned out too ([`LiveFanout`]):
//!   submissions round-robin across workers while control commands
//!   (swap/fault/drain) broadcast to all of them.
//! * **Fleet metrics** ([`LiveFanout::fleet_view`]) fold per-worker
//!   snapshots into one [`FleetView`]: counters summed (saturating),
//!   sojourn histograms merged bucket-wise — fleet-wide quantiles are
//!   those of the pooled samples (merging histograms, never averaging
//!   per-worker percentiles), and the fold is commutative/associative so
//!   worker order is irrelevant.
//!
//! Workers are plain `dream-serve` nodes; [`spawn_local_worker`] starts
//! one in-process (tests, soaks), `src/bin/dream_worker.rs` starts one
//! as a process (`scripts/check_cluster.sh` drives four of them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use dream_bench::{ExperimentGrid, GridCellRunner};
use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::{
    listen_tcp_with_runner, CellOutcome, ClientError, ManualClock, ServeConfig, ServeEngine,
    ServeHandle, SessionReport, SocketServer, WireClient, WireSnapshot,
};
use dream_sim::{Fnv64, Histogram, LiveError};

/// Why a coordinator operation failed.
#[derive(Debug)]
pub enum CoordError {
    /// The coordinator was given no worker addresses.
    NoWorkers,
    /// A grid cell is not wire-shippable (recorded traces, custom cost
    /// backends) or otherwise invalid.
    Spec(String),
    /// A worker connection or call failed.
    Worker {
        /// The worker's address.
        addr: String,
        /// What went wrong.
        error: ClientError,
    },
    /// The merged outcomes are missing a cell (a worker returned fewer
    /// outcomes than it was shipped).
    MissingCell {
        /// The absent global index.
        index: u64,
    },
    /// Two outcomes claimed the same global index.
    DuplicateCell {
        /// The colliding global index.
        index: u64,
    },
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::NoWorkers => write!(f, "no worker addresses"),
            CoordError::Spec(reason) => write!(f, "cell not shippable: {reason}"),
            CoordError::Worker { addr, error } => write!(f, "worker {addr}: {error}"),
            CoordError::MissingCell { index } => write!(f, "merged outcomes miss cell {index}"),
            CoordError::DuplicateCell { index } => {
                write!(f, "duplicate outcome for cell {index}")
            }
        }
    }
}

impl std::error::Error for CoordError {}

/// A set of worker addresses the coordinator fans work out to.
#[derive(Debug, Clone)]
pub struct Coordinator {
    addrs: Vec<String>,
}

impl Coordinator {
    /// Connects to every worker (a handshake + ping each) and returns
    /// the coordinator on success.
    ///
    /// # Errors
    ///
    /// [`CoordError::NoWorkers`] for an empty list; the first failing
    /// worker otherwise.
    pub fn connect(addrs: Vec<String>) -> Result<Self, CoordError> {
        if addrs.is_empty() {
            return Err(CoordError::NoWorkers);
        }
        for addr in &addrs {
            let mut client = WireClient::connect_tcp(addr).map_err(|error| CoordError::Worker {
                addr: addr.clone(),
                error,
            })?;
            client.ping().map_err(|error| CoordError::Worker {
                addr: addr.clone(),
                error,
            })?;
        }
        Ok(Self { addrs })
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.addrs.len()
    }

    /// The worker addresses, in shard order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Runs every cell of `grid` across the workers and merges the
    /// outcomes in grid order.
    ///
    /// Cell `i` runs on worker `i % n_workers`; each worker executes
    /// its shard through the same `run_spec` path as a local grid, so
    /// the merged [`DistributedResults::fingerprint`] is bit-identical
    /// to `grid.run().fingerprint()` regardless of worker count.
    ///
    /// # Errors
    ///
    /// Unshippable specs, worker failures, and merge-integrity
    /// violations (missing/duplicate cells).
    pub fn run_grid(
        &self,
        grid: &ExperimentGrid,
        record_traces: bool,
    ) -> Result<DistributedResults, CoordError> {
        let n = self.addrs.len();
        let mut shards: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); n];
        for (i, spec) in grid.specs().iter().enumerate() {
            shards[i % n].push((i as u64, spec.encode().map_err(CoordError::Spec)?));
        }
        let mut results: Vec<Option<Result<Vec<CellOutcome>, CoordError>>> =
            std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|scope| {
            for ((addr, shard), slot) in self.addrs.iter().zip(shards).zip(&mut results) {
                scope.spawn(move || {
                    *slot = Some(run_shard(addr, shard, record_traces));
                });
            }
        });
        let mut outcomes = Vec::with_capacity(grid.len());
        for slot in results {
            outcomes.extend(slot.expect("every shard thread writes its slot")?);
        }
        outcomes.sort_unstable_by_key(|o| o.index);
        for (i, outcome) in outcomes.iter().enumerate() {
            let index = i as u64;
            if outcome.index > index {
                return Err(CoordError::MissingCell { index });
            }
            if outcome.index < index {
                return Err(CoordError::DuplicateCell {
                    index: outcome.index,
                });
            }
        }
        if outcomes.len() != grid.len() {
            return Err(CoordError::MissingCell {
                index: outcomes.len() as u64,
            });
        }
        Ok(DistributedResults { outcomes })
    }

    /// Opens a live-ingress fan-out over the workers.
    ///
    /// # Errors
    ///
    /// The first failing worker connection.
    pub fn live(&self) -> Result<LiveFanout, CoordError> {
        let mut clients = Vec::with_capacity(self.addrs.len());
        for addr in &self.addrs {
            clients.push((
                addr.clone(),
                WireClient::connect_tcp(addr).map_err(|error| CoordError::Worker {
                    addr: addr.clone(),
                    error,
                })?,
            ));
        }
        Ok(LiveFanout { clients, next: 0 })
    }
}

fn run_shard(
    addr: &str,
    shard: Vec<(u64, Vec<u8>)>,
    record_traces: bool,
) -> Result<Vec<CellOutcome>, CoordError> {
    if shard.is_empty() {
        return Ok(Vec::new());
    }
    let wrap = |error: ClientError| CoordError::Worker {
        addr: addr.to_string(),
        error,
    };
    let mut client = WireClient::connect_tcp(addr).map_err(wrap)?;
    client.run_cells(shard, record_traces).map_err(wrap)
}

/// The merged outcomes of a distributed grid run, in grid order.
#[derive(Debug, Clone)]
pub struct DistributedResults {
    outcomes: Vec<CellOutcome>,
}

impl DistributedResults {
    /// Per-cell outcomes, sorted by global grid index.
    pub fn outcomes(&self) -> &[CellOutcome] {
        &self.outcomes
    }

    /// The merged determinism witness: per-cell `Metrics` fingerprints
    /// mixed in grid order — the same construction as
    /// [`GridResults::fingerprint`](dream_bench::GridResults::fingerprint),
    /// so equality against the single-process value is bit-exact, not
    /// approximate.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for outcome in &self.outcomes {
            h.mix(outcome.fingerprint);
        }
        h.finish()
    }

    /// Concatenates the per-cell recorded arrival traces (present when
    /// the run asked for traces) into one auditable CSV document, cells
    /// in grid order with `# === cell N` separators.
    pub fn merged_trace_csv(&self) -> String {
        let mut out = String::new();
        for outcome in &self.outcomes {
            if outcome.trace_csv.is_empty() {
                continue;
            }
            out.push_str(&format!("# === cell {}\n", outcome.index));
            out.push_str(&outcome.trace_csv);
        }
        out
    }
}

/// Live ingress fanned out across the workers: submissions round-robin,
/// control commands broadcast.
pub struct LiveFanout {
    clients: Vec<(String, WireClient)>,
    next: usize,
}

impl LiveFanout {
    /// Submits one request to the next worker (round-robin).
    ///
    /// # Errors
    ///
    /// The worker's refusal or transport failure.
    pub fn submit(&mut self, pipeline: PipelineId, node: NodeId) -> Result<(), CoordError> {
        let slot = self.next;
        self.next = (self.next + 1) % self.clients.len();
        let (addr, client) = &mut self.clients[slot];
        client
            .submit(pipeline, node)
            .map_err(|error| CoordError::Worker {
                addr: addr.clone(),
                error,
            })
    }

    /// Broadcasts a graceful drain to every worker.
    ///
    /// # Errors
    ///
    /// The first failing worker.
    pub fn drain_all(&mut self) -> Result<(), CoordError> {
        for (addr, client) in &mut self.clients {
            client.drain().map_err(|error| CoordError::Worker {
                addr: addr.clone(),
                error,
            })?;
        }
        Ok(())
    }

    /// Collects the latest snapshot from every worker (in worker
    /// order); workers that have not published yet are skipped.
    ///
    /// # Errors
    ///
    /// Transport failures (an [`dream_serve::ErrorCode::Unavailable`]
    /// reply is not an error here).
    pub fn snapshots(&mut self) -> Result<Vec<WireSnapshot>, CoordError> {
        let mut out = Vec::with_capacity(self.clients.len());
        for (addr, client) in &mut self.clients {
            match client.snapshot() {
                Ok(snapshot) => out.push(snapshot),
                Err(ClientError::Server { .. }) => {}
                Err(error) => {
                    return Err(CoordError::Worker {
                        addr: addr.clone(),
                        error,
                    })
                }
            }
        }
        Ok(out)
    }

    /// Collects one snapshot per worker and folds them into a single
    /// [`FleetView`] — the cluster-wide metrics plane.
    ///
    /// # Errors
    ///
    /// As [`snapshots`](Self::snapshots).
    pub fn fleet_view(&mut self) -> Result<FleetView, CoordError> {
        Ok(FleetView::aggregate(&self.snapshots()?))
    }
}

/// A cluster-wide roll-up of per-worker [`WireSnapshot`]s: additive
/// counters summed, per-worker sojourn histograms merged into one
/// mergeable fleet histogram (sub-buckets add bucket-wise, so the
/// merge is exact, order-invariant, and loses nothing a percentile
/// needs — unlike averaging per-worker percentiles, which is wrong).
///
/// Counters are worker-supplied, so every sum saturates at `u64::MAX`
/// instead of overflowing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetView {
    /// Snapshots folded into this view.
    pub workers: usize,
    /// Workers currently draining.
    pub draining: usize,
    /// Summed ingress backlogs.
    pub ingress_backlog: u64,
    /// Summed engine event backlogs.
    pub event_backlog: u64,
    /// Total arrivals admitted across the fleet.
    pub admitted: u64,
    /// Total requests shed across the fleet.
    pub shed: u64,
    /// Total requests rejected across the fleet.
    pub rejected: u64,
    /// Total faults injected across the fleet.
    pub faults_injected: u64,
    /// Total fault-driven requeues across the fleet.
    pub fault_requeues: u64,
    /// Total deadline misses under active fault windows.
    pub deadline_miss_under_faults: u64,
    /// The merged fleet sojourn histogram.
    pub sojourn_hist: Histogram,
}

impl FleetView {
    /// Folds per-worker snapshots into one fleet view. Aggregation is
    /// commutative and associative, so worker order cannot change the
    /// result.
    pub fn aggregate(snapshots: &[WireSnapshot]) -> Self {
        let mut view = FleetView::default();
        for snap in snapshots {
            view.workers += 1;
            view.draining += usize::from(snap.draining);
            view.ingress_backlog = view.ingress_backlog.saturating_add(snap.ingress_backlog);
            view.event_backlog = view.event_backlog.saturating_add(snap.event_backlog);
            view.admitted = view.admitted.saturating_add(snap.admitted);
            view.shed = view.shed.saturating_add(snap.shed);
            view.rejected = view.rejected.saturating_add(snap.rejected);
            view.faults_injected = view.faults_injected.saturating_add(snap.faults_injected);
            view.fault_requeues = view.fault_requeues.saturating_add(snap.fault_requeues);
            view.deadline_miss_under_faults = view
                .deadline_miss_under_faults
                .saturating_add(snap.deadline_miss_under_faults);
            view.sojourn_hist
                .merge(&Histogram::from_sparse(&snap.sojourn_hist));
        }
        view
    }

    /// Fleet-wide sojourn quantile in milliseconds (`None` until any
    /// worker has completed a task).
    pub fn sojourn_quantile_ms(&self, q: f64) -> Option<f64> {
        self.sojourn_hist.quantile_ms(q)
    }
}

/// An in-process worker node (tests and soaks): a `dream-serve` engine
/// on a virtual clock with a TCP listener and a [`GridCellRunner`].
pub struct LocalWorker {
    addr: SocketAddr,
    handle: ServeHandle,
    socket: Option<SocketServer>,
    engine: Option<std::thread::JoinHandle<Result<SessionReport, LiveError>>>,
}

impl LocalWorker {
    /// The worker's listen address (loopback, ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine handle (snapshots, drain, in-process clients).
    pub fn handle(&self) -> &ServeHandle {
        &self.handle
    }

    /// Drains the engine, joins it, and stops the listener.
    ///
    /// # Panics
    ///
    /// Panics if the engine thread itself panicked.
    pub fn shutdown(mut self) -> Result<SessionReport, LiveError> {
        self.handle.drain();
        let report = self
            .engine
            .take()
            .expect("engine joined once")
            .join()
            .expect("worker engine thread must not panic");
        if let Some(socket) = self.socket.take() {
            socket.shutdown();
        }
        report
    }
}

impl Drop for LocalWorker {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

/// Starts a [`LocalWorker`]: a serve engine on a [`ManualClock`] (the
/// live session idles at virtual time zero until drained) listening on
/// an ephemeral loopback port with a [`GridCellRunner`] attached.
///
/// # Errors
///
/// Engine construction and bind failures.
pub fn spawn_local_worker(seed: u64) -> std::io::Result<LocalWorker> {
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Homo4kWs2),
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
    );
    config.seed = seed;
    config.clock = Arc::new(ManualClock::new());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    let (engine, handle) =
        ServeEngine::new(config, Box::new(DreamScheduler::new(DreamConfig::full())))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
    let engine = std::thread::spawn(move || engine.run());
    let (addr, socket) =
        listen_tcp_with_runner(&handle, "127.0.0.1:0", Some(Arc::new(GridCellRunner)))?;
    Ok(LocalWorker {
        addr,
        handle,
        socket: Some(socket),
        engine: Some(engine),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(admitted: u64, faults: u64, hist: Vec<(u32, u64)>) -> WireSnapshot {
        WireSnapshot {
            tick: 1,
            now_ns: 0,
            frontier_ns: 0,
            phase: 0,
            draining: false,
            ingress_backlog: 2,
            event_backlog: 3,
            admitted,
            shed: 1,
            rejected: 0,
            fingerprint: 0,
            faults_injected: faults,
            fault_requeues: faults / 2,
            deadline_miss_under_faults: 0,
            sojourn_hist: hist,
        }
    }

    #[test]
    fn fleet_view_sums_counters_and_merges_histograms() {
        // Two workers with overlapping buckets, one that has completed
        // nothing yet.
        let snapshots = [
            snap(10, 4, vec![(1, 2), (100, 6)]),
            snap(5, 2, vec![(1, 1), (130, 1)]),
            snap(7, 0, Vec::new()),
        ];
        let view = FleetView::aggregate(&snapshots);
        assert_eq!(view.workers, 3);
        assert_eq!(view.admitted, 22);
        assert_eq!(view.shed, 3);
        assert_eq!(view.ingress_backlog, 6);
        assert_eq!(view.faults_injected, 6);
        assert_eq!(view.fault_requeues, 3);
        assert_eq!(view.sojourn_hist.total(), 10);
        // Bucket-wise merge: bucket 1 holds 3 samples, so the median
        // lands in bucket 100. That is octave e = (100 >> 3) + 2 = 14,
        // sub-bucket 100 & 7 = 4: values [12 << 11, 13 << 11), upper
        // bound 26623 ns.
        let expected = ((13u64 << 11) - 1) as f64 / 1.0e6;
        assert_eq!(view.sojourn_quantile_ms(0.5), Some(expected));
        // Aggregation is order-invariant.
        let mut reversed = snapshots.to_vec();
        reversed.reverse();
        assert_eq!(FleetView::aggregate(&reversed), view);
        // The empty fleet is the identity.
        assert_eq!(FleetView::aggregate(&[]).workers, 0);
        assert_eq!(FleetView::aggregate(&[]).sojourn_quantile_ms(0.5), None);
    }

    #[test]
    fn fleet_view_saturates_hostile_counters() {
        let mut hostile = snap(u64::MAX, u64::MAX, vec![(0, u64::MAX), (1, 1)]);
        hostile.ingress_backlog = u64::MAX;
        hostile.event_backlog = u64::MAX;
        hostile.shed = u64::MAX;
        hostile.rejected = u64::MAX;
        hostile.fault_requeues = u64::MAX;
        hostile.deadline_miss_under_faults = u64::MAX;
        let view = FleetView::aggregate(&[hostile.clone(), hostile]);
        assert_eq!(view.workers, 2);
        for total in [
            view.ingress_backlog,
            view.event_backlog,
            view.admitted,
            view.shed,
            view.rejected,
            view.faults_injected,
            view.fault_requeues,
            view.deadline_miss_under_faults,
            view.sojourn_hist.total(),
        ] {
            assert_eq!(total, u64::MAX);
        }
        // The saturated histogram still answers every quantile.
        assert_eq!(view.sojourn_quantile_ms(0.5), Some(0.0));
        assert_eq!(view.sojourn_quantile_ms(1.0), Some(0.0));
    }
}
