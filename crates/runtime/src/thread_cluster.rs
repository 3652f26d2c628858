//! The real multi-threaded in-process backend.
//!
//! One OS thread per server, real channels with WAN-shaped (scaled)
//! latencies between them. This backend exists to subject the exact same
//! protocol state machines to genuine concurrency — real interleavings,
//! real races in message arrival — and to validate that the consistency
//! checker still finds nothing.
//!
//! Unlike the original one-shot runner, a [`ThreadCluster`] is a live
//! deployment: servers keep running between operations, so it serves both
//! interactive transactions (via [`Cluster::begin`](crate::Cluster::begin))
//! and closed-loop workloads
//! ([`Cluster::run_workload`](crate::Cluster::run_workload)). Build one
//! with [`crate::Paris::builder`] and
//! [`Backend::Thread`](crate::Backend::Thread).
//!
//! This module supplies only what is threaded about it: the router, the
//! server threads and the chaos thread of a fault plan. Everything above
//! the transport — the interactive sessions and their round trip,
//! `run_workload`, `stabilize` and the snapshot observers — is the live
//! core it shares with the socket backend ([`crate::live`]), reached
//! through [`ThreadNet`].
//!
//! The router's delay wheel drives the simulator's link model
//! ([`paris_net::sim::SimNetwork`]), so the chaos thread only times a
//! plan's events: each link fault goes to
//! [`LinkControl::apply`](paris_net::threaded::LinkControl::apply) and
//! means exactly what it means on the sim backend. A clock-skew step stays
//! here, on the DC's shared skew cells.
//!
//! Each server thread owns its [`Server`]: the cluster keeps no handle on
//! the state machine, only a bounded snapshot-request channel to its loop
//! and the UST the loop publishes (see [`crate::driver`]). `stats()`, the
//! checker's ground truth and `check_convergence()` read the servers'
//! answers, one snapshot per server; `min_ust()` reads the published USTs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_clock::{SkewCell, SteppableClock, SystemClock};
use paris_core::{ClientEvent, ClientSession, Server, ServerOptions, Topology, Violation};
use paris_net::threaded::{NetHandle, Router, ThreadedNetConfig};
use paris_proto::{Envelope, ServerSnapshot};
use paris_types::{ClientId, ClusterConfig, DcId, Error, FaultKind, FaultPlan, Mode, Timestamp};

use crate::driver::{request_snapshots, server_loop, SnapshotReq};
use crate::facade::Sessions;
use crate::live::{Live, LiveNet};
use crate::measure::{ClusterStats, RunReport};
use crate::{BackendConfig, Cluster};

/// The router and the server loops' snapshot channels and USTs.
struct ThreadNet {
    router: Router,
    handle: NetHandle,
    /// One snapshot-request channel per server loop.
    servers: Vec<SyncSender<SnapshotReq>>,
    /// The UST each server loop publishes, in `servers` order.
    usts: Vec<Arc<AtomicU64>>,
    /// The WAN shape, for the round length.
    config: ThreadedNetConfig,
}

impl LiveNet for ThreadNet {
    fn register(&self, client: ClientId) -> Result<Receiver<Envelope>, Error> {
        Ok(self.router.register(client))
    }

    fn send(&self, env: Envelope) -> Result<(), Error> {
        self.handle.send(env);
        Ok(())
    }

    fn lossy_sender(&self) -> impl Fn(Envelope) + Send + 'static {
        let net = self.router.handle();
        move |e| net.send(e)
    }

    fn snapshots(&self, chains: bool) -> Result<Vec<ServerSnapshot>, Error> {
        request_snapshots(&self.servers, chains)
    }

    fn min_ust(&self) -> Result<Timestamp, Error> {
        let min = self.usts.iter().map(|u| u.load(Ordering::Relaxed)).min();
        Ok(Timestamp::from_u64(min.unwrap_or(0)))
    }

    /// The router meters the whole network, client traffic included.
    fn add_wire_totals(&self, stats: &mut ClusterStats) {
        let net = self.router.net_stats();
        stats.net_messages += net.messages;
        stats.net_bytes += net.bytes;
        stats.set_flush_mix(&net.coalescer);
    }

    fn round_micros(&self, cluster: &ClusterConfig) -> u64 {
        crate::gossip_round_micros(
            &cluster.intervals,
            &self.config.matrix,
            cluster.dcs,
            self.config.scale,
            &cluster.batch,
            2_000,
        )
    }
}

/// The threaded cluster backend. See the module docs.
pub struct ThreadCluster {
    live: Live<ThreadNet>,
    stop_servers: Arc<AtomicBool>,
    server_handles: Vec<JoinHandle<()>>,
    /// One shared skew cell per server, grouped by DC, so a scripted
    /// `SkewClock` event can step every HLC clock in that DC at once.
    skew_cells: HashMap<DcId, Vec<SkewCell>>,
    chaos_stop: Arc<AtomicBool>,
    chaos_handles: Vec<JoinHandle<()>>,
}

impl ThreadCluster {
    /// Spawns the server threads and returns the live deployment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] when durability is requested and a
    /// server's data directory cannot be opened or recovered.
    pub(crate) fn start(
        config: BackendConfig,
        net_config: ThreadedNetConfig,
    ) -> Result<Self, Error> {
        let topo = Arc::new(Topology::new(config.cluster.clone()));
        let router = Router::start(net_config.clone());
        let clock = Arc::new(SystemClock::new());
        let stop_servers = Arc::new(AtomicBool::new(false));

        let mut servers = Vec::new();
        let usts: Vec<Arc<AtomicU64>> = topo.all_servers().iter().map(|_| Arc::default()).collect();
        let mut server_handles = Vec::new();
        let mut skew_cells: HashMap<DcId, Vec<SkewCell>> = HashMap::new();
        for (id, ust) in topo.all_servers().into_iter().zip(&usts) {
            // Each server's HLC reads wall time through a steppable shim so
            // a scripted SkewClock fault can shift one DC's clocks at runtime.
            let (server_clock, cell) = SteppableClock::new(Arc::clone(&clock), 0);
            skew_cells.entry(id.dc).or_default().push(cell);
            let server = Server::try_with_tuning(
                ServerOptions {
                    id,
                    topology: Arc::clone(&topo),
                    clock: Box::new(server_clock),
                    mode: config.cluster.mode,
                    record_events: false,
                },
                crate::tuning::server_tuning(config.durability.as_ref(), id),
            )?;
            // One request in flight per loop: every caller awaits its
            // answers before it asks again.
            let (snapshot_tx, snapshots) = sync_channel(1);
            servers.push(snapshot_tx);
            let ust = Arc::clone(ust);
            let inbox = router.register(id);
            let net = router.handle();
            let topo = Arc::clone(&topo);
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop_servers);
            let intervals = config.cluster.intervals;
            server_handles.push(
                std::thread::Builder::new()
                    .name(format!("server-{id}"))
                    .spawn(move || {
                        server_loop(
                            server,
                            inbox,
                            snapshots,
                            ust,
                            move |e| net.send(e),
                            // The router's delay wheel keeps the ceilings.
                            || {},
                            topo,
                            clock,
                            stop,
                            intervals,
                        )
                    })
                    .expect("spawn server thread"),
            );
        }

        let net = ThreadNet {
            handle: router.handle(),
            router,
            servers,
            usts,
            config: net_config,
        };
        Ok(ThreadCluster {
            live: Live::new(net, config, topo, clock),
            stop_servers,
            server_handles,
            skew_cells,
            chaos_stop: Arc::new(AtomicBool::new(false)),
            chaos_handles: Vec::new(),
        })
    }

    /// The topology, for inspecting placement.
    pub fn topology(&self) -> &Topology {
        &self.live.topo
    }
}

impl Sessions for ThreadCluster {
    fn session(&mut self, client: ClientId) -> Result<&mut ClientSession, Error> {
        self.live.session(client)
    }

    fn round_trip(&mut self, client: ClientId, envs: Vec<Envelope>) -> Result<ClientEvent, Error> {
        self.live.round_trip(client, envs)
    }
}

impl Cluster for ThreadCluster {
    fn backend_name(&self) -> &'static str {
        "thread"
    }

    fn mode(&self) -> Mode {
        self.live.config.cluster.mode
    }

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        crate::no_server_processes(
            index,
            self.live.net.servers.len(),
            "kill_server is not available on the thread backend (no server processes); \
             crash a whole DC with a FaultPlan instead",
        )
    }

    fn restart_server(&mut self, index: usize) -> Result<(), Error> {
        crate::no_server_processes(
            index,
            self.live.net.servers.len(),
            "restart_server is not available on the thread backend (no server processes); \
             rejoin a crashed DC with a FaultPlan instead",
        )
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), Error> {
        let dcs = self.live.config.cluster.dcs;
        plan.validate(dcs)?;
        if plan.is_empty() {
            return Ok(());
        }
        let control = self.live.net.router.link_control();
        let cells = self.skew_cells.clone();
        let stop = Arc::clone(&self.chaos_stop);
        let events = plan.sorted_events();
        let started = Instant::now();
        let handle = std::thread::Builder::new()
            .name("chaos-plan".into())
            .spawn(move || {
                for event in events {
                    // Sleep toward the event's wall-clock due time in short
                    // slices so a dropped cluster never blocks on us.
                    let due = started + Duration::from_micros(event.at_micros);
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let left = due.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        std::thread::sleep(left.min(Duration::from_millis(20)));
                    }
                    match event.kind {
                        FaultKind::SkewClock { dc, delta_micros } => {
                            for cell in cells.get(&dc).into_iter().flatten() {
                                cell.step(delta_micros);
                            }
                        }
                        kind => control.apply(kind),
                    }
                }
            })
            .expect("spawn chaos thread");
        self.chaos_handles.push(handle);
        Ok(())
    }

    fn open_client(&mut self, dc: u16) -> Result<ClientId, Error> {
        self.live.open_client(dc, false)
    }

    fn open_client_via_coordinator(&mut self, dc: u16) -> Result<ClientId, Error> {
        self.live.open_client(dc, true)
    }

    fn stabilize(&mut self, rounds: usize) {
        self.live.stabilize(rounds);
    }

    fn min_ust(&self) -> Timestamp {
        self.live.min_ust()
    }

    fn run_workload(&mut self, warmup_micros: u64, window_micros: u64) -> Result<RunReport, Error> {
        self.live.run_workload(warmup_micros, window_micros)
    }

    fn stats(&mut self) -> Result<ClusterStats, Error> {
        self.live.stats()
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        self.live.check_convergence()
    }
}

impl Drop for ThreadCluster {
    fn drop(&mut self) {
        self.chaos_stop.store(true, Ordering::Relaxed);
        for h in self.chaos_handles.drain(..) {
            let _ = h.join();
        }
        self.stop_servers.store(true, Ordering::Relaxed);
        for h in self.server_handles.drain(..) {
            let _ = h.join();
        }
    }
}
