//! The multi-process socket backend.
//!
//! One OS **process** per partition server, real TCP frames between them
//! — the deployment shape the paper actually evaluates (one machine per
//! server), scaled down to loopback. The parent process hosts every
//! client session plus the control plane; each child process hosts one
//! [`Server`] state machine driven by the same loops as the threaded
//! backend ([`crate::driver`]) over a [`SocketNode`] transport.
//!
//! ## Bring-up
//!
//! 1. The parent binds its data-plane node and a control listener, then
//!    spawns one `paris-server` child per server with a [`ChildSpec`]
//!    (configuration + control port) in an environment variable.
//! 2. Each child binds its own data-plane node, dials the control port,
//!    handshakes (magic + protocol version, like every connection) and
//!    sends [`Ctrl::Hello`] with its data port.
//! 3. Once every child has said hello, the parent broadcasts
//!    [`Ctrl::Peers`] — the full address map — and installs its own
//!    routes. Data-plane links open lazily from here on.
//!
//! ## Failure and shutdown
//!
//! The parent polls child liveness during every blocking wait: a child
//! that dies mid-operation surfaces as [`Error::Transport`] within one
//! poll interval — interactive operations and `run_workload` never hang
//! on a killed server. Drop sends [`Ctrl::Stop`] to every child, waits
//! briefly for graceful exits and kills stragglers, so no run leaks
//! processes.
//!
//! Every process stamps time with [`WallClock`] — microseconds since a
//! fixed shared epoch read from the OS real-time clock — so timestamps
//! from different processes are mutually comparable exactly like the
//! NTP-synchronized machines of the paper's testbed. Configured skew
//! injection is not simulated here: the backend's point is *real*
//! process boundaries, and real same-host clocks already carry whatever
//! skew the OS provides.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_clock::WallClock;
use paris_core::checker::HistoryChecker;
use paris_core::{
    ClientEvent, ClientRead, ClientSession, DurableConfig, FsyncPolicy, ReadStep, Server,
    ServerOptions, ServerTuning, Topology, Violation,
};
use paris_net::sim::RegionMatrix;
use paris_net::socket::framing::{
    deadline_in, read_ctrl_deadline, read_preamble, write_ctrl, write_preamble,
};
use paris_net::socket::{NodeIdentity, SocketConfig, SocketHandle, SocketNode};
use paris_proto::{Ctrl, Endpoint, Envelope, ServerSnapshot, SnapshotCounters};
use paris_types::{
    BatchConfig, ClientId, ClusterConfig, DcId, Error, Intervals, Key, Mode, ServerId, Timestamp,
    Value, VersionOrd,
};
use paris_workload::stats::RunStats;
use paris_workload::WorkloadConfig;

use crate::driver::{run_client, server_loop, ClientOutcome};
use crate::measure::{BlockingStats, ClusterStats, RunReport};
use crate::{replica_convergence, Cluster, INTERACTIVE_SEQ_BASE, OP_TIMEOUT};

/// How long the parent waits for every child to say hello.
const HELLO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a child may take to exit after [`Ctrl::Stop`] before it is
/// killed.
const STOP_GRACE: Duration = Duration::from_secs(3);

/// Environment variable carrying the hex-encoded [`ChildSpec`] to a
/// spawned `paris-server` process.
pub const CHILD_SPEC_ENV: &str = "PARIS_CHILD_SPEC";

/// Environment variable overriding where the parent looks for the
/// `paris-server` binary.
pub const SERVER_BIN_ENV: &str = "PARIS_SERVER_BIN";

/// Configuration of a socket deployment (assembled by the builder).
#[derive(Debug, Clone)]
pub(crate) struct SocketClusterConfig {
    pub(crate) cluster: ClusterConfig,
    pub(crate) clients_per_dc: u32,
    pub(crate) workload: WorkloadConfig,
    pub(crate) seed: u64,
    pub(crate) record_history: bool,
    /// Durable-engine deployment: each child gets its own log directory
    /// derived from this (see [`crate::Durability::server_config`]).
    pub(crate) durability: Option<crate::Durability>,
    pub(crate) connect_timeout: Duration,
    pub(crate) read_timeout: Duration,
}

// ---------------------------------------------------------------------
// Child spec: everything a child process needs, hand-serialized into an
// environment variable (hex over a little-endian byte stream — no serde
// in the dependency tree, and the spec is a dozen integers).
// ---------------------------------------------------------------------

/// What a child server process is told at spawn time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildSpec {
    /// Control-plane port on 127.0.0.1 to dial back.
    pub ctrl_port: u16,
    /// Which server this process hosts.
    pub server: ServerId,
    /// The deployment configuration (topology, mode, intervals, batching).
    pub cluster: ClusterConfig,
    /// Storage configuration (durability).
    pub tuning: ServerTuning,
    /// Data-plane connect window (µs).
    pub connect_timeout_micros: u64,
    /// Inbound read timeout (µs).
    pub read_timeout_micros: u64,
}

struct SpecWriter(Vec<u8>);

impl SpecWriter {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
}

struct SpecReader<'a>(&'a [u8]);

impl SpecReader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], Error> {
        if self.0.len() < n {
            return Err(Error::Transport("truncated child spec"));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, Error> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, Error> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
}

impl ChildSpec {
    /// Encodes the spec as lowercase hex for an environment variable.
    pub fn encode(&self) -> String {
        let mut w = SpecWriter(Vec::with_capacity(128));
        w.u16(self.ctrl_port);
        w.u16(self.server.dc.0);
        w.u32(self.server.partition.0);
        let c = &self.cluster;
        w.u16(c.dcs);
        w.u32(c.partitions);
        w.u16(c.replication_factor);
        w.u64(c.keys_per_partition);
        w.u64(c.value_size as u64);
        w.u64(c.intervals.replication_micros);
        w.u64(c.intervals.gst_micros);
        w.u64(c.intervals.ust_micros);
        w.u64(c.intervals.gc_micros);
        w.u8(match c.mode {
            Mode::Paris => 0,
            Mode::Bpr => 1,
        });
        w.u64(c.max_clock_skew_micros);
        w.u64(c.batch.max_batch as u64);
        w.u64(c.batch.quantum_micros);
        w.u64(c.batch.max_flush_micros);
        match &self.tuning.durable {
            None => w.u8(0),
            Some(d) => {
                w.u8(1);
                // The log directory travels as UTF-8; `Durability` dirs
                // come from strings, so lossy conversion is the identity.
                w.bytes(d.dir.to_string_lossy().as_bytes());
                w.u8(match d.fsync {
                    FsyncPolicy::Never => 0,
                    FsyncPolicy::Always => 1,
                });
                w.u64(d.checkpoint_interval_micros);
            }
        }
        w.u64(self.connect_timeout_micros);
        w.u64(self.read_timeout_micros);
        w.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Decodes a spec produced by [`ChildSpec::encode`].
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] for malformed hex or truncated fields,
    /// [`Error::Config`] for a configuration that fails validation or a
    /// server outside its placement.
    pub fn decode(hex: &str) -> Result<ChildSpec, Error> {
        if !hex.len().is_multiple_of(2) {
            return Err(Error::Transport("odd-length child spec"));
        }
        let bytes: Vec<u8> = (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16))
            .collect::<Result<_, _>>()
            .map_err(|_| Error::Transport("non-hex child spec"))?;
        let mut r = SpecReader(&bytes);
        let ctrl_port = r.u16()?;
        let server = ServerId::new(DcId(r.u16()?), paris_types::PartitionId(r.u32()?));
        let cluster = ClusterConfig::builder()
            .dcs(r.u16()?)
            .partitions(r.u32()?)
            .replication_factor(r.u16()?)
            .keys_per_partition(r.u64()?)
            .value_size(r.u64()? as usize)
            .intervals(Intervals {
                replication_micros: r.u64()?,
                gst_micros: r.u64()?,
                ust_micros: r.u64()?,
                gc_micros: r.u64()?,
            })
            .mode(match r.u8()? {
                0 => Mode::Paris,
                1 => Mode::Bpr,
                _ => return Err(Error::Transport("unknown mode in child spec")),
            })
            .max_clock_skew_micros(r.u64()?)
            .batch(BatchConfig::stable_time(
                r.u64()? as usize,
                r.u64()?,
                r.u64()?,
            ))
            .build()?;
        let placed = Topology::new(cluster.clone())
            .all_servers()
            .contains(&server);
        if !placed {
            return Err(paris_types::ConfigError::new(
                "child spec names a server outside the placement",
            )
            .into());
        }
        let durable = match r.u8()? {
            0 => None,
            1 => {
                let dir = String::from_utf8(r.bytes()?)
                    .map_err(|_| Error::Transport("non-UTF-8 durable dir in child spec"))?;
                let fsync = match r.u8()? {
                    0 => FsyncPolicy::Never,
                    1 => FsyncPolicy::Always,
                    _ => return Err(Error::Transport("unknown fsync policy in child spec")),
                };
                Some(
                    DurableConfig::new(dir)
                        .fsync(fsync)
                        .checkpoint_interval_micros(r.u64()?),
                )
            }
            _ => return Err(Error::Transport("unknown durable flag in child spec")),
        };
        Ok(ChildSpec {
            ctrl_port,
            server,
            cluster,
            tuning: ServerTuning { durable },
            connect_timeout_micros: r.u64()?,
            read_timeout_micros: r.u64()?,
        })
    }
}

// ---------------------------------------------------------------------
// Child process entry point
// ---------------------------------------------------------------------

/// Runs a child server process to completion: decode the spec from the
/// environment, bind the data plane, join the deployment over the
/// control plane, serve until [`Ctrl::Stop`] (or the parent disappears).
///
/// This is the whole body of the `paris-server` binary; it is a library
/// function so the binary stays a three-line `main`.
///
/// # Errors
///
/// [`Error::Transport`] when the spec is malformed or the parent cannot
/// be reached — the binary exits non-zero and the parent's hello
/// deadline reports the failed bring-up.
pub fn socket_child_main() -> Result<(), Error> {
    let spec = std::env::var(CHILD_SPEC_ENV)
        .map_err(|_| Error::Transport("PARIS_CHILD_SPEC is not set"))?;
    let spec = ChildSpec::decode(&spec)?;
    run_child(spec)
}

fn run_child(spec: ChildSpec) -> Result<(), Error> {
    let topo = Arc::new(Topology::new(spec.cluster.clone()));
    let id = spec.server;
    let socket_cfg = SocketConfig {
        batch: spec.cluster.batch,
        connect_timeout: Duration::from_micros(spec.connect_timeout_micros),
        read_timeout: Duration::from_micros(spec.read_timeout_micros),
    };
    let mut node = SocketNode::bind(NodeIdentity::Server(id), socket_cfg)?;

    // The server state machine, stamped by the host-wide wall clock so
    // every process in the deployment shares a timebase. With a durable
    // tuning this is also the recovery point: a relaunched child replays
    // its checkpoint + WAL suffix here, *before* it says hello — joining
    // the deployment advertises readiness to serve.
    let server = Arc::new(Mutex::new(Server::try_with_tuning(
        ServerOptions {
            id,
            topology: Arc::clone(&topo),
            clock: Box::new(WallClock::new()),
            mode: spec.cluster.mode,
            record_events: false,
        },
        spec.tuning.clone(),
    )?));

    // Join the deployment: dial the control port, handshake, say hello,
    // learn the peer map.
    let ctrl_addr = SocketAddr::from(([127, 0, 0, 1], spec.ctrl_port));
    let mut ctrl = TcpStream::connect_timeout(&ctrl_addr, Duration::from_secs(5))
        .map_err(|_| Error::Transport("could not dial the control plane"))?;
    // A control frame is two small writes (length, payload): without
    // NODELAY the second waits out the peer's delayed ACK, ~40 ms a frame.
    let _ = ctrl.set_nodelay(true);
    ctrl.set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|_| Error::Transport("could not configure the control socket"))?;
    write_preamble(&mut ctrl)?;
    read_preamble(&mut ctrl, deadline_in(HELLO_TIMEOUT))?;
    write_ctrl(
        &mut ctrl,
        &Ctrl::Hello {
            server: id,
            data_port: node.local_addr().port(),
        },
    )?;
    let peers = read_ctrl_deadline(&mut ctrl, deadline_in(HELLO_TIMEOUT))?;
    let Ctrl::Peers {
        client_port,
        servers,
    } = peers
    else {
        return Err(Error::Transport("expected a peer map from the parent"));
    };
    node.set_routes(
        Some(SocketAddr::from(([127, 0, 0, 1], client_port))),
        servers
            .into_iter()
            .map(|(s, port)| (s, SocketAddr::from(([127, 0, 0, 1], port)))),
    );
    // The server loop drains the node inbox itself: every message, slice
    // reads included, is handled there.
    let inbox = node
        .take_inbox()
        .ok_or(Error::Transport("node inbox already taken"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_server = Arc::clone(&server);
    let loop_send = node.handle();
    let loop_stop = Arc::clone(&stop);
    let intervals = spec.cluster.intervals;
    let server_handle = std::thread::Builder::new()
        .name(format!("server-{id}"))
        .spawn(move || {
            server_loop(
                loop_server,
                inbox,
                move |e| loop_send.send_lossy(e),
                topo,
                WallClock::new(),
                loop_stop,
                intervals,
                id,
            )
        })
        .map_err(|_| Error::Transport("could not spawn server loop"))?;

    // Control loop on the main thread: stats requests and shutdown. A
    // vanished parent (EOF or error) is a shutdown too — children never
    // outlive their parent.
    let counters = node.counters();
    loop {
        match read_ctrl_deadline(&mut ctrl, deadline_in(Duration::from_secs(3600))) {
            Ok(Ctrl::StatsReq) => {
                let snap = {
                    // A poisoned server means a loop thread panicked;
                    // treat it as fatal and let the parent see EOF.
                    let Ok(server) = server.lock() else { break };
                    let stats = server.stats();
                    let mut chains = Vec::new();
                    server.store().for_each_chain(&mut |key, chain| {
                        chains.push((key, chain.iter().map(|v| v.order()).collect()));
                    });
                    ServerSnapshot {
                        server: Some(id),
                        ust: server.ust(),
                        blocked_reads: stats.blocked_reads,
                        blocked_micros_total: stats.blocked_micros_total,
                        blocked_micros_max: stats.blocked_micros_max,
                        net_messages: counters.messages_out.load(Ordering::Relaxed),
                        net_bytes: counters.bytes_out.load(Ordering::Relaxed),
                        counters: SnapshotCounters {
                            msgs_handled: stats.msgs_handled,
                            txs_coordinated: stats.txs_coordinated,
                            slice_reads: stats.slice_reads,
                            keys_read: stats.keys_read,
                            reads_unchanged: stats.reads_unchanged,
                            reads_shipped: stats.reads_shipped,
                            prepares: stats.prepares,
                            applied_local: stats.applied_local,
                            applied_remote: stats.applied_remote,
                            replicate_batches: stats.replicate_batches,
                            heartbeats: stats.heartbeats,
                            coalesced_frames: stats.coalesced_frames,
                            crossing_flushes: counters.crossing_flushes.load(Ordering::Relaxed),
                            size_flushes: counters.size_flushes.load(Ordering::Relaxed),
                            deadline_flushes: counters.deadline_flushes.load(Ordering::Relaxed),
                            gc_removed: stats.gc_removed,
                            orphan_commits: stats.orphan_commits,
                        },
                        chains,
                    }
                };
                if write_ctrl(&mut ctrl, &Ctrl::StatsResp(Box::new(snap))).is_err() {
                    break;
                }
            }
            Ok(Ctrl::Peers {
                client_port,
                servers,
            }) => {
                // A peer process restarted on fresh ports: install the
                // updated map so future dials reach the new addresses
                // (stale links fail on their own and are redialed).
                node.set_routes(
                    Some(SocketAddr::from(([127, 0, 0, 1], client_port))),
                    servers
                        .into_iter()
                        .map(|(s, port)| (s, SocketAddr::from(([127, 0, 0, 1], port)))),
                );
            }
            Ok(Ctrl::Stop) | Err(_) => break,
            // Unexpected frames are ignored: the control protocol may
            // grow and old children should not die on new requests.
            Ok(_) => {}
        }
    }

    stop.store(true, Ordering::Relaxed);
    let _ = server_handle.join();
    node.shutdown();
    Ok(())
}

// ---------------------------------------------------------------------
// Parent: the SocketCluster backend
// ---------------------------------------------------------------------

/// Locates the `paris-server` child binary: the [`SERVER_BIN_ENV`]
/// override, else a sibling of the current executable (walking up past
/// `deps/` and `examples/` so tests and examples find it too).
fn server_binary() -> Result<PathBuf, Error> {
    if let Ok(p) = std::env::var(SERVER_BIN_ENV) {
        return Ok(PathBuf::from(p));
    }
    let name = format!("paris-server{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe()
        .map_err(|_| Error::Transport("could not locate the current executable"))?;
    let mut dir = exe.parent();
    for _ in 0..3 {
        let Some(d) = dir else { break };
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
        dir = d.parent();
    }
    Err(Error::Unsupported(
        "paris-server binary not found next to the current executable; \
         build it with `cargo build -p paris-runtime --bin paris-server` \
         or point PARIS_SERVER_BIN at it",
    ))
}

struct ChildProc {
    id: ServerId,
    proc: Mutex<Child>,
    ctrl: Mutex<TcpStream>,
}

struct InteractiveClient {
    session: ClientSession,
    inbox: Receiver<Envelope>,
}

type ClientRegistry = Arc<Mutex<HashMap<ClientId, Sender<Envelope>>>>;

/// The multi-process socket backend. See the module docs.
pub struct SocketCluster {
    config: SocketClusterConfig,
    topo: Arc<Topology>,
    node: SocketNode,
    handle: SocketHandle,
    clock: Arc<WallClock>,
    children: Vec<ChildProc>,
    registry: ClientRegistry,
    demux_stop: Arc<AtomicBool>,
    demux_handle: Option<JoinHandle<()>>,
    interactive: HashMap<ClientId, InteractiveClient>,
    next_interactive: HashMap<DcId, u32>,
    // Retained for `restart_server`: a relaunched child dials back on the
    // same control port and slots into the updated peer map.
    binary: PathBuf,
    ctrl_listener: TcpListener,
    ctrl_port: u16,
    peer_map: Vec<(ServerId, u16)>,
}

/// The spawn spec for the child hosting `id` — identical for the initial
/// bring-up and for every relaunch, so a restarted server finds its own
/// durable directory again.
fn child_spec(config: &SocketClusterConfig, ctrl_port: u16, id: ServerId) -> ChildSpec {
    ChildSpec {
        ctrl_port,
        server: id,
        cluster: config.cluster.clone(),
        tuning: crate::tuning::server_tuning(config.durability.as_ref(), id),
        connect_timeout_micros: config.connect_timeout.as_micros() as u64,
        read_timeout_micros: config.read_timeout.as_micros() as u64,
    }
}

/// Kills and reaps every child in `children` (bring-up failure path).
fn kill_all(children: &mut Vec<Child>) {
    for child in children.iter_mut() {
        let _ = child.kill();
    }
    for child in children.iter_mut() {
        let _ = child.wait();
    }
    children.clear();
}

impl SocketCluster {
    /// Spawns the child server processes, completes the control-plane
    /// bring-up and returns the live deployment.
    pub(crate) fn start(config: SocketClusterConfig) -> Result<SocketCluster, Error> {
        let binary = server_binary()?;
        let topo = Arc::new(Topology::new(config.cluster.clone()));
        let mut node = SocketNode::bind(
            NodeIdentity::ClientHost,
            SocketConfig {
                batch: config.cluster.batch,
                connect_timeout: config.connect_timeout,
                read_timeout: config.read_timeout,
            },
        )?;
        let ctrl_listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|_| Error::Transport("could not bind the control listener"))?;
        let ctrl_port = ctrl_listener
            .local_addr()
            .map_err(|_| Error::Transport("could not read the control address"))?
            .port();
        ctrl_listener
            .set_nonblocking(true)
            .map_err(|_| Error::Transport("could not configure the control listener"))?;

        // Spawn one child per server.
        let all_servers: Vec<ServerId> = topo.all_servers();
        let mut procs: Vec<Child> = Vec::with_capacity(all_servers.len());
        for &id in &all_servers {
            let spec = child_spec(&config, ctrl_port, id);
            match Command::new(&binary)
                .env(CHILD_SPEC_ENV, spec.encode())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
            {
                Ok(child) => procs.push(child),
                Err(_) => {
                    kill_all(&mut procs);
                    return Err(Error::Transport("could not spawn a server process"));
                }
            }
        }

        // Collect every child's hello within the deadline.
        let deadline = deadline_in(HELLO_TIMEOUT);
        let mut hellos: HashMap<ServerId, (TcpStream, u16)> = HashMap::new();
        while hellos.len() < all_servers.len() {
            if Instant::now() >= deadline {
                kill_all(&mut procs);
                return Err(Error::Transport(
                    "timed out waiting for server processes to join",
                ));
            }
            match ctrl_listener.accept() {
                Ok((mut stream, _)) => {
                    let joined = (|| -> Result<(), Error> {
                        let _ = stream.set_nodelay(true);
                        stream
                            .set_read_timeout(Some(Duration::from_millis(100)))
                            .map_err(|_| Error::Transport("control socket"))?;
                        read_preamble(&mut stream, deadline)?;
                        write_preamble(&mut stream)?;
                        match read_ctrl_deadline(&mut stream, deadline)? {
                            Ctrl::Hello { server, data_port } => {
                                hellos.insert(server, (stream, data_port));
                                Ok(())
                            }
                            _ => Err(Error::Transport("expected a hello")),
                        }
                    })();
                    if joined.is_err() {
                        // A confused dialer (port scanner, stale child):
                        // ignore it, the deadline still guards bring-up.
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }

        // Broadcast the peer map and install the parent's own routes.
        let peer_map: Vec<(ServerId, u16)> = hellos.iter().map(|(&s, &(_, p))| (s, p)).collect();
        let client_port = node.local_addr().port();
        let mut children = Vec::with_capacity(all_servers.len());
        for (i, &id) in all_servers.iter().enumerate() {
            let Some((mut stream, _)) = hellos.remove(&id) else {
                kill_all(&mut procs);
                return Err(Error::Transport("a server process joined twice"));
            };
            if write_ctrl(
                &mut stream,
                &Ctrl::Peers {
                    client_port,
                    servers: peer_map.clone(),
                },
            )
            .is_err()
            {
                kill_all(&mut procs);
                return Err(Error::Transport("a server process left during bring-up"));
            }
            // procs was pushed in all_servers order, so index i is child i.
            let _ = i;
            children.push(ChildProc {
                id,
                proc: Mutex::new(procs.remove(0)),
                ctrl: Mutex::new(stream),
            });
        }
        node.set_routes(
            None,
            peer_map
                .iter()
                .map(|&(s, port)| (s, SocketAddr::from(([127, 0, 0, 1], port)))),
        );

        // Demux envelopes arriving at the client host to their sessions.
        let registry: ClientRegistry = Arc::new(Mutex::new(HashMap::new()));
        let inbox = node
            .take_inbox()
            .ok_or(Error::Transport("node inbox already taken"))?;
        let demux_stop = Arc::new(AtomicBool::new(false));
        let demux_handle = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&demux_stop);
            std::thread::Builder::new()
                .name("client-demux".into())
                .spawn(move || loop {
                    match inbox.recv_timeout(Duration::from_millis(100)) {
                        Ok(env) => {
                            if let Endpoint::Client(cid) = env.dst {
                                // A poisoned registry means the parent is
                                // tearing down mid-panic; just exit.
                                let Ok(guard) = registry.lock() else { return };
                                if let Some(tx) = guard.get(&cid) {
                                    let _ = tx.send(env);
                                }
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                })
                .map_err(|_| Error::Transport("could not spawn the client demux"))?
        };

        let handle = node.handle();
        Ok(SocketCluster {
            config,
            topo,
            node,
            handle,
            clock: Arc::new(WallClock::new()),
            children,
            registry,
            demux_stop,
            demux_handle: Some(demux_handle),
            interactive: HashMap::new(),
            next_interactive: HashMap::new(),
            binary,
            ctrl_listener,
            ctrl_port,
            peer_map,
        })
    }

    /// The topology, for inspecting placement.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The OS process id of the child hosting `id` — robustness tests
    /// kill it to exercise failure handling.
    pub fn server_pid(&self, id: ServerId) -> Option<u32> {
        self.children
            .iter()
            .find(|c| c.id == id)
            .and_then(|c| c.proc.lock().ok().map(|p| p.id()))
    }

    /// The OS process ids of every child server.
    pub fn server_pids(&self) -> Vec<u32> {
        self.children
            .iter()
            .filter_map(|c| c.proc.lock().ok().map(|p| p.id()))
            .collect()
    }

    /// The first child that has exited, if any (reaps it as a side
    /// effect).
    fn dead_child(&self) -> Option<ServerId> {
        self.children.iter().find_map(|c| {
            let mut proc = c.proc.lock().ok()?;
            proc.try_wait().ok().flatten().map(|_| c.id)
        })
    }

    fn session(&mut self, client: ClientId) -> Result<&mut InteractiveClient, Error> {
        self.interactive
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)
    }

    /// Sends `env` and waits for the event that completes the operation,
    /// surfacing a dead server process as a transport error instead of
    /// hanging out the full timeout.
    fn round_trip(&mut self, client: ClientId, env: Envelope) -> Result<ClientEvent, Error> {
        self.handle.send(env)?;
        let deadline = Instant::now() + OP_TIMEOUT;
        loop {
            let ic = self
                .interactive
                .get_mut(&client)
                .ok_or(Error::UnknownTransaction)?;
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::Transport("interactive operation timed out"));
            }
            match ic.inbox.recv_timeout(left.min(Duration::from_millis(100))) {
                Ok(env) => {
                    if let Some(ev) = ic.session.handle(&env) {
                        return Ok(ev);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.dead_child().is_some() {
                        return Err(Error::Transport("server process exited"));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(Error::Transport("client demux shut down"));
                }
            }
        }
    }

    /// Pulls a stats snapshot from every child over the control plane.
    fn snapshot_all(&self) -> Result<Vec<ServerSnapshot>, Error> {
        let mut snaps = Vec::with_capacity(self.children.len());
        for child in &self.children {
            let mut ctrl = child
                .ctrl
                .lock()
                .map_err(|_| Error::Transport("control channel poisoned"))?;
            write_ctrl(&mut *ctrl, &Ctrl::StatsReq)?;
            match read_ctrl_deadline(&mut *ctrl, deadline_in(OP_TIMEOUT))? {
                Ctrl::StatsResp(snap) => snaps.push(*snap),
                _ => return Err(Error::Transport("expected a stats response")),
            }
        }
        Ok(snaps)
    }

    /// Accepts control-plane dialers on the retained listener until the
    /// child hosting `id` says hello; returns its control stream and data
    /// port. Stray dialers are ignored — the deadline guards the wait.
    fn await_rejoin(&self, id: ServerId, deadline: Instant) -> Result<(TcpStream, u16), Error> {
        loop {
            if Instant::now() >= deadline {
                return Err(Error::Transport(
                    "timed out waiting for the restarted server to rejoin",
                ));
            }
            match self.ctrl_listener.accept() {
                Ok((mut stream, _)) => {
                    let hello = (|| -> Result<(ServerId, u16), Error> {
                        let _ = stream.set_nodelay(true);
                        stream
                            .set_read_timeout(Some(Duration::from_millis(100)))
                            .map_err(|_| Error::Transport("control socket"))?;
                        read_preamble(&mut stream, deadline)?;
                        write_preamble(&mut stream)?;
                        match read_ctrl_deadline(&mut stream, deadline)? {
                            Ctrl::Hello { server, data_port } => Ok((server, data_port)),
                            _ => Err(Error::Transport("expected a hello")),
                        }
                    })();
                    if let Ok((server, data_port)) = hello {
                        if server == id {
                            return Ok((stream, data_port));
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// One stabilization round in wall-clock microseconds. Loopback has
    /// no WAN leg, so the round is the protocol periods plus batching
    /// slack plus a generous scheduling allowance for 2·servers
    /// processes on one host.
    fn round_micros(&self) -> u64 {
        crate::gossip_round_micros(
            &self.config.cluster.intervals,
            &RegionMatrix::uniform(self.config.cluster.dcs, 0),
            self.config.cluster.dcs,
            1.0,
            &self.config.cluster.batch,
            10_000,
        )
    }
}

impl Cluster for SocketCluster {
    fn backend_name(&self) -> &'static str {
        "socket"
    }

    fn mode(&self) -> Mode {
        self.config.cluster.mode
    }

    fn open_client(&mut self, dc: u16) -> Result<ClientId, Error> {
        if dc >= self.config.cluster.dcs {
            return Err(paris_types::ConfigError::new("client DC out of range").into());
        }
        let dc = DcId(dc);
        let offset = self.next_interactive.entry(dc).or_insert(0);
        let id = ClientId::new(dc, INTERACTIVE_SEQ_BASE + *offset);
        *offset += 1;
        let (tx, inbox) = channel();
        self.registry
            .lock()
            .map_err(|_| Error::Transport("client registry poisoned"))?
            .insert(id, tx);
        let coordinator = self.topo.coordinator_for(dc, id.seq);
        let session = ClientSession::new(id, coordinator, self.config.cluster.mode);
        self.interactive
            .insert(id, InteractiveClient { session, inbox });
        Ok(id)
    }

    fn txn_begin(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        let env = self.session(client)?.session.begin()?;
        match self.round_trip(client, env)? {
            ClientEvent::Started { snapshot, .. } => Ok(snapshot),
            ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn txn_read(&mut self, client: ClientId, keys: &[Key]) -> Result<Vec<ClientRead>, Error> {
        let step = self.session(client)?.session.read(keys)?;
        match step {
            ReadStep::Done(reads) => Ok(reads),
            ReadStep::Send(env) => match self.round_trip(client, env)? {
                ClientEvent::ReadDone { reads, .. } => Ok(reads),
                ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
                _ => Err(Error::UnknownTransaction),
            },
        }
    }

    fn txn_write(&mut self, client: ClientId, entries: &[(Key, Value)]) -> Result<(), Error> {
        self.session(client)?.session.write(entries)
    }

    fn txn_commit(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        let env = self.session(client)?.session.commit()?;
        match self.round_trip(client, env)? {
            ClientEvent::Committed { ct, .. } => Ok(ct),
            ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn reset_client(&mut self, client: ClientId) -> Result<(), Error> {
        // No inbox drain, for the same reason as the threaded backend:
        // the session's own discard logic owns reply hygiene.
        self.session(client)?.session.reset();
        Ok(())
    }

    fn stabilize(&mut self, rounds: usize) {
        std::thread::sleep(Duration::from_micros(self.round_micros() * rounds as u64));
    }

    fn min_ust(&self) -> Timestamp {
        self.snapshot_all()
            .map(|snaps| snaps.iter().map(|s| s.ust).min().unwrap_or(Timestamp::ZERO))
            .unwrap_or(Timestamp::ZERO)
    }

    fn run_workload(&mut self, warmup_micros: u64, window_micros: u64) -> Result<RunReport, Error> {
        let stop_clients = Arc::new(AtomicBool::new(false));
        let measure_after = Instant::now() + Duration::from_micros(warmup_micros);
        let mut handles: Vec<JoinHandle<ClientOutcome>> = Vec::new();
        for dc in 0..self.config.cluster.dcs {
            let dc = DcId(dc);
            let local_partitions = self.topo.partitions_in_dc(dc);
            for seq in 0..self.config.clients_per_dc {
                let id = ClientId::new(dc, seq);
                let (tx, inbox) = channel();
                self.registry
                    .lock()
                    .map_err(|_| Error::Transport("client registry poisoned"))?
                    .insert(id, tx);
                let send = self.handle.clone();
                let coordinator = self.topo.coordinator_for(dc, seq);
                let mode = self.config.cluster.mode;
                let stop = Arc::clone(&stop_clients);
                let clock = Arc::clone(&self.clock);
                let workload = self.config.workload.clone();
                let n_partitions = self.config.cluster.partitions;
                let local = local_partitions.clone();
                let seed = self.config.seed ^ (u64::from(dc.0) << 32) ^ u64::from(seq);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("client-{id}"))
                        .spawn(move || {
                            run_client(
                                id,
                                coordinator,
                                mode,
                                workload,
                                n_partitions,
                                local,
                                seed,
                                inbox,
                                move |e| send.send_lossy(e),
                                stop,
                                clock,
                                measure_after,
                            )
                        })
                        .map_err(|_| Error::Transport("could not spawn a client thread"))?,
                );
            }
        }

        // Sleep out the run in slices, watching child liveness: a killed
        // server stops the run promptly instead of wedging every client.
        let run_until = Instant::now() + Duration::from_micros(warmup_micros + window_micros);
        let mut died = None;
        while Instant::now() < run_until {
            if let Some(id) = self.dead_child() {
                died = Some(id);
                break;
            }
            std::thread::sleep(
                Duration::from_millis(100).min(run_until.saturating_duration_since(Instant::now())),
            );
        }
        stop_clients.store(true, Ordering::Relaxed);
        let mut outcomes = Vec::new();
        for h in handles {
            match h.join() {
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => return Err(Error::Transport("a client thread panicked")),
            }
        }
        if let Some(id) = died {
            let _ = id;
            return Err(Error::Transport(
                "a server process died during the workload",
            ));
        }
        // Let replication/stabilization settle before snapshotting.
        std::thread::sleep(Duration::from_millis(300));

        let mut stats = RunStats::new(window_micros);
        let mut checker = self.config.record_history.then(HistoryChecker::new);
        for outcome in outcomes {
            stats.committed += outcome.committed;
            stats.aborted += outcome.aborted;
            stats.latency.merge(&outcome.latency);
            if let Some(checker) = checker.as_mut() {
                for (cid, rec) in outcome.records {
                    checker.record_tx(cid, rec);
                }
            }
        }

        let snapshots = self.snapshot_all()?;
        let violations = match checker.as_mut() {
            Some(checker) => {
                for snap in &snapshots {
                    for (key, orders) in &snap.chains {
                        checker.record_versions(*key, orders.iter().copied());
                    }
                }
                checker.check()
            }
            None => Vec::new(),
        };

        let mut blocking = BlockingStats::default();
        let counters = self.node.counters();
        let mut net_messages = counters.messages_out.load(Ordering::Relaxed);
        let mut net_bytes = counters.bytes_out.load(Ordering::Relaxed);
        for snap in &snapshots {
            blocking.blocked_reads += snap.blocked_reads;
            blocking.total_micros += snap.blocked_micros_total;
            blocking.max_micros = blocking.max_micros.max(snap.blocked_micros_max);
            net_messages += snap.net_messages;
            net_bytes += snap.net_bytes;
        }

        Ok(RunReport {
            mode: self.config.cluster.mode,
            stats,
            blocking,
            visibility: None,
            violations,
            net_messages,
            net_bytes,
        })
    }

    fn stats(&mut self) -> Result<ClusterStats, Error> {
        let snapshots = self.snapshot_all()?;
        let mut out = ClusterStats::default();
        let mut min_ust = None;
        for snap in &snapshots {
            out.fold_snapshot(snap);
            min_ust = Some(min_ust.map_or(snap.ust, |u: Timestamp| u.min(snap.ust)));
        }
        // The parent's own node carries the client traffic.
        let counters = self.node.counters();
        out.net_messages += counters.messages_out.load(Ordering::Relaxed);
        out.net_bytes += counters.bytes_out.load(Ordering::Relaxed);
        out.min_ust = min_ust.unwrap_or(Timestamp::ZERO);
        Ok(out)
    }

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        let child = self.children.get(index).ok_or_else(|| {
            Error::from(paris_types::ConfigError::new("server index out of range"))
        })?;
        let mut proc = child
            .proc
            .lock()
            .map_err(|_| Error::Transport("child handle poisoned"))?;
        // SIGKILL on unix: no shutdown handshake, no final fsync — the
        // durable log's torn tail is exactly what recovery must survive.
        let _ = proc.kill();
        proc.wait()
            .map_err(|_| Error::Transport("could not reap the killed server"))?;
        Ok(())
    }

    fn restart_server(&mut self, index: usize) -> Result<(), Error> {
        let id = self
            .children
            .get(index)
            .ok_or_else(|| Error::from(paris_types::ConfigError::new("server index out of range")))?
            .id;
        {
            // Idempotent after kill_server: make sure the old process is
            // gone before its replacement binds anything.
            let mut proc = self.children[index]
                .proc
                .lock()
                .map_err(|_| Error::Transport("child handle poisoned"))?;
            let _ = proc.kill();
            let _ = proc.wait();
        }

        let spec = child_spec(&self.config, self.ctrl_port, id);
        let child = Command::new(&self.binary)
            .env(CHILD_SPEC_ENV, spec.encode())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|_| Error::Transport("could not spawn a replacement server process"))?;

        // The replacement recovers (checkpoint + WAL replay) before it
        // says hello, so rejoining means ready-to-serve.
        let (stream, data_port) = match self.await_rejoin(id, deadline_in(HELLO_TIMEOUT)) {
            Ok(joined) => joined,
            Err(e) => {
                let mut child = child;
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };

        // Slot the replacement in, then publish its new data port to
        // every child (including the new one, which is blocked waiting
        // for exactly this peer map) and to the parent's own routes.
        if let Some(entry) = self.peer_map.iter_mut().find(|(s, _)| *s == id) {
            entry.1 = data_port;
        }
        self.children[index] = ChildProc {
            id,
            proc: Mutex::new(child),
            ctrl: Mutex::new(stream),
        };
        let client_port = self.node.local_addr().port();
        for child in &self.children {
            let mut ctrl = child
                .ctrl
                .lock()
                .map_err(|_| Error::Transport("control channel poisoned"))?;
            write_ctrl(
                &mut *ctrl,
                &Ctrl::Peers {
                    client_port,
                    servers: self.peer_map.clone(),
                },
            )
            .map_err(|_| Error::Transport("a server process left during restart"))?;
        }
        self.node.set_routes(
            None,
            self.peer_map
                .iter()
                .map(|&(s, port)| (s, SocketAddr::from(([127, 0, 0, 1], port)))),
        );
        Ok(())
    }

    fn begin(&mut self, client: ClientId) -> Result<crate::Txn<'_>, Error> {
        crate::Txn::begin_on(self, client)
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        let snapshots = self.snapshot_all()?;
        let mut by_server: HashMap<ServerId, HashMap<Key, Option<VersionOrd>>> = HashMap::new();
        for snap in snapshots {
            let Some(id) = snap.server else { continue };
            let latest = snap
                .chains
                .into_iter()
                .map(|(key, orders)| (key, orders.first().copied()))
                .collect();
            by_server.insert(id, latest);
        }
        let topo = Arc::clone(&self.topo);
        Ok(replica_convergence(&topo, |id| {
            by_server.get(&id).cloned().unwrap_or_default()
        }))
    }
}

impl Drop for SocketCluster {
    fn drop(&mut self) {
        // Ask every child to stop, give them a grace window, then kill.
        for child in &self.children {
            if let Ok(mut ctrl) = child.ctrl.lock() {
                let _ = write_ctrl(&mut *ctrl, &Ctrl::Stop);
            }
        }
        let deadline = Instant::now() + STOP_GRACE;
        for child in &self.children {
            let Ok(mut proc) = child.proc.lock() else {
                continue;
            };
            loop {
                match proc.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = proc.kill();
                        let _ = proc.wait();
                        break;
                    }
                }
            }
        }
        self.demux_stop.store(true, Ordering::Relaxed);
        self.node.shutdown();
        if let Some(h) = self.demux_handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::PartitionId;

    #[test]
    fn child_spec_roundtrips_through_hex() {
        let spec = ChildSpec {
            ctrl_port: 45_123,
            server: ServerId::new(DcId(1), PartitionId(3)),
            cluster: ClusterConfig::builder()
                .dcs(2)
                .partitions(4)
                .replication_factor(2)
                .keys_per_partition(50)
                .build()
                .unwrap(),
            tuning: ServerTuning::default(),
            connect_timeout_micros: 5_000_000,
            read_timeout_micros: 100_000,
        };
        let hex = spec.encode();
        assert_eq!(ChildSpec::decode(&hex).unwrap(), spec);

        // Batching off, a non-default policy and both modes survive the
        // trip.
        for batch in [
            BatchConfig::DISABLED,
            BatchConfig::stable_time(8, 1_000, 7_000),
        ] {
            let mut spec2 = spec.clone();
            spec2.cluster.mode = Mode::Bpr;
            spec2.cluster.batch = batch;
            assert_eq!(ChildSpec::decode(&spec2.encode()).unwrap(), spec2);
        }

        // A durable tuning (the crash-recovery deployment shape) survives
        // too, directory path and knobs intact.
        let mut spec3 = spec.clone();
        spec3.tuning.durable = Some(
            DurableConfig::new("/tmp/paris-test/dc1-p3")
                .fsync(FsyncPolicy::Always)
                .checkpoint_interval_micros(250_000),
        );
        assert_eq!(ChildSpec::decode(&spec3.encode()).unwrap(), spec3);
    }

    #[test]
    fn child_spec_rejects_garbage() {
        assert!(ChildSpec::decode("zz").is_err());
        assert!(ChildSpec::decode("abc").is_err());
        assert!(ChildSpec::decode("0102").is_err());
        let valid = ChildSpec {
            ctrl_port: 1,
            server: ServerId::new(DcId(0), PartitionId(0)),
            cluster: ClusterConfig::default(),
            tuning: ServerTuning::default(),
            connect_timeout_micros: 1,
            read_timeout_micros: 1,
        }
        .encode();
        // Truncations never panic.
        for cut in (0..valid.len()).step_by(2) {
            let _ = ChildSpec::decode(&valid[..cut]);
        }
    }

    #[test]
    fn child_spec_rejects_a_config_the_child_could_not_run() {
        let valid = ChildSpec {
            ctrl_port: 1,
            server: ServerId::new(DcId(1), PartitionId(0)),
            cluster: ClusterConfig::builder()
                .dcs(2)
                .partitions(4)
                .replication_factor(2)
                .build()
                .unwrap(),
            tuning: ServerTuning::default(),
            connect_timeout_micros: 1,
            read_timeout_micros: 1,
        };
        assert_eq!(ChildSpec::decode(&valid.encode()).unwrap(), valid);
        let mut above_dcs = valid.clone();
        above_dcs.cluster.replication_factor = 3;
        let mut no_dcs = valid.clone();
        no_dcs.cluster.dcs = 0;
        let mut outside = valid.clone();
        outside.server = ServerId::new(DcId(2), PartitionId(0));
        let mut past_partitions = valid;
        past_partitions.server = ServerId::new(DcId(0), PartitionId(4));
        for spec in [above_dcs, no_dcs, outside, past_partitions] {
            assert!(
                matches!(ChildSpec::decode(&spec.encode()), Err(Error::Config(_))),
                "{spec:?} decoded"
            );
        }
    }
}
