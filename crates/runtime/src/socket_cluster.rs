//! The multi-process socket backend.
//!
//! One OS **process** per partition server, real TCP frames between them
//! — the deployment shape the paper actually evaluates (one machine per
//! server), scaled down to loopback. The parent process hosts every
//! client session plus the control plane; each child process hosts one
//! [`ServerHost`] driven by the same loops as the threaded
//! backend ([`crate::driver`]) over a [`SocketNode`] transport.
//!
//! The parent's clients are the live core it shares with the thread
//! backend ([`crate::live`]): the interactive sessions and their round
//! trip, `run_workload`, `stabilize` and the snapshot observers. This
//! module supplies [`SocketNet`] — the data-plane node, whose reader
//! threads deliver each reply straight into its session's inbox, the
//! children's control streams and their liveness — plus the process
//! management of bring-up, `kill_server` and `restart_server`.
//!
//! ## Bring-up
//!
//! 1. The parent binds its data-plane node and a control listener, then
//!    spawns one `paris-server` child per server with a [`ChildSpec`]
//!    (configuration + control port) in an environment variable.
//! 2. Each child binds its own data-plane node, dials the control port,
//!    handshakes (magic + protocol version, like every connection) and
//!    sends [`Ctrl::Hello`] with its data port. A relaunched child rejoins
//!    through the same handshake ([`await_hello`]). The parent blocks in
//!    `accept` meanwhile; an alarm dialing the listener itself ends the
//!    wait at the hello deadline.
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
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use paris_clock::WallClock;
use paris_core::{
    ClientEvent, ClientSession, DurableConfig, FsyncPolicy, ServerTuning, Topology, Violation,
};
use paris_net::sim::RegionMatrix;
use paris_net::socket::framing::{
    deadline_in, read_ctrl_deadline, read_preamble, write_ctrl, write_preamble,
};
use paris_net::socket::{NodeIdentity, SocketConfig, SocketNode};
use paris_proto::{Ctrl, Envelope, ServerSnapshot};
use paris_types::{
    BatchConfig, ClientId, ClusterConfig, DcId, Error, Intervals, Mode, ServerId, Timestamp,
};

use crate::driver::{request_snapshots, spawn_server_loop};
use crate::facade::Sessions;
use crate::host::ServerHost;
use crate::live::{Live, LiveNet};
use crate::measure::{ClusterStats, RunReport};
use crate::{BackendConfig, Cluster, OP_TIMEOUT};

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
        })
    }
}

/// A deployment's data-plane node: its batching, the default timeouts.
fn socket_config(cluster: &ClusterConfig) -> SocketConfig {
    SocketConfig {
        batch: cluster.batch,
        ..SocketConfig::default()
    }
}

/// Points `node` at the loopback data ports of `servers` and, when given,
/// of the client host.
fn route_loopback(node: &SocketNode, client_port: Option<u16>, servers: &[(ServerId, u16)]) {
    let at = |port| SocketAddr::from(([127, 0, 0, 1], port));
    node.set_routes(
        client_port.map(at),
        servers.iter().map(|&(s, port)| (s, at(port))),
    );
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
    let mut node = SocketNode::bind(NodeIdentity::Server(id), socket_config(&spec.cluster))?;
    // The inbox opens before anyone learns the data port: a peer's first
    // frame must find it.
    let inbox = node.register(id)?;

    // The server state machine, stamped by the host-wide wall clock so
    // every process in the deployment shares a timebase. With a durable
    // tuning this is also the recovery point: a relaunched child replays
    // its checkpoint + WAL suffix here, *before* it says hello — joining
    // the deployment advertises readiness to serve.
    let host = ServerHost::new(id, &topo, Box::new(WallClock::new()), false, spec.tuning)?;

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
    let peers = read_ctrl_deadline(&mut ctrl, Some(deadline_in(HELLO_TIMEOUT)))?;
    let Ctrl::Peers {
        client_port,
        servers,
    } = peers
    else {
        return Err(Error::Transport("expected a peer map from the parent"));
    };
    route_loopback(&node, Some(client_port), &servers);
    // The server loop owns the server and drains the node inbox itself:
    // every message, slice reads included, is handled there, and so is
    // every snapshot request of the control loop below.
    let (send, flush) = (node.handle(), node.handle());
    let (server_handle, snapshot_tx, published_ust) = spawn_server_loop(
        host,
        inbox,
        move |e| send.send_lossy(e),
        move || flush.flush_due(),
        WallClock::new(),
    )?;

    // Control loop on the main thread: requests and shutdown. It waits
    // for as long as the parent is there; a vanished parent (EOF or
    // error) is a shutdown too — children never outlive their parent.
    let counters = node.counters();
    loop {
        let answer = match read_ctrl_deadline(&mut ctrl, None) {
            Ok(Ctrl::UstReq) => {
                Ctrl::UstResp(Timestamp::from_u64(published_ust.load(Ordering::Relaxed)))
            }
            Ok(Ctrl::StatsReq { chains }) => {
                // The loop answers between messages; one that cannot
                // answer has died, so let the parent see EOF.
                let answer = request_snapshots(std::slice::from_ref(&snapshot_tx), chains);
                let Some(mut snap) = answer.ok().and_then(|mut one| one.pop()) else {
                    break;
                };
                snap.net_messages = counters.messages_out.load(Ordering::Relaxed);
                snap.net_bytes = counters.bytes_out.load(Ordering::Relaxed);
                snap.crossing_flushes = counters.crossing_flushes.load(Ordering::Relaxed);
                snap.size_flushes = counters.size_flushes.load(Ordering::Relaxed);
                snap.deadline_flushes = counters.deadline_flushes.load(Ordering::Relaxed);
                Ctrl::StatsResp(Box::new(snap))
            }
            Ok(Ctrl::Peers {
                client_port,
                servers,
            }) => {
                // A peer process restarted on fresh ports: install the
                // updated map so future dials reach the new addresses
                // (stale links fail on their own and are redialed).
                route_loopback(&node, Some(client_port), &servers);
                continue;
            }
            Ok(Ctrl::Stop) | Err(_) => break,
            // Unexpected frames are ignored: the control protocol may
            // grow and old children should not die on new requests.
            Ok(_) => continue,
        };
        if write_ctrl(&mut ctrl, &answer).is_err() {
            break;
        }
    }

    drop(snapshot_tx);
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
}

/// The parent's data-plane node and the children with their control
/// streams.
struct SocketNet {
    node: SocketNode,
    children: Vec<ChildProc>,
    /// Each child's control stream, in `children` order.
    ctrls: Vec<Mutex<TcpStream>>,
}

impl LiveNet for SocketNet {
    fn register(&self, client: ClientId) -> Result<Receiver<Envelope>, Error> {
        self.node.register(client)
    }

    fn send(&self, env: Envelope) -> Result<(), Error> {
        self.node.handle().send(env)
    }

    fn lossy_sender(&self) -> impl Fn(Envelope) + Send + 'static {
        let send = self.node.handle();
        move |e| send.send_lossy(e)
    }

    /// Pulls a stats snapshot from every child over the control plane.
    fn snapshots(&self, chains: bool) -> Result<Vec<ServerSnapshot>, Error> {
        ask_each(&self.ctrls, &Ctrl::StatsReq { chains })
            .into_iter()
            .map(|answer| match answer? {
                Ctrl::StatsResp(snap) => Ok(*snap),
                _ => Err(Error::Transport("unexpected control answer")),
            })
            .collect()
    }

    fn min_ust(&self) -> Result<Timestamp, Error> {
        ask_each(&self.ctrls, &Ctrl::UstReq)
            .into_iter()
            .try_fold(Timestamp::MAX, |min, answer| match answer? {
                Ctrl::UstResp(ust) => Ok(min.min(ust)),
                _ => Err(Error::Transport("unexpected control answer")),
            })
    }

    /// The client traffic the parent's own node carries; each child's
    /// snapshot carries its own.
    fn add_wire_totals(&self, stats: &mut ClusterStats) {
        let counters = self.node.counters();
        stats.net_messages += counters.messages_out.load(Ordering::Relaxed);
        stats.net_bytes += counters.bytes_out.load(Ordering::Relaxed);
    }

    /// Fails once a child has exited (and reaps it).
    fn alive(&self) -> Result<(), Error> {
        let exited = |c: &ChildProc| c.proc.lock().ok()?.try_wait().ok().flatten();
        match self.children.iter().find_map(exited) {
            Some(_) => Err(Error::Transport("a server process exited")),
            None => Ok(()),
        }
    }

    /// Loopback has no WAN leg, so the round is the protocol periods plus
    /// batching slack plus a generous scheduling allowance for 2·servers
    /// processes on one host.
    fn round_micros(&self, cluster: &ClusterConfig) -> u64 {
        crate::gossip_round_micros(
            &cluster.intervals,
            &RegionMatrix::uniform(cluster.dcs, 0),
            cluster.dcs,
            1.0,
            &cluster.batch,
            10_000,
        )
    }
}

const POISONED: Error = Error::Transport("control channel poisoned");

/// Sends `req` on every control stream, then reads every answer: one round
/// trip for all the children. Every answer asked for is read whatever
/// failed before it; a stream whose answer cannot be read is shut down, so
/// no later request reads a stale answer (and its child exits).
fn ask_each(ctrls: &[Mutex<TcpStream>], req: &Ctrl) -> Vec<Result<Ctrl, Error>> {
    let asked: Vec<Result<_, Error>> = ctrls
        .iter()
        .map(|ctrl| {
            let mut stream = ctrl.lock().map_err(|_| POISONED)?;
            write_ctrl(&mut *stream, req)?;
            Ok(stream)
        })
        .collect();
    let deadline = deadline_in(OP_TIMEOUT);
    asked
        .into_iter()
        .map(|stream| {
            let mut stream = stream?;
            let answer = read_ctrl_deadline(&mut *stream, Some(deadline));
            if answer.is_err() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            answer
        })
        .collect()
}

/// The multi-process socket backend. See the module docs.
pub struct SocketCluster {
    live: Live<SocketNet>,
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
fn child_spec(config: &BackendConfig, ctrl_port: u16, id: ServerId) -> ChildSpec {
    ChildSpec {
        ctrl_port,
        server: id,
        cluster: config.cluster.clone(),
        tuning: crate::tuning::server_tuning(config.durability.as_ref(), id),
    }
}

/// Spawns the `paris-server` child that `spec` describes.
fn spawn_child(binary: &Path, spec: &ChildSpec) -> std::io::Result<Child> {
    Command::new(binary)
        .env(CHILD_SPEC_ENV, spec.encode())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
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

/// Accepts control-plane dialers until one whose server `from` accepts
/// says hello; returns that server, its data port and its control stream.
/// Other dialers (a port scanner, a stale child) are ignored.
///
/// The wait blocks in `accept`. An alarm thread sleeps on a channel until
/// `deadline` and then dials the listener itself, so a wait nobody
/// answers still ends on time; a wait that succeeds first hangs up on the
/// alarm instead.
///
/// # Errors
///
/// [`Error::Transport`] once `deadline` passes.
fn await_hello(
    listener: &TcpListener,
    deadline: Instant,
    from: impl Fn(ServerId) -> bool,
) -> Result<(ServerId, u16, TcpStream), Error> {
    let addr = listener
        .local_addr()
        .map_err(|_| Error::Transport("could not read the control address"))?;
    let (hang_up, alarm) = sync_channel::<()>(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let left = deadline.saturating_duration_since(Instant::now());
            if alarm.recv_timeout(left) == Err(RecvTimeoutError::Timeout) {
                let _ = TcpStream::connect(addr);
            }
        });
        let joined = loop {
            let conn = listener.accept();
            if Instant::now() >= deadline {
                break Err(Error::Transport(
                    "timed out waiting for a server process to join",
                ));
            }
            let Ok((mut stream, _)) = conn else { continue };
            if let Some((server, port)) =
                read_hello(&mut stream, deadline).filter(|&(s, _)| from(s))
            {
                break Ok((server, port, stream));
            }
        };
        drop(hang_up);
        joined
    })
}

/// The control-plane handshake of a joining child: NODELAY, a 100 ms read
/// timeout, the preamble both ways, then its [`Ctrl::Hello`].
fn read_hello(stream: &mut TcpStream, deadline: Instant) -> Option<(ServerId, u16)> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok()?;
    read_preamble(stream, deadline).ok()?;
    write_preamble(stream).ok()?;
    match read_ctrl_deadline(stream, Some(deadline)).ok()? {
        Ctrl::Hello { server, data_port } => Some((server, data_port)),
        _ => None,
    }
}

impl SocketCluster {
    /// Spawns the child server processes, completes the control-plane
    /// bring-up and returns the live deployment.
    pub(crate) fn start(config: BackendConfig) -> Result<SocketCluster, Error> {
        let binary = server_binary()?;
        let topo = Arc::new(Topology::new(config.cluster.clone()));
        let node = SocketNode::bind(NodeIdentity::ClientHost, socket_config(&config.cluster))?;
        let ctrl_listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|_| Error::Transport("could not bind the control listener"))?;
        let ctrl_port = ctrl_listener
            .local_addr()
            .map_err(|_| Error::Transport("could not read the control address"))?
            .port();

        // Spawn one child per server.
        let all_servers: Vec<ServerId> = topo.all_servers();
        let mut procs: Vec<Child> = Vec::with_capacity(all_servers.len());
        for &id in &all_servers {
            match spawn_child(&binary, &child_spec(&config, ctrl_port, id)) {
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
            match await_hello(&ctrl_listener, deadline, |_| true) {
                Ok((server, data_port, stream)) => {
                    hellos.insert(server, (stream, data_port));
                }
                Err(e) => {
                    kill_all(&mut procs);
                    return Err(e);
                }
            }
        }

        // Broadcast the peer map and install the parent's own routes.
        let peer_map: Vec<(ServerId, u16)> = hellos.iter().map(|(&s, &(_, p))| (s, p)).collect();
        let peers = Ctrl::Peers {
            client_port: node.local_addr().port(),
            servers: peer_map.clone(),
        };
        let mut ctrls = Vec::with_capacity(all_servers.len());
        for id in &all_servers {
            let Some((mut stream, _)) = hellos.remove(id) else {
                kill_all(&mut procs);
                return Err(Error::Transport("a server process joined twice"));
            };
            if write_ctrl(&mut stream, &peers).is_err() {
                kill_all(&mut procs);
                return Err(Error::Transport("a server process left during bring-up"));
            }
            ctrls.push(Mutex::new(stream));
        }
        // procs and ctrls are both in all_servers order.
        let children = all_servers
            .iter()
            .zip(procs)
            .map(|(&id, proc)| ChildProc {
                id,
                proc: Mutex::new(proc),
            })
            .collect();
        route_loopback(&node, None, &peer_map);

        let net = SocketNet {
            node,
            children,
            ctrls,
        };
        Ok(SocketCluster {
            live: Live::new(net, config, topo, Arc::new(WallClock::new())),
            binary,
            ctrl_listener,
            ctrl_port,
            peer_map,
        })
    }

    /// The topology, for inspecting placement.
    pub fn topology(&self) -> &Topology {
        &self.live.topo
    }

    /// The OS process id of the child hosting `id` — robustness tests
    /// kill it to exercise failure handling.
    pub fn server_pid(&self, id: ServerId) -> Option<u32> {
        self.live
            .net
            .children
            .iter()
            .find(|c| c.id == id)
            .and_then(|c| c.proc.lock().ok().map(|p| p.id()))
    }

    /// The OS process ids of every child server.
    pub fn server_pids(&self) -> Vec<u32> {
        self.live
            .net
            .children
            .iter()
            .filter_map(|c| c.proc.lock().ok().map(|p| p.id()))
            .collect()
    }
}

impl Sessions for SocketCluster {
    fn session(&mut self, client: ClientId) -> Result<&mut ClientSession, Error> {
        self.live.session(client)
    }

    fn round_trip(&mut self, client: ClientId, envs: Vec<Envelope>) -> Result<ClientEvent, Error> {
        self.live.round_trip(client, envs)
    }
}

impl Cluster for SocketCluster {
    fn backend_name(&self) -> &'static str {
        "socket"
    }

    fn mode(&self) -> Mode {
        self.live.config.cluster.mode
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

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        let child = self.live.net.children.get(index).ok_or_else(|| {
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
        // Idempotent after kill_server: make sure the old process is gone
        // before its replacement binds anything.
        self.kill_server(index)?;
        let id = self.live.net.children[index].id;
        let spec = child_spec(&self.live.config, self.ctrl_port, id);
        let child = spawn_child(&self.binary, &spec)
            .map_err(|_| Error::Transport("could not spawn a replacement server process"))?;

        // The replacement recovers (checkpoint + WAL replay) before it
        // says hello, so rejoining means ready-to-serve.
        let deadline = deadline_in(HELLO_TIMEOUT);
        let (_, data_port, stream) = match await_hello(&self.ctrl_listener, deadline, |s| s == id) {
            Ok(joined) => joined,
            Err(e) => {
                kill_all(&mut vec![child]);
                return Err(e);
            }
        };

        // Slot the replacement in, then publish its new data port to
        // every child (including the new one, which is blocked waiting
        // for exactly this peer map) and to the parent's own routes.
        if let Some(entry) = self.peer_map.iter_mut().find(|(s, _)| *s == id) {
            entry.1 = data_port;
        }
        let net = &mut self.live.net;
        net.children[index] = ChildProc {
            id,
            proc: Mutex::new(child),
        };
        net.ctrls[index] = Mutex::new(stream);
        let peers = Ctrl::Peers {
            client_port: net.node.local_addr().port(),
            servers: self.peer_map.clone(),
        };
        for ctrl in &net.ctrls {
            let mut ctrl = ctrl.lock().map_err(|_| POISONED)?;
            write_ctrl(&mut *ctrl, &peers)
                .map_err(|_| Error::Transport("a server process left during restart"))?;
        }
        route_loopback(&net.node, None, &self.peer_map);
        Ok(())
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        self.live.check_convergence()
    }
}

impl Drop for SocketCluster {
    fn drop(&mut self) {
        // Ask every child to stop, give them a grace window, then kill.
        let net = &mut self.live.net;
        for ctrl in &net.ctrls {
            if let Ok(mut ctrl) = ctrl.lock() {
                let _ = write_ctrl(&mut *ctrl, &Ctrl::Stop);
            }
        }
        let deadline = Instant::now() + STOP_GRACE;
        for child in &net.children {
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
        net.node.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_net::socket::framing::write_frame;
    use paris_proto::ctrl::encode_ctrl;
    use paris_types::PartitionId;
    use std::thread::JoinHandle;

    /// The parent's end of a loopback control stream whose peer answers
    /// the n-th request with the n-th payload of `answers`, raw, and the
    /// peer's thread, which returns once the parent's end is gone.
    fn scripted_peer(answers: Vec<Vec<u8>>) -> (Mutex<TcpStream>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let parent = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        parent
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let peer = std::thread::spawn(move || {
            for answer in answers {
                if read_ctrl_deadline(&mut peer, None).is_err() {
                    return;
                }
                write_frame(&mut peer, &answer).unwrap();
            }
            // Answers out: wait for the parent to hang up.
            let _ = read_ctrl_deadline(&mut peer, None);
        });
        (Mutex::new(parent), peer)
    }

    #[test]
    fn every_asked_answer_is_read_even_after_an_earlier_one_failed() {
        let ust = |n| encode_ctrl(&Ctrl::UstResp(Timestamp::from_parts(n, 0))).to_vec();
        let (ctrls, peers): (Vec<_>, Vec<_>) = [
            // First an undecodable frame, then a good answer.
            scripted_peer(vec![vec![0xEE, 1, 2], ust(2)]),
            // First a well-formed answer of the wrong kind, then a good one.
            scripted_peer(vec![encode_ctrl(&Ctrl::Stop).to_vec(), ust(2)]),
            scripted_peer(vec![ust(1), ust(2)]),
        ]
        .into_iter()
        .unzip();
        let ask = || {
            let answers = ask_each(&ctrls, &Ctrl::UstReq).into_iter();
            answers.map(Result::ok).collect::<Vec<_>>()
        };
        let ust = |n| Some(Ctrl::UstResp(Timestamp::from_parts(n, 0)));
        // The failure comes first, and the later answers are still read.
        assert_eq!(ask(), [None, Some(Ctrl::Stop), ust(1)]);
        // So the second round reads second answers, none left over from
        // the first. The malformed stream was retired; the one that
        // answered out of kind stayed in step.
        assert_eq!(ask(), [None, ust(2), ust(2)]);
        drop(ctrls);
        for peer in peers {
            peer.join().unwrap();
        }
    }

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
