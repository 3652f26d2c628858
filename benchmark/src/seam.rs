//! The one seam between the benchmark and the program it measures.
//!
//! Every call into the program — the `Paris::builder`/`Cluster` facade,
//! `Server::handle` and the `on_*_tick`s, `ClientSession`, the wire codec,
//! the storage engines, the `Coalescer`, the threaded `Router`, the socket
//! framing, `Hlc`, `WorkloadGenerator` and the `HistoryChecker` — is made
//! from this file, so a refactor of the program re-points the benchmark
//! here and nowhere else. The other modules use the plain data types
//! re-exported below and the wrappers defined here; `README.md` lists the
//! program's public names this file holds.

use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paris::clock::{Hlc, SimClock, SystemClock, WallClock};
use paris::core::{
    ClientSession, DurableConfig, HistoryChecker, RecordedRead, RecordedTx, Server, ServerOptions,
    ServerTuning, Topology,
};
use paris::net::batch::{Coalescer, Offer};
use paris::net::sim::RegionMatrix;
use paris::net::socket::framing;
use paris::net::threaded::{Router, ThreadedNetConfig};
use paris::proto::wire;
use paris::storage::{DurableEngine, Engine, MemEngine, DEFAULT_SHARDS};
use paris::types::{BatchConfig, ClusterConfig, Mode, VersionOrd, WireFormat};
use paris::workload::{WorkloadConfig, WorkloadGenerator};
use paris::{Cluster, Durability, MiniCluster, Paris, ThreadCluster};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[cfg(test)]
pub use paris::core::ReadSource;
pub use paris::core::{ClientEvent, ClientRead, ReadStep};
pub use paris::proto::{Endpoint, Envelope, Msg};
pub use paris::types::{ClientId, DcId, Error, Key, PartitionId, ServerId, Timestamp, TxId, Value};
pub use paris::workload::stats::Histogram;
pub use paris::workload::TxSpec;

use crate::workloads::{Substrate, Workload, KEYS_PER_PARTITION, ZIPF_THETA};

// ---------------------------------------------------------------------
// Shape: configuration and placement shared by the live and pumped forms
// ---------------------------------------------------------------------

/// A workload's deployment shape, resolved once: the `ClusterConfig` the
/// facade builder would derive (default intervals, batching and wire
/// format) and the `Topology` over it.
pub struct Shape {
    topo: Arc<Topology>,
}

impl Shape {
    pub fn of(w: &Workload) -> Shape {
        let cfg = ClusterConfig::builder()
            .dcs(w.dcs)
            .partitions(w.partitions)
            .replication_factor(w.replication)
            .keys_per_partition(KEYS_PER_PARTITION)
            .value_size(w.value_size)
            .build()
            .expect("workload shapes are valid configurations");
        Shape {
            topo: Arc::new(Topology::new(cfg)),
        }
    }

    pub fn dcs(&self) -> u16 {
        self.topo.dcs()
    }

    pub fn partitions(&self) -> u32 {
        self.topo.partitions()
    }

    pub fn all_servers(&self) -> Vec<ServerId> {
        self.topo.all_servers()
    }

    /// The DCs replicating `partition`.
    pub fn replicas(&self, partition: PartitionId) -> Vec<DcId> {
        self.topo.replicas(partition)
    }

    pub fn key_at(&self, partition: PartitionId, rank: u64) -> Key {
        self.topo.key_at(partition, rank)
    }

    pub fn coordinator_for(&self, dc: DcId, client_seq: u32) -> ServerId {
        self.topo.coordinator_for(dc, client_seq)
    }

    pub fn is_dc_root(&self, server: ServerId) -> bool {
        self.topo.tree_parent(server).is_none()
    }

    pub fn tick_micros(&self) -> u64 {
        self.topo.config().intervals.replication_micros
    }

    pub fn gc_micros(&self) -> u64 {
        self.topo.config().intervals.gc_micros
    }

    fn batch(&self) -> BatchConfig {
        self.topo.config().batch
    }

    fn wire(&self) -> WireFormat {
        self.topo.config().wire
    }

    /// One line describing the defaults the run used, for the output.
    pub fn describe_defaults(&self) -> String {
        let c = self.topo.config();
        format!(
            "wire {:?}, batch {:?}, ticks {}/{}/{} us, gc {} us",
            c.wire,
            c.batch,
            c.intervals.replication_micros,
            c.intervals.gst_micros,
            c.intervals.ust_micros,
            c.intervals.gc_micros
        )
    }
}

fn workload_config(w: &Workload) -> WorkloadConfig {
    WorkloadConfig {
        reads_per_tx: w.reads_per_tx,
        writes_per_tx: w.writes_per_tx,
        partitions_per_tx: w.partitions_per_tx,
        local_tx_ratio: w.local_tx_ratio,
        zipf_theta: ZIPF_THETA,
        keys_per_partition: KEYS_PER_PARTITION,
        value_size: w.value_size,
    }
}

// ---------------------------------------------------------------------
// The seeded transaction stream
// ---------------------------------------------------------------------

/// The `TxSpec` stream of the workload client in `dc`: the same generator,
/// seeded the way `Cluster::run_workload` seeds its client `seq` 0 of that
/// DC (`seed ^ dc << 32 ^ seq`), so the live closed loop, the benchmark's
/// own driver and the pump all draw the same transactions.
pub struct TxStream {
    generator: WorkloadGenerator,
    rng: StdRng,
}

impl TxStream {
    pub fn new(w: &Workload, shape: &Shape, seed: u64, dc: DcId) -> TxStream {
        TxStream {
            generator: WorkloadGenerator::new(
                workload_config(w),
                shape.partitions(),
                shape.topo.partitions_in_dc(dc),
            ),
            rng: StdRng::seed_from_u64(seed ^ (u64::from(dc.0) << 32)),
        }
    }

    pub fn next_tx(&mut self) -> TxSpec {
        self.generator.next_tx(&mut self.rng)
    }
}

// ---------------------------------------------------------------------
// The live deployment behind the facade
// ---------------------------------------------------------------------

enum Live {
    Socket(paris::runtime::SocketCluster),
    Thread(ThreadCluster),
    Mini(MiniCluster),
}

/// What one `run_workload` window reported.
pub struct LoopReport {
    pub committed: u64,
    pub aborted: u64,
    /// Begin → commit reply, microseconds.
    pub latency: Histogram,
    pub violations: Vec<String>,
    /// Cumulative wire counters after the window's settle pause.
    pub net_messages: u64,
    pub net_bytes: u64,
}

/// A built deployment of one workload on its live substrate, default
/// configuration: `Tuning::default()`, default wire format, batching and
/// intervals, no modeled service time, history recording on.
pub struct Deployment {
    live: Live,
}

impl Deployment {
    /// # Errors
    ///
    /// Configuration or bring-up failures of the chosen backend.
    pub fn build(w: &Workload, seed: u64, durable_dir: Option<&Path>) -> Result<Deployment, Error> {
        let mut b = Paris::builder()
            .dcs(w.dcs)
            .partitions(w.partitions)
            .replication(w.replication)
            .keys_per_partition(KEYS_PER_PARTITION)
            .value_size(w.value_size)
            .workload(workload_config(w))
            .seed(seed)
            .record_history(true);
        if let Some(dir) = durable_dir {
            b = b.durability(Durability::new(dir));
        }
        let live = match w.substrate {
            Substrate::Socket => Live::Socket(b.clients_per_dc(1).build_socket()?),
            Substrate::Thread => Live::Thread(
                // Unscaled delays: the workload's one-way inter-DC delay and
                // the latency matrix's fixed 250 µs intra-DC delay. No
                // client threads: the benchmark's own driver makes the load.
                b.uniform_latency_micros(w.inter_dc_one_way_micros)
                    .latency_scale(1.0)
                    .jitter(0.0)
                    .clients_per_dc(0)
                    .build_thread()?,
            ),
            Substrate::Mini => Live::Mini(b.clients_per_dc(1).build_mini()?),
        };
        Ok(Deployment { live })
    }

    fn cluster(&mut self) -> &mut dyn Cluster {
        match &mut self.live {
            Live::Socket(c) => c,
            Live::Thread(c) => c,
            Live::Mini(c) => c,
        }
    }

    pub fn open_client(&mut self, dc: DcId) -> Result<ClientId, Error> {
        self.cluster().open_client(dc.0)
    }

    pub fn begin(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        self.cluster().txn_begin(client)
    }

    pub fn read(&mut self, client: ClientId, keys: &[Key]) -> Result<Vec<ClientRead>, Error> {
        self.cluster().txn_read(client, keys)
    }

    pub fn write(&mut self, client: ClientId, entries: &[(Key, Value)]) -> Result<(), Error> {
        self.cluster().txn_write(client, entries)
    }

    pub fn commit(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        self.cluster().txn_commit(client)
    }

    pub fn reset_client(&mut self, client: ClientId) {
        // Only fails for an unknown client, which the callers never pass.
        let _ = self.cluster().reset_client(client);
    }

    pub fn min_ust(&mut self) -> Timestamp {
        self.cluster().min_ust()
    }

    pub fn stabilize(&mut self, rounds: usize) {
        self.cluster().stabilize(rounds);
    }

    /// One `run_workload` window with no warm-up inside the call.
    pub fn closed_loop(&mut self, window: Duration) -> Result<LoopReport, Error> {
        let report = self.cluster().run_workload(0, window.as_micros() as u64)?;
        Ok(LoopReport {
            committed: report.stats.committed,
            aborted: report.stats.aborted,
            latency: report.stats.latency,
            violations: report.violations.iter().map(ToString::to_string).collect(),
            net_messages: report.net_messages,
            net_bytes: report.net_bytes,
        })
    }

    /// Cumulative `(net_messages, net_bytes)` since the deployment was
    /// built. The threaded backend's `stats()` leaves both at zero, but its
    /// run report carries the router's totals — so there a zero-length,
    /// zero-client `run_workload` reads them (≈0.3 s: its settle pause).
    pub fn net_counters(&mut self) -> Result<(u64, u64), Error> {
        if matches!(self.live, Live::Thread(_)) {
            let report = self.cluster().run_workload(0, 0)?;
            return Ok((report.net_messages, report.net_bytes));
        }
        let stats = self.cluster().stats()?;
        Ok((stats.net_messages, stats.net_bytes))
    }

    pub fn convergence_violations(&mut self) -> Result<Vec<String>, Error> {
        let found = self.cluster().check_convergence()?;
        Ok(found.iter().map(ToString::to_string).collect())
    }

    /// Child server processes (socket substrate; empty elsewhere).
    pub fn server_pids(&self) -> Vec<u32> {
        match &self.live {
            Live::Socket(c) => c.server_pids(),
            _ => Vec::new(),
        }
    }
}

/// Where the socket backend will look for its child binary, if that is
/// beside this executable — the same rule `paris_runtime` applies (minus
/// its `PARIS_SERVER_BIN` override, which the benchmark does not set).
pub fn server_binary_beside_exe() -> Option<PathBuf> {
    if let Ok(p) = std::env::var(paris::runtime::SERVER_BIN_ENV) {
        return Some(PathBuf::from(p));
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("paris-server{}", std::env::consts::EXE_SUFFIX);
    let candidate = exe.parent()?.join(name);
    candidate.is_file().then_some(candidate)
}

// ---------------------------------------------------------------------
// History: the checker as judge of the benchmark's own transactions
// ---------------------------------------------------------------------

struct Observed {
    client: ClientId,
    snapshot: Timestamp,
    /// Without the values: a 1 KiB-value workload reads megabytes a second.
    reads: Vec<RecordedRead>,
    writes: Vec<Key>,
    ct: Timestamp,
}

/// The history of every transaction the benchmark itself issued through
/// the facade (preload, its own driver, visibility probes), judged by the
/// program's `HistoryChecker`.
///
/// The facade does not reveal transaction ids, which the checker's
/// atomicity rule joins on; the ids are learned from the reads instead —
/// a returned version carries its writer's id, and `(key, commit time)`
/// says which recorded transaction that writer was. A writer nobody read
/// gets a placeholder id, which is harmless: atomicity only concerns
/// observed writers.
#[derive(Default)]
pub struct History {
    txs: Vec<Observed>,
    writer_of: HashMap<(Key, Timestamp), usize>,
    learned: HashMap<usize, TxId>,
}

impl History {
    pub fn record(
        &mut self,
        client: ClientId,
        snapshot: Timestamp,
        reads: Vec<ClientRead>,
        writes: &[(Key, Value)],
        ct: Timestamp,
    ) {
        for version in reads.iter().filter_map(|r| r.version.as_ref()) {
            if let Some(&writer) = self.writer_of.get(&(version.key, version.ut)) {
                self.learned.insert(writer, version.tx);
            }
        }
        let index = self.txs.len();
        let writes: Vec<Key> = writes.iter().map(|(k, _)| *k).collect();
        if ct != Timestamp::ZERO {
            for key in &writes {
                self.writer_of.insert((*key, ct), index);
            }
        }
        self.txs.push(Observed {
            client,
            snapshot,
            reads: reads.iter().map(HistoryChecker::recorded_read).collect(),
            writes,
            ct,
        });
    }

    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Runs the checker over everything recorded.
    pub fn violations(&self) -> Vec<String> {
        let mut checker = HistoryChecker::new();
        for (index, tx) in self.txs.iter().enumerate() {
            let id = self.learned.get(&index).copied().unwrap_or_else(|| {
                // Outside every real id: no deployment has this server.
                TxId::new(
                    ServerId::new(DcId(u16::MAX), PartitionId(u32::MAX)),
                    index as u64,
                )
            });
            if tx.ct != Timestamp::ZERO {
                let order = VersionOrd {
                    ut: tx.ct,
                    tx: id,
                    src: tx.client.dc,
                };
                for key in &tx.writes {
                    checker.record_versions(*key, [order]);
                }
            }
            checker.record_tx(
                tx.client,
                RecordedTx {
                    tx: id,
                    snapshot: tx.snapshot,
                    reads: tx.reads.clone(),
                    writes: tx.writes.clone(),
                    ct: Some(tx.ct),
                },
            );
        }
        checker.check().iter().map(ToString::to_string).collect()
    }
}

// ---------------------------------------------------------------------
// The hand-pumped form: servers, sessions, codec, coalescer, virtual clock
// ---------------------------------------------------------------------

/// The virtual clock every pumped server reads.
#[derive(Clone)]
pub struct VirtualClock(SimClock);

impl VirtualClock {
    pub fn starting_at(micros: u64) -> VirtualClock {
        let clock = SimClock::new();
        clock.advance_to(micros);
        VirtualClock(clock)
    }

    pub fn advance_to(&self, micros: u64) {
        self.0.advance_to(micros);
    }
}

/// One server state machine, pumped by hand.
pub struct Node(Server);

impl Node {
    /// # Errors
    ///
    /// The durable directory could not be opened.
    pub fn new(
        shape: &Shape,
        id: ServerId,
        clock: &VirtualClock,
        durable_dir: Option<PathBuf>,
    ) -> Result<Node, Error> {
        let tuning = ServerTuning {
            durable: durable_dir.map(DurableConfig::new),
            ..ServerTuning::default()
        };
        Server::try_with_tuning(
            ServerOptions {
                id,
                topology: Arc::clone(&shape.topo),
                clock: Box::new(clock.0.clone()),
                mode: Mode::Paris,
                record_events: false,
            },
            tuning,
        )
        .map(Node)
    }

    pub fn handle(&mut self, env: &Envelope, now: u64) -> Vec<Envelope> {
        self.0.handle(env, now)
    }

    pub fn tick_replicate(&mut self, now: u64) -> Vec<Envelope> {
        self.0.on_replicate_tick(now)
    }

    pub fn tick_gst(&mut self, now: u64) -> Vec<Envelope> {
        self.0.on_gst_tick(now)
    }

    pub fn tick_ust(&mut self, now: u64) -> Vec<Envelope> {
        self.0.on_ust_tick(now)
    }

    pub fn tick_gc(&mut self, now: u64) {
        self.0.on_gc_tick(now);
    }

    pub fn ust(&self) -> Timestamp {
        self.0.ust()
    }
}

/// One client session state machine, pumped by hand.
pub struct Session(ClientSession);

impl Session {
    pub fn new(shape: &Shape, id: ClientId) -> Session {
        Session(ClientSession::new(
            id,
            shape.coordinator_for(id.dc, id.seq),
            Mode::Paris,
        ))
    }

    pub fn begin(&mut self) -> Result<Envelope, Error> {
        self.0.begin()
    }

    pub fn read(&mut self, keys: &[Key]) -> Result<ReadStep, Error> {
        self.0.read(keys)
    }

    pub fn write(&mut self, entries: &[(Key, Value)]) -> Result<(), Error> {
        self.0.write(entries)
    }

    pub fn commit(&mut self) -> Result<Envelope, Error> {
        self.0.commit()
    }

    pub fn handle(&mut self, env: &Envelope) -> Option<ClientEvent> {
        self.0.handle(env)
    }
}

/// The default wire codec, as the socket substrate applies it per frame.
pub struct Codec(WireFormat);

impl Codec {
    pub fn of(shape: &Shape) -> Codec {
        Codec(shape.wire())
    }

    pub fn encode(&self, env: &Envelope) -> impl std::ops::Deref<Target = [u8]> {
        wire::encode_envelope_with(env, self.0)
    }

    pub fn decode(&self, bytes: &[u8]) -> Envelope {
        wire::decode_envelope_auto(bytes).expect("the codec decodes what it encoded")
    }

    pub fn encoded_len(&self, env: &Envelope) -> usize {
        wire::envelope_len_with(env, self.0)
    }
}

/// The background-traffic coalescer under the default batching policy.
pub struct Batcher(Coalescer);

impl Batcher {
    pub fn of(shape: &Shape) -> Batcher {
        Batcher(Coalescer::new(shape.batch(), shape.wire()))
    }

    /// Offers one envelope; returns what must be sent now (the envelope
    /// itself for foreground traffic, a size-triggered flush, or nothing).
    pub fn offer(&mut self, env: Envelope, now: u64) -> Vec<Envelope> {
        match self.0.offer(env, now) {
            Offer::Pass(env) => vec![env],
            Offer::Flush(flushed) => flushed,
            Offer::Queued { .. } => Vec::new(),
        }
    }

    /// Flushes the links whose deadline has passed.
    pub fn poll(&mut self, now: u64) -> Vec<Envelope> {
        self.0.poll(now)
    }

    /// `(logical frames queued, wire messages flushed)`.
    pub fn frames_and_messages(&self) -> (u64, u64) {
        let s = self.0.stats();
        (s.frames_in, s.messages_out)
    }
}

// ---------------------------------------------------------------------
// Direct layer calls: engines, router, socket framing, HLC
// ---------------------------------------------------------------------

/// One applied version, as replication carries it.
#[derive(Clone)]
pub struct AppliedVersion {
    pub key: Key,
    pub value: Value,
    pub ct: Timestamp,
    pub tx: TxId,
    pub src: DcId,
}

/// The versions a replication frame makes its receiver apply.
pub fn replicated_versions(msg: &Msg) -> Vec<AppliedVersion> {
    let (Msg::Replicate { txs, .. } | Msg::ReplicateBatch { txs, .. }) = msg else {
        return Vec::new();
    };
    txs.iter()
        .flat_map(|t| {
            t.writes.iter().map(|w| AppliedVersion {
                key: w.key,
                value: w.value.clone(),
                ct: t.ct,
                tx: t.tx,
                src: t.src,
            })
        })
        .collect()
}

/// Disk activity of a durable store since it was opened.
pub struct DiskStats {
    pub wal_bytes: u64,
    pub wal_records: u64,
    pub checkpoint_bytes: u64,
}

/// A storage engine used directly, outside any server.
pub struct Store(Box<dyn Engine>);

impl Store {
    pub fn in_memory() -> Store {
        Store(Box::new(MemEngine::with_shards(DEFAULT_SHARDS)))
    }

    /// Opens (or recovers) the durable engine in `dir`: `FsyncPolicy::Never`,
    /// default checkpoint interval.
    ///
    /// # Errors
    ///
    /// The directory could not be opened or recovered.
    pub fn durable(dir: &Path) -> Result<Store, Error> {
        let (engine, _recovered) = DurableEngine::open(DurableConfig::new(dir), DEFAULT_SHARDS)
            .map_err(|e| Error::Storage(e.to_string()))?;
        Ok(Store(Box::new(engine)))
    }

    pub fn apply(&self, v: &AppliedVersion) -> bool {
        self.0.apply(v.key, v.value.clone(), v.ct, v.tx, v.src)
    }

    pub fn read_at(&self, key: Key, snapshot: Timestamp) -> bool {
        self.0.read_at(key, snapshot).is_some()
    }

    pub fn gc(&self, horizon: Timestamp) -> usize {
        self.0.gc(horizon)
    }

    pub fn checkpoint(&self, ust: Timestamp, now_micros: u64) -> bool {
        self.0.maybe_checkpoint(ust, now_micros)
    }

    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.0.durable_stats().map(|s| DiskStats {
            wal_bytes: s.wal_bytes,
            wal_records: s.wal_records,
            checkpoint_bytes: s.checkpoint_bytes,
        })
    }
}

/// A small foreground envelope between two servers of DC 0.
fn ping(from: u32, to: u32) -> Envelope {
    Envelope::new(
        ServerId::new(DcId(0), PartitionId(from)),
        ServerId::new(DcId(0), PartitionId(to)),
        Msg::CommitTx {
            tx: TxId::new(ServerId::new(DcId(0), PartitionId(from)), 1),
            ct: Timestamp::from_physical_micros(1_000_000),
        },
    )
}

/// One-way times, in nanoseconds, of `hops` intra-DC hops through the
/// threaded router (send → delay wheel → destination inbox), alternating
/// direction between two registered endpoints.
pub fn router_hops(hops: usize) -> Vec<u64> {
    let router = Router::start(ThreadedNetConfig {
        matrix: RegionMatrix::uniform(1, 0),
        scale: 0.01,
        jitter: 0.0,
        seed: 0,
        batch: BatchConfig::DISABLED,
        wire: WireFormat::default(),
    });
    let inbox = [
        router.register(ServerId::new(DcId(0), PartitionId(0))),
        router.register(ServerId::new(DcId(0), PartitionId(1))),
    ];
    let net = router.handle();
    let mut out = Vec::with_capacity(hops);
    for i in 0..hops {
        let (from, to) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
        let start = Instant::now();
        net.send(ping(from, to));
        inbox[to as usize]
            .recv_timeout(Duration::from_secs(5))
            .expect("the router delivers to a registered endpoint");
        out.push(start.elapsed().as_nanos() as u64);
    }
    out
}

/// One-way times, in nanoseconds (half the round trip), of `hops` envelope
/// echoes over a loopback `TcpStream` through the socket substrate's
/// framing, `TCP_NODELAY` on both ends as the substrate sets it.
///
/// # Errors
///
/// Loopback sockets could not be set up, or the echo failed.
pub fn socket_hops(hops: usize) -> Result<Vec<u64>, Error> {
    let io = |_| Error::Transport("loopback echo failed");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let echo = std::thread::spawn(move || -> Result<(), Error> {
        let (stream, _) = listener.accept().map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let mut writer = stream.try_clone().map_err(io)?;
        let mut reader = BufReader::new(stream);
        while let framing::FrameRead::Frame(payload) = framing::read_frame(&mut reader)? {
            framing::write_frame(&mut writer, &payload)?;
        }
        Ok(())
    });
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut writer = stream.try_clone().map_err(io)?;
    let mut reader = BufReader::new(stream);
    let env = ping(0, 1);
    let mut out = Vec::with_capacity(hops);
    for _ in 0..hops {
        let start = Instant::now();
        framing::write_envelope(&mut writer, &env, WireFormat::default())?;
        let framing::FrameRead::Frame(payload) = framing::read_frame(&mut reader)? else {
            return Err(Error::Transport("loopback echo closed early"));
        };
        framing::decode_envelope_frame(&payload)?;
        out.push(start.elapsed().as_nanos() as u64 / 2);
    }
    writer.flush().map_err(io)?;
    drop(writer);
    drop(reader); // closes the connection: the echo thread sees EOF
    echo.join()
        .map_err(|_| Error::Transport("echo thread panicked"))??;
    Ok(out)
}

/// Mean nanoseconds of one `Hlc::now` over `iters` calls, reading the
/// physical clock the substrate's servers read.
pub fn hlc_now_ns(substrate: Substrate, iters: u32) -> f64 {
    let mut hlc = Hlc::new();
    let start = Instant::now();
    match substrate {
        Substrate::Socket => {
            let clock = WallClock::new();
            for _ in 0..iters {
                std::hint::black_box(hlc.now(&clock));
            }
        }
        Substrate::Thread | Substrate::Mini => {
            let clock = SystemClock::new();
            for _ in 0..iters {
                std::hint::black_box(hlc.now(&clock));
            }
        }
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}
