//! The fluent entry point: [`Paris::builder`] → [`ClusterBuilder`] → any
//! backend, all behind the one [`Cluster`] trait.
//!
//! ```
//! use paris_runtime::{Backend, Paris};
//! use paris_types::Mode;
//!
//! let mut cluster = Paris::builder()
//!     .dcs(3)
//!     .partitions(6)
//!     .replication(2)
//!     .mode(Mode::Paris)
//!     .backend(Backend::Mini)
//!     .build()?;
//! let report = cluster.run_workload(50_000, 200_000)?;
//! assert!(report.violations.is_empty());
//! # Ok::<(), paris_types::Error>(())
//! ```

use paris_net::sim::{RegionMatrix, ServiceModel};
use paris_net::threaded::ThreadedNetConfig;
use paris_types::{BatchConfig, ClusterConfig, ConfigError, Error, FaultPlan, Intervals, Mode};
use paris_workload::WorkloadConfig;

use crate::mini_cluster::MiniCluster;
use crate::sim_cluster::{SimCluster, SimConfig};
use crate::socket_cluster::SocketCluster;
use crate::thread_cluster::ThreadCluster;
use crate::tuning::Durability;
use crate::{BackendConfig, Cluster};

/// The substrate a deployment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Synchronous in-process pump: zero latency, fully deterministic,
    /// cheapest. The default.
    #[default]
    Mini,
    /// Deterministic discrete-event simulation: WAN latency matrix, CPU
    /// service model, fault injection — the paper's figures run here.
    Sim,
    /// Real threads over an in-process transport: one thread per server,
    /// genuine concurrency and races.
    Thread,
    /// Real **processes** over loopback TCP: one OS process per server
    /// speaking length-prefixed protocol frames — the paper's
    /// one-machine-per-server deployment shape on a single host.
    /// Requires the `paris-server` binary next to the current executable
    /// (or `PARIS_SERVER_BIN`); WAN latency knobs are ignored (loopback
    /// is the network).
    Socket,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Mini => write!(f, "mini"),
            Backend::Sim => write!(f, "sim"),
            Backend::Thread => write!(f, "thread"),
            Backend::Socket => write!(f, "socket"),
        }
    }
}

/// Namespace for the facade's entry point.
pub struct Paris;

impl Paris {
    /// Starts building a deployment with the paper's default shape
    /// (5 DCs × 45 partitions, R = 2) on the [`Backend::Mini`] substrate.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Latency {
    /// Measured AWS inter-region RTTs (the paper's testbed).
    Aws,
    /// Uniform one-way latency in microseconds.
    UniformMicros(u64),
}

/// Fluent configuration of a PaRiS deployment on any backend.
///
/// Shape knobs mirror [`ClusterConfig`]; load and substrate knobs cover
/// what the runtimes need. `build` validates everything and returns the
/// backend behind a `Box<dyn Cluster>`; `build_mini`/`build_sim`/
/// `build_thread` return the concrete type when backend-specific powers
/// (fault injection, figure reports) are needed.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    backend: Backend,
    // Shape.
    dcs: u16,
    partitions: u32,
    replication: u16,
    keys_per_partition: u64,
    value_size: usize,
    mode: Mode,
    intervals: Intervals,
    max_clock_skew_micros: u64,
    batching: bool,
    // Load.
    clients_per_dc: u32,
    workload: WorkloadConfig,
    seed: u64,
    // Substrate.
    latency: Latency,
    jitter: f64,
    latency_scale: f64,
    service: ServiceModel,
    record_events: bool,
    record_history: bool,
    stab_branching: usize,
    durability: Option<Durability>,
    fault_plan: Option<FaultPlan>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder::new()
    }
}

impl ClusterBuilder {
    /// A builder seeded with the paper's default deployment on the mini
    /// backend.
    pub fn new() -> Self {
        ClusterBuilder {
            backend: Backend::Mini,
            dcs: 5,
            partitions: 45,
            replication: 2,
            keys_per_partition: 1_000,
            value_size: 8,
            mode: Mode::Paris,
            intervals: Intervals::default(),
            max_clock_skew_micros: 500,
            batching: true,
            clients_per_dc: 4,
            workload: WorkloadConfig::read_heavy(),
            seed: 42,
            latency: Latency::Aws,
            jitter: 0.05,
            latency_scale: 0.01,
            service: ServiceModel::default(),
            record_events: false,
            record_history: false,
            stab_branching: 0,
            durability: None,
            fault_plan: None,
        }
    }

    /// Selects the substrate [`build`](Self::build) constructs.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Number of data centers `M`.
    pub fn dcs(mut self, dcs: u16) -> Self {
        self.dcs = dcs;
        self
    }

    /// Number of partitions `N`.
    pub fn partitions(mut self, partitions: u32) -> Self {
        self.partitions = partitions;
        self
    }

    /// Replication factor `R` (paper default: 2).
    pub fn replication(mut self, r: u16) -> Self {
        self.replication = r;
        self
    }

    /// Keys per partition in the keyspace (also applied to the workload).
    pub fn keys_per_partition(mut self, keys: u64) -> Self {
        self.keys_per_partition = keys;
        self
    }

    /// Payload size of written values, in bytes (paper: 8).
    pub fn value_size(mut self, bytes: usize) -> Self {
        self.value_size = bytes;
        self
    }

    /// Protocol variant: PaRiS or the blocking BPR baseline.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Background protocol periods (∆R/∆G/∆U/GC).
    pub fn intervals(mut self, intervals: Intervals) -> Self {
        self.intervals = intervals;
        self
    }

    /// Maximum injected physical-clock skew, in microseconds.
    pub fn max_clock_skew_micros(mut self, micros: u64) -> Self {
        self.max_clock_skew_micros = micros;
        self
    }

    /// Disables background-traffic batching: every replication and
    /// gossip frame ships as its own wire message and stabilisation runs
    /// on the ∆G/∆U ticks alone — the paper's one-frame-per-tick
    /// behaviour. Batching is **on by default** on every backend: a link
    /// releases when the stable time it carries crosses a multiple of
    /// `Q = 3·∆R` (ceiling `6·∆R`, size trigger
    /// [`BatchConfig::DEFAULT_MAX_BATCH`] frames), derived from the final
    /// intervals by [`BatchConfig::default_for`].
    pub fn no_batching(mut self) -> Self {
        self.batching = false;
        self
    }

    /// Closed-loop client sessions per DC for
    /// [`Cluster::run_workload`](crate::Cluster::run_workload).
    pub fn clients_per_dc(mut self, clients: u32) -> Self {
        self.clients_per_dc = clients;
        self
    }

    /// Workload shape (read/write mix, locality, zipf exponent). The
    /// keyspace size is taken from [`keys_per_partition`](Self::keys_per_partition).
    pub fn workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// Master RNG seed: same seed ⇒ identical run on deterministic
    /// backends.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses the measured AWS inter-region latency matrix (default).
    pub fn aws_latencies(mut self) -> Self {
        self.latency = Latency::Aws;
        self
    }

    /// Uses a uniform one-way WAN latency instead of the AWS matrix.
    pub fn uniform_latency_micros(mut self, micros: u64) -> Self {
        self.latency = Latency::UniformMicros(micros);
        self
    }

    /// Network jitter fraction in `[0, 1)`.
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Multiplier the threaded backend applies to WAN latencies (default
    /// 0.01: a 70 ms RTT becomes 0.7 ms so tests run fast).
    pub fn latency_scale(mut self, scale: f64) -> Self {
        self.latency_scale = scale;
        self
    }

    /// Per-message CPU cost model of the simulated backend (the mini and
    /// thread backends have no CPU model and ignore it).
    pub fn service(mut self, service: ServiceModel) -> Self {
        self.service = service;
        self
    }

    /// Records server event logs (update-visibility latency, Fig. 4).
    /// Sim backend only: `build_mini`/`build_thread`/`build_socket`
    /// reject it.
    pub fn record_events(mut self, on: bool) -> Self {
        self.record_events = on;
        self
    }

    /// Records client histories and runs the consistency checker after
    /// workloads.
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Stabilization-tree branching factor (0 = flat tree, the default).
    /// Sim backend only: `build_mini`/`build_thread`/`build_socket`
    /// reject non-zero values.
    pub fn stab_branching(mut self, branching: usize) -> Self {
        self.stab_branching = branching;
        self
    }

    /// Turns on the durable storage engine: every server writes its
    /// committed versions to a write-ahead log and periodic stable-prefix
    /// checkpoints under `durability`'s base directory (one
    /// `dc{d}-p{p}` subdirectory per server), and a restarted server
    /// recovers its state from them. Off by default — the in-memory
    /// engine — and honored by all four backends; the socket backend
    /// additionally supports [`Cluster::restart_server`] when this is on.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Installs a scripted [`FaultPlan`]: timed DC crashes, link
    /// partitions/slowdowns and clock-skew steps, applied automatically
    /// once the cluster is built. Validated against the deployment shape
    /// at build time; supported by the sim backend (virtual time,
    /// bit-reproducible per seed) and the thread backend (wall-clock
    /// time at the router). `build_mini`/`build_socket` reject it.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    fn cluster_config(&self) -> Result<ClusterConfig, Error> {
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(ConfigError::new("jitter must be in [0, 1)").into());
        }
        if !self.latency_scale.is_finite() || self.latency_scale <= 0.0 {
            return Err(ConfigError::new("latency scale must be positive").into());
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.dcs)?;
        }
        let mut cfg = ClusterConfig::builder()
            .dcs(self.dcs)
            .partitions(self.partitions)
            .replication_factor(self.replication)
            .keys_per_partition(self.keys_per_partition)
            .value_size(self.value_size)
            .intervals(self.intervals)
            .mode(self.mode)
            .max_clock_skew_micros(self.max_clock_skew_micros);
        // Left unset, the batch policy is derived from the final intervals.
        if !self.batching {
            cfg = cfg.batch(BatchConfig::DISABLED);
        }
        let cfg = cfg.build()?;
        if cfg.servers_per_dc() == 0 {
            return Err(ConfigError::new(
                "shape leaves some DC without servers (partitions × R < DCs)",
            )
            .into());
        }
        Ok(cfg)
    }

    fn matrix(&self) -> RegionMatrix {
        match self.latency {
            Latency::Aws => RegionMatrix::aws_10(self.dcs),
            Latency::UniformMicros(one_way) => RegionMatrix::uniform(self.dcs, one_way),
        }
    }

    /// Rejects the options only the sim backend has.
    fn reject_sim_only_options(&self) -> Result<(), Error> {
        if self.record_events {
            return Err(Error::Unsupported(
                "event recording (visibility latency) needs the sim backend",
            ));
        }
        if self.stab_branching != 0 {
            return Err(Error::Unsupported(
                "stabilization-tree branching needs the sim backend",
            ));
        }
        Ok(())
    }

    /// The configuration of a mini, thread or socket deployment.
    fn backend_config(&self) -> Result<BackendConfig, Error> {
        Ok(BackendConfig {
            cluster: self.cluster_config()?,
            clients_per_dc: self.clients_per_dc,
            workload: self.workload_config(),
            seed: self.seed,
            record_history: self.record_history,
            durability: self.durability.clone(),
        })
    }

    fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig {
            keys_per_partition: self.keys_per_partition,
            value_size: self.value_size,
            ..self.workload.clone()
        }
    }

    /// Builds the selected backend behind the [`Cluster`] trait.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid shapes or substrate
    /// parameters.
    pub fn build(self) -> Result<Box<dyn Cluster>, Error> {
        Ok(match self.backend {
            Backend::Mini => Box::new(self.build_mini()?),
            Backend::Sim => Box::new(self.build_sim()?),
            Backend::Thread => Box::new(self.build_thread()?),
            Backend::Socket => Box::new(self.build_socket()?),
        })
    }

    /// Builds the concrete [`MiniCluster`] backend.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid shapes.
    pub fn build_mini(self) -> Result<MiniCluster, Error> {
        self.reject_sim_only_options()?;
        if self.fault_plan.is_some() {
            return Err(Error::Unsupported(
                "fault plans need a backend with a controllable network (sim or thread)",
            ));
        }
        MiniCluster::from_parts(self.backend_config()?)
    }

    /// Builds the concrete [`SimCluster`] backend (fault injection,
    /// figure-grade reports).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid shapes.
    pub fn build_sim(self) -> Result<SimCluster, Error> {
        let cluster = self.cluster_config()?;
        let workload = self.workload_config();
        SimCluster::new(SimConfig {
            matrix: self.matrix(),
            cluster,
            jitter: self.jitter,
            service: self.service,
            seed: self.seed,
            clients_per_dc: self.clients_per_dc,
            workload,
            record_events: self.record_events,
            record_history: self.record_history,
            stab_branching: self.stab_branching,
            durability: self.durability,
            fault_plan: self.fault_plan,
        })
    }

    /// Builds the concrete [`ThreadCluster`] backend.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid shapes.
    pub fn build_thread(self) -> Result<ThreadCluster, Error> {
        self.reject_sim_only_options()?;
        let config = self.backend_config()?;
        let net = ThreadedNetConfig {
            matrix: self.matrix(),
            scale: self.latency_scale,
            jitter: self.jitter,
            seed: self.seed,
            batch: config.cluster.batch,
            wire: config.cluster.wire,
        };
        let mut cluster = ThreadCluster::start(config, net)?;
        if let Some(plan) = self.fault_plan {
            cluster.install_fault_plan(plan)?;
        }
        Ok(cluster)
    }

    /// Builds the concrete [`SocketCluster`] backend: one child process
    /// per server over loopback TCP.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid shapes, and
    /// [`Error::Transport`]/[`Error::Unsupported`] when the child
    /// processes cannot be spawned (missing `paris-server` binary,
    /// bring-up timeout).
    pub fn build_socket(self) -> Result<SocketCluster, Error> {
        self.reject_sim_only_options()?;
        if self.fault_plan.is_some() {
            return Err(Error::Unsupported(
                "fault plans need a backend with a controllable network (sim or thread); \
                 the socket backend injects faults via kill_server/restart_server",
            ));
        }
        SocketCluster::start(self.backend_config()?)
    }
}
