//! The benchmark's own client side, on top of the facade: preload, the
//! one-in-flight transaction driver and the visibility probes. Everything
//! it commits or reads is recorded in a [`History`] for the checker.

use std::time::{Duration, Instant};

use crate::seam::{
    ClientId, DcId, Deployment, Error, History, Key, PartitionId, Shape, Timestamp, TxStream, Value,
};
use crate::trace::Tracer;
use crate::workloads::{Workload, KEYS_PER_PARTITION, PRELOAD_WRITES_PER_TX};

/// A visibility probe that has not seen its value after this long counts
/// as failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long set-up may wait for the UST to cover the preload.
const STABLE_TIMEOUT: Duration = Duration::from_secs(20);

/// The four instants bounding a transaction's three stages: begin, read
/// (all reads in one call), commit (buffering the writes, then commit).
type Stages = [Instant; 4];

/// Runs one transaction through the facade and records it.
fn transaction(
    dep: &mut Deployment,
    history: &mut History,
    client: ClientId,
    read_keys: &[Key],
    writes: &[(Key, Value)],
) -> Result<(Stages, Timestamp), Error> {
    let t0 = Instant::now();
    let snapshot = dep.begin(client)?;
    let t1 = Instant::now();
    let reads = if read_keys.is_empty() {
        Vec::new()
    } else {
        dep.read(client, read_keys)?
    };
    let t2 = Instant::now();
    if !writes.is_empty() {
        dep.write(client, writes)?;
    }
    let ct = dep.commit(client)?;
    let t3 = Instant::now();
    history.record(client, snapshot, reads, writes, ct);
    Ok(([t0, t1, t2, t3], ct))
}

/// The preload: every key of every partition once, `PRELOAD_WRITES_PER_TX`
/// writes per transaction.
pub fn preload_batches(w: &Workload, shape: &Shape) -> Vec<Vec<(Key, Value)>> {
    let keys: Vec<Key> = (0..shape.partitions())
        .flat_map(|p| (0..KEYS_PER_PARTITION).map(move |rank| (PartitionId(p), rank)))
        .map(|(p, rank)| shape.key_at(p, rank))
        .collect();
    keys.chunks(PRELOAD_WRITES_PER_TX)
        .map(|chunk| {
            chunk
                .iter()
                .map(|k| (*k, Value::filled(w.value_size, k.0)))
                .collect()
        })
        .collect()
}

/// Runs the preload from one session in DC 0; returns the last commit time.
pub fn preload(
    dep: &mut Deployment,
    w: &Workload,
    shape: &Shape,
    history: &mut History,
) -> Result<Timestamp, Error> {
    let client = dep.open_client(DcId(0))?;
    let mut last = Timestamp::ZERO;
    for writes in preload_batches(w, shape) {
        last = transaction(dep, history, client, &[], &writes)?.1;
    }
    Ok(last)
}

/// Waits until every server's UST covers `ts`.
pub fn wait_stable(dep: &mut Deployment, ts: Timestamp) -> Result<(), Error> {
    let deadline = Instant::now() + STABLE_TIMEOUT;
    while dep.min_ust() < ts {
        if Instant::now() >= deadline {
            return Err(Error::Transport("the UST never covered the preload"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// One session per DC, each with its seeded transaction stream.
pub struct Sessions {
    clients: Vec<ClientId>,
    streams: Vec<TxStream>,
    next: usize,
}

impl Sessions {
    pub fn open(
        dep: &mut Deployment,
        w: &Workload,
        shape: &Shape,
        seed: u64,
    ) -> Result<Sessions, Error> {
        let mut clients = Vec::new();
        let mut streams = Vec::new();
        for dc in (0..shape.dcs()).map(DcId) {
            clients.push(dep.open_client(dc)?);
            streams.push(TxStream::new(w, shape, seed, dc));
        }
        Ok(Sessions {
            clients,
            streams,
            next: 0,
        })
    }
}

/// What [`drive`] measured.
#[derive(Default)]
pub struct Driven {
    pub committed: u64,
    pub errored: u64,
    /// Begin → commit reply of every committed transaction, nanoseconds.
    pub latency_ns: Vec<f64>,
    pub elapsed: Duration,
}

/// The one-in-flight driver: one thread, the DC sessions in rotation, the
/// next transaction begins when the previous one has its commit reply.
/// With a tracer, every transaction gets a root span and one child span
/// per stage; the stages are contiguous, so they sum to the root.
pub fn drive(
    dep: &mut Deployment,
    sessions: &mut Sessions,
    history: &mut History,
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Driven {
    let mut out = Driven::default();
    let start = Instant::now();
    while start.elapsed() < duration {
        let i = sessions.next % sessions.clients.len();
        sessions.next += 1;
        let client = sessions.clients[i];
        let spec = sessions.streams[i].next_tx();
        match transaction(dep, history, client, &spec.read_keys, &spec.writes) {
            Ok((stages, _)) => {
                out.committed += 1;
                out.latency_ns
                    .push((stages[3] - stages[0]).as_nanos() as f64);
                if let Some(tracer) = tracer.as_deref_mut() {
                    record_stages(tracer, out.committed as u32, &stages);
                }
            }
            Err(_) => {
                out.errored += 1;
                dep.reset_client(client);
            }
        }
    }
    out.elapsed = start.elapsed();
    out
}

/// Span names of the three stages, in order.
pub const STAGES: [&str; 3] = ["begin", "read", "commit"];

fn record_stages(tracer: &mut Tracer, tx: u32, stages: &Stages) {
    let ns = |t: Instant| tracer.ns_of(t);
    let at = [ns(stages[0]), ns(stages[1]), ns(stages[2]), ns(stages[3])];
    let root = tracer.record(0, tx, ("runtime", "live_tx", ""), at[0], at[3]);
    for (i, stage) in STAGES.iter().enumerate() {
        tracer.record(root, tx, ("runtime", "stage", stage), at[i], at[i + 1]);
    }
}

/// What the visibility probes measured.
#[derive(Default)]
pub struct Visibility {
    /// Commit reply → first read that returned the value, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Read-only transactions polled until the value showed.
    pub polls: Vec<f64>,
    pub attempted: u64,
    pub timed_out: u64,
    pub errored: u64,
    /// Probes whose read returned a value other than the one written.
    pub wrong_value: u64,
}

impl Visibility {
    /// Probes that timed out, errored or read a wrong value.
    pub fn failed(&self) -> u64 {
        self.timed_out + self.errored + self.wrong_value
    }

    /// The correctness problem wrong values are, if there were any.
    pub fn wrong_values(&self) -> Option<String> {
        (self.wrong_value > 0).then(|| {
            format!(
                "{} visibility probes read a value other than the one written",
                self.wrong_value
            )
        })
    }
}

/// Update-visibility probes on an otherwise idle system: write a fresh key
/// with a unique value in one replica DC of its partition, then run
/// read-only transactions in another replica DC, back to back, until one
/// returns the value.
pub fn probe_visibility(
    dep: &mut Deployment,
    w: &Workload,
    shape: &Shape,
    history: &mut History,
    count: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Visibility, Error> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for dc in (0..shape.dcs()).map(DcId) {
        writers.push(dep.open_client(dc)?);
        readers.push(dep.open_client(dc)?);
    }
    let mut out = Visibility::default();
    for n in 0..count {
        out.attempted += 1;
        let partition = PartitionId((n % u64::from(shape.partitions())) as u32);
        let replicas = shape.replicas(partition);
        let origin = replicas[(n / u64::from(shape.partitions())) as usize % replicas.len()];
        let Some(&other) = replicas.iter().find(|dc| **dc != origin) else {
            return Err(Error::Unsupported(
                "visibility probes need a replication factor of at least 2",
            ));
        };
        let key = shape.key_at(partition, KEYS_PER_PARTITION + n);
        let mut bytes = vec![0u8; w.value_size.max(8)];
        bytes[..8].copy_from_slice(&(0x5649_5300_0000_0000u64 | n).to_le_bytes());
        let value = Value::from(bytes);
        let writer = writers[origin.index()];
        let reader = readers[other.index()];

        let committed = match transaction(dep, history, writer, &[], &[(key, value.clone())]) {
            Ok((stages, _)) => stages[3],
            Err(_) => {
                out.errored += 1;
                dep.reset_client(writer);
                continue;
            }
        };
        let mut polls = 0u32;
        loop {
            polls += 1;
            let seen = match poll_once(dep, history, reader, key) {
                Ok(seen) => seen,
                Err(_) => {
                    out.errored += 1;
                    dep.reset_client(reader);
                    break;
                }
            };
            let now = Instant::now();
            match seen {
                Some(v) if v == value => {
                    out.latency_ms
                        .push((now - committed).as_secs_f64() * 1_000.0);
                    out.polls.push(f64::from(polls));
                    if let Some(tracer) = tracer.as_deref_mut() {
                        let (start, end) = (tracer.ns_of(committed), tracer.ns_of(now));
                        tracer.record(0, n as u32, ("runtime", "visibility_probe", ""), start, end);
                    }
                    break;
                }
                Some(_) => {
                    out.wrong_value += 1;
                    break;
                }
                None if now - committed > PROBE_TIMEOUT => {
                    out.timed_out += 1;
                    break;
                }
                None => {}
            }
        }
    }
    Ok(out)
}

/// One read-only transaction reading `key`; returns the value it saw.
fn poll_once(
    dep: &mut Deployment,
    history: &mut History,
    reader: ClientId,
    key: Key,
) -> Result<Option<Value>, Error> {
    let snapshot = dep.begin(reader)?;
    let reads = dep.read(reader, &[key])?;
    let seen = reads
        .iter()
        .find(|r| r.key == key)
        .and_then(|r| r.value.clone());
    let ct = dep.commit(reader)?;
    history.record(reader, snapshot, reads, &[], ct);
    Ok(seen)
}
