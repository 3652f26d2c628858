//! Microbenchmarks of the PaRiS building blocks: storage, clocks, wire
//! codec, workload generation and the end-to-end protocol path. These
//! quantify the per-operation costs that the paper's "resource
//! efficiency" claims rest on (single-timestamp metadata makes most
//! operations O(1) in M and N).
//!
//! Runs under `cargo bench` with the in-file harness below (`harness =
//! false`; the registry criterion crate is unavailable offline).

use harness::{black_box, BenchmarkId, Criterion};
use paris_clock::{Hlc, PhysicalClock, SimClock};
use paris_core::{ClientSession, Mode, Server, ServerOptions, Topology};
use paris_proto::{wire, Envelope, Msg};
use paris_storage::PartitionStore;
use paris_types::{
    ClientId, ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value,
    WriteSetEntry,
};
use paris_workload::stats::Histogram;
use paris_workload::Zipfian;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn bench_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage");
    let tx = TxId::new(ServerId::new(DcId(0), PartitionId(0)), 1);

    g.bench_function("apply", |b| {
        let store = PartitionStore::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            store.apply(
                Key(t % 1_000),
                Value::filled(8, t),
                Timestamp::from_physical_micros(t),
                tx,
                DcId(0),
            )
        });
    });

    for chain_len in [1usize, 16, 256] {
        let store = PartitionStore::new();
        for i in 0..chain_len as u64 {
            store.apply(
                Key(7),
                Value::filled(8, i),
                Timestamp::from_physical_micros(i * 10),
                TxId::new(ServerId::new(DcId(0), PartitionId(0)), i),
                DcId(0),
            );
        }
        g.bench_with_input(
            BenchmarkId::new("read_at_mid_chain", chain_len),
            &chain_len,
            |b, &n| {
                let snap = Timestamp::from_physical_micros(n as u64 * 5);
                b.iter(|| black_box(store.read_at(Key(7), snap)));
            },
        );
    }
    g.finish();
}

fn bench_clock(c: &mut Criterion) {
    let mut g = c.benchmark_group("clock");
    g.bench_function("hlc_now", |b| {
        let clock = SimClock::new();
        clock.advance_to(1_000_000);
        let mut hlc = Hlc::new();
        b.iter(|| black_box(hlc.now(&clock)));
    });
    g.bench_function("hlc_observe", |b| {
        let clock = SimClock::new();
        let mut hlc = Hlc::new();
        let ts = Timestamp::from_parts(123, 4);
        b.iter(|| hlc.observe(&clock, black_box(ts)));
    });
    g.bench_function("sim_clock_read", |b| {
        let clock = SimClock::new();
        b.iter(|| black_box(clock.now_micros()));
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let tx = TxId::new(ServerId::new(DcId(0), PartitionId(0)), 1);
    let prepare = Msg::PrepareReq {
        tx,
        snapshot: Timestamp::from_parts(10, 0),
        ht: Timestamp::from_parts(11, 0),
        writes: (0..5)
            .map(|i| WriteSetEntry::new(Key(i), Value::filled(8, i)))
            .collect(),
        reply_to: ServerId::new(DcId(1), PartitionId(2)),
        src_dc: DcId(0),
    };
    g.bench_function("encode_prepare", |b| {
        b.iter(|| black_box(wire::encode(black_box(&prepare))))
    });
    let bytes = wire::encode(&prepare);
    g.bench_function("decode_prepare", |b| {
        b.iter(|| black_box(wire::decode(black_box(&bytes)).unwrap()))
    });
    g.bench_function("encoded_len_prepare", |b| {
        b.iter(|| black_box(wire::encoded_len(black_box(&prepare))))
    });
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.bench_function("zipf_sample", |b| {
        let zipf = Zipfian::new(100_000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });
    g.bench_function("histogram_record", |b| {
        let mut h = Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(v % 1_000_000);
        });
    });
    g.finish();
}

/// The full server fast path: start, slice read, prepare, commit — the
/// per-transaction server-side cost with everything in memory.
fn bench_server_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("server");
    let cfg = ClusterConfig::builder()
        .dcs(3)
        .partitions(3)
        .replication_factor(2)
        .build()
        .unwrap();
    let topo = Arc::new(Topology::new(cfg));
    let clock = SimClock::new();
    clock.advance_to(1_000_000);
    let sid = ServerId::new(DcId(0), PartitionId(0));
    let client = ClientId::new(DcId(0), 0);

    g.bench_function("start_tx", |b| {
        let mut server = Server::new(ServerOptions {
            id: sid,
            topology: Arc::clone(&topo),
            clock: Box::new(clock.clone()),
            mode: Mode::Paris,
            record_events: false,
        });
        let env = Envelope::new(
            client,
            sid,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        );
        b.iter(|| black_box(server.handle(&env, 0)));
    });

    g.bench_function("read_slice_5_keys", |b| {
        let mut server = Server::new(ServerOptions {
            id: sid,
            topology: Arc::clone(&topo),
            clock: Box::new(clock.clone()),
            mode: Mode::Paris,
            record_events: false,
        });
        let tx = TxId::new(sid, 1);
        for i in 0..100u64 {
            server.handle(
                &Envelope::new(
                    ServerId::new(DcId(1), PartitionId(0)),
                    sid,
                    Msg::Replicate {
                        partition: PartitionId(0),
                        txs: vec![paris_proto::ReplicatedTx {
                            tx: TxId::new(ServerId::new(DcId(1), PartitionId(0)), i),
                            ct: Timestamp::from_physical_micros(i * 10),
                            src: DcId(1),
                            writes: vec![WriteSetEntry::new(Key(i * 3 % 30), Value::filled(8, i))],
                        }],
                        watermark: Timestamp::from_physical_micros(i * 10),
                    },
                ),
                0,
            );
        }
        let env = Envelope::new(
            sid,
            sid,
            Msg::ReadSliceReq {
                tx,
                snapshot: Timestamp::from_physical_micros(500),
                keys: [0, 3, 6, 9, 12].map(|k| Key(k).into()).to_vec(),
                reply_to: sid,
            },
        );
        b.iter(|| black_box(server.handle(&env, 0)));
    });
    g.finish();
}

/// One complete client transaction against a hand-pumped server pair —
/// the end-to-end protocol cost without any network.
fn bench_end_to_end(c: &mut Criterion) {
    let cfg = ClusterConfig::builder()
        .dcs(3)
        .partitions(3)
        .replication_factor(2)
        .build()
        .unwrap();
    let topo = Arc::new(Topology::new(cfg));
    let clock = SimClock::new();
    clock.advance_to(1_000_000);
    let mut servers: std::collections::HashMap<ServerId, Server> = topo
        .all_servers()
        .into_iter()
        .map(|id| {
            (
                id,
                Server::new(ServerOptions {
                    id,
                    topology: Arc::clone(&topo),
                    clock: Box::new(clock.clone()),
                    mode: Mode::Paris,
                    record_events: false,
                }),
            )
        })
        .collect();
    let cid = ClientId::new(DcId(0), 0);
    let coord = topo.coordinator_for(DcId(0), 0);
    let mut session = ClientSession::new(cid, coord, Mode::Paris);

    c.bench_function("end_to_end_write_tx", |b| {
        b.iter(|| {
            let mut queue: Vec<Envelope> = vec![session.begin().unwrap()];
            let mut result = None;
            while let Some(env) = queue.pop() {
                match env.dst {
                    paris_proto::Endpoint::Server(sid) => {
                        queue.extend(servers.get_mut(&sid).unwrap().handle(&env, 0));
                    }
                    paris_proto::Endpoint::Client(_) => {
                        if let Some(ev) = session.handle(&env) {
                            match ev {
                                paris_core::ClientEvent::Started { .. } => {
                                    session.write(&[(Key(0), Value::filled(8, 1))]).unwrap();
                                    queue.push(session.commit().unwrap());
                                }
                                paris_core::ClientEvent::Committed { ct, .. } => {
                                    result = Some(ct);
                                }
                                paris_core::ClientEvent::ReadDone { .. }
                                | paris_core::ClientEvent::Aborted { .. } => {}
                            }
                        }
                    }
                }
            }
            black_box(result)
        });
    });
}

fn main() {
    let mut c = Criterion::new();
    bench_storage(&mut c);
    bench_clock(&mut c);
    bench_wire(&mut c);
    bench_workload(&mut c);
    bench_server_paths(&mut c);
    bench_end_to_end(&mut c);
}

/// A minimal stand-in for the criterion API surface used above: enough to
/// time each closure and print a ns/iter line per benchmark.
mod harness {
    use std::fmt::Display;
    use std::time::{Duration, Instant};

    pub use std::hint::black_box;

    const WARMUP: Duration = Duration::from_millis(30);
    const MEASURE: Duration = Duration::from_millis(200);

    pub struct Criterion {
        _priv: (),
    }

    impl Criterion {
        pub fn new() -> Self {
            Criterion { _priv: () }
        }

        pub fn benchmark_group(&mut self, name: &str) -> Group {
            Group {
                name: name.to_string(),
            }
        }

        pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
            run_one(name, &mut f);
        }
    }

    pub struct Group {
        name: String,
    }

    impl Group {
        pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
            run_one(&format!("{}/{}", self.name, name), &mut f);
        }

        pub fn bench_with_input<I>(
            &mut self,
            id: BenchmarkId,
            input: &I,
            mut f: impl FnMut(&mut Bencher, &I),
        ) {
            run_one(&format!("{}/{}", self.name, id.0), &mut |b| f(b, input));
        }

        pub fn finish(self) {}
    }

    pub struct BenchmarkId(pub(super) String);

    impl BenchmarkId {
        pub fn new(name: &str, param: impl Display) -> Self {
            BenchmarkId(format!("{name}/{param}"))
        }
    }

    pub struct Bencher {
        iters: u64,
        elapsed: Duration,
        measuring: bool,
    }

    impl Bencher {
        pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
            let budget = if self.measuring { MEASURE } else { WARMUP };
            let start = Instant::now();
            let mut iters = 0u64;
            loop {
                black_box(f());
                iters += 1;
                // Amortize the clock read over batches of iterations.
                if iters.is_multiple_of(64) && start.elapsed() >= budget {
                    break;
                }
            }
            self.iters = iters;
            self.elapsed = start.elapsed();
        }
    }

    fn run_one(name: &str, f: &mut impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            iters: 0,
            elapsed: Duration::ZERO,
            measuring: false,
        };
        f(&mut b); // warmup
        b.measuring = true;
        f(&mut b);
        let ns_per_iter = b.elapsed.as_nanos() as f64 / b.iters.max(1) as f64;
        println!(
            "{name:<44} {ns_per_iter:>12.1} ns/iter   ({} iters)",
            b.iters
        );
    }
}
