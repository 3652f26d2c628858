//! The closed-loop workload client of [`crate::Cluster::run_workload`],
//! written once for every backend.
//!
//! A [`WorkloadClient`] runs Alg. 1's transaction — start, reads, buffered
//! writes, commit — over its [`ClientSession`] without doing any I/O: it
//! draws the next [`paris_workload::TxSpec`] from its seeded generator and
//! says which envelopes to send next, or how the transaction ended.
//!
//! The begin is deferred and, once the session's `ust_c` is non-zero,
//! picked at the client: the snapshot is `ust_c`, the read goes out as one
//! `ReadSliceReq` per partition straight to the replicas, and the commit
//! carries the snapshot to the coordinator, whose reply names a fresher
//! UST for the next transaction — which begins at once, so its pick is
//! about one transaction old. The coordinator is off the read path. A
//! session's first transaction — its `ust_c` is still zero — sends its
//! read (or a write-only transaction's commit) in the start form instead,
//! and so does the one retry of a first read a replica refused because
//! its GC had trimmed past the pick ([`ClientEvent::Retry`]). Either way a
//! transaction costs one round trip less than with an eager `StartTxReq`.
//!
//! A backend keeps only its pacing: when the next transaction starts, how
//! a reply reaches the session, and which completions fall inside the
//! measurement window. What finishes goes into one [`Tally`], which
//! builds the [`RunReport`].

use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::{ClientEvent, ClientRead, ClientSession, ReadStep, RecordedRead, Topology};
use paris_proto::{Envelope, ServerSnapshot};
use paris_types::{ClientId, Mode};
use paris_workload::stats::RunStats;
use paris_workload::{TxSpec, WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{ClusterStats, RunReport};

/// One closed-loop client's transaction generator and the transaction it
/// has open. See the module docs.
pub(crate) struct WorkloadClient {
    generator: WorkloadGenerator,
    rng: StdRng,
    open: Option<OpenTx>,
}

/// The transaction in progress: its spec, the reads it completed and when
/// it began.
struct OpenTx {
    spec: TxSpec,
    reads: Vec<RecordedRead>,
    begun: u64,
}

/// What a client does after an event.
pub(crate) enum Step {
    /// Send these envelopes; their replies complete the transaction's
    /// next operation.
    Send(Vec<Envelope>),
    /// The transaction committed `latency` µs after it began.
    Committed { latency: u64, record: RecordedTx },
    /// The transaction aborted; the session is idle again.
    Aborted,
}

impl WorkloadClient {
    /// Client `id`'s generator over `topo`, seeded `seed ^ dc << 32 ^ seq`
    /// so every backend draws the same transactions for it.
    pub(crate) fn new(id: ClientId, topo: &Topology, workload: &WorkloadConfig, seed: u64) -> Self {
        let local = topo.partitions_in_dc(id.dc);
        WorkloadClient {
            generator: WorkloadGenerator::new(workload.clone(), topo.partitions(), local),
            rng: StdRng::seed_from_u64(seed ^ (u64::from(id.dc.0) << 32) ^ u64::from(id.seq)),
            open: None,
        }
    }

    /// Whether a transaction is in progress.
    pub(crate) fn is_busy(&self) -> bool {
        self.open.is_some()
    }

    /// Begins the next transaction at `now` and returns its first
    /// envelopes: the read — one slice per partition at a picked snapshot,
    /// or the start form — or the commit when `session` serves the read
    /// itself, as it does the empty read of a write-only transaction. A
    /// transaction that a failed round trip left open is abandoned first.
    pub(crate) fn start(&mut self, session: &mut ClientSession, now: u64) -> Vec<Envelope> {
        if self.open.take().is_some() {
            session.reset();
        }
        session.begin_deferred().expect("idle session");
        let spec = self.generator.next_tx(&mut self.rng);
        let first = session.read(&spec.read_keys).expect("open tx");
        self.open = Some(OpenTx {
            spec,
            reads: Vec::new(),
            begun: now,
        });
        match first {
            ReadStep::Send(env) => vec![env],
            ReadStep::Slices(slices) => slices,
            ReadStep::Done(local) => vec![self.commit(session, &local)],
        }
    }

    /// Advances the open transaction with the event `session` produced
    /// at `now`.
    pub(crate) fn on_event(
        &mut self,
        session: &mut ClientSession,
        event: ClientEvent,
        now: u64,
    ) -> Step {
        match event {
            ClientEvent::ReadDone { reads, .. } => Step::Send(vec![self.commit(session, &reads)]),
            ClientEvent::Retry(env) => Step::Send(vec![env]),
            ClientEvent::Committed { tx, snapshot, ct } => {
                let OpenTx { spec, reads, begun } = self.open.take().expect("an open tx");
                let record = RecordedTx {
                    tx,
                    snapshot,
                    reads,
                    writes: spec.writes.iter().map(|(k, _)| *k).collect(),
                    ct: Some(ct),
                };
                let latency = now.saturating_sub(begun);
                Step::Committed { latency, record }
            }
            ClientEvent::Aborted { .. } => {
                self.open = None;
                Step::Aborted
            }
            ClientEvent::Started { .. } => unreachable!("workload clients begin deferred"),
        }
    }

    /// Records the open transaction's `reads`, buffers its writes and
    /// returns its commit.
    fn commit(&mut self, session: &mut ClientSession, reads: &[ClientRead]) -> Envelope {
        let open = self.open.as_mut().expect("an open tx");
        open.reads
            .extend(reads.iter().map(HistoryChecker::recorded_read));
        session.write(&open.spec.writes).expect("open tx");
        session.commit().expect("open tx")
    }
}

/// A run's statistics and, with history recorded, its transactions for
/// the checker.
pub(crate) struct Tally {
    pub(crate) stats: RunStats,
    pub(crate) history: Option<HistoryChecker>,
}

impl Tally {
    pub(crate) fn new(window_micros: u64, record_history: bool) -> Self {
        Tally {
            stats: RunStats::new(window_micros),
            history: record_history.then(HistoryChecker::new),
        }
    }

    /// Folds in how `client`'s transaction finished: a commit or an abort
    /// counts when `in_window`, and every commit joins the history.
    pub(crate) fn finish(&mut self, client: ClientId, step: Step, in_window: bool) {
        match step {
            Step::Committed { latency, record } => {
                if in_window {
                    self.stats.committed += 1;
                    self.stats.latency.record(latency);
                }
                if let Some(history) = self.history.as_mut() {
                    history.record_tx(client, record);
                }
            }
            Step::Aborted => self.stats.aborted += u64::from(in_window),
            Step::Send(_) => unreachable!("an unfinished transaction"),
        }
    }

    /// The run's report over the servers' snapshots (taken with their
    /// chains when history is recorded): the window's statistics, the
    /// blocking counters and the checker's verdict. Visibility and wire
    /// totals are the caller's to fill in.
    pub(crate) fn report(&mut self, mode: Mode, snaps: &[ServerSnapshot]) -> RunReport {
        let violations = match self.history.as_mut() {
            Some(history) => {
                crate::record_ground_truth(history, snaps);
                history.check()
            }
            None => Vec::new(),
        };
        RunReport {
            mode,
            stats: self.stats.clone(),
            blocking: ClusterStats::of_snapshots(snaps).blocking,
            visibility: None,
            violations,
            net_messages: 0,
            net_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, VecDeque};
    use std::sync::Arc;

    use paris_clock::SimClock;
    use paris_core::{Server, ServerOptions};
    use paris_proto::{Endpoint, Msg, ReadKey, TxRef};
    use paris_types::{ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp};

    use super::*;

    /// The bare servers of a `dcs × partitions` deployment (`r` replicas
    /// per partition) and client `dc0-0`, pumped by hand.
    struct Deployment {
        servers: HashMap<ServerId, Server>,
        session: ClientSession,
        client: WorkloadClient,
        now: u64,
    }

    impl Deployment {
        fn new(dcs: u16, partitions: u32, r: u16, workload: WorkloadConfig) -> Self {
            let config = ClusterConfig::builder().dcs(dcs).partitions(partitions);
            let topo = Arc::new(Topology::new(config.replication_factor(r).build().unwrap()));
            let clock = SimClock::new();
            clock.advance_to(1_000);
            // Every server has installed a UST, as after the deployment's
            // first stabilization round: a session picks only a non-zero
            // `ust_c`.
            let ust = Timestamp::from_physical_micros(500);
            let servers = topo.all_servers().into_iter().map(|id| {
                let mut server = Server::new(ServerOptions {
                    id,
                    topology: Arc::clone(&topo),
                    clock: Box::new(clock.clone()),
                    mode: Mode::Paris,
                    record_events: false,
                });
                let root = ServerId::new(id.dc, PartitionId(0));
                let broadcast = Msg::GossipDigest {
                    reports: vec![],
                    roots: vec![],
                    ust: Some((ust, ust)),
                    frames: 1,
                };
                server.handle(&Envelope::new(root, id, broadcast), 1_000);
                (id, server)
            });
            let id = ClientId::new(DcId(0), 0);
            let coordinator = topo.coordinator_for(id.dc, id.seq);
            let session = ClientSession::new(id, coordinator, Mode::Paris);
            Deployment {
                servers: servers.collect(),
                session: session.with_topology(Arc::clone(&topo)),
                client: WorkloadClient::new(id, &topo, &workload, 7),
                now: 1_000,
            }
        }

        /// Runs one transaction: every message the client sent, and how
        /// the transaction ended. Each envelope's consequences are
        /// delivered in FIFO order, and each reply comes 10 µs later.
        fn run_tx(&mut self) -> (Vec<Msg>, Step) {
            let mut sent = Vec::new();
            let mut step = Step::Send(self.client.start(&mut self.session, self.now));
            while let Step::Send(envs) = step {
                sent.extend(envs.iter().map(|env| env.msg.clone()));
                let mut queue = VecDeque::from(envs);
                let mut event = None;
                while let Some(env) = queue.pop_front() {
                    match env.dst {
                        Endpoint::Server(id) => {
                            let server = self.servers.get_mut(&id).expect("a server");
                            queue.extend(server.handle(&env, self.now));
                        }
                        Endpoint::Client(_) => event = event.or(self.session.handle(&env)),
                    }
                }
                self.now += 10;
                let event = event.expect("the operation completes");
                step = self.client.on_event(&mut self.session, event, self.now);
            }
            (sent, step)
        }
    }

    /// `reads` reads and `writes` writes over `keys` keys per partition.
    fn workload(reads: usize, writes: usize, keys: u64) -> WorkloadConfig {
        WorkloadConfig {
            reads_per_tx: reads,
            writes_per_tx: writes,
            partitions_per_tx: 1,
            local_tx_ratio: 1.0,
            keys_per_partition: keys,
            ..WorkloadConfig::read_heavy()
        }
    }

    fn starts(msg: &Msg) -> bool {
        match msg {
            Msg::ReadReq { tx, .. } | Msg::CommitReq { tx, .. } => {
                matches!(tx, TxRef::Start { .. })
            }
            _ => false,
        }
    }

    fn committed(step: Step) -> (u64, RecordedTx) {
        match step {
            Step::Committed { latency, record } => (latency, record),
            Step::Send(_) | Step::Aborted => panic!("not committed"),
        }
    }

    #[test]
    fn a_read_write_transaction_sends_a_start_form_read_then_the_commit() {
        let mut d = Deployment::new(1, 1, 1, workload(2, 1, 50));
        let (sent, step) = d.run_tx();
        assert!(matches!(sent[0], Msg::ReadReq { .. }) && starts(&sent[0]));
        assert!(matches!(
            sent[1],
            Msg::CommitReq {
                tx: TxRef::Known(_),
                ..
            }
        ));
        assert_eq!(sent.len(), 2);
        let (latency, record) = committed(step);
        assert_eq!(latency, 20, "two replies, 10 µs each");
        assert_eq!(record.reads.len(), 2);
        let Msg::CommitReq { writes, .. } = &sent[1] else {
            unreachable!()
        };
        let written: Vec<Key> = writes.iter().map(|w| w.key).collect();
        assert_eq!((record.writes, written.len()), (written, 1));
        assert!(record.ct.is_some_and(|ct| ct > Timestamp::ZERO));
        assert!(!d.client.is_busy() && d.session.open_tx().is_none());
    }

    #[test]
    fn a_write_only_transaction_sends_the_start_form_commit_first() {
        let mut d = Deployment::new(1, 1, 1, workload(0, 2, 50));
        let (sent, step) = d.run_tx();
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0], Msg::CommitReq { .. }) && starts(&sent[0]));
        let (latency, record) = committed(step);
        assert_eq!(
            (latency, record.reads.len(), record.writes.len()),
            (10, 0, 2)
        );
    }

    #[test]
    fn once_the_session_learned_a_ust_it_reads_at_the_pick_and_commits_picked() {
        // 1 DC × 2 partitions: each transaction reads both.
        let two = WorkloadConfig {
            partitions_per_tx: 2,
            ..workload(4, 1, 50)
        };
        let mut d = Deployment::new(1, 2, 1, two);
        let (sent, first) = d.run_tx();
        assert!(starts(&sent[0]), "nothing learned yet: {sent:?}");
        committed(first);
        for _ in 0..3 {
            let (sent, step) = d.run_tx();
            // Two slices straight to the replicas, then the picked commit.
            let kinds: Vec<&str> = sent.iter().map(Msg::kind).collect();
            assert_eq!(kinds, ["ReadSliceReq", "ReadSliceReq", "CommitReq"]);
            let Msg::CommitReq { tx, .. } = &sent[2] else {
                unreachable!()
            };
            assert!(matches!(tx, TxRef::Picked { .. }));
            let (_, record) = committed(step);
            assert_eq!(record.reads.len(), 4);
        }
        let coordinator_reads: u64 = d
            .servers
            .values()
            .map(|s| s.stats().coordinator_reads)
            .sum();
        assert_eq!(coordinator_reads, 1, "only the first transaction's start");
    }

    /// A start has no snapshot to check an own write against, so no read
    /// of a transaction that carries one is served by the session: the
    /// read of the client's own write goes out with its held stamp and
    /// comes back as that write. (A session without a topology carries
    /// every start.) A picked snapshot is `ust_c` itself, so a session
    /// that picks serves the own write from `WC_c`, with no message.
    #[test]
    fn a_read_of_an_own_write_still_goes_out_and_reads_the_write() {
        for picks in [false, true] {
            let mut d = Deployment::new(1, 1, 1, workload(1, 1, 1));
            if !picks {
                let (id, coordinator) = (d.session.id(), d.session.coordinator());
                d.session = ClientSession::new(id, coordinator, Mode::Paris);
            }
            let (_, first) = d.run_tx();
            let (_, first) = committed(first);
            let (sent, second) = d.run_tx();
            let (_, second) = committed(second);
            let own = second.reads[0].version.expect("a version");
            assert_eq!((own.tx, Some(own.ut)), (first.tx, first.ct));
            if picks {
                assert!(matches!(
                    sent[..],
                    [Msg::CommitReq {
                        tx: TxRef::Picked { .. },
                        ..
                    }]
                ));
                continue;
            }
            let Msg::ReadReq { tx, keys } = &sent[0] else {
                panic!("the read goes out first: {sent:?}")
            };
            assert!(matches!(tx, TxRef::Start { .. }));
            assert!(matches!(keys[..], [ReadKey { held: Some(_), .. }]));
        }
    }

    #[test]
    fn an_abort_yields_aborted_and_the_next_start_opens_a_fresh_transaction() {
        // Partition 1 lives only in DC 1; every transaction writes both.
        let multi = WorkloadConfig {
            partitions_per_tx: 2,
            local_tx_ratio: 0.0,
            ..workload(0, 2, 50)
        };
        let mut d = Deployment::new(2, 2, 1, multi);
        let dc0 = |d: &mut Deployment| -> Vec<ServerId> {
            d.servers
                .keys()
                .filter(|id| id.dc == DcId(0))
                .copied()
                .collect()
        };
        for id in dc0(&mut d) {
            d.servers
                .get_mut(&id)
                .unwrap()
                .set_dc_reachability(DcId(1), false);
        }
        let (sent, step) = d.run_tx();
        assert!(matches!(step, Step::Aborted), "no replica of partition 1");
        assert!(!d.client.is_busy() && d.session.open_tx().is_none());
        assert!(starts(&sent[0]));
        for id in dc0(&mut d) {
            d.servers
                .get_mut(&id)
                .unwrap()
                .set_dc_reachability(DcId(1), true);
        }
        let (sent, step) = d.run_tx();
        assert!(matches!(sent[..], [Msg::CommitReq { .. }]) && starts(&sent[0]));
        assert_eq!(committed(step).1.writes.len(), 2);
    }
}
