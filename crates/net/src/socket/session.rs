//! Outbound peer sessions: one directed TCP link, written by its senders.
//!
//! A [`PeerLink`] owns the dialed connection to one peer and that link's
//! [`Coalescer`] — the batching layer of the in-process backends, reused.
//! It has no thread of its own: the sending thread offers its envelope to
//! the coalescer and writes whatever leaves — the envelope, or the batch
//! it released — as one gathered `write(2)` under the link's lock, so
//! concurrent senders never interleave frames.
//!
//! Links are unidirectional by design: the dialing side only writes, the
//! accepting side only reads. That keeps every TCP stream single-owner
//! (no lock around a socket shared by a reader and a writer) at the cost
//! of two connections per bidirectional peer pair, which is fine on
//! loopback and commonplace in real deployments.
//!
//! ## Lifecycle
//!
//! * **Connect**: [`PeerLink::connect`] dials once and exchanges
//!   preambles — both sides verify magic and protocol version before any
//!   frame flows. A peer's address is only known once its listener is
//!   bound, whose backlog takes the connection before `accept`, so there
//!   is no bring-up race to wait out.
//! * **Steady state**: every send also polls the coalescer; an owner calls
//!   [`PeerLink::flush_due`] on its wake-ups (a socket child's server loop,
//!   at least every 5 ms) so a quiet link still meets its ceiling.
//! * **Failure**: a write that times out (the peer stopped reading) kills
//!   the link. Any other write error redials once — the peer may have
//!   restarted — and writes again; if that fails too, the link is dead.
//!   Neither path sleeps. The node sees `false` from `send`, puts the
//!   address on cooldown and surfaces [`Error::Transport`].
//! * **Shutdown**: dropping the link writes any coalesced residue and
//!   closes the stream.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use paris_proto::{wire, Envelope};
use paris_types::{BatchConfig, Error, WireFormat};

use crate::batch::{Coalescer, CoalescerStats, Offer};
use crate::socket::framing::{
    deadline_in, is_timeout, read_preamble, write_frames, write_preamble,
};

/// Wire-level traffic counters shared by every link and reader of one
/// node. All counts are message/byte totals actually put on (or taken
/// off) a TCP stream — after coalescing, so they are comparable to the
/// in-process backends' router counters.
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Wire messages written.
    pub messages_out: AtomicU64,
    /// Wire bytes written (frame headers included).
    pub bytes_out: AtomicU64,
    /// Wire messages read.
    pub messages_in: AtomicU64,
    /// Wire bytes read (frame headers included).
    pub bytes_in: AtomicU64,
    /// Envelopes dropped because their link was dead.
    pub dropped: AtomicU64,
    /// Coalescer flushes released by stable-time progress, over all of
    /// the node's links.
    pub crossing_flushes: AtomicU64,
    /// Coalescer flushes released by the size bound.
    pub size_flushes: AtomicU64,
    /// Coalescer flushes released by a deadline (the ceiling).
    pub deadline_flushes: AtomicU64,
}

/// Configuration of a socket node.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Batching applied to every outbound link.
    pub batch: BatchConfig,
    /// Bound on an outbound dial, and on its handshake.
    pub connect_timeout: Duration,
    /// How long one gathered write may block before its peer counts as
    /// lost: it stopped reading.
    pub write_timeout: Duration,
    /// Read timeout of inbound connections; bounds how long a reader
    /// thread can ignore the stop flag.
    pub read_timeout: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            batch: BatchConfig::DISABLED,
            connect_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_millis(100),
        }
    }
}

/// Dials `addr` once, configures the stream and handshakes.
fn open_stream(addr: SocketAddr, cfg: &SocketConfig) -> Result<TcpStream, Error> {
    let mut stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)
        .map_err(|_| Error::Transport("could not connect to peer"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_write_timeout(Some(cfg.write_timeout))
        .map_err(|_| Error::Transport("could not configure peer socket"))?;
    // The dialer must also *read* the acceptor's preamble; bound that read.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|_| Error::Transport("could not configure peer socket"))?;
    write_preamble(&mut stream)?;
    read_preamble(&mut stream, deadline_in(cfg.connect_timeout))?;
    Ok(stream)
}

/// What the link's lock guards: the stream and its coalescer.
#[derive(Debug)]
struct LinkIo {
    stream: TcpStream,
    coalescer: Coalescer,
    /// The coalescer's totals when the node's flush mix last took them.
    flushed: CoalescerStats,
}

/// An outbound link to one peer: a stream and its coalescer, written by
/// whichever thread sends.
#[derive(Debug)]
pub struct PeerLink {
    addr: SocketAddr,
    cfg: SocketConfig,
    counters: Arc<WireCounters>,
    /// The coalescer's timebase; only deltas matter for its deadlines.
    epoch: Instant,
    /// When the coalescer next needs a poll, in µs since `epoch`
    /// (`u64::MAX` while it holds nothing), readable without the lock.
    due: AtomicU64,
    dead: AtomicBool,
    io: Mutex<LinkIo>,
}

impl PeerLink {
    /// Opens a link to `addr`: dials once and handshakes.
    pub fn connect(
        addr: SocketAddr,
        cfg: SocketConfig,
        counters: Arc<WireCounters>,
    ) -> Result<PeerLink, Error> {
        let stream = open_stream(addr, &cfg)?;
        let coalescer = Coalescer::new(cfg.batch, WireFormat::V2);
        Ok(PeerLink {
            addr,
            cfg,
            counters,
            epoch: Instant::now(),
            due: AtomicU64::new(u64::MAX),
            dead: AtomicBool::new(false),
            io: Mutex::new(LinkIo {
                stream,
                flushed: coalescer.stats(),
                coalescer,
            }),
        })
    }

    /// Offers `env` to the coalescer and writes whatever leaves, on this
    /// thread. `false` means the link is dead and the envelope was not
    /// sent.
    pub fn send(&self, env: Envelope) -> bool {
        let Some(mut io) = self.io.lock().ok().filter(|_| !self.is_dead()) else {
            return false;
        };
        let now = self.now_micros();
        let mut out = match io.coalescer.offer(env, now) {
            Offer::Pass(env) => vec![env],
            Offer::Flush(batch) => batch,
            Offer::Queued { .. } => Vec::new(),
        };
        out.extend(io.coalescer.poll(now));
        self.write(&mut io, &out)
    }

    /// Writes what the coalescer holds past its ceiling. The caller checks
    /// [`PeerLink::is_due`] first; a link another thread is writing is
    /// skipped, since that write polls too.
    pub fn flush_due(&self) {
        let Ok(mut io) = self.io.try_lock() else {
            return;
        };
        let out = io.coalescer.poll(self.now_micros());
        self.write(&mut io, &out);
    }

    /// Whether the coalescer holds a class whose ceiling has passed.
    pub fn is_due(&self) -> bool {
        self.due.load(Ordering::Relaxed) <= self.now_micros()
    }

    /// Whether the link has given up on the peer.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Writes `envs` as one gathered write and books the coalescer's
    /// flushes. A write that times out kills the link; any other failure
    /// redials once and writes again.
    fn write(&self, io: &mut LinkIo, envs: &[Envelope]) -> bool {
        let (s, t, c) = (io.coalescer.stats(), io.flushed, &self.counters);
        if s != t {
            let relaxed = Ordering::Relaxed;
            c.crossing_flushes
                .fetch_add(s.crossing_flushes - t.crossing_flushes, relaxed);
            c.size_flushes
                .fetch_add(s.size_flushes - t.size_flushes, relaxed);
            c.deadline_flushes
                .fetch_add(s.deadline_flushes - t.deadline_flushes, relaxed);
            io.flushed = s;
        }
        let due = io.coalescer.next_due().unwrap_or(u64::MAX);
        self.due.store(due, Ordering::Relaxed);
        if envs.is_empty() {
            return true;
        }
        let frames: Vec<_> = envs
            .iter()
            .map(|env| wire::encode_envelope_with(env, WireFormat::V2))
            .collect();
        let deadline = Some(deadline_in(self.cfg.write_timeout));
        let mut written = write_frames(&mut io.stream, &frames, deadline);
        if written.as_ref().is_err_and(|e| !is_timeout(e)) {
            // The peer may have restarted; give it one fresh connection.
            if let Ok(stream) = open_stream(self.addr, &self.cfg) {
                io.stream = stream;
                written = write_frames(&mut io.stream, &frames, deadline);
            }
        }
        let Ok(bytes) = written else {
            // Dead for good: nothing of it is due any more.
            self.due.store(u64::MAX, Ordering::Relaxed);
            self.dead.store(true, Ordering::Release);
            return false;
        };
        let (messages, relaxed) = (envs.len() as u64, Ordering::Relaxed);
        self.counters.messages_out.fetch_add(messages, relaxed);
        self.counters.bytes_out.fetch_add(bytes, relaxed);
        true
    }
}

impl Drop for PeerLink {
    fn drop(&mut self) {
        // The owner is done with the link: write the coalesced residue.
        if self.is_dead() {
            return;
        }
        if let Ok(mut io) = self.io.lock() {
            let residue = io.coalescer.flush_all();
            self.write(&mut io, &residue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::framing::{decode_envelope_frame, read_frame, FrameRead, PREAMBLE_LEN};
    use paris_proto::wire::PROTOCOL_VERSION;
    use paris_proto::{Endpoint, Msg};
    use paris_types::{ClientId, DcId, PartitionId, ServerId, Timestamp};
    use std::io::{BufReader, Read, Write};
    use std::net::TcpListener;

    fn opts() -> SocketConfig {
        SocketConfig {
            connect_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..SocketConfig::default()
        }
    }

    fn env(seq: u32) -> Envelope {
        Envelope::new(
            ClientId::new(DcId(0), seq),
            ServerId::new(DcId(0), PartitionId(0)),
            Msg::StartTxReq {
                client_ust: Timestamp::from_parts(seq as u64, 0),
            },
        )
    }

    /// Accepts one connection and performs the acceptor-side handshake
    /// advertising `version` — concurrently, because
    /// [`PeerLink::connect`] blocks until the acceptor answers the
    /// preamble.
    fn accept_with_version(
        listener: TcpListener,
        version: u16,
    ) -> std::thread::JoinHandle<TcpStream> {
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut preamble = [0u8; PREAMBLE_LEN];
            conn.read_exact(&mut preamble).unwrap();
            preamble[4..].copy_from_slice(&version.to_le_bytes());
            conn.write_all(&preamble).unwrap();
            conn
        })
    }

    fn accept_handshaken(listener: TcpListener) -> std::thread::JoinHandle<TcpStream> {
        accept_with_version(listener, PROTOCOL_VERSION)
    }

    #[test]
    fn link_handshakes_and_delivers_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = accept_handshaken(listener);
        let counters = Arc::new(WireCounters::default());
        let link = PeerLink::connect(addr, opts(), Arc::clone(&counters)).unwrap();
        let mut conn = acceptor.join().unwrap();

        for seq in 0..3 {
            assert!(link.send(env(seq)));
        }
        for seq in 0..3 {
            let FrameRead::Frame(payload) = read_frame(&mut conn).unwrap() else {
                panic!("expected frame {seq}");
            };
            assert_eq!(decode_envelope_frame(&payload).unwrap(), env(seq));
        }
        drop(link);
        // After a clean shutdown the acceptor sees EOF.
        assert!(matches!(read_frame(&mut conn).unwrap(), FrameRead::Eof));
        assert_eq!(counters.messages_out.load(Ordering::Relaxed), 3);
        assert!(counters.bytes_out.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn unsupported_peer_version_refuses_the_link() {
        // A peer advertising any version but ours — the retired v1 or a
        // "future" v3 — is refused during the handshake: the dialer never
        // treats the connection as open.
        for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let acceptor = accept_with_version(listener, version);
            let got = PeerLink::connect(addr, opts(), Arc::new(WireCounters::default()));
            assert!(matches!(
                got,
                Err(Error::Transport("protocol version mismatch"))
            ));
            let _ = acceptor.join();
        }
    }

    #[test]
    fn link_to_nowhere_fails_within_the_connect_window() {
        // Bind-then-drop yields a port with (very likely) no listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let started = Instant::now();
        let got = PeerLink::connect(
            addr,
            SocketConfig {
                connect_timeout: Duration::from_millis(200),
                write_timeout: Duration::from_secs(1),
                ..opts()
            },
            Arc::new(WireCounters::default()),
        );
        assert!(matches!(got, Err(Error::Transport(_))));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn dead_peer_eventually_marks_the_link_dead() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = accept_handshaken(listener);
        let counters = Arc::new(WireCounters::default());
        let link = PeerLink::connect(
            addr,
            SocketConfig {
                connect_timeout: Duration::from_millis(300),
                write_timeout: Duration::from_millis(300),
                ..opts()
            },
            Arc::clone(&counters),
        )
        .unwrap();
        // Kill the accepting side (the listener already dropped with the
        // acceptor thread): the reconnect attempt must also fail, so the
        // link gives up.
        drop(acceptor.join().unwrap());

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seq = 0;
        while !link.is_dead() {
            assert!(Instant::now() < deadline, "link never noticed dead peer");
            link.send(env(seq));
            seq += 1;
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!link.send(env(seq)), "dead link must refuse traffic");
    }

    #[test]
    fn concurrent_senders_never_interleave_frames() {
        const THREADS: u32 = 4;
        const FRAMES: u32 = 250;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = accept_handshaken(listener);
        let counters = Arc::new(WireCounters::default());
        let link = Arc::new(PeerLink::connect(addr, opts(), Arc::clone(&counters)).unwrap());
        let conn = acceptor.join().unwrap();

        // Thread `t` sends frames from client `t`, its sequence numbers
        // in the timestamps.
        let frame = |t: u32, seq: u64| {
            Envelope::new(
                ClientId::new(DcId(0), t),
                ServerId::new(DcId(0), PartitionId(0)),
                Msg::StartTxReq {
                    client_ust: Timestamp::from_parts(seq, 0),
                },
            )
        };
        let senders: Vec<_> = (0..THREADS)
            .map(|t| {
                let link = Arc::clone(&link);
                std::thread::spawn(move || {
                    for seq in 0..u64::from(FRAMES) {
                        assert!(link.send(frame(t, seq)));
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }

        let mut reader = BufReader::new(conn);
        let mut next = [0u64; THREADS as usize];
        let mut bytes = 0;
        for _ in 0..THREADS * FRAMES {
            let FrameRead::Frame(payload) = read_frame(&mut reader).unwrap() else {
                panic!("a frame went missing");
            };
            bytes += 4 + payload.len() as u64;
            let env = decode_envelope_frame(&payload).expect("every frame decodes whole");
            let Endpoint::Client(client) = env.src else {
                panic!("unexpected source {:?}", env.src);
            };
            let t = client.seq as usize;
            assert_eq!(env, frame(client.seq, next[t]), "thread {t} out of order");
            next[t] += 1;
        }
        assert_eq!(next, [u64::from(FRAMES); THREADS as usize]);
        let sent = u64::from(THREADS * FRAMES);
        assert_eq!(counters.messages_out.load(Ordering::Relaxed), sent);
        assert_eq!(counters.bytes_out.load(Ordering::Relaxed), bytes);
    }

    /// A heartbeat: background traffic a batched link holds.
    fn heartbeat() -> Envelope {
        Envelope::new(
            ServerId::new(DcId(0), PartitionId(0)),
            ServerId::new(DcId(1), PartitionId(0)),
            Msg::Heartbeat {
                partition: PartitionId(0),
                watermark: Timestamp::ZERO,
            },
        )
    }

    /// Options whose quantum is never crossed: only the ceiling (or the
    /// owner dropping the link) releases what the link holds.
    fn held(ceiling: Duration) -> SocketConfig {
        let ceiling = ceiling.as_micros() as u64;
        SocketConfig {
            batch: BatchConfig::stable_time(1_000, u64::MAX, ceiling),
            ..opts()
        }
    }

    #[test]
    fn a_quiet_batched_link_releases_by_its_ceiling_when_polled() {
        let ceiling = Duration::from_millis(30);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = accept_handshaken(listener);
        let counters = Arc::new(WireCounters::default());
        let link = PeerLink::connect(addr, held(ceiling), Arc::clone(&counters)).unwrap();
        let conn = acceptor.join().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut reader = BufReader::new(conn);

        let sent = Instant::now();
        assert!(link.send(heartbeat()));
        assert!(!link.is_due());
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            FrameRead::TimedOut
        ));
        assert_eq!(counters.messages_out.load(Ordering::Relaxed), 0, "held");

        // Nothing else is sent: only the owner's polls can release it.
        while !link.is_due() {
            assert!(sent.elapsed() < Duration::from_secs(5), "never due");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(sent.elapsed() >= ceiling);
        link.flush_due();
        let FrameRead::Frame(payload) = read_frame(&mut reader).unwrap() else {
            panic!("the ceiling released nothing");
        };
        let got = decode_envelope_frame(&payload).unwrap();
        assert!(matches!(got.msg, Msg::ReplicateBatch { frames: 1, .. }));
        assert!(!link.is_due(), "nothing is left to release");
        assert_eq!(counters.messages_out.load(Ordering::Relaxed), 1);
        assert_eq!(counters.deadline_flushes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dropping_a_link_writes_its_coalesced_residue() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = accept_handshaken(listener);
        // A minute-long ceiling: only the drop can release the frame.
        let held = held(Duration::from_secs(60));
        let link = PeerLink::connect(addr, held, Arc::new(WireCounters::default())).unwrap();
        let mut conn = acceptor.join().unwrap();
        assert!(link.send(heartbeat()));
        drop(link);
        let FrameRead::Frame(payload) = read_frame(&mut conn).unwrap() else {
            panic!("the residue was not written");
        };
        let got = decode_envelope_frame(&payload).unwrap();
        assert!(matches!(got.msg, Msg::ReplicateBatch { frames: 1, .. }));
        assert!(matches!(read_frame(&mut conn).unwrap(), FrameRead::Eof));
    }
}
