//! Outbound peer sessions: one writer thread per directed TCP link.
//!
//! A [`PeerLink`] owns the dialed connection to one peer and a dedicated
//! writer thread that drains an in-process queue onto the wire. The
//! thread also hosts the link's [`Coalescer`], so background traffic
//! folds into batch frames exactly as on the in-process backends — the
//! socket substrate reuses the same batching layer rather than
//! reimplementing it.
//!
//! Links are unidirectional by design: the dialing side only writes, the
//! accepting side only reads. That keeps every TCP stream single-owner
//! (no lock around a socket shared by a reader and a writer) at the cost
//! of two connections per bidirectional peer pair, which is fine on
//! loopback and commonplace in real deployments.
//!
//! ## Lifecycle
//!
//! * **Connect**: [`PeerLink::connect`] dials with exponential backoff
//!   inside a configurable window (the listener may not be up yet during
//!   deployment bring-up), then exchanges preambles — both sides verify
//!   magic and protocol version before any frame flows.
//! * **Steady state**: the writer blocks on its queue with a timeout
//!   bounded by the coalescer's next flush deadline, so batch deadlines
//!   fire on time even when the link goes quiet.
//! * **Failure**: on a write error the thread redials once (the peer may
//!   have restarted); if that fails the link marks itself dead and
//!   drains its queue to the floor. The owning node notices `is_dead`,
//!   discards the link and surfaces the loss to callers as
//!   [`Error::Transport`].
//! * **Shutdown**: dropping the link closes the queue; the writer flushes
//!   any coalesced residue onto the wire and exits, and `Drop` joins it.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_proto::Envelope;
use paris_types::{BatchConfig, Error, WireFormat};

use crate::batch::{Coalescer, CoalescerStats, Offer};
use crate::socket::framing::{deadline_in, read_preamble, write_envelope, write_preamble};

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

impl WireCounters {
    /// Adds what one link's coalescer flushed between two readings of its
    /// totals to the node's flush-trigger mix.
    fn add_flushes(&self, before: &CoalescerStats, after: &CoalescerStats) {
        let add = |total: &AtomicU64, delta: u64| {
            if delta > 0 {
                total.fetch_add(delta, Ordering::Relaxed);
            }
        };
        add(
            &self.crossing_flushes,
            after.crossing_flushes - before.crossing_flushes,
        );
        add(&self.size_flushes, after.size_flushes - before.size_flushes);
        add(
            &self.deadline_flushes,
            after.deadline_flushes - before.deadline_flushes,
        );
    }
}

/// Options governing one outbound link.
#[derive(Debug, Clone)]
pub struct LinkOptions {
    /// Batching configuration for this link's coalescer.
    pub batch: BatchConfig,
    /// Total window within which the initial dial must succeed.
    pub connect_timeout: Duration,
    /// Write timeout applied to the stream (a peer that stops reading for
    /// this long is treated as lost).
    pub write_timeout: Duration,
}

/// Dials `addr`, retrying with exponential backoff until `connect_timeout`
/// elapses. Bring-up races (listener not bound yet) resolve within the
/// first retries; a genuinely absent peer fails the whole window.
fn dial_with_backoff(addr: SocketAddr, connect_timeout: Duration) -> Result<TcpStream, Error> {
    let deadline = deadline_in(connect_timeout);
    let per_attempt = Duration::from_millis(500).min(connect_timeout);
    let mut backoff = Duration::from_millis(10);
    loop {
        match TcpStream::connect_timeout(&addr, per_attempt) {
            Ok(stream) => return Ok(stream),
            Err(_) if Instant::now() + backoff < deadline => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(200));
            }
            Err(_) => return Err(Error::Transport("could not connect to peer")),
        }
    }
}

/// Dials, configures and handshakes a write-side stream.
fn open_stream(addr: SocketAddr, opts: &LinkOptions) -> Result<TcpStream, Error> {
    let mut stream = dial_with_backoff(addr, opts.connect_timeout)?;
    let _ = stream.set_nodelay(true);
    stream
        .set_write_timeout(Some(opts.write_timeout))
        .map_err(|_| Error::Transport("could not configure peer socket"))?;
    // The dialer must also *read* the acceptor's preamble; bound that read.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|_| Error::Transport("could not configure peer socket"))?;
    write_preamble(&mut stream)?;
    read_preamble(&mut stream, deadline_in(opts.connect_timeout))?;
    Ok(stream)
}

/// An outbound link to one peer: a queue, a writer thread, a coalescer.
#[derive(Debug)]
pub struct PeerLink {
    tx: Option<Sender<Envelope>>,
    dead: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PeerLink {
    /// Opens a link to `addr`: dials (with backoff), handshakes, spawns
    /// the writer thread.
    pub fn connect(
        addr: SocketAddr,
        opts: LinkOptions,
        counters: Arc<WireCounters>,
    ) -> Result<PeerLink, Error> {
        let stream = open_stream(addr, &opts)?;
        let (tx, rx) = channel();
        let dead = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&dead);
        let handle = std::thread::Builder::new()
            .name(format!("paris-link-{}", addr.port()))
            .spawn(move || writer_loop(stream, addr, opts, rx, flag, counters))
            .map_err(|_| Error::Transport("could not spawn link writer"))?;
        Ok(PeerLink {
            tx: Some(tx),
            dead,
            handle: Some(handle),
        })
    }

    /// Queues an envelope for the writer. `false` means the link is dead
    /// (or shutting down) and the envelope was not accepted.
    pub fn send(&self, env: Envelope) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        match &self.tx {
            Some(tx) => tx.send(env).is_ok(),
            None => false,
        }
    }

    /// Whether the writer has given up on the peer.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }
}

impl Drop for PeerLink {
    fn drop(&mut self) {
        // Closing the queue is the shutdown signal; the writer flushes its
        // coalescer residue and exits.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Writes `env` onto the stream, updating counters. On failure, redials
/// once and retries; a second failure is fatal for the link.
fn write_with_retry(
    stream: &mut TcpStream,
    env: &Envelope,
    addr: SocketAddr,
    opts: &LinkOptions,
    counters: &WireCounters,
) -> Result<(), Error> {
    let bytes = match write_envelope(stream, env, WireFormat::V2) {
        Ok(bytes) => bytes,
        Err(_) => {
            // The peer may have restarted; give it one fresh connection.
            *stream = open_stream(addr, opts)?;
            write_envelope(stream, env, WireFormat::V2)?
        }
    };
    counters.messages_out.fetch_add(1, Ordering::Relaxed);
    counters.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    Ok(())
}

fn writer_loop(
    mut stream: TcpStream,
    addr: SocketAddr,
    opts: LinkOptions,
    rx: Receiver<Envelope>,
    dead: Arc<AtomicBool>,
    counters: Arc<WireCounters>,
) {
    // The coalescer wants a monotone microsecond timebase; which epoch is
    // irrelevant because only deltas matter for flush deadlines.
    let epoch = Instant::now();
    let now_micros = || epoch.elapsed().as_micros() as u64;
    let mut coalescer = Coalescer::new(opts.batch, WireFormat::V2);
    let mut flushed = coalescer.stats();

    let die = |counters: &WireCounters, rx: &Receiver<Envelope>, dead: &AtomicBool| {
        dead.store(true, Ordering::Release);
        // Drain so senders never block on a full queue (unbounded today,
        // but the drain also makes the drop counter meaningful).
        while rx.try_recv().is_ok() {
            counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    };

    loop {
        // Sleep until the next envelope or the next coalescer deadline.
        let wait = match coalescer.next_due() {
            Some(due) => Duration::from_micros(due.saturating_sub(now_micros())),
            None => Duration::from_millis(100),
        }
        .min(Duration::from_millis(100));
        let incoming = match rx.recv_timeout(wait) {
            Ok(env) => Some(env),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                // Owner dropped the link: flush residue and exit cleanly.
                for env in coalescer.flush_all() {
                    if write_with_retry(&mut stream, &env, addr, &opts, &counters).is_err() {
                        break;
                    }
                }
                let _ = stream.flush();
                return;
            }
        };

        let mut to_write = Vec::new();
        if let Some(env) = incoming {
            match coalescer.offer(env, now_micros()) {
                Offer::Pass(env) => to_write.push(env),
                Offer::Flush(batch) => to_write.extend(batch),
                Offer::Queued { .. } => {}
            }
        }
        to_write.extend(coalescer.poll(now_micros()));
        counters.add_flushes(&flushed, &coalescer.stats());
        flushed = coalescer.stats();

        for env in to_write {
            if write_with_retry(&mut stream, &env, addr, &opts, &counters).is_err() {
                die(&counters, &rx, &dead);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::framing::{decode_envelope_frame, read_frame, FrameRead, PREAMBLE_LEN};
    use paris_proto::wire::PROTOCOL_VERSION;
    use paris_proto::Msg;
    use paris_types::{ClientId, DcId, PartitionId, ServerId, Timestamp};
    use std::io::Read;
    use std::net::TcpListener;

    fn opts() -> LinkOptions {
        LinkOptions {
            batch: BatchConfig::DISABLED,
            connect_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
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
            LinkOptions {
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
            LinkOptions {
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
}
