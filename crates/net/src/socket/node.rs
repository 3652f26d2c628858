//! A TCP node: one process's endpoint in a socket deployment.
//!
//! A [`SocketNode`] binds a loopback listener whose accept thread blocks
//! in `accept` (shutdown wakes it by dialing the listener itself), serves
//! each inbound connection with a reader thread that reads through a
//! buffer, and lazily opens outbound [`PeerLink`]s as traffic demands.
//! Identity decides what is local: a node hosting a server owns that
//! server's inbox, which its server loop drains; the client-host node
//! (the parent process, home of every client session, mirroring the
//! in-process backends' client loops) owns one inbox per session. A
//! reader delivers each envelope straight into the inbox its `dst` names,
//! so a reply wakes exactly one thread: the one waiting for it.
//!
//! Sends run on the caller's thread, dialing outside the link table's
//! lock. A server loop calls [`SocketHandle::flush_due`] on each wake-up
//! so batched background traffic leaves by its ceiling.
//!
//! Routing is static after setup: the control plane learns every
//! server's data port during deployment bring-up and installs the full
//! map via [`SocketNode::set_routes`]. There is no discovery protocol —
//! deployments here are parent-spawned, so the parent *is* the
//! discovery service.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_proto::{Endpoint, Envelope};
use paris_types::{Error, ServerId};

use crate::socket::framing::{
    deadline_in, decode_envelope_frame, read_frame, read_preamble, write_preamble, FrameRead,
};
use crate::socket::session::{PeerLink, SocketConfig, WireCounters};

/// How long a failed peer stays on the no-redial blacklist. Retrying a
/// dead address on every send would cost the caller a dial each time;
/// one cooldown per window bounds that cost.
const REDIAL_COOLDOWN: Duration = Duration::from_secs(1);

/// The buffer each reader thread reads through: one `read(2)` takes every
/// frame already in flight, not one header and one payload at a time.
const READ_BUFFER: usize = 64 * 1024;

/// What this process hosts, deciding which envelopes are local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeIdentity {
    /// The parent process: hosts every client session of the deployment.
    ClientHost,
    /// A child process hosting exactly one partition server.
    Server(ServerId),
}

#[derive(Debug, Default)]
struct RouteTable {
    client_host: Option<SocketAddr>,
    servers: HashMap<ServerId, SocketAddr>,
}

/// One peer address in the link table.
#[derive(Debug)]
enum Slot {
    /// An open link.
    Up(Arc<PeerLink>),
    /// A peer that failed: no redial before this instant.
    Down(Instant),
}

#[derive(Debug)]
struct NodeShared {
    cfg: SocketConfig,
    identity: NodeIdentity,
    stop: AtomicBool,
    routes: Mutex<RouteTable>,
    links: Mutex<HashMap<SocketAddr, Slot>>,
    /// The inbox of every endpoint this node hosts.
    inboxes: Mutex<HashMap<Endpoint, Sender<Envelope>>>,
    counters: Arc<WireCounters>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

/// The error of a lock a panicked thread left poisoned.
fn poisoned<T>(_: T) -> Error {
    Error::Transport("node state poisoned")
}

impl NodeShared {
    fn local(&self, dst: &Endpoint) -> bool {
        match (dst, self.identity) {
            (Endpoint::Client(_), NodeIdentity::ClientHost) => true,
            (Endpoint::Server(s), NodeIdentity::Server(own)) => *s == own,
            _ => false,
        }
    }

    fn route(&self, dst: &Endpoint) -> Option<SocketAddr> {
        // A poisoned table (a panicked peer thread) routes nothing; the
        // caller surfaces that as a clean "no route" transport error.
        let routes = self.routes.lock().ok()?;
        match dst {
            Endpoint::Client(_) => routes.client_host,
            Endpoint::Server(s) => routes.servers.get(s).copied(),
        }
    }

    /// Hands a local envelope to the inbox its `dst` names. One for an
    /// endpoint without an inbox (not registered, or finished) is dropped,
    /// as a reply nobody waits for.
    fn deliver(&self, env: Envelope) -> Result<(), Error> {
        if let Some(inbox) = self.inboxes.lock().map_err(poisoned)?.get(&env.dst) {
            let _ = inbox.send(env);
        }
        Ok(())
    }

    fn send(&self, env: Envelope) -> Result<(), Error> {
        if self.local(&env.dst) {
            // Wire counters only count the wire: local delivery skips
            // them, matching the in-process routers' accounting.
            return self.deliver(env);
        }
        let sent = self
            .route(&env.dst)
            .ok_or(Error::Transport("no route to destination"))
            .and_then(|addr| self.send_to(addr, env));
        if sent.is_err() {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
        sent
    }

    fn send_to(&self, addr: SocketAddr, env: Envelope) -> Result<(), Error> {
        let link = self.link(addr)?;
        if link.send(env) {
            return Ok(());
        }
        // The link gave up on this peer: put the address on cooldown so
        // we don't redial in a hot loop — unless a fresh link replaced it.
        let mut links = self.links.lock().map_err(poisoned)?;
        if matches!(links.get(&addr), Some(Slot::Up(l)) if Arc::ptr_eq(l, &link)) {
            links.insert(addr, Slot::Down(Instant::now() + REDIAL_COOLDOWN));
        }
        Err(Error::Transport("peer connection lost"))
    }

    /// The open link to `addr`, dialed (outside the table lock) when there
    /// is none and the address is not cooling down.
    fn link(&self, addr: SocketAddr) -> Result<Arc<PeerLink>, Error> {
        match self.links.lock().map_err(poisoned)?.get(&addr) {
            Some(Slot::Up(link)) => return Ok(Arc::clone(link)),
            Some(Slot::Down(until)) if Instant::now() < *until => {
                return Err(Error::Transport("peer is down"));
            }
            _ => {}
        }
        let dialed = PeerLink::connect(addr, self.cfg.clone(), Arc::clone(&self.counters));
        let mut links = self.links.lock().map_err(poisoned)?;
        match (dialed, links.get(&addr)) {
            // A sender racing this one got its link in first: everybody
            // uses that one.
            (_, Some(Slot::Up(first))) => Ok(Arc::clone(first)),
            (Ok(link), _) => {
                let link = Arc::new(link);
                links.insert(addr, Slot::Up(Arc::clone(&link)));
                Ok(link)
            }
            (Err(e), _) => {
                links.insert(addr, Slot::Down(Instant::now() + REDIAL_COOLDOWN));
                Err(e)
            }
        }
    }
}

/// A cloneable sending handle onto a node — the socket analogue of the
/// threaded router's handle.
#[derive(Debug, Clone)]
pub struct SocketHandle {
    inner: Arc<NodeShared>,
}

impl SocketHandle {
    /// Routes `env`: locally into its inbox, or over TCP to its peer,
    /// written on this thread.
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] when the destination has no route, its peer
    /// is down (with a cooldown to bound redial stalls), or the node is
    /// shutting down.
    pub fn send(&self, env: Envelope) -> Result<(), Error> {
        self.inner.send(env)
    }

    /// Fire-and-forget send for callers with no failure channel (protocol
    /// background traffic; losses surface via peer liveness instead).
    pub fn send_lossy(&self, env: Envelope) {
        let _ = self.inner.send(env);
    }

    /// Writes what every outbound link's coalescer holds past its
    /// ceiling. The owner of a node that sends background traffic calls
    /// it on each wake-up; with nothing due it only reads one atomic per
    /// link.
    pub fn flush_due(&self) {
        let Ok(links) = self.inner.links.lock() else {
            return;
        };
        let due: Vec<Arc<PeerLink>> = links
            .values()
            .filter_map(|slot| match slot {
                Slot::Up(link) if link.is_due() => Some(Arc::clone(link)),
                _ => None,
            })
            .collect();
        drop(links);
        for link in due {
            link.flush_due();
        }
    }
}

/// One process's TCP endpoint: listener, readers, outbound links, inboxes.
#[derive(Debug)]
pub struct SocketNode {
    inner: Arc<NodeShared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
}

impl SocketNode {
    /// Binds a loopback listener and starts accepting.
    pub fn bind(identity: NodeIdentity, cfg: SocketConfig) -> Result<SocketNode, Error> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|_| Error::Transport("could not bind loopback listener"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|_| Error::Transport("could not read listener address"))?;
        let inner = Arc::new(NodeShared {
            cfg,
            identity,
            stop: AtomicBool::new(false),
            routes: Mutex::new(RouteTable::default()),
            links: Mutex::new(HashMap::new()),
            inboxes: Mutex::new(HashMap::new()),
            counters: Arc::new(WireCounters::default()),
            readers: Mutex::new(Vec::new()),
        });
        let shared = Arc::clone(&inner);
        let accept_handle = std::thread::Builder::new()
            .name(format!("paris-accept-{}", local_addr.port()))
            .spawn(move || accept_loop(listener, shared))
            .map_err(|_| Error::Transport("could not spawn accept loop"))?;
        Ok(SocketNode {
            inner,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The loopback address the listener bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Installs the deployment's full route map.
    pub fn set_routes(
        &self,
        client_host: Option<SocketAddr>,
        servers: impl IntoIterator<Item = (ServerId, SocketAddr)>,
    ) {
        let Ok(mut routes) = self.inner.routes.lock() else {
            return;
        };
        routes.client_host = client_host;
        routes.servers.extend(servers);
    }

    /// A cloneable sending handle.
    pub fn handle(&self) -> SocketHandle {
        SocketHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Opens the inbox of `endpoint`, which this node hosts — its server,
    /// or on the client host a client session. Every envelope addressed to
    /// it, local or from the wire, arrives there in per-connection FIFO
    /// order, straight from the thread that read it. A new registration
    /// replaces an earlier one.
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] for an endpoint this node does not host.
    pub fn register(&self, endpoint: impl Into<Endpoint>) -> Result<Receiver<Envelope>, Error> {
        let endpoint = endpoint.into();
        if !self.inner.local(&endpoint) {
            return Err(Error::Transport("endpoint hosted elsewhere"));
        }
        let (tx, inbox) = channel();
        self.inner
            .inboxes
            .lock()
            .map_err(poisoned)?
            .insert(endpoint, tx);
        Ok(inbox)
    }

    /// Wire traffic counters (shared with all links and readers).
    pub fn counters(&self) -> Arc<WireCounters> {
        Arc::clone(&self.inner.counters)
    }

    /// Stops accepting, closes every outbound link (writing coalesced
    /// residue), and joins all I/O threads.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            // Wake the blocking accept: it takes this connection, sees the
            // stop flag and returns. Should the dial fail, the thread is
            // left blocked rather than joined forever.
            if TcpStream::connect(self.local_addr).is_ok() {
                let _ = handle.join();
            }
        }
        // Dropping the links writes their residue and closes them, outside
        // the table lock.
        drop(self.inner.links.lock().map(|mut l| std::mem::take(&mut *l)));
        let readers = self.inner.readers.lock().map(|mut r| r.split_off(0));
        for handle in readers.unwrap_or_default() {
            let _ = handle.join();
        }
    }
}

impl Drop for SocketNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<NodeShared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("paris-reader".into())
            .spawn(move || reader_loop(stream, conn_shared));
        if let Ok(handle) = spawned {
            if let Ok(mut readers) = shared.readers.lock() {
                readers.push(handle);
            }
        }
    }
}

fn reader_loop(mut stream: TcpStream, shared: Arc<NodeShared>) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(shared.cfg.read_timeout))
        .is_err()
    {
        return;
    }
    // Acceptor handshake: validate the dialer's preamble, answer with ours.
    if read_preamble(&mut stream, deadline_in(shared.cfg.connect_timeout)).is_err() {
        return;
    }
    if write_preamble(&mut stream).is_err() {
        return;
    }
    let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
    while !shared.stop.load(Ordering::Acquire) {
        match read_frame(&mut stream) {
            Ok(FrameRead::Frame(payload)) => {
                let Ok(env) = decode_envelope_frame(&payload) else {
                    // A peer speaking garbage mid-stream: drop the
                    // connection, it will redial if it recovers.
                    return;
                };
                shared.counters.messages_in.fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .bytes_in
                    .fetch_add(4 + payload.len() as u64, Ordering::Relaxed);
                if shared.deliver(env).is_err() {
                    return;
                }
            }
            Ok(FrameRead::Eof) | Err(_) => return,
            Ok(FrameRead::TimedOut) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_proto::Msg;
    use paris_types::{ClientId, DcId, PartitionId, Timestamp};

    fn server(dc: u16, p: u32) -> ServerId {
        ServerId::new(DcId(dc), PartitionId(p))
    }

    fn env(src: impl Into<Endpoint>, dst: impl Into<Endpoint>, seq: u64) -> Envelope {
        Envelope::new(
            src,
            dst,
            Msg::StartTxReq {
                client_ust: Timestamp::from_parts(seq, 0),
            },
        )
    }

    #[test]
    fn two_nodes_exchange_envelopes_both_ways() {
        let a_id = server(0, 0);
        let b_id = server(0, 1);
        let a = SocketNode::bind(NodeIdentity::Server(a_id), SocketConfig::default()).unwrap();
        let b = SocketNode::bind(NodeIdentity::Server(b_id), SocketConfig::default()).unwrap();
        a.set_routes(None, [(b_id, b.local_addr())]);
        b.set_routes(None, [(a_id, a.local_addr())]);
        let a_inbox = a.register(a_id).unwrap();
        let b_inbox = b.register(b_id).unwrap();

        a.handle().send(env(a_id, b_id, 1)).unwrap();
        let got = b_inbox.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, env(a_id, b_id, 1));

        b.handle().send(env(b_id, a_id, 2)).unwrap();
        let got = a_inbox.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, env(b_id, a_id, 2));

        assert_eq!(a.counters().messages_out.load(Ordering::Relaxed), 1);
        assert_eq!(a.counters().messages_in.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn local_destinations_skip_the_wire() {
        let id = server(1, 0);
        let node = SocketNode::bind(NodeIdentity::Server(id), SocketConfig::default()).unwrap();
        let inbox = node.register(id).unwrap();
        node.handle().send(env(id, id, 9)).unwrap();
        assert_eq!(
            inbox.recv_timeout(Duration::from_secs(1)).unwrap(),
            env(id, id, 9)
        );
        assert_eq!(node.counters().messages_out.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn client_endpoints_route_to_the_client_host() {
        let s = server(0, 0);
        let client = ClientId::new(DcId(0), 3);
        let host = SocketNode::bind(NodeIdentity::ClientHost, SocketConfig::default()).unwrap();
        let child = SocketNode::bind(NodeIdentity::Server(s), SocketConfig::default()).unwrap();
        child.set_routes(Some(host.local_addr()), []);
        let host_inbox = host.register(client).unwrap();

        child.handle().send(env(s, client, 4)).unwrap();
        assert_eq!(
            host_inbox.recv_timeout(Duration::from_secs(5)).unwrap(),
            env(s, client, 4)
        );
    }

    #[test]
    fn unrouted_and_down_destinations_error_cleanly() {
        let id = server(0, 0);
        let other = server(0, 1);
        let node = SocketNode::bind(NodeIdentity::Server(id), SocketConfig::default()).unwrap();
        assert_eq!(
            node.handle().send(env(id, other, 1)),
            Err(Error::Transport("no route to destination"))
        );

        // Route to a dead port: first send pays the connect window, the
        // follow-up is refused instantly by the cooldown.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let node = SocketNode::bind(
            NodeIdentity::Server(id),
            SocketConfig {
                connect_timeout: Duration::from_millis(150),
                ..SocketConfig::default()
            },
        )
        .unwrap();
        node.set_routes(None, [(other, dead_addr)]);
        assert!(matches!(
            node.handle().send(env(id, other, 1)),
            Err(Error::Transport(_))
        ));
        let started = Instant::now();
        assert_eq!(
            node.handle().send(env(id, other, 2)),
            Err(Error::Transport("peer is down"))
        );
        assert!(started.elapsed() < Duration::from_millis(100), "cooldown");
        assert_eq!(node.counters().dropped.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn an_idle_node_shuts_down_promptly() {
        let mut node =
            SocketNode::bind(NodeIdentity::Server(server(0, 0)), SocketConfig::default()).unwrap();
        let started = Instant::now();
        node.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "{took:?}");
    }

    #[test]
    fn a_peer_that_stops_reading_costs_one_write_timeout() {
        use paris_proto::ReplicatedTx;
        use paris_types::{Key, TxId, WriteSetEntry};
        use std::io::{Read, Write};

        let id = server(0, 0);
        let other = server(0, 1);
        // The peer handshakes, then never reads; it holds the connection
        // until the test is done with it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, hold) = std::sync::mpsc::sync_channel::<()>(1);
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut preamble = [0u8; crate::socket::PREAMBLE_LEN];
            conn.read_exact(&mut preamble).unwrap();
            conn.write_all(&preamble).unwrap();
            let _ = hold.recv();
        });
        let mut node = SocketNode::bind(NodeIdentity::Server(id), SocketConfig::default()).unwrap();
        node.set_routes(None, [(other, addr)]);

        // 1 MiB frames until the loopback buffers are full and a write
        // runs out its timeout.
        let big = |seq| {
            let tx = ReplicatedTx {
                tx: TxId::new(id, seq),
                ct: Timestamp::from_parts(seq, 0),
                src: DcId(0),
                writes: vec![WriteSetEntry::new(Key(seq), vec![7u8; 1 << 20].into())],
            };
            let msg = Msg::Replicate {
                partition: PartitionId(1),
                txs: vec![tx],
                watermark: Timestamp::from_parts(seq, 0),
            };
            Envelope::new(id, other, msg)
        };
        // Every send that blocked, for how long in all.
        let mut blocked = Duration::ZERO;
        let mut seq = 0;
        let lost = loop {
            seq += 1;
            assert!(seq < 1_000, "the loopback buffers never filled");
            let started = Instant::now();
            let sent = node.handle().send(big(seq));
            if started.elapsed() > Duration::from_millis(100) {
                blocked += started.elapsed();
            }
            if let Err(e) = sent {
                break e;
            }
        };
        assert_eq!(lost, Error::Transport("peer connection lost"));
        let timeout = SocketConfig::default().write_timeout;
        assert!(blocked >= timeout, "{blocked:?}");
        assert!(blocked < timeout + Duration::from_secs(1), "{blocked:?}");

        // The link is gone and the address cooling down: refused at once.
        let started = Instant::now();
        let refused = node.handle().send(big(seq + 1));
        assert_eq!(refused, Err(Error::Transport("peer is down")));
        assert!(started.elapsed() < Duration::from_millis(100));

        let started = Instant::now();
        node.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1));
        drop(done);
        peer.join().unwrap();
    }
}
