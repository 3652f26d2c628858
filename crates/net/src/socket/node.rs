//! A TCP node: one process's endpoint in a socket deployment.
//!
//! A [`SocketNode`] binds a loopback listener, accepts inbound
//! connections (each served by its own reader thread feeding the node's
//! inbox), and lazily opens outbound [`PeerLink`]s as traffic demands.
//! Identity decides local delivery: a node hosting a server delivers
//! envelopes addressed to that server straight to its inbox without
//! touching the wire; the client-host node does the same for every
//! client endpoint (all client sessions of a deployment live in the
//! parent process, mirroring the in-process backends' client loops).
//!
//! Routing is static after setup: the control plane learns every
//! server's data port during deployment bring-up and installs the full
//! map via [`SocketNode::set_routes`]. There is no discovery protocol —
//! deployments here are parent-spawned, so the parent *is* the
//! discovery service.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_proto::{Endpoint, Envelope};
use paris_types::{BatchConfig, Error, ServerId};

use crate::socket::framing::{
    deadline_in, decode_envelope_frame, read_frame, read_preamble, write_preamble, FrameRead,
};
use crate::socket::session::{LinkOptions, PeerLink, WireCounters};

/// How long a failed peer stays on the no-redial blacklist. Retrying a
/// dead address on every send would stall the caller for a connect
/// timeout each time; one cooldown per window bounds that cost.
const REDIAL_COOLDOWN: Duration = Duration::from_secs(1);

/// Configuration of a socket node.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Batching applied to every outbound link.
    pub batch: BatchConfig,
    /// Window within which an outbound dial (plus handshake) must succeed.
    pub connect_timeout: Duration,
    /// Read timeout of inbound connections; bounds how long a reader
    /// thread can ignore the stop flag.
    pub read_timeout: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            batch: BatchConfig::DISABLED,
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_millis(100),
        }
    }
}

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

#[derive(Debug)]
struct NodeShared {
    cfg: SocketConfig,
    identity: NodeIdentity,
    stop: AtomicBool,
    routes: Mutex<RouteTable>,
    links: Mutex<HashMap<SocketAddr, PeerLink>>,
    down_until: Mutex<HashMap<SocketAddr, Instant>>,
    inbox_tx: Sender<Envelope>,
    counters: Arc<WireCounters>,
    readers: Mutex<Vec<JoinHandle<()>>>,
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

    fn send(&self, env: Envelope) -> Result<(), Error> {
        if self.local(&env.dst) {
            // Wire counters only count the wire: local delivery skips
            // them, matching the in-process routers' accounting.
            return self
                .inbox_tx
                .send(env)
                .map_err(|_| Error::Transport("node inbox closed"));
        }
        let Some(addr) = self.route(&env.dst) else {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Transport("no route to destination"));
        };

        let mut links = self
            .links
            .lock()
            .map_err(|_| Error::Transport("link table poisoned"))?;
        if let Some(link) = links.get(&addr) {
            if link.send(env) {
                return Ok(());
            }
            // The writer gave up on this peer: discard the link and put
            // the address on cooldown so we don't redial in a hot loop.
            links.remove(&addr);
            if let Ok(mut down) = self.down_until.lock() {
                down.insert(addr, Instant::now() + REDIAL_COOLDOWN);
            }
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Transport("peer connection lost"));
        }

        let cooling = self
            .down_until
            .lock()
            .map(|down| down.get(&addr).is_some_and(|until| Instant::now() < *until))
            .unwrap_or(false);
        if cooling {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(Error::Transport("peer is down"));
        }

        let link = PeerLink::connect(
            addr,
            LinkOptions {
                batch: self.cfg.batch,
                connect_timeout: self.cfg.connect_timeout,
                write_timeout: Duration::from_secs(5),
            },
            Arc::clone(&self.counters),
        );
        match link {
            Ok(link) => {
                let ok = link.send(env);
                links.insert(addr, link);
                if ok {
                    Ok(())
                } else {
                    Err(Error::Transport("peer connection lost"))
                }
            }
            Err(e) => {
                if let Ok(mut down) = self.down_until.lock() {
                    down.insert(addr, Instant::now() + REDIAL_COOLDOWN);
                }
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
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
    /// Routes `env`: locally into the inbox, or over TCP to its peer.
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
}

/// One process's TCP endpoint: listener, readers, outbound links, inbox.
#[derive(Debug)]
pub struct SocketNode {
    inner: Arc<NodeShared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    inbox: Option<Receiver<Envelope>>,
}

impl SocketNode {
    /// Binds a loopback listener and starts accepting.
    pub fn bind(identity: NodeIdentity, cfg: SocketConfig) -> Result<SocketNode, Error> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|_| Error::Transport("could not bind loopback listener"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|_| Error::Transport("could not read listener address"))?;
        listener
            .set_nonblocking(true)
            .map_err(|_| Error::Transport("could not configure listener"))?;

        let (inbox_tx, inbox_rx) = channel();
        let inner = Arc::new(NodeShared {
            cfg,
            identity,
            stop: AtomicBool::new(false),
            routes: Mutex::new(RouteTable::default()),
            links: Mutex::new(HashMap::new()),
            down_until: Mutex::new(HashMap::new()),
            inbox_tx,
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
            inbox: Some(inbox_rx),
        })
    }

    /// The loopback address the listener bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This node's identity.
    pub fn identity(&self) -> NodeIdentity {
        self.inner.identity
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

    /// Takes the inbox receiver (once): every locally-delivered and
    /// wire-received envelope arrives here, in per-connection FIFO order.
    pub fn take_inbox(&mut self) -> Option<Receiver<Envelope>> {
        self.inbox.take()
    }

    /// Wire traffic counters (shared with all links and readers).
    pub fn counters(&self) -> Arc<WireCounters> {
        Arc::clone(&self.inner.counters)
    }

    /// Stops accepting, closes every outbound link (flushing coalesced
    /// residue), and joins all I/O threads.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Dropping links closes their queues; writers flush and exit.
        if let Ok(mut links) = self.inner.links.lock() {
            links.clear();
        }
        let readers: Vec<_> = match self.inner.readers.lock() {
            Ok(mut readers) => readers.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        for handle in readers {
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
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
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
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
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
                if shared.inbox_tx.send(env).is_err() {
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
        let mut a = SocketNode::bind(NodeIdentity::Server(a_id), SocketConfig::default()).unwrap();
        let mut b = SocketNode::bind(NodeIdentity::Server(b_id), SocketConfig::default()).unwrap();
        a.set_routes(None, [(b_id, b.local_addr())]);
        b.set_routes(None, [(a_id, a.local_addr())]);
        let a_inbox = a.take_inbox().unwrap();
        let b_inbox = b.take_inbox().unwrap();

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
        let mut node = SocketNode::bind(NodeIdentity::Server(id), SocketConfig::default()).unwrap();
        let inbox = node.take_inbox().unwrap();
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
        let mut host = SocketNode::bind(NodeIdentity::ClientHost, SocketConfig::default()).unwrap();
        let child = SocketNode::bind(NodeIdentity::Server(s), SocketConfig::default()).unwrap();
        child.set_routes(Some(host.local_addr()), []);
        let host_inbox = host.take_inbox().unwrap();

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
}
