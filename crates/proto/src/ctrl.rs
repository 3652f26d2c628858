//! Control-plane frames of the socket deployment.
//!
//! A multi-process deployment needs a thin out-of-band channel next to the
//! protocol traffic: the parent process spawns one child per partition
//! server, learns each child's data port, distributes the peer map, pulls
//! run statistics, and asks for graceful shutdown. These frames travel on
//! a dedicated control connection per child, framed exactly like protocol
//! envelopes (length prefix, [`crate::wire::MAX_FRAME_LEN`] bound, magic +
//! version preamble) but in their own tag space so a control frame can
//! never be confused with a [`crate::Msg`].
//!
//! Keeping `Ctrl` separate from `Msg` preserves the protocol codec's
//! paper-facing properties: `encoded_len`/`metadata_len` keep measuring
//! exactly the algorithmic messages of Table I.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use paris_types::{Key, ServerId, Timestamp, VersionOrd};

use crate::wire::{
    get_dc, get_key, get_len, get_server, get_ts, get_tx, need, put_dc, put_key, put_len,
    put_server, put_ts, put_tx, DecodeError,
};

/// The flat protocol/pipeline counter block a child reports alongside its
/// snapshot — a wire-stable mirror of the server's internal statistics
/// (message counts, 2PC roles, replication applies) plus the per-shard
/// commit-pipeline counters, so the parent can aggregate a cluster-wide
/// view without reaching into child processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotCounters {
    /// Messages handled, any kind.
    pub msgs_handled: u64,
    /// Update transactions committed with this server as coordinator.
    pub txs_coordinated: u64,
    /// Slice reads served.
    pub slice_reads: u64,
    /// Keys returned by slice reads.
    pub keys_read: u64,
    /// Keys answered `Unchanged` (the client's stamp named the visible
    /// version).
    pub reads_unchanged: u64,
    /// Keys answered with a full version.
    pub reads_shipped: u64,
    /// Prepares handled.
    pub prepares: u64,
    /// Transactions applied locally (as 2PC participant).
    pub applied_local: u64,
    /// Transactions applied from remote replication.
    pub applied_remote: u64,
    /// Replication batches sent.
    pub replicate_batches: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Logical frames folded inside coalesced messages.
    pub coalesced_frames: u64,
    /// Whole coalesced gossip digests served off the server loop by the
    /// read pool (through the published `ReadView`).
    pub pooled_gossip_digests: u64,
    /// Versions removed by GC.
    pub gc_removed: u64,
    /// Prepares staged through the commit pipeline.
    pub staged_prepares: u64,
    /// Replication frames applied through the pipeline's lanes.
    pub lane_batches: u64,
    /// Versions inserted through the pipeline's lanes.
    pub lane_applies: u64,
}

impl SnapshotCounters {
    const WIRE_LEN: usize = 17 * 8;

    fn encode(&self, buf: &mut BytesMut) {
        for v in [
            self.msgs_handled,
            self.txs_coordinated,
            self.slice_reads,
            self.keys_read,
            self.reads_unchanged,
            self.reads_shipped,
            self.prepares,
            self.applied_local,
            self.applied_remote,
            self.replicate_batches,
            self.heartbeats,
            self.coalesced_frames,
            self.pooled_gossip_digests,
            self.gc_removed,
            self.staged_prepares,
            self.lane_batches,
            self.lane_applies,
        ] {
            buf.put_u64_le(v);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        need(buf, Self::WIRE_LEN)?;
        Ok(SnapshotCounters {
            msgs_handled: buf.get_u64_le(),
            txs_coordinated: buf.get_u64_le(),
            slice_reads: buf.get_u64_le(),
            keys_read: buf.get_u64_le(),
            reads_unchanged: buf.get_u64_le(),
            reads_shipped: buf.get_u64_le(),
            prepares: buf.get_u64_le(),
            applied_local: buf.get_u64_le(),
            applied_remote: buf.get_u64_le(),
            replicate_batches: buf.get_u64_le(),
            heartbeats: buf.get_u64_le(),
            coalesced_frames: buf.get_u64_le(),
            pooled_gossip_digests: buf.get_u64_le(),
            gc_removed: buf.get_u64_le(),
            staged_prepares: buf.get_u64_le(),
            lane_batches: buf.get_u64_le(),
            lane_applies: buf.get_u64_le(),
        })
    }
}

/// Everything the parent needs from one child at collection time: the
/// server's stable frontier, its blocking counters, its wire accounting,
/// its protocol/pipeline counter block and the retained version orders of
/// every key — the checker's ground truth and the convergence oracle's
/// input.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerSnapshot {
    /// The reporting server.
    pub server: Option<ServerId>,
    /// Its current universal stable time.
    pub ust: Timestamp,
    /// BPR reads that blocked on this server.
    pub blocked_reads: u64,
    /// Total microseconds those reads spent blocked.
    pub blocked_micros_total: u64,
    /// Longest single block, in microseconds.
    pub blocked_micros_max: u64,
    /// Wire messages this child's node sent.
    pub net_messages: u64,
    /// Wire bytes this child's node sent.
    pub net_bytes: u64,
    /// Protocol and commit-pipeline counters.
    pub counters: SnapshotCounters,
    /// Per key: every retained version's order stamp, freshest first.
    pub chains: Vec<(Key, Vec<VersionOrd>)>,
}

/// A control-plane frame between the parent process and a child server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ctrl {
    /// Child → parent, first frame after the preamble: which server this
    /// process hosts and which loopback port its data listener bound.
    Hello {
        /// The server this child runs.
        server: ServerId,
        /// The child's data-plane listener port (on 127.0.0.1).
        data_port: u16,
    },
    /// Parent → child: the full peer map. Sent once every child has said
    /// hello, so every listed listener is already accepting.
    Peers {
        /// The parent's data-plane port — every client endpoint routes here.
        client_port: u16,
        /// Data-plane port of every server in the deployment.
        servers: Vec<(ServerId, u16)>,
    },
    /// Parent → child: report your statistics and store contents.
    StatsReq,
    /// Child → parent: the requested snapshot.
    StatsResp(Box<ServerSnapshot>),
    /// Parent → child: shut down gracefully and exit.
    Stop,
}

// Control frame tags (a tag space distinct from the `Msg` codec's).
const C_HELLO: u8 = 1;
const C_PEERS: u8 = 2;
const C_STATS_REQ: u8 = 3;
const C_STATS_RESP: u8 = 4;
const C_STOP: u8 = 5;

/// Encodes a control frame payload.
pub fn encode_ctrl(ctrl: &Ctrl) -> Bytes {
    let mut buf = BytesMut::new();
    match ctrl {
        Ctrl::Hello { server, data_port } => {
            buf.put_u8(C_HELLO);
            put_server(&mut buf, *server);
            buf.put_u16_le(*data_port);
        }
        Ctrl::Peers {
            client_port,
            servers,
        } => {
            buf.put_u8(C_PEERS);
            buf.put_u16_le(*client_port);
            put_len(&mut buf, servers.len());
            for (s, port) in servers {
                put_server(&mut buf, *s);
                buf.put_u16_le(*port);
            }
        }
        Ctrl::StatsReq => buf.put_u8(C_STATS_REQ),
        Ctrl::StatsResp(snap) => {
            buf.put_u8(C_STATS_RESP);
            match snap.server {
                None => buf.put_u8(0),
                Some(s) => {
                    buf.put_u8(1);
                    put_server(&mut buf, s);
                }
            }
            put_ts(&mut buf, snap.ust);
            buf.put_u64_le(snap.blocked_reads);
            buf.put_u64_le(snap.blocked_micros_total);
            buf.put_u64_le(snap.blocked_micros_max);
            buf.put_u64_le(snap.net_messages);
            buf.put_u64_le(snap.net_bytes);
            snap.counters.encode(&mut buf);
            put_len(&mut buf, snap.chains.len());
            for (key, orders) in &snap.chains {
                put_key(&mut buf, *key);
                put_len(&mut buf, orders.len());
                for ord in orders {
                    put_ts(&mut buf, ord.ut);
                    put_tx(&mut buf, ord.tx);
                    put_dc(&mut buf, ord.src);
                }
            }
        }
        Ctrl::Stop => buf.put_u8(C_STOP),
    }
    buf.freeze()
}

/// Decodes a control frame payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated buffers, unknown tags or
/// impossible lengths — never panics, whatever the input.
pub fn decode_ctrl(bytes: &[u8]) -> Result<Ctrl, DecodeError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    need(&buf, 1)?;
    let tag = buf.get_u8();
    let ctrl = match tag {
        C_HELLO => {
            let server = get_server(&mut buf)?;
            need(&buf, 2)?;
            Ctrl::Hello {
                server,
                data_port: buf.get_u16_le(),
            }
        }
        C_PEERS => {
            need(&buf, 2)?;
            let client_port = buf.get_u16_le();
            let n = get_len(&mut buf)?;
            let mut servers = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let s = get_server(&mut buf)?;
                need(&buf, 2)?;
                servers.push((s, buf.get_u16_le()));
            }
            Ctrl::Peers {
                client_port,
                servers,
            }
        }
        C_STATS_REQ => Ctrl::StatsReq,
        C_STATS_RESP => {
            need(&buf, 1)?;
            let server = match buf.get_u8() {
                0 => None,
                _ => Some(get_server(&mut buf)?),
            };
            let ust = get_ts(&mut buf)?;
            need(&buf, 40)?;
            let blocked_reads = buf.get_u64_le();
            let blocked_micros_total = buf.get_u64_le();
            let blocked_micros_max = buf.get_u64_le();
            let net_messages = buf.get_u64_le();
            let net_bytes = buf.get_u64_le();
            let counters = SnapshotCounters::decode(&mut buf)?;
            let n = get_len(&mut buf)?;
            let mut chains = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = get_key(&mut buf)?;
                let m = get_len(&mut buf)?;
                let mut orders = Vec::with_capacity(m.min(1024));
                for _ in 0..m {
                    orders.push(VersionOrd {
                        ut: get_ts(&mut buf)?,
                        tx: get_tx(&mut buf)?,
                        src: get_dc(&mut buf)?,
                    });
                }
                chains.push((key, orders));
            }
            Ctrl::StatsResp(Box::new(ServerSnapshot {
                server,
                ust,
                blocked_reads,
                blocked_micros_total,
                blocked_micros_max,
                net_messages,
                net_bytes,
                counters,
                chains,
            }))
        }
        C_STOP => Ctrl::Stop,
        other => return Err(DecodeError::UnknownTag(other)),
    };
    Ok(ctrl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{DcId, PartitionId, TxId};
    use proptest::prelude::*;

    fn sample_frames() -> Vec<Ctrl> {
        let s = ServerId::new(DcId(1), PartitionId(2));
        vec![
            Ctrl::Hello {
                server: s,
                data_port: 40_001,
            },
            Ctrl::Peers {
                client_port: 40_000,
                servers: vec![
                    (s, 40_001),
                    (ServerId::new(DcId(0), PartitionId(0)), 40_002),
                ],
            },
            Ctrl::StatsReq,
            Ctrl::StatsResp(Box::new(ServerSnapshot {
                server: Some(s),
                ust: Timestamp::from_parts(100, 3),
                blocked_reads: 7,
                blocked_micros_total: 4_200,
                blocked_micros_max: 900,
                net_messages: 12,
                net_bytes: 3_456,
                counters: SnapshotCounters {
                    msgs_handled: 1,
                    txs_coordinated: 2,
                    slice_reads: 3,
                    keys_read: 4,
                    reads_unchanged: 16,
                    reads_shipped: 17,
                    prepares: 5,
                    applied_local: 6,
                    applied_remote: 7,
                    replicate_batches: 8,
                    heartbeats: 9,
                    coalesced_frames: 10,
                    pooled_gossip_digests: 15,
                    gc_removed: 11,
                    staged_prepares: 12,
                    lane_batches: 13,
                    lane_applies: 14,
                },
                chains: vec![
                    (
                        Key(9),
                        vec![
                            VersionOrd {
                                ut: Timestamp::from_parts(90, 1),
                                tx: TxId::new(s, 4),
                                src: DcId(1),
                            },
                            VersionOrd {
                                ut: Timestamp::from_parts(80, 0),
                                tx: TxId::new(s, 2),
                                src: DcId(0),
                            },
                        ],
                    ),
                    (Key(10), vec![]),
                ],
            })),
            Ctrl::StatsResp(Box::default()),
            Ctrl::Stop,
        ]
    }

    #[test]
    fn every_ctrl_frame_roundtrips() {
        for frame in sample_frames() {
            let bytes = encode_ctrl(&frame);
            assert_eq!(decode_ctrl(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn ctrl_decode_rejects_truncation_everywhere() {
        for frame in sample_frames() {
            let bytes = encode_ctrl(&frame);
            for cut in 0..bytes.len() {
                assert!(
                    decode_ctrl(&bytes[..cut]).is_err(),
                    "{frame:?} prefix {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn ctrl_decode_rejects_unknown_tag() {
        assert_eq!(decode_ctrl(&[77u8]), Err(DecodeError::UnknownTag(77)));
    }

    proptest! {
        #[test]
        fn prop_decode_ctrl_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_ctrl(&bytes);
        }
    }
}
