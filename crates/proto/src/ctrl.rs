//! Control-plane frames of the socket deployment.
//!
//! A multi-process deployment needs a thin out-of-band channel next to the
//! protocol traffic: the parent process spawns one child per partition
//! server, learns each child's data port, distributes the peer map, pulls
//! run statistics and the UST, and asks for graceful shutdown. These
//! frames travel on a dedicated control connection per child, framed
//! exactly like protocol envelopes (length prefix,
//! [`crate::wire::MAX_FRAME_LEN`] bound, magic + version preamble) but in
//! their own tag space so a control frame can never be confused with a
//! [`crate::Msg`].
//!
//! Keeping `Ctrl` separate from `Msg` preserves the protocol codec's
//! paper-facing properties: `encoded_len`/`metadata` keep measuring
//! exactly the algorithmic messages of Table I. The frames are built from
//! the same field put/get pairs as the protocol codec ([`crate::wire`]).
//!
//! Control frames only travel between a parent and the children it
//! spawned from its own build, so their layout (the [`ServerSnapshot`]
//! field order, say) may change without a
//! [`PROTOCOL_VERSION`](crate::wire::PROTOCOL_VERSION) bump.

use bytes::{Bytes, BytesMut};
use paris_types::{Key, ServerId, Timestamp, VersionOrd};

use crate::varint;
use crate::wire::{
    finish, get_dc, get_key, get_opt, get_server, get_ts, get_tx, get_u8, get_vec, put_dc, put_opt,
    put_server, put_tx, put_vec, DecodeError, Sink,
};

/// Defines the counter block and its encode and decode walks from one
/// field list, so the three cannot disagree on the order.
macro_rules! server_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counters exposed by a server: message counts, 2PC roles,
        /// replication applies and BPR blocking. The server keeps them,
        /// every backend folds them into its cluster-wide statistics, and
        /// a socket child carries them to its parent in a
        /// [`ServerSnapshot`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ServerStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl ServerStats {
            fn encode(&self, buf: &mut BytesMut) {
                $(buf.varint(self.$field);)*
            }

            fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(ServerStats {
                    $($field: varint::get(r)?,)*
                })
            }
        }
    };
}

server_stats! {
    /// Messages handled, any kind.
    msgs_handled,
    /// Update transactions whose commit time this server decided.
    txs_coordinated,
    /// Slice reads served (including after unblocking).
    slice_reads,
    /// Keys returned by slice reads.
    keys_read,
    /// Of those, keys answered `Unchanged`: the client's stamp named the
    /// version visible in the snapshot, so no value travelled.
    /// `reads_unchanged / (reads_unchanged + reads_shipped)` is the
    /// validation hit ratio.
    reads_unchanged,
    /// Keys answered with a full version (the rest had no visible
    /// version).
    reads_shipped,
    /// Reads a coordinator fanned out: `ReadReq`s handled. Each is
    /// answered once and gathers the `ReadSliceResp`s of the partitions it
    /// sent to; a read whose client sent its slices itself counts none.
    coordinator_reads,
    /// Proposals made: prepares and one-phase commits handled.
    prepares,
    /// Transactions applied locally (as 2PC participant).
    applied_local,
    /// Transactions applied from remote replication.
    applied_remote,
    /// Replication batches sent.
    replicate_batches,
    /// Heartbeats (empty `Replicate` frames) sent.
    heartbeats,
    /// Logical frames received folded inside coalesced
    /// `ReplicateBatch`/`GossipDigest` messages (each such message counts
    /// its `frames`, so `coalesced_frames - messages` is the wire saving).
    coalesced_frames,
    /// Reads that had to block (BPR only).
    blocked_reads,
    /// Total microseconds reads spent blocked (BPR only).
    blocked_micros_total,
    /// Maximum single blocking duration (BPR only).
    blocked_micros_max,
    /// Versions removed by GC.
    gc_removed,
    /// `CommitTx` messages for a transaction with no prepared share here:
    /// the decision reached a server that lost (or never had) the
    /// prepare, so its writes are missing.
    orphan_commits,
    /// Slice reads refused because their snapshot was below the horizon
    /// GC last trimmed this server's chains to (`S_old` as of its last GC
    /// tick) — in PaRiS, a client-picked snapshot GC passed before the
    /// read arrived; the client re-sends a refused first read in the start
    /// form.
    refused_slices,
}

/// One server as its observers see it: its stable frontier, its counter
/// block, its node's wire accounting and flush mix, and (when asked for)
/// the retained version orders of every key — the checker's ground truth
/// and the convergence oracle's input. The thread backend's server loops
/// answer with one in-process; a socket child sends one in
/// [`Ctrl::StatsResp`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerSnapshot {
    /// The reporting server.
    pub server: Option<ServerId>,
    /// Its current universal stable time.
    pub ust: Timestamp,
    /// Its protocol counters.
    pub stats: ServerStats,
    /// Wire messages this server's node sent (0 where the transport is
    /// shared and metered as a whole).
    pub net_messages: u64,
    /// Wire bytes this server's node sent.
    pub net_bytes: u64,
    /// Coalescer flushes on this node's links released by stable-time
    /// progress.
    pub crossing_flushes: u64,
    /// Coalescer flushes released by the size bound.
    pub size_flushes: u64,
    /// Coalescer flushes released by a deadline (the ceiling).
    pub deadline_flushes: u64,
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
    /// Parent → child: report your statistics.
    StatsReq {
        /// Whether to add the store's version orders (the snapshot's chains).
        chains: bool,
    },
    /// Child → parent: the requested snapshot.
    StatsResp(Box<ServerSnapshot>),
    /// Parent → child: report the UST your server loop last published.
    UstReq,
    /// Child → parent: the published UST.
    UstResp(Timestamp),
    /// Parent → child: shut down gracefully and exit.
    Stop,
}

// Control frame tags (a tag space distinct from the `Msg` codec's).
const C_HELLO: u8 = 1;
const C_PEERS: u8 = 2;
const C_STATS_REQ: u8 = 3;
const C_STATS_RESP: u8 = 4;
const C_STOP: u8 = 5;
const C_UST_REQ: u8 = 6;
const C_UST_RESP: u8 = 7;

fn put_port(buf: &mut BytesMut, (server, port): &(ServerId, u16)) {
    put_server(buf, *server);
    buf.varint(u64::from(*port));
}

fn get_port(r: &mut &[u8]) -> Result<(ServerId, u16), DecodeError> {
    Ok((get_server(r)?, varint::get_u16(r)?))
}

fn put_order(buf: &mut BytesMut, ord: &VersionOrd) {
    buf.timestamp(ord.ut);
    put_tx(buf, ord.tx);
    put_dc(buf, ord.src);
}

fn get_order(r: &mut &[u8]) -> Result<VersionOrd, DecodeError> {
    Ok(VersionOrd {
        ut: get_ts(r)?,
        tx: get_tx(r)?,
        src: get_dc(r)?,
    })
}

/// Encodes a control frame payload.
pub fn encode_ctrl(ctrl: &Ctrl) -> Bytes {
    let mut buf = BytesMut::new();
    match ctrl {
        Ctrl::Hello { server, data_port } => {
            buf.tag(C_HELLO);
            put_port(&mut buf, &(*server, *data_port));
        }
        Ctrl::Peers {
            client_port,
            servers,
        } => {
            buf.tag(C_PEERS);
            buf.varint(u64::from(*client_port));
            put_vec(&mut buf, servers, put_port);
        }
        Ctrl::StatsReq { chains } => {
            buf.tag(C_STATS_REQ);
            buf.u8(u8::from(*chains));
        }
        Ctrl::StatsResp(snap) => {
            buf.tag(C_STATS_RESP);
            put_opt(&mut buf, &snap.server, |buf, s| put_server(buf, *s));
            buf.timestamp(snap.ust);
            snap.stats.encode(&mut buf);
            buf.varint(snap.net_messages);
            buf.varint(snap.net_bytes);
            buf.varint(snap.crossing_flushes);
            buf.varint(snap.size_flushes);
            buf.varint(snap.deadline_flushes);
            put_vec(&mut buf, &snap.chains, |buf, (key, orders)| {
                buf.key(*key);
                put_vec(buf, orders, put_order);
            });
        }
        Ctrl::Stop => buf.tag(C_STOP),
        Ctrl::UstReq => buf.tag(C_UST_REQ),
        Ctrl::UstResp(ust) => {
            buf.tag(C_UST_RESP);
            buf.timestamp(*ust);
        }
    }
    buf.freeze()
}

/// Decodes a control frame payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated buffers, unknown tags,
/// impossible lengths or trailing bytes — never panics, whatever the
/// input.
pub fn decode_ctrl(bytes: &[u8]) -> Result<Ctrl, DecodeError> {
    let r = &mut &*bytes;
    let ctrl = match get_u8(r)? {
        C_HELLO => {
            let (server, data_port) = get_port(r)?;
            Ctrl::Hello { server, data_port }
        }
        C_PEERS => Ctrl::Peers {
            client_port: varint::get_u16(r)?,
            servers: get_vec(r, get_port)?,
        },
        C_STATS_REQ => match get_u8(r)? {
            0 => Ctrl::StatsReq { chains: false },
            1 => Ctrl::StatsReq { chains: true },
            other => return Err(DecodeError::UnknownTag(other)),
        },
        C_STATS_RESP => Ctrl::StatsResp(Box::new(ServerSnapshot {
            server: get_opt(r, get_server)?,
            ust: get_ts(r)?,
            stats: ServerStats::decode(r)?,
            net_messages: varint::get(r)?,
            net_bytes: varint::get(r)?,
            crossing_flushes: varint::get(r)?,
            size_flushes: varint::get(r)?,
            deadline_flushes: varint::get(r)?,
            chains: get_vec(r, |r| Ok((get_key(r)?, get_vec(r, get_order)?)))?,
        })),
        C_STOP => Ctrl::Stop,
        C_UST_REQ => Ctrl::UstReq,
        C_UST_RESP => Ctrl::UstResp(get_ts(r)?),
        other => return Err(DecodeError::UnknownTag(other)),
    };
    finish(r)?;
    Ok(ctrl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{DcId, PartitionId, TxId};
    use proptest::prelude::*;

    fn sample_frames() -> Vec<Ctrl> {
        let s = ServerId::new(DcId(1), PartitionId(2));
        let ord = |physical, logical, seq, src| VersionOrd {
            ut: Timestamp::from_parts(physical, logical),
            tx: TxId::new(s, seq),
            src: DcId(src),
        };
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
            Ctrl::StatsReq { chains: false },
            Ctrl::StatsReq { chains: true },
            // Every counter non-zero and distinct, so a field the walks
            // drop or swap cannot roundtrip.
            Ctrl::StatsResp(Box::new(ServerSnapshot {
                server: Some(s),
                ust: Timestamp::from_parts(100, 3),
                stats: ServerStats {
                    msgs_handled: 1,
                    txs_coordinated: 2,
                    slice_reads: 3,
                    keys_read: 4,
                    reads_unchanged: 5,
                    reads_shipped: 6,
                    prepares: 7,
                    applied_local: 8,
                    applied_remote: 9,
                    replicate_batches: 10,
                    heartbeats: 11,
                    coalesced_frames: 12,
                    blocked_reads: 13,
                    blocked_micros_total: 4_200,
                    blocked_micros_max: 15,
                    gc_removed: 16,
                    orphan_commits: 17,
                    coordinator_reads: 19,
                    refused_slices: 23,
                },
                net_messages: 18,
                net_bytes: 3_456,
                crossing_flushes: 20,
                size_flushes: 21,
                deadline_flushes: 22,
                chains: vec![
                    (Key(9), vec![ord(90, 1, 4, 1), ord(80, 0, 2, 0)]),
                    (Key(10), vec![]),
                ],
            })),
            Ctrl::StatsResp(Box::default()),
            Ctrl::Stop,
            Ctrl::UstReq,
            Ctrl::UstResp(Timestamp::from_parts(1_700, 2)),
            Ctrl::UstResp(Timestamp::ZERO),
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
    fn ctrl_decode_rejects_trailing_bytes_and_unknown_option_bytes() {
        for frame in sample_frames() {
            let mut bytes = encode_ctrl(&frame).to_vec();
            bytes.push(0);
            assert_eq!(
                decode_ctrl(&bytes),
                Err(DecodeError::BadLength),
                "{frame:?}"
            );
        }
        // The byte after the StatsResp tag says whether a server follows.
        let mut bytes = encode_ctrl(&Ctrl::StatsResp(Box::default())).to_vec();
        assert_eq!(bytes[1], 0);
        bytes[1] = 2;
        assert_eq!(decode_ctrl(&bytes), Err(DecodeError::UnknownTag(2)));
        // So does the byte after the StatsReq tag whether chains follow.
        let mut bytes = encode_ctrl(&Ctrl::StatsReq { chains: true }).to_vec();
        assert_eq!(bytes[1], 1);
        bytes[1] = 2;
        assert_eq!(decode_ctrl(&bytes), Err(DecodeError::UnknownTag(2)));
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
