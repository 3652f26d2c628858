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
//! paper-facing properties: `encoded_len`/`metadata` keep measuring
//! exactly the algorithmic messages of Table I. The frames are built from
//! the same field put/get pairs as the protocol codec ([`crate::wire`]).

use bytes::{Bytes, BytesMut};
use paris_types::{Key, ServerId, Timestamp, VersionOrd};

use crate::varint;
use crate::wire::{
    finish, get_dc, get_key, get_opt, get_server, get_ts, get_tx, get_u8, get_vec, put_dc, put_opt,
    put_server, put_tx, put_vec, DecodeError, Sink,
};

/// Defines the counter block and its encode and decode walks from one
/// field list, so the three cannot disagree on the order.
macro_rules! snapshot_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// The flat protocol/pipeline counter block a child reports
        /// alongside its snapshot — a wire-stable mirror of the server's
        /// internal statistics (message counts, 2PC roles, replication
        /// applies) plus the per-shard commit-pipeline counters, so the
        /// parent can aggregate a cluster-wide view without reaching into
        /// child processes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct SnapshotCounters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl SnapshotCounters {
            fn encode(&self, buf: &mut BytesMut) {
                $(buf.varint(self.$field);)*
            }

            fn decode(r: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(SnapshotCounters {
                    $($field: varint::get(r)?,)*
                })
            }
        }
    };
}

snapshot_counters! {
    /// Messages handled, any kind.
    msgs_handled,
    /// Update transactions committed with this server as coordinator.
    txs_coordinated,
    /// Slice reads served.
    slice_reads,
    /// Keys returned by slice reads.
    keys_read,
    /// Keys answered `Unchanged` (the client's stamp named the visible
    /// version).
    reads_unchanged,
    /// Keys answered with a full version.
    reads_shipped,
    /// Prepares handled.
    prepares,
    /// Transactions applied locally (as 2PC participant).
    applied_local,
    /// Transactions applied from remote replication.
    applied_remote,
    /// Replication batches sent.
    replicate_batches,
    /// Heartbeats sent.
    heartbeats,
    /// Logical frames folded inside coalesced messages.
    coalesced_frames,
    /// Coalescer flushes on this node's links released by stable-time
    /// progress.
    crossing_flushes,
    /// Coalescer flushes released by the size bound.
    size_flushes,
    /// Coalescer flushes released by a deadline (the ceiling).
    deadline_flushes,
    /// Versions removed by GC.
    gc_removed,
    /// Prepares staged through the commit pipeline.
    staged_prepares,
    /// Replication frames applied through the pipeline's lanes.
    lane_batches,
    /// Versions inserted through the pipeline's lanes.
    lane_applies,
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
        Ctrl::StatsReq => buf.tag(C_STATS_REQ),
        Ctrl::StatsResp(snap) => {
            buf.tag(C_STATS_RESP);
            put_opt(&mut buf, &snap.server, |buf, s| put_server(buf, *s));
            buf.timestamp(snap.ust);
            buf.varint(snap.blocked_reads);
            buf.varint(snap.blocked_micros_total);
            buf.varint(snap.blocked_micros_max);
            buf.varint(snap.net_messages);
            buf.varint(snap.net_bytes);
            snap.counters.encode(&mut buf);
            put_vec(&mut buf, &snap.chains, |buf, (key, orders)| {
                buf.key(*key);
                put_vec(buf, orders, put_order);
            });
        }
        Ctrl::Stop => buf.tag(C_STOP),
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
        C_STATS_REQ => Ctrl::StatsReq,
        C_STATS_RESP => Ctrl::StatsResp(Box::new(ServerSnapshot {
            server: get_opt(r, get_server)?,
            ust: get_ts(r)?,
            blocked_reads: varint::get(r)?,
            blocked_micros_total: varint::get(r)?,
            blocked_micros_max: varint::get(r)?,
            net_messages: varint::get(r)?,
            net_bytes: varint::get(r)?,
            counters: SnapshotCounters::decode(r)?,
            chains: get_vec(r, |r| Ok((get_key(r)?, get_vec(r, get_order)?)))?,
        })),
        C_STOP => Ctrl::Stop,
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
                    reads_unchanged: 16,
                    lane_applies: 300,
                    ..SnapshotCounters::default()
                },
                chains: vec![
                    (Key(9), vec![ord(90, 1, 4, 1), ord(80, 0, 2, 0)]),
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
