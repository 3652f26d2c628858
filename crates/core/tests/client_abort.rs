//! Client-session behaviour around aborted operations (§III-C
//! unavailability): the session must return to idle with no partial
//! effects, and later transactions must be unaffected.

use paris_core::{ClientEvent, ClientSession, Mode, ReadStep};
use paris_proto::{Envelope, Msg};
use paris_types::{ClientId, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value};

fn session() -> ClientSession {
    ClientSession::new(
        ClientId::new(DcId(0), 1),
        ServerId::new(DcId(0), PartitionId(0)),
        Mode::Paris,
    )
}

fn tx(seq: u64) -> TxId {
    TxId::new(ServerId::new(DcId(0), PartitionId(0)), seq)
}

fn start(s: &mut ClientSession, seq: u64) -> TxId {
    let t = tx(seq);
    s.begin().unwrap();
    let ev = s.handle(&Envelope::new(
        s.coordinator(),
        s.id(),
        Msg::StartTxResp {
            tx: t,
            snapshot: Timestamp::from_physical_micros(100),
        },
    ));
    assert!(matches!(ev, Some(ClientEvent::Started { .. })));
    t
}

#[test]
fn abort_during_read_resets_session() {
    let mut s = session();
    let t = start(&mut s, 1);
    assert!(matches!(s.read(&[Key(1)]).unwrap(), ReadStep::Send(_)));
    let ev = s.handle(&Envelope::new(
        s.coordinator(),
        s.id(),
        Msg::OpFailed {
            tx: t,
            opening: None,
        },
    ));
    assert_eq!(ev, Some(ClientEvent::Aborted { tx: t }));
    assert!(s.open_tx().is_none(), "session is idle after abort");
    // A fresh transaction starts normally.
    let t2 = start(&mut s, 2);
    assert_eq!(s.open_tx(), Some(t2));
}

#[test]
fn abort_during_commit_leaves_no_trace_in_cache() {
    let mut s = session();
    let t = start(&mut s, 1);
    s.write(&[(Key(5), Value::from("doomed"))]).unwrap();
    s.commit().unwrap();
    let ev = s.handle(&Envelope::new(
        s.coordinator(),
        s.id(),
        Msg::OpFailed {
            tx: t,
            opening: None,
        },
    ));
    assert_eq!(ev, Some(ClientEvent::Aborted { tx: t }));
    assert_eq!(s.cache_len(), 0, "aborted writes never reach the cache");
    assert_eq!(s.hwt(), Timestamp::ZERO, "hwt untouched");
    // The doomed write is not readable in the next transaction.
    start(&mut s, 2);
    assert!(
        matches!(s.read(&[Key(5)]).unwrap(), ReadStep::Send(_)),
        "no local tier holds the aborted write"
    );
}

#[test]
fn abort_for_wrong_transaction_is_ignored() {
    let mut s = session();
    let t = start(&mut s, 1);
    let ev = s.handle(&Envelope::new(
        s.coordinator(),
        s.id(),
        Msg::OpFailed {
            tx: tx(99),
            opening: None,
        },
    ));
    assert!(ev.is_none());
    assert_eq!(s.open_tx(), Some(t), "current transaction unaffected");
}

#[test]
fn counts_do_not_include_aborts_as_commits() {
    let mut s = session();
    let t = start(&mut s, 1);
    s.commit().unwrap();
    s.handle(&Envelope::new(
        s.coordinator(),
        s.id(),
        Msg::OpFailed {
            tx: t,
            opening: None,
        },
    ));
    assert_eq!(s.counts(), (1, 0), "one started, none committed");
}
