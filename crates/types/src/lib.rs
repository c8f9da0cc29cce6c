//! Identifiers, virtual time, wire encoding, and protocol messages shared by
//! every crate in the BFT workspace.

pub mod framing;
pub mod ids;
pub mod messages;
pub mod time;
pub mod wire;

pub use framing::{encode_frame, frame_bytes, FrameDecoder, FrameError};
pub use ids::{ClientId, GroupParams, NodeId, ReplicaId, SeqNo, Timestamp, View};
pub use messages::{
    null_request_digest, Auth, AuthContent, BatchEntry, Checkpoint, Commit, Data, DigestMemo,
    Fetch, Message, MetaData, NCSetEntry, NewKey, NewView, NewViewDecision, NewViewPk,
    NotCommitted, NotCommittedPrimary, PSetEntry, PrePrepare, Prepare, PreparedProof, QSetEntry,
    QueryStable, Reply, ReplyBody, ReplyStable, Request, Requester, StatusActive, StatusPending,
    SubPartInfo, ViewChange, ViewChangeAck, ViewChangePk,
};
pub use time::{SimDuration, SimTime};
pub use wire::{Wire, WireError};

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn arb_request() -> impl Strategy<Value = Request> {
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64),
            any::<bool>(),
            proptest::option::of(any::<u32>()),
        )
            .prop_map(|(c, t, op, ro, replier)| Request {
                requester: Requester::Client(ClientId(c)),
                timestamp: Timestamp(t),
                operation: Bytes::from(op),
                read_only: ro,
                replier: replier.map(ReplicaId),
                auth: Auth::None,
                digest_memo: DigestMemo::new(),
            })
    }

    proptest! {
        #[test]
        fn request_wire_roundtrip(req in arb_request()) {
            let bytes = req.encoded();
            let mut slice = bytes.as_slice();
            let back = Request::decode(&mut slice).unwrap();
            prop_assert_eq!(back, req);
            prop_assert!(slice.is_empty());
        }

        #[test]
        fn request_digest_injective_on_fields(r1 in arb_request(), r2 in arb_request()) {
            // Distinct content must (practically) produce distinct digests;
            // identical content must produce identical digests.
            if r1 == r2 {
                prop_assert_eq!(r1.digest(), r2.digest());
            } else {
                prop_assert_ne!(r1.digest(), r2.digest());
            }
        }

        #[test]
        fn message_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Adversarial bytes must be rejected gracefully, never panic.
            let mut slice = bytes.as_slice();
            let _ = Message::decode(&mut slice);
        }

        #[test]
        fn prepare_roundtrip(v in any::<u64>(), n in any::<u64>(), r in any::<u32>()) {
            let p = Prepare {
                view: View(v),
                seq: SeqNo(n),
                digest: bft_crypto::digest(b"d"),
                replica: ReplicaId(r),
                auth: Auth::None,
            };
            let bytes = Message::Prepare(p.clone()).encoded();
            let mut slice = bytes.as_slice();
            prop_assert_eq!(Message::decode(&mut slice).unwrap(), Message::Prepare(p));
        }
    }
}
