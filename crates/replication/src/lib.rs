#![warn(missing_docs)]

//! Replication by prefix shipping.
//!
//! The journal already *is* a replication log: every WAL record is
//! framed with its monotonic op sequence number and sequence epoch,
//! and checkpoint snapshots name the sequence they cover. This crate
//! provides the transport-agnostic machinery that turns that log into
//! a leader/follower fleet:
//!
//! * [`msg`] — the `ReplMsg` wire messages a leader pushes after a
//!   `Replicate` subscription (snapshot stream, op batches,
//!   heartbeats), framed exactly like every other protocol frame;
//! * [`tail`] — [`WalTail`], a read-only cursor over the leader's live
//!   WAL file that converts durable records into shippable batches and
//!   detects checkpoint truncation under its feet;
//! * [`admit`] — the follower-side admission check: exactly-once,
//!   in-order sequence checking plus epoch fencing against the
//!   replica's own position, so a spliced stream or a deposed leader's
//!   records are refused with a typed error instead of silently
//!   applied;
//! * [`error`] — typed [`ReplError`]s shared by both sides.
//!
//! The TCP endpoints themselves (the leader's ship loop serving a
//! `Replicate` request, the follower runtime applying into a live
//! server) live in the `server` crate, which composes these pieces
//! with its existing connection handling, MVCC publication and its one
//! commit watermark — the position group commit makes durable, ship
//! loops wait on, and a replica's applied batches advance.

pub mod error;
pub mod msg;
pub mod tail;

pub use error::{ReplError, ReplResult};
pub use msg::{ReplMsg, ShippedRecord};
pub use tail::{TailStep, WalTail};

/// Admits a shipped batch into a replica positioned at `applied_seq`
/// under `epoch`: each record must carry the exact next sequence number
/// and an epoch no older than the one before it (a newer epoch — a
/// promotion seen through the stream — raises the fence for the rest of
/// the batch). The whole batch is checked before the caller applies any
/// of it, so a gap, a regression or a fenced record anywhere refuses it
/// whole and the replica resubscribes from the same position.
pub fn admit(applied_seq: u64, epoch: u64, records: &[ShippedRecord]) -> ReplResult<()> {
    let (mut next, mut epoch) = (applied_seq + 1, epoch);
    for r in records {
        if r.epoch < epoch {
            return Err(ReplError::EpochFenced {
                local: epoch,
                got: r.epoch,
            });
        }
        if r.seq > next {
            return Err(ReplError::SequenceGap {
                expected: next,
                got: r.seq,
            });
        }
        if r.seq < next {
            return Err(ReplError::SequenceRegression {
                expected: next,
                got: r.seq,
            });
        }
        next += 1;
        epoch = r.epoch;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(pairs: &[(u64, u64)]) -> Vec<ShippedRecord> {
        pairs
            .iter()
            .map(|&(seq, epoch)| ShippedRecord {
                seq,
                epoch,
                payload: Vec::new(),
            })
            .collect()
    }

    fn stream(seqs: &[u64]) -> Vec<ShippedRecord> {
        at(&seqs.iter().map(|&s| (s, 1)).collect::<Vec<_>>())
    }

    #[test]
    fn in_order_stream_is_admitted() {
        admit(0, 1, &stream(&[1, 2, 3, 4])).unwrap();
    }

    #[test]
    fn spliced_stream_with_a_hole_is_a_typed_gap() {
        // Ops 1,2,4,5: record 3 was spliced out in flight. Applying 4
        // and 5 anyway would silently lose op 3.
        match admit(0, 1, &stream(&[1, 2, 4, 5])).unwrap_err() {
            ReplError::SequenceGap { expected, got } => assert_eq!((expected, got), (3, 4)),
            other => panic!("expected gap, got {other}"),
        }
    }

    #[test]
    fn replayed_prefix_is_a_typed_regression() {
        // Ops 1,2,3,2: a duplicated (re-spliced) record must not
        // double-apply.
        match admit(0, 1, &stream(&[1, 2, 3, 2])).unwrap_err() {
            ReplError::SequenceRegression { expected, got } => {
                assert_eq!((expected, got), (4, 2))
            }
            other => panic!("expected regression, got {other}"),
        }
    }

    #[test]
    fn resume_position_survives_refusal() {
        // The replica applied 1 and 2; a refused batch leaves it there,
        // and the correct next record is still admissible.
        assert!(admit(2, 1, &stream(&[9])).is_err());
        admit(2, 1, &stream(&[3])).unwrap();
    }

    #[test]
    fn old_epoch_records_are_fenced() {
        match admit(10, 2, &at(&[(11, 1)])).unwrap_err() {
            ReplError::EpochFenced { local, got } => assert_eq!((local, got), (2, 1)),
            other => panic!("expected fence, got {other}"),
        }
    }

    #[test]
    fn newer_epoch_is_adopted_mid_batch() {
        // A promotion observed through the stream: the seal record
        // arrives framed with the new epoch and raises the fence, so
        // epoch-1 records are refused from there on.
        admit(0, 1, &at(&[(1, 1), (2, 2), (3, 2)])).unwrap();
        assert!(matches!(
            admit(0, 1, &at(&[(1, 1), (2, 2), (3, 1)])),
            Err(ReplError::EpochFenced { local: 2, got: 1 })
        ));
    }

    #[test]
    fn resubscription_resumes_from_applied_seq() {
        // After a disconnect the replica, at 3, admits exactly the tail.
        assert!(admit(3, 1, &stream(&[3])).is_err(), "already applied");
        admit(3, 1, &stream(&[4])).unwrap();
    }

    #[test]
    fn a_bad_record_in_the_middle_refuses_the_whole_batch() {
        // Every record but the deposed leader's one is in order and in
        // epoch, and the prefix before it passes alone; the batch is
        // still one verdict.
        let batch = at(&[(5, 2), (6, 2), (7, 1), (8, 2), (9, 2)]);
        assert!(matches!(
            admit(4, 2, &batch),
            Err(ReplError::EpochFenced { local: 2, got: 1 })
        ));
        admit(4, 2, &batch[..2]).unwrap();
    }
}
