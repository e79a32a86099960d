//! Leader-side shipping: serving a `Replicate` subscription.
//!
//! A subscription takes its connection over as a one-way push stream
//! of [`ReplMsg`] frames: `Ops` batches from the subscriber's position
//! on, as group commits complete, and a heartbeat whenever nothing new
//! is durable. The records are the frames of the published head's
//! history — the bytes the leader's WAL holds for each op, from op 1
//! on, since a checkpoint compacts nothing away — and only those at or
//! below the durable commit watermark are ever shipped. Shipping takes
//! no state lock: the position comes from the watermark, the records
//! from a handle on the history's append-only log.

use super::dispatch::err;
use super::Shared;
use crate::proto::{self, ErrorCode};
use gkbms::journal::decode_framed;
use replication::{ReplMsg, ShippedRecord};
use std::io::{self, Write};
use std::sync::atomic::Ordering;
use storage::record::HEADER_LEN;

/// Payload-byte cap per shipped `Ops` batch.
const SHIP_BATCH_BYTES: usize = 256 * 1024;

/// Writes one replication stream frame, counting shipped bytes.
fn ship(stream: &mut impl Write, msg: &ReplMsg) -> io::Result<()> {
    let encoded = msg.encode();
    obs::counter!(
        "gkbms_replication_bytes_shipped_total",
        "Replication stream bytes shipped to subscribers, including frame headers"
    )
    .add((encoded.len() + HEADER_LEN) as u64);
    proto::write_frame(stream, &encoded)
}

/// Serves one replication subscription: the connection becomes a push
/// stream of [`ReplMsg`] frames until the subscriber disconnects or
/// the server shuts down. Handshake refusals (fencing, no journal)
/// are written as plain `Response` frames, whose opcodes are
/// disjoint from the stream's.
pub(super) fn serve_replication(
    stream: &mut impl Write,
    shared: &Shared,
    sub_seq: u64,
    sub_epoch: u64,
) {
    let (_, epoch) = shared.commit.current();
    let refusal = if sub_epoch > epoch {
        obs::counter!(
            "gkbms_replication_fenced_total",
            "Replication records or subscriptions refused by sequence-epoch fencing"
        )
        .inc();
        Some(err(
            ErrorCode::Fenced,
            format!("subscriber epoch {sub_epoch} outranks leader epoch {epoch}"),
        ))
    } else if shared.journal_dir.is_none() {
        // A journal-less leader's ops are not durable, and its `Load`
        // would swap the lineage under a subscriber.
        Some(err(
            ErrorCode::Rejected,
            "replication requires a journaled leader (start with --journal)",
        ))
    } else {
        None
    };
    if let Some(refusal) = refusal {
        let _ = proto::write_frame(stream, &refusal.encode());
        return;
    }
    let subscribers = obs::gauge!(
        "gkbms_replication_subscribers",
        "Live replication subscriptions"
    );
    subscribers.add(1);
    let _ = ship_stream(stream, shared, sub_seq);
    subscribers.add(-1);
}

/// The ship loop proper: after the `Hello`, waits for the watermark
/// to pass the subscriber's position and ships the head history's
/// frames up to it, one `Ops` batch per wake, or a heartbeat when the
/// wait times out. Returns when the subscriber disconnects (any write
/// error) or the server drains.
fn ship_stream(stream: &mut impl Write, shared: &Shared, sub_seq: u64) -> io::Result<()> {
    let (durable, epoch) = shared.commit.current();
    ship(
        stream,
        &ReplMsg::Hello {
            leader_seq: durable,
            epoch,
        },
    )?;
    let mut next = sub_seq.saturating_add(1);
    while !shared.shutdown.load(Ordering::SeqCst) {
        let (durable, epoch) = shared
            .commit
            .wait_beyond(next - 1, shared.cfg.poll_interval);
        // The head is published before the watermark moves past it, so
        // its history reaches `durable`. Only the log handle is kept: a
        // subscription holds no version, nor its lemmas, across a wait
        // or a socket write.
        let history = shared.chain.head().data().history.clone();
        let mut records = Vec::new();
        let mut bytes = 0;
        while next <= durable && bytes < SHIP_BATCH_BYTES {
            let frame = history.get(next as usize - 1).map(|f| decode_framed(f));
            let Some(Ok((seq, epoch, payload))) = frame else {
                break;
            };
            bytes += payload.len();
            records.push(ShippedRecord {
                seq,
                epoch,
                payload: payload.to_vec(),
            });
            next += 1;
        }
        let msg = if records.is_empty() {
            // Keeps the subscriber's view of the committed position
            // fresh and detects dead peers by the write failing.
            ReplMsg::Heartbeat {
                leader_seq: durable,
                epoch,
            }
        } else {
            obs::counter!(
                "gkbms_replication_records_shipped_total",
                "Committed records shipped to subscribers"
            )
            .add(records.len() as u64);
            ReplMsg::Ops {
                leader_seq: durable,
                records,
            }
        };
        ship(stream, &msg)?;
    }
    Ok(())
}
