//! Leader-side shipping: serving a `Replicate` subscription.
//!
//! A subscription takes its connection over as a one-way push stream
//! of [`ReplMsg`] frames — snapshot transfer when the subscriber is
//! behind the checkpoint truncation horizon, then the WAL tail, then
//! live pushes as group commits complete. Only records at or below the
//! durable commit watermark are ever shipped. Shipping reads no state:
//! the position comes from the watermark, the horizon and the snapshot
//! from the snapshot file, the records from the WAL file, both in the
//! journal directory the server fixed at start.

use super::dispatch::err;
use super::Shared;
use crate::proto::{self, ErrorCode, Response};
use gkbms::journal::{snapshot_past, WAL_FILE};
use replication::{ReplMsg, TailStep, WalTail};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use storage::record::HEADER_LEN;

/// Payload-byte cap per shipped `Ops` batch.
const SHIP_BATCH_BYTES: usize = 256 * 1024;
/// Payload-byte cap per `SnapshotChunk` frame.
const SNAPSHOT_CHUNK_BYTES: usize = 256 * 1024;

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

/// A snapshot staged for transfer to a far-behind subscriber: the op
/// sequence it covers, and its records.
type ShipSnapshot = (u64, Vec<Vec<u8>>);

/// Decides how a subscription at `sub_seq` starts: straight from the
/// WAL tail, or snapshot-first when the subscriber is behind the
/// checkpoint truncation horizon — the covered sequence the snapshot
/// file itself leads with (see [`snapshot_past`]). A checkpoint that
/// truncates the WAL after this plan is seen by the tail
/// ([`TailStep::Truncated`]) and re-planned.
fn plan_stream(dir: &Path, sub_seq: u64) -> Result<Option<ShipSnapshot>, Response> {
    snapshot_past(dir, sub_seq).map_err(|e| err(ErrorCode::Internal, format!("snapshot read: {e}")))
}

/// Serves one replication subscription: the connection becomes a push
/// stream of [`ReplMsg`] frames until the subscriber disconnects or
/// the server shuts down. Handshake refusals (fencing, no journal)
/// are written as plain [`Response`] frames, whose opcodes are
/// disjoint from the stream's.
pub(super) fn serve_replication(
    stream: &mut impl Write,
    shared: &Shared,
    sub_seq: u64,
    sub_epoch: u64,
) {
    let (_, epoch) = shared.commit.current();
    if sub_epoch > epoch {
        obs::counter!(
            "gkbms_replication_fenced_total",
            "Replication records or subscriptions refused by sequence-epoch fencing"
        )
        .inc();
        let refusal = err(
            ErrorCode::Fenced,
            format!("subscriber epoch {sub_epoch} outranks leader epoch {epoch}"),
        );
        let _ = proto::write_frame(stream, &refusal.encode());
        return;
    }
    let planned = match &shared.journal_dir {
        Some(dir) => plan_stream(dir, sub_seq).map(|snap| (dir, snap)),
        None => Err(err(
            ErrorCode::Rejected,
            "replication requires a journaled leader (start with --journal)",
        )),
    };
    let (dir, snapshot) = match planned {
        Ok(planned) => planned,
        Err(refusal) => {
            let _ = proto::write_frame(stream, &refusal.encode());
            return;
        }
    };
    let subscribers = obs::gauge!(
        "gkbms_replication_subscribers",
        "Live replication subscriptions"
    );
    subscribers.add(1);
    let _ = ship_stream(stream, shared, dir, sub_seq, snapshot);
    subscribers.add(-1);
}

fn ship_snapshot(
    stream: &mut impl Write,
    shared: &Shared,
    (covered_seq, payloads): ShipSnapshot,
) -> io::Result<()> {
    obs::counter!(
        "gkbms_replication_snapshots_shipped_total",
        "Checkpoint snapshots streamed to far-behind subscribers"
    )
    .inc();
    let (_, epoch) = shared.commit.current();
    ship(stream, &ReplMsg::SnapshotStart { covered_seq, epoch })?;
    let mut chunk: Vec<Vec<u8>> = Vec::new();
    let mut bytes = 0usize;
    for p in payloads {
        bytes += p.len();
        chunk.push(p);
        if bytes >= SNAPSHOT_CHUNK_BYTES {
            ship(
                stream,
                &ReplMsg::SnapshotChunk {
                    payloads: std::mem::take(&mut chunk),
                },
            )?;
            bytes = 0;
        }
    }
    if !chunk.is_empty() {
        ship(stream, &ReplMsg::SnapshotChunk { payloads: chunk })?;
    }
    ship(stream, &ReplMsg::SnapshotEnd)
}

/// The ship loop proper: optional snapshot transfer, then the WAL
/// tail, then live pushes as group commits complete. Returns when the
/// subscriber disconnects (any write error) or the server drains.
fn ship_stream(
    stream: &mut impl Write,
    shared: &Shared,
    dir: &Path,
    sub_seq: u64,
    mut snapshot: Option<ShipSnapshot>,
) -> io::Result<()> {
    let (durable, epoch) = shared.commit.current();
    ship(
        stream,
        &ReplMsg::Hello {
            leader_seq: durable,
            epoch,
        },
    )?;
    let mut start_seq = sub_seq + 1;
    'stream: loop {
        if let Some(snap) = snapshot.take() {
            start_seq = snap.0 + 1;
            ship_snapshot(stream, shared, snap)?;
        }
        let mut tail = WalTail::new(dir.join(WAL_FILE), start_seq);
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let (durable, epoch) = shared.commit.wait_beyond(
                tail.resume_seq().saturating_sub(1),
                shared.cfg.poll_interval,
            );
            match tail.poll(durable, SHIP_BATCH_BYTES) {
                Ok(TailStep::Records(records)) => {
                    obs::counter!(
                        "gkbms_replication_records_shipped_total",
                        "Committed WAL records shipped to subscribers"
                    )
                    .add(records.len() as u64);
                    ship(
                        stream,
                        &ReplMsg::Ops {
                            leader_seq: durable,
                            records,
                        },
                    )?;
                }
                Ok(TailStep::Idle) => {
                    // Keeps the subscriber's view of the committed
                    // position fresh and detects dead peers by the
                    // write failing.
                    ship(
                        stream,
                        &ReplMsg::Heartbeat {
                            leader_seq: durable,
                            epoch,
                        },
                    )?;
                }
                Ok(TailStep::Truncated) => {
                    // A checkpoint compacted the WAL under the cursor.
                    // Re-plan from the subscriber's position: rescan
                    // the new file, or fall back to snapshot transfer
                    // if the needed range was truncated away.
                    match plan_stream(dir, tail.resume_seq().saturating_sub(1)) {
                        Ok(snap) => {
                            start_seq = tail.resume_seq();
                            snapshot = snap;
                            continue 'stream;
                        }
                        Err(refusal) => {
                            let _ = proto::write_frame(stream, &refusal.encode());
                            return Ok(());
                        }
                    }
                }
                Err(_) => return Ok(()),
            }
        }
    }
}
