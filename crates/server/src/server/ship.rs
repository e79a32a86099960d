//! Leader-side shipping: serving a `Replicate` subscription.
//!
//! A subscription takes its connection over as a one-way push stream
//! of [`ReplMsg`] frames — snapshot transfer when the subscriber is
//! behind the checkpoint truncation horizon, then the WAL tail, then
//! live pushes as group commits complete. Only records at or below the
//! durable commit watermark are ever shipped.

use super::dispatch::err;
use super::{read_state, Shared};
use crate::proto::{self, ErrorCode, Response};
use replication::{ReplMsg, TailStep, WalTail};
use std::io::{self, Write};
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

/// A snapshot staged for transfer to a far-behind subscriber.
struct ShipSnapshot {
    covered_seq: u64,
    payloads: Vec<Vec<u8>>,
}

/// Decides how a subscription at `sub_seq` starts: straight from the
/// WAL tail, or snapshot-first when the subscriber is behind the
/// checkpoint truncation horizon. Runs under the read lock —
/// checkpoints need the write lock, so the horizon and the snapshot
/// file cannot change underneath us.
fn plan_stream(
    shared: &Shared,
    sub_seq: u64,
) -> Result<(std::path::PathBuf, Option<ShipSnapshot>), Response> {
    let g = read_state(shared);
    let Some(j) = g.journal() else {
        return Err(err(
            ErrorCode::Rejected,
            "replication requires a journaled leader (start with --journal)",
        ));
    };
    let horizon = j.appended_ops() - j.ops_since_checkpoint();
    let wal_path = j.wal_path();
    if sub_seq < horizon {
        // The WAL no longer holds the records the subscriber lacks;
        // stage the covering snapshot (reading it into memory under
        // the read lock keeps it consistent with `horizon`).
        let (payloads, _) = storage::log::read_payloads(j.snapshot_path())
            .map_err(|e| err(ErrorCode::Internal, format!("snapshot read: {e}")))?;
        Ok((
            wal_path,
            Some(ShipSnapshot {
                covered_seq: horizon,
                payloads,
            }),
        ))
    } else {
        Ok((wal_path, None))
    }
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
    let snapshot = match plan_stream(shared, sub_seq) {
        Ok((_, snap)) => snap,
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
    let _ = ship_stream(stream, shared, sub_seq, snapshot);
    subscribers.add(-1);
}

fn ship_snapshot(stream: &mut impl Write, shared: &Shared, snap: ShipSnapshot) -> io::Result<()> {
    obs::counter!(
        "gkbms_replication_snapshots_shipped_total",
        "Checkpoint snapshots streamed to far-behind subscribers"
    )
    .inc();
    let (_, epoch) = shared.commit.current();
    ship(
        stream,
        &ReplMsg::SnapshotStart {
            covered_seq: snap.covered_seq,
            epoch,
        },
    )?;
    let mut chunk: Vec<Vec<u8>> = Vec::new();
    let mut bytes = 0usize;
    for p in snap.payloads {
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
            start_seq = snap.covered_seq + 1;
            ship_snapshot(stream, shared, snap)?;
        }
        let wal_path = {
            let g = read_state(shared);
            match g.journal() {
                Some(j) => j.wal_path(),
                None => return Ok(()),
            }
        };
        let mut tail = WalTail::new(&wal_path, start_seq);
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
                    match plan_stream(shared, tail.resume_seq().saturating_sub(1)) {
                        Ok((_, snap)) => {
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
