//! The follower runtime: subscribe to a leader and apply its stream.
//!
//! One thread per follower server: subscribe at the applied position,
//! apply the pushed snapshot / op batches through the writer, and on
//! any disconnection resubscribe with capped exponential backoff. Stops
//! on shutdown or promotion.

use super::{replica_position, Shared};
use crate::proto::{self, ErrorCode, FrameRead, Request, Response};
use gkbms::Gkbms;
use replication::{ReplError, ReplMsg, ShippedRecord};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Follower reconnect backoff bounds.
const FOLLOW_BACKOFF_MIN: Duration = Duration::from_millis(50);
const FOLLOW_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// True once the follower runtime should stop: the server is draining,
/// this replica was promoted to leader, or a panic poisoned the state
/// (nothing may be applied after a half-applied write).
fn follow_done(shared: &Shared) -> bool {
    shared.shutdown.load(Ordering::SeqCst)
        || !shared.repl.follower.load(Ordering::SeqCst)
        || shared.state.is_poisoned()
}

/// The follower thread: subscribe, apply, and on any disconnection
/// resubscribe from the last applied sequence with capped exponential
/// backoff — the leader answers from checkpoint + WAL exactly like
/// local recovery would.
pub(super) fn follower_loop(shared: &Shared, leader: &str) {
    let mut backoff = FOLLOW_BACKOFF_MIN;
    loop {
        if follow_done(shared) {
            return;
        }
        let outcome = follow_once(shared, leader);
        if shared.repl.connected.swap(false, Ordering::SeqCst) {
            // The subscription was live; start the backoff over.
            backoff = FOLLOW_BACKOFF_MIN;
        }
        match outcome {
            Ok(()) => return,
            Err(e) => {
                obs::counter!(
                    "gkbms_replication_reconnects_total",
                    "Follower reconnect attempts after a failed or dropped subscription"
                )
                .inc();
                obs::gauge!(
                    "gkbms_replication_connected",
                    "1 while the follower's subscription to the leader is live"
                )
                .set(0);
                // Surfaced for operators; the loop itself just retries.
                let _ = e;
            }
        }
        let deadline = Instant::now() + backoff;
        while Instant::now() < deadline {
            if follow_done(shared) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        backoff = (backoff * 2).min(FOLLOW_BACKOFF_MAX);
    }
}

/// One subscription: connect, hand the leader our applied position,
/// then apply the push stream until it ends. `Ok(())` means a clean
/// stop (shutdown or promotion); `Err` asks the outer loop to retry.
fn follow_once(shared: &Shared, leader: &str) -> Result<(), ReplError> {
    let mut stream = TcpStream::connect(leader)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.poll_interval));
    // A replica's committed position is its applied one.
    let (applied, epoch) = shared.commit.current();
    proto::write_frame(
        &mut stream,
        &Request::Replicate {
            applied_seq: applied,
            epoch,
        }
        .encode(),
    )?;
    let mut snapshot: Option<Vec<Vec<u8>>> = None;
    loop {
        if follow_done(shared) {
            return Ok(());
        }
        let payload = match proto::read_frame(&mut stream)? {
            FrameRead::Frame(p) => p,
            FrameRead::Idle => continue,
            FrameRead::Eof => {
                return Err(ReplError::Protocol("leader closed the stream".into()));
            }
        };
        if ReplMsg::peek_opcode(&payload).is_none_or(|op| op < replication::msg::MSG_BASE) {
            // A plain Response on the stream: the handshake was
            // refused (fencing, journal-less leader, …).
            let resp = Response::decode(&payload)
                .map_err(|e| ReplError::Protocol(format!("unreadable refusal: {e}")))?;
            if let Response::Error {
                code: ErrorCode::Fenced,
                ..
            } = &resp
            {
                obs::counter!(
                    "gkbms_replication_fenced_total",
                    "Replication records or subscriptions refused by sequence-epoch fencing"
                )
                .inc();
            }
            return Err(ReplError::Protocol(format!(
                "leader refused the subscription: {resp:?}"
            )));
        }
        match ReplMsg::decode(&payload)? {
            ReplMsg::Hello { leader_seq, .. } | ReplMsg::Heartbeat { leader_seq, .. } => {
                shared.repl.leader_seq.store(leader_seq, Ordering::SeqCst);
                shared.repl.connected.store(true, Ordering::SeqCst);
                obs::gauge!(
                    "gkbms_replication_connected",
                    "1 while the follower's subscription to the leader is live"
                )
                .set(1);
                observe_lag(shared);
            }
            ReplMsg::SnapshotStart { .. } => snapshot = Some(Vec::new()),
            ReplMsg::SnapshotChunk { payloads } => match &mut snapshot {
                Some(acc) => acc.extend(payloads),
                None => {
                    return Err(ReplError::Protocol("snapshot chunk before start".into()));
                }
            },
            ReplMsg::SnapshotEnd => {
                let Some(payloads) = snapshot.take() else {
                    return Err(ReplError::Protocol("snapshot end before start".into()));
                };
                install_snapshot(shared, payloads)?;
                observe_lag(shared);
            }
            ReplMsg::Ops {
                leader_seq,
                records,
            } => {
                shared.repl.leader_seq.store(leader_seq, Ordering::SeqCst);
                // Test hook: keep observing the leader's position (so
                // lag is visible) but defer applying the batch.
                while shared.repl.apply_paused.load(Ordering::SeqCst) && !follow_done(shared) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if follow_done(shared) {
                    return Ok(());
                }
                apply_batch(shared, &records)?;
                observe_lag(shared);
            }
        }
    }
}

/// Records the replica's position and lag in the metrics registry.
fn observe_lag(shared: &Shared) {
    let (applied, lag) = replica_position(shared);
    obs::gauge!(
        "gkbms_replication_applied_seq",
        "Ops this replica has applied from the leader's stream"
    )
    .set(applied.min(i64::MAX as u64) as i64);
    obs::gauge!(
        "gkbms_replication_lag_ops_current",
        "Committed leader ops this replica has not applied yet"
    )
    .set(lag.min(i64::MAX as u64) as i64);
    obs::value_histogram!(
        "gkbms_replication_lag_ops",
        "Distribution of replica lag behind the leader's committed sequence, in ops"
    )
    .observe(lag);
}

/// Replaces the replica's state from a shipped checkpoint snapshot,
/// installed in the journal directory (if any) and swapped in by the
/// writer's `replace`, positioned after the snapshot's covered sequence.
fn install_snapshot(shared: &Shared, payloads: Vec<Vec<u8>>) -> Result<(), ReplError> {
    obs::counter!(
        "gkbms_replication_snapshots_installed_total",
        "Checkpoint snapshots installed by this replica during catch-up"
    )
    .inc();
    let w = shared.writer().map_err(refused)?;
    let fresh = match &shared.journal_dir {
        Some(dir) => Gkbms::install_replica_snapshot(dir, payloads).map(|(g, _)| g),
        None => Gkbms::replica_from_snapshot(&payloads),
    }
    .map_err(|e| ReplError::Protocol(format!("snapshot install: {e}")))?;
    w.replace(fresh).map_err(refused)
}

/// A writer's refusal (a poisoned state, a commit the replica could
/// not complete), as a stream error.
fn refused(resp: Response) -> ReplError {
    ReplError::Protocol(format!("commit: {resp:?}"))
}

/// Applies one shipped batch through the writer. The whole batch is
/// admitted against the replica's position first — a spliced stream
/// (gap, regression, fenced epoch) is refused as a typed error *before*
/// anything touches the replica, and the caller disconnects instead of
/// applying out of order. What was applied is committed either way, as
/// one store version per batch that chained subscribers may then ship.
fn apply_batch(shared: &Shared, records: &[ShippedRecord]) -> Result<(), ReplError> {
    if records.is_empty() {
        return Ok(());
    }
    let mut w = shared.writer().map_err(refused)?;
    let applied = replication::admit(w.applied_seq(), w.epoch(), records).and_then(|()| {
        records.iter().try_for_each(|r| {
            w.apply_replicated(r.seq, r.epoch, &r.payload)
                .map_err(|e| ReplError::Protocol(format!("apply op {}: {e}", r.seq)))
        })
    });
    w.commit().map_err(refused)?;
    if let Err(ReplError::EpochFenced { .. }) = &applied {
        obs::counter!(
            "gkbms_replication_fenced_total",
            "Replication records or subscriptions refused by sequence-epoch fencing"
        )
        .inc();
    }
    applied?;
    obs::counter!(
        "gkbms_replication_records_applied_total",
        "Shipped records applied into this replica"
    )
    .add(records.len() as u64);
    Ok(())
}
