//! Replication stream messages.
//!
//! After a follower's `Replicate` request, the connection switches
//! from request/response to one-way push: the leader writes a stream
//! of `ReplMsg` frames (the same CRC-checked length-prefixed records
//! as every other protocol frame). Opcodes start at 100 so a follower
//! can tell a stream message from an ordinary `Response` (opcodes
//! below 100) — the leader answers a rejected subscription with a
//! plain error response on the same socket.

use storage::record::codec::Cursor;

/// First stream-message opcode; anything below is a `Response`.
pub const MSG_BASE: u32 = 100;

/// One op in flight: the fields of the frame the leader's history and
/// WAL hold for it, so the follower can apply the payload and commit an
/// identical frame to its own history and WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedRecord {
    /// Journal op sequence number.
    pub seq: u64,
    /// Sequence epoch the record was written under.
    pub epoch: u64,
    /// The op payload (a journal op, applied by `Gkbms::apply`).
    pub payload: Vec<u8>,
}

storage::wire_struct!(ShippedRecord {
    seq,
    epoch,
    payload
});

storage::op_table! {
    /// A message on the replication stream, leader → follower.
    /// Opcodes 101–103 are retired: a follower of an earlier release
    /// reads them as a snapshot transfer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ReplMsg {
        /// First message after an accepted subscription.
        100 Hello "hello" {
            /// The leader's last committed op sequence.
            leader_seq: u64,
            /// The leader's sequence epoch.
            epoch: u64,
        },
        /// A batch of committed ops in sequence order: frames of the
        /// leader's history at or below its durable watermark.
        104 Ops "ops" {
            /// The leader's last committed op sequence at send time (lets
            /// the follower measure its lag without a round trip).
            leader_seq: u64,
            /// The records, consecutive by sequence.
            records: Vec<ShippedRecord>,
        },
        /// Keep-alive when no commits arrive; also refreshes the
        /// follower's view of the leader position.
        105 Heartbeat "heartbeat" {
            /// The leader's last committed op sequence.
            leader_seq: u64,
            /// The leader's sequence epoch.
            epoch: u64,
        },
    }
}

impl ReplMsg {
    /// Peeks the opcode of a frame payload without decoding it — used
    /// to distinguish stream messages (≥ [`MSG_BASE`]) from ordinary
    /// responses sharing the socket.
    pub fn peek_opcode(payload: &[u8]) -> Option<u32> {
        Cursor::new(payload).get_u32().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::record::codec;

    /// The fixture holds a sample per row (`u64` 7, bytes `00 ff 62`,
    /// one-element and empty lists) as encoded by the hand-written
    /// encoder this table replaced.
    #[test]
    fn message_table_matches_the_golden_bytes() {
        ReplMsg::check_golden(include_str!("../../../tests/fixtures/wire/repl_msg.hex"));
        assert_eq!(ReplMsg::OPS.len(), 3);
        // A follower tells stream messages from refusals by opcode alone.
        assert!(ReplMsg::OPS.iter().all(|(op, _)| *op >= MSG_BASE));
    }

    #[test]
    fn unknown_opcode_and_trailing_bytes_are_rejected() {
        let mut p = Vec::new();
        codec::put_u32(&mut p, 250);
        assert!(matches!(
            ReplMsg::decode(&p),
            Err(e) if e.to_string().contains("250")
        ));
        let mut ok = ReplMsg::Heartbeat {
            leader_seq: 7,
            epoch: 1,
        }
        .encode();
        ok.push(0);
        assert!(matches!(
            ReplMsg::decode(&ok),
            Err(e) if e.to_string().contains("trailing")
        ));
    }

    #[test]
    fn response_opcodes_are_distinguishable() {
        // A proto Response frame starts with its opcode (< 100); the
        // follower uses the peek to route between the two decoders.
        let mut resp = Vec::new();
        codec::put_u32(&mut resp, 7); // Response::Error
        assert!(ReplMsg::peek_opcode(&resp).unwrap() < MSG_BASE);
    }
}
