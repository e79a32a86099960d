//! Session management: ids, pinned snapshot versions, per-session
//! statistics, and idle-timeout reaping.
//!
//! A session is the unit of snapshot isolation (see [`crate::proto`]):
//! at open (or [`SessionTable::refresh`]) it pins a store version (an
//! [`gkbms::mvcc::Pin`] in the server; the table is generic over the
//! pin type so it stays testable without a knowledge base). The
//! version's capture tick is the session's belief-time watermark, and
//! every read the session performs is evaluated against its pinned
//! version's own snapshot — no state lock. Sessions are independent
//! of TCP connections — a client may reconnect and keep using its
//! session id — so liveness is tracked by *use*, not by the socket: a
//! session untouched for longer than the idle timeout is reaped, and
//! later requests for it get [`crate::proto::ErrorCode::SessionExpired`].
//!
//! Reaping a session drops its pin, and a store version is freed at
//! the drop of its last holder — [`SessionTable::sweep`] is therefore
//! part of the reclamation path, not just table hygiene, and the server
//! calls it on every publish and on idle connection polls.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One open session, holding a pin of type `P` (the server uses
/// `gkbms::mvcc::Pin<gkbms::Published>`; tests use `()` or integers).
#[derive(Debug, Clone)]
pub struct Session<P> {
    /// The session id.
    pub id: u64,
    /// The belief tick `open`, `refresh` or `repin_all` was given with
    /// the pin, kept because the table cannot read a tick out of an
    /// opaque pin: the server passes its pin's capture tick and reads
    /// the pin, never this field (a pinned version's snapshot is at the
    /// tick whose deductive closure it memoizes). The in-process
    /// benchmark harness reads it.
    pub watermark: i64,
    /// The pinned version — store and design index — the session reads
    /// from.
    pub pin: P,
    /// Requests served for this session.
    pub requests: u64,
    /// `index_probes` of the session's last ASK.
    pub last_probes: u64,
    /// `tuples_scanned` of the session's last ASK.
    pub last_scanned: u64,
    last_used: Instant,
}

/// Why a session lookup failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionErr {
    /// Never opened, or explicitly closed.
    Unknown,
    /// Reaped after exceeding the idle timeout.
    Expired,
}

/// The table of open sessions, with idle-timeout reaping.
#[derive(Debug)]
pub struct SessionTable<P> {
    next: u64,
    map: HashMap<u64, Session<P>>,
    idle_timeout: Duration,
}

impl<P> SessionTable<P> {
    /// An empty table with the given idle timeout.
    pub fn new(idle_timeout: Duration) -> Self {
        SessionTable {
            next: 1,
            map: HashMap::new(),
            idle_timeout,
        }
    }

    /// Opens a session pinned at `watermark` reading from `pin`,
    /// returning its id. Also sweeps sessions that have idled out
    /// (opportunistic reaping keeps the table bounded without a
    /// dedicated timer thread).
    pub fn open(&mut self, watermark: i64, pin: P) -> u64 {
        self.sweep();
        let id = self.next;
        self.next += 1;
        self.map.insert(
            id,
            Session {
                id,
                watermark,
                pin,
                requests: 0,
                last_probes: 0,
                last_scanned: 0,
                last_used: Instant::now(),
            },
        );
        obs::counter!("gkbms_sessions_opened_total", "Sessions opened").inc();
        self.publish_active();
        id
    }

    /// Publishes the open-session count as a gauge.
    fn publish_active(&self) {
        obs::gauge!("gkbms_sessions_active", "Sessions currently open").set(self.map.len() as i64);
    }

    /// Touches `id` for a new request: bumps its counters and returns
    /// the session, or reaps it if it sat idle past the timeout.
    pub fn touch(&mut self, id: u64) -> Result<&mut Session<P>, SessionErr> {
        let expired = match self.map.get(&id) {
            None => return Err(SessionErr::Unknown),
            Some(s) => s.last_used.elapsed() > self.idle_timeout,
        };
        if expired {
            self.map.remove(&id);
            obs::counter!(
                "gkbms_sessions_reaped_total",
                "Sessions reaped after idling out"
            )
            .inc();
            self.publish_active();
            return Err(SessionErr::Expired);
        }
        let s = self.map.get_mut(&id).ok_or(SessionErr::Unknown)?;
        s.last_used = Instant::now();
        s.requests += 1;
        Ok(s)
    }

    /// The open session `id`, for bookkeeping that is not a request of
    /// its own: neither counted nor timed, and never reaped here.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Session<P>> {
        self.map.get_mut(&id)
    }

    /// Re-pins `id` to `watermark` reading from `pin` (the old pin is
    /// dropped, letting go of its version). Returns the new watermark.
    pub fn refresh(&mut self, id: u64, watermark: i64, pin: P) -> Result<i64, SessionErr> {
        let s = self.touch(id)?;
        s.watermark = watermark;
        s.pin = pin;
        Ok(watermark)
    }

    /// Closes `id`. Closing an unknown session is not an error (the
    /// client's intent — "this session is gone" — already holds).
    pub fn close(&mut self, id: u64) {
        self.map.remove(&id);
        self.publish_active();
    }

    /// Drops every session that has idled out, and with them their
    /// pins — which frees the versions only abandoned sessions held.
    pub fn sweep(&mut self) {
        let timeout = self.idle_timeout;
        let before = self.map.len();
        self.map.retain(|_, s| s.last_used.elapsed() <= timeout);
        let reaped = before - self.map.len();
        if reaped > 0 {
            obs::counter!(
                "gkbms_sessions_reaped_total",
                "Sessions reaped after idling out"
            )
            .add(reaped as u64);
            self.publish_active();
        }
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<P: Clone> SessionTable<P> {
    /// Re-pins every open session to `watermark` reading from `pin`.
    /// Used after `LOAD` replaces the knowledge base: old watermarks
    /// and versions refer to a store that no longer exists.
    pub fn repin_all(&mut self, watermark: i64, pin: P) {
        for s in self.map.values_mut() {
            s.watermark = watermark;
            s.pin = pin.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn open_touch_close() {
        let mut t = SessionTable::new(Duration::from_secs(60));
        let a = t.open(5, ());
        let b = t.open(7, ());
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        let s = t.touch(a).unwrap();
        assert_eq!(s.watermark, 5);
        assert_eq!(s.requests, 1);
        t.touch(a).unwrap();
        assert_eq!(t.touch(a).unwrap().requests, 3);
        t.close(a);
        assert!(matches!(t.touch(a), Err(SessionErr::Unknown)));
        assert!(t.touch(b).is_ok());
    }

    #[test]
    fn refresh_repins_watermark_and_pin() {
        let mut t = SessionTable::new(Duration::from_secs(60));
        let a = t.open(5, 100u64);
        assert_eq!(t.refresh(a, 9, 200), Ok(9));
        let s = t.touch(a).unwrap();
        assert_eq!(s.watermark, 9);
        assert_eq!(s.pin, 200);
        assert!(matches!(t.refresh(999, 9, 300), Err(SessionErr::Unknown)));
    }

    #[test]
    fn idle_sessions_expire() {
        let mut t = SessionTable::new(Duration::from_millis(20));
        let a = t.open(1, ());
        std::thread::sleep(Duration::from_millis(40));
        assert!(matches!(t.touch(a), Err(SessionErr::Expired)));
        // Reaped: a second touch reports Unknown, not Expired.
        assert!(matches!(t.touch(a), Err(SessionErr::Unknown)));
    }

    #[test]
    fn get_mut_neither_counts_nor_reaps() {
        let mut t = SessionTable::new(Duration::from_millis(20));
        let a = t.open(1, ());
        t.touch(a).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        let s = t.get_mut(a).expect("idle but not reaped");
        assert_eq!(s.requests, 1);
        s.last_probes = 7;
        // It did not keep the session alive either.
        assert!(matches!(t.touch(a), Err(SessionErr::Expired)));
        assert!(t.get_mut(a).is_none());
    }

    #[test]
    fn sweep_reaps_only_idle() {
        let mut t = SessionTable::new(Duration::from_millis(30));
        let a = t.open(1, ());
        std::thread::sleep(Duration::from_millis(45));
        let b = t.open(2, ());
        t.sweep();
        assert_eq!(t.len(), 1);
        assert!(matches!(t.touch(a), Err(SessionErr::Unknown)));
        assert!(t.touch(b).is_ok());
    }

    #[test]
    fn repin_all_moves_every_watermark() {
        let mut t = SessionTable::new(Duration::from_secs(60));
        let a = t.open(1, 10u64);
        let b = t.open(2, 10u64);
        t.repin_all(10, 99);
        let s = t.touch(a).unwrap();
        assert_eq!((s.watermark, s.pin), (10, 99));
        let s = t.touch(b).unwrap();
        assert_eq!((s.watermark, s.pin), (10, 99));
    }

    /// The ISSUE 6 bugfix, at the table level: reaping an idle session
    /// must drop its pin so downstream reclamation proceeds. Uses an
    /// `Arc` as a stand-in pin and watches its strong count.
    #[test]
    fn sweep_releases_the_reaped_sessions_pin() {
        let pin = Arc::new(());
        let mut t = SessionTable::new(Duration::from_millis(20));
        t.open(1, Arc::clone(&pin));
        assert_eq!(Arc::strong_count(&pin), 2);
        std::thread::sleep(Duration::from_millis(40));
        t.sweep();
        assert_eq!(t.len(), 0);
        assert_eq!(Arc::strong_count(&pin), 1, "reap released the pin");
    }
}
