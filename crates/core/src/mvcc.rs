//! Multi-version concurrency control for the knowledge base.
//!
//! The server's writers serialize on a single write lock; its readers
//! must not. Between the two sits a [`VersionChain`]: a mutex-guarded
//! pointer to the latest immutable version of the store. Readers
//! [`VersionChain::acquire`] the head — a pointer clone, never the
//! writer lock — and keep the [`Pin`] while they read that version (the
//! server pins one per session, from Hello until the session closes,
//! refreshes or expires).
//!
//! Retention is ownership: a version lives exactly as long as someone
//! holds an `Arc` to it — the chain (its head), a session's [`Pin`], a
//! request in flight — and is freed at the drop of its last holder.
//! Unpinning takes no lock and there is no table to keep in step with
//! the reference counts; the chain only counts the versions alive
//! (`gkbms_store_versions_live`, `gkbms_store_epochs_pinned`, as of its
//! last publish, acquire or poll). Once all readers quiesce exactly
//! one — the head — remains.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// An immutable published version: the payload plus its publish
/// sequence number. Counted alive from construction to drop.
#[derive(Debug)]
pub struct Version<T> {
    seq: u64,
    data: T,
    alive: Arc<AtomicUsize>,
}

impl<T> Version<T> {
    /// The version's publish sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The versioned payload.
    pub fn data(&self) -> &T {
        &self.data
    }
}

impl<T> Drop for Version<T> {
    fn drop(&mut self) {
        self.alive.fetch_sub(1, Ordering::SeqCst);
        obs::counter!("gkbms_versions_reclaimed_total", "Store versions freed").inc();
    }
}

/// The head of a sequence of immutable store versions, plus a count of
/// the versions still alive. Cloning the handle shares the same chain.
#[derive(Clone)]
pub struct VersionChain<T> {
    head: Arc<Mutex<Arc<Version<T>>>>,
    alive: Arc<AtomicUsize>,
}

/// A reader's hold on one version: the `Arc` itself. The version lives
/// until the last clone of the pin (and the last [`Pin::version`] taken
/// from it) is dropped; cloning or dropping a pin never locks the chain.
#[derive(Debug, Clone)]
pub struct Pin<T>(Arc<Version<T>>);

impl<T> VersionChain<T> {
    /// A new chain whose head is `initial` at sequence 0.
    pub fn new(initial: T) -> Self {
        let alive = Arc::new(AtomicUsize::new(0));
        let head = Arc::new(Mutex::new(Self::version(&alive, 0, initial)));
        let chain = VersionChain { head, alive };
        chain.observe(&chain.lock());
        chain
    }

    fn version(alive: &Arc<AtomicUsize>, seq: u64, data: T) -> Arc<Version<T>> {
        alive.fetch_add(1, Ordering::SeqCst);
        let alive = Arc::clone(alive);
        Arc::new(Version { seq, data, alive })
    }

    /// Publishes `data` as the new head and returns its sequence
    /// number. Called by the writer under the write lock, so heads are
    /// published in commit order. The superseded head is let go of
    /// *outside* the chain lock — unpinned, that is where it is freed.
    pub fn publish(&self, data: T) -> u64 {
        let mut head = self.lock();
        let seq = head.seq + 1;
        let old = std::mem::replace(&mut *head, Self::version(&self.alive, seq, data));
        drop(head);
        drop(old);
        obs::counter!("gkbms_versions_published_total", "Store versions published").inc();
        self.observe(&self.lock());
        seq
    }

    /// Pins the current head: the reader entry point, a mutex-guarded
    /// pointer clone independent of the writer lock.
    pub fn acquire(&self) -> Pin<T> {
        obs::counter!("gkbms_snapshot_acquires_total", "Store version pins taken").inc();
        let head = self.lock();
        let pin = Pin(Arc::clone(&head));
        self.observe(&head);
        pin
    }

    /// The current head version, for point reads that need the latest
    /// state rather than a session-stable snapshot.
    pub fn head(&self) -> Arc<Version<T>> {
        Arc::clone(&self.lock())
    }

    /// Number of versions whose memory is alive: the head plus every
    /// superseded one a session or a request in flight still holds.
    pub fn live_versions(&self) -> usize {
        self.observe(&self.lock()).0
    }

    /// Number of alive versions held by anyone but the chain.
    pub fn pinned_epochs(&self) -> usize {
        self.observe(&self.lock()).1
    }

    fn lock(&self) -> MutexGuard<'_, Arc<Version<T>>> {
        self.head.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// `(live, pinned)` as of now, also published as the two gauges.
    fn observe(&self, head: &Arc<Version<T>>) -> (usize, usize) {
        let live = self.alive.load(Ordering::SeqCst);
        let pinned = live - 1 + usize::from(Arc::strong_count(head) > 1);
        obs::gauge!("gkbms_store_versions_live", "Store versions alive").set(live as i64);
        obs::gauge!("gkbms_store_epochs_pinned", "Versions readers hold").set(pinned as i64);
        (live, pinned)
    }
}

impl<T> Pin<T> {
    /// The pinned payload.
    pub fn data(&self) -> &T {
        &self.0.data
    }

    /// A shareable handle to the pinned version, so a read can outlive
    /// its session's pin (session expiry racing an in-flight request).
    pub fn version(&self) -> Arc<Version<T>> {
        Arc::clone(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn head_advances_and_unpinned_versions_are_freed_at_publish() {
        let chain = VersionChain::new(0u64);
        assert_eq!(chain.head().seq(), 0);
        assert_eq!(chain.live_versions(), 1);
        for i in 1..=10 {
            assert_eq!(chain.publish(i), i);
            assert_eq!(chain.live_versions(), 1, "no pins → no retained history");
        }
        assert_eq!(chain.head().seq(), 10);
        assert_eq!(*chain.acquire().data(), 10);
    }

    #[test]
    fn pinned_version_survives_publishes_until_unpin() {
        let chain = VersionChain::new(0u64);
        let pin = chain.acquire();
        chain.publish(1);
        chain.publish(2);
        assert_eq!(chain.live_versions(), 2, "pinned version 0 + head");
        assert_eq!(chain.pinned_epochs(), 1);
        assert_eq!(*pin.data(), 0, "pin still reads its version");
        drop(pin);
        assert_eq!(chain.live_versions(), 1, "freed when the last pin departs");
        assert_eq!(chain.pinned_epochs(), 0);
    }

    #[test]
    fn every_holder_keeps_its_version_alive_inflight_reads_included() {
        let chain = VersionChain::new(7u64);
        let pin = chain.acquire();
        let pin2 = pin.clone();
        chain.publish(8);
        drop(pin);
        assert_eq!(chain.live_versions(), 2, "clone still holds version 0");
        // An in-flight read holds only the Arc: it is a holder like any
        // other, so the version counts as alive until the read ends.
        let inflight = pin2.version();
        drop(pin2);
        assert_eq!(chain.live_versions(), 2, "the in-flight read holds it");
        assert_eq!(chain.pinned_epochs(), 1);
        assert_eq!(*inflight.data(), 7);
        drop(inflight);
        assert_eq!(chain.live_versions(), 1);
        assert_eq!(chain.pinned_epochs(), 0);
    }

    #[test]
    fn distinct_versions_are_held_independently() {
        let chain = VersionChain::new(0u64);
        let p0 = chain.acquire();
        chain.publish(1);
        let p1 = chain.acquire();
        chain.publish(2);
        assert_eq!(chain.live_versions(), 3);
        assert_eq!(chain.pinned_epochs(), 2);
        drop(p0);
        assert_eq!(chain.live_versions(), 2, "version 0 freed, version 1 kept");
        drop(p1);
        assert_eq!(chain.live_versions(), 1);
        // A pin of the head is a holder too, but frees nothing.
        let head = chain.acquire();
        assert_eq!((chain.live_versions(), chain.pinned_epochs()), (1, 1));
        drop(head);
        assert_eq!(chain.pinned_epochs(), 0);
    }

    /// Ownership is the retention rule: a superseded version is freed
    /// at the drop of its last holder, and that drop — like a clone —
    /// never takes the chain lock. Another thread sits on the chain
    /// mutex for the whole unpin; had `Pin` anything to tell the chain,
    /// this test would deadlock instead of finishing.
    #[test]
    fn superseded_version_is_freed_at_last_drop_without_the_chain_lock() {
        let chain = VersionChain::new(0u64);
        let pin = chain.acquire();
        chain.publish(1);
        let weak = Arc::downgrade(&pin.version());
        assert!(weak.upgrade().is_some(), "held by the pin");

        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let chain = chain.clone();
            thread::spawn(move || {
                let _guard = chain.lock();
                locked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
        };
        locked_rx.recv().unwrap();
        let clone = pin.clone();
        drop(pin);
        assert!(weak.upgrade().is_some(), "the clone is a holder");
        drop(clone);
        assert!(weak.upgrade().is_none(), "freed right at the last drop");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        assert_eq!(chain.live_versions(), 1);
    }

    /// The reclamation stress test of ISSUE 6: a writer churns versions
    /// while readers pin/unpin for thousands of iterations; the chain
    /// must converge back to exactly one live version after quiesce,
    /// with every read seeing its own pinned payload. Runs under miri
    /// in CI (`sanitize` job) with a reduced iteration count.
    #[test]
    fn version_churn_stress_converges_to_one_version() {
        const READERS: usize = 4;
        #[cfg(not(miri))]
        const ITERS: usize = 2_000;
        #[cfg(miri)]
        const ITERS: usize = 50;

        let chain = VersionChain::new(0u64);
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let chain = chain.clone();
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut reads = 0u64;
                    // Do-while: at least one read even if the writer
                    // finishes before this thread is first scheduled.
                    loop {
                        let pin = chain.acquire();
                        // The pinned payload equals the pinned
                        // sequence number: a reader never observes a
                        // torn or freed version.
                        assert_eq!(*pin.data(), pin.version().seq());
                        let clone = pin.clone();
                        drop(pin);
                        assert_eq!(*clone.data(), clone.version().seq());
                        drop(clone);
                        reads += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    reads
                })
            })
            .collect();

        for i in 1..=ITERS as u64 {
            chain.publish(i);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made progress");
        }
        assert_eq!(chain.live_versions(), 1, "quiesce frees all history");
        assert_eq!(chain.pinned_epochs(), 0);
        assert_eq!(chain.head().seq(), ITERS as u64);
    }
}
