//! Thread-local buffer pools for the protocol data plane's scratch.
//!
//! The hot path of a simulated run churns through short-lived heap buffers:
//! every write fault snapshots a page into a twin, every diff collects a
//! word list, every synchronization message clones a vector time and
//! gathers a list of payload handles. At 256 nodes the allocator dominates
//! the host profile (`BENCH_WALL.json` made this visible). These pools
//! recycle the backing `Vec`s through per-thread free lists instead of
//! returning them to the heap.
//!
//! Payloads that never change after they are built — interval
//! announcements, stored diffs, a diff request's vector-time snapshot —
//! are not pooled but shared: each exists once, and stores and messages
//! hold `Arc` handles to it. The pools hold what is written per use: page
//! and twin bytes, diff word lists, vector-time components, announcement
//! handle lists, spilled diff and interval lists, and the scratch of page
//! fills (pending-notice copies, causal sort keys).
//!
//! Diff requests and replies mostly carry one interval id or one diff, so
//! their lists ([`crate::interval::IvlList`], [`crate::diff::DiffList`])
//! hold a few elements inline and take a pooled buffer only when they
//! outgrow that. At 256 nodes tens of thousands of them are in flight after
//! a barrier, far more than a class's `POOL_CAP` parked buffers could cover.
//!
//! Each class holds buffers of one use, so a buffer popped for a use has
//! about the capacity that use needs: a spilled interval list never holds
//! a 1 KiB vector-time array, and a vector time never pops a small
//! interval-id buffer that it must then reallocate.
//!
//! **Inertness invariant**: pooling changes *where host memory comes from*
//! and nothing else. Every `take_*` hands back an empty vector (length 0)
//! whose contents the caller fully initializes, exactly as a fresh
//! allocation would be — so simulated state, checksums and metrics are
//! byte-identical with pooling on or off (the arena-inertness test pins
//! this). Pools are thread-local, so parallel engine jobs never share or
//! contend on them.
//!
//! The runtime toggle exists for that test and for A/B profiling; the
//! default is on.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns buffer recycling on or off process-wide (default on). Buffers
/// already parked in a thread's free list stay parked until re-enabled.
pub fn set_pooling(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether buffer recycling is currently enabled.
pub fn pooling() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Per-thread, per-class cap on parked buffers; beyond it, buffers drop to
/// the heap as before. Bounds worst-case held memory without a sweeper.
const POOL_CAP: usize = 4096;

macro_rules! pool_class {
    ($(#[$doc:meta])* $tls:ident, $take:ident, $put:ident, $elem:ty) => {
        thread_local! {
            static $tls: RefCell<Vec<Vec<$elem>>> = const { RefCell::new(Vec::new()) };
        }

        $(#[$doc])*
        pub(crate) fn $take() -> Vec<$elem> {
            if !pooling() {
                return Vec::new();
            }
            $tls.with(|p| p.borrow_mut().pop()).unwrap_or_default()
        }

        /// Parks a spent buffer for reuse by the same thread.
        pub(crate) fn $put(mut v: Vec<$elem>) {
            if !pooling() || v.capacity() == 0 {
                return;
            }
            v.clear();
            $tls.with(|p| {
                let mut p = p.borrow_mut();
                if p.len() < POOL_CAP {
                    p.push(v);
                }
            });
        }
    };
}

pool_class!(
    /// Page-sized byte buffers ([`crate::page::PageBuf`] data and twins).
    BYTES,
    take_bytes,
    put_bytes,
    u8
);
pool_class!(
    /// Diff word lists (`(word index, value)` pairs).
    WORDS,
    take_words,
    put_words,
    (u32, u32)
);
pool_class!(
    /// Vector-time component arrays, and nothing else: every buffer here
    /// was sized for a vector time.
    CLOCKS,
    take_clock,
    put_clock,
    u32
);
pool_class!(
    /// Interval-id lists: spilled [`crate::interval::IvlList`]s and the
    /// own-interval scratch of a whole-page fill.
    IVLS,
    take_ivls,
    put_ivls,
    crate::vtime::IntervalId
);
pool_class!(
    /// Announcement-handle lists (lock-grant and barrier payloads).
    /// Parking one clears it first, which releases each handle.
    ANNS,
    take_anns,
    put_anns,
    std::sync::Arc<crate::interval::IntervalAnnouncement>
);
pool_class!(
    /// Diff-handle lists: spilled [`crate::diff::DiffList`]s (diff-reply
    /// payloads and fill accumulators).
    DIFFS,
    take_diffs,
    put_diffs,
    std::sync::Arc<crate::diff::Diff>
);
pool_class!(
    /// Diffs keyed by their causal apply order (fill application scratch).
    KEYED,
    take_keyed,
    put_keyed,
    (u64, std::sync::Arc<crate::diff::Diff>)
);
pool_class!(
    /// `(owner, interval)` pairs: sorted copies of a page's pending notices
    /// (request grouping, and a prefetch's record of what it requested).
    PAIRS,
    take_pairs,
    put_pairs,
    (usize, crate::vtime::IntervalId)
);

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not two: `ENABLED` is process-global and the test harness
    // runs tests concurrently, so the on/off phases must not interleave.
    #[test]
    fn pool_round_trip_and_toggle() {
        set_pooling(true);
        let mut v = take_bytes();
        v.extend_from_slice(&[1, 2, 3, 4]);
        let cap = v.capacity();
        put_bytes(v);
        let v2 = take_bytes();
        assert!(v2.is_empty(), "recycled buffer must be cleared");
        assert!(v2.capacity() >= cap.min(4), "capacity should be retained");

        set_pooling(false);
        let mut w = take_words();
        w.push((1, 2));
        put_words(w);
        let w2 = take_words();
        assert_eq!(w2.capacity(), 0, "disabled pool must hand out fresh vecs");
        set_pooling(true);
    }
}
