//! Per-object outstanding-fetch queues for the delayed-hit model.
//!
//! At LEO RTTs an origin fetch stays in flight for many epochs, so a
//! request arriving while "its" fetch is outstanding is neither a hit
//! nor an independent miss: it is a **delayed hit** — coalesced onto
//! the in-flight fetch and charged only the *residual* fetch latency
//! ("Caching with Delayed Hits", SIGCOMM '20).
//!
//! One [`InflightQueue`] lives next to each satellite's cache. The
//! serving path drives it in a fixed order per request at epoch `now`:
//!
//! 1. [`take_completed`](InflightQueue::take_completed) — if the
//!    object's fetch has landed (`completes_at <= now`), retire it:
//!    the caller admits the object into the cache and charges the
//!    fetch's aggregate delay to the eviction policy
//!    ([`Cache::record_fetch_delay`](crate::policy::Cache::record_fetch_delay)).
//! 2. Cache presence check — a cached object is a plain hit.
//! 3. [`coalesce`](InflightQueue::coalesce) — an in-flight fetch makes
//!    this request a delayed hit with `completes_at - now` residual
//!    epochs of extra wait.
//! 4. [`register`](InflightQueue::register) — otherwise a true miss
//!    starts a new fetch completing `fetch_epochs` later. The object is
//!    *not* admitted yet; admission happens at retirement (step 1 of a
//!    later request).
//!
//! Retirement is **lazy and per-object**: a completed fetch stays
//! queued until the next request for that object touches it. Both the
//! sequential engine and the owner-sharded parallel replayer see each
//! object's requests in the same order, so lazy retirement produces
//! bit-identical outcomes in both without any global epoch barrier.

use crate::object::{IdMap, ObjectId};
use crate::state::StateError;
use serde::{Deserialize, Serialize};

/// One outstanding origin fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightFetch {
    /// Epoch at which the fetched bytes land at the satellite.
    pub completes_at: u64,
    /// Object size in bytes (admitted at retirement).
    pub size: u64,
    /// Requests coalesced onto this fetch so far (delayed hits).
    pub followers: u64,
    /// Aggregate delay in epochs: the full fetch latency plus every
    /// follower's residual wait. Charged to the eviction policy at
    /// retirement — the signal MAD ranks by.
    pub delay_epochs: u64,
}

/// A fetch removed from the queue because it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredFetch {
    pub size: u64,
    pub followers: u64,
    pub delay_epochs: u64,
}

/// Serializable snapshot of one queue (entries in ascending object-id
/// order; the queue itself is unordered and sorts on export).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InflightState {
    pub fetches: Vec<InflightEntryState>,
}

/// One snapshotted fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InflightEntryState {
    pub id: ObjectId,
    pub completes_at: u64,
    pub size: u64,
    pub followers: u64,
    pub delay_epochs: u64,
}

/// The per-satellite outstanding-fetch queue.
///
/// Every operation the serving path makes is a point lookup by object
/// id, so the fetches sit in a hash map ([`IdMap`]); only
/// [`to_state`](Self::to_state) needs an order, and sorts for it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InflightQueue {
    fetches: IdMap<ObjectId, InflightFetch>,
}

impl InflightQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retire the object's fetch if it has completed by `now`. The
    /// caller must admit the object and charge `delay_epochs` to the
    /// policy; the queue forgets the fetch.
    pub fn take_completed(&mut self, id: ObjectId, now: u64) -> Option<RetiredFetch> {
        match self.fetches.get(&id) {
            Some(f) if f.completes_at <= now => {
                let f = self.fetches.remove(&id).expect("entry just observed");
                Some(RetiredFetch {
                    size: f.size,
                    followers: f.followers,
                    delay_epochs: f.delay_epochs,
                })
            }
            _ => None,
        }
    }

    /// Coalesce a request at `now` onto an in-flight fetch, returning
    /// the residual wait in epochs (`> 0`). `None` when no fetch is in
    /// flight (completed-but-unretired fetches are not coalesce
    /// targets; [`take_completed`](Self::take_completed) must run
    /// first).
    pub fn coalesce(&mut self, id: ObjectId, now: u64) -> Option<u64> {
        let f = self.fetches.get_mut(&id)?;
        if f.completes_at <= now {
            return None;
        }
        let residual = f.completes_at - now;
        f.followers += 1;
        f.delay_epochs += residual;
        Some(residual)
    }

    /// Start a new fetch for `id` completing at `now + fetch_epochs`,
    /// seeded with the full fetch latency as its aggregate delay. Must
    /// only be called when no fetch for `id` is queued.
    pub fn register(&mut self, id: ObjectId, size: u64, now: u64, fetch_epochs: u64) {
        let prev = self.fetches.insert(
            id,
            InflightFetch {
                completes_at: now + fetch_epochs,
                size,
                followers: 0,
                delay_epochs: fetch_epochs,
            },
        );
        debug_assert!(prev.is_none(), "register over an existing fetch");
    }

    /// Read-only view of the fetch for `id`, if any.
    pub fn get(&self, id: ObjectId) -> Option<&InflightFetch> {
        self.fetches.get(&id)
    }

    /// Number of outstanding fetches.
    pub fn len(&self) -> usize {
        self.fetches.len()
    }

    /// True when no fetch is outstanding.
    pub fn is_empty(&self) -> bool {
        self.fetches.is_empty()
    }

    /// Drop every outstanding fetch (satellite wipe: in-flight bytes
    /// are lost with the cache).
    pub fn clear(&mut self) {
        self.fetches.clear();
    }

    /// Export the queue as portable state (ascending object id, so the
    /// checkpoint bytes do not depend on the map's iteration order).
    pub fn to_state(&self) -> InflightState {
        let mut fetches: Vec<InflightEntryState> = self
            .fetches
            .iter()
            .map(|(&id, f)| InflightEntryState {
                id,
                completes_at: f.completes_at,
                size: f.size,
                followers: f.followers,
                delay_epochs: f.delay_epochs,
            })
            .collect();
        fetches.sort_unstable_by_key(|e| e.id);
        InflightState { fetches }
    }

    /// Rebuild a queue from exported state, rejecting duplicates and
    /// out-of-order entries (a corrupted checkpoint must error, not
    /// silently reorder).
    pub fn from_state(state: &InflightState) -> Result<Self, StateError> {
        let mut q = InflightQueue::new();
        let mut prev: Option<ObjectId> = None;
        for e in &state.fetches {
            if prev.is_some_and(|p| p >= e.id) {
                return Err(StateError::Inconsistent("inflight entries out of order"));
            }
            prev = Some(e.id);
            q.fetches.insert(
                e.id,
                InflightFetch {
                    completes_at: e.completes_at,
                    size: e.size,
                    followers: e.followers,
                    delay_epochs: e.delay_epochs,
                },
            );
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_coalesce_retire_lifecycle() {
        let mut q = InflightQueue::new();
        assert!(q.take_completed(ObjectId(1), 5).is_none());
        assert!(q.coalesce(ObjectId(1), 5).is_none());
        q.register(ObjectId(1), 100, 5, 4); // completes at 9
        assert_eq!(q.get(ObjectId(1)).unwrap().completes_at, 9);
        assert_eq!(q.coalesce(ObjectId(1), 6), Some(3));
        assert_eq!(q.coalesce(ObjectId(1), 8), Some(1));
        assert!(q.take_completed(ObjectId(1), 8).is_none(), "not done at 8");
        let r = q.take_completed(ObjectId(1), 9).unwrap();
        assert_eq!(r, RetiredFetch { size: 100, followers: 2, delay_epochs: 4 + 3 + 1 });
        assert!(q.is_empty());
    }

    #[test]
    fn completed_fetch_is_not_a_coalesce_target() {
        let mut q = InflightQueue::new();
        q.register(ObjectId(7), 10, 0, 2);
        assert_eq!(q.coalesce(ObjectId(7), 2), None, "landed fetch must retire, not coalesce");
        assert!(q.take_completed(ObjectId(7), 2).is_some());
    }

    #[test]
    fn zero_latency_fetch_retires_immediately() {
        let mut q = InflightQueue::new();
        q.register(ObjectId(3), 50, 10, 0);
        let r = q.take_completed(ObjectId(3), 10).unwrap();
        assert_eq!(r.delay_epochs, 0);
        assert_eq!(r.followers, 0);
    }

    #[test]
    fn clear_drops_everything() {
        let mut q = InflightQueue::new();
        q.register(ObjectId(1), 10, 0, 5);
        q.register(ObjectId(2), 20, 0, 5);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.take_completed(ObjectId(1), 100).is_none());
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut q = InflightQueue::new();
        q.register(ObjectId(9), 10, 0, 5);
        q.register(ObjectId(2), 20, 1, 5);
        q.coalesce(ObjectId(9), 2);
        let state = q.to_state();
        assert_eq!(state.fetches.len(), 2);
        assert!(state.fetches[0].id < state.fetches[1].id, "ascending id order");
        let rebuilt = InflightQueue::from_state(&state).unwrap();
        assert_eq!(rebuilt, q);
        assert_eq!(rebuilt.to_state(), state);
    }

    #[test]
    fn malformed_state_rejected() {
        let e = InflightEntryState {
            id: ObjectId(1),
            completes_at: 3,
            size: 10,
            followers: 0,
            delay_epochs: 3,
        };
        let dup = InflightState { fetches: vec![e, e] };
        assert!(InflightQueue::from_state(&dup).is_err());
        let unordered =
            InflightState { fetches: vec![InflightEntryState { id: ObjectId(2), ..e }, e] };
        assert!(InflightQueue::from_state(&unordered).is_err());
    }
}
