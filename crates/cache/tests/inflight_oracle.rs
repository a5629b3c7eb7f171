//! Oracle for [`InflightQueue`]: an ordered-map reference model.
//!
//! The queue's storage is free to change; what the serving path and the
//! checkpoint layer observe is not. Seeded `take_completed` / `coalesce`
//! / `register` / `clear` sequences run against the queue and against a
//! `BTreeMap` model kept in this file, over the key shapes a weak hasher
//! would fold together, and every return value, `get`, `len` and
//! `to_state()` (ascending object id — the checkpoint byte order) must
//! agree. `from_state` must rebuild an equal queue from every exported
//! state and still refuse out-of-order and duplicate entries.

mod common;

use common::{key, SplitMix};
use starcdn_cache::inflight::{InflightEntryState, InflightFetch};
use starcdn_cache::object::ObjectId;
use starcdn_cache::{InflightQueue, InflightState, RetiredFetch};
use std::collections::BTreeMap;

/// The queue's contract, restated over an ordered map.
#[derive(Default)]
struct Model {
    fetches: BTreeMap<ObjectId, InflightFetch>,
}

impl Model {
    fn take_completed(&mut self, id: ObjectId, now: u64) -> Option<RetiredFetch> {
        if self.fetches.get(&id)?.completes_at > now {
            return None;
        }
        let f = self.fetches.remove(&id)?;
        Some(RetiredFetch { size: f.size, followers: f.followers, delay_epochs: f.delay_epochs })
    }

    fn coalesce(&mut self, id: ObjectId, now: u64) -> Option<u64> {
        let f = self.fetches.get_mut(&id)?;
        if f.completes_at <= now {
            return None;
        }
        let residual = f.completes_at - now;
        f.followers += 1;
        f.delay_epochs += residual;
        Some(residual)
    }

    fn register(&mut self, id: ObjectId, size: u64, now: u64, fetch_epochs: u64) {
        let fetch = InflightFetch {
            completes_at: now + fetch_epochs,
            size,
            followers: 0,
            delay_epochs: fetch_epochs,
        };
        assert!(self.fetches.insert(id, fetch).is_none());
    }

    fn to_state(&self) -> InflightState {
        InflightState {
            fetches: self
                .fetches
                .iter()
                .map(|(&id, f)| InflightEntryState {
                    id,
                    completes_at: f.completes_at,
                    size: f.size,
                    followers: f.followers,
                    delay_epochs: f.delay_epochs,
                })
                .collect(),
        }
    }
}

#[test]
fn queue_matches_the_ordered_reference_on_seeded_sequences() {
    let mut retired = 0u64;
    let mut delayed = 0u64;
    let mut peak = 0usize;
    for seed in 0..120u64 {
        let mut rng = SplitMix(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ 0x51);
        let mut queue = InflightQueue::new();
        let mut model = Model::default();
        let mut now = 0u64;
        for step in 0..2_000usize {
            now += rng.next() % 3;
            let id = key(seed, rng.next() % 300);
            let at = format!("seed {seed} step {step} {id}");
            // The serving order of one request: retire, else coalesce,
            // else start a fetch (inflight.rs module docs, steps 1–4).
            match rng.next() % 100 {
                0 => {
                    queue.clear();
                    model.fetches.clear();
                }
                1..=9 => assert_eq!(queue.get(id), model.fetches.get(&id), "{at}"),
                _ => {
                    let r = queue.take_completed(id, now);
                    assert_eq!(r, model.take_completed(id, now), "{at}");
                    retired += r.is_some() as u64;
                    let c = queue.coalesce(id, now);
                    assert_eq!(c, model.coalesce(id, now), "{at}");
                    delayed += c.is_some() as u64;
                    if r.is_none() && c.is_none() {
                        let (size, epochs) = (1 + rng.next() % 9_000, rng.next() % 40);
                        queue.register(id, size, now, epochs);
                        model.register(id, size, now, epochs);
                    }
                }
            }
            assert_eq!(queue.len(), model.fetches.len(), "{at}");
            assert_eq!(queue.is_empty(), model.fetches.is_empty(), "{at}");
            peak = peak.max(queue.len());
            if step % 97 == 0 {
                let state = queue.to_state();
                assert_eq!(state, model.to_state(), "{at}");
                assert!(state.fetches.windows(2).all(|w| w[0].id < w[1].id), "{at}: ascending");
                let rebuilt = InflightQueue::from_state(&state).expect("own export restores");
                assert_eq!(rebuilt, queue, "{at}");
                assert_eq!(rebuilt.to_state(), state, "{at}");
                if state.fetches.len() >= 2 {
                    let mut swapped = state.clone();
                    let last = swapped.fetches.len() - 1;
                    swapped.fetches.swap(0, last);
                    assert!(InflightQueue::from_state(&swapped).is_err(), "{at}: out of order");
                    let mut doubled = state.clone();
                    doubled.fetches.insert(1, doubled.fetches[0]);
                    assert!(InflightQueue::from_state(&doubled).is_err(), "{at}: duplicate");
                }
            }
        }
    }
    // The sequences populated every branch the serving path takes.
    assert!(retired > 10_000 && delayed > 5_000 && peak > 100, "{retired} {delayed} {peak}");
}
