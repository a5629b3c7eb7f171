//! The serve kernel: one request's life at its owner, written once.
//!
//! [`serve_one`] is the only body of the serve order — retire a landed
//! fetch → hit → coalesce → relay → ground (register a fetch) — and the
//! only place a served request's latency is composed. Its callers are
//! [`crate::system::SpaceCdn`] (the sequential engine: the one-shard
//! case), the parallel replayer's workers and the socket plane's shard
//! servers. Each owns its own [`Slots`]: the replayer and the plane give
//! a worker whole relay groups ([`crate::relay::shard_table`]), so no
//! serve reads a slot another worker writes. What a configuration fixes
//! for a whole run is in one [`ServeEnv`].
//!
//! `starcdn_cache::simulate::access_delayed` is the single-cache
//! reference for the same order; the property tests and the benchmark's
//! cache probe compare against it.

use crate::config::{DelayedHitConfig, RelayPolicy, StarCdnConfig};
use crate::latency::LatencyModel;
use crate::metrics::SystemMetrics;
use crate::relay::relay_candidates;
use crate::system::{RouteOutcome, ServeOutcome, ServedFrom};
use starcdn_cache::object::ObjectId;
use starcdn_cache::policy::{AccessOutcome, Cache};
use starcdn_cache::{CacheState, InflightQueue, InflightState};
use starcdn_constellation::buckets::BucketTiling;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_orbit::walker::SatelliteId;

/// Everything a [`StarCdnConfig`] fixes for a whole run, derived once:
/// what routing, the overload lifecycle and [`serve_one`] read per
/// request. Owns its (three-field) grid so a fleet can keep one beside
/// its configuration.
#[derive(Debug, Clone)]
pub struct ServeEnv {
    pub grid: GridTopology,
    /// The bucket tiling, when hashing is enabled.
    pub tiling: Option<BucketTiling>,
    /// Calibration constants + the configured link model.
    pub latency: LatencyModel,
    pub relay: RelayPolicy,
    pub delayed: DelayedHitConfig,
    /// `StarCdnConfig::probe_neighbors_on_miss`.
    pub probe: bool,
    /// `StarCdnConfig::model_transmission_delay`.
    pub transmission: bool,
    /// Planes between same-bucket neighbours (relay and retry stride).
    pub span: u16,
    /// `StarCdnConfig::remap_on_failure`.
    pub remap: bool,
}

impl ServeEnv {
    /// # Panics
    /// Panics when the bucket tiling does not fit the grid.
    pub fn new(cfg: &StarCdnConfig) -> Self {
        ServeEnv {
            grid: cfg.grid.clone(),
            tiling: cfg.tiling().unwrap_or_else(|e| panic!("invalid bucket configuration: {e}")),
            latency: LatencyModel { link: cfg.link_model.clone(), ..LatencyModel::default() },
            relay: cfg.relay,
            delayed: cfg.delayed,
            probe: cfg.probe_neighbors_on_miss,
            transmission: cfg.model_transmission_delay,
            span: cfg.relay_span_planes(),
            remap: cfg.remap_on_failure,
        }
    }
}

/// A request resolved to a live owner over a surviving (and, under
/// overload, admitted) route: what [`serve_one`] serves, what the
/// replayer's pre-pass shards by owner, and what travels to a shard
/// server as a request op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedRequest {
    pub object: ObjectId,
    pub size: u64,
    pub owner: SatelliteId,
    /// One-way intra-/inter-orbit hops from the first contact.
    pub intra: u16,
    pub inter: u16,
    pub gsl_oneway_ms: f64,
    /// Retry penalty the overload lifecycle accumulated (0.0 adds
    /// nothing and leaves the latency sample bit-identical).
    pub penalty_ms: f64,
    /// Overload classification: `Some(false)` = admitted at the primary,
    /// `Some(true)` = at a retry replica, `None` = overload mode off.
    pub replica: Option<bool>,
    /// Scheduler epoch of the request — the delayed-hit clock.
    pub epoch: u64,
}

/// One cache, one in-flight queue and one cold-restart flag per grid
/// slot, owned by a single thread (the fleet, a replayer worker, a shard
/// server). A slot's restart is [`Slots::wipe`] when its satellite goes
/// down, then [`Slots::mark_cold`] when it comes back.
pub struct Slots {
    pub caches: Vec<Box<dyn Cache + Send>>,
    /// All empty unless the delayed-hit model is enabled.
    pub inflight: Vec<InflightQueue>,
    /// Set when a satellite recovers from an outage with an empty cache,
    /// cleared by its first local hit; its misses until then are
    /// cold-restart misses.
    pub cold: Vec<bool>,
}

impl Slots {
    /// Empty caches of the configured policy and capacity for every slot,
    /// none of them cold.
    pub fn new(cfg: &StarCdnConfig) -> Self {
        let slots = cfg.grid.total_slots();
        Slots {
            caches: (0..slots).map(|_| cfg.policy.build(cfg.cache_capacity_bytes)).collect(),
            inflight: (0..slots).map(|_| InflightQueue::new()).collect(),
            cold: vec![false; slots],
        }
    }

    /// Slot `idx`'s satellite went down: its cache and its outstanding
    /// fetches are lost (their followers were already counted as delayed
    /// hits), and it is not cold until it comes back.
    pub fn wipe(&mut self, idx: usize) {
        self.caches[idx].clear();
        self.inflight[idx].clear();
        self.cold[idx] = false;
    }

    /// Slot `idx`'s satellite recovered: cold until its first local hit.
    pub fn mark_cold(&mut self, idx: usize) {
        self.cold[idx] = true;
    }

    /// Slot `idx`'s cache and outstanding fetches as plain state: what a
    /// checkpoint body holds per slot.
    pub fn export(&self, idx: usize) -> (CacheState, InflightState) {
        (self.caches[idx].to_state(), self.inflight[idx].to_state())
    }

    /// Rebuild slot `idx` from [`Slots::export`]ed state. A cache of
    /// another policy than the slot's, or a state that fails its
    /// structural validation, is refused and leaves the slot as it was.
    pub fn restore(
        &mut self,
        idx: usize,
        cache: &CacheState,
        inflight: &InflightState,
    ) -> Result<(), String> {
        let (want, got) = (self.caches[idx].policy_name(), cache.policy_name());
        if got != want {
            return Err(format!("slot {idx} holds a `{got}` cache, this run's policy is `{want}`"));
        }
        let built = cache.build().map_err(|e| format!("cache slot {idx}: {e}"))?;
        self.inflight[idx] =
            InflightQueue::from_state(inflight).map_err(|e| format!("inflight slot {idx}: {e}"))?;
        self.caches[idx] = built;
        Ok(())
    }
}

/// Serve one routed request at its owner and book it into `m`.
///
/// `relay_view` is the failure view relay candidates and neighbour
/// probes resolve against — the one input besides the slots that
/// legitimately differs per caller: the engine passes the live view of
/// the request's epoch, the replayer and the shard servers the static
/// base set (their workers run ahead of and behind the churn cursor, so
/// no single live view exists; DESIGN.md §7). The owner's cold flag
/// lives in `slots` beside its cache. Forced inline: each
/// caller is a per-request loop, and across a call the request and the
/// outcome go through memory — ≈ 12 ns per request, a tenth of an engine
/// request (EXPERIMENTS.md "Serve kernel").
#[inline(always)]
pub fn serve_one(
    slots: &mut Slots,
    env: &ServeEnv,
    relay_view: &FailureModel,
    m: &mut SystemMetrics,
    req: &RoutedRequest,
) -> ServeOutcome {
    let &RoutedRequest { object, size, owner, intra, inter, gsl_oneway_ms, epoch, .. } = req;
    let spp = env.grid.sats_per_plane;
    let owner_idx = owner.index(spp);
    let delayed = env.delayed;

    // Owner access. Plain model: a miss auto-admits (the owner will
    // cache the object wherever it ends up coming from). Delayed model:
    // retire a landed fetch (admission + eviction-delay charge), then
    // classify against the cache and the outstanding queue — a delayed
    // hit is a space hit that never touches the cache, and a true miss
    // does not admit until its fetch retires.
    let mut fetch_retired = false;
    let mut coalesced = 0u64;
    let mut residual_epochs = 0u64;
    let local = if !delayed.is_enabled() {
        slots.caches[owner_idx].access(object, size)
    } else {
        let (cache, inflight) = (&mut slots.caches[owner_idx], &mut slots.inflight[owner_idx]);
        if let Some(r) = inflight.take_completed(object, epoch) {
            cache.insert(object, r.size);
            cache.record_fetch_delay(object, r.delay_epochs);
            fetch_retired = true;
            coalesced = r.followers;
            m.coalesced_requests += r.followers;
        }
        if cache.contains(object) {
            let hit = cache.access(object, size);
            debug_assert!(hit.is_hit());
            hit
        } else {
            match inflight.coalesce(object, epoch) {
                Some(residual) => {
                    residual_epochs = residual;
                    m.delayed_hits += 1;
                    *m.residual_epoch_hist.entry(residual).or_insert(0) += 1;
                    AccessOutcome::Hit
                }
                None => AccessOutcome::Miss,
            }
        }
    };
    let mut cold_miss = false;
    if slots.cold[owner_idx] {
        if local.is_hit() {
            // Re-warmed: cached content is flowing again.
            slots.cold[owner_idx] = false;
        } else {
            m.cold_restart_misses += 1;
            cold_miss = true;
        }
    }

    let (served_from, latency_ms) = if local.is_hit() {
        (ServedFrom::LocalHit, env.latency.space_hit_rtt_ms(gsl_oneway_ms, intra, inter))
    } else {
        // Table-3 monitor: neighbour availability at miss time.
        if env.probe {
            let west = neighbor_has(slots, env, relay_view, owner, true, object);
            let east = neighbor_has(slots, env, relay_view, owner, false, object);
            m.neighbor_availability.record(west, east, size);
        }
        let mut relay_hit = None;
        for (tag, neighbor) in relay_candidates(&env.grid, owner, env.span, env.relay, relay_view) {
            let cache = &mut slots.caches[neighbor.index(spp)];
            if cache.contains(object) {
                // Serving refreshes the neighbour's recency state.
                cache.access(object, size);
                relay_hit = Some(tag);
                break;
            }
        }
        match relay_hit {
            Some(tag) => (tag, env.latency.relay_hit_rtt_ms(gsl_oneway_ms, intra, inter, env.span)),
            None => {
                let wasted_probes = if env.relay.enabled() { env.span } else { 0 };
                let rtt =
                    env.latency.ground_miss_rtt_ms(gsl_oneway_ms, intra, inter, wasted_probes);
                (ServedFrom::Ground, rtt)
            }
        }
    };
    let relayed = matches!(served_from, ServedFrom::RelayWest | ServedFrom::RelayEast);

    let latency_ms = if env.transmission {
        latency_ms + env.latency.transmission_ms(served_from, size, intra + inter, env.span)
    } else {
        latency_ms
    };
    let latency_ms = add_penalty(latency_ms, req.penalty_ms);

    // Delayed model: the relayed copy crosses the ISL within the epoch,
    // so the owner caches it at once with no fetch to wait out (the
    // plain model admitted it through the auto-admitting access above);
    // a ground miss starts a fetch and waits it out in full; a delayed
    // hit waits only the residual.
    let latency_ms = if !delayed.is_enabled() {
        latency_ms
    } else if relayed {
        slots.caches[owner_idx].insert(object, size);
        latency_ms
    } else if served_from == ServedFrom::Ground {
        let fetch_epochs = delayed.fetch_epochs_for(object);
        slots.inflight[owner_idx].register(object, size, epoch, fetch_epochs);
        latency_ms + fetch_epochs as f64 * delayed.wait_ms_per_epoch
    } else if residual_epochs > 0 {
        latency_ms + residual_epochs as f64 * delayed.wait_ms_per_epoch
    } else {
        latency_ms
    };

    match req.replica {
        Some(true) => m.served_replica += 1,
        Some(false) => m.served_primary += 1,
        None => {}
    }
    m.record(owner, served_from, size, latency_ms);
    ServeOutcome {
        served_from,
        latency_ms,
        uplink_bytes: if served_from == ServedFrom::Ground { size } else { 0 },
        owner,
        route_hops: intra + inter,
        residual_epochs,
        fetch_retired,
        coalesced,
        cold_miss,
    }
}

/// Does the same-bucket neighbour `span` planes west (or east) of
/// `owner` — after failure remapping — hold `object`?
fn neighbor_has(
    slots: &Slots,
    env: &ServeEnv,
    view: &FailureModel,
    owner: SatelliteId,
    west: bool,
    object: ObjectId,
) -> bool {
    let slot =
        if west { env.grid.west_by(owner, env.span) } else { env.grid.east_by(owner, env.span) };
    view.resolve_owner(&env.grid, slot)
        .filter(|&s| s != owner)
        .is_some_and(|s| slots.caches[s.index(env.grid.sats_per_plane)].contains(object))
}

/// Gated: `x + 0.0` is not a bitwise no-op for every float (-0.0), and
/// the no-penalty path must stay byte-identical.
fn add_penalty(latency_ms: f64, penalty_ms: f64) -> f64 {
    if penalty_ms > 0.0 {
        latency_ms + penalty_ms
    } else {
        latency_ms
    }
}

/// Serve a request over the origin bent pipe from `sat` — no ISL leg, no
/// cache touched: the overload lifecycle's origin fallback, a request
/// with no reachable owner, an op a shard server never received. Bytes
/// are charged to the uplink like any ground serve.
pub fn bent_pipe(
    env: &ServeEnv,
    m: &mut SystemMetrics,
    sat: SatelliteId,
    size: u64,
    gsl_oneway_ms: f64,
    penalty_ms: f64,
) -> f64 {
    let latency_ms =
        add_penalty(env.latency.ground_miss_rtt_ms(gsl_oneway_ms, 0, 0, 0), penalty_ms);
    m.record(sat, ServedFrom::Ground, size, latency_ms);
    latency_ms
}

/// A request whose route resolution ended `degraded` (partitioned or
/// unroutable, never `Routed`): downlink straight from the first contact
/// (the transient-failure path of §3.4). A partition — live owner across
/// a severed grid — additionally bumps its own counter; the serve itself
/// is the same bent pipe either way.
pub fn serve_degraded(
    env: &ServeEnv,
    m: &mut SystemMetrics,
    degraded: RouteOutcome,
    first_contact: SatelliteId,
    size: u64,
    gsl_oneway_ms: f64,
) -> ServeOutcome {
    debug_assert!(degraded.routed().is_none());
    m.partitioned_requests += matches!(degraded, RouteOutcome::Partitioned { .. }) as u64;
    ServeOutcome {
        served_from: ServedFrom::Ground,
        latency_ms: bent_pipe(env, m, first_contact, size, gsl_oneway_ms, 0.0),
        uplink_bytes: size,
        owner: first_contact,
        route_hops: 0,
        residual_epochs: 0,
        fetch_retired: false,
        coalesced: 0,
        cold_miss: false,
    }
}

/// Record a request that could not reach any satellite (none in view):
/// served bent-pipe from the ground, like today's Starlink, and booked
/// on a sentinel satellite id.
pub fn serve_unreachable(env: &ServeEnv, m: &mut SystemMetrics, size: u64) -> f64 {
    let latency_ms = env.latency.starlink_no_cache_rtt_ms(env.latency.link.gsl.avg_delay_ms);
    m.record(SatelliteId::new(u16::MAX, u16::MAX), ServedFrom::Ground, size, latency_ms);
    latency_ms
}
