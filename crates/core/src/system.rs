//! The StarCDN system: request handling across the satellite fleet.
//!
//! [`SpaceCdn`] owns one cache per grid slot and implements the full
//! request pipeline of Fig. 5a:
//!
//! 1. the user's request arrives at its *first-contact* satellite
//!    (chosen by the link scheduler — outside StarCDN's control);
//! 2. with hashing enabled, the request is routed over ISLs to the
//!    nearest owner of the object's bucket (≤ `2⌊√L/2⌋` hops), after
//!    §3.4 failure remapping;
//! 3. the owner serves from cache, or relay-fetches from its same-bucket
//!    inter-orbit neighbours (§3.3), or downlinks to the ground origin —
//!    always caching what it fetched;
//! 4. latency is accounted leg by leg and uplink bytes are charged only
//!    for ground fetches.
//!
//! Step 2 is the route resolution below; steps 3 and 4 are
//! [`crate::kernel::serve_one`], here against the fleet's own slots.

use crate::config::StarCdnConfig;
use crate::kernel::{self, RoutedRequest, ServeEnv, Slots};
use crate::metrics::SystemMetrics;
use serde::{Deserialize, Serialize};
use starcdn_cache::object::ObjectId;
#[cfg(test)]
use starcdn_cache::policy::Cache;
use starcdn_cache::{InflightQueue, InflightState};
use starcdn_constellation::buckets::BucketTiling;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::grid::GridTopology;
use starcdn_constellation::routing::hop_mix_avoiding_links_recorded;
use starcdn_orbit::walker::SatelliteId;

/// Where a request was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServedFrom {
    /// The bucket owner's own cache (or the first-contact satellite's,
    /// without hashing).
    LocalHit,
    /// The west same-bucket inter-orbit neighbour.
    RelayWest,
    /// The east same-bucket inter-orbit neighbour.
    RelayEast,
    /// Fetched from the origin via a ground-satellite link.
    Ground,
}

impl ServedFrom {
    /// True when the request never touched the ground.
    pub fn is_space_hit(self) -> bool {
        !matches!(self, ServedFrom::Ground)
    }
}

/// The result of handling one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOutcome {
    pub served_from: ServedFrom,
    /// End-to-end RTT, ms.
    pub latency_ms: f64,
    /// Bytes charged to the ground-to-satellite uplink.
    pub uplink_bytes: u64,
    /// The satellite that handled (and now caches) the object.
    pub owner: SatelliteId,
    /// ISL hops from the first-contact satellite to the owner (one way).
    pub route_hops: u16,
    /// Residual fetch wait charged to this request, in epochs. Nonzero
    /// exactly when the request was a delayed hit (coalesced onto an
    /// in-flight fetch); always 0 with the delayed-hit model off.
    pub residual_epochs: u64,
    /// An in-flight fetch for this object completed and retired
    /// (admitting the object) when this request arrived.
    pub fetch_retired: bool,
    /// Followers that were aboard the retired fetch.
    pub coalesced: u64,
    /// The owner missed while still cold from a restart.
    pub cold_miss: bool,
}

/// The owner a request routes to, with the degraded-mode context the
/// metrics layer needs: whether §3.4 remapping redirected it and how many
/// extra ISL hops the fault-avoiding route cost over the healthy torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedRoute {
    /// The satellite that serves the request.
    pub owner: SatelliteId,
    /// One-way intra-orbit hops from the first contact.
    pub intra: u16,
    /// One-way inter-orbit hops from the first contact.
    pub inter: u16,
    /// True when the preferred bucket owner was dead and the request was
    /// remapped to the next available satellite.
    pub remapped: bool,
    /// Hops beyond the healthy-torus distance to the serving owner, paid
    /// to route around dead satellites or cut links.
    pub extra_hops: u16,
}

impl ResolvedRoute {
    /// Total one-way ISL hops.
    pub fn hops(&self) -> u16 {
        self.intra + self.inter
    }

    /// Book what degraded mode cost this route: the remap and the detour
    /// hops. Once per request served over it.
    #[inline]
    pub fn book(&self, m: &mut SystemMetrics) {
        m.remapped_requests += self.remapped as u64;
        m.reroute_extra_hops += self.extra_hops as u64;
    }
}

/// How a route resolution ended: the explicit three-way split the
/// degraded-serving paths need. `Partitioned` (owner alive but
/// unreachable across a severed grid) and `Unroutable` (owner and every
/// remap candidate dead) both degrade to the origin bent-pipe path, but
/// are distinct failure modes with distinct counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// A live owner with a surviving route.
    Routed(ResolvedRoute),
    /// The owner resolved to a live satellite, but no surviving ISL path
    /// connects the first contact to it: they sit in different connected
    /// components of the damaged grid.
    Partitioned {
        /// The live-but-unreachable owner.
        owner: SatelliteId,
    },
    /// The preferred owner (and, with remapping, every candidate in its
    /// bucket chain) is dead.
    Unroutable,
}

impl RouteOutcome {
    /// The resolved route, dropping the degraded outcomes.
    pub(crate) fn routed(self) -> Option<ResolvedRoute> {
        match self {
            RouteOutcome::Routed(r) => Some(r),
            RouteOutcome::Partitioned { .. } | RouteOutcome::Unroutable => None,
        }
    }
}

/// Resolve the serving owner and route for `object` arriving at
/// `first_contact` under an arbitrary failure view — a free function, so
/// the replayer's pre-pass resolves against a churn cursor's view with no
/// fleet (and no per-slot caches) behind it. The fault-avoiding search
/// reports route counts and detour hop lengths through `rec` (see
/// [`hop_mix_avoiding_links_recorded`]).
pub fn classify_route_in_recorded(
    env: &ServeEnv,
    failures: &FailureModel,
    first_contact: SatelliteId,
    object: ObjectId,
    rec: &dyn starcdn_telemetry::Recorder,
) -> RouteOutcome {
    let preferred = preferred_owner(&env.grid, env.tiling.as_ref(), first_contact, object);
    classify_route_toward_recorded(&env.grid, failures, env.remap, first_contact, preferred, rec)
}

/// The owner `object` hashes to under the tiling (the first contact
/// itself without hashing), before any failure remapping.
pub fn preferred_owner(
    grid: &GridTopology,
    tiling: Option<&BucketTiling>,
    first_contact: SatelliteId,
    object: ObjectId,
) -> SatelliteId {
    match tiling {
        Some(t) => t.nearest_owner(grid, first_contact, t.bucket_of_object(object.hash64())),
        None => first_contact,
    }
}

/// Resolve the route toward an explicit `preferred` owner (rather than
/// the one the object hashes to): §3.4 remapping, then hop mix on the
/// healthy torus or the fault-avoiding search. The overload retry path
/// uses this to probe successive same-bucket replicas. Three outcomes:
/// `Routed`, `Partitioned` (live owner, no surviving path — a dead first
/// contact counts, it is trivially disconnected), or `Unroutable` (owner
/// chain dead).
pub fn classify_route_toward_recorded(
    grid: &GridTopology,
    failures: &FailureModel,
    remap_on_failure: bool,
    first_contact: SatelliteId,
    preferred: SatelliteId,
    rec: &dyn starcdn_telemetry::Recorder,
) -> RouteOutcome {
    let owner = if remap_on_failure {
        match failures.resolve_owner(grid, preferred) {
            Some(o) => o,
            None => return RouteOutcome::Unroutable,
        }
    } else if failures.is_alive(preferred) {
        preferred
    } else {
        // Transient failure response (§3.4): report a miss and forward
        // the request to the ground.
        return RouteOutcome::Unroutable;
    };
    let remapped = owner != preferred;
    if owner == first_contact {
        return RouteOutcome::Routed(ResolvedRoute {
            owner,
            intra: 0,
            inter: 0,
            remapped,
            extra_hops: 0,
        });
    }
    if !failures.has_faults() {
        // Healthy torus: the canonical path's hop mix is the wrap
        // distance on each axis.
        let inter = grid.plane_distance(first_contact.orbit, owner.orbit);
        let intra = grid.slot_distance(first_contact.slot, owner.slot);
        RouteOutcome::Routed(ResolvedRoute { owner, intra, inter, remapped, extra_hops: 0 })
    } else {
        let Some((intra, inter)) = hop_mix_avoiding_links_recorded(
            grid,
            first_contact,
            owner,
            |id| failures.is_alive(id),
            |a, b| failures.is_link_alive(a, b),
            rec,
        ) else {
            // The owner is alive but BFS over the surviving grid found no
            // path: first contact and owner are in different components.
            return RouteOutcome::Partitioned { owner };
        };
        let extra_hops = (intra + inter).saturating_sub(grid.hop_distance(first_contact, owner));
        RouteOutcome::Routed(ResolvedRoute { owner, intra, inter, remapped, extra_hops })
    }
}

/// The satellite CDN fleet.
pub struct SpaceCdn {
    cfg: StarCdnConfig,
    /// What `cfg` fixes for every request: tiling, latency model, relay
    /// and delayed-hit parameters.
    env: ServeEnv,
    failures: FailureModel,
    /// One cache, one outstanding-fetch queue (empty unless the
    /// delayed-hit model is enabled) and one cold flag per grid slot.
    slots: Slots,
    /// Current scheduler epoch, the delayed-hit clock of
    /// [`SpaceCdn::handle_request`].
    now_epoch: u64,
    /// Aggregate run metrics.
    pub metrics: SystemMetrics,
}

impl SpaceCdn {
    /// Build the fleet described by `cfg` with no failures.
    pub fn new(cfg: StarCdnConfig) -> Self {
        Self::with_failures(cfg, FailureModel::none())
    }

    /// Build the fleet with an outage set; bucket responsibilities of
    /// dead satellites are remapped per §3.4.
    pub fn with_failures(cfg: StarCdnConfig, failures: FailureModel) -> Self {
        SpaceCdn {
            env: ServeEnv::new(&cfg),
            slots: Slots::new(&cfg),
            cfg,
            failures,
            now_epoch: 0,
            metrics: SystemMetrics::default(),
        }
    }

    /// Advance the delayed-hit clock to `epoch`; with the model disabled
    /// it only stores a number.
    pub fn set_now_epoch(&mut self, epoch: u64) {
        self.now_epoch = epoch;
    }

    /// Read-only view of one satellite's outstanding-fetch queue.
    #[cfg(test)]
    pub(crate) fn inflight_of(&self, id: SatelliteId) -> &InflightQueue {
        &self.slots.inflight[self.cache_idx(id)]
    }

    /// The configuration in force.
    pub fn config(&self) -> &StarCdnConfig {
        &self.cfg
    }

    /// The failure model in force.
    pub fn failures(&self) -> &FailureModel {
        &self.failures
    }

    /// What the configuration fixes for every request, derived once.
    pub fn env(&self) -> &ServeEnv {
        &self.env
    }

    fn cache_idx(&self, id: SatelliteId) -> usize {
        id.index(self.cfg.grid.sats_per_plane)
    }

    /// Read-only view of one satellite's cache.
    #[cfg(test)]
    pub(crate) fn cache_of(&self, id: SatelliteId) -> &dyn Cache {
        self.slots.caches[self.cache_idx(id)].as_ref()
    }

    /// The satellite that owns requests for `object` arriving at
    /// `first_contact`, with the route hop mix and degraded-mode context.
    /// `None` when every candidate owner is dead or unreachable.
    pub fn resolve_route(
        &self,
        first_contact: SatelliteId,
        object: ObjectId,
    ) -> Option<ResolvedRoute> {
        self.classify_route(first_contact, object).routed()
    }

    /// [`SpaceCdn::resolve_route`] with the explicit three-way outcome
    /// (routed / partitioned / unroutable).
    pub(crate) fn classify_route(
        &self,
        first_contact: SatelliteId,
        object: ObjectId,
    ) -> RouteOutcome {
        let rec = &starcdn_telemetry::Noop;
        classify_route_in_recorded(&self.env, &self.failures, first_contact, object, rec)
    }

    /// What resolving a request needs of the fleet, borrowed at once:
    /// the serve environment, the live failure view, and the metrics the
    /// directly-accounted outcomes are booked into.
    #[inline]
    pub fn resolving(&mut self) -> (&ServeEnv, &FailureModel, &mut SystemMetrics) {
        (&self.env, &self.failures, &mut self.metrics)
    }

    /// Serve one routed request through [`kernel::serve_one`] against
    /// this fleet's own slots, under its live failure view. Inline, so
    /// the engine's loop holds the kernel's body as the workers' do.
    #[inline(always)]
    pub fn serve(&mut self, req: &RoutedRequest) -> ServeOutcome {
        kernel::serve_one(&mut self.slots, &self.env, &self.failures, &mut self.metrics, req)
    }

    /// Handle one request arriving at `first_contact` with the given
    /// one-way user↔satellite GSL delay.
    pub fn handle_request(
        &mut self,
        first_contact: SatelliteId,
        object: ObjectId,
        size: u64,
        gsl_oneway_ms: f64,
    ) -> ServeOutcome {
        match self.classify_route(first_contact, object) {
            RouteOutcome::Routed(route) => {
                route.book(&mut self.metrics);
                self.serve(&RoutedRequest {
                    object,
                    size,
                    owner: route.owner,
                    intra: route.intra,
                    inter: route.inter,
                    gsl_oneway_ms,
                    penalty_ms: 0.0,
                    replica: None,
                    epoch: self.now_epoch,
                })
            }
            degraded => kernel::serve_degraded(
                &self.env,
                &mut self.metrics,
                degraded,
                first_contact,
                size,
                gsl_oneway_ms,
            ),
        }
    }

    /// One proactive-prefetch round (the §3.3 rejected alternative):
    /// every alive satellite copies the `top_k` hottest objects of its
    /// west same-bucket neighbour into its own cache. Call once per
    /// scheduler epoch. Copies are charged to `metrics.prefetch_bytes`
    /// whether or not anyone ever requests them — that waste is exactly
    /// why the paper chose reactive relayed fetch instead.
    pub fn prefetch_round(&mut self) {
        let Some(top_k) = self.cfg.prefetch_top_k else { return };
        let span = self.cfg.relay_span_planes();
        // Plan all transfers against the pre-round state (the real system
        // runs them in parallel over ISLs), then apply — otherwise content
        // would cascade across the whole ring within a single round.
        let mut planned: Vec<(usize, ObjectId, u64)> = Vec::new();
        for id in self.cfg.grid.iter_ids() {
            if !self.failures.is_alive(id) {
                continue;
            }
            let west_slot = self.cfg.grid.west_by(id, span);
            let Some(west) =
                self.failures.resolve_owner(&self.cfg.grid, west_slot).filter(|&w| w != id)
            else {
                continue;
            };
            let own_idx = self.cache_idx(id);
            for (obj, size) in self.slots.caches[self.cache_idx(west)].hottest(top_k) {
                if !self.slots.caches[own_idx].contains(obj) {
                    planned.push((own_idx, obj, size));
                }
            }
        }
        for (idx, obj, size) in planned {
            if !self.slots.caches[idx].contains(obj) {
                self.slots.caches[idx].insert(obj, size);
                self.metrics.prefetch_bytes = self.metrics.prefetch_bytes.saturating_add(size);
                self.metrics.prefetch_copies += 1;
            }
        }
    }

    /// Record a request that could not reach any satellite (no satellite
    /// in view): served bent-pipe from the ground, like today's Starlink.
    pub fn handle_unreachable(&mut self, size: u64) -> f64 {
        kernel::serve_unreachable(&self.env, &mut self.metrics, size)
    }

    /// Swap in a new failure view (churn: the live view changes at epoch
    /// boundaries). Cache contents are untouched — use
    /// [`SpaceCdn::wipe_cache`] for satellites that actually went down.
    pub fn set_failures(&mut self, failures: FailureModel) {
        self.failures = failures;
    }

    /// Drop one satellite's cached content (it went out of service; its
    /// state does not survive the outage). Outstanding fetches die with
    /// it — their followers were already counted as delayed hits.
    pub fn wipe_cache(&mut self, id: SatelliteId) {
        let idx = self.cache_idx(id);
        self.slots.wipe(idx);
    }

    /// Mark a satellite as freshly recovered: its next misses count as
    /// cold-restart misses until the first local hit.
    pub fn mark_cold(&mut self, id: SatelliteId) {
        let idx = self.cache_idx(id);
        self.slots.mark_cold(idx);
    }

    /// Is this satellite still in its post-recovery warm-up?
    #[cfg(test)]
    pub(crate) fn is_cold(&self, id: SatelliteId) -> bool {
        self.slots.cold[self.cache_idx(id)]
    }

    /// Export every piece of run-dependent fleet state (checkpoint
    /// hook): per-slot cache states in slot order, cold flags, the live
    /// failure view, and the accumulated metrics. Everything else
    /// (tiling, latency model) is derivable from the config.
    pub fn export_state(&self) -> CdnState {
        CdnState {
            failures: self.failures.clone(),
            caches: self.slots.caches.iter().map(|c| c.to_state()).collect(),
            cold: self.slots.cold.clone(),
            inflight: self.slots.inflight.iter().map(|q| q.to_state()).collect(),
            metrics: self.metrics.clone(),
        }
    }

    /// Restore fleet state exported by [`SpaceCdn::export_state`] into a
    /// freshly built fleet of the same config. Validates shape and cache
    /// invariants; on error the fleet is left unchanged.
    pub fn import_state(&mut self, state: CdnState) -> Result<(), CdnStateError> {
        let slots = self.cfg.grid.total_slots();
        if state.caches.len() != slots || state.cold.len() != slots || state.inflight.len() != slots
        {
            return Err(CdnStateError::SlotCountMismatch {
                expected: slots,
                got: state.caches.len().max(state.cold.len()).max(state.inflight.len()),
            });
        }
        let expected = self.cfg.policy.name();
        let mut rebuilt = Vec::with_capacity(slots);
        for (slot, cs) in state.caches.iter().enumerate() {
            if cs.policy_name() != expected {
                return Err(CdnStateError::PolicyMismatch {
                    slot,
                    expected,
                    got: cs.policy_name(),
                });
            }
            rebuilt.push(cs.build().map_err(CdnStateError::Cache)?);
        }
        let mut queues = Vec::with_capacity(slots);
        for qs in &state.inflight {
            queues.push(InflightQueue::from_state(qs).map_err(CdnStateError::Inflight)?);
        }
        self.slots = Slots { caches: rebuilt, inflight: queues, cold: state.cold };
        self.failures = state.failures;
        self.metrics = state.metrics;
        Ok(())
    }
}

/// The run-dependent state of a [`SpaceCdn`], as exported by
/// [`SpaceCdn::export_state`]. Plain data: the checkpoint layer decides
/// how each part is encoded on disk.
#[derive(Debug, Clone)]
pub struct CdnState {
    pub failures: FailureModel,
    pub caches: Vec<starcdn_cache::CacheState>,
    pub cold: Vec<bool>,
    /// Per-slot outstanding-fetch queues, slot order (all empty unless
    /// the delayed-hit model is enabled).
    pub inflight: Vec<InflightState>,
    pub metrics: SystemMetrics,
}

/// Why a [`CdnState`] could not be imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdnStateError {
    /// The state was exported from a different constellation size.
    SlotCountMismatch { expected: usize, got: usize },
    /// A slot's cache state belongs to a different eviction policy.
    PolicyMismatch { slot: usize, expected: &'static str, got: &'static str },
    /// A cache state failed its structural validation.
    Cache(starcdn_cache::StateError),
    /// An outstanding-fetch queue failed its structural validation.
    Inflight(starcdn_cache::StateError),
}

impl std::fmt::Display for CdnStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdnStateError::SlotCountMismatch { expected, got } => {
                write!(f, "fleet state has {got} slots, this constellation has {expected}")
            }
            CdnStateError::PolicyMismatch { slot, expected, got } => {
                write!(f, "slot {slot} cache state is `{got}`, config wants `{expected}`")
            }
            CdnStateError::Cache(e) => write!(f, "cache state: {e}"),
            CdnStateError::Inflight(e) => write!(f, "in-flight fetch state: {e}"),
        }
    }
}

impl std::error::Error for CdnStateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StarCdnConfig;

    const CAP: u64 = 10_000;

    fn system(l: u32) -> SpaceCdn {
        SpaceCdn::new(StarCdnConfig::starcdn(l, CAP))
    }

    #[test]
    fn first_request_is_ground_second_is_hit() {
        let mut cdn = system(4);
        let sat = SatelliteId::new(10, 5);
        let o1 = cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        assert_eq!(o1.served_from, ServedFrom::Ground);
        assert_eq!(o1.uplink_bytes, 100);
        let o2 = cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        assert_eq!(o2.served_from, ServedFrom::LocalHit);
        assert_eq!(o2.uplink_bytes, 0);
        assert!(o2.latency_ms < o1.latency_ms);
        assert_eq!(o1.owner, o2.owner, "same object routes to the same owner");
    }

    #[test]
    fn tile_wider_than_a_grid_axis_is_refused_before_any_request() {
        use starcdn_constellation::buckets::TilingError;
        let on = |num_planes, sats_per_plane, l| StarCdnConfig {
            grid: GridTopology { num_planes, sats_per_plane, seamless: true },
            ..StarCdnConfig::starcdn(l, CAP)
        };
        // Used to build, then hit `unreachable!()` on the first request
        // whose bucket residue does not exist on the short axis.
        for (num_planes, sats_per_plane) in [(2, 2), (3, 2)] {
            let cfg = on(num_planes, sats_per_plane, 9);
            assert_eq!(
                cfg.tiling(),
                Err(TilingError::TileExceedsGrid { root: 3, num_planes, sats_per_plane })
            );
            let built = std::panic::catch_unwind(|| SpaceCdn::new(cfg));
            let why = built.err().expect("construction must refuse the tiling");
            let why = why.downcast_ref::<String>().expect("panic message");
            assert!(why.contains("3×3 bucket tile does not fit"), "{why}");
        }
        // A tile that exactly covers the grid serves every bucket from
        // every slot.
        let mut cdn = SpaceCdn::new(on(2, 2, 4));
        for k in 0..64u64 {
            let fc = SatelliteId::new((k % 2) as u16, (k / 2 % 2) as u16);
            let out = cdn.handle_request(fc, ObjectId(k), 100, 2.9);
            assert!(out.route_hops <= 2, "{out:?}");
        }
        assert_eq!(cdn.metrics.stats.requests, 64);
        assert_eq!(cdn.metrics.per_satellite.len(), 4, "all four buckets were asked for");
    }

    #[test]
    fn requests_from_different_sats_share_one_owner_cache() {
        // §5.2.1's core claim: adjacent users scheduled to different
        // satellites still hit the same cache under hashing.
        let mut cdn = system(4);
        let a = SatelliteId::new(10, 5);
        let b = SatelliteId::new(11, 5); // different first contact, same tile
        cdn.handle_request(a, ObjectId(7), 100, 2.9);
        let o = cdn.handle_request(b, ObjectId(7), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::LocalHit);
    }

    #[test]
    fn without_hashing_no_sharing() {
        let mut cdn = SpaceCdn::new(StarCdnConfig::naive_lru(CAP));
        let a = SatelliteId::new(10, 5);
        let b = SatelliteId::new(11, 5);
        cdn.handle_request(a, ObjectId(7), 100, 2.9);
        let o = cdn.handle_request(b, ObjectId(7), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::Ground, "naive LRU caches independently");
        assert_eq!(o.owner, b);
        assert_eq!(o.route_hops, 0);
    }

    #[test]
    fn route_hops_within_worst_case() {
        let mut cdn = system(9);
        let bound = cdn.env().tiling.unwrap().worst_case_hops();
        for s in 0..18u16 {
            for o in (0..72u16).step_by(7) {
                let out = cdn.handle_request(
                    SatelliteId::new(o, s),
                    ObjectId((o * 31 + s) as u64),
                    10,
                    2.9,
                );
                assert!(out.route_hops <= bound, "hops {} > bound {bound}", out.route_hops);
            }
        }
    }

    #[test]
    fn relay_west_serves_after_west_owner_cached() {
        let mut cdn = system(4);
        // Find the owner of an object from one first-contact satellite.
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        // Seed the object at the owner's west same-bucket neighbour by
        // sending a request whose first contact *is* that neighbour.
        let west = cdn.config().grid.west_by(owner, 2);
        let o1 = cdn.handle_request(west, ObjectId(3), 100, 2.9);
        assert_eq!(o1.owner, west, "west neighbour owns the same bucket");
        assert_eq!(o1.served_from, ServedFrom::Ground);
        // Now request via the original first contact: owner misses, west
        // relay hits.
        let o2 = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(o2.served_from, ServedFrom::RelayWest);
        assert_eq!(o2.uplink_bytes, 0, "relay saves the uplink");
        // And the owner cached the relayed copy: next time is a local hit.
        let o3 = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(o3.served_from, ServedFrom::LocalHit);
    }

    #[test]
    fn no_relay_variant_goes_to_ground() {
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn_no_relay(4, CAP));
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        let west = cdn.config().grid.west_by(owner, 2);
        cdn.handle_request(west, ObjectId(3), 100, 2.9);
        let o = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::Ground, "no relay configured");
    }

    #[test]
    fn relay_latency_between_hit_and_miss() {
        let mut cdn = system(4);
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        let west = cdn.config().grid.west_by(owner, 2);
        cdn.handle_request(west, ObjectId(3), 100, 2.9);
        let relay = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        let hit = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        let miss = cdn.handle_request(fc, ObjectId(999), 100, 2.9);
        assert!(
            hit.latency_ms < relay.latency_ms,
            "hit {} relay {}",
            hit.latency_ms,
            relay.latency_ms
        );
        assert!(
            relay.latency_ms < miss.latency_ms,
            "relay {} miss {}",
            relay.latency_ms,
            miss.latency_ms
        );
    }

    #[test]
    fn failure_remap_still_serves() {
        let cfg = StarCdnConfig::starcdn(9, CAP);
        let fc = SatelliteId::new(10, 5);
        // Kill the preferred owner for this object.
        let probe = SpaceCdn::new(cfg.clone());
        let preferred = probe.resolve_route(fc, ObjectId(5)).unwrap().owner;
        let failures = FailureModel::from_dead([preferred]);
        let mut cdn = SpaceCdn::with_failures(cfg, failures);
        let o1 = cdn.handle_request(fc, ObjectId(5), 100, 2.9);
        assert_ne!(o1.owner, preferred);
        assert!(cdn.failures().is_alive(o1.owner));
        let o2 = cdn.handle_request(fc, ObjectId(5), 100, 2.9);
        assert_eq!(o2.served_from, ServedFrom::LocalHit, "remapped owner caches");
        assert_eq!(cdn.metrics.remapped_requests, 2, "both requests were remapped");
    }

    #[test]
    fn cold_restart_misses_tracked_until_first_hit() {
        let mut cdn = system(4);
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        // Warm the owner, then restart it: wipe + mark cold.
        cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        cdn.wipe_cache(owner);
        cdn.mark_cold(owner);
        assert!(cdn.is_cold(owner));
        let o = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::Ground, "restart lost the cache");
        assert_eq!(cdn.metrics.cold_restart_misses, 1);
        // The fetch re-admitted the object: the next access is the first
        // local hit, which ends the warm-up.
        cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert!(!cdn.is_cold(owner));
        let before = cdn.metrics.cold_restart_misses;
        cdn.handle_request(fc, ObjectId(99), 100, 2.9);
        assert_eq!(cdn.metrics.cold_restart_misses, before, "warm again: plain miss");
    }

    #[test]
    fn cut_link_on_route_costs_extra_hops() {
        let cfg = StarCdnConfig::starcdn(4, CAP);
        let fc = SatelliteId::new(10, 5);
        let probe = SpaceCdn::new(cfg.clone());
        let route = probe.resolve_route(fc, ObjectId(3)).unwrap();
        if route.hops() == 0 {
            return; // owner is the first contact; nothing to cut
        }
        // Cut the first link of the canonical path.
        let grid = cfg.grid.clone();
        let path = starcdn_constellation::routing::shortest_path(&grid, fc, route.owner);
        let failures = FailureModel::from_outages([], [(path.nodes[0], path.nodes[1])]);
        let mut cdn = SpaceCdn::with_failures(cfg, failures);
        let rerouted = cdn.resolve_route(fc, ObjectId(3)).unwrap();
        assert_eq!(rerouted.owner, route.owner, "link cuts never change ownership");
        assert!(!rerouted.remapped);
        assert!(rerouted.hops() >= route.hops(), "detour cannot shorten the route");
        cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        assert_eq!(cdn.metrics.reroute_extra_hops, rerouted.extra_hops as u64);
    }

    #[test]
    fn partitioned_owner_degrades_to_bent_pipe() {
        // Sever every ISL of the first contact: the owner stays alive,
        // but no surviving path connects them — a partition, not an
        // unroutable request.
        let cfg = StarCdnConfig::starcdn(9, CAP);
        let fc = SatelliteId::new(10, 5);
        let probe = SpaceCdn::new(cfg.clone());
        let route = probe.resolve_route(fc, ObjectId(5)).unwrap();
        assert!(route.hops() > 0, "pick an object owned elsewhere");
        let grid = cfg.grid.clone();
        let failures = FailureModel::from_outages([], grid.neighbors(fc).map(|(_, n)| (fc, n)));
        let mut cdn = SpaceCdn::with_failures(cfg, failures);
        match cdn.classify_route(fc, ObjectId(5)) {
            RouteOutcome::Partitioned { owner } => assert_eq!(owner, route.owner),
            other => panic!("expected a partition, got {other:?}"),
        }
        assert_eq!(cdn.resolve_route(fc, ObjectId(5)), None, "Option view collapses to None");
        let out = cdn.handle_request(fc, ObjectId(5), 100, 2.9);
        assert_eq!(out.served_from, ServedFrom::Ground, "degrades to the bent pipe");
        assert_eq!(out.uplink_bytes, 100);
        assert_eq!(out.route_hops, 0);
        assert_eq!(cdn.metrics.partitioned_requests, 1);
    }

    #[test]
    fn dead_owner_chain_is_unroutable_not_partitioned() {
        // Without remapping, a dead preferred owner is Unroutable: the
        // degraded serve is identical but the partition counter stays 0.
        let cfg = StarCdnConfig { remap_on_failure: false, ..StarCdnConfig::starcdn(9, CAP) };
        let fc = SatelliteId::new(10, 5);
        let probe = SpaceCdn::new(cfg.clone());
        let owner = probe.resolve_route(fc, ObjectId(5)).unwrap().owner;
        assert_ne!(owner, fc);
        let mut cdn = SpaceCdn::with_failures(cfg, FailureModel::from_dead([owner]));
        assert_eq!(cdn.classify_route(fc, ObjectId(5)), RouteOutcome::Unroutable);
        let out = cdn.handle_request(fc, ObjectId(5), 100, 2.9);
        assert_eq!(out.served_from, ServedFrom::Ground);
        assert_eq!(cdn.metrics.partitioned_requests, 0);
    }

    #[test]
    fn neighbor_probe_populates_table3_monitor() {
        let mut cfg = StarCdnConfig::starcdn(4, CAP);
        cfg.probe_neighbors_on_miss = true;
        let mut cdn = SpaceCdn::new(cfg);
        let fc = SatelliteId::new(10, 5);
        let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
        let west = cdn.config().grid.west_by(owner, 2);
        cdn.handle_request(west, ObjectId(3), 100, 2.9); // seed west
        cdn.handle_request(fc, ObjectId(3), 100, 2.9); // owner miss: west has it
        cdn.handle_request(fc, ObjectId(42), 50, 2.9); // owner miss: nobody has it
        let n = cdn.metrics.neighbor_availability;
        assert_eq!(n.west_only_requests, 1);
        assert_eq!(n.west_only_bytes, 100);
        assert_eq!(n.neither_requests, 2, "seed miss + unseeded miss");
    }

    #[test]
    fn prefetch_round_copies_west_content() {
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn_prefetch(4, CAP, 8));
        // Seed an object at some owner by sending a request there.
        let fc = SatelliteId::new(10, 5);
        let o = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
        let owner = o.owner;
        // The owner's *east* same-bucket neighbour prefetches from its
        // west neighbour — which is `owner`.
        let east = cdn.config().grid.east_by(owner, 2);
        assert!(!cdn.cache_of(east).contains(ObjectId(3)));
        cdn.prefetch_round();
        assert!(cdn.cache_of(east).contains(ObjectId(3)), "prefetch should copy west→east");
        assert_eq!(cdn.metrics.prefetch_bytes, 100, "exactly one 100 B copy in round one");
        assert_eq!(cdn.metrics.prefetch_copies, 1);
        // Each further round moves the object one more hop east (it does
        // not cascade within a round).
        cdn.prefetch_round();
        assert_eq!(cdn.metrics.prefetch_copies, 2);
        let east2 = cdn.config().grid.east_by(owner, 4);
        assert!(cdn.cache_of(east2).contains(ObjectId(3)));
    }

    #[test]
    fn prefetch_disabled_is_noop() {
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, CAP));
        cdn.handle_request(SatelliteId::new(10, 5), ObjectId(3), 100, 2.9);
        cdn.prefetch_round();
        assert_eq!(cdn.metrics.prefetch_bytes, 0);
        assert_eq!(cdn.metrics.prefetch_copies, 0);
    }

    #[test]
    fn transmission_delay_raises_latency_by_size() {
        // Caches big enough to admit the multi-MiB object.
        let cap = 64 << 20;
        let mut idle = SpaceCdn::new(StarCdnConfig::starcdn(4, cap));
        let mut cfg = StarCdnConfig::starcdn(4, cap);
        cfg.model_transmission_delay = true;
        let mut loaded = SpaceCdn::new(cfg);
        let fc = SatelliteId::new(10, 5);
        let size = 5 << 20; // 5 MiB
        let a = idle.handle_request(fc, ObjectId(1), size, 2.9);
        let b = loaded.handle_request(fc, ObjectId(1), size, 2.9);
        assert!(b.latency_ms > a.latency_ms, "{} !> {}", b.latency_ms, a.latency_ms);
        // A ground miss serializes the object over the GSL twice
        // (up + down): ≥ 2 × 2.1 ms for 5 MiB at 20 Gbps.
        assert!(b.latency_ms - a.latency_ms >= 4.0, "delta {}", b.latency_ms - a.latency_ms);
        // Hits pay less extra (no feeder uplink).
        let a2 = idle.handle_request(fc, ObjectId(1), size, 2.9);
        let b2 = loaded.handle_request(fc, ObjectId(1), size, 2.9);
        assert!(b2.latency_ms - a2.latency_ms < b.latency_ms - a.latency_ms);
        // Tiny objects barely notice.
        let a3 = idle.handle_request(fc, ObjectId(2), 100, 2.9);
        let b3 = loaded.handle_request(fc, ObjectId(2), 100, 2.9);
        assert!((b3.latency_ms - a3.latency_ms) < 0.01);
    }

    #[test]
    fn metrics_accumulate_and_reset() {
        let mut cdn = system(4);
        let sat = SatelliteId::new(0, 0);
        cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        assert_eq!(cdn.metrics.stats.requests, 2);
        assert_eq!(cdn.metrics.served_ground, 1);
        assert_eq!(cdn.metrics.served_local, 1);
        assert!((cdn.metrics.uplink_fraction() - 0.5).abs() < 1e-12);
        cdn.metrics = SystemMetrics::default();
        assert_eq!(cdn.metrics.stats.requests, 0);
        let o = cdn.handle_request(sat, ObjectId(1), 100, 2.9);
        assert_eq!(o.served_from, ServedFrom::LocalHit, "content survives a metrics reset");
    }

    mod delayed {
        use super::*;
        use crate::config::DelayedHitConfig;

        fn delayed_system(fetch_epochs: u64, wait_ms: f64) -> SpaceCdn {
            let cfg = StarCdnConfig::starcdn(4, CAP)
                .with_delayed_hits(DelayedHitConfig::with_latency(fetch_epochs, wait_ms));
            SpaceCdn::new(cfg)
        }

        #[test]
        fn miss_registers_fetch_and_does_not_admit() {
            let mut cdn = delayed_system(2, 10.0);
            let fc = SatelliteId::new(10, 5);
            cdn.set_now_epoch(0);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(o.served_from, ServedFrom::Ground);
            assert_eq!(o.residual_epochs, 0);
            assert!(!o.fetch_retired);
            let owner = o.owner;
            assert!(!cdn.cache_of(owner).contains(ObjectId(1)), "no admission before retirement");
            assert_eq!(cdn.inflight_of(owner).len(), 1);
            // The miss waited out the whole fetch: 2 epochs × 10 ms.
            let plain = SpaceCdn::new(StarCdnConfig::starcdn(4, CAP))
                .handle_request(fc, ObjectId(1), 100, 2.9)
                .latency_ms;
            assert!((o.latency_ms - plain - 20.0).abs() < 1e-9);
        }

        #[test]
        fn coalesced_request_is_a_delayed_hit_with_residual() {
            let mut cdn = delayed_system(3, 10.0);
            let fc = SatelliteId::new(10, 5);
            cdn.set_now_epoch(0);
            cdn.handle_request(fc, ObjectId(1), 100, 2.9); // miss, completes at 3
            cdn.set_now_epoch(1);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(o.served_from, ServedFrom::LocalHit, "delayed hit is a space hit");
            assert_eq!(o.residual_epochs, 2);
            assert_eq!(o.uplink_bytes, 0);
            assert_eq!(cdn.metrics.delayed_hits, 1);
            assert_eq!(cdn.metrics.residual_epoch_hist[&2], 1);
            assert_eq!(cdn.metrics.coalesced_requests, 0, "follower not yet retired");
            // Retirement: the next touch at/after epoch 3 admits the
            // object and credits the follower.
            cdn.set_now_epoch(3);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(o.served_from, ServedFrom::LocalHit);
            assert!(o.fetch_retired);
            assert_eq!(o.coalesced, 1);
            assert_eq!(o.residual_epochs, 0);
            assert_eq!(cdn.metrics.coalesced_requests, 1);
            assert!(cdn.cache_of(o.owner).contains(ObjectId(1)));
            assert!(cdn.inflight_of(o.owner).is_empty());
        }

        #[test]
        fn relay_hit_admits_owner_copy_without_a_fetch() {
            let mut cdn = delayed_system(2, 10.0);
            let fc = SatelliteId::new(10, 5);
            let owner = cdn.resolve_route(fc, ObjectId(3)).unwrap().owner;
            let west = cdn.config().grid.west_by(owner, 2);
            // Seed the west neighbour: miss at epoch 0, retire at 2.
            cdn.set_now_epoch(0);
            cdn.handle_request(west, ObjectId(3), 100, 2.9);
            cdn.set_now_epoch(2);
            cdn.handle_request(west, ObjectId(3), 100, 2.9);
            assert!(cdn.cache_of(west).contains(ObjectId(3)));
            // Owner miss → relay west hit; the ISL copy admits instantly.
            let o = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
            assert_eq!(o.served_from, ServedFrom::RelayWest);
            assert!(cdn.cache_of(owner).contains(ObjectId(3)));
            assert!(cdn.inflight_of(owner).is_empty(), "relay hit starts no origin fetch");
            let o2 = cdn.handle_request(fc, ObjectId(3), 100, 2.9);
            assert_eq!(o2.served_from, ServedFrom::LocalHit);
        }

        #[test]
        fn wipe_clears_outstanding_fetches() {
            let mut cdn = delayed_system(4, 10.0);
            let fc = SatelliteId::new(10, 5);
            cdn.set_now_epoch(0);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(cdn.inflight_of(o.owner).len(), 1);
            cdn.wipe_cache(o.owner);
            assert!(cdn.inflight_of(o.owner).is_empty());
        }

        #[test]
        fn state_roundtrip_preserves_inflight_queues() {
            let mut cdn = delayed_system(5, 10.0);
            let fc = SatelliteId::new(10, 5);
            cdn.set_now_epoch(1);
            let o = cdn.handle_request(fc, ObjectId(1), 100, 2.9); // completes at 6
            cdn.set_now_epoch(2);
            cdn.handle_request(fc, ObjectId(1), 100, 2.9); // follower, residual 4
            let state = cdn.export_state();
            let mut fresh = delayed_system(5, 10.0);
            fresh.import_state(state).unwrap();
            fresh.set_now_epoch(3);
            let q = fresh.inflight_of(o.owner);
            assert_eq!(q.len(), 1);
            let f = q.get(ObjectId(1)).unwrap();
            assert_eq!(f.completes_at, 6);
            assert_eq!(f.followers, 1);
            // The restored queue keeps coalescing where it left off.
            let o2 = fresh.handle_request(fc, ObjectId(1), 100, 2.9);
            assert_eq!(o2.residual_epochs, 3);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn prop_serve_invariants(
                reqs in proptest::collection::vec(
                    (0u16..72, 0u16..18, 0u64..200, 1u64..5000), 1..300),
                l_idx in 0usize..2,
            ) {
                let l = [4u32, 9][l_idx];
                let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(l, 200_000));
                let bound = cdn.env().tiling.unwrap().worst_case_hops();
                let mut expected_uplink = 0u64;
                let mut expected_bytes = 0u64;
                for (o, s, obj, size) in reqs {
                    let out = cdn.handle_request(
                        SatelliteId::new(o, s), ObjectId(obj), size, 2.9,
                    );
                    prop_assert!(out.latency_ms > 0.0);
                    prop_assert!(out.route_hops <= bound);
                    prop_assert_eq!(out.uplink_bytes > 0, out.served_from == ServedFrom::Ground);
                    expected_uplink += out.uplink_bytes;
                    expected_bytes += size;
                    // Owner serves the object's bucket.
                    let t = cdn.env().tiling.unwrap();
                    prop_assert_eq!(
                        t.bucket_of_sat(out.owner),
                        t.bucket_of_object(ObjectId(obj).hash64())
                    );
                }
                prop_assert_eq!(cdn.metrics.uplink_bytes, expected_uplink);
                prop_assert_eq!(cdn.metrics.stats.bytes_requested, expected_bytes);
                let served = cdn.metrics.served_local
                    + cdn.metrics.served_relay_west
                    + cdn.metrics.served_relay_east
                    + cdn.metrics.served_ground;
                prop_assert_eq!(served, cdn.metrics.stats.requests);
            }

            #[test]
            fn prop_latency_ordering_hit_vs_miss(
                o in 0u16..72, s in 0u16..18, size in 1u64..10_000,
            ) {
                let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
                let fc = SatelliteId::new(o, s);
                let miss = cdn.handle_request(fc, ObjectId(1), size, 2.9);
                let hit = cdn.handle_request(fc, ObjectId(1), size, 2.9);
                prop_assert_eq!(miss.served_from, ServedFrom::Ground);
                prop_assert_eq!(hit.served_from, ServedFrom::LocalHit);
                prop_assert!(hit.latency_ms < miss.latency_ms);
            }
        }
    }

    #[test]
    fn cache_eviction_under_pressure() {
        // Tiny caches: streaming distinct objects through one owner must
        // keep used_bytes bounded.
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 500));
        let sat = SatelliteId::new(3, 3);
        for i in 0..100u64 {
            cdn.handle_request(sat, ObjectId(i * 4), 100, 2.9); // same bucket-ish spread
        }
        for idx in 0..cdn.config().grid.total_slots() {
            let id = SatelliteId::from_index(idx, 18);
            assert!(cdn.cache_of(id).used_bytes() <= 500);
        }
    }
}
