//! StarCDN system configuration.

use serde::{Deserialize, Serialize};
use starcdn_cache::policy::PolicyKind;
use starcdn_constellation::buckets::{BucketTiling, TilingError};
use starcdn_constellation::grid::GridTopology;
use starcdn_constellation::isl::LinkModel;

/// Which inter-orbit same-bucket neighbours a cache miss may relay to
/// (§3.3). The west neighbour retraces this satellite's ground track one
/// period earlier (Fig. 3) and is the profitable direction; east is kept
/// because it costs no extra latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelayPolicy {
    /// No relayed fetch (the "StarCDN-Fetch" ablation of §5.2).
    None,
    /// West inter-orbit neighbour only.
    WestOnly,
    /// East inter-orbit neighbour only.
    EastOnly,
    /// West first, then east (the full StarCDN design).
    Both,
}

impl RelayPolicy {
    /// Whether any relaying happens.
    pub fn enabled(self) -> bool {
        !matches!(self, RelayPolicy::None)
    }
}

/// Delayed-hit model parameters (DESIGN.md §14). With `fetch_epochs`
/// set to 0 the model is disabled and every serving path is
/// byte-identical to the plain hit/miss pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayedHitConfig {
    /// Epochs an origin fetch stays in flight after a miss. While it is
    /// outstanding, further requests for the object coalesce onto it as
    /// delayed hits; the object is admitted when the fetch lands. 0
    /// disables the model entirely.
    pub fetch_epochs: u64,
    /// Latency charged per epoch of fetch wait: a miss pays the fetch's
    /// in-flight epochs of it, a delayed hit only its residual epochs.
    pub wait_ms_per_epoch: f64,
    /// Origin latency heterogeneity: objects are spread deterministically
    /// over `origin_tiers` tiers, and an object in tier `t` (1-based)
    /// fetches in `fetch_epochs * t` epochs — different ground origins
    /// sit behind very different LEO paths. 1 (or 0) means a uniform
    /// origin: every fetch takes exactly `fetch_epochs`. Latency-aware
    /// eviction (MAD) only has room to beat hit-rate-maximising policies
    /// when tiers differ.
    pub origin_tiers: u64,
}

impl DelayedHitConfig {
    /// The model switched off (the default).
    pub fn disabled() -> Self {
        DelayedHitConfig { fetch_epochs: 0, wait_ms_per_epoch: 0.0, origin_tiers: 1 }
    }

    /// Fetches in flight for `fetch_epochs` epochs, each epoch of wait
    /// costing `wait_ms_per_epoch` milliseconds. Uniform origin.
    pub fn with_latency(fetch_epochs: u64, wait_ms_per_epoch: f64) -> Self {
        DelayedHitConfig { fetch_epochs, wait_ms_per_epoch, origin_tiers: 1 }
    }

    /// Spread objects over `tiers` origin-latency tiers (see
    /// [`origin_tiers`](Self::origin_tiers)).
    pub fn with_origin_tiers(mut self, tiers: u64) -> Self {
        self.origin_tiers = tiers;
        self
    }

    /// Whether the delayed-hit model is active.
    pub fn is_enabled(&self) -> bool {
        self.fetch_epochs > 0
    }

    /// In-flight epochs for a fetch of `object`: the base latency times
    /// the object's origin tier. Deterministic in the object id alone
    /// (split-mix finalizer, independent of the bucket-routing hash),
    /// so every serving path — engine, replayer, resumed checkpoint —
    /// charges the same fetch the same wait.
    pub fn fetch_epochs_for(&self, object: starcdn_cache::ObjectId) -> u64 {
        if self.origin_tiers <= 1 {
            return self.fetch_epochs;
        }
        let mut x = object.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        self.fetch_epochs * (1 + x % self.origin_tiers)
    }
}

impl Default for DelayedHitConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StarCdnConfig {
    /// ISL grid (defaults to the 72×18 Starlink shell).
    pub grid: GridTopology,
    /// Number of consistent-hashing buckets `L` (perfect square). `None`
    /// disables hashing: every request is handled by its first-contact
    /// satellite (the "StarCDN-Hashing" ablation / Naive LRU baseline).
    pub num_buckets: Option<u32>,
    /// Relayed-fetch policy.
    pub relay: RelayPolicy,
    /// Per-satellite cache capacity, bytes.
    pub cache_capacity_bytes: u64,
    /// Eviction policy of each satellite cache.
    pub policy: PolicyKind,
    /// Link delay/bandwidth model for latency accounting.
    pub link_model: LinkModel,
    /// Record per-request neighbour availability on every miss
    /// (the Table-3 monitor; costs two probes per miss).
    pub probe_neighbors_on_miss: bool,
    /// Proactive prefetch (the §3.3 rejected alternative): every
    /// scheduler epoch, each satellite copies its west same-bucket
    /// neighbour's `top_k` hottest objects into its own cache. `None`
    /// disables it (StarCDN's choice — relayed fetch only reacts to
    /// actual misses, never wasting cache space, power, or ISL
    /// bandwidth on content nobody asks for).
    pub prefetch_top_k: Option<usize>,
    /// §3.4 failure response. `true` (StarCDN's long-term response):
    /// a dead satellite's bucket remaps to the next available satellite.
    /// `false` (the transient response): requests for a dead owner simply
    /// fall back to a ground fetch.
    pub remap_on_failure: bool,
    /// Add first-order transmission (serialization) delays to latency
    /// accounting: the response body is clocked out once per
    /// store-and-forward hop at that link's bandwidth. Off by default —
    /// the paper compares *idle* (propagation-only) latencies and leaves
    /// link-layer modelling to future work (§7).
    pub model_transmission_delay: bool,
    /// Delayed-hit model: in-flight origin fetches with request
    /// coalescing. Disabled by default (and absent from older
    /// serialized configs).
    #[serde(default)]
    pub delayed: DelayedHitConfig,
}

impl StarCdnConfig {
    /// The full StarCDN design: hashing with `L` buckets plus
    /// bidirectional relayed fetch.
    pub fn starcdn(num_buckets: u32, cache_capacity_bytes: u64) -> Self {
        StarCdnConfig {
            grid: GridTopology::starlink(),
            num_buckets: Some(num_buckets),
            relay: RelayPolicy::Both,
            cache_capacity_bytes,
            policy: PolicyKind::Lru,
            link_model: LinkModel::table1(),
            probe_neighbors_on_miss: false,
            prefetch_top_k: None,
            remap_on_failure: true,
            model_transmission_delay: false,
            delayed: DelayedHitConfig::disabled(),
        }
    }

    /// This configuration with the delayed-hit model switched on.
    pub fn with_delayed_hits(mut self, delayed: DelayedHitConfig) -> Self {
        self.delayed = delayed;
        self
    }

    /// The proactive-prefetch alternative the paper evaluated and
    /// rejected (§3.3): hashing plus per-epoch top-k prefetch from the
    /// west same-bucket neighbour, no reactive relay.
    pub fn starcdn_prefetch(num_buckets: u32, cache_capacity_bytes: u64, top_k: usize) -> Self {
        StarCdnConfig {
            relay: RelayPolicy::None,
            prefetch_top_k: Some(top_k),
            ..Self::starcdn(num_buckets, cache_capacity_bytes)
        }
    }

    /// "StarCDN-Fetch" (§5.2): consistent hashing only, no relayed fetch.
    pub fn starcdn_no_relay(num_buckets: u32, cache_capacity_bytes: u64) -> Self {
        StarCdnConfig {
            relay: RelayPolicy::None,
            ..Self::starcdn(num_buckets, cache_capacity_bytes)
        }
    }

    /// "StarCDN-Hashing" (§5.2): relayed fetch only, no hashing — every
    /// request served by the first-contact satellite, relaying to its
    /// immediate inter-orbit neighbours on a miss.
    pub fn starcdn_no_hashing(cache_capacity_bytes: u64) -> Self {
        StarCdnConfig { num_buckets: None, ..Self::starcdn(4, cache_capacity_bytes) }
    }

    /// Naive LRU baseline (past work): independent per-satellite LRU, no
    /// hashing, no relay.
    pub fn naive_lru(cache_capacity_bytes: u64) -> Self {
        StarCdnConfig {
            num_buckets: None,
            relay: RelayPolicy::None,
            ..Self::starcdn(4, cache_capacity_bytes)
        }
    }

    /// The bucket tiling this configuration asks for (`None` without
    /// hashing), checked against the grid it will be laid over. Every
    /// serving path — the fleet, the replayer's pre-pass — builds its
    /// tiling here, so a bucket count that is not a perfect square or
    /// whose tile does not fit the grid is refused before any request.
    pub fn tiling(&self) -> Result<Option<BucketTiling>, TilingError> {
        self.num_buckets.map(|l| BucketTiling::for_grid(l, &self.grid)).transpose()
    }

    /// Inter-orbit planes between same-bucket neighbours: √L with
    /// hashing, 1 without (every satellite holds "the" bucket).
    pub fn relay_span_planes(&self) -> u16 {
        match self.num_buckets {
            Some(l) => (l as f64).sqrt().round() as u16,
            None => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_variants() {
        let full = StarCdnConfig::starcdn(9, 100);
        assert_eq!(full.num_buckets, Some(9));
        assert!(full.relay.enabled());

        let no_relay = StarCdnConfig::starcdn_no_relay(9, 100);
        assert_eq!(no_relay.relay, RelayPolicy::None);
        assert_eq!(no_relay.num_buckets, Some(9));

        let no_hash = StarCdnConfig::starcdn_no_hashing(100);
        assert_eq!(no_hash.num_buckets, None);
        assert!(no_hash.relay.enabled());

        let naive = StarCdnConfig::naive_lru(100);
        assert_eq!(naive.num_buckets, None);
        assert!(!naive.relay.enabled());
        assert_eq!(naive.policy, PolicyKind::Lru);
        assert_eq!(naive.prefetch_top_k, None);

        let prefetch = StarCdnConfig::starcdn_prefetch(4, 100, 32);
        assert_eq!(prefetch.prefetch_top_k, Some(32));
        assert!(!prefetch.relay.enabled());
        assert_eq!(prefetch.num_buckets, Some(4));
    }

    #[test]
    fn relay_span() {
        assert_eq!(StarCdnConfig::starcdn(4, 1).relay_span_planes(), 2);
        assert_eq!(StarCdnConfig::starcdn(9, 1).relay_span_planes(), 3);
        assert_eq!(StarCdnConfig::starcdn_no_hashing(1).relay_span_planes(), 1);
    }

    #[test]
    fn relay_policy_enabled() {
        assert!(!RelayPolicy::None.enabled());
        assert!(RelayPolicy::WestOnly.enabled());
        assert!(RelayPolicy::EastOnly.enabled());
        assert!(RelayPolicy::Both.enabled());
    }
}
