//! StarCDN — a space-based content delivery network (SIGCOMM '25).
//!
//! StarCDN deploys CDN edge caches on LEO satellites and solves the two
//! problems orbital motion creates for caching:
//!
//! * **multi-satellite redundancy** — a user sees 10+ satellites whose
//!   set changes every few minutes, so naive per-satellite caches store
//!   the same content many times. StarCDN partitions content into `L`
//!   hash buckets tiled √L×√L over the ISL grid
//!   ([`starcdn_constellation::buckets`]) and routes every request to
//!   the nearest bucket owner (≤ `2⌊√L/2⌋` hops);
//! * **orbital motion** — a satellite's audience changes continents
//!   within minutes, going stale faster than an LRU cache can adapt.
//!   On a miss, the bucket owner *relay-fetches* from its same-bucket
//!   inter-orbit neighbours ([`relay`]), making cached content flow
//!   opposite to the orbital motion.
//!
//! The crate provides the full system ([`system::SpaceCdn`]), the serve
//! kernel every driver runs a request through ([`kernel::serve_one`]),
//! its ablations and baselines ([`variants`], [`baselines`]), the
//! propagation-delay latency model ([`latency`]), and metrics
//! ([`metrics`]).
//!
//! ```
//! use starcdn::config::{RelayPolicy, StarCdnConfig};
//! use starcdn::system::SpaceCdn;
//! use starcdn_cache::object::ObjectId;
//! use starcdn_orbit::walker::SatelliteId;
//!
//! let cfg = StarCdnConfig::starcdn(4, 1 << 20); // L = 4, 1 MiB per satellite
//! let mut cdn = SpaceCdn::new(cfg);
//! let outcome = cdn.handle_request(SatelliteId::new(10, 7), ObjectId(42), 1000, 2.9);
//! assert!(outcome.latency_ms > 0.0);
//! ```

pub mod baselines;
pub mod config;
pub mod kernel;
pub mod latency;
pub mod metrics;
pub mod relay;
pub mod system;
pub mod variants;
