//! Constellation topology substrate for the StarCDN reproduction.
//!
//! Starlink's inter-satellite links (ISLs) form a "+grid": each satellite
//! connects to the previous/next satellite in its own orbital plane
//! (intra-orbit links) and to the nearest satellite in each adjacent
//! plane (inter-orbit links). This crate models that grid over the
//! 72×18 shell from `starcdn_orbit::walker`, computes link delays and
//! shortest paths, tiles consistent-hashing buckets over the grid in the
//! paper's √L×√L pattern, and implements the failure-remap scheme of §3.4.
//!
//! ```
//! use starcdn_constellation::{buckets::BucketTiling, grid::GridTopology};
//! use starcdn_orbit::walker::SatelliteId;
//!
//! let grid = GridTopology::starlink();
//! let tiling = BucketTiling::new(4).unwrap();
//! let sat = SatelliteId::new(10, 7);
//! let owner = tiling.nearest_owner(&grid, sat, tiling.bucket_of_object(0xdead_beef));
//! assert!(grid.hop_distance(sat, owner) <= tiling.worst_case_hops());
//! ```

pub mod analysis;
mod bits;
pub mod buckets;
pub mod capacity;
pub mod failures;
pub mod grid;
pub mod isl;
pub mod routing;
pub mod schedule;
