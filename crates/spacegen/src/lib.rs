//! SpaceGEN — synthetic trace generation for satellite-based CDNs (§4).
//!
//! The paper's evaluation needs *geo-distributed* content-access traces:
//! a LEO satellite sweeps over many cities per orbit, so a single-location
//! trace cannot exercise the system. SpaceGEN generates per-location
//! synthetic traces that jointly preserve:
//!
//! * **object-level** statistics — popularity, size and request-size
//!   distributions (via popularity-size footprint descriptors, *pFDs*);
//! * **cache-level** statistics — request/byte hit-rate curves (via the
//!   stack-distance component of the pFD);
//! * **cross-location** structure — which objects are shared between
//!   locations and how much traffic they carry (via the global
//!   popularity distribution, *GPD*).
//!
//! The pipeline mirrors the paper exactly:
//!
//! 1. A *production* trace is obtained. The paper uses Akamai logs from
//!    nine cities; this reproduction synthesizes a production-like
//!    multi-city workload ([`production`]) calibrated to the paper's
//!    published overlap statistics (Table 2, Fig. 2) — see DESIGN.md
//!    substitution #1.
//! 2. pFDs are extracted per location ([`fd`]) and the GPD across
//!    locations ([`gpd`]).
//! 3. Algorithm 1 ([`generator`]) produces synthetic traces of arbitrary
//!    length from those models.
//! 4. [`validate`] confirms the synthetic trace matches the production
//!    trace on object spread, traffic spread, and hit-rate curves
//!    (Fig. 6).

pub mod classes;
pub mod fd;
pub mod generator;
pub mod gpd;
pub mod io;
pub mod production;
pub mod stack;
pub mod trace;
pub mod validate;
