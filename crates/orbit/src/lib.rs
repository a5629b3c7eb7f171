//! Orbital mechanics substrate for the StarCDN reproduction.
//!
//! The paper simulates satellite motion with Microsoft's CosmicBeats
//! simulator fed by CelesTrak TLE data for the Starlink 53°-inclination
//! Gen-1 shell. This crate replaces that substrate with an analytic
//! circular-orbit Keplerian propagator (with J2 nodal regression), a
//! Walker-delta constellation builder matching that shell, a TLE parser,
//! coordinate transforms, ground-track computation, and line-of-sight
//! visibility between ground locations and satellites.
//!
//! Starlink shell-1 orbits have eccentricity below 0.002, so the circular
//! model reproduces ground tracks and fields of view to well under a beam
//! width — the properties the CDN simulation actually consumes (which
//! satellites a user can see, and at what slant range).
//!
//! # Quick example
//!
//! ```
//! use starcdn_orbit::{walker::WalkerConstellation, time::SimTime, coords::Geodetic};
//! use starcdn_orbit::visibility::visible_satellites;
//!
//! let shell = WalkerConstellation::starlink_shell1();
//! let sats = shell.satellites();
//! assert_eq!(sats.len(), 72 * 18);
//! let nyc = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
//! let t = SimTime::from_secs(3600);
//! let vis = visible_satellites(&sats, nyc, t, 25.0);
//! assert!(!vis.is_empty());
//! ```

pub mod coords;
pub mod fleet;
pub mod groundtrack;
pub mod kepler;
pub mod propagator;
pub mod time;
pub mod tle;
pub mod visibility;
pub mod walker;

pub use coords::{Ecef, Eci, Geodetic};
pub use kepler::{CircularOrbit, OrbitalElements};
pub use time::SimTime;
pub use walker::{SatelliteId, WalkerConstellation};

/// Physical constants used throughout the crate.
pub mod constants {
    /// Mean Earth radius in kilometres (WGS-84 mean).
    pub const EARTH_RADIUS_KM: f64 = 6371.0;
    /// Earth's standard gravitational parameter, km^3/s^2.
    pub const MU_EARTH: f64 = 398_600.441_8;
    /// Earth's rotation rate, rad/s (sidereal).
    pub const EARTH_ROTATION_RAD_S: f64 = 7.292_115_9e-5;
    /// Speed of light in km/s.
    pub const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;
    /// J2 zonal harmonic coefficient of the Earth.
    pub const J2: f64 = 1.082_626_68e-3;
    /// Equatorial Earth radius in kilometres (used by the J2 model).
    pub const EARTH_EQ_RADIUS_KM: f64 = 6378.137;
    /// Default Starlink shell-1 altitude in kilometres.
    pub const STARLINK_ALTITUDE_KM: f64 = 550.0;
    /// Default Starlink shell-1 inclination in degrees.
    pub const STARLINK_INCLINATION_DEG: f64 = 53.0;
}

#[cfg(test)]
mod tests {
    use super::constants::*;

    #[test]
    fn orbital_period_near_ninety_minutes() {
        // The paper repeatedly cites a ~90 minute orbit for 550 km altitude.
        let a = EARTH_RADIUS_KM + STARLINK_ALTITUDE_KM;
        let period = 2.0 * std::f64::consts::PI * (a * a * a / MU_EARTH).sqrt();
        assert!(period > 85.0 * 60.0 && period < 100.0 * 60.0, "period = {period}");
    }
}
