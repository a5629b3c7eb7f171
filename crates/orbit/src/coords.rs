//! Coordinate frames and conversions.
//!
//! Three frames are used:
//!
//! * **ECI** (Earth-Centred Inertial): satellites are propagated here.
//! * **ECEF** (Earth-Centred Earth-Fixed): rotates with the Earth; ground
//!   stations and users live here.
//! * **Geodetic**: latitude/longitude/altitude on a spherical Earth model.
//!
//! A spherical Earth (mean radius) is used throughout: the ~21 km
//! equatorial bulge changes slant ranges by well under 1 % at the 550 km
//! Starlink altitude, far below the fidelity the CDN simulation needs.

use crate::constants::{EARTH_RADIUS_KM, EARTH_ROTATION_RAD_S};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A position in the Earth-Centred Inertial frame, kilometres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Eci {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// A position in the Earth-Centred Earth-Fixed frame, kilometres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Ecef {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// A geodetic position: latitude/longitude in radians, altitude in km
/// above the spherical Earth surface.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Geodetic {
    pub lat_rad: f64,
    pub lon_rad: f64,
    pub alt_km: f64,
}

impl Eci {
    #[cfg(test)]
    pub(crate) fn new(x: f64, y: f64, z: f64) -> Self {
        Eci { x, y, z }
    }

    /// Euclidean norm in km.
    #[cfg(test)]
    pub(crate) fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Rotate this inertial position into the Earth-fixed frame at time `t`.
    ///
    /// At `t = 0` the two frames are aligned; the Earth then rotates
    /// eastward at the sidereal rate, so ECEF = Rz(-θ) · ECI with
    /// θ = ω⊕·t.
    pub fn to_ecef(&self, t: SimTime) -> Ecef {
        let theta = EARTH_ROTATION_RAD_S * t.as_secs_f64();
        let (s, c) = theta.sin_cos();
        Ecef { x: c * self.x + s * self.y, y: -s * self.x + c * self.y, z: self.z }
    }
}

impl Ecef {
    /// Euclidean norm in km.
    pub(crate) fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Straight-line (slant) distance to another ECEF point, km.
    pub fn distance_km(&self, other: &Ecef) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Convert to geodetic coordinates on the spherical Earth model.
    pub(crate) fn to_geodetic(self) -> Geodetic {
        let r = self.norm();
        Geodetic {
            lat_rad: (self.z / r).asin(),
            lon_rad: self.y.atan2(self.x),
            alt_km: r - EARTH_RADIUS_KM,
        }
    }
}

impl Geodetic {
    /// Construct from degrees latitude/longitude and km altitude.
    pub fn from_degrees(lat_deg: f64, lon_deg: f64, alt_km: f64) -> Self {
        Geodetic { lat_rad: lat_deg.to_radians(), lon_rad: lon_deg.to_radians(), alt_km }
    }

    /// Latitude in degrees.
    pub fn lat_deg(&self) -> f64 {
        self.lat_rad.to_degrees()
    }

    /// Longitude in degrees, normalized to (-180, 180].
    pub fn lon_deg(&self) -> f64 {
        let mut d = self.lon_rad.to_degrees() % 360.0;
        if d > 180.0 {
            d -= 360.0;
        } else if d <= -180.0 {
            d += 360.0;
        }
        d
    }

    /// Convert to ECEF, km.
    pub fn to_ecef(&self) -> Ecef {
        let r = EARTH_RADIUS_KM + self.alt_km;
        let (slat, clat) = self.lat_rad.sin_cos();
        let (slon, clon) = self.lon_rad.sin_cos();
        Ecef { x: r * clat * clon, y: r * clat * slon, z: r * slat }
    }

    /// Great-circle (haversine) surface distance to another point, km.
    ///
    /// Altitudes are ignored: this is the geographic distance used for
    /// e.g. Fig. 2's "overlap vs distance from New York" analysis.
    pub fn haversine_km(&self, other: &Geodetic) -> f64 {
        let dlat = other.lat_rad - self.lat_rad;
        let dlon = other.lon_rad - self.lon_rad;
        let a = (dlat / 2.0).sin().powi(2)
            + self.lat_rad.cos() * other.lat_rad.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const EPS: f64 = 1e-6;

    #[test]
    fn geodetic_ecef_roundtrip_at_landmarks() {
        for &(lat, lon) in &[(0.0, 0.0), (40.7128, -74.0060), (-33.86, 151.21), (89.0, 10.0)] {
            let g = Geodetic::from_degrees(lat, lon, 0.0);
            let back = g.to_ecef().to_geodetic();
            assert!((back.lat_deg() - lat).abs() < EPS, "lat {lat}");
            assert!((back.lon_deg() - lon).abs() < EPS, "lon {lon}");
            assert!(back.alt_km.abs() < EPS);
        }
    }

    #[test]
    fn equator_prime_meridian_is_x_axis() {
        let e = Geodetic::from_degrees(0.0, 0.0, 0.0).to_ecef();
        assert!((e.x - EARTH_RADIUS_KM).abs() < EPS);
        assert!(e.y.abs() < EPS && e.z.abs() < EPS);
    }

    #[test]
    fn north_pole_is_z_axis() {
        let e = Geodetic::from_degrees(90.0, 0.0, 0.0).to_ecef();
        assert!((e.z - EARTH_RADIUS_KM).abs() < EPS);
        assert!(e.x.abs() < EPS && e.y.abs() < EPS);
    }

    #[test]
    fn eci_to_ecef_identity_at_epoch() {
        let p = Eci::new(7000.0, 100.0, -3.0);
        let e = p.to_ecef(SimTime::ZERO);
        assert!((e.x - p.x).abs() < EPS && (e.y - p.y).abs() < EPS && (e.z - p.z).abs() < EPS);
    }

    #[test]
    fn eci_point_appears_to_move_west_in_ecef() {
        // A fixed inertial point above the equator drifts westward (longitude
        // decreases) in the rotating frame.
        let p = Eci::new(7000.0, 0.0, 0.0);
        let lon0 = p.to_ecef(SimTime::ZERO).to_geodetic().lon_deg();
        let lon1 = p.to_ecef(SimTime::from_mins(10)).to_geodetic().lon_deg();
        assert!(lon1 < lon0, "{lon1} !< {lon0}");
    }

    #[test]
    fn sidereal_day_returns_to_start() {
        let p = Eci::new(7000.0, 123.0, 456.0);
        let sidereal_day_ms =
            (2.0 * std::f64::consts::PI / EARTH_ROTATION_RAD_S * 1000.0).round() as u64;
        let e0 = p.to_ecef(SimTime::ZERO);
        let e1 = p.to_ecef(SimTime::from_millis(sidereal_day_ms));
        assert!(e0.distance_km(&e1) < 0.01, "drift {}", e0.distance_km(&e1));
    }

    #[test]
    fn haversine_known_distances() {
        let nyc = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
        let london = Geodetic::from_degrees(51.5074, -0.1278, 0.0);
        let d = nyc.haversine_km(&london);
        // True great-circle distance is ~5570 km.
        assert!((d - 5570.0).abs() < 60.0, "NYC-London = {d}");
        assert!(nyc.haversine_km(&nyc).abs() < EPS);
    }

    #[test]
    fn lon_deg_normalization() {
        let g = Geodetic { lat_rad: 0.0, lon_rad: 3.5 * std::f64::consts::PI, alt_km: 0.0 };
        let d = g.lon_deg();
        assert!((-180.0..=180.0).contains(&d), "{d}");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_geodetic(lat in -89.9f64..89.9, lon in -179.9f64..179.9, alt in 0.0f64..2000.0) {
            let g = Geodetic::from_degrees(lat, lon, alt);
            let back = g.to_ecef().to_geodetic();
            prop_assert!((back.lat_deg() - lat).abs() < 1e-6);
            prop_assert!((back.lon_deg() - lon).abs() < 1e-6);
            prop_assert!((back.alt_km - alt).abs() < 1e-6);
        }

        #[test]
        fn prop_haversine_symmetric_and_bounded(
            lat1 in -89.0f64..89.0, lon1 in -179.0f64..179.0,
            lat2 in -89.0f64..89.0, lon2 in -179.0f64..179.0,
        ) {
            let a = Geodetic::from_degrees(lat1, lon1, 0.0);
            let b = Geodetic::from_degrees(lat2, lon2, 0.0);
            let d_ab = a.haversine_km(&b);
            let d_ba = b.haversine_km(&a);
            prop_assert!((d_ab - d_ba).abs() < 1e-9);
            // Max surface distance is half the circumference.
            prop_assert!(d_ab <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-9);
            prop_assert!(d_ab >= 0.0);
        }

        #[test]
        fn prop_ecef_rotation_preserves_norm(x in -8000.0f64..8000.0, y in -8000.0f64..8000.0,
                                             z in -8000.0f64..8000.0, secs in 0u64..86400) {
            let p = Eci::new(x, y, z);
            let e = p.to_ecef(SimTime::from_secs(secs));
            prop_assert!((p.norm() - e.norm()).abs() < 1e-6);
        }
    }
}
