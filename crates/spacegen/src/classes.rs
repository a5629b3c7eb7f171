//! CDN traffic classes and their workload parameters.
//!
//! The paper evaluates three classes served by Akamai's CDN — video
//! (§5.2), web and software downloads (§5.5) — with very different
//! object sizes, popularity skew and request rates:
//!
//! * video: ~1 MB median objects, strong skew, high byte volume
//!   (paper: 423 M requests / 512 TB over 24 M objects / 24 TB at 1 %
//!   sampling);
//! * web: tens-of-KB objects, many requests, sharper skew;
//! * downloads: tens-of-MB installers, few requests, flatter skew.
//!
//! The numbers here are per-class *model parameters* for the
//! production-workload substitute (see DESIGN.md substitution #1), sized
//! so laptop-scale experiments preserve the paper's
//! cache-size : working-set regime.

use serde::{Deserialize, Serialize};

/// One of the paper's three traffic classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    Video,
    Web,
    Download,
}

impl TrafficClass {
    /// All classes, for sweeps.
    pub const ALL: [TrafficClass; 3] =
        [TrafficClass::Video, TrafficClass::Web, TrafficClass::Download];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::Video => "video",
            TrafficClass::Web => "web",
            TrafficClass::Download => "download",
        }
    }

    /// Default model parameters for this class.
    pub fn params(self) -> ClassParams {
        match self {
            TrafficClass::Video => ClassParams {
                class: self,
                catalog_size: 60_000,
                zipf_alpha: 1.05,
                size_median_bytes: 1 << 20, // 1 MiB
                // Video is served as similar-sized segments, so sizes are
                // tight — which keeps byte hit rate tracking request hit
                // rate as in the paper's Fig. 7a/7b.
                size_sigma: 0.6,
                size_cap_bytes: 64 << 20,
                base_rate_per_loc_hz: 3.0,
                diurnal_amplitude: 0.4,
                home_boost: 2.0,
                distance_scale_km: 4000.0,
                same_language_share: 0.60,
                cross_language_share: 0.21,
                popular_knee_frac: 0.02,
                head_share_same: 0.55,
                head_share_cross: 0.33,
                per_location_noise_sigma: 0.5,
            },
            TrafficClass::Web => ClassParams {
                class: self,
                catalog_size: 120_000,
                zipf_alpha: 1.15,
                size_median_bytes: 32 << 10, // 32 KiB
                size_sigma: 1.5,
                size_cap_bytes: 8 << 20,
                base_rate_per_loc_hz: 6.0,
                diurnal_amplitude: 0.5,
                home_boost: 2.0,
                distance_scale_km: 5000.0,
                same_language_share: 0.55,
                cross_language_share: 0.30,
                popular_knee_frac: 0.03,
                head_share_same: 0.50,
                head_share_cross: 0.40,
                per_location_noise_sigma: 0.6,
            },
            TrafficClass::Download => ClassParams {
                class: self,
                catalog_size: 12_000,
                zipf_alpha: 0.90,
                size_median_bytes: 24 << 20, // 24 MiB
                size_sigma: 0.9,
                size_cap_bytes: 512 << 20,
                base_rate_per_loc_hz: 0.8,
                diurnal_amplitude: 0.3,
                home_boost: 1.5,
                distance_scale_km: 8000.0,
                same_language_share: 0.70,
                cross_language_share: 0.50, // software is language-agnostic
                popular_knee_frac: 0.05,
                head_share_same: 0.80,
                head_share_cross: 0.70,
                per_location_noise_sigma: 0.4,
            },
        }
    }
}

impl std::str::FromStr for TrafficClass {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "video" => Ok(TrafficClass::Video),
            "web" => Ok(TrafficClass::Web),
            "download" | "downloads" => Ok(TrafficClass::Download),
            other => Err(format!("unknown traffic class `{other}`")),
        }
    }
}

/// Parameters of the production-workload model for one traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassParams {
    pub class: TrafficClass,
    /// Number of distinct objects in the global catalog.
    pub catalog_size: usize,
    /// Zipf exponent of global object popularity.
    pub zipf_alpha: f64,
    /// Median object size (lognormal).
    pub size_median_bytes: u64,
    /// Lognormal shape parameter of the size distribution.
    pub size_sigma: f64,
    /// Hard cap on object size.
    pub size_cap_bytes: u64,
    /// Mean request rate per location, requests/second.
    pub base_rate_per_loc_hz: f64,
    /// Diurnal modulation amplitude in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Popularity multiplier at an object's home location.
    pub home_boost: f64,
    /// e-folding distance of geographic content sharing, km.
    pub distance_scale_km: f64,
    /// Baseline sharing probability between same-language locations.
    pub same_language_share: f64,
    /// Baseline sharing probability across language groups.
    pub cross_language_share: f64,
    /// Fraction of the catalog considered "head" content whose sharing
    /// reach extends beyond the tail's — this is what pushes *traffic*
    /// overlap above *object* overlap (Fig. 2: 55 % objects vs 90 %
    /// traffic for nearby cities).
    pub popular_knee_frac: f64,
    /// Extra sharing of head content between same-language locations
    /// (added to `same_language_share` before the distance decay).
    pub head_share_same: f64,
    /// Extra sharing of head content across language groups.
    pub head_share_cross: f64,
    /// Lognormal sigma of per-location popularity perturbation.
    pub per_location_noise_sigma: f64,
}

/// The most objects a catalog may hold: a model indexes them with `u32`.
const MAX_CATALOG: usize = 1 << 32;

impl ClassParams {
    /// Scale the catalog and request rate by `factor` (for smoke tests
    /// and CI-speed experiments), keeping all shape parameters.
    ///
    /// # Panics
    /// Where [`ClassParams::try_scaled`] returns an error.
    pub fn scaled(self, factor: f64) -> Self {
        self.try_scaled(factor).unwrap_or_else(|e| panic!("scale {e}"))
    }

    /// [`ClassParams::scaled`], or why `factor` cannot scale this class:
    /// it is not a finite positive number, or the scaled catalog holds
    /// more objects than a model indexes (`u32` object indices).
    pub fn try_scaled(mut self, factor: f64) -> Result<Self, String> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(format!("{factor} is not a finite positive number"));
        }
        let objects = (self.catalog_size as f64 * factor).round();
        if objects > MAX_CATALOG as f64 {
            return Err(format!(
                "{factor} makes a catalog of {objects:e} objects, more than {MAX_CATALOG}"
            ));
        }
        self.catalog_size = (objects as usize).max(100);
        self.base_rate_per_loc_hz *= factor;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_name_roundtrip() {
        for c in TrafficClass::ALL {
            assert_eq!(c.name().parse::<TrafficClass>().unwrap(), c);
        }
        assert_eq!("downloads".parse::<TrafficClass>().unwrap(), TrafficClass::Download);
        assert!("audio".parse::<TrafficClass>().is_err());
    }

    #[test]
    fn class_contrasts_match_paper() {
        let v = TrafficClass::Video.params();
        let w = TrafficClass::Web.params();
        let d = TrafficClass::Download.params();
        // Web objects are far smaller than video; downloads far larger.
        assert!(w.size_median_bytes * 10 < v.size_median_bytes);
        assert!(d.size_median_bytes > v.size_median_bytes * 10);
        // Web has the most requests, downloads the fewest.
        assert!(w.base_rate_per_loc_hz > v.base_rate_per_loc_hz);
        assert!(d.base_rate_per_loc_hz < v.base_rate_per_loc_hz);
        // Downloads cross language borders most easily.
        assert!(d.cross_language_share > v.cross_language_share);
    }

    #[test]
    fn scaled_shrinks_catalog_and_rate() {
        let p = TrafficClass::Video.params().scaled(0.1);
        assert_eq!(p.catalog_size, 6_000);
        assert!((p.base_rate_per_loc_hz - 0.3).abs() < 1e-12);
        // Shape parameters untouched.
        assert_eq!(p.zipf_alpha, TrafficClass::Video.params().zipf_alpha);
    }

    #[test]
    #[should_panic]
    fn scaled_rejects_zero() {
        TrafficClass::Video.params().scaled(0.0);
    }

    #[test]
    fn try_scaled_rejects_what_no_catalog_can_hold() {
        let video = TrafficClass::Video.params();
        for factor in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            assert!(video.try_scaled(factor).is_err(), "scale {factor}");
        }
        let largest = MAX_CATALOG as f64 / video.catalog_size as f64;
        assert_eq!(video.try_scaled(largest).unwrap().catalog_size, MAX_CATALOG);
        assert!(video.try_scaled(largest * (1.0 + 1e-9)).is_err());
    }

    #[test]
    fn scaled_has_floor() {
        let p = TrafficClass::Video.params().scaled(1e-9);
        assert!(p.catalog_size >= 100);
    }
}
