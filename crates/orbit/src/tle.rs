//! Two-Line Element (TLE) parsing.
//!
//! The paper seeds its simulator with CelesTrak TLEs for the Starlink
//! 53° shell. We implement a TLE parser so real element sets can be
//! loaded; propagation then uses the circular Keplerian model (see
//! DESIGN.md — a full SGP4 is unnecessary for near-circular LEO shells at
//! the fidelity the CDN simulation consumes).
//!
//! Format reference: each satellite is described by a name line followed
//! by two 69-column data lines ("line 1" and "line 2").

use crate::constants::MU_EARTH;
use crate::kepler::OrbitalElements;

/// A parsed TLE record.
#[derive(Debug, Clone, PartialEq)]
pub struct Tle {
    pub name: String,
    pub norad_id: u32,
    pub epoch_year: u16,
    /// Day of year including fraction.
    pub epoch_day: f64,
    pub inclination_deg: f64,
    pub raan_deg: f64,
    pub eccentricity: f64,
    pub arg_perigee_deg: f64,
    pub mean_anomaly_deg: f64,
    /// Mean motion in revolutions per day.
    pub mean_motion_rev_day: f64,
}

/// Errors produced while parsing TLE text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TleError {
    /// A data line is shorter than the 69-column TLE format.
    LineTooShort { line: u8 },
    /// A data line does not start with the expected line number.
    BadLineNumber { line: u8 },
    /// A numeric field failed to parse.
    BadField { line: u8, field: &'static str },
    /// The line checksum does not match.
    BadChecksum { line: u8, expected: u8, actual: u8 },
}

impl std::fmt::Display for TleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TleError::LineTooShort { line } => write!(f, "TLE line {line} is too short"),
            TleError::BadLineNumber { line } => write!(f, "TLE line {line} has wrong line number"),
            TleError::BadField { line, field } => {
                write!(f, "TLE line {line}: cannot parse field `{field}`")
            }
            TleError::BadChecksum { line, expected, actual } => {
                write!(f, "TLE line {line}: checksum {actual} != expected {expected}")
            }
        }
    }
}

impl std::error::Error for TleError {}

/// TLE modulo-10 checksum: digits count as their value, `-` counts as 1.
pub(crate) fn checksum(line: &str) -> u8 {
    let mut sum = 0u32;
    for c in line.chars().take(68) {
        match c {
            '0'..='9' => sum += c as u32 - '0' as u32,
            '-' => sum += 1,
            _ => {}
        }
    }
    (sum % 10) as u8
}

fn field<T: std::str::FromStr>(
    line: &str,
    range: std::ops::Range<usize>,
    line_no: u8,
    name: &'static str,
) -> Result<T, TleError> {
    line.get(range)
        .map(str::trim)
        .and_then(|s| s.parse().ok())
        .ok_or(TleError::BadField { line: line_no, field: name })
}

impl Tle {
    /// Parse one TLE record from a name line plus two data lines.
    pub fn parse(name: &str, line1: &str, line2: &str) -> Result<Tle, TleError> {
        for (n, l) in [(1u8, line1), (2u8, line2)] {
            if l.len() < 69 {
                return Err(TleError::LineTooShort { line: n });
            }
            if !l.starts_with(&format!("{n} ")) {
                return Err(TleError::BadLineNumber { line: n });
            }
            let expected: u8 =
                l[68..69].parse().map_err(|_| TleError::BadField { line: n, field: "checksum" })?;
            let actual = checksum(l);
            if actual != expected {
                return Err(TleError::BadChecksum { line: n, expected, actual });
            }
        }

        let norad_id: u32 = field(line1, 2..7, 1, "norad_id")?;
        let epoch_year2: u16 = field(line1, 18..20, 1, "epoch_year")?;
        let epoch_year = if epoch_year2 < 57 { 2000 + epoch_year2 } else { 1900 + epoch_year2 };
        let epoch_day: f64 = field(line1, 20..32, 1, "epoch_day")?;

        let inclination_deg: f64 = field(line2, 8..16, 2, "inclination")?;
        let raan_deg: f64 = field(line2, 17..25, 2, "raan")?;
        let ecc_digits: String = line2
            .get(26..33)
            .map(str::trim)
            .map(str::to_owned)
            .ok_or(TleError::BadField { line: 2, field: "eccentricity" })?;
        let eccentricity: f64 = format!("0.{ecc_digits}")
            .parse()
            .map_err(|_| TleError::BadField { line: 2, field: "eccentricity" })?;
        let arg_perigee_deg: f64 = field(line2, 34..42, 2, "arg_perigee")?;
        let mean_anomaly_deg: f64 = field(line2, 43..51, 2, "mean_anomaly")?;
        let mean_motion_rev_day: f64 = field(line2, 52..63, 2, "mean_motion")?;

        Ok(Tle {
            name: name.trim().to_owned(),
            norad_id,
            epoch_year,
            epoch_day,
            inclination_deg,
            raan_deg,
            eccentricity,
            arg_perigee_deg,
            mean_anomaly_deg,
            mean_motion_rev_day,
        })
    }

    /// Semi-major axis implied by the mean motion, km.
    pub(crate) fn semi_major_axis_km(&self) -> f64 {
        let n_rad_s = self.mean_motion_rev_day * 2.0 * std::f64::consts::PI / 86400.0;
        (MU_EARTH / (n_rad_s * n_rad_s)).cbrt()
    }

    /// Convert to classical orbital elements.
    pub(crate) fn to_elements(&self) -> OrbitalElements {
        OrbitalElements {
            semi_major_axis_km: self.semi_major_axis_km(),
            eccentricity: self.eccentricity,
            inclination_rad: self.inclination_deg.to_radians(),
            raan_rad: self.raan_deg.to_radians(),
            arg_perigee_rad: self.arg_perigee_deg.to_radians(),
            mean_anomaly_rad: self.mean_anomaly_deg.to_radians(),
        }
    }
}

/// Render a TLE for a circular orbit (testing aid: lets the test suite
/// synthesize valid catalogs without network access).
pub fn synthesize_tle(
    name: &str,
    norad_id: u32,
    inclination_deg: f64,
    raan_deg: f64,
    mean_anomaly_deg: f64,
    mean_motion_rev_day: f64,
) -> (String, String, String) {
    let l1_body =
        format!("1 {norad_id:05}U 24001A   24001.00000000  .00000000  00000+0  00000+0 0  999");
    let l1 = format!("{l1_body}{}", checksum(&l1_body));
    let l2_body = format!(
        "2 {norad_id:05} {inclination_deg:8.4} {raan_deg:8.4} 0001000 {:8.4} {mean_anomaly_deg:8.4} {mean_motion_rev_day:11.8}    1",
        0.0
    );
    let l2 = format!("{l2_body}{}", checksum(&l2_body));
    (name.to_owned(), l1, l2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::EARTH_RADIUS_KM;

    // A real Starlink TLE (STARLINK-1008, historical epoch).
    const NAME: &str = "STARLINK-1008";
    const L1: &str = "1 44714U 19074B   23001.00000000  .00002182  00000+0  16538-3 0  9995";
    const L2: &str = "2 44714  53.0541 338.0061 0001360  85.1559 274.9583 15.06391998171799";

    #[test]
    fn parses_real_starlink_tle() {
        // Recompute checksums since the epoch fields above were normalized.
        let l1 = format!("{}{}", &L1[..68], checksum(L1));
        let l2 = format!("{}{}", &L2[..68], checksum(L2));
        let tle = Tle::parse(NAME, &l1, &l2).expect("parse");
        assert_eq!(tle.name, "STARLINK-1008");
        assert_eq!(tle.norad_id, 44714);
        assert_eq!(tle.epoch_year, 2023);
        assert!((tle.inclination_deg - 53.0541).abs() < 1e-9);
        assert!((tle.raan_deg - 338.0061).abs() < 1e-9);
        assert!((tle.eccentricity - 0.0001360).abs() < 1e-12);
        assert!((tle.mean_motion_rev_day - 15.06391998).abs() < 1e-6);
    }

    #[test]
    fn starlink_altitude_from_mean_motion() {
        let l1 = format!("{}{}", &L1[..68], checksum(L1));
        let l2 = format!("{}{}", &L2[..68], checksum(L2));
        let tle = Tle::parse(NAME, &l1, &l2).unwrap();
        let alt = tle.semi_major_axis_km() - EARTH_RADIUS_KM;
        assert!((alt - 550.0).abs() < 30.0, "altitude {alt}");
    }

    #[test]
    fn to_elements_roundtrip_inclination() {
        let l1 = format!("{}{}", &L1[..68], checksum(L1));
        let l2 = format!("{}{}", &L2[..68], checksum(L2));
        let el = Tle::parse(NAME, &l1, &l2).unwrap().to_elements();
        assert!((el.inclination_rad.to_degrees() - 53.0541).abs() < 1e-9);
        let c = el.to_circular();
        assert!((c.period_s() / 60.0 - 95.6).abs() < 1.0, "period {}", c.period_s() / 60.0);
    }

    #[test]
    fn checksum_counts_minus_as_one() {
        assert_eq!(checksum("1 ------"), 7);
        assert_eq!(checksum("1 11111"), 6);
    }

    #[test]
    fn rejects_bad_checksum() {
        let l1 = format!("{}{}", &L1[..68], (checksum(L1) + 1) % 10);
        let l2 = format!("{}{}", &L2[..68], checksum(L2));
        match Tle::parse(NAME, &l1, &l2) {
            Err(TleError::BadChecksum { line: 1, .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_short_line() {
        assert_eq!(Tle::parse("X", "1 short", "2 short"), Err(TleError::LineTooShort { line: 1 }));
    }

    #[test]
    fn rejects_swapped_lines() {
        let l1 = format!("{}{}", &L1[..68], checksum(L1));
        let l2 = format!("{}{}", &L2[..68], checksum(L2));
        assert_eq!(Tle::parse(NAME, &l2, &l1), Err(TleError::BadLineNumber { line: 1 }));
    }

    #[test]
    fn synthesized_tle_roundtrips() {
        let (name, l1, l2) = synthesize_tle("TEST-SAT", 12345, 53.0, 120.0, 45.0, 15.05);
        let tle = Tle::parse(&name, &l1, &l2).expect("synthesized TLE must parse");
        assert_eq!(tle.norad_id, 12345);
        assert!((tle.inclination_deg - 53.0).abs() < 1e-3);
        assert!((tle.raan_deg - 120.0).abs() < 1e-3);
        assert!((tle.mean_anomaly_deg - 45.0).abs() < 1e-3);
        assert!((tle.mean_motion_rev_day - 15.05).abs() < 1e-6);
    }

    #[test]
    fn error_display_messages() {
        let e = TleError::BadChecksum { line: 2, expected: 3, actual: 7 };
        assert!(e.to_string().contains("checksum"));
    }
}
