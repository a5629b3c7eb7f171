//! JSON persistence round-trips over the vendored serde stack.
//!
//! The offline container builds against vendored stand-ins for
//! serde/serde_json (see `vendor/stubs/README.md`); these tests pin that
//! the stand-ins do real work on the workspace's actual persistence
//! surfaces — SpaceGEN model bundles (which carry the GPD) and the
//! replayer access-log hand-off — plus the full derive-shape matrix (struct
//! kinds, enum variant kinds, generics, `#[serde(default)]`) and the
//! error paths: malformed input must fail with a typed error, never
//! panic and never silently succeed.

use serde::{Deserialize, Serialize};
use spacegen::io::ModelBundle;
use spacegen::trace::{LocationId, Request, Trace};
use starcdn::variants::Variant;
use starcdn_cache::object::ObjectId;
use starcdn_constellation::schedule::{FaultEvent, TimedFault};
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_sim::access_log::{AccessLog, AccessLogEntry};

fn small_trace() -> Trace {
    let mut requests = Vec::new();
    for i in 0..200u64 {
        requests.push(Request {
            time: SimTime::from_secs(i),
            object: ObjectId(i % 17),
            size: 1_000 + (i % 5) * 512,
            location: LocationId((i % 3) as u16),
        });
    }
    Trace { requests }
}

// ---------------------------------------------------------------------------
// Real persistence surfaces
// ---------------------------------------------------------------------------

#[test]
fn model_bundle_roundtrips_through_json() {
    let bundle = ModelBundle::from_trace(&small_trace(), 3, 0xC0FFEE);
    let mut buf = Vec::new();
    bundle.write_json(&mut buf).expect("write_json");
    let back = ModelBundle::read_json(&buf[..]).expect("read_json");
    // The export is deterministic: same model, same bytes.
    let mut again = Vec::new();
    bundle.write_json(&mut again).expect("write_json");
    assert_eq!(again, buf);
    assert_eq!(back.gpd.num_locations, bundle.gpd.num_locations);
    assert_eq!(back.gpd.records, bundle.gpd.records);
    assert_eq!(back.pfds.len(), bundle.pfds.len());
    for (a, b) in bundle.pfds.iter().zip(&back.pfds) {
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.max_stack_distance, b.max_stack_distance);
        assert_eq!(a.total_requests, b.total_requests);
        assert!((a.req_rate_hz - b.req_rate_hz).abs() < 1e-12);
        assert!((a.mean_interarrival_s - b.mean_interarrival_s).abs() < 1e-12);
    }
}

#[test]
fn access_log_roundtrips_through_json() {
    let log = AccessLog {
        entries: vec![
            AccessLogEntry {
                time: SimTime::from_secs(7),
                object: ObjectId(42),
                size: 4096,
                location: LocationId(2),
                first_contact: Some(SatelliteId { orbit: 3, slot: 11 }),
                gsl_oneway_ms: 12.25,
            },
            AccessLogEntry {
                time: SimTime::from_secs(9),
                object: ObjectId(u64::MAX),
                size: u64::MAX,
                location: LocationId(0),
                first_contact: None,
                gsl_oneway_ms: 0.0,
            },
        ],
        epoch_secs: 15,
    };
    let mut buf = Vec::new();
    log.write_json(&mut buf).expect("write_json");
    let back = AccessLog::read_json(&buf[..]).expect("read_json");
    assert_eq!(back, log);
}

#[test]
fn variant_enum_all_shapes_roundtrip() {
    let variants = [
        Variant::StaticCache,
        Variant::StarCdn { l: 8 },
        Variant::StarCdnNoRelay { l: 3 },
        Variant::StarCdnNoHashing,
        Variant::StarCdnPrefetch { l: 5, k: 100 },
        Variant::NaiveLru,
        Variant::NoCache,
        Variant::TerrestrialCdn,
    ];
    for v in variants {
        let json = serde_json::to_string(&v).expect("encode variant");
        let back: Variant = serde_json::from_str(&json).expect("decode variant");
        assert_eq!(back, v, "round-trip failed for {json}");
    }
    // Externally-tagged representation, as real serde would produce.
    assert_eq!(serde_json::to_string(&Variant::StaticCache).unwrap(), "\"StaticCache\"");
    assert_eq!(
        serde_json::to_string(&Variant::StarCdn { l: 8 }).unwrap(),
        "{\"StarCdn\":{\"l\":8}}"
    );
}

#[test]
fn fault_event_tuple_variants_roundtrip() {
    let a = SatelliteId { orbit: 1, slot: 2 };
    let b = SatelliteId { orbit: 3, slot: 4 };
    let events = [
        FaultEvent::SatDown(a),
        FaultEvent::SatUp(b),
        FaultEvent::LinkDown(a, b),
        FaultEvent::LinkUp(b, a),
    ];
    for e in events {
        let timed = TimedFault { at_secs: 99, event: e };
        let json = serde_json::to_string(&timed).expect("encode");
        let back: TimedFault = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, timed, "round-trip failed for {json}");
    }
}

// ---------------------------------------------------------------------------
// Derive-shape matrix on local types
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper<T: Clone> {
    inner: T,
    tag: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Defaults {
    required: u32,
    #[serde(default)]
    optional_count: u64,
    #[serde(default)]
    optional_name: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Kitchen {
    floats: Vec<f64>,
    ints: Vec<i64>,
    map: std::collections::HashMap<u16, String>,
    ordered: std::collections::BTreeMap<String, u64>,
    opt_some: Option<Pair>,
    opt_none: Option<u32>,
    pairs: Vec<(u32, u64)>,
    text: String,
}

#[test]
fn derive_shape_matrix_roundtrips() {
    let newtype = Newtype(7);
    assert_eq!(serde_json::to_string(&newtype).unwrap(), "7");
    assert_eq!(serde_json::from_str::<Newtype>("7").unwrap(), newtype);

    let pair = Pair(1, "two".into());
    assert_eq!(serde_json::to_string(&pair).unwrap(), "[1,\"two\"]");
    assert_eq!(serde_json::from_str::<Pair>("[1,\"two\"]").unwrap(), pair);

    let wrapped = Wrapper { inner: Newtype(3), tag: "t".into() };
    let json = serde_json::to_string(&wrapped).unwrap();
    assert_eq!(serde_json::from_str::<Wrapper<Newtype>>(&json).unwrap(), wrapped);

    let mut map = std::collections::HashMap::new();
    map.insert(300u16, "three hundred".to_string());
    map.insert(5u16, "five".to_string());
    let mut ordered = std::collections::BTreeMap::new();
    ordered.insert("z".to_string(), 26u64);
    ordered.insert("a".to_string(), 1u64);
    let kitchen = Kitchen {
        floats: vec![0.0, -1.5, 1e300, f64::MIN_POSITIVE],
        ints: vec![i64::MIN, -1, 0, i64::MAX],
        map,
        ordered,
        opt_some: Some(Pair(9, "nine".into())),
        opt_none: None,
        pairs: vec![(1, 2), (3, 4)],
        text: "esc \"quotes\" \\ slash \n tab\t nul\u{1} ünïcødé 🛰".into(),
    };
    let json = serde_json::to_string(&kitchen).unwrap();
    let back: Kitchen = serde_json::from_str(&json).expect("decode kitchen");
    assert_eq!(back, kitchen);
    // Integer map keys are stringified JSON object keys.
    assert!(json.contains("\"300\""), "integer map key not stringified: {json}");
    // HashMap output is deterministic (sorted) under the vendored stub.
    assert_eq!(json, serde_json::to_string(&kitchen).unwrap());

    // Pretty output parses back to the same value.
    let pretty = serde_json::to_string_pretty(&kitchen).unwrap();
    let back: Kitchen = serde_json::from_str(&pretty).expect("decode pretty");
    assert_eq!(back, kitchen);
}

#[test]
fn id_keyed_maps_roundtrip_whatever_their_hasher() {
    use starcdn::metrics::SystemMetrics;
    use starcdn::system::ServedFrom;
    use starcdn_cache::object::IdMap;
    use starcdn_cache::stats::CacheStats;

    // `HashMap<K, V, S>` for an `S` that is not `RandomState`: built by
    // `S::default()` on the way in, keys emitted sorted on the way out
    // (so two maps with the same entries give the same bytes, whatever
    // their insertion or iteration order).
    let stats =
        |n: u64| CacheStats { requests: n, hits: n / 2, bytes_requested: 9 * n, bytes_hit: n };
    let ids = [7u64, 300, 1 << 40, u64::MAX, 0];
    let forward: IdMap<ObjectId, CacheStats> =
        ids.iter().map(|&i| (ObjectId(i), stats(i % 97))).collect();
    let backward: IdMap<ObjectId, CacheStats> =
        ids.iter().rev().map(|&i| (ObjectId(i), stats(i % 97))).collect();
    let json = serde_json::to_string(&forward).unwrap();
    assert_eq!(json, serde_json::to_string(&backward).unwrap());
    let keys: Vec<usize> =
        ["\"0\"", "\"1099511627776\"", "\"18446744073709551615\"", "\"300\"", "\"7\""]
            .iter()
            .map(|k| json.find(k).unwrap_or_else(|| panic!("{k} missing from {json}")))
            .collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not in sorted order: {json}");
    let back: IdMap<ObjectId, CacheStats> = serde_json::from_str(&json).expect("decode id map");
    assert_eq!(back, forward);

    // The run metrics carry such a map (`per_satellite`) between their
    // plain fields and decode with it in place. Its keys are structs,
    // which JSON object keys cannot be (real serde_json refuses them
    // too), so the entries travel by checkpoint, not JSON, and are set
    // aside here.
    let mut m = SystemMetrics::default();
    m.record(SatelliteId::new(3, 11), ServedFrom::RelayWest, 4096, 41.5);
    m.record(SatelliteId::new(3, 11), ServedFrom::Ground, 100, 97.25);
    let per_satellite = std::mem::take(&mut m.per_satellite);
    let back: SystemMetrics =
        serde_json::from_str(&serde_json::to_string(&m).unwrap()).expect("decode metrics");
    assert_eq!(back.stats, m.stats);
    assert_eq!(back.latencies_ms, m.latencies_ms);
    assert_eq!((back.relay_bytes, back.uplink_bytes), (4096, 100));
    assert!(back.per_satellite.is_empty());
    assert_eq!(per_satellite[&SatelliteId::new(3, 11)].requests, 2);
}

#[test]
fn serde_default_fills_missing_fields() {
    let d: Defaults = serde_json::from_str("{\"required\":5}").expect("defaults apply");
    assert_eq!(d, Defaults { required: 5, optional_count: 0, optional_name: String::new() });

    // Present values still win over the default.
    let d: Defaults =
        serde_json::from_str("{\"required\":5,\"optional_count\":9}").expect("explicit wins");
    assert_eq!(d.optional_count, 9);

    // A genuinely required field stays required.
    let err = serde_json::from_str::<Defaults>("{\"optional_count\":9}");
    assert!(err.is_err(), "missing required field must be an error");
}

#[test]
fn unknown_fields_are_ignored_like_serde_default() {
    let d: Defaults =
        serde_json::from_str("{\"required\":5,\"labelled\":\"future-field\"}").expect("ignored");
    assert_eq!(d.required, 5);
}

// ---------------------------------------------------------------------------
// Hostile input: typed errors, never panics
// ---------------------------------------------------------------------------

#[test]
fn malformed_json_errors_never_panic() {
    let cases: &[&str] = &[
        "",
        "{",
        "}",
        "[1,",
        "{\"a\":}",
        "{\"a\"1}",
        "tru",
        "nul",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"bad unicode \\uD800\"",
        "\"truncated unicode \\u12\"",
        "01x",
        "-",
        "1e999e",
        "[1] trailing",
        "{\"a\":1,}",
        "\u{7f}",
        "[\"\u{1}\"]",
    ];
    for case in cases {
        let res = serde_json::from_str::<Kitchen>(case);
        assert!(res.is_err(), "expected error for {case:?}");
        // The error formats without panicking, too.
        let _ = format!("{}", res.unwrap_err());
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let bomb = format!("{}1{}", "[".repeat(5000), "]".repeat(5000));
    assert!(serde_json::from_str::<Vec<u64>>(&bomb).is_err());
    let bomb = "{\"a\":".repeat(5000) + "1" + &"}".repeat(5000);
    assert!(serde_json::from_str::<Defaults>(&bomb).is_err());
}

#[test]
fn type_mismatches_are_typed_errors() {
    assert!(serde_json::from_str::<Newtype>("\"seven\"").is_err());
    assert!(serde_json::from_str::<Newtype>("-7").is_err());
    assert!(serde_json::from_str::<Pair>("[1]").is_err());
    assert!(serde_json::from_str::<Variant>("\"NotAVariant\"").is_err());
    assert!(serde_json::from_str::<Variant>("{\"StarCdn\":{}}").is_err());
    assert!(serde_json::from_str::<AccessLog>("[]").is_err());
    // u64 overflow and u16 range checks.
    assert!(serde_json::from_str::<Vec<u16>>("[70000]").is_err());
    assert!(serde_json::from_str::<Vec<u64>>("[-1]").is_err());
}

#[test]
fn float_shapes_match_serde_json() {
    assert_eq!(serde_json::to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(serde_json::to_string(&0.1f64).unwrap(), "0.1");
    assert_eq!(serde_json::to_string(&-3.5f64).unwrap(), "-3.5");
    assert!(serde_json::to_string(&f64::NAN).is_err());
    assert!(serde_json::to_string(&f64::INFINITY).is_err());
    // Shortest-round-trip text survives re-parsing exactly.
    // The over-precise literal is the input under test: it must round.
    #[allow(clippy::excessive_precision)]
    for f in [0.1f64, 1e-308, 123456789.123456789, -2.2250738585072014e-308] {
        let json = serde_json::to_string(&f).unwrap();
        let back: f64 = serde_json::from_str(&json).unwrap();
        assert_eq!(back.to_bits(), f.to_bits(), "float drift for {json}");
    }
}
