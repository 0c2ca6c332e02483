//! Golden round-trip tests for the [`DetectorSpec`] wire forms.
//!
//! The spec is the single construction path for every detector (CLI and
//! parcom-serve both go through it), so its two wire forms — the compact
//! string (`plm:gamma=1.5,seed=7`) and the flat JSON object — are pinned
//! here: every registered algorithm round-trips through both with every
//! knob it accepts, and the error surface (unknown algorithm, inapplicable
//! knob, malformed value) is exact.

use parcom_core::spec::{Knob, REGISTRY};
use parcom_core::{DetectorSpec, MoveStrategy, SpecError};
use parcom_obs::json;

/// A spec exercising every knob `info` accepts, with distinctive values.
fn full_spec(name: &str) -> DetectorSpec {
    let info = parcom_core::spec::lookup(name).expect("registered");
    let mut spec = DetectorSpec::new(name).unwrap().with_seed(42);
    if info.accepts(Knob::Gamma) {
        spec = spec.with_gamma(1.5);
    }
    if info.accepts(Knob::Ensemble) {
        spec = spec.with_ensemble(3);
    }
    if info.accepts(Knob::Randomized) {
        spec = spec.with_randomized(true);
    }
    if info.accepts(Knob::Move) {
        spec = spec.with_move(MoveStrategy::Coloring);
    }
    spec
}

#[test]
fn every_algorithm_round_trips_the_string_form() {
    for info in REGISTRY {
        let spec = full_spec(info.name);
        let wire = spec.to_string();
        let back = DetectorSpec::parse(&wire)
            .unwrap_or_else(|e| panic!("{}: `{wire}` failed to re-parse: {e}", info.name));
        assert_eq!(back, spec, "{}: `{wire}` did not round-trip", info.name);
        // and the canonical form is a fixed point
        assert_eq!(back.to_string(), wire);
    }
}

#[test]
fn every_algorithm_round_trips_the_json_form() {
    for info in REGISTRY {
        let spec = full_spec(info.name);
        let wire = spec.to_json();
        let back = DetectorSpec::parse_json(&wire)
            .unwrap_or_else(|e| panic!("{}: `{wire}` failed to re-parse: {e}", info.name));
        assert_eq!(back, spec, "{}: `{wire}` did not round-trip", info.name);
        // the emitted JSON is well-formed by the obs validator too
        json::validate(&wire).unwrap();
    }
}

#[test]
fn bare_names_parse_and_build() {
    for info in REGISTRY {
        let spec = DetectorSpec::parse(info.name).unwrap();
        let detector = spec.build().unwrap();
        assert!(
            !detector.name().is_empty(),
            "{} built a nameless detector",
            info.name
        );
    }
}

#[test]
fn json_string_and_object_forms_are_interchangeable() {
    let from_string = DetectorSpec::from_json(&json::parse("\"plm:gamma=1.5,seed=7\"").unwrap());
    let from_object = DetectorSpec::from_json(
        &json::parse("{\"algo\":\"plm\",\"gamma\":1.5,\"seed\":7}").unwrap(),
    );
    assert_eq!(from_string.unwrap(), from_object.unwrap());
}

#[test]
fn golden_wire_forms() {
    // pin the exact canonical serializations; a change here is a wire
    // format break that serve clients would notice
    let spec = DetectorSpec::new("epp")
        .unwrap()
        .with_ensemble(8)
        .with_seed(3);
    assert_eq!(spec.to_string(), "epp:ensemble=8,seed=3");
    assert_eq!(
        spec.to_json(),
        "{\"algo\":\"epp\",\"ensemble\":8,\"seed\":3}"
    );
    let spec = DetectorSpec::new("plp").unwrap().with_randomized(true);
    assert_eq!(spec.to_string(), "plp:randomized=true");
    assert_eq!(spec.to_json(), "{\"algo\":\"plp\",\"randomized\":true}");
    assert_eq!(DetectorSpec::new("cnm").unwrap().to_string(), "cnm");
}

#[test]
fn move_knob_round_trips_both_wire_forms() {
    // string form, every strategy
    for (wire, strategy) in [
        ("racy", MoveStrategy::Racy),
        ("coloring", MoveStrategy::Coloring),
    ] {
        let spec = DetectorSpec::parse(&format!("plm:move={wire},seed=7")).unwrap();
        assert_eq!(spec.move_strategy, Some(strategy));
        assert_eq!(spec.to_string(), format!("plm:move={wire},seed=7"));
    }
    // JSON form
    let spec =
        DetectorSpec::parse_json("{\"algo\":\"plm\",\"move\":\"coloring\",\"seed\":7}").unwrap();
    assert_eq!(spec.move_strategy, Some(MoveStrategy::Coloring));
    assert_eq!(
        spec.to_json(),
        "{\"algo\":\"plm\",\"move\":\"coloring\",\"seed\":7}"
    );
    // and both forms agree
    assert_eq!(
        spec,
        DetectorSpec::parse("plm:move=coloring,seed=7").unwrap()
    );
}

#[test]
fn unknown_move_value_enumerates_the_accepted_set() {
    // `sync` (the rejected synchronized strategy, DESIGN.md §14) has no alias
    for err in [
        DetectorSpec::parse("plm:move=eager").err().unwrap(),
        DetectorSpec::parse("plm:move=sync").err().unwrap(),
        DetectorSpec::parse_json("{\"algo\":\"plm\",\"move\":\"sync\"}")
            .err()
            .unwrap(),
    ] {
        assert!(matches!(err, SpecError::BadValue { .. }), "{err:?}");
        let message = err.to_string();
        assert!(message.contains("racy|coloring"), "{message}");
    }
}

#[test]
fn move_knob_rejected_on_non_plm_algorithms() {
    for algo in ["plp", "louvain", "cnm", "rg", "pam"] {
        let err = DetectorSpec::parse(&format!("{algo}:move=coloring"))
            .err()
            .unwrap();
        assert!(
            matches!(err, SpecError::UnknownKnob { .. }),
            "{algo}: {err:?}"
        );
    }
}

#[test]
fn epp_and_eppr_forward_the_move_strategy_to_their_final_plm() {
    let epp = DetectorSpec::parse("epp:move=coloring")
        .unwrap()
        .build()
        .unwrap();
    assert_eq!(epp.name(), "EPP(4,PLP,PLM[coloring])");
    let eppr = DetectorSpec::parse("eppr:move=coloring")
        .unwrap()
        .build()
        .unwrap();
    assert_eq!(eppr.name(), "EPP(4,PLP,PLMR[coloring])");
    // plm/plmr themselves carry the strategy in their names too
    assert_eq!(
        DetectorSpec::parse("plmr:move=coloring")
            .unwrap()
            .build()
            .unwrap()
            .name(),
        "PLMR[coloring]"
    );
    // default stays the racy paper behavior under the unsuffixed name
    assert_eq!(
        DetectorSpec::parse("epp").unwrap().build().unwrap().name(),
        "EPP(4,PLP,PLM)"
    );
}

#[test]
fn unknown_algorithm_error_enumerates_the_registry() {
    let err = DetectorSpec::parse("florp").err().unwrap();
    assert!(matches!(err, SpecError::UnknownAlgo { .. }));
    let message = err.to_string();
    for info in REGISTRY {
        assert!(
            message.contains(info.name),
            "missing {}: {message}",
            info.name
        );
    }
}

#[test]
fn inapplicable_knob_errors_name_the_accepted_set() {
    // gamma on a propagation algorithm
    let err = DetectorSpec::parse("plp:gamma=1.5").err().unwrap();
    assert!(matches!(err, SpecError::UnknownKnob { algo: "plp", .. }));
    let message = err.to_string();
    assert!(message.contains("randomized"), "{message}");
    assert!(message.contains("seed"), "{message}");
    // ensemble on a single-run algorithm
    let err = DetectorSpec::parse("louvain:ensemble=4").err().unwrap();
    assert!(matches!(
        err,
        SpecError::UnknownKnob {
            algo: "louvain",
            ..
        }
    ));
    // entirely unknown knob key
    let err = DetectorSpec::parse("plm:flavor=mint").err().unwrap();
    assert!(matches!(err, SpecError::UnknownKnob { algo: "plm", .. }));
}

#[test]
fn malformed_values_are_rejected_with_context() {
    assert!(matches!(
        DetectorSpec::parse("plm:gamma=spicy").err().unwrap(),
        SpecError::BadValue { .. }
    ));
    assert!(matches!(
        DetectorSpec::parse("epp:ensemble=-1").err().unwrap(),
        SpecError::BadValue { .. }
    ));
    assert!(matches!(
        DetectorSpec::parse("epp:ensemble=0").err().unwrap(),
        SpecError::BadValue { .. }
    ));
    assert!(matches!(
        DetectorSpec::parse("plm:gamma=-2").err().unwrap(),
        SpecError::BadValue { .. }
    ));
    assert!(matches!(
        DetectorSpec::parse("plm:gamma").err().unwrap(),
        SpecError::Malformed(_)
    ));
    assert!(matches!(
        DetectorSpec::parse("").err().unwrap(),
        SpecError::Malformed(_)
    ));
    assert!(matches!(
        DetectorSpec::parse_json("{\"gamma\":1.5}").err().unwrap(),
        SpecError::Malformed(_)
    ));
    assert!(matches!(
        DetectorSpec::parse_json("{\"algo\":\"plm\",\"gamma\":[1.5]}")
            .err()
            .unwrap(),
        SpecError::BadValue { .. }
    ));
}

#[test]
fn seed_is_universal_and_reaches_the_detector() {
    // every algorithm accepts seed=; randomized detectors must be
    // deterministic under it
    let (g, _) = parcom_generators::lfr(parcom_generators::LfrParams::benchmark(300, 0.4), 5);
    for info in REGISTRY {
        let spec = DetectorSpec::parse(&format!("{}:seed=11", info.name)).unwrap();
        let a = spec.build().unwrap().detect(&g);
        let b = spec.build().unwrap().detect(&g);
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{} is not deterministic under a fixed spec seed",
            info.name
        );
    }
}
