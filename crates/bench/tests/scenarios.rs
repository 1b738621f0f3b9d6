//! End-to-end acceptance tests for the scenario evaluation harness: render a
//! multi-source road scene, run the full perception session on the array audio
//! and hold the scored metrics to the quality bar of the paper-style conditions.

use ispot_bench::scenarios;

/// The headline scenario: a siren passing the array amid traffic maskers must be
/// detected nearly everywhere (frame-level event F1 >= 0.9) and localized to
/// within 5 degrees on average by the tracked azimuth.
#[test]
fn siren_pass_by_meets_detection_and_doa_targets() {
    let scenario = scenarios::siren_pass_by_in_traffic(16_000.0, 4.0);
    let report = scenarios::evaluate(&scenario).expect("evaluation succeeds");
    assert!(report.num_frames > 50, "frames {}", report.num_frames);
    assert!(
        report.event_f1 >= 0.9,
        "pass-by F1 {:.3} below target (precision {:.3}, recall {:.3})",
        report.event_f1,
        report.event_precision,
        report.event_recall
    );
    let doa = report
        .mean_doa_error_deg
        .expect("pass-by events carry tracked bearings");
    assert!(
        doa <= 5.0,
        "mean tracked DoA error {doa:.1} deg above target"
    );
    assert!(report.doa_scored > 30, "scored {}", report.doa_scored);
}

/// Park mode: the trigger must gate the idle stretches (low duty cycle) while
/// still waking for — and detecting — the door-slam transient.
#[test]
fn park_door_slam_wakes_trigger_and_detects() {
    let scenario = scenarios::park_door_slam(16_000.0);
    let report = scenarios::evaluate(&scenario).expect("evaluation succeeds");
    assert!(
        report.duty_cycle <= 0.3,
        "trigger barely gates: duty {:.2}",
        report.duty_cycle
    );
    assert!(
        report.event_f1 >= 0.8,
        "slam not detected: F1 {:.3}",
        report.event_f1
    );
}

/// The multi-target acceptance scene: two emergency vehicles whose bearings
/// sweep towards each other and cross must resolve into exactly two confirmed
/// tracks that keep their identities through the crossing — no swap — with the
/// mean per-track bearing error inside the 5-degree budget.
#[test]
fn crossing_vehicles_resolves_two_tracks_with_no_identity_swap() {
    let scenario = scenarios::crossing_vehicles(16_000.0);
    let report = scenarios::evaluate(&scenario).expect("evaluation succeeds");
    assert!(report.event_f1 >= 0.9, "F1 {:.3}", report.event_f1);
    assert_eq!(
        report.confirmed_tracks, 2,
        "expected exactly the two vehicles as confirmed tracks, got {}",
        report.confirmed_tracks
    );
    assert_eq!(
        report.identity_swaps, 0,
        "tracks swapped vehicles {} time(s) through the bearing crossing",
        report.identity_swaps
    );
    let mean = report.mean_track_error_deg.expect("tracks were scored");
    assert!(mean <= 5.0, "mean per-track DoA error {mean:.1} deg");
    let worst = report.worst_track_error_deg.expect("tracks were scored");
    assert!(worst <= 10.0, "worst per-track DoA error {worst:.1} deg");
    // The set-level view agrees: OSPA stays well under the 30-degree cutoff
    // that a missing or spurious track would be charged.
    let ospa = report.mean_ospa_deg.expect("OSPA scored");
    assert!(ospa <= 15.0, "mean OSPA {ospa:.1} deg");
}

/// The occlusion acceptance scene: a distant siren approaching from directly
/// behind a much closer stationary siren masker. The tracker must hold one
/// identity on each — two confirmed tracks, zero swaps.
#[test]
fn approaching_behind_masker_holds_two_identities() {
    let scenario = scenarios::approaching_behind_masker(16_000.0);
    let report = scenarios::evaluate(&scenario).expect("evaluation succeeds");
    assert_eq!(
        report.confirmed_tracks, 2,
        "expected the approaching siren and the masker as confirmed tracks, got {}",
        report.confirmed_tracks
    );
    assert_eq!(
        report.identity_swaps, 0,
        "{} swap(s)",
        report.identity_swaps
    );
    let mean = report.mean_track_error_deg.expect("tracks were scored");
    assert!(mean <= 5.0, "mean per-track DoA error {mean:.1} deg");
}

/// The short smoke configuration used by CI runs end to end.
#[test]
fn smoke_scene_runs_end_to_end() {
    let scenario = scenarios::siren_pass_by_in_traffic(16_000.0, 1.5);
    let report = scenarios::evaluate(&scenario).expect("evaluation succeeds");
    assert!(report.num_frames > 10);
    assert!(report.num_events > 0, "no events in the smoke scene");
}

/// Perf pin: the full per-frame pipeline (SED + f32 SIMD SRP steering every
/// grid direction + tracking) must stay comfortably real-time. Over 14 release
/// runs on a 2-vCPU shared VM the mean per-frame latency had a median of
/// 0.165 ms and a worst run of 0.25 ms. The bound leaves room for a noisy
/// runner while still catching a regression towards the ~1.3 ms/frame the
/// pre-SIMD pipeline cost. Release builds only — debug codegen is an order of
/// magnitude slower and says nothing about the shipped kernels.
#[test]
#[cfg_attr(debug_assertions, ignore = "perf pin is only meaningful in release")]
fn pass_by_frame_latency_stays_under_budget() {
    let scenario = scenarios::siren_pass_by_in_traffic(16_000.0, 4.0);
    let report = scenarios::evaluate(&scenario).expect("evaluation succeeds");
    assert!(
        report.mean_frame_latency_ms <= 0.75,
        "mean per-frame latency {:.3} ms above the 0.75 ms budget",
        report.mean_frame_latency_ms
    );
}
