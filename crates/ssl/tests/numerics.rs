//! Property tests pinning the numerics of the `f32` SIMD SRP pipeline against
//! its retained `f64` reference.
//!
//! Frames are synthesized directly (far-field delayed broadband noise, one
//! integer-sample delay per microphone) so every case exercises a physically
//! plausible cross-correlation structure with a controllable dominant azimuth.

use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::{SrpConfig, SrpMap};
use proptest::prelude::*;

/// Deterministic white noise in `[-1, 1]` from a splitmix64 stream.
fn noise(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

/// One frame of far-field broadband noise arriving from `azimuth_deg`: each
/// channel is the shared noise stream shifted by its (rounded) geometric delay.
fn far_field_frame(
    array: &MicrophoneArray,
    config: &SrpConfig,
    fs: f64,
    azimuth_deg: f64,
    seed: u64,
) -> Vec<Vec<f64>> {
    let theta = azimuth_deg.to_radians();
    let unit = Position::new(theta.cos(), theta.sin(), 0.0);
    let margin = 64;
    let base = noise(seed, config.frame_len + 2 * margin);
    array
        .positions()
        .iter()
        .map(|p| {
            // A mic further along the propagation direction hears the wavefront
            // earlier; round to the nearest integer sample.
            let delay = (-(p.dot(unit)) / config.speed_of_sound * fs).round() as isize;
            let start = (margin as isize + delay) as usize;
            base[start..start + config.frame_len].to_vec()
        })
        .collect()
}

/// Wrap-aware index distance on the circular azimuth grid.
fn grid_distance(a: usize, b: usize, n: usize) -> usize {
    let d = (a + n - b) % n;
    d.min(n - d)
}

fn argmax(power: &[f64]) -> usize {
    power
        .iter()
        .enumerate()
        .max_by(|x, y| x.1.total_cmp(y.1))
        .map(|(i, _)| i)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The `f32` SIMD map must agree with the `f64` reference path elementwise
    /// (relative to the map's dynamic range) and place the global peak in the
    /// same grid cell (± one neighbour, since adjacent cells can tie to within
    /// `f32` rounding).
    #[test]
    fn f32_simd_map_matches_f64_reference(
        azimuth_deg in 0.0f64..360.0,
        seed in 1u64..10_000,
    ) {
        let fs = 16_000.0;
        let config = SrpConfig::default();
        let array = MicrophoneArray::circular(6, 0.2, Position::new(0.0, 0.0, 1.0));
        let fast = SrpPhatFast::new(config, &array, fs).unwrap();

        let channels = far_field_frame(&array, &config, fs, azimuth_deg, seed);
        let frame: Vec<&[f64]> = channels.iter().map(|c| c.as_slice()).collect();

        let mut simd_map = SrpMap::default();
        let mut ref_map = SrpMap::default();
        fast.compute_map_into(&frame, &mut fast.make_scratch(), &mut simd_map).unwrap();
        fast.compute_map_reference_into(&frame, &mut fast.make_reference_scratch(), &mut ref_map)
            .unwrap();

        let simd = simd_map.power();
        let reference = ref_map.power();
        prop_assert_eq!(simd.len(), reference.len());
        let scale = reference
            .iter()
            .fold(0.0f64, |m, p| m.max(p.abs()))
            .max(1e-12);
        for (d, (a, b)) in simd.iter().zip(reference).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-3 * scale,
                "direction {}: simd {} vs reference {} (scale {})",
                d, a, b, scale
            );
        }

        let n = simd.len();
        let dist = grid_distance(argmax(simd), argmax(reference), n);
        prop_assert!(
            dist <= 1,
            "global peak moved {} cells between f32 SIMD ({}) and f64 reference ({})",
            dist, argmax(simd), argmax(reference)
        );
    }
}
