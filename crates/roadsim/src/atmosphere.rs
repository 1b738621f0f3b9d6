//! Atmospheric model: speed of sound and ISO 9613-1 air absorption.
//!
//! pyroadacoustics models air absorption with FIR filters derived from the standard
//! atmospheric-absorption curves (Fig. 2, the `H_air` blocks); this module computes
//! those curves and designs matching filters.

use crate::error::RoadSimError;
use ispot_dsp::fir::{FirDesign, FirFilter};

/// Atmospheric conditions controlling sound propagation.
///
/// # Example
///
/// ```
/// use ispot_roadsim::atmosphere::Atmosphere;
///
/// let atm = Atmosphere::default();
/// // Speed of sound at 20 °C is about 343 m/s.
/// assert!((atm.speed_of_sound() - 343.0).abs() < 1.0);
/// // Absorption grows with frequency.
/// assert!(atm.absorption_db_per_m(8000.0) > atm.absorption_db_per_m(500.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atmosphere {
    /// Air temperature in degrees Celsius.
    pub temperature_c: f64,
    /// Relative humidity in percent (0–100).
    pub relative_humidity: f64,
    /// Atmospheric pressure in kilopascal.
    pub pressure_kpa: f64,
}

impl Default for Atmosphere {
    fn default() -> Self {
        Atmosphere {
            temperature_c: 20.0,
            relative_humidity: 50.0,
            pressure_kpa: 101.325,
        }
    }
}

impl Atmosphere {
    /// Creates an atmosphere, validating the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns an error if the temperature is below −50 °C or above 60 °C, the humidity
    /// is outside 0–100 %, or the pressure is not positive.
    pub fn new(
        temperature_c: f64,
        relative_humidity: f64,
        pressure_kpa: f64,
    ) -> Result<Self, RoadSimError> {
        if !(-50.0..=60.0).contains(&temperature_c) {
            return Err(RoadSimError::invalid_parameter(
                "temperature_c",
                format!("must be within [-50, 60] C, got {temperature_c}"),
            ));
        }
        if !(0.0..=100.0).contains(&relative_humidity) {
            return Err(RoadSimError::invalid_parameter(
                "relative_humidity",
                format!("must be within [0, 100] %, got {relative_humidity}"),
            ));
        }
        if pressure_kpa <= 0.0 {
            return Err(RoadSimError::invalid_parameter(
                "pressure_kpa",
                "must be positive",
            ));
        }
        Ok(Atmosphere {
            temperature_c,
            relative_humidity,
            pressure_kpa,
        })
    }

    /// Speed of sound in m/s for the configured temperature.
    pub fn speed_of_sound(&self) -> f64 {
        331.3 * (1.0 + self.temperature_c / 273.15).sqrt()
    }

    /// Pure-tone atmospheric absorption coefficient in dB per metre at `freq_hz`,
    /// following ISO 9613-1.
    pub fn absorption_db_per_m(&self, freq_hz: f64) -> f64 {
        let t = self.temperature_c + 273.15;
        let t0 = 293.15;
        let t01 = 273.16;
        let pa = self.pressure_kpa;
        let pr = 101.325;
        // Saturation vapour pressure ratio and molar concentration of water vapour.
        let psat_ratio = 10f64.powf(-6.8346 * (t01 / t).powf(1.261) + 4.6151);
        let h = self.relative_humidity * psat_ratio * (pr / pa);
        // Relaxation frequencies of oxygen and nitrogen.
        let fr_o = (pa / pr) * (24.0 + 4.04e4 * h * (0.02 + h) / (0.391 + h));
        let fr_n = (pa / pr)
            * (t / t0).powf(-0.5)
            * (9.0 + 280.0 * h * (-4.170 * ((t / t0).powf(-1.0 / 3.0) - 1.0)).exp());
        let f2 = freq_hz * freq_hz;
        8.686
            * f2
            * ((1.84e-11 * (pr / pa) * (t / t0).sqrt())
                + (t / t0).powf(-2.5)
                    * (0.01275 * (-2239.1 / t).exp() / (fr_o + f2 / fr_o)
                        + 0.1068 * (-3352.0 / t).exp() / (fr_n + f2 / fr_n)))
    }

    /// Linear magnitude response of the air-absorption filter for a propagation
    /// distance of `distance_m`, evaluated on `grid_points` uniformly spaced
    /// frequencies from DC to `fs/2`.
    pub fn absorption_magnitude_grid(
        &self,
        distance_m: f64,
        fs: f64,
        grid_points: usize,
    ) -> Vec<f64> {
        (0..grid_points)
            .map(|k| {
                let f = k as f64 / (grid_points.max(2) - 1) as f64 * fs / 2.0;
                let att_db = self.absorption_db_per_m(f) * distance_m.max(0.0);
                10f64.powf(-att_db / 20.0)
            })
            .collect()
    }

    /// Designs an FIR filter reproducing the air-absorption magnitude response for a
    /// propagation distance of `distance_m` at sampling rate `fs`.
    ///
    /// # Errors
    ///
    /// Returns an error if `taps` is invalid (must be odd and non-zero).
    pub fn absorption_filter(
        &self,
        distance_m: f64,
        fs: f64,
        taps: usize,
    ) -> Result<FirFilter, RoadSimError> {
        let grid = self.absorption_magnitude_grid(distance_m, fs, 128);
        let coeffs = FirDesign::from_magnitude_response(taps, &grid)?;
        Ok(FirFilter::new(coeffs)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_of_sound_increases_with_temperature() {
        let cold = Atmosphere::new(0.0, 50.0, 101.325).unwrap();
        let warm = Atmosphere::new(30.0, 50.0, 101.325).unwrap();
        assert!(warm.speed_of_sound() > cold.speed_of_sound());
        assert!((cold.speed_of_sound() - 331.3).abs() < 0.5);
    }

    #[test]
    fn absorption_is_monotonic_in_frequency() {
        let atm = Atmosphere::default();
        let mut last = 0.0;
        for f in [125.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0] {
            let a = atm.absorption_db_per_m(f);
            assert!(a >= last, "absorption must grow with frequency");
            last = a;
        }
    }

    #[test]
    fn absorption_matches_iso_reference_magnitude() {
        // ISO 9613-1 reference: at 20 C, 70 % RH, 1 atm, absorption at 1 kHz is about
        // 4.7-5.5 dB/km; at 4 kHz about 23-33 dB/km.
        let atm = Atmosphere::new(20.0, 70.0, 101.325).unwrap();
        let a1k = atm.absorption_db_per_m(1000.0) * 1000.0;
        let a4k = atm.absorption_db_per_m(4000.0) * 1000.0;
        assert!((3.0..8.0).contains(&a1k), "1 kHz: {a1k} dB/km");
        assert!((15.0..45.0).contains(&a4k), "4 kHz: {a4k} dB/km");
    }

    #[test]
    fn magnitude_grid_is_bounded_and_decreasing() {
        let atm = Atmosphere::default();
        let grid = atm.absorption_magnitude_grid(100.0, 16_000.0, 64);
        assert_eq!(grid.len(), 64);
        assert!(grid.iter().all(|&g| (0.0..=1.0).contains(&g)));
        assert!(grid[0] > grid[63]);
    }

    #[test]
    fn absorption_filter_attenuates_high_frequencies_more() {
        let atm = Atmosphere::default();
        let fs = 16_000.0;
        let filt = atm.absorption_filter(200.0, fs, 101).unwrap();
        let (g_low, _) = filt.frequency_response(250.0, fs);
        let (g_high, _) = filt.frequency_response(7000.0, fs);
        assert!(g_low > g_high, "low {g_low} vs high {g_high}");
    }

    #[test]
    fn invalid_conditions_are_rejected() {
        assert!(Atmosphere::new(-80.0, 50.0, 101.0).is_err());
        assert!(Atmosphere::new(20.0, 150.0, 101.0).is_err());
        assert!(Atmosphere::new(20.0, 50.0, 0.0).is_err());
    }

    #[test]
    fn zero_distance_filter_is_nearly_transparent() {
        let atm = Atmosphere::default();
        let grid = atm.absorption_magnitude_grid(0.0, 16_000.0, 32);
        assert!(grid.iter().all(|&g| (g - 1.0).abs() < 1e-9));
    }
}
