//! Conventional SRP-PHAT localization by frequency-domain steering.
//!
//! For every candidate direction the PHAT-weighted cross-power spectra of all microphone
//! pairs are phase-aligned and summed — the textbook steered-response-power computation.
//! It is accurate but expensive: every (pair, direction, frequency) triple costs a
//! complex rotation, which is exactly the "hardware-unfriendly beamforming computation"
//! the Cross3D baseline replaces with a CNN (Sec. IV-B of the paper) and that the
//! low-complexity variant in [`crate::srp_fast`] accelerates.

use crate::error::SslError;
use crate::steering::SteeringGrid;
use ispot_dsp::complex::Complex;
use ispot_dsp::fft::Fft;
use ispot_dsp::microphone::MicrophoneArray;
use std::f64::consts::PI;

/// Configuration shared by the conventional and low-complexity SRP-PHAT front-ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrpConfig {
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Number of azimuth grid directions.
    pub num_directions: usize,
    /// Lowest frequency (Hz) included in the steering sum.
    pub freq_min_hz: f64,
    /// Highest frequency (Hz) included in the steering sum.
    pub freq_max_hz: f64,
    /// Speed of sound in m/s.
    pub speed_of_sound: f64,
}

impl Default for SrpConfig {
    fn default() -> Self {
        SrpConfig {
            frame_len: 2048,
            num_directions: 181,
            freq_min_hz: 200.0,
            freq_max_hz: 7000.0,
            speed_of_sound: 343.0,
        }
    }
}

impl SrpConfig {
    fn validate(&self, sample_rate: f64) -> Result<(), SslError> {
        if self.frame_len == 0 {
            return Err(SslError::invalid_config("frame_len", "must be positive"));
        }
        if self.num_directions == 0 {
            return Err(SslError::invalid_config(
                "num_directions",
                "must be positive",
            ));
        }
        if !(self.freq_min_hz >= 0.0 && self.freq_min_hz < self.freq_max_hz) {
            return Err(SslError::invalid_config(
                "freq_min_hz/freq_max_hz",
                "must satisfy 0 <= min < max",
            ));
        }
        if self.freq_max_hz > sample_rate / 2.0 {
            return Err(SslError::invalid_config(
                "freq_max_hz",
                format!("must not exceed Nyquist ({})", sample_rate / 2.0),
            ));
        }
        if self.speed_of_sound <= 0.0 {
            return Err(SslError::invalid_config(
                "speed_of_sound",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// A steered-response-power map over the azimuth grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SrpMap {
    azimuths_deg: Vec<f64>,
    power: Vec<f64>,
}

impl SrpMap {
    /// Creates a map from matching azimuth and power vectors.
    pub fn new(azimuths_deg: Vec<f64>, power: Vec<f64>) -> Self {
        assert_eq!(azimuths_deg.len(), power.len(), "length mismatch");
        SrpMap {
            azimuths_deg,
            power,
        }
    }

    /// Retargets this map at `azimuths` (copying them only when they changed) and
    /// returns the power vector, resized to match, for in-place writing. In steady
    /// state — same grid, same length — this performs no heap allocation.
    pub(crate) fn prepare(&mut self, azimuths: &[f64]) -> &mut [f64] {
        if self.azimuths_deg.as_slice() != azimuths {
            self.azimuths_deg.clear();
            self.azimuths_deg.extend_from_slice(azimuths);
        }
        if self.power.len() != azimuths.len() {
            self.power.resize(azimuths.len(), 0.0);
        }
        &mut self.power
    }

    /// The azimuth grid in degrees.
    pub fn azimuths_deg(&self) -> &[f64] {
        &self.azimuths_deg
    }

    /// The steered response power per direction.
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Number of grid directions.
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// Returns true if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
    }

    /// Index and azimuth (degrees) of the map maximum, or `None` for an empty map.
    pub fn peak(&self) -> Option<(usize, f64)> {
        self.power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| (i, self.azimuths_deg[i]))
    }

    /// Extracts up to `max_peaks` local maxima of the map by non-maximum
    /// suppression on the **wrapped** azimuth grid, writing them into `out` in
    /// decreasing power order (ties broken like [`SrpMap::peak`]: the higher
    /// grid index wins, so `out[0]` always coincides with the global peak).
    ///
    /// A direction qualifies as a peak when its power is finite, no smaller than
    /// both wrapped grid neighbours, and at least `min_separation_deg` (angular,
    /// wrap-aware) away from every stronger peak already selected — the
    /// suppression step that keeps the shoulders of a strong main lobe from
    /// masquerading as secondary sources.
    ///
    /// `out` is caller-provided scratch: it is cleared and refilled, so a vector
    /// reserved for `max_peaks` entries makes the call allocation-free — this is
    /// the multi-target localization hot path.
    pub fn peaks_into(&self, max_peaks: usize, min_separation_deg: f64, out: &mut Vec<Peak>) {
        out.clear();
        let n = self.power.len();
        if n == 0 || max_peaks == 0 {
            return;
        }
        // Salience scale: the map extrema, so callers can threshold secondary
        // peaks relative to the frame's own dynamic range.
        let mut pmin = f64::INFINITY;
        let mut pmax = f64::NEG_INFINITY;
        for &p in &self.power {
            if p.is_finite() {
                pmin = pmin.min(p);
                pmax = pmax.max(p);
            }
        }
        let range = (pmax - pmin).max(1e-12);
        while out.len() < max_peaks {
            let mut best: Option<usize> = None;
            'candidates: for i in 0..n {
                let p = self.power[i];
                if !p.is_finite() {
                    continue;
                }
                // Local maximum on the wrapped grid (a 1-point map is its own
                // peak; plateaus qualify everywhere and collapse under NMS).
                let prev = self.power[(i + n - 1) % n];
                let next = self.power[(i + 1) % n];
                if n > 1 && (p < prev || p < next) {
                    continue;
                }
                // Already selected, or suppressed by a stronger selected peak?
                // (The index check matters at `min_separation_deg == 0`, where
                // the distance test alone would re-admit the same maximum.)
                for chosen in out.iter() {
                    if chosen.index == i
                        || crate::metrics::angular_error_deg(
                            self.azimuths_deg[i],
                            chosen.azimuth_deg,
                        ) < min_separation_deg
                    {
                        continue 'candidates;
                    }
                }
                // Keep the tie-break of `peak()`: later index wins on equal power.
                best = match best {
                    Some(b) if self.power[b].total_cmp(&p).is_gt() => Some(b),
                    _ => Some(i),
                };
            }
            let Some(i) = best else { break };
            out.push(Peak {
                index: i,
                azimuth_deg: self.azimuths_deg[i],
                power: self.power[i],
                salience: (self.power[i] - pmin) / range,
            });
        }
    }

    /// Allocating convenience wrapper around [`SrpMap::peaks_into`].
    pub fn peaks(&self, max_peaks: usize, min_separation_deg: f64) -> Vec<Peak> {
        let mut out = Vec::with_capacity(max_peaks);
        self.peaks_into(max_peaks, min_separation_deg, &mut out);
        out
    }

    /// Zeroes every power (grid kept): restarts a [`SrpMap::smooth_from`] EMA
    /// without reallocating.
    pub fn zero(&mut self) {
        self.power.fill(0.0);
    }

    /// Exponentially smooths this map towards `new`: every power becomes
    /// `retain · old + (1 − retain) · new`. If this map is empty or on a
    /// different grid it becomes a copy of `new` (the EMA restarts). In steady
    /// state — same grid, same length — this performs no heap allocation.
    ///
    /// Per-frame SRP maps of tonal sources carry heavy clutter (inter-source
    /// cross-terms, spatial aliasing lobes) that fluctuates in position from
    /// frame to frame while genuine sources persist; a short EMA before peak
    /// extraction suppresses exactly that clutter. This is the map the
    /// multi-target tracking front-end peaks from.
    pub fn smooth_from(&mut self, new: &SrpMap, retain: f64) {
        if self.azimuths_deg.as_slice() != new.azimuths_deg.as_slice() {
            self.azimuths_deg.clear();
            self.azimuths_deg.extend_from_slice(&new.azimuths_deg);
            self.power.clear();
            self.power.extend_from_slice(&new.power);
            return;
        }
        let alpha = retain.clamp(0.0, 1.0);
        for (old, &p) in self.power.iter_mut().zip(&new.power) {
            *old = alpha * *old + (1.0 - alpha) * p;
        }
    }

    /// Power vector normalized to `[0, 1]` (useful as a CNN input feature).
    pub fn normalized(&self) -> Vec<f64> {
        let max = self.power.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.power.iter().cloned().fold(f64::MAX, f64::min);
        let range = (max - min).max(1e-12);
        self.power.iter().map(|p| (p - min) / range).collect()
    }

    /// Pearson correlation with another map of the same length (used to verify that the
    /// fast SRP is equivalent to the conventional one).
    pub fn correlation(&self, other: &SrpMap) -> f64 {
        assert_eq!(self.len(), other.len(), "maps must have the same length");
        let n = self.len() as f64;
        let ma = self.power.iter().sum::<f64>() / n;
        let mb = other.power.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for (a, b) in self.power.iter().zip(&other.power) {
            num += (a - ma) * (b - mb);
            da += (a - ma) * (a - ma);
            db += (b - mb) * (b - mb);
        }
        num / (da.sqrt() * db.sqrt()).max(1e-12)
    }
}

/// One local maximum of an [`SrpMap`], as extracted by [`SrpMap::peaks_into`].
///
/// Multi-source frames produce one peak per resolvable source (plus occasional
/// side-lobe clutter, which downstream tracking filters by `salience` and by
/// track lifecycle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Grid index of the peak direction.
    pub index: usize,
    /// Azimuth of the peak in degrees, wrapped to `[-180, 180)`.
    pub azimuth_deg: f64,
    /// Raw steered response power at the peak.
    pub power: f64,
    /// Peak power normalized to the map's own dynamic range, in `[0, 1]`
    /// (the global peak of a non-flat map always scores 1.0).
    pub salience: f64,
}

/// A direction-of-arrival estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct DoaEstimate {
    azimuth_deg: f64,
    power: f64,
    map: SrpMap,
}

impl DoaEstimate {
    /// Creates an estimate from a map by taking its peak. Returns `None` for an
    /// empty map, which has no peak.
    pub fn from_map(map: SrpMap) -> Option<Self> {
        let (idx, az) = map.peak()?;
        Some(DoaEstimate {
            azimuth_deg: az,
            power: map.power()[idx],
            map,
        })
    }

    /// Estimated azimuth in degrees.
    pub fn azimuth_deg(&self) -> f64 {
        self.azimuth_deg
    }

    /// Steered response power at the estimate.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// The full SRP map behind the estimate.
    pub fn map(&self) -> &SrpMap {
        &self.map
    }
}

/// Reusable scratch memory for the allocation-free SRP-PHAT entry points
/// ([`SrpPhat::compute_map_into`], [`crate::srp_fast::SrpPhatFast::compute_map_into`]).
///
/// The conventional path sizes its buffers lazily on first use; the low-complexity
/// hot path instead **requires** a scratch pre-sized by
/// `SrpPhatFast::make_scratch` and returns [`crate::SslError::ScratchSize`] on any
/// mismatch, so no resize can sneak onto the per-frame path. One scratch serves one
/// processor at a time.
#[derive(Debug, Clone, Default)]
pub struct SrpScratch {
    /// Full-frame complex workspace: forward-FFT output per channel (or channel
    /// pair), and the rebuilt full-band cross spectrum in the f64 lag-domain path.
    pub(crate) spec: Vec<Complex>,
    /// Band-limited per-channel spectra, channel-major (`num_channels × num_bins`).
    pub(crate) channel_bins: Vec<Complex>,
    /// PHAT-weighted cross-power spectra, pair-major (`num_pairs × num_bins`).
    pub(crate) cross: Vec<Complex>,
    /// Full-frame real workspace for the inverse transform (f64 lag-domain path).
    pub(crate) corr: Vec<f64>,
    /// Zero-padded Nyquist-rate lag tables, pair-major (f64 lag-domain path).
    pub(crate) lag_tables: Vec<f64>,
    /// Band-limited per-channel spectra, real parts, channel-major
    /// (`num_channels × num_bins`; f32 SIMD path).
    pub(crate) ch_re: Vec<f32>,
    /// Imaginary parts matching [`SrpScratch::ch_re`].
    pub(crate) ch_im: Vec<f32>,
    /// PHAT-normalized cross spectrum of the pair currently being synthesized,
    /// real parts (`num_bins`; f32 SIMD path).
    pub(crate) phat_re: Vec<f32>,
    /// Imaginary parts matching [`SrpScratch::phat_re`].
    pub(crate) phat_im: Vec<f32>,
    /// Zero-padded Nyquist-rate lag tables, pair-major (f32 SIMD path). The
    /// `half_taps` pad cells at each table edge are zeroed once at creation and
    /// never written by the kernels, so edge tap windows read exact zeros.
    pub(crate) lag_f32: Vec<f32>,
    /// Decimated coarse-grid map (hierarchical search).
    pub(crate) coarse: SrpMap,
    /// Coarse-peak scratch for the refinement stage (hierarchical search).
    pub(crate) peaks: Vec<Peak>,
    /// Per-direction "holds an exactly steered value" mask (hierarchical
    /// search): interpolation runs between anchored cells after refinement so
    /// the seeded fill stays continuous at refinement-window edges.
    pub(crate) anchored: Vec<bool>,
}

impl SrpScratch {
    /// Creates an empty scratch. The conventional path grows it on first use; the
    /// low-complexity hot path rejects it — use `SrpPhatFast::make_scratch` there.
    pub fn new() -> Self {
        SrpScratch::default()
    }
}

/// The conventional (frequency-domain steering) SRP-PHAT processor.
#[derive(Debug, Clone)]
pub struct SrpPhat {
    config: SrpConfig,
    grid: SteeringGrid,
    fft: Fft,
    sample_rate: f64,
    num_channels: usize,
    bin_range: (usize, usize),
}

impl SrpPhat {
    /// Creates a processor for the given array and sampling rate.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration or array is invalid, including an
    /// array whose largest steering delay reaches `frame_len / 2` lags: a frame's
    /// cross-correlation holds no lags beyond that.
    pub fn new(
        config: SrpConfig,
        array: &MicrophoneArray,
        sample_rate: f64,
    ) -> Result<Self, SslError> {
        config.validate(sample_rate)?;
        let grid = SteeringGrid::azimuth_only(
            array,
            config.num_directions,
            sample_rate,
            config.speed_of_sound,
        )?;
        let max_lag = config.frame_len / 2;
        if grid.max_tdoa_samples() >= max_lag as f64 {
            return Err(SslError::invalid_config(
                "array",
                format!(
                    "steering delays reach {:.0} samples; a {}-sample frame resolves under {max_lag}",
                    grid.max_tdoa_samples(),
                    config.frame_len
                ),
            ));
        }
        let fft = Fft::new(config.frame_len);
        let bin_hz = sample_rate / config.frame_len as f64;
        let kmin = (config.freq_min_hz / bin_hz).ceil().max(1.0) as usize;
        let kmax = ((config.freq_max_hz / bin_hz).floor() as usize).min(config.frame_len / 2);
        Ok(SrpPhat {
            config,
            grid,
            fft,
            sample_rate,
            num_channels: array.len(),
            bin_range: (kmin, kmax),
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> SrpConfig {
        self.config
    }

    /// Returns the steering grid.
    pub fn grid(&self) -> &SteeringGrid {
        &self.grid
    }

    /// Number of stored/steered coefficients per microphone pair (complex cross-power
    /// bins counted as two real coefficients). This is the quantity the low-complexity
    /// variant reduces by ≈50 % (Sec. IV-B of the paper).
    pub fn coefficients_per_pair(&self) -> usize {
        2 * self.num_bins()
    }

    /// The inclusive FFT bin range `(kmin, kmax)` covered by the steering sum.
    pub fn bin_range(&self) -> (usize, usize) {
        self.bin_range
    }

    /// Number of FFT bins in the steering band.
    pub fn num_bins(&self) -> usize {
        self.bin_range.1 - self.bin_range.0 + 1
    }

    /// The shared FFT plan (one per processor; the lag-domain variant reuses it).
    pub(crate) fn fft(&self) -> &Fft {
        &self.fft
    }

    pub(crate) fn validate_frame(&self, frame: &[&[f64]]) -> Result<(), SslError> {
        if frame.len() != self.num_channels {
            return Err(SslError::ChannelMismatch {
                expected: self.num_channels,
                actual: frame.len(),
            });
        }
        for ch in frame {
            if ch.len() != self.config.frame_len {
                return Err(SslError::invalid_config(
                    "frame",
                    format!(
                        "every channel must have {} samples, got {}",
                        self.config.frame_len,
                        ch.len()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Creates a scratch pre-sized for this processor, so even the first
    /// [`SrpPhat::compute_map_into`] call allocates nothing.
    pub fn make_scratch(&self) -> SrpScratch {
        SrpScratch {
            spec: vec![Complex::ZERO; self.config.frame_len],
            channel_bins: vec![Complex::ZERO; self.num_channels * self.num_bins()],
            cross: vec![Complex::ZERO; self.grid.num_pairs() * self.num_bins()],
            ..SrpScratch::default()
        }
    }

    /// Computes the PHAT-weighted cross-power spectra of all pairs for one frame
    /// into `scratch.cross` (flat pair-major storage, `num_pairs × num_bins`).
    ///
    /// Steady state performs no heap allocation: every buffer lives in `scratch`
    /// and is reused across frames.
    ///
    /// # Errors
    ///
    /// Returns an error if the channel count or frame length does not match.
    pub fn cross_spectra_into(
        &self,
        frame: &[&[f64]],
        scratch: &mut SrpScratch,
    ) -> Result<(), SslError> {
        self.validate_frame(frame)?;
        let nb = self.num_bins();
        let (kmin, kmax) = self.bin_range;
        scratch.spec.resize(self.config.frame_len, Complex::ZERO);
        scratch.channel_bins.resize(frame.len() * nb, Complex::ZERO);
        for (ch_idx, ch) in frame.iter().enumerate() {
            self.fft.forward_real_into(ch, &mut scratch.spec)?;
            scratch.channel_bins[ch_idx * nb..(ch_idx + 1) * nb]
                .copy_from_slice(&scratch.spec[kmin..=kmax]);
        }
        scratch
            .cross
            .resize(self.grid.num_pairs() * nb, Complex::ZERO);
        for (pair_idx, &(i, j)) in self.grid.pairs().iter().enumerate() {
            let (si, sj) = (
                &scratch.channel_bins[i * nb..(i + 1) * nb],
                &scratch.channel_bins[j * nb..(j + 1) * nb],
            );
            for (slot, (a, b)) in scratch.cross[pair_idx * nb..(pair_idx + 1) * nb]
                .iter_mut()
                .zip(si.iter().zip(sj))
            {
                let c = *a * b.conj();
                let mag = c.norm();
                *slot = if mag > 1e-12 { c / mag } else { Complex::ZERO };
            }
        }
        Ok(())
    }

    /// Computes the SRP map for one multichannel frame by frequency-domain steering,
    /// writing the result into `out` without allocating in steady state.
    ///
    /// # Errors
    ///
    /// Same as [`SrpPhat::cross_spectra_into`].
    pub fn compute_map_into(
        &self,
        frame: &[&[f64]],
        scratch: &mut SrpScratch,
        out: &mut SrpMap,
    ) -> Result<(), SslError> {
        self.cross_spectra_into(frame, scratch)?;
        let n = self.config.frame_len as f64;
        let (kmin, _) = self.bin_range;
        let nb = self.num_bins();
        let num_pairs = self.grid.num_pairs();
        let power = out.prepare(self.grid.azimuths_deg());
        for (d, p) in power.iter_mut().enumerate() {
            let mut acc = 0.0;
            for pair_idx in 0..num_pairs {
                let w = &scratch.cross[pair_idx * nb..(pair_idx + 1) * nb];
                let tdoa = self.grid.tdoa(d, pair_idx);
                // The GCC peaks at lag -tdoa, so steer with exp(-j 2 pi k tdoa / N).
                for (idx, c) in w.iter().enumerate() {
                    let k = (kmin + idx) as f64;
                    let phase = -2.0 * PI * k * tdoa / n;
                    acc += c.re * phase.cos() - c.im * phase.sin();
                }
            }
            *p = acc;
        }
        Ok(())
    }

    /// Computes the SRP map for one multichannel frame by frequency-domain steering.
    ///
    /// Allocating convenience wrapper around [`SrpPhat::compute_map_into`]; the hot
    /// path should hold a [`SrpScratch`] and an output map and call the `_into`
    /// variant instead.
    ///
    /// # Errors
    ///
    /// Same as [`SrpPhat::cross_spectra_into`].
    pub fn compute_map(&self, frame: &[&[f64]]) -> Result<SrpMap, SslError> {
        let mut scratch = self.make_scratch();
        let mut out = SrpMap::default();
        self.compute_map_into(frame, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Localizes the dominant source in one frame.
    ///
    /// # Errors
    ///
    /// Same as [`SrpPhat::compute_map`].
    pub fn localize(&self, frame: &[&[f64]]) -> Result<DoaEstimate, SslError> {
        DoaEstimate::from_map(self.compute_map(frame)?)
            .ok_or_else(|| SslError::invalid_config("map", "empty SRP map has no peak"))
    }

    /// Sampling rate the processor was built for.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use ispot_roadsim::engine::Simulator;
    use ispot_roadsim::geometry::Position;
    use ispot_roadsim::microphone::MicrophoneArray;
    use ispot_roadsim::scene::SceneBuilder;
    use ispot_roadsim::source::SoundSource;
    use ispot_roadsim::trajectory::Trajectory;

    /// Simulates a static broadband source at `azimuth_deg` and `distance` metres from
    /// a circular array, returning the multichannel audio and the array.
    pub fn simulate_static_source(
        azimuth_deg: f64,
        distance: f64,
        fs: f64,
        num_samples: usize,
        num_mics: usize,
    ) -> (Vec<Vec<f64>>, MicrophoneArray) {
        let az = azimuth_deg.to_radians();
        let source_pos = Position::new(distance * az.cos(), distance * az.sin(), 1.0);
        let signal: Vec<f64> =
            ispot_dsp::generator::NoiseSource::new(ispot_dsp::generator::NoiseKind::White, 42)
                .take(num_samples)
                .collect();
        let array = MicrophoneArray::circular(num_mics, 0.2, Position::new(0.0, 0.0, 1.0));
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(signal, Trajectory::fixed(source_pos)))
            .array(array.clone())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        (audio.into_channels(), array)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::simulate_static_source;
    use super::*;
    use crate::metrics::angular_error_deg;

    #[test]
    fn localizes_static_sources_at_various_azimuths() {
        let fs = 16_000.0;
        for &truth in &[0.0, 45.0, 120.0, -90.0] {
            let (channels, array) = simulate_static_source(truth, 20.0, fs, 8192, 6);
            let srp = SrpPhat::new(SrpConfig::default(), &array, fs).unwrap();
            let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
            let est = srp.localize(&frame).unwrap();
            let err = angular_error_deg(est.azimuth_deg(), truth);
            assert!(
                err < 8.0,
                "azimuth {truth}: estimated {} (err {err})",
                est.azimuth_deg()
            );
        }
    }

    #[test]
    fn map_peak_is_sharp_for_broadband_source() {
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(30.0, 15.0, fs, 8192, 6);
        let srp = SrpPhat::new(SrpConfig::default(), &array, fs).unwrap();
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let map = srp.compute_map(&frame).unwrap();
        let normalized = map.normalized();
        let above_half = normalized.iter().filter(|&&v| v > 0.5).count();
        // The peak region should be a small fraction of the 181 directions.
        assert!(above_half < 40, "{above_half} directions above half power");
    }

    #[test]
    fn channel_and_frame_validation() {
        let fs = 16_000.0;
        let array = ispot_roadsim::microphone::MicrophoneArray::circular(
            4,
            0.2,
            ispot_roadsim::geometry::Position::new(0.0, 0.0, 1.0),
        );
        let srp = SrpPhat::new(SrpConfig::default(), &array, fs).unwrap();
        let short = vec![0.0; 100];
        let ok = vec![0.0; 2048];
        let two: Vec<&[f64]> = vec![&ok, &ok];
        assert!(matches!(
            srp.compute_map(&two),
            Err(SslError::ChannelMismatch { .. })
        ));
        let bad_len: Vec<&[f64]> = vec![&ok, &ok, &ok, &short];
        assert!(srp.compute_map(&bad_len).is_err());
    }

    #[test]
    fn invalid_configurations_rejected() {
        let array = ispot_roadsim::microphone::MicrophoneArray::circular(
            4,
            0.2,
            ispot_roadsim::geometry::Position::new(0.0, 0.0, 1.0),
        );
        let fs = 16_000.0;
        for bad in [
            SrpConfig {
                frame_len: 0,
                ..SrpConfig::default()
            },
            SrpConfig {
                num_directions: 0,
                ..SrpConfig::default()
            },
            SrpConfig {
                freq_max_hz: 9000.0,
                ..SrpConfig::default()
            },
            SrpConfig {
                freq_min_hz: 5000.0,
                freq_max_hz: 1000.0,
                ..SrpConfig::default()
            },
        ] {
            assert!(SrpPhat::new(bad, &array, fs).is_err());
        }
        // One coordinate off by a unit typo (1e4 m): its steering delays would
        // need lags far beyond a frame's cross-correlation.
        let mut positions = array.positions().to_vec();
        positions[2].x = 1e4;
        let typo = MicrophoneArray::custom(positions).unwrap();
        assert!(matches!(
            SrpPhat::new(SrpConfig::default(), &typo, fs),
            Err(SslError::InvalidConfig { name: "array", .. })
        ));
    }

    #[test]
    fn map_utilities_behave() {
        let map = SrpMap::new(vec![-90.0, 0.0, 90.0], vec![0.1, 0.9, 0.5]);
        assert_eq!(map.peak(), Some((1, 0.0)));
        let norm = map.normalized();
        assert_eq!(norm[1], 1.0);
        assert_eq!(norm[0], 0.0);
        let same = map.correlation(&map);
        assert!((same - 1.0).abs() < 1e-12);
        let est = DoaEstimate::from_map(map.clone()).unwrap();
        assert_eq!(est.azimuth_deg(), 0.0);
        assert_eq!(est.map().len(), 3);
    }

    #[test]
    fn peaks_applies_nms_on_the_wrapped_grid() {
        // Grid of 8 directions over [-180, 180); a strong lobe straddling the
        // wrap point (135 / -180 / -135 at 8.5 / 9 / 8) and a weak lobe at -45.
        let azimuths: Vec<f64> = (0..8).map(|d| -180.0 + 45.0 * d as f64).collect();
        //                         -180  -135  -90  -45   0    45   90   135
        let power = vec![9.0, 8.0, 1.0, 1.5, 1.0, 2.0, 6.0, 8.5];
        let map = SrpMap::new(azimuths, power);
        let peaks = map.peaks(4, 80.0);
        // The wrap-straddling lobe yields exactly one peak: its 135- and
        // -135-degree shoulders are not local maxima across the wrap.
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].azimuth_deg, -180.0);
        assert_eq!(peaks[0].salience, 1.0);
        assert_eq!(peaks[1].azimuth_deg, -45.0);
        assert!(peaks[1].salience > 0.0 && peaks[1].salience < 0.1);
        // The first peak always matches the global peak().
        assert_eq!(peaks[0].index, map.peak().unwrap().0);
        // A separation wider than the lobe spacing suppresses the weak lobe.
        let peaks = map.peaks(4, 170.0);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].azimuth_deg, -180.0);
        // max_peaks truncates in power order.
        let peaks = map.peaks(1, 10.0);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].azimuth_deg, -180.0);
        // Zero separation disables NMS but must never duplicate a peak: each
        // local maximum appears exactly once.
        let two_lobes = SrpMap::new(vec![-180.0, -90.0, 0.0, 90.0], vec![5.0, 1.0, 4.0, 1.0]);
        let peaks = two_lobes.peaks(4, 0.0);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].index, 0);
        assert_eq!(peaks[1].index, 2);
    }

    #[test]
    fn peaks_into_reuses_scratch_and_handles_degenerate_maps() {
        let mut out = Vec::with_capacity(4);
        SrpMap::new(Vec::new(), Vec::new()).peaks_into(4, 10.0, &mut out);
        assert!(out.is_empty());
        let one = SrpMap::new(vec![30.0], vec![2.5]);
        one.peaks_into(4, 10.0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].azimuth_deg, 30.0);
        // Scratch is cleared between calls, and max_peaks == 0 yields nothing.
        one.peaks_into(0, 10.0, &mut out);
        assert!(out.is_empty());
        // Non-finite powers are skipped rather than propagated.
        let bad = SrpMap::new(vec![-90.0, 0.0, 90.0], vec![f64::NAN, 1.0, 2.0]);
        bad.peaks_into(4, 10.0, &mut out);
        assert!(out.iter().all(|p| p.power.is_finite()));
        assert_eq!(out[0].azimuth_deg, 90.0);
    }

    #[test]
    fn two_simulated_sources_yield_two_peaks() {
        use ispot_roadsim::engine::Simulator;
        use ispot_roadsim::geometry::Position;
        use ispot_roadsim::scene::SceneBuilder;
        use ispot_roadsim::source::SoundSource;
        use ispot_roadsim::trajectory::Trajectory;

        let fs = 16_000.0;
        let array = ispot_roadsim::microphone::MicrophoneArray::circular(
            6,
            0.2,
            Position::new(0.0, 0.0, 1.0),
        );
        let mut sources = Vec::new();
        for (az_deg, seed) in [(40.0_f64, 7u64), (-110.0, 13)] {
            let az = az_deg.to_radians();
            let signal: Vec<f64> = ispot_dsp::generator::NoiseSource::new(
                ispot_dsp::generator::NoiseKind::White,
                seed,
            )
            .take(8192)
            .collect();
            sources.push(SoundSource::new(
                signal,
                Trajectory::fixed(Position::new(18.0 * az.cos(), 18.0 * az.sin(), 1.0)),
            ));
        }
        let scene = SceneBuilder::new(fs)
            .sources(sources)
            .array(array.clone())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        let srp = SrpPhat::new(SrpConfig::default(), &array, fs).unwrap();
        let frame: Vec<&[f64]> = audio.channels().iter().map(|c| &c[4096..6144]).collect();
        let map = srp.compute_map(&frame).unwrap();
        let peaks = map.peaks(4, 20.0);
        assert!(peaks.len() >= 2, "only {} peaks", peaks.len());
        let mut hits = 0;
        for truth in [40.0, -110.0] {
            if peaks
                .iter()
                .take(3)
                .any(|p| angular_error_deg(p.azimuth_deg, truth) < 8.0)
            {
                hits += 1;
            }
        }
        assert_eq!(hits, 2, "peaks {peaks:?} miss a source");
    }

    #[test]
    fn empty_map_has_no_peak_and_no_estimate() {
        // Regression: peak()/from_map() used to index out of bounds on empty maps.
        let empty = SrpMap::new(Vec::new(), Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.peak(), None);
        assert!(DoaEstimate::from_map(empty).is_none());
    }

    #[test]
    fn compute_map_into_matches_allocating_compute_map() {
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(25.0, 12.0, fs, 8192, 4);
        let srp = SrpPhat::new(SrpConfig::default(), &array, fs).unwrap();
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let expected = srp.compute_map(&frame).unwrap();
        let mut scratch = srp.make_scratch();
        let mut out = SrpMap::default();
        srp.compute_map_into(&frame, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, expected);
        // Reusing the same scratch and output map must reproduce the result.
        srp.compute_map_into(&frame, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, expected);
    }
}
