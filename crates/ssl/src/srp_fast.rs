//! Low-complexity SRP-PHAT by Nyquist-rate sampling of the cross-correlations.
//!
//! The key observation of Dietzen, De Sena & van Waterschoot (WASPAA 2021, cited as
//! \[41\] in the I-SPOT paper) is that the steered response power is a sum of
//! *bandlimited* cross-correlation functions evaluated at the candidate TDOAs, so each
//! GCC only needs to be known on an integer-lag grid covering the physically possible
//! TDOA range (a handful of samples for an automotive array) and can then be
//! interpolated to any steering delay. Compared with frequency-domain steering this
//! removes the per-(direction × frequency) complex rotations:
//!
//! * **conventional** cost per frame ≈ `pairs × directions × bins` complex rotations;
//! * **low-complexity** cost per frame ≈ one real FFT per *channel pair* plus a
//!   `pairs × (max_lag + 1) × bins` real GEMM for the lag synthesis plus
//!   `pairs × directions × K` real multiply-adds for the K-tap interpolation;
//! * stored coefficients drop from `2 × bins` per pair to `2·Lmax + 1` lag samples.
//!
//! The paper reports ≈10× latency improvement and ≈50 % coefficient reduction for this
//! mathematically equivalent reformulation; experiment E4 regenerates those numbers.
//!
//! # Hot-path architecture
//!
//! The per-frame pipeline is `f32` end-to-end past the FFT and runs through the
//! runtime-dispatched SIMD kernels in `srp_kernels` (AVX2+FMA copy when the host
//! supports it, portable autovectorized copy otherwise):
//!
//! 1. **Band spectra** — channels are transformed two at a time through
//!    [`ispot_dsp::fft::Fft::forward_real_pair_into`] (one complex FFT per channel
//!    pair) and only the `[kmin, kmax]` band is Hermitian-separated into
//!    structure-of-arrays `f32` buffers.
//! 2. **PHAT + folded lag synthesis** — instead of rebuilding a mostly-zero
//!    full-band spectrum and running a full-length inverse FFT per microphone
//!    pair, the band-limited correlation is synthesized directly on the
//!    `±max_lag` grid against precomputed `scale·cos / scale·sin` tables, with
//!    the `±lag` symmetry folded so only non-negative rows are reduced.
//! 3. **Steering** — the windowed-sinc interpolation weights depend only on the
//!    steering grid, so construction bakes them into a flat sparse operator:
//!    `K = 2 × half_taps = 8` weights (exactly one 8-lane SIMD register) plus a
//!    start offset into the pair's zero-padded lag table, stored
//!    direction-major so the inner `pairs × K` reduction is sequential loads.
//!
//! With a [`SrpSearchConfig`] decimation above 1, steering runs **coarse-to-fine**:
//! a decimated pass scores every `decimation`-th direction, then exact
//! full-resolution windows are steered around the top `coarse_peaks` coarse
//! maxima (`±refine_radius` cells) *and* around the lowest coarse samples (the
//! map floor feeds peak-salience normalization downstream). Every exactly
//! steered cell — coarse sample or refined window — is an *anchor*; the
//! remaining cells are filled last by wrap-aware linear interpolation between
//! neighbouring anchors, so the map is continuous at window edges (a step there
//! would read as a phantom peak to non-maximum suppression) and downstream
//! smoothing and multi-target tracking always see a full-resolution map.
//! Already-anchored cells are never re-steered, bounding the exact steering
//! work by the grid size regardless of how many windows overlap.
//!
//! ## Why there is no incremental FFT cache for 50 % hop overlap
//!
//! At hop `N/2`, an exact "reuse the previous half-frame's transform" scheme
//! still costs two `N/2` FFTs plus modulation and recombination per channel,
//! which butterfly-for-butterfly matches one `N` FFT (`2 · (N/2)·log(N/2) ≈
//! N·log N − N`) — a wash on cache hits and a regression on misses, and the
//! windowing applied per frame breaks exact reuse anyway. The redundant per-hop
//! work eliminated here instead is the full-band spectrum rebuild (58 % zeros
//! for the default band), the 15 full-length inverse FFTs (→ band-limited
//! folded synthesis), and the per-channel real FFTs (→ channel pairing).
//!
//! [`SrpPhatFast::compute_map_into`] performs no heap allocation in steady state
//! and no buffer growth at all: it requires a scratch pre-sized by
//! [`SrpPhatFast::make_scratch`] and returns [`SslError::ScratchSize`] otherwise.

use crate::error::SslError;
use crate::srp_kernels as kernels;
use crate::srp_phat::{DoaEstimate, SrpConfig, SrpMap, SrpPhat, SrpScratch};
use crate::steering::SteeringGrid;
use ispot_dsp::complex::Complex;
use ispot_dsp::microphone::MicrophoneArray;
use ispot_dsp::simd::fma_available;
use std::f64::consts::PI;

/// Number of sinc-interpolation taps on each side of the steering delay.
const INTERP_HALF_TAPS: usize = 4;

// The steering kernel loads one tap window as a single 8-lane register.
const _: () = assert!(2 * INTERP_HALF_TAPS == kernels::K_TAPS);

/// Exact-refinement windows the hierarchical search spends on the lowest coarse
/// samples (in addition to the coarse-peak windows), to recover the map floor
/// that peak-salience normalization depends on.
const MIN_REFINE_WINDOWS: usize = 5;

/// Azimuth-search strategy for [`SrpPhatFast`]: exhaustive full-grid steering, or
/// coarse-to-fine hierarchical search.
///
/// The default ([`SrpSearchConfig::exhaustive`]) scores every grid direction and
/// is the reference the hierarchical mode is validated against. With
/// `decimation > 1`, only every `decimation`-th direction is scored, the top
/// `coarse_peaks` coarse local maxima (plus the lowest coarse samples, which
/// pin the map floor that salience normalization depends on) are re-scored at
/// full resolution within `refine_radius` grid cells, and the remaining cells
/// are filled by wrap-aware linear interpolation between the exactly steered
/// cells — the output map keeps the full grid shape and stays continuous at
/// refinement-window edges either way.
///
/// # Example
///
/// ```
/// use ispot_ssl::srp_fast::SrpSearchConfig;
///
/// let exhaustive = SrpSearchConfig::default();
/// assert_eq!(exhaustive.decimation, 1);
/// let fast = SrpSearchConfig::hierarchical();
/// assert!(fast.decimation > 1 && fast.refine_radius >= fast.decimation);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrpSearchConfig {
    /// Coarse-grid decimation factor; `1` disables the hierarchy (exhaustive
    /// search).
    pub decimation: usize,
    /// Number of coarse peaks whose neighbourhoods are refined at full
    /// resolution.
    pub coarse_peaks: usize,
    /// Refinement radius in full-resolution grid cells around each surviving
    /// coarse peak; must be at least `decimation` so the true maximum between
    /// two coarse samples cannot escape the refined window.
    pub refine_radius: usize,
}

impl Default for SrpSearchConfig {
    fn default() -> Self {
        SrpSearchConfig {
            decimation: 1,
            coarse_peaks: 4,
            refine_radius: 8,
        }
    }
}

impl SrpSearchConfig {
    /// Exhaustive full-grid search (the default).
    pub fn exhaustive() -> Self {
        SrpSearchConfig::default()
    }

    /// The standard coarse-to-fine configuration: every 4th direction scored,
    /// top-8 coarse peaks refined within ±6 cells. A generous peak budget is
    /// deliberate — refinement windows are cheap (the per-frame synthesis GEMM
    /// dominates), and downstream trackers rank peaks by salience against the
    /// map's dynamic range, so every candidate a tracker might select must carry
    /// its exact score. On the 181-cell default grid this configuration
    /// reproduces the exhaustive tracker decisions on the multi-target
    /// acceptance scenes.
    pub fn hierarchical() -> Self {
        SrpSearchConfig {
            decimation: 4,
            coarse_peaks: 8,
            refine_radius: 6,
        }
    }

    /// Checks the search parameters against a grid of `num_directions` cells.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::InvalidConfig`] naming the offending field when the
    /// decimation is zero, leaves fewer than eight coarse directions, no coarse
    /// peaks would be refined, or the refinement radius is smaller than the
    /// decimation (the true maximum between two coarse samples could escape the
    /// refined window). `decimation == 1` (exhaustive) accepts the remaining
    /// fields unchecked because they are unused.
    pub fn validate(&self, num_directions: usize) -> Result<(), SslError> {
        if self.decimation == 0 {
            return Err(SslError::invalid_config(
                "search.decimation",
                "must be positive (1 = exhaustive)",
            ));
        }
        if self.decimation == 1 {
            return Ok(());
        }
        if num_directions / self.decimation < 8 {
            return Err(SslError::invalid_config(
                "search.decimation",
                format!(
                    "leaves fewer than 8 coarse directions ({} / {})",
                    num_directions, self.decimation
                ),
            ));
        }
        if self.coarse_peaks == 0 {
            return Err(SslError::invalid_config(
                "search.coarse_peaks",
                "must be positive when decimation > 1",
            ));
        }
        if self.refine_radius < self.decimation {
            return Err(SslError::invalid_config(
                "search.refine_radius",
                format!(
                    "must be at least the decimation factor ({} < {})",
                    self.refine_radius, self.decimation
                ),
            ));
        }
        Ok(())
    }
}

/// The low-complexity SRP-PHAT processor.
///
/// It reuses the configuration, steering grid, FFT plan and band selection of
/// [`SrpPhat`] but evaluates the map from Nyquist-sampled cross-correlations through
/// precomputed `f32` operators (see the module docs for the pipeline). A scalar
/// `f64` reference path is retained as
/// [`SrpPhatFast::compute_map_reference_into`] for numerics pinning.
#[derive(Debug, Clone)]
pub struct SrpPhatFast {
    inner: SrpPhat,
    /// Maximum integer lag retained per pair.
    max_lag: usize,
    /// Number of sinc-interpolation taps on each side.
    interp_half_taps: usize,
    /// Length of one zero-padded lag table (`2·max_lag + 1 + 2·half_taps`).
    padded_len: usize,
    /// Flat steering operator: `K` windowed-sinc weights per (direction, pair),
    /// direction-major (`(d * num_pairs + p) * K ..`). Weights for taps that fall
    /// outside the unpadded lag table are zero, matching the reference interpolator.
    tap_weights: Vec<f64>,
    /// The same operator in `f32` for the SIMD steering kernel.
    tap_weights_f32: Vec<f32>,
    /// Start offset of each (direction, pair) tap window into the padded lag table.
    tap_starts: Vec<u32>,
    /// Folded lag-synthesis tables `scale_k · cos/sin(2π k ℓ / N)`, row-major
    /// `(max_lag + 1) × num_bins`, computed in `f64` and stored as `f32`.
    syn_cos: Vec<f32>,
    syn_sin: Vec<f32>,
    /// Azimuth-search strategy.
    search: SrpSearchConfig,
    /// Grid indices of the decimated coarse pass (empty when exhaustive).
    coarse_dirs: Vec<u32>,
    /// Azimuths of the coarse grid (empty when exhaustive).
    coarse_azimuths: Vec<f64>,
    /// Cached [`fma_available`] so the per-frame path never re-probes cpuid.
    use_fma: bool,
}

impl SrpPhatFast {
    /// Creates a processor with exhaustive search. See
    /// [`SrpPhatFast::with_search`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SrpPhat::new`].
    pub fn new(
        config: SrpConfig,
        array: &MicrophoneArray,
        sample_rate: f64,
    ) -> Result<Self, SslError> {
        SrpPhatFast::with_search(config, SrpSearchConfig::default(), array, sample_rate)
    }

    /// Creates a processor for the given array, sampling rate and search
    /// strategy, precomputing the per-(direction, pair) interpolation taps and
    /// the lag-synthesis tables.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SrpPhat::new`], plus an invalid `search`
    /// configuration (zero decimation, a coarse grid below 8 directions, zero
    /// `coarse_peaks`, or `refine_radius < decimation`).
    pub fn with_search(
        config: SrpConfig,
        search: SrpSearchConfig,
        array: &MicrophoneArray,
        sample_rate: f64,
    ) -> Result<Self, SslError> {
        let inner = SrpPhat::new(config, array, sample_rate)?;
        search.validate(inner.grid().num_directions())?;
        let max_lag = inner.grid().max_tdoa_samples().ceil() as usize + 2;
        let interp_half_taps = INTERP_HALF_TAPS;
        let table_len = 2 * max_lag + 1;
        let padded_len = table_len + 2 * interp_half_taps;
        let grid = inner.grid();
        let (num_dirs, num_pairs) = (grid.num_directions(), grid.num_pairs());
        let k_taps = 2 * interp_half_taps;
        let mut tap_weights = vec![0.0; num_dirs * num_pairs * k_taps];
        let mut tap_starts = vec![0u32; num_dirs * num_pairs];
        for d in 0..num_dirs {
            for p in 0..num_pairs {
                let idx = d * num_pairs + p;
                let weights = &mut tap_weights[idx * k_taps..(idx + 1) * k_taps];
                let first = precompute_taps(
                    -grid.tdoa(d, p),
                    max_lag,
                    interp_half_taps,
                    table_len,
                    weights,
                );
                let start = first + interp_half_taps as isize;
                // The padding is sized so every window fits; max_lag covers the grid's
                // TDOA range with two samples of slack, keeping `first >= -half_taps`.
                debug_assert!(start >= 0 && start as usize + k_taps <= padded_len);
                tap_starts[idx] = start as u32;
            }
        }
        let tap_weights_f32: Vec<f32> = tap_weights.iter().map(|&w| w as f32).collect();
        // Lag synthesis: corr(ℓ) of the band-limited PHAT spectrum is
        //   Σ_k scale_k · (Re c_k · cos θ − Im c_k · sin θ),  θ = 2π k ℓ / N,
        // with scale 2/N for interior bins (the conjugate mirror contributes the
        // second copy) and 1/N at the Nyquist bin, whose sin column is 0 for
        // integer ℓ. Angles are evaluated in f64 and stored as f32.
        let n = config.frame_len;
        let (kmin, _) = inner.bin_range();
        let nb = inner.num_bins();
        let mut syn_cos = vec![0.0f32; (max_lag + 1) * nb];
        let mut syn_sin = vec![0.0f32; (max_lag + 1) * nb];
        for lag in 0..=max_lag {
            for idx in 0..nb {
                let k = kmin + idx;
                let theta = 2.0 * PI * (k * lag) as f64 / n as f64;
                let scale = if 2 * k == n { 1.0 } else { 2.0 } / n as f64;
                syn_cos[lag * nb + idx] = (scale * theta.cos()) as f32;
                syn_sin[lag * nb + idx] = (scale * theta.sin()) as f32;
            }
        }
        let (coarse_dirs, coarse_azimuths) = if search.decimation > 1 {
            let dirs: Vec<u32> = (0..num_dirs)
                .step_by(search.decimation)
                .map(|d| d as u32)
                .collect();
            let az: Vec<f64> = dirs
                .iter()
                .map(|&d| grid.azimuths_deg()[d as usize])
                .collect();
            (dirs, az)
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(SrpPhatFast {
            inner,
            max_lag,
            interp_half_taps,
            padded_len,
            tap_weights,
            tap_weights_f32,
            tap_starts,
            syn_cos,
            syn_sin,
            search,
            coarse_dirs,
            coarse_azimuths,
            use_fma: fma_available(),
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> SrpConfig {
        self.inner.config()
    }

    /// Returns the azimuth-search strategy.
    pub fn search(&self) -> SrpSearchConfig {
        self.search
    }

    /// Returns the steering grid.
    pub fn grid(&self) -> &SteeringGrid {
        self.inner.grid()
    }

    /// The maximum integer lag (samples) retained per pair.
    pub fn max_lag(&self) -> usize {
        self.max_lag
    }

    /// Number of stored coefficients per microphone pair: the `2·Lmax + 1` Nyquist-rate
    /// correlation samples. Compare with [`SrpPhat::coefficients_per_pair`].
    pub fn coefficients_per_pair(&self) -> usize {
        2 * self.max_lag + 1
    }

    /// Fractional reduction in stored coefficients relative to the conventional
    /// implementation.
    pub fn coefficient_reduction(&self) -> f64 {
        1.0 - self.coefficients_per_pair() as f64 / self.inner.coefficients_per_pair() as f64
    }

    /// Creates a scratch pre-sized for this processor. [`SrpPhatFast::compute_map_into`]
    /// requires it: every buffer is length-checked, never grown, so no allocation or
    /// resize can reach the per-frame path.
    pub fn make_scratch(&self) -> SrpScratch {
        let grid = self.inner.grid();
        let (num_pairs, nb) = (grid.num_pairs(), self.inner.num_bins());
        let num_channels = grid.num_channels();
        let mut scratch = self.inner.make_scratch();
        scratch.corr = vec![0.0; self.config().frame_len];
        scratch.lag_tables = vec![0.0; num_pairs * self.padded_len];
        scratch.ch_re = vec![0.0; num_channels * nb];
        scratch.ch_im = vec![0.0; num_channels * nb];
        scratch.phat_re = vec![0.0; nb];
        scratch.phat_im = vec![0.0; nb];
        scratch.lag_f32 = vec![0.0; num_pairs * self.padded_len];
        if self.search.decimation > 1 {
            scratch.coarse.prepare(&self.coarse_azimuths);
            scratch.peaks = Vec::with_capacity(self.search.coarse_peaks);
            scratch.anchored = vec![false; grid.num_directions()];
        }
        scratch
    }

    fn ensure_len(buffer: &'static str, actual: usize, expected: usize) -> Result<(), SslError> {
        if actual != expected {
            return Err(SslError::ScratchSize {
                buffer,
                expected,
                actual,
            });
        }
        Ok(())
    }

    /// Computes the SRP map for one multichannel frame through the `f32` SIMD
    /// pipeline (and hierarchical search when configured), writing the result
    /// into `out` without allocating.
    ///
    /// # Errors
    ///
    /// [`SslError::ChannelMismatch`] / [`SslError::InvalidConfig`] for a frame
    /// that does not match the array or frame length, and
    /// [`SslError::ScratchSize`] for a scratch not created by
    /// [`SrpPhatFast::make_scratch`].
    pub fn compute_map_into(
        &self,
        frame: &[&[f64]],
        scratch: &mut SrpScratch,
        out: &mut SrpMap,
    ) -> Result<(), SslError> {
        self.inner.validate_frame(frame)?;
        let grid = self.inner.grid();
        let (num_pairs, nb) = (grid.num_pairs(), self.inner.num_bins());
        Self::ensure_len("spec", scratch.spec.len(), self.config().frame_len)?;
        Self::ensure_len("ch_re", scratch.ch_re.len(), frame.len() * nb)?;
        Self::ensure_len("ch_im", scratch.ch_im.len(), frame.len() * nb)?;
        Self::ensure_len("phat_re", scratch.phat_re.len(), nb)?;
        Self::ensure_len("phat_im", scratch.phat_im.len(), nb)?;
        Self::ensure_len(
            "lag_f32",
            scratch.lag_f32.len(),
            num_pairs * self.padded_len,
        )?;
        self.band_spectra_f32(frame, scratch)?;
        {
            let SrpScratch {
                ref ch_re,
                ref ch_im,
                ref mut phat_re,
                ref mut phat_im,
                ref mut lag_f32,
                ..
            } = *scratch;
            let spectra = kernels::PairSpectra {
                ch_re,
                ch_im,
                nb,
                pairs: grid.pairs(),
            };
            let synth = kernels::LagSynthOp {
                syn_cos: &self.syn_cos,
                syn_sin: &self.syn_sin,
                max_lag: self.max_lag,
                pad: self.interp_half_taps,
                padded_len: self.padded_len,
            };
            kernels::phat_lags(self.use_fma, &spectra, &synth, phat_re, phat_im, lag_f32);
        }
        let steer_op = kernels::SteerOp {
            tap_weights: &self.tap_weights_f32,
            tap_starts: &self.tap_starts,
            num_pairs,
            padded_len: self.padded_len,
        };
        if self.search.decimation <= 1 {
            let power = out.prepare(grid.azimuths_deg());
            kernels::steer(self.use_fma, &steer_op, &scratch.lag_f32, 0, 1, power);
        } else {
            self.steer_hierarchical(&steer_op, scratch, out);
        }
        Ok(())
    }

    /// Transforms the frame two channels at a time (one complex FFT per pair) and
    /// Hermitian-separates the steering band into the `f32` SoA scratch buffers.
    fn band_spectra_f32(&self, frame: &[&[f64]], scratch: &mut SrpScratch) -> Result<(), SslError> {
        let fft = self.inner.fft();
        let (kmin, kmax) = self.inner.bin_range();
        let nb = self.inner.num_bins();
        let mut ch = 0;
        while ch + 1 < frame.len() {
            fft.forward_real_pair_into(frame[ch], frame[ch + 1], &mut scratch.spec)?;
            for (idx, k) in (kmin..=kmax).enumerate() {
                let (a, b) = fft.split_pair_bin(&scratch.spec, k);
                scratch.ch_re[ch * nb + idx] = a.re as f32;
                scratch.ch_im[ch * nb + idx] = a.im as f32;
                scratch.ch_re[(ch + 1) * nb + idx] = b.re as f32;
                scratch.ch_im[(ch + 1) * nb + idx] = b.im as f32;
            }
            ch += 2;
        }
        if ch < frame.len() {
            fft.forward_real_into(frame[ch], &mut scratch.spec)?;
            for (idx, k) in (kmin..=kmax).enumerate() {
                let c = scratch.spec[k];
                scratch.ch_re[ch * nb + idx] = c.re as f32;
                scratch.ch_im[ch * nb + idx] = c.im as f32;
            }
        }
        Ok(())
    }

    /// Coarse-to-fine steering: decimated pass, coarse-peak NMS, full-resolution
    /// refinement around survivors, linear interpolation elsewhere.
    fn steer_hierarchical(
        &self,
        op: &kernels::SteerOp<'_>,
        scratch: &mut SrpScratch,
        out: &mut SrpMap,
    ) {
        let grid = self.inner.grid();
        let n = grid.num_directions();
        let nc = self.coarse_dirs.len();
        {
            let cpow = scratch.coarse.prepare(&self.coarse_azimuths);
            kernels::steer(
                self.use_fma,
                op,
                &scratch.lag_f32,
                0,
                self.search.decimation,
                cpow,
            );
        }
        scratch
            .coarse
            .peaks_into(self.search.coarse_peaks, 0.0, &mut scratch.peaks);
        let power = out.prepare(grid.azimuths_deg());
        let radius = self.search.refine_radius;
        if 2 * radius + 1 >= n {
            // The refinement window already covers the whole grid.
            kernels::steer(self.use_fma, op, &scratch.lag_f32, 0, 1, power);
            return;
        }
        // The map is assembled in three steps: (1) drop the coarse samples and
        // the exact refinement windows into place, marking every such cell as an
        // *anchor*; (2) linearly interpolate each unanchored run between its two
        // anchored neighbours (wrap-aware). Interpolating after refinement keeps
        // the map continuous at refinement-window edges — pasting exact windows
        // over a pre-built fill leaves step discontinuities there, and each
        // upward step is a phantom local maximum. That matters downstream, where
        // a bounded number of NMS peaks feed the tracker and a phantom bump can
        // crowd a real secondary source out of the peak budget. Interpolation
        // between anchors cannot create an interior local maximum, so no
        // spurious peak can appear in an unrefined region.
        scratch.anchored.resize(n, false);
        scratch.anchored.fill(false);
        let (anchored, lag_f32) = (&mut scratch.anchored, &scratch.lag_f32);
        let cpow = scratch.coarse.power();
        for (&dir, &cp) in self.coarse_dirs.iter().zip(cpow) {
            power[dir as usize] = cp;
            anchored[dir as usize] = true;
        }
        // Refine the surviving neighbourhoods with exact full-resolution scores.
        // Cells already anchored — coarse samples (their decimated steer IS the
        // exact score) and overlap with earlier windows — are skipped, so the
        // total exact steering work is bounded by the grid size no matter how
        // many windows are requested. The block scopes the closure's mutable
        // borrow of the anchor mask; the fill pass below reads it again.
        {
            let mut refine = |center: usize| {
                let count = 2 * radius + 1;
                let lo = (center + n - radius) % n;
                let mut off = 0;
                while off < count {
                    let idx = (lo + off) % n;
                    if anchored[idx] {
                        off += 1;
                        continue;
                    }
                    let mut len = 1;
                    while off + len < count && idx + len < n && !anchored[idx + len] {
                        len += 1;
                    }
                    kernels::steer(
                        self.use_fma,
                        op,
                        lag_f32,
                        idx,
                        1,
                        &mut power[idx..idx + len],
                    );
                    anchored[idx..idx + len].fill(true);
                    off += len;
                }
            };
            for pk in &scratch.peaks {
                refine(self.coarse_dirs[pk.index] as usize);
            }
            // Also refine around the lowest coarse samples: downstream consumers
            // normalize peak salience to the map's dynamic range, and the seeded
            // floor is systematically high — the deep sidelobe nulls of an SRP map
            // are only a few cells wide, so they fall between coarse samples and no
            // interpolation through the coarse grid can reconstruct them. That
            // deflates every secondary peak's salience relative to the exhaustive
            // map. Re-steering a few windows around the lowest (non-adjacent)
            // coarse samples recovers the floor almost exactly at the cost of a
            // small, fixed amount of extra exact work.
            let mut mins: [usize; MIN_REFINE_WINDOWS] = [usize::MAX; MIN_REFINE_WINDOWS];
            for slot in 0..MIN_REFINE_WINDOWS.min(nc) {
                let mut best: Option<usize> = None;
                'candidates: for ci in 0..nc {
                    for &chosen in &mins[..slot] {
                        let d = (ci + nc - chosen) % nc;
                        if d.min(nc - d) <= 1 {
                            continue 'candidates;
                        }
                    }
                    best = match best {
                        Some(b) if cpow[b].total_cmp(&cpow[ci]).is_le() => Some(b),
                        _ => Some(ci),
                    };
                }
                let Some(ci) = best else { break };
                mins[slot] = ci;
                refine(self.coarse_dirs[ci] as usize);
            }
        }
        // Fill: walk the circle anchor to anchor, interpolating each unanchored
        // run between the exact values at its two ends. Every coarse sample is
        // an anchor, so the walk always terminates and each gap is short.
        let start = self.coarse_dirs[0] as usize;
        let mut a = start;
        loop {
            let mut b = (a + 1) % n;
            let mut gap = 1usize;
            while !anchored[b] {
                b = (b + 1) % n;
                gap += 1;
            }
            let (p0, p1) = (power[a], power[b]);
            for s in 1..gap {
                power[(a + s) % n] = p0 + (p1 - p0) * s as f64 / gap as f64;
            }
            a = b;
            if a == start {
                break;
            }
        }
    }

    /// Computes the SRP map through the retained scalar `f64` path — full-band
    /// spectrum rebuild, inverse FFT per pair, `f64` tap reduction over the full
    /// grid. This is the numerics reference the `f32` SIMD pipeline is pinned
    /// against; the hot path is [`SrpPhatFast::compute_map_into`].
    ///
    /// # Errors
    ///
    /// Same as [`SrpPhatFast::compute_map_into`].
    pub fn compute_map_reference_into(
        &self,
        frame: &[&[f64]],
        scratch: &mut SrpScratch,
        out: &mut SrpMap,
    ) -> Result<(), SslError> {
        self.inner.cross_spectra_into(frame, scratch)?;
        self.fill_lag_tables(scratch)?;
        let grid = self.inner.grid();
        let num_pairs = grid.num_pairs();
        let k_taps = 2 * self.interp_half_taps;
        let power = out.prepare(grid.azimuths_deg());
        for (d, p) in power.iter_mut().enumerate() {
            let row = d * num_pairs;
            let mut acc = 0.0;
            for pair_idx in 0..num_pairs {
                let start = self.tap_starts[row + pair_idx] as usize;
                let weights = &self.tap_weights[(row + pair_idx) * k_taps..][..k_taps];
                let taps = &scratch.lag_tables[pair_idx * self.padded_len + start..][..k_taps];
                let mut dot = 0.0;
                for (w, t) in weights.iter().zip(taps) {
                    dot += w * t;
                }
                acc += dot;
            }
            *p = acc;
        }
        Ok(())
    }

    /// Per pair: rebuilds the full-band cross spectrum (zeros outside the band) in
    /// `scratch.spec`, inverse-FFTs once into `scratch.corr`, and gathers the lags
    /// within `±max_lag` into the pair's zero-padded lag table.
    fn fill_lag_tables(&self, scratch: &mut SrpScratch) -> Result<(), SslError> {
        let n = self.config().frame_len;
        let (kmin, _) = self.inner.bin_range();
        let nb = self.inner.num_bins();
        let num_pairs = self.inner.grid().num_pairs();
        Self::ensure_len("corr", scratch.corr.len(), n)?;
        Self::ensure_len(
            "lag_tables",
            scratch.lag_tables.len(),
            num_pairs * self.padded_len,
        )?;
        for pair_idx in 0..num_pairs {
            scratch.spec.fill(Complex::ZERO);
            for idx in 0..nb {
                let c = scratch.cross[pair_idx * nb + idx];
                let k = kmin + idx;
                if 2 * k == n {
                    // The Nyquist bin is its own mirror: force it real so the spectrum
                    // stays conjugate-symmetric and the inverse transform is real.
                    scratch.spec[k] = Complex::new(c.re, 0.0);
                } else {
                    // Maintain conjugate symmetry so the inverse transform is real.
                    scratch.spec[k] = c;
                    scratch.spec[n - k] = c.conj();
                }
            }
            self.inner
                .fft()
                .inverse_real_into(&mut scratch.spec, &mut scratch.corr)?;
            let pad = self.interp_half_taps;
            let table = &mut scratch.lag_tables[pair_idx * self.padded_len..][..self.padded_len];
            for (slot, lag) in (-(self.max_lag as isize)..=self.max_lag as isize).enumerate() {
                let idx = lag.rem_euclid(n as isize) as usize;
                table[pad + slot] = scratch.corr[idx];
            }
        }
        Ok(())
    }

    /// Computes the SRP map for one multichannel frame.
    ///
    /// Allocating convenience wrapper around [`SrpPhatFast::compute_map_into`]; the
    /// hot path should hold a [`SrpScratch`] and an output map and call the `_into`
    /// variant instead.
    ///
    /// # Errors
    ///
    /// Same as [`SrpPhat::compute_map`].
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
    /// Same as [`SrpPhatFast::compute_map`].
    pub fn localize(&self, frame: &[&[f64]]) -> Result<DoaEstimate, SslError> {
        DoaEstimate::from_map(self.compute_map(frame)?)
            .ok_or_else(|| SslError::invalid_config("map", "empty SRP map has no peak"))
    }
}

/// Computes the normalized windowed-sinc weights for interpolating a lag table
/// (centered at index `max_lag`, `table_len` entries) at fractional lag `lag`.
///
/// Fills `weights` (length `2 × half_taps`) with one weight per tap of the window
/// `(base - half_taps + 1)..=(base + half_taps)` where `base = floor(max_lag + lag)`;
/// taps outside the table get weight zero and are excluded from the normalization,
/// exactly like the reference interpolator. Returns the index of the first tap
/// (which may be negative at the table edges).
fn precompute_taps(
    lag: f64,
    max_lag: usize,
    half_taps: usize,
    table_len: usize,
    weights: &mut [f64],
) -> isize {
    let pos = max_lag as f64 + lag;
    let base = pos.floor() as isize;
    let taps = half_taps as isize;
    let first = base - taps + 1;
    let mut norm = 0.0;
    for (slot, k) in (first..=base + taps).enumerate() {
        weights[slot] = 0.0;
        if k < 0 || k >= table_len as isize {
            continue;
        }
        let t = pos - k as f64;
        let sinc = if t.abs() < 1e-12 {
            1.0
        } else {
            let pt = std::f64::consts::PI * t;
            pt.sin() / pt
        };
        let w = 0.5 + 0.5 * (std::f64::consts::PI * t / taps as f64).cos();
        let coeff = sinc * w.max(0.0);
        weights[slot] = coeff;
        norm += coeff;
    }
    if norm.abs() > 1e-9 {
        for w in weights.iter_mut() {
            *w /= norm;
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::angular_error_deg;
    use crate::srp_phat::test_support::simulate_static_source;

    /// Reference windowed-sinc interpolation of a lag table (centered at index
    /// `max_lag`) at a fractional lag — the pre-precompute hot-loop implementation,
    /// kept to pin the steering operator against.
    fn interpolate_reference(table: &[f64], max_lag: usize, half_taps: usize, lag: f64) -> f64 {
        let pos = max_lag as f64 + lag;
        let base = pos.floor() as isize;
        let taps = half_taps as isize;
        let mut acc = 0.0;
        let mut norm = 0.0;
        for k in (base - taps + 1)..=(base + taps) {
            if k < 0 || k >= table.len() as isize {
                continue;
            }
            let t = pos - k as f64;
            let sinc = if t.abs() < 1e-12 {
                1.0
            } else {
                let pt = std::f64::consts::PI * t;
                pt.sin() / pt
            };
            let w = 0.5 + 0.5 * (std::f64::consts::PI * t / taps as f64).cos();
            let coeff = sinc * w.max(0.0);
            acc += coeff * table[k as usize];
            norm += coeff;
        }
        if norm.abs() > 1e-9 {
            acc / norm
        } else {
            acc
        }
    }

    /// Computes the map the way the pre-precompute implementation did: fill the lag
    /// tables, then interpolate each (direction, pair) on the fly.
    fn compute_map_via_reference_interpolation(fast: &SrpPhatFast, frame: &[&[f64]]) -> SrpMap {
        let mut scratch = fast.make_scratch();
        fast.inner.cross_spectra_into(frame, &mut scratch).unwrap();
        fast.fill_lag_tables(&mut scratch).unwrap();
        let grid = fast.grid();
        let pad = fast.interp_half_taps;
        let table_len = 2 * fast.max_lag + 1;
        let mut power = vec![0.0; grid.num_directions()];
        for (d, p) in power.iter_mut().enumerate() {
            let mut acc = 0.0;
            for pair_idx in 0..grid.num_pairs() {
                let table = &scratch.lag_tables[pair_idx * fast.padded_len + pad..][..table_len];
                acc += interpolate_reference(
                    table,
                    fast.max_lag,
                    fast.interp_half_taps,
                    -grid.tdoa(d, pair_idx),
                );
            }
            *p = acc;
        }
        SrpMap::new(grid.azimuths_deg().to_vec(), power)
    }

    #[test]
    fn fast_map_matches_conventional_map() {
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(70.0, 18.0, fs, 8192, 6);
        let cfg = SrpConfig::default();
        let conventional = SrpPhat::new(cfg, &array, fs).unwrap();
        let fast = SrpPhatFast::new(cfg, &array, fs).unwrap();
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let map_a = conventional.compute_map(&frame).unwrap();
        // compute_map runs the f32 SIMD pipeline — this is the acceptance anchor.
        let map_b = fast.compute_map(&frame).unwrap();
        let corr = map_a.correlation(&map_b);
        assert!(corr >= 0.999, "map correlation {corr}");
        let (_, az_a) = map_a.peak().unwrap();
        let (_, az_b) = map_b.peak().unwrap();
        assert!(
            angular_error_deg(az_a, az_b) <= 4.0,
            "peaks differ: {az_a} vs {az_b}"
        );
    }

    #[test]
    fn simd_path_matches_f64_reference_path() {
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(-70.0, 16.0, fs, 8192, 6);
        let fast = SrpPhatFast::new(SrpConfig::default(), &array, fs).unwrap();
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let simd = fast.compute_map(&frame).unwrap();
        let mut scratch = fast.make_scratch();
        let mut reference = SrpMap::default();
        fast.compute_map_reference_into(&frame, &mut scratch, &mut reference)
            .unwrap();
        let corr = simd.correlation(&reference);
        assert!(corr > 0.9999, "simd/reference correlation {corr}");
        assert_eq!(simd.peak().unwrap().0, reference.peak().unwrap().0);
        let scale = reference
            .power()
            .iter()
            .fold(0.0f64, |m, p| m.max(p.abs()))
            .max(1e-12);
        for (a, b) in simd.power().iter().zip(reference.power()) {
            assert!(
                (a - b).abs() / scale < 1e-4,
                "power mismatch beyond f32 tolerance: {a} vs {b}"
            );
        }
    }

    #[test]
    fn odd_channel_counts_use_the_single_channel_tail() {
        // 5 channels = two paired FFTs + one solo; pin against the f64 path.
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(20.0, 14.0, fs, 8192, 5);
        let fast = SrpPhatFast::new(SrpConfig::default(), &array, fs).unwrap();
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let simd = fast.compute_map(&frame).unwrap();
        let mut scratch = fast.make_scratch();
        let mut reference = SrpMap::default();
        fast.compute_map_reference_into(&frame, &mut scratch, &mut reference)
            .unwrap();
        assert!(simd.correlation(&reference) > 0.9999);
        assert_eq!(simd.peak().unwrap().0, reference.peak().unwrap().0);
    }

    #[test]
    fn hierarchical_search_finds_the_same_peak() {
        let fs = 16_000.0;
        for &truth in &[-135.0, -20.0, 60.0, 170.0] {
            let (channels, array) = simulate_static_source(truth, 18.0, fs, 8192, 6);
            let cfg = SrpConfig::default();
            let exhaustive = SrpPhatFast::new(cfg, &array, fs).unwrap();
            let hier =
                SrpPhatFast::with_search(cfg, SrpSearchConfig::hierarchical(), &array, fs).unwrap();
            let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
            let full = exhaustive.compute_map(&frame).unwrap();
            let fast = hier.compute_map(&frame).unwrap();
            // Full-resolution shape, identical grid.
            assert_eq!(fast.len(), full.len());
            assert_eq!(fast.azimuths_deg(), full.azimuths_deg());
            // The global peak is refined, so it matches the exhaustive map exactly.
            let (di_full, az_full) = full.peak().unwrap();
            let (di_fast, az_fast) = fast.peak().unwrap();
            assert_eq!(di_full, di_fast, "azimuth {truth}: {az_full} vs {az_fast}");
            assert!((fast.power()[di_fast] - full.power()[di_full]).abs() < 1e-9);
            assert!(fast.power().iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn search_config_validation_rejects_degenerate_settings() {
        let fs = 16_000.0;
        let array = ispot_roadsim::microphone::MicrophoneArray::circular(
            4,
            0.2,
            ispot_roadsim::geometry::Position::new(0.0, 0.0, 1.0),
        );
        let cfg = SrpConfig::default();
        for bad in [
            SrpSearchConfig {
                decimation: 0,
                ..SrpSearchConfig::hierarchical()
            },
            SrpSearchConfig {
                decimation: 64,
                refine_radius: 64,
                ..SrpSearchConfig::hierarchical()
            },
            SrpSearchConfig {
                coarse_peaks: 0,
                ..SrpSearchConfig::hierarchical()
            },
            SrpSearchConfig {
                decimation: 4,
                refine_radius: 2,
                ..SrpSearchConfig::hierarchical()
            },
        ] {
            assert!(
                matches!(
                    SrpPhatFast::with_search(cfg, bad, &array, fs),
                    Err(SslError::InvalidConfig { .. })
                ),
                "accepted {bad:?}"
            );
        }
        // Exhaustive ignores the other knobs entirely.
        let weird_but_exhaustive = SrpSearchConfig {
            decimation: 1,
            coarse_peaks: 0,
            refine_radius: 0,
        };
        assert!(SrpPhatFast::with_search(cfg, weird_but_exhaustive, &array, fs).is_ok());
        assert_eq!(
            SrpPhatFast::new(cfg, &array, fs).unwrap().search(),
            SrpSearchConfig::exhaustive()
        );
    }

    #[test]
    fn precomputed_taps_match_reference_interpolation() {
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(-30.0, 15.0, fs, 8192, 6);
        let fast = SrpPhatFast::new(SrpConfig::default(), &array, fs).unwrap();
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        // The f64 reference path uses the same taps without f32 rounding, so the
        // elementwise pin stays at 1e-9.
        let mut scratch = fast.make_scratch();
        let mut tap_map = SrpMap::default();
        fast.compute_map_reference_into(&frame, &mut scratch, &mut tap_map)
            .unwrap();
        let ref_map = compute_map_via_reference_interpolation(&fast, &frame);
        let corr = tap_map.correlation(&ref_map);
        assert!(corr > 0.999, "tap/reference correlation {corr}");
        for (a, b) in tap_map.power().iter().zip(ref_map.power()) {
            assert!((a - b).abs() < 1e-9, "power mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn compute_map_into_reuses_scratch_and_matches() {
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(10.0, 20.0, fs, 8192, 4);
        let fast = SrpPhatFast::new(SrpConfig::default(), &array, fs).unwrap();
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let expected = fast.compute_map(&frame).unwrap();
        let mut scratch = fast.make_scratch();
        let mut out = SrpMap::default();
        for _ in 0..3 {
            fast.compute_map_into(&frame, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn undersized_scratch_is_a_typed_error_not_a_resize() {
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(10.0, 20.0, fs, 8192, 4);
        let fast = SrpPhatFast::new(SrpConfig::default(), &array, fs).unwrap();
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let mut out = SrpMap::default();
        // An empty scratch is rejected by the hot path...
        let mut empty = SrpScratch::new();
        assert!(matches!(
            fast.compute_map_into(&frame, &mut empty, &mut out),
            Err(SslError::ScratchSize { .. })
        ));
        // ...and by the f64 reference path's lag-table stage.
        let mut truncated = fast.make_scratch();
        truncated.corr.pop();
        let err = fast
            .compute_map_reference_into(&frame, &mut truncated, &mut out)
            .unwrap_err();
        assert!(
            matches!(err, SslError::ScratchSize { buffer: "corr", .. }),
            "unexpected error {err}"
        );
        // One buffer of the wrong length is named in the error.
        let mut bad = fast.make_scratch();
        bad.lag_f32.push(0.0);
        let err = fast
            .compute_map_into(&frame, &mut bad, &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            SslError::ScratchSize {
                buffer: "lag_f32",
                ..
            }
        ));
    }

    #[test]
    fn nyquist_band_edge_keeps_the_spectrum_real_symmetric() {
        // Regression: with freq_max_hz == fs/2 the k == n/2 bin used to be copied
        // complex-valued without the conjugate-symmetry guard applying, feeding
        // inverse_real a non-real-symmetric spectrum. The f32 synthesis tables
        // must apply the same 1/N Nyquist scale.
        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(50.0, 18.0, fs, 8192, 6);
        let cfg = SrpConfig {
            freq_max_hz: fs / 2.0,
            ..SrpConfig::default()
        };
        let conventional = SrpPhat::new(cfg, &array, fs).unwrap();
        let fast = SrpPhatFast::new(cfg, &array, fs).unwrap();
        let (_, kmax) = conventional.bin_range();
        assert_eq!(2 * kmax, cfg.frame_len, "config must hit the Nyquist bin");
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let map_a = conventional.compute_map(&frame).unwrap();
        let map_b = fast.compute_map(&frame).unwrap();
        assert!(map_b.power().iter().all(|p| p.is_finite()));
        let corr = map_a.correlation(&map_b);
        assert!(corr > 0.9, "map correlation {corr}");
        assert!(angular_error_deg(map_a.peak().unwrap().1, map_b.peak().unwrap().1) <= 4.0);
        // And the SIMD path still agrees with the f64 reference at the band edge.
        let mut scratch = fast.make_scratch();
        let mut reference = SrpMap::default();
        fast.compute_map_reference_into(&frame, &mut scratch, &mut reference)
            .unwrap();
        assert!(map_b.correlation(&reference) > 0.9999);
    }

    #[test]
    fn fast_localization_is_accurate() {
        let fs = 16_000.0;
        for &truth in &[-45.0, 10.0, 135.0] {
            let (channels, array) = simulate_static_source(truth, 20.0, fs, 8192, 6);
            let fast = SrpPhatFast::new(SrpConfig::default(), &array, fs).unwrap();
            let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
            let est = fast.localize(&frame).unwrap();
            let err = angular_error_deg(est.azimuth_deg(), truth);
            assert!(err < 8.0, "azimuth {truth}: error {err}");
        }
    }

    #[test]
    fn shared_processor_serves_concurrent_streams() {
        // The engine/session API in ispot-core shares one processor across many
        // streams behind an `Arc`; the processor must therefore be immutable in
        // its compute path (`&self`), `Send + Sync`, and safe to drive from
        // several threads each holding its own scratch.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SrpPhatFast>();
        assert_send_sync::<SrpPhat>();

        let fs = 16_000.0;
        let (channels, array) = simulate_static_source(40.0, 15.0, fs, 8192, 4);
        let fast = std::sync::Arc::new(SrpPhatFast::new(SrpConfig::default(), &array, fs).unwrap());
        let frame: Vec<&[f64]> = channels.iter().map(|c| &c[4096..6144]).collect();
        let expected = fast.compute_map(&frame).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let fast = std::sync::Arc::clone(&fast);
                let frame = frame.clone();
                scope.spawn(move || {
                    let mut scratch = fast.make_scratch();
                    let mut out = SrpMap::default();
                    for _ in 0..2 {
                        fast.compute_map_into(&frame, &mut scratch, &mut out)
                            .unwrap();
                    }
                    out
                });
            }
        });
        assert_eq!(fast.compute_map(&frame).unwrap(), expected);
    }

    #[test]
    fn coefficient_reduction_is_at_least_half() {
        let fs = 16_000.0;
        let array = ispot_roadsim::microphone::MicrophoneArray::circular(
            6,
            0.2,
            ispot_roadsim::geometry::Position::new(0.0, 0.0, 1.0),
        );
        let cfg = SrpConfig::default();
        let conventional = SrpPhat::new(cfg, &array, fs).unwrap();
        let fast = SrpPhatFast::new(cfg, &array, fs).unwrap();
        assert!(fast.coefficients_per_pair() < conventional.coefficients_per_pair());
        assert!(
            fast.coefficient_reduction() >= 0.5,
            "reduction {}",
            fast.coefficient_reduction()
        );
    }

    #[test]
    fn max_lag_covers_the_array_aperture() {
        let fs = 16_000.0;
        let array = ispot_roadsim::microphone::MicrophoneArray::circular(
            8,
            0.25,
            ispot_roadsim::geometry::Position::new(0.0, 0.0, 1.0),
        );
        let fast = SrpPhatFast::new(SrpConfig::default(), &array, fs).unwrap();
        let aperture_samples = 0.5 / 343.0 * fs;
        assert!(fast.max_lag() as f64 >= aperture_samples);
        assert!(fast.max_lag() as f64 <= aperture_samples + 4.0);
    }

    #[test]
    fn validation_is_shared_with_the_conventional_processor() {
        let array = ispot_roadsim::microphone::MicrophoneArray::circular(
            4,
            0.2,
            ispot_roadsim::geometry::Position::new(0.0, 0.0, 1.0),
        );
        let bad = SrpConfig {
            freq_max_hz: 20_000.0,
            ..SrpConfig::default()
        };
        assert!(SrpPhatFast::new(bad, &array, 16_000.0).is_err());
        let fast = SrpPhatFast::new(SrpConfig::default(), &array, 16_000.0).unwrap();
        let ch = vec![0.0; 2048];
        let frame: Vec<&[f64]> = vec![&ch, &ch];
        assert!(matches!(
            fast.compute_map(&frame),
            Err(SslError::ChannelMismatch { .. })
        ));
    }
}
