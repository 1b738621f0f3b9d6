//! Driver-friendly audio ingestion: sample formats and channel layouts.
//!
//! Capture front-ends deliver audio as interleaved `i16` or `f32` blocks far more
//! often than as the planar `f64` slices the analysis runs on. [`AudioInput`]
//! describes one incoming chunk in any of those shapes; the pipeline
//! de-interleaves and converts it **directly into the frame assembler's window**
//! (via the generic `ispot_dsp::framing` entry points), so no intermediate
//! conversion or de-interleave buffer is ever built — ingestion stays
//! allocation-free in steady state regardless of the wire format.
//!
//! See [`ispot_dsp::sample::Sample`] for the exact conversion rules.

use ispot_dsp::sample::Sample;

/// One multichannel audio chunk in any supported sample format and layout.
///
/// Construct with [`AudioInput::planar`] (one slice per channel) or
/// [`AudioInput::interleaved`] (`data[sample * channels + channel]`, the layout
/// capture drivers deliver). Chunks may have any length, including zero;
/// interleaved chunks must contain a whole number of channel frames.
///
/// # Example
///
/// ```
/// use ispot_core::input::AudioInput;
///
/// let pcm: Vec<i16> = vec![0; 640]; // a 10 ms stereo capture block at 16 kHz
/// let input = AudioInput::interleaved(&pcm, 2);
/// assert_eq!(input.num_channels(), 2);
/// assert_eq!(input.samples_per_channel(), Some(320));
/// ```
#[derive(Debug, Clone, Copy)]
pub enum AudioInput<'a> {
    /// Planar 16-bit PCM: one slice per channel.
    PlanarI16(&'a [&'a [i16]]),
    /// Planar 32-bit float: one slice per channel.
    PlanarF32(&'a [&'a [f32]]),
    /// Planar 64-bit float: one slice per channel (the pipeline's native format).
    PlanarF64(&'a [&'a [f64]]),
    /// Interleaved 16-bit PCM.
    InterleavedI16 {
        /// Channel-interleaved samples (`data[sample * channels + channel]`).
        data: &'a [i16],
        /// Number of interleaved channels.
        channels: usize,
    },
    /// Interleaved 32-bit float.
    InterleavedF32 {
        /// Channel-interleaved samples (`data[sample * channels + channel]`).
        data: &'a [f32],
        /// Number of interleaved channels.
        channels: usize,
    },
    /// Interleaved 64-bit float.
    InterleavedF64 {
        /// Channel-interleaved samples (`data[sample * channels + channel]`).
        data: &'a [f64],
        /// Number of interleaved channels.
        channels: usize,
    },
}

/// Dispatches a planar slice of any [`Sample`] type into the matching
/// [`AudioInput`] variant.
pub trait PlanarSample: Sample {
    /// Wraps `chunk` in the planar variant for this sample type.
    fn planar<'a>(chunk: &'a [&'a [Self]]) -> AudioInput<'a>;
    /// Wraps `data` in the interleaved variant for this sample type.
    fn interleaved(data: &[Self], channels: usize) -> AudioInput<'_>;
}

impl PlanarSample for i16 {
    fn planar<'a>(chunk: &'a [&'a [i16]]) -> AudioInput<'a> {
        AudioInput::PlanarI16(chunk)
    }
    fn interleaved(data: &[i16], channels: usize) -> AudioInput<'_> {
        AudioInput::InterleavedI16 { data, channels }
    }
}

impl PlanarSample for f32 {
    fn planar<'a>(chunk: &'a [&'a [f32]]) -> AudioInput<'a> {
        AudioInput::PlanarF32(chunk)
    }
    fn interleaved(data: &[f32], channels: usize) -> AudioInput<'_> {
        AudioInput::InterleavedF32 { data, channels }
    }
}

impl PlanarSample for f64 {
    fn planar<'a>(chunk: &'a [&'a [f64]]) -> AudioInput<'a> {
        AudioInput::PlanarF64(chunk)
    }
    fn interleaved(data: &[f64], channels: usize) -> AudioInput<'_> {
        AudioInput::InterleavedF64 { data, channels }
    }
}

impl<'a> AudioInput<'a> {
    /// Wraps a planar chunk (`chunk[channel][sample]`) of any supported sample
    /// type.
    pub fn planar<S: PlanarSample>(chunk: &'a [&'a [S]]) -> Self {
        S::planar(chunk)
    }

    /// Wraps an interleaved chunk (`data[sample * channels + channel]`) of any
    /// supported sample type.
    pub fn interleaved<S: PlanarSample>(data: &'a [S], channels: usize) -> Self {
        S::interleaved(data, channels)
    }

    /// The number of channels this chunk carries (the slice count for planar
    /// layouts, the declared channel count for interleaved layouts).
    pub fn num_channels(&self) -> usize {
        match self {
            AudioInput::PlanarI16(c) => c.len(),
            AudioInput::PlanarF32(c) => c.len(),
            AudioInput::PlanarF64(c) => c.len(),
            AudioInput::InterleavedI16 { channels, .. }
            | AudioInput::InterleavedF32 { channels, .. }
            | AudioInput::InterleavedF64 { channels, .. } => *channels,
        }
    }

    /// Samples per channel, or `None` when the layout is inconsistent (planar
    /// channels of unequal length, or an interleaved chunk that is not a whole
    /// number of channel frames).
    pub fn samples_per_channel(&self) -> Option<usize> {
        fn planar_len<T>(chunk: &[&[T]]) -> Option<usize> {
            let len = chunk.first().map_or(0, |c| c.len());
            chunk.iter().all(|c| c.len() == len).then_some(len)
        }
        fn interleaved_len<T>(data: &[T], channels: usize) -> Option<usize> {
            (channels > 0 && data.len().is_multiple_of(channels)).then(|| data.len() / channels)
        }
        match self {
            AudioInput::PlanarI16(c) => planar_len(c),
            AudioInput::PlanarF32(c) => planar_len(c),
            AudioInput::PlanarF64(c) => planar_len(c),
            AudioInput::InterleavedI16 { data, channels } => interleaved_len(data, *channels),
            AudioInput::InterleavedF32 { data, channels } => interleaved_len(data, *channels),
            AudioInput::InterleavedF64 { data, channels } => interleaved_len(data, *channels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_and_length_accessors() {
        let a = [0i16, 1, 2, 3];
        let b = [4i16, 5, 6, 7];
        let channels = [&a[..], &b[..]];
        let planar = AudioInput::planar(&channels);
        assert_eq!(planar.num_channels(), 2);
        assert_eq!(planar.samples_per_channel(), Some(4));

        let inter = AudioInput::interleaved(&a[..], 2);
        assert_eq!(inter.num_channels(), 2);
        assert_eq!(inter.samples_per_channel(), Some(2));
    }

    #[test]
    fn inconsistent_layouts_report_none() {
        let a = [0.0f32; 4];
        let b = [0.0f32; 3];
        assert_eq!(
            AudioInput::planar(&[&a[..], &b[..]]).samples_per_channel(),
            None
        );
        let data = [0.0f64; 5];
        assert_eq!(
            AudioInput::interleaved(&data[..], 2).samples_per_channel(),
            None
        );
        assert_eq!(
            AudioInput::interleaved(&data[..], 0).samples_per_channel(),
            None
        );
        let empty: [&[f64]; 0] = [];
        assert_eq!(AudioInput::planar(&empty).samples_per_channel(), Some(0));
    }
}
