//! Multichannel audio buffers.
//!
//! The road simulator renders into a [`MultichannelAudio`] and the perception
//! pipeline consumes one, so the type lives here, below both.

/// Planar multichannel audio: one sample vector per channel at one sampling rate.
#[derive(Debug, Clone, PartialEq)]
pub struct MultichannelAudio {
    channels: Vec<Vec<f64>>,
    sample_rate: f64,
}

impl MultichannelAudio {
    /// Creates a multichannel buffer from per-channel sample vectors.
    pub fn new(channels: Vec<Vec<f64>>, sample_rate: f64) -> Self {
        MultichannelAudio {
            channels,
            sample_rate,
        }
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of samples per channel (0 if there are no channels).
    pub fn len(&self) -> usize {
        self.channels.first().map_or(0, Vec::len)
    }

    /// Returns true if the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sampling rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Returns channel `index` as a sample slice.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn channel(&self, index: usize) -> &[f64] {
        &self.channels[index]
    }

    /// Returns all channels.
    pub fn channels(&self) -> &[Vec<f64>] {
        &self.channels
    }

    /// Consumes the buffer, returning the per-channel vectors.
    pub fn into_channels(self) -> Vec<Vec<f64>> {
        self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_follows_the_channel_vectors() {
        let audio = MultichannelAudio::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], 8000.0);
        assert_eq!(audio.num_channels(), 2);
        assert_eq!(audio.len(), 2);
    }
}
