//! Multichannel chunk-to-frame assembly for streaming pipelines.
//!
//! Real capture front-ends deliver audio in whatever block size the driver uses —
//! rarely the analysis frame length. [`FrameAssembler`] sits between the two: it
//! accepts multichannel chunks of **arbitrary** size (one sample up to many frames)
//! and yields exactly-`frame_len` frames advanced by `hop`, byte-identical to slicing
//! the concatenated stream directly.
//!
//! Every channel lives in one linear window (a single channel-major `Vec<f64>`),
//! and [`emit_with`](FrameAssembler::emit_with) lends each frame straight out of
//! it as borrowed slices, so a frame is never copied on its way to the analysis.
//! Before a push that would run past the end of the window, the buffered samples
//! slide to the front; the window grows (once, to the next power of two) only when
//! a larger chunk than ever seen before arrives. Steady state performs **no heap
//! allocation**.
//!
//! # Example
//!
//! ```
//! use ispot_dsp::framing::FrameAssembler;
//!
//! # fn main() -> Result<(), ispot_dsp::DspError> {
//! let mut asm = FrameAssembler::new(1, 4, 2)?;
//! asm.push(&[&[1.0, 2.0, 3.0]])?;
//! assert!(!asm.frame_ready());
//! asm.push(&[&[4.0, 5.0]])?;
//! assert!(asm.frame_ready());
//! // Frame 0 is lent in place; the stream then advances by one hop.
//! let sum = asm.emit_with(|frame, index| {
//!     assert_eq!(index, 0);
//!     assert_eq!(frame[0], [1.0, 2.0, 3.0, 4.0]);
//!     frame[0].iter().sum::<f64>()
//! })?;
//! assert_eq!(sum, 10.0);
//! // `emit_into` copies the next frame out instead.
//! asm.push(&[&[6.0]])?;
//! let mut frame = vec![Vec::new()];
//! assert_eq!(asm.emit_into(&mut frame)?, 1);
//! assert_eq!(frame[0], [3.0, 4.0, 5.0, 6.0]);
//! # Ok(())
//! # }
//! ```

use crate::error::DspError;
use crate::sample::Sample;

/// Channel counts up to this bound lend their frames through a view table on the
/// stack; beyond it [`FrameAssembler::emit_with`] builds one small `Vec` per frame.
const MAX_STACK_CHANNELS: usize = 32;

/// Reassembles arbitrary-sized multichannel chunks into fixed frames.
///
/// The assembler guarantees *chunk-size invariance*: however the input stream is cut
/// into [`push`](FrameAssembler::push) calls, the emitted frames are identical to
/// framing the whole stream at once with the same `frame_len`/`hop`.
#[derive(Debug, Clone)]
pub struct FrameAssembler {
    /// The window, channel-major: channel `c` buffers
    /// `samples[c * capacity + start..c * capacity + end]`.
    samples: Vec<f64>,
    num_channels: usize,
    /// Window length per channel.
    capacity: usize,
    /// First buffered sample, the same offset in every channel.
    start: usize,
    /// One past the last buffered sample, the same offset in every channel.
    end: usize,
    frame_len: usize,
    hop: usize,
    /// Samples that still have to be discarded before the next frame starts
    /// (non-zero only while `hop > frame_len` and the gap has not fully arrived).
    pending_discard: usize,
    next_frame_index: usize,
}

impl FrameAssembler {
    /// Creates an assembler for `num_channels` channels yielding `frame_len`-sample
    /// frames every `hop` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidSize`] if any parameter is zero.
    pub fn new(num_channels: usize, frame_len: usize, hop: usize) -> Result<Self, DspError> {
        if num_channels == 0 {
            return Err(DspError::InvalidSize {
                name: "num_channels",
                value: 0,
                constraint: "must be positive",
            });
        }
        if frame_len == 0 {
            return Err(DspError::InvalidSize {
                name: "frame_len",
                value: 0,
                constraint: "must be positive",
            });
        }
        if hop == 0 {
            return Err(DspError::InvalidSize {
                name: "hop",
                value: 0,
                constraint: "must be positive",
            });
        }
        // Enough for one frame plus one hop of look-ahead; grows on demand if the
        // producer delivers larger chunks.
        let capacity = frame_len + hop;
        Ok(FrameAssembler {
            samples: vec![0.0; num_channels * capacity],
            num_channels,
            capacity,
            start: 0,
            end: 0,
            frame_len,
            hop,
            pending_discard: 0,
            next_frame_index: 0,
        })
    }

    /// Number of input channels.
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Frame length in samples.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Hop between consecutive frames in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Index the next emitted frame will carry (counts from 0, advances per emit).
    pub fn next_frame_index(&self) -> usize {
        self.next_frame_index
    }

    /// Samples currently buffered per channel.
    pub fn samples_buffered(&self) -> usize {
        self.end - self.start
    }

    /// Clears all buffered samples and restarts frame numbering at 0. The window
    /// keeps its capacity, so a reset does not reintroduce allocations.
    pub fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
        self.pending_discard = 0;
        self.next_frame_index = 0;
    }

    /// Appends one multichannel chunk (`chunk[channel][sample]`; every channel the
    /// same length, any length including zero).
    ///
    /// Allocates only if the buffered backlog plus the chunk would exceed the
    /// window's capacity — with a consumer that drains ready frames between
    /// pushes, capacity converges after the first few chunks and steady state is
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if the channel count differs from
    /// construction or the channels have unequal lengths. The assembler is unchanged
    /// on error.
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<(), DspError> {
        self.push_planar(chunk)
    }

    /// Appends one planar multichannel chunk in any [`Sample`] format
    /// (`chunk[channel][sample]`; every channel the same length, any length
    /// including zero). Samples are converted to `f64` as they enter the window —
    /// no intermediate conversion buffer is built.
    ///
    /// # Errors
    ///
    /// Same conditions as [`push`](FrameAssembler::push).
    pub fn push_planar<S: Sample>(&mut self, chunk: &[&[S]]) -> Result<(), DspError> {
        if chunk.len() != self.num_channels {
            return Err(DspError::LengthMismatch {
                expected: self.num_channels,
                actual: chunk.len(),
            });
        }
        let chunk_len = chunk[0].len();
        for ch in chunk {
            if ch.len() != chunk_len {
                return Err(DspError::LengthMismatch {
                    expected: chunk_len,
                    actual: ch.len(),
                });
            }
        }
        self.reserve(chunk_len);
        let end = self.end;
        for (window, ch) in self.samples.chunks_exact_mut(self.capacity).zip(chunk) {
            for (slot, &x) in window[end..end + chunk_len].iter_mut().zip(*ch) {
                *slot = x.to_f64();
            }
        }
        self.end += chunk_len;
        self.settle_discard();
        Ok(())
    }

    /// Appends one interleaved chunk in any [`Sample`] format
    /// (`data[sample * num_channels + channel]`, the layout capture drivers
    /// deliver). The chunk is de-interleaved with strided reads straight into the
    /// window — no intermediate de-interleave buffer is built.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `data.len()` is not a whole number
    /// of `num_channels`-sample frames. The assembler is unchanged on error.
    pub fn push_interleaved<S: Sample>(&mut self, data: &[S]) -> Result<(), DspError> {
        let num_channels = self.num_channels;
        if !data.len().is_multiple_of(num_channels) {
            return Err(DspError::LengthMismatch {
                expected: (data.len() / num_channels) * num_channels,
                actual: data.len(),
            });
        }
        if data.is_empty() {
            self.settle_discard();
            return Ok(());
        }
        let chunk_len = data.len() / num_channels;
        self.reserve(chunk_len);
        let end = self.end;
        for (channel, window) in self.samples.chunks_exact_mut(self.capacity).enumerate() {
            let strided = data[channel..].iter().step_by(num_channels);
            for (slot, &x) in window[end..end + chunk_len].iter_mut().zip(strided) {
                *slot = x.to_f64();
            }
        }
        self.end += chunk_len;
        self.settle_discard();
        Ok(())
    }

    /// Makes room for `additional` more samples per channel after `end`: slides
    /// the buffered samples to the front if that is enough, and grows the window
    /// otherwise.
    fn reserve(&mut self, additional: usize) {
        if self.end + additional <= self.capacity {
            return;
        }
        let needed = self.samples_buffered() + additional;
        if needed > self.capacity {
            self.grow(needed.next_power_of_two());
        } else {
            self.slide();
        }
    }

    /// Moves every channel's buffered run to the front of its window.
    fn slide(&mut self) {
        let (start, end) = (self.start, self.end);
        for window in self.samples.chunks_exact_mut(self.capacity) {
            window.copy_within(start..end, 0);
        }
        self.end -= start;
        self.start = 0;
    }

    /// Reallocates the window at `capacity` samples per channel, with the buffered
    /// runs at the front. The only allocating operation after construction: it
    /// runs when a larger chunk than ever seen before arrives.
    fn grow(&mut self, capacity: usize) {
        let live = self.samples_buffered();
        let mut samples = vec![0.0; self.num_channels * capacity];
        for (to, from) in samples
            .chunks_exact_mut(capacity)
            .zip(self.samples.chunks_exact(self.capacity))
        {
            to[..live].copy_from_slice(&from[self.start..self.end]);
        }
        self.samples = samples;
        self.capacity = capacity;
        self.start = 0;
        self.end = live;
    }

    /// Applies any outstanding inter-frame discard (`hop > frame_len` gaps) as soon
    /// as the samples to be skipped have arrived.
    fn settle_discard(&mut self) {
        let drop = self.pending_discard.min(self.samples_buffered());
        self.start += drop;
        self.pending_discard -= drop;
    }

    /// Returns true when a full frame is buffered and can be emitted.
    pub fn frame_ready(&self) -> bool {
        self.pending_discard == 0 && self.samples_buffered() >= self.frame_len
    }

    /// Lends the next frame to `f` as one borrowed `frame_len`-sample slice per
    /// channel, together with the frame's index, then advances the stream position
    /// by `hop` — whatever `f` returns, so a frame whose processing fails is still
    /// consumed and the samples after it stay buffered. Returns what `f` returned.
    ///
    /// Nothing is copied: the slices point into the assembler's window. Up to 32
    /// channels the slice table lives on the stack, so emission allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InsufficientData`] if no frame is ready (check
    /// [`frame_ready`](FrameAssembler::frame_ready) first); `f` is not called.
    pub fn emit_with<R>(&mut self, f: impl FnOnce(&[&[f64]], usize) -> R) -> Result<R, DspError> {
        if !self.frame_ready() {
            return Err(DspError::InsufficientData {
                required: self.frame_len + self.pending_discard,
                available: self.samples_buffered(),
            });
        }
        let index = self.next_frame_index;
        let (start, end) = (self.start, self.start + self.frame_len);
        let channels = self.samples.chunks_exact(self.capacity);
        let result = if self.num_channels <= MAX_STACK_CHANNELS {
            let mut views: [&[f64]; MAX_STACK_CHANNELS] = [&[]; MAX_STACK_CHANNELS];
            for (view, window) in views.iter_mut().zip(channels) {
                *view = &window[start..end];
            }
            f(&views[..self.num_channels], index)
        } else {
            // analyze: allow(alloc) — fallback beyond MAX_STACK_CHANNELS only: every
            // channel count up to 32 takes the stack arm above
            let views: Vec<&[f64]> = channels.map(|window| &window[start..end]).collect();
            f(&views, index)
        };
        // Advance by hop; if hop exceeds what is buffered (hop > frame_len streams),
        // remember the shortfall and discard it as the gap samples arrive.
        let advance = self.hop.min(self.samples_buffered());
        self.start += advance;
        self.pending_discard = self.hop - advance;
        self.next_frame_index += 1;
        Ok(result)
    }

    /// Emits the next frame into `out` (one `Vec<f64>` per channel, resized to
    /// `frame_len`; reusing the same `out` across calls makes emission
    /// allocation-free) and advances the stream position by `hop`. Returns the index
    /// of the emitted frame. This is [`emit_with`](FrameAssembler::emit_with) plus a
    /// copy, for callers that need to own the frame.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InsufficientData`] if no frame is ready (check
    /// [`frame_ready`](FrameAssembler::frame_ready) first) or
    /// [`DspError::LengthMismatch`] if `out` has the wrong channel count.
    pub fn emit_into(&mut self, out: &mut [Vec<f64>]) -> Result<usize, DspError> {
        if out.len() != self.num_channels {
            return Err(DspError::LengthMismatch {
                expected: self.num_channels,
                actual: out.len(),
            });
        }
        self.emit_with(|frame, index| {
            for (buf, ch) in out.iter_mut().zip(frame) {
                buf.clear();
                buf.extend_from_slice(ch);
            }
            index
        })
    }
}

/// Predicts, from chunk lengths alone, which pushes make a [`FrameAssembler`] with
/// the same `frame_len` and `hop` emit a frame: `frame_len` samples complete the
/// first frame, then every `hop` samples complete the next one.
///
/// A host that queues chunks in front of an assembler uses it to wake its worker
/// only for chunks that complete a frame; the others can wait and ride along.
///
/// # Example
///
/// ```
/// use ispot_dsp::framing::FrameCountdown;
///
/// // 2048-sample frames every 1024 samples, fed 512-sample chunks.
/// let mut countdown = FrameCountdown::new(2048, 1024);
/// let completes: Vec<bool> = (0..8).map(|_| countdown.advance(512)).collect();
/// assert_eq!(completes, [false, false, false, true, false, true, false, true]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCountdown {
    /// Samples still missing before the next frame completes; never zero.
    remaining: usize,
    hop: usize,
}

impl FrameCountdown {
    /// A countdown for a stream that has not seen a sample yet. `frame_len` and
    /// `hop` must be positive, as [`FrameAssembler::new`] requires.
    pub fn new(frame_len: usize, hop: usize) -> Self {
        debug_assert!(frame_len > 0 && hop > 0);
        FrameCountdown {
            remaining: frame_len,
            hop,
        }
    }

    /// Counts a chunk of `samples` samples per channel and returns true when it
    /// completes at least one frame.
    pub fn advance(&mut self, samples: usize) -> bool {
        if samples < self.remaining {
            self.remaining -= samples;
            return false;
        }
        let past = samples - self.remaining;
        self.remaining = self.hop - past % self.hop;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Frames `signal` directly by slicing, the reference for invariance tests.
    fn reference_frames(signal: &[f64], frame_len: usize, hop: usize) -> Vec<Vec<f64>> {
        if signal.len() < frame_len {
            return Vec::new();
        }
        (0..(signal.len() - frame_len) / hop + 1)
            .map(|f| signal[f * hop..f * hop + frame_len].to_vec())
            .collect()
    }

    fn drain(asm: &mut FrameAssembler, out: &mut Vec<Vec<f64>>) {
        let mut frame = vec![Vec::new(); asm.num_channels()];
        while asm.frame_ready() {
            asm.emit_into(&mut frame).unwrap();
            out.push(frame[0].clone());
        }
    }

    #[test]
    fn single_push_matches_direct_slicing() {
        let signal: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut asm = FrameAssembler::new(1, 16, 8).unwrap();
        asm.push(&[&signal]).unwrap();
        let mut got = Vec::new();
        drain(&mut asm, &mut got);
        assert_eq!(got, reference_frames(&signal, 16, 8));
    }

    #[test]
    fn sample_by_sample_push_matches_direct_slicing() {
        let signal: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let mut asm = FrameAssembler::new(1, 16, 4).unwrap();
        let mut got = Vec::new();
        for s in &signal {
            asm.push(&[&[*s]]).unwrap();
            drain(&mut asm, &mut got);
        }
        assert_eq!(got, reference_frames(&signal, 16, 4));
    }

    #[test]
    fn hop_larger_than_frame_len_skips_the_gap() {
        let signal: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut asm = FrameAssembler::new(1, 4, 10).unwrap();
        let mut got = Vec::new();
        for chunk in signal.chunks(3) {
            asm.push(&[chunk]).unwrap();
            drain(&mut asm, &mut got);
        }
        assert_eq!(got, reference_frames(&signal, 4, 10));
    }

    #[test]
    fn multichannel_frames_stay_aligned() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| -(i as f64)).collect();
        let mut asm = FrameAssembler::new(2, 8, 8).unwrap();
        let mut frame = vec![Vec::new(); 2];
        let mut count = 0;
        for i in (0..50).step_by(5) {
            asm.push(&[&a[i..i + 5], &b[i..i + 5]]).unwrap();
            while asm.frame_ready() {
                let idx = asm.emit_into(&mut frame).unwrap();
                assert_eq!(idx, count);
                for (x, y) in frame[0].iter().zip(&frame[1]) {
                    assert_eq!(*x, -*y);
                }
                count += 1;
            }
        }
        assert_eq!(count, reference_frames(&a, 8, 8).len());
    }

    #[test]
    fn mismatched_inputs_are_rejected_without_side_effects() {
        let mut asm = FrameAssembler::new(2, 8, 4).unwrap();
        assert!(asm.push(&[&[1.0]]).is_err());
        assert!(asm.push(&[&[1.0][..], &[1.0, 2.0][..]]).is_err());
        assert_eq!(asm.samples_buffered(), 0);
        let mut short = vec![Vec::new()];
        assert!(asm.emit_into(&mut short).is_err());
        let mut ok = vec![Vec::new(), Vec::new()];
        assert!(matches!(
            asm.emit_into(&mut ok),
            Err(DspError::InsufficientData { .. })
        ));
    }

    #[test]
    fn reset_restarts_frame_numbering_without_shrinking() {
        let mut asm = FrameAssembler::new(1, 4, 4).unwrap();
        asm.push(&[&[0.0; 40]]).unwrap();
        let mut frame = vec![Vec::new()];
        while asm.frame_ready() {
            asm.emit_into(&mut frame).unwrap();
        }
        assert!(asm.next_frame_index() > 0);
        asm.reset();
        assert_eq!(asm.next_frame_index(), 0);
        assert_eq!(asm.samples_buffered(), 0);
        assert!(!asm.frame_ready());
    }

    #[test]
    fn interleaved_push_matches_planar_push() {
        let left: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let right: Vec<f64> = (0..40).map(|i| -(i as f64)).collect();
        let interleaved: Vec<f64> = left
            .iter()
            .zip(&right)
            .flat_map(|(&l, &r)| [l, r])
            .collect();
        let mut planar = FrameAssembler::new(2, 8, 4).unwrap();
        let mut inter = FrameAssembler::new(2, 8, 4).unwrap();
        planar.push(&[&left, &right]).unwrap();
        inter.push_interleaved(&interleaved).unwrap();
        let mut a = vec![Vec::new(); 2];
        let mut b = vec![Vec::new(); 2];
        while planar.frame_ready() {
            assert!(inter.frame_ready());
            planar.emit_into(&mut a).unwrap();
            inter.emit_into(&mut b).unwrap();
            assert_eq!(a, b);
        }
        assert!(!inter.frame_ready());
    }

    #[test]
    fn i16_and_f32_samples_convert_on_ingest() {
        let pcm: Vec<i16> = vec![0, 16384, -16384, i16::MIN, i16::MAX, 0, 0, 0];
        let mut asm = FrameAssembler::new(1, 8, 8).unwrap();
        asm.push_planar(&[&pcm]).unwrap();
        let mut frame = vec![Vec::new()];
        asm.emit_into(&mut frame).unwrap();
        assert_eq!(frame[0][0], 0.0);
        assert_eq!(frame[0][1], 0.5);
        assert_eq!(frame[0][2], -0.5);
        assert_eq!(frame[0][3], -1.0);

        let floats: Vec<f32> = vec![0.25, -0.75];
        let mut asm = FrameAssembler::new(2, 1, 1).unwrap();
        asm.push_interleaved(&floats).unwrap();
        asm.emit_into(&mut [Vec::new(), Vec::new()]).unwrap();
    }

    #[test]
    fn ragged_interleaved_chunks_are_rejected_without_side_effects() {
        let mut asm = FrameAssembler::new(2, 8, 4).unwrap();
        assert!(asm.push_interleaved(&[1.0f64, 2.0, 3.0]).is_err());
        assert_eq!(asm.samples_buffered(), 0);
        asm.push_interleaved::<f64>(&[]).unwrap();
        assert_eq!(asm.samples_buffered(), 0);
    }

    #[test]
    fn emit_with_lends_the_frame_and_advances_whatever_the_closure_returns() {
        let signal: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let mut asm = FrameAssembler::new(1, 8, 4).unwrap();
        assert!(matches!(
            asm.emit_with(|_, _| unreachable!("no frame is ready")),
            Err(DspError::InsufficientData { .. })
        ));
        asm.push(&[&signal]).unwrap();
        // A frame whose processing fails is still consumed...
        let failed: Result<(), &str> = asm
            .emit_with(|frame, index| {
                assert_eq!((frame[0], index), (&signal[0..8], 0));
                Err("stage failed")
            })
            .unwrap();
        assert!(failed.is_err());
        assert_eq!(asm.samples_buffered(), 8);
        // ...and the stream continues with the next frame.
        let next = asm.emit_with(|frame, index| (frame[0].to_vec(), index));
        assert_eq!(next.unwrap(), (signal[4..12].to_vec(), 1));
        assert!(!asm.frame_ready());
    }

    #[test]
    fn steady_streaming_slides_the_window_instead_of_growing_it() {
        // The session's shape: 2048-sample frames, hop 1024, 512-sample chunks.
        let signal: Vec<f64> = (0..40_000).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut asm = FrameAssembler::new(2, 2048, 1024).unwrap();
        let mut got = Vec::new();
        for chunk in signal.chunks(512) {
            asm.push(&[chunk, chunk]).unwrap();
            while asm.frame_ready() {
                asm.emit_with(|frame, _| {
                    assert_eq!(frame[0], frame[1]);
                    got.push(frame[0].to_vec());
                })
                .unwrap();
            }
            assert_eq!(asm.capacity, 2048 + 1024);
        }
        assert_eq!(got, reference_frames(&signal, 2048, 1024));
        // A larger chunk than any before grows the window once.
        asm.push(&[&signal[..5000], &signal[..5000]]).unwrap();
        assert_eq!(asm.capacity, asm.samples_buffered().next_power_of_two());
    }

    #[test]
    fn more_than_32_channels_are_lent_in_channel_order() {
        let mut asm = FrameAssembler::new(40, 4, 4).unwrap();
        let channels: Vec<Vec<f64>> = (0..40).map(|c| vec![c as f64; 6]).collect();
        let views: Vec<&[f64]> = channels.iter().map(Vec::as_slice).collect();
        asm.push(&views).unwrap();
        asm.emit_with(|frame, _| {
            assert_eq!(frame.len(), 40);
            for (c, ch) in frame.iter().enumerate() {
                assert_eq!(*ch, [c as f64; 4]);
            }
        })
        .unwrap();
    }

    #[test]
    fn zero_parameters_rejected() {
        assert!(FrameAssembler::new(0, 4, 2).is_err());
        assert!(FrameAssembler::new(1, 0, 2).is_err());
        assert!(FrameAssembler::new(1, 4, 0).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The core contract: any chunking of the stream yields frames identical to
        /// slicing the whole signal at once, in every channel, whether frames are
        /// lent (`emit_with`) or copied out (`emit_into`).
        #[test]
        fn chunking_is_invariant(
            signal in prop::collection::vec(-1.0f64..1.0, 0..400),
            cuts in prop::collection::vec(1usize..97, 1..40),
            frame_len in 1usize..33,
            hop in 1usize..49,
            channels in 1usize..4,
        ) {
            let scaled: Vec<Vec<f64>> = (0..channels)
                .map(|c| signal.iter().map(|x| x * (c + 1) as f64).collect())
                .collect();
            let mut asm = FrameAssembler::new(channels, frame_len, hop).unwrap();
            let mut got = vec![Vec::new(); channels];
            let mut copied = vec![Vec::new(); channels];
            let mut pos = 0;
            let mut cut_iter = cuts.iter().cycle();
            while pos < signal.len() {
                let take = (*cut_iter.next().unwrap()).min(signal.len() - pos);
                let chunk: Vec<&[f64]> = scaled.iter().map(|c| &c[pos..pos + take]).collect();
                asm.push(&chunk).unwrap();
                pos += take;
                while asm.frame_ready() {
                    if asm.next_frame_index().is_multiple_of(2) {
                        asm.emit_with(|frame, _| {
                            for (out, ch) in got.iter_mut().zip(frame) {
                                out.push(ch.to_vec());
                            }
                        })
                        .unwrap();
                    } else {
                        asm.emit_into(&mut copied).unwrap();
                        for (out, ch) in got.iter_mut().zip(&copied) {
                            out.push(ch.clone());
                        }
                    }
                }
            }
            for (c, frames) in got.iter().enumerate() {
                prop_assert_eq!(frames, &reference_frames(&scaled[c], frame_len, hop));
            }
        }

        /// The countdown flags exactly the pushes on which the assembler emits at
        /// least one frame, for chunks from one sample up to three frames long.
        #[test]
        fn countdown_flags_exactly_the_pushes_that_emit(
            frame_len in 1usize..65,
            hop_seed in 0usize..1000,
            cuts in prop::collection::vec(0usize..1000, 1..60),
        ) {
            let hop = 1 + hop_seed % frame_len;
            let mut asm = FrameAssembler::new(1, frame_len, hop).unwrap();
            let mut countdown = FrameCountdown::new(frame_len, hop);
            let mut frame = vec![Vec::new()];
            for cut in cuts {
                let len = 1 + cut % (3 * frame_len);
                asm.push(&[&vec![0.5; len]]).unwrap();
                let mut emitted = 0;
                while asm.frame_ready() {
                    asm.emit_into(&mut frame).unwrap();
                    emitted += 1;
                }
                prop_assert_eq!(countdown.advance(len), emitted > 0);
            }
        }
    }
}
