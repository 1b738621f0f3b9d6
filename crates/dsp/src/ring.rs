//! A fixed-capacity ring buffer for streaming audio frames.

use crate::error::DspError;

/// A single-producer, single-consumer ring buffer of `f64` samples.
///
/// Used by the real-time pipeline to decouple capture (simulation) from frame-based
/// analysis.
///
/// # Example
///
/// ```
/// use ispot_dsp::ring::RingBuffer;
///
/// # fn main() -> Result<(), ispot_dsp::DspError> {
/// let mut rb = RingBuffer::new(8)?;
/// rb.write(&[1.0, 2.0, 3.0])?;
/// let mut out = [0.0; 2];
/// rb.read(&mut out)?;
/// assert_eq!(out, [1.0, 2.0]);
/// assert_eq!(rb.available(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RingBuffer {
    buffer: Vec<f64>,
    head: usize,
    tail: usize,
    full: bool,
}

impl RingBuffer {
    /// Creates a ring buffer with the given capacity in samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidSize`] if `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self, DspError> {
        if capacity == 0 {
            return Err(DspError::InvalidSize {
                name: "capacity",
                value: 0,
                constraint: "must be positive",
            });
        }
        Ok(RingBuffer {
            buffer: vec![0.0; capacity],
            head: 0,
            tail: 0,
            full: false,
        })
    }

    /// Returns the total capacity.
    pub fn capacity(&self) -> usize {
        self.buffer.len()
    }

    /// Returns the number of samples currently stored.
    pub fn available(&self) -> usize {
        if self.full {
            self.buffer.len()
        } else if self.head >= self.tail {
            self.head - self.tail
        } else {
            self.buffer.len() - self.tail + self.head
        }
    }

    /// Returns the free space in samples.
    pub fn free(&self) -> usize {
        self.capacity() - self.available()
    }

    /// Returns true if no samples are stored.
    pub fn is_empty(&self) -> bool {
        !self.full && self.head == self.tail
    }

    /// Returns true if the buffer is full.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.head = 0;
        self.tail = 0;
        self.full = false;
    }

    /// Writes all of `data` into the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InsufficientData`] if there is not enough free space; in
    /// that case nothing is written.
    pub fn write(&mut self, data: &[f64]) -> Result<(), DspError> {
        self.write_iter(data.iter().copied())
    }

    /// Writes every sample yielded by `iter` into the buffer.
    ///
    /// The iterator-based twin of [`RingBuffer::write`]: it lets callers stream
    /// converted or strided data (e.g. one channel of an interleaved i16 capture
    /// chunk) straight into the ring without staging it in an intermediate buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InsufficientData`] if there is not enough free space for
    /// `iter.len()` samples; in that case nothing is written.
    pub fn write_iter<I>(&mut self, mut iter: I) -> Result<(), DspError>
    where
        I: ExactSizeIterator<Item = f64>,
    {
        let len = iter.len();
        if len > self.free() {
            return Err(DspError::InsufficientData {
                required: len,
                available: self.free(),
            });
        }
        // Two contiguous runs: `[head..end)`, then the wrapped rest from 0.
        let first = len.min(self.buffer.len() - self.head);
        for (slot, x) in self.buffer[self.head..self.head + first]
            .iter_mut()
            .zip(&mut iter)
        {
            *slot = x;
        }
        for (slot, x) in self.buffer[..len - first].iter_mut().zip(iter) {
            *slot = x;
        }
        self.head = (self.head + len) % self.buffer.len();
        if len > 0 && self.head == self.tail {
            self.full = true;
        }
        Ok(())
    }

    /// Reads exactly `out.len()` samples into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InsufficientData`] if fewer samples are available; in that
    /// case nothing is consumed.
    pub fn read(&mut self, out: &mut [f64]) -> Result<(), DspError> {
        self.peek(out)?;
        self.skip(out.len())
    }

    /// Copies the oldest `out.len()` samples into `out` without consuming them.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InsufficientData`] if fewer samples are available.
    pub fn peek(&self, out: &mut [f64]) -> Result<(), DspError> {
        if out.len() > self.available() {
            return Err(DspError::InsufficientData {
                required: out.len(),
                available: self.available(),
            });
        }
        // Two contiguous runs: `[tail..end)`, then the wrapped rest from 0.
        let first = out.len().min(self.buffer.len() - self.tail);
        let (front, back) = out.split_at_mut(first);
        front.copy_from_slice(&self.buffer[self.tail..self.tail + first]);
        back.copy_from_slice(&self.buffer[..back.len()]);
        Ok(())
    }

    /// Grows the buffer to `new_capacity` samples, preserving the stored samples and
    /// their order. A `new_capacity` at or below the current capacity is a no-op.
    ///
    /// This is the only allocating operation on an existing ring buffer; streaming
    /// code calls it when a producer hands over a larger chunk than ever seen before,
    /// so steady-state operation stays allocation-free.
    pub fn grow(&mut self, new_capacity: usize) {
        if new_capacity <= self.buffer.len() {
            return;
        }
        let stored = self.available();
        let mut buffer = vec![0.0; new_capacity];
        self.peek(&mut buffer[..stored])
            .expect("peeking exactly the stored samples cannot fail");
        self.buffer = buffer;
        self.tail = 0;
        self.head = stored;
        self.full = false;
    }

    /// Discards the oldest `count` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InsufficientData`] if fewer than `count` samples are stored.
    pub fn skip(&mut self, count: usize) -> Result<(), DspError> {
        if count > self.available() {
            return Err(DspError::InsufficientData {
                required: count,
                available: self.available(),
            });
        }
        self.tail = (self.tail + count) % self.buffer.len();
        if count > 0 {
            self.full = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn write_then_read_preserves_order() {
        let mut rb = RingBuffer::new(4).unwrap();
        rb.write(&[1.0, 2.0, 3.0]).unwrap();
        let mut out = [0.0; 3];
        rb.read(&mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert!(rb.is_empty());
    }

    #[test]
    fn wraparound_is_handled() {
        let mut rb = RingBuffer::new(4).unwrap();
        rb.write(&[1.0, 2.0, 3.0]).unwrap();
        let mut out = [0.0; 2];
        rb.read(&mut out).unwrap();
        rb.write(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(rb.available(), 4);
        assert!(rb.is_full());
        let mut all = [0.0; 4];
        rb.read(&mut all).unwrap();
        assert_eq!(all, [3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn overflow_and_underflow_are_rejected_without_side_effects() {
        let mut rb = RingBuffer::new(2).unwrap();
        rb.write(&[1.0]).unwrap();
        assert!(rb.write(&[2.0, 3.0]).is_err());
        assert_eq!(rb.available(), 1);
        let mut out = [0.0; 2];
        assert!(rb.read(&mut out).is_err());
        assert_eq!(rb.available(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut rb = RingBuffer::new(4).unwrap();
        rb.write(&[1.0, 2.0]).unwrap();
        let mut out = [0.0; 2];
        rb.peek(&mut out).unwrap();
        assert_eq!(out, [1.0, 2.0]);
        assert_eq!(rb.available(), 2);
    }

    #[test]
    fn skip_discards_samples() {
        let mut rb = RingBuffer::new(4).unwrap();
        rb.write(&[1.0, 2.0, 3.0]).unwrap();
        rb.skip(2).unwrap();
        let mut out = [0.0; 1];
        rb.read(&mut out).unwrap();
        assert_eq!(out, [3.0]);
        assert!(rb.skip(5).is_err());
    }

    #[test]
    fn grow_preserves_contents_across_wraparound() {
        let mut rb = RingBuffer::new(4).unwrap();
        rb.write(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut out = [0.0; 2];
        rb.read(&mut out).unwrap();
        rb.write(&[5.0, 6.0]).unwrap(); // head has wrapped; buffer is full again
        rb.grow(8);
        assert_eq!(rb.capacity(), 8);
        assert_eq!(rb.available(), 4);
        rb.write(&[7.0, 8.0]).unwrap();
        let mut all = [0.0; 6];
        rb.read(&mut all).unwrap();
        assert_eq!(all, [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn grow_to_smaller_or_equal_capacity_is_a_noop() {
        let mut rb = RingBuffer::new(4).unwrap();
        rb.write(&[1.0, 2.0]).unwrap();
        rb.grow(3);
        rb.grow(4);
        assert_eq!(rb.capacity(), 4);
        assert_eq!(rb.available(), 2);
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(RingBuffer::new(0).is_err());
    }

    #[test]
    fn clear_empties_buffer() {
        let mut rb = RingBuffer::new(4).unwrap();
        rb.write(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(rb.is_full());
        rb.clear();
        assert!(rb.is_empty());
        assert_eq!(rb.free(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Model check against a `VecDeque`: any interleaving of every operation
        /// on a small ring (so runs wrap often) stores, returns and refuses
        /// exactly what an unbounded FIFO capped at the ring's capacity would.
        #[test]
        fn matches_a_vecdeque_model(
            capacity in 1usize..18,
            ops in prop::collection::vec(0usize..6 * 20, 1..64),
        ) {
            let mut rb = RingBuffer::new(capacity).unwrap();
            let mut model: VecDeque<f64> = VecDeque::new();
            let mut cap = capacity;
            let mut next = 0.0;
            for op in ops {
                let n = op / 6;
                let fits = n <= cap - model.len();
                let stored = n <= model.len();
                match op % 6 {
                    0 | 1 => {
                        let data: Vec<f64> = (0..n).map(|i| next + i as f64).collect();
                        next += n as f64;
                        let result = if op % 6 == 0 {
                            rb.write(&data)
                        } else {
                            rb.write_iter(data.iter().copied())
                        };
                        prop_assert_eq!(result.is_ok(), fits);
                        if fits {
                            model.extend(&data);
                        }
                    }
                    2 | 3 => {
                        let mut out = vec![f64::NAN; n];
                        let result = if op % 6 == 2 {
                            rb.peek(&mut out)
                        } else {
                            rb.read(&mut out)
                        };
                        prop_assert_eq!(result.is_ok(), stored);
                        if stored {
                            let expected: Vec<f64> = if op % 6 == 2 {
                                model.iter().take(n).copied().collect()
                            } else {
                                model.drain(..n).collect()
                            };
                            prop_assert_eq!(out, expected);
                        }
                    }
                    4 => {
                        prop_assert_eq!(rb.skip(n).is_ok(), stored);
                        if stored {
                            model.drain(..n);
                        }
                    }
                    _ => {
                        rb.grow(cap + n);
                        cap += n;
                    }
                }
                prop_assert_eq!(rb.capacity(), cap);
                prop_assert_eq!(rb.available(), model.len());
                prop_assert_eq!(rb.is_full(), model.len() == cap);
                let mut all = vec![0.0; model.len()];
                rb.peek(&mut all).unwrap();
                prop_assert!(all.iter().eq(model.iter()));
            }
        }
    }
}
