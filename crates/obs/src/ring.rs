//! Lock-free fixed-capacity record ring (seqlock per slot).
//!
//! [`SeqRing`] stores the most recent `capacity` records of `WORDS` words
//! each. Writers claim a global cursor with one `fetch_add` and publish into
//! `cursor % capacity` under a per-slot sequence lock; they never block on
//! readers and never allocate. Readers are purely optimistic: they read the
//! slot's sequence, copy the words, and re-check — a record a writer was
//! mid-overwrite on simply reads as absent. This is the standard seqlock
//! discipline built entirely from `AtomicU64`s, so the crate stays
//! `#![forbid(unsafe_code)]` and the analyzer's unsafe-confinement rule holds.
//!
//! The tradeoff versus an SPSC queue is deliberate: observability wants "the
//! latest N records, cheaply, from any thread", not guaranteed delivery. Old
//! records are overwritten without back-pressure on the pipeline.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One slot: a sequence word (odd while a writer is inside), the global index
/// of the record it holds, and the record payload.
#[derive(Debug)]
struct SeqSlot<const WORDS: usize> {
    seq: AtomicU64,
    index: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl<const WORDS: usize> SeqSlot<WORDS> {
    fn new() -> Self {
        SeqSlot {
            seq: AtomicU64::new(0),
            index: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A lock-free ring of the most recent fixed-width records.
///
/// Multi-writer, multi-reader. Writers are wait-free against readers and only
/// contend with each other when two of them land on the same slot (i.e. one
/// laps the other), where the loser spins briefly.
#[derive(Debug)]
pub struct SeqRing<const WORDS: usize> {
    slots: Box<[SeqSlot<WORDS>]>,
    cursor: AtomicU64,
}

impl<const WORDS: usize> SeqRing<WORDS> {
    /// Creates a ring holding the latest `capacity` records (clamped to ≥ 1).
    /// All storage is allocated here; `push` never allocates.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots: Vec<SeqSlot<WORDS>> = (0..capacity).map(|_| SeqSlot::new()).collect();
        SeqRing {
            slots: slots.into_boxed_slice(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of slots in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records pushed since construction (monotonic; not clamped to
    /// capacity). Records `recorded() - capacity() .. recorded()` are the ones
    /// that may still be readable.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Index of the oldest record that may still be resident.
    #[must_use]
    pub fn oldest(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Publishes a record. Wait-free against readers; never allocates or
    /// panics. Called from the pipeline hot path.
    pub fn push(&self, words: &[u64; WORDS]) {
        let i = self.cursor.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        // Claim the slot: even -> odd. Contention here means another writer
        // has lapped the ring onto this very slot, so a short spin is fine.
        let mut seq = slot.seq.load(Ordering::Acquire);
        loop {
            if seq & 1 == 0 {
                match slot.seq.compare_exchange_weak(
                    seq,
                    seq.wrapping_add(1),
                    Ordering::Acquire,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(actual) => seq = actual,
                }
            } else {
                std::hint::spin_loop();
                seq = slot.seq.load(Ordering::Acquire);
            }
        }
        // The store side of the Acquire CAS above is relaxed, so on weakly
        // ordered CPUs the payload stores below could become visible before
        // the odd sequence value without this fence — a reader could then
        // pass both sequence checks around a torn copy. The Release fence
        // orders the odd seq store before every payload store.
        fence(Ordering::Release);
        slot.index.store(i, Ordering::Relaxed);
        for (cell, value) in slot.words.iter().zip(words.iter()) {
            cell.store(*value, Ordering::Relaxed);
        }
        // Release: odd -> even publishes index + words to readers.
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Reads the record with global index `index`, if it is still resident
    /// and not mid-overwrite. Returns `None` for indices never written,
    /// already overwritten, or caught during a concurrent write — callers
    /// skip and move on.
    #[must_use]
    pub fn read_at(&self, index: u64) -> Option<[u64; WORDS]> {
        if index >= self.recorded() {
            return None;
        }
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None;
        }
        let stamped = slot.index.load(Ordering::Relaxed);
        let mut out = [0u64; WORDS];
        for (value, cell) in out.iter_mut().zip(slot.words.iter()) {
            *value = cell.load(Ordering::Relaxed);
        }
        // Order the payload reads before the re-check of the sequence word.
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 || stamped != index {
            return None;
        }
        Some(out)
    }

    /// Copies every still-readable record, oldest first, into `out`
    /// (cleared first). Cold path: for exporters and tests, not the pipeline.
    pub fn snapshot_into(&self, out: &mut Vec<[u64; WORDS]>) {
        out.clear();
        let newest = self.recorded();
        let oldest = newest.saturating_sub(self.slots.len() as u64);
        for index in oldest..newest {
            if let Some(words) = self.read_at(index) {
                out.push(words);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    #[test]
    fn empty_ring_reads_nothing() {
        let ring: SeqRing<2> = SeqRing::new(4);
        assert_eq!(ring.recorded(), 0);
        assert_eq!(ring.read_at(0), None);
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let ring: SeqRing<1> = SeqRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(&[7]);
        assert_eq!(ring.read_at(0), Some([7]));
    }

    #[test]
    fn push_then_read_round_trips() {
        let ring: SeqRing<3> = SeqRing::new(4);
        ring.push(&[1, 2, 3]);
        ring.push(&[4, 5, 6]);
        assert_eq!(ring.read_at(0), Some([1, 2, 3]));
        assert_eq!(ring.read_at(1), Some([4, 5, 6]));
        assert_eq!(ring.read_at(2), None);
    }

    #[test]
    fn overwritten_records_read_as_absent() {
        let ring: SeqRing<1> = SeqRing::new(2);
        for v in 0..5u64 {
            ring.push(&[v]);
        }
        // Capacity 2, five pushes: only records 3 and 4 remain.
        assert_eq!(ring.read_at(0), None);
        assert_eq!(ring.read_at(2), None);
        assert_eq!(ring.read_at(3), Some([3]));
        assert_eq!(ring.read_at(4), Some([4]));
        assert_eq!(ring.oldest(), 3);
        let mut out = Vec::new();
        ring.snapshot_into(&mut out);
        assert_eq!(out, vec![[3], [4]]);
    }

    #[test]
    fn concurrent_writers_and_reader_never_see_torn_records() {
        // Each writer publishes records whose two words are (v, !v); a torn
        // read would surface a pair that fails that invariant. All five
        // threads start together and the reader keeps reading until the
        // writers are done, so its reads overlap the writes.
        let ring: Arc<SeqRing<2>> = Arc::new(SeqRing::new(8));
        let start = Arc::new(Barrier::new(5));
        let done = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let ring = Arc::clone(&ring);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..5_000u64 {
                        let v = (w << 32) | i;
                        ring.push(&[v, !v]);
                    }
                })
            })
            .collect();
        let reader = {
            let ring = Arc::clone(&ring);
            let start = Arc::clone(&start);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                let mut out = Vec::new();
                start.wait();
                loop {
                    // Read the flag first: the pass that sees it set starts
                    // after every write, so it reads a full ring.
                    let last = done.load(Ordering::Acquire);
                    ring.snapshot_into(&mut out);
                    for words in &out {
                        assert_eq!(words[1], !words[0], "torn record: {words:?}");
                        seen += 1;
                    }
                    if last {
                        break;
                    }
                }
                seen
            })
        };
        for w in writers {
            w.join().expect("writer panicked");
        }
        done.store(true, Ordering::Release);
        let seen = reader.join().expect("reader panicked");
        assert!(seen > 0, "reader never observed a record");
        assert_eq!(ring.recorded(), 20_000);
    }
}
