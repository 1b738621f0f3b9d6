//! The benchmark's own arithmetic: nearest-rank percentiles with their
//! beyond-counts, frame → accepted-chunk attribution and the `/proc` parsers.
//! Kept free of I/O so the unit tests below pin every rule.

/// One nearest-rank percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile, e.g. `99.9`.
    pub pct: f64,
    /// The selected sample.
    pub value: f64,
    /// Samples strictly beyond the selected rank.
    pub beyond: usize,
    /// Size of the sample set.
    pub samples: usize,
}

/// Percentiles the tail diagnostic climbs, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Nearest-rank percentile `pct` (in `(0, 100]`) of the ascending slice
/// `sorted`; `None` when it is empty.
///
/// The rank is `ceil(pct / 100 · n)`, computed in integer thousandths of a
/// percent so that e.g. p99.9 of 10 000 samples leaves exactly 10 beyond it.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let milli = (pct * 1000.0).round() as u128;
    let rank = (n as u128 * milli).div_ceil(100_000) as usize;
    let rank = rank.clamp(1, n);
    Some(Quantile {
        pct,
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// The highest ladder percentile that still has at least `min_beyond`
/// samples beyond it — the deepest tail a run of this size can resolve.
pub fn tail_percentile(sorted: &[f64], min_beyond: usize) -> Option<Quantile> {
    TAIL_LADDER
        .iter()
        .rev()
        .filter_map(|&pct| percentile(sorted, pct))
        .find(|q| q.beyond >= min_beyond)
}

/// Median of an unsorted sample set (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How analysis frames fall out of a chunked stream: frame `k` covers
/// samples `[k·hop, k·hop + frame_len)` of the *accepted* audio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// Samples per analysis frame.
    pub frame_len: usize,
    /// Samples between frame starts.
    pub hop: usize,
    /// Samples per pushed chunk.
    pub chunk: usize,
}

impl Framing {
    /// Ordinal (0-based) of the accepted chunk whose arrival completes frame
    /// `k`: the first chunk after which `frame_len + k·hop` samples are in.
    /// A refused chunk is not in the accepted sequence, so frames after it
    /// shift onto later offered chunks.
    pub fn completing_chunk(&self, k: usize) -> usize {
        (self.frame_len + k * self.hop).div_ceil(self.chunk) - 1
    }

    /// Frames that `chunks` whole chunks of audio produce.
    pub fn frames_for(&self, chunks: usize) -> usize {
        let samples = chunks * self.chunk;
        if samples < self.frame_len {
            0
        } else {
            (samples - self.frame_len) / self.hop + 1
        }
    }
}

/// CPU time on the processor, in nanoseconds: the first field of
/// `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Voluntary plus involuntary context switches from a `status` file.
pub fn parse_ctxt_switches(status: &str) -> Option<u64> {
    let voluntary = status_field(status, "voluntary_ctxt_switches")?;
    let involuntary = status_field(status, "nonvoluntary_ctxt_switches")?;
    Some(voluntary + involuntary)
}

/// `(steal, total)` clock ticks of the aggregate `cpu` line of `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else, and all
/// time accounted.
pub fn parse_steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A `kB` field of a `status` file (`VmRSS`, `VmHWM`), in bytes.
pub fn parse_status_bytes(status: &str, field: &str) -> Option<u64> {
    status_field(status, field).map(|kb| kb * 1024)
}

/// The leading integer of the line `field:` in a `status` file.
fn status_field(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (name, rest) = line.split_once(':')?;
        if name.trim() != field {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEFAULT: Framing = Framing {
        frame_len: 2048,
        hop: 1024,
        chunk: 512,
    };

    #[test]
    fn frame_k_is_completed_by_chunk_2k_plus_3_at_the_default_sizes() {
        for k in 0..50 {
            assert_eq!(DEFAULT.completing_chunk(k), 2 * k + 3);
        }
        // Chunk sizes that do not divide the hop round up to the next chunk.
        let odd = Framing {
            chunk: 300,
            ..DEFAULT
        };
        assert_eq!(odd.completing_chunk(0), 6); // 2048 samples need 7 chunks
        assert_eq!(odd.completing_chunk(1), 10); // 3072 samples need 11 chunks
    }

    #[test]
    fn frames_after_a_refused_chunk_shift_to_later_offered_chunks() {
        // Offered chunks 0..12, chunk 4 refused: accepted ordinals map onto
        // the offered indices below, and each frame's due time is that of
        // the offered chunk its completing ordinal lands on.
        let offered: Vec<usize> = (0..12).filter(|&c| c != 4).collect();
        let due_ms: Vec<u64> = offered.iter().map(|&c| 32 * c as u64).collect();
        let frames = DEFAULT.frames_for(offered.len());
        assert_eq!(frames, 4);
        let completing: Vec<usize> = (0..frames)
            .map(|k| offered[DEFAULT.completing_chunk(k)])
            .collect();
        // Frame 0 still ends on chunk 3; every later frame waits one chunk
        // longer than it would have without the refusal.
        assert_eq!(completing, vec![3, 6, 8, 10]);
        assert_eq!(due_ms[DEFAULT.completing_chunk(1)], 192);
        // The offered audio would have produced one frame more.
        assert_eq!(DEFAULT.frames_for(12), 5);
    }

    #[test]
    fn frames_for_counts_whole_frames_only() {
        assert_eq!(DEFAULT.frames_for(0), 0);
        assert_eq!(DEFAULT.frames_for(3), 0);
        assert_eq!(DEFAULT.frames_for(4), 1);
        assert_eq!(DEFAULT.frames_for(5), 1);
        assert_eq!(DEFAULT.frames_for(6), 2);
        // Frame k is ready exactly when its completing chunk arrives.
        for k in 0..20 {
            assert_eq!(DEFAULT.frames_for(DEFAULT.completing_chunk(k) + 1), k + 1);
        }
    }

    #[test]
    fn percentile_selects_nearest_rank_and_counts_what_lies_beyond() {
        let sorted: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let p50 = percentile(&sorted, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond, p50.samples), (5000.0, 5000, 10_000));
        let p999 = percentile(&sorted, 99.9).unwrap();
        assert_eq!((p999.value, p999.beyond), (9990.0, 10));
        let p100 = percentile(&sorted, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (10_000.0, 0));
        // Tiny sets still select a real sample.
        let one = percentile(&[7.0], 99.0).unwrap();
        assert_eq!((one.value, one.beyond), (7.0, 0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_beyond() {
        let sorted: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&sorted, 10).unwrap().pct, 99.9);
        let sorted: Vec<f64> = (0..9_999).map(f64::from).collect();
        assert_eq!(tail_percentile(&sorted, 10).unwrap().pct, 99.0);
        let sorted: Vec<f64> = (0..25).map(f64::from).collect();
        assert_eq!(tail_percentile(&sorted, 10).unwrap().pct, 50.0);
        let sorted: Vec<f64> = (0..15).map(f64::from).collect();
        assert_eq!(tail_percentile(&sorted, 10), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn schedstat_reads_the_on_cpu_nanoseconds() {
        assert_eq!(
            parse_schedstat_ns("323576602 440424 164\n"),
            Some(323_576_602)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn stat_parser_reads_steal_and_total_ticks() {
        let stat = "cpu  59503 0 7823 2356293 265 0 890 7499 0 0\n\
                    cpu0 29620 0 4343 1177919 121 0 456 3746 0 0\n";
        assert_eq!(
            parse_steal_ticks(stat),
            Some((7499, 59503 + 7823 + 2356293 + 265 + 890 + 7499))
        );
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn status_parsers_read_switches_and_memory() {
        let status = "Name:\tispot-serve-0\n\
                      VmHWM:\t  204800 kB\n\
                      VmRSS:\t  102400 kB\n\
                      Threads:\t3\n\
                      voluntary_ctxt_switches:\t1500\n\
                      nonvoluntary_ctxt_switches:\t25\n";
        assert_eq!(parse_ctxt_switches(status), Some(1525));
        assert_eq!(parse_status_bytes(status, "VmRSS"), Some(100 * 1024 * 1024));
        assert_eq!(parse_status_bytes(status, "VmHWM"), Some(200 * 1024 * 1024));
        assert_eq!(parse_status_bytes(status, "VmSwap"), None);
        // `nonvoluntary_…` must not satisfy a lookup of `voluntary_…`.
        assert_eq!(
            parse_ctxt_switches("nonvoluntary_ctxt_switches:\t3\n"),
            None
        );
    }
}
