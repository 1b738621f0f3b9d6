//! The declarative invariant manifest: *which* files and functions the rules
//! apply to.
//!
//! The manifest is data, not code — reviewers changing the hot-path surface
//! edit the tables in [`Manifest::workspace`], and the self-scan test pins the
//! result. Paths are matched by suffix with `/` separators, so the same
//! manifest works regardless of where the workspace is checked out.

/// Which functions of a hot-path file the discipline rules cover.
#[derive(Debug, Clone)]
pub enum HotScope {
    /// Every function in the file is a hot path (pure kernel modules).
    AllFunctions,
    /// Only the named functions; constructors and cold accessors are exempt.
    Functions(Vec<String>),
}

/// One hot-path file with its covered scope.
#[derive(Debug, Clone)]
pub struct HotPathEntry {
    /// Path suffix, e.g. `crates/ssl/src/srp_fast.rs`.
    pub file: String,
    /// Covered functions.
    pub scope: HotScope,
}

/// The full rule-scoping manifest for one analyzer run.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Hot-path files/functions: panics and allocations denied.
    pub hot_paths: Vec<HotPathEntry>,
    /// Files allowed to call bare `f32::mul_add` / `f64::mul_add` (the
    /// runtime-dispatched SIMD wrappers live here).
    pub mul_add_wrappers: Vec<String>,
    /// Scoring / metrics files where `std::collections::HashMap` is denied
    /// because its iteration order would feed pinned bench numbers.
    pub ordered_scoring_files: Vec<String>,
    /// Treat every scanned file as hot + determinism-scoped (fixture mode).
    pub all_files_hot: bool,
}

fn entry(file: &str, fns: &[&str]) -> HotPathEntry {
    HotPathEntry {
        file: file.to_string(),
        scope: if fns.is_empty() {
            HotScope::AllFunctions
        } else {
            HotScope::Functions(fns.iter().map(|s| s.to_string()).collect())
        },
    }
}

impl Manifest {
    /// The workspace manifest: every per-frame path that PRs 1–6 made
    /// allocation-free, plus the determinism-sensitive scoring files.
    pub fn workspace() -> Self {
        Manifest {
            hot_paths: vec![
                // SRP-PHAT fast path: per-frame map computation. Construction
                // (`new`, `make_scratch`) allocates by design.
                entry(
                    "crates/ssl/src/srp_fast.rs",
                    &[
                        "compute_map_into",
                        "band_spectra_f32",
                        "compute_map_reference_into",
                        "fill_lag_tables",
                        "ensure_len",
                    ],
                ),
                // Pure steering kernels: everything here runs per frame.
                entry("crates/ssl/src/srp_kernels.rs", &[]),
                // Conventional SRP-PHAT steering loop + map utilities that the
                // per-frame path touches.
                entry(
                    "crates/ssl/src/srp_phat.rs",
                    &[
                        "peak",
                        "peaks_into",
                        "zero",
                        "smooth_from",
                        "cross_spectra_into",
                        "compute_map_into",
                    ],
                ),
                // Multi-target tracker: per-frame association and snapshots.
                entry(
                    "crates/ssl/src/multitrack.rs",
                    &[
                        "update",
                        "hits_in_window",
                        "snapshot",
                        "tracks",
                        "best",
                        "confirmed_count",
                    ],
                ),
                // Single-track Kalman core.
                entry(
                    "crates/ssl/src/tracking.rs",
                    &["update", "coast", "state", "wrap_deg"],
                ),
                // Stage graph: the per-frame drive loop, including the traced
                // variant and the per-stage observation wrapper.
                entry(
                    "crates/core/src/stages.rs",
                    &[
                        "classify",
                        "localize_peaks",
                        "track_peaks",
                        "run_frame",
                        "run_frame_observed",
                        "mix_down",
                        "observe",
                    ],
                ),
                // Session frame path: chunk ingestion, framing, the per-frame
                // drive loop and event emission.
                entry(
                    "crates/core/src/api.rs",
                    &[
                        "with_channel_views",
                        "process_frame_with",
                        "push_input_with",
                        "push_chunk_with",
                        "ingest_and_drain",
                        "push_interleaved",
                    ],
                ),
                entry("crates/core/src/trigger.rs", &["process_frame"]),
                entry("crates/dsp/src/level.rs", &["signal_power"]),
                // Detection front-end: per-frame features and template match.
                entry(
                    "crates/sed/src/baseline.rs",
                    &["predict_with_confidence_into", "mean_log_mel_into"],
                ),
                entry("crates/features/src/mel.rs", &["apply_into"]),
                entry("crates/features/src/spectrogram.rs", &["power_frame_into"]),
                // Observability substrate: everything a traced frame touches.
                // Registration and snapshotting are cold and allocate by
                // design; the record/push/read paths may not.
                entry("crates/obs/src/ring.rs", &["push", "read_at"]),
                entry("crates/obs/src/span.rs", &["record", "read_at"]),
                entry(
                    "crates/obs/src/registry.rs",
                    &[
                        "incr",
                        "add",
                        "set",
                        "get",
                        "record",
                        "record_us",
                        "count",
                        "bucket_index",
                    ],
                ),
                entry("crates/obs/src/tick.rs", &["ticks", "delta"]),
                // Roadsim render inner loop: the per-sample path update and
                // the geometry helpers it calls for every source-mic pair.
                // Path *construction* (`build_path`) precomputes per-sample
                // tables and allocates by design.
                entry(
                    "crates/roadsim/src/engine.rs",
                    &["process", "effective_position"],
                ),
                entry(
                    "crates/roadsim/src/environment.rs",
                    &[
                        "gain",
                        "image_across_wall",
                        "wall_ys",
                        "contains_y",
                        "smoothstep01",
                    ],
                ),
                // Streaming substrate. `FrameAssembler::grow` is deliberately
                // absent: it reallocates the window only when a larger chunk
                // than any before arrives, so steady state never reaches it.
                entry(
                    "crates/dsp/src/framing.rs",
                    &[
                        "push",
                        "push_planar",
                        "push_interleaved",
                        "reserve",
                        "slide",
                        "settle_discard",
                        "frame_ready",
                        "emit_with",
                        "emit_into",
                        // `FrameCountdown`, run by the host per accepted chunk.
                        "advance",
                    ],
                ),
                entry(
                    "crates/dsp/src/ring.rs",
                    &[
                        "write",
                        "write_iter",
                        "read",
                        "peek",
                        "skip",
                        "clear",
                        "available",
                        "free",
                    ],
                ),
                // `bluestein_transform` is deliberately absent: it is the cold
                // fallback for non-power-of-two sizes, which the realtime
                // pipeline never configures (frame lengths are powers of two),
                // and it allocates its convolution buffers per call.
                entry(
                    "crates/dsp/src/fft.rs",
                    &[
                        "forward_real_into",
                        "forward_real_pair_into",
                        "split_pair_bin",
                        "inverse_real_into",
                        "check_len",
                        "forward_from",
                        "transform_in_place",
                        "butterflies",
                        "butterflies_scalar",
                        "butterflies_avx2",
                    ],
                ),
                entry("crates/dsp/src/stft.rs", &["frame_spectrum_into"]),
                // SIMD layer: pure kernels, all hot.
                entry("crates/dsp/src/simd.rs", &[]),
                // Serving layer: the per-chunk host path — submit, dispatch,
                // drain, metered delivery. Open/close and pool construction
                // are cold control-plane code and allocate by design.
                entry(
                    "crates/serve/src/host.rs",
                    &[
                        "push_chunk",
                        "schedule",
                        "next_ready",
                        "is_paused",
                        "note_transitions",
                    ],
                ),
                entry(
                    "crates/serve/src/worker.rs",
                    &[
                        "worker_loop",
                        "drain_slot",
                        "process_chunk",
                        "on_event",
                        "on_frame",
                    ],
                ),
                entry(
                    "crates/serve/src/ring.rs",
                    &[
                        "push_planar",
                        "pop_swap",
                        "with_views",
                        "len",
                        "deferred",
                        "is_due",
                        "enqueued",
                    ],
                ),
                entry(
                    "crates/serve/src/load.rs",
                    &[
                        "on_enqueue",
                        "on_complete",
                        "level",
                        "in_flight",
                        "evaluate",
                    ],
                ),
                entry("crates/serve/src/metrics.rs", &["record", "incr", "add"]),
                // Tracing adapters on the per-frame path: the observer hook
                // and the live-feed publishers.
                entry("crates/serve/src/observe.rs", &["on_span", "stage"]),
                entry(
                    "crates/serve/src/feed.rs",
                    &["push_event", "push_transition", "cursor", "oldest"],
                ),
                entry("crates/serve/src/lib.rs", &["relock"]),
            ],
            mul_add_wrappers: vec!["crates/dsp/src/simd.rs".to_string()],
            ordered_scoring_files: vec![
                "crates/ssl/src/metrics.rs".to_string(),
                "crates/sed/src/metrics.rs".to_string(),
                "crates/bench/src/scenarios.rs".to_string(),
                "crates/bench/src/matrix.rs".to_string(),
            ],
            all_files_hot: false,
        }
    }

    /// Fixture mode: every file is hot-path, determinism-scoped and
    /// ordering-scoped, so seeded-violation fixtures trip every rule without
    /// having to live at manifest paths.
    pub fn all_hot() -> Self {
        Manifest {
            all_files_hot: true,
            ..Manifest::default()
        }
    }

    /// Hot-path scope for a file (matched by path suffix), if any.
    pub fn hot_scope(&self, rel_path: &str) -> Option<HotScope> {
        if self.all_files_hot {
            return Some(HotScope::AllFunctions);
        }
        self.hot_paths
            .iter()
            .find(|e| rel_path.ends_with(e.file.as_str()))
            .map(|e| e.scope.clone())
    }

    /// Whether bare `mul_add` is allowed in this file.
    pub fn is_mul_add_wrapper(&self, rel_path: &str) -> bool {
        !self.all_files_hot
            && self
                .mul_add_wrappers
                .iter()
                .any(|f| rel_path.ends_with(f.as_str()))
    }

    /// Whether this file is ordering-sensitive scoring/metrics code.
    pub fn is_ordered_scoring(&self, rel_path: &str) -> bool {
        self.all_files_hot
            || self
                .ordered_scoring_files
                .iter()
                .any(|f| rel_path.ends_with(f.as_str()))
    }
}
