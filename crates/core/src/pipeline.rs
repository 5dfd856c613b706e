//! The end-to-end reverse-engineering pipeline.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hifi_circuit::identify::TopologyLibrary;
use hifi_circuit::topology::{SaDimensions, SaTopologyKind};
use hifi_circuit::TransistorClass;
use hifi_data::Chip;
use hifi_extract::{measure, ExtractError, Extraction, MeasurementConfidence, MeasurementReport};
use hifi_faults::{Exhausted, FaultPlan, FaultSpec, RetryError, RetryPolicy, VirtualClock};
use hifi_imaging::{
    acquire_with, align_with, denoise_profiled, metrics, reconstruct, render_ideal, AlignMethod,
    ImagingConfig,
};
use hifi_store::fingerprint::salts;
use hifi_store::{
    codec, fault_fingerprint, imaging_fingerprint, spec_fingerprint, stage, ArtifactStore, Key,
    StoreError,
};
use hifi_synth::{generate_region, SaRegionSpec};
use hifi_telemetry::{
    names, with_span, ConfigEcho, JsonRecorder, LaneProfiler, NoopRecorder, Recorder, RunReport,
};
use hifi_units::Ratio;

/// Error produced by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Circuit extraction failed.
    Extract(ExtractError),
    /// The requested window pair index is out of range.
    WindowOutOfRange {
        /// Requested pair.
        pair: usize,
        /// Pairs available.
        available: usize,
    },
    /// The (possibly reconstructed) volume does not extend to the
    /// requested cell window, so cropping it would be empty — e.g. a
    /// degenerate imaging configuration collapsed the stack to a handful
    /// of slices that never reach the SA circuitry.
    EmptyWindow {
        /// Requested pair.
        pair: usize,
        /// The volume's x/y extent in voxels.
        volume_dims: (usize, usize),
    },
    /// The artifact store failed at the I/O level (corrupted blobs do
    /// *not* produce this — they are evicted and recomputed silently).
    /// Transient store failures are retried under the configured
    /// [`RetryPolicy`] first; only non-transient ones surface here.
    Store(StoreError),
    /// A retried operation (store I/O or a guarded stage) kept failing
    /// transiently until its [`RetryPolicy`] budget ran out.
    GaveUp(Exhausted),
}

impl core::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipelineError::Extract(e) => write!(f, "extraction failed: {e}"),
            PipelineError::WindowOutOfRange { pair, available } => {
                write!(f, "window pair {pair} out of range ({available} pairs)")
            }
            PipelineError::EmptyWindow { pair, volume_dims } => {
                write!(
                    f,
                    "cell window {pair} lies outside the {}x{} voxel volume",
                    volume_dims.0, volume_dims.1
                )
            }
            PipelineError::Store(e) => write!(f, "artifact store failed: {e}"),
            PipelineError::GaveUp(e) => write!(f, "retries exhausted: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Extract(e) => Some(e),
            PipelineError::WindowOutOfRange { .. } => None,
            PipelineError::EmptyWindow { .. } => None,
            PipelineError::Store(e) => Some(e),
            PipelineError::GaveUp(e) => Some(e),
        }
    }
}

impl From<ExtractError> for PipelineError {
    fn from(e: ExtractError) -> Self {
        PipelineError::Extract(e)
    }
}

impl From<StoreError> for PipelineError {
    fn from(e: StoreError) -> Self {
        PipelineError::Store(e)
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The region to generate.
    pub spec: SaRegionSpec,
    /// Imaging simulation; `None` extracts from the pristine volume (an
    /// upper bound on fidelity, useful for isolating extraction issues).
    pub imaging: Option<ImagingConfig>,
    /// TV-denoise strength (λ) when imaging is enabled.
    pub denoise_lambda: f32,
    /// TV-denoise iterations.
    pub denoise_iterations: usize,
    /// Alignment search window (pixels).
    pub align_window: i32,
    /// Which bitline pair's cell window to extract.
    pub window_pair: usize,
    /// Artifact store root for incremental execution; `None` falls back to
    /// the `HIFI_STORE` environment variable, and caching stays off when
    /// neither is set. Cached stages are replayed bit-identically, so a
    /// warm run's report matches a store-less run's.
    pub store: Option<PathBuf>,
    /// An already-open artifact store shared across runs; takes precedence
    /// over [`Self::store`] and the environment. Long-running callers (the
    /// job server's worker pipelines) open the store once and hand every
    /// run the same handle, skipping the per-run `open` (directory
    /// creation, legacy-layout probe) entirely.
    pub store_handle: Option<Arc<ArtifactStore>>,
    /// Fault-injection plan for this run; `None` runs the clean pipeline.
    /// With a plan whose every fault is recoverable under [`Self::retry`]
    /// (`retry.max_retries >= faults.max_consecutive`), outputs are
    /// byte-identical to the clean run at any thread count. Enabled plans
    /// salt the cache keys (see [`hifi_store::fault_fingerprint`]), so
    /// faulted and clean runs never share store artifacts.
    pub faults: Option<FaultSpec>,
    /// How transient failures (injected or environmental) are retried.
    pub retry: RetryPolicy,
}

impl PipelineConfig {
    /// Extraction from the pristine generated volume (no imaging noise).
    pub fn pristine(topology: SaTopologyKind) -> Self {
        Self {
            spec: SaRegionSpec::new(topology).with_pairs(1),
            imaging: None,
            denoise_lambda: 2.0,
            denoise_iterations: 10,
            align_window: 4,
            window_pair: 0,
            store: None,
            store_handle: None,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Enables the artifact store rooted at `path` for this pipeline.
    pub fn with_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Reuses an already-open artifact store for this pipeline (builder
    /// style). See [`Self::store_handle`].
    pub fn with_store_handle(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store_handle = Some(store);
        self
    }

    /// Enables fault injection under `spec` for this pipeline.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Sets the retry policy for transient failures (builder style).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Full pipeline with simulated FIB/SEM imaging in between.
    pub fn with_imaging(topology: SaTopologyKind, imaging: ImagingConfig) -> Self {
        Self {
            imaging: Some(imaging),
            ..Self::pristine(topology)
        }
    }

    /// Uses a studied chip's measured dimensions and topology, emulating the
    /// reverse engineering of that chip.
    pub fn for_chip(chip: &Chip) -> Self {
        let mut cfg = Self::pristine(chip.topology());
        cfg.spec = cfg
            .spec
            .with_dims(dims_for_chip(chip))
            .with_transition_nm(chip.geometry().mat_to_sa_transition.value().round() as i64);
        cfg
    }
}

/// Builds generator dimensions from a chip's measured dataset entry
/// (classes the chip lacks fall back to scaled defaults, mirroring
/// Section VI-C's procedure for missing isolation transistors).
pub fn dims_for_chip(chip: &Chip) -> SaDimensions {
    let defaults = SaDimensions::default();
    let get = |class: TransistorClass, fallback| {
        chip.transistor(class).map(|t| t.dims).unwrap_or(fallback)
    };
    SaDimensions {
        nsa: get(TransistorClass::NSa, defaults.nsa),
        psa: get(TransistorClass::PSa, defaults.psa),
        precharge: get(TransistorClass::Precharge, defaults.precharge),
        equalizer: get(TransistorClass::Equalizer, defaults.equalizer),
        column: get(TransistorClass::Column, defaults.column),
        isolation: get(TransistorClass::Isolation, defaults.isolation),
        offset_cancel: get(TransistorClass::OffsetCancel, defaults.offset_cancel),
    }
}

/// The pipeline's findings, validated against generator ground truth.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Topology the extracted netlist was identified as (`None` = no match
    /// in the library).
    pub identified: Option<SaTopologyKind>,
    /// The topology that was actually generated.
    pub expected: SaTopologyKind,
    /// Per-class dimension measurements.
    pub measurement: MeasurementReport,
    /// Worst relative deviation of measured vs ground-truth dimensions.
    pub worst_dimension_deviation: Option<Ratio>,
    /// Number of transistors extracted from the window.
    pub device_count: usize,
    /// Alignment corrections applied per slice (empty without imaging).
    pub alignment_corrections: Vec<(i32, i32)>,
    /// The raw extraction, for further analysis.
    pub extraction: Extraction,
    /// Provenance record of the run: config echo, per-stage wall times,
    /// counters and fidelity metrics. `None` unless the pipeline ran via
    /// [`Pipeline::run_instrumented`].
    pub telemetry: Option<RunReport>,
}

impl PipelineReport {
    /// Whether the identified topology matches the generated one.
    pub fn topology_correct(&self) -> bool {
        self.identified == Some(self.expected)
    }

    /// Drives the MNA transient engine with the *extracted* netlist: infers
    /// the sense-amp roles from connectivity alone, attaches a cell storing
    /// `stored_one` and runs the topology's activation schedule. This is the
    /// behavioural half of extraction fidelity — a netlist can be graph-
    /// isomorphic to the ground truth and still sense the wrong value if the
    /// extraction mangled dimensions or polarities.
    pub fn simulate_activation(
        &self,
        cfg: &hifi_analog::events::ActivationConfig,
        stored_one: bool,
    ) -> Result<hifi_analog::events::SenseReport, hifi_analog::SimError> {
        hifi_analog::events::simulate_extracted_activation(
            &self.extraction.netlist,
            cfg,
            stored_one,
        )
    }
}

/// The end-to-end pipeline driver.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The configuration this pipeline runs.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Regenerates the synthetic region this pipeline images — the ground
    /// truth every run is judged against. Generation is deterministic, so
    /// this matches the region [`Pipeline::run`] builds internally;
    /// conformance harnesses use it for netlist/dimension oracles without
    /// re-plumbing the generator.
    pub fn region(&self) -> hifi_synth::SaRegion {
        generate_region(&self.config.spec)
    }

    /// Runs generate → (image → post-process → reconstruct) → extract →
    /// identify → measure.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if extraction or classification fails or
    /// the window index is invalid.
    pub fn run(&self) -> Result<PipelineReport, PipelineError> {
        self.run_with(&mut NoopRecorder)
    }

    /// Runs the pipeline with a [`JsonRecorder`] attached and returns the
    /// report with [`PipelineReport::telemetry`] populated: per-stage wall
    /// times, extraction counters, and — for imaged runs — the fidelity
    /// metrics of Section IV (PSNR before/after denoising against the
    /// ideal render, voxel accuracy against the pristine volume, residual
    /// drift against the acquisition's ground truth).
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::run`].
    pub fn run_instrumented(&self) -> Result<PipelineReport, PipelineError> {
        let mut rec = JsonRecorder::new();
        let mut report = self.run_with(&mut rec)?;
        report.telemetry = Some(RunReport::from_events(self.config_echo(), rec.events()));
        // Opt-in trace sink: HIFI_TRACE=<path> captures every instrumented
        // run's event stream and rewrites the Chrome trace, raw events and
        // profile documents (see `crate::trace_out`).
        crate::trace_out::record(&self.trace_label(), rec.events());
        Ok(report)
    }

    /// Short human label identifying this run in trace exports.
    fn trace_label(&self) -> String {
        let cfg = &self.config;
        let mut label = cfg.spec.topology.name().to_string();
        if cfg.imaging.is_some() {
            label.push_str("+imaging");
        }
        if cfg.faults.as_ref().is_some_and(FaultSpec::is_enabled) {
            label.push_str("+faults");
        }
        if cfg.store.is_some() {
            label.push_str("+store");
        }
        label
    }

    /// Echo of this pipeline's configuration for a [`RunReport`].
    pub fn config_echo(&self) -> ConfigEcho {
        let cfg = &self.config;
        ConfigEcho {
            topology: cfg.spec.topology.name().to_string(),
            n_pairs: cfg.spec.n_pairs as u32,
            voxel_nm: cfg.spec.voxel_nm,
            imaging: cfg.imaging.is_some(),
            dwell_us: cfg.imaging.as_ref().map(|i| i.dwell_us),
            drift_sigma_px: cfg.imaging.as_ref().map(|i| i.drift_sigma_px),
            slice_voxels: cfg.imaging.as_ref().map(|i| i.slice_voxels as u32),
            seed: cfg.imaging.as_ref().map(|i| i.seed),
            denoise_lambda: cfg.denoise_lambda as f64,
            denoise_iterations: cfg.denoise_iterations as u32,
            align_window: cfg.align_window.max(0) as u32,
            window_pair: cfg.window_pair as u32,
            faults: cfg.faults.as_ref().is_some_and(FaultSpec::is_enabled),
            fault_seed: cfg.faults.as_ref().map(|s| s.seed),
        }
    }

    /// Resolves the artifact store for this run: a shared handle if the
    /// caller provided one, else the config's path, else the `HIFI_STORE`
    /// environment variable, else caching off. The run's fault plan (if
    /// any) is attached so store I/O participates in injection.
    fn resolve_store(
        &self,
        plan: Option<&Arc<FaultPlan>>,
    ) -> Result<Option<ArtifactStore>, PipelineError> {
        if let Some(handle) = &self.config.store_handle {
            // Clone the cheap handle (PathBuf + Arcs), then attach this
            // run's plan: fault salting stays per-run even though the
            // underlying store directory is shared.
            let mut store = (**handle).clone();
            if let Some(plan) = plan {
                store = store.with_fault_plan(plan.clone());
            }
            return Ok(Some(store));
        }
        let path = self.config.store.clone().or_else(|| {
            std::env::var_os("HIFI_STORE")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        });
        Ok(match path {
            Some(p) => {
                let mut store = ArtifactStore::open(p)?;
                if let Some(plan) = plan {
                    store = store.with_fault_plan(plan.clone());
                }
                Some(store)
            }
            None => None,
        })
    }

    /// [`Pipeline::run`] recording into an arbitrary [`Recorder`].
    ///
    /// Every stage runs inside a span; when `rec` is enabled and imaging is
    /// configured, the fidelity of each post-processing step is measured
    /// against ground truth the real analyst never has (the ideal render,
    /// the pristine volume, the true drift) and recorded as gauges.
    ///
    /// When an artifact store is configured (see [`PipelineConfig::store`]),
    /// the expensive stages — voxelize, acquire, post-process, reconstruct,
    /// extract — first consult the store under a key chaining the canonical
    /// configuration through every upstream stage; hits replay the stored
    /// artifact bit-identically and record `store.hit`, misses compute and
    /// persist the result. Replayed stages skip their spans and internal
    /// counters (the work they describe did not run).
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::run`], plus [`PipelineError::Store`] when a
    /// configured store fails at the I/O level.
    pub fn run_with<R: Recorder>(&self, rec: &mut R) -> Result<PipelineReport, PipelineError> {
        let cfg = &self.config;
        if cfg.window_pair >= cfg.spec.n_pairs {
            return Err(PipelineError::WindowOutOfRange {
                pair: cfg.window_pair,
                available: cfg.spec.n_pairs,
            });
        }
        // A fresh plan per run: injection is a pure function of the spec,
        // so repeated runs of one config see exactly the same faults.
        let ctx = FaultCtx {
            plan: cfg.faults.clone().map(|s| Arc::new(FaultPlan::new(s))),
            policy: cfg.retry.clone(),
            clock: VirtualClock::new(),
            backoffs: RefCell::new(Vec::new()),
        };
        let store = self.resolve_store(ctx.plan.as_ref())?;
        // Per-slice lane profiling and the allocation high-water mark are
        // collected only for instrumented runs; a NoopRecorder run skips
        // both entirely (the <2% overhead budget).
        let lanes = if rec.enabled() {
            hifi_telemetry::alloc::reset_peak();
            Some(LaneProfiler::new(rec.now_us()))
        } else {
            None
        };
        // Provenance: which thread count the parallel stages (acquire,
        // align, denoise) resolved to for this run.
        rec.gauge(names::PARALLEL_THREADS, rayon::current_num_threads() as f64);
        let region = with_span(rec, "generate", |_| generate_region(&cfg.spec));

        // An enabled plan may degrade artifacts; salt the root key so
        // faulted and clean runs never share cache entries (key chaining
        // propagates the salt to every downstream stage).
        let mut vox_fp = stage(salts::VOXELIZE, spec_fingerprint(&cfg.spec));
        if let Some(spec) = cfg.faults.as_ref().filter(|s| s.is_enabled()) {
            vox_fp.key(fault_fingerprint(spec));
        }
        let vox_key = vox_fp.finish();
        let pristine = match fetch(&store, &ctx, rec, vox_key, "voxelize", codec::decode_volume)? {
            Some(v) => v,
            None => {
                let v = guarded(&ctx, "voxelize", || {
                    with_span(rec, "voxelize", |_| region.voxelize())
                })?;
                persist(&store, &ctx, rec, vox_key, "voxelize", || {
                    codec::encode_volume(&v)
                })?;
                v
            }
        };

        let (volume, corrections, upstream_key, degraded_slices, total_slices) = match &cfg.imaging
        {
            None => (pristine, Vec::new(), vox_key, Vec::new(), 0),
            Some(imaging_cfg) => {
                let acq_key = stage(salts::ACQUIRE, vox_key)
                    .key(imaging_fingerprint(imaging_cfg))
                    .finish();
                let (mut stack, truth, degraded_slices) = match fetch(
                    &store,
                    &ctx,
                    rec,
                    acq_key,
                    "acquire",
                    codec::decode_acquisition,
                )? {
                    Some(triple) => triple,
                    None => {
                        let faults = ctx.plan.as_deref().map(|p| (p, &ctx.policy, &ctx.clock));
                        let outcome = with_span(rec, "acquire", |_| {
                            acquire_with(&pristine, imaging_cfg, faults, lanes.as_ref())
                        });
                        persist(&store, &ctx, rec, acq_key, "acquire", || {
                            codec::encode_acquisition(
                                &outcome.stack,
                                &outcome.truth,
                                &outcome.degraded_slices,
                            )
                        })?;
                        (outcome.stack, outcome.truth, outcome.degraded_slices)
                    }
                };
                // Fidelity baseline: mean per-slice PSNR of the raw
                // acquisition against what a perfect microscope would see.
                let ideal = if rec.enabled() {
                    let ideal = render_ideal(&pristine, imaging_cfg, lanes.as_ref());
                    rec.gauge(names::PSNR_NOISY, mean_stack_psnr(&stack, &ideal));
                    Some(ideal)
                } else {
                    None
                };
                let post_key = stage(salts::POSTPROC, acq_key)
                    .f64(f64::from(cfg.denoise_lambda))
                    .u64(cfg.denoise_iterations as u64)
                    .i64(i64::from(cfg.align_window))
                    .finish();
                let corrections = match fetch(
                    &store,
                    &ctx,
                    rec,
                    post_key,
                    "postproc",
                    codec::decode_processed,
                )? {
                    Some((processed, corrections)) => {
                        stack = processed;
                        corrections
                    }
                    None => {
                        with_span(rec, "normalize", |_| stack.normalize_brightness());
                        // Alignment first (registration uses median-filtered
                        // copies internally), then light TV denoising.
                        // Averaging along the milling axis is available
                        // (`average_slices`) but blends across any residual
                        // per-slice misalignment, so the default pipeline
                        // relies on TV alone.
                        let corrections = with_span(rec, "align", |rec| {
                            align_with(
                                &mut stack,
                                AlignMethod::MutualInformation,
                                cfg.align_window,
                                rec,
                            )
                        });
                        with_span(rec, "denoise", |_| {
                            denoise_profiled(
                                &mut stack,
                                cfg.denoise_lambda,
                                cfg.denoise_iterations,
                                lanes.as_ref(),
                            )
                        });
                        persist(&store, &ctx, rec, post_key, "postproc", || {
                            codec::encode_processed(&stack, &corrections)
                        })?;
                        corrections
                    }
                };
                let recon_key = stage(salts::RECONSTRUCT, post_key).finish();
                let volume = match fetch(
                    &store,
                    &ctx,
                    rec,
                    recon_key,
                    "reconstruct",
                    codec::decode_volume,
                )? {
                    Some(v) => v,
                    None => {
                        let v = guarded(&ctx, "reconstruct", || {
                            with_span(rec, "reconstruct", |_| reconstruct(&stack))
                        })?;
                        persist(&store, &ctx, rec, recon_key, "reconstruct", || {
                            codec::encode_volume(&v)
                        })?;
                        v
                    }
                };
                if let Some(ideal) = &ideal {
                    rec.gauge(names::PSNR_DENOISED, mean_stack_psnr(&stack, ideal));
                    rec.gauge(
                        names::VOXEL_ACCURACY,
                        metrics::voxel_accuracy(&volume, &pristine),
                    );
                    rec.gauge(
                        names::RESIDUAL_DRIFT,
                        metrics::residual_drift(&corrections, &truth),
                    );
                    let (_, slice_height) = stack.slice(0).dims();
                    rec.gauge(
                        names::ALIGNMENT_BUDGET,
                        metrics::alignment_budget_px(slice_height),
                    );
                }
                let total_slices = stack.len();
                (
                    volume,
                    corrections,
                    recon_key,
                    degraded_slices,
                    total_slices,
                )
            }
        };

        let ext_key = stage(salts::EXTRACT, upstream_key)
            .u64(cfg.window_pair as u64)
            .finish();
        let (extraction, cached_measurement) = match fetch(
            &store,
            &ctx,
            rec,
            ext_key,
            "extract",
            codec::decode_extraction,
        )? {
            Some((extraction, measurement)) => (extraction, Some(measurement)),
            None => {
                // Crop to one cell's SA window, as the analyst crops
                // the ROI. A volume that stops short of the window is a
                // typed error, not a panic (degenerate reconstructions).
                let cropped = with_span(rec, "crop", |_| {
                    region.window_volume(&volume, cfg.window_pair)
                });
                let cropped = cropped.ok_or_else(|| {
                    let (nx, ny, _) = volume.dims();
                    PipelineError::EmptyWindow {
                        pair: cfg.window_pair,
                        volume_dims: (nx, ny),
                    }
                })?;
                let extraction = guarded(&ctx, "extract", || {
                    with_span(rec, "extract", |rec| {
                        hifi_extract::extract_with(&cropped, rec)
                    })
                })??;
                (extraction, None)
            }
        };
        let ext_was_cached = cached_measurement.is_some();
        let identified = with_span(rec, "identify", |_| {
            TopologyLibrary::standard().identify(&extraction.netlist)
        });
        let (measurement, worst) = with_span(rec, "measure", |_| {
            // Cached extractions carry their confidence in the blob; fresh
            // ones inherit it from this run's degraded slices (if any).
            let measurement = cached_measurement.unwrap_or_else(|| {
                let mut m = measure(&extraction);
                if !degraded_slices.is_empty() {
                    m.confidence = MeasurementConfidence::degraded(degraded_slices, total_slices);
                }
                m
            });
            let worst = measurement.worst_deviation(&region.ground_truth().cell.dims_by_class);
            (measurement, worst)
        });
        if !ext_was_cached {
            persist(&store, &ctx, rec, ext_key, "extract", || {
                codec::encode_extraction(&extraction, &measurement)
            })?;
        }
        if let Some(w) = &worst {
            rec.gauge(names::WORST_DIMENSION_DEVIATION, w.value());
        }
        if let Some(plan) = ctx.plan.as_deref() {
            let t = plan.tally();
            if t.injected > 0 {
                rec.counter(names::FAULT_INJECTED, t.injected);
            }
            if t.retried > 0 {
                rec.counter(names::FAULT_RETRIED, t.retried);
            }
            if t.recovered > 0 {
                rec.counter(names::FAULT_RECOVERED, t.recovered);
            }
            if t.degraded > 0 {
                rec.counter(names::FAULT_DEGRADED, t.degraded);
            }
            let waited = ctx.clock.elapsed();
            if !waited.is_zero() {
                rec.gauge(names::FAULT_BACKOFF_MS, waited.as_secs_f64() * 1e3);
            }
        }
        // Flush the run's profiling collectors into the event stream: one
        // thread-span event (plus a latency histogram sample) per timed
        // per-slice closure, one histogram sample per retry backoff, and
        // the allocation high-water mark when the counting allocator is
        // installed (feature `alloc-track`).
        if let Some(lanes) = &lanes {
            for span in lanes.drain() {
                rec.thread_span(&span.name, span.tid, span.start_us, span.duration_us);
                rec.histogram(&format!("{}_us", span.name), span.duration_us);
            }
            for delay in ctx.backoffs.borrow_mut().drain(..) {
                rec.histogram(names::HIST_FAULT_BACKOFF_US, delay.as_micros() as u64);
            }
            if let Some(peak) = hifi_telemetry::alloc::peak_bytes() {
                rec.gauge(names::ALLOC_PEAK_BYTES, peak as f64);
            }
        }

        Ok(PipelineReport {
            identified,
            expected: cfg.spec.topology,
            device_count: extraction.devices.len(),
            worst_dimension_deviation: worst,
            measurement,
            alignment_corrections: corrections,
            extraction,
            telemetry: None,
        })
    }
}

/// The per-run fault machinery: the plan (if injection is configured),
/// the retry policy, and the virtual clock that backoff waits advance.
struct FaultCtx {
    plan: Option<Arc<FaultPlan>>,
    policy: RetryPolicy,
    clock: VirtualClock,
    /// Backoff delays observed by retried operations this run, drained
    /// into the `fault.backoff_delay_us` histogram at the end of the run.
    backoffs: RefCell<Vec<Duration>>,
}

impl FaultCtx {
    /// Runs a store operation under the retry policy. Transient failures
    /// (injected or environmental, per [`StoreError::is_transient`]) back
    /// off on the virtual clock and feed the plan's recovery tallies;
    /// non-transient ones surface immediately as [`PipelineError::Store`].
    fn retrying<T>(
        &self,
        site: &str,
        mut op: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, PipelineError> {
        match hifi_faults::retry_observed(
            &self.policy,
            &self.clock,
            StoreError::is_transient,
            |_retry, delay| self.backoffs.borrow_mut().push(delay),
            |_| op(),
        ) {
            Ok((value, retries)) => {
                if retries > 0 {
                    if let Some(plan) = &self.plan {
                        plan.record_retried(u64::from(retries));
                        plan.record_recovered(1);
                    }
                }
                Ok(value)
            }
            Err(RetryError::Fatal(e)) => Err(PipelineError::Store(e)),
            Err(RetryError::GaveUp(gave_up)) => {
                if let Some(plan) = &self.plan {
                    plan.record_retried(u64::from(gave_up.attempts.saturating_sub(1)));
                }
                Err(PipelineError::GaveUp(gave_up.into_exhausted(site)))
            }
        }
    }
}

/// Runs a pure stage under the stage-panic guard. With no plan attached
/// the stage runs bare; with one, the plan may trip an injected panic and
/// the unwind is caught and retried as a transient failure. Injected
/// panics fire *before* the stage body (see [`FaultPlan::trip_stage`]), so
/// nothing is half-mutated when the unwind crosses the `AssertUnwindSafe`.
/// Only pure stages are guarded — the post-processing steps mutate their
/// stack in place, so rerunning them after an unwind would be unsound.
fn guarded<T>(
    ctx: &FaultCtx,
    stage_name: &'static str,
    mut f: impl FnMut() -> T,
) -> Result<T, PipelineError> {
    let Some(plan) = ctx.plan.as_deref() else {
        return Ok(f());
    };
    let outcome = hifi_faults::retry_observed(
        &ctx.policy,
        &ctx.clock,
        |_: &String| true,
        |_retry, delay| ctx.backoffs.borrow_mut().push(delay),
        |_attempt| {
            catch_unwind(AssertUnwindSafe(|| {
                plan.trip_stage(stage_name);
                f()
            }))
            .map_err(|payload| panic_message(payload.as_ref()))
        },
    );
    let site = || format!("stage:{stage_name}");
    match outcome {
        Ok((value, retries)) => {
            if retries > 0 {
                plan.record_retried(u64::from(retries));
                plan.record_recovered(1);
            }
            Ok(value)
        }
        // Every panic is treated as transient, so `Fatal` cannot occur;
        // map it defensively rather than asserting unreachability.
        Err(RetryError::Fatal(message)) => Err(PipelineError::GaveUp(Exhausted {
            site: site(),
            attempts: 1,
            last_error: message,
            waited: std::time::Duration::ZERO,
        })),
        Err(RetryError::GaveUp(gave_up)) => {
            plan.record_retried(u64::from(gave_up.attempts.saturating_sub(1)));
            Err(PipelineError::GaveUp(gave_up.into_exhausted(site())))
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stage panicked".to_string()
    }
}

/// Looks `key` up in the store (when one is configured), decodes on hit,
/// and records the hit/miss and bytes-read counters. A blob that passes
/// the store checksum but fails to decode (written by an incompatible
/// build) counts as a miss and is recomputed. Transient read failures are
/// retried via [`FaultCtx::retrying`].
fn fetch<R: Recorder, T>(
    store: &Option<ArtifactStore>,
    ctx: &FaultCtx,
    rec: &mut R,
    key: Key,
    what: &str,
    decode: impl FnOnce(&[u8]) -> Result<T, hifi_store::CodecError>,
) -> Result<Option<T>, PipelineError> {
    let Some(store) = store else { return Ok(None) };
    let t0 = rec.enabled().then(Instant::now);
    let got = ctx.retrying(&format!("store.get:{what}"), || store.get(key))?;
    if let Some(t0) = t0 {
        rec.histogram(names::HIST_STORE_GET_US, t0.elapsed().as_micros() as u64);
    }
    match got {
        Some(bytes) => match decode(&bytes) {
            Ok(value) => {
                rec.counter(names::STORE_HIT, 1);
                rec.counter(names::STORE_BYTES_READ, bytes.len() as u64);
                rec.histogram(names::HIST_STORE_GET_BYTES, bytes.len() as u64);
                Ok(Some(value))
            }
            Err(_) => {
                rec.counter(names::STORE_MISS, 1);
                Ok(None)
            }
        },
        None => {
            rec.counter(names::STORE_MISS, 1);
            Ok(None)
        }
    }
}

/// Persists a freshly computed artifact (when a store is configured) and
/// records the bytes-written counter. `encode` is only invoked when a
/// store is present. Transient write failures are retried via
/// [`FaultCtx::retrying`].
fn persist<R: Recorder>(
    store: &Option<ArtifactStore>,
    ctx: &FaultCtx,
    rec: &mut R,
    key: Key,
    what: &str,
    encode: impl FnOnce() -> Vec<u8>,
) -> Result<(), PipelineError> {
    let Some(store) = store else { return Ok(()) };
    let bytes = encode();
    let t0 = rec.enabled().then(Instant::now);
    ctx.retrying(&format!("store.put:{what}"), || store.put(key, &bytes))?;
    if let Some(t0) = t0 {
        rec.histogram(names::HIST_STORE_PUT_US, t0.elapsed().as_micros() as u64);
        rec.histogram(names::HIST_STORE_PUT_BYTES, bytes.len() as u64);
    }
    rec.counter(names::STORE_BYTES_WRITTEN, bytes.len() as u64);
    Ok(())
}

/// Mean per-slice PSNR of a stack against a reference stack of identical
/// geometry; slices with infinite PSNR (bit-identical) are capped at 99 dB
/// so the mean stays finite.
fn mean_stack_psnr(stack: &hifi_imaging::ImageStack, reference: &hifi_imaging::ImageStack) -> f64 {
    let n = stack.len().min(reference.len());
    if n == 0 {
        return 0.0;
    }
    let total: f64 = (0..n)
        .map(|i| metrics::psnr(stack.slice(i), reference.slice(i)).min(99.0))
        .sum();
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracted_netlists_sense_both_stored_values() {
        let cfg = hifi_analog::events::ActivationConfig::default();
        for kind in [SaTopologyKind::Classic, SaTopologyKind::OffsetCancellation] {
            let report = Pipeline::new(PipelineConfig::pristine(kind)).run().unwrap();
            for stored in [false, true] {
                let sense = report.simulate_activation(&cfg, stored).unwrap();
                assert!(
                    sense.correct,
                    "{kind:?} extraction stored {stored} sensed {}",
                    sense.sensed_one
                );
            }
        }
    }

    #[test]
    fn pristine_pipeline_identifies_both_topologies() {
        for kind in [SaTopologyKind::Classic, SaTopologyKind::OffsetCancellation] {
            let report = Pipeline::new(PipelineConfig::pristine(kind)).run().unwrap();
            assert_eq!(report.identified, Some(kind));
            assert!(report.topology_correct());
            let expected_devices = match kind {
                SaTopologyKind::Classic => 9,
                _ => 12,
            };
            assert_eq!(report.device_count, expected_devices);
            let worst = report.worst_dimension_deviation.unwrap();
            assert!(worst.value() < 0.2, "worst deviation {}", worst);
        }
    }

    #[test]
    fn chip_driven_pipeline_uses_measured_dimensions() {
        let chips = hifi_data::chips();
        let b5 = chips
            .iter()
            .find(|c| c.name() == hifi_data::ChipName::B5)
            .unwrap();
        let cfg = PipelineConfig::for_chip(b5);
        assert_eq!(cfg.spec.topology, SaTopologyKind::OffsetCancellation);
        let report = Pipeline::new(cfg).run().unwrap();
        assert_eq!(report.identified, Some(SaTopologyKind::OffsetCancellation));
        // Measured nSA width ≈ B5's 241 nm entry.
        let nsa = report
            .measurement
            .class(TransistorClass::NSa)
            .expect("nsa measured");
        assert!((nsa.mean_width.value() - 241.0).abs() < 10.0);
    }

    #[test]
    fn window_bounds_checked() {
        let mut cfg = PipelineConfig::pristine(SaTopologyKind::Classic);
        cfg.window_pair = 7;
        let err = Pipeline::new(cfg).run().unwrap_err();
        assert!(matches!(err, PipelineError::WindowOutOfRange { .. }));
    }

    #[test]
    fn extract_error_is_exposed_as_source() {
        use std::error::Error;
        let err = PipelineError::Extract(ExtractError::NoTransistors);
        let source = err.source().expect("extract errors carry a source");
        assert_eq!(source.to_string(), ExtractError::NoTransistors.to_string());
        let err = PipelineError::WindowOutOfRange {
            pair: 3,
            available: 1,
        };
        assert!(err.source().is_none());
    }

    #[test]
    fn instrumented_pristine_run_reports_stage_timings() {
        let pipeline = Pipeline::new(PipelineConfig::pristine(SaTopologyKind::Classic));
        let report = pipeline.run_instrumented().unwrap();
        let telemetry = report.telemetry.expect("telemetry populated");
        assert_eq!(telemetry.config.topology, "classic");
        assert!(!telemetry.config.imaging);
        for stage in [
            "generate", "voxelize", "crop", "extract", "identify", "measure",
        ] {
            assert!(telemetry.stage_us(stage).is_some(), "missing stage {stage}");
        }
        // No imaging → no imaging stages, no imaging fidelity metrics.
        assert!(telemetry.stage_us("acquire").is_none());
        assert!(telemetry.fidelity.psnr_noisy_db.is_none());
        assert!(telemetry.fidelity.voxel_accuracy.is_none());
        // The worst-deviation gauge is recorded for every run.
        assert!(telemetry.fidelity.worst_dimension_deviation.is_some());
        assert_eq!(
            telemetry.counter("extract.devices"),
            report.device_count as u64
        );
        // The plain run is unchanged and carries no telemetry.
        let plain = pipeline.run().unwrap();
        assert!(plain.telemetry.is_none());
        assert_eq!(plain.identified, report.identified);
        assert_eq!(plain.device_count, report.device_count);
    }

    #[test]
    fn recoverable_faults_reproduce_the_clean_report() {
        use hifi_faults::FaultSpec;
        let clean_cfg = PipelineConfig::with_imaging(
            SaTopologyKind::Classic,
            hifi_imaging::ImagingConfig::default(),
        );
        let clean = Pipeline::new(clean_cfg.clone()).run().unwrap();
        // Every fault kind at 50%, capped at 2 consecutive per site; the
        // default policy's 3 retries out-budget the cap, so the run must
        // recover to the bit-identical clean result.
        let faulted_cfg = clean_cfg.with_faults(FaultSpec::uniform(3, 0.5));
        let faulted = Pipeline::new(faulted_cfg).run_instrumented().unwrap();
        assert_eq!(clean.identified, faulted.identified);
        assert_eq!(clean.device_count, faulted.device_count);
        assert_eq!(clean.alignment_corrections, faulted.alignment_corrections);
        assert_eq!(clean.measurement, faulted.measurement);
        assert!(!faulted.measurement.confidence.is_degraded());

        let telemetry = faulted.telemetry.expect("telemetry populated");
        assert!(telemetry.config.faults);
        assert_eq!(telemetry.config.fault_seed, Some(3));
        let f = &telemetry.faults;
        assert!(f.injected > 0, "plan must have fired: {f:?}");
        assert!(f.recovered > 0 && f.retried >= f.recovered, "{f:?}");
        assert_eq!(f.degraded, 0, "recoverable plan must not degrade: {f:?}");
        assert!(
            telemetry.summary_line().contains("faults"),
            "{}",
            telemetry.summary_line()
        );
    }

    #[test]
    fn exhausted_acquire_slices_degrade_confidence() {
        use hifi_faults::{FaultKind, FaultSpec};
        // A mild slice-failure rate with zero retries: a few slices
        // exhaust their (empty) budget and are interpolated from
        // neighbours — enough to flag confidence, not enough to break
        // extraction outright.
        let spec = FaultSpec::disabled()
            .with_seed(11)
            .with_rate(FaultKind::AcquireSlice, 0.1)
            .with_max_consecutive(5);
        let cfg = PipelineConfig::with_imaging(
            SaTopologyKind::Classic,
            hifi_imaging::ImagingConfig::default(),
        )
        .with_faults(spec)
        .with_retry(RetryPolicy::none());
        let report = Pipeline::new(cfg).run_instrumented().unwrap();
        let confidence = &report.measurement.confidence;
        assert!(confidence.is_degraded(), "confidence: {confidence:?}");
        assert!(confidence.score < 1.0 && confidence.score > 0.0);
        assert!(confidence.total_slices > 0);
        let telemetry = report.telemetry.expect("telemetry populated");
        assert_eq!(
            telemetry.faults.degraded,
            confidence.degraded_slices.len() as u64
        );
    }

    #[test]
    fn store_read_exhaustion_surfaces_as_gave_up() {
        use hifi_faults::{FaultKind, FaultSpec};
        let root = std::env::temp_dir().join(format!("hifi-gaveup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spec = FaultSpec::disabled()
            .with_rate(FaultKind::StoreRead, 1.0)
            .with_max_consecutive(u32::MAX);
        let cfg = PipelineConfig::pristine(SaTopologyKind::Classic)
            .with_store(&root)
            .with_faults(spec)
            .with_retry(RetryPolicy::none());
        let err = Pipeline::new(cfg).run().unwrap_err();
        match &err {
            PipelineError::GaveUp(e) => {
                assert!(e.site.starts_with("store.get:"), "site: {}", e.site);
                assert_eq!(e.attempts, 1, "zero-retry policy: one attempt");
            }
            other => panic!("expected GaveUp, got {other:?}"),
        }
        assert!(err.to_string().contains("retries exhausted"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disabled_fault_specs_share_the_clean_cache_but_enabled_ones_do_not() {
        use hifi_faults::{FaultKind, FaultSpec};
        let root = std::env::temp_dir().join(format!("hifi-salt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let base = PipelineConfig::pristine(SaTopologyKind::Classic).with_store(&root);
        let misses = |cfg: PipelineConfig| {
            let report = Pipeline::new(cfg).run_instrumented().unwrap();
            let t = report.telemetry.expect("telemetry");
            (t.counter(names::STORE_HIT), t.counter(names::STORE_MISS))
        };
        assert_eq!(misses(base.clone()), (0, 2), "cold clean run populates");
        // A disabled spec exercises the plumbing but must not fork the
        // cache: it replays the clean run's artifacts.
        assert_eq!(
            misses(base.clone().with_faults(FaultSpec::disabled())),
            (2, 0)
        );
        // Any non-zero rate salts the keys: faulted artifacts never serve
        // (or get served by) clean runs.
        let enabled = FaultSpec::disabled().with_rate(FaultKind::StoreWrite, 1e-12);
        assert_eq!(misses(base.with_faults(enabled)), (0, 2));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shared_store_handle_serves_the_same_cache_as_a_store_path() {
        let root = std::env::temp_dir().join(format!("hifi-handle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let misses = |cfg: PipelineConfig| {
            let report = Pipeline::new(cfg).run_instrumented().unwrap();
            let t = report.telemetry.expect("telemetry");
            (t.counter(names::STORE_HIT), t.counter(names::STORE_MISS))
        };
        // Cold-populate through a shared handle, then replay warm both
        // through the same handle and through the path-based config: one
        // cache, three views.
        let handle = Arc::new(ArtifactStore::open(&root).expect("open store"));
        let via_handle =
            PipelineConfig::pristine(SaTopologyKind::Classic).with_store_handle(handle.clone());
        assert_eq!(misses(via_handle.clone()), (0, 2), "cold via handle");
        assert_eq!(misses(via_handle), (2, 0), "warm via handle");
        assert_eq!(
            misses(PipelineConfig::pristine(SaTopologyKind::Classic).with_store(&root)),
            (2, 0),
            "warm via path: handle and path address the same store"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn instrumented_imaged_run_records_fidelity_metrics() {
        let cfg = PipelineConfig::with_imaging(
            SaTopologyKind::Classic,
            hifi_imaging::ImagingConfig::default(),
        );
        let report = Pipeline::new(cfg).run_instrumented().unwrap();
        let telemetry = report.telemetry.expect("telemetry populated");
        assert!(telemetry.config.imaging);
        assert_eq!(telemetry.config.dwell_us, Some(6.0));
        for stage in ["acquire", "normalize", "align", "denoise", "reconstruct"] {
            assert!(telemetry.stage_us(stage).is_some(), "missing stage {stage}");
        }
        // At least the three headline fidelity metrics are recorded.
        let f = &telemetry.fidelity;
        let noisy = f.psnr_noisy_db.expect("psnr before denoise");
        let denoised = f.psnr_denoised_db.expect("psnr after denoise");
        let accuracy = f.voxel_accuracy.expect("voxel accuracy");
        let drift = f.residual_drift_px.expect("residual drift");
        assert!(f.recorded_count() >= 3, "metrics: {f:?}");
        assert!(
            denoised > noisy,
            "denoising must raise PSNR: {noisy} → {denoised}"
        );
        assert!(
            accuracy > 0.8 && accuracy <= 1.0,
            "voxel accuracy {accuracy}"
        );
        assert!(drift >= 0.0);
        assert_eq!(
            telemetry.counter("align.slices"),
            report.alignment_corrections.len() as u64
        );
    }
}
