//! `imaged_pipeline`: store-less `Pipeline::run` over simulated FIB/SEM
//! stacks. At least four fifths of the time is `imaging` align, and no
//! store, serve or analog code runs.

use std::time::Instant;

use hifi_circuit::identify::TopologyLibrary;
use hifi_circuit::topology::SaTopologyKind;
use hifi_conformance::{run_seed, ChipSpec};
use hifi_dram::pipeline::{Pipeline, PipelineConfig, PipelineReport};
use hifi_extract::{measure, MeasurementReport};
use hifi_imaging::{
    acquire, align_with, denoise, metrics, reconstruct, AcquirePlan, AlignMethod, DriftTruth,
};
use hifi_synth::generate_region;
use hifi_telemetry::{names, EventType, JsonRecorder};
use hifi_units::Ratio;

use crate::checks::chip_ok;
use crate::json::text;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{account, guard, timed, Ctx, Run};
use serde::Value;

/// Chips are generated for at most this many rounds; a run stops short of
/// `--seconds` only once a round takes under a tenth of it.
const MAX_ROUNDS: usize = 10;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// One chip of the workload with the ground truth its fidelity is judged by.
struct Chip {
    spec: ChipSpec,
    truth: DriftTruth,
}

impl Chip {
    fn config(&self) -> PipelineConfig {
        self.spec.pipeline_config()
    }
}

/// Whether `spec` is in the benchmark's stratum: imaged, one bitline pair,
/// 2-voxel slices, no MAT strip. Within it the topology, dimension scale,
/// MAT transition and imaging noise (dwell, drift, acquisition seed) vary
/// with the seed, while the stack size — which sets the run cost — stays
/// within a few percent, so runs of different seeds are comparable.
fn in_stratum(spec: &ChipSpec) -> bool {
    spec.n_pairs == 1
        && !spec.mat_strip
        && spec.imaging.as_ref().is_some_and(|n| n.slice_voxels == 2)
}

/// The chips of run `seed`, in rounds of one classic then one OCSA chip:
/// the first stratum specs of `ChipSpec::generate(run_seed(seed, i))` for
/// each topology.
fn chips(seed: u64) -> Vec<Chip> {
    let mut classic = Vec::new();
    let mut ocsa = Vec::new();
    let mut i = 0;
    while classic.len() < MAX_ROUNDS || ocsa.len() < MAX_ROUNDS {
        let spec = ChipSpec::generate(run_seed(seed, i));
        i += 1;
        if !in_stratum(&spec) {
            continue;
        }
        match spec.topology {
            SaTopologyKind::Classic => classic.push(spec),
            _ => ocsa.push(spec),
        }
    }
    classic
        .into_iter()
        .zip(ocsa)
        .take(MAX_ROUNDS)
        .flat_map(|(c, o)| [c, o])
        .map(|spec| {
            let imaging = spec.pipeline_config().imaging.expect("stratum is imaged");
            let (nx, ny, nz) = generate_region(&spec.region_spec()).voxel_dims();
            let truth = AcquirePlan::for_dims(nx, ny, nz, &imaging).truth().clone();
            Chip { spec, truth }
        })
        .collect()
}

/// Per-chip fidelity: (residual drift px, worst dimension error %).
fn fidelity(report: &PipelineReport, truth: &DriftTruth) -> (f64, Option<f64>) {
    (
        metrics::residual_drift(&report.alignment_corrections, truth),
        report.worst_dimension_deviation.map(Ratio::as_percent),
    )
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let mut setups = Vec::new();
    let mut chips_list = Vec::new();
    for _ in 0..SETUP_REPS {
        let (secs, list) = timed(|| chips(ctx.seed));
        setups.push(secs);
        chips_list = list;
    }
    run.set("setup_s", median(&setups), "");

    let mut latencies = Vec::new();
    let mut drifts = Vec::new();
    let mut dim_errors = Vec::new();
    let mut tracer = Tracer::default();
    let mut traced = TracedTotals::default();
    let start = Instant::now();
    for (round, pair) in chips_list.chunks(2).enumerate() {
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        for (k, chip) in pair.iter().enumerate() {
            let op = (2 * round + k) as u64;
            run.attempted += 1;
            let t0 = Instant::now();
            let result = Pipeline::new(chip.config()).run();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            latencies.push(wall_ms);
            let outcome = result
                .as_ref()
                .map(|r| r.identified)
                .map_err(|e| e.to_string());
            if !chip_ok(chip.spec.topology, &outcome) {
                run.failed += 1;
                continue;
            }
            let report = result.expect("checked above");
            let (drift, dim) = fidelity(&report, &chip.truth);
            drifts.push(drift);
            dim_errors.extend(dim);
            if ctx.trace {
                traced.replay(&mut tracer, op, chip, &report, wall_ms, &mut run);
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let n = latencies.len();
    run.set("throughput_per_s", Some(n as f64 / wall), "");
    run.set("latency_ms_p50", median(&latencies), "");
    run.set(
        "latency_ms_p90",
        None,
        &format!("{n} chips a run; p90 needs 100"),
    );
    run.set("drift_residual_px", mean(&drifts), "no chip finished");
    run.set(
        "dim_error_pct",
        dim_errors.iter().copied().reduce(f64::max),
        "no chip finished",
    );
    run.note("chips", Value::UInt(n as u64));
    run.note(
        "specs",
        Value::Array(
            chips_list[..n]
                .iter()
                .map(|c| text(c.spec.describe()))
                .collect(),
        ),
    );
    if ctx.trace {
        run.set(
            "imaging.drift_residual_px",
            mean(&drifts),
            "no chip finished",
        );
        run.set(
            "extract.dim_error_pct",
            dim_errors.iter().copied().reduce(f64::max),
            "no chip finished",
        );
        traced.finish(&tracer, &mut run);
        run.tracer = Some(tracer);
    }
    Ok(run)
}

/// What the staged chain produced, for the bit-identity guard.
struct Staged {
    identified: Option<SaTopologyKind>,
    corrections: Vec<(i32, i32)>,
    measurement: MeasurementReport,
    worst: Option<Ratio>,
    search_iters: Vec<u64>,
}

/// Replays one chip as timed calls to the public stage functions, in the
/// order `Pipeline::run` makes them.
fn staged(t: &mut Tracer, op: u64, id: u64, cfg: &PipelineConfig) -> Result<Staged, String> {
    let imaging = cfg.imaging.as_ref().ok_or("chip is not imaged")?;
    let region = t.leaf(op, id, "synth.generate", || generate_region(&cfg.spec));
    let pristine = t.leaf(op, id, "synth.voxelize", || region.voxelize());
    let (mut stack, _truth) = t.leaf(op, id, "imaging.acquire", || acquire(&pristine, imaging));
    t.leaf(op, id, "imaging.normalize", || stack.normalize_brightness());
    let mut rec = JsonRecorder::new();
    let corrections = t.leaf(op, id, "imaging.align", || {
        align_with(
            &mut stack,
            AlignMethod::MutualInformation,
            cfg.align_window,
            &mut rec,
        )
    });
    t.leaf(op, id, "imaging.denoise", || {
        denoise(&mut stack, cfg.denoise_lambda, cfg.denoise_iterations)
    });
    let volume = t.leaf(op, id, "imaging.reconstruct", || reconstruct(&stack));
    let cropped = t
        .leaf(op, id, "extract.crop", || {
            region.window_volume(&volume, cfg.window_pair)
        })
        .ok_or("cell window outside the volume")?;
    let extraction = t
        .leaf(op, id, "extract.extract", || {
            hifi_extract::extract(&cropped)
        })
        .map_err(|e| e.to_string())?;
    let identified = t.leaf(op, id, "circuit.identify", || {
        TopologyLibrary::standard().identify(&extraction.netlist)
    });
    let (measurement, worst) = t.leaf(op, id, "extract.measure", || {
        let m = measure(&extraction);
        let w = m.worst_deviation(&region.ground_truth().cell.dims_by_class);
        (m, w)
    });
    let search_iters = rec
        .events()
        .iter()
        .filter(|e| e.kind == EventType::Histogram && e.name == names::HIST_ALIGN_SEARCH_ITERS)
        .filter_map(|e| e.delta)
        .collect();
    Ok(Staged {
        identified,
        corrections,
        measurement,
        worst,
        search_iters,
    })
}

/// Per-op sums of the traced run.
#[derive(Default)]
struct TracedTotals {
    untraced_ms: f64,
    instrumented_ms: f64,
    op_ids: Vec<u64>,
    search_iters: Vec<u64>,
    mismatched: usize,
}

impl TracedTotals {
    fn replay(
        &mut self,
        t: &mut Tracer,
        op: u64,
        chip: &Chip,
        report: &PipelineReport,
        untraced_ms: f64,
        run: &mut Run,
    ) {
        let cfg = chip.config();
        let (id, staged) = t.span(op, None, "op", |t, id| (id, staged(t, op, id, &cfg)));
        let (instrumented_s, _) = timed(|| Pipeline::new(cfg.clone()).run_instrumented());
        let same = staged.as_ref().is_ok_and(|s| {
            s.identified == report.identified
                && s.corrections == report.alignment_corrections
                && s.measurement == report.measurement
                && s.worst == report.worst_dimension_deviation
        });
        self.mismatched += usize::from(!same);
        if let Ok(s) = staged {
            self.search_iters.extend(s.search_iters);
        } else {
            run.failed += 1;
        }
        self.untraced_ms += untraced_ms;
        self.instrumented_ms += instrumented_s * 1e3;
        self.op_ids.push(id);
    }

    fn finish(&self, t: &Tracer, run: &mut Run) {
        let ops = self.op_ids.len();
        for name in [
            "imaging.acquire",
            "imaging.normalize",
            "imaging.align",
            "imaging.denoise",
            "imaging.reconstruct",
            "synth.generate",
            "synth.voxelize",
            "extract.crop",
            "extract.extract",
            "extract.measure",
            "circuit.identify",
        ] {
            run.set(&format!("{name}_ms"), t.per_op_ms(name, ops), "not called");
        }
        let align = t.total_ms("imaging.align");
        let slices = self.search_iters.len();
        run.set(
            "imaging.align_ms_per_slice",
            (slices > 0).then(|| align / slices as f64),
            "",
        );
        let iters: Vec<f64> = self.search_iters.iter().map(|&i| i as f64).collect();
        run.set("imaging.align_search_iters", mean(&iters), "");
        let traced_ms: f64 = self
            .op_ids
            .iter()
            .map(|&id| t.spans()[id as usize].ms())
            .sum();
        let staged_ms: f64 = self.op_ids.iter().map(|&id| t.children_ms(id)).sum();
        run.set("imaging.align_share", Some(align / traced_ms), "");
        account(run, self.untraced_ms, staged_ms, traced_ms, ops as f64);
        run.set(
            "telemetry.instrumented_overhead_pct",
            Some((self.instrumented_ms / self.untraced_ms - 1.0) * 100.0),
            "",
        );
        guard(
            run,
            "staged chain reproduces Pipeline::run bit for bit",
            self.mismatched == 0 && !self.op_ids.is_empty(),
            format!("{} of {} chips differ", self.mismatched, self.op_ids.len()),
        );
    }
}
