//! Parallel execution must be a pure performance knob: every parallelized
//! stage produces bit-identical output at every thread count.
//!
//! The acceptance bar for the deterministic `rayon` stand-in (see
//! `vendor/rayon`) is that the regen snapshots in `regen_outputs/` never
//! depend on `HIFI_THREADS`. These tests pin the thread count to 1, 2 and
//! 8 via `rayon::with_num_threads` and compare the outputs of each hot
//! loop — acquisition (whose drift RNG is split into a sequential
//! artefact pass and a parallel render pass), ideal rendering, TV
//! denoising, MI alignment — and the full imaged pipeline.

use hifi_circuit::topology::SaTopologyKind;
use hifi_dram::pipeline::{Pipeline, PipelineConfig};
use hifi_imaging::{acquire, align, denoise, render_ideal, AlignMethod, ImageStack, ImagingConfig};
use hifi_synth::{generate_region, MaterialVolume, SaRegionSpec};

/// 1 = sequential baseline, 2 = an even split, 8 = more threads than
/// slices in the small test volume (exercises the short-chunk tail).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn test_volume(kind: SaTopologyKind) -> MaterialVolume {
    generate_region(&SaRegionSpec::new(kind).with_pairs(1)).voxelize()
}

fn imaging_config() -> ImagingConfig {
    ImagingConfig {
        dwell_us: 6.0,
        drift_sigma_px: 0.6,
        brightness_wander: 1.0,
        slice_voxels: 2,
        ..ImagingConfig::default()
    }
}

fn assert_stacks_identical(a: &ImageStack, b: &ImageStack, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: slice counts differ");
    for (i, (x, y)) in a.slices().iter().zip(b.slices()).enumerate() {
        // f32 bit patterns, not approximate equality: determinism means
        // the parallel schedule cannot perturb a single ulp.
        let xb: Vec<u32> = x.pixels().iter().map(|p| p.to_bits()).collect();
        let yb: Vec<u32> = y.pixels().iter().map(|p| p.to_bits()).collect();
        assert_eq!(xb, yb, "{what}: slice {i} differs");
    }
}

#[test]
fn acquire_is_bit_identical_across_thread_counts() {
    let volume = test_volume(SaTopologyKind::Classic);
    let cfg = imaging_config();
    let (base_stack, base_truth) = rayon::with_num_threads(1, || acquire(&volume, &cfg));
    for n in THREAD_COUNTS {
        let (stack, truth) = rayon::with_num_threads(n, || acquire(&volume, &cfg));
        assert_stacks_identical(&base_stack, &stack, &format!("acquire @ {n} threads"));
        assert_eq!(
            base_truth, truth,
            "acquire @ {n} threads: drift truth differs"
        );
    }
}

#[test]
fn render_ideal_is_bit_identical_across_thread_counts() {
    let volume = test_volume(SaTopologyKind::Classic);
    let cfg = imaging_config();
    let base = rayon::with_num_threads(1, || render_ideal(&volume, &cfg, None));
    for n in THREAD_COUNTS {
        let stack = rayon::with_num_threads(n, || render_ideal(&volume, &cfg, None));
        assert_stacks_identical(&base, &stack, &format!("render_ideal @ {n} threads"));
    }
}

#[test]
fn denoise_and_align_are_bit_identical_across_thread_counts() {
    let volume = test_volume(SaTopologyKind::OffsetCancellation);
    let cfg = imaging_config();
    let (acquired, _) = rayon::with_num_threads(1, || acquire(&volume, &cfg));

    let process = |n: usize| {
        rayon::with_num_threads(n, || {
            let mut stack = acquired.clone();
            stack.normalize_brightness();
            let corrections = align(&mut stack, AlignMethod::MutualInformation, 4);
            denoise(&mut stack, 2.0, 10);
            (stack, corrections)
        })
    };
    let (base_stack, base_corrections) = process(1);
    for n in THREAD_COUNTS {
        let (stack, corrections) = process(n);
        assert_eq!(
            base_corrections, corrections,
            "align @ {n} threads: corrections differ"
        );
        assert_stacks_identical(&base_stack, &stack, &format!("denoise @ {n} threads"));
    }
}

fn assert_reports_identical(
    base: &hifi_dram::pipeline::PipelineReport,
    report: &hifi_dram::pipeline::PipelineReport,
    what: &str,
) {
    assert_eq!(base.identified, report.identified, "{what}");
    assert_eq!(base.device_count, report.device_count, "{what}");
    assert_eq!(
        base.alignment_corrections, report.alignment_corrections,
        "{what}"
    );
    assert_eq!(
        base.worst_dimension_deviation.map(|d| d.value().to_bits()),
        report
            .worst_dimension_deviation
            .map(|d| d.value().to_bits()),
        "{what}"
    );
    assert_eq!(base.measurement, report.measurement, "{what}");
    assert_eq!(base.extraction.netlist, report.extraction.netlist, "{what}");
    assert_eq!(base.extraction.devices, report.extraction.devices, "{what}");
}

#[test]
fn full_imaged_pipeline_is_identical_across_thread_counts() {
    let pipeline = Pipeline::new(PipelineConfig::with_imaging(
        SaTopologyKind::OffsetCancellation,
        imaging_config(),
    ));
    let run = |n: usize| rayon::with_num_threads(n, || pipeline.run().expect("pipeline runs"));
    let base = run(1);
    for n in THREAD_COUNTS {
        let report = run(n);
        assert_reports_identical(&base, &report, &format!("@ {n} threads"));
    }
}

/// Fault recovery must also be a no-op in the output: with a recoverable
/// plan (every fault clears within the retry budget), the recovered
/// pipeline is bit-identical to the clean single-threaded baseline at
/// every thread count. Slice re-acquisition restarts from per-slice RNG
/// snapshots, so which thread retries a slice — and when — cannot leak
/// into the pixels.
#[test]
fn recovered_faulted_pipeline_is_identical_across_thread_counts() {
    use hifi_faults::FaultSpec;
    let clean = Pipeline::new(PipelineConfig::with_imaging(
        SaTopologyKind::OffsetCancellation,
        imaging_config(),
    ));
    let faulted = Pipeline::new(
        PipelineConfig::with_imaging(SaTopologyKind::OffsetCancellation, imaging_config())
            .with_faults(FaultSpec::uniform(7, 0.5)),
    );
    let baseline = rayon::with_num_threads(1, || clean.run().expect("clean run"));
    for n in THREAD_COUNTS {
        let report = rayon::with_num_threads(n, || faulted.run().expect("faulted run"));
        assert_reports_identical(&baseline, &report, &format!("faulted @ {n} threads"));
    }
}

/// The artifact store must be invisible in the output: a cold (populating)
/// run and a warm (fully cached) run produce the same report as a
/// store-less run, at every thread count.
#[test]
fn full_imaged_pipeline_is_identical_with_store_off_cold_and_warm() {
    let store_root =
        std::env::temp_dir().join(format!("hifi-determinism-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);

    let plain = Pipeline::new(PipelineConfig::with_imaging(
        SaTopologyKind::OffsetCancellation,
        imaging_config(),
    ));
    let cached = Pipeline::new(
        PipelineConfig::with_imaging(SaTopologyKind::OffsetCancellation, imaging_config())
            .with_store(&store_root),
    );
    let baseline = rayon::with_num_threads(1, || plain.run().expect("store-off run"));
    for n in [1, THREAD_COUNTS[THREAD_COUNTS.len() - 1]] {
        // Fresh store per thread count: the first run is cold (all
        // misses), the second warm (all hits).
        let _ = std::fs::remove_dir_all(&store_root);
        let cold = rayon::with_num_threads(n, || cached.run().expect("cold run"));
        let warm = rayon::with_num_threads(n, || cached.run().expect("warm run"));
        assert_reports_identical(&baseline, &cold, &format!("cold @ {n} threads"));
        assert_reports_identical(&baseline, &warm, &format!("warm @ {n} threads"));
    }
    let _ = std::fs::remove_dir_all(&store_root);
}
