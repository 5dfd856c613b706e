//! Pinned bit-identity of the imaging align path.
//!
//! The align kernels (MI over precomputed bin indices, the median-of-9
//! prefilter network, selection medians in brightness normalisation) are
//! claimed to be *exact* rewrites: the same corrections and the same
//! aligned pixels, bit for bit. This test makes that claim enforceable. It
//! runs two imaged conformance chips (one classic, one OCSA) through
//! `Pipeline::run`, replays acquire → normalize → align through the public
//! stage functions, and pins an FNV-1a digest of the corrections, every
//! slice's winning registration score (`f64` bits, so a template update
//! that moves one ulp shows even when no correction flips) and the
//! aligned stack's `f32` bit patterns. The pinned values were computed
//! with the scalar reference kernels (float binning per candidate, a full
//! sort per median window and per slice median); any change to them is a
//! change of output, not an optimisation.

use hifi_circuit::topology::SaTopologyKind;
use hifi_conformance::{run_seed, ChipSpec};
use hifi_dram::pipeline::Pipeline;
use hifi_imaging::{acquire, align_with, AlignMethod};
use hifi_synth::generate_region;
use hifi_telemetry::{EventType, JsonRecorder};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The first imaged, single-pair, MAT-less spec of campaign seed 42 with
/// topology `kind`.
fn first_imaged(kind: SaTopologyKind) -> ChipSpec {
    (0..)
        .map(|i| ChipSpec::generate(run_seed(42, i)))
        .find(|s| s.topology == kind && s.imaging.is_some() && s.n_pairs == 1 && !s.mat_strip)
        .expect("the generator draws imaged specs of both topologies")
}

/// Digest of `Pipeline::run`'s corrections and of the registration scores
/// and aligned stack the same chip's acquire → normalize → align replay
/// produces.
fn align_digest(spec: &ChipSpec) -> u64 {
    let cfg = spec.pipeline_config();
    let report = Pipeline::new(cfg.clone()).run().expect("pipeline runs");
    let imaging = cfg.imaging.as_ref().expect("spec is imaged");
    let pristine = generate_region(&cfg.spec).voxelize();
    let (mut stack, _) = acquire(&pristine, imaging);
    stack.normalize_brightness();
    let mut rec = JsonRecorder::new();
    let corrections = align_with(
        &mut stack,
        AlignMethod::MutualInformation,
        cfg.align_window,
        &mut rec,
    );
    assert_eq!(
        corrections, report.alignment_corrections,
        "the staged replay reproduces Pipeline::run's corrections"
    );
    let mut h = Fnv::new();
    for &(dy, dz) in &corrections {
        h.write(&dy.to_le_bytes());
        h.write(&dz.to_le_bytes());
    }
    let scores = rec
        .events()
        .iter()
        .filter(|e| e.kind == EventType::Gauge && e.name == "align.slice_score")
        .filter_map(|e| e.value);
    for score in scores {
        h.write(&score.to_bits().to_le_bytes());
    }
    for slice in stack.slices() {
        for p in slice.pixels() {
            h.write(&p.to_bits().to_le_bytes());
        }
    }
    h.0
}

#[test]
fn classic_chip_alignment_is_pinned() {
    let spec = first_imaged(SaTopologyKind::Classic);
    assert_eq!(
        align_digest(&spec),
        0x03fb_01cf_15d1_9192,
        "{}",
        spec.describe()
    );
}

#[test]
fn ocsa_chip_alignment_is_pinned() {
    let spec = first_imaged(SaTopologyKind::OffsetCancellation);
    assert_eq!(
        align_digest(&spec),
        0xe6b6_d509_3594_637e,
        "{}",
        spec.describe()
    );
}
