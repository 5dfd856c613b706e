//! Slice alignment: each slice registered against the previous one.
//!
//! Section IV-C: "we align the slices using the mutual-information algorithm
//! of Dragonfly. In particular, each slide is aligned with respect to the
//! previous one." Wire heights can be 30 nm against ~4 µm cross-sections, so
//! residual misalignment must stay below 0.77% of the slice.

use crate::sem::{ImageStack, SemImage};
use hifi_telemetry::{names, NoopRecorder, Recorder};
use std::time::Instant;

/// Similarity metric used for registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignMethod {
    /// Mutual information over a 32-bin joint histogram (the paper's
    /// method; robust to brightness offsets between slices).
    MutualInformation,
    /// Negative sum of squared differences (cheaper; brightness-sensitive).
    SquaredDifference,
}

const BINS: usize = 32;

/// `(min, max)` of an image's pixels. `f32::min`/`max` ignore NaN pixels
/// rather than poisoning the range.
fn pixel_range(img: &SemImage) -> (f32, f32) {
    img.pixels()
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Histogram bin of intensity `v` under a `[lo, hi)` range; a constant (or
/// all-NaN) image degenerates to a single bin.
#[inline(always)]
fn bin(v: f32, lo: f32, hi: f32) -> usize {
    let width = hi - lo;
    if width.is_nan() || width <= 0.0 {
        return 0;
    }
    (((v - lo) / width * BINS as f32).floor() as i32).clamp(0, BINS as i32 - 1) as usize
}

/// Per-pixel histogram bin of `img` under its whole-image [`pixel_range`].
///
/// Binning is the per-pixel float work of the MI metric (two divides and
/// a floor); it depends only on the pixel and the image-wide range, never
/// on the candidate offset, so each registration operand is binned once
/// and every candidate then reads the same indices. The values are those
/// [`bin`] returns, so the scores are bit-identical to binning inside the
/// offset loop (pinned by `blocked_mi_matches_reference_at_every_offset`).
fn bin_indices(img: &SemImage) -> Vec<u8> {
    let (lo, hi) = pixel_range(img);
    img.pixels().iter().map(|&v| bin(v, lo, hi) as u8).collect()
}

/// Mutual information of the overlap of two `ny × nz` images, given as
/// [`bin_indices`] rows, with the second shifted by `(dy, dz)`.
///
/// Each image's bin range is derived from its observed intensities instead
/// of the old fixed [0, 256): low-contrast BSE stacks collapsed into a
/// handful of bins and degraded registration, and per-image ranges make MI
/// exactly invariant to per-slice brightness offsets. The range spans the
/// *whole* image rather than the candidate overlap so the bin edges stay
/// identical across the offset search — per-overlap edges jitter as
/// outlier pixels enter and leave the overlap, putting spurious maxima
/// into the MI surface. Because the ranges are offset-independent, so are
/// the bin indices, and the caller computes them once per image.
///
/// The joint-histogram fill is row-blocked: the overlapping `y` interval
/// is resolved once per `z` row and the fill then walks two contiguous
/// index rows, instead of bounds-branching per pixel. It round-robins over
/// four sub-histograms: most overlap pixels are oxide background and land
/// in one bin, and a single counter turns that into a chain of dependent
/// increments. The integer sum of the four is the same joint histogram.
fn mutual_information(a: &[u8], b: &[u8], ny: usize, nz: usize, dy: i32, dz: i32) -> f64 {
    let idx = |ia: u8, ib: u8| usize::from(ia) * BINS + usize::from(ib);
    let mut parts = [[0u32; BINS * BINS]; 4];
    let mut count = 0u32;
    // Overlapping y interval in a's frame: 0 <= y < ny and 0 <= y + dy < ny.
    let y_lo = 0.max(-dy) as usize;
    let y_hi = ny.min((ny as i32 - dy).max(0) as usize);
    for z in 0..nz {
        let bz = z as i32 + dz;
        if bz < 0 || bz >= nz as i32 || y_lo >= y_hi {
            continue;
        }
        let a_row = &a[z * ny + y_lo..z * ny + y_hi];
        let b_base = bz as usize * ny + (y_lo as i32 + dy) as usize;
        let b_row = &b[b_base..b_base + (y_hi - y_lo)];
        let (ca, cb) = (a_row.chunks_exact(4), b_row.chunks_exact(4));
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (qa, qb) in ca.zip(cb) {
            parts[0][idx(qa[0], qb[0])] += 1;
            parts[1][idx(qa[1], qb[1])] += 1;
            parts[2][idx(qa[2], qb[2])] += 1;
            parts[3][idx(qa[3], qb[3])] += 1;
        }
        for (&ia, &ib) in ra.iter().zip(rb) {
            parts[0][idx(ia, ib)] += 1;
        }
        count += (y_hi - y_lo) as u32;
    }
    if count == 0 {
        return f64::NEG_INFINITY;
    }
    let mut joint = [0u32; BINS * BINS];
    for (k, c) in joint.iter_mut().enumerate() {
        *c = parts[0][k] + parts[1][k] + parts[2][k] + parts[3][k];
    }
    let n = count as f64;
    let mut pa = [0.0f64; BINS];
    let mut pb = [0.0f64; BINS];
    for (i, row) in joint.chunks_exact(BINS).enumerate() {
        for (j, &c) in row.iter().enumerate() {
            let p = c as f64 / n;
            pa[i] += p;
            pb[j] += p;
        }
    }
    let mut mi = 0.0;
    for (i, row) in joint.chunks_exact(BINS).enumerate() {
        for (j, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let p = c as f64 / n;
            mi += p * (p / (pa[i] * pb[j])).ln();
        }
    }
    mi
}

fn neg_ssd(a: &SemImage, b: &SemImage, dy: i32, dz: i32) -> f64 {
    let (ny, nz) = a.dims();
    let mut acc = 0.0f64;
    let mut count = 0u32;
    for z in 0..nz {
        let bz = z as i32 + dz;
        if bz < 0 || bz >= nz as i32 {
            continue;
        }
        for y in 0..ny {
            let by = y as i32 + dy;
            if by < 0 || by >= ny as i32 {
                continue;
            }
            let d = (a.get(y, z) - b.get(by as usize, bz as usize)) as f64;
            acc += d * d;
            count += 1;
        }
    }
    if count == 0 {
        f64::NEG_INFINITY
    } else {
        -(acc / count as f64)
    }
}

/// Finds the shift of `b` relative to `a` maximising the similarity metric,
/// searching `center ± window` in both axes. A small bias towards the
/// `center` hypothesis suppresses metric jitter on featureless slices.
/// Returns the winning shift and its similarity score.
///
/// `b_bins` are `b`'s [`bin_indices`]: the moving slice is binned once, up
/// front, by the caller. The template `a` changes every slice, so it is
/// binned here — once for the whole offset search rather than once per
/// candidate. Squared difference ignores the bins (one cheap pass each).
fn register(
    a: &SemImage,
    b: &SemImage,
    b_bins: &[u8],
    method: AlignMethod,
    window: i32,
    center: (i32, i32),
) -> ((i32, i32), f64) {
    let (ny, nz) = a.dims();
    let a_bins = bin_indices(a);
    let score_at = |dy: i32, dz: i32| match method {
        AlignMethod::MutualInformation => mutual_information(&a_bins, b_bins, ny, nz, dy, dz),
        AlignMethod::SquaredDifference => neg_ssd(a, b, dy, dz),
    };
    let score_c = score_at(center.0, center.1);
    // The (2·window+1)² candidate offsets are scored in parallel; the
    // argmax then scans the scores in the same order the sequential search
    // visited them, with the same strict comparison, so the winning offset
    // is identical at any thread count.
    let mut candidates = Vec::with_capacity((2 * window as usize + 1).pow(2));
    for dz in (center.1 - window)..=(center.1 + window) {
        for dy in (center.0 - window)..=(center.0 + window) {
            if (dy, dz) == center {
                continue;
            }
            candidates.push((dy, dz));
        }
    }
    let scores = rayon::par_map(&candidates, |&(dy, dz)| score_at(dy, dz));
    let mut best = center;
    let mut best_score = score_c;
    for (&(dy, dz), &score) in candidates.iter().zip(&scores) {
        if score > best_score {
            best_score = score;
            best = (dy, dz);
        }
    }
    let margin = 0.002 * score_c.abs().max(1e-6);
    if best != center && best_score < score_c + margin {
        return (center, score_c);
    }
    (best, best_score)
}

/// Aligns every slice into slice 0's frame, mutating the stack in place.
/// Returns the per-slice corrections applied (slice 0 is the reference, so
/// its correction is `(0, 0)`).
///
/// Registration runs against an exponential moving **template** of the
/// already-corrected slices rather than chaining slice-to-slice offsets:
/// sequential chaining turns every ±1 px registration error into a permanent
/// walk of the whole remaining stack, while template registration keeps
/// errors independent. The metric operates on median-filtered copies
/// (registration-only filtering); the slice data itself is not filtered.
pub fn align(stack: &mut ImageStack, method: AlignMethod, window: i32) -> Vec<(i32, i32)> {
    align_with(stack, method, window, &mut NoopRecorder)
}

/// [`align`] with instrumentation: records the registration score and the
/// applied shift magnitude for every slice as gauges
/// (`align.slice_score`, `align.slice_shift_px`), and counts slices whose
/// correction is non-zero (`align.corrected_slices`) next to the total
/// (`align.slices`).
pub fn align_with<R: Recorder>(
    stack: &mut ImageStack,
    method: AlignMethod,
    window: i32,
    rec: &mut R,
) -> Vec<(i32, i32)> {
    let n = stack.len();
    rec.counter("align.slices", n as u64);
    let mut corrections = vec![(0, 0); n];
    if n < 2 {
        return corrections;
    }
    let background = stack.slice(0).median();
    // The registration-only median prefilter is independent per slice, and
    // so are the moving slices' MI bin indices: their ranges never change.
    let filtered: Vec<(SemImage, Vec<u8>)> = rayon::par_map(stack.slices(), |s| {
        let f = crate::denoise::median3x3(s);
        let bins = bin_indices(&f);
        (f, bins)
    });
    let mut template = filtered[0].0.clone();
    // Search around the previous slice's drift estimate: per-step drift is
    // small even when the accumulated drift exceeds the window.
    let mut prev_drift = (0i32, 0i32);
    const EMA: f32 = 0.15;
    for (i, (moving, moving_bins)) in filtered.iter().enumerate().skip(1) {
        let t0 = rec.enabled().then(Instant::now);
        let ((dy, dz), score) =
            register(&template, moving, moving_bins, method, window, prev_drift);
        if rec.enabled() {
            rec.gauge("align.slice_score", score);
            rec.gauge("align.slice_shift_px", ((dy * dy + dz * dz) as f64).sqrt());
            if (dy, dz) != (0, 0) {
                rec.counter("align.corrected_slices", 1);
            }
            if let Some(t0) = t0 {
                rec.histogram(names::HIST_ALIGN_SLICE_US, t0.elapsed().as_micros() as u64);
            }
            // Every candidate offset in the ±window square is scored once.
            let iters = (2 * window as u64 + 1).pow(2);
            rec.histogram(names::HIST_ALIGN_SEARCH_ITERS, iters);
        }
        corrections[i] = (-dy, -dz);
        let slice = &mut stack.slices_mut()[i];
        *slice = slice.shifted(-dy, -dz, background);
        // Fold the corrected (filtered) slice into the template.
        let corrected_f = moving.shifted(-dy, -dz, background);
        for (t, &c) in template.pixels_mut().iter_mut().zip(corrected_f.pixels()) {
            *t = *t * (1.0 - EMA) + c * EMA;
        }
        prev_drift = (dy, dz);
    }
    corrections
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sem::{acquire, DetectorKind, ImagingConfig};
    use hifi_geometry::LayerStack;
    use hifi_synth::{Material, MaterialVolume};

    fn structured_volume() -> MaterialVolume {
        let mut v = MaterialVolume::new(16, 48, 40, 5.0, LayerStack::default_dram());
        // A few wires and plugs at varying positions so slices have texture.
        v.fill_box(0, 16, 8, 12, 30, 34, Material::Metal1, true);
        v.fill_box(0, 16, 20, 26, 10, 14, Material::GatePoly, true);
        v.fill_box(0, 16, 36, 44, 20, 28, Material::Contact, true);
        v.fill_box(4, 12, 30, 34, 0, 8, Material::ActiveSi, true);
        v
    }

    fn drifted_config(method_seed: u64) -> ImagingConfig {
        ImagingConfig {
            detector: DetectorKind::Bse,
            dwell_us: 50.0, // low noise so the test isolates drift
            drift_sigma_px: 1.0,
            brightness_wander: 0.0,
            slice_voxels: 1,
            seed: method_seed,
            ..ImagingConfig::default()
        }
    }

    /// `register` by mutual information around `(0, 0)`, binning `b` first.
    fn register_mi(a: &SemImage, b: &SemImage, window: i32) -> ((i32, i32), f64) {
        let b_bins = bin_indices(b);
        register(
            a,
            b,
            &b_bins,
            AlignMethod::MutualInformation,
            window,
            (0, 0),
        )
    }

    /// Runs alignment against a drifted acquisition and returns the mean
    /// absolute *residual* drift in pixels (corrections vs ground truth).
    fn residual_after(method: AlignMethod) -> f64 {
        let v = structured_volume();
        let (mut stack, truth) = acquire(&v, &drifted_config(42));
        assert!(
            truth.shifts.iter().any(|&(a, b)| a != 0 || b != 0),
            "drift actually happened"
        );
        let corrections = align(&mut stack, method, 4);
        let mut total = 0.0;
        for (c, t) in corrections.iter().zip(&truth.shifts) {
            // A perfect aligner applies the negated ground-truth drift.
            total += ((c.0 + t.0).abs() + (c.1 + t.1).abs()) as f64;
        }
        total / corrections.len() as f64
    }

    #[test]
    fn mutual_information_alignment_recovers_drift() {
        let residual = residual_after(AlignMethod::MutualInformation);
        // Well under one pixel of residual drift on average — far below the
        // paper's 0.77%-of-slice tolerance.
        assert!(residual < 0.5, "mean residual drift {residual} px");
    }

    #[test]
    fn ssd_alignment_also_recovers_drift() {
        let residual = residual_after(AlignMethod::SquaredDifference);
        assert!(residual < 0.5, "mean residual drift {residual} px");
    }

    #[test]
    fn alignment_without_drift_is_a_no_op() {
        let v = structured_volume();
        let mut cfg = drifted_config(1);
        cfg.drift_sigma_px = 0.0;
        cfg.dwell_us = 1e6;
        let (mut stack, _) = acquire(&v, &cfg);
        let before = stack.clone();
        let corrections = align(&mut stack, AlignMethod::MutualInformation, 3);
        assert!(corrections.iter().all(|&c| c == (0, 0)));
        assert_eq!(stack, before);
    }

    #[test]
    fn single_slice_stack_is_reference() {
        let v = structured_volume();
        let mut cfg = drifted_config(1);
        cfg.slice_voxels = 100; // one slice
        let (mut stack, _) = acquire(&v, &cfg);
        assert_eq!(stack.len(), 1);
        let c = align(&mut stack, AlignMethod::MutualInformation, 3);
        assert_eq!(c, vec![(0, 0)]);
    }

    #[test]
    fn mi_is_robust_to_brightness_offsets() {
        // Shift intensities of one image: MI unchanged at the true offset,
        // SSD degraded.
        let v = structured_volume();
        let mut cfg = drifted_config(9);
        cfg.drift_sigma_px = 0.0;
        cfg.dwell_us = 1e6;
        let (stack, _) = acquire(&v, &cfg);
        let a = stack.slice(3).clone();
        let mut b = a.shifted(2, 1, a.median());
        b.add_offset(4.0); // within the same intensity bin: MI unaffected
        let ((dy, dz), score) = register_mi(&a, &b, 4);
        assert_eq!((dy, dz), (2, 1));
        assert!(score.is_finite());
    }

    #[test]
    fn mi_recovers_drift_on_low_contrast_stacks() {
        // Compress a slice's intensities into [100, 108] — a low-contrast
        // BSE acquisition. The fixed [0, 256) binning collapsed this into
        // one or two bins; range-adaptive binning must still register the
        // true shift.
        let v = structured_volume();
        let mut cfg = drifted_config(5);
        cfg.drift_sigma_px = 0.0;
        cfg.dwell_us = 1e6;
        let (stack, _) = acquire(&v, &cfg);
        let src = stack.slice(3);
        let (lo, hi) = src
            .pixels()
            .iter()
            .fold((f32::MAX, f32::MIN), |(l, h), &p| (l.min(p), h.max(p)));
        let mut a = src.clone();
        for p in a.pixels_mut() {
            *p = 100.0 + (*p - lo) / (hi - lo) * 8.0;
        }
        let b = a.shifted(2, 1, a.median());
        let ((dy, dz), score) = register_mi(&a, &b, 4);
        assert_eq!((dy, dz), (2, 1));
        assert!(score.is_finite());
    }

    #[test]
    fn mi_handles_constant_overlap() {
        // Degenerate case for range-adaptive binning: zero intensity range.
        let a = crate::sem::SemImage::filled(8, 8, 42.0);
        let b = crate::sem::SemImage::filled(8, 8, 42.0);
        let ((dy, dz), score) = register_mi(&a, &b, 2);
        assert_eq!((dy, dz), (0, 0));
        assert!(score.is_finite() || score == f64::NEG_INFINITY);
    }

    /// The original MI kernel, kept verbatim as the scalar reference: it
    /// recomputes both images' ranges per call, bins every pixel in float
    /// per call, and bounds-branches per pixel instead of row-blocking the
    /// histogram fill.
    fn mutual_information_reference(a: &SemImage, b: &SemImage, dy: i32, dz: i32) -> f64 {
        const BINS: usize = 32;
        let (ny, nz) = a.dims();
        let mut joint = [[0u32; BINS]; BINS];
        let mut count = 0u32;
        let range_of = |img: &SemImage| {
            img.pixels()
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                })
        };
        let (min_a, max_a) = range_of(a);
        let (min_b, max_b) = range_of(b);
        let bin = |v: f32, lo: f32, hi: f32| {
            let width = hi - lo;
            if width.is_nan() || width <= 0.0 {
                return 0usize;
            }
            (((v - lo) / width * BINS as f32).floor() as i32).clamp(0, BINS as i32 - 1) as usize
        };
        for z in 0..nz {
            let bz = z as i32 + dz;
            if bz < 0 || bz >= nz as i32 {
                continue;
            }
            for y in 0..ny {
                let by = y as i32 + dy;
                if by < 0 || by >= ny as i32 {
                    continue;
                }
                let (va, vb) = (a.get(y, z), b.get(by as usize, bz as usize));
                joint[bin(va, min_a, max_a)][bin(vb, min_b, max_b)] += 1;
                count += 1;
            }
        }
        if count == 0 {
            return f64::NEG_INFINITY;
        }
        let n = count as f64;
        let mut pa = [0.0f64; BINS];
        let mut pb = [0.0f64; BINS];
        for (i, row) in joint.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                let p = c as f64 / n;
                pa[i] += p;
                pb[j] += p;
            }
        }
        let mut mi = 0.0;
        for (i, row) in joint.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let p = c as f64 / n;
                mi += p * (p / (pa[i] * pb[j])).ln();
            }
        }
        mi
    }

    /// Scores `(a, b)` through the production path — each image binned
    /// once, then the index kernel — at offset `(dy, dz)`.
    fn index_mi(a: &SemImage, b: &SemImage, dy: i32, dz: i32) -> f64 {
        let (ny, nz) = a.dims();
        mutual_information(&bin_indices(a), &bin_indices(b), ny, nz, dy, dz)
    }

    /// Every offset of the ±5 square plus fully out-of-frame ones.
    fn offsets_for(a: &SemImage) -> Vec<(i32, i32)> {
        let (ny, nz) = a.dims();
        let big = ny.max(nz) as i32;
        let mut offsets: Vec<(i32, i32)> = Vec::new();
        for dz in -5..=5 {
            for dy in -5..=5 {
                offsets.push((dy, dz));
            }
        }
        // Degenerate overlaps: entire rows/columns out of frame.
        offsets.extend([(big, 0), (0, big), (-big, -big), (big - 1, 1 - big)]);
        offsets
    }

    fn assert_matches_reference(a: &SemImage, b: &SemImage, what: &str) {
        for (dy, dz) in offsets_for(a) {
            let got = index_mi(a, b, dy, dz);
            let want = mutual_information_reference(a, b, dy, dz);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what} offset ({dy}, {dz}): {got} vs {want}"
            );
        }
    }

    /// Regression test for the precomputed-index, row-blocked MI kernel:
    /// every candidate offset (including fully and partially out-of-frame
    /// ones) must score bit-identically to the per-pixel float-binning
    /// reference, on textured, constant and NaN-bearing images.
    #[test]
    fn blocked_mi_matches_reference_at_every_offset() {
        let v = structured_volume();
        let (stack, _) = acquire(&v, &drifted_config(13));
        let a = stack.slice(2);
        let b = stack.slice(3);
        assert_matches_reference(a, b, "textured");
        // Constant images: the degenerate single-bin path, also against a
        // textured partner.
        let ca = SemImage::filled(8, 8, 42.0);
        assert_matches_reference(&ca, &ca, "constant");
        let (ny, nz) = a.dims();
        let cb = SemImage::filled(ny, nz, -3.5);
        assert_matches_reference(a, &cb, "textured vs constant");
        assert_matches_reference(&cb, a, "constant vs textured");
        // NaN pixels: ignored by the range, binned to 0 by the saturating
        // cast. An all-NaN image has a NaN width and degenerates to bin 0.
        let mut na = a.clone();
        let mut nb = b.clone();
        for (k, p) in na.pixels_mut().iter_mut().enumerate() {
            if k % 7 == 3 {
                *p = f32::NAN;
            }
        }
        for (k, p) in nb.pixels_mut().iter_mut().enumerate() {
            if k % 11 == 0 {
                *p = -f32::NAN;
            }
        }
        assert_matches_reference(&na, &nb, "NaN-bearing");
        let all_nan = SemImage::filled(ny, nz, f32::NAN);
        assert_matches_reference(&all_nan, b, "all-NaN vs textured");
    }

    /// Full alignment is bit-identical at 1, 2 and 8 threads with the
    /// hoisted ranges (the candidate scoring is the parallel stage).
    #[test]
    fn alignment_is_identical_across_thread_counts() {
        let v = structured_volume();
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let (mut stack, _) = acquire(&v, &drifted_config(42));
                let corrections = align(&mut stack, AlignMethod::MutualInformation, 4);
                (stack, corrections)
            })
        };
        let (base_stack, base_corr) = run(1);
        for threads in [2usize, 8] {
            let (stack, corr) = run(threads);
            assert_eq!(base_corr, corr, "corrections @ {threads} threads");
            assert_eq!(base_stack, stack, "stack @ {threads} threads");
        }
    }

    #[test]
    fn align_with_records_per_slice_gauges() {
        use hifi_telemetry::JsonRecorder;
        let v = structured_volume();
        let (mut stack, _) = acquire(&v, &drifted_config(42));
        let n = stack.len();
        let mut rec = JsonRecorder::new();
        let instrumented = align_with(&mut stack, AlignMethod::MutualInformation, 4, &mut rec);
        // Same corrections as the uninstrumented path.
        let (mut stack2, _) = acquire(&v, &drifted_config(42));
        let plain = align(&mut stack2, AlignMethod::MutualInformation, 4);
        assert_eq!(instrumented, plain);
        assert_eq!(stack, stack2);
        // One score and one shift gauge per registered slice (all but the
        // reference slice 0).
        let scores = rec
            .events()
            .iter()
            .filter(|e| e.name == "align.slice_score")
            .count();
        assert_eq!(scores, n - 1);
        assert_eq!(rec.counter_total("align.slices"), n as u64);
        assert!(rec.counter_total("align.corrected_slices") <= (n - 1) as u64);
    }
}
