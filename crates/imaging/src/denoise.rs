//! Total-variation denoising (Chambolle's dual projection algorithm).
//!
//! The paper filters every cross-section with an edge-preserving
//! total-variation denoiser (split-Bregman or Chambolle) before alignment
//! (Section IV-C). We implement Chambolle (2004): minimise
//! `‖u − f‖² / (2λ) + TV(u)` by projected gradient on the dual variable.

use crate::sem::{ImageStack, SemImage};

/// Denoises one image with Chambolle's algorithm.
///
/// `lambda` balances fidelity against smoothing (larger = smoother);
/// `iterations` of the dual update with the standard step 0.25.
///
/// # Panics
///
/// Panics if `lambda` is not positive.
pub fn chambolle_tv(image: &SemImage, lambda: f32, iterations: usize) -> SemImage {
    let mut scratch = TvScratch::default();
    chambolle_tv_with(image, lambda, iterations, &mut scratch)
}

/// Reusable working buffers for [`chambolle_tv_with`]: the dual field
/// `(p1, p2)`, its divergence, and the materialized primal `u`. Denoising a
/// stack slice-by-slice through one `TvScratch` performs no per-slice
/// allocation once the buffers reach the slice size.
#[derive(Debug, Default, Clone)]
pub struct TvScratch {
    p1: Vec<f32>,
    p2: Vec<f32>,
    div: Vec<f32>,
    u: Vec<f32>,
}

impl TvScratch {
    fn resize(&mut self, n: usize) {
        for buf in [&mut self.p1, &mut self.p2, &mut self.div, &mut self.u] {
            buf.clear();
            buf.resize(n, 0.0);
        }
    }
}

/// `div p` of the dual field into `div`, row-flat so the inner loops carry
/// no index arithmetic beyond a unit stride (autovectorizer-friendly).
/// Subtracting a literal `0.0` at the `y = 0` / `z = 0` borders is exact,
/// so folding the border case into the expressions below would be
/// bit-identical — it is kept explicit to keep each inner loop flat.
fn divergence(p1: &[f32], p2: &[f32], div: &mut [f32], ny: usize, nz: usize) {
    for z in 0..nz {
        let base = z * ny;
        if z == 0 {
            div[0] = p1[0] + p2[0];
            for y in 1..ny {
                let i = base + y;
                div[i] = (p1[i] - p1[i - 1]) + p2[i];
            }
        } else {
            div[base] = p1[base] + (p2[base] - p2[base - ny]);
            for y in 1..ny {
                let i = base + y;
                div[i] = (p1[i] - p1[i - 1]) + (p2[i] - p2[i - ny]);
            }
        }
    }
}

/// One dual-ascent step at pixel `i` given the forward gradient of `u`.
/// With u = f − λ·div p, the update direction is ∇(div p − f/λ) = −∇u/λ,
/// followed by the semi-implicit reprojection 1 + τ|g|.
#[inline(always)]
fn dual_step(p1: &mut [f32], p2: &mut [f32], i: usize, gx: f32, gy: f32, lambda: f32, tau: f32) {
    let g1 = -gx / lambda;
    let g2 = -gy / lambda;
    let denom = 1.0 + tau * (g1 * g1 + g2 * g2).sqrt();
    p1[i] = (p1[i] + tau * g1) / denom;
    p2[i] = (p2[i] + tau * g2) / denom;
}

/// [`chambolle_tv`] against caller-owned scratch buffers, so tiled and
/// per-stack denoising reuse one arena across slices.
///
/// The primal `u = f − λ·div p` is materialized once per dual iteration
/// into `scratch.u` — the dual ascent reads each value three times (here /
/// right / down), and recomputing it through a closure tripled the
/// multiply-subtract work of the hottest loop in the pipeline. Every value
/// is produced by the same arithmetic expression as the scalar reference,
/// so the result is bit-identical (pinned by `matches_scalar_reference`).
pub fn chambolle_tv_with(
    image: &SemImage,
    lambda: f32,
    iterations: usize,
    scratch: &mut TvScratch,
) -> SemImage {
    assert!(lambda > 0.0, "lambda must be positive");
    let (ny, nz) = image.dims();
    let n = ny * nz;
    if n == 0 {
        return image.clone();
    }
    scratch.resize(n);
    let TvScratch { p1, p2, div, u } = scratch;
    let f = image.pixels();
    let tau = 0.25f32;

    for _ in 0..iterations {
        divergence(p1, p2, div, ny, nz);
        // u = f − λ·div p, materialized once for the whole image.
        for i in 0..n {
            u[i] = f[i] - lambda * div[i];
        }
        // Dual ascent, row-flat with the borders peeled off so the hot
        // interior loop is branch-free over contiguous f32 lanes.
        for z in 0..nz {
            let base = z * ny;
            if z + 1 < nz {
                for y in 0..ny - 1 {
                    let i = base + y;
                    let here = u[i];
                    dual_step(p1, p2, i, u[i + 1] - here, u[i + ny] - here, lambda, tau);
                }
                let i = base + ny - 1;
                dual_step(p1, p2, i, 0.0, u[i + ny] - u[i], lambda, tau);
            } else {
                for y in 0..ny - 1 {
                    let i = base + y;
                    dual_step(p1, p2, i, u[i + 1] - u[i], 0.0, lambda, tau);
                }
                dual_step(p1, p2, base + ny - 1, 0.0, 0.0, lambda, tau);
            }
        }
    }
    // Final primal: u = f − λ div p.
    divergence(p1, p2, div, ny, nz);
    let mut out = image.clone();
    let pixels = out.pixels_mut();
    for i in 0..n {
        pixels[i] = f[i] - lambda * div[i];
    }
    out
}

/// 3×3 median filter — the edge-preserving prefilter of the pipeline.
///
/// Unlike total variation, the median does not shrink the amplitude of
/// small bright features (the SA region's wires are only 2–4 pixels wide in
/// cross-section), while suppressing shot noise by ≈3×. Borders use the
/// clamped neighbourhood.
///
/// The filter emits an order statistic under `f32::total_cmp`, not an
/// averaged median: only values present in the neighbourhood come out,
/// and a stray NaN pixel (ordered last) cannot abort the run. Interior
/// pixels take the 5th of their 9 values through a median-of-9
/// compare-exchange network ([`median9`]) on `total_cmp`'s integer keys;
/// border pixels, with 4 or 6 neighbours, sort their clamped window. Both
/// paths give the same bits: `total_cmp` is a total order in which
/// distinct bit patterns never compare equal, so the k-th order statistic
/// of a window is one unique bit pattern however it is selected.
pub fn median3x3(image: &SemImage) -> SemImage {
    let (ny, nz) = image.dims();
    let mut out = image.clone();
    let interior = ny >= 3 && nz >= 3;
    if interior {
        let keys: Vec<i32> = image.pixels().iter().map(|&v| order_key(v)).collect();
        let pixels = out.pixels_mut();
        for z in 1..nz - 1 {
            let r0 = &keys[(z - 1) * ny..z * ny];
            let r1 = &keys[z * ny..(z + 1) * ny];
            let r2 = &keys[(z + 1) * ny..(z + 2) * ny];
            let row = &mut pixels[z * ny..(z + 1) * ny];
            for y in 1..ny - 1 {
                row[y] = from_order_key(median9([
                    r0[y - 1],
                    r0[y],
                    r0[y + 1],
                    r1[y - 1],
                    r1[y],
                    r1[y + 1],
                    r2[y - 1],
                    r2[y],
                    r2[y + 1],
                ]));
            }
        }
    }
    let mut window = [0.0f32; 9];
    let mut border = |y: usize, z: usize| {
        let mut n = 0;
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                let (py, pz) = (y as i32 + dy, z as i32 + dz);
                if py >= 0 && py < ny as i32 && pz >= 0 && pz < nz as i32 {
                    window[n] = image.get(py as usize, pz as usize);
                    n += 1;
                }
            }
        }
        window[..n].sort_by(f32::total_cmp);
        window[n / 2]
    };
    for z in 0..nz {
        if interior && z > 0 && z + 1 < nz {
            out.set(0, z, border(0, z));
            out.set(ny - 1, z, border(ny - 1, z));
        } else {
            for y in 0..ny {
                out.set(y, z, border(y, z));
            }
        }
    }
    out
}

/// `f32::total_cmp`'s sort key: the bits as `i32` with the magnitude bits
/// of negative values flipped, so integer order is `total_cmp` order.
#[inline(always)]
fn order_key(v: f32) -> i32 {
    flip_negative(v.to_bits() as i32)
}

/// Inverse of [`order_key`].
#[inline(always)]
fn from_order_key(key: i32) -> f32 {
    f32::from_bits(flip_negative(key) as u32)
}

/// Flips the 31 magnitude bits when the sign bit is set: an involution
/// that keeps the sign bit, so it both makes and undoes the key.
#[inline(always)]
fn flip_negative(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The 5th smallest of nine keys: the 19 compare-exchange median-of-9
/// network (Paeth; Devillard's `opt_med9`), with integer min/max.
#[inline(always)]
fn median9(mut p: [i32; 9]) -> i32 {
    #[inline(always)]
    fn cx(p: &mut [i32; 9], a: usize, b: usize) {
        let (x, y) = (p[a], p[b]);
        p[a] = x.min(y);
        p[b] = x.max(y);
    }
    cx(&mut p, 1, 2);
    cx(&mut p, 4, 5);
    cx(&mut p, 7, 8);
    cx(&mut p, 0, 1);
    cx(&mut p, 3, 4);
    cx(&mut p, 6, 7);
    cx(&mut p, 1, 2);
    cx(&mut p, 4, 5);
    cx(&mut p, 7, 8);
    cx(&mut p, 0, 3);
    cx(&mut p, 5, 8);
    cx(&mut p, 4, 7);
    cx(&mut p, 3, 6);
    cx(&mut p, 1, 4);
    cx(&mut p, 2, 5);
    cx(&mut p, 4, 7);
    cx(&mut p, 4, 2);
    cx(&mut p, 6, 4);
    cx(&mut p, 4, 2);
    p[4]
}

/// Denoises every slice of a stack in place with Chambolle TV. Keep `lambda`
/// small (≈2) on SA-region stacks: wires are only 2–4 pixels across and
/// stronger TV shrinks their amplitude below the classification margins.
///
/// Slices are independent, so they are denoised in parallel; each slice is
/// transformed purely from its own pixels, making the result bit-identical
/// at any thread count.
pub fn denoise(stack: &mut ImageStack, lambda: f32, iterations: usize) {
    denoise_profiled(stack, lambda, iterations, None);
}

/// [`denoise`] with optional per-slice lane profiling: when `lanes` is
/// set, each slice's TV pass is timed as a `denoise.slice` span on the
/// worker lane that executed it.
pub fn denoise_profiled(
    stack: &mut ImageStack,
    lambda: f32,
    iterations: usize,
    lanes: Option<&hifi_telemetry::LaneProfiler>,
) {
    rayon::par_chunks_mut(stack.slices_mut(), |chunk| {
        // One scratch arena per worker chunk: slices within a chunk reuse
        // the same dual-field and primal buffers.
        let mut scratch = TvScratch::default();
        for s in chunk {
            *s = match lanes {
                Some(l) => l.time(
                    "denoise.slice",
                    rayon::current_thread_index() as u32,
                    || chambolle_tv_with(s, lambda, iterations, &mut scratch),
                ),
                None => chambolle_tv_with(s, lambda, iterations, &mut scratch),
            };
        }
    });
}

/// Averages each slice with its neighbours along the milling direction
/// (window `i−radius ..= i+radius`, clamped at the stack ends). Structures
/// extend across consecutive slices, so this cuts shot noise by ≈√(2r+1)
/// with **no in-plane erosion** — run it *after* alignment.
pub fn average_slices(stack: &mut ImageStack, radius: usize) {
    if radius == 0 || stack.len() < 2 {
        return;
    }
    let n = stack.len();
    let originals: Vec<SemImage> = stack.slices().to_vec();
    for i in 0..n {
        let lo = i.saturating_sub(radius);
        let hi = (i + radius).min(n - 1);
        let count = (hi - lo + 1) as f32;
        let out = stack.slices_mut()[i].pixels_mut();
        for (p, v) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for s in &originals[lo..=hi] {
                acc += s.pixels()[p];
            }
            *v = acc / count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The original scalar implementation, kept verbatim as the reference
    /// for the buffer-reusing row-flat kernel: nested `(y, z)` loops and a
    /// closure that recomputes `u = f − λ·div p` at every access.
    fn chambolle_tv_reference(image: &SemImage, lambda: f32, iterations: usize) -> SemImage {
        assert!(lambda > 0.0, "lambda must be positive");
        let (ny, nz) = image.dims();
        let n = ny * nz;
        let mut p1 = vec![0.0f32; n];
        let mut p2 = vec![0.0f32; n];
        let mut div = vec![0.0f32; n];
        let idx = |y: usize, z: usize| z * ny + y;
        let tau = 0.25f32;
        for _ in 0..iterations {
            for z in 0..nz {
                for y in 0..ny {
                    let i = idx(y, z);
                    let a = p1[i] - if y > 0 { p1[idx(y - 1, z)] } else { 0.0 };
                    let b = p2[i] - if z > 0 { p2[idx(y, z - 1)] } else { 0.0 };
                    div[i] = a + b;
                }
            }
            for z in 0..nz {
                for y in 0..ny {
                    let i = idx(y, z);
                    let u = |yy: usize, zz: usize| {
                        let j = idx(yy, zz);
                        image.get(yy, zz) - lambda * div[j]
                    };
                    let here = u(y, z);
                    let gx = if y + 1 < ny { u(y + 1, z) - here } else { 0.0 };
                    let gy = if z + 1 < nz { u(y, z + 1) - here } else { 0.0 };
                    let g1 = -gx / lambda;
                    let g2 = -gy / lambda;
                    let denom = 1.0 + tau * (g1 * g1 + g2 * g2).sqrt();
                    p1[i] = (p1[i] + tau * g1) / denom;
                    p2[i] = (p2[i] + tau * g2) / denom;
                }
            }
        }
        for z in 0..nz {
            for y in 0..ny {
                let i = idx(y, z);
                let a = p1[i] - if y > 0 { p1[idx(y - 1, z)] } else { 0.0 };
                let b = p2[i] - if z > 0 { p2[idx(y, z - 1)] } else { 0.0 };
                div[i] = a + b;
            }
        }
        let mut out = image.clone();
        for z in 0..nz {
            for y in 0..ny {
                let v = image.get(y, z) - lambda * div[idx(y, z)];
                out.set(y, z, v);
            }
        }
        out
    }

    fn assert_bits_equal(a: &SemImage, b: &SemImage, what: &str) {
        let ab: Vec<u32> = a.pixels().iter().map(|p| p.to_bits()).collect();
        let bb: Vec<u32> = b.pixels().iter().map(|p| p.to_bits()).collect();
        assert_eq!(ab, bb, "{what}");
    }

    /// The regression test for the materialized-`u` kernel: bit-identical
    /// to the scalar closure-based reference on noisy data, odd dims and
    /// single-row/column edge shapes.
    #[test]
    fn matches_scalar_reference() {
        let (_, noisy) = noisy_step(25.0, 3);
        for &(lambda, iters) in &[(2.0f32, 10usize), (12.0, 30), (0.7, 5)] {
            assert_bits_equal(
                &chambolle_tv(&noisy, lambda, iters),
                &chambolle_tv_reference(&noisy, lambda, iters),
                &format!("lambda {lambda} iters {iters}"),
            );
        }
        for &(ny, nz) in &[(1usize, 7usize), (7, 1), (1, 1), (5, 3)] {
            let mut img = SemImage::filled(ny, nz, 10.0);
            let mut rng = StdRng::seed_from_u64(9);
            for p in img.pixels_mut() {
                *p += rng.gen_range(-30.0..30.0) as f32;
            }
            assert_bits_equal(
                &chambolle_tv(&img, 4.0, 12),
                &chambolle_tv_reference(&img, 4.0, 12),
                &format!("dims ({ny}, {nz})"),
            );
        }
    }

    /// Scratch reuse across differently-sized and differently-valued
    /// slices must not leak state between calls.
    #[test]
    fn scratch_reuse_is_stateless() {
        let (_, a) = noisy_step(20.0, 5);
        let mut small = SemImage::filled(9, 6, 70.0);
        small.set(4, 3, 200.0);
        let mut scratch = TvScratch::default();
        let first = chambolle_tv_with(&a, 3.0, 8, &mut scratch);
        let shrunk = chambolle_tv_with(&small, 3.0, 8, &mut scratch);
        let again = chambolle_tv_with(&a, 3.0, 8, &mut scratch);
        assert_bits_equal(&first, &again, "same input through reused scratch");
        assert_bits_equal(&shrunk, &chambolle_tv(&small, 3.0, 8), "shrunk slice");
    }

    /// The stack-level kernel must stay bit-identical to per-slice scalar
    /// reference runs at 1, 2 and 8 threads (chunk boundaries move, the
    /// pixels must not).
    #[test]
    fn stack_denoise_matches_reference_across_thread_counts() {
        let slices: Vec<SemImage> = (0..7).map(|s| noisy_step(22.0, 40 + s).1).collect();
        let reference: Vec<SemImage> = slices
            .iter()
            .map(|s| chambolle_tv_reference(s, 2.0, 10))
            .collect();
        for threads in [1usize, 2, 8] {
            let mut stack =
                ImageStack::from_slices(slices.clone(), 5.0, 1, crate::sem::DetectorKind::Bse);
            rayon::with_num_threads(threads, || denoise(&mut stack, 2.0, 10));
            for (i, (got, want)) in stack.slices().iter().zip(&reference).enumerate() {
                assert_bits_equal(got, want, &format!("slice {i} @ {threads} threads"));
            }
        }
    }

    /// A step-edge image with additive noise.
    fn noisy_step(sigma: f32, seed: u64) -> (SemImage, SemImage) {
        let (ny, nz) = (40, 30);
        let mut clean = SemImage::filled(ny, nz, 30.0);
        for z in 0..nz {
            for y in 20..ny {
                clean.set(y, z, 200.0);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noisy = clean.clone();
        for p in noisy.pixels_mut() {
            // Uniform noise is fine for this test.
            *p += rng.gen_range(-sigma..sigma);
        }
        (clean, noisy)
    }

    fn mse(a: &SemImage, b: &SemImage) -> f32 {
        let n = a.pixels().len() as f32;
        a.pixels()
            .iter()
            .zip(b.pixels())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            / n
    }

    #[test]
    fn denoising_reduces_error_against_clean_image() {
        let (clean, noisy) = noisy_step(25.0, 7);
        let den = chambolle_tv(&noisy, 12.0, 30);
        let before = mse(&clean, &noisy);
        let after = mse(&clean, &den);
        assert!(
            after < before * 0.5,
            "denoise should halve the MSE: {before} -> {after}"
        );
    }

    #[test]
    fn edges_are_preserved() {
        let (_, noisy) = noisy_step(20.0, 11);
        let den = chambolle_tv(&noisy, 10.0, 30);
        // The step at y=20 must survive: strong contrast across the edge.
        let left: f32 = (0..30).map(|z| den.get(18, z)).sum::<f32>() / 30.0;
        let right: f32 = (0..30).map(|z| den.get(22, z)).sum::<f32>() / 30.0;
        assert!(right - left > 120.0, "edge contrast {left} vs {right}");
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let img = SemImage::filled(10, 10, 55.0);
        let den = chambolle_tv(&img, 10.0, 15);
        for (a, b) in img.pixels().iter().zip(den.pixels()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_lambda_rejected() {
        let img = SemImage::filled(4, 4, 0.0);
        let _ = chambolle_tv(&img, 0.0, 5);
    }

    /// The original median filter, kept verbatim as the reference for the
    /// network path: every pixel sorts its clamped window.
    fn median3x3_reference(image: &SemImage) -> SemImage {
        let (ny, nz) = image.dims();
        let mut out = image.clone();
        let mut window = [0.0f32; 9];
        for z in 0..nz {
            for y in 0..ny {
                let mut n = 0;
                for dz in -1i32..=1 {
                    for dy in -1i32..=1 {
                        let (py, pz) = (y as i32 + dy, z as i32 + dz);
                        if py >= 0 && py < ny as i32 && pz >= 0 && pz < nz as i32 {
                            window[n] = image.get(py as usize, pz as usize);
                            n += 1;
                        }
                    }
                }
                window[..n].sort_by(f32::total_cmp);
                out.set(y, z, window[n / 2]);
            }
        }
        out
    }

    /// A random image over a palette heavy in ties and special values:
    /// NaNs of both signs and two payloads, ±0.0, ±inf, and a few small
    /// integers, mixed with uniform noise.
    fn adversarial_image(ny: usize, nz: usize, seed: u64) -> SemImage {
        let palette = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            2.0,
            -1.0,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut img = SemImage::filled(ny, nz, 0.0);
        for p in img.pixels_mut() {
            *p = if rng.gen_bool(0.6) {
                palette[rng.gen_range(0..palette.len())]
            } else {
                rng.gen_range(-100.0f32..100.0)
            };
        }
        img
    }

    #[test]
    fn median_network_matches_sort_reference() {
        let shapes = [
            (1, 1),
            (1, 9),
            (9, 1),
            (2, 2),
            (3, 3),
            (2, 7),
            (7, 2),
            (4, 5),
            (167, 121),
        ];
        for (k, &(ny, nz)) in shapes.iter().enumerate() {
            for seed in 0..4u64 {
                let img = adversarial_image(ny, nz, seed * 31 + k as u64);
                assert_bits_equal(
                    &median3x3(&img),
                    &median3x3_reference(&img),
                    &format!("median3x3 {ny}x{nz} seed {seed}"),
                );
            }
        }
        // A noisy SEM-like image, where the interior path dominates.
        let (noisy, _) = noisy_step(6.0, 3);
        assert_bits_equal(&median3x3(&noisy), &median3x3_reference(&noisy), "noisy");
    }

    /// 0-1 principle: a comparator network selects the median of every
    /// input iff it does so for every 0/1 input, so checking all 2⁹ binary
    /// windows proves the network.
    #[test]
    fn median9_network_is_a_median_selector() {
        for mask in 0u32..512 {
            let mut p = [0i32; 9];
            for (i, v) in p.iter_mut().enumerate() {
                *v = ((mask >> i) & 1) as i32;
            }
            let ones = mask.count_ones();
            assert_eq!(median9(p), i32::from(ones >= 5), "mask {mask:09b}");
        }
    }

    #[test]
    fn order_key_is_total_cmp_order() {
        let values = [
            f32::NEG_INFINITY,
            -f32::NAN,
            -1.5,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.5,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc0_0001),
        ];
        for &a in &values {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for &b in &values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }
}
