//! Property tests for the artifact codecs: round trips must be
//! bit-identical for arbitrary valid inputs (including empty stacks and
//! device-free netlists), and arbitrarily damaged blobs must decode to an
//! error — never a panic — so the store can fall back to recompute.

use proptest::prelude::*;

use hifi_circuit::{NetId, Netlist, Polarity, TransistorClass, TransistorDims};
use hifi_geometry::LayerStack;
use hifi_imaging::{DetectorKind, DriftTruth, ImageStack, SemImage};
use hifi_store::codec;
use hifi_synth::MaterialVolume;
use hifi_units::{Femtofarads, Nanometers};

/// Builds a valid volume from arbitrary bytes by cycling them through the
/// 8-value material alphabet.
fn volume_from(nx: usize, ny: usize, nz: usize, voxel_nm: f64, seed: &[u8]) -> MaterialVolume {
    let data: Vec<u8> = (0..nx * ny * nz)
        .map(|i| seed.get(i % seed.len().max(1)).copied().unwrap_or(0) % 8)
        .collect();
    MaterialVolume::from_raw(nx, ny, nz, voxel_nm, LayerStack::default_dram(), data)
        .expect("constructed volume is valid")
}

fn stack_from(n_slices: usize, ny: usize, nz: usize, pixels: &[f32], margin: usize) -> ImageStack {
    let slices = (0..n_slices)
        .map(|s| {
            let mut img = SemImage::filled(ny, nz, 0.0);
            for (i, p) in img.pixels_mut().iter_mut().enumerate() {
                *p = pixels
                    .get((s + i) % pixels.len().max(1))
                    .copied()
                    .unwrap_or(0.25);
            }
            img
        })
        .collect();
    ImageStack::from_slices(slices, 4.5, 2, DetectorKind::Bse).with_frame_margin(margin)
}

proptest! {
    #[test]
    fn volume_round_trips_for_arbitrary_contents(
        nx in 1usize..8,
        ny in 1usize..8,
        nz in 1usize..6,
        voxel_nm in 0.5f64..25.0,
        seed in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let v = volume_from(nx, ny, nz, voxel_nm, &seed);
        let decoded = codec::decode_volume(&codec::encode_volume(&v));
        prop_assert_eq!(decoded.as_ref(), Ok(&v));
    }

    /// Slice counts and dimensions include zero: the empty-stack edge case
    /// is part of the property's domain, not a separate special case. A
    /// frame margin wider than half a slice dimension frames nothing, so
    /// such stacks must be rejected as structural damage instead.
    #[test]
    fn acquisition_round_trips_including_empty(
        n_slices in 0usize..4,
        ny in 0usize..6,
        nz in 0usize..6,
        margin in 0usize..4,
        pixels in prop::collection::vec(-1.0e3f32..1.0e3, 1..64),
        shifts in prop::collection::vec((-4i32..4, -4i32..4), 0..4),
        brightness in prop::collection::vec(-2.0f64..2.0, 0..4),
    ) {
        let stack = stack_from(n_slices, ny, nz, &pixels, margin);
        let truth = DriftTruth { shifts: shifts.clone(), brightness };
        let degraded: Vec<usize> = (0..stack.len()).step_by(2).collect();
        let blob = codec::encode_acquisition(&stack, &truth, &degraded);
        if n_slices > 0 && 2 * margin > ny.min(nz) {
            let invalid = |r: Result<(), codec::CodecError>| {
                matches!(r, Err(codec::CodecError::Invalid { .. }))
            };
            prop_assert!(invalid(codec::decode_acquisition(&blob).map(drop)));
            let blob = codec::encode_processed(&stack, &shifts);
            prop_assert!(invalid(codec::decode_processed(&blob).map(drop)));
        } else {
            let (s2, t2, d2) = codec::decode_acquisition(&blob).expect("round trip");
            prop_assert_eq!(&s2, &stack);
            prop_assert_eq!(s2.frame_margin_px(), stack.frame_margin_px());
            prop_assert_eq!(t2, truth);
            prop_assert_eq!(d2, degraded);

            let blob = codec::encode_processed(&stack, &shifts);
            let (s3, c3) = codec::decode_processed(&blob).expect("round trip");
            prop_assert_eq!(s3, stack);
            prop_assert_eq!(c3, shifts);
        }
    }

    /// Device counts include zero: a nets-only netlist round trips too.
    #[test]
    fn netlist_round_trips_for_arbitrary_graphs(
        n_nets in 1usize..6,
        mosfets in prop::collection::vec(
            (0u8..9, any::<bool>(), 1.0f64..900.0, 1.0f64..900.0, any::<u8>(), any::<u8>(), any::<u8>()),
            0..6,
        ),
        caps in prop::collection::vec((0.1f64..50.0, any::<u8>(), any::<u8>()), 0..3),
    ) {
        let mut nl = Netlist::new("prop");
        for i in 0..n_nets {
            nl.add_net(format!("net{i}"));
        }
        let net = |raw: u8| NetId(raw as usize % n_nets);
        for (i, &(class, nmos, w, l, g, s, d)) in mosfets.iter().enumerate() {
            nl.add_mosfet(
                format!("m{i}"),
                if nmos { Polarity::Nmos } else { Polarity::Pmos },
                TransistorClass::ALL[class as usize],
                TransistorDims::new(Nanometers(w), Nanometers(l)),
                net(g),
                net(s),
                net(d),
            );
        }
        for (i, &(ff, a, b)) in caps.iter().enumerate() {
            nl.add_capacitor(format!("c{i}"), Femtofarads(ff), net(a), net(b));
        }
        let decoded = codec::decode_netlist(&codec::encode_netlist(&nl));
        prop_assert_eq!(decoded.as_ref(), Ok(&nl));
    }

    /// A single flipped byte anywhere in a volume blob must yield a clean
    /// decode result (an error, or — if the flip lands in padding that the
    /// format tolerates — a volume), never a panic or runaway allocation.
    #[test]
    fn flipped_byte_decodes_cleanly(
        nx in 1usize..6,
        ny in 1usize..6,
        nz in 1usize..4,
        seed in prop::collection::vec(any::<u8>(), 1..64),
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let v = volume_from(nx, ny, nz, 6.0, &seed);
        let mut blob = codec::encode_volume(&v);
        let idx = (pos % blob.len() as u64) as usize;
        blob[idx] ^= flip;
        let _ = codec::decode_volume(&blob);
    }
}
