//! Pinned bit-identity of the MNA transient engine.
//!
//! The engine's linear solve is planned once per circuit (a sparse LU that
//! replays the dense partial-pivot elimination over structural entries
//! only), and that plan is claimed to be an *exact* rewrite: every trace
//! sample and every solver statistic the same, bit for bit. This test makes
//! the claim enforceable. It pins an FNV-1a digest of every trace sample's
//! `f64` bits (nets in name order) plus the run's [`SolveStats`] for classic
//! and OCSA activations at three latch offsets and both stored values, and
//! a second digest of a Monte-Carlo report, which must be the same at 1, 2
//! and 8 threads. The pinned values were computed with the dense
//! elimination that allocated a fresh solution vector per Newton iteration;
//! any change to them is a change of output, not an optimisation.
//!
//! The sweep digest covers every per-sample field and the report's worst
//! Newton count and KCL residual, but not `solve.steps` or
//! `solve.newton_iterations`: those are totals that the sweep left at 0
//! and filled with a sum of per-sample maxima before they were folded from
//! each activation's own statistics.

use hifi_analog::events::{try_simulate, ActivationConfig};
use hifi_analog::{run_sweep, McConfig, McReport, SolveStats};
use hifi_circuit::topology::SaTopologyKind;

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

    fn f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }
}

fn hash_stats(h: &mut Fnv, s: &SolveStats) {
    h.usize(s.steps);
    h.usize(s.newton_iterations);
    h.usize(s.max_newton_iterations);
    h.f64(s.worst_kcl_residual_amps);
}

/// Digest of twelve activations of `kind`: latch offsets {0, +30, −50} mV
/// × stored {0, 1}, every net's trace bits plus the solver statistics.
fn activation_digest(kind: SaTopologyKind) -> u64 {
    let mut h = Fnv::new();
    for offset_mv in [0.0, 30.0, -50.0] {
        let cfg = ActivationConfig {
            nsa_vt_offset: offset_mv * 1e-3,
            ..ActivationConfig::default()
        };
        for stored in [false, true] {
            let rep = try_simulate(kind, &cfg, stored).expect("testbench is valid");
            let mut nets: Vec<&str> = rep.waveforms.nets().collect();
            nets.sort_unstable();
            for net in nets {
                h.write(net.as_bytes());
                for &v in rep.waveforms.trace(net).expect("listed net") {
                    h.f64(v);
                }
            }
            hash_stats(&mut h, &rep.solve_stats.expect("MNA engine reports stats"));
        }
    }
    h.0
}

fn hash_report(h: &mut Fnv, rep: &McReport) {
    for s in &rep.samples {
        h.usize(s.index);
        h.write(&s.seed.to_le_bytes());
        h.f64(s.offset_mv);
        h.write(&[u8::from(s.correct)]);
        h.usize(s.max_newton_iterations);
        h.f64(s.worst_kcl_residual_amps);
        h.f64(s.split_ps.unwrap_or(f64::NAN));
    }
    h.usize(rep.failures);
    h.f64(rep.yield_fraction);
    h.f64(rep.smallest_failing_offset_mv.unwrap_or(f64::NAN));
    h.usize(rep.solve.max_newton_iterations);
    h.f64(rep.solve.worst_kcl_residual_amps);
}

/// Digest of a 4-sample σ = 45 mV sweep of each topology.
fn sweep_digest() -> u64 {
    let mut h = Fnv::new();
    for kind in [SaTopologyKind::Classic, SaTopologyKind::OffsetCancellation] {
        hash_report(&mut h, &run_sweep(&McConfig::new(kind, 45.0, 4)));
    }
    h.0
}

#[test]
fn classic_activations_are_pinned() {
    assert_eq!(
        activation_digest(SaTopologyKind::Classic),
        0x52f8_2c8f_37e5_e5c1
    );
}

#[test]
fn ocsa_activations_are_pinned() {
    assert_eq!(
        activation_digest(SaTopologyKind::OffsetCancellation),
        0xc2a1_f895_8e2c_d4c1
    );
}

#[test]
fn sweep_report_is_pinned_at_any_thread_count() {
    for threads in [1, 2, 8] {
        assert_eq!(
            rayon::with_num_threads(threads, sweep_digest),
            0xdcb9_9309_ec28_1bb2,
            "{threads} threads"
        );
    }
}
