//! `mc_sweep`: the §VI sensing-sensitivity table. All of the time is
//! `analog` MNA (assemble, solve, Newton); nothing else runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hifi_analog::events::{try_simulate, ActivationConfig};
use hifi_analog::montecarlo::sample_seed;
use hifi_analog::{McConfig, McSample};
use hifi_circuit::topology::SaTopologyKind;
use hifi_conformance::run_seed;
use hifi_eval::mc_sensitivity::{mc_sensitivity_report, McSensitivityRow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::checks::mc_row_ok;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{account, guard, timed, Ctx, Run};

/// Latch Vt-mismatch levels of one cycle of rows (mV).
const SIGMAS_MV: [f64; 4] = [20.0, 45.0, 70.0, 95.0];
/// Monte-Carlo samples per topology in one row.
const SAMPLES: usize = 8;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;
/// Cycles stop here even if the program gets much faster.
const MAX_CYCLES: usize = 64;

const TOPOLOGIES: [(SaTopologyKind, &str); 2] = [
    (SaTopologyKind::Classic, "classic"),
    (SaTopologyKind::OffsetCancellation, "ocsa"),
];

/// One σ row: a paired classic and OCSA sweep. `Err` carries a panic or
/// `SimError` message.
fn row(cycle_seed: u64, sigma_mv: f64) -> Result<McSensitivityRow, String> {
    catch_unwind(AssertUnwindSafe(|| {
        mc_sensitivity_report(cycle_seed, SAMPLES, &[sigma_mv]).remove(0)
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "sweep panicked".into())
    })
}

/// Set-up: first activations of both topologies, so lazy initialisation
/// and first-touch allocation happen before timing.
fn warm_up() -> Result<(), String> {
    for (topology, _) in TOPOLOGIES {
        try_simulate(topology, &ActivationConfig::default(), true).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (secs, warmed) = timed(warm_up);
        warmed?;
        setups.push(secs);
    }
    run.set("setup_s", median(&setups), "");
    if ctx.trace {
        // The replay is sequential, so the rows it is compared with must be.
        rayon::with_num_threads(1, || measure(ctx, run))
    } else {
        measure(ctx, run)
    }
}

/// Runs σ rows, cycling through `SIGMAS_MV` with a fresh seed per cycle,
/// until `--seconds` have passed; with `--trace 1` each row is also
/// replayed. The clock is checked before every row, so a run overshoots
/// by at most one row.
fn measure(ctx: &Ctx, mut run: Run) -> Result<Run, String> {
    let mut latencies = Vec::new();
    let mut t = Tracer::default();
    let mut work = [Work::default(), Work::default()];
    let (mut untraced_ms, mut op_ids, mut mismatched) = (0.0, Vec::new(), 0);
    let start = Instant::now();
    for i in 0..MAX_CYCLES * SIGMAS_MV.len() {
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let seed = run_seed(ctx.seed, (i / SIGMAS_MV.len()) as u64);
        let sigma = SIGMAS_MV[i % SIGMAS_MV.len()];
        let op = run.attempted;
        run.attempted += 1;
        let (secs, result) = timed(|| row(seed, sigma));
        latencies.push(secs * 1e3);
        let expected = match result {
            Ok(r) if mc_row_ok(&r) => r,
            _ => {
                run.failed += 1;
                continue;
            }
        };
        if ctx.trace {
            untraced_ms += secs * 1e3;
            let (id, same) = t.span(op, None, "op", |t, id| {
                (id, replay_row(t, op, id, seed, sigma, &expected, &mut work))
            });
            op_ids.push(id);
            mismatched += usize::from(!same);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let samples = latencies.len() * 2 * SAMPLES;
    run.set("throughput_per_s", Some(samples as f64 / wall), "");
    run.set("latency_ms_p50", median(&latencies), "");
    run.set(
        "latency_ms_p90",
        None,
        &format!("{} rows a run; p90 needs 100", latencies.len()),
    );
    run.set("drift_residual_px", None, "no imaging");
    run.set("dim_error_pct", None, "no extraction");
    run.note("rows", Value::UInt(latencies.len() as u64));
    run.note("mc_samples", Value::UInt(samples as u64));
    if !ctx.trace {
        return Ok(run);
    }

    let traced_ms: f64 = op_ids.iter().map(|&id| t.spans()[id as usize].ms()).sum();
    let staged_ms: f64 = op_ids.iter().map(|&id| t.children_ms(id)).sum();
    account(
        &mut run,
        untraced_ms,
        staged_ms,
        traced_ms,
        op_ids.len() as f64,
    );
    for (w, (_, name)) in work.iter().zip(TOPOLOGIES) {
        let span_ms = t.durations_ms(&format!("analog.activation.{name}"));
        run.set(
            &format!("analog.activation_ms.{name}"),
            mean(&span_ms),
            "not called",
        );
        run.set(
            &format!("analog.steps_per_activation.{name}"),
            (w.activations > 0).then(|| w.steps as f64 / w.activations as f64),
            "not called",
        );
        run.set(
            &format!("analog.newton_iters_per_step.{name}"),
            (w.steps > 0).then(|| w.newton as f64 / w.steps as f64),
            "not called",
        );
    }
    let newton: usize = work.iter().map(|w| w.newton).sum();
    run.set(
        "analog.us_per_newton_iter",
        (newton > 0).then(|| staged_ms * 1e3 / newton as f64),
        "not called",
    );
    guard(
        &mut run,
        "replayed activations reproduce every sweep sample",
        mismatched == 0 && !op_ids.is_empty(),
        format!("{mismatched} of {} rows differ", op_ids.len()),
    );
    run.tracer = Some(t);
    Ok(run)
}

/// The Vt offset (V) `run_sweep` draws for sample `index` of a sweep
/// seeded `sweep_seed` — the same Box–Muller draw, so the replay's
/// activations are the sweep's activations.
fn offset_v(sweep_seed: u64, index: usize, sigma_mv: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(sample_seed(sweep_seed, index as u64));
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    gauss * sigma_mv * 1e-3 * std::f64::consts::SQRT_2
}

/// Per-topology solver work seen by the replay.
#[derive(Default)]
struct Work {
    activations: usize,
    steps: usize,
    newton: usize,
}

/// Replays one row as timed `try_simulate` calls in `run_sweep`'s order
/// and checks each sample against the sweep's own outcome.
fn replay_row(
    t: &mut Tracer,
    op: u64,
    id: u64,
    seed: u64,
    sigma_mv: f64,
    expected: &McSensitivityRow,
    work: &mut [Work; 2],
) -> bool {
    let mut same = true;
    for (k, ((topology, name), report)) in TOPOLOGIES
        .iter()
        .zip([&expected.classic, &expected.ocsa])
        .enumerate()
    {
        let base = McConfig::new(*topology, sigma_mv, SAMPLES).base;
        for (index, want) in report.samples.iter().enumerate() {
            let offset = offset_v(seed, index, sigma_mv);
            let cfg = ActivationConfig {
                nsa_vt_offset: offset,
                ..base.clone()
            };
            let mut got = McSample {
                index,
                seed: sample_seed(seed, index as u64),
                offset_mv: offset * 1e3,
                correct: true,
                max_newton_iterations: 0,
                worst_kcl_residual_amps: 0.0,
                split_ps: None,
            };
            for stored in [false, true] {
                let span = format!("analog.activation.{name}");
                let Ok(rep) = t.leaf(op, id, &span, || try_simulate(*topology, &cfg, stored))
                else {
                    return false;
                };
                got.correct &= rep.correct;
                if let Some(stats) = rep.solve_stats {
                    got.max_newton_iterations =
                        got.max_newton_iterations.max(stats.max_newton_iterations);
                    got.worst_kcl_residual_amps = got
                        .worst_kcl_residual_amps
                        .max(stats.worst_kcl_residual_amps);
                    work[k].steps += stats.steps;
                    work[k].newton += stats.newton_iterations;
                }
                work[k].activations += 1;
                if stored {
                    got.split_ps = rep.latch_split_time.map(|s| s * 1e12);
                }
            }
            same &= got == *want;
        }
    }
    same
}
