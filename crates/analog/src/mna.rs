//! Modified-Nodal-Analysis transient engine.
//!
//! The fixed-timestep solver in [`crate::sim`] integrates node charge
//! explicitly, which forces sub-picosecond steps and treats driven nets as
//! ideal rails outside the equation system. This module solves the circuit
//! equations properly: every node voltage and every source branch current is
//! an unknown of one nonlinear system per timestep, discretised with
//! backward Euler and solved by damped Newton iteration. That buys
//! unconditional stability (20× coarser steps at the same fidelity), exact
//! KCL at every solution point (the property tests pin the residual), and
//! typed diagnostics when the latch's positive feedback defeats convergence.
//! Each Newton iteration's linear system is solved by a sparse LU planned
//! once per run from the circuit's stamp pattern; it returns the bits of
//! the dense partial-pivot elimination and allocates nothing.
//!
//! The engine is driven by the same [`Stimulus`] schedules as the legacy
//! solver and accepts any [`hifi_circuit::Netlist`] — including netlists
//! straight out of `hifi_extract`, which is what makes the behavioral
//! conformance oracle possible.

use crate::model::MosfetModel;
use crate::sim::{SimError, Stimulus, Waveform, Waveforms};
use crate::stamp::MnaSystem;
use hifi_circuit::{Device, Netlist};
use hifi_units::{Femtofarads, Volts};
use std::collections::HashMap;

/// Perturbation used for the numerical MOSFET partial derivatives (V).
const DERIV_STEP_V: f64 = 1e-6;

#[derive(Debug, Clone)]
enum Element {
    Resistor { a: usize, b: usize, siemens: f64 },
    Capacitor { a: usize, b: usize, farads: f64 },
    Mosfet(MosfetElement),
}

#[derive(Debug, Clone)]
struct MosfetElement {
    name: String,
    model: MosfetModel,
    gate: usize,
    source: usize,
    drain: usize,
}

/// A circuit compiled for MNA simulation.
///
/// Node voltages are referenced to an implicit ground that is *not* a named
/// node: a netlist's `GND` net is an ordinary node a [`Stimulus`] holds at
/// 0 V, exactly as with [`crate::AnalogCircuit`]. Every node carries a small
/// parasitic capacitance and a `gmin` leak to the reference so the system
/// stays well-posed even around cut-off transistors.
#[derive(Debug, Clone)]
pub struct MnaCircuit {
    node_names: Vec<String>,
    elements: Vec<Element>,
    parasitic_f: f64,
    gmin_siemens: f64,
    vt_offsets: HashMap<String, Volts>,
}

impl Default for MnaCircuit {
    fn default() -> Self {
        Self::new()
    }
}

impl MnaCircuit {
    /// Default per-node parasitic capacitance, matching the legacy engine.
    pub const DEFAULT_PARASITIC: Femtofarads = Femtofarads(0.5);
    /// Default conditioning conductance from every node to the reference.
    pub const DEFAULT_GMIN_S: f64 = 1e-12;

    /// An empty circuit for builder-style construction (mainly tests).
    pub fn new() -> Self {
        Self {
            node_names: Vec::new(),
            elements: Vec::new(),
            parasitic_f: Self::DEFAULT_PARASITIC.value() * 1e-15,
            gmin_siemens: Self::DEFAULT_GMIN_S,
            vt_offsets: HashMap::new(),
        }
    }

    /// Interns a node by name, returning its index.
    pub fn node(&mut self, name: &str) -> usize {
        if let Some(i) = self.node_names.iter().position(|n| n == name) {
            return i;
        }
        self.node_names.push(name.to_owned());
        self.node_names.len() - 1
    }

    /// Adds a resistor between two named nodes.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive.
    pub fn add_resistor(&mut self, a: &str, b: &str, ohms: f64) -> &mut Self {
        assert!(ohms > 0.0, "resistance must be positive, got {ohms}");
        let (a, b) = (self.node(a), self.node(b));
        self.elements.push(Element::Resistor {
            a,
            b,
            siemens: 1.0 / ohms,
        });
        self
    }

    /// Adds a capacitor between two named nodes.
    pub fn add_capacitor(&mut self, a: &str, b: &str, c: Femtofarads) -> &mut Self {
        let (a, b) = (self.node(a), self.node(b));
        self.elements.push(Element::Capacitor {
            a,
            b,
            farads: c.value() * 1e-15,
        });
        self
    }

    /// Adds a MOSFET with an explicit model.
    pub fn add_mosfet(
        &mut self,
        name: &str,
        model: MosfetModel,
        gate: &str,
        source: &str,
        drain: &str,
    ) -> &mut Self {
        let (gate, source, drain) = (self.node(gate), self.node(source), self.node(drain));
        self.elements.push(Element::Mosfet(MosfetElement {
            name: name.to_owned(),
            model,
            gate,
            source,
            drain,
        }));
        self
    }

    /// Compiles a netlist: MOSFET models from the netlist's drawn W/L,
    /// capacitors from its `Femtofarads` values. Works for hand-built
    /// topologies and extracted netlists alike.
    pub fn from_netlist(netlist: &Netlist) -> Self {
        let mut circuit = Self::new();
        circuit.node_names = (0..netlist.net_count())
            .map(|i| netlist.net_name(hifi_circuit::NetId(i)).to_owned())
            .collect();
        for (_, dev) in netlist.devices() {
            match dev {
                Device::Mosfet(m) => circuit.elements.push(Element::Mosfet(MosfetElement {
                    name: m.name.clone(),
                    model: MosfetModel::new(m.polarity, m.dims.w_over_l()),
                    gate: m.gate.0,
                    source: m.source.0,
                    drain: m.drain.0,
                })),
                Device::Capacitor(c) => circuit.elements.push(Element::Capacitor {
                    a: c.a.0,
                    b: c.b.0,
                    farads: c.value.value() * 1e-15,
                }),
            }
        }
        circuit
    }

    /// Sets the per-node parasitic capacitance (builder style).
    pub fn with_parasitic(mut self, c: Femtofarads) -> Self {
        self.parasitic_f = c.value() * 1e-15;
        self
    }

    /// Adds a threshold-voltage offset to the named MOSFET.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDevice`] if no MOSFET has that name.
    pub fn with_vt_offset(mut self, device: &str, offset: Volts) -> Result<Self, SimError> {
        let found = self.elements.iter_mut().find_map(|e| match e {
            Element::Mosfet(m) if m.name == device => Some(m),
            _ => None,
        });
        let Some(m) = found else {
            return Err(SimError::UnknownDevice(device.into()));
        };
        m.model = m.model.with_vt_offset(offset);
        self.vt_offsets.insert(device.into(), offset);
        Ok(self)
    }

    /// The threshold offsets applied so far, by device name.
    pub fn vt_offsets(&self) -> &HashMap<String, Volts> {
        &self.vt_offsets
    }

    /// Node names in the compiled circuit.
    pub fn node_names(&self) -> &[String] {
        &self.node_names
    }

    fn node_index(&self, name: &str) -> Option<usize> {
        self.node_names.iter().position(|n| n == name)
    }
}

/// Convergence and accuracy diagnostics for one transient run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Timesteps solved.
    pub steps: usize,
    /// Newton iterations summed over all steps.
    pub newton_iterations: usize,
    /// Worst per-step Newton iteration count.
    pub max_newton_iterations: usize,
    /// Largest KCL residual (A) observed at any accepted solution point —
    /// the property tests pin this to essentially machine precision.
    pub worst_kcl_residual_amps: f64,
}

/// Result of an MNA transient: sampled waveforms plus solver diagnostics.
#[derive(Debug, Clone)]
pub struct MnaRun {
    /// Recorded node voltages, sampled on the same grid as the legacy
    /// engine's output.
    pub waveforms: Waveforms,
    /// Solver diagnostics.
    pub stats: SolveStats,
}

/// Backward-Euler transient configuration for [`MnaCircuit`].
#[derive(Debug, Clone)]
pub struct MnaTransient {
    /// Integration timestep (s). Backward Euler is unconditionally stable,
    /// so the default (5 ps) is 20× the legacy explicit step.
    pub dt: f64,
    /// Simulation duration (s).
    pub t_end: f64,
    /// Recording interval (s). Default 10 ps.
    pub dt_sample: f64,
    /// Initial voltages for floating nodes (by name); unlisted nodes start
    /// at 0 V.
    pub initial: HashMap<String, f64>,
    /// Newton iteration cap per timestep.
    pub max_newton: usize,
    /// Convergence threshold on the voltage update (V).
    pub tol_v: f64,
    /// Damping clamp: the largest per-iteration voltage move allowed (V).
    pub damping_v: f64,
}

impl MnaTransient {
    /// A transient of the given duration with workspace-default settings.
    pub fn new(t_end: f64) -> Self {
        Self {
            dt: 5e-12,
            t_end,
            dt_sample: 10e-12,
            initial: HashMap::new(),
            max_newton: 100,
            tol_v: 1e-9,
            damping_v: 0.3,
        }
    }

    /// Sets an initial condition on a floating node (builder style).
    pub fn with_initial(mut self, net: &str, v: Volts) -> Self {
        self.initial.insert(net.into(), v.value());
        self
    }

    /// Runs the transient.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTimestep`] / [`SimError::UnknownNet`] for
    /// bad configuration, [`SimError::NoConvergence`] when Newton iteration
    /// stalls, and [`SimError::SingularSystem`] when the linearised system
    /// has no usable pivot.
    pub fn run(&self, circuit: &MnaCircuit, stimulus: &Stimulus) -> Result<MnaRun, SimError> {
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        for v in [self.dt, self.t_end, self.dt_sample] {
            if !positive(v) {
                return Err(SimError::InvalidTimestep(v));
            }
        }
        let n_nodes = circuit.node_names.len();

        // Driven nets become voltage-source branches, in sorted-name order
        // so the unknown layout is deterministic.
        let mut sources: Vec<(usize, &Waveform)> = Vec::new();
        let mut driven_names: Vec<&str> = stimulus.driven_nets().collect();
        driven_names.sort_unstable();
        for name in driven_names {
            let idx = circuit
                .node_index(name)
                .ok_or_else(|| SimError::UnknownNet(name.into()))?;
            sources.push((idx, stimulus.waveform(name).expect("driven net")));
        }
        for name in self.initial.keys() {
            if circuit.node_index(name).is_none() {
                return Err(SimError::UnknownNet(name.clone()));
            }
        }
        let driven: Vec<bool> = {
            let mut d = vec![false; n_nodes];
            for &(idx, _) in &sources {
                d[idx] = true;
            }
            d
        };

        let n = n_nodes + sources.len();
        let mut x = vec![0.0f64; n];
        for (k, &(idx, wf)) in sources.iter().enumerate() {
            x[idx] = wf.value(0.0);
            x[n_nodes + k] = 0.0;
        }
        for (name, &v) in &self.initial {
            let idx = circuit.node_index(name).expect("validated above");
            if !driven[idx] {
                x[idx] = v;
            }
        }

        let steps = (self.t_end / self.dt).ceil() as usize;
        let sample_every = (self.dt_sample / self.dt).round().max(1.0) as usize;
        let mut traces: Vec<Vec<f64>> = (0..n_nodes)
            .map(|_| Vec::with_capacity(steps / sample_every + 2))
            .collect();

        let mut stats = SolveStats::default();
        let mut sys = MnaSystem::new(n);
        let slots = Slots::new(circuit, &sources, &mut sys);
        let mut dx = vec![0.0f64; n];
        let mut residual = vec![0.0f64; n];
        let mut v_prev = x[..n_nodes].to_vec();
        // Source values at the step being solved (one per source branch).
        let mut drive = vec![0.0f64; sources.len()];

        for step in 0..=steps {
            if step % sample_every == 0 {
                for (trace, &v) in traces.iter_mut().zip(&x[..n_nodes]) {
                    trace.push(v);
                }
            }
            if step == steps {
                break;
            }
            let t_next = (step + 1) as f64 * self.dt;
            v_prev.copy_from_slice(&x[..n_nodes]);
            for (v, &(_, wf)) in drive.iter_mut().zip(&sources) {
                *v = wf.value(t_next);
            }

            let mut converged = false;
            let mut worst_dv = f64::INFINITY;
            let mut iters = 0usize;
            while iters < self.max_newton {
                iters += 1;
                self.assemble(
                    circuit, &slots, &sources, &drive, &v_prev, &x, &mut sys, None,
                );
                if !sys.solve_into(&mut dx) {
                    return Err(SimError::SingularSystem { time_s: t_next });
                }
                worst_dv = dx[..n_nodes].iter().fold(0.0f64, |m, d| m.max(d.abs()));
                let scale = if worst_dv > self.damping_v {
                    self.damping_v / worst_dv
                } else {
                    1.0
                };
                for (xi, di) in x.iter_mut().zip(&dx) {
                    *xi += scale * di;
                }
                if worst_dv < self.tol_v {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SimError::NoConvergence {
                    time_s: t_next,
                    iterations: iters,
                    worst_delta_v: worst_dv,
                });
            }
            stats.steps += 1;
            stats.newton_iterations += iters;
            stats.max_newton_iterations = stats.max_newton_iterations.max(iters);

            // KCL audit at the accepted point: residual-only pass.
            self.assemble(
                circuit,
                &slots,
                &sources,
                &drive,
                &v_prev,
                &x,
                &mut sys,
                Some(&mut residual),
            );
            let worst = residual[..n_nodes]
                .iter()
                .fold(0.0f64, |m, r| m.max(r.abs()));
            stats.worst_kcl_residual_amps = stats.worst_kcl_residual_amps.max(worst);
        }

        Ok(MnaRun {
            waveforms: Waveforms {
                dt_sample: self.dt_sample,
                traces: circuit.node_names.iter().cloned().zip(traces).collect(),
            },
            stats,
        })
    }

    /// Assembles the Newton system at the guess `x`, with `drive[k]` the
    /// value of source `k` at the step being solved: Jacobian into `sys.a`
    /// and `−residual` into `sys.b`, so solving yields the update `Δx`.
    /// With `residual_out` set, only the residual vector is produced (used
    /// for the post-convergence KCL audit) and `sys` is left untouched.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        circuit: &MnaCircuit,
        slots: &Slots,
        sources: &[(usize, &Waveform)],
        drive: &[f64],
        v_prev: &[f64],
        x: &[f64],
        sys: &mut MnaSystem,
        mut residual_out: Option<&mut Vec<f64>>,
    ) {
        let n_nodes = circuit.node_names.len();
        match residual_out.as_deref_mut() {
            Some(r) => r.iter_mut().for_each(|v| *v = 0.0),
            None => sys.clear(),
        }
        let jacobian = residual_out.is_none();
        // `leaving(i)` accumulates current leaving node i; the Newton rhs is
        // the negated residual.
        macro_rules! leave {
            ($node:expr, $amps:expr) => {
                match residual_out.as_deref_mut() {
                    Some(r) => r[$node] += $amps,
                    None => sys.stamp_rhs($node, -($amps)),
                }
            };
        }

        let geq_par = circuit.parasitic_f / self.dt;
        for (i, &diag) in slots.diagonal.iter().enumerate() {
            let g = circuit.gmin_siemens + geq_par;
            if jacobian {
                sys.add(diag, g);
            }
            leave!(
                i,
                circuit.gmin_siemens * x[i] + geq_par * (x[i] - v_prev[i])
            );
        }
        for (e, slots) in circuit.elements.iter().zip(&slots.elements) {
            match e {
                Element::Resistor { a, b, siemens } => {
                    if jacobian {
                        sys.stamp_conductance(conductance(slots), *siemens);
                    }
                    let i = siemens * (x[*a] - x[*b]);
                    leave!(*a, i);
                    leave!(*b, -i);
                }
                Element::Capacitor { a, b, farads } => {
                    let geq = farads / self.dt;
                    if jacobian {
                        sys.stamp_conductance(conductance(slots), geq);
                    }
                    let i = geq * ((x[*a] - x[*b]) - (v_prev[*a] - v_prev[*b]));
                    leave!(*a, i);
                    leave!(*b, -i);
                }
                Element::Mosfet(m) => {
                    let (vg, vs, vd) = (x[m.gate], x[m.source], x[m.drain]);
                    let i_ds = m.model.channel_current(vg, vs, vd);
                    // Positive i_ds flows drain→source through the channel,
                    // i.e. leaves the drain node and enters the source node.
                    leave!(m.drain, i_ds);
                    leave!(m.source, -i_ds);
                    if jacobian {
                        let h = DERIV_STEP_V;
                        let di = |vg2: f64, vs2: f64, vd2: f64| {
                            (m.model.channel_current(vg2, vs2, vd2)
                                - m.model.channel_current(
                                    2.0 * vg - vg2,
                                    2.0 * vs - vs2,
                                    2.0 * vd - vd2,
                                ))
                                / (2.0 * h)
                        };
                        let derivatives =
                            [di(vg + h, vs, vd), di(vg, vs + h, vd), di(vg, vs, vd + h)];
                        for (pair, dgdv) in slots.chunks_exact(2).zip(derivatives) {
                            sys.add(pair[0], dgdv);
                            sys.add(pair[1], -dgdv);
                        }
                    }
                }
            }
        }
        for (k, ((&(idx, _), &v_src), &[out, pin])) in
            sources.iter().zip(drive).zip(&slots.branches).enumerate()
        {
            let branch = n_nodes + k;
            let i_br = x[branch];
            // Branch current leaves the driven node's KCL row; the branch
            // row pins the node voltage to the waveform.
            leave!(idx, i_br);
            match residual_out.as_deref_mut() {
                Some(r) => r[branch] = x[idx] - v_src,
                None => {
                    sys.add(out, 1.0);
                    sys.add(pin, 1.0);
                    sys.stamp_rhs(branch, -(x[idx] - v_src));
                }
            }
        }
    }
}

/// Storage slots of every Jacobian stamp of one circuit, made once per run
/// before the first assembly (which records the matrix pattern the solve is
/// planned over).
struct Slots {
    /// Each node's diagonal: its gmin and parasitic conductance.
    diagonal: Vec<usize>,
    /// Per element, in [`MnaCircuit`] order: a resistor's or capacitor's
    /// conductance slots in the first four places, or a MOSFET's drain- and
    /// source-row entries of its gate, source and drain columns.
    elements: Vec<[usize; 6]>,
    /// Per source: (driven node, branch) — the branch current leaving the
    /// node's KCL row — and (branch, driven node), the pinning row.
    branches: Vec<[usize; 2]>,
}

impl Slots {
    fn new(circuit: &MnaCircuit, sources: &[(usize, &Waveform)], sys: &mut MnaSystem) -> Self {
        let n_nodes = circuit.node_names.len();
        let diagonal = (0..n_nodes).map(|i| sys.slot(i, i)).collect();
        let elements = circuit
            .elements
            .iter()
            .map(|e| match e {
                Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                    let [aa, ab, bb, ba] = sys.conductance_slots(*a, *b);
                    [aa, ab, bb, ba, 0, 0]
                }
                Element::Mosfet(m) => {
                    let (d, s) = (m.drain, m.source);
                    let mut slots = [0; 6];
                    for (pair, col) in slots.chunks_exact_mut(2).zip([m.gate, s, d]) {
                        pair[0] = sys.slot(d, col);
                        pair[1] = sys.slot(s, col);
                    }
                    slots
                }
            })
            .collect();
        let branches = sources
            .iter()
            .enumerate()
            .map(|(k, &(idx, _))| [sys.slot(idx, n_nodes + k), sys.slot(n_nodes + k, idx)])
            .collect();
        Self {
            diagonal,
            elements,
            branches,
        }
    }
}

/// A two-terminal element's conductance slots.
fn conductance(slots: &[usize; 6]) -> [usize; 4] {
    [slots[0], slots[1], slots[2], slots[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_circuit::Polarity;

    #[test]
    fn resistor_divider_settles_to_half() {
        let mut c = MnaCircuit::new();
        c.add_resistor("IN", "MID", 1000.0);
        c.add_resistor("MID", "GND", 1000.0);
        let mut stim = Stimulus::new();
        stim.hold("IN", Volts(1.0)).hold("GND", Volts(0.0));
        let run = MnaTransient::new(1e-9).run(&c, &stim).unwrap();
        let v = run.waveforms.final_voltage("MID").unwrap();
        assert!((v - 0.5).abs() < 1e-6, "divider mid = {v}");
        assert!(run.stats.worst_kcl_residual_amps < 1e-9);
    }

    #[test]
    fn rc_discharge_matches_analytic_solution() {
        // 100 fF through 10 kΩ from 1 V: v(t) = exp(−t/RC), RC = 1 ns.
        let mut c = MnaCircuit::new();
        c.add_resistor("A", "GND", 10_000.0);
        c.add_capacitor("A", "GND", Femtofarads(100.0));
        let c = c.with_parasitic(Femtofarads(0.0));
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0));
        let mut tr = MnaTransient::new(2e-9).with_initial("A", Volts(1.0));
        tr.dt = 1e-12;
        let run = tr.run(&c, &stim).unwrap();
        let v = run.waveforms.voltage("A", 1e-9).unwrap();
        assert!(
            (v - (-1.0f64).exp()).abs() < 2e-3,
            "v(RC) = {v}, expected {}",
            (-1.0f64).exp()
        );
    }

    #[test]
    fn nmos_discharge_agrees_with_legacy_engine() {
        use hifi_circuit::{TransistorClass, TransistorDims};
        use hifi_units::Nanometers;
        let mut nl = Netlist::new("rc");
        let cap_net = nl.add_net("C");
        let gnd = nl.add_net("GND");
        let gate = nl.add_net("G");
        nl.add_capacitor("c", Femtofarads(50.0), cap_net, gnd);
        nl.add_mosfet(
            "sw",
            Polarity::Nmos,
            TransistorClass::Access,
            TransistorDims::new(Nanometers(400.0), Nanometers(100.0)),
            gate,
            gnd,
            cap_net,
        );
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0)).hold("G", Volts(1.2));

        let mna = MnaCircuit::from_netlist(&nl);
        let run = MnaTransient::new(5e-9)
            .with_initial("C", Volts(1.0))
            .run(&mna, &stim)
            .unwrap();

        let legacy = crate::AnalogCircuit::from_netlist(&nl);
        let wf = crate::Transient::new(5e-9)
            .with_initial("C", Volts(1.0))
            .run(&legacy, &stim)
            .unwrap();

        for t in [0.5e-9, 1e-9, 2e-9, 4e-9] {
            let a = run.waveforms.voltage("C", t).unwrap();
            let b = wf.voltage("C", t).unwrap();
            assert!(
                (a - b).abs() < 0.02,
                "engines disagree at {t}: mna {a} vs legacy {b}"
            );
        }
    }

    #[test]
    fn unknown_net_and_device_errors() {
        let mut c = MnaCircuit::new();
        c.add_resistor("A", "GND", 1000.0);
        let mut stim = Stimulus::new();
        stim.hold("NOPE", Volts(0.0));
        let err = MnaTransient::new(1e-9).run(&c, &stim).unwrap_err();
        assert_eq!(err, SimError::UnknownNet("NOPE".into()));
        let err = c.clone().with_vt_offset("m?", Volts(0.01)).unwrap_err();
        assert_eq!(err, SimError::UnknownDevice("m?".into()));
    }

    #[test]
    fn invalid_timestep_names_the_offending_value() {
        let c = MnaCircuit::new();
        let stim = Stimulus::new();
        for bad in [0.0, -1e-12, f64::NAN] {
            let fields: [fn(&mut MnaTransient) -> &mut f64; 3] =
                [|t| &mut t.dt, |t| &mut t.t_end, |t| &mut t.dt_sample];
            for field in fields {
                let mut tr = MnaTransient::new(1e-9);
                *field(&mut tr) = bad;
                match tr.run(&c, &stim) {
                    Err(SimError::InvalidTimestep(v)) => assert_eq!(v.to_bits(), bad.to_bits()),
                    other => panic!("{bad}: {other:?}"),
                }
            }
        }
    }
}
