//! Fixed-timestep transient solver over netlists.

use crate::model::MosfetModel;
use hifi_circuit::{Device, Netlist};
use hifi_units::{Femtofarads, Volts};
use std::collections::HashMap;

/// Error produced while building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A stimulus or probe referenced a net that is not in the netlist.
    UnknownNet(String),
    /// A threshold-offset override referenced a device that does not exist.
    UnknownDevice(String),
    /// The timestep, duration or sampling interval was not strictly
    /// positive; carries the offending value.
    InvalidTimestep(f64),
    /// A piecewise-linear waveform had unsorted time points.
    UnsortedWaveform(String),
    /// Newton iteration failed to converge at a timestep (MNA engine).
    NoConvergence {
        /// Simulation time of the failing step (s).
        time_s: f64,
        /// Iterations spent before giving up.
        iterations: usize,
        /// Largest node-voltage update at the last iteration (V).
        worst_delta_v: f64,
    },
    /// The linearised MNA system had no usable pivot at a timestep.
    SingularSystem {
        /// Simulation time of the failing step (s).
        time_s: f64,
    },
    /// A netlist's sense-amplifier roles could not be inferred, so no
    /// activation schedule can be built for it.
    RoleInference(String),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::UnknownNet(n) => write!(f, "unknown net `{n}`"),
            SimError::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
            SimError::InvalidTimestep(v) => write!(
                f,
                "timestep, duration and sampling interval must be positive, got {v}"
            ),
            SimError::UnsortedWaveform(n) => write!(f, "waveform for `{n}` is not time-sorted"),
            SimError::NoConvergence {
                time_s,
                iterations,
                worst_delta_v,
            } => write!(
                f,
                "newton iteration did not converge at t={time_s}s after \
                 {iterations} iterations (last |Δv| = {worst_delta_v} V)"
            ),
            SimError::SingularSystem { time_s } => {
                write!(f, "singular MNA system at t={time_s}s")
            }
            SimError::RoleInference(why) => write!(f, "cannot infer SA roles: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A piecewise-linear voltage waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    points: Vec<(f64, f64)>,
}

impl Waveform {
    /// Builds a waveform from `(time_s, volts)` points.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsortedWaveform`] when times decrease.
    pub fn pwl(points: Vec<(f64, f64)>) -> Result<Self, SimError> {
        if points.windows(2).any(|w| w[1].0 < w[0].0) {
            return Err(SimError::UnsortedWaveform("<anonymous>".into()));
        }
        Ok(Self { points })
    }

    /// A constant waveform.
    pub fn constant(v: f64) -> Self {
        Self {
            points: vec![(0.0, v)],
        }
    }

    /// Linear interpolation; clamps before the first and after the last point.
    pub fn value(&self, t: f64) -> f64 {
        match self.points.len() {
            0 => 0.0,
            1 => self.points[0].1,
            _ => {
                if t <= self.points[0].0 {
                    return self.points[0].1;
                }
                if t >= self.points[self.points.len() - 1].0 {
                    return self.points[self.points.len() - 1].1;
                }
                let i = self
                    .points
                    .windows(2)
                    .position(|w| t >= w[0].0 && t <= w[1].0)
                    .expect("t within range");
                let (t0, v0) = self.points[i];
                let (t1, v1) = self.points[i + 1];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
        }
    }
}

/// Drive specification: piecewise-linear sources attached to named nets.
///
/// ```
/// use hifi_analog::Stimulus;
/// use hifi_units::Volts;
/// let mut stim = Stimulus::new();
/// stim.hold("GND", Volts(0.0));
/// stim.ramp("LA", 5e-9, 7e-9, 0.55, 1.1);
/// assert_eq!(stim.driven_nets().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    drives: HashMap<String, Waveform>,
}

impl Stimulus {
    /// Creates an empty stimulus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Holds a net at a constant voltage for the whole run.
    pub fn hold(&mut self, net: &str, v: Volts) -> &mut Self {
        self.drives
            .insert(net.into(), Waveform::constant(v.value()));
        self
    }

    /// Drives a net with an arbitrary piecewise-linear waveform.
    ///
    /// # Panics
    ///
    /// Panics if the points are not time-sorted (use [`Waveform::pwl`] for a
    /// fallible version).
    pub fn pwl(&mut self, net: &str, points: Vec<(f64, f64)>) -> &mut Self {
        let wf = Waveform::pwl(points)
            .unwrap_or_else(|_| panic!("stimulus for `{net}` must be time-sorted"));
        self.drives.insert(net.into(), wf);
        self
    }

    /// Convenience: hold `v0` until `t0`, ramp linearly to `v1` by `t1`,
    /// then hold `v1`. Extends an existing waveform on the net if present.
    pub fn ramp(&mut self, net: &str, t0: f64, t1: f64, v0: f64, v1: f64) -> &mut Self {
        let mut points = match self.drives.remove(net) {
            Some(w) => w.points,
            None => vec![(0.0, v0)],
        };
        points.push((t0, v0));
        points.push((t1, v1));
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        self.drives.insert(net.into(), Waveform { points });
        self
    }

    /// Iterates over driven net names.
    pub fn driven_nets(&self) -> impl Iterator<Item = &str> {
        self.drives.keys().map(String::as_str)
    }

    pub(crate) fn waveform(&self, net: &str) -> Option<&Waveform> {
        self.drives.get(net)
    }
}

/// Recorded node voltages, sampled on a regular grid.
#[derive(Debug, Clone)]
pub struct Waveforms {
    pub(crate) dt_sample: f64,
    pub(crate) traces: HashMap<String, Vec<f64>>,
}

impl Waveforms {
    /// The sampled trace for a net.
    pub fn trace(&self, net: &str) -> Option<&[f64]> {
        self.traces.get(net).map(Vec::as_slice)
    }

    /// Sampling interval in seconds.
    pub fn sample_interval(&self) -> f64 {
        self.dt_sample
    }

    /// Voltage of `net` at time `t` (nearest sample).
    pub fn voltage(&self, net: &str, t: f64) -> Option<f64> {
        let tr = self.traces.get(net)?;
        let idx = ((t / self.dt_sample).round() as usize).min(tr.len().saturating_sub(1));
        tr.get(idx).copied()
    }

    /// Final sampled voltage of `net`.
    pub fn final_voltage(&self, net: &str) -> Option<f64> {
        self.traces.get(net)?.last().copied()
    }

    /// First time `net` crosses `level` in the given direction.
    pub fn time_crossing(&self, net: &str, level: f64, rising: bool) -> Option<f64> {
        let tr = self.traces.get(net)?;
        for w in 0..tr.len().saturating_sub(1) {
            let (a, b) = (tr[w], tr[w + 1]);
            let crossed = if rising {
                a < level && b >= level
            } else {
                a > level && b <= level
            };
            if crossed {
                return Some(w as f64 * self.dt_sample);
            }
        }
        None
    }

    /// First time `|a − b|` reaches `threshold` volts.
    pub fn split_time(&self, a: &str, b: &str, threshold: f64) -> Option<f64> {
        let ta = self.traces.get(a)?;
        let tb = self.traces.get(b)?;
        let n = ta.len().min(tb.len());
        (0..n)
            .find(|&i| (ta[i] - tb[i]).abs() >= threshold)
            .map(|i| i as f64 * self.dt_sample)
    }

    /// Net names with recorded traces.
    pub fn nets(&self) -> impl Iterator<Item = &str> {
        self.traces.keys().map(String::as_str)
    }

    /// Renders selected traces as CSV (`time_ns` first column), for plotting
    /// the Fig. 2c / Fig. 9b waveforms externally. Unknown nets are skipped.
    pub fn to_csv(&self, nets: &[&str]) -> String {
        let present: Vec<&str> = nets
            .iter()
            .copied()
            .filter(|n| self.traces.contains_key(*n))
            .collect();
        let mut out = String::from("time_ns");
        for n in &present {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        let len = present
            .iter()
            .filter_map(|n| self.traces.get(*n).map(Vec::len))
            .min()
            .unwrap_or(0);
        for i in 0..len {
            out.push_str(&format!("{:.4}", i as f64 * self.dt_sample * 1e9));
            for n in &present {
                out.push_str(&format!(",{:.6}", self.traces[*n][i]));
            }
            out.push('\n');
        }
        out
    }
}

#[derive(Debug)]
struct SimMosfet {
    model: MosfetModel,
    gate: usize,
    source: usize,
    drain: usize,
}

#[derive(Debug)]
struct SimCap {
    farads: f64,
    a: usize,
    b: usize,
}

/// A netlist compiled for transient simulation.
///
/// Floating nets integrate charge; nets named in the [`Stimulus`] are driven
/// ideally. Every floating net carries a small parasitic capacitance to
/// ground so its voltage is always defined.
#[derive(Debug)]
pub struct AnalogCircuit {
    net_names: Vec<String>,
    mosfet_names: Vec<String>,
    mosfets: Vec<SimMosfet>,
    caps: Vec<SimCap>,
    parasitic_f: f64,
    vt_offsets: HashMap<String, Volts>,
}

impl AnalogCircuit {
    /// Default per-node parasitic capacitance (0.5 fF).
    pub const DEFAULT_PARASITIC_F: f64 = 0.5e-15;

    /// Compiles a netlist. MOSFET W/L ratios come from the netlist's drawn
    /// dimensions; capacitor values from the netlist's `Femtofarads`.
    pub fn from_netlist(netlist: &Netlist) -> Self {
        let net_names = (0..netlist.net_count())
            .map(|i| netlist.net_name(hifi_circuit::NetId(i)).to_owned())
            .collect();
        let mut mosfets = Vec::new();
        let mut caps = Vec::new();
        for (_, dev) in netlist.devices() {
            match dev {
                Device::Mosfet(m) => mosfets.push(SimMosfet {
                    model: MosfetModel::new(m.polarity, m.dims.w_over_l()),
                    gate: m.gate.0,
                    source: m.source.0,
                    drain: m.drain.0,
                }),
                Device::Capacitor(c) => caps.push(SimCap {
                    farads: c.value.value() * 1e-15,
                    a: c.a.0,
                    b: c.b.0,
                }),
            }
        }
        // Names align with mosfet insertion order for vt overrides.
        let mosfet_names = netlist
            .devices()
            .filter_map(|(_, d)| d.as_mosfet().map(|m| m.name.clone()))
            .collect();
        Self {
            net_names,
            mosfet_names,
            mosfets,
            caps,
            parasitic_f: Self::DEFAULT_PARASITIC_F,
            vt_offsets: HashMap::new(),
        }
    }

    /// Sets the per-node parasitic capacitance (builder style).
    pub fn with_parasitic(mut self, c: Femtofarads) -> Self {
        self.parasitic_f = c.value() * 1e-15;
        self
    }

    /// Adds a threshold-voltage offset to the named MOSFET — the sensing
    /// offset the OCSA compensates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDevice`] if no MOSFET has that name.
    pub fn with_vt_offset(mut self, device: &str, offset: Volts) -> Result<Self, SimError> {
        let Some(idx) = self.mosfet_names.iter().position(|n| n == device) else {
            return Err(SimError::UnknownDevice(device.into()));
        };
        self.mosfets[idx].model = self.mosfets[idx].model.with_vt_offset(offset);
        self.vt_offsets.insert(device.into(), offset);
        Ok(self)
    }

    fn net_index(&self, name: &str) -> Option<usize> {
        self.net_names.iter().position(|n| n == name)
    }

    /// Net names in the compiled circuit.
    pub fn net_names(&self) -> &[String] {
        &self.net_names
    }

    /// The threshold offsets applied so far, by device name.
    pub fn vt_offsets(&self) -> &HashMap<String, Volts> {
        &self.vt_offsets
    }
}

/// Transient run configuration and driver.
#[derive(Debug, Clone)]
pub struct Transient {
    /// Integration timestep (s). Default 0.2 ps.
    pub dt: f64,
    /// Simulation duration (s).
    pub t_end: f64,
    /// Recording interval (s). Default 10 ps.
    pub dt_sample: f64,
    /// Initial voltages for floating nets (by name); unlisted nets start at 0.
    pub initial: HashMap<String, f64>,
}

impl Transient {
    /// A transient of the given duration with workspace-default steps.
    pub fn new(t_end: f64) -> Self {
        Self {
            dt: 0.2e-12,
            t_end,
            dt_sample: 10e-12,
            initial: HashMap::new(),
        }
    }

    /// Sets an initial condition on a floating net (builder style).
    pub fn with_initial(mut self, net: &str, v: Volts) -> Self {
        self.initial.insert(net.into(), v.value());
        self
    }

    /// Runs the transient.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid timesteps, or stimuli/initial
    /// conditions naming unknown nets.
    pub fn run(&self, circuit: &AnalogCircuit, stimulus: &Stimulus) -> Result<Waveforms, SimError> {
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        for v in [self.dt, self.t_end, self.dt_sample] {
            if !positive(v) {
                return Err(SimError::InvalidTimestep(v));
            }
        }
        let n = circuit.net_names.len();
        // Resolve driven nets.
        let mut driven: Vec<Option<&Waveform>> = vec![None; n];
        for name in stimulus.driven_nets() {
            let idx = circuit
                .net_index(name)
                .ok_or_else(|| SimError::UnknownNet(name.into()))?;
            driven[idx] = stimulus.waveform(name);
        }
        for name in self.initial.keys() {
            if circuit.net_index(name).is_none() {
                return Err(SimError::UnknownNet(name.clone()));
            }
        }

        // Node capacitance: parasitic + attached caps.
        let mut ctot = vec![circuit.parasitic_f; n];
        for c in &circuit.caps {
            ctot[c.a] += c.farads;
            ctot[c.b] += c.farads;
        }

        // Initial voltages.
        let mut v = vec![0.0f64; n];
        for (i, vv) in v.iter_mut().enumerate() {
            if let Some(w) = driven[i] {
                *vv = w.value(0.0);
            }
        }
        for (name, &volts) in self.initial.iter().map(|(k, vv)| (k.as_str(), vv)) {
            let idx = circuit.net_index(name).expect("validated above");
            if driven[idx].is_none() {
                v[idx] = volts;
            }
        }

        let steps = (self.t_end / self.dt).ceil() as usize;
        let sample_every = (self.dt_sample / self.dt).round().max(1.0) as usize;
        let mut traces: HashMap<String, Vec<f64>> = circuit
            .net_names
            .iter()
            .map(|nm| (nm.clone(), Vec::with_capacity(steps / sample_every + 2)))
            .collect();

        let mut prev_v = v.clone();
        let mut inject = vec![0.0f64; n];
        let mut coupled = vec![0.0f64; n];
        for step in 0..=steps {
            let t = step as f64 * self.dt;
            if step % sample_every == 0 {
                for (i, nm) in circuit.net_names.iter().enumerate() {
                    traces.get_mut(nm).expect("trace").push(v[i]);
                }
            }
            // Device currents into each node.
            inject.iter_mut().for_each(|x| *x = 0.0);
            for m in &circuit.mosfets {
                let i_ds = m.model.channel_current(v[m.gate], v[m.source], v[m.drain]);
                // Positive i_ds: conventional current enters the drain node
                // terminal and leaves at the source terminal.
                inject[m.drain] -= i_ds;
                inject[m.source] += i_ds;
            }
            // Capacitive coupling from the other plate's voltage change.
            coupled.iter_mut().for_each(|x| *x = 0.0);
            for c in &circuit.caps {
                let d_a = v[c.a] - prev_v[c.a];
                let d_b = v[c.b] - prev_v[c.b];
                coupled[c.a] += c.farads * d_b;
                coupled[c.b] += c.farads * d_a;
            }
            prev_v.copy_from_slice(&v);
            // Integrate floating nodes; refresh driven nodes.
            let t_next = t + self.dt;
            for i in 0..n {
                match driven[i] {
                    Some(w) => v[i] = w.value(t_next),
                    None => {
                        v[i] += (inject[i] * self.dt + coupled[i]) / ctot[i];
                    }
                }
            }
        }

        Ok(Waveforms {
            dt_sample: self.dt_sample,
            traces,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifi_circuit::{Netlist, Polarity, TransistorClass, TransistorDims};
    use hifi_units::Nanometers;

    fn dims(wl: f64) -> TransistorDims {
        TransistorDims::new(Nanometers(100.0 * wl), Nanometers(100.0))
    }

    #[test]
    fn waveform_interpolation() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)]).unwrap();
        assert_eq!(w.value(-1.0), 0.0);
        assert!((w.value(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(w.value(5.0), 1.0);
        assert!(Waveform::pwl(vec![(1.0, 0.0), (0.0, 1.0)]).is_err());
    }

    #[test]
    fn rc_discharge_through_nmos() {
        // A capacitor discharging through an NMOS switch approaches 0.
        let mut nl = Netlist::new("rc");
        let cap_net = nl.add_net("C");
        let gnd = nl.add_net("GND");
        let gate = nl.add_net("G");
        nl.add_capacitor("c", Femtofarads(50.0), cap_net, gnd);
        nl.add_mosfet(
            "sw",
            Polarity::Nmos,
            TransistorClass::Access,
            dims(4.0),
            gate,
            gnd,
            cap_net,
        );

        let circuit = AnalogCircuit::from_netlist(&nl);
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0)).hold("G", Volts(1.2));
        let tr = Transient::new(5e-9).with_initial("C", Volts(1.0));
        let wf = tr.run(&circuit, &stim).unwrap();
        let v_end = wf.final_voltage("C").unwrap();
        assert!(v_end < 0.05, "discharged to near ground, got {v_end}");
        // And it decayed monotonically (no numerical blow-up).
        let trace = wf.trace("C").unwrap();
        assert!(trace.windows(2).all(|w| w[1] <= w[0] + 1e-6));
    }

    #[test]
    fn switch_off_holds_charge() {
        let mut nl = Netlist::new("hold");
        let cap_net = nl.add_net("C");
        let gnd = nl.add_net("GND");
        let gate = nl.add_net("G");
        nl.add_capacitor("c", Femtofarads(50.0), cap_net, gnd);
        nl.add_mosfet(
            "sw",
            Polarity::Nmos,
            TransistorClass::Access,
            dims(4.0),
            gate,
            gnd,
            cap_net,
        );
        let circuit = AnalogCircuit::from_netlist(&nl);
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0)).hold("G", Volts(0.0)); // gate off
        let tr = Transient::new(5e-9).with_initial("C", Volts(1.0));
        let wf = tr.run(&circuit, &stim).unwrap();
        assert!((wf.final_voltage("C").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn charge_sharing_matches_capacitor_divider() {
        // 20 fF cell at 1.1 V dumped onto a 180 fF bitline precharged to 0.55 V:
        // final = (20*1.1 + 180*0.55)/200 = 0.605 V.
        let mut nl = Netlist::new("cs");
        let bl = nl.add_net("BL");
        let sn = nl.add_net("SN");
        let gnd = nl.add_net("GND");
        let wl = nl.add_net("WL");
        nl.add_capacitor("cbl", Femtofarads(180.0), bl, gnd);
        nl.add_capacitor("cs", Femtofarads(20.0), sn, gnd);
        nl.add_mosfet(
            "acc",
            Polarity::Nmos,
            TransistorClass::Access,
            dims(2.0),
            wl,
            sn,
            bl,
        );
        let circuit = AnalogCircuit::from_netlist(&nl).with_parasitic(Femtofarads(0.001));
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0));
        stim.ramp("WL", 1e-9, 1.5e-9, 0.0, 2.4); // boosted wordline
        let tr = Transient::new(20e-9)
            .with_initial("BL", Volts(0.55))
            .with_initial("SN", Volts(1.1));
        let wf = tr.run(&circuit, &stim).unwrap();
        let v = wf.final_voltage("BL").unwrap();
        assert!((v - 0.605).abs() < 0.01, "charge sharing gave {v}");
        // Cell node equalises with the bitline.
        let vs = wf.final_voltage("SN").unwrap();
        assert!((vs - v).abs() < 0.01);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut nl = Netlist::new("csv");
        let a = nl.add_net("A");
        let gnd = nl.add_net("GND");
        nl.add_capacitor("c", Femtofarads(10.0), a, gnd);
        let circuit = AnalogCircuit::from_netlist(&nl);
        let mut stim = Stimulus::new();
        stim.hold("GND", Volts(0.0));
        let wf = Transient::new(1e-9)
            .with_initial("A", Volts(0.7))
            .run(&circuit, &stim)
            .unwrap();
        let csv = wf.to_csv(&["A", "MISSING", "GND"]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_ns,A,GND"));
        let first = lines.next().unwrap();
        assert!(first.starts_with("0.0000,0.7"), "{first}");
        assert!(csv.lines().count() > 10);
    }

    #[test]
    fn invalid_timestep_names_the_offending_value() {
        let circuit = AnalogCircuit::from_netlist(&Netlist::new("x"));
        let stim = Stimulus::new();
        for bad in [0.0, -1e-12, f64::NAN] {
            let fields: [fn(&mut Transient) -> &mut f64; 3] =
                [|t| &mut t.dt, |t| &mut t.t_end, |t| &mut t.dt_sample];
            for field in fields {
                let mut tr = Transient::new(1e-9);
                *field(&mut tr) = bad;
                match tr.run(&circuit, &stim) {
                    Err(SimError::InvalidTimestep(v)) => assert_eq!(v.to_bits(), bad.to_bits()),
                    other => panic!("{bad}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_net_in_stimulus_errors() {
        let mut nl = Netlist::new("x");
        nl.add_net("A");
        let circuit = AnalogCircuit::from_netlist(&nl);
        let mut stim = Stimulus::new();
        stim.hold("NOPE", Volts(0.0));
        let err = Transient::new(1e-9).run(&circuit, &stim).unwrap_err();
        assert_eq!(err, SimError::UnknownNet("NOPE".into()));
    }

    #[test]
    fn vt_offset_requires_known_device() {
        let mut nl = Netlist::new("x");
        let a = nl.add_net("A");
        let b = nl.add_net("B");
        let g = nl.add_net("G");
        nl.add_mosfet(
            "m1",
            Polarity::Nmos,
            TransistorClass::Access,
            dims(1.0),
            g,
            a,
            b,
        );
        let c = AnalogCircuit::from_netlist(&nl);
        let err = c.with_vt_offset("nope", Volts(0.02)).unwrap_err();
        assert_eq!(err, SimError::UnknownDevice("nope".into()));
        let c = AnalogCircuit::from_netlist(&nl)
            .with_vt_offset("m1", Volts(0.02))
            .unwrap();
        assert_eq!(c.vt_offsets()["m1"], Volts(0.02));
    }
}
