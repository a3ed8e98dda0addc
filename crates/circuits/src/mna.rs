//! Modified nodal analysis (MNA) over complex admittances.
//!
//! For each angular frequency `ω`, the engine assembles the extended MNA
//! system
//!
//! ```text
//! [ Y  B ] [ v ]   [ i ]
//! [ C  0 ] [ j ] = [ e ]
//! ```
//!
//! where `Y` holds element admittance stamps (`1/R`, `jωC`, `1/(jωL)`, VCCS
//! gm entries), `B`/`C` couple voltage-source branch currents `j`, `i` holds
//! current-source injections and `e` the source voltages. Ground (node 0) is
//! eliminated. The system is solved with the complex LU factorisation from
//! [`bmf_linalg`].

use crate::netlist::{Element, Netlist, GROUND};
use crate::{CircuitError, Result};
use bmf_linalg::{CLu, CMatrix, CVector, Complex64};
use std::cell::RefCell;

/// Solution of one AC operating point: node-voltage phasors (plus branch
/// currents of voltage sources, kept internal).
#[derive(Debug, Clone)]
pub struct AcSolution {
    /// Phasor per node; index 0 (ground) is fixed to zero.
    node_voltages: Vec<Complex64>,
    /// Branch current phasor per voltage source, in insertion order.
    branch_currents: Vec<Complex64>,
}

impl AcSolution {
    /// Voltage phasor of `node`.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node index.
    pub fn voltage(&self, node: usize) -> Complex64 {
        self.node_voltages[node]
    }

    /// Branch current of the `k`-th voltage source (insertion order).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range source index.
    pub fn source_current(&self, k: usize) -> Complex64 {
        self.branch_currents[k]
    }

    /// Number of nodes in the solution.
    pub fn node_count(&self) -> usize {
        self.node_voltages.len()
    }
}

/// AC analysis engine bound to a [`Netlist`].
///
/// The engine keeps one set of buffers (MNA matrix, right-hand side, LU
/// factors, solution) and reuses it at every frequency, so a sweep of
/// [`AcAnalysis::transfer`] calls allocates nothing after construction.
/// The buffers make it `Send` but not `Sync`: give each thread its own.
///
/// # Example
///
/// ```
/// use bmf_circuits::netlist::Netlist;
/// use bmf_circuits::mna::AcAnalysis;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// // RC low-pass, f_c = 1/(2π RC) ≈ 159 kHz.
/// let mut nl = Netlist::new(3);
/// nl.voltage_source(1, 0, 1.0)?;
/// nl.resistor(1, 2, 1_000.0)?;
/// nl.capacitor(2, 0, 1e-9)?;
/// let ac = AcAnalysis::new(&nl);
/// let sol = ac.solve(2.0 * std::f64::consts::PI * 159_155.0)?;
/// // At the corner frequency the output is 3 dB down.
/// let mag = sol.voltage(2).abs();
/// assert!((mag - 1.0 / 2.0_f64.sqrt()).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AcAnalysis<'a> {
    netlist: &'a Netlist,
    /// Unknown count: (nodes − 1) + voltage sources.
    dim: usize,
    work: RefCell<AcWork>,
}

/// Buffers one AC solve writes into.
#[derive(Debug, Clone)]
struct AcWork {
    a: CMatrix,
    rhs: CVector,
    lu: CLu,
    /// Unknowns: node voltages (ground eliminated), then branch currents.
    x: CVector,
}

impl<'a> AcAnalysis<'a> {
    /// Creates an analysis for the given netlist.
    pub fn new(netlist: &'a Netlist) -> Self {
        let dim = netlist.node_count() - 1 + netlist.voltage_source_count();
        let work = AcWork {
            a: CMatrix::zeros(dim, dim),
            rhs: CVector::zeros(dim),
            lu: CLu::default(),
            x: CVector::default(),
        };
        AcAnalysis {
            netlist,
            dim,
            work: RefCell::new(work),
        }
    }

    /// Size of the assembled MNA system.
    pub fn system_dim(&self) -> usize {
        self.dim
    }

    /// Index of node `n` in the reduced unknown vector, or `None` for
    /// ground.
    fn node_index(n: usize) -> Option<usize> {
        if n == GROUND {
            None
        } else {
            Some(n - 1)
        }
    }

    /// Assembles the MNA matrix and right-hand side at angular frequency
    /// `omega` into `a` and `rhs` (both `dim`-sized).
    fn assemble(&self, omega: f64, a: &mut CMatrix, rhs: &mut CVector) {
        let nv = self.netlist.node_count() - 1;
        a.fill(Complex64::ZERO);
        rhs.fill(Complex64::ZERO);
        let mut vsrc_row = nv;

        let stamp_admittance = |a: &mut CMatrix, n1: usize, n2: usize, y: Complex64| match (
            Self::node_index(n1),
            Self::node_index(n2),
        ) {
            (Some(i), Some(j)) => {
                a[(i, i)] += y;
                a[(j, j)] += y;
                a[(i, j)] -= y;
                a[(j, i)] -= y;
            }
            (Some(i), None) | (None, Some(i)) => {
                a[(i, i)] += y;
            }
            (None, None) => {}
        };

        for e in self.netlist.elements() {
            match *e {
                Element::Resistor { a: n1, b: n2, ohms } => {
                    stamp_admittance(a, n1, n2, Complex64::from_re(1.0 / ohms));
                }
                Element::Capacitor {
                    a: n1,
                    b: n2,
                    farads,
                } => {
                    stamp_admittance(a, n1, n2, Complex64::new(0.0, omega * farads));
                }
                Element::Inductor {
                    a: n1,
                    b: n2,
                    henries,
                } => {
                    // Y = 1/(jωL); at DC (ω = 0) an inductor is a short —
                    // approximate with a very large conductance to keep the
                    // system non-singular.
                    let y = if omega > 0.0 {
                        Complex64::new(0.0, -1.0 / (omega * henries))
                    } else {
                        Complex64::from_re(1e12)
                    };
                    stamp_admittance(a, n1, n2, y);
                }
                Element::Vccs {
                    a: n1,
                    b: n2,
                    cp,
                    cn,
                    gm,
                } => {
                    // i flows n1 → n2 through the source: KCL at n1 gains
                    // +gm·vc, at n2 −gm·vc.
                    let g = Complex64::from_re(gm);
                    for (node, sign) in [(n1, 1.0), (n2, -1.0)] {
                        if let Some(i) = Self::node_index(node) {
                            if let Some(jp) = Self::node_index(cp) {
                                a[(i, jp)] += g * sign;
                            }
                            if let Some(jn) = Self::node_index(cn) {
                                a[(i, jn)] -= g * sign;
                            }
                        }
                    }
                }
                Element::CurrentSource { from, into, amps } => {
                    let i = Complex64::from_re(amps);
                    if let Some(k) = Self::node_index(into) {
                        rhs[k] += i;
                    }
                    if let Some(k) = Self::node_index(from) {
                        rhs[k] -= i;
                    }
                }
                Element::VoltageSource { p, n, volts } => {
                    let row = vsrc_row;
                    vsrc_row += 1;
                    if let Some(i) = Self::node_index(p) {
                        a[(i, row)] += Complex64::ONE;
                        a[(row, i)] += Complex64::ONE;
                    }
                    if let Some(i) = Self::node_index(n) {
                        a[(i, row)] -= Complex64::ONE;
                        a[(row, i)] -= Complex64::ONE;
                    }
                    rhs[row] = Complex64::from_re(volts);
                }
            }
        }
    }

    /// Assembles and solves the system at `omega`, leaving the unknowns in
    /// `work.x`. Every AC solve goes through here and counts once in
    /// `mna.solves`.
    fn solve_into(&self, omega: f64, work: &mut AcWork) -> Result<()> {
        bmf_obs::counters::MNA_SOLVES.incr();
        self.assemble(omega, &mut work.a, &mut work.rhs);
        let singular = |_| CircuitError::SingularSystem { omega };
        work.lu.refactor(&work.a).map_err(singular)?;
        work.lu.solve_into(&work.rhs, &mut work.x).map_err(singular)
    }

    /// Solves the circuit at angular frequency `omega` (rad/s).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] when the MNA matrix cannot
    /// be factorised (floating nodes, short-circuit loops of ideal sources).
    pub fn solve(&self, omega: f64) -> Result<AcSolution> {
        let work = &mut *self.work.borrow_mut();
        self.solve_into(omega, work)?;
        let (nodes, branches) = work.x.as_slice().split_at(self.netlist.node_count() - 1);
        Ok(AcSolution {
            node_voltages: std::iter::once(Complex64::ZERO)
                .chain(nodes.iter().copied())
                .collect(),
            branch_currents: branches.to_vec(),
        })
    }

    /// Voltage transfer function from the (single) source to `out_node` at
    /// `omega` — i.e. `v(out_node)` with unit drive. Solves into the
    /// engine's reused buffers and reads out the one node.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError::SingularSystem`] from the solve.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node index.
    pub fn transfer(&self, out_node: usize, omega: f64) -> Result<Complex64> {
        let nodes = self.netlist.node_count();
        assert!(out_node < nodes, "node {out_node} out of range (< {nodes})");
        let work = &mut *self.work.borrow_mut();
        self.solve_into(omega, work)?;
        Ok(Self::node_index(out_node).map_or(Complex64::ZERO, |i| work.x[i]))
    }

    /// Sweeps a log-spaced frequency grid, returning `(f_hz, v_out)` pairs.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] on a bad frequency range or
    ///   `points < 2`.
    /// * [`CircuitError::SingularSystem`] from any solve.
    pub fn sweep(
        &self,
        out_node: usize,
        f_start_hz: f64,
        f_stop_hz: f64,
        points: usize,
    ) -> Result<Vec<(f64, Complex64)>> {
        if !(f_start_hz > 0.0 && f_stop_hz > f_start_hz) {
            return Err(CircuitError::InvalidValue {
                what: "frequency range",
                value: f_start_hz,
                constraint: "0 < f_start < f_stop",
            });
        }
        if points < 2 {
            return Err(CircuitError::InvalidValue {
                what: "sweep points",
                value: points as f64,
                constraint: "points >= 2",
            });
        }
        let lstart = f_start_hz.log10();
        let lstop = f_stop_hz.log10();
        let mut out = Vec::with_capacity(points);
        for k in 0..points {
            let f = 10f64.powf(lstart + (lstop - lstart) * k as f64 / (points - 1) as f64);
            let v = self.transfer(out_node, 2.0 * std::f64::consts::PI * f)?;
            out.push((f, v));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

    /// Voltage divider: 1 V source, two equal resistors.
    #[test]
    fn resistive_divider() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, 1e3).unwrap();
        nl.resistor(2, 0, 1e3).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(0.0).unwrap();
        assert!((sol.voltage(2).re - 0.5).abs() < 1e-12);
        assert!(sol.voltage(2).im.abs() < 1e-12);
        // Source current = −1 V / 2 kΩ (flows out of + terminal).
        assert!((sol.source_current(0).re + 0.5e-3).abs() < 1e-12);
        assert_eq!(sol.node_count(), 3);
    }

    #[test]
    fn rc_lowpass_corner() {
        let r = 1e3;
        let c = 1e-9;
        let fc = 1.0 / (TWO_PI * r * c);
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.capacitor(2, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);

        // Passband ≈ 1, corner ≈ −3 dB with −45° phase, decade above ≈ −20 dB.
        let low = ac.transfer(2, TWO_PI * fc / 1000.0).unwrap();
        assert!((low.abs() - 1.0).abs() < 1e-4);

        let corner = ac.transfer(2, TWO_PI * fc).unwrap();
        assert!((corner.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((corner.arg().to_degrees() + 45.0).abs() < 1e-6);

        let above = ac.transfer(2, TWO_PI * fc * 10.0).unwrap();
        assert!((above.abs() - 1.0 / 101f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn rlc_series_resonance() {
        // Series RLC from source to ground, measure across the capacitor.
        let r = 10.0_f64;
        let l = 1e-6_f64;
        let c = 1e-9_f64;
        let f0 = 1.0 / (TWO_PI * (l * c).sqrt());
        let mut nl = Netlist::new(4);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.inductor(2, 3, l).unwrap();
        nl.capacitor(3, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);
        // At resonance, |V_C| = Q = (1/R)·sqrt(L/C).
        let q = (l / c).sqrt() / r;
        let vc = ac.transfer(3, TWO_PI * f0).unwrap();
        assert!(
            (vc.abs() - q).abs() / q < 1e-6,
            "Q = {q}, |vc| = {}",
            vc.abs()
        );
    }

    #[test]
    fn vccs_amplifier_gain() {
        // gm cell driving a load resistor: gain = −gm·R.
        let gm = 2e-3;
        let rl = 5e3;
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        // current flows from output (2) into ground through source when v1>0
        nl.vccs(2, 0, 1, 0, gm).unwrap();
        nl.resistor(2, 0, rl).unwrap();
        let ac = AcAnalysis::new(&nl);
        let v = ac.transfer(2, 0.0).unwrap();
        assert!((v.re + gm * rl).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut nl = Netlist::new(2);
        nl.current_source(0, 1, 1e-3).unwrap();
        nl.resistor(1, 0, 2e3).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(0.0).unwrap();
        assert!((sol.voltage(1).re - 2.0).abs() < 1e-12);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 0, 1e3).unwrap();
        // node 2 touches nothing conductive
        nl.capacitor(2, 0, 0.0).unwrap();
        let ac = AcAnalysis::new(&nl);
        assert!(matches!(
            ac.solve(0.0),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn sweep_is_monotone_for_lowpass() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, 1e3).unwrap();
        nl.capacitor(2, 0, 1e-9).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sweep = ac.sweep(2, 1e3, 1e8, 41).unwrap();
        assert_eq!(sweep.len(), 41);
        for w in sweep.windows(2) {
            assert!(w[1].1.abs() <= w[0].1.abs() + 1e-12);
            assert!(w[1].0 > w[0].0);
        }
        assert!(ac.sweep(2, 0.0, 1e6, 10).is_err());
        assert!(ac.sweep(2, 1e3, 1e2, 10).is_err());
        assert!(ac.sweep(2, 1e3, 1e6, 1).is_err());
    }

    #[test]
    fn two_voltage_sources() {
        // Superposition sanity: two 1 V sources in series via resistors.
        let mut nl = Netlist::new(4);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.voltage_source(3, 0, 1.0).unwrap();
        nl.resistor(1, 2, 1e3).unwrap();
        nl.resistor(3, 2, 1e3).unwrap();
        nl.resistor(2, 0, 1e3).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(0.0).unwrap();
        // Node 2: by symmetry v = 2/3 V.
        assert!((sol.voltage(2).re - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ac.system_dim(), 3 + 2);
    }

    #[test]
    fn transfer_reads_the_full_solution_node() {
        // Transfer reuses one set of buffers across a sweep; every point
        // must equal a fresh full solve, and a singular point in between
        // must not poison the next one.
        let mut nl = Netlist::new(4);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, 1e3).unwrap();
        nl.capacitor(2, 0, 1e-9).unwrap();
        nl.inductor(2, 3, 1e-3).unwrap();
        nl.resistor(3, 0, 50.0).unwrap();
        let ac = AcAnalysis::new(&nl);
        for f in [0.0, 1e3, 1e5, 1e6, 1e8] {
            for node in 0..4 {
                let fresh = AcAnalysis::new(&nl).solve(TWO_PI * f).unwrap();
                assert_eq!(ac.transfer(node, TWO_PI * f).unwrap(), fresh.voltage(node));
            }
        }
        let mut floating = Netlist::new(3);
        floating.voltage_source(1, 0, 1.0).unwrap();
        floating.resistor(1, 0, 1e3).unwrap();
        floating.capacitor(2, 0, 1e-9).unwrap();
        let ac = AcAnalysis::new(&floating);
        assert!(ac.transfer(2, 0.0).is_err());
        let v = ac.transfer(2, TWO_PI * 1e3).unwrap();
        assert_eq!(
            v,
            AcAnalysis::new(&floating)
                .solve(TWO_PI * 1e3)
                .unwrap()
                .voltage(2)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn transfer_rejects_an_unknown_node() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, 1e3).unwrap();
        nl.resistor(2, 0, 1e3).unwrap();
        // Index 3 would read the source's branch current.
        let _ = AcAnalysis::new(&nl).transfer(3, 0.0);
    }

    #[test]
    fn inductor_is_short_at_dc() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.inductor(1, 2, 1e-3).unwrap();
        nl.resistor(2, 0, 1e3).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(0.0).unwrap();
        assert!((sol.voltage(2).re - 1.0).abs() < 1e-6);
    }
}
