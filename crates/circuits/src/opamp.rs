//! Two-stage Miller-compensated operational amplifier testbench.
//!
//! This reproduces the paper's first circuit example: a two-stage op-amp in
//! a 45 nm process, measured at the schematic and post-layout stages for
//! five correlated metrics — **DC gain (dB), −3 dB bandwidth (Hz), power
//! (W), input-referred offset (V) and phase margin (°)**.
//!
//! The signal path is the classic topology (paper Fig. 3): a PMOS input
//! differential pair (M1/M2) with NMOS current-mirror load (M3/M4), biased
//! by a tail mirror (M5 ← M8 ← I_REF), followed by an NMOS common-source
//! second stage (M6) with PMOS current-source load (M7) and Miller
//! compensation `R_z + C_c`, driving a load capacitance `C_L`.
//!
//! For every Monte Carlo sample the testbench:
//! 1. draws die-global + per-device local process variation,
//! 2. resolves the bias point (mirror ratio errors from V_th mismatch,
//!    headroom compression from global V_th shift),
//! 3. extracts each device's small-signal parameters,
//! 4. builds the small-signal [`Netlist`] and runs full MNA AC analysis
//!    ([`crate::mna::AcAnalysis`]) to measure gain/bandwidth/phase margin,
//! 5. computes power from the actual branch currents and the input offset
//!    from the mismatch terms.
//!
//! AC solves are the dominant cost of a draw, so each measurement makes
//! only the solves it needs (~94 per draw): the −3 dB and unity-gain
//! frequencies are bracketed by a 60-point log scan and then found by
//! Illinois regula falsi on `ln|H|` over `log10 f`, stopping at f64
//! resolution; the phase margin unwraps `arg H` over a 24-step sweep whose
//! only job is to pick the 2π branch (steps that turn by more than π/4 are
//! subdivided).
//!
//! The **post-layout** stage adds extracted-style parasitics: wiring
//! capacitance on the high-impedance nodes, extra Miller capacitance,
//! series resistance (transconductance degradation), reduced output
//! resistance, a systematic offset and an IR-drop term that costs headroom.
//! The parasitic interconnect also carries its own global process spread.

use crate::mna::AcAnalysis;
use crate::mosfet::{DeviceVariation, Geometry, Mosfet, Polarity, TechnologyParams};
use crate::netlist::Netlist;
use crate::variation::VariationModel;
use crate::{CircuitError, Result};
use bmf_stats::sample_standard_normal;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::f64::consts::{PI, TAU};

/// Output node of the small-signal netlist.
const OUT_NODE: usize = 3;

/// The five op-amp performance metrics of one simulated die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpAmpPerformance {
    /// DC open-loop gain in dB.
    pub gain_db: f64,
    /// −3 dB bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// Static power consumption in watts.
    pub power_w: f64,
    /// Input-referred offset voltage in volts.
    pub offset_v: f64,
    /// Phase margin in degrees.
    pub phase_margin_deg: f64,
}

impl OpAmpPerformance {
    /// Metric names, in the order of [`Self::to_array`].
    pub fn metric_names() -> [&'static str; 5] {
        [
            "gain_db",
            "bandwidth_hz",
            "power_w",
            "offset_v",
            "phase_margin_deg",
        ]
    }

    /// The metrics as a fixed-order array (matches [`Self::metric_names`]).
    pub fn to_array(&self) -> [f64; 5] {
        [
            self.gain_db,
            self.bandwidth_hz,
            self.power_w,
            self.offset_v,
            self.phase_margin_deg,
        ]
    }
}

/// Extracted-style layout parasitics applied at the post-layout stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayoutParasitics {
    /// Extra wiring capacitance at the first-stage output, farads.
    pub c_node1: f64,
    /// Extra wiring capacitance at the op-amp output, farads.
    pub c_out: f64,
    /// Extra capacitance in parallel with the Miller capacitor, farads.
    pub c_miller: f64,
    /// Relative transconductance degradation from series wiring resistance
    /// (e.g. `0.04` = −4 %).
    pub gm_degradation: f64,
    /// Relative output-resistance degradation (well proximity, stress).
    pub ro_degradation: f64,
    /// Systematic input offset introduced by asymmetric routing, volts.
    pub systematic_offset: f64,
    /// Extra supply current drawn by layout-induced leakage, relative.
    pub power_overhead: f64,
    /// Supply IR drop in volts — costs tail headroom (see
    /// `OpAmpTestbench::headroom_factor`).
    pub ir_drop: f64,
    /// Relative σ of the interconnect-parasitic global corner.
    pub interconnect_sigma: f64,
    /// Extraction-corner bias: the single nominal extraction run is done at
    /// the typical corner, while the *statistical* interconnect population
    /// averages higher coupling — so Monte Carlo parasitics are multiplied
    /// by this factor (> 1) relative to the nominal run. This is the
    /// physical mechanism that leaves a **residual late-stage mean shift
    /// the paper's nominal-shift step cannot remove** (§5.1: the op-amp's
    /// early mean prior is less trustworthy than its covariance prior).
    pub extraction_bias: f64,
}

impl LayoutParasitics {
    /// Representative extraction results for the 45 nm op-amp layout.
    pub fn default_45nm() -> Self {
        LayoutParasitics {
            c_node1: 120e-15,
            c_out: 350e-15,
            c_miller: 60e-15,
            gm_degradation: 0.02,
            ro_degradation: 0.04,
            systematic_offset: 1.5e-3,
            power_overhead: 0.03,
            ir_drop: 0.020,
            interconnect_sigma: 0.02,
            extraction_bias: 1.10,
        }
    }
}

/// Curvature of the tail-headroom compression (1/V²); see
/// `OpAmpTestbench::headroom_factor`.
const HEADROOM_ALPHA: f64 = 10.0;

/// Design parameters of the two-stage op-amp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpAmpDesign {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Reference current fed to the bias mirror, amperes.
    pub iref: f64,
    /// Tail-mirror ratio: `I_tail = ratio_tail · I_REF`.
    pub ratio_tail: f64,
    /// Second-stage mirror ratio: `I_6 = ratio_stage2 · I_REF`.
    pub ratio_stage2: f64,
    /// Miller compensation capacitor, farads.
    pub cc: f64,
    /// Zero-nulling resistor in series with `C_c`, ohms.
    pub rz: f64,
    /// Load capacitance, farads.
    pub cl: f64,
    /// Input pair geometry (M1/M2, PMOS).
    pub geom_input: Geometry,
    /// Mirror-load geometry (M3/M4, NMOS).
    pub geom_load: Geometry,
    /// Tail source geometry (M5, PMOS).
    pub geom_tail: Geometry,
    /// Second-stage driver geometry (M6, NMOS).
    pub geom_stage2: Geometry,
    /// Second-stage current-source geometry (M7, PMOS).
    pub geom_src2: Geometry,
}

/// Which design stage a simulation models (paper: early = schematic, late =
/// post-layout). Re-exported as [`crate::monte_carlo::Stage`].
pub use crate::monte_carlo::Stage;

/// Two-stage op-amp Monte Carlo testbench.
///
/// # Example
///
/// ```
/// use bmf_circuits::opamp::OpAmpTestbench;
/// use bmf_circuits::monte_carlo::Stage;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// let tb = OpAmpTestbench::default_45nm();
/// let nominal = tb.nominal_performance(Stage::PostLayout)?;
/// assert!(nominal.gain_db > 40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OpAmpTestbench {
    design: OpAmpDesign,
    nmos: TechnologyParams,
    pmos: TechnologyParams,
    variation: VariationModel,
    parasitics: LayoutParasitics,
}

/// Internal: resolved per-die variation set for the eight devices.
struct DieVariations {
    m1: DeviceVariation,
    m2: DeviceVariation,
    m3: DeviceVariation,
    m4: DeviceVariation,
    m5: DeviceVariation,
    m6: DeviceVariation,
    m7: DeviceVariation,
    m8: DeviceVariation,
    /// Interconnect global corner multiplier (post-layout only), ≈ N(1, σ).
    interconnect: f64,
    /// Die-global threshold shift (drives headroom compression).
    global_dvth: f64,
}

/// Internal: one die resolved to its small-signal netlist, plus the two
/// metrics that need no AC analysis.
struct BiasedDie {
    netlist: Netlist,
    power_w: f64,
    offset_v: f64,
}

impl DieVariations {
    fn nominal() -> Self {
        DieVariations {
            m1: DeviceVariation::default(),
            m2: DeviceVariation::default(),
            m3: DeviceVariation::default(),
            m4: DeviceVariation::default(),
            m5: DeviceVariation::default(),
            m6: DeviceVariation::default(),
            m7: DeviceVariation::default(),
            m8: DeviceVariation::default(),
            interconnect: 1.0,
            global_dvth: 0.0,
        }
    }
}

impl OpAmpTestbench {
    /// Creates a testbench from explicit design, technology and variation
    /// descriptions.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for an invalid variation model
    /// or non-positive design values.
    pub fn new(
        design: OpAmpDesign,
        nmos: TechnologyParams,
        pmos: TechnologyParams,
        variation: VariationModel,
        parasitics: LayoutParasitics,
    ) -> Result<Self> {
        variation.validate()?;
        for (what, v) in [
            ("vdd", design.vdd),
            ("iref", design.iref),
            ("ratio_tail", design.ratio_tail),
            ("ratio_stage2", design.ratio_stage2),
            ("cc", design.cc),
            ("rz", design.rz),
            ("cl", design.cl),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(CircuitError::InvalidValue {
                    what,
                    value: v,
                    constraint: "positive and finite",
                });
            }
        }
        Ok(OpAmpTestbench {
            design,
            nmos,
            pmos,
            variation,
            parasitics,
        })
    }

    /// The default 45 nm design used by the paper-reproduction experiments.
    pub fn default_45nm() -> Self {
        let design = OpAmpDesign {
            vdd: 1.1,
            iref: 20e-6,
            ratio_tail: 1.0,
            ratio_stage2: 3.0,
            cc: 1.0e-12,
            rz: 300.0,
            cl: 2.0e-12,
            geom_input: Geometry::new(20e-6, 0.2e-6).expect("valid geometry"),
            geom_load: Geometry::new(8e-6, 0.4e-6).expect("valid geometry"),
            geom_tail: Geometry::new(16e-6, 0.4e-6).expect("valid geometry"),
            geom_stage2: Geometry::new(50e-6, 0.2e-6).expect("valid geometry"),
            geom_src2: Geometry::new(48e-6, 0.4e-6).expect("valid geometry"),
        };
        OpAmpTestbench::new(
            design,
            TechnologyParams::nmos_45nm(),
            TechnologyParams::pmos_45nm(),
            VariationModel::nominal_45nm(),
            LayoutParasitics::default_45nm(),
        )
        .expect("default design is valid")
    }

    /// The design parameters.
    pub fn design(&self) -> &OpAmpDesign {
        &self.design
    }

    /// The variation model.
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// Tail-current headroom compression.
    ///
    /// A positive die-global V_th shift squeezes the saturation headroom of
    /// the tail and bias devices; post-layout the supply IR drop makes it
    /// worse. The effect is asymmetric (only the slow corner suffers), which
    /// is what leaves a *residual mean discrepancy between the stages even
    /// after nominal shifting* — the op-amp behaviour the paper observes
    /// (prior mean less trustworthy than prior covariance).
    fn headroom_factor(&self, global_dvth: f64, stage: Stage) -> f64 {
        let extra = match stage {
            Stage::Schematic => 0.0,
            Stage::PostLayout => self.parasitics.ir_drop,
        };
        let squeeze = (global_dvth + extra).max(0.0);
        (1.0 - HEADROOM_ALPHA * squeeze * squeeze).max(0.2)
    }

    /// Draws one die worth of device variations.
    fn draw_variations<R: Rng + ?Sized>(&self, rng: &mut R, stage: Stage) -> DieVariations {
        let global = self.variation.sample_global(rng);
        let d = &self.design;
        let dev = |g: &Geometry, rng: &mut R| self.variation.sample_device(rng, &global, g);
        let interconnect = match stage {
            Stage::Schematic => 1.0,
            Stage::PostLayout => {
                self.parasitics.extraction_bias
                    + self.parasitics.interconnect_sigma * sample_standard_normal(rng)
            }
        };
        DieVariations {
            m1: dev(&d.geom_input, rng),
            m2: dev(&d.geom_input, rng),
            m3: dev(&d.geom_load, rng),
            m4: dev(&d.geom_load, rng),
            m5: dev(&d.geom_tail, rng),
            m6: dev(&d.geom_stage2, rng),
            m7: dev(&d.geom_src2, rng),
            m8: dev(&d.geom_tail, rng),
            interconnect,
            global_dvth: global.delta_vth,
        }
    }

    /// Simulates one die at the given stage and variation set.
    fn simulate(&self, stage: Stage, vars: &DieVariations) -> Result<OpAmpPerformance> {
        let die = self.bias(stage, vars)?;
        let (gain_db, bandwidth_hz, phase_margin_deg) = measure_ac(&die.netlist)?;
        Ok(OpAmpPerformance {
            gain_db,
            bandwidth_hz,
            power_w: die.power_w,
            offset_v: die.offset_v,
            phase_margin_deg,
        })
    }

    /// Resolves one die's bias point into its small-signal netlist, power
    /// and input offset.
    fn bias(&self, stage: Stage, vars: &DieVariations) -> Result<BiasedDie> {
        let d = &self.design;
        let (gm_derate, ro_derate, c1_extra, cout_extra, cc_extra, power_over, offset_sys) =
            match stage {
                Stage::Schematic => (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
                Stage::PostLayout => (
                    1.0 - self.parasitics.gm_degradation,
                    1.0 - self.parasitics.ro_degradation,
                    self.parasitics.c_node1 * vars.interconnect,
                    self.parasitics.c_out * vars.interconnect,
                    self.parasitics.c_miller * vars.interconnect,
                    1.0 + self.parasitics.power_overhead,
                    self.parasitics.systematic_offset,
                ),
            };

        // --- Bias resolution -------------------------------------------------
        let input = Mosfet::new(Polarity::Pmos, self.pmos, d.geom_input);
        let load = Mosfet::new(Polarity::Nmos, self.nmos, d.geom_load);
        let tail = Mosfet::new(Polarity::Pmos, self.pmos, d.geom_tail);
        let stage2 = Mosfet::new(Polarity::Nmos, self.nmos, d.geom_stage2);
        let src2 = Mosfet::new(Polarity::Pmos, self.pmos, d.geom_src2);

        let headroom = self.headroom_factor(vars.global_dvth, stage);

        // Mirror ratio errors: ΔI/I = −2 ΔV_th_mismatch / V_ov of the mirror.
        let tail_ref = tail.bias_with_current(d.iref * d.ratio_tail, 0.3, &vars.m8)?;
        let tail_mismatch = -2.0 * (vars.m5.delta_vth - vars.m8.delta_vth) / tail_ref.vov;
        let i_tail = d.iref * d.ratio_tail * (1.0 + tail_mismatch) * headroom;
        if i_tail <= 0.0 {
            return Err(CircuitError::BiasFailure {
                reason: format!("tail current collapsed: {i_tail:.3e} A"),
            });
        }
        let id1 = 0.5 * i_tail;

        let src_ref = src2.bias_with_current(d.iref * d.ratio_stage2, 0.3, &vars.m8)?;
        let src_mismatch = -2.0 * (vars.m7.delta_vth - vars.m8.delta_vth) / src_ref.vov;
        let i6 = d.iref * d.ratio_stage2 * (1.0 + src_mismatch) * headroom;
        if i6 <= 0.0 {
            return Err(CircuitError::BiasFailure {
                reason: format!("second-stage current collapsed: {i6:.3e} A"),
            });
        }

        // --- Small-signal parameters ----------------------------------------
        let vds1 = 0.4 * d.vdd;
        let ss1 = input.bias_with_current(id1, vds1, &vars.m1)?;
        let ss2 = input.bias_with_current(id1, vds1, &vars.m2)?;
        let ss3 = load.bias_with_current(id1, 0.3 * d.vdd, &vars.m3)?;
        let ss4 = load.bias_with_current(id1, 0.3 * d.vdd, &vars.m4)?;
        let ss6 = stage2.bias_with_current(i6, 0.5 * d.vdd, &vars.m6)?;
        let ss7 = src2.bias_with_current(i6, 0.5 * d.vdd, &vars.m7)?;

        let gm1 = 0.5 * (ss1.gm + ss2.gm) * gm_derate;
        let r1 = ro_derate / (ss2.gds + ss4.gds);
        let c1 = ss6.cgs + ss4.cgd + ss2.cgd + c1_extra;
        let gm6 = ss6.gm * gm_derate;
        let r2 = ro_derate / (ss6.gds + ss7.gds);
        let c_out = d.cl + ss6.cgd + ss7.cgd + cout_extra;
        let cc = d.cc + cc_extra;

        // --- Small-signal netlist (nodes: 1 in, 2 stage-1 out, 3 out, 4 Rz) -
        let mut nl = Netlist::new(5);
        nl.voltage_source(1, 0, 1.0)?;
        nl.vccs(2, 0, 1, 0, gm1)?;
        nl.resistor(2, 0, r1)?;
        nl.capacitor(2, 0, c1)?;
        nl.vccs(OUT_NODE, 0, 2, 0, gm6)?;
        nl.resistor(OUT_NODE, 0, r2)?;
        nl.capacitor(OUT_NODE, 0, c_out)?;
        nl.capacitor(2, 4, cc)?;
        nl.resistor(4, OUT_NODE, d.rz)?;

        let power_w = d.vdd * (d.iref + i_tail + i6) * power_over;

        // Input-referred offset: input-pair mismatch plus mirror mismatch
        // reflected through the gm ratio, plus layout-systematic term.
        let offset_v = (vars.m1.delta_vth - vars.m2.delta_vth)
            + (ss3.gm / gm1.max(1e-12)) * (vars.m3.delta_vth - vars.m4.delta_vth)
            + offset_sys;

        Ok(BiasedDie {
            netlist: nl,
            power_w,
            offset_v,
        })
    }

    /// Performance at the nominal (variation-free) corner — the `P_NOM`
    /// measurement the paper's shift operation uses (§4.1).
    ///
    /// # Errors
    ///
    /// Propagates simulation/measurement failures.
    pub fn nominal_performance(&self, stage: Stage) -> Result<OpAmpPerformance> {
        self.simulate(stage, &DieVariations::nominal())
    }

    /// Simulates one Monte Carlo die.
    ///
    /// # Errors
    ///
    /// Propagates bias or measurement failures (rare at the default
    /// variation level; callers doing large MC runs may retry).
    pub fn sample_performance<R: Rng + ?Sized>(
        &self,
        stage: Stage,
        rng: &mut R,
    ) -> Result<OpAmpPerformance> {
        let vars = self.draw_variations(rng, stage);
        self.simulate(stage, &vars)
    }
}

/// Measures DC gain (dB), −3 dB bandwidth (Hz) and phase margin (°) of the
/// small-signal netlist at [`OUT_NODE`].
fn measure_ac(netlist: &Netlist) -> Result<(f64, f64, f64)> {
    let ac = AcAnalysis::new(netlist);
    let h = |f: f64| ac.transfer(OUT_NODE, TAU * f);
    let mag = |f: f64| h(f).map(|v| v.abs()).unwrap_or(f64::NAN);

    let dc = h(0.0)?;
    let gain0 = dc.abs();
    if !(gain0 > 1.0) {
        return Err(CircuitError::MeasurementFailure {
            metric: "dc gain",
            reason: format!("|H(0)| = {gain0:.3e} <= 1"),
        });
    }
    let gain_db = 20.0 * gain0.log10();

    let bandwidth_hz =
        find_crossing_freq(mag, gain0 / 2f64.sqrt(), 1.0, 1e11).ok_or_else(|| {
            CircuitError::MeasurementFailure {
                metric: "-3dB bandwidth",
                reason: "no crossing in [1 Hz, 100 GHz]".to_string(),
            }
        })?;

    let unity_hz = find_crossing_freq(mag, 1.0, bandwidth_hz, 1e12).ok_or_else(|| {
        CircuitError::MeasurementFailure {
            metric: "unity-gain frequency",
            reason: "no crossing above the -3dB point".to_string(),
        }
    })?;
    let phase_margin_deg = phase_margin(|f| Ok(h(f)?.arg()), dc.arg(), unity_hz, bandwidth_hz)?;
    Ok((gain_db, bandwidth_hz, phase_margin_deg))
}

/// Points of the log scan that brackets a crossing.
const SCAN_POINTS: usize = 60;

/// Relative tolerance on `x = log10 f` at which the crossing search stops:
/// a few ulps, i.e. f64 resolution.
const X_REL_TOL: f64 = 4.0 * f64::EPSILON;

/// Cap on root-finding steps; Illinois converges in far fewer.
const MAX_SEARCH_STEPS: usize = 100;

/// Finds the frequency (Hz) where `mag(f) = |H(f)|` first crosses `target`
/// from above in `[f_lo, f_hi]`.
///
/// A 60-point log scan brackets the first crossing. Illinois regula falsi
/// on `g(x) = ln|H(10^x)| − ln target` over `x = log10 f` then shrinks the
/// bracket, keeping every step at least a few ulps inside it (Brent's
/// minimum step), and stops once a step or the bracket is that small.
/// `g` is near-linear in `x` on a Bode slope, so this takes a handful of
/// solves where bisection to the same resolution takes ~50.
///
/// Returns `None` if no bracket is found or `|H|` is NaN anywhere on the
/// way (a failed solve reads as NaN).
fn find_crossing_freq(mag: impl Fn(f64) -> f64, target: f64, f_lo: f64, f_hi: f64) -> Option<f64> {
    // Coarse log scan to bracket the crossing.
    let l0 = f_lo.log10();
    let l1 = f_hi.log10();
    let mut prev_f = f_lo;
    let mut prev_m = mag(f_lo);
    if !(prev_m > target) {
        return None; // already below target at the low end
    }
    let mut bracket = None;
    for k in 1..=SCAN_POINTS {
        let f = 10f64.powf(l0 + (l1 - l0) * k as f64 / SCAN_POINTS as f64);
        let m = mag(f);
        if m.is_nan() {
            return None;
        }
        if m <= target {
            bracket = Some((prev_f, prev_m, f, m));
            break;
        }
        prev_f = f;
        prev_m = m;
    }
    let (f_a, m_a, f_b, m_b) = bracket?;

    // Illinois regula falsi on g, with the bracket g(a) > 0 >= g(b) kept.
    let ln_target = target.ln();
    let (mut a, mut ga) = (f_a.log10(), m_a.ln() - ln_target);
    let (mut b, mut gb) = (f_b.log10(), m_b.ln() - ln_target);
    if gb == 0.0 {
        return Some(f_b);
    }
    let mut x = b;
    // Which end survived the previous step: `Some(true)` = a, `Some(false)` = b.
    let mut kept_a = None;
    for _ in 0..MAX_SEARCH_STEPS {
        let tol = X_REL_TOL * a.abs().max(b.abs()).max(1.0);
        if b - a <= 2.0 * tol {
            break;
        }
        let mut next = b - gb * (b - a) / (gb - ga);
        if next.is_nan() {
            next = 0.5 * (a + b);
        }
        // At least `tol` inside the bracket: when one end already sits on
        // the root, the next step then collapses the bracket onto it.
        let next = next.clamp(a + tol, b - tol);
        let step = (next - x).abs();
        x = next;
        let gx = mag(10f64.powf(x)).ln() - ln_target;
        if gx.is_nan() {
            return None;
        }
        if gx > 0.0 {
            a = x;
            ga = gx;
            if kept_a == Some(false) {
                gb *= 0.5; // b kept twice: pull the secant towards it
            }
            kept_a = Some(false);
        } else {
            b = x;
            gb = gx;
            if kept_a == Some(true) {
                ga *= 0.5;
            }
            kept_a = Some(true);
        }
        if gx == 0.0 || step <= tol {
            break;
        }
    }
    Some(10f64.powf(x))
}

/// Log-sweep steps of the phase unwrap.
const PHASE_POINTS: usize = 24;

/// Wrapped phase change above which an unwrap step is halved.
const MAX_PHASE_STEP: f64 = std::f64::consts::FRAC_PI_4;

/// How many times one unwrap step may be halved: 1/32 of a sweep step is
/// finer than the uniform 240-point sweep of the test oracle.
const MAX_PHASE_SPLITS: u32 = 5;

/// Phase margin (°) at the unity-gain frequency `unity_hz`, given
/// `arg(f) = arg H(f)` and the DC phase.
///
/// The unwrapped phase telescopes to `arg H(f_u) − arg H(0) + 2πk`, so a
/// sweep only has to pick the branch `k`. It runs 24 log steps from a
/// decade below the −3 dB corner to `f_u`; a step whose wrapped change
/// exceeds π/4 is halved (up to five times), so a sharp phase turn lands on
/// the branch a fine sweep would pick. (A turn of more than 7π/4 inside one
/// step wraps to under π/4 and stays hidden, as it does from any sampled
/// unwrap at that step.)
fn phase_margin(
    arg: impl Fn(f64) -> Result<f64>,
    dc_phase: f64,
    unity_hz: f64,
    bw_hz: f64,
) -> Result<f64> {
    let f_start = (bw_hz / 10.0).max(1e-2);
    let l0 = f_start.log10();
    let l1 = unity_hz.log10();
    let mut prev = arg(f_start)?;
    let mut unwrapped = prev - dc_phase;
    let mut x_prev = l0;
    for k in 1..=PHASE_POINTS {
        let (x, cur) = if k == PHASE_POINTS {
            (l1, arg(unity_hz)?)
        } else {
            let x = l0 + (l1 - l0) * k as f64 / PHASE_POINTS as f64;
            (x, arg(10f64.powf(x))?)
        };
        unwrapped += phase_step(&arg, (x_prev, prev), (x, cur), MAX_PHASE_SPLITS)?;
        x_prev = x;
        prev = cur;
    }
    let principal = prev - dc_phase;
    let branch = ((unwrapped - principal) / TAU).round();
    Ok(180.0 + (principal + TAU * branch).to_degrees())
}

/// Unwrapped phase change from `(x0, p0)` to `(x1, p1)` (`x = log10 f`,
/// `p` the wrapped phase), halving the step while its wrapped change
/// exceeds [`MAX_PHASE_STEP`] and `splits` remain.
fn phase_step(
    arg: &impl Fn(f64) -> Result<f64>,
    (x0, p0): (f64, f64),
    (x1, p1): (f64, f64),
    splits: u32,
) -> Result<f64> {
    let delta = wrap_phase(p1 - p0);
    if !(delta.abs() > MAX_PHASE_STEP) || splits == 0 {
        return Ok(delta);
    }
    let xm = 0.5 * (x0 + x1);
    let pm = arg(10f64.powf(xm))?;
    Ok(phase_step(arg, (x0, p0), (xm, pm), splits - 1)?
        + phase_step(arg, (xm, pm), (x1, p1), splits - 1)?)
}

/// Wraps a phase difference into `[−π, π]`.
fn wrap_phase(mut delta: f64) -> f64 {
    while delta > PI {
        delta -= TAU;
    }
    while delta < -PI {
        delta += TAU;
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::Complex64;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(101)
    }

    #[test]
    fn nominal_schematic_is_a_working_opamp() {
        let tb = OpAmpTestbench::default_45nm();
        let p = tb.nominal_performance(Stage::Schematic).unwrap();
        assert!(
            p.gain_db > 50.0 && p.gain_db < 110.0,
            "gain = {} dB",
            p.gain_db
        );
        assert!(
            p.bandwidth_hz > 1e2 && p.bandwidth_hz < 1e7,
            "bw = {} Hz",
            p.bandwidth_hz
        );
        assert!(
            p.power_w > 1e-5 && p.power_w < 1e-3,
            "power = {} W",
            p.power_w
        );
        assert!(p.offset_v.abs() < 1e-3, "offset = {} V", p.offset_v);
        assert!(
            p.phase_margin_deg > 30.0 && p.phase_margin_deg < 120.0,
            "pm = {}°",
            p.phase_margin_deg
        );
    }

    #[test]
    fn post_layout_shifts_the_nominal_point() {
        let tb = OpAmpTestbench::default_45nm();
        let sch = tb.nominal_performance(Stage::Schematic).unwrap();
        let lay = tb.nominal_performance(Stage::PostLayout).unwrap();
        // Lower gain (gm/ro degradation) — note the −3 dB corner itself may
        // move *up* because bw ≈ GBW/A₀ and A₀ dropped.
        assert!(lay.gain_db < sch.gain_db);
        // The nominal point must shift noticeably in every AC metric — this
        // is what makes the paper's shift operation (§4.1) necessary.
        assert!((lay.bandwidth_hz - sch.bandwidth_hz).abs() / sch.bandwidth_hz > 0.01);
        assert!(lay.phase_margin_deg < sch.phase_margin_deg); // extra load cap
        assert!(lay.power_w > sch.power_w * 0.9); // overhead vs headroom squeeze
        assert!(lay.offset_v > sch.offset_v); // systematic offset added
    }

    #[test]
    fn monte_carlo_samples_spread_around_nominal() {
        let tb = OpAmpTestbench::default_45nm();
        let mut r = rng();
        let nominal = tb.nominal_performance(Stage::Schematic).unwrap();
        let n = 60;
        let mut gains = Vec::new();
        let mut offsets = Vec::new();
        for _ in 0..n {
            let p = tb.sample_performance(Stage::Schematic, &mut r).unwrap();
            gains.push(p.gain_db);
            offsets.push(p.offset_v);
        }
        let gain_mean: f64 = gains.iter().sum::<f64>() / n as f64;
        assert!((gain_mean - nominal.gain_db).abs() < 5.0);
        // Offsets scatter around ~0 with mV-scale spread.
        let off_sd: f64 = {
            let m: f64 = offsets.iter().sum::<f64>() / n as f64;
            (offsets.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n as f64 - 1.0)).sqrt()
        };
        assert!(off_sd > 1e-5 && off_sd < 1e-2, "offset sd = {off_sd}");
        // Samples are not all identical.
        assert!(gains.iter().any(|&g| (g - gains[0]).abs() > 1e-6));
    }

    #[test]
    fn sampling_is_reproducible_with_same_seed() {
        let tb = OpAmpTestbench::default_45nm();
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let a = tb.sample_performance(Stage::PostLayout, &mut r1).unwrap();
        let b = tb.sample_performance(Stage::PostLayout, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn metric_order_is_stable() {
        let p = OpAmpPerformance {
            gain_db: 1.0,
            bandwidth_hz: 2.0,
            power_w: 3.0,
            offset_v: 4.0,
            phase_margin_deg: 5.0,
        };
        assert_eq!(p.to_array(), [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(OpAmpPerformance::metric_names()[2], "power_w");
    }

    #[test]
    fn headroom_compression_is_asymmetric() {
        let tb = OpAmpTestbench::default_45nm();
        // Fast corner (negative dVth) keeps full headroom at schematic…
        assert_eq!(tb.headroom_factor(-0.05, Stage::Schematic), 1.0);
        // …slow corner loses current.
        assert!(tb.headroom_factor(0.05, Stage::Schematic) < 1.0);
        // Post-layout IR drop makes the same corner worse.
        assert!(
            tb.headroom_factor(0.05, Stage::PostLayout)
                < tb.headroom_factor(0.05, Stage::Schematic)
        );
        // Never collapses below the floor.
        assert!(tb.headroom_factor(1.0, Stage::PostLayout) >= 0.2);
    }

    #[test]
    fn invalid_design_is_rejected() {
        let mut design = OpAmpTestbench::default_45nm().design;
        design.cc = -1e-12;
        assert!(OpAmpTestbench::new(
            design,
            TechnologyParams::nmos_45nm(),
            TechnologyParams::pmos_45nm(),
            VariationModel::nominal_45nm(),
            LayoutParasitics::default_45nm(),
        )
        .is_err());
    }

    /// `|H|` of the AC analysis at `node`, NaN where the solve fails.
    fn magnitude<'a>(ac: &'a AcAnalysis<'_>, node: usize) -> impl Fn(f64) -> f64 + 'a {
        move |f| {
            ac.transfer(node, TAU * f)
                .map(|v| v.abs())
                .unwrap_or(f64::NAN)
        }
    }

    /// Single-pole `|H|` with its −3 dB corner at `fc`.
    fn one_pole(fc: f64) -> impl Fn(f64) -> f64 {
        move |f| 1.0 / (1.0 + (f / fc).powi(2)).sqrt()
    }

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs()
    }

    #[test]
    fn crossing_finder_agrees_with_analytic_rc() {
        // Single-pole RC: crossing of 1/√2 is exactly f_c.
        let r = 1e3;
        let c = 1e-9;
        let fc = 1.0 / (TAU * r * c);
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.capacitor(2, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);
        let mag = magnitude(&ac, 2);
        let f = find_crossing_freq(&mag, std::f64::consts::FRAC_1_SQRT_2, 1.0, 1e10).unwrap();
        assert!(rel(f, fc) < 1e-9, "f = {f}, fc = {fc}");
        // No crossing when the target is above the passband value.
        assert!(find_crossing_freq(&mag, 2.0, 1.0, 1e10).is_none());
    }

    #[test]
    fn crossing_finder_is_none_without_a_crossing() {
        // Still above the target at the top of the range.
        assert!(find_crossing_freq(one_pole(1e5), 1e-9, 1.0, 1e10).is_none());
    }

    #[test]
    fn crossing_finder_is_none_on_nan() {
        let target = std::f64::consts::FRAC_1_SQRT_2;
        // The corner sits between scan points 10^(31/6) and 10^(32/6).
        let fc = 2e5;
        let f = find_crossing_freq(one_pole(fc), target, 1.0, 1e10).unwrap();
        assert!(rel(f, fc) < 1e-9, "f = {f}");
        // NaN inside the bracket only: the scan passes, the search hits it.
        let holed = |f: f64| {
            if f > 1.9e5 && f < 2.1e5 {
                f64::NAN
            } else {
                one_pole(fc)(f)
            }
        };
        assert!(holed(10f64.powf(31.0 / 6.0)).is_finite());
        assert!(holed(10f64.powf(32.0 / 6.0)).is_finite());
        assert!(find_crossing_freq(holed, target, 1.0, 1e10).is_none());
        // NaN during the scan.
        let broken = |f: f64| if f > 1e3 { f64::NAN } else { one_pole(fc)(f) };
        assert!(find_crossing_freq(broken, target, 1.0, 1e10).is_none());
    }

    #[test]
    fn two_pole_phase_margin_is_analytic() {
        // Two inverting gm–R‖C stages: H(0) = gm1·R1·gm2·R2 = 1000, poles
        // at p1 = 1/(2πR1C1) and p2 = 1/(2πR2C2).
        let (gm1, r1, c1) = (1e-3, 1e5, 10e-12);
        let (gm2, r2, c2) = (1e-3, 1e4, 0.2e-12);
        let mut nl = Netlist::new(4);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.vccs(2, 0, 1, 0, gm1).unwrap();
        nl.resistor(2, 0, r1).unwrap();
        nl.capacitor(2, 0, c1).unwrap();
        nl.vccs(3, 0, 2, 0, gm2).unwrap();
        nl.resistor(3, 0, r2).unwrap();
        nl.capacitor(3, 0, c2).unwrap();
        let ac = AcAnalysis::new(&nl);
        let a0 = gm1 * r1 * gm2 * r2;
        let (p1, p2) = (1.0 / (TAU * r1 * c1), 1.0 / (TAU * r2 * c2));
        // |H(f_u)| = 1 ⇔ u²/(p1²p2²) + u(1/p1² + 1/p2²) + 1 − A0² = 0, u = f_u².
        let (qa, qb, qc) = (
            1.0 / (p1 * p1 * p2 * p2),
            1.0 / (p1 * p1) + 1.0 / (p2 * p2),
            1.0 - a0 * a0,
        );
        let fu = ((-qb + (qb * qb - 4.0 * qa * qc).sqrt()) / (2.0 * qa)).sqrt();
        let pm = 180.0 - (fu / p1).atan().to_degrees() - (fu / p2).atan().to_degrees();

        let mag = magnitude(&ac, 3);
        let bw = find_crossing_freq(&mag, a0 / 2f64.sqrt(), 1.0, 1e11).unwrap();
        assert!(rel(bw, p1) < 0.01, "bw = {bw}, p1 = {p1}");
        let unity = find_crossing_freq(&mag, 1.0, bw, 1e12).unwrap();
        assert!(rel(unity, fu) < 1e-9, "unity = {unity}, analytic {fu}");
        let dc_phase = ac.transfer(3, 0.0).unwrap().arg();
        let got =
            phase_margin(|f| Ok(ac.transfer(3, TAU * f)?.arg()), dc_phase, unity, bw).unwrap();
        assert!(rel(got, pm) < 1e-9, "pm = {got}, analytic {pm}");
    }

    #[test]
    fn sharp_phase_turn_keeps_the_fine_sweep_branch() {
        // A pole at 1 kHz and a Q = 20 and a Q = 1 resonance at 178 kHz,
        // inside the sweep step 10^(31/6)..10^(32/6) Hz: the phase falls
        // ~208° within that one step, which wraps to +152°, so an unwrap
        // that never subdivided would land a whole branch off.
        let p1: f64 = 1e3;
        let resonances: [(f64, f64); 2] = [(1.78e5, 20.0), (1.78e5, 1.0)];
        let h = |f: f64| {
            let s = Complex64::new(0.0, f);
            let mut den = Complex64::ONE + s / p1;
            for (f0, q) in resonances {
                den *= Complex64::ONE + s / (q * f0) + s * s / (f0 * f0);
            }
            den.recip()
        };
        let (unity, bw): (f64, f64) = (1e6, 1e3);
        let exact = -(unity / p1).atan()
            - resonances
                .iter()
                .map(|(f0, q)| ((unity / f0) / q).atan2(1.0 - (unity / f0).powi(2)))
                .sum::<f64>();
        let got = phase_margin(|f| Ok(h(f).arg()), 0.0, unity, bw).unwrap();
        let want = 180.0 + exact.to_degrees();
        assert!(rel(got, want) < 1e-9, "pm = {got}, continuous {want}");
    }

    #[test]
    fn search_agrees_with_fixed_bisection_oracle() {
        let tb = OpAmpTestbench::default_45nm();
        for (stage, seed) in [(Stage::Schematic, 31), (Stage::PostLayout, 32)] {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let mut compared = 0;
            for _ in 0..1000 {
                let vars = tb.draw_variations(&mut r, stage);
                let Ok(die) = tb.bias(stage, &vars) else {
                    continue;
                };
                let new = tb.simulate(stage, &vars);
                let old = oracle::measure_ac(&die.netlist).map(|(g, bw, pm)| OpAmpPerformance {
                    gain_db: g,
                    bandwidth_hz: bw,
                    power_w: die.power_w,
                    offset_v: die.offset_v,
                    phase_margin_deg: pm,
                });
                let (Ok(new), Ok(old)) = (&new, &old) else {
                    assert_eq!(new.is_ok(), old.is_ok(), "{stage:?}: {new:?} vs {old:?}");
                    continue;
                };
                assert_eq!(new.gain_db.to_bits(), old.gain_db.to_bits());
                assert_eq!(new.power_w.to_bits(), old.power_w.to_bits());
                assert_eq!(new.offset_v.to_bits(), old.offset_v.to_bits());
                assert!(
                    rel(new.bandwidth_hz, old.bandwidth_hz) <= 1e-9,
                    "{stage:?} bw {} vs {}",
                    new.bandwidth_hz,
                    old.bandwidth_hz
                );
                assert!(
                    rel(new.phase_margin_deg, old.phase_margin_deg) <= 1e-9,
                    "{stage:?} pm {} vs {}",
                    new.phase_margin_deg,
                    old.phase_margin_deg
                );
                compared += 1;
            }
            assert!(compared >= 990, "{stage:?}: only {compared} dies measured");
        }
    }
}

/// Reference measurement: a 60-point log scan plus a fixed 60-step
/// bisection per crossing, and a 240-point phase unwrap. The tests check
/// the converging search and the short unwrap against it.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn measure_ac(netlist: &Netlist) -> Result<(f64, f64, f64)> {
        let ac = AcAnalysis::new(netlist);
        let gain0 = ac.transfer(OUT_NODE, 0.0)?.abs();
        if !(gain0 > 1.0) {
            return Err(CircuitError::MeasurementFailure {
                metric: "dc gain",
                reason: format!("|H(0)| = {gain0:.3e} <= 1"),
            });
        }
        let bandwidth_hz = find_crossing_freq(&ac, OUT_NODE, gain0 / 2f64.sqrt(), 1.0, 1e11)
            .ok_or(CircuitError::MeasurementFailure {
                metric: "-3dB bandwidth",
                reason: String::new(),
            })?;
        let unity_hz = find_crossing_freq(&ac, OUT_NODE, 1.0, bandwidth_hz, 1e12).ok_or(
            CircuitError::MeasurementFailure {
                metric: "unity-gain frequency",
                reason: String::new(),
            },
        )?;
        let pm = phase_margin(&ac, OUT_NODE, unity_hz, bandwidth_hz)?;
        Ok((20.0 * gain0.log10(), bandwidth_hz, pm))
    }

    fn find_crossing_freq(
        ac: &AcAnalysis<'_>,
        out_node: usize,
        target: f64,
        f_lo: f64,
        f_hi: f64,
    ) -> Option<f64> {
        let mag = |f: f64| -> f64 {
            ac.transfer(out_node, TAU * f)
                .map(|v| v.abs())
                .unwrap_or(f64::NAN)
        };
        let points = 60;
        let l0 = f_lo.log10();
        let l1 = f_hi.log10();
        let mut prev_f = f_lo;
        if !(mag(f_lo) > target) {
            return None;
        }
        let mut bracket = None;
        for k in 1..=points {
            let f = 10f64.powf(l0 + (l1 - l0) * k as f64 / points as f64);
            let m = mag(f);
            if m.is_nan() {
                return None;
            }
            if m <= target {
                bracket = Some((prev_f, f));
                break;
            }
            prev_f = f;
        }
        let (mut lo, mut hi) = bracket?;
        for _ in 0..60 {
            let mid = (lo.log10() + hi.log10()) / 2.0;
            let fm = 10f64.powf(mid);
            if mag(fm) > target {
                lo = fm;
            } else {
                hi = fm;
            }
        }
        Some((lo * hi).sqrt())
    }

    fn phase_margin(
        ac: &AcAnalysis<'_>,
        out_node: usize,
        unity_hz: f64,
        bw_hz: f64,
    ) -> Result<f64> {
        let f_start = (bw_hz / 10.0).max(1e-2);
        let points = 240;
        let l0 = f_start.log10();
        let l1 = unity_hz.log10();
        let mut prev = ac.transfer(out_node, TAU * f_start)?.arg();
        let dc_phase = ac.transfer(out_node, 0.0)?.arg();
        let mut unwrapped = prev - dc_phase;
        for k in 1..=points {
            let f = 10f64.powf(l0 + (l1 - l0) * k as f64 / points as f64);
            let cur = ac.transfer(out_node, TAU * f)?.arg();
            unwrapped += wrap_phase(cur - prev);
            prev = cur;
        }
        Ok(180.0 + unwrapped.to_degrees())
    }
}
