//! Square-law MOSFET model: operating point and small-signal parameters.
//!
//! The op-amp testbench needs device transconductances, output conductances
//! and capacitances as smooth functions of the process parameters that the
//! variation engine perturbs. A long-channel square-law model with a
//! channel-length-modulation term captures exactly those dependencies:
//!
//! * `I_D = ½ k' (W/L) (V_GS − V_th)² (1 + λ V_DS)`
//! * `g_m = √(2 k' (W/L) I_D)`
//! * `g_ds = λ I_D`
//! * `C_gs = ⅔ W L C_ox`, `C_gd = W C_ov`

use crate::{CircuitError, Result};
use serde::{Deserialize, Serialize};

/// MOSFET channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Polarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

/// Technology-level (per-polarity) process parameters.
///
/// Values are representative of the node, not tied to any proprietary PDK.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechnologyParams {
    /// Process transconductance `k' = µ C_ox` in A/V².
    pub kprime: f64,
    /// Threshold voltage magnitude in volts.
    pub vth: f64,
    /// Channel-length modulation λ in 1/V.
    pub lambda: f64,
    /// Gate-oxide capacitance per area in F/m².
    pub cox: f64,
    /// Overlap capacitance per gate width in F/m.
    pub cov: f64,
}

impl TechnologyParams {
    /// Representative 45 nm NMOS parameters.
    pub fn nmos_45nm() -> Self {
        TechnologyParams {
            kprime: 400e-6,
            vth: 0.45,
            lambda: 0.25,
            cox: 12e-3,   // ~12 fF/µm²
            cov: 0.35e-9, // 0.35 fF/µm
        }
    }

    /// Representative 45 nm PMOS parameters.
    pub fn pmos_45nm() -> Self {
        TechnologyParams {
            kprime: 180e-6,
            vth: 0.45,
            lambda: 0.30,
            cox: 12e-3,
            cov: 0.35e-9,
        }
    }
}

/// Geometry of one transistor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Geometry {
    /// Gate width in metres.
    pub w: f64,
    /// Gate length in metres.
    pub l: f64,
}

impl Geometry {
    /// Creates a geometry, validating positivity.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for non-positive dimensions.
    pub fn new(w: f64, l: f64) -> Result<Self> {
        if !(w > 0.0) || !w.is_finite() {
            return Err(CircuitError::InvalidValue {
                what: "gate width",
                value: w,
                constraint: "w > 0",
            });
        }
        if !(l > 0.0) || !l.is_finite() {
            return Err(CircuitError::InvalidValue {
                what: "gate length",
                value: l,
                constraint: "l > 0",
            });
        }
        Ok(Geometry { w, l })
    }

    /// Aspect ratio `W/L`.
    pub fn aspect(&self) -> f64 {
        self.w / self.l
    }

    /// Gate area `W·L` in m².
    pub fn area(&self) -> f64 {
        self.w * self.l
    }
}

/// Per-device process perturbations applied on top of [`TechnologyParams`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeviceVariation {
    /// Additive threshold-voltage shift in volts.
    pub delta_vth: f64,
    /// Relative `k'` deviation (e.g. `0.03` = +3 %).
    pub rel_kprime: f64,
    /// Relative λ deviation.
    pub rel_lambda: f64,
}

/// Small-signal operating-point parameters of one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmallSignal {
    /// Drain current in amperes.
    pub id: f64,
    /// Transconductance in siemens.
    pub gm: f64,
    /// Output conductance in siemens.
    pub gds: f64,
    /// Gate-source capacitance in farads.
    pub cgs: f64,
    /// Gate-drain (overlap/Miller) capacitance in farads.
    pub cgd: f64,
    /// Effective gate overdrive `V_GS − V_th` in volts.
    pub vov: f64,
}

/// A MOSFET instance: polarity + technology + geometry (+ variation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mosfet {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Technology parameters (nominal).
    pub tech: TechnologyParams,
    /// Device geometry.
    pub geometry: Geometry,
}

impl Mosfet {
    /// Creates a device instance.
    pub fn new(polarity: Polarity, tech: TechnologyParams, geometry: Geometry) -> Self {
        Mosfet {
            polarity,
            tech,
            geometry,
        }
    }

    /// Effective process transconductance after variation.
    pub fn kprime_effective(&self, var: &DeviceVariation) -> f64 {
        self.tech.kprime * (1.0 + var.rel_kprime)
    }

    /// Effective channel-length modulation after variation.
    pub fn lambda_effective(&self, var: &DeviceVariation) -> f64 {
        self.tech.lambda * (1.0 + var.rel_lambda)
    }

    /// Small-signal parameters when the device is **current-biased** at
    /// drain current `id` with drain-source voltage `vds` (both magnitudes).
    ///
    /// Current biasing matches how the op-amp devices are set up (currents
    /// are fixed by mirrors; overdrive adapts to process).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BiasFailure`] for a non-positive drain
    /// current or a numerically broken operating point.
    pub fn bias_with_current(
        &self,
        id: f64,
        vds: f64,
        var: &DeviceVariation,
    ) -> Result<SmallSignal> {
        if !(id > 0.0) || !id.is_finite() {
            return Err(CircuitError::BiasFailure {
                reason: format!("drain current must be positive, got {id:.3e}"),
            });
        }
        let kp = self.kprime_effective(var);
        if !(kp > 0.0) {
            return Err(CircuitError::BiasFailure {
                reason: format!("effective k' collapsed to {kp:.3e}"),
            });
        }
        let lambda = self.lambda_effective(var).max(1e-4);
        let aspect = self.geometry.aspect();
        // Invert I_D = ½ k' (W/L) Vov² (1 + λ V_DS) for the overdrive.
        let clm = 1.0 + lambda * vds.max(0.0);
        let vov = (2.0 * id / (kp * aspect * clm)).sqrt();
        let gm = (2.0 * kp * aspect * id * clm).sqrt();
        let gds = lambda * id / clm.max(1.0);
        let cgs = 2.0 / 3.0 * self.geometry.area() * self.tech.cox;
        let cgd = self.geometry.w * self.tech.cov;
        let ss = SmallSignal {
            id,
            gm,
            gds,
            cgs,
            cgd,
            vov,
        };
        if !(ss.gm.is_finite() && ss.gds.is_finite() && ss.vov.is_finite()) {
            return Err(CircuitError::BiasFailure {
                reason: "non-finite small-signal parameters".to_string(),
            });
        }
        Ok(ss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet::new(
            Polarity::Nmos,
            TechnologyParams::nmos_45nm(),
            Geometry::new(10e-6, 0.2e-6).unwrap(),
        )
    }

    #[test]
    fn geometry_validation() {
        assert!(Geometry::new(0.0, 1e-6).is_err());
        assert!(Geometry::new(1e-6, -1.0).is_err());
        assert!(Geometry::new(f64::NAN, 1e-6).is_err());
        let g = Geometry::new(10e-6, 0.5e-6).unwrap();
        assert!((g.aspect() - 20.0).abs() < 1e-12);
        assert!((g.area() - 5e-12).abs() < 1e-24);
    }

    #[test]
    fn square_law_consistency() {
        // gm = 2 I_D / Vov for the square law.
        let m = nmos();
        let var = DeviceVariation::default();
        let ss = m.bias_with_current(100e-6, 0.6, &var).unwrap();
        assert!((ss.gm - 2.0 * ss.id / ss.vov).abs() / ss.gm < 1e-9);
        assert!(ss.gm > 0.0 && ss.gds > 0.0 && ss.vov > 0.0);
        // Output resistance ~ 1/(λ I_D) order.
        assert!(1.0 / ss.gds > 1e4);
    }

    #[test]
    fn gm_scales_with_sqrt_current() {
        let m = nmos();
        let var = DeviceVariation::default();
        let a = m.bias_with_current(50e-6, 0.6, &var).unwrap();
        let b = m.bias_with_current(200e-6, 0.6, &var).unwrap();
        assert!((b.gm / a.gm - 2.0).abs() < 1e-9); // 4× current → 2× gm
    }

    #[test]
    fn kprime_variation_moves_gm() {
        let m = nmos();
        let nom = m
            .bias_with_current(100e-6, 0.6, &DeviceVariation::default())
            .unwrap();
        let fast = m
            .bias_with_current(
                100e-6,
                0.6,
                &DeviceVariation {
                    rel_kprime: 0.2,
                    ..Default::default()
                },
            )
            .unwrap();
        // Same current, higher k' → higher gm, lower overdrive.
        assert!(fast.gm > nom.gm);
        assert!(fast.vov < nom.vov);
    }

    #[test]
    fn bias_rejects_nonpositive_current() {
        let m = nmos();
        assert!(m
            .bias_with_current(0.0, 0.6, &DeviceVariation::default())
            .is_err());
        assert!(m
            .bias_with_current(-1e-6, 0.6, &DeviceVariation::default())
            .is_err());
        // collapsed k'
        assert!(m
            .bias_with_current(
                1e-6,
                0.6,
                &DeviceVariation {
                    rel_kprime: -1.5,
                    ..Default::default()
                }
            )
            .is_err());
    }

    #[test]
    fn capacitances_scale_with_geometry() {
        let tech = TechnologyParams::nmos_45nm();
        let small = Mosfet::new(Polarity::Nmos, tech, Geometry::new(2e-6, 0.1e-6).unwrap());
        let large = Mosfet::new(Polarity::Nmos, tech, Geometry::new(8e-6, 0.1e-6).unwrap());
        let var = DeviceVariation::default();
        let s = small.bias_with_current(10e-6, 0.5, &var).unwrap();
        let l = large.bias_with_current(10e-6, 0.5, &var).unwrap();
        assert!((l.cgs / s.cgs - 4.0).abs() < 1e-9);
        assert!((l.cgd / s.cgd - 4.0).abs() < 1e-9);
    }

    #[test]
    fn technology_presets_are_sane() {
        for t in [TechnologyParams::nmos_45nm(), TechnologyParams::pmos_45nm()] {
            assert!(t.kprime > 0.0 && t.vth > 0.0 && t.lambda > 0.0);
            assert!(t.cox > 0.0 && t.cov > 0.0);
        }
        // PMOS mobility below NMOS.
        assert!(TechnologyParams::pmos_45nm().kprime < TechnologyParams::nmos_45nm().kprime);
    }
}
