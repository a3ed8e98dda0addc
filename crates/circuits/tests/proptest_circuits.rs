//! Property-based tests for the circuit-simulation substrate.

use bmf_circuits::fft::{fft_real, ifft_in_place};
use bmf_circuits::mna::AcAnalysis;
use bmf_circuits::netlist::Netlist;
use proptest::prelude::*;

proptest! {
    /// A passive RC ladder driven by a 1 V source can never show gain:
    /// |H(jω)| ≤ 1 at every node and frequency.
    #[test]
    fn passive_rc_ladder_never_amplifies(
        rs in proptest::collection::vec(10.0..100e3f64, 1..8),
        cs in proptest::collection::vec(1e-15..1e-9f64, 1..8),
        freq in 1.0..1e9f64,
    ) {
        let sections = rs.len().min(cs.len());
        let mut nl = Netlist::new(sections + 2);
        nl.voltage_source(1, 0, 1.0).unwrap();
        for k in 0..sections {
            nl.resistor(k + 1, k + 2, rs[k]).unwrap();
            nl.capacitor(k + 2, 0, cs[k]).unwrap();
        }
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(2.0 * std::f64::consts::PI * freq).unwrap();
        for node in 1..(sections + 2) {
            prop_assert!(sol.voltage(node).abs() <= 1.0 + 1e-9);
        }
    }

    /// AC solutions satisfy KCL at the output node of an RC divider:
    /// the current through R equals the current into C.
    #[test]
    fn rc_divider_kcl_balance(
        r in 10.0..1e6f64,
        c in 1e-15..1e-6f64,
        freq in 1.0..1e9f64,
    ) {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.capacitor(2, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);
        let omega = 2.0 * std::f64::consts::PI * freq;
        let sol = ac.solve(omega).unwrap();
        let v1 = sol.voltage(1);
        let v2 = sol.voltage(2);
        let i_r = (v1 - v2) * bmf_linalg::Complex64::from_re(1.0 / r);
        let i_c = v2 * bmf_linalg::Complex64::new(0.0, omega * c);
        prop_assert!((i_r - i_c).abs() < 1e-9 * i_r.abs().max(1e-12));
    }

    /// FFT → IFFT round-trips arbitrary signals (padded to a power of
    /// two).
    #[test]
    fn fft_round_trip(raw in proptest::collection::vec(-100.0..100.0f64, 4..100)) {
        let n = raw.len().next_power_of_two();
        let mut signal = raw.clone();
        signal.resize(n, 0.0);
        let mut spec = fft_real(&signal).unwrap();
        ifft_in_place(&mut spec).unwrap();
        for (orig, rec) in signal.iter().zip(spec.iter()) {
            prop_assert!((rec.re - orig).abs() < 1e-9);
            prop_assert!(rec.im.abs() < 1e-9);
        }
    }

    /// Parseval holds for arbitrary signals.
    #[test]
    fn fft_parseval(raw in proptest::collection::vec(-10.0..10.0f64, 8..64)) {
        let n = raw.len().next_power_of_two();
        let mut signal = raw.clone();
        signal.resize(n, 0.0);
        let spec = fft_real(&signal).unwrap();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
    }
}
