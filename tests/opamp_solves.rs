//! The op-amp's measurement cost, counted on the simulator's dominant
//! layer: every MNA AC solve increments the `mna.solves` counter, and one
//! Monte Carlo draw (DC gain, −3 dB bandwidth, unity-gain frequency and
//! phase margin) must stay within a fixed solve budget.
//!
//! Counters are process-global, so this file holds a single test.

use bmf_ams::circuits::monte_carlo::Stage;
use bmf_ams::circuits::opamp::OpAmpTestbench;
use rand::SeedableRng;

/// Draws simulated per stage.
const DRAWS: usize = 250;

/// Solve budget per draw. A fixed 60-step bisection per crossing plus a
/// 240-point phase sweep would cost ~417.
const MAX_SOLVES_PER_DRAW: f64 = 120.0;

#[test]
fn opamp_draw_stays_within_the_solve_budget() {
    bmf_ams::obs::reset();
    bmf_ams::obs::enable();
    let tb = OpAmpTestbench::default_45nm();
    for (stage, seed) in [(Stage::Schematic, 41), (Stage::PostLayout, 42)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let before = bmf_ams::obs::metrics::snapshot().counter("mna.solves");
        let ok = (0..DRAWS)
            .filter(|_| tb.sample_performance(stage, &mut rng).is_ok())
            .count();
        let solves = bmf_ams::obs::metrics::snapshot().counter("mna.solves") - before;
        let per_draw = solves as f64 / DRAWS as f64;
        eprintln!("{stage:?}: {solves} solves over {DRAWS} draws ({ok} ok) = {per_draw:.1}/draw");
        assert!(
            ok >= DRAWS * 99 / 100,
            "{stage:?}: only {ok} draws succeeded"
        );
        assert!(
            per_draw <= MAX_SOLVES_PER_DRAW,
            "{stage:?}: {per_draw:.1} solves per draw > {MAX_SOLVES_PER_DRAW}"
        );
    }
    bmf_ams::obs::reset();
}
