//! Lent and owned optimizer tables choose the same settings.
//!
//! `Simulator::optimizer(cold)` lends every decision the simulator's
//! band index, pump prices and optimizer counters, built and resolved
//! once; `CoolingOptimizer::new` builds tables of its own. Over a sweep
//! of control utilization × cold-side temperature, at the paper's
//! configuration and at a 25 °C ± 0.5 °C band that only light loads
//! reach (so the fallback scan runs too), both must return the
//! same `OptimizedSetting`, bit for bit in every field, and count the
//! same decisions, score evaluations and fallback scans.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use h2p_cooling::{
    CoolingOptimizer, OptimizedSetting, DECISIONS_COUNTER, FALLBACK_SCANS_COUNTER,
    SCORE_EVALS_COUNTER,
};
use h2p_core::simulation::{SimulationConfig, Simulator};
use h2p_server::ServerModel;
use h2p_telemetry::Registry;
use h2p_units::{Celsius, DegC, Utilization};
use std::collections::BTreeMap;

/// Evenly spaced control utilizations in the sweep, beyond the
/// u-samples.
const SWEEP: u32 = 2_000;

/// Cold-side temperatures of the sweep, °C.
const COLDS: [f64; 5] = [12.0, 15.5, 20.0, 22.3, 27.0];

fn bits(chosen: Option<OptimizedSetting>) -> Option<([u64; 7], bool)> {
    chosen.map(|s| {
        (
            [
                s.setting.flow.value(),
                s.setting.inlet.value(),
                s.teg_power.value(),
                s.pump_power.value(),
                s.net_power.value(),
                s.outlet.value(),
                s.cpu_temperature.value(),
            ]
            .map(f64::to_bits),
            s.in_band,
        )
    })
}

fn counters(registry: &Registry) -> [u64; 3] {
    let all: BTreeMap<String, u64> = registry.counters().into_iter().collect();
    [
        DECISIONS_COUNTER,
        SCORE_EVALS_COUNTER,
        FALLBACK_SCANS_COUNTER,
    ]
    .map(|name| all.get(name).copied().unwrap_or(0))
}

/// Sweeps a simulator built with `config` and returns how many
/// decisions fell back.
fn sweep(config: SimulationConfig) -> u64 {
    let lent_registry = Registry::new();
    let sim = Simulator::new(&ServerModel::paper_default(), config.clone())
        .unwrap()
        .with_telemetry(&lent_registry);
    let owned_registry = Registry::new();
    let us: Vec<Utilization> = (0..=SWEEP)
        .map(|i| f64::from(i) / f64::from(SWEEP))
        .chain(sim.lookup_space().utilization_axis().iter().copied())
        .map(|x| Utilization::new(x).unwrap())
        .collect();
    for cold in COLDS.map(Celsius::new) {
        let owned = CoolingOptimizer::new(
            sim.lookup_space(),
            config.module,
            config.pump,
            config.t_safe,
            config.tolerance,
            cold,
        )
        .unwrap()
        .with_telemetry(&owned_registry);
        for &u in &us {
            let lent = sim.optimizer(cold).optimize(u);
            assert_eq!(
                bits(lent),
                bits(owned.optimize(u)),
                "T_safe {}, cold {cold}, u {u:?}",
                config.t_safe
            );
        }
    }
    let seen = counters(&lent_registry);
    assert_eq!(seen, counters(&owned_registry));
    assert_eq!(seen[0], (us.len() * COLDS.len()) as u64);
    seen[2]
}

#[test]
fn lent_and_owned_tables_agree_at_the_paper_band() {
    assert_eq!(sweep(SimulationConfig::paper_default()), 0);
}

#[test]
fn lent_and_owned_tables_agree_where_the_band_empties() {
    let config = SimulationConfig {
        t_safe: Celsius::new(25.0),
        tolerance: DegC::new(0.5),
        ..SimulationConfig::paper_default()
    };
    let fallbacks = sweep(config);
    assert!(fallbacks > 0, "the sweep must reach the fallback scan");
    assert!(
        fallbacks < u64::from(SWEEP) * COLDS.len() as u64,
        "and the band"
    );
}
