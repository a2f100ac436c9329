//! The lattice-slicing optimizer against the trilinear one it replaced.
//!
//! `Reference` is the cooling-setting search as it stood before Step 1
//! became one u-bracket per decision: a trilinear band scan over every
//! `(f, T_in)` lattice vertex, a trilinear score per candidate, and a
//! trilinear fallback scan. `CoolingOptimizer::optimize` must return the
//! same `OptimizedSetting`, bit for bit in every field, and count the
//! same decisions, score evaluations and fallback scans — on the paper
//! grid at four safety targets that between them reach every branch,
//! and on a grid whose u-axis stops at 0.5.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_cooling::{
    CoolingOptimizer, OptimizedSetting, DECISIONS_COUNTER, FALLBACK_SCANS_COUNTER,
    SCORE_EVALS_COUNTER,
};
use h2p_hydraulics::Pump;
use h2p_server::{CoolingSetting, LookupSpace, ServerModel};
use h2p_teg::TegModule;
use h2p_telemetry::Registry;
use h2p_units::{Celsius, DegC, LitersPerHour, Utilization};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Evenly spaced control utilizations in the sweep, beyond the
/// u-samples.
const SWEEP: u32 = 20_000;

/// The cold-side temperatures each case is swept at, °C.
const COLDS: [f64; 3] = [15.0, 20.0, 25.0];

fn paper_space() -> &'static LookupSpace {
    static SPACE: OnceLock<LookupSpace> = OnceLock::new();
    SPACE.get_or_init(|| LookupSpace::paper_grid(&ServerModel::paper_default()).unwrap())
}

/// The paper grid cut at u = 0.5: control utilizations above it are
/// off the grid.
fn half_space() -> LookupSpace {
    let paper = paper_space();
    let u_axis: Vec<f64> = paper
        .utilization_axis()
        .iter()
        .copied()
        .filter(|&u| u <= 0.5)
        .collect();
    LookupSpace::build(
        &ServerModel::paper_default(),
        u_axis,
        paper.flow_axis().to_vec(),
        paper.inlet_axis().to_vec(),
    )
    .unwrap()
}

/// The optimizer's search before the lattice slice, kept as written,
/// with its three counters.
struct Reference<'a> {
    space: &'a LookupSpace,
    teg: TegModule,
    pump: Pump,
    t_safe: Celsius,
    tolerance: DegC,
    cold_water: Celsius,
    decisions: Cell<u64>,
    score_evals: Cell<u64>,
    fallback_scans: Cell<u64>,
}

impl Reference<'_> {
    fn safe_settings(&self, u: Utilization) -> Vec<CoolingSetting> {
        let mut out = Vec::new();
        for &f in self.space.flow_axis() {
            for &t in self.space.inlet_axis() {
                let flow = LitersPerHour::new(f);
                let inlet = Celsius::new(t);
                if let Ok(die) = self.space.cpu_temperature(u, flow, inlet) {
                    if (die - self.t_safe).abs() <= self.tolerance {
                        out.push(CoolingSetting { flow, inlet });
                    }
                }
            }
        }
        out
    }

    fn score(
        &self,
        u: Utilization,
        setting: CoolingSetting,
        in_band: bool,
    ) -> Option<OptimizedSetting> {
        let outlet = self
            .space
            .outlet_temperature(u, setting.flow, setting.inlet)
            .ok()?;
        let die = self
            .space
            .cpu_temperature(u, setting.flow, setting.inlet)
            .ok()?;
        let dt = outlet - self.cold_water;
        let teg_power = self.teg.max_power(dt);
        let pump_power = self.pump.power(setting.flow).ok()?;
        Some(OptimizedSetting {
            setting,
            teg_power,
            pump_power,
            net_power: teg_power - pump_power,
            outlet,
            cpu_temperature: die,
            in_band,
        })
    }

    fn optimize(&self, u_control: Utilization) -> Option<OptimizedSetting> {
        self.decisions.set(self.decisions.get() + 1);
        let banded = self.safe_settings(u_control);
        self.score_evals
            .set(self.score_evals.get() + banded.len() as u64);
        let best_banded = banded
            .into_iter()
            .filter_map(|s| self.score(u_control, s, true))
            .filter(|s| s.cpu_temperature <= self.t_safe + self.tolerance)
            .max_by(|a, b| a.net_power.cmp(&b.net_power));
        if let Some(best) = best_banded {
            return Some(best);
        }
        self.fallback_scans.set(self.fallback_scans.get() + 1);
        let lattice = self.space.flow_axis().len() * self.space.inlet_axis().len();
        self.score_evals
            .set(self.score_evals.get() + lattice as u64);
        let mut best_safe: Option<OptimizedSetting> = None;
        let mut coolest: Option<OptimizedSetting> = None;
        for &f in self.space.flow_axis() {
            for &t in self.space.inlet_axis() {
                let setting = CoolingSetting {
                    flow: LitersPerHour::new(f),
                    inlet: Celsius::new(t),
                };
                let Some(scored) = self.score(u_control, setting, false) else {
                    continue;
                };
                if scored.cpu_temperature <= self.t_safe
                    && best_safe
                        .as_ref()
                        .is_none_or(|b| scored.net_power > b.net_power)
                {
                    best_safe = Some(scored);
                }
                if coolest
                    .as_ref()
                    .is_none_or(|c| scored.cpu_temperature < c.cpu_temperature)
                {
                    coolest = Some(scored);
                }
            }
        }
        best_safe.or(coolest)
    }
}

/// Every field of a chosen setting, as bits.
fn bits(chosen: Option<OptimizedSetting>) -> Option<([u64; 7], bool)> {
    chosen.map(|s| {
        (
            [
                s.setting.flow.value().to_bits(),
                s.setting.inlet.value().to_bits(),
                s.teg_power.value().to_bits(),
                s.pump_power.value().to_bits(),
                s.net_power.value().to_bits(),
                s.outlet.value().to_bits(),
                s.cpu_temperature.value().to_bits(),
            ],
            s.in_band,
        )
    })
}

/// What one case's sweep saw, over every cold-side temperature.
struct Sweep {
    t_safe: Celsius,
    decisions: u64,
    fallback_scans: u64,
    chosen: Vec<(Utilization, Option<OptimizedSetting>)>,
}

/// Sweeps `space` at `t_safe` over every u-sample and `SWEEP + 1` evenly
/// spaced control utilizations at each cold-side temperature, asserting
/// the optimizer matches the reference choice by choice and counter by
/// counter.
fn sweep(space: &LookupSpace, t_safe: f64) -> Sweep {
    let us: Vec<Utilization> = (0..=SWEEP)
        .map(|i| f64::from(i) / f64::from(SWEEP))
        .chain(space.utilization_axis().iter().copied())
        .map(|x| Utilization::new(x).unwrap())
        .collect();
    let mut out = Sweep {
        t_safe: Celsius::new(t_safe),
        decisions: 0,
        fallback_scans: 0,
        chosen: Vec::new(),
    };
    for cold in COLDS {
        let (teg, pump) = (TegModule::paper_module(), Pump::paper_tcs_pump());
        let (t_safe, tolerance, cold) = (Celsius::new(t_safe), DegC::new(1.0), Celsius::new(cold));
        let registry = Registry::new();
        let optimizer = CoolingOptimizer::new(space, teg, pump, t_safe, tolerance, cold)
            .unwrap()
            .with_telemetry(&registry);
        let reference = Reference {
            space,
            teg,
            pump,
            t_safe,
            tolerance,
            cold_water: cold,
            decisions: Cell::new(0),
            score_evals: Cell::new(0),
            fallback_scans: Cell::new(0),
        };
        for &u in &us {
            let chosen = optimizer.optimize(u);
            assert_eq!(
                bits(chosen),
                bits(reference.optimize(u)),
                "T_safe {t_safe}, cold {cold}, u {u:?}"
            );
            out.chosen.push((u, chosen));
        }
        let counters: BTreeMap<String, u64> = registry.counters().into_iter().collect();
        assert_eq!(counters[DECISIONS_COUNTER], reference.decisions.get());
        assert_eq!(counters[SCORE_EVALS_COUNTER], reference.score_evals.get());
        assert_eq!(
            counters[FALLBACK_SCANS_COUNTER],
            reference.fallback_scans.get()
        );
        out.decisions += reference.decisions.get();
        out.fallback_scans += reference.fallback_scans.get();
    }
    out
}

#[test]
fn paper_grid_at_62c_stays_in_band() {
    let seen = sweep(paper_space(), 62.0);
    assert_eq!(seen.fallback_scans, 0);
    assert!(seen.chosen.iter().all(|(_, c)| c.unwrap().in_band));
}

#[test]
fn paper_grid_at_95c_falls_back_to_the_best_safe_setting() {
    let seen = sweep(paper_space(), 95.0);
    assert!(seen.fallback_scans > 0);
    assert_eq!(seen.fallback_scans, seen.decisions);
    for (u, chosen) in &seen.chosen {
        let chosen = chosen.unwrap();
        assert!(!chosen.in_band, "u {u:?}");
        assert!(chosen.cpu_temperature <= seen.t_safe, "u {u:?}");
    }
}

#[test]
fn paper_grid_at_15c_falls_back_to_the_coolest_setting() {
    let seen = sweep(paper_space(), 15.0);
    assert!(seen.fallback_scans > 0);
    assert_eq!(seen.fallback_scans, seen.decisions);
    for (u, chosen) in &seen.chosen {
        let chosen = chosen.unwrap();
        assert!(!chosen.in_band, "u {u:?}");
        assert!(chosen.cpu_temperature > seen.t_safe, "u {u:?}");
    }
}

#[test]
fn paper_grid_at_25c_mixes_band_and_fallback() {
    let seen = sweep(paper_space(), 25.0);
    assert!(seen.fallback_scans > 0);
    assert!(seen.fallback_scans < seen.decisions);
    assert!(seen.chosen.iter().any(|(_, c)| c.unwrap().in_band));
}

#[test]
fn grid_ending_at_half_load_has_no_setting_above_it() {
    let space = half_space();
    let seen = sweep(&space, 62.0);
    assert!(seen.fallback_scans > 0);
    let high = Utilization::new(0.8).unwrap();
    assert!(seen
        .chosen
        .iter()
        .filter(|(u, _)| *u == high)
        .all(|(_, c)| c.is_none()));
    for (u, chosen) in &seen.chosen {
        assert_eq!(chosen.is_some(), u.value() <= 0.5, "u {u:?}");
    }
}
