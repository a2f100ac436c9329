//! Fault injection as a per-circulation evaluation decorator:
//! [`Simulator::run_with_faults`].
//!
//! The engine's one driver evaluates every circulation-step, and
//! every one goes through this module's decorator on a compiled
//! [`FaultPlan`] (`run` and `run_fleet` compile [`FaultPlan::none`],
//! whose healthy passthrough is the plain evaluation). It applies the plan with **per-circulation
//! fault isolation** (a faulted circulation degrades — it never aborts
//! the run) and **layered attribution**. Every faulted
//! circulation-step is evaluated in four layers:
//!
//! | layer | what changes | harvest |
//! |-------|--------------|---------|
//! | **H** | nothing (the healthy world)                          | `teg_H` |
//! | **S** | the *setting* follows the corrupted sensor reading   | `teg_S` |
//! | **P** | plus the pump derate/outage (clamped flow, throttle) | `teg_P` |
//! | **F** | plus TEG open-circuit failures (the actual output)   | `teg_F` |
//!
//! The per-class deltas `H−S` (sensor), `S−P` (pump) and `P−F` (TEG)
//! telescope to `H−F`, so the [`FaultLedger`]'s per-class attribution
//! reconciles with the total healthy-vs-faulted harvest delta to
//! floating-point round-off (the acceptance bound is 1e-9 relative).
//!
//! The layers share the engine's one per-server evaluator: the step is
//! scheduled once, H is one evaluation, and S is a second one only
//! under a sensor fault — without one, S *is* H (same setting, no cap,
//! derate 1), so `teg_S` is `teg_H`. P and F are one evaluation under
//! the pump fault's throttle cap with [`ActiveFaults::teg_fraction`]
//! as the TEG derate — its pre-derate harvest is `teg_P`, its derated
//! harvest `teg_F`.
//!
//! # Degradation semantics
//!
//! * **Sensor faults** corrupt only the *decision* input: the optimizer
//!   sees the corrupted cold-source reading, the physics keeps the true
//!   one. Die-temperature predictions are independent of the cold
//!   source, so a setting optimized under a wrong-but-plausible reading
//!   is still thermally safe — it just harvests less. An *implausible*
//!   reading (outside the plan's plausibility band, or any reading the
//!   optimizer cannot serve) forces the **clamped fallback setting**:
//!   maximum flow at the coolest grid inlet, the most conservative
//!   point of the paper grid.
//! * **Pump faults** scale the achieved flow (outage → the grid's
//!   minimum, standing in for residual/thermosiphon flow, at zero pump
//!   power). Reduced flow means hotter dies, so the engine re-derives
//!   the largest safe utilization on the *interpolated lookup space*
//!   ([`ThrottleController::max_safe_utilization_in_space`]) and
//!   throttles each server to it — the same space the engine predicts
//!   temperatures from, so an admitted load can never register as a
//!   phantom violation.
//! * **TEG faults** derate each failed server's harvest through the
//!   plan's [`ModuleReliability`] wiring topology (series → zero,
//!   bypass → proportional). Electrical only; no thermal feedback.
//! * If even the degraded evaluation fails, the circulation is
//!   **isolated offline** for that step (zero contribution) and the
//!   whole healthy harvest is attributed to the leading active fault
//!   class. The run continues.
//!
//! # Determinism
//!
//! All fault effects are pure functions of `(plan, circulation, step)`,
//! evaluation stays sharded by circulation, the driver's ordered fold
//! absorbs partials and feeds the [`FaultLedger`] one lane at a time in
//! circulation-index order, and fault transitions are journaled in step
//! order — so runs and
//! journals are bit-identical across worker counts, and a zero-fault
//! plan reproduces the plan-free run bit-for-bit (it *is* the plan-free
//! run: every circulation-step takes the healthy passthrough).

use crate::simulation::{Chunk, CircPartial, Resolved, RunInputs, SimulationResult, Simulator};
use crate::H2pError;
use h2p_faults::{ActiveFaults, CompiledFaults, FaultLedger, FaultPlan};
use h2p_sched::SchedulingPolicy;
use h2p_server::ThrottleController;
use h2p_units::{Celsius, LitersPerHour, Utilization, Watts};
use h2p_workload::ClusterTrace;

/// Result of a fault-injected run: the degraded-world series plus the
/// degradation account.
#[derive(Debug, Clone)]
pub struct FaultedRun {
    /// The run as actually simulated (faults applied).
    pub result: SimulationResult,
    /// Healthy-vs-faulted accounting: per-class harvest attribution,
    /// PUE/ERE deltas, degradation counters.
    pub ledger: FaultLedger,
}

/// The fault side of one circulation-step that a fault touched: the
/// healthy counterfactual and its degradation account. Healthy
/// circulation-steps carry none, so a plan-free run stores nothing but
/// its [`CircPartial`]s.
#[derive(Clone, Copy)]
pub(crate) struct FaultSide {
    /// The counterfactual healthy world — feeds the ledger.
    pub(crate) healthy: CircPartial,
    /// Telescoping harvest deltas of the sensor, pump and TEG classes,
    /// watts.
    pub(crate) attr: [f64; 3],
    /// Server-steps throttled by the pump-fault path.
    pub(crate) throttled: u64,
    /// Whether the clamped fallback setting was forced.
    pub(crate) fallback: bool,
    /// Whether the circulation was isolated offline this step.
    pub(crate) offline: bool,
}

impl Simulator {
    /// Runs a policy over a cluster trace with a fault plan injected.
    ///
    /// A zero-fault plan ([`FaultPlan::none`]) produces a result
    /// bit-identical to [`run`](Simulator::run); any plan produces
    /// bit-identical results across worker counts (see the
    /// [module docs](self)).
    ///
    /// With a telemetry registry attached
    /// ([`with_telemetry`](Simulator::with_telemetry)), every per-class
    /// fault activation and recovery is journaled — one
    /// [`h2p_faults::FAULT_ACTIVATED_EVENT`] /
    /// [`h2p_faults::FAULT_RECOVERED_EVENT`] event per transition,
    /// carrying the class label, circulation, and step.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`run`](Simulator::run) from the
    /// healthy evaluation path. Failures on *degraded* paths never
    /// error: the affected circulation is isolated offline for the
    /// step instead.
    pub fn run_with_faults(
        &self,
        cluster: &ClusterTrace,
        policy: &dyn SchedulingPolicy,
        plan: &FaultPlan,
    ) -> Result<FaultedRun, H2pError> {
        let shape = (cluster.servers(), cluster.steps(), cluster.interval());
        self.drive(shape, std::iter::once(Chunk::Trace(cluster)), policy, plan)
    }

    /// The clamped fallback setting for implausible sensor readings:
    /// maximum flow at the coolest grid inlet — the most conservative
    /// corner of the paper grid, safe for any load.
    fn fallback_setting(&self) -> Resolved {
        let flow = self
            .space
            .flow_axis()
            .last()
            .copied()
            .unwrap_or(LitersPerHour::new(250.0).value());
        let inlet = self
            .space
            .inlet_axis()
            .first()
            .copied()
            .unwrap_or(Celsius::new(20.0).value());
        let flow = LitersPerHour::new(flow);
        let pump_per_server = self
            .config
            .pump
            .power(flow)
            .map(Watts::value)
            .unwrap_or(0.0);
        Resolved {
            flow,
            inlet: Celsius::new(inlet),
            pump_per_server,
        }
    }

    /// One circulation-step: schedule once, evaluate the healthy world
    /// under the optimizer's setting (the whole answer when no fault is
    /// `active`), then the degraded layers, counting each optimizer
    /// solve in `decisions`. Pure in its inputs (every setting is a
    /// fresh, deterministic solve), so safe and deterministic from any
    /// worker thread.
    pub(crate) fn simulate_circulation(
        &self,
        run: &RunInputs<'_>,
        chunk: &[Utilization],
        u_ctrl: Utilization,
        cold: Celsius,
        active: Option<ActiveFaults>,
        decisions: &mut u64,
    ) -> Result<(CircPartial, Option<FaultSide>), H2pError> {
        let scheduled = run.policy.schedule(chunk);
        // Layer H — exactly the plan-free computation (shared code, so
        // a zero-fault plan is bit-identical by construction).
        *decisions += 1;
        let chosen = Resolved::from(&self.solve(u_ctrl, cold)?);
        let (healthy, ..) = self.evaluate(
            &scheduled,
            chosen,
            cold,
            Utilization::FULL,
            |_| 1.0,
            |_, _, _, _| {},
        )?;
        let Some(active) = active else {
            return Ok((healthy, None));
        };
        let offline = |attr: [f64; 3], fallback: bool| {
            let side = FaultSide {
                healthy,
                attr,
                throttled: 0,
                fallback,
                offline: true,
            };
            Ok((CircPartial::ZERO, Some(side)))
        };

        if active.cdu_out {
            // CDU outage: the circulation is isolated offline for the
            // whole window — zero load, zero harvest, zero flow. The
            // entire healthy harvest is attributed to the pump class
            // (the CDU's pump/exchanger subsystem is what failed).
            return offline([0.0, healthy.teg, 0.0], false);
        }

        // Layer S — the setting the controller actually picks, seeing
        // the (possibly corrupted) cold reading; without a sensor fault
        // that is layer H's setting.
        let served = match active.sensor {
            Some(sensor) => {
                let sensed = sensor.corrupt(cold);
                run.compiled
                    .is_plausible(sensed)
                    .then(|| {
                        *decisions += 1;
                        self.solve(u_ctrl, sensed).ok()
                    })
                    .flatten()
                    .map(|chosen| Resolved::from(&chosen))
            }
            None => Some(chosen),
        };
        let fallback = served.is_none();
        let setting_s = served.unwrap_or_else(|| self.fallback_setting());

        match self.degraded_layers(
            &scheduled,
            setting_s,
            healthy.teg,
            &active,
            cold,
            &run.compiled,
        ) {
            Ok((partial, teg_s, teg_p, throttled)) => Ok((
                partial,
                Some(FaultSide {
                    healthy,
                    attr: [healthy.teg - teg_s, teg_s - teg_p, teg_p - partial.teg],
                    throttled,
                    fallback,
                    offline: false,
                }),
            )),
            // Isolation: the degraded path could not be evaluated. The
            // circulation goes offline for this step; the whole healthy
            // harvest is attributed to the leading fault.
            Err(_) if active.sensor.is_some() => offline([healthy.teg, 0.0, 0.0], fallback),
            Err(_) if active.pump_out || active.pump_factor < 1.0 => {
                offline([0.0, healthy.teg, 0.0], fallback)
            }
            Err(_) => offline([0.0, 0.0, healthy.teg], fallback),
        }
    }

    /// Layers S, P and F for one circulation-step: the faulted-world
    /// partial, the layer-S and layer-P harvests (`teg_S`, `teg_P`),
    /// and the throttled server count. Two evaluations under a sensor
    /// fault; one without, when layer S is layer H (same setting, no
    /// cap, derate 1) and `teg_S` is `teg_H`, bit for bit.
    fn degraded_layers(
        &self,
        scheduled: &[Utilization],
        setting_s: Resolved,
        teg_h: f64,
        active: &ActiveFaults,
        cold: Celsius,
        compiled: &CompiledFaults,
    ) -> Result<(CircPartial, f64, f64, u64), H2pError> {
        // Layer S harvest: the corrupted setting, true physics.
        let teg_s = if active.sensor.is_some() {
            let (_, teg_s, _) = self.evaluate(
                scheduled,
                setting_s,
                cold,
                Utilization::FULL,
                |_| 1.0,
                |_, _, _, _| {},
            )?;
            teg_s
        } else {
            teg_h
        };

        // Layer P geometry: derated flow clamped onto the grid, pump
        // power at the *achieved* flow (zero on outage).
        let pump_active = active.pump_out || active.pump_factor < 1.0;
        let (flow, pump_per_server) = if active.pump_out {
            (self.grid_min_flow(), 0.0)
        } else if active.pump_factor < 1.0 {
            let derated = LitersPerHour::new(
                (setting_s.flow.value() * active.pump_factor).max(self.grid_min_flow().value()),
            );
            (derated, self.config.pump.power(derated)?.value())
        } else {
            (setting_s.flow, setting_s.pump_per_server)
        };
        let setting_p = Resolved {
            flow,
            pump_per_server,
            ..setting_s
        };

        // Reduced flow can push dies past the envelope: re-derive the
        // safe cap on the interpolated space and throttle to it. The
        // healthy-flow path skips this — the optimizer's setting is
        // safe by construction, and computing the cap would burn time
        // without changing anything.
        let cap = if pump_active {
            ThrottleController::new(self.max_operating).max_safe_utilization_in_space(
                &self.space,
                setting_p.flow,
                setting_p.inlet,
            )?
        } else {
            Utilization::FULL
        };

        // Layers P and F in one evaluation: the pre-derate harvest is
        // layer P's, the derated one the actual output.
        let wiring = compiled.module_wiring();
        let (partial, teg_p, throttled) = self.evaluate(
            scheduled,
            setting_p,
            cold,
            cap,
            |offset| active.teg_fraction(offset, wiring),
            |_, _, _, _| {},
        )?;
        Ok((partial, teg_s, teg_p, throttled))
    }

    fn grid_min_flow(&self) -> LitersPerHour {
        LitersPerHour::new(
            self.space
                .flow_axis()
                .first()
                .copied()
                .unwrap_or(LitersPerHour::new(20.0).value()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ChunkPlan;
    use h2p_faults::{FaultClass, FaultEvent, FaultKind};
    use h2p_sched::LoadBalance;
    use h2p_units::DegC;
    use h2p_workload::{TraceGenerator, TraceKind};
    use std::num::NonZeroUsize;

    fn cluster() -> ClusterTrace {
        TraceGenerator::paper(TraceKind::Common, 11)
            .with_servers(80)
            .with_steps(24)
            .generate()
    }

    fn sim() -> Simulator {
        Simulator::paper_default().unwrap()
    }

    fn assert_bit_identical(
        a: &crate::simulation::SimulationResult,
        b: &crate::simulation::SimulationResult,
    ) {
        assert_eq!(a.steps().len(), b.steps().len());
        for (x, y) in a.steps().iter().zip(b.steps()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn zero_fault_plan_matches_plan_free_run() {
        let sim = sim();
        let cluster = cluster();
        let plain = sim.run(&cluster, &LoadBalance).unwrap();
        let faulted = sim
            .run_with_faults(&cluster, &LoadBalance, &FaultPlan::none())
            .unwrap();
        assert_bit_identical(&plain, &faulted.result);
        assert_eq!(faulted.ledger.harvest_delta().value(), 0.0);
        assert_eq!(faulted.ledger.reconciliation_error(), 0.0);
        assert_eq!(faulted.ledger.faulted_circulation_steps(), 0);
        // Healthy and faulted worlds agree exactly.
        assert_eq!(
            faulted.ledger.healthy_harvest(),
            faulted.ledger.faulted_harvest()
        );
    }

    #[test]
    fn streamed_faulted_run_matches_the_materialized_one() {
        // 90 servers: circulations of 40, 40 and 10, streamed in one
        // chunk and in three, at one worker and at three.
        let generator = TraceGenerator::paper(TraceKind::Irregular, 5)
            .with_servers(90)
            .with_steps(24);
        let cluster = generator.generate();
        // A fault of every class, each in a different circulation.
        let plan = FaultPlan::from_events(
            vec![
                FaultEvent::windowed(
                    FaultKind::SensorNoise {
                        circulation: 0,
                        sigma: DegC::new(4.0),
                    },
                    2,
                    20,
                ),
                FaultEvent::windowed(FaultKind::PumpOutage { circulation: 1 }, 6, 18),
                FaultEvent::permanent(
                    FaultKind::TegOpenCircuit {
                        server: 85,
                        failed_devices: 6,
                    },
                    4,
                ),
            ],
            3,
        )
        .unwrap();
        let circ = NonZeroUsize::new(40).unwrap();
        for workers in [1, 3] {
            let sim = sim().with_workers(NonZeroUsize::new(workers).unwrap());
            let direct = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
            assert!(
                direct.ledger.faulted_circulation_steps() > 0,
                "the plan must bite"
            );
            for per_chunk in [1, 3] {
                let chunks =
                    ChunkPlan::new(90, circ, NonZeroUsize::new(per_chunk).unwrap()).unwrap();
                let streamed = sim
                    .run_fleet_with_faults(&generator, &LoadBalance, &chunks, &plan)
                    .unwrap();
                assert_bit_identical(&direct.result, &streamed.result);
                assert_eq!(
                    direct.ledger, streamed.ledger,
                    "{workers} workers, {per_chunk} per chunk"
                );
            }
        }
    }

    #[test]
    fn teg_failures_derate_harvest_and_attribute_to_teg_class() {
        let sim = sim();
        let cluster = cluster();
        // Kill 6 of 12 devices on servers 0-9 (circulation 0), bypass
        // wiring -> those modules produce half power.
        let events = (0..10)
            .map(|s| {
                FaultEvent::permanent(
                    FaultKind::TegOpenCircuit {
                        server: s,
                        failed_devices: 6,
                    },
                    0,
                )
            })
            .collect();
        let plan = FaultPlan::from_events(events, 1).unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let ledger = &run.ledger;
        assert!(ledger.harvest_delta().value() > 0.0);
        // All loss on the TEG class; sensor/pump deltas are exactly 0.
        assert_eq!(ledger.class_harvest_delta(FaultClass::Sensor).value(), 0.0);
        assert_eq!(ledger.class_harvest_delta(FaultClass::Pump).value(), 0.0);
        assert!(ledger.reconciliation_error() < 1e-9);
        // Electrical-only fault: IT power unchanged, so the delta is
        // exactly the healthy harvest of 10 half-derated modules.
        let healthy = sim.run(&cluster, &LoadBalance).unwrap();
        let expect = healthy.total_harvested().value();
        let got = ledger.healthy_harvest().value();
        assert!((got - expect).abs() <= expect.abs() * 1e-9);
    }

    #[test]
    fn windowed_fault_is_journaled_without_changing_the_run() {
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::PumpOutage { circulation: 1 },
                6,
                18,
            )],
            2,
        )
        .unwrap();
        let plain = sim()
            .run_with_faults(&cluster, &LoadBalance, &plan)
            .unwrap();

        let registry = h2p_telemetry::Registry::new();
        let observed = sim()
            .with_telemetry(&registry)
            .run_with_faults(&cluster, &LoadBalance, &plan)
            .unwrap();
        assert_bit_identical(&plain.result, &observed.result);

        let journal = registry.journal_events();
        let transitions: Vec<(String, f64)> = journal
            .iter()
            .filter(|e| {
                e.name == h2p_faults::FAULT_ACTIVATED_EVENT
                    || e.name == h2p_faults::FAULT_RECOVERED_EVENT
            })
            .map(|e| {
                assert_eq!(e.field("class").and_then(|v| v.as_str()), Some("pump"));
                assert_eq!(e.field("circulation").and_then(|v| v.as_f64()), Some(1.0));
                (
                    e.name.clone(),
                    e.field("step").and_then(|v| v.as_f64()).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                (h2p_faults::FAULT_ACTIVATED_EVENT.to_owned(), 6.0),
                (h2p_faults::FAULT_RECOVERED_EVENT.to_owned(), 18.0),
            ]
        );
        // Engine spans covered the faulted run too.
        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["engine.runs"], 1);
        assert_eq!(counters["engine.steps"], 24);
    }

    #[test]
    fn pump_outage_degrades_one_circulation_without_aborting() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::PumpOutage { circulation: 1 },
                6,
                18,
            )],
            2,
        )
        .unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let ledger = &run.ledger;
        assert_eq!(ledger.faulted_circulation_steps(), 12);
        assert_eq!(ledger.offline_circulation_steps(), 0, "degrade, not abort");
        // The pump class carries the delta (outage changes flow and
        // therefore outlets; sensors and TEGs are untouched).
        assert_eq!(ledger.class_harvest_delta(FaultClass::Sensor).value(), 0.0);
        assert_eq!(ledger.class_harvest_delta(FaultClass::Teg).value(), 0.0);
        assert!(ledger.reconciliation_error() < 1e-9);
        // Pump energy drops during the outage window.
        assert!(
            ledger.faulted_harvest().value() != ledger.healthy_harvest().value()
                || ledger.harvest_delta().value() == 0.0
        );
        let healthy = sim.run(&cluster, &LoadBalance).unwrap();
        let pump_healthy: f64 = healthy
            .steps()
            .iter()
            .map(|s| s.pump_power_per_server.value())
            .sum();
        let pump_faulted: f64 = run
            .result
            .steps()
            .iter()
            .map(|s| s.pump_power_per_server.value())
            .sum();
        assert!(pump_faulted < pump_healthy, "outage must cut pump power");
    }

    #[test]
    fn implausible_stuck_sensor_forces_fallback() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::SensorStuck {
                    circulation: 0,
                    reading: Celsius::new(99.0), // outside [0, 45]
                },
                0,
                24,
            )],
            3,
        )
        .unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let ledger = &run.ledger;
        assert_eq!(ledger.fallback_steps(), 24);
        assert_eq!(ledger.class_harvest_delta(FaultClass::Pump).value(), 0.0);
        assert_eq!(ledger.class_harvest_delta(FaultClass::Teg).value(), 0.0);
        assert!(ledger.reconciliation_error() < 1e-9);
        // The fallback (max flow, coolest inlet) is thermally safe.
        assert_eq!(run.result.total_violations(), 0);
        // Max-flow fallback draws more pump power than the optimum.
        let healthy = sim.run(&cluster, &LoadBalance).unwrap();
        let pump_healthy: f64 = healthy
            .steps()
            .iter()
            .map(|s| s.pump_power_per_server.value())
            .sum();
        let pump_faulted: f64 = run
            .result
            .steps()
            .iter()
            .map(|s| s.pump_power_per_server.value())
            .sum();
        assert!(pump_faulted > pump_healthy);
    }

    #[test]
    fn plausible_stuck_sensor_shifts_setting_but_stays_safe() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::SensorStuck {
                    circulation: 0,
                    reading: Celsius::new(35.0), // plausible, but 15 °C off
                },
                0,
                24,
            )],
            4,
        )
        .unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        assert_eq!(
            run.ledger.fallback_steps(),
            0,
            "plausible reading is served"
        );
        // Die temperatures are cold-independent, so no violations even
        // under a corrupted decision.
        assert_eq!(run.result.total_violations(), 0);
        assert!(run.ledger.reconciliation_error() < 1e-9);
        assert_eq!(
            run.ledger.class_harvest_delta(FaultClass::Pump).value(),
            0.0
        );
        assert_eq!(run.ledger.class_harvest_delta(FaultClass::Teg).value(), 0.0);
    }

    #[test]
    fn noisy_sensor_is_deterministic_across_repeat_runs() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![FaultEvent::windowed(
                FaultKind::SensorNoise {
                    circulation: 1,
                    sigma: DegC::new(4.0),
                },
                0,
                24,
            )],
            99,
        )
        .unwrap();
        let a = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let b = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        assert_bit_identical(&a.result, &b.result);
        assert_eq!(a.ledger, b.ledger);
        assert!(a.ledger.reconciliation_error() < 1e-9);
    }

    #[test]
    fn combined_fault_classes_reconcile_and_attribute_separately() {
        let sim = sim();
        let cluster = cluster();
        let plan = FaultPlan::from_events(
            vec![
                FaultEvent::permanent(
                    FaultKind::TegOpenCircuit {
                        server: 45,
                        failed_devices: 12,
                    },
                    0,
                ),
                FaultEvent::windowed(
                    FaultKind::PumpDegraded {
                        circulation: 1,
                        derate: 0.4,
                    },
                    4,
                    20,
                ),
                FaultEvent::windowed(
                    FaultKind::SensorStuck {
                        circulation: 0,
                        // Implausible -> clamped fallback (max flow, min
                        // inlet), which shifts outlets and thus harvest.
                        reading: Celsius::new(99.0),
                    },
                    0,
                    12,
                ),
            ],
            17,
        )
        .unwrap();
        let run = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        let ledger = &run.ledger;
        assert!(ledger.reconciliation_error() < 1e-9);
        // Every class carries a non-zero share.
        for class in FaultClass::ALL {
            assert!(
                ledger.class_harvest_delta(class).value().abs() > 0.0,
                "{} delta must be non-zero",
                class.label()
            );
        }
        // Ledger delta agrees with an independently computed healthy
        // run to the acceptance bound.
        let healthy = sim.run(&cluster, &LoadBalance).unwrap();
        let independent = healthy.total_harvested().value() - run.result.total_harvested().value();
        let ledger_delta = ledger.harvest_delta().value();
        let scale = independent.abs().max(ledger_delta.abs()).max(1e-30);
        assert!(
            (independent - ledger_delta).abs() / scale < 1e-9,
            "ledger {ledger_delta} vs independent {independent}"
        );
        // ERE worsens under faults (less harvest).
        assert!(ledger.ere_delta() > 0.0);
    }
}
