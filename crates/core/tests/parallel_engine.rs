//! Equivalence tests for the parallel simulation engine: sharding the
//! circulations of a control interval across worker threads must be
//! invisible in the results (bit-identical to the sequential path), and
//! the engine's chunked aggregation must match a naive reference built
//! from the public substrate APIs.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_cooling::{CoolingOptimizer, PlantLoad};
use h2p_core::simulation::{SimulationConfig, Simulator, StepRecord};
use h2p_faults::{FaultEvent, FaultKind, FaultPlan, HazardRates};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_server::{ServerModel, ThrottleController};
use h2p_units::{Celsius, DegC, LitersPerHour, Seconds, Utilization, Watts};
use h2p_workload::{ClusterTrace, Trace, TraceGenerator, TraceKind};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// 90 servers over 40-server circulations: two full circulations plus a
/// ragged 10-server tail, the shape most likely to expose merge-order
/// or weighting divergence between the sequential and parallel paths.
fn ragged_cluster(kind: TraceKind) -> ClusterTrace {
    TraceGenerator::paper(kind, 31)
        .with_servers(90)
        .with_steps(12)
        .generate()
}

#[test]
fn parallel_runs_are_bit_identical_to_sequential() {
    let sim = Simulator::paper_default().unwrap();
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let seq = sim
                .clone()
                .with_workers(nz(1))
                .run(&cluster, policy)
                .unwrap();
            for workers in [2usize, 4, 7] {
                let par = sim
                    .clone()
                    .with_workers(nz(workers))
                    .run(&cluster, policy)
                    .unwrap();
                assert_eq!(seq.steps().len(), par.steps().len());
                for (a, b) in seq.steps().iter().zip(par.steps()) {
                    assert_eq!(a, b, "{kind}/{}/{workers} workers", seq.policy());
                }
            }
        }
    }
}

#[test]
fn worker_counts_beyond_circulation_count_are_harmless() {
    // More workers than circulations (and than CPUs): excess lanes idle,
    // results unchanged.
    let sim = Simulator::paper_default().unwrap();
    let cluster = ragged_cluster(TraceKind::Common);
    let seq = sim
        .clone()
        .with_workers(nz(1))
        .run(&cluster, &LoadBalance)
        .unwrap();
    let flooded = sim
        .with_workers(nz(64))
        .run(&cluster, &LoadBalance)
        .unwrap();
    for (a, b) in seq.steps().iter().zip(flooded.steps()) {
        assert_eq!(a, b);
    }
}

/// The zero-fault faulted path must be *bitwise* identical to the
/// plan-free engine for every trace class and scheduling policy — the
/// fault layer is provably invisible when no fault is scheduled.
#[test]
fn zero_fault_plan_is_bitwise_identical_to_plan_free_engine() {
    let sim = Simulator::paper_default().unwrap();
    let plan = FaultPlan::none();
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let plain = sim.run(&cluster, policy).unwrap();
            let faulted = sim.run_with_faults(&cluster, policy, &plan).unwrap();
            assert_eq!(plain.steps().len(), faulted.result.steps().len());
            for (a, b) in plain.steps().iter().zip(faulted.result.steps()) {
                assert_eq!(a, b, "{kind}/{}", plain.policy());
            }
            assert_eq!(faulted.ledger.harvest_delta().value(), 0.0);
            assert_eq!(faulted.ledger.reconciliation_error(), 0.0);
        }
    }
}

/// A mixed explicit fault plan touching every fault class, a partial
/// CDU outage included, sized for the ragged 90-server cluster.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::from_events(
        vec![
            FaultEvent::permanent(
                FaultKind::TegOpenCircuit {
                    server: 3,
                    failed_devices: 4,
                },
                2,
            ),
            FaultEvent::permanent(
                FaultKind::TegOpenCircuit {
                    server: 85,
                    failed_devices: 12,
                },
                0,
            ),
            FaultEvent::windowed(FaultKind::PumpOutage { circulation: 2 }, 3, 9),
            FaultEvent::windowed(
                FaultKind::PumpDegraded {
                    circulation: 0,
                    derate: 0.6,
                },
                1,
                11,
            ),
            FaultEvent::windowed(
                FaultKind::SensorStuck {
                    circulation: 1,
                    reading: Celsius::new(80.0),
                },
                4,
                8,
            ),
            FaultEvent::windowed(
                FaultKind::SensorNoise {
                    circulation: 0,
                    sigma: DegC::new(2.0),
                },
                0,
                12,
            ),
            FaultEvent::windowed(FaultKind::CduOutage { circulation: 1 }, 5, 7),
        ],
        seed,
    )
    .unwrap()
}

/// Sharding a *faulted* run across workers must also be invisible:
/// same seed, same plan → bit-identical records and identical ledgers
/// for every trace class and worker count.
#[test]
fn faulted_runs_are_bit_identical_across_worker_counts() {
    let sim = Simulator::paper_default().unwrap();
    let plan = mixed_plan(42);
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        let seq = sim
            .clone()
            .with_workers(nz(1))
            .run_with_faults(&cluster, &LoadBalance, &plan)
            .unwrap();
        assert!(seq.ledger.harvest_delta().value() > 0.0, "{kind}");
        for workers in [2usize, 4, 8] {
            let par = sim
                .clone()
                .with_workers(nz(workers))
                .run_with_faults(&cluster, &LoadBalance, &plan)
                .unwrap();
            for (a, b) in seq.result.steps().iter().zip(par.result.steps()) {
                assert_eq!(a, b, "{kind}/{workers} workers");
            }
            assert_eq!(seq.ledger, par.ledger, "{kind}/{workers} workers");
        }
    }
}

/// A window of every fault kind on the 7-server circulations of
/// [`small_sim`], each with the circulation it strikes: back-to-back
/// pump windows, a noise window and two windows that run to the
/// horizon.
fn every_kind_windows() -> Vec<(usize, FaultEvent)> {
    vec![
        (
            1,
            FaultEvent::windowed(FaultKind::PumpOutage { circulation: 1 }, 2, 4),
        ),
        (
            1,
            FaultEvent::windowed(
                FaultKind::PumpDegraded {
                    circulation: 1,
                    derate: 0.5,
                },
                4,
                6,
            ),
        ),
        (
            2,
            FaultEvent::windowed(FaultKind::CduOutage { circulation: 2 }, 3, 5),
        ),
        (
            3,
            FaultEvent::windowed(
                FaultKind::SensorNoise {
                    circulation: 3,
                    sigma: DegC::new(1.0),
                },
                5,
                9,
            ),
        ),
        (
            2,
            FaultEvent::windowed(
                FaultKind::SensorStuck {
                    circulation: 2,
                    reading: Celsius::new(80.0),
                },
                10,
                12,
            ),
        ),
        (
            0,
            FaultEvent::permanent(
                FaultKind::TegOpenCircuit {
                    server: 2,
                    failed_devices: 5,
                },
                9,
            ),
        ),
        (
            3,
            FaultEvent::permanent(
                FaultKind::PumpDegraded {
                    circulation: 3,
                    derate: 0.7,
                },
                13,
            ),
        ),
    ]
}

/// The ledger counts exactly the circulation-steps a fault is live on,
/// at any worker count: a window covers `start..end`, back-to-back
/// windows on one circulation count each step once, and a permanent
/// fault counts to the horizon.
#[test]
fn ledger_counts_exactly_the_live_circulation_steps() {
    const CIRCS: usize = 4;
    const STEPS: usize = 16;
    let windows = every_kind_windows();
    let plan = FaultPlan::from_events(windows.iter().map(|(_, w)| *w).collect(), 3).unwrap();
    let live = |circ: usize, step: usize| {
        windows.iter().any(|(c, w)| {
            *c == circ && step >= w.start_step && w.end_step.is_none_or(|end| step < end)
        })
    };
    let live_steps = (0..CIRCS)
        .flat_map(|c| (0..STEPS).map(move |s| (c, s)))
        .filter(|&(c, s)| live(c, s))
        .count();
    assert_eq!(live_steps, 2 + 2 + 2 + 4 + 2 + 7 + 3);
    let cluster = TraceGenerator::paper(TraceKind::Drastic, 3)
        .with_servers(CIRCS * 7)
        .with_steps(STEPS)
        .generate();
    let runs = [1, 3].map(|workers| {
        small_sim()
            .clone()
            .with_workers(nz(workers))
            .run_with_faults(&cluster, &LoadBalance, &plan)
            .unwrap()
    });
    for run in &runs {
        assert_eq!(run.ledger.faulted_circulation_steps(), live_steps as u64);
    }
    assert_eq!(runs[0].result.steps(), runs[1].result.steps());
    assert_eq!(runs[0].ledger, runs[1].ledger);
}

/// Acceptance runs: a hazard-sampled fault plan over the paper's
/// 1,000 servers × 288 steps (Common) and over a 200-server, 24-step
/// Irregular cluster must produce bit-identical results and ledgers
/// with 1 and 8 workers, a zero-fault plan must reproduce the
/// plan-free run bit for bit, and the ledger must reconcile its
/// per-class attribution against the healthy/faulted harvest delta to
/// < 1e-9 relative error.
#[test]
fn paper_scale_faulted_run_is_deterministic_and_reconciles() {
    let sim = Simulator::paper_default().unwrap();
    for (kind, servers, steps) in [
        (TraceKind::Common, 1000, 288),
        (TraceKind::Irregular, 200, 24),
    ] {
        let cluster = TraceGenerator::paper(kind, 20200530)
            .with_servers(servers)
            .with_steps(steps)
            .generate();
        check_faulted_run(&sim, &cluster, &format!("{kind} {servers}x{steps}"));
    }
}

fn check_faulted_run(sim: &Simulator, cluster: &ClusterTrace, what: &str) {
    let circ = sim.config().servers_per_circulation;
    let plan = FaultPlan::from_hazards(
        &HazardRates::accelerated_demo(),
        20200530,
        cluster.servers(),
        circ,
        cluster.steps(),
        cluster.interval(),
    )
    .unwrap();
    assert!(!plan.is_zero(), "{what}: demo hazards must schedule faults");

    let healthy = sim.run(cluster, &LoadBalance).unwrap();
    let zero = sim
        .run_with_faults(cluster, &LoadBalance, &FaultPlan::none())
        .unwrap();
    assert_eq!(
        healthy.steps(),
        zero.result.steps(),
        "{what}: zero-fault plan"
    );

    let one = sim
        .clone()
        .with_workers(nz(1))
        .run_with_faults(cluster, &LoadBalance, &plan)
        .unwrap();
    let eight = sim
        .clone()
        .with_workers(nz(8))
        .run_with_faults(cluster, &LoadBalance, &plan)
        .unwrap();

    assert_eq!(one.result.steps().len(), cluster.steps(), "{what}");
    for (a, b) in one.result.steps().iter().zip(eight.result.steps()) {
        assert_eq!(a, b, "{what}");
    }
    assert_eq!(one.ledger, eight.ledger, "{what}");

    // Ledger reconciliation: per-class attribution telescopes to the
    // healthy-minus-faulted harvest delta.
    assert!(one.ledger.reconciliation_error() < 1e-9, "{what}");
    // And the ledger's healthy world agrees with an independent
    // plan-free run of the same cluster.
    let independent = healthy.total_harvested().value();
    let ledger_healthy = one.ledger.healthy_harvest().value();
    assert!(
        (independent - ledger_healthy).abs() <= independent.abs() * 1e-9,
        "{what}: ledger healthy {ledger_healthy} vs independent {independent}"
    );
    let delta = independent - one.result.total_harvested().value();
    let ledger_delta = one.ledger.harvest_delta().value();
    let scale = delta.abs().max(ledger_delta.abs()).max(1e-30);
    assert!(
        (delta - ledger_delta).abs() / scale < 1e-9,
        "{what}: ledger delta {ledger_delta} vs independent {delta}"
    );
}

/// A simulator with 7-server circulations shared across proptest cases
/// (the lookup-space fit dominates construction cost).
fn small_sim() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| {
        let mut cfg = SimulationConfig::paper_default();
        cfg.servers_per_circulation = 7;
        Simulator::new(&ServerModel::paper_default(), cfg).unwrap()
    })
}

/// A cluster of `servers` servers over 1–4 steps, filled cyclically
/// from `xs`.
fn random_fleet(xs: &[f64], servers: usize) -> ClusterTrace {
    let steps = (xs.len() / servers).clamp(1, 4);
    let interval = Seconds::minutes(5.0);
    let traces: Vec<Trace> = (0..servers)
        .map(|s| {
            let samples: Vec<f64> = (0..steps).map(|t| xs[(s * steps + t) % xs.len()]).collect();
            Trace::new(interval, samples).unwrap()
        })
        .collect();
    ClusterTrace::new(traces).unwrap()
}

/// Controls the cooling on the mean load but leaves every load where
/// it is, so servers above the mean run hotter than their setting was
/// chosen for — the case where a pump fault's throttle cap binds (the
/// paper policies never schedule a load above the control utilization).
struct MeanUnbalanced;

impl SchedulingPolicy for MeanUnbalanced {
    fn name(&self) -> &'static str {
        "mean_unbalanced"
    }

    fn control_utilization(&self, loads: &[Utilization]) -> Utilization {
        Utilization::mean_of(loads)
    }

    fn schedule(&self, loads: &[Utilization]) -> Vec<Utilization> {
        loads.to_vec()
    }
}

/// Checks `records` against a naive reference that walks the public
/// substrate APIs directly — per circulation and step: schedule, pick
/// the optimizer's setting, apply `plan`'s pump fault (the derated
/// flow clamped to the grid's minimum, or that minimum at zero pump
/// power on an outage, with every load capped at the largest safe
/// utilization on the interpolated space), evaluate each server and
/// derate its harvest through the plan's module wiring — with no
/// worker pool and no partial-sum merge. `plan` may carry TEG and pump
/// faults only.
fn check_against_naive_reference(
    sim: &Simulator,
    cluster: &ClusterTrace,
    policy: &dyn SchedulingPolicy,
    plan: &FaultPlan,
    records: &[StepRecord],
) -> Result<(), TestCaseError> {
    let model = ServerModel::paper_default();
    let space = sim.lookup_space();
    let throttle = ThrottleController::new(model.spec().max_operating);
    let min_flow = LitersPerHour::new(space.flow_axis()[0]);
    let servers = cluster.servers();
    let circ_size = sim.config().servers_per_circulation.min(servers);
    let compiled = plan.compile(servers, circ_size, cluster.steps());
    prop_assert_eq!(records.len(), cluster.steps());

    let n = servers as f64;
    for (step, rec) in records.iter().enumerate() {
        let time = Seconds::new(cluster.interval().value() * step as f64);
        let cold = sim.config().cold_source.temperature(time);
        let optimizer = CoolingOptimizer::new(
            space,
            sim.config().module,
            sim.config().pump,
            sim.config().t_safe,
            sim.config().tolerance,
            cold,
        )
        .unwrap();

        let loads = cluster.utilizations_at(step);
        let mut teg = 0.0;
        let mut cpu = 0.0;
        let mut pump = 0.0;
        let mut flow = 0.0;
        let mut inlet = 0.0;
        let mut outlet = 0.0;
        let mut util = 0.0;
        let mut peak = Utilization::IDLE;
        let mut violations = 0usize;
        for (circ, chunk) in loads.chunks(circ_size).enumerate() {
            let u_ctrl = policy.control_utilization(chunk);
            let chosen = optimizer.optimize(u_ctrl).unwrap();
            let active = compiled.active_at(circ, step);
            let at_inlet = chosen.setting.inlet;
            let pump_fault = active
                .as_ref()
                .filter(|faults| faults.pump_out || faults.pump_factor < 1.0);
            let (at_flow, pump_per_server, cap) = match pump_fault {
                None => (
                    chosen.setting.flow,
                    chosen.pump_power.value(),
                    Utilization::FULL,
                ),
                Some(faults) => {
                    let (at_flow, pump_per_server) = if faults.pump_out {
                        (min_flow, 0.0)
                    } else {
                        let derated = LitersPerHour::new(
                            (chosen.setting.flow.value() * faults.pump_factor)
                                .max(min_flow.value()),
                        );
                        (derated, sim.config().pump.power(derated).unwrap().value())
                    };
                    let cap = throttle
                        .max_safe_utilization_in_space(space, at_flow, at_inlet)
                        .unwrap();
                    (at_flow, pump_per_server, cap)
                }
            };
            pump += pump_per_server * chunk.len() as f64;
            flow += at_flow.value() * chunk.len() as f64;
            inlet += at_inlet.value() * chunk.len() as f64;
            for (offset, &u) in policy.schedule(chunk).iter().enumerate() {
                let u = if u > cap { cap } else { u };
                let out = space.outlet_temperature(u, at_flow, at_inlet).unwrap();
                let die = space.cpu_temperature(u, at_flow, at_inlet).unwrap();
                if die > model.spec().max_operating {
                    violations += 1;
                }
                let fraction = active.as_ref().map_or(1.0, |faults| {
                    faults.teg_fraction(offset, compiled.module_wiring())
                });
                teg += sim.config().module.max_power(out - cold).value() * fraction;
                cpu += model.power_model().base_power(u).value();
                outlet += out.value();
                util += u.value();
                peak = peak.max(u);
            }
        }
        let plant = sim.config().plant.power(PlantLoad {
            heat: Watts::new(cpu),
            supply_setpoint: Celsius::new(inlet / n),
            total_flow: LitersPerHour::new(flow),
        });

        prop_assert!((rec.teg_power_per_server.value() - teg / n).abs() < 1e-9);
        prop_assert!((rec.cpu_power_per_server.value() - cpu / n).abs() < 1e-9);
        prop_assert!((rec.pump_power_per_server.value() - pump / n).abs() < 1e-9);
        prop_assert!(
            (rec.cooling_power_per_server.value() - plant.total().value() / n).abs() < 1e-9
        );
        prop_assert!((rec.mean_inlet.value() - inlet / n).abs() < 1e-9);
        prop_assert!((rec.mean_outlet.value() - outlet / n).abs() < 1e-9);
        prop_assert!((rec.mean_utilization.value() - util / n).abs() < 1e-9);
        prop_assert_eq!(rec.peak_utilization, peak);
        prop_assert_eq!(rec.thermal_violations, violations);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // `Simulator::run` must agree with the naive reference.
    #[test]
    fn engine_matches_naive_unchunked_reference(
        xs in proptest::collection::vec(0.0f64..=1.0, 4..=48),
        servers in 1usize..=16,
    ) {
        let sim = small_sim();
        let cluster = random_fleet(&xs, servers);
        let run = sim.run(&cluster, &LoadBalance).unwrap();
        let none = FaultPlan::none();
        check_against_naive_reference(sim, &cluster, &LoadBalance, &none, run.steps())?;
    }

    // The degraded layers against the same reference: a random TEG
    // open-circuit plus a pump derate or outage on the random fleet,
    // under a paper policy or one whose loads exceed the throttle cap.
    #[test]
    fn faulted_engine_matches_naive_reference(
        xs in proptest::collection::vec(0.0f64..=1.0, 4..=48),
        servers in 1usize..=16,
        policy in 0usize..3,
        teg_server in 0usize..16,
        failed_devices in 1usize..=12,
        teg_start in 0usize..4,
        pump_circulation in 0usize..3,
        pump_start in 0usize..4,
        outage in proptest::bool::ANY,
        derate in 0.05f64..0.95,
    ) {
        let sim = small_sim();
        let cluster = random_fleet(&xs, servers);
        let pump = if outage {
            FaultKind::PumpOutage { circulation: pump_circulation }
        } else {
            FaultKind::PumpDegraded { circulation: pump_circulation, derate }
        };
        let plan = FaultPlan::from_events(
            vec![
                FaultEvent::permanent(
                    FaultKind::TegOpenCircuit {
                        server: teg_server % servers,
                        failed_devices,
                    },
                    teg_start,
                ),
                FaultEvent::permanent(pump, pump_start),
            ],
            5,
        )
        .unwrap();
        let policies: [&dyn SchedulingPolicy; 3] = [&LoadBalance, &Original, &MeanUnbalanced];
        let policy = policies[policy];
        let run = sim.run_with_faults(&cluster, policy, &plan).unwrap();
        prop_assert_eq!(run.ledger.offline_circulation_steps(), 0);
        check_against_naive_reference(sim, &cluster, policy, &plan, run.result.steps())?;
    }
}
