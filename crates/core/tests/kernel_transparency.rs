//! The kernel transparency contract (DESIGN.md §13): at tolerance 0
//! the change-detection kernel must be **bit-identical** to a dense
//! run — for every trace class, scheduling policy and worker count, on
//! the plan-free *and* the fault-injected engine — and its
//! evaluated/held accounting must reconcile exactly with the trace's
//! change points.
//!
//! The dense run (`Simulator::run` without a kernel) is the oracle.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]

use h2p_core::kernel::KernelTolerance;
use h2p_core::simulation::{SimulationConfig, SimulationResult, Simulator};
use h2p_faults::{FaultEvent, FaultKind, FaultPlan};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_server::ServerModel;
use h2p_telemetry::Registry;
use h2p_units::{Celsius, DegC, Seconds};
use h2p_workload::{ClusterTrace, Trace, TraceGenerator, TraceKind};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

const WORKERS: [usize; 3] = [1, 2, 5];

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// 90 servers over 40-server circulations: two full circulations plus
/// a ragged 10-server tail (the shape most likely to expose chunk
/// misalignment between classification and evaluation).
fn ragged_cluster(kind: TraceKind) -> ClusterTrace {
    TraceGenerator::paper(kind, 31)
        .with_servers(90)
        .with_steps(12)
        .generate()
}

fn assert_bit_identical(a: &SimulationResult, b: &SimulationResult, what: &str) {
    assert_eq!(a.steps().len(), b.steps().len(), "{what}: step count");
    for (i, (x, y)) in a.steps().iter().zip(b.steps()).enumerate() {
        assert_eq!(x, y, "{what}: step {i} diverged");
    }
}

/// A mixed plan touching every fault class including the CDU outage,
/// sized for the ragged 90-server cluster.
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

/// Tolerance 0 must reproduce the dense oracle bit-for-bit: every
/// trace class × both paper policies × {1, 2, 5} workers.
#[test]
fn exact_kernel_is_bit_identical_to_dense_oracle() {
    let sim = Simulator::paper_default().unwrap();
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let dense = sim.run(&cluster, policy).unwrap();
            for workers in WORKERS {
                let kernel = sim
                    .clone()
                    .with_workers(nz(workers))
                    .with_kernel_tolerance(KernelTolerance::exact())
                    .run(&cluster, policy)
                    .unwrap();
                assert_bit_identical(
                    &dense,
                    &kernel,
                    &format!("{kind}/{}/{workers} workers", dense.policy()),
                );
            }
        }
    }
}

/// The same contract through the fault-injected engine: records *and*
/// attribution ledger must match the kernel-free faulted run exactly,
/// across worker counts, with every fault class active.
#[test]
fn exact_kernel_is_bit_identical_on_faulted_runs() {
    let sim = Simulator::paper_default().unwrap();
    let plan = mixed_plan(42);
    for kind in TraceKind::all() {
        let cluster = ragged_cluster(kind);
        let dense = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
        for workers in WORKERS {
            let kernel = sim
                .clone()
                .with_workers(nz(workers))
                .with_kernel_tolerance(KernelTolerance::exact())
                .run_with_faults(&cluster, &LoadBalance, &plan)
                .unwrap();
            assert_bit_identical(
                &dense.result,
                &kernel.result,
                &format!("faulted/{kind}/{workers} workers"),
            );
            assert_eq!(dense.ledger, kernel.ledger, "{kind}/{workers} workers");
        }
    }
}

/// Zero-fault plans stay transparent under the kernel too: the faulted
/// entry point with `FaultPlan::none()` must reproduce the plan-free
/// kernel run bit-for-bit (no fault is ever live, so nothing forces).
#[test]
fn exact_kernel_zero_fault_plan_matches_plan_free_kernel() {
    let sim = Simulator::paper_default()
        .unwrap()
        .with_kernel_tolerance(KernelTolerance::exact());
    let plan = FaultPlan::none();
    let cluster = ragged_cluster(TraceKind::Irregular);
    let plain = sim.run(&cluster, &LoadBalance).unwrap();
    let faulted = sim.run_with_faults(&cluster, &LoadBalance, &plan).unwrap();
    assert_bit_identical(&plain, &faulted.result, "zero-fault kernel");
    assert_eq!(faulted.ledger.harvest_delta().value(), 0.0);
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
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

/// Builds a cluster from a flat utilization vector (column-major:
/// server-striped over `steps` samples each).
fn cluster_from(xs: &[f64], servers: usize, steps: usize) -> ClusterTrace {
    let interval = Seconds::minutes(5.0);
    let traces: Vec<Trace> = (0..servers)
        .map(|s| {
            let samples: Vec<f64> = (0..steps).map(|t| xs[(s * steps + t) % xs.len()]).collect();
            Trace::new(interval, samples).unwrap()
        })
        .collect();
    ClusterTrace::new(traces).unwrap()
}

/// Independently counts the circulation-steps an exact kernel must
/// evaluate: step 0 for every circulation, plus every step whose load
/// chunk (or cold-source temperature) is not bitwise identical to the
/// previous step's. At tolerance 0 the held anchor always equals the
/// previous step's chunk, so this is exact, not an estimate.
fn exact_change_points(sim: &Simulator, cluster: &ClusterTrace, circ_size: usize) -> u64 {
    let servers = cluster.servers();
    let n_circs = servers.div_ceil(circ_size);
    let interval = cluster.interval();
    let mut evaluations = 0u64;
    let mut prev: Vec<Vec<u64>> = vec![Vec::new(); n_circs];
    let mut prev_cold: Option<u64> = None;
    for step in 0..cluster.steps() {
        let time = Seconds::new(interval.value() * step as f64);
        let cold = sim.config().cold_source.temperature(time).value().to_bits();
        let cold_changed = prev_cold != Some(cold);
        prev_cold = Some(cold);
        let loads = cluster.utilizations_at(step);
        for (circ, chunk) in loads.chunks(circ_size).enumerate() {
            let bits: Vec<u64> = chunk.iter().map(|u| u.value().to_bits()).collect();
            if cold_changed || prev[circ] != bits {
                evaluations += 1;
                prev[circ] = bits;
            }
        }
    }
    evaluations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Kernel transparency as a property: for random utilization
    // matrices and any worker count, tolerance 0 reproduces the dense
    // oracle bit-for-bit, and the telemetry counters reconcile exactly
    // with independently computed trace change points.
    #[test]
    fn exact_kernel_transparency_and_accounting_hold_for_random_traces(
        xs in proptest::collection::vec(0.0f64..=1.0, 8..=64),
        servers in 8usize..=20,
        steps in 2usize..=6,
        workers in 1usize..=5,
        repeat_mask in 0u8..=255,
    ) {
        let mut xs = xs;
        // Inject plateaus so holds actually occur: repeat the previous
        // sample wherever the mask bit is set.
        for i in 1..xs.len() {
            if repeat_mask & (1 << (i % 8)) != 0 {
                xs[i] = xs[i - 1];
            }
        }
        let cluster = cluster_from(&xs, servers, steps);
        let sim = small_sim();
        let dense = sim.run(&cluster, &LoadBalance).unwrap();

        let registry = Registry::new();
        let kernel_run = sim
            .clone()
            .with_workers(nz(workers))
            .with_kernel_tolerance(KernelTolerance::exact())
            .with_telemetry(&registry)
            .run(&cluster, &LoadBalance)
            .unwrap();

        prop_assert_eq!(dense.steps().len(), kernel_run.steps().len());
        for (a, b) in dense.steps().iter().zip(kernel_run.steps()) {
            prop_assert_eq!(a, b);
        }

        // Accounting: evaluated + held covers every circulation-step,
        // and evaluated equals the independent change-point count.
        let evaluated = counter(&registry, "engine.circulations_evaluated");
        let held = counter(&registry, "engine.circulations_held");
        let n_circs = servers.div_ceil(7) as u64;
        prop_assert_eq!(evaluated + held, n_circs * steps as u64);
        let expected = exact_change_points(sim, &cluster, 7);
        prop_assert_eq!(evaluated, expected);
    }

    // Any valid tolerance keeps the accounting exhaustive and the
    // result close: every circulation-step is either evaluated or
    // held, and the headline average drifts by at most a few percent
    // at engineering tolerances.
    #[test]
    fn tolerant_kernel_accounts_for_every_circulation_step(
        xs in proptest::collection::vec(0.0f64..=1.0, 8..=64),
        servers in 8usize..=20,
        steps in 2usize..=6,
        tol_u in 0.0f64..=0.05,
        tol_c in 0.0f64..=0.5,
    ) {
        let cluster = cluster_from(&xs, servers, steps);
        let sim = small_sim();
        let registry = Registry::new();
        let tolerance = KernelTolerance::new(tol_u, tol_c).unwrap();
        let run = sim
            .clone()
            .with_kernel_tolerance(tolerance)
            .with_telemetry(&registry)
            .run(&cluster, &LoadBalance)
            .unwrap();
        prop_assert_eq!(run.steps().len(), steps);

        let evaluated = counter(&registry, "engine.circulations_evaluated");
        let held = counter(&registry, "engine.circulations_held");
        let n_circs = servers.div_ceil(7) as u64;
        prop_assert_eq!(evaluated + held, n_circs * steps as u64);
        // The first step can never hold (nothing is anchored yet).
        prop_assert!(evaluated >= n_circs);
    }
}

/// Accuracy sanity at the production tolerance: on the paper's Common
/// trace, tolerance 0.01 must hold a meaningful share of evaluations
/// while keeping the headline average-TEG-power figure within 5 % of
/// the dense oracle.
#[test]
fn tolerant_kernel_trades_bounded_accuracy_for_held_evaluations() {
    let sim = Simulator::paper_default().unwrap();
    let cluster = TraceGenerator::paper(TraceKind::Common, 7)
        .with_servers(200)
        .with_steps(48)
        .generate();
    let dense = sim.run(&cluster, &LoadBalance).unwrap();

    let registry = Registry::new();
    let tolerant = sim
        .clone()
        .with_kernel_tolerance(KernelTolerance::uniform(0.01).unwrap())
        .with_telemetry(&registry)
        .run(&cluster, &LoadBalance)
        .unwrap();

    let held = counter(&registry, "engine.circulations_held");
    assert!(held > 0, "tolerance 0.01 must hold some evaluations");

    let a = dense.average_teg_power().unwrap().value();
    let b = tolerant.average_teg_power().unwrap().value();
    let rel = (a - b).abs() / a;
    assert!(rel < 0.05, "accuracy delta {rel} out of band");
}

/// The kernel configuration surface: `with_kernel_tolerance` /
/// `without_kernel` round-trip, and invalid tolerances are typed
/// errors, not panics.
#[test]
fn kernel_configuration_round_trips() {
    let sim = Simulator::paper_default().unwrap();
    assert!(sim.kernel_tolerance().is_none());
    let tol = KernelTolerance::new(0.01, 0.25).unwrap();
    let on = sim.clone().with_kernel_tolerance(tol);
    assert_eq!(on.kernel_tolerance(), Some(tol));
    assert!(on.without_kernel().kernel_tolerance().is_none());

    assert!(KernelTolerance::new(-0.01, 0.0).is_err());
    assert!(KernelTolerance::new(0.0, f64::NAN).is_err());
    assert!(KernelTolerance::uniform(f64::INFINITY).is_err());
    assert!(KernelTolerance::exact().is_exact());
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

/// The kernel's accounting around fault windows, seen from the engine:
/// under loads that stand still an exact kernel holds every healthy
/// step after the first, so a circulation evaluates exactly at step 0,
/// on each step a fault is live on it, and on the first step after
/// each window (a faulted evaluation is never held, so nothing is left
/// to replay there). Which circulation-steps evaluated is read from
/// the `engine.circulations_evaluated` counter of runs over every
/// prefix of circulations and steps: a lane's classification depends
/// only on its own circulation and the steps so far, so the counters
/// difference into one 0/1 per circulation-step.
#[test]
fn kernel_evaluates_on_live_faults_and_first_steps_after_windows() {
    const CIRCS: usize = 4;
    const STEPS: usize = 16;
    let sim = small_sim();
    let windows = every_kind_windows();
    let plan = FaultPlan::from_events(windows.iter().map(|(_, w)| *w).collect(), 3).unwrap();
    let live = |circ: usize, step: usize| {
        windows.iter().any(|(c, w)| {
            *c == circ && step >= w.start_step && w.end_step.is_none_or(|end| step < end)
        })
    };
    let standing = |circs: usize, steps: usize| {
        let xs: Vec<f64> = (0..circs * 7)
            .flat_map(|s| std::iter::repeat_n(0.15 + 0.1 * (s % 7) as f64, steps))
            .collect();
        cluster_from(&xs, circs * 7, steps)
    };
    let dense = sim
        .run_with_faults(&standing(CIRCS, STEPS), &LoadBalance, &plan)
        .unwrap();

    for tolerance in [
        KernelTolerance::exact(),
        KernelTolerance::uniform(0.01).unwrap(),
    ] {
        let kernel = sim.clone().with_kernel_tolerance(tolerance);
        let run = |circs: usize, steps: usize| {
            let registry = Registry::new();
            let run = kernel
                .clone()
                .with_telemetry(&registry)
                .run_with_faults(&standing(circs, steps), &LoadBalance, &plan)
                .unwrap();
            let evaluated = counter(&registry, "engine.circulations_evaluated");
            (
                run,
                evaluated,
                counter(&registry, "engine.circulations_held"),
            )
        };
        let evaluated: Vec<Vec<u64>> = (0..=CIRCS)
            .map(|c| {
                (0..=STEPS)
                    .map(|s| if c == 0 || s == 0 { 0 } else { run(c, s).1 })
                    .collect()
            })
            .collect();

        let mut live_evaluated = 0;
        for circ in 0..CIRCS {
            for step in 0..STEPS {
                let e = evaluated[circ + 1][step + 1] + evaluated[circ][step]
                    - evaluated[circ][step + 1]
                    - evaluated[circ + 1][step];
                let expected = step == 0 || live(circ, step) || live(circ, step - 1);
                assert_eq!(
                    e,
                    u64::from(expected),
                    "{tolerance:?}: circulation {circ}, step {step}"
                );
                if live(circ, step) {
                    live_evaluated += e;
                }
            }
        }

        // Loads stand still, so a hold replays the very partial an
        // evaluation would compute: every kernel matches dense here.
        let (full, evaluated, held) = run(CIRCS, STEPS);
        assert_bit_identical(&dense.result, &full.result, &format!("{tolerance:?}"));
        assert_eq!(dense.ledger, full.ledger, "{tolerance:?}");
        assert_eq!(evaluated + held, (CIRCS * STEPS) as u64, "{tolerance:?}");
        assert_eq!(live_evaluated, full.ledger.faulted_circulation_steps());
        let live_steps = (0..CIRCS)
            .flat_map(|c| (0..STEPS).map(move |s| (c, s)))
            .filter(|&(c, s)| live(c, s))
            .count();
        assert_eq!(live_evaluated, live_steps as u64, "{tolerance:?}");
    }
}
