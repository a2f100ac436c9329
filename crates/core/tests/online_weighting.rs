//! Regression tests for an aggregation bugfix: the step fold
//! used to divide the inlet-temperature sum by the *total* server
//! count even when faulted circulations were isolated offline and
//! contributed nothing, dragging the supply setpoint toward 0 °C and
//! mis-pricing chiller energy under heavy faults. The setpoint now
//! averages over online servers only, exercised end-to-end through
//! `run_with_faults` and the `CduOutage` fault class.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_core::simulation::Simulator;
use h2p_faults::{FaultEvent, FaultKind, FaultPlan};
use h2p_sched::LoadBalance;
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};

// End-exclusive, matching `FaultEvent::windowed` semantics.
const OUTAGE: (usize, usize) = (4, 8);

fn cluster(servers: usize) -> ClusterTrace {
    TraceGenerator::paper(TraceKind::Common, 17)
        .with_servers(servers)
        .with_steps(12)
        .generate()
}

fn outage_plan(circulation: usize) -> FaultPlan {
    FaultPlan::from_events(
        vec![FaultEvent::windowed(
            FaultKind::CduOutage { circulation },
            OUTAGE.0,
            OUTAGE.1,
        )],
        5,
    )
    .unwrap()
}

/// With one of two 40-server circulations isolated offline, the supply
/// setpoint must track the surviving circulation's inlet (which stays
/// in the warm-water band), not the cluster-wide average that the old
/// `inlet_sum / servers` arithmetic produced (≈ half the true value).
#[test]
fn offline_circulations_do_not_drag_the_supply_setpoint() {
    let sim = Simulator::paper_default().unwrap();
    let c = cluster(80); // two 40-server circulations
    let healthy = sim.run(&c, &LoadBalance).unwrap();
    let faulted = sim
        .run_with_faults(&c, &LoadBalance, &outage_plan(1))
        .unwrap();

    for (step, (h, f)) in healthy
        .steps()
        .iter()
        .zip(faulted.result.steps())
        .enumerate()
    {
        if (OUTAGE.0..OUTAGE.1).contains(&step) {
            // Under LoadBalance both circulations run near the same
            // setting, so the online-weighted mean must stay close to
            // the healthy mean. The pre-fix arithmetic halved it.
            let ratio = f.mean_inlet.value() / h.mean_inlet.value();
            assert!(
                (0.8..=1.2).contains(&ratio),
                "step {step}: faulted inlet {} vs healthy {} (ratio {ratio})",
                f.mean_inlet.value(),
                h.mean_inlet.value()
            );
            // The offline circulation really is gone: per-server TEG
            // and CPU power drop by roughly half.
            assert!(f.teg_power_per_server.value() < 0.6 * h.teg_power_per_server.value());
            assert!(f.cpu_power_per_server.value() < 0.6 * h.cpu_power_per_server.value());
        } else {
            assert_eq!(h, f, "step {step}: outside the window, bit-identical");
        }
    }

    // The ledger saw the isolation and attributes it to the pump class
    // (the CDU circulator is the failed part).
    assert!(faulted.ledger.harvest_delta().value() > 0.0);
}

/// With *every* circulation offline there is no supply water to set at
/// all; the setpoint parks at the inert `t_safe` placeholder instead
/// of collapsing to 0 °C (heat and flow are zero, so no plant power is
/// priced off it either).
#[test]
fn fully_offline_steps_park_the_setpoint_at_t_safe() {
    let sim = Simulator::paper_default().unwrap();
    let c = cluster(40); // a single 40-server circulation
    let faulted = sim
        .run_with_faults(&c, &LoadBalance, &outage_plan(0))
        .unwrap();
    let t_safe = sim.config().t_safe.value();

    for (step, f) in faulted.result.steps().iter().enumerate() {
        if (OUTAGE.0..OUTAGE.1).contains(&step) {
            assert_eq!(f.mean_inlet.value(), t_safe, "step {step}");
            assert_eq!(f.teg_power_per_server.value(), 0.0, "step {step}");
            assert_eq!(f.cpu_power_per_server.value(), 0.0, "step {step}");
            assert_eq!(f.cooling_power_per_server.value(), 0.0, "step {step}");
        } else {
            assert!(f.teg_power_per_server.value() > 0.0, "step {step}");
        }
    }
}
