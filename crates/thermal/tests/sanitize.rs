//! Proof that the physics sanitizer fires: in every debug build a
//! solver that leaves the physical temperature envelope panics instead
//! of silently propagating garbage downstream.

#![cfg(debug_assertions)]
// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use h2p_thermal::network::ThermalNetwork;
use h2p_units::{Celsius, Seconds, Watts};

/// 10 kW into a die with only a weak path to the sink settles far above
/// 150 degC — the steady-state sanitizer must reject it.
#[test]
#[should_panic(expected = "sanitize: steady_state")]
fn steady_state_panics_outside_envelope() {
    let mut net = ThermalNetwork::new();
    let die = net.add_capacitive("die", 40.0, Celsius::new(25.0));
    let sink = net.add_boundary("sink", Celsius::new(25.0));
    net.connect(die, sink, 0.5);
    net.set_heat_input(die, Watts::new(10_000.0));
    let _ = net.steady_state();
}

/// The same runaway input caught mid-transient by the step sanitizer.
#[test]
#[should_panic(expected = "sanitize: step")]
fn step_panics_outside_envelope() {
    let mut net = ThermalNetwork::new();
    let die = net.add_capacitive("die", 40.0, Celsius::new(25.0));
    let sink = net.add_boundary("sink", Celsius::new(25.0));
    net.connect(die, sink, 0.5);
    net.set_heat_input(die, Watts::new(10_000.0));
    for _ in 0..1_000 {
        net.step(Seconds::new(10.0));
    }
}

/// In-envelope operation is untouched by the sanitizer.
#[test]
fn sanitizer_is_silent_in_envelope() {
    let mut net = ThermalNetwork::new();
    let die = net.add_capacitive("die", 40.0, Celsius::new(25.0));
    let sink = net.add_boundary("sink", Celsius::new(25.0));
    net.connect(die, sink, 2.0);
    net.set_heat_input(die, Watts::new(90.0));
    for _ in 0..100 {
        net.step(Seconds::new(5.0));
    }
    let ss = net.steady_state().unwrap();
    assert!(ss.temperature(die).value() < 150.0);
}
