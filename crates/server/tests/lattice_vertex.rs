//! The lattice-vertex query equals the trilinear query to the bit.
//!
//! On random grids built from the paper's server model, at random
//! utilizations and at every u-sample, every `(f, T_in)` lattice vertex
//! read through `plane` + `lattice_point` + `temperatures_at` must give
//! exactly the bits of `outlet_temperature` / `cpu_temperature`, and
//! `plane` must fail exactly when they do, with the same error.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_server::{CoolingSetting, LookupSpace, ServerModel};
use h2p_units::{Celsius, DegC, LitersPerHour, Utilization};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;

fn model() -> &'static ServerModel {
    static MODEL: OnceLock<ServerModel> = OnceLock::new();
    MODEL.get_or_init(ServerModel::paper_default)
}

/// Strictly increasing samples from `start` by `gaps`.
fn axis(start: f64, gaps: &[f64]) -> Vec<f64> {
    let mut samples = vec![start];
    for gap in gaps {
        let next = samples[samples.len() - 1] + gap;
        samples.push(next);
    }
    samples
}

/// Utilization samples spread over `[lo, hi]` in proportion to
/// `gaps`, ending at `hi` exactly.
fn u_axis(lo: f64, hi: f64, gaps: &[f64]) -> Vec<f64> {
    let total: f64 = gaps.iter().sum();
    let mut samples = vec![lo];
    let mut run = 0.0;
    for gap in &gaps[..gaps.len() - 1] {
        run += gap;
        samples.push(lo + (hi - lo) * run / total);
    }
    samples.push(hi);
    samples
}

fn setting(flow: f64, inlet: f64) -> CoolingSetting {
    CoolingSetting {
        flow: LitersPerHour::new(flow),
        inlet: Celsius::new(inlet),
    }
}

/// Asserts the vertex path matches the trilinear path at `u` for every
/// lattice vertex, bit for bit, including identical errors.
fn check_plane(space: &LookupSpace, u: Utilization) -> Result<(), TestCaseError> {
    let plane = space.plane(u);
    for (point, s) in space.lattice() {
        prop_assert_eq!(space.lattice_point(s), Some(point));
        let outlet = space.outlet_temperature(u, s.flow, s.inlet);
        let die = space.cpu_temperature(u, s.flow, s.inlet);
        match (&plane, outlet, die) {
            (Ok(plane), Ok(outlet), Ok(die)) => {
                let (v_outlet, v_die) = space.temperatures_at(*plane, point);
                prop_assert_eq!(
                    v_outlet.value().to_bits(),
                    outlet.value().to_bits(),
                    "outlet at u={:?} {:?}: {} vs {}",
                    u,
                    s,
                    v_outlet,
                    outlet
                );
                prop_assert_eq!(
                    v_die.value().to_bits(),
                    die.value().to_bits(),
                    "die at u={:?} {:?}: {} vs {}",
                    u,
                    s,
                    v_die,
                    die
                );
            }
            (Err(e), Err(outlet_err), Err(die_err)) => {
                prop_assert_eq!(e, &outlet_err);
                prop_assert_eq!(e, &die_err);
            }
            (plane, outlet, die) => {
                return Err(TestCaseError::fail(format!(
                    "paths disagree at u={u:?} {s:?}: {plane:?} / {outlet:?} / {die:?}"
                )));
            }
        }
    }
    Ok(())
}

/// The band test, written against the trilinear queries.
fn trilinear_band(
    space: &LookupSpace,
    u: Utilization,
    t_safe: Celsius,
    tolerance: DegC,
) -> Vec<CoolingSetting> {
    let mut out = Vec::new();
    for &f in space.flow_axis() {
        for &t in space.inlet_axis() {
            let s = setting(f, t);
            if let Ok(die) = space.cpu_temperature(u, s.flow, s.inlet) {
                if (die - t_safe).abs() <= tolerance {
                    out.push(s);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vertex_query_is_the_trilinear_query_to_the_bit(
        u_ends in (prop_oneof![Just(0.0), 0.0..0.3f64], prop_oneof![Just(1.0), 0.6..1.0f64]),
        u_gaps in vec(0.2..1.0f64, 2..=5),
        f_gaps in (20.0..40.0f64, vec(5.0..60.0f64, 2..=5)),
        t_gaps in (18.0..30.0f64, vec(1.0..7.0f64, 2..=5)),
        probes in (vec(0.0..=1.0f64, 8), 40.0..80.0f64, 0.5..3.0f64),
    ) {
        let (u_lo, u_hi) = u_ends;
        let (us, t_safe, tolerance) = probes;
        let space = LookupSpace::build(
            model(),
            u_axis(u_lo, u_hi, &u_gaps),
            axis(f_gaps.0, &f_gaps.1),
            axis(t_gaps.0, &t_gaps.1),
        )
        .unwrap();
        let nf = space.flow_axis().len();
        let nt = space.inlet_axis().len();
        prop_assert_eq!(space.lattice().count(), nf * nt);

        // Every u-sample (last included), random u, and the
        // neighbourhood of a grid that stops short of 0 or 1.
        let samples = space.utilization_axis().to_vec();
        let probes = samples
            .iter()
            .copied()
            .chain(us)
            .chain([u_lo / 2.0, f64::midpoint(u_hi, 1.0), 0.0, 1.0]);
        for x in probes {
            let u = Utilization::new(x).unwrap();
            check_plane(&space, u)?;
            prop_assert_eq!(
                space.safe_settings(u, Celsius::new(t_safe), DegC::new(tolerance)),
                trilinear_band(&space, u, Celsius::new(t_safe), DegC::new(tolerance))
            );
        }

        // Settings between samples, or beyond either end, are off the
        // lattice.
        let (f, t) = (space.flow_axis(), space.inlet_axis());
        for w in f.windows(2) {
            prop_assert_eq!(space.lattice_point(setting(f64::midpoint(w[0], w[1]), t[0])), None);
        }
        for w in t.windows(2) {
            prop_assert_eq!(space.lattice_point(setting(f[0], f64::midpoint(w[0], w[1]))), None);
        }
        prop_assert_eq!(space.lattice_point(setting(f[0] - 1.0, t[0])), None);
        prop_assert_eq!(space.lattice_point(setting(f[nf - 1] + 1.0, t[0])), None);
        prop_assert_eq!(space.lattice_point(setting(f[0], t[nt - 1] + 1.0)), None);
    }
}

#[test]
fn paper_grid_vertices_match_at_every_u_sample_and_between() {
    let space = LookupSpace::paper_grid(model()).unwrap();
    for i in 0..=400 {
        check_plane(&space, Utilization::new(f64::from(i) / 400.0).unwrap()).unwrap();
    }
}
