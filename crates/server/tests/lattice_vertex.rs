//! The lattice-vertex query equals the trilinear query to the bit.
//!
//! On random grids built from the paper's server model, at random
//! utilizations and at every u-sample, every `(f, T_in)` lattice vertex
//! read through `plane` + `lattice_point` + `temperatures_at` must give
//! exactly the bits of `outlet_temperature` / `cpu_temperature`, and
//! `plane` must fail exactly when they do, with the same error.
//!
//! The safety band, found by two binary searches per flow row, equals
//! a scan of the whole lattice: `banded` and `safe_settings` return
//! the vertices the scan keeps, in its order, with `T_safe` below,
//! inside and above the plane's die range and at tolerances that give
//! empty bands, partial rows and whole rows.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_server::{CoolingSetting, LatticePoint, LookupSpace, ServerModel, UPlane};
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

/// The band as a scan of the whole lattice: every vertex of the plane
/// tested against `|die − t_safe| ≤ tolerance`, flow-major and
/// inlet-minor.
fn scanned_band(
    space: &LookupSpace,
    plane: UPlane,
    t_safe: Celsius,
    tolerance: DegC,
) -> Vec<(LatticePoint, CoolingSetting)> {
    space
        .lattice()
        .filter(|&(point, _)| (space.temperatures_at(plane, point).1 - t_safe).abs() <= tolerance)
        .collect()
}

/// Flow rows seen by [`check_bands`]: wholly out of band, partly in
/// band, wholly in band.
#[derive(Debug, Default)]
struct RowCoverage {
    empty: usize,
    partial: usize,
    whole: usize,
}

/// Requires the bracketed band at `u` to equal [`scanned_band`] for
/// `T_safe` below, inside and above the plane's die range, at a zero,
/// a narrow, the given, a boundary, a covering and a negative
/// tolerance. `inside` places one `T_safe` within the die range and
/// `vertex` picks the vertex whose die is another `T_safe` and, at the
/// boundary tolerance, a band edge.
fn check_bands(
    space: &LookupSpace,
    u: Utilization,
    inside: f64,
    vertex: usize,
    tolerance: f64,
    rows: &mut RowCoverage,
) -> Result<(), TestCaseError> {
    let Ok(plane) = space.plane(u) else {
        prop_assert!(space
            .safe_settings(u, Celsius::new(60.0), DegC::new(100.0))
            .is_empty());
        return Ok(());
    };
    let dies: Vec<Celsius> = space
        .lattice()
        .map(|(point, _)| space.temperatures_at(plane, point).1)
        .collect();
    let lo = dies.iter().copied().min().unwrap();
    let hi = dies.iter().copied().max().unwrap();
    let span = (hi - lo).value();
    let picked = dies[vertex % dies.len()];
    let t_safes = [
        lo - DegC::new(5.0 + span),
        lo - DegC::new(0.3),
        lo + DegC::new(span * inside),
        picked,
        hi + DegC::new(0.3),
        hi + DegC::new(5.0 + span),
    ];
    let nt = space.inlet_axis().len();
    for t_safe in t_safes {
        let tolerances = [
            DegC::new(0.0),
            DegC::new(0.05),
            DegC::new(tolerance),
            (picked - t_safe).abs(),
            DegC::new(3.0 * span + 20.0),
            DegC::new(-1.0),
        ];
        for tol in tolerances {
            let want = scanned_band(space, plane, t_safe, tol);
            let got: Vec<_> = space.banded(plane, t_safe, tol).collect();
            prop_assert_eq!(
                &got,
                &want,
                "band at u={:?}, t_safe {}, tolerance {}",
                u,
                t_safe,
                tol
            );
            let settings: Vec<CoolingSetting> = want.iter().map(|&(_, s)| s).collect();
            prop_assert_eq!(space.safe_settings(u, t_safe, tol), settings);
            for &f in space.flow_axis() {
                match want.iter().filter(|(_, s)| s.flow.value() == f).count() {
                    0 => rows.empty += 1,
                    n if n == nt => rows.whole += 1,
                    _ => rows.partial += 1,
                }
            }
        }
    }
    Ok(())
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
        band_probes in (0.0..=1.0f64, 0..1000usize),
    ) {
        let (u_lo, u_hi) = u_ends;
        let (us, t_safe, tolerance) = probes;
        let (inside, vertex) = band_probes;
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
        let mut rows = RowCoverage::default();
        for x in probes {
            let u = Utilization::new(x).unwrap();
            check_plane(&space, u)?;
            prop_assert_eq!(
                space.safe_settings(u, Celsius::new(t_safe), DegC::new(tolerance)),
                trilinear_band(&space, u, Celsius::new(t_safe), DegC::new(tolerance))
            );
            check_bands(&space, u, inside, vertex, tolerance, &mut rows)?;
        }
        prop_assert!(rows.empty > 0 && rows.whole > 0, "{:?}", rows);

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

#[test]
fn paper_grid_bands_match_the_full_scan() {
    let space = LookupSpace::paper_grid(model()).unwrap();
    let mut rows = RowCoverage::default();
    for i in 0..=400_u32 {
        let u = Utilization::new(f64::from(i) / 400.0).unwrap();
        let inside = f64::from(i % 7) / 6.0;
        check_bands(&space, u, inside, i as usize * 37, 1.0, &mut rows).unwrap();
    }
    assert!(
        rows.empty > 0 && rows.partial > 0 && rows.whole > 0,
        "{rows:?}"
    );
}
