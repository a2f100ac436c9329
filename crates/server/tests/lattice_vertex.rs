//! The lattice-vertex query equals the trilinear query to the bit.
//!
//! On random grids built from the paper's server model, at random
//! utilizations and at every u-sample, every `(f, T_in)` lattice vertex
//! read through `plane` + `lattice_point` + `temperatures_at` must give
//! exactly the bits of `outlet_temperature` / `cpu_temperature`, and
//! `plane` must fail exactly when they do, with the same error.
//!
//! The safety band, read through a `BandIndex`, equals a scan of the
//! whole lattice: `banded` and `safe_settings` return the vertices the
//! scan keeps, in its order, each with its die to the bit, with
//! `T_safe` below, inside and above the plane's die range and at
//! tolerances that give empty bands, partial rows and whole rows — on
//! grids from the paper's server model and on random grids whose dies
//! rise along every inlet row with flat runs and negative temperatures
//! (measured through `LookupSpace::measure`), at u-samples, one ulp
//! either side of them, and with `T_safe ± tolerance` placed exactly on
//! sampled and blended dies.

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

/// The band as a scan of the whole lattice, each kept vertex with the
/// bits of its die: every vertex of the plane tested against
/// `|die − t_safe| ≤ tolerance`, flow-major and inlet-minor.
fn scanned_band(
    space: &LookupSpace,
    plane: UPlane,
    t_safe: Celsius,
    tolerance: DegC,
) -> Vec<(LatticePoint, CoolingSetting, u64)> {
    space
        .lattice()
        .filter_map(|(point, setting)| {
            let die = space.temperatures_at(plane, point).1;
            ((die - t_safe).abs() <= tolerance).then_some((point, setting, die.value().to_bits()))
        })
        .collect()
}

/// What `banded` yields under the index of `t_safe ± tolerance`, with
/// die bits, for comparison with [`scanned_band`].
fn indexed_band(
    space: &LookupSpace,
    plane: UPlane,
    t_safe: Celsius,
    tolerance: DegC,
) -> Vec<(LatticePoint, CoolingSetting, u64)> {
    let band = space.band_index(t_safe, tolerance);
    space
        .banded(plane, &band)
        .map(|(point, setting, die)| (point, setting, die.value().to_bits()))
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
            let got = indexed_band(space, plane, t_safe, tol);
            prop_assert_eq!(
                &got,
                &want,
                "band at u={:?}, t_safe {}, tolerance {}",
                u,
                t_safe,
                tol
            );
            let settings: Vec<CoolingSetting> = want.iter().map(|&(_, s, _)| s).collect();
            prop_assert_eq!(space.safe_settings(u, t_safe, tol), settings);
            for &f in space.flow_axis() {
                match want.iter().filter(|(_, s, _)| s.flow.value() == f).count() {
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

/// splitmix64: the random grids' generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random `nu × nf × nt` grid whose dies never fall along an inlet
/// row: each row starts anywhere in `[-60, 90)` °C and climbs by steps
/// that are zero a quarter of the time (flat runs), so rows cross zero,
/// tie, and overlap between flows and u-planes. A third of the rows
/// repeat the row below them in u, where a blend of two equal dies can
/// round past both: the case the index's rounding margin is for.
fn monotone_space(mix: &mut Mix, nu: usize, nf: usize, nt: usize) -> LookupSpace {
    let gaps = |mix: &mut Mix, n: usize, lo: f64, hi: f64| -> Vec<f64> {
        (0..n).map(|_| mix.range(lo, hi)).collect()
    };
    let u_lo = if mix.below(2) == 0 {
        0.0
    } else {
        mix.range(0.0, 0.3)
    };
    let u_hi = if mix.below(2) == 0 {
        1.0
    } else {
        mix.range(0.6, 1.0)
    };
    let u_gaps = gaps(mix, nu - 1, 0.2, 1.0);
    let u_axis = u_axis(u_lo, u_hi, &u_gaps);
    let f_start = mix.range(10.0, 40.0);
    let f_axis = axis(f_start, &gaps(mix, nf - 1, 5.0, 60.0));
    let t_start = mix.range(-60.0, 20.0);
    let t_axis = axis(t_start, &gaps(mix, nt - 1, 1.0, 7.0));
    let mut dies: Vec<f64> = Vec::with_capacity(nu * nf * nt);
    for row in 0..nu * nf {
        if row >= nf && mix.below(3) == 0 {
            let below = (row - nf) * nt;
            dies.extend_from_within(below..below + nt);
            continue;
        }
        let mut die = mix.range(-60.0, 90.0);
        for _ in 0..nt {
            dies.push(die);
            if mix.below(4) != 0 {
                die += mix.range(0.0, 6.0);
            }
        }
    }
    let at = |axis: &[f64], x: f64| axis.iter().position(|&v| v == x).unwrap();
    let (us, fs, ts) = (u_axis.clone(), f_axis.clone(), t_axis.clone());
    LookupSpace::measure(u_axis, f_axis, t_axis, |u, f, t| {
        let index = (at(&us, u.value()) * nf + at(&fs, f.value())) * nt + at(&ts, t.value());
        Ok((Celsius::new(dies[index]), Celsius::new(dies[index] - 1.0)))
    })
    .unwrap()
}

/// What the random-grid sweep reached.
#[derive(Debug, Default)]
struct Reach {
    rows: RowCoverage,
    /// Band vertices whose die sat exactly on `T_safe ± tolerance`.
    edges: usize,
}

/// Requires `banded` at `u` to equal [`scanned_band`] for every
/// `(T_safe, tolerance)` pair drawn from the dies of the plane's two
/// sampled u-planes and of the plane itself.
fn check_indexed_band(
    space: &LookupSpace,
    mix: &mut Mix,
    u: Utilization,
    reach: &mut Reach,
) -> Result<(), TestCaseError> {
    let Ok(plane) = space.plane(u) else {
        return Ok(());
    };
    let nt = space.inlet_axis().len();
    // The dies of the bracketing u-samples are the plane's at the
    // samples themselves.
    let us = space.utilization_axis();
    let cell = us
        .partition_point(|&x| x <= u.value())
        .clamp(1, us.len() - 1)
        - 1;
    let mut sampled = Vec::new();
    for x in [us[cell], us[cell + 1]] {
        let sample = space.plane(Utilization::new(x).unwrap()).unwrap();
        sampled.extend(
            space
                .lattice()
                .map(|(p, _)| space.temperatures_at(sample, p).1),
        );
    }
    let blended: Vec<Celsius> = space
        .lattice()
        .map(|(p, _)| space.temperatures_at(plane, p).1)
        .collect();
    let lo = blended.iter().copied().min().unwrap();
    let hi = blended.iter().copied().max().unwrap();
    let mut cases = vec![
        (lo - DegC::new(10.0), DegC::new(1.0)),
        (hi + DegC::new(10.0), DegC::new(1.0)),
        (lo, (hi - lo) + DegC::new(1.0)),
        (hi, DegC::new(-1.0)),
    ];
    for _ in 0..6 {
        for dies in [&sampled, &blended] {
            let centre = dies[mix.below(dies.len())];
            let edge = dies[mix.below(dies.len())];
            cases.push((centre, (edge - centre).abs()));
            cases.push((centre, DegC::new(0.0)));
            cases.push((centre, DegC::new(mix.range(0.05, 4.0))));
        }
    }
    for (t_safe, tolerance) in cases {
        let want = scanned_band(space, plane, t_safe, tolerance);
        let got = indexed_band(space, plane, t_safe, tolerance);
        prop_assert_eq!(
            &got,
            &want,
            "band at u={:?}, t_safe {}, tolerance {}",
            u,
            t_safe,
            tolerance
        );
        let settings: Vec<CoolingSetting> = want.iter().map(|&(_, s, _)| s).collect();
        prop_assert_eq!(space.safe_settings(u, t_safe, tolerance), settings);
        reach.edges += want
            .iter()
            .filter(|&&(_, _, die)| (Celsius::new(f64::from_bits(die)) - t_safe).abs() == tolerance)
            .count();
        for &f in space.flow_axis() {
            match want.iter().filter(|(_, s, _)| s.flow.value() == f).count() {
                0 => reach.rows.empty += 1,
                n if n == nt => reach.rows.whole += 1,
                _ => reach.rows.partial += 1,
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn band_index_equals_the_full_scan_on_random_monotone_grids(
        seed in 0..u64::MAX,
        nu in 2..=5usize,
        nf in 2..=5usize,
        nt in 2..=12usize,
    ) {
        let mut mix = Mix(seed);
        let space = monotone_space(&mut mix, nu, nf, nt);
        let mut reach = Reach::default();
        let samples = space.utilization_axis().to_vec();
        let mut probes = samples.clone();
        for w in samples.windows(2) {
            // A blend fraction one ulp above 0 and one below 1, and a
            // random one.
            probes.push(w[0].next_up());
            probes.push(w[1].next_down());
            probes.push(mix.range(w[0], w[1]));
        }
        for x in probes {
            check_indexed_band(&space, &mut mix, Utilization::new(x).unwrap(), &mut reach)?;
        }
        prop_assert!(reach.rows.empty > 0 && reach.rows.whole > 0, "{:?}", reach.rows);
        prop_assert!(reach.edges > 0, "{:?}", reach);
    }
}
