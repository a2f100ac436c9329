//! The 3-D measurement lookup space (paper Fig. 12-13).
//!
//! The paper samples CPU temperature over the discrete space
//! `(u, f, T_warm_in)` and argues that, since the underlying behaviour
//! is continuous and near-linear, the samples can be fitted into a
//! continuous look-up space "in practical use". [`LookupSpace`] is that
//! artifact: it is *built by running a measurement campaign* against a
//! [`ServerModel`] (the virtual prototype) and thereafter answers
//! queries by trilinear interpolation — downstream code never touches
//! the physics directly, mirroring how the paper's controller only ever
//! consults measured data.
//!
//! # Lattice queries
//!
//! Every setting the cooling optimizer considers is a vertex of the
//! `(f, T_in)` lattice, and so is every setting it hands the engine.
//! At such a vertex the lookup is a two-plane blend, not a trilinear
//! search: [`LookupSpace::plane`] brackets `u` once,
//! [`LookupSpace::lattice_point`] maps the setting to its sample pair
//! once, and [`LookupSpace::temperatures_at`] reads `(1 − fu)·A + fu·B`
//! from the two bracketing u-planes. Each u-plane is one contiguous
//! block of the sample arrays, because a sample's index is
//! `(iu·nf + ifl)·nt + it`.
//!
//! The blend equals the trilinear query bit for bit. At an axis sample
//! the bracket's fraction is exactly `0.0`, or exactly `1.0` at the
//! axis's last sample (bracketed as its last interval, where the
//! fraction is `(x − a)/(x − a)`). So each trilinear weight
//! `wu·wf·wt` is exactly `1 − fu`, `fu` or zero, the zero-weight terms
//! are skipped, and what remains is the same two products added to
//! `0.0` in the same order. Settings off the lattice — a pump derate's
//! clamped flow — keep the trilinear path.

use crate::model::ServerModel;
use crate::ServerError;
use h2p_units::{Celsius, DegC, LitersPerHour, Utilization};

/// A cooling setting `{f, T_warm_in}` — the knob pair the paper's
/// controller adjusts every interval (Sec. V-B1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingSetting {
    /// Per-server coolant flow.
    pub flow: LitersPerHour,
    /// Inlet (facility-supplied) coolant temperature.
    pub inlet: Celsius,
}

/// One sampled vertex of the lookup space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpacePoint {
    /// CPU utilization coordinate.
    pub utilization: Utilization,
    /// Flow coordinate.
    pub flow: LitersPerHour,
    /// Inlet-temperature coordinate.
    pub inlet: Celsius,
    /// Sampled die temperature.
    pub cpu_temperature: Celsius,
    /// Sampled coolant outlet temperature.
    pub outlet: Celsius,
}

/// A utilization plane of the lookup space: the two sampled u-planes
/// that bracket a query utilization and their blend weights. Found
/// once by [`LookupSpace::plane`] and read at any number of lattice
/// vertices; meaningful only for the space that made it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UPlane {
    /// Index of the lower u-plane's first sample.
    lower: usize,
    /// Index of the upper u-plane's first sample.
    upper: usize,
    /// Weight of the lower plane, `1 − fu`.
    below: f64,
    /// Weight of the upper plane, `fu`.
    above: f64,
}

/// A cooling setting's exact position on the `(f, T_in)` lattice,
/// found once by [`LookupSpace::lattice_point`]; meaningful only for
/// the space that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatticePoint {
    /// Offset within a u-plane, `ifl·nt + it`.
    offset: usize,
}

/// The fitted continuous lookup space over `(u, f, T_in)`.
///
/// The space is immutable once built: every query method takes `&self`
/// and only reads the fitted sample arrays, so a single space is safely
/// shared by concurrent readers (`Sync` — asserted at compile time
/// below). The parallel simulation engine relies on this to let every
/// worker thread interpolate against one shared space without copies.
///
/// ```
/// use h2p_server::{LookupSpace, ServerModel};
/// use h2p_units::{Celsius, LitersPerHour, Utilization};
///
/// let space = LookupSpace::paper_grid(&ServerModel::paper_default())?;
/// let t = space.cpu_temperature(
///     Utilization::new(0.33)?,
///     LitersPerHour::new(73.0),
///     Celsius::new(47.2),
/// )?;
/// assert!(t > Celsius::new(47.2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LookupSpace {
    u_axis: Vec<f64>,
    f_axis: Vec<f64>,
    t_axis: Vec<f64>,
    cpu_temp: Vec<f64>,
    outlet: Vec<f64>,
}

impl LookupSpace {
    /// Runs a measurement campaign on `model` over the cartesian grid of
    /// the three axes and fits the lookup space.
    ///
    /// Axes must be finite and strictly increasing, with at least two
    /// samples each and a finite span; utilizations are fractions in
    /// `\[0, 1\]`.
    ///
    /// # Errors
    ///
    /// * [`ServerError::BadGridAxis`] for a malformed axis, before any
    ///   vertex is measured.
    /// * Any error from [`ServerModel::operating_point`] at a vertex.
    pub fn build(
        model: &ServerModel,
        u_axis: Vec<f64>,
        f_axis: Vec<f64>,
        t_axis: Vec<f64>,
    ) -> Result<Self, ServerError> {
        for (name, axis) in [("u", &u_axis), ("f", &f_axis), ("t", &t_axis)] {
            // NaN fails every comparison, so the ordering test alone
            // would let it through; a finite span keeps the bracket's
            // fractions finite.
            if axis.len() < 2
                || axis.iter().any(|v| !v.is_finite())
                || !(axis[axis.len() - 1] - axis[0]).is_finite()
                || axis.windows(2).any(|w| w[0] >= w[1])
            {
                return Err(ServerError::BadGridAxis { axis: name });
            }
        }
        // h2p-lint: allow(L2): axis length >= 2 checked above
        if u_axis[0] < 0.0 || *u_axis.last().expect("non-empty") > 1.0 {
            return Err(ServerError::BadGridAxis { axis: "u" });
        }
        let (nu, nf, nt) = (u_axis.len(), f_axis.len(), t_axis.len());
        let mut cpu_temp = Vec::with_capacity(nu * nf * nt);
        let mut outlet = Vec::with_capacity(nu * nf * nt);
        for &u in &u_axis {
            // h2p-lint: allow(L2): u-axis range-checked above
            let util = Utilization::new(u).expect("validated above");
            for &f in &f_axis {
                for &t in &t_axis {
                    let op = model.operating_point(util, LitersPerHour::new(f), Celsius::new(t))?;
                    cpu_temp.push(op.cpu_temperature.value());
                    outlet.push(op.outlet.value());
                }
            }
        }
        Ok(LookupSpace {
            u_axis,
            f_axis,
            t_axis,
            cpu_temp,
            outlet,
        })
    }

    /// The paper's measurement grid: utilization 0-100 % in 5 % steps,
    /// flow 20-250 L/H in 10 L/H steps, inlet 20-60 °C in 2 °C steps.
    ///
    /// # Errors
    ///
    /// Propagates [`build`](Self::build) failures.
    pub fn paper_grid(model: &ServerModel) -> Result<Self, ServerError> {
        let u_axis: Vec<f64> = (0..=20).map(|i| f64::from(i) / 20.0).collect();
        let f_axis: Vec<f64> = (0..=23).map(|i| 20.0 + 10.0 * f64::from(i)).collect();
        let t_axis: Vec<f64> = (0..=20).map(|i| 20.0 + 2.0 * f64::from(i)).collect();
        Self::build(model, u_axis, f_axis, t_axis)
    }

    /// Number of sampled vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cpu_temp.len()
    }

    /// Whether the space holds no samples (never true for a built space).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cpu_temp.is_empty()
    }

    /// The flow axis samples (L/H).
    #[must_use]
    pub fn flow_axis(&self) -> &[f64] {
        &self.f_axis
    }

    /// The inlet-temperature axis samples (°C).
    #[must_use]
    pub fn inlet_axis(&self) -> &[f64] {
        &self.t_axis
    }

    /// The utilization axis samples (fractions).
    #[must_use]
    pub fn utilization_axis(&self) -> &[f64] {
        &self.u_axis
    }

    /// Iterates over every sampled vertex (the discrete points of
    /// Fig. 12).
    pub fn points(&self) -> impl Iterator<Item = SpacePoint> + '_ {
        let nf = self.f_axis.len();
        let nt = self.t_axis.len();
        (0..self.len()).map(move |idx| {
            let iu = idx / (nf * nt);
            let rem = idx % (nf * nt);
            let ifl = rem / nt;
            let it = rem % nt;
            SpacePoint {
                utilization: Utilization::saturating(self.u_axis[iu]),
                flow: LitersPerHour::new(self.f_axis[ifl]),
                inlet: Celsius::new(self.t_axis[it]),
                cpu_temperature: Celsius::new(self.cpu_temp[idx]),
                outlet: Celsius::new(self.outlet[idx]),
            }
        })
    }

    fn index(&self, iu: usize, ifl: usize, it: usize) -> usize {
        (iu * self.f_axis.len() + ifl) * self.t_axis.len() + it
    }

    /// Finds the bracketing interval `[i, i+1]` of `x` on `axis`.
    fn bracket(axis: &[f64], x: f64, name: &'static str) -> Result<(usize, f64), ServerError> {
        let lo = axis[0];
        let hi = *axis.last().expect("validated non-empty"); // h2p-lint: allow(L2): axes validated at build
        if x < lo - 1e-9 || x > hi + 1e-9 {
            return Err(ServerError::OutOfGrid {
                axis: name,
                value: x,
            });
        }
        let x = x.clamp(lo, hi);
        let i = axis.partition_point(|&v| v <= x).saturating_sub(1);
        let i = i.min(axis.len() - 2);
        let frac = (x - axis[i]) / (axis[i + 1] - axis[i]);
        Ok((i, frac))
    }

    fn interpolate(
        &self,
        field: &[f64],
        u: Utilization,
        flow: LitersPerHour,
        inlet: Celsius,
    ) -> Result<f64, ServerError> {
        let (iu, fu) = Self::bracket(&self.u_axis, u.value(), "u")?;
        let (ifl, ff) = Self::bracket(&self.f_axis, flow.value(), "f")?;
        let (it, ft) = Self::bracket(&self.t_axis, inlet.value(), "t")?;
        let mut acc = 0.0;
        for (du, wu) in [(0, 1.0 - fu), (1, fu)] {
            for (df, wf) in [(0, 1.0 - ff), (1, ff)] {
                for (dt, wt) in [(0, 1.0 - ft), (1, ft)] {
                    let w = wu * wf * wt;
                    if w > 0.0 {
                        acc += w * field[self.index(iu + du, ifl + df, it + dt)];
                    }
                }
            }
        }
        Ok(acc)
    }

    /// Interpolated die temperature at `(u, f, T_in)`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::OutOfGrid`] outside the sampled ranges.
    pub fn cpu_temperature(
        &self,
        u: Utilization,
        flow: LitersPerHour,
        inlet: Celsius,
    ) -> Result<Celsius, ServerError> {
        Ok(Celsius::new(self.interpolate(
            &self.cpu_temp,
            u,
            flow,
            inlet,
        )?))
    }

    /// Interpolated coolant outlet temperature at `(u, f, T_in)`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::OutOfGrid`] outside the sampled ranges.
    pub fn outlet_temperature(
        &self,
        u: Utilization,
        flow: LitersPerHour,
        inlet: Celsius,
    ) -> Result<Celsius, ServerError> {
        Ok(Celsius::new(self.interpolate(
            &self.outlet,
            u,
            flow,
            inlet,
        )?))
    }

    /// The paper's Step 1 (Sec. V-B1): brackets `u` between two sampled
    /// u-planes, once, for any number of lattice reads at that
    /// utilization.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::OutOfGrid`] (axis `"u"`) outside the
    /// sampled utilization range, as the trilinear queries do.
    pub fn plane(&self, u: Utilization) -> Result<UPlane, ServerError> {
        let (iu, fu) = Self::bracket(&self.u_axis, u.value(), "u")?;
        let lower = self.index(iu, 0, 0);
        Ok(UPlane {
            lower,
            upper: lower + self.f_axis.len() * self.t_axis.len(),
            below: 1.0 - fu,
            above: fu,
        })
    }

    /// The exact lattice position of `setting`, or `None` unless its
    /// flow and inlet are each bit-equal to an axis sample.
    #[must_use]
    pub fn lattice_point(&self, setting: CoolingSetting) -> Option<LatticePoint> {
        let sample = |axis: &[f64], x: f64| {
            let i = axis.partition_point(|&v| v < x);
            axis.get(i)
                .is_some_and(|v| v.to_bits() == x.to_bits())
                .then_some(i)
        };
        let ifl = sample(&self.f_axis, setting.flow.value())?;
        let it = sample(&self.t_axis, setting.inlet.value())?;
        Some(LatticePoint {
            offset: ifl * self.t_axis.len() + it,
        })
    }

    /// Every `(f, T_in)` lattice vertex with its setting, flow-major and
    /// inlet-minor.
    pub fn lattice(&self) -> impl Iterator<Item = (LatticePoint, CoolingSetting)> + '_ {
        let nt = self.t_axis.len();
        self.f_axis.iter().enumerate().flat_map(move |(ifl, &f)| {
            self.t_axis.iter().enumerate().map(move |(it, &t)| {
                let setting = CoolingSetting {
                    flow: LitersPerHour::new(f),
                    inlet: Celsius::new(t),
                };
                (
                    LatticePoint {
                        offset: ifl * nt + it,
                    },
                    setting,
                )
            })
        })
    }

    /// Coolant outlet and die temperature at a lattice vertex of a
    /// u-plane — the trilinear queries' answers at that setting and
    /// utilization, to the bit (see the [module docs](self)).
    #[must_use]
    pub fn temperatures_at(&self, plane: UPlane, point: LatticePoint) -> (Celsius, Celsius) {
        (
            Celsius::new(Self::blend(&self.outlet, plane, point)),
            Celsius::new(Self::blend(&self.cpu_temp, plane, point)),
        )
    }

    /// `(1 − fu)·A + fu·B` added to `0.0` in `interpolate`'s order, with
    /// its zero-weight skips.
    fn blend(field: &[f64], plane: UPlane, point: LatticePoint) -> f64 {
        let mut acc = 0.0;
        if plane.below > 0.0 {
            acc += plane.below * field[plane.lower + point.offset];
        }
        if plane.above > 0.0 {
            acc += plane.above * field[plane.upper + point.offset];
        }
        acc
    }

    /// The paper's Steps 2-3 (Sec. V-B1) at a u-plane: the lattice
    /// vertices whose die temperature lies within `tolerance` of
    /// `t_safe` — the region `A = U ∩ X` of Fig. 13 — flow-major and
    /// inlet-minor.
    pub fn banded(
        &self,
        plane: UPlane,
        t_safe: Celsius,
        tolerance: DegC,
    ) -> impl Iterator<Item = (LatticePoint, CoolingSetting)> + '_ {
        self.lattice().filter(move |&(point, _)| {
            let die = Celsius::new(Self::blend(&self.cpu_temp, plane, point));
            (die - t_safe).abs() <= tolerance
        })
    }

    /// [`banded`](Self::banded) at the plane of `u`: the settings on the
    /// grid's `(f, T_in)` lattice whose die temperature lies within
    /// `tolerance` of `t_safe`, none when `u` is off the grid. Callers
    /// pick among them (the optimizer maximizes TEG power).
    #[must_use]
    pub fn safe_settings(
        &self,
        u: Utilization,
        t_safe: Celsius,
        tolerance: DegC,
    ) -> Vec<CoolingSetting> {
        self.plane(u).map_or_else(
            |_| Vec::new(),
            |plane| {
                self.banded(plane, t_safe, tolerance)
                    .map(|(_, setting)| setting)
                    .collect()
            },
        )
    }
}

// Shared-read guarantee: the parallel simulation engine interpolates
// against one `&LookupSpace` from every worker thread.
#[allow(dead_code)]
fn _assert_lookup_space_is_sync() {
    fn is_sync<T: Sync>() {}
    is_sync::<LookupSpace>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_units::DegC;

    fn space() -> LookupSpace {
        LookupSpace::paper_grid(&ServerModel::paper_default()).unwrap()
    }

    fn u(x: f64) -> Utilization {
        Utilization::new(x).unwrap()
    }

    #[test]
    fn grid_size_matches_axes() {
        let s = space();
        assert_eq!(s.len(), 21 * 24 * 21);
        assert_eq!(s.points().count(), s.len());
        assert!(!s.is_empty());
    }

    #[test]
    fn vertex_queries_are_exact() {
        let s = space();
        let model = ServerModel::paper_default();
        // Check a handful of lattice vertices round-trip exactly.
        for (uu, ff, tt) in [(0.0, 20.0, 20.0), (0.5, 100.0, 40.0), (1.0, 250.0, 60.0)] {
            let from_space = s
                .cpu_temperature(u(uu), LitersPerHour::new(ff), Celsius::new(tt))
                .unwrap();
            let direct = model
                .operating_point(u(uu), LitersPerHour::new(ff), Celsius::new(tt))
                .unwrap()
                .cpu_temperature;
            assert!((from_space - direct).value().abs() < 1e-9);
        }
    }

    #[test]
    fn interpolation_error_is_small_off_grid() {
        // The underlying model is smooth; trilinear error on the paper
        // grid must stay well under a degree.
        let s = space();
        let model = ServerModel::paper_default();
        for (uu, ff, tt) in [
            (0.13, 37.0, 43.7),
            (0.42, 86.0, 51.3),
            (0.77, 143.0, 33.1),
            (0.94, 221.0, 57.9),
        ] {
            let approx = s
                .cpu_temperature(u(uu), LitersPerHour::new(ff), Celsius::new(tt))
                .unwrap()
                .value();
            let exact = model
                .operating_point(u(uu), LitersPerHour::new(ff), Celsius::new(tt))
                .unwrap()
                .cpu_temperature
                .value();
            assert!(
                (approx - exact).abs() < 0.5,
                "({uu}, {ff}, {tt}): {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn outlet_interpolation_tracks_model() {
        let s = space();
        let model = ServerModel::paper_default();
        let approx = s
            .outlet_temperature(u(0.3), LitersPerHour::new(55.0), Celsius::new(48.0))
            .unwrap()
            .value();
        let exact = model
            .operating_point(u(0.3), LitersPerHour::new(55.0), Celsius::new(48.0))
            .unwrap()
            .outlet
            .value();
        assert!((approx - exact).abs() < 0.3);
    }

    #[test]
    fn out_of_grid_rejected() {
        let s = space();
        assert!(matches!(
            s.cpu_temperature(u(0.5), LitersPerHour::new(10.0), Celsius::new(40.0)),
            Err(ServerError::OutOfGrid { axis: "f", .. })
        ));
        assert!(matches!(
            s.cpu_temperature(u(0.5), LitersPerHour::new(100.0), Celsius::new(70.0)),
            Err(ServerError::OutOfGrid { axis: "t", .. })
        ));
    }

    #[test]
    fn safe_settings_within_band() {
        let s = space();
        let t_safe = Celsius::new(62.0);
        let tol = DegC::new(1.0);
        let settings = s.safe_settings(u(0.2), t_safe, tol);
        assert!(!settings.is_empty());
        for cs in &settings {
            let die = s.cpu_temperature(u(0.2), cs.flow, cs.inlet).unwrap();
            assert!((die - t_safe).abs() <= tol + DegC::new(1e-9));
        }
    }

    #[test]
    fn fig13_low_util_slice_admits_warmer_inlets() {
        // The A_avg region (low utilization) reaches higher T_warm_in
        // than the A_max region (high utilization) — Fig. 13's key
        // visual.
        let s = space();
        let t_safe = Celsius::new(62.0);
        let tol = DegC::new(1.0);
        let hottest = |uu: f64| {
            s.safe_settings(u(uu), t_safe, tol)
                .iter()
                .map(|cs| cs.inlet)
                .fold(Celsius::new(0.0), Celsius::max)
        };
        assert!(hottest(0.2) > hottest(0.9));
    }

    #[test]
    fn bad_axes_rejected() {
        let model = ServerModel::paper_default();
        assert!(matches!(
            LookupSpace::build(&model, vec![0.0], vec![20.0, 30.0], vec![20.0, 30.0]),
            Err(ServerError::BadGridAxis { axis: "u" })
        ));
        assert!(matches!(
            LookupSpace::build(&model, vec![0.0, 1.0], vec![30.0, 20.0], vec![20.0, 30.0]),
            Err(ServerError::BadGridAxis { axis: "f" })
        ));
        assert!(matches!(
            LookupSpace::build(&model, vec![0.0, 1.5], vec![20.0, 30.0], vec![20.0, 30.0]),
            Err(ServerError::BadGridAxis { axis: "u" })
        ));
        // Non-finite samples fail every ordering comparison or overflow
        // the span; each is rejected before the campaign runs.
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (u_axis, f_axis, t_axis, axis) in [
            (vec![0.0, nan, 1.0], vec![20.0, 30.0], vec![20.0, 30.0], "u"),
            (vec![0.0, 1.0], vec![20.0, nan], vec![20.0, 30.0], "f"),
            (vec![0.0, 1.0], vec![20.0, 30.0], vec![nan, 30.0], "t"),
            (vec![0.0, inf], vec![20.0, 30.0], vec![20.0, 30.0], "u"),
            (vec![-inf, 0.5], vec![20.0, 30.0], vec![20.0, 30.0], "u"),
            (vec![0.0, 1.0], vec![20.0, inf], vec![20.0, 30.0], "f"),
            (vec![0.0, 1.0], vec![-inf, 30.0], vec![20.0, 30.0], "f"),
            (vec![0.0, 1.0], vec![20.0, 30.0], vec![20.0, inf], "t"),
            (vec![0.0, 1.0], vec![20.0, 30.0], vec![-inf, 30.0], "t"),
            (
                vec![0.0, 1.0],
                vec![20.0, 30.0],
                vec![-f64::MAX, f64::MAX],
                "t",
            ),
        ] {
            assert_eq!(
                LookupSpace::build(&model, u_axis, f_axis, t_axis).unwrap_err(),
                ServerError::BadGridAxis { axis },
                "axis {axis}"
            );
        }
    }
}
