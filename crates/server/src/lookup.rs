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
//!
//! # The safety band
//!
//! Die temperature rises with inlet temperature: the leakage feedback
//! only adds heat as the coolant warms. [`LookupSpace::build`] checks
//! this on the measured samples — along every `(u, f)` row the die is
//! finite and never falls as the inlet rises — and rejects a campaign
//! that breaks it with [`ServerError::NonMonotoneInlet`].
//!
//! Where the band `|die − T_safe| ≤ tolerance` can fall is fixed once
//! the space, `T_safe` and the tolerance are: [`LookupSpace::band_index`]
//! records it in a [`BandIndex`], and [`LookupSpace::banded`] then tests
//! only the recorded inlets of each flow row. A query's u-plane lies in
//! one *cell*, the interval between two adjacent u-samples, and every
//! die it reads at a vertex is a blend `(1 − fu)·A + fu·B` of the two
//! sampled dies `A` and `B` there, with `fu ∈ [0, 1]`. In exact
//! arithmetic the blend lies between `A` and `B`; rounded, it strays
//! from that hull by at most about three units of roundoff of
//! `max(|A|, |B|)` (one for `1 − fu`, one per product, one for the
//! sum), plus a few subnormal steps. The index widens the hull by a
//! rounding margin well above that, `2⁻⁵⁰·max|die| + f64::MIN_POSITIVE`
//! (eight units of roundoff of the space's largest die, and more than
//! any subnormal error), so every blend in the cell lies in
//! `[min(A, B) − m, max(A, B) + m]`.
//!
//! A vertex whose widened hull lies wholly below the band (its top
//! fails the band test and is below `T_safe`) fails the test at every
//! blend in the cell, and so does one whose hull lies wholly above it.
//! Rows never fall, so on each sampled u-plane the vertices whose
//! `die + m` lies below the band form a prefix of the row, and those
//! whose `die − m` lies above it a suffix; one binary search each finds
//! them, once per plane and row. A cell's row keeps the inlets between
//! the shorter prefix and the shorter suffix of its two planes. The
//! index is thus conservative: `banded` applies the unchanged band test
//! to every die it reads, so it yields exactly the vertices a scan of
//! the whole lattice keeps, in the scan's order, with the same dies.

use crate::model::ServerModel;
use crate::ServerError;
use h2p_units::{Celsius, DegC, LitersPerHour, Utilization};
use std::ops::Range;

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
    /// The cell, `iu`: the u-interval between the two planes.
    cell: usize,
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
    /// The flow row, `ifl`.
    flow: usize,
}

impl LatticePoint {
    /// The index of the point's flow on the space's flow axis, for
    /// tables kept per flow row.
    #[must_use]
    pub fn flow_index(self) -> usize {
        self.flow
    }
}

/// Where the safety band `|die − t_safe| ≤ tolerance` can fall: for
/// every u-cell and flow row, the inlet range outside which no lattice
/// vertex passes the band test at any blend fraction in that cell (see
/// the [module docs](self)). Built once by [`LookupSpace::band_index`]
/// and read by every [`LookupSpace::banded`] call; meaningful only for
/// the space that made it.
#[derive(Debug, Clone, PartialEq)]
pub struct BandIndex {
    t_safe: Celsius,
    tolerance: DegC,
    /// Inlet range of each `(cell, flow row)`, at `cell·nf + ifl`.
    rows: Vec<Range<usize>>,
}

impl BandIndex {
    /// The band test, `|die − t_safe| ≤ tolerance`.
    #[must_use]
    pub fn admits(&self, die: Celsius) -> bool {
        (die - self.t_safe).abs() <= self.tolerance
    }

    /// The band's centre, `T_safe`.
    #[must_use]
    pub fn t_safe(&self) -> Celsius {
        self.t_safe
    }

    /// The band's half-width.
    #[must_use]
    pub fn tolerance(&self) -> DegC {
        self.tolerance
    }

    /// Whether `die` lies wholly below the band: it fails the test, on
    /// the cold side. Every colder die does too.
    fn below(&self, die: Celsius) -> bool {
        die < self.t_safe && !self.admits(die)
    }

    /// Whether `die` lies wholly above the band. Every hotter die does
    /// too.
    fn above(&self, die: Celsius) -> bool {
        die > self.t_safe && !self.admits(die)
    }
}

/// The rounding margin of a [`BandIndex`], as a multiple of the
/// space's largest die magnitude: `2⁻⁵⁰ = 4·ε`, eight units of
/// roundoff, against the at most three by which a blend strays from
/// its hull.
const BAND_MARGIN: f64 = 4.0 * f64::EPSILON;

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
    /// the three axes and fits the lookup space: [`measure`](Self::measure)
    /// with the model's operating point as the instrument.
    ///
    /// # Errors
    ///
    /// As [`measure`](Self::measure), with the instrument's errors coming
    /// from [`ServerModel::operating_point`].
    pub fn build(
        model: &ServerModel,
        u_axis: Vec<f64>,
        f_axis: Vec<f64>,
        t_axis: Vec<f64>,
    ) -> Result<Self, ServerError> {
        Self::measure(u_axis, f_axis, t_axis, |u, flow, inlet| {
            let op = model.operating_point(u, flow, inlet)?;
            Ok((op.cpu_temperature, op.outlet))
        })
    }

    /// Runs a measurement campaign over the cartesian grid of the three
    /// axes, reading `(die, outlet)` temperatures from `instrument` at
    /// every vertex, and fits the lookup space.
    ///
    /// Axes must be finite and strictly increasing, with at least two
    /// samples each and a finite span; utilizations are fractions in
    /// `\[0, 1\]`.
    ///
    /// # Errors
    ///
    /// * [`ServerError::BadGridAxis`] for a malformed axis, before any
    ///   vertex is measured.
    /// * Any error from `instrument` at a vertex.
    /// * [`ServerError::NonMonotoneInlet`] when a measured die
    ///   temperature is non-finite or falls as the inlet rises (see the
    ///   [module docs](self); no valid [`ServerModel`] does either).
    pub fn measure(
        u_axis: Vec<f64>,
        f_axis: Vec<f64>,
        t_axis: Vec<f64>,
        mut instrument: impl FnMut(
            Utilization,
            LitersPerHour,
            Celsius,
        ) -> Result<(Celsius, Celsius), ServerError>,
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
                    let (die, out) = instrument(util, LitersPerHour::new(f), Celsius::new(t))?;
                    cpu_temp.push(die.value());
                    outlet.push(out.value());
                }
            }
        }
        let space = LookupSpace {
            u_axis,
            f_axis,
            t_axis,
            cpu_temp,
            outlet,
        };
        space.check_rows()?;
        Ok(space)
    }

    /// The order [`banded`](Self::banded) relies on: along every
    /// `(u, f)` row the sampled die temperature is finite and never
    /// falls as the inlet rises.
    fn check_rows(&self) -> Result<(), ServerError> {
        let nf = self.f_axis.len();
        for (row, dies) in self.cpu_temp.chunks_exact(self.t_axis.len()).enumerate() {
            if dies.iter().any(|d| !d.is_finite()) || dies.windows(2).any(|w| w[0] > w[1]) {
                return Err(ServerError::NonMonotoneInlet {
                    u: self.u_axis[row / nf],
                    flow: self.f_axis[row % nf],
                });
            }
        }
        Ok(())
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
            cell: iu,
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
        Some(self.vertex(ifl, it))
    }

    fn vertex(&self, ifl: usize, it: usize) -> LatticePoint {
        LatticePoint {
            offset: ifl * self.t_axis.len() + it,
            flow: ifl,
        }
    }

    fn setting(&self, ifl: usize, it: usize) -> CoolingSetting {
        CoolingSetting {
            flow: LitersPerHour::new(self.f_axis[ifl]),
            inlet: Celsius::new(self.t_axis[it]),
        }
    }

    /// Every `(f, T_in)` lattice vertex with its setting, flow-major and
    /// inlet-minor.
    pub fn lattice(&self) -> impl Iterator<Item = (LatticePoint, CoolingSetting)> + '_ {
        (0..self.f_axis.len()).flat_map(move |ifl| {
            (0..self.t_axis.len()).map(move |it| (self.vertex(ifl, it), self.setting(ifl, it)))
        })
    }

    /// Coolant outlet and die temperature at a lattice vertex of a
    /// u-plane — the trilinear queries' answers at that setting and
    /// utilization, to the bit (see the [module docs](self)).
    #[must_use]
    pub fn temperatures_at(&self, plane: UPlane, point: LatticePoint) -> (Celsius, Celsius) {
        (self.outlet_at(plane, point), self.die_at(plane, point))
    }

    /// The outlet half of [`temperatures_at`](Self::temperatures_at).
    #[must_use]
    pub fn outlet_at(&self, plane: UPlane, point: LatticePoint) -> Celsius {
        Celsius::new(Self::blend(&self.outlet, plane, point))
    }

    /// The die half of [`temperatures_at`](Self::temperatures_at).
    #[must_use]
    pub fn die_at(&self, plane: UPlane, point: LatticePoint) -> Celsius {
        Celsius::new(Self::blend(&self.cpu_temp, plane, point))
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

    /// Indexes the safety band `|die − t_safe| ≤ tolerance` for
    /// [`banded`](Self::banded): per sampled u-plane and flow row, one
    /// binary search for the inlets whose die plus the rounding margin
    /// lies below the band and one for those whose die minus it lies
    /// above; per u-cell and flow row, the inlets between the shorter
    /// of each (see the [module docs](self)). The index is sound for
    /// any finite `t_safe` and any finite tolerance, a zero or negative
    /// one giving an empty band; the optimizer refuses non-finite
    /// values before it builds one.
    #[must_use]
    pub fn band_index(&self, t_safe: Celsius, tolerance: DegC) -> BandIndex {
        let mut band = BandIndex {
            t_safe,
            tolerance,
            rows: Vec::new(),
        };
        let nt = self.t_axis.len();
        let plane_rows = self.cpu_temp.chunks_exact(nt);
        // Rows never fall, so a row's largest magnitude is at an end.
        let largest = plane_rows.clone().fold(0.0_f64, |m, dies| {
            m.max(dies[0].abs()).max(dies[nt - 1].abs())
        });
        let margin = DegC::new(largest * BAND_MARGIN + f64::MIN_POSITIVE);
        // Per plane and row: how many inlets lie below the band even
        // with the margin added, and where those that lie above it with
        // the margin taken off begin.
        let bounds: Vec<(usize, usize)> = plane_rows
            .map(|dies| {
                let below = dies.partition_point(|&d| band.below(Celsius::new(d) + margin));
                let end = dies.partition_point(|&d| !band.above(Celsius::new(d) - margin));
                (below, end)
            })
            .collect();
        band.rows = bounds
            .iter()
            .zip(&bounds[self.f_axis.len()..])
            .map(|(&(below_a, end_a), &(below_b, end_b))| below_a.min(below_b)..end_a.max(end_b))
            .collect();
        band
    }

    /// The paper's Steps 2-3 (Sec. V-B1) at a u-plane: the lattice
    /// vertices whose die temperature passes `band`'s test — the region
    /// `A = U ∩ X` of Fig. 13 — each with its setting and die,
    /// flow-major and inlet-minor.
    ///
    /// Only the inlets `band` records for the plane's cell are read;
    /// every vertex outside them fails the test at any blend in the
    /// cell, and every die read is tested exactly, so the result is a
    /// full scan's, vertex for vertex (see the [module docs](self)).
    pub fn banded<'s>(
        &'s self,
        plane: UPlane,
        band: &'s BandIndex,
    ) -> impl Iterator<Item = (LatticePoint, CoolingSetting, Celsius)> + 's {
        let nf = self.f_axis.len();
        let rows = &band.rows[plane.cell * nf..(plane.cell + 1) * nf];
        rows.iter().enumerate().flat_map(move |(ifl, inlets)| {
            inlets.clone().filter_map(move |it| {
                let point = self.vertex(ifl, it);
                let die = self.die_at(plane, point);
                band.admits(die)
                    .then(|| (point, self.setting(ifl, it), die))
            })
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
        let Ok(plane) = self.plane(u) else {
            return Vec::new();
        };
        let band = self.band_index(t_safe, tolerance);
        self.banded(plane, &band)
            .map(|(_, setting, _)| setting)
            .collect()
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
    fn falling_or_non_finite_rows_rejected() {
        // Two u-planes × two flows × three inlets; rows are indexed
        // `iu·nf + ifl`. The paper model's rows all rise.
        let hand_made = |cpu_temp: Vec<f64>| LookupSpace {
            u_axis: vec![0.0, 1.0],
            f_axis: vec![20.0, 30.0],
            t_axis: vec![20.0, 30.0, 40.0],
            outlet: vec![0.0; cpu_temp.len()],
            cpu_temp,
        };
        let rising = vec![
            30.0, 40.0, 50.0, 28.0, 38.0, 48.0, //
            40.0, 50.0, 60.0, 35.0, 45.0, 55.0,
        ];
        assert_eq!(hand_made(rising.clone()).check_rows(), Ok(()));

        // A flat stretch never falls.
        let mut flat = rising.clone();
        flat[4] = 28.0;
        assert_eq!(hand_made(flat).check_rows(), Ok(()));

        // Row 3 (u = 1, f = 30) falls between its last two inlets.
        let mut falling = rising.clone();
        falling[11] = 44.0;
        assert_eq!(
            hand_made(falling).check_rows(),
            Err(ServerError::NonMonotoneInlet { u: 1.0, flow: 30.0 })
        );

        // Row 1 (u = 0, f = 30): a NaN or an infinity at either end.
        for (at, bad) in [(3, f64::NAN), (5, f64::INFINITY), (3, f64::NEG_INFINITY)] {
            let mut broken = rising.clone();
            broken[at] = bad;
            assert_eq!(
                hand_made(broken).check_rows(),
                Err(ServerError::NonMonotoneInlet { u: 0.0, flow: 30.0 }),
                "{bad} at {at}"
            );
        }
        assert!(ServerError::NonMonotoneInlet { u: 1.0, flow: 30.0 }
            .to_string()
            .contains("falls as inlet rises"));
        assert_eq!(space().check_rows(), Ok(()));
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
