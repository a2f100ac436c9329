//! The change-detection event kernel behind [`Simulator`]'s
//! tolerant engine path (DESIGN.md §13).
//!
//! A dense run re-simulates every circulation every control interval
//! even when its load barely moves. With a kernel configured, each
//! circulation's lane re-evaluates only when
//!
//! 1. its control utilization or the cold-source temperature has moved
//!    beyond the configured [`KernelTolerance`] since the last
//!    evaluation (a **change event**),
//! 2. a fault is live on it at this step
//!    ([`CompiledFaults::active_at`](h2p_faults::CompiledFaults::active_at)
//!    returns `Some`: a **forced** evaluation), or
//! 3. it has no held decision yet: the first step, or any step whose
//!    predecessor was forced. A forced step discards the hold and a
//!    faulted evaluation is never committed, so the first step after
//!    a fault window re-evaluates without being told to.
//!
//! Everything else **holds**: the circulation's last committed
//! [`CircPartial`] is replayed into the interval fold unchanged.
//!
//! # Transparency contract
//!
//! [`KernelTolerance::exact`] (`tolerance = 0`) degenerates to the
//! exact stepper: a hold is taken only when the circulation's *entire
//! load chunk* and the cold-source temperature are **bit-identical** to
//! the held decision's. Because a circulation's evaluation is a pure
//! function of `(chunk, cold)` (the setting cache is exact-keyed),
//! replaying the held partial returns the very bits a re-evaluation
//! would — so `tolerance = 0` runs are bit-identical to dense runs
//! (`tests/kernel_transparency.rs`).
//!
//! At `tolerance > 0` the dirty rule is the paper-facing one: compare
//! the *control utilization* (the only load statistic the cooling
//! decision consumes) and the cold temperature against the **anchor**
//! values of the last evaluation. Comparing against the anchor — not
//! the previous step — means slow drift accumulates until it crosses
//! the tolerance and forces a refresh; staleness is bounded by the
//! tolerance, never compounding.
//!
//! # Determinism
//!
//! A [`ChangeKernel`] is one circulation's state, owned by the lane
//! that walks that circulation through every step: holds never cross
//! circulations, so the lane-to-thread mapping cannot change a result.
//! Nothing here reads clocks or RNG (h2p-lint L9).

use crate::simulation::CircPartial;
use crate::H2pError;
use h2p_units::Utilization;

#[cfg(doc)]
use crate::simulation::Simulator;

/// Change tolerances deciding when a held circulation decision must be
/// re-evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTolerance {
    utilization: f64,
    cold: f64,
}

impl KernelTolerance {
    /// The exact kernel: a circulation is held only when its load chunk
    /// and the cold temperature are bit-identical to the held decision.
    /// Bit-identical to a dense run by construction.
    #[must_use]
    pub fn exact() -> Self {
        KernelTolerance {
            utilization: 0.0,
            cold: 0.0,
        }
    }

    /// A tolerance of `value` on both axes: control utilization (in
    /// absolute utilization units) and cold temperature (in °C).
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::InvalidTolerance`] when `value` is negative
    /// or non-finite.
    pub fn uniform(value: f64) -> Result<Self, H2pError> {
        KernelTolerance::new(value, value)
    }

    /// Separate tolerances for the control-utilization axis (absolute
    /// utilization units) and the cold-temperature axis (°C).
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::InvalidTolerance`] when either value is
    /// negative or non-finite.
    pub fn new(utilization: f64, cold: f64) -> Result<Self, H2pError> {
        for (name, value) in [("utilization", utilization), ("cold", cold)] {
            if !(value >= 0.0) || !value.is_finite() {
                return Err(H2pError::InvalidTolerance { name, value });
            }
        }
        Ok(KernelTolerance { utilization, cold })
    }

    /// The control-utilization tolerance.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// The cold-temperature tolerance, °C.
    #[must_use]
    pub fn cold(&self) -> f64 {
        self.cold
    }

    /// Whether this is the exact (bit-identity) kernel.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.utilization == 0.0 && self.cold == 0.0
    }
}

/// Cumulative evaluated/held accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct KernelStats {
    /// Circulation-steps re-simulated (change events, live faults and
    /// steps with nothing held; every circulation-step of a dense run).
    pub evaluated: u64,
    /// Circulation-steps answered from held decisions.
    pub held: u64,
}

impl KernelStats {
    /// Adds another lane's accounting.
    pub(crate) fn absorb(&mut self, other: KernelStats) {
        self.evaluated += other.evaluated;
        self.held += other.held;
    }
}

/// The last committed decision of one circulation: the comparison
/// anchor plus the partial that replays on a hold.
#[derive(Debug, Clone)]
struct HeldDecision {
    /// The load chunk the decision was evaluated under (exact mode
    /// compares it bitwise).
    loads: Vec<Utilization>,
    /// Control utilization at evaluation (the tolerant-mode anchor).
    u_control: f64,
    /// Cold-source temperature at evaluation, °C.
    cold: f64,
    /// The committed per-circulation aggregate.
    partial: CircPartial,
}

/// One circulation's change-detection state: its held decision and
/// its accounting. Without a tolerance (a dense run) it never holds
/// and counts every step as evaluated.
#[derive(Debug, Clone)]
pub(crate) struct ChangeKernel {
    tolerance: Option<KernelTolerance>,
    held: Option<HeldDecision>,
    stats: KernelStats,
}

impl ChangeKernel {
    /// A kernel with nothing held yet (`None` = dense).
    pub(crate) fn new(tolerance: Option<KernelTolerance>) -> Self {
        ChangeKernel {
            tolerance,
            held: None,
            stats: KernelStats::default(),
        }
    }

    /// Classifies one step: `Some(partial)` means the held decision
    /// replays, `None` means the caller must evaluate. A `forced` step
    /// (a live fault) discards the hold first, so a post-recovery hold
    /// never replays state committed under different fault conditions.
    ///
    /// Exact mode holds only on a bitwise match of the full load chunk
    /// and the cold temperature; tolerant mode compares `u_ctrl` and
    /// `cold` against the anchor with NaN-rejecting guards (a NaN on
    /// either side re-evaluates).
    pub(crate) fn classify(
        &mut self,
        chunk: &[Utilization],
        u_ctrl: f64,
        cold: f64,
        forced: bool,
    ) -> Option<CircPartial> {
        let Some(tolerance) = self.tolerance else {
            self.stats.evaluated += 1;
            return None;
        };
        if forced {
            self.held = None;
        }
        let clean = self.held.as_ref().filter(|held| {
            if tolerance.is_exact() {
                held.cold.to_bits() == cold.to_bits()
                    && held.loads.len() == chunk.len()
                    && held
                        .loads
                        .iter()
                        .zip(chunk)
                        .all(|(a, b)| a.value().to_bits() == b.value().to_bits())
            } else {
                // `x <= tol` is false for NaN deltas: NaN never holds.
                (u_ctrl - held.u_control).abs() <= tolerance.utilization
                    && (cold - held.cold).abs() <= tolerance.cold
            }
        });
        match clean {
            Some(held) => {
                self.stats.held += 1;
                Some(held.partial)
            }
            None => {
                self.stats.evaluated += 1;
                None
            }
        }
    }

    /// Commits a fresh fault-free evaluation as the new anchor (a
    /// no-op for a dense run, which never holds).
    pub(crate) fn commit(
        &mut self,
        chunk: &[Utilization],
        u_ctrl: f64,
        cold: f64,
        partial: CircPartial,
    ) {
        if self.tolerance.is_none() {
            return;
        }
        let mut loads = self.held.take().map(|h| h.loads).unwrap_or_default();
        loads.clear();
        loads.extend_from_slice(chunk);
        self.held = Some(HeldDecision {
            loads,
            u_control: u_ctrl,
            cold,
            partial,
        });
    }

    /// Cumulative accounting since construction.
    pub(crate) fn stats(&self) -> KernelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partial(teg: f64) -> CircPartial {
        CircPartial {
            teg,
            ..CircPartial::ZERO
        }
    }

    fn u(values: &[f64]) -> Vec<Utilization> {
        values.iter().map(|&v| Utilization::saturating(v)).collect()
    }

    #[test]
    fn tolerance_validation() {
        assert!(KernelTolerance::exact().is_exact());
        assert!(KernelTolerance::uniform(0.0).unwrap().is_exact());
        let t = KernelTolerance::new(0.01, 0.5).unwrap();
        assert!(!t.is_exact());
        assert_eq!(t.utilization(), 0.01);
        assert_eq!(t.cold(), 0.5);
        assert!(matches!(
            KernelTolerance::uniform(-0.1),
            Err(H2pError::InvalidTolerance { .. })
        ));
        assert!(matches!(
            KernelTolerance::new(f64::NAN, 0.0),
            Err(H2pError::InvalidTolerance {
                name: "utilization",
                ..
            })
        ));
        assert!(matches!(
            KernelTolerance::new(0.0, f64::INFINITY),
            Err(H2pError::InvalidTolerance { name: "cold", .. })
        ));
    }

    #[test]
    fn exact_mode_holds_only_on_bitwise_match() {
        let mut k = ChangeKernel::new(Some(KernelTolerance::exact()));
        let chunk = u(&[0.25, 0.5]);
        assert!(
            k.classify(&chunk, 0.375, 20.0, false).is_none(),
            "cold start is dirty"
        );
        k.commit(&chunk, 0.375, 20.0, partial(1.0));
        assert_eq!(k.classify(&chunk, 0.375, 20.0, false).unwrap().teg, 1.0);
        // A one-ulp load wiggle with the same u_control is still dirty.
        let wiggled = u(&[0.25, f64::from_bits(0.5f64.to_bits() + 1)]);
        assert!(k.classify(&wiggled, 0.375, 20.0, false).is_none());
        // Cold moves -> dirty; chunk length changes -> dirty.
        assert!(k.classify(&chunk, 0.375, 20.000001, false).is_none());
        assert!(k.classify(&chunk[..1], 0.375, 20.0, false).is_none());
        // The anchor is untouched by dirty classifications.
        assert!(k.classify(&chunk, 0.375, 20.0, false).is_some());
    }

    #[test]
    fn tolerant_mode_anchors_at_last_evaluation() {
        let mut k = ChangeKernel::new(Some(KernelTolerance::uniform(0.1).unwrap()));
        k.commit(&u(&[0.5]), 0.5, 20.0, partial(2.0));
        // Inside the band on both axes: hold, even as loads wiggle.
        assert!(k.classify(&u(&[0.55]), 0.55, 20.05, false).is_some());
        assert!(k.classify(&u(&[0.41]), 0.41, 19.91, false).is_some());
        // The anchor stays at the last evaluation, so a slow drift past
        // the band re-evaluates even though per-step deltas are tiny.
        assert!(k.classify(&u(&[0.61]), 0.61, 20.0, false).is_none());
        assert!(k.classify(&u(&[0.5]), 0.5, 20.11, false).is_none());
        // NaN never holds.
        assert!(k.classify(&u(&[0.5]), f64::NAN, 20.0, false).is_none());
    }

    #[test]
    fn forced_steps_invalidate_holds() {
        let mut k = ChangeKernel::new(Some(KernelTolerance::uniform(1.0).unwrap()));
        k.commit(&u(&[0.5]), 0.5, 20.0, partial(1.0));
        assert!(k.classify(&u(&[0.5]), 0.5, 20.0, true).is_none());
        assert!(
            k.classify(&u(&[0.5]), 0.5, 20.0, false).is_none(),
            "force discards the hold: the next step re-evaluates from scratch"
        );
        k.commit(&u(&[0.5]), 0.5, 20.0, partial(3.0));
        assert_eq!(k.classify(&u(&[0.5]), 0.5, 20.0, false).unwrap().teg, 3.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut k = ChangeKernel::new(Some(KernelTolerance::exact()));
        let chunk = u(&[0.5]);
        assert!(k.classify(&chunk, 0.5, 20.0, false).is_none());
        k.commit(&chunk, 0.5, 20.0, partial(1.0));
        assert!(k.classify(&chunk, 0.5, 20.0, false).is_some());
        assert!(k.classify(&chunk, 0.5, 20.0, true).is_none());
        let s = k.stats();
        assert_eq!((s.evaluated, s.held), (2, 1));

        // A dense kernel never holds and counts every step evaluated.
        let mut dense = ChangeKernel::new(None);
        dense.commit(&chunk, 0.5, 20.0, partial(1.0));
        for forced in [false, true] {
            assert!(dense.classify(&chunk, 0.5, 20.0, forced).is_none());
        }
        let mut total = KernelStats::default();
        total.absorb(dense.stats());
        total.absorb(s);
        assert_eq!((total.evaluated, total.held), (4, 1));
    }
}
