//! Workload-scheduling policies (paper Sec. V-B2 and V-C).
//!
//! The inlet temperature of a circulation is capped by its *hottest*
//! server, so how load is spread across the circulation directly limits
//! TEG generation. The paper compares:
//!
//! * [`Original`] (`TEG_Original`) — no scheduling; the cooling setting
//!   must accommodate `U_max`;
//! * [`LoadBalance`] (`TEG_LoadBalance`) — balance load so every server
//!   runs near `U_avg`, flattening the cooling demand and admitting a
//!   warmer inlet.
//!
//! [`BoundedMigration`] and [`Consolidate`] are extensions: budget-
//! capped balancing (the practical cost of moving work) and
//! energy-proportionality packing (the anti-policy for H2P).
//!
//! # Examples
//!
//! ```
//! use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
//! use h2p_units::Utilization;
//!
//! let loads: Vec<_> = [0.1, 0.9, 0.2]
//!     .iter()
//!     .map(|&v| Utilization::new(v).unwrap())
//!     .collect();
//! assert_eq!(Original.control_utilization(&loads).value(), 0.9);
//! assert!((LoadBalance.control_utilization(&loads).value() - 0.4).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used as a deliberate NaN-rejecting validation idiom
// throughout (NaN fails the guard, unlike `x <= 0.0`).
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Test code opts back into panicking asserts/unwraps (see [workspace.lints]).
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::float_cmp,
        clippy::cast_lossless,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

use h2p_units::Utilization;

/// A workload-scheduling policy: how per-server loads are rearranged
/// each control interval, and which utilization plane the cooling
/// optimizer slices at (the paper's Step 1).
///
/// `Sync` is a supertrait: the simulation engine shards the independent
/// water circulations of one control interval across a scoped worker
/// pool (`h2p-exec`), and every worker consults the same policy
/// concurrently. Policies must therefore be safe to call from several
/// threads at once — in practice they are pure functions of their
/// input slice, and all provided policies are stateless.
pub trait SchedulingPolicy: Sync {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// The control utilization for the cooling-setting search —
    /// `U_max` for the baseline, `U_avg` under balancing.
    fn control_utilization(&self, loads: &[Utilization]) -> Utilization;

    /// [`control_utilization`](Self::control_utilization) of `loads`
    /// with `loads[slot]` replaced by `load`, bit for bit, where
    /// `current` is `control_utilization(loads)`. `loads` holds its
    /// own values again when this returns.
    ///
    /// The default puts `load` in, computes, and puts the old load
    /// back. A policy whose control utilization has an exact update
    /// rule (a maximum does; a mean's order-dependent sum does not)
    /// may answer from `current` without reading the other loads.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range (indexing).
    fn control_utilization_with(
        &self,
        loads: &mut [Utilization],
        current: Utilization,
        slot: usize,
        load: Utilization,
    ) -> Utilization {
        let _ = current;
        with_load(loads, slot, load, |loads| self.control_utilization(loads))
    }

    /// The per-server loads after this interval's scheduling. Must
    /// preserve total load and keep every entry in `\[0, 1\]`.
    fn schedule(&self, loads: &[Utilization]) -> Vec<Utilization>;
}

/// `control` of `loads` with `loads[slot]` replaced by `load`; the old
/// load is put back before it returns.
fn with_load(
    loads: &mut [Utilization],
    slot: usize,
    load: Utilization,
    control: impl FnOnce(&[Utilization]) -> Utilization,
) -> Utilization {
    let kept = std::mem::replace(&mut loads[slot], load);
    let u = control(loads);
    loads[slot] = kept;
    u
}

/// `TEG_Original`: adjust the cooling setting but never move work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Original;

impl SchedulingPolicy for Original {
    fn name(&self) -> &'static str {
        "TEG_Original"
    }

    fn control_utilization(&self, loads: &[Utilization]) -> Utilization {
        Utilization::max_of(loads)
    }

    /// `U_max` in O(1) when the answer is forced: a load above the
    /// current maximum is the new maximum, and raising a load that
    /// does not pass a positive maximum leaves it. The maximum of
    /// non-negative, non-NaN values is one value, and only a zero has
    /// two bit patterns (±0), so a zero maximum and a lowered load are
    /// rebuilt.
    fn control_utilization_with(
        &self,
        loads: &mut [Utilization],
        current: Utilization,
        slot: usize,
        load: Utilization,
    ) -> Utilization {
        if load > current {
            load
        } else if current.value() > 0.0 && load >= loads[slot] {
            current
        } else {
            with_load(loads, slot, load, Utilization::max_of)
        }
    }

    fn schedule(&self, loads: &[Utilization]) -> Vec<Utilization> {
        loads.to_vec()
    }
}

/// `TEG_LoadBalance`: perfectly balance the circulation each interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadBalance;

impl SchedulingPolicy for LoadBalance {
    fn name(&self) -> &'static str {
        "TEG_LoadBalance"
    }

    fn control_utilization(&self, loads: &[Utilization]) -> Utilization {
        Utilization::mean_of(loads)
    }

    fn schedule(&self, loads: &[Utilization]) -> Vec<Utilization> {
        let mean = Utilization::mean_of(loads);
        vec![mean; loads.len()]
    }
}

/// Consolidation: pack the circulation's load onto as few servers as
/// possible (the classic energy-proportionality play, cf. the
/// CoolProvision/SmoothOperator line of work the paper contrasts with).
///
/// For H2P this is the *anti*-policy: packing drives `U_max` to 100 %,
/// forcing the coldest inlet and the worst TEG harvest — the
/// `abl_policies` experiment quantifies it. It is provided exactly for
/// that comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Consolidate;

impl SchedulingPolicy for Consolidate {
    fn name(&self) -> &'static str {
        "TEG_Consolidate"
    }

    fn control_utilization(&self, loads: &[Utilization]) -> Utilization {
        Utilization::max_of(&self.schedule(loads))
    }

    fn schedule(&self, loads: &[Utilization]) -> Vec<Utilization> {
        let mut remaining: f64 = loads.iter().map(|u| u.value()).sum();
        loads
            .iter()
            .map(|_| {
                let take = remaining.min(1.0);
                remaining -= take;
                Utilization::saturating(take)
            })
            .collect()
    }
}

/// Balancing with a per-interval migration budget: no server's load may
/// change by more than `max_step` per interval, and total load is
/// conserved exactly.
///
/// With a generous budget this converges to [`LoadBalance`]; with a zero
/// budget it degenerates to [`Original`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedMigration {
    max_step: f64,
}

impl BoundedMigration {
    /// Creates a policy with the given per-server per-interval load
    /// budget (fraction of one server's capacity).
    ///
    /// # Panics
    ///
    /// Panics if `max_step` is negative or NaN.
    #[must_use]
    pub fn new(max_step: f64) -> Self {
        assert!(
            max_step >= 0.0 && !max_step.is_nan(),
            "max_step must be non-negative"
        );
        BoundedMigration { max_step }
    }

    /// The per-interval budget.
    #[must_use]
    pub fn max_step(&self) -> f64 {
        self.max_step
    }
}

impl SchedulingPolicy for BoundedMigration {
    fn name(&self) -> &'static str {
        "TEG_BoundedMigration"
    }

    fn control_utilization(&self, loads: &[Utilization]) -> Utilization {
        // The cooling setting must match the post-migration peak.
        Utilization::max_of(&self.schedule(loads))
    }

    fn schedule(&self, loads: &[Utilization]) -> Vec<Utilization> {
        if loads.len() < 2 || self.max_step == 0.0 {
            return loads.to_vec();
        }
        let mean = Utilization::mean_of(loads).value();
        // Budget-capped give (above mean) and take (below mean).
        let gives: Vec<f64> = loads
            .iter()
            .map(|u| (u.value() - mean).max(0.0).min(self.max_step))
            .collect();
        let takes: Vec<f64> = loads
            .iter()
            .map(|u| (mean - u.value()).max(0.0).min(self.max_step))
            .collect();
        let give_total: f64 = gives.iter().sum();
        let take_total: f64 = takes.iter().sum();
        let moved = give_total.min(take_total);
        if moved <= 0.0 {
            return loads.to_vec();
        }
        loads
            .iter()
            .zip(gives.iter().zip(&takes))
            .map(|(u, (&g, &t))| {
                let delta = t * moved / take_total - g * moved / give_total;
                Utilization::saturating(u.value() + delta)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(xs: &[f64]) -> Vec<Utilization> {
        xs.iter().map(|&v| Utilization::new(v).unwrap()).collect()
    }

    fn total(us: &[Utilization]) -> f64 {
        us.iter().map(|u| u.value()).sum()
    }

    #[test]
    fn original_is_identity_with_max_control() {
        let ls = loads(&[0.1, 0.7, 0.3]);
        assert_eq!(Original.schedule(&ls), ls);
        assert_eq!(Original.control_utilization(&ls).value(), 0.7);
        assert_eq!(Original.name(), "TEG_Original");
    }

    #[test]
    fn load_balance_flattens_exactly() {
        let ls = loads(&[0.1, 0.7, 0.4]);
        let out = LoadBalance.schedule(&ls);
        for u in &out {
            assert!((u.value() - 0.4).abs() < 1e-12);
        }
        assert!((total(&out) - total(&ls)).abs() < 1e-12);
        assert_eq!(LoadBalance.name(), "TEG_LoadBalance");
    }

    #[test]
    fn balance_lowers_control_plane() {
        // The essence of the paper's 13 % improvement: U_avg < U_max.
        let ls = loads(&[0.1, 0.9, 0.2, 0.2]);
        let umax = Original.control_utilization(&ls);
        let uavg = LoadBalance.control_utilization(&ls);
        assert!(uavg < umax);
    }

    #[test]
    fn bounded_migration_conserves_load() {
        let ls = loads(&[0.05, 0.95, 0.30, 0.50, 0.10]);
        for step in [0.0, 0.05, 0.2, 1.0] {
            let out = BoundedMigration::new(step).schedule(&ls);
            assert!(
                (total(&out) - total(&ls)).abs() < 1e-9,
                "step {step}: total changed"
            );
            for (a, b) in ls.iter().zip(&out) {
                assert!(
                    (a.value() - b.value()).abs() <= step + 1e-9,
                    "step {step}: budget violated"
                );
            }
        }
    }

    #[test]
    fn bounded_migration_reduces_peak() {
        let ls = loads(&[0.05, 0.95, 0.30]);
        let out = BoundedMigration::new(0.2).schedule(&ls);
        assert!(Utilization::max_of(&out) < Utilization::max_of(&ls));
    }

    #[test]
    fn bounded_migration_extremes() {
        let ls = loads(&[0.1, 0.9]);
        // Zero budget: identity.
        assert_eq!(BoundedMigration::new(0.0).schedule(&ls), ls);
        // Huge budget: converges to the mean.
        let out = BoundedMigration::new(1.0).schedule(&ls);
        for u in &out {
            assert!((u.value() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn single_server_is_noop_everywhere() {
        let ls = loads(&[0.42]);
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            assert_eq!(policy.schedule(&ls), ls);
            assert_eq!(policy.control_utilization(&ls).value(), 0.42);
        }
        assert_eq!(BoundedMigration::new(0.3).schedule(&ls), ls);
    }

    #[test]
    fn consolidate_packs_and_conserves() {
        let ls = loads(&[0.3, 0.5, 0.4, 0.1]);
        let out = Consolidate.schedule(&ls);
        assert!((total(&out) - total(&ls)).abs() < 1e-12);
        // 1.3 total load packs into one full server + one at 0.3.
        assert_eq!(out[0], Utilization::FULL);
        assert!((out[1].value() - 0.3).abs() < 1e-12);
        assert_eq!(out[2], Utilization::IDLE);
        assert_eq!(out[3], Utilization::IDLE);
        // The control plane is as bad as possible for H2P.
        assert_eq!(Consolidate.control_utilization(&ls), Utilization::FULL);
    }

    #[test]
    fn consolidate_control_ordering_vs_balance() {
        let ls = loads(&[0.2, 0.4, 0.3]);
        assert!(Consolidate.control_utilization(&ls) >= Original.control_utilization(&ls));
        assert!(Original.control_utilization(&ls) >= LoadBalance.control_utilization(&ls));
    }

    /// splitmix64: a dependency-free stream for random chunks.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A load drawn so that zeros of both signs and tied values are
    /// common.
    fn draw(state: &mut u64) -> Utilization {
        let fraction = match next(state) % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => 0.5,
            3 => 1.0,
            _ => (next(state) >> 11) as f64 / (1u64 << 53) as f64,
        };
        Utilization::new(fraction).unwrap()
    }

    #[test]
    fn control_utilization_with_is_the_rebuild_bit_for_bit() {
        let bounded = BoundedMigration::new(0.15);
        let policies: [&dyn SchedulingPolicy; 4] =
            [&Original, &LoadBalance, &bounded, &Consolidate];
        let bits = |us: &[Utilization]| us.iter().map(|u| u.value().to_bits()).collect::<Vec<_>>();
        let mut rng = 0x51a7_u64;
        // Cases under `U_max`: above the maximum, raised to at most a
        // positive maximum (from the slot holding it, or tying it), a
        // zero maximum, and a lowered load.
        let (mut above, mut raised, mut at_max, mut zero, mut lowered) = (0, 0, 0, 0, 0);
        for sched in policies {
            for _ in 0..2_000 {
                let n = 1 + (next(&mut rng) % 8) as usize;
                let mut loads: Vec<Utilization> = (0..n).map(|_| draw(&mut rng)).collect();
                let current = sched.control_utilization(&loads);
                let slot = if next(&mut rng).is_multiple_of(3) {
                    // The slot holding the maximum.
                    (0..n)
                        .max_by(|&a, &b| loads[a].value().total_cmp(&loads[b].value()))
                        .unwrap()
                } else {
                    (next(&mut rng) % n as u64) as usize
                };
                let load = match next(&mut rng) % 4 {
                    0 => loads[slot],
                    1 => current,
                    _ => draw(&mut rng),
                };
                let kept = bits(&loads);
                let mut rebuilt = loads.clone();
                rebuilt[slot] = load;
                let want = sched.control_utilization(&rebuilt);
                let got = sched.control_utilization_with(&mut loads, current, slot, load);
                assert_eq!(
                    got.value().to_bits(),
                    want.value().to_bits(),
                    "{}: {loads:?} with slot {slot} at {load:?}: {got:?} vs {want:?}",
                    sched.name()
                );
                assert_eq!(bits(&loads), kept, "{}: loads not restored", sched.name());
                if sched.name() == Original.name() {
                    if load > current {
                        above += 1;
                    } else if current.value() == 0.0 {
                        zero += 1;
                    } else if load < loads[slot] {
                        lowered += 1;
                    } else if loads[slot] == current {
                        at_max += 1;
                    } else {
                        raised += 1;
                    }
                }
            }
        }
        assert!(
            [above, raised, at_max, zero, lowered]
                .iter()
                .all(|&n| n > 50),
            "{above} {raised} {at_max} {zero} {lowered}"
        );
    }

    #[test]
    fn already_balanced_is_fixed_point() {
        let ls = loads(&[0.3, 0.3, 0.3]);
        assert_eq!(LoadBalance.schedule(&ls), ls);
        assert_eq!(BoundedMigration::new(0.2).schedule(&ls), ls);
    }
}
