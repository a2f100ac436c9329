//! The degradation account: what the fault stream cost the run.
//!
//! The engine evaluates every faulted circulation-step in *layers* —
//! healthy (H), sensor-corrupted setting (S), plus pump derate (P),
//! plus TEG device failures (F = the run's actual output) — and feeds
//! the per-layer harvest into a [`FaultLedger`]. Because the layer
//! deltas telescope,
//!
//! ```text
//! (H − S) + (S − P) + (P − F) = H − F,
//! ```
//!
//! the per-class attribution sums *exactly* (to floating-point
//! round-off) to the total healthy-vs-faulted harvest delta —
//! [`FaultLedger::reconciliation_error`] checks that invariant and the
//! acceptance tests pin it below 1e-9 relative.

use h2p_units::{Joules, Seconds, Watts};

/// The fault classes the ledger attributes harvest losses to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Stuck/noisy cold-source sensors (optimizer picks an off-optimum
    /// cooling setting, or the clamped fallback on implausible reads).
    Sensor,
    /// Pump degradation/outage (reduced flow, hotter outlets, possible
    /// emergency throttling).
    Pump,
    /// TEG device open-circuit failures (module output derated or
    /// killed through the wiring topology).
    Teg,
}

impl FaultClass {
    /// All classes, in ledger order.
    pub const ALL: [FaultClass; 3] = [FaultClass::Sensor, FaultClass::Pump, FaultClass::Teg];

    /// Stable lowercase label (used in the bench JSON emitter).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::Sensor => "sensor",
            FaultClass::Pump => "pump",
            FaultClass::Teg => "teg",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            FaultClass::Sensor => 0,
            FaultClass::Pump => 1,
            FaultClass::Teg => 2,
        }
    }
}

/// One step's cluster-wide power aggregate, in one accounting world
/// (fully healthy, or as actually simulated under faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepPowers {
    /// TEG harvest.
    pub teg: Watts,
    /// IT (server) power.
    pub it: Watts,
    /// Circulation pump power.
    pub pump: Watts,
    /// Cooling-plant power.
    pub plant: Watts,
}

impl StepPowers {
    /// All-zero powers.
    #[must_use]
    pub fn zero() -> Self {
        StepPowers {
            teg: Watts::zero(),
            it: Watts::zero(),
            pump: Watts::zero(),
            plant: Watts::zero(),
        }
    }
}

/// Per-class harvest losses for one circulation-step, from the layered
/// evaluation (each field is one telescoping difference, in watts;
/// negative values are legal — a fault can accidentally *help*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepAttribution {
    /// `teg_H − teg_S`: loss from deciding on a corrupted reading.
    pub sensor: Watts,
    /// `teg_S − teg_P`: loss from reduced flow (incl. induced throttle).
    pub pump: Watts,
    /// `teg_P − teg_F`: loss from open-circuited TEG devices.
    pub teg: Watts,
}

impl StepAttribution {
    /// No attribution (healthy circulation-step).
    #[must_use]
    pub fn zero() -> Self {
        StepAttribution {
            sensor: Watts::zero(),
            pump: Watts::zero(),
            teg: Watts::zero(),
        }
    }
}

/// Energy totals for one accounting world, joules (internal).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct EnergyTotals {
    teg: f64,
    it: f64,
    pump: f64,
    plant: f64,
}

impl EnergyTotals {
    fn add(&mut self, p: StepPowers, dt: f64) {
        self.teg += p.teg.value() * dt;
        self.it += p.it.value() * dt;
        self.pump += p.pump.value() * dt;
        self.plant += p.plant.value() * dt;
    }

    /// Facility overhead energy: everything that is not IT.
    fn overhead(&self) -> f64 {
        self.pump + self.plant
    }
}

/// Run-level degradation account, accumulated in circulation order by
/// the engine's ordered fold, one lane at a time — accumulation order
/// is deterministic regardless of worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultLedger {
    interval_s: f64,
    healthy: EnergyTotals,
    faulted: EnergyTotals,
    /// Per-class attributed harvest losses, joules ([`FaultClass::index`]).
    attributed: [f64; 3],
    throttled_server_steps: u64,
    fallback_steps: u64,
    faulted_circulation_steps: u64,
    offline_circulation_steps: u64,
}

impl FaultLedger {
    /// An empty ledger for a run with the given control interval.
    #[must_use]
    pub fn new(interval: Seconds) -> Self {
        FaultLedger {
            interval_s: interval.value().max(0.0),
            healthy: EnergyTotals::default(),
            faulted: EnergyTotals::default(),
            attributed: [0.0; 3],
            throttled_server_steps: 0,
            fallback_steps: 0,
            faulted_circulation_steps: 0,
            offline_circulation_steps: 0,
        }
    }

    /// Accumulates one step's healthy-world and faulted-world power
    /// aggregates.
    pub fn record_step(&mut self, healthy: StepPowers, faulted: StepPowers) {
        self.healthy.add(healthy, self.interval_s);
        self.faulted.add(faulted, self.interval_s);
    }

    /// Accumulates one circulation-step's per-class harvest attribution.
    pub fn record_attribution(&mut self, attribution: StepAttribution) {
        self.attributed[FaultClass::Sensor.index()] += attribution.sensor.value() * self.interval_s;
        self.attributed[FaultClass::Pump.index()] += attribution.pump.value() * self.interval_s;
        self.attributed[FaultClass::Teg.index()] += attribution.teg.value() * self.interval_s;
    }

    /// Counts `n` server-steps throttled because of a fault.
    pub fn note_throttled(&mut self, n: u64) {
        self.throttled_server_steps += n;
    }

    /// Counts one circulation-step where an implausible sensor reading
    /// forced the clamped fallback cooling setting.
    pub fn note_fallback(&mut self) {
        self.fallback_steps += 1;
    }

    /// Counts one circulation-step evaluated under any active fault.
    pub fn note_faulted_circulation(&mut self) {
        self.faulted_circulation_steps += 1;
    }

    /// Counts one circulation-step isolated offline (evaluation failed
    /// even on the degraded path; the circulation contributes zeros
    /// instead of aborting the run).
    pub fn note_offline(&mut self) {
        self.offline_circulation_steps += 1;
    }

    /// Harvested energy had no fault fired.
    #[must_use]
    pub fn healthy_harvest(&self) -> Joules {
        Joules::new(self.healthy.teg)
    }

    /// Harvested energy as actually simulated.
    #[must_use]
    pub fn faulted_harvest(&self) -> Joules {
        Joules::new(self.faulted.teg)
    }

    /// Total harvest lost to faults (healthy − faulted; can be
    /// negative if faults accidentally helped).
    #[must_use]
    pub fn harvest_delta(&self) -> Joules {
        Joules::new(self.healthy.teg - self.faulted.teg)
    }

    /// Harvest loss attributed to one fault class.
    #[must_use]
    pub fn class_harvest_delta(&self, class: FaultClass) -> Joules {
        Joules::new(self.attributed[class.index()])
    }

    /// Sum of the per-class attributions. By the telescoping
    /// construction this must equal [`harvest_delta`](Self::harvest_delta)
    /// up to floating-point round-off.
    #[must_use]
    pub fn attributed_harvest_delta(&self) -> Joules {
        Joules::new(self.attributed.iter().sum())
    }

    /// Relative disagreement between the total harvest delta and the
    /// per-class attribution — the ledger's self-check. Zero when both
    /// are zero.
    #[must_use]
    pub fn reconciliation_error(&self) -> f64 {
        let total = self.harvest_delta().value();
        let attributed = self.attributed_harvest_delta().value();
        let scale = total
            .abs()
            .max(attributed.abs())
            .max(self.healthy.teg.abs());
        if scale == 0.0 {
            0.0
        } else {
            (total - attributed).abs() / scale
        }
    }

    /// Partial PUE of the healthy world: `(IT + pump + plant) / IT`
    /// (power-delivery and lighting are outside the simulation's
    /// scope). Zero when no IT energy was drawn.
    #[must_use]
    pub fn healthy_pue(&self) -> f64 {
        partial_pue(&self.healthy)
    }

    /// Partial PUE as actually simulated.
    #[must_use]
    pub fn faulted_pue(&self) -> f64 {
        partial_pue(&self.faulted)
    }

    /// Partial ERE of the healthy world:
    /// `(IT + pump + plant − harvest) / IT`.
    #[must_use]
    pub fn healthy_ere(&self) -> f64 {
        partial_ere(&self.healthy)
    }

    /// Partial ERE as actually simulated.
    #[must_use]
    pub fn faulted_ere(&self) -> f64 {
        partial_ere(&self.faulted)
    }

    /// Fault-attributable PUE shift (faulted − healthy).
    #[must_use]
    pub fn pue_delta(&self) -> f64 {
        self.faulted_pue() - self.healthy_pue()
    }

    /// Fault-attributable ERE shift (faulted − healthy).
    #[must_use]
    pub fn ere_delta(&self) -> f64 {
        self.faulted_ere() - self.healthy_ere()
    }

    /// Server-steps throttled because of a fault.
    #[must_use]
    pub fn throttled_server_steps(&self) -> u64 {
        self.throttled_server_steps
    }

    /// Circulation-steps forced onto the clamped fallback setting.
    #[must_use]
    pub fn fallback_steps(&self) -> u64 {
        self.fallback_steps
    }

    /// Circulation-steps evaluated under at least one active fault.
    #[must_use]
    pub fn faulted_circulation_steps(&self) -> u64 {
        self.faulted_circulation_steps
    }

    /// Circulation-steps isolated offline instead of aborting the run.
    #[must_use]
    pub fn offline_circulation_steps(&self) -> u64 {
        self.offline_circulation_steps
    }
}

fn partial_pue(e: &EnergyTotals) -> f64 {
    if e.it > 0.0 {
        (e.it + e.overhead()) / e.it
    } else {
        0.0
    }
}

fn partial_ere(e: &EnergyTotals) -> f64 {
    if e.it > 0.0 {
        (e.it + e.overhead() - e.teg) / e.it
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn powers(teg: f64, it: f64, pump: f64, plant: f64) -> StepPowers {
        StepPowers {
            teg: Watts::new(teg),
            it: Watts::new(it),
            pump: Watts::new(pump),
            plant: Watts::new(plant),
        }
    }

    #[test]
    fn empty_ledger_is_all_zero() {
        let ledger = FaultLedger::new(Seconds::new(300.0));
        assert_eq!(ledger.harvest_delta(), Joules::zero());
        assert_eq!(ledger.attributed_harvest_delta(), Joules::zero());
        assert_eq!(ledger.reconciliation_error(), 0.0);
        assert_eq!(ledger.healthy_pue(), 0.0);
        assert_eq!(ledger.pue_delta(), 0.0);
        assert_eq!(ledger.throttled_server_steps(), 0);
    }

    #[test]
    fn telescoping_attribution_reconciles() {
        let mut ledger = FaultLedger::new(Seconds::new(300.0));
        // Layered harvests per step: H=10, S=9.5, P=8, F=6.5 W.
        let (h, s, p, f) = (10.0, 9.5, 8.0, 6.5);
        for _ in 0..288 {
            ledger.record_step(powers(h, 100.0, 5.0, 20.0), powers(f, 100.0, 5.0, 22.0));
            ledger.record_attribution(StepAttribution {
                sensor: Watts::new(h - s),
                pump: Watts::new(s - p),
                teg: Watts::new(p - f),
            });
        }
        let delta = ledger.harvest_delta().value();
        assert!((delta - (10.0 - 6.5) * 300.0 * 288.0).abs() < 1e-9);
        assert!(ledger.reconciliation_error() < 1e-12);
        assert!(
            ledger.class_harvest_delta(FaultClass::Teg).value()
                > ledger.class_harvest_delta(FaultClass::Sensor).value()
        );
        // PUE worsens (more plant, less harvest does not enter PUE);
        // ERE worsens more (harvest enters it).
        assert!(ledger.pue_delta() > 0.0);
        assert!(ledger.ere_delta() > ledger.pue_delta());
    }

    #[test]
    fn negative_deltas_are_representable() {
        // A "fault" that helps (e.g. a stuck sensor happening to pick
        // a better setting) must reconcile too.
        let mut ledger = FaultLedger::new(Seconds::new(60.0));
        ledger.record_step(powers(5.0, 50.0, 2.0, 10.0), powers(5.5, 50.0, 2.0, 10.0));
        ledger.record_attribution(StepAttribution {
            sensor: Watts::new(-0.5),
            pump: Watts::zero(),
            teg: Watts::zero(),
        });
        assert!(ledger.harvest_delta().value() < 0.0);
        assert!(ledger.reconciliation_error() < 1e-12);
    }

    #[test]
    fn counters_accumulate() {
        let mut ledger = FaultLedger::new(Seconds::new(300.0));
        ledger.note_throttled(3);
        ledger.note_throttled(2);
        ledger.note_fallback();
        ledger.note_faulted_circulation();
        ledger.note_faulted_circulation();
        ledger.note_offline();
        assert_eq!(ledger.throttled_server_steps(), 5);
        assert_eq!(ledger.fallback_steps(), 1);
        assert_eq!(ledger.faulted_circulation_steps(), 2);
        assert_eq!(ledger.offline_circulation_steps(), 1);
    }

    #[test]
    fn class_labels_are_stable() {
        let labels: Vec<_> = FaultClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["sensor", "pump", "teg"]);
    }
}
