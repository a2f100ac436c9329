//! Fault plans: seeded fault-event streams and their compiled,
//! per-circulation query form.
//!
//! A [`FaultPlan`] is authored either as an explicit schedule
//! ([`FaultPlan::from_events`]) or sampled from per-component hazard
//! rates ([`FaultPlan::from_hazards`]); either way it is a plain value.
//! [`FaultPlan::compile`] binds it to one run's geometry and produces
//! [`CompiledFaults`], whose [`active_at`](CompiledFaults::active_at)
//! is a pure function of `(plan, circulation, step)` — the property
//! the engine's bit-identical parallelism rests on.

use crate::FaultError;
use h2p_teg::reliability::{exponential_failure_time, ModuleReliability};
use h2p_units::{Celsius, DegC, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hours in a Julian year, for converting device MTTFs (quoted in
/// years by the TEG datasheet math) onto run-step horizons.
const HOURS_PER_YEAR: f64 = 365.25 * 24.0;

/// Stream salts keeping per-component RNG draws independent of one
/// another (and of any future fault class) under a single plan seed.
const SALT_TEG: u64 = 0x7465_675f_6f70_656e; // "teg_open"
const SALT_PUMP: u64 = 0x7075_6d70_5f68_617a; // "pump_haz"
const SALT_SENSOR: u64 = 0x7365_6e73_5f68_617a; // "sens_haz"
const SALT_NOISE: u64 = 0x6e6f_6973_655f_6f66; // "noise_of"

/// Journal event name recorded when a fault class becomes active in a
/// circulation (see [`CompiledFaults::journal_transitions_at`]).
pub const FAULT_ACTIVATED_EVENT: &str = "fault_activated";

/// Journal event name recorded when a fault class recovers in a
/// circulation (see [`CompiledFaults::journal_transitions_at`]).
pub const FAULT_RECOVERED_EVENT: &str = "fault_recovered";

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Open-circuit failure of `failed_devices` TEG devices on one
    /// server's module. Overlapping events on the same server are
    /// additive (clamped to the module's device count downstream).
    TegOpenCircuit {
        /// Global server index (across the whole cluster).
        server: usize,
        /// Number of devices newly open-circuited by this event.
        failed_devices: usize,
    },
    /// Pump wear/cavitation: the circulation's pump achieves only
    /// `derate` of the commanded flow. `derate` must lie in `(0, 1)`;
    /// overlapping derates multiply.
    PumpDegraded {
        /// Circulation index.
        circulation: usize,
        /// Achieved fraction of commanded flow.
        derate: f64,
    },
    /// Pump fully offline: the circulation falls back to residual
    /// (thermosiphon) flow and draws no pump power.
    PumpOutage {
        /// Circulation index.
        circulation: usize,
    },
    /// The circulation's whole CDU is down (maintenance, emergency
    /// stop): no coolant moves at all, so its servers cannot run and
    /// the circulation is **isolated offline** for the window — zero
    /// load, zero harvest, zero flow. Attributed to the pump class
    /// (the CDU's pump/exchanger subsystem is what failed).
    CduOutage {
        /// Circulation index.
        circulation: usize,
    },
    /// The circulation's cold-source sensor is frozen at `reading`
    /// (the optimizer sees it; the physics keeps the true value).
    SensorStuck {
        /// Circulation index.
        circulation: usize,
        /// The frozen reading.
        reading: Celsius,
    },
    /// The circulation's cold-source sensor reads with additive
    /// zero-mean Gaussian noise of width `sigma`.
    SensorNoise {
        /// Circulation index.
        circulation: usize,
        /// Noise standard deviation.
        sigma: DegC,
    },
}

/// A fault active over a half-open step window `[start_step, end_step)`.
///
/// `end_step: None` means "until the end of the run" (a permanent
/// fault, e.g. a TEG device open-circuit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What fails.
    pub kind: FaultKind,
    /// First control step the fault is active at.
    pub start_step: usize,
    /// One past the last active step; `None` = rest of the run.
    pub end_step: Option<usize>,
}

impl FaultEvent {
    /// A fault active from `start_step` to the end of the run.
    #[must_use]
    pub fn permanent(kind: FaultKind, start_step: usize) -> Self {
        FaultEvent {
            kind,
            start_step,
            end_step: None,
        }
    }

    /// A fault active over `[start_step, end_step)`.
    #[must_use]
    pub fn windowed(kind: FaultKind, start_step: usize, end_step: usize) -> Self {
        FaultEvent {
            kind,
            start_step,
            end_step: Some(end_step),
        }
    }
}

/// Per-component hazard rates from which [`FaultPlan::from_hazards`]
/// samples a concrete schedule.
///
/// TEG device lifetimes come from the *same* exponential survival
/// model as [`ModuleReliability`] — this struct holds the module
/// description and calls
/// [`exponential_failure_time`](h2p_teg::reliability::exponential_failure_time)
/// rather than re-deriving hazard math.
#[derive(Debug, Clone, PartialEq)]
pub struct HazardRates {
    /// TEG module wiring + device MTTF (drives open-circuit sampling).
    pub module: ModuleReliability,
    /// Mean time between pump failures, hours.
    pub pump_mtbf_hours: f64,
    /// Mean pump repair time, hours.
    pub pump_repair_hours: f64,
    /// Probability a pump failure is a full outage (vs. degradation).
    pub pump_outage_probability: f64,
    /// Achieved-flow fraction during pump degradation, in `(0, 1)`.
    pub pump_derate: f64,
    /// Mean time between cold-source sensor failures, hours.
    pub sensor_mtbf_hours: f64,
    /// Mean sensor repair time, hours.
    pub sensor_repair_hours: f64,
    /// Stuck readings are drawn uniformly from this range.
    pub sensor_stuck_range: (Celsius, Celsius),
    /// Noise width when a sensor failure manifests as noise.
    pub sensor_noise_sigma: DegC,
}

impl HazardRates {
    /// Accelerated rates for reliability *ablation*: real TEG MTTFs
    /// (decades) and pump MTBFs (~40k h) would make a 288-step day
    /// fault-free almost surely, so this profile compresses hazards
    /// until a day-long 1,000-server run sees a handful of each fault
    /// class. Use it to study degradation mechanics, not to estimate
    /// field failure rates.
    #[must_use]
    pub fn accelerated_demo() -> Self {
        // Paper module wiring (12 devices, bypass diodes), device MTTF
        // compressed from decades to ~2000 h. The constructor cannot
        // fail on these constants; fall back to the paper module if the
        // validation contract ever tightens.
        let module = ModuleReliability::new(
            12,
            2000.0 / HOURS_PER_YEAR,
            h2p_teg::reliability::WiringTopology::SeriesWithBypass,
        )
        .unwrap_or_else(|_| ModuleReliability::paper_default());
        HazardRates {
            module,
            pump_mtbf_hours: 60.0,
            pump_repair_hours: 4.0,
            pump_outage_probability: 0.3,
            pump_derate: 0.5,
            sensor_mtbf_hours: 40.0,
            sensor_repair_hours: 2.0,
            sensor_stuck_range: (Celsius::new(-5.0), Celsius::new(70.0)),
            sensor_noise_sigma: DegC::new(3.0),
        }
    }

    fn validate(&self) -> Result<(), FaultError> {
        let positives = [
            ("pump_mtbf_hours", self.pump_mtbf_hours),
            ("pump_repair_hours", self.pump_repair_hours),
            ("sensor_mtbf_hours", self.sensor_mtbf_hours),
            ("sensor_repair_hours", self.sensor_repair_hours),
            ("sensor_noise_sigma", self.sensor_noise_sigma.value()),
        ];
        for (name, value) in positives {
            if !(value > 0.0) {
                return Err(FaultError::NonPositiveParameter { name, value });
            }
        }
        if !(self.pump_outage_probability >= 0.0 && self.pump_outage_probability <= 1.0) {
            return Err(FaultError::NonPositiveParameter {
                name: "pump_outage_probability",
                value: self.pump_outage_probability,
            });
        }
        if !(self.pump_derate > 0.0 && self.pump_derate < 1.0) {
            return Err(FaultError::InvalidDerate {
                value: self.pump_derate,
            });
        }
        if !(self.sensor_stuck_range.0.value() <= self.sensor_stuck_range.1.value()) {
            return Err(FaultError::NonPositiveParameter {
                name: "sensor_stuck_range",
                value: self.sensor_stuck_range.1.value() - self.sensor_stuck_range.0.value(),
            });
        }
        Ok(())
    }
}

/// A seeded, deterministic fault-event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    seed: u64,
    module_wiring: ModuleReliability,
}

/// Plausibility band for cold-source readings, in °C: the paper's
/// cooling sources (wet-bulb-driven cooling-tower water) live well
/// inside 0–45 °C; anything outside is treated as a sensor fault and
/// triggers the clamped fallback setting.
const PLAUSIBLE_LO: f64 = 0.0;
const PLAUSIBLE_HI: f64 = 45.0;

impl FaultPlan {
    /// The empty plan: no faults, ever. Runs under this plan must be
    /// bit-identical to plan-free runs (tested in `h2p-core`).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            events: Vec::new(),
            seed: 0,
            module_wiring: ModuleReliability::paper_default(),
        }
    }

    /// An explicit schedule.
    ///
    /// The seed only matters if the schedule contains
    /// [`FaultKind::SensorNoise`] events (it keys the per-step noise
    /// hash); pass any fixed value otherwise.
    ///
    /// # Errors
    ///
    /// Rejects empty event windows, pump derates outside `(0, 1)`,
    /// and non-positive / non-finite noise widths.
    pub fn from_events(events: Vec<FaultEvent>, seed: u64) -> Result<Self, FaultError> {
        for (index, event) in events.iter().enumerate() {
            if let Some(end) = event.end_step {
                if end <= event.start_step {
                    return Err(FaultError::EmptyWindow { index });
                }
            }
            match event.kind {
                FaultKind::PumpDegraded { derate, .. } => {
                    if !(derate > 0.0 && derate < 1.0) {
                        return Err(FaultError::InvalidDerate { value: derate });
                    }
                }
                FaultKind::SensorNoise { sigma, .. } => {
                    if !(sigma.value() > 0.0) || !sigma.value().is_finite() {
                        return Err(FaultError::NonPositiveParameter {
                            name: "sigma",
                            value: sigma.value(),
                        });
                    }
                }
                FaultKind::TegOpenCircuit { .. }
                | FaultKind::PumpOutage { .. }
                | FaultKind::CduOutage { .. }
                | FaultKind::SensorStuck { .. } => {}
            }
        }
        Ok(FaultPlan {
            events,
            seed,
            module_wiring: ModuleReliability::paper_default(),
        })
    }

    /// Samples a schedule from hazard rates for a run of
    /// `steps` × `interval` over `servers` servers grouped into
    /// circulations of `circulation_size`.
    ///
    /// Each component (every TEG device, every pump, every sensor)
    /// gets its own seeded RNG stream — `seed ⊕ salt ⊕ index` — so the
    /// sampled schedule is a pure value: independent of iteration
    /// order, worker count, and of how many *other* components exist.
    /// Failure times are drawn through
    /// [`exponential_failure_time`], the inverse-CDF of the same
    /// constant-hazard survival model `ModuleReliability` quotes.
    ///
    /// # Errors
    ///
    /// Propagates [`HazardRates`] validation failures.
    pub fn from_hazards(
        rates: &HazardRates,
        seed: u64,
        servers: usize,
        circulation_size: usize,
        steps: usize,
        interval: Seconds,
    ) -> Result<Self, FaultError> {
        rates.validate()?;
        if !(interval.value() > 0.0) {
            return Err(FaultError::NonPositiveParameter {
                name: "interval",
                value: interval.value(),
            });
        }
        let circulation_size = circulation_size.max(1);
        let hours_per_step = interval.value() / 3600.0;
        let horizon_hours = hours_per_step * steps as f64;
        let circulations = servers.div_ceil(circulation_size);
        let mut events = Vec::new();

        // TEG devices: one permanent open-circuit per device whose
        // sampled lifetime lands inside the horizon.
        let device_mttf_hours = rates.module.device_mttf_years() * HOURS_PER_YEAR;
        for server in 0..servers {
            let mut rng = StdRng::seed_from_u64(seed ^ SALT_TEG ^ server as u64);
            for _device in 0..rates.module.devices() {
                let u = rng.gen_range(0.0..1.0f64);
                let fail_hours = exponential_failure_time(u, device_mttf_hours);
                if fail_hours < horizon_hours {
                    let step = step_of(fail_hours, hours_per_step, steps);
                    events.push(FaultEvent::permanent(
                        FaultKind::TegOpenCircuit {
                            server,
                            failed_devices: 1,
                        },
                        step,
                    ));
                }
            }
        }

        // Pumps: alternating fail/repair renewal process.
        for circulation in 0..circulations {
            let mut rng = StdRng::seed_from_u64(seed ^ SALT_PUMP ^ circulation as u64);
            let mut t = 0.0;
            loop {
                let u = rng.gen_range(0.0..1.0f64);
                t += exponential_failure_time(u, rates.pump_mtbf_hours);
                if t >= horizon_hours {
                    break;
                }
                let u = rng.gen_range(0.0..1.0f64);
                let repair = exponential_failure_time(u, rates.pump_repair_hours);
                let start = step_of(t, hours_per_step, steps);
                let end = step_of(t + repair, hours_per_step, steps).max(start + 1);
                let kind = if rng.gen_bool(rates.pump_outage_probability) {
                    FaultKind::PumpOutage { circulation }
                } else {
                    FaultKind::PumpDegraded {
                        circulation,
                        derate: rates.pump_derate,
                    }
                };
                events.push(FaultEvent::windowed(kind, start, end.min(steps)));
                t += repair.max(hours_per_step);
            }
        }

        // Sensors: same renewal process; each failure manifests as
        // stuck-at (uniform in the configured range) or noisy, 50/50.
        for circulation in 0..circulations {
            let mut rng = StdRng::seed_from_u64(seed ^ SALT_SENSOR ^ circulation as u64);
            let mut t = 0.0;
            loop {
                let u = rng.gen_range(0.0..1.0f64);
                t += exponential_failure_time(u, rates.sensor_mtbf_hours);
                if t >= horizon_hours {
                    break;
                }
                let u = rng.gen_range(0.0..1.0f64);
                let repair = exponential_failure_time(u, rates.sensor_repair_hours);
                let start = step_of(t, hours_per_step, steps);
                let end = step_of(t + repair, hours_per_step, steps).max(start + 1);
                let kind = if rng.gen_bool(0.5) {
                    let (lo, hi) = rates.sensor_stuck_range;
                    let reading = if hi.value() > lo.value() {
                        Celsius::new(rng.gen_range(lo.value()..hi.value()))
                    } else {
                        lo
                    };
                    FaultKind::SensorStuck {
                        circulation,
                        reading,
                    }
                } else {
                    FaultKind::SensorNoise {
                        circulation,
                        sigma: rates.sensor_noise_sigma,
                    }
                };
                events.push(FaultEvent::windowed(kind, start, end.min(steps)));
                t += repair.max(hours_per_step);
            }
        }

        let mut plan = FaultPlan::from_events(events, seed)?;
        plan.seed = seed;
        plan.module_wiring = rates.module;
        Ok(plan)
    }

    /// The scheduled events.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The plan seed (keys sensor-noise hashing).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this plan schedules no faults at all.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.events.is_empty()
    }

    /// Binds the plan to one run's geometry: `servers` servers in
    /// circulations of `circulation_size`, over `steps` control steps.
    /// Events referencing out-of-range servers/circulations, or
    /// starting at or past `steps`, are dropped.
    #[must_use]
    pub fn compile(&self, servers: usize, circulation_size: usize, steps: usize) -> CompiledFaults {
        let circulation_size = circulation_size.max(1);
        let circulations = servers.div_ceil(circulation_size);
        let mut tracks = vec![CircTrack::default(); circulations];
        for event in &self.events {
            let start = event.start_step;
            let end = event.end_step.unwrap_or(steps).min(steps);
            if start >= end {
                continue;
            }
            match event.kind {
                FaultKind::TegOpenCircuit {
                    server,
                    failed_devices,
                } => {
                    if server >= servers || failed_devices == 0 {
                        continue;
                    }
                    let circ = server / circulation_size;
                    tracks[circ].teg.push(TegWindow {
                        offset: server % circulation_size,
                        failed: failed_devices,
                        start,
                        end,
                    });
                }
                FaultKind::PumpDegraded {
                    circulation,
                    derate,
                } => {
                    if circulation >= circulations {
                        continue;
                    }
                    tracks[circulation].pump.push(PumpWindow {
                        factor: derate,
                        out: false,
                        start,
                        end,
                    });
                }
                FaultKind::PumpOutage { circulation } => {
                    if circulation >= circulations {
                        continue;
                    }
                    tracks[circulation].pump.push(PumpWindow {
                        factor: 0.0,
                        out: true,
                        start,
                        end,
                    });
                }
                FaultKind::CduOutage { circulation } => {
                    if circulation >= circulations {
                        continue;
                    }
                    tracks[circulation].cdu.push((start, end));
                }
                FaultKind::SensorStuck {
                    circulation,
                    reading,
                } => {
                    if circulation >= circulations {
                        continue;
                    }
                    tracks[circulation].sensor.push(SensorWindow {
                        spec: SensorSpec::Stuck(reading),
                        start,
                        end,
                    });
                }
                FaultKind::SensorNoise { circulation, sigma } => {
                    if circulation >= circulations {
                        continue;
                    }
                    tracks[circulation].sensor.push(SensorWindow {
                        spec: SensorSpec::Noisy(sigma),
                        start,
                        end,
                    });
                }
            }
        }
        let any = tracks.iter().any(|t| {
            !(t.teg.is_empty() && t.pump.is_empty() && t.sensor.is_empty() && t.cdu.is_empty())
        });
        CompiledFaults {
            seed: self.seed,
            module_wiring: self.module_wiring,
            tracks,
            any,
        }
    }
}

/// Maps an absolute time in hours onto a step index, clamped to the run.
fn step_of(hours: f64, hours_per_step: f64, steps: usize) -> usize {
    if !(hours > 0.0) {
        return 0;
    }
    // Non-negative by the guard above and clamped to `steps`, so the
    // cast can neither truncate meaningfully nor lose a sign.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let step = (hours / hours_per_step).floor().min(steps as f64) as usize;
    step
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct TegWindow {
    offset: usize,
    failed: usize,
    start: usize,
    end: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct PumpWindow {
    factor: f64,
    out: bool,
    start: usize,
    end: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SensorSpec {
    Stuck(Celsius),
    Noisy(DegC),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct SensorWindow {
    spec: SensorSpec,
    start: usize,
    end: usize,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct CircTrack {
    teg: Vec<TegWindow>,
    pump: Vec<PumpWindow>,
    sensor: Vec<SensorWindow>,
    /// CDU-outage `[start, end)` windows: the circulation is isolated
    /// offline while any is live.
    cdu: Vec<(usize, usize)>,
}

/// The corruption applied to one circulation's cold-source reading at
/// one step, with any randomness already resolved to a concrete value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// Reading frozen at this value.
    Stuck(Celsius),
    /// Additive offset (already sampled deterministically).
    Noisy(DegC),
}

impl SensorFault {
    /// Applies the corruption to the true reading.
    #[must_use]
    pub fn corrupt(&self, true_reading: Celsius) -> Celsius {
        match *self {
            SensorFault::Stuck(reading) => reading,
            SensorFault::Noisy(offset) => Celsius::new(true_reading.value() + offset.value()),
        }
    }
}

/// All faults active for one circulation at one step.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveFaults {
    /// `(server offset within the circulation, open-circuited device
    /// count)` — offsets are unique, counts already summed across
    /// overlapping events (downstream clamps to the module size).
    pub teg_failures: Vec<(usize, usize)>,
    /// Achieved fraction of commanded pump flow: 1.0 healthy, 0.0 on
    /// outage, the product of active derates otherwise.
    pub pump_factor: f64,
    /// Whether the pump is fully out (draws no pump power).
    pub pump_out: bool,
    /// Whether the whole CDU is out: the circulation is isolated
    /// offline (zero load, zero harvest, zero flow) for the window.
    pub cdu_out: bool,
    /// Cold-source sensor corruption, if any.
    pub sensor: Option<SensorFault>,
}

impl ActiveFaults {
    /// The output fraction of the module at `offset` under its active
    /// device failures, through the wiring topology: `1.0` for an
    /// unfaulted server, `0.0`..`1.0` otherwise.
    #[must_use]
    pub fn teg_fraction(&self, offset: usize, wiring: &ModuleReliability) -> f64 {
        match self.teg_failures.iter().find(|(o, _)| *o == offset) {
            Some((_, failed)) => wiring.output_fraction_with_failed(*failed),
            None => 1.0,
        }
    }

    /// Whether any fault of `class` is active in this view.
    #[must_use]
    pub fn class_active(&self, class: crate::FaultClass) -> bool {
        match class {
            crate::FaultClass::Sensor => self.sensor.is_some(),
            crate::FaultClass::Pump => self.pump_out || self.cdu_out || self.pump_factor < 1.0,
            crate::FaultClass::Teg => !self.teg_failures.is_empty(),
        }
    }
}

/// A [`FaultPlan`] bound to one run's geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFaults {
    seed: u64,
    module_wiring: ModuleReliability,
    tracks: Vec<CircTrack>,
    any: bool,
}

impl CompiledFaults {
    /// Whether no fault is scheduled anywhere in the run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.any
    }

    /// The wiring model that maps failed-device counts onto module
    /// output fractions.
    #[must_use]
    pub fn module_wiring(&self) -> &ModuleReliability {
        &self.module_wiring
    }

    /// Number of circulations the plan was compiled for.
    #[must_use]
    pub fn circulations(&self) -> usize {
        self.tracks.len()
    }

    /// Whether a cold-source reading is physically plausible: inside
    /// the 0–45 °C band. `NaN` and infinities are always implausible.
    #[must_use]
    pub fn is_plausible(&self, reading: Celsius) -> bool {
        (PLAUSIBLE_LO..=PLAUSIBLE_HI).contains(&reading.value())
    }

    /// The faults active for `circulation` at `step`, or `None` when
    /// the circulation-step is healthy (the engine's fast path — it
    /// falls straight through to the unfaulted code).
    ///
    /// Pure in `(self, circulation, step)`: any sensor-noise offset is
    /// hashed from `(seed, circulation, step)`, never drawn from
    /// mutable RNG state, so parallel shards see identical faults.
    #[must_use]
    pub fn active_at(&self, circulation: usize, step: usize) -> Option<ActiveFaults> {
        let track = self.tracks.get(circulation)?;
        let live = |s: usize, e: usize| step >= s && step < e;

        let mut teg_failures: Vec<(usize, usize)> = Vec::new();
        for w in &track.teg {
            if live(w.start, w.end) {
                match teg_failures.iter_mut().find(|(o, _)| *o == w.offset) {
                    Some((_, count)) => *count += w.failed,
                    None => teg_failures.push((w.offset, w.failed)),
                }
            }
        }
        teg_failures.sort_unstable();

        let mut pump_factor = 1.0;
        let mut pump_out = false;
        let mut pump_active = false;
        for w in &track.pump {
            if live(w.start, w.end) {
                pump_active = true;
                if w.out {
                    pump_out = true;
                    pump_factor = 0.0;
                } else if !pump_out {
                    pump_factor *= w.factor;
                }
            }
        }

        // Later-scheduled sensor windows win on overlap (documented
        // last-writer semantics; `from_hazards` never overlaps).
        let mut sensor = None;
        for w in &track.sensor {
            if live(w.start, w.end) {
                sensor = Some(match w.spec {
                    SensorSpec::Stuck(reading) => SensorFault::Stuck(reading),
                    SensorSpec::Noisy(sigma) => SensorFault::Noisy(DegC::new(
                        sigma.value() * standard_normal(self.seed, circulation, step),
                    )),
                });
            }
        }

        let cdu_out = track.cdu.iter().any(|&(s, e)| live(s, e));

        if teg_failures.is_empty() && !pump_active && !cdu_out && sensor.is_none() {
            return None;
        }
        Some(ActiveFaults {
            teg_failures,
            pump_factor,
            pump_out,
            cdu_out,
            sensor,
        })
    }

    /// Per-class active flags for one circulation-step, indexed by
    /// [`crate::FaultClass::index`]. All-healthy maps to all-`false`.
    fn classes_active(&self, circulation: usize, step: usize) -> [bool; 3] {
        let mut out = [false; 3];
        if let Some(active) = self.active_at(circulation, step) {
            for class in crate::FaultClass::ALL {
                out[class.index()] = active.class_active(class);
            }
        }
        out
    }

    /// Journal the fault-class transitions that happen *at* `step`:
    /// for every circulation and every [`crate::FaultClass`], compares
    /// the class's active state at `step` against `step - 1` (a run
    /// starts all-healthy, so step 0 compares against "nothing
    /// active") and records one [`FAULT_ACTIVATED_EVENT`] or
    /// [`FAULT_RECOVERED_EVENT`] event per transition, carrying the
    /// class label, circulation, and step.
    ///
    /// No-op when `registry` is disabled or the plan schedules no
    /// faults, so the healthy path stays observation-free. Transitions
    /// are derived from [`active_at`](Self::active_at), a pure function
    /// of `(plan, circulation, step)`, so the journal is deterministic
    /// regardless of engine thread count.
    pub fn journal_transitions_at(&self, registry: &h2p_telemetry::Registry, step: usize) {
        if !registry.is_enabled() || self.is_empty() {
            return;
        }
        for circ in 0..self.circulations() {
            let now = self.classes_active(circ, step);
            let before = if step == 0 {
                [false; 3]
            } else {
                self.classes_active(circ, step - 1)
            };
            for class in crate::FaultClass::ALL {
                let name = match (before[class.index()], now[class.index()]) {
                    (false, true) => FAULT_ACTIVATED_EVENT,
                    (true, false) => FAULT_RECOVERED_EVENT,
                    _ => continue,
                };
                registry.record_event(
                    h2p_telemetry::Event::new(name)
                        .with("class", class.label())
                        .with("circulation", u64::try_from(circ).unwrap_or(u64::MAX))
                        .with("step", u64::try_from(step).unwrap_or(u64::MAX)),
                );
            }
        }
    }
}

/// SplitMix64 finalizer — the statistical mixer behind the vendored
/// `StdRng` seeding, reused here as a stateless hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A standard-normal draw keyed purely by `(seed, circulation, step)`
/// — Box–Muller over two hashed uniforms. No shared state, so the
/// value cannot depend on worker count or evaluation order.
fn standard_normal(seed: u64, circulation: usize, step: usize) -> f64 {
    let base = mix64(seed ^ SALT_NOISE ^ mix64(circulation as u64) ^ mix64((step as u64) << 1 | 1));
    let a = mix64(base);
    let b = mix64(base ^ 0xD1B5_4A32_D192_ED03);
    // 53-bit mantissas -> uniforms; u1 in (0, 1] so ln() is finite.
    let u1 = ((a >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = (b >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn teg(server: usize, failed: usize, start: usize) -> FaultEvent {
        FaultEvent::permanent(
            FaultKind::TegOpenCircuit {
                server,
                failed_devices: failed,
            },
            start,
        )
    }

    #[test]
    fn empty_plan_compiles_empty() {
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        let compiled = plan.compile(100, 10, 288);
        assert!(compiled.is_empty());
        assert_eq!(compiled.circulations(), 10);
        for circ in 0..10 {
            for step in [0, 143, 287] {
                assert!(compiled.active_at(circ, step).is_none());
            }
        }
    }

    #[test]
    fn explicit_schedule_windows_honoured() {
        let events = vec![
            teg(13, 2, 5),
            FaultEvent::windowed(
                FaultKind::PumpDegraded {
                    circulation: 1,
                    derate: 0.5,
                },
                10,
                20,
            ),
            FaultEvent::windowed(
                FaultKind::SensorStuck {
                    circulation: 1,
                    reading: Celsius::new(99.0),
                },
                0,
                4,
            ),
        ];
        let compiled = FaultPlan::from_events(events, 7)
            .unwrap()
            .compile(100, 10, 288);
        // Server 13 -> circulation 1, offset 3, from step 5 onwards.
        assert!(compiled
            .active_at(1, 4)
            .is_none_or(|a| a.teg_failures.is_empty()));
        let a = compiled.active_at(1, 5).unwrap();
        assert_eq!(a.teg_failures, vec![(3, 2)]);
        assert_eq!(a.pump_factor, 1.0);
        // Pump window [10, 20).
        let a = compiled.active_at(1, 10).unwrap();
        assert_eq!(a.pump_factor, 0.5);
        assert!(!a.pump_out);
        let a = compiled.active_at(1, 20).unwrap();
        assert_eq!(a.pump_factor, 1.0);
        // Sensor stuck in [0, 4).
        let a = compiled.active_at(1, 0).unwrap();
        assert_eq!(
            a.sensor.unwrap().corrupt(Celsius::new(25.0)),
            Celsius::new(99.0)
        );
        // Other circulations untouched.
        assert!(compiled.active_at(0, 10).is_none());
        assert!(compiled.active_at(2, 10).is_none());
    }

    #[test]
    fn journal_transitions_record_activation_and_recovery() {
        let events = vec![
            FaultEvent::windowed(
                FaultKind::PumpDegraded {
                    circulation: 1,
                    derate: 0.5,
                },
                3,
                6,
            ),
            teg(7, 2, 5), // server 7 -> circulation 1; permanent from step 5
        ];
        let compiled = FaultPlan::from_events(events, 7)
            .unwrap()
            .compile(40, 4, 12);
        let registry = h2p_telemetry::Registry::new();
        for step in 0..12 {
            compiled.journal_transitions_at(&registry, step);
        }
        let journal = registry.journal_events();
        let summary: Vec<(String, f64, &'static str)> = journal
            .iter()
            .map(|e| {
                (
                    e.name.clone(),
                    e.field("step").and_then(|v| v.as_f64()).unwrap(),
                    match e.field("class").and_then(|v| v.as_str()).unwrap() {
                        "pump" => "pump",
                        "teg" => "teg",
                        other => panic!("unexpected class {other}"),
                    },
                )
            })
            .collect();
        assert_eq!(
            summary,
            vec![
                (FAULT_ACTIVATED_EVENT.to_owned(), 3.0, "pump"),
                (FAULT_ACTIVATED_EVENT.to_owned(), 5.0, "teg"),
                (FAULT_RECOVERED_EVENT.to_owned(), 6.0, "pump"),
            ],
            "one event per class transition, none for the permanent fault's tail"
        );
        for e in &journal {
            assert_eq!(e.field("circulation").and_then(|v| v.as_f64()), Some(1.0));
        }

        // A disabled registry and an empty plan both journal nothing.
        let disabled = h2p_telemetry::Registry::disabled();
        compiled.journal_transitions_at(&disabled, 3);
        assert!(disabled.journal_events().is_empty());
        let healthy = FaultPlan::none().compile(40, 4, 12);
        let fresh = h2p_telemetry::Registry::new();
        for step in 0..12 {
            healthy.journal_transitions_at(&fresh, step);
        }
        assert!(fresh.journal_events().is_empty());
    }

    #[test]
    fn outage_dominates_and_derates_multiply() {
        let events = vec![
            FaultEvent::windowed(
                FaultKind::PumpDegraded {
                    circulation: 0,
                    derate: 0.5,
                },
                0,
                10,
            ),
            FaultEvent::windowed(
                FaultKind::PumpDegraded {
                    circulation: 0,
                    derate: 0.8,
                },
                5,
                15,
            ),
            FaultEvent::windowed(FaultKind::PumpOutage { circulation: 0 }, 8, 9),
        ];
        let compiled = FaultPlan::from_events(events, 0)
            .unwrap()
            .compile(10, 10, 20);
        assert_eq!(compiled.active_at(0, 2).unwrap().pump_factor, 0.5);
        assert_eq!(compiled.active_at(0, 6).unwrap().pump_factor, 0.5 * 0.8);
        let a = compiled.active_at(0, 8).unwrap();
        assert!(a.pump_out);
        assert_eq!(a.pump_factor, 0.0);
        assert_eq!(compiled.active_at(0, 12).unwrap().pump_factor, 0.8);
    }

    #[test]
    fn validation_rejects_bad_events() {
        let bad_window = FaultEvent::windowed(FaultKind::PumpOutage { circulation: 0 }, 5, 5);
        assert_eq!(
            FaultPlan::from_events(vec![bad_window], 0),
            Err(FaultError::EmptyWindow { index: 0 })
        );
        let bad_derate = FaultEvent::permanent(
            FaultKind::PumpDegraded {
                circulation: 0,
                derate: 1.5,
            },
            0,
        );
        assert!(matches!(
            FaultPlan::from_events(vec![bad_derate], 0),
            Err(FaultError::InvalidDerate { .. })
        ));
        let bad_sigma = FaultEvent::permanent(
            FaultKind::SensorNoise {
                circulation: 0,
                sigma: DegC::new(0.0),
            },
            0,
        );
        assert!(matches!(
            FaultPlan::from_events(vec![bad_sigma], 0),
            Err(FaultError::NonPositiveParameter { name: "sigma", .. })
        ));
    }

    #[test]
    fn out_of_range_events_dropped_at_compile() {
        let events = vec![
            teg(1000, 1, 0),
            FaultEvent::permanent(FaultKind::PumpOutage { circulation: 50 }, 0),
            teg(3, 1, 500), // starts past the run
        ];
        let compiled = FaultPlan::from_events(events, 0)
            .unwrap()
            .compile(100, 10, 288);
        assert!(compiled.is_empty());
    }

    #[test]
    fn noise_is_deterministic_and_step_varying() {
        let plan = FaultPlan::from_events(
            vec![FaultEvent::permanent(
                FaultKind::SensorNoise {
                    circulation: 0,
                    sigma: DegC::new(2.0),
                },
                0,
            )],
            42,
        )
        .unwrap();
        let a = plan.compile(10, 10, 288);
        let b = plan.compile(10, 10, 288);
        let read = |c: &CompiledFaults, step: usize| {
            c.active_at(0, step)
                .unwrap()
                .sensor
                .unwrap()
                .corrupt(Celsius::new(30.0))
        };
        for step in 0..50 {
            assert_eq!(read(&a, step), read(&b, step), "step {step}");
        }
        // Offsets vary across steps (not a frozen value).
        let distinct: std::collections::BTreeSet<u64> =
            (0..50).map(|s| read(&a, s).value().to_bits()).collect();
        assert!(distinct.len() > 40);
        // And the empirical distribution is roughly standard-normal.
        let n = 20_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for step in 0..n {
            let z = standard_normal(42, 0, step);
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn hazard_sampling_is_deterministic_and_plausible() {
        let rates = HazardRates::accelerated_demo();
        let interval = Seconds::new(300.0);
        let a = FaultPlan::from_hazards(&rates, 9, 1000, 50, 288, interval).unwrap();
        let b = FaultPlan::from_hazards(&rates, 9, 1000, 50, 288, interval).unwrap();
        assert_eq!(a, b);
        assert!(
            !a.is_zero(),
            "accelerated demo rates should fault a day run"
        );
        // Different seeds give different schedules.
        let c = FaultPlan::from_hazards(&rates, 10, 1000, 50, 288, interval).unwrap();
        assert_ne!(a, c);
        // Every sampled event survives its own validation and lands
        // inside the run.
        for e in a.events() {
            assert!(e.start_step < 288);
            if let Some(end) = e.end_step {
                assert!(end > e.start_step && end <= 288);
            }
        }
        // All three fault classes are represented under demo rates.
        let mut saw = [false; 3];
        for e in a.events() {
            match e.kind {
                FaultKind::TegOpenCircuit { .. } => saw[0] = true,
                FaultKind::PumpDegraded { .. }
                | FaultKind::PumpOutage { .. }
                | FaultKind::CduOutage { .. } => saw[1] = true,
                FaultKind::SensorStuck { .. } | FaultKind::SensorNoise { .. } => saw[2] = true,
            }
        }
        assert_eq!(saw, [true, true, true]);
    }

    #[test]
    fn cdu_outage_isolates_its_window() {
        let events = vec![FaultEvent::windowed(
            FaultKind::CduOutage { circulation: 1 },
            4,
            9,
        )];
        let compiled = FaultPlan::from_events(events, 0)
            .unwrap()
            .compile(30, 10, 20);
        assert!(!compiled.is_empty());
        assert!(compiled.active_at(1, 3).is_none());
        let a = compiled.active_at(1, 4).unwrap();
        assert!(a.cdu_out);
        assert!(!a.pump_out, "CDU outage is not a pump outage");
        assert_eq!(a.pump_factor, 1.0);
        assert!(a.class_active(crate::FaultClass::Pump));
        assert!(!a.class_active(crate::FaultClass::Teg));
        assert!(compiled.active_at(1, 9).is_none());
        assert!(compiled.active_at(0, 5).is_none());
    }

    #[test]
    fn plausibility_band() {
        let compiled = FaultPlan::none().compile(1, 1, 1);
        assert!(compiled.is_plausible(Celsius::new(25.0)));
        assert!(compiled.is_plausible(Celsius::new(0.0)));
        assert!(compiled.is_plausible(Celsius::new(45.0)));
        assert!(!compiled.is_plausible(Celsius::new(-3.0)));
        assert!(!compiled.is_plausible(Celsius::new(99.0)));
        assert!(!compiled.is_plausible(Celsius::new(f64::INFINITY)));
    }
}
