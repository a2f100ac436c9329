//! TEG modules: devices electrically in series (paper Sec. III-C, Fig. 5).
//!
//! A single TEG's output voltage is too low to use, so H2P wires several
//! in series: `V_oc_n = n·v` (Eq. 4) and — at matched load —
//! `P_max_n = n·P_max_1` (Eq. 7). The paper's deployed module is 12
//! devices per CPU, mounted as two groups of six between warm and cold
//! plates at the CPU outlet.

use crate::device::TegDevice;
use crate::TegError;
use h2p_units::{DegC, Dollars, Ohms, Volts, Watts};

/// A chain of identical TEGs connected electrically in series.
///
/// ```
/// use h2p_teg::TegModule;
/// use h2p_units::DegC;
///
/// let module = TegModule::paper_module(); // 12 × SP 1848-27145
/// let v = module.open_circuit_voltage(DegC::new(20.0));
/// assert!((v.value() - 12.0 * (0.0448 * 20.0 - 0.0051)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TegModule {
    device: TegDevice,
    count: usize,
}

impl TegModule {
    /// Creates a module of `count` series devices.
    ///
    /// # Errors
    ///
    /// Returns [`TegError::EmptyModule`] if `count == 0`.
    pub fn new(device: TegDevice, count: usize) -> Result<Self, TegError> {
        if count == 0 {
            return Err(TegError::EmptyModule);
        }
        Ok(TegModule { device, count })
    }

    /// The paper's production configuration: 12 SP 1848-27145 devices
    /// per CPU.
    #[must_use]
    pub fn paper_module() -> Self {
        TegModule {
            device: TegDevice::sp1848_27145(),
            count: 12,
        }
    }

    /// The prototype measurement configuration of Fig. 7: one group of
    /// 6 devices.
    #[must_use]
    pub fn prototype_group() -> Self {
        TegModule {
            device: TegDevice::sp1848_27145(),
            count: 6,
        }
    }

    /// Number of devices in series.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The underlying device model.
    #[must_use]
    pub fn device(&self) -> &TegDevice {
        &self.device
    }

    /// Open-circuit voltage of the chain (Eq. 4: `V_oc_n = n·v`).
    #[must_use]
    pub fn open_circuit_voltage(&self, dt: DegC) -> Volts {
        // h2p-lint: allow(L3): device count -> f64, exact
        let v = self.device.open_circuit_voltage(dt) * self.count as f64;
        // Physics sanitizer (armed in debug builds): the Seebeck
        // voltage must be finite, and sign-consistent with ΔT — the
        // device clamps reverse-biased operation to zero, so a negative
        // or non-zero-at-non-positive-ΔT voltage means a corrupted fit.
        debug_assert!(
            v.value().is_finite() && v.value() >= 0.0 && (dt.value() > 0.0 || !(v.value() > 0.0)),
            "sanitize: open_circuit_voltage({dt}) produced {v} \
             (finite, >= 0, zero at non-positive dT expected)"
        );
        v
    }

    /// Total internal resistance (`n·R_TEG`).
    #[must_use]
    pub fn internal_resistance(&self) -> Ohms {
        self.device.spec().internal_resistance * self.count as f64 // h2p-lint: allow(L3): device count -> f64, exact
    }

    /// The load resistance that maximizes output power (equal to the
    /// internal resistance — the paper's matched-load condition).
    #[must_use]
    pub fn optimal_load(&self) -> Ohms {
        self.internal_resistance()
    }

    /// Maximum output power at matched load (Eq. 7: `n × P_max_1`).
    #[must_use]
    pub fn max_power(&self, dt: DegC) -> Watts {
        // h2p-lint: allow(L3): device count -> f64, exact
        let p = self.device.max_power(dt) * self.count as f64;
        // Physics sanitizer (armed in debug builds): a TEG is a
        // generator — matched-load power is finite and non-negative for
        // any ΔT (reverse bias is clamped at the device layer).
        debug_assert!(
            p.value().is_finite() && p.value() >= 0.0,
            "sanitize: max_power({dt}) produced {p} (finite, >= 0 expected)"
        );
        p
    }

    /// Output power into an arbitrary load resistance:
    /// `P = (V_oc / (R_int + R_load))² · R_load`.
    ///
    /// # Errors
    ///
    /// Returns [`TegError::NonPositiveParameter`] if `load` is not
    /// strictly positive.
    pub fn power_into_load(&self, dt: DegC, load: Ohms) -> Result<Watts, TegError> {
        if !(load.value() > 0.0) {
            return Err(TegError::NonPositiveParameter {
                name: "load",
                value: load.value(),
            });
        }
        let v = self.open_circuit_voltage(dt);
        let total = self.internal_resistance() + load;
        let current = v / total;
        Ok(Watts::new(current.value() * current.value() * load.value()))
    }

    /// Purchase cost of the whole module.
    #[must_use]
    pub fn purchase_cost(&self) -> Dollars {
        // h2p-lint: allow(L3): device count -> f64, exact
        Dollars::new(self.device.spec().unit_cost_dollars * self.count as f64)
    }

    /// Total thermal conductance of the module when clamped between the
    /// warm and cold plates (devices are thermally in parallel), W/K.
    #[must_use]
    pub fn thermal_conductance(&self) -> f64 {
        self.device.thermal_conductance() * self.count as f64 // h2p-lint: allow(L3): device count -> f64, exact
    }

    /// Heat leaking from the warm to the cold loop through the module
    /// at a given coolant ΔT — the parasitic load the cold source must
    /// absorb.
    #[must_use]
    pub fn heat_leak(&self, dt: DegC) -> Watts {
        Watts::new(self.thermal_conductance() * dt.value().max(0.0))
    }
}

impl Default for TegModule {
    fn default() -> Self {
        TegModule::paper_module()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_voltage_scales_linearly() {
        // Fig. 8a: V_oc_n is nearly n times v.
        let dev = TegDevice::sp1848_27145();
        let v1 = dev.open_circuit_voltage(DegC::new(15.0));
        for n in [1usize, 3, 6, 9, 12] {
            let m = TegModule::new(dev, n).unwrap();
            let vn = m.open_circuit_voltage(DegC::new(15.0));
            assert!((vn.value() - n as f64 * v1.value()).abs() < 1e-12);
        }
    }

    #[test]
    fn series_power_scales_linearly() {
        // Eq. 7.
        let dev = TegDevice::sp1848_27145();
        let p1 = dev.max_power(DegC::new(20.0));
        let m = TegModule::new(dev, 12).unwrap();
        assert!((m.max_power(DegC::new(20.0)).value() - 12.0 * p1.value()).abs() < 1e-12);
    }

    #[test]
    fn fig8b_twelve_tegs_at_25c() {
        // Paper: "the maximum output power of 12 TEGs can be higher than
        // 1.8 W" at ΔT ≥ 25 °C.
        let m = TegModule::paper_module();
        assert!(m.max_power(DegC::new(25.0)).value() > 1.8);
    }

    #[test]
    fn matched_load_is_optimum() {
        let m = TegModule::paper_module();
        let dt = DegC::new(20.0);
        let r_opt = m.optimal_load();
        let p_opt = m.power_into_load(dt, r_opt).unwrap();
        for factor in [0.25, 0.5, 0.9, 1.1, 2.0, 4.0] {
            let p = m.power_into_load(dt, r_opt * factor).unwrap();
            assert!(
                p <= p_opt + Watts::new(1e-12),
                "load {factor}×R beat the matched load"
            );
        }
    }

    #[test]
    fn matched_load_agrees_with_voltage_derived_max() {
        let m = TegModule::paper_module();
        let dt = DegC::new(22.0);
        let matched = m.power_into_load(dt, m.optimal_load()).unwrap();
        let v = m.open_circuit_voltage(dt);
        let expect = v.value() * v.value() / (4.0 * m.internal_resistance().value());
        assert!((matched.value() - expect).abs() < 1e-12);
    }

    #[test]
    fn internal_resistance_adds() {
        let m = TegModule::paper_module();
        assert_eq!(m.internal_resistance(), Ohms::new(24.0));
    }

    #[test]
    fn cost_of_paper_module() {
        assert_eq!(
            TegModule::paper_module().purchase_cost(),
            Dollars::new(12.0)
        );
    }

    #[test]
    fn heat_leak_positive_only_for_positive_dt() {
        let m = TegModule::paper_module();
        assert!(m.heat_leak(DegC::new(30.0)).value() > 0.0);
        assert_eq!(m.heat_leak(DegC::new(-5.0)), Watts::zero());
    }

    #[test]
    fn empty_module_rejected() {
        assert_eq!(
            TegModule::new(TegDevice::sp1848_27145(), 0),
            Err(TegError::EmptyModule)
        );
    }

    #[test]
    fn bad_load_rejected() {
        let m = TegModule::paper_module();
        assert!(m.power_into_load(DegC::new(10.0), Ohms::new(0.0)).is_err());
    }
}
