//! # H2P — Heat to Power
//!
//! A full reproduction of *"Heat to Power: Thermal Energy Harvesting and
//! Recycling for Warm Water-Cooled Datacenters"* (ISCA 2020) as a Rust
//! workspace. This facade crate re-exports the public API of every
//! member crate so applications can depend on `h2p` alone.
//!
//! ## Layout
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`units`] | `h2p-units` | typed physical quantities |
//! | [`stats`] | `h2p-stats` | distributions, order statistics, fitting |
//! | [`exec`] | `h2p-exec` | scoped worker-pool execution primitives |
//! | [`thermal`] | `h2p-thermal` | RC networks, cold plates, heat exchangers |
//! | [`hydraulics`] | `h2p-hydraulics` | branches, pumps, cold sources |
//! | [`teg`] | `h2p-teg` | TEG/TEC device models |
//! | [`server`] | `h2p-server` | CPU power/thermal models, lookup space |
//! | [`workload`] | `h2p-workload` | synthetic cluster traces |
//! | [`cooling`] | `h2p-cooling` | chiller, tower, setting optimizer |
//! | [`sched`] | `h2p-sched` | scheduling policies |
//! | [`faults`] | `h2p-faults` | deterministic fault injection plans |
//! | [`core`] | `h2p-core` | simulator, prototype, circulation design |
//! | [`jobs`] | `h2p-jobs` | closed-loop thermal-aware job placement |
//! | [`tco`] | `h2p-tco` | total-cost-of-ownership analysis |
//! | [`storage`] | `h2p-storage` | hybrid energy buffer, LED budget |
//! | [`telemetry`] | `h2p-telemetry` | counters, histograms, spans, run journal |
//! | [`serve`] | `h2p-serve` | batching scenario service, bounded queue, JSONL daemon |
//! | [`gateway`] | `h2p-gateway` | HTTP front door, key-hash sharding, load generator |
//!
//! ## Quickstart
//!
//! ```
//! use h2p::core::simulation::Simulator;
//! use h2p::sched::{LoadBalance, Original};
//! use h2p::workload::{TraceGenerator, TraceKind};
//!
//! // A small slice of the paper's "Common" Google-like workload.
//! let cluster = TraceGenerator::paper(TraceKind::Common, 42)
//!     .with_servers(40)
//!     .with_steps(24)
//!     .generate();
//!
//! let sim = Simulator::paper_default()?;
//! let baseline = sim.run(&cluster, &Original)?;
//! let balanced = sim.run(&cluster, &LoadBalance)?;
//! assert!(balanced.average_teg_power()? >= baseline.average_teg_power()?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

pub use h2p_cooling as cooling;
pub use h2p_core as core;
pub use h2p_exec as exec;
pub use h2p_faults as faults;
pub use h2p_gateway as gateway;
pub use h2p_hydraulics as hydraulics;
pub use h2p_jobs as jobs;
pub use h2p_sched as sched;
pub use h2p_serve as serve;
pub use h2p_server as server;
pub use h2p_stats as stats;
pub use h2p_storage as storage;
pub use h2p_tco as tco;
pub use h2p_teg as teg;
pub use h2p_telemetry as telemetry;
pub use h2p_thermal as thermal;
pub use h2p_units as units;
pub use h2p_workload as workload;

/// Commonly used items, importable as `use h2p::prelude::*`.
pub mod prelude {
    pub use h2p_cooling::{Chiller, CoolingOptimizer, CoolingTower};
    pub use h2p_core::circulation::CirculationDesign;
    pub use h2p_core::datacenter::{AnnualReport, Datacenter};
    pub use h2p_core::faulted::FaultedRun;
    pub use h2p_core::simulation::{SimulationConfig, SimulationResult, Simulator};
    pub use h2p_faults::{FaultClass, FaultLedger, FaultPlan, HazardRates};
    pub use h2p_gateway::{Gateway, GatewayConfig, LoadPlan};
    pub use h2p_hydraulics::{Branch, ColdSource, Pump};
    pub use h2p_jobs::{Job, PlacementEngine, PlacementPolicy, PlacementPolicyKind, PlacementRun};
    pub use h2p_sched::{BoundedMigration, Consolidate, LoadBalance, Original, SchedulingPolicy};
    pub use h2p_serve::{
        Admission, PolicyKind, ScenarioRequest, ScenarioService, ServiceConfig, TraceSpec,
    };
    pub use h2p_server::{CpuPowerModel, LookupSpace, ServerModel, ThrottleController};
    pub use h2p_storage::HybridBuffer;
    pub use h2p_tco::{TcoAnalysis, TcoParameters};
    pub use h2p_teg::{TegDevice, TegModule};
    pub use h2p_telemetry::{Registry, RunReport};
    pub use h2p_units::{
        Celsius, DegC, Dollars, Joules, KilowattHours, LitersPerHour, Seconds, Utilization, Volts,
        Watts,
    };
    pub use h2p_workload::{ClusterTrace, Trace, TraceGenerator, TraceKind};
}
