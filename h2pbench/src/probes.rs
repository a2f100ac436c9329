//! Standalone probes of the layers a workload's own path does not
//! reach, so every traced run prints the whole layer ladder. A probe
//! runs the layer's public entry point at a small fixed size; its
//! figures describe the layer, not the workload.

use h2p_core::simulation::Simulator;

use crate::report::{Ctx, Outcome};

/// Placement horizon of the jobs probe.
const JOBS_PROBE: (usize, usize) = (40, 24);

/// The `jobs` layer: every placement policy on a small job set.
///
/// # Errors
///
/// Placement engine construction failures.
pub fn jobs(ctx: &Ctx, pristine: &Simulator, out: &mut Outcome) -> Result<(), String> {
    println!(
        "jobs layer (probe, {} servers x {} steps):",
        JOBS_PROBE.0, JOBS_PROBE.1
    );
    let jobs = crate::placement::jobs_for(pristine, ctx.seed, JOBS_PROBE.0, JOBS_PROBE.1);
    let mut probe = Outcome::default();
    let runs =
        crate::placement::place_all(&ctx.spans, pristine, &jobs, JOBS_PROBE, None, &mut probe)?;
    crate::placement::decision_metrics(&runs, out);
    out.failures.extend(probe.failures);
    Ok(())
}

/// The `serve` and `gateway` layers: a closed loop of the gateway
/// workload's shape and mix.
///
/// # Errors
///
/// Gateway start-up or warm-up failures.
pub fn gateway(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    println!(
        "serve and gateway layers (probe, closed loop of {} requests):",
        crate::gateway::TRACED_REQUESTS
    );
    let mut probe = Outcome::default();
    crate::gateway::layer_metrics(
        ctx,
        crate::gateway::Until::Requests(crate::gateway::TRACED_REQUESTS),
        &mut probe,
    )?;
    out.metrics.extend(probe.metrics);
    out.failures.extend(probe.failures);
    Ok(())
}
