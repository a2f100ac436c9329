//! Bit-level digests of simulation results.
//!
//! The digest is FNV-1a over the raw bits of every [`StepRecord`]
//! field, the same construction the gateway embeds in its response
//! bodies, so two digests are equal only when the two runs are
//! bit-identical. At the default seed every digest is compared against
//! the table in `digests.rs`.

use h2p_core::simulation::{SimulationResult, StepRecord};

/// FNV-1a over the server count, step count and every step's bits.
#[must_use]
pub fn result_digest(result: &SimulationResult) -> u64 {
    steps_digest(result.servers(), result.steps())
}

/// [`result_digest`] over a server count and a step list.
#[must_use]
pub fn steps_digest(servers: usize, steps: &[StepRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(servers as u64);
    eat(steps.len() as u64);
    for step in steps {
        eat(step.time.value().to_bits());
        eat(step.teg_power_per_server.value().to_bits());
        eat(step.cpu_power_per_server.value().to_bits());
        eat(step.pump_power_per_server.value().to_bits());
        eat(step.cooling_power_per_server.value().to_bits());
        eat(step.mean_inlet.value().to_bits());
        eat(step.mean_outlet.value().to_bits());
        eat(step.mean_utilization.value().to_bits());
        eat(step.peak_utilization.value().to_bits());
        eat(step.thermal_violations as u64);
    }
    h
}

/// Compares labelled digests against a stored table. Returns one
/// message per label that is missing from the table or differs.
#[must_use]
pub fn mismatches(got: &[(String, u64)], stored: &[(&str, u64)]) -> Vec<String> {
    got.iter()
        .filter_map(|(label, digest)| {
            match stored.iter().find(|(name, _)| *name == label.as_str()) {
                Some((_, want)) if want == digest => None,
                Some((_, want)) => {
                    Some(format!("{label}: digest {digest:016x}, stored {want:016x}"))
                }
                None => Some(format!("{label}: digest {digest:016x}, none stored")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_core::simulation::Simulator;
    use h2p_sched::LoadBalance;
    use h2p_workload::{TraceGenerator, TraceKind};

    #[test]
    fn one_flipped_result_bit_fails_the_digest_check() {
        let sim = Simulator::paper_default().expect("paper simulator");
        let trace = TraceGenerator::paper(TraceKind::Common, 7)
            .with_servers(80)
            .with_steps(6)
            .generate();
        let result = sim.run(&trace, &LoadBalance).expect("run");
        let digest = result_digest(&result);
        let stored = [("small", digest)];
        assert!(mismatches(&[("small".to_owned(), digest)], &stored).is_empty());

        // Flip the lowest mantissa bit of one step's TEG power: the
        // smallest change a result can carry.
        let mut steps = result.steps().to_vec();
        let bits = steps[3].teg_power_per_server.value().to_bits() ^ 1;
        steps[3].teg_power_per_server = h2p_units::Watts::new(f64::from_bits(bits));
        let flipped = steps_digest(result.servers(), &steps);
        assert_ne!(flipped, digest);
        assert_eq!(
            mismatches(&[("small".to_owned(), flipped)], &stored).len(),
            1
        );
        assert_eq!(
            mismatches(&[("other".to_owned(), digest)], &stored).len(),
            1,
            "a label with no stored digest fails too"
        );
    }
}
