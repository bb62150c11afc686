//! The metric names, units and directions. `BENCHMARK.json` lists the same
//! names in the same order (a unit test compares the two), and later
//! issues cite them, so a name is never changed.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// What a user of the system sees. Every workload reports all of them;
/// the README says which are native to a workload and which are the
/// documented analogue.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", LOWER),
    ("compile_s", "s", LOWER),
    ("keygen_s", "s", LOWER),
    ("witness_s", "s", LOWER),
    ("prove_s", "s", LOWER),
    ("verify_s", "s", LOWER),
    ("pipeline_s", "s", LOWER),
    ("proof_bytes", "B", LOWER),
    ("peak_live_bytes", "B", LOWER),
    ("jobs_per_s", "1/s", HIGHER),
];

/// Single-layer numbers from the traced run. Layers are the crates. The
/// two job-latency percentiles were planned as end-to-end metrics and are
/// kept here under their names: they do not repeat within any bound the
/// driver accepts (README, "Bounds").
pub const PER_LAYER: &[MetricDef] = &[
    ("circuit.compile_s", "s", LOWER),
    ("circuit.witness_s", "s", LOWER),
    ("circuit.poseidon_goldilocks_perm_ns", "ns", LOWER),
    ("groth16.setup_s", "s", LOWER),
    ("groth16.contribute_s", "s", LOWER),
    ("groth16.keygen_coverage", "ratio", HIGHER),
    ("groth16.evaluate_constraints_s", "s", LOWER),
    ("groth16.qap_h_s", "s", LOWER),
    ("groth16.prove_msm_g1_s", "s", LOWER),
    ("groth16.prove_msm_g2_s", "s", LOWER),
    ("groth16.prove_coverage", "ratio", HIGHER),
    ("groth16.verify_s", "s", LOWER),
    ("groth16.prepare_vk_s", "s", LOWER),
    ("groth16.verify_batch16_per_proof_s", "s", LOWER),
    ("plonk.arithmetize_s", "s", LOWER),
    ("plonk.srs_s", "s", LOWER),
    ("plonk.setup_s", "s", LOWER),
    ("plonk.prove_s", "s", LOWER),
    ("plonk.kzg_commit_2e14_s", "s", LOWER),
    ("plonk.kzg_open_s", "s", LOWER),
    ("plonk.verify_s", "s", LOWER),
    ("stark.air_trace_s", "s", LOWER),
    ("stark.merkle_build_2e17_s", "s", LOWER),
    ("stark.hash_row_ns", "ns", LOWER),
    ("stark.fri_commit_2e17_s", "s", LOWER),
    ("stark.fri_fold_2e17_s", "s", LOWER),
    ("stark.prove_coverage", "ratio", HIGHER),
    ("stark.verify_s", "s", LOWER),
    ("stark.proof_decode_s", "s", LOWER),
    ("stark.verify_path_ns", "ns", LOWER),
    ("ec.msm_g1_2e14_s", "s", LOWER),
    ("ec.msm_g2_2e14_s", "s", LOWER),
    ("ec.msm_g1_2e8_s", "s", LOWER),
    ("ec.fixed_base_g1_2e14_s", "s", LOWER),
    ("ec.mul_windowed_g1_s", "s", LOWER),
    ("ec.batch_to_affine_2e14_s", "s", LOWER),
    ("ec.pairing_s", "s", LOWER),
    ("ec.multi_pairing4_s", "s", LOWER),
    ("ec.bls12_381_msm_g1_2e12_s", "s", LOWER),
    ("ec.bls12_381_pairing_s", "s", LOWER),
    ("poly.ntt_bn254_2e14_s", "s", LOWER),
    ("poly.intt_bn254_2e14_s", "s", LOWER),
    ("poly.coset_ntt_bn254_2e16_s", "s", LOWER),
    ("poly.lagrange_coeffs_2e14_s", "s", LOWER),
    ("poly.ntt_goldilocks_2e17_s", "s", LOWER),
    ("poly.ntt_bn254_2e18_s", "s", LOWER),
    ("ff.bn254_fr_mul_ns", "ns", LOWER),
    ("ff.bn254_fq_mul_ns", "ns", LOWER),
    ("ff.bn254_fq_square_ns", "ns", LOWER),
    ("ff.bn254_fr_inverse_ns", "ns", LOWER),
    ("ff.bn254_fr_batch_inverse_ns", "ns", LOWER),
    ("ff.bls12_381_fq_mul_ns", "ns", LOWER),
    ("ff.goldilocks_mul_ns", "ns", LOWER),
    ("ff.goldilocks_inverse_ns", "ns", LOWER),
    ("io.proof_encode_s", "s", LOWER),
    ("io.proof_decode_s", "s", LOWER),
    ("io.plonk_proof_decode_s", "s", LOWER),
    ("io.zkey_write_2e14_s", "s", LOWER),
    ("io.zkey_read_2e14_s", "s", LOWER),
    ("io.zkey_bytes", "B", LOWER),
    ("io.stream_zkey_write_2e14_s", "s", LOWER),
    ("io.stream_zkey_read_2e14_s", "s", LOWER),
    ("pool.prove_speedup", "ratio", HIGHER),
    ("pool.keygen_speedup", "ratio", HIGHER),
    ("pool.parallel_for_dispatch_ns", "ns", LOWER),
    ("serve.submit_s", "s", LOWER),
    ("serve.step_prove_2e6_s", "s", LOWER),
    ("serve.step_prove_2e12_s", "s", LOWER),
    ("serve.step_verify_s", "s", LOWER),
    ("serve.step_verify_batch_per_proof_s", "s", LOWER),
    ("serve.queue_wait_p50_s", "s", LOWER),
    ("serve.cache_build_2e12_s", "s", LOWER),
    ("serve.cache_disk_hit_2e12_s", "s", LOWER),
    ("serve.cache_mem_hit_s", "s", LOWER),
    ("serve.verify_batch_share", "ratio", HIGHER),
    ("serve.busy_fraction", "ratio", HIGHER),
    ("serve.overhead_per_job_s", "s", LOWER),
    ("serve.retries", "count", LOWER),
    ("serve.rejected", "count", LOWER),
    ("core.pipeline_overhead_s", "s", LOWER),
    ("core.measure_cell_2e10_s", "s", LOWER),
    ("job_p50_s", "s", LOWER),
    ("job_p95_s", "s", LOWER),
    ("trace_overhead", "ratio", LOWER),
];

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "groth16_exp_2e14",
    "plonk_exp_2e14",
    "stark_exp_2e14",
    "serve_mixed",
];

/// Unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::String(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn defs(list: &Value) -> Vec<(String, String, String)> {
        match list {
            Value::Array(items) => items
                .iter()
                .map(|m| {
                    (
                        text(field(m, "name")).to_string(),
                        text(field(m, "unit")).to_string(),
                        text(field(m, "better")).to_string(),
                    )
                })
                .collect(),
            other => panic!("expected a list, got {other:?}"),
        }
    }

    fn ours(table: &[MetricDef]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect()
    }

    /// The contract file and the harness must name the same metrics and
    /// workloads, or the driver reads a metric the harness never prints.
    #[test]
    fn benchmark_json_matches_the_harness_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(defs(field(&json, "end_to_end")), ours(END_TO_END));
        assert_eq!(defs(field(&json, "per_layer")), ours(PER_LAYER));
        let Value::Array(workloads) = field(&json, "workloads") else {
            panic!("workloads is not a list");
        };
        let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
