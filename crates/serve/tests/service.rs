//! End-to-end service tests: deterministic overload behaviour, deadline
//! accounting, circuit breaking, degradation, and checkpoint/resume.
//!
//! Everything here runs the server's synchronous loop, so outcomes are
//! exact — no sleeps, no races.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use zkperf_core::{Groth16Backend, Stage, StageError};
use zkperf_ec::Bn254;
use zkperf_serve::{
    prove_serial, ArtifactCache, CircuitSpec, JobKind, JobOutcome, JobSpec, Priority,
    RejectReason, Server, ServerConfig, ServiceMode,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkperf-serve-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn prove_job(constraints: usize, x: u64, priority: Priority) -> JobSpec {
    JobSpec {
        circuit: CircuitSpec::exponentiate(constraints, x),
        kind: JobKind::Prove,
        priority,
        deadline: None,
    }
}

/// Satellite 3: fill the admission queue and check the exact
/// reject-with-reason ordering (lowest priority shed first), then
/// byte-compare every accepted job's proof against the serial path.
#[test]
fn overload_sheds_lowest_priority_first_and_stays_deterministic() {
    let dir = tmpdir("overload");
    let mut cfg = ServerConfig::default();
    cfg.admission.max_depth = 3;
    let mut server: Server<Groth16Backend<Bn254>> = Server::open(dir.join("server"), cfg).unwrap();

    // Five Low arrivals against a depth-3 queue: 1..3 admitted, 4..5
    // rejected outright (nothing to shed at equal priority).
    let mut ids = Vec::new();
    for x in 0..5u64 {
        let (id, res) = server.submit(prove_job(8, 2 + x, Priority::Low));
        ids.push(id);
        if x < 3 {
            assert!(res.is_ok(), "job {x} should be admitted");
        } else {
            assert!(
                matches!(res, Err(RejectReason::QueueFull { depth: 3, limit: 3 })),
                "job {x}: {res:?}"
            );
        }
    }
    // A Normal arrival displaces the youngest Low (the third submission).
    let (norm_id, res) = server.submit(prove_job(8, 7, Priority::Normal));
    assert!(res.is_ok());
    assert_eq!(
        server.outcome(ids[2]),
        Some(&JobOutcome::Rejected {
            reason: RejectReason::Shed { by: norm_id }
        })
    );
    // Two High arrivals displace the remaining Lows, youngest first.
    let (high1, res) = server.submit(prove_job(8, 8, Priority::High));
    assert!(res.is_ok());
    assert_eq!(
        server.outcome(ids[1]),
        Some(&JobOutcome::Rejected {
            reason: RejectReason::Shed { by: high1 }
        })
    );
    let (high2, res) = server.submit(prove_job(8, 9, Priority::High));
    assert!(res.is_ok());
    assert_eq!(
        server.outcome(ids[0]),
        Some(&JobOutcome::Rejected {
            reason: RejectReason::Shed { by: high2 }
        })
    );
    // Normal cannot displace Normal/High.
    let (_, res) = server.submit(prove_job(8, 10, Priority::Normal));
    assert!(matches!(res, Err(RejectReason::QueueFull { .. })));

    // Execution order: High before Normal, FIFO within class.
    assert_eq!(server.queued_ids(), vec![high1, high2, norm_id]);
    server.run_until_drained();
    assert!(server.accounting_errors().is_empty());

    // Byte-identical to the serial reference pipeline.
    let mut serial: ArtifactCache<Groth16Backend<Bn254>> = ArtifactCache::open(dir.join("serial")).unwrap();
    for (id, x) in [(norm_id, 7u64), (high1, 8), (high2, 9)] {
        let spec = CircuitSpec::exponentiate(8, x);
        let expected = prove_serial(&mut serial, &spec).unwrap();
        match server.outcome(id) {
            Some(JobOutcome::Served { proof, attempts: 1, .. }) => {
                assert_eq!(proof, &expected, "job {id} proof differs from serial path")
            }
            other => panic!("job {id}: {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// An impossible deadline produces a typed `DeadlineExceeded` at a stage
/// boundary — never a panic, never an untyped error.
#[test]
fn expired_deadline_is_a_typed_outcome() {
    let dir = tmpdir("deadline");
    let mut server: Server<Groth16Backend<Bn254>> =
        Server::open(dir.join("server"), ServerConfig::default()).unwrap();
    let (id, res) = server.submit(JobSpec {
        circuit: CircuitSpec::exponentiate(8, 3),
        kind: JobKind::Prove,
        priority: Priority::Normal,
        deadline: Some(Duration::ZERO),
    });
    assert!(res.is_ok(), "admission happens before the deadline check");
    server.run_until_drained();
    match server.outcome(id) {
        Some(JobOutcome::DeadlineExceeded { stage, .. }) => {
            assert_eq!(stage, "compile", "caught at the first stage boundary")
        }
        other => panic!("{other:?}"),
    }
    assert!(server.accounting_errors().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

/// A shape that always fails trips its breaker after the threshold;
/// other shapes are unaffected; the breaker half-opens after cooldown.
#[test]
fn failing_circuit_shape_is_quarantined() {
    let dir = tmpdir("breaker");
    let cfg = ServerConfig {
        breaker_threshold: 2,
        breaker_cooldown_ticks: 3,
        ..ServerConfig::default()
    };
    let mut server: Server<Groth16Backend<Bn254>> = Server::open(dir.join("server"), cfg).unwrap();

    let bad = JobSpec {
        circuit: CircuitSpec {
            name: "bad".into(),
            source: "circuit bad { this does not parse".into(),
            constraints: 1,
            public_inputs: vec![],
            private_inputs: vec![],
        },
        kind: JobKind::Prove,
        priority: Priority::Normal,
        deadline: None,
    };

    // Two terminal failures open the breaker.
    for _ in 0..2 {
        let (id, res) = server.submit(bad.clone());
        assert!(res.is_ok());
        server.run_until_drained();
        assert!(matches!(
            server.outcome(id),
            Some(JobOutcome::Failed { attempts: 1, .. })
        ));
    }
    // Third submission is rejected at admission with the typed reason.
    let (_, res) = server.submit(bad.clone());
    assert!(
        matches!(res, Err(RejectReason::CircuitOpen { until_tick: 5, .. })),
        "{res:?}"
    );
    // A healthy shape sails through while the bad one is quarantined.
    let (good_id, res) = server.submit(prove_job(8, 3, Priority::Normal));
    assert!(res.is_ok());
    server.run_until_drained();
    assert!(server.outcome(good_id).unwrap().is_served());
    // Tick 5 reached: the breaker half-opens and admits a probe, whose
    // failure re-opens it immediately.
    let (probe_id, res) = server.submit(bad.clone());
    assert!(res.is_ok(), "half-open admits one probe: {res:?}");
    server.run_until_drained();
    assert!(matches!(
        server.outcome(probe_id),
        Some(JobOutcome::Failed { .. })
    ));
    let (_, res) = server.submit(bad);
    assert!(matches!(res, Err(RejectReason::CircuitOpen { .. })));
    assert!(server.accounting_errors().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

/// A failure that comes from the job's own inputs ends the job on its first
/// attempt under the default retry policy: a second attempt would fail the
/// same way.
#[test]
fn failures_of_the_job_itself_are_not_retried() {
    let dir = tmpdir("terminal");
    let mut server: Server<Groth16Backend<Bn254>> =
        Server::open(dir.join("server"), ServerConfig::default()).unwrap();
    let job = |circuit: CircuitSpec, kind: JobKind| JobSpec {
        circuit,
        kind,
        priority: Priority::Normal,
        deadline: None,
    };
    let unparseable = CircuitSpec {
        name: "bad".into(),
        source: "circuit bad { this does not parse".into(),
        constraints: 1,
        public_inputs: vec![],
        private_inputs: vec![],
    };
    let unsatisfied = CircuitSpec {
        name: "nine".into(),
        source: "circuit nine { public input x; assert x * x == 9; }".into(),
        constraints: 2,
        public_inputs: vec![4],
        private_inputs: vec![],
    };
    let cases = [
        ("compile", job(unparseable, JobKind::Prove)),
        ("witness", job(unsatisfied, JobKind::Prove)),
        (
            "proof payload",
            job(
                CircuitSpec::exponentiate(8, 3),
                JobKind::Verify {
                    proof: vec![0xde, 0xad, 0xbe, 0xef],
                },
            ),
        ),
    ];
    for (what, spec) in cases {
        let (id, res) = server.submit(spec);
        assert!(res.is_ok());
        server.run_until_drained();
        match server.outcome(id) {
            Some(JobOutcome::Failed { attempts: 1, error }) => {
                assert!(error.contains(what), "{what}: {error}")
            }
            other => panic!("{what}: {other:?}"),
        }
    }
    assert!(server.accounting_errors().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

/// The server's seeded fault injector: a seed replays the same faults on a
/// fresh server, a retried job still serves the serial path's bytes, and
/// with no seed nothing is injected.
#[test]
fn chaos_seed_replays_its_faults_and_retries_serve_serial_bytes() {
    let dir = tmpdir("chaos");
    let xs = 2..10u64;
    let run = |tag: &str, chaos: Option<u64>| {
        let cfg = ServerConfig {
            chaos,
            ..ServerConfig::default()
        };
        let mut server: Server<Groth16Backend<Bn254>> = Server::open(dir.join(tag), cfg).unwrap();
        for x in xs.clone() {
            assert!(server.submit(prove_job(8, x, Priority::Normal)).1.is_ok());
        }
        server.run_until_drained();
        assert!(server.accounting_errors().is_empty());
        server.outcomes().map(|(id, o)| (id, o.clone())).collect::<Vec<_>>()
    };

    let armed = run("armed", Some(7));
    assert_eq!(armed, run("replay", Some(7)), "same seed, same faults and attempts");

    let mut serial: ArtifactCache<Groth16Backend<Bn254>> = ArtifactCache::open(dir.join("serial")).unwrap();
    let mut retried = 0;
    for ((id, outcome), x) in armed.iter().zip(xs.clone()) {
        match outcome {
            JobOutcome::Served { proof, attempts, .. } if *attempts > 1 => {
                let expected = prove_serial(&mut serial, &CircuitSpec::exponentiate(8, x)).unwrap();
                assert_eq!(proof, &expected, "retried job {id} differs from serial path");
                retried += 1;
            }
            JobOutcome::Served { .. } => {}
            JobOutcome::Failed { error, .. } => assert!(
                Stage::ALL.map(|stage| StageError::Injected { stage }.to_string()).contains(error),
                "job {id} failed on something other than an injected fault: {error}"
            ),
            other => panic!("job {id}: {other:?}"),
        }
    }
    assert!(retried > 0, "seed 7 serves some job on a later attempt: {armed:?}");

    for (id, outcome) in run("off", None) {
        assert!(
            matches!(outcome, JobOutcome::Served { attempts: 1, .. }),
            "job {id}: {outcome:?}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Queue pressure degrades the service to verify-only; draining restores
/// normal operation.
#[test]
fn overload_degrades_to_verify_only_and_recovers() {
    let dir = tmpdir("degrade");
    let cfg = ServerConfig {
        verify_only_depth: 2,
        ..ServerConfig::default()
    };
    let mut server: Server<Groth16Backend<Bn254>> = Server::open(dir.join("server"), cfg).unwrap();

    let (first, res) = server.submit(prove_job(8, 3, Priority::Normal));
    assert!(res.is_ok());
    assert_eq!(server.mode(), ServiceMode::Normal);
    let (_, res) = server.submit(prove_job(8, 4, Priority::Normal));
    assert!(res.is_ok());
    assert_eq!(server.mode(), ServiceMode::VerifyOnly);

    // Prove traffic is refused while degraded …
    let (_, res) = server.submit(prove_job(8, 5, Priority::High));
    assert!(matches!(res, Err(RejectReason::VerifyOnly)));

    // … but verify traffic still lands. Serve the first job to get real
    // proof bytes, which immediately relieves pressure too.
    assert!(server.step());
    let proof = match server.outcome(first) {
        Some(JobOutcome::Served { proof, .. }) => proof.clone(),
        other => panic!("{other:?}"),
    };
    let (verify_id, res) = server.submit(JobSpec {
        circuit: CircuitSpec::exponentiate(8, 3),
        kind: JobKind::Verify { proof },
        priority: Priority::High,
        deadline: None,
    });
    assert!(res.is_ok(), "verify admitted while degraded: {res:?}");

    server.run_until_drained();
    assert_eq!(server.mode(), ServiceMode::Normal, "recovered after drain");
    assert!(matches!(
        server.outcome(verify_id),
        Some(JobOutcome::Served { verified: Some(true), .. })
    ));
    assert!(server.accounting_errors().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

/// Tentpole satellite: queued same-circuit verify jobs drain through one
/// combined pairing check, a poisoned batch falls back to per-job
/// verdicts, and the accounting invariant holds either way.
#[test]
fn verify_jobs_batch_into_one_pairing_check() {
    let dir = tmpdir("vbatch");
    let mut server: Server<Groth16Backend<Bn254>> =
        Server::open(dir.join("server"), ServerConfig::default()).unwrap();

    // Produce real proof bytes for x = 3 and x = 4.
    let (p3, res) = server.submit(prove_job(8, 3, Priority::Normal));
    assert!(res.is_ok());
    let (p4, res) = server.submit(prove_job(8, 4, Priority::Normal));
    assert!(res.is_ok());
    server.run_until_drained();
    let proof_of = |server: &Server<Groth16Backend<Bn254>>, id| match server.outcome(id) {
        Some(JobOutcome::Served { proof, .. }) => proof.clone(),
        other => panic!("{other:?}"),
    };
    let proof3 = proof_of(&server, p3);
    let proof4 = proof_of(&server, p4);

    let verify_job = |x: u64, proof: Vec<u8>| JobSpec {
        circuit: CircuitSpec::exponentiate(8, x),
        kind: JobKind::Verify { proof },
        priority: Priority::Normal,
        deadline: None,
    };

    // Four consistent verify jobs of the same circuit shape: one batch.
    let mut ids = Vec::new();
    for (x, proof) in [(3, &proof3), (4, &proof4), (3, &proof3), (4, &proof4)] {
        let (id, res) = server.submit(verify_job(x, proof.clone()));
        assert!(res.is_ok());
        ids.push(id);
    }
    server.run_until_drained();
    for id in &ids {
        assert!(
            matches!(
                server.outcome(*id),
                Some(JobOutcome::Served { verified: Some(true), attempts: 1, .. })
            ),
            "job {id}: {:?}",
            server.outcome(*id)
        );
    }
    let report = server.report();
    assert_eq!(report.verify_batches, 1, "one combined check");
    assert_eq!(report.batched_verifies, 4, "all four jobs rode it");
    assert_eq!(report.miller_loops_saved(), 2 * 4 - 3);
    assert!(report.to_string().contains("batching: 4 verifies in 1 combined checks"));

    // Poison one member: proof for x = 3 against the statement x = 5. The
    // combined check fails and every member falls back to an individual
    // verdict — true for the honest jobs, false for the mismatch.
    let (good, res) = server.submit(verify_job(3, proof3.clone()));
    assert!(res.is_ok());
    let (bad, res) = server.submit(verify_job(5, proof3.clone()));
    assert!(res.is_ok());
    server.run_until_drained();
    assert!(matches!(
        server.outcome(good),
        Some(JobOutcome::Served { verified: Some(true), .. })
    ));
    assert!(matches!(
        server.outcome(bad),
        Some(JobOutcome::Served { verified: Some(false), .. })
    ));
    let report = server.report();
    assert_eq!(report.verify_batches, 1, "poisoned batch fell back");
    assert!(server.accounting_errors().is_empty());

    // Batching disabled: same traffic, no combined checks.
    let cfg = ServerConfig {
        verify_batch_max: 1,
        ..ServerConfig::default()
    };
    let mut single: Server<Groth16Backend<Bn254>> = Server::open(dir.join("single"), cfg).unwrap();
    for (x, proof) in [(3, &proof3), (4, &proof4)] {
        let (_, res) = single.submit(verify_job(x, proof.clone()));
        assert!(res.is_ok());
    }
    single.run_until_drained();
    let report = single.report();
    assert_eq!(report.verify_batches, 0);
    assert_eq!(report.batched_verifies, 0);
    assert!(single.accounting_errors().is_empty());

    let _ = fs::remove_dir_all(&dir);
}

/// Shutdown drains queued jobs to a checksummed checkpoint; a successor
/// server resumes them and produces byte-identical proofs.
#[test]
fn drain_checkpoint_resume_round_trip() {
    let dir = tmpdir("checkpoint");
    let ckpt = dir.join("drain.zksv");
    let specs = [(16usize, 5u64), (8, 6)];

    let mut server: Server<Groth16Backend<Bn254>> =
        Server::open(dir.join("server"), ServerConfig::default()).unwrap();
    let mut ids = Vec::new();
    for &(constraints, x) in &specs {
        let (id, res) = server.submit(prove_job(constraints, x, Priority::Normal));
        assert!(res.is_ok());
        ids.push(id);
    }
    let drained = server.drain_to_checkpoint(&ckpt).unwrap();
    assert_eq!(drained, 2);
    for id in &ids {
        assert!(matches!(
            server.outcome(*id),
            Some(JobOutcome::Cancelled { .. })
        ));
    }
    // Draining refuses new work.
    let (_, res) = server.submit(prove_job(8, 9, Priority::High));
    assert!(matches!(res, Err(RejectReason::Draining)));
    assert!(server.accounting_errors().is_empty());

    // A successor over the same artifact cache resumes the queue.
    let mut successor: Server<Groth16Backend<Bn254>> =
        Server::open(dir.join("server"), ServerConfig::default()).unwrap();
    let resumed = successor.resume_from_checkpoint(&ckpt).unwrap();
    assert_eq!(resumed.len(), 2);
    assert!(resumed.iter().all(|(_, r)| r.is_ok()));
    successor.run_until_drained();

    let mut serial: ArtifactCache<Groth16Backend<Bn254>> = ArtifactCache::open(dir.join("serial")).unwrap();
    for (i, &(constraints, x)) in specs.iter().enumerate() {
        let new_id = *resumed[i].1.as_ref().unwrap();
        let expected = prove_serial(&mut serial, &CircuitSpec::exponentiate(constraints, x)).unwrap();
        match successor.outcome(new_id) {
            Some(JobOutcome::Served { proof, .. }) => assert_eq!(
                proof, &expected,
                "resumed job {new_id} proof differs from serial path"
            ),
            other => panic!("{other:?}"),
        }
    }
    assert!(successor.accounting_errors().is_empty());

    // A truncated checkpoint is typed corruption, never replayed.
    let bytes = fs::read(&ckpt).unwrap();
    fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    let mut another: Server<Groth16Backend<Bn254>> =
        Server::open(dir.join("server2"), ServerConfig::default()).unwrap();
    let err = another.resume_from_checkpoint(&ckpt).unwrap_err();
    assert!(
        matches!(err, zkperf_core::StageError::Artifact { .. }),
        "{err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}
