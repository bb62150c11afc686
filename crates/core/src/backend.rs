//! The backend-generic prover surface: one trait, three proving systems.
//!
//! [`ProverBackend`] abstracts everything the characterization pipeline
//! needs from a proving system — setup, prove, verify, proof/key sizing,
//! a byte codec, and optional batch verification — so the
//! [`Workload`](crate::Workload) stages, the sweep matrix, the serve job
//! runner, and the bench binaries all dispatch through one interface.
//!
//! Three implementations ship:
//!
//! - [`Groth16Backend<E>`] — the paper's baseline pairing SNARK (trusted
//!   setup, constant-size proofs, two curves);
//! - [`PlonkBackend<E>`] — KZG PLONK (universal trusted setup, ~2×
//!   prover cost, constant-size proofs);
//! - [`StarkBackend`] — the transparent FRI backend over the 64-bit
//!   Goldilocks field (no trusted setup, poly-log proofs, hash-based).
//!
//! Backends are stateless marker types: every method is associated, so a
//! backend can be selected with a type parameter and carried around as a
//! [`BackendKind`] value where dynamic dispatch is needed (sweep configs,
//! CLI flags, serve job routing).

use std::marker::PhantomData;
use std::path::Path;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use zkperf_circuit::{R1cs, Witness};
use zkperf_ec::{Affine, CurveParams, Engine};
use zkperf_ff::{Field, Goldilocks, PrimeField};
use zkperf_groth16 as groth16;
use zkperf_io::{
    decode_point_compressed, encode_point_compressed, read_proof, read_zkey_file, write_proof,
    write_zkey_file, Container, Cursor, FieldCodec, Payload,
};
use zkperf_plonk as plonk;
use zkperf_stark as stark;

use crate::stage::{Curve, Stage};
use crate::workload::StageError;

/// Container magic for serialized PLONK proofs.
const MAGIC_PLONK_PROOF: [u8; 4] = *b"zkpp";
/// Section id for the PLONK proof body.
const SEC_PLONK_BODY: u32 = 1;

/// The proving system a measurement, job, or sweep cell runs on.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum BackendKind {
    /// Groth16 over a pairing curve (the paper's baseline).
    #[default]
    Groth16,
    /// KZG PLONK over a pairing curve.
    Plonk,
    /// The transparent FRI/STARK backend over Goldilocks.
    Stark,
}

impl BackendKind {
    /// All backends, baseline first.
    pub const ALL: [BackendKind; 3] = [BackendKind::Groth16, BackendKind::Plonk, BackendKind::Stark];

    /// Lower-case scheme label used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Groth16 => "groth16",
            BackendKind::Plonk => "plonk",
            BackendKind::Stark => "stark",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of a [`ProverBackend::load_keys`] probe against a disk cache.
pub enum KeyLoad<K> {
    /// An intact key artifact was read.
    Loaded(K),
    /// No artifact exists at the path.
    Missing,
    /// An artifact exists but failed its integrity checks; the caller
    /// should evict it and rebuild.
    Corrupt,
    /// This backend does not persist keys (they are cheap to rebuild
    /// deterministically from the setup seed).
    Unsupported,
    /// The artifact could not be read for an environmental reason
    /// (permissions, I/O) that eviction would not fix.
    Failed(StageError),
}

/// A proving system the characterization pipeline can drive end to end.
///
/// All methods are associated functions: implementations are zero-sized
/// marker types selected by a type parameter. The `'static` bound lets
/// backends key caches and thread-locals by `TypeId`.
pub trait ProverBackend: 'static {
    /// The scalar field circuits are compiled over.
    type Fr: PrimeField;
    /// Prover-side key material ([`setup`](Self::setup) output). For
    /// transparent backends this is just the parameter set.
    type Keys;
    /// The proof object.
    type Proof: Clone;

    /// Which proving system this is.
    fn kind() -> BackendKind;

    /// The curve (or field) label measurements are tagged with.
    fn curve() -> Curve;

    /// Stable identifier for content-addressing (cache keys, report
    /// rows). Distinct per (scheme, curve) pair.
    fn label() -> &'static str;

    /// Whether setup is transparent (no trusted ceremony, no toxic
    /// waste): `true` only for the STARK backend.
    fn transparent_setup() -> bool {
        false
    }

    /// Runs (trusted or transparent) setup for `r1cs`.
    ///
    /// # Errors
    ///
    /// The backend's setup error, wrapped in [`StageError`].
    fn setup(r1cs: &R1cs<Self::Fr>, rng: &mut StdRng) -> Result<Self::Keys, StageError>;

    /// Runs setup the way a multi-party ceremony does, for backends where
    /// that is more work than [`setup`](Self::setup) for the same keys and
    /// the same `rng` draws (Groth16: key generation, then a phase-2
    /// contribution by a party who does not know δ). The traced
    /// [`Workload`](crate::Workload) setup stage runs this one, because
    /// the paper measured the snarkjs `groth16 setup` + `zkey contribute`
    /// sequence; everything that just needs keys calls `setup`.
    ///
    /// # Errors
    ///
    /// As [`setup`](Self::setup).
    fn setup_ceremony(r1cs: &R1cs<Self::Fr>, rng: &mut StdRng) -> Result<Self::Keys, StageError> {
        Self::setup(r1cs, rng)
    }

    /// Produces a proof for `witness`.
    ///
    /// # Errors
    ///
    /// The backend's proving error, wrapped in [`StageError`].
    fn prove(
        keys: &Self::Keys,
        r1cs: &R1cs<Self::Fr>,
        witness: &Witness<Self::Fr>,
        rng: &mut StdRng,
    ) -> Result<Self::Proof, StageError>;

    /// Checks a proof against the claimed public inputs. `Ok(false)` is a
    /// sound rejection; `Err` means no verdict was reached.
    ///
    /// # Errors
    ///
    /// The backend's verification error, wrapped in [`StageError`].
    fn verify(
        keys: &Self::Keys,
        r1cs: &R1cs<Self::Fr>,
        proof: &Self::Proof,
        public: &[Self::Fr],
    ) -> Result<bool, StageError>;

    /// Approximate serialized size of the key material, for the staged-IO
    /// model and the keys row of the comparison table.
    fn keys_size_bytes(keys: &Self::Keys) -> usize;

    /// Exact serialized proof size in bytes.
    fn proof_size_bytes(proof: &Self::Proof) -> usize {
        Self::encode_proof(proof).len()
    }

    /// Serializes a proof to its canonical byte form.
    fn encode_proof(proof: &Self::Proof) -> Vec<u8>;

    /// Parses a proof from untrusted bytes.
    ///
    /// # Errors
    ///
    /// [`StageError::Artifact`] (or a backend-typed decode error) on
    /// malformed input; never panics or over-allocates.
    fn decode_proof(bytes: &[u8]) -> Result<Self::Proof, StageError>;

    /// Verifies many (proof, public inputs) pairs of one circuit in a
    /// single combined check, when the backend supports it. `None` means
    /// "no batch path — verify individually"; `Some(false)` means at
    /// least one member failed (callers fall back to per-item verdicts).
    fn verify_batch(
        _keys: &Self::Keys,
        _items: &[(Self::Proof, Vec<Self::Fr>)],
        _rng: &mut StdRng,
    ) -> Option<bool> {
        None
    }

    /// Persists key material to a cache path. Backends that rebuild keys
    /// deterministically from the setup seed may no-op.
    ///
    /// # Errors
    ///
    /// [`StageError::Artifact`] when the write fails.
    fn save_keys(_path: &Path, _keys: &Self::Keys) -> Result<(), StageError> {
        Ok(())
    }

    /// Probes a cache path for previously saved keys.
    fn load_keys(_path: &Path) -> KeyLoad<Self::Keys> {
        KeyLoad::Unsupported
    }
}

/// The Groth16 backend over pairing engine `E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Groth16Backend<E: Engine>(PhantomData<E>);

/// The KZG PLONK backend over pairing engine `E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlonkBackend<E: Engine>(PhantomData<E>);

/// The transparent FRI/STARK backend over the Goldilocks field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarkBackend;

/// Maps an engine's name to the measurement curve tag.
fn engine_curve<E: Engine>() -> Curve {
    if E::NAME == zkperf_ec::Bn254::NAME {
        Curve::Bn128
    } else {
        Curve::Bls12_381
    }
}

impl<E: Engine> ProverBackend for Groth16Backend<E>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    type Fr = E::Fr;
    type Keys = groth16::ProvingKey<E>;
    type Proof = groth16::Proof<E>;

    fn kind() -> BackendKind {
        BackendKind::Groth16
    }

    fn curve() -> Curve {
        engine_curve::<E>()
    }

    fn label() -> &'static str {
        // Bare engine name: preserves the content keys (and therefore the
        // on-disk cache entries) of the pre-trait Groth16-only server.
        E::NAME
    }

    fn setup(r1cs: &R1cs<E::Fr>, rng: &mut StdRng) -> Result<Self::Keys, StageError> {
        // snarkjs zkeys need at least one phase-2 contribution before they
        // are usable. The one party here generates the key and contributes
        // to it, so the contribution is folded into the key builder.
        Ok(groth16::setup_contributed::<E, _>(r1cs, rng)?)
    }

    fn setup_ceremony(r1cs: &R1cs<E::Fr>, rng: &mut StdRng) -> Result<Self::Keys, StageError> {
        let mut pk = groth16::setup::<E, _>(r1cs, rng)?;
        // `groth16::setup` last polls before its G2 batch, and the
        // contribution is the longer half of the ceremony: a deadline that
        // fired in between must not pay for it.
        if zkperf_pool::cancellation_pending() {
            return Err(StageError::Cancelled {
                stage: Stage::Setup,
            });
        }
        // The paper's setup measurement is `groth16 setup` followed by
        // `zkey contribute`: the contributor's sweep over `L` and `H`.
        groth16::contribute::<E, _>(&mut pk, rng);
        Ok(pk)
    }

    fn prove(
        keys: &Self::Keys,
        r1cs: &R1cs<E::Fr>,
        witness: &Witness<E::Fr>,
        rng: &mut StdRng,
    ) -> Result<Self::Proof, StageError> {
        Ok(groth16::prove::<E, _>(keys, r1cs, witness, rng)?)
    }

    fn verify(
        keys: &Self::Keys,
        _r1cs: &R1cs<E::Fr>,
        proof: &Self::Proof,
        public: &[E::Fr],
    ) -> Result<bool, StageError> {
        Ok(groth16::verify::<E>(&keys.vk, proof, public)?)
    }

    fn keys_size_bytes(keys: &Self::Keys) -> usize {
        keys.size_bytes()
    }

    fn encode_proof(proof: &Self::Proof) -> Vec<u8> {
        let mut bytes = Vec::new();
        // Infallible on a Vec sink.
        let _ = write_proof::<E>(&mut bytes, proof);
        bytes
    }

    fn decode_proof(bytes: &[u8]) -> Result<Self::Proof, StageError> {
        read_proof::<E>(&mut &bytes[..]).map_err(|e| StageError::Artifact {
            path: "(groth16 proof payload)".to_string(),
            detail: e.to_string(),
        })
    }

    fn verify_batch(
        keys: &Self::Keys,
        items: &[(Self::Proof, Vec<E::Fr>)],
        rng: &mut StdRng,
    ) -> Option<bool> {
        groth16::verify_batch::<E, _>(&keys.vk, items, rng).ok()
    }

    fn save_keys(path: &Path, keys: &Self::Keys) -> Result<(), StageError> {
        Ok(write_zkey_file::<E>(path, keys)?)
    }

    fn load_keys(path: &Path) -> KeyLoad<Self::Keys> {
        match read_zkey_file::<E>(path) {
            Ok(pk) => KeyLoad::Loaded(pk),
            Err(e) if e.is_missing() => KeyLoad::Missing,
            Err(e) if e.is_corruption() => KeyLoad::Corrupt,
            Err(e) => KeyLoad::Failed(e.into()),
        }
    }
}

impl<E: Engine> ProverBackend for PlonkBackend<E>
where
    <E::G1 as CurveParams>::Base: PrimeField + FieldCodec,
    E::Fr: FieldCodec,
{
    type Fr = E::Fr;
    type Keys = plonk::PlonkProverKey<E>;
    type Proof = plonk::PlonkProof<E>;

    fn kind() -> BackendKind {
        BackendKind::Plonk
    }

    fn curve() -> Curve {
        engine_curve::<E>()
    }

    fn label() -> &'static str {
        if E::NAME == zkperf_ec::Bn254::NAME {
            "plonk-BN128"
        } else {
            "plonk-BLS12-381"
        }
    }

    fn setup(r1cs: &R1cs<E::Fr>, rng: &mut StdRng) -> Result<Self::Keys, StageError> {
        Ok(plonk::plonk_setup::<E, _>(r1cs, rng)?)
    }

    fn prove(
        keys: &Self::Keys,
        _r1cs: &R1cs<E::Fr>,
        witness: &Witness<E::Fr>,
        _rng: &mut StdRng,
    ) -> Result<Self::Proof, StageError> {
        Ok(plonk::plonk_prove::<E>(keys, witness.full())?)
    }

    fn verify(
        keys: &Self::Keys,
        _r1cs: &R1cs<E::Fr>,
        proof: &Self::Proof,
        public: &[E::Fr],
    ) -> Result<bool, StageError> {
        Ok(plonk::plonk_verify::<E>(keys.vk(), proof, public))
    }

    fn keys_size_bytes(keys: &Self::Keys) -> usize {
        keys.size_bytes()
    }

    /// Body layout: `[a] [b] [c] [z] [t_lo] [t_mid] [t_hi]` compressed,
    /// the six evaluations, `W_ζ W_ζω` compressed — 9·33 + 6·32 bytes on
    /// BN254 when no point is the identity.
    fn encode_proof(proof: &Self::Proof) -> Vec<u8> {
        let mut body = Payload::default();
        let committed = proof.wire_commits.iter().chain([&proof.z_commit]).chain(&proof.t_commits);
        for c in committed {
            encode_point_compressed(&c.0, &mut body);
        }
        for v in &proof.evals {
            v.encode(&mut body);
        }
        encode_point_compressed(&proof.w_zeta.0, &mut body);
        encode_point_compressed(&proof.w_zeta_omega.0, &mut body);
        let mut container = Container::new(MAGIC_PLONK_PROOF);
        container.push_section(SEC_PLONK_BODY, body.0);
        let mut bytes = Vec::new();
        let _ = container.write_to(&mut bytes);
        bytes
    }

    fn decode_proof(bytes: &[u8]) -> Result<Self::Proof, StageError> {
        let bad = |detail: String| StageError::Artifact {
            path: "(plonk proof payload)".to_string(),
            detail,
        };
        let container =
            Container::read_from(&mut &bytes[..], MAGIC_PLONK_PROOF).map_err(|e| bad(e.to_string()))?;
        let section = container
            .section(SEC_PLONK_BODY)
            .map_err(|e| bad(e.to_string()))?;
        let mut cur = Cursor::new(section);
        let point = |cur: &mut Cursor<'_>| {
            decode_point_compressed::<E::G1>(cur).map_err(|e| bad(e.to_string()))
        };
        let mut committed = [plonk::Commitment::<E>(Affine::identity()); 7];
        for slot in committed.iter_mut() {
            slot.0 = point(&mut cur)?;
        }
        let [a, b, c, z_commit, t_lo, t_mid, t_hi] = committed;
        let mut evals = [E::Fr::zero(); 6];
        for slot in evals.iter_mut() {
            *slot = E::Fr::decode(&mut cur).map_err(|e| bad(e.to_string()))?;
        }
        let w_zeta = plonk::OpeningProof::<E>(point(&mut cur)?);
        let w_zeta_omega = plonk::OpeningProof::<E>(point(&mut cur)?);
        // The layout has no optional tail: bytes past it are another
        // layout's, not padding.
        if !cur.finished() {
            return Err(bad(format!("{} bytes past the proof body", cur.remaining())));
        }
        Ok(plonk::PlonkProof {
            wire_commits: [a, b, c],
            z_commit,
            t_commits: [t_lo, t_mid, t_hi],
            evals,
            w_zeta,
            w_zeta_omega,
        })
    }
}

impl ProverBackend for StarkBackend {
    type Fr = Goldilocks;
    type Keys = stark::StarkParams;
    type Proof = stark::StarkProof;

    fn kind() -> BackendKind {
        BackendKind::Stark
    }

    fn curve() -> Curve {
        Curve::Goldilocks
    }

    fn label() -> &'static str {
        "stark-GL64"
    }

    fn transparent_setup() -> bool {
        true
    }

    fn setup(_r1cs: &R1cs<Goldilocks>, _rng: &mut StdRng) -> Result<Self::Keys, StageError> {
        // Transparent: the "keys" are just the publicly derivable FRI
        // parameters; no ceremony, no toxic waste, nothing to contribute.
        Ok(stark::StarkParams::from_env())
    }

    fn prove(
        keys: &Self::Keys,
        r1cs: &R1cs<Goldilocks>,
        witness: &Witness<Goldilocks>,
        _rng: &mut StdRng,
    ) -> Result<Self::Proof, StageError> {
        Ok(stark::prove(r1cs, witness.full(), keys)?)
    }

    fn verify(
        keys: &Self::Keys,
        r1cs: &R1cs<Goldilocks>,
        proof: &Self::Proof,
        public: &[Goldilocks],
    ) -> Result<bool, StageError> {
        match stark::verify(r1cs, public, proof, keys) {
            Ok(()) => Ok(true),
            Err(e) if e.is_rejection() => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    fn keys_size_bytes(_keys: &Self::Keys) -> usize {
        // Two u64 parameters; the transparent backend ships no key
        // material at all.
        16
    }

    fn proof_size_bytes(proof: &Self::Proof) -> usize {
        proof.size_bytes()
    }

    fn encode_proof(proof: &Self::Proof) -> Vec<u8> {
        proof.encode()
    }

    fn decode_proof(bytes: &[u8]) -> Result<Self::Proof, StageError> {
        Ok(stark::StarkProof::decode(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;
    use zkperf_ff::Field;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xbac)
    }

    fn roundtrip<B: ProverBackend>() {
        let circuit = exponentiate::<B::Fr>(8);
        let witness = circuit
            .generate_witness(&[B::Fr::from_u64(3)], &[])
            .unwrap();
        let keys = B::setup(circuit.r1cs(), &mut rng()).unwrap();
        let proof = B::prove(&keys, circuit.r1cs(), &witness, &mut rng()).unwrap();
        assert_eq!(
            B::verify(&keys, circuit.r1cs(), &proof, witness.public()),
            Ok(true),
            "{} accepts its own proof",
            B::label()
        );
        let bytes = B::encode_proof(&proof);
        assert_eq!(bytes.len(), B::proof_size_bytes(&proof));
        let decoded = B::decode_proof(&bytes).unwrap();
        assert_eq!(
            B::verify(&keys, circuit.r1cs(), &decoded, witness.public()),
            Ok(true),
            "{} accepts the decoded proof",
            B::label()
        );
        assert!(B::decode_proof(&bytes[..bytes.len() / 2]).is_err());
        assert!(B::keys_size_bytes(&keys) > 0);
    }

    #[test]
    fn groth16_roundtrip_and_codec() {
        roundtrip::<Groth16Backend<Bn254>>();
    }

    #[test]
    fn groth16_setup_builds_no_key_past_an_expired_deadline() {
        let circuit = exponentiate::<zkperf_ff::bn254::Fr>(8);
        let token = zkperf_pool::CancelToken::with_deadline(std::time::Instant::now());
        let _scope = token.enter();
        type B = Groth16Backend<Bn254>;
        for setup in [B::setup, B::setup_ceremony] {
            let err = setup(circuit.r1cs(), &mut rng()).err();
            assert!(
                err.as_ref().is_some_and(StageError::is_cancellation),
                "expected a cancellation, got {err:?}"
            );
        }
    }

    #[test]
    fn plonk_roundtrip_and_codec() {
        roundtrip::<PlonkBackend<Bn254>>();
    }

    #[test]
    fn stark_roundtrip_and_codec() {
        roundtrip::<StarkBackend>();
    }

    #[test]
    fn kind_labels_and_transparency() {
        assert_eq!(BackendKind::ALL.map(BackendKind::name), ["groth16", "plonk", "stark"]);
        assert_eq!(Groth16Backend::<Bn254>::label(), Bn254::NAME);
        assert_eq!(PlonkBackend::<Bn254>::label(), "plonk-BN128");
        assert_eq!(StarkBackend::label(), "stark-GL64");
        assert!(!Groth16Backend::<Bn254>::transparent_setup());
        assert!(!PlonkBackend::<Bn254>::transparent_setup());
        assert!(StarkBackend::transparent_setup());
        assert_eq!(StarkBackend::curve(), Curve::Goldilocks);
        assert_eq!(Groth16Backend::<Bn254>::curve(), Curve::Bn128);
    }
}
