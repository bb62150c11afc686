//! The concrete file formats: `.r1cs`, `.wtns`, `.zkey`, `.vkey`, `.proof`.

use std::io::{Read, Write};

use zkperf_circuit::{Constraint, LinearCombination, R1cs, Variable};
use zkperf_ec::{CurveParams, Engine};
use zkperf_ff::PrimeField;
use zkperf_groth16::{Proof, ProvingKey, VerifyingKey};
use zkperf_trace as trace;

use crate::codec::{
    decode_point, decode_point_vec, decode_prime, encode_point, encode_point_vec, encode_prime,
    FieldCodec,
};
use crate::format::{Container, Cursor, FormatError, Payload};

const MAGIC_R1CS: [u8; 4] = *b"zkr1";
const MAGIC_WTNS: [u8; 4] = *b"zkwt";
const MAGIC_ZKEY: [u8; 4] = *b"zkpk";
const MAGIC_VKEY: [u8; 4] = *b"zkvk";
const MAGIC_PROOF: [u8; 4] = *b"zkpf";

const SEC_HEADER: u32 = 1;
const SEC_CONSTRAINTS: u32 = 2;
const SEC_VALUES: u32 = 3;
const SEC_G1: u32 = 4;
const SEC_G2: u32 = 5;

fn encode_lc<F: PrimeField>(lc: &LinearCombination<F>, out: &mut Payload) {
    out.u32(lc.len() as u32);
    for &(v, c) in lc.terms() {
        out.u32(v.0);
        encode_prime(&c, out);
    }
}

fn decode_lc<F: PrimeField>(cur: &mut Cursor<'_>) -> Result<LinearCombination<F>, FormatError> {
    let n = cur.u32()? as usize;
    // A term is at least a u32 wire index plus one coefficient limb, so
    // any count past remaining/12 cannot be satisfied by the bytes left;
    // the absolute cap additionally bounds well-formed-looking inputs.
    if n > (1 << 24) || n > cur.remaining() / 12 {
        return Err(FormatError::Corrupt("unreasonable term count"));
    }
    let mut lc = LinearCombination::zero();
    for _ in 0..n {
        let wire = cur.u32()?;
        let coeff = decode_prime(cur)?;
        lc.add_term(Variable(wire), coeff);
    }
    Ok(lc)
}

/// Writes a constraint system as a `.r1cs`-style container.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_r1cs<F: PrimeField>(w: &mut impl Write, r1cs: &R1cs<F>) -> Result<(), FormatError> {
    let _g = trace::region_profile("file_io");
    let mut header = Payload::default();
    header.u64(r1cs.num_wires() as u64);
    header.u64(r1cs.num_outputs() as u64);
    header.u64(r1cs.num_public_inputs() as u64);
    header.u64(r1cs.num_private_inputs() as u64);
    header.u64(r1cs.num_constraints() as u64);
    let mut body = Payload::default();
    for c in r1cs.constraints() {
        encode_lc(&c.a, &mut body);
        encode_lc(&c.b, &mut body);
        encode_lc(&c.c, &mut body);
    }
    let mut container = Container::new(MAGIC_R1CS);
    container.push_section(SEC_HEADER, header.0);
    container.push_section(SEC_CONSTRAINTS, body.0);
    container.write_to(w)
}

/// Reads a `.r1cs` container back into a validated [`R1cs`].
///
/// # Errors
///
/// [`FormatError`] on malformed input (including out-of-range wires, which
/// surface as a panic converted by the validating constructor — corrupt
/// counts are caught here first).
pub fn read_r1cs<F: PrimeField>(r: &mut impl Read) -> Result<R1cs<F>, FormatError> {
    let _g = trace::region_profile("file_io");
    let container = Container::read_from(r, MAGIC_R1CS)?;
    let mut h = Cursor::new(container.section(SEC_HEADER)?);
    let num_wires = h.u64()? as usize;
    let num_outputs = h.u64()? as usize;
    let num_public = h.u64()? as usize;
    let num_private = h.u64()? as usize;
    let num_constraints = h.u64()? as usize;
    if num_wires > (1 << 30) || num_constraints > (1 << 30) {
        return Err(FormatError::Corrupt("unreasonable r1cs dimensions"));
    }
    if 1 + num_outputs + num_public + num_private > num_wires {
        return Err(FormatError::Corrupt("wire layout exceeds wire count"));
    }
    let mut body = Cursor::new(container.section(SEC_CONSTRAINTS)?);
    // Three u32 length prefixes per constraint is the smallest possible
    // encoding; a count beyond that is a corrupt header, rejected before
    // the capacity reservation below can balloon.
    if num_constraints > body.remaining() / 12 {
        return Err(FormatError::Corrupt("constraint count exceeds section size"));
    }
    let mut constraints = Vec::with_capacity(num_constraints);
    for _ in 0..num_constraints {
        let a = decode_lc(&mut body)?;
        let b = decode_lc(&mut body)?;
        let c = decode_lc(&mut body)?;
        for lc in [&a, &b, &c] {
            if lc.terms().iter().any(|(v, _)| v.index() >= num_wires) {
                return Err(FormatError::Corrupt("constraint wire out of range"));
            }
        }
        constraints.push(Constraint { a, b, c });
    }
    if !body.finished() {
        return Err(FormatError::Corrupt("trailing constraint bytes"));
    }
    Ok(R1cs::from_parts(
        num_wires,
        num_outputs,
        num_public,
        num_private,
        constraints,
    ))
}

/// Writes a witness vector as a `.wtns`-style container.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_witness<F: PrimeField>(w: &mut impl Write, values: &[F]) -> Result<(), FormatError> {
    let _g = trace::region_profile("file_io");
    let mut body = Payload::default();
    body.u64(values.len() as u64);
    for v in values {
        encode_prime(v, &mut body);
    }
    let mut container = Container::new(MAGIC_WTNS);
    container.push_section(SEC_VALUES, body.0);
    container.write_to(w)
}

/// Reads a `.wtns` container.
///
/// # Errors
///
/// [`FormatError`] on malformed input.
pub fn read_witness<F: PrimeField>(r: &mut impl Read) -> Result<Vec<F>, FormatError> {
    let _g = trace::region_profile("file_io");
    let container = Container::read_from(r, MAGIC_WTNS)?;
    let mut body = Cursor::new(container.section(SEC_VALUES)?);
    let n = body.u64()? as usize;
    // Each witness value is at least one 8-byte limb; reject counts the
    // section cannot hold before reserving capacity for them.
    if n > (1 << 30) || n > body.remaining() / 8 {
        return Err(FormatError::Corrupt("unreasonable witness length"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_prime(&mut body)?);
    }
    if !body.finished() {
        return Err(FormatError::Corrupt("trailing witness bytes"));
    }
    Ok(out)
}

fn encode_vk<E: Engine>(vk: &VerifyingKey<E>) -> (Payload, Payload)
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let mut g1 = Payload::default();
    encode_point(&vk.alpha_g1, &mut g1);
    encode_point_vec(&vk.ic, &mut g1);
    let mut g2 = Payload::default();
    encode_point(&vk.beta_g2, &mut g2);
    encode_point(&vk.gamma_g2, &mut g2);
    encode_point(&vk.delta_g2, &mut g2);
    (g1, g2)
}

fn decode_vk<E: Engine>(g1: &[u8], g2: &[u8]) -> Result<VerifyingKey<E>, FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let mut c1 = Cursor::new(g1);
    let alpha_g1 = decode_point(&mut c1)?;
    let ic = decode_point_vec(&mut c1)?;
    let mut c2 = Cursor::new(g2);
    Ok(VerifyingKey {
        alpha_g1,
        ic,
        beta_g2: decode_point(&mut c2)?,
        gamma_g2: decode_point(&mut c2)?,
        delta_g2: decode_point(&mut c2)?,
    })
}

/// Writes a verification key as a `.vkey` container.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_vkey<E: Engine>(w: &mut impl Write, vk: &VerifyingKey<E>) -> Result<(), FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let (g1, g2) = encode_vk(vk);
    let mut container = Container::new(MAGIC_VKEY);
    container.push_section(SEC_G1, g1.0);
    container.push_section(SEC_G2, g2.0);
    container.write_to(w)
}

/// Reads a `.vkey` container.
///
/// # Errors
///
/// [`FormatError`] on malformed input (every point is curve-checked).
pub fn read_vkey<E: Engine>(r: &mut impl Read) -> Result<VerifyingKey<E>, FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let container = Container::read_from(r, MAGIC_VKEY)?;
    decode_vk::<E>(container.section(SEC_G1)?, container.section(SEC_G2)?)
}

/// Writes a proving key (including its embedded verification key) as a
/// `.zkey`-style container.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_zkey<E: Engine>(w: &mut impl Write, pk: &ProvingKey<E>) -> Result<(), FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let _g = trace::region_profile("file_io");
    let mut header = Payload::default();
    header.u64(pk.domain_size as u64);
    header.u64(pk.num_public_wires as u64);
    let mut g1 = Payload::default();
    encode_point(&pk.beta_g1, &mut g1);
    encode_point(&pk.delta_g1, &mut g1);
    encode_point_vec(&pk.a_query, &mut g1);
    encode_point_vec(&pk.b_g1_query, &mut g1);
    encode_point_vec(&pk.l_query, &mut g1);
    encode_point_vec(&pk.h_query, &mut g1);
    let mut g2 = Payload::default();
    encode_point_vec(&pk.b_g2_query, &mut g2);
    let (vk_g1, vk_g2) = encode_vk(&pk.vk);
    let mut container = Container::new(MAGIC_ZKEY);
    container.push_section(SEC_HEADER, header.0);
    container.push_section(SEC_G1, g1.0);
    container.push_section(SEC_G2, g2.0);
    container.push_section(SEC_G1 + 100, vk_g1.0);
    container.push_section(SEC_G2 + 100, vk_g2.0);
    container.write_to(w)
}

/// Reads a `.zkey` container.
///
/// # Errors
///
/// [`FormatError`] on malformed input (every point is curve-checked).
pub fn read_zkey<E: Engine>(r: &mut impl Read) -> Result<ProvingKey<E>, FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let _g = trace::region_profile("file_io");
    let container = Container::read_from(r, MAGIC_ZKEY)?;
    let mut h = Cursor::new(container.section(SEC_HEADER)?);
    let domain_size = h.u64()? as usize;
    let num_public_wires = h.u64()? as usize;
    // The prover trusts these header fields for domain construction and
    // witness slicing; a tampered value must die here as a format error.
    if domain_size == 0 || !domain_size.is_power_of_two() || domain_size > (1 << 30) {
        return Err(FormatError::Corrupt("invalid zkey domain size"));
    }
    if num_public_wires > (1 << 30) {
        return Err(FormatError::Corrupt("invalid zkey public wire count"));
    }
    let mut c1 = Cursor::new(container.section(SEC_G1)?);
    let beta_g1 = decode_point(&mut c1)?;
    let delta_g1 = decode_point(&mut c1)?;
    let a_query = decode_point_vec(&mut c1)?;
    let b_g1_query = decode_point_vec(&mut c1)?;
    let l_query = decode_point_vec(&mut c1)?;
    let h_query = decode_point_vec(&mut c1)?;
    let mut c2 = Cursor::new(container.section(SEC_G2)?);
    let b_g2_query = decode_point_vec(&mut c2)?;
    let vk = decode_vk::<E>(
        container.section(SEC_G1 + 100)?,
        container.section(SEC_G2 + 100)?,
    )?;
    if num_public_wires > a_query.len() {
        return Err(FormatError::Corrupt("public wires exceed a_query length"));
    }
    Ok(ProvingKey {
        vk,
        beta_g1,
        delta_g1,
        a_query,
        b_g1_query,
        b_g2_query,
        l_query,
        h_query,
        domain_size,
        num_public_wires,
    })
}

/// Writes a proof as a `.proof` container.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_proof<E: Engine>(w: &mut impl Write, proof: &Proof<E>) -> Result<(), FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let mut body = Payload::default();
    encode_point(&proof.a, &mut body);
    encode_point(&proof.c, &mut body);
    let mut g2 = Payload::default();
    encode_point(&proof.b, &mut g2);
    let mut container = Container::new(MAGIC_PROOF);
    container.push_section(SEC_G1, body.0);
    container.push_section(SEC_G2, g2.0);
    container.write_to(w)
}

/// Reads a `.proof` container (points are curve-checked).
///
/// # Errors
///
/// [`FormatError`] on malformed input.
pub fn read_proof<E: Engine>(r: &mut impl Read) -> Result<Proof<E>, FormatError>
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let container = Container::read_from(r, MAGIC_PROOF)?;
    let mut c1 = Cursor::new(container.section(SEC_G1)?);
    let a = decode_point(&mut c1)?;
    let c = decode_point(&mut c1)?;
    let mut c2 = Cursor::new(container.section(SEC_G2)?);
    let b = decode_point(&mut c2)?;
    Ok(Proof { a, b, c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;
    use zkperf_groth16::{prove, setup, verify};

    #[test]
    fn r1cs_roundtrip_preserves_satisfiability() {
        let circuit = exponentiate::<Fr>(8);
        let mut buf = Vec::new();
        write_r1cs(&mut buf, circuit.r1cs()).unwrap();
        let back: R1cs<Fr> = read_r1cs(&mut buf.as_slice()).unwrap();
        assert_eq!(&back, circuit.r1cs());
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        assert_eq!(back.check_satisfied(w.full()), Ok(()));
    }

    #[test]
    fn witness_roundtrip() {
        let circuit = exponentiate::<Fr>(5);
        let w = circuit.generate_witness(&[Fr::from_u64(4)], &[]).unwrap();
        let mut buf = Vec::new();
        write_witness(&mut buf, w.full()).unwrap();
        let back: Vec<Fr> = read_witness(&mut buf.as_slice()).unwrap();
        assert_eq!(back, w.full());
    }

    #[test]
    fn zkey_vkey_proof_roundtrip_and_verify() {
        let circuit = exponentiate::<Fr>(6);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng).unwrap();

        let mut zkey = Vec::new();
        write_zkey(&mut zkey, &pk).unwrap();
        let pk2: ProvingKey<Bn254> = read_zkey(&mut zkey.as_slice()).unwrap();
        assert_eq!(pk2, pk);

        let mut vkey = Vec::new();
        write_vkey(&mut vkey, &pk.vk).unwrap();
        let vk2: VerifyingKey<Bn254> = read_vkey(&mut vkey.as_slice()).unwrap();
        let mut pbytes = Vec::new();
        write_proof(&mut pbytes, &proof).unwrap();
        let proof2: Proof<Bn254> = read_proof(&mut pbytes.as_slice()).unwrap();
        assert!(verify::<Bn254>(&vk2, &proof2, w.public()).unwrap());

        // A proof generated under the reloaded key verifies too.
        let proof3 = prove::<Bn254, _>(&pk2, circuit.r1cs(), &w, &mut rng).unwrap();
        assert!(verify::<Bn254>(&pk.vk, &proof3, w.public()).unwrap());
    }

    #[test]
    fn corrupt_files_are_rejected_not_misread() {
        let circuit = exponentiate::<Fr>(4);
        let mut buf = Vec::new();
        write_r1cs(&mut buf, circuit.r1cs()).unwrap();
        // Flip a byte inside the constraints section.
        let idx = buf.len() - 5;
        buf[idx] ^= 0xff;
        let result: Result<R1cs<Fr>, _> = read_r1cs(&mut buf.as_slice());
        // Either a decode error or a different-but-valid system; never a panic.
        if let Ok(sys) = result {
            let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
            let _ = sys.check_satisfied(w.full());
        }
        // Wrong magic for the format.
        assert!(matches!(
            read_witness::<Fr>(&mut buf.as_slice()),
            Err(FormatError::BadMagic { .. })
        ));
    }

    /// `ProvingKey::size_bytes` against the encoded `.zkey`: the file is
    /// the key's coordinates plus framing (container and section headers,
    /// the two header words, six length prefixes, one flag byte per point),
    /// minus the coordinates of identity points, which encode as the flag
    /// alone.
    fn size_bytes_matches_the_encoded_zkey<E: Engine>()
    where
        <E::G1 as CurveParams>::Base: FieldCodec,
        <E::G2 as CurveParams>::Base: FieldCodec,
    {
        let circuit = exponentiate::<E::Fr>(64);
        let pk = setup::<E, _>(circuit.r1cs(), &mut zkperf_ff::test_rng()).unwrap();
        let mut zkey = Vec::new();
        write_zkey(&mut zkey, &pk).unwrap();

        let g1_queries = [&pk.a_query, &pk.b_g1_query, &pk.l_query, &pk.h_query, &pk.vk.ic];
        let g1_points = 3 + g1_queries.iter().map(|q| q.len()).sum::<usize>();
        let g2_points = 3 + pk.b_g2_query.len();
        let g1_identities: usize =
            g1_queries.iter().map(|q| q.iter().filter(|p| p.infinity).count()).sum();
        let g2_identities = pk.b_g2_query.iter().filter(|p| p.infinity).count();
        assert!(g1_identities > 0 && g2_identities > 0, "sparse B query");
        let g1_bytes = 2 * <E::G1 as CurveParams>::Base::encoded_len();
        let g2_bytes = 2 * <E::G2 as CurveParams>::Base::encoded_len();
        let framing = 12 + 5 * 16 + 16 + 6 * 8 + g1_points + g2_points;
        assert_eq!(
            zkey.len(),
            pk.size_bytes() - g1_identities * g1_bytes - g2_identities * g2_bytes + framing
        );
    }

    #[test]
    fn proving_key_size_bytes_matches_the_encoded_zkey_on_both_curves() {
        size_bytes_matches_the_encoded_zkey::<Bn254>();
        size_bytes_matches_the_encoded_zkey::<zkperf_ec::Bls12_381>();
    }

    #[test]
    fn bls_curve_formats_roundtrip() {
        use zkperf_ec::Bls12_381;
        type Fr381 = zkperf_ff::bls12_381::Fr;
        let circuit = exponentiate::<Fr381>(4);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bls12_381, _>(circuit.r1cs(), &mut rng).unwrap();
        let mut zkey = Vec::new();
        write_zkey(&mut zkey, &pk).unwrap();
        let pk2: ProvingKey<Bls12_381> = read_zkey(&mut zkey.as_slice()).unwrap();
        assert_eq!(pk2, pk);
    }
}
