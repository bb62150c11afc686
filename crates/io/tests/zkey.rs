//! The `.zkey` through its public surface: a resident key is the
//! one-chunk streamed key, every chunking reads back to the same key and
//! proof, and every shape check, truncation and contract breach is a typed
//! error.

use std::fs;
use std::path::{Path, PathBuf};

use zkperf_circuit::library::exponentiate;
use zkperf_ec::{Bn254, CurveParams, Engine};
use zkperf_ff::bn254::Fr;
use zkperf_ff::Field;
use zkperf_groth16::{
    prove, prove_streamed, setup, setup_streamed, G1Query, QuerySink, QuerySource, StreamHeader,
};
use zkperf_io::{
    crc32, read_zkey, read_zkey_file, write_zkey, write_zkey_file, FieldCodec, FormatError,
    StreamedZkeyReader, StreamedZkeyWriter,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkperf-zkey-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_fixture(dir: &Path, chunk: usize, constraints: usize) -> PathBuf {
    let circuit = exponentiate::<Fr>(constraints);
    let mut rng = zkperf_ff::test_rng();
    let path = dir.join(format!("k{chunk}.zks"));
    let mut w = StreamedZkeyWriter::<Bn254>::create(&path).unwrap();
    setup_streamed(circuit.r1cs(), &mut rng, chunk, &mut w).unwrap();
    path
}

#[test]
fn roundtrip_prove_matches_resident_including_partial_final_chunk() {
    let dir = tmp_dir("roundtrip");
    let circuit = exponentiate::<Fr>(45); // 47 wires: not a chunk multiple
    let mut rng = zkperf_ff::test_rng();
    let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
    let w = circuit.generate_witness(&[Fr::from_u64(5)], &[]).unwrap();
    let mut rng = zkperf_ff::test_rng();
    let reference = prove(&pk, circuit.r1cs(), &w, &mut rng).unwrap();

    for chunk in [1usize, 13, 1 << 12, usize::MAX] {
        let path = write_fixture(&dir, chunk, 45);
        let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();
        assert_eq!(reader.header().chunk_points, chunk);
        let mut rng = zkperf_ff::test_rng();
        let streamed = prove_streamed(&reader, circuit.r1cs(), &w, &mut rng).unwrap();
        assert_eq!(streamed, reference, "chunk = {chunk}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn streamed_file_reassembles_to_the_resident_key() {
    let dir = tmp_dir("reassemble");
    let circuit = exponentiate::<Fr>(20);
    let mut rng = zkperf_ff::test_rng();
    let resident = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
    for chunk in [1usize, 7, 13, 4096, usize::MAX] {
        let path = write_fixture(&dir, chunk, 20);
        let bytes = fs::read(&path).unwrap();
        assert_eq!(
            read_zkey::<Bn254>(&mut bytes.as_slice()).unwrap(),
            resident,
            "{chunk}"
        );
        assert_eq!(read_zkey_file::<Bn254>(&path).unwrap(), resident, "{chunk}");
    }
    // At one chunk per query the streamed file is the resident encoding.
    let mut one_chunk = Vec::new();
    write_zkey(&mut one_chunk, &resident).unwrap();
    assert_eq!(
        fs::read(write_fixture(&dir, usize::MAX, 20)).unwrap(),
        one_chunk
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_written_zkey_file_proves_off_the_streamed_reader() {
    let dir = tmp_dir("resident-file");
    let circuit = exponentiate::<Fr>(30);
    let pk = setup::<Bn254, _>(circuit.r1cs(), &mut zkperf_ff::test_rng()).unwrap();
    let w = circuit.generate_witness(&[Fr::from_u64(5)], &[]).unwrap();
    let reference = prove(&pk, circuit.r1cs(), &w, &mut zkperf_ff::test_rng()).unwrap();
    let path = dir.join("pk.zkey");
    write_zkey_file(&path, &pk).unwrap();
    let reader = StreamedZkeyReader::<Bn254>::open(&path).unwrap();
    assert_eq!(reader.header().chunk_points, usize::MAX);
    let streamed = prove_streamed(&reader, circuit.r1cs(), &w, &mut zkperf_ff::test_rng()).unwrap();
    assert_eq!(streamed, reference);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_and_missing_sections_are_typed() {
    let dir = tmp_dir("trunc");
    let path = write_fixture(&dir, 11, 25);
    let full = fs::read(&path).unwrap();

    // Truncated mid-payload: typed corruption at open.
    fs::write(&path, &full[..full.len() - 7]).unwrap();
    let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
    assert!(err.is_corruption(), "{err}");

    // Truncated section *count* (header claims more sections than
    // present): typed, not a panic.
    fs::write(&path, &full[..20]).unwrap();
    let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
    assert!(err.is_corruption(), "{err}");

    // Wrong magic.
    let mut bad = full.clone();
    bad[0] ^= 0xff;
    fs::write(&path, &bad).unwrap();
    let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
    assert!(matches!(err.error, FormatError::BadMagic { .. }));

    // Version 1 never had this framing.
    let mut old = full.clone();
    old[4..8].copy_from_slice(&1u32.to_le_bytes());
    fs::write(&path, &old).unwrap();
    let err = StreamedZkeyReader::<Bn254>::open(&path).unwrap_err();
    assert!(matches!(err.error, FormatError::BadVersion(1)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn writer_enforces_chunk_contract_and_cleans_tmp() {
    let dir = tmp_dir("contract");
    let path = dir.join("bad.zks");
    {
        let mut w = StreamedZkeyWriter::<Bn254>::create(&path).unwrap();
        let header = StreamHeader {
            num_wires: 10,
            num_public_wires: 2,
            domain_size: 8,
            chunk_points: 4,
        };
        QuerySink::<Bn254>::begin(&mut w, &header).unwrap();
        // Wrong chunk length is rejected.
        let pts = vec![zkperf_ec::bn254::G1Affine::generator(); 3];
        let err = w.g1_chunk(G1Query::A, &pts).unwrap_err();
        assert!(
            err.detail.contains("chunk point count mismatch"),
            "{}",
            err.detail
        );
        // Dropping without finish leaves no artifact…
    }
    assert!(!path.exists());
    // …and no temp file.
    assert!(!path.with_extension("tmp").exists());
    let _ = fs::remove_dir_all(&dir);
}

/// `ProvingKey::size_bytes` against the encoded `.zkey`: the file is
/// the key's coordinates plus framing (the preamble, seven section
/// headers, the four header words, six length prefixes, one flag byte
/// per point), minus the coordinates of identity points, which encode
/// as the flag alone.
fn size_bytes_matches_the_encoded_zkey<E: Engine>()
where
    <E::G1 as CurveParams>::Base: FieldCodec,
    <E::G2 as CurveParams>::Base: FieldCodec,
{
    let circuit = exponentiate::<E::Fr>(64);
    let pk = setup::<E, _>(circuit.r1cs(), &mut zkperf_ff::test_rng()).unwrap();
    let mut zkey = Vec::new();
    write_zkey(&mut zkey, &pk).unwrap();

    let g1_queries = [
        &pk.a_query,
        &pk.b_g1_query,
        &pk.l_query,
        &pk.h_query,
        &pk.vk.ic,
    ];
    let g1_points = 3 + g1_queries.iter().map(|q| q.len()).sum::<usize>();
    let g2_points = 3 + pk.b_g2_query.len();
    let g1_identities: usize = g1_queries
        .iter()
        .map(|q| q.iter().filter(|p| p.infinity).count())
        .sum();
    let g2_identities = pk.b_g2_query.iter().filter(|p| p.infinity).count();
    assert!(g1_identities > 0 && g2_identities > 0, "sparse B query");
    let g1_bytes = 2 * <E::G1 as CurveParams>::Base::encoded_len();
    let g2_bytes = 2 * <E::G2 as CurveParams>::Base::encoded_len();
    let framing = 12 + 7 * 16 + 4 * 8 + 6 * 8 + g1_points + g2_points;
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
/// The header payload follows the 12-byte preamble and its 16-byte section
/// header: wires, public wires, domain size, chunk size.
const HEADER: std::ops::Range<usize> = 28..60;

#[test]
fn the_header_checks_reject_impossible_shapes() {
    let pk = setup::<Bn254, _>(exponentiate::<Fr>(6).r1cs(), &mut zkperf_ff::test_rng()).unwrap();
    let mut good = Vec::new();
    write_zkey(&mut good, &pk).unwrap();
    let wires = pk.a_query.len() as u64;
    let cases: [(&str, usize, u64); 7] = [
        ("bad domain size", 2, 0),
        ("bad domain size", 2, 12),
        ("bad domain size", 2, 1 << 31),
        ("public wires exceed wires", 1, wires + 1),
        ("zero chunk size", 3, 0),
        ("section count disagrees with header", 3, 1),
        ("chunk point count mismatch", 0, wires + 1),
    ];
    for (want, word, value) in cases {
        // Edit one header word and re-seal the section's checksum, so the
        // shape checks, not the CRC, meet the edit.
        let mut bytes = good.clone();
        let at = HEADER.start + 8 * word;
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let crc = crc32(&bytes[HEADER]);
        bytes[24..28].copy_from_slice(&crc.to_le_bytes());
        let err = read_zkey::<Bn254>(&mut bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, FormatError::AtOffset { .. }),
            "word {word} = {value}: {err}"
        );
        assert!(
            err.to_string().contains(want),
            "word {word} = {value}: {err}"
        );
    }
}
