//! The streamed-bytes meter counts `.zkey` bytes that cross a file
//! boundary and nothing else. One test, because the meter is global to
//! the process and tests in one binary run in parallel.

use zkperf_circuit::library::exponentiate;
use zkperf_ec::Bn254;
use zkperf_ff::bn254::Fr;
use zkperf_groth16::setup;
use zkperf_io::{read_zkey, read_zkey_file, write_zkey, write_zkey_file};
use zkperf_pool::mem::streamed_bytes;

#[test]
fn only_key_files_count_as_streamed() {
    let circuit = exponentiate::<Fr>(20);
    let pk = setup::<Bn254, _>(circuit.r1cs(), &mut zkperf_ff::test_rng()).unwrap();

    let start = streamed_bytes();
    let mut bytes = Vec::new();
    write_zkey(&mut bytes, &pk).unwrap();
    assert_eq!(read_zkey::<Bn254>(&mut bytes.as_slice()).unwrap(), pk);
    assert_eq!(
        streamed_bytes(),
        start,
        "a round trip through memory streams nothing"
    );

    // A file round trip counts the section payloads once each way: the
    // file less its preamble and seven section headers.
    let payloads = (bytes.len() - 12 - 7 * 16) as u64;
    let path = std::env::temp_dir().join(format!("zkperf-streamed-{}.zkey", std::process::id()));
    write_zkey_file(&path, &pk).unwrap();
    assert_eq!(streamed_bytes() - start, payloads);
    assert_eq!(read_zkey_file::<Bn254>(&path).unwrap(), pk);
    assert_eq!(streamed_bytes() - start, 2 * payloads);
    let _ = std::fs::remove_file(&path);
}
