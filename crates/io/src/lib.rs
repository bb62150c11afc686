#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Sectioned binary file formats for the zkperf toolchain — the equivalents
//! of snarkjs/circom's `.r1cs`, `.wtns`, `.zkey` and proof files.
//!
//! Every reader validates its input: magics and versions are checked,
//! section payloads are bounds-checked, field elements must be canonical,
//! and every curve point is checked for curve membership, so corrupt or
//! adversarial files surface as [`FormatError`]s rather than bad crypto.
//!
//! # Examples
//!
//! ```
//! use zkperf_circuit::library::exponentiate;
//! use zkperf_ff::bn254::Fr;
//! use zkperf_io::{read_r1cs, write_r1cs};
//!
//! let circuit = exponentiate::<Fr>(4);
//! let mut bytes = Vec::new();
//! write_r1cs(&mut bytes, circuit.r1cs())?;
//! let back = read_r1cs::<Fr>(&mut bytes.as_slice())?;
//! assert_eq!(&back, circuit.r1cs());
//! # Ok::<(), zkperf_io::FormatError>(())
//! ```

pub mod checksum;
mod artifact;
mod codec;
mod files;
mod format;
mod stream;

pub use artifact::{
    read_container_file, read_proof_file, read_r1cs_file, read_vkey_file, read_zkey_file,
    write_container_file, write_proof_file, write_r1cs_file, write_vkey_file, write_zkey_file,
    ArtifactError,
};
pub use checksum::crc32;
pub use codec::{decode_point_compressed, encode_point_compressed, FieldCodec};
pub use files::{
    read_proof, read_r1cs, read_vkey, read_witness, read_zkey, write_proof, write_r1cs,
    write_vkey, write_witness, write_zkey,
};
pub use format::{Container, Cursor, FormatError, Payload, VERSION};
pub use stream::{StreamedZkeyReader, StreamedZkeyWriter, MAGIC_ZKEY_STREAM};
