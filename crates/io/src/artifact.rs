//! Path-aware artifact I/O: every zkperf file format read from or written
//! to a real path, with errors that always carry the offending path.
//!
//! The byte-level readers in [`crate::files`] work over any
//! `Read`/`Write` and report a bare [`FormatError`]; a serving system
//! needs more. When a proving daemon's artifact cache hits a truncated or
//! bit-flipped `.zkey`, the error must say *which file* is corrupt (so the
//! entry can be evicted and rebuilt) and *whether* the failure is
//! corruption (evict) or environment (report). [`ArtifactError`] carries
//! both, and [`ArtifactError::is_corruption`] encodes the classification.
//!
//! Writers here are atomic: the artifact is serialized to a `.tmp` sibling
//! and renamed into place ([`AtomicFile`], which the streamed `.zkey`
//! writer uses too), so a crashed or faulted write never leaves a
//! half-written container that later reads as corruption.

use std::fs;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use zkperf_circuit::R1cs;
use zkperf_ec::{CurveParams, Engine};
use zkperf_ff::PrimeField;
use zkperf_groth16::{Proof, VerifyingKey};

use crate::codec::FieldCodec;
use crate::files::{read_proof, read_r1cs, read_vkey, write_proof, write_r1cs, write_vkey};
use crate::format::{Container, FormatError};

/// A container read or write that failed, annotated with the file it was
/// reading or writing.
#[derive(Debug)]
pub struct ArtifactError {
    /// The file whose read/write failed.
    pub path: PathBuf,
    /// The underlying format- or I/O-level failure.
    pub error: FormatError,
}

impl ArtifactError {
    pub(crate) fn new(path: &Path, error: FormatError) -> Self {
        ArtifactError {
            path: path.to_path_buf(),
            error,
        }
    }

    /// True when the file exists but its *contents* are bad — checksum
    /// mismatch, truncation, bad magic/version, malformed payload — i.e.
    /// the cases where a cache should evict and rebuild the entry. False
    /// for environmental failures (file missing, permission denied),
    /// where rebuilding over the path would mask a real problem.
    pub fn is_corruption(&self) -> bool {
        fn classify(e: &FormatError) -> bool {
            match e {
                FormatError::Io(e) => e.kind() == io::ErrorKind::UnexpectedEof,
                FormatError::BadMagic { .. }
                | FormatError::BadVersion(_)
                | FormatError::MissingSection(_)
                | FormatError::ChecksumMismatch { .. }
                | FormatError::Corrupt(_) => true,
                // A located error classifies by what actually failed there.
                FormatError::AtOffset { inner, .. } => classify(inner),
            }
        }
        classify(&self.error)
    }

    /// True when the artifact simply does not exist (a cache miss, not a
    /// failure).
    pub fn is_missing(&self) -> bool {
        matches!(&self.error, FormatError::Io(e) if e.kind() == io::ErrorKind::NotFound)
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "artifact {}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Runs `read` over the buffered file at `path`, annotating any failure
/// with the path.
fn read_file<T>(
    path: &Path,
    read: impl FnOnce(&mut BufReader<fs::File>) -> Result<T, FormatError>,
) -> Result<T, ArtifactError> {
    fs::File::open(path)
        .map_err(FormatError::from)
        .and_then(|file| read(&mut BufReader::new(file)))
        .map_err(|e| ArtifactError::new(path, e))
}

/// A `.tmp` sibling of an artifact path, written through a buffer and
/// renamed onto the path by [`AtomicFile::commit`]; dropped uncommitted,
/// it is removed, so a crashed or failed write never leaves a half-written
/// artifact that later reads as corruption.
pub(crate) struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    out: BufWriter<fs::File>,
    committed: bool,
}

impl AtomicFile {
    pub(crate) fn create(path: &Path) -> Result<AtomicFile, ArtifactError> {
        let tmp = path.with_extension("tmp");
        let file = fs::File::create(&tmp).map_err(|e| ArtifactError::new(path, e.into()))?;
        Ok(AtomicFile {
            path: path.to_path_buf(),
            tmp,
            out: BufWriter::new(file),
            committed: false,
        })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    pub(crate) fn commit(&mut self) -> io::Result<()> {
        self.out.flush()?;
        fs::rename(&self.tmp, &self.path)?;
        self.committed = true;
        Ok(())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Runs `write` against an [`AtomicFile`] for `path` and commits it: the
/// write is all-or-nothing from any reader's view.
pub(crate) fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut AtomicFile) -> Result<(), FormatError>,
) -> Result<(), ArtifactError> {
    let mut file = AtomicFile::create(path)?;
    write(&mut file)
        .and_then(|()| Ok(file.commit()?))
        .map_err(|e| ArtifactError::new(path, e))
}

/// Reads a full container from `path`, verifying magic and checksums.
///
/// # Errors
///
/// [`ArtifactError`] carrying `path` on any failure, including a missing
/// file (distinguish with [`ArtifactError::is_missing`]).
pub fn read_container_file(path: &Path, magic: [u8; 4]) -> Result<Container, ArtifactError> {
    read_file(path, |r| Container::read_from(r, magic))
}

/// Atomically writes a container to `path`.
///
/// # Errors
///
/// [`ArtifactError`] carrying `path` on any failure.
pub fn write_container_file(path: &Path, container: &Container) -> Result<(), ArtifactError> {
    write_atomic(path, |w| container.write_to(w))
}

macro_rules! path_io {
    ($(#[$meta:meta])* read $read_name:ident, $read_inner:ident -> $out:ty;
     write $write_name:ident, $write_inner:ident ($val:ty)) => {
        $(#[$meta])*
        ///
        /// # Errors
        ///
        /// [`ArtifactError`] carrying the path on any failure; use
        /// [`ArtifactError::is_corruption`] to decide evict-and-rebuild.
        pub fn $read_name<E: Engine>(path: &Path) -> Result<$out, ArtifactError>
        where
            <E::G1 as CurveParams>::Base: FieldCodec,
            <E::G2 as CurveParams>::Base: FieldCodec,
        {
            read_file(path, |r| $read_inner::<E>(r))
        }

        /// Atomically writes the artifact to `path` (see module docs).
        ///
        /// # Errors
        ///
        /// [`ArtifactError`] carrying the path on any failure.
        pub fn $write_name<E: Engine>(path: &Path, value: &$val) -> Result<(), ArtifactError>
        where
            <E::G1 as CurveParams>::Base: FieldCodec,
            <E::G2 as CurveParams>::Base: FieldCodec,
        {
            write_atomic(path, |w| $write_inner::<E>(w, value))
        }
    };
}

/// Reads an `.r1cs` container from `path`.
///
/// # Errors
///
/// [`ArtifactError`] carrying the path on any failure; use
/// [`ArtifactError::is_corruption`] to decide evict-and-rebuild.
pub fn read_r1cs_file<F: PrimeField>(path: &Path) -> Result<R1cs<F>, ArtifactError> {
    read_file(path, |r| read_r1cs::<F>(r))
}

/// Atomically writes an `.r1cs` container to `path`.
///
/// # Errors
///
/// [`ArtifactError`] carrying the path on any failure.
pub fn write_r1cs_file<F: PrimeField>(path: &Path, r1cs: &R1cs<F>) -> Result<(), ArtifactError> {
    write_atomic(path, |w| write_r1cs::<F>(w, r1cs))
}

path_io! {
    /// Reads a `.vkey` verification-key container from `path`.
    read read_vkey_file, read_vkey -> VerifyingKey<E>;
    write write_vkey_file, write_vkey (VerifyingKey<E>)
}

path_io! {
    /// Reads a `.proof` container from `path`.
    read read_proof_file, read_proof -> Proof<E>;
    write write_proof_file, write_proof (Proof<E>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zkey::{read_zkey_file, write_zkey_file};
    use zkperf_circuit::library::exponentiate;
    use zkperf_ec::Bn254;
    use zkperf_ff::bn254::Fr;
    use zkperf_ff::Field;
    use zkperf_groth16::{prove, setup, verify};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zkperf-artifact-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_roundtrip_and_missing_classification() {
        let dir = tmp_dir("roundtrip");
        let circuit = exponentiate::<Fr>(6);
        let path = dir.join("c.r1cs");
        write_r1cs_file(&path, circuit.r1cs()).unwrap();
        let back: R1cs<Fr> = read_r1cs_file(&path).unwrap();
        assert_eq!(&back, circuit.r1cs());
        // No temp file left behind.
        assert!(!dir.join("c.tmp").exists());

        let missing = read_r1cs_file::<Fr>(&dir.join("nope.r1cs")).unwrap_err();
        assert!(missing.is_missing());
        assert!(!missing.is_corruption());
        assert!(missing.to_string().contains("nope.r1cs"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_round_trip_is_typed_with_the_offending_path() {
        let dir = tmp_dir("corrupt");
        let circuit = exponentiate::<Fr>(6);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let path = dir.join("c.zkey");
        write_zkey_file::<Bn254>(&path, &pk).unwrap();

        // Checksum mismatch: flip one payload bit.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = read_zkey_file::<Bn254>(&path).unwrap_err();
        assert!(err.is_corruption(), "checksum mismatch classifies as corruption");
        assert!(!err.is_missing());
        assert!(matches!(
            &err.error,
            FormatError::AtOffset { inner, .. } if matches!(**inner, FormatError::ChecksumMismatch { .. })
        ));
        assert_eq!(err.path, path);
        assert!(err.to_string().contains("c.zkey"));

        // Truncation: typed corruption too, never a bare io error string.
        bytes[last] ^= 0x40; // restore the bit
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).unwrap();
        let err = read_zkey_file::<Bn254>(&path).unwrap_err();
        assert!(err.is_corruption(), "truncation classifies as corruption");
        assert_eq!(err.path, path);

        // Rebuilt artifact reads clean again and proves correctly.
        write_zkey_file::<Bn254>(&path, &pk).unwrap();
        let pk2 = read_zkey_file::<Bn254>(&path).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(3)], &[]).unwrap();
        let proof = prove::<Bn254, _>(&pk2, circuit.r1cs(), &w, &mut rng).unwrap();
        assert!(verify::<Bn254>(&pk2.vk, &proof, w.public()).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn proof_and_vkey_path_io_roundtrip() {
        let dir = tmp_dir("proof");
        let circuit = exponentiate::<Fr>(4);
        let mut rng = zkperf_ff::test_rng();
        let pk = setup::<Bn254, _>(circuit.r1cs(), &mut rng).unwrap();
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        let proof = prove::<Bn254, _>(&pk, circuit.r1cs(), &w, &mut rng).unwrap();
        let ppath = dir.join("a.proof");
        let vpath = dir.join("a.vkey");
        write_proof_file::<Bn254>(&ppath, &proof).unwrap();
        write_vkey_file::<Bn254>(&vpath, &pk.vk).unwrap();
        let proof2 = read_proof_file::<Bn254>(&ppath).unwrap();
        let vk2 = read_vkey_file::<Bn254>(&vpath).unwrap();
        assert!(verify::<Bn254>(&vk2, &proof2, w.public()).unwrap());

        // Wrong-magic cross-read is corruption, with the path attached.
        let err = read_proof_file::<Bn254>(&vpath).unwrap_err();
        assert!(err.is_corruption());
        assert!(err.to_string().contains("a.vkey"));
        let _ = fs::remove_dir_all(&dir);
    }
}
