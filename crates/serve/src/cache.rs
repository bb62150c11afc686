//! A content-addressed artifact cache for compiled circuits and setup
//! keys.
//!
//! Entries are keyed by a hash of the backend label and the circuit
//! source, so identical shapes share one compile + setup across jobs,
//! retries, and server restarts. On disk each entry is a compiled R1CS
//! container (`{key}.r1cs`) plus — for backends that persist key material
//! ([`ProverBackend::save_keys`]) — a key container (`{key}.zkey`), both
//! written atomically; reads that fail integrity checks are classified
//! ([`KeyLoad::Corrupt`], [`zkperf_io::ArtifactError::is_corruption`])
//! and the entry is evicted and rebuilt — a corrupt artifact is never
//! served. Backends whose keys are cheap and deterministic (PLONK's
//! seeded SRS, the STARK's parameter set) report [`KeyLoad::Unsupported`]
//! and rebuild on every cold load instead.
//!
//! Setup randomness is derived from the content key alone, so a rebuilt
//! entry is bit-identical to the original and proofs stay reproducible
//! across evictions.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::SeedableRng;

use zkperf_circuit::{lang, Circuit};
use zkperf_core::{KeyLoad, ProverBackend, StageError};
use zkperf_io::{read_r1cs_file, write_r1cs_file};

use crate::job::CircuitSpec;

/// Domain-separation constant for setup randomness.
const SETUP_SEED: u64 = 0x5e7_cafe_0000;

/// Hashes `(backend label, source)` into a 64-bit content key (FNV-1a).
/// The Groth16 labels are the bare engine names, preserving the on-disk
/// entries written before the backend-generic refactor.
pub fn content_key(curve: &str, source: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [curve.as_bytes(), &[0u8], source.as_bytes()] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Counters exposed by [`ArtifactCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from memory.
    pub mem_hits: u64,
    /// Entries loaded from intact disk artifacts.
    pub disk_hits: u64,
    /// Entries built from scratch (cold or after eviction).
    pub builds: u64,
    /// Corrupt disk artifacts detected, evicted, and rebuilt.
    pub corrupt_evictions: u64,
}

/// Where an entry came from and what it cost, for per-stage accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadTiming {
    /// Nanoseconds spent compiling the source (zero on a memory hit).
    pub compile_nanos: u64,
    /// Nanoseconds spent acquiring the proving key — disk read on a hit,
    /// trusted setup on a build (zero on a memory hit).
    pub setup_nanos: u64,
}

/// A compiled circuit and its backend key material, shared across jobs.
pub struct CacheEntry<B: ProverBackend> {
    /// The compiled circuit (witness generation needs the instruction
    /// stream, not just the R1CS).
    pub circuit: Circuit<B::Fr>,
    /// The backend's prover-side keys (Groth16 proving key, PLONK SRS +
    /// selectors, STARK parameter set).
    pub keys: B::Keys,
    /// The entry's content key.
    pub key: u64,
}

/// The cache itself: an in-memory map over a disk directory.
pub struct ArtifactCache<B: ProverBackend> {
    dir: PathBuf,
    mem: HashMap<u64, Arc<CacheEntry<B>>>,
    stats: CacheStats,
}

impl<B: ProverBackend> ArtifactCache<B> {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StageError::Artifact`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ArtifactCache<B>, StageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StageError::Artifact {
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok(ArtifactCache {
            dir,
            mem: HashMap::new(),
            stats: CacheStats::default(),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn r1cs_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.r1cs"))
    }

    fn zkey_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.zkey"))
    }

    /// Returns the entry for `spec`, compiling and running setup only
    /// when no intact artifact exists.
    ///
    /// # Errors
    ///
    /// Compile and setup failures surface as their [`StageError`]
    /// variants; unreadable artifacts that are *not* corruption (e.g.
    /// permission errors) surface as [`StageError::Artifact`] carrying
    /// the offending path.
    pub fn load_or_build(
        &mut self,
        spec: &CircuitSpec,
    ) -> Result<(Arc<CacheEntry<B>>, LoadTiming), StageError> {
        let key = content_key(B::label(), &spec.source);
        if let Some(entry) = self.mem.get(&key) {
            self.stats.mem_hits += 1;
            return Ok((Arc::clone(entry), LoadTiming::default()));
        }

        // The instruction stream is required for witness generation, so
        // the compile always runs; the disk artifacts exist to skip the
        // trusted setup (most of a cold build, about as long as a prove of
        // the same circuit) and to cross-check the compile output.
        let start = std::time::Instant::now();
        let circuit = lang::compile::<B::Fr>(&spec.source)?;
        self.reconcile_r1cs(key, &circuit)?;
        let compile_nanos = start.elapsed().as_nanos() as u64;

        let start = std::time::Instant::now();
        let keys = self.load_or_setup_keys(key, &circuit)?;
        let setup_nanos = start.elapsed().as_nanos() as u64;

        let entry = Arc::new(CacheEntry { circuit, keys, key });
        self.mem.insert(key, Arc::clone(&entry));
        Ok((
            entry,
            LoadTiming {
                compile_nanos,
                setup_nanos,
            },
        ))
    }

    /// Validates (or writes) the cached R1CS against the fresh compile.
    /// A readable-but-different R1CS under a content-addressed key means
    /// the file was tampered with or corrupted in a checksum-colliding
    /// way; it is evicted like any other corruption.
    fn reconcile_r1cs(&mut self, key: u64, circuit: &Circuit<B::Fr>) -> Result<(), StageError> {
        let path = self.r1cs_path(key);
        match read_r1cs_file::<B::Fr>(&path) {
            Ok(on_disk) if &on_disk == circuit.r1cs() => Ok(()),
            Ok(_) => {
                self.evict(&path);
                write_r1cs_file(&path, circuit.r1cs())?;
                Ok(())
            }
            Err(e) if e.is_missing() => {
                write_r1cs_file(&path, circuit.r1cs())?;
                Ok(())
            }
            Err(e) if e.is_corruption() => {
                self.evict(&path);
                write_r1cs_file(&path, circuit.r1cs())?;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn load_or_setup_keys(
        &mut self,
        key: u64,
        circuit: &Circuit<B::Fr>,
    ) -> Result<B::Keys, StageError> {
        let path = self.zkey_path(key);
        match B::load_keys(&path) {
            KeyLoad::Loaded(keys) => {
                self.stats.disk_hits += 1;
                Ok(keys)
            }
            // `Unsupported`: this backend rebuilds deterministically from
            // the seed instead of persisting keys — same build path as a
            // cold cache, minus the disk write (save_keys no-ops).
            KeyLoad::Missing | KeyLoad::Unsupported => self.build_keys(key, circuit, &path),
            KeyLoad::Corrupt => {
                self.evict(&path);
                self.build_keys(key, circuit, &path)
            }
            KeyLoad::Failed(e) => Err(e),
        }
    }

    fn build_keys(
        &mut self,
        key: u64,
        circuit: &Circuit<B::Fr>,
        path: &Path,
    ) -> Result<B::Keys, StageError> {
        self.stats.builds += 1;
        // Seeding from the content key makes rebuilt keys bit-identical,
        // which in turn keeps proofs byte-reproducible across evictions.
        let mut rng = rand::rngs::StdRng::seed_from_u64(SETUP_SEED ^ key);
        let keys = B::setup(circuit.r1cs(), &mut rng)?;
        B::save_keys(path, &keys)?;
        Ok(keys)
    }

    fn evict(&mut self, path: &Path) {
        self.stats.corrupt_evictions += 1;
        // Nothing to do about a failed unlink beyond the rebuild that
        // follows; the atomic rename will replace the entry either way.
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_core::{Groth16Backend, ProverBackend, StarkBackend};
    use zkperf_ec::{Bn254, Engine};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "zkperf-serve-cache-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_round_trip_skips_setup() {
        let dir = tmpdir("roundtrip");
        let spec = CircuitSpec::exponentiate(8, 3);
        let mut cache = ArtifactCache::<Groth16Backend<Bn254>>::open(&dir).unwrap();
        let (first, timing) = cache.load_or_build(&spec).unwrap();
        assert!(timing.setup_nanos > 0);
        assert_eq!(cache.stats().builds, 1);

        // A fresh cache over the same directory loads from disk.
        let mut cache2 = ArtifactCache::<Groth16Backend<Bn254>>::open(&dir).unwrap();
        let (second, _) = cache2.load_or_build(&spec).unwrap();
        assert_eq!(cache2.stats().builds, 0);
        assert_eq!(cache2.stats().disk_hits, 1);
        assert_eq!(first.keys, second.keys);

        // Memory hit on repeat.
        cache2.load_or_build(&spec).unwrap();
        assert_eq!(cache2.stats().mem_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_zkey_is_evicted_and_rebuilt_identically() {
        let dir = tmpdir("corrupt");
        let spec = CircuitSpec::exponentiate(8, 3);
        let mut cache = ArtifactCache::<Groth16Backend<Bn254>>::open(&dir).unwrap();
        let (original, _) = cache.load_or_build(&spec).unwrap();

        let key = content_key(Bn254::NAME, &spec.source);
        let zkey = dir.join(format!("{key:016x}.zkey"));
        let mut bytes = fs::read(&zkey).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&zkey, bytes).unwrap();

        let mut cache2 = ArtifactCache::<Groth16Backend<Bn254>>::open(&dir).unwrap();
        let (rebuilt, _) = cache2.load_or_build(&spec).unwrap();
        assert_eq!(cache2.stats().corrupt_evictions, 1);
        assert_eq!(cache2.stats().builds, 1);
        // Deterministic setup seed ⇒ the rebuild is bit-identical.
        assert_eq!(original.keys, rebuilt.keys);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transparent_backend_rebuilds_instead_of_persisting_keys() {
        let dir = tmpdir("stark");
        let spec = CircuitSpec::exponentiate(8, 3);
        let mut cache = ArtifactCache::<StarkBackend>::open(&dir).unwrap();
        let (entry, _) = cache.load_or_build(&spec).unwrap();
        assert_eq!(cache.stats().builds, 1);
        // No key artifact is written; only the compiled R1CS is cached.
        let zkey = dir.join(format!("{:016x}.zkey", entry.key));
        assert!(!zkey.exists(), "transparent keys are not persisted");

        // A fresh cache rebuilds (KeyLoad::Unsupported) rather than
        // reading from disk — transparent setup is cheap and seedless.
        let mut cache2 = ArtifactCache::<StarkBackend>::open(&dir).unwrap();
        cache2.load_or_build(&spec).unwrap();
        assert_eq!(cache2.stats().builds, 1);
        assert_eq!(cache2.stats().disk_hits, 0);

        // Distinct label ⇒ distinct content key from the Groth16 entry
        // for the same source.
        assert_ne!(
            content_key(StarkBackend::label(), &spec.source),
            content_key(Bn254::NAME, &spec.source)
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
