//! Shared harness for the `experiments` binary: sweep caching, result
//! output, and the default configuration.
//!
//! Each experiment regenerates one table or figure of the paper. They share
//! a measurement sweep cached under `results/` so that running all of them
//! does not re-simulate the matrix each time. Delete `results/sweep-*.json` (or
//! change `ZKPERF_MIN_LOG`/`ZKPERF_MAX_LOG`) to force fresh measurements.
//!
//! The sweep runner survives its cells: each runs once, on the calling
//! thread, under `catch_unwind` and with no wall-clock cap (a cell is a
//! deterministic simulation, so a second attempt would repeat the first);
//! a cell that fails or panics is logged, skipped and listed at the end
//! instead of aborting the sweep, and the next sweep runs it again. Cache
//! files are written atomically (temp file + rename), and a sweep
//! interrupted mid-run resumes from the cells already recorded in the
//! cache. A missing or unwritable results directory degrades to running
//! without a cache rather than panicking.

pub mod experiments;

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use zkperf_core::{
    measure_cell_backend, BackendKind, Curve, Stage, StageError, StageMeasurement, SweepConfig,
};
use zkperf_machine::CpuProfile;

/// Bump when [`CachedSweep`]'s shape changes; older caches (including the
/// pre-versioned format) are treated as misses, never as parse errors.
const CACHE_FORMAT_VERSION: u32 = 4;

/// Directory all experiment outputs land in, or `None` (with a logged
/// warning) when it cannot be created — callers then run uncached.
pub fn try_results_dir() -> Option<PathBuf> {
    let dir = std::env::var("ZKPERF_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let path = PathBuf::from(dir);
    match fs::create_dir_all(&path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "[zkperf] warning: cannot create results dir {}: {e}; running without cache",
                path.display()
            );
            None
        }
    }
}

fn config_fingerprint(config: &SweepConfig) -> String {
    let cpus: Vec<&str> = config.cpus.iter().map(|c| c.name).collect();
    format!(
        "logs={:?};cpus={:?};curves={:?};stages={:?};backends={:?}",
        config.log_sizes, cpus, config.curves, config.stages, config.backends
    )
}

#[derive(Serialize, Deserialize)]
struct CachedSweep {
    /// Cache format version; mismatches are cache misses, not errors.
    format_version: u32,
    fingerprint: String,
    /// Labels of cells already measured, so an interrupted sweep resumes
    /// where it stopped instead of starting over.
    completed_cells: Vec<String>,
    measurements: Vec<StageMeasurement>,
}

impl CachedSweep {
    fn empty(fingerprint: String) -> Self {
        CachedSweep {
            format_version: CACHE_FORMAT_VERSION,
            fingerprint,
            completed_cells: Vec::new(),
            measurements: Vec::new(),
        }
    }
}

/// Loads the cache state for `fingerprint`, treating unreadable files,
/// undeserializable bytes, version mismatches and fingerprint mismatches
/// all as (logged) cache misses.
fn load_cache(path: &Path, fingerprint: &str) -> CachedSweep {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(_) => return CachedSweep::empty(fingerprint.to_string()),
    };
    match serde_json::from_slice::<CachedSweep>(&bytes) {
        Ok(cached) if cached.format_version != CACHE_FORMAT_VERSION => {
            eprintln!(
                "[zkperf] warning: sweep cache {} has format v{} (want v{}); remeasuring",
                path.display(),
                cached.format_version,
                CACHE_FORMAT_VERSION
            );
            CachedSweep::empty(fingerprint.to_string())
        }
        Ok(cached) if cached.fingerprint != fingerprint => {
            CachedSweep::empty(fingerprint.to_string())
        }
        Ok(cached) => cached,
        Err(e) => {
            eprintln!(
                "[zkperf] warning: sweep cache {} is unreadable ({e}); remeasuring",
                path.display()
            );
            CachedSweep::empty(fingerprint.to_string())
        }
    }
}

/// Writes `bytes` to `path` atomically: a temp file in the same directory
/// is written in full and renamed over the target, so an interrupted run
/// can never leave a half-written cache behind.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Persists the cache state; failures are logged, not fatal (the sweep
/// result is still returned from memory).
fn store_cache(path: Option<&Path>, cached: &CachedSweep) {
    let Some(path) = path else { return };
    let bytes = match serde_json::to_vec(cached) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("[zkperf] warning: cannot serialize sweep cache: {e}");
            return;
        }
    };
    if let Err(e) = write_atomic(path, &bytes) {
        eprintln!(
            "[zkperf] warning: cannot write sweep cache {}: {e}",
            path.display()
        );
    }
}

/// Runs (or loads from cache) the measurement sweep for `config`, printing
/// progress to stderr.
///
/// Cells run one at a time, once each, on the calling thread: a failing or
/// panicking cell is logged and skipped (and measured again by the next
/// sweep), so one bad cell costs its own measurements rather than the
/// whole sweep. Completed cells are checkpointed to the cache after every
/// cell, so re-running after an interruption resumes mid-sweep.
pub fn sweep_cached(config: &SweepConfig, cache_name: &str) -> Vec<StageMeasurement> {
    sweep_cached_by(config, cache_name, measure_cell_backend)
}

/// What measures one (backend, curve, CPU, constraints, stages) cell of a
/// sweep.
type MeasureCell = fn(
    BackendKind,
    Curve,
    &CpuProfile,
    usize,
    &[Stage],
) -> Result<Vec<StageMeasurement>, StageError>;

/// [`sweep_cached`] with the cells measured by `measure` instead of
/// [`measure_cell_backend`]; `cache_name` must be one no other `measure`
/// uses.
fn sweep_cached_by(
    config: &SweepConfig,
    cache_name: &str,
    measure: MeasureCell,
) -> Vec<StageMeasurement> {
    let path = try_results_dir().map(|d| d.join(format!("sweep-{cache_name}.json")));
    let fingerprint = config_fingerprint(config);
    let mut cached = match &path {
        Some(path) => load_cache(path, &fingerprint),
        None => CachedSweep::empty(fingerprint.clone()),
    };

    let cells = config.cells();
    let total = cells.len();
    let pending: Vec<_> = cells
        .into_iter()
        .map(|cell| (cell_label(cell), cell))
        .filter(|(label, _)| !cached.completed_cells.contains(label))
        .collect();

    if pending.is_empty() {
        eprintln!(
            "[zkperf] loaded cached sweep ({} cells){}",
            total,
            path.as_deref()
                .map(|p| format!(" from {}", p.display()))
                .unwrap_or_default()
        );
        return cached.measurements;
    }
    if pending.len() < total {
        eprintln!(
            "[zkperf] resuming sweep: {}/{} cells already cached",
            total - pending.len(),
            total
        );
    } else {
        eprintln!("[zkperf] running sweep ({fingerprint})");
    }

    let mut skipped = Vec::new();
    let mut done = total - pending.len();
    for (label, (backend, curve, cpu, log)) in pending {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            measure(backend, curve, cpu, 1 << log, &config.stages)
        }));
        done += 1;
        match outcome {
            Ok(Ok(measurements)) => {
                cached.measurements.extend(measurements);
                cached.completed_cells.push(label);
                eprintln!("[zkperf]   cell {done}/{total}");
                // Checkpoint after every cell so interruption loses at
                // most the in-flight cell.
                store_cache(path.as_deref(), &cached);
            }
            Ok(Err(error)) => {
                eprintln!("[zkperf]   cell {label} failed: {error}; skipping");
                skipped.push(label);
            }
            // The panic hook has already printed the message.
            Err(_) => {
                eprintln!("[zkperf]   cell {label} panicked; skipping");
                skipped.push(label);
            }
        }
    }
    if !skipped.is_empty() {
        eprintln!(
            "[zkperf] warning: {} cell(s) failed and were not cached: {}",
            skipped.len(),
            skipped.join(", ")
        );
    }
    cached.measurements
}

/// The cache key of one [`SweepConfig::cells`] entry.
fn cell_label((backend, curve, cpu, log): (BackendKind, Curve, &CpuProfile, u32)) -> String {
    format!("{backend}/{curve:?}/{}/2^{log}", cpu.name)
}

/// Writes an experiment's text rendering and JSON rows side by side and
/// echoes the text to stdout. Output-file problems are logged warnings —
/// the console copy of the result is always produced.
pub fn emit<T: Serialize>(name: &str, text: &str, rows: &T) {
    if let Some(dir) = try_results_dir() {
        if let Err(e) = fs::write(dir.join(format!("{name}.txt")), text) {
            eprintln!("[zkperf] warning: cannot write {name}.txt: {e}");
        }
        match serde_json::to_vec_pretty(rows) {
            Ok(json) => {
                if let Err(e) = fs::write(dir.join(format!("{name}.json")), json) {
                    eprintln!("[zkperf] warning: cannot write {name}.json: {e}");
                }
            }
            Err(e) => eprintln!("[zkperf] warning: cannot serialize {name} rows: {e}"),
        }
    }
    println!("== {name} ==");
    println!("{text}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            log_sizes: vec![3],
            cpus: vec![CpuProfile::i7_8650u()],
            curves: vec![Curve::Bn128],
            stages: vec![Stage::Witness],
            backends: vec![BackendKind::Groth16],
        }
    }

    fn results_dir() -> PathBuf {
        try_results_dir().expect("results dir is creatable")
    }

    #[test]
    fn configured_backends_are_measured_and_cached() {
        fn never_called(
            backend: BackendKind,
            curve: Curve,
            _: &CpuProfile,
            _: usize,
            _: &[Stage],
        ) -> Result<Vec<StageMeasurement>, StageError> {
            Err(StageError::UnsupportedCurve { backend, curve })
        }
        let config = SweepConfig {
            log_sizes: vec![3, 4],
            stages: vec![Stage::Setup],
            ..tiny_config()
        };
        let groth16 = sweep_cached(&config, "backends-groth16");
        assert_eq!(groth16.len(), 2);

        let stark = sweep_cached(
            &config.clone().with_backends([BackendKind::Stark]),
            "backends-stark",
        );
        assert_eq!(stark.len(), 2);
        assert!(stark
            .iter()
            .all(|m| m.curve == Curve::Goldilocks && m.backend == BackendKind::Stark));

        let both = config.with_backends([BackendKind::Groth16, BackendKind::Plonk]);
        let pair = sweep_cached(&both, "backends-pair");
        assert_eq!(pair.len(), 2 * groth16.len());
        let (g, p) = pair.split_at(groth16.len());
        for ((g, p), alone) in g.iter().zip(p).zip(&groth16) {
            assert_eq!((g.backend, p.backend), (BackendKind::Groth16, BackendKind::Plonk));
            assert_eq!(g.constraints, p.constraints);
            assert_eq!(g.counts, alone.counts);
            assert_ne!(g.counts, p.counts);
        }
        // Every cell is cached under its own backend's label: a second
        // call measures nothing.
        let again = sweep_cached_by(&both, "backends-pair", never_called);
        let rows = |ms: &[StageMeasurement]| -> Vec<_> {
            ms.iter().map(|m| (m.backend, m.counts)).collect()
        };
        assert_eq!(rows(&again), rows(&pair));
        for name in ["groth16", "stark", "pair"] {
            let _ = fs::remove_file(results_dir().join(format!("sweep-backends-{name}.json")));
        }
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = SweepConfig::default();
        let b = SweepConfig {
            log_sizes: vec![99],
            ..SweepConfig::default()
        };
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    #[test]
    fn cache_roundtrip_via_explicit_dir() {
        // Avoid env-var races with other tests by writing directly.
        let config = tiny_config();
        let first = sweep_cached(&config, "unittest");
        let second = sweep_cached(&config, "unittest");
        assert_eq!(first.len(), second.len());
        assert_eq!(first[0].constraints, second[0].constraints);
        assert_eq!(first[0].counts.total_uops(), second[0].counts.total_uops());
        let _ = fs::remove_file(results_dir().join("sweep-unittest.json"));
    }

    #[test]
    fn versionless_or_mismatched_cache_is_a_miss_not_an_error() {
        let fingerprint = config_fingerprint(&tiny_config());
        let dir = results_dir();
        // The old, pre-versioned cache shape.
        let legacy = format!(
            "{{\"fingerprint\":{fingerprint:?},\"measurements\":[]}}"
        );
        let path = dir.join("sweep-legacytest.json");
        fs::write(&path, legacy).unwrap();
        let loaded = load_cache(&path, &fingerprint);
        assert!(loaded.completed_cells.is_empty(), "legacy cache missed");
        // Garbage bytes are a miss too, never a panic.
        fs::write(&path, b"{not json").unwrap();
        let loaded = load_cache(&path, &fingerprint);
        assert!(loaded.measurements.is_empty());
        // A wrong version number is a miss.
        let wrong = CachedSweep {
            format_version: CACHE_FORMAT_VERSION + 1,
            ..CachedSweep::empty(fingerprint.clone())
        };
        fs::write(&path, serde_json::to_vec(&wrong).unwrap()).unwrap();
        let loaded = load_cache(&path, &fingerprint);
        assert_eq!(loaded.format_version, CACHE_FORMAT_VERSION);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn interrupted_sweep_resumes_from_partial_cache() {
        // Simulate an interruption: a valid cache holding one of two
        // cells. The resumed sweep must only measure the missing cell and
        // keep the recorded one.
        let mut config = tiny_config();
        config.log_sizes = vec![3, 4];
        let fingerprint = config_fingerprint(&config);
        let half = {
            let mut one_cell = config.clone();
            one_cell.log_sizes = vec![3];
            let ms = sweep_cached(&one_cell, "resumehalf");
            let _ = fs::remove_file(results_dir().join("sweep-resumehalf.json"));
            ms
        };
        let partial = CachedSweep {
            format_version: CACHE_FORMAT_VERSION,
            fingerprint: fingerprint.clone(),
            completed_cells: vec![cell_label((
                BackendKind::Groth16,
                Curve::Bn128,
                &CpuProfile::i7_8650u(),
                3,
            ))],
            measurements: half,
        };
        let path = results_dir().join("sweep-resumetest.json");
        fs::write(&path, serde_json::to_vec(&partial).unwrap()).unwrap();

        let full = sweep_cached(&config, "resumetest");
        assert_eq!(full.len(), 2, "one resumed cell + one fresh cell");
        assert_eq!(full[0].constraints, 8);
        assert_eq!(full[1].constraints, 16);
        // The checkpointed cache now records both cells.
        let reloaded = load_cache(&path, &fingerprint);
        assert_eq!(reloaded.completed_cells.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_panicking_cell_is_run_once_per_sweep_and_left_uncached() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        // Calls per cell at 2^3, 2^4, 2^5.
        static CALLS: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];
        fn panics_at_2e4(
            backend: BackendKind,
            curve: Curve,
            cpu: &CpuProfile,
            constraints: usize,
            stages: &[Stage],
        ) -> Result<Vec<StageMeasurement>, StageError> {
            CALLS[constraints.trailing_zeros() as usize - 3].fetch_add(1, SeqCst);
            assert_ne!(constraints, 1 << 4, "this cell always breaks");
            measure_cell_backend(backend, curve, cpu, constraints, stages)
        }
        let calls = || CALLS.each_ref().map(|c| c.load(SeqCst));
        let config = SweepConfig {
            log_sizes: vec![3, 4, 5],
            ..tiny_config()
        };
        let path = results_dir().join("sweep-panictest.json");
        let _ = fs::remove_file(&path);

        let first = sweep_cached_by(&config, "panictest", panics_at_2e4);
        assert_eq!(calls(), [1, 1, 1], "no cell is attempted twice");
        let sizes: Vec<usize> = first.iter().map(|m| m.constraints).collect();
        assert_eq!(sizes, [8, 32], "the other cells are measured");
        let cached = load_cache(&path, &config_fingerprint(&config));
        let broken = cell_label((
            BackendKind::Groth16,
            Curve::Bn128,
            &CpuProfile::i7_8650u(),
            4,
        ));
        assert_eq!(cached.completed_cells.len(), 2, "and cached");
        assert!(!cached.completed_cells.contains(&broken));

        // The next sweep runs the missing cell again, and only that one.
        let second = sweep_cached_by(&config, "panictest", panics_at_2e4);
        assert_eq!(calls(), [1, 2, 1]);
        assert_eq!(second.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_content_and_leaves_no_temp() {
        let dir = results_dir();
        let path = dir.join("atomictest.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("atomictest.json.tmp").exists());
        let _ = fs::remove_file(&path);
    }
}
