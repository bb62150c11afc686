//! Shared harness for the `experiments` binary: sweep caching, result
//! output, and the default configuration.
//!
//! Each experiment regenerates one table or figure of the paper. They share
//! a measurement sweep cached under `results/` so that running all of them
//! does not re-simulate the matrix each time. Delete `results/sweep-*.json` (or
//! change `ZKPERF_MIN_LOG`/`ZKPERF_MAX_LOG`) to force fresh measurements.
//!
//! The sweep runner is resilient: every cell runs under a bounded-retry
//! policy with a per-cell timeout, persistently failing cells are
//! quarantined instead of aborting the sweep, cache files are written
//! atomically (temp file + rename), and a sweep interrupted mid-run
//! resumes from the cells already recorded in the cache. A missing or
//! unwritable results directory degrades to running without a cache
//! rather than panicking.

pub mod experiments;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde::{de::DeserializeOwned, Deserialize, Serialize};
use zkperf_core::{measure_cell, StageMeasurement, SweepConfig};
use zkperf_resilience::{run_with_retry, Quarantine, RetryPolicy, RunOutcome};

/// Bump when [`CachedSweep`]'s shape changes; older caches (including the
/// pre-versioned format) are treated as misses, never as parse errors.
const CACHE_FORMAT_VERSION: u32 = 2;

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

/// Directory all experiment outputs land in.
///
/// Kept for callers that only build paths; the directory may not exist if
/// creation failed (a warning is printed and writes degrade gracefully).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("ZKPERF_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let path = PathBuf::from(dir);
    // Best-effort creation; on failure the warning is printed and later
    // reads simply miss.
    let _ = try_results_dir();
    path
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

/// The per-cell resilience settings of [`sweep_cached`].
fn cell_policy() -> RetryPolicy {
    // Large simulated cells are slow but not *that* slow; ten minutes per
    // attempt only trips on a genuine hang.
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_secs(2),
        jitter: 0.5,
        jitter_seed: 0x5eed_ce11,
        timeout: Some(Duration::from_secs(600)),
    }
}

/// Runs (or loads from cache) the measurement sweep for `config`, printing
/// progress to stderr.
///
/// Cells run one at a time under [`run_with_retry`]: a panicking, failing
/// or timed-out cell is retried with backoff, then quarantined and
/// skipped, so one bad cell costs its own measurements rather than the
/// whole sweep. Completed cells are checkpointed to the cache after every
/// cell, so re-running after an interruption resumes mid-sweep.
pub fn sweep_cached(config: &SweepConfig, cache_name: &str) -> Vec<StageMeasurement> {
    sweep_cached_by(config, cache_name, measure_cell)
}

/// What measures one (curve, CPU, constraints, stages) cell of a sweep.
type MeasureCell = fn(
    zkperf_core::Curve,
    &zkperf_machine::CpuProfile,
    usize,
    &[zkperf_core::Stage],
) -> Result<Vec<StageMeasurement>, zkperf_core::StageError>;

/// [`sweep_cached`] with the cells measured by `measure` instead of
/// [`measure_cell`]; `cache_name` must be one no other `measure` uses.
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

    let cells: Vec<(zkperf_core::Curve, zkperf_machine::CpuProfile, u32)> = config
        .curves
        .iter()
        .flat_map(|&curve| {
            config.cpus.iter().flat_map(move |cpu| {
                config
                    .log_sizes
                    .iter()
                    .map(move |&log| (curve, cpu.clone(), log))
            })
        })
        .collect();
    let total = cells.len();
    let pending: Vec<_> = cells
        .into_iter()
        .filter(|(curve, cpu, log)| {
            !cached
                .completed_cells
                .contains(&cell_label(*curve, cpu.name, *log))
        })
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

    let policy = cell_policy();
    let mut quarantine = Quarantine::new(1);
    let mut done = total - pending.len();
    for (curve, cpu, log) in pending {
        let label = cell_label(curve, cpu.name, log);
        let stages = config.stages.clone();
        let outcome = run_with_retry(&policy, &label, &mut quarantine, move || {
            measure(curve, &cpu, 1 << log, &stages)
        });
        done += 1;
        match outcome {
            RunOutcome::Ok { value, attempts } => {
                if attempts > 1 {
                    eprintln!("[zkperf]   cell {label} succeeded on attempt {attempts}");
                }
                cached.measurements.extend(value);
                cached.completed_cells.push(label);
                eprintln!("[zkperf]   cell {done}/{total}");
                // Checkpoint after every cell so interruption loses at
                // most the in-flight cell.
                store_cache(path.as_deref(), &cached);
            }
            RunOutcome::Failed { attempts, error } => {
                eprintln!(
                    "[zkperf]   cell {label} failed after {attempts} attempts: {error}; skipping"
                );
            }
            RunOutcome::TimedOut { attempts } => {
                eprintln!("[zkperf]   cell {label} timed out ({attempts} attempts); skipping");
            }
            RunOutcome::Panicked { attempts, message } => {
                eprintln!(
                    "[zkperf]   cell {label} panicked after {attempts} attempts ({message}); skipping"
                );
            }
            RunOutcome::Quarantined => {
                eprintln!("[zkperf]   cell {label} quarantined; skipping");
            }
        }
    }
    let skipped = quarantine.quarantined();
    if !skipped.is_empty() {
        eprintln!(
            "[zkperf] warning: {} cell(s) quarantined: {}",
            skipped.len(),
            skipped.join(", ")
        );
    }
    cached.measurements
}

fn cell_label(curve: zkperf_core::Curve, cpu: &str, log: u32) -> String {
    format!("{curve:?}/{cpu}/2^{log}")
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

/// Loads a previously emitted JSON artifact (used by tests).
pub fn load_rows<T: DeserializeOwned>(name: &str) -> Option<T> {
    let path = results_dir().join(format!("{name}.json"));
    read_json(&path)
}

fn read_json<T: DeserializeOwned>(path: &Path) -> Option<T> {
    let bytes = fs::read(path).ok()?;
    serde_json::from_slice(&bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_core::{Curve, Stage};
    use zkperf_machine::CpuProfile;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            log_sizes: vec![3],
            cpus: vec![CpuProfile::i7_8650u()],
            curves: vec![Curve::Bn128],
            stages: vec![Stage::Witness],
            backends: vec![zkperf_core::BackendKind::Groth16],
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
            completed_cells: vec![cell_label(Curve::Bn128, CpuProfile::i7_8650u().name, 3)],
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
