//! Environment hygiene, the release-profile check and run provenance.

use std::path::Path;
use std::process::Command;

use serde::Value;

/// Prefix of every knob the zkperf crates read from the environment.
const KNOB_PREFIX: &str = "ZKPERF_";
/// The fault-injection knob: a run under it measures injected faults, so
/// it is refused rather than cleared.
const CHAOS_KNOB: &str = "ZKPERF_CHAOS";

/// Refuses `ZKPERF_CHAOS` and removes every other `ZKPERF_*` variable
/// (`ZKPERF_THREADS`, `ZKPERF_MEM_BUDGET`, `ZKPERF_MSM_WINDOW`,
/// `ZKPERF_NO_GLV`, `ZKPERF_NO_FAST_PAIRING`, `ZKPERF_STARK_BLOWUP`,
/// `ZKPERF_STARK_QUERIES`, `ZKPERF_MIN_LOG`/`ZKPERF_MAX_LOG`,
/// `ZKPERF_RESULTS_DIR`, `ZKPERF_TESTKIT_SEED`, and any added later), so
/// the crates resolve their defaults. Must run before anything touches the
/// crates: they latch their knobs on first use.
///
/// # Errors
///
/// A message naming `ZKPERF_CHAOS` when it is set.
pub fn sanitize() -> Result<Vec<String>, String> {
    if std::env::var_os(CHAOS_KNOB).is_some() {
        return Err(format!(
            "{CHAOS_KNOB} is set: refusing to benchmark under fault injection (unset it)"
        ));
    }
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect();
    for k in &knobs {
        // Still single-threaded: the pool spawns its workers later.
        std::env::remove_var(k);
    }
    Ok(knobs)
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// sorted, comments and blanks dropped.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

/// Fails unless `benchmark/Cargo.toml` builds with the root manifest's
/// release profile, so the numbers always describe the shipped build.
///
/// # Errors
///
/// A message naming the unreadable manifest or both differing tables.
pub fn check_release_profiles(root: &Path) -> Result<(), String> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| {
            format!("{rel}: {e} (run from the repository root, as benchmark/run.sh does)")
        })
    };
    let shipped = release_profile(&read("Cargo.toml")?);
    let ours = release_profile(&read("benchmark/Cargo.toml")?);
    if shipped.is_empty() || shipped != ours {
        return Err(format!(
            "[profile.release] differs: root {shipped:?} vs benchmark {ours:?}"
        ));
    }
    Ok(())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The resolved configuration written into every result file. It holds
/// only what the run resolved — not which knobs were cleared — so a run
/// started with stray `ZKPERF_*` variables records the same config as a
/// clean one.
pub fn provenance(threads: usize, seed: u64, seconds: f64, smoke: bool, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let stark = zkperf_stark::StarkParams::from_env();
    Value::Object(vec![
        ("threads".into(), Value::UInt(threads as u64)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("smoke".into(), Value::Bool(smoke)),
        ("trace".into(), Value::Bool(trace)),
        ("stark_blowup".into(), Value::UInt(stark.blowup as u64)),
        (
            "stark_queries".into(),
            Value::UInt(stark.num_queries as u64),
        ),
        (
            "fast_pairing".into(),
            Value::Bool(zkperf_ec::fast_pairing_enabled()),
        ),
        (
            "mem_budget".into(),
            zkperf_pool::mem::budget().map_or(Value::Null, Value::UInt),
        ),
        (
            "git_commit".into(),
            Value::String(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Value::String(tool_line("rustc", &["-V"]))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_tables_compare_by_content_not_layout() {
        let root = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = true\nlto   = \"fat\"\ncodegen-units = 1\n\n[profile.bench]\ndebug = true\n";
        let ours =
            "[profile.release]\n# mirrored\ncodegen-units = 1\ndebug = true\nlto = \"fat\"\n";
        assert_eq!(release_profile(root), release_profile(ours));
        assert_eq!(release_profile(root).len(), 3);
        let thin = ours.replace("fat", "thin");
        assert_ne!(release_profile(root), release_profile(&thin));
        assert!(release_profile("[package]\n").is_empty());
    }
}
