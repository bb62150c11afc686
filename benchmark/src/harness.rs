//! Shared state of one workload run: inputs, the span recorder, the
//! op/failure ledger and the metric table.

use std::time::Instant;

use serde::Value;

use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::seed::Seed;
use crate::span::Recorder;
use crate::stats;

/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 28.0;

/// Rounds every run takes whatever the clock says, so that every stage has
/// samples even under `--seconds 1`.
pub const MIN_ROUNDS: usize = 2;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, in the metric's unit.
    pub value: f64,
    /// Timed samples behind the value (0: not measured on this workload).
    pub samples: usize,
    /// Median of the samples, where the value is their low percentile.
    pub median: Option<f64>,
    /// What the value is when it is not the plain median (`p90`, `max`, …).
    pub note: Option<String>,
}

/// Everything a workload needs while it runs.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Root of the input streams.
    pub seed: Seed,
    /// Pool threads pinned for the run.
    pub threads: usize,
    /// `--seconds`: how long the run measures, set-up included.
    pub seconds: f64,
    /// When the run began: the clock `--seconds` is held against.
    pub started: Instant,
    /// Tiny sizes, two samples: proves the harness, not the numbers.
    pub smoke: bool,
    /// Span recorder; records only in a traced run.
    pub rec: Recorder,
    ops: u64,
    checks: u64,
    failures: Vec<String>,
    metrics: Vec<Measured>,
}

impl Ctx {
    /// A fresh ledger for `workload`.
    pub fn new(
        workload: &'static str,
        seed: Seed,
        threads: usize,
        seconds: f64,
        smoke: bool,
        trace: bool,
    ) -> Ctx {
        Ctx {
            workload,
            seed,
            threads,
            seconds,
            started: Instant::now(),
            smoke,
            rec: Recorder::new(trace),
            ops: 0,
            checks: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.rec.enabled()
    }

    /// `log2` of the workload's constraint count: `full`, or 2^8 in smoke
    /// mode.
    pub fn log2(&self, full: u32) -> u32 {
        if self.smoke {
            full.min(8)
        } else {
            full
        }
    }

    /// Whether `--seconds` leaves room for another `cost_s` seconds of
    /// timed work. A run is a box of `--seconds` filled with rounds: on a
    /// slow host it takes fewer samples, not longer.
    pub fn fits(&self, cost_s: f64) -> bool {
        self.started.elapsed().as_secs_f64() + cost_s <= self.seconds
    }

    /// Times `f`; under a traced run the call is also recorded as a span
    /// called `span`. Returns the result and the seconds it took.
    pub fn timed<T>(&self, span: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = self.rec.span(span, f);
        (out, start.elapsed().as_secs_f64())
    }

    /// Books one timed operation (a stage call or a submitted job).
    pub fn op(&mut self, what: &str, ok: bool) {
        self.ops += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Books `ok + failed` operations at once (the jobs of a trace).
    pub fn ops(&mut self, what: &str, ok: usize, failed: usize) {
        self.ops += (ok + failed) as u64;
        if failed > 0 {
            self.fail(&format!("{failed} × {what}"));
            // One ledger line, `failed` failures.
            self.failures
                .extend(std::iter::repeat_n(what.to_string(), failed - 1));
        }
    }

    /// Books one correctness check made outside the timed regions.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks += 1;
        if !ok {
            self.fail(what);
        }
    }

    fn fail(&mut self, what: &str) {
        eprintln!("[{}] FAILED: {what}", self.workload);
        self.failures.push(what.to_string());
    }

    /// Operations plus checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.ops + self.checks
    }

    /// Operations and checks that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Records `name = value` backed by `samples` timed samples.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.put_noted(name, value, samples, None);
    }

    /// [`Ctx::put`] with a note on what kind of value it is.
    pub fn put_noted(&mut self, name: &str, value: f64, samples: usize, note: Option<String>) {
        self.record(Measured {
            name: name.to_string(),
            value,
            samples,
            median: None,
            note,
        });
    }

    fn record(&mut self, m: Measured) {
        debug_assert!(unit_of(&m.name).is_some(), "unknown metric {}", m.name);
        self.metrics.retain(|old| old.name != m.name);
        self.metrics.push(m);
    }

    /// Records the low percentile of the timing `samples` under `name` (why
    /// not the median: [`stats::low_percentile`]), with their median beside
    /// it; returns the recorded value.
    pub fn put_timing(&mut self, name: &str, samples: &[f64]) -> f64 {
        let value = stats::low_percentile(samples);
        self.record(Measured {
            name: name.to_string(),
            value,
            samples: samples.len(),
            median: Some(stats::median(samples)),
            note: None,
        });
        value
    }

    /// Records the median of `samples` under `name`; returns it.
    pub fn put_median(&mut self, name: &str, samples: &[f64]) -> f64 {
        let m = stats::median(samples);
        self.put(name, m, samples.len());
        m
    }

    /// Records `jobs_per_s` from the seconds a job took in each sample — a
    /// round's wall time over its jobs, or the latency of a lone client's
    /// job: their low percentile, inverted (why: [`Ctx::put_timing`]).
    pub fn put_jobs_per_s(&mut self, seconds_per_job: &[f64]) {
        if seconds_per_job.iter().all(|s| *s > 0.0) && !seconds_per_job.is_empty() {
            self.record(Measured {
                name: "jobs_per_s".to_string(),
                value: 1.0 / stats::low_percentile(seconds_per_job),
                samples: seconds_per_job.len(),
                median: Some(1.0 / stats::median(seconds_per_job)),
                note: None,
            });
        }
    }

    /// Records `job_p50_s` and `job_p95_s` from the prove-job latencies of
    /// a traced run, pooled: the median, and the highest percentile up to
    /// the 95th that has enough samples beyond it.
    pub fn put_job_latencies(&mut self, latencies: &[f64]) {
        if latencies.is_empty() {
            return;
        }
        let tail = stats::qualifying_percentile(latencies.len(), 95);
        for (name, q) in [("job_p50_s", 50), ("job_p95_s", tail)] {
            self.put_noted(
                name,
                stats::percentile(latencies, q),
                latencies.len(),
                Some(format!("p{q}")),
            );
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Fills every `<span>_s` per-layer metric that was not set explicitly
    /// from the spans of that name: their low percentile.
    pub fn derive_layer_metrics_from_spans(&mut self) {
        for (name, _, _) in PER_LAYER {
            if self.get(name).is_some() {
                continue;
            }
            let Some(span) = name.strip_suffix("_s") else {
                continue;
            };
            let durations = self.rec.durations(span);
            if !durations.is_empty() {
                self.put_timing(name, &durations);
            }
        }
    }

    /// The metrics this run reports, in `BENCHMARK.json` order: every
    /// end-to-end metric for an untraced run, every per-layer metric for a
    /// traced one. A per-layer metric this workload does not trace reads
    /// 0 with 0 samples — the workload bypasses that layer operation.
    pub fn reported(&self) -> Vec<Measured> {
        let names: Vec<&str> = if self.traced() {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        names
            .into_iter()
            .map(|name| {
                self.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or(Measured {
                        name: name.to_string(),
                        value: 0.0,
                        samples: 0,
                        median: None,
                        note: None,
                    })
            })
            .collect()
    }

    /// Prints every reported metric by name with unit and sample count.
    pub fn print_table(&self) {
        let kind = if self.traced() {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        };
        println!(
            "== {} · {kind} · seed {} · {} thread(s) ==",
            self.workload, self.seed.0, self.threads
        );
        for m in self.reported() {
            let unit = unit_of(&m.name).unwrap_or("");
            if m.samples == 0 {
                println!(
                    "  {:<40} {:>16} {:<6} not traced on this workload",
                    m.name, "-", unit
                );
            } else {
                let median = m.median.map(|v| format!(" median {}", format_value(v)));
                let note = m.note.as_deref().map(|n| format!(" [{n}]"));
                let note = median.into_iter().chain(note).collect::<String>();
                println!(
                    "  {:<40} {:>16} {:<6} n={}{note}",
                    m.name,
                    format_value(m.value),
                    unit,
                    m.samples
                );
            }
        }
        println!(
            "  ops={} checks={} failed={}",
            self.ops,
            self.checks,
            self.failed()
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The reported metrics as a JSON object: `value` and `unit`, and with
    /// `detailed` also the sample count, the median and the note.
    fn metrics_json(&self, detailed: bool) -> Value {
        let metrics = self
            .reported()
            .into_iter()
            .map(|m| {
                let unit = unit_of(&m.name).unwrap_or("").to_string();
                let mut fields = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::String(unit)),
                ];
                if detailed {
                    fields.push(("samples".to_string(), Value::UInt(m.samples as u64)));
                    fields.extend(m.median.map(|v| ("median".to_string(), Value::Float(v))));
                    fields.extend(m.note.map(|n| ("note".to_string(), Value::String(n))));
                }
                (m.name, Value::Object(fields))
            })
            .collect();
        Value::Object(metrics)
    }

    /// The last line of a run's output, in the driver's format.
    pub fn result_line(&self) -> String {
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed() == 0)),
            ("attempted".into(), Value::UInt(self.attempted().max(1))),
            ("failed".into(), Value::UInt(self.failed())),
            ("metrics".into(), self.metrics_json(false)),
        ]);
        serde_json::to_string(&line).unwrap_or_default()
    }

    /// This workload's entry in a result file.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("ops".into(), Value::UInt(self.ops)),
            ("checks".into(), Value::UInt(self.checks)),
            ("failed".into(), Value::UInt(self.failed())),
            (
                "failures".into(),
                Value::Array(self.failures.iter().cloned().map(Value::String).collect()),
            ),
            ("metrics".into(), self.metrics_json(true)),
        ])
    }
}

/// A number as the tables print it: whole, or to a precision that suits
/// its magnitude.
pub fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else if v.abs() >= 1e-3 {
        format!("{v:.6}")
    } else {
        format!("{v:.4e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_rate_inverts_the_low_percentile_and_latencies_are_pooled() {
        let mut ctx = Ctx::new("serve_mixed", Seed(1), 1, 20.0, false, true);
        // Forty rounds of 40 jobs: the second fastest sets the rate.
        let per_job: Vec<f64> = (1..=40).map(|i| f64::from(i) / 40.0).collect();
        ctx.put_jobs_per_s(&per_job);
        assert_eq!(ctx.get("jobs_per_s"), Some(20.0));
        ctx.put_jobs_per_s(&[]);
        assert_eq!(ctx.get("jobs_per_s"), Some(20.0));

        // 300 latencies: fifteen lie beyond the 95th percentile.
        let latencies: Vec<f64> = (1..=300).map(f64::from).collect();
        ctx.put_job_latencies(&latencies);
        assert_eq!(ctx.get("job_p50_s"), Some(150.5));
        assert_eq!(ctx.get("job_p95_s"), Some(285.0));
        // Twenty latencies qualify the median only, under either name.
        ctx.put_job_latencies(&latencies[..20]);
        assert_eq!(ctx.get("job_p95_s"), ctx.get("job_p50_s"));
    }

    #[test]
    fn the_box_is_held_against_the_clock_from_the_start() {
        let ctx = Ctx::new("serve_mixed", Seed(1), 1, 5.0, false, false);
        assert!(ctx.fits(1.0));
        assert!(!ctx.fits(6.0));
    }

    #[test]
    fn a_timing_is_its_low_percentile_and_the_median_rides_along() {
        let mut ctx = Ctx::new("groth16_exp_2e14", Seed(1), 1, 20.0, false, false);
        assert_eq!(ctx.put_timing("prove_s", &[0.3, 0.2, 0.4]), 0.2);
        let m = &ctx.reported()[4];
        assert_eq!(
            (m.name.as_str(), m.value, m.samples, m.median),
            ("prove_s", 0.2, 3, Some(0.3))
        );
    }
}
