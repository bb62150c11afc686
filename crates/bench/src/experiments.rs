//! The experiments (E0-E9, E13) behind the `experiments <name|all>` binary.

use std::collections::BTreeMap;

use serde::Serialize;
use zkperf_core::{
    analysis, measure_stage, render, BackendKind, Curve, Groth16Backend, ProverBackend, Stage,
    StageError, StageMeasurement, SweepConfig, Workload,
};
use zkperf_ec::{Bls12_381, Bn254};
use zkperf_machine::CpuProfile;
use zkperf_scale::SimCores;

use crate::{emit, sweep_cached, sweep_cached_by};

fn main_sweep() -> Vec<StageMeasurement> {
    sweep_cached(&SweepConfig::default(), "main")
}

fn i9_sweep() -> Vec<StageMeasurement> {
    let config = SweepConfig::default().with_cpu(CpuProfile::i9_13900k());
    sweep_cached(&config, "i9")
}

/// E0 — §IV-B execution-time breakdown.
pub fn exec_time() {
    let ms = main_sweep();
    let rows = analysis::exec_time_breakdown(&ms);
    emit("exec_time", &analysis::render_exec_time(&rows), &rows);
}

/// E1 — Fig. 4 top-down microarchitecture analysis.
pub fn fig4_topdown() {
    let ms = main_sweep();
    let rows = analysis::topdown_rows(&ms);
    emit("fig4_topdown", &analysis::render_topdown(&rows), &rows);
}

/// E2 — Fig. 5 loads/stores bands.
pub fn fig5_loads_stores() {
    let ms = main_sweep();
    let rows = analysis::load_store_rows(&ms);
    emit("fig5_loads_stores", &analysis::render_load_store(&rows), &rows);
}

/// E3 — Table II max LLC load MPKI.
pub fn table2_mpki() {
    let ms = main_sweep();
    let rows = analysis::mpki_table(&ms);
    emit("table2_mpki", &analysis::render_mpki(&rows), &rows);
}

/// E4 — Table III peak DRAM bandwidth.
pub fn table3_bandwidth() {
    let ms = main_sweep();
    let rows = analysis::bandwidth_table(&ms);
    emit("table3_bandwidth", &analysis::render_bandwidth(&rows), &rows);
}

/// E5 — Table IV hot functions.
pub fn table4_functions() {
    let ms = main_sweep();
    let rows = analysis::hot_functions(&ms, 6);
    emit("table4_functions", &analysis::render_hot_functions(&rows), &rows);
}

/// E6 — Table V opcode mix.
pub fn table5_opcode_mix() {
    let ms = main_sweep();
    let rows = analysis::opcode_mix(&ms);
    emit("table5_opcode_mix", &analysis::render_opcode_mix(&rows), &rows);
}

/// E7 — Fig. 6 strong scaling (simulated i9).
pub fn fig6_strong_scaling() {
    let ms = i9_sweep();
    let machine = SimCores::i9_13900k();
    let curves = analysis::strong_scaling(&ms, &machine, &analysis::STRONG_SCALING_THREADS);
    emit("fig6_strong_scaling", &analysis::render_scaling(&curves), &curves);
}

fn weak_scaling_curves(ms: &[StageMeasurement]) -> Vec<analysis::ScalingCurve> {
    let machine = SimCores::i9_13900k();
    let mut curves = Vec::new();
    for curve in Curve::ALL {
        for stage in Stage::ALL {
            let mut series: Vec<&StageMeasurement> = ms
                .iter()
                .filter(|m| m.stage == stage && m.curve == curve)
                .collect();
            series.sort_by_key(|m| m.constraints);
            if series.len() < 2 {
                continue;
            }
            let threads: Vec<usize> = (0..series.len()).map(|i| 1 << i.min(5)).collect();
            curves.push(analysis::weak_scaling(&series, &machine, &threads));
        }
    }
    curves
}

/// E8 — Fig. 7 weak scaling (simulated i9).
pub fn fig7_weak_scaling() {
    let ms = i9_sweep();
    let curves = weak_scaling_curves(&ms);
    emit("fig7_weak_scaling", &analysis::render_scaling(&curves), &curves);
}

/// E9 — Table VI serial/parallel fits.
pub fn table6_parallelism() {
    let ms = i9_sweep();
    let machine = SimCores::i9_13900k();
    let ss = analysis::strong_scaling(&ms, &machine, &analysis::STRONG_SCALING_THREADS);
    let mut ss_fits: BTreeMap<(Stage, Curve), Vec<zkperf_scale::ParallelismFit>> = BTreeMap::new();
    for c in &ss {
        ss_fits
            .entry((c.stage, c.curve))
            .or_default()
            .push(zkperf_scale::fit::amdahl(&c.points));
    }
    let ws = weak_scaling_curves(&ms);
    let mut rows = Vec::new();
    for curve in Curve::ALL {
        for stage in Stage::ALL {
            let Some(fits) = ss_fits.get(&(stage, curve)) else {
                continue;
            };
            let avg = |f: &dyn Fn(&zkperf_scale::ParallelismFit) -> f64| {
                fits.iter().map(f).sum::<f64>() / fits.len() as f64
            };
            let strong = zkperf_scale::ParallelismFit {
                serial_pct: avg(&|x| x.serial_pct),
                parallel_pct: avg(&|x| x.parallel_pct),
            };
            let Some(ws_curve) = ws.iter().find(|c| c.stage == stage && c.curve == curve)
            else {
                continue;
            };
            let weak = zkperf_scale::fit::gustafson(&ws_curve.points);
            rows.push(analysis::ParallelismRow {
                stage,
                curve,
                strong,
                weak,
            });
        }
    }
    emit("table6_parallelism", &analysis::render_parallelism(&rows), &rows);
}

/// The traced setup stage of one cell with the key generated by the party
/// that uses it ([`ProverBackend::setup`]), where the main sweep's setup
/// stage is the ceremony.
fn single_party_setup_cell(
    backend: BackendKind,
    curve: Curve,
    cpu: &CpuProfile,
    constraints: usize,
    _stages: &[Stage],
) -> Result<Vec<StageMeasurement>, StageError> {
    fn run<B: ProverBackend>(
        cpu: &CpuProfile,
        constraints: usize,
    ) -> Result<Vec<StageMeasurement>, StageError> {
        let mut workload = Workload::<B>::exponentiate(constraints).with_single_party_setup();
        workload.prepare_for(Stage::Setup)?;
        Ok(vec![measure_stage(&mut workload, Stage::Setup, cpu)?])
    }
    // Only Groth16 has a ceremony that differs from its single-party
    // keygen, so only its cells have a split to measure.
    match (backend, curve) {
        (BackendKind::Groth16, Curve::Bn128) => run::<Groth16Backend<Bn254>>(cpu, constraints),
        (BackendKind::Groth16, Curve::Bls12_381) => {
            run::<Groth16Backend<Bls12_381>>(cpu, constraints)
        }
        _ => Err(StageError::UnsupportedCurve { backend, curve }),
    }
}

/// One cell of E13: the setup stage both ways.
#[derive(Debug, Clone, Serialize)]
pub struct SetupSplitCell {
    /// Simulated CPU.
    pub cpu: String,
    /// Curve.
    pub curve: Curve,
    /// Constraint count.
    pub constraints: usize,
    /// Simulated seconds of `setup` then `contribute` (the main sweep).
    pub ceremony_seconds: f64,
    /// Micro-ops of the same.
    pub ceremony_uops: u64,
    /// Simulated seconds of the single-party keygen.
    pub single_party_seconds: f64,
    /// Micro-ops of the same.
    pub single_party_uops: u64,
    /// `ceremony_seconds / single_party_seconds`.
    pub ratio: f64,
}

/// E13's two tables.
#[derive(Debug, Clone, Serialize)]
pub struct SetupSplit {
    /// Per (CPU, curve, size) cell.
    pub cells: Vec<SetupSplitCell>,
    /// E0's five-stage shares with the ceremony as the setup stage.
    pub ceremony_shares: Vec<analysis::ExecTimeRow>,
    /// The same with the single-party keygen as the setup stage; every
    /// other stage is the main sweep's.
    pub single_party_shares: Vec<analysis::ExecTimeRow>,
}

fn render_setup_split(split: &SetupSplit) -> String {
    let cells = render::table(
        &[
            "cpu",
            "curve",
            "2^k",
            "ceremony s",
            "ceremony uops",
            "single-party s",
            "single-party uops",
            "ratio",
        ],
        &split
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.cpu.clone(),
                    c.curve.to_string(),
                    c.constraints.trailing_zeros().to_string(),
                    render::f(c.ceremony_seconds, 4),
                    c.ceremony_uops.to_string(),
                    render::f(c.single_party_seconds, 4),
                    c.single_party_uops.to_string(),
                    render::f(c.ratio, 2),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let shares = render::table(
        &["stage", "sim seconds", "ceremony %", "sim seconds", "single-party %"],
        &split
            .ceremony_shares
            .iter()
            .zip(&split.single_party_shares)
            .map(|(c, s)| {
                vec![
                    c.stage.to_string(),
                    render::f(c.seconds, 4),
                    render::f(c.percent, 1),
                    render::f(s.seconds, 4),
                    render::f(s.percent, 1),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!(
        "setup stage: ceremony (setup + contribute) vs single-party keygen\n{cells}\n\
         stage shares, summed over the sweep, with each as the setup stage\n{shares}"
    )
}

/// E13 — the setup stage as a ceremony and as a self-generated key.
pub fn setup_split() {
    let main = main_sweep();
    let config = SweepConfig {
        stages: vec![Stage::Setup],
        ..SweepConfig::default()
    };
    let single = sweep_cached_by(&config, "single-party-setup", single_party_setup_cell);
    let same_cell = |a: &StageMeasurement, b: &StageMeasurement| {
        a.machine.cpu == b.machine.cpu && a.curve == b.curve && a.constraints == b.constraints
    };
    let cells = single
        .iter()
        .filter_map(|s| {
            let c = main
                .iter()
                .find(|m| m.stage == Stage::Setup && same_cell(m, s))?;
            Some(SetupSplitCell {
                cpu: s.machine.cpu.clone(),
                curve: s.curve,
                constraints: s.constraints,
                ceremony_seconds: c.machine.seconds(),
                ceremony_uops: c.counts.total_uops(),
                single_party_seconds: s.machine.seconds(),
                single_party_uops: s.counts.total_uops(),
                ratio: c.machine.seconds() / s.machine.seconds(),
            })
        })
        .collect();
    let with_single: Vec<StageMeasurement> = main
        .iter()
        .filter(|m| m.stage != Stage::Setup)
        .chain(&single)
        .cloned()
        .collect();
    let split = SetupSplit {
        cells,
        ceremony_shares: analysis::exec_time_breakdown(&main),
        single_party_shares: analysis::exec_time_breakdown(&with_single),
    };
    emit("setup_split", &render_setup_split(&split), &split);
}

/// Every experiment under the name of the `results/` files it writes.
pub const EXPERIMENTS: [(&str, fn()); 11] = [
    ("exec_time", exec_time),
    ("fig4_topdown", fig4_topdown),
    ("fig5_loads_stores", fig5_loads_stores),
    ("table2_mpki", table2_mpki),
    ("table3_bandwidth", table3_bandwidth),
    ("table4_functions", table4_functions),
    ("table5_opcode_mix", table5_opcode_mix),
    ("fig6_strong_scaling", fig6_strong_scaling),
    ("fig7_weak_scaling", fig7_weak_scaling),
    ("table6_parallelism", table6_parallelism),
    ("setup_split", setup_split),
];

/// Regenerates every experiment, sharing the cached sweeps.
pub fn all() {
    for (_, run) in EXPERIMENTS {
        run();
    }
    println!("all experiments regenerated under results/");
}
