//! The ten experiments (E0-E9) behind the `experiments <name|all>` binary.

use std::collections::BTreeMap;

use zkperf_core::{analysis, Curve, Stage, StageMeasurement, SweepConfig};
use zkperf_machine::CpuProfile;
use zkperf_scale::SimCores;

use crate::{emit, sweep_cached};

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

/// Every experiment under the name of the `results/` files it writes.
pub const EXPERIMENTS: [(&str, fn()); 10] = [
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
];

/// Regenerates all ten experiments, sharing the cached sweeps.
pub fn all() {
    for (_, run) in EXPERIMENTS {
        run();
    }
    println!("all experiments regenerated under results/");
}
