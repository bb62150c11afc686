//! The paper's four analyses (plus the execution-time breakdown), computed
//! from a slice of [`StageMeasurement`]s.

use std::collections::BTreeMap;

use serde::Serialize;
use zkperf_machine::TopdownBreakdown;
use zkperf_scale::{fit, ParallelismFit, SimCores};
use zkperf_trace::OpClass;

use crate::graphs::stage_task_graph;
use crate::measure::StageMeasurement;
use crate::render;
use crate::stage::{Curve, Stage};

// ------------------------------------------------------------ exec time --

/// One stage's share of total execution time (§IV-B "Execution time
/// analysis": setup 76.1%, proving 13.4%).
#[derive(Debug, Clone, Serialize)]
pub struct ExecTimeRow {
    /// Stage.
    pub stage: Stage,
    /// Total simulated seconds across the aggregated measurements.
    pub seconds: f64,
    /// Percentage of the total across all stages.
    pub percent: f64,
}

/// Aggregates simulated execution time by stage across all measurements.
pub fn exec_time_breakdown(ms: &[StageMeasurement]) -> Vec<ExecTimeRow> {
    let mut by_stage: BTreeMap<Stage, f64> = BTreeMap::new();
    for m in ms {
        *by_stage.entry(m.stage).or_insert(0.0) += m.machine.seconds();
    }
    let total: f64 = by_stage.values().sum();
    Stage::ALL
        .iter()
        .filter_map(|s| by_stage.get(s).map(|&secs| (s, secs)))
        .map(|(&stage, seconds)| ExecTimeRow {
            stage,
            seconds,
            percent: if total > 0.0 { 100.0 * seconds / total } else { 0.0 },
        })
        .collect()
}

/// Renders the execution-time breakdown as a text table.
pub fn render_exec_time(rows: &[ExecTimeRow]) -> String {
    render::table(
        &["stage", "sim seconds", "percent"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.to_string(),
                    render::f(r.seconds, 4),
                    render::f(r.percent, 1),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

// -------------------------------------------------------------- topdown --

/// One cell of the paper's Fig. 4.
#[derive(Debug, Clone, Serialize)]
pub struct TopdownRow {
    /// Simulated CPU.
    pub cpu: String,
    /// Curve.
    pub curve: Curve,
    /// Stage.
    pub stage: Stage,
    /// Constraint count.
    pub constraints: usize,
    /// The four-way slot split.
    pub breakdown: TopdownBreakdown,
}

/// Extracts the top-down rows (one per measurement).
pub fn topdown_rows(ms: &[StageMeasurement]) -> Vec<TopdownRow> {
    ms.iter()
        .map(|m| TopdownRow {
            cpu: m.machine.cpu.clone(),
            curve: m.curve,
            stage: m.stage,
            constraints: m.constraints,
            breakdown: m.machine.topdown(),
        })
        .collect()
}

/// Renders Fig. 4 rows as a text table.
pub fn render_topdown(rows: &[TopdownRow]) -> String {
    render::table(
        &["cpu", "curve", "stage", "2^k", "frontend%", "badspec%", "backend%", "retiring%"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.cpu.clone(),
                    r.curve.to_string(),
                    r.stage.to_string(),
                    format!("{}", (r.constraints as f64).log2() as u32),
                    render::f(r.breakdown.frontend_bound, 1),
                    render::f(r.breakdown.bad_speculation, 1),
                    render::f(r.breakdown.backend_bound, 1),
                    render::f(r.breakdown.retiring, 1),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

// --------------------------------------------------------------- memory --

/// Loads/stores band for one (stage, size) point of Fig. 5: the mean and
/// min/max across CPUs and curves.
#[derive(Debug, Clone, Serialize)]
pub struct LoadStoreRow {
    /// Stage.
    pub stage: Stage,
    /// Constraint count.
    pub constraints: usize,
    /// Mean loads across CPUs/curves.
    pub loads_mean: f64,
    /// Minimum loads.
    pub loads_min: u64,
    /// Maximum loads.
    pub loads_max: u64,
    /// Mean stores.
    pub stores_mean: f64,
    /// Minimum stores.
    pub stores_min: u64,
    /// Maximum stores.
    pub stores_max: u64,
}

/// Builds the Fig. 5 loads/stores bands.
pub fn load_store_rows(ms: &[StageMeasurement]) -> Vec<LoadStoreRow> {
    let mut groups: BTreeMap<(Stage, usize), Vec<&StageMeasurement>> = BTreeMap::new();
    for m in ms {
        groups.entry((m.stage, m.constraints)).or_default().push(m);
    }
    groups
        .into_iter()
        .map(|((stage, constraints), group)| {
            let loads: Vec<u64> = group.iter().map(|m| m.machine.loads).collect();
            let stores: Vec<u64> = group.iter().map(|m| m.machine.stores).collect();
            let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
            LoadStoreRow {
                stage,
                constraints,
                loads_mean: mean(&loads),
                // Groups are built by pushing at least one measurement, so
                // min/max exist; copied() + unwrap_or keeps this panic-free.
                loads_min: loads.iter().min().copied().unwrap_or(0),
                loads_max: loads.iter().max().copied().unwrap_or(0),
                stores_mean: mean(&stores),
                stores_min: stores.iter().min().copied().unwrap_or(0),
                stores_max: stores.iter().max().copied().unwrap_or(0),
            }
        })
        .collect()
}

/// Renders the Fig. 5 bands as a text table.
pub fn render_load_store(rows: &[LoadStoreRow]) -> String {
    render::table(
        &["stage", "constraints", "loads(mean)", "loads(min..max)", "stores(mean)", "stores(min..max)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.to_string(),
                    r.constraints.to_string(),
                    render::f(r.loads_mean, 0),
                    format!("{}..{}", r.loads_min, r.loads_max),
                    render::f(r.stores_mean, 0),
                    format!("{}..{}", r.stores_min, r.stores_max),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One cell of Table II: the worst-case LLC load MPKI for a stage on one
/// CPU × curve, maximized across constraint sizes.
#[derive(Debug, Clone, Serialize)]
pub struct MpkiRow {
    /// Stage.
    pub stage: Stage,
    /// CPU.
    pub cpu: String,
    /// Curve.
    pub curve: Curve,
    /// Maximum LLC load MPKI across sizes.
    pub max_mpki: f64,
}

/// Builds Table II (max MPKI across the size sweep).
pub fn mpki_table(ms: &[StageMeasurement]) -> Vec<MpkiRow> {
    let mut best: BTreeMap<(Stage, String, Curve), f64> = BTreeMap::new();
    for m in ms {
        let key = (m.stage, m.machine.cpu.clone(), m.curve);
        let v = best.entry(key).or_insert(0.0);
        *v = v.max(m.machine.llc_load_mpki());
    }
    best.into_iter()
        .map(|((stage, cpu, curve), max_mpki)| MpkiRow {
            stage,
            cpu,
            curve,
            max_mpki,
        })
        .collect()
}

/// Renders Table II.
pub fn render_mpki(rows: &[MpkiRow]) -> String {
    render::table(
        &["stage", "cpu", "curve", "max LLC load MPKI"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.to_string(),
                    r.cpu.clone(),
                    r.curve.to_string(),
                    render::f(r.max_mpki, 2),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One cell of Table III: peak DRAM bandwidth per stage × curve, averaged
/// over sizes and CPUs.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthRow {
    /// Stage.
    pub stage: Stage,
    /// Curve.
    pub curve: Curve,
    /// Mean of per-run peak bandwidth, GB/s.
    pub peak_gbps: f64,
}

/// Builds Table III.
pub fn bandwidth_table(ms: &[StageMeasurement]) -> Vec<BandwidthRow> {
    let mut sums: BTreeMap<(Stage, Curve), (f64, usize)> = BTreeMap::new();
    for m in ms {
        let e = sums.entry((m.stage, m.curve)).or_insert((0.0, 0));
        e.0 += m.machine.peak_dram_gbps;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|((stage, curve), (sum, n))| BandwidthRow {
            stage,
            curve,
            peak_gbps: sum / n as f64,
        })
        .collect()
}

/// Renders Table III.
pub fn render_bandwidth(rows: &[BandwidthRow]) -> String {
    render::table(
        &["stage", "curve", "peak bandwidth (GB/s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.to_string(),
                    r.curve.to_string(),
                    render::f(r.peak_gbps, 2),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

// ----------------------------------------------------------------- code --

/// One hot function of a stage (Table IV).
#[derive(Debug, Clone, Serialize)]
pub struct HotFunctionRow {
    /// Stage.
    pub stage: Stage,
    /// Function/region name.
    pub function: String,
    /// Share of the stage's retired micro-ops, percent.
    pub uops_percent: f64,
    /// Times it ran.
    pub calls: u64,
}

/// Builds the hot-function ranking for each stage, synthesizing the
/// allocator and bulk-copy pseudo-functions the paper's Table IV lists
/// (`malloc`, `memcpy`) from the tracer's dedicated counters.
pub fn hot_functions(ms: &[StageMeasurement], top_k: usize) -> Vec<HotFunctionRow> {
    let mut by_stage: BTreeMap<Stage, BTreeMap<String, (u64, u64)>> = BTreeMap::new();
    let mut stage_total: BTreeMap<Stage, u64> = BTreeMap::new();
    for m in ms {
        let slot = by_stage.entry(m.stage).or_default();
        // Denominator: the tracer's retired µops plus the synthesized
        // runtime entries below, so shares stay within 100%.
        let synthesized =
            m.counts.allocs * 24 + m.counts.memcpy_bytes / 8 + m.counts.memcpys
                + m.machine.page_faults * 300;
        *stage_total.entry(m.stage).or_insert(0) +=
            m.counts.total_uops() + synthesized;
        for r in &m.regions {
            let e = slot.entry(r.name.clone()).or_insert((0, 0));
            e.0 += r.uops;
            e.1 += r.calls;
        }
        // Synthesized entries mirroring VTune's view of libc/runtime work.
        let malloc_uops = m.counts.allocs * 24;
        let e = slot.entry("malloc".into()).or_insert((0, 0));
        e.0 += malloc_uops;
        e.1 += m.counts.allocs;
        let memcpy_uops = m.counts.memcpy_bytes / 8 + m.counts.memcpys;
        let e = slot.entry("memcpy".into()).or_insert((0, 0));
        e.0 += memcpy_uops;
        e.1 += m.counts.memcpys;
        // The kernel's page-fault handler, from the machine model's
        // first-touch counter (~300 retired kernel µops per minor fault).
        let e = slot.entry("page_fault_handler".into()).or_insert((0, 0));
        e.0 += m.machine.page_faults * 300;
        e.1 += m.machine.page_faults;
    }
    let mut out = Vec::new();
    for (stage, functions) in by_stage {
        let total = stage_total[&stage].max(1);
        let mut rows: Vec<HotFunctionRow> = functions
            .into_iter()
            .map(|(function, (uops, calls))| HotFunctionRow {
                stage,
                function,
                uops_percent: 100.0 * uops as f64 / total as f64,
                calls,
            })
            .collect();
        rows.sort_by(|a, b| b.uops_percent.total_cmp(&a.uops_percent));
        rows.truncate(top_k);
        out.extend(rows);
    }
    out
}

/// Renders Table IV.
pub fn render_hot_functions(rows: &[HotFunctionRow]) -> String {
    render::table(
        &["stage", "function", "% of uops", "calls"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.to_string(),
                    r.function.clone(),
                    render::f(r.uops_percent, 1),
                    r.calls.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One row of Table V: the opcode-class mix of a stage on one curve.
#[derive(Debug, Clone, Serialize)]
pub struct OpcodeMixRow {
    /// Stage.
    pub stage: Stage,
    /// Curve.
    pub curve: Curve,
    /// Compute share, percent.
    pub compute_pct: f64,
    /// Control-flow share, percent.
    pub control_pct: f64,
    /// Data-flow share, percent.
    pub data_pct: f64,
}

impl OpcodeMixRow {
    /// The dominant class, used to label stages compute/control/data
    /// intensive as the paper does.
    pub fn dominant(&self) -> OpClass {
        let pairs = [
            (OpClass::Compute, self.compute_pct),
            (OpClass::Control, self.control_pct),
            (OpClass::Data, self.data_pct),
        ];
        pairs
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(OpClass::Compute, |p| p.0)
    }
}

/// Builds Table V (averaged over sizes and CPUs per stage × curve).
pub fn opcode_mix(ms: &[StageMeasurement]) -> Vec<OpcodeMixRow> {
    let mut sums: BTreeMap<(Stage, Curve), ([f64; 3], usize)> = BTreeMap::new();
    for m in ms {
        let e = sums.entry((m.stage, m.curve)).or_insert(([0.0; 3], 0));
        e.0[0] += m.counts.class_percent(OpClass::Compute);
        e.0[1] += m.counts.class_percent(OpClass::Control);
        e.0[2] += m.counts.class_percent(OpClass::Data);
        e.1 += 1;
    }
    sums.into_iter()
        .map(|((stage, curve), (s, n))| OpcodeMixRow {
            stage,
            curve,
            compute_pct: s[0] / n as f64,
            control_pct: s[1] / n as f64,
            data_pct: s[2] / n as f64,
        })
        .collect()
}

/// Renders Table V.
pub fn render_opcode_mix(rows: &[OpcodeMixRow]) -> String {
    render::table(
        &["stage", "curve", "comp%", "ctrl%", "data%", "dominant"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.to_string(),
                    r.curve.to_string(),
                    render::f(r.compute_pct, 2),
                    render::f(r.control_pct, 2),
                    render::f(r.data_pct, 2),
                    r.dominant().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

// ------------------------------------------------------------ scalability --

/// A scaling curve for one stage at one size (Fig. 6 / Fig. 7 series).
#[derive(Debug, Clone, Serialize)]
pub struct ScalingCurve {
    /// Stage.
    pub stage: Stage,
    /// Curve.
    pub curve: Curve,
    /// Constraint count (for weak scaling, the base size).
    pub constraints: usize,
    /// `(threads, speedup)` points.
    pub points: Vec<(usize, f64)>,
}

/// The paper's thread counts for Fig. 6.
pub const STRONG_SCALING_THREADS: [usize; 8] = [1, 2, 4, 6, 12, 18, 24, 32];

/// Strong scaling (Fig. 6): fixed problem size, growing thread count, on
/// the simulated multicore `machine`.
pub fn strong_scaling(
    ms: &[StageMeasurement],
    machine: &SimCores,
    threads: &[usize],
) -> Vec<ScalingCurve> {
    ms.iter()
        .map(|m| {
            let graph = stage_task_graph(m);
            ScalingCurve {
                stage: m.stage,
                curve: m.curve,
                constraints: m.constraints,
                points: machine.strong_scaling(&graph, threads),
            }
        })
        .collect()
}

/// Weak scaling (Fig. 7): threads and problem size double together.
/// `ms_by_size` must hold the same stage measured at the doubling sizes,
/// smallest first, aligned with `threads`.
pub fn weak_scaling(
    ms_by_size: &[&StageMeasurement],
    machine: &SimCores,
    threads: &[usize],
) -> ScalingCurve {
    assert_eq!(
        ms_by_size.len(),
        threads.len(),
        "one measurement per thread count"
    );
    assert!(!ms_by_size.is_empty(), "need at least one measurement");
    let base = ms_by_size[0];
    let t1 = machine.simulate(&stage_task_graph(base), 1);
    let points = ms_by_size
        .iter()
        .zip(threads)
        .map(|(m, &n)| {
            let sf = m.constraints as f64 / base.constraints as f64;
            let tn = machine.simulate(&stage_task_graph(m), n);
            (n, t1 * sf / tn)
        })
        .collect();
    ScalingCurve {
        stage: base.stage,
        curve: base.curve,
        constraints: base.constraints,
        points,
    }
}

/// One row of Table VI: fitted serial/parallel percentages.
#[derive(Debug, Clone, Serialize)]
pub struct ParallelismRow {
    /// Stage.
    pub stage: Stage,
    /// Curve.
    pub curve: Curve,
    /// Strong-scaling (Amdahl) fit.
    pub strong: ParallelismFit,
    /// Weak-scaling (Gustafson) fit.
    pub weak: ParallelismFit,
}

/// Fits Table VI from strong- and weak-scaling curves of the same stage.
pub fn parallelism_fit(strong: &ScalingCurve, weak: &ScalingCurve) -> ParallelismRow {
    assert_eq!(strong.stage, weak.stage);
    ParallelismRow {
        stage: strong.stage,
        curve: strong.curve,
        strong: fit::amdahl(&strong.points),
        weak: fit::gustafson(&weak.points),
    }
}

/// Renders scaling curves as a text table.
pub fn render_scaling(curves: &[ScalingCurve]) -> String {
    let mut rows = Vec::new();
    for c in curves {
        for &(n, sp) in &c.points {
            rows.push(vec![
                c.stage.to_string(),
                c.curve.to_string(),
                c.constraints.to_string(),
                n.to_string(),
                render::f(sp, 2),
            ]);
        }
    }
    render::table(&["stage", "curve", "constraints", "threads", "speedup"], &rows)
}

/// Renders Table VI.
pub fn render_parallelism(rows: &[ParallelismRow]) -> String {
    render::table(
        &["stage", "curve", "SS serial%", "SS parallel%", "WS serial%", "WS parallel%"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.stage.to_string(),
                    r.curve.to_string(),
                    render::f(r.strong.serial_pct, 2),
                    render::f(r.strong.parallel_pct, 2),
                    render::f(r.weak.serial_pct, 2),
                    render::f(r.weak.parallel_pct, 2),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::measure_cell;
    use zkperf_machine::CpuProfile;

    fn small_matrix() -> Vec<StageMeasurement> {
        let mut ms = Vec::new();
        for cpu in [CpuProfile::i7_8650u(), CpuProfile::i9_13900k()] {
            for log in [6, 7] {
                ms.extend(measure_cell(Curve::Bn128, &cpu, 1 << log, &Stage::ALL).unwrap());
            }
        }
        ms
    }

    #[test]
    fn exec_time_percentages_sum_to_100() {
        let ms = small_matrix();
        let rows = exec_time_breakdown(&ms);
        assert_eq!(rows.len(), 5);
        let total: f64 = rows.iter().map(|r| r.percent).sum();
        assert!((total - 100.0).abs() < 1e-6);
        let text = render_exec_time(&rows);
        assert!(text.contains("setup"));
    }

    #[test]
    fn topdown_rows_cover_matrix() {
        let ms = small_matrix();
        let rows = topdown_rows(&ms);
        assert_eq!(rows.len(), ms.len());
        for r in &rows {
            let sum = r.breakdown.frontend_bound
                + r.breakdown.bad_speculation
                + r.breakdown.backend_bound
                + r.breakdown.retiring;
            assert!((sum - 100.0).abs() < 1e-6, "{sum}");
        }
        assert!(render_topdown(&rows).contains("i9-13900K"));
    }

    #[test]
    fn memory_tables_have_expected_shapes() {
        let ms = small_matrix();
        let ls = load_store_rows(&ms);
        assert_eq!(ls.len(), 5 * 2, "5 stages × 2 sizes");
        for r in &ls {
            assert!(r.loads_min <= r.loads_max);
            assert!(r.loads_mean >= r.loads_min as f64);
            assert!(r.loads_mean <= r.loads_max as f64);
        }
        let mpki = mpki_table(&ms);
        assert_eq!(mpki.len(), 5 * 2, "5 stages × 2 CPUs");
        let bw = bandwidth_table(&ms);
        assert_eq!(bw.len(), 5, "5 stages × 1 curve");
        assert!(!render_load_store(&ls).is_empty());
        assert!(!render_mpki(&mpki).is_empty());
        assert!(!render_bandwidth(&bw).is_empty());
    }

    #[test]
    fn hot_functions_include_synthesized_libc_entries() {
        let ms = small_matrix();
        let rows = hot_functions(&ms, 20);
        let compile_fns: Vec<&str> = rows
            .iter()
            .filter(|r| r.stage == Stage::Compile)
            .map(|r| r.function.as_str())
            .collect();
        assert!(compile_fns.contains(&"malloc"), "{compile_fns:?}");
        assert!(compile_fns.contains(&"memcpy"), "{compile_fns:?}");
        assert!(compile_fns.contains(&"parser"), "{compile_fns:?}");
    }

    #[test]
    fn opcode_mix_percentages_are_consistent() {
        let ms = small_matrix();
        let rows = opcode_mix(&ms);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            let sum = r.compute_pct + r.control_pct + r.data_pct;
            assert!((sum - 100.0).abs() < 0.5, "{}: {sum}", r.stage);
        }
        assert!(render_opcode_mix(&rows).contains("dominant"));
    }

    #[test]
    fn scalability_pipeline_produces_fits() {
        let cpu = CpuProfile::i9_13900k();
        let machine = SimCores::i9_13900k();
        let m64 = measure_cell(Curve::Bn128, &cpu, 64, &[Stage::Proving]).unwrap();
        let m128 = measure_cell(Curve::Bn128, &cpu, 128, &[Stage::Proving]).unwrap();
        let ss = strong_scaling(&m64, &machine, &[1, 2, 4, 8, 16, 32]);
        assert_eq!(ss.len(), 1);
        assert!(ss[0].points.last().unwrap().1 >= ss[0].points[0].1);
        let ws = weak_scaling(&[&m64[0], &m128[0]], &machine, &[1, 2]);
        assert_eq!(ws.points.len(), 2);
        let row = parallelism_fit(&ss[0], &ws);
        assert!(row.strong.parallel_pct > 0.0);
        assert!(!render_parallelism(&[row]).is_empty());
        assert!(!render_scaling(&ss).is_empty());
    }
}
