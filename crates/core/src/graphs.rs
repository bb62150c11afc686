//! The toolchain emulation inside a measured stage's [`TaskGraph`].
//!
//! A stage's graph is recorded from the pool jobs the stage ran
//! (`measure_stage`): the work between jobs is serial, each job a parallel
//! loop of its tasks. Two traced regions are emulation of toolchain code we
//! do not run, so no job of ours carries their parallelism; the two
//! constants below stand in for it, applied to those regions' micro-ops
//! and to nothing else:
//!
//! - `runtime_init`, the node + snarkjs start-up of every interpreted
//!   stage (`workload::emit_runtime_init`), whose wasm modules V8
//!   compiles on background threads;
//! - the `compile` region's own work, circom's per-gate expression
//!   lowering (the lexer, parser and finalizer are regions of their own).
//!
//! Both run before the stage's first pool job (start-up precedes the
//! stage; compile submits none), so they lie in the graph's first serial
//! segment, which is where their split is taken from.

use zkperf_scale::{Segment, TaskGraph};

use crate::measure::StageMeasurement;

/// Share of the wasm-runtime initialization that parallelizes (V8 compiles
/// wasm modules on background threads).
const RUNTIME_INIT_PARALLEL: f64 = 0.70;
/// Share of expression lowering that is independent per gate; the rest is
/// the environment-update dependency chain through running accumulators.
const LOWERING_PARALLEL: f64 = 0.50;

/// Applies both emulations to the graph `m` recorded.
pub(crate) fn emulate_toolchain(m: &mut StageMeasurement) {
    let recorded = std::mem::take(&mut m.task_graph);
    let graph = emulate(recorded, m.region_uops("runtime_init"), RUNTIME_INIT_PARALLEL, 16);
    let lowering_tasks = (m.constraints / 64).max(2);
    m.task_graph = emulate(graph, m.region_uops("compile"), LOWERING_PARALLEL, lowering_tasks);
}

/// Splits `uops` of the first serial segment into a serial rest and a
/// parallel loop of `tasks` near-equal tasks holding `share` of them. The
/// split is in whole micro-ops, so the graph's total work is unchanged.
fn emulate(graph: TaskGraph, uops: u64, share: f64, tasks: usize) -> TaskGraph {
    let Some((Segment::Serial(first), rest)) = graph.segments().split_first() else {
        return graph;
    };
    if uops == 0 || *first < uops as f64 {
        return graph;
    }
    let parallel = (uops as f64 * share).round() as u64;
    let tasks = tasks as u64;
    let (each, extra) = (parallel / tasks, parallel % tasks);
    let mut out = TaskGraph::new()
        .serial(first - parallel as f64)
        .parallel((0..tasks).map(|i| (each + u64::from(i < extra)) as f64).collect());
    for segment in rest {
        out = match segment {
            Segment::Serial(work) => out.serial(*work),
            Segment::ParallelFor { tasks } => out.parallel(tasks.clone()),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulation_splits_its_region_in_whole_uops() {
        let recorded = TaskGraph::new().serial(1_000.0).parallel(vec![5.0, 7.0]).serial(3.0);
        let g = emulate(recorded.clone(), 101, RUNTIME_INIT_PARALLEL, 16);
        // 71 of the region's 101 µops over 16 tasks (7 of 5, 9 of 4), the
        // rest of the segment serial; the recorded jobs untouched.
        let mut tasks = vec![5.0; 7];
        tasks.extend([4.0; 9]);
        let expect = TaskGraph::new()
            .serial(929.0)
            .parallel(tasks)
            .parallel(vec![5.0, 7.0])
            .serial(3.0);
        assert_eq!(g, expect);
        assert_eq!(g.total_work(), recorded.total_work());
        // A region that did not run, or more than the first segment holds:
        // as recorded.
        assert_eq!(emulate(recorded.clone(), 0, LOWERING_PARALLEL, 2), recorded);
        assert_eq!(emulate(recorded.clone(), 1_001, LOWERING_PARALLEL, 2), recorded);
    }
}
