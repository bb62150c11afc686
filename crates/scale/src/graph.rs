//! Task graphs: the serial/parallel structure of a protocol stage.

use serde::{Deserialize, Serialize};

/// One phase of a stage's execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Segment {
    /// Work that must run on a single thread (in abstract work units,
    /// typically micro-ops measured from a trace).
    Serial(f64),
    /// A parallel loop of independent tasks with the given costs.
    ParallelFor {
        /// Per-task work units.
        tasks: Vec<f64>,
    },
}

/// An alternating sequence of serial segments and parallel loops describing
/// how a protocol stage *could* execute on many threads.
///
/// The core crate records one `TaskGraph` per measured stage from the
/// thread-pool jobs the stage ran (MSM windows, NTT passes, setup query
/// chunks…): the work between jobs is serial, each job a parallel loop of
/// its tasks, every cost the micro-ops the tracer counted, so the scaling
/// analysis reflects the code's real decomposition rather than an assumed
/// parallel fraction.
///
/// # Examples
///
/// ```
/// use zkperf_scale::TaskGraph;
/// let g = TaskGraph::new()
///     .serial(100.0)
///     .parallel_uniform(64, 10.0)
///     .serial(50.0);
/// assert_eq!(g.total_work(), 100.0 + 640.0 + 50.0);
/// assert!(g.parallel_fraction() > 0.8);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskGraph {
    segments: Vec<Segment>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Appends a serial segment of `work` units.
    pub fn serial(mut self, work: f64) -> Self {
        assert!(work >= 0.0, "work must be non-negative");
        self.segments.push(Segment::Serial(work));
        self
    }

    /// Appends a parallel loop of `n` tasks of `each` units.
    pub fn parallel_uniform(self, n: usize, each: f64) -> Self {
        self.parallel(vec![each; n])
    }

    /// Appends a parallel loop with explicit per-task costs.
    pub fn parallel(mut self, tasks: Vec<f64>) -> Self {
        assert!(
            tasks.iter().all(|&t| t >= 0.0),
            "task costs must be non-negative"
        );
        self.segments.push(Segment::ParallelFor { tasks });
        self
    }

    /// The segments in execution order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total work across all segments.
    pub fn total_work(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Serial(w) => *w,
                Segment::ParallelFor { tasks } => tasks.iter().sum(),
            })
            .sum()
    }

    /// Fraction of the total work that sits in parallel loops.
    pub fn parallel_fraction(&self) -> f64 {
        let total = self.total_work();
        if total == 0.0 {
            return 0.0;
        }
        let par: f64 = self
            .segments
            .iter()
            .map(|s| match s {
                Segment::Serial(_) => 0.0,
                Segment::ParallelFor { tasks } => tasks.iter().sum(),
            })
            .sum();
        par / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let g = TaskGraph::new().serial(30.0).parallel(vec![10.0, 20.0, 40.0]);
        assert_eq!(g.total_work(), 100.0);
        assert_eq!(g.parallel_fraction(), 0.7);
        assert_eq!(g.segments().len(), 2);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = TaskGraph::new();
        assert_eq!(g.total_work(), 0.0);
        assert_eq!(g.parallel_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_work() {
        let _ = TaskGraph::new().serial(-1.0);
    }
}
