//! The bounded admission queue: depth + in-flight byte budgets, priority
//! ordering, and shed-lowest-first displacement.

use crate::job::{JobId, JobSpec, Priority, RejectReason};

/// Limits enforced at admission.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum queued (not yet completed) jobs.
    pub max_depth: usize,
    /// Maximum estimated bytes across queued and executing jobs.
    pub max_inflight_bytes: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_depth: 64,
            max_inflight_bytes: 1 << 30,
        }
    }
}

/// An admitted job waiting to execute.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Server-assigned id.
    pub id: JobId,
    /// The submission.
    pub spec: JobSpec,
    /// Admission-time cost estimate, released on completion.
    pub cost_bytes: usize,
    /// Monotone arrival sequence (FIFO within a priority class).
    pub seq: u64,
}

/// A bounded priority queue with byte accounting.
///
/// Ordering: [`Priority::High`] drains before `Normal` before `Low`;
/// within a class, arrival order. When the queue is full, an arriving job
/// that strictly outranks the worst enqueued job displaces it ("shed
/// lowest priority first"; among equals the youngest goes, preserving the
/// oldest work). Arrivals that don't outrank anything are rejected.
#[derive(Debug)]
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    entries: Vec<QueuedJob>,
    inflight_bytes: usize,
}

impl AdmissionQueue {
    /// An empty queue under `cfg`.
    pub fn new(cfg: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue {
            cfg,
            entries: Vec::new(),
            inflight_bytes: 0,
        }
    }

    /// Jobs currently queued (excludes executing jobs).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Bytes held by queued and executing jobs.
    pub fn inflight_bytes(&self) -> usize {
        self.inflight_bytes
    }

    /// Tries to admit `job`. On success returns the displaced victim, if
    /// admission had to shed one. On failure returns the typed reason.
    ///
    /// Byte budget is a hard limit: a job whose cost cannot fit alongside
    /// the current in-flight set is rejected rather than shedding several
    /// smaller jobs to make room.
    pub fn admit(&mut self, job: QueuedJob) -> Result<Option<QueuedJob>, RejectReason> {
        if self.inflight_bytes + job.cost_bytes > self.cfg.max_inflight_bytes {
            return Err(RejectReason::InflightBytes {
                bytes: self.inflight_bytes,
                cost: job.cost_bytes,
                limit: self.cfg.max_inflight_bytes,
            });
        }
        let mut shed = None;
        if self.entries.len() >= self.cfg.max_depth {
            match self.shed_index(job.spec.priority) {
                Some(i) => {
                    let victim = self.entries.remove(i);
                    self.inflight_bytes -= victim.cost_bytes;
                    shed = Some(victim);
                }
                None => {
                    return Err(RejectReason::QueueFull {
                        depth: self.entries.len(),
                        limit: self.cfg.max_depth,
                    })
                }
            }
        }
        self.inflight_bytes += job.cost_bytes;
        self.entries.push(job);
        Ok(shed)
    }

    /// Index of the job to shed for an arrival at `incoming` priority:
    /// the youngest member of the strictly-lowest priority class, and
    /// only when that class ranks below `incoming`.
    fn shed_index(&self, incoming: Priority) -> Option<usize> {
        let worst = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| (j.spec.priority.rank(), u64::MAX - j.seq))?;
        (worst.1.spec.priority < incoming).then_some(worst.0)
    }

    /// Removes and returns the next job to execute: highest priority,
    /// then oldest. Its bytes stay accounted until [`Self::release`].
    pub fn pop(&mut self) -> Option<QueuedJob> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, j)| (j.spec.priority.rank(), u64::MAX - j.seq))?
            .0;
        Some(self.entries.remove(best))
    }

    /// Removes and returns the next job to execute only when `pred`
    /// accepts it; otherwise leaves the queue untouched. Lets the server
    /// assemble verify batches without disturbing priority order — the
    /// candidate is always the job [`Self::pop`] would have returned.
    pub fn pop_if(&mut self, pred: impl FnOnce(&QueuedJob) -> bool) -> Option<QueuedJob> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, j)| (j.spec.priority.rank(), u64::MAX - j.seq))?
            .0;
        if pred(&self.entries[best]) {
            Some(self.entries.remove(best))
        } else {
            None
        }
    }

    /// Returns a completed (or abandoned) job's bytes to the budget.
    pub fn release(&mut self, cost_bytes: usize) {
        self.inflight_bytes = self.inflight_bytes.saturating_sub(cost_bytes);
    }

    /// Drains every queued job (for checkpointing), releasing their bytes.
    pub fn drain_all(&mut self) -> Vec<QueuedJob> {
        let mut out = std::mem::take(&mut self.entries);
        // Checkpoint in execution order so resume replays identically.
        out.sort_by_key(|j| (std::cmp::Reverse(j.spec.priority.rank()), j.seq));
        for j in &out {
            self.inflight_bytes = self.inflight_bytes.saturating_sub(j.cost_bytes);
        }
        out
    }

    /// Ids currently queued, in execution order (tests / introspection).
    pub fn queued_ids(&self) -> Vec<JobId> {
        let mut v: Vec<&QueuedJob> = self.entries.iter().collect();
        v.sort_by_key(|j| (std::cmp::Reverse(j.spec.priority.rank()), j.seq));
        v.into_iter().map(|j| j.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CircuitSpec, JobKind, JobSpec};

    fn job(id: JobId, seq: u64, priority: Priority) -> QueuedJob {
        QueuedJob {
            id,
            spec: JobSpec {
                circuit: CircuitSpec::exponentiate(4, 3),
                kind: JobKind::Prove,
                priority,
                deadline: None,
            },
            cost_bytes: 100,
            seq,
        }
    }

    fn queue(depth: usize, bytes: usize) -> AdmissionQueue {
        AdmissionQueue::new(AdmissionConfig {
            max_depth: depth,
            max_inflight_bytes: bytes,
        })
    }

    #[test]
    fn pops_by_priority_then_arrival() {
        let mut q = queue(8, 10_000);
        q.admit(job(1, 1, Priority::Low)).unwrap();
        q.admit(job(2, 2, Priority::High)).unwrap();
        q.admit(job(3, 3, Priority::Normal)).unwrap();
        q.admit(job(4, 4, Priority::High)).unwrap();
        let order: Vec<JobId> = std::iter::from_fn(|| q.pop()).map(|j| j.id).collect();
        assert_eq!(order, vec![2, 4, 3, 1]);
    }

    #[test]
    fn sheds_youngest_of_lowest_class_first() {
        let mut q = queue(3, 10_000);
        q.admit(job(1, 1, Priority::Low)).unwrap();
        q.admit(job(2, 2, Priority::Normal)).unwrap();
        q.admit(job(3, 3, Priority::Low)).unwrap();
        // Full. A High arrival displaces the *youngest Low* (id 3).
        let shed = q.admit(job(4, 4, Priority::High)).unwrap();
        assert_eq!(shed.map(|j| j.id), Some(3));
        // Another High displaces the remaining Low (id 1).
        let shed = q.admit(job(5, 5, Priority::High)).unwrap();
        assert_eq!(shed.map(|j| j.id), Some(1));
        // A Normal arrival cannot displace Normal/High — typed rejection.
        let err = q.admit(job(6, 6, Priority::Normal)).unwrap_err();
        assert!(matches!(err, RejectReason::QueueFull { depth: 3, limit: 3 }));
    }

    #[test]
    fn byte_budget_is_a_hard_reject() {
        let mut q = queue(8, 250);
        q.admit(job(1, 1, Priority::High)).unwrap();
        q.admit(job(2, 2, Priority::High)).unwrap();
        let err = q.admit(job(3, 3, Priority::High)).unwrap_err();
        assert!(matches!(
            err,
            RejectReason::InflightBytes { bytes: 200, cost: 100, limit: 250 }
        ));
        // Bytes are held until release, even after pop.
        let popped = q.pop().unwrap();
        assert_eq!(q.inflight_bytes(), 200);
        q.release(popped.cost_bytes);
        assert_eq!(q.inflight_bytes(), 100);
        q.admit(job(4, 4, Priority::Low)).unwrap();
    }
}
