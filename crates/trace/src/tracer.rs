//! The per-thread tracer: session lifecycle, event entry points, regions.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::{EventSink, FunctionId, OpClass, OpCounts};

/// Process-wide count of live sessions (any thread).
///
/// This is the fast-path gate: when zero — the common case for
/// uninstrumented release runs — every event entry point reduces to one
/// relaxed atomic load and a never-taken, perfectly predicted branch,
/// without even touching thread-local storage. Only when some thread has a
/// session open does the per-thread `ACTIVE` flag get consulted, so
/// instrumented runs still observe exactly the op stream they always did.
static LIVE_SESSIONS: AtomicU32 = AtomicU32::new(0);

/// Per-region attribution collected during a session.
#[derive(Debug, Clone)]
pub struct RegionProfile {
    /// The region this profile describes.
    pub id: FunctionId,
    /// Micro-ops and memory traffic attributed to the region itself
    /// (excluding nested regions).
    pub counts: OpCounts,
    /// Wall-clock self time (excluding nested regions).
    pub self_time: Duration,
    /// Number of times the region was entered.
    pub calls: u64,
}

impl RegionProfile {
    fn new(id: FunctionId) -> Self {
        RegionProfile {
            id,
            counts: OpCounts::default(),
            self_time: Duration::ZERO,
            calls: 0,
        }
    }

    /// The name the region was registered with.
    pub fn name(&self) -> &'static str {
        crate::function_name(self.id)
    }
}

struct State {
    counts: OpCounts,
    regions: Vec<Option<RegionProfile>>,
    stack: Vec<FunctionId>,
    last_stamp: Instant,
    start: Instant,
    unattributed: Duration,
    sink: Option<Box<dyn EventSink>>,
}

impl State {
    fn new(sink: Option<Box<dyn EventSink>>) -> Self {
        let now = Instant::now();
        State {
            counts: OpCounts::default(),
            regions: Vec::new(),
            stack: Vec::new(),
            last_stamp: now,
            start: now,
            unattributed: Duration::ZERO,
            sink,
        }
    }

    fn slot(&mut self, id: FunctionId) -> &mut RegionProfile {
        let idx = id.index();
        if idx >= self.regions.len() {
            self.regions.resize_with(idx + 1, || None);
        }
        self.regions[idx].get_or_insert_with(|| RegionProfile::new(id))
    }

    /// Attribute wall time since the last transition to the innermost open
    /// region (or to the unattributed bucket) and reset the stamp.
    fn settle_time(&mut self) {
        let now = Instant::now();
        let elapsed = now - self.last_stamp;
        self.last_stamp = now;
        match self.stack.last().copied() {
            Some(top) => self.slot(top).self_time += elapsed,
            None => self.unattributed += elapsed,
        }
    }
}

thread_local! {
    static ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Whether a tracing session is active on this thread.
///
/// Instrumented code may use this to skip preparing expensive event
/// arguments; the event entry points already check it internally. When no
/// session exists anywhere in the process this is a single relaxed atomic
/// load plus a predictable branch — the zero-cost fast path that lets
/// instrumentation stay compiled into release builds.
#[inline(always)]
pub fn is_active() -> bool {
    LIVE_SESSIONS.load(Ordering::Relaxed) != 0 && ACTIVE.with(|a| a.get())
}

#[inline(always)]
fn with_state(f: impl FnOnce(&mut State)) {
    if !is_active() {
        return;
    }
    with_state_slow(f);
}

/// The instrumented-run path, outlined and marked cold so the fast-path
/// check above inlines into callers as a bare load-test-return.
#[cold]
#[inline(never)]
fn with_state_slow(f: impl FnOnce(&mut State)) {
    STATE.with(|s| {
        if let Some(state) = s.borrow_mut().as_mut() {
            f(state);
        }
    });
}

/// An active tracing session on the current thread.
///
/// Only one session may be active per thread; [`Session::begin`] panics if
/// one already is. Dropping the session without calling
/// [`finish`](Session::finish) discards its measurements.
///
/// A session records what reaches the hooks: a kernel that computes on raw
/// words past them (the eight-lane bodies of `zkperf_ff::lanes`) reports
/// nothing, so a session opened over one records the scalar work around it
/// and none of the lanes' own. `zkperf_core::measure_stage` switches the
/// lanes off for its session; any other caller that wants the scalar op
/// stream does the same (`zkperf_ff::lanes::with_scalar_body`).
///
/// # Examples
///
/// ```
/// use zkperf_trace as trace;
/// let session = trace::Session::begin();
/// trace::compute(7);
/// let report = session.finish();
/// assert_eq!(report.counts.compute_uops, 7);
/// ```
#[derive(Debug)]
pub struct Session {
    finished: bool,
}

/// Everything a [`Session`] measured.
#[derive(Debug)]
pub struct SessionReport {
    /// Session-wide totals.
    pub counts: OpCounts,
    /// Wall-clock duration of the session.
    pub wall_time: Duration,
    /// Wall time spent outside any region.
    pub unattributed_time: Duration,
    /// Per-region attribution, in region-id order.
    pub regions: Vec<RegionProfile>,
    /// The sink installed at [`Session::begin_with_sink`], returned so the
    /// caller can extract what the sink accumulated.
    pub sink: Option<Box<dyn EventSink>>,
}

impl std::fmt::Debug for Box<dyn EventSink> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Box<dyn EventSink>")
    }
}

impl Session {
    /// Starts a counting-only session (no sink).
    ///
    /// # Panics
    ///
    /// Panics if a session is already active on this thread.
    pub fn begin() -> Session {
        Self::start(None)
    }

    /// Starts a session that forwards every event to `sink`.
    ///
    /// # Panics
    ///
    /// Panics if a session is already active on this thread.
    pub fn begin_with_sink(sink: Box<dyn EventSink>) -> Session {
        Self::start(Some(sink))
    }

    fn start(sink: Option<Box<dyn EventSink>>) -> Session {
        STATE.with(|s| {
            let mut slot = s.borrow_mut();
            assert!(
                slot.is_none(),
                "a tracing session is already active on this thread"
            );
            *slot = Some(State::new(sink));
        });
        ACTIVE.with(|a| a.set(true));
        LIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        Session { finished: false }
    }

    /// Ends the session and returns its measurements.
    pub fn finish(mut self) -> SessionReport {
        self.finished = true;
        ACTIVE.with(|a| a.set(false));
        LIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
        let mut state = STATE
            .with(|s| s.borrow_mut().take())
            .expect("session state missing at finish");
        // Close the books on any still-open regions' elapsed time.
        state.settle_time();
        SessionReport {
            counts: state.counts,
            wall_time: state.last_stamp - state.start,
            unattributed_time: state.unattributed,
            regions: state.regions.into_iter().flatten().collect(),
            sink: state.sink,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.finished {
            ACTIVE.with(|a| a.set(false));
            STATE.with(|s| *s.borrow_mut() = None);
            LIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl SessionReport {
    /// The profile of the region registered as `name`, if it ever ran.
    pub fn region(&self, name: &str) -> Option<&RegionProfile> {
        self.regions.iter().find(|r| r.name() == name)
    }
}

macro_rules! retire {
    ($state:ident, $class:expr, $uops:expr, $field:ident) => {{
        $state.counts.$field += u64::from($uops);
        if let Some(top) = $state.stack.last().copied() {
            $state.slot(top).counts.$field += u64::from($uops);
        }
        if let Some(sink) = $state.sink.as_mut() {
            sink.retire($class, $uops);
        }
    }};
}

/// Micro-ops this thread's session has retired so far (0 with no session
/// open). Reading it emits nothing.
pub fn retired_uops() -> u64 {
    let mut uops = 0;
    with_state(|s| uops = s.counts.total_uops());
    uops
}

/// Retires `uops` compute micro-ops.
#[inline]
pub fn compute(uops: u32) {
    with_state(|s| retire!(s, OpClass::Compute, uops, compute_uops));
}

/// Retires `uops` control-flow micro-ops.
#[inline]
pub fn control(uops: u32) {
    with_state(|s| retire!(s, OpClass::Control, uops, control_uops));
}

/// Retires `uops` data-movement micro-ops (register traffic; loads and
/// stores are reported separately and add their own data micro-op).
#[inline]
pub fn data_move(uops: u32) {
    with_state(|s| retire!(s, OpClass::Data, uops, data_uops));
}

fn mem_common(state: &mut State, bytes: u32, is_load: bool) {
    state.counts.data_uops += 1;
    if is_load {
        state.counts.loads += 1;
        state.counts.load_bytes += u64::from(bytes);
    } else {
        state.counts.stores += 1;
        state.counts.store_bytes += u64::from(bytes);
    }
    if let Some(top) = state.stack.last().copied() {
        let slot = state.slot(top);
        slot.counts.data_uops += 1;
        if is_load {
            slot.counts.loads += 1;
            slot.counts.load_bytes += u64::from(bytes);
        } else {
            slot.counts.stores += 1;
            slot.counts.store_bytes += u64::from(bytes);
        }
    }
}

/// Reports a load of `bytes` bytes at `addr`.
#[inline]
pub fn load(addr: usize, bytes: u32) {
    with_state(|s| {
        mem_common(s, bytes, true);
        if let Some(sink) = s.sink.as_mut() {
            sink.retire(OpClass::Data, 0);
            sink.load(addr, bytes);
        }
    });
}

/// Reports a store of `bytes` bytes at `addr`.
#[inline]
pub fn store(addr: usize, bytes: u32) {
    with_state(|s| {
        mem_common(s, bytes, false);
        if let Some(sink) = s.sink.as_mut() {
            sink.store(addr, bytes);
        }
    });
}

/// Reports a conditional branch at static site `site` resolved as `taken`.
///
/// Also retires one control micro-op.
#[inline]
pub fn branch(site: u64, taken: bool) {
    with_state(|s| {
        s.counts.branches += 1;
        retire!(s, OpClass::Control, 1u32, control_uops);
        if let Some(sink) = s.sink.as_mut() {
            sink.branch(site, taken);
        }
    });
}

/// Reports a heap allocation of `bytes` bytes.
///
/// Attributed to the hot-function table under the innermost region; callers
/// usually wrap sizeable allocations in a `malloc` region so the code
/// analysis surfaces them the way VTune surfaces `malloc`.
#[inline]
pub fn alloc(bytes: usize) {
    with_state(|s| {
        s.counts.allocs += 1;
        s.counts.alloc_bytes += bytes as u64;
        if let Some(top) = s.stack.last().copied() {
            let slot = s.slot(top);
            slot.counts.allocs += 1;
            slot.counts.alloc_bytes += bytes as u64;
        }
        // Allocator bookkeeping retires a mix of all three classes.
        retire!(s, OpClass::Compute, 8u32, compute_uops);
        retire!(s, OpClass::Control, 6u32, control_uops);
        retire!(s, OpClass::Data, 10u32, data_uops);
        if let Some(sink) = s.sink.as_mut() {
            sink.alloc(bytes);
        }
    });
}

/// Reports a bulk copy of `bytes` bytes from `src` to `dst`.
///
/// Retires data micro-ops proportional to the copy size (one per 8-byte
/// word) and forwards the copy to the sink so the cache model sees both
/// streams.
#[inline]
pub fn memcpy(dst: usize, src: usize, bytes: usize) {
    with_state(|s| {
        s.counts.memcpys += 1;
        s.counts.memcpy_bytes += bytes as u64;
        let words = (bytes as u64).div_ceil(8);
        let words32 = u32::try_from(words.min(u64::from(u32::MAX))).expect("clamped");
        if let Some(top) = s.stack.last().copied() {
            let slot = s.slot(top);
            slot.counts.memcpys += 1;
            slot.counts.memcpy_bytes += bytes as u64;
        }
        retire!(s, OpClass::Data, words32, data_uops);
        retire!(s, OpClass::Control, (words32 / 16).max(1), control_uops);
        if let Some(sink) = s.sink.as_mut() {
            sink.memcpy(dst, src, bytes);
        }
    });
}

/// Low-level region entry; prefer [`region_profile`] for RAII scoping.
#[inline]
pub fn enter(id: FunctionId) {
    with_state(|s| {
        s.settle_time();
        s.slot(id).calls += 1;
        s.stack.push(id);
        if let Some(sink) = s.sink.as_mut() {
            sink.enter_region(id);
        }
    });
}

/// Low-level region exit; must pair with [`enter`].
#[inline]
pub fn exit() {
    with_state(|s| {
        s.settle_time();
        s.stack.pop();
        if let Some(sink) = s.sink.as_mut() {
            sink.exit_region();
        }
    });
}

/// RAII guard produced by [`region_profile`]; leaving the scope exits the
/// region if the guard entered one.
#[derive(Debug)]
pub struct RegionGuard {
    /// Whether a session was active when the guard was made, so a frame
    /// was pushed for it. A guard made before a session began and dropped
    /// inside it must not pop a frame it never pushed.
    entered: bool,
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        if self.entered {
            exit();
        }
    }
}

/// Enters the named region for the current scope.
///
/// # Examples
///
/// ```
/// use zkperf_trace as trace;
/// let session = trace::Session::begin();
/// {
///     let _g = trace::region_profile("bigint");
///     trace::compute(100);
/// }
/// let report = session.finish();
/// assert_eq!(report.region("bigint").unwrap().counts.compute_uops, 100);
/// ```
///
/// With no session on this thread the name is not even interned: interning
/// takes the process-wide registry lock, and instrumented call sites sit
/// inside per-element loops (`field_inverse`, `poseidon`).
#[inline]
pub fn region_profile(name: &'static str) -> RegionGuard {
    if !is_active() {
        return RegionGuard { entered: false };
    }
    enter(crate::function_id(name));
    RegionGuard { entered: true }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_without_session_are_noops() {
        assert!(!is_active());
        compute(10);
        load(0x100, 8);
        branch(1, true);
        // Nothing to assert beyond "did not panic": no session exists.
    }

    #[test]
    fn session_counts_and_regions() {
        let session = Session::begin();
        assert!(is_active());
        compute(5);
        {
            let _g = region_profile("tracer_test_inner");
            compute(7);
            store(0x2000, 32);
            branch(42, false);
        }
        data_move(3);
        let running = retired_uops();
        assert_eq!(retired_uops(), running, "reading retires nothing");
        let report = session.finish();
        assert!(!is_active());
        assert_eq!(running, report.counts.total_uops());
        assert_eq!(retired_uops(), 0);
        assert_eq!(report.counts.compute_uops, 12);
        assert_eq!(report.counts.stores, 1);
        assert_eq!(report.counts.store_bytes, 32);
        assert_eq!(report.counts.branches, 1);
        // store adds 1 data uop, explicit data_move adds 3.
        assert_eq!(report.counts.data_uops, 4);
        let inner = report.region("tracer_test_inner").unwrap();
        assert_eq!(inner.counts.compute_uops, 7);
        assert_eq!(inner.counts.stores, 1);
        assert_eq!(inner.calls, 1);
    }

    #[test]
    fn region_profile_without_a_session_never_reaches_the_registry() {
        assert!(!is_active());
        {
            let _g = region_profile("tracer_test_never_interned");
        }
        // The registry lock is only taken to intern; a name that was never
        // interned shows the lock was never taken.
        assert!(!crate::region::is_registered("tracer_test_never_interned"));
        let session = Session::begin();
        {
            let _g = region_profile("tracer_test_never_interned");
        }
        drop(session);
        assert!(crate::region::is_registered("tracer_test_never_interned"));
    }

    #[test]
    fn guard_from_before_the_session_pops_nothing() {
        let early = region_profile("tracer_test_early_guard");
        let session = Session::begin();
        let _outer = region_profile("tracer_test_early_outer");
        compute(1);
        // Dropped inside the session: `outer` must stay the open region.
        drop(early);
        compute(2);
        let report = session.finish();
        let outer = report.region("tracer_test_early_outer").unwrap();
        assert_eq!(outer.counts.compute_uops, 3);
        assert!(report.region("tracer_test_early_guard").is_none());
    }

    #[test]
    fn nested_regions_attribute_to_innermost() {
        let session = Session::begin();
        {
            let _outer = region_profile("tracer_test_outer");
            compute(1);
            {
                let _inner = region_profile("tracer_test_nested");
                compute(10);
            }
            compute(2);
        }
        let report = session.finish();
        assert_eq!(
            report
                .region("tracer_test_outer")
                .unwrap()
                .counts
                .compute_uops,
            3
        );
        assert_eq!(
            report
                .region("tracer_test_nested")
                .unwrap()
                .counts
                .compute_uops,
            10
        );
    }

    #[test]
    fn sink_receives_events() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Tally {
            loads: usize,
            branches: usize,
            regions: usize,
        }
        struct Recorder(Rc<RefCell<Tally>>);
        impl EventSink for Recorder {
            fn load(&mut self, _addr: usize, _bytes: u32) {
                self.0.borrow_mut().loads += 1;
            }
            fn branch(&mut self, _site: u64, _taken: bool) {
                self.0.borrow_mut().branches += 1;
            }
            fn enter_region(&mut self, _id: FunctionId) {
                self.0.borrow_mut().regions += 1;
            }
        }
        let tally = Rc::new(RefCell::new(Tally::default()));
        let session = Session::begin_with_sink(Box::new(Recorder(Rc::clone(&tally))));
        load(0x10, 8);
        load(0x20, 8);
        branch(7, true);
        {
            let _g = region_profile("tracer_test_sink");
        }
        let report = session.finish();
        drop(report);
        let tally = tally.borrow();
        assert_eq!(tally.loads, 2);
        assert_eq!(tally.branches, 1);
        assert_eq!(tally.regions, 1);
    }

    #[test]
    fn memcpy_retires_word_granular_data_uops() {
        let session = Session::begin();
        memcpy(0x100, 0x200, 64);
        let report = session.finish();
        assert_eq!(report.counts.memcpys, 1);
        assert_eq!(report.counts.memcpy_bytes, 64);
        assert_eq!(report.counts.data_uops, 8);
    }

    #[test]
    fn dropped_session_allows_a_new_one() {
        {
            let _abandoned = Session::begin();
            compute(5);
            // dropped without finish(): measurements discarded
        }
        assert!(!is_active());
        let session = Session::begin();
        compute(2);
        let report = session.finish();
        assert_eq!(report.counts.compute_uops, 2);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn nested_sessions_panic() {
        let _outer = Session::begin();
        let _inner = Session::begin();
    }
}
