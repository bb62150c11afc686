//! The process-wide memory accountant behind out-of-core proving.
//!
//! Three independent meters live here:
//!
//! * **Heap high-water mark.** [`TrackingAllocator`] wraps the system
//!   allocator and maintains the live heap byte count plus its peak since
//!   the last [`reset_peak`]. It is installed as the `#[global_allocator]`
//!   of every zkperf binary (registration lives in this crate because
//!   everything links `zkperf-pool`), so [`peak_live_bytes`] is an exact
//!   allocation high-water mark, not a sampled estimate. Overhead is two
//!   relaxed atomic updates per allocation.
//! * **Streamed bytes.** Chunked readers/writers call
//!   [`add_streamed_bytes`] for every chunk that crosses the process
//!   boundary, giving benches and the serving report a bandwidth axis to
//!   put next to the latency one.
//! * **The budget knob.** [`budget`] parses `ZKPERF_MEM_BUDGET` once
//!   (plain bytes or a `K`/`M`/`G` suffix, powers of 1024). Budget-aware
//!   stages — streaming MSM chunk sizing, the four-step NTT spill — treat
//!   `None` as "stay on the in-memory fast path". [`set_budget`]
//!   overrides the environment for tests and tools.
//!
//! The budget never *changes values*: every consumer picks between
//! execution strategies that produce identical results (the streaming MSM
//! folds to the same group elements, the flat NTT is pinned bit-identical
//! to the four-step one), so proofs stay byte-identical at any budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Live heap bytes allocated through the tracking allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Total bytes moved through chunked streaming I/O.
static STREAMED: AtomicU64 = AtomicU64::new(0);

/// The active budget in bytes; `u64::MAX` means "unset".
static BUDGET: AtomicU64 = AtomicU64::new(u64::MAX);

/// Whether [`BUDGET`] has been initialized (from env or [`set_budget`]).
static BUDGET_INIT: AtomicBool = AtomicBool::new(false);

/// A `#[global_allocator]` shim over [`System`] that meters live and peak
/// heap bytes. Registered once, in this crate's root.
pub struct TrackingAllocator;

impl TrackingAllocator {
    #[inline]
    fn on_alloc(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: defers entirely to `System` for the actual memory management;
// the bookkeeping is side-effect-only atomics.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Currently live heap bytes (allocations minus frees since process
/// start), as seen by the tracking allocator.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed) as u64
}

/// The allocation high-water mark since the last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed) as u64
}

/// Restarts the peak meter at the current live level, so per-stage peaks
/// can be measured back to back.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Records `n` bytes moved through a streaming reader/writer.
pub fn add_streamed_bytes(n: u64) {
    STREAMED.fetch_add(n, Ordering::Relaxed);
}

/// Total bytes streamed since process start (monotone; snapshot before
/// and after a stage to attribute a delta).
pub fn streamed_bytes() -> u64 {
    STREAMED.load(Ordering::Relaxed)
}

/// Parses a budget string: plain bytes, or a `K`/`M`/`G` suffix
/// (case-insensitive, powers of 1024). Returns `None` on malformed input.
pub fn parse_budget(raw: &str) -> Option<u64> {
    let s = raw.trim();
    if s.is_empty() {
        return None;
    }
    let (digits, shift) = match s.as_bytes()[s.len() - 1].to_ascii_uppercase() {
        b'K' => (&s[..s.len() - 1], 10),
        b'M' => (&s[..s.len() - 1], 20),
        b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let value: u64 = digits.trim().parse().ok()?;
    value.checked_shl(shift)
}

/// The active memory budget in bytes, or `None` for "unbudgeted" (the
/// in-memory fast paths). Initialized from `ZKPERF_MEM_BUDGET` on first
/// call; a malformed or zero value counts as unset (with a warning).
pub fn budget() -> Option<u64> {
    if !BUDGET_INIT.load(Ordering::Acquire) {
        let parsed = match std::env::var("ZKPERF_MEM_BUDGET") {
            Ok(raw) => match parse_budget(&raw) {
                Some(0) | None => {
                    eprintln!(
                        "zkperf: ignoring ZKPERF_MEM_BUDGET={raw:?} \
                         (expected bytes with optional K/M/G suffix)"
                    );
                    u64::MAX
                }
                Some(b) => b,
            },
            Err(_) => u64::MAX,
        };
        // A concurrent set_budget wins: only install the env value if no
        // explicit budget has landed in the meantime.
        if BUDGET_INIT
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            BUDGET.store(parsed, Ordering::Release);
        }
    }
    match BUDGET.load(Ordering::Acquire) {
        u64::MAX => None,
        b => Some(b),
    }
}

/// Overrides the budget for the rest of the process (tests and tools);
/// `None` restores the unbudgeted fast path.
pub fn set_budget(bytes: Option<u64>) {
    BUDGET.store(bytes.unwrap_or(u64::MAX), Ordering::Release);
    BUDGET_INIT.store(true, Ordering::Release);
}

/// The OS-reported peak resident set size (`VmHWM` from
/// `/proc/self/status`), in bytes. `None` off Linux or if the field is
/// missing. This is the whole-process number the operator pays for;
/// [`peak_live_bytes`] is the allocator's view of the same pressure.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_budget_suffixes() {
        assert_eq!(parse_budget("1024"), Some(1024));
        assert_eq!(parse_budget("64K"), Some(64 << 10));
        assert_eq!(parse_budget("32m"), Some(32 << 20));
        assert_eq!(parse_budget(" 2G "), Some(2 << 30));
        assert_eq!(parse_budget(""), None);
        assert_eq!(parse_budget("abc"), None);
        assert_eq!(parse_budget("12X"), None);
        assert_eq!(parse_budget("-5"), None);
    }

    #[test]
    fn set_budget_roundtrip() {
        set_budget(Some(123));
        assert_eq!(budget(), Some(123));
        set_budget(None);
        assert_eq!(budget(), None);
    }

    #[test]
    fn streamed_counter_is_monotone() {
        let before = streamed_bytes();
        add_streamed_bytes(4096);
        assert_eq!(streamed_bytes(), before + 4096);
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM present on Linux");
            assert!(rss > 0);
        }
    }
}
