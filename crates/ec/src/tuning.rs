//! Cache-aware window selection for Pippenger-style kernels.
//!
//! Both the bucket MSM ([`crate::msm`]) and the fixed-base batch
//! multiplier ([`crate::FixedBaseTable`]) trade additions against a table
//! whose live working set grows as `2^(c−1)` points. The classic
//! `c ≈ log n` rule ignores where that working set lands in the memory
//! hierarchy: once the bucket array spills the L2 (and later the LLC),
//! every scattered bucket access eats a miss and a wider window *loses*
//! time even though it does fewer field multiplications.
//!
//! The model here prices a window width `c` in field-multiplication
//! units — the one currency both costs share:
//!
//! ```text
//! windows(c) = ⌈(bits + 1) / c⌉
//! cost(c)    = windows(c) · [ n · (ADD_MULS + penalty(c))
//!                           + 2^(c−1) · REDUCE_MULS ]
//! penalty(c) = 0              if 2^(c−1)·point_bytes ≤ L2
//!              LLC_PENALTY    if it fits the LLC
//!              DRAM_PENALTY   otherwise
//! ```
//!
//! `ADD_MULS ≈ 6` is the shared-inversion batch-affine addition, and
//! `REDUCE_MULS ≈ 27` covers the two Jacobian additions of the per-bucket
//! running-sum reduction. The cache penalties convert an average miss
//! latency into equivalent multiplications (a ~20 ns 4-limb Montgomery
//! multiply vs ~12/45/90 ns L2/LLC/DRAM round trips, discounted for the
//! miss-level parallelism of the scattered stream).
//!
//! The cache sizes come from a one-time host probe
//! ([`zkperf_machine::host_caches`]), *not* from the simulated
//! [`zkperf_machine::CpuProfile`]: op streams must stay identical across
//! simulated CPUs.

use zkperf_machine::host_caches;

/// Field multiplications per batch-affine bucket accumulation.
const ADD_MULS: u64 = 6;

/// Field multiplications per bucket in the running-sum reduction
/// (one mixed add + one full Jacobian add ≈ 11 + 16).
const REDUCE_MULS: u64 = 27;

/// Extra mult-equivalents per bucket access once the live set spills L2.
const LLC_PENALTY: u64 = 2;

/// Extra mult-equivalents per bucket access once the live set spills LLC.
const DRAM_PENALTY: u64 = 6;

/// Widest window the model will pick; matches the fixed-base table limit.
const MAX_WINDOW: usize = 14;

/// Evaluates the cost model for one candidate width.
fn window_cost(
    c: usize,
    n: u64,
    scalar_bits: u64,
    point_bytes: u64,
    l2_bytes: u64,
    llc_bytes: u64,
) -> u64 {
    let windows = (scalar_bits + 1).div_ceil(c as u64);
    let buckets = 1u64 << (c - 1);
    let live_bytes = buckets * point_bytes;
    let penalty = if live_bytes <= l2_bytes {
        0
    } else if live_bytes <= llc_bytes {
        LLC_PENALTY
    } else {
        DRAM_PENALTY
    };
    windows * (n * (ADD_MULS + penalty) + buckets * REDUCE_MULS)
}

/// Picks the window width minimizing the model cost for `n` terms of
/// `scalar_bits`-bit scalars with `point_bytes`-sized table entries,
/// against the host cache hierarchy.
///
/// Deterministic per process: the host probe runs once, and the simulated
/// CPU profile is never consulted.
pub fn window_bits(n: usize, scalar_bits: usize, point_bytes: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let caches = host_caches();
    let mut best = (u64::MAX, 1usize);
    for c in 1..=MAX_WINDOW {
        let cost = window_cost(
            c,
            n as u64,
            scalar_bits as u64,
            point_bytes as u64,
            caches.l2.size_bytes as u64,
            caches.llc.size_bytes as u64,
        );
        // Strict `<` keeps the narrowest window among ties: smaller live
        // set, same modeled cost.
        if cost < best.0 {
            best = (cost, c);
        }
    }
    best.1
}

/// Smallest chunk the streaming planner will emit: below this the
/// per-chunk Pippenger setup (limb recoding, bucket scratch) dominates.
pub const MIN_STREAM_CHUNK: usize = 256;

/// Largest chunk the streaming planner will emit, regardless of budget:
/// past this the chunk stops fitting any reasonable LLC share and larger
/// chunks buy nothing.
pub const MAX_STREAM_CHUNK: usize = 1 << 22;

/// Derives the streaming-MSM chunk size (in points) from a memory budget.
///
/// The per-point transient working set of one chunk pass is priced at
/// `4·point_bytes + 4·scalar_bytes`: the decoded chunk buffer, the GLV
/// expansion to `[±P | ±φP]` plus sorted bucket scratch (≈ 3 extra point
/// copies), and the decomposed half-limb rows. A quarter of the budget is
/// granted to that transient set — the rest stays available for the
/// resident scalars, accumulators, and whatever else the stage holds —
/// and the result is clamped to `[MIN_STREAM_CHUNK, MAX_STREAM_CHUNK]`.
///
/// Pure function of its arguments: the chunking (and therefore the exact
/// fold sequence of the streaming path) is reproducible from the budget
/// alone.
pub fn stream_chunk_points(budget_bytes: u64, point_bytes: usize, scalar_bytes: usize) -> usize {
    let per_point = (4 * point_bytes + 4 * scalar_bytes).max(1) as u64;
    let chunk = (budget_bytes / 4) / per_point;
    (chunk as usize).clamp(MIN_STREAM_CHUNK, MAX_STREAM_CHUNK)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize, bits: usize) -> usize {
        // Route through the public chooser so the host probe path is
        // exercised too.
        window_bits(n, bits, 64)
    }

    #[test]
    fn window_grows_with_n() {
        let mut prev = 0;
        for log2 in [3usize, 5, 8, 10, 12, 14, 16, 18, 20] {
            let c = model(1 << log2, 254);
            assert!(c >= prev, "width must be monotone in n (log2 = {log2})");
            assert!((1..=MAX_WINDOW).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn tiny_inputs_get_narrow_windows() {
        assert_eq!(model(0, 254), 1);
        assert_eq!(model(1, 254), 1);
        assert!(model(16, 254) <= 4);
    }

    #[test]
    fn half_width_scalars_prefer_no_wider_windows() {
        // GLV halves the scalar bits; the window count scales with the bit
        // length, so the chosen width stays in the same neighbourhood as
        // the full-width choice (± the ⌈bits/c⌉ rounding granularity).
        for log2 in [10usize, 12, 14, 16] {
            let full = model(1 << log2, 254);
            let half = model(1 << log2, 131);
            assert!(half <= full + 1, "log2 = {log2}: {half} > {full} + 1");
        }
    }

    #[test]
    fn cache_pressure_caps_the_window() {
        // With a tiny L2/LLC the model must refuse giant bucket arrays
        // even at huge n.
        let cost_small_cache =
            |c: usize| window_cost(c, 1 << 22, 254, 64, 64 << 10, 256 << 10);
        let best = (1..=MAX_WINDOW)
            .min_by_key(|&c| cost_small_cache(c))
            .unwrap();
        let cost_big_cache =
            |c: usize| window_cost(c, 1 << 22, 254, 64, 2 << 20, 36 << 20);
        let best_big = (1..=MAX_WINDOW)
            .min_by_key(|&c| cost_big_cache(c))
            .unwrap();
        assert!(best <= best_big, "small caches must not pick wider windows");
    }

    #[test]
    fn stream_chunks_scale_with_budget_and_stay_clamped() {
        let at = |budget: u64| stream_chunk_points(budget, 72, 32);
        assert_eq!(at(0), MIN_STREAM_CHUNK);
        assert_eq!(at(1 << 10), MIN_STREAM_CHUNK);
        assert_eq!(at(u64::MAX / 8), MAX_STREAM_CHUNK);
        let small = at(32 << 20);
        let big = at(256 << 20);
        assert!(small < big, "{small} vs {big}");
        // 32 MiB must split a 2^16-point query into several chunks — the
        // check.sh memory-bounded smoke tier relies on this.
        assert!(small < 1 << 16, "{small}");
        assert!(small >= MIN_STREAM_CHUNK);
    }
}
