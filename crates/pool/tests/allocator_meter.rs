//! The tracking allocator's live/peak meter is process-wide, so its test
//! lives alone in this binary: no sibling test allocates or frees between
//! two of its reads.

use zkperf_pool::mem::{live_bytes, peak_live_bytes, reset_peak};

#[test]
fn allocator_tracks_live_and_peak() {
    reset_peak();
    let before = live_bytes();
    // black_box: an optimised build may otherwise elide the unused buffer.
    let buf = std::hint::black_box(vec![0u8; 1 << 20]);
    assert!(live_bytes() >= before + (1 << 20));
    assert!(peak_live_bytes() >= before + (1 << 20));
    drop(buf);
    assert!(live_bytes() < before + (1 << 20));
    // The peak survives the free until reset.
    assert!(peak_live_bytes() >= before + (1 << 20));
    reset_peak();
    assert!(peak_live_bytes() < before + (1 << 20));
}
