//! Allocation cost of long scans, measured with a counting global
//! allocator.
//!
//! A memtable scan cursor advances by re-seeking just past its current
//! entry, which copies that entry out of the map; the merge then copies
//! each emitted entry into its result row. This pins the per-entry
//! allocation count so a cursor regression (an extra copy or re-seek per
//! step) fails the test.
//!
//! This file holds exactly one test so nothing else in the binary
//! pollutes the allocator counters (integration tests in one binary run
//! concurrently).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Long memtable scans must not grow their per-entry allocation count.
#[test]
fn long_scan_allocations_are_bounded_per_entry() {
    use hw_sim::HardwareEnv;
    use lsm_kvs::options::Options;
    use lsm_kvs::Db;

    const N: usize = 4_000;

    let env = HardwareEnv::builder().build_sim();
    let opts = Options {
        // Everything stays in the memtable: the measurement is the
        // cursor, not block I/O.
        write_buffer_size: 64 << 20,
        ..Options::default()
    };
    let db = Db::builder(opts).env(&env).open().unwrap();
    for i in 0..N {
        db.put(format!("key-{i:08}").as_bytes(), b"twelve bytes").unwrap();
    }
    // Warm up allocator pools and any lazy init.
    let warm = db.scan(b"", N).unwrap();
    assert_eq!(warm.len(), N);
    drop(warm);

    let before = allocs();
    let entries = db.scan(b"", N).unwrap();
    let per_entry = (allocs() - before) as f64 / N as f64;
    assert_eq!(entries.len(), N);

    // 5 per entry: the cursor's re-seek bound plus its owned key and
    // value, and the result row's key and value. The remainder is the
    // result vec's growth and merge bookkeeping (5.0015 measured).
    assert!(per_entry <= 5.01, "memtable scan: {per_entry:.4} allocations/entry");
}
