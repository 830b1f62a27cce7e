//! Regression test: two flushes in flight that finish out of order.
//!
//! A flush must retire exactly the memtables it built, whichever flush
//! finishes first. Here a large memtable starts flushing, then a
//! one-entry memtable does; the small flush completes long before the
//! large one. When it lands, the large memtable must stay readable, and
//! WAL garbage collection must keep the log that still holds it.

use std::sync::{Arc, Mutex};

use hw_sim::{DeviceModel, HardwareEnv};
use lsm_kvs::options::Options;
use lsm_kvs::{Db, EventListener, FlushJobInfo, MemVfs, Vfs};

/// Records the entry count of every completed flush, in completion order.
#[derive(Default)]
struct FlushLog(Mutex<Vec<u64>>);

impl EventListener for FlushLog {
    fn on_flush_completed(&self, info: &FlushJobInfo) {
        self.0.lock().unwrap().push(info.num_entries);
    }
}

impl FlushLog {
    fn completed(&self) -> Vec<u64> {
        self.0.lock().unwrap().clone()
    }
}

fn opts() -> Options {
    Options {
        write_buffer_size: 64 << 20,
        max_background_flushes: 2,
        max_background_jobs: 8,
        disable_auto_compactions: true,
        ..Options::default()
    }
}

#[test]
fn out_of_order_flush_completion_keeps_in_flight_memtable_readable() {
    const KEYS: usize = 10_000;
    const GETS: usize = 20_000;
    let env = HardwareEnv::builder()
        .cores(4)
        .device(DeviceModel::nvme_ssd())
        .build_sim();
    let vfs = Arc::new(MemVfs::new());
    let log = Arc::new(FlushLog::default());
    let db = Db::builder(opts())
        .env(&env)
        .vfs(Arc::clone(&vfs) as Arc<dyn Vfs>)
        .listener(Arc::clone(&log) as Arc<dyn EventListener>)
        .open()
        .unwrap();

    let value = vec![b'v'; 1024];
    for i in 0..KEYS {
        db.put(format!("a-{i:06}").as_bytes(), &value).unwrap();
    }
    // Shrink the shared budget so each of the next two writes switches
    // the memtable out: the first takes the ~10 MiB memtable to a flush,
    // the second a one-entry memtable to a second, concurrent flush.
    db.set_options(&[("db_write_buffer_size", "1048576")])
        .unwrap();
    db.put(b"b-1", b"x").unwrap();
    db.put(b"b-2", b"x").unwrap();
    assert!(log.completed().is_empty(), "both flushes still in flight");
    assert_eq!(db.stats().immutable_memtables, 2);

    let mut misses = 0;
    let mut window_checked = false;
    for _ in 0..GETS {
        if db.get(b"a-000123").unwrap().as_deref() != Some(value.as_slice()) {
            misses += 1;
        }
        let completed = log.completed();
        if completed.len() == 1 && !window_checked {
            window_checked = true;
            assert_eq!(completed, vec![1], "the one-entry flush finishes first");
            // The large flush is still in flight: its memtable lives only
            // in memory and in its WAL. A store recovered from the files
            // as they are right now must still hold its keys.
            let recovered = Db::builder(opts())
                .env(&HardwareEnv::builder().build_sim())
                .vfs(Arc::new(vfs.fork()) as Arc<dyn Vfs>)
                .open()
                .unwrap();
            assert!(
                recovered.get(b"a-000123").unwrap().as_deref() == Some(value.as_slice()),
                "WAL GC deleted the log of a memtable that is still flushing"
            );
        }
    }
    assert!(window_checked, "the small flush never completed alone");
    assert_eq!(
        misses, 0,
        "{misses} of {GETS} gets missed an acknowledged key"
    );
    db.wait_background_idle().unwrap();
    assert_eq!(log.completed().len(), 2);
    assert!(db.get(b"a-000123").unwrap().as_deref() == Some(value.as_slice()));
}
