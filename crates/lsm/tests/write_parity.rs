//! Write-path parity between the two execution modes: one seeded,
//! single-threaded operation stream runs through a simulation-mode `Db`
//! and a real-concurrency `Db`, each on a [`FaultInjectionVfs`] over a
//! [`MemVfs`], and the two must be indistinguishable to a client: the
//! same Ok/Err sequence, the same reads (live and after a clean reopen),
//! and the same write counters — with `wal_bytes` equal to the bytes the
//! WAL files actually grew by on the VFS.
//!
//! Three one-shot faults are aimed at the write path with the background
//! quiescent, so the armed trigger hits the next write's WAL operation in
//! both modes alike:
//!
//! - a retryable append fault rotates the WAL and fails only that write;
//! - a retryable sync fault is re-driven and the write is acknowledged;
//! - a non-retryable append fault latches a sticky error that every later
//!   write returns.
//!
//! A fourth fault fails the flush build that a memtable switch starts:
//! the write that switched is committed either way and must be acked.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::{
    Db, FaultConfig, FaultInjectionVfs, MemVfs, RandomAccessFile, Ticker, Vfs, WritableFile,
    WriteBatch, WriteOptions,
};

/// xorshift64* — deterministic randomness for the stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// A [`Vfs`] wrapper counting the bytes successfully appended to WAL
/// (`*.log`) files, including logs the engine later deletes.
#[derive(Debug)]
struct WalCountingVfs {
    base: Arc<dyn Vfs>,
    wal_bytes: Arc<AtomicU64>,
}

struct CountingFile {
    inner: Box<dyn WritableFile>,
    wal_bytes: Option<Arc<AtomicU64>>,
}

impl WritableFile for CountingFile {
    fn append(&mut self, data: &[u8]) -> lsm_kvs::Result<()> {
        self.inner.append(data)?;
        if let Some(n) = &self.wal_bytes {
            n.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }
    fn sync(&mut self) -> lsm_kvs::Result<()> {
        self.inner.sync()
    }
    fn finish(&mut self) -> lsm_kvs::Result<()> {
        self.inner.finish()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Vfs for WalCountingVfs {
    fn create(&self, path: &str) -> lsm_kvs::Result<Box<dyn WritableFile>> {
        let inner = self.base.create(path)?;
        let wal_bytes = path.ends_with(".log").then(|| Arc::clone(&self.wal_bytes));
        Ok(Box::new(CountingFile { inner, wal_bytes }))
    }
    fn open(&self, path: &str) -> lsm_kvs::Result<Arc<dyn RandomAccessFile>> {
        self.base.open(path)
    }
    fn read_all(&self, path: &str) -> lsm_kvs::Result<Vec<u8>> {
        self.base.read_all(path)
    }
    fn delete(&self, path: &str) -> lsm_kvs::Result<()> {
        self.base.delete(path)
    }
    fn rename(&self, from: &str, to: &str) -> lsm_kvs::Result<()> {
        self.base.rename(from, to)
    }
    fn link(&self, from: &str, to: &str) -> lsm_kvs::Result<()> {
        self.base.link(from, to)
    }
    fn exists(&self, path: &str) -> bool {
        self.base.exists(path)
    }
    fn list(&self, prefix: &str) -> lsm_kvs::Result<Vec<String>> {
        self.base.list(prefix)
    }
    fn file_size(&self, path: &str) -> lsm_kvs::Result<u64> {
        self.base.file_size(path)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Sim,
    Real,
}

/// One operation of the stream.
#[derive(Clone, Debug)]
struct Op {
    /// `(key, Some(value))` puts, `(key, None)` deletes; more than one
    /// entry makes a multi-op batch.
    entries: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    sync: bool,
}

/// The seeded stream: single puts and deletes plus multi-op batches,
/// about a fifth of them synced.
fn stream(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|i| {
            let n = if rng.chance(0.2) { 2 + rng.below(4) as usize } else { 1 };
            let entries = (0..n)
                .map(|_| {
                    let key = format!("key-{:04}", rng.below(400)).into_bytes();
                    if rng.chance(0.15) {
                        (key, None)
                    } else {
                        let len = 10 + rng.below(150) as usize;
                        let fill = format!("v{seed:x}-{i}-").into_bytes();
                        (key, Some(fill.repeat(len / fill.len() + 1)[..len].to_vec()))
                    }
                })
                .collect();
            Op { entries, sync: rng.chance(0.2) }
        })
        .collect()
}

fn opts() -> Options {
    Options {
        // Small buffers so memtables switch, WALs roll over and flushes
        // run while the stream is in flight.
        write_buffer_size: 16 << 10,
        ..Options::default()
    }
}

/// One mode's database, its fault layer and its WAL byte counter.
struct Side {
    mode: Mode,
    fault: FaultInjectionVfs,
    vfs: Arc<dyn Vfs>,
    wal_bytes: Arc<AtomicU64>,
    db: Option<Db>,
    /// What an acknowledged write left behind, key by key.
    model: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl Side {
    fn new(mode: Mode) -> Side {
        let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
        let wal_bytes = Arc::new(AtomicU64::new(0));
        let vfs: Arc<dyn Vfs> = Arc::new(WalCountingVfs {
            base: Arc::new(fault.clone()),
            wal_bytes: Arc::clone(&wal_bytes),
        });
        let mut side = Side { mode, fault, vfs, wal_bytes, db: None, model: BTreeMap::new() };
        side.reopen();
        side
    }

    fn reopen(&mut self) {
        drop(self.db.take());
        let env = match self.mode {
            Mode::Sim => HardwareEnv::builder().build_sim(),
            Mode::Real => HardwareEnv::builder().build_wall(),
        };
        self.db = Some(Db::builder(opts()).env(&env).vfs(Arc::clone(&self.vfs)).open().unwrap());
    }

    fn db(&self) -> &Db {
        self.db.as_ref().expect("open")
    }

    /// Applies `op`, updating the model on success; returns whether the
    /// write was acknowledged.
    fn apply(&mut self, op: &Op) -> bool {
        let mut batch = WriteBatch::new();
        for (key, value) in &op.entries {
            match value {
                Some(v) => batch.put(key, v),
                None => batch.delete(key),
            };
        }
        let ok = self.db().write_opt(&WriteOptions { sync: op.sync }, batch).is_ok();
        if ok {
            for (key, value) in &op.entries {
                match value {
                    Some(v) => self.model.insert(key.clone(), v.clone()),
                    None => self.model.remove(key),
                };
            }
        }
        ok
    }

    /// Every acknowledged key reads back through `get` and the whole
    /// store scans back as the model.
    fn check_reads(&self, when: &str) {
        let db = self.db();
        for (key, value) in &self.model {
            assert_eq!(
                db.get(key).unwrap().as_deref(),
                Some(value.as_slice()),
                "{:?} {when}: get {}",
                self.mode,
                String::from_utf8_lossy(key)
            );
        }
        let scanned = db.scan(b"", usize::MAX).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            self.model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(scanned, want, "{:?} {when}: scan", self.mode);
    }

    fn ticker(&self, t: Ticker) -> u64 {
        self.db().stats().tickers.get(t)
    }
}

/// A one-shot fault aimed at the write right after the background goes
/// quiet.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The WAL append fails, retryably.
    RetryableAppend,
    /// The WAL sync of a synced write fails, retryably.
    RetryableSync,
    /// The WAL append fails for good.
    FatalAppend,
}

/// Runs `ops` through a sim and a real database, optionally arming
/// `fault` after `arm_at` operations, and checks the two agree on every
/// client-visible outcome. Returns both sides' Ok/Err sequences.
fn run_parity(ops: &[Op], fault: Option<(usize, Fault)>) -> Vec<bool> {
    let mut sides = [Side::new(Mode::Sim), Side::new(Mode::Real)];
    let mut outcomes: [Vec<bool>; 2] = [Vec::new(), Vec::new()];
    for (s, side) in sides.iter_mut().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if let Some((at, kind)) = fault {
                if i == at {
                    // Quiesce the background so the trigger lands on this
                    // write's WAL operations, not on a flush.
                    side.db().wait_background_idle().unwrap();
                    side.fault.set_config(FaultConfig {
                        errors_are_retryable: !matches!(kind, Fault::FatalAppend),
                        ..FaultConfig::default()
                    });
                    // Faultable ops of one write: the append, then (synced
                    // writes) the sync.
                    side.fault.fail_after_ops(match kind {
                        Fault::RetryableSync => 1,
                        Fault::RetryableAppend | Fault::FatalAppend => 0,
                    });
                }
            }
            outcomes[s].push(side.apply(op));
        }
        side.fault.clear_faults();
    }
    if let Some(i) = (0..ops.len()).find(|&i| outcomes[0][i] != outcomes[1][i]) {
        panic!(
            "Ok/Err sequence differs at op {i}: sim ok={}, real ok={}",
            outcomes[0][i], outcomes[1][i]
        );
    }

    for t in [
        Ticker::KeysWritten,
        Ticker::BytesWritten,
        Ticker::WalBytes,
        Ticker::WalWrites,
        Ticker::GroupCommits,
        Ticker::GroupCommitBatches,
    ] {
        assert_eq!(
            sides[0].ticker(t),
            sides[1].ticker(t),
            "ticker {t:?} differs between sim and real"
        );
    }
    for side in &sides {
        assert_eq!(
            side.ticker(Ticker::WalBytes),
            side.wal_bytes.load(Ordering::Relaxed),
            "{:?}: wal_bytes must equal the bytes appended to WAL files",
            side.mode
        );
    }
    assert!(sides[0].ticker(Ticker::FlushJobs) > 0, "the stream must switch memtables");
    assert_eq!(sides[0].model, sides[1].model);
    for side in &mut sides {
        side.check_reads("live");
        side.reopen();
        side.check_reads("after reopen");
    }
    outcomes[0].clone()
}

#[test]
fn thousand_puts_count_the_same_wal_bytes_and_groups() {
    let ops: Vec<Op> = (0..1000)
        .map(|i| Op {
            entries: vec![(format!("key-{i:04}").into_bytes(), Some(vec![b'x'; 16]))],
            sync: false,
        })
        .collect();
    let outcomes = run_parity(&ops, None);
    assert!(outcomes.iter().all(|ok| *ok));
}

#[test]
fn mixed_stream_agrees_without_faults() {
    let outcomes = run_parity(&stream(0x5EED_0001, 1200), None);
    assert!(outcomes.iter().all(|ok| *ok));
}

#[test]
fn retryable_append_fault_rotates_the_wal_and_fails_one_write() {
    let ops = stream(0x5EED_0002, 800);
    let outcomes = run_parity(&ops, Some((400, Fault::RetryableAppend)));
    let failed: Vec<usize> = (0..outcomes.len()).filter(|&i| !outcomes[i]).collect();
    assert_eq!(failed, vec![400], "only the faulted write fails");
}

#[test]
fn retryable_sync_fault_is_retried_and_the_write_acked() {
    let mut ops = stream(0x5EED_0003, 800);
    ops[400].sync = true;
    let outcomes = run_parity(&ops, Some((400, Fault::RetryableSync)));
    assert!(outcomes.iter().all(|ok| *ok), "a re-driven sync acknowledges the write");
}

#[test]
fn fatal_append_fault_fails_every_later_write() {
    let ops = stream(0x5EED_0004, 800);
    let outcomes = run_parity(&ops, Some((400, Fault::FatalAppend)));
    assert!(outcomes[..400].iter().all(|ok| *ok));
    assert!(outcomes[400..].iter().all(|ok| !*ok), "the fatal error is sticky");
}

#[test]
fn flush_fault_after_a_switch_does_not_fail_the_committed_write() {
    let ops: Vec<Op> = (0..400)
        .map(|i| Op {
            entries: vec![(format!("key-{i:04}").into_bytes(), Some(vec![b'x'; 100]))],
            sync: false,
        })
        .collect();
    // The write that switches the memtable is the same in both modes
    // (the switch depends only on sizes): find it with a sim dry run.
    let mut probe = Side::new(Mode::Sim);
    let switch_at = ops
        .iter()
        .position(|op| {
            probe.apply(op);
            probe.ticker(Ticker::FlushJobs) > 0
        })
        .expect("the stream switches memtables");
    for mode in [Mode::Sim, Mode::Real] {
        let mut side = Side::new(mode);
        for op in &ops[..switch_at] {
            assert!(side.apply(op));
        }
        // Faultable ops of the switching write: its WAL append, the new
        // WAL's create, then (sim) the flushed table's create.
        side.fault.fail_after_ops(2);
        assert!(side.apply(&ops[switch_at]), "{mode:?}: the committed write is acked");
        side.fault.clear_faults();
        for op in &ops[switch_at + 1..] {
            assert!(side.apply(op), "{mode:?}: the flush is claimed again");
        }
        side.db().wait_background_idle().unwrap();
        side.check_reads("live");
        side.reopen();
        side.check_reads("after reopen");
    }
}
