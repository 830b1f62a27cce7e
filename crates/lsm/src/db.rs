//! The database: ties memtables, WAL, levels, caches, background jobs,
//! and the hardware model together.
//!
//! # Execution model
//!
//! The engine is *discrete-event timed*: every foreground operation
//! advances the shared [`hw_sim::Clock`] by its modeled cost (CPU,
//! device queueing, stalls), and background jobs (flush/compaction) are
//! executed eagerly but their *effects* are installed at a computed
//! completion instant via an event queue. Device channels and CPU cores
//! are shared with foreground work, so background pressure shows up as
//! foreground tail latency — the phenomenon LSM tuning fights.
//!
//! With a wall [`hw_sim::Clock`] the engine switches to *real-concurrency
//! mode* instead: writers coalesce through a group-commit queue (one
//! leader appends and syncs the WAL for the whole group), flushes and
//! compactions run on a pool of background OS threads honoring
//! `max_background_jobs`, and reads traverse immutable snapshots
//! (`Arc`ed memtables and versions) without holding the state mutex for
//! the lookup. The mode is selected once at [`Db::builder`] from the
//! environment's clock.
//!
//! Both modes run every flush, compaction and FIFO drop through the same
//! claim -> build -> install steps (`claim_flush`/`claim_compaction`,
//! `DbInner::build`, `DbInner::install`). Only the timing differs: sim
//! mode builds at once and queues the install at the cost model's
//! completion instant, real mode builds on a worker thread and installs
//! when the build returns.

use std::collections::BinaryHeap;
use std::sync::{Arc, Weak};
use std::time::Duration;

use hw_sim::{AccessPattern, HardwareEnv, MemoryUser, SimDuration, SimTime};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::batch::WriteBatch;
use crate::cache::{BlockCache, BlockKey, CacheStats, TableCache};
use crate::compaction::{
    level_targets, pending_compaction_bytes, pick_compaction, run_compaction, CompactionJobOutput,
    CompactionPick,
};
use crate::error::{Error, Result};
use crate::filter::{split_ttl_value, ttl_expired, FilterContext, TtlFilter};
use crate::flush::{build_l0_table, sst_file_name, FlushOutput};
use crate::memtable::{MemTable, MemTableCursor, MemTableGet};
use crate::options::{ini, Options};
use crate::listener::{
    CompactionJobInfo, EventListener, FlushJobInfo, StallConditionsChanged,
};
use crate::runtime::{BgShared, PreparedWrite, Runtime};
use crate::sstable::block::{Block, OwnedBlockIter};
use crate::sstable::compress::decompress_cpu_cost;
use crate::sstable::table::{FinishedTable, TableConfig, TableReader};
use crate::stats::{HistogramKind, Statistics, Ticker, TickerSnapshot};
use crate::version::CompactionLevelStats;
use crate::types::{internal_key_cmp, FileNumber, SequenceNumber, ValueType};
use crate::version::{FileMetadata, Version, VersionEdit};
use crate::vfs::{MemVfs, NamespaceVfs, Vfs};
use crate::wal::{replay_wal, WalWriter};
use crate::write_controller::{WriteController, WritePressure, WriteRegime};

const CURRENT_FILE: &str = "CURRENT";
const CURRENT_TMP_FILE: &str = "CURRENT.tmp";
pub(crate) const OPTIONS_FILE: &str = "OPTIONS";
const OPTIONS_TMP_FILE: &str = "OPTIONS.tmp";

/// Encodes a [`WriteRegime`] for the atomic transition tracker.
fn regime_code(r: WriteRegime) -> u8 {
    match r {
        WriteRegime::Normal => 0,
        WriteRegime::Delayed => 1,
        WriteRegime::Stopped => 2,
    }
}

fn regime_from_code(code: u8) -> WriteRegime {
    match code {
        1 => WriteRegime::Delayed,
        2 => WriteRegime::Stopped,
        _ => WriteRegime::Normal,
    }
}

fn wal_file_name(number: u64) -> String {
    format!("{number:06}.log")
}

fn manifest_file_name(number: u64) -> String {
    format!("MANIFEST-{number:06}")
}

/// Atomically points `CURRENT` at `manifest_name`: write a temp file,
/// sync it, then rename over. A crash at any point leaves either the old
/// or the new pointer — never a torn/empty `CURRENT`.
fn write_current(vfs: &dyn Vfs, manifest_name: &str) -> Result<()> {
    let mut tmp = vfs.create(CURRENT_TMP_FILE)?;
    tmp.append(manifest_name.as_bytes())?;
    tmp.sync()?;
    tmp.finish()?;
    drop(tmp);
    vfs.rename(CURRENT_TMP_FILE, CURRENT_FILE)
}

/// Atomically rewrites the persisted `OPTIONS` file with the same
/// tmp + sync + rename discipline as [`write_current`]: a crash at any
/// point leaves either the old or the new config — never a torn file.
pub(crate) fn write_options_file(vfs: &dyn Vfs, opts: &Options) -> Result<()> {
    let mut tmp = vfs.create(OPTIONS_TMP_FILE)?;
    tmp.append(ini::to_ini(opts).as_bytes())?;
    tmp.sync()?;
    tmp.finish()?;
    drop(tmp);
    vfs.rename(OPTIONS_TMP_FILE, OPTIONS_FILE)
}

/// Foreground/background cost constants (reference-core nanoseconds).
///
/// These calibrate the simulation to `db_bench`-like magnitudes; they are
/// deliberately public so experiments can ablate them.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed CPU per write operation.
    pub write_base_cpu: SimDuration,
    /// CPU per byte inserted into the memtable.
    pub write_per_byte_cpu_ns: f64,
    /// Fixed CPU per WAL record plus per-byte cost.
    pub wal_record_cpu: SimDuration,
    /// CPU per byte appended to the WAL buffer.
    pub wal_per_byte_cpu_ns: f64,
    /// Fixed CPU per read operation.
    pub get_base_cpu: SimDuration,
    /// CPU per memtable probed.
    pub memtable_probe_cpu: SimDuration,
    /// CPU per bloom filter check.
    pub bloom_check_cpu: SimDuration,
    /// CPU per index-block seek.
    pub index_seek_cpu: SimDuration,
    /// CPU per block-cache hit (hash + seek in block).
    pub cache_hit_cpu: SimDuration,
    /// CPU per entry stepped during scans.
    pub scan_entry_cpu: SimDuration,
    /// Flush throughput at reference speed (bytes/sec of raw data).
    pub flush_cpu_bps: f64,
    /// Compaction merge throughput (bytes/sec of raw data).
    pub compaction_cpu_bps: f64,
    /// CPU per entry merged in compaction.
    pub compaction_entry_cpu: SimDuration,
    /// Dirty-page threshold that triggers an OS writeback burst when
    /// `bytes_per_sync`/`wal_bytes_per_sync` are zero.
    pub os_writeback_burst: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            write_base_cpu: SimDuration::from_nanos(900),
            write_per_byte_cpu_ns: 1.2,
            wal_record_cpu: SimDuration::from_nanos(250),
            wal_per_byte_cpu_ns: 0.3,
            get_base_cpu: SimDuration::from_nanos(500),
            memtable_probe_cpu: SimDuration::from_nanos(300),
            bloom_check_cpu: SimDuration::from_nanos(120),
            index_seek_cpu: SimDuration::from_nanos(200),
            cache_hit_cpu: SimDuration::from_nanos(250),
            scan_entry_cpu: SimDuration::from_nanos(180),
            flush_cpu_bps: 350e6,
            compaction_cpu_bps: 300e6,
            compaction_entry_cpu: SimDuration::from_nanos(100),
            os_writeback_burst: 64 << 20,
        }
    }
}

// ---------------------------------------------------------------------------
// Background events
// ---------------------------------------------------------------------------

/// A built background job queued until the instant the cost model says
/// it completes; [`DbInner::pump_events`] installs it then.
struct Event {
    at: SimTime,
    seq: u64,
    job: BuiltJob,
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("at", &self.at)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: BinaryHeap pops the *earliest* event.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
struct ImmEntry {
    mem: Arc<MemTable>,
    wal_number: u64,
    flushing: bool,
}

#[derive(Debug)]
struct DbState {
    mem: Arc<MemTable>,
    mem_wal_number: u64,
    imm: Vec<ImmEntry>,
    version: Arc<Version>,
    wal: Option<WalWriter>,
    wals_on_disk: Vec<u64>,
    manifest: WalWriter,
    next_file: u64,
    last_seq: SequenceNumber,
    events: BinaryHeap<Event>,
    event_seq: u64,
    running_flushes: usize,
    running_compactions: usize,
    pending_compaction_bytes: u64,
    dirty_wal_bytes: u64,
    writes_since_account: u64,
    /// Real mode: input SSTs replaced by a compaction but possibly still
    /// referenced by readers holding an older `Arc<Version>`. Physically
    /// deleted once their only remaining reference is this list.
    obsolete_files: Vec<Arc<FileMetadata>>,
}

/// What one read sees: the memtables and version captured together
/// under the state lock, and the sequence the read runs at.
struct ReadView {
    mem: Arc<MemTable>,
    imm: Vec<Arc<MemTable>>,
    version: Arc<Version>,
    snapshot: SequenceNumber,
}

/// Aggregate statistics exposed for prompts, reports, and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbStats {
    /// Ticker counters.
    pub tickers: TickerSnapshot,
    /// `(files, bytes)` per level.
    pub levels: Vec<(usize, u64)>,
    /// Current memtable + immutable memtable bytes.
    pub memtable_bytes: u64,
    /// Immutable memtables waiting to flush.
    pub immutable_memtables: usize,
    /// Block cache statistics.
    pub block_cache: CacheStats,
    /// Block cache capacity in bytes.
    pub block_cache_capacity: u64,
    /// Estimated pending compaction debt in bytes.
    pub pending_compaction_bytes: u64,
    /// Background jobs currently in flight.
    pub running_background_jobs: usize,
    /// Last sequence number assigned.
    pub last_sequence: SequenceNumber,
    /// Background jobs that hit a transient error and were retried
    /// instead of aborting.
    pub background_retries: u64,
    /// WAL files rotated after a transient append failure.
    pub wal_rotations: u64,
    /// Manifest append/sync operations re-driven after a transient error.
    pub manifest_resyncs: u64,
    /// WAL syncs re-driven after a transient error.
    pub wal_sync_retries: u64,
}

impl DbStats {
    /// Write amplification so far: total bytes written by flush+compaction
    /// per byte of user data written.
    pub fn write_amplification(&self) -> f64 {
        let user = self.tickers.get(Ticker::BytesWritten).max(1);
        let physical = self.tickers.get(Ticker::FlushBytesWritten)
            + self.tickers.get(Ticker::CompactionBytesWritten);
        physical as f64 / user as f64
    }
}

/// One key/value pair returned by a scan.
pub type ScanResult = Vec<(Vec<u8>, Vec<u8>)>;

/// Per-write durability options (RocksDB `WriteOptions` analog).
#[derive(Debug, Clone, Default)]
pub struct WriteOptions {
    /// Block until the WAL is durably synced before acknowledging the
    /// write. In real-concurrency mode the sync is amortized across the
    /// whole commit group, which is where multi-threaded write
    /// throughput comes from.
    pub sync: bool,
}

impl WriteOptions {
    /// Options requesting a durable (synced) write.
    pub fn synced() -> Self {
        WriteOptions { sync: true }
    }
}

/// Per-read options (RocksDB `ReadOptions` analog), consumed by
/// [`Db::get_opt`] and [`Db::scan_opt`]. Plain [`Db::get`]/[`Db::scan`]
/// use the defaults.
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions {
    /// Verify block checksums on every read that misses the block cache.
    /// Disabling trades integrity checking for CPU.
    pub verify_checksums: bool,
    /// Insert blocks read on a cache miss into the block cache. Disable
    /// for one-off scans that would wipe the working set.
    pub fill_cache: bool,
    /// Read as of this sequence number instead of the latest visible
    /// one. Clamped to the currently visible watermark; `None` reads the
    /// newest visible state.
    pub snapshot_seq: Option<SequenceNumber>,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            verify_checksums: true,
            fill_cache: true,
            snapshot_seq: None,
        }
    }
}

/// Upper bound on batches coalesced into one commit group.
const MAX_GROUP_BATCHES: usize = 128;

/// How long a stalled real-mode writer waits before giving up.
const REAL_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Wait slice for foreground threads blocked on background progress.
const REAL_WAIT_SLICE: Duration = Duration::from_millis(20);

/// Bounded retries for manifest append/sync on transient errors.
const MANIFEST_RETRIES: u32 = 5;

/// Bounded re-sync attempts for an acknowledged-append WAL sync.
const WAL_SYNC_RETRIES: u32 = 3;

struct DbInner {
    /// Current effective options. Swapped wholesale (never mutated in
    /// place) by [`Db::set_options`]; readers grab an `Arc` snapshot so a
    /// concurrent retune can never show them a half-applied config.
    opts: RwLock<Arc<Options>>,
    cost: CostModel,
    env: HardwareEnv,
    vfs: Arc<dyn Vfs>,
    state: Mutex<DbState>,
    /// `Some` when this tree is one shard of a [`ShardedDb`](crate::ShardedDb):
    /// shared block cache, global job budget, cross-shard stall debt.
    shard: Option<crate::shard::ShardCtx>,
    block_cache: Option<Arc<BlockCache>>,
    table_cache: TableCache<TableReader>,
    stats: Statistics,
    listeners: Vec<Arc<dyn EventListener>>,
    /// Last stall regime reported to listeners (encoded via
    /// [`regime_code`]); transitions are deduplicated on this value.
    last_regime: std::sync::atomic::AtomicU8,
    /// Clock position when the database was opened (drives uptime).
    opened_at: SimTime,
    /// Rebuilt from the new options by [`Db::set_options`] so stall
    /// decisions follow the tuned triggers without reopen.
    controller: RwLock<WriteController>,
    /// `Some` in real-concurrency (wall clock) mode, `None` in simulation.
    runtime: Option<Runtime>,
    /// Number of live user-facing [`Db`] handles (workers hold `Weak`s).
    handles: std::sync::atomic::AtomicUsize,
    /// Background jobs retried (parked, not aborted) on transient errors.
    bg_retries: std::sync::atomic::AtomicU64,
    /// WAL rotations after transient append failures.
    wal_rotations: std::sync::atomic::AtomicU64,
    /// Manifest append/sync attempts re-driven on transient errors.
    manifest_resyncs: std::sync::atomic::AtomicU64,
    /// Acknowledged-append WAL syncs re-driven on transient errors.
    wal_sync_retries: std::sync::atomic::AtomicU64,
    /// `Some` when a replication layer observes committed WAL groups.
    wal_sink: Option<Arc<dyn WalSink>>,
    /// Pinned snapshot sequences (seq -> pin count). Flush and
    /// compaction consult these so no version a [`SnapshotPin`] can
    /// still see is dropped or filtered away.
    pins: Mutex<std::collections::BTreeMap<SequenceNumber, usize>>,
}

impl Drop for DbInner {
    fn drop(&mut self) {
        // Backstop: `Db::drop` normally joined the pool already; this
        // covers panics that skipped it.
        if let Some(rt) = &self.runtime {
            rt.shutdown_and_join();
        }
    }
}

impl std::fmt::Debug for DbInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbInner").field("opts", &"..").finish_non_exhaustive()
    }
}

impl DbInner {
    /// A consistent snapshot of the effective options. Cheap (one `Arc`
    /// clone under a read lock); callers that read several fields in one
    /// decision should take one snapshot rather than re-reading, so a
    /// concurrent [`Db::set_options`] cannot interleave configs.
    fn opts(&self) -> Arc<Options> {
        Arc::clone(&self.opts.read())
    }

    /// The current time in seconds for TTL stamping and expiry checks.
    ///
    /// Simulation uses the virtual clock (so TTL behavior is
    /// deterministic and the table5 gate holds); real mode uses UNIX
    /// epoch seconds so stamps stay meaningful across process restarts.
    fn now_secs(&self) -> u64 {
        if self.env.clock().is_sim() {
            self.env.clock().now().as_nanos() / 1_000_000_000
        } else {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
        }
    }

    /// Sequences of every pinned snapshot, sorted ascending.
    fn pinned_seqs(&self) -> Vec<SequenceNumber> {
        self.pins.lock().keys().copied().collect()
    }

    /// The filter + pins handed to one flush or compaction job: the
    /// built-in TTL filter (when `ttl_seconds > 0`) frozen at the
    /// current clock, plus the pinned snapshot sequences. With TTL off
    /// and no pins this is the empty context — merges behave
    /// byte-identically to the unfiltered engine.
    fn filter_context(&self) -> FilterContext {
        let ttl = self.opts().ttl_seconds;
        FilterContext {
            filter: if ttl > 0 {
                Some(Arc::new(TtlFilter::new(self.now_secs(), ttl)))
            } else {
                None
            },
            pins: self.pinned_seqs(),
        }
    }

    /// Resolves a [`ValueType::TtlValue`] payload read from the tree:
    /// strips the stamp and applies expiry under the *current*
    /// `ttl_seconds` (an online change governs existing stamps too).
    /// Returns `None` when the entry is expired.
    fn resolve_ttl(&self, stamped: &[u8]) -> Option<Vec<u8>> {
        let (value, written) = split_ttl_value(stamped);
        match written {
            Some(w) if ttl_expired(w, self.now_secs(), self.opts().ttl_seconds) => None,
            _ => Some(value.to_vec()),
        }
    }

    /// Captures the view `get`, `multi_get` and `scan` read from. Sim
    /// mode first delivers background events due by now.
    fn read_view(&self, ropts: &ReadOptions) -> Result<ReadView> {
        let mut state = self.state.lock();
        if self.runtime.is_none() {
            let now = self.env.clock().now();
            self.pump_events(&mut state, now)?;
        }
        let mem = Arc::clone(&state.mem);
        let imm = state.imm.iter().map(|e| Arc::clone(&e.mem)).collect();
        let version = Arc::clone(&state.version);
        // Real mode: read the published watermark instead of last_seq,
        // which may include a group still committing (its entries not
        // yet in the memtable).
        let visible = match &self.runtime {
            Some(rt) => rt.visible_seq(),
            None => state.last_seq,
        };
        // An explicit snapshot can only look backwards: clamp it to the
        // visible watermark so a stale handle never reads uncommitted state.
        let snapshot = ropts.snapshot_seq.map_or(visible, |s| s.min(visible));
        Ok(ReadView { mem, imm, version, snapshot })
    }

    /// Probes one memtable for `key` at `snapshot`: `Some(Some(v))` is a
    /// live value (TTL stamp stripped), `Some(None)` a tombstone or an
    /// expired value, and `None` means the memtable holds no entry.
    fn probe_memtable(
        &self,
        mem: &MemTable,
        key: &[u8],
        snapshot: SequenceNumber,
    ) -> Option<Option<Vec<u8>>> {
        match mem.get(key, snapshot) {
            MemTableGet::Found(v) => Some(Some(v)),
            MemTableGet::FoundTtl(v) => Some(self.resolve_ttl(&v)),
            MemTableGet::Deleted => Some(None),
            MemTableGet::NotFound => None,
        }
    }

    /// Multiplier on a point read's CPU charge: background contention,
    /// the paranoid-check and direct-read overheads, and memory pressure.
    fn read_cost_factor(&self) -> f64 {
        let opts = self.opts();
        let mut factor = self.foreground_contention(self.env.clock().now());
        if opts.paranoid_checks {
            factor *= 1.08;
        }
        if opts.use_direct_reads {
            factor *= 1.05;
        }
        factor * self.env.memory().penalty_factor()
    }
}

/// RAII guard pinning a snapshot sequence: while alive, no version of
/// any key visible at the pinned sequence is dropped or filtered away by
/// flush or compaction. Obtained from [`Db::pin_snapshot`]; pass the
/// [`SnapshotPin::sequence`] as [`ReadOptions::snapshot_seq`] to read at
/// the pin.
#[derive(Debug)]
pub struct SnapshotPin {
    inner: Arc<DbInner>,
    seq: SequenceNumber,
}

impl SnapshotPin {
    /// The pinned sequence number.
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut pins = self.inner.pins.lock();
        if let Some(n) = pins.get_mut(&self.seq) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.seq);
            }
        }
    }
}

/// An LSM-tree key-value store.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl Clone for Db {
    fn clone(&self) -> Db {
        self.inner
            .handles
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        Db {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        // When the last user handle goes away in real mode, stop and
        // join the worker pool *before* returning: a worker may hold a
        // transient strong reference, and letting it drop `DbInner`
        // later would race a caller that immediately reopens the path
        // (the buffered manifest tail would still be in flight).
        if self.inner.runtime.is_some()
            && self
                .inner
                .handles
                .fetch_sub(1, std::sync::atomic::Ordering::AcqRel)
                == 1
        {
            if let Some(rt) = &self.inner.runtime {
                rt.shutdown_and_join();
            }
        }
    }
}

/// Fluent constructor for [`Db`], created by [`Db::builder`].
///
/// ```
/// use lsm_kvs::{Db, FaultConfig, options::Options};
///
/// // Defaults: in-memory VFS, simulated 4-core / 8 GiB NVMe environment.
/// let db = Db::builder(Options::default()).open().unwrap();
/// db.put(b"k", b"v").unwrap();
///
/// // With fault injection layered over the chosen VFS:
/// let builder = Db::builder(Options::default()).fault_injection(FaultConfig::default());
/// let faults = builder.fault_vfs().unwrap();
/// let db = builder.open().unwrap();
/// db.put(b"k", b"v").unwrap();
/// assert_eq!(faults.injected_errors(), 0);
/// ```
pub struct DbBuilder {
    opts: Options,
    env: Option<HardwareEnv>,
    vfs: Option<Arc<dyn Vfs>>,
    fault: Option<crate::fault::FaultInjectionVfs>,
    listeners: Vec<Arc<dyn EventListener>>,
    shard: Option<crate::shard::ShardCtx>,
    load_options_file: bool,
    wal_sink: Option<Arc<dyn WalSink>>,
}

/// Observer of committed WAL groups, the hook a replication layer hangs
/// off the write path (see [`DbBuilder::wal_sink`]).
///
/// The engine calls [`ship`](Self::ship) after a group's records were
/// appended to the local WAL, *while still holding the commit critical
/// section* — so ship order equals sequence order and implementations
/// must only enqueue, never block. For a group written with
/// `WriteOptions { sync: true }` the engine then calls
/// [`wait_durable`](Self::wait_durable) after the local fsync and before
/// the group's writers are released, so an implementation can hold the
/// ack until replicas confirm durability (bounded — a sink must time out
/// and demote a dead replica rather than stall writers forever).
pub trait WalSink: Send + Sync {
    /// One committed group: WAL record payloads covering sequences
    /// `first_seq..=last_seq`, in commit order.
    fn ship(&self, first_seq: u64, last_seq: u64, sync: bool, records: &[&[u8]]);
    /// Blocks (bounded) until the group ending at `last_seq` is durable
    /// on every replica the sink still considers live.
    fn wait_durable(&self, last_seq: u64);
}

impl std::fmt::Debug for DbBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbBuilder")
            .field("listeners", &self.listeners.len())
            .finish_non_exhaustive()
    }
}

impl DbBuilder {
    /// Sets the hardware environment (defaults to a simulated
    /// 4-core / 8 GiB NVMe environment). The environment's clock selects
    /// the execution mode: simulated clock → discrete-event mode, wall
    /// clock → real-concurrency mode.
    #[must_use]
    pub fn env(mut self, env: &HardwareEnv) -> Self {
        self.env = Some(env.clone());
        self
    }

    /// Sets the backing VFS (defaults to a fresh [`MemVfs`]).
    ///
    /// Call before [`fault_injection`](Self::fault_injection): the fault
    /// layer wraps whatever VFS is configured when it is added.
    #[must_use]
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Wraps the configured VFS in a [`FaultInjectionVfs`](crate::FaultInjectionVfs)
    /// with `cfg`. Retrieve the handle with [`fault_vfs`](Self::fault_vfs)
    /// to drive power cuts and error bursts from the outside.
    #[must_use]
    pub fn fault_injection(mut self, cfg: crate::fault::FaultConfig) -> Self {
        let base = self
            .vfs
            .take()
            .unwrap_or_else(|| Arc::new(MemVfs::new()) as Arc<dyn Vfs>);
        let fault = crate::fault::FaultInjectionVfs::with_config(base, cfg);
        self.vfs = Some(Arc::new(fault.clone()) as Arc<dyn Vfs>);
        self.fault = Some(fault);
        self
    }

    /// The fault-injection handle, when [`fault_injection`](Self::fault_injection)
    /// was configured. Clone it before [`open`](Self::open).
    pub fn fault_vfs(&self) -> Option<crate::fault::FaultInjectionVfs> {
        self.fault.clone()
    }

    /// Registers an [`EventListener`] notified of flush/compaction
    /// completions and stall-regime transitions. May be called multiple
    /// times; listeners fire in registration order.
    #[must_use]
    pub fn listener(mut self, listener: Arc<dyn EventListener>) -> Self {
        self.listeners.push(listener);
        self
    }

    /// Marks this database as one shard of a [`ShardedDb`](crate::ShardedDb),
    /// wiring it to the shared block cache, job budget, and stall debt.
    pub(crate) fn shard_context(mut self, ctx: crate::shard::ShardCtx) -> Self {
        self.shard = Some(ctx);
        self
    }

    /// Overlays the mutable options persisted in the `OPTIONS` file (see
    /// [`Db::set_options`]) on top of the builder's options at open, so a
    /// crash or restart keeps a live-tuned configuration. Off by default:
    /// tuning harnesses reopen forks with explicit candidate options and
    /// must not have them silently overridden by an earlier run's file.
    #[must_use]
    pub fn load_options_file(mut self, load: bool) -> Self {
        self.load_options_file = load;
        self
    }

    /// Attaches a [`WalSink`] that observes every committed WAL group,
    /// in commit order — the attachment point for WAL-shipping
    /// replication.
    #[must_use]
    pub fn wal_sink(mut self, sink: Arc<dyn WalSink>) -> Self {
        self.wal_sink = Some(sink);
        self
    }

    /// Opens (creating or recovering) the database.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidArgument`](crate::ErrorKind) for
    /// inconsistent options and I/O/corruption errors from recovery.
    pub fn open(self) -> Result<Db> {
        let env = self
            .env
            .unwrap_or_else(|| HardwareEnv::builder().build_sim());
        let vfs = self
            .vfs
            .unwrap_or_else(|| Arc::new(MemVfs::new()) as Arc<dyn Vfs>);
        let mut opts = self.opts;
        if self.load_options_file && vfs.exists(OPTIONS_FILE) {
            let text = String::from_utf8(vfs.read_all(OPTIONS_FILE)?)
                .map_err(|_| Error::corruption("OPTIONS file is not utf-8"))?;
            ini::apply_mutable_ini(&mut opts, &text);
        }
        Db::open_impl(opts, &env, vfs, self.listeners, self.shard, self.wal_sink)
    }
}

impl Db {
    /// Starts building a database handle; see [`DbBuilder`].
    pub fn builder(opts: Options) -> DbBuilder {
        DbBuilder {
            opts,
            env: None,
            vfs: None,
            fault: None,
            listeners: Vec::new(),
            shard: None,
            load_options_file: false,
            wal_sink: None,
        }
    }

    /// Opens (creating or recovering) a database on `vfs` under `env`.
    ///
    /// The execution mode follows the environment's clock: a simulated
    /// clock selects the single-threaded discrete-event mode, a wall
    /// clock selects real-concurrency mode (group commit + background
    /// worker pool).
    fn open_impl(
        opts: Options,
        env: &HardwareEnv,
        vfs: Arc<dyn Vfs>,
        listeners: Vec<Arc<dyn EventListener>>,
        shard: Option<crate::shard::ShardCtx>,
        wal_sink: Option<Arc<dyn WalSink>>,
    ) -> Result<Db> {
        opts.validate()?;
        let controller = WriteController::from_options(&opts);
        let block_cache = if let Some(ctx) = &shard {
            // Shards share one cache sized once by the facade.
            ctx.shared_block_cache()
        } else if opts.no_block_cache {
            None
        } else {
            Some(Arc::new(BlockCache::new(opts.block_cache_size.max(1), 4)))
        };
        let table_cache = TableCache::new(opts.max_open_files);

        let state = if vfs.exists(CURRENT_FILE) {
            Self::recover(&opts, vfs.as_ref())?
        } else {
            Self::create_fresh(&opts, vfs.as_ref())?
        };
        let runtime = if env.clock().is_sim() {
            None
        } else {
            Some(Runtime::new(state.last_seq))
        };
        let workers = opts.max_background_jobs.clamp(1, 16) as usize;

        // Best-effort: persist the effective config so `OPTIONS` always
        // reflects the running database. Failure here must not fail an
        // otherwise-successful open (the file is only stale, and
        // `set_options` rewrites it strictly).
        let _ = write_options_file(vfs.as_ref(), &opts);

        let db = Db {
            inner: Arc::new(DbInner {
                opts: RwLock::new(Arc::new(opts)),
                cost: CostModel::default(),
                env: env.clone(),
                vfs,
                state: Mutex::new(state),
                shard,
                block_cache,
                table_cache,
                stats: Statistics::new(),
                listeners,
                last_regime: std::sync::atomic::AtomicU8::new(regime_code(WriteRegime::Normal)),
                opened_at: env.clock().now(),
                controller: RwLock::new(controller),
                runtime,
                handles: std::sync::atomic::AtomicUsize::new(1),
                bg_retries: std::sync::atomic::AtomicU64::new(0),
                wal_rotations: std::sync::atomic::AtomicU64::new(0),
                manifest_resyncs: std::sync::atomic::AtomicU64::new(0),
                wal_sync_retries: std::sync::atomic::AtomicU64::new(0),
                wal_sink,
                pins: Mutex::new(std::collections::BTreeMap::new()),
            }),
        };
        if let Some(rt) = &db.inner.runtime {
            for i in 0..workers {
                // Workers hold only a Weak handle: dropping the last Db
                // must shut the pool down, not leak it.
                let weak = Arc::downgrade(&db.inner);
                let bg = Arc::clone(&rt.bg);
                let handle = std::thread::Builder::new()
                    .name(format!("lsm-bg-{i}"))
                    .spawn(move || background_worker(weak, bg))
                    .map_err(|e| Error::io(format!("spawn background worker: {e}")))?;
                rt.register_worker(handle);
            }
        }
        Ok(db)
    }

    /// The newest sequence number visible to readers right now. Pass it
    /// as [`ReadOptions::snapshot_seq`] to pin a consistent snapshot;
    /// cross-shard scans capture one per shard before reading any.
    pub fn snapshot_seq(&self) -> u64 {
        let inner = &*self.inner;
        match &inner.runtime {
            Some(rt) => rt.visible_seq(),
            None => inner.state.lock().last_seq,
        }
    }

    /// Pins the current snapshot: until the returned guard drops, flush
    /// and compaction keep every version visible at this sequence (and
    /// the compaction filter never touches them). Read at the pin via
    /// [`ReadOptions::snapshot_seq`].
    pub fn pin_snapshot(&self) -> SnapshotPin {
        let inner = &*self.inner;
        // Register under the pins lock using a sequence captured inside
        // it, so a background job that read the pin set cannot have
        // missed a pin at a sequence it had yet to observe.
        let mut pins = inner.pins.lock();
        let seq = self.snapshot_seq();
        *pins.entry(seq).or_insert(0) += 1;
        drop(pins);
        SnapshotPin { inner: Arc::clone(&self.inner), seq }
    }

    /// Jumps the sequence counter forward to `seq` (no-op when already
    /// past it). A replication follower calls this after a snapshot
    /// bootstrap: the snapshot's entries were applied with locally
    /// assigned sequences, and from here on the follower must assign the
    /// same sequence numbers the leader did, so the two stay in lockstep.
    ///
    /// The jump is persisted through a synced manifest edit before
    /// returning: recovery derives `last_seq` from the manifest and the
    /// WAL records, and the bootstrap's WAL records carry the smaller
    /// locally assigned sequences — without the edit, a follower
    /// restarting right after its bootstrap would come back up at the
    /// local count instead of the leader position.
    ///
    /// Must not race user writes — the caller is the single apply thread.
    ///
    /// # Errors
    ///
    /// Propagates manifest append/sync failures; the in-memory counter
    /// is not advanced when the edit could not be persisted.
    pub fn advance_sequence_to(&self, seq: SequenceNumber) -> Result<()> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        if seq <= state.last_seq {
            return Ok(());
        }
        let edit = VersionEdit { last_sequence: Some(seq), ..VersionEdit::default() };
        let record = edit.encode();
        let DbState { manifest, .. } = &mut *state;
        inner.log_manifest(manifest, &record)?;
        state.last_seq = seq;
        if let Some(rt) = &inner.runtime {
            rt.publish_visible(seq);
        }
        Ok(())
    }

    /// The VFS this database stores its files in — for sidecar files
    /// (e.g. the replication bootstrap marker) that must live and die
    /// with the database directory.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.inner.vfs)
    }

    /// The worker-pool signal handle, for cross-shard fairness kicks.
    pub(crate) fn bg_shared(&self) -> Option<Arc<crate::runtime::BgShared>> {
        self.inner.runtime.as_ref().map(|rt| Arc::clone(&rt.bg))
    }

    /// A snapshot of the options this database currently runs with.
    ///
    /// Returned by value: [`set_options`](Db::set_options) can swap the
    /// effective config at any time, so there is no stable reference to
    /// hand out.
    pub fn options(&self) -> Options {
        (*self.inner.opts()).clone()
    }

    /// The current ini rendering of the options (what tuning feeds the
    /// LLM).
    pub fn options_ini(&self) -> String {
        ini::to_ini(&self.inner.opts())
    }

    /// Applies `(name, value)` changes to the running database,
    /// RocksDB `SetOptions`-style, without reopen.
    ///
    /// The batch is atomic: every name is resolved through the option
    /// registry, every entry must be `mutable_online`, and the combined
    /// result must pass cross-field validation *before* anything becomes
    /// visible. On success the new config is persisted to the `OPTIONS`
    /// file (tmp + sync + rename, so a crash leaves old-or-new, never a
    /// torn file), the in-memory options snapshot is swapped, and the
    /// write controller is rebuilt — the flush scheduler, compaction
    /// picker, and stall logic pick the new values up on their next
    /// decision.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidArgument`](crate::ErrorKind) naming the
    /// offending option for unknown names, immutable options, parse
    /// failures, and validation failures; I/O errors if persisting the
    /// options file fails. On any error the running configuration is
    /// unchanged.
    pub fn set_options<K: AsRef<str>, V: AsRef<str>>(&self, changes: &[(K, V)]) -> Result<()> {
        use crate::options::registry::find_option;
        if changes.is_empty() {
            return Ok(());
        }
        let inner = &*self.inner;
        // Hold the write lock across persist + swap so concurrent
        // retunes serialize and the file never goes backwards.
        let mut guard = inner.opts.write();
        let current = Arc::clone(&guard);
        let mut next = (*current).clone();
        for (name, value) in changes {
            let (name, value) = (name.as_ref(), value.as_ref());
            let meta = find_option(name)
                .ok_or_else(|| Error::invalid_argument(format!("unknown option: {name}")))?;
            if !meta.mutable_online {
                return Err(Error::invalid_argument(format!(
                    "option {} is not mutable online; it requires a reopen",
                    meta.name
                )));
            }
            (meta.set)(&mut next, value)?;
        }
        next.validate()?;
        if next == *current {
            return Ok(());
        }
        // Persist before swapping: a crash between the two leaves the new
        // config on disk and the old one running — the same state as "set
        // applied, then restart with load_options_file" — never a config
        // that was acknowledged but lost.
        write_options_file(inner.vfs.as_ref(), &next)?;
        let next = Arc::new(next);
        *guard = Arc::clone(&next);
        *inner.controller.write() = WriteController::from_options(&next);
        drop(guard);

        if let Some(rt) = &inner.runtime {
            // Real mode: grow the worker pool if the job budget went up
            // (shrink needs no action — claim functions read the live
            // effective limits, so surplus workers just idle).
            let want = next.max_background_jobs.clamp(1, 16) as usize;
            let have = rt.worker_count();
            for i in have..want {
                let weak = Arc::downgrade(&self.inner);
                let bg = Arc::clone(&rt.bg);
                let handle = std::thread::Builder::new()
                    .name(format!("lsm-bg-{i}"))
                    .spawn(move || background_worker(weak, bg))
                    .map_err(|e| Error::io(format!("spawn background worker: {e}")))?;
                rt.register_worker(handle);
            }
            // Wake the pool: lowered triggers may make work runnable
            // right now.
            rt.bg.kick();
        }
        Ok(())
    }

    fn create_fresh(opts: &Options, vfs: &dyn Vfs) -> Result<DbState> {
        let manifest_number = 1u64;
        let manifest_file = vfs.create(&manifest_file_name(manifest_number))?;
        let mut manifest = WalWriter::new(manifest_file);
        let wal_number = 2;
        let edit = VersionEdit {
            log_number: Some(wal_number),
            next_file_number: Some(3),
            last_sequence: Some(0),
            ..VersionEdit::default()
        };
        manifest.add_record(&edit.encode())?;
        manifest.sync()?;
        write_current(vfs, &manifest_file_name(manifest_number))?;

        let wal = if opts.disable_wal {
            None
        } else {
            Some(WalWriter::new(vfs.create(&wal_file_name(wal_number))?))
        };
        Ok(DbState {
            mem: Arc::new(new_memtable(opts)),
            mem_wal_number: wal_number,
            imm: Vec::new(),
            version: Arc::new(Version::empty(opts.num_levels as usize)),
            wal,
            wals_on_disk: vec![wal_number],
            manifest,
            next_file: 3,
            last_seq: 0,
            events: BinaryHeap::new(),
            event_seq: 0,
            running_flushes: 0,
            running_compactions: 0,
            pending_compaction_bytes: 0,
            dirty_wal_bytes: 0,
            writes_since_account: 0,
            obsolete_files: Vec::new(),
        })
    }

    fn recover(opts: &Options, vfs: &dyn Vfs) -> Result<DbState> {
        // 1. Manifest replay.
        let current = vfs.read_all(CURRENT_FILE)?;
        let manifest_name = String::from_utf8(current)
            .map_err(|_| Error::corruption("CURRENT is not utf-8"))?;
        let manifest_data = vfs.read_all(manifest_name.trim())?;
        let replay = replay_wal(&manifest_data, !opts.paranoid_checks)?;
        let mut version = Version::empty(opts.num_levels as usize);
        let mut log_number = 0u64;
        let mut next_file = 3u64;
        let mut last_seq = 0u64;
        for record in &replay.records {
            let edit = VersionEdit::decode(record)?;
            if let Some(v) = edit.log_number {
                log_number = v;
            }
            if let Some(v) = edit.next_file_number {
                next_file = next_file.max(v);
            }
            if let Some(v) = edit.last_sequence {
                last_seq = last_seq.max(v);
            }
            version = version.apply(&edit)?;
        }

        // 2. WAL replay into a fresh memtable. Every intact record is
        // also kept aside so it can be re-logged into the new WAL below —
        // otherwise a second crash before the next flush would lose the
        // recovered entries (their old logs are garbage-collected).
        let mem = new_memtable(opts);
        let mut replayed_records: Vec<Vec<u8>> = Vec::new();
        let mut wal_numbers: Vec<u64> = vfs
            .list("")?
            .into_iter()
            .filter_map(|name| {
                name.strip_suffix(".log")
                    .and_then(|stem| stem.parse::<u64>().ok())
            })
            .filter(|n| *n >= log_number)
            .collect();
        wal_numbers.sort_unstable();
        for n in &wal_numbers {
            let data = vfs.read_all(&wal_file_name(*n))?;
            let wal_replay = replay_wal(&data, false)?;
            for record in &wal_replay.records {
                replayed_records.push(record.clone());
                let (first_seq, batch) = WriteBatch::decode(record)?;
                // Replay everything in surviving WALs: entries that were
                // already flushed re-insert the identical (seq, value)
                // pair, which is harmless, while filtering on a sequence
                // cutoff would lose memtable-only writes (flush edits
                // record the *global* sequence, not the flushed one).
                for (i, (ty, key, value)) in batch.iter().enumerate() {
                    mem.add(first_seq + i as u64, ty, key, value);
                }
                last_seq = last_seq.max(first_seq + batch.len().saturating_sub(1) as u64);
            }
            next_file = next_file.max(n + 1);
        }

        // 3. Start a new manifest holding a full snapshot, plus a new WAL.
        let manifest_number = next_file;
        next_file += 1;
        let wal_number = next_file;
        next_file += 1;
        let mut snapshot = VersionEdit {
            log_number: Some(wal_number),
            next_file_number: Some(next_file),
            last_sequence: Some(last_seq),
            ..VersionEdit::default()
        };
        for level in 0..version.num_levels() {
            for f in version.files(level) {
                snapshot.added_files.push((level, Arc::clone(f)));
            }
        }
        let mut manifest = WalWriter::new(vfs.create(&manifest_file_name(manifest_number))?);
        manifest.add_record(&snapshot.encode())?;
        manifest.sync()?;

        // Re-log the recovered entries into the new WAL and make them
        // durable *before* switching CURRENT or deleting anything: until
        // the pointer flips, a crash recovers from the old manifest and
        // the old logs; after it flips, the new manifest + new WAL hold
        // everything.
        let wal = if opts.disable_wal {
            None
        } else {
            let mut writer = WalWriter::new(vfs.create(&wal_file_name(wal_number))?);
            for record in &replayed_records {
                writer.add_record(record)?;
            }
            writer.sync()?;
            Some(writer)
        };
        write_current(vfs, &manifest_file_name(manifest_number))?;

        // 4. Garbage-collect obsolete files from before the crash.
        let live: std::collections::HashSet<u64> =
            version.live_files().iter().map(|f| f.0).collect();
        for name in vfs.list("")? {
            if let Some(stem) = name.strip_suffix(".sst") {
                if let Ok(n) = stem.parse::<u64>() {
                    if !live.contains(&n) {
                        let _ = vfs.delete(&name);
                    }
                }
            } else if let Some(stem) = name.strip_suffix(".log") {
                if let Ok(n) = stem.parse::<u64>() {
                    if n < wal_number {
                        let _ = vfs.delete(&name);
                    }
                }
            } else if name.starts_with("MANIFEST-") && name != manifest_file_name(manifest_number)
            {
                let _ = vfs.delete(&name);
            }
        }
        let pending = pending_compaction_bytes(opts, &version);
        Ok(DbState {
            mem: Arc::new(mem),
            mem_wal_number: wal_number,
            imm: Vec::new(),
            version: Arc::new(version),
            wal,
            wals_on_disk: vec![wal_number],
            manifest,
            next_file,
            last_seq,
            events: BinaryHeap::new(),
            event_seq: 0,
            running_flushes: 0,
            running_compactions: 0,
            pending_compaction_bytes: pending,
            dirty_wal_bytes: 0,
            writes_since_account: 0,
            obsolete_files: Vec::new(),
        })
    }

    // -----------------------------------------------------------------
    // Write path
    // -----------------------------------------------------------------

    /// Inserts one key/value pair.
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors and [`ErrorKind::Busy`](crate::ErrorKind) if the write
    /// stall cannot clear.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.put(key, value);
        self.write(batch)
    }

    /// Deletes a key (writes a tombstone).
    ///
    /// # Errors
    ///
    /// Same as [`Db::put`].
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::with_capacity(1);
        batch.delete(key);
        self.write(batch)
    }

    /// Applies a batch atomically with default write options.
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors and [`ErrorKind::Busy`](crate::ErrorKind) if the write
    /// stall cannot clear.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opt(&WriteOptions::default(), batch)
    }

    /// Applies a batch atomically.
    ///
    /// In real-concurrency mode the batch joins the group-commit queue:
    /// the first queued writer becomes leader, appends every queued
    /// batch to the WAL with one write (and one sync, if any member
    /// requested it), applies them to the memtable, and wakes the
    /// followers. In simulation mode the write is applied inline under
    /// the modeled costs.
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors and [`ErrorKind::Busy`](crate::ErrorKind) if the write
    /// stall cannot clear.
    pub fn write_opt(&self, write_opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut batch = batch;
        // While TTL is on, stamp puts with the write time; the stamp
        // travels through the WAL, group commit, and replication
        // verbatim (replay never re-stamps).
        if self.inner.opts().ttl_seconds > 0 {
            batch.stamp_puts(self.inner.now_secs());
        }
        let started = self.inner.env.clock().now();
        let result = if self.inner.runtime.is_some() {
            self.write_real(write_opts, batch)
        } else {
            self.write_sim(write_opts, batch)
        };
        self.inner.stats.record(
            HistogramKind::DbWrite,
            self.inner.env.clock().now().saturating_since(started),
        );
        result
    }

    fn write_sim(&self, write_opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        let mut now = inner.env.clock().now();
        inner.pump_events(&mut state, now)?;
        inner.maybe_schedule_flush(&mut state, now)?;
        inner.maybe_schedule_compaction(&mut state, now)?;

        // Stall / slowdown loop.
        let batch_bytes = batch.approximate_bytes() as u64;
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 100_000 {
                return Err(Error::busy("write stall did not clear"));
            }
            let regime = inner.controller.read().regime(&inner.pressure(&state));
            inner.note_regime(regime);
            match regime {
                WriteRegime::Normal => break,
                WriteRegime::Delayed => {
                    inner.stats.tickers().inc(Ticker::WriteSlowdowns);
                    let delay = inner.controller.read().delay_for(batch_bytes);
                    inner.env.clock().advance(delay);
                    inner.stats.tickers().add(Ticker::StallNanos, delay.as_nanos());
                    now = inner.env.clock().now();
                    inner.pump_events(&mut state, now)?;
                    break;
                }
                WriteRegime::Stopped => {
                    inner.stats.tickers().inc(Ticker::WriteStops);
                    // Schedule-then-wait: make sure any claimable relief
                    // work is in flight *before* deciding whether to wait
                    // or give up, so a queued background completion can
                    // never race the guard into a spurious Busy.
                    inner.maybe_schedule_flush(&mut state, now)?;
                    inner.maybe_schedule_compaction(&mut state, now)?;
                    let Some(next) = state.events.peek().map(|e| e.at) else {
                        // Nothing in flight can relieve the stall; give
                        // up on throttling rather than deadlock.
                        break;
                    };
                    let wait = next.saturating_since(now);
                    inner.env.clock().advance_to(next);
                    inner.stats.tickers().add(Ticker::StallNanos, wait.as_nanos());
                    now = inner.env.clock().now();
                    inner.pump_events(&mut state, now)?;
                    // The head event was consumed: that is real progress,
                    // so the no-progress guard starts over.
                    guard = 0;
                }
            }
        }

        // Assign sequence numbers.
        let first_seq = state.last_seq + 1;
        state.last_seq += batch.len() as u64;
        let last_seq = state.last_seq;

        // WAL append.
        let mut cpu = inner.cost.write_base_cpu;
        if !inner.opts().disable_wal {
            let record = batch.encode(first_seq);
            let record_len = record.len() as u64;
            let wal = state.wal.as_mut().expect("wal enabled");
            if let Err(e) = wal.add_record(&record) {
                if e.is_retryable() {
                    // The append is atomic at the VFS layer, so a transient
                    // failure left the log at a clean frame boundary: rotate
                    // to a fresh WAL and fail only this write.
                    inner.rotate_wal(&mut state)?;
                }
                return Err(e);
            }
            inner.stats.tickers().add(Ticker::WalBytes, record_len);
            inner.stats.tickers().inc(Ticker::WalWrites);
            if let Some(sink) = &inner.wal_sink {
                sink.ship(first_seq, last_seq, write_opts.sync, &[&record]);
            }
            cpu += inner.cost.wal_record_cpu
                + SimDuration::from_nanos(
                    (record_len as f64 * inner.cost.wal_per_byte_cpu_ns) as u64,
                );
            // Incremental WAL syncing (wal_bytes_per_sync) or OS writeback.
            let per_sync = inner.opts().wal_bytes_per_sync;
            if write_opts.sync {
                // Durable write: the foreground blocks on the device sync.
                let chunk = wal.bytes_since_sync();
                wal.sync()?;
                let done = inner.env.device().submit_write(now, chunk, AccessPattern::Sequential);
                let done = inner.env.device().submit_sync(done);
                inner.env.clock().advance_to(done);
                inner.stats.tickers().inc(Ticker::WalSyncs);
                if let Some(sink) = &inner.wal_sink {
                    sink.wait_durable(last_seq);
                }
            } else if per_sync > 0 && wal.bytes_since_sync() >= per_sync {
                let chunk = wal.bytes_since_sync();
                wal.sync()?;
                let done = inner.env.device().submit_write(now, chunk, AccessPattern::Sequential);
                inner.stats.tickers().inc(Ticker::WalSyncs);
                if inner.opts().strict_bytes_per_sync {
                    inner.env.clock().advance_to(done);
                }
            } else if per_sync == 0 {
                state.dirty_wal_bytes += record_len;
                if state.dirty_wal_bytes >= inner.cost.os_writeback_burst {
                    // The OS flushes a big burst of dirty pages; it does
                    // not block the writer but hogs the device.
                    inner.env.device().submit_write(
                        now,
                        state.dirty_wal_bytes,
                        AccessPattern::Sequential,
                    );
                    state.dirty_wal_bytes = 0;
                    inner.stats.tickers().inc(Ticker::WalSyncs);
                }
            }
        }

        // Memtable insert.
        let mut inserted_bytes = 0u64;
        for (i, (ty, key, value)) in batch.iter().enumerate() {
            state.mem.add(first_seq + i as u64, ty, key, value);
            inserted_bytes += (key.len() + value.len()) as u64;
        }
        inner.stats.tickers().add(Ticker::KeysWritten, batch.len() as u64);
        inner.stats.tickers().add(Ticker::BytesWritten, inserted_bytes);
        cpu += SimDuration::from_nanos(
            (inserted_bytes as f64 * inner.cost.write_per_byte_cpu_ns) as u64,
        );

        // Pipelining and concurrency-control modifiers.
        let mut factor = 1.0;
        if inner.opts().enable_pipelined_write {
            factor *= if inner.env.cpu().num_cores() >= 4 { 0.88 } else { 1.05 };
        }
        if !inner.opts().allow_concurrent_memtable_write {
            factor *= 0.98; // single-writer skips the coordination
        }
        factor *= inner.foreground_contention(now);
        factor *= inner.env.memory().penalty_factor();
        inner.env.clock().advance(cpu.mul_f64(factor));

        // Memtable switch triggers.
        let mem_bytes = state.mem.approximate_memory_usage() as u64;
        let wal_total: u64 = state.wal.as_ref().map(|w| w.bytes_written()).unwrap_or(0);
        let db_buffer_full = inner.opts().db_write_buffer_size > 0
            && mem_bytes + state.imm_bytes() > inner.opts().db_write_buffer_size;
        if mem_bytes >= inner.opts().write_buffer_size
            || wal_total >= inner.opts().effective_max_total_wal_size()
            || db_buffer_full
        {
            inner.switch_memtable(&mut state)?;
            let now = inner.env.clock().now();
            inner.maybe_schedule_flush(&mut state, now)?;
        }

        state.writes_since_account += 1;
        if state.writes_since_account >= 1024 {
            state.writes_since_account = 0;
            inner.account_memory(&state);
        }
        Ok(())
    }

    /// Real-concurrency write: joins the group-commit queue. The first
    /// writer to find no active leader drains the queue front and
    /// commits the whole group; everyone else waits on the condvar for
    /// their id to pass the completion watermark.
    fn write_real(&self, write_opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        let inner = &*self.inner;
        let rt = inner.runtime.as_ref().expect("real mode");
        if let Some(e) = rt.fatal_error() {
            return Err(e);
        }
        // Without concurrent memtable writes, commit strictly one batch
        // at a time (the queue still serializes leaders).
        let max_group = if inner.opts().allow_concurrent_memtable_write {
            MAX_GROUP_BATCHES
        } else {
            1
        };
        let prepared = PreparedWrite::prepare(&batch, write_opts.sync);
        let mut queue = rt.commit.lock();
        let id = queue.next_id;
        queue.next_id += 1;
        queue.pending.push_back((id, prepared));
        loop {
            if queue.completed > id {
                return match queue.take_failure(id) {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
            }
            if queue.leader_active {
                rt.commit_cv.wait(&mut queue);
                continue;
            }
            queue.leader_active = true;
            let take = queue.pending.len().min(max_group);
            let mut group: Vec<(u64, PreparedWrite)> = queue.pending.drain(..take).collect();
            drop(queue);
            let result = inner.commit_group(rt, &mut group);
            queue = rt.commit.lock();
            let last_id = group.last().expect("leader drained at least one").0;
            if let Err(e) = &result {
                for (gid, _) in &group {
                    queue.failures.push((*gid, e.clone()));
                }
            }
            queue.completed = last_id + 1;
            queue.leader_active = false;
            rt.commit_cv.notify_all();
            // This writer's own batch may not have been in the group it
            // led (group size capped); if so, go around again.
        }
    }

    // -----------------------------------------------------------------
    // Read path
    // -----------------------------------------------------------------

    /// Reads the newest value for `key`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_opt(&ReadOptions::default(), key)
    }

    /// Reads the newest value for `key` under explicit [`ReadOptions`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn get_opt(&self, ropts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let inner = &*self.inner;
        let started = inner.env.clock().now();
        let found = self.read_keys(ropts, &[key])?.pop().flatten();
        inner
            .stats
            .record(HistogramKind::DbGet, inner.env.clock().now().saturating_since(started));
        Ok(found)
    }

    /// Reads the newest values for a batch of keys in one pass.
    ///
    /// Results are returned in input order. Compared to a loop of
    /// [`get`](Self::get) calls, the whole batch shares one snapshot,
    /// one memtable lock acquisition, one table-handle open per file,
    /// and one block fetch + parse per distinct data block — the
    /// RocksDB `MultiGet` amortization.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        self.multi_get_opt(&ReadOptions::default(), keys)
    }

    /// Reads a batch of keys under explicit [`ReadOptions`]; see
    /// [`multi_get`](Self::multi_get).
    ///
    /// Generic over the key representation so callers holding borrowed
    /// slices (e.g. the sharded facade regrouping another batch's keys)
    /// do not have to clone every key into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn multi_get_opt<K: AsRef<[u8]>>(
        &self,
        ropts: &ReadOptions,
        keys: &[K],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let inner = &*self.inner;
        if keys.is_empty() {
            inner.stats.tickers().inc(Ticker::MultiGetBatches);
            return Ok(Vec::new());
        }
        let started = inner.env.clock().now();
        let values = self.read_keys(ropts, keys)?;
        let n = keys.len() as u64;
        inner.stats.tickers().add(Ticker::MultiGetKeysRead, n);
        inner.stats.tickers().inc(Ticker::MultiGetBatches);
        inner.stats.record(
            HistogramKind::DbMultiGet,
            inner.env.clock().now().saturating_since(started),
        );
        Ok(values)
    }

    /// The lookup behind [`get_opt`](Self::get_opt) (one key) and
    /// [`multi_get_opt`](Self::multi_get_opt): one read view, one
    /// base-CPU charge, memtables probed newest first, then one batched
    /// table search. Counts `KeysRead` and the per-key hit/miss tickers;
    /// the callers record their own latency histogram.
    fn read_keys<K: AsRef<[u8]>>(
        &self,
        ropts: &ReadOptions,
        keys: &[K],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let inner = &*self.inner;
        let ReadView { mem, imm, version, snapshot } = inner.read_view(ropts)?;

        // The per-op base CPU is paid once for the whole batch; that is
        // the first half of the amortization (the other half is shared
        // table handles and blocks below).
        let mut cpu = inner.cost.get_base_cpu;
        // `None` = unresolved, `Some(None)` = definitively deleted/absent
        // at some layer, `Some(Some(v))` = found.
        let mut results: Vec<Option<Option<Vec<u8>>>> = vec![None; keys.len()];

        // The live memtable is probed for the whole batch first.
        for (i, key) in keys.iter().enumerate() {
            cpu += inner.cost.memtable_probe_cpu;
            results[i] = inner.probe_memtable(&mem, key.as_ref(), snapshot);
            if results[i].is_some() {
                inner.stats.tickers().inc(Ticker::MemtableHit);
            }
        }
        for m in &imm {
            if results.iter().all(Option::is_some) {
                break;
            }
            for (i, key) in keys.iter().enumerate() {
                if results[i].is_some() {
                    continue;
                }
                cpu += inner.cost.memtable_probe_cpu;
                results[i] = inner.probe_memtable(m, key.as_ref(), snapshot);
            }
        }

        // Sorted visit order for the table search: unresolved keys only,
        // sorted so each level's files are walked once, front to back.
        let mut unresolved: Vec<usize> = (0..keys.len())
            .filter(|&i| results[i].is_none())
            .collect();
        for _ in &unresolved {
            inner.stats.tickers().inc(Ticker::MemtableMiss);
        }
        unresolved.sort_by(|&a, &b| keys[a].as_ref().cmp(keys[b].as_ref()));
        if !unresolved.is_empty() {
            inner.multi_search_tables(
                &version,
                keys,
                &mut unresolved,
                snapshot,
                ropts,
                &mut cpu,
                &mut results,
            )?;
        }

        inner.env.clock().advance(cpu.mul_f64(inner.read_cost_factor()));

        inner.stats.tickers().add(Ticker::KeysRead, keys.len() as u64);
        Ok(results
            .into_iter()
            .map(|r| {
                let value = r.flatten();
                inner.stats.tickers().inc(if value.is_some() {
                    Ticker::GetHit
                } else {
                    Ticker::GetMiss
                });
                value
            })
            .collect())
    }

    /// Scans forward from `start`, returning up to `count` live entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        self.scan_opt(&ReadOptions::default(), start, count)
    }

    /// Scans forward from `start` under explicit [`ReadOptions`],
    /// returning up to `count` live entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn scan_opt(&self, ropts: &ReadOptions, start: &[u8], count: usize) -> Result<ScanResult> {
        let inner = &*self.inner;
        let ReadView { mem, imm, version, snapshot } = inner.read_view(ropts)?;

        let target = crate::types::lookup_key(start, snapshot);
        let mut cursors: Vec<Box<dyn ScanCursor>> = Vec::new();
        cursors.push(Box::new(MemCursor::new(mem, target.encoded())));
        for m in imm {
            cursors.push(Box::new(MemCursor::new(m, target.encoded())));
        }
        for f in version.files(0) {
            if f.largest.user_key() >= start {
                cursors.push(Box::new(FileCursor::open(
                    inner,
                    Arc::clone(f),
                    target.encoded(),
                    *ropts,
                )?));
            }
        }
        for level in 1..version.num_levels() {
            let files: Vec<Arc<FileMetadata>> = version
                .files(level)
                .iter()
                .filter(|f| f.largest.user_key() >= start)
                .cloned()
                .collect();
            if !files.is_empty() {
                cursors.push(Box::new(LevelCursor::open(
                    inner,
                    files,
                    target.encoded(),
                    *ropts,
                )?));
            }
        }

        let mut out = Vec::with_capacity(count.min(4096));
        // Reused dedup buffer: per-entry cost is the two owned result
        // vectors, not extra user-key clones.
        let mut last_user: Vec<u8> = Vec::new();
        let mut have_last = false;
        let mut cpu = inner.cost.get_base_cpu;
        // TTL expiry is evaluated once per scan against a single clock
        // reading so one pass applies one consistent policy.
        let ttl_seconds = inner.opts().ttl_seconds;
        let scan_now_secs = inner.now_secs();
        while out.len() < count {
            // Pick the smallest current key across cursors.
            let mut best: Option<usize> = None;
            for (i, c) in cursors.iter().enumerate() {
                if let Some(k) = c.key() {
                    match best {
                        None => best = Some(i),
                        Some(b) => {
                            let bk = cursors[b].key().expect("best cursor valid");
                            if internal_key_cmp(k, bk) == std::cmp::Ordering::Less {
                                best = Some(i);
                            }
                        }
                    }
                }
            }
            let Some(idx) = best else { break };
            let key = cursors[idx].key().expect("valid").to_vec();
            let value = cursors[idx].value().expect("valid").to_vec();
            cursors[idx].advance(inner)?;
            cpu += inner.cost.scan_entry_cpu;

            let user_len = key.len() - 8;
            let user_key = &key[..user_len];
            let tag = u64::from_le_bytes(key[user_len..].try_into().expect("tag"));
            if (tag >> 8) > snapshot {
                // The seek target only bounds the first key; entries for
                // later keys can carry sequences past our read snapshot
                // (e.g. a group commit applying concurrently). Skipping
                // them keeps scans atomic with respect to batches.
                continue;
            }
            if have_last && last_user.as_slice() == user_key {
                continue; // shadowed
            }
            last_user.clear();
            last_user.extend_from_slice(user_key);
            have_last = true;
            if (tag & 0xff) == ValueType::Deletion as u64 {
                continue; // tombstone
            }
            let mut value = value;
            if (tag & 0xff) == ValueType::TtlValue as u64 {
                let (v, written) = split_ttl_value(&value);
                if written.is_some_and(|w| ttl_expired(w, scan_now_secs, ttl_seconds)) {
                    continue; // expired: reads as absent
                }
                let keep = v.len();
                value.truncate(keep);
            }
            // The key buffer becomes the result row's user key in place.
            let mut row_key = key;
            row_key.truncate(user_len);
            out.push((row_key, value));
        }
        let factor =
            inner.foreground_contention(inner.env.clock().now()) * inner.env.memory().penalty_factor();
        inner.env.clock().advance(cpu.mul_f64(factor));
        inner.stats.tickers().add(Ticker::KeysRead, out.len() as u64);
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Maintenance
    // -----------------------------------------------------------------

    /// Flushes the active memtable and waits for all pending flushes.
    ///
    /// # Errors
    ///
    /// Propagates flush I/O errors.
    pub fn flush(&self) -> Result<()> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        if !state.mem.is_empty() {
            inner.switch_memtable(&mut state)?;
        }
        inner.wait_until(
            &mut state,
            |state, now| inner.maybe_schedule_flush(state, now),
            |state| state.imm.is_empty() && state.running_flushes == 0,
        )
    }

    /// Runs compactions until the tree is quiescent (no picks pending).
    ///
    /// # Errors
    ///
    /// Propagates compaction I/O errors.
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        inner.wait_until(
            &mut state,
            |state, now| inner.maybe_schedule_compaction(state, now),
            |state| {
                state.running_compactions == 0
                    && state.running_flushes == 0
                    && state.imm.is_empty()
                    && (inner.opts().disable_auto_compactions
                        || pick_compaction(&inner.opts(), &state.version).is_none())
            },
        )
    }

    /// Compacts every file overlapping the user-key range `[start, end]`
    /// down the tree until the range lives on a single level, flushing
    /// first. Useful for space reclamation and read-path benchmarks.
    ///
    /// # Errors
    ///
    /// Propagates flush/compaction I/O errors.
    pub fn compact_range(&self, start: &[u8], end: &[u8]) -> Result<()> {
        self.flush()?;
        let inner = &*self.inner;
        // After the push-down loop drains, one final in-place rewrite of
        // the range's bottommost files drops tombstones that already sat
        // at the bottom (RocksDB's bottommost-files pass). A single pass
        // guarantees termination.
        let mut rewrite_done = false;
        let mut state = inner.state.lock();
        loop {
            // One manual job at a time, once background work has drained.
            inner.wait_until(
                &mut state,
                |_, _| Ok(()),
                |state| state.running_compactions == 0 && state.running_flushes == 0,
            )?;
            let c = match pick_range_compaction(&state.version, start, end) {
                Some(c) => c,
                None if !rewrite_done => {
                    rewrite_done = true;
                    match pick_bottommost_rewrite(&state.version, start, end) {
                        Some(c) => c,
                        None => return Ok(()),
                    }
                }
                None => return Ok(()),
            };
            let job = inner.claim_compaction(&mut state, CompactionPick::Merge(c));
            if inner.runtime.is_some() {
                // Manual compaction runs on the calling thread, like
                // RocksDB's CompactRange; automatic jobs keep their workers.
                drop(state);
                inner.run_job(job)?;
                state = inner.state.lock();
            } else {
                let now = inner.env.clock().now();
                inner.schedule_job(&mut state, now, job)?;
            }
        }
    }

    /// Takes an online checkpoint: a point-in-time, openable copy of the
    /// database under `dir/` on the same VFS, built from hard links so no
    /// SST bytes are duplicated. The source keeps serving reads and
    /// writes throughout; writes acknowledged before this call are
    /// guaranteed to be in the checkpoint (the memtable is flushed
    /// first), concurrent writes may or may not be.
    ///
    /// The checkpoint is published by writing `dir/CURRENT` last with the
    /// usual tmp + sync + rename discipline: a crash mid-checkpoint
    /// leaves a directory without `CURRENT`, which is incomplete by
    /// definition and never mistaken for a valid database copy. Restoring
    /// is just opening the checkpoint, e.g. with a
    /// [`NamespaceVfs`](crate::NamespaceVfs) prefixed `"{dir}/"`.
    ///
    /// # Errors
    ///
    /// Propagates flush and I/O errors; `dir` must not already hold a
    /// checkpoint (links refuse to overwrite).
    pub fn checkpoint(&self, dir: &str) -> Result<()> {
        let vfs = Arc::clone(&self.inner.vfs);
        self.checkpoint_via(vfs, "", &format!("{dir}/"))
    }

    /// Checkpoint body shared with the sharded fan-out: links every live
    /// SST from `src_prefix` to `dst_prefix` on `base` and writes a fresh
    /// manifest + OPTIONS + CURRENT under `dst_prefix`.
    pub(crate) fn checkpoint_via(
        &self,
        base: Arc<dyn Vfs>,
        src_prefix: &str,
        dst_prefix: &str,
    ) -> Result<()> {
        // Everything acknowledged so far lands in SSTs.
        self.flush()?;
        let inner = &*self.inner;
        // Capture the version and sequence together under the lock. The
        // `Arc<Version>` pins every referenced SST: `sweep_obsolete` only
        // deletes a file once its metadata Arc has no other holders, and
        // this version holds one for each file until the links are made.
        let (version, last_seq) = {
            let state = inner.state.lock();
            (Arc::clone(&state.version), state.last_seq)
        };

        let mut max_file = 0u64;
        for level in 0..version.num_levels() {
            for f in version.files(level) {
                max_file = max_file.max(f.number.0);
                let name = sst_file_name(f.number);
                base.link(
                    &format!("{src_prefix}{name}"),
                    &format!("{dst_prefix}{name}"),
                )?;
            }
        }

        // A fresh manifest holding one full snapshot of the level
        // structure, exactly like recovery writes after replay.
        let target = NamespaceVfs::new(Arc::clone(&base), dst_prefix.to_string());
        let next_file = max_file + 1;
        let mut snapshot = VersionEdit {
            log_number: Some(next_file),
            next_file_number: Some(next_file + 1),
            last_sequence: Some(last_seq),
            ..VersionEdit::default()
        };
        for level in 0..version.num_levels() {
            for f in version.files(level) {
                snapshot.added_files.push((level, Arc::clone(f)));
            }
        }
        let mut manifest = WalWriter::new(target.create(&manifest_file_name(1))?);
        manifest.add_record(&snapshot.encode())?;
        manifest.sync()?;
        drop(manifest);
        write_options_file(&target, &inner.opts())?;
        // Publication point: CURRENT appears only over a synced manifest.
        write_current(&target, &manifest_file_name(1))
    }

    /// Blocks (advancing virtual time) until all background work is done.
    ///
    /// # Errors
    ///
    /// Propagates background job errors.
    pub fn wait_background_idle(&self) -> Result<()> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        inner.wait_until(
            &mut state,
            |_, _| Ok(()),
            |state| {
                state.running_flushes == 0
                    && state.running_compactions == 0
                    && !inner.has_claimable_work(state)
            },
        )
    }

    /// The write regime the controller would choose for a write issued
    /// right now.
    ///
    /// This is a live query of the current pressure state, not the
    /// regime recorded by the last write: a caller that pauses its own
    /// writes (e.g. a server gating socket reads during a stall) still
    /// sees the regime clear once background work catches up.
    pub fn write_regime(&self) -> WriteRegime {
        let inner = &*self.inner;
        let state = inner.state.lock();
        inner.controller.read().regime(&inner.pressure(&state))
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> DbStats {
        let inner = &*self.inner;
        let state = inner.state.lock();
        let levels = (0..state.version.num_levels())
            .map(|l| (state.version.files(l).len(), state.version.level_bytes(l)))
            .collect();
        let memtable_bytes = state.mem.approximate_memory_usage() as u64 + state.imm_bytes();
        let cache_snap = inner
            .block_cache
            .as_ref()
            .map(|c| c.snapshot())
            .unwrap_or_default();
        DbStats {
            tickers: inner.stats.tickers().snapshot(),
            levels,
            memtable_bytes,
            immutable_memtables: state.imm.len(),
            block_cache: cache_snap.stats,
            block_cache_capacity: cache_snap.capacity,
            pending_compaction_bytes: state.pending_compaction_bytes,
            running_background_jobs: state.running_flushes + state.running_compactions,
            last_sequence: state.last_seq,
            background_retries: inner
                .bg_retries
                .load(std::sync::atomic::Ordering::Relaxed),
            wal_rotations: inner
                .wal_rotations
                .load(std::sync::atomic::Ordering::Relaxed),
            manifest_resyncs: inner
                .manifest_resyncs
                .load(std::sync::atomic::Ordering::Relaxed),
            wal_sync_retries: inner
                .wal_sync_retries
                .load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Renders a RocksDB-style statistics dump: a `DB Stats` block, the
    /// per-level `Compaction Stats [default]` table, and one line per
    /// latency histogram.
    ///
    /// Works identically in both execution modes (the simulated clock
    /// reports wall time when the database runs in real-concurrency
    /// mode), so harness output is parseable either way.
    pub fn stats_text(&self) -> String {
        use std::fmt::Write as _;
        let inner = &*self.inner;
        let now = inner.env.clock().now();
        let uptime_secs = now.saturating_since(inner.opened_at).as_secs_f64().max(1e-9);
        let t = inner.stats.tickers();
        let mut out = String::new();

        // -- DB Stats ---------------------------------------------------
        // In real mode the leader appends a whole group with one vectored
        // WAL write, so `WalWrites` counts groups, not user writes;
        // `GroupCommitBatches` carries the user-write count there. Sim
        // mode commits each write individually (`GroupCommitBatches`
        // stays 0), so the WAL append count *is* the write count.
        let wal_writes = t.get(Ticker::WalWrites);
        let writes = match t.get(Ticker::GroupCommitBatches) {
            0 => wal_writes,
            b => b,
        };
        let keys = t.get(Ticker::KeysWritten);
        let groups = match t.get(Ticker::GroupCommits) {
            0 => writes,
            g => g,
        };
        let ingest = t.get(Ticker::BytesWritten);
        let wal_bytes = t.get(Ticker::WalBytes);
        let wal_syncs = t.get(Ticker::WalSyncs);
        let stall = SimDuration::from_nanos(t.get(Ticker::StallNanos));
        let stall_secs = stall.as_secs_f64();
        let _ = writeln!(out, "** DB Stats **");
        let _ = writeln!(out, "Uptime(secs): {uptime_secs:.1} total");
        let _ = writeln!(
            out,
            "Cumulative writes: {writes} writes, {keys} keys, {groups} commit groups, \
             {:.1} writes per commit group, ingest: {:.2} GB, {:.2} MB/s",
            writes as f64 / groups.max(1) as f64,
            ingest as f64 / GB,
            ingest as f64 / MB / uptime_secs,
        );
        let _ = writeln!(
            out,
            "Cumulative WAL: {wal_writes} writes, {wal_syncs} syncs, \
             {:.2} writes per sync, written: {:.2} GB",
            wal_writes as f64 / wal_syncs.max(1) as f64,
            wal_bytes as f64 / GB,
        );
        let _ = writeln!(
            out,
            "Cumulative stall: {}, {:.1} percent",
            format_hms(stall),
            100.0 * stall_secs / uptime_secs,
        );

        // -- Compaction Stats -------------------------------------------
        let per_level = {
            let state = inner.state.lock();
            let targets = level_targets(&inner.opts(), &state.version);
            state.version.compaction_stats(
                &inner.stats.level_io(),
                &targets,
                inner.opts().level0_file_num_compaction_trigger.max(1) as usize,
            )
        };
        let _ = writeln!(out, "\n** Compaction Stats [default] **");
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>12} {:>7} {:>9} {:>10} {:>6} {:>10} {:>9}",
            "Level", "Files", "Size", "Score", "Read(GB)", "Write(GB)", "W-Amp", "Comp(cnt)", "KeyDrop"
        );
        let _ = writeln!(out, "{}", "-".repeat(84));
        let mut sum = CompactionLevelStats::default();
        for ls in &per_level {
            sum.files += ls.files;
            sum.bytes += ls.bytes;
            sum.bytes_read += ls.bytes_read;
            sum.bytes_written += ls.bytes_written;
            sum.jobs += ls.jobs;
            sum.keys_dropped += ls.keys_dropped;
            let _ = writeln!(out, "{}", compaction_stats_row(&format!("L{}", ls.level), ls));
        }
        sum.write_amp = if sum.bytes_read > 0 {
            sum.bytes_written as f64 / sum.bytes_read as f64
        } else if sum.bytes_written > 0 {
            1.0
        } else {
            0.0
        };
        let _ = writeln!(out, "{}", compaction_stats_row("Sum", &sum));

        // -- Histograms -------------------------------------------------
        let _ = writeln!(out, "\n** Level latency histograms (micros) **");
        for kind in [
            HistogramKind::DbGet,
            HistogramKind::DbMultiGet,
            HistogramKind::DbWrite,
            HistogramKind::FlushTime,
            HistogramKind::CompactionTime,
            HistogramKind::SstReadMicros,
        ] {
            let h = inner.stats.histogram(kind);
            let _ = writeln!(
                out,
                "rocksdb.{} P50 : {:.2} P75 : {:.2} P99 : {:.2} P99.9 : {:.2} \
                 P99.99 : {:.2} P100 : {:.2} COUNT : {} AVG : {:.2} STDDEV : {:.2}",
                crate::stats::HISTOGRAM_NAMES[kind as usize],
                h.p50.as_micros_f64(),
                h.p75.as_micros_f64(),
                h.p99.as_micros_f64(),
                h.p999.as_micros_f64(),
                h.p9999.as_micros_f64(),
                h.max.as_micros_f64(),
                h.count,
                h.mean.as_micros_f64(),
                h.stddev.as_micros_f64(),
            );
        }
        out
    }
}

const KB: f64 = 1024.0;
const MB: f64 = 1024.0 * 1024.0;
const GB: f64 = 1024.0 * 1024.0 * 1024.0;

/// `H:M:S.millis` rendering used by the stall line of the stats dump.
fn format_hms(d: SimDuration) -> String {
    let total = d.as_secs_f64();
    let h = (total / 3600.0) as u64;
    let m = ((total % 3600.0) / 60.0) as u64;
    let s = total % 60.0;
    format!("{h:02}:{m:02}:{s:06.3} H:M:S")
}

/// A human-readable byte count as exactly two whitespace-separated
/// tokens (value and unit), keeping dump rows token-parseable.
fn format_size(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2} GB", b / GB)
    } else if b >= MB {
        format!("{:.2} MB", b / MB)
    } else {
        format!("{:.2} KB", b / KB)
    }
}

/// One aligned row of the `Compaction Stats [default]` table.
fn compaction_stats_row(label: &str, ls: &CompactionLevelStats) -> String {
    format!(
        "{label:>5} {:>8} {:>12} {:>7.2} {:>9.2} {:>10.2} {:>6.1} {:>10} {:>9}",
        ls.files,
        format_size(ls.bytes),
        ls.score,
        ls.bytes_read as f64 / GB,
        ls.bytes_written as f64 / GB,
        ls.write_amp,
        ls.jobs,
        ls.keys_dropped,
    )
}

fn memtable_bloom_bytes(opts: &Options) -> usize {
    (opts.write_buffer_size as f64 * opts.memtable_prefix_bloom_size_ratio) as usize
}

/// Builds a fresh active memtable from the current options: bloom sized
/// off the write buffer, and the configured bloom prefix length. Entry
/// count is estimated at ~128 bytes/entry so the derived probe count
/// tracks the actual bits-per-key budget.
fn new_memtable(opts: &Options) -> MemTable {
    MemTable::with_config(
        memtable_bloom_bytes(opts),
        (opts.write_buffer_size / 128).max(16) as usize,
        opts.prefix_extractor_len as usize,
    )
}

/// Finds the shallowest level with unclaimed files in `[start, end]`
/// worth pushing down one level (the selection behind `compact_range`,
/// shared by both execution modes).
fn pick_range_compaction(
    version: &Version,
    start: &[u8],
    end: &[u8],
) -> Option<crate::compaction::CompactionInputs> {
    let n = version.num_levels();
    for level in 0..n - 1 {
        let overlapping = version.overlapping_files(level, start, end);
        let unclaimed: Vec<_> = overlapping
            .into_iter()
            .filter(|f| !f.is_being_compacted())
            .collect();
        if unclaimed.is_empty() {
            continue;
        }
        // Already fully pushed down? Only compact if a deeper level
        // holds overlapping data or this is not the last populated
        // level in range.
        let deeper_has_data =
            (level + 1..n).any(|l| !version.overlapping_files(l, start, end).is_empty());
        if !deeper_has_data && level > 0 && version.files(0).is_empty() {
            continue;
        }
        let output_level = level + 1;
        let bottom = version.overlapping_files(output_level, start, end);
        if bottom.iter().any(|f| f.is_being_compacted()) {
            continue;
        }
        let mut inputs: Vec<(usize, Arc<FileMetadata>)> =
            unclaimed.into_iter().map(|f| (level, f)).collect();
        inputs.extend(bottom.into_iter().map(|f| (output_level, f)));
        return Some(crate::compaction::CompactionInputs {
            inputs,
            output_level,
            reason: crate::compaction::CompactionReason::LevelSize,
        });
    }
    None
}

/// Picks the deepest level holding files in `[start, end]` for an
/// in-place rewrite, so `compact_range` drops tombstones that already
/// sit at the bottom of the range (which the push-down loop never
/// touches again). Returns `None` when the range is empty or its files
/// are claimed by another compaction.
fn pick_bottommost_rewrite(
    version: &Version,
    start: &[u8],
    end: &[u8],
) -> Option<crate::compaction::CompactionInputs> {
    for level in (0..version.num_levels()).rev() {
        let files = version.overlapping_files(level, start, end);
        if files.is_empty() {
            continue;
        }
        if files.iter().any(|f| f.is_being_compacted()) {
            return None;
        }
        return Some(crate::compaction::CompactionInputs {
            inputs: files.into_iter().map(|f| (level, f)).collect(),
            output_level: level,
            reason: crate::compaction::CompactionReason::BottommostFiles,
        });
    }
    None
}

/// Main loop of a background pool worker.
///
/// Holds only a `Weak` database handle plus the shared signal state, so
/// the pool never keeps the database alive; the handle is re-upgraded
/// per cycle and dropped before idling.
fn background_worker(db: Weak<DbInner>, bg: Arc<BgShared>) {
    let mut seen = 0u64;
    while !bg.is_shutdown() {
        let Some(inner) = db.upgrade() else { return };
        let jobs_run = inner.run_background_cycle();
        drop(inner);
        if jobs_run == 0 {
            seen = bg.wait_for_work(seen, Duration::from_millis(50));
        }
    }
}

/// A background job claimed under the state lock: its inputs are marked
/// (memtable `flushing` flags, `being_compacted`) so no other claim can
/// take them, and its output parameters are frozen, so the build can run
/// with the lock released.
enum Job {
    Flush(FlushJob),
    Merge(MergeJob),
    /// FIFO: delete these L0 files outright.
    Drop(Vec<Arc<FileMetadata>>),
}

/// A claimed flush of one or more immutable memtables into one L0 table.
struct FlushJob {
    file_number: FileNumber,
    mems: Vec<Arc<MemTable>>,
    config: TableConfig,
    ctx: FilterContext,
}

/// A claimed merging compaction.
struct MergeJob {
    inputs: Vec<(usize, Arc<FileMetadata>)>,
    output_level: usize,
    bottommost: bool,
    target_file_size: u64,
    config: TableConfig,
    /// Filter + snapshot pins.
    ctx: FilterContext,
}

/// A job whose output files are written, waiting to be installed.
enum BuiltJob {
    Flush(FlushJob, FlushOutput),
    Merge(MergeJob, CompactionJobOutput),
    Drop(Vec<Arc<FileMetadata>>),
}

impl BuiltJob {
    /// The histogram that times this kind of job (FIFO drops are untimed).
    fn histogram(&self) -> Option<HistogramKind> {
        match self {
            BuiltJob::Flush(..) => Some(HistogramKind::FlushTime),
            BuiltJob::Merge(..) => Some(HistogramKind::CompactionTime),
            BuiltJob::Drop(_) => None,
        }
    }
}

fn table_metadata(number: FileNumber, table: &FinishedTable) -> Arc<FileMetadata> {
    Arc::new(FileMetadata::new(
        number,
        table.file_size,
        table.smallest.clone(),
        table.largest.clone(),
        table.properties.num_entries,
    ))
}

impl DbState {
    fn imm_bytes(&self) -> u64 {
        self.imm
            .iter()
            .map(|e| e.mem.approximate_memory_usage() as u64)
            .sum()
    }
}

impl DbInner {
    /// Records the current write regime and fires
    /// `on_stall_conditions_changed` exactly once per transition.
    fn note_regime(&self, current: WriteRegime) {
        let code = regime_code(current);
        let prev = self
            .last_regime
            .swap(code, std::sync::atomic::Ordering::Relaxed);
        if prev != code {
            let info = StallConditionsChanged {
                previous: regime_from_code(prev),
                current,
            };
            for l in &self.listeners {
                l.on_stall_conditions_changed(&info);
            }
        }
    }

    fn notify_flush_completed(&self, info: &FlushJobInfo) {
        for l in &self.listeners {
            l.on_flush_completed(info);
        }
    }

    fn notify_compaction_completed(&self, info: &CompactionJobInfo) {
        for l in &self.listeners {
            l.on_compaction_completed(info);
        }
    }

    fn table_config(&self) -> TableConfig {
        let opts = self.opts();
        let prefix_len = opts.prefix_extractor_len as usize;
        TableConfig {
            block_size: opts.block_size as usize,
            restart_interval: opts.block_restart_interval.max(1) as usize,
            compression: opts.compression,
            // A filter is built when either key form is enabled; with
            // whole-key filtering off and no prefix extractor there is
            // nothing to add, matching the historical behavior.
            bloom_bits_per_key: if opts.whole_key_filtering || prefix_len > 0 {
                opts.bloom_filter_bits_per_key
            } else {
                0.0
            },
            whole_key_filtering: opts.whole_key_filtering,
            prefix_len,
            index_two_level: opts.index_type == crate::options::IndexType::TwoLevel,
            metadata_block_size: opts.metadata_block_size as usize,
        }
    }

    fn bottom_table_config(&self) -> TableConfig {
        let mut c = self.table_config();
        c.compression = self.opts().effective_bottommost_compression();
        if self.opts().optimize_filters_for_hits {
            c.bloom_bits_per_key = 0.0;
        }
        c
    }

    /// Slowdown applied to foreground CPU when background jobs occupy
    /// cores.
    fn foreground_contention(&self, now: SimTime) -> f64 {
        let cores = self.env.cpu().num_cores().max(1);
        let busy = self.env.cpu().busy_cores(now).min(cores);
        1.0 + 0.6 * busy as f64 / cores as f64
    }

    fn pressure(&self, state: &DbState) -> WritePressure {
        let mut pending = state.pending_compaction_bytes;
        if let Some(ctx) = &self.shard {
            // Publish this shard's compaction debt and charge everyone
            // else's back, so one hot shard slows all writers instead of
            // racing ahead of the shared background budget.
            let mut local = pending;
            let limit = self.opts().shard_bytes_soft_limit;
            if limit > 0 {
                local = local.saturating_add(state.version.total_bytes().saturating_sub(limit));
            }
            pending = pending.saturating_add(ctx.publish_debt_and_sum_peers(local));
        }
        WritePressure {
            l0_files: state.version.files(0).len(),
            immutable_memtables: state.imm.len(),
            total_memtables: state.imm.len() + 1,
            pending_compaction_bytes: pending,
        }
    }

    fn account_memory(&self, state: &DbState) {
        let mem_bytes = state.mem.approximate_memory_usage() as u64 + state.imm_bytes();
        self.env.memory().set_usage(MemoryUser::Memtables, mem_bytes);
        if let Some(c) = &self.block_cache {
            self.env.memory().set_usage(MemoryUser::BlockCache, c.used_bytes());
        }
    }

    fn alloc_file_number(&self, state: &mut DbState) -> FileNumber {
        let n = state.next_file;
        state.next_file += 1;
        FileNumber(n)
    }

    /// Appends one record to the manifest and syncs it, re-driving each
    /// step a bounded number of times on transient (retryable) errors.
    ///
    /// The append is atomic at the VFS layer (one buffered write per
    /// frame), so retrying it cannot duplicate an edit; a failed sync
    /// persisted nothing, so re-syncing is always safe.
    fn log_manifest(&self, manifest: &mut WalWriter, record: &[u8]) -> Result<()> {
        let mut attempts = 0u32;
        loop {
            match manifest.add_record(record) {
                Ok(_) => break,
                Err(e) if e.is_retryable() && attempts < MANIFEST_RETRIES => {
                    attempts += 1;
                    self.manifest_resyncs
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
        let mut attempts = 0u32;
        loop {
            match manifest.sync() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_retryable() && attempts < MANIFEST_RETRIES => {
                    attempts += 1;
                    self.manifest_resyncs
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Rotates to a fresh WAL file after a transient append failure.
    ///
    /// `mem_wal_number` is left untouched: it names the *oldest* log
    /// holding data for the active memtable, which still includes the
    /// pre-rotation file, so WAL GC keeps both until the next flush.
    fn rotate_wal(&self, state: &mut DbState) -> Result<()> {
        let wal_number = state.next_file;
        state.next_file += 1;
        state.wal = Some(WalWriter::new(self.vfs.create(&wal_file_name(wal_number))?));
        state.wals_on_disk.push(wal_number);
        self.wal_rotations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    fn switch_memtable(&self, state: &mut DbState) -> Result<()> {
        if state.mem.is_empty() {
            return Ok(());
        }
        // Readers hold their own `Arc` to the old memtable; swapping the
        // state pointer never blocks them.
        let old = std::mem::replace(&mut state.mem, Arc::new(new_memtable(&self.opts())));
        let old_wal = state.mem_wal_number;
        state.imm.push(ImmEntry {
            mem: old,
            wal_number: old_wal,
            flushing: false,
        });

        // New WAL file for the new memtable generation.
        if !self.opts().disable_wal {
            let wal_number = state.next_file;
            state.next_file += 1;
            state.wal = Some(WalWriter::new(self.vfs.create(&wal_file_name(wal_number))?));
            state.wals_on_disk.push(wal_number);
            state.mem_wal_number = wal_number;
        }
        self.account_memory(state);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Real-concurrency mode: group commit
    // -----------------------------------------------------------------

    /// Commits a leader-drained group: one stall check, one sequence
    /// reservation, one WAL append (and at most one sync), one memtable
    /// application, all under a single state critical section. The
    /// caller releases the group's writers once this returns.
    fn commit_group(&self, rt: &Runtime, group: &mut [(u64, PreparedWrite)]) -> Result<()> {
        let mut state = self.state.lock();
        let group_bytes: u64 = group.iter().map(|(_, p)| p.record.len() as u64).sum();
        self.real_wait_writable(rt, &mut state, group_bytes)?;

        // Reserve sequences and stamp them into the prepared batches.
        let first_seq = state.last_seq + 1;
        let mut seq = first_seq;
        let mut group_sync = false;
        for (_, prepared) in group.iter_mut() {
            prepared.patch_seq(seq);
            seq += prepared.count;
            group_sync |= prepared.sync;
        }
        let last_seq = seq - 1;
        state.last_seq = last_seq;

        // One buffered append for the whole group. The append is atomic
        // at the VFS layer, so a *transient* failure leaves the log at a
        // clean frame boundary: rotate to a fresh WAL, fail only this
        // group, and keep the database alive. Anything else is fatal —
        // later appends after a torn record would be silently dropped by
        // recovery. A failed group publishes nothing; readers simply
        // skip the abandoned sequence range.
        if !self.opts().disable_wal {
            let records: Vec<&[u8]> = group.iter().map(|(_, p)| p.record.as_slice()).collect();
            let wal = state.wal.as_mut().expect("wal enabled");
            match wal.add_records(&records) {
                Ok(appended) => {
                    self.stats.tickers().add(Ticker::WalBytes, appended);
                    self.stats.tickers().inc(Ticker::WalWrites);
                    // Under the state lock: ship order is commit order.
                    if let Some(sink) = &self.wal_sink {
                        sink.ship(first_seq, last_seq, group_sync, &records);
                    }
                }
                Err(e) if e.is_retryable() => {
                    if let Err(rot) = self.rotate_wal(&mut state) {
                        rt.set_fatal(rot);
                    }
                    return Err(e);
                }
                Err(e) => {
                    rt.set_fatal(e.clone());
                    return Err(e);
                }
            }
        }

        if self.opts().enable_pipelined_write {
            // Pipelined visibility: entries become visible before the
            // sync returns (visibility before durability, as in RocksDB).
            self.apply_group_to_memtable(&state, group);
            rt.publish_visible(last_seq);
            self.real_sync_wal(rt, &mut state, group_sync)?;
        } else {
            self.real_sync_wal(rt, &mut state, group_sync)?;
            self.apply_group_to_memtable(&state, group);
            rt.publish_visible(last_seq);
        }
        self.stats.tickers().inc(Ticker::GroupCommits);
        self.stats.tickers().add(Ticker::GroupCommitBatches, group.len() as u64);
        self.real_post_commit(rt, &mut state, group.len() as u64)?;
        drop(state);
        // Replica durability before the ack, with the engine state lock
        // released: the wait spans a follower network round trip (and,
        // for a dying follower, the sink's full ack timeout), which must
        // not stall readers or background work. The caller releases this
        // group's writers only after commit_group returns, so the ack
        // still happens-after replica durability.
        if group_sync {
            if let Some(sink) = &self.wal_sink {
                sink.wait_durable(last_seq);
            }
        }
        Ok(())
    }

    /// Memtable switch triggers and periodic memory accounting after a
    /// commit group (mirrors the sim write path).
    fn real_post_commit(
        &self,
        rt: &Runtime,
        state: &mut MutexGuard<'_, DbState>,
        batches: u64,
    ) -> Result<()> {
        let mem_bytes = state.mem.approximate_memory_usage() as u64;
        let wal_total: u64 = state.wal.as_ref().map(|w| w.bytes_written()).unwrap_or(0);
        let db_buffer_full = self.opts().db_write_buffer_size > 0
            && mem_bytes + state.imm_bytes() > self.opts().db_write_buffer_size;
        if mem_bytes >= self.opts().write_buffer_size
            || wal_total >= self.opts().effective_max_total_wal_size()
            || db_buffer_full
        {
            if let Err(e) = self.switch_memtable(state) {
                rt.set_fatal(e.clone());
                return Err(e);
            }
            rt.bg.kick();
        }

        state.writes_since_account += batches;
        if state.writes_since_account >= 1024 {
            state.writes_since_account = 0;
            self.account_memory(state);
        }
        Ok(())
    }

    /// Blocks the leader while the write controller reports pressure,
    /// waiting on background-completion signals instead of spinning.
    fn real_wait_writable(
        &self,
        rt: &Runtime,
        state: &mut MutexGuard<'_, DbState>,
        group_bytes: u64,
    ) -> Result<()> {
        let mut stopped_for = Duration::ZERO;
        loop {
            let regime = self.controller.read().regime(&self.pressure(state));
            self.note_regime(regime);
            match regime {
                WriteRegime::Normal => return Ok(()),
                WriteRegime::Delayed => {
                    self.stats.tickers().inc(Ticker::WriteSlowdowns);
                    rt.bg.kick();
                    let delay = Duration::from_nanos(
                        self.controller.read().delay_for(group_bytes).as_nanos(),
                    )
                    .min(Duration::from_millis(100));
                    let start = std::time::Instant::now();
                    rt.done_cv.wait_for(state, delay);
                    self.stats
                        .tickers()
                        .add(Ticker::StallNanos, start.elapsed().as_nanos() as u64);
                    return Ok(());
                }
                WriteRegime::Stopped => {
                    self.stats.tickers().inc(Ticker::WriteStops);
                    if stopped_for >= REAL_STALL_TIMEOUT {
                        return Err(Error::busy("write stall did not clear"));
                    }
                    rt.bg.kick();
                    let start = std::time::Instant::now();
                    rt.done_cv.wait_for(state, Duration::from_millis(100));
                    let waited = start.elapsed();
                    stopped_for += waited;
                    self.stats.tickers().add(Ticker::StallNanos, waited.as_nanos() as u64);
                }
            }
        }
    }

    /// Syncs the WAL if the group asked for it (or `wal_bytes_per_sync`
    /// is due). A failed sync persisted nothing, so transient errors are
    /// re-driven a bounded number of times; a persistent failure is
    /// fatal: the writes were already acknowledged as appended.
    fn real_sync_wal(&self, rt: &Runtime, state: &mut DbState, group_sync: bool) -> Result<()> {
        if self.opts().disable_wal {
            return Ok(());
        }
        let per_sync = self.opts().wal_bytes_per_sync;
        let wal = state.wal.as_mut().expect("wal enabled");
        if group_sync || (per_sync > 0 && wal.bytes_since_sync() >= per_sync) {
            let mut attempts = 0u32;
            loop {
                match wal.sync() {
                    Ok(()) => break,
                    Err(e) if e.is_retryable() && attempts < WAL_SYNC_RETRIES => {
                        attempts += 1;
                        self.wal_sync_retries
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(1 << attempts));
                    }
                    Err(e) => {
                        rt.set_fatal(e.clone());
                        return Err(e);
                    }
                }
            }
            self.stats.tickers().inc(Ticker::WalSyncs);
        }
        Ok(())
    }

    /// Replays a group's prepared records into the active memtable.
    fn apply_group_to_memtable(&self, state: &DbState, group: &[(u64, PreparedWrite)]) {
        let mut keys = 0u64;
        let mut payload = 0u64;
        let mut scratch = Vec::new();
        for (_, prepared) in group.iter() {
            keys += prepared.count;
            payload += prepared.payload_bytes;
            prepared.apply_to(&state.mem, &mut scratch);
        }
        self.stats.tickers().add(Ticker::KeysWritten, keys);
        self.stats.tickers().add(Ticker::BytesWritten, payload);
    }

    // -----------------------------------------------------------------
    // Background jobs: claim -> build -> install, in both modes
    // -----------------------------------------------------------------

    /// The memtables the next flush takes: the oldest
    /// `min_write_buffer_number_to_merge` not already flushing, once that
    /// many wait or the write path is blocked on memtable count. `None`
    /// when every flush slot is busy or nothing qualifies.
    fn pick_flush(&self, state: &DbState) -> Option<Vec<Arc<MemTable>>> {
        let opts = self.opts();
        if state.running_flushes >= opts.effective_max_flushes() {
            return None;
        }
        let min_merge = opts.min_write_buffer_number_to_merge.max(1) as usize;
        let waiting = state.imm.iter().filter(|e| !e.flushing);
        let n = waiting.clone().count();
        // Flush when enough memtables accumulated, or when the write path
        // is blocked on memtable count (can't wait for more).
        let forced = state.imm.len() + 1 > opts.max_write_buffer_number as usize;
        if n == 0 || (n < min_merge && !forced) {
            return None;
        }
        Some(waiting.take(min_merge).map(|e| Arc::clone(&e.mem)).collect())
    }

    /// Claims the next flush, if one is due.
    fn claim_flush(&self, state: &mut DbState) -> Option<Job> {
        let mems = self.pick_flush(state)?;
        for entry in state.imm.iter_mut() {
            if mems.iter().any(|m| Arc::ptr_eq(m, &entry.mem)) {
                entry.flushing = true;
            }
        }
        state.running_flushes += 1;
        Some(Job::Flush(FlushJob {
            file_number: self.alloc_file_number(state),
            mems,
            config: self.table_config(),
            ctx: self.filter_context(),
        }))
    }

    /// The next automatic compaction, when auto compactions are on and a
    /// compaction slot is free.
    fn pick_auto_compaction(&self, state: &DbState) -> Option<CompactionPick> {
        let opts = self.opts();
        if opts.disable_auto_compactions
            || state.running_compactions >= opts.effective_max_compactions()
        {
            return None;
        }
        pick_compaction(&opts, &state.version)
    }

    /// Claims a picked compaction (automatic or manual).
    fn claim_compaction(&self, state: &mut DbState, pick: CompactionPick) -> Job {
        state.running_compactions += 1;
        let c = match pick {
            CompactionPick::Drop { files, .. } => {
                for f in &files {
                    f.set_being_compacted(true);
                }
                return Job::Drop(files);
            }
            CompactionPick::Merge(c) => c,
        };
        for (_, f) in &c.inputs {
            f.set_being_compacted(true);
        }
        let opts = self.opts();
        let bottommost = crate::compaction::can_drop_tombstones(&state.version, &c);
        let target_file_size = opts.target_file_size_base.max(64 << 10)
            * (opts.target_file_size_multiplier.max(1) as u64)
                .pow(c.output_level.saturating_sub(1) as u32);
        let config = if bottommost {
            self.bottom_table_config()
        } else {
            self.table_config()
        };
        Job::Merge(MergeJob {
            inputs: c.inputs,
            output_level: c.output_level,
            bottommost,
            target_file_size,
            config,
            ctx: self.filter_context(),
        })
    }

    /// Claims the next automatic compaction, if one is due.
    fn claim_auto_compaction(&self, state: &mut DbState) -> Option<Job> {
        let pick = self.pick_auto_compaction(state)?;
        Some(self.claim_compaction(state, pick))
    }

    /// Claims the next job a background slot should run: a flush first
    /// (it relieves write stalls), then an automatic compaction.
    fn claim_job(&self, state: &mut DbState) -> Option<Job> {
        self.claim_flush(state)
            .or_else(|| self.claim_auto_compaction(state))
    }

    /// Whether a job could be claimed right now (used by idle waits).
    fn has_claimable_work(&self, state: &DbState) -> bool {
        self.pick_flush(state).is_some() || self.pick_auto_compaction(state).is_some()
    }

    /// Runs `f` on the state: the caller's, when it already holds the
    /// lock (sim mode), or under a short lock of its own (real mode).
    fn with_state<R>(
        &self,
        held: &mut Option<&mut DbState>,
        f: impl FnOnce(&mut DbState) -> R,
    ) -> R {
        match held {
            Some(state) => f(state),
            None => f(&mut self.state.lock()),
        }
    }

    /// Writes a claimed job's output files and records the job's tickers
    /// and per-level I/O. On failure the claim is released (by pointer
    /// for memtables), so the same work can be claimed again.
    fn build(&self, job: Job, mut held: Option<&mut DbState>) -> Result<BuiltJob> {
        match job {
            Job::Flush(job) => {
                let built = build_l0_table(
                    self.vfs.as_ref(),
                    job.file_number,
                    &job.mems,
                    job.config.clone(),
                    &job.ctx,
                );
                match built {
                    Ok(output) => {
                        let size = output.table.file_size;
                        self.stats.tickers().inc(Ticker::FlushJobs);
                        self.stats.tickers().add(Ticker::FlushBytesWritten, size);
                        self.stats.add_level_io(0, 0, size, output.entries_dropped);
                        Ok(BuiltJob::Flush(job, output))
                    }
                    Err(e) => {
                        let _ = self.vfs.delete(&sst_file_name(job.file_number));
                        self.with_state(&mut held, |state| {
                            for entry in state.imm.iter_mut() {
                                if job.mems.iter().any(|m| Arc::ptr_eq(m, &entry.mem)) {
                                    entry.flushing = false;
                                }
                            }
                            state.running_flushes -= 1;
                        });
                        Err(e)
                    }
                }
            }
            Job::Merge(job) => {
                let files: Vec<Arc<FileMetadata>> =
                    job.inputs.iter().map(|(_, f)| Arc::clone(f)).collect();
                let built = run_compaction(
                    self.vfs.as_ref(),
                    &files,
                    job.bottommost,
                    job.target_file_size,
                    &job.config,
                    &job.ctx,
                    || self.with_state(&mut held, |state| self.alloc_file_number(state)),
                );
                match built {
                    Ok(output) => {
                        let keys_dropped = output.entries_read - output.entries_written;
                        let tickers = self.stats.tickers();
                        tickers.inc(Ticker::CompactionJobs);
                        tickers.add(Ticker::CompactionBytesRead, output.bytes_read);
                        tickers.add(Ticker::CompactionBytesWritten, output.bytes_written);
                        tickers.add(Ticker::CompactionKeyDropped, keys_dropped);
                        self.stats.add_level_io(
                            job.output_level,
                            output.bytes_read,
                            output.bytes_written,
                            keys_dropped,
                        );
                        Ok(BuiltJob::Merge(job, output))
                    }
                    Err(e) => {
                        self.with_state(&mut held, |state| {
                            for (_, f) in &job.inputs {
                                f.set_being_compacted(false);
                            }
                            state.running_compactions -= 1;
                        });
                        Err(e)
                    }
                }
            }
            Job::Drop(files) => Ok(BuiltJob::Drop(files)),
        }
    }

    /// Installs a built job: logs its version edit and applies it,
    /// garbage-collects WALs and drops the flushed memtables (flush),
    /// retires the inputs (compaction), then updates the counters and
    /// notifies listeners.
    fn install(&self, state: &mut DbState, built: BuiltJob) -> Result<()> {
        match built {
            BuiltJob::Flush(job, output) => {
                // Remove exactly the memtables this job flushed, by
                // pointer: concurrent flushes may finish out of order.
                state
                    .imm
                    .retain(|e| !job.mems.iter().any(|m| Arc::ptr_eq(m, &e.mem)));
                // WALs older than every live memtable can go.
                let min_wal = state
                    .imm
                    .iter()
                    .map(|e| e.wal_number)
                    .fold(state.mem_wal_number, u64::min);
                let mut edit = VersionEdit {
                    log_number: Some(min_wal),
                    next_file_number: Some(state.next_file),
                    last_sequence: Some(state.last_seq),
                    ..VersionEdit::default()
                };
                edit.added_files
                    .push((0, table_metadata(job.file_number, &output.table)));
                self.apply_edit(state, &edit)?;
                state.wals_on_disk.retain(|n| {
                    if *n < min_wal {
                        let _ = self.vfs.delete(&wal_file_name(*n));
                        false
                    } else {
                        true
                    }
                });
                state.running_flushes -= 1;
                state.pending_compaction_bytes =
                    pending_compaction_bytes(&self.opts(), &state.version);
                self.account_memory(state);
                self.sweep_obsolete(state);
                self.notify_flush_completed(&FlushJobInfo {
                    file_number: job.file_number,
                    file_size: output.table.file_size,
                    num_entries: output.table.properties.num_entries,
                    memtables_merged: job.mems.len(),
                });
            }
            BuiltJob::Merge(job, output) => {
                let mut edit = VersionEdit {
                    next_file_number: Some(state.next_file),
                    last_sequence: Some(state.last_seq),
                    ..VersionEdit::default()
                };
                for (level, f) in &job.inputs {
                    edit.deleted_files.push((*level, f.number));
                }
                for (number, table) in &output.files {
                    edit.added_files
                        .push((job.output_level, table_metadata(*number, table)));
                }
                self.apply_edit(state, &edit)?;
                let info = CompactionJobInfo {
                    output_level: job.output_level,
                    input_files: job.inputs.len(),
                    output_files: output.files.len(),
                    bytes_read: output.bytes_read,
                    bytes_written: output.bytes_written,
                    keys_dropped: output.entries_read - output.entries_written,
                };
                self.retire(state, job.inputs.into_iter().map(|(_, f)| f));
                state.pending_compaction_bytes =
                    pending_compaction_bytes(&self.opts(), &state.version);
                self.notify_compaction_completed(&info);
            }
            BuiltJob::Drop(files) => {
                let mut edit = VersionEdit::default();
                for f in &files {
                    edit.deleted_files.push((0, f.number));
                }
                self.apply_edit(state, &edit)?;
                self.retire(state, files);
            }
        }
        Ok(())
    }

    /// Logs `edit` to the manifest and installs the resulting version.
    /// A failure here (after bounded in-place retries) is not retryable:
    /// the job's inputs are already consumed, so re-running it cannot
    /// help.
    fn apply_edit(&self, state: &mut DbState, edit: &VersionEdit) -> Result<()> {
        self.log_manifest(&mut state.manifest, &edit.encode())
            .map_err(|e| e.retryable(false))?;
        state.version = Arc::new(state.version.apply(edit)?);
        Ok(())
    }

    /// Releases a finished compaction's inputs into the obsolete list
    /// and deletes every one no reader still holds.
    fn retire(&self, state: &mut DbState, inputs: impl IntoIterator<Item = Arc<FileMetadata>>) {
        for f in inputs {
            f.set_being_compacted(false);
            state.obsolete_files.push(f);
        }
        state.running_compactions -= 1;
        self.sweep_obsolete(state);
    }

    /// Physically deletes obsolete SSTs whose only remaining reference
    /// is the obsolete list itself (no version or in-flight reader can
    /// still open them).
    fn sweep_obsolete(&self, state: &mut DbState) {
        let pending = std::mem::take(&mut state.obsolete_files);
        for f in pending {
            if Arc::strong_count(&f) == 1 {
                let _ = self.vfs.delete(&sst_file_name(f.number));
                self.release_table_readers(self.table_cache.evict(f.number));
                self.stats.tickers().inc(Ticker::FilesDeleted);
            } else {
                state.obsolete_files.push(f);
            }
        }
    }

    /// Blocks until `done` holds for the state. Real mode kicks the pool
    /// and waits on background completions. Sim mode installs the events
    /// due by now, lets `schedule` start work, and advances virtual time
    /// to the next completion; it also returns once nothing is in flight.
    fn wait_until(
        &self,
        state: &mut MutexGuard<'_, DbState>,
        mut schedule: impl FnMut(&mut DbState, SimTime) -> Result<()>,
        done: impl Fn(&DbState) -> bool,
    ) -> Result<()> {
        loop {
            if let Some(rt) = &self.runtime {
                if let Some(e) = rt.fatal_error() {
                    return Err(e);
                }
                if done(state) {
                    return Ok(());
                }
                rt.bg.kick();
                rt.done_cv.wait_for(state, REAL_WAIT_SLICE);
                continue;
            }
            let now = self.env.clock().now();
            self.pump_events(state, now)?;
            schedule(state, now)?;
            if done(state) {
                return Ok(());
            }
            let Some(next) = state.events.peek().map(|e| e.at) else {
                return Ok(());
            };
            self.env.clock().advance_to(next);
        }
    }

    // -----------------------------------------------------------------
    // Real-concurrency mode: background job pool
    // -----------------------------------------------------------------

    /// Claims and runs background jobs until none are claimable.
    /// Returns how many jobs ran.
    fn run_background_cycle(&self) -> usize {
        let rt = self.runtime.as_ref().expect("real mode");
        let mut jobs_run = 0;
        let mut consecutive_failures = 0u32;
        while !rt.bg.is_shutdown() {
            // Once the database is latched fatal, re-claiming work would
            // spin on the same failing job; leave everything parked.
            if rt.fatal_error().is_some() {
                break;
            }
            // Sharded databases share one global job budget: take a permit
            // before claiming so N shards respect one `max_background_jobs`
            // limit, and hand it back (kicking a peer) once the job lands.
            if let Some(ctx) = &self.shard {
                if !ctx.try_acquire_job() {
                    break;
                }
            }
            let job = self.claim_job(&mut self.state.lock());
            let Some(job) = job else {
                // Quiet release: nothing ran, so waking peers for this
                // permit would only restart their own empty claims.
                if let Some(ctx) = &self.shard {
                    ctx.release_job(false);
                }
                break;
            };
            let result = self.run_job(job);
            if let Some(ctx) = &self.shard {
                ctx.release_job(true);
            }
            match result {
                Ok(()) => consecutive_failures = 0,
                // A retryable build failure already released its claim,
                // so the same work is claimable again: park briefly with
                // exponential backoff and re-claim instead of latching
                // the fatal state.
                Err(e) if e.is_retryable() && !rt.bg.is_shutdown() => {
                    consecutive_failures += 1;
                    self.bg_retries
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(
                        1u64 << consecutive_failures.min(6),
                    ));
                }
                Err(e) => rt.set_fatal(e),
            }
            jobs_run += 1;
            // Completion may unblock stalled writers and unlock further
            // claims (all waits use timeouts, so notifying without the
            // state mutex held cannot lose a wakeup permanently).
            rt.done_cv.notify_all();
            rt.bg.kick();
        }
        jobs_run
    }

    /// Builds a claimed job on the calling thread, without the state
    /// lock, then installs it under the lock.
    fn run_job(&self, job: Job) -> Result<()> {
        let started = self.env.clock().now();
        let built = self.build(job, None)?;
        if let Some(h) = built.histogram() {
            self.stats
                .record(h, self.env.clock().now().saturating_since(started));
        }
        self.install(&mut self.state.lock(), built)
    }

    // -----------------------------------------------------------------
    // Simulation mode: cost model and event queue
    // -----------------------------------------------------------------

    fn push_event(&self, state: &mut DbState, at: SimTime, job: BuiltJob) {
        state.event_seq += 1;
        let seq = state.event_seq;
        state.events.push(Event { at, seq, job });
    }

    fn maybe_schedule_flush(&self, state: &mut DbState, now: SimTime) -> Result<()> {
        while let Some(job) = self.claim_flush(state) {
            self.schedule_job(state, now, job)?;
        }
        Ok(())
    }

    fn maybe_schedule_compaction(&self, state: &mut DbState, now: SimTime) -> Result<()> {
        while let Some(job) = self.claim_auto_compaction(state) {
            self.schedule_job(state, now, job)?;
        }
        Ok(())
    }

    /// Builds a claimed job now and queues its install at the instant the
    /// cost model says it completes.
    fn schedule_job(&self, state: &mut DbState, now: SimTime, job: Job) -> Result<()> {
        let built = self.build(job, Some(state))?;
        let at = self.completion_time(now, &built);
        if let Some(h) = built.histogram() {
            self.stats.record(h, at.saturating_since(now));
        }
        self.push_event(state, at, built);
        Ok(())
    }

    /// When a job started at `now` completes: its CPU and device time on
    /// the shared hardware, the rate limiter's floor, and the memory
    /// pressure penalty.
    fn completion_time(&self, now: SimTime, built: &BuiltJob) -> SimTime {
        let opts = self.opts();
        let (start, mut end, limited_bytes) = match built {
            BuiltJob::Drop(_) => return now + SimDuration::from_micros(500),
            BuiltJob::Flush(_, output) => {
                let table = &output.table;
                let cpu_cost = SimDuration::from_secs_f64(
                    table.properties.raw_bytes as f64 / self.cost.flush_cpu_bps,
                ) + table.compression_cpu;
                let slot = self.env.cpu().run(now, cpu_cost);
                let io_done = self.submit_background_write(slot.start, table.file_size);
                (slot.start, slot.end.max(io_done), table.file_size)
            }
            BuiltJob::Merge(job, output) => {
                // Chunked reads (readahead), chunked writes, merge CPU
                // split across subcompactions.
                let readahead = opts.compaction_readahead_size.max(64 << 10);
                let read_pattern = if self.env.device().model().class.is_rotational() {
                    AccessPattern::Random // one seek per readahead chunk
                } else {
                    AccessPattern::Sequential
                };
                let subs = (opts.max_subcompactions.max(1) as usize)
                    .min(job.inputs.len())
                    .max(1);
                let cpu_total = SimDuration::from_secs_f64(
                    output.bytes_read as f64 / self.cost.compaction_cpu_bps,
                ) + SimDuration::from_nanos(
                    output.entries_read * self.cost.compaction_entry_cpu.as_nanos(),
                ) + output.compression_cpu
                    + if opts.compression != crate::options::CompressionType::None {
                        decompress_cpu_cost(opts.compression, output.bytes_read as usize)
                    } else {
                        SimDuration::ZERO
                    };
                let per_sub = cpu_total.mul_f64(1.0 / subs as f64);
                let mut cpu_end = now;
                let mut start = now;
                for _ in 0..subs {
                    let slot = self.env.cpu().run(now, per_sub);
                    cpu_end = cpu_end.max(slot.end);
                    start = start.max(slot.start);
                }
                let mut io_end = start;
                let mut remaining = output.bytes_read;
                while remaining > 0 {
                    let n = remaining.min(readahead);
                    io_end = self.env.device().submit_read(io_end, n, read_pattern);
                    remaining -= n;
                }
                let write_done = self.submit_background_write(start, output.bytes_written);
                (
                    start,
                    cpu_end.max(io_end).max(write_done),
                    output.bytes_read + output.bytes_written,
                )
            }
        };
        if opts.rate_limiter_bytes_per_sec > 0 {
            let min_dur = SimDuration::from_secs_f64(
                limited_bytes as f64 / opts.rate_limiter_bytes_per_sec as f64,
            );
            end = end.max(start + min_dur);
        }
        start + (end - start).mul_f64(self.env.memory().penalty_factor())
    }

    /// Submits a background sequential write in `bytes_per_sync`-sized
    /// chunks (or one OS burst) and returns the last completion.
    fn submit_background_write(&self, start: SimTime, total: u64) -> SimTime {
        let chunk = if self.opts().bytes_per_sync > 0 {
            self.opts().bytes_per_sync
        } else {
            self.cost.os_writeback_burst
        }
        .max(64 << 10);
        let mut remaining = total;
        let mut done = start;
        let mut at = start;
        while remaining > 0 {
            let n = remaining.min(chunk);
            done = self.env.device().submit_write(at, n, AccessPattern::Sequential);
            at = done;
            remaining -= n;
        }
        // Durability point at file close.
        self.env.device().submit_sync(done)
    }

    /// Installs every queued job due by `now`, in completion order, and
    /// starts the work each completion makes runnable.
    fn pump_events(&self, state: &mut DbState, now: SimTime) -> Result<()> {
        while state.events.peek().is_some_and(|e| e.at <= now) {
            let Event { at, job, .. } = state.events.pop().expect("peeked");
            // The manifest record's device write.
            let manifest_bytes = match &job {
                BuiltJob::Flush(..) => 128,
                BuiltJob::Merge(..) => 256,
                BuiltJob::Drop(_) => 0,
            };
            let flushed = matches!(job, BuiltJob::Flush(..));
            self.install(state, job)?;
            if manifest_bytes > 0 {
                self.env
                    .device()
                    .submit_write(at, manifest_bytes, AccessPattern::Sequential);
            }
            if flushed {
                self.maybe_schedule_flush(state, at)?;
            }
            self.maybe_schedule_compaction(state, at)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Table access with timing
    // -----------------------------------------------------------------

    /// File id used in block-cache keys. Shards of a [`crate::ShardedDb`]
    /// share one cache but allocate file numbers independently, so each
    /// shard tags its keys in the (otherwise unreachable) high bits.
    fn cache_file_id(&self, file: FileNumber) -> FileNumber {
        match &self.shard {
            Some(ctx) => FileNumber(file.0 | ctx.cache_tag()),
            None => file,
        }
    }

    fn open_table(
        &self,
        file: &FileMetadata,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Arc<TableReader>> {
        if let Some(r) = self.table_cache.get(file.number) {
            // With cache_index_and_filter_blocks the resident metadata
            // lives in the block cache and may have been evicted; charge
            // a re-read when it is gone. The re-read is accounted like
            // the cold open below: it is the same index+filter I/O, just
            // triggered by block-cache pressure instead of a first open.
            if self.opts().cache_index_and_filter_blocks {
                if let Some(cache) = &self.block_cache {
                    let key = BlockKey {
                        file: self.cache_file_id(file.number),
                        offset: u64::MAX,
                    };
                    if cache.get(&key).is_none() {
                        let now = self.env.clock().now();
                        let bytes = r.resident_bytes().max(4096);
                        let done =
                            self.env.device().submit_read(now, bytes, AccessPattern::Random);
                        self.env.clock().advance_to(done);
                        self.stats.tickers().inc(Ticker::TableOpens);
                        self.stats.tickers().add(Ticker::BytesRead, bytes);
                        self.stats
                            .record(HistogramKind::SstReadMicros, done.saturating_since(now));
                        if ropts.fill_cache {
                            cache
                                .insert(key, Arc::new(Block::sentinel(r.resident_bytes() as usize)));
                        }
                    }
                }
            }
            return Ok(r);
        }
        let handle = self.vfs.open(&sst_file_name(file.number))?;
        let (reader, bytes_read) = TableReader::open(handle)?;
        // Footer + index + filter: three random reads.
        let now = self.env.clock().now();
        let mut done = now;
        for part in split3(bytes_read) {
            done = self.env.device().submit_read(done, part, AccessPattern::Random);
        }
        self.env.clock().advance_to(done);
        *cpu += SimDuration::from_micros(3); // parse footer/index/filter
        self.stats.tickers().inc(Ticker::TableOpens);
        self.stats.tickers().add(Ticker::BytesRead, bytes_read);
        self.stats
            .record(HistogramKind::SstReadMicros, done.saturating_since(now));
        let reader = Arc::new(reader);
        if self.opts().cache_index_and_filter_blocks {
            // `fill_cache` governs block-cache population for reads, and
            // the resident metadata lives in the block cache here — so a
            // no-fill read leaves it out (the next open re-reads it),
            // matching what fetch_block does for data blocks.
            if let Some(cache) = &self.block_cache {
                if ropts.fill_cache {
                    cache.insert(
                        BlockKey {
                            file: self.cache_file_id(file.number),
                            offset: u64::MAX,
                        },
                        Arc::new(Block::sentinel(reader.resident_bytes() as usize)),
                    );
                }
            }
        } else {
            self.env
                .memory()
                .reserve(MemoryUser::TableCache, reader.resident_bytes());
        }
        let displaced = self.table_cache.insert(file.number, Arc::clone(&reader));
        self.stats
            .tickers()
            .add(Ticker::TableCacheEvictions, displaced.len() as u64);
        self.release_table_readers(displaced);
        Ok(reader)
    }

    /// Releases the `MemoryUser::TableCache` reservation held against
    /// readers leaving the table cache (capacity eviction, compaction
    /// deletion, or same-file replacement). Reservations are only taken
    /// when metadata lives outside the block cache.
    fn release_table_readers<I: IntoIterator<Item = Arc<TableReader>>>(&self, readers: I) {
        if self.opts().cache_index_and_filter_blocks {
            return;
        }
        for r in readers {
            self.env
                .memory()
                .release(MemoryUser::TableCache, r.resident_bytes());
        }
    }

    /// Fetches a parsed block through the cache, charging device time on
    /// miss. The cache holds `Arc<Block>`, so hits hand the same parsed
    /// block to every reader — no payload copy, no re-parse.
    fn fetch_block(
        &self,
        reader: &TableReader,
        file: FileNumber,
        handle: crate::sstable::table::BlockHandle,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Arc<Block>> {
        let key = BlockKey {
            file: self.cache_file_id(file),
            offset: handle.offset,
        };
        if let Some(cache) = &self.block_cache {
            if let Some(b) = cache.get(&key) {
                self.stats.tickers().inc(Ticker::BlockCacheHit);
                *cpu += self.cost.cache_hit_cpu;
                return Ok(b);
            }
            self.stats.tickers().inc(Ticker::BlockCacheMiss);
        }
        let fetch = reader.read_block_with(handle, ropts.verify_checksums)?;
        let now = self.env.clock().now();
        let done = self
            .env
            .device()
            .submit_read(now, fetch.io_bytes, AccessPattern::Random);
        self.env.clock().advance_to(done);
        self.stats.tickers().add(Ticker::BytesRead, fetch.io_bytes);
        self.stats
            .record(HistogramKind::SstReadMicros, done.saturating_since(now));
        if fetch.was_compressed {
            *cpu += decompress_cpu_cost(self.opts().compression, fetch.data.len());
        }
        let block = Arc::new(Block::parse(fetch.data)?);
        if let Some(cache) = &self.block_cache {
            if ropts.fill_cache {
                cache.insert(key, Arc::clone(&block));
            }
        }
        Ok(block)
    }

    /// Resolves the data-block handle for `target`, going through the
    /// block cache for index partitions when the table has a two-level
    /// index (a flat index is resident and needs no fetch).
    fn find_data_block(
        &self,
        reader: &TableReader,
        file: FileNumber,
        target: &[u8],
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Option<crate::sstable::table::BlockHandle>> {
        if !reader.is_two_level() {
            return reader.find_block(target);
        }
        let Some(ph) = reader.find_index_partition(target)? else {
            return Ok(None);
        };
        let partition = self.fetch_block(reader, file, ph, ropts, cpu)?;
        *cpu += self.cost.index_seek_cpu; // second-level seek
        TableReader::find_block_in(&partition, target)
    }

    /// Runs `user_key` through the table's bloom filters, maintaining the
    /// whole-key and prefix ticker families. Returns `false` when the key
    /// is definitively absent and the probe can stop here.
    fn check_filters(&self, reader: &TableReader, user_key: &[u8], cpu: &mut SimDuration) -> bool {
        if !reader.has_filter() {
            return true;
        }
        self.stats.tickers().inc(Ticker::BloomChecked);
        *cpu += self.cost.bloom_check_cpu;
        if reader.prefix_len() > 0 {
            self.stats.tickers().inc(Ticker::BloomPrefixChecked);
            if reader.prefix_rejects(user_key) {
                self.stats.tickers().inc(Ticker::BloomPrefixUseful);
                self.stats.tickers().inc(Ticker::BloomUseful);
                return false;
            }
        }
        if !reader.may_contain(user_key) {
            self.stats.tickers().inc(Ticker::BloomUseful);
            return false;
        }
        true
    }

    /// Batched table search for [`Db::get_opt`] and [`Db::multi_get_opt`]. `unresolved`
    /// holds batch indices sorted by key; resolved entries are written
    /// into `results` and removed. Each L0 file and each deeper-level
    /// file is probed at most once for the whole batch.
    #[allow(clippy::too_many_arguments)]
    fn multi_search_tables<K: AsRef<[u8]>>(
        &self,
        version: &Version,
        keys: &[K],
        unresolved: &mut Vec<usize>,
        snapshot: SequenceNumber,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
        results: &mut [Option<Option<Vec<u8>>>],
    ) -> Result<()> {
        // L0: files newest first, whole batch against each file before
        // moving on — equivalent to per-key newest-first probing, since
        // a key resolved by a newer file is skipped in older ones.
        for f in version.files(0) {
            if unresolved.is_empty() {
                return Ok(());
            }
            self.probe_file_batch(f, keys, unresolved, snapshot, ropts, cpu, results)?;
            unresolved.retain(|&i| results[i].is_none());
        }
        // Deeper levels: at most one file can contain each key. Group
        // the (sorted) keys by containing file so each file is opened
        // and probed once.
        for level in 1..version.num_levels() {
            if unresolved.is_empty() {
                return Ok(());
            }
            let files = version.files(level);
            if files.is_empty() {
                continue;
            }
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for &i in unresolved.iter() {
                let key = keys[i].as_ref();
                let idx = files.partition_point(|f| f.largest.user_key() < key);
                if idx >= files.len() || key < files[idx].smallest.user_key() {
                    continue;
                }
                *cpu += SimDuration::from_nanos(60); // range binary search
                match groups.last_mut() {
                    Some((fi, g)) if *fi == idx => g.push(i),
                    _ => groups.push((idx, vec![i])),
                }
            }
            for (fi, g) in groups {
                self.probe_file_batch(&files[fi], keys, &g, snapshot, ropts, cpu, results)?;
            }
            unresolved.retain(|&i| results[i].is_none());
        }
        Ok(())
    }

    /// Probes one table for every still-unresolved key in `idxs`
    /// (batch indices sorted by key). The table handle is opened once
    /// for the whole group, and consecutive keys landing in the same
    /// data block reuse the fetched + parsed block instead of paying a
    /// cache lookup and parse each — the core MultiGet saving.
    #[allow(clippy::too_many_arguments)]
    fn probe_file_batch<K: AsRef<[u8]>>(
        &self,
        file: &FileMetadata,
        keys: &[K],
        idxs: &[usize],
        snapshot: SequenceNumber,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
        results: &mut [Option<Option<Vec<u8>>>],
    ) -> Result<()> {
        let in_range: Vec<usize> = idxs
            .iter()
            .copied()
            .filter(|&i| results[i].is_none())
            .filter(|&i| {
                let k = keys[i].as_ref();
                k >= file.smallest.user_key() && k <= file.largest.user_key()
            })
            .collect();
        if in_range.is_empty() {
            return Ok(());
        }
        let reader = self.open_table(file, ropts, cpu)?;
        let mut last_block: Option<(u64, Arc<Block>)> = None;
        for &i in &in_range {
            let user_key = keys[i].as_ref();
            if !self.check_filters(&reader, user_key, cpu) {
                continue;
            }
            let target = crate::types::lookup_key(user_key, snapshot);
            *cpu += self.cost.index_seek_cpu;
            let Some(handle) = self.find_data_block(&reader, file.number, target.encoded(), ropts, cpu)?
            else {
                continue;
            };
            let reuse = last_block
                .as_ref()
                .is_some_and(|(off, _)| *off == handle.offset);
            if reuse {
                *cpu += SimDuration::from_nanos(100); // re-seek in parsed block
            } else {
                let block = self.fetch_block(&reader, file.number, handle, ropts, cpu)?;
                *cpu += SimDuration::from_nanos(300); // parse + binary search
                last_block = Some((handle.offset, block));
            }
            let (_, block) = last_block.as_ref().expect("block just set");
            if let Some((k, v)) = block.seek(target.encoded())? {
                let found_user = &k[..k.len() - 8];
                if found_user != user_key {
                    continue;
                }
                let tag = u64::from_le_bytes(k[k.len() - 8..].try_into().expect("tag"));
                results[i] = if (tag & 0xff) == ValueType::Deletion as u64 {
                    Some(None)
                } else if (tag & 0xff) == ValueType::TtlValue as u64 {
                    Some(self.resolve_ttl(&v))
                } else {
                    Some(Some(v))
                };
            }
        }
        Ok(())
    }
}

fn split3(total: u64) -> [u64; 3] {
    let third = total / 3;
    [third, third, total - 2 * third]
}

// ---------------------------------------------------------------------------
// Scan cursors
// ---------------------------------------------------------------------------

trait ScanCursor {
    fn key(&self) -> Option<&[u8]>;
    fn value(&self) -> Option<&[u8]>;
    fn advance(&mut self, inner: &DbInner) -> Result<()>;
}

/// Scan cursor over one memtable (active or immutable); each step is one
/// bounded range query past the current entry.
struct MemCursor {
    cur: MemTableCursor,
}

impl MemCursor {
    fn new(mem: Arc<MemTable>, target: &[u8]) -> Self {
        MemCursor {
            cur: MemTableCursor::seek(mem, target),
        }
    }
}

impl ScanCursor for MemCursor {
    fn key(&self) -> Option<&[u8]> {
        self.cur.key()
    }
    fn value(&self) -> Option<&[u8]> {
        self.cur.value()
    }
    fn advance(&mut self, _inner: &DbInner) -> Result<()> {
        self.cur.advance();
        Ok(())
    }
}

/// Scan cursor over one SST file. Blocks come out of the block cache as
/// shared `Arc<Block>`s and are walked in place by an [`OwnedBlockIter`];
/// nothing is copied until an entry is emitted into the scan result.
struct FileCursor {
    file: Arc<FileMetadata>,
    reader: Arc<TableReader>,
    handles: Vec<crate::sstable::table::BlockHandle>,
    next_block: usize,
    iter: Option<OwnedBlockIter>,
    ropts: ReadOptions,
}

impl FileCursor {
    fn open(
        inner: &DbInner,
        file: Arc<FileMetadata>,
        target: &[u8],
        ropts: ReadOptions,
    ) -> Result<FileCursor> {
        let mut cpu = SimDuration::ZERO;
        let reader = inner.open_table(&file, &ropts, &mut cpu)?;
        let handles = reader.block_handles()?;
        inner.env.clock().advance(cpu);
        let mut c = FileCursor {
            file,
            reader,
            handles,
            next_block: 0,
            iter: None,
            ropts,
        };
        // Skip blocks wholly before the target using the index order.
        c.load_until(inner, target)?;
        Ok(c)
    }

    fn load_until(&mut self, inner: &DbInner, target: &[u8]) -> Result<()> {
        loop {
            self.load_next_block(inner)?;
            let Some(it) = self.iter.as_mut() else {
                return Ok(()); // exhausted
            };
            if it.seek(target)? {
                return Ok(());
            }
            // Every key in this block was < target; try the next one.
        }
    }

    fn load_next_block(&mut self, inner: &DbInner) -> Result<()> {
        self.iter = None;
        let mut cpu = SimDuration::ZERO;
        while self.next_block < self.handles.len() {
            let block = inner.fetch_block(
                &self.reader,
                self.file.number,
                self.handles[self.next_block],
                &self.ropts,
                &mut cpu,
            )?;
            self.next_block += 1;
            let mut it = OwnedBlockIter::new(block);
            if it.advance()? {
                self.iter = Some(it);
                break;
            }
        }
        inner.env.clock().advance(cpu);
        Ok(())
    }
}

impl ScanCursor for FileCursor {
    fn key(&self) -> Option<&[u8]> {
        self.iter.as_ref().filter(|it| it.valid()).map(|it| it.key())
    }
    fn value(&self) -> Option<&[u8]> {
        self.iter.as_ref().filter(|it| it.valid()).map(|it| it.value())
    }
    fn advance(&mut self, inner: &DbInner) -> Result<()> {
        if let Some(it) = self.iter.as_mut() {
            if !it.advance()? {
                self.load_next_block(inner)?;
            }
        }
        Ok(())
    }
}

struct LevelCursor {
    files: Vec<Arc<FileMetadata>>,
    next_file: usize,
    current: Option<FileCursor>,
    target: Vec<u8>,
    ropts: ReadOptions,
}

impl LevelCursor {
    fn open(
        inner: &DbInner,
        files: Vec<Arc<FileMetadata>>,
        target: &[u8],
        ropts: ReadOptions,
    ) -> Result<LevelCursor> {
        let mut c = LevelCursor {
            files,
            next_file: 0,
            current: None,
            target: target.to_vec(),
            ropts,
        };
        c.open_next(inner)?;
        Ok(c)
    }

    fn open_next(&mut self, inner: &DbInner) -> Result<()> {
        self.current = None;
        while self.next_file < self.files.len() {
            let file = Arc::clone(&self.files[self.next_file]);
            self.next_file += 1;
            let cursor = FileCursor::open(inner, file, &self.target, self.ropts)?;
            if cursor.key().is_some() {
                self.current = Some(cursor);
                return Ok(());
            }
        }
        Ok(())
    }
}

impl ScanCursor for LevelCursor {
    fn key(&self) -> Option<&[u8]> {
        self.current.as_ref().and_then(|c| c.key())
    }
    fn value(&self) -> Option<&[u8]> {
        self.current.as_ref().and_then(|c| c.value())
    }
    fn advance(&mut self, inner: &DbInner) -> Result<()> {
        if let Some(c) = &mut self.current {
            c.advance(inner)?;
            if c.key().is_none() {
                self.open_next(inner)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_sim::DeviceModel;

    fn env() -> HardwareEnv {
        HardwareEnv::builder()
            .cores(4)
            .memory_gib(8)
            .device(DeviceModel::nvme_ssd())
            .build_sim()
    }

    fn small_opts() -> Options {
        Options {
            write_buffer_size: 64 << 10, // tiny, to exercise flush/compaction
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            ..Options::default()
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"hello", b"world").unwrap();
        assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
        assert_eq!(db.get(b"absent").unwrap(), None);
    }

    #[test]
    fn delete_hides_value() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
    }

    #[test]
    fn overwrite_returns_newest() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn reads_span_memtable_flush_and_compaction() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let n = 3_000;
        for i in 0..n {
            db.put(format!("key-{i:06}").as_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        let stats = db.stats();
        assert!(stats.tickers.get(Ticker::FlushJobs) > 0, "flushes ran");
        assert!(stats.tickers.get(Ticker::CompactionJobs) > 0, "compactions ran");
        for i in (0..n).step_by(97) {
            assert_eq!(
                db.get(format!("key-{i:06}").as_bytes()).unwrap(),
                Some(format!("value-{i}").into_bytes()),
                "key-{i}"
            );
        }
    }

    #[test]
    fn scan_returns_sorted_live_entries() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        for i in 0..500 {
            db.put(format!("key-{i:04}").as_bytes(), b"v").unwrap();
        }
        db.delete(b"key-0002").unwrap();
        db.flush().unwrap();
        // A few more into the memtable so the scan merges sources.
        db.put(b"key-0001", b"updated").unwrap();
        let result = db.scan(b"key-0000", 5).unwrap();
        let keys: Vec<_> = result.iter().map(|(k, _)| String::from_utf8(k.clone()).unwrap()).collect();
        assert_eq!(keys, vec!["key-0000", "key-0001", "key-0003", "key-0004", "key-0005"]);
        let v1 = &result[1].1;
        assert_eq!(v1, b"updated");
    }

    #[test]
    fn virtual_time_advances_with_work() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let t0 = env.clock().now();
        for i in 0..2_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let t1 = env.clock().now();
        assert!(t1 > t0, "writes consume virtual time");
        // Per-op average should be in the microseconds range.
        let per_op = (t1 - t0).as_nanos() / 2_000;
        assert!(per_op > 500 && per_op < 200_000, "per-op {per_op}ns");
    }

    #[test]
    fn bloom_filters_cut_probes() {
        let run = |bits: f64| {
            let env = env();
            let mut opts = small_opts();
            opts.bloom_filter_bits_per_key = bits;
            let db = Db::builder(opts).env(&env).open().unwrap();
            for i in 0..2_000 {
                db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
            }
            db.flush().unwrap();
            for i in 0..500 {
                let _ = db.get(format!("key-{i:06}-absent").as_bytes()).unwrap();
            }
            db.stats()
        };
        let without = run(0.0);
        let with = run(10.0);
        assert!(with.tickers.get(Ticker::BloomChecked) > 0);
        assert!(
            with.tickers.get(Ticker::BlockCacheMiss) + with.tickers.get(Ticker::BlockCacheHit)
                < without.tickers.get(Ticker::BlockCacheMiss)
                    + without.tickers.get(Ticker::BlockCacheHit),
            "bloom avoids block fetches"
        );
    }

    #[test]
    fn recovery_preserves_data() {
        let env = env();
        let vfs = Arc::new(MemVfs::new());
        {
            let db = Db::builder(small_opts()).env(&env).vfs(vfs.clone()).open().unwrap();
            for i in 0..1_000 {
                db.put(format!("key-{i:04}").as_bytes(), format!("v-{i}").as_bytes())
                    .unwrap();
            }
            db.wait_background_idle().unwrap();
            // No clean shutdown: the Db is just dropped (simulated crash;
            // the WAL tail was never fsynced but MemVfs keeps appended
            // bytes, modeling a process crash rather than power loss).
        }
        let db = Db::builder(small_opts()).env(&env).vfs(vfs).open().unwrap();
        for i in (0..1_000).step_by(53) {
            assert_eq!(
                db.get(format!("key-{i:04}").as_bytes()).unwrap(),
                Some(format!("v-{i}").into_bytes()),
                "key-{i}"
            );
        }
    }

    #[test]
    fn recovery_drops_torn_wal_tail() {
        let env = env();
        let vfs = Arc::new(MemVfs::new());
        {
            let db = Db::builder(Options::default()).env(&env).vfs(vfs.clone()).open().unwrap();
            db.put(b"safe", b"1").unwrap();
            db.put(b"torn", b"2").unwrap();
        }
        // Tear the last few bytes off the newest WAL.
        let wals: Vec<String> = vfs
            .list("")
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".log"))
            .collect();
        let wal = wals.last().unwrap();
        let len = vfs.file_size(wal).unwrap();
        vfs.truncate(wal, (len - 3) as usize).unwrap();
        let db = Db::builder(Options::default()).env(&env).vfs(vfs).open().unwrap();
        assert_eq!(db.get(b"safe").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"torn").unwrap(), None, "torn record dropped");
    }

    #[test]
    fn stalls_appear_under_write_pressure() {
        let env = env();
        let mut opts = small_opts();
        opts.level0_slowdown_writes_trigger = 2;
        opts.level0_stop_writes_trigger = 4;
        opts.max_background_jobs = 1;
        let db = Db::builder(opts).env(&env).open().unwrap();
        for i in 0..20_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let stats = db.stats();
        assert!(
            stats.tickers.get(Ticker::WriteSlowdowns) + stats.tickers.get(Ticker::WriteStops) > 0,
            "aggressive triggers cause throttling"
        );
        assert!(stats.tickers.get(Ticker::StallNanos) > 0);
    }

    /// Collects every callback for the listener tests.
    #[derive(Default)]
    struct RecordingListener {
        flushes: Mutex<Vec<crate::listener::FlushJobInfo>>,
        compactions: Mutex<Vec<crate::listener::CompactionJobInfo>>,
        stalls: Mutex<Vec<(WriteRegime, WriteRegime)>>,
    }

    impl crate::listener::EventListener for RecordingListener {
        fn on_flush_completed(&self, info: &crate::listener::FlushJobInfo) {
            self.flushes.lock().push(info.clone());
        }
        fn on_compaction_completed(&self, info: &crate::listener::CompactionJobInfo) {
            self.compactions.lock().push(info.clone());
        }
        fn on_stall_conditions_changed(&self, info: &crate::listener::StallConditionsChanged) {
            self.stalls.lock().push((info.previous, info.current));
        }
    }

    #[test]
    fn listener_fires_once_per_stall_transition() {
        let env = env();
        let mut opts = small_opts();
        opts.level0_slowdown_writes_trigger = 2;
        opts.level0_stop_writes_trigger = 4;
        opts.max_background_jobs = 1;
        let listener = Arc::new(RecordingListener::default());
        let db = Db::builder(opts)
            .env(&env)
            .listener(listener.clone())
            .open()
            .unwrap();
        for i in 0..20_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let stalls = listener.stalls.lock().clone();
        assert!(!stalls.is_empty(), "aggressive triggers produce transitions");
        // Exactly once per transition: no self-transitions, and each
        // event continues where the previous one left off.
        let mut prev = WriteRegime::Normal;
        for (from, to) in &stalls {
            assert_ne!(from, to, "self-transition reported");
            assert_eq!(*from, prev, "transition chain broken");
            prev = *to;
        }
        assert!(
            stalls.iter().any(|(_, to)| *to != WriteRegime::Normal),
            "at least one transition into a throttled regime"
        );
        let flushes = listener.flushes.lock();
        assert!(!flushes.is_empty(), "flushes observed");
        for f in flushes.iter() {
            assert!(f.file_size > 0);
            assert!(f.num_entries > 0);
            assert!(f.memtables_merged > 0);
        }
        for c in listener.compactions.lock().iter() {
            assert!(c.input_files > 0);
            assert!(c.bytes_read > 0);
        }
        assert!(db.stats().tickers.get(Ticker::StallNanos) > 0);
    }

    #[test]
    fn stats_text_renders_rocksdb_shape() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        for i in 0..5_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        db.flush().unwrap();
        for i in 0..200 {
            let _ = db.get(format!("key-{:06}", i * 7).as_bytes()).unwrap();
        }
        let text = db.stats_text();
        assert!(text.contains("** DB Stats **"), "{text}");
        assert!(text.contains("Uptime(secs):"), "{text}");
        assert!(text.contains("Cumulative writes:"), "{text}");
        assert!(text.contains("Cumulative stall:"), "{text}");
        assert!(text.contains("** Compaction Stats [default] **"), "{text}");
        assert!(text.contains("rocksdb.db.get.micros"), "{text}");
        assert!(text.contains("P99.99"), "{text}");
        assert!(text.contains("STDDEV"), "{text}");
        // The Sum row aggregates the per-level table; with a flush done,
        // L0 write bytes make the sum write column non-zero.
        let sum_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("Sum"))
            .expect("Sum row present");
        let tokens: Vec<&str> = sum_line.split_whitespace().collect();
        assert_eq!(tokens.len(), 10, "Sum row token count: {sum_line}");
        let w_amp: f64 = tokens[7].parse().unwrap();
        assert!(w_amp >= 1.0, "flushed data gives W-Amp >= 1: {sum_line}");
        // L0 row precedes Sum.
        assert!(text.contains("   L0") || text.contains("L0 "), "{text}");
    }

    #[test]
    fn hdd_is_slower_than_nvme_for_same_work() {
        let run = |model: DeviceModel| {
            let env = HardwareEnv::builder().cores(2).memory_gib(4).device(model).build_sim();
            let db = Db::builder(small_opts()).env(&env).open().unwrap();
            for i in 0..3_000 {
                db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
            }
            db.flush().unwrap();
            for i in 0..300 {
                let _ = db.get(format!("key-{:06}", i * 7).as_bytes()).unwrap();
            }
            env.clock().now().as_nanos()
        };
        let nvme = run(DeviceModel::nvme_ssd());
        let hdd = run(DeviceModel::sata_hdd());
        assert!(hdd > nvme, "hdd {hdd} should exceed nvme {nvme}");
    }

    #[test]
    fn disable_auto_compactions_holds_l0() {
        let env = env();
        let mut opts = small_opts();
        opts.disable_auto_compactions = true;
        let db = Db::builder(opts).env(&env).open().unwrap();
        for i in 0..5_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 50]).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.tickers.get(Ticker::CompactionJobs), 0);
        assert!(stats.levels[0].0 > 0);
    }

    #[test]
    fn write_batch_is_atomic_in_order() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.delete(b"a");
        b.put(b"b", b"2");
        db.write(b).unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn stats_shape_is_reported() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        for i in 0..2_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.levels.len(), 7);
        assert!(stats.levels.iter().map(|(n, _)| n).sum::<usize>() > 0);
        assert!(stats.write_amplification() > 0.0);
        assert!(stats.last_sequence >= 2_000);
    }

    #[test]
    fn builder_defaults_and_explicit_vfs() {
        // Defaults: sim env + fresh MemVfs.
        let db = Db::builder(Options::default()).open().unwrap();
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        drop(db);

        // Explicit VFS: state survives reopen through the same store.
        let vfs = Arc::new(crate::vfs::MemVfs::new());
        let env = env();
        let db = Db::builder(Options::default())
            .env(&env)
            .vfs(vfs.clone())
            .open()
            .unwrap();
        db.put(b"persist", b"1").unwrap();
        drop(db);
        let db = Db::builder(Options::default()).env(&env).vfs(vfs).open().unwrap();
        assert_eq!(db.get(b"persist").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn read_options_snapshot_seq_pins_the_past() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"k", b"old").unwrap();
        let pinned = db.stats().last_sequence;
        db.put(b"k", b"new").unwrap();
        db.put(b"k2", b"later").unwrap();

        let ropts = ReadOptions {
            snapshot_seq: Some(pinned),
            ..ReadOptions::default()
        };
        assert_eq!(db.get_opt(&ropts, b"k").unwrap(), Some(b"old".to_vec()));
        assert_eq!(db.get_opt(&ropts, b"k2").unwrap(), None);
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));

        let snap_scan = db.scan_opt(&ropts, b"k", 10).unwrap();
        assert_eq!(snap_scan, vec![(b"k".to_vec(), b"old".to_vec())]);
        // A snapshot past the visible watermark clamps instead of leaking.
        let future = ReadOptions {
            snapshot_seq: Some(u64::MAX - 1),
            ..ReadOptions::default()
        };
        assert_eq!(db.get_opt(&future, b"k").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn read_options_fill_cache_and_checksum_skip() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        for i in 0..2_000 {
            db.put(format!("key-{i:05}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();

        // A no-fill read on a cold cache must not populate it: repeating
        // the same read misses again.
        let no_fill = ReadOptions {
            fill_cache: false,
            ..ReadOptions::default()
        };
        let miss0 = db.stats().tickers.get(Ticker::BlockCacheMiss);
        assert_eq!(db.get_opt(&no_fill, b"key-00042").unwrap(), Some(b"v".to_vec()));
        let miss1 = db.stats().tickers.get(Ticker::BlockCacheMiss);
        assert!(miss1 > miss0, "cold read misses");
        assert_eq!(db.get_opt(&no_fill, b"key-00042").unwrap(), Some(b"v".to_vec()));
        let miss2 = db.stats().tickers.get(Ticker::BlockCacheMiss);
        assert!(miss2 > miss1, "no-fill read did not populate the cache");

        // Checksum-skipping reads return the same data.
        let no_verify = ReadOptions {
            verify_checksums: false,
            ..ReadOptions::default()
        };
        assert_eq!(db.get_opt(&no_verify, b"key-01234").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.scan_opt(&no_verify, b"key-00000", 3).unwrap().len(), 3);
    }

}

#[cfg(test)]
mod compact_range_tests {
    use super::*;
    use hw_sim::DeviceModel;

    #[test]
    fn compact_range_pushes_data_down() {
        let env = HardwareEnv::builder()
            .cores(4)
            .memory_gib(8)
            .device(DeviceModel::nvme_ssd())
            .build_sim();
        let opts = Options {
            write_buffer_size: 32 << 10,
            target_file_size_base: 32 << 10,
            max_bytes_for_level_base: 128 << 10,
            disable_auto_compactions: true, // everything stays in L0
            ..Options::default()
        };
        let db = Db::builder(opts).env(&env).open().unwrap();
        for i in 0..3_000 {
            db.put(format!("key-{i:05}").as_bytes(), &[1u8; 50]).unwrap();
        }
        db.flush().unwrap();
        let before = db.stats();
        assert!(before.levels[0].0 > 1, "L0 has files: {:?}", before.levels);

        db.compact_range(b"", b"key-99999").unwrap();
        let after = db.stats();
        assert_eq!(after.levels[0].0, 0, "L0 drained: {:?}", after.levels);
        let deeper: usize = after.levels.iter().skip(1).map(|(n, _)| n).sum();
        assert!(deeper > 0, "data moved down: {:?}", after.levels);
        for i in (0..3_000).step_by(101) {
            assert_eq!(
                db.get(format!("key-{i:05}").as_bytes()).unwrap(),
                Some(vec![1u8; 50])
            );
        }
    }

    #[test]
    fn compact_range_with_no_overlap_is_noop() {
        let env = HardwareEnv::builder().build_sim();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"a", b"1").unwrap();
        db.compact_range(b"x", b"z").unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
    }

    /// Tombstones already at the bottom of the compacted range must still
    /// be dropped, even when unrelated data elsewhere in the keyspace
    /// sits deeper. The push-down loop alone leaves them stranded: once
    /// the range's files are at its last populated level, nothing merges
    /// them again, and the global "deeper levels empty" rule is defeated
    /// by the unrelated deep data.
    #[test]
    fn compact_range_drops_bottommost_tombstones_despite_unrelated_deep_data() {
        const N: u64 = 200;
        let env = HardwareEnv::builder()
            .cores(4)
            .memory_gib(8)
            .device(DeviceModel::nvme_ssd())
            .build_sim();
        let opts = Options {
            disable_auto_compactions: true,
            ..Options::default()
        };
        let db = Db::builder(opts).env(&env).open().unwrap();

        // Park unrelated data at the deepest level: with a file in L0,
        // the range picker keeps pushing, so one compact_range call walks
        // the z-file level by level down to the bottom.
        for i in 0..10u64 {
            db.put(format!("z-{i}").as_bytes(), b"deep").unwrap();
        }
        db.flush().unwrap();
        db.put(b"m", b"pin").unwrap();
        db.flush().unwrap();
        db.compact_range(b"z", b"z~").unwrap();
        let levels = db.stats().levels;
        let last = levels.len() - 1;
        assert!(levels[last].0 > 0, "z-data at the bottom: {levels:?}");
        db.compact_range(b"m", b"n").unwrap(); // clear the L0 pin

        // Value phase: a-keys come to rest in the upper levels.
        for i in 0..N {
            db.put(format!("a-{i:03}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        db.compact_range(b"a", b"b").unwrap();

        // Tombstone phase.
        for i in 0..N {
            db.delete(format!("a-{i:03}").as_bytes()).unwrap();
        }
        db.flush().unwrap();

        let dropped0 = db.stats().tickers.get(Ticker::CompactionKeyDropped);
        db.compact_range(b"a", b"b").unwrap();
        let delta = db.stats().tickers.get(Ticker::CompactionKeyDropped) - dropped0;

        // The merge drops the N shadowed values; the bottommost rewrite
        // must also drop the N tombstones themselves.
        assert_eq!(
            delta,
            2 * N,
            "tombstones stranded at the range's bottom level were not dropped"
        );
        for i in (0..N).step_by(37) {
            assert_eq!(db.get(format!("a-{i:03}").as_bytes()).unwrap(), None);
        }
        assert_eq!(db.get(b"z-3").unwrap(), Some(b"deep".to_vec()));
        assert_eq!(db.get(b"m").unwrap(), Some(b"pin".to_vec()));
    }

    fn sim_env() -> HardwareEnv {
        HardwareEnv::builder()
            .cores(4)
            .memory_gib(8)
            .device(DeviceModel::nvme_ssd())
            .build_sim()
    }

    fn tiny_opts() -> Options {
        Options {
            write_buffer_size: 64 << 10,
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            ..Options::default()
        }
    }

    #[test]
    fn ttl_expires_on_read_path_and_under_compaction() {
        let env = sim_env();
        let mut opts = tiny_opts();
        opts.ttl_seconds = 10;
        let db = Db::builder(opts).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()), "fresh value readable");
        let scanned = db.scan(b"", 10).unwrap();
        assert_eq!(scanned, vec![(b"k".to_vec(), b"v".to_vec())], "scan strips the stamp");

        // Jump the virtual clock past the TTL: the entry reads as absent
        // on every path before any compaction ran.
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(11.0));
        assert_eq!(db.get(b"k").unwrap(), None, "expired on point read");
        assert_eq!(db.multi_get(&[b"k".to_vec()]).unwrap(), vec![None]);
        assert!(db.scan(b"", 10).unwrap().is_empty(), "expired on scan");

        // Flush + bottommost rewrite physically drop the entry via the
        // TTL compaction filter.
        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();
        let levels = db.stats().levels;
        let total_files: usize = levels.iter().map(|l| l.0).sum();
        assert_eq!(total_files, 0, "expired data physically dropped: {levels:?}");
    }

    #[test]
    fn ttl_zero_keeps_values_and_online_change_applies_to_old_stamps() {
        let env = sim_env();
        let mut opts = tiny_opts();
        opts.ttl_seconds = 1_000_000;
        let db = Db::builder(opts).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(100.0));
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));

        // Tighten the TTL online: the existing stamp now counts as expired.
        db.set_options(&[("ttl_seconds", "50")]).unwrap();
        assert_eq!(db.get(b"k").unwrap(), None, "online TTL change governs old stamps");

        // Disable TTL: stamped data becomes immortal again.
        db.set_options(&[("ttl_seconds", "0")]).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn ttl_survives_wal_recovery_without_restamping() {
        let env = sim_env();
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let mut opts = tiny_opts();
        opts.ttl_seconds = 10;
        {
            let db = Db::builder(opts.clone())
                .env(&env)
                .vfs(Arc::clone(&vfs))
                .open()
                .unwrap();
            db.put(b"k", b"v").unwrap();
        }
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(11.0));
        // Reopen replays the WAL; the original stamp must survive, so
        // the entry is already expired at the new clock position.
        let db = Db::builder(opts).env(&env).vfs(vfs).open().unwrap();
        assert_eq!(db.get(b"k").unwrap(), None, "replayed stamp expired");
    }

    #[test]
    fn pinned_snapshot_survives_flush_and_compaction() {
        let env = sim_env();
        let db = Db::builder(tiny_opts()).env(&env).open().unwrap();
        db.put(b"k", b"old").unwrap();
        let pin = db.pin_snapshot();
        db.put(b"k", b"new").unwrap();
        db.delete(b"gone").unwrap();
        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();

        let at_pin = ReadOptions { snapshot_seq: Some(pin.sequence()), ..ReadOptions::default() };
        assert_eq!(db.get_opt(&at_pin, b"k").unwrap(), Some(b"old".to_vec()));
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));

        // Dropping the pin lets the next rewrite reclaim the version.
        drop(pin);
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn ttl_filter_never_drops_entry_visible_to_pin() {
        let env = sim_env();
        let mut opts = tiny_opts();
        opts.ttl_seconds = 10;
        let db = Db::builder(opts).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        let pin = db.pin_snapshot();
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(100.0));
        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();

        // Unpinned readers see the entry as expired (time-based expiry),
        // but the bytes must still exist for the pinned snapshot: turn
        // TTL off and the pinned read resolves the preserved version.
        db.set_options(&[("ttl_seconds", "0")]).unwrap();
        let at_pin = ReadOptions { snapshot_seq: Some(pin.sequence()), ..ReadOptions::default() };
        assert_eq!(
            db.get_opt(&at_pin, b"k").unwrap(),
            Some(b"v".to_vec()),
            "pinned entry survived the filter"
        );
        drop(pin);
    }
}
