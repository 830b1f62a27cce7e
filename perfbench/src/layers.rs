//! Probes around the layers' public seams: a wrapping [`Vfs`], a
//! [`DbStats`] sampler, timing wrappers for [`LanguageModel`] and
//! [`TuneTarget`], and readers for the Stats dump and `/proc`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use elmo_tune::{Measurement, SessionError, TuneTarget};
use llm_client::{ChatRequest, ChatResponse, LanguageModel, LlmError};
use lsm_kvs::options::Options;
use lsm_kvs::{DbStats, KvEngine, RandomAccessFile, Result, Vfs, WritableFile};

use crate::metrics::Samples;

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// What the wrapping [`TracingVfs`] observed.
#[derive(Debug, Default)]
pub struct VfsCounters {
    pub read_calls: AtomicU64,
    pub read_ns: AtomicU64,
    pub append_ns: AtomicU64,
    pub bytes_written: AtomicU64,
    pub sync_calls: AtomicU64,
    read_samples: Mutex<Samples>,
    sync_samples: Mutex<Samples>,
}

impl VfsCounters {
    fn record_read(&self, ns: u64) {
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        self.read_ns.fetch_add(ns, Ordering::Relaxed);
        self.read_samples
            .lock()
            .expect("read samples lock")
            .push(ns);
    }

    /// Takes the per-call read and sync latencies recorded so far.
    pub fn take_samples(&self) -> (Samples, Samples) {
        let reads = std::mem::take(&mut *self.read_samples.lock().expect("read samples lock"));
        let syncs = std::mem::take(&mut *self.sync_samples.lock().expect("sync samples lock"));
        (reads, syncs)
    }
}

/// A [`Vfs`] that times and counts every call into the one it wraps.
#[derive(Debug)]
pub struct TracingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<VfsCounters>,
}

impl TracingVfs {
    pub fn new(inner: Arc<dyn Vfs>) -> TracingVfs {
        TracingVfs {
            inner,
            counters: Arc::default(),
        }
    }

    pub fn counters(&self) -> Arc<VfsCounters> {
        Arc::clone(&self.counters)
    }
}

struct TracedWritable {
    inner: Box<dyn WritableFile>,
    counters: Arc<VfsCounters>,
}

impl WritableFile for TracedWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.append(data);
        self.counters
            .append_ns
            .fetch_add(nanos_since(t), Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        r
    }

    fn sync(&mut self) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.sync();
        let ns = nanos_since(t);
        self.counters.sync_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .sync_samples
            .lock()
            .expect("sync samples lock")
            .push(ns);
        r
    }

    fn finish(&mut self) -> Result<()> {
        // Finishing flushes the write buffer: count it as append time.
        let t = Instant::now();
        let r = self.inner.finish();
        self.counters
            .append_ns
            .fetch_add(nanos_since(t), Ordering::Relaxed);
        r
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct TracedRandomAccess {
    inner: Arc<dyn RandomAccessFile>,
    counters: Arc<VfsCounters>,
}

impl RandomAccessFile for TracedRandomAccess {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.read_at(offset, len);
        self.counters.record_read(nanos_since(t));
        r
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Vfs for TracingVfs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let inner = self.inner.create(path)?;
        Ok(Box::new(TracedWritable {
            inner,
            counters: self.counters(),
        }))
    }

    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let inner = self.inner.open(path)?;
        Ok(Arc::new(TracedRandomAccess {
            inner,
            counters: self.counters(),
        }))
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        self.inner.read_all(path)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }

    fn link(&self, from: &str, to: &str) -> Result<()> {
        self.inner.link(from, to)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }
}

/// Maxima of sampled [`DbStats`] gauges.
#[derive(Debug, Default, Clone, Copy)]
pub struct GaugeMax {
    pub pending_compaction_bytes: u64,
    pub l0_files: u64,
    pub memtable_bytes: u64,
}

impl GaugeMax {
    pub fn observe(&mut self, s: &DbStats) {
        self.pending_compaction_bytes = self
            .pending_compaction_bytes
            .max(s.pending_compaction_bytes);
        self.l0_files = self
            .l0_files
            .max(s.levels.first().map_or(0, |l| l.0 as u64));
        self.memtable_bytes = self.memtable_bytes.max(s.memtable_bytes);
    }

    pub fn merge(&mut self, o: &GaugeMax) {
        self.pending_compaction_bytes = self
            .pending_compaction_bytes
            .max(o.pending_compaction_bytes);
        self.l0_files = self.l0_files.max(o.l0_files);
        self.memtable_bytes = self.memtable_bytes.max(o.memtable_bytes);
    }
}

/// Samples an engine's gauges on a thread of its own until stopped.
pub struct GaugeSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<GaugeMax>,
}

impl GaugeSampler {
    pub fn start(engine: Arc<dyn KvEngine>, every: Duration) -> GaugeSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut max = GaugeMax::default();
            while !flag.load(Ordering::Relaxed) {
                max.observe(&engine.stats());
                std::thread::sleep(every);
            }
            max.observe(&engine.stats());
            max
        });
        GaugeSampler { stop, handle }
    }

    pub fn finish(self) -> GaugeMax {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("gauge sampler panicked")
    }
}

/// Spans `(start_ns, end_ns)` relative to a shared origin.
pub type Spans = Arc<Mutex<Vec<(u64, u64)>>>;

fn record_span(spans: &Spans, origin: Instant, started: Instant) {
    let s = started.duration_since(origin).as_nanos() as u64;
    let e = origin.elapsed().as_nanos() as u64;
    spans.lock().expect("span lock").push((s, e));
}

/// A [`LanguageModel`] that records a span around every completion.
pub struct TimedModel<M> {
    inner: M,
    origin: Instant,
    pub spans: Spans,
}

impl<M: LanguageModel> TimedModel<M> {
    pub fn new(inner: M, origin: Instant) -> Self {
        TimedModel {
            inner,
            origin,
            spans: Spans::default(),
        }
    }
}

impl<M: LanguageModel> LanguageModel for TimedModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&mut self, request: &ChatRequest) -> std::result::Result<ChatResponse, LlmError> {
        let t = Instant::now();
        let r = self.inner.complete(request);
        record_span(&self.spans, self.origin, t);
        r
    }
}

/// A [`TuneTarget`] that records a span around every call and the
/// simulated time each measurement covered.
pub struct TimedTarget<T> {
    inner: T,
    origin: Instant,
    pub spans: Spans,
    pub sim_ns: Arc<AtomicU64>,
}

impl<T: TuneTarget> TimedTarget<T> {
    pub fn new(inner: T, origin: Instant) -> Self {
        TimedTarget {
            inner,
            origin,
            spans: Spans::default(),
            sim_ns: Arc::default(),
        }
    }
}

impl<T: TuneTarget> TuneTarget for TimedTarget<T> {
    fn workload_text(&self) -> String {
        self.inner.workload_text()
    }

    fn workload_short_name(&self) -> String {
        self.inner.workload_short_name()
    }

    fn prepare(&mut self, start: &Options) -> std::result::Result<(), SessionError> {
        let t = Instant::now();
        let r = self.inner.prepare(start);
        record_span(&self.spans, self.origin, t);
        r
    }

    fn measure(
        &mut self,
        opts: &Options,
        reference: Option<f64>,
        want_stats: bool,
    ) -> std::result::Result<Measurement, SessionError> {
        let t = Instant::now();
        let r = self.inner.measure(opts, reference, want_stats);
        record_span(&self.spans, self.origin, t);
        if let Ok(m) = &r {
            // Each measurement runs on a fresh simulated environment, so
            // its clock reads the simulated time the run covered.
            let sim = m.env.clock().now().as_secs_f64();
            self.sim_ns.fetch_add((sim * 1e9) as u64, Ordering::Relaxed);
        }
        r
    }

    fn restore(&mut self, opts: &Options) -> std::result::Result<(), SessionError> {
        let t = Instant::now();
        let r = self.inner.restore(opts);
        record_span(&self.spans, self.origin, t);
        r
    }
}

/// Total wall-clock microseconds (`count × average`) of one engine
/// histogram line in a Stats dump, e.g. `flush.time.micros`.
pub fn histogram_total_us(dump: &str, name: &str) -> Option<f64> {
    let line = histogram_line(dump, name)?;
    Some(field(line, "COUNT")? * field(line, "AVG")?)
}

/// The P50 of one engine histogram line in a Stats dump.
pub fn histogram_p50_us(dump: &str, name: &str) -> Option<f64> {
    field(histogram_line(dump, name)?, "P50")
}

fn histogram_line<'a>(dump: &'a str, name: &str) -> Option<&'a str> {
    let prefix = format!("rocksdb.{name} ");
    dump.lines().find(|l| l.starts_with(&prefix))
}

/// The number after `label :` in a histogram line.
fn field(line: &str, label: &str) -> Option<f64> {
    let mut words = line.split_whitespace();
    while let Some(w) = words.next() {
        if w == label && words.next() == Some(":") {
            return words.next()?.parse().ok();
        }
    }
    None
}

/// A counter from the dump's `** Server Stats **` section, e.g.
/// `requests_err`.
pub fn server_counter(dump: &str, name: &str) -> Option<u64> {
    let section = &dump[dump.find("** Server Stats **")?..];
    let mut words = section.split_whitespace();
    let key = format!("{name}:");
    while let Some(w) = words.next() {
        if w == key {
            return words.next()?.parse().ok();
        }
    }
    None
}

/// User plus system CPU seconds of process `pid` (`self` for this one),
/// from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / clock_ticks_per_second()
}

fn clock_ticks_per_second() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// Peak resident set (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_kvs::{Db, MemVfs, Ticker};

    const DUMP: &str = "\
rocksdb.db.get.micros P50 : 23.60 P75 : 30.10 P99 : 94.21 P99.9 : 176.13 P99.99 : 4063.23 P100 : 14101.59 COUNT : 1000 AVG : 58.24 STDDEV : 84.34
rocksdb.flush.time.micros P50 : 5.00 P75 : 5.00 P99 : 5.00 P99.9 : 5.00 P99.99 : 5.00 P100 : 5.00 COUNT : 4 AVG : 250.50 STDDEV : 0.00

** Server Stats **
connections_accepted: 3  connections_active: 2
requests_ok: 120  requests_err: 1  protocol_errors: 0
backpressure_stalls: 7  bytes_received: 4096  bytes_sent: 8192
";

    #[test]
    fn reads_histograms_and_server_counters_from_a_dump() {
        assert_eq!(histogram_p50_us(DUMP, "db.get.micros"), Some(23.6));
        assert_eq!(histogram_total_us(DUMP, "flush.time.micros"), Some(1002.0));
        assert_eq!(histogram_total_us(DUMP, "compaction.time.micros"), None);
        assert_eq!(server_counter(DUMP, "requests_err"), Some(1));
        assert_eq!(server_counter(DUMP, "backpressure_stalls"), Some(7));
        assert_eq!(server_counter(DUMP, "bytes_sent"), Some(8192));
        assert_eq!(server_counter("no section", "requests_err"), None);
    }

    /// One single-threaded, simulated run; returns the tickers that
    /// repeat exactly from run to run.
    fn deterministic_tickers(vfs: Arc<dyn Vfs>) -> Vec<u64> {
        let env = hw_sim::HardwareEnv::builder().build_sim();
        let opts = Options {
            write_buffer_size: 64 << 10,
            bloom_filter_bits_per_key: 10.0,
            ..Options::default()
        };
        let db = Db::builder(opts).env(&env).vfs(vfs).open().unwrap();
        for i in 0..5_000u64 {
            db.put(&db_bench::render_key(i * 7 % 5_000, 16), &[i as u8; 100])
                .unwrap();
        }
        db.flush().unwrap();
        db.wait_background_idle().unwrap();
        for i in 0..10_000u64 {
            let _ = db.get(&db_bench::render_key(i * 13 % 10_000, 16)).unwrap();
        }
        let t = db.stats().tickers;
        [
            Ticker::BloomChecked,
            Ticker::BloomUseful,
            Ticker::BlockCacheHit,
            Ticker::BlockCacheMiss,
            Ticker::GetHit,
            Ticker::FlushJobs,
        ]
        .iter()
        .map(|&k| t.get(k))
        .collect()
    }

    #[test]
    fn wrapping_vfs_leaves_deterministic_tickers_unchanged() {
        let plain = deterministic_tickers(Arc::new(MemVfs::new()));
        let traced_vfs = TracingVfs::new(Arc::new(MemVfs::new()));
        let counters = traced_vfs.counters();
        let traced = deterministic_tickers(Arc::new(traced_vfs));
        assert!(
            plain[0] > 0 && plain[1] > 0,
            "bloom filters were probed: {plain:?}"
        );
        assert_eq!(plain, traced);
        assert!(counters.read_calls.load(Ordering::Relaxed) > 0);
        assert!(counters.bytes_written.load(Ordering::Relaxed) > 0);
    }
}
