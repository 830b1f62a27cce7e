//! In-process workloads on real files: `ingest` (the write path, timed
//! through the compaction drain) and `point_read_cold` (reads over a
//! store ~14x the block cache, beside a trickle of writes).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use db_bench::{render_key, KeyDistribution, KeyGenerator};
use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::{Db, DbStats, KvEngine, StdVfs, Ticker, Vfs, WriteBatch};

use crate::layers::{histogram_total_us, GaugeMax, GaugeSampler, TracingVfs, VfsCounters};
use crate::metrics::{Ratio, Samples};
use crate::{repeated_setup, BoxResult, Ctx, Out};

pub const KEY_SIZE: usize = 16;
pub const VALUE_SIZE: usize = 100;

/// Keys `ingest` writes per second of `--seconds`, so the run measures
/// about that long on a 2-core host while every run does the same work.
const INGEST_KEYS_PER_SECOND: u64 = 100_000;
/// Keys preloaded for `point_read_cold`: ~116 MB of user data.
const COLD_KEYS: u64 = 1_000_000;
/// Share of `point_read_cold` operations that are puts.
const COLD_PUT_SHARE: f64 = 0.10;
/// Closed-loop client threads.
const THREADS: u64 = 2;
/// Set-ups per run; the median is reported. `ingest`'s set-up is cheap
/// and its open is milliseconds of file-system syncs, so it takes more.
const SETUPS: usize = 3;
const INGEST_SETUPS: usize = 9;

/// splitmix64: a tiny, seedable generator for values and op choices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The value stored under key `idx`: a pure function of key and seed,
/// so any read can be checked exactly.
pub fn value_for(idx: u64, seed: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_SIZE);
    let mut s = mix(idx ^ mix(seed));
    while v.len() < VALUE_SIZE {
        s = mix(s);
        v.extend_from_slice(&s.to_le_bytes());
    }
    v.truncate(VALUE_SIZE);
    v
}

/// Parses a rendered key back to its index.
pub fn key_index(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key).ok()?.parse().ok()
}

/// Small buffers, so flush and compaction complete many cycles in a run.
fn small_buffer_options() -> Options {
    Options {
        write_buffer_size: 4 << 20,
        target_file_size_base: 4 << 20,
        max_bytes_for_level_base: 16 << 20,
        ..Options::default()
    }
}

fn cold_options() -> Options {
    Options {
        // A smaller memtable, so the 10% puts flush and compact during a run.
        write_buffer_size: 1 << 20,
        bloom_filter_bits_per_key: 10.0,
        ..small_buffer_options()
    }
}

/// Opens a real-mode database, through the wrapping VFS when traced.
fn open(
    dir: &Path,
    opts: &Options,
    traced: bool,
) -> BoxResult<(Arc<Db>, Option<Arc<VfsCounters>>)> {
    let env = HardwareEnv::builder().build_wall();
    let mut vfs: Arc<dyn Vfs> = Arc::new(StdVfs::new(dir)?);
    let mut counters = None;
    if traced {
        let t = TracingVfs::new(vfs);
        counters = Some(t.counters());
        vfs = Arc::new(t);
    }
    let db = Db::builder(opts.clone()).env(&env).vfs(vfs).open()?;
    Ok((Arc::new(db), counters))
}

/// Bitmap of acknowledged key indices.
struct Acked(Vec<u64>);

impl Acked {
    fn new(n: u64) -> Acked {
        Acked(vec![0; n.div_ceil(64) as usize])
    }
    fn set(&mut self, i: u64) {
        self.0[(i / 64) as usize] |= 1 << (i % 64);
    }
    fn get(&self, i: u64) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }
    fn union(&mut self, other: &Acked) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
    fn count(&self) -> u64 {
        self.0.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// Engine statistics at both ends of a phase, with sampled gauge maxima.
#[derive(Default)]
pub struct EngineDelta {
    pub before: Option<DbStats>,
    pub after: Option<DbStats>,
    pub dump_before: String,
    pub dump_after: String,
    pub gauges: GaugeMax,
}

impl EngineDelta {
    pub fn ticker(&self, t: Ticker) -> f64 {
        match (&self.before, &self.after) {
            (Some(b), Some(a)) => a.tickers.get(t).saturating_sub(b.tickers.get(t)) as f64,
            _ => 0.0,
        }
    }

    /// WAL, flush and compaction bytes per user byte written.
    pub fn write_amp(&self) -> Ratio {
        Ratio::new(
            self.ticker(Ticker::WalBytes)
                + self.ticker(Ticker::FlushBytesWritten)
                + self.ticker(Ticker::CompactionBytesWritten),
            self.ticker(Ticker::BytesWritten),
        )
    }

    /// Seconds recorded in one engine histogram (`flush.time.micros`,
    /// `compaction.time.micros`; wall clock in real mode) over the phase.
    fn busy_s(&self, hist: &str) -> f64 {
        let total = |d: &str| histogram_total_us(d, hist).unwrap_or(0.0);
        (total(&self.dump_after) - total(&self.dump_before)) / 1e6
    }
}

/// What one closed-loop phase measured.
#[derive(Default)]
struct Phase {
    gets: Samples,
    puts: Samples,
    failed: u64,
    wrong: u64,
    elapsed_s: f64,
    cpu_s: f64,
    engine: EngineDelta,
    pending_last_put: u64,
    drain_s: f64,
}

impl Phase {
    fn ops(&self) -> u64 {
        (self.gets.len() + self.puts.len()) as u64 + self.failed
    }
}

/// Runs `f(thread, deadline)` on [`THREADS`] threads and merges what
/// they measured; `traced` samples the engine's gauges meanwhile.
fn closed_loop(
    db: &Arc<Db>,
    traced: bool,
    f: impl Fn(u64) -> BoxResult<Phase> + Sync,
) -> BoxResult<Phase> {
    let sampler = traced.then(|| {
        GaugeSampler::start(
            Arc::clone(db) as Arc<dyn KvEngine>,
            Duration::from_millis(5),
        )
    });
    let before = db.stats();
    let dump_before = db.stats_text();
    let cpu0 = crate::layers::cpu_seconds("self");
    let t0 = Instant::now();
    let parts: Vec<BoxResult<Phase>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn({
                    let f = &f;
                    move || f(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        elapsed_s: t0.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for p in parts {
        let p = p?;
        phase.gets.merge(p.gets);
        phase.puts.merge(p.puts);
        phase.failed += p.failed;
        phase.wrong += p.wrong;
    }
    phase.engine.before = Some(before);
    phase.engine.dump_before = dump_before;
    phase.cpu_s = crate::layers::cpu_seconds("self") - cpu0;
    if let Some(s) = sampler {
        phase.engine.gauges = s.finish();
    }
    Ok(phase)
}

fn finish_stats(db: &Db, phase: &mut Phase) {
    phase.engine.after = Some(db.stats());
    phase.engine.dump_after = db.stats_text();
}

/// Prints the end-to-end figures of a phase; `e2e` also records the
/// gated metrics.
fn report_phase(out: &mut Out, phase: &mut Phase, e2e: bool, what: &str) -> f64 {
    let ops = phase.ops() as f64;
    let ops_s = ops / phase.elapsed_s;
    let write = out.latency("write_us", &mut phase.puts);
    let read = out.latency("read_us", &mut phase.gets);
    let primary = if phase.gets.len() > 0 { read } else { write };
    let cpu = phase.cpu_s * 1e6 / ops;
    if e2e {
        out.e2e(
            "ops_s",
            ops_s,
            format!("{ops} {what} in {:.3} s", phase.elapsed_s),
        );
        if let Some(p) = primary {
            out.e2e("op_p50_us", p.p50_us, format!("n={}", p.n));
            out.e2e("op_p97_5_us", p.p97_5_us, format!("n={}", p.n));
        }
        out.e2e(
            "cpu_us_per_op",
            cpu,
            format!("{:.3} CPU s / {ops} ops", phase.cpu_s),
        );
    } else {
        out.info(
            "ops_s",
            ops_s,
            "ops/s",
            format!("{ops} {what} in {:.3} s", phase.elapsed_s),
        );
        out.info(
            "cpu_us_per_op",
            cpu,
            "us",
            format!("{:.3} CPU s / {ops} ops", phase.cpu_s),
        );
    }
    let wa = phase.engine.write_amp();
    out.info(
        "write_amp",
        wa.value(),
        "bytes",
        format!("WAL+flush+compaction bytes / user bytes = {wa}"),
    );
    ops_s
}

/// Per-layer metrics read from engine tickers, gauges and the wrapping
/// VFS over one traced phase.
fn report_layers(out: &mut Out, phase: &Phase, vfs: &VfsCounters) {
    use std::sync::atomic::Ordering::Relaxed;
    let gets = phase.engine.ticker(Ticker::KeysRead);
    let keys = phase.engine.ticker(Ticker::KeysWritten);
    let user_bytes = phase.engine.ticker(Ticker::BytesWritten);
    let (mut reads, mut syncs) = vfs.take_samples();
    let per_get = |v: f64| Ratio::new(v, gets);
    let r = per_get(vfs.read_calls.load(Relaxed) as f64);
    out.layer("vfs.read_calls_per_get", r.value(), r);
    let r = per_get(vfs.read_ns.load(Relaxed) as f64 / 1e3);
    out.layer("vfs.read_us_per_get", r.value(), r);
    let s = reads.summary();
    out.layer(
        "vfs.read_us_p50",
        s.map_or(0.0, |s| s.p50_us),
        format!("n={}", reads.len()),
    );
    out.layer(
        "vfs.append_us_total",
        vfs.append_ns.load(Relaxed) as f64 / 1e3,
        "append + finish",
    );
    out.layer("vfs.sync_calls", vfs.sync_calls.load(Relaxed) as f64, "");
    let s = syncs.summary();
    out.layer(
        "vfs.sync_us_p50",
        s.map_or(0.0, |s| s.p50_us),
        format!("n={}", syncs.len()),
    );
    let r = Ratio::new(vfs.bytes_written.load(Relaxed) as f64, user_bytes);
    out.layer("vfs.bytes_written_per_user_byte", r.value(), r);
    engine_layers(out, &phase.engine, gets, keys);
}

/// Engine-ticker layers over a phase; shared with `serve_mixed`, which
/// reads the same tickers from the leader through the Stats RPC.
pub fn engine_layers(out: &mut Out, phase: &EngineDelta, gets: f64, keys: f64) {
    let t = |k| phase.ticker(k);
    let hit = Ratio::new(
        t(Ticker::BlockCacheHit),
        t(Ticker::BlockCacheHit) + t(Ticker::BlockCacheMiss),
    );
    out.layer("block_cache.hit_ratio", hit.value(), hit);
    let r = Ratio::new(t(Ticker::BlockCacheMiss), gets);
    out.layer("block_cache.misses_per_get", r.value(), r);
    out.layer("table_cache.opens", t(Ticker::TableOpens), "");
    let r = Ratio::new(t(Ticker::BloomUseful), t(Ticker::BloomChecked));
    out.layer("bloom.useful_ratio", r.value(), r);
    let r = Ratio::new(t(Ticker::BloomChecked), gets);
    out.layer("bloom.checked_per_get", r.value(), r);
    let r = Ratio::new(t(Ticker::BytesRead), gets);
    out.layer("sstable.bytes_read_per_get", r.value(), r);
    let r = Ratio::new(
        t(Ticker::MemtableHit),
        t(Ticker::MemtableHit) + t(Ticker::MemtableMiss),
    );
    out.layer("memtable.hit_ratio", r.value(), r);
    out.layer(
        "memtable.bytes_max",
        phase.gauges.memtable_bytes as f64,
        "sampled maximum",
    );
    let r = Ratio::new(t(Ticker::WalBytes), keys);
    out.layer("wal.bytes_per_key", r.value(), r);
    let r = Ratio::new(t(Ticker::WalSyncs), keys);
    out.layer("wal.syncs_per_key", r.value(), r);
    let r = Ratio::new(t(Ticker::GroupCommitBatches), t(Ticker::GroupCommits));
    out.layer("db.group_commit_batches_per_group", r.value(), r);
    out.layer("flush.jobs", t(Ticker::FlushJobs), "");
    out.layer(
        "flush.busy_s",
        phase.busy_s("flush.time.micros"),
        "sum of flush.time.micros",
    );
    out.layer("compaction.jobs", t(Ticker::CompactionJobs), "");
    out.layer(
        "compaction.busy_s",
        phase.busy_s("compaction.time.micros"),
        "sum of compaction.time.micros",
    );
    out.layer(
        "compaction.bytes_written",
        t(Ticker::CompactionBytesWritten),
        "",
    );
    out.layer(
        "compaction.pending_bytes_max",
        phase.gauges.pending_compaction_bytes as f64,
        "sampled maximum",
    );
    out.layer(
        "version.l0_files_max",
        phase.gauges.l0_files as f64,
        "sampled maximum",
    );
    out.layer("write_controller.stall_s", t(Ticker::StallNanos) / 1e9, "");
    out.layer("write_controller.slowdowns", t(Ticker::WriteSlowdowns), "");
    out.layer("write_controller.stops", t(Ticker::WriteStops), "");
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

/// The key indices each client thread puts, drawn before the clock
/// starts so the timed loop does no generating.
fn ingest_keys(seed: u64, n: u64) -> Vec<Vec<u64>> {
    (0..THREADS)
        .map(|t| {
            let mut g = KeyGenerator::new(mix(seed ^ t), n, KEY_SIZE, KeyDistribution::Uniform);
            (0..n / THREADS).map(|_| g.next_index()).collect()
        })
        .collect()
}

/// One ingest: every key of `keys` put unsynced from its thread, timed
/// until `wait_background_idle` returns.
fn ingest_phase(
    ctx: &Ctx,
    db: &Arc<Db>,
    n: u64,
    keys: &[Vec<u64>],
    traced: bool,
) -> BoxResult<(Phase, Acked)> {
    let acked: Vec<std::sync::Mutex<Acked>> = (0..THREADS)
        .map(|_| std::sync::Mutex::new(Acked::new(n)))
        .collect();
    let mut phase = closed_loop(db, traced, |t| {
        let mut p = Phase::default();
        let mut mine = acked[t as usize].lock().expect("acked lock");
        for &idx in &keys[t as usize] {
            let (key, value) = (render_key(idx, KEY_SIZE), value_for(idx, ctx.seed));
            let start = Instant::now();
            let r = db.put(&key, &value);
            p.puts.push(start.elapsed().as_nanos() as u64);
            match r {
                Ok(()) => mine.set(idx),
                Err(_) => p.failed += 1,
            }
        }
        Ok(p)
    })?;
    // The threads are done: this is the last put. Drain and stop the clock.
    let drain = Instant::now();
    phase.pending_last_put = db.stats().pending_compaction_bytes;
    db.wait_background_idle()?;
    phase.drain_s = drain.elapsed().as_secs_f64();
    phase.elapsed_s += phase.drain_s;
    finish_stats(db, &mut phase);
    let mut all = Acked::new(n);
    for a in &acked {
        all.union(&a.lock().expect("acked lock"));
    }
    Ok((phase, all))
}

pub fn ingest(ctx: &Ctx, out: &mut Out) -> BoxResult<()> {
    let n = ctx.seconds * INGEST_KEYS_PER_SECOND;
    let opts = small_buffer_options();
    let dir = |i: usize| ctx.dir.join(format!("ingest-{i}"));
    let ((db, keys), setup_s) = repeated_setup(
        out,
        INGEST_SETUPS,
        |i| {
            let db = open(&ctx.subdir(&format!("ingest-{i}")), &opts, false)?.0;
            Ok((db, ingest_keys(ctx.seed, n)))
        },
        |i, setup| {
            drop(setup);
            let _ = std::fs::remove_dir_all(dir(i));
        },
    )?;
    let cpu0 = crate::layers::cpu_seconds("self");
    let (mut phase, acked) = ingest_phase(ctx, &db, n, &keys, false)?;
    phase.cpu_s = crate::layers::cpu_seconds("self") - cpu0;
    out.ops(phase.ops(), phase.failed);
    if !ctx.trace {
        out.e2e(
            "setup_s",
            setup_s,
            format!("open of an empty store + drawing the keys, median of {INGEST_SETUPS}"),
        );
    }
    println!("ingest: {n} puts over {n} keys, 2 threads, unsynced, timed through the drain");
    let ops_s = report_phase(out, &mut phase, !ctx.trace, "puts");
    out.info(
        "compaction.drain_s",
        phase.drain_s,
        "s",
        "last put to wait_background_idle",
    );
    out.info(
        "compaction.pending_bytes_last_put",
        phase.pending_last_put as f64,
        "bytes",
        "",
    );
    check_ingest(ctx, out, db, &dir(INGEST_SETUPS - 1), &opts, &acked)?;
    if !ctx.trace {
        out.e2e(
            "peak_rss_mib",
            crate::layers::peak_rss_mib("self"),
            "VmHWM of this process",
        );
        return Ok(());
    }
    // Traced run: the same ingest on a fresh store through the probes.
    let tdir = ctx.subdir("ingest-traced");
    let (db, vfs) = open(&tdir, &opts, true)?;
    let vfs = vfs.expect("traced open has counters");
    let cpu0 = crate::layers::cpu_seconds("self");
    let (mut traced, acked) = ingest_phase(ctx, &db, n, &keys, true)?;
    traced.cpu_s = crate::layers::cpu_seconds("self") - cpu0;
    out.ops(traced.ops(), traced.failed);
    println!("traced ingest:");
    let traced_ops_s = report_phase(out, &mut traced, false, "puts");
    report_layers(out, &traced, &vfs);
    out.layer(
        "compaction.drain_s",
        traced.drain_s,
        "last put to wait_background_idle",
    );
    out.layer(
        "compaction.pending_bytes_last_put",
        traced.pending_last_put as f64,
        "",
    );
    overhead(out, ops_s, traced_ops_s);
    check_ingest(ctx, out, db, &tdir, &opts, &acked)
}

/// After the drain: flushes the memtable, reports space amplification,
/// then reopens the directory and reads back every acknowledged key.
fn check_ingest(
    ctx: &Ctx,
    out: &mut Out,
    db: Arc<Db>,
    dir: &Path,
    opts: &Options,
    acked: &Acked,
) -> BoxResult<()> {
    db.flush()?;
    db.wait_background_idle()?;
    let sst: u64 = db.stats().levels.iter().map(|l| l.1).sum();
    let live = acked.count();
    let space = Ratio::new(sst as f64, (live * (KEY_SIZE + VALUE_SIZE) as u64) as f64);
    out.info(
        "space_amp",
        space.value(),
        "bytes",
        format!("live SST bytes / live user bytes = {space}"),
    );
    drop(db);
    let (db, _) = open(dir, opts, false)?;
    let (mut seen, mut start) = (0u64, Vec::new());
    loop {
        let chunk = db.scan(&start, 10_000)?;
        for (k, v) in &chunk {
            let ok = key_index(k).is_some_and(|i| acked.get(i) && *v == value_for(i, ctx.seed));
            out.check(ok, || {
                format!(
                    "reopened store holds an unexpected entry {}",
                    String::from_utf8_lossy(k)
                )
            });
            seen += 1;
        }
        match chunk.last() {
            Some((k, _)) if chunk.len() == 10_000 => {
                start = k.clone();
                start.push(0);
            }
            _ => break,
        }
    }
    out.check(seen == live, || {
        format!("reopened store reads back {seen} keys, {live} were acknowledged")
    });
    Ok(())
}

/// Reports the traced run's throughput and its gap from the untraced run.
pub fn overhead(out: &mut Out, untraced_ops_s: f64, traced_ops_s: f64) {
    out.layer(
        "trace.ops_s",
        traced_ops_s,
        format!("untraced: {untraced_ops_s:.1}"),
    );
    let r = Ratio::new(untraced_ops_s - traced_ops_s, traced_ops_s);
    out.layer(
        "trace.overhead_pct",
        r.value() * 100.0,
        format!("(untraced - traced) / traced ops/s = {r}"),
    );
}

// ---------------------------------------------------------------------------
// point_read_cold
// ---------------------------------------------------------------------------

/// Loads every key of `0..n` in key order, in batches, and waits for the
/// tree to settle.
fn preload(db: &Db, n: u64, seed: u64) -> BoxResult<()> {
    let mut batch = WriteBatch::with_capacity(1000);
    for idx in 0..n {
        batch.put(&render_key(idx, KEY_SIZE), &value_for(idx, seed));
        if batch.len() == 1000 || idx + 1 == n {
            db.write(std::mem::replace(
                &mut batch,
                WriteBatch::with_capacity(1000),
            ))?;
        }
    }
    db.flush()?;
    db.wait_background_idle()?;
    Ok(())
}

/// Gets (checked against the value function) and puts of uniform keys,
/// closed loop, until `seconds` pass.
fn cold_phase(ctx: &Ctx, db: &Arc<Db>, traced: bool) -> BoxResult<Phase> {
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    let mut phase = closed_loop(db, traced, |t| {
        let mut p = Phase::default();
        let salt = mix(ctx.seed ^ (t << 32) ^ u64::from(traced));
        let mut keys = KeyGenerator::new(salt, COLD_KEYS, KEY_SIZE, KeyDistribution::Uniform);
        let mut choice = salt;
        while Instant::now() < deadline {
            let idx = keys.next_index();
            let key = render_key(idx, KEY_SIZE);
            choice = mix(choice);
            let start = Instant::now();
            if choice % 1000 < (COLD_PUT_SHARE * 1000.0) as u64 {
                let r = db.put(&key, &value_for(idx, ctx.seed));
                p.puts.push(start.elapsed().as_nanos() as u64);
                p.failed += u64::from(r.is_err());
            } else {
                let r = db.get(&key);
                p.gets.push(start.elapsed().as_nanos() as u64);
                match r {
                    Ok(Some(v)) if v == value_for(idx, ctx.seed) => {}
                    Ok(_) => p.wrong += 1,
                    Err(_) => p.failed += 1,
                }
            }
        }
        Ok(p)
    })?;
    finish_stats(db, &mut phase);
    Ok(phase)
}

pub fn point_read_cold(ctx: &Ctx, out: &mut Out) -> BoxResult<()> {
    let opts = cold_options();
    let dir = |i: usize| ctx.dir.join(format!("cold-{i}"));
    let (db, setup_s) = repeated_setup(
        out,
        SETUPS,
        |i| {
            let (db, _) = open(&ctx.subdir(&format!("cold-{i}")), &opts, false)?;
            preload(&db, COLD_KEYS, ctx.seed)?;
            Ok(db)
        },
        |i, db| {
            drop(db);
            let _ = std::fs::remove_dir_all(dir(i));
        },
    )?;
    let levels: Vec<String> = db
        .stats()
        .levels
        .iter()
        .map(|l| format!("{}/{:.1}MB", l.0, l.1 as f64 / 1e6))
        .collect();
    println!(
        "point_read_cold: {COLD_KEYS} keys preloaded (files/size per level: {}), 8 MiB block cache, \
         {:.0}% unsynced puts, 2 threads for {} s",
        levels.join(" "),
        COLD_PUT_SHARE * 100.0,
        ctx.seconds
    );
    let mut phase = cold_phase(ctx, &db, false)?;
    check_cold(out, &phase);
    out.ops(phase.ops(), phase.failed);
    if !ctx.trace {
        out.e2e(
            "setup_s",
            setup_s,
            format!("open + preload of {COLD_KEYS} keys, median of {SETUPS}"),
        );
    }
    let ops_s = report_phase(out, &mut phase, !ctx.trace, "gets and puts");
    if !ctx.trace {
        out.e2e(
            "peak_rss_mib",
            crate::layers::peak_rss_mib("self"),
            "VmHWM of this process",
        );
        return Ok(());
    }
    // Traced run: reopen the same store through the probes.
    drop(db);
    let (db, vfs) = open(&dir(SETUPS - 1), &opts, true)?;
    let vfs = vfs.expect("traced open has counters");
    let mut traced = cold_phase(ctx, &db, true)?;
    check_cold(out, &traced);
    out.ops(traced.ops(), traced.failed);
    println!("traced point_read_cold:");
    let traced_ops_s = report_phase(out, &mut traced, false, "gets and puts");
    report_layers(out, &traced, &vfs);
    overhead(out, ops_s, traced_ops_s);
    Ok(())
}

fn check_cold(out: &mut Out, phase: &Phase) {
    out.check(phase.wrong == 0, || {
        format!(
            "{} gets of preloaded keys returned a wrong or no value",
            phase.wrong
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_a_function_of_key_and_seed() {
        assert_eq!(value_for(7, 1), value_for(7, 1));
        assert_ne!(value_for(7, 1), value_for(8, 1));
        assert_ne!(value_for(7, 1), value_for(7, 2));
        assert_eq!(value_for(7, 1).len(), VALUE_SIZE);
        assert_eq!(key_index(&render_key(123_456, KEY_SIZE)), Some(123_456));
    }

    #[test]
    fn acked_bitmap_counts_and_unions() {
        let mut a = Acked::new(130);
        a.set(0);
        a.set(129);
        let mut b = Acked::new(130);
        b.set(129);
        b.set(64);
        a.union(&b);
        assert_eq!(a.count(), 3);
        assert!(a.get(64) && !a.get(65) && !a.get(1000));
    }
}
