//! `perfbench` — the repository's benchmark: four workloads over the
//! engine, the serving path and the tuning loop, each printing its
//! end-to-end metrics (untraced run) or its per-layer metrics (traced
//! run), checking every output it reads, and ending with one JSON line.
//!
//! ```text
//! perfbench --workload ingest|point_read_cold|serve_mixed|tune_sim
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root through `python3 perfbench/run.py`,
//! which builds this package and `kv_server` first. Data lives under
//! `.bench_data/` in the working directory and is removed at exit.

mod inproc;
mod layers;
mod metrics;
mod serve;
mod tune;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type BoxResult<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// End-to-end metrics, reported by every workload's untraced run. The
/// tail is gated at p97.5, the highest percentile that held still across
/// ten-run trials on every workload (see NOTES.md); p99 and beyond are
/// printed.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p97_5_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not reach, or cannot observe, reads 0 and is
/// marked so in the printed table.
pub const LAYERS: [(&str, &str); 47] = [
    ("vfs.read_calls_per_get", "count"),
    ("vfs.read_us_per_get", "us"),
    ("vfs.read_us_p50", "us"),
    ("vfs.append_us_total", "us"),
    ("vfs.sync_calls", "count"),
    ("vfs.sync_us_p50", "us"),
    ("vfs.bytes_written_per_user_byte", "ratio"),
    ("block_cache.hit_ratio", "ratio"),
    ("block_cache.misses_per_get", "count"),
    ("table_cache.opens", "count"),
    ("bloom.useful_ratio", "ratio"),
    ("bloom.checked_per_get", "count"),
    ("sstable.bytes_read_per_get", "bytes"),
    ("memtable.hit_ratio", "ratio"),
    ("memtable.bytes_max", "bytes"),
    ("wal.bytes_per_key", "bytes"),
    ("wal.syncs_per_key", "count"),
    ("db.group_commit_batches_per_group", "count"),
    ("flush.jobs", "count"),
    ("flush.busy_s", "s"),
    ("compaction.jobs", "count"),
    ("compaction.busy_s", "s"),
    ("compaction.bytes_written", "bytes"),
    ("compaction.pending_bytes_max", "bytes"),
    ("compaction.pending_bytes_last_put", "bytes"),
    ("compaction.drain_s", "s"),
    ("version.l0_files_max", "count"),
    ("write_controller.stall_s", "s"),
    ("write_controller.slowdowns", "count"),
    ("write_controller.stops", "count"),
    ("client.read_us_p50", "us"),
    ("client.ping_us_p50", "us"),
    ("server.engine_get_us_p50", "us"),
    ("server.rpc_self_us_p50", "us"),
    ("server.bytes_per_op", "bytes"),
    ("server.requests_err", "count"),
    ("server.protocol_errors", "count"),
    ("server.backpressure_stalls", "count"),
    ("repl.lag_seq_max", "count"),
    ("repl.catchup_ms", "ms"),
    ("workload.gen_late_p99_us", "us"),
    ("llm.complete_ms_per_iter", "ms"),
    ("target.measure_s_per_iter", "s"),
    ("hwsim.sim_s_per_wall_s", "ratio"),
    ("core.self_ms_per_iter", "ms"),
    ("trace.ops_s", "ops/s"),
    ("trace.overhead_pct", "%"),
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `serve_mixed` only: run every thread closed loop to measure the
    /// capacity its fixed offered rate was chosen from.
    pub closed_loop: bool,
    /// This run's private data directory.
    pub dir: PathBuf,
}

impl Ctx {
    /// A fresh subdirectory of the run's data directory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let d = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

/// Collects metrics and output checks, and prints them as they come.
#[derive(Default)]
pub struct Out {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

impl Out {
    fn print(name: &str, value: f64, unit: &str, note: &dyn Display) {
        println!("  {name:<36} {value:>16.4} {unit:<6} {note}");
    }

    /// An end-to-end metric of the untraced run.
    pub fn e2e(&mut self, name: &str, value: f64, note: impl Display) {
        let (name, unit) = unit_of(&E2E, name);
        Self::print(name, value, unit, &note);
        self.e2e.insert(name, value);
    }

    /// A per-layer metric of the traced run.
    pub fn layer(&mut self, name: &str, value: f64, note: impl Display) {
        let (name, unit) = unit_of(&LAYERS, name);
        Self::print(name, value, unit, &note);
        self.layers.insert(name, value);
    }

    /// A printed figure that is not one of the gated metrics.
    pub fn info(&self, name: &str, value: f64, unit: &str, note: impl Display) {
        Self::print(name, value, unit, &note);
    }

    /// Prints a latency distribution with its sample counts.
    pub fn latency(&self, name: &str, samples: &mut metrics::Samples) -> Option<metrics::Summary> {
        let sum = samples.summary();
        match &sum {
            Some(s) => println!("  {name:<36} {s}"),
            None => println!("  {name:<36} no samples"),
        }
        sum
    }

    /// Records an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("  CHECK FAILED: {msg}");
            self.errors.push(msg);
        }
    }

    /// Counts operations attempted and failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn result_json(&self, trace: bool) -> String {
        let (table, got): (&[(&str, &str)], _) = if trace {
            (&LAYERS, &self.layers)
        } else {
            (&E2E, &self.e2e)
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = got.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of a non-empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Runs `setup` `reps` times, keeping the last result and handing the
/// earlier ones to `discard`; returns it with the median set-up time.
pub fn repeated_setup<T>(
    out: &Out,
    reps: usize,
    mut setup: impl FnMut(usize) -> BoxResult<T>,
    mut discard: impl FnMut(usize, T),
) -> BoxResult<(T, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..reps {
        let t = Instant::now();
        let v = setup(i)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(prev) = kept.replace(v) {
            discard(i - 1, prev);
        }
    }
    let med = median(&times);
    let list: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    out.info(
        "setup_s.each",
        med,
        "s",
        format!("median of [{}]", list.join(", ")),
    );
    Ok((kept.expect("at least one set-up"), med))
}

fn parse_args(args: &[String]) -> BoxResult<(String, Ctx)> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15;
    let mut trace = false;
    let mut closed_loop = false;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--closed-loop" {
            closed_loop = true;
            i += 1;
            continue;
        }
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse()?),
            "--seconds" => seconds = val.parse()?,
            "--trace" => trace = val != "0",
            other => return Err(format!("unknown flag {other}").into()),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let dir = PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Ctx {
            seed,
            seconds,
            trace,
            closed_loop,
            dir,
        },
    ))
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// File system type of the mount holding `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Digest of the sources the benchmark builds (`crates/`, `perfbench/`
/// and the lock files), naming the code when there is no git sha.
fn source_digest() -> String {
    use std::hash::Hasher;
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p
                    .extension()
                    .is_some_and(|x| x == "rs" || x == "toml" || x == "py")
                {
                    files.push(p);
                }
            }
        }
    }
    let mut files = vec![
        PathBuf::from("Cargo.lock"),
        PathBuf::from("perfbench/Cargo.lock"),
    ];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in &files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn provenance(ctx: &Ctx, workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_sha\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \
         \"kernel\": \"{}\", \"data_fs\": \"{}\"}}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        command_line("git", &["rev-parse", "HEAD"]),
        source_digest(),
        command_line("rustc", &["--version"]),
        kernel.trim(),
        filesystem_of(&ctx.dir),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let trace = ctx.trace;
    let result = std::fs::create_dir_all(&ctx.dir)
        .map_err(Into::into)
        .and_then(|()| {
            println!(
                "perfbench {workload} seed={} seconds={} trace={}",
                ctx.seed,
                ctx.seconds,
                u8::from(trace)
            );
            println!("provenance: {}", provenance(&ctx, &workload));
            let mut out = Out::default();
            match workload.as_str() {
                "ingest" => inproc::ingest(&ctx, &mut out),
                "point_read_cold" => inproc::point_read_cold(&ctx, &mut out),
                "serve_mixed" => serve::serve_mixed(&ctx, &mut out),
                "tune_sim" => tune::tune_sim(&ctx, &mut out),
                other => Err(format!("unknown workload {other}").into()),
            }
            .map(|()| out)
        });
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    if !trace {
        for (name, _) in E2E {
            out.check(out.e2e.contains_key(name), || {
                format!("{workload} did not report {name}")
            });
        }
    } else {
        let missing: Vec<&str> = LAYERS
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !out.layers.contains_key(n))
            .collect();
        if !missing.is_empty() {
            println!(
                "  not exercised or not observable here (reported as 0): {}",
                missing.join(", ")
            );
        }
    }
    let failed_frac = metrics::Ratio::new(out.failed as f64, out.attempted as f64);
    out.info("failed_frac", failed_frac.value(), "ratio", failed_frac);
    println!("{}", out.result_json(trace));
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in E2E.iter().chain(LAYERS.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                text.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            4 + E2E.len() + LAYERS.len()
        );
    }

    #[test]
    fn result_line_has_every_metric_of_its_kind() {
        let mut out = Out::default();
        out.e2e("setup_s", 1.5, "");
        out.layer("flush.jobs", 3.0, "");
        out.ops(10, 1);
        let e2e = out.result_json(false);
        assert!(
            e2e.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"),
            "{e2e}"
        );
        assert!(
            e2e.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{e2e}"
        );
        assert_eq!(e2e.matches("\"value\"").count(), E2E.len());
        let layers = out.result_json(true);
        assert!(
            layers.contains("\"flush.jobs\": {\"value\": 3, \"unit\": \"count\"}"),
            "{layers}"
        );
        assert_eq!(layers.matches("\"value\"").count(), LAYERS.len());
        out.check(false, || "a wrong value".into());
        assert!(out.result_json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
