//! `serve_mixed`: one replicated range — a `kv_server` leader and one
//! follower, both started here — driven through `ClusterClient`: Zipf-keyed
//! gets in a closed loop on one connection, beside an open loop of short
//! scans and synced puts on the other.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use db_bench::{render_key, KeyDistribution, KeyGenerator};
use lsm_kvs::{DbStats, KvEngine, Ticker, WriteBatch, WriteOptions};
use lsm_server::protocol::{Request, Response};
use lsm_server::{ClusterClient, Conn};

use crate::inproc::{engine_layers, key_index, mix, overhead, value_for, EngineDelta, KEY_SIZE};
use crate::layers::{cpu_seconds, histogram_p50_us, peak_rss_mib, server_counter, GaugeMax};
use crate::metrics::{due_ns, OpenLoopOp, Ratio, Samples};
use crate::{repeated_setup, BoxResult, Ctx, Out};

/// Preloaded keys: ~23 MB of user data, all of it cache-resident.
const KEYS: u64 = 200_000;
/// Large enough to hold every preloaded block.
const BLOCK_CACHE_BYTES: u64 = 128 << 20;
/// Offered rate of scans and synced puts (half and half), fixed: about
/// half their closed-loop capacity (`--closed-loop`) on a 2-core host;
/// see NOTES.md.
const OFFERED_OPS_S: f64 = 300.0;
const MAX_SCAN: u64 = 100;
const ZIPF_ALPHA: f64 = 0.99;
/// Client threads, each with its own connection: thread 0 sends gets in
/// a closed loop, thread 1 scans and synced puts in an open loop, so a
/// get never waits behind a scan or an fsync on its own connection,
/// only in the server.
const THREADS: u64 = 2;
const SETUPS: usize = 3;
/// Traced runs interleave a ping and two Stats calls this often.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// A scattered walk over `0..n` (a bijection), so preloads do not
/// arrive in key order.
fn scattered(i: u64, n: u64) -> u64 {
    let mut mult = 0x5851_f42d_4c95_7f2d % n;
    while gcd(mult, n) != 1 {
        mult += 1;
    }
    ((i as u128 * mult as u128) % n as u128) as u64
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A `kv_server` process started by the benchmark.
struct Server {
    child: Child,
    addr: String,
    replica_addr: Option<String>,
    /// Drains the server's stderr; ends when the process does.
    stderr_reader: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn spawn(dir: &Path, extra: &[&str]) -> BoxResult<Server> {
        let exe = std::env::current_exe()?.with_file_name("kv_server");
        let mut child = Command::new(&exe)
            .arg("--db")
            .arg(dir)
            .args(["--listen", "127.0.0.1:0"])
            .args(["--option", &format!("block_cache_size={BLOCK_CACHE_BYTES}")])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            // Forward the addresses, then keep draining so the server
            // never blocks on a full pipe.
            for line in BufReader::new(stderr).lines().map_while(|l| l.ok()) {
                for (tag, prefix) in [
                    ("replica", "kv_server replica port on "),
                    ("client", "kv_server listening on "),
                ] {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.send((tag, addr));
                    }
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            replica_addr: None,
            stderr_reader: Some(reader),
        };
        while server.addr.is_empty() {
            match rx.recv_timeout(Duration::from_secs(20)) {
                Ok(("replica", a)) => server.replica_addr = Some(a),
                Ok((_, a)) => server.addr = a,
                Err(_) => return Err(format!("{} did not start listening", exe.display()).into()),
            }
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to drain and exit, and waits for it.
    fn shutdown(mut self) -> BoxResult<()> {
        Conn::connect(&self.addr)?.call(&Request::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err("kv_server did not exit after Shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The process is still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stderr_reader.take() {
            let _ = reader.join();
        }
    }
}

/// The leader's and the follower's Stats, one RPC each.
struct Sampler {
    leader: Conn,
    follower: Conn,
}

impl Sampler {
    fn stats(conn: &mut Conn) -> BoxResult<(String, DbStats)> {
        match conn.call(&Request::Stats)? {
            Response::Stats { text, stats } => Ok((text, *stats)),
            other => Err(format!("unexpected Stats reply {other:?}").into()),
        }
    }

    /// How far the follower trails the leader, in sequence numbers; the
    /// leader's gauges go into `gauges`.
    fn lag(&mut self, gauges: &mut GaugeMax) -> BoxResult<u64> {
        let leader = Self::stats(&mut self.leader)?.1;
        gauges.observe(&leader);
        let f = Self::stats(&mut self.follower)?.1.last_sequence;
        Ok(leader.last_sequence.saturating_sub(f))
    }
}

struct Pair {
    leader: Server,
    follower: Server,
}

impl Pair {
    fn spec(&self) -> String {
        format!("{}~{}", self.leader.addr, self.follower.addr)
    }

    fn sampler(&self) -> BoxResult<Sampler> {
        Ok(Sampler {
            leader: Conn::connect(&self.leader.addr)?,
            follower: Conn::connect(&self.follower.addr)?,
        })
    }

    fn shutdown(self) -> BoxResult<()> {
        self.follower.shutdown()?;
        self.leader.shutdown()
    }
}

/// Waits until the follower has applied everything the leader committed;
/// returns how long that took.
fn catch_up(sampler: &mut Sampler) -> BoxResult<Duration> {
    let t = Instant::now();
    while sampler.lag(&mut GaugeMax::default())? > 0 {
        if t.elapsed() > Duration::from_secs(30) {
            return Err("follower did not reach the leader's last_sequence".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(t.elapsed())
}

/// Starts a leader and its follower, preloads [`KEYS`], flushes, warms
/// the leader's block cache with a full scan and waits for the follower.
fn start_pair(ctx: &Ctx, dir: &Path) -> BoxResult<Pair> {
    let leader = Server::spawn(&dir.join("leader"), &["--replica-listen", "127.0.0.1:0"])?;
    let replica = leader
        .replica_addr
        .clone()
        .ok_or("leader printed no replica port")?;
    let follower = Server::spawn(&dir.join("follower"), &["--follower-of", &replica])?;
    let pair = Pair { leader, follower };
    let client = ClusterClient::connect(&pair.spec(), Vec::new())?;
    let mut batch = WriteBatch::with_capacity(1000);
    for i in 0..KEYS {
        let idx = scattered(i, KEYS);
        batch.put(&render_key(idx, KEY_SIZE), &value_for(idx, ctx.seed));
        if batch.len() == 1000 || i + 1 == KEYS {
            client.write_opt(
                &WriteOptions::default(),
                std::mem::replace(&mut batch, WriteBatch::with_capacity(1000)),
            )?;
        }
    }
    client.flush()?;
    client.wait_background_idle()?;
    let mut start = Vec::new();
    loop {
        let chunk = client.scan(&start, 10_000)?;
        match chunk.last() {
            Some((k, _)) if chunk.len() == 10_000 => {
                start = k.clone();
                start.push(0);
            }
            _ => break,
        }
    }
    catch_up(&mut pair.sampler()?)?;
    Ok(pair)
}

#[derive(Default)]
struct Served {
    gets: Samples,
    scans: Samples,
    puts: Samples,
    late: Samples,
    pings: Samples,
    lag_max: u64,
    gauges: GaugeMax,
    failed: u64,
    wrong: u64,
    elapsed_s: f64,
}

impl Served {
    fn ops(&self) -> u64 {
        (self.gets.len() + self.scans.len() + self.puts.len()) as u64 + self.failed
    }

    fn merge(&mut self, o: Served) {
        self.gets.merge(o.gets);
        self.scans.merge(o.scans);
        self.puts.merge(o.puts);
        self.late.merge(o.late);
        self.pings.merge(o.pings);
        self.lag_max = self.lag_max.max(o.lag_max);
        self.gauges.merge(&o.gauges);
        self.failed += o.failed;
        self.wrong += o.wrong;
    }
}

/// Checks one scan answer: at most `limit` entries, sorted, starting at
/// or past `start`, each with its key's value. Every key exists, so the
/// answer is exactly the next `limit` indices.
fn scan_ok(seed: u64, start: u64, limit: u64, got: &[(Vec<u8>, Vec<u8>)]) -> bool {
    let want = limit.min(KEYS - start);
    got.len() as u64 == want
        && got.iter().enumerate().all(|(i, (k, v))| {
            key_index(k) == Some(start + i as u64) && *v == value_for(start + i as u64, seed)
        })
}

/// One client thread of the loop. `rate` is the offered rate of scans
/// and puts (open loop), or `None` for a closed loop.
fn client_thread(
    ctx: &Ctx,
    pair: &Pair,
    t: u64,
    rate: Option<f64>,
    traced: bool,
    origin: Instant,
) -> BoxResult<Served> {
    let client = ClusterClient::connect(&pair.spec(), Vec::new())?;
    let mut sampler = (traced && t == 0).then(|| pair.sampler()).transpose()?;
    let salt = mix(ctx.seed ^ (t << 40) ^ u64::from(traced));
    let mut keys = KeyGenerator::new(
        salt,
        KEYS,
        KEY_SIZE,
        KeyDistribution::PowerLaw { alpha: ZIPF_ALPHA },
    );
    let mut choice = salt;
    let mut s = Served::default();
    let end = ctx.seconds * 1_000_000_000;
    let mut next_sample = 0;
    let reader = t == 0;
    let rate = rate.filter(|_| !reader);
    for i in 0.. {
        let due = rate.map_or(0, |r| due_ns(i, r));
        if due >= end || origin.elapsed().as_nanos() as u64 >= end {
            break;
        }
        let now = origin.elapsed().as_nanos() as u64;
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let sent = origin.elapsed().as_nanos() as u64;
        let due = if rate.is_some() { due } else { sent };
        let idx = keys.next_index();
        let key = render_key(idx, KEY_SIZE);
        choice = mix(choice);
        let op = |done: u64| OpenLoopOp { due, sent, done };
        if reader {
            let r = client.get(&key);
            let o = op(origin.elapsed().as_nanos() as u64);
            s.gets.push(o.latency());
            match r {
                Ok(Some(v)) if v == value_for(idx, ctx.seed) => {}
                Ok(_) => s.wrong += 1,
                Err(_) => s.failed += 1,
            }
        } else if choice.is_multiple_of(2) {
            let limit = 1 + (choice >> 20) % MAX_SCAN;
            let r = client.scan(&key, limit as usize);
            let o = op(origin.elapsed().as_nanos() as u64);
            s.scans.push(o.latency());
            s.late.push(o.lateness());
            match r {
                Ok(got) if scan_ok(ctx.seed, idx, limit, &got) => {}
                Ok(_) => s.wrong += 1,
                Err(_) => s.failed += 1,
            }
        } else {
            let mut b = WriteBatch::with_capacity(1);
            b.put(&key, &value_for(idx, ctx.seed));
            let r = client.write_opt(&WriteOptions::synced(), b);
            let o = op(origin.elapsed().as_nanos() as u64);
            s.puts.push(o.latency());
            s.late.push(o.lateness());
            s.failed += u64::from(r.is_err());
        }
        if let Some(sm) = sampler.as_mut() {
            if sent >= next_sample {
                next_sample = sent + SAMPLE_EVERY.as_nanos() as u64;
                let p = Instant::now();
                sm.leader.call(&Request::Ping)?;
                s.pings.push(p.elapsed().as_nanos() as u64);
                s.lag_max = s.lag_max.max(sm.lag(&mut s.gauges)?);
            }
        }
    }
    Ok(s)
}

/// Runs the loop on [`THREADS`] threads for `--seconds`.
fn run_loop(ctx: &Ctx, pair: &Pair, rate: Option<f64>, traced: bool) -> BoxResult<Served> {
    let origin = Instant::now();
    let parts: Vec<BoxResult<Served>> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..THREADS)
            .map(|t| s.spawn(move || client_thread(ctx, pair, t, rate, traced, origin)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut served = Served {
        elapsed_s: origin.elapsed().as_secs_f64(),
        ..Served::default()
    };
    for p in parts {
        served.merge(p?);
    }
    Ok(served)
}

/// CPU seconds of the leader, the follower and this client process.
fn cpu_all(pair: &Pair) -> [f64; 3] {
    [
        cpu_seconds(&pair.leader.pid()),
        cpu_seconds(&pair.follower.pid()),
        cpu_seconds("self"),
    ]
}

/// One measured phase and its output checks; returns ops/s.
fn phase(ctx: &Ctx, out: &mut Out, pair: &Pair, rate: Option<f64>, traced: bool) -> BoxResult<f64> {
    let mut sampler = pair.sampler()?;
    let (text0, stats0) = Sampler::stats(&mut sampler.leader)?;
    let cpu0 = cpu_all(pair);
    let mut s = run_loop(ctx, pair, rate, traced)?;
    let cpu1 = cpu_all(pair);
    let [leader_cpu, follower_cpu, client_cpu] = [0, 1, 2].map(|i| cpu1[i] - cpu0[i]);
    let cpu = leader_cpu + follower_cpu + client_cpu;
    let catchup = catch_up(&mut sampler)?;
    let (text1, stats1) = Sampler::stats(&mut sampler.leader)?;
    out.check(s.wrong == 0, || {
        format!("{} gets or scans returned wrong entries", s.wrong)
    });
    // The follower serves reads at its applied sequence: sample it.
    let follower = ClusterClient::connect(&pair.follower.addr, Vec::new())?;
    let bad = (0..100u64).map(|i| scattered(i * 1999, KEYS)).filter(|&idx| {
        !matches!(follower.get(&render_key(idx, KEY_SIZE)), Ok(Some(v)) if v == value_for(idx, ctx.seed))
    });
    let bad = bad.count();
    out.check(bad == 0, || {
        format!("{bad} of 100 sample reads from the follower were wrong")
    });
    out.ops(s.ops(), s.failed);

    let ops = s.ops() as f64;
    let ops_s = ops / s.elapsed_s;
    let what = match rate {
        Some(r) => format!("gets closed loop, scans and puts offered {r} ops/s"),
        None => "closed loop".to_string(),
    };
    let get = out.latency("read_us (closed loop)", &mut s.gets);
    out.latency("scan_us (from due)", &mut s.scans);
    out.latency("write_us (synced, from due)", &mut s.puts);
    let late = out.latency("generator_late_us", &mut s.late);
    let cpu_per_op = cpu * 1e6 / ops;
    let cpu_note = format!(
        "({leader_cpu:.2} leader + {follower_cpu:.2} follower + {client_cpu:.2} client) CPU s / {ops} ops"
    );
    let note = format!("{ops} ops in {:.3} s, {what}", s.elapsed_s);
    if traced || ctx.trace {
        out.info("ops_s", ops_s, "ops/s", note);
        out.info("cpu_us_per_op", cpu_per_op, "us", cpu_note);
    } else {
        out.e2e("ops_s", ops_s, note);
        if let Some(g) = get {
            out.e2e("op_p50_us", g.p50_us, format!("gets, n={}", g.n));
            out.e2e("op_p97_5_us", g.p97_5_us, format!("gets, n={}", g.n));
        }
        out.e2e("cpu_us_per_op", cpu_per_op, cpu_note);
    }
    let engine = EngineDelta {
        before: Some(stats0),
        after: Some(stats1),
        dump_before: text0,
        dump_after: text1,
        gauges: s.gauges,
    };
    let wa = engine.write_amp();
    out.info(
        "write_amp",
        wa.value(),
        "bytes",
        format!("leader WAL+flush+compaction bytes / user bytes = {wa}"),
    );
    if !traced {
        return Ok(ops_s);
    }
    let client_p50 = get.map_or(0.0, |x| x.p50_us);
    out.layer(
        "client.read_us_p50",
        client_p50,
        format!("send to reply, n={}", s.gets.len()),
    );
    let ping = s.pings.summary().map_or(0.0, |x| x.p50_us);
    out.layer("client.ping_us_p50", ping, format!("n={}", s.pings.len()));
    let engine_get = histogram_p50_us(&engine.dump_after, "db.get.micros").unwrap_or(0.0);
    out.layer(
        "server.engine_get_us_p50",
        engine_get,
        "leader's db.get.micros (wall clock)",
    );
    out.layer(
        "server.rpc_self_us_p50",
        client_p50 - engine_get,
        "client.read_us_p50 - server.engine_get_us_p50",
    );
    let c = |name: &str| {
        let get = |text: &str| server_counter(text, name).unwrap_or(0) as f64;
        get(&engine.dump_after) - get(&engine.dump_before)
    };
    let r = Ratio::new(c("bytes_received") + c("bytes_sent"), ops);
    out.layer("server.bytes_per_op", r.value(), r);
    out.layer("server.requests_err", c("requests_err"), "");
    out.layer("server.protocol_errors", c("protocol_errors"), "");
    out.layer("server.backpressure_stalls", c("backpressure_stalls"), "");
    out.layer(
        "repl.lag_seq_max",
        s.lag_max as f64,
        format!("sampled every {SAMPLE_EVERY:?}"),
    );
    out.layer(
        "repl.catchup_ms",
        catchup.as_secs_f64() * 1e3,
        "load stop to follower at leader's last_sequence",
    );
    out.layer(
        "workload.gen_late_p99_us",
        late.map_or(0.0, |l| l.p99_us),
        "validity check, not a target",
    );
    let (gets, keys) = (
        engine.ticker(Ticker::KeysRead),
        engine.ticker(Ticker::KeysWritten),
    );
    engine_layers(out, &engine, gets, keys);
    Ok(ops_s)
}

pub fn serve_mixed(ctx: &Ctx, out: &mut Out) -> BoxResult<()> {
    let dir = |i: usize| -> PathBuf { ctx.dir.join(format!("serve-{i}")) };
    let (pair, setup_s) = repeated_setup(
        out,
        SETUPS,
        |i| start_pair(ctx, &ctx.subdir(&format!("serve-{i}"))),
        |i, pair| {
            let _ = pair.shutdown();
            let _ = std::fs::remove_dir_all(dir(i));
        },
    )?;
    let rate = (!ctx.closed_loop).then_some(OFFERED_OPS_S);
    println!(
        "serve_mixed: leader + follower, {KEYS} keys, zipf {ZIPF_ALPHA}, gets on one connection, \
         scans of 1-{MAX_SCAN} and synced puts half and half on the other"
    );
    let ops_s = phase(ctx, out, &pair, rate, false)?;
    if !ctx.trace {
        out.e2e(
            "setup_s",
            setup_s,
            format!("2 servers + preload + warm-up + catch-up, median of {SETUPS}"),
        );
    } else {
        println!("traced serve_mixed:");
        let traced_ops_s = phase(ctx, out, &pair, rate, true)?;
        overhead(out, ops_s, traced_ops_s);
    }
    let rss = peak_rss_mib(&pair.leader.pid());
    if !ctx.trace {
        out.e2e("peak_rss_mib", rss, "VmHWM of the leader");
    }
    pair.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scattered_walk_is_a_bijection() {
        let n = 1000;
        let mut seen: Vec<u64> = (0..n).map(|i| scattered(i, n)).collect();
        assert_ne!(seen[..10], (0..10).collect::<Vec<_>>()[..]);
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn scan_answers_are_checked_entry_by_entry() {
        let entries = |from: u64, n: u64, seed: u64| -> Vec<(Vec<u8>, Vec<u8>)> {
            (from..from + n)
                .map(|i| (render_key(i, KEY_SIZE), value_for(i, seed)))
                .collect()
        };
        assert!(scan_ok(1, 10, 5, &entries(10, 5, 1)));
        // Too many, too few, wrong start, wrong values.
        assert!(!scan_ok(1, 10, 5, &entries(10, 6, 1)));
        assert!(!scan_ok(1, 10, 5, &entries(10, 4, 1)));
        assert!(!scan_ok(1, 10, 5, &entries(9, 5, 1)));
        assert!(!scan_ok(1, 10, 5, &entries(10, 5, 2)));
        // Near the end of the key space the answer is short.
        assert!(scan_ok(1, KEYS - 2, 5, &entries(KEYS - 2, 2, 1)));
        // Unsorted answers fail.
        let mut e = entries(10, 5, 1);
        e.swap(1, 2);
        assert!(!scan_ok(1, 10, 5, &e));
    }
}
