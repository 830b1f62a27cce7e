//! `tune_sim`: fixed-seed offline tuning sessions in sim mode with the
//! rule-based expert model, over small fillrandom and readrandom runs.
//! The session is deterministic, so its report is also an output check.

use std::time::Instant;

use db_bench::BenchmarkSpec;
use elmo_tune::{EnvSpec, OfflineTarget, TuningConfig, TuningReport, TuningSession};
use llm_client::ExpertModel;
use lsm_kvs::options::Options;

use crate::inproc::{mix, overhead};
use crate::layers::{cpu_seconds, peak_rss_mib, TimedModel, TimedTarget};
use crate::metrics::{self_time, Ratio, Samples};
use crate::{median, BoxResult, Ctx, Out};

/// Tuning iterations per session after the baseline.
const ITERATIONS: usize = 3;
const SETUPS: usize = 3;
/// The model's seed is fixed, so every run tunes along the same path;
/// `--seed` varies the benchmark data the sessions measure.
const MODEL_SEED: u64 = 42;

/// The round's two sessions: a small fillrandom and a small readrandom.
fn specs(seed: u64) -> [BenchmarkSpec; 2] {
    let mut fill = BenchmarkSpec::fillrandom(1.0);
    fill.num_ops = 5_000;
    fill.key_space = 5_000;
    let mut read = BenchmarkSpec::readrandom(1.0);
    read.preload_keys = 5_000;
    read.key_space = 5_000;
    read.num_ops = 2_500;
    for s in [&mut fill, &mut read] {
        s.seed = seed;
    }
    [fill, read]
}

fn config(iterations: usize) -> TuningConfig {
    TuningConfig {
        iterations,
        ..TuningConfig::default()
    }
}

/// One session as a user runs it: no wrappers.
fn session(spec: &BenchmarkSpec, iterations: usize) -> BoxResult<TuningReport> {
    let mut model = ExpertModel::well_behaved(MODEL_SEED);
    Ok(
        TuningSession::new(EnvSpec::paper_default(), spec.clone(), &mut model)
            .with_config(config(iterations))
            .run_offline(Options::default())?,
    )
}

/// Time spent in one traced session, by layer, in nanoseconds.
#[derive(Default)]
struct Split {
    session: u64,
    llm: u64,
    target: u64,
    measure: u64,
    core_self: u64,
    sim: u64,
}

/// One session through the timing wrappers around the model and target.
fn traced_session(spec: &BenchmarkSpec, split: &mut Split) -> BoxResult<TuningReport> {
    let origin = Instant::now();
    let mut model = TimedModel::new(ExpertModel::well_behaved(MODEL_SEED), origin);
    let target = TimedTarget::new(
        OfflineTarget::new(EnvSpec::paper_default(), spec.clone()),
        origin,
    );
    let (llm_spans, target_spans, sim) = (
        model.spans.clone(),
        target.spans.clone(),
        target.sim_ns.clone(),
    );
    let report = TuningSession::new(EnvSpec::paper_default(), spec.clone(), &mut model)
        .with_config(config(ITERATIONS))
        .run_with(target, Options::default())?;
    let end = origin.elapsed().as_nanos() as u64;
    let llm = llm_spans.lock().expect("span lock").clone();
    let tgt = target_spans.lock().expect("span lock").clone();
    let len = |v: &[(u64, u64)]| v.iter().map(|(s, e)| e - s).sum::<u64>();
    let children: Vec<(u64, u64)> = llm.iter().chain(&tgt).copied().collect();
    split.session += end;
    split.llm += len(&llm);
    split.target += len(&tgt);
    // The first target span is `prepare`; the rest are measurements (an
    // offline target's `restore` does nothing).
    split.measure += len(&tgt[1.min(tgt.len())..]);
    split.core_self += self_time((0, end), &children);
    split.sim += sim.load(std::sync::atomic::Ordering::Relaxed);
    Ok(report)
}

/// Data seed of round `r`: every round measures other data, so a run's
/// figures average over many tuning paths rather than repeating one.
fn round_specs(seed: u64, r: u64) -> [BenchmarkSpec; 2] {
    specs(mix(seed.wrapping_add(r)))
}

pub fn tune_sim(ctx: &Ctx, out: &mut Out) -> BoxResult<()> {
    let first = round_specs(ctx.seed, 0);
    println!(
        "tune_sim: rounds of two sessions (fillrandom {} ops, readrandom {} reads over {} keys), \
         {ITERATIONS} iterations each, sim mode, ExpertModel seed {MODEL_SEED}, data seeds from {}",
        first[0].num_ops, first[1].num_ops, first[1].preload_keys, ctx.seed
    );
    // Set-up: everything a session does before its first tuning
    // iteration (preload and baseline), i.e. a 0-iteration round.
    let mut setups = Vec::new();
    for r in 0..SETUPS as u64 {
        let t = Instant::now();
        for spec in &round_specs(ctx.seed, r) {
            session(spec, 0)?;
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    out.info("setup_s.each", setup_s, "s", format!("{setups:.4?}"));

    // Untraced: whole rounds until the time is up.
    let per_round = (2 * ITERATIONS) as f64;
    let mut iter = Samples::default();
    let mut reports: Vec<Vec<String>> = Vec::new();
    let (cpu0, t0) = (cpu_seconds("self"), Instant::now());
    let mut tuning_s = 0.0;
    while reports.is_empty() || t0.elapsed().as_secs() < ctx.seconds {
        let t = Instant::now();
        let round = round_specs(ctx.seed, reports.len() as u64)
            .iter()
            .map(|s| session(s, ITERATIONS).map(|r| format!("{r:?}")))
            .collect::<BoxResult<_>>()?;
        // Preload and baselines stay in: they are part of every session.
        let round_s = t.elapsed().as_secs_f64();
        tuning_s += round_s;
        iter.push((round_s / per_round * 1e9) as u64);
        reports.push(round);
    }
    let cpu = cpu_seconds("self") - cpu0;
    let iterations = iter.len() as f64 * per_round;
    out.ops(iterations as u64, 0);
    let ops_s = iterations / tuning_s;
    let sum = out
        .latency("tune_iter_us (per round)", &mut iter)
        .expect("at least one round");
    out.info(
        "tune_iter_s",
        sum.p50_us / 1e6,
        "s",
        "median over rounds of round time / tuning iterations",
    );
    let note = format!("{iterations} tuning iterations in {tuning_s:.3} s of sessions");
    if ctx.trace {
        out.info("ops_s", ops_s, "iter/s", note);
    } else {
        out.e2e(
            "setup_s",
            setup_s,
            format!("preload + baseline of both sessions, median of {SETUPS}"),
        );
        out.e2e("ops_s", ops_s, note);
        out.e2e(
            "op_p50_us",
            sum.p50_us,
            format!("per tuning iteration, {} rounds", sum.n),
        );
        out.e2e(
            "op_p97_5_us",
            sum.p97_5_us,
            format!("per tuning iteration, {} rounds", sum.n),
        );
        out.e2e(
            "cpu_us_per_op",
            cpu * 1e6 / iterations,
            format!("{cpu:.3} CPU s / {iterations} iterations"),
        );
        out.e2e(
            "peak_rss_mib",
            peak_rss_mib("self"),
            "VmHWM of this process",
        );
    }

    // The wrapped sessions must reproduce the untraced reports exactly.
    let mut split = Split::default();
    let (t1, mut traced_rounds) = (Instant::now(), 0u64);
    while traced_rounds == 0 || (ctx.trace && t1.elapsed().as_secs() < ctx.seconds) {
        let want = reports.get(traced_rounds as usize);
        for (i, spec) in round_specs(ctx.seed, traced_rounds).iter().enumerate() {
            let got = format!("{:?}", traced_session(spec, &mut split)?);
            if let Some(want) = want {
                out.check(got == want[i], || {
                    format!(
                        "{} report differs with the timing wrappers",
                        spec.workload.name()
                    )
                });
            }
        }
        traced_rounds += 1;
    }
    if !ctx.trace {
        return Ok(());
    }
    let traced_wall = t1.elapsed().as_secs_f64();
    let n = traced_rounds as f64 * per_round;
    out.ops(n as u64, 0);
    let per_iter = |ns: u64| Ratio::new(ns as f64, n);
    let r = per_iter(split.llm);
    out.layer(
        "llm.complete_ms_per_iter",
        r.value() / 1e6,
        format!("{r} ns / iterations"),
    );
    let r = per_iter(split.measure);
    out.layer(
        "target.measure_s_per_iter",
        r.value() / 1e9,
        format!("{r} ns / iterations, baselines included"),
    );
    let r = Ratio::new(split.sim as f64, split.measure as f64);
    out.layer(
        "hwsim.sim_s_per_wall_s",
        r.value(),
        format!("simulated ns / measuring ns = {r}"),
    );
    let r = per_iter(split.core_self);
    out.layer(
        "core.self_ms_per_iter",
        r.value() / 1e6,
        format!("(session - model - target) {r} ns / iterations"),
    );
    out.info(
        "target.prepare_s",
        (split.target - split.measure) as f64 / 1e9,
        "s",
        "",
    );
    out.info("session_s", split.session as f64 / 1e9, "s", "");
    let traced_ops_s = n / traced_wall;
    overhead(out, ops_s, traced_ops_s);
    Ok(())
}
