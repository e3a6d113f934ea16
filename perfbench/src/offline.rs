//! The offline workloads: `impute` (the Fig. 3 path, a freshly grounded
//! session per record) and `synth` (one reused session per worker).
//!
//! A run makes one untimed warm-up pass, then repeats whole passes over a
//! fixed input set for about `--seconds` (at least two passes); every pass,
//! the warm-up included, must reproduce the same decoded values and the
//! same deterministic counters. A traced run alternates untraced and
//! traced passes, which gives the tracing overhead.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lejit_core::{par_records_with, record_seed, DecodeStats, Imputer, Synthesizer, TaskConfig};
use lejit_lm::{CachedGpt, LanguageModel};
use lejit_metrics::violation_stats;
use lejit_telemetry::CoarseSignals;
use minipool::ThreadPool;

use crate::report::Report;
use crate::setup::{build_offline, median_of, record_phases, OfflineEnv, SetupTimes};
use crate::stats::{median, peak_rss_mb, quantiles, ratio, Digest};
use crate::trace::{Counters, Rebaser, TimedLm};

/// Synthetic records drawn per `synth` pass.
const SYNTH_RECORDS: usize = 300;
/// Offline environment builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Leading records re-decoded on one thread in a traced run, to compare
/// their counters with the multi-threaded pass.
const THREAD_PROBE: usize = 16;

/// Which offline task a run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// LeJIT imputation of every quick-scale test window.
    Impute,
    /// LeJIT synthesis with a reused session per worker.
    Synth,
}

/// One decoded record as the pass saw it.
struct Record {
    /// Decoded values (imputed fine series, or synthesized coarse fields);
    /// `None` on a decode error.
    values: Option<Vec<i64>>,
    /// Per-decode counters (rebased for reused sessions).
    stats: DecodeStats,
    /// Time from the pass start until a worker took the record.
    wait_ns: u64,
    /// Wall time of the record's task call(s).
    service_ns: u64,
    /// Traced only: grounding, decode and LM time, LM calls.
    ground_ns: u64,
    decode_ns: u64,
    lm_ns: u64,
    lm_calls: u64,
}

/// One pass over the input set.
struct Pass {
    traced: bool,
    /// The untimed pass before the measured ones.
    warmup: bool,
    wall_s: f64,
    records: Vec<Record>,
    /// Session builds outside any record (synth: one per worker).
    extra_ground_ns: u64,
}

impl Pass {
    fn ok(&self) -> usize {
        self.records.iter().filter(|r| r.values.is_some()).count()
    }

    fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for (i, r) in self.records.iter().enumerate() {
            d.record(i as u64, r.values.as_deref());
        }
        d
    }

    /// The deterministic counters; LM calls only where the pass traced
    /// them.
    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for r in self.records.iter().filter(|r| r.values.is_some()) {
            c.add(&r.stats, r.lm_calls);
        }
        c
    }
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `(calls, ns)` of a traced model, zero for the plain one.
trait LmTotals: LanguageModel {
    fn lm_totals(&self) -> (u64, u64);
}

impl LmTotals for CachedGpt<'_> {
    fn lm_totals(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl<M: LanguageModel> LmTotals for TimedLm<M> {
    fn lm_totals(&self) -> (u64, u64) {
        self.totals()
    }
}

/// Imputes the first `count` test windows once; record `i` draws from
/// `record_seed(seed, i)`. Records are handed to workers dynamically, as
/// the figure runners do.
fn impute_pass(env: &OfflineEnv, seed: u64, threads: usize, count: usize, traced: bool) -> Pass {
    let start = Instant::now();
    let records = if traced {
        par_records_with(
            threads,
            count,
            || TimedLm::new(CachedGpt::new(&env.gpt)),
            |m, i| impute_record(m, env, seed, i, start, true),
        )
    } else {
        par_records_with(
            threads,
            count,
            || CachedGpt::new(&env.gpt),
            |m, i| impute_record(m, env, seed, i, start, false),
        )
    };
    Pass {
        traced,
        warmup: false,
        wall_s: start.elapsed().as_secs_f64(),
        records,
        extra_ground_ns: 0,
    }
}

fn impute_record<M: LmTotals>(
    model: &M,
    env: &OfflineEnv,
    seed: u64,
    i: usize,
    pass_start: Instant,
    traced: bool,
) -> Record {
    let d = &env.dataset;
    let coarse = &d.test[i].coarse;
    let imp = Imputer::new(
        model,
        env.mined.imputation.clone(),
        d.window_len,
        d.bandwidth,
        TaskConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(record_seed(seed, i as u64));
    let (calls0, lm0) = model.lm_totals();
    let wait_ns = nanos(pass_start);
    let t = Instant::now();
    let (result, ground_ns, decode_ns) = if traced {
        // `Imputer::impute` is exactly these two calls; splitting them
        // times grounding apart from decoding.
        let (mut session, schema) = imp.build_session(coarse);
        let ground_ns = nanos(t);
        let d = Instant::now();
        let result = imp.impute_in(&mut session, &schema, coarse, &mut rng);
        (result, ground_ns, nanos(d))
    } else {
        (imp.impute(coarse, &mut rng), 0, 0)
    };
    let service_ns = nanos(t);
    let (calls1, lm1) = model.lm_totals();
    let (values, stats) = match result {
        Ok(out) => (Some(out.values), out.stats),
        Err(_) => (None, DecodeStats::default()),
    };
    Record {
        values,
        stats,
        wait_ns,
        service_ns,
        ground_ns,
        decode_ns,
        lm_ns: lm1 - lm0,
        lm_calls: calls1 - calls0,
    }
}

/// Draws `count` synthetic records; worker `w` of `threads` draws records
/// `w, w + threads, ...` in order from one session it grounds once, so
/// each session's history (and hence every cost counter) is the same on
/// every pass.
fn synth_pass(env: &OfflineEnv, seed: u64, threads: usize, count: usize, traced: bool) -> Pass {
    let start = Instant::now();
    let per_worker = ThreadPool::new(threads).par_map(threads, |w| {
        let part = (w, threads);
        if traced {
            let model = TimedLm::new(CachedGpt::new(&env.gpt));
            synth_worker(&model, env, seed, part, count, start, true)
        } else {
            synth_worker(
                &CachedGpt::new(&env.gpt),
                env,
                seed,
                part,
                count,
                start,
                false,
            )
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut slots: Vec<Option<Record>> = (0..count).map(|_| None).collect();
    let mut extra_ground_ns = 0;
    for (ground_ns, recs) in per_worker {
        extra_ground_ns += ground_ns;
        for (i, r) in recs {
            slots[i] = Some(r);
        }
    }
    Pass {
        traced,
        warmup: false,
        wall_s,
        records: slots
            .into_iter()
            .map(|r| r.expect("static partition covers every record"))
            .collect(),
        extra_ground_ns,
    }
}

fn synth_worker<M: LmTotals>(
    model: &M,
    env: &OfflineEnv,
    seed: u64,
    (w, threads): (usize, usize),
    count: usize,
    pass_start: Instant,
    traced: bool,
) -> (u64, Vec<(usize, Record)>) {
    let syn = Synthesizer::new(
        model,
        env.mined.synthesis.clone(),
        env.coarse_hi,
        TaskConfig::default(),
    );
    let t = Instant::now();
    let (mut session, schema) = syn.build_session();
    let ground_ns = nanos(t);
    let mut rebaser = Rebaser::default();
    let mut out = Vec::new();
    for i in (w..count).step_by(threads) {
        let mut rng = StdRng::seed_from_u64(record_seed(seed, i as u64));
        let (calls0, lm0) = model.lm_totals();
        let wait_ns = nanos(pass_start);
        let t = Instant::now();
        let result = syn.synthesize_in(&mut session, &schema, &mut rng);
        let service_ns = nanos(t);
        let (calls1, lm1) = model.lm_totals();
        let (values, stats) = match result {
            Ok((_, o)) => (Some(o.values), rebaser.draw(o.stats)),
            Err(_) => (None, DecodeStats::default()),
        };
        out.push((
            i,
            Record {
                values,
                stats,
                wait_ns,
                service_ns,
                ground_ns: 0,
                decode_ns: if traced { service_ns } else { 0 },
                lm_ns: lm1 - lm0,
                lm_calls: calls1 - calls0,
            },
        ));
    }
    (ground_ns, out)
}

/// Total rule violations over a pass's decoded records.
fn violations(task: Task, env: &OfflineEnv, pass: &Pass) -> usize {
    let judged: Vec<(CoarseSignals, Vec<i64>)> = pass
        .records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let vals = r.values.as_ref()?;
            Some(match task {
                Task::Impute => (env.dataset.test[i].coarse, vals.clone()),
                Task::Synth => {
                    let fields = <[i64; 6]>::try_from(vals.as_slice())
                        .expect("a synthesized record has six coarse fields");
                    (CoarseSignals(fields), Vec::new())
                }
            })
        })
        .collect();
    let rules = match task {
        Task::Impute => &env.mined.imputation,
        Task::Synth => &env.mined.synthesis,
    };
    violation_stats(rules, &judged).total_violations
}

fn run_pass(
    task: Task,
    env: &OfflineEnv,
    seed: u64,
    threads: usize,
    count: usize,
    traced: bool,
) -> Pass {
    match task {
        Task::Impute => impute_pass(env, seed, threads, count, traced),
        Task::Synth => synth_pass(env, seed, threads, count, traced),
    }
}

/// Runs one offline workload for `seconds` and reports it.
pub fn run(task: Task, seed: u64, seconds: f64, trace: bool, threads: usize) -> Report {
    // Set-up repeats; only the last environment is kept.
    let (mut env, first) = build_offline();
    let mut setups = vec![first];
    for _ in 1..SETUP_REPEATS {
        drop(env);
        let (e, t) = build_offline();
        setups.push(t);
        env = e;
    }
    let count = match task {
        Task::Impute => env.dataset.test.len(),
        Task::Synth => SYNTH_RECORDS,
    };

    // An untimed warm-up pass, then whole passes, at least two, stopping
    // at the pass end nearest to `seconds`: another pass starts only if it
    // would end nearer to it.
    let mut warmup = run_pass(task, &env, seed, threads, count, false);
    warmup.warmup = true;
    let t = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2
        || t.elapsed().as_secs_f64() + passes[passes.len() - 1].wall_s / 2.0 < seconds
    {
        let traced = trace && passes.len() % 2 == 1;
        passes.push(run_pass(task, &env, seed, threads, count, traced));
    }
    passes.insert(0, warmup);
    // Peak memory of set-up plus measurement, before any checking work.
    let rss_mb = peak_rss_mb();

    let mut r = Report::default();
    let name = match task {
        Task::Impute => "imputation rules",
        Task::Synth => "synthesis rules",
    };
    let rules = match task {
        Task::Impute => env.mined.imputation.rules.len(),
        Task::Synth => env.mined.synthesis.rules.len(),
    };
    r.note(format!(
        "{count} records per pass x {} passes (the first a warm-up), {rules} mined {name}, {threads} threads, batch 1",
        passes.len()
    ));

    // Correctness: every attempt accounted for, no violations, and every
    // pass reproduces the first pass's values and counters.
    let attempted: usize = passes.iter().map(|p| p.records.len()).sum();
    let ok: usize = passes.iter().map(Pass::ok).sum();
    r.attempted = attempted as u64;
    r.failed = (attempted - ok) as u64;
    r.check(
        "attempts_accounted",
        passes.iter().all(|p| p.records.len() == count),
        format!(
            "{attempted} attempted = {ok} ok + {} failed",
            attempted - ok
        ),
    );
    let bad: usize = passes.iter().map(|p| violations(task, &env, p)).sum();
    r.check(
        "zero_violations",
        bad == 0,
        format!("{bad} rule violations"),
    );
    let digests: Vec<u64> = passes.iter().map(|p| p.digest().value()).collect();
    r.check(
        "digest_repeats",
        digests.iter().all(|&d| d == digests[0]),
        format!("{:016x} over {} passes", digests[0], digests.len()),
    );
    let strip_lm = |mut c: Counters| {
        c.lm_calls = 0;
        c
    };
    let base = strip_lm(passes[0].counters());
    let traced_counters: Vec<Counters> = passes
        .iter()
        .filter(|p| p.traced)
        .map(Pass::counters)
        .collect();
    let counters_repeat = passes.iter().all(|p| strip_lm(p.counters()) == base)
        && traced_counters.iter().all(|c| *c == traced_counters[0]);
    r.check(
        "counters_repeat",
        counters_repeat,
        format!("{} checks, {} pivots per pass", base.checks, base.pivots),
    );

    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced && !p.warmup).collect();
    let plain_wall: f64 = plain.iter().map(|p| p.wall_s).sum();
    // The median pass, so one pass that a machine stall slowed does not
    // move the run's figure.
    let pass_rates: Vec<f64> = plain
        .iter()
        .map(|p| ratio(p.ok() as f64, p.wall_s))
        .collect();
    let records_per_s = median(&pass_rates);
    r.note(format!(
        "records_per_s = median over {} untraced passes of {:?}",
        pass_rates.len(),
        pass_rates
            .iter()
            .map(|x| (x * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    // A pass submits all its records at once, so a record's latency runs
    // from the pass start to its completion. Each pass is one latency
    // slice.
    let latency_slices: Vec<Vec<f64>> = plain
        .iter()
        .map(|p| {
            p.records
                .iter()
                .map(|r| (r.wait_ns + r.service_ns) as f64 / 1e6)
                .collect()
        })
        .collect();
    r.note("latency = pass start to the record's completion, one slice per pass".to_string());

    if !trace {
        let setup_s = median_of(&setups, SetupTimes::total);
        r.end_to_end(records_per_s, &latency_slices, setup_s, rss_mb);
        return r;
    }

    // Per-layer view from the traced passes.
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let traced_wall: f64 = traced.iter().map(|p| p.wall_s).sum();
    let traced_ok: usize = traced.iter().map(|p| p.ok()).sum();
    let c = traced_counters[0];
    let recs = c.records as f64;
    let sum = |f: &dyn Fn(&Record) -> u64| -> f64 {
        traced
            .iter()
            .flat_map(|p| p.records.iter())
            .map(f)
            .sum::<u64>() as f64
            / 1e6
    };
    let extra_ground: f64 = traced.iter().map(|p| p.extra_ground_ns).sum::<u64>() as f64 / 1e6;
    let n_traced = traced.iter().map(|p| p.records.len()).sum::<usize>() as f64;
    let ground_ms = sum(&|r| r.ground_ns) + extra_ground;
    let decode_ms = sum(&|r| r.decode_ns);
    let lm_ms = sum(&|r| r.lm_ns);
    let record_ms = sum(&|r| r.service_ns) + extra_ground;
    let mut service: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.records.iter().map(|r| r.service_ns as f64 / 1e6))
        .collect();
    let [service_p50, service_p99] = quantiles(&mut service, [0.5, 0.99]);
    let mut waits: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.records.iter().map(|r| r.wait_ns as f64 / 1e6))
        .collect();
    let [wait_p50] = quantiles(&mut waits, [0.5]);
    let plain_busy: f64 = plain
        .iter()
        .map(|p| p.records.iter().map(|r| r.service_ns).sum::<u64>() as f64 / 1e9)
        .sum::<f64>()
        + plain.iter().map(|p| p.extra_ground_ns).sum::<u64>() as f64 / 1e9;

    // Thread-count probe: the leading records again on one thread.
    let probe_n = THREAD_PROBE.min(count);
    let probe = run_pass(task, &env, seed, 1, probe_n, true);
    let probe_matches = probe.records.iter().zip(&traced[0].records).all(|(a, b)| {
        let same_values = a.values == b.values && a.lm_calls == b.lm_calls;
        // Synthesis sessions carry warm state across draws, so only
        // impute's solver counters are a function of the record alone.
        same_values
            && (task == Task::Synth
                || (
                    a.stats.solver_checks,
                    a.stats.solver_pivots,
                    a.stats.solver_bnb_nodes,
                ) == (
                    b.stats.solver_checks,
                    b.stats.solver_pivots,
                    b.stats.solver_bnb_nodes,
                ))
    });
    r.check(
        "counters_across_threads",
        probe_matches,
        format!("first {probe_n} records at 1 vs {threads} threads"),
    );

    record_phases(&setups, &mut r);
    r.metric("ground.ms_per_record", ground_ms / n_traced, "ms");
    r.metric(
        "lm.calls_per_record",
        ratio(c.lm_calls as f64, recs),
        "count",
    );
    r.metric("lm.ms_per_record", lm_ms / n_traced, "ms");
    r.metric(
        "decode.self_ms_per_record",
        (decode_ms - lm_ms) / n_traced,
        "ms",
    );
    c.record_rates(&mut r);
    r.metric(
        "par.efficiency",
        ratio(plain_busy, threads as f64 * plain_wall),
        "frac",
    );
    r.metric("pool.hit_rate", 0.0, "frac");
    r.metric("pool.evictions", 0.0, "count");
    r.metric("serve.service_ms.p50", service_p50, "ms");
    r.metric("serve.service_ms.p99", service_p99, "ms");
    r.metric("serve.wait_ms.p50", wait_p50, "ms");
    r.metric("serve.queue_depth.max", 0.0, "count");
    r.metric(
        "trace.overhead_frac",
        1.0 - ratio(ratio(traced_ok as f64, traced_wall), records_per_s),
        "frac",
    );
    r.metric(
        "trace.accounted_frac",
        ratio(ground_ms + decode_ms, record_ms),
        "frac",
    );
    r.note(format!(
        "per record: ground {:.3} ms + lm {:.3} ms + decode.self {:.3} ms of {:.3} ms",
        ground_ms / n_traced,
        lm_ms / n_traced,
        (decode_ms - lm_ms) / n_traced,
        record_ms / n_traced
    ));
    r
}
