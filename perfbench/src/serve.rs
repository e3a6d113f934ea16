//! The serving workloads: an in-process `lejit-serve` with the n-gram model
//! and the manual rules, driven over loopback TCP.
//!
//! * `serve_rate` — open loop: seeded Poisson arrivals at a fixed rate on
//!   one connection (a writer and a reader thread). Each request is timed
//!   from when it was due, so a stall also charges the requests behind it.
//! * `serve_peak` — closed loop: up to two connections (one thread each),
//!   each keeping a fixed window of requests outstanding, enough to fill
//!   every lane of every shard. One request in four carries the paper's
//!   R1-R3 inline, so the shards' session pools hold two fingerprints.
//!
//! Every request line goes out in one write on a `TCP_NODELAY` socket, so
//! the client adds no Nagle or delayed-ACK stall of its own. After the
//! measured window, every request is replayed through
//! `Imputer::impute_pooled` and each response must match its replay byte
//! for byte.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use lejit_core::{
    record_seed, DecodeError, DecodeStats, Imputer, JitDecoder, JitSession, Lookahead,
    PooledSession, SessionPool, TaskConfig,
};
use lejit_lm::{LanguageModel, SamplerConfig, TokenId, Vocab};
use lejit_metrics::violation_stats;
use lejit_rules::{parse_rules, RuleSet};
use lejit_serve::protocol::{render_decode_err, render_ok};
use lejit_serve::{ServeConfig, ServeMetrics, Server};
use lejit_telemetry::CoarseSignals;
use minipool::ThreadPool;

use crate::report::Report;
use crate::setup::{build_serve, median_of, record_phases, ServeEnv, SetupTimes};
use crate::stats::{median, peak_rss_mb, quantiles, ratio, Digest};
use crate::trace::{Counters, TimedLm};

/// `serve_rate`'s offered load, about an eighth of `serve_peak`'s
/// throughput on a 2-core machine. At this rate a response that waits for
/// the client's next request to carry its ACK waits ~20 ms (median), and a
/// quarter of responses wait for the 40 ms delayed-ACK timer, so the
/// latency quantiles sit on that wait plus service time rather than on
/// queueing, which varies with the machine's speed.
const RATE_PER_S: f64 = 35.0;
/// Requests each `serve_peak` connection keeps outstanding, per lane of
/// every shard (2x keeps the queue non-empty while lanes refill).
const PEAK_WINDOW_PER_LANE: usize = 2;
/// Distinct request inputs `(window, rules, seed)` per run. Requests cycle
/// through them, so the replay decodes each input once; the server keeps
/// no response cache, so a repeated input costs it a full decode.
const DISTINCT_INPUTS: u64 = 512;
/// Server builds and starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// How long a client waits for a response before counting it missing.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Target length of the slices a phase is cut into; latency quantiles and
/// closed-loop throughput are medians over slices.
const SLICE_S: f64 = 5.0;
/// A traced run samples the `stats` op every this many requests.
const STATS_EVERY: usize = 16;
const STATS_LINE: &[u8] = b"{\"op\":\"stats\"}\n";

/// Which serving workload a run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Open loop at [`RATE_PER_S`].
    Rate,
    /// Closed loop, saturating.
    Peak,
}

/// The pinned server configuration: `nproc` shards of 8 lanes.
fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        queue_cap: 1024,
        shards: threads,
        lanes: 8,
        pool_per_key: 4,
        window_len: 5,
        bandwidth: 60,
        base_seed: 600,
        sampler: SamplerConfig::default(),
        lookahead: Lookahead::IntervalGuided,
    }
}

/// Lets a server share a [`TimedLm`] the benchmark keeps reading.
impl<M: LanguageModel> LanguageModel for &TimedLm<M> {
    fn vocab(&self) -> &Vocab {
        (**self).vocab()
    }

    fn next_logits(&self, context: &[TokenId]) -> Vec<f32> {
        (**self).next_logits(context)
    }

    fn forward_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f32>> {
        (**self).forward_batch(contexts)
    }
}

/// One generated request.
struct Request {
    id: u64,
    /// Which of the run's distinct inputs this request carries.
    input: u64,
    coarse: CoarseSignals,
    seed: u64,
    /// Carries the paper rules inline.
    paper: bool,
}

impl Request {
    /// Request `id` carrying input `n % DISTINCT_INPUTS`: a seeded window,
    /// sampling seed and rule-set choice.
    fn new(run_seed: u64, id: u64, n: u64, windows: &[CoarseSignals], paper_share: f64) -> Request {
        let input = n % DISTINCT_INPUTS;
        let seed = record_seed(run_seed, input);
        let mut rng = StdRng::seed_from_u64(seed);
        let coarse = windows[rng.random_range(0..windows.len())];
        let paper = rng.random_bool(paper_share);
        Request {
            id,
            input,
            coarse,
            seed,
            paper,
        }
    }

    /// The request line, newline included, written in one call.
    fn line(&self, paper_src: &str) -> String {
        let c = self.coarse.0;
        let rules = if self.paper {
            format!(",\"rules\":{paper_src}")
        } else {
            String::new()
        };
        format!(
            "{{\"op\":\"impute\",\"id\":{},\"coarse\":[{},{},{},{},{},{}],\"seed\":{}{rules}}}\n",
            self.id, c[0], c[1], c[2], c[3], c[4], c[5], self.seed
        )
    }
}

/// What the client saw for one request.
struct Outcome {
    /// The terminal response line, if one arrived.
    line: Option<String>,
    /// Seconds from when the request was due to its response.
    latency_s: f64,
    /// Seconds after the phase start the response arrived.
    done_s: f64,
}

impl Outcome {
    /// No response (yet).
    const MISSING: Outcome = Outcome {
        line: None,
        latency_s: 0.0,
        done_s: 0.0,
    };
}

/// One measured phase against one server.
struct Phase {
    requests: Vec<Request>,
    outcomes: Vec<Outcome>,
    /// Phase start to last response.
    wall_s: f64,
    /// The measured window requests were sent in.
    seconds: f64,
    /// Largest `queue_depth` the `stats` op reported.
    queue_depth_max: u64,
    /// Open loop: the generator's worst lateness behind schedule.
    lateness_max_s: f64,
    metrics: ServeMetrics,
    /// Server LM `(calls, ns)` when traced.
    lm: (u64, u64),
}

impl Phase {
    fn ok(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.line.as_deref().is_some_and(|l| l.contains("\"ok\":true")))
            .count()
    }

    /// Open loop: completions over the whole phase, which is the offered
    /// rate while the server keeps up. Closed loop: the median over slices
    /// of the measured window of the completions in the slice, so a few
    /// seconds in which the machine ran slow or fast do not move it.
    fn records_per_s(&self, mode: Mode) -> f64 {
        if mode == Mode::Rate {
            return ratio(self.ok() as f64, self.wall_s);
        }
        let (n, len) = self.slicing();
        let mut done = vec![0usize; n];
        for o in &self.outcomes {
            if o.line.as_deref().is_some_and(|l| l.contains("\"ok\":true"))
                && o.done_s < self.seconds
            {
                done[((o.done_s / len) as usize).min(n - 1)] += 1;
            }
        }
        median(&done.iter().map(|&d| d as f64 / len).collect::<Vec<_>>())
    }

    /// The number of slices and their length.
    fn slicing(&self) -> (usize, f64) {
        let n = ((self.seconds / SLICE_S).round() as usize).max(1);
        (n, self.seconds / n as f64)
    }

    /// Answered requests' latencies in ms, sliced by when each was due
    /// (open loop) or sent (closed loop).
    fn latency_slices(&self) -> Vec<Vec<f64>> {
        let (n, len) = self.slicing();
        let mut slices = vec![Vec::new(); n];
        for o in self.outcomes.iter().filter(|o| o.line.is_some()) {
            let due = o.done_s - o.latency_s;
            slices[((due / len).max(0.0) as usize).min(n - 1)].push(o.latency_s * 1e3);
        }
        slices
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(s)
}

/// Sends one control op and returns its one-line answer.
fn control(addr: SocketAddr, op: &str) -> std::io::Result<String> {
    let mut s = connect(addr)?;
    s.write_all(format!("{{\"op\":\"{op}\"}}\n").as_bytes())?;
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line)?;
    Ok(line)
}

fn response_id(v: &Value) -> Option<u64> {
    match &v["id"] {
        Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

fn queue_depth(v: &Value) -> Option<u64> {
    match &v["queue_depth"] {
        Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

/// Runs `body` against a freshly started server and drains it afterwards.
/// Returns the body's result, the start time (bind to first `ping`
/// answered) and the server's final counters.
fn with_server<M, T>(
    model: M,
    rules: RuleSet,
    cfg: ServeConfig,
    body: impl FnOnce(SocketAddr) -> T,
) -> std::io::Result<(T, f64, ServeMetrics)>
where
    M: LanguageModel + Sync,
{
    let server = Server::new(model, rules, cfg);
    let t = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let (out, start_s) = thread::scope(|s| {
        let run = s.spawn(|| server.run(listener));
        let pong = control(addr, "ping");
        let start_s = t.elapsed().as_secs_f64();
        let out = pong.map(|_| body(addr));
        // Drain even after a failed ping, so the scope can join.
        let drained = control(addr, "shutdown");
        let ran = run.join().expect("server thread panicked");
        (out.and_then(|o| drained.and(ran).map(|_| o)), start_s)
    });
    Ok((out?, start_s, server.metrics()))
}

/// Open loop: request `k` (id `k`) due `offsets[k]` seconds after the
/// phase start, written by one thread and read by another over one
/// connection. Returns the outcomes, the generator's worst lateness and
/// the largest sampled queue depth.
fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    offsets: &[f64],
    paper_src: &str,
    sample_stats: bool,
) -> (Vec<Outcome>, f64, u64) {
    let halves = connect(addr).and_then(|s| Ok((s.try_clone()?, s)));
    let Ok((read_half, mut stream)) = halves else {
        return (requests.iter().map(|_| Outcome::MISSING).collect(), 0.0, 0);
    };
    let start = Instant::now();
    thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut lateness = 0.0f64;
            for (k, (req, &due)) in requests.iter().zip(offsets).enumerate() {
                let wait = due - start.elapsed().as_secs_f64();
                if wait > 0.0 {
                    thread::sleep(Duration::from_secs_f64(wait));
                }
                lateness = lateness.max(start.elapsed().as_secs_f64() - due);
                if stream.write_all(req.line(paper_src).as_bytes()).is_err()
                    || (sample_stats
                        && k.is_multiple_of(STATS_EVERY)
                        && stream.write_all(STATS_LINE).is_err())
                {
                    break;
                }
            }
            lateness
        });
        let mut outcomes: Vec<Outcome> = requests.iter().map(|_| Outcome::MISSING).collect();
        let mut reader = BufReader::new(read_half);
        let (mut answered, mut depth) = (0, 0);
        while answered < requests.len() {
            let Some((v, line)) = read_response(&mut reader) else {
                break;
            };
            let at = start.elapsed().as_secs_f64();
            if let Some(d) = queue_depth(&v) {
                depth = depth.max(d);
            } else if let Some(k) = response_id(&v).and_then(|id| usize::try_from(id).ok()) {
                if k < outcomes.len() && outcomes[k].line.is_none() {
                    outcomes[k] = Outcome {
                        line: Some(line),
                        latency_s: at - offsets[k],
                        done_s: at,
                    };
                    answered += 1;
                }
            }
        }
        let lateness = writer.join().expect("writer thread panicked");
        (outcomes, lateness, depth)
    })
}

/// Reads one response line; `None` once the connection failed, closed or
/// timed out. Lines that are not JSON are skipped.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(Value, String)> {
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        let line = line.trim_end_matches('\n').to_string();
        if let Ok(v) = serde_json::parse_value(&line) {
            return Some((v, line));
        }
    }
}

#[allow(clippy::too_many_arguments)]
/// Closed loop on one connection: keep `window` requests outstanding until
/// `seconds` have passed, then collect what is still in flight.
fn closed_loop(
    addr: SocketAddr,
    (conn, conns): (u64, u64),
    run_seed: u64,
    windows: &[CoarseSignals],
    window: usize,
    seconds: f64,
    paper_src: &str,
    start: Instant,
    sample_stats: bool,
) -> (Vec<Request>, Vec<Outcome>, u64) {
    let mut requests: Vec<Request> = Vec::new();
    let mut sent_at: Vec<f64> = Vec::new();
    let mut depth = 0;
    let halves = connect(addr).and_then(|s| Ok((s.try_clone()?, s)));
    let Ok((read_half, mut stream)) = halves else {
        return (requests, Vec::new(), depth);
    };
    let mut reader = BufReader::new(read_half);
    let send = |requests: &mut Vec<Request>, sent_at: &mut Vec<f64>, stream: &mut TcpStream| {
        let k = requests.len() as u64;
        let req = Request::new(run_seed, (conn << 32) | k, k * conns + conn, windows, 0.25);
        sent_at.push(start.elapsed().as_secs_f64());
        let ok = stream.write_all(req.line(paper_src).as_bytes()).is_ok();
        requests.push(req);
        ok
    };
    let mut in_flight = 0usize;
    for _ in 0..window {
        if !send(&mut requests, &mut sent_at, &mut stream) {
            break;
        }
        in_flight += 1;
    }
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut received = 0usize;
    while in_flight > 0 {
        let Some((v, line)) = read_response(&mut reader) else {
            break;
        };
        let at = start.elapsed().as_secs_f64();
        if let Some(d) = queue_depth(&v) {
            depth = depth.max(d);
            continue;
        }
        let Some(k) = response_id(&v).and_then(|id| usize::try_from(id & 0xFFFF_FFFF).ok()) else {
            continue;
        };
        if outcomes.len() < requests.len() {
            outcomes.resize_with(requests.len(), || Outcome::MISSING);
        }
        if k >= outcomes.len() || outcomes[k].line.is_some() {
            continue;
        }
        outcomes[k] = Outcome {
            line: Some(line),
            latency_s: at - sent_at[k],
            done_s: at,
        };
        in_flight -= 1;
        received += 1;
        if sample_stats
            && received.is_multiple_of(STATS_EVERY)
            && stream.write_all(STATS_LINE).is_err()
        {
            break;
        }
        if at < seconds && send(&mut requests, &mut sent_at, &mut stream) {
            in_flight += 1;
        }
    }
    outcomes.resize_with(requests.len(), || Outcome::MISSING);
    (requests, outcomes, depth)
}

/// Seeded Poisson arrivals: `n` uniform instants in `[0, seconds)`,
/// sorted, so the offered rate is exactly `n / seconds`.
fn arrivals(run_seed: u64, n: usize, seconds: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(record_seed(run_seed, u64::MAX));
    let mut t: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * seconds).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// One phase: drive a started server for `seconds`. The returned phase
/// carries no server counters yet.
#[allow(clippy::too_many_arguments)]
fn drive(
    mode: Mode,
    addr: SocketAddr,
    windows: &[CoarseSignals],
    cfg: &ServeConfig,
    run_seed: u64,
    seconds: f64,
    paper_src: &str,
    sample_stats: bool,
    threads: usize,
) -> Phase {
    let (requests, outcomes, queue_depth_max, lateness_max_s) = match mode {
        Mode::Rate => {
            let n = (RATE_PER_S * seconds).round().max(1.0) as usize;
            let requests: Vec<Request> = (0..n as u64)
                .map(|id| Request::new(run_seed, id, id, windows, 0.0))
                .collect();
            let offsets = arrivals(run_seed, n, seconds);
            let (outcomes, lateness, depth) =
                open_loop(addr, &requests, &offsets, paper_src, sample_stats);
            (requests, outcomes, depth, lateness)
        }
        Mode::Peak => {
            let conns = threads.clamp(1, 2);
            let window = (cfg.shards * cfg.lanes * PEAK_WINDOW_PER_LANE).div_ceil(conns);
            let start = Instant::now();
            let per_conn: Vec<_> = thread::scope(|s| {
                let handles: Vec<_> = (0..conns as u64)
                    .map(|c| {
                        s.spawn(move || {
                            closed_loop(
                                addr,
                                (c, conns as u64),
                                run_seed,
                                windows,
                                window,
                                seconds,
                                paper_src,
                                start,
                                sample_stats && c == 0,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let (mut requests, mut outcomes, mut depth) = (Vec::new(), Vec::new(), 0);
            for (r, o, d) in per_conn {
                requests.extend(r);
                outcomes.extend(o);
                depth = depth.max(d);
            }
            (requests, outcomes, depth, 0.0)
        }
    };
    Phase {
        wall_s: outcomes.iter().map(|o| o.done_s).fold(0.0, f64::max),
        seconds,
        requests,
        outcomes,
        queue_depth_max,
        lateness_max_s,
        metrics: ServeMetrics::default(),
        lm: (0, 0),
    }
}

/// Runs one phase on a freshly built and started server whose model is
/// either the plain n-gram LM or a [`TimedLm`] around it. Returns the
/// phase and the set-up it paid.
fn phase(
    mode: Mode,
    cfg: ServeConfig,
    run_seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
) -> std::io::Result<(Phase, SetupTimes)> {
    let (env, mut times) = build_serve();
    let ServeEnv {
        dataset,
        model,
        manual,
        paper,
    } = env;
    let windows: Vec<CoarseSignals> = dataset.test.iter().map(|w| w.coarse).collect();
    let paper_src =
        serde_json::to_string(&Value::String(paper.to_string())).expect("strings always serialize");
    let go = |addr: SocketAddr| {
        drive(
            mode, addr, &windows, &cfg, run_seed, seconds, &paper_src, traced, threads,
        )
    };
    let (mut phase, start_s, metrics) = if traced {
        let timed = TimedLm::new(model);
        let (mut p, start_s, metrics) = with_server(&timed, manual, cfg, go)?;
        p.lm = timed.totals();
        (p, start_s, metrics)
    } else {
        with_server(model, manual, cfg, go)?
    };
    phase.metrics = metrics;
    times.start_s = start_s;
    Ok((phase, times))
}

/// One input's solo replay.
struct Replayed {
    /// The decoded text and values, or the decode error.
    result: Result<(String, Vec<i64>), DecodeError>,
    /// Replay wall time.
    service_s: f64,
    /// Per-request counters (rebased against the pooled session).
    stats: Option<DecodeStats>,
    /// Decomposed replays only: grounding and decode time.
    ground_s: f64,
    decode_s: f64,
}

impl Replayed {
    /// The response the server must send for request `id`.
    fn line(&self, id: u64) -> String {
        match &self.result {
            Ok((text, values)) => render_ok(id, text, values),
            Err(e) => render_decode_err(id, e),
        }
    }
}

/// Replays each input solo, worker `w` of `threads` taking inputs
/// `w, w + threads, ...` with its own session pool, so each pool's history
/// is the same on every replay. `decomposed` runs `impute_pooled`'s steps
/// one by one to time grounding apart from decoding.
fn replay<M: LanguageModel + Sync>(
    model: &M,
    rules: &[RuleSet; 2],
    cfg: &ServeConfig,
    inputs: &[&Request],
    threads: usize,
    decomposed: bool,
) -> Vec<Replayed> {
    let task = TaskConfig {
        sampler: cfg.sampler,
        lookahead: cfg.lookahead,
        ..TaskConfig::default()
    };
    let per_worker = ThreadPool::new(threads).par_map(threads, |w| {
        let mut pool = SessionPool::new(cfg.pool_per_key);
        let imputers = rules
            .clone()
            .map(|r| Imputer::new(model, r, cfg.window_len, cfg.bandwidth, task));
        let mut out = Vec::new();
        for k in (w..inputs.len()).step_by(threads) {
            let req = inputs[k];
            let imp = &imputers[usize::from(req.paper)];
            let mut rng = StdRng::seed_from_u64(req.seed);
            let t = Instant::now();
            let (result, ground_s, decode_s) = if decomposed {
                let schema = imp.schema();
                let key = imp.pool_key();
                let PooledSession {
                    mut session,
                    baseline,
                } = pool.acquire(key, || JitSession::new(&schema));
                let cp = session.checkpoint();
                imp.ground_in(&mut session, &req.coarse);
                session.invalidate_derived();
                let ground_s = t.elapsed().as_secs_f64();
                let d = Instant::now();
                let out = JitDecoder::new(model, cfg.sampler)
                    .with_lookahead(cfg.lookahead)
                    .decode(&mut session, &schema, &imp.prompt(&req.coarse), &mut rng);
                let decode_s = d.elapsed().as_secs_f64();
                session.rollback(cp);
                pool.release(key, session);
                let out = out.map(|mut o| {
                    o.stats.rebase_against(&baseline);
                    o
                });
                (out, ground_s, decode_s)
            } else {
                (
                    imp.impute_pooled(&mut pool, &req.coarse, &mut rng),
                    0.0,
                    0.0,
                )
            };
            let service_s = t.elapsed().as_secs_f64();
            let stats = result.as_ref().ok().map(|o| o.stats);
            out.push((
                k,
                Replayed {
                    result: result.map(|o| (o.text, o.values)),
                    service_s,
                    stats,
                    ground_s,
                    decode_s,
                },
            ));
        }
        out
    });
    let mut all: Vec<(usize, Replayed)> = per_worker.into_iter().flatten().collect();
    all.sort_by_key(|(k, _)| *k);
    all.into_iter().map(|(_, r)| r).collect()
}

fn counters_of(replayed: &[Replayed]) -> Counters {
    let mut c = Counters::default();
    for s in replayed.iter().filter_map(|r| r.stats.as_ref()) {
        c.add(s, 0);
    }
    c
}

fn values_of(line: &str) -> Option<Vec<i64>> {
    let v = serde_json::parse_value(line).ok()?;
    if v["ok"] != Value::Bool(true) {
        return None;
    }
    match &v["values"] {
        Value::Array(items) => items
            .iter()
            .map(|x| match x {
                Value::Number(n) => n.as_i64(),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// Runs one serving workload for `seconds` and reports it.
pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool, threads: usize) -> Report {
    let cfg = config(threads);
    let mut r = Report::default();
    let mut setups: Vec<SetupTimes> = Vec::new();
    // Set-up repeats: build, start, ping, drain.
    for _ in 1..SETUP_REPEATS {
        let (env, mut times) = build_serve();
        match with_server(env.model, env.manual, cfg, |_| ()) {
            Ok(((), start_s, _)) => times.start_s = start_s,
            Err(e) => r.check("server_start", false, e.to_string()),
        }
        setups.push(times);
    }
    // The measured phase; a traced run adds a traced phase after it.
    let plan: &[(bool, f64)] = if trace {
        &[(false, 0.5), (true, 0.5)]
    } else {
        &[(false, 1.0)]
    };
    let mut phases: Vec<Phase> = Vec::new();
    for &(traced, share) in plan {
        match phase(mode, cfg, seed, seconds * share, traced, threads) {
            Ok((p, times)) => {
                setups.push(times);
                phases.push(p);
            }
            Err(e) => {
                r.check("server_run", false, e.to_string());
                return r;
            }
        }
    }

    // Peak memory of set-up plus serving, before any replay work.
    let rss_mb = peak_rss_mb();

    // Replays and checks over every request of every phase.
    let (env, _) = build_serve();
    let rules = [
        env.manual.clone(),
        parse_rules(&env.paper.to_string()).expect("displayed rules parse back"),
    ];
    let requests: Vec<&Request> = phases.iter().flat_map(|p| p.requests.iter()).collect();
    let outcomes: Vec<&Outcome> = phases.iter().flat_map(|p| p.outcomes.iter()).collect();
    let mut distinct: BTreeMap<u64, &Request> = BTreeMap::new();
    for q in &requests {
        distinct.entry(q.input).or_insert(q);
    }
    let inputs: Vec<&Request> = distinct.into_values().collect();
    let slot: BTreeMap<u64, usize> = inputs
        .iter()
        .enumerate()
        .map(|(i, q)| (q.input, i))
        .collect();
    let replayed = replay(&env.model, &rules, &cfg, &inputs, threads, false);
    let of = |q: &Request| &replayed[slot[&q.input]];
    let attempted = requests.len();
    let ok: usize = phases.iter().map(Phase::ok).sum();
    r.attempted = attempted as u64;
    r.failed = (attempted - ok) as u64;
    let answered = outcomes.iter().filter(|o| o.line.is_some()).count();
    r.check(
        "attempts_accounted",
        outcomes.len() == attempted,
        format!(
            "{attempted} attempted = {ok} ok + {} failed ({} missing)",
            attempted - ok,
            attempted - answered
        ),
    );
    let mismatched = requests
        .iter()
        .zip(&outcomes)
        .filter(|(q, o)| o.line.as_deref().is_some_and(|l| l != of(q).line(q.id)))
        .count();
    r.check(
        "replay_identical",
        mismatched == 0,
        format!("{mismatched} of {answered} responses differ from their impute_pooled replay"),
    );
    let (mut served, mut replay_digest) = (Digest::default(), Digest::default());
    let mut bad = 0;
    for (req, o) in requests.iter().zip(&outcomes) {
        let vals = o.line.as_deref().and_then(values_of);
        if let Some(v) = &vals {
            let judged = [(req.coarse, v.clone())];
            bad += violation_stats(&rules[usize::from(req.paper)], &judged).total_violations;
        }
        served.record(req.id, vals.as_deref());
        replay_digest.record(
            req.id,
            of(req).result.as_ref().ok().map(|(_, v)| v.as_slice()),
        );
    }
    r.check(
        "zero_violations",
        bad == 0,
        format!("{bad} rule violations"),
    );
    r.check(
        "digest_repeats",
        served == replay_digest,
        format!(
            "served {:016x}, replayed {:016x}",
            served.value(),
            replay_digest.value()
        ),
    );

    let plain = &phases[0];
    let paper_n = plain.requests.iter().filter(|q| q.paper).count();
    r.note(match mode {
        Mode::Rate => format!(
            "open loop, Poisson {RATE_PER_S}/s on 1 connection, {} requests, generator max lateness {:.3} ms",
            plain.requests.len(),
            plain.lateness_max_s * 1e3
        ),
        Mode::Peak => format!(
            "closed loop, {} connections x {} outstanding, {} requests, {paper_n} with inline paper rules",
            threads.clamp(1, 2),
            (cfg.shards * cfg.lanes * PEAK_WINDOW_PER_LANE).div_ceil(threads.clamp(1, 2)),
            plain.requests.len()
        ),
    });
    r.note(format!(
        "server {} shards x {} lanes; latency from due time to response",
        cfg.shards, cfg.lanes
    ));

    if !trace {
        let setup_s = median_of(&setups, SetupTimes::total);
        let rate = plain.records_per_s(mode);
        r.end_to_end(rate, &plain.latency_slices(), setup_s, rss_mb);
        return r;
    }

    // Per-layer view: the traced phase for server-side LM time and queue
    // depth, a decomposed replay for grounding and decode.
    let traced = &phases[1];
    let timed = TimedLm::new(env.model);
    let decomposed = replay(&timed, &rules, &cfg, &inputs, threads, true);
    let (replay_calls, replay_lm_ns) = timed.totals();
    let (c_plain, c_split) = (counters_of(&replayed), counters_of(&decomposed));
    r.check(
        "counters_repeat",
        c_plain == c_split,
        format!(
            "{} checks, {} pool hits over two replays",
            c_plain.checks, c_plain.pool_hits
        ),
    );
    // The server calls the model once per generated character, so its
    // LM calls must equal the replayed generated characters exactly.
    let (calls, lm_ns) = traced.lm;
    let expected_calls: u64 = traced
        .requests
        .iter()
        .zip(&traced.outcomes)
        .filter(|(_, o)| o.line.is_some())
        .filter_map(|(q, _)| of(q).stats.map(|s| s.tokens - s.forced_tokens))
        .sum();
    r.check(
        "lm_calls_repeat",
        calls == expected_calls,
        format!("server {calls} lm calls, replay {expected_calls} generated chars"),
    );
    let n = decomposed.len().max(1) as f64;
    let ground_s: f64 = decomposed.iter().map(|d| d.ground_s).sum();
    let decode_s: f64 = decomposed.iter().map(|d| d.decode_s).sum();
    let split_service_s: f64 = decomposed.iter().map(|d| d.service_s).sum();
    let replay_lm_s = replay_lm_ns as f64 / 1e9;
    let mut service: Vec<f64> = replayed.iter().map(|d| d.service_s * 1e3).collect();
    let [service_p50, service_p99] = quantiles(&mut service, [0.5, 0.99]);
    let answered_plain = || {
        plain
            .requests
            .iter()
            .zip(&plain.outcomes)
            .filter(|(_, o)| o.line.is_some())
    };
    let mut waits: Vec<f64> = answered_plain()
        .map(|(q, o)| (o.latency_s - of(q).service_s) * 1e3)
        .collect();
    let [wait_p50] = quantiles(&mut waits, [0.5]);
    let plain_busy: f64 = answered_plain().map(|(q, _)| of(q).service_s).sum();
    let traced_ok = traced.ok().max(1) as f64;
    let m = plain.metrics;

    record_phases(&setups, &mut r);
    r.metric("ground.ms_per_record", ground_s * 1e3 / n, "ms");
    r.metric("lm.calls_per_record", calls as f64 / traced_ok, "count");
    r.metric("lm.ms_per_record", lm_ns as f64 / 1e6 / traced_ok, "ms");
    r.metric(
        "decode.self_ms_per_record",
        (decode_s - replay_lm_s) * 1e3 / n,
        "ms",
    );
    c_plain.record_rates(&mut r);
    r.metric(
        "par.efficiency",
        ratio(plain_busy, cfg.shards as f64 * plain.wall_s),
        "frac",
    );
    r.metric(
        "pool.hit_rate",
        ratio(m.pool_hits as f64, (m.pool_hits + m.pool_misses) as f64),
        "frac",
    );
    r.metric("pool.evictions", m.pool_evictions as f64, "count");
    r.metric("serve.service_ms.p50", service_p50, "ms");
    r.metric("serve.service_ms.p99", service_p99, "ms");
    r.metric("serve.wait_ms.p50", wait_p50, "ms");
    r.metric(
        "serve.queue_depth.max",
        traced.queue_depth_max as f64,
        "count",
    );
    r.metric(
        "trace.overhead_frac",
        1.0 - ratio(traced.records_per_s(mode), plain.records_per_s(mode)),
        "frac",
    );
    r.metric(
        "trace.accounted_frac",
        ratio(ground_s + decode_s, split_service_s),
        "frac",
    );
    r.note(format!(
        "replay per record: ground {:.3} ms + lm {:.3} ms + decode.self {:.3} ms of {:.3} ms ({replay_calls} lm calls)",
        ground_s * 1e3 / n,
        replay_lm_s * 1e3 / n,
        (decode_s - replay_lm_s) * 1e3 / n,
        split_service_s * 1e3 / n
    ));
    r
}
