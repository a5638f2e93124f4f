//! `serve`: the daemon path under an open-loop load.
//!
//! A `funseeker serve --disk-cache <fresh dir>` subprocess is driven by
//! one generator process on a fixed ladder of offered rates. Requests
//! are sent on a constant-rate schedule and each opens its own
//! connection, as `funseeker submit` does, with at most `nproc`
//! connections in flight; each is timed from when it was due. About 90%
//! are repeats from a pre-warmed 192-image working set (memory hits,
//! pre-framed replies) and about 10% content-unique fresh images
//! (trailing-tag variants: miss, analyze, encode, disk write).

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use funseeker::{Analysis, Config};
use funseeker_batch::{cache, cache_key, config_fingerprint, hash_bytes, DiskCache};
use funseeker_client::proto::{self, Response};
use funseeker_client::{Client, ServerStats};
use funseeker_corpus::{BuildConfig, Dataset, DatasetParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{self, Score};
use crate::clock::{now_ns, proc_status_kib};
use crate::report::{Layers, Report, LATENCY_LIMIT_MS};
use crate::stats::{backlog_growing, interquartile_mean, max_passing, median, tail, Step};
use crate::trace::{Recorder, Span};
use crate::Ctx;

/// Programs per suite in the working set; × 12 build configurations =
/// 192 images. Sixteen programs rather than fewer keep the working set's
/// size and accuracy from swinging with the seed.
const WORKING_SET_PROGRAMS: (usize, usize, usize) = (8, 4, 4);
/// Share of requests that are content-unique fresh images.
const FRESH_FRAC: f64 = 0.10;
/// Offered rates, requests per second. The first is the reference rate
/// at which `latency_*` are reported; the seed code sustains it.
const LADDER: [f64; 8] = [30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3840.0];
/// Share of the run the reference step takes; the rest is split evenly
/// over the other ladder steps.
const REFERENCE_SHARE: f64 = 0.4;
/// A backlog grows when the last quarter of a step waited this much
/// longer for a connection slot than the first quarter.
const BACKLOG_SLACK_MS: f64 = 10.0;
/// Requests still unsent this long after their step's schedule ended are
/// dropped: the step has failed and its backlog need not drain.
const DRAIN_LIMIT_NS: u64 = 2_000_000_000;
/// `Busy` refusals retried before a request counts as failed.
const BUSY_RETRIES: usize = 8;
/// Longest wait for one reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest a daemon may take to exit after SHUTDOWN.
const EXIT_WAIT: Duration = Duration::from_secs(10);
/// Cold daemon starts measured per run for `setup_s`.
const SETUP_PROBES: usize = 15;

/// A running daemon; killed and reaped on drop unless shut down first.
struct Daemon {
    child: Option<Child>,
    addr: String,
    sock: PathBuf,
}

impl Daemon {
    /// Spawns `funseeker serve` on a fresh socket and disk-cache
    /// directory under `dir` and waits for its first PING reply.
    /// Returns the daemon and the seconds from spawn to that reply.
    fn start(cli: &Path, dir: &Path, tag: usize) -> Result<(Daemon, f64), String> {
        let sock = dir.join(format!("d{tag}.sock"));
        let disk = dir.join(format!("cache{tag}"));
        let addr = format!("unix:{}", sock.display());
        let t0 = now_ns();
        let child = Command::new(cli)
            .args(["serve", "--listen", &addr, "--disk-cache"])
            .arg(&disk)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let daemon = Daemon { child: Some(child), addr, sock };
        loop {
            if let Ok(mut c) = Client::connect(&daemon.addr) {
                if c.ping().is_ok() {
                    return Ok((daemon, (now_ns() - t0) as f64 / 1e9));
                }
            }
            if now_ns() - t0 > 10_000_000_000 {
                return Err("daemon did not answer PING within 10 s".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn stats(&self) -> Result<ServerStats, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("stats connect: {e}"))?;
        c.stats().map_err(|e| format!("stats: {e}"))
    }

    /// `VmHWM` of the daemon process, KiB.
    fn peak_rss_kib(&self) -> u64 {
        self.child.as_ref().map_or(0, |c| proc_status_kib(&c.id().to_string(), "VmHWM"))
    }

    /// Asks the daemon to drain and exit, and reaps it; one that has not
    /// exited after [`EXIT_WAIT`] is killed and reported.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| c.shutdown());
        let mut child = self.child.take().expect("daemon reaped once");
        let t0 = now_ns();
        while asked.is_ok() && child.try_wait().map_err(|e| format!("reap daemon: {e}"))?.is_none()
        {
            if now_ns() - t0 > EXIT_WAIT.as_nanos() as u64 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon still running {EXIT_WAIT:?} after SHUTDOWN"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if asked.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        asked.map(drop).map_err(|e| format!("shutdown: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// The image to submit: a working-set member, or a content-unique
/// variant of one with `tag` appended past every ELF-described region
/// (the analysis is unchanged; the cache key is new).
#[derive(Debug, Clone, Copy)]
struct Req {
    due_ns: u64,
    image: usize,
    tag: Option<u64>,
}

impl Req {
    fn bytes(&self, images: &[Vec<u8>]) -> Vec<u8> {
        let mut v = images[self.image].clone();
        if let Some(tag) = self.tag {
            v.extend_from_slice(&tag.to_le_bytes());
        }
        v
    }
}

/// A constant-rate schedule of `round(rate × seconds)` requests.
fn schedule(rng: &mut StdRng, rate: f64, seconds: f64, images: usize, tags: &mut u64) -> Vec<Req> {
    let n = (rate * seconds).round().max(1.0) as u64;
    (0..n)
        .map(|i| {
            let image = rng.gen_range(0..images);
            let tag = rng.gen_bool(FRESH_FRAC).then(|| {
                *tags += 1;
                *tags
            });
            Req { due_ns: (i as f64 * 1e9 / rate) as u64, image, tag }
        })
        .collect()
}

/// One request's timeline.
#[derive(Debug, Clone, Copy)]
struct Sample {
    due: u64,
    /// When the sending thread finished its previous request.
    free: u64,
    sent: u64,
    done: u64,
    ok: bool,
    bytes: u64,
}

/// Sends one request through the SDK, as `funseeker submit` does.
fn submit(addr: &str, image: &[u8], expected: &Analysis) -> bool {
    let Ok(mut client) = Client::connect(addr) else { return false };
    if client.set_read_timeout(Some(REPLY_TIMEOUT)).is_err() {
        return false;
    }
    matches!(client.analyze_retry(image, 4, false, BUSY_RETRIES), Ok(r) if r.analysis == *expected)
}

/// Sends one request through the protocol's public functions, with a
/// span around each; the root span starts at the due time.
fn submit_traced(
    rec: &Recorder,
    root: u32,
    req: u64,
    sock: &Path,
    image: &[u8],
    expected: &Analysis,
) -> bool {
    let p = Some(root);
    let attempt = || -> Result<Option<bool>, ()> {
        let mut stream =
            rec.span("client.connect", p, req, |_| UnixStream::connect(sock)).map_err(drop)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(drop)?;
        rec.span("client.write", p, req, |_| proto::write_analyze(&mut stream, 4, 0, image))
            .map_err(drop)?;
        let frame = rec
            .span("client.reply_wait", p, req, |_| {
                proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME)
            })
            .map_err(drop)?
            .ok_or(())?;
        match rec.span("client.decode", p, req, |_| proto::decode_response(&frame)).map_err(drop)? {
            Response::Result(r) => Ok(Some(r.analysis == *expected)),
            Response::Busy { .. } => Ok(None),
            _ => Err(()),
        }
    };
    let mut backoff = Duration::from_millis(1);
    for _ in 0..=BUSY_RETRIES {
        match attempt() {
            Ok(Some(ok)) => return ok,
            Ok(None) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(64));
            }
            Err(()) => return false,
        }
    }
    false
}

/// Everything a rate step needs.
struct Load<'a> {
    daemon: &'a Daemon,
    images: &'a [Vec<u8>],
    expected: &'a [Analysis],
    threads: usize,
}

/// Runs one step: `reqs` sent on schedule from `nproc` threads, each
/// holding at most one connection. Returns the samples in due order and
/// the requests dropped as undrainable.
fn run_step(load: &Load<'_>, reqs: &[Req], rec: Option<&Recorder>) -> (Vec<Sample>, u64) {
    let start = now_ns() + 1_000_000;
    let stop = start + reqs.last().map_or(0, |r| r.due_ns) + DRAIN_LIMIT_NS;
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(vec![None; reqs.len()]);
    let dropped = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..load.threads {
            s.spawn(|| {
                let mut free = start;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let due = start + req.due_ns;
                    let image = req.bytes(load.images);
                    let now = now_ns();
                    if now > stop {
                        dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if now < due {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let sent = now_ns();
                    let expected = &load.expected[req.image];
                    let ok = match rec {
                        None => submit(&load.daemon.addr, &image, expected),
                        Some(rec) => {
                            let root = rec.next_id();
                            let id = i as u64;
                            if sent > due {
                                rec.push(Span::timed(
                                    "bench.slot_wait",
                                    rec.next_id(),
                                    Some(root),
                                    id,
                                    due,
                                    sent,
                                ));
                            }
                            let ok =
                                submit_traced(rec, root, id, &load.daemon.sock, &image, expected);
                            rec.push(Span::timed("serve.request", root, None, id, due, now_ns()));
                            ok
                        }
                    };
                    let done = now_ns();
                    let sample = Sample { due, free, sent, done, ok, bytes: image.len() as u64 };
                    samples.lock().expect("sample table poisoned")[i] = Some(sample);
                    free = done;
                }
            });
        }
    });
    let samples =
        samples.into_inner().expect("sample table poisoned").into_iter().flatten().collect();
    (samples, dropped.into_inner() as u64)
}

/// What one step measured.
struct StepResult {
    samples: Vec<Sample>,
    step: Step,
    dropped: u64,
    stats: ServerStats,
}

impl StepResult {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| (s.done - s.due) as f64 / 1e6).collect()
    }

    /// Completed requests per second over the step, first due to last reply.
    fn achieved_rps(&self) -> f64 {
        let first = self.samples.iter().map(|s| s.due).min().unwrap_or(0);
        let last = self.samples.iter().map(|s| s.done).max().unwrap_or(0);
        self.samples.len() as f64 * 1e9 / last.saturating_sub(first).max(1) as f64
    }
}

/// Runs a step of `reqs` offered at `rate` and reads the daemon's
/// counters after it.
fn measure(
    load: &Load<'_>,
    rep: &mut Report,
    reqs: &[Req],
    rate: f64,
    rec: Option<&Recorder>,
) -> Result<StepResult, String> {
    let (samples, dropped) = run_step(load, reqs, rec);
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    rep.count(samples.len() as u64, failed);
    let waits: Vec<f64> = samples.iter().map(|s| (s.sent - s.due) as f64 / 1e6).collect();
    let lat: Vec<f64> = samples.iter().map(|s| (s.done - s.due) as f64 / 1e6).collect();
    let step = Step {
        rate,
        tail_ms: tail(&lat).map_or(f64::INFINITY, |t| t.value),
        failed: failed + dropped,
        growing: backlog_growing(&waits, BACKLOG_SLACK_MS),
    };
    Ok(StepResult { samples, step, dropped, stats: load.daemon.stats()? })
}

/// Counter `name` of `b` minus that of `a`.
fn delta(a: &ServerStats, b: &ServerStats, name: &str) -> u64 {
    b.get(name).unwrap_or(0).saturating_sub(a.get(name).unwrap_or(0))
}

/// The working set with the config ④ result each image must get.
struct WorkingSet {
    images: Vec<Vec<u8>>,
    expected: Vec<Analysis>,
    score: Score,
}

/// Builds the working set, checks its expected results, and scores it.
fn working_set(seed: u64, rep: &mut Report) -> Result<WorkingSet, String> {
    // The first three optimization levels of each compiler × arch block
    // of the paper's grid, PIE alternating: 12 configurations.
    let configs = BuildConfig::grid().into_iter().enumerate().filter(|(i, _)| i % 6 < 3);
    let params = DatasetParams {
        programs: WORKING_SET_PROGRAMS,
        configs: configs.map(|(_, c)| c).collect(),
    };
    let ds = Dataset::generate(&params, seed);
    let images: Vec<Vec<u8>> = ds.binaries.iter().map(|b| b.bytes.clone()).collect();
    let configs = check::configs();
    let batch = funseeker_batch::run(&images, &configs, &Default::default()).results;
    let (mut expected, mut bad, mut score) = (Vec::new(), 0, Score::default());
    for ((bin, row), bytes) in ds.binaries.iter().zip(&batch).zip(&images) {
        let reference = check::reference(bytes, &configs);
        let mut tagged = bytes.clone();
        tagged.extend_from_slice(&u64::MAX.to_le_bytes());
        let tagged = check::reference(&tagged, &configs);
        let ok = reference.as_ref().is_some_and(|r| {
            row.iter().zip(r).all(|(got, want)| got.as_deref() == Some(want))
                && tagged.as_ref() == Some(r)
        });
        bad += u64::from(!ok);
        let c4 = match (reference, &row[check::C4]) {
            (Some(mut r), _) => r.swap_remove(check::C4),
            (None, Some(a)) => (**a).clone(),
            (None, None) => {
                return Err(format!("working-set binary {} does not parse", bin.program))
            }
        };
        score += Score::of(&c4.functions, &bin.truth.eval_entries());
        expected.push(c4);
    }
    rep.count(images.len() as u64, bad);
    Ok(WorkingSet { images, expected, score })
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let WorkingSet { images, expected, score } = working_set(ctx.seed, rep)?;
    rep.set("recall_pct", score.recall_pct());
    rep.set("precision_pct", score.precision_pct());

    let mut setup = Vec::with_capacity(SETUP_PROBES);
    for tag in 0..SETUP_PROBES {
        let (daemon, ready_s) = Daemon::start(&ctx.cli, &ctx.work, tag)?;
        setup.push(ready_s);
        daemon.shutdown()?;
    }
    rep.set("setup_s", interquartile_mean(&setup));

    let (daemon, _) = Daemon::start(&ctx.cli, &ctx.work, SETUP_PROBES)?;
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let load = Load { daemon: &daemon, images: &images, expected: &expected, threads };
    // Pre-warm: every working-set image once (misses, written to disk).
    let warm: Vec<Req> =
        (0..images.len()).map(|image| Req { due_ns: 0, image, tag: None }).collect();
    let (warmed, _) = run_step(&load, &warm, None);
    rep.count(warmed.len() as u64, warmed.iter().filter(|s| !s.ok).count() as u64);

    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5e7e_5e7e);
    let mut tags = ctx.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    rep.note(format!(
        "{} working-set images, {:.0}% fresh, constant-rate open loop on {} threads (one connection each)",
        images.len(),
        100.0 * FRESH_FRAC,
        threads
    ));
    let result = if ctx.trace {
        traced(ctx, rep, &load, &mut rng, &mut tags)
    } else {
        untraced(ctx, rep, &load, &mut rng, &mut tags)
    };
    let peak_kib = daemon.peak_rss_kib();
    daemon.shutdown()?;
    if !ctx.trace {
        rep.set("peak_rss_mib", peak_kib as f64 / 1024.0);
    }
    result
}

fn untraced(
    ctx: &Ctx,
    rep: &mut Report,
    load: &Load<'_>,
    rng: &mut StdRng,
    tags: &mut u64,
) -> Result<(), String> {
    let before = load.daemon.stats()?;
    let ladder_s = ctx.seconds * (1.0 - REFERENCE_SHARE) / (LADDER.len() - 1) as f64;
    let mut results: Vec<StepResult> = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let seconds = if i == 0 { ctx.seconds * REFERENCE_SHARE } else { ladder_s };
        let reqs = schedule(rng, rate, seconds, load.images.len(), tags);
        let r = measure(load, rep, &reqs, rate, None)?;
        let passed = r.step.passes(LATENCY_LIMIT_MS);
        let lag: Vec<f64> =
            r.samples.iter().map(|s| (s.sent - s.due.max(s.free)) as f64 / 1e6).collect();
        rep.note(format!(
            "step {rate:>6} req/s: {} sent, {} dropped, tail {:.2} ms, backlog {}, failed {}, generator lag p50 {:.3} ms -> {}",
            r.samples.len(),
            r.dropped,
            r.step.tail_ms,
            if r.step.growing { "growing" } else { "steady" },
            r.step.failed,
            median(&lag),
            if passed { "meets" } else { "misses" }
        ));
        results.push(r);
        if !passed {
            break;
        }
    }
    let steps: Vec<Step> = results.iter().map(|r| r.step).collect();
    let reference = &results[0];
    let lat = reference.latencies_ms();
    let t = tail(&lat).expect("reference step sent requests");
    rep.set("latency_p50_ms", median(&lat));
    rep.set("latency_p99_ms", t.value);
    rep.note(format!("latency at the reference rate {} req/s: {}", LADDER[0], t.describe()));
    // Throughput at the highest step that met the limit, as measured; a
    // reference step that misses reports its own.
    let best = &results[max_passing(&steps, LATENCY_LIMIT_MS).unwrap_or(0)];
    let rps = best.achieved_rps();
    // Request size averaged over every step, which samples the mix more
    // widely than the one step.
    let sent = results.iter().flat_map(|r| &r.samples);
    let (n, bytes) = sent.fold((0u64, 0u64), |(n, b), s| (n + 1, b + s.bytes));
    rep.set("max_rate_rps", rps);
    rep.set("bins_per_s", rps);
    rep.set("mb_per_s", rps * bytes as f64 / n.max(1) as f64 / 1e6);
    let after = &results.last().expect("one step at least").stats;
    let (hits, misses) =
        (delta(&before, after, "cache_hits"), delta(&before, after, "cache_misses"));
    rep.note(format!(
        "highest ladder rate meeting p-tail <= {LATENCY_LIMIT_MS} ms: {} req/s (achieved {rps:.2}); daemon cache hit rate {:.3}",
        best.step.rate,
        hits as f64 / (hits + misses).max(1) as f64
    ));
    Ok(())
}

fn traced(
    ctx: &Ctx,
    rep: &mut Report,
    load: &Load<'_>,
    rng: &mut StdRng,
    tags: &mut u64,
) -> Result<(), String> {
    let rate = LADDER[0];
    let seconds = ctx.seconds * REFERENCE_SHARE;
    // The same step untraced then traced: the difference is the overhead.
    let reqs = schedule(rng, rate, seconds, load.images.len(), tags);
    let plain = measure(load, rep, &reqs, rate, None)?;
    let reqs = schedule(rng, rate, seconds, load.images.len(), tags);
    let rec = Recorder::new();
    let traced = measure(load, rep, &reqs, rate, Some(&rec))?;
    let mut layers = Layers::default();
    layers.add(&rec.take());
    let n = traced.samples.len().max(1) as f64;

    // The daemon's cache work, rebuilt from the cache layer's public
    // functions over the traced step's images: hashing every request,
    // and encoding, decoding and storing every fresh one.
    let replica = Recorder::new();
    let disk = DiskCache::new(ctx.work.join("replica-cache"));
    let config_fp = config_fingerprint(&Config::c4());
    let mut hashed = 0u64;
    for (i, req) in reqs.iter().enumerate() {
        let bytes = req.bytes(load.images);
        let id = i as u64;
        let hash = replica.span("batch.hash", None, id, |_| hash_bytes(&bytes));
        hashed += bytes.len() as u64;
        if req.tag.is_none() {
            continue;
        }
        let analysis = &load.expected[req.image];
        let key = cache_key(hash, &Config::c4());
        let record = replica
            .span("batch.cache.encode", None, id, |_| cache::encode(hash, config_fp, analysis));
        let Some(record) = record else {
            rep.count(1, 1);
            continue;
        };
        let back = replica.span("batch.cache.decode", None, id, |_| cache::decode(key, &record));
        rep.count(1, u64::from(back.as_ref() != Some(analysis)));
        replica.span("batch.cache.disk_store", None, id, |_| disk.store_record(key, &record));
    }
    let cache_layers = crate::trace::by_layer(&replica.take());
    let per = |name: &str, scale: f64| {
        cache_layers.get(name).map_or(0.0, |t| t.wall_ns as f64 / t.count.max(1) as f64 / scale)
    };
    let hash_wall = cache_layers.get("batch.hash").map_or(1, |t| t.wall_ns.max(1));

    let (a, b) = (&plain.stats, &traced.stats);
    let analyzed = delta(a, b, "images_analyzed");
    let misses = analyzed.max(1) as f64;
    let requests = delta(a, b, "analyze_total").max(1) as f64;
    let lag: Vec<f64> =
        traced.samples.iter().map(|s| (s.sent - s.due.max(s.free)) as f64 / 1e6).collect();

    rep.set("batch.hash.gb_per_s", hashed as f64 / hash_wall as f64);
    // Per request, not per lookup: the daemon's cache_hits/cache_misses
    // count lookups, and a miss is looked up again inside the analysis.
    rep.set("batch.cache.hit_rate", 1.0 - analyzed as f64 / requests);
    rep.set("batch.cache.encode_us", per("batch.cache.encode", 1e3));
    rep.set("batch.cache.decode_us", per("batch.cache.decode", 1e3));
    rep.set("batch.cache.disk_store_ms", per("batch.cache.disk_store", 1e6));
    rep.set("client.connect_us", layers.get("client.connect").wall_ns as f64 / n / 1e3);
    rep.set("client.reply_wait_ms", layers.get("client.reply_wait").wall_ns as f64 / n / 1e6);
    rep.set("client.decode_us", layers.get("client.decode").wall_ns as f64 / n / 1e3);
    rep.set("server.parse_ms_per_miss", delta(a, b, "parse_ns_total") as f64 / misses / 1e6);
    rep.set("server.sweep_ms_per_miss", delta(a, b, "sweep_ns_total") as f64 / misses / 1e6);
    rep.set("server.analyze_ms_per_miss", delta(a, b, "analyze_ns_total") as f64 / misses / 1e6);
    rep.set("server.analyze_ms_per_req", delta(a, b, "analyze_ns_total") as f64 / requests / 1e6);
    rep.set("server.reply_bytes_hits", delta(a, b, "reply_bytes_hits") as f64);
    rep.set("server.singleflight_shared", delta(a, b, "singleflight_shared") as f64);
    rep.set("server.busy_total", delta(a, b, "busy_total") as f64);
    rep.set("bench.generator_lag_p99_ms", tail(&lag).map_or(0.0, |t| t.value));
    rep.set(
        "bench.tracing_overhead_frac",
        median(&traced.latencies_ms()) / median(&plain.latencies_ms()) - 1.0,
    );
    rep.set("bench.span_coverage_frac", layers.coverage());
    rep.note(format!(
        "traced run: {rate} req/s for {seconds:.1} s untraced (p50 {:.2} ms) then traced (p50 {:.2} ms); STATS deltas over the traced step: {} requests, {} analyses",
        median(&plain.latencies_ms()),
        median(&traced.latencies_ms()),
        requests,
        misses
    ));
    layers.describe(rep);
    Ok(())
}
