//! `serve_cold` and `serve_warm`: an in-process `hifi_serve` daemon with two
//! workers, driven over HTTP by a client that measures honestly — at most
//! `nproc` client threads, outstanding jobs polled round-robin, each job
//! timed from its first submit attempt, 429s counted and backed off.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hifi_circuit::identify::TopologyLibrary;
use hifi_circuit::topology::SaTopologyKind;
use hifi_conformance::{run_seed, ChipSpec};
use hifi_dram::pipeline::{Pipeline, PipelineConfig, PipelineReport};
use hifi_extract::{measure, MeasurementReport};
use hifi_serve::{client, report_digest, start, JobRequest, RunningServer, ServeConfig};
use hifi_store::fingerprint::salts;
use hifi_store::{codec, spec_fingerprint, stage, ArtifactStore, Key};
use hifi_synth::generate_region;
use hifi_units::Ratio;
use serde::Value;

use crate::checks::{failed_jobs, JobResult};
use crate::json::{obj, opt};
use crate::stats::{mean, median, peak_rss_mib, tail_percentile, tail_reportable};
use crate::trace::Tracer;
use crate::{account, guard, timed, Ctx, Run};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// Jobs in `serve_cold`'s batch: 7 blocks (fewer only if submission
/// outlasts `--seconds`). A fixed batch keeps the share of colliding specs
/// — about a fifth — independent of how fast the program is.
const COLD_BLOCKS: usize = 7;
/// Distinct specs warmed in `serve_warm`'s set-up and cycled by its batch:
/// 4 blocks. Repeats of a spec are a whole cycle apart, never in flight
/// together, so every measured job re-runs warm.
const WARM_BLOCKS: usize = 4;
/// Voxel pitches (nm), bitline pair counts and dimension scales (%) of the
/// conformance generator: the spec fields that size a pristine job.
const PITCHES_NM: [u32; 3] = [6, 8, 10];
const PAIRS: [usize; 3] = [1, 2, 3];
const SCALES_PCT: [u32; 4] = [90, 100, 110, 120];
/// The client's locks are held only for plain pushes and retains, which
/// cannot panic.
const POISONED: &str = "client lock poisoned by a panicking holder";
/// Pause between two round-robin polling passes.
const POLL_PAUSE: Duration = Duration::from_millis(20);
/// Pause before re-submitting a job the daemon answered with 429.
const BACKOFF: Duration = Duration::from_millis(20);
/// How long outstanding jobs may take to finish once submission stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(90);
/// Submission stops here even if the program gets much faster.
const MAX_JOBS: usize = 50_000;
/// `serve_cold` set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Cost class of `serve_cold`'s set-up job: heavy enough (a few hundred ms)
/// that its compute, not the daemon's 5 ms accept polling or the store's
/// fsyncs, sets the set-up time.
const SETUP_CLASS: CostClass = (6, 2, 100);
/// Spec keys whose digest is checked against a direct in-process run.
const REFERENCE_KEYS: usize = 12;
/// Distinct specs replayed stage by stage in the traced run.
const REPLAY_SPECS: usize = 32;
/// Job reports fetched in the traced run to size them.
const REPORTS_FETCHED: usize = 16;

/// The job the client submits for `spec_seed`: its pristine variant.
fn request(spec_seed: u64) -> JobRequest {
    JobRequest {
        spec_seed,
        priority: hifi_serve::DEFAULT_PRIORITY,
        pristine: true,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn uint(v: &Value, key: &str) -> Option<u64> {
    match v.field(key).ok()? {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

fn text(v: &Value, key: &str) -> Option<String> {
    match v.field(key).ok()? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// Fresh store roots under the run's scratch directory, removed on drop.
struct Stores {
    root: PathBuf,
    made: usize,
}

impl Stores {
    fn new(ctx: &Ctx) -> Self {
        let root = ctx.out_dir.join(format!("stores-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self { root, made: 0 }
    }

    fn fresh(&mut self, tag: &str) -> PathBuf {
        self.made += 1;
        self.root.join(format!("{tag}-{}", self.made))
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Starts a daemon on `store` and waits until `/healthz` answers.
fn daemon(store: PathBuf) -> Result<RunningServer, String> {
    let server = start(ServeConfig::new(store).with_workers(WORKERS))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if client::get(server.addr(), "/healthz").is_ok_and(|r| r.status == 200) {
            return Ok(server);
        }
        if Instant::now() > deadline {
            return Err("daemon never became healthy".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A pristine spec's cost class: (pitch, pairs, scale).
type CostClass = (u32, usize, u32);

fn cost_class(spec: &ChipSpec) -> CostClass {
    (
        spec.voxel_nm.round() as u32,
        spec.n_pairs,
        spec.dim_scale_pct,
    )
}

/// Every cost class once, heaviest first by volume (pairs × scale² /
/// pitch³): the order a block of the batch visits them.
fn block() -> Vec<CostClass> {
    let mut classes: Vec<CostClass> = PITCHES_NM
        .iter()
        .flat_map(|&v| {
            PAIRS
                .iter()
                .flat_map(move |&p| SCALES_PCT.iter().map(move |&s| (v, p, s)))
        })
        .collect();
    let volume = |&(v, p, s): &CostClass| p as f64 * f64::from(s * s) / f64::from(v * v * v);
    classes.sort_by(|a, b| volume(b).total_cmp(&volume(a)));
    classes
}

/// The seeds of `blocks` blocks of run `seed`'s batch: the conformance
/// stream `run_seed(seed, i)`, i = 0, 1, …, dealt into blocks that hold one
/// spec of every cost class (see [`block`]), each the next unused stream
/// spec of its class. Only the mix of job sizes is fixed, so runs of
/// different seeds do the same amount of work. With `distinct`, a spec
/// already in the batch is skipped (the lightest classes hold 8 specs, so
/// at most 8 blocks); otherwise specs collide as often as the stream makes
/// them.
fn batch_seeds(seed: u64, blocks: usize, distinct: bool) -> Vec<u64> {
    let block = block();
    let mut pending: HashMap<CostClass, VecDeque<u64>> = HashMap::new();
    let mut taken = HashSet::new();
    let mut stream = (0..1 << 24).map(|i| run_seed(seed, i));
    (0..blocks * block.len())
        .map(|j| {
            let class = block[j % block.len()];
            loop {
                if let Some(s) = pending.get_mut(&class).and_then(VecDeque::pop_front) {
                    return s;
                }
                let s = stream
                    .next()
                    .expect("a cost class ran out of distinct specs");
                if !distinct || taken.insert(request(s).cache_key(None)) {
                    pending
                        .entry(cost_class(&request(s).spec()))
                        .or_default()
                        .push_back(s);
                }
            }
        })
        .collect()
}

/// Submits one job and waits until a poll sees it done: the set-up's first
/// job, which lets lazy initialisation in the daemon and the store finish.
fn first_job(addr: SocketAddr, spec_seed: u64) -> Result<(), String> {
    let resp =
        client::post(addr, "/jobs", &request(spec_seed).to_json()).map_err(|e| e.to_string())?;
    let id = resp
        .json()
        .ok()
        .and_then(|v| uint(&v, "id"))
        .ok_or_else(|| format!("first job refused: {}", resp.body))?;
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while Instant::now() < deadline {
        let status = client::get(addr, &format!("/jobs/{id}"))
            .ok()
            .and_then(|r| r.json().ok())
            .and_then(|v| text(&v, "status"));
        match status.as_deref() {
            Some("done") => return Ok(()),
            Some("failed") => return Err("first job failed".into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    Err("first job never finished".into())
}

/// The set-up job's seed: the first of a fixed stream whose spec is in
/// [`SETUP_CLASS`] and is none of `batch`'s specs.
fn setup_seed(batch: &[u64]) -> u64 {
    let key = |s: u64| request(s).cache_key(None);
    let taken: HashSet<Key> = batch.iter().map(|&s| key(s)).collect();
    (0..1 << 24)
        .map(|k| run_seed(u64::MAX, k))
        .find(|&s| cost_class(&request(s).spec()) == SETUP_CLASS && !taken.contains(&key(s)))
        .expect("the spec domain is larger than one batch")
}

/// One HTTP request the client made, kept for the span dump.
struct Request {
    job: usize,
    kind: &'static str,
    start: Instant,
    end: Instant,
}

/// A job admitted by the daemon and not yet seen finished.
struct Outstanding {
    job: usize,
    id: u64,
    first: Instant,
}

/// A job the client stopped tracking.
struct Finished {
    job: usize,
    id: u64,
    key: String,
    status: String,
    digest: String,
    first: Instant,
    seen: Option<Instant>,
}

/// The round-robin poller: every pass polls each outstanding job once.
#[derive(Default)]
struct Poller {
    finished: Vec<Finished>,
    poll_ms: Vec<f64>,
    revisit_ms: Vec<f64>,
    last_poll: HashMap<u64, Instant>,
    requests: Vec<Request>,
}

impl Poller {
    fn pass(&mut self, addr: SocketAddr, outstanding: &Mutex<Vec<Outstanding>>) {
        let snapshot: Vec<(usize, u64)> = outstanding
            .lock()
            .expect(POISONED)
            .iter()
            .map(|o| (o.job, o.id))
            .collect();
        let mut done = HashMap::new();
        for (job, id) in snapshot {
            let t0 = Instant::now();
            let resp = client::get(addr, &format!("/jobs/{id}"));
            let t1 = Instant::now();
            self.poll_ms.push(ms(t1 - t0));
            self.requests.push(Request {
                job,
                kind: "serve.poll",
                start: t0,
                end: t1,
            });
            if let Some(prev) = self.last_poll.insert(id, t1) {
                self.revisit_ms.push(ms(t1 - prev));
            }
            let Some(v) = resp
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| r.json().ok())
            else {
                continue;
            };
            let status = text(&v, "status").unwrap_or_default();
            if status == "done" || status == "failed" {
                let key = text(&v, "key").unwrap_or_default();
                let digest = text(&v, "digest").unwrap_or_default();
                done.insert(id, (key, status, digest, t1));
            }
        }
        if done.is_empty() {
            return;
        }
        outstanding
            .lock()
            .expect(POISONED)
            .retain(|o| match done.remove(&o.id) {
                Some((key, status, digest, seen)) => {
                    self.finished.push(Finished {
                        job: o.job,
                        id: o.id,
                        key,
                        status,
                        digest,
                        first: o.first,
                        seen: Some(seen),
                    });
                    false
                }
                None => true,
            });
    }

    /// Gives up on whatever is still outstanding.
    fn abandon(&mut self, outstanding: &Mutex<Vec<Outstanding>>) {
        for o in outstanding.lock().expect(POISONED).drain(..) {
            self.finished.push(lost(o.job, o.id, o.first));
        }
    }
}

fn lost(job: usize, id: u64, first: Instant) -> Finished {
    Finished {
        job,
        id,
        key: String::new(),
        status: "lost".into(),
        digest: String::new(),
        first,
        seen: None,
    }
}

/// What one batch looked like from the client.
struct Batch {
    /// Per job, in submission order: its seed and what became of it.
    jobs: Vec<(u64, Finished)>,
    submit_ms: Vec<f64>,
    rejected: u64,
    poller: Poller,
    started: Instant,
}

impl Batch {
    fn latencies_ms(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|(_, f)| f.status == "done")
            .filter_map(|(_, f)| f.seen.map(|s| ms(s - f.first)))
            .collect()
    }

    fn done(&self) -> usize {
        self.jobs.iter().filter(|(_, f)| f.status == "done").count()
    }

    /// First submit attempt to the last completion seen, seconds.
    fn wall_s(&self) -> f64 {
        let end = self.jobs.iter().filter_map(|(_, f)| f.seen).max();
        end.map_or(0.0, |e| (e - self.started).as_secs_f64())
    }

    fn results(&self) -> Vec<JobResult> {
        self.jobs
            .iter()
            .map(|(seed, f)| JobResult {
                spec_seed: *seed,
                key: f.key.clone(),
                status: f.status.clone(),
                digest: f.digest.clone(),
            })
            .collect()
    }

    /// Distinct done keys in first-seen order, with a seed that made each.
    fn distinct_keys(&self) -> Vec<(String, u64)> {
        let mut seen = HashSet::new();
        self.jobs
            .iter()
            .filter(|(_, f)| f.status == "done" && seen.insert(f.key.clone()))
            .map(|(seed, f)| (f.key.clone(), *seed))
            .collect()
    }
}

/// Submits `seeds(j)` for j = 0, 1, … as fast as the daemon admits them
/// until `seeds` runs out or `deadline` passes, then polls every admitted
/// job to completion. One thread submits and one polls; with a single
/// core the submitter also runs the polling passes.
fn drive(
    addr: SocketAddr,
    seeds: impl Fn(usize) -> Option<u64>,
    deadline: Option<Instant>,
) -> Batch {
    let two_threads = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    let outstanding = Mutex::new(Vec::<Outstanding>::new());
    // Set once submission ends: the poller then stops when nothing is
    // outstanding or this deadline has passed.
    let drain_until = Mutex::new(None::<Instant>);
    let draining = || match *drain_until.lock().expect(POISONED) {
        Some(d) => outstanding.lock().expect(POISONED).is_empty() || Instant::now() >= d,
        None => false,
    };
    let started = Instant::now();
    let mut submit_ms = Vec::new();
    let mut rejected = 0u64;
    let mut seeds_used = Vec::new();
    let mut failed_submits = Vec::new();
    let mut submit_requests = Vec::new();

    let poller = std::thread::scope(|s| {
        let handle = two_threads.then(|| {
            s.spawn(|| {
                let mut p = Poller::default();
                while !draining() {
                    p.pass(addr, &outstanding);
                    std::thread::sleep(POLL_PAUSE);
                }
                p
            })
        });
        let mut solo = Poller::default();
        for job in 0..MAX_JOBS {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let Some(seed) = seeds(job) else { break };
            seeds_used.push(seed);
            let payload = request(seed).to_json();
            let first = Instant::now();
            let give_up = first + DRAIN_TIMEOUT;
            loop {
                let t0 = Instant::now();
                let resp = client::post(addr, "/jobs", &payload);
                let t1 = Instant::now();
                submit_ms.push(ms(t1 - t0));
                submit_requests.push(Request {
                    job,
                    kind: "serve.submit",
                    start: t0,
                    end: t1,
                });
                match resp {
                    Ok(r) if r.status == 202 => {
                        match r.json().ok().and_then(|v| uint(&v, "id")) {
                            Some(id) => outstanding.lock().expect(POISONED).push(Outstanding {
                                job,
                                id,
                                first,
                            }),
                            None => failed_submits.push(lost(job, 0, first)),
                        }
                        break;
                    }
                    Ok(r) if r.status == 429 && t1 < give_up => {
                        rejected += 1;
                        if !two_threads {
                            solo.pass(addr, &outstanding);
                        }
                        std::thread::sleep(BACKOFF);
                    }
                    _ => {
                        failed_submits.push(lost(job, 0, first));
                        break;
                    }
                }
            }
        }
        *drain_until.lock().expect(POISONED) = Some(Instant::now() + DRAIN_TIMEOUT);
        let mut p = match handle {
            Some(h) => h.join().expect("poller thread"),
            None => {
                while !draining() {
                    solo.pass(addr, &outstanding);
                    std::thread::sleep(POLL_PAUSE);
                }
                solo
            }
        };
        p.abandon(&outstanding);
        p
    });
    let mut poller = poller;
    poller.requests.extend(submit_requests);
    let mut by_job: HashMap<usize, Finished> = poller
        .finished
        .drain(..)
        .chain(failed_submits)
        .map(|f| (f.job, f))
        .collect();
    let jobs = seeds_used
        .iter()
        .enumerate()
        .map(|(job, &seed)| {
            let f = by_job.remove(&job).unwrap_or_else(|| lost(job, 0, started));
            (seed, f)
        })
        .collect();
    Batch {
        jobs,
        submit_ms,
        rejected,
        poller,
        started,
    }
}

/// Direct in-process digests for an evenly spread sample of the batch's
/// distinct keys.
fn reference_digests(batch: &Batch) -> HashMap<String, String> {
    let keys = batch.distinct_keys();
    let step = (keys.len() / REFERENCE_KEYS).max(1);
    keys.iter()
        .step_by(step)
        .take(REFERENCE_KEYS)
        .filter_map(|(key, seed)| {
            let report = Pipeline::new(request(*seed).spec().pipeline_config())
                .run()
                .ok()?;
            Some((key.clone(), report_digest(&report)))
        })
        .collect()
}

/// `GET /stats` of a running daemon.
fn daemon_stats(addr: SocketAddr) -> Option<Value> {
    client::get(addr, "/stats").ok()?.json().ok()
}

pub fn run(ctx: &Ctx, warm: bool) -> Result<Run, String> {
    let mut run = Run::default();
    let mut stores = Stores::new(ctx);
    // Set-up.
    let (server, store_root, seeds) = if warm {
        let seeds = batch_seeds(ctx.seed, WARM_BLOCKS, true);
        let root = stores.fresh("warm");
        let (secs, out) = timed(|| -> Result<_, String> {
            let warmer = daemon(root.clone())?;
            let batch = drive(warmer.addr(), |j| seeds.get(j).copied(), None);
            warmer.stop();
            Ok((batch, daemon(root.clone())?))
        });
        let (warm_up, server) = out?;
        // Warm-up jobs are checked like measured ones; a failure there is
        // the program's, not the benchmark's.
        let results = warm_up.results();
        run.attempted += results.len() as u64;
        run.failed += failed_jobs(&results, &HashMap::new()) as u64;
        run.set("setup_s", Some(secs), "");
        (server, root, seeds)
    } else {
        // A daemon on a fresh store, up to its first job done.
        let seeds = batch_seeds(ctx.seed, COLD_BLOCKS, false);
        let first = setup_seed(&seeds);
        let mut setups = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            let root = stores.fresh("cold");
            let (secs, server) = timed(|| -> Result<_, String> {
                let server = daemon(root.clone())?;
                first_job(server.addr(), first)?;
                Ok(server)
            });
            setups.push(secs);
            if let Some((old, _)) = kept.replace((server?, root)) {
                RunningServer::stop(old);
            }
        }
        run.set("setup_s", median(&setups), "");
        let (server, root) = kept.expect("at least one set-up");
        (server, root, seeds)
    };
    run.note("peak_rss_mib_after_setup", opt(peak_rss_mib()));

    // Measured batch.
    let addr = server.addr();
    let before = hifi_store::stats::snapshot();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let batch = if warm {
        drive(addr, |j| Some(seeds[j % seeds.len()]), Some(deadline))
    } else {
        drive(addr, |j| seeds.get(j).copied(), Some(deadline))
    };
    let store = hifi_store::stats::snapshot().since(&before);
    let stats = daemon_stats(addr);
    let report_bytes: Vec<f64> = if ctx.trace {
        batch
            .jobs
            .iter()
            .filter(|(_, f)| f.status == "done")
            .take(REPORTS_FETCHED)
            .filter_map(|(_, f)| client::get(addr, &format!("/jobs/{}/report", f.id)).ok())
            .map(|r| r.body.len() as f64)
            .collect()
    } else {
        Vec::new()
    };
    server.stop();

    // Checks.
    let reference = reference_digests(&batch);
    let results = batch.results();
    run.attempted += results.len() as u64;
    run.failed += failed_jobs(&results, &reference) as u64;

    let latencies = batch.latencies_ms();
    let done = batch.done();
    run.set("throughput_per_s", Some(done as f64 / batch.wall_s()), "");
    run.set("latency_ms_p50", median(&latencies), "");
    run.set(
        "latency_ms_p90",
        tail_percentile(&latencies, 90.0),
        &format!("{} jobs a run; p90 needs 100", latencies.len()),
    );
    run.set("drift_residual_px", None, "pristine jobs are not imaged");
    run.set("dim_error_pct", None, "measured on imaged_pipeline only");
    let distinct = batch.distinct_keys().len();
    let dedup = stats
        .as_ref()
        .and_then(|s| s.field("jobs").ok().and_then(|j| uint(j, "dedup_hits")));
    run.note("jobs", Value::UInt(results.len() as u64));
    run.note("done", Value::UInt(done as u64));
    run.note("distinct_specs", Value::UInt(distinct as u64));
    run.note(
        "reference_digests_checked",
        Value::UInt(reference.len() as u64),
    );
    run.note("rejected_429", Value::UInt(batch.rejected));
    run.note("dedup_hits", opt(dedup.map(|d| d as f64)));
    run.note(
        "poll_resolution_ms",
        obj([
            ("mean", opt(mean(&batch.poller.revisit_ms))),
            (
                "max",
                opt(batch.poller.revisit_ms.iter().copied().reduce(f64::max)),
            ),
        ]),
    );
    run.note(
        "store",
        obj([
            ("hits", Value::UInt(store.hits)),
            ("misses", Value::UInt(store.misses)),
            ("bytes_read", Value::UInt(store.bytes_read)),
            ("bytes_written", Value::UInt(store.bytes_written)),
        ]),
    );

    if ctx.trace {
        let per_job = |bytes: u64| (done > 0).then(|| bytes as f64 / done as f64);
        run.set("store.bytes_read_per_job", per_job(store.bytes_read), "");
        run.set(
            "store.bytes_written_per_job",
            per_job(store.bytes_written),
            "",
        );
        let lookups = store.hits + store.misses;
        run.set(
            "store.hit_ratio",
            (lookups > 0).then(|| store.hits as f64 / lookups as f64),
            "",
        );
        run.set("serve.submit_ms_p50", median(&batch.submit_ms), "");
        run.set(
            "serve.submit_ms_p90",
            tail_percentile(&batch.submit_ms, 90.0),
            "",
        );
        run.set("serve.poll_ms_p50", median(&batch.poller.poll_ms), "");
        run.set(
            "serve.latency_ms_p90",
            tail_percentile(&latencies, 90.0),
            "",
        );
        run.set("serve.rejected_429", Some(batch.rejected as f64), "");
        run.set("serve.dedup_hits", dedup.map(|d| d as f64), "");
        run.set("serve.report_bytes", mean(&report_bytes), "");
        if let Some(wait) = stats.as_ref().and_then(|s| s.field("queue_wait_us").ok()) {
            let count = uint(wait, "count").unwrap_or(0) as usize;
            let q = |k: &str| uint(wait, k).map(|us| us as f64 / 1e3);
            run.set(
                "serve.queue_wait_ms_p50",
                (count > 0).then(|| q("p50")).flatten(),
                "",
            );
            run.set(
                "serve.queue_wait_ms_p90",
                tail_reportable(count, 90.0).then(|| q("p90")).flatten(),
                "",
            );
        }
        let mut t = Tracer::default();
        record_requests(&mut t, &batch);
        replay(&mut run, &mut t, &batch, warm, &store_root, &mut stores)?;
        run.tracer = Some(t);
    }
    Ok(run)
}

/// Turns the client's requests into spans: one `serve.job` root per job
/// (first submit attempt to the poll that saw it finish) with its submit
/// and poll requests as children.
fn record_requests(t: &mut Tracer, batch: &Batch) {
    let origin = batch.started;
    let us = |i: Instant| (i - origin).as_secs_f64() * 1e6;
    let mut requests: Vec<&Request> = batch.poller.requests.iter().collect();
    requests.sort_by_key(|r| (r.job, r.start));
    let mut next = requests.iter().peekable();
    for (job, (_, f)) in batch.jobs.iter().enumerate() {
        let end = f.seen.map_or(us(f.first), us);
        let root = t.push(job as u64, None, "serve.job", us(f.first), end);
        while let Some(r) = next.next_if(|r| r.job == job) {
            t.push(job as u64, Some(root), r.kind, us(r.start), us(r.end));
        }
    }
}

/// What a replay produced, for comparison with `Pipeline::run`.
#[derive(Debug, PartialEq)]
struct Outputs {
    identified: Option<SaTopologyKind>,
    measurement: MeasurementReport,
    worst: Option<Ratio>,
    devices: usize,
}

impl Outputs {
    fn of(report: &PipelineReport) -> Self {
        Self {
            identified: report.identified,
            measurement: report.measurement.clone(),
            worst: report.worst_dimension_deviation,
            devices: report.device_count,
        }
    }
}

/// The store keys a pristine run reads and writes, rebuilt with the public
/// fingerprint chain.
fn keys(cfg: &PipelineConfig) -> (Key, Key) {
    let vox = stage(salts::VOXELIZE, spec_fingerprint(&cfg.spec)).finish();
    let ext = stage(salts::EXTRACT, vox)
        .u64(cfg.window_pair as u64)
        .finish();
    (vox, ext)
}

/// Cold pristine job, stage by stage, persisting like the pipeline does.
fn replay_cold(
    t: &mut Tracer,
    op: u64,
    id: u64,
    cfg: &PipelineConfig,
    store: &ArtifactStore,
) -> Result<Outputs, String> {
    let region = t.leaf(op, id, "synth.generate", || generate_region(&cfg.spec));
    let (vox_key, ext_key) = t.leaf(op, id, "store.key", || keys(cfg));
    let volume = t.leaf(op, id, "synth.voxelize", || region.voxelize());
    let blob = t.leaf(op, id, "store.encode", || codec::encode_volume(&volume));
    t.leaf(op, id, "store.put", || store.put(vox_key, &blob))
        .map_err(|e| e.to_string())?;
    let cropped = t
        .leaf(op, id, "extract.crop", || {
            region.window_volume(&volume, cfg.window_pair)
        })
        .ok_or("cell window outside the volume")?;
    let extraction = t
        .leaf(op, id, "extract.extract", || {
            hifi_extract::extract(&cropped)
        })
        .map_err(|e| e.to_string())?;
    let identified = t.leaf(op, id, "circuit.identify", || {
        TopologyLibrary::standard().identify(&extraction.netlist)
    });
    let (measurement, worst) = t.leaf(op, id, "extract.measure", || {
        let m = measure(&extraction);
        let w = m.worst_deviation(&region.ground_truth().cell.dims_by_class);
        (m, w)
    });
    let blob = t.leaf(op, id, "store.encode", || {
        codec::encode_extraction(&extraction, &measurement)
    });
    t.leaf(op, id, "store.put", || store.put(ext_key, &blob))
        .map_err(|e| e.to_string())?;
    Ok(Outputs {
        identified,
        measurement,
        worst,
        devices: extraction.devices.len(),
    })
}

/// Warm pristine job, stage by stage: store reads and decodes instead of
/// voxelize and extract. A missing key is an error.
fn replay_warm(
    t: &mut Tracer,
    op: u64,
    id: u64,
    cfg: &PipelineConfig,
    store: &ArtifactStore,
) -> Result<Outputs, String> {
    let region = t.leaf(op, id, "synth.generate", || generate_region(&cfg.spec));
    let (vox_key, ext_key) = t.leaf(op, id, "store.key", || keys(cfg));
    let get = |t: &mut Tracer, key: Key, what: &str| -> Result<Vec<u8>, String> {
        t.leaf(op, id, "store.get", || store.get(key))
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("{what} key {} not in the store", key.hex()))
    };
    let blob = get(t, vox_key, "voxelize")?;
    t.leaf(op, id, "store.decode", || codec::decode_volume(&blob))
        .map_err(|e| e.to_string())?;
    let blob = get(t, ext_key, "extract")?;
    let (extraction, measurement) = t
        .leaf(op, id, "store.decode", || codec::decode_extraction(&blob))
        .map_err(|e| e.to_string())?;
    let identified = t.leaf(op, id, "circuit.identify", || {
        TopologyLibrary::standard().identify(&extraction.netlist)
    });
    let worst = t.leaf(op, id, "extract.measure", || {
        measurement.worst_deviation(&region.ground_truth().cell.dims_by_class)
    });
    Ok(Outputs {
        identified,
        measurement,
        worst,
        devices: extraction.devices.len(),
    })
}

fn open(root: &PathBuf) -> Result<Arc<ArtifactStore>, String> {
    ArtifactStore::open(root)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Replays the batch's first distinct specs in process: `Pipeline::run`
/// (untraced), the stage-by-stage chain (traced) and `run_instrumented`,
/// each against its own store — a fresh one per mode for cold jobs, the
/// warmed one for warm jobs.
fn replay(
    run: &mut Run,
    t: &mut Tracer,
    batch: &Batch,
    warm: bool,
    warm_root: &PathBuf,
    stores: &mut Stores,
) -> Result<(), String> {
    let (untraced_store, traced_store, instrumented_store) = if warm {
        (open(warm_root)?, open(warm_root)?, open(warm_root)?)
    } else {
        (
            open(&stores.fresh("replay-untraced"))?,
            open(&stores.fresh("replay-traced"))?,
            open(&stores.fresh("replay-instrumented"))?,
        )
    };
    let first_op = batch.jobs.len() as u64;
    let (mut untraced_ms, mut instrumented_ms, mut op_ids) = (0.0, 0.0, Vec::new());
    let (mut mismatched, mut missing) = (0, 0);
    for (k, (_, seed)) in batch.distinct_keys().iter().take(REPLAY_SPECS).enumerate() {
        let op = first_op + k as u64;
        let cfg = request(*seed).spec().pipeline_config();
        let with = |s: &Arc<ArtifactStore>| Pipeline::new(cfg.clone().with_store_handle(s.clone()));
        let untraced = || timed(|| with(&untraced_store).run());
        let instrumented = || timed(|| with(&instrumented_store).run_instrumented()).0;
        let traced = |t: &mut Tracer| {
            t.span(op, None, "op", |t, id| {
                let out = if warm {
                    replay_warm(t, op, id, &cfg, &traced_store)
                } else {
                    replay_cold(t, op, id, &cfg, &traced_store)
                };
                (id, out)
            })
        };
        // The traced replay always runs second; which of the other two runs
        // first alternates, so warm caches favour neither.
        let ((secs, expected), (id, got), instrumented_secs) = if k % 2 == 0 {
            let u = untraced();
            let r = traced(t);
            (u, r, instrumented())
        } else {
            let i = instrumented();
            let r = traced(t);
            (untraced(), r, i)
        };
        let expected = expected.map_err(|e| format!("replay baseline failed: {e}"))?;
        untraced_ms += secs * 1e3;
        instrumented_ms += instrumented_secs * 1e3;
        op_ids.push(id);
        match got {
            Ok(out) => mismatched += usize::from(out != Outputs::of(&expected)),
            Err(e) if e.contains("not in the store") => missing += 1,
            Err(_) => mismatched += 1,
        }
    }
    let ops = op_ids.len();
    for name in [
        "synth.generate",
        "synth.voxelize",
        "extract.crop",
        "extract.extract",
        "extract.measure",
        "circuit.identify",
    ] {
        run.set(&format!("{name}_ms"), t.per_op_ms(name, ops), "not called");
    }
    for name in ["get", "decode", "put", "encode"] {
        let spans = t.durations_ms(&format!("store.{name}"));
        run.set(
            &format!("store.{name}_ms_p50"),
            median(&spans),
            "not called",
        );
    }
    let traced_ms: f64 = op_ids.iter().map(|&id| t.spans()[id as usize].ms()).sum();
    let staged_ms: f64 = op_ids.iter().map(|&id| t.children_ms(id)).sum();
    account(run, untraced_ms, staged_ms, traced_ms, ops as f64);
    run.set(
        "telemetry.instrumented_overhead_pct",
        Some((instrumented_ms / untraced_ms - 1.0) * 100.0),
        "",
    );
    guard(
        run,
        "staged replay reproduces Pipeline::run",
        mismatched == 0 && !op_ids.is_empty(),
        format!("{mismatched} of {} specs differ", op_ids.len()),
    );
    if warm {
        guard(
            run,
            "warm key replay finds every key",
            missing == 0,
            format!("{missing} of {} specs had a key missing", op_ids.len()),
        );
    }
    Ok(())
}
