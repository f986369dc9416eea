//! The three workloads and the serving tier they drive.
//!
//! Every workload serves through the full stack — `NetClient` → TCP
//! loopback → `NetServer` (bounded admission queue, 2 workers) → a
//! 2-shard `ShardedService` → `JustInTime` → snapshot stores. The
//! trained system is fixed: the built-in credit scenario as registered
//! (2 500 rows per slice, horizon 3) under a constant seed, at the
//! serving scale of `perf_snapshot`'s `synth/serve_1k` entry — the bench
//! fixture config with 96-tree forests, where predicts dominate the
//! search and the shard-level cell cache pays. `--seed` draws the
//! applicants from the scenario's serving mix (mostly rejected
//! applicants, some walk-ins).
//!
//! The sizes are the repository's own: a batched request carries the
//! load generator's default batch (`LoadPlan::default().cohort`), and a
//! model generation serves the scenario's serving mix
//! (`ScenarioSpec::total_cohort_size`), the cohort the drift harness
//! (`jit_service::invalidation`) serves, and refreshes after each
//! retrain, per generation. For first visits the tier starts a fresh
//! generation of the same system after that many users, so the cell
//! caches and stores hold one generation's users and the run's memory
//! does not grow with serving speed.
//!
//! * `applicant` — one connection, closed loop: one first-time applicant
//!   per request, each sent when the previous reply arrived. The wait of
//!   an applicant on an otherwise idle tier.
//! * `traffic` — open loop: batches of first-time applicants fall due at
//!   [`TRAFFIC_USERS_PER_S`] whether or not earlier ones were answered,
//!   spread over [`TRAFFIC_CONNECTIONS`] connections, so requests overlap
//!   in the admission queue and on both server workers. Latency counts
//!   from when a request fell due.
//! * `retrain` — one connection, closed loop, SQL-backed (`jit-db`)
//!   stores: repeated retrain handovers between two generations that
//!   share the scenario's pinned near-term models. A handover installs
//!   the next generation (stores and cell caches carried over) and runs
//!   the refresh-ahead pass; then every returning user comes back, in
//!   batches, and must replay every time point. The handover counts in
//!   `users_per_s`, not in request latency.
//!
//! Set-up, timed [`SETUP_REPS`] times, is everything before the timed
//! window: training, bringing the tier up, and filling its caches with
//! [`WARMUP_OPS`] requests — for `retrain` after the returning users'
//! first visit and one handover.

use crate::trace::{Generations, Layer, LayerTimes, TracedStore, Tracer};
use jit_core::{AdminConfig, JustInTime, UserRequest};
use jit_data::scenario::ScenarioSpec;
use jit_data::{FeatureSchema, SyntheticGenerator};
use jit_ml::RandomForestParams;
use jit_service::loadgen::LoadPlan;
use jit_service::wire::{self, Message, WireReport, WireResponse, WireServedUser};
use jit_service::{
    CohortMember, DbSnapshotStore, JitService, MemorySnapshotStore, NetClient,
    NetServer, NetServerConfig, RefreshAheadOptions, ServeRequest, ShardedService,
    SnapshotStore,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the training data: constant, so every run serves one system.
const TRAIN_SEED: u64 = 0x5eed_2019;
/// Trees per forest at the serving scale of `synth/serve_1k`.
const SERVING_TREES: usize = 96;
/// Shards behind the TCP server.
const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests each set-up serves once the tier is up, so caches fill
/// before timing starts.
const WARMUP_OPS: usize = 4;
/// Users per second `traffic` offers: about 40% of the ~100 users/s the
/// tier serves flat out on the 2-core machine the benchmark was defined
/// on, so requests overlap and queue but the queue does not grow.
const TRAFFIC_USERS_PER_S: f64 = 40.0;
/// Connections `traffic` spreads its schedule over: enough that a
/// connection is rarely still waiting for a reply when its next request
/// falls due (`send_lag_ms` stays near 0).
const TRAFFIC_CONNECTIONS: usize = 8;
/// One operation in this many keeps its response for verification.
const KEEP_EVERY: usize = 8;
/// Kept responses re-checked against an in-process reference.
const MAX_VERIFIED: usize = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Applicant,
    Traffic,
    Retrain,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "applicant" => Some(Workload::Applicant),
            "traffic" => Some(Workload::Traffic),
            "retrain" => Some(Workload::Retrain),
            _ => None,
        }
    }
}

/// What one run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// Latency of every successful operation.
    pub latencies: Vec<Duration>,
    /// Users served by successful operations.
    pub users: u64,
    pub elapsed: Duration,
    pub layers: LayerTimes,
    /// Memoized confidence cells in the shards' cross-user caches per
    /// user served into them.
    pub cache_cells_per_user: f64,
    /// Mean time an operation waited past when it fell due for its
    /// connection to come free (open loop; ms).
    pub send_lag_ms: f64,
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new(trace));
    let batch = LoadPlan::default().cohort;
    match workload {
        Workload::Applicant => {
            first_visits(seed, seconds, &tracer, 1, Pace::Closed { round: 1 })
        }
        Workload::Traffic => {
            let interval = Duration::from_secs_f64(batch as f64 / TRAFFIC_USERS_PER_S);
            first_visits(seed, seconds, &tracer, batch, Pace::Open { interval })
        }
        Workload::Retrain => retrain(seed, seconds, &tracer, batch),
    }
}

fn scenario() -> ScenarioSpec {
    ScenarioSpec::credit(TRAIN_SEED)
}

fn train(spec: &ScenarioSpec, drift_step: usize) -> Result<JustInTime, String> {
    let mut config = AdminConfig {
        start_year: spec.start_year,
        ..jit_bench::bench_config(spec.horizon, true)
    };
    config.future.forest =
        RandomForestParams { n_trees: SERVING_TREES, ..Default::default() };
    let synth = SyntheticGenerator::new(spec, 0);
    JustInTime::train(config, synth.schema(), &synth.history(drift_step))
        .map_err(|e| format!("training failed: {e}"))
}

/// `n` applicants drawn under `seed` from the scenario's serving mix,
/// with ids unique to the seed.
fn applicants(seed: u64, n: usize) -> Vec<CohortMember> {
    let spec = scenario().with_seed(seed ^ 0xa991_1ca7).with_cohort_size(n);
    SyntheticGenerator::new(&spec, 0)
        .cohort()
        .into_iter()
        .map(|u| {
            CohortMember::new(
                format!("s{seed}-{}", u.user_id),
                UserRequest::new(u.profile),
            )
        })
        .collect()
}

/// A 2-shard tier over `system`, each shard's store built by `store`.
fn sharded(
    system: &Arc<JustInTime>,
    tracer: &Arc<Tracer>,
    mut store: impl FnMut() -> Result<Arc<dyn SnapshotStore>, String>,
) -> Result<ShardedService, String> {
    let stores = (0..SHARDS)
        .map(|_| store().map(|s| TracedStore::wrap(s, tracer)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ShardedService::from_shared(Arc::clone(system), SHARDS, 0, |s| {
        Arc::clone(&stores[s])
    }))
}

fn memory_store() -> Result<Arc<dyn SnapshotStore>, String> {
    Ok(Arc::new(MemorySnapshotStore::new()))
}

fn cache_cells(service: &ShardedService) -> usize {
    service.shards().iter().map(|s| s.cell_cache().cell_count()).sum()
}

/// The TCP server over the generation backend.
struct Tier {
    server: NetServer,
    backend: Arc<Generations>,
}

impl Tier {
    fn up(service: ShardedService, tracer: &Arc<Tracer>) -> Result<Tier, String> {
        let backend = Arc::new(Generations::new(Arc::new(service), tracer));
        let server = NetServer::bind(
            Arc::clone(&backend) as _,
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        Ok(Tier { server, backend })
    }

    fn connect(&self, n: usize) -> Result<Vec<NetClient>, String> {
        let schema = self.backend.current().system().schema().clone();
        (0..n)
            .map(|_| {
                NetClient::connect(self.server.addr(), schema.clone())
                    .map_err(|e| e.to_string())
            })
            .collect()
    }
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result; returns it
/// with the median set-up time in seconds. Each set-up's result is
/// dropped before the next starts, so only one system is ever resident.
fn timed_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(value);
    }
    times.sort_by(f64::total_cmp);
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, times[times.len() / 2]))
}

/// One operation's result: its latency, the users it served and what the
/// workload keeps of it; `None` when it failed.
type OpResult<R> = Option<(Duration, u64, R)>;

/// What one connection did.
struct Lane<R> {
    attempted: u64,
    failed: u64,
    users: u64,
    lag: Duration,
    latencies: Vec<Duration>,
    kept: Vec<R>,
}

/// How [`drive`] sends operations.
#[derive(Clone, Copy)]
enum Pace {
    /// Over one connection, each as soon as the previous one completed;
    /// the run ends at the first operation past its time whose index is
    /// a multiple of `round`.
    Closed { round: usize },
    /// Operation `k` falls due `(k - first) × interval` after the start
    /// and is sent over connection `k mod clients.len()`.
    Open { interval: Duration },
}

/// Runs operations `first, first + 1, …` for `seconds` at `pace`, spans
/// recorded before (during set-up) dropped. `op(k, client, due)` times
/// itself, from `due` when there is one.
fn drive<R: Send>(
    seconds: u64,
    pace: Pace,
    first: usize,
    clients: &mut [NetClient],
    tracer: &Tracer,
    out: &mut Outcome,
    op: impl Fn(usize, &mut NetClient, Option<Instant>) -> OpResult<R> + Sync,
) -> Vec<R> {
    tracer.clear();
    let budget = Duration::from_secs(seconds);
    let connections = clients.len();
    let started = Instant::now();
    let lanes: Vec<Lane<R>> = std::thread::scope(|scope| {
        let op = &op;
        let lanes: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut lane = Lane {
                        attempted: 0,
                        failed: 0,
                        users: 0,
                        lag: Duration::ZERO,
                        latencies: Vec::new(),
                        kept: Vec::new(),
                    };
                    let mut k = first + c;
                    loop {
                        let due = match pace {
                            Pace::Open { interval } => {
                                let offset = interval.mul_f64((k - first) as f64);
                                if offset >= budget {
                                    break;
                                }
                                let due = started + offset;
                                std::thread::sleep(
                                    due.saturating_duration_since(Instant::now()),
                                );
                                lane.lag += due.elapsed();
                                Some(due)
                            }
                            Pace::Closed { round } => {
                                if k.is_multiple_of(round)
                                    && started.elapsed() >= budget
                                {
                                    break;
                                }
                                None
                            }
                        };
                        lane.attempted += 1;
                        match op(k, client, due) {
                            Some((took, users, value)) => {
                                lane.latencies.push(took);
                                lane.users += users;
                                lane.kept.push(value);
                            }
                            None => lane.failed += 1,
                        }
                        k += connections;
                    }
                    lane
                })
            })
            .collect();
        lanes.into_iter().filter_map(|lane| lane.join().ok()).collect()
    });
    out.elapsed = started.elapsed();
    if lanes.len() != connections {
        eprintln!("perfbench: a client thread panicked");
        out.correct = false;
    }
    let mut kept = Vec::new();
    let mut lag = Duration::ZERO;
    for lane in lanes {
        out.attempted += lane.attempted;
        out.failed += lane.failed;
        out.users += lane.users;
        out.latencies.extend(lane.latencies);
        kept.extend(lane.kept);
        lag += lane.lag;
    }
    let ops = out.latencies.len();
    out.send_lag_ms = lag.as_secs_f64() * 1e3 / out.attempted.max(1) as f64;
    out.layers = tracer.layers(ops);
    kept
}

/// Wire-encodes and decodes an operation's frames apart from the
/// request, as the codec layer's share of it (traced runs only).
fn trace_codec(
    tracer: &Tracer,
    request: ServeRequest,
    response: &WireResponse,
    schema: &FeatureSchema,
) {
    let serve = Message::Serve { id: 1, request };
    let served = Message::Served { id: 1, response: response.clone() };
    let _span = tracer.leaf(Layer::Codec, None);
    let req = wire::encode_message(&serve);
    let resp = wire::encode_message(&served);
    let decoded = wire::decode_message(&req, Some(schema)).is_ok()
        && wire::decode_message(&resp, Some(schema)).is_ok();
    std::hint::black_box(decoded);
}

/// Sends `request` as one traced round trip.
fn round_trip(
    client: &mut NetClient,
    tracer: &Tracer,
    request: ServeRequest,
) -> Option<WireResponse> {
    let _span = tracer.enter(Layer::Request, &request.user_ids());
    client.serve(request).map_err(|e| eprintln!("perfbench: request failed: {e}")).ok()
}

/// `applicant` (`batch == 1`, closed loop) and `traffic` (open loop):
/// fresh applicants, `batch` per request, all served cold.
fn first_visits(
    seed: u64,
    seconds: u64,
    tracer: &Arc<Tracer>,
    batch: usize,
    pace: Pace,
) -> Result<Outcome, String> {
    let spec = scenario();
    let generation_users = spec.total_cohort_size();
    let connections = match pace {
        Pace::Closed { .. } => 1,
        Pace::Open { .. } => TRAFFIC_CONNECTIONS,
    };
    // More distinct applicants than any run serves; past the end the
    // profiles come round again under new ids.
    let pool = applicants(seed, 4096);
    let take = |from: usize| -> Vec<CohortMember> {
        (from..from + batch)
            .map(|i| {
                let member = &pool[i % pool.len()];
                match i / pool.len() {
                    0 => member.clone(),
                    pass => CohortMember::new(
                        format!("{}-p{pass}", member.user_id),
                        member.request.clone(),
                    ),
                }
            })
            .collect()
    };
    let request_for = |members: &[CohortMember]| match members {
        [one] => ServeRequest::new_user(one.user_id.clone(), one.request.clone()),
        _ => ServeRequest::batch(members.to_vec()),
    };
    let ((mut clients, tier, system), setup_s) = timed_setup(|| {
        let system = Arc::new(train(&spec, 0)?);
        let tier = Tier::up(sharded(&system, tracer, memory_store)?, tracer)?;
        let mut clients = tier.connect(connections)?;
        let time_points = system.models().len();
        for k in 0..WARMUP_OPS {
            let members = take(k * batch);
            let response = clients[0]
                .serve(request_for(&members))
                .map_err(|e| format!("warm-up request failed: {e}"))?;
            if !first_visit_ok(&response, &members, time_points) {
                return Err("warm-up response has the wrong shape".into());
            }
        }
        Ok((clients, tier, system))
    })?;
    let schema = system.schema().clone();
    let time_points = system.models().len();
    // Cells of retired generations, counted when they are replaced: in
    // `traffic` a request still in flight on one may add a few after.
    let retired_cells = AtomicUsize::new(0);
    let op = |k: usize, client: &mut NetClient, due: Option<Instant>| {
        let from = k * batch;
        if k > 0 && from / generation_users > (from - batch) / generation_users {
            let fresh = sharded(&system, tracer, memory_store).ok()?;
            let old = tier.backend.install(Arc::new(fresh));
            retired_cells.fetch_add(cache_cells(&old), Ordering::Relaxed);
        }
        let members = take(from);
        let request = request_for(&members);
        let traced = tracer.enabled().then(|| request.clone());
        let sent = Instant::now();
        let response = round_trip(client, tracer, request)?;
        let took = due.unwrap_or(sent).elapsed();
        if let Some(request) = traced {
            trace_codec(tracer, request, &response, &schema);
        }
        if !first_visit_ok(&response, &members, time_points) {
            eprintln!("perfbench: first-visit response has the wrong shape");
            return None;
        }
        Some((
            took,
            batch as u64,
            k.is_multiple_of(KEEP_EVERY).then_some((members, response)),
        ))
    };
    let mut out = Outcome::new(setup_s);
    let kept: Vec<_> =
        drive(seconds, pace, WARMUP_OPS, &mut clients, tracer, &mut out, op)
            .into_iter()
            .flatten()
            .collect();
    let served = WARMUP_OPS * batch + out.users as usize;
    let cells = retired_cells.into_inner() + cache_cells(&tier.backend.current());
    out.cache_cells_per_user = cells as f64 / served as f64;

    // Served bytes must equal in-process serving of the same request by
    // a fresh single-shard service (the tier's determinism contract).
    let reference = JitService::with_shared(
        Arc::clone(&system),
        Arc::new(MemorySnapshotStore::new()),
    );
    let stride = kept.len().div_ceil(MAX_VERIFIED).max(1);
    for (members, served) in kept.iter().step_by(stride) {
        let expected = reference
            .serve(ServeRequest::batch(members.clone()))
            .map(|r| WireResponse::from_response(&r))
            .map_err(|e| format!("reference serve failed: {e}"))?;
        if wire::response_bytes(&expected) != wire::response_bytes(served) {
            eprintln!("perfbench: served bytes differ from in-process serving");
            out.correct = false;
        }
    }
    drop(clients);
    tier.server.shutdown();
    Ok(out)
}

/// Every requested user came back, in order, computed cold at every
/// time point.
fn first_visit_ok(
    response: &WireResponse,
    members: &[CohortMember],
    time_points: usize,
) -> bool {
    response.users.len() == members.len()
        && response.users.iter().zip(members).all(|(u, m)| {
            u.user_id == m.user_id
                && u.provenance.is_none()
                && u.snapshot.horizon() + 1 == time_points
        })
        && response.report
            == WireReport {
                users: members.len(),
                replayed_time_points: 0,
                recomputed_time_points: 0,
                cold_time_points: members.len() * time_points,
            }
}

/// Hands the tier over to `systems[to]`, carrying the stores and cell
/// caches of the generation serving now (`systems[1 - to]`), and runs
/// the refresh-ahead pass, which re-serves the stored `users`.
fn handover(
    backend: &Generations,
    tracer: &Tracer,
    systems: &[Arc<JustInTime>; 2],
    to: usize,
    users: &[&str],
) -> Result<(), String> {
    let _span = tracer.enter(Layer::Background, users);
    let next = Arc::new(ShardedService::next_generation(
        Arc::clone(&systems[to]),
        0,
        &backend.current(),
    ));
    backend.install(Arc::clone(&next));
    next.refresh_ahead(&systems[1 - to], &RefreshAheadOptions::default())
        .map(|_| ())
        .map_err(|e| format!("refresh-ahead failed: {e}"))
}

/// `retrain`: rounds of one handover and then every returning user, in
/// requests of `batch`. Round `r` serves generation `(r + 1) % 2`; set-up
/// runs the first handover and the start of round 0. The run measures
/// whole rounds after that, so that every run weighs handovers and
/// requests alike.
fn retrain(
    seed: u64,
    seconds: u64,
    tracer: &Arc<Tracer>,
    batch: usize,
) -> Result<Outcome, String> {
    let spec = scenario();
    let population = applicants(seed, spec.total_cohort_size());
    let ids: Vec<&str> = population.iter().map(|m| m.user_id.as_str()).collect();
    let batches: Vec<Vec<String>> = ids
        .chunks(batch)
        .map(|c| c.iter().map(|id| (*id).to_owned()).collect())
        .collect();
    let ((mut clients, tier, systems), setup_s) = timed_setup(|| {
        let a = Arc::new(train(&spec, 0)?);
        let pinned: Vec<bool> =
            (0..a.models().len()).map(|t| t < spec.drift.pinned_time_points).collect();
        let b = a
            .retrain_pinned(&SyntheticGenerator::new(&spec, 0).history(1), &pinned)
            .map_err(|e| format!("retrain failed: {e}"))?;
        let schema = a.schema().clone();
        let service = sharded(&a, tracer, || {
            DbSnapshotStore::in_new_database(&schema)
                .map(|s| Arc::new(s) as Arc<dyn SnapshotStore>)
                .map_err(|e| format!("snapshot store: {e}"))
        })?;
        let tier = Tier::up(service, tracer)?;
        let mut clients = tier.connect(1)?;
        // The population's first visit, so every store holds snapshots.
        let first = clients[0]
            .serve(ServeRequest::batch(population.clone()))
            .map_err(|e| format!("first visit failed: {e}"))?;
        let time_points = a.models().len();
        if !first_visit_ok(&first, &population, time_points) {
            return Err("first visit served the wrong users".into());
        }
        let systems = [a, Arc::new(b)];
        handover(&tier.backend, tracer, &systems, 1, &ids)?;
        for batch in &batches[..WARMUP_OPS] {
            let response = clients[0]
                .serve(ServeRequest::refresh(batch.clone()))
                .map_err(|e| format!("warm-up refresh failed: {e}"))?;
            if !replayed_ok(&response, batch, time_points) {
                return Err("a returning user did not replay every time point".into());
            }
        }
        Ok((clients, tier, systems))
    })?;
    let time_points = systems[0].models().len();
    let schema = systems[0].schema().clone();
    let op = |k: usize, client: &mut NetClient, _: Option<Instant>| {
        let generation = (k / batches.len() + 1) % 2;
        if k.is_multiple_of(batches.len()) {
            handover(&tier.backend, tracer, &systems, generation, &ids)
                .map_err(|e| eprintln!("perfbench: {e}"))
                .ok()?;
        }
        let batch = &batches[k % batches.len()];
        let request = ServeRequest::refresh(batch.clone());
        let traced = tracer.enabled().then(|| request.clone());
        let sent = Instant::now();
        let response = round_trip(client, tracer, request)?;
        let took = sent.elapsed();
        if let Some(request) = traced {
            trace_codec(tracer, request, &response, &schema);
        }
        if !replayed_ok(&response, batch, time_points) {
            eprintln!("perfbench: a returning user did not replay every time point");
            return None;
        }
        let kept = k.is_multiple_of(KEEP_EVERY).then_some((generation, response));
        Some((took, batch.len() as u64, kept))
    };
    let mut out = Outcome::new(setup_s);
    let pace = Pace::Closed { round: batches.len() };
    let kept: Vec<_> =
        drive(seconds, pace, WARMUP_OPS, &mut clients, tracer, &mut out, op)
            .into_iter()
            .flatten()
            .collect();
    out.cache_cells_per_user =
        cache_cells(&tier.backend.current()) as f64 / population.len() as f64;

    // Replayed sessions must equal a cold serve of the same applicants
    // under the generation that replayed them.
    for (generation, system) in systems.iter().enumerate() {
        let replayed: Vec<&WireServedUser> = kept
            .iter()
            .filter(|(g, _)| *g == generation)
            .flat_map(|(_, response)| &response.users)
            .collect();
        let members: Vec<CohortMember> = population
            .iter()
            .filter(|m| replayed.iter().any(|u| u.user_id == m.user_id))
            .cloned()
            .collect();
        if members.is_empty() {
            continue;
        }
        let reference = JitService::with_shared(
            Arc::clone(system),
            Arc::new(MemorySnapshotStore::new()),
        );
        let cold = reference
            .serve(ServeRequest::batch(members))
            .map(|r| WireResponse::from_response(&r))
            .map_err(|e| format!("reference serve failed: {e}"))?;
        for user in replayed {
            let expected = cold.users.iter().find(|u| u.user_id == user.user_id);
            if expected.map(snapshot_bytes) != Some(snapshot_bytes(user)) {
                eprintln!("perfbench: replayed session differs from a cold serve");
                out.correct = false;
            }
        }
    }
    drop(clients);
    tier.server.shutdown();
    Ok(out)
}

/// Every returning user came back, in order, replaying every time point.
fn replayed_ok(response: &WireResponse, ids: &[String], time_points: usize) -> bool {
    response.users.iter().map(|u| &u.user_id).eq(ids)
        && response.report
            == WireReport {
                users: ids.len(),
                replayed_time_points: ids.len() * time_points,
                recomputed_time_points: 0,
                cold_time_points: 0,
            }
}

/// Wire bytes of one user's session alone (provenance and totals dropped).
fn snapshot_bytes(user: &WireServedUser) -> Vec<u8> {
    wire::response_bytes(&WireResponse {
        users: vec![WireServedUser { provenance: None, ..user.clone() }],
        report: WireReport::default(),
    })
}

impl Outcome {
    fn new(setup_s: f64) -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            setup_s,
            latencies: Vec::new(),
            users: 0,
            elapsed: Duration::ZERO,
            layers: LayerTimes::default(),
            cache_cells_per_user: 0.0,
            send_lag_ms: 0.0,
        }
    }
}
