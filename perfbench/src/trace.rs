//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Requests can be in flight together (`traffic` keeps several open on
//! several connections), so spans are tied to requests, not to a global
//! current span. Every request's user ids are unique to it, and they are
//! its identifier: a span entered for a set of users becomes, for each
//! of them, the innermost open span, and a span opened for one of those
//! users — on any thread — becomes its child. So a request's client span
//! parents the backend's serve span on a server worker, which parents
//! the store calls its shard workers make for the request's users; the
//! spans of one request form one tree. Store calls that name no user
//! (the refresh-ahead scan) belong to the open background span.
//!
//! With tracing off every method is a no-op. Spans stay in memory and
//! are folded into per-layer figures once the run ends ([`Tracer::layers`]).

use jit_core::SessionSnapshot;
use jit_data::FeatureSchema;
use jit_service::net::ServeBackend;
use jit_service::wire::WireResponse;
use jit_service::{
    ServeError, ServeRequest, ShardedService, SnapshotStore, StoreError,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// The layer a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `NetClient::serve` round trip.
    Request,
    /// The backend's `serve_wire` on a server worker.
    Serve,
    /// Serving work the benchmark drives in-process: the generation
    /// handover and its refresh-ahead pass.
    Background,
    /// One snapshot-store call.
    Store,
    /// Wire encode + decode of an operation's frames, timed apart.
    Codec,
}

struct Span {
    layer: Layer,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// The innermost open span serving each user.
    owner: HashMap<String, usize>,
    /// The open background span.
    background: Option<usize>,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    state: Mutex<State>,
}

/// Closes its span when dropped, handing its users back to the parent.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
    users: Vec<String>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let mut state = self.tracer.lock();
        // A span cleared away while open has nothing left to close.
        let Some(span) = state.spans.get_mut(index) else { return };
        span.end = Some(Instant::now());
        let parent = span.parent;
        for user in self.users.drain(..) {
            match parent {
                Some(parent) => state.owner.insert(user, parent),
                None => state.owner.remove(&user),
            };
        }
        if state.background == Some(index) {
            state.background = None;
        }
    }
}

/// Per-operation means of each layer, from a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// Request start → backend serve start: client encode, socket write,
    /// server frame read and decode, admission-queue wait (ms per op).
    pub ingress_ms: f64,
    /// Backend serve end → client holds the decoded reply (ms per op).
    pub egress_ms: f64,
    /// Wire encode + decode of the op's frames, timed apart (ms per op).
    pub codec_ms: f64,
    /// Serve and background self time: routing, search, insight-database
    /// build, snapshotting (ms per op).
    pub serve_ms: f64,
    /// Wall time covered by snapshot-store calls (ms per op).
    pub store_ms: f64,
    /// Snapshot-store calls per op.
    pub store_calls: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, state: Mutex::new(State::default()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span serving `users`, under the innermost open span of
    /// the first of them, and makes it theirs until it closes.
    pub fn enter(&self, layer: Layer, users: &[&str]) -> Guard<'_> {
        if !self.enabled {
            return Guard { tracer: self, index: None, users: Vec::new() };
        }
        let mut state = self.lock();
        let index = state.spans.len();
        let parent = users.first().and_then(|u| state.owner.get(*u).copied());
        state.spans.push(Span { layer, parent, start: Instant::now(), end: None });
        for user in users {
            state.owner.insert((*user).to_owned(), index);
        }
        if layer == Layer::Background {
            state.background = Some(index);
        }
        let users = users.iter().map(|u| (*u).to_owned()).collect();
        Guard { tracer: self, index: Some(index), users }
    }

    /// Opens a leaf span under the innermost open span of `user`, or
    /// under the open background span when no user is named.
    pub fn leaf(&self, layer: Layer, user: Option<&str>) -> Guard<'_> {
        if !self.enabled {
            return Guard { tracer: self, index: None, users: Vec::new() };
        }
        let mut state = self.lock();
        let index = state.spans.len();
        let parent = match user {
            Some(user) => state.owner.get(user).copied(),
            None => state.background,
        };
        state.spans.push(Span { layer, parent, start: Instant::now(), end: None });
        Guard { tracer: self, index: Some(index), users: Vec::new() }
    }

    /// Drops every span recorded so far (warm-up traffic).
    pub fn clear(&self) {
        let mut state = self.lock();
        *state = State::default();
    }

    /// Folds the recorded spans into means over `ops` operations.
    pub fn layers(&self, ops: usize) -> LayerTimes {
        let state = self.lock();
        let spans = &state.spans;
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let closed = |i: usize| spans[i].end.map(|end| (spans[i].start, end));
        let (mut ingress, mut egress, mut codec, mut serve, mut store) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        let mut store_calls = 0usize;
        for (i, span) in spans.iter().enumerate() {
            let Some((start, end)) = closed(i) else { continue };
            match span.layer {
                Layer::Request => {
                    for &c in &children[i] {
                        if let (Layer::Serve, Some((s, e))) =
                            (spans[c].layer, closed(c))
                        {
                            ingress += s.saturating_duration_since(start);
                            egress += end.saturating_duration_since(e);
                        }
                    }
                }
                Layer::Serve | Layer::Background => {
                    let stores: Vec<(Instant, Instant)> = children[i]
                        .iter()
                        .filter(|&&c| spans[c].layer == Layer::Store)
                        .filter_map(|&c| closed(c))
                        .collect();
                    let covered = covered(start, end, stores);
                    store += covered;
                    serve += (end - start).saturating_sub(covered);
                }
                Layer::Store => store_calls += 1,
                Layer::Codec => codec += end - start,
            }
        }
        let ops = ops.max(1) as f64;
        let per_op = |d: Duration| d.as_secs_f64() * 1e3 / ops;
        LayerTimes {
            ingress_ms: per_op(ingress),
            egress_ms: per_op(egress),
            codec_ms: per_op(codec),
            serve_ms: per_op(serve),
            store_ms: per_op(store),
            store_calls: store_calls as f64 / ops,
        }
    }
}

/// The part of `[start, end]` covered by the union of `intervals`.
fn covered(
    start: Instant,
    end: Instant,
    mut intervals: Vec<(Instant, Instant)>,
) -> Duration {
    intervals.sort_by_key(|&(s, _)| s);
    let mut total = Duration::ZERO;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A snapshot store that spans every call into the store it wraps.
pub struct TracedStore {
    inner: Arc<dyn SnapshotStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    pub fn wrap(
        inner: Arc<dyn SnapshotStore>,
        tracer: &Arc<Tracer>,
    ) -> Arc<dyn SnapshotStore> {
        Arc::new(TracedStore { inner, tracer: Arc::clone(tracer) })
    }
}

impl SnapshotStore for TracedStore {
    fn save(
        &self,
        user_id: &str,
        snapshot: &SessionSnapshot,
    ) -> Result<(), StoreError> {
        let _span = self.tracer.leaf(Layer::Store, Some(user_id));
        self.inner.save(user_id, snapshot)
    }

    fn load(&self, user_id: &str) -> Result<Option<SessionSnapshot>, StoreError> {
        let _span = self.tracer.leaf(Layer::Store, Some(user_id));
        self.inner.load(user_id)
    }

    fn remove(&self, user_id: &str) -> Result<bool, StoreError> {
        let _span = self.tracer.leaf(Layer::Store, Some(user_id));
        self.inner.remove(user_id)
    }

    fn user_ids(&self) -> Result<Vec<String>, StoreError> {
        let _span = self.tracer.leaf(Layer::Store, None);
        self.inner.user_ids()
    }
}

/// The backend the TCP server fronts: the current generation of the
/// sharded tier, replaceable between requests, with a serve span around
/// every request.
pub struct Generations {
    schema: FeatureSchema,
    current: RwLock<Arc<ShardedService>>,
    tracer: Arc<Tracer>,
}

impl Generations {
    pub fn new(service: Arc<ShardedService>, tracer: &Arc<Tracer>) -> Self {
        Generations {
            schema: service.system().schema().clone(),
            current: RwLock::new(service),
            tracer: Arc::clone(tracer),
        }
    }

    pub fn current(&self) -> Arc<ShardedService> {
        Arc::clone(
            &self.current.read().unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Makes `next` the serving generation; returns the one it replaced.
    pub fn install(&self, next: Arc<ShardedService>) -> Arc<ShardedService> {
        let mut current =
            self.current.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::replace(&mut *current, next)
    }
}

impl ServeBackend for Generations {
    fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    fn serve_wire(&self, request: ServeRequest) -> Result<WireResponse, ServeError> {
        let service = self.current();
        let _span = self.tracer.enter(Layer::Serve, &request.user_ids());
        service.serve_wire(request)
    }
}
