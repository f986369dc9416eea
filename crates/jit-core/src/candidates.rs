//! The candidates generator (paper §II-A).
//!
//! Adapted from Deutch & Frost, *Constraints-based explanations of
//! classifications* (ICDE'19): an iterative algorithm with
//! model-dependent move heuristics, extended exactly as the JustInTime
//! paper describes:
//!
//! * "incorporating diverse objectives (confidence, gap and diff) when
//!   searching for the candidates, as opposed to a single distance
//!   measure", and
//! * "we output top-k candidates in each iteration, as opposed to just
//!   one, using a beam search with width k to prune the least promising
//!   candidates".
//!
//! Move proposers per model family (via [`ModelHints`]):
//!
//! * **Tree ensembles** — nudge one feature just across a split
//!   threshold: between thresholds the ensemble is piecewise-constant, so
//!   these are the only moves that can change the score.
//! * **Linear models** — step along the score gradient, scaled per
//!   feature.
//! * **Opaque models** — coordinate perturbations at data-driven steps
//!   (fractions of each feature's standard deviation).
//!
//! Every proposal is sanitized into the schema's domain, checked against
//! the conjoined constraints function `C_t` (Definition II.2) and scored
//! by the model. Profiles whose score exceeds `δ_t` are *decision
//! altering candidates* (Definition II.3); the final top-k is selected
//! with a maximal-marginal-relevance rule so the k candidates stay
//! diverse (§II-B: "The diversity ensures that limiting the number of
//! candidates does not lead to a degradation in the quality of the
//! answers").
//!
//! ## The timeline-aware engine
//!
//! A user session runs this search once per time point `t = 0..=T`, and
//! adjacent time points share most of their structure: the same schema,
//! the same scales, heavily overlapping threshold sets — and, for some
//! predictors (frozen models, unchanged slices of a drifted retrain),
//! literally the same model. [`TimelineSearch`] is the stateful engine
//! that exploits this: it owns the search's warm state — scratch rows,
//! dedup key sets, and a **threshold-cell confidence cache** — and
//! carries it across `run` calls instead of rebuilding it per `t`.
//!
//! The confidence cache is the load-bearing piece. A
//! [`ModelHints::Thresholds`] model is piecewise constant between split
//! thresholds in *every* coordinate, so its prediction is a pure
//! function of the profile's **cell vector** (per feature, the count of
//! thresholds strictly below the value): two profiles with equal cell
//! vectors provably traverse every tree identically. The engine
//! memoizes confidence per cell vector — across beam states, refine
//! bisections and passes within one time point, and across time points
//! whenever the caller proves the model unchanged (by content
//! fingerprint; see [`jit_ml::Model::fingerprint`]). Cells whose model
//! changed are dropped and re-verified by recomputation, so warm
//! output is **bit-identical** to a cold search at every time point.
//!
//! A memo miss is scored straight from the cell vector the engine
//! already holds, when the hints carry the model compiled against their
//! thresholds ([`jit_ml::CompiledForest`]): a split `x[f] <= τ` with `τ`
//! at rank `r` of feature `f`'s sorted list is exactly `cell[f] <= r`
//! for every non-NaN value, and the compiled forest sums its leaves in
//! the order and with the division `predict_proba` uses, so the score
//! keeps its bits. The search only scores finite profiles (a non-finite
//! origin ends it before any model call, and every move is finite).
//! Hints without a compiled form fall back to `predict_proba`.
//!
//! ## Cross-user sharing ([`SharedCellCache`])
//!
//! The same argument extends across *users*: a cached confidence is a
//! pure function of `(model, cell vector)` and carries no trace of the
//! user it was computed for, so a whole batch — or a whole shard — can
//! share one memo per model fingerprint. [`SharedCellCache`] holds one
//! slot per fingerprint; an engine built with
//! [`TimelineSearch::with_shared`] binds the slot matching its current
//! `model_key`, probes it on private-memo misses (with the same exact
//! cell-vector verification — a hash collision can never smuggle in a
//! wrong confidence), and publishes its newly computed cells back when a
//! run finishes. The sharing contract:
//!
//! * **What fingerprint equality proves.** Equal
//!   [`jit_ml::Model::fingerprint`]s mean bit-identical models, so every
//!   shared cell is exactly what the probing engine would compute
//!   itself. Reuse changes *when* a confidence is computed, never its
//!   bits: output is bit-identical for any thread count, shard count,
//!   batch policy, or interleaving of users. Unfingerprintable models
//!   (`model_key = None`) never touch the shared cache.
//! * **Who clears what, when.** An engine clears its *private* memo
//!   whenever its model key changes (as before). The shared cache is
//!   append-only during serving; the *owner* (in production, the
//!   serving tier — one cache per shard) drops slots by calling
//!   [`SharedCellCache::retain_models`] with the fingerprints of the
//!   current model generation, precisely when a retrain changes them.
//!   Dropping a live slot is always sound — engines fall back to
//!   recomputation — it only forfeits reuse.

use jit_constraints::{BoundConstraint, EvalContext};
use jit_data::{FeatureSchema, Mutability};
use jit_math::digest::{splitmix64, Digest};
use jit_math::distance::{l0_gap, l2_diff};
use jit_math::rng::Rng;
use jit_ml::{CompiledForest, Model, ModelHints};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// What the search minimizes among decision-altering candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the l2 modification cost (`diff`), the paper's default.
    MinDiff,
    /// Minimize the number of modified features (`gap`), tie-break on diff.
    MinGap,
    /// Maximize the model score (`confidence`).
    MaxConfidence,
}

/// Search hyperparameters.
#[derive(Clone, Debug)]
pub struct CandidateParams {
    /// Beam width *k* of the search.
    pub beam_width: usize,
    /// Maximum number of beam iterations.
    pub max_iters: usize,
    /// Number of candidates returned per time point.
    pub top_k: usize,
    /// Diversity strength of the final top-k selection (0 = pure score).
    pub diversity_lambda: f64,
    /// The optimization objective.
    pub objective: Objective,
    /// Cap on proposals expanded per beam state per iteration.
    pub max_moves_per_state: usize,
    /// Stop early once this many decision-altering candidates are found
    /// (0 = run all iterations).
    pub early_stop_after: usize,
    /// After selection, bisect each modified coordinate back toward the
    /// origin to the smallest change that still alters the decision
    /// (the distance-minimization step of the underlying Deutch–Frost
    /// algorithm).
    pub refine: bool,
    /// Seed for tie-breaking and opaque-model perturbations.
    pub seed: u64,
}

impl Default for CandidateParams {
    fn default() -> Self {
        CandidateParams {
            beam_width: 8,
            max_iters: 6,
            top_k: 8,
            diversity_lambda: 0.3,
            objective: Objective::MinDiff,
            max_moves_per_state: 48,
            early_stop_after: 64,
            refine: true,
            seed: 0xbea7,
        }
    }
}

impl CandidateParams {
    /// Content digest over every knob that steers the search. Part of
    /// the per-time-point serving fingerprint: two searches over equal
    /// fingerprints produce bit-identical candidates, so any parameter
    /// change must change this digest.
    pub fn content_digest(&self) -> Digest {
        let mut w = jit_math::DigestWriter::new("jit-core/candidate-params");
        w.write_usize(self.beam_width);
        w.write_usize(self.max_iters);
        w.write_usize(self.top_k);
        w.write_f64(self.diversity_lambda);
        w.write_u64(match self.objective {
            Objective::MinDiff => 0,
            Objective::MinGap => 1,
            Objective::MaxConfidence => 2,
        });
        w.write_usize(self.max_moves_per_state);
        w.write_usize(self.early_stop_after);
        w.write_bool(self.refine);
        w.write_u64(self.seed);
        w.finish()
    }
}

/// A decision-altering candidate (Definition II.3) for one time point.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Time index `t` the candidate applies to.
    pub time_index: usize,
    /// The modified profile `x'`.
    pub profile: Vec<f64>,
    /// `‖x' − x_t‖₂` against the temporal input.
    pub diff: f64,
    /// Number of modified features.
    pub gap: usize,
    /// Model score `M_t(x')`.
    pub confidence: f64,
}

/// The per-time-point candidates generator.
pub struct CandidatesGenerator<'a> {
    /// The future model `M_t`.
    pub model: &'a dyn Model,
    /// Its threshold `δ_t`.
    pub delta: f64,
    /// The temporal input `x_t` modifications are measured against.
    pub origin: &'a [f64],
    /// Conjoined admin ∧ user constraints at time `t`.
    pub constraint: &'a BoundConstraint,
    /// Feature schema (bounds, kinds, mutability).
    pub schema: &'a FeatureSchema,
    /// Per-feature scale (standard deviations from training data) used to
    /// size opaque/linear moves.
    pub scales: &'a [f64],
    /// Time index (stamped onto produced candidates).
    pub time_index: usize,
}

/// Internal search state.
#[derive(Clone)]
struct State {
    profile: Vec<f64>,
    confidence: f64,
    diff: f64,
    gap: usize,
}

/// Memo for refine trials within one `(state, feature)` bisection: the
/// exact-bits fast path in front of the engine-wide cell cache (a hit
/// here also skips the cell computation and the constraint re-check).
#[derive(Default)]
struct TrialCache {
    /// The most recent trial, keyed by the sanitized coordinate's exact
    /// bits, and its outcome.
    last: Option<(u64, Option<f64>)>,
    /// The most recent *accepted* trial (the value `hi` lands on, which
    /// the post-bisection acceptance re-visits).
    last_accepted: Option<(u64, f64)>,
}

impl TrialCache {
    fn reset(&mut self) {
        self.last = None;
        self.last_accepted = None;
    }
}

/// Engine-wide confidence memo over threshold *cell vectors*.
///
/// A [`ModelHints::Thresholds`] model is piecewise constant between
/// consecutive split thresholds — the exact property the move proposer
/// exploits ("between thresholds a tree ensemble's output is piecewise
/// constant"). Per feature, the cell index is the count of thresholds
/// strictly below the value, matching the `x <= threshold` split
/// convention: two profiles with equal cell vectors take the same branch
/// at every split of every tree, hence score identically. The cache
/// therefore memoizes `predict_proba` per cell vector, with an exact
/// cell-vector comparison on every hash hit so a collision can never
/// smuggle in a wrong confidence — reuse is provable, and cached search
/// output stays bit-identical to a cache-free search.
///
/// A miss is evaluated from the cell vector itself when the hints carry
/// a compiled forest (see the module docs for why that is exact), and
/// through `predict_proba` on the profile otherwise.
///
/// The beam search converges onto decision boundaries and re-probes the
/// cells around them from many states, features and bisection passes;
/// one shared memo across the whole time point (and, when the model is
/// unchanged, across adjacent time points) removes the bulk of the
/// remaining model evaluations.
///
/// Cell vectors hash by a **position-salted commutative sum** (one
/// avalanched term per `(feature, cell)` pair): full profiles fold all
/// terms, while a refine bisection — whose trials differ from their
/// seeded base in exactly one slot — updates the hash in O(1) by
/// subtracting the old term and adding the new one. That keeps the
/// per-trial probe down at the cost the old single-feature memo paid,
/// with cross-state sharing on top.
#[derive(Default)]
struct CellConfidenceCache {
    map: CellMap,
    /// Scratch for the cell vector being probed (full profile or trial).
    cells: Vec<u32>,
    /// Cell vector of the current bisection's seeded base profile.
    base_cells: Vec<u32>,
    /// Commutative hash of `base_cells`.
    base_hash: u64,
    /// The shared slot for the current model key, probed on private
    /// misses (see [`SharedCellCache`]). `None` runs fully private.
    shared: Option<Arc<Mutex<CellMap>>>,
    /// Hash and private-memo entry of each cell computed (not
    /// shared-hit) since the last publish, staged so a run takes the
    /// shared lock once instead of per miss.
    pending: Vec<(u64, u32)>,
    /// The current hints' compiled forest, which scores a miss from
    /// `cells`; `None` scores it through the model.
    forest: Option<Arc<CompiledForest>>,
}

/// A cross-user confidence memo shared by many [`TimelineSearch`]
/// engines — one slot of threshold-cell entries per model fingerprint.
///
/// Cached confidences are pure functions of `(model, cell vector)`, so
/// sharing them across users (or threads, or an entire shard's batch
/// stream) is provably output-preserving: every probe re-verifies the
/// exact cell vector, and a slot is only ever consulted by engines whose
/// current `model_key` equals the slot's fingerprint. See the module
/// docs for the full sharing/invalidation contract.
///
/// Engines stage newly computed cells locally and publish them when a
/// run finishes ([`TimelineSearch::run`]), so the per-slot lock is taken
/// once per probe-miss burst, not per model evaluation. Concurrent
/// engines may race to compute the same cell; both compute identical
/// bits and the duplicate publish is dropped.
///
/// Each slot stores its cells packed (see `CellMap`): one index entry
/// per distinct cell hash, and the cell vectors, confidences and
/// collision chains back to back in flat arrays, so a cell costs its
/// payload and a link rather than allocations of its own. A hit still
/// walks the hash's chain and compares the whole cell vector, exactly
/// as the private memo does.
#[derive(Default)]
pub struct SharedCellCache {
    slots: Mutex<HashMap<Digest, Arc<Mutex<CellMap>>>>,
}

/// Acquires a cache mutex, entering it even when a panicking thread
/// poisoned it: every stored value is a finished, verified cell vector,
/// and `CellMap::insert` reserves before it writes, so an entry lands
/// whole under the lock or not at all and the map is consistent no
/// matter where a writer died. Lock order is strictly outer slot-map
/// before inner cell-map, never the reverse.
fn lock_cache<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SharedCellCache {
    /// An empty cache.
    pub fn new() -> Self {
        SharedCellCache::default()
    }

    /// The slot for model fingerprint `key`, created empty on first use.
    fn slot(&self, key: Digest) -> Arc<Mutex<CellMap>> {
        Arc::clone(lock_cache(&self.slots).entry(key).or_default())
    }

    /// Drops every slot whose model fingerprint is not in `keys` — the
    /// invalidation half of the contract: call with the fingerprints of
    /// the current model generation whenever they change (retrain), and
    /// slots for surviving models carry over while stale ones die.
    pub fn retain_models(&self, keys: &[Option<Digest>]) {
        lock_cache(&self.slots)
            .retain(|slot, _| keys.iter().any(|key| key.as_ref() == Some(slot)));
    }

    /// Number of model fingerprints with a live slot.
    pub fn model_count(&self) -> usize {
        lock_cache(&self.slots).len()
    }

    /// Total number of memoized cell vectors across all slots. An
    /// observability number only: it depends on thread scheduling and
    /// must never feed deterministic reports.
    pub fn cell_count(&self) -> usize {
        lock_cache(&self.slots).values().map(|slot| lock_cache(slot).len()).sum()
    }
}

impl std::fmt::Debug for SharedCellCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCellCache")
            .field("models", &self.model_count())
            .finish_non_exhaustive()
    }
}

/// Packed cell-vector memo: `cell hash → confidence`, with every hit
/// verified against the exact cell vector.
///
/// Entries live back to back in flat arrays — entry `e`'s cell vector
/// is `cells[e * dim..(e + 1) * dim]`, its confidence `conf[e]` — and
/// `index` maps each hash to the newest entry carrying it, with `next`
/// chaining older entries under the same hash. A cell thus costs its
/// payload plus one `u32` link and, for a new hash, one index slot,
/// with no allocation of its own. A probe walks its hash's chain and
/// compares the whole vector slot for slot, so a collision can never
/// smuggle in a wrong confidence, and a vector whose length differs
/// from the stored ones never matches.
#[derive(Default)]
struct CellMap {
    /// Cell hash → newest entry with that hash.
    index: HashMap<u64, u32, std::hash::BuildHasherDefault<KeyHasher>>,
    /// Entries' cell vectors, `dim` slots each.
    cells: Vec<u32>,
    /// Entries' confidences.
    conf: Vec<f64>,
    /// Per entry, the next older entry with the same hash, or
    /// [`CHAIN_END`].
    next: Vec<u32>,
    /// Length of every stored cell vector, set by the first insert.
    dim: usize,
}

/// Ends a [`CellMap`] collision chain (and caps its entry count).
const CHAIN_END: u32 = u32::MAX;

impl CellMap {
    /// Number of memoized cell vectors.
    fn len(&self) -> usize {
        self.conf.len()
    }

    /// Empties the map, keeping its allocations.
    fn clear(&mut self) {
        self.index.clear();
        self.cells.clear();
        self.conf.clear();
        self.next.clear();
        self.dim = 0;
    }

    /// Entry `e`'s cell vector and confidence.
    fn entry(&self, e: u32) -> (&[u32], f64) {
        let i = e as usize;
        (&self.cells[i * self.dim..(i + 1) * self.dim], self.conf[i])
    }

    /// The confidence stored for exactly `cells` under hash `h`.
    fn get(&self, h: u64, cells: &[u32]) -> Option<f64> {
        if cells.len() != self.dim {
            return None;
        }
        let mut e = *self.index.get(&h)?;
        while e != CHAIN_END {
            let (stored, conf) = self.entry(e);
            if stored == cells {
                return Some(conf);
            }
            e = self.next[e as usize];
        }
        None
    }

    /// Appends `cells → conf` under hash `h` (the caller has checked it
    /// is absent) and returns the new entry. A vector of another length
    /// than the stored ones, or a full map, stores nothing: a miss
    /// recomputes, so dropping an entry is always sound.
    fn insert(&mut self, h: u64, cells: &[u32], conf: f64) -> Option<u32> {
        if self.conf.is_empty() {
            self.dim = cells.len();
        }
        if cells.len() != self.dim {
            return None;
        }
        let e = u32::try_from(self.conf.len()).ok().filter(|&e| e != CHAIN_END)?;
        // Reserve before the first write, so nothing below can panic: an
        // entry lands whole or not at all (see `lock_cache`).
        self.index.reserve(1);
        self.cells.reserve(cells.len());
        self.conf.reserve(1);
        self.next.reserve(1);
        self.cells.extend_from_slice(cells);
        self.conf.push(conf);
        self.next.push(self.index.insert(h, e).unwrap_or(CHAIN_END));
        Some(e)
    }
}

/// One avalanched hash term per `(feature, cell)` coordinate; cell
/// vectors hash to the wrapping sum of their terms.
#[inline]
fn cell_term(f: usize, cell: u32) -> u64 {
    splitmix64(((f as u64) << 32) ^ u64::from(cell))
}

/// Writes `profile`'s cell vector into `cells` and returns its
/// commutative hash. The single definition of the cell convention —
/// `partition_point(t < v)` counts thresholds strictly below the value,
/// mirroring the `x <= threshold` split rule — shared by the
/// full-profile and bisection-base paths so their hashes can never
/// diverge.
fn fold_cells(per_feature: &[Vec<f64>], profile: &[f64], cells: &mut Vec<u32>) -> u64 {
    cells.clear();
    let mut h: u64 = 0;
    for (f, (v, ts)) in profile.iter().zip(per_feature).enumerate() {
        let cell = ts.partition_point(|t| *t < *v) as u32;
        cells.push(cell);
        h = h.wrapping_add(cell_term(f, cell));
    }
    h
}

impl CellConfidenceCache {
    /// Model confidence for `profile`, memoized by threshold cell when
    /// `per_feature` hints are available (they must be `model`'s own —
    /// the caller's contract, as for
    /// [`CandidatesGenerator::generate_with_hints`]).
    fn confidence(
        &mut self,
        model: &dyn Model,
        per_feature: Option<&[Vec<f64>]>,
        profile: &[f64],
    ) -> f64 {
        let Some(per_feature) = per_feature else {
            return model.predict_proba(profile);
        };
        let h = fold_cells(per_feature, profile, &mut self.cells);
        match self.map.get(h, &self.cells) {
            Some(conf) => conf,
            None => self.miss(model, profile, h),
        }
    }

    /// Resolves a private-memo miss for the cell vector in `self.cells`
    /// (hash `h`, the cells of `profile`): the bound shared slot's entry
    /// when it holds that exact vector, else the model's confidence —
    /// from the compiled forest when there is one, else from
    /// `predict_proba` — staged for publishing. The private memo keeps
    /// the result either way.
    fn miss(&mut self, model: &dyn Model, profile: &[f64], h: u64) -> f64 {
        let shared_conf = self
            .shared
            .as_ref()
            .and_then(|shared| lock_cache(shared).get(h, &self.cells));
        let conf = shared_conf.unwrap_or_else(|| match &self.forest {
            Some(forest) => forest.predict_cells(&self.cells),
            None => model.predict_proba(profile),
        });
        let entry = self.map.insert(h, &self.cells, conf);
        if let (Some(_), None, Some(e)) = (&self.shared, shared_conf, entry) {
            self.pending.push((h, e));
        }
        conf
    }

    /// Copies staged cells into the bound shared slot (no-op when
    /// unbound). Duplicates computed concurrently by another engine are
    /// dropped — both computed identical bits, so either copy serves.
    fn publish(&mut self) {
        let Some(shared) = &self.shared else {
            self.pending.clear();
            return;
        };
        if self.pending.is_empty() {
            return;
        }
        let mut slot = lock_cache(shared);
        for (h, e) in self.pending.drain(..) {
            let (cells, conf) = self.map.entry(e);
            if slot.get(h, cells).is_none() {
                slot.insert(h, cells, conf);
            }
        }
    }

    /// Seeds a bisection base: `sanitized` must be the (elementwise
    /// sanitized) profile the upcoming [`CellConfidenceCache::trial`]
    /// calls differ from in exactly one slot.
    fn seed_base(&mut self, per_feature: &[Vec<f64>], sanitized: &[f64]) {
        self.base_hash = fold_cells(per_feature, sanitized, &mut self.base_cells);
    }

    /// Trial probe against the seeded base: `profile` equals the seeded
    /// sanitized base everywhere except slot `f`. Only that slot's cell
    /// is recomputed; the hash updates in O(1).
    fn trial(
        &mut self,
        model: &dyn Model,
        per_feature: &[Vec<f64>],
        f: usize,
        profile: &[f64],
    ) -> f64 {
        let cell = per_feature[f].partition_point(|t| *t < profile[f]) as u32;
        let h = self
            .base_hash
            .wrapping_sub(cell_term(f, self.base_cells[f]))
            .wrapping_add(cell_term(f, cell));
        self.cells.clear();
        self.cells.extend_from_slice(&self.base_cells);
        self.cells[f] = cell;
        match self.map.get(h, &self.cells) {
            Some(conf) => conf,
            None => self.miss(model, profile, h),
        }
    }
}

/// The stateful, timeline-aware search engine.
///
/// One engine serves an entire user timeline (and can be reused across
/// users): [`TimelineSearch::run`] executes the per-time-point beam
/// search of [`CandidatesGenerator`], but the warm state — sanitize
/// scratch rows, dedup key sets, the confidence memo over surviving
/// threshold cells — lives here and carries across calls instead of
/// being rebuilt per `t`.
///
/// Cross-time-point reuse is gated on proof: the caller passes the
/// current model's content fingerprint (`model_key`), and cached cells
/// survive into the next call only when the fingerprints match — i.e.
/// the models are bit-identical, so every memoized confidence is exactly
/// what the fresh model would compute. On any change (or an unknown
/// model, `None`) the cells are dropped and re-verified by
/// recomputation. Output is therefore **bit-identical to a cold
/// per-time-point search** regardless of call order, sharing, thread
/// placement or drift history; `tests/determinism.rs` locks this down
/// end to end.
#[derive(Default)]
pub struct TimelineSearch {
    /// Scratch row for beam move sanitation.
    move_scratch: Vec<f64>,
    /// Scratch row for refine trials.
    trial_scratch: Vec<f64>,
    /// Per-time-point profile dedup (cleared per run, capacity kept).
    seen: KeySet,
    /// Exact-bits memo within one `(state, feature)` bisection.
    trial_cache: TrialCache,
    /// Confidence per threshold cell of the current model.
    confidence: CellConfidenceCache,
    /// Fingerprint of the model `confidence` currently describes.
    model_key: Option<Digest>,
    /// Cross-user cache this engine probes and publishes to, if any.
    shared: Option<Arc<SharedCellCache>>,
}

impl TimelineSearch {
    /// A fresh engine with no warm state.
    pub fn new() -> Self {
        TimelineSearch::default()
    }

    /// A fresh engine wired to a cross-user [`SharedCellCache`]: each
    /// run binds the cache slot matching its `model_key`, probes it on
    /// private-memo misses and publishes newly computed cells back.
    /// Output stays bit-identical to [`TimelineSearch::new`] — sharing
    /// only changes where a confidence is first computed.
    pub fn with_shared(cache: Arc<SharedCellCache>) -> Self {
        TimelineSearch { shared: Some(cache), ..TimelineSearch::default() }
    }

    /// Runs the search for one time point, reusing the engine's warm
    /// state.
    ///
    /// `model_key` identifies `g.model` by content
    /// ([`jit_ml::Model::fingerprint`]): pass the same key across calls
    /// to carry the threshold-cell confidence cache between adjacent
    /// time points of one timeline. Pass `None` for an unknown model —
    /// the cache is then cleared, which is always sound.
    ///
    /// The result is bit-identical to
    /// [`CandidatesGenerator::generate_with_hints`] on a fresh engine,
    /// whatever was run before.
    pub fn run(
        &mut self,
        g: &CandidatesGenerator<'_>,
        params: &CandidateParams,
        hints: &ModelHints,
        model_key: Option<Digest>,
    ) -> Vec<Candidate> {
        // Carry the confidence cells only under proof of model identity;
        // everything else in the engine is model-independent scratch.
        match (self.model_key, model_key) {
            (Some(prev), Some(cur)) if prev == cur => {}
            _ => {
                self.confidence.map.clear();
                self.confidence.pending.clear();
                self.confidence.shared = match (&self.shared, model_key) {
                    (Some(cache), Some(key)) => Some(cache.slot(key)),
                    _ => None,
                };
            }
        }
        self.model_key = model_key;
        self.confidence.forest = match hints {
            ModelHints::Thresholds { forest, .. } => forest.clone(),
            _ => None,
        };
        let out = g.search(self, params, hints);
        self.confidence.publish();
        out
    }
}

impl<'a> CandidatesGenerator<'a> {
    /// Runs the beam search and returns up to `top_k` diverse
    /// decision-altering candidates, best first under the objective.
    pub fn generate(&self, params: &CandidateParams) -> Vec<Candidate> {
        self.generate_with_hints(params, &self.model.hints())
    }

    /// [`CandidatesGenerator::generate`] with the model's move hints
    /// supplied by the caller.
    ///
    /// Hints depend only on the model — not on the user — so serving
    /// builds them once per time point of a trained system and shares
    /// them across every user instead of re-walking the ensemble per
    /// session. `hints` **must** come from `self.model` (or be equal to
    /// its output): the search proposes moves from them, relies on them
    /// as a proof of piecewise constancy for confidence memoization, and
    /// scores memo misses with their compiled forest.
    ///
    /// This is the one-shot entry point (a fresh [`TimelineSearch`] per
    /// call); timeline serving keeps an engine alive across time points
    /// instead.
    pub fn generate_with_hints(
        &self,
        params: &CandidateParams,
        hints: &ModelHints,
    ) -> Vec<Candidate> {
        TimelineSearch::new().run(self, params, hints, None)
    }

    /// The search body behind [`TimelineSearch::run`]: identical
    /// semantics to the historical per-call search, with all reusable
    /// state borrowed from `engine`.
    #[allow(clippy::expect_used)] // search scores are finite by construction (clamped upstream)
    fn search(
        &self,
        engine: &mut TimelineSearch,
        params: &CandidateParams,
        hints: &ModelHints,
    ) -> Vec<Candidate> {
        assert_eq!(self.origin.len(), self.schema.dim(), "origin dimension mismatch");
        assert_eq!(self.scales.len(), self.schema.dim(), "scales dimension mismatch");
        // A non-finite origin can never yield a feasible candidate: every
        // proposal inherits the non-finite coordinate (moves change one
        // feature, sanitize passes NaN through) and the bounds check
        // rejects it. Bail out up front — the sanitized fast paths below
        // elide that bounds check and must never see NaN.
        if !self.origin.iter().all(|v| v.is_finite()) {
            return Vec::new();
        }
        let per_feature = match hints {
            ModelHints::Thresholds { per_feature, .. } => Some(per_feature.as_slice()),
            _ => None,
        };
        let mut rng = Rng::seeded(params.seed ^ (self.time_index as u64) << 32);
        let scale_sum = self.scales.iter().sum::<f64>().max(1e-9);
        // Domain-bound conjuncts are tautological on sanitized profiles;
        // count once how many lead the constraint so the hot feasibility
        // checks can skip them.
        let bounds_skip = self.constraint.bounds_implied_prefix(self.schema);

        engine.seen.clear();
        engine.move_scratch.resize(self.schema.dim(), 0.0);
        engine.trial_scratch.resize(self.schema.dim(), 0.0);
        let mut altering: Vec<State> = Vec::new();

        let origin_state =
            self.mk_state(self.origin.to_vec(), per_feature, &mut engine.confidence);
        // The unmodified profile may already be approved at this time
        // point (the Q1 "no modification" answer).
        if self.feasible(&origin_state) && origin_state.confidence > self.delta {
            altering.push(origin_state.clone());
        }
        engine.seen.insert(profile_key(&origin_state.profile));
        let mut beam: Vec<State> = vec![origin_state];

        for _iter in 0..params.max_iters {
            let mut proposals: Vec<State> = Vec::new();
            for state in &beam {
                let moves = self.propose_moves(&state.profile, hints, params, &mut rng);
                for (f, value) in moves {
                    // Sanitize into the scratch buffer first: already-seen
                    // or infeasible moves never allocate a profile.
                    engine.move_scratch.copy_from_slice(&state.profile);
                    engine.move_scratch[f] = value;
                    self.schema.sanitize_row_in_place(&mut engine.move_scratch);
                    let key = profile_key(&engine.move_scratch);
                    if !engine.seen.insert(key) {
                        continue;
                    }
                    let profile = engine.move_scratch.clone();
                    let cand =
                        self.mk_state(profile, per_feature, &mut engine.confidence);
                    if !self.feasible_sanitized(&cand, bounds_skip) {
                        continue;
                    }
                    proposals.push(cand);
                }
            }
            if proposals.is_empty() {
                break;
            }
            for p in &proposals {
                if p.confidence > self.delta {
                    altering.push(p.clone());
                }
            }
            // Beam ranking: drive confidence up while keeping the eventual
            // objective cheap — a weighted blend, as in the adapted
            // multi-objective search. Scores are computed once per
            // proposal, not per comparison.
            let mut scored: Vec<(f64, State)> = proposals
                .into_iter()
                .map(|p| (self.search_score(&p, scale_sum), p))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            scored.truncate(params.beam_width);
            beam = scored.into_iter().map(|(_, p)| p).collect();

            if params.early_stop_after > 0 && altering.len() >= params.early_stop_after
            {
                break;
            }
        }

        let mut pool = altering;
        if params.refine {
            // Keep BOTH versions of every candidate: the boundary-refined
            // one (minimal cost — serves Q2/Q4) and the original
            // (higher-margin confidence — serves Q5/Q6). Refining
            // everything in place would leave the whole table hugging the
            // decision boundary, which is fragile under model drift.
            let mut refined: Vec<State> = pool.clone();
            for s in &mut refined {
                self.refine_state(s, engine, bounds_skip, per_feature);
            }
            pool.extend(refined);
            // Bisection collapses many states onto the same boundary
            // point; dedup again so diversity selection sees the truth.
            let mut seen_refined = KeySet::default();
            pool.retain(|s| seen_refined.insert(profile_key(&s.profile)));
        }
        self.select_diverse(pool, params)
    }

    /// Per-coordinate bisection toward the origin: finds the smallest
    /// modification of each changed feature that keeps the state feasible
    /// *and* decision-altering. Two passes over the features handle mild
    /// interactions.
    ///
    /// Trials run in the engine's scratch row (the bisection evaluates
    /// thousands of throwaway profiles per session; discarded trials
    /// allocate nothing) and score through the engine's cell cache.
    fn refine_state(
        &self,
        state: &mut State,
        engine: &mut TimelineSearch,
        skip: usize,
        per_feature: Option<&[Vec<f64>]>,
    ) {
        // Runtime-verified fast path: when the state's profile is a fixed
        // point of sanitation (checked bit-exactly below, re-checked
        // after every adoption), a trial's full-row sanitize reduces to
        // sanitizing the one changed coordinate — so the scratch row can
        // be seeded once per state and each trial touches a single slot.
        let mut profile_is_fixed_point = self.sanitize_fixed_point(&state.profile);
        engine.trial_scratch.copy_from_slice(&state.profile);
        for _pass in 0..2 {
            for f in 0..self.schema.dim() {
                let orig = self.origin[f];
                if (state.profile[f] - orig).abs() <= 1e-12 {
                    continue;
                }
                engine.trial_cache.reset();
                // Seed the cell-cache base: trials differ from the
                // sanitized state profile in slot `f` only, so their cell
                // vectors derive from this base by one O(1) update.
                if let Some(pf) = per_feature {
                    if profile_is_fixed_point {
                        engine.confidence.seed_base(pf, &state.profile);
                    } else {
                        engine.trial_scratch.copy_from_slice(&state.profile);
                        self.schema.sanitize_row_in_place(&mut engine.trial_scratch);
                        engine.confidence.seed_base(pf, &engine.trial_scratch);
                    }
                }
                // Can the change be dropped entirely?
                if let Some(conf) = self.trial_accepts(
                    state,
                    f,
                    orig,
                    engine,
                    skip,
                    profile_is_fixed_point,
                    per_feature,
                ) {
                    Self::adopt(state, &engine.trial_scratch, conf, self.origin);
                    profile_is_fixed_point = self.sanitize_fixed_point(&state.profile);
                    engine.trial_scratch.copy_from_slice(&state.profile);
                    continue;
                }
                // Bisect between origin (rejecting side) and the current
                // value (approving side).
                let mut lo = orig;
                let mut hi = state.profile[f];
                for _ in 0..20 {
                    let mid = 0.5 * (lo + hi);
                    if self
                        .trial_accepts(
                            state,
                            f,
                            mid,
                            engine,
                            skip,
                            profile_is_fixed_point,
                            per_feature,
                        )
                        .is_some()
                    {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                if let Some(conf) = self.trial_accepts(
                    state,
                    f,
                    hi,
                    engine,
                    skip,
                    profile_is_fixed_point,
                    per_feature,
                ) {
                    Self::adopt(state, &engine.trial_scratch, conf, self.origin);
                    profile_is_fixed_point = self.sanitize_fixed_point(&state.profile);
                }
                // Leave no trial residue behind for the next feature.
                engine.trial_scratch.copy_from_slice(&state.profile);
            }
        }
    }

    /// Whether `profile` is bit-exactly unchanged by sanitation (true for
    /// every profile the search itself produced; the raw origin may not
    /// be).
    fn sanitize_fixed_point(&self, profile: &[f64]) -> bool {
        profile
            .iter()
            .zip(self.schema.features())
            .all(|(v, meta)| meta.sanitize(*v).to_bits() == v.to_bits())
    }

    /// Evaluates the trial "set feature `f` of `state` to `value`" in the
    /// engine's trial scratch (sanitized). Returns the model confidence
    /// when the trial is decision-altering and feasible, `None` otherwise
    /// — exactly the `s.confidence > δ && feasible(s)` acceptance test,
    /// minus the allocations.
    ///
    /// When `fixed_point` is set the caller guarantees
    /// `scratch[i] == sanitize(state.profile[i])` for every `i != f`, so
    /// only slot `f` is written; otherwise the whole row is rebuilt and
    /// sanitized. Either way the scratch ends up bit-identical to
    /// `sanitize_row(state.profile with [f] = value)`.
    ///
    /// Two memo layers, both provably output-preserving: the engine's
    /// [`TrialCache`] short-circuits bit-identical trials within one
    /// `(state, feature)` bisection (sanitation collapses many midpoints
    /// onto the same profile, and the post-bisection acceptance re-visits
    /// the last accepted midpoint), and the [`CellConfidenceCache`]
    /// memoizes model confidence per threshold cell across the entire
    /// engine lifetime.
    #[allow(clippy::too_many_arguments)]
    fn trial_accepts(
        &self,
        state: &State,
        f: usize,
        value: f64,
        engine: &mut TimelineSearch,
        skip: usize,
        fixed_point: bool,
        per_feature: Option<&[Vec<f64>]>,
    ) -> Option<f64> {
        let scratch = &mut engine.trial_scratch;
        if fixed_point {
            scratch[f] = self.schema.feature(f).sanitize(value);
        } else {
            scratch.copy_from_slice(&state.profile);
            scratch[f] = value;
            self.schema.sanitize_row_in_place(scratch);
        }
        let key = scratch[f].to_bits();
        match engine.trial_cache.last {
            Some((k, cached)) if k == key => return cached,
            _ => {}
        }
        match engine.trial_cache.last_accepted {
            Some((k, conf)) if k == key => return Some(conf),
            _ => {}
        }
        let confidence = match per_feature {
            Some(pf) => {
                engine.confidence.trial(self.model, pf, f, &engine.trial_scratch)
            }
            None => self.model.predict_proba(&engine.trial_scratch),
        };
        // The scratch is sanitized, so the schema-bound checks
        // (`row_in_bounds` and the first `skip` domain conjuncts) hold by
        // construction and are elided.
        let accepted = if confidence > self.delta
            && self.constraint.eval_assuming_bounds(
                skip,
                &EvalContext {
                    candidate: &engine.trial_scratch,
                    original: self.origin,
                    confidence,
                },
            ) {
            Some(confidence)
        } else {
            None
        };
        engine.trial_cache.last = Some((key, accepted));
        if let Some(conf) = accepted {
            engine.trial_cache.last_accepted = Some((key, conf));
        }
        accepted
    }

    /// Overwrites `state` with the accepted trial profile in `scratch`.
    fn adopt(state: &mut State, scratch: &[f64], confidence: f64, origin: &[f64]) {
        state.profile.copy_from_slice(scratch);
        state.confidence = confidence;
        state.diff = l2_diff(&state.profile, origin);
        state.gap = l0_gap(&state.profile, origin);
    }

    fn mk_state(
        &self,
        profile: Vec<f64>,
        per_feature: Option<&[Vec<f64>]>,
        conf_cache: &mut CellConfidenceCache,
    ) -> State {
        let confidence = conf_cache.confidence(self.model, per_feature, &profile);
        let diff = l2_diff(&profile, self.origin);
        let gap = l0_gap(&profile, self.origin);
        State { profile, confidence, diff, gap }
    }

    fn feasible(&self, s: &State) -> bool {
        self.schema.row_in_bounds(&s.profile)
            && self.constraint.eval(&EvalContext {
                candidate: &s.profile,
                original: self.origin,
                confidence: s.confidence,
            })
    }

    /// [`CandidatesGenerator::feasible`] for states whose profile has
    /// been through [`jit_data::FeatureSchema::sanitize_row`]: the
    /// in-bounds check and the leading `skip` domain-bound conjuncts hold
    /// by construction and are elided (same result, fewer comparisons).
    fn feasible_sanitized(&self, s: &State, skip: usize) -> bool {
        self.constraint.eval_assuming_bounds(
            skip,
            &EvalContext {
                candidate: &s.profile,
                original: self.origin,
                confidence: s.confidence,
            },
        )
    }

    /// Blended beam-ranking score (higher is better). `scale_sum` is the
    /// clamped sum of feature scales, computed once per search.
    fn search_score(&self, s: &State, scale_sum: f64) -> f64 {
        let norm_diff = s.diff / scale_sum;
        s.confidence - 0.05 * norm_diff - 0.01 * s.gap as f64
    }

    /// Objective score of a finished candidate (higher is better).
    ///
    /// `MinDiff` scores **raw** l2 diff — the paper's `diff` property and
    /// the quantity Q4 orders by. The MMR diversity bonus for `MinDiff`
    /// therefore also measures distances in raw units (commensurable);
    /// the O(1) objectives use normalized distances instead
    /// (`whitening` holds `1/scale²` weights, built once per selection).
    fn objective_score(
        &self,
        s: &State,
        objective: Objective,
        whitening: &[f64],
    ) -> f64 {
        match objective {
            Objective::MinDiff => -s.diff,
            Objective::MinGap => {
                let norm =
                    jit_math::distance::weighted_l2(&s.profile, self.origin, whitening);
                -(s.gap as f64) - 1e-3 * norm
            }
            Objective::MaxConfidence => s.confidence,
        }
    }

    /// Model-dependent move proposal, as `(feature, raw value)` pairs —
    /// the caller sanitizes each move into a scratch profile, so proposals
    /// that dedup away cost no allocation.
    fn propose_moves(
        &self,
        from: &[f64],
        hints: &ModelHints,
        params: &CandidateParams,
        rng: &mut Rng,
    ) -> Vec<(usize, f64)> {
        let d = self.schema.dim();
        let mut moves: Vec<(usize, f64)> = Vec::new();
        let mutable =
            |f: usize| self.schema.feature(f).mutability == Mutability::Actionable;

        match hints {
            ModelHints::Thresholds { per_feature, .. } => {
                for f in 0..d {
                    if !mutable(f) {
                        continue;
                    }
                    let thresholds = &per_feature[f];
                    if thresholds.is_empty() {
                        continue;
                    }
                    let cur = from[f];
                    // Candidate thresholds on each side of the current
                    // value. Taking only the nearest ones strands the
                    // search when approval needs a long-range change, so
                    // pick a spread: the nearest plus quantile-spaced
                    // jumps across the rest of the range. Hint emitters
                    // guarantee sorted ascending + dedup'd thresholds, so
                    // both sides are index ranges — no filtering pass.
                    let eps = (self.scales[f] * 1e-3).max(1e-9);
                    let split = thresholds.partition_point(|t| *t < cur);
                    let above = &thresholds[split..];
                    for j in spread_indices(above.len()) {
                        moves.push((f, above[j] + eps));
                    }
                    // Below-side walked in descending order so the
                    // nearest-below threshold comes first.
                    for j in spread_indices(split) {
                        moves.push((f, thresholds[split - 1 - j] - eps));
                    }
                }
            }
            ModelHints::Linear(w) => {
                for f in 0..d {
                    if !mutable(f) || w[f] == 0.0 {
                        continue;
                    }
                    let dir = w[f].signum();
                    for step in [0.25, 0.5, 1.0, 2.0] {
                        moves.push((f, from[f] + dir * step * self.scales[f]));
                    }
                }
            }
            ModelHints::Opaque => {
                for (f, &cur) in from.iter().enumerate().take(d) {
                    if !mutable(f) {
                        continue;
                    }
                    for step in [0.5, 1.0, 2.0] {
                        moves.push((f, cur + step * self.scales[f]));
                        moves.push((f, cur - step * self.scales[f]));
                    }
                }
            }
        }

        // Budget: keep a random subset when too many (deterministic rng).
        if moves.len() > params.max_moves_per_state {
            rng.shuffle(&mut moves);
            moves.truncate(params.max_moves_per_state);
        }
        moves
    }

    /// Diverse top-k via maximal marginal relevance: greedily pick the
    /// candidate maximizing `objective + λ · (distance to picked set)`,
    /// with distances measured in scale-normalized feature space.
    #[allow(clippy::expect_used)] // loop runs while `remaining` is non-empty, so a best exists
    fn select_diverse(
        &self,
        pool: Vec<State>,
        params: &CandidateParams,
    ) -> Vec<Candidate> {
        let mut remaining = pool;
        // Dedup once more on profile keys (origin may repeat across iters).
        let mut seen = KeySet::default();
        remaining.retain(|s| seen.insert(profile_key(&s.profile)));

        // Distance space for the MMR bonus must match the objective's
        // scale: raw feature units for MinDiff, whitened otherwise.
        // Normalized profiles, objective bases and min-distances to the
        // picked set are computed once and maintained incrementally —
        // the greedy rounds then only scan flat arrays.
        let raw_space = params.objective == Objective::MinDiff;
        let clamped: Vec<f64> = self.scales.iter().map(|s| s.max(1e-9)).collect();
        let whitening: Vec<f64> = clamped.iter().map(|s| 1.0 / (s * s)).collect();
        let normalize = |p: &[f64]| -> Vec<f64> {
            if raw_space {
                p.to_vec()
            } else {
                p.iter().zip(&clamped).map(|(v, s)| v / s).collect()
            }
        };
        let mut norms: Vec<Vec<f64>> =
            remaining.iter().map(|s| normalize(&s.profile)).collect();
        let mut base: Vec<f64> = remaining
            .iter()
            .map(|s| self.objective_score(s, params.objective, &whitening))
            .collect();
        let mut min_dist: Vec<f64> = vec![f64::INFINITY; remaining.len()];
        let mut picked: Vec<State> = Vec::new();

        while picked.len() < params.top_k && !remaining.is_empty() {
            let use_bonus = !picked.is_empty() && params.diversity_lambda != 0.0;
            let mut best: Option<(usize, f64)> = None;
            for i in 0..remaining.len() {
                let bonus =
                    if use_bonus { params.diversity_lambda * min_dist[i] } else { 0.0 };
                let score = base[i] + bonus;
                match best {
                    Some((_, bs)) if bs >= score => {}
                    _ => best = Some((i, score)),
                }
            }
            let (idx, _) = best.expect("remaining non-empty");
            let s = remaining.swap_remove(idx);
            base.swap_remove(idx);
            min_dist.swap_remove(idx);
            let picked_norm = norms.swap_remove(idx);
            for (i, n) in norms.iter().enumerate() {
                let dist = l2_diff(n, &picked_norm);
                if dist < min_dist[i] {
                    min_dist[i] = dist;
                }
            }
            picked.push(s);
        }

        picked
            .into_iter()
            .map(|s| Candidate {
                time_index: self.time_index,
                profile: s.profile,
                diff: s.diff,
                gap: s.gap,
                confidence: s.confidence,
            })
            .collect()
    }
}

/// Index pattern for picking up to four representative positions from a
/// sorted run of `n` distinct values: the two nearest (first positions)
/// and two quantile-spaced far jumps. Gives the beam both fine local
/// moves and long-range moves in one iteration, without materializing
/// the filtered threshold list.
fn spread_indices(n: usize) -> impl Iterator<Item = usize> {
    let (picks, len): ([usize; 4], usize) = match n {
        0..=4 => ([0, 1, 2, 3], n),
        n => ([0, 1, n / 2, n - 1], 4),
    };
    picks.into_iter().take(len)
}

/// Hash key of a profile at 1e-9 granularity (for dedup),
/// SplitMix64-chained over the quantized coordinates — full-avalanche
/// mixing at a few ns per word, an order of magnitude cheaper than
/// SipHash in the search's dedup-heavy inner loops.
fn profile_key(profile: &[f64]) -> u64 {
    let mut h: u64 = 0x243f_6a88_85a3_08d3; // pi, as a nothing-up-my-sleeve seed
    for v in profile {
        h = splitmix64(h ^ (v * 1e9).round() as i64 as u64);
    }
    h
}

/// Pass-through hasher for [`profile_key`] values: the keys are already
/// avalanche-mixed, so re-hashing them through the default SipHash would
/// only burn time.
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 writes (unused by `u64` keys).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A dedup set over [`profile_key`] values.
type KeySet = HashSet<u64, std::hash::BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use jit_constraints::builder::*;
    use jit_constraints::ConstraintSet;
    use jit_data::schema::lending_idx as idx;
    use jit_data::{LendingClubGenerator, LendingClubParams};
    use jit_ml::{RandomForest, RandomForestParams};

    struct Fixture {
        schema: FeatureSchema,
        model: RandomForest,
        scales: Vec<f64>,
        origin: Vec<f64>,
    }

    fn fixture() -> Fixture {
        let gen = LendingClubGenerator::new(LendingClubParams {
            records_per_year: 600,
            ..Default::default()
        });
        let records = gen.records_for_year(2016);
        let data = LendingClubGenerator::to_dataset(&records);
        let mut rng = Rng::seeded(7);
        let model = RandomForest::fit(
            &data,
            &RandomForestParams { n_trees: 25, ..Default::default() },
            &mut rng,
        );
        // Per-feature stds.
        let std = jit_math::Standardizer::fit(&data.matrix());
        Fixture {
            schema: gen.schema().clone(),
            model,
            scales: std.stds().to_vec(),
            origin: LendingClubGenerator::john(),
        }
    }

    fn constraint_for(
        fx: &Fixture,
        extra: Option<jit_constraints::Constraint>,
    ) -> BoundConstraint {
        let (mut set, _) = jit_constraints::set::domain_constraints(&fx.schema);
        if let Some(c) = extra {
            let mut user = ConstraintSet::new();
            user.add(c);
            set.merge(&user);
        }
        set.compile_at(0, &fx.schema).unwrap()
    }

    fn run(
        fx: &Fixture,
        constraint: &BoundConstraint,
        params: &CandidateParams,
    ) -> Vec<Candidate> {
        let g = CandidatesGenerator {
            model: &fx.model,
            delta: 0.5,
            origin: &fx.origin,
            constraint,
            schema: &fx.schema,
            scales: &fx.scales,
            time_index: 0,
        };
        g.generate(params)
    }

    #[test]
    fn finds_decision_altering_candidates() {
        let fx = fixture();
        assert!(
            fx.model.predict_proba(&fx.origin) <= 0.5,
            "John must start rejected by the learned model"
        );
        let c = constraint_for(&fx, None);
        let cands = run(&fx, &c, &CandidateParams::default());
        assert!(!cands.is_empty(), "search must find altering candidates");
        for cand in &cands {
            assert!(cand.confidence > 0.5, "candidate below threshold");
            assert!(fx.schema.row_in_bounds(&cand.profile));
            assert!(cand.gap > 0, "altering candidate must modify something");
        }
    }

    #[test]
    fn candidates_sound_wrt_model_and_metrics() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        for cand in run(&fx, &c, &CandidateParams::default()) {
            // Reported metrics must agree with recomputation.
            assert!(
                (cand.confidence - fx.model.predict_proba(&cand.profile)).abs() < 1e-12
            );
            assert!((cand.diff - l2_diff(&cand.profile, &fx.origin)).abs() < 1e-12);
            assert_eq!(cand.gap, l0_gap(&cand.profile, &fx.origin));
        }
    }

    #[test]
    fn immutable_features_never_touched() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        for cand in run(&fx, &c, &CandidateParams::default()) {
            assert_eq!(cand.profile[idx::AGE], fx.origin[idx::AGE], "age is immutable");
            assert_eq!(
                cand.profile[idx::SENIORITY],
                fx.origin[idx::SENIORITY],
                "seniority is immutable"
            );
        }
    }

    #[test]
    fn user_constraints_respected() {
        let fx = fixture();
        // User refuses to change income.
        let c = constraint_for(&fx, Some(feature("income").eq(fx.origin[idx::INCOME])));
        let cands = run(&fx, &c, &CandidateParams::default());
        for cand in &cands {
            assert!(
                (cand.profile[idx::INCOME] - fx.origin[idx::INCOME]).abs() < 1e-6,
                "income must stay fixed"
            );
        }
    }

    #[test]
    fn gap_constraint_limits_feature_count() {
        let fx = fixture();
        let c = constraint_for(&fx, Some(gap().le(1.0)));
        for cand in run(&fx, &c, &CandidateParams::default()) {
            assert!(cand.gap <= 1, "gap constraint violated: {}", cand.gap);
        }
    }

    #[test]
    fn min_gap_objective_prefers_fewer_changes() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let diff_params = CandidateParams {
            objective: Objective::MinDiff,
            diversity_lambda: 0.0,
            ..Default::default()
        };
        let gap_params = CandidateParams {
            objective: Objective::MinGap,
            diversity_lambda: 0.0,
            ..Default::default()
        };
        let by_diff = run(&fx, &c, &diff_params);
        let by_gap = run(&fx, &c, &gap_params);
        assert!(!by_diff.is_empty() && !by_gap.is_empty());
        assert!(by_gap[0].gap <= by_diff[0].gap);
    }

    #[test]
    fn max_confidence_objective_ranks_by_confidence() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let params = CandidateParams {
            objective: Objective::MaxConfidence,
            diversity_lambda: 0.0,
            ..Default::default()
        };
        let cands = run(&fx, &c, &params);
        for w in cands.windows(2) {
            assert!(w[0].confidence >= w[1].confidence - 1e-12);
        }
    }

    #[test]
    fn diversity_spreads_candidates() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let diverse = run(
            &fx,
            &c,
            &CandidateParams { diversity_lambda: 1.0, top_k: 4, ..Default::default() },
        );
        let greedy = run(
            &fx,
            &c,
            &CandidateParams { diversity_lambda: 0.0, top_k: 4, ..Default::default() },
        );
        // With diversity, mean pairwise distance should not be smaller.
        let mean_pairwise = |cs: &[Candidate]| -> f64 {
            let mut total = 0.0;
            let mut n = 0usize;
            for i in 0..cs.len() {
                for j in (i + 1)..cs.len() {
                    total += l2_diff(&cs[i].profile, &cs[j].profile);
                    n += 1;
                }
            }
            if n == 0 {
                0.0
            } else {
                total / n as f64
            }
        };
        if diverse.len() >= 2 && greedy.len() >= 2 {
            assert!(mean_pairwise(&diverse) + 1e-9 >= mean_pairwise(&greedy));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let a = run(&fx, &c, &CandidateParams::default());
        let b = run(&fx, &c, &CandidateParams::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.profile, y.profile);
        }
    }

    fn bits(cands: &[Candidate]) -> Vec<(usize, Vec<u64>, u64, u64, usize)> {
        cands
            .iter()
            .map(|c| {
                (
                    c.time_index,
                    c.profile.iter().map(|v| v.to_bits()).collect(),
                    c.diff.to_bits(),
                    c.confidence.to_bits(),
                    c.gap,
                )
            })
            .collect()
    }

    #[test]
    fn warm_engine_is_bit_identical_to_cold_searches_across_a_timeline() {
        // One engine runs a whole timeline (same model, shifting origins —
        // the frozen-predictor serving shape), then survives a model
        // change. Every run must equal a cold single-shot search bit for
        // bit: warm state may only skip provably identical work.
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let params = CandidateParams::default();
        let hints = fx.model.hints();
        let key = fx.model.fingerprint();
        assert!(key.is_some(), "forests must be fingerprintable");

        let mut engine = TimelineSearch::new();
        for t in 0..3usize {
            // Ages advance along the timeline, as temporal inputs do.
            let mut origin = fx.origin.clone();
            origin[idx::AGE] += t as f64;
            origin[idx::SENIORITY] += t as f64;
            let g = CandidatesGenerator {
                model: &fx.model,
                delta: 0.5,
                origin: &origin,
                constraint: &c,
                schema: &fx.schema,
                scales: &fx.scales,
                time_index: t,
            };
            let warm = engine.run(&g, &params, &hints, key);
            let cold = g.generate_with_hints(&params, &hints);
            assert_eq!(bits(&warm), bits(&cold), "warm diverged at t={t}");
            assert!(!warm.is_empty(), "fixture must produce candidates at t={t}");
        }

        // Drift: a different model (new seed) with a different key. The
        // engine must drop the stale cells and match cold output.
        let gen = LendingClubGenerator::new(LendingClubParams {
            records_per_year: 600,
            ..Default::default()
        });
        let data = LendingClubGenerator::to_dataset(&gen.records_for_year(2017));
        let drifted = RandomForest::fit(
            &data,
            &RandomForestParams { n_trees: 25, ..Default::default() },
            &mut Rng::seeded(99),
        );
        assert_ne!(drifted.fingerprint(), key);
        let g = CandidatesGenerator {
            model: &drifted,
            delta: 0.5,
            origin: &fx.origin,
            constraint: &c,
            schema: &fx.schema,
            scales: &fx.scales,
            time_index: 1,
        };
        let drifted_hints = drifted.hints();
        let warm = engine.run(&g, &params, &drifted_hints, drifted.fingerprint());
        let cold = g.generate_with_hints(&params, &drifted_hints);
        assert_eq!(bits(&warm), bits(&cold), "warm diverged after model drift");
    }

    #[test]
    fn shared_cache_engines_are_bit_identical_to_private_and_cold_searches() {
        // Two engines share one cache and serve interleaved "users"
        // (distinct origins, same model): every run must equal a cold
        // single-shot search bit for bit, whichever engine computed the
        // cells first. Then the model drifts and `retain_models` must
        // drop the stale slot.
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let params = CandidateParams::default();
        let hints = fx.model.hints();
        let key = fx.model.fingerprint();
        assert!(key.is_some(), "forests must be fingerprintable");

        let cache = Arc::new(SharedCellCache::new());
        let mut a = TimelineSearch::with_shared(Arc::clone(&cache));
        let mut b = TimelineSearch::with_shared(Arc::clone(&cache));
        for user in 0..3usize {
            for t in 0..2usize {
                let mut origin = fx.origin.clone();
                origin[idx::INCOME] += 500.0 * user as f64;
                origin[idx::AGE] += t as f64;
                origin[idx::SENIORITY] += t as f64;
                let g = CandidatesGenerator {
                    model: &fx.model,
                    delta: 0.5,
                    origin: &origin,
                    constraint: &c,
                    schema: &fx.schema,
                    scales: &fx.scales,
                    time_index: t,
                };
                let engine = if user % 2 == 0 { &mut a } else { &mut b };
                let shared = engine.run(&g, &params, &hints, key);
                let cold = g.generate_with_hints(&params, &hints);
                assert_eq!(
                    bits(&shared),
                    bits(&cold),
                    "shared cache diverged at user={user} t={t}"
                );
                assert!(!shared.is_empty(), "fixture must produce candidates");
            }
        }
        assert_eq!(cache.model_count(), 1);
        assert!(cache.cell_count() > 0, "runs must have published cells");

        // Drift: the second engine moves to a new model; its output must
        // match cold, and retaining only the new key drops the old slot.
        let gen = LendingClubGenerator::new(LendingClubParams {
            records_per_year: 600,
            ..Default::default()
        });
        let data = LendingClubGenerator::to_dataset(&gen.records_for_year(2017));
        let drifted = RandomForest::fit(
            &data,
            &RandomForestParams { n_trees: 25, ..Default::default() },
            &mut Rng::seeded(99),
        );
        let drifted_key = drifted.fingerprint();
        assert_ne!(drifted_key, key);
        let g = CandidatesGenerator {
            model: &drifted,
            delta: 0.5,
            origin: &fx.origin,
            constraint: &c,
            schema: &fx.schema,
            scales: &fx.scales,
            time_index: 0,
        };
        let drifted_hints = drifted.hints();
        let shared = b.run(&g, &params, &drifted_hints, drifted_key);
        let cold = g.generate_with_hints(&params, &drifted_hints);
        assert_eq!(bits(&shared), bits(&cold), "shared diverged after drift");
        assert_eq!(cache.model_count(), 2);
        cache.retain_models(&[drifted_key]);
        assert_eq!(cache.model_count(), 1);
        cache.retain_models(&[None]);
        assert_eq!(cache.model_count(), 0);
    }

    #[test]
    fn shared_cache_engine_without_fingerprint_stays_private() {
        // `model_key = None` must neither publish nor probe: the cache
        // stays empty and output still matches cold searches.
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let params = CandidateParams::default();
        let hints = fx.model.hints();
        let cache = Arc::new(SharedCellCache::new());
        let mut engine = TimelineSearch::with_shared(Arc::clone(&cache));
        let g = CandidatesGenerator {
            model: &fx.model,
            delta: 0.5,
            origin: &fx.origin,
            constraint: &c,
            schema: &fx.schema,
            scales: &fx.scales,
            time_index: 0,
        };
        let out = engine.run(&g, &params, &hints, None);
        let cold = g.generate_with_hints(&params, &hints);
        assert_eq!(bits(&out), bits(&cold));
        assert_eq!(cache.model_count(), 0);
        assert_eq!(cache.cell_count(), 0);
    }

    /// A model that counts its evaluations: a memo hit leaves the count
    /// unchanged.
    #[derive(Default)]
    struct CountingModel(std::sync::atomic::AtomicUsize);

    impl CountingModel {
        fn calls(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Model for CountingModel {
        fn dim(&self) -> usize {
            3
        }

        fn predict_proba(&self, _: &[f64]) -> f64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            0.5
        }
    }

    #[test]
    fn packed_cell_map_verifies_whole_vectors_along_a_collision_chain() {
        // Two distinct vectors forced under one hash: each is found with
        // its own confidence, and a third vector under that hash misses.
        let mut map = CellMap::default();
        assert_eq!(map.insert(42, &[1, 2, 3], 0.25), Some(0));
        assert_eq!(map.insert(42, &[3, 2, 1], 0.75), Some(1));
        assert_eq!(map.get(42, &[1, 2, 3]), Some(0.25));
        assert_eq!(map.get(42, &[3, 2, 1]), Some(0.75));
        assert_eq!(map.get(42, &[2, 2, 2]), None);
        assert_eq!(map.get(43, &[1, 2, 3]), None);
        // A vector of a different length never matches and is not stored.
        assert_eq!(map.get(42, &[1, 2]), None);
        assert_eq!(map.get(42, &[1, 2, 3, 0]), None);
        assert_eq!(map.insert(42, &[1, 2], 0.5), None);
        assert_eq!(map.len(), 2);
        // A cleared map takes its vector length from the next insert.
        map.clear();
        assert_eq!(map.len(), 0);
        assert_eq!(map.get(42, &[1, 2, 3]), None);
        assert_eq!(map.insert(42, &[9], 0.5), Some(0));
        assert_eq!(map.get(42, &[9]), Some(0.5));
    }

    #[test]
    fn trial_probe_hits_through_a_collision_chain() {
        let per_feature = vec![vec![0.5, 1.5], vec![0.5], vec![10.0]];
        let model = CountingModel::default();
        let mut cache = CellConfidenceCache::default();
        cache.seed_base(&per_feature, &[0.0, 0.0, 0.0]);
        // The trial moves feature 0 into cell 1: cells [1, 0, 0]. Its
        // entry sits behind a decoy at the head of the same hash's chain.
        let trial = [1.0, 0.0, 0.0];
        let h = fold_cells(&per_feature, &trial, &mut Vec::new());
        cache.map.insert(h, &[1, 0, 0], 0.625);
        cache.map.insert(h, &[0, 0, 1], 0.125);
        assert_eq!(cache.trial(&model, &per_feature, 0, &trial), 0.625);
        assert_eq!(model.calls(), 0, "a chained hit must not evaluate the model");
        // An absent vector is evaluated once, then hits.
        let other = [2.0, 0.0, 0.0];
        assert_eq!(cache.trial(&model, &per_feature, 0, &other), 0.5);
        assert_eq!(cache.trial(&model, &per_feature, 0, &other), 0.5);
        assert_eq!(model.calls(), 1);
        assert_eq!(cache.map.len(), 3);
    }

    #[test]
    fn publishing_a_held_cell_keeps_one_entry_and_cell_count_counts_entries() {
        let per_feature = vec![vec![0.5], vec![0.5], vec![0.5]];
        let model = CountingModel::default();
        let shared = SharedCellCache::new();
        let key = Digest([1, 2]);
        let engine = || CellConfidenceCache {
            shared: Some(shared.slot(key)),
            ..CellConfidenceCache::default()
        };
        // Two engines compute the same cell before either publishes.
        let (mut a, mut b) = (engine(), engine());
        let profile = [1.0, 0.0, 1.0];
        a.confidence(&model, Some(&per_feature), &profile);
        b.confidence(&model, Some(&per_feature), &profile);
        assert_eq!(model.calls(), 2);
        a.publish();
        b.publish();
        assert_eq!(shared.cell_count(), 1, "the duplicate publish is dropped");
        // A third engine hits the slot, and a shared hit is not restaged.
        let mut c = engine();
        c.confidence(&model, Some(&per_feature), &profile);
        assert_eq!(model.calls(), 2);
        c.publish();
        assert_eq!(shared.cell_count(), 1);
        // Entries are counted one by one, colliding ones and other
        // slots' included.
        {
            let slot = shared.slot(key);
            lock_cache(&slot).insert(7, &[0, 0, 0], 0.25);
            lock_cache(&slot).insert(7, &[1, 1, 1], 0.75);
        }
        lock_cache(&shared.slot(Digest([3, 4]))).insert(7, &[0, 0, 0], 0.25);
        assert_eq!(shared.cell_count(), 4);
        assert_eq!(shared.model_count(), 2);
    }

    #[test]
    fn top_k_respected() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let cands = run(&fx, &c, &CandidateParams { top_k: 3, ..Default::default() });
        assert!(cands.len() <= 3);
    }

    #[test]
    fn non_finite_origin_yields_empty_without_panicking() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let mut nan_origin = fx.origin.clone();
        nan_origin[idx::DEBT] = f64::NAN;
        let g = CandidatesGenerator {
            model: &fx.model,
            delta: 0.5,
            origin: &nan_origin,
            constraint: &c,
            schema: &fx.schema,
            scales: &fx.scales,
            time_index: 0,
        };
        assert!(g.generate(&CandidateParams::default()).is_empty());
        let mut inf_origin = fx.origin.clone();
        inf_origin[idx::INCOME] = f64::INFINITY;
        let g = CandidatesGenerator { origin: &inf_origin, ..g };
        assert!(g.generate(&CandidateParams::default()).is_empty());
    }

    #[test]
    fn impossible_constraints_yield_empty() {
        let fx = fixture();
        let c = constraint_for(&fx, Some(diff().le(0.0).and(gap().ge(1.0))));
        let cands = run(&fx, &c, &CandidateParams::default());
        assert!(cands.is_empty());
    }

    #[test]
    fn already_approved_origin_appears_as_zero_gap_candidate() {
        let fx = fixture();
        // A comfortably approved profile.
        let rich = vec![40.0, 1.0, 150_000.0, 500.0, 15.0, 10_000.0];
        assert!(fx.model.predict_proba(&rich) > 0.5);
        let (set, _) = jit_constraints::set::domain_constraints(&fx.schema);
        let c = set.compile_at(0, &fx.schema).unwrap();
        let g = CandidatesGenerator {
            model: &fx.model,
            delta: 0.5,
            origin: &rich,
            constraint: &c,
            schema: &fx.schema,
            scales: &fx.scales,
            time_index: 2,
        };
        let cands = g.generate(&CandidateParams::default());
        assert!(cands.iter().any(|c| c.gap == 0 && c.diff == 0.0));
        assert!(cands.iter().all(|c| c.time_index == 2));
    }

    #[test]
    fn refinement_reduces_diff_without_losing_feasibility() {
        let fx = fixture();
        let c = constraint_for(&fx, None);
        let raw = run(
            &fx,
            &c,
            &CandidateParams {
                refine: false,
                diversity_lambda: 0.0,
                ..Default::default()
            },
        );
        let refined = run(
            &fx,
            &c,
            &CandidateParams {
                refine: true,
                diversity_lambda: 0.0,
                ..Default::default()
            },
        );
        assert!(!raw.is_empty() && !refined.is_empty());
        let best = |cs: &[Candidate]| {
            cs.iter()
                .filter(|c| c.gap > 0)
                .map(|c| c.diff)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(
            best(&refined) <= best(&raw) + 1e-9,
            "refinement must not worsen best diff: {} vs {}",
            best(&refined),
            best(&raw)
        );
        // Refined candidates must still be decision-altering and feasible.
        for cand in &refined {
            assert!(cand.confidence > 0.5);
            assert!(fx.schema.row_in_bounds(&cand.profile));
        }
    }

    #[test]
    fn opaque_model_fallback_works() {
        use jit_ml::model::ConstantModel;
        // A model with no hints and a score the search cannot move: the
        // origin (score 0.7 > delta 0.5) itself is the only candidate.
        let fx = fixture();
        let constant = ConstantModel::new(6, 0.7);
        let (set, _) = jit_constraints::set::domain_constraints(&fx.schema);
        let c = set.compile_at(0, &fx.schema).unwrap();
        let g = CandidatesGenerator {
            model: &constant,
            delta: 0.5,
            origin: &fx.origin,
            constraint: &c,
            schema: &fx.schema,
            scales: &fx.scales,
            time_index: 0,
        };
        let cands = g.generate(&CandidateParams::default());
        assert!(!cands.is_empty());
        // Everything is "altering" under a constant 0.7 model; diverse
        // selection must still respect top_k.
        assert!(cands.len() <= CandidateParams::default().top_k);
    }

    #[test]
    fn linear_hints_drive_gradient_moves() {
        use jit_temporal::future::LinearScoreModel;
        let fx = fixture();
        // Score rises with income (w=+1e-4) and falls with debt (w=-1e-3).
        let mut w = vec![0.0; 6];
        w[idx::INCOME] = 1e-4;
        w[idx::DEBT] = -1e-3;
        let model = LinearScoreModel::new(w, -4.0);
        let (set, _) = jit_constraints::set::domain_constraints(&fx.schema);
        let c = set.compile_at(0, &fx.schema).unwrap();
        let g = CandidatesGenerator {
            model: &model,
            delta: 0.5,
            origin: &fx.origin,
            constraint: &c,
            schema: &fx.schema,
            scales: &fx.scales,
            time_index: 0,
        };
        let cands = g.generate(&CandidateParams::default());
        assert!(!cands.is_empty(), "gradient moves should reach approval");
        // The moves must have gone the right way: income up or debt down.
        for cand in &cands {
            assert!(
                cand.profile[idx::INCOME] >= fx.origin[idx::INCOME] - 1e-6
                    || cand.profile[idx::DEBT] <= fx.origin[idx::DEBT] + 1e-6
            );
        }
    }
}
