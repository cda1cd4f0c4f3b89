//! Sharding: the per-shard [`Shard`] cell, and [`ShardedEngine`] —
//! `S` shards behind one [`FilterEngine`] face.
//!
//! Partitioning subscriptions across independent engine shards is the
//! standard route to write-scalable content-based matching: each
//! subscribe/unsubscribe touches exactly one shard, and each shard is
//! just a smaller engine, so per-event phase-2 cost per shard shrinks
//! with `S`.
//!
//! A [`Shard`] is one engine plus the two read-side structures matching
//! consults — its local → global [`ShardTranslation`] and its
//! [`ShardSynopsis`] — and it is the **only** code that writes those
//! three in lockstep: registration, retirement, the move step of live
//! migration, and the prune → match → translate step of every publish
//! path. Both owners of shards build on it:
//!
//! * [`ShardedEngine`] holds a plain `Vec<Shard>` and is itself a
//!   [`FilterEngine`], so the sweep harness, tests and any
//!   single-threaded caller use the partitioning transparently. Its
//!   shard set is static: placement is load-aware (least-loaded shard,
//!   round-robin tie-break, or clustered by attribute), but nothing is
//!   ever moved.
//! * `boolmatch-broker` holds each shard behind its own `RwLock` and
//!   owns the concurrent algorithms — live migration, rebalancing,
//!   resizing and the parallel publish fan-out.
//!
//! Routing splits across two structures. The write-side
//! [`SubscriptionDirectory`] issues global ids in arrival order (the
//! *n*-th accepted subscription gets global id *n*, exactly as an
//! unsharded engine would assign — the shard-equivalence property
//! tests rely on this) and maps each id to whatever `(shard, local)`
//! slot currently backs it. Each shard's own translation map is all
//! matching ever consults: translating a matched local id touches only
//! the shard that produced it, never the directory.
//!
//! # Examples
//!
//! ```
//! use boolmatch_core::{EngineKind, FilterEngine, Matcher, ShardedEngine};
//! use boolmatch_expr::Expr;
//! use boolmatch_types::Event;
//!
//! let mut engine = Matcher::new(ShardedEngine::new(EngineKind::NonCanonical, 4));
//! let id = engine.subscribe(&Expr::parse("(a = 1 or b = 2) and c = 3")?)?;
//! let event = Event::builder().attr("b", 2_i64).attr("c", 3_i64).build();
//! assert_eq!(engine.match_event(&event).matched, vec![id]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::ops::DerefMut;
use std::sync::Arc;

use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::engine::{EngineKind, FilterEngine, SubscribeError, UnsubscribeError};
use crate::routing::{PlacementPolicy, PredicateRouter, ShardTranslation, SubscriptionDirectory};
use crate::synopsis::ShardSynopsis;
use crate::{BatchScratch, FulfilledSet, MatchScratch, MatchStats, MemoryUsage, SubscriptionId};

/// A boxed engine usable as a shard.
pub type BoxedEngine = Box<dyn FilterEngine + Send + Sync>;

/// One shard: its engine, the local → global translation map, and the
/// attribute synopsis pruning reads.
///
/// Keeping the read-side structures *with* the shard (instead of in the
/// shared directory) is what keeps the publish path off any shared
/// state: an owner that guards a `Shard` with one lock matches,
/// prunes and translates under that lock alone. The three structures
/// are private, so every write goes through the methods below and they
/// can never drift apart.
pub struct Shard {
    engine: BoxedEngine,
    translation: ShardTranslation,
    /// Conservative summary of the residents' required conjuncts;
    /// maintained in lockstep with `translation` so matching can skip
    /// the shard when it provably holds zero candidates.
    synopsis: ShardSynopsis,
}

impl Shard {
    /// An empty shard around `engine`.
    pub fn new(engine: BoxedEngine) -> Self {
        Shard {
            engine,
            translation: ShardTranslation::new(),
            synopsis: ShardSynopsis::new(),
        }
    }

    /// The shard's engine, for inspection.
    pub fn engine(&self) -> &(dyn FilterEngine + Send + Sync) {
        &*self.engine
    }

    /// The shard's local → global translation map, for inspection.
    pub fn translation(&self) -> &ShardTranslation {
        &self.translation
    }

    /// The shard's attribute synopsis, for inspection.
    pub fn synopsis(&self) -> &ShardSynopsis {
        &self.synopsis
    }

    /// Heap bytes of the routing structures the shard adds to its
    /// engine — translation map plus synopsis (the engine reports its
    /// own through [`FilterEngine::memory_usage`]).
    pub fn heap_bytes(&self) -> usize {
        self.translation.heap_bytes() + self.synopsis.heap_bytes()
    }

    /// Registers `expr` on the engine, then calls `commit` with the
    /// engine-assigned local id to issue the global id (the directory
    /// step), and records the pair in the translation map and the
    /// synopsis. Returns the global id.
    ///
    /// # Errors
    ///
    /// Returns the engine's [`SubscribeError`]; `commit` is then never
    /// called and the shard is unchanged.
    pub fn subscribe(
        &mut self,
        expr: &Expr,
        commit: impl FnOnce(SubscriptionId) -> SubscriptionId,
    ) -> Result<SubscriptionId, SubscribeError> {
        let local = self.engine.subscribe(expr)?;
        let global = commit(local);
        self.translation.set(local, global);
        self.synopsis.insert(local, expr);
        Ok(global)
    }

    /// Removes `local` from the shard — engine, translation and
    /// synopsis — provided its translation entry still names `global`.
    /// Returns `false`, changing nothing, when it does not: the slot was
    /// already retired (or re-used by a later subscription).
    ///
    /// # Panics
    ///
    /// Panics if the engine refuses to remove a local id the
    /// translation map holds (the two are out of sync).
    pub fn retire(&mut self, local: SubscriptionId, global: SubscriptionId) -> bool {
        if !self.translation.clear_if(local, global) {
            return false;
        }
        self.engine
            .unsubscribe(local)
            .expect("translation and shard engine are kept in sync");
        self.synopsis.remove(local);
        true
    }

    /// The move step of live migration: re-subscribes `expr` (the
    /// subscription `global`, resident here as `local`) on `target`,
    /// then asks `commit` to repoint the directory to the new local id.
    /// When `commit` agrees, the source entry is retired and `target`'s
    /// translation and synopsis take over — `Ok(true)`. When it refuses
    /// (the subscription was retired meanwhile), the target-side copy
    /// is undone and nothing changed — `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Returns the target engine's [`SubscribeError`] when it refuses
    /// the expression; `commit` is then never called.
    ///
    /// # Panics
    ///
    /// Panics if an engine refuses to remove a local id it just
    /// registered or the translation map holds.
    pub fn move_to(
        &mut self,
        target: &mut Shard,
        global: SubscriptionId,
        local: SubscriptionId,
        expr: &Expr,
        commit: impl FnOnce(SubscriptionId) -> bool,
    ) -> Result<bool, SubscribeError> {
        let new_local = target.engine.subscribe(expr)?;
        if !commit(new_local) {
            target
                .engine
                .unsubscribe(new_local)
                .expect("the fresh target copy is removable");
            return Ok(false);
        }
        self.engine
            .unsubscribe(local)
            .expect("directory and shard engines are kept in sync");
        let cleared = self.translation.clear_if(local, global);
        debug_assert!(cleared, "relocated entries were resident");
        self.synopsis.remove(local);
        target.translation.set(new_local, global);
        target.synopsis.insert(new_local, expr);
        Ok(true)
    }

    // lint: hot-path — the prune → match → translate step every publish
    // path runs per shard: shard-local state only.

    /// Prune → match → translate for one event. When the synopsis
    /// proves zero candidates the shard is skipped —
    /// [`MatchStats::shards_pruned`] is 1 and `scratch` is never called,
    /// so a pruned shard acquires no scratch. Otherwise `scratch`
    /// supplies the match scratch (the caller's own, or a pool lease),
    /// the engine matches into it, and its matched ids are rewritten in
    /// place to global ids; a local id with no translation entry (its
    /// subscription was retired concurrently) is dropped. The scratch
    /// is handed back so the caller can read
    /// [`MatchScratch::matched`].
    pub fn match_event<S: DerefMut<Target = MatchScratch>>(
        &self,
        event: &Event,
        scratch: impl FnOnce(&(dyn FilterEngine + Send + Sync)) -> S,
    ) -> (MatchStats, Option<S>) {
        if !self.synopsis.admits(event) {
            let pruned = MatchStats {
                shards_pruned: 1,
                ..MatchStats::default()
            };
            return (pruned, None);
        }
        let mut scratch = scratch(&*self.engine);
        let stats = self.engine.match_event_into(event, &mut scratch);
        scratch.translate_matched(|local| self.translation.global_of(local));
        (stats, Some(scratch))
    }

    /// [`Shard::match_event`] for a batch: the synopsis fills
    /// `shard_skip` with the events this shard provably cannot match
    /// (or-ed with the caller's `skip`; one
    /// [`MatchStats::shards_pruned`] per pruned event), and only when
    /// at least one event survives is `scratch` called and the engine's
    /// batch kernel run. Each event's matched ids are translated in
    /// place like the per-event path's.
    pub fn match_batch<S: DerefMut<Target = BatchScratch>>(
        &self,
        events: &[Arc<Event>],
        skip: &[bool],
        shard_skip: &mut Vec<bool>,
        scratch: impl FnOnce(&(dyn FilterEngine + Send + Sync)) -> S,
    ) -> (MatchStats, Option<S>) {
        let mut stats = MatchStats {
            shards_pruned: self.synopsis.admits_batch(events, skip, shard_skip),
            ..MatchStats::default()
        };
        if shard_skip.iter().all(|&sk| sk) {
            return (stats, None);
        }
        let mut batch = scratch(&*self.engine);
        stats = stats + self.engine.match_batch(events, shard_skip, &mut batch);
        for matched in batch.matched.iter_mut().take(events.len()) {
            matched.retain_mut(|id| match self.translation.global_of(*id) {
                Some(global) => {
                    *id = global;
                    true
                }
                None => false,
            });
        }
        (stats, Some(batch))
    }

    // lint: end-hot-path
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard")
            .field("kind", &self.engine.kind())
            .field("subscriptions", &self.translation.len())
            .finish()
    }
}

/// `S` inner engines composed into one [`FilterEngine`].
///
/// * `subscribe` places through the [`SubscriptionDirectory`] under the
///   engine's [`PlacementPolicy`] (least-loaded by default, with a
///   round-robin tie-break, so a churn-free stream places exactly like
///   classic round-robin); `unsubscribe` routes by directory lookup to
///   the owning shard.
/// * Matching runs every shard against the event and merges the
///   results: matched ids are translated to the global id space through
///   each shard's own map, [`MatchStats`] and [`MemoryUsage`] are
///   summed component-wise (per-shard work adds up — e.g. `fulfilled`
///   counts each shard's own phase-1 output, since shards intern
///   predicates independently).
/// * With `S = 1` placement is trivial and behaviour is
///   indistinguishable from the inner engine.
///
/// The shard set is static: live migration, resizing and parallel
/// fan-out belong to the broker, which guards each [`Shard`] with its
/// own lock.
pub struct ShardedEngine {
    directory: SubscriptionDirectory,
    shards: Vec<Shard>,
    /// Stride router for the per-shard *predicate* spaces.
    pred_router: PredicateRouter,
    /// How `subscribe` picks a shard; see [`PlacementPolicy`].
    placement: PlacementPolicy,
}

impl ShardedEngine {
    /// `shards` fresh engines of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(kind: EngineKind, shards: usize) -> Self {
        Self::from_engines((0..shards).map(|_| kind.build()).collect())
    }

    /// Like [`ShardedEngine::new`], but retired global ids are reissued
    /// (LIFO) instead of growing the directory forever: under unbounded
    /// churn the id table stays bounded by the high-water live count.
    /// The trade-offs: ids no longer align with a flat engine's
    /// arrival-order ids, and a caller holding a stale id can collide
    /// with its new owner — so this stays an explicit engine-level
    /// opt-in.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_recycled_ids(kind: EngineKind, shards: usize) -> Self {
        let mut engine = Self::new(kind, shards);
        engine.directory = SubscriptionDirectory::with_recycled_ids(shards);
        engine
    }

    /// Composes pre-built (possibly custom or heterogeneous) engines;
    /// shard `i` is `engines[i]`. [`ShardedEngine::kind`] reports the
    /// first engine's kind.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn from_engines(engines: Vec<BoxedEngine>) -> Self {
        ShardedEngine {
            directory: SubscriptionDirectory::new(engines.len()),
            pred_router: PredicateRouter::new(engines.len()),
            shards: engines.into_iter().map(Shard::new).collect(),
            placement: PlacementPolicy::default(),
        }
    }

    /// Sets the [`PlacementPolicy`] subsequent subscribes use. Existing
    /// placements are untouched.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// The policy `subscribe` currently places with.
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.placement
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global-id directory (placements, loads, free list), for
    /// inspection.
    pub fn directory(&self) -> &SubscriptionDirectory {
        &self.directory
    }

    /// Shard `i`'s engine, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard(&self, i: usize) -> &(dyn FilterEngine + Send + Sync) {
        self.shards[i].engine()
    }

    /// Shard `i`'s local → global translation map, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn translation(&self, i: usize) -> &ShardTranslation {
        self.shards[i].translation()
    }

    /// Shard `i`'s attribute synopsis, for inspection (the conservative
    /// candidate summary matching prunes against).
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn synopsis(&self, i: usize) -> &ShardSynopsis {
        self.shards[i].synopsis()
    }

    /// Live subscriptions per shard, as the shard engines report them.
    /// Always equal to the directory's
    /// [`loads`](SubscriptionDirectory::loads); kept as an independent
    /// probe of that invariant.
    pub fn shard_subscription_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.engine().subscription_count())
            .collect()
    }
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("kind", &self.kind())
            .field("shards", &self.shards.len())
            .field("subscriptions", &self.subscription_count())
            .finish()
    }
}

impl FilterEngine for ShardedEngine {
    fn kind(&self) -> EngineKind {
        self.shards[0].engine().kind()
    }

    fn subscribe(&mut self, expr: &Expr) -> Result<SubscriptionId, SubscribeError> {
        let shard = self.directory.place_for(self.placement, expr);
        let directory = &mut self.directory;
        let result = self.shards[shard].subscribe(expr, |local| {
            directory.commit(shard, local, Arc::new(expr.clone()))
        });
        if result.is_err() {
            self.directory.cancel(shard);
        }
        result
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), UnsubscribeError> {
        let Some((shard, local, _expr)) = self.directory.retire(id) else {
            // Errors surface in the caller's (global) id space.
            return Err(UnsubscribeError::UnknownSubscription(id));
        };
        let retired = self.shards[shard].retire(local, id);
        debug_assert!(retired, "translation and directory are kept in sync");
        Ok(())
    }

    fn phase1(&self, event: &Event, out: &mut FulfilledSet) {
        out.begin(self.predicate_universe());
        // The standalone split needs a temporary per-shard set (there
        // is no scratch in phase 1's signature); the hot path —
        // `match_event_into` — never materialises global predicate ids.
        let mut local = FulfilledSet::new();
        for (s, shard) in self.shards.iter().enumerate() {
            shard.engine().phase1(event, &mut local);
            for &id in local.ids() {
                out.insert(self.pred_router.global_pred(s, id));
            }
        }
    }

    fn phase2(
        &self,
        fulfilled: &FulfilledSet,
        scratch: &mut MatchScratch,
        matched: &mut Vec<SubscriptionId>,
    ) -> MatchStats {
        matched.clear();
        let mut local = std::mem::take(&mut scratch.shard_fulfilled);
        let mut shard_out = std::mem::take(&mut scratch.shard_matched);
        let mut stats = MatchStats::default();
        for (s, shard) in self.shards.iter().enumerate() {
            // Project the global fulfilled set onto this shard's
            // predicate space.
            let engine = shard.engine();
            let universe = engine.predicate_universe();
            local.begin(universe);
            for &g in fulfilled.ids() {
                let (owner, pred) = self.pred_router.split_pred(g);
                if owner == s && pred.index() < universe {
                    local.insert(pred);
                }
            }
            let shard_stats = engine.phase2(&local, scratch, &mut shard_out);
            let before = matched.len();
            matched.extend(
                shard_out
                    .iter()
                    .filter_map(|&l| shard.translation().global_of(l)),
            );
            debug_assert_eq!(
                matched.len() - before,
                shard_stats.matched,
                "matched locals hold live translation entries"
            );
            stats = stats + shard_stats;
        }
        scratch.shard_fulfilled = local;
        scratch.shard_matched = shard_out;
        stats
    }

    // lint: hot-path — the sequential matching walk, including the
    // synopsis prune decision: per-shard state only, no global locks.
    fn match_event_into(&self, event: &Event, scratch: &mut MatchScratch) -> MatchStats {
        // Each shard matches into `scratch.matched` and translates it in
        // place; the global ids accumulate in the `shard_matched`
        // buffer, which then trades places with `matched` — no
        // allocation in steady state.
        let mut acc = std::mem::take(&mut scratch.shard_matched);
        acc.clear();
        let mut stats = MatchStats::default();
        for shard in &self.shards {
            let reborrow = &mut *scratch;
            let (shard_stats, matched) = shard.match_event(event, move |_| reborrow);
            if let Some(matched) = matched {
                debug_assert_eq!(
                    matched.matched.len(),
                    shard_stats.matched,
                    "matched locals hold live translation entries"
                );
                acc.extend_from_slice(&matched.matched);
            }
            stats = stats + shard_stats;
        }
        scratch.shard_matched = std::mem::replace(&mut scratch.matched, acc);
        stats
    }

    fn match_batch(
        &self,
        events: &[Arc<Event>],
        skip: &[bool],
        batch: &mut BatchScratch,
    ) -> MatchStats {
        // Per shard: prune the whole batch through the synopsis once,
        // then hand the surviving events to the shard engine's batch
        // kernel in one call — the association tables are walked once
        // per (shard, chunk) instead of once per (shard, event). Each
        // shard's translated ids are appended to the per-event
        // accumulator, which finally trades places with
        // `batch.matched`, so the per-event sets equal the per-event
        // walk's.
        let mut acc = std::mem::take(&mut batch.shard_matched);
        if acc.len() < events.len() {
            acc.resize_with(events.len(), Vec::new);
        }
        for m in acc.iter_mut().take(events.len()) {
            m.clear();
        }
        let mut shard_skip = std::mem::take(&mut batch.shard_skip);
        let mut stats = MatchStats::default();
        for shard in &self.shards {
            let reborrow = &mut *batch;
            let (shard_stats, matched) =
                shard.match_batch(events, skip, &mut shard_skip, move |_| reborrow);
            if let Some(matched) = matched {
                let mut kept = 0;
                for (out, ids) in acc.iter_mut().zip(&matched.matched).take(events.len()) {
                    out.extend_from_slice(ids);
                    kept += ids.len();
                }
                debug_assert_eq!(
                    kept, shard_stats.matched,
                    "matched locals hold live translation entries"
                );
            }
            stats = stats + shard_stats;
        }
        batch.shard_matched = std::mem::replace(&mut batch.matched, acc);
        batch.shard_skip = shard_skip;
        stats
    }
    // lint: end-hot-path

    fn subscription_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine().subscription_count())
            .sum()
    }

    fn subscription_id_bound(&self) -> usize {
        // Scratch buffers serve two id spaces here: global ids (the
        // directory's issued slot bound) and each shard's local ids
        // (the inner phase-2 stamp space). Cover both.
        self.shards
            .iter()
            .map(|s| s.engine().subscription_id_bound())
            .max()
            .unwrap_or(0)
            .max(self.directory.id_bound())
    }

    fn registered_units(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine().registered_units())
            .sum()
    }

    fn unit_slot_bound(&self) -> usize {
        // Shards are matched sequentially against one scratch, and each
        // shard indexes the hit vector in its *own* slot space — the
        // per-shard maximum is exactly what pre-sizing needs.
        self.shards
            .iter()
            .map(|s| s.engine().unit_slot_bound())
            .max()
            .unwrap_or(0)
    }

    fn predicate_count(&self) -> usize {
        // Shards intern independently: a predicate shared by
        // subscriptions on different shards is counted once per shard.
        self.shards
            .iter()
            .map(|s| s.engine().predicate_count())
            .sum()
    }

    fn predicate_universe(&self) -> usize {
        self.pred_router
            .global_bound(self.shards.iter().map(|s| s.engine().predicate_universe()))
    }

    fn memory_usage(&self) -> MemoryUsage {
        // The sharding layer's own overhead — the write-side directory
        // (slot table + stored expressions) plus every shard's
        // translation map and attribute synopsis — is reported as
        // unsubscription/rebalancing support.
        let routing = MemoryUsage {
            unsub_support: self.directory.heap_bytes()
                + self.shards.iter().map(Shard::heap_bytes).sum::<usize>(),
            ..MemoryUsage::default()
        };
        self.shards
            .iter()
            .map(|s| s.engine().memory_usage())
            .fold(routing, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matcher;

    fn ev(pairs: &[(&str, i64)]) -> Event {
        Event::from_pairs(pairs.iter().map(|(n, v)| (*n, *v)))
    }

    fn exprs(n: usize) -> Vec<Expr> {
        (0..n)
            .map(|i| {
                Expr::parse(&format!(
                    "(group = {} or boost = 1) and tick >= {}",
                    i % 5,
                    i
                ))
                .unwrap()
            })
            .collect()
    }

    /// Sorted matched ids of `engine` for `event`.
    fn matched(engine: &ShardedEngine, event: &Event) -> Vec<SubscriptionId> {
        let mut scratch = MatchScratch::new();
        let mut ids = engine.match_event(event, &mut scratch).matched;
        ids.sort_unstable();
        ids
    }

    #[test]
    fn global_ids_follow_arrival_order() {
        for shards in [1usize, 3, 8] {
            let mut engine = ShardedEngine::new(EngineKind::NonCanonical, shards);
            for n in 0..20 {
                let id = engine.subscribe(&exprs(20)[n]).unwrap();
                assert_eq!(id.index(), n, "shards={shards}");
            }
            assert_eq!(engine.subscription_count(), 20);
        }
    }

    #[test]
    fn churn_free_placement_matches_round_robin() {
        let mut engine = ShardedEngine::new(EngineKind::Counting, 4);
        for e in exprs(10) {
            engine.subscribe(&e).unwrap();
        }
        assert_eq!(engine.shard_subscription_counts(), vec![3, 3, 2, 2]);
        assert_eq!(engine.directory().loads(), &[3, 3, 2, 2]);
    }

    #[test]
    fn drained_shard_is_refilled_first() {
        // The churn-skew regression: the old blind round-robin cursor
        // kept striding past a shard emptied by unsubscribes; the
        // least-loaded placement must refill it.
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 4);
        let ids: Vec<_> = exprs(12)
            .iter()
            .map(|e| engine.subscribe(e).unwrap())
            .collect();
        // Shard 2 holds arrivals 2, 6, 10; drain it.
        for &i in &[2usize, 6, 10] {
            engine.unsubscribe(ids[i]).unwrap();
        }
        assert_eq!(engine.shard_subscription_counts(), vec![3, 3, 0, 3]);
        for e in &exprs(15)[12..] {
            let id = engine.subscribe(e).unwrap();
            let (shard, _) = engine.directory().placement_of(id).unwrap();
            assert_eq!(shard, 2, "new subscriptions refill the drained shard");
        }
        assert_eq!(engine.shard_subscription_counts(), vec![3, 3, 3, 3]);
        assert!(engine.directory().is_balanced());
    }

    #[test]
    fn matches_agree_with_unsharded_engine() {
        for kind in EngineKind::ALL {
            for shards in [1usize, 3] {
                let mut flat = Matcher::new(kind.build());
                let mut sharded = Matcher::new(ShardedEngine::new(kind, shards));
                for e in exprs(16) {
                    let a = flat.subscribe(&e).unwrap();
                    let b = sharded.subscribe(&e).unwrap();
                    assert_eq!(a, b);
                }
                for t in 0..40 {
                    let event = ev(&[("group", t % 5), ("tick", t * 2)]);
                    let mut a = flat.match_event(&event).matched;
                    let mut b = sharded.match_event(&event).matched;
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "kind={kind} shards={shards} t={t}");
                }
            }
        }
    }

    #[test]
    fn batch_agrees_with_per_event_walk() {
        // Sequential match_batch and the per-event walk must agree on
        // ids (as per-event sets) and on summed stats — including
        // shards_pruned, which the batch path accounts per (event,
        // shard) through the synopsis.
        for kind in EngineKind::ALL {
            for shards in [1usize, 3, 8] {
                let mut engine = ShardedEngine::new(kind, shards)
                    .with_placement(PlacementPolicy::ClusterByAttribute);
                for i in 0..48 {
                    let e = Expr::parse(&format!("g{} = 1 and seq >= {}", i % 8, i / 8)).unwrap();
                    engine.subscribe(&e).unwrap();
                }
                let events: Vec<Arc<Event>> = (0..150)
                    .map(|t| {
                        Arc::new(Event::from_pairs([
                            (format!("g{}", t % 8), 1i64),
                            ("seq".to_string(), (t % 7) as i64),
                        ]))
                    })
                    .collect();
                let mut scratch = MatchScratch::new();
                let mut scalar_total = MatchStats::default();
                let mut want: Vec<Vec<SubscriptionId>> = Vec::new();
                for event in &events {
                    scalar_total = scalar_total + engine.match_event_into(event, &mut scratch);
                    let mut ids = scratch.matched().to_vec();
                    ids.sort_unstable();
                    want.push(ids);
                }

                let mut batch = BatchScratch::new();
                let mut stats = engine.match_batch(&events, &[], &mut batch);
                for (e, want_ids) in want.iter().enumerate() {
                    let mut got = batch.matched(e).to_vec();
                    got.sort_unstable();
                    assert_eq!(&got, want_ids, "kind={kind} shards={shards} event {e}");
                }
                stats.batch_events = 0;
                stats.batch_passes = 0;
                assert_eq!(stats, scalar_total, "kind={kind} shards={shards}");
            }
        }
    }

    #[test]
    fn batch_skip_mask_composes_with_shard_pruning() {
        let mut engine = ShardedEngine::new(EngineKind::Counting, 4)
            .with_placement(PlacementPolicy::ClusterByAttribute);
        for i in 0..16 {
            let e = Expr::parse(&format!("g{} = 1", i % 4)).unwrap();
            engine.subscribe(&e).unwrap();
        }
        let events: Vec<Arc<Event>> = (0..8)
            .map(|t| Arc::new(Event::from_pairs([(format!("g{}", t % 4), 1i64)])))
            .collect();
        let skip = [false, true, false, true, false, true, false, true];
        let mut batch = BatchScratch::new();
        let stats = engine.match_batch(&events, &skip, &mut batch);
        assert_eq!(stats.batch_events, 4);
        for (e, &skipped) in skip.iter().enumerate() {
            assert_eq!(batch.matched(e).is_empty(), skipped, "event {e}");
        }
        // Each live event candidates one shard; the other 3 are pruned
        // per event (4 live events × 3 shards), and caller-skipped
        // events never count as pruned.
        assert_eq!(stats.shards_pruned, 12);
    }

    #[test]
    fn unsubscribe_routes_to_owning_shard() {
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 3);
        let ids: Vec<_> = exprs(9)
            .iter()
            .map(|e| engine.subscribe(e).unwrap())
            .collect();
        engine.unsubscribe(ids[4]).unwrap();
        assert_eq!(engine.subscription_count(), 8);
        assert_eq!(engine.shard_subscription_counts(), vec![3, 2, 3]);
        // Stale and never-issued global ids fail in the global space.
        assert_eq!(
            engine.unsubscribe(ids[4]),
            Err(UnsubscribeError::UnknownSubscription(ids[4]))
        );
        let bogus = SubscriptionId::from_index(1000);
        assert_eq!(
            engine.unsubscribe(bogus),
            Err(UnsubscribeError::UnknownSubscription(bogus))
        );
        // The event for a removed subscription no longer matches it.
        let mut m = Matcher::new(engine);
        let matched = m.match_event(&ev(&[("group", 4), ("tick", 100)])).matched;
        assert!(!matched.contains(&ids[4]));
    }

    #[test]
    fn migration_keeps_ids_and_matches_stable() {
        for kind in EngineKind::ALL {
            let mut engine = ShardedEngine::new(kind, 2);
            let ids: Vec<_> = exprs(8)
                .iter()
                .map(|e| engine.subscribe(e).unwrap())
                .collect();
            let event = ev(&[("boost", 1), ("tick", 100)]);
            let before = matched(&engine, &event);
            assert_eq!(before.len(), 8, "every live subscription matches");

            // A refused commit (the subscription was retired meanwhile)
            // undoes the target-side copy and changes nothing.
            let (global, local) = engine.shards[0].translation().last_resident().unwrap();
            let expr = Arc::clone(engine.directory.expr_of(global).unwrap());
            let (source, target) = engine.shards.split_at_mut(1);
            assert_eq!(
                source[0].move_to(&mut target[0], global, local, &expr, |_| false),
                Ok(false)
            );
            assert_eq!(engine.shard_subscription_counts(), vec![4, 4]);
            assert_eq!(engine.synopsis(1).live(), 4);
            assert_eq!(matched(&engine, &event), before, "kind={kind}");

            // Committed moves — directory first, as the broker's live
            // migration commits — drain shard 0 without touching any id.
            while let Some((global, local)) = engine.shards[0].translation().last_resident() {
                let expr = Arc::clone(engine.directory.expr_of(global).unwrap());
                let (source, target) = engine.shards.split_at_mut(1);
                let directory = &mut engine.directory;
                let moved = source[0].move_to(&mut target[0], global, local, &expr, |new_local| {
                    directory.relocate(global, 0, local, 1, new_local)
                });
                assert_eq!(moved, Ok(true));
            }
            assert_eq!(engine.directory().loads(), &[0, 8]);
            assert_eq!(engine.shard_subscription_counts(), vec![0, 8]);
            assert_eq!(engine.synopsis(0).live(), 0);
            assert_eq!(engine.synopsis(1).live(), 8);
            assert!(engine.translation(0).is_empty());
            assert_eq!(matched(&engine, &event), before, "kind={kind}");

            // Ids survived the moves: unsubscribe still routes.
            engine.unsubscribe(ids[0]).unwrap();
            assert_eq!(engine.subscription_count(), 7);
        }
    }

    #[test]
    fn standalone_phases_agree_with_match_event() {
        for kind in EngineKind::ALL {
            let mut engine = ShardedEngine::new(kind, 3);
            for e in exprs(12) {
                engine.subscribe(&e).unwrap();
            }
            let mut scratch = MatchScratch::new();
            for t in 0..20 {
                let event = ev(&[("group", t % 5), ("tick", t * 3)]);
                let mut expect = engine.match_event(&event, &mut scratch).matched;

                // Global-id phase 1 output fed through global-id phase 2
                // must reach the same answer.
                let mut fulfilled = FulfilledSet::new();
                engine.phase1(&event, &mut fulfilled);
                let mut got = Vec::new();
                let stats = engine.phase2(&fulfilled, &mut scratch, &mut got);

                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(expect, got, "kind={kind} t={t}");
                assert_eq!(stats.matched, got.len());
                assert_eq!(stats.fulfilled, fulfilled.len());
            }
        }
    }

    #[test]
    fn merged_accounting_sums_over_shards() {
        let mut engine = ShardedEngine::new(EngineKind::Counting, 4);
        for e in exprs(12) {
            engine.subscribe(&e).unwrap();
        }
        let per_shard: Vec<_> = (0..4).map(|i| engine.shard(i)).collect();
        assert_eq!(
            engine.registered_units(),
            per_shard
                .iter()
                .map(|s| s.registered_units())
                .sum::<usize>()
        );
        assert_eq!(
            engine.predicate_count(),
            per_shard.iter().map(|s| s.predicate_count()).sum::<usize>()
        );
        let translation_bytes: usize = (0..4).map(|i| engine.translation(i).heap_bytes()).sum();
        let synopsis_bytes: usize = (0..4).map(|i| engine.synopsis(i).heap_bytes()).sum();
        assert_eq!(
            engine.memory_usage().total(),
            per_shard
                .iter()
                .map(|s| s.memory_usage().total())
                .sum::<usize>()
                + engine.directory().heap_bytes()
                + translation_bytes
                + synopsis_bytes,
            "engine totals plus the directory, translation maps, and synopses"
        );
        assert!(engine.directory().heap_bytes() > 0);
        assert!(
            translation_bytes > 0,
            "per-shard reverse maps are charged, not free"
        );
        assert!(
            synopsis_bytes > 0,
            "attribute synopses are charged, not free"
        );
        assert!(engine.subscription_id_bound() >= 12);
        assert!(engine.predicate_universe() > 0);
        assert!(engine.unit_slot_bound() > 0);
        let dbg = format!("{engine:?}");
        assert!(dbg.contains("shards: 4"));
    }

    #[test]
    fn pruning_skips_zero_candidate_shards_and_preserves_matches() {
        // Clustered placement on a partitionable workload: every
        // subscription's dominant equality attribute names its group, so
        // each group lands on one shard and an event carrying a single
        // group attribute can candidate at most one shard (plus any
        // always-candidate shards — none here).
        for kind in EngineKind::ALL {
            let mut flat = Matcher::new(kind.build());
            let mut engine =
                ShardedEngine::new(kind, 8).with_placement(PlacementPolicy::ClusterByAttribute);
            assert_eq!(
                engine.placement_policy(),
                PlacementPolicy::ClusterByAttribute
            );
            for i in 0..64 {
                let e = Expr::parse(&format!("g{} = 1 and seq >= {}", i % 8, i / 8)).unwrap();
                let a = flat.subscribe(&e).unwrap();
                let b = engine.subscribe(&e).unwrap();
                assert_eq!(a, b, "arrival-order ids stay aligned");
            }
            let mut seq = MatchScratch::new();
            let mut pruned_total = 0usize;
            for g in 0..8i64 {
                let event = Event::from_pairs([(format!("g{g}"), 1i64), ("seq".to_string(), 3i64)]);
                let flat_ids = {
                    let mut ids = flat.match_event(&event).matched;
                    ids.sort_unstable();
                    ids
                };
                let seq_stats = engine.match_event_into(&event, &mut seq);
                let mut got = seq.matched().to_vec();
                got.sort_unstable();
                assert_eq!(got, flat_ids, "pruning changed the answer, kind={kind}");
                pruned_total += seq_stats.shards_pruned;
                assert!(
                    seq_stats.shards_pruned >= 7,
                    "clustering confines g{g} to one shard, kind={kind}: \
                     pruned only {}",
                    seq_stats.shards_pruned
                );
            }
            assert!(pruned_total > 0);
            // A flat engine never reports pruning.
            assert_eq!(
                flat.match_event(&ev(&[("g0", 1), ("seq", 3)]))
                    .stats
                    .shards_pruned,
                0
            );
        }
    }

    #[test]
    fn disjunctive_subscriptions_keep_every_shard_candidate() {
        // Top-level `or` defeats per-attribute summarisation; the
        // synopsis must fall back to always-candidate rather than
        // guess — conservativeness over pruning power.
        let mut engine = ShardedEngine::new(EngineKind::NonCanonical, 4);
        for i in 0..8 {
            engine
                .subscribe(&Expr::parse(&format!("a = {i} or b = {i}")).unwrap())
                .unwrap();
        }
        let mut scratch = MatchScratch::new();
        let stats = engine.match_event(&ev(&[("zzz", 99)]), &mut scratch).stats;
        assert_eq!(
            stats.shards_pruned, 0,
            "or-rooted residents pin their shard"
        );
    }

    #[test]
    fn empty_shards_are_always_pruned() {
        let mut engine = ShardedEngine::new(EngineKind::Counting, 4);
        engine.subscribe(&Expr::parse("k = 1").unwrap()).unwrap();
        let mut scratch = MatchScratch::new();
        let stats = engine.match_event(&ev(&[("k", 1)]), &mut scratch).stats;
        assert_eq!(stats.matched, 1);
        assert_eq!(stats.shards_pruned, 3, "three empty shards skipped");
    }

    #[test]
    fn recycled_ids_bound_the_directory_under_churn() {
        let mut engine = ShardedEngine::with_recycled_ids(EngineKind::NonCanonical, 2);
        let pool = exprs(4);
        // Sustained churn at 2 live: subscribe/unsubscribe forever.
        let a = engine.subscribe(&pool[0]).unwrap();
        let _b = engine.subscribe(&pool[1]).unwrap();
        for i in 0..50 {
            let dead = engine.subscribe(&pool[2 + (i % 2)]).unwrap();
            engine.unsubscribe(dead).unwrap();
        }
        // The id table never grew past the high-water live count (+1
        // for the churning slot); retired ids were reissued.
        assert_eq!(engine.directory().id_bound(), 3);
        assert_eq!(engine.directory().vacant(), 1);
        // Matching still translates through the recycled slots.
        let mut scratch = MatchScratch::new();
        let matched = engine
            .match_event(&ev(&[("group", 0), ("tick", 0)]), &mut scratch)
            .matched;
        assert!(matched.contains(&a));
    }

    #[test]
    fn usable_as_a_trait_object() {
        let mut engine: BoxedEngine = Box::new(ShardedEngine::new(EngineKind::CountingVariant, 2));
        let id = engine
            .subscribe(&Expr::parse("a = 1 or b = 2").unwrap())
            .unwrap();
        let mut scratch = MatchScratch::new();
        let result = engine.match_event(&ev(&[("b", 2)]), &mut scratch);
        assert_eq!(result.matched, vec![id]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedEngine::new(EngineKind::NonCanonical, 0);
    }
}
