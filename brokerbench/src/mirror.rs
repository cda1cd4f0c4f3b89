//! The traced run's mirror engine.
//!
//! The broker does not expose its internal stages, so the traced run
//! keeps a `ShardedEngine` with the broker's engine kind, shard count
//! and placement, feeds it the same subscriptions, and
//! times each layer's public call on it — synopsis, phase 1, phase 2
//! and translation — right next to the real publish. The batch kernel,
//! which no workload publishes through, is timed on it off the publish
//! path.

use std::sync::Arc;

use boolmatch_core::{
    BatchScratch, FilterEngine, FulfilledSet, MatchScratch, MatchStats, ShardedEngine,
    SubscriptionId,
};
use boolmatch_expr::Expr;
use boolmatch_types::Event;

use crate::trace::Tracer;
use crate::workload::Spec;

/// Work the mirror's layers did, summed over the events it matched.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub events: u64,
    /// (event, shard) synopsis checks, and how many admitted.
    pub shard_checks: u64,
    pub admitted: u64,
    pub fulfilled: u64,
    pub candidates: u64,
    pub evaluations: u64,
    pub matched: u64,
    pub batch_passes: u64,
}

impl Counts {
    fn add(&mut self, s: &MatchStats) {
        self.fulfilled += s.fulfilled as u64;
        self.candidates += s.candidates as u64;
        self.evaluations += s.evaluations as u64;
        self.batch_passes += s.batch_passes as u64;
    }

    pub fn per_event(&self, n: u64) -> f64 {
        n as f64 / self.events.max(1) as f64
    }
}

pub struct Mirror {
    engine: ShardedEngine,
    fulfilled: FulfilledSet,
    scratch: MatchScratch,
    matched: Vec<SubscriptionId>,
    batch: BatchScratch,
    skip: Vec<bool>,
    admitted: Vec<usize>,
    pub counts: Counts,
}

impl Mirror {
    pub fn new(spec: &Spec) -> Self {
        Mirror {
            engine: ShardedEngine::new(spec.kind, spec.shards).with_placement(spec.placement),
            fulfilled: FulfilledSet::new(),
            scratch: MatchScratch::new(),
            matched: Vec::new(),
            batch: BatchScratch::new(),
            skip: Vec::new(),
            admitted: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Parses and registers `text`, timing both calls.
    pub fn subscribe(
        &mut self,
        text: &str,
        tracer: &mut Tracer,
        op: u64,
    ) -> Option<SubscriptionId> {
        let expr = tracer.time("expr.parse", op, || Expr::parse(text)).ok()?;
        tracer
            .time("core.subscribe", op, || self.engine.subscribe(&expr))
            .ok()
    }

    /// Removes `id`, timing the call.
    pub fn unsubscribe(&mut self, id: SubscriptionId, tracer: &mut Tracer, op: u64) -> bool {
        tracer
            .time("core.unsubscribe", op, || self.engine.unsubscribe(id))
            .is_ok()
    }

    /// Matches one event layer by layer; returns how many subscriptions
    /// matched (after translation to global ids).
    pub fn match_event(&mut self, event: &Event, tracer: &mut Tracer, op: u64) -> u64 {
        let shards = self.engine.shard_count();
        let mut admitted = std::mem::take(&mut self.admitted);
        admitted.clear();
        let span = tracer.begin("core.synopsis", op);
        for i in 0..shards {
            if self.engine.synopsis(i).admits(event) {
                admitted.push(i);
            }
        }
        tracer.end(span);
        self.counts.events += 1;
        self.counts.shard_checks += shards as u64;
        self.counts.admitted += admitted.len() as u64;
        let mut matched = 0;
        for &i in &admitted {
            let shard = self.engine.shard(i);
            tracer.time("index.phase1", op, || {
                shard.phase1(event, &mut self.fulfilled)
            });
            let stats = tracer.time("core.phase2", op, || {
                shard.phase2(&self.fulfilled, &mut self.scratch, &mut self.matched)
            });
            self.counts.add(&stats);
            let translation = self.engine.translation(i);
            let found = tracer.time("core.translate", op, || {
                self.matched
                    .iter()
                    .filter(|&&l| translation.global_of(l).is_some())
                    .count() as u64
            });
            matched += found;
        }
        self.admitted = admitted;
        self.counts.matched += matched;
        matched
    }

    /// Runs a batch through each shard's batch kernel, timing the
    /// synopsis check and the kernel.
    pub fn match_batch(&mut self, events: &[Arc<Event>], tracer: &mut Tracer, op: u64) {
        self.counts.events += events.len() as u64;
        for i in 0..self.engine.shard_count() {
            let synopsis = self.engine.synopsis(i);
            let pruned = tracer.time("core.synopsis", op, || {
                synopsis.admits_batch(events, &[], &mut self.skip)
            });
            self.counts.shard_checks += events.len() as u64;
            self.counts.admitted += (events.len() - pruned) as u64;
            if pruned == events.len() {
                continue;
            }
            let shard = self.engine.shard(i);
            let stats = tracer.time("core.match_batch", op, || {
                shard.match_batch(events, &self.skip, &mut self.batch)
            });
            self.counts.add(&stats);
        }
    }
}
