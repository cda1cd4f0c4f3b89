//! One benchmark run: set-up, the closed- and open-loop phases, the
//! correctness checks, and (in the traced run) the per-layer spans.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use boolmatch_broker::{Broker, BrokerError, DeliveryPolicy, Subscription};
use boolmatch_types::{Event, Value};

use crate::mirror::{Counts, Mirror};
use crate::schedule::Schedule;
use crate::sink::{unpack, Sink, OP_ATTR};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Inputs, Name, Reference, Spec};

/// Every consumer's queue: bounded backpressure, so a slow consumer
/// shows up as lateness (or, past the timeout, as a failed
/// notification), never as unbounded memory.
const POLICY: DeliveryPolicy = DeliveryPolicy::Block {
    capacity: 128,
    timeout: Duration::from_secs(10),
};

/// How long a phase may take to drain before missing notifications
/// count as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Subscribe/unsubscribe pairs the churn probe times, spread over the
/// open loop.
const PROBE_PAIRS: usize = 10_000;

/// Events whose delivered sets are checked one by one against direct
/// evaluation.
const CHECKED_EVENTS: usize = 16;

/// How long the untraced run repeats set-up. A shared host can slow down
/// for seconds at a time, and a set-up takes a fraction of a second, so a
/// few back-to-back set-ups could all land in one slow stretch.
const SETUP_WINDOW: Duration = Duration::from_secs(8);

/// Consumers sampled for `broker.max_queued`.
const QUEUE_SAMPLES: usize = 64;

pub struct Config {
    pub name: Name,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Checked work and the failures found in it.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// `expected` units of work, of which `got` came out.
    fn check(&mut self, what: &str, expected: u64, got: u64) {
        self.attempted += expected;
        if got != expected {
            self.fail(expected.abs_diff(got), || {
                format!("{what}: expected {expected}, got {got}")
            });
        }
    }

    /// One operation that succeeded or not.
    fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(1, || format!("{what} failed"));
        }
    }

    fn fail(&mut self, n: u64, note: impl FnOnce() -> String) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(note());
        }
    }
}

/// The traced run's state: spans, the mirror, and the mirror check.
struct Traced {
    tracer: Tracer,
    mirror: Mirror,
    /// Whether closed-loop publishes run beside the mirror now.
    on: bool,
    mismatches: u64,
    /// Per traced publish: (op, delivered).
    published: Vec<(u64, u64)>,
}

struct Run {
    spec: Spec,
    inputs: Inputs,
    reference: Reference,
    sink: Arc<Sink>,
    broker: Broker,
    corpus: Vec<Subscription>,
    /// Churn-probe subscriptions used so far.
    next_churn: usize,
    /// Operations so far (set-up registrations, publishes and churn
    /// pairs).
    op: u64,
    /// Events published so far; the `n`-th is pool event `n` (cyclically).
    published: u64,
    tally: Tally,
    /// Each churn pair's open-loop event and subscribe + unsubscribe
    /// time, ns.
    churn_ns: Vec<(u64, u64)>,
    traced: Option<Traced>,
}

fn publish(broker: &Broker, event: &Arc<Event>) -> u64 {
    broker.publish_arc(Arc::clone(event)) as u64
}

fn register(
    broker: &Broker,
    sink: &Arc<Sink>,
    index: u32,
    text: &str,
) -> Result<Subscription, BrokerError> {
    let sink = Arc::clone(sink);
    broker.subscribe_consumer(text, POLICY, move |e: Arc<Event>| sink.consume(index, &e))
}

/// Resident set size of this process, from `/proc/self/status`.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A broker built and filled with the corpus, plus how long that took.
struct Setup {
    broker: Broker,
    corpus: Vec<Subscription>,
    seconds: f64,
}

/// Builds the workload's broker and registers every subscription
/// through the text consumer API. With a tracer, each registration is a
/// span.
fn setup(
    spec: &Spec,
    inputs: &Inputs,
    sink: &Arc<Sink>,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Setup {
    let start = Instant::now();
    let broker = Broker::builder()
        .engine(spec.kind)
        .shards(spec.shards)
        .placement(spec.placement)
        .delivery_workers(1)
        .parallel_threshold(usize::MAX)
        .build();
    let mut corpus = Vec::with_capacity(inputs.corpus.len());
    for (i, text) in inputs.corpus.iter().enumerate() {
        let index = i as u32;
        let sub = match tracer.as_deref_mut() {
            Some(t) => t.time("broker.subscribe", i as u64, || {
                register(&broker, sink, index, text)
            }),
            None => register(&broker, sink, index, text),
        };
        tally.op("set-up subscribe", sub.is_ok());
        corpus.extend(sub.ok());
    }
    Setup {
        broker,
        corpus,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// `event` with the open-loop stamp `op` added.
fn stamp(event: &Event, op: u64) -> Arc<Event> {
    let attrs = event
        .iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .chain([(OP_ATTR.to_string(), Value::from(op as i64))]);
    Arc::new(Event::from_pairs(attrs))
}

/// Sleeps, then spins, until `sink`'s clock reads `due_ns`.
fn wait_until(sink: &Sink, due_ns: u64) {
    loop {
        let now = sink.now_ns();
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > 120_000 {
            std::thread::sleep(Duration::from_nanos(left - 100_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// splitmix64: seeded choices made by the harness itself.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Run {
    fn pool_index(&self, n: u64) -> usize {
        n as usize % self.inputs.pool.len()
    }

    /// Publishes the next event (`event` overrides its pool event, as
    /// the stamped open-loop copies do) and checks the delivered count
    /// against the reference. Returns the delivered count.
    fn publish_next(&mut self, event: Option<&Arc<Event>>) -> u64 {
        let index = self.pool_index(self.published);
        let event = Arc::clone(event.unwrap_or(&self.inputs.pool[index]));
        let expected = self.reference.expected(index);
        let op = self.op;
        let delivered = match self.traced.as_mut().filter(|t| t.on) {
            Some(t) => {
                let dropped = |b: &Broker| {
                    let s = b.stats();
                    s.notifications_dropped + s.notifications_disconnected
                };
                let before = dropped(&self.broker);
                let root = t.tracer.begin("event", op);
                let mut delivered = 0;
                let mut mirrored = 0;
                // Alternate which of the two runs first, so neither
                // always meets the caches the other warmed.
                for step in [op % 2, 1 - op % 2] {
                    if step == 0 {
                        let span = t.tracer.begin("broker.publish", op);
                        delivered = publish(&self.broker, &event);
                        t.tracer.end(span);
                    } else {
                        let span = t.tracer.begin("mirror", op);
                        mirrored = t.mirror.match_event(&event, &mut t.tracer, op);
                        t.tracer.end(span);
                    }
                }
                t.tracer.end(root);
                if mirrored != delivered + (dropped(&self.broker) - before) {
                    t.mismatches += 1;
                }
                t.published.push((op, delivered));
                delivered
            }
            None => publish(&self.broker, &event),
        };
        self.tally.check("publish", expected, delivered);
        self.published += 1;
        self.op += 1;
        delivered
    }

    /// Waits until consumers have taken `target` notifications in
    /// total; returns when that happened. Missing notifications count as
    /// failed.
    fn drain(&mut self, target: u64) -> Instant {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            let consumed = self.sink.consumed();
            if consumed >= target {
                return Instant::now();
            }
            if Instant::now() > deadline {
                self.tally.check("drain", target, consumed);
                return Instant::now();
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// Publishes back to back for `seconds`, then waits for every
    /// notification. Returns events per second, first publish to last
    /// notification consumed.
    fn closed_loop(&mut self, seconds: f64) -> f64 {
        let target_base = self.sink.consumed();
        let mut delivered = 0;
        let mut events = 0;
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(seconds);
        while Instant::now() < stop {
            delivered += self.publish_next(None);
            events += 1;
        }
        let end = self.drain(target_base + delivered);
        events as f64 / (end - start).as_secs_f64()
    }

    /// Sends on the fixed schedule for `seconds`; returns the latency
    /// samples and what the generator saw.
    fn open_loop(&mut self, seconds: f64) -> OpenLoop {
        let schedule = Schedule::new(self.spec.rate, seconds);
        let first = self.published;
        // Stamped copies, made before the clock starts.
        let stamped: Vec<Arc<Event>> = (0..schedule.events())
            .map(|i| stamp(&self.inputs.pool[self.pool_index(first + i)], i))
            .collect();
        let expected: u64 = (0..schedule.events())
            .map(|i| self.reference.expected(self.pool_index(first + i)))
            .sum();
        let origin = self.sink.arm_open_loop(schedule, expected as usize);
        let target_base = self.sink.consumed();
        let mut delivered = 0;
        let mut lateness = Vec::with_capacity(schedule.events() as usize);
        let mut returned = Vec::with_capacity(schedule.events() as usize);
        let mut max_queued = 0;
        // Churn latency is the open loop's: under the offered load.
        self.churn_ns.clear();
        let probe_per_event = PROBE_PAIRS.div_ceil(schedule.events() as usize);
        for (i, event) in stamped.iter().enumerate() {
            let due = origin + schedule.due_ns(i as u64);
            wait_until(&self.sink, due);
            lateness.push(self.sink.now_ns() - due);
            let expected = self.reference.expected(self.pool_index(self.published));
            delivered += match self.traced.as_mut() {
                Some(t) => {
                    let op = self.op;
                    let span = t.tracer.begin("broker.publish", op);
                    let n = publish(&self.broker, event);
                    t.tracer.end(span);
                    returned.push(self.sink.now_ns());
                    self.tally.check("open-loop publish", expected, n);
                    self.published += 1;
                    self.op += 1;
                    n
                }
                None => self.publish_next(Some(event)),
            };
            if self.traced.is_some() {
                let queued = self
                    .corpus
                    .iter()
                    .take(QUEUE_SAMPLES)
                    .map(Subscription::queued);
                max_queued = max_queued.max(queued.max().unwrap_or(0));
            }
            self.probe_pairs(probe_per_event, i as u64);
        }
        self.drain(target_base + delivered);
        let (samples, seen, overflow) = self.sink.open_loop_samples();
        self.tally.op(
            "every open-loop notification seen by the sink",
            seen as u64 == delivered,
        );
        self.tally.op("latency buffer", overflow == 0);
        let fell_behind = lateness.last().is_some_and(|&l| schedule.fell_behind(l));
        self.tally
            .op("open-loop generator kept its schedule", !fell_behind);
        OpenLoop {
            schedule,
            origin,
            samples,
            lateness,
            returned,
            max_queued,
        }
    }

    /// Times `pairs` subscribe/unsubscribe pairs on the loaded broker,
    /// after open-loop event `event`. Each subscription is removed
    /// before the next publish, so it never receives a notification.
    fn probe_pairs(&mut self, pairs: usize, event: u64) {
        for _ in 0..pairs {
            let c = self.next_churn % self.inputs.churn.len();
            self.next_churn += 1;
            let index = (self.inputs.corpus.len() + c) as u32;
            let text = &self.inputs.churn[c];
            let op = self.op;
            self.op += 1;
            let (sub, ns) = match self.traced.as_mut() {
                Some(t) => {
                    let id = t.mirror.subscribe(text, &mut t.tracer, op);
                    self.tally.op("mirror subscribe", id.is_some());
                    let ok = id.is_some_and(|id| t.mirror.unsubscribe(id, &mut t.tracer, op));
                    self.tally.op("mirror unsubscribe", ok);
                    let root = t.tracer.begin("churn", op);
                    let sub = t.tracer.time("broker.subscribe", op, || {
                        register(&self.broker, &self.sink, index, text)
                    });
                    let id = sub.as_ref().map(Subscription::id);
                    let ok = id.is_ok_and(|id| {
                        t.tracer
                            .time("broker.unsubscribe", op, || self.broker.unsubscribe(id))
                    });
                    t.tracer.end(root);
                    let ns = t.tracer.spans()[root].duration();
                    self.tally.op("probe unsubscribe", ok);
                    (sub, ns)
                }
                None => {
                    let start = Instant::now();
                    let sub = register(&self.broker, &self.sink, index, text);
                    let mid = Instant::now();
                    let ok = sub.as_ref().is_ok_and(|s| self.broker.unsubscribe(s.id()));
                    let ns = nanos(mid - start) + nanos(mid.elapsed());
                    self.tally.op("probe unsubscribe", ok);
                    (sub, ns)
                }
            };
            self.tally.op("probe subscribe", sub.is_ok());
            self.churn_ns.push((event, ns));
        }
    }

    /// Publishes a few seeded pool events one at a time and checks
    /// exactly who received each against direct `Expr::eval_event` over
    /// the corpus.
    fn check_sample(&mut self, seed: u64) {
        for k in 0..CHECKED_EVENTS as u64 {
            let event = Arc::clone(&self.inputs.pool[self.pool_index(mix(seed ^ k))]);
            let ptr = Arc::as_ptr(&event) as usize;
            let mut want = Vec::new();
            for (i, expr) in self.reference.corpus.iter().enumerate() {
                if expr.eval_event(&event) {
                    want.push((i as u32, ptr));
                }
            }
            let target = self.sink.consumed();
            self.sink.start_check();
            let delivered = publish(&self.broker, &event);
            self.drain(target + delivered);
            let mut got = self.sink.finish_check();
            want.sort_unstable();
            got.sort_unstable();
            let matching = {
                let (mut i, mut j, mut n) = (0, 0, 0_u64);
                while i < want.len() && j < got.len() {
                    match want[i].cmp(&got[j]) {
                        std::cmp::Ordering::Equal => {
                            n += 1;
                            i += 1;
                            j += 1;
                        }
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                    }
                }
                n
            };
            let extra = got.len() as u64 - matching;
            self.tally
                .check("checked receivers", want.len() as u64, matching);
            self.tally.check("unexpected receivers", 0, extra);
        }
    }

    /// Publishes a few events untimed so caches and scratch are warm.
    fn warm_up(&mut self) {
        let target = self.sink.consumed();
        let mut delivered = 0;
        for _ in 0..16 {
            delivered += self.publish_next(None);
        }
        self.drain(target + delivered);
    }
}

struct OpenLoop {
    schedule: Schedule,
    origin: u64,
    samples: Vec<u64>,
    lateness: Vec<u64>,
    /// Traced run: when each event's publish returned.
    returned: Vec<u64>,
    max_queued: usize,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Median and tail percentile `p` of `(open-loop event, ns)` timing
/// samples, each taken per one-second window of the open loop and then
/// as the lower quartile over windows (see
/// `stats::windowed_lower_quartile`); a failed check when a window is
/// too small for its tail.
fn windowed_median_tail(
    samples: impl Iterator<Item = (u64, u64)>,
    events_per_window: u64,
    p: f64,
    tally: &mut Tally,
    what: &str,
) -> (f64, f64) {
    let mut windows: Vec<Vec<u64>> = Vec::new();
    for (event, ns) in samples {
        let w = (event / events_per_window.max(1)) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(ns);
    }
    let (median, _) = stats::windowed_lower_quartile(&mut windows, 50.0);
    let (tail, too_small) = stats::windowed_lower_quartile(&mut windows, p);
    tally.op(
        &format!(
            "{what}: p{p} needs {} samples beyond it in every window",
            stats::MIN_BEYOND
        ),
        tail.is_some() && too_small == 0,
    );
    (median.unwrap_or(0.0), tail.unwrap_or(0.0))
}

pub fn run(config: &Config) -> Outcome {
    let spec = config.name.spec();
    let inputs = Inputs::generate(config.name, config.seed);
    let reference = Reference::new(&inputs);
    let clock = Instant::now();
    let sink = Arc::new(Sink::new(clock));
    let mut tally = Tally::default();
    let mut traced = config.trace.then(|| Traced {
        tracer: Tracer::new(clock),
        mirror: Mirror::new(&spec),
        on: true,
        mismatches: 0,
        published: Vec::new(),
    });

    // Set-up: repeated for `SETUP_WINDOW` (once when traced), keeping
    // the last broker; RSS growth is taken across the first, when the
    // process has freed nothing yet.
    let window = if config.trace {
        Duration::ZERO
    } else {
        SETUP_WINDOW
    };
    let mut setup_s = Vec::new();
    let mut rss_growth = 0;
    let mut built = None;
    let started = Instant::now();
    for k in 0.. {
        if k > 0 && started.elapsed() >= window {
            break;
        }
        drop(built.take());
        let before = rss_bytes();
        let s = setup(
            &spec,
            &inputs,
            &sink,
            &mut tally,
            traced.as_mut().map(|t| &mut t.tracer),
        );
        if k == 0 {
            rss_growth = rss_bytes()
                .zip(before)
                .map_or(0, |(a, b)| a.saturating_sub(b));
        }
        setup_s.push(s.seconds);
        built = Some(s);
    }
    let Setup { broker, corpus, .. } = built.expect("at least one set-up");
    let live = broker.subscription_count();
    tally.op(
        "every subscription live after set-up",
        live == spec.subscriptions,
    );
    if let Some(t) = traced.as_mut() {
        for (i, text) in inputs.corpus.iter().enumerate() {
            let ok = t.mirror.subscribe(text, &mut t.tracer, i as u64).is_some();
            tally.op("mirror set-up subscribe", ok);
        }
    }
    let memory = broker.memory_usage();

    let mut run = Run {
        spec,
        inputs,
        reference,
        sink,
        broker,
        corpus,
        next_churn: 0,
        op: live as u64,
        published: 0,
        tally,
        churn_ns: Vec::new(),
        traced,
    };
    run.warm_up();

    let metrics = if config.trace {
        traced_phases(&mut run, config, memory, live)
    } else {
        let open = run.open_loop(config.seconds);
        run.check_sample(config.seed);
        let per_window = spec.rate.round() as u64;
        let tally = &mut run.tally;
        let latency = open.samples.iter().map(|&s| unpack(s));
        let (p50, p90) = windowed_median_tail(latency, per_window, 90.0, tally, "notify latency");
        let churn = run.churn_ns.iter().copied();
        let (c50, c90) = windowed_median_tail(churn, per_window, 90.0, tally, "churn latency");
        // The lower quartile of the set-ups, for the reason the windows
        // have.
        let setup_q1 = stats::quartiles(&setup_s).map_or(0.0, |q| q[0]);
        let failed_share = ratio(run.tally.failed, run.tally.attempted);
        vec![
            ("notify_p50_us".into(), us(p50), "us"),
            ("notify_p90_us".into(), us(p90), "us"),
            ("delivered_share".into(), 1.0 - failed_share, "share"),
            ("setup_s".into(), setup_q1, "s"),
            (
                "rss_bytes_per_sub".into(),
                ratio(rss_growth, live as u64),
                "B",
            ),
            ("churn_p50_us".into(), us(c50), "us"),
            ("churn_p90_us".into(), us(c90), "us"),
        ]
    };
    if let (Some(path), Some(t)) = (&config.spans, run.traced.as_ref()) {
        if let Err(e) = t.tracer.write_tsv(path) {
            run.tally
                .op(&format!("writing spans to {}: {e}", path.display()), false);
        }
    }
    // Stop consumers before the result is printed: dropping the broker
    // joins its delivery worker.
    let Run {
        tally,
        broker,
        corpus,
        ..
    } = run;
    drop(broker);
    drop(corpus);
    let mut notes = tally.notes;
    let correct = tally.failed == 0;
    if !correct && notes.is_empty() {
        notes.push("failures without notes".into());
    }
    Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// The traced run: a quarter of the time closed-loop untraced, a
/// quarter closed-loop traced (real publish beside the mirror's layer
/// calls), the rest open-loop with publish spans only.
fn traced_phases(
    run: &mut Run,
    config: &Config,
    memory: boolmatch_core::MemoryUsage,
    live: usize,
) -> Vec<Metric> {
    let quarter = config.seconds / 4.0;
    let t = run.traced.as_mut().expect("traced run");
    t.on = false;
    let plain_eps = run.closed_loop(quarter);
    let t = run.traced.as_mut().expect("traced run");
    t.on = true;
    t.mirror.counts = Counts::default();
    let first_span = t.tracer.spans().len();
    let traced_eps = run.closed_loop(quarter);
    let t = run.traced.as_mut().expect("traced run");
    let counts = t.mirror.counts;
    let layers = layer_times(&t.tracer, first_span, &t.published);
    let probe = probe_batch_kernel(run);
    // The open loop times the real publish only.
    run.traced.as_mut().expect("traced run").on = false;
    let open = run.open_loop(2.0 * quarter);
    run.check_sample(config.seed);
    let mismatches = run.traced.as_ref().expect("traced run").mismatches;
    run.tally
        .check("mirror matched vs delivered+dropped", 0, mismatches);
    layer_metrics(LayerInputs {
        run,
        counts,
        layers,
        probe,
        open,
        plain_eps,
        traced_eps,
        memory,
        live,
    })
}

/// Layer spans measured per traced event.
const LAYERS: [&str; 5] = [
    "broker.publish",
    "core.synopsis",
    "index.phase1",
    "core.phase2",
    "core.translate",
];

/// Per traced event: each layer's self time (ns), in `LAYERS` order.
struct LayerTimes {
    per_event: Vec<[f64; 5]>,
    delivered: u64,
}

/// Sums each traced event's layer spans (from `first_span` on).
fn layer_times(tracer: &Tracer, first_span: usize, published: &[(u64, u64)]) -> LayerTimes {
    let self_ns = tracer.self_times();
    let mut by_op: std::collections::HashMap<u64, [f64; 5]> = std::collections::HashMap::new();
    for (span, &ns) in tracer.spans()[first_span..]
        .iter()
        .zip(&self_ns[first_span..])
    {
        if let Some(l) = LAYERS.iter().position(|&n| n == span.name) {
            by_op.entry(span.op).or_default()[l] += ns as f64;
        }
    }
    let mut out = LayerTimes {
        per_event: Vec::new(),
        delivered: 0,
    };
    for &(op, delivered) in published {
        if let Some(&sums) = by_op.get(&op) {
            out.per_event.push(sums);
            out.delivered += delivered;
        }
    }
    out
}

/// The batch kernel, which no workload's publish path runs, timed once
/// on the mirror off the publish path: one full 64-lane batch, a single
/// kernel call per shard. It is outside the residual and the shares.
struct BatchProbe {
    ns_per_event: f64,
    counts: Counts,
}

fn probe_batch_kernel(run: &mut Run) -> BatchProbe {
    let t = run.traced.as_mut().expect("traced run");
    let saved = t.mirror.counts;
    t.mirror.counts = Counts::default();
    let first = t.tracer.spans().len();
    t.mirror.match_batch(&run.inputs.pool[..64], &mut t.tracer, 0);
    let counts = t.mirror.counts;
    t.mirror.counts = saved;
    let ns: u64 = t.tracer.spans()[first..]
        .iter()
        .filter(|s| s.name == "core.match_batch")
        .map(crate::trace::Span::duration)
        .sum();
    BatchProbe {
        ns_per_event: ns as f64 / counts.events.max(1) as f64,
        counts,
    }
}

struct LayerInputs<'a> {
    run: &'a Run,
    counts: Counts,
    layers: LayerTimes,
    probe: BatchProbe,
    open: OpenLoop,
    plain_eps: f64,
    traced_eps: f64,
    memory: boolmatch_core::MemoryUsage,
    live: usize,
}

fn median_f(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

/// Median duration of the spans named `name` whose operation is in
/// `ops`: set-up registrations are operations `0..live`, the churn
/// probe's pairs come after.
fn span_median(tracer: &Tracer, name: &str, ops: impl std::ops::RangeBounds<u64>) -> f64 {
    let mut d: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name && ops.contains(&s.op))
        .map(crate::trace::Span::duration)
        .collect();
    stats::median(&mut d).unwrap_or(0) as f64
}

fn layer_metrics(x: LayerInputs<'_>) -> Vec<Metric> {
    let t = x.run.traced.as_ref().expect("traced run");
    let column = |l: usize| -> Vec<f64> { x.layers.per_event.iter().map(|r| r[l]).collect() };
    let layer = |l: usize| median_f(&mut column(l));
    let total = |l: usize| column(l).iter().sum::<f64>();
    let residual: Vec<f64> = x
        .layers
        .per_event
        .iter()
        .map(|r| r[0] - r[1..].iter().sum::<f64>())
        .collect();
    let [r25, r50, r75] = stats::quartiles(&residual).unwrap_or([0.0; 3]);
    let publish_total = total(0).max(1.0);
    let share = |l: usize| total(l) / publish_total;
    let c = x.counts;
    let per_sub = |bytes: usize| bytes as f64 / x.live.max(1) as f64;
    let live = x.live as u64;
    let churn_span = |name| span_median(&t.tracer, name, live..);
    let setup_span = |name| span_median(&t.tracer, name, ..live);
    let m = x.memory;

    // Open loop: queue wait runs from the publish return to the
    // callback start (negative when the callback starts while the
    // publish is still enqueuing to others).
    let o = &x.open;
    let mut waits: Vec<i64> = o
        .samples
        .iter()
        .map(|&s| {
            let (event, latency) = unpack(s);
            let start = o.origin + o.schedule.due_ns(event) + latency;
            start as i64 - o.returned[event as usize] as i64
        })
        .collect();
    let mut latency: Vec<u64> = o.samples.iter().map(|&s| unpack(s).1).collect();
    let notify_p99 = stats::percentile(&mut latency, 99.0).unwrap_or(0) as f64;
    let mut lateness = o.lateness.clone();

    vec![
        // The churn probe's calls, on the loaded broker, then the same
        // calls made while set-up filled it.
        ("expr.parse_ns".into(), churn_span("expr.parse"), "ns"),
        ("core.subscribe_ns".into(), churn_span("core.subscribe"), "ns"),
        (
            "core.unsubscribe_ns".into(),
            churn_span("core.unsubscribe"),
            "ns",
        ),
        (
            "broker.subscribe_ns".into(),
            churn_span("broker.subscribe"),
            "ns",
        ),
        (
            "broker.unsubscribe_ns".into(),
            churn_span("broker.unsubscribe"),
            "ns",
        ),
        ("expr.parse_ns.setup".into(), setup_span("expr.parse"), "ns"),
        (
            "core.subscribe_ns.setup".into(),
            setup_span("core.subscribe"),
            "ns",
        ),
        (
            "broker.subscribe_ns.setup".into(),
            setup_span("broker.subscribe"),
            "ns",
        ),
        ("core.synopsis_ns".into(), layer(1), "ns"),
        (
            "core.synopsis.admit_ratio".into(),
            ratio(c.admitted, c.shard_checks),
            "share",
        ),
        ("index.phase1_ns".into(), layer(2), "ns"),
        ("index.fulfilled".into(), c.per_event(c.fulfilled), "count"),
        (
            "index.ns_per_fulfilled".into(),
            total(2) / c.fulfilled.max(1) as f64,
            "ns",
        ),
        ("core.phase2_ns".into(), layer(3), "ns"),
        ("core.candidates".into(), c.per_event(c.candidates), "count"),
        (
            "core.evaluations".into(),
            c.per_event(c.evaluations),
            "count",
        ),
        ("core.matched".into(), c.per_event(c.matched), "count"),
        // Matches per candidate the non-canonical engine evaluated.
        (
            "core.match_yield".into(),
            ratio(c.matched, c.candidates),
            "share",
        ),
        ("core.match_batch_ns".into(), x.probe.ns_per_event, "ns"),
        (
            "core.batch_passes_per_event".into(),
            x.probe.counts.per_event(x.probe.counts.batch_passes),
            "count",
        ),
        ("core.translate_ns".into(), layer(4), "ns"),
        ("broker.publish_ns".into(), layer(0), "ns"),
        ("broker.residual_ns".into(), r50, "ns"),
        ("broker.residual_ns.p25".into(), r25, "ns"),
        ("broker.residual_ns.p75".into(), r75, "ns"),
        ("share.core.synopsis".into(), share(1), "share"),
        ("share.index.phase1".into(), share(2), "share"),
        ("share.core.phase2".into(), share(3), "share"),
        ("share.core.translate".into(), share(4), "share"),
        (
            "share.broker.residual".into(),
            residual.iter().sum::<f64>() / publish_total,
            "share",
        ),
        (
            "broker.queue_wait_us.p50".into(),
            us(stats::median(&mut waits).unwrap_or(0) as f64),
            "us",
        ),
        (
            "broker.queue_wait_us.p99".into(),
            us(stats::percentile(&mut waits, 99.0).unwrap_or(0) as f64),
            "us",
        ),
        ("broker.max_queued".into(), o.max_queued as f64, "count"),
        (
            "broker.notifications_per_event".into(),
            ratio(x.layers.delivered, x.layers.per_event.len() as u64),
            "count",
        ),
        (
            "broker.dropped".into(),
            x.run.broker.stats().notifications_dropped as f64,
            "count",
        ),
        (
            "core.mem.predicates_bytes_per_sub".into(),
            per_sub(m.predicates),
            "B",
        ),
        (
            "core.mem.phase1_index_bytes_per_sub".into(),
            per_sub(m.phase1_index),
            "B",
        ),
        (
            "core.mem.association_bytes_per_sub".into(),
            per_sub(m.association),
            "B",
        ),
        (
            "core.mem.locations_bytes_per_sub".into(),
            per_sub(m.locations),
            "B",
        ),
        ("core.mem.trees_bytes_per_sub".into(), per_sub(m.trees), "B"),
        (
            "core.mem.vectors_bytes_per_sub".into(),
            per_sub(m.vectors),
            "B",
        ),
        (
            "core.mem.unsub_support_bytes_per_sub".into(),
            per_sub(m.unsub_support),
            "B",
        ),
        (
            "core.mem.scratch_bytes_per_sub".into(),
            per_sub(m.scratch),
            "B",
        ),
        ("bench.notify_p99_us".into(), us(notify_p99), "us"),
        (
            "bench.generator_lag_us".into(),
            us(stats::median(&mut lateness).unwrap_or(0) as f64),
            "us",
        ),
        (
            "bench.generator_lag_max_us".into(),
            us(lateness.iter().copied().max().unwrap_or(0) as f64),
            "us",
        ),
        ("bench.publish_eps".into(), x.plain_eps, "1/s"),
        (
            "bench.trace_overhead".into(),
            1.0 - x.traced_eps / x.plain_eps,
            "share",
        ),
    ]
}

fn ratio(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}
