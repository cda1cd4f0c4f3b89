//! The consumer side: what every `subscribe_consumer` callback does.
//!
//! A callback counts the notification and, for events stamped with an
//! open-loop operation number, records how long after the event's due
//! time the callback started. While a correctness sample is checked it
//! also records which subscription received which event.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use boolmatch_types::{Event, Value};

use crate::schedule::Schedule;

/// Attribute carrying an open-loop event's number within its phase. No
/// subscription names it, so it does not change what matches.
pub const OP_ATTR: &str = "bench_op";

/// One open-loop latency sample, packed: the event number in the high
/// 32 bits and the latency in ns (saturated) in the low 32.
pub fn unpack(sample: u64) -> (u64, u64) {
    (sample >> 32, sample & u64::from(u32::MAX))
}

fn pack(event: u64, latency_ns: u64) -> u64 {
    (event << 32) | latency_ns.min(u64::from(u32::MAX))
}

/// Most latency samples kept per open loop (32 MiB); above this every
/// `stride`-th notification is kept, in arrival order.
const MAX_SAMPLES: usize = 4 << 20;

struct OpenLoop {
    origin_ns: u64,
    schedule: Schedule,
    stride: usize,
    samples: Box<[AtomicU64]>,
    /// Stamped notifications consumed so far.
    seen: AtomicUsize,
}

pub struct Sink {
    clock: Instant,
    consumed: AtomicU64,
    open_loop: OnceLock<OpenLoop>,
    checking: AtomicBool,
    seen: Mutex<Vec<(u32, usize)>>,
}

impl Sink {
    pub fn new(clock: Instant) -> Self {
        Sink {
            clock,
            consumed: AtomicU64::new(0),
            open_loop: OnceLock::new(),
            checking: AtomicBool::new(false),
            seen: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds on the benchmark's clock.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The callback body for subscription `index`.
    pub fn consume(&self, index: u32, event: &Arc<Event>) {
        if let Some(open) = self.open_loop.get() {
            if let Some(op) = event.get(OP_ATTR).and_then(Value::as_int) {
                let op = op.unsigned_abs();
                let due = open.origin_ns + open.schedule.due_ns(op);
                let latency = self.now_ns().saturating_sub(due);
                // ordering: the counter only hands out distinct slots;
                // the Release increment of `consumed` below publishes
                // the stored sample.
                let slot = open.seen.fetch_add(1, Ordering::Relaxed);
                if slot % open.stride == 0 {
                    if let Some(cell) = open.samples.get(slot / open.stride) {
                        // ordering: published by the Release on `consumed`.
                        cell.store(pack(op, latency), Ordering::Relaxed);
                    }
                }
            }
        }
        if self.checking.load(Ordering::Acquire) {
            self.seen
                .lock()
                .expect("no callback panics while holding the sample lock")
                .push((index, Arc::as_ptr(event) as usize));
        }
        // ordering: Release publishes the sample stores above to the
        // generator, which reads them only after an Acquire load of
        // `consumed` reaches its target.
        self.consumed.fetch_add(1, Ordering::Release);
    }

    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Acquire)
    }

    /// Arms open-loop latency recording (once per process) for about
    /// `expected` notifications. Returns the schedule's origin on the
    /// benchmark clock, a little after the buffer is ready.
    pub fn arm_open_loop(&self, schedule: Schedule, expected: usize) -> u64 {
        let stride = expected.div_ceil(MAX_SAMPLES).max(1);
        let capacity = expected / stride + 4096;
        let samples = (0..capacity).map(|_| AtomicU64::new(0)).collect();
        let origin_ns = self.now_ns() + 2_000_000;
        let armed = self.open_loop.set(OpenLoop {
            origin_ns,
            schedule,
            stride,
            samples,
            seen: AtomicUsize::new(0),
        });
        assert!(armed.is_ok(), "the open loop runs once per process");
        origin_ns
    }

    /// The kept open-loop samples (call once the phase has drained), how
    /// many stamped notifications were consumed, and how many samples
    /// found the buffer full.
    pub fn open_loop_samples(&self) -> (Vec<u64>, usize, usize) {
        let Some(open) = self.open_loop.get() else {
            return (Vec::new(), 0, 0);
        };
        // ordering: called after an Acquire load of `consumed` saw every
        // notification, which orders all sample stores before these loads.
        let seen = open.seen.load(Ordering::Relaxed);
        let due = seen.div_ceil(open.stride);
        let kept = due.min(open.samples.len());
        let samples = open.samples[..kept]
            .iter()
            // ordering: as above.
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        (samples, seen, due - kept)
    }

    /// Starts recording `(subscription, event pointer)` pairs.
    pub fn start_check(&self) {
        self.seen.lock().expect("sample lock").clear();
        self.checking.store(true, Ordering::Release);
    }

    /// Stops recording and returns what was seen.
    pub fn finish_check(&self) -> Vec<(u32, usize)> {
        self.checking.store(false, Ordering::Release);
        std::mem::take(&mut *self.seen.lock().expect("sample lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_pack_event_and_saturated_latency() {
        assert_eq!(unpack(pack(7, 1234)), (7, 1234));
        assert_eq!(unpack(pack(1, u64::MAX)), (1, u64::from(u32::MAX)));
    }

    #[test]
    fn open_loop_latency_is_measured_from_the_due_time() {
        let sink = Sink::new(Instant::now());
        let schedule = Schedule::new(1000.0, 1.0);
        let origin = sink.arm_open_loop(schedule, 4);
        assert_eq!(sink.open_loop.get().map(|o| o.stride), Some(1));
        let stamped = Arc::new(Event::builder().attr(OP_ATTR, 3_i64).build());
        let plain = Arc::new(Event::builder().attr("x", 1_i64).build());
        sink.consume(0, &stamped);
        sink.consume(1, &plain);
        assert_eq!(sink.consumed(), 2);
        let (samples, seen, overflow) = sink.open_loop_samples();
        assert_eq!((samples.len(), seen, overflow), (1, 1, 0));
        let (op, latency) = unpack(samples[0]);
        assert_eq!(op, 3);
        // Event 3 is due 3 ms after the origin; it was consumed early,
        // so its latency saturates at zero.
        assert_eq!(latency, 0);
        assert!(origin + schedule.due_ns(3) > sink.now_ns());
    }

    #[test]
    fn large_open_loops_keep_every_stride_th_sample() {
        let sink = Sink::new(Instant::now());
        let schedule = Schedule::new(1000.0, 1.0);
        // 3 × MAX_SAMPLES expected needs a stride of 3.
        sink.arm_open_loop(schedule, 3 * MAX_SAMPLES);
        let event = Arc::new(Event::builder().attr(OP_ATTR, 0_i64).build());
        for _ in 0..10 {
            sink.consume(0, &event);
        }
        let (samples, seen, overflow) = sink.open_loop_samples();
        // Slots 0, 3, 6 and 9 are kept.
        assert_eq!((samples.len(), seen, overflow), (4, 10, 0));
    }

    #[test]
    fn check_mode_records_receivers() {
        let sink = Sink::new(Instant::now());
        let event = Arc::new(Event::builder().attr("x", 1_i64).build());
        sink.consume(5, &event);
        sink.start_check();
        sink.consume(9, &event);
        let seen = sink.finish_check();
        assert_eq!(seen, vec![(9, Arc::as_ptr(&event) as usize)]);
    }
}
