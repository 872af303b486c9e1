//! Pass-through wrappers that time the public trait objects the
//! simulator accepts: [`Arrivals`], [`CompletionSink`] and
//! [`HeadroomPolicy`]. Each forwards every call and value unchanged and
//! adds the call's monotonic duration to a running total.

use kvs::CompletionSink;
use llc_sim::machine::Machine;
use rte::mempool::MbufPool;
use rte::nic::HeadroomPolicy;
use trafficgen::Arrivals;

use crate::clock::Clock;

/// `inner`, with the time spent in its calls accumulated.
#[derive(Debug)]
pub struct Timed<T> {
    /// The wrapped object.
    pub inner: T,
    clock: Clock,
    raw_ns: u64,
    calls: u64,
}

impl<T> Timed<T> {
    /// Wraps `inner`, timing calls with `clock`.
    pub fn new(inner: T, clock: Clock) -> Self {
        Self {
            inner,
            clock,
            raw_ns: 0,
            calls: 0,
        }
    }

    /// Net time in timed calls, in seconds.
    pub fn total_s(&self) -> f64 {
        self.clock.net_ns(self.raw_ns, self.calls) / 1e9
    }

    /// Net mean time per timed call, in ns (0 before any call).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.clock.net_ns(self.raw_ns, self.calls) / self.calls as f64
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let t0 = self.clock.now();
        let out = f(&mut self.inner);
        self.raw_ns += self.clock.now() - t0;
        self.calls += 1;
        out
    }
}

impl<A: Arrivals> Arrivals for Timed<A> {
    fn next_arrival_ns(&mut self) -> f64 {
        self.timed(|a| a.next_arrival_ns())
    }

    fn peek_next_ns(&self) -> f64 {
        self.inner.peek_next_ns()
    }
}

impl<S: CompletionSink> CompletionSink for Timed<S> {
    fn record(&mut self, queue: usize, completion_ns: f64, latency_ns: f64) {
        self.timed(|s| s.record(queue, completion_ns, latency_ns));
    }
}

impl<H: HeadroomPolicy> HeadroomPolicy for Timed<H> {
    fn data_off(&mut self, m: &mut Machine, pool: &MbufPool, mbuf: u32, core: usize) -> u16 {
        self.timed(|h| h.data_off(m, pool, mbuf, core))
    }
}
