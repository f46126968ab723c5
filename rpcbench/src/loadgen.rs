//! The load generator: one thread, one client connection, three phases.
//!
//! * [`Driver::closed`]: one call outstanding (unloaded RTT);
//! * [`Driver::window`]: a fixed number of calls outstanding (saturation
//!   throughput);
//! * [`Driver::open`]: calls due on a fixed schedule, issued with
//!   `call_async` and completed by polling. Latency runs from the *due*
//!   time, so a stalled generator or a full window charges its wait to the
//!   calls behind it, and the generator's own lateness is recorded.
//!
//! Every call has a deadline; a call that times out, errors, returns
//! wrong bytes or reads stale data is tallied as failed and the run goes
//! on.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dagger_nic::SpinWait;
use dagger_rpc::{PendingCall, RpcClient};
use dagger_types::{DaggerError, FnId};

use crate::trace::{Probe, ServerProbe, SpanLog};

/// Why a call failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fail {
    /// No reply before the deadline.
    Timeout,
    /// The call could not be issued, or the reply carried an error.
    Error,
    /// The reply did not decode or did not match the request.
    Mismatch,
    /// A read returned a value older than the last acknowledged write.
    Stale,
}

/// Client-side facts about an issued call that its check needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallMeta {
    /// Operation class: [`KIND_OTHER`], [`KIND_GET`] or [`KIND_SET`].
    pub kind: u8,
    /// Workload-defined (sequence number, key id, ...).
    pub a: u64,
    /// Workload-defined (expected length, version, ...).
    pub b: u64,
    /// Encoded request bytes.
    pub req_bytes: u64,
}

/// A call that is neither a GET nor a SET.
pub const KIND_OTHER: u8 = 0;
/// A key-value GET.
pub const KIND_GET: u8 = 1;
/// A key-value SET.
pub const KIND_SET: u8 = 2;

/// A workload's request generator and reply checker.
pub trait Service {
    /// Builds and encodes the next request (through `probe.encode`).
    fn next(&mut self, probe: &Probe<'_>) -> (FnId, Vec<u8>, CallMeta);
    /// Decodes and checks a reply (through `probe.decode`). Returns the
    /// useful payload bytes of the call, request plus response.
    ///
    /// # Errors
    ///
    /// Returns the failure class of a wrong reply.
    fn check(&mut self, meta: &CallMeta, reply: &[u8], probe: &Probe<'_>) -> Result<u64, Fail>;
    /// `(found, looked up)` over the checked reads, for services that read
    /// keys.
    fn found(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Attempted and failed calls, by failure class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that completed and passed their check.
    pub ok: u64,
    /// [`Fail::Timeout`] count.
    pub timeouts: u64,
    /// [`Fail::Error`] count.
    pub errors: u64,
    /// [`Fail::Mismatch`] count.
    pub mismatches: u64,
    /// [`Fail::Stale`] count.
    pub stale: u64,
}

impl Tally {
    /// Failed calls of every class.
    pub fn failed(&self) -> u64 {
        self.timeouts + self.errors + self.mismatches + self.stale
    }

    /// Calls whose reply was wrong (as opposed to missing).
    pub fn incorrect(&self) -> u64 {
        self.mismatches + self.stale
    }

    /// Calls counted since `before`, an earlier reading of this tally.
    pub fn since(&self, before: &Tally) -> Tally {
        Tally {
            attempted: self.attempted - before.attempted,
            ok: self.ok - before.ok,
            timeouts: self.timeouts - before.timeouts,
            errors: self.errors - before.errors,
            mismatches: self.mismatches - before.mismatches,
            stale: self.stale - before.stale,
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.stale += other.stale;
    }

    fn count(&mut self, r: Result<u64, Fail>) {
        match r {
            Ok(_) => self.ok += 1,
            Err(Fail::Timeout) => self.timeouts += 1,
            Err(Fail::Error) => self.errors += 1,
            Err(Fail::Mismatch) => self.mismatches += 1,
            Err(Fail::Stale) => self.stale += 1,
        }
    }
}

/// One window phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    /// Calls that completed and passed their check.
    pub completed: u64,
    /// Useful payload bytes of those calls.
    pub bytes: u64,
    /// Wall time from the first issue to the last completion.
    pub elapsed: Duration,
}

/// One open-loop phase.
#[derive(Clone, Debug, Default)]
pub struct Open {
    /// Offered rate, calls per second.
    pub rate: f64,
    /// Latency from due time to checked reply, per successful call.
    pub latency_ns: Vec<u64>,
    /// How late each call was issued relative to its due time.
    pub late_ns: Vec<u64>,
    /// Wall time from the first due time to the last completion.
    pub elapsed: Duration,
    /// Calls that failed in this phase.
    pub failed: u64,
}

impl Open {
    /// Completed calls per second over offered calls per second.
    pub fn achieved_over_offered(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 || self.rate == 0.0 {
            return 0.0;
        }
        (self.latency_ns.len() as f64 / secs) / self.rate
    }
}

struct InFlight {
    pending: PendingCall,
    meta: CallMeta,
    due: Instant,
    sent: Instant,
}

/// Drives one workload's service over one client connection.
pub struct Driver {
    client: Arc<RpcClient>,
    service: Box<dyn Service>,
    deadline: Duration,
    /// Every call attempted so far, by outcome.
    pub tally: Tally,
    next_req: u64,
}

fn classify(e: &DaggerError) -> Fail {
    match e {
        DaggerError::Timeout => Fail::Timeout,
        _ => Fail::Error,
    }
}

impl Driver {
    /// A driver issuing on `client`, failing any call not answered within
    /// `deadline`.
    pub fn new(client: Arc<RpcClient>, service: Box<dyn Service>, deadline: Duration) -> Self {
        client.set_timeout(deadline);
        Driver {
            client,
            service,
            deadline,
            tally: Tally::default(),
            next_req: 1,
        }
    }

    /// The service's `(found, looked up)` read counts.
    pub fn found(&self) -> (u64, u64) {
        self.service.found()
    }

    fn issue(&mut self, probe: &Probe<'_>) -> (Result<PendingCall, Fail>, CallMeta) {
        self.tally.attempted += 1;
        let (fn_id, payload, meta) = self.service.next(probe);
        let pending = probe
            .time("rpc.issue", |_| self.client.call_async(fn_id, &payload))
            .map_err(|e| classify(&e));
        (pending, meta)
    }

    fn finish(
        &mut self,
        meta: &CallMeta,
        reply: dagger_types::Result<Vec<u8>>,
        probe: &Probe<'_>,
    ) -> Result<u64, Fail> {
        let r = reply
            .map_err(|e| classify(&e))
            .and_then(|bytes| self.service.check(meta, &bytes, probe));
        self.tally.count(r);
        r
    }

    /// Issues one call and waits for it, the wait inside span `wait_id`.
    fn blocking(&mut self, probe: &Probe<'_>, wait_id: u64) -> Result<u8, Fail> {
        let (pending, meta) = self.issue(probe);
        let reply = match pending {
            Ok(p) => probe.time_as(wait_id, "rpc.wait", 0, |_| p.wait()),
            Err(f) => {
                self.tally.count(Err(f));
                return Err(f);
            }
        };
        self.finish(&meta, reply, probe).map(|_| meta.kind)
    }

    /// One blocking call. With `trace`, records the request's span tree
    /// (`rpc.call` → `idl.encode`, `rpc.issue`, `rpc.wait` → server spans,
    /// `idl.decode`) and arms `server` so handler spans attach under the
    /// wait span. Returns the call's kind and RTT when it succeeded.
    pub fn call(&mut self, trace: Option<(&SpanLog, &ServerProbe)>) -> Option<(u8, u64)> {
        let req = self.next_req;
        self.next_req += 1;
        let t0 = Instant::now();
        let outcome = match trace {
            None => self.blocking(&Probe::off(), 0),
            Some((log, server)) => {
                Probe::root(log, req).time_as(log.next_id(), "rpc.call", 0, |call| {
                    let wait_id = log.next_id();
                    server.arm(req, wait_id);
                    let out = self.blocking(call, wait_id);
                    server.disarm();
                    out
                })
            }
        };
        let rtt = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        outcome.ok().map(|kind| (kind, rtt))
    }

    /// Closed loop for `dur` or `max_calls` calls, whichever ends first:
    /// one call outstanding. Returns `(kind, rtt_ns)` per successful call.
    pub fn closed(
        &mut self,
        dur: Duration,
        trace: Option<(&SpanLog, &ServerProbe)>,
        max_calls: usize,
    ) -> Vec<(u8, u64)> {
        let end = Instant::now() + dur;
        let mut out = Vec::new();
        for _ in 0..max_calls {
            if Instant::now() >= end {
                break;
            }
            out.extend(self.call(trace));
        }
        out
    }

    /// Closed window for `dur`: `window` calls outstanding, the oldest
    /// awaited first.
    pub fn window(&mut self, dur: Duration, window: usize) -> Window {
        let probe = Probe::off();
        let start = Instant::now();
        let end = start + dur;
        let mut q: VecDeque<(PendingCall, CallMeta)> = VecDeque::with_capacity(window);
        let mut out = Window::default();
        loop {
            let now_open = Instant::now() < end;
            while now_open && q.len() < window {
                let (pending, meta) = self.issue(&probe);
                match pending {
                    Ok(p) => q.push_back((p, meta)),
                    Err(f) => self.tally.count(Err(f)),
                }
            }
            let Some((p, meta)) = q.pop_front() else {
                break;
            };
            if let Ok(bytes) = self.finish(&meta, p.wait(), &probe) {
                out.completed += 1;
                out.bytes += bytes;
            }
        }
        out.elapsed = start.elapsed();
        out
    }

    /// Open loop at `rate` calls/s for `dur`, at most `cap` calls
    /// outstanding. A call due while `cap` are outstanding waits, and its
    /// wait counts in its latency.
    pub fn open(&mut self, rate: f64, dur: Duration, cap: usize) -> Open {
        let probe = Probe::off();
        let total = (rate * dur.as_secs_f64()).round().max(1.0) as u64;
        let interval = 1e9 / rate;
        let start = Instant::now();
        let due = |k: u64| start + Duration::from_nanos((k as f64 * interval) as u64);
        let failed_before = self.tally.failed();
        let mut out = Open {
            rate,
            latency_ns: Vec::with_capacity(total as usize),
            late_ns: Vec::with_capacity(total as usize),
            ..Open::default()
        };
        let mut q: Vec<InFlight> = Vec::with_capacity(cap);
        let mut k = 0u64;
        let mut last_done = start;
        let mut backoff = SpinWait::new();
        while k < total || !q.is_empty() {
            let mut progress = false;
            let mut now = Instant::now();
            while k < total && q.len() < cap && due(k) <= now {
                let d = due(k);
                k += 1;
                out.late_ns.push(ns(now.saturating_duration_since(d)));
                let (pending, meta) = self.issue(&probe);
                match pending {
                    Ok(pending) => q.push(InFlight {
                        pending,
                        meta,
                        due: d,
                        sent: now,
                    }),
                    Err(f) => self.tally.count(Err(f)),
                }
                progress = true;
                now = Instant::now();
            }
            let mut i = 0;
            while i < q.len() {
                let reply = match q[i].pending.try_complete() {
                    Ok(None) if now.duration_since(q[i].sent) < self.deadline => {
                        i += 1;
                        continue;
                    }
                    Ok(None) => {
                        let call = &q[i].pending;
                        self.client
                            .endpoint()
                            .abandon(self.client.connection_id(), call.rpc_id());
                        Err(DaggerError::Timeout)
                    }
                    Ok(Some(bytes)) => Ok(bytes),
                    Err(e) => Err(e),
                };
                let f = q.swap_remove(i);
                let done = Instant::now();
                if self.finish(&f.meta, reply, &probe).is_ok() {
                    out.latency_ns.push(ns(done.duration_since(f.due)));
                    last_done = done;
                }
                progress = true;
            }
            // Never park: a timed sleep would make the schedule late.
            if progress {
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
        out.elapsed = last_done.duration_since(start);
        out.failed = self.tally.failed() - failed_before;
        out
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
