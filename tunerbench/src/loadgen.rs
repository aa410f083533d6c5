//! Load generation from one process: `nproc` lanes, each a thread with
//! its own keep-alive connection.
//!
//! Open loop: arrivals come from a Poisson process laid over a fixed
//! window, so the offered rate is the window's arrival count over its
//! length. Each session is pinned to one lane (ask/tell is serial per
//! session), and a lane sends each arrival at its scheduled time or, if
//! it is still busy, as soon as it is free. Latency is timed from the
//! scheduled arrival, so lane queueing counts, and the lane records how
//! late it sent each request.
//!
//! Closed loop: each lane sends its next operation as soon as the last
//! one completes, until the phase deadline.

use crate::procfs;
use crate::trace::Tracer;
use mlconf_util::rng::SplitMix64;
use std::time::{Duration, Instant};

/// What one arrival asks of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `suggest` then `report` on one session.
    Step,
    /// `GET /sessions/{id}`.
    Read,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Seconds after the phase start.
    pub at: f64,
    /// Index of the session it targets.
    pub session: usize,
    /// Step or read.
    pub kind: OpKind,
}

/// A uniform draw in `(0, 1)`.
fn unit(rng: &mut SplitMix64) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Poisson arrivals at `rate` per second over `[0, window)`, each aimed
/// at a uniformly drawn session and a read with probability
/// `read_share`. Deterministic in `seed`.
pub fn open_schedule(
    rate: f64,
    window: f64,
    sessions: usize,
    read_share: f64,
    seed: u64,
) -> Vec<Arrival> {
    assert!(
        rate > 0.0 && sessions > 0,
        "open loop needs a rate and sessions"
    );
    let mut rng = SplitMix64::new(seed);
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += -unit(&mut rng).ln() / rate;
        if t >= window {
            return arrivals;
        }
        let session = (rng.next_u64() % sessions as u64) as usize;
        let kind = if unit(&mut rng) < read_share {
            OpKind::Read
        } else {
            OpKind::Step
        };
        arrivals.push(Arrival {
            at: t,
            session,
            kind,
        });
    }
}

/// How one operation went, as the lane's target reports it.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Whether every request succeeded and every reply check passed.
    pub ok: bool,
    /// Milliseconds of the client's own work between `sent` and `end`
    /// (trial evaluation), excluded from latency.
    pub client_ms: f64,
    /// When the last response arrived.
    pub end: Instant,
}

/// One completed operation, timed relative to its phase start.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Step or read.
    pub kind: OpKind,
    /// When it was due: the scheduled arrival (open loop) or the moment
    /// the lane was ready (closed loop).
    pub due: f64,
    /// When its first request was sent.
    pub sent: f64,
    /// When its last response arrived.
    pub done: f64,
    /// Client work inside `[sent, done]`.
    pub client_ms: f64,
    /// Success.
    pub ok: bool,
}

impl OpRecord {
    /// Milliseconds from due to done, less the client's own work.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3 - self.client_ms
    }

    /// Milliseconds the server took: send to done, less client work.
    pub fn service_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3 - self.client_ms
    }

    /// Milliseconds the lane sent the operation after it was due.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// A lane's view of the system under test.
pub trait Target {
    /// Performs one operation; `step` identifies it in spans, which go
    /// under `parent`.
    fn op(
        &mut self,
        kind: OpKind,
        session: usize,
        step: u64,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) -> Done;

    /// The next closed-loop operation, or `None` when the lane is done.
    /// `past_deadline` tells whether the phase deadline has passed.
    fn next_op(&mut self, past_deadline: bool) -> Option<(OpKind, usize)>;
}

/// What one lane measured in one phase.
#[derive(Debug)]
pub struct LaneRun {
    /// Every operation, in the order sent.
    pub records: Vec<OpRecord>,
    /// Spans (empty unless tracing).
    pub tracer: Tracer,
    /// CPU the lane thread used, in nanoseconds.
    pub cpu_ns: Result<u64, String>,
}

/// Span name of a whole operation.
fn op_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Step => "step",
        OpKind::Read => "read",
    }
}

/// Lead time so every lane thread is running before the first arrival.
const LEAD: Duration = Duration::from_millis(20);

/// Runs the open loop: lane `l` executes `schedules[l]` against
/// `targets[l]`.
pub fn run_open<T: Target + Send>(
    targets: &mut [T],
    schedules: Vec<Vec<Arrival>>,
    trace: bool,
    epoch: Instant,
) -> Vec<LaneRun> {
    assert_eq!(targets.len(), schedules.len(), "one schedule per lane");
    let start = Instant::now() + LEAD;
    std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .zip(schedules)
            .enumerate()
            .map(|(lane, (target, schedule))| {
                scope.spawn(move || {
                    let cpu0 = procfs::thread_cpu_ns();
                    let mut tracer = Tracer::new(trace, epoch);
                    let mut records = Vec::with_capacity(schedule.len());
                    for (i, a) in schedule.iter().enumerate() {
                        let due = start + Duration::from_secs_f64(a.at);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let step = ((lane as u64) << 40) | i as u64;
                        let span = tracer.open(op_name(a.kind), None, step, sent);
                        let done = target.op(a.kind, a.session, step, &mut tracer, span);
                        tracer.close(span, done.end);
                        records.push(OpRecord {
                            kind: a.kind,
                            due: a.at,
                            sent: secs_since(start, sent),
                            done: secs_since(start, done.end),
                            client_ms: done.client_ms,
                            ok: done.ok,
                        });
                    }
                    let cpu_ns = cpu_delta(cpu0);
                    LaneRun {
                        records,
                        tracer,
                        cpu_ns,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop lane panicked"))
            .collect()
    })
}

/// Runs the closed loop for `secs` seconds: every lane asks its target
/// for the next operation and sends it at once.
pub fn run_closed<T: Target + Send>(
    targets: &mut [T],
    secs: f64,
    trace: bool,
    epoch: Instant,
) -> Vec<LaneRun> {
    let start = Instant::now() + LEAD;
    let deadline = start + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter_mut()
            .enumerate()
            .map(|(lane, target)| {
                scope.spawn(move || {
                    let cpu0 = procfs::thread_cpu_ns();
                    let mut tracer = Tracer::new(trace, epoch);
                    let mut records = Vec::new();
                    let now = Instant::now();
                    if now < start {
                        std::thread::sleep(start - now);
                    }
                    loop {
                        let ready = Instant::now();
                        let Some((kind, session)) = target.next_op(ready >= deadline) else {
                            break;
                        };
                        let sent = Instant::now();
                        let step = ((lane as u64) << 40) | records.len() as u64;
                        let span = tracer.open(op_name(kind), None, step, sent);
                        let done = target.op(kind, session, step, &mut tracer, span);
                        tracer.close(span, done.end);
                        records.push(OpRecord {
                            kind,
                            due: secs_since(start, ready),
                            sent: secs_since(start, sent),
                            done: secs_since(start, done.end),
                            client_ms: done.client_ms,
                            ok: done.ok,
                        });
                    }
                    let cpu_ns = cpu_delta(cpu0);
                    LaneRun {
                        records,
                        tracer,
                        cpu_ns,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop lane panicked"))
            .collect()
    })
}

fn secs_since(start: Instant, t: Instant) -> f64 {
    if t >= start {
        t.duration_since(start).as_secs_f64()
    } else {
        -start.duration_since(t).as_secs_f64()
    }
}

fn cpu_delta(before: Result<u64, String>) -> Result<u64, String> {
    Ok(procfs::thread_cpu_ns()?.saturating_sub(before?))
}

/// Successful operations completed by the end of a window that
/// started with the phase.
pub fn completed_in(records: &[OpRecord], window: f64) -> usize {
    records.iter().filter(|r| r.ok && r.done <= window).count()
}

/// Offered and achieved rates over one window, in operations/s:
/// offered counts the arrivals scheduled in the window, achieved the
/// successful operations completed by the window's end.
pub fn window_rates(records: &[OpRecord], scheduled: usize, window: f64) -> (f64, f64) {
    let achieved = completed_in(records, window);
    (scheduled as f64 / window, achieved as f64 / window)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every operation at once.
    struct Instantly;

    impl Target for Instantly {
        fn op(&mut self, _: OpKind, _: usize, _: u64, _: &mut Tracer, _: Option<usize>) -> Done {
            Done {
                ok: true,
                client_ms: 0.0,
                end: Instant::now(),
            }
        }

        fn next_op(&mut self, past_deadline: bool) -> Option<(OpKind, usize)> {
            (!past_deadline).then_some((OpKind::Step, 0))
        }
    }

    #[test]
    fn schedules_fill_the_window_and_follow_the_seed() {
        let a = open_schedule(500.0, 2.0, 8, 0.25, 9);
        assert_eq!(a.len(), open_schedule(500.0, 2.0, 8, 0.25, 9).len());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|x| x.at < 2.0 && x.session < 8));
        let rate = a.len() as f64 / 2.0;
        assert!((rate - 500.0).abs() < 50.0, "{rate}");
        let reads = a.iter().filter(|x| x.kind == OpKind::Read).count() as f64;
        assert!((reads / a.len() as f64 - 0.25).abs() < 0.05);
        let b = open_schedule(500.0, 2.0, 8, 0.25, 10);
        assert!(a.len() != b.len() || a[0].at != b[0].at);
    }

    #[test]
    fn an_instant_stub_achieves_the_offered_rate() {
        let window = 1.0;
        let arrivals = open_schedule(2000.0, window, 8, 0.25, 3);
        let scheduled = arrivals.len();
        let mut lanes = vec![Vec::new(), Vec::new()];
        for a in arrivals {
            lanes[a.session % 2].push(a);
        }
        let mut targets = [Instantly, Instantly];
        let runs = run_open(&mut targets, lanes, false, Instant::now());
        let records: Vec<OpRecord> = runs.into_iter().flat_map(|r| r.records).collect();
        let (offered, achieved) = window_rates(&records, scheduled, window);
        assert!(
            achieved / offered > 0.97 && achieved <= offered,
            "offered {offered}, achieved {achieved}"
        );
    }

    #[test]
    fn the_closed_loop_stops_at_its_deadline() {
        let mut targets = [Instantly];
        let t0 = Instant::now();
        let runs = run_closed(&mut targets, 0.1, false, t0);
        assert!(!runs[0].records.is_empty());
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    /// The experiment E15 schedule: each of `sessions` sessions gets
    /// `per_session` Poisson arrivals at `rate` per second (seed
    /// `7700 + i`), answered instantly. Returns the arrivals over the
    /// time the last one lands, which is what E15 reports as achieved.
    fn e15_achieved(sessions: usize, rate: f64, window: f64) -> (f64, f64) {
        use mlconf_bench::loadgen::{schedule, Arrivals};
        let per_session = (rate * window).ceil() as usize;
        let last = (0..sessions)
            .map(|i| {
                let times = schedule(&Arrivals::Poisson { rate }, per_session, 7_700 + i as u64);
                times[per_session - 1]
            })
            .fold(0.0, f64::max);
        ((sessions * per_session) as f64 / last, last / window)
    }

    /// The 451-of-1024 ceiling at 512 sessions, and 147.8 of 256 at
    /// quick scale, come from the schedule alone: an instantly
    /// answering server reproduces them.
    #[test]
    fn fixed_count_schedules_understate_the_achieved_rate() {
        let (full, stretch) = e15_achieved(512, 2.0, 4.0);
        assert!((400.0..=480.0).contains(&full), "{full}");
        assert!(stretch > 2.0, "{stretch}");
        let (quick, _) = e15_achieved(64, 4.0, 1.5);
        assert!((130.0..=165.0).contains(&quick), "{quick}");
    }
}
