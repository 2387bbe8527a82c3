//! `barrier`: Figure 6b's notification-only loop, as a closed loop.
//!
//! One process of two workers. Each round worker 0 injects one token into
//! a loop whose only vertex requests a notification for the token's time
//! and re-emits it when notified, for `ITERATIONS` iterations. Every
//! iteration is one global barrier: the tracker, the progress protocol,
//! the worker step and wakeups do all the work, and no data byte crosses
//! a process.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::graph::ContextId;
use naiad::{Config, Pact, Timestamp, Worker};

use crate::check::{barrier_round_ok, mix};
use crate::harness::{execute_segment, measure_setups, Segment, Totals, Window, WindowClock};

const WORKERS: usize = 2;
/// Loop iterations (barriers) per round.
const ITERATIONS: u64 = 1_000;
/// Rounds per timing window (about half a second).
const ROUNDS_PER_WINDOW: u64 = 10;

/// One notification seen by worker 0.
#[derive(Clone, Copy)]
struct Seen {
    epoch: u64,
    counter: u64,
    at: Instant,
    token_ok: bool,
}

#[derive(Default)]
struct WorkerRun {
    rounds: u64,
    failed_rounds: u64,
    waits: u64,
    windows: Vec<Window>,
}

/// The circulating token's value: the workload's only input.
pub fn token(seed: u64) -> u64 {
    mix(seed)
}

/// One worker's part: build the loop through `seg` and, if `feed`, run
/// closed-loop rounds until the segment's deadline.
fn worker_main(token: u64, seg: &Segment, worker: &mut Worker, feed: bool) -> WorkerRun {
    let me = worker.index();
    let seen: Rc<RefCell<Vec<Seen>>> = Rc::new(RefCell::new(Vec::new()));
    let (mut input, probe) = seg.build(worker, |scope| {
        let (input, stream) = scope.new_input::<u64>();
        let mut loop_scope = stream.scope();
        let lc = loop_scope.loop_context(ContextId::ROOT);
        let entered = lc.enter(&stream);
        let (handle, cycle) = lc.feedback::<u64>(Some(ITERATIONS));
        let log = seen.clone();
        let stepped = entered.binary_notify(
            &cycle,
            Pact::Pipeline,
            Pact::Pipeline,
            "Barrier",
            move |_info| {
                let token_ok = Rc::new(RefCell::new(true));
                let recv_ok = token_ok.clone();
                (
                    move |seed: &mut InputPort<u64>,
                          loopback: &mut InputPort<u64>,
                          _out: &mut OutputPort<u64>,
                          notify: &Notify| {
                        let mut ok = recv_ok.borrow_mut();
                        for port in [seed, loopback] {
                            port.for_each(|time, data| {
                                *ok &= data.iter().all(|&t| t == token);
                                notify.notify_at(time);
                            });
                        }
                    },
                    move |time: Timestamp, out: &mut OutputPort<u64>, _notify: &Notify| {
                        log.borrow_mut().push(Seen {
                            epoch: time.epoch,
                            counter: time.counters.as_slice().last().copied().unwrap_or(u64::MAX),
                            at: Instant::now(),
                            token_ok: std::mem::replace(&mut *token_ok.borrow_mut(), true),
                        });
                        out.session(time).give(token);
                    },
                )
            },
        );
        handle.connect(&stepped);
        (input, lc.leave(&stepped).probe())
    });
    let mut run = WorkerRun::default();
    if feed {
        seg.begin(worker);
        let mut clock = WindowClock::new(ROUNDS_PER_WINDOW);
        let mut latencies = Vec::with_capacity(ITERATIONS as usize);
        loop {
            let round = run.rounds;
            if me == 0 {
                input.send(token);
            }
            input.advance_to(round + 1);
            let closed = Instant::now();
            worker.step_while(|| {
                run.waits += 1;
                !probe.done_through(round)
            });
            if me == 0 {
                let round_seen: Vec<Seen> = std::mem::take(&mut *seen.borrow_mut());
                let counters: Vec<u64> = round_seen.iter().map(|s| s.counter).collect();
                let ok = barrier_round_ok(&counters, ITERATIONS)
                    && round_seen.iter().all(|s| s.epoch == round && s.token_ok);
                run.failed_rounds += u64::from(!ok);
                latencies.clear();
                let mut last = closed;
                for s in &round_seen {
                    latencies.push((s.at - last).as_secs_f64());
                    last = s.at;
                }
                clock.epoch(ITERATIONS, &latencies);
            }
            run.rounds += 1;
            if seg.stop_after(round) {
                break;
            }
        }
        run.windows = clock.done;
    }
    input.close();
    worker.step_until_done();
    run
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Totals {
    let token = token(seed);
    let config = Config::single_process(WORKERS);
    let mut totals = Totals::new();
    measure_setups(&config, &mut totals, move |seg, worker| {
        worker_main(token, seg, worker, false)
    });
    let seg = Arc::new(Segment::new(WORKERS, Duration::from_secs_f64(seconds)));
    let runs = execute_segment(config, trace, &mut totals, move |worker| {
        worker_main(token, &seg, worker, true)
    });
    let rounds = runs[0].rounds;
    assert!(
        runs.iter().all(|r| r.rounds == rounds),
        "workers fed different round counts"
    );
    totals.attempted = rounds * ITERATIONS;
    totals.failed = runs[0].failed_rounds * ITERATIONS;
    totals.wait_steps = runs.iter().map(|r| r.waits).sum();
    totals.windows = runs
        .into_iter()
        .next()
        .map(|r| r.windows)
        .unwrap_or_default();
    totals
}
