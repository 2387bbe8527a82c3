//! `exchange`: Figure 6a's all-to-all exchange, as a closed loop.
//!
//! Two processes of one worker each. Every epoch each worker feeds
//! `RECORDS_PER_WORKER` u64 records through `Pact::exchange`; a tally
//! operator counts what arrives per key, and the epoch is checked once
//! both workers' probes have passed it. The data plane (codec, slab
//! pool, ring queues, remote pushers and pullers, netsim) does nearly all
//! the work; the tracker sees about one pointstamp per epoch.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use naiad::dataflow::{InputPort, OutputPort};
use naiad::{Config, Pact, Worker};
use naiad_rng::Xorshift;

use crate::check::{exchange_epoch_ok, mix, Tally};
use crate::harness::{execute_segment, measure_setups, Segment, Totals, Window, WindowClock};

const PROCESSES: usize = 2;
const WORKERS: usize = PROCESSES;
/// Distinct keys (a power of two: a record's low bits name its slot).
const KEY_SLOTS: usize = 4096;
const RECORDS_PER_WORKER: usize = 131_072;
/// Distinct epoch batches per worker, fed round-robin.
const POOL: usize = 8;
/// Epochs per timing window (about half a second).
const EPOCHS_PER_WINDOW: u64 = 200;

/// The generated inputs: the key table, each worker's epoch batches and
/// the tally each pool slot must produce.
struct Inputs {
    keys: Vec<u64>,
    batches: Vec<Vec<Vec<u64>>>,
    expected: Vec<Tally>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let keys: Vec<u64> = (0..KEY_SLOTS as u64)
            .map(|slot| (mix(seed ^ (slot << 20)) << 12) | slot)
            .collect();
        let batches: Vec<Vec<Vec<u64>>> = (0..WORKERS)
            .map(|w| {
                (0..POOL)
                    .map(|b| {
                        let mut rng = Xorshift::with_salt(seed, (w * POOL + b) as u64);
                        (0..RECORDS_PER_WORKER)
                            .map(|_| keys[rng.below_usize(KEY_SLOTS)])
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let expected = (0..POOL)
            .map(|b| {
                let mut t = Tally::new(KEY_SLOTS);
                for worker in &batches {
                    for &x in &worker[b] {
                        t.add(&keys, x);
                    }
                }
                t
            })
            .collect();
        Inputs {
            keys,
            batches,
            expected,
        }
    }
}

/// Collects each epoch's per-worker tallies and checks the epoch once
/// all have arrived.
struct Checker {
    inputs: Arc<Inputs>,
    pending: Mutex<HashMap<u64, Vec<Tally>>>,
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Checker {
    fn submit(&self, epoch: u64, tally: Tally) {
        let complete = {
            let mut pending = self.pending.lock().expect("checker lock");
            let tallies = pending.entry(epoch).or_default();
            tallies.push(tally);
            if tallies.len() == WORKERS {
                pending.remove(&epoch)
            } else {
                None
            }
        };
        if let Some(tallies) = complete {
            let expected = &self.inputs.expected[epoch as usize % POOL];
            self.attempted.fetch_add(1, Ordering::SeqCst);
            if !exchange_epoch_ok(expected, &tallies) {
                self.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

#[derive(Default)]
struct WorkerRun {
    epochs: u64,
    waits: u64,
    windows: Vec<Window>,
}

/// A batch of the shape the workload feeds, for the codec timings.
pub fn wire_batch(seed: u64) -> Vec<u64> {
    Inputs::generate(seed).batches[0][0][..1024].to_vec()
}

/// One worker's part: build the dataflow through `seg` and, if `feed`,
/// run closed-loop epochs until the segment's deadline.
fn worker_main(checker: &Checker, seg: &Segment, worker: &mut Worker, feed: bool) -> WorkerRun {
    let inputs = &checker.inputs;
    let me = worker.index();
    let tallies: Rc<RefCell<HashMap<u64, Tally>>> = Rc::new(RefCell::new(HashMap::new()));
    let (mut input, probe) = seg.build(worker, |scope| {
        let (input, stream) = scope.new_input::<u64>();
        let (sink, keys) = (tallies.clone(), inputs.clone());
        let probe = stream
            .unary(Pact::exchange(|x: &u64| *x), "Tally", move |_info| {
                move |input: &mut InputPort<u64>, _output: &mut OutputPort<u64>| {
                    let mut tallies = sink.borrow_mut();
                    input.for_each_batch(|time, data| {
                        let tally = tallies
                            .entry(time.epoch)
                            .or_insert_with(|| Tally::new(KEY_SLOTS));
                        for &x in data.iter() {
                            tally.add(&keys.keys, x);
                        }
                    });
                }
            })
            .probe();
        (input, probe)
    });
    let mut run = WorkerRun::default();
    if feed {
        seg.begin(worker);
        let mut clock = WindowClock::new(EPOCHS_PER_WINDOW);
        let mut buf: Vec<u64> = Vec::with_capacity(RECORDS_PER_WORKER);
        loop {
            let epoch = run.epochs;
            buf.extend_from_slice(&inputs.batches[me][epoch as usize % POOL]);
            input.send_container(&mut buf);
            input.advance_to(epoch + 1);
            let closed = Instant::now();
            worker.step_while(|| {
                run.waits += 1;
                !probe.done_through(epoch)
            });
            clock.epoch(
                (WORKERS * RECORDS_PER_WORKER) as u64,
                &[closed.elapsed().as_secs_f64()],
            );
            let tally = tallies.borrow_mut().remove(&epoch);
            checker.submit(epoch, tally.unwrap_or_else(|| Tally::new(KEY_SLOTS)));
            run.epochs += 1;
            if seg.stop_after(epoch) {
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
    let checker = Arc::new(Checker {
        inputs: Arc::new(Inputs::generate(seed)),
        pending: Mutex::new(HashMap::new()),
        attempted: AtomicU64::new(0),
        failed: AtomicU64::new(0),
    });
    let config = Config::processes_and_workers(PROCESSES, 1);
    let mut totals = Totals::new();
    let c = checker.clone();
    measure_setups(&config, &mut totals, move |seg, worker| {
        worker_main(&c, seg, worker, false)
    });
    let seg = Arc::new(Segment::new(WORKERS, Duration::from_secs_f64(seconds)));
    let c = checker.clone();
    let runs = execute_segment(config, trace, &mut totals, move |worker| {
        worker_main(&c, &seg, worker, true)
    });
    assert!(
        runs.iter().all(|r| r.epochs == runs[0].epochs),
        "workers fed different epoch counts"
    );
    totals.wait_steps = runs.iter().map(|r| r.waits).sum();
    totals.windows = runs
        .into_iter()
        .next()
        .map(|r| r.windows)
        .unwrap_or_default();
    totals.attempted = checker.attempted.load(Ordering::SeqCst);
    totals.failed = checker.failed.load(Ordering::SeqCst);
    totals.state_ok = checker.pending.lock().expect("checker lock").is_empty();
    totals
}
