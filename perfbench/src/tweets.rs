//! `tweets`: the Figure 1 / §6.4 application, as a closed loop.
//!
//! Two processes of one worker each, with credit flow control on. A
//! seeded tweet stream feeds, in small epochs, incremental connected
//! components over the mention graph and per-component hashtag counts
//! (an accumulating join of hashtag events with component labels, then a
//! count). Fresh queries ride the same epochs as the updates: a serving
//! vertex answers an epoch's queries from the labels as of that epoch,
//! and the answers go to worker 0's subscriber. Worker 0 closes an epoch,
//! then waits until its subscriber has delivered that epoch's answers.
//!
//! Each round is one `execute` over one of `STREAMS` seeded streams,
//! from empty state.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use naiad::dataflow::{InputPort, Notify, OutputPort};
use naiad::{Config, FlowConfig, Pact, Timestamp, Worker};
use naiad_algorithms::datasets::tweet_stream;
use naiad_algorithms::wcc::connected_components;
use naiad_operators::hash_of;
use naiad_operators::prelude::*;
use naiad_rng::Xorshift;

use crate::check::{mix, TweetsReference, NO_LABEL};
use crate::harness::{execute_segment, measure_setups, Segment, Totals, Window, WindowClock};

const PROCESSES: usize = 2;
const WORKERS: usize = PROCESSES;
const TWEETS_PER_EPOCH: usize = 500;
const EPOCHS_PER_ROUND: usize = 200;
const USERS: u64 = 10_000;
const TOPICS: u64 = 100;
const QUERIES_PER_EPOCH: usize = 8;
/// Epochs per timing window (a quarter of a round).
const EPOCHS_PER_WINDOW: u64 = 50;
/// Distinct streams, generated before measuring and fed round-robin.
const STREAMS: u64 = 4;

/// One epoch of generated input, split by the worker that feeds it.
struct Epoch {
    tweets: usize,
    /// `edges[w]`: mention edges `(author, mentioned)` worker `w` feeds.
    edges: Vec<Vec<(u64, u64)>>,
    /// `tags[w]`: hashtag events `(author, tag)` worker `w` feeds.
    tags: Vec<Vec<(u64, u64)>>,
    /// `queries[w]`: `(query index, user)` worker `w` feeds.
    queries: Vec<Vec<(u64, u64)>>,
}

struct Inputs {
    epochs: Vec<Epoch>,
    reference: TweetsReference,
}

impl Inputs {
    /// Stream `stream`: its own tweets and queries, derived from the
    /// seed, so a run's rounds average over several streams.
    fn generate(seed: u64, stream: u64) -> Self {
        let seed = mix(seed ^ stream.rotate_left(32));
        let stream = tweet_stream(TWEETS_PER_EPOCH * EPOCHS_PER_ROUND, USERS, TOPICS, seed);
        let mut rng = Xorshift::with_salt(seed, 0x7177);
        let epochs: Vec<Epoch> = stream
            .chunks(TWEETS_PER_EPOCH)
            .map(|chunk| {
                let mut epoch = Epoch {
                    tweets: chunk.len(),
                    edges: vec![Vec::new(); WORKERS],
                    tags: vec![Vec::new(); WORKERS],
                    queries: vec![Vec::new(); WORKERS],
                };
                for (i, tweet) in chunk.iter().enumerate() {
                    let w = i % WORKERS;
                    epoch.edges[w].extend(tweet.mentions.iter().map(|&m| (tweet.user, m)));
                    epoch.tags[w].extend(tweet.hashtags.iter().map(|&h| (tweet.user, h)));
                }
                for q in 0..QUERIES_PER_EPOCH {
                    epoch.queries[q % WORKERS].push((q as u64, rng.below(USERS)));
                }
                epoch
            })
            .collect();
        let edges: Vec<Vec<(u64, u64)>> = epochs.iter().map(|e| e.edges.concat()).collect();
        let tags: Vec<Vec<(u64, u64)>> = epochs.iter().map(|e| e.tags.concat()).collect();
        let queries: Vec<Vec<u64>> = epochs
            .iter()
            .map(|e| {
                let mut qs = e.queries.concat();
                qs.sort_unstable();
                qs.into_iter().map(|(_, user)| user).collect()
            })
            .collect();
        let reference = TweetsReference::compute(&edges, &tags, &queries);
        Inputs { epochs, reference }
    }
}

/// A batch of the shape the workload feeds, for the codec timings.
pub fn wire_batch(seed: u64) -> Vec<(u64, u64)> {
    Inputs::generate(seed, 0).epochs[0].edges[0].clone()
}

/// The serving vertex's state on one worker.
#[derive(Default)]
struct Serving {
    labels: HashMap<u64, u64>,
    /// Per open epoch: label updates and queries not yet served.
    pending: Pending,
}

/// One epoch's label updates and queries, not yet served.
type EpochWork = (Vec<(u64, u64)>, Vec<(u64, u64)>);
type Pending = BTreeMap<u64, EpochWork>;

/// The pending entry of `time`'s epoch, requesting its notification
/// when the epoch is first seen.
fn open_epoch<'a>(pending: &'a mut Pending, notify: &Notify, time: Timestamp) -> &'a mut EpochWork {
    pending.entry(time.epoch).or_insert_with(|| {
        notify.notify_at(time);
        Default::default()
    })
}

#[derive(Default)]
struct WorkerRun {
    failed: u64,
    waits: u64,
    windows: Vec<Window>,
    labels: HashMap<u64, u64>,
    counts: HashMap<(u64, u64), u64>,
}

/// One worker's part: build the dataflow through `seg` and, if `feed`,
/// run the round's epochs closed-loop and hand back the serving state.
fn worker_main(inputs: &Inputs, seg: &Segment, worker: &mut Worker, feed: bool) -> WorkerRun {
    let me = worker.index();
    let serving: Rc<RefCell<Serving>> = Rc::new(RefCell::new(Serving::default()));
    let answers: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let delivered: Rc<Cell<Option<(u64, Instant)>>> = Rc::new(Cell::new(None));
    let counts: Rc<RefCell<HashMap<(u64, u64), u64>>> = Rc::new(RefCell::new(HashMap::new()));
    let (mut edges_in, mut tags_in, mut queries_in, answer_probe, count_probe) =
        seg.build(worker, |scope| {
            let (edges_in, edges) = scope.new_input::<(u64, u64)>();
            let (tags_in, tags) = scope.new_input::<(u64, u64)>();
            let (queries_in, queries) = scope.new_input::<(u64, u64)>();
            let labels = connected_components(&edges);
            let state = serving.clone();
            let served = labels.binary_notify(
                &queries,
                Pact::exchange(|(n, _): &(u64, u64)| hash_of(n)),
                Pact::exchange(|(_, user): &(u64, u64)| hash_of(user)),
                "Serve",
                move |_info| {
                    let recv_state = state.clone();
                    (
                        move |updates: &mut InputPort<(u64, u64)>,
                              queries: &mut InputPort<(u64, u64)>,
                              _out: &mut OutputPort<(u64, u64)>,
                              notify: &Notify| {
                            let pending = &mut recv_state.borrow_mut().pending;
                            updates.for_each(|time, mut data| {
                                open_epoch(pending, notify, time).0.append(&mut data);
                            });
                            queries.for_each(|time, mut data| {
                                open_epoch(pending, notify, time).1.append(&mut data);
                            });
                        },
                        move |time: Timestamp, out: &mut OutputPort<(u64, u64)>, _n: &Notify| {
                            let mut s = state.borrow_mut();
                            let Some((updates, queries)) = s.pending.remove(&time.epoch) else {
                                return;
                            };
                            for (node, label) in updates {
                                let l = s.labels.entry(node).or_insert(label);
                                *l = (*l).min(label);
                            }
                            let mut session = out.session(time);
                            for (q, user) in queries {
                                session.give((q, s.labels.get(&user).copied().unwrap_or(NO_LABEL)));
                            }
                        },
                    )
                },
            );
            let to_zero = served.exchange(|_| 0);
            let (log, done) = (answers.clone(), delivered.clone());
            to_zero.subscribe(move |epoch, mut data| {
                log.borrow_mut().append(&mut data);
                done.set(Some((epoch, Instant::now())));
            });
            let counted = tags
                .join_accumulate(&labels, |_user, tag, label| (*label, *tag))
                .map(|(label, tag)| ((label, tag), ()))
                .count();
            let sink = counts.clone();
            counted.subscribe(move |_epoch, data| {
                let mut sink = sink.borrow_mut();
                for (key, n) in data {
                    *sink.entry(key).or_insert(0) += n;
                }
            });
            (
                edges_in,
                tags_in,
                queries_in,
                to_zero.probe(),
                counted.probe(),
            )
        });
    let mut run = WorkerRun::default();
    if feed {
        seg.begin(worker);
        let mut clock = WindowClock::new(EPOCHS_PER_WINDOW);
        for (e, epoch) in inputs.epochs.iter().enumerate() {
            let e64 = e as u64;
            edges_in.send_batch(epoch.edges[me].iter().copied());
            tags_in.send_batch(epoch.tags[me].iter().copied());
            queries_in.send_batch(epoch.queries[me].iter().copied());
            edges_in.advance_to(e64 + 1);
            tags_in.advance_to(e64 + 1);
            queries_in.advance_to(e64 + 1);
            let closed = Instant::now();
            worker.step_while(|| {
                run.waits += 1;
                let answered = if me == 0 {
                    delivered.get().is_some_and(|(d, _)| d >= e64)
                } else {
                    answer_probe.done_through(e64)
                };
                !(answered && count_probe.done_through(e64))
            });
            if me == 0 {
                let (_, at) = delivered.get().expect("epoch delivered");
                clock.epoch(epoch.tweets as u64, &[(at - closed).as_secs_f64()]);
                let got = std::mem::take(&mut *answers.borrow_mut());
                run.failed += u64::from(!inputs.reference.answers_ok(e, &got));
            }
        }
        run.windows = clock.done;
    }
    edges_in.close();
    tags_in.close();
    queries_in.close();
    worker.step_until_done();
    run.labels = std::mem::take(&mut serving.borrow_mut().labels);
    run.counts = std::mem::take(&mut *counts.borrow_mut());
    run
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Totals {
    let config = Config::processes_and_workers(PROCESSES, 1).flow(FlowConfig::default());
    let mut totals = Totals::new();
    let streams: Vec<Arc<Inputs>> = (0..STREAMS)
        .map(|r| Arc::new(Inputs::generate(seed, r)))
        .collect();
    let shared = streams[0].clone();
    measure_setups(&config, &mut totals, move |seg, worker| {
        worker_main(&shared, seg, worker, false)
    });
    // Whole rounds only; the measured time counts rounds, not the
    // reference checks between them.
    let mut round = 0u64;
    let mut measured = Duration::ZERO;
    while round < STREAMS || measured.as_secs_f64() < seconds {
        let inputs = streams[(round % STREAMS) as usize].clone();
        // A round runs to its end; the segment's deadline never cuts it.
        let seg = Arc::new(Segment::new(WORKERS, Duration::from_secs(86_400)));
        let shared = inputs.clone();
        let begun = Instant::now();
        let runs = execute_segment(config.clone(), trace, &mut totals, move |worker| {
            worker_main(&shared, &seg, worker, true)
        });
        measured += begun.elapsed();
        totals.attempted += inputs.epochs.len() as u64;
        totals.failed += runs[0].failed;
        totals.wait_steps += runs.iter().map(|r| r.waits).sum::<u64>();
        let mut labels = HashMap::new();
        let mut counts = HashMap::new();
        for (w, r) in runs.into_iter().enumerate() {
            if w == 0 {
                totals.windows.extend(r.windows);
            }
            labels.extend(r.labels);
            for (k, n) in r.counts {
                *counts.entry(k).or_insert(0) += n;
            }
        }
        totals.state_ok &= inputs.reference.state_ok(&labels, &counts);
        round += 1;
    }
    totals
}
