//! The parts every workload shares: set-up sampling, one `execute` call
//! per measured segment, the closed-loop stop rule, the windows every
//! wall-clock metric is a median over, and the totals a run reports.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use naiad::telemetry::TelemetryEvent;
use naiad::{execute_with_metrics, execute_with_telemetry, Config, Worker};
use naiad_netsim::TrafficClass;

use crate::sys::process_cpu_seconds;

/// Shared state of one `execute` call (one segment of a run).
pub struct Segment {
    t0: Instant,
    deadline: Instant,
    /// Latest closure entry, in ns after `t0` (runtime bring-up).
    bringup_ns: AtomicU64,
    /// Longest `Worker::dataflow` call, in ns.
    build_ns: AtomicU64,
    /// Latest return from `Worker::dataflow`, in ns after `t0`.
    ready_ns: AtomicU64,
    /// Epochs every worker feeds (`u64::MAX` until someone sees the
    /// deadline pass).
    stop_after: AtomicU64,
    workers: usize,
    /// Workers done building.
    ready: AtomicUsize,
}

impl Segment {
    /// A segment whose workers stop feeding new epochs after `budget`.
    pub fn new(workers: usize, budget: Duration) -> Self {
        let t0 = Instant::now();
        Segment {
            t0,
            deadline: t0 + budget,
            bringup_ns: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
            ready_ns: AtomicU64::new(0),
            stop_after: AtomicU64::new(u64::MAX),
            workers,
            ready: AtomicUsize::new(0),
        }
    }

    fn since_t0(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    /// Builds the worker's dataflow, recording bring-up and build times.
    pub fn build<R>(
        &self,
        worker: &mut Worker,
        construct: impl FnOnce(&mut naiad::Scope) -> R,
    ) -> R {
        let entered = Instant::now();
        self.bringup_ns
            .fetch_max(self.since_t0(entered), Ordering::SeqCst);
        let built = worker.dataflow(construct);
        let ready = Instant::now();
        self.build_ns
            .fetch_max((ready - entered).as_nanos() as u64, Ordering::SeqCst);
        self.ready_ns
            .fetch_max(self.since_t0(ready), Ordering::SeqCst);
        built
    }

    /// Waits until every worker has built its dataflow. The waiting
    /// worker keeps stepping, so peers never wait on its progress.
    pub fn begin(&self, worker: &mut Worker) {
        self.ready.fetch_add(1, Ordering::SeqCst);
        worker.step_while(|| self.ready.load(Ordering::SeqCst) < self.workers);
    }

    /// The closed-loop stop rule, called by each worker after its probe
    /// passed `epoch`: whether it must stop feeding. A worker that sees
    /// the deadline pass fixes the epoch count at `epoch + 2`: no peer can
    /// have fed past `epoch + 1`, since completing `epoch + 1` needs this
    /// worker's input to have advanced past it. So every worker feeds
    /// exactly the same epochs.
    pub fn stop_after(&self, epoch: u64) -> bool {
        if Instant::now() >= self.deadline {
            self.stop_after.fetch_min(epoch + 2, Ordering::SeqCst);
        }
        epoch + 1 >= self.stop_after.load(Ordering::SeqCst)
    }
}

/// One window of consecutive epochs, as worker 0 saw it.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub records: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Median and 95th percentile of the time from closing an epoch to
    /// its probe (or sink) passing it, in seconds.
    pub p50_s: f64,
    pub p95_s: f64,
}

/// The `q`-quantile (0..=1) of `values`, by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Cuts worker 0's epochs into windows of `per_window` epochs. Every
/// wall-clock metric is a median over windows, so a stall that hits a
/// few windows (a descheduled vCPU, a timed idle wait) moves it less
/// than it moves a mean over the run.
pub struct WindowClock {
    per_window: u64,
    epochs: u64,
    started: Instant,
    cpu: f64,
    records: u64,
    /// This window's latency samples; only their percentiles are kept,
    /// so the benchmark's own memory does not grow with the run.
    latencies_s: Vec<f64>,
    pub done: Vec<Window>,
}

impl WindowClock {
    pub fn new(per_window: u64) -> Self {
        WindowClock {
            per_window,
            epochs: 0,
            started: Instant::now(),
            cpu: process_cpu_seconds(),
            records: 0,
            latencies_s: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Records one completed epoch; a partly filled last window is
    /// dropped.
    pub fn epoch(&mut self, records: u64, latencies_s: &[f64]) {
        self.epochs += 1;
        self.records += records;
        self.latencies_s.extend_from_slice(latencies_s);
        if self.epochs == self.per_window {
            let (now, cpu) = (Instant::now(), process_cpu_seconds());
            self.done.push(Window {
                records: self.records,
                wall_s: (now - self.started).as_secs_f64(),
                cpu_s: cpu - self.cpu,
                p50_s: quantile(&self.latencies_s, 0.5),
                p95_s: quantile(&self.latencies_s, 0.95),
            });
            self.latencies_s.clear();
            (self.epochs, self.records, self.started, self.cpu) = (0, 0, now, cpu);
        }
    }
}

/// Counts the program exposes, summed over a run's traced segments.
#[derive(Debug, Default, Clone)]
pub struct TraceTotals {
    pub wall_s: f64,
    pub workers: usize,
    pub data_frames: u64,
    pub progress_frames: u64,
    pub records_out: u64,
    pub messages_out: u64,
    pub remote_batch_bytes: u64,
    pub remote_batch_records: u64,
    pub credit_waits: u64,
    pub credit_wait_ns: u64,
    pub slab_allocs: u64,
    pub slab_reuses: u64,
    pub updates_sent: u64,
    pub updates_applied: u64,
    pub schedules: u64,
    pub worked: u64,
    pub busy_ns: u64,
    pub min_label_busy_ns: u64,
    pub join_busy_ns: u64,
    pub count_busy_ns: u64,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Totals {
    /// Operations attempted (epochs; loop iterations in `barrier`).
    pub attempted: u64,
    /// Operations whose outputs did not match the reference.
    pub failed: u64,
    /// Whether the end-of-segment state checks all passed.
    pub state_ok: bool,
    pub windows: Vec<Window>,
    /// Per set-up sample: `(set-up, bring-up, dataflow build)` seconds.
    pub setups: Vec<(f64, f64, f64)>,
    /// Progress-class bytes of the measured segments, loopback included.
    pub progress_bytes: u64,
    /// `step_while` condition calls made while waiting for epochs.
    pub wait_steps: u64,
    pub trace: TraceTotals,
}

impl Totals {
    pub fn new() -> Self {
        Totals {
            state_ok: true,
            ..Totals::default()
        }
    }
}

/// `execute` calls per run that only set up: each builds the workload's
/// dataflow on every worker and shuts down, giving one `setup_s` sample.
pub const SETUPS: usize = 25;

/// Runs `SETUPS` set-up-only `execute` calls. `worker_fn(segment, true)`
/// must build the dataflow through `segment` and return without feeding.
pub fn measure_setups<F, T>(config: &Config, totals: &mut Totals, worker_fn: F)
where
    F: Fn(&Arc<Segment>, &mut Worker) -> T + Send + Sync + Clone + 'static,
    T: Send + 'static,
{
    for _ in 0..SETUPS {
        let segment = Arc::new(Segment::new(config.total_workers(), Duration::ZERO));
        let (seg, f) = (segment.clone(), worker_fn.clone());
        naiad::execute(config.clone(), move |worker| f(&seg, worker)).expect("execute succeeds");
        let ns = |a: &AtomicU64| a.load(Ordering::SeqCst) as f64 / 1e9;
        totals.setups.push((
            ns(&segment.ready_ns),
            ns(&segment.bringup_ns),
            ns(&segment.build_ns),
        ));
    }
}

/// Runs one `execute` call, with telemetry when `trace` is set, and folds
/// its traffic (and, traced, its telemetry counters) into `totals`.
pub fn execute_segment<F, T>(
    config: Config,
    trace: bool,
    totals: &mut Totals,
    worker_fn: F,
) -> Vec<T>
where
    F: Fn(&mut Worker) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let workers = config.total_workers();
    let started = Instant::now();
    if !trace {
        let (results, metrics) = execute_with_metrics(config, worker_fn).expect("execute succeeds");
        totals.progress_bytes += metrics.total(TrafficClass::Progress, true).bytes;
        return results;
    }
    let (results, snapshot) = execute_with_telemetry(config, worker_fn).expect("execute succeeds");
    let t = &mut totals.trace;
    t.wall_s += started.elapsed().as_secs_f64();
    t.workers = workers;
    totals.progress_bytes += snapshot.progress_bytes(true);
    t.data_frames += snapshot.traffic.data_total.messages;
    t.progress_frames += snapshot.traffic.progress_total.messages;
    t.credit_waits += snapshot.flow.credit_waits;
    t.credit_wait_ns += snapshot.flow.credit_wait_ns;
    t.slab_allocs += snapshot.slab.slab_allocs;
    t.slab_reuses += snapshot.slab.slab_reuses;
    for w in &snapshot.workers {
        // Under the default per-process accumulation workers deposit
        // their updates rather than broadcasting them; both hand updates
        // to the protocol.
        t.updates_sent += w.counters.progress_updates_sent + w.counters.progress_updates_deposited;
        t.updates_applied += w.counters.progress_updates_applied;
    }
    // The hashtag `count` is the last `Reduce` stage built (the
    // connected-components collapse is built before it).
    let count_stage = snapshot
        .operators
        .iter()
        .filter(|op| op.name == "Reduce")
        .map(|op| op.stage)
        .max();
    for op in &snapshot.operators {
        t.schedules += op.schedules;
        t.worked += op.worked;
        t.busy_ns += op.busy_nanos;
        t.records_out += op.records_out;
        t.messages_out += op.messages_out;
        match op.name.as_str() {
            "MinLabelPropagate" => t.min_label_busy_ns += op.busy_nanos,
            "JoinAccumulate" => t.join_busy_ns += op.busy_nanos,
            "Reduce" if Some(op.stage) == count_stage => t.count_busy_ns += op.busy_nanos,
            _ => {}
        }
    }
    // Counters stay exact past the telemetry log's capacity; only this
    // remote-batch sample is read from the events the log kept.
    for record in snapshot.logs.iter().flat_map(|l| &l.events) {
        if let TelemetryEvent::MessageSent {
            records,
            bytes,
            remote: true,
            ..
        } = record.event
        {
            t.remote_batch_records += u64::from(records);
            t.remote_batch_bytes += u64::from(bytes);
        }
    }
    results
}
