//! One benchmark for the Naiad runtime.
//!
//! ```text
//! naiad-perfbench --workload <exchange|barrier|tweets> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload on the real runtime for about
//! `--seconds`, checks every output against a reference the benchmark
//! computes itself (`check`), and prints three JSON lines: the commit
//! and machine fingerprint, the wall-clock figures, and last
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the gated end-to-end ones; with `--trace 1` the workload
//! runs with runtime telemetry on and the metrics are per-layer ones.
//! See README.md.

mod barrier;
mod check;
mod exchange;
mod harness;
mod layers;
mod sys;
mod tweets;

use std::process::ExitCode;

use harness::{quantile, Totals};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Exchange,
    Barrier,
    Tweets,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "exchange" => Workload::Exchange,
                    "barrier" => Workload::Barrier,
                    "tweets" => Workload::Tweets,
                    other => return Err(format!("unknown workload {other}")),
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

type Metric = (&'static str, f64, &'static str);

/// Median over `values`, each computed per timing window.
fn window_median(t: &Totals, per_window: impl Fn(&harness::Window) -> f64) -> f64 {
    let values: Vec<f64> = t.windows.iter().map(per_window).collect();
    quantile(&values, 0.5)
}

/// The gated end-to-end metrics: the ones that repeat from run to run
/// on a shared virtual machine (see README.md for the wall-clock ones
/// that do not).
fn end_to_end(t: &Totals) -> Vec<Metric> {
    let setups: Vec<f64> = t.setups.iter().map(|s| s.0).collect();
    let records: u64 = t.windows.iter().map(|w| w.records).sum();
    let cpu_s: f64 = t.windows.iter().map(|w| w.cpu_s).sum();
    vec![
        ("setup_s", quantile(&setups, 0.5), "s"),
        (
            "cpu_ns_per_record",
            ratio(cpu_s * 1e9, records as f64),
            "ns",
        ),
        (
            "progress_bytes_per_epoch",
            ratio(t.progress_bytes as f64, t.attempted as f64),
            "bytes",
        ),
        ("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
    ]
}

/// Wall-clock figures, printed on their own line: medians over windows
/// of throughput and of each window's epoch-latency percentiles.
fn wall_clock(t: &Totals) -> Vec<Metric> {
    vec![
        (
            "records_per_s",
            window_median(t, |w| ratio(w.records as f64, w.wall_s)),
            "records/s",
        ),
        ("epoch_p50_ms", window_median(t, |w| w.p50_s * 1e3), "ms"),
        ("epoch_p95_ms", window_median(t, |w| w.p95_s * 1e3), "ms"),
    ]
}

fn per_layer(args: &Args, t: &Totals) -> Vec<Metric> {
    let tr = &t.trace;
    let epochs = t.attempted as f64;
    let per_epoch = |x: u64| ratio(x as f64, epochs);
    let bringup: Vec<f64> = t.setups.iter().map(|s| s.1).collect();
    let build: Vec<f64> = t.setups.iter().map(|s| s.2).collect();
    // The exchange batch is also the frame the slab and netsim timings use.
    let exchange_batch = exchange::wire_batch(args.seed);
    let (encode, decode) = match args.workload {
        Workload::Exchange => layers::codec_ns_per_record(&exchange_batch),
        Workload::Barrier => layers::codec_ns_per_record(&vec![barrier::token(args.seed)]),
        Workload::Tweets => layers::codec_ns_per_record(&tweets::wire_batch(args.seed)),
    };
    let mut frame = Vec::new();
    naiad::wire::Wire::encode(&exchange_batch, &mut frame);
    vec![
        ("execute.bringup_ms", quantile(&bringup, 0.5) * 1e3, "ms"),
        ("dataflow.build_ms", quantile(&build, 0.5) * 1e3, "ms"),
        ("wire.encode_ns_per_record", encode, "ns"),
        ("wire.decode_ns_per_record", decode, "ns"),
        (
            "wire.bytes_per_record",
            ratio(tr.remote_batch_bytes as f64, tr.remote_batch_records as f64),
            "bytes",
        ),
        ("slab.cycle_ns", layers::slab_cycle_ns(&frame), "ns"),
        (
            "slab.reuse_ratio",
            ratio(
                tr.slab_reuses as f64,
                (tr.slab_allocs + tr.slab_reuses) as f64,
            ),
            "ratio",
        ),
        ("netsim.frame_ns", layers::netsim_frame_ns(&frame), "ns"),
        (
            "netsim.data_frames_per_epoch",
            per_epoch(tr.data_frames),
            "count",
        ),
        (
            "netsim.progress_frames_per_epoch",
            per_epoch(tr.progress_frames),
            "count",
        ),
        (
            "channels.records_per_batch",
            ratio(tr.records_out as f64, tr.messages_out as f64),
            "records",
        ),
        (
            "flow.credit_waits_per_epoch",
            per_epoch(tr.credit_waits),
            "count",
        ),
        (
            "flow.credit_wait_us_per_epoch",
            per_epoch(tr.credit_wait_ns) / 1e3,
            "us",
        ),
        ("tracker.update_ns_16", layers::tracker_update_ns(16), "ns"),
        (
            "tracker.update_ns_256",
            layers::tracker_update_ns(256),
            "ns",
        ),
        (
            "tracker.update_ns_4096",
            layers::tracker_update_ns(4096),
            "ns",
        ),
        ("protocol.deposit_ns", layers::deposit_ns(), "ns"),
        (
            "protocol.updates_sent_per_epoch",
            per_epoch(tr.updates_sent),
            "count",
        ),
        (
            "protocol.updates_applied_per_epoch",
            per_epoch(tr.updates_applied),
            "count",
        ),
        ("worker.steps_per_epoch", per_epoch(t.wait_steps), "count"),
        (
            "worker.busy_share",
            ratio(tr.busy_ns as f64, tr.workers as f64 * tr.wall_s * 1e9),
            "ratio",
        ),
        ("worker.idle_step_ns_1000", layers::idle_step_ns(1000), "ns"),
        (
            "worker.schedules_per_epoch",
            per_epoch(tr.schedules),
            "count",
        ),
        (
            "worker.worked_ratio",
            ratio(tr.worked as f64, tr.schedules as f64),
            "ratio",
        ),
        (
            "operators.min_label_busy_us_per_epoch",
            per_epoch(tr.min_label_busy_ns) / 1e3,
            "us",
        ),
        (
            "operators.join_busy_us_per_epoch",
            per_epoch(tr.join_busy_ns) / 1e3,
            "us",
        ),
        (
            "operators.count_busy_us_per_epoch",
            per_epoch(tr.count_busy_ns) / 1e3,
            "us",
        ),
    ]
}

/// `{"name":{"value":v,"unit":"u"},...}`
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: naiad-perfbench --workload <exchange|barrier|tweets> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("{}", sys::fingerprint_json());
    let totals = match args.workload {
        Workload::Exchange => exchange::run(args.seed, args.seconds, args.trace),
        Workload::Barrier => barrier::run(args.seed, args.seconds, args.trace),
        Workload::Tweets => tweets::run(args.seed, args.seconds, args.trace),
    };
    let metrics = if args.trace {
        per_layer(&args, &totals)
    } else {
        end_to_end(&totals)
    };
    println!("{{\"wall_clock\":{}}}", metrics_json(&wall_clock(&totals)));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        totals.state_ok,
        totals.attempted,
        totals.failed,
        metrics_json(&metrics)
    );
    if totals.state_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("final state differs from the reference");
        ExitCode::FAILURE
    }
}
