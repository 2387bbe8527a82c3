//! Timed calls into single layers' public functions, for the traced run.
//! Each timing repeats its call until `MIN_SECONDS` have passed and
//! reports the mean.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use naiad::graph::{ContextId, GraphBuilder, LogicalGraph, StageId, StageKind};
use naiad::progress::{Accumulator, Pointstamp, PointstampTable};
use naiad::wire::{decode_from_slice, Bytes, SlabPool, Wire};
use naiad::{execute, Config, Timestamp};
use naiad_netsim::{Fabric, TrafficClass};

/// Wall time each timing runs for.
const MIN_SECONDS: f64 = 0.2;

/// Mean nanoseconds per call of `f`.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut batch = 1u64;
    let mut calls = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MIN_SECONDS {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        batch = (batch * 2).min(1 << 16);
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// `Wire::encode` and `decode_from_slice` on one of the workload's own
/// batches: `(encode ns, decode ns)` per record.
pub fn codec_ns_per_record<T: Wire>(batch: &Vec<T>) -> (f64, f64) {
    let records = batch.len().max(1) as f64;
    let mut buf = Vec::new();
    let encode = ns_per_call(|| {
        buf.clear();
        black_box(batch).encode(&mut buf);
    });
    let decode = ns_per_call(|| {
        let back: Vec<T> = decode_from_slice(black_box(&buf)).expect("own encoding decodes");
        black_box(back);
    });
    (encode / records, decode / records)
}

/// One `SlabPool::get`, fill, `freeze` and drop of `frame`.
pub fn slab_cycle_ns(frame: &[u8]) -> f64 {
    let pool = Arc::new(SlabPool::default());
    ns_per_call(|| {
        let mut slab = pool.get(frame.len());
        slab.buffer().extend_from_slice(frame);
        black_box(slab.freeze());
    })
}

/// One `Endpoint::send` of `frame` plus the peer's `try_recv`.
pub fn netsim_frame_ns(frame: &[u8]) -> f64 {
    let mut endpoints = Fabric::builder(2).build();
    let mut receiver = endpoints.pop().expect("two endpoints");
    let mut sender = endpoints.pop().expect("two endpoints");
    let payload = Bytes::from(frame.to_vec());
    ns_per_call(|| {
        sender
            .send(1, 0, TrafficClass::Data, payload.clone())
            .expect("in-process link delivers");
        black_box(receiver.try_recv().expect("frame is queued"));
    })
}

/// input → loop { body ⟲ feedback } → output: the shape whose tracker
/// cost the barrier and tweets loops pay. Returns the graph and the body.
fn loop_graph() -> (Arc<LogicalGraph>, StageId) {
    let mut g = GraphBuilder::new();
    let input = g.add_stage("in", StageKind::Input, ContextId::ROOT, 0, 1);
    let ctx = g.add_context(ContextId::ROOT);
    let ingress = g.add_ingress("I", ctx);
    let feedback = g.add_feedback("F", ctx);
    let body = g.add_stage("body", StageKind::Regular, ctx, 2, 1);
    let egress = g.add_egress("E", ctx);
    let out = g.add_stage("out", StageKind::Regular, ContextId::ROOT, 1, 0);
    g.connect(input, 0, ingress, 0);
    g.connect(ingress, 0, body, 0);
    g.connect(feedback, 0, body, 1);
    g.connect(body, 0, feedback, 0);
    g.connect(body, 0, egress, 0);
    g.connect(egress, 0, out, 0);
    (Arc::new(g.build().expect("loop graph is valid")), body)
}

/// One ±1 `PointstampTable::update` (a pointstamp turning active, or
/// back) while `active` other loop pointstamps are outstanding.
pub fn tracker_update_ns(active: u64) -> f64 {
    let (graph, body) = loop_graph();
    let mut table = PointstampTable::initialized(graph, 2);
    let at = |i: u64| Pointstamp::at_vertex(Timestamp::with_counters(0, &[i]), body);
    for i in 0..active {
        table.update(at(i), 1);
    }
    let probe = at(active);
    ns_per_call(|| {
        table.update(black_box(probe), 1);
        table.update(black_box(probe), -1);
    }) / 2.0
}

/// One `Accumulator::deposit` of a +1/−1 pair that the accumulator can
/// keep back.
pub fn deposit_ns() -> f64 {
    let (graph, body) = loop_graph();
    let mut acc = Accumulator::new(graph, 2);
    let p = Pointstamp::at_vertex(Timestamp::with_counters(0, &[1]), body);
    ns_per_call(|| {
        black_box(acc.deposit([(p, 1), (p, -1)]));
    })
}

/// One `Worker::step` over a dataflow of `operators` idle operators.
pub fn idle_step_ns(operators: usize) -> f64 {
    let per_worker = execute(Config::single_process(1), move |worker| {
        let mut input = worker.dataflow(|scope| {
            let (input, stream) = scope.new_input::<u64>();
            for _ in 0..operators {
                stream.unary(naiad::Pact::Pipeline, "Idle", |_info| {
                    |input: &mut naiad::dataflow::InputPort<u64>,
                     _out: &mut naiad::dataflow::OutputPort<u64>| {
                        input.for_each_batch(|_, _| {});
                    }
                });
            }
            input
        });
        let ns = ns_per_call(|| {
            black_box(worker.step());
        });
        input.close();
        worker.step_until_done();
        ns
    })
    .expect("idle dataflow runs");
    per_worker[0]
}
