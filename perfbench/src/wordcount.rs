//! `wordcount-sim`: the paper's Figure 3 WordCount shuffle in DAIET mode
//! on the simulator, at fig3's default 1/8 scale.
//!
//! Untraced jobs are `Runner::run(ShuffleMode::DaietAgg)`. The traced
//! run builds the same job from public parts (the body of the runner's
//! DAIET path) with every node wrapped in [`Traced`], and must reproduce
//! the runner's outputs bit for bit.

use crate::replay;
use crate::report::Outcome;
use crate::runinfo::{self, Fnv};
use crate::stats::{batched_tail, median, ratio, trimmed_mean, trimmed_rate};
use crate::trace::{self, span, Layer, Traced};
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::worker::{multi_tree_sender, reducer_host, PacedSenderNode, ReducerHost};
use daiet::{AggFn, DaietEngine, EngineStats};
use daiet_dataplane::{ExternId, Switch};
use daiet_fabric::{FramePool, PortId};
use daiet_mapreduce::serialize;
use daiet_mapreduce::{Corpus, CorpusSpec, RunOutcome, Runner, ShuffleMode};
use daiet_netsim::topology::{Role, TopologyPlan};
use daiet_netsim::{NodeId, SimDuration, SimTime, Simulator};
use std::time::{Duration, Instant};

/// Distinct words per reducer (fig3's default, 1/8 of the paper's 16 K).
const WORDS_PER_REDUCER: usize = 2048;
/// Register cells per tree (fig3's default).
const CELLS: usize = 2048;

/// The generated job and the runner that runs it.
pub struct Fixture {
    pub runner: Runner,
    /// Input pairs per job (mapper-combined records).
    pairs: u64,
    /// Frame pool the traced jobs recycle through, as the runner's own
    /// pool does across its runs.
    pool: FramePool,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let spec = CorpusSpec {
            register_cells: CELLS,
            ..CorpusSpec::paper_scaled(WORDS_PER_REDUCER * 12, seed)
        };
        let corpus = Corpus::generate(&spec);
        let pairs = corpus.total_records() as u64;
        let mut runner = Runner::new(corpus);
        runner.daiet_config.register_cells = CELLS;
        runner.seed = seed;
        Fixture {
            runner,
            pairs,
            pool: FramePool::new(),
        }
    }

    /// The star plan, its single switch slot, and the job placement the
    /// runner uses (mappers first, then reducers).
    pub fn layout(&self) -> (TopologyPlan, usize, JobPlacement) {
        let plan = self.runner.star_plan();
        let spec = &self.runner.corpus.spec;
        let hosts = plan.hosts();
        let placement = JobPlacement {
            mappers: hosts[..spec.n_mappers].to_vec(),
            reducers: hosts[spec.n_mappers..spec.n_mappers + spec.n_reducers].to_vec(),
        };
        let switch = plan.switches()[0];
        (plan, switch, placement)
    }

    /// Freshly deployed switches for this job, keyed by plan slot.
    pub fn deploy(&self) -> std::collections::BTreeMap<usize, Switch> {
        let (plan, _, placement) = self.layout();
        let controller = Controller::new(self.runner.daiet_config, AggFn::Sum);
        controller
            .deploy(
                &plan,
                &placement,
                self.runner.resources,
                AggregationMode::InNetwork,
            )
            .expect("deployment fits")
            .1
    }
}

/// The deterministic outputs of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shuffle {
    /// Simulated time the last reducer had its whole input.
    jct_ns: u64,
    reducer_frames: u64,
    reducer_bytes: u64,
    /// FNV digest of every per-reducer output the runner reports.
    digest: u64,
    correct: bool,
}

/// Per-reducer fields both the runner and the replica report.
struct ReducerRow {
    app_bytes: u64,
    nic_frames_in: u64,
    nic_frames_observed: u64,
    records: u64,
    distinct_keys: u64,
    correct: bool,
}

fn shuffle(rows: &[ReducerRow], finished_at: u64, data_done_at: u64, dropped: u64) -> Shuffle {
    let mut h = Fnv::new();
    h.u64(finished_at).u64(data_done_at).u64(dropped);
    for r in rows {
        h.u64(r.app_bytes)
            .u64(r.nic_frames_in)
            .u64(r.nic_frames_observed);
        h.u64(r.records)
            .u64(r.distinct_keys)
            .u64(u64::from(r.correct));
    }
    Shuffle {
        jct_ns: data_done_at,
        reducer_frames: rows.iter().map(|r| r.nic_frames_in).sum(),
        reducer_bytes: rows.iter().map(|r| r.app_bytes).sum(),
        digest: h.finish(),
        correct: rows.iter().all(|r| r.correct),
    }
}

fn from_runner(out: &RunOutcome) -> Shuffle {
    let rows: Vec<ReducerRow> = out
        .reducers
        .iter()
        .map(|r| ReducerRow {
            app_bytes: r.app_bytes,
            nic_frames_in: r.nic_frames_in,
            nic_frames_observed: r.nic_frames_observed,
            records: r.records as u64,
            distinct_keys: r.distinct_keys as u64,
            correct: r.correct,
        })
        .collect();
    let s = shuffle(
        &rows,
        out.finished_at.0,
        out.data_done_at.0,
        out.frames_dropped,
    );
    Shuffle {
        correct: s.correct && out.all_correct(),
        ..s
    }
}

/// What a replica job measured beside its outputs.
struct Replica {
    shuffle: Shuffle,
    link_bytes: u64,
    link_drops: u64,
    events: u64,
    switch_frames_in: u64,
    switch_frames_out: u64,
    mapper_frames_out: u64,
    reducer_frames_in: u64,
    engine: EngineStats,
    /// NACK frames sent, frames replayed and duplicates suppressed, by
    /// every node.
    nacks: u64,
    replayed: u64,
    dups: u64,
    /// Simulated time from the last mapper's last first transmission to
    /// the last reducer's completion.
    recovery_tail_ns: u64,
    capture: Vec<(PortId, Vec<u8>)>,
}

fn traced_node(sim: &Simulator, id: NodeId) -> &Traced {
    sim.node_ref::<Traced>(id)
        .expect("replica nodes are Traced")
}

/// The engine of a deployed switch (the controller registers one).
pub fn engine_of(switch: &Switch) -> (ExternId, &DaietEngine) {
    (0..4)
        .map(ExternId)
        .find_map(|id| switch.extern_ref::<DaietEngine>(id).map(|e| (id, e)))
        .expect("a DAIET switch carries a DaietEngine")
}

/// Builds and runs one job from public parts: the DAIET path of
/// `Runner::run_on` over the runner's star plan, every node wrapped.
fn replica(fx: &Fixture, capture: bool) -> Replica {
    let runner = &fx.runner;
    let spec = &runner.corpus.spec;
    let config = &runner.daiet_config;
    let (plan, switch_slot, placement) = fx.layout();
    let controller = Controller::new(*config, AggFn::Sum);
    let (dep, mut switches) = span(Layer::Controller, || {
        controller.deploy(
            &plan,
            &placement,
            runner.resources,
            AggregationMode::InNetwork,
        )
    })
    .expect("deployment fits");

    let pmap = plan.partition_map(1);
    let mut sim = Simulator::with_partitions(runner.seed, pmap.clone());
    sim.set_frame_pool_for(0, fx.pool.clone());
    let mut ids = Vec::with_capacity(plan.len());
    for slot in 0..plan.len() {
        let node = match plan.role(slot) {
            Role::Host => {
                if let Some(m) = placement.mappers.iter().position(|&s| s == slot) {
                    let partitions: Vec<_> = (0..spec.n_reducers)
                        .map(|r| {
                            let pairs = span(Layer::ToPairs, || {
                                serialize::to_pairs(&runner.corpus.partitions[m][r])
                            });
                            (dep.tree_id(r), dep.endpoints(slot, r), pairs)
                        })
                        .collect();
                    let pool = sim.partition_pool(pmap.part_of(slot)).clone();
                    let sender = span(Layer::SenderBuild, || {
                        multi_tree_sender(
                            config,
                            m,
                            &partitions,
                            runner.redundancy,
                            runner.pacing,
                            &pool,
                            "udp-mapper",
                        )
                    });
                    Traced::new(Box::new(sender), Layer::Mapper, Layer::Netsim)
                } else {
                    let r = placement
                        .reducers
                        .iter()
                        .position(|&s| s == slot)
                        .expect("host is mapper or reducer");
                    let reducer = span(Layer::ReducerBuild, || {
                        reducer_host(config, AggFn::Sum, &dep, r, slot, &placement.mappers)
                    });
                    Traced::new(Box::new(reducer), Layer::Reducer, Layer::Netsim)
                }
            }
            Role::Switch => {
                let switch = switches
                    .remove(&slot)
                    .expect("controller built every switch");
                let mut node = Traced::new(Box::new(switch), Layer::Switch, Layer::Netsim);
                node.capture = capture.then(Vec::new);
                node
            }
        };
        ids.push(sim.add_node(Box::new(node)));
    }
    plan.wire(&mut sim, &ids);
    let horizon = SimTime(SimDuration::from_secs(120).as_nanos());
    let finished_at = span(Layer::Netsim, || sim.run_until(horizon)).0;

    let mut rows = Vec::with_capacity(spec.n_reducers);
    let mut data_done_at = 0;
    let mut reducer_frames_in = 0;
    let (mut nacks, mut replayed, mut dups) = (0, 0, 0);
    for (r, &slot) in placement.reducers.iter().enumerate() {
        let wrapped = traced_node(&sim, ids[slot]);
        reducer_frames_in += wrapped.frames_in;
        let host = wrapped.inner_ref::<ReducerHost>().expect("reducer slot");
        nacks += host.nacks_emitted();
        dups += host.duplicates_suppressed();
        let stats = host.collector.stats();
        let mut got: Vec<(String, u32)> = host
            .collector
            .get_all()
            .map(|(k, v)| (k.display_lossy(), v))
            .collect();
        got.sort();
        let nic = sim.node_stats(ids[slot]);
        rows.push(ReducerRow {
            app_bytes: stats.app_bytes,
            nic_frames_in: nic.frames_in,
            nic_frames_observed: nic.frames_observed(),
            records: stats.pairs_received,
            distinct_keys: host.collector.len() as u64,
            correct: host.collector.is_complete() && got == runner.corpus.expected_reduction(r),
        });
        data_done_at = data_done_at.max(host.completed_at.map_or(finished_at, |t| t.0));
    }
    let (mut link_bytes, mut link_drops) = (0, 0);
    for l in 0..sim.link_count() {
        for d in sim.link_stats(l).dirs {
            link_bytes += d.tx_bytes;
            link_drops += d.drops_overflow + d.drops_fault;
        }
    }
    let mut mapper_frames_out = 0;
    let mut last_first_tx = 0;
    for &slot in &placement.mappers {
        let wrapped = traced_node(&sim, ids[slot]);
        mapper_frames_out += wrapped.frames_out;
        replayed += wrapped
            .inner_ref::<PacedSenderNode>()
            .expect("mapper slot")
            .frames_replayed;
        if let Some((t, _)) = wrapped.last_timer_send {
            last_first_tx = last_first_tx.max(t.0);
        }
    }
    let switch = traced_node(&sim, ids[switch_slot]);
    let engine = engine_of(switch.inner_ref::<Switch>().expect("switch slot")).1;
    nacks += engine.stats().nacks_out;
    replayed += engine.stats().frames_replayed;
    dups += engine.duplicates_suppressed();
    Replica {
        shuffle: shuffle(&rows, finished_at, data_done_at, link_drops),
        link_bytes,
        link_drops,
        events: sim.events_processed(),
        switch_frames_in: switch.frames_in,
        switch_frames_out: switch.frames_out,
        mapper_frames_out,
        reducer_frames_in,
        engine: engine.stats(),
        nacks,
        replayed,
        dups,
        recovery_tail_ns: data_done_at.saturating_sub(last_first_tx),
        capture: sim
            .node_mut::<Traced>(ids[switch_slot])
            .and_then(|t| t.capture.take())
            .unwrap_or_default(),
    }
}

/// Set-up: generate the corpus, build the runner, run one warm-up job
/// (checked like the timed ones). Repeated [`crate::SETUPS`] times; returns the
/// last fixture and the median set-up time in seconds.
fn set_up(seed: u64, out: &mut Outcome) -> (Fixture, f64) {
    let mut times = Vec::with_capacity(crate::SETUPS);
    let mut last = None;
    for _ in 0..crate::SETUPS {
        let t0 = Instant::now();
        let fx = Fixture::new(seed);
        let warm = from_runner(&fx.runner.run(ShuffleMode::DaietAgg));
        times.push(t0.elapsed().as_secs_f64());
        count(out, &warm);
        last = Some(fx);
    }
    (last.expect("SETUPS > 0"), median(&times))
}

/// Counts a job in `out`; a wrong answer is this workload's only failure.
fn count(out: &mut Outcome, s: &Shuffle) {
    out.attempted += 1;
    if !s.correct {
        out.failed += 1;
        out.wrong += 1;
        eprintln!("wordcount-sim: a job's output differs from the ground truth");
    }
}

/// Times `Runner::run` jobs until `budget` has passed; returns each
/// job's wall time in ms and outputs. Every job must match the first
/// (they run the same input).
fn timed_jobs(fx: &Fixture, budget: Duration, out: &mut Outcome) -> (Vec<f64>, Vec<Shuffle>) {
    let (mut walls, mut jobs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        let run = fx.runner.run(ShuffleMode::DaietAgg);
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
        let s = from_runner(&run);
        count(out, &s);
        if jobs.first().is_some_and(|first: &Shuffle| *first != s) {
            out.violation(format!(
                "job {} of one input differs from job 0: {s:?}",
                jobs.len()
            ));
        }
        jobs.push(s);
    }
    (walls, jobs)
}

/// The run's deterministic outputs, for the cross-run record.
fn record_line(s: &Shuffle, link_bytes: u64) -> String {
    format!(
        "jct_ns={} reducer_frames={} reducer_bytes={} link_bytes={} digest={:016x}",
        s.jct_ns, s.reducer_frames, s.reducer_bytes, link_bytes, s.digest
    )
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (fx, setup_s) = set_up(seed, &mut out);
    let (walls, jobs) = timed_jobs(&fx, budget, &mut out);

    // The runner does not expose its link counters; a replica of the
    // same job does, and must match the runner's outputs exactly.
    let rep = replica(&fx, false);
    if rep.shuffle != jobs[0] {
        out.violation(format!(
            "replica {:?} differs from Runner::run {:?}",
            rep.shuffle, jobs[0]
        ));
    }
    runinfo::check_record(
        "wordcount-sim",
        seed,
        &[record_line(&jobs[0], rep.link_bytes)],
        &mut out,
    );

    let wall_tail = batched_tail(&walls);
    let jct: Vec<f64> = jobs.iter().map(|s| s.jct_ns as f64 / 1e3).collect();
    let jct_tail = batched_tail(&jct);
    out.put("setup_s", setup_s);
    out.put_noted(
        "job_wall_ms.mean",
        trimmed_mean(&walls),
        format!("n={}, median {:.3}", walls.len(), median(&walls)),
    );
    out.put_noted(
        "job_wall_ms.tail",
        wall_tail.value,
        runinfo::tail_note(&wall_tail),
    );
    let secs: Vec<f64> = walls.iter().map(|w| w / 1e3).collect();
    out.put(
        "pairs_per_s",
        trimmed_rate(&vec![fx.pairs as f64; walls.len()], &secs),
    );
    out.put_noted("sim_jct_us.mean", trimmed_mean(&jct), "simulated".into());
    out.put_noted(
        "sim_jct_us.tail",
        jct_tail.value,
        runinfo::tail_note(&jct_tail),
    );
    out.put("reducer_frames", jobs[0].reducer_frames as f64);
    out.put("reducer_bytes", jobs[0].reducer_bytes as f64);
    out.put("link_bytes", rep.link_bytes as f64);
    out.put("peak_rss_mb", runinfo::peak_rss_mb());
    out
}

/// The traced run: untraced jobs for the overhead baseline, traced
/// replicas that must reproduce them, then the frame-corpus replay.
pub fn run_traced(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (fx, _) = set_up(seed, &mut out);
    let (walls, jobs) = timed_jobs(&fx, budget.mul_f64(0.35), &mut out);
    let want = jobs[0];

    // Every job runs the same input, so the first traced job's counts
    // are every job's; times are summed over all of them.
    trace::enable();
    let mut traced_walls = Vec::new();
    let mut first: Option<Replica> = None;
    let start = Instant::now();
    while traced_walls.is_empty() || start.elapsed() < budget.mul_f64(0.35) {
        let t0 = Instant::now();
        let rep = span(Layer::Job, || replica(&fx, first.is_none()));
        traced_walls.push(t0.elapsed().as_secs_f64() * 1e3);
        count(&mut out, &rep.shuffle);
        if rep.shuffle != want {
            out.violation(format!(
                "traced job {:?} differs from untraced {want:?}",
                rep.shuffle
            ));
        }
        first.get_or_insert(rep);
    }
    let totals = trace::disable();
    let r = first.expect("at least one traced job");
    runinfo::check_record(
        "wordcount-sim",
        seed,
        &[record_line(&want, r.link_bytes)],
        &mut out,
    );

    let n = traced_walls.len() as f64;
    let layer = |l: Layer| totals[l as usize];
    let per_job_ms = |l: Layer| layer(l).self_ns as f64 / n / 1e6;
    let per_item_ns = |l: Layer, items: u64| ratio(layer(l).self_ns as f64, n * items as f64);
    let f = |x: u64| x as f64;
    out.put("netsim.events", f(r.events));
    out.put(
        "netsim.self_ns_per_event",
        per_item_ns(Layer::Netsim, r.events),
    );
    out.put("netsim.link_drops", f(r.link_drops));
    out.put("dataplane.switch_frames_in", f(r.switch_frames_in));
    out.put(
        "dataplane.switch_ns_per_frame",
        per_item_ns(Layer::Switch, r.switch_frames_in),
    );
    out.put(
        "core.engine.pairs_aggregated_frac",
        ratio(f(r.engine.pairs_aggregated), f(r.engine.pairs_in)),
    );
    out.put("core.engine.collisions", f(r.engine.collisions));
    out.put(
        "core.engine.frames_out_per_in",
        ratio(f(r.switch_frames_out), f(r.switch_frames_in)),
    );
    out.put(
        "core.worker.sender_build_ms",
        per_job_ms(Layer::SenderBuild),
    );
    out.put(
        "core.worker.mapper_ns_per_frame",
        per_item_ns(Layer::Mapper, r.mapper_frames_out),
    );
    out.put(
        "core.worker.reducer_ns_per_frame",
        per_item_ns(Layer::Reducer, r.reducer_frames_in),
    );
    out.put("mapreduce.to_pairs_ms", per_job_ms(Layer::ToPairs));
    out.put("core.controller.deploy_ms", per_job_ms(Layer::Controller));
    out.put("core.reliability.nacks", f(r.nacks));
    out.put("core.reliability.replayed_frames", f(r.replayed));
    out.put("core.reliability.dups_suppressed", f(r.dups));
    out.put_noted(
        "core.reliability.recovery_tail",
        f(r.recovery_tail_ns) / 1e3,
        "simulated: last mapper first transmission to last reducer done".into(),
    );
    let job_ns = f(layer(Layer::Job).total_ns);
    out.put_noted(
        "trace.unattributed_frac",
        ratio(f(layer(Layer::Job).self_ns), job_ns),
        format!("traced job {:.3} ms", job_ns / n / 1e6),
    );
    out.put_noted(
        "trace.overhead_frac",
        trimmed_mean(&traced_walls) / trimmed_mean(&walls) - 1.0,
        format!(
            "traced mean {:.3} ms vs untraced {:.3} ms",
            trimmed_mean(&traced_walls),
            trimmed_mean(&walls)
        ),
    );

    let times = replay::run(
        &fx,
        &r.capture,
        r.switch_frames_out,
        budget.mul_f64(0.2),
        &mut out,
    );
    out.put_noted("dataplane.parse_ns_per_frame", times.parse_ns, times.note);
    out.put("core.engine.invoke_ns_per_frame", times.invoke_ns);
    out.put("dataplane.pipeline_ns_per_frame", times.pipeline_ns);
    out.put("wire.build_ns_per_frame", times.build_ns);
    out
}
