//! `loopback-lossy`: the `daiet-loadgen` job over real 127.0.0.1 UDP
//! sockets, with seeded loss on the switch's egress and NACK recovery.
//!
//! One thread drives every `NodeDriver`: one `run` call with a zero
//! deadline is one poll pass, and the drivers are polled round-robin.
//! Pacing is 1 µs, so CPU work, not the pacing schedule, sets the pace.
//! A job is deploy, bind, then poll until every reducer is complete with
//! no gaps; the sockets close when it ends.

use crate::report::Outcome;
use crate::runinfo::{self, Fnv};
use crate::stats::{batched_tail, median, ratio, trimmed_mean, trimmed_rate};
use crate::trace::{self, span, Layer, Traced};
use daiet::controller::{AggregationMode, Controller, JobPlacement};
use daiet::loopback::{wall_clock_config, LoopbackJob};
use daiet::worker::{PacedSenderNode, ReducerHost};
use daiet::{AggFn, DaietConfig};
use daiet_dataplane::{Resources, Switch};
use daiet_fabric::{Duration, FaultShim, Node, NodeDriver, NodeSpec};
use daiet_netsim::{LinkSpec, TopologyPlan};
use daiet_wire::daiet::{Key, Pair};
use std::collections::BTreeMap;
use std::time::Instant;

const FLOWS: usize = 2000;
const WORKERS: usize = 8;
const REDUCERS: usize = 4;
const PAIRS_PER_FLOW: usize = 16;
const CELLS: usize = 4096;
/// Seeded loss on the switch's egress.
const LOSS: f64 = 0.02;
const PACING: Duration = Duration::from_micros(1);
/// A job not done by then counts as failed.
const JOB_DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

/// The generated job.
struct Fixture {
    config: DaietConfig,
    plan: TopologyPlan,
    placement: JobPlacement,
    switch_slot: usize,
    /// `shards[worker][tree]`.
    shards: Vec<Vec<Vec<Pair>>>,
    /// Expected result per tree, sorted.
    truth: Vec<Vec<(String, u32)>>,
    pairs: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Fixture {
    /// `daiet-loadgen --flows=2000 --workers=8 --reducers=4 --pairs=16
    /// --loss-pct=2`, with keys and values drawn from `seed`.
    fn new(seed: u64) -> Fixture {
        let config = wall_clock_config(
            DaietConfig {
                register_cells: CELLS,
                reliability: true,
                nack_recovery: true,
                ..DaietConfig::default()
            }
            .with_rtx_sized_for_flush(),
        );
        let plan = TopologyPlan::star(WORKERS + REDUCERS, LinkSpec::fast());
        let switch_slot = plan.switches()[0];
        let placement = JobPlacement {
            mappers: (0..WORKERS).collect(),
            reducers: (WORKERS..WORKERS + REDUCERS).collect(),
        };
        // Flow f lands on worker f % WORKERS and tree f % REDUCERS; keys
        // are shared across flows of a tree, so the switch aggregates.
        let key_offset = (splitmix(seed) % 500) as usize;
        let mut shards = vec![vec![Vec::new(); REDUCERS]; WORKERS];
        let mut truth: Vec<BTreeMap<String, u32>> = vec![BTreeMap::new(); REDUCERS];
        for f in 0..FLOWS {
            let (w, r) = (f % WORKERS, f % REDUCERS);
            for j in 0..PAIRS_PER_FLOW {
                let word = format!("k{:04}", (f / REDUCERS + j + key_offset) % 500);
                let draw = splitmix(seed ^ (((f * PAIRS_PER_FLOW + j) as u64) << 8));
                let value = (draw % 97 + 1) as u32;
                shards[w][r].push(Pair::new(
                    Key::from_str_key(&word).expect("short key"),
                    value,
                ));
                *truth[r].entry(word).or_insert(0) += value;
            }
        }
        Fixture {
            config,
            plan,
            placement,
            switch_slot,
            shards,
            truth: truth.into_iter().map(|t| t.into_iter().collect()).collect(),
            pairs: (FLOWS * PAIRS_PER_FLOW) as u64,
        }
    }
}

/// A node as its `NodeDriver` holds it, through the wrapper if traced.
fn node_as<T: 'static>(d: &NodeDriver) -> Option<&T> {
    d.node_ref::<T>()
        .or_else(|| d.node_ref::<Traced>().and_then(Traced::inner_ref::<T>))
}

fn reducer(d: &NodeDriver) -> &ReducerHost {
    node_as::<ReducerHost>(d).expect("reducer slot")
}

/// What one job did.
#[derive(Default)]
struct Job {
    done: bool,
    /// Wall time from the start of deployment to done.
    wall_ms: f64,
    correct: bool,
    digest: u64,
    /// Latest reducer completion on the reducers' driver clocks, µs.
    jct_us: f64,
    /// Frames the reducers received, less the duplicates they suppressed.
    reducer_frames: u64,
    reducer_bytes: u64,
    link_bytes: u64,
    polls: u64,
    useful_polls: u64,
    frames_handled: u64,
    shim_dropped: u64,
    switch_in: u64,
    switch_out: u64,
    mapper_out: u64,
    reducer_in: u64,
    pairs_in: u64,
    pairs_aggregated: u64,
    collisions: u64,
    nacks: u64,
    replayed: u64,
    dups: u64,
    /// Wall time from the last mapper first transmission to done, µs.
    recovery_tail_us: f64,
}

/// Deploys the job, binds every node to a loopback socket and polls the
/// drivers round-robin until every reducer is complete with no gaps, or
/// the deadline passes.
fn drive(fx: &Fixture, shim_seed: u64, traced: bool) -> (Vec<NodeDriver>, Job) {
    let lj = span(Layer::Controller, || {
        LoopbackJob::deploy(
            Controller::new(fx.config, AggFn::Sum),
            fx.plan.clone(),
            fx.placement.clone(),
            Resources::tofino_like(),
            AggregationMode::InNetwork,
        )
    })
    .expect("deployment fits the chip");
    let mut specs = lj.specs(fx.shards.clone(), PACING, 1);
    specs[fx.switch_slot].shim = FaultShim::seeded(shim_seed, LOSS, 0.0);
    let mut ports = vec![Vec::new(); specs.len()];
    for (a, b) in lj.links() {
        ports[a].push(b);
        ports[b].push(a);
    }

    let mut drivers = Vec::with_capacity(specs.len());
    for (slot, spec) in specs.into_iter().enumerate() {
        let NodeSpec { build, shim, .. } = spec;
        let (build_layer, node_layer) = if slot == fx.switch_slot {
            (Layer::Controller, Layer::Switch)
        } else if slot < WORKERS {
            (Layer::SenderBuild, Layer::Mapper)
        } else {
            (Layer::ReducerBuild, Layer::Reducer)
        };
        let node = span(build_layer, build);
        let node: Box<dyn Node> = if traced {
            Box::new(Traced::new(node, node_layer, Layer::FabricUdp))
        } else {
            node
        };
        let mut driver = span(Layer::FabricUdp, || NodeDriver::bind(node, "127.0.0.1:0"))
            .expect("bind a loopback socket");
        driver.set_fault_shim(shim);
        drivers.push(driver);
    }
    let addrs: Vec<_> = drivers
        .iter()
        .map(|d| d.local_addr().expect("bound socket"))
        .collect();
    for (slot, d) in drivers.iter_mut().enumerate() {
        d.set_peers(ports[slot].iter().map(|&p| addrs[p]).collect());
    }

    let mut job = Job::default();
    let start = Instant::now();
    job.done = loop {
        for d in &mut drivers {
            let before = d.stats().frames_in;
            span(Layer::FabricUdp, || {
                d.run(std::time::Duration::ZERO, |_| false)
            });
            job.polls += 1;
            job.useful_polls += u64::from(d.stats().frames_in > before);
        }
        let all_done = fx.placement.reducers.iter().all(|&s| {
            let h = reducer(&drivers[s]);
            h.collector.is_complete() && h.recovery_satisfied()
        });
        if all_done {
            break true;
        }
        if start.elapsed() > JOB_DEADLINE {
            break false;
        }
    };
    (drivers, job)
}

/// Runs one job. Its wall time ends when the job is done: reading the
/// answers out of the nodes and checking them is not part of it.
fn run_job(fx: &Fixture, shim_seed: u64, traced: bool) -> Job {
    let t0 = Instant::now();
    let (drivers, mut job) = span(Layer::Job, || drive(fx, shim_seed, traced));
    let done_at = Instant::now();
    job.wall_ms = done_at.duration_since(t0).as_secs_f64() * 1e3;

    let mut digest = Fnv::new();
    job.correct = job.done;
    for (r, &slot) in fx.placement.reducers.iter().enumerate() {
        let h = reducer(&drivers[slot]);
        let mut got: Vec<(String, u32)> = h
            .collector
            .get_all()
            .map(|(k, v)| (k.display_lossy(), v))
            .collect();
        got.sort();
        job.correct &= h.collector.is_complete() && got == fx.truth[r];
        for (k, v) in &got {
            for b in k.bytes() {
                digest.u64(u64::from(b));
            }
            digest.u64(u64::from(*v));
        }
        job.jct_us = job
            .jct_us
            .max(h.completed_at.map_or(0.0, |t| t.0 as f64 / 1e3));
        // A duplicate is a recovery replay whose original also arrived:
        // how many depends on wall-clock timing, so it is counted in
        // `link_bytes` and `core.reliability.dups_suppressed`, not here.
        job.reducer_frames += drivers[slot].stats().frames_in - h.duplicates_suppressed();
        job.reducer_bytes += h.collector.stats().app_bytes;
        job.nacks += h.nacks_emitted();
        job.dups += h.duplicates_suppressed();
    }
    job.digest = digest.finish();
    let mut last_first_tx: Option<Instant> = None;
    for (slot, d) in drivers.iter().enumerate() {
        let s = d.stats();
        job.link_bytes += s.bytes_out;
        job.frames_handled += s.frames_in + s.frames_out;
        job.shim_dropped += s.shim_dropped;
        if let Some(t) = d.node_ref::<Traced>() {
            if slot == fx.switch_slot {
                job.switch_in += t.frames_in;
                job.switch_out += t.frames_out;
            } else if slot < WORKERS {
                job.mapper_out += t.frames_out;
                last_first_tx = last_first_tx.max(t.last_timer_send.map(|(_, at)| at));
            } else {
                job.reducer_in += t.frames_in;
            }
        }
        if let Some(s) = node_as::<PacedSenderNode>(d) {
            job.replayed += s.frames_replayed;
        }
        if let Some(sw) = node_as::<Switch>(d) {
            let engine = crate::wordcount::engine_of(sw).1;
            let e = engine.stats();
            job.pairs_in += e.pairs_in;
            job.pairs_aggregated += e.pairs_aggregated;
            job.collisions += e.collisions;
            job.nacks += e.nacks_out;
            job.replayed += e.frames_replayed;
            job.dups += engine.duplicates_suppressed();
        }
    }
    job.recovery_tail_us = last_first_tx.map_or(0.0, |t| {
        done_at.saturating_duration_since(t).as_secs_f64() * 1e6
    });
    job
}

/// Counts `what` in `out`: a job past its deadline failed; one
/// done with the wrong pairs also gave a wrong answer.
fn count(out: &mut Outcome, what: &str, job: &Job) {
    out.attempted += 1;
    if !job.correct {
        out.failed += 1;
        out.wrong += u64::from(job.done);
        eprintln!("loopback-lossy: {what} failed (done={})", job.done);
    }
}

/// The loss pattern of job `index`: each job draws its own.
fn shim_seed(seed: u64, index: usize) -> u64 {
    splitmix(seed ^ (index as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Set-up: generate the flows, [`crate::SETUPS`] times, then run
/// warm-up jobs (checked like the timed ones). The set-up time is the
/// median time to generate the flows. It leaves the warm-up jobs out:
/// every job deploys and binds afresh, so none of its work could move
/// into them, and a job's length moves in 3 ms steps of the NACK timer,
/// which would make the median jump by up to a third between runs.
fn set_up(seed: u64, out: &mut Outcome) -> (Fixture, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..crate::SETUPS {
        let t0 = Instant::now();
        last = Some(Fixture::new(seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    let fx = last.expect("SETUPS > 0");
    for i in 0..crate::SETUPS {
        let warm = run_job(&fx, shim_seed(seed, usize::MAX - i), false);
        count(out, &format!("warm-up {i}"), &warm);
    }
    (fx, median(&times))
}

/// Untraced jobs until `budget` has passed.
fn timed_jobs(fx: &Fixture, seed: u64, budget: std::time::Duration, out: &mut Outcome) -> Vec<Job> {
    let mut jobs = Vec::new();
    let start = Instant::now();
    while jobs.is_empty() || start.elapsed() < budget {
        let job = run_job(fx, shim_seed(seed, jobs.len()), false);
        count(out, &format!("job {}", jobs.len()), &job);
        jobs.push(job);
    }
    jobs
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, budget: std::time::Duration) -> Outcome {
    let mut out = Outcome::default();
    let (fx, setup_s) = set_up(seed, &mut out);
    let jobs = timed_jobs(&fx, seed, budget, &mut out);
    let ok: Vec<&Job> = jobs.iter().filter(|j| j.correct).collect();
    let walls: Vec<f64> = ok.iter().map(|j| j.wall_ms).collect();
    let jct: Vec<f64> = ok.iter().map(|j| j.jct_us).collect();
    // Trimmed means: how much recovery traffic a job needs depends on
    // timing (a share of jobs replays a whole flush), and a stall of the
    // machine inflates the jobs it lands in.
    let per_job =
        |f: fn(&Job) -> u64| trimmed_mean(&ok.iter().map(|j| f(j) as f64).collect::<Vec<_>>());
    let (wall_tail, jct_tail) = (batched_tail(&walls), batched_tail(&jct));
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
    // A failed job's time counts, its pairs do not.
    let done: Vec<f64> = jobs
        .iter()
        .map(|j| if j.correct { fx.pairs as f64 } else { 0.0 })
        .collect();
    let secs: Vec<f64> = jobs.iter().map(|j| j.wall_ms / 1e3).collect();
    out.put("pairs_per_s", trimmed_rate(&done, &secs));
    out.put_noted(
        "sim_jct_us.mean",
        trimmed_mean(&jct),
        "wall: reducers' driver clocks".into(),
    );
    out.put_noted(
        "sim_jct_us.tail",
        jct_tail.value,
        runinfo::tail_note(&jct_tail),
    );
    out.put_noted(
        "reducer_frames",
        per_job(|j| j.reducer_frames),
        "per job, suppressed duplicates left out".into(),
    );
    out.put("reducer_bytes", per_job(|j| j.reducer_bytes));
    out.put("link_bytes", per_job(|j| j.link_bytes));
    out.put("peak_rss_mb", runinfo::peak_rss_mb());
    out
}

/// The traced run: untraced jobs for the overhead baseline, then traced
/// jobs, whose aggregates must match the untraced ones.
pub fn run_traced(seed: u64, budget: std::time::Duration) -> Outcome {
    let mut out = Outcome::default();
    let (fx, _) = set_up(seed, &mut out);
    let untraced = timed_jobs(&fx, seed, budget.mul_f64(0.45), &mut out);
    // Every correct job has the same aggregates, whatever its loss.
    let want = untraced.iter().find(|j| j.correct).map(|j| j.digest);

    trace::enable();
    let mut walls = Vec::new();
    let mut sum = Job::default();
    let mut tail_us = 0.0;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < budget.mul_f64(0.45) {
        let job = run_job(&fx, shim_seed(seed, walls.len()), true);
        walls.push(job.wall_ms);
        count(&mut out, &format!("traced job {}", walls.len() - 1), &job);
        if job.done && want.is_some_and(|w| w != job.digest) {
            out.violation(format!(
                "traced job {} aggregates differ from the untraced run",
                walls.len() - 1
            ));
        }
        for (acc, x) in [
            (&mut sum.polls, job.polls),
            (&mut sum.useful_polls, job.useful_polls),
            (&mut sum.frames_handled, job.frames_handled),
            (&mut sum.shim_dropped, job.shim_dropped),
            (&mut sum.switch_in, job.switch_in),
            (&mut sum.switch_out, job.switch_out),
            (&mut sum.mapper_out, job.mapper_out),
            (&mut sum.reducer_in, job.reducer_in),
            (&mut sum.pairs_in, job.pairs_in),
            (&mut sum.pairs_aggregated, job.pairs_aggregated),
            (&mut sum.collisions, job.collisions),
            (&mut sum.nacks, job.nacks),
            (&mut sum.replayed, job.replayed),
            (&mut sum.dups, job.dups),
        ] {
            *acc += x;
        }
        tail_us += job.recovery_tail_us;
    }
    let totals = trace::disable();
    let n = walls.len() as f64;
    let layer = |l: Layer| totals[l as usize];
    let f = |x: u64| x as f64;
    out.put("dataplane.switch_frames_in", f(sum.switch_in) / n);
    out.put(
        "dataplane.switch_ns_per_frame",
        ratio(f(layer(Layer::Switch).self_ns), f(sum.switch_in)),
    );
    out.put(
        "core.engine.pairs_aggregated_frac",
        ratio(f(sum.pairs_aggregated), f(sum.pairs_in)),
    );
    out.put("core.engine.collisions", f(sum.collisions) / n);
    out.put(
        "core.engine.frames_out_per_in",
        ratio(f(sum.switch_out), f(sum.switch_in)),
    );
    out.put(
        "core.worker.sender_build_ms",
        f(layer(Layer::SenderBuild).self_ns) / n / 1e6,
    );
    out.put(
        "core.worker.mapper_ns_per_frame",
        ratio(f(layer(Layer::Mapper).self_ns), f(sum.mapper_out)),
    );
    out.put(
        "core.worker.reducer_ns_per_frame",
        ratio(f(layer(Layer::Reducer).self_ns), f(sum.reducer_in)),
    );
    out.put_noted(
        "core.controller.deploy_ms",
        f(layer(Layer::Controller).self_ns) / n / 1e6,
        "LoopbackJob::deploy and the switch build that re-deploys".into(),
    );
    out.put("core.reliability.nacks", f(sum.nacks) / n);
    out.put("core.reliability.replayed_frames", f(sum.replayed) / n);
    out.put("core.reliability.dups_suppressed", f(sum.dups) / n);
    out.put_noted(
        "core.reliability.recovery_tail",
        tail_us / n,
        "wall: last mapper first transmission to done".into(),
    );
    out.put_noted(
        "fabric.udp.self_ns_per_frame",
        ratio(f(layer(Layer::FabricUdp).self_ns), f(sum.frames_handled)),
        "binds, poll passes and socket sends, per frame in or out".into(),
    );
    out.put("fabric.udp.polls", f(sum.polls) / n);
    out.put(
        "fabric.udp.useful_poll_frac",
        ratio(f(sum.useful_polls), f(sum.polls)),
    );
    out.put("fabric.udp.shim_dropped", f(sum.shim_dropped) / n);
    let job_ns = f(layer(Layer::Job).total_ns);
    out.put_noted(
        "trace.unattributed_frac",
        ratio(f(layer(Layer::Job).self_ns), job_ns),
        format!("traced job {:.3} ms", job_ns / n / 1e6),
    );
    let base: Vec<f64> = untraced.iter().map(|j| j.wall_ms).collect();
    out.put_noted(
        "trace.overhead_frac",
        trimmed_mean(&walls) / trimmed_mean(&base) - 1.0,
        format!(
            "traced mean {:.3} ms vs untraced {:.3} ms",
            trimmed_mean(&walls),
            trimmed_mean(&base)
        ),
    );
    out
}
