//! `tenant-churn-sim`: one long-lived `JobScheduler` on a lossy
//! leaf-spine fabric, fed a stream of Poisson tenant mixes.
//!
//! Untraced jobs are `tenant::run_mix` calls. The traced run drives the
//! scheduler with [`traced_mix`], a copy of `run_mix`'s loop with spans
//! around each scheduler and workload call, on a scheduler rebuilt from
//! the same spec, and must reproduce the untraced mixes bit for bit. The
//! scheduler builds and owns its nodes, so they cannot be wrapped: switch
//! and host time stays inside `JobScheduler::step`.

use crate::report::Outcome;
use crate::runinfo::{self, Fnv};
use crate::stats::{batched_tail, median, ratio, trimmed_mean, trimmed_rate};
use crate::trace::{self, span, Layer};
use daiet::tenant::{
    poisson_offsets, run_mix, JobOutcome, JobRequest, JobScheduler, MixOptions, MixOutcome,
    TenantSpec, TenantWorkload,
};
use daiet::worker::{PacedSenderNode, ReducerHost};
use daiet::{AggFn, DaietConfig};
use daiet_fabric::{Duration, Time};
use daiet_mapreduce::WordCountTenant;
use daiet_mlsim::SgdTenant;
use daiet_netsim::{FaultProfile, LinkSpec, TopologyPlan};
use daiet_querysim::GroupByTenant;
use daiet_wire::daiet::{Key, Pair};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Poisson arrivals per mix.
const ARRIVALS: usize = 24;
/// Mean gap between arrivals.
const MEAN_GAP: Duration = Duration::from_micros(30);
/// Timed mixes the deterministic metrics are taken over. A run always
/// completes at least this many, so those metrics do not depend on
/// how fast the machine is.
const DETERMINISTIC_MIXES: usize = 40;

/// The shared fabric: a 4-leaf/2-spine pod, 12 sender and 6 reducer
/// slots, 1 % loss on every link, NACK recovery on.
fn tenant_spec(seed: u64) -> TenantSpec {
    let link = LinkSpec::fast()
        .with_queue_bytes(4 * 1024 * 1024)
        .with_faults(FaultProfile::loss(0.01));
    let plan = TopologyPlan::leaf_spine(5, 4, 2, link);
    let hosts = plan.hosts();
    let config = DaietConfig {
        register_cells: 1024,
        reliability: true,
        nack_recovery: true,
        nack_timeout_ns: 20_000,
        ..DaietConfig::default()
    }
    .with_rtx_sized_for_flush();
    let mut spec = TenantSpec::new(config, plan, hosts[..12].to_vec(), hosts[12..18].to_vec());
    spec.seed = seed;
    spec
}

fn build(seed: u64) -> JobScheduler {
    JobScheduler::build(tenant_spec(seed)).expect("the tenant fabric builds")
}

/// The arrival seed of mix `index`: each mix draws fresh arrivals and
/// inputs.
fn mix_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index as u64)
}

/// What a mix's workloads report back to the benchmark.
#[derive(Default)]
struct Tally {
    /// Input pairs handed to the scheduler.
    pairs: Cell<u64>,
    /// Whether a job's `verify` failed: a wrong answer, not only a failed
    /// job.
    wrong: Cell<bool>,
}

/// A tenant workload as the mix sees it, with its input pairs and
/// verification counted and its calls spanned.
struct Probe {
    inner: Box<dyn TenantWorkload>,
    tally: Rc<Tally>,
}

impl TenantWorkload for Probe {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn senders(&self) -> usize {
        self.inner.senders()
    }
    fn aggs(&self) -> Vec<AggFn> {
        self.inner.aggs()
    }
    fn rounds(&self) -> u64 {
        self.inner.rounds()
    }
    fn shards(&mut self, round: u64) -> Vec<Vec<Vec<Pair>>> {
        let shards = span(Layer::Shards, || self.inner.shards(round));
        let n: usize = shards.iter().flatten().map(Vec::len).sum();
        self.tally.pairs.set(self.tally.pairs.get() + n as u64);
        shards
    }
    fn absorb(&mut self, round: u64, per_tree: Vec<Vec<(Key, u32)>>) {
        span(Layer::Absorb, || self.inner.absorb(round, per_tree));
    }
    fn digest(&self) -> u64 {
        self.inner.digest()
    }
    fn verify(&self) -> Result<(), String> {
        let verdict = span(Layer::Verify, || self.inner.verify());
        if verdict.is_err() {
            self.tally.wrong.set(true);
        }
        verdict
    }
}

/// Mix `index`'s arrivals: WordCount, GROUP BY and SGD in turn.
fn arrivals(
    seed: u64,
    index: usize,
    tally: &Rc<Tally>,
) -> Vec<(Duration, Box<dyn TenantWorkload>)> {
    let s = mix_seed(seed, index);
    poisson_offsets(s, MEAN_GAP, ARRIVALS)
        .into_iter()
        .enumerate()
        .map(|(j, off)| {
            let js = s.wrapping_add(101 * j as u64);
            let inner: Box<dyn TenantWorkload> = match j % 3 {
                0 => Box::new(WordCountTenant::tiny(js)),
                1 => Box::new(GroupByTenant::tiny(js.wrapping_add(1))),
                _ => Box::new(SgdTenant::tiny(js.wrapping_add(2))),
            };
            (
                off,
                Box::new(Probe {
                    inner,
                    tally: tally.clone(),
                }) as Box<dyn TenantWorkload>,
            )
        })
        .collect()
}

/// The deterministic outputs of one mix (all zero for a failed mix).
#[derive(Debug, Clone, Default, PartialEq)]
struct Mix {
    /// Request-to-finish time of each job, µs of simulated time.
    jct_us: Vec<f64>,
    reducer_frames: u64,
    reducer_bytes: u64,
    link_bytes: u64,
    link_drops: u64,
    digest: u64,
}

impl Mix {
    fn line(&self) -> String {
        let mut h = Fnv::new();
        for j in &self.jct_us {
            h.u64(j.to_bits());
        }
        format!(
            "jct_digest={:016x} reducer_frames={} reducer_bytes={} link_bytes={} link_drops={} \
             digest={:016x}",
            h.finish(),
            self.reducer_frames,
            self.reducer_bytes,
            self.link_bytes,
            self.link_drops,
            self.digest
        )
    }
}

fn reducer_hosts(sched: &JobScheduler) -> impl Iterator<Item = &ReducerHost> {
    sched.spec().reducer_slots.iter().map(|&slot| {
        sched
            .sim()
            .node_ref::<ReducerHost>(sched.node_id(slot))
            .expect("reducer pool slot")
    })
}

fn sender_hosts(sched: &JobScheduler) -> impl Iterator<Item = &PacedSenderNode> {
    sched.spec().sender_slots.iter().map(|&slot| {
        sched
            .sim()
            .node_ref::<PacedSenderNode>(sched.node_id(slot))
            .expect("sender pool slot")
    })
}

fn reducer_app_bytes(sched: &JobScheduler) -> u64 {
    reducer_hosts(sched)
        .map(|h| h.collector.stats().app_bytes)
        .sum()
}

fn summarize(sched: &JobScheduler, out: &MixOutcome, app_bytes_before: u64) -> Mix {
    let mut h = Fnv::new();
    h.u64(out.makespan.as_nanos()).u64(out.result_pairs);
    for j in &out.jobs {
        h.u64(j.requested_at.0)
            .u64(j.admitted_at.0)
            .u64(j.finished_at.0);
        h.u64(j.rounds)
            .u64(u64::from(j.rejections))
            .u64(j.digest)
            .u64(j.result_pairs);
    }
    let reducer_frames = sched
        .spec()
        .reducer_slots
        .iter()
        .map(|&slot| {
            out.net
                .nodes
                .get(sched.node_id(slot).0)
                .map_or(0, |n| n.frames_in)
        })
        .sum();
    Mix {
        jct_us: out
            .jobs
            .iter()
            .map(|j| j.finished_at.0.saturating_sub(j.requested_at.0) as f64 / 1e3)
            .collect(),
        reducer_frames,
        reducer_bytes: reducer_app_bytes(sched) - app_bytes_before,
        link_bytes: out
            .net
            .links
            .iter()
            .flat_map(|l| l.dirs)
            .map(|d| d.tx_bytes)
            .sum(),
        link_drops: out.net.fault_drops() + out.net.overflow_drops(),
        digest: h.finish(),
    }
}

/// One mix's outcome.
struct MixRun {
    /// The mix's outputs and wall ms, or the error `run_mix` returned
    /// (`run_mix` verifies every job).
    result: Result<(Mix, f64), String>,
    pairs: u64,
    wrong: bool,
}

impl MixRun {
    /// The outputs, all zero for a failed mix.
    fn mix(&self) -> Mix {
        self.result
            .as_ref()
            .map(|(m, _)| m.clone())
            .unwrap_or_default()
    }
}

/// Runs mix `index` on `sched`: `run_mix`, or [`traced_mix`] when
/// `counters` is given. A failed mix leaves the scheduler rebuilt.
fn one_mix(
    sched: &mut JobScheduler,
    seed: u64,
    index: usize,
    counters: Option<&mut Counters>,
    out: &mut Outcome,
) -> MixRun {
    let tally = Rc::new(Tally::default());
    let arr = arrivals(seed, index, &tally);
    let opts = MixOptions::default();
    let app_before = reducer_app_bytes(sched);
    let t0 = Instant::now();
    let result = match counters {
        None => run_mix(sched, arr, &opts),
        Some(c) => {
            let before = fabric_counters(sched);
            let r = span(Layer::Job, || traced_mix(sched, arr, &opts, c));
            c.fabric.add_delta(&fabric_counters(sched), &before);
            r
        }
    };
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let run = MixRun {
        result: result.map(|mo| (summarize(sched, &mo, app_before), wall)),
        pairs: tally.pairs.get(),
        wrong: tally.wrong.get(),
    };
    out.attempted += 1;
    if let Err(e) = &run.result {
        out.failed += 1;
        out.wrong += u64::from(run.wrong);
        eprintln!("tenant-churn-sim: mix {index} failed: {e}");
        *sched = build(seed);
    }
    run
}

/// Set-up: build the scheduler and run mix 0 as warm-up, [`crate::SETUPS`]
/// times. Returns the last scheduler, mix 0's outputs and the median
/// set-up time in seconds.
fn set_up(seed: u64, out: &mut Outcome) -> (JobScheduler, Mix, f64) {
    let mut times = Vec::new();
    let mut last: Option<(JobScheduler, Mix)> = None;
    for _ in 0..crate::SETUPS {
        let t0 = Instant::now();
        let mut sched = build(seed);
        let warm = one_mix(&mut sched, seed, 0, None, out).mix();
        times.push(t0.elapsed().as_secs_f64());
        if last.as_ref().is_some_and(|(_, first)| *first != warm) {
            out.violation("two set-ups of one seed gave different warm-up mixes".into());
        }
        last = Some((sched, warm));
    }
    let (sched, warm) = last.expect("SETUPS > 0");
    (sched, warm, median(&times))
}

/// Untraced mixes 1, 2, … on `sched` while `more(mixes run so far)`.
fn untraced_mixes(
    sched: &mut JobScheduler,
    seed: u64,
    mut more: impl FnMut(usize) -> bool,
    out: &mut Outcome,
) -> Vec<MixRun> {
    let mut runs = Vec::new();
    while more(runs.len()) {
        runs.push(one_mix(sched, seed, runs.len() + 1, None, out));
    }
    runs
}

fn ok_walls(runs: &[MixRun]) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.result.as_ref().ok().map(|(_, w)| *w))
        .collect()
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, budget: std::time::Duration) -> Outcome {
    let mut out = Outcome::default();
    let (mut sched, warm, setup_s) = set_up(seed, &mut out);
    let start = Instant::now();
    let runs = untraced_mixes(
        &mut sched,
        seed,
        |k| k < DETERMINISTIC_MIXES || start.elapsed() < budget,
        &mut out,
    );
    let mut lines = vec![warm.line()];
    lines.extend(runs.iter().map(|r| r.mix().line()));
    runinfo::check_record("tenant-churn-sim", seed, &lines, &mut out);

    let walls = ok_walls(&runs);
    let pairs: Vec<f64> = runs
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.pairs as f64)
        .collect();
    let det: Vec<Mix> = runs[..DETERMINISTIC_MIXES]
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|(m, _)| m.clone()))
        .collect();
    let jct: Vec<f64> = det.iter().flat_map(|m| m.jct_us.iter().copied()).collect();
    let per_mix = |f: fn(&Mix) -> u64| median(&det.iter().map(|m| f(m) as f64).collect::<Vec<_>>());
    let wall_tail = batched_tail(&walls);
    let jct_tail = batched_tail(&jct);
    out.put("setup_s", setup_s);
    out.put_noted(
        "job_wall_ms.mean",
        trimmed_mean(&walls),
        format!("n={} mixes, median {:.3}", walls.len(), median(&walls)),
    );
    out.put_noted(
        "job_wall_ms.tail",
        wall_tail.value,
        runinfo::tail_note(&wall_tail),
    );
    let secs: Vec<f64> = walls.iter().map(|w| w / 1e3).collect();
    out.put("pairs_per_s", trimmed_rate(&pairs, &secs));
    out.put_noted(
        "sim_jct_us.mean",
        trimmed_mean(&jct),
        format!("simulated, {} jobs", jct.len()),
    );
    out.put_noted(
        "sim_jct_us.tail",
        jct_tail.value,
        runinfo::tail_note(&jct_tail),
    );
    out.put_noted(
        "reducer_frames",
        per_mix(|m| m.reducer_frames),
        format!(
            "median per mix, over the {} of the first {DETERMINISTIC_MIXES} that succeeded",
            det.len()
        ),
    );
    out.put("reducer_bytes", per_mix(|m| m.reducer_bytes));
    out.put("link_bytes", per_mix(|m| m.link_bytes));
    out.put("peak_rss_mb", runinfo::peak_rss_mb());
    out
}

/// Counters gathered around the traced loop.
#[derive(Default)]
struct Counters {
    admits: u64,
    rejects: u64,
    rounds: u64,
    /// Reducer NACKs and duplicates: the guards restart at each
    /// admission's re-roster, so deltas are taken around every admit.
    reducer_nacks: u64,
    reducer_dups: u64,
    last_nacks: Vec<u64>,
    last_dups: Vec<u64>,
    /// Σ over mixes of (mix end − last step that left a sender with
    /// frames still to send).
    recovery_tail_ns: u64,
    /// Switch-side counters grown over the traced mixes.
    fabric: Fabric,
}

impl Counters {
    fn sync_reducers(&mut self, sched: &JobScheduler) {
        let (nacks, dups): (Vec<u64>, Vec<u64>) = reducer_hosts(sched)
            .map(|h| (h.nacks_emitted(), h.duplicates_suppressed()))
            .unzip();
        if self.last_nacks.len() != nacks.len() {
            self.last_nacks = vec![0; nacks.len()];
            self.last_dups = vec![0; dups.len()];
        }
        for i in 0..nacks.len() {
            self.reducer_nacks += nacks[i].saturating_sub(self.last_nacks[i]);
            self.reducer_dups += dups[i].saturating_sub(self.last_dups[i]);
        }
        self.last_nacks = nacks;
        self.last_dups = dups;
    }
}

struct Pending {
    due: Time,
    idx: usize,
    wl: Box<dyn TenantWorkload>,
    requested_at: Time,
    rejections: u32,
}

struct Running {
    idx: usize,
    job: daiet::tenant::JobId,
    wl: Box<dyn TenantWorkload>,
    requested_at: Time,
    admitted_at: Time,
    rejections: u32,
    round: u64,
    open: bool,
    result_pairs: u64,
}

/// `tenant::run_mix`, step for step, with spans around each scheduler
/// call and the counters of [`Counters`]. Must stay in step with
/// `run_mix`; the traced-run identity check fails if it drifts.
fn traced_mix(
    sched: &mut JobScheduler,
    arrivals: Vec<(Duration, Box<dyn TenantWorkload>)>,
    opts: &MixOptions,
    c: &mut Counters,
) -> Result<MixOutcome, String> {
    let base = sched.now();
    let snap_start = sched.sim().snapshot();
    let hard_deadline = base + opts.deadline;
    let n = arrivals.len();
    let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();
    let mut pending: Vec<Pending> = arrivals
        .into_iter()
        .enumerate()
        .map(|(idx, (offset, wl))| Pending {
            due: base + offset,
            idx,
            wl,
            requested_at: base + offset,
            rejections: 0,
        })
        .collect();
    pending.sort_by_key(|p| (p.due.as_nanos(), p.idx));
    let mut running: Vec<Running> = Vec::new();
    let mut drained_at = base;

    while !pending.is_empty() || !running.is_empty() {
        if sched.now().as_nanos() > hard_deadline.as_nanos() {
            return Err(format!(
                "mix exceeded its deadline with {} jobs pending, {} running",
                pending.len(),
                running.len()
            ));
        }
        while pending
            .first()
            .is_some_and(|p| p.due.as_nanos() <= sched.now().as_nanos())
        {
            let mut p = pending.remove(0);
            let req = JobRequest {
                label: p.wl.label(),
                senders: p.wl.senders(),
                aggs: p.wl.aggs(),
            };
            c.admits += 1;
            c.sync_reducers(sched);
            let admitted = span(Layer::Admit, || sched.admit(req));
            c.sync_reducers(sched);
            match admitted {
                Ok(job) => running.push(Running {
                    idx: p.idx,
                    job,
                    wl: p.wl,
                    requested_at: p.requested_at,
                    admitted_at: sched.now(),
                    rejections: p.rejections,
                    round: 0,
                    open: false,
                    result_pairs: 0,
                }),
                Err(e) => {
                    c.rejects += 1;
                    if running.is_empty() {
                        return Err(format!(
                            "arrival {} ({}) can never be admitted: {e}",
                            p.idx,
                            p.wl.label()
                        ));
                    }
                    p.rejections += 1;
                    p.due = sched.now() + opts.retry;
                    let at = pending
                        .iter()
                        .position(|q| (q.due.as_nanos(), q.idx) > (p.due.as_nanos(), p.idx))
                        .unwrap_or(pending.len());
                    pending.insert(at, p);
                }
            }
        }

        let mut i = 0;
        while i < running.len() {
            let finished = {
                let r = &mut running[i];
                if !r.open {
                    let shards = r.wl.shards(r.round);
                    span(Layer::RoundIo, || sched.begin_round(r.job, &shards))?;
                    r.open = true;
                    false
                } else if !span(Layer::RoundIo, || sched.round_done(r.job))? {
                    false
                } else {
                    let per_tree = span(Layer::RoundIo, || sched.collect_round(r.job))?;
                    c.rounds += 1;
                    r.result_pairs += per_tree.iter().map(|v| v.len() as u64).sum::<u64>();
                    r.wl.absorb(r.round, per_tree);
                    r.open = false;
                    r.round += 1;
                    r.round == r.wl.rounds()
                }
            };
            if finished {
                let r = running.remove(i);
                r.wl.verify()
                    .map_err(|e| format!("{} failed verification: {e}", r.wl.label()))?;
                let usage = span(Layer::Depart, || sched.depart(r.job))?;
                outcomes[r.idx] = Some(JobOutcome {
                    label: r.wl.label(),
                    requested_at: r.requested_at,
                    admitted_at: r.admitted_at,
                    finished_at: usage.departed_at,
                    rounds: usage.rounds,
                    rejections: r.rejections,
                    digest: r.wl.digest(),
                    result_pairs: r.result_pairs,
                    usage: usage.usage,
                });
            } else {
                i += 1;
            }
        }

        if running.is_empty() {
            match pending.first() {
                Some(p) => {
                    let due = p.due;
                    span(Layer::Step, || sched.advance_to(due));
                }
                None => break,
            }
        } else {
            let busy = sender_hosts(sched).any(|s| s.pending() > 0);
            span(Layer::Step, || sched.step(opts.poll));
            if busy {
                drained_at = sched.now();
            }
        }
    }
    c.sync_reducers(sched);
    c.recovery_tail_ns += sched.now().as_nanos().saturating_sub(drained_at.as_nanos());

    let jobs: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every arrival either finished or errored out"))
        .collect();
    let result_pairs = jobs.iter().map(|j| j.result_pairs).sum();
    Ok(MixOutcome {
        jobs,
        makespan: sched.now().duration_since(base),
        result_pairs,
        net: sched.sim().snapshot().delta(&snap_start),
    })
}

/// Switch-side counters of the whole fabric.
#[derive(Default, Clone, Copy)]
struct Fabric {
    events: u64,
    packets_in: u64,
    frames_out: u64,
    pairs_in: u64,
    pairs_aggregated: u64,
    collisions: u64,
    nacks: u64,
    replayed: u64,
    dups: u64,
}

impl Fabric {
    fn add_delta(&mut self, after: &Fabric, before: &Fabric) {
        self.events += after.events - before.events;
        self.packets_in += after.packets_in - before.packets_in;
        self.frames_out += after.frames_out - before.frames_out;
        self.pairs_in += after.pairs_in - before.pairs_in;
        self.pairs_aggregated += after.pairs_aggregated - before.pairs_aggregated;
        self.collisions += after.collisions - before.collisions;
        self.nacks += after.nacks - before.nacks;
        self.replayed += after.replayed - before.replayed;
        self.dups += after.dups - before.dups;
    }
}

fn fabric_counters(sched: &JobScheduler) -> Fabric {
    let mut f = Fabric {
        events: sched.sim().events_processed(),
        ..Fabric::default()
    };
    for slot in sched.spec().plan.switches() {
        let s = sched.switch(slot).stats();
        let e = sched.engine(slot).stats();
        f.packets_in += s.packets_in;
        f.frames_out += s.forwarded + s.extern_emissions;
        f.pairs_in += e.pairs_in;
        f.pairs_aggregated += e.pairs_aggregated;
        f.collisions += e.collisions;
        f.nacks += e.nacks_out;
        f.replayed += e.frames_replayed;
        f.dups += sched.engine(slot).duplicates_suppressed();
    }
    f.replayed += sender_hosts(sched).map(|s| s.frames_replayed).sum::<u64>();
    f
}

/// The traced run: untraced mixes for the overhead baseline, then the
/// same mixes traced on a rebuilt scheduler, which must match them.
pub fn run_traced(seed: u64, budget: std::time::Duration) -> Outcome {
    let mut out = Outcome::default();
    let (mut sched, warm, _) = set_up(seed, &mut out);
    let start = Instant::now();
    let untraced = untraced_mixes(
        &mut sched,
        seed,
        |k| k < 1 || start.elapsed() < budget.mul_f64(0.45),
        &mut out,
    );
    let want: Vec<Mix> = std::iter::once(warm)
        .chain(untraced.iter().map(MixRun::mix))
        .collect();
    let lines: Vec<String> = want.iter().map(Mix::line).collect();
    runinfo::check_record("tenant-churn-sim", seed, &lines, &mut out);

    let mut sched = build(seed);
    let mut c = Counters::default();
    let mut traced_walls = Vec::new();
    let mut drops = 0;
    trace::enable();
    let start = Instant::now();
    for (index, want) in want.iter().enumerate() {
        if index > 1 && start.elapsed() > budget.mul_f64(0.45) {
            break;
        }
        let run = one_mix(&mut sched, seed, index, Some(&mut c), &mut out);
        let got = run.mix();
        if got != *want {
            out.violation(format!(
                "traced mix {index} differs from untraced: {} vs {}",
                got.line(),
                want.line()
            ));
        }
        drops += got.link_drops;
        // Mix 0 is the untraced run's warm-up, outside its timed jobs.
        if let (Ok((_, wall)), true) = (&run.result, index > 0) {
            traced_walls.push(*wall);
        }
    }
    let totals = trace::disable();
    let n = totals[Layer::Job as usize].calls.max(1) as f64;
    let layer = |l: Layer| totals[l as usize];
    let per_call_us = |l: Layer| ratio(layer(l).total_ns as f64, layer(l).calls as f64) / 1e3;
    let d = |f: fn(&Fabric) -> u64| f(&c.fabric) as f64;
    let step_ns = layer(Layer::Step).self_ns as f64;

    out.put("netsim.events", d(|f| f.events) / n);
    out.put_noted(
        "netsim.self_ns_per_event",
        ratio(step_ns, d(|f| f.events)),
        "JobScheduler::step per event, node callbacks included (the scheduler owns its nodes)"
            .into(),
    );
    out.put("netsim.link_drops", drops as f64 / n);
    out.put("dataplane.switch_frames_in", d(|f| f.packets_in) / n);
    out.put(
        "core.engine.pairs_aggregated_frac",
        ratio(d(|f| f.pairs_aggregated), d(|f| f.pairs_in)),
    );
    out.put("core.engine.collisions", d(|f| f.collisions) / n);
    out.put(
        "core.engine.frames_out_per_in",
        ratio(d(|f| f.frames_out), d(|f| f.packets_in)),
    );
    out.put(
        "core.reliability.nacks",
        (d(|f| f.nacks) + c.reducer_nacks as f64) / n,
    );
    out.put("core.reliability.replayed_frames", d(|f| f.replayed) / n);
    out.put(
        "core.reliability.dups_suppressed",
        (d(|f| f.dups) + c.reducer_dups as f64) / n,
    );
    out.put_noted(
        "core.reliability.recovery_tail",
        c.recovery_tail_ns as f64 / n / 1e3,
        "simulated: last poll with frames unsent to mix end".into(),
    );
    out.put("core.tenant.admit_us", per_call_us(Layer::Admit));
    out.put(
        "core.tenant.admit_reject_frac",
        ratio(c.rejects as f64, c.admits as f64),
    );
    out.put("core.tenant.depart_us", per_call_us(Layer::Depart));
    out.put_noted("core.tenant.step_ms", step_ns / n / 1e6, "per mix".into());
    out.put(
        "core.tenant.round_io_us",
        ratio(layer(Layer::RoundIo).total_ns as f64, c.rounds as f64) / 1e3,
    );
    out.put("workload.shards_us", per_call_us(Layer::Shards));
    out.put("workload.absorb_us", per_call_us(Layer::Absorb));
    out.put("workload.verify_us", per_call_us(Layer::Verify));
    let job_ns = layer(Layer::Job).total_ns as f64;
    out.put_noted(
        "trace.unattributed_frac",
        ratio(layer(Layer::Job).self_ns as f64, job_ns),
        format!("traced mix {:.3} ms", job_ns / n / 1e6),
    );
    let untraced = ok_walls(&untraced);
    out.put_noted(
        "trace.overhead_frac",
        trimmed_mean(&traced_walls) / trimmed_mean(&untraced) - 1.0,
        format!(
            "traced mean {:.3} ms vs untraced {:.3} ms",
            trimmed_mean(&traced_walls),
            trimmed_mean(&untraced)
        ),
    );
    out
}
