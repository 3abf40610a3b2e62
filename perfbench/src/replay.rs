//! Frame-corpus replay: the switch-ingress frames of one traced
//! `wordcount-sim` job, fed again through the per-packet stages one at a
//! time, so each stage's ns/frame comes from the workload's own traffic.
//!
//! * parse — `parser::parse` with the switch's parser settings;
//! * invoke — `DaietEngine::invoke` (Algorithm 1) through `SwitchExtern`,
//!   on a freshly deployed switch's engine: parse plus invoke, minus parse;
//! * pipeline — `Switch::process_into` on a freshly deployed switch,
//!   minus parse plus invoke;
//! * build — `build_daiet_into` of every DATA/END frame, which must
//!   reproduce the captured bytes exactly.
//!
//! Invoke is timed together with its parse, as the switch runs them:
//! pre-parsing the whole corpus would hand the engine cold packets the
//! switch never sees. Each round times every stage once, and the
//! differences are taken within a round, so drift between rounds cancels.

use crate::report::Outcome;
use crate::stats::median;
use crate::wordcount::{engine_of, Fixture};
use daiet::DaietEngine;
use daiet_dataplane::parser::{parse, ParserConfig};
use daiet_dataplane::{PacketCtx, SwitchExtern};
use daiet_fabric::{Frame, FramePool, PortId, Time};
use daiet_wire::daiet::{Header, Pair};
use daiet_wire::stack::{build_daiet_into, Endpoints};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median ns/frame of each stage.
pub struct Times {
    pub parse_ns: f64,
    pub invoke_ns: f64,
    pub pipeline_ns: f64,
    pub build_ns: f64,
    /// Frames and rounds behind the numbers.
    pub note: String,
}

/// Minimum rounds over the corpus.
const MIN_ROUNDS: usize = 3;

struct BuildInput {
    ep: Endpoints,
    src_port: u16,
    hdr: Header,
    pairs: Vec<Pair>,
}

/// ns per item of `f`, run once.
fn ns_per(items: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// Replays `capture` (port, bytes); `want_out` is the number of frames
/// the switch emitted for it in the traced job.
pub fn run(
    fx: &Fixture,
    capture: &[(PortId, Vec<u8>)],
    want_out: u64,
    budget: Duration,
    out: &mut Outcome,
) -> Times {
    let (plan, switch_slot, _) = fx.layout();
    let port_count = plan.neighbors(switch_slot).len();
    let cfg = ParserConfig {
        max_parse_bytes: fx.runner.resources.max_parse_bytes,
        verify_checksums: true,
    };
    let pool = FramePool::new();
    let frames: Vec<(PortId, Frame)> = capture
        .iter()
        .map(|(p, b)| (*p, Frame::from_slice(b)))
        .collect();
    let n = frames.len();

    let mut builds = Vec::new();
    let mut buf = Vec::new();
    for (_, f) in &frames {
        let Ok(p) = parse(f.clone(), &cfg) else {
            out.violation("a captured switch-ingress frame does not parse".into());
            continue;
        };
        let (Some(hdr), Some(ip), Some(udp)) = (p.daiet, p.ip, p.udp) else {
            continue;
        };
        let b = BuildInput {
            ep: Endpoints {
                src_mac: p.eth.src_addr,
                dst_mac: p.eth.dst_addr,
                src_ip: ip.src_addr,
                dst_ip: ip.dst_addr,
            },
            src_port: udp.src_port,
            hdr,
            pairs: p.daiet_pairs().collect(),
        };
        build_daiet_into(&mut buf, &b.ep, b.src_port, &b.hdr, &b.pairs);
        if buf[..] != f[..] {
            out.violation("build_daiet_into does not reproduce a captured frame".into());
        }
        builds.push(b);
    }

    let fresh_switch = || fx.deploy().remove(&switch_slot).expect("the star's switch");
    let mut emitted_ok = true;
    // Per round: parse, parse + invoke, process, build (ns per frame).
    let mut rounds: Vec<[f64; 4]> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let parse_ns = ns_per(n, || {
            for (_, f) in &frames {
                let _ = black_box(parse(f.clone(), &cfg));
            }
        });

        let mut switch = fresh_switch();
        let ext = engine_of(&switch).0;
        let engine = switch.extern_mut::<DaietEngine>(ext).expect("engine");
        let parse_invoke_ns = ns_per(n, || {
            for (port, f) in &frames {
                let Ok(p) = parse(f.clone(), &cfg) else {
                    continue;
                };
                let Some(tree) = p.daiet_tree() else { continue };
                let mut pkt = PacketCtx::at(*port, p, Time::ZERO);
                black_box(engine.invoke(&mut pkt, u32::from(tree), &pool));
            }
        });

        let mut switch = fresh_switch();
        let mut emitted = 0u64;
        let mut outv = Vec::new();
        let process_ns = ns_per(n, || {
            for (port, f) in &frames {
                switch.process_into(*port, f.clone(), port_count, &pool, Time::ZERO, &mut outv);
                emitted += outv.len() as u64;
                outv.clear();
            }
        });
        emitted_ok &= emitted == want_out;

        let mut buf = Vec::with_capacity(2048);
        let build_ns = ns_per(builds.len(), || {
            for b in &builds {
                build_daiet_into(&mut buf, &b.ep, b.src_port, &b.hdr, &b.pairs);
                black_box(&buf);
            }
        });
        rounds.push([parse_ns, parse_invoke_ns, process_ns, build_ns]);
    }
    if !emitted_ok {
        out.violation(format!(
            "replayed switch did not emit the traced job's {want_out} frames"
        ));
    }

    let col = |f: fn(&[f64; 4]) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    Times {
        parse_ns: col(|r| r[0]),
        invoke_ns: col(|r| r[1] - r[0]),
        pipeline_ns: col(|r| r[2] - r[1]),
        build_ns: col(|r| r[3]),
        note: format!(
            "replay of {n} switch-ingress frames, {} rounds; Switch::process {:.1} ns",
            rounds.len(),
            col(|r| r[2])
        ),
    }
}
