//! The end-host side of DAIET: packetizing map output into fixed-size
//! pair packets (sender) and collecting unordered aggregated results
//! (reducer).
//!
//! §4: partitions travel as "UDP packets containing a small preamble and a
//! sequence of key-value pairs … we use a fixed-size representation for
//! the pairs, so that it is easy to calculate the offsets of pairs in the
//! file and extract a number of complete pairs" — i.e. packetization never
//! splits a pair. "Finally, the end of the transmission is marked by a
//! special END packet." On the receive side, "the intermediate results
//! must be sorted at the reducer rather than at the mapper".
//!
//! Senders follow the same idea on the transmit side: a round is planned
//! as per-tree pair slices ([`plan_round`]) and each frame is serialized
//! at the pacing tick that sends it. Nothing is built before a job
//! starts, and NACK replay rebuilds a frame from its slice instead of
//! keeping it.

use crate::agg::AggFn;
use crate::config::DaietConfig;
use crate::reliability::{seq_after, seq_at_or_after};
use daiet_dataplane::parser::{parse, ParsedPacket, ParserConfig};
use daiet_fabric::{Duration, Fabric, Frame, FramePool, Node, PortId, Time};
use daiet_wire::daiet::{self, Header, Key, NackRange, PacketFlags, PacketType, Pair, Repr};
use daiet_wire::fnv::FnvHashMap;
use daiet_wire::stack::{build_daiet_into, Endpoints};
use std::collections::VecDeque;
use std::sync::Arc;

/// The host receive prologue shared by every DAIET receiver
/// ([`ReducerHost`], the querysim coordinator), so host parsing cannot
/// diverge: parse with checksums verified but no parse-depth limit
/// (hosts are CPUs, not line-rate parsers; checksum failures and
/// non-DAIET noise dropped, as a NIC would) and
/// extract the preamble plus the sender address. `None` means "ignore
/// this frame"; otherwise the caller applies its own admission (dedup
/// windows, tree demux — *in its own order*: a coordinator discards
/// foreign tree ids before charging dedup state) and consumes the
/// entries via
/// [`ParsedPacket::daiet_pairs`](daiet_dataplane::parser::ParsedPacket::daiet_pairs).
pub fn receive_daiet(frame: Frame) -> Option<(Header, daiet_wire::Ipv4Address, ParsedPacket)> {
    let host = ParserConfig { max_parse_bytes: usize::MAX, verify_checksums: true };
    let parsed = parse(frame, &host).ok()?;
    let hdr = parsed.daiet?;
    let src = parsed.ip.as_ref()?.src_addr;
    Some((hdr, src, parsed))
}

/// Builds the standard one-shot sender (the MapReduce mappers, the
/// querysim workers): one [`plan_round`] of `partitions` from sequence
/// 0, paced and replay-armed per `config`. Frames are built from the
/// transmitting fabric's pool when sent, so `_pool` goes unused.
pub fn multi_tree_sender<P: Clone + Into<Arc<[Pair]>>>(
    config: &DaietConfig,
    sender_index: usize,
    partitions: &[(u16, Endpoints, P)],
    redundancy: u32,
    gap: Duration,
    _pool: &FramePool,
    label: &'static str,
) -> PacedSenderNode {
    let mut node = PacedSenderNode::new(gap, label);
    if config.nack_recovery {
        node.arm_replay();
    }
    let mut next_seq = FnvHashMap::default();
    node.enqueue_round(plan_round(config, partitions, &mut next_seq, sender_index, redundancy));
    node
}

/// Plans one round of multi-tree output — the one planning routine
/// behind every bulk sender (the MapReduce mappers, the querysim
/// workers, each [`IterativeRunner`] round).
///
/// Each `(tree, endpoints, pairs)` part continues that tree's wrapping
/// sequence space from `next_seq` (updated in place to the next free
/// number). The round is sent round-robin over the parts starting at
/// `offset % parts` (fairness: callers rotate the offset so no tree is
/// permanently drained first), each frame `redundancy` times (1 = once).
/// The pairs are shared, not copied, when `P` is already an `Arc<[Pair]>`.
pub fn plan_round<P: Clone + Into<Arc<[Pair]>>>(
    config: &DaietConfig,
    parts: &[(u16, Endpoints, P)],
    next_seq: &mut FnvHashMap<u16, u32>,
    offset: usize,
    redundancy: u32,
) -> RoundPlan {
    let packetizer = Packetizer::new(config);
    let flows = parts
        .iter()
        .map(|(tree, endpoints, pairs)| {
            let pairs: Arc<[Pair]> = pairs.clone().into();
            let base = next_seq.get(tree).copied().unwrap_or(0);
            next_seq.insert(*tree, base.wrapping_add(packetizer.packet_count(pairs.len())));
            Flow { tree: *tree, endpoints: *endpoints, base, pairs, packetizer }
        })
        .collect();
    RoundPlan { flows, offset, redundancy: redundancy.max(1) }
}

/// Builds the standard DAIET receive endpoint for reducer `r` of `dep`
/// at plan `slot`: a [`ReducerHost`] expecting the deployment's END
/// count over `mappers`, with duplicate suppression and NACK recovery
/// armed per `config` — the one construction behind every reducer (the
/// MapReduce reducers, each [`IterativeRunner`] parameter server).
pub fn reducer_host(
    config: &DaietConfig,
    agg: AggFn,
    dep: &crate::controller::Deployment,
    r: usize,
    slot: usize,
    mappers: &[usize],
) -> ReducerHost {
    let mut reducer = ReducerHost::new(agg, dep.expected_ends(r, mappers.len()));
    if config.reliability {
        reducer = reducer.with_dedup();
    }
    if config.nack_recovery {
        reducer = reducer.with_nack_recovery(slot as u32, config, dep.nack_sources(r, mappers));
    }
    reducer
}

/// Splits a partition of pairs into DAIET packets.
#[derive(Debug, Clone, Copy)]
pub struct Packetizer {
    pairs_per_packet: usize,
}

impl Packetizer {
    /// A packetizer following `config`.
    pub fn new(config: &DaietConfig) -> Packetizer {
        Packetizer { pairs_per_packet: config.pairs_per_packet.max(1) }
    }

    /// Serializes `pairs` into DATA packets of at most `pairs_per_packet`
    /// entries, terminated by an END packet. Sequence numbers count up
    /// from 0 (used only by the reliability extension; harmless
    /// otherwise).
    pub fn packets(&self, tree_id: u16, pairs: &[Pair]) -> Vec<Repr> {
        self.packets_from_seq(tree_id, pairs, 0).0
    }

    /// Packets `pairs` make: one DATA per `pairs_per_packet` entries,
    /// then the END.
    pub fn packet_count(&self, pairs: usize) -> u32 {
        pairs.div_ceil(self.pairs_per_packet) as u32 + 1
    }

    /// The packetization policy, in one place: packet `i` of `pairs`
    /// numbered from `start_seq`, as its preamble and entry slice (empty
    /// for the trailing END). Both the owned-[`Repr`] path and the
    /// senders' frame builds use it, so they cannot drift apart.
    /// Sequence numbers live in a wrapping 32-bit space (long-lived
    /// iterative senders cross `u32::MAX`; the dedup windows compare
    /// RFC 1982-style).
    fn packet<'a>(
        &self,
        tree_id: u16,
        pairs: &'a [Pair],
        start_seq: u32,
        i: u32,
    ) -> (Header, &'a [Pair]) {
        let seq = start_seq.wrapping_add(i);
        let start = i as usize * self.pairs_per_packet;
        if start < pairs.len() {
            let end = pairs.len().min(start + self.pairs_per_packet);
            (Header::data(tree_id, PacketFlags::empty(), seq), &pairs[start..end])
        } else {
            (Header::end(tree_id, PacketFlags::empty(), seq), &[])
        }
    }

    /// Like [`Packetizer::packets`] but numbering from `start_seq`,
    /// returning the next free sequence number. Iterative senders running
    /// under the reliability extension must keep sequence numbers
    /// monotonic across rounds so duplicate suppression stays sound.
    pub fn packets_from_seq(
        &self,
        tree_id: u16,
        pairs: &[Pair],
        start_seq: u32,
    ) -> (Vec<Repr>, u32) {
        let count = self.packet_count(pairs.len());
        let out = (0..count)
            .map(|i| {
                let (hdr, chunk) = self.packet(tree_id, pairs, start_seq, i);
                Repr {
                    packet_type: hdr.packet_type,
                    tree_id: hdr.tree_id,
                    flags: hdr.flags,
                    seq: hdr.seq,
                    entries: chunk.to_vec(),
                }
            })
            .collect();
        (out, start_seq.wrapping_add(count))
    }
}

/// One tree's share of one round: `pairs` cut into packets, packet `i`
/// numbered `base + i`, the END last. Packet `i` is always the same
/// chunk of the same slice, so its frame can be rebuilt byte for byte
/// whenever it is needed again.
#[derive(Debug, Clone)]
struct Flow {
    tree: u16,
    endpoints: Endpoints,
    base: u32,
    pairs: Arc<[Pair]>,
    packetizer: Packetizer,
}

impl Flow {
    fn packets(&self) -> u32 {
        self.packetizer.packet_count(self.pairs.len())
    }

    /// Serializes packet `i` into a buffer from `pool`.
    fn frame(&self, i: u32, pool: &FramePool) -> Frame {
        let (hdr, chunk) = self.packetizer.packet(self.tree, &self.pairs, self.base, i);
        let mut buf = pool.buffer();
        build_daiet_into(&mut buf, &self.endpoints, daiet_wire::udp::DAIET_PORT, &hdr, chunk);
        pool.frame(buf)
    }
}

/// One round of a multi-tree sender, planned but not built: per-tree pair
/// slices with their sequence bases, the round-robin start and the copies
/// of each frame. Made by [`plan_round`], sent by a [`PacedSenderNode`].
#[derive(Debug)]
pub struct RoundPlan {
    flows: Vec<Flow>,
    offset: usize,
    redundancy: u32,
}

/// A round being transmitted: flows are visited round-robin (each keeps
/// its own order, so every END still trails its tree's data), and the
/// last frame built is repeated until `redundancy` copies went out.
struct Transmit {
    plan: RoundPlan,
    /// Packets of each flow built so far.
    built: Vec<u32>,
    /// The flow the round-robin visits next.
    turn: usize,
    /// The last frame built, with the copies of it already sent.
    last: Option<(Frame, u32)>,
    /// Frames still to send, copies included.
    left: usize,
}

impl Transmit {
    fn new(plan: RoundPlan) -> Transmit {
        let n = plan.flows.len();
        let packets: usize = plan.flows.iter().map(|f| f.packets() as usize).sum();
        Transmit {
            built: vec![0; n],
            turn: plan.offset % n.max(1),
            last: None,
            left: packets * plan.redundancy as usize,
            plan,
        }
    }

    fn next(&mut self, pool: &FramePool) -> Option<Frame> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        if let Some((frame, sent)) = self.last.as_mut() {
            if *sent < self.plan.redundancy {
                *sent += 1;
                return Some(frame.clone());
            }
        }
        let n = self.plan.flows.len();
        for _ in 0..n {
            let t = self.turn;
            self.turn = (t + 1) % n;
            let flow = &self.plan.flows[t];
            if self.built[t] < flow.packets() {
                let frame = flow.frame(self.built[t], pool);
                self.built[t] += 1;
                if self.plan.redundancy > 1 {
                    self.last = Some((frame.clone(), 1));
                }
                return Some(frame);
            }
        }
        None
    }
}

/// An entry of a sender's transmit queue.
enum Pending {
    /// A round, built into frames one pacing tick at a time.
    Round(Transmit),
    /// A NACK replay queued behind the backed-off pacing gap.
    Replay(Frame),
}

/// One tree's NACK-replay retention for one round: the round's flow,
/// minus the packets below `first`, which round barriers retired.
struct Retained {
    flow: Flow,
    first: u32,
}

/// A host that sends planned rounds at a fixed pace: one frame per `gap`
/// tick, built from the round's pair slices when it is sent. The
/// transmit half shared by every bulk UDP sender: one-shot senders
/// ([`multi_tree_sender`]: the MapReduce mappers, the querysim workers)
/// get one round before the run starts; iterative senders start empty
/// and get one round at a time through
/// [`enqueue_round`](Self::enqueue_round) (see [`IterativeRunner`],
/// which also restarts the pacing timer from outside, via the backend's
/// own timer facility).
///
/// With replay armed, the sender keeps each round's pair slices per
/// tree, not its frames: a NACKed sequence number names one chunk of
/// one slice, and the replay rebuilds exactly the bytes first sent.
pub struct PacedSenderNode {
    queue: VecDeque<Pending>,
    gap: Duration,
    label: &'static str,
    /// Per-tree replay retention, oldest round first (None when recovery
    /// is off — then incoming frames are ignored, as before).
    replay: Option<FnvHashMap<u16, VecDeque<Retained>>>,
    /// Straggler throttle: the pacing gap is multiplied by this factor
    /// (1 = full speed). Scripted by chaos harnesses to model a slow
    /// worker without changing its transmit schedule.
    slowdown: u32,
    /// Congestion backoff multiplier on top of `slowdown`, driven by
    /// NACKs when [`enable_nack_backoff`](Self::enable_nack_backoff) was
    /// called; reset to 1 at each round barrier.
    backoff: u32,
    /// Whether receiving a NACK doubles `backoff` — the DAIET-side
    /// response to queue-buildup loss (ECN-marked TCP has its own, see
    /// `daiet-transport`). Off by default: the paper's sender is
    /// open-loop. The closed-loop sender also *paces* its replays (they
    /// join the transmit queue at the backed-off gap) instead of
    /// bursting them — a burst into the very queue that just overflowed
    /// only compounds the loss.
    nack_backoff: bool,
    /// Whether a pacing timer is currently in flight, so a paced replay
    /// arriving after the queue ran dry can restart the chain exactly
    /// once. Maintained here and by [`enqueue_round`](Self::enqueue_round)
    /// (whose caller schedules the round's first tick).
    timer_armed: bool,
    /// Frames re-sent in response to NACKs.
    pub frames_replayed: u64,
    /// NACK frames received and honored.
    pub nacks_received: u64,
    /// Replay-retention frames retired at round barriers.
    pub frames_retired: u64,
}

impl PacedSenderNode {
    /// An idle sender that will send one frame every `gap` once rounds
    /// are enqueued; `label` names the node in traces.
    pub fn new(gap: Duration, label: &'static str) -> PacedSenderNode {
        PacedSenderNode {
            queue: VecDeque::new(),
            gap,
            label,
            replay: None,
            slowdown: 1,
            backoff: 1,
            nack_backoff: false,
            timer_armed: false,
            frames_replayed: 0,
            nacks_received: 0,
            frames_retired: 0,
        }
    }

    /// The pacing gap with the straggler throttle and congestion backoff
    /// applied.
    fn effective_gap(&self) -> Duration {
        Duration::from_nanos(
            self.gap
                .as_nanos()
                .saturating_mul(u64::from(self.slowdown.max(1)))
                .saturating_mul(u64::from(self.backoff.max(1))),
        )
    }

    /// Throttles (or restores) this sender: the pacing gap is multiplied
    /// by `factor` from the next timer tick on. `1` restores full speed.
    pub fn set_slowdown(&mut self, factor: u32) {
        self.slowdown = factor.max(1);
    }

    /// Makes NACKs double the pacing gap (capped at 64×) until the next
    /// round barrier — a minimal closed-loop response to queue-buildup
    /// loss, off by default to keep the paper's open-loop sender.
    pub fn enable_nack_backoff(&mut self) {
        self.nack_backoff = true;
    }

    /// The current congestion backoff multiplier (1 = none).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Arms NACK replay: from now on every enqueued round is retained
    /// per tree until a round barrier retires it.
    pub fn arm_replay(&mut self) {
        self.replay.get_or_insert_with(FnvHashMap::default);
    }

    /// Appends one planned round to the transmit queue and, with replay
    /// armed, to each tree's retention. The round must continue each
    /// tree's sequence numbering where the previous round left off
    /// ([`plan_round`] does, given the same `next_seq` map).
    pub fn enqueue_round(&mut self, round: RoundPlan) {
        // The caller restarts the pacing chain for this round (see
        // `IterativeRunner::run_round`); record that so paced replays
        // don't double-arm it.
        self.timer_armed = true;
        if let Some(store) = self.replay.as_mut() {
            for flow in &round.flows {
                let retained = Retained { flow: flow.clone(), first: 0 };
                store.entry(flow.tree).or_default().push_back(retained);
            }
        }
        self.queue.push_back(Pending::Round(Transmit::new(round)));
    }

    /// Round-barrier cleanup: retires replay retention serially before
    /// each tree's `cutoff` sequence number and lifts the congestion
    /// backoff. Called once the round is known complete end-to-end
    /// (every receiver satisfied), so nothing below the cutoff can ever
    /// be NACKed again — this is what keeps a hundreds-of-rounds run's
    /// memory bounded at O(one round).
    pub fn retire_round(&mut self, cutoffs: &[(u16, u32)]) {
        // The round completed: whatever congestion triggered the backoff
        // has drained with it.
        self.backoff = 1;
        let Some(store) = self.replay.as_mut() else { return };
        for &(tree, cutoff) in cutoffs {
            let Some(rounds) = store.get_mut(&tree) else { continue };
            while let Some(r) = rounds.front_mut() {
                let next = r.flow.base.wrapping_add(r.first);
                if !seq_after(cutoff, next) {
                    break;
                }
                let n = cutoff.wrapping_sub(next).min(r.flow.packets() - r.first);
                r.first += n;
                self.frames_retired += u64::from(n);
                if r.first == r.flow.packets() {
                    rounds.pop_front();
                }
            }
        }
    }

    /// Epoch reset for a live re-plan: drops the transmit queue and every
    /// tree's replay retention, so the next
    /// [`enqueue_round`](Self::enqueue_round) starts a fresh sequence
    /// space at 0 (matching the freshly reinstalled switch trees and
    /// receiver rosters). Only sound at a round barrier, when nothing is
    /// in flight.
    pub fn reset_epoch(&mut self) {
        self.queue.clear();
        self.backoff = 1;
        if let Some(store) = self.replay.as_mut() {
            store.clear();
        }
    }

    /// Frames queued but not yet transmitted.
    pub fn pending(&self) -> usize {
        self.queue
            .iter()
            .map(|p| match p {
                Pending::Round(t) => t.left,
                Pending::Replay(_) => 1,
            })
            .sum()
    }

    /// Frames currently held for NACK replay, across all trees.
    pub fn replay_retained(&self) -> usize {
        self.replay.as_ref().map_or(0, |s| {
            s.values().flatten().map(|r| (r.flow.packets() - r.first) as usize).sum()
        })
    }

    /// The next frame to transmit, built from `pool`; a spent round
    /// leaves the queue with its last frame.
    fn next_frame(&mut self, pool: &FramePool) -> Option<Frame> {
        loop {
            match self.queue.front_mut()? {
                Pending::Round(t) => {
                    let frame = t.next(pool);
                    if t.left == 0 {
                        self.queue.pop_front();
                    }
                    if frame.is_some() {
                        return frame;
                    }
                }
                Pending::Replay(_) => {
                    if let Some(Pending::Replay(f)) = self.queue.pop_front() {
                        return Some(f);
                    }
                }
            }
        }
    }
}

impl Node for PacedSenderNode {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
        // Senders only ever act on NACKs, and only when replay is armed.
        let Some(store) = self.replay.as_ref() else { return };
        let Some((hdr, _src, parsed)) = receive_daiet(frame) else { return };
        if hdr.packet_type != PacketType::Nack {
            return;
        }
        let Some(rounds) = store.get(&hdr.tree_id) else { return };
        self.nacks_received += 1;
        if self.nack_backoff {
            // A NACK means the path lost something — most often queue
            // overflow under this sender's own offered load. Double the
            // pacing gap (multiplicatively, like any AIMD sender) so the
            // replay burst below lands on a draining queue.
            self.backoff = self.backoff.saturating_mul(2).min(64);
        }
        let tail = hdr.flags.contains(PacketFlags::NACK_TAIL);
        let ranges: Vec<NackRange> =
            parsed.daiet_pairs().filter_map(|p| NackRange::from_pair(&p)).collect();
        // Retention is dense: packet `i` of a retained round carries seq
        // `base + i`. Replay in original order; receiver dedup absorbs
        // anything it already has. The open-loop sender bursts replays
        // past the pacing gap (recovery is latency-critical and the
        // burst is at most one retained round); the closed-loop sender
        // queues them behind the backed-off gap instead — the loss it is
        // repairing is usually its own queue overflow, and a burst would
        // recreate it.
        let mut queued = false;
        for r in rounds {
            for i in r.first..r.flow.packets() {
                let seq = r.flow.base.wrapping_add(i);
                if ranges.iter().any(|nr| nr.contains(seq))
                    || (tail && seq_at_or_after(seq, hdr.seq))
                {
                    let f = r.flow.frame(i, ctx.pool());
                    if self.nack_backoff {
                        self.queue.push_back(Pending::Replay(f));
                        queued = true;
                    } else {
                        ctx.send(PortId(0), f);
                    }
                    self.frames_replayed += 1;
                }
            }
        }
        if queued && !self.timer_armed {
            self.timer_armed = true;
            ctx.schedule(self.effective_gap(), 0);
        }
    }

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        // Iterative senders start with an empty queue; their harness arms
        // the pacing timer itself when it enqueues the first round.
        if self.pending() > 0 {
            self.timer_armed = true;
            ctx.schedule(self.effective_gap(), 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
        if let Some(frame) = self.next_frame(ctx.pool()) {
            ctx.send(PortId(0), frame);
            ctx.schedule(self.effective_gap(), 0);
        } else {
            self.timer_armed = false;
        }
    }

    fn name(&self) -> String {
        self.label.into()
    }
}

/// Receive-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// DATA packets received.
    pub data_packets: u64,
    /// END packets received.
    pub end_packets: u64,
    /// Packets carrying the SPILLOVER flag.
    pub spill_packets: u64,
    /// Pairs received (pre-merge).
    pub pairs_received: u64,
    /// Pairs merged into existing keys (residual aggregation done at the
    /// host — nonzero whenever the network could not aggregate
    /// everything).
    pub pairs_merged: u64,
    /// Application payload bytes received (DAIET preamble + entries).
    pub app_bytes: u64,
}

impl CollectorStats {
    /// Counter growth since `earlier` — the per-round read-out for
    /// iterative runs, where the collector's counters are cumulative
    /// across rounds. Panics if any counter shrank (mismatched
    /// snapshots), the shared policy of
    /// [`daiet_fabric::counter_delta`].
    pub fn delta(&self, earlier: &CollectorStats) -> CollectorStats {
        let sub = daiet_fabric::counter_delta;
        CollectorStats {
            data_packets: sub(self.data_packets, earlier.data_packets, "data_packets"),
            end_packets: sub(self.end_packets, earlier.end_packets, "end_packets"),
            spill_packets: sub(self.spill_packets, earlier.spill_packets, "spill_packets"),
            pairs_received: sub(self.pairs_received, earlier.pairs_received, "pairs_received"),
            pairs_merged: sub(self.pairs_merged, earlier.pairs_merged, "pairs_merged"),
            app_bytes: sub(self.app_bytes, earlier.app_bytes, "app_bytes"),
        }
    }
}

/// Reducer-side collector: merges unordered aggregated pairs and reports
/// completion once every expected END arrived.
#[derive(Debug)]
pub struct Collector {
    agg: AggFn,
    expected_ends: u32,
    ends_seen: u32,
    pairs: FnvHashMap<Key, u32>,
    stats: CollectorStats,
}

impl Collector {
    /// A collector combining with `agg` and expecting `expected_ends` END
    /// packets (= tree children of the reducer; 1 behind a DAIET switch,
    /// the mapper count without in-network aggregation).
    pub fn new(agg: AggFn, expected_ends: u32) -> Collector {
        Collector {
            agg,
            expected_ends,
            ends_seen: 0,
            pairs: FnvHashMap::default(),
            stats: CollectorStats::default(),
        }
    }

    /// Feeds one DAIET packet; returns `true` when the partition is
    /// complete (all ENDs seen).
    pub fn on_packet(&mut self, repr: &Repr) -> bool {
        self.on_parts(&repr.header(), repr.entries.iter().copied())
    }

    /// Feeds one DAIET packet as preamble + entry iterator — the
    /// allocation-free form [`ReducerHost`] drives straight from frame
    /// bytes. Returns `true` when the partition is complete.
    pub fn on_parts(&mut self, hdr: &Header, entries: impl Iterator<Item = Pair>) -> bool {
        match hdr.packet_type {
            PacketType::Data => {
                self.stats.data_packets += 1;
                if hdr.flags.contains(PacketFlags::SPILLOVER) {
                    self.stats.spill_packets += 1;
                }
                let mut n = 0u64;
                for pair in entries {
                    n += 1;
                    match self.pairs.entry(pair.key) {
                        daiet_wire::fnv::Entry::Occupied(mut e) => {
                            let merged = self.agg.apply(*e.get(), pair.value);
                            e.insert(merged);
                            self.stats.pairs_merged += 1;
                        }
                        daiet_wire::fnv::Entry::Vacant(e) => {
                            e.insert(pair.value);
                        }
                    }
                }
                self.stats.pairs_received += n;
                self.stats.app_bytes += Header::wire_len(n as usize) as u64;
            }
            PacketType::End => {
                self.stats.app_bytes += daiet::HEADER_LEN as u64;
                self.stats.end_packets += 1;
                self.ends_seen += 1;
            }
            PacketType::Nack | PacketType::Unknown(_) => {
                self.stats.app_bytes += daiet::HEADER_LEN as u64;
            }
        }
        self.is_complete()
    }

    /// True once all expected ENDs arrived.
    pub fn is_complete(&self) -> bool {
        self.ends_seen >= self.expected_ends
    }

    /// Redefines round completion over a new roster — what a live
    /// re-plan (tree re-routed, workers joined or left) changes about the
    /// reducer. Takes effect from the current round; only sound at a
    /// round barrier, when `ends_seen` has been reset by
    /// [`take_round`](Self::take_round).
    pub fn set_expected_ends(&mut self, expected: u32) {
        self.expected_ends = expected;
    }

    /// ENDs seen so far.
    pub fn ends_seen(&self) -> u32 {
        self.ends_seen
    }

    /// Swaps the merge function — the reducer-slot *lease* operation of
    /// the multi-tenant scheduler, where one pooled [`ReducerHost`]
    /// serves a SUM job, is released, and is leased again to a MIN lane.
    /// Only sound while no pairs are held (at a lease boundary, right
    /// after [`take_round`](Self::take_round)): pairs merged under one
    /// function have no meaning under another.
    pub fn set_agg(&mut self, agg: AggFn) {
        debug_assert!(
            self.pairs.is_empty(),
            "set_agg with pairs held would reinterpret them under a new function"
        );
        self.agg = agg;
    }

    /// Distinct keys held.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs were collected.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Receive statistics.
    pub fn stats(&self) -> CollectorStats {
        self.stats
    }

    /// Consumes the collector, returning pairs **sorted by key** — the
    /// sort the paper moves from mappers to the reducer ("the intermediate
    /// results must be sorted at the reducer", §4).
    pub fn into_sorted(self) -> Vec<(Key, u32)> {
        let mut v: Vec<(Key, u32)> = self.pairs.into_iter().collect();
        v.sort_unstable_by_key(|a| a.0);
        v
    }

    /// Drains one completed round: returns the collected pairs **sorted
    /// by key** and re-arms the collector (pairs cleared, END count reset
    /// to zero) for the next round of an iterative flow. Counters in
    /// [`stats`](Self::stats) keep accumulating — read per-round numbers
    /// with [`CollectorStats::delta`].
    pub fn take_round(&mut self) -> Vec<(Key, u32)> {
        let mut v: Vec<(Key, u32)> = self.pairs.drain().collect();
        v.sort_unstable_by_key(|a| a.0);
        self.ends_seen = 0;
        v
    }

    /// Borrowing accessor for tests.
    pub fn get(&self, key: &Key) -> Option<u32> {
        self.pairs.get(key).copied()
    }

    /// Iterates the collected pairs in arbitrary order (callers sort).
    pub fn get_all(&self) -> impl Iterator<Item = (Key, u32)> + '_ {
        self.pairs.iter().map(|(k, v)| (*k, *v))
    }
}

/// A minimal sending host: one tree's pairs, sent one frame every
/// microsecond from simulation start, with no NACK replay — used by
/// examples and integration tests.
pub fn sender_host(
    config: &DaietConfig,
    tree_id: u16,
    pairs: Vec<Pair>,
    endpoints: Endpoints,
) -> PacedSenderNode {
    let mut node = PacedSenderNode::new(Duration::from_micros(1), "sender");
    let mut next_seq = FnvHashMap::default();
    node.enqueue_round(plan_round(config, &[(tree_id, endpoints, pairs)], &mut next_seq, 0, 1));
    node
}

/// A minimal reducer host: collects DAIET packets until complete.
pub struct ReducerHost {
    /// The collector; read it out after the run.
    pub collector: Collector,
    /// Completion time, once reached.
    pub completed_at: Option<Time>,
    /// Receive-side reliability (dedup and/or NACK recovery — the
    /// default guard is the paper-faithful fire-and-forget path).
    guard: crate::reliability::ReceiverGuard,
    /// The trees this reducer is leased for (`None`: every tree).
    trees: Option<Vec<u16>>,
    /// Frames of other trees, dropped before dedup or collection.
    pub foreign_dropped: u64,
}

impl ReducerHost {
    /// A reducer expecting `expected_ends` ENDs, combining with `agg`.
    pub fn new(agg: AggFn, expected_ends: u32) -> ReducerHost {
        ReducerHost {
            collector: Collector::new(agg, expected_ends),
            completed_at: None,
            guard: crate::reliability::ReceiverGuard::new(),
            trees: None,
            foreign_dropped: 0,
        }
    }

    /// Leases this reducer to `trees`: frames of any other tree are
    /// dropped and counted in [`foreign_dropped`](Self::foreign_dropped),
    /// so a pooled reducer slot never counts a straggler of the job that
    /// held it before.
    pub fn lease(&mut self, trees: Vec<u16>) {
        self.trees = Some(trees);
    }

    /// Enables receive-side duplicate suppression (pairs with
    /// [`crate::DaietConfig::reliability`] on the switches —
    /// aggregation is not idempotent, so the *last* hop needs protection
    /// too, not just the switches).
    pub fn with_dedup(mut self) -> ReducerHost {
        self.guard.enable_dedup();
        self
    }

    /// Arms NACK recovery: this reducer (simulator id `self_id`) watches
    /// one flow per `(tree, source)` in `sources` — the deployment's
    /// [`reducer_sources`](crate::controller::Deployment::reducer_sources)
    /// roster — and NACKs delinquent ones per `config`'s timeout/budget
    /// (see [`ReceiverGuard`](crate::reliability::ReceiverGuard)).
    pub fn with_nack_recovery(
        mut self,
        self_id: u32,
        config: &DaietConfig,
        sources: impl IntoIterator<Item = (u16, u32)>,
    ) -> ReducerHost {
        self.guard.arm_nack_recovery(self_id, config, sources);
        self
    }

    /// Re-rosters the reducer for a live re-plan: round completion is
    /// redefined over `expected_ends` ENDs, and the reliability guard is
    /// re-armed from scratch over `sources` — every flow is expected
    /// anew from sequence 0, matching the epoch restart on the senders
    /// and switches. Only sound at a round barrier (nothing in flight,
    /// `take_round` already drained). Cumulative guard counters
    /// (duplicates, NACKs emitted) restart with the new guard.
    pub fn reroster(
        &mut self,
        self_id: u32,
        config: &DaietConfig,
        sources: impl IntoIterator<Item = (u16, u32)>,
        expected_ends: u32,
    ) {
        self.collector.set_expected_ends(expected_ends);
        self.completed_at = None;
        if config.nack_recovery {
            self.guard.arm_nack_recovery(self_id, config, sources);
        } else if config.reliability {
            // Fresh window: the new epoch's sequence spaces restart at 0,
            // which the old windows would misread as stale duplicates.
            self.guard.enable_dedup();
        }
    }

    /// Frames suppressed as duplicates (by the dedup window or, under
    /// NACK recovery, the gap tracker's bitmaps).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.guard.duplicates_suppressed()
    }

    /// NACK frames this reducer has sent (0 without recovery).
    pub fn nacks_emitted(&self) -> u64 {
        self.guard.nacks_emitted()
    }

    /// True when NACK recovery (if armed) owes nothing: every tracked
    /// flow is gapless through its newest END. An iterative harness must
    /// check this **in addition to** [`Collector::is_complete`] at each
    /// round barrier — the ENDs can all be in while a DATA frame of the
    /// round is still missing (the silent-corruption mode recovery
    /// exists to close).
    pub fn recovery_satisfied(&self) -> bool {
        self.guard.all_satisfied()
    }

    /// Drains one completed round (see [`Collector::take_round`]) and
    /// re-arms completion detection for the next.
    pub fn take_round(&mut self) -> Vec<(daiet_wire::daiet::Key, u32)> {
        self.completed_at = None;
        self.collector.take_round()
    }
}

impl Node for ReducerHost {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, _port: PortId, frame: Frame) {
        let Some((hdr, src, parsed)) = receive_daiet(frame) else {
            return;
        };
        if self.trees.as_ref().is_some_and(|t| !t.contains(&hdr.tree_id)) {
            self.foreign_dropped += 1;
            return;
        }
        if !self.guard.admit(&hdr, src, ctx) {
            return;
        }
        if self.collector.on_parts(&hdr, parsed.daiet_pairs()) && self.completed_at.is_none() {
            self.completed_at = Some(ctx.now());
        }
        self.guard.arm(ctx);
    }

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        self.guard.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, _token: u64) {
        self.guard.on_timer(ctx);
    }

    fn name(&self) -> String {
        "reducer".into()
    }
}

/// The iterative round-by-round machinery ([`IterativeRunner`] and
/// friends) lives in [`crate::iterative`]; it is re-exported here so
/// historical `daiet::worker::IterativeRunner` paths keep working.
pub use crate::iterative::{IterRound, IterativeRunner, IterativeSpec};

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::from_str_key(s).unwrap()
    }

    fn npairs(n: usize) -> Vec<Pair> {
        (0..n).map(|i| Pair::new(key(&format!("k{i}")), i as u32)).collect()
    }

    #[test]
    fn packetizer_never_splits_pairs_and_ends_with_end() {
        let p = Packetizer::new(&DaietConfig::default());
        let packets = p.packets(4, &npairs(25));
        assert_eq!(packets.len(), 4); // 10 + 10 + 5 + END
        assert_eq!(packets[0].entries.len(), 10);
        assert_eq!(packets[2].entries.len(), 5);
        assert_eq!(packets[3].packet_type, PacketType::End);
        assert!(packets.iter().all(|r| r.tree_id == 4));
        // Sequence numbers are consecutive.
        let seqs: Vec<u32> = packets.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    /// Regression: sequence numbering crossing `u32::MAX` must wrap, not
    /// overflow-panic — the sender half of the RFC 1982 story the dedup
    /// windows implement on the receive side.
    #[test]
    fn sequence_numbering_wraps_past_u32_max() {
        let p = Packetizer::new(&DaietConfig::default());
        let (packets, next) = p.packets_from_seq(1, &npairs(15), u32::MAX);
        // 10 + 5 pairs → 2 DATA + END, numbered MAX, 0, 1; next free: 2.
        let seqs: Vec<u32> = packets.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![u32::MAX, 0, 1]);
        assert_eq!(next, 2);
    }

    #[test]
    fn empty_partition_is_just_an_end() {
        let p = Packetizer::new(&DaietConfig::default());
        let packets = p.packets(1, &[]);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].packet_type, PacketType::End);
    }

    #[test]
    fn frames_parse_back() {
        let config = DaietConfig::default();
        let ep = Endpoints::from_ids(7, 8);
        let pool = FramePool::new();
        let round = plan_round(&config, &[(2, ep, npairs(12))], &mut FnvHashMap::default(), 0, 1);
        let flow = &round.flows[0];
        assert_eq!(flow.packets(), 3);
        // Frames match the Repr-based packetization exactly.
        let reprs = Packetizer::new(&config).packets(2, &npairs(12));
        for (i, repr) in reprs.iter().enumerate() {
            let (_, _, parsed) = receive_daiet(flow.frame(i as u32, &pool)).unwrap();
            assert_eq!(parsed.daiet_repr().as_ref(), Some(repr));
        }
    }

    #[test]
    fn collector_merges_and_completes() {
        let mut c = Collector::new(AggFn::Sum, 2);
        assert!(!c.on_packet(&Repr::data(1, vec![Pair::new(key("a"), 5)])));
        assert!(!c.on_packet(&Repr::data(1, vec![Pair::new(key("a"), 3), Pair::new(key("b"), 1)])));
        assert!(!c.on_packet(&Repr::end(1)));
        assert!(!c.is_complete());
        assert!(c.on_packet(&Repr::end(1)));
        assert!(c.is_complete());
        assert_eq!(c.get(&key("a")), Some(8));
        assert_eq!(c.stats().pairs_merged, 1);
        assert_eq!(c.stats().data_packets, 2);
        assert_eq!(c.stats().end_packets, 2);
        let sorted = c.into_sorted();
        assert_eq!(sorted, vec![(key("a"), 8), (key("b"), 1)]);
    }

    #[test]
    fn collector_counts_app_bytes_and_spill() {
        let mut c = Collector::new(AggFn::Sum, 1);
        let mut spill = Repr::data(1, npairs(3));
        spill.flags = daiet_wire::daiet::PacketFlags::SPILLOVER;
        c.on_packet(&spill);
        c.on_packet(&Repr::end(1));
        assert_eq!(c.stats().spill_packets, 1);
        // 10 B preamble + 3×20 B entries + 10 B END preamble.
        assert_eq!(c.stats().app_bytes, 10 + 60 + 10);
    }

    #[test]
    fn sorted_output_is_ordered_by_key_bytes() {
        let mut c = Collector::new(AggFn::Sum, 0);
        for name in ["zebra", "alpha", "mid"] {
            c.on_packet(&Repr::data(1, vec![Pair::new(key(name), 1)]));
        }
        let sorted: Vec<String> = c
            .into_sorted()
            .into_iter()
            .map(|(k, _)| k.display_lossy())
            .collect();
        assert_eq!(sorted, vec!["alpha", "mid", "zebra"]);
    }

    /// The round-robin offset is what spreads fan-in across trees; an
    /// iterative sender passes `sender_index + round` so the lead rotates
    /// per round. Pin the offset semantics: tree `offset % n` transmits
    /// first, order within each tree is preserved, and over any `n`
    /// consecutive rounds every tree leads exactly once (fairness — no
    /// tree is always drained first).
    #[test]
    fn interleave_offset_rotates_the_lead_across_rounds() {
        let config = DaietConfig { pairs_per_packet: 1, ..DaietConfig::default() };
        let pool = FramePool::new();
        let n = 3usize;
        let parts: Vec<(u16, Endpoints, Vec<Pair>)> =
            (0..n as u16).map(|t| (t, Endpoints::from_ids(1, 2), npairs(3))).collect();
        let sender_index = 2usize;
        let mut next_seq = FnvHashMap::default();
        let mut leads = Vec::new();
        for round in 0..2 * n {
            let plan = plan_round(&config, &parts, &mut next_seq, sender_index + round, 1);
            let mut tx = Transmit::new(plan);
            let sent: Vec<Header> = std::iter::from_fn(|| tx.next(&pool))
                .map(|f| receive_daiet(f).unwrap().0)
                .collect();
            assert_eq!(sent.len(), n * 4);
            leads.push(sent[0].tree_id);
            // Every tree's internal order is preserved: consecutive
            // sequence numbers, the END last.
            for q in 0..n as u16 {
                let tree: Vec<&Header> = sent.iter().filter(|h| h.tree_id == q).collect();
                let base = 4 * round as u32;
                assert_eq!(
                    tree.iter().map(|h| h.seq).collect::<Vec<_>>(),
                    (base..base + 4).collect::<Vec<_>>()
                );
                assert_eq!(tree[3].packet_type, PacketType::End);
            }
        }
        // The lead rotates: round r leads with tree (sender + r) % n…
        let expect: Vec<u16> = (0..2 * n).map(|r| ((sender_index + r) % n) as u16).collect();
        assert_eq!(leads, expect);
        // …so across any n consecutive rounds each tree led exactly once.
        for w in leads.windows(n) {
            let mut sorted = w.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u16).collect::<Vec<u16>>(), "unfair window {w:?}");
        }
    }

    #[test]
    fn end_to_end_sender_switch_reducer() {
        use crate::switch_agg::{DaietEngine, TreeStateConfig};
        use daiet_dataplane::pipeline::{ActionSpec, Pipeline};
        use daiet_dataplane::table::{Field, KeySpec, Table, TableEntry, TableKind};
        use daiet_dataplane::{MatchValue, Resources, Switch};
        use daiet_netsim::{LinkSpec, Simulator};

        let config = DaietConfig::default();
        let mut sim = Simulator::new(11);

        // Two senders, one reducer, one switch doing the aggregation.
        let s1 = sim.add_node(Box::new(sender_host(
            &config,
            1,
            vec![Pair::new(key("dog"), 2), Pair::new(key("cat"), 1)],
            Endpoints::from_ids(1, 3),
        )));
        let s2 = sim.add_node(Box::new(sender_host(
            &config,
            1,
            vec![Pair::new(key("dog"), 5)],
            Endpoints::from_ids(2, 3),
        )));
        let reducer = sim.add_node(Box::new(ReducerHost::new(AggFn::Sum, 1)));

        let mut pipeline = Pipeline::new(Resources::tofino_like());
        let steer = pipeline
            .add_table(
                0,
                Table::new(
                    "daiet_steer",
                    TableKind::Exact,
                    KeySpec(vec![Field::DaietTreeId]),
                    16,
                    ActionSpec::NoOp,
                ),
            )
            .unwrap();
        let l2 = pipeline
            .add_table(
                1,
                Table::new(
                    "l2",
                    TableKind::Exact,
                    KeySpec(vec![Field::EthDst]),
                    16,
                    ActionSpec::Drop,
                ),
            )
            .unwrap();
        let mut sw = Switch::new("tor", pipeline);
        let mut engine = DaietEngine::new(config);
        engine.install_tree(TreeStateConfig {
            tree_id: 1,
            out_port: PortId(2), // reducer's port on the switch (3rd link)
            endpoints: Endpoints::from_ids(100, 3),
            agg: AggFn::Sum,
            children: 2,
            children_sources: Vec::new(),
        });
        let ext = sw.register_extern(Box::new(engine));
        sw.pipeline_mut()
            .table_mut(steer)
            .insert(TableEntry {
                matcher: MatchValue::Exact(1u16.to_be_bytes().to_vec()),
                action: ActionSpec::Invoke { ext, arg: 1 },
            })
            .unwrap();
        sw.pipeline_mut()
            .table_mut(l2)
            .insert(TableEntry {
                matcher: MatchValue::Exact(daiet_wire::EthernetAddress::from_id(3).0.to_vec()),
                action: ActionSpec::Forward(PortId(2)),
            })
            .unwrap();

        let sw_id = sim.add_node(Box::new(sw));
        sim.connect(s1, sw_id, LinkSpec::fast()); // switch port 0
        sim.connect(s2, sw_id, LinkSpec::fast()); // switch port 1
        sim.connect(sw_id, reducer, LinkSpec::fast()); // switch port 2
        sim.run();

        let r = sim.node_ref::<ReducerHost>(reducer).unwrap();
        assert!(r.collector.is_complete());
        assert_eq!(r.collector.get(&key("dog")), Some(7));
        assert_eq!(r.collector.get(&key("cat")), Some(1));
        // The reducer saw exactly one END (from the switch), and at most
        // one DATA packet (both keys fit one packet).
        assert_eq!(r.collector.stats().end_packets, 1);
        assert_eq!(r.collector.stats().data_packets, 1);
    }
}
