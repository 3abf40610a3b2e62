//! Differential properties of the paced multi-tree sender.
//!
//! `PacedSenderNode` serializes each frame at the tick that sends it and
//! rebuilds NACKed frames from the round's pair slices. These properties
//! hold it to an independent reference built the plain way: every
//! packet from `Packetizer::packets_from_seq`, framed by `build_daiet`,
//! interleaved round-robin from the sender's offset and expanded by
//! `RedundantSender`. Transmission and every replay must match that
//! reference byte for byte, with sequence numbers wrapping past
//! `u32::MAX`, across round barriers and across an epoch reset.

use daiet_repro::daiet::reliability::{seq_at_or_after, RedundantSender};
use daiet_repro::daiet::worker::{plan_round, PacedSenderNode, Packetizer};
use daiet_repro::daiet::DaietConfig;
use daiet_repro::fabric::{Duration, Fabric, Frame, FramePool, Node, PortId, Time};
use daiet_repro::wire::daiet::{Key, NackRange, Pair, Repr};
use daiet_repro::wire::fnv::FnvHashMap;
use daiet_repro::wire::stack::{build_daiet, Endpoints};
use daiet_repro::wire::udp::DAIET_PORT;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A fabric that records what the node sends and counts armed timers.
struct Recorder {
    pool: FramePool,
    sent: Vec<Vec<u8>>,
    timers: usize,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { pool: FramePool::new(), sent: Vec::new(), timers: 0 }
    }

    /// Fires pacing timers until the node stops re-arming (at most
    /// `limit` ticks); returns the frames sent meanwhile.
    fn tick(&mut self, node: &mut PacedSenderNode, limit: usize) -> Vec<Vec<u8>> {
        let from = self.sent.len();
        let mut ticks = 0;
        while self.timers > 0 && ticks < limit {
            self.timers -= 1;
            ticks += 1;
            node.on_timer(self, 0);
        }
        self.sent.split_off(from)
    }

    fn drain(&mut self, node: &mut PacedSenderNode) -> Vec<Vec<u8>> {
        self.tick(node, usize::MAX)
    }

    /// Delivers a NACK for `tree` to the node; returns what it sent
    /// straight back (an open-loop sender replays at once).
    fn nack(
        &mut self,
        node: &mut PacedSenderNode,
        tree: u16,
        next_expected: u32,
        tail: bool,
        ranges: &[NackRange],
    ) -> Vec<Vec<u8>> {
        let repr = Repr::nack(tree, next_expected, tail, ranges);
        let bytes = build_daiet(&Endpoints::from_ids(99, 0), DAIET_PORT, &repr);
        let frame = Frame::from_slice(&bytes);
        let from = self.sent.len();
        node.on_packet(self, PortId(0), frame);
        self.sent.split_off(from)
    }
}

impl Fabric for Recorder {
    fn now(&self) -> Time {
        Time::ZERO
    }
    fn send(&mut self, port: PortId, frame: Frame) {
        assert_eq!(port, PortId(0), "a sender has one port");
        self.sent.push(frame.to_vec());
    }
    fn schedule(&mut self, _delay: Duration, _token: u64) {
        self.timers += 1;
    }
    fn pool(&self) -> &FramePool {
        &self.pool
    }
    fn port_count(&self) -> usize {
        1
    }
}

/// One round's parts: tree `t` gets `sizes[t]` pairs.
fn parts(sizes: &[usize], round: u32) -> Vec<(u16, Endpoints, Vec<Pair>)> {
    sizes
        .iter()
        .enumerate()
        .map(|(t, &n)| {
            let pairs = (0..n)
                .map(|i| {
                    let key = Key::from_str_key(&format!("r{round}t{t}k{i}")).unwrap();
                    Pair::new(key, i as u32 + round)
                })
                .collect();
            (t as u16 + 10, Endpoints::from_ids(t as u32, 50 + t as u32), pairs)
        })
        .collect()
}

/// Frame bytes by `(tree, seq)`.
type BySeq = BTreeMap<(u16, u32), Vec<u8>>;

/// The reference round: its transmit schedule, and every packet's bytes
/// by `(tree, seq)`. Advances `next_seq` like the sender does.
fn reference(
    config: &DaietConfig,
    parts: &[(u16, Endpoints, Vec<Pair>)],
    next_seq: &mut FnvHashMap<u16, u32>,
    offset: usize,
    k: u32,
) -> (Vec<Vec<u8>>, BySeq) {
    let packetizer = Packetizer::new(config);
    let mut by_seq = BTreeMap::new();
    let mut queues: Vec<Vec<Vec<u8>>> = Vec::new();
    for (tree, ep, pairs) in parts {
        let base = next_seq.get(tree).copied().unwrap_or(0);
        let (reprs, next) = packetizer.packets_from_seq(*tree, pairs, base);
        next_seq.insert(*tree, next);
        let frames: Vec<Vec<u8>> = reprs.iter().map(|r| build_daiet(ep, DAIET_PORT, r)).collect();
        for (r, f) in reprs.iter().zip(&frames) {
            by_seq.insert((*tree, r.seq), f.clone());
        }
        queues.push(frames);
    }
    let mut interleaved = Vec::new();
    let mut cursors = vec![0usize; queues.len()];
    let total: usize = queues.iter().map(Vec::len).sum();
    let mut t = offset % queues.len();
    while interleaved.len() < total {
        if cursors[t] < queues[t].len() {
            interleaved.push(queues[t][cursors[t]].clone());
            cursors[t] += 1;
        }
        t = (t + 1) % queues.len();
    }
    (RedundantSender::new(k).schedule(&interleaved), by_seq)
}

/// What a NACK for `tree` must replay: every retained packet of that
/// tree in sequence order from `from`, selected by the ranges or the
/// tail.
fn expected_replay(
    by_seq: &BySeq,
    tree: u16,
    from: u32,
    count: u32,
    next_expected: u32,
    tail: bool,
    ranges: &[NackRange],
) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| from.wrapping_add(i))
        .filter(|&s| {
            ranges.iter().any(|r| r.contains(s)) || (tail && seq_at_or_after(s, next_expected))
        })
        .map(|s| by_seq[&(tree, s)].clone())
        .collect()
}

fn config(pairs_per_packet: usize) -> DaietConfig {
    DaietConfig { pairs_per_packet, nack_recovery: true, ..DaietConfig::default() }
}

/// Sequence bases near `u32::MAX`, so most rounds wrap.
fn bases(sizes: &[usize], back: u32) -> FnvHashMap<u16, u32> {
    (0..sizes.len())
        .map(|t| (t as u16 + 10, u32::MAX - back.wrapping_mul(t as u32 + 1) % 64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transmission matches the reference schedule byte for byte, and an
    /// open-loop NACK (explicit range plus optional tail) replays exactly
    /// the originally sent bytes, in sequence order.
    #[test]
    fn transmit_and_replay_match_the_reference(
        sizes in prop::collection::vec(0usize..=25, 1..=4usize),
        ppp in 1usize..=10,
        offset in 0usize..8,
        k in prop::sample::select(&[1u32, 2, 3]),
        back in 0u32..64,
        nack in (0usize..4, 0u32..40, 1u32..6, 0u32..40, 0u32..2),
    ) {
        let config = config(ppp);
        let parts = parts(&sizes, 0);
        let mut next_seq = bases(&sizes, back);
        let mut want_seq = next_seq.clone();
        let (schedule, by_seq) = reference(&config, &parts, &mut want_seq, offset, k);

        let mut node = PacedSenderNode::new(Duration::from_micros(1), "sender");
        node.arm_replay();
        node.enqueue_round(plan_round(&config, &parts, &mut next_seq, offset, k));
        prop_assert_eq!(&next_seq, &want_seq);
        prop_assert_eq!(node.pending(), schedule.len());
        let mut fab = Recorder::new();
        node.on_start(&mut fab);
        prop_assert_eq!(fab.drain(&mut node), schedule);
        prop_assert_eq!(node.pending(), 0);
        prop_assert_eq!(node.replay_retained(), by_seq.len());

        let (t, first, count, tail_at, tail) = nack;
        let (tree, _, _) = &parts[t % parts.len()];
        let base = bases(&sizes, back)[tree];
        let packets = want_seq[tree].wrapping_sub(base);
        let ranges = [NackRange { first: base.wrapping_add(first), count }];
        let next_expected = base.wrapping_add(tail_at);
        let got = fab.nack(&mut node, *tree, next_expected, tail == 1, &ranges);
        let want =
            expected_replay(&by_seq, *tree, base, packets, next_expected, tail == 1, &ranges);
        prop_assert_eq!(node.frames_replayed, want.len() as u64);
        prop_assert_eq!(got, want);
        prop_assert_eq!(node.nacks_received, 1);
    }

    /// The closed-loop sender queues replays behind the rest of the
    /// round instead of bursting them: a NACK arriving after `sent`
    /// frames yields the whole reference schedule, then the replays.
    #[test]
    fn backoff_queues_replays_behind_the_round(
        sizes in prop::collection::vec(0usize..=25, 1..=4usize),
        ppp in 1usize..=10,
        k in prop::sample::select(&[1u32, 2, 3]),
        back in 0u32..64,
        sent_frac in 0usize..=100,
        tail_at in 0u32..40,
    ) {
        let config = config(ppp);
        let parts = parts(&sizes, 0);
        let mut next_seq = bases(&sizes, back);
        let mut want_seq = next_seq.clone();
        let (schedule, by_seq) = reference(&config, &parts, &mut want_seq, 1, k);

        let mut node = PacedSenderNode::new(Duration::from_micros(1), "sender");
        node.arm_replay();
        node.enable_nack_backoff();
        node.enqueue_round(plan_round(&config, &parts, &mut next_seq, 1, k));
        let mut fab = Recorder::new();
        node.on_start(&mut fab);
        let before = fab.tick(&mut node, schedule.len() * sent_frac / 100);

        let (tree, _, _) = &parts[0];
        let base = bases(&sizes, back)[tree];
        let packets = want_seq[tree].wrapping_sub(base);
        let next_expected = base.wrapping_add(tail_at);
        prop_assert!(fab.nack(&mut node, *tree, next_expected, true, &[]).is_empty());
        let replays = expected_replay(&by_seq, *tree, base, packets, next_expected, true, &[]);
        prop_assert_eq!(node.pending(), schedule.len() - before.len() + replays.len());
        prop_assert_eq!(node.backoff(), 2);

        let mut got = before;
        got.extend(fab.drain(&mut node));
        let mut want = schedule;
        want.extend(replays);
        prop_assert_eq!(got, want);
    }

    /// Replay holds across round barriers: after `retire_round` up to a
    /// cutoff inside the second of two rounds, only packets at or past
    /// the cutoff come back; after `reset_epoch` nothing does, and a
    /// fresh round numbered from 0 replays its own bytes.
    #[test]
    fn replay_survives_retirement_and_epoch_reset(
        sizes in prop::collection::vec(0usize..=20, 1..=3usize),
        ppp in 1usize..=10,
        k in prop::sample::select(&[1u32, 2, 3]),
        back in 0u32..64,
        cut in 0u32..=100,
    ) {
        let config = config(ppp);
        let mut node = PacedSenderNode::new(Duration::from_micros(1), "sender");
        node.arm_replay();
        let mut fab = Recorder::new();
        let mut next_seq = bases(&sizes, back);
        let mut want_seq = next_seq.clone();
        let mut by_seq = BTreeMap::new();
        for round in 0..2 {
            let parts = parts(&sizes, round);
            let offset = round as usize;
            let (schedule, seqs) = reference(&config, &parts, &mut want_seq, offset, k);
            by_seq.extend(seqs);
            node.enqueue_round(plan_round(&config, &parts, &mut next_seq, offset, k));
            fab.timers += 1;
            prop_assert_eq!(fab.drain(&mut node), schedule);
        }

        // Retire tree 10 up to a cutoff between its start and its end;
        // the other trees retire completely.
        let tree = 10u16;
        let start = bases(&sizes, back)[&tree];
        let total = want_seq[&tree].wrapping_sub(start);
        let cutoff = start.wrapping_add(total * cut / 100);
        let cutoffs: Vec<(u16, u32)> = want_seq
            .iter()
            .map(|(&t, &end)| (t, if t == tree { cutoff } else { end }))
            .collect();
        let held = node.replay_retained();
        node.retire_round(&cutoffs);
        let kept = total - total * cut / 100;
        prop_assert_eq!(node.replay_retained(), kept as usize);
        prop_assert_eq!(node.frames_retired, (held - kept as usize) as u64);
        let got = fab.nack(&mut node, tree, start, true, &[]);
        prop_assert_eq!(got, expected_replay(&by_seq, tree, cutoff, kept, start, true, &[]));

        node.reset_epoch();
        prop_assert_eq!(node.replay_retained(), 0);
        let nacks = node.nacks_received;
        prop_assert!(fab.nack(&mut node, tree, 0, true, &[]).is_empty());
        prop_assert_eq!(node.nacks_received, nacks, "no retention: the NACK is ignored");

        let parts = parts(&sizes, 2);
        let mut fresh = FnvHashMap::default();
        let mut want_fresh = FnvHashMap::default();
        let (schedule, by_seq) = reference(&config, &parts, &mut want_fresh, 0, k);
        node.enqueue_round(plan_round(&config, &parts, &mut fresh, 0, k));
        fab.timers += 1;
        prop_assert_eq!(fab.drain(&mut node), schedule);
        let packets = want_fresh[&tree];
        let got = fab.nack(&mut node, tree, 0, true, &[]);
        prop_assert_eq!(got, expected_replay(&by_seq, tree, 0, packets, 0, true, &[]));
    }
}
