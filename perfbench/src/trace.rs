//! Spans recorded from the benchmark's own code around calls into each
//! layer, and the node wrapper that times node callbacks.
//!
//! A span has a layer, a start and an end; the span open when another
//! opens is its parent. A layer's self time is the sum over its spans of
//! duration minus the part covered by child spans, so the self times of
//! all layers under a `Job` span add up to the job's wall time, and the
//! `Job` layer's own self time is the time no layer claimed.
//!
//! Tracing is off unless [`enable`] was called on this thread; then
//! [`span`] is one thread-local flag read around the call.

use daiet_fabric::{Duration, Fabric, Frame, FramePool, Node, PortId, Time};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// A layer of the stack, as the benchmark attributes time to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole job; its self time is the unattributed remainder.
    Job,
    /// `Simulator::run_until` and link transmit (`Fabric::send` in the
    /// simulator), minus node callbacks.
    Netsim,
    /// `NodeDriver::run`, socket binds and socket sends, minus node
    /// callbacks.
    FabricUdp,
    /// Switch node callbacks (parse, pipeline, Algorithm 1, flushes).
    Switch,
    /// Mapper (sender) node callbacks.
    Mapper,
    /// Reducer node callbacks.
    Reducer,
    /// `Controller::deploy` (and the loopback switch builds that re-run it).
    Controller,
    /// `worker::multi_tree_sender`: packetizing and preloading frames.
    SenderBuild,
    /// `worker::reducer_host`.
    ReducerBuild,
    /// `serialize::to_pairs`.
    ToPairs,
    /// `JobScheduler::admit`.
    Admit,
    /// `JobScheduler::depart`.
    Depart,
    /// `JobScheduler::{begin_round, round_done, collect_round}`.
    RoundIo,
    /// `JobScheduler::{step, advance_to}` (the simulator with the
    /// scheduler's own, unwrappable nodes inside).
    Step,
    /// `TenantWorkload::shards`.
    Shards,
    /// `TenantWorkload::absorb`.
    Absorb,
    /// `TenantWorkload::verify`.
    Verify,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 17;

/// Accumulated time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Σ (span duration − child span time).
    pub self_ns: u64,
    /// Σ span duration.
    pub total_ns: u64,
    /// Spans closed.
    pub calls: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// The span stack and per-layer totals. Times are passed in, so the
/// self-time arithmetic is testable without a clock.
#[derive(Default)]
pub struct Recorder {
    open: Vec<Open>,
    totals: [LayerTotals; LAYERS],
}

impl Recorder {
    /// Opens a span of `layer` at `now_ns`, as a child of the innermost
    /// open span.
    pub fn open(&mut self, layer: Layer, now_ns: u64) {
        self.open.push(Open {
            layer,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost span at `now_ns`, charging its self time to
    /// its layer and its whole duration to its parent's child time.
    pub fn close(&mut self, now_ns: u64) {
        let span = self.open.pop().expect("close without a matching open");
        let dur = now_ns.saturating_sub(span.start_ns);
        let t = &mut self.totals[span.layer as usize];
        t.self_ns += dur.saturating_sub(span.child_ns);
        t.total_ns += dur;
        t.calls += 1;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// The totals of `layer` so far.
    #[cfg(test)]
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer as usize]
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static EPOCH: Instant = Instant::now();
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    EPOCH.with(|e| e.elapsed().as_nanos() as u64)
}

/// Turns span recording on for this thread, from empty totals.
pub fn enable() {
    RECORDER.with(|r| *r.borrow_mut() = Recorder::default());
    ENABLED.with(|e| e.set(true));
}

/// Turns span recording off and returns the totals it gathered.
pub fn disable() -> [LayerTotals; LAYERS] {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()).totals)
}

/// Whether spans are being recorded on this thread.
fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Runs `f` inside a span of `layer` (just runs it when tracing is off).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    RECORDER.with(|r| r.borrow_mut().open(layer, now_ns()));
    let out = f();
    RECORDER.with(|r| r.borrow_mut().close(now_ns()));
    out
}

/// A benchmark-owned node around a node of the stack: times its
/// callbacks as spans of `layer`, counts frames in and out, and times
/// each `Fabric::send` as a span of the backend's layer.
pub struct Traced {
    inner: Box<dyn Node>,
    layer: Layer,
    send_layer: Layer,
    /// Frames delivered to the node.
    pub frames_in: u64,
    /// Frames the node handed to `Fabric::send`.
    pub frames_out: u64,
    /// When set, every ingress frame is copied here with its port.
    pub capture: Option<Vec<(PortId, Vec<u8>)>>,
    /// Last send made from a timer callback — for a paced sender, its
    /// last first transmission (replays answer NACKs from `on_packet`):
    /// the fabric's clock, and the wall clock.
    pub last_timer_send: Option<(Time, Instant)>,
}

impl Traced {
    /// Wraps `inner`; `send_layer` is the backend that carries its sends.
    pub fn new(inner: Box<dyn Node>, layer: Layer, send_layer: Layer) -> Traced {
        Traced {
            inner,
            layer,
            send_layer,
            frames_in: 0,
            frames_out: 0,
            capture: None,
            last_timer_send: None,
        }
    }

    /// The wrapped node, downcast.
    pub fn inner_ref<T: Any>(&self) -> Option<&T> {
        (self.inner.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    fn call(
        &mut self,
        ctx: &mut dyn Fabric,
        from_timer: bool,
        f: impl FnOnce(&mut dyn Node, &mut dyn Fabric),
    ) {
        let mut fab = Counting {
            inner: ctx,
            send_layer: self.send_layer,
            sent: 0,
            last_send: None,
        };
        let inner = self.inner.as_mut();
        span(self.layer, || f(inner, &mut fab));
        self.frames_out += fab.sent;
        if let (true, Some(t)) = (from_timer, fab.last_send) {
            self.last_timer_send = Some((t, Instant::now()));
        }
    }
}

impl Node for Traced {
    fn on_packet(&mut self, ctx: &mut dyn Fabric, port: PortId, frame: Frame) {
        self.frames_in += 1;
        if let Some(c) = self.capture.as_mut() {
            c.push((port, frame.to_vec()));
        }
        self.call(ctx, false, |n, fab| n.on_packet(fab, port, frame));
    }

    fn on_timer(&mut self, ctx: &mut dyn Fabric, token: u64) {
        self.call(ctx, true, |n, fab| n.on_timer(fab, token));
    }

    fn on_start(&mut self, ctx: &mut dyn Fabric) {
        self.call(ctx, false, |n, fab| n.on_start(fab));
    }

    fn on_fail(&mut self) {
        self.inner.on_fail();
    }

    fn on_revive(&mut self, ctx: &mut dyn Fabric) {
        self.call(ctx, false, |n, fab| n.on_revive(fab));
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The fabric a [`Traced`] node sees: the backend's, with sends counted
/// and timed.
struct Counting<'a, 'b> {
    inner: &'a mut (dyn Fabric + 'b),
    send_layer: Layer,
    sent: u64,
    last_send: Option<Time>,
}

impl Fabric for Counting<'_, '_> {
    fn now(&self) -> Time {
        self.inner.now()
    }

    fn send(&mut self, port: PortId, frame: Frame) {
        self.sent += 1;
        self.last_send = Some(self.inner.now());
        let inner = &mut *self.inner;
        span(self.send_layer, || inner.send(port, frame));
    }

    fn schedule(&mut self, delay: Duration, token: u64) {
        self.inner.schedule(delay, token);
    }

    fn pool(&self) -> &FramePool {
        self.inner.pool()
    }

    fn port_count(&self) -> usize {
        self.inner.port_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut r = Recorder::default();
        r.open(Layer::Job, 0);
        r.open(Layer::Netsim, 10);
        r.open(Layer::Switch, 20);
        r.open(Layer::Netsim, 25); // a send inside the callback
        r.close(27);
        r.close(40);
        r.open(Layer::Mapper, 50);
        r.close(55);
        r.close(90);
        r.close(100);
        let net = r.totals(Layer::Netsim);
        // run_until: 80 long, 20 + 5 of it in callbacks → 55; the send: 2.
        assert_eq!((net.self_ns, net.total_ns, net.calls), (57, 82, 2));
        assert_eq!(r.totals(Layer::Switch).self_ns, 18);
        assert_eq!(r.totals(Layer::Mapper).self_ns, 5);
        // The job keeps only what no layer claimed: 100 - 80.
        assert_eq!(r.totals(Layer::Job).self_ns, 20);
        let sum: u64 = r.totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root span");
    }

    #[test]
    fn spans_record_only_when_enabled() {
        assert_eq!(span(Layer::Switch, || 7), 7);
        assert_eq!(disable()[Layer::Switch as usize].calls, 0);
        enable();
        span(Layer::Job, || span(Layer::Switch, || ()));
        let totals = disable();
        assert_eq!(totals[Layer::Switch as usize].calls, 1);
        assert!(totals[Layer::Job as usize].total_ns >= totals[Layer::Switch as usize].total_ns);
    }
}
