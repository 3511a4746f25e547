//! The tracing transport decorator.
//!
//! [`Traced`] implements `Transport<Msg>` around a [`Carrier`] and
//! timestamps every call the protocol engines make on it: message
//! pickups (`recv_timeout` / `try_recv` returns), sends and multicasts,
//! and one-sided reads and writes. On the simulated fabric each message
//! travels in an [`Env`] envelope that carries its trace context — the
//! client operation it belongs to and the span of the send — so a
//! message sent while a node handles another is recorded as that
//! handler's child. The envelope's `WireSize` is the message's own, so
//! latency charges and `NetStats` counters are those of the untraced
//! program (the parity test pins this).
//!
//! A node's handler span runs from the pickup of a message to the
//! node's next receive call: the protocol thread's self time for that
//! message. Aggregates (per-kind handler times, mailbox waits, send
//! times, traffic attributed to operations) cover every message; full
//! spans are kept only for sampled operations so memory stays bounded.
//! Each endpoint owns its [`Recorder`]; it is handed to a shared sink
//! when the endpoint is dropped, i.e. when its thread ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ring_kvs::proto::{ClientReq, Msg};
use ring_net::{
    clock, Endpoint, FrameBuf, LatencyModel, MemoryRegion, MrKey, NetError, NetStats, NodeId,
    TcpTransport, Transport, WireSize,
};

use crate::oracle::mix64;
use crate::report::Samples;

/// Trace context carried next to a message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctx {
    /// The client operation that caused the message (0 = none).
    pub op: u64,
    /// Whether the operation keeps full spans.
    pub sampled: bool,
    /// Span id of the send that carried the message.
    pub send: u64,
}

/// A message plus its trace context, as carried on a traced fabric.
#[derive(Debug, Clone)]
pub struct Env {
    /// The protocol message.
    pub msg: Msg,
    /// Its context.
    pub ctx: Ctx,
    /// When the sender called `send`.
    pub sent_at: Instant,
}

impl WireSize for Env {
    fn wire_size(&self) -> usize {
        self.msg.wire_size()
    }
}

/// The operation id of client request `req` of client `client`.
pub fn op_id(client: NodeId, req: u64) -> u64 {
    (u64::from(client) << 40) | (req & ((1 << 40) - 1))
}

/// Whether operation `op` keeps full spans at sampling period `every`.
pub fn sampled(op: u64, every: u64) -> bool {
    every > 0 && mix64(op).is_multiple_of(every)
}

/// A delivered message with the context the carrier could recover.
pub type Delivery = (NodeId, Msg, Option<(Ctx, Instant)>);

/// What a [`Traced`] endpoint is layered on: moves messages (with or
/// without a context) and forwards the one-sided verbs.
pub trait Carrier: Send {
    /// This endpoint's id.
    fn carrier_id(&self) -> NodeId;
    /// The per-hop latency model, when the carrier simulates one.
    fn latency(&self) -> Option<LatencyModel>;
    /// Traffic counters.
    fn carrier_stats(&self) -> &NetStats;
    /// Sends `msg` with its context.
    fn post(&self, to: NodeId, msg: Msg, ctx: Ctx, sent_at: Instant) -> Result<(), NetError>;
    /// Blocking receive.
    fn take(&self, timeout: Duration) -> Result<Delivery, NetError>;
    /// Non-blocking receive.
    fn try_take(&self) -> Result<Option<Delivery>, NetError>;
    /// Region registration.
    fn register_region(&self, key: MrKey, region: MemoryRegion);
    /// Region removal.
    fn deregister_region(&self, key: MrKey);
    /// A local region.
    fn local_region(&self, key: MrKey) -> Option<MemoryRegion>;
    /// One-sided read.
    fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError>;
    /// Zero-padded one-sided read.
    fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError>;
    /// One-sided write.
    fn rdma_write(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        bytes: &[u8],
    ) -> Result<(), NetError>;
}

/// A simulated-fabric endpoint carrying envelopes.
#[derive(Debug)]
pub struct SimCarrier {
    /// The endpoint on the traced fabric.
    pub ep: Endpoint<Env>,
    /// The fabric's latency model.
    pub model: LatencyModel,
}

impl Carrier for SimCarrier {
    fn carrier_id(&self) -> NodeId {
        self.ep.id()
    }
    fn latency(&self) -> Option<LatencyModel> {
        Some(self.model)
    }
    fn carrier_stats(&self) -> &NetStats {
        self.ep.stats()
    }
    fn post(&self, to: NodeId, msg: Msg, ctx: Ctx, sent_at: Instant) -> Result<(), NetError> {
        self.ep.send(to, Env { msg, ctx, sent_at })
    }
    fn take(&self, timeout: Duration) -> Result<Delivery, NetError> {
        self.ep
            .recv_timeout(timeout)
            .map(|(from, e)| (from, e.msg, Some((e.ctx, e.sent_at))))
    }
    fn try_take(&self) -> Result<Option<Delivery>, NetError> {
        self.ep
            .try_recv()
            .map(|o| o.map(|(from, e)| (from, e.msg, Some((e.ctx, e.sent_at)))))
    }
    fn register_region(&self, key: MrKey, region: MemoryRegion) {
        self.ep.register_region(key, region);
    }
    fn deregister_region(&self, key: MrKey) {
        self.ep.deregister_region(key);
    }
    fn local_region(&self, key: MrKey) -> Option<MemoryRegion> {
        self.ep.local_region(key)
    }
    fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        self.ep.rdma_read(node, key, off, len)
    }
    fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        self.ep.rdma_read_padded(node, key, off, len)
    }
    fn rdma_write(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        bytes: &[u8],
    ) -> Result<(), NetError> {
        self.ep.rdma_write(node, key, off, bytes)
    }
}

impl Carrier for TcpTransport<Msg> {
    fn carrier_id(&self) -> NodeId {
        Transport::id(self)
    }
    fn latency(&self) -> Option<LatencyModel> {
        None
    }
    fn carrier_stats(&self) -> &NetStats {
        Transport::stats(self)
    }
    fn post(&self, to: NodeId, msg: Msg, _ctx: Ctx, _sent_at: Instant) -> Result<(), NetError> {
        Transport::send(self, to, msg)
    }
    fn take(&self, timeout: Duration) -> Result<Delivery, NetError> {
        Transport::recv_timeout(self, timeout).map(|(from, m)| (from, m, None))
    }
    fn try_take(&self) -> Result<Option<Delivery>, NetError> {
        Transport::try_recv(self).map(|o| o.map(|(from, m)| (from, m, None)))
    }
    fn register_region(&self, key: MrKey, region: MemoryRegion) {
        Transport::register_region(self, key, region);
    }
    fn deregister_region(&self, key: MrKey) {
        Transport::deregister_region(self, key);
    }
    fn local_region(&self, key: MrKey) -> Option<MemoryRegion> {
        Transport::local_region(self, key)
    }
    fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        Transport::rdma_read(self, node, key, off, len)
    }
    fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        Transport::rdma_read_padded(self, node, key, off, len)
    }
    fn rdma_write(
        &self,
        node: NodeId,
        key: MrKey,
        off: usize,
        bytes: &[u8],
    ) -> Result<(), NetError> {
        Transport::rdma_write(self, node, key, off, bytes)
    }
}

/// A send of a sampled operation.
#[derive(Debug, Clone)]
pub struct SendSpan {
    /// Span id (carried in the message's [`Ctx::send`]).
    pub id: u64,
    /// Operation.
    pub op: u64,
    /// The handler span that issued the send (0 = none: a client submit).
    pub parent: u64,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message kind label.
    pub kind: &'static str,
    /// `send` call entry.
    pub start: Instant,
    /// `send` call return.
    pub end: Instant,
    /// Modelled one-way wire delay (0 off the simulated fabric).
    pub wire_ns: u64,
}

/// The pickup and handling of a message of a sampled operation.
#[derive(Debug, Clone)]
pub struct HandlerSpan {
    /// Span id.
    pub id: u64,
    /// Operation.
    pub op: u64,
    /// The send span that delivered the message (0 = unknown).
    pub cause: u64,
    /// The receiving node.
    pub node: NodeId,
    /// Message kind label.
    pub kind: &'static str,
    /// Pickup: return of the receive call.
    pub start: Instant,
    /// The node's next receive call.
    pub end: Instant,
}

/// The handler running on an endpoint: the message picked up last.
#[derive(Debug, Clone, Copy)]
struct Open {
    id: u64,
    ctx: Ctx,
    kind: &'static str,
    start: Instant,
}

/// Everything one endpoint recorded.
#[derive(Debug)]
pub struct Recorder {
    /// The endpoint's node id.
    pub node: NodeId,
    /// Whether this is a client endpoint.
    pub is_client: bool,
    sample_every: u64,
    latency: Option<LatencyModel>,
    gate: Gate,
    next_span: u64,
    open: Option<Open>,
    /// Creation time of the endpoint.
    pub born: Instant,
    /// Handler self time per received kind (nodes and leader only).
    pub handle: BTreeMap<&'static str, Samples>,
    /// Σ handler self time.
    pub busy_ns: u64,
    /// Pickup − (send + modelled delay), per received message.
    pub mailbox_wait: Samples,
    /// Duration of `send` calls.
    pub send_time: Samples,
    /// Time blocked inside `recv_timeout` (the client's window wait).
    pub blocked_ns: u64,
    /// Client re-sends (multicast failover of a timed-out request).
    pub retransmits: u64,
    /// Messages sent on behalf of client operations, by kind.
    pub op_sends: BTreeMap<&'static str, u64>,
    /// `WireSize` bytes of those messages.
    pub op_bytes: u64,
    /// `ring-wire` frame bytes of those messages.
    pub op_frame_bytes: u64,
    /// Parity-delta segment bytes of sent `ParityUpdate`s.
    pub coded_bytes: u64,
    /// One-sided read durations.
    pub rdma_read_time: Samples,
    /// Sampled sends.
    pub sends: Vec<SendSpan>,
    /// Sampled pickups.
    pub handlers: Vec<HandlerSpan>,
    /// Messages of sampled operations, kept for the codec and GF replay.
    pub kept: Vec<(u64, Msg)>,
}

/// Messages kept per endpoint for replay.
const KEEP_CAP: usize = 2048;

impl Recorder {
    fn new(
        node: NodeId,
        is_client: bool,
        sample_every: u64,
        latency: Option<LatencyModel>,
        gate: Gate,
    ) -> Recorder {
        Recorder {
            node,
            is_client,
            sample_every,
            latency,
            gate,
            next_span: (u64::from(node) + 1) << 36,
            open: None,
            born: clock::now(),
            handle: BTreeMap::new(),
            busy_ns: 0,
            mailbox_wait: Samples::default(),
            send_time: Samples::default(),
            blocked_ns: 0,
            retransmits: 0,
            op_sends: BTreeMap::new(),
            op_bytes: 0,
            op_frame_bytes: 0,
            coded_bytes: 0,
            rdma_read_time: Samples::default(),
            sends: Vec::new(),
            handlers: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Whether the measured phase is running.
    fn on(&self) -> bool {
        self.gate.load(Ordering::SeqCst)
    }

    fn span_id(&mut self) -> u64 {
        self.next_span += 1;
        self.next_span
    }

    fn wire_ns(&self, bytes: usize) -> u64 {
        self.latency.map_or(0, |l| l.delay(bytes).as_nanos() as u64)
    }

    /// Closes the open handler at `now` (the next receive call).
    fn close(&mut self, now: Instant) {
        let Some(Open {
            id,
            ctx,
            kind,
            start,
        }) = self.open.take()
        else {
            return;
        };
        if !self.on() {
            return;
        }
        let dur = now.saturating_duration_since(start);
        if !self.is_client {
            self.handle.entry(kind).or_default().push(dur);
            self.busy_ns += dur.as_nanos() as u64;
        }
        if ctx.sampled {
            self.handlers.push(HandlerSpan {
                id,
                op: ctx.op,
                cause: ctx.send,
                node: self.node,
                kind,
                start,
                end: now,
            });
        }
    }

    /// Opens a handler for a message picked up at `now`.
    fn picked(&mut self, msg: &Msg, meta: Option<(Ctx, Instant)>, now: Instant) {
        let kind = kind_label(msg);
        let mut ctx = Ctx::default();
        if let Some((c, _)) = meta {
            ctx = c;
        }
        if let (Some((_, sent_at)), true) = (meta, self.on()) {
            let due = sent_at + Duration::from_nanos(self.wire_ns(msg.wire_size()));
            self.mailbox_wait.push(now.saturating_duration_since(due));
        }
        if self.is_client {
            // Off the simulated fabric no context travels: the client
            // still knows which of its operations a response answers.
            if let Msg::Response { req, .. } = msg {
                ctx.op = op_id(self.node, *req);
                ctx.sampled = sampled(ctx.op, self.sample_every);
            }
        }
        let id = self.span_id();
        self.open = Some(Open {
            id,
            ctx,
            kind,
            start: now,
        });
    }

    /// The context of a message about to be sent.
    fn context_for(&self, msg: &Msg) -> (u64, bool, u64) {
        if self.is_client {
            return match msg {
                Msg::Request { req, body } if is_data_op(body) => {
                    let op = op_id(self.node, *req);
                    (op, sampled(op, self.sample_every), 0)
                }
                _ => (0, false, 0),
            };
        }
        if matches!(msg, Msg::Heartbeat) {
            return (0, false, 0);
        }
        match self.open {
            Some(Open { id, ctx, .. }) if ctx.op != 0 => (ctx.op, ctx.sampled, id),
            _ => (0, false, 0),
        }
    }
}

/// Client operations the tracer attributes traffic to.
fn is_data_op(body: &ClientReq) -> bool {
    matches!(
        body,
        ClientReq::Get { .. }
            | ClientReq::Put { .. }
            | ClientReq::Move { .. }
            | ClientReq::Delete { .. }
    )
}

/// The handler-kind label of a message: `Request.<Op>` for requests,
/// the message kind otherwise.
fn kind_label(msg: &Msg) -> &'static str {
    match msg {
        Msg::Request { body, .. } => match body {
            ClientReq::Get { .. } => "Request.Get",
            ClientReq::Put { .. } => "Request.Put",
            ClientReq::Move { .. } => "Request.Move",
            ClientReq::Delete { .. } => "Request.Delete",
            ClientReq::Stats => "Request.Stats",
            _ => "Request.Ctrl",
        },
        other => other.kind(),
    }
}

/// Where endpoints hand their recorders when they are dropped.
pub type Sink = Arc<Mutex<Vec<Recorder>>>;

/// Shared switch: endpoints record only while it is set, so set-up,
/// failover and read-back traffic stay out of the figures.
pub type Gate = Arc<AtomicBool>;

/// The tracing decorator.
pub struct Traced<C: Carrier> {
    inner: C,
    rec: RefCell<Option<Recorder>>,
    sink: Sink,
}

impl<C: Carrier> Traced<C> {
    /// Wraps `inner`, keeping full spans for one operation in
    /// `sample_every`.
    pub fn new(inner: C, is_client: bool, sample_every: u64, sink: Sink, gate: Gate) -> Traced<C> {
        let rec = Recorder::new(
            inner.carrier_id(),
            is_client,
            sample_every,
            inner.latency(),
            gate,
        );
        Traced {
            inner,
            rec: RefCell::new(Some(rec)),
            sink,
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let mut r = self.rec.borrow_mut();
        f(r.as_mut().expect("recorder present until drop"))
    }

    fn traced_send(&self, to: NodeId, msg: Msg) -> Result<(), NetError> {
        let (op, smp, parent) = self.with(|r| r.context_for(&msg));
        let on = self.with(|r| r.on());
        let kind = kind_label(&msg);
        let bytes = msg.wire_size();
        let keep = on && smp && op != 0 && self.with(|r| r.kept.len() < KEEP_CAP);
        let kept = keep.then(|| msg.clone());
        let frame = if on && op != 0 { frame_len(&msg) } else { 0 };
        let coded: usize = match &msg {
            Msg::ParityUpdate { segs, .. } => segs.iter().map(|s| s.delta.len()).sum(),
            _ => 0,
        };
        let id = self.with(|r| r.span_id());
        let start = clock::now();
        let res = self.inner.post(
            to,
            msg,
            Ctx {
                op,
                sampled: smp,
                send: id,
            },
            start,
        );
        let end = clock::now();
        if !on {
            return res;
        }
        self.with(|r| {
            r.send_time.push(end.saturating_duration_since(start));
            r.coded_bytes += coded as u64;
            if op != 0 {
                *r.op_sends.entry(kind).or_default() += 1;
                r.op_bytes += bytes as u64;
                r.op_frame_bytes += frame as u64;
            }
            if let Some(m) = kept {
                r.kept.push((op, m));
            }
            if smp {
                let wire_ns = r.wire_ns(bytes);
                let from = r.node;
                r.sends.push(SendSpan {
                    id,
                    op,
                    parent,
                    from,
                    to,
                    kind,
                    start,
                    end,
                    wire_ns,
                });
            }
        });
        res
    }
}

/// Length of the `ring-wire` frame that would carry `msg`.
fn frame_len(msg: &Msg) -> usize {
    let mut buf = FrameBuf::new();
    ring_wire::encode_msg(msg, &mut buf);
    ring_net::frame::FRAME_HEADER_LEN + buf.len()
}

impl<C: Carrier> Drop for Traced<C> {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.get_mut().take() {
            rec.close(clock::now());
            if let Ok(mut sink) = self.sink.lock() {
                sink.push(rec);
            }
        }
    }
}

impl<C: Carrier> Transport<Msg> for Traced<C> {
    fn id(&self) -> NodeId {
        self.inner.carrier_id()
    }

    fn stats(&self) -> &NetStats {
        self.inner.carrier_stats()
    }

    fn send(&self, to: NodeId, msg: Msg) -> Result<(), NetError> {
        self.traced_send(to, msg)
    }

    fn multicast(&self, to: &[NodeId], msg: Msg) -> Result<(), NetError> {
        self.with(|r| {
            if r.is_client && r.on() {
                r.retransmits += 1;
            }
        });
        for &t in to {
            self.traced_send(t, msg.clone())?;
        }
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, Msg), NetError> {
        let enter = clock::now();
        self.with(|r| r.close(enter));
        let res = self.inner.take(timeout);
        let now = clock::now();
        self.with(|r| {
            if r.is_client && r.on() {
                r.blocked_ns += now.saturating_duration_since(enter).as_nanos() as u64;
            }
            if let Ok((_, msg, meta)) = &res {
                r.picked(msg, *meta, now);
            }
        });
        res.map(|(from, msg, _)| (from, msg))
    }

    fn try_recv(&self) -> Result<Option<(NodeId, Msg)>, NetError> {
        let enter = clock::now();
        self.with(|r| r.close(enter));
        let res = self.inner.try_take();
        if let Ok(Some((_, msg, meta))) = &res {
            let now = clock::now();
            self.with(|r| r.picked(msg, *meta, now));
        }
        res.map(|o| o.map(|(from, msg, _)| (from, msg)))
    }

    fn register_region(&self, key: MrKey, region: MemoryRegion) {
        self.inner.register_region(key, region);
    }

    fn deregister_region(&self, key: MrKey) {
        self.inner.deregister_region(key);
    }

    fn local_region(&self, key: MrKey) -> Option<MemoryRegion> {
        self.inner.local_region(key)
    }

    fn rdma_read(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        let t = clock::now();
        let r = self.inner.rdma_read(node, key, offset, len);
        let d = clock::now().saturating_duration_since(t);
        self.with(|rec| {
            if rec.on() {
                rec.rdma_read_time.push(d);
            }
        });
        r
    }

    fn rdma_read_padded(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, NetError> {
        let t = clock::now();
        let r = self.inner.rdma_read_padded(node, key, offset, len);
        let d = clock::now().saturating_duration_since(t);
        self.with(|rec| {
            if rec.on() {
                rec.rdma_read_time.push(d);
            }
        });
        r
    }

    fn rdma_write(
        &self,
        node: NodeId,
        key: MrKey,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), NetError> {
        self.inner.rdma_write(node, key, offset, bytes)
    }
}
