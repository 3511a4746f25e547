//! Turns the recorders of a traced run into the per-layer metrics.
//!
//! Counts are exact sums over every endpoint. Times come from two
//! sources: aggregates over every message (handler self time per kind,
//! mailbox wait, send time) and the critical path of each sampled
//! operation. The path is walked backwards from the client's pickup of
//! the response: each message's send span names the handler that
//! issued it, and each handler names the send that delivered its
//! message, back to the client's request. Along the path
//! `send + wire + wait + handler` telescopes to the pickup time minus
//! the request's send time, so whatever the client measured beyond that
//! is `trace.unaccounted_us`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use ring_gf::Gf256;
use ring_kvs::proto::Msg;
use ring_kvs::LEADER_NODE;
use ring_net::clock;

use crate::load::{OpKind, Storage, Tally};
use crate::report::{Report, Samples};
use crate::trace::{HandlerSpan, Recorder, SendSpan};

/// Per-operation-kind critical-path components.
#[derive(Default)]
struct Path {
    total: Samples,
    send: Samples,
    wire: Samples,
    wait: Samples,
    handler: Samples,
    remote: Samples,
    residence: Samples,
    unaccounted: Samples,
    unclosed: u64,
}

fn ns(a: Instant, b: Instant) -> i64 {
    if b >= a {
        b.duration_since(a).as_nanos() as i64
    } else {
        -(a.duration_since(b).as_nanos() as i64)
    }
}

fn push(s: &mut Samples, v: i64) {
    s.push_ns(v.max(0) as u64);
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Repeats `f` until at least 20 ms have passed; returns the mean
/// nanoseconds per call.
fn timed(mut f: impl FnMut()) -> f64 {
    let start = clock::now();
    let mut reps = 0u64;
    loop {
        f();
        reps += 1;
        let el = clock::now().saturating_duration_since(start);
        if el.as_millis() >= 20 {
            return el.as_nanos() as f64 / reps as f64;
        }
    }
}

/// The per-layer metrics of a traced run, plus human-readable
/// breakdown lines. `untraced_rate` is the ops/s of the same workload
/// measured untraced in the same invocation.
pub fn per_layer(
    recs: &[Recorder],
    tally: &Tally,
    storage: &Storage,
    untraced_rate: f64,
) -> (Report, Vec<String>) {
    let mut r = Report::default();
    let mut lines = Vec::new();
    let wall = tally.measured.as_nanos() as f64;
    let ops = tally.ops as f64;
    let gets = tally.get.len() as f64;
    let puts = tally.put.len() as f64;
    let clients: Vec<&Recorder> = recs.iter().filter(|x| x.is_client).collect();
    let servers: Vec<&Recorder> = recs
        .iter()
        .filter(|x| !x.is_client && x.node != LEADER_NODE)
        .collect();

    // ---- client ----
    let blocked: u64 = clients.iter().map(|c| c.blocked_ns).sum();
    r.add(
        "client.window_wait_frac",
        "ratio",
        ratio(blocked as f64, wall),
        tally.ops,
    );
    let retx: u64 = clients.iter().map(|c| c.retransmits).sum();
    r.add(
        "client.retransmits_per_kop",
        "count",
        ratio(retx as f64 * 1000.0, ops),
        retx,
    );

    // ---- net ----
    let msgs: u64 = recs.iter().flat_map(|x| x.op_sends.values()).sum();
    let bytes: u64 = recs.iter().map(|x| x.op_bytes).sum();
    r.add("net.msgs_per_op", "count", ratio(msgs as f64, ops), msgs);
    r.add("net.bytes_per_op", "B", ratio(bytes as f64, ops), msgs);

    let mut p = critical_paths(recs, tally);
    r.quantile("net.wire_model_us.put", &mut p[1].wire, 0.5);
    r.quantile("net.wire_model_us.get", &mut p[0].wire, 0.5);
    let mut wait = Samples::default();
    let mut send = Samples::default();
    let mut rdma = Samples::default();
    for x in recs {
        wait.extend(&x.mailbox_wait);
        send.extend(&x.send_time);
        rdma.extend(&x.rdma_read_time);
    }
    r.quantile("net.mailbox_wait_us.p50", &mut wait, 0.5);
    r.quantile("net.mailbox_wait_us.p99", &mut wait, 0.99);
    r.quantile("net.send_us.p50", &mut send, 0.5);

    // ---- node ----
    for kind in [
        "Request.Get",
        "Request.Put",
        "Request.Move",
        "Replicate",
        "ReplicateAck",
        "ParityUpdate",
        "ParityAck",
        "ShardRead",
        "ShardReadResp",
    ] {
        let mut s = Samples::default();
        for x in &servers {
            if let Some(h) = x.handle.get(kind) {
                s.extend(h);
            }
        }
        r.quantile(&format!("node.handle_us.{kind}"), &mut s, 0.5);
    }
    let busiest = servers
        .iter()
        .map(|x| (x.busy_ns as f64 / wall, x.node))
        .fold((0.0, 0), |a, b| if b.0 > a.0 { b } else { a });
    r.add(
        "node.busy_frac.max",
        "ratio",
        (!servers.is_empty() && wall > 0.0).then_some(busiest.0),
        servers.len() as u64,
    );
    if !servers.is_empty() {
        lines.push(format!(
            "busiest node: {} ({:.3} busy)",
            busiest.1, busiest.0
        ));
    }
    r.quantile("node.residence_us.put", &mut p[1].residence, 0.5);
    r.quantile("node.residence_us.get", &mut p[0].residence, 0.5);
    let mut fanout = fanouts(recs);
    r.quantile("node.fanout_us.p50", &mut fanout, 0.5);

    // ---- erasure / gf ----
    let coded: u64 = recs.iter().map(|x| x.coded_bytes).sum();
    r.add(
        "erasure.coded_bytes_per_put",
        "B",
        ratio(coded as f64, puts),
        tally.put.len() as u64,
    );
    let (per_put, gbps, nseg) = gf_replay(recs);
    r.add("gf.replay_us_per_put", "us", per_put, nseg);
    r.add("gf.mul_into_gbps", "GB/s", gbps, nseg);

    // ---- storage ----
    r.add(
        "storage.data_bytes_per_user_byte",
        "ratio",
        ratio(storage.data, storage.user),
        storage.keys as u64,
    );
    r.add(
        "storage.redundancy_bytes_per_user_byte",
        "ratio",
        ratio(storage.redundancy, storage.user),
        storage.keys as u64,
    );
    r.add(
        "storage.meta_bytes_per_key",
        "B",
        ratio(storage.meta, storage.keys),
        storage.keys as u64,
    );

    // ---- recovery ----
    let sent = |kind: &str| -> u64 {
        recs.iter()
            .map(|x| x.op_sends.get(kind).copied().unwrap_or(0))
            .sum()
    };
    let shard_reads = sent("ShardRead");
    r.add(
        "recovery.shard_reads_per_get",
        "count",
        ratio(shard_reads as f64, gets),
        shard_reads,
    );
    let (wasted, resps) = shard_waste(recs);
    r.add(
        "recovery.shard_wasted_frac",
        "ratio",
        ratio(wasted as f64, resps as f64),
        resps,
    );
    let rb = sent("RecoverBlock");
    r.add(
        "recovery.recover_block_per_get",
        "count",
        ratio(rb as f64, gets),
        rb,
    );
    r.add(
        "recovery.rdma_reads_per_get",
        "count",
        ratio(rdma.len() as f64, gets),
        rdma.len() as u64,
    );
    r.quantile("recovery.rdma_read_us.p50", &mut rdma, 0.5);

    // ---- wire ----
    let (enc, dec, nmsg) = wire_replay(recs);
    r.add("wire.encode_ns_per_msg", "ns", enc, nmsg);
    r.add("wire.decode_ns_per_msg", "ns", dec, nmsg);
    let frames: u64 = recs.iter().map(|x| x.op_frame_bytes).sum();
    r.add(
        "wire.frame_bytes_per_op",
        "B",
        ratio(frames as f64, ops),
        msgs,
    );

    // ---- trace ----
    r.quantile("trace.unaccounted_us.put", &mut p[1].unaccounted, 0.5);
    r.quantile("trace.unaccounted_us.get", &mut p[0].unaccounted, 0.5);
    let traced_rate = ratio(ops, wall / 1e9).unwrap_or(0.0);
    r.add(
        "trace.overhead_frac",
        "ratio",
        (untraced_rate > 0.0).then(|| 1.0 - traced_rate / untraced_rate),
        tally.ops,
    );

    for (label, path) in ["get", "put", "move"].iter().zip(p.iter_mut()) {
        if path.total.is_empty() {
            continue;
        }
        let mut l = format!("critical path p50 us, {label} (n={}):", path.total.len());
        for (name, s) in [
            ("total", &mut path.total),
            ("send", &mut path.send),
            ("wire", &mut path.wire),
            ("mailbox_wait", &mut path.wait),
            ("handler", &mut path.handler),
            ("remote", &mut path.remote),
            ("unaccounted", &mut path.unaccounted),
        ] {
            if let Some(v) = s.quantile_us(0.5) {
                let _ = write!(l, " {name}={v:.2}");
            }
        }
        let _ = write!(l, " unclosed={}", path.unclosed);
        lines.push(l);
    }
    (r, lines)
}

/// Critical-path components per op kind: `[get, put, move]`.
fn critical_paths(recs: &[Recorder], tally: &Tally) -> [Path; 3] {
    let mut sends: HashMap<u64, &SendSpan> = HashMap::new();
    let mut handlers: HashMap<u64, &HandlerSpan> = HashMap::new();
    let mut first_req: HashMap<u64, &SendSpan> = HashMap::new();
    let mut pick: HashMap<u64, &HandlerSpan> = HashMap::new();
    for x in recs {
        for s in &x.sends {
            sends.insert(s.id, s);
            if x.is_client && s.kind.starts_with("Request") {
                let e = first_req.entry(s.op).or_insert(s);
                if s.start < e.start {
                    *e = s;
                }
            }
        }
        for h in &x.handlers {
            handlers.insert(h.id, h);
            if x.is_client && h.kind == "Response" {
                let e = pick.entry(h.op).or_insert(h);
                if h.start < e.start {
                    *e = h;
                }
            }
        }
    }
    let mut out: [Path; 3] = Default::default();
    for (op, &(kind, observed)) in &tally.observed {
        let idx = match kind {
            OpKind::Get => 0,
            OpKind::Put => 1,
            OpKind::Move => 2,
        };
        let path = &mut out[idx];
        let (Some(first), Some(end)) = (first_req.get(op), pick.get(op)) else {
            path.unclosed += 1;
            continue;
        };
        let latency = ns(first.start, observed);
        let (mut send, mut wire, mut wait, mut handler, mut remote) =
            (0i64, 0i64, 0i64, 0i64, 0i64);
        let mut closed = false;
        if let Some(&resp) = sends.get(&end.cause) {
            let mut cur = resp;
            let mut next_pick = end.start;
            let mut coord: Option<&HandlerSpan> = None;
            loop {
                send += ns(cur.start, cur.end);
                wire += cur.wire_ns as i64;
                wait += ns(cur.end, next_pick) - cur.wire_ns as i64;
                if cur.parent == 0 {
                    closed = recs.iter().any(|x| x.is_client && x.node == cur.from);
                    break;
                }
                let Some(&h) = handlers.get(&cur.parent) else {
                    break;
                };
                handler += ns(h.start, cur.start);
                next_pick = h.start;
                coord = Some(h);
                let Some(&s) = sends.get(&h.cause) else { break };
                cur = s;
            }
            if let Some(c) = coord.filter(|_| closed) {
                push(&mut path.residence, ns(c.start, resp.start));
            }
        } else {
            // No context crossed the wire (TCP): the server side is one
            // unsplit span between the request send and the pickup.
            send = ns(first.start, first.end);
            remote = ns(first.end, end.start);
            push(&mut path.remote, remote);
            closed = true;
        }
        if !closed {
            path.unclosed += 1;
            continue;
        }
        push(&mut path.total, latency);
        push(&mut path.send, send);
        push(&mut path.wire, wire);
        push(&mut path.wait, wait);
        push(&mut path.handler, handler);
        push(
            &mut path.unaccounted,
            latency - (send + wire + wait + handler + remote),
        );
    }
    out
}

/// Redundancy fan-out of sampled writes: the coordinator's first
/// `Replicate`/`ParityUpdate` send to the pickup of the ack whose
/// handler sent the response (the last ack the commit needed).
fn fanouts(recs: &[Recorder]) -> Samples {
    let mut first_red: HashMap<u64, Instant> = HashMap::new();
    let mut sends_by_id: HashMap<u64, &SendSpan> = HashMap::new();
    for x in recs {
        for s in &x.sends {
            sends_by_id.insert(s.id, s);
            if s.kind == "Replicate" || s.kind == "ParityUpdate" {
                let e = first_red.entry(s.parent).or_insert(s.start);
                if s.start < *e {
                    *e = s.start;
                }
            }
        }
    }
    let handlers: HashMap<u64, &HandlerSpan> = recs
        .iter()
        .flat_map(|x| x.handlers.iter())
        .map(|h| (h.id, h))
        .collect();
    let mut out = Samples::default();
    for x in recs {
        for s in x.sends.iter().filter(|s| s.kind == "Response") {
            // The handler that answered: an ack pickup at the coordinator.
            let Some(ack) = handlers.get(&s.parent) else {
                continue;
            };
            if ack.kind != "ReplicateAck" && ack.kind != "ParityAck" {
                continue;
            }
            // Walk back to the coordinator's request handler.
            let mut cur = ack.cause;
            let mut req_handler = None;
            for _ in 0..8 {
                let Some(sp) = sends_by_id.get(&cur) else {
                    break;
                };
                let Some(h) = handlers.get(&sp.parent) else {
                    break;
                };
                if h.kind.starts_with("Request") {
                    req_handler = Some(h.id);
                    break;
                }
                cur = h.cause;
            }
            if let Some(t0) = req_handler.and_then(|id| first_red.get(&id)) {
                out.push(ack.start.saturating_duration_since(*t0));
            }
        }
    }
    out
}

/// Sampled `ShardReadResp` pickups that arrived after their get had
/// been answered, and all sampled `ShardReadResp` pickups.
fn shard_waste(recs: &[Recorder]) -> (u64, u64) {
    let mut answered: HashMap<u64, Instant> = HashMap::new();
    for x in recs.iter().filter(|x| !x.is_client) {
        for s in x.sends.iter().filter(|s| s.kind == "Response") {
            let e = answered.entry(s.op).or_insert(s.start);
            if s.start < *e {
                *e = s.start;
            }
        }
    }
    let (mut wasted, mut total) = (0, 0);
    for x in recs {
        for h in x.handlers.iter().filter(|h| h.kind == "ShardReadResp") {
            total += 1;
            if answered.get(&h.op).is_some_and(|&t| h.start > t) {
                wasted += 1;
            }
        }
    }
    (wasted, total)
}

/// Replays the kept `ParityUpdate` segments through
/// `ring_gf::region::mul_into` (a non-unit coefficient, so every byte is
/// multiplied): µs per put and GB/s.
fn gf_replay(recs: &[Recorder]) -> (Option<f64>, Option<f64>, u64) {
    let mut segs: Vec<&[u8]> = Vec::new();
    let mut ops: Vec<u64> = Vec::new();
    for x in recs {
        for (op, m) in &x.kept {
            if let Msg::ParityUpdate { segs: ss, .. } = m {
                ops.push(*op);
                segs.extend(ss.iter().map(|s| s.delta.as_slice()));
            }
        }
    }
    ops.sort_unstable();
    ops.dedup();
    let bytes: usize = segs.iter().map(|s| s.len()).sum();
    if bytes == 0 {
        return (None, None, 0);
    }
    let mut dst = vec![0u8; segs.iter().map(|s| s.len()).max().unwrap_or(0)];
    let per_pass = timed(|| {
        for s in &segs {
            ring_gf::region::mul_into(&mut dst[..s.len()], s, Gf256(0x8e));
        }
        std::hint::black_box(&dst);
    });
    (
        Some(per_pass / ops.len() as f64 / 1e3),
        Some(bytes as f64 / per_pass),
        segs.len() as u64,
    )
}

/// Replays the kept messages through `encode_frame` and `decode_frame`:
/// ns per message each way.
fn wire_replay(recs: &[Recorder]) -> (Option<f64>, Option<f64>, u64) {
    let msgs: Vec<&Msg> = recs
        .iter()
        .flat_map(|x| x.kept.iter().map(|(_, m)| m))
        .collect();
    if msgs.is_empty() {
        return (None, None, 0);
    }
    let frames: Vec<Vec<u8>> = msgs.iter().map(|m| ring_wire::encode_frame(m)).collect();
    let n = msgs.len() as f64;
    let enc = timed(|| {
        for m in &msgs {
            std::hint::black_box(ring_wire::encode_frame(m));
        }
    });
    let dec = timed(|| {
        for f in &frames {
            std::hint::black_box(ring_wire::decode_frame(f).expect("own frames decode"));
        }
    });
    (Some(enc / n), Some(dec / n), msgs.len() as u64)
}

/// Writes every kept span as tab-separated text.
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_spans(path: &std::path::Path, recs: &[Recorder]) -> std::io::Result<usize> {
    let epoch = recs.iter().map(|x| x.born).min().unwrap_or_else(clock::now);
    let rel = |t: Instant| t.saturating_duration_since(epoch).as_nanos();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "span\tid\top\tparent_or_cause\tnode\tto\tkind\tstart_ns\tend_ns\twire_ns"
    )?;
    let mut n = 0;
    for x in recs {
        for s in &x.sends {
            writeln!(
                w,
                "send\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.op,
                s.parent,
                s.from,
                s.to,
                s.kind,
                rel(s.start),
                rel(s.end),
                s.wire_ns
            )?;
            n += 1;
        }
        for h in &x.handlers {
            writeln!(
                w,
                "handle\t{}\t{}\t{}\t{}\t-\t{}\t{}\t{}\t0",
                h.id,
                h.op,
                h.cause,
                h.node,
                h.kind,
                rel(h.start),
                rel(h.end)
            )?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}
