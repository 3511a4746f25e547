//! The load generator: one client thread driving a pipelined
//! [`RingClient`] in a closed loop, plus preload, read-back and the
//! storage scrape every workload shares.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;
use ring_kvs::client::RingClient;
use ring_kvs::proto::{ClientResp, Msg};
use ring_kvs::types::{Key, MemgestId, ReqId};
use ring_kvs::RingError;
use ring_net::{clock, NodeId, Transport};
use ring_workload::ScrambledZipfian;

use crate::oracle::{stamped_value, Oracle};
use crate::report::Samples;
use crate::trace::{op_id, sampled};

/// Operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `get`.
    Get,
    /// `put` (an overwrite: every key is preloaded).
    Put,
    /// `move` between the workload's two memgests.
    Move,
}

/// A workload's key space and op mix.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Keys `0..keys`, all preloaded.
    pub keys: u64,
    /// Value length in bytes.
    pub value_len: usize,
    /// Key `k` is preloaded into `memgests[k % len]`; a move flips a key
    /// between the first two.
    pub memgests: Vec<MemgestId>,
    /// Pipelined client window.
    pub window: usize,
    /// Percent of gets.
    pub get_pct: u32,
    /// Percent of puts (the rest are moves).
    pub put_pct: u32,
}

/// When a closed loop stops issuing.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much time.
    Time(Duration),
    /// After this many operations.
    Ops(u64),
}

/// One slice of a measured phase: a fixed amount of work, summarised on
/// its own. The run's latency figures are medians over slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Operations completed.
    pub ops: u64,
    /// Wall time the slice took.
    pub measured: Duration,
    /// Median get latency in the slice, µs (withheld below 20 gets).
    pub get_p50_us: Option<f64>,
    /// Median put latency in the slice, µs (withheld below 20 puts).
    pub put_p50_us: Option<f64>,
}

impl Slice {
    /// Completed operations per second.
    pub fn ops_per_s(&self) -> Option<f64> {
        (self.measured > Duration::ZERO).then(|| self.ops as f64 / self.measured.as_secs_f64())
    }
}

/// Where a slice starts: the tally's counts before it.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    ops: u64,
    measured: Duration,
    gets: usize,
    puts: usize,
}

/// What the measured phases of a run did.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations completed (with success or failure).
    pub ops: u64,
    /// Operations that failed or timed out.
    pub failed: u64,
    /// Time spent in measured phases.
    pub measured: Duration,
    /// Get latencies.
    pub get: Samples,
    /// Put latencies.
    pub put: Samples,
    /// Move latencies.
    pub mov: Samples,
    /// Sampled operations of a traced run: when the client saw each
    /// complete.
    pub observed: HashMap<u64, (OpKind, Instant)>,
    /// The measured phases cut into slices, in order.
    pub slices: Vec<Slice>,
}

impl Tally {
    /// Marks the start of a slice.
    pub fn mark(&self) -> Mark {
        Mark {
            ops: self.ops,
            measured: self.measured,
            gets: self.get.len(),
            puts: self.put.len(),
        }
    }

    /// Closes the slice begun at `m`: everything tallied since then.
    pub fn close_slice(&mut self, m: Mark) {
        self.slices.push(Slice {
            ops: self.ops - m.ops,
            measured: self.measured - m.measured,
            get_p50_us: self.get.since(m.gets).quantile_us(0.5),
            put_p50_us: self.put.since(m.puts).quantile_us(0.5),
        });
    }

    fn record(&mut self, kind: OpKind, lat: Duration) {
        match kind {
            OpKind::Get => self.get.push(lat),
            OpKind::Put => self.put.push(lat),
            OpKind::Move => self.mov.push(lat),
        }
    }
}

struct Pending {
    kind: OpKind,
    key: Key,
    seq: u64,
    dst: MemgestId,
    at: Instant,
}

/// Applies one completion to the oracle and the tally.
fn complete(
    oracle: &mut Oracle,
    tally: &mut Tally,
    p: Pending,
    res: Result<ClientResp, RingError>,
    now: Instant,
) {
    oracle.set_busy(p.key, false);
    tally.ops += 1;
    let lat = now.saturating_duration_since(p.at);
    match (p.kind, res) {
        (OpKind::Get, Ok(ClientResp::GetOk { value, version })) => {
            oracle.check_get(p.key, value.as_slice(), version);
            tally.record(OpKind::Get, lat);
        }
        (OpKind::Put, Ok(ClientResp::PutOk { version })) => {
            oracle.put_ok(p.key, p.seq, version);
            tally.record(OpKind::Put, lat);
        }
        (OpKind::Move, Ok(ClientResp::MoveOk { version })) => {
            oracle.move_ok(p.key, p.dst, version);
            tally.record(OpKind::Move, lat);
        }
        (kind, _) => {
            tally.failed += 1;
            match kind {
                OpKind::Put => oracle.write_failed(p.key, Some(p.seq)),
                OpKind::Move => oracle.write_failed(p.key, None),
                OpKind::Get => {}
            }
        }
    }
}

/// Keeps the completion time of a sampled operation for the trace.
fn observe(me: NodeId, every: u64, tally: &mut Tally, req: ReqId, kind: OpKind, now: Instant) {
    if every > 0 && sampled(op_id(me, req), every) {
        tally.observed.insert(op_id(me, req), (kind, now));
    }
}

/// Issues one get of each key in `keys`, in order (or, with `put`, one
/// overwrite of each into that memgest), pipelined at `window`: the
/// measured path of `degraded-srs-read` and the read-back. Each key
/// appears once, so no key ever has two operations in flight.
#[allow(clippy::too_many_arguments)]
pub fn sweep<T: Transport<Msg>>(
    client: &mut RingClient<T>,
    oracle: &mut Oracle,
    keys: &[Key],
    put: Option<MemgestId>,
    window: usize,
    tally: &mut Tally,
    trace_every: u64,
) {
    client.set_window(window);
    let me = client.id();
    let mut pending: HashMap<ReqId, Pending> = HashMap::new();
    let start = clock::now();
    let sink = |oracle: &mut Oracle, tally: &mut Tally, req: ReqId, p: Pending, res, now| {
        observe(me, trace_every, tally, req, p.kind, now);
        complete(oracle, tally, p, res, now);
    };
    for &key in keys {
        let mut p = Pending {
            kind: OpKind::Get,
            key,
            seq: 0,
            dst: 0,
            at: clock::now(),
        };
        let res = match put {
            None => client.get_nb(key),
            Some(mid) => {
                p.kind = OpKind::Put;
                p.seq = oracle.next_seq();
                let value = stamped_value(key, p.seq, oracle.value_len());
                client.put_nb(key, &value, Some(mid))
            }
        };
        // As in the closed loop: a wait for a window slot is not the op's.
        p.at = clock::now();
        match res {
            Ok(req) => {
                oracle.set_busy(key, true);
                pending.insert(req, p);
            }
            Err(e) => sink(oracle, tally, 0, p, Err(e), clock::now()),
        }
        for (req, res) in client.poll() {
            if let Some(p) = pending.remove(&req) {
                sink(oracle, tally, req, p, res, clock::now());
            }
        }
    }
    for (req, res) in client.drain() {
        if let Some(p) = pending.remove(&req) {
            sink(oracle, tally, req, p, res, clock::now());
        }
    }
    tally.measured += clock::now().saturating_duration_since(start);
}

/// Runs the closed loop: keeps `shape.window` operations in flight
/// (the client's own window blocks the submit of one more), draws keys
/// from a scrambled Zipfian and skips keys with an operation in flight.
/// With `trace_every > 0` the completion time of each sampled operation
/// is kept for the trace's closure check.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<T: Transport<Msg>>(
    client: &mut RingClient<T>,
    oracle: &mut Oracle,
    shape: &Shape,
    zipf: &ScrambledZipfian,
    rng: &mut SmallRng,
    stop: Stop,
    tally: &mut Tally,
    trace_every: u64,
) {
    client.set_window(shape.window);
    let me = client.id();
    let mut pending: HashMap<ReqId, Pending> = HashMap::new();
    let mut issued = 0u64;
    let start = clock::now();
    let sink = |oracle: &mut Oracle, tally: &mut Tally, req: ReqId, p: Pending, res, now| {
        observe(me, trace_every, tally, req, p.kind, now);
        complete(oracle, tally, p, res, now);
    };
    loop {
        let done = match stop {
            Stop::Time(d) => clock::now().saturating_duration_since(start) >= d,
            Stop::Ops(n) => issued >= n,
        };
        if done {
            break;
        }
        let key = loop {
            let k = zipf.next(rng);
            if !oracle.busy(k) {
                break k;
            }
        };
        let roll = rng.gen_range(0..100u32);
        let mut p = Pending {
            kind: OpKind::Get,
            key,
            seq: 0,
            dst: 0,
            at: clock::now(),
        };
        let res = if roll < shape.get_pct {
            client.get_nb(key)
        } else if roll < shape.get_pct + shape.put_pct {
            p.kind = OpKind::Put;
            p.seq = oracle.next_seq();
            let value = stamped_value(key, p.seq, shape.value_len);
            client.put_nb(key, &value, Some(oracle.memgest(key)))
        } else {
            p.kind = OpKind::Move;
            let (a, b) = (shape.memgests[0], shape.memgests[1]);
            p.dst = if oracle.memgest(key) == a { b } else { a };
            client.move_nb(key, p.dst)
        };
        issued += 1;
        // The request left at the end of the call; a call that waited
        // for a window slot must not charge that wait to this op.
        p.at = clock::now();
        match res {
            Ok(req) => {
                oracle.set_busy(key, true);
                pending.insert(req, p);
            }
            Err(e) => sink(oracle, tally, 0, p, Err(e), clock::now()),
        }
        for (req, res) in client.poll() {
            if let Some(p) = pending.remove(&req) {
                sink(oracle, tally, req, p, res, clock::now());
            }
        }
    }
    for (req, res) in client.drain() {
        if let Some(p) = pending.remove(&req) {
            sink(oracle, tally, req, p, res, clock::now());
        }
    }
    tally.measured += clock::now().saturating_duration_since(start);
}

/// Writes every key once, pipelined at the workload's window.
///
/// # Errors
///
/// A description of the first put that failed.
pub fn preload<T: Transport<Msg>>(
    client: &mut RingClient<T>,
    oracle: &mut Oracle,
    shape: &Shape,
) -> Result<(), String> {
    client.set_window(shape.window);
    let mut pending: HashMap<ReqId, Pending> = HashMap::new();
    let mut tally = Tally::default();
    for key in 0..shape.keys {
        let mid = shape.memgests[(key % shape.memgests.len() as u64) as usize];
        oracle.place(key, mid);
        let seq = oracle.next_seq();
        let req = client
            .put_nb(key, &stamped_value(key, seq, shape.value_len), Some(mid))
            .map_err(|e| format!("preload put {key}: {e}"))?;
        oracle.set_busy(key, true);
        let p = Pending {
            kind: OpKind::Put,
            key,
            seq,
            dst: mid,
            at: clock::now(),
        };
        pending.insert(req, p);
        for (req, res) in client.poll() {
            if let Some(p) = pending.remove(&req) {
                complete(oracle, &mut tally, p, res, clock::now());
            }
        }
    }
    for (req, res) in client.drain() {
        if let Some(p) = pending.remove(&req) {
            complete(oracle, &mut tally, p, res, clock::now());
        }
    }
    if tally.failed > 0 {
        return Err(format!("{} preload puts failed", tally.failed));
    }
    Ok(())
}

/// Reads every key back once, pipelined at `window`, after the
/// measured phase (no write is in flight); each must return its highest
/// acknowledged version. A failed read counts as a wrong one.
pub fn read_back<T: Transport<Msg>>(
    client: &mut RingClient<T>,
    oracle: &mut Oracle,
    window: usize,
) {
    let keys: Vec<Key> = (0..oracle.len()).collect();
    let mut tally = Tally::default();
    sweep(client, oracle, &keys, None, window, &mut tally, 0);
    if tally.failed > 0 {
        oracle.wrong += tally.failed;
        if oracle.first_wrong.is_none() {
            oracle.first_wrong = Some(format!("{} read-back gets failed", tally.failed));
        }
    }
}

/// Storage held by the cluster, summed over the nodes asked.
#[derive(Debug, Clone, Copy, Default)]
pub struct Storage {
    /// Primary data bytes.
    pub data: f64,
    /// Replica and parity bytes.
    pub redundancy: f64,
    /// Coordinator metadata bytes.
    pub meta: f64,
    /// Live user bytes (keys × value length).
    pub user: f64,
    /// Live keys.
    pub keys: f64,
}

impl Storage {
    /// Stored bytes (data + redundancy) per live user byte.
    pub fn per_user_byte(&self) -> f64 {
        (self.data + self.redundancy) / self.user
    }
}

/// Scrapes `node_stats` from each node in `nodes`.
///
/// # Errors
///
/// A description of the first node that did not answer.
pub fn storage<T: Transport<Msg>>(
    client: &mut RingClient<T>,
    nodes: &[NodeId],
    oracle: &Oracle,
) -> Result<Storage, String> {
    let mut s = Storage {
        user: (oracle.len() as usize * oracle.value_len()) as f64,
        keys: oracle.len() as f64,
        ..Storage::default()
    };
    for &n in nodes {
        let st = client
            .node_stats(n)
            .map_err(|e| format!("node_stats({n}): {e}"))?;
        s.data += st.data_bytes() as f64;
        s.redundancy += st.redundancy_bytes() as f64;
        s.meta += st.meta_bytes() as f64;
    }
    Ok(s)
}

/// Peak resident set (VmHWM) of a process in KiB, from `/proc`.
pub fn vm_hwm_kib(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Pids of this process's live children, found by parent pid in `/proc`.
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in dir.flatten() {
        let Some(pid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(e.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid ...`; comm may hold spaces or parens.
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
            continue;
        };
        let ppid = rest
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u32>().ok());
        if ppid == Some(me) {
            out.push(pid);
        }
    }
    out.sort_unstable();
    out
}
