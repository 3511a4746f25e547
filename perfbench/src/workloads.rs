//! The four workloads and how a run is split into rounds and slices.
//!
//! A round boots a fresh cluster, preloads it (together: the set-up),
//! runs a measured phase, scrapes storage and reads every key back. The
//! measured phase is cut into slices of a fixed amount of work. An
//! untraced run makes at least [`MIN_ROUNDS`] rounds and goes on until
//! `--seconds` of measured time, so set-up is timed that often or more.
//! A traced run makes one untraced round and one traced round of the
//! same size; the pair gives the tracing overhead.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ring_chaos::{StragglerProfile, StragglerSpec};
use ring_kvs::proto::Msg;
use ring_kvs::{Cluster, ClusterSpec};
use ring_net::{clock, FaultInjector, Transport};
use ring_server::harness::{LoopbackCluster, LoopbackSpec};
use ring_workload::ScrambledZipfian;

use crate::harness::{Harness, TracedCluster, TracedTcp};
use crate::load::{
    child_pids, closed_loop, preload, read_back, storage, sweep, vm_hwm_kib, Shape, Stop, Storage,
    Tally,
};
use crate::oracle::{mix64, Oracle};
use crate::trace::{Gate, Recorder, Sink};

/// Memgest ids of [`ClusterSpec::paper_evaluation`].
const REP1: u32 = 0;
const REP3: u32 = 2;
const SRS32: u32 = 6;
/// Memgest ids of [`LoopbackSpec::default`].
const TCP_REP2: u32 = 0;
const TCP_SRS21: u32 = 1;

/// Operations per `srs-update-4k` round: fixed, so the storage counts
/// of a seed repeat exactly, and small enough that the never-freed SRS
/// heap (about 8 KiB retained per 4 KiB put) stays a few hundred MiB.
pub const SRS_ROUND_OPS: u64 = 20_000;
/// Operations per `tcp-mixed` round: fixed for the same reason (its
/// SRS(2,1) keys keep every overwritten version too).
pub const TCP_ROUND_OPS: u64 = 60_000;
/// Keys preloaded per `degraded-srs-read` round; about a third are
/// coordinated by the node that is killed.
pub const DEGRADED_KEYS: u64 = 9_000;
/// Victims per `degraded-srs-read` slice: their first gets, then one
/// overwrite of each.
pub const DEGRADED_SLICE_KEYS: usize = 500;
/// Rounds at least, so set-up is timed at least this often.
pub const MIN_ROUNDS: usize = 5;
/// Slices per round of the closed-loop workloads.
pub const SLICES_PER_ROUND: usize = 4;
/// `hot-read-rep` slices per `--seconds` of budget: its slices are
/// time-bounded, so a run makes exactly [`MIN_ROUNDS`] rounds.
const HOT_SLICES_PER_RUN: u32 = (MIN_ROUNDS * SLICES_PER_ROUND) as u32;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Replicated small values, read-mostly, with moves.
    HotReadRep,
    /// SRS(3,2) overwrites of 4 KiB values.
    SrsUpdate4k,
    /// First reads of a killed coordinator's keys through the spare.
    DegradedSrsRead,
    /// `ring-server` processes over loopback TCP.
    TcpMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HotReadRep,
        Workload::SrsUpdate4k,
        Workload::DegradedSrsRead,
        Workload::TcpMixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReadRep => "hot-read-rep",
            Workload::SrsUpdate4k => "srs-update-4k",
            Workload::DegradedSrsRead => "degraded-srs-read",
            Workload::TcpMixed => "tcp-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Key space and op mix.
    pub fn shape(self) -> Shape {
        match self {
            Workload::HotReadRep => Shape {
                keys: 20_000,
                value_len: 128,
                memgests: vec![REP1, REP3],
                window: 16,
                get_pct: 94,
                put_pct: 5,
            },
            Workload::SrsUpdate4k => Shape {
                keys: 5_000,
                value_len: 4096,
                memgests: vec![SRS32],
                window: 16,
                get_pct: 10,
                put_pct: 90,
            },
            Workload::DegradedSrsRead => Shape {
                keys: DEGRADED_KEYS,
                value_len: 1024,
                memgests: vec![SRS32],
                window: 16,
                get_pct: 100,
                put_pct: 0,
            },
            Workload::TcpMixed => Shape {
                keys: 20_000,
                value_len: 1024,
                memgests: vec![TCP_REP2, TCP_SRS21],
                window: 8,
                get_pct: 50,
                put_pct: 50,
            },
        }
    }

    /// The simulated cluster of a sim workload.
    pub fn spec(self, seed: u64) -> ClusterSpec {
        match self {
            Workload::DegradedSrsRead => ClusterSpec {
                spares: 1,
                // A straggled decode is latency, not a reason to retry.
                client_timeout: Duration::from_secs(2),
                // The loopback harness's failure timeout, not the sim's
                // 50 ms: on a shared host a node thread can sit
                // descheduled past 50 ms, the leader then declares a
                // live node dead, and once that has used up the spare
                // the killed coordinator is never replaced.
                fail_timeout: LoopbackSpec::default().fail_timeout,
                seed,
                ..ClusterSpec::paper_evaluation()
            },
            _ => ClusterSpec {
                seed,
                ..ClusterSpec::paper_evaluation()
            },
        }
    }

    /// When a closed-loop slice ends. `degraded-srs-read` cuts its
    /// victims into slices of [`DEGRADED_SLICE_KEYS`] instead.
    pub fn slice_stop(self, budget: Duration) -> Stop {
        match self {
            Workload::HotReadRep => Stop::Time(budget / HOT_SLICES_PER_RUN),
            Workload::SrsUpdate4k => Stop::Ops(SRS_ROUND_OPS / SLICES_PER_ROUND as u64),
            Workload::TcpMixed => Stop::Ops(TCP_ROUND_OPS / SLICES_PER_ROUND as u64),
            Workload::DegradedSrsRead => Stop::Ops(0),
        }
    }

    /// Spans of one operation in this many are kept by a traced round.
    pub fn sample_every(self) -> u64 {
        match self {
            Workload::HotReadRep => 16,
            Workload::SrsUpdate4k => 4,
            Workload::DegradedSrsRead => 1,
            Workload::TcpMixed => 8,
        }
    }
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Boot + preload.
    pub setup: Duration,
    /// Measured-phase tally.
    pub tally: Tally,
    /// Storage after the measured phase.
    pub storage: Storage,
    /// Kill → first successful get through the promoted spare.
    pub failover: Option<Duration>,
    /// Peak RSS of the cluster's processes, KiB.
    pub rss_kib: u64,
    /// Wrong reads.
    pub wrong: u64,
    /// The first wrong read.
    pub first_wrong: Option<String>,
}

/// The body of a round on a booted cluster.
fn round_on<H: Harness>(
    h: &H,
    wl: Workload,
    seed: u64,
    round: u64,
    boot_started: Instant,
    stop: Stop,
    trace_every: u64,
) -> Result<Round, String> {
    let shape = wl.shape();
    let mut client = h.client();
    let mut oracle = Oracle::new(shape.keys, shape.value_len);
    preload(&mut client, &mut oracle, &shape)?;
    let mut out = Round {
        setup: boot_started.elapsed(),
        ..Round::default()
    };
    let mut rng = SmallRng::seed_from_u64(mix64(seed ^ mix64(round)));
    let mut live = h.servers();
    if wl == Workload::DegradedSrsRead {
        degraded_phases(
            h,
            &mut client,
            &mut oracle,
            seed ^ round,
            &mut out,
            trace_every,
        )?;
        live.retain(|&n| n != 0);
    } else {
        let zipf = ScrambledZipfian::new(shape.keys);
        h.measuring(true);
        for _ in 0..SLICES_PER_ROUND {
            let m = out.tally.mark();
            closed_loop(
                &mut client,
                &mut oracle,
                &shape,
                &zipf,
                &mut rng,
                stop,
                &mut out.tally,
                trace_every,
            );
            out.tally.close_slice(m);
        }
        h.measuring(false);
    }
    out.storage = storage(&mut client, &live, &oracle)?;
    read_back(&mut client, &mut oracle, shape.window);
    out.wrong = oracle.wrong;
    out.first_wrong = oracle.first_wrong.take();
    Ok(out)
}

/// `degraded-srs-read` after preload: kill coordinator 0 and wait for
/// the spare's promotion; then, a slice at a time, pin a straggler on
/// parity node 3 and time the first get of each of the slice's victim
/// keys, lift the straggler and overwrite each of them once through the
/// promoted coordinator, both pipelined at the workload's window.
fn degraded_phases<H: Harness, T: Transport<Msg>>(
    h: &H,
    client: &mut ring_kvs::RingClient<T>,
    oracle: &mut Oracle,
    seed: u64,
    out: &mut Round,
    trace_every: u64,
) -> Result<(), String> {
    let config = client.config().clone();
    let mut victims: Vec<u64> = (0..oracle.len())
        .filter(|&k| config.coordinator_of_key(k) == 0)
        .collect();
    let probe = victims.remove(0);
    let timeout = Workload::DegradedSrsRead.spec(0).client_timeout;

    // Failover: short attempts so the probe notices the promotion
    // within milliseconds, not one client timeout later.
    client.set_timeout(Duration::from_millis(5));
    let killed = clock::now();
    h.kill(0);
    loop {
        match client.get_versioned(probe) {
            Ok((bytes, version)) => {
                oracle.check_get(probe, &bytes, version);
                break;
            }
            Err(e) if killed.elapsed() > Duration::from_secs(30) => {
                return Err(format!("promotion never completed: {e}"));
            }
            Err(_) => {}
        }
    }
    out.failover = Some(killed.elapsed());
    client.set_timeout(timeout);

    // Same tail set-up as the repository's bench: parity 3 straggles.
    let straggle = StragglerSpec {
        slow_nodes: 1,
        slow_prob: 0.4,
        min_extra: Duration::from_millis(2),
        max_extra: Duration::from_millis(8),
    };
    let prof: Arc<dyn FaultInjector> = Arc::new(StragglerProfile::pinned(
        mix64(seed),
        straggle,
        BTreeSet::from([3u32]),
        None,
    ));
    let window = Workload::DegradedSrsRead.shape().window;
    let t = &mut out.tally;
    for keys in victims.chunks(DEGRADED_SLICE_KEYS) {
        let m = t.mark();
        h.faults(Some(prof.clone()));
        h.measuring(true);
        sweep(client, oracle, keys, None, window, t, trace_every);
        h.measuring(false);
        h.faults(None);
        h.measuring(true);
        sweep(client, oracle, keys, Some(SRS32), window, t, trace_every);
        h.measuring(false);
        t.close_slice(m);
    }
    Ok(())
}

/// One untraced round on the shipped harness.
fn plain_round(wl: Workload, seed: u64, round: u64, stop: Stop) -> Result<Round, String> {
    let t0 = clock::now();
    if wl == Workload::TcpMixed {
        let cluster =
            LoopbackCluster::start(LoopbackSpec::default()).map_err(|e| format!("boot: {e}"))?;
        let mut r = round_on(&cluster, wl, seed, round, t0, stop, 0)?;
        r.rss_kib = cluster_rss_kib();
        cluster.shutdown();
        return Ok(r);
    }
    let cluster = Cluster::start(wl.spec(seed));
    let mut r = round_on(&cluster, wl, seed, round, t0, stop, 0)?;
    cluster.shutdown();
    r.rss_kib = vm_hwm_kib(None).unwrap_or(0);
    Ok(r)
}

/// Peak RSS of this process plus its live children (the server
/// processes of a loopback cluster), KiB.
fn cluster_rss_kib() -> u64 {
    let own = vm_hwm_kib(None).unwrap_or(0);
    own + child_pids()
        .into_iter()
        .filter_map(|p| vm_hwm_kib(Some(p)))
        .sum::<u64>()
}

/// One traced round: the round plus every endpoint's recorder.
fn traced_round(
    wl: Workload,
    seed: u64,
    round: u64,
    stop: Stop,
) -> Result<(Round, Vec<Recorder>), String> {
    let t0 = clock::now();
    let every = wl.sample_every();
    if wl == Workload::TcpMixed {
        let cluster =
            LoopbackCluster::start(LoopbackSpec::default()).map_err(|e| format!("boot: {e}"))?;
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let gate: Gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let h = TracedTcp {
            cluster: &cluster,
            sample_every: every,
            sink: sink.clone(),
            gate,
        };
        let mut r = round_on(&h, wl, seed, round, t0, stop, every)?;
        r.rss_kib = cluster_rss_kib();
        cluster.shutdown();
        let recs = std::mem::take(&mut *sink.lock().expect("recorder sink"));
        return Ok((r, recs));
    }
    let cluster = TracedCluster::start(wl.spec(seed), every);
    let r = round_on(&cluster, wl, seed, round, t0, stop, every)?;
    let recs = cluster.shutdown();
    Ok((r, recs))
}

/// All rounds of a run.
#[derive(Debug, Default)]
pub struct Run {
    /// Untraced rounds.
    pub rounds: Vec<Round>,
    /// The traced round and its recorders (traced runs only).
    pub traced: Option<(Round, Vec<Recorder>)>,
}

/// Runs `wl` for about `seconds` of measured time.
///
/// # Errors
///
/// Set-up failures (boot, preload, promotion) as text.
pub fn run(wl: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let budget = Duration::from_secs(seconds.max(1));
    let stop = wl.slice_stop(budget);
    let mut out = Run::default();
    if trace {
        out.rounds.push(plain_round(wl, seed, 0, stop)?);
        out.traced = Some(traced_round(wl, seed, 1, stop)?);
        return Ok(out);
    }
    let mut measured = Duration::ZERO;
    while out.rounds.len() < MIN_ROUNDS || measured < budget.mul_f64(0.98) {
        let r = plain_round(wl, seed, out.rounds.len() as u64, stop)?;
        measured += r.tally.measured;
        out.rounds.push(r);
    }
    Ok(out)
}
