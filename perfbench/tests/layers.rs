//! Pins what the traced numbers mean.
//!
//! - Parity: the traced assembly and `Cluster::start` carry the same
//!   traffic for the same script, so per-layer figures describe the
//!   shipped program.
//! - Exact counts: one put, get and move per scheme on a quiet cluster
//!   sends exactly the hand-derived messages, and the erasure counter
//!   sees exactly the coded bytes.

use std::collections::BTreeMap;
use std::time::Duration;

use perfbench::harness::{Harness, TracedCluster};
use perfbench::oracle::{mix64, stamped_value};
use perfbench::trace::{op_id, Recorder};
use ring_kvs::config::{CLIENT_BASE, LEADER_NODE};
use ring_kvs::{Cluster, ClusterSpec};
use ring_net::{NetStatsSnapshot, NodeId};

const REP1: u32 = 0;
const REP3: u32 = 2;
const SRS32: u32 = 6;

/// The paper cluster with every timer pushed out of reach: no
/// heartbeats, no failure detection, no retries, so traffic is a pure
/// function of the script.
fn quiet() -> ClusterSpec {
    ClusterSpec {
        heartbeat_interval: Duration::from_secs(3600),
        fail_timeout: Duration::from_secs(3600),
        client_timeout: Duration::from_secs(30),
        ..ClusterSpec::paper_evaluation()
    }
}

/// A seeded window-1 script: `(op, key, memgest)` with op 0 = put,
/// 1 = get, 2 = move to `memgest`.
fn script(seed: u64, len: usize) -> Vec<(u8, u64, u32)> {
    let schemes = [REP1, REP3, SRS32];
    let mut out = Vec::new();
    for k in 0..12u64 {
        out.push((0, k, schemes[(k % 3) as usize]));
    }
    let mut s = seed;
    for _ in 0..len {
        s = mix64(s);
        let key = s % 12;
        let op = ((s >> 8) % 3) as u8;
        let m = schemes[((s >> 16) % 3) as usize];
        out.push((op, key, m));
    }
    out
}

fn drive<H: Harness>(h: &H, ops: &[(u8, u64, u32)]) {
    let mut c = h.client();
    let mut where_: BTreeMap<u64, u32> = BTreeMap::new();
    for (i, &(op, key, m)) in ops.iter().enumerate() {
        match op {
            0 => {
                let mid = *where_.get(&key).unwrap_or(&m);
                c.put_to(key, &stamped_value(key, i as u64 + 1, 700), mid)
                    .expect("put");
                where_.insert(key, mid);
            }
            1 => {
                c.get(key).expect("get");
            }
            _ => {
                if where_.get(&key) != Some(&m) {
                    c.move_key(key, m).expect("move");
                    where_.insert(key, m);
                }
            }
        }
    }
}

fn ids() -> Vec<NodeId> {
    (0..5).chain([LEADER_NODE, CLIENT_BASE]).collect()
}

/// Waits until every sent message has been received, then snapshots.
fn settle(stats: impl Fn(NodeId) -> Option<NetStatsSnapshot>) -> Vec<NetStatsSnapshot> {
    for _ in 0..400 {
        let snap: Vec<NetStatsSnapshot> = ids()
            .into_iter()
            .map(|i| stats(i).unwrap_or_default())
            .collect();
        let sent: u64 = snap.iter().map(|s| s.msgs_sent).sum();
        let recv: u64 = snap.iter().map(|s| s.msgs_received).sum();
        if sent == recv {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("traffic never settled");
}

#[test]
fn traced_assembly_carries_the_shipped_traffic() {
    let ops = script(0x5EED, 300);

    let plain = Cluster::start(quiet());
    drive(&plain, &ops);
    let a = settle(|i| plain.fabric().stats_of(i));
    plain.shutdown();

    let traced = TracedCluster::start(quiet(), 1);
    traced.measuring(true);
    drive(&traced, &ops);
    let b = settle(|i| traced.fabric().stats_of(i));
    traced.shutdown();

    for ((id, x), y) in ids().into_iter().zip(&a).zip(&b) {
        assert_eq!(
            (x.msgs_sent, x.bytes_sent, x.msgs_received, x.bytes_received),
            (y.msgs_sent, y.bytes_sent, y.msgs_received, y.bytes_received),
            "node {id}: Cluster::start vs traced assembly"
        );
    }
    assert!(a.iter().map(|s| s.msgs_sent).sum::<u64>() > 600);
}

/// Messages sent on behalf of each operation, by kind, in op order.
fn per_op(recs: &[Recorder]) -> Vec<BTreeMap<&'static str, u64>> {
    let mut by: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for r in recs {
        for s in &r.sends {
            *by.entry(s.op).or_default().entry(s.kind).or_default() += 1;
        }
    }
    by.into_values().collect()
}

fn counts(list: &[(&'static str, u64)]) -> BTreeMap<&'static str, u64> {
    list.iter().copied().collect()
}

#[test]
fn one_op_per_scheme_sends_the_derived_messages() {
    const LEN: usize = 1000;
    let cluster = TracedCluster::start(quiet(), 1);
    let mut c = cluster.client();
    cluster.measuring(true);
    // Key k lives in scheme k: 1 -> REP1, 3 -> REP3, 6 -> SRS32.
    for (key, mid, dst) in [(1u64, REP1, REP3), (3, REP3, REP1), (6, SRS32, REP1)] {
        c.put_to(key, &stamped_value(key, 1, LEN), mid)
            .expect("put");
        assert_eq!(c.get(key).expect("get"), stamped_value(key, 1, LEN));
        c.move_key(key, dst).expect("move");
    }
    // Let REP3's second (post-commit) ack land before stopping.
    std::thread::sleep(Duration::from_millis(50));
    cluster.measuring(false);
    drop(c);
    let recs = cluster.shutdown();

    let ops = per_op(&recs);
    let expected = vec![
        // REP1 put: no redundancy, commits at once.
        counts(&[("Request", 1), ("Response", 1)]),
        // Any get of a present, committed value: one round trip.
        counts(&[("Request", 1), ("Response", 1)]),
        // REP1 -> REP3 move: a REP3 write (two copies, both ack; commit
        // on the first) then pruning the REP1 version, which has no
        // redundancy to notify.
        counts(&[
            ("Request", 1),
            ("Replicate", 2),
            ("ReplicateAck", 2),
            ("Response", 1),
        ]),
        // REP3 put: two copies, both ack, commit after one.
        counts(&[
            ("Request", 1),
            ("Replicate", 2),
            ("ReplicateAck", 2),
            ("Response", 1),
        ]),
        counts(&[("Request", 1), ("Response", 1)]),
        // REP3 -> REP1 move: REP1 commits at once; pruning the REP3
        // version tells both replicas.
        counts(&[("Request", 1), ("Response", 1), ("MetaRemove", 2)]),
        // SRS(3,2) put: one delta per parity node, both must ack.
        counts(&[
            ("Request", 1),
            ("ParityUpdate", 2),
            ("ParityAck", 2),
            ("Response", 1),
        ]),
        counts(&[("Request", 1), ("Response", 1)]),
        // SRS(3,2) -> REP1 move: pruning tells both parity nodes.
        counts(&[("Request", 1), ("Response", 1), ("MetaRemove", 2)]),
    ];
    let labels: Vec<BTreeMap<&'static str, u64>> = ops
        .into_iter()
        .map(|m| {
            let mut out = BTreeMap::new();
            for (k, v) in m {
                let k = if k.starts_with("Request.") {
                    "Request"
                } else {
                    k
                };
                *out.entry(k).or_default() += v;
            }
            out
        })
        .collect();
    assert_eq!(labels, expected);

    // Every op id is the client's request id, in order.
    let client = CLIENT_BASE;
    let mut op_ids: Vec<u64> = recs
        .iter()
        .flat_map(|r| r.sends.iter().map(|s| s.op))
        .collect();
    op_ids.sort_unstable();
    op_ids.dedup();
    assert_eq!(
        op_ids,
        (1..=9).map(|r| op_id(client, r)).collect::<Vec<_>>()
    );

    // The only coded bytes: the SRS put's delta, once per parity node.
    let coded: u64 = recs.iter().map(|r| r.coded_bytes).sum();
    assert_eq!(coded, 2 * LEN as u64);
    // Exact traffic counters agree with the spans.
    let sent: u64 = recs.iter().flat_map(|r| r.op_sends.values()).sum();
    assert_eq!(sent, 2 + 2 + 6 + 6 + 2 + 4 + 6 + 2 + 4);
}
