//! Degraded-read fast path: committed gets are answered by on-demand
//! speculative `k + Δ` decode from surviving shards while recovery is
//! still in progress — the read path never waits for a parity rebuild
//! or spare promotion to finish.

use std::time::{Duration, Instant};

use ring_kvs::{Cluster, ClusterSpec, RingError};
use ring_net::LatencyModel;

fn spec_with_spares(spares: usize) -> ClusterSpec {
    ClusterSpec {
        latency: LatencyModel::instant(),
        spares,
        fail_timeout: Duration::from_millis(150),
        ..ClusterSpec::paper_evaluation()
    }
}

/// Retries a get until it succeeds or the deadline passes.
fn get_eventually(
    client: &mut ring_kvs::RingClient,
    key: u64,
    deadline: Duration,
) -> Result<Vec<u8>, RingError> {
    let end = Instant::now() + deadline;
    loop {
        match client.get(key) {
            Ok(v) => return Ok(v),
            Err(e) if Instant::now() >= end => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The acceptance-criteria scenario: a committed GET is answered during
/// an in-progress (and here: deliberately wedged) parity rebuild via
/// degraded decode, without waiting for the rebuild to complete.
///
/// Sequence: SRS(3,2) over nodes 0..=4 with spares 5 and 6. Kill
/// coordinator 0 → spare 5 is promoted with metadata-only holes. Cut
/// the link between spare 6 and coordinator 1, then kill parity node 3
/// → spare 6 is promoted as parity but its rebuild handshake with
/// coordinator 1 can never complete, so the rebuild stays in progress
/// for the remainder of the test. Every victim get must still succeed:
/// the promoted coordinator decodes on demand from the surviving rows
/// (data peers 1 and 2 plus parity node 4), with the rebuilding parity
/// declining its shard-read.
#[test]
fn committed_get_served_during_wedged_parity_rebuild() {
    let cluster = Cluster::start(spec_with_spares(2));
    let mut client = cluster.client();

    let mut victims = Vec::new();
    for key in 500..620u64 {
        let value = vec![(key % 199) as u8 + 1; 700];
        client.put_to(key, &value, 6).unwrap(); // SRS(3,2).
        if cluster.coordinator_of(key) == 0 {
            victims.push((key, value));
        }
    }
    assert!(victims.len() >= 4, "need several keys on shard 0");

    // Phase 1: coordinator failure and spare promotion. Burn one victim
    // as the promotion probe so the remaining ones still have data
    // holes when the parity fails.
    cluster.kill(0);
    let (probe_key, probe_value) = victims.remove(0);
    let v = get_eventually(&mut client, probe_key, Duration::from_secs(15))
        .unwrap_or_else(|e| panic!("promotion probe key {probe_key}: {e}"));
    assert_eq!(v, probe_value);

    // Phase 2: wedge the upcoming rebuild, then fail a parity node.
    // Spare 6 will be promoted as the replacement parity, but its
    // ParityRebuildStart to coordinator 1 is dropped on the cut link,
    // so the rebuild never finishes while this test runs.
    cluster.fabric().fail_link(6, 1);
    cluster.kill(3);
    // Give the leader time to detect the failure and promote spare 6,
    // so the rebuild is genuinely in progress (and wedged) before the
    // degraded reads are issued.
    std::thread::sleep(Duration::from_millis(600));

    // Phase 3: every remaining victim still has a metadata-only hole on
    // the promoted coordinator. Each get must be answered by the
    // speculative shard-read decode — the wedged rebuild guarantees the
    // answer cannot have come from waiting on recovery.
    for (key, value) in victims {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("degraded key {key}: {e}"));
        assert_eq!(
            v, value,
            "degraded decode returned wrong bytes for key {key}"
        );
    }

    // The link is still down: the rebuild really was in progress the
    // whole time. Heal it and confirm the cluster drains to a fully
    // recovered state (the wedge was an obstacle, not a wound).
    cluster.fabric().heal_link(6, 1);
    let mut late = cluster.client();
    let v = get_eventually(&mut late, probe_key, Duration::from_secs(15)).unwrap();
    assert_eq!(v, probe_value);
    cluster.shutdown();
}

/// `read_fanout_extra = 0` degenerates to a plain `k`-row fan-out
/// (one parity target, no speculation slack) and must still decode.
#[test]
fn degraded_read_with_zero_extra_fanout() {
    let cluster = Cluster::start(ClusterSpec {
        read_fanout_extra: 0,
        ..spec_with_spares(1)
    });
    let mut client = cluster.client();
    let mut victims = Vec::new();
    for key in 700..760u64 {
        let value = vec![(key % 97) as u8 + 1; 512];
        client.put_to(key, &value, 6).unwrap(); // SRS(3,2).
        if cluster.coordinator_of(key) == 2 {
            victims.push((key, value));
        }
    }
    assert!(!victims.is_empty());
    cluster.kill(2);
    for (key, value) in victims {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("key {key}: {e}"));
        assert_eq!(v, value);
    }
    cluster.shutdown();
}

/// With `read_fanout_extra = 2` every parity node is contacted up
/// front; the decode binds to whichever `k` rows land first. A dead
/// parity (no spare, so no promotion ever happens) leaves the fan-out
/// one response short on that branch, and the read completes from the
/// survivors without waiting out any retry timer.
#[test]
fn full_fanout_tolerates_dead_parity_without_retry() {
    let cluster = Cluster::start(ClusterSpec {
        read_fanout_extra: 2,
        ..spec_with_spares(1)
    });
    let mut client = cluster.client();
    let mut victims = Vec::new();
    for key in 900..960u64 {
        let value = vec![(key % 181) as u8 + 1; 640];
        client.put_to(key, &value, 6).unwrap(); // SRS(3,2).
        if cluster.coordinator_of(key) == 1 {
            victims.push((key, value));
        }
    }
    assert!(!victims.is_empty());

    // Kill the coordinator first; after its spare is promoted, also
    // kill one parity. No spare remains, so the parity stays dead and
    // every degraded read must late-bind around the silent peer.
    cluster.kill(1);
    let (probe_key, probe_value) = victims.remove(0);
    let v = get_eventually(&mut client, probe_key, Duration::from_secs(15)).unwrap();
    assert_eq!(v, probe_value);
    assert!(!victims.is_empty(), "need victims beyond the probe");

    cluster.kill(4);
    std::thread::sleep(Duration::from_millis(400));
    for (key, value) in victims {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("key {key}: {e}"));
        assert_eq!(v, value);
    }
    cluster.shutdown();
}

/// Puts `keys` × `len`-byte values into SRS(3,2) and returns those
/// coordinated by `shard_node`, with their values.
fn put_srs_victims(
    cluster: &Cluster,
    client: &mut ring_kvs::RingClient,
    keys: std::ops::Range<u64>,
    len: impl Fn(u64) -> usize,
    shard_node: u32,
) -> Vec<(u64, Vec<u8>)> {
    let mut victims = Vec::new();
    for key in keys {
        let value = vec![(key % 211) as u8 + 1; len(key)];
        client.put_to(key, &value, 6).unwrap(); // SRS(3,2).
        if cluster.coordinator_of(key) == shard_node {
            victims.push((key, value));
        }
    }
    victims
}

/// Kills coordinator 0 and burns one victim as the promotion probe:
/// once it reads back, spare 5 coordinates shard 0 with metadata-only
/// holes for every remaining victim.
fn kill_and_promote(
    cluster: &Cluster,
    client: &mut ring_kvs::RingClient,
    victims: &mut Vec<(u64, Vec<u8>)>,
) {
    cluster.kill(0);
    let (probe_key, probe_value) = victims.remove(0);
    let v = get_eventually(client, probe_key, Duration::from_secs(15))
        .unwrap_or_else(|e| panic!("promotion probe key {probe_key}: {e}"));
    assert_eq!(v, probe_value);
}

/// A promoted coordinator cut off from both data peers can reach only
/// the two parity rows, short of `k = 3`: its gets must fail rather
/// than answer. Parity 3 is also cut off from peer 1, so a decode
/// relayed through it would miss that lane too. Once the links heal,
/// every victim reads back intact.
#[test]
fn partitioned_promoted_coordinator_never_returns_wrong_bytes() {
    let cluster = Cluster::start(spec_with_spares(1));
    let mut client = cluster.client();
    let mut victims = put_srs_victims(&cluster, &mut client, 500..800, |_| 700, 0);
    assert!(victims.len() >= 7, "need several keys on shard 0");
    kill_and_promote(&cluster, &mut client, &mut victims);

    let cuts = [(5, 1), (5, 2), (3, 1)];
    for &(a, b) in &cuts {
        cluster.fabric().fail_link(a, b);
    }
    for (key, value) in victims.iter().take(6) {
        match client.get(*key) {
            Ok(v) => assert!(&v == value, "key {key}: wrong bytes under partition"),
            Err(RingError::Unavailable(_) | RingError::Timeout) => {}
            Err(e) => panic!("key {key}: unexpected error {e}"),
        }
    }

    for &(a, b) in &cuts {
        cluster.fabric().heal_link(a, b);
    }
    for (key, value) in victims {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("key {key} after heal: {e}"));
        assert_eq!(v, value, "key {key} after heal");
    }
    cluster.shutdown();
}

/// With `read_fanout_extra = 0` each shard read asks one parity. When
/// that first choice is silent (its link to the promoted coordinator is
/// cut), the expired read is re-issued against the next parity, so
/// every get completes well inside its deadline.
#[test]
fn silent_first_choice_parity_rotates_at_zero_extra_fanout() {
    let cluster = Cluster::start(ClusterSpec {
        read_fanout_extra: 0,
        ..spec_with_spares(1)
    });
    let mut client = cluster.client();
    let mut victims = put_srs_victims(&cluster, &mut client, 500..800, |_| 700, 0);
    assert!(victims.len() >= 5, "need several keys on shard 0");
    kill_and_promote(&cluster, &mut client, &mut victims);

    cluster.fabric().fail_link(5, 3);
    for (key, value) in victims.into_iter().take(4) {
        let v = get_eventually(&mut client, key, Duration::from_secs(3))
            .unwrap_or_else(|e| panic!("key {key} behind a silent parity: {e}"));
        assert_eq!(v, value);
    }
    cluster.shutdown();
}

/// Empty SRS values occupy no heap bytes; after a coordinator kill the
/// promoted spare installs them locally, with no shard read, while the
/// non-empty values between them decode as usual.
#[test]
fn zero_length_values_survive_coordinator_kill() {
    let cluster = Cluster::start(spec_with_spares(1));
    let mut client = cluster.client();
    let len = |key: u64| if key.is_multiple_of(2) { 0 } else { 300 };
    let mut victims = put_srs_victims(&cluster, &mut client, 500..620, len, 0);
    assert!(
        victims.iter().filter(|(_, v)| v.is_empty()).count() >= 2,
        "need several empty values on shard 0"
    );
    kill_and_promote(&cluster, &mut client, &mut victims);
    for (key, value) in victims {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("key {key}: {e}"));
        assert_eq!(v, value, "key {key}");
    }
    cluster.shutdown();
}

/// A promoted coordinator still holding metadata-only holes declines
/// peer shard reads: with spare 5 holey on shard 0, spare 6 promoted
/// for shard 1 must decode from node 2 and the parities, never from
/// the zeros in spare 5's holes.
#[test]
fn holey_promoted_coordinator_declines_peer_shard_reads() {
    let cluster = Cluster::start(spec_with_spares(2));
    let mut client = cluster.client();
    let mut victims = put_srs_victims(&cluster, &mut client, 500..800, |_| 700, 0);
    let shard1: Vec<(u64, Vec<u8>)> = (500..800u64)
        .filter(|&key| cluster.coordinator_of(key) == 1)
        .map(|key| (key, vec![(key % 211) as u8 + 1; 700]))
        .collect();
    assert!(victims.len() >= 2, "need several keys on shard 0");
    assert!(shard1.len() >= 2, "need several keys on shard 1");
    kill_and_promote(&cluster, &mut client, &mut victims);

    // Once the first shard-1 key reads back, spare 6 coordinates shard
    // 1; spare 5 still has a hole for every remaining shard-0 victim.
    cluster.kill(1);
    for (key, value) in shard1 {
        let v = get_eventually(&mut client, key, Duration::from_secs(15))
            .unwrap_or_else(|e| panic!("key {key}: {e}"));
        assert!(v == value, "key {key}: wrong bytes");
    }
    cluster.shutdown();
}
