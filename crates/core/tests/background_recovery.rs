//! Section 5.5's background data recovery: after a promotion, the new
//! coordinator proactively restores missing values without waiting for
//! client reads.

use std::time::{Duration, Instant};

use ring_kvs::{Cluster, ClusterSpec};
use ring_net::LatencyModel;

fn spec(background: bool) -> ClusterSpec {
    ClusterSpec {
        latency: LatencyModel::instant(),
        spares: 1,
        fail_timeout: Duration::from_millis(150),
        background_recovery: background,
        ..ClusterSpec::paper_evaluation()
    }
}

fn missing_on(client: &mut ring_kvs::RingClient, node: u32) -> Option<usize> {
    client.node_stats(node).ok().map(|s| s.missing_entries())
}

#[test]
fn background_sweep_restores_all_data_without_reads() {
    let cluster = Cluster::start(spec(true));
    let mut client = cluster.client();
    let mut expected = Vec::new();
    for key in 0..80u64 {
        let value = vec![(key % 97) as u8 + 1; 600];
        // Mix erasure-coded and replicated keys.
        let mid = if key % 2 == 0 { 6 } else { 2 };
        client.put_to(key, &value, mid).unwrap();
        if cluster.coordinator_of(key) == 0 {
            expected.push((key, value));
        }
    }
    assert!(expected.len() > 10);
    cluster.kill(0);

    // Without issuing a single get for the lost keys, the promoted node
    // (id 5) must drain its missing-entry count to zero.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match missing_on(&mut client, 5) {
            Some(0) => break,
            _ if Instant::now() >= deadline => {
                panic!(
                    "background recovery never drained: {:?} entries missing",
                    missing_on(&mut client, 5)
                );
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }

    // And the restored bytes must be correct.
    for (key, value) in expected {
        assert_eq!(client.get(key).unwrap(), value, "key {key}");
    }
    cluster.shutdown();
}

#[test]
fn without_background_recovery_entries_stay_missing() {
    let cluster = Cluster::start(spec(false));
    let mut client = cluster.client();
    for key in 0..80u64 {
        client.put_to(key, &[1u8; 300], 6).unwrap();
    }
    cluster.kill(0);
    // Wait for the promotion + metadata recovery to settle.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match missing_on(&mut client, 5) {
            Some(n) if n > 0 => break, // Metadata recovered, data holes remain.
            _ if Instant::now() >= deadline => panic!("promotion never completed"),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    // The holes persist (no reads, no background sweep)...
    std::thread::sleep(Duration::from_millis(500));
    let still_missing = missing_on(&mut client, 5).unwrap();
    assert!(still_missing > 0, "entries recovered without any trigger");
    // ...until a get arrives, which recovers exactly on demand.
    let victim = (0..80u64)
        .find(|&k| cluster.coordinator_of(k) == 0)
        .unwrap();
    assert_eq!(client.get(victim).unwrap(), vec![1u8; 300]);
    let after = missing_on(&mut client, 5).unwrap();
    assert!(
        after < still_missing,
        "on-demand recovery must reduce holes"
    );
    cluster.shutdown();
}

/// A put stalled behind a parity rebuild leaves an uncommitted
/// placeholder without a heap address. It is a hole, but there are no
/// bytes anywhere to recover: the sweep must leave it alone, and the
/// put commits once the rebuild finishes.
#[test]
fn background_sweep_skips_stalled_put_placeholders() {
    let cluster = Cluster::start(spec(true));
    let mut client = cluster.client();
    let key = (0..100u64)
        .find(|&k| cluster.coordinator_of(k) == 0)
        .unwrap();
    client.put_to(key, &[1u8; 300], 6).unwrap(); // SRS(3,2).

    // Spare 5 replaces parity 3 but cannot reach coordinator 1, so the
    // rebuild never finishes and coordinator 0 stays stalled.
    cluster.fabric().fail_link(5, 1);
    cluster.kill(3);
    std::thread::sleep(Duration::from_millis(600));
    client.put_async(key, &[2u8; 300], Some(6)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while missing_on(&mut client, 0) != Some(1) {
        assert!(Instant::now() < deadline, "stalled put left no placeholder");
        std::thread::sleep(Duration::from_millis(25));
    }
    // Several sweep ticks pass over the placeholder.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(missing_on(&mut client, 0), Some(1));

    cluster.fabric().heal_link(5, 1);
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match client.get(key) {
            Ok(v) if v == [2u8; 300] => break,
            _ if Instant::now() >= deadline => panic!("stalled put never committed"),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    cluster.shutdown();
}
