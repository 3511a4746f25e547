//! The clusters a workload runs on.
//!
//! Untraced runs use the shipped harnesses unchanged:
//! [`ring_kvs::Cluster::start`] on the simulated fabric and
//! [`ring_server::harness::LoopbackCluster::start`] over loopback TCP.
//! The traced simulated cluster, [`TracedCluster`], is assembled here
//! from the same public parts `Cluster::start` uses, with every endpoint
//! wrapped in the [`Traced`] decorator.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ring_kvs::client::{ClientOptions, RingClient};
use ring_kvs::config::{ClusterConfig, CLIENT_BASE, LEADER_NODE};
use ring_kvs::leader::{Leader, LeaderOptions};
use ring_kvs::node::{Node, NodeOptions};
use ring_kvs::proto::Msg;
use ring_kvs::types::{MemgestDescriptor, MemgestId};
use ring_kvs::{Cluster, ClusterSpec};
use ring_net::{Fabric, FaultInjector, NodeId, TcpOptions, TcpTransport, Transport};
use ring_server::harness::LoopbackCluster;

use crate::trace::{Env, Gate, Recorder, SimCarrier, Sink, Traced};

/// What a workload needs from a running cluster.
pub trait Harness {
    /// The client transport.
    type T: Transport<Msg>;
    /// A fresh client.
    fn client(&self) -> RingClient<Self::T>;
    /// Every server node id (active nodes and spares).
    fn servers(&self) -> Vec<NodeId>;
    /// Crashes a node.
    fn kill(&self, node: NodeId);
    /// Installs (or, with `None`, removes) a fault injector.
    fn faults(&self, injector: Option<Arc<dyn FaultInjector>>);
    /// Marks the start or end of a measured phase (traced clusters
    /// record only inside one).
    fn measuring(&self, _on: bool) {}
}

fn servers_of(config: &ClusterConfig) -> Vec<NodeId> {
    config
        .nodes
        .iter()
        .chain(config.spares.iter())
        .copied()
        .collect()
}

impl Harness for Cluster {
    type T = ring_kvs::proto::RingEndpoint;
    fn client(&self) -> RingClient<Self::T> {
        Cluster::client(self)
    }
    fn servers(&self) -> Vec<NodeId> {
        servers_of(self.config())
    }
    fn kill(&self, node: NodeId) {
        Cluster::kill(self, node);
    }
    fn faults(&self, injector: Option<Arc<dyn FaultInjector>>) {
        match injector {
            Some(i) => self.fabric().set_fault_injector(i),
            None => self.fabric().clear_fault_injector(),
        }
    }
}

impl Harness for LoopbackCluster {
    type T = TcpTransport<Msg>;
    fn client(&self) -> RingClient<Self::T> {
        LoopbackCluster::client(self)
    }
    fn servers(&self) -> Vec<NodeId> {
        servers_of(&self.topology().config())
    }
    fn kill(&self, _node: NodeId) {
        unimplemented!("the TCP workload kills no node")
    }
    fn faults(&self, _injector: Option<Arc<dyn FaultInjector>>) {
        unimplemented!("the TCP workload injects no faults")
    }
}

/// A traced client over loopback TCP, against an untraced server set.
pub struct TracedTcp<'a> {
    /// The shipped loopback cluster.
    pub cluster: &'a LoopbackCluster,
    /// Spans of one operation in this many are kept.
    pub sample_every: u64,
    /// Where the client's recorder goes when it is dropped.
    pub sink: Sink,
    /// The recording switch.
    pub gate: Gate,
}

impl Harness for TracedTcp<'_> {
    type T = Traced<TcpTransport<Msg>>;
    fn client(&self) -> RingClient<Self::T> {
        // Above the ids the cluster hands out itself.
        let id = CLIENT_BASE + 1000;
        let topo = self.cluster.topology();
        let ep = TcpTransport::client(
            id,
            topo.peers.clone(),
            Arc::new(ring_wire::MsgCodec),
            TcpOptions::default(),
        );
        RingClient::new(
            Traced::new(
                ep,
                true,
                self.sample_every,
                self.sink.clone(),
                self.gate.clone(),
            ),
            topo.config(),
            ClientOptions {
                timeout: ring_server::harness::LoopbackSpec::default().client_timeout,
                ..ClientOptions::default()
            },
        )
    }
    fn servers(&self) -> Vec<NodeId> {
        self.cluster.servers()
    }
    fn kill(&self, node: NodeId) {
        self.cluster.kill(node);
    }
    fn faults(&self, injector: Option<Arc<dyn FaultInjector>>) {
        self.cluster.faults(injector);
    }
    fn measuring(&self, on: bool) {
        self.gate.store(on, Ordering::SeqCst);
    }
}

/// The client transport of a [`TracedCluster`].
pub type TracedEp = Traced<SimCarrier>;

/// A simulated cluster assembled like [`Cluster::start`], with every
/// endpoint (nodes, spares, leader, clients) traced.
pub struct TracedCluster {
    fabric: Fabric<Env>,
    config: ClusterConfig,
    spec: ClusterSpec,
    threads: Vec<JoinHandle<()>>,
    next_client: AtomicU32,
    sample_every: u64,
    sink: Sink,
    gate: Gate,
}

impl TracedCluster {
    /// Boots the cluster `spec` describes; spans of one operation in
    /// `sample_every` are kept in full.
    pub fn start(spec: ClusterSpec, sample_every: u64) -> TracedCluster {
        assert!(!spec.memgests.is_empty(), "need at least one memgest");
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let gate: Gate = Arc::new(AtomicBool::new(false));
        let fabric: Fabric<Env> = Fabric::new(spec.latency);
        let model = spec.latency;
        let active: Vec<NodeId> = (0..(spec.s + spec.d) as NodeId).collect();
        let spares: Vec<NodeId> =
            ((spec.s + spec.d) as NodeId..(spec.s + spec.d + spec.spares) as NodeId).collect();
        let config =
            ClusterConfig::initial(spec.s, spec.d, spec.groups, active.clone(), spares.clone());
        let catalog: Vec<(MemgestId, MemgestDescriptor)> = spec
            .memgests
            .iter()
            .enumerate()
            .map(|(i, &d)| (i as MemgestId, d))
            .collect();
        let wrap = |id: NodeId| {
            let ep = fabric.register(id).expect("fresh fabric");
            Traced::new(
                SimCarrier { ep, model },
                false,
                sample_every,
                sink.clone(),
                gate.clone(),
            )
        };

        let mut threads = Vec::new();
        for &id in active.iter().chain(spares.iter()) {
            let ep = wrap(id);
            let opts = NodeOptions {
                heartbeat_interval: spec.heartbeat_interval,
                keep_old_versions: spec.keep_old_versions,
                initial_memgests: catalog.clone(),
                default_memgest: spec.default_memgest,
                replica_ack_delay: spec.replica_ack_delay,
                sync_replication: spec.sync_replication,
                background_recovery: spec.background_recovery,
                read_fanout_extra: spec.read_fanout_extra,
                ..NodeOptions::default()
            };
            let cfg = config.clone();
            threads.push(std::thread::spawn(move || {
                Node::new(ep, cfg, opts).run();
            }));
        }
        let leader_ep = wrap(LEADER_NODE);
        let leader_cfg = config.clone();
        let default = spec.default_memgest;
        let fail_timeout = spec.fail_timeout;
        threads.push(std::thread::spawn(move || {
            Leader::new(
                leader_ep,
                leader_cfg,
                catalog,
                default,
                LeaderOptions {
                    fail_timeout,
                    ..LeaderOptions::default()
                },
            )
            .run();
        }));
        TracedCluster {
            fabric,
            config,
            spec,
            threads,
            next_client: AtomicU32::new(CLIENT_BASE),
            sample_every,
            sink,
            gate,
        }
    }

    /// The traced fabric (stats, faults).
    pub fn fabric(&self) -> &Fabric<Env> {
        &self.fabric
    }

    /// Stops every thread and returns the recorders of all endpoints.
    /// Clients must be dropped first so theirs are included.
    pub fn shutdown(mut self) -> Vec<Recorder> {
        self.stop();
        let mut sink = self.sink.lock().expect("no recorder push panics");
        std::mem::take(&mut *sink)
    }

    fn stop(&mut self) {
        for id in self.fabric.live_nodes() {
            self.fabric.kill(id);
        }
        for t in self.threads.drain(..) {
            t.join().expect("cluster thread exits cleanly");
        }
    }
}

impl Drop for TracedCluster {
    fn drop(&mut self) {
        for id in self.fabric.live_nodes() {
            self.fabric.kill(id);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Harness for TracedCluster {
    type T = TracedEp;
    fn client(&self) -> RingClient<TracedEp> {
        let id = self.next_client.fetch_add(1, Ordering::SeqCst);
        let ep = self.fabric.register(id).expect("client ids are unique");
        let carrier = SimCarrier {
            ep,
            model: self.spec.latency,
        };
        RingClient::new(
            Traced::new(
                carrier,
                true,
                self.sample_every,
                self.sink.clone(),
                self.gate.clone(),
            ),
            self.config.clone(),
            ClientOptions {
                timeout: self.spec.client_timeout,
                ..ClientOptions::default()
            },
        )
    }
    fn servers(&self) -> Vec<NodeId> {
        servers_of(&self.config)
    }
    fn kill(&self, node: NodeId) {
        self.fabric.kill(node);
    }
    fn faults(&self, injector: Option<Arc<dyn FaultInjector>>) {
        match injector {
            Some(i) => self.fabric.set_fault_injector(i),
            None => self.fabric.clear_fault_injector(),
        }
    }
    fn measuring(&self, on: bool) {
        self.gate.store(on, Ordering::SeqCst);
    }
}
