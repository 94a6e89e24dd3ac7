//! Layer replays: each layer's public API driven on inputs generated
//! from a workload's config and seed, timed from outside. A replay gives
//! a per-call cost; the traced run gives the call counts.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use mp2p_cache::{CacheStore, Popularity, QueryStream, Version};
use mp2p_mobility::{
    AnyMobility, ManhattanGrid, MobilityModel, Point, RandomWalk, RandomWaypoint, Stationary,
};
use mp2p_net::{NetAction, NetStack, Topology, TopologyBuilder};
use mp2p_rpcc::{MobilityKind, ProtoMsg, WorldConfig};
use mp2p_sim::{EventQueue, ItemId, NodeId, SimDuration, SimRng, SimTime};

/// Each replay repeats its calls until it has run at least this long.
const MIN_REPLAY: Duration = Duration::from_millis(150);
/// Mobility replay budget: node × epoch position queries.
const MAX_POSITION_CALLS: u64 = 2_000_000;
/// Position snapshots kept for the topology and stack replays.
const SNAPSHOTS: usize = 16;

/// Per-call cost of one replayed layer operation.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub calls: u64,
    pub secs: f64,
}

impl Cost {
    pub fn ns(&self) -> f64 {
        self.secs * 1e9 / self.calls.max(1) as f64
    }
}

/// The same per-node mobility the world builds (stream `0x100 + i`).
fn node_mobility(cfg: &WorldConfig, i: usize) -> AnyMobility {
    let rng = SimRng::from_seed(cfg.seed, 0x100 + i as u64);
    match cfg.mobility {
        MobilityKind::Waypoint {
            speed_min,
            speed_max,
            max_pause,
        } => RandomWaypoint::new(cfg.terrain, speed_min, speed_max, max_pause, rng).into(),
        MobilityKind::Walk {
            speed_min,
            speed_max,
            epoch,
        } => RandomWalk::new(cfg.terrain, speed_min, speed_max, epoch, rng).into(),
        MobilityKind::Manhattan { block, speed } => {
            ManhattanGrid::new(cfg.terrain, block, speed, rng).into()
        }
        MobilityKind::Stationary => {
            let mut rng = rng;
            Stationary::new(cfg.terrain.random_point(&mut rng)).into()
        }
    }
}

/// Topology-refresh epochs in the horizon: an upper bound on the
/// world's lazy rebuilds.
fn refresh_epochs(cfg: &WorldConfig) -> u64 {
    (cfg.sim_time.as_millis() / cfg.topology_refresh.as_millis()).max(1)
}

/// Queries every node's position at every `topology_refresh` epoch (up
/// to [`MAX_POSITION_CALLS`]) and keeps [`SNAPSHOTS`] evenly spaced
/// snapshots of all positions.
pub fn mobility(cfg: &WorldConfig) -> (Cost, Vec<Vec<Point>>) {
    let n = cfg.n_peers;
    let epochs = refresh_epochs(cfg).min((MAX_POSITION_CALLS / n as u64).max(1));
    let keep_every = (epochs / SNAPSHOTS as u64).max(1);
    let mut nodes: Vec<AnyMobility> = (0..n).map(|i| node_mobility(cfg, i)).collect();
    let mut row = vec![Point::new(0.0, 0.0); n];
    let mut snapshots = Vec::with_capacity(SNAPSHOTS);
    let mut busy = Duration::ZERO;
    for e in 0..epochs {
        let t = SimTime::ZERO + cfg.topology_refresh.mul_f64(e as f64);
        let started = Instant::now();
        for (m, p) in nodes.iter_mut().zip(row.iter_mut()) {
            *p = m.position_at(t);
        }
        busy += started.elapsed();
        if e % keep_every == 0 && snapshots.len() < SNAPSHOTS {
            snapshots.push(std::hint::black_box(row.clone()));
        }
    }
    let cost = Cost {
        calls: epochs * n as u64,
        secs: busy.as_secs_f64(),
    };
    (cost, snapshots)
}

/// `TopologyBuilder::rebuild` over the snapshots (all nodes up),
/// recycling the previous snapshot as the world does. Also returns the
/// mean degree over the snapshots.
pub fn topology(cfg: &WorldConfig, snapshots: &[Vec<Point>]) -> (Cost, f64) {
    let up = vec![true; cfg.n_peers];
    let mut builder = TopologyBuilder::new();
    let mut current: Option<Topology> = None;
    let (mut calls, mut edges) = (0u64, 0u64);
    let started = Instant::now();
    while calls < snapshots.len() as u64 || started.elapsed() < MIN_REPLAY {
        let positions = &snapshots[calls as usize % snapshots.len()];
        let topo = builder.rebuild(current.take(), positions, &up, cfg.range, |_, _| true);
        if calls < snapshots.len() as u64 {
            edges += topo.edge_count() as u64;
        }
        current = Some(std::hint::black_box(topo));
        calls += 1;
    }
    let cost = Cost {
        calls,
        secs: started.elapsed().as_secs_f64(),
    };
    let degree = edges as f64 / (snapshots.len() * cfg.n_peers) as f64;
    (cost, degree)
}

/// Invalidation floods over the snapshot topologies through every
/// node's `NetStack`: `flood_app` at an origin, then `on_frame` at each
/// neighbour of every broadcast (one frame clone per neighbour), with
/// re-broadcasts propagated until the TTL runs out.
pub fn stack(cfg: &WorldConfig, snapshots: &[Vec<Point>]) -> Cost {
    let n = cfg.n_peers;
    let up = vec![true; n];
    let topos: Vec<Topology> = snapshots
        .iter()
        .map(|p| Topology::new(p, &up, cfg.range))
        .collect();
    let mut stacks: Vec<NetStack<ProtoMsg>> = NodeId::all(n)
        .map(|id| NetStack::new(id, cfg.net))
        .collect();
    let mut rng = SimRng::from_seed(cfg.seed, 0xB0B);
    let mut frontier = VecDeque::new();
    let mut now = SimTime::ZERO;
    let (mut calls, mut floods) = (0u64, 0u64);
    let mut busy = Duration::ZERO;
    while floods < 8 || busy < MIN_REPLAY {
        let topo = &topos[floods as usize % topos.len()];
        let origin = NodeId::new(rng.uniform_u64(n as u64) as u32);
        let msg = ProtoMsg::Invalidation {
            item: origin.owned_item(),
            version: Version::new(floods + 1),
            seq: None,
        };
        let started = Instant::now();
        frontier.clear();
        for action in
            stacks[origin.index()].flood_app(now, cfg.proto.invalidation_ttl, msg, msg.size_bytes())
        {
            if let NetAction::Broadcast(frame) = action {
                frontier.push_back((origin, frame));
            }
        }
        while let Some((from, frame)) = frontier.pop_front() {
            for &to in topo.neighbors(from) {
                calls += 1;
                for action in stacks[to.index()].on_frame(now, from, frame.clone()) {
                    if let NetAction::Broadcast(next) = action {
                        frontier.push_back((to, next));
                    }
                }
            }
        }
        busy += started.elapsed();
        floods += 1;
        now += SimDuration::from_millis(50);
    }
    Cost {
        calls,
        secs: busy.as_secs_f64(),
    }
}

/// `CacheStore` touch on every query `QueryStream` draws, insert on a
/// miss, and a refresh every fourth hit (an arriving update), for every
/// node, with caches pre-warmed as the world warms them.
pub fn cache(cfg: &WorldConfig) -> Cost {
    let n = cfg.n_peers;
    let mut caches: Vec<CacheStore> = NodeId::all(n)
        .map(|id| {
            let mut store = CacheStore::new(cfg.c_num);
            let mut catalogue: Vec<ItemId> =
                ItemId::all(n).filter(|it| it.source_host() != id).collect();
            SimRng::from_seed(cfg.seed, 0x300 + id.index() as u64).shuffle(&mut catalogue);
            for &item in catalogue.iter().take(cfg.c_num) {
                store.insert(
                    item,
                    Version::INITIAL,
                    cfg.proto.content_bytes,
                    SimTime::ZERO,
                );
            }
            store
        })
        .collect();
    let mut streams: Vec<(SimTime, QueryStream)> = NodeId::all(n)
        .map(|id| {
            let rng = SimRng::from_seed(cfg.seed, 0x400 + id.index() as u64);
            let s = QueryStream::new(id, n, cfg.i_query, Popularity::Uniform, rng);
            (SimTime::ZERO, s)
        })
        .collect();
    let (mut calls, mut hits) = (0u64, 0u64);
    let started = Instant::now();
    while calls < 10_000 || started.elapsed() < MIN_REPLAY {
        for ((now, stream), store) in streams.iter_mut().zip(caches.iter_mut()) {
            let (t, item) = stream.next_query(*now);
            *now = t;
            calls += 1;
            if store.touch(item).is_some() {
                hits += 1;
                if hits % 4 == 0 {
                    store.refresh(item, Version::new(hits), t);
                    calls += 1;
                }
            } else {
                store.insert(item, Version::INITIAL, cfg.proto.content_bytes, t);
                calls += 1;
            }
        }
    }
    Cost {
        calls,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// An `Event`-sized payload (112 bytes) for the queue replay.
type Payload = [u64; 14];

/// Hold-model `EventQueue` churn at `len` pending events: pop the
/// earliest, push it back at an exponential delay. One call is one
/// push + pop pair.
pub fn queue(seed: u64, len: usize) -> Cost {
    let mut rng = SimRng::from_seed(seed, 0xB0C);
    let mut q: EventQueue<Payload> = EventQueue::with_capacity(len.max(1));
    for i in 0..len.max(1) {
        let t = SimTime::ZERO + SimDuration::from_millis(rng.uniform_u64(60_000));
        q.push(t, [i as u64; 14]);
    }
    let mut calls = 0u64;
    let started = Instant::now();
    while calls < 100_000 || started.elapsed() < MIN_REPLAY {
        for _ in 0..1024 {
            let (t, ev) = q.pop().expect("the hold model keeps the queue full");
            let gap = SimDuration::from_millis(1 + rng.uniform_u64(60_000));
            q.push(t + gap, std::hint::black_box(ev));
        }
        calls += 1024;
    }
    Cost {
        calls,
        secs: started.elapsed().as_secs_f64(),
    }
}
