//! Substrate scaling benches: old O(n²) pairwise topology build vs the
//! spatial-hash/CSR build, and allocation-free scratch queries, at the
//! node counts 50 (paper scale), 500 and 5000. At 5000 the recycled
//! rebuild is also timed with 2% of peers down and under a vertical
//! partition filter, the branches a churning, partitioned run takes.
//! Node density is held at the paper's (one peer per ~45 000 m²) so the
//! average degree — and thus per-node work — stays comparable across n;
//! what changes with n is exactly the build strategy's complexity class.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use std::hint::black_box;

use mp2p_mobility::{Point, Terrain};
use mp2p_net::{Topology, TopologyBuilder, TopologyScratch};
use mp2p_sim::{NodeId, SimRng};

const RANGE: f64 = 250.0;
const SIZES: [usize; 3] = [50, 500, 5_000];

/// The Table 1 flatland up to 50 peers; beyond, a square holding its
/// 45 000 m² per peer.
fn bench_terrain(peers: usize) -> Terrain {
    if peers <= 50 {
        return Terrain::paper_default();
    }
    let side = (peers as f64 * 45_000.0).sqrt();
    Terrain::new(side, side)
}

fn field(n: usize) -> (Vec<Point>, Vec<bool>) {
    let terrain = bench_terrain(n);
    let mut rng = SimRng::from_seed(n as u64, 0xBE);
    let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
    (positions, vec![true; n])
}

/// Snapshot construction: the reference pairwise scan, the spatial-hash
/// build from scratch, and the steady-state rebuild that recycles the
/// previous snapshot's CSR arrays (the path `World` actually runs).
fn bench_build(c: &mut Criterion) {
    for n in SIZES {
        let (positions, up) = field(n);
        let mut group = c.benchmark_group(format!("topology_build_n{n}"));
        // The O(n²) reference is too slow to be worth timing at 5 000
        // nodes beyond one confirmation run; keep it for the smaller
        // sizes where the crossover is visible.
        if n <= 500 {
            group.bench_function("naive_pairwise", |b| {
                b.iter(|| {
                    black_box(Topology::with_link_filter_naive(
                        &positions,
                        &up,
                        RANGE,
                        |_, _| true,
                    ))
                })
            });
        }
        group.bench_function("grid_fresh", |b| {
            b.iter(|| black_box(Topology::new(&positions, &up, RANGE)))
        });
        bench_recycled(&mut group, "grid_recycled", &positions, &up, |_, _| true);
        if n == 5_000 {
            // The other branches a churning, partitioned run takes:
            // every 50th peer switched off (2% down), and the
            // `partition` fault preset's vertical cut at the midline.
            let churned: Vec<bool> = (0..n).map(|i| i % 50 != 0).collect();
            bench_recycled(
                &mut group,
                "grid_recycled_2pct_down",
                &positions,
                &churned,
                |_, _| true,
            );
            let mid_x = bench_terrain(n).width() / 2.0;
            let same_side =
                |i: usize, j: usize| (positions[i].x < mid_x) == (positions[j].x < mid_x);
            bench_recycled(
                &mut group,
                "grid_recycled_partition",
                &positions,
                &up,
                same_side,
            );
        }
        group.finish();
    }
}

/// The steady-state rebuild that recycles the previous snapshot's CSR
/// arrays (the path `World` actually runs).
fn bench_recycled(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    positions: &[Point],
    up: &[bool],
    keep: impl Fn(usize, usize) -> bool + Copy,
) {
    group.bench_function(name, |b| {
        let mut builder = TopologyBuilder::new();
        let mut prev = Some(builder.build(positions, up, RANGE, keep));
        b.iter(|| {
            let topo = builder.rebuild(prev.take(), positions, up, RANGE, keep);
            let edges = topo.edge_count();
            prev = Some(topo);
            black_box(edges)
        })
    });
}

/// Scratch-based BFS queries on a warm scratch: the TTL-scope scan every
/// flood pays and the shortest-path walk oracle mode pays.
fn bench_queries(c: &mut Criterion) {
    for n in SIZES {
        let (positions, up) = field(n);
        let topo = Topology::new(&positions, &up, RANGE);
        let mut group = c.benchmark_group(format!("topology_query_n{n}"));
        group.bench_function("within_hops_ttl5", |b| {
            let mut scratch = TopologyScratch::new();
            let mut out = Vec::new();
            let mut probe = SimRng::from_seed(n as u64, 0xBF);
            b.iter(|| {
                let from = NodeId::new(probe.uniform_u64(n as u64) as u32);
                topo.within_hops_with(&mut scratch, from, 5, &mut out);
                black_box(out.len())
            })
        });
        group.bench_function("shortest_path", |b| {
            let mut scratch = TopologyScratch::new();
            let mut out = Vec::new();
            let mut probe = SimRng::from_seed(n as u64, 0xC0);
            b.iter(|| {
                let from = NodeId::new(probe.uniform_u64(n as u64) as u32);
                let to = NodeId::new(probe.uniform_u64(n as u64) as u32);
                let found = topo.shortest_path_with(&mut scratch, from, to, &mut out);
                black_box((found, out.len()))
            })
        });
        group.bench_function("are_neighbors", |b| {
            let mut probe = SimRng::from_seed(n as u64, 0xC1);
            b.iter(|| {
                let a = NodeId::new(probe.uniform_u64(n as u64) as u32);
                let bb = NodeId::new(probe.uniform_u64(n as u64) as u32);
                black_box(topo.are_neighbors(a, bb))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_build, bench_queries);
criterion_main!(benches);
