//! Unit-disc radio topology snapshots.
//!
//! Built for two regimes at once: the paper's 50-peer scenarios, where
//! the snapshot must be *byte-identical* to the original O(n²) pairwise
//! build so seeded runs reproduce exactly, and 1 000+-peer scale-ups,
//! where construction is a spatial hash (O(n·k) for average degree `k`)
//! and queries run allocation-free against a caller-owned
//! [`TopologyScratch`].
//!
//! The spatial-hash build tests each unordered pair of nearby up nodes
//! once, on squared distance, and calls the link filter `keep` once per
//! in-range pair; see [`TopologyBuilder::rebuild`].

use std::collections::VecDeque;

use mp2p_mobility::{CellGrid, Point};
use mp2p_sim::NodeId;

/// A snapshot of the radio graph: two *connected* nodes are neighbours iff
/// they are within communication range (`C_Range`, 250 m in Table 1).
///
/// Disconnected nodes (the paper's switched-off peers, Section 4.5) keep a
/// position but have no edges.
///
/// # Layout and construction
///
/// Adjacency is stored in CSR form — one flat [`NodeId`] array plus an
/// offset per node — with every per-node slice sorted ascending by id.
/// That gives [`Topology::neighbors`] zero-indirection slice access,
/// [`Topology::are_neighbors`] an O(log k) binary search, and the whole
/// snapshot two allocations (both recycled across rebuilds by
/// [`TopologyBuilder`]).
///
/// Construction bins nodes into a [`CellGrid`] with cell side equal to
/// the radio range, so a pair can only link if its cells touch; one
/// symmetric pass visits each such pair once and the CSR is filled from
/// the resulting pair list. The edge set and the sorted rows are
/// *exactly* what the reference O(n²) ascending-pair scan
/// ([`Topology::with_link_filter_naive`]) produces, so swapping builds
/// never changes event order, RNG draws, or any downstream result — the
/// determinism guarantee the golden-fixture tests pin down.
///
/// # Example
///
/// ```
/// use mp2p_mobility::Point;
/// use mp2p_net::Topology;
/// use mp2p_sim::NodeId;
///
/// let positions = vec![Point::new(0.0, 0.0), Point::new(200.0, 0.0), Point::new(400.0, 0.0)];
/// let topo = Topology::new(&positions, &[true, true, true], 250.0);
/// let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
/// assert!(topo.are_neighbors(a, b));
/// assert!(!topo.are_neighbors(a, c));
/// assert_eq!(topo.hops(a, c), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    /// CSR offsets: node `i`'s neighbours are
    /// `adjacency[offsets[i]..offsets[i + 1]]`. Always `n + 1` entries.
    offsets: Vec<u32>,
    /// Flat neighbour array; each node's slice is sorted ascending.
    adjacency: Vec<NodeId>,
    connected: Vec<bool>,
    range: f64,
}

impl Topology {
    /// Builds a snapshot from per-node positions and up/down flags.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `range` is not finite
    /// and positive.
    pub fn new(positions: &[Point], connected: &[bool], range: f64) -> Self {
        Topology::with_link_filter(positions, connected, range, |_, _| true)
    }

    /// Builds a snapshot like [`Topology::new`] but suppresses any edge
    /// for which `keep(i, j)` (with `i < j`, both indices up and within
    /// range) returns false. This is the fault-injection hook: a
    /// scheduled partition keeps only edges whose endpoints lie on the
    /// same side of a cut, without touching the nodes themselves.
    ///
    /// `keep` is called exactly once per in-range pair of up nodes, as in
    /// the reference build, but in cell order rather than ascending
    /// `(i, j)` order, so it must be a pure function of `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `range` is not finite
    /// and positive.
    pub fn with_link_filter(
        positions: &[Point],
        connected: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Self {
        TopologyBuilder::new().rebuild(None, positions, connected, range, keep)
    }

    /// The reference O(n²) build: the original ascending-(i, j) pairwise
    /// scan. Retained as the behavioural oracle — equivalence proptests
    /// and the old-vs-new benches compare the spatial-hash build against
    /// it — not for production use.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `range` is not finite
    /// and positive.
    pub fn with_link_filter_naive(
        positions: &[Point],
        connected: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Self {
        assert_eq!(
            positions.len(),
            connected.len(),
            "positions/connected length mismatch"
        );
        assert!(
            range.is_finite() && range > 0.0,
            "radio range must be positive"
        );
        let n = positions.len();
        let mut neighbors = vec![Vec::new(); n];
        for i in 0..n {
            if !connected[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !connected[j] {
                    continue;
                }
                if positions[i].distance(positions[j]) <= range && keep(i, j) {
                    neighbors[i].push(NodeId::new(j as u32));
                    neighbors[j].push(NodeId::new(i as u32));
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::new();
        for row in &neighbors {
            offsets.push(adjacency.len() as u32);
            adjacency.extend_from_slice(row);
        }
        offsets.push(adjacency.len() as u32);
        Topology {
            offsets,
            adjacency,
            connected: connected.to_vec(),
            range,
        }
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The radio range the snapshot was built with, in metres.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Total directed edge count (each radio link counts twice).
    pub fn edge_count(&self) -> usize {
        self.adjacency.len()
    }

    /// True if `node` is switched on.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.connected[node.index()]
    }

    /// The current one-hop neighbours of `node`, ascending by id (empty
    /// if down).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// True if `a` and `b` are both up and within range. O(log k) binary
    /// search over `a`'s sorted neighbour slice.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Minimum hop count from `from` to `to`, if a multi-hop path exists.
    ///
    /// Convenience wrapper allocating a throwaway [`TopologyScratch`];
    /// steady-state callers should hold one and use
    /// [`Topology::hops_with`].
    pub fn hops(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.hops_with(&mut TopologyScratch::new(), from, to)
    }

    /// [`Topology::hops`] against a reusable scratch: allocation-free
    /// once the scratch has grown to this snapshot's node count.
    pub fn hops_with(
        &self,
        scratch: &mut TopologyScratch,
        from: NodeId,
        to: NodeId,
    ) -> Option<u32> {
        self.bfs_with(scratch, from, Some(to))
    }

    /// A minimum-hop path from `from` to `to`, inclusive of both
    /// endpoints. Convenience wrapper over
    /// [`Topology::shortest_path_with`].
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut out = Vec::new();
        self.shortest_path_with(&mut TopologyScratch::new(), from, to, &mut out)
            .then_some(out)
    }

    /// Writes a minimum-hop path from `from` to `to` (inclusive of both
    /// endpoints) into `out`, clearing it first. Returns false — with
    /// `out` left empty — when no path exists. Allocation-free once
    /// `scratch` and `out` are warm.
    pub fn shortest_path_with(
        &self,
        scratch: &mut TopologyScratch,
        from: NodeId,
        to: NodeId,
        out: &mut Vec<NodeId>,
    ) -> bool {
        out.clear();
        if from == to {
            out.push(from);
            return true;
        }
        if !self.is_up(from) || !self.is_up(to) {
            return false;
        }
        if self.bfs_with(scratch, from, Some(to)).is_none() {
            return false;
        }
        out.push(to);
        let mut cur = to;
        while cur != from {
            // Every stamped node except the root has its parent recorded.
            cur = NodeId::new(scratch.parent[cur.index()]);
            out.push(cur);
        }
        out.reverse();
        true
    }

    /// All nodes strictly within `ttl` hops of `from` (excluding `from`),
    /// i.e. the set a TTL-`ttl` flood can reach. Convenience wrapper over
    /// [`Topology::within_hops_with`].
    pub fn within_hops(&self, from: NodeId, ttl: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.within_hops_with(&mut TopologyScratch::new(), from, ttl, &mut out);
        out
    }

    /// Writes the TTL-`ttl` flood scope of `from` into `out` (clearing it
    /// first), in BFS discovery order. Allocation-free once `scratch` and
    /// `out` are warm.
    pub fn within_hops_with(
        &self,
        scratch: &mut TopologyScratch,
        from: NodeId,
        ttl: u32,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if ttl == 0 || !self.is_up(from) {
            return;
        }
        scratch.begin(self.len());
        scratch.visit_root(from);
        while let Some(u) = scratch.queue.pop_front() {
            let du = scratch.dist[u.index()];
            if du == ttl {
                continue;
            }
            for &v in self.neighbors(u) {
                if scratch.stamp[v.index()] != scratch.epoch {
                    scratch.stamp[v.index()] = scratch.epoch;
                    scratch.dist[v.index()] = du + 1;
                    out.push(v);
                    scratch.queue.push_back(v);
                }
            }
        }
    }

    /// Connected components among up nodes, each sorted by id; singleton
    /// components for isolated up nodes are included, down nodes are not.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        self.components_with(&mut TopologyScratch::new())
    }

    /// [`Topology::components`] against a reusable scratch. The returned
    /// nested vectors are themselves fresh allocations — components is a
    /// diagnostic query, not a hot-path one — but the BFS bookkeeping
    /// reuses `scratch`.
    pub fn components_with(&self, scratch: &mut TopologyScratch) -> Vec<Vec<NodeId>> {
        scratch.begin(self.len());
        let mut out = Vec::new();
        for start in 0..self.len() {
            if scratch.stamp[start] == scratch.epoch || !self.connected[start] {
                continue;
            }
            let root = NodeId::new(start as u32);
            let mut comp = vec![root];
            scratch.stamp[start] = scratch.epoch;
            scratch.queue.push_back(root);
            while let Some(u) = scratch.queue.pop_front() {
                for &v in self.neighbors(u) {
                    if scratch.stamp[v.index()] != scratch.epoch {
                        scratch.stamp[v.index()] = scratch.epoch;
                        comp.push(v);
                        scratch.queue.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// BFS from `root` recording distances and parents in `scratch`;
    /// returns the target's distance if `target` is given and reachable.
    fn bfs_with(
        &self,
        scratch: &mut TopologyScratch,
        root: NodeId,
        target: Option<NodeId>,
    ) -> Option<u32> {
        if !self.is_up(root) {
            return None;
        }
        if target == Some(root) {
            return Some(0);
        }
        scratch.begin(self.len());
        scratch.visit_root(root);
        while let Some(u) = scratch.queue.pop_front() {
            let du = scratch.dist[u.index()];
            for &v in self.neighbors(u) {
                if scratch.stamp[v.index()] != scratch.epoch {
                    scratch.stamp[v.index()] = scratch.epoch;
                    scratch.dist[v.index()] = du + 1;
                    scratch.parent[v.index()] = u.index() as u32;
                    if target == Some(v) {
                        return Some(du + 1);
                    }
                    scratch.queue.push_back(v);
                }
            }
        }
        None
    }
}

/// Reusable BFS bookkeeping for [`Topology`] queries: epoch-stamped
/// visited marks, distances, parent links and the traversal queue.
///
/// A scratch grows to the largest node count it has served and is then
/// allocation-free: "visited" is reset by bumping a generation counter
/// (`epoch`), not by clearing arrays, so starting a query costs O(1).
/// One scratch serves any number of topologies and queries, strictly one
/// query at a time.
#[derive(Debug, Default, Clone)]
pub struct TopologyScratch {
    /// Current query generation; `stamp[i] == epoch` means node `i` was
    /// visited by the query in progress.
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    /// Parent node index, valid only for stamped non-root nodes.
    parent: Vec<u32>,
    queue: VecDeque<NodeId>,
}

impl TopologyScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TopologyScratch::default()
    }

    /// Starts a new query over `n` nodes: grows buffers if needed and
    /// advances the epoch. On the (once per 2³²-query) epoch wrap the
    /// stamps are hard-cleared so stale marks can never alias.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
            self.parent.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Marks `root` visited at distance 0 and enqueues it.
    fn visit_root(&mut self, root: NodeId) {
        self.stamp[root.index()] = self.epoch;
        self.dist[root.index()] = 0;
        self.queue.push_back(root);
    }
}

/// Builds [`Topology`] snapshots with reusable scratch: the spatial-hash
/// bins, the cell-ordered coordinates, the in-range pair list, and — via
/// [`TopologyBuilder::rebuild`]'s `recycle` parameter — the CSR arrays of
/// a retired snapshot. A steady-state rebuild (same node count, similar
/// degree) performs no heap allocation.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    /// Linear cell index per node (valid only for connected nodes).
    cell_idx: Vec<u32>,
    /// Cell boundaries: after binning, cell `c` holds entries
    /// `cell_start[c]..cell_start[c + 1]` of `order`, `xs` and `ys`.
    cell_start: Vec<u32>,
    /// Connected node indices grouped by cell, ascending within a cell.
    order: Vec<u32>,
    /// Coordinates of `order`'s nodes, in the same cell order, so the
    /// scan reads them in sequence.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Every kept in-range pair `(i, j)`, `i < j`, in scan order.
    pairs: Vec<(u32, u32)>,
}

impl TopologyBuilder {
    /// An empty builder; scratch grows on first build.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Builds a snapshot; equivalent to [`Topology::with_link_filter`]
    /// but reusing this builder's scratch.
    pub fn build(
        &mut self,
        positions: &[Point],
        connected: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Topology {
        self.rebuild(None, positions, connected, range, keep)
    }

    /// Builds a snapshot, cannibalising `recycle`'s CSR buffers when
    /// given so steady-state refreshes allocate nothing. The produced
    /// snapshot is identical to [`Topology::with_link_filter`]'s for the
    /// same inputs (see that method for the `keep` contract).
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `range` is not finite
    /// and positive.
    pub fn rebuild(
        &mut self,
        recycle: Option<Topology>,
        positions: &[Point],
        connected: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Topology {
        assert_eq!(
            positions.len(),
            connected.len(),
            "positions/connected length mismatch"
        );
        assert!(
            range.is_finite() && range > 0.0,
            "radio range must be positive"
        );
        let n = positions.len();
        let (mut offsets, mut adjacency, mut conn) = match recycle {
            Some(t) => {
                let Topology {
                    offsets,
                    adjacency,
                    mut connected,
                    ..
                } = t;
                connected.clear();
                (offsets, adjacency, connected)
            }
            None => (Vec::with_capacity(n + 1), Vec::new(), Vec::new()),
        };
        conn.extend_from_slice(connected);
        let shape = self.bin(positions, connected, range);
        self.scan_pairs(shape, positions, range, keep);

        // CSR from the pair list: count degrees, then scatter both
        // directions of every pair.
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &(i, j) in &self.pairs {
            offsets[i as usize] += 1;
            offsets[j as usize] += 1;
        }
        let edges = counts_to_ends(&mut offsets);
        adjacency.clear();
        adjacency.resize(edges, NodeId::new(0));
        for &(i, j) in &self.pairs {
            for (from, to) in [(i, j), (j, i)] {
                let slot = &mut offsets[from as usize];
                *slot -= 1;
                adjacency[*slot as usize] = NodeId::new(to);
            }
        }
        // Pairs arrive in cell order; restore the reference build's
        // ascending rows.
        for w in offsets.windows(2) {
            adjacency[w[0] as usize..w[1] as usize].sort_unstable();
        }
        Topology {
            offsets,
            adjacency,
            connected: conn,
            range,
        }
    }

    /// Bins connected nodes into range-sized cells by counting sort and
    /// lays their ids and coordinates out in cell order (ascending id
    /// within a cell). Returns the grid's column and row counts.
    fn bin(&mut self, positions: &[Point], connected: &[bool], range: f64) -> (usize, usize) {
        let grid = CellGrid::from_points(positions, range);
        let cells = grid.cell_count();
        assert!(
            u32::try_from(cells).is_ok(),
            "cell grid too fine: {cells} cells"
        );
        self.cell_idx.clear();
        self.cell_idx.resize(positions.len(), 0);
        self.cell_start.clear();
        self.cell_start.resize(cells + 1, 0);
        for (i, &p) in positions.iter().enumerate() {
            if connected[i] {
                let c = grid.cell_index(p);
                self.cell_idx[i] = c as u32;
                self.cell_start[c] += 1;
            }
        }
        // Filling in descending id order leaves each cell ascending.
        let total = counts_to_ends(&mut self.cell_start);
        self.order.resize(total, 0);
        self.xs.resize(total, 0.0);
        self.ys.resize(total, 0.0);
        for i in (0..positions.len()).rev() {
            if !connected[i] {
                continue;
            }
            let slot = &mut self.cell_start[self.cell_idx[i] as usize];
            *slot -= 1;
            let k = *slot as usize;
            self.order[k] = i as u32;
            self.xs[k] = positions[i].x;
            self.ys[k] = positions[i].y;
        }
        (grid.cols() as usize, grid.rows() as usize)
    }

    /// Collects every kept in-range pair into `pairs`, testing each
    /// unordered pair of binned nodes at most once.
    ///
    /// A half stencil visits each pair of neighbouring cells from one
    /// side only: a node meets the later entries of its own cell, then
    /// the E, SW, S and SE cells. In cell order the own-cell tail and the
    /// E cell are one contiguous run, and so are SW, S and SE.
    ///
    /// Distance is tested on `dx² + dy²` against `range²` widened and
    /// narrowed by 1e-9. The squared sum's rounding error is a few ulps,
    /// far inside that band, so outside it the comparison decides exactly
    /// as `distance(a, b) <= range` would; inside it (and for every pair
    /// when `range²` is not a finite normal number) that `hypot` test
    /// itself decides, in the ascending orientation the reference build
    /// uses. Decisions therefore match [`Topology::with_link_filter_naive`]
    /// bit for bit.
    fn scan_pairs(
        &mut self,
        (cols, rows): (usize, usize),
        positions: &[Point],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) {
        let r2 = range * range;
        let (surely_in, surely_out) = if r2.is_normal() {
            (r2 * (1.0 - 1e-9), r2 * (1.0 + 1e-9))
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        let TopologyBuilder {
            cell_start,
            order,
            xs,
            ys,
            pairs,
            ..
        } = self;
        pairs.clear();
        let mut visit = |k: usize, span: std::ops::Range<usize>| {
            let (x, y) = (xs[k], ys[k]);
            for m in span {
                let (dx, dy) = (x - xs[m], y - ys[m]);
                let d2 = dx * dx + dy * dy;
                let (i, j) = (order[k].min(order[m]), order[k].max(order[m]));
                let in_range = if d2 < surely_in {
                    true
                } else if d2 > surely_out {
                    false
                } else {
                    positions[i as usize].distance(positions[j as usize]) <= range
                };
                if in_range && keep(i as usize, j as usize) {
                    pairs.push((i, j));
                }
            }
        };
        let start = |c: usize| cell_start[c] as usize;
        for cy in 0..rows {
            for cx in 0..cols {
                let c = cy * cols + cx;
                let has_east = usize::from(cx + 1 < cols);
                let same_row_end = start(c + 1 + has_east);
                let below = if cy + 1 < rows {
                    let s = c + cols;
                    start(s - usize::from(cx > 0))..start(s + 1 + has_east)
                } else {
                    0..0
                };
                for k in start(c)..start(c + 1) {
                    visit(k, k + 1..same_row_end);
                    visit(k, below.clone());
                }
            }
        }
    }
}

/// Counting-sort bookkeeping: turns the bucket counts in all but the
/// last entry of `counts` into bucket ends, stores the total in the last
/// entry and returns it. Each fill then decrements its bucket's entry
/// and writes at the result, which leaves every entry at its bucket's
/// start.
fn counts_to_ends(counts: &mut [u32]) -> usize {
    let (total, buckets) = counts
        .split_last_mut()
        .expect("counts end with a slot for the total");
    let mut end = 0;
    for c in buckets {
        end += *c;
        *c = end;
    }
    *total = end;
    end as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A line of nodes spaced 200 m apart with 250 m range: a path graph.
    fn line(n: usize) -> Topology {
        let positions: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 200.0, 0.0)).collect();
        Topology::new(&positions, &vec![true; n], 250.0)
    }

    #[test]
    fn adjacency_is_symmetric_on_line() {
        let t = line(5);
        for i in 0..5u32 {
            for j in 0..5u32 {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                assert_eq!(t.are_neighbors(a, b), t.are_neighbors(b, a));
                assert_eq!(t.are_neighbors(a, b), i.abs_diff(j) == 1);
            }
        }
    }

    #[test]
    fn hops_along_line() {
        let t = line(6);
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(5)), Some(5));
        assert_eq!(t.hops(NodeId::new(2), NodeId::new(2)), Some(0));
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let t = line(4);
        let path = t.shortest_path(NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(path.first(), Some(&NodeId::new(0)));
        assert_eq!(path.last(), Some(&NodeId::new(3)));
        for pair in path.windows(2) {
            assert!(t.are_neighbors(pair[0], pair[1]));
        }
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn down_node_partitions_the_line() {
        let positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 200.0, 0.0)).collect();
        let mut up = vec![true; 5];
        up[2] = false;
        let t = Topology::new(&positions, &up, 250.0);
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(4)), None);
        assert!(t.neighbors(NodeId::new(2)).is_empty());
        assert_eq!(t.components().len(), 2);
    }

    #[test]
    fn within_hops_matches_ttl_scope() {
        let t = line(8);
        let reach = t.within_hops(NodeId::new(0), 3);
        let mut ids: Vec<u32> = reach.iter().map(|n| n.index() as u32).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(t.within_hops(NodeId::new(0), 0).is_empty());
    }

    #[test]
    fn link_filter_cuts_edges_without_touching_nodes() {
        let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 200.0, 0.0)).collect();
        // Cut the line between indices 2 and 3 (a bisection at x = 500).
        let t = Topology::with_link_filter(&positions, &[true; 6], 250.0, |i, j| {
            (positions[i].x < 500.0) == (positions[j].x < 500.0)
        });
        assert!(t.is_up(NodeId::new(2)) && t.is_up(NodeId::new(3)));
        assert!(!t.are_neighbors(NodeId::new(2), NodeId::new(3)));
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(5)), None);
        assert_eq!(t.components().len(), 2);
        // The permissive filter reproduces `new` exactly.
        let unfiltered = Topology::new(&positions, &[true; 6], 250.0);
        for i in 0..6u32 {
            for j in 0..6u32 {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                if i.abs_diff(j) == 1 && (i.min(j) != 2) {
                    assert!(t.are_neighbors(a, b));
                }
                assert_eq!(
                    unfiltered.are_neighbors(a, b),
                    i.abs_diff(j) == 1,
                    "new() adjacency unchanged"
                );
            }
        }
    }

    #[test]
    fn components_cover_all_up_nodes_once() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(1_000.0, 0.0),
            Point::new(1_100.0, 0.0),
            Point::new(5_000.0, 5_000.0),
        ];
        let t = Topology::new(&positions, &[true; 5], 250.0);
        let comps = t.components();
        assert_eq!(comps.len(), 3);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn neighbor_slices_are_sorted_ascending() {
        let mut rng = mp2p_sim::SimRng::from_seed(9, 0);
        let terrain = mp2p_mobility::Terrain::paper_default();
        let positions: Vec<Point> = (0..80).map(|_| terrain.random_point(&mut rng)).collect();
        let t = Topology::new(&positions, &[true; 80], 250.0);
        for i in 0..80u32 {
            let nb = t.neighbors(NodeId::new(i));
            assert!(
                nb.windows(2).all(|w| w[0] < w[1]),
                "node {i}: neighbour slice not strictly ascending: {nb:?}"
            );
        }
    }

    #[test]
    fn grid_build_matches_naive_reference() {
        let mut rng = mp2p_sim::SimRng::from_seed(11, 0);
        let terrain = mp2p_mobility::Terrain::paper_default();
        let positions: Vec<Point> = (0..100).map(|_| terrain.random_point(&mut rng)).collect();
        let mut up = vec![true; 100];
        up[3] = false;
        up[77] = false;
        assert_matches_naive(&positions, &up, 250.0, |i, j| !(i + j).is_multiple_of(7));
        // The partition preset's vertical cut at the terrain midline.
        let same_side = |i: usize, j: usize| (positions[i].x < 750.0) == (positions[j].x < 750.0);
        assert_matches_naive(&positions, &up, 250.0, same_side);
        assert_matches_naive(&positions, &[false; 100], 250.0, same_side);
    }

    #[test]
    fn builder_recycles_without_changing_results() {
        // One builder and one recycled snapshot through worlds that grow
        // and shrink, with some nodes down.
        let mut rng = mp2p_sim::SimRng::from_seed(12, 0);
        let mut builder = TopologyBuilder::new();
        let mut prev: Option<Topology> = None;
        for n in [60usize, 60, 0, 5, 80, 400, 40, 1, 120, 0, 60] {
            let side = (n.max(1) as f64 * 45_000.0).sqrt();
            let terrain = mp2p_mobility::Terrain::new(side, side);
            let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
            let up: Vec<bool> = (0..n).map(|i| i % 11 != 4).collect();
            let naive = Topology::with_link_filter_naive(&positions, &up, 250.0, |_, _| true);
            let rebuilt = builder.rebuild(prev.take(), &positions, &up, 250.0, |_, _| true);
            assert_eq!(rebuilt.len(), n);
            assert_eq!(rebuilt.edge_count(), naive.edge_count(), "n = {n}");
            for i in 0..n as u32 {
                let id = NodeId::new(i);
                assert_eq!(rebuilt.is_up(id), naive.is_up(id), "n = {n}, node {i}");
                assert_eq!(
                    rebuilt.neighbors(id),
                    naive.neighbors(id),
                    "n = {n}, node {i}"
                );
            }
            prev = Some(rebuilt);
        }
    }

    /// Asserts that a fresh build and a build recycling an unrelated
    /// snapshot both equal the reference build, row for row.
    fn assert_matches_naive(
        positions: &[Point],
        up: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool + Copy,
    ) {
        let naive = Topology::with_link_filter_naive(positions, up, range, keep);
        let fresh = Topology::with_link_filter(positions, up, range, keep);
        let mut builder = TopologyBuilder::new();
        let other = builder.build(&[Point::new(0.0, 0.0); 3], &[true; 3], 1.0, |_, _| true);
        let recycled = builder.rebuild(Some(other), positions, up, range, keep);
        for (label, built) in [("fresh", &fresh), ("recycled", &recycled)] {
            assert_eq!(built.len(), naive.len(), "{label}: node count");
            assert_eq!(
                built.edge_count(),
                naive.edge_count(),
                "{label}: edge count"
            );
            for i in 0..positions.len() as u32 {
                let id = NodeId::new(i);
                assert_eq!(
                    built.is_up(id),
                    naive.is_up(id),
                    "{label}: node {i} up flag"
                );
                assert_eq!(
                    built.neighbors(id),
                    naive.neighbors(id),
                    "{label}: node {i} neighbours differ from the reference build"
                );
            }
        }
    }

    /// Pairs of nodes at `range` and one ulp either side of it, each pair
    /// placed far from the others so pairs cannot link across.
    fn boundary_pairs(range: f64, base: Point) -> Vec<Point> {
        let mut positions = Vec::new();
        let offsets = |d: f64| {
            [
                (d, 0.0),
                (0.0, d),
                (-d, 0.0),
                // 3-4-5 diagonals: exactly `d` apart when d = 250.
                (d * 0.6, d * 0.8),
                (-d * 0.8, d * 0.6),
                (d / 2f64.sqrt(), d / 2f64.sqrt()),
            ]
        };
        let mut slot = 0.0;
        for d in [range, range.next_up(), range.next_down()] {
            for (dx, dy) in offsets(d) {
                let a = Point::new(base.x + slot, base.y);
                positions.push(a);
                positions.push(Point::new(a.x + dx, a.y + dy));
                slot += 5.0 * range;
            }
        }
        positions
    }

    #[test]
    fn pairs_at_the_range_boundary_match_reference() {
        for base in [
            Point::new(0.0, 0.0),
            Point::new(1_234.567_891, 987.654_321),
            Point::new(-7_777.125, 31_415.926_535),
        ] {
            let positions = boundary_pairs(250.0, base);
            let n = positions.len();
            assert_matches_naive(&positions, &vec![true; n], 250.0, |_, _| true);
        }
        // The 250 m axis and 3-4-5 pairs at the origin are exactly at
        // range, so the reference links them and so must the squared test.
        let t = Topology::new(
            &boundary_pairs(250.0, Point::new(0.0, 0.0)),
            &[true; 36],
            250.0,
        );
        for pair in [0u32, 1, 2, 3] {
            assert!(t.are_neighbors(NodeId::new(2 * pair), NodeId::new(2 * pair + 1)));
        }
    }

    #[test]
    fn pairs_where_squaring_and_hypot_disagree_follow_hypot() {
        // Offsets one rounding away from 250 m, found by search: the
        // rounded dx² + dy² lands on the other side of 250² than
        // `hypot(dx, dy)` lands of 250.
        let hypot_in = [
            (249.904_015_616_648_34, 6.926_974_712_960_247),
            (163.572_822_606_484_5, 189.060_656_151_795_8),
            (200.368_044_032_269_2, 149.508_016_275_658_72),
        ];
        let hypot_out = [
            (153.643_100_103_235_27, 197.215_105_381_578_8),
            (191.765_768_279_167_62, 160.392_924_146_611_28),
            (203.714_847_645_563_4, 144.914_667_472_774_82),
        ];
        for (linked, offsets) in [(true, hypot_in), (false, hypot_out)] {
            for (dx, dy) in offsets {
                for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)] {
                    let positions = [Point::new(0.0, 0.0), Point::new(sx * dx, sy * dy)];
                    assert_eq!(positions[0].distance(positions[1]) <= 250.0, linked);
                    assert_matches_naive(&positions, &[true; 2], 250.0, |_, _| true);
                }
            }
        }
    }

    #[test]
    fn near_boundary_random_pairs_match_reference() {
        // Random bases and angles at distances within a few ulps of
        // range: every pair lands in the band where the squared test
        // defers to `hypot`.
        let mut rng = mp2p_sim::SimRng::from_seed(21, 0);
        let range = 250.0_f64;
        let mut positions = Vec::new();
        for k in 0..400 {
            let a = Point::new(
                (k % 20) as f64 * 1_500.0 + rng.uniform_f64() * 100.0,
                (k / 20) as f64 * 1_500.0 + rng.uniform_f64() * 100.0,
            );
            let angle = rng.uniform_f64() * std::f64::consts::TAU;
            let mut d = range;
            for _ in 0..(k % 9) {
                d = if k % 2 == 0 {
                    d.next_up()
                } else {
                    d.next_down()
                };
            }
            positions.push(a);
            positions.push(Point::new(a.x + d * angle.cos(), a.y + d * angle.sin()));
        }
        let n = positions.len();
        assert_matches_naive(&positions, &vec![true; n], range, |_, _| true);
    }

    #[test]
    fn coincident_points_match_reference() {
        let mut positions = vec![Point::new(100.0, 100.0); 6];
        positions.extend([Point::new(300.0, 100.0); 3]);
        positions.push(Point::new(700.0, 700.0));
        positions.push(Point::new(700.0, 700.0));
        let n = positions.len();
        assert_matches_naive(&positions, &vec![true; n], 250.0, |_, _| true);
        let t = Topology::new(&positions, &vec![true; n], 250.0);
        assert_eq!(t.neighbors(NodeId::new(10)), &[NodeId::new(9)]);
    }

    #[test]
    fn single_cell_and_strip_grids_match_reference() {
        let mut rng = mp2p_sim::SimRng::from_seed(22, 0);
        // Every node in one cell: the span is below the cell side, but
        // diagonal pairs can still be out of range.
        let one_cell: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.uniform_f64() * 249.0, rng.uniform_f64() * 249.0))
            .collect();
        assert_matches_naive(&one_cell, &[true; 40], 250.0, |_, _| true);
        // A 1 × N strip along each axis.
        let row: Vec<Point> = (0..60)
            .map(|_| Point::new(rng.uniform_f64() * 5_000.0, 42.0))
            .collect();
        assert_matches_naive(&row, &[true; 60], 250.0, |_, _| true);
        let column: Vec<Point> = row.iter().map(|p| Point::new(-3.5, p.x)).collect();
        assert_matches_naive(&column, &[true; 60], 250.0, |_, _| true);
    }

    #[test]
    fn ranges_whose_square_is_not_normal_match_reference() {
        // 1e200² overflows and 1e-200² underflows: every pair takes the
        // `hypot` test.
        for range in [1e200, 1e-200] {
            let mut positions = boundary_pairs(range, Point::new(0.0, 0.0));
            positions.push(Point::new(range * 0.5, range * 0.25));
            positions.push(Point::new(range * 0.5, range * 0.25));
            let n = positions.len();
            assert_matches_naive(&positions, &vec![true; n], range, |_, _| true);
            let t = Topology::new(&positions, &vec![true; n], range);
            assert!(
                t.are_neighbors(NodeId::new(0), NodeId::new(1)),
                "range {range}"
            );
            assert!(t.edge_count() > 0);
        }
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let mut rng = mp2p_sim::SimRng::from_seed(13, 0);
        let terrain = mp2p_mobility::Terrain::new(1_000.0, 1_000.0);
        let positions: Vec<Point> = (0..40).map(|_| terrain.random_point(&mut rng)).collect();
        let t = Topology::new(&positions, &[true; 40], 250.0);
        let mut scratch = TopologyScratch::new();
        let mut buf = Vec::new();
        for a in 0..40u32 {
            let from = NodeId::new(a);
            for b in 0..40u32 {
                let to = NodeId::new(b);
                assert_eq!(t.hops_with(&mut scratch, from, to), t.hops(from, to));
                let found = t.shortest_path_with(&mut scratch, from, to, &mut buf);
                assert_eq!(
                    found.then(|| buf.clone()),
                    t.shortest_path(from, to),
                    "path {a}->{b}"
                );
            }
            for ttl in 0..4u32 {
                t.within_hops_with(&mut scratch, from, ttl, &mut buf);
                assert_eq!(buf, t.within_hops(from, ttl), "scope {a} ttl {ttl}");
            }
        }
        assert_eq!(t.components_with(&mut scratch), t.components());
    }

    #[test]
    fn empty_topology_is_well_formed() {
        let t = Topology::new(&[], &[], 250.0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.edge_count(), 0);
        assert!(t.components().is_empty());
    }

    proptest! {
        /// Symmetry and irreflexivity of the neighbour relation on random
        /// geometric graphs.
        #[test]
        fn prop_neighbor_relation(seed in any::<u64>(), n in 2usize..40) {
            let mut rng = mp2p_sim::SimRng::from_seed(seed, 0);
            let terrain = mp2p_mobility::Terrain::paper_default();
            let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
            let t = Topology::new(&positions, &vec![true; n], 250.0);
            for i in 0..n {
                let a = NodeId::new(i as u32);
                prop_assert!(!t.are_neighbors(a, a));
                for &b in t.neighbors(a) {
                    prop_assert!(t.are_neighbors(b, a));
                    prop_assert!(positions[a.index()].distance(positions[b.index()]) <= 250.0);
                }
            }
        }

        /// BFS path length equals the reported hop count and the path is
        /// valid edge-by-edge.
        #[test]
        fn prop_path_matches_hops(seed in any::<u64>(), n in 2usize..30) {
            let mut rng = mp2p_sim::SimRng::from_seed(seed, 1);
            let terrain = mp2p_mobility::Terrain::new(800.0, 800.0);
            let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
            let t = Topology::new(&positions, &vec![true; n], 250.0);
            let (a, b) = (NodeId::new(0), NodeId::new(n as u32 - 1));
            match (t.hops(a, b), t.shortest_path(a, b)) {
                (Some(h), Some(path)) => {
                    prop_assert_eq!(path.len() as u32, h + 1);
                    for pair in path.windows(2) {
                        prop_assert!(t.are_neighbors(pair[0], pair[1]));
                    }
                }
                (None, None) => {}
                (hops, path) => prop_assert!(false, "hops {hops:?} vs path {path:?} disagree"),
            }
        }

        /// within_hops(ttl) is exactly the set at BFS distance 1..=ttl.
        #[test]
        fn prop_within_hops_consistent(seed in any::<u64>(), n in 2usize..25, ttl in 1u32..6) {
            let mut rng = mp2p_sim::SimRng::from_seed(seed, 2);
            let terrain = mp2p_mobility::Terrain::new(1_000.0, 1_000.0);
            let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
            let t = Topology::new(&positions, &vec![true; n], 250.0);
            let root = NodeId::new(0);
            let mut reach: Vec<NodeId> = t.within_hops(root, ttl);
            reach.sort_unstable();
            let mut expected: Vec<NodeId> = (1..n)
                .map(|i| NodeId::new(i as u32))
                .filter(|&v| matches!(t.hops(root, v), Some(h) if h <= ttl))
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(reach, expected);
        }
    }
}
