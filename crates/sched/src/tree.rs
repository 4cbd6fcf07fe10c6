//! Multicast trees and weighted combinations of trees.
//!
//! A *multicast tree* is a tree rooted at the source, built from platform
//! edges, that spans every target (Section 3 of the paper). Used alone for a
//! series of multicasts at rate `ρ`, it occupies the send port of each node
//! `Pi` for `ρ · Σ_{(i,j) ∈ tree} c_{i,j}` per time-unit and its receive port
//! for `ρ · c_{parent(i), i}`; the best sustainable rate is therefore the
//! inverse of the largest such occupation for `ρ = 1`, which is what
//! [`MulticastTree::period`] computes.
//!
//! The paper's key observation (Section 3) is that a *weighted combination*
//! of trees — [`WeightedTreeSet`] — can beat every single tree; Theorem 4
//! shows an optimal combination with at most `2|E|` trees always exists.

use crate::load::OnePortLoads;
use pm_platform::graph::{EdgeId, NodeId, Platform};
use pm_platform::instances::MulticastInstance;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Errors raised while validating a multicast tree.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// An edge id does not exist in the platform.
    UnknownEdge(EdgeId),
    /// Two tree edges enter the same node (the edge set is not a tree).
    MultipleParents(NodeId),
    /// The source has an incoming tree edge.
    SourceHasParent,
    /// A tree edge's origin is not connected to the source through tree edges.
    Disconnected(NodeId),
    /// A target is not covered by the tree.
    TargetNotCovered(NodeId),
    /// A tree weight is negative or not finite.
    InvalidWeight(f64),
    /// A flow handed to [`WeightedTreeSet::from_flows`] cannot be decomposed
    /// (wrong shape, or a target's demand is not routable in its support).
    InvalidFlow(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnknownEdge(e) => write!(f, "unknown edge {e}"),
            TreeError::MultipleParents(n) => write!(f, "node {n} has several parents"),
            TreeError::SourceHasParent => write!(f, "the source has an incoming tree edge"),
            TreeError::Disconnected(n) => {
                write!(f, "tree edge from {n} is not connected to the source")
            }
            TreeError::TargetNotCovered(n) => write!(f, "target {n} is not covered by the tree"),
            TreeError::InvalidWeight(w) => write!(f, "invalid tree weight {w}"),
            TreeError::InvalidFlow(msg) => write!(f, "invalid flow: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A multicast tree: a set of platform edges forming a tree rooted at the
/// source and spanning every target of the instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticastTree {
    /// Root of the tree (the multicast source).
    pub source: NodeId,
    /// The tree edges, as platform edge ids.
    edges: Vec<EdgeId>,
}

impl MulticastTree {
    /// Builds and validates a multicast tree from a set of platform edges.
    ///
    /// The edge set must form a tree rooted at `instance.source` (each
    /// non-root node involved has exactly one incoming edge, every edge is
    /// reachable from the root through tree edges) and must cover every
    /// target of the instance.
    pub fn new(instance: &MulticastInstance, edges: Vec<EdgeId>) -> Result<Self, TreeError> {
        let platform = &instance.platform;
        let n = platform.node_count();
        let mut parent: Vec<Option<EdgeId>> = vec![None; n];
        let mut edge_set: HashSet<EdgeId> = HashSet::with_capacity(edges.len());
        for &e in &edges {
            if e.index() >= platform.edge_count() {
                return Err(TreeError::UnknownEdge(e));
            }
            if !edge_set.insert(e) {
                continue; // ignore duplicates
            }
            let dst = platform.edge(e).dst;
            if dst == instance.source {
                return Err(TreeError::SourceHasParent);
            }
            if parent[dst.index()].is_some() {
                return Err(TreeError::MultipleParents(dst));
            }
            parent[dst.index()] = Some(e);
        }
        let edges: Vec<EdgeId> = edge_set.into_iter().collect();
        // Connectivity: walk up from each edge's source until the root; every
        // node on the way must have a parent (or be the root).
        let mut reach_cache: Vec<bool> = vec![false; n];
        reach_cache[instance.source.index()] = true;
        for &e in &edges {
            let mut cur = platform.edge(e).src;
            let mut chain = Vec::new();
            while !reach_cache[cur.index()] {
                chain.push(cur);
                match parent[cur.index()] {
                    Some(pe) => cur = platform.edge(pe).src,
                    None => return Err(TreeError::Disconnected(platform.edge(e).src)),
                }
                if chain.len() > n {
                    return Err(TreeError::Disconnected(platform.edge(e).src));
                }
            }
            for v in chain {
                reach_cache[v.index()] = true;
            }
        }
        // Coverage of targets.
        for &t in &instance.targets {
            if parent[t.index()].is_none() {
                return Err(TreeError::TargetNotCovered(t));
            }
        }
        let mut sorted = edges;
        sorted.sort_unstable();
        Ok(MulticastTree {
            source: instance.source,
            edges: sorted,
        })
    }

    /// The tree edges (sorted by edge id).
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of edges in the tree.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the tree has no edges (only possible when the source is the
    /// only covered node, which a valid instance never allows).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether `node` is covered by the tree (it is the root or has a parent
    /// edge).
    pub fn covers(&self, platform: &Platform, node: NodeId) -> bool {
        node == self.source || self.edges.iter().any(|&e| platform.edge(e).dst == node)
    }

    /// The parent edge of `node` in the tree, if any.
    pub fn parent_edge(&self, platform: &Platform, node: NodeId) -> Option<EdgeId> {
        self.edges
            .iter()
            .copied()
            .find(|&e| platform.edge(e).dst == node)
    }

    /// One-port loads induced by using this tree at a rate of one multicast
    /// per time-unit.
    pub fn unit_loads(&self, platform: &Platform) -> OnePortLoads {
        let mut loads = OnePortLoads::new(platform.node_count());
        for &e in &self.edges {
            let edge = platform.edge(e);
            loads.add_transfer(edge.src, edge.dst, edge.cost);
        }
        loads
    }

    /// The steady-state period of this tree: the time needed per multicast
    /// when this tree alone carries the whole series. It is the largest
    /// one-port port occupation at rate 1.
    pub fn period(&self, platform: &Platform) -> f64 {
        self.unit_loads(platform).max_load()
    }

    /// The steady-state throughput of this tree (`1 / period`).
    pub fn throughput(&self, platform: &Platform) -> f64 {
        1.0 / self.period(platform)
    }

    /// The classical Steiner cost of the tree: the sum of its edge costs.
    /// Not the metric optimized in the paper, but the baseline metric of the
    /// Steiner-tree heuristics revisited in Section 6.
    pub fn steiner_cost(&self, platform: &Platform) -> f64 {
        self.edges.iter().map(|&e| platform.cost(e)).sum()
    }
}

/// Removes all circulation from an edge-flow vector: repeatedly finds a
/// directed cycle in the support (edges with flow above `eps`) and subtracts
/// the cycle's minimum flow from every cycle edge.
///
/// Cycles carry no net demand, so cancelling them never changes what a flow
/// delivers — it only lowers edge loads. Both the tree decomposition of
/// [`WeightedTreeSet::from_flows`] and the multi-source flow composition in
/// `pm-core` rely on an acyclic support. Deterministic: the DFS follows node
/// and edge ids in order.
pub fn cancel_flow_cycles(platform: &Platform, flow: &mut [f64], eps: f64) {
    let n = platform.node_count();
    loop {
        // Colors: 0 = unvisited, 1 = on the current DFS path, 2 = done.
        let mut color = vec![0u8; n];
        // The support out-edge taken to reach each on-path node.
        let mut path: Vec<EdgeId> = Vec::new();
        let mut cycle: Option<Vec<EdgeId>> = None;
        'search: for root in platform.nodes() {
            if color[root.index()] != 0 {
                continue;
            }
            // Iterative DFS; the stack holds (node, next out-edge offset).
            let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
            color[root.index()] = 1;
            while let Some(&(u, next)) = stack.last() {
                let out = platform.out_edges(u);
                if next >= out.len() {
                    color[u.index()] = 2;
                    stack.pop();
                    path.pop();
                    continue;
                }
                stack.last_mut().expect("stack is non-empty").1 += 1;
                let e = out[next];
                if flow[e.index()] <= eps {
                    continue;
                }
                let v = platform.edge(e).dst;
                match color[v.index()] {
                    0 => {
                        color[v.index()] = 1;
                        path.push(e);
                        stack.push((v, 0));
                    }
                    1 => {
                        // Back edge: the cycle is e plus the path suffix
                        // starting at v (each DFS-path node appears as the
                        // source of at most one path edge).
                        let start = path
                            .iter()
                            .position(|&pe| platform.edge(pe).src == v)
                            .unwrap_or(path.len());
                        let mut edges: Vec<EdgeId> = path[start..].to_vec();
                        edges.push(e);
                        cycle = Some(edges);
                        break 'search;
                    }
                    _ => {}
                }
            }
        }
        let Some(edges) = cycle else { break };
        let w = edges
            .iter()
            .map(|&e| flow[e.index()])
            .fold(f64::INFINITY, f64::min);
        for &e in &edges {
            flow[e.index()] -= w;
            if flow[e.index()] <= eps {
                flow[e.index()] = 0.0;
            }
        }
    }
}

/// A weighted combination of multicast trees: tree `k` carries `weight[k]`
/// multicasts per time-unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedTreeSet {
    trees: Vec<MulticastTree>,
    weights: Vec<f64>,
}

impl WeightedTreeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        WeightedTreeSet {
            trees: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Adds a tree with the given weight (multicasts per time-unit).
    pub fn push(&mut self, tree: MulticastTree, weight: f64) -> Result<(), TreeError> {
        if !(weight.is_finite() && weight >= 0.0) {
            return Err(TreeError::InvalidWeight(weight));
        }
        self.trees.push(tree);
        self.weights.push(weight);
        Ok(())
    }

    /// The trees in the set.
    pub fn trees(&self) -> &[MulticastTree] {
        &self.trees
    }

    /// The weights, aligned with [`WeightedTreeSet::trees`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the set contains no tree.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Total throughput `Σ_k y_k` (multicasts initiated per time-unit).
    pub fn throughput(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Aggregated one-port loads per time-unit of steady state.
    pub fn loads(&self, platform: &Platform) -> OnePortLoads {
        let mut loads = OnePortLoads::new(platform.node_count());
        for (tree, &w) in self.trees.iter().zip(&self.weights) {
            for &e in tree.edges() {
                let edge = platform.edge(e);
                loads.add_transfer(edge.src, edge.dst, w * edge.cost);
            }
        }
        loads
    }

    /// Whether the combination respects the one-port constraints (every port
    /// occupied at most one time-unit per time-unit).
    pub fn is_feasible(&self, platform: &Platform, tol: f64) -> bool {
        self.loads(platform).fits_within(1.0, tol)
    }

    /// Scales every weight by the same factor so that the most loaded port is
    /// exactly saturated; returns the scaled set and the resulting
    /// throughput. A set with zero load is returned unchanged.
    pub fn scaled_to_feasible(&self, platform: &Platform) -> (WeightedTreeSet, f64) {
        let max_load = self.loads(platform).max_load();
        if max_load <= f64::EPSILON {
            return (self.clone(), self.throughput());
        }
        let factor = 1.0 / max_load;
        let scaled = WeightedTreeSet {
            trees: self.trees.clone(),
            weights: self.weights.iter().map(|w| w * factor).collect(),
        };
        let throughput = scaled.throughput();
        (scaled, throughput)
    }

    /// Scales every weight by the same factor so that the total throughput
    /// `Σ_k y_k` equals `throughput` (period-normalized scaling: exactly one
    /// multicast is carried per period of length `1 / throughput`). A set
    /// with zero total weight is returned unchanged.
    pub fn scaled_to_throughput(&self, throughput: f64) -> WeightedTreeSet {
        let total = self.throughput();
        if total <= f64::EPSILON {
            return self.clone();
        }
        let factor = throughput / total;
        WeightedTreeSet {
            trees: self.trees.clone(),
            weights: self.weights.iter().map(|w| w * factor).collect(),
        }
    }

    /// Decomposes per-target steady-state flows into a weighted set of
    /// multicast trees — the constructive step of the paper's realization
    /// argument (a steady-state solution *is* a weighted combination of
    /// trees, Theorem 4).
    ///
    /// `target_flows[i][e]` is the fraction of the message destined to
    /// `instance.targets[i]` crossing edge `e`; each row must be a ≈unit
    /// flow from `instance.source` to its target (exactly what the LP
    /// formulations of `pm-core` produce). Rows are cycle-cancelled, then
    /// trees are peeled off round by round: every round grows one multicast
    /// tree whose per-target paths follow the remaining flow supports
    /// (riding already-chosen tree edges for free, which is how overlapping
    /// target flows share a single message copy), takes the largest weight
    /// the supports allow, and subtracts it from every routed flow.
    ///
    /// The returned weights are *fractions of one multicast* (they sum to
    /// ≈1, minus a ≤1e-7 numerical residue); scale the set to the desired
    /// rate with [`WeightedTreeSet::scaled_to_throughput`] or saturate it
    /// with [`WeightedTreeSet::scaled_to_feasible`]. Each round zeroes a
    /// support edge or exhausts the demand, so at most `O(|T| · |E|)` trees
    /// are peeled before deduplication; well-behaved flows (broadcast-like
    /// overlap) produce far fewer.
    ///
    /// Errors with [`TreeError::InvalidFlow`] when the row count does not
    /// match the target count or a target is unreachable in its own support
    /// before anything was peeled. A mid-decomposition dead end (possible on
    /// adversarial numerics) stops the peeling instead; the missing demand
    /// shows up as a total weight below one.
    ///
    /// ```
    /// use pm_platform::graph::PlatformBuilder;
    /// use pm_platform::instances::MulticastInstance;
    /// use pm_sched::WeightedTreeSet;
    ///
    /// // A diamond: S -> A -> T and S -> B -> T, each path carrying half
    /// // of the broadcast to the single target T.
    /// let mut b = PlatformBuilder::new();
    /// let s = b.add_node();
    /// let a = b.add_node();
    /// let t = b.add_node();
    /// let b2 = b.add_node();
    /// b.add_edge(s, a, 1.0).unwrap(); // edge 0
    /// b.add_edge(a, t, 1.0).unwrap(); // edge 1
    /// b.add_edge(s, b2, 1.0).unwrap(); // edge 2
    /// b.add_edge(b2, t, 1.0).unwrap(); // edge 3
    /// let instance = MulticastInstance::new(b.build().unwrap(), s, vec![t]).unwrap();
    ///
    /// let flows = vec![vec![0.5, 0.5, 0.5, 0.5]];
    /// let set = WeightedTreeSet::from_flows(&instance, &flows).unwrap();
    /// // Two path-trees, each carrying half of the message.
    /// assert_eq!(set.trees().len(), 2);
    /// assert!((set.throughput() - 1.0).abs() < 1e-7);
    /// ```
    pub fn from_flows(
        instance: &MulticastInstance,
        target_flows: &[Vec<f64>],
    ) -> Result<WeightedTreeSet, TreeError> {
        let order: Vec<usize> = (0..instance.targets.len()).collect();
        Self::from_flows_with_order(instance, target_flows, &order)
    }

    /// [`WeightedTreeSet::from_flows`] with an explicit target processing
    /// order (a permutation of `0..targets.len()`). The order decides which
    /// target's path lays down the skeleton each peeling round — different
    /// orders peel different (equally valid) tree sets, which is how the
    /// realization pipeline enriches its candidate pool.
    pub fn from_flows_with_order(
        instance: &MulticastInstance,
        target_flows: &[Vec<f64>],
        order: &[usize],
    ) -> Result<WeightedTreeSet, TreeError> {
        const FLOW_EPS: f64 = 1e-9;
        const DEMAND_EPS: f64 = 1e-7;
        let platform = &instance.platform;
        let n = platform.node_count();
        let m = platform.edge_count();
        let t = instance.targets.len();
        if target_flows.len() != t {
            return Err(TreeError::InvalidFlow(format!(
                "{} flow rows for {t} targets",
                target_flows.len()
            )));
        }
        {
            let mut seen = vec![false; t];
            if order.len() != t
                || !order
                    .iter()
                    .all(|&i| i < t && !std::mem::replace(&mut seen[i], true))
            {
                return Err(TreeError::InvalidFlow(
                    "order is not a permutation of the targets".to_string(),
                ));
            }
        }
        let mut x: Vec<Vec<f64>> = Vec::with_capacity(t);
        for row in target_flows {
            if row.len() != m {
                return Err(TreeError::InvalidFlow(format!(
                    "flow row has {} entries for {m} edges",
                    row.len()
                )));
            }
            let mut row: Vec<f64> = row
                .iter()
                .map(|&v| if v > FLOW_EPS { v } else { 0.0 })
                .collect();
            cancel_flow_cycles(platform, &mut row, FLOW_EPS);
            x.push(row);
        }

        let mut remaining = 1.0_f64;
        let max_rounds = 2 * (t * m + t) + 8;
        // Accumulated (canonical edge set, weight) rounds, deduplicated.
        let mut peeled: Vec<(MulticastTree, f64)> = Vec::new();
        for round in 0..max_rounds {
            if remaining <= DEMAND_EPS {
                break;
            }
            // Grow one tree covering every target, following the supports.
            let mut in_tree = vec![false; n];
            in_tree[instance.source.index()] = true;
            let mut depth = vec![0usize; n];
            let mut parent: Vec<Option<EdgeId>> = vec![None; n];
            let mut tree_edges: Vec<EdgeId> = Vec::new();
            // Per target: the new edges its path added (they cap the round
            // weight) and its full source→target tree path (it is charged).
            let mut added: Vec<Vec<EdgeId>> = vec![Vec::new(); t];
            let mut dead_end: Option<NodeId> = None;
            for &i in order {
                let target = instance.targets[i];
                if in_tree[target.index()] {
                    continue;
                }
                // BFS from the whole current tree through the remaining
                // support of x[i], never re-entering the tree (every node
                // keeps a single parent). Seeds are ordered deepest-first:
                // among equally short attachments, the one extending the
                // longest shared prefix wins — pairing each target's path
                // with the round skeleton instead of falling back to the
                // source is what lets consecutive rounds specialize into
                // complementary trees (the Figure 1 optimum needs it).
                let mut pred: Vec<Option<EdgeId>> = vec![None; n];
                let mut seen = vec![false; n];
                let mut seeds: Vec<NodeId> = (0..n)
                    .map(|v| NodeId(v as u32))
                    .filter(|&v| in_tree[v.index()])
                    .collect();
                seeds.sort_by_key(|&v| (std::cmp::Reverse(depth[v.index()]), v.index()));
                let mut queue: std::collections::VecDeque<NodeId> = seeds.into();
                for v in queue.iter() {
                    seen[v.index()] = true;
                }
                while let Some(u) = queue.pop_front() {
                    if u == target {
                        break;
                    }
                    for &e in platform.out_edges(u) {
                        let v = platform.edge(e).dst;
                        if x[i][e.index()] > FLOW_EPS && !seen[v.index()] && !in_tree[v.index()] {
                            seen[v.index()] = true;
                            pred[v.index()] = Some(e);
                            queue.push_back(v);
                        }
                    }
                }
                if pred[target.index()].is_none() {
                    dead_end = Some(target);
                    break;
                }
                // Walk the new suffix back to the attachment point.
                let mut suffix: Vec<EdgeId> = Vec::new();
                let mut cur = target;
                while let Some(e) = pred[cur.index()] {
                    suffix.push(e);
                    cur = platform.edge(e).src;
                }
                for &e in suffix.iter().rev() {
                    let edge = platform.edge(e);
                    in_tree[edge.dst.index()] = true;
                    depth[edge.dst.index()] = depth[edge.src.index()] + 1;
                    parent[edge.dst.index()] = Some(e);
                    tree_edges.push(e);
                    added[i].push(e);
                }
            }
            if let Some(target) = dead_end {
                if round == 0 {
                    return Err(TreeError::InvalidFlow(format!(
                        "no routable support for target {target}"
                    )));
                }
                break;
            }
            // Round weight: the demand still owed, capped by the remaining
            // flow on every newly added edge (free rides on existing tree
            // edges do not constrain it).
            let mut w = remaining;
            for (i, edges) in added.iter().enumerate() {
                for &e in edges {
                    w = w.min(x[i][e.index()]);
                }
            }
            if w <= FLOW_EPS {
                break;
            }
            // Charge every target's full tree path (clamped at zero: riding
            // an edge another target paid for is what the max-accounting
            // overlap allows).
            for (i, &target) in instance.targets.iter().enumerate() {
                let mut cur = target;
                while let Some(e) = parent[cur.index()] {
                    let f = &mut x[i][e.index()];
                    *f = if *f - w > FLOW_EPS { *f - w } else { 0.0 };
                    cur = platform.edge(e).src;
                }
            }
            remaining -= w;
            let tree = MulticastTree::new(instance, tree_edges).map_err(|e| {
                TreeError::InvalidFlow(format!("peeled edge set is not a tree: {e}"))
            })?;
            match peeled.iter_mut().find(|(p, _)| p.edges() == tree.edges()) {
                Some((_, pw)) => *pw += w,
                None => peeled.push((tree, w)),
            }
        }

        let mut set = WeightedTreeSet::new();
        for (tree, w) in peeled {
            set.push(tree, w)?;
        }
        Ok(set)
    }

    /// Per-edge message rates (messages per time-unit) aggregated over trees.
    pub fn edge_rates(&self, platform: &Platform) -> Vec<f64> {
        let mut rates = vec![0.0; platform.edge_count()];
        for (tree, &w) in self.trees.iter().zip(&self.weights) {
            for &e in tree.edges() {
                rates[e.index()] += w;
            }
        }
        rates
    }
}

impl Default for WeightedTreeSet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_platform::graph::PlatformBuilder;
    use pm_platform::instances::{figure1_instance, MulticastInstance};

    /// source -> a (1), source -> b (1), a -> t (0.5), b -> t (0.5)
    fn diamond_instance() -> MulticastInstance {
        let mut b = PlatformBuilder::new();
        let s = b.add_named_node("s");
        let a = b.add_named_node("a");
        let bb = b.add_named_node("b");
        let t = b.add_named_node("t");
        b.add_edge(s, a, 1.0).unwrap();
        b.add_edge(s, bb, 1.0).unwrap();
        b.add_edge(a, t, 0.5).unwrap();
        b.add_edge(bb, t, 0.5).unwrap();
        let platform = b.build().unwrap();
        MulticastInstance::new(platform, s, vec![t]).unwrap()
    }

    #[test]
    fn tree_validation_accepts_valid_tree() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e_sa = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e_at = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e_sa, e_at]).unwrap();
        assert_eq!(tree.len(), 2);
        assert!(tree.covers(g, NodeId(3)));
        assert!(!tree.covers(g, NodeId(2)));
        assert_eq!(tree.parent_edge(g, NodeId(3)), Some(e_at));
        assert_eq!(tree.steiner_cost(g), 1.5);
        // Loads: s sends 1, a receives 1 and sends 0.5, t receives 0.5.
        assert!((tree.period(g) - 1.0).abs() < 1e-12);
        assert!((tree.throughput(g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tree_validation_rejects_bad_trees() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e_sa = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e_sb = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        let e_at = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let e_bt = g.find_edge(NodeId(2), NodeId(3)).unwrap();
        // Two parents for t.
        assert_eq!(
            MulticastTree::new(&inst, vec![e_sa, e_sb, e_at, e_bt]),
            Err(TreeError::MultipleParents(NodeId(3)))
        );
        // Target not covered.
        assert_eq!(
            MulticastTree::new(&inst, vec![e_sa]),
            Err(TreeError::TargetNotCovered(NodeId(3)))
        );
        // Disconnected from the source.
        assert_eq!(
            MulticastTree::new(&inst, vec![e_at]),
            Err(TreeError::Disconnected(NodeId(1)))
        );
        // Unknown edge id.
        assert_eq!(
            MulticastTree::new(&inst, vec![EdgeId(99)]),
            Err(TreeError::UnknownEdge(EdgeId(99)))
        );
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e_sa = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e_at = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e_sa, e_at, e_sa]).unwrap();
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn weighted_tree_set_throughput_and_feasibility() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e_sa = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e_at = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let e_sb = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        let e_bt = g.find_edge(NodeId(2), NodeId(3)).unwrap();
        let t1 = MulticastTree::new(&inst, vec![e_sa, e_at]).unwrap();
        let t2 = MulticastTree::new(&inst, vec![e_sb, e_bt]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(t1, 0.5).unwrap();
        set.push(t2, 0.5).unwrap();
        assert_eq!(set.len(), 2);
        assert!((set.throughput() - 1.0).abs() < 1e-12);
        // Source sends 0.5 to a and 0.5 to b: saturated but feasible;
        // t receives 0.25 + 0.25.
        assert!(set.is_feasible(g, 1e-12));
        let loads = set.loads(g);
        assert!((loads.send(NodeId(0)) - 1.0).abs() < 1e-12);
        assert!((loads.recv(NodeId(3)) - 0.5).abs() < 1e-12);
        let rates = set.edge_rates(g);
        assert_eq!(rates, vec![0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn scaling_to_feasibility_saturates_the_bottleneck() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e_sa = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e_at = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let t1 = MulticastTree::new(&inst, vec![e_sa, e_at]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(t1, 4.0).unwrap(); // wildly infeasible
        assert!(!set.is_feasible(g, 1e-12));
        let (scaled, thr) = set.scaled_to_feasible(g);
        assert!((thr - 1.0).abs() < 1e-12);
        assert!(scaled.is_feasible(g, 1e-12));
        assert!((scaled.loads(g).max_load() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_weights_are_rejected() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e_sa = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e_at = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let t1 = MulticastTree::new(&inst, vec![e_sa, e_at]).unwrap();
        let mut set = WeightedTreeSet::new();
        assert!(matches!(
            set.push(t1.clone(), -0.5),
            Err(TreeError::InvalidWeight(_))
        ));
        assert!(matches!(
            set.push(t1, f64::NAN),
            Err(TreeError::InvalidWeight(_))
        ));
    }

    #[test]
    fn cycle_cancellation_removes_circulation_only() {
        // s -> a -> t plus a 2-cycle a <-> b carrying circulation.
        let mut b = PlatformBuilder::new();
        let s = b.add_node();
        let a = b.add_node();
        let bb = b.add_node();
        let t = b.add_node();
        b.add_edge(s, a, 1.0).unwrap();
        b.add_edge(a, t, 1.0).unwrap();
        b.add_edge(a, bb, 1.0).unwrap();
        b.add_edge(bb, a, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut flow = vec![1.0, 1.0, 0.4, 0.4];
        cancel_flow_cycles(&g, &mut flow, 1e-9);
        assert_eq!(flow, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn from_flows_splits_the_diamond_into_two_paths() {
        let inst = diamond_instance();
        let g = &inst.platform;
        // Half the message goes through a, half through b.
        let flows = vec![vec![0.5, 0.5, 0.5, 0.5]];
        let set = WeightedTreeSet::from_flows(&inst, &flows).unwrap();
        assert_eq!(set.len(), 2);
        assert!((set.throughput() - 1.0).abs() < 1e-7);
        for (tree, &w) in set.trees().iter().zip(set.weights()) {
            assert_eq!(tree.len(), 2);
            assert!((w - 0.5).abs() < 1e-7);
        }
        // The decomposition reproduces the flow's edge loads exactly.
        let rates = set.edge_rates(g);
        for r in rates {
            assert!((r - 0.5).abs() < 1e-7);
        }
    }

    #[test]
    fn from_flows_single_path_yields_the_path_tree() {
        let inst = diamond_instance();
        let flows = vec![vec![1.0, 0.0, 1.0, 0.0]];
        let set = WeightedTreeSet::from_flows(&inst, &flows).unwrap();
        assert_eq!(set.len(), 1);
        assert!((set.weights()[0] - 1.0).abs() < 1e-7);
        assert_eq!(set.trees()[0].len(), 2);
    }

    #[test]
    fn from_flows_shares_edges_across_overlapping_targets() {
        // Figure 5: source -> relay -> n targets; every target's unit flow
        // rides the same source -> relay edge, so a single tree is peeled.
        let inst = pm_platform::instances::figure5_instance(3);
        let g = &inst.platform;
        let mut flows = Vec::new();
        for &t in &inst.targets {
            let mut row = vec![0.0; g.edge_count()];
            row[g.find_edge(NodeId(0), NodeId(1)).unwrap().index()] = 1.0;
            row[g.find_edge(NodeId(1), t).unwrap().index()] = 1.0;
            flows.push(row);
        }
        let set = WeightedTreeSet::from_flows(&inst, &flows).unwrap();
        assert_eq!(set.len(), 1);
        assert!((set.throughput() - 1.0).abs() < 1e-7);
        // One shared copy crosses the relay link: the tree set's period is
        // the broadcast optimum 1, not the scatter value n.
        assert!((set.loads(g).max_load() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn from_flows_rejects_bad_shapes_and_unroutable_targets() {
        let inst = diamond_instance();
        assert!(matches!(
            WeightedTreeSet::from_flows(&inst, &[]),
            Err(TreeError::InvalidFlow(_))
        ));
        assert!(matches!(
            WeightedTreeSet::from_flows(&inst, &[vec![0.0; 2]]),
            Err(TreeError::InvalidFlow(_))
        ));
        // A zero flow cannot route the target.
        assert!(matches!(
            WeightedTreeSet::from_flows(&inst, &[vec![0.0; 4]]),
            Err(TreeError::InvalidFlow(_))
        ));
    }

    #[test]
    fn scaled_to_throughput_normalizes_the_total_weight() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e_sa = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e_at = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let t1 = MulticastTree::new(&inst, vec![e_sa, e_at]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(t1, 0.25).unwrap();
        let scaled = set.scaled_to_throughput(0.8);
        assert!((scaled.throughput() - 0.8).abs() < 1e-12);
        assert_eq!(scaled.len(), 1);
    }

    #[test]
    fn figure1_two_tree_solution_reaches_throughput_one() {
        // The optimal two-tree solution described in Section 3 of the paper.
        let inst = figure1_instance();
        let g = &inst.platform;
        let edge = |s: u32, d: u32| g.find_edge(NodeId(s), NodeId(d)).unwrap();
        // Tree A: messages that use the direct Psource -> P1 link and reach
        // the P7 cluster through P3 -> P4 -> P5 -> P6.
        let tree_a = MulticastTree::new(
            &inst,
            vec![
                edge(0, 1),
                edge(0, 3),
                edge(3, 4),
                edge(4, 5),
                edge(5, 6),
                edge(6, 7),
                edge(7, 8),
                edge(7, 9),
                edge(7, 10),
                edge(1, 11),
                edge(11, 12),
                edge(11, 13),
            ],
        )
        .unwrap();
        // Tree B: messages relayed through P3 -> P2, reaching P1 through P2
        // and the P7 cluster through P2 -> P6.
        let tree_b = MulticastTree::new(
            &inst,
            vec![
                edge(0, 3),
                edge(3, 2),
                edge(2, 1),
                edge(2, 6),
                edge(6, 7),
                edge(7, 8),
                edge(7, 9),
                edge(7, 10),
                edge(1, 11),
                edge(11, 12),
                edge(11, 13),
            ],
        )
        .unwrap();
        // Each tree alone sustains at most half a multicast per time-unit...
        assert!(tree_a.throughput(g) <= 0.5 + 1e-9);
        // ... but together, with weight 1/2 each, they reach throughput 1.
        let mut set = WeightedTreeSet::new();
        set.push(tree_a, 0.5).unwrap();
        set.push(tree_b, 0.5).unwrap();
        assert!((set.throughput() - 1.0).abs() < 1e-12);
        assert!(set.is_feasible(g, 1e-9));
    }
}
