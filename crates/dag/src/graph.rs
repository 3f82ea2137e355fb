//! DAG node/edge representation and the builder.

/// The six classes of DAG node (paper Table I).  The two intermediate
/// classes are distinguished by the tree they are most closely associated
/// with: `Is` holds a source box's outgoing plane-wave expansions (and the
/// merged expansions of its children), `It` accumulates a target box's
/// incoming plane waves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Source leaf data (positions + charges).
    S,
    /// Multipole expansion of a source box.
    M,
    /// Outgoing intermediate (plane-wave) expansions of a source box.
    Is,
    /// Incoming intermediate expansions of a target box.
    It,
    /// Local expansion of a target box.
    L,
    /// Target leaf data (positions + accumulated potentials).
    T,
}

impl NodeClass {
    /// All classes in the paper's Table I order.
    pub const ALL: [NodeClass; 6] = [
        NodeClass::S,
        NodeClass::M,
        NodeClass::Is,
        NodeClass::It,
        NodeClass::L,
        NodeClass::T,
    ];

    /// Index in `0..6` (Table I order).
    pub fn index(self) -> usize {
        match self {
            NodeClass::S => 0,
            NodeClass::M => 1,
            NodeClass::Is => 2,
            NodeClass::It => 3,
            NodeClass::L => 4,
            NodeClass::T => 5,
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            NodeClass::S => "S",
            NodeClass::M => "M",
            NodeClass::Is => "Is",
            NodeClass::It => "It",
            NodeClass::L => "L",
            NodeClass::T => "T",
        }
    }
}

/// DAG edge operator classes: the eight of the advanced FMM that the paper's
/// Table II reports, plus the three adaptive-tree operators (`M→L` of the
/// basic method, `S→L` of list 4, `M→T` of list 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    S2T,
    S2M,
    M2M,
    M2I,
    I2I,
    I2L,
    L2L,
    L2T,
    M2L,
    S2L,
    M2T,
}

impl EdgeOp {
    /// Number of operator classes.  Trace class indices `0..COUNT` are
    /// operator spans; higher values are runtime/transport event classes.
    pub const COUNT: usize = 11;

    /// All operator classes, Table II order first.
    pub const ALL: [EdgeOp; Self::COUNT] = [
        EdgeOp::S2T,
        EdgeOp::S2M,
        EdgeOp::M2M,
        EdgeOp::M2I,
        EdgeOp::I2I,
        EdgeOp::I2L,
        EdgeOp::L2L,
        EdgeOp::L2T,
        EdgeOp::M2L,
        EdgeOp::S2L,
        EdgeOp::M2T,
    ];

    /// Index in `0..COUNT`.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&o| o == self).unwrap()
    }

    /// Display name matching the paper ("S→T" style).
    pub fn name(self) -> &'static str {
        match self {
            EdgeOp::S2T => "S→T",
            EdgeOp::S2M => "S→M",
            EdgeOp::M2M => "M→M",
            EdgeOp::M2I => "M→I",
            EdgeOp::I2I => "I→I",
            EdgeOp::I2L => "I→L",
            EdgeOp::L2L => "L→L",
            EdgeOp::L2T => "L→T",
            EdgeOp::M2L => "M→L",
            EdgeOp::S2L => "S→L",
            EdgeOp::M2T => "M→T",
        }
    }

    /// Which sweep of the FMM this operator belongs to (paper Figure 5):
    /// 0 = up the source tree, 1 = source→target bridge, 2 = down the
    /// target tree / final values.
    pub fn sweep(self) -> usize {
        match self {
            EdgeOp::S2M | EdgeOp::M2M => 0,
            EdgeOp::M2I | EdgeOp::I2I | EdgeOp::I2L | EdgeOp::M2L | EdgeOp::S2L | EdgeOp::M2T => 1,
            EdgeOp::S2T | EdgeOp::L2L | EdgeOp::L2T => 2,
        }
    }
}

/// One node of the explicit DAG.
#[derive(Clone, Debug)]
pub struct DagNode {
    /// Node class.
    pub class: NodeClass,
    /// Underlying tree box id (source or target tree according to class).
    pub box_id: u32,
    /// Tree level of the box.
    pub level: u8,
    /// Locality assigned by the distribution policy.
    pub locality: u32,
    /// Payload size in bytes (expansion data or point data).
    pub size_bytes: u32,
    /// Number of inputs that must arrive before the node triggers.
    pub in_degree: u32,
    /// First out-edge in the flat edge array.
    pub first_edge: u32,
    /// Number of out-edges.
    pub out_degree: u32,
}

/// One directed edge: an operator transforming the source node's data into
/// an input of `dst`.
#[derive(Clone, Copy, Debug)]
pub struct DagEdge {
    /// Operator class.
    pub op: EdgeOp,
    /// Destination node id.
    pub dst: u32,
    /// Bytes transferred along the edge.
    pub bytes: u32,
    /// Packed operator parameter (octant, offset, direction… — owned by the
    /// layer that built the DAG; opaque here).
    pub tag: u32,
}

/// The frozen explicit DAG.
#[derive(Debug)]
pub struct Dag {
    nodes: Vec<DagNode>,
    edges: Vec<DagEdge>,
}

impl Dag {
    /// All nodes.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// One node.
    #[inline]
    pub fn node(&self, id: u32) -> &DagNode {
        &self.nodes[id as usize]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-edges of a node.
    #[inline]
    pub fn out_edges(&self, id: u32) -> &[DagEdge] {
        let n = &self.nodes[id as usize];
        &self.edges[n.first_edge as usize..(n.first_edge + n.out_degree) as usize]
    }

    /// All edges, flat.
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// Ids of nodes with no inputs (the ready seeds of an evaluation).
    pub fn sources(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.node(i).in_degree == 0)
            .collect()
    }

    /// Mutable locality assignment (used by distribution policies).
    pub fn set_locality(&mut self, id: u32, locality: u32) {
        self.nodes[id as usize].locality = locality;
    }

    /// Count edges whose endpoints sit on different localities.
    pub fn remote_edge_count(&self) -> usize {
        let mut remote = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            for e in self.out_edges(i as u32) {
                if self.node(e.dst).locality != n.locality {
                    remote += 1;
                }
            }
        }
        remote
    }

    /// Total bytes crossing localities under the current assignment — the
    /// communication volume a distribution policy tries to minimise.
    pub fn remote_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for (i, n) in self.nodes.iter().enumerate() {
            for e in self.out_edges(i as u32) {
                if self.node(e.dst).locality != n.locality {
                    bytes += e.bytes as u64;
                }
            }
        }
        bytes
    }

    /// Verify structural invariants: in-degrees match actual edge counts,
    /// the graph is acyclic (Kahn), `T` nodes are sinks and `S` nodes are
    /// sources.  Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut indeg = vec![0u32; self.nodes.len()];
        for e in &self.edges {
            if e.dst as usize >= self.nodes.len() {
                return Err(format!("edge to nonexistent node {}", e.dst));
            }
            indeg[e.dst as usize] += 1;
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if indeg[i] != n.in_degree {
                return Err(format!(
                    "node {i} ({}) declares in-degree {} but has {} in-edges",
                    n.class.name(),
                    n.in_degree,
                    indeg[i]
                ));
            }
            if n.class == NodeClass::T && n.out_degree != 0 {
                return Err(format!("T node {i} must be a sink"));
            }
            if n.class == NodeClass::S && n.in_degree != 0 {
                return Err(format!("S node {i} must be a source"));
            }
        }
        // Kahn's algorithm for acyclicity.
        let mut ready: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .collect();
        let mut seen = 0usize;
        while let Some(id) = ready.pop() {
            seen += 1;
            for e in self.out_edges(id) {
                indeg[e.dst as usize] -= 1;
                if indeg[e.dst as usize] == 0 {
                    ready.push(e.dst);
                }
            }
        }
        if seen != self.nodes.len() {
            return Err(format!(
                "cycle detected: {} of {} nodes ordered",
                seen,
                self.nodes.len()
            ));
        }
        Ok(())
    }

    /// Length (in edges) of the longest path, and per-node earliest depth —
    /// the unit-cost critical path of the evaluation.
    pub fn critical_path_len(&self) -> usize {
        let mut indeg: Vec<u32> = self.nodes.iter().map(|n| n.in_degree).collect();
        let mut depth = vec![0usize; self.nodes.len()];
        let mut ready: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .collect();
        let mut longest = 0;
        while let Some(id) = ready.pop() {
            let d = depth[id as usize];
            longest = longest.max(d);
            for e in self.out_edges(id) {
                let dd = &mut depth[e.dst as usize];
                *dd = (*dd).max(d + 1);
                indeg[e.dst as usize] -= 1;
                if indeg[e.dst as usize] == 0 {
                    ready.push(e.dst);
                }
            }
        }
        longest
    }
}

/// Incremental DAG construction; freeze with [`DagBuilder::finish`].
///
/// Edges are collected flat, in the order they are added, and bucketed by
/// source once, at [`DagBuilder::finish`].
#[derive(Default)]
pub struct DagBuilder {
    nodes: Vec<DagNode>,
    /// Every edge added so far, with its source node.
    edges: Vec<(u32, DagEdge)>,
}

impl DagBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; locality starts at 0 (policies assign later).
    pub fn add_node(&mut self, class: NodeClass, box_id: u32, level: u8, size_bytes: u32) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(DagNode {
            class,
            box_id,
            level,
            locality: 0,
            size_bytes,
            in_degree: 0,
            first_edge: 0,
            out_degree: 0,
        });
        id
    }

    /// Add an edge `src → dst`.
    pub fn add_edge(&mut self, src: u32, op: EdgeOp, dst: u32, bytes: u32, tag: u32) {
        debug_assert!((src as usize) < self.nodes.len());
        debug_assert!((dst as usize) < self.nodes.len());
        self.edges.push((
            src,
            DagEdge {
                op,
                dst,
                bytes,
                tag,
            },
        ));
        self.nodes[dst as usize].in_degree += 1;
    }

    /// Current node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Freeze into a [`Dag`]: a counting pass buckets the edges by source,
    /// each node's out-edges in the order they were added (does not
    /// validate — call [`Dag::validate`] separately where the cost is
    /// acceptable).
    pub fn finish(mut self) -> Dag {
        for &(src, _) in &self.edges {
            self.nodes[src as usize].out_degree += 1;
        }
        let mut next = 0u32;
        for n in &mut self.nodes {
            n.first_edge = next;
            next += n.out_degree;
        }
        let mut cursor: Vec<u32> = self.nodes.iter().map(|n| n.first_edge).collect();
        let placeholder = DagEdge {
            op: EdgeOp::S2T,
            dst: 0,
            bytes: 0,
            tag: 0,
        };
        let mut edges = vec![placeholder; self.edges.len()];
        for (src, e) in self.edges {
            let at = &mut cursor[src as usize];
            edges[*at as usize] = e;
            *at += 1;
        }
        Dag {
            nodes: self.nodes,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // S → M → (L, It), It → L, L → T
        let mut b = DagBuilder::new();
        let s = b.add_node(NodeClass::S, 0, 2, 100);
        let m = b.add_node(NodeClass::M, 0, 2, 880);
        let it = b.add_node(NodeClass::It, 1, 2, 5000);
        let l = b.add_node(NodeClass::L, 1, 2, 880);
        let t = b.add_node(NodeClass::T, 1, 2, 100);
        b.add_edge(s, EdgeOp::S2M, m, 880, 0);
        b.add_edge(m, EdgeOp::M2L, l, 880, 0);
        b.add_edge(m, EdgeOp::M2I, it, 5000, 0);
        b.add_edge(it, EdgeOp::I2L, l, 880, 0);
        b.add_edge(l, EdgeOp::L2T, t, 100, 0);
        b.finish()
    }

    #[test]
    fn build_and_validate() {
        let d = diamond();
        assert_eq!(d.num_nodes(), 5);
        assert_eq!(d.num_edges(), 5);
        d.validate().expect("diamond is a valid DAG");
        assert_eq!(d.sources(), vec![0]);
        assert_eq!(d.node(3).in_degree, 2);
    }

    #[test]
    fn out_edges_slicing() {
        let d = diamond();
        assert_eq!(d.out_edges(1).len(), 2);
        assert_eq!(d.out_edges(4).len(), 0);
        assert_eq!(d.out_edges(0)[0].op, EdgeOp::S2M);
    }

    #[test]
    fn critical_path() {
        let d = diamond();
        // S→M→It→L→T = 4 edges.
        assert_eq!(d.critical_path_len(), 4);
    }

    #[test]
    fn cycle_detected() {
        let mut b = DagBuilder::new();
        let a = b.add_node(NodeClass::M, 0, 2, 8);
        let c = b.add_node(NodeClass::M, 1, 2, 8);
        b.add_edge(a, EdgeOp::M2M, c, 8, 0);
        b.add_edge(c, EdgeOp::M2M, a, 8, 0);
        let d = b.finish();
        assert!(d.validate().is_err());
    }

    #[test]
    fn bad_declared_in_degree_detected() {
        let mut b = DagBuilder::new();
        let a = b.add_node(NodeClass::S, 0, 2, 8);
        let c = b.add_node(NodeClass::M, 0, 2, 8);
        b.add_edge(a, EdgeOp::S2M, c, 8, 0);
        let mut d = b.finish();
        // Corrupt the in-degree.
        d.nodes[1].in_degree = 5;
        assert!(d.validate().is_err());
    }

    #[test]
    fn t_must_be_sink() {
        let mut b = DagBuilder::new();
        let t = b.add_node(NodeClass::T, 0, 2, 8);
        let m = b.add_node(NodeClass::M, 0, 2, 8);
        b.add_edge(t, EdgeOp::M2M, m, 8, 0);
        assert!(b.finish().validate().is_err());
    }

    #[test]
    fn remote_edges_counted() {
        let mut d = diamond();
        assert_eq!(d.remote_edge_count(), 0);
        d.set_locality(1, 1); // M on another locality
                              // S→M, M→L, M→It become remote.
        assert_eq!(d.remote_edge_count(), 3);
    }

    #[test]
    fn class_and_op_tables() {
        assert_eq!(NodeClass::ALL.len(), 6);
        for (i, c) in NodeClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(EdgeOp::ALL.len(), 11);
        for (i, o) in EdgeOp::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
        assert_eq!(EdgeOp::S2M.sweep(), 0);
        assert_eq!(EdgeOp::I2I.sweep(), 1);
        assert_eq!(EdgeOp::L2T.sweep(), 2);
    }
}
