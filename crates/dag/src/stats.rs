//! DAG statistics — the data behind the paper's Tables I and II.

use crate::graph::{Dag, EdgeOp, NodeClass};

/// Per-node-class statistics (paper Table I: count, size and min/max
/// in-/out-degree).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeClassStats {
    pub count: u64,
    pub size_min: u32,
    pub size_max: u32,
    /// Σ node sizes: what the class's LCO payloads occupy once installed.
    pub size_total: u64,
    pub din_min: u32,
    pub din_max: u32,
    pub dout_min: u32,
    pub dout_max: u32,
}

/// Per-edge-class statistics (paper Table II: count and message size).
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeClassStats {
    pub count: u64,
    pub bytes_min: u32,
    pub bytes_max: u32,
    pub bytes_total: u64,
}

/// Aggregated statistics of one explicit DAG.
pub struct DagStats {
    /// Indexed by [`NodeClass::index`].
    pub nodes: [NodeClassStats; 6],
    /// Indexed by [`EdgeOp::index`].
    pub edges: [EdgeClassStats; EdgeOp::COUNT],
    /// Total node count.
    pub total_nodes: u64,
    /// Total edge count.
    pub total_edges: u64,
    /// Edges crossing localities under the current assignment.
    pub remote_edges: u64,
    /// Unit-cost critical path length.
    pub critical_path: usize,
}

impl DagStats {
    /// Compute statistics for a DAG.
    pub fn compute(dag: &Dag) -> Self {
        let mut nodes = [NodeClassStats::default(); 6];
        for s in &mut nodes {
            s.size_min = u32::MAX;
            s.din_min = u32::MAX;
            s.dout_min = u32::MAX;
        }
        for n in dag.nodes() {
            let s = &mut nodes[n.class.index()];
            s.count += 1;
            s.size_min = s.size_min.min(n.size_bytes);
            s.size_max = s.size_max.max(n.size_bytes);
            s.size_total += n.size_bytes as u64;
            s.din_min = s.din_min.min(n.in_degree);
            s.din_max = s.din_max.max(n.in_degree);
            s.dout_min = s.dout_min.min(n.out_degree);
            s.dout_max = s.dout_max.max(n.out_degree);
        }
        for s in &mut nodes {
            if s.count == 0 {
                *s = NodeClassStats::default();
            }
        }

        let mut edges = [EdgeClassStats::default(); EdgeOp::COUNT];
        for s in &mut edges {
            s.bytes_min = u32::MAX;
        }
        for e in dag.edges() {
            let s = &mut edges[e.op.index()];
            s.count += 1;
            s.bytes_min = s.bytes_min.min(e.bytes);
            s.bytes_max = s.bytes_max.max(e.bytes);
            s.bytes_total += e.bytes as u64;
        }
        for s in &mut edges {
            if s.count == 0 {
                *s = EdgeClassStats::default();
            }
        }

        DagStats {
            nodes,
            edges,
            total_nodes: dag.num_nodes() as u64,
            total_edges: dag.num_edges() as u64,
            remote_edges: dag.remote_edge_count() as u64,
            critical_path: dag.critical_path_len(),
        }
    }

    /// Render the Table-I-shaped node table.
    pub fn node_table(&self) -> String {
        let mut out =
            String::from("Type        Count     Size [B]        din min/max    dout min/max\n");
        for c in NodeClass::ALL {
            let s = self.nodes[c.index()];
            if s.count == 0 {
                continue;
            }
            let size = if s.size_min == s.size_max {
                format!("{}", s.size_min)
            } else {
                format!("{}-{}", s.size_min, s.size_max)
            };
            out.push_str(&format!(
                "{:<6} {:>10}  {:>14}  {:>7}/{:<7}  {:>7}/{:<7}\n",
                c.name(),
                s.count,
                size,
                s.din_min,
                s.din_max,
                s.dout_min,
                s.dout_max
            ));
        }
        out
    }

    /// Render the Table-II-shaped edge table, with optional measured mean
    /// execution times in microseconds per operator class.
    pub fn edge_table(&self, avg_time_us: Option<&[f64; EdgeOp::COUNT]>) -> String {
        let mut out = String::from("Type     Count       Size [B]        t_avg [µs]\n");
        for o in EdgeOp::ALL {
            let s = self.edges[o.index()];
            if s.count == 0 {
                continue;
            }
            let size = if s.bytes_min == s.bytes_max {
                format!("{}", s.bytes_min)
            } else {
                format!("{}-{}", s.bytes_min, s.bytes_max)
            };
            let t = avg_time_us
                .map(|ts| format!("{:.3}", ts[o.index()]))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<6} {:>10}  {:>14}  {:>10}\n",
                o.name(),
                s.count,
                size,
                t
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;

    fn sample() -> Dag {
        let mut b = DagBuilder::new();
        let s0 = b.add_node(NodeClass::S, 0, 2, 32);
        let s1 = b.add_node(NodeClass::S, 1, 2, 1920);
        let m0 = b.add_node(NodeClass::M, 0, 2, 880);
        let m1 = b.add_node(NodeClass::M, 1, 2, 880);
        let t0 = b.add_node(NodeClass::T, 0, 2, 40);
        b.add_edge(s0, EdgeOp::S2M, m0, 880, 0);
        b.add_edge(s1, EdgeOp::S2M, m1, 880, 0);
        b.add_edge(s0, EdgeOp::S2T, t0, 32, 0);
        b.add_edge(m0, EdgeOp::M2T, t0, 880, 0);
        b.add_edge(m1, EdgeOp::M2T, t0, 880, 0);
        b.finish()
    }

    #[test]
    fn node_stats_ranges() {
        let st = DagStats::compute(&sample());
        let s = st.nodes[NodeClass::S.index()];
        assert_eq!(s.count, 2);
        assert_eq!(s.size_min, 32);
        assert_eq!(s.size_max, 1920);
        assert_eq!(s.din_min, 0);
        assert_eq!(s.din_max, 0);
        assert_eq!(s.dout_min, 1);
        assert_eq!(s.dout_max, 2);
        let t = st.nodes[NodeClass::T.index()];
        assert_eq!(t.din_min, 3);
        assert_eq!(t.dout_max, 0);
    }

    #[test]
    fn edge_stats_counts() {
        let st = DagStats::compute(&sample());
        assert_eq!(st.edges[EdgeOp::S2M.index()].count, 2);
        assert_eq!(st.edges[EdgeOp::M2T.index()].count, 2);
        assert_eq!(st.edges[EdgeOp::S2T.index()].count, 1);
        assert_eq!(st.edges[EdgeOp::I2I.index()].count, 0);
        assert_eq!(st.total_edges, 5);
        assert_eq!(st.edges[EdgeOp::S2M.index()].bytes_total, 1760);
    }

    #[test]
    fn tables_render() {
        let st = DagStats::compute(&sample());
        let nt = st.node_table();
        assert!(nt.contains('S') && nt.contains("1920"));
        assert!(!nt.contains("Is"), "empty classes omitted");
        let et = st.edge_table(Some(&[1.5; EdgeOp::COUNT]));
        assert!(et.contains("S→M") && et.contains("1.500"));
        let et2 = st.edge_table(None);
        assert!(et2.contains('-'));
    }

    #[test]
    fn critical_path_in_stats() {
        let st = DagStats::compute(&sample());
        assert_eq!(st.critical_path, 2); // S→M→T
    }
}
