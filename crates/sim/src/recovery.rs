//! Analytic model of the runtime's locality-failure recovery protocol.
//!
//! Mirrors the real recovery pipeline (`dashmm-core`): a dead locality's
//! DAG nodes are re-owned across the survivors, every edge into a
//! re-owned destination is replayed and re-applied at the new owner, and
//! edges that already landed on survivors are absorbed by the dedup
//! bitmap at negligible cost.  The estimate prices the three phases —
//! detection (the heartbeat suspicion window), recompute (operator work
//! re-executed at new owners), and replay communication — so `chaos
//! --recover` can report a sim-side figure next to the measured one.
//!
//! The node and edge *counts* are exact: the re-owned set is determined
//! by the distribution (`locality.min(n_loc-1) == dead`), the same rule
//! the runtime fences on.  The *timing* is a late-failure upper bound:
//! it assumes every source had fired before the failure, so every edge
//! into a re-owned destination is replayed.  Which survivor a box hashes
//! to is irrelevant to the totals, so the Morton re-ownership hash is
//! modelled as a uniform spread over the survivors.

use dashmm_dag::Dag;

use crate::cost::{CostModel, NetworkModel};
use crate::engine::SimConfig;

/// Bytes of one replayed edge descriptor inside a coalesced parcel.
const EDGE_DESCRIPTOR_BYTES: u64 = 4;

/// Predicted cost of recovering from the loss of one locality.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryEstimate {
    /// Time to convict the dead peer (the heartbeat suspicion window).
    pub detect_us: f64,
    /// Operator work re-executed at the new owners, spread over the
    /// surviving cores.
    pub recompute_us: f64,
    /// Replay traffic: expansion payloads re-sent to re-owned
    /// destinations on other localities.
    pub replay_comm_us: f64,
    /// End-to-end recovery cost: detection + recompute + replay.
    pub total_us: f64,
    /// DAG nodes the dead locality owned.
    pub reowned_nodes: u64,
    /// Edges into re-owned destinations (each re-applied exactly once at
    /// its new owner; duplicates die in the dedup bitmap).
    pub replayed_edges: u64,
}

/// Estimate the cost of recovering `dag` after locality `dead` (of
/// `cfg.localities`) is lost, with failure detection bounded by
/// `suspicion_us` (the transport's heartbeat suspicion window).
pub fn estimate_recovery(
    dag: &Dag,
    cost: &CostModel,
    net: &NetworkModel,
    cfg: &SimConfig,
    dead: u32,
    suspicion_us: f64,
) -> RecoveryEstimate {
    let n_loc = cfg.localities as u32;
    assert!(n_loc >= 2, "recovery needs at least one survivor");
    assert!(
        dead != 0 && dead < n_loc,
        "recovery covers losing a non-root locality"
    );
    let survivors = (n_loc - 1) as f64;
    let owner = |id: u32| dag.node(id).locality.min(n_loc - 1);

    let mut reowned_nodes = 0u64;
    let mut replayed_edges = 0u64;
    let mut recompute_serial_us = 0.0;
    let mut replay_bytes = 0u64;
    let mut replay_msgs = 0u64;
    // Expected fraction of replayed edges whose (replaying) source and
    // re-owned destination land on different survivors under a uniform
    // re-ownership hash.
    let remote_frac = (survivors - 1.0) / survivors;
    for id in 0..dag.num_nodes() as u32 {
        let node = dag.node(id);
        if owner(id) == dead {
            reowned_nodes += 1;
            recompute_serial_us += cost.task_overhead_us;
        }
        for e in dag.out_edges(id) {
            if owner(e.dst) != dead {
                continue;
            }
            replayed_edges += 1;
            recompute_serial_us += cost.edge_us(e.op);
            let bytes = node.size_bytes as u64 + EDGE_DESCRIPTOR_BYTES;
            if owner(id) == dead {
                // Source re-owned too: remote with probability
                // (survivors-1)/survivors against its destination.
                replay_bytes += (bytes as f64 * remote_frac) as u64;
            } else {
                // Surviving source replays toward a uniformly re-hashed
                // destination: same expected remote fraction.
                replay_bytes += (bytes as f64 * remote_frac) as u64;
            }
            replay_msgs += 1;
        }
    }

    let cores = survivors * cfg.cores_per_locality as f64;
    let recompute_us = recompute_serial_us / cores.max(1.0);
    // Replay parcels are coalesced like normal remote edges; charge the
    // posting overhead per edge and the pipe for the payload bytes,
    // spread over the survivors replaying in parallel.
    let replay_comm_us = (replay_msgs as f64 * net.send_overhead_us
        + net.latency_us
        + replay_bytes as f64 / net.bytes_per_us)
        / survivors.max(1.0);
    let total_us = suspicion_us + recompute_us + replay_comm_us;
    RecoveryEstimate {
        detect_us: suspicion_us,
        recompute_us,
        replay_comm_us,
        total_us,
        reowned_nodes,
        replayed_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(localities: usize) -> SimConfig {
        SimConfig {
            localities,
            cores_per_locality: 2,
            levelwise: false,
            trace: false,
        }
    }

    /// A 3-node chain 0 → 1 → 2 with node i owned by locality i.
    fn chain() -> Dag {
        let mut b = dashmm_dag::DagBuilder::new();
        use dashmm_dag::{EdgeOp, NodeClass};
        let a = b.add_node(NodeClass::M, 0, 1, 100);
        let m = b.add_node(NodeClass::M, 1, 1, 100);
        let t = b.add_node(NodeClass::L, 2, 1, 100);
        b.add_edge(a, EdgeOp::M2M, m, 100, 0);
        b.add_edge(m, EdgeOp::M2L, t, 100, 0);
        let mut dag = b.finish();
        for (id, loc) in [(a, 0u32), (m, 1), (t, 2)] {
            dag.set_locality(id, loc);
        }
        dag
    }

    #[test]
    fn losing_a_rank_counts_its_nodes_and_inbound_edges() {
        let dag = chain();
        let est = estimate_recovery(
            &dag,
            &CostModel::paper_table2(),
            &NetworkModel::gemini(),
            &cfg(3),
            1,
            1_000_000.0,
        );
        assert_eq!(est.reowned_nodes, 1);
        assert_eq!(est.replayed_edges, 1); // the M2M edge into node 1
        assert!(est.recompute_us > 0.0);
        assert!(est.total_us >= est.detect_us);
    }

    #[test]
    fn detection_window_dominates_small_failures() {
        let dag = chain();
        let est = estimate_recovery(
            &dag,
            &CostModel::paper_table2(),
            &NetworkModel::gemini(),
            &cfg(3),
            2,
            1_000_000.0,
        );
        // One replayed M2L edge: recompute is microseconds, detection a
        // full second.
        assert!(est.detect_us / est.total_us > 0.99);
    }

    #[test]
    #[should_panic]
    fn rank_zero_loss_is_out_of_scope() {
        let dag = chain();
        estimate_recovery(
            &dag,
            &CostModel::paper_table2(),
            &NetworkModel::gemini(),
            &cfg(3),
            0,
            1_000.0,
        );
    }
}
