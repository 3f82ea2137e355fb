//! The scheduling plan: one priority class per DAG node, and what a fired
//! node spawns.
//!
//! The paper's §VI proposal is to "present work in an order that emphasizes
//! the critical tasks".  A [`SchedPlan`] is that order as *data* over the
//! task graph, for the simulator's §VI study (the threaded runtime has one
//! run queue and no priorities).  The simulator asks it two questions — at
//! what class does this node's continuation run, and does its out-edge list
//! split into an urgent part and a deferred bulk part — and does not know
//! which policy produced the answers.  Three constructors cover the
//! schedules the repo studies:
//!
//! * [`SchedPlan::flat`] — every node `NORMAL_CLASS`: the paper's measured
//!   priority-oblivious baseline (§V);
//! * [`SchedPlan::binary`] — the paper's two-class fix: `S` and `M` nodes
//!   (the source-tree up-sweep) at class 0, so the urgent edges are exactly
//!   `S→M`/`M→M`;
//! * [`SchedPlan::lattice`] — following Agullo et al. ("Pipelining the Fast
//!   Multipole Method over a Runtime System"), every node ranked by its
//!   weighted longest-path distance to a sink, so work on the critical chain
//!   drains first and upward / transfer / downward phases interleave.
//!   Boundary boxes whose results feed remote consumers are bumped one class
//!   more urgent so their `M→L`-family parcels enter the network earliest,
//!   and a parcel runs one class ahead of its destination where it lands
//!   (see [`SchedPlan::lattice`]).
//!
//! SPMD determinism is load-bearing: every locality builds the plan
//! independently over the same replicated DAG, and the classes must agree
//! bit-for-bit (the same class of invariant as the PR 2 placement
//! tie-break).  The constructors therefore use only index-ordered array
//! walks — no hash-map iteration — and [`SchedPlan::fingerprint`] lets
//! callers assert agreement across ranks.

use crate::graph::{Dag, DagEdge, EdgeOp, NodeClass};

/// Number of graded priority classes.  Class 0 is the most urgent; class
/// `PRIORITY_CLASSES - 1` the least.  Eight classes are enough to separate
/// the up-sweep spine from bulk `M→L` traffic without bloating the
/// per-class run queues.
pub const PRIORITY_CLASSES: usize = 8;

/// The middle class unranked work runs at (every node of
/// [`SchedPlan::flat`]).  Classes below it are *urgent*.
pub const NORMAL_CLASS: u8 = (PRIORITY_CLASSES / 2) as u8;

/// What a fired node spawns (see [`SchedPlan::on_fire`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fire {
    /// One task processes every out-edge ([`EdgePart::All`]) at `class`.
    One {
        /// The node's own class.
        class: u8,
    },
    /// The out-edge list holds both urgent and bulk edges: the
    /// [`EdgePart::Urgent`] slice runs at the node's own class and the
    /// [`EdgePart::Bulk`] remainder is deferred to a second task.
    Split {
        /// The node's own class.
        urgent_class: u8,
        /// Class of the deferred bulk task.
        bulk_class: u8,
    },
}

/// Which slice of a node's out-edge list one task processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgePart {
    /// Every out-edge.
    All,
    /// Edges into destinations more urgent than [`NORMAL_CLASS`].
    Urgent,
    /// The non-urgent remainder.
    Bulk,
}

/// `bulk` table entry of a node whose out-edge list does not split.
const NO_SPLIT: u8 = u8::MAX;

/// Per-operator weight hint for the lattice's longest-path pass, in
/// arbitrary relative units (1.0 = average operator).
///
/// The default is uniform (pure graph distance).  A previous run's — or the
/// simulator's — `CriticalPathReport::per_class_ns` can warm the lattice via
/// [`LatticeHint::from_per_class_ns`]: operators that dominated the observed
/// critical path weigh more, pulling their upstream producers toward class 0.
#[derive(Clone, Debug)]
pub struct LatticeHint {
    /// Relative weight per [`EdgeOp`] (indexed by [`EdgeOp::index`]).
    pub op_weight: [f64; EdgeOp::COUNT],
}

impl Default for LatticeHint {
    fn default() -> Self {
        Self::uniform()
    }
}

impl LatticeHint {
    /// Uniform weights: the lattice degenerates to unit-cost graph distance.
    pub fn uniform() -> Self {
        Self {
            op_weight: [1.0; EdgeOp::COUNT],
        }
    }

    /// Build a hint from observed per-class on-critical-path time (the
    /// leading `EdgeOp::COUNT` entries of `CriticalPathReport::per_class_ns`;
    /// longer slices are truncated, trailing runtime/transport classes are
    /// ignored).  Weights are normalized so the mean observed operator is
    /// 1.0 and clamped to `[0.25, 4.0]` — the hint *tilts* the lattice, it
    /// must not collapse unobserved operators to zero urgency.
    pub fn from_per_class_ns(per_class_ns: &[u64]) -> Self {
        let mut w = [1.0f64; EdgeOp::COUNT];
        let observed: Vec<f64> = per_class_ns
            .iter()
            .take(EdgeOp::COUNT)
            .map(|&ns| ns as f64)
            .collect();
        let nonzero: Vec<f64> = observed.iter().copied().filter(|&x| x > 0.0).collect();
        if nonzero.is_empty() {
            return Self { op_weight: w };
        }
        let mean = nonzero.iter().sum::<f64>() / nonzero.len() as f64;
        for (i, &ns) in observed.iter().enumerate() {
            if ns > 0.0 {
                w[i] = (ns / mean).clamp(0.25, 4.0);
            }
        }
        Self { op_weight: w }
    }
}

/// The plan: one priority class per DAG node (0 = most urgent) plus, per
/// node, whether its out-edge list splits when it fires.
///
/// A pure function of the DAG (nodes, edges, locality assignment) and the
/// constructor's arguments — identical on every locality that holds the
/// same DAG.  Rebuild it after redistributing the DAG.
#[derive(Clone, Debug)]
pub struct SchedPlan {
    class: Vec<u8>,
    /// Class of the node's deferred bulk task, [`NO_SPLIT`] if it fires as
    /// one task.  Fixed at construction, so a fire is a table read.
    bulk: Vec<u8>,
    /// How many classes ahead of its most urgent destination a parcel runs
    /// where it lands: 1 for the lattice, 0 for the flat and binary plans.
    parcel_lead: u8,
}

impl SchedPlan {
    /// Every node at [`NORMAL_CLASS`]: no node splits, every task and
    /// parcel is `Normal`.
    pub fn flat(dag: &Dag) -> Self {
        let n = dag.num_nodes();
        Self {
            class: vec![NORMAL_CLASS; n],
            bulk: vec![NO_SPLIT; n],
            parcel_lead: 0,
        }
    }

    /// The paper's binary proposal (§VI): `S` and `M` nodes at class 0,
    /// everything else at [`NORMAL_CLASS`].  The urgent edges are then
    /// exactly `S→M`/`M→M`, and an `S`/`M` node that also carries bulk
    /// edges defers them at [`NORMAL_CLASS`].
    pub fn binary(dag: &Dag) -> Self {
        let class = dag
            .nodes()
            .iter()
            .map(|nd| match nd.class {
                NodeClass::S | NodeClass::M => 0,
                _ => NORMAL_CLASS,
            })
            .collect();
        Self::with_splits(dag, class)
    }

    /// Rank every node by weighted distance-to-sink, quantized into
    /// [`PRIORITY_CLASSES`] classes, with boundary nodes (any out-edge
    /// crossing localities) bumped one class more urgent.
    ///
    /// The longest-path pass runs over the reverse topological order
    /// produced by a Kahn peel of out-degrees; ties resolve identically on
    /// every rank because only node indices order the work.
    ///
    /// A parcel runs one class ahead of its destination where it lands, so
    /// arriving edges interleave with the local work of that class instead
    /// of queueing behind all of it.  Each parcel pays a task and a per-edge
    /// handling overhead; a phase's parcels drained together at its end are
    /// a utilization dip of pure overhead.  The lead sits on the receiving
    /// side only: deferred bulk runs at its destinations' class wherever
    /// they live, so a node's remote bulk leaves in step with its local
    /// bulk rather than all ahead of it in one burst of arrivals.
    pub fn lattice(dag: &Dag, hint: &LatticeHint) -> Self {
        let n = dag.num_nodes();
        let mut dist = vec![0.0f64; n];
        let mut remaining: Vec<u32> = dag.nodes().iter().map(|nd| nd.out_degree).collect();
        // Count of unprocessed out-edges per node; a node's distance is
        // final once all its successors are final.  Seed with sinks.
        let mut stack: Vec<u32> = (0..n as u32)
            .filter(|&i| remaining[i as usize] == 0)
            .collect();
        // Reverse adjacency without allocation-per-node churn: walk edges
        // once to build CSR-style in-edge lists.
        let mut in_off = vec![0u32; n + 1];
        for e in dag.edges() {
            in_off[e.dst as usize + 1] += 1;
        }
        for i in 0..n {
            in_off[i + 1] += in_off[i];
        }
        let mut in_src = vec![0u32; dag.num_edges()];
        let mut in_w = vec![0.0f64; dag.num_edges()];
        let mut cursor = in_off.clone();
        for src in 0..n {
            for e in dag.out_edges(src as u32) {
                let c = &mut cursor[e.dst as usize];
                in_src[*c as usize] = src as u32;
                in_w[*c as usize] = hint.op_weight[e.op.index()];
                *c += 1;
            }
        }
        let mut seen = 0usize;
        while let Some(id) = stack.pop() {
            seen += 1;
            let d = dist[id as usize];
            let (lo, hi) = (
                in_off[id as usize] as usize,
                in_off[id as usize + 1] as usize,
            );
            for k in lo..hi {
                let src = in_src[k] as usize;
                let cand = d + in_w[k];
                if cand > dist[src] {
                    dist[src] = cand;
                }
                remaining[src] -= 1;
                if remaining[src] == 0 {
                    stack.push(src as u32);
                }
            }
        }
        debug_assert_eq!(seen, n, "lattice pass requires an acyclic DAG");
        let crit = dist.iter().cloned().fold(0.0f64, f64::max);
        let mut ranks = Vec::with_capacity(n);
        for (i, nd) in dag.nodes().iter().enumerate() {
            let mut r = if crit > 0.0 {
                // dist == crit → class 0; sinks → the last class.
                let frac = 1.0 - dist[i] / crit;
                ((frac * PRIORITY_CLASSES as f64) as usize).min(PRIORITY_CLASSES - 1)
            } else {
                PRIORITY_CLASSES - 1
            };
            // Boundary boost: producers feeding a remote consumer go one
            // class more urgent so their parcels hit the wire earliest.
            let boundary = dag
                .out_edges(i as u32)
                .iter()
                .any(|e| dag.node(e.dst).locality != nd.locality);
            if boundary {
                r = r.saturating_sub(1);
            }
            ranks.push(r as u8);
        }
        Self {
            parcel_lead: 1,
            ..Self::with_splits(dag, ranks)
        }
    }

    /// Fix every node's split from its out-edge classes: a node splits iff
    /// it has both an urgent and a bulk out-edge, and its bulk task runs at
    /// the most urgent class among the bulk destinations.
    fn with_splits(dag: &Dag, class: Vec<u8>) -> Self {
        let bulk = (0..dag.num_nodes() as u32)
            .map(|id| {
                let mut urgent = false;
                let mut bulk = NO_SPLIT;
                for e in dag.out_edges(id) {
                    let c = class[e.dst as usize];
                    if c < NORMAL_CLASS {
                        urgent = true;
                    } else {
                        bulk = bulk.min(c);
                    }
                }
                if urgent {
                    bulk
                } else {
                    NO_SPLIT
                }
            })
            .collect();
        Self {
            class,
            bulk,
            parcel_lead: 0,
        }
    }

    /// Priority class of a node (0 = most urgent): the class its
    /// continuation runs at, and the class of work producing into it.
    #[inline]
    pub fn class(&self, node: u32) -> u8 {
        self.class[node as usize]
    }

    /// All classes, node-indexed.
    pub fn classes(&self) -> &[u8] {
        &self.class
    }

    /// Whether every node sits at [`NORMAL_CLASS`] (the plan emits a single
    /// class of work).
    pub fn is_flat(&self) -> bool {
        self.class.iter().all(|&c| c == NORMAL_CLASS)
    }

    /// What firing `node` spawns.
    #[inline]
    pub fn on_fire(&self, node: u32) -> Fire {
        let class = self.class[node as usize];
        match self.bulk[node as usize] {
            NO_SPLIT => Fire::One { class },
            bulk_class => Fire::Split {
                urgent_class: class,
                bulk_class,
            },
        }
    }

    /// Whether out-edge `e` belongs to the `part` slice of its list.
    #[inline]
    pub fn selects(&self, part: EdgePart, e: &DagEdge) -> bool {
        match part {
            EdgePart::All => true,
            EdgePart::Urgent => self.class[e.dst as usize] < NORMAL_CLASS,
            EdgePart::Bulk => self.class[e.dst as usize] >= NORMAL_CLASS,
        }
    }

    /// Class of a coalesced bundle of remote edges (flat edge indices into
    /// `dag`): the most urgent class among their destinations, less the
    /// plan's parcel lead, so the wire and the receiving run queue see the
    /// same plan the sender does.
    pub fn bundle_class(&self, dag: &Dag, edge_ids: &[u32]) -> u8 {
        edge_ids
            .iter()
            .map(|&eid| self.class[dag.edges()[eid as usize].dst as usize])
            .min()
            .map_or(NORMAL_CLASS, |c| c.saturating_sub(self.parcel_lead))
    }

    /// Nodes per class.
    pub fn histogram(&self) -> [usize; PRIORITY_CLASSES] {
        let mut h = [0usize; PRIORITY_CLASSES];
        for &c in &self.class {
            h[c as usize] += 1;
        }
        h
    }

    /// FNV-1a over the class bytes.  Every locality must produce the same
    /// fingerprint for the same DAG; multi-process runs compare it across
    /// ranks to catch ordering divergence.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for &c in &self.class {
            h ^= c as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;

    fn chain_with_branch() -> Dag {
        // S → M → It → L → T  (spine), plus S2 → T2 short branch; the spine
        // head also feeds T2, so it carries one up-sweep and one bulk edge.
        let mut b = DagBuilder::new();
        let s = b.add_node(NodeClass::S, 0, 3, 100);
        let m = b.add_node(NodeClass::M, 0, 3, 880);
        let it = b.add_node(NodeClass::It, 1, 3, 5000);
        let l = b.add_node(NodeClass::L, 1, 3, 880);
        let t = b.add_node(NodeClass::T, 1, 3, 100);
        let s2 = b.add_node(NodeClass::S, 2, 3, 100);
        let t2 = b.add_node(NodeClass::T, 2, 3, 100);
        b.add_edge(s, EdgeOp::S2M, m, 880, 0);
        b.add_edge(s, EdgeOp::S2T, t2, 100, 0);
        b.add_edge(m, EdgeOp::M2I, it, 5000, 0);
        b.add_edge(it, EdgeOp::I2L, l, 880, 0);
        b.add_edge(l, EdgeOp::L2T, t, 100, 0);
        b.add_edge(s2, EdgeOp::S2T, t2, 100, 0);
        b.finish()
    }

    #[test]
    fn spine_outranks_short_branch() {
        let d = chain_with_branch();
        let lat = SchedPlan::lattice(&d, &LatticeHint::uniform());
        // The head of the 4-edge spine is the most urgent node.
        assert_eq!(lat.class(0), 0);
        // The short S→T branch head is strictly less urgent.
        assert!(lat.class(5) > lat.class(0));
        // Urgency decays monotonically down the spine.
        assert!(lat.class(1) >= lat.class(0));
        assert!(lat.class(3) >= lat.class(1));
        assert!(lat.class(4) >= lat.class(3));
    }

    #[test]
    fn boundary_boost_promotes_remote_producers() {
        let mut d = chain_with_branch();
        let base = SchedPlan::lattice(&d, &LatticeHint::uniform());
        d.set_locality(2, 1); // It remote ⇒ M gains a remote consumer.
        let boosted = SchedPlan::lattice(&d, &LatticeHint::uniform());
        assert!(boosted.class(1) <= base.class(1));
        // A node already at class 0 saturates rather than underflowing.
        assert_eq!(boosted.class(0), 0);
    }

    #[test]
    fn hint_tilts_ranks() {
        let d = chain_with_branch();
        // Make S→T enormously expensive: the short branch becomes critical.
        let mut per_class = vec![0u64; EdgeOp::COUNT];
        per_class[EdgeOp::S2T.index()] = 1_000_000;
        per_class[EdgeOp::S2M.index()] = 1_000;
        let hint = LatticeHint::from_per_class_ns(&per_class);
        assert!(hint.op_weight[EdgeOp::S2T.index()] > hint.op_weight[EdgeOp::S2M.index()]);
        let uniform = SchedPlan::lattice(&d, &LatticeHint::uniform());
        let lat = SchedPlan::lattice(&d, &hint);
        // The expensive branch head gains urgency relative to pure graph
        // distance; the spine head stays most urgent.
        assert!(lat.class(5) < uniform.class(5));
        assert_eq!(lat.class(0), 0);
    }

    #[test]
    fn fingerprint_tracks_ranks() {
        let d = chain_with_branch();
        let a = SchedPlan::lattice(&d, &LatticeHint::uniform());
        let b = SchedPlan::lattice(&d, &LatticeHint::uniform());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut per_class = vec![0u64; EdgeOp::COUNT];
        per_class[EdgeOp::S2T.index()] = 1_000_000;
        per_class[EdgeOp::S2M.index()] = 1_000;
        let c = SchedPlan::lattice(&d, &LatticeHint::from_per_class_ns(&per_class));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn histogram_sums_to_node_count() {
        let d = chain_with_branch();
        let lat = SchedPlan::lattice(&d, &LatticeHint::uniform());
        assert_eq!(lat.histogram().iter().sum::<usize>(), d.num_nodes());
    }

    #[test]
    fn empty_hint_is_uniform() {
        let h = LatticeHint::from_per_class_ns(&[]);
        assert!(h.op_weight.iter().all(|&w| w == 1.0));
    }

    /// Out-edges of `id` that `part` selects, as destination ids.
    fn selected(plan: &SchedPlan, d: &Dag, id: u32, part: EdgePart) -> Vec<u32> {
        d.out_edges(id)
            .iter()
            .filter(|e| plan.selects(part, e))
            .map(|e| e.dst)
            .collect()
    }

    #[test]
    fn flat_plan_fires_one_normal_task_per_node() {
        let d = chain_with_branch();
        let plan = SchedPlan::flat(&d);
        assert!(plan.is_flat());
        for id in 0..d.num_nodes() as u32 {
            assert_eq!(
                plan.on_fire(id),
                Fire::One {
                    class: NORMAL_CLASS
                }
            );
            assert!(selected(&plan, &d, id, EdgePart::Urgent).is_empty());
            assert_eq!(
                selected(&plan, &d, id, EdgePart::Bulk),
                selected(&plan, &d, id, EdgePart::All)
            );
        }
        assert_eq!(plan.bundle_class(&d, &[0, 1, 2]), NORMAL_CLASS);
    }

    #[test]
    fn binary_plan_splits_the_up_sweep_from_the_bulk() {
        let d = chain_with_branch();
        let plan = SchedPlan::binary(&d);
        assert!(!plan.is_flat());
        // S and M nodes run at class 0 whether or not they feed the
        // up-sweep (M = 1 has only an M→I edge); the rest are Normal.
        assert_eq!(plan.classes(), &[0, 0, 4, 4, 4, 0, 4]);
        // The mixed head defers its S→T edge at Normal.
        assert_eq!(
            plan.on_fire(0),
            Fire::Split {
                urgent_class: 0,
                bulk_class: NORMAL_CLASS
            }
        );
        assert_eq!(selected(&plan, &d, 0, EdgePart::Urgent), vec![1]);
        assert_eq!(selected(&plan, &d, 0, EdgePart::Bulk), vec![6]);
        // No up-sweep out-edge ⇒ one task, still at the node's class.
        assert_eq!(plan.on_fire(1), Fire::One { class: 0 });
        assert_eq!(plan.on_fire(5), Fire::One { class: 0 });
        assert_eq!(
            plan.on_fire(2),
            Fire::One {
                class: NORMAL_CLASS
            }
        );
        // A bundle is as urgent as its most urgent destination.
        assert_eq!(plan.bundle_class(&d, &[0, 1]), 0);
        assert_eq!(plan.bundle_class(&d, &[1]), NORMAL_CLASS);
        assert_eq!(plan.bundle_class(&d, &[]), NORMAL_CLASS);
    }

    #[test]
    fn lattice_plan_splits_by_rank_and_boosts_remote_bulk() {
        let mut d = chain_with_branch();
        let plan = SchedPlan::lattice(&d, &LatticeHint::uniform());
        // Spine: S(0) → M(2) → It(4) → L(6) → T(7); the branch sink T2 = 7.
        assert_eq!(plan.classes(), &[0, 2, 4, 6, 7, 6, 7]);
        assert_eq!(
            plan.on_fire(0),
            Fire::Split {
                urgent_class: 0,
                bulk_class: 7
            }
        );
        assert_eq!(selected(&plan, &d, 0, EdgePart::Urgent), vec![1]);
        assert_eq!(selected(&plan, &d, 0, EdgePart::Bulk), vec![6]);
        assert_eq!(plan.on_fire(1), Fire::One { class: 2 });
        // Moving the bulk consumer to another locality boosts the producer
        // (already at class 0) but leaves the deferred task at its
        // destination's class: the sender does not run remote bulk ahead.
        d.set_locality(6, 1);
        let remote = SchedPlan::lattice(&d, &LatticeHint::uniform());
        assert_eq!(remote.on_fire(0), plan.on_fire(0));
        assert_eq!(
            SchedPlan::binary(&d).on_fire(0),
            Fire::Split {
                urgent_class: 0,
                bulk_class: NORMAL_CLASS
            }
        );
        // Where it lands, a lattice parcel runs one class ahead of its most
        // urgent destination; a binary one does not.
        assert_eq!(remote.bundle_class(&d, &[1]), 6);
        assert_eq!(remote.bundle_class(&d, &[1, 2]), 3);
        assert_eq!(remote.bundle_class(&d, &[0]), 1);
        assert_eq!(SchedPlan::binary(&d).bundle_class(&d, &[1]), NORMAL_CLASS);
    }
}
