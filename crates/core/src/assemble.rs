//! Explicit-DAG assembly from the dual tree and interaction lists.
//!
//! This implements the paper's DAG generation (§IV): every source box gets a
//! multipole (`M`) node if anything consumes it, every target box a local
//! (`L`) node if anything produces into it, leaves get `S`/`T` data nodes,
//! and — in the advanced method — source boxes get outgoing-intermediate
//! (`Is`) and target boxes incoming-intermediate (`It`) nodes connected by
//! diagonal `I→I` translations.
//!
//! **Merge-and-shift.**  The `L2` list of a target box is partitioned by
//! direction; within a direction, entries sharing a source parent `P` are
//! merged: each member's outgoing expansion is shifted once to `P`'s center
//! (an `I→I` edge into a *merged slot* of `Is(P)`, exact algebra), and a
//! single `I→I` translation then serves the whole group.  Slots are keyed by
//! `(P, direction, member mask)` and shared across all target boxes seeing
//! the same group, which is what reduces the per-box translation count from
//! up to 189 toward the ~40 the paper cites.

use std::ops::Range;
use std::sync::mpsc;

use dashmm_dag::{Dag, DagBuilder, EdgeOp, NodeClass};
use dashmm_expansion::OperatorLibrary;
use dashmm_kernels::Kernel;
use dashmm_tree::{Direction, DualTree, InteractionLists, Octree};

use crate::exec::{LevelIndex, Levels};
use crate::problem::{Method, Problem};

/// Data layout of an `Is` node: six own-direction regions (width `own_w`
/// each, possibly zero) followed by `n_merged` merged slots (width
/// `merged_w` each, in the *child*-level basis).  Widths are in `f64`s.
#[derive(Clone, Copy, Debug, Default)]
pub struct IsLayout {
    /// Width of one own-direction region (0 when the box has no direct
    /// translations).
    pub own_w: u32,
    /// Width of one merged slot (child-level plane-wave length).
    pub merged_w: u32,
    /// Number of merged slots.
    pub n_merged: u32,
}

impl IsLayout {
    /// Total data length in `f64`s: the node's message size.  Its LCO
    /// stores less (`core::exec`): only the own regions something reads
    /// after the `M→I` flush.
    pub fn total_len(&self) -> usize {
        6 * self.own_w as usize + (self.n_merged * self.merged_w) as usize
    }
}

/// Pack an `I→I` edge tag: 4 bits direction, 14 bits source slot (0 = own
/// region, `k+1` = merged slot `k`), 14 bits destination slot (direction
/// index for translations into `It`, merged slot index for merge shifts).
pub fn pack_i2i(dir: usize, src_slot: u32, dst_slot: u32) -> u32 {
    debug_assert!(dir < 16 && src_slot < (1 << 14) && dst_slot < (1 << 14));
    dir as u32 | (src_slot << 4) | (dst_slot << 18)
}

/// Unpack an `I→I` edge tag.
pub fn unpack_i2i(tag: u32) -> (usize, u32, u32) {
    (
        (tag & 0xf) as usize,
        (tag >> 4) & 0x3fff,
        (tag >> 18) & 0x3fff,
    )
}

/// The assembled explicit DAG plus the box↔node correspondence the executor
/// needs to instantiate the implicit (LCO) DAG.
pub struct Assembly {
    /// The explicit DAG.
    pub dag: Dag,
    /// DAG node id per source box for `S` (−1 = absent), and likewise below.
    pub s_of: Vec<i32>,
    /// `M` node per source box.
    pub m_of: Vec<i32>,
    /// `Is` node per source box.
    pub is_of: Vec<i32>,
    /// `It` node per target box.
    pub it_of: Vec<i32>,
    /// `L` node per target box.
    pub l_of: Vec<i32>,
    /// `T` node per target box.
    pub t_of: Vec<i32>,
    /// Layout of each `Is` node, indexed by DAG node id (the default,
    /// empty layout for every other class).
    pub is_layout: Vec<IsLayout>,
}

impl Assembly {
    /// All seed nodes (zero in-degree, nonzero out-degree).
    pub fn seeds(&self) -> Vec<u32> {
        self.dag
            .sources()
            .into_iter()
            .filter(|&i| self.dag.node(i).out_degree > 0)
            .collect()
    }
}

/// One merged slot of a source parent's `Is` node.
struct MergedSlot {
    /// Direction index of the group's translations.
    dir: u8,
    /// Octants of the member children.
    mask: u8,
    /// The member source boxes, in list order at first appearance: a range
    /// of [`Analysis::members`].
    members: Range<usize>,
}

/// What the analysis pass finds out before any node exists: which nodes
/// each box needs, the merged slots, and the translations.
struct Analysis {
    m_needed: Vec<bool>,
    s_used: Vec<bool>,
    is_own: Vec<bool>,
    it_needed: Vec<bool>,
    has_l: Vec<bool>,
    /// Per source parent box, its merged slots; a slot's number is its
    /// index in the row, the order in which the targets first asked for it.
    slots: Vec<Vec<MergedSlot>>,
    /// The member boxes of every merged slot.
    members: Vec<u32>,
    /// Translations: (src_box, src_slot, dir, tgt_box).
    trans: Vec<(u32, u32, Direction, u32)>,
}

impl Analysis {
    /// Sweep the targets' lists once.  In the advanced method, a target's
    /// `L2` entries are grouped by `(direction, source parent)`, groups in
    /// that order and members in list order: a group of two or more is
    /// served from a merged slot of its parent, keyed by `(direction,
    /// member mask)`, a single member from its own `Is`.  Nothing is
    /// numbered in a hashed order, so every process numbers the slots, and
    /// so the nodes and edges, alike.
    fn run(src: &Octree, tgt: &Octree, lists: &InteractionLists, advanced: bool) -> Self {
        let ns = src.num_nodes();
        let nt = tgt.num_nodes();
        let mut m_direct = vec![false; ns];
        let mut s_used = vec![false; ns];
        let mut is_own = vec![false; ns];
        let mut it_needed = vec![false; nt];
        let mut l_direct = vec![false; nt];
        let mut slots: Vec<Vec<MergedSlot>> = (0..ns).map(|_| Vec::new()).collect();
        let mut members = Vec::new();
        let mut trans = Vec::new();
        // One target's L2 entries, each packed as direction, parent and
        // list index, high to low bits: sorted, they run in groups by
        // (direction, parent), each group in list order.
        let mut group: Vec<u64> = Vec::new();
        let dir_of = |key: u64| (key >> 56) as u8;
        let parent_of = |key: u64| (key >> 16) as u32;
        for t in 0..nt as u32 {
            let bl = lists.of(t);
            for &s in &bl.l1 {
                s_used[s as usize] = true;
            }
            for &s in &bl.l4 {
                s_used[s as usize] = true;
                l_direct[t as usize] = true;
            }
            for &s in &bl.l3 {
                m_direct[s as usize] = true;
            }
            if bl.l2.is_empty() {
                continue;
            }
            l_direct[t as usize] = true;
            if !advanced {
                for e in &bl.l2 {
                    m_direct[e.source as usize] = true;
                }
                continue;
            }
            it_needed[t as usize] = true;
            group.clear();
            for (i, e) in bl.l2.iter().enumerate() {
                let parent = src.node(e.source).parent;
                debug_assert!(parent >= 0, "L2 sources are at level ≥ 2");
                // The list records where the source sits relative to the
                // target; the expansion must propagate the opposite way.
                let dir = e.direction.opposite().index() as u64;
                debug_assert!(i < 1 << 16, "an L2 list holds at most 189 entries");
                group.push(dir << 56 | (parent as u64) << 16 | i as u64);
            }
            group.sort_unstable();
            for run in group.chunk_by(|&a, &b| a >> 16 == b >> 16) {
                let (dir_idx, parent) = (dir_of(run[0]), parent_of(run[0]));
                let dir = Direction::ALL[dir_idx as usize];
                let member = |&key: &u64| bl.l2[(key & 0xffff) as usize].source;
                if run.len() == 1 {
                    let s = member(&run[0]);
                    is_own[s as usize] = true;
                    trans.push((s, 0, dir, t));
                    continue;
                }
                let mask = run
                    .iter()
                    .fold(0u8, |m, e| m | 1 << src.node(member(e)).key.octant());
                let row = &mut slots[parent as usize];
                let slot = match row.iter().position(|m| (m.dir, m.mask) == (dir_idx, mask)) {
                    Some(slot) => slot,
                    None => {
                        let at = members.len();
                        for e in run {
                            is_own[member(e) as usize] = true;
                            members.push(member(e));
                        }
                        row.push(MergedSlot {
                            dir: dir_idx,
                            mask,
                            members: at..members.len(),
                        });
                        row.len() - 1
                    }
                };
                trans.push((parent, slot as u32 + 1, dir, t));
            }
        }
        // Own outgoing expansions are formed from the multipole.
        for b in 0..ns {
            if is_own[b] {
                m_direct[b] = true;
            }
        }
        // M is needed wherever an ancestor needs it (children feed parents).
        let mut m_needed = m_direct;
        for b in 0..ns {
            let p = src.node(b as u32).parent;
            if p >= 0 && m_needed[p as usize] {
                m_needed[b] = true;
            }
        }
        for b in 0..ns {
            if m_needed[b] && src.node(b as u32).is_leaf() {
                s_used[b] = true;
            }
        }
        // L content flows down the target tree.
        let mut has_l = vec![false; nt];
        for t in 0..nt {
            let p = tgt.node(t as u32).parent;
            has_l[t] = l_direct[t] || it_needed[t] || (p >= 0 && has_l[p as usize]);
        }
        Analysis {
            m_needed,
            s_used,
            is_own,
            it_needed,
            has_l,
            slots,
            members,
            trans,
        }
    }
}

/// Assemble the explicit DAG for a problem and method.
pub fn assemble<K: Kernel>(
    problem: &Problem,
    method: Method,
    lib: &OperatorLibrary<K>,
) -> Assembly {
    match method {
        Method::BarnesHut { theta } => assemble_bh(problem, theta, lib),
        _ => assemble_fmm(&problem.tree, method, lib),
    }
}

/// The tables of every level `levels` names, built in the order named.
fn far_field_tables<K: Kernel>(lib: &OperatorLibrary<K>, levels: mpsc::Receiver<u8>) -> Levels {
    let mut tables = LevelIndex::new(lib);
    for level in levels {
        tables.get(level);
    }
    tables.into_tables()
}

#[allow(clippy::too_many_lines)]
fn assemble_fmm<K: Kernel>(tree: &DualTree, method: Method, lib: &OperatorLibrary<K>) -> Assembly {
    let (src, tgt) = (tree.source(), tree.target());
    let ns = src.num_nodes();
    let nt = tgt.num_nodes();
    let advanced = method.uses_planewave();
    let n_exp = lib.params().surface_points();
    let exp_bytes = (n_exp * 8) as u32;

    // ---- Lists and analysis, beside the far-field tables -----------------
    // The advanced method sizes its `Is`/`It` nodes by the plane-wave
    // length of the levels that carry `L2` entries.  The lists name those
    // levels as they find them, and a helper thread builds their tables
    // while the lists and the analysis run.  Nothing here reads the library
    // until the helper is joined, so no level is built twice.
    let (lists, an, far) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let far = scope.spawn(move || far_field_tables(lib, rx));
        let lists = tree.interaction_lists_with(|level| {
            if advanced {
                tx.send(level)
                    .expect("the table builder outlives the lists");
            }
        });
        drop(tx);
        let an = Analysis::run(src, tgt, &lists, advanced);
        let far = far.join().expect("far-field table build panicked");
        (lists, an, far)
    });
    let pw_len = |level: u8| {
        far.get(level as usize)
            .and_then(Option::as_ref)
            .expect("every plane-wave level carries an L2 entry")
            .planewave_len() as u32
    };
    let Analysis {
        m_needed,
        s_used,
        is_own,
        it_needed,
        has_l,
        slots,
        members,
        trans,
    } = an;

    // ---- Node creation -------------------------------------------------
    let mut b = DagBuilder::new();
    let mut s_of = vec![-1i32; ns];
    let mut m_of = vec![-1i32; ns];
    let mut is_of = vec![-1i32; ns];
    let mut it_of = vec![-1i32; nt];
    let mut l_of = vec![-1i32; nt];
    let mut t_of = vec![-1i32; nt];
    let mut is_layout: Vec<IsLayout> = Vec::new();

    for s in 0..ns as u32 {
        let node = src.node(s);
        if node.is_leaf() && s_used[s as usize] {
            s_of[s as usize] =
                b.add_node(NodeClass::S, s, node.key.level, 32 * node.count as u32) as i32;
        }
    }
    for s in 0..ns as u32 {
        if m_needed[s as usize] {
            m_of[s as usize] = b.add_node(NodeClass::M, s, src.node(s).key.level, exp_bytes) as i32;
        }
    }
    if advanced {
        for s in 0..ns as u32 {
            let own = is_own[s as usize];
            let nm = slots[s as usize].len() as u32;
            if !own && nm == 0 {
                continue;
            }
            let level = src.node(s).key.level;
            let layout = IsLayout {
                own_w: if own { pw_len(level) } else { 0 },
                merged_w: if nm > 0 { pw_len(level + 1) } else { 0 },
                n_merged: nm,
            };
            let id = b.add_node(NodeClass::Is, s, level, (layout.total_len() * 8) as u32);
            is_of[s as usize] = id as i32;
            is_layout.resize(id as usize + 1, IsLayout::default());
            is_layout[id as usize] = layout;
        }
        for t in 0..nt as u32 {
            if it_needed[t as usize] {
                let level = tgt.node(t).key.level;
                it_of[t as usize] =
                    b.add_node(NodeClass::It, t, level, 6 * pw_len(level) * 8) as i32;
            }
        }
    }
    for t in 0..nt as u32 {
        if has_l[t as usize] {
            l_of[t as usize] = b.add_node(NodeClass::L, t, tgt.node(t).key.level, exp_bytes) as i32;
        }
    }
    for t in 0..nt as u32 {
        let node = tgt.node(t);
        if node.is_leaf() {
            t_of[t as usize] =
                b.add_node(NodeClass::T, t, node.key.level, 40 * node.count as u32) as i32;
        }
    }

    // ---- Edges -----------------------------------------------------------
    for s in 0..ns as u32 {
        let node = src.node(s);
        // S→M.
        if s_of[s as usize] >= 0 && m_of[s as usize] >= 0 {
            b.add_edge(
                s_of[s as usize] as u32,
                EdgeOp::S2M,
                m_of[s as usize] as u32,
                exp_bytes,
                0,
            );
        }
        // M→M.
        let p = node.parent;
        if m_of[s as usize] >= 0 && p >= 0 && m_of[p as usize] >= 0 {
            b.add_edge(
                m_of[s as usize] as u32,
                EdgeOp::M2M,
                m_of[p as usize] as u32,
                exp_bytes,
                node.key.octant() as u32,
            );
        }
        // M→I.
        if is_of[s as usize] >= 0 {
            let layout = is_layout[is_of[s as usize] as usize];
            if layout.own_w > 0 {
                debug_assert!(m_of[s as usize] >= 0);
                b.add_edge(
                    m_of[s as usize] as u32,
                    EdgeOp::M2I,
                    is_of[s as usize] as u32,
                    6 * layout.own_w * 8,
                    0,
                );
            }
        }
    }
    // Merge shifts: member own region → parent merged slot, by parent,
    // then by the slot's (direction, mask).
    let mut order: Vec<usize> = Vec::new();
    for (parent, row) in slots.iter().enumerate() {
        if row.is_empty() {
            continue;
        }
        let dst = is_of[parent];
        debug_assert!(dst >= 0);
        let layout = is_layout[dst as usize];
        order.clear();
        order.extend(0..row.len());
        order.sort_unstable_by_key(|&k| (row[k].dir, row[k].mask));
        for &k in &order {
            let slot = &row[k];
            for &m in &members[slot.members.clone()] {
                let src_is = is_of[m as usize];
                debug_assert!(src_is >= 0);
                b.add_edge(
                    src_is as u32,
                    EdgeOp::I2I,
                    dst as u32,
                    layout.merged_w * 8,
                    pack_i2i(slot.dir as usize, 0, k as u32),
                );
            }
        }
    }
    // Translations into It nodes.
    for &(sbox, src_slot, dir, tbox) in &trans {
        let s_is = is_of[sbox as usize];
        let d_it = it_of[tbox as usize];
        debug_assert!(s_is >= 0 && d_it >= 0);
        let w = {
            let layout = is_layout[s_is as usize];
            if src_slot == 0 {
                layout.own_w
            } else {
                layout.merged_w
            }
        };
        b.add_edge(
            s_is as u32,
            EdgeOp::I2I,
            d_it as u32,
            w * 8,
            pack_i2i(dir.index(), src_slot, dir.index() as u32),
        );
    }
    for t in 0..nt as u32 {
        let bl = lists.of(t);
        // I→L.
        if it_of[t as usize] >= 0 {
            debug_assert!(l_of[t as usize] >= 0);
            b.add_edge(
                it_of[t as usize] as u32,
                EdgeOp::I2L,
                l_of[t as usize] as u32,
                exp_bytes,
                0,
            );
        }
        // M→L (basic method).
        if !advanced {
            for e in &bl.l2 {
                b.add_edge(
                    m_of[e.source as usize] as u32,
                    EdgeOp::M2L,
                    l_of[t as usize] as u32,
                    exp_bytes,
                    0,
                );
            }
        }
        // S→L (list 4).
        for &s in &bl.l4 {
            b.add_edge(
                s_of[s as usize] as u32,
                EdgeOp::S2L,
                l_of[t as usize] as u32,
                exp_bytes,
                0,
            );
        }
        // M→T (list 3).
        for &s in &bl.l3 {
            b.add_edge(
                m_of[s as usize] as u32,
                EdgeOp::M2T,
                t_of[t as usize] as u32,
                exp_bytes,
                0,
            );
        }
        // S→T (list 1).
        for &s in &bl.l1 {
            b.add_edge(
                s_of[s as usize] as u32,
                EdgeOp::S2T,
                t_of[t as usize] as u32,
                32 * src.node(s).count as u32,
                0,
            );
        }
        // L→L and L→T.
        let node = tgt.node(t);
        if l_of[t as usize] >= 0 {
            let p = node.parent;
            if p >= 0 && l_of[p as usize] >= 0 {
                b.add_edge(
                    l_of[p as usize] as u32,
                    EdgeOp::L2L,
                    l_of[t as usize] as u32,
                    exp_bytes,
                    node.key.octant() as u32,
                );
            }
            if node.is_leaf() {
                b.add_edge(
                    l_of[t as usize] as u32,
                    EdgeOp::L2T,
                    t_of[t as usize] as u32,
                    8 * node.count as u32,
                    0,
                );
            }
        }
    }

    let dag = b.finish();
    is_layout.resize(dag.num_nodes(), IsLayout::default());
    Assembly {
        dag,
        s_of,
        m_of,
        is_of,
        it_of,
        l_of,
        t_of,
        is_layout,
    }
}

/// Barnes–Hut assembly: an up-sweep of multipoles and, per target leaf, a
/// tree walk under the `θ` acceptance criterion yielding `M→T` and `S→T`
/// edges.
fn assemble_bh<K: Kernel>(problem: &Problem, theta: f64, lib: &OperatorLibrary<K>) -> Assembly {
    let src = problem.tree.source();
    let tgt = problem.tree.target();
    let ns = src.num_nodes();
    let nt = tgt.num_nodes();
    let n_exp = lib.params().surface_points();
    let exp_bytes = (n_exp * 8) as u32;

    // Per target leaf, collect accepted boxes / direct leaves.
    let mut m_direct = vec![false; ns];
    let mut s_used = vec![false; ns];
    // (target, source, is_multipole)
    let mut edges: Vec<(u32, u32, bool)> = Vec::new();
    let leaves = tgt.leaves();
    for &t in &leaves {
        let tc = tgt.center_of(t);
        let th = tgt.half_of(t);
        let mut stack = vec![0u32];
        while let Some(s) = stack.pop() {
            let node = src.node(s);
            let sc = src.center_of(s);
            let sh = src.half_of(s);
            let delta = sc - tc;
            // Max-norm distance from the source center to the target box.
            let gap = (delta.x.abs() - th)
                .max(delta.y.abs() - th)
                .max(delta.z.abs() - th);
            let dist = delta.norm();
            let accept = gap >= 2.96 * sh && 2.0 * sh <= theta * dist;
            if accept {
                m_direct[s as usize] = true;
                edges.push((t, s, true));
            } else if node.is_leaf() {
                s_used[s as usize] = true;
                edges.push((t, s, false));
            } else {
                stack.extend(node.child_ids());
            }
        }
    }
    let mut m_needed = m_direct;
    for s in 0..ns {
        let p = src.node(s as u32).parent;
        if p >= 0 && m_needed[p as usize] {
            m_needed[s] = true;
        }
    }
    for s in 0..ns {
        if m_needed[s] && src.node(s as u32).is_leaf() {
            s_used[s] = true;
        }
    }

    let mut b = DagBuilder::new();
    let mut s_of = vec![-1i32; ns];
    let mut m_of = vec![-1i32; ns];
    let mut t_of = vec![-1i32; nt];
    for s in 0..ns as u32 {
        let node = src.node(s);
        if node.is_leaf() && s_used[s as usize] {
            s_of[s as usize] =
                b.add_node(NodeClass::S, s, node.key.level, 32 * node.count as u32) as i32;
        }
    }
    for s in 0..ns as u32 {
        if m_needed[s as usize] {
            m_of[s as usize] = b.add_node(NodeClass::M, s, src.node(s).key.level, exp_bytes) as i32;
        }
    }
    for &t in &leaves {
        t_of[t as usize] = b.add_node(
            NodeClass::T,
            t,
            tgt.node(t).key.level,
            40 * tgt.node(t).count as u32,
        ) as i32;
    }
    for s in 0..ns as u32 {
        if s_of[s as usize] >= 0 && m_of[s as usize] >= 0 {
            b.add_edge(
                s_of[s as usize] as u32,
                EdgeOp::S2M,
                m_of[s as usize] as u32,
                exp_bytes,
                0,
            );
        }
        let p = src.node(s).parent;
        if m_of[s as usize] >= 0 && p >= 0 && m_of[p as usize] >= 0 {
            b.add_edge(
                m_of[s as usize] as u32,
                EdgeOp::M2M,
                m_of[p as usize] as u32,
                exp_bytes,
                src.node(s).key.octant() as u32,
            );
        }
    }
    for (t, s, multipole) in edges {
        if multipole {
            b.add_edge(
                m_of[s as usize] as u32,
                EdgeOp::M2T,
                t_of[t as usize] as u32,
                exp_bytes,
                0,
            );
        } else {
            b.add_edge(
                s_of[s as usize] as u32,
                EdgeOp::S2T,
                t_of[t as usize] as u32,
                32 * src.node(s).count as u32,
                0,
            );
        }
    }

    let dag = b.finish();
    let is_layout = vec![IsLayout::default(); dag.num_nodes()];
    Assembly {
        dag,
        s_of,
        m_of,
        is_of: vec![-1; ns],
        it_of: vec![-1; nt],
        l_of: vec![-1; nt],
        t_of,
        is_layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashmm_expansion::AccuracyParams;
    use dashmm_kernels::Laplace;
    use dashmm_tree::{uniform_cube, BuildParams};
    use std::collections::HashMap;

    fn build(n: usize, method: Method, threshold: usize) -> (Problem, Assembly) {
        let sources = uniform_cube(n, 11);
        let targets = uniform_cube(n, 22);
        let charges = vec![1.0; n];
        let problem = Problem::new(
            &sources,
            &charges,
            &targets,
            BuildParams {
                threshold,
                max_level: 20,
            },
        );
        let lib = OperatorLibrary::new(
            Laplace,
            AccuracyParams::three_digit(),
            problem.tree.domain().side(),
            method.uses_planewave(),
        );
        let asm = assemble(&problem, method, &lib);
        (problem, asm)
    }

    #[test]
    fn basic_fmm_dag_validates() {
        let (_, asm) = build(3000, Method::BasicFmm, 60);
        asm.dag.validate().expect("valid DAG");
        let stats = dashmm_dag::DagStats::compute(&asm.dag);
        assert!(stats.nodes[NodeClass::S.index()].count > 0);
        assert!(stats.nodes[NodeClass::M.index()].count > 0);
        assert!(stats.nodes[NodeClass::L.index()].count > 0);
        assert!(stats.nodes[NodeClass::T.index()].count > 0);
        assert_eq!(stats.nodes[NodeClass::Is.index()].count, 0);
        assert!(stats.edges[EdgeOp::M2L.index()].count > 0);
        assert_eq!(stats.edges[EdgeOp::I2I.index()].count, 0);
    }

    #[test]
    fn advanced_fmm_dag_validates_with_intermediates() {
        let (_, asm) = build(4000, Method::AdvancedFmm, 60);
        asm.dag.validate().expect("valid DAG");
        let stats = dashmm_dag::DagStats::compute(&asm.dag);
        assert!(stats.nodes[NodeClass::Is.index()].count > 0);
        assert!(stats.nodes[NodeClass::It.index()].count > 0);
        assert!(stats.edges[EdgeOp::M2I.index()].count > 0);
        assert!(stats.edges[EdgeOp::I2I.index()].count > 0);
        assert!(stats.edges[EdgeOp::I2L.index()].count > 0);
        assert_eq!(
            stats.edges[EdgeOp::M2L.index()].count,
            0,
            "advanced replaces M→L"
        );
    }

    #[test]
    fn merge_and_shift_reduces_translations() {
        let (problem, asm) = build(20000, Method::AdvancedFmm, 60);
        let lists = problem.tree.interaction_lists();
        let total_l2: usize = (0..problem.tree.target().num_nodes() as u32)
            .map(|t| lists.of(t).l2.len())
            .sum();
        let stats = dashmm_dag::DagStats::compute(&asm.dag);
        let i2i = stats.edges[EdgeOp::I2I.index()].count as usize;
        assert!(
            i2i * 2 < total_l2,
            "I→I edges ({i2i}) should be well below the raw L2 count ({total_l2})"
        );
    }

    #[test]
    fn every_l2_entry_served_exactly_once() {
        // Each L2 entry must be covered by exactly one translation path:
        // either a direct translation from its own Is, or membership in the
        // merged group of a translation from its parent's Is.
        let (problem, asm) = build(6000, Method::AdvancedFmm, 30);
        let src = problem.tree.source();
        let lists = problem.tree.interaction_lists();
        let nt = problem.tree.target().num_nodes();
        // covered[(source_box, target_box)] count.
        let mut covered: HashMap<(u32, u32), u32> = HashMap::new();
        // Decode translation edges.
        for id in 0..asm.dag.num_nodes() as u32 {
            let n = asm.dag.node(id);
            if n.class != NodeClass::Is {
                continue;
            }
            for e in asm.dag.out_edges(id) {
                if asm.dag.node(e.dst).class != NodeClass::It {
                    continue;
                }
                let (dir_idx, src_slot, _) = unpack_i2i(e.tag);
                let tbox = asm.dag.node(e.dst).box_id;
                if src_slot == 0 {
                    *covered.entry((n.box_id, tbox)).or_insert(0) += 1;
                } else {
                    // Find the members of this merged slot via merge edges
                    // into this Is node with the same dst slot.
                    for mid in 0..asm.dag.num_nodes() as u32 {
                        if asm.dag.node(mid).class != NodeClass::Is {
                            continue;
                        }
                        for me in asm.dag.out_edges(mid) {
                            if me.dst == id && me.op == EdgeOp::I2I {
                                let (mdir, _, dslot) = unpack_i2i(me.tag);
                                if dslot == src_slot - 1 && mdir == dir_idx {
                                    *covered
                                        .entry((asm.dag.node(mid).box_id, tbox))
                                        .or_insert(0) += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        let _ = src;
        for t in 0..nt as u32 {
            for e in &lists.of(t).l2 {
                let c = covered.get(&(e.source, t)).copied().unwrap_or(0);
                assert_eq!(
                    c, 1,
                    "L2 entry (src {}, tgt {t}) covered {c} times",
                    e.source
                );
            }
        }
    }

    #[test]
    fn barnes_hut_dag_shape() {
        let (_, asm) = build(3000, Method::BarnesHut { theta: 0.6 }, 60);
        asm.dag.validate().expect("valid DAG");
        let stats = dashmm_dag::DagStats::compute(&asm.dag);
        assert!(
            stats.edges[EdgeOp::M2T.index()].count > 0,
            "BH must use multipole evals"
        );
        assert!(stats.edges[EdgeOp::S2T.index()].count > 0);
        assert_eq!(
            stats.nodes[NodeClass::L.index()].count,
            0,
            "BH has no local expansions"
        );
        assert_eq!(stats.edges[EdgeOp::L2L.index()].count, 0);
    }

    #[test]
    fn seeds_are_s_nodes() {
        let (_, asm) = build(2000, Method::AdvancedFmm, 60);
        for seed in asm.seeds() {
            assert_eq!(asm.dag.node(seed).class, NodeClass::S);
        }
    }

    #[test]
    fn i2i_tag_roundtrip() {
        for (d, s, t) in [(0, 0, 0), (5, 1, 3), (3, 16383, 16383)] {
            assert_eq!(unpack_i2i(pack_i2i(d, s, t)), (d, s, t));
        }
    }

    #[test]
    fn layout_length() {
        let l = IsLayout {
            own_w: 10,
            merged_w: 6,
            n_merged: 3,
        };
        assert_eq!(l.total_len(), 78);
    }
}
