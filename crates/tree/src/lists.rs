//! Dual-tree traversal and interaction lists.
//!
//! Every target box `Bt` is connected to up to four lists of source boxes
//! (paper §II, Figure 1b):
//!
//! * `L1` (classically *U*): leaf source boxes **not** well-separated from a
//!   leaf `Bt` — handled by direct `S→T` interaction,
//! * `L2` (*V*): same-level source boxes well-separated from `Bt` whose
//!   parents are not well-separated from `Bt`'s parent — `M→L`, or the
//!   `M→I / I→I / I→L` chain in the advanced (merge-and-shift) method,
//! * `L3` (*W*): source boxes deeper than a leaf `Bt`, well-separated from
//!   `Bt` but with a parent that is not — `M→T`,
//! * `L4` (*X*): leaf source boxes shallower than `Bt`, well-separated from
//!   `Bt` but not from `Bt`'s parent — `S→L`.
//!
//! The traversal descends the source and the target tree in lockstep from the
//! root pair, so every well-separated pair is classified at the coarsest
//! valid level, exactly as in the classic adaptive FMM.  `L2` entries carry
//! the [`Direction`] used by the plane-wave intermediate expansions.

use crate::build::{BuildParams, Octree};
use crate::domain::Domain;
use crate::morton::MortonKey;
use crate::point::Point3;

/// One of the six axis directions used to partition `L2` for the plane-wave
/// (intermediate) expansions.  A source box is assigned to the direction
/// along which it is separated from the target by at least two box widths;
/// the plane-wave representation of its field converges for the target box
/// exactly when such an axis exists, which the `L2` definition guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Source lies at `+z` relative to the target (information travels down).
    Up,
    /// Source at `-z`.
    Down,
    /// Source at `+y`.
    North,
    /// Source at `-y`.
    South,
    /// Source at `+x`.
    East,
    /// Source at `-x`.
    West,
}

impl Direction {
    /// All six directions, in the priority order used for assignment.
    pub const ALL: [Direction; 6] = [
        Direction::Up,
        Direction::Down,
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// Index in `0..6`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::Up => 0,
            Direction::Down => 1,
            Direction::North => 2,
            Direction::South => 3,
            Direction::East => 4,
            Direction::West => 5,
        }
    }

    /// The axis this direction is aligned with (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn axis(self) -> usize {
        match self {
            Direction::East | Direction::West => 0,
            Direction::North | Direction::South => 1,
            Direction::Up | Direction::Down => 2,
        }
    }

    /// Sign of the source-relative-to-target offset along [`Self::axis`].
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Up | Direction::North | Direction::East => 1.0,
            _ => -1.0,
        }
    }

    /// The opposite direction.  An `L2` entry records where the *source*
    /// lies relative to the target; the plane-wave expansion serving it
    /// propagates the opposite way (toward the target), so translation
    /// frames use the opposite of the list direction.
    #[inline]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// Assign a direction from the same-level integer offset of the source
    /// box relative to the target box.  Returns `None` when no axis is
    /// separated by ≥ 2 (i.e. the boxes are adjacent — not an `L2` pair).
    pub fn from_offset(dx: i64, dy: i64, dz: i64) -> Option<Direction> {
        // Priority z, y, x matches the conventional up/down-first sweep.
        if dz >= 2 {
            Some(Direction::Up)
        } else if dz <= -2 {
            Some(Direction::Down)
        } else if dy >= 2 {
            Some(Direction::North)
        } else if dy <= -2 {
            Some(Direction::South)
        } else if dx >= 2 {
            Some(Direction::East)
        } else if dx <= -2 {
            Some(Direction::West)
        } else {
            None
        }
    }
}

/// An `L2` (V-list) entry: a well-separated same-level source box plus the
/// direction of its plane-wave translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListEntry {
    /// Source-tree node id.
    pub source: u32,
    /// Plane-wave direction of the source relative to the target.
    pub direction: Direction,
    /// Same-level integer offset (source minus target) in box widths.
    pub offset: (i8, i8, i8),
}

/// The four interaction lists of every target box.
#[derive(Clone, Debug, Default)]
pub struct BoxLists {
    /// `L1` / U: leaf sources adjacent to this leaf target (`S→T`).
    pub l1: Vec<u32>,
    /// `L2` / V: same-level well-separated sources (`M→L` or `M→I/I→I/I→L`).
    pub l2: Vec<ListEntry>,
    /// `L3` / W: deeper well-separated sources under adjacent boxes (`M→T`).
    pub l3: Vec<u32>,
    /// `L4` / X: shallower well-separated leaf sources (`S→L`).
    pub l4: Vec<u32>,
}

/// Interaction lists for every target-tree node.
pub struct InteractionLists {
    lists: Vec<BoxLists>,
}

impl InteractionLists {
    /// Lists of one target node.
    #[inline]
    pub fn of(&self, target: u32) -> &BoxLists {
        &self.lists[target as usize]
    }

    /// Number of target nodes covered.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether there are no target nodes.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Total number of entries over all lists (edges of the interaction
    /// phase of the DAG, before merge-and-shift).
    pub fn total_entries(&self) -> usize {
        self.lists
            .iter()
            .map(|b| b.l1.len() + b.l2.len() + b.l3.len() + b.l4.len())
            .sum()
    }
}

/// Topology access shared by every tree shape that wants interaction
/// lists: the static [`Octree`] and the incremental refit tree both
/// expose Morton keys, parent/child links and leaf-ness by node id.
///
/// Node ids must be dense `u32` handles with the root at
/// [`TreeTopology::root`]; `children_of` returns the raw child-slot array
/// (`-1` = empty octant) so callers can walk occupied octants in Morton
/// order.
pub trait TreeTopology {
    /// Root node id (conventionally 0).
    fn root(&self) -> u32 {
        0
    }
    /// Morton key of a node.
    fn key_of(&self, id: u32) -> MortonKey;
    /// Whether the node is a leaf.
    fn is_leaf(&self, id: u32) -> bool;
    /// Child-slot array, `-1` for empty octants.
    fn children_of(&self, id: u32) -> [i32; 8];
    /// Parent id, `-1` at the root.
    fn parent_of(&self, id: u32) -> i32;
}

impl TreeTopology for Octree {
    fn key_of(&self, id: u32) -> MortonKey {
        self.node(id).key
    }
    fn is_leaf(&self, id: u32) -> bool {
        self.node(id).is_leaf()
    }
    fn children_of(&self, id: u32) -> [i32; 8] {
        self.node(id).children
    }
    fn parent_of(&self, id: u32) -> i32 {
        self.node(id).parent
    }
}

/// Compute the four interaction lists of **one** target box without
/// running the full lockstep traversal.
///
/// This restricts the dual-tree recursion to the single root→`t` target
/// path: a source box descends alongside the target ancestors exactly as
/// in [`DualTree::interaction_lists`], and only pairs whose target side
/// *is* `t` classify into `t`'s lists — pairs that separate at a proper
/// ancestor belong to that ancestor, pairs that stay adjacent past `t`
/// belong to `t`'s descendants.  The result is identical to the
/// corresponding [`BoxLists`] of the full traversal (property-tested
/// below), at `O(|adjacent subtrees|)` cost, which is what makes
/// incremental list *patching* after a tree refit affordable: only boxes
/// near a structural change recompute their lists.
pub fn box_lists_for<S: TreeTopology, T: TreeTopology>(source: &S, target: &T, t: u32) -> BoxLists {
    // Ancestor path of the target, root first.
    let mut path = vec![t];
    let mut p = target.parent_of(t);
    while p >= 0 {
        path.push(p as u32);
        p = target.parent_of(p as u32);
    }
    path.reverse();
    let tk = target.key_of(t);
    let target_is_leaf = target.is_leaf(t);
    let last = path.len() - 1;

    let mut out = BoxLists::default();
    // (source id, index into the ancestor path).
    let mut stack: Vec<(u32, usize)> = vec![(source.root(), 0)];
    while let Some((s, d)) = stack.pop() {
        let sk = source.key_of(s);
        let ak = target.key_of(path[d]);
        if sk.well_separated(&ak) {
            if d == last {
                // Separated exactly at `t`: same classification as the
                // lockstep traversal.
                use std::cmp::Ordering;
                match sk.level.cmp(&tk.level) {
                    Ordering::Equal => {
                        let (dx, dy, dz) = tk.offset(&sk);
                        let direction = Direction::from_offset(dx, dy, dz)
                            .expect("well-separated same-level pair must have an axis ≥ 2");
                        out.l2.push(ListEntry {
                            source: s,
                            direction,
                            offset: (dx as i8, dy as i8, dz as i8),
                        });
                    }
                    Ordering::Greater => out.l3.push(s),
                    Ordering::Less => out.l4.push(s),
                }
            }
            // Separated at a proper ancestor: the pair is an ancestor's
            // list entry, not t's.
            continue;
        }
        if d == last {
            if target_is_leaf {
                if source.is_leaf(s) {
                    out.l1.push(s);
                } else {
                    for c in source.children_of(s) {
                        if c >= 0 {
                            stack.push((c as u32, d));
                        }
                    }
                }
            }
            // Interior target still adjacent: the lockstep would descend
            // into t's children, so nothing more lands in t's own lists.
        } else if source.is_leaf(s) {
            // Leaf source beside an interior ancestor: only the target
            // side descends, and only the child on t's path matters.
            stack.push((s, d + 1));
        } else {
            // Both interior: both sides descend; pair every source child
            // with the target child on t's path.
            for c in source.children_of(s) {
                if c >= 0 {
                    stack.push((c as u32, d + 1));
                }
            }
        }
    }
    out
}

/// The dual tree: one octree per ensemble over a shared domain.
///
/// ```
/// use dashmm_tree::{uniform_cube, BuildParams, DualTree};
///
/// let sources = uniform_cube(2000, 1);
/// let targets = uniform_cube(2000, 2);
/// let dt = DualTree::build(&sources, &targets, BuildParams::default());
/// let lists = dt.interaction_lists();
/// // Every leaf target box has near-field work, and interior boxes have
/// // well-separated (L2) interactions.
/// assert!(lists.total_entries() > 0);
/// ```
pub struct DualTree {
    source: Octree,
    target: Octree,
}

impl DualTree {
    /// Build both trees over the smallest common cube.
    pub fn build(sources: &[Point3], targets: &[Point3], params: BuildParams) -> Self {
        let domain = Domain::containing(&[sources, targets], 1e-4);
        Self::build_in(domain, sources, targets, params)
    }

    /// Build with an explicit, pre-computed domain.  The target tree is
    /// built on a scoped helper thread beside the source tree; each build
    /// is the serial [`Octree::build`], so the trees do not depend on the
    /// overlap.
    pub fn build_in(
        domain: Domain,
        sources: &[Point3],
        targets: &[Point3],
        params: BuildParams,
    ) -> Self {
        std::thread::scope(|s| {
            let target = s.spawn(|| Octree::build(domain, targets, params));
            let source = Octree::build(domain, sources, params);
            DualTree {
                source,
                target: target.join().expect("target tree build panicked"),
            }
        })
    }

    /// The source tree.
    pub fn source(&self) -> &Octree {
        &self.source
    }

    /// The target tree.
    pub fn target(&self) -> &Octree {
        &self.target
    }

    /// Shared domain.
    pub fn domain(&self) -> &Domain {
        self.source.domain()
    }

    /// Run the lockstep dual-tree traversal and produce the four lists for
    /// every target box.
    pub fn interaction_lists(&self) -> InteractionLists {
        self.interaction_lists_with(|_| {})
    }

    /// [`DualTree::interaction_lists`], calling `first_l2_at(level)` the
    /// first time the traversal records an `L2` entry at `level`: the
    /// levels that carry far-field translations, named long before the
    /// traversal ends.
    pub fn interaction_lists_with(&self, mut first_l2_at: impl FnMut(u8)) -> InteractionLists {
        let mut l2_levels = 0u32;
        let mut lists = vec![BoxLists::default(); self.target.num_nodes()];
        let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
        while let Some((s, t)) = stack.pop() {
            let sn = self.source.node(s);
            let tn = self.target.node(t);
            if sn.key.well_separated(&tn.key) {
                let bl = &mut lists[t as usize];
                use std::cmp::Ordering;
                match sn.key.level.cmp(&tn.key.level) {
                    Ordering::Equal => {
                        let (dx, dy, dz) = tn.key.offset(&sn.key);
                        let direction = Direction::from_offset(dx, dy, dz)
                            .expect("well-separated same-level pair must have an axis ≥ 2");
                        bl.l2.push(ListEntry {
                            source: s,
                            direction,
                            offset: (dx as i8, dy as i8, dz as i8),
                        });
                        if l2_levels & 1 << tn.key.level == 0 {
                            l2_levels |= 1 << tn.key.level;
                            first_l2_at(tn.key.level);
                        }
                    }
                    Ordering::Greater => bl.l3.push(s),
                    Ordering::Less => bl.l4.push(s),
                }
                continue;
            }
            match (sn.is_leaf(), tn.is_leaf()) {
                (true, true) => lists[t as usize].l1.push(s),
                (true, false) => {
                    for ct in tn.child_ids() {
                        stack.push((s, ct));
                    }
                }
                (false, true) => {
                    for cs in sn.child_ids() {
                        stack.push((cs, t));
                    }
                }
                (false, false) => {
                    for cs in sn.child_ids() {
                        for ct in tn.child_ids() {
                            stack.push((cs, ct));
                        }
                    }
                }
            }
        }
        InteractionLists { lists }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sphere_surface, uniform_cube};

    #[test]
    fn dual_tree_is_two_serial_builds() {
        let params = BuildParams {
            threshold: 20,
            max_level: 20,
        };
        for (src, tgt) in [
            (uniform_cube(5000, 3), uniform_cube(4000, 4)),
            (sphere_surface(5000, 3), uniform_cube(300, 4)),
        ] {
            let dt = DualTree::build(&src, &tgt, params);
            let domain = Domain::containing(&[&src, &tgt], 1e-4);
            assert_eq!(*dt.domain(), domain);
            for (built, points) in [(dt.source(), &src), (dt.target(), &tgt)] {
                let serial = Octree::build(domain, points, params);
                assert_eq!(built.permutation(), serial.permutation());
                assert_eq!(built.nodes(), serial.nodes());
                assert_eq!(built.points(), serial.points());
            }
        }
    }

    fn dual(n: usize, threshold: usize) -> DualTree {
        let src = uniform_cube(n, 11);
        let tgt = uniform_cube(n, 22);
        DualTree::build(
            &src,
            &tgt,
            BuildParams {
                threshold,
                max_level: 20,
            },
        )
    }

    /// Brute-force check: every (source point, target point) pair must be
    /// covered by exactly one list entry on the path of the two boxes.
    #[test]
    fn lists_cover_every_pair_exactly_once() {
        let src = uniform_cube(300, 11);
        let tgt = uniform_cube(300, 22);
        let dt = DualTree::build(
            &src,
            &tgt,
            BuildParams {
                threshold: 10,
                max_level: 20,
            },
        );
        let lists = dt.interaction_lists();

        // count[i][j] = how many list entries cover source point i and
        // target point j (via box containment).  Must end at exactly 1.
        let ns = dt.source().points().len();
        let nt = dt.target().points().len();
        let mut count = vec![vec![0u32; nt]; ns];

        // Descendant point ranges per box are contiguous: first..first+count.
        let mark = |count: &mut Vec<Vec<u32>>, sbox: u32, tbox: u32, dt: &DualTree| {
            let sn = dt.source().node(sbox);
            let tn = dt.target().node(tbox);
            for i in sn.first..sn.first + sn.count {
                for j in tn.first..tn.first + tn.count {
                    count[i][j] += 1;
                }
            }
        };

        for t in 0..dt.target().num_nodes() as u32 {
            let bl = lists.of(t);
            for &s in &bl.l1 {
                mark(&mut count, s, t, &dt);
            }
            for e in &bl.l2 {
                mark(&mut count, e.source, t, &dt);
            }
            for &s in &bl.l3 {
                mark(&mut count, s, t, &dt);
            }
            for &s in &bl.l4 {
                mark(&mut count, s, t, &dt);
            }
        }
        for i in 0..ns {
            for j in 0..nt {
                assert_eq!(
                    count[i][j], 1,
                    "pair (src {i}, tgt {j}) covered {} times",
                    count[i][j]
                );
            }
        }
    }

    #[test]
    fn l2_entries_are_same_level_well_separated_with_near_parents() {
        let dt = dual(4000, 60);
        let lists = dt.interaction_lists();
        for t in 0..dt.target().num_nodes() as u32 {
            let tk = dt.target().node(t).key;
            for e in &lists.of(t).l2 {
                let sk = dt.source().node(e.source).key;
                assert_eq!(sk.level, tk.level);
                assert!(sk.well_separated(&tk));
                // Parents must NOT be well separated (else the pair would
                // have been classified one level up).
                assert!(sk.parent().adjacent(&tk.parent()));
                // Offsets bounded by the children-of-colleagues range.
                let (dx, dy, dz) = tk.offset(&sk);
                assert!(dx.abs() <= 3 && dy.abs() <= 3 && dz.abs() <= 3);
                assert!(dx.abs() >= 2 || dy.abs() >= 2 || dz.abs() >= 2);
                assert_eq!(e.offset, (dx as i8, dy as i8, dz as i8));
            }
        }
    }

    #[test]
    fn l2_size_bounded_by_189() {
        // The classic bound: |V| ≤ 6³ − 3³ = 189 (paper §II).
        let dt = dual(30000, 60);
        let lists = dt.interaction_lists();
        let max = (0..dt.target().num_nodes() as u32)
            .map(|t| lists.of(t).l2.len())
            .max()
            .unwrap();
        assert!(max <= 189, "max |L2| = {max}");
        assert!(
            max > 100,
            "interior boxes should approach the 189 bound, got {max}"
        );
    }

    #[test]
    fn l1_and_l3_only_on_leaves() {
        let dt = dual(5000, 60);
        let lists = dt.interaction_lists();
        for t in 0..dt.target().num_nodes() as u32 {
            let bl = lists.of(t);
            if !dt.target().node(t).is_leaf() {
                assert!(bl.l1.is_empty(), "L1 on non-leaf target {t}");
                assert!(bl.l3.is_empty(), "L3 on non-leaf target {t}");
            }
            for &s in &bl.l1 {
                assert!(dt.source().node(s).is_leaf(), "L1 source must be leaf");
                assert!(dt.source().node(s).key.adjacent(&dt.target().node(t).key));
            }
            for &s in &bl.l4 {
                assert!(dt.source().node(s).is_leaf(), "L4 source must be leaf");
            }
        }
    }

    #[test]
    fn l3_l4_level_relations() {
        let src = sphere_surface(8000, 5);
        let tgt = uniform_cube(8000, 6);
        let dt = DualTree::build(
            &src,
            &tgt,
            BuildParams {
                threshold: 30,
                max_level: 20,
            },
        );
        let lists = dt.interaction_lists();
        let mut saw_l3 = false;
        let mut saw_l4 = false;
        for t in 0..dt.target().num_nodes() as u32 {
            let tk = dt.target().node(t).key;
            for &s in &lists.of(t).l3 {
                saw_l3 = true;
                let sk = dt.source().node(s).key;
                assert!(sk.level > tk.level);
                assert!(sk.well_separated(&tk));
                assert!(sk.parent().adjacent(&tk), "L3 parent must touch the target");
            }
            for &s in &lists.of(t).l4 {
                saw_l4 = true;
                let sk = dt.source().node(s).key;
                assert!(sk.level < tk.level);
                assert!(sk.well_separated(&tk));
                assert!(
                    sk.adjacent(&tk.parent()),
                    "L4 source must touch the target's parent"
                );
            }
        }
        assert!(
            saw_l3 && saw_l4,
            "non-uniform dual trees must produce L3/L4 entries"
        );
    }

    #[test]
    fn direction_assignment_covers_l2() {
        let dt = dual(20000, 60);
        let lists = dt.interaction_lists();
        let mut by_dir = [0usize; 6];
        for t in 0..dt.target().num_nodes() as u32 {
            for e in &lists.of(t).l2 {
                by_dir[e.direction.index()] += 1;
            }
        }
        // All six directions must occur for uniform cube data.
        for (d, &c) in by_dir.iter().enumerate() {
            assert!(c > 0, "direction {d} never assigned");
        }
    }

    #[test]
    fn direction_from_offset_rules() {
        assert_eq!(Direction::from_offset(0, 0, 2), Some(Direction::Up));
        assert_eq!(Direction::from_offset(3, -3, -2), Some(Direction::Down));
        assert_eq!(Direction::from_offset(2, 3, 1), Some(Direction::North));
        assert_eq!(Direction::from_offset(2, -2, 0), Some(Direction::South));
        assert_eq!(Direction::from_offset(2, 1, 1), Some(Direction::East));
        assert_eq!(Direction::from_offset(-2, 1, -1), Some(Direction::West));
        assert_eq!(Direction::from_offset(1, 1, 1), None);
    }

    #[test]
    fn direction_axis_sign_consistency() {
        for d in Direction::ALL {
            let mut off = [0i64; 3];
            off[d.axis()] = 2 * d.sign() as i64;
            assert_eq!(Direction::from_offset(off[0], off[1], off[2]), Some(d));
        }
    }

    #[test]
    fn identical_ensembles_have_empty_l3_l4_when_uniform() {
        // Identical uniform trees refine identically, so W/X lists are rare;
        // with an exactly shared tree they appear only via depth jitter.
        let pts = uniform_cube(2000, 3);
        let dt = DualTree::build(
            &pts,
            &pts,
            BuildParams {
                threshold: 60,
                max_level: 20,
            },
        );
        let lists = dt.interaction_lists();
        // The L1 list of every leaf must contain the co-located source box.
        for t in 0..dt.target().num_nodes() as u32 {
            let tn = dt.target().node(t);
            if tn.is_leaf() {
                let found = lists.of(t).l1.iter().any(|&s| {
                    let sk = dt.source().node(s).key;
                    sk == tn.key || sk.contains(&tn.key) || tn.key.contains(&sk)
                });
                assert!(found, "co-located source box missing from L1 of leaf {t}");
            }
        }
    }

    #[test]
    fn well_separated_never_in_l1() {
        let dt = dual(3000, 40);
        let lists = dt.interaction_lists();
        for t in 0..dt.target().num_nodes() as u32 {
            let tk = dt.target().node(t).key;
            for &s in &lists.of(t).l1 {
                assert!(!dt.source().node(s).key.well_separated(&tk));
            }
        }
    }

    #[test]
    fn root_pair_trivial_tree() {
        // Tiny ensembles: single-box trees, everything in L1.
        let src = vec![Point3::new(0.1, 0.0, 0.0)];
        let tgt = vec![Point3::new(-0.1, 0.0, 0.0)];
        let dt = DualTree::build(&src, &tgt, BuildParams::default());
        let lists = dt.interaction_lists();
        assert_eq!(lists.of(0).l1, vec![0]);
        assert!(lists.of(0).l2.is_empty());
    }

    #[test]
    fn disjoint_ensembles_use_coarse_separation() {
        // Sources and targets in far-apart clusters: the traversal should
        // classify the interaction at a coarse level (small total edge count).
        let mut src = uniform_cube(2000, 1);
        for p in &mut src {
            p.x = p.x * 0.1 - 0.9; // cluster near x = -0.9
        }
        let mut tgt = uniform_cube(2000, 2);
        for p in &mut tgt {
            p.x = p.x * 0.1 + 0.9; // cluster near x = +0.9
        }
        let dt = DualTree::build(
            &src,
            &tgt,
            BuildParams {
                threshold: 60,
                max_level: 20,
            },
        );
        let lists = dt.interaction_lists();
        let entries = lists.total_entries();
        // Full pairwise coverage with two distant clusters should collapse
        // to far fewer edges than boxes-squared.
        let nboxes = dt.source().num_nodes() * dt.target().num_nodes();
        assert!(
            entries * 10 < nboxes || entries < 200,
            "expected coarse classification: {entries} edges vs {nboxes} box pairs"
        );
    }

    #[test]
    fn single_target_lists_match_lockstep_traversal() {
        // `box_lists_for` must reproduce the full dual-tree traversal's
        // lists for every target box, on trees deep enough to exercise
        // all four lists.
        let src = sphere_surface(4000, 5);
        let tgt = uniform_cube(4000, 6);
        let dt = DualTree::build(
            &src,
            &tgt,
            BuildParams {
                threshold: 30,
                max_level: 20,
            },
        );
        let lists = dt.interaction_lists();
        let sort = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        for t in 0..dt.target().num_nodes() as u32 {
            let want = lists.of(t);
            let got = box_lists_for(dt.source(), dt.target(), t);
            assert_eq!(sort(got.l1.clone()), sort(want.l1.clone()), "L1 of {t}");
            assert_eq!(sort(got.l3.clone()), sort(want.l3.clone()), "L3 of {t}");
            assert_eq!(sort(got.l4.clone()), sort(want.l4.clone()), "L4 of {t}");
            let key = |e: &ListEntry| e.source;
            let mut g2 = got.l2.clone();
            let mut w2 = want.l2.clone();
            g2.sort_unstable_by_key(key);
            w2.sort_unstable_by_key(key);
            assert_eq!(g2, w2, "L2 of {t}");
        }
    }

    #[test]
    fn morton_key_sanity_for_lists() {
        let a = MortonKey::new(2, 0, 0, 0);
        let b = MortonKey::new(2, 3, 0, 0);
        assert!(a.well_separated(&b));
    }
}
