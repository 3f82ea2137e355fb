//! Adaptive octree construction.
//!
//! Points are sorted once by their deep-grid Morton code; the tree is then
//! built recursively over contiguous index ranges.  A box is refined while it
//! holds at least `threshold` points (the paper uses a refinement threshold
//! of 60) and its level is below `max_level`; empty children are pruned.

use crate::domain::Domain;
use crate::morton::{deep_code, MortonKey, MAX_LEVEL};
use crate::point::Point3;

/// Tree construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct BuildParams {
    /// Refine a box while it contains more than this many points.
    pub threshold: usize,
    /// Hard refinement cap (guards against coincident points).
    pub max_level: u8,
}

impl Default for BuildParams {
    fn default() -> Self {
        // The paper's refinement threshold.
        BuildParams {
            threshold: 60,
            max_level: MAX_LEVEL,
        }
    }
}

/// One box of the octree.
#[derive(Clone, Debug, PartialEq)]
pub struct OctreeNode {
    /// Level + integer grid coordinates of the box.
    pub key: MortonKey,
    /// Index of the parent node (`-1` for the root).
    pub parent: i32,
    /// Child node indices per octant; `-1` where the child was pruned.
    pub children: [i32; 8],
    /// First index into the permuted point array.
    pub first: usize,
    /// Number of points contained in this box.
    pub count: usize,
}

impl OctreeNode {
    /// Whether the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c < 0)
    }

    /// Iterator over existing child indices.
    pub fn child_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.children.iter().filter(|&&c| c >= 0).map(|&c| c as u32)
    }
}

/// An adaptive, empty-pruned octree over one point ensemble.
pub struct Octree {
    domain: Domain,
    params: BuildParams,
    nodes: Vec<OctreeNode>,
    /// Points permuted into Morton order.
    points: Vec<Point3>,
    /// `perm[i]` = original index of `points[i]`.
    perm: Vec<u32>,
    /// Node indices grouped by level.
    levels: Vec<Vec<u32>>,
}

impl Octree {
    /// Build the tree for `points` over `domain`.
    pub fn build(domain: Domain, points: &[Point3], params: BuildParams) -> Self {
        assert!(!points.is_empty(), "octree requires at least one point");
        assert!(params.max_level <= MAX_LEVEL);

        // Deep-grid Morton codes, then a single sort.  It is stable over
        // index order, so the order is `(code, index)`: coincident points
        // come out in index order, the order the refit keeps its leaf
        // blocks in.
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        let codes: Vec<u64> = points
            .iter()
            .map(|p| {
                let (x, y, z) = domain.grid_coords(p, MAX_LEVEL);
                deep_code(x, y, z)
            })
            .collect();
        order.sort_by_key(|&i| codes[i as usize]);
        let sorted_codes: Vec<u64> = order.iter().map(|&i| codes[i as usize]).collect();
        let sorted_points: Vec<Point3> = order.iter().map(|&i| points[i as usize]).collect();

        let mut tree = Octree {
            domain,
            params,
            nodes: Vec::new(),
            points: sorted_points,
            perm: order,
            levels: Vec::new(),
        };
        tree.nodes.push(OctreeNode {
            key: MortonKey::ROOT,
            parent: -1,
            children: [-1; 8],
            first: 0,
            count: tree.points.len(),
        });
        tree.refine(0, &sorted_codes);

        tree.levels = {
            let max = tree.nodes.iter().map(|n| n.key.level).max().unwrap() as usize;
            let mut lv = vec![Vec::new(); max + 1];
            for (i, n) in tree.nodes.iter().enumerate() {
                lv[n.key.level as usize].push(i as u32);
            }
            lv
        };
        tree
    }

    fn refine(&mut self, node: usize, codes: &[u64]) {
        let (key, first, count) = {
            let n = &self.nodes[node];
            (n.key, n.first, n.count)
        };
        if count <= self.params.threshold || key.level >= self.params.max_level {
            return;
        }
        // Children partition the sorted range; the octant of a point at the
        // child level is the 3-bit group at this depth of its deep code.
        let shift = 3 * (MAX_LEVEL - key.level - 1) as u64;
        let mut lo = first;
        let hi = first + count;
        while lo < hi {
            let oct = ((codes[lo] >> shift) & 7) as u8;
            // Find the end of this octant's run with a galloping scan.
            let mut end = lo + 1;
            while end < hi && ((codes[end] >> shift) & 7) as u8 == oct {
                end += 1;
            }
            let child_idx = self.nodes.len();
            // Morton bit interleave is x | y<<1 | z<<2; child() takes the same.
            self.nodes.push(OctreeNode {
                key: key.child(oct),
                parent: node as i32,
                children: [-1; 8],
                first: lo,
                count: end - lo,
            });
            self.nodes[node].children[oct as usize] = child_idx as i32;
            self.refine(child_idx, codes);
            lo = end;
        }
    }

    /// The shared computational domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Build parameters used.
    pub fn params(&self) -> &BuildParams {
        &self.params
    }

    /// Number of boxes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Access a node.
    #[inline]
    pub fn node(&self, id: u32) -> &OctreeNode {
        &self.nodes[id as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[OctreeNode] {
        &self.nodes
    }

    /// Morton-ordered points.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// Points of one box (contiguous slice in Morton order).
    pub fn points_of(&self, id: u32) -> &[Point3] {
        let n = self.node(id);
        &self.points[n.first..n.first + n.count]
    }

    /// Original indices of the Morton-ordered points.
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }

    /// Geometric center of a box.
    pub fn center_of(&self, id: u32) -> Point3 {
        let k = self.node(id).key;
        self.domain.box_center(k.level, k.x, k.y, k.z)
    }

    /// Half-side of a box.
    pub fn half_of(&self, id: u32) -> f64 {
        self.domain.side_at(self.node(id).key.level) * 0.5
    }

    /// Node indices at a given level.
    pub fn level_nodes(&self, level: u8) -> &[u32] {
        self.levels
            .get(level as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Deepest level present in the tree.
    pub fn depth(&self) -> u8 {
        (self.levels.len() - 1) as u8
    }

    /// Indices of all leaf nodes.
    pub fn leaves(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_leaf())
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sphere_surface, uniform_cube};

    fn build(points: &[Point3], threshold: usize) -> Octree {
        let domain = Domain::containing(&[points], 1e-4);
        Octree::build(
            domain,
            points,
            BuildParams {
                threshold,
                max_level: MAX_LEVEL,
            },
        )
    }

    #[test]
    fn all_points_in_their_boxes() {
        let pts = uniform_cube(5000, 42);
        let t = build(&pts, 60);
        for (id, n) in t.nodes().iter().enumerate() {
            let c = t.center_of(id as u32);
            let h = t.half_of(id as u32);
            for p in t.points_of(id as u32) {
                assert!(
                    (*p - c).norm_max() <= h * (1.0 + 1e-9),
                    "point outside its box at node {id}"
                );
            }
            assert!(n.count > 0, "empty node {id} must have been pruned");
        }
    }

    #[test]
    fn leaves_partition_points() {
        let pts = sphere_surface(3000, 9);
        let t = build(&pts, 60);
        let mut covered = vec![false; pts.len()];
        for leaf in t.leaves() {
            let n = t.node(leaf);
            for i in n.first..n.first + n.count {
                assert!(!covered[i], "point {i} covered twice");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn leaf_counts_respect_threshold() {
        let pts = uniform_cube(10000, 1);
        let t = build(&pts, 60);
        for leaf in t.leaves() {
            assert!(t.node(leaf).count <= 60);
        }
        // Interior nodes must exceed the threshold (that is why they split).
        for n in t.nodes() {
            if !n.is_leaf() {
                assert!(n.count > 60);
            }
        }
    }

    #[test]
    fn children_partition_parent_range() {
        let pts = uniform_cube(8000, 3);
        let t = build(&pts, 30);
        for n in t.nodes() {
            if n.is_leaf() {
                continue;
            }
            let mut total = 0;
            let mut next = n.first;
            let mut kids: Vec<&OctreeNode> = n.child_ids().map(|c| t.node(c)).collect();
            kids.sort_by_key(|k| k.first);
            for k in kids {
                assert_eq!(k.first, next, "children must tile the parent range");
                assert_eq!(
                    k.parent,
                    t.nodes().iter().position(|m| std::ptr::eq(m, n)).unwrap() as i32
                );
                next = k.first + k.count;
                total += k.count;
            }
            assert_eq!(total, n.count);
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let pts = uniform_cube(1234, 5);
        let t = build(&pts, 20);
        let mut seen = vec![false; pts.len()];
        for &p in t.permutation() {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Permuted points match originals.
        for (i, &orig) in t.permutation().iter().enumerate() {
            assert_eq!(t.points()[i], pts[orig as usize]);
        }
    }

    #[test]
    fn sphere_tree_deeper_than_cube_tree() {
        // The paper: sphere data produces much more non-uniform (deeper)
        // trees.  At 20k points a uniform cube sits right at the depth-4/5
        // boundary and the comparison depends on the RNG stream; 40k gives
        // the property a full level of margin.
        let n = 40000;
        let cube = build(&uniform_cube(n, 7), 60);
        let sphere = build(&sphere_surface(n, 7), 60);
        assert!(
            sphere.depth() > cube.depth(),
            "sphere depth {} should exceed cube depth {}",
            sphere.depth(),
            cube.depth()
        );
    }

    #[test]
    fn cube_tree_is_uniform_depth() {
        // With uniform cube data every leaf sits at the same depth (paper §V-A).
        let t = build(&uniform_cube(40000, 2), 60);
        let depths: Vec<u8> = t.leaves().iter().map(|&l| t.node(l).key.level).collect();
        let min = *depths.iter().min().unwrap();
        let max = *depths.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "cube leaves should be nearly uniform: {min}..{max}"
        );
    }

    #[test]
    fn single_point_tree() {
        let pts = vec![Point3::new(0.3, -0.2, 0.9)];
        let domain = Domain::new(Point3::ZERO, 1.0);
        let t = Octree::build(domain, &pts, BuildParams::default());
        assert_eq!(t.num_nodes(), 1);
        assert!(t.node(0).is_leaf());
    }

    #[test]
    fn coincident_points_capped_by_max_level() {
        let pts = vec![Point3::new(0.1, 0.1, 0.1); 100];
        let domain = Domain::new(Point3::ZERO, 1.0);
        let t = Octree::build(
            domain,
            &pts,
            BuildParams {
                threshold: 10,
                max_level: 4,
            },
        );
        assert!(t.depth() <= 4);
        for leaf in t.leaves() {
            assert_eq!(t.node(leaf).count, 100);
        }
    }

    #[test]
    fn level_nodes_cover_all_nodes() {
        let pts = uniform_cube(3000, 11);
        let t = build(&pts, 60);
        let total: usize = (0..=t.depth()).map(|l| t.level_nodes(l).len()).sum();
        assert_eq!(total, t.num_nodes());
    }
}
