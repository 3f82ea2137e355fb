//! An octree that can be *refitted* in place as points move.
//!
//! [`Octree`](dashmm_tree::Octree) stores points as one Morton-sorted
//! array with contiguous `first..first+count` ranges per box — ideal for
//! a one-shot build, hostile to incremental updates.  [`RefitTree`]
//! trades that for per-leaf **blocks** (`ids`/`pts`/`q`/`codes`) plus a
//! point→(leaf, slot) index, so a time step touches exactly the leaves
//! whose contents changed.  Displacements apply in list order:
//!
//! * a **gather** keys every move by the leaf its point sits in and sorts
//!   the keys, so moves of one leaf are adjacent and keep list order;
//! * a **leaf pass** opens each touched block once, writes its movers'
//!   positions and codes in place, extracts (order kept) the points whose
//!   *final* code left the leaf, and re-sorts the block once while it is
//!   still in cache.  It prefetches a few movers ahead, so the cache
//!   misses of the scattered blocks overlap;
//! * the leavers are re-binned by a root descent along their codes' bit
//!   paths into already settled destination blocks;
//! * leaves whose occupancy crosses the refinement threshold are split
//!   or merged with **exactly the builder's rules** (split while
//!   `count > threshold && level < max_level`, collapse the topmost
//!   ancestor whose subtree dropped to `≤ threshold`, delete emptied
//!   subtrees), so the refitted topology is identical to what
//!   `Octree::build` over the current positions would produce.
//!
//! Every block is kept sorted by `(deep code, original id)`, the builder's
//! own total order, so each leaf holds its points in the order a rebuild
//! would and every expansion computed over the blocks equals the
//! rebuild's bit for bit, coincident points included.  Node and block
//! slots are recycled through free lists and every buffer is reused
//! across steps, so a converged stepping loop allocates nothing.

use dashmm_tree::morton::{deep_code, MAX_LEVEL};
use dashmm_tree::{BuildParams, Domain, MortonKey, Octree, Point3};

use crate::dirty::{reason, DirtySet};

/// A sparse per-point displacement: `index` is the point's original
/// (build-time) index.
#[derive(Clone, Copy, Debug)]
pub struct Displacement {
    /// Original point index.
    pub index: u32,
    /// Position delta to apply.
    pub delta: [f64; 3],
}

/// A sparse charge update, by original point index.
#[derive(Clone, Copy, Debug)]
pub struct ChargeUpdate {
    /// Original point index.
    pub index: u32,
    /// New charge value.
    pub charge: f64,
}

/// What one refit did to the tree.
#[derive(Clone, Debug, Default)]
pub struct RefitStats {
    /// Points displaced this step.
    pub moved: usize,
    /// Displaced points that crossed a leaf boundary and were re-binned.
    pub rebinned: usize,
    /// Charges rewritten.
    pub charge_updates: usize,
    /// Leaves split into children.
    pub splits: usize,
    /// Interior boxes collapsed back into leaves.
    pub merges: usize,
    /// Boxes created (split children, new octant leaves).
    pub created_boxes: usize,
    /// Boxes deleted (emptied subtrees, merged descendants).
    pub deleted_boxes: usize,
}

impl RefitStats {
    /// Whether the tree's structure (not just its contents) changed.
    pub fn structural(&self) -> bool {
        self.splits + self.merges + self.created_boxes + self.deleted_boxes > 0
    }
}

/// A point in transit: original id, position, charge, deep code.
type Entry = (u32, Point3, f64, u64);

/// Movers the leaf pass looks ahead, per stage: a mover's node line and
/// `point_slot` entry are requested this many movers before its turn,
/// then its block header, then its `pts`/`codes` slots.  Each stage reads
/// only lines the previous one requested, so the misses of a dozen movers
/// overlap instead of being taken one after another.
const AHEAD_NODE: usize = 16;
const AHEAD_BLOCK: usize = 8;
const AHEAD_SLOT: usize = 4;

/// Ask for the cache line holding `p`.  A hint: it never faults and
/// changes no result.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch performs no access; any address is allowed.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Per-leaf point storage: parallel `ids`/`pts`/`q`/`codes` arrays, kept
/// sorted by `(deep Morton code, original id)`.  The sort order is the
/// load-bearing invariant: it is exactly the order `Octree::build` visits
/// a leaf's points, coincident ones included, so expansions computed over
/// blocks are *bitwise* equal to a from-scratch rebuild — not merely
/// close — and step-vs-rebuild verification needs no rounding allowance
/// from the tree's side.
#[derive(Default)]
struct LeafBlock {
    ids: Vec<u32>,
    pts: Vec<Point3>,
    q: Vec<f64>,
    codes: Vec<u64>,
}

impl LeafBlock {
    fn clear(&mut self) {
        self.ids.clear();
        self.pts.clear();
        self.q.clear();
        self.codes.clear();
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Append; caller guarantees `code` ≥ every stored code (octant-order
    /// gathers during split/merge preserve sortedness this way).
    fn push_entry(&mut self, id: u32, p: Point3, q: f64, code: u64) {
        debug_assert!(self.codes.last().is_none_or(|&c| c <= code));
        self.ids.push(id);
        self.pts.push(p);
        self.q.push(q);
        self.codes.push(code);
    }

    /// The sort key of slot `s`: deep code, then original id.
    #[inline]
    fn key(&self, s: usize) -> (u64, u32) {
        (self.codes[s], self.ids[s])
    }

    /// Insert at the `(code, id)` position; returns it.  A leaf holds at
    /// most `threshold` points below `max_level` (any number at it, where
    /// coincident points pile up), so the shifts are cheap.
    fn insert_sorted(&mut self, id: u32, p: Point3, q: f64, code: u64) -> usize {
        let lo = self.codes.partition_point(|&c| c < code);
        let pos = lo
            + self.ids[lo..]
                .iter()
                .zip(&self.codes[lo..])
                .take_while(|&(&i, &c)| c == code && i < id)
                .count();
        self.ids.insert(pos, id);
        self.pts.insert(pos, p);
        self.q.insert(pos, q);
        self.codes.insert(pos, code);
        pos
    }

    /// Settle the block after its movers were written in place.  With
    /// `extract`, every entry whose code fails `inside` goes to `out` in
    /// block order and the rest close up; then the block is re-sorted by
    /// `(code, id)` with an insertion sort, which is linear in the block
    /// plus the distance the movers travel.  Returns the range of slots
    /// whose entry changed: `point_slot` is stale there.
    fn settle(
        &mut self,
        inside: impl Fn(u64) -> bool,
        extract: bool,
        out: &mut Vec<Entry>,
    ) -> std::ops::Range<usize> {
        let (mut first, mut end) = (self.len(), 0);
        if extract {
            let mut w = 0;
            for r in 0..self.len() {
                if inside(self.codes[r]) {
                    self.ids[w] = self.ids[r];
                    self.pts[w] = self.pts[r];
                    self.q[w] = self.q[r];
                    self.codes[w] = self.codes[r];
                    w += 1;
                } else {
                    out.push((self.ids[r], self.pts[r], self.q[r], self.codes[r]));
                    first = first.min(r);
                }
            }
            self.ids.truncate(w);
            self.pts.truncate(w);
            self.q.truncate(w);
            self.codes.truncate(w);
            if first < w {
                end = w;
            }
        }
        for j in 1..self.len() {
            let key = self.key(j);
            if self.key(j - 1) <= key {
                continue;
            }
            let mut i = j - 1;
            while i > 0 && self.key(i - 1) > key {
                i -= 1;
            }
            self.ids[i..=j].rotate_right(1);
            self.pts[i..=j].rotate_right(1);
            self.q[i..=j].rotate_right(1);
            self.codes[i..=j].rotate_right(1);
            first = first.min(i);
            end = end.max(j + 1);
        }
        first..end
    }

    fn capacity_bytes(&self) -> usize {
        4 * self.ids.capacity()
            + 24 * self.pts.capacity()
            + 8 * self.q.capacity()
            + 8 * self.codes.capacity()
    }
}

/// One box of the refit tree.  `block >= 0` marks a leaf; dead slots
/// (recycled through the free list) keep their parent pointer so dirty
/// propagation can climb out of a deleted subtree.
#[derive(Clone, Copy, Debug)]
pub struct RefitNode {
    /// Morton key of the box.
    pub key: MortonKey,
    /// Parent slot, `-1` at the root.
    pub parent: i32,
    /// Child slots per octant, `-1` when empty.
    pub children: [i32; 8],
    /// Points in this box's subtree.
    pub count: usize,
    /// Leaf block index, `-1` for interior boxes.
    pub block: i32,
    /// Whether the slot currently holds a live box.
    pub alive: bool,
}

impl RefitNode {
    /// Whether the box is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.block >= 0
    }

    /// Live child ids in ascending octant (Morton) order.
    pub fn child_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.children.iter().filter(|&&c| c >= 0).map(|&c| c as u32)
    }
}

/// The incrementally-maintained octree (see module docs).
pub struct RefitTree {
    domain: Domain,
    params: BuildParams,
    nodes: Vec<RefitNode>,
    free_nodes: Vec<u32>,
    blocks: Vec<LeafBlock>,
    free_blocks: Vec<u32>,
    /// Leaf slot holding each original point.
    point_leaf: Vec<u32>,
    /// Slot of each original point inside its leaf block.
    point_slot: Vec<u32>,
    num_alive: usize,
    depth: u8,
    /// The step's moves keyed `(leaf << 32) | list position`.
    move_keys: Vec<u64>,
    rebin_scratch: Vec<Entry>,
    touched_scratch: Vec<u32>,
    split_queue: Vec<u32>,
}

impl RefitTree {
    /// Convert a freshly built [`Octree`] (plus charges in **original**
    /// point order) into refit form.  Block contents start in the tree's
    /// Morton order, so expansions computed over blocks are bitwise equal
    /// to the contiguous-range build.
    pub fn from_octree(tree: &Octree, charges: &[f64]) -> Self {
        assert_eq!(
            tree.points().len(),
            charges.len(),
            "one charge per source point"
        );
        let perm = tree.permutation();
        let mut nodes = Vec::with_capacity(tree.num_nodes());
        let mut blocks: Vec<LeafBlock> = Vec::new();
        let mut point_leaf = vec![0u32; charges.len()];
        let mut point_slot = vec![0u32; charges.len()];
        for id in 0..tree.num_nodes() as u32 {
            let n = tree.node(id);
            let block = if n.is_leaf() {
                let mut b = LeafBlock::default();
                for (slot, k) in (n.first..n.first + n.count).enumerate() {
                    let orig = perm[k];
                    let p = tree.points()[k];
                    let (dx, dy, dz) = tree.domain().grid_coords(&p, MAX_LEVEL);
                    b.push_entry(orig, p, charges[orig as usize], deep_code(dx, dy, dz));
                    point_leaf[orig as usize] = id;
                    point_slot[orig as usize] = slot as u32;
                }
                blocks.push(b);
                (blocks.len() - 1) as i32
            } else {
                -1
            };
            nodes.push(RefitNode {
                key: n.key,
                parent: n.parent,
                children: n.children,
                count: n.count,
                block,
                alive: true,
            });
        }
        let num_alive = nodes.len();
        RefitTree {
            domain: *tree.domain(),
            params: *tree.params(),
            nodes,
            free_nodes: Vec::new(),
            blocks,
            free_blocks: Vec::new(),
            point_leaf,
            point_slot,
            num_alive,
            depth: tree.depth(),
            move_keys: Vec::new(),
            rebin_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            split_queue: Vec::new(),
        }
    }

    /// The fixed computational domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Refinement parameters (builder-identical split/merge rules).
    pub fn params(&self) -> &BuildParams {
        &self.params
    }

    /// Number of points (constant across steps).
    pub fn num_points(&self) -> usize {
        self.point_leaf.len()
    }

    /// Live boxes.
    pub fn num_alive_boxes(&self) -> usize {
        self.num_alive
    }

    /// Node slots (live + recycled); flat per-box arenas size to this.
    pub fn num_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Deepest live level.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// A node by slot (callers must know the slot is live or tolerate
    /// dead data).
    #[inline]
    pub fn node(&self, id: u32) -> &RefitNode {
        &self.nodes[id as usize]
    }

    /// Whether a slot holds a live box.
    #[inline]
    pub fn is_alive(&self, id: u32) -> bool {
        self.nodes[id as usize].alive
    }

    /// Parent slot even for dead nodes (`-1` at the root).
    #[inline]
    pub fn parent_raw(&self, id: u32) -> i32 {
        self.nodes[id as usize].parent
    }

    /// Center of a box.
    pub fn center_of(&self, id: u32) -> Point3 {
        let k = self.nodes[id as usize].key;
        self.domain.box_center(k.level, k.x, k.y, k.z)
    }

    /// Half-width of a box.
    pub fn half_of(&self, id: u32) -> f64 {
        0.5 * self.domain.side_at(self.nodes[id as usize].key.level)
    }

    /// Points and charges of a leaf, in block order.
    pub fn leaf_points(&self, id: u32) -> (&[Point3], &[f64]) {
        let b = self.nodes[id as usize].block;
        assert!(b >= 0, "leaf_points on interior box {id}");
        let blk = &self.blocks[b as usize];
        (&blk.pts, &blk.q)
    }

    /// Original ids of a leaf's points, parallel to [`Self::leaf_points`].
    pub fn leaf_ids(&self, id: u32) -> &[u32] {
        let b = self.nodes[id as usize].block;
        assert!(b >= 0, "leaf_ids on interior box {id}");
        &self.blocks[b as usize].ids
    }

    /// Current position of a point by original index.
    pub fn position_of(&self, index: u32) -> Point3 {
        let leaf = self.point_leaf[index as usize] as usize;
        let slot = self.point_slot[index as usize] as usize;
        self.blocks[self.nodes[leaf].block as usize].pts[slot]
    }

    /// Current charge of a point by original index.
    pub fn charge_of(&self, index: u32) -> f64 {
        let leaf = self.point_leaf[index as usize] as usize;
        let slot = self.point_slot[index as usize] as usize;
        self.blocks[self.nodes[leaf].block as usize].q[slot]
    }

    /// Leaf currently holding a point.
    pub fn leaf_of(&self, index: u32) -> u32 {
        self.point_leaf[index as usize]
    }

    /// Live box slots, ascending.
    pub fn alive_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| i as u32)
    }

    /// Bytes of held capacity across every persistent buffer (the
    /// footprint-stability probe: steps must stop growing this once the
    /// structures are warm).
    pub fn footprint_bytes(&self) -> usize {
        let node_bytes = self.nodes.capacity() * std::mem::size_of::<RefitNode>();
        let block_bytes: usize = self.blocks.iter().map(LeafBlock::capacity_bytes).sum();
        node_bytes
            + self.blocks.capacity() * std::mem::size_of::<LeafBlock>()
            + block_bytes
            + 4 * (self.free_nodes.capacity() + self.free_blocks.capacity())
            + 4 * (self.point_leaf.capacity() + self.point_slot.capacity())
            + 8 * self.move_keys.capacity()
            + std::mem::size_of::<Entry>() * self.rebin_scratch.capacity()
            + 4 * (self.touched_scratch.capacity() + self.split_queue.capacity())
    }

    /// Apply one step of sparse updates: charges first, then
    /// displacements in list order (a point that both moves and changes
    /// charge carries its new charge to its new leaf; a point listed twice
    /// moves by both deltas, in turn), then the structural fix-ups that
    /// restore the builder's topology invariants.  Leaves with changed
    /// contents are marked in `dirty` (callers run
    /// [`DirtySet::propagate`] afterwards).
    pub fn apply_step(
        &mut self,
        moves: &[Displacement],
        charges: &[ChargeUpdate],
        dirty: &mut DirtySet,
    ) -> RefitStats {
        let mut stats = RefitStats::default();
        dirty.begin_step(self.nodes.len());

        for c in charges {
            let i = c.index as usize;
            assert!(i < self.point_leaf.len(), "charge index out of range");
            let leaf = self.point_leaf[i];
            let slot = self.point_slot[i] as usize;
            let b = self.nodes[leaf as usize].block as usize;
            self.blocks[b].q[slot] = c.charge;
            dirty.mark(leaf, reason::CHARGE);
            stats.charge_updates += 1;
        }

        // Displacements apply in list order.  Gather: key every move by
        // the leaf its point sits in now, so that the leaf pass visits each
        // touched block once.  Within a leaf the keys keep list order, and
        // a point listed twice keys the same leaf both times.
        assert!(
            moves.len() <= u32::MAX as usize,
            "more displacements than a step can key"
        );
        let mut keys = std::mem::take(&mut self.move_keys);
        keys.clear();
        for (k, m) in moves.iter().enumerate() {
            let i = m.index as usize;
            assert!(i < self.point_leaf.len(), "displacement index out of range");
            keys.push(u64::from(self.point_leaf[i]) << 32 | k as u64);
        }
        keys.sort_unstable();
        stats.moved = moves.len();
        debug_assert!(self.rebin_scratch.is_empty());
        self.leaf_pass(moves, &keys, dirty);
        self.move_keys = keys;

        // Re-bin the leavers by root descent along their deep code's bit
        // path (the very bits the builder's sort keys on, so binning is
        // identical).
        let rebin = std::mem::take(&mut self.rebin_scratch);
        stats.rebinned = rebin.len();
        for &(id, p, q, code) in &rebin {
            self.insert_point(id, p, q, code, dirty, &mut stats);
        }
        self.rebin_scratch = rebin;
        self.rebin_scratch.clear();

        // Structural fix-ups, driven by the leaves touched above.
        debug_assert!(self.touched_scratch.is_empty());
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.extend_from_slice(dirty.touched());

        // (a) emptied subtrees vanish (the rebuild has no empty boxes).
        for &id in &touched {
            if self.nodes[id as usize].alive
                && self.nodes[id as usize].is_leaf()
                && self.nodes[id as usize].count == 0
            {
                self.delete_empty(id, dirty, &mut stats);
            }
        }

        // (b) merge the topmost ancestor whose subtree dropped to the
        // threshold — the rebuild would never have split it.
        for &id in &touched {
            let mut cur = id;
            while !self.nodes[cur as usize].alive {
                let p = self.nodes[cur as usize].parent;
                if p < 0 {
                    break;
                }
                cur = p as u32;
            }
            if !self.nodes[cur as usize].alive
                || self.nodes[cur as usize].count > self.params.threshold
            {
                continue;
            }
            loop {
                let p = self.nodes[cur as usize].parent;
                if p >= 0 && self.nodes[p as usize].count <= self.params.threshold {
                    cur = p as u32;
                } else {
                    break;
                }
            }
            if !self.nodes[cur as usize].is_leaf() {
                self.merge(cur, dirty, &mut stats);
            }
        }

        // (c) split over-threshold leaves, cascading like the builder's
        // recursive refine.
        debug_assert!(self.split_queue.is_empty());
        let mut queue = std::mem::take(&mut self.split_queue);
        for &id in &touched {
            let n = &self.nodes[id as usize];
            if n.alive
                && n.is_leaf()
                && n.count > self.params.threshold
                && n.key.level < self.params.max_level
            {
                queue.push(id);
            }
        }
        while let Some(id) = queue.pop() {
            let n = &self.nodes[id as usize];
            if n.alive
                && n.is_leaf()
                && n.count > self.params.threshold
                && n.key.level < self.params.max_level
            {
                self.split(id, dirty, &mut stats, &mut queue);
            }
        }
        self.split_queue = queue;
        touched.clear();
        self.touched_scratch = touched;

        if stats.structural() {
            self.depth = self
                .nodes
                .iter()
                .filter(|n| n.alive)
                .map(|n| n.key.level)
                .max()
                .unwrap_or(0);
        }
        debug_assert_eq!(self.nodes[0].count, self.num_points());
        debug_assert!(self.touched_leaves_settled(dirty));
        stats
    }

    // -- internals ----------------------------------------------------

    fn alloc_block(&mut self) -> i32 {
        match self.free_blocks.pop() {
            Some(b) => b as i32,
            None => {
                self.blocks.push(LeafBlock::default());
                (self.blocks.len() - 1) as i32
            }
        }
    }

    fn free_block(&mut self, b: i32) {
        self.blocks[b as usize].clear();
        self.free_blocks.push(b as u32);
    }

    /// Allocate a new live leaf with an empty block.
    fn new_leaf(&mut self, key: MortonKey, parent: u32) -> u32 {
        let block = self.alloc_block();
        let node = RefitNode {
            key,
            parent: parent as i32,
            children: [-1; 8],
            count: 0,
            block,
            alive: true,
        };
        self.num_alive += 1;
        match self.free_nodes.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn kill_node(&mut self, id: u32, stats: &mut RefitStats) {
        let node = &mut self.nodes[id as usize];
        debug_assert!(node.alive);
        node.alive = false;
        stats.deleted_boxes += 1;
        self.num_alive -= 1;
        self.free_nodes.push(id);
        let b = self.nodes[id as usize].block;
        if b >= 0 {
            self.nodes[id as usize].block = -1;
            self.free_block(b);
        }
    }

    /// Re-point `point_slot` for every entry of block `b` from position
    /// `from` on (a shift-insert moves the tail by one).
    fn refresh_slots(&mut self, b: usize, from: usize) {
        for s in from..self.blocks[b].len() {
            let id = self.blocks[b].ids[s];
            self.point_slot[id as usize] = s as u32;
        }
    }

    /// Apply the moves in `keys` (the gather's order: ascending leaf
    /// slot, list order within a leaf) in place, and settle each touched
    /// block right after its last mover, while it is still in cache:
    /// points whose *final* code left the leaf go to `rebin_scratch`, the
    /// rest are re-sorted, and their slots refreshed.
    fn leaf_pass(&mut self, moves: &[Displacement], keys: &[u64], dirty: &mut DirtySet) {
        let RefitTree {
            domain,
            nodes,
            blocks,
            point_slot,
            rebin_scratch,
            ..
        } = self;
        let leaf_of = |key: u64| (key >> 32) as usize;
        let move_of = |key: u64| &moves[key as u32 as usize];
        let mut group = 0;
        let mut left = false;
        for (j, &key) in keys.iter().enumerate() {
            if let Some(&ahead) = keys.get(j + AHEAD_NODE) {
                prefetch(&nodes[leaf_of(ahead)]);
                prefetch(&point_slot[move_of(ahead).index as usize]);
            }
            if let Some(&ahead) = keys.get(j + AHEAD_BLOCK) {
                prefetch(&blocks[nodes[leaf_of(ahead)].block as usize]);
            }
            if let Some(&ahead) = keys.get(j + AHEAD_SLOT) {
                let blk = &blocks[nodes[leaf_of(ahead)].block as usize];
                let slot = point_slot[move_of(ahead).index as usize] as usize;
                prefetch(blk.pts.as_ptr().wrapping_add(slot));
                prefetch(blk.codes.as_ptr().wrapping_add(slot));
            }

            let leaf = leaf_of(key);
            let node = &nodes[leaf];
            let (leaf_key, blk) = (node.key, &mut blocks[node.block as usize]);
            let (shift, leaf_code) = (3 * u32::from(MAX_LEVEL - leaf_key.level), leaf_key.code());
            let inside = |code: u64| code >> shift == leaf_code;
            let m = move_of(key);
            let slot = point_slot[m.index as usize] as usize;
            let p = blk.pts[slot];
            let np = Point3::new(p.x + m.delta[0], p.y + m.delta[1], p.z + m.delta[2]);
            let (dx, dy, dz) = domain.grid_coords(&np, MAX_LEVEL);
            let code = deep_code(dx, dy, dz);
            blk.pts[slot] = np;
            blk.codes[slot] = code;
            left |= !inside(code);
            group += 1;
            if keys.get(j + 1).is_some_and(|&next| leaf_of(next) == leaf) {
                continue;
            }

            // The leaf's last mover: settle its block.
            let before = rebin_scratch.len();
            for s in blk.settle(inside, left, rebin_scratch) {
                point_slot[blk.ids[s] as usize] = s as u32;
            }
            let leavers = rebin_scratch.len() - before;
            if leavers > 0 {
                let mut cur = leaf as i32;
                while cur >= 0 {
                    nodes[cur as usize].count -= leavers;
                    cur = nodes[cur as usize].parent;
                }
                dirty.mark(leaf as u32, reason::MEMBERSHIP);
            }
            if group > leavers {
                dirty.mark(leaf as u32, reason::GEOMETRY);
            }
            (group, left) = (0, false);
        }
    }

    /// The post-condition of [`Self::apply_step`] on every leaf it
    /// touched: the block is sorted by `(code, id)`, every code lies in
    /// the leaf, the count matches, and each point's `(leaf, slot)` points
    /// back at its entry.
    fn touched_leaves_settled(&self, dirty: &DirtySet) -> bool {
        dirty.touched().iter().all(|&id| {
            let n = &self.nodes[id as usize];
            if !n.alive || !n.is_leaf() {
                return true;
            }
            let blk = &self.blocks[n.block as usize];
            let shift = 3 * u32::from(MAX_LEVEL - n.key.level);
            blk.len() == n.count
                && (1..blk.len()).all(|s| blk.key(s - 1) < blk.key(s))
                && (0..blk.len()).all(|s| {
                    let p = blk.ids[s] as usize;
                    blk.codes[s] >> shift == n.key.code()
                        && self.point_leaf[p] == id
                        && self.point_slot[p] as usize == s
                })
        })
    }

    /// Insert a point by descending the bit path of its deep `code`,
    /// creating a leaf in a previously empty octant when needed (exactly
    /// where the rebuild would place one: a parent that refines has a
    /// child per occupied octant).
    fn insert_point(
        &mut self,
        id: u32,
        p: Point3,
        q: f64,
        code: u64,
        dirty: &mut DirtySet,
        stats: &mut RefitStats,
    ) {
        let mut n = 0u32;
        loop {
            self.nodes[n as usize].count += 1;
            if self.nodes[n as usize].is_leaf() {
                let b = self.nodes[n as usize].block as usize;
                let pos = self.blocks[b].insert_sorted(id, p, q, code);
                self.point_leaf[id as usize] = n;
                self.refresh_slots(b, pos);
                dirty.mark(n, reason::MEMBERSHIP);
                return;
            }
            let key = self.nodes[n as usize].key;
            let shift = 3 * (MAX_LEVEL - key.level - 1);
            let oct = ((code >> shift) & 7) as usize;
            let c = self.nodes[n as usize].children[oct];
            n = if c >= 0 {
                c as u32
            } else {
                let child = self.new_leaf(key.child(oct as u8), n);
                self.nodes[n as usize].children[oct] = child as i32;
                dirty.mark(child, reason::CREATED | reason::MEMBERSHIP);
                stats.created_boxes += 1;
                child
            };
        }
    }

    /// Delete the topmost emptied ancestor of `leaf` and its whole (all
    /// empty) subtree.
    fn delete_empty(&mut self, leaf: u32, dirty: &mut DirtySet, stats: &mut RefitStats) {
        debug_assert!(self.num_points() > 0);
        let mut top = leaf;
        loop {
            let p = self.nodes[top as usize].parent;
            debug_assert!(p >= 0, "the root cannot empty while points exist");
            if self.nodes[p as usize].count == 0 {
                top = p as u32;
            } else {
                break;
            }
        }
        let parent = self.nodes[top as usize].parent;
        let oct = self.nodes[top as usize].key.octant() as usize;
        self.nodes[parent as usize].children[oct] = -1;
        dirty.mark(parent as u32, reason::MEMBERSHIP);
        // DFS kill of the empty subtree.
        let mut stack = vec![top];
        while let Some(id) = stack.pop() {
            for c in self.nodes[id as usize].children {
                if c >= 0 {
                    stack.push(c as u32);
                }
            }
            self.kill_node(id, stats);
        }
    }

    /// Collapse interior box `a` (subtree count ≤ threshold) into a leaf,
    /// gathering descendant points in octant (near-Morton) order.
    fn merge(&mut self, a: u32, dirty: &mut DirtySet, stats: &mut RefitStats) {
        let nb = self.alloc_block();
        stats.merges += 1;
        let mut stack: Vec<u32> = Vec::new();
        for c in self.nodes[a as usize].children.iter().rev() {
            if *c >= 0 {
                stack.push(*c as u32);
            }
        }
        while let Some(id) = stack.pop() {
            if self.nodes[id as usize].is_leaf() {
                let cb = self.nodes[id as usize].block;
                let taken = std::mem::take(&mut self.blocks[cb as usize]);
                {
                    // Leaves arrive in octant (deep-code) order and each
                    // block is sorted, so plain appends keep `nb` sorted.
                    let dst = &mut self.blocks[nb as usize];
                    for k in 0..taken.len() {
                        let orig = taken.ids[k];
                        self.point_leaf[orig as usize] = a;
                        self.point_slot[orig as usize] = dst.len() as u32;
                        dst.push_entry(orig, taken.pts[k], taken.q[k], taken.codes[k]);
                    }
                }
                self.blocks[cb as usize] = taken;
            } else {
                for c in self.nodes[id as usize].children.iter().rev() {
                    if *c >= 0 {
                        stack.push(*c as u32);
                    }
                }
            }
            self.kill_node(id, stats);
        }
        let nlen = self.blocks[nb as usize].len();
        let node = &mut self.nodes[a as usize];
        node.children = [-1; 8];
        node.block = nb;
        debug_assert_eq!(node.count, nlen);
        dirty.mark(a, reason::MEMBERSHIP);
    }

    /// Split an over-threshold leaf into per-octant children (cascades
    /// via the caller's queue, mirroring the builder's recursion).
    fn split(
        &mut self,
        l: u32,
        dirty: &mut DirtySet,
        stats: &mut RefitStats,
        queue: &mut Vec<u32>,
    ) {
        let key = self.nodes[l as usize].key;
        debug_assert!(key.level < MAX_LEVEL);
        let bi = self.nodes[l as usize].block;
        let taken = std::mem::take(&mut self.blocks[bi as usize]);
        self.nodes[l as usize].block = -1;
        stats.splits += 1;
        let shift = 3 * (MAX_LEVEL - key.level - 1);
        for k in 0..taken.len() {
            let code = taken.codes[k];
            let oct = ((code >> shift) & 7) as usize;
            let c = self.nodes[l as usize].children[oct];
            let child = if c >= 0 {
                c as u32
            } else {
                let child = self.new_leaf(key.child(oct as u8), l);
                self.nodes[l as usize].children[oct] = child as i32;
                dirty.mark(child, reason::CREATED | reason::MEMBERSHIP);
                stats.created_boxes += 1;
                child
            };
            self.nodes[child as usize].count += 1;
            let orig = taken.ids[k];
            let cb = self.nodes[child as usize].block as usize;
            // A sorted parent partitions into sorted children (the octant
            // bits are the leading bits of the remaining code).
            let blk = &mut self.blocks[cb];
            self.point_leaf[orig as usize] = child;
            self.point_slot[orig as usize] = blk.len() as u32;
            blk.push_entry(orig, taken.pts[k], taken.q[k], code);
        }
        self.blocks[bi as usize] = taken;
        self.free_block(bi);
        for c in self.nodes[l as usize].children {
            if c >= 0 {
                let cn = &self.nodes[c as usize];
                if cn.count > self.params.threshold && cn.key.level < self.params.max_level {
                    queue.push(c as u32);
                }
            }
        }
    }
}
