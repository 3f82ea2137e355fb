//! Dirty-subtree tracking across time steps.
//!
//! A refit marks the *leaves* whose contents changed (membership,
//! in-leaf geometry, charges, or creation); [`DirtySet::propagate`] then
//! walks ancestor chains so every box whose multipole expansion depends
//! on a changed leaf is flagged.  Everything not flagged is reused
//! verbatim by the stepping engine — its expansion is bitwise identical
//! to what a from-scratch rebuild would produce, which is what the
//! dirty-set soundness property test pins down.
//!
//! Flags live in a flat per-node-slot byte array with an explicit touched
//! list, so clearing between steps is `O(|dirty|)`, not `O(|tree|)`.

use crate::tree::RefitTree;

/// Reason bits for a dirty box.
pub mod reason {
    /// A point of this leaf moved and stayed inside it.
    pub const GEOMETRY: u8 = 1;
    /// Points entered or left this leaf (or it was split/merged).
    pub const MEMBERSHIP: u8 = 2;
    /// A charge changed in this leaf.
    pub const CHARGE: u8 = 4;
    /// Dirty only because a descendant is dirty.
    pub const ANCESTOR: u8 = 8;
    /// The box was created this step.
    pub const CREATED: u8 = 16;
}

/// Per-step set of dirty boxes with reason bits.
#[derive(Default)]
pub struct DirtySet {
    flags: Vec<u8>,
    touched: Vec<u32>,
}

impl DirtySet {
    /// Empty set; buffers grow to the tree size on first use.
    pub fn new() -> Self {
        DirtySet::default()
    }

    /// Clear the previous step's flags (via the touched list) and make
    /// room for `slots` node ids.
    pub fn begin_step(&mut self, slots: usize) {
        for &id in &self.touched {
            if (id as usize) < self.flags.len() {
                self.flags[id as usize] = 0;
            }
        }
        self.touched.clear();
        if self.flags.len() < slots {
            self.flags.resize(slots, 0);
        }
    }

    /// Mark a box dirty for `bits` reasons.
    pub fn mark(&mut self, id: u32, bits: u8) {
        if (id as usize) >= self.flags.len() {
            self.flags.resize(id as usize + 1, 0);
        }
        if self.flags[id as usize] == 0 {
            self.touched.push(id);
        }
        self.flags[id as usize] |= bits;
    }

    /// Reason bits of a box (0 = clean).
    pub fn reason(&self, id: u32) -> u8 {
        self.flags.get(id as usize).copied().unwrap_or(0)
    }

    /// Whether a box is dirty for any reason.
    pub fn is_dirty(&self, id: u32) -> bool {
        self.reason(id) != 0
    }

    /// Every box touched this step (may include since-deleted ids).
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Walk ancestor chains of every touched box, marking
    /// [`reason::ANCESTOR`].  Deleted boxes propagate from their recorded
    /// parent, so a subtree that vanished still dirties the boxes that
    /// contained it.  The walk stops at the first box already carrying
    /// the ANCESTOR bit — its own chain is complete by induction.
    pub fn propagate(&mut self, tree: &RefitTree) {
        let mut i = 0;
        while i < self.touched.len() {
            let id = self.touched[i];
            i += 1;
            let mut p = tree.parent_raw(id);
            while p >= 0 {
                let pid = p as u32;
                if self.reason(pid) & reason::ANCESTOR != 0 {
                    break;
                }
                self.mark(pid, reason::ANCESTOR);
                p = tree.parent_raw(pid);
            }
        }
    }

    /// Alive dirty boxes, in touch order.
    pub fn dirty_boxes<'a>(&'a self, tree: &'a RefitTree) -> impl Iterator<Item = u32> + 'a {
        self.touched.iter().copied().filter(|&id| tree.is_alive(id))
    }

    /// Bytes of held capacity (footprint-stability probes).
    pub fn scratch_bytes(&self) -> usize {
        self.flags.capacity() + 4 * self.touched.capacity()
    }
}
