//! Incremental time-stepping support for hierarchical multipole methods.
//!
//! A particle simulation re-evaluates the same FMM against slightly
//! different inputs every step: most points barely move, most charges
//! are constant, and the tree over them is almost identical to the last
//! step's.  Rebuilding everything from scratch throws that away.  This
//! crate keeps the tree *resident* and patches it in place:
//!
//! * [`RefitTree`] — an octree with per-leaf point blocks that re-bins
//!   only leaf-crossing points and splits/merges only the boxes whose
//!   occupancy crossed the refinement threshold, using exactly the
//!   builder's rules so the result always equals a from-scratch build
//!   over the current positions;
//! * [`DirtySet`] — per-step reason-tagged dirty flags over boxes, with
//!   ancestor propagation, so the stepping engine recomputes only the
//!   expansions a changed leaf can reach.
//!
//! The user-facing `step()` API lives in `dashmm_core`.

pub mod dirty;
pub mod tree;

pub use dirty::{reason, DirtySet};
pub use tree::{ChargeUpdate, Displacement, RefitNode, RefitStats, RefitTree};

#[cfg(test)]
mod tests {
    use super::*;
    use dashmm_tree::{uniform_cube, BuildParams, Domain, MortonKey, Octree, Point3};
    use rand::distributions::{Distribution as _, Uniform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    const THRESHOLD: usize = 30;

    fn params() -> BuildParams {
        BuildParams {
            threshold: THRESHOLD,
            max_level: dashmm_tree::morton::MAX_LEVEL,
        }
    }

    struct Mirror {
        pts: Vec<Point3>,
        q: Vec<f64>,
    }

    fn setup(n: usize, seed: u64) -> (Domain, RefitTree, Mirror) {
        let pts = uniform_cube(n, seed);
        let q: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let domain = Domain::containing(&[&pts], 0.05);
        let tree = Octree::build(domain, &pts, params());
        let rt = RefitTree::from_octree(&tree, &q);
        (domain, rt, Mirror { pts, q })
    }

    /// A deterministic sparse step: every `stride`-th point gets a random
    /// kick of scale `vel`, plus a few charge flips.
    fn random_step(
        rng: &mut StdRng,
        mirror: &mut Mirror,
        stride: usize,
        vel: f64,
    ) -> (Vec<Displacement>, Vec<ChargeUpdate>) {
        let unit = Uniform::new_inclusive(-1.0, 1.0);
        let mut moves = Vec::new();
        for i in (0..mirror.pts.len()).step_by(stride) {
            let delta = [
                vel * unit.sample(rng),
                vel * unit.sample(rng),
                vel * unit.sample(rng),
            ];
            mirror.pts[i].x += delta[0];
            mirror.pts[i].y += delta[1];
            mirror.pts[i].z += delta[2];
            moves.push(Displacement {
                index: i as u32,
                delta,
            });
        }
        let mut charges = Vec::new();
        for i in (0..mirror.pts.len()).step_by(97) {
            mirror.q[i] = -mirror.q[i];
            charges.push(ChargeUpdate {
                index: i as u32,
                charge: mirror.q[i],
            });
        }
        (moves, charges)
    }

    /// Map key → (count, is_leaf, point ids of a leaf in block order).
    /// The order is part of the shape: a leaf's expansion sums its points
    /// in that order.
    fn shape_of_rebuild(
        domain: Domain,
        pts: &[Point3],
        params: BuildParams,
    ) -> BTreeMap<MortonKey, (usize, bool, Vec<u32>)> {
        let tree = Octree::build(domain, pts, params);
        let mut m = BTreeMap::new();
        for id in 0..tree.num_nodes() as u32 {
            let n = tree.node(id);
            let ids = if n.is_leaf() {
                tree.permutation()[n.first..n.first + n.count].to_vec()
            } else {
                Vec::new()
            };
            m.insert(n.key, (n.count, n.is_leaf(), ids));
        }
        m
    }

    fn shape_of_refit(rt: &RefitTree) -> BTreeMap<MortonKey, (usize, bool, Vec<u32>)> {
        let mut m = BTreeMap::new();
        for id in rt.alive_ids() {
            let n = rt.node(id);
            let ids = if n.is_leaf() {
                rt.leaf_ids(id).to_vec()
            } else {
                Vec::new()
            };
            assert!(m.insert(n.key, (n.count, n.is_leaf(), ids)).is_none());
        }
        m
    }

    /// The refit's tree equals the rebuild's, leaf order included, and
    /// every point's position and charge read back through its index.
    fn assert_matches_rebuild(rt: &RefitTree, domain: Domain, mirror: &Mirror, what: &str) {
        assert_eq!(
            shape_of_refit(rt),
            shape_of_rebuild(domain, &mirror.pts, *rt.params()),
            "refit diverged from rebuild {what}"
        );
        for i in 0..mirror.pts.len() {
            assert_eq!(rt.position_of(i as u32), mirror.pts[i], "point {i} {what}");
            assert_eq!(rt.charge_of(i as u32), mirror.q[i], "charge {i} {what}");
        }
    }

    #[test]
    fn refit_matches_rebuild_topology_over_many_steps() {
        let (domain, mut rt, mut mirror) = setup(4000, 11);
        let mut rng = StdRng::seed_from_u64(5);
        let mut dirty = DirtySet::new();
        let side = domain.side();
        let mut saw_structure = false;
        for step in 0..10 {
            // Alternate gentle and violent steps so splits, merges and
            // deletions all actually occur.
            let vel = if step % 3 == 2 {
                0.2 * side
            } else {
                0.02 * side
            };
            let (moves, charges) = random_step(&mut rng, &mut mirror, 5, vel);
            let stats = rt.apply_step(&moves, &charges, &mut dirty);
            saw_structure |= stats.structural();
            assert_matches_rebuild(&rt, domain, &mirror, &format!("at step {step}"));
        }
        assert!(saw_structure, "test never exercised splits/merges");
    }

    #[test]
    fn displacements_apply_in_list_order_when_a_point_repeats() {
        let (domain, mut rt, mut mirror) = setup(2000, 23);
        let mut rng = StdRng::seed_from_u64(29);
        let side = domain.side();
        let mut dirty = DirtySet::new();
        for step in 0..4 {
            let (mut moves, charges) = random_step(&mut rng, &mut mirror, 9, 0.01 * side);
            // Repeat some movers: a kick that is undone later in the list,
            // then far kicks (across leaves) each followed by a small one,
            // with point 7 listed four times.
            let mut extra = vec![Displacement {
                index: 11,
                delta: [0.0, 0.0, 0.2 * side],
            }];
            for (k, &i) in [7u32, 1828, 400, 1999, 7].iter().enumerate() {
                let far = 0.15 * side * if k % 2 == 0 { 1.0 } else { -1.0 };
                for delta in [[far, 0.0, 0.5 * far], [0.0, 0.002 * side, 0.0]] {
                    extra.push(Displacement { index: i, delta });
                }
            }
            extra.push(Displacement {
                index: 11,
                delta: [0.0, 0.0, -0.2 * side],
            });
            for m in &extra {
                let p = &mut mirror.pts[m.index as usize];
                *p = Point3::new(p.x + m.delta[0], p.y + m.delta[1], p.z + m.delta[2]);
            }
            moves.extend(extra);
            let stats = rt.apply_step(&moves, &charges, &mut dirty);
            assert_eq!(stats.moved, moves.len());
            assert!(stats.rebinned > 0, "step {step} moved nobody across a leaf");
            assert_matches_rebuild(&rt, domain, &mirror, &format!("at step {step}"));
        }
    }

    #[test]
    fn coincident_points_keep_the_rebuild_order() {
        // Dyadic coordinates make every sum below exact, so a twin that
        // moves away and back lands on its partner bit for bit.
        let grid = |x: f64| (x * 1024.0).round() / 1024.0;
        let mut pts: Vec<Point3> = uniform_cube(400, 5)
            .iter()
            .map(|p| Point3::new(grid(p.x), grid(p.y), grid(p.z)))
            .collect();
        for t in 0..20 {
            pts[200 + t] = pts[t];
        }
        let params = BuildParams {
            threshold: 8,
            ..params()
        };
        let q: Vec<f64> = (0..pts.len()).map(|i| 1.0 + i as f64).collect();
        let domain = Domain::containing(&[&pts], 0.05);
        let mut rt = RefitTree::from_octree(&Octree::build(domain, &pts, params), &q);
        let mut mirror = Mirror { pts, q };
        let mut dirty = DirtySet::new();
        assert_matches_rebuild(&rt, domain, &mirror, "after the build");
        for twin in [0, 200] {
            let away: Vec<Displacement> = (twin..twin + 20)
                .map(|i| Displacement {
                    index: i as u32,
                    delta: [0.25, -0.125, 0.0],
                })
                .collect();
            let back: Vec<Displacement> = away
                .iter()
                .map(|m| Displacement {
                    index: m.index,
                    delta: [-0.25, 0.125, 0.0],
                })
                .collect();
            for (moves, what) in [(&away, "away"), (&back, "back")] {
                for m in moves {
                    let p = &mut mirror.pts[m.index as usize];
                    *p = Point3::new(p.x + m.delta[0], p.y + m.delta[1], p.z + m.delta[2]);
                }
                rt.apply_step(moves, &[], &mut dirty);
                assert_matches_rebuild(&rt, domain, &mirror, &format!("twins {twin}.. {what}"));
            }
            for t in 0..20 {
                assert_eq!(
                    mirror.pts[t],
                    mirror.pts[200 + t],
                    "twins must coincide again"
                );
            }
        }
    }

    #[test]
    fn dirty_propagation_covers_all_ancestors_of_changed_leaves() {
        let (_, mut rt, mut mirror) = setup(3000, 3);
        let mut rng = StdRng::seed_from_u64(17);
        let mut dirty = DirtySet::new();
        let (moves, charges) = random_step(&mut rng, &mut mirror, 4, 0.08);
        rt.apply_step(&moves, &charges, &mut dirty);
        dirty.propagate(&rt);
        let touched: Vec<u32> = dirty.touched().to_vec();
        for id in touched {
            let mut p = rt.parent_raw(id);
            while p >= 0 {
                assert!(
                    dirty.is_dirty(p as u32),
                    "ancestor {p} of dirty box {id} not marked"
                );
                p = rt.parent_raw(p as u32);
            }
        }
        // The root carries the ANCESTOR bit whenever anything changed.
        assert!(dirty.reason(0) & reason::ANCESTOR != 0);
    }

    #[test]
    fn footprint_stabilizes_under_reversible_cycles() {
        let (_, mut rt, mut mirror) = setup(3000, 41);
        let mut dirty = DirtySet::new();
        let side = rt.domain().side();
        // Every cycle re-seeds, so each performs *identical* reversible
        // work — after warmup no buffer may grow at all.
        let cycle = |rt: &mut RefitTree, mirror: &mut Mirror, dirty: &mut DirtySet| {
            let mut rng = StdRng::seed_from_u64(43);
            let (moves, charges) = random_step(&mut rng, mirror, 5, 0.1 * side);
            rt.apply_step(&moves, &charges, dirty);
            // Undo: reverse displacements and charge flips.
            let back: Vec<Displacement> = moves
                .iter()
                .map(|m| {
                    let d = [-m.delta[0], -m.delta[1], -m.delta[2]];
                    let i = m.index as usize;
                    mirror.pts[i].x += d[0];
                    mirror.pts[i].y += d[1];
                    mirror.pts[i].z += d[2];
                    Displacement {
                        index: m.index,
                        delta: d,
                    }
                })
                .collect();
            let unflip: Vec<ChargeUpdate> = charges
                .iter()
                .map(|c| {
                    let i = c.index as usize;
                    mirror.q[i] = -mirror.q[i];
                    ChargeUpdate {
                        index: c.index,
                        charge: mirror.q[i],
                    }
                })
                .collect();
            rt.apply_step(&back, &unflip, dirty);
        };
        for _ in 0..3 {
            cycle(&mut rt, &mut mirror, &mut dirty);
        }
        let warm = rt.footprint_bytes() + dirty.scratch_bytes();
        for _ in 0..3 {
            cycle(&mut rt, &mut mirror, &mut dirty);
            let now = rt.footprint_bytes() + dirty.scratch_bytes();
            assert_eq!(now, warm, "footprint grew after warmup");
        }
    }

    #[test]
    fn content_only_step_changes_no_structure() {
        let (_, mut rt, _) = setup(2000, 7);
        let mut dirty = DirtySet::new();
        let boxes_before = rt.num_alive_boxes();
        // Tiny displacement of one point, certain to stay in its leaf:
        // move by zero.
        let stats = rt.apply_step(
            &[Displacement {
                index: 0,
                delta: [0.0, 0.0, 0.0],
            }],
            &[ChargeUpdate {
                index: 1,
                charge: 2.5,
            }],
            &mut dirty,
        );
        assert!(!stats.structural());
        assert_eq!(stats.moved, 1);
        assert_eq!(stats.rebinned, 0);
        assert_eq!(stats.charge_updates, 1);
        assert_eq!(rt.num_alive_boxes(), boxes_before);
        assert_eq!(rt.charge_of(1), 2.5);
        let leaf = rt.leaf_of(0);
        assert!(dirty.reason(leaf) & reason::GEOMETRY != 0);
    }
}
