//! Shared state for the `serve` / `load_test` binary pair.
//!
//! The load tester verifies every server response against a locally built
//! reference engine, so both processes must construct **bit-identical**
//! resident state and both sides of a request must agree on its target
//! batch.  This module is that common ground: one deterministic workload
//! description (`--points/--seed/--theta/--threshold`), one engine
//! constructor, and one per-request target generator keyed by
//! `(seed, client, request)`.

use std::sync::RwLock;

use dashmm_core::{ResidentConfig, ResidentFmm};
use dashmm_kernels::Laplace;
use dashmm_refit::{ChargeUpdate, Displacement};
use dashmm_tree::{uniform_cube, BuildParams};

/// The deterministic service workload both binaries rebuild.
#[derive(Clone, Copy, Debug)]
pub struct ServiceWorkload {
    /// Source count.
    pub points: usize,
    /// Seed for sources, charges and query batches.
    pub seed: u64,
    /// Barnes–Hut acceptance parameter.
    pub theta: f64,
    /// Octree refinement threshold.
    pub threshold: usize,
}

impl Default for ServiceWorkload {
    fn default() -> Self {
        ServiceWorkload {
            points: 20_000,
            seed: 42,
            theta: 0.5,
            threshold: 60,
        }
    }
}

impl ServiceWorkload {
    /// Alternating unit charges (same convention as the accuracy tests).
    pub fn charges(&self) -> Vec<f64> {
        (0..self.points)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect()
    }

    /// Build the resident engine this workload describes.  Called by the
    /// server once at startup and by the load tester for its reference.
    pub fn build_engine(&self) -> ResidentFmm<Laplace> {
        let sources = uniform_cube(self.points, self.seed);
        let charges = self.charges();
        let cfg = ResidentConfig {
            theta: self.theta,
            build: BuildParams {
                threshold: self.threshold,
                ..BuildParams::default()
            },
            ..ResidentConfig::default()
        };
        ResidentFmm::build(Laplace, &sources, &charges, cfg)
    }

    /// The target batch of request `req` from client `client`: both sides
    /// derive it from the workload seed, so the load tester never ships
    /// its reference targets over the wire.
    pub fn request_targets(&self, client: u32, req: u32, batch: usize) -> Vec<[f64; 3]> {
        use rand::distributions::{Distribution, Uniform};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // splitmix-style mix of (seed, client, req) into one stream seed.
        let mix = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((u64::from(client) << 32) | u64::from(req));
        let mut rng = StdRng::seed_from_u64(mix);
        let u = Uniform::new_inclusive(-1.0, 1.0);
        (0..batch)
            .map(|_| [u.sample(&mut rng), u.sample(&mut rng), u.sample(&mut rng)])
            .collect()
    }
}

/// A resident engine behind a reader–writer lock, servable *and*
/// steppable: queries take the read side (many concurrent tiles), a
/// [`StepSources`](dashmm_net::FrameKind::StepSources) update takes the
/// write side and refits the tree in place.  This is the lock the
/// [`StepEngine`](dashmm_net::StepEngine) contract asks the engine to
/// provide — queries admitted concurrently with a step land on one side
/// of it or the other.
pub struct SteppingResident(pub RwLock<ResidentFmm<Laplace>>);

impl SteppingResident {
    /// Wrap a built engine.
    pub fn new(fmm: ResidentFmm<Laplace>) -> Self {
        SteppingResident(RwLock::new(fmm))
    }
}

impl dashmm_net::EvalEngine for SteppingResident {
    fn evaluate(&self, targets: &[[f64; 3]], out: &mut [f64]) {
        self.0.read().expect("engine lock").evaluate(targets, out);
    }

    fn evaluate_traced(
        &self,
        targets: &[[f64; 3]],
        out: &mut [f64],
    ) -> dashmm_net::EngineBreakdown {
        let prof = self
            .0
            .read()
            .expect("engine lock")
            .evaluate_profiled(targets, out);
        dashmm_net::EngineBreakdown {
            m2t_us: prof.m2t_us,
            p2p_us: prof.p2p_us,
            far_pairs: prof.far_pairs,
            near_pairs: prof.near_pairs,
        }
    }
}

impl SteppingResident {
    /// Apply one step, or refuse it whole (`None`, nothing applied) if an
    /// index is out of range.  Non-finite deltas and charges never get
    /// here: the server refuses them at its input boundary.
    fn apply_step(
        &self,
        moves: &[(u32, [f64; 3])],
        charges: &[(u32, f64)],
    ) -> Option<dashmm_core::StepReport> {
        let mut fmm = self.0.write().expect("engine lock");
        let n = fmm.num_sources() as u32;
        if moves
            .iter()
            .map(|(i, _)| *i)
            .chain(charges.iter().map(|(i, _)| *i))
            .any(|i| i >= n)
        {
            return None;
        }
        let moves: Vec<Displacement> = moves
            .iter()
            .map(|&(index, delta)| Displacement { index, delta })
            .collect();
        let charges: Vec<ChargeUpdate> = charges
            .iter()
            .map(|&(index, charge)| ChargeUpdate { index, charge })
            .collect();
        Some(fmm.step(&moves, &charges))
    }
}

impl dashmm_net::StepEngine for SteppingResident {
    fn step(&self, moves: &[(u32, [f64; 3])], charges: &[(u32, f64)]) -> bool {
        self.apply_step(moves, charges).is_some()
    }

    fn step_traced(
        &self,
        moves: &[(u32, [f64; 3])],
        charges: &[(u32, f64)],
    ) -> dashmm_net::StepOutcome {
        let t0 = std::time::Instant::now();
        match self.apply_step(moves, charges) {
            Some(report) => dashmm_net::StepOutcome {
                applied: true,
                reused_expansions: report.reused_expansions as u64,
                recomputed_expansions: report.dirty_boxes as u64,
                total_us: t0.elapsed().as_secs_f64() * 1e6,
            },
            None => dashmm_net::StepOutcome {
                applied: false,
                reused_expansions: 0,
                recomputed_expansions: 0,
                total_us: t0.elapsed().as_secs_f64() * 1e6,
            },
        }
    }
}

/// The ready line `serve` prints once it is listening; `load_test` parses
/// the port out of it.
pub const READY_PREFIX: &str = "SERVE ready port=";

/// Parse the port from a [`READY_PREFIX`] line.
pub fn parse_ready_line(line: &str) -> Option<u16> {
    let rest = line.strip_prefix(READY_PREFIX)?;
    rest.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod service_tests {
    use super::*;

    #[test]
    fn request_targets_are_deterministic_and_distinct() {
        let w = ServiceWorkload::default();
        let a = w.request_targets(3, 7, 16);
        let b = w.request_targets(3, 7, 16);
        let c = w.request_targets(3, 8, 16);
        assert_eq!(a, b, "same (client, req) must reproduce");
        assert_ne!(a, c, "different requests must differ");
        assert!(a.iter().flatten().all(|x| x.abs() <= 1.0));
    }

    #[test]
    fn stepping_resident_serves_and_steps() {
        use dashmm_net::{EvalEngine as _, StepEngine as _};
        let w = ServiceWorkload {
            points: 2000,
            ..ServiceWorkload::default()
        };
        let engine = SteppingResident::new(w.build_engine());
        let targets = w.request_targets(0, 0, 8);
        let mut before = vec![0.0; 8];
        engine.evaluate(&targets, &mut before);
        // An out-of-range index is rejected and nothing is applied.
        assert!(!engine.step(&[(u32::MAX, [0.0; 3])], &[]));
        let mut same = vec![0.0; 8];
        engine.evaluate(&targets, &mut same);
        assert_eq!(before, same);
        // A real update is applied and visible to the next query.
        assert!(engine.step(&[(0, [0.01, 0.0, 0.0])], &[(1, 3.0)]));
        let mut after = vec![0.0; 8];
        engine.evaluate(&targets, &mut after);
        assert_ne!(before, after, "step must change the answers");
        // The stepped engine matches a from-scratch rebuild in the same
        // domain over the updated sources.
        let fmm = engine.0.read().unwrap();
        let fresh = ResidentFmm::build_in_domain(
            Laplace,
            &fmm.current_sources(),
            &fmm.current_charges(),
            ResidentConfig {
                theta: w.theta,
                build: BuildParams {
                    threshold: w.threshold,
                    ..BuildParams::default()
                },
                ..ResidentConfig::default()
            },
            *fmm.domain(),
        );
        let mut want = vec![0.0; 8];
        fresh.evaluate(&targets, &mut want);
        assert_eq!(after, want);
    }

    #[test]
    fn stepping_server_applies_a_repeated_index_in_list_order() {
        use dashmm_net::{EvalClient, EvalServer, RespStatus, ServiceConfig};
        let w = ServiceWorkload {
            points: 2000,
            ..ServiceWorkload::default()
        };
        let engine = std::sync::Arc::new(SteppingResident::new(w.build_engine()));
        let start = engine.0.read().unwrap().current_sources();
        let mut server =
            EvalServer::bind_stepping("127.0.0.1:0", engine.clone(), ServiceConfig::default())
                .unwrap();
        let mut client = EvalClient::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
        // Point 7 crosses leaves, then moves again in the same request.
        let moves = [
            (7, [0.6, 0.0, -0.3]),
            (3, [0.01, 0.0, 0.0]),
            (7, [0.0, 0.02, 0.0]),
        ];
        let resp = client.step(0, &moves, &[]).unwrap();
        assert_eq!(resp.status, RespStatus::Ok);
        // The next request is served, by an engine that equals a rebuild
        // over the sources with both of point 7's deltas applied in order.
        let targets = w.request_targets(0, 0, 8);
        let after = client.eval(0, &targets).unwrap();
        assert_eq!(after.status, RespStatus::Ok);
        let fmm = engine.0.read().unwrap();
        let now = fmm.current_sources();
        let (p, q) = (start[7], now[7]);
        assert_eq!(
            (q.x, q.y, q.z),
            (p.x + 0.6 + 0.0, p.y + 0.0 + 0.02, p.z - 0.3 + 0.0)
        );
        assert_eq!(now[3].x, start[3].x + 0.01);
        assert!((0..start.len()).all(|i| i == 3 || i == 7 || now[i] == start[i]));
        let fresh = ResidentFmm::build_in_domain(
            Laplace,
            &now,
            &fmm.current_charges(),
            ResidentConfig {
                theta: w.theta,
                build: BuildParams {
                    threshold: w.threshold,
                    ..BuildParams::default()
                },
                ..ResidentConfig::default()
            },
            *fmm.domain(),
        );
        let mut want = vec![0.0; targets.len()];
        fresh.evaluate(&targets, &mut want);
        assert_eq!(after.potentials, want);
        drop(fmm);
        client.close().unwrap();
        server.shutdown();
    }

    /// A step carrying a non-finite delta or charge is refused whole: the
    /// server answers `BadRequest`, no source moves, and later answers are
    /// bitwise those before it.
    #[test]
    fn stepping_server_refuses_a_non_finite_step() {
        use dashmm_net::{EvalClient, EvalServer, RespStatus, ServiceConfig};
        let w = ServiceWorkload {
            points: 2000,
            ..ServiceWorkload::default()
        };
        let engine = std::sync::Arc::new(SteppingResident::new(w.build_engine()));
        let start = engine.0.read().unwrap().current_sources();
        let mut server =
            EvalServer::bind_stepping("127.0.0.1:0", engine.clone(), ServiceConfig::default())
                .unwrap();
        let mut client = EvalClient::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
        let targets = w.request_targets(0, 0, 8);
        let before = client.eval(0, &targets).unwrap();
        assert_eq!(before.status, RespStatus::Ok);
        // A finite move rides along, so a partial application would show.
        let nudge = (3, [0.01, 0.0, 0.0]);
        let no_charges: &[(u32, f64)] = &[];
        for (what, moves, charges) in [
            (
                "a NaN delta",
                vec![nudge, (5, [f64::NAN, 0.0, 0.0])],
                no_charges,
            ),
            (
                "an infinite delta",
                vec![(5, [f64::INFINITY, 0.0, 0.0])],
                no_charges,
            ),
            ("a NaN charge", vec![nudge], &[(5, f64::NAN)][..]),
        ] {
            let resp = client.step(0, &moves, charges).unwrap();
            assert_eq!(resp.status, RespStatus::BadRequest, "{what}");
            assert!(
                engine.0.read().unwrap().current_sources() == start,
                "{what}: moved"
            );
            let after = client.eval(0, &targets).unwrap();
            assert_eq!(after.status, RespStatus::Ok, "{what}");
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&after.potentials), bits(&before.potentials), "{what}");
        }
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn ready_line_roundtrip() {
        let line = format!("{}{} points=100 depth=3", READY_PREFIX, 54321);
        assert_eq!(parse_ready_line(&line), Some(54321));
        assert_eq!(parse_ready_line("garbage"), None);
    }
}
