//! Seeded inputs.  The same seed gives the same inputs, bit for bit, and
//! the program sees only what is generated here.

pub type P3 = [f64; 3];

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// Stream numbers, one per kind of input.
const SOURCES: u64 = 1;
const TARGETS: u64 = 2;
const CHARGES: u64 = 3;
const SAMPLE: u64 = 4;
const VELOCITY: u64 = 5;
const REQUEST: u64 = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Geometry {
    /// Uniform in the cube `[-1, 1]³`: a deep uniform tree.
    Cube,
    /// Uniform on the unit sphere's surface: an adaptive tree.
    Sphere,
}

fn cloud(geometry: Geometry, n: usize, mut rng: Rng) -> Vec<P3> {
    (0..n)
        .map(|_| match geometry {
            Geometry::Cube => [
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            ],
            Geometry::Sphere => {
                let z = rng.range(-1.0, 1.0);
                let phi = rng.range(0.0, std::f64::consts::TAU);
                let r = (1.0 - z * z).max(0.0).sqrt();
                [r * phi.cos(), r * phi.sin(), z]
            }
        })
        .collect()
}

pub fn sources(geometry: Geometry, n: usize, seed: u64) -> Vec<P3> {
    cloud(geometry, n, Rng::new(seed, SOURCES))
}

pub fn targets(geometry: Geometry, n: usize, seed: u64) -> Vec<P3> {
    cloud(geometry, n, Rng::new(seed, TARGETS))
}

/// Charges of round `round`, uniform in `[0.5, 1.5)`.  One sign, so the
/// potentials are far from zero and a relative error means what it says.
pub fn charges(n: usize, seed: u64, round: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, CHARGES ^ (round << 8));
    (0..n).map(|_| rng.range(0.5, 1.5)).collect()
}

/// `count` distinct indices below `n`, ascending: the targets checked
/// against the direct sum.
pub fn sample_indices(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, SAMPLE);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count.min(n) {
        picked.insert(rng.below(n));
    }
    picked.into_iter().collect()
}

/// Per-point velocities of length `speed` in a random direction.
pub fn velocities(n: usize, speed: f64, seed: u64) -> Vec<P3> {
    let mut rng = Rng::new(seed, VELOCITY);
    (0..n)
        .map(|_| {
            let v = [
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            ];
            let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt().max(1e-12);
            [
                v[0] / norm * speed,
                v[1] / norm * speed,
                v[2] / norm * speed,
            ]
        })
        .collect()
}

/// The targets of request `index` on connection `conn`, in `[-1, 1]³`.
pub fn request_targets(seed: u64, conn: u64, index: u64, batch: usize) -> Vec<P3> {
    let mut rng = Rng::new(seed, REQUEST ^ (conn << 8) ^ (index << 16));
    (0..batch)
        .map(|_| {
            [
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            ]
        })
        .collect()
}

/// A leapfrog drift: every step moves one of `stride` interleaved subsets
/// of the points along its velocity, reflecting at the walls of the cube
/// `[-wall, wall]³`, so all points move over `stride` steps.
pub struct Drift {
    pub pos: Vec<P3>,
    vel: Vec<P3>,
    wall: f64,
    stride: usize,
}

impl Drift {
    pub fn new(pos: Vec<P3>, speed: f64, wall: f64, stride: usize, seed: u64) -> Self {
        let vel = velocities(pos.len(), speed, seed);
        Drift {
            pos,
            vel,
            wall,
            stride: stride.max(1),
        }
    }

    /// The displacements of step `step`, by point index; positions advance.
    pub fn step(&mut self, step: usize) -> Vec<(u32, P3)> {
        let mut moves = Vec::with_capacity(self.pos.len() / self.stride + 1);
        for i in (step % self.stride..self.pos.len()).step_by(self.stride) {
            let mut delta = [0.0; 3];
            for ax in 0..3 {
                let cur = self.pos[i][ax];
                let mut next = cur + self.vel[i][ax];
                if next < -self.wall || next > self.wall {
                    self.vel[i][ax] = -self.vel[i][ax];
                    next = (cur + self.vel[i][ax]).clamp(-self.wall, self.wall);
                }
                delta[ax] = next - cur;
                self.pos[i][ax] = next;
            }
            moves.push((i as u32, delta));
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(points: &[P3]) -> Vec<u64> {
        points.iter().flatten().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_generator_repeats_for_a_seed_and_differs_across_seeds() {
        for geometry in [Geometry::Cube, Geometry::Sphere] {
            assert_eq!(
                bits(&sources(geometry, 500, 3)),
                bits(&sources(geometry, 500, 3))
            );
            assert_ne!(
                bits(&sources(geometry, 500, 3)),
                bits(&sources(geometry, 500, 4))
            );
            assert_ne!(
                bits(&sources(geometry, 500, 3)),
                bits(&targets(geometry, 500, 3))
            );
            assert_eq!(
                bits(&targets(geometry, 500, 3)),
                bits(&targets(geometry, 500, 3))
            );
            assert_ne!(
                bits(&targets(geometry, 500, 3)),
                bits(&targets(geometry, 500, 4))
            );
        }
        assert_eq!(charges(300, 5, 0), charges(300, 5, 0));
        assert_ne!(charges(300, 5, 0), charges(300, 6, 0));
        assert_ne!(charges(300, 5, 0), charges(300, 5, 1));
        assert_eq!(sample_indices(1000, 64, 9), sample_indices(1000, 64, 9));
        assert_ne!(sample_indices(1000, 64, 9), sample_indices(1000, 64, 10));
        assert_eq!(
            bits(&velocities(200, 0.01, 2)),
            bits(&velocities(200, 0.01, 2))
        );
        assert_ne!(
            bits(&velocities(200, 0.01, 2)),
            bits(&velocities(200, 0.01, 3))
        );
        assert_eq!(
            bits(&request_targets(1, 0, 7, 16)),
            bits(&request_targets(1, 0, 7, 16))
        );
        for other in [
            request_targets(2, 0, 7, 16),
            request_targets(1, 1, 7, 16),
            request_targets(1, 0, 8, 16),
        ] {
            assert_ne!(bits(&request_targets(1, 0, 7, 16)), bits(&other));
        }
    }

    #[test]
    fn inputs_have_the_stated_shape() {
        assert!(sources(Geometry::Cube, 2000, 1)
            .iter()
            .flatten()
            .all(|x| (-1.0..1.0).contains(x)));
        assert!(sources(Geometry::Sphere, 2000, 1)
            .iter()
            .all(|p| { ((p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt() - 1.0).abs() < 1e-12 }));
        assert!(charges(2000, 1, 0).iter().all(|q| (0.5..1.5).contains(q)));
        let idx = sample_indices(100, 256, 1);
        assert_eq!(idx.len(), 100);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn drift_rotates_through_all_points_and_stays_inside() {
        let mut a = Drift::new(sources(Geometry::Cube, 400, 1), 0.3, 1.05, 20, 1);
        let mut b = Drift::new(sources(Geometry::Cube, 400, 1), 0.3, 1.05, 20, 1);
        let mut moved = std::collections::BTreeSet::new();
        for step in 0..60 {
            let ma = a.step(step);
            assert_eq!(ma, b.step(step));
            assert_eq!(ma.len(), 20);
            moved.extend(ma.iter().map(|m| m.0));
        }
        assert_eq!(moved.len(), 400);
        assert!(a.pos.iter().flatten().all(|x| x.abs() <= 1.05));
    }
}
