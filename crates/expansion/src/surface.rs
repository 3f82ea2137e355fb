//! Cubic surface lattices for equivalent/check representations.

use dashmm_kernels::Sources;
use dashmm_tree::Point3;

/// A surface lattice stored as structure of arrays, relative to the box
/// center: the layout the kernel loops read.  A check surface is the
/// points of surface columns ([`Surface::coords`]); an equivalent surface,
/// weighted by an expansion, is a set of row sources ([`Surface::sources`]).
pub struct Surface {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl Surface {
    /// The SoA copy of `pts`.
    pub fn new(pts: &[Point3]) -> Self {
        Surface {
            x: pts.iter().map(|p| p.x).collect(),
            y: pts.iter().map(|p| p.y).collect(),
            z: pts.iter().map(|p| p.z).collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the surface has no points.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The points gathered back into `Point3`s (references and tests).
    pub fn points(&self) -> Vec<Point3> {
        (0..self.len())
            .map(|i| Point3::new(self.x[i], self.y[i], self.z[i]))
            .collect()
    }

    /// The SoA coordinates relative to the box center: a check surface as
    /// the points of surface columns (`Kernel::surface_potentials`).
    pub fn coords(&self) -> [&[f64]; 3] {
        [&self.x, &self.y, &self.z]
    }

    /// The points weighted by the densities `w`, as row sources relative to
    /// the box center.
    pub fn sources<'a>(&'a self, w: &'a [f64]) -> Sources<'a> {
        debug_assert_eq!(w.len(), self.len());
        Sources {
            x: &self.x,
            y: &self.y,
            z: &self.z,
            w,
        }
    }
}

/// The points of a `q × q × q` lattice that lie on the boundary of the cube
/// `[-r, r]³`, i.e. the standard KIFMM surface grid with
/// `6q² − 12q + 8` points.
///
/// Points are returned relative to the cube center (add the box center to
/// place them in the world).
pub fn surface_lattice(q: usize, r: f64) -> Vec<Point3> {
    assert!(q >= 2, "surface lattice needs at least 2 points per edge");
    let mut pts = Vec::with_capacity(6 * q * q - 12 * q + 8);
    let step = 2.0 * r / (q - 1) as f64;
    for i in 0..q {
        for j in 0..q {
            for k in 0..q {
                if i == 0 || i == q - 1 || j == 0 || j == q - 1 || k == 0 || k == q - 1 {
                    pts.push(Point3::new(
                        -r + i as f64 * step,
                        -r + j as f64 * step,
                        -r + k as f64 * step,
                    ));
                }
            }
        }
    }
    pts
}

/// Number of points of the `q`-per-edge surface lattice.
pub fn surface_count(q: usize) -> usize {
    6 * q * q - 12 * q + 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formula() {
        for q in 2..=8 {
            assert_eq!(surface_lattice(q, 1.0).len(), surface_count(q), "q={q}");
        }
    }

    #[test]
    fn q2_is_the_eight_corners() {
        let pts = surface_lattice(2, 0.5);
        assert_eq!(pts.len(), 8);
        for p in &pts {
            assert_eq!(p.norm_max(), 0.5);
            assert_eq!(p.x.abs(), 0.5);
            assert_eq!(p.y.abs(), 0.5);
            assert_eq!(p.z.abs(), 0.5);
        }
    }

    #[test]
    fn all_points_on_boundary() {
        let r = 1.3;
        for p in surface_lattice(5, r) {
            assert!(
                (p.norm_max() - r).abs() < 1e-12,
                "point {p:?} not on boundary"
            );
        }
    }

    #[test]
    fn no_duplicates() {
        let pts = surface_lattice(6, 1.0);
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                assert!((*a - *b).norm() > 1e-9);
            }
        }
    }

    #[test]
    fn symmetric_under_negation() {
        let pts = surface_lattice(4, 1.0);
        for p in &pts {
            let neg = *p * -1.0;
            assert!(
                pts.iter().any(|q| (*q - neg).norm() < 1e-12),
                "lattice must be centro-symmetric"
            );
        }
    }
}
