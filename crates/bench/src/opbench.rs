//! Per-edge vs batched operator micro-measurements.
//!
//! Backs the `bench_operators` binary that emits `BENCH_operators.json` —
//! the CI artifact gating the batched hot path's speedup claim.  Alongside the
//! expansion operators, the particle-class operators (`S→T`, `S→M`,
//! `L→T`) are measured as scalar per-pair replicas of the loops the
//! kernel rows replaced vs the row path, reported per
//! application, per kernel pair, and per target point — the numbers the
//! simulator's particle-cost refresh splices into its Table II baseline.
//!
//! Both paths do the full per-edge work: the baseline runs the public
//! per-edge operator (including the operator-cache lookup the runtime
//! pays on every edge), the batched path takes the same sources, runs
//! one blocked multi-RHS product, and copies each output column back
//! out — so scatter cost is charged to the batched side.  The stacked
//! plane-wave operators (`M→I`, `I→L`) are batched in flushes of the
//! runtime's threshold, their baseline is the six per-direction
//! applications per edge the executor used to run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dashmm_amt::DEFAULT_BATCH_THRESHOLD;
use dashmm_expansion::{batch, ops, AccuracyParams, BatchWorkspace, LevelTables};
use dashmm_kernels::{Kernel, Laplace, Yukawa};
use dashmm_tree::{Direction, Point3};

/// One operator's per-edge vs batched timing at a given batch size.
#[derive(Clone, Debug)]
pub struct OpBenchCase {
    /// Operator name (`M2L`, `M2M`, `L2L`, `M2I`, `I2I`, `I2L`).
    pub op: &'static str,
    /// Kernel name (`laplace`, `yukawa`).
    pub kernel: &'static str,
    /// Number of edges in the batch.
    pub edges: usize,
    /// Nanoseconds per edge through the per-edge operator loop.
    pub per_edge_ns: f64,
    /// Nanoseconds per edge through the batched entry point.
    pub batched_ns: f64,
}

impl OpBenchCase {
    /// Per-edge time over batched time (higher is better for batching).
    pub fn speedup(&self) -> f64 {
        self.per_edge_ns / self.batched_ns
    }
}

/// Deterministic random expansion coefficients (xorshift, no rand dep on
/// the hot path).
pub fn random_expansions(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|_| (0..len).map(|_| next() * 2.0).collect())
        .collect()
}

/// Measurement repetitions; shrunk under `DASHMM_BENCH_FAST=1` so the CI
/// smoke run stays cheap.
pub fn default_reps() -> usize {
    if std::env::var("DASHMM_BENCH_FAST").is_ok_and(|v| v == "1") {
        7
    } else {
        30
    }
}

/// Best-of-`reps` wall time of `f`, in nanoseconds (one untimed warmup).
fn best_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Level tables shared by the dense-operator cases (plane-wave surfaces
/// included so the I2I case can run off the same tables).
pub fn bench_tables<K: Kernel>(kernel: &K) -> LevelTables {
    LevelTables::build(kernel, &AccuracyParams::three_digit(), 3, 0.25, true)
}

/// `M→L`: the headline case — one cached translation matrix, many source
/// multipoles.
pub fn m2l_case<K: Kernel>(
    kernel: &K,
    kernel_name: &'static str,
    t: &LevelTables,
    edges: usize,
    reps: usize,
) -> OpBenchCase {
    let n = t.expansion_len();
    let offset = (2i8, 1i8, 0i8);
    drop(t.m2l(kernel, offset)); // warm the cache: measure application, not assembly
    let srcs = random_expansions(edges, n, 17);
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let mut outs = vec![vec![0.0; n]; edges];
    let mut ws = BatchWorkspace::new();
    let per_edge_ns = best_ns(reps, || {
        for (src, out) in srcs.iter().zip(outs.iter_mut()) {
            out.fill(0.0);
            ops::m2l(kernel, t, offset, src, out);
        }
    }) / edges as f64;
    let batched_ns = best_ns(reps, || {
        batch::m2l_batch(kernel, t, offset, &refs, &mut ws, |i, col| {
            outs[i].copy_from_slice(col)
        });
    }) / edges as f64;
    OpBenchCase {
        op: "M2L",
        kernel: kernel_name,
        edges,
        per_edge_ns,
        batched_ns,
    }
}

/// `M→M`: one child-octant shift matrix, many child multipoles.
pub fn m2m_case(
    kernel_name: &'static str,
    t: &LevelTables,
    edges: usize,
    reps: usize,
) -> OpBenchCase {
    let n = t.expansion_len();
    let octant = 3u8;
    let srcs = random_expansions(edges, n, 23);
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let mut outs = vec![vec![0.0; n]; edges];
    let mut ws = BatchWorkspace::new();
    let per_edge_ns = best_ns(reps, || {
        for (src, out) in srcs.iter().zip(outs.iter_mut()) {
            out.fill(0.0);
            ops::m2m(t, octant, src, out);
        }
    }) / edges as f64;
    let batched_ns = best_ns(reps, || {
        batch::m2m_batch(t, octant, &refs, &mut ws, |i, col| {
            outs[i].copy_from_slice(col)
        });
    }) / edges as f64;
    OpBenchCase {
        op: "M2M",
        kernel: kernel_name,
        edges,
        per_edge_ns,
        batched_ns,
    }
}

/// `L→L`: one octant push-down matrix, many parent locals.
pub fn l2l_case(
    kernel_name: &'static str,
    t: &LevelTables,
    edges: usize,
    reps: usize,
) -> OpBenchCase {
    let n = t.expansion_len();
    let octant = 6u8;
    let srcs = random_expansions(edges, n, 29);
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let mut outs = vec![vec![0.0; n]; edges];
    let mut ws = BatchWorkspace::new();
    let per_edge_ns = best_ns(reps, || {
        for (src, out) in srcs.iter().zip(outs.iter_mut()) {
            out.fill(0.0);
            ops::l2l(t, octant, src, out);
        }
    }) / edges as f64;
    let batched_ns = best_ns(reps, || {
        batch::l2l_batch(t, octant, &refs, &mut ws, |i, col| {
            outs[i].copy_from_slice(col)
        });
    }) / edges as f64;
    OpBenchCase {
        op: "L2L",
        kernel: kernel_name,
        edges,
        per_edge_ns,
        batched_ns,
    }
}

/// `M→I`: the six-direction stacked table, one product per flush of the
/// runtime's batch threshold, vs six per-direction applications per edge.
pub fn m2i_case(
    kernel_name: &'static str,
    t: &LevelTables,
    edges: usize,
    reps: usize,
) -> OpBenchCase {
    let w = t.planewave_len();
    let srcs = random_expansions(edges, t.expansion_len(), 37);
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let mut outs = vec![vec![0.0; 6 * w]; edges];
    let mut ws = BatchWorkspace::new();
    let per_edge_ns = best_ns(reps, || {
        for (src, out) in srcs.iter().zip(outs.iter_mut()) {
            for d in Direction::ALL {
                ops::m2i(t, d, src, &mut out[d.index() * w..(d.index() + 1) * w]);
            }
        }
    }) / edges as f64;
    let batched_ns = best_ns(reps, || {
        for (flush, outs) in refs
            .chunks(DEFAULT_BATCH_THRESHOLD)
            .zip(outs.chunks_mut(DEFAULT_BATCH_THRESHOLD))
        {
            batch::m2i_batch(t, flush, &mut ws, |i, buf| {
                outs[i].copy_from_slice(&buf[1..])
            });
        }
    }) / edges as f64;
    OpBenchCase {
        op: "M2I",
        kernel: kernel_name,
        edges,
        per_edge_ns,
        batched_ns,
    }
}

/// `I→L`: the six-direction stacked table consuming whole incoming
/// intermediate expansions in place, vs six per-direction applications
/// per edge.
pub fn i2l_case(
    kernel_name: &'static str,
    t: &LevelTables,
    edges: usize,
    reps: usize,
) -> OpBenchCase {
    let (n, w) = (t.expansion_len(), t.planewave_len());
    let srcs = random_expansions(edges, 6 * w, 43);
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let mut outs = vec![vec![0.0; n]; edges];
    let mut ws = BatchWorkspace::new();
    let per_edge_ns = best_ns(reps, || {
        for (src, out) in srcs.iter().zip(outs.iter_mut()) {
            out.fill(0.0);
            for d in Direction::ALL {
                ops::i2l(t, d, &src[d.index() * w..(d.index() + 1) * w], out);
            }
        }
    }) / edges as f64;
    let batched_ns = best_ns(reps, || {
        for (flush, outs) in refs
            .chunks(DEFAULT_BATCH_THRESHOLD)
            .zip(outs.chunks_mut(DEFAULT_BATCH_THRESHOLD))
        {
            batch::i2l_batch(t, flush, &mut ws, |i, col| outs[i].copy_from_slice(col));
        }
    }) / edges as f64;
    OpBenchCase {
        op: "I2L",
        kernel: kernel_name,
        edges,
        per_edge_ns,
        batched_ns,
    }
}

/// `I→I`: the diagonal operator — no GEMM to win, recorded for honesty
/// (batching only amortises the factor-cache lookup).
pub fn i2i_case(
    kernel_name: &'static str,
    t: &LevelTables,
    edges: usize,
    reps: usize,
) -> OpBenchCase {
    let w = t.planewave_len();
    let side = t.side();
    let delta = Point3::new(side, 0.0, 2.0 * side);
    let fac = t.i2i(Direction::Up, delta);
    let srcs = random_expansions(edges, w, 31);
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let mut outs = vec![vec![0.0; w]; edges];
    let mut ws = BatchWorkspace::new();
    let per_edge_ns = best_ns(reps, || {
        for (src, out) in srcs.iter().zip(outs.iter_mut()) {
            out.fill(0.0);
            let f = t.i2i(Direction::Up, delta);
            ops::i2i_apply(&f, src, out);
        }
    }) / edges as f64;
    let batched_ns = best_ns(reps, || {
        batch::i2i_batch(&fac, &refs, &mut ws, |i, col| outs[i].copy_from_slice(col));
    }) / edges as f64;
    OpBenchCase {
        op: "I2I",
        kernel: kernel_name,
        edges,
        per_edge_ns,
        batched_ns,
    }
}

/// One particle-class operator's scalar-replica vs batched-engine timing.
#[derive(Clone, Debug)]
pub struct ParticleBenchCase {
    /// Operator name (`S2T`, `S2M`, `L2T`).
    pub op: &'static str,
    /// Kernel name (`laplace`, `yukawa`).
    pub kernel: &'static str,
    /// Kernel evaluations (source–target pairs) per application.
    pub pairs: usize,
    /// Output points (targets or surface densities) per application.
    pub points: usize,
    /// Nanoseconds per application through the scalar per-pair loop the
    /// SoA engine replaced.
    pub scalar_ns: f64,
    /// Nanoseconds per application through the kernel rows.
    pub batched_ns: f64,
}

impl ParticleBenchCase {
    /// Scalar time over batched time (higher is better for the engine).
    pub fn speedup(&self) -> f64 {
        self.scalar_ns / self.batched_ns
    }

    /// Batched cost per source–target pair.
    pub fn per_pair_ns(&self) -> f64 {
        self.batched_ns / self.pairs as f64
    }

    /// Batched cost per output point.
    pub fn per_point_ns(&self) -> f64 {
        self.batched_ns / self.points as f64
    }
}

/// Deterministic point cloud in a box (xorshift; matches the operator
/// tests' generator).
fn particle_cloud(center: Point3, side: f64, n: usize, salt: u64) -> (Vec<Point3>, Vec<f64>) {
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let pts = (0..n)
        .map(|_| center + Point3::new(next() * side, next() * side, next() * side))
        .collect();
    let charges = (0..n).map(|_| next() * 2.0).collect();
    (pts, charges)
}

/// The scalar per-pair near-field loop the kernel rows replaced.
fn scalar_p2p<K: Kernel>(k: &K, src: &[Point3], q: &[f64], tgt: &[Point3], out: &mut [f64]) {
    for (tp, o) in tgt.iter().zip(out.iter_mut()) {
        let mut acc = 0.0;
        for (s, &w) in src.iter().zip(q) {
            acc += w * k.eval(tp.dist(s));
        }
        *o += acc;
    }
}

/// `S→T`: one target leaf against its full near-field list (the fused
/// evaluation the executor's S2T batcher performs), vs per-box scalar
/// per-pair loops.
pub fn s2t_case<K: Kernel>(
    kernel: &K,
    kernel_name: &'static str,
    leaf: usize,
    boxes: usize,
    reps: usize,
) -> ParticleBenchCase {
    let side = 0.25;
    let (tgt, _) = particle_cloud(Point3::ZERO, side, leaf, 2);
    let blocks: Vec<(Vec<Point3>, Vec<f64>)> = (0..boxes)
        .map(|b| {
            let c = Point3::new(
                ((b % 3) as f64 - 1.0) * side,
                (((b / 3) % 3) as f64 - 1.0) * side,
                ((b / 9) as f64 - 1.0) * side,
            );
            particle_cloud(c, side, leaf, 100 + b as u64)
        })
        .collect();
    let mut out = vec![0.0; leaf];
    let scalar_ns = best_ns(reps, || {
        out.fill(0.0);
        for (pts, q) in &blocks {
            scalar_p2p(kernel, pts, q, &tgt, &mut out);
        }
    });
    let mut ws = BatchWorkspace::new();
    let batched_ns = best_ns(reps, || {
        out.fill(0.0);
        ops::p2p_fused(
            kernel,
            blocks.iter().map(|(p, q)| (p.as_slice(), q.as_slice())),
            &tgt,
            &mut ws,
            &mut out,
        );
    });
    ParticleBenchCase {
        op: "S2T",
        kernel: kernel_name,
        pairs: boxes * leaf * leaf,
        points: leaf,
        scalar_ns,
        batched_ns,
    }
}

/// `S→M`: one leaf's check-surface projection, scalar per-pair replica vs
/// the SoA engine (both end in the same `uc2ue` solve).
pub fn s2m_particle_case<K: Kernel>(
    kernel: &K,
    kernel_name: &'static str,
    t: &LevelTables,
    leaf: usize,
    reps: usize,
) -> ParticleBenchCase {
    let c = Point3::ZERO;
    let (src, q) = particle_cloud(c, t.side(), leaf, 11);
    let n = t.expansion_len();
    let mut check = vec![0.0; n];
    let mut m = vec![0.0; n];
    let uc = t.uc_pts();
    let scalar_ns = best_ns(reps, || {
        for (i, cp) in uc.iter().enumerate() {
            let p = c + *cp;
            let mut acc = 0.0;
            for (s, &w) in src.iter().zip(&q) {
                acc += w * kernel.eval(p.dist(s));
            }
            check[i] = acc;
        }
        t.uc2ue().matvec_into(&check, &mut m);
    });
    let mut ws = BatchWorkspace::new();
    let batched_ns = best_ns(reps, || {
        ops::s2m(kernel, t, c, &src, &q, &mut ws, &mut m);
    });
    ParticleBenchCase {
        op: "S2M",
        kernel: kernel_name,
        pairs: uc.len() * leaf,
        points: n,
        scalar_ns,
        batched_ns,
    }
}

/// `L→T`: evaluate a local expansion at a leaf's targets, scalar per-pair
/// replica vs the SoA engine.
pub fn l2t_particle_case<K: Kernel>(
    kernel: &K,
    kernel_name: &'static str,
    t: &LevelTables,
    leaf: usize,
    reps: usize,
) -> ParticleBenchCase {
    let c = Point3::ZERO;
    let (tgt, _) = particle_cloud(c, t.side(), leaf, 13);
    let n = t.expansion_len();
    let l = random_expansions(1, n, 41).pop().unwrap();
    let mut out = vec![0.0; leaf];
    let de = t.de().points();
    let scalar_ns = best_ns(reps, || {
        out.fill(0.0);
        for (tp, o) in tgt.iter().zip(out.iter_mut()) {
            let mut acc = 0.0;
            for (j, ep) in de.iter().enumerate() {
                acc += l[j] * kernel.eval(tp.dist(&(c + *ep)));
            }
            *o += acc;
        }
    });
    let mut ws = BatchWorkspace::new();
    let batched_ns = best_ns(reps, || {
        out.fill(0.0);
        ops::l2t(kernel, t, c, &l, &tgt, &mut ws, &mut out);
    });
    ParticleBenchCase {
        op: "L2T",
        kernel: kernel_name,
        pairs: de.len() * leaf,
        points: leaf,
        scalar_ns,
        batched_ns,
    }
}

/// Run the particle-operator matrix for one kernel at leaf occupancy
/// `leaf` (the refinement threshold).
pub fn particle_kernel_cases<K: Kernel>(
    kernel: &K,
    kernel_name: &'static str,
    leaf: usize,
    reps: usize,
) -> Vec<ParticleBenchCase> {
    let t = bench_tables(kernel);
    vec![
        s2t_case(kernel, kernel_name, leaf, 26, reps),
        s2m_particle_case(kernel, kernel_name, &t, leaf, reps),
        l2t_particle_case(kernel, kernel_name, &t, leaf, reps),
    ]
}

/// Particle matrix: Laplace and Yukawa over `S→T`, `S→M`, `L→T`.
pub fn particle_run_all(leaf: usize, reps: usize) -> Vec<ParticleBenchCase> {
    let mut cases = particle_kernel_cases(&Laplace, "laplace", leaf, reps);
    cases.extend(particle_kernel_cases(
        &Yukawa::new(1.0),
        "yukawa",
        leaf,
        reps,
    ));
    cases
}

/// Run the full case matrix for one kernel.
pub fn kernel_cases<K: Kernel>(
    kernel: &K,
    kernel_name: &'static str,
    edges: usize,
    reps: usize,
) -> Vec<OpBenchCase> {
    let t = bench_tables(kernel);
    vec![
        m2l_case(kernel, kernel_name, &t, edges, reps),
        m2m_case(kernel_name, &t, edges, reps),
        l2l_case(kernel_name, &t, edges, reps),
        m2i_case(kernel_name, &t, edges, reps),
        i2i_case(kernel_name, &t, edges, reps),
        i2l_case(kernel_name, &t, edges, reps),
    ]
}

/// Run the full matrix: Laplace and Yukawa over all batched operators.
pub fn run_all(edges: usize, reps: usize) -> Vec<OpBenchCase> {
    let mut cases = kernel_cases(&Laplace, "laplace", edges, reps);
    cases.extend(kernel_cases(&Yukawa::new(1.0), "yukawa", edges, reps));
    cases
}

/// Serialise cases to the machine-readable `BENCH_operators.json` schema.
/// `particle` adds a `particle_cases` section with the SoA engine's
/// per-pair and per-point costs (empty slice = omitted values but the
/// section is always present for schema stability).
pub fn to_json(
    cases: &[OpBenchCase],
    particle: &[ParticleBenchCase],
    edges: usize,
    leaf: usize,
    fast: bool,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"operators\",\n");
    s.push_str(&format!("  \"edges\": {edges},\n"));
    s.push_str(&format!("  \"leaf\": {leaf},\n"));
    s.push_str(&format!(
        "  \"simd_kernels\": {},\n",
        dashmm_kernels::simd_kernels_active()
    ));
    s.push_str(&format!("  \"fast_mode\": {fast},\n"));
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"op\": \"{}\", \"kernel\": \"{}\", \"edges\": {}, \
             \"per_edge_ns\": {:.1}, \"batched_ns\": {:.1}, \"speedup\": {:.3}}}{}\n",
            c.op,
            c.kernel,
            c.edges,
            c.per_edge_ns,
            c.batched_ns,
            c.speedup(),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"particle_cases\": [\n");
    for (i, c) in particle.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"op\": \"{}\", \"kernel\": \"{}\", \"pairs\": {}, \"points\": {}, \
             \"scalar_ns\": {:.1}, \"batched_ns\": {:.1}, \"per_pair_ns\": {:.3}, \
             \"per_point_ns\": {:.1}, \"speedup\": {:.3}}}{}\n",
            c.op,
            c.kernel,
            c.pairs,
            c.points,
            c.scalar_ns,
            c.batched_ns,
            c.per_pair_ns(),
            c.per_point_ns(),
            c.speedup(),
            if i + 1 < particle.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Write `BENCH_operators.json`; creates parent directories.
pub fn write_json(
    path: &Path,
    cases: &[OpBenchCase],
    particle: &[ParticleBenchCase],
    edges: usize,
    leaf: usize,
    fast: bool,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(cases, particle, edges, leaf, fast).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m2l_case_produces_sane_timings() {
        let t = bench_tables(&Laplace);
        let c = m2l_case(&Laplace, "laplace", &t, 24, 2);
        assert!(c.per_edge_ns > 0.0 && c.batched_ns > 0.0);
        assert!(c.speedup() > 0.0);
    }

    #[test]
    fn json_schema_is_stable() {
        let cases = vec![OpBenchCase {
            op: "M2L",
            kernel: "laplace",
            edges: 1024,
            per_edge_ns: 1000.0,
            batched_ns: 400.0,
        }];
        let particle = vec![ParticleBenchCase {
            op: "S2T",
            kernel: "laplace",
            pairs: 93_600,
            points: 60,
            scalar_ns: 200_000.0,
            batched_ns: 50_000.0,
        }];
        let j = to_json(&cases, &particle, 1024, 60, true);
        assert!(j.contains("\"bench\": \"operators\""));
        assert!(j.contains("\"speedup\": 2.500"));
        assert!(j.contains("\"fast_mode\": true"));
        assert!(j.contains("\"particle_cases\""));
        assert!(j.contains("\"pairs\": 93600"));
        assert!(j.contains("\"speedup\": 4.000"));
        assert!(j.trim_end().ends_with('}'));
    }

    #[test]
    fn s2t_case_produces_sane_timings() {
        let c = s2t_case(&Laplace, "laplace", 20, 4, 2);
        assert!(c.scalar_ns > 0.0 && c.batched_ns > 0.0);
        assert_eq!(c.pairs, 4 * 20 * 20);
        assert!(c.per_pair_ns() > 0.0);
    }

    #[test]
    fn particle_cases_cover_all_ops() {
        let cases = particle_kernel_cases(&Laplace, "laplace", 16, 1);
        let ops: Vec<&str> = cases.iter().map(|c| c.op).collect();
        assert_eq!(ops, vec!["S2T", "S2M", "L2T"]);
    }
}
