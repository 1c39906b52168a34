//! The workloads and the inputs they generate from a seed.

use sparse::CsrMatrix;
use sptrsv::Backend;

/// Right-hand-side columns generated per workload. Solves and requests
/// cycle through them; each has its own reference solution.
pub const RHS_COLS: usize = 8;

/// What one request of a workload is, as its caller sees it. The
/// end-to-end latency and rate are those of this request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// One `Solver3d::solve` call of `nrhs` columns; one caller issues them
    /// back to back.
    Solve,
    /// One width-1 request to a `SolverService`: latency from an open loop
    /// at the workload's fixed rate, rate from a closed loop.
    Serve,
}

/// One benchmark workload: a generated matrix, a layout on one backend,
/// the request its end-to-end figures time, and the offered load of its
/// serving phase.
pub struct Workload {
    pub name: &'static str,
    pub request: Request,
    pub backend: Backend,
    /// `(px, py, pz)`; every layout has at most 2 ranks.
    pub layout: (usize, usize, usize),
    /// Right-hand sides per direct solve.
    pub nrhs: usize,
    /// Open-loop offered rate of width-1 requests, fixed per workload so
    /// both commits of a comparison see the same load.
    pub offered_hz: f64,
    pub matrix: fn(u64) -> CsrMatrix,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "banded-native-p2",
        request: Request::Solve,
        backend: Backend::Native,
        layout: (1, 1, 2),
        nrhs: 1,
        offered_hz: 200.0,
        matrix: |seed| sparse::gen::banded(4_000, 8, seed),
    },
    Workload {
        name: "blocked-native-nrhs8",
        request: Request::Solve,
        backend: Backend::Native,
        layout: (2, 1, 1),
        nrhs: 8,
        offered_hz: 200.0,
        // The coupling pattern decides the fill, and with it the work: across
        // pattern seeds the solve flops vary by half. The pattern is therefore
        // fixed and the seed rescales the values, which keeps the work
        // constant and the answers seed-dependent.
        matrix: |seed| scale_sym(&sparse::gen::blocked_random(40, 24, 0.05, 1), seed),
    },
    Workload {
        name: "poisson-serve-proc",
        request: Request::Serve,
        backend: Backend::Proc,
        layout: (1, 1, 2),
        nrhs: 1,
        offered_hz: 250.0,
        matrix: |_| sparse::gen::poisson2d_9pt(48, 48),
    },
    Workload {
        name: "poisson-sim-2x1",
        request: Request::Solve,
        backend: Backend::Sim,
        layout: (2, 1, 1),
        nrhs: 1,
        offered_hz: 75.0,
        matrix: |_| sparse::gen::poisson2d_9pt(48, 48),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's own seeded stream for right-hand sides.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// The generated right-hand sides with their reference solutions, both
/// `n x RHS_COLS` column-major.
pub struct Columns<'a> {
    pub b: &'a [f64],
    pub xref: &'a [f64],
    pub n: usize,
}

impl Columns<'_> {
    /// Operation `i`'s `width` consecutive columns (cycling through the
    /// generated ones) and their reference solution.
    pub fn block(&self, i: usize, width: usize) -> (&[f64], &[f64]) {
        let c = (i * width) % RHS_COLS;
        let r = c * self.n..(c + width) * self.n;
        (&self.b[r.clone()], &self.xref[r])
    }
}

/// `D A D` for a seeded diagonal `D` with entries in `[0.75, 1.25)`: the
/// same pattern with new values. A symmetric positive definite `A` stays
/// so, which is what factorization without pivoting needs.
pub fn scale_sym(a: &CsrMatrix, seed: u64) -> CsrMatrix {
    let mut rng = SplitMix64(seed ^ 0x0D1A_65CA_1E5E);
    let d: Vec<f64> = (0..a.nrows()).map(|_| 1.0 + 0.25 * rng.unit()).collect();
    let mut values = a.values().to_vec();
    for i in 0..a.nrows() {
        for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
            values[k] *= d[i] * d[a.col_idx()[k]];
        }
    }
    CsrMatrix::from_parts(
        a.nrows(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        values,
    )
}

/// `n x RHS_COLS` column-major right-hand sides drawn from `seed`.
pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64(seed ^ 0x5EED_0FB0_B5E5);
    (0..n * RHS_COLS).map(|_| rng.unit()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rhs_is_a_function_of_the_seed() {
        assert_eq!(rhs(50, 7), rhs(50, 7));
        assert_ne!(rhs(50, 7), rhs(50, 8));
        assert!(rhs(50, 7).iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn scaling_keeps_the_pattern_and_symmetry() {
        let a = sparse::gen::blocked_random(6, 4, 0.3, 1);
        let (s1, s2) = (scale_sym(&a, 1), scale_sym(&a, 2));
        assert_eq!(s1.row_ptr(), a.row_ptr());
        assert_eq!(s1.col_idx(), a.col_idx());
        assert_ne!(s1.values(), s2.values());
        for i in 0..a.nrows() {
            for &j in a.row_cols(i) {
                assert_eq!(s1.get(i, j), s1.get(j, i));
            }
            assert!(s1.get(i, i) > 0.0);
        }
    }

    #[test]
    fn layouts_fit_two_cores() {
        for w in WORKLOADS {
            let (px, py, pz) = w.layout;
            assert!(px * py * pz <= 2, "{}", w.name);
            assert!(w.nrhs <= RHS_COLS && RHS_COLS.is_multiple_of(w.nrhs));
        }
    }
}
