//! Property tests for the linear-algebra substrate and the sampler
//! primitives.
//!
//! Cases come from the in-tree [`Prng`] with a fixed seed per property,
//! so every run checks the same few hundred inputs.

use augur_math::special::{lgamma, log_sum_exp, sigmoid};
use augur_math::{vecops, Cholesky, FlatRagged, Matrix, Prng};

const CASES: usize = 200;

/// Runs `check` on `CASES` inputs drawn from a generator seeded with
/// `seed`.
fn for_cases(seed: u64, mut check: impl FnMut(&mut Prng)) {
    let mut rng = Prng::seed_from_u64(seed);
    for _ in 0..CASES {
        check(&mut rng);
    }
}

fn vec_in(rng: &mut Prng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.uniform_range(lo, hi)).collect()
}

fn small_vec(rng: &mut Prng, n: usize) -> Vec<f64> {
    vec_in(rng, n, -10.0, 10.0)
}

/// A random SPD matrix `A Aᵀ + n·I`.
fn spd(rng: &mut Prng, n: usize) -> Matrix {
    let a = Matrix::from_vec(n, n, vec_in(rng, n * n, -1.0, 1.0)).unwrap();
    let mut s = a.matmul(&a.transpose()).unwrap();
    for i in 0..n {
        s[(i, i)] += n as f64;
    }
    s
}

#[test]
fn cholesky_solve_inverts() {
    for_cases(1, |rng| {
        let m = spd(rng, 4);
        let b = small_vec(rng, 4);
        let x = Cholesky::new(&m).unwrap().solve(&b);
        for (u, v) in m.matvec(&x).iter().zip(&b) {
            assert!((u - v).abs() < 1e-8, "residual too large: {u} vs {v}");
        }
    });
}

#[test]
fn cholesky_logdet_is_finite_and_consistent() {
    for_cases(2, |rng| {
        let c = Cholesky::new(&spd(rng, 3)).unwrap();
        let ld = c.log_det();
        assert!(ld.is_finite());
        // log|A⁻¹| = -log|A|
        let ci = Cholesky::new(&c.inverse()).unwrap();
        assert!((ci.log_det() + ld).abs() < 1e-7);
    });
}

#[test]
fn mahalanobis_nonnegative() {
    for_cases(3, |rng| {
        let c = Cholesky::new(&spd(rng, 3)).unwrap();
        let x = small_vec(rng, 3);
        assert!(c.mahalanobis_sq(&x) >= -1e-12);
    });
}

#[test]
fn matmul_associative() {
    for_cases(4, |rng| {
        let mut m = || Matrix::from_vec(2, 2, vec_in(rng, 4, -2.0, 2.0)).unwrap();
        let (a, b, c) = (m(), m(), m());
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-9);
            }
        }
    });
}

#[test]
fn transpose_respects_matmul() {
    for_cases(5, |rng| {
        // (AB)ᵀ = Bᵀ Aᵀ
        let a = Matrix::from_vec(2, 3, vec_in(rng, 6, -2.0, 2.0)).unwrap();
        let b = Matrix::from_vec(3, 2, vec_in(rng, 6, -2.0, 2.0)).unwrap();
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!((&lhs - &rhs).frobenius_norm() < 1e-10);
    });
}

#[test]
fn ragged_roundtrip() {
    for_cases(6, |rng| {
        let rows: Vec<Vec<f64>> = (0..rng.below(8))
            .map(|_| {
                let n = rng.below(6);
                vec_in(rng, n, -5.0, 5.0)
            })
            .collect();
        let r = FlatRagged::from_rows(rows.clone());
        assert_eq!(r.num_rows(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(r.row(i), row.as_slice());
        }
        let lens: Vec<usize> = rows.iter().map(Vec::len).collect();
        let again = FlatRagged::from_flat(r.flat().to_vec(), &lens).unwrap();
        assert_eq!(r, again);
    });
}

#[test]
fn log_sum_exp_shift_invariant() {
    for_cases(7, |rng| {
        let n = 1 + rng.below(9);
        let xs = vec_in(rng, n, -50.0, 50.0);
        let c = rng.uniform_range(-100.0, 100.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        assert!((log_sum_exp(&xs) + c - log_sum_exp(&shifted)).abs() < 1e-8);
    });
}

#[test]
fn lgamma_recurrence_holds() {
    for_cases(8, |rng| {
        let x = rng.uniform_range(0.1, 50.0);
        assert!((lgamma(x + 1.0) - lgamma(x) - x.ln()).abs() < 1e-9, "x = {x}");
    });
}

#[test]
fn sigmoid_in_unit_interval() {
    for_cases(9, |rng| {
        let s = sigmoid(rng.uniform_range(-1e6, 1e6));
        assert!((0.0..=1.0).contains(&s));
    });
}

#[test]
fn normalize_produces_distribution() {
    for_cases(10, |rng| {
        let n = 1 + rng.below(11);
        let mut w = vec_in(rng, n, 0.01, 10.0);
        vecops::normalize(&mut w);
        let s: f64 = w.iter().sum();
        assert!((s - 1.0).abs() < 1e-10);
        assert!(w.iter().all(|&v| v >= 0.0));
    });
}

#[test]
fn dot_bilinear() {
    for_cases(11, |rng| {
        let (a, b) = (small_vec(rng, 5), small_vec(rng, 5));
        let alpha = rng.uniform_range(-3.0, 3.0);
        let scaled = vecops::scale(alpha, &a);
        assert!((vecops::dot(&scaled, &b) - alpha * vecops::dot(&a, &b)).abs() < 1e-9);
    });
}

#[test]
#[should_panic(expected = "categorical_log: all weights are zero")]
fn categorical_log_rejects_all_zero_weights() {
    Prng::seed_from_u64(0).categorical_log(&[f64::NEG_INFINITY; 3]);
}
