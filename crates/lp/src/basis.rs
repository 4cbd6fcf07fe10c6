//! The basis factorization of the revised simplex: a product-form eta
//! file.
//!
//! The revised engine never forms `B⁻¹` explicitly: every iteration needs
//! `B⁻¹ x` (FTRAN) and `B⁻ᵀ x` (BTRAN) against the current basis matrix,
//! plus a cheap *update* when one basis column is exchanged by a pivot.
//! [`EtaBasis`] provides exactly that: a file of elementary Gauss–Jordan
//! *eta* transforms, rebuilt by triangularization-ordered elimination on
//! every refactorization and extended by one eta per pivot. Per-pivot
//! FTRAN/BTRAN cost grows with the eta-file length between
//! refactorizations, so the engine refactorizes on a fixed pivot schedule
//! and whenever the stored fill outgrows a small multiple of the matrix
//! ([`EtaBasis::wants_refactor`]).
//!
//! After [`EtaBasis::refactorize`], basis slot `r` holds the column whose
//! pivot landed on row `r`, so the FTRANed representation of a column is
//! indexed by constraint row exactly like the right-hand side.

use crate::sparse::CscMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Entries smaller than this are dropped from stored eta vectors.
const DROP_TOL: f64 = 1e-12;

/// A pivot element below this magnitude makes a refactorization step
/// singular.
const SINGULAR_TOL: f64 = 1e-10;

/// The eta file: elementary Gauss–Jordan transforms stored in flat arrays.
///
/// Eta `k` maps `x` to `G_k x` with `(G_k x)_r = x_r / p_k` and
/// `(G_k x)_i = x_i − w_i · (x_r / p_k)` for the off-pivot entries
/// `(i, w_i)`; `r` is the pivot row and `p_k` the pivot element.
#[derive(Debug, Default)]
struct EtaFile {
    pivot_row: Vec<u32>,
    pivot_val: Vec<f64>,
    starts: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl EtaFile {
    fn clear(&mut self) {
        self.pivot_row.clear();
        self.pivot_val.clear();
        self.starts.clear();
        self.starts.push(0);
        self.idx.clear();
        self.val.clear();
    }

    fn len(&self) -> usize {
        self.pivot_row.len()
    }

    fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Appends the eta of a pivot on `row`: `w` is the FTRANed column held
    /// in a dense scratch vector whose (potential) nonzeros are listed in
    /// `touched`.
    fn push_sparse(&mut self, row: usize, w: &[f64], touched: &[u32]) {
        self.pivot_row.push(row as u32);
        self.pivot_val.push(w[row]);
        for &i in touched {
            let v = w[i as usize];
            if i as usize != row && v.abs() > DROP_TOL {
                self.idx.push(i);
                self.val.push(v);
            }
        }
        self.starts.push(self.idx.len());
    }

    /// FTRAN: applies `G_k ··· G_1` in order, i.e. computes `B⁻¹ x` in
    /// place.
    fn ftran(&self, x: &mut [f64]) {
        for k in 0..self.len() {
            let r = self.pivot_row[k] as usize;
            let t = x[r] / self.pivot_val[k];
            x[r] = t;
            if t != 0.0 {
                for e in self.starts[k]..self.starts[k + 1] {
                    x[self.idx[e] as usize] -= self.val[e] * t;
                }
            }
        }
    }

    /// Sparsity-exploiting FTRAN: like [`EtaFile::ftran`], but maintains the
    /// `touched` invariant of [`EtaBasis::ftran_sparse`]. Etas whose pivot
    /// entry is zero are skipped after one lookup, so the arithmetic is
    /// proportional to the fill actually created rather than to `m`.
    fn ftran_sparse(&self, x: &mut [f64], touched: &mut Vec<u32>, stamp: &mut [u32], epoch: u32) {
        for k in 0..self.len() {
            let r = self.pivot_row[k] as usize;
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let t = xr / self.pivot_val[k];
            x[r] = t;
            for e in self.starts[k]..self.starts[k + 1] {
                let i = self.idx[e];
                if stamp[i as usize] != epoch {
                    stamp[i as usize] = epoch;
                    touched.push(i);
                }
                x[i as usize] -= self.val[e] * t;
            }
        }
    }

    /// BTRAN: applies the transposes in reverse order, i.e. computes
    /// `B⁻ᵀ x` in place. Only the pivot-row component changes per eta.
    fn btran(&self, x: &mut [f64]) {
        for k in (0..self.len()).rev() {
            let r = self.pivot_row[k] as usize;
            let mut s = x[r];
            for e in self.starts[k]..self.starts[k + 1] {
                s -= self.val[e] * x[self.idx[e] as usize];
            }
            x[r] = s / self.pivot_val[k];
        }
    }
}

/// The product-form basis: an eta file rebuilt by Gauss–Jordan elimination
/// over the basic columns, one eta appended per pivot (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct EtaBasis {
    etas: EtaFile,
    updates: usize,
    /// Scratch for refactorization (the engine's scratch is busy with the
    /// entering column while a refactorization runs inside a pivot loop).
    work: Vec<f64>,
    touched: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// During a refactorization: the eta pivoting on each row, or
    /// `u32::MAX` while the row is not yet eliminated.
    eta_at_row: Vec<u32>,
    /// During a refactorization: the etas still to apply to the column
    /// being FTRANed, smallest index first.
    pending: BinaryHeap<Reverse<u32>>,
}

impl EtaBasis {
    /// An empty eta file, i.e. the factorization of the identity: the
    /// engine's all-slack/artificial start basis is ready for pivot updates
    /// without a prior [`EtaBasis::refactorize`].
    pub fn new() -> Self {
        let mut basis = EtaBasis::default();
        basis.etas.clear();
        basis
    }

    /// FTRAN of column `j` of `a` through the partially rebuilt eta file
    /// into the internal scratch, tracking its nonzero pattern.
    ///
    /// Every row pivots at most once during a refactorization, so only the
    /// etas pivoting on a touched row can act on the column. They are
    /// visited through `pending` in file order, which skips the untouched
    /// ones without scanning them: each column costs its own fill instead
    /// of the file length, and the arithmetic and the order of `touched`
    /// are exactly those of a full [`EtaFile::ftran_sparse`] pass.
    fn ftran_col_scratch(&mut self, a: &CscMatrix, j: usize) {
        let m = a.rows();
        if self.work.len() < m {
            self.work = vec![0.0; m];
            self.stamp = vec![0; m];
            self.epoch = 0;
            self.touched.clear();
        }
        for &i in &self.touched {
            self.work[i as usize] = 0.0;
        }
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        let (rows, vals) = a.col(j);
        self.pending.clear();
        for (&r, &v) in rows.iter().zip(vals) {
            self.stamp[r as usize] = self.epoch;
            self.touched.push(r);
            self.work[r as usize] = v;
            let k = self.eta_at_row[r as usize];
            if k != u32::MAX {
                self.pending.push(Reverse(k));
            }
        }
        let etas = &self.etas;
        while let Some(Reverse(k)) = self.pending.pop() {
            let k = k as usize;
            let r = etas.pivot_row[k] as usize;
            let xr = self.work[r];
            if xr == 0.0 {
                continue;
            }
            let t = xr / etas.pivot_val[k];
            self.work[r] = t;
            for e in etas.starts[k]..etas.starts[k + 1] {
                let i = etas.idx[e] as usize;
                if self.stamp[i] != self.epoch {
                    self.stamp[i] = self.epoch;
                    self.touched.push(i as u32);
                    // An eta earlier than `k` already passed this row by
                    // while it was zero; only a later one can still act.
                    let ki = self.eta_at_row[i];
                    if ki != u32::MAX && ki as usize > k {
                        self.pending.push(Reverse(ki));
                    }
                }
                self.work[i] -= etas.val[e] * t;
            }
        }
    }

    /// Rebuilds the eta file for the basis columns of `a` by Gauss–Jordan
    /// elimination, pivoting columns in increasing-nonzero-count order (the
    /// triangularization heuristic) with partial pivoting over the rows not
    /// yet eliminated. Permutes `basis` so slot `r` holds the column whose
    /// pivot landed on row `r`. Returns `false` when the basis is singular.
    pub fn refactorize(&mut self, a: &CscMatrix, basis: &mut [usize]) -> bool {
        self.etas.clear();
        self.updates = 0;
        let m = a.rows();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&r| a.col_nnz(basis[r]));
        self.eta_at_row.clear();
        self.eta_at_row.resize(m, u32::MAX);
        let mut new_basis = vec![usize::MAX; m];
        for &pos in &order {
            let j = basis[pos];
            self.ftran_col_scratch(a, j);
            // Partial pivoting over the rows not yet assigned; only touched
            // entries can be nonzero.
            let mut best_row = usize::MAX;
            let mut best_abs = 0.0;
            for &i in &self.touched {
                let r = i as usize;
                let w = self.work[r].abs();
                if self.eta_at_row[r] == u32::MAX && w > best_abs {
                    best_abs = w;
                    best_row = r;
                }
            }
            if best_abs <= SINGULAR_TOL {
                return false;
            }
            self.eta_at_row[best_row] = self.etas.len() as u32;
            self.etas.push_sparse(best_row, &self.work, &self.touched);
            new_basis[best_row] = j;
        }
        basis.copy_from_slice(&new_basis);
        true
    }

    /// Dense FTRAN: computes `B⁻¹ x` in place.
    pub fn ftran(&self, x: &mut [f64]) {
        self.etas.ftran(x);
    }

    /// Dense BTRAN: computes `B⁻ᵀ x` in place.
    pub fn btran(&self, x: &mut [f64]) {
        self.etas.btran(x);
    }

    /// Sparsity-exploiting FTRAN: the caller seeds `x` with the input
    /// column and `touched` with its nonzero pattern; on return every index
    /// whose value may be nonzero is listed in `touched` (deduplicated
    /// through the `stamp`/`epoch` markers).
    pub fn ftran_sparse(
        &self,
        x: &mut [f64],
        touched: &mut Vec<u32>,
        stamp: &mut [u32],
        epoch: u32,
    ) {
        self.etas.ftran_sparse(x, touched, stamp, epoch);
    }

    /// Applies the basis exchange of a pivot on `row`: `w` is the FTRANed
    /// entering column with its (potential) nonzeros listed in `touched`.
    pub fn update(&mut self, row: usize, w: &[f64], touched: &[u32]) {
        self.etas.push_sparse(row, w, touched);
        self.updates += 1;
    }

    /// Pivot updates applied since the last refactorization.
    pub fn updates_since_refactor(&self) -> usize {
        self.updates
    }

    /// Whether the stored eta fill has outgrown a small multiple of `a`,
    /// warranting an early refactorization (the engine also refactorizes
    /// on a fixed update-count schedule).
    pub fn wants_refactor(&self, a: &CscMatrix) -> bool {
        self.etas.nnz() > 4 * a.nnz() + 16 * a.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small nonsingular matrix with a mix of unit and dense-ish columns,
    /// shaped like a standard-form simplex basis.
    fn sample() -> (CscMatrix, Vec<usize>) {
        // 4×6: columns 0-1 structural, 2-5 slack-like.
        let a = CscMatrix::from_triplets(
            4,
            6,
            &[
                (0, 0, 2.0),
                (1, 0, 1.0),
                (3, 0, -1.0),
                (0, 1, 1.0),
                (2, 1, 3.0),
                (3, 1, 0.5),
                (0, 2, 1.0),
                (1, 3, 1.0),
                (2, 4, 1.0),
                (3, 5, 1.0),
            ],
        );
        (a, vec![0, 1, 4, 5])
    }

    fn dense_of_basis(a: &CscMatrix, basis: &[usize]) -> Vec<Vec<f64>> {
        let m = a.rows();
        let mut b = vec![vec![0.0; m]; m];
        for (slot, &j) in basis.iter().enumerate() {
            let (rows, vals) = a.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                b[r as usize][slot] = v;
            }
        }
        b
    }

    /// Checks `B x = rhs` where `x` is indexed by pivot row (slot) as the
    /// engine's convention demands.
    fn check_ftran(a: &CscMatrix, basis: &[usize], x: &[f64], rhs: &[f64]) {
        let m = a.rows();
        let b = dense_of_basis(a, basis);
        for r in 0..m {
            let mut acc = 0.0;
            for (slot, _) in basis.iter().enumerate() {
                acc += b[r][slot] * x[slot];
            }
            assert!(
                (acc - rhs[r]).abs() < 1e-8,
                "B x != rhs at row {r}: {acc} vs {rhs:?}"
            );
        }
    }

    /// Checks `Bᵀ y = c`, i.e. for every slot: `column_slot · y = c_slot`.
    fn check_btran(a: &CscMatrix, basis: &[usize], y: &[f64], c: &[f64]) {
        let b = dense_of_basis(a, basis);
        for slot in 0..basis.len() {
            let mut acc = 0.0;
            for (r, row) in b.iter().enumerate() {
                acc += row[slot] * y[r];
            }
            assert!((acc - c[slot]).abs() < 1e-8, "Bᵀ y != c at slot {slot}");
        }
    }

    /// FTRAN of column `j` of `a` the way the engine's pivot loop does it.
    fn ftran_column(
        fac: &EtaBasis,
        a: &CscMatrix,
        j: usize,
        stamp: &mut [u32],
        epoch: u32,
    ) -> (Vec<f64>, Vec<u32>) {
        let mut work = vec![0.0; a.rows()];
        let mut touched: Vec<u32> = Vec::new();
        let (rows, vals) = a.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            stamp[r as usize] = epoch;
            touched.push(r);
            work[r as usize] = v;
        }
        fac.ftran_sparse(&mut work, &mut touched, stamp, epoch);
        (work, touched)
    }

    #[test]
    fn refactorize_then_ftran_solves_the_basis_system() {
        let (a, mut basis) = sample();
        let mut fac = EtaBasis::new();
        assert!(fac.refactorize(&a, &mut basis));
        // Refactorization permutes so slot r pivots on row r: solving
        // against the permuted basis must reproduce the RHS.
        let rhs = [1.0, 2.0, -1.0, 0.5];
        let mut x = rhs.to_vec();
        fac.ftran(&mut x);
        check_ftran(&a, &basis, &x, &rhs);
    }

    #[test]
    fn btran_matches_transpose_solve() {
        let (a, mut basis) = sample();
        let mut fac = EtaBasis::new();
        assert!(fac.refactorize(&a, &mut basis));
        let c = [1.0, -2.0, 0.0, 3.0];
        let mut y = c.to_vec();
        fac.btran(&mut y);
        check_btran(&a, &basis, &y, &c);
    }

    #[test]
    fn updates_track_the_exchanged_column() {
        let (a, mut basis) = sample();
        let mut fac = EtaBasis::new();
        assert!(fac.refactorize(&a, &mut basis));
        // Bring column 2 (a slack) into whichever slot its FTRAN pivots
        // best on; emulate the engine's pivot loop.
        let m = a.rows();
        let mut stamp = vec![0u32; m];
        let entering = 2usize;
        let (work, touched) = ftran_column(&fac, &a, entering, &mut stamp, 1);
        let row = (0..m)
            .filter(|&r| work[r].abs() > 1e-9)
            .max_by(|&x, &y| work[x].abs().partial_cmp(&work[y].abs()).unwrap())
            .unwrap();
        fac.update(row, &work, &touched);
        basis[row] = entering;
        assert_eq!(fac.updates_since_refactor(), 1);
        // The updated factorization must solve against the new basis.
        let rhs = [0.5, 1.5, -2.0, 1.0];
        let mut x = rhs.to_vec();
        fac.ftran(&mut x);
        check_ftran(&a, &basis, &x, &rhs);
        // And BTRAN stays consistent too.
        let c = [2.0, 0.0, 1.0, -1.0];
        let mut y = c.to_vec();
        fac.btran(&mut y);
        check_btran(&a, &basis, &y, &c);
    }

    /// An `m`-row matrix of `n_struct` pseudo-random structural columns
    /// with 3 entries each, followed by the `m` unit columns.
    fn random_matrix(m: usize, n_struct: usize, mut seed: u64) -> CscMatrix {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut triplets = Vec::new();
        for j in 0..n_struct {
            for k in 0..3 {
                let r = ((next() as usize) + k) % m;
                let v = ((next() % 9) as f64 - 4.0).abs() + 0.5;
                triplets.push((r, j, if next() % 2 == 0 { v } else { -v }));
            }
        }
        for r in 0..m {
            triplets.push((r, n_struct + r, 1.0));
        }
        CscMatrix::from_triplets(m, n_struct + m, &triplets)
    }

    /// The refactorization visits only the etas pivoting on touched rows;
    /// it must build exactly the eta file that FTRANing every column
    /// through the whole file builds, bit for bit.
    #[test]
    fn refactorization_matches_a_full_file_scan() {
        let (m, n_struct) = (12, 10);
        let mut rebuilt = 0;
        for seed in 1..200u64 {
            let a = random_matrix(m, n_struct, seed * 0x9e37_79b9);
            // Every structural column replaces the unit column of its first
            // row still held by one (a structurally nonsingular basis).
            let mut basis0: Vec<usize> = (0..m).map(|r| n_struct + r).collect();
            for j in 0..n_struct {
                let (rows, _) = a.col(j);
                if let Some(&r) = rows.iter().find(|&&r| basis0[r as usize] >= n_struct) {
                    basis0[r as usize] = j;
                }
            }
            let mut basis = basis0.clone();
            let mut fac = EtaBasis::new();
            let ok = fac.refactorize(&a, &mut basis);

            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by_key(|&r| a.col_nnz(basis0[r]));
            let mut etas = EtaFile::default();
            etas.clear();
            let mut pivoted = vec![false; m];
            let mut stamp = vec![0u32; m];
            let mut reference_ok = true;
            for (step, &pos) in order.iter().enumerate() {
                let epoch = step as u32 + 1;
                let mut work = vec![0.0; m];
                let mut touched = Vec::new();
                let (rows, vals) = a.col(basis0[pos]);
                for (&r, &v) in rows.iter().zip(vals) {
                    stamp[r as usize] = epoch;
                    touched.push(r);
                    work[r as usize] = v;
                }
                etas.ftran_sparse(&mut work, &mut touched, &mut stamp, epoch);
                let best = touched
                    .iter()
                    .map(|&i| i as usize)
                    .filter(|&r| !pivoted[r])
                    .fold(None, |best: Option<usize>, r| match best {
                        Some(b) if work[b].abs() >= work[r].abs() => Some(b),
                        _ => Some(r),
                    });
                match best {
                    Some(r) if work[r].abs() > SINGULAR_TOL => {
                        etas.push_sparse(r, &work, &touched);
                        pivoted[r] = true;
                    }
                    _ => {
                        reference_ok = false;
                        break;
                    }
                }
            }
            assert_eq!(ok, reference_ok, "seed {seed}: singularity verdicts differ");
            if !ok {
                continue;
            }
            rebuilt += 1;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(fac.etas.pivot_row, etas.pivot_row, "seed {seed}");
            assert_eq!(
                bits(&fac.etas.pivot_val),
                bits(&etas.pivot_val),
                "seed {seed}"
            );
            assert_eq!(fac.etas.starts, etas.starts, "seed {seed}");
            assert_eq!(fac.etas.idx, etas.idx, "seed {seed}");
            assert_eq!(bits(&fac.etas.val), bits(&etas.val), "seed {seed}");
        }
        assert!(rebuilt >= 150, "only {rebuilt} nonsingular bases drawn");
    }

    #[test]
    fn chained_updates_stay_accurate() {
        // Random-ish chain of column exchanges on a larger matrix: the eta
        // file must keep solving exactly after every appended update.
        let (m, n_struct) = (12, 10);
        let a = random_matrix(m, n_struct, 0x5eed_1234);
        let mut fac = EtaBasis::new();
        let mut basis: Vec<usize> = (0..m).map(|r| n_struct + r).collect();
        assert!(fac.refactorize(&a, &mut basis));
        let mut stamp = vec![0u32; m];
        for entering in 0..n_struct {
            if basis.contains(&entering) {
                continue;
            }
            let (work, touched) = ftran_column(&fac, &a, entering, &mut stamp, entering as u32 + 1);
            let Some(row) = (0..m)
                .filter(|&r| work[r].abs() > 1e-6 && basis[r] >= n_struct)
                .max_by(|&x, &y| work[x].abs().partial_cmp(&work[y].abs()).unwrap())
            else {
                continue;
            };
            fac.update(row, &work, &touched);
            basis[row] = entering;
            // Verify the solve after every exchange.
            let rhs: Vec<f64> = (0..m).map(|r| (r as f64) - 3.0).collect();
            let mut x = rhs.clone();
            fac.ftran(&mut x);
            check_ftran(&a, &basis, &x, &rhs);
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        let a = CscMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 1, 2.0), (0, 2, 1.0)]);
        let mut basis = vec![0, 1];
        assert!(!EtaBasis::new().refactorize(&a, &mut basis));
    }
}
