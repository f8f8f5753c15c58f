//! Small dense linear algebra: just enough to solve the normal equations of
//! polynomial least squares (4×4 systems for Spotter's cubics).

/// Solve the square linear system `A x = b` by Gaussian elimination with
/// partial pivoting. `a` is row-major, `n×n`; `b` has length `n`.
///
/// Returns `None` if the matrix is singular (pivot below `1e-12` after
/// scaling), which callers treat as "fit failed, fall back".
pub fn solve(a: &[f64], b: &[f64], n: usize) -> Option<Vec<f64>> {
    assert_eq!(a.len(), n * n, "matrix size mismatch");
    assert_eq!(b.len(), n, "rhs size mismatch");
    let mut m = a.to_vec();
    let mut v = b.to_vec();

    for col in 0..n {
        // Partial pivot: find the row with the largest magnitude in `col`.
        let mut pivot_row = col;
        let mut pivot_val = m[col * n + col].abs();
        for row in col + 1..n {
            let val = m[row * n + col].abs();
            if val > pivot_val {
                pivot_row = row;
                pivot_val = val;
            }
        }
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for k in 0..n {
                m.swap(col * n + k, pivot_row * n + k);
            }
            v.swap(col, pivot_row);
        }
        // Eliminate below.
        for row in col + 1..n {
            let factor = m[row * n + col] / m[col * n + col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                m[row * n + k] -= factor * m[col * n + k];
            }
            v[row] -= factor * v[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = v[row];
        for k in row + 1..n {
            sum -= m[row * n + k] * x[k];
        }
        x[row] = sum / m[row * n + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [3.0, -4.0];
        assert_eq!(solve(&a, &b, 2).unwrap(), vec![3.0, -4.0]);
    }

    #[test]
    fn solve_2x2() {
        // 2x + y = 5; x - y = 1 ⇒ x = 2, y = 1
        let a = [2.0, 1.0, 1.0, -1.0];
        let b = [5.0, 1.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = [0.0, 1.0, 1.0, 0.0];
        let b = [2.0, 3.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = [1.0, 2.0, 2.0, 4.0];
        let b = [1.0, 2.0];
        assert!(solve(&a, &b, 2).is_none());
    }

    #[test]
    fn solve_4x4_vandermonde() {
        // Fit cubic through 4 points exactly: y = 1 + 2x + 3x² + 4x³.
        let xs: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
        let coef: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
        let mut a = vec![0.0; 16];
        let mut b = vec![0.0; 4];
        for (i, &x) in xs.iter().enumerate() {
            for j in 0..4 {
                a[i * 4 + j] = x.powi(j as i32);
            }
            b[i] = coef
                .iter()
                .enumerate()
                .map(|(j, c)| c * x.powi(j as i32))
                .sum();
        }
        let sol = solve(&a, &b, 4).unwrap();
        for (got, want) in sol.iter().zip(&coef) {
            assert!((got - want).abs() < 1e-9, "got {got} want {want}");
        }
    }
}
