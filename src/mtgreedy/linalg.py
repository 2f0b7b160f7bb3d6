"""Small dense linear-algebra helpers used by the fitting engine and diagnostics."""

import math

import numpy as np

# Relative cutoff deciding rank in least-squares solves.
RANK_RTOL = 1e-10
# A column whose part orthogonal to the columns before it is at most this
# share of its norm counts as dependent, and the factor falls back to
# solve_least_squares.
ORTH_RTOL = 1e-8


def solve_least_squares(A, b):
    """Minimum-norm least-squares solution of ``A x = b``.

    A is (m, k), b is length m.  Rank-deficient systems (including all-zero
    columns) return the minimum-norm minimizer instead of raising.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d design, got shape {A.shape}")
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, b has length {b.shape}")
    if A.shape[1] == 0:
        return np.zeros(0)
    if A.shape[0] == 0:
        return np.zeros(A.shape[1])
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=RANK_RTOL)
    return x


class LeastSquaresFactor:
    """Least squares of y on a changing set of X's columns, updated per move.

    The supported columns X_S are held in insertion order as X_S = QR.  Only
    R^-1 (k x k, upper triangular) and z = Q^T y are stored; Q is applied as
    X_S R^-1, so no n x k basis is kept.  ``coef`` (in ``cols`` order),
    ``residual`` y - X_S coef and ``loss`` ||residual||^2 / 2n follow every
    move.

    Appending a column orthogonalizes it against Q by classical Gram-Schmidt
    with one reorthogonalization pass, then updates the residual and loss in
    O(n).  Removing a column refactors the remaining ones with a QR.  When a
    column's orthogonal part is at most ORTH_RTOL of its norm, or the support
    outgrows the sample count, the factor is inexact: it solves with
    solve_least_squares on the sorted columns (the minimum-norm answer) until
    a removal leaves a support that factors again.
    """

    def __init__(self, X, y):
        self.X = X
        self.y = np.asarray(y, dtype=float)
        self.n = X.shape[0]
        self._clear()

    def _clear(self):
        self.cols = []
        self.exact = True
        self._rinv = np.zeros((0, 0))
        self._z = np.zeros(0)
        self.coef = np.zeros(0)
        self._set_residual(self.y.copy())

    def _set_residual(self, residual):
        self.residual = residual
        self.loss = float(residual @ residual) / (2.0 * self.n)

    def move_to(self, support):
        """Make the factor hold exactly the column indices in ``support``."""
        held = set(self.cols)
        if held == support:
            return
        kept = [c for c in self.cols if c in support]
        added = sorted(support - held)
        if len(kept) < len(self.cols):
            self._refactor(kept + added)
        elif not self.exact:
            self._solve(kept + added)
        else:
            for c in added:
                if not self._append(c):
                    self._solve(kept + added)
                    return

    def _append(self, c):
        """Add column c to an exact factor; False when it is dependent."""
        x = self.X[:, c]
        k = len(self.cols)
        v = x
        d = np.zeros(k)
        if k:
            A = self.X[:, self.cols]
            for _ in range(2):
                h = self._rinv.T @ (A.T @ v)
                v = v - A @ (self._rinv @ h)
                d += h
        rho = math.sqrt(float(v @ v))
        if not rho > ORTH_RTOL * math.sqrt(float(x @ x)):
            return False
        q = v / rho
        rinv = np.zeros((k + 1, k + 1))
        rinv[:k, :k] = self._rinv
        rinv[:k, k] = self._rinv @ d / -rho
        rinv[k, k] = 1.0 / rho
        zeta = float(q @ self.residual)
        self.cols.append(c)
        self._rinv = rinv
        self._z = np.concatenate((self._z, (zeta,)))
        self.coef = rinv @ self._z
        self._set_residual(self.residual - zeta * q)
        return True

    def _refactor(self, cols):
        """Factor ``cols`` afresh with a QR; fall back when it is rank deficient."""
        if not cols:
            self._clear()
            return
        if len(cols) > self.n:
            self._solve(cols)
            return
        A = self.X[:, cols]
        Q, R = np.linalg.qr(A)
        if np.any(np.abs(np.diag(R)) <= ORTH_RTOL * np.linalg.norm(A, axis=0)):
            self._solve(cols)
            return
        self.cols = list(cols)
        self.exact = True
        self._rinv = np.linalg.solve(R, np.eye(len(cols)))
        self._z = Q.T @ self.y
        self.coef = self._rinv @ self._z
        self._set_residual(self.y - Q @ self._z)

    def _solve(self, cols):
        """Inexact support: the minimum-norm solve on the sorted columns."""
        self.cols = sorted(cols)
        self.exact = False
        A = self.X[:, self.cols]
        self.coef = solve_least_squares(A, self.y)
        self._set_residual(self.y - A @ self.coef)


def singular_value_extremes(A):
    """Return (smallest, largest) singular value of a dense matrix A with m >= k >= 1."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] == 0 or A.shape[1] == 0:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {A.shape}")
    if A.shape[0] < A.shape[1]:
        raise ValueError(f"expected m >= k, got shape {A.shape}")
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[-1]), float(s[0])
