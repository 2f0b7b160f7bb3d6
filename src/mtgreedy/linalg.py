"""Small dense linear algebra for the fitting engine.

``solve_least_squares`` is the minimum-norm reference solve, and
``effective_condition`` gives the condition of a support as that solve sees
it, for the replay's coefficient check.  ``Basis`` holds some columns of
one design as X_S = QR and is never changed once made, so every task on
that design can hold the same one.  ``LeastSquaresFactor`` is one task's
least squares on a basis, the one record of its columns: its own z = Q^T y,
residual and loss, with its coefficients and X^T r written in place into
two length-p views the caller owns.  An append with unit vector q moves the
residual to r - zeta q, so the factor updates its X^T r as
X^T r - zeta X^T q, and every task that takes the same step shares the one
X^T q that ``Basis.append`` returns.

Designs are column-major (``model.design_array``), so the gather X[:, cols]
of a basis step, and each single column X[:, c], read contiguous memory.

The two full products with a design, the X^T q of ``Basis.append`` and the
fresh X^T r a factor takes after a clear, refactor or solve, are each one
``X.T @ v`` in the caller: a fit runs on one core.
"""

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


class Basis:
    """Some columns of one design held as X_S = QR; never changed once made.

    ``X`` is the design, ``cols`` the held column indices in insertion order
    (``col_set`` as a frozenset) and ``rinv`` R^-1 (k x k, upper triangular);
    Q is applied as X_S R^-1, so no n x k basis is kept.  ``Basis(X)`` holds
    no columns.  A basis is exact when it holds R^-1; an inexact one
    (``rinv`` None) holds sorted columns that are dependent or outnumber the
    samples, and its factors take the minimum-norm solve.  Every task on one
    design may hold the same basis: nothing in it depends on a response.
    """

    __slots__ = ("X", "cols", "col_set", "rinv")

    def __init__(self, X, cols=None, rinv=None):
        self.X = X
        self.cols = [] if cols is None else cols
        self.col_set = frozenset(self.cols)
        self.rinv = np.zeros((0, 0)) if cols is None else rinv

    def append(self, c):
        """(basis with column c appended, its unit vector q, X^T q), or None
        when c is dependent.

        Classical Gram-Schmidt with one reorthogonalization pass; a column
        whose orthogonal part is at most ORTH_RTOL of its norm is dependent.
        X^T q is what every task taking the step needs to update its X^T r.
        """
        X = self.X
        x = X[:, c]
        k = len(self.cols)
        v = x
        d = np.zeros(k)
        if k:
            A = X[:, self.cols]
            for _ in range(2):
                h = self.rinv.T @ (A.T @ v)
                v = v - A @ (self.rinv @ h)
                d += h
        rho = math.sqrt(float(v @ v))
        if not rho > ORTH_RTOL * math.sqrt(float(x @ x)):
            return None
        q = v / rho
        rinv = np.zeros((k + 1, k + 1))
        rinv[:k, :k] = self.rinv
        rinv[:k, k] = self.rinv @ d / -rho
        rinv[k, k] = 1.0 / rho
        return Basis(X, self.cols + [c], rinv), q, X.T @ q

    def refactor(self, cols):
        """(basis of ``cols`` factored afresh by a QR, its Q), or None when
        ``cols`` outnumber the samples or are rank deficient."""
        X = self.X
        if len(cols) > X.shape[0]:
            return None
        A = X[:, cols]
        Q, R = np.linalg.qr(A)
        if np.any(np.abs(np.diag(R)) <= ORTH_RTOL * np.linalg.norm(A, axis=0)):
            return None
        return Basis(X, cols, np.linalg.solve(R, np.eye(len(cols)))), Q


_UNSEEN = object()


class LeastSquaresFactor:
    """Least squares of y on a changing set of X's columns, updated per move.

    The factor holds a ``Basis`` of its supported columns, the one place
    its columns are kept, and z = Q^T y, with ``residual`` y - X_S b and
    ``loss`` ||residual||^2 / 2n following every move.  ``beta`` and
    ``correlation`` are length-p views the caller owns (a column of the
    fit's coefficient and correlation grids): the factor writes b at its
    columns and zeros elsewhere into ``beta``, and X^T residual into
    ``correlation``, in place and only when its support moves.  A factor
    starts on ``empty``, the basis of no columns of its task's design, with
    ``beta`` zero; factors made on the same ``empty`` may share every later
    basis.

    Appending a column takes the basis's Gram-Schmidt step, writes the new
    coefficients and updates the residual and loss in O(n) and the
    correlation in O(p).  Removing a column refactors the remaining ones
    with a QR.  When a column's orthogonal part is at most ORTH_RTOL of its
    norm, or the support outgrows the sample count, the basis is inexact and
    the factor solves with solve_least_squares on the sorted columns (the
    minimum-norm answer) until a removal leaves a support that factors
    again.  A refactor, a solve or a clear zeroes the columns it drops and
    takes the product X^T r afresh.  A move diffs the support against the
    basis's column set.

    ``move_to`` takes a memo, a dict from (basis, step) to the step's result.
    Factors that hold the same basis and pass the same memo compute each
    step once: the orthogonalization with its X^T q, the QR and the inexact
    basis are shared, while z, the coefficients, the residual, X^T r and the
    solve stay the task's own.
    """

    def __init__(self, empty, y, beta, correlation):
        self.y = np.asarray(y, dtype=float)
        self.n = empty.X.shape[0]
        self.beta = beta
        self.correlation = correlation
        self._empty = self.basis = empty
        self._clear()

    def _clear(self):
        self._take(self._empty)
        self._z = np.zeros(0)
        self._set_residual(self.y.copy())

    def _take(self, basis):
        """Hold ``basis``, zeroing the old columns in ``beta``; the caller
        writes the new coefficients."""
        self.beta[self.basis.cols] = 0.0
        self.basis = basis

    def _set_residual(self, residual, shift=None):
        """Take ``residual``; X^T r is updated as X^T r - shift after an
        append (shift = zeta X^T q), and computed afresh otherwise."""
        self.residual = residual
        self.loss = float(residual @ residual) / (2.0 * self.n)
        if shift is None:
            self.correlation[:] = self.basis.X.T @ residual
        else:
            self.correlation -= shift

    def move_to(self, support, memo):
        """Make the factor hold exactly the column indices in ``support``.

        Steps already in ``memo`` are reused and new ones are stored there.
        """
        cols, held = self.basis.cols, self.basis.col_set
        if held == support:
            return
        added = sorted(support - held)
        if len(held) + len(added) > len(support):
            self._refactor([c for c in cols if c in support] + added, memo)
        elif self.basis.rinv is None:
            self._solve(cols + added, memo)
        else:
            for c in added:
                key = (self.basis, c)
                step = memo.get(key, _UNSEEN)
                if step is _UNSEEN:
                    step = memo[key] = self.basis.append(c)
                if step is None:
                    self._solve(cols + added, memo)
                    return
                basis, q, g = step
                zeta = float(q @ self.residual)
                self.basis = basis
                self._z = np.concatenate((self._z, (zeta,)))
                self.beta[basis.cols] = basis.rinv @ self._z
                self._set_residual(self.residual - zeta * q, zeta * g)

    def _refactor(self, cols, memo):
        """Factor ``cols`` afresh with a QR; fall back when it is rank deficient."""
        if not cols:
            self._clear()
            return
        key = (self.basis, "qr", tuple(cols))
        step = memo.get(key, _UNSEEN)
        if step is _UNSEEN:
            step = memo[key] = self.basis.refactor(cols)
        if step is None:
            self._solve(cols, memo)
            return
        basis, Q = step
        self._take(basis)
        self._z = Q.T @ self.y
        self.beta[basis.cols] = basis.rinv @ self._z
        self._set_residual(self.y - Q @ self._z)

    def _solve(self, cols, memo):
        """Inexact support: the minimum-norm solve on the sorted columns."""
        key = (self.basis, "min-norm", tuple(cols))
        basis = memo.get(key)
        if basis is None:
            basis = memo[key] = Basis(self.basis.X, sorted(cols))
        self._take(basis)
        A = basis.X[:, basis.cols]
        self.beta[basis.cols] = coef = solve_least_squares(A, self.y)
        self._set_residual(self.y - A @ coef)


def effective_condition(A):
    """(largest singular value, condition number) of A as the minimum-norm
    solve sees it: the condition is taken over the singular values above
    RANK_RTOL of the largest.  An all-zero A gives (0.0, 1.0)."""
    s = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    if not s.size or s[0] == 0.0:
        return 0.0, 1.0
    kept = s[s > RANK_RTOL * s[0]]
    return float(s[0]), float(s[0] / kept[-1])

