"""Damped Newton descent on a banded Hessian, in NumPy and plain Python.

This is the solver of every collocation quasipotential in ``rates``.  Its
linear algebra is one symmetric banded solve per trial step.  A scalar toy's
Hessian is tridiagonal, and ``tridiagonal_solve`` does that solve in the
operation order of LAPACK, so the toy runs reproduce
``scipy.linalg.solveh_banded`` bit for bit.  A wave path's Hessian is
block-pentadiagonal, one block per collocation node, and
``block_banded_solve`` pairs the nodes and factors the resulting
block-tridiagonal matrix by block Cholesky.  Neither needs SciPy.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

_MESSAGES = ("stopping rule met", "maxiter reached", "no damping lowers J")
# Accepted steps before a run gives up, and the relative stopping tolerance.
MAXITER = 1000
RTOL = 1e-9


def minimize(fun, x0, args=(), hess=None):
    """Levenberg-Marquardt-damped Newton descent of ``fun``.

    ``fun(x, *args)`` returns J and its gradient g; ``hess(x, *args)``
    returns the symmetric Hessian H (or a positive definite model of it) in
    one of two banded forms, and its form picks the solve: a (2, n) array is
    tridiagonal, as ``tridiagonal_solve`` reads it, and a (3, n, m, m) array
    is block-pentadiagonal, as ``block_banded_solve`` reads it.  Each step
    solves (H + lam D) p = -g, with D the absolute diagonal of H, and must
    lower J; lam is raised until one does and then adapted to the model's
    gain ratio (Nielsen's rule).

    The run stops when the predicted remaining decrease, half the Newton
    decrement g^T H^-1 g, is at most ``RTOL`` max(|J|, 1).  The rule is
    relative because the endpoint penalty scales the gradient far above its
    roundoff; the floor of 1 covers downhill transitions, whose J tends to 0.
    Where H is singular at the optimum (a path that ends on a saddle), the
    rule is met instead when no damping lowers J and g^T D^-1 g obeys the
    same bound.

    Returns a namespace with ``x``, ``fun`` (J), ``jac`` (g), ``nit``
    (accepted steps), ``nfev`` (evaluations of ``fun``), ``status`` (0
    stopping rule met, 1 ``MAXITER`` accepted steps, 2 no damping lowers J
    elsewhere), ``success`` (status 0) and ``message``.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x, *args)
    nfev, lam, status = 1, 1e-3, 1
    for nit in range(MAXITER + 1):
        tol = 2 * RTOL * max(abs(f), 1.0)
        H = hess(x, *args)
        solve, diag = _banded(H)
        newton = solve(H, -g)
        if newton is not None and -(g @ newton) <= tol:
            status = 0
            break
        if nit == MAXITER:
            break
        D, nu = np.abs(diag), 2.0
        while lam <= 1e16:
            step = solve(H, -g, lam * D)
            if step is not None:
                f_new, g_new = fun(x + step, *args)
                nfev += 1
                if f_new < f:
                    break
            lam *= nu
            nu *= 2.0
        else:
            status = 0 if g @ (g / D) <= tol else 2
            break
        # gain ratio against the decrease the damped quadratic model predicts
        rho = (f - f_new) / (0.5 * (step @ (lam * D * step) - g @ step))
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-15)
        x = x + step
        f, g = f_new, g_new
    return SimpleNamespace(x=x, fun=f, jac=g, nit=nit, nfev=nfev, status=status,
                           success=status == 0, message=_MESSAGES[status])


def _banded(H):
    """The solve that reads the banded form of H, and the diagonal of H."""
    if H.ndim == 2:
        return tridiagonal_solve, H[-1]
    return block_banded_solve, np.diagonal(H[-1], axis1=1, axis2=2).ravel()


def tridiagonal_solve(ab, b, damping=None):
    """x with (A + diag(damping)) x = b, or None where that matrix is not
    positive definite.

    A is symmetric tridiagonal, given in upper banded form: ``ab[0, 1:]`` is
    the superdiagonal (``ab[0, 0]`` is unused) and ``ab[1]`` the diagonal.
    One loop factors A = L D L^T and substitutes forward, a second one
    substitutes back, each operation in the order of LAPACK ``dpttrf`` and
    ``dptts2`` (what ``scipy.linalg.solveh_banded`` runs for a two-row band),
    so the result equals SciPy's bit for bit and None stands where SciPy
    raises ``LinAlgError``.  A nonfinite entry raises ``ValueError``.
    """
    diag = ab[1] if damping is None else ab[1] + damping
    if not (np.isfinite(ab).all() and np.isfinite(diag).all()
            and np.isfinite(b).all()):
        raise ValueError("tridiagonal_solve: the matrix or the right-hand side "
                         "has a nonfinite entry")
    d, e, x = diag.tolist(), ab[0, 1:].tolist(), b.tolist()
    n = len(d)
    for i in range(n - 1):
        if d[i] <= 0:
            return None
        li = e[i] / d[i]
        d[i + 1] -= li * e[i]
        x[i + 1] -= x[i] * li
        e[i] = li
    if d[-1] <= 0:
        return None
    x[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / d[i] - x[i + 1] * e[i]
    return np.array(x)


def block_banded_solve(ab, b, damping=None):
    """x with (A + diag(damping)) x = b, or None where that matrix is not
    positive definite.

    A is symmetric block-pentadiagonal with n m x m blocks, given in upper
    block-banded form: ``ab[2, j]`` is the diagonal block (j, j), ``ab[1, j]``
    the block (j - 1, j) and ``ab[0, j]`` the block (j - 2, j); the blocks
    that would lie outside A (``ab[1, 0]``, ``ab[0, :2]``) are unused.  x, b
    and ``damping`` have n m entries, node-major.  Pairing the nodes makes A
    block-tridiagonal with 2m x 2m blocks (an odd n gets one more node with
    an identity block and a zero right-hand side), and one block Cholesky
    pass factors it and substitutes forward, a second one substitutes back.
    A nonfinite entry raises ``ValueError``.
    """
    n, m = ab.shape[1], ab.shape[-1]
    if not (np.isfinite(ab).all() and np.isfinite(b).all()
            and (damping is None or np.isfinite(damping).all())):
        raise ValueError("block_banded_solve: the matrix or the right-hand side "
                         "has a nonfinite entry")
    if n % 2:
        ab = np.concatenate([ab, np.zeros((3, 1, m, m))], axis=1)
        ab[2, -1] = np.eye(m)
    nb, w = ab.shape[1] // 2, 2 * m
    # pair block i holds nodes 2i and 2i + 1; upper[i] couples pair i - 1 to i
    diag = np.zeros((nb, 2, 2, m, m))
    upper = np.zeros((nb, 2, 2, m, m))
    diag[:, 0, 0], diag[:, 1, 1], diag[:, 0, 1] = ab[2, 0::2], ab[2, 1::2], ab[1, 1::2]
    diag[:, 1, 0] = np.swapaxes(ab[1, 1::2], 1, 2)
    upper[:, 0, 0], upper[:, 1, 0], upper[:, 1, 1] = ab[0, 0::2], ab[1, 0::2], ab[0, 1::2]
    diag = diag.transpose(0, 1, 3, 2, 4).reshape(nb, w, w)
    upper = upper.transpose(0, 1, 3, 2, 4).reshape(nb, w, w)
    y = np.zeros(nb * w)
    y[:n * m] = b
    y = y.reshape(nb, w)
    if damping is not None:
        d = np.zeros(nb * w)
        d[:n * m] = damping
        diag[:, np.arange(w), np.arange(w)] += d.reshape(nb, w)
    inverses, links = [], []                 # L[i]^-1, and W[i] = L[i]^-1 upper[i + 1]
    for i in range(nb):
        S = diag[i]
        if i:
            # the factor's block L[i, i-1] is W[i-1]^T
            W = inverses[-1] @ upper[i]
            S = S - W.T @ W
            y[i] -= W.T @ y[i - 1]
            links.append(W)
        try:
            inverses.append(np.linalg.inv(np.linalg.cholesky(S)))
        except np.linalg.LinAlgError:
            return None
        y[i] = inverses[-1] @ y[i]
    for i in range(nb - 1, -1, -1):
        if i < nb - 1:
            y[i] -= links[i] @ y[i + 1]
        y[i] = inverses[i].T @ y[i]
    return y.ravel()[:n * m]
