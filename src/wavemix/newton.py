"""Damped Newton descent on a tridiagonal Hessian, in NumPy and plain Python.

This is the solver of the gradient-toy quasipotentials
(``rates.toy_quasipotential``).  Its linear algebra is one symmetric
tridiagonal solve per trial step, which ``tridiagonal_solve`` does in the
operation order of LAPACK, so the toy runs need no SciPy and still reproduce
``scipy.linalg.solveh_banded`` bit for bit.
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
    returns the symmetric tridiagonal Hessian H in the banded form
    ``tridiagonal_solve`` reads.  Each step solves (H + lam D) p = -g, with D
    the absolute diagonal of H, and must lower J; lam is raised until one
    does and then adapted to the model's gain ratio (Nielsen's rule).

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
        newton = tridiagonal_solve(H, -g)
        if newton is not None and -(g @ newton) <= tol:
            status = 0
            break
        if nit == MAXITER:
            break
        D, nu = np.abs(H[-1]), 2.0
        while lam <= 1e16:
            step = tridiagonal_solve(H, -g, lam * D)
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
