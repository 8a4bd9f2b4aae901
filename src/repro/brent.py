"""Brent's root-finder and bounded scalar minimizer, stdlib only.

The exact PV path finds every maximum power point with a bounded
minimization and every PV-converter-load operating point with a bracketed
root-find.  These are ports of the two SciPy routines it used:

* :func:`brentq` is SciPy's C ``brentq`` (``scipy/optimize/Zeros/brentq.c``)
  with the checks of its Python wrapper, the same operations in the same
  order;
* :func:`minimize_bounded` is ``_minimize_scalar_bounded`` from
  ``scipy/optimize/_optimize.py`` (``minimize_scalar(method="bounded")``),
  with float arithmetic in place of the NumPy scalar calls.

So every root, iteration count and minimizer has SciPy 1.17.1's bits;
``tests/test_brent.py`` checks them against the installed SciPy.  Importing
``scipy.optimize`` costs most of a command's start-up, which is why the
package carries its own copy.  Stdlib only, so every layer can import it.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable

__all__ = ["RTOL_MIN", "brentq", "minimize_bounded"]

#: The smallest relative tolerance :func:`brentq` accepts: 4 machine epsilons.
RTOL_MIN = 4 * sys.float_info.epsilon

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _nan_value(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float,
    rtol: float = RTOL_MIN,
    maxiter: int = 100,
) -> tuple[float, int]:
    """A root of ``f`` on the bracket ``[a, b]`` by Brent's method.

    Returns ``(root, iterations)``.  The root ``x0`` is within
    ``xtol + rtol * |x0|`` of an exact one.  A bracket end where ``f`` is 0
    is returned as the root after 1 iteration: SciPy's C solver leaves its
    count unset there, and reports 1 on a fresh call.

    Raises:
        ValueError: ``xtol <= 0``, ``rtol < RTOL_MIN``, ``maxiter < 0``, a
            NaN function value, or ``f(a)`` and ``f(b)`` of the same sign.
        RuntimeError: no convergence within ``maxiter`` iterations.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xtol = float(xtol)
    rtol = float(rtol)
    copysign = math.copysign

    xpre = float(a)
    xcur = float(b)
    fblk = xblk = spre = scur = 0.0
    fpre = f(xpre)
    if fpre != fpre:
        raise _nan_value(xpre)
    fpre = float(fpre)
    fcur = f(xcur)
    if fcur != fcur:
        raise _nan_value(xcur)
    fcur = float(fcur)
    if fpre == 0:
        return xpre, 1
    if fcur == 0:
        return xcur, 1
    # signbit(fpre) == signbit(fcur)
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for iterations in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, iterations

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (
                        -fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre))
                    )
            except ZeroDivisionError:
                # In C the step is then inf or NaN, which no test below
                # accepts, so the step bisects.
                stry = math.nan
            # MIN(|spre|, 3|sbis| - delta), as the C macro picks it.
            step_max = abs(spre)
            limit = 3 * abs(sbis) - delta
            if not step_max < limit:
                step_max = limit
            if 2 * abs(stry) < step_max:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_value(xcur)
        fcur = float(fcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def minimize_bounded(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xatol: float,
    maxiter: int = 500,
) -> float:
    """The minimizer of ``f`` on ``[lo, hi]`` by Brent's bounded method.

    Golden-section steps with parabolic interpolation, stopping when the
    bracket is within ``xatol`` (plus a relative term) of the best point,
    or after ``maxiter`` function evaluations.  A NaN objective does not
    raise: like SciPy, the search runs on and returns its best point.

    Raises:
        ValueError: a bound that is not finite, or ``lo > hi``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")

    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat

                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:  # do a golden-section step
                golden = True

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = _GOLDEN_MEAN * e

        # np.maximum(|rat|, tol1): NaN in either operand wins.
        step = abs(rat)
        if not (step >= tol1 or step != step):
            step = tol1
        x = xf + _sign_or_one(rat) * step
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break

    return xf


def _sign_or_one(value: float) -> float:
    """``np.sign(value) + (value == 0)``: -1.0, 1.0 (zero too), or NaN."""
    if value < 0.0:
        return -1.0
    if value == value:
        return 1.0
    return math.nan
