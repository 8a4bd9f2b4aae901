"""The package's Brent routines give the installed SciPy's bits.

:mod:`repro.brent` ports SciPy's ``brentq`` and
``minimize_scalar(method="bounded")`` so that importing the package never
loads ``scipy.optimize``.  Every exact-mode figure rests on those two
solves, so the port must keep every bit: each check here runs one problem
through both and compares the root or minimizer bits, the iteration count
(it feeds the ``power.brentq_iterations`` counter) and the exception type.
Hypothesis draws problems, a seeded batch repeats them at volume, and a
grid over the PV model covers the solves the package itself makes.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from repro.brent import RTOL_MIN, brentq, minimize_bounded
from repro.power.converter import DCDCConverter
from repro.pv.array import PVArray
from repro.pv.shading import ShadedSeriesString

#: Every brentq call shape in the package: ``(our kwargs, SciPy kwargs)``.
#: fig01 states SciPy's default ``xtol`` and takes the default ``rtol``.
SHAPES = {
    "operating_point": ({"xtol": 1e-9, "rtol": 1e-12}, {"xtol": 1e-9, "rtol": 1e-12}),
    "right_branch": ({"xtol": 1e-6}, {"xtol": 1e-6}),
    "shaded_string": ({"xtol": 1e-9}, {"xtol": 1e-9}),
    "fig01_defaults": ({"xtol": 2e-12}, {}),
}


def _bits(x: float) -> str:
    return float(x).hex()


def _ours(f, a, b, **kwargs):
    """``("ok", root bits, iterations)`` or ``("raised", exception type)``."""
    try:
        root, iterations = brentq(f, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc))
    return ("ok", _bits(root), iterations)


def _scipy(f, a, b, **kwargs):
    try:
        root, info = scipy_brentq(f, a, b, full_output=True, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc))
    if f(a) == 0 or f(b) == 0:
        # A bracket end is the root: SciPy's C solver returns before its
        # loop and leaves the count unset (often 1, at times garbage).
        # The port reports 1, which the end-root tests below pin.
        return ("ok", _bits(root), 1)
    return ("ok", _bits(root), info.iterations)


def assert_same_root(f, a, b, shape):
    ours, theirs = SHAPES[shape]
    assert _ours(f, a, b, **ours) == _scipy(f, a, b, **theirs), (shape, a, b)


def _minimizer(f, lo, hi, **kwargs):
    try:
        return ("ok", _bits(minimize_bounded(f, lo, hi, **kwargs)))
    except ValueError as exc:
        return ("raised", type(exc))


def _scipy_minimizer(f, lo, hi, *, xatol, maxiter=500):
    try:
        result = minimize_scalar(
            f, bounds=(lo, hi), method="bounded",
            options={"xatol": xatol, "maxiter": maxiter},
        )
    except ValueError as exc:
        return ("raised", type(exc))
    return ("ok", _bits(result.x))


def assert_same_minimizer(f, lo, hi, *, xatol, maxiter=500):
    assert _minimizer(f, lo, hi, xatol=xatol, maxiter=maxiter) == _scipy_minimizer(
        f, lo, hi, xatol=xatol, maxiter=maxiter
    ), (lo, hi, xatol, maxiter)


# ----------------------------------------------------------------------
# Problem families: a root at c (brentq) or a minimum near c (minimizer)
# ----------------------------------------------------------------------
def root_family(kind: int, c: float, s: float):
    if kind == 0:
        return lambda x: math.tanh(s * (x - c))
    if kind == 1:
        return lambda x: (x - c) ** 3 + 0.1 * s * (x - c)
    if kind == 2:
        return lambda x: math.expm1(s * (x - c))
    if kind == 3:
        return lambda x: s * (x - c) + 0.01 * math.sin(5.0 * x)
    # A diode-like curve: flat, then a steep exponential fall.
    return lambda x: 1.0 - math.exp(s * (x - c)) - 1e-3 * (x - c)


def min_family(kind: int, c: float, s: float):
    if kind == 0:
        return lambda x: s * (x - c) ** 2
    if kind == 1:
        return lambda x: -x * math.exp(-s * (x - c) ** 2)
    if kind == 2:
        return lambda x: abs(x - c) + 0.1 * math.sin(7.0 * x)
    # A P-V-like curve: -v * I(v) with an exponential knee at c.
    return lambda x: -x * (1.0 - math.exp(min(s * (x - c), 50.0)))


kinds_root = st.integers(0, 4)
kinds_min = st.integers(0, 3)
centres = st.floats(-5.0, 5.0)
scales = st.floats(0.05, 20.0)
widths = st.floats(1e-3, 10.0)
shapes = st.sampled_from(sorted(SHAPES))


# ----------------------------------------------------------------------
# brentq
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(kinds_root, centres, scales, widths, widths, shapes, st.booleans())
def test_brentq_matches_scipy_on_drawn_brackets(kind, c, s, left, right, shape, flip):
    a, b = c - left, c + right
    if flip:
        a, b = b, a
    assert_same_root(root_family(kind, c, s), a, b, shape)


@settings(max_examples=100, deadline=None)
@given(kinds_root, centres, scales, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
       shapes, st.integers(0, 8))
def test_brentq_matches_scipy_on_any_bracket_and_iteration_cap(
    kind, c, s, a, b, shape, maxiter
):
    # Brackets without a sign change, and caps the solve runs into.
    f = root_family(kind, c, s)
    ours, theirs = SHAPES[shape]
    assert _ours(f, a, b, maxiter=maxiter, **ours) == _scipy(
        f, a, b, maxiter=maxiter, **theirs
    )


def test_brentq_matches_scipy_on_a_seeded_batch():
    rng = random.Random(20110212)
    for _ in range(500):
        kind, c, s = rng.randrange(5), rng.uniform(-5, 5), rng.uniform(0.05, 20)
        a, b = c - rng.uniform(1e-3, 10), c + rng.uniform(1e-3, 10)
        if rng.random() < 0.5:
            a, b = b, a
        f = root_family(kind, c, s)
        for shape in SHAPES:
            assert_same_root(f, a, b, shape)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0), (1.0, 1.0)])
def test_root_at_a_bracket_end_takes_one_iteration_and_two_calls(a, b, shape):
    # SciPy's C solver returns before its loop here and leaves its
    # iteration count unset, so the count is pinned, not compared.
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    ours, theirs = SHAPES[shape]
    root, iterations = brentq(f, a, b, **ours)
    assert (root, iterations, calls) == (1.0, 1, [a, b])
    assert _bits(scipy_brentq(f, a, b, **theirs)) == _bits(root)


@pytest.mark.parametrize("end", ["a", "b"])
def test_negative_zero_at_a_bracket_end_is_a_root(end):
    def f(x):
        if x == (0.0 if end == "a" else 2.0):
            return -0.0
        return 1.0 if end == "b" else -1.0

    assert brentq(f, 0.0, 2.0, xtol=1e-9) == ((0.0, 1) if end == "a" else (2.0, 1))
    assert _bits(scipy_brentq(f, 0.0, 2.0, xtol=1e-9)) == _bits(
        0.0 if end == "a" else 2.0
    )


NAN = float("nan")


@pytest.mark.parametrize(
    "f, a, b, kwargs, raises",
    [
        pytest.param(lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError, id="same-sign"),
        pytest.param(lambda x: -x * x - 1.0, -1.0, 1.0, {}, ValueError, id="same-sign-neg"),
        pytest.param(lambda x: NAN, 0.0, 1.0, {}, ValueError, id="nan-at-a"),
        pytest.param(
            lambda x: NAN if x > 0.5 else x - 0.3, 0.0, 1.0, {}, ValueError, id="nan-at-b"
        ),
        pytest.param(
            lambda x: NAN if 0.4 < x < 0.6 else x - 0.55, 0.0, 1.0, {}, ValueError,
            id="nan-mid-run",
        ),
        pytest.param(lambda x: x - 0.5, NAN, 1.0, {}, ValueError, id="nan-bracket"),
        pytest.param(
            lambda x: x ** 3 - 2.0, 0.0, 5.0, {"maxiter": 2}, RuntimeError, id="maxiter"
        ),
        pytest.param(
            lambda x: x ** 3 - 2.0, 0.0, 5.0, {"maxiter": 0}, RuntimeError, id="maxiter-0"
        ),
        pytest.param(
            lambda x: x ** 3 - 2.0, 0.0, 5.0, {"maxiter": -1}, ValueError, id="maxiter-neg"
        ),
        pytest.param(lambda x: x - 0.5, 0.0, 1.0, {"xtol": 0.0}, ValueError, id="xtol-zero"),
        pytest.param(
            lambda x: x - 0.5, 0.0, 1.0, {"xtol": -1e-9}, ValueError, id="xtol-negative"
        ),
        pytest.param(
            lambda x: x - 0.5, 0.0, 1.0, {"rtol": 1e-20}, ValueError, id="rtol-small"
        ),
        pytest.param(lambda x: x - 0.5, 0.0, 1.0, {"xtol": NAN}, ValueError, id="xtol-nan"),
        pytest.param(lambda x: x - 0.5, 0.0, 1.0, {"rtol": RTOL_MIN}, None, id="rtol-floor"),
    ],
)
def test_brentq_raises_what_scipy_raises(f, a, b, kwargs, raises):
    kwargs = {"xtol": 2e-12, **kwargs}
    ours = _ours(f, a, b, **kwargs)
    assert ours == _scipy(f, a, b, **kwargs)
    assert ours[0] == ("ok" if raises is None else "raised")
    if raises is not None:
        assert ours[1] is raises


def test_brentq_error_messages_name_the_cause():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: 1.0, 0.0, 1.0, xtol=1e-9)
    with pytest.raises(ValueError, match=r"x=0\.0 is NaN"):
        brentq(lambda x: NAN, 0.0, 1.0, xtol=1e-9)
    with pytest.raises(RuntimeError, match="after 2 iterations"):
        brentq(lambda x: x ** 3 - 2.0, 0.0, 5.0, xtol=1e-9, maxiter=2)
    with pytest.raises(TypeError):
        brentq(lambda x: x, -1.0, 1.0, xtol=1e-9, maxiter=2.5)


# ----------------------------------------------------------------------
# minimize_bounded
# ----------------------------------------------------------------------
xatols = st.sampled_from([1e-6, 1e-5, 1e-9, 1e-3])


@settings(max_examples=300, deadline=None)
@given(kinds_min, centres, scales, st.floats(-10.0, 10.0), widths, xatols)
def test_minimizer_matches_scipy_on_drawn_problems(kind, c, s, lo, width, xatol):
    assert_same_minimizer(min_family(kind, c, s), lo, lo + width, xatol=xatol)


@settings(max_examples=100, deadline=None)
@given(kinds_min, centres, scales, st.floats(-10.0, 10.0), widths,
       st.integers(1, 12), st.floats(0.0, 1.0))
def test_minimizer_matches_scipy_with_nan_regions_and_caps(
    kind, c, s, lo, width, maxiter, nan_from
):
    # The objective turns NaN past a drawn fraction of the interval.
    base = min_family(kind, c, s)
    cut = lo + nan_from * width

    def f(x):
        return NAN if x > cut else base(x)

    assert_same_minimizer(f, lo, lo + width, xatol=1e-5, maxiter=maxiter)


def test_minimizer_matches_scipy_on_a_seeded_batch():
    rng = random.Random(20110213)
    for _ in range(500):
        kind, c, s = rng.randrange(4), rng.uniform(-5, 5), rng.uniform(0.05, 20)
        lo = rng.uniform(-10, 10)
        hi = lo + rng.uniform(1e-3, 10)
        assert_same_minimizer(
            min_family(kind, c, s), lo, hi, xatol=rng.choice([1e-6, 1e-5, 1e-9])
        )


INF = float("inf")


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        pytest.param(lambda x: NAN, 0.0, 1.0, id="nan-everywhere"),
        pytest.param(lambda x: NAN if x < 0.5 else (x - 0.7) ** 2, 0.0, 1.0, id="nan-left"),
        pytest.param(lambda x: -INF if x > 0.9 else x, 0.0, 1.0, id="minus-inf"),
        pytest.param(lambda x: (x - 0.3) ** 2, 0.5, 0.5, id="empty-interval"),
        pytest.param(lambda x: (x - 0.3) ** 2, 0.0, INF, id="infinite-hi"),
        pytest.param(lambda x: (x - 0.3) ** 2, -INF, 0.0, id="infinite-lo"),
        pytest.param(lambda x: (x - 0.3) ** 2, NAN, 1.0, id="nan-lo"),
        pytest.param(lambda x: (x - 0.3) ** 2, 1.0, 0.0, id="inverted"),
    ],
)
def test_minimizer_edge_cases_match_scipy(f, lo, hi):
    assert_same_minimizer(f, lo, hi, xatol=1e-5)


def test_minimizer_rejects_bad_bounds():
    with pytest.raises(ValueError, match="finite"):
        minimize_bounded(lambda x: x, 0.0, INF, xatol=1e-5)
    with pytest.raises(ValueError, match="exceeds"):
        minimize_bounded(lambda x: x, 1.0, 0.0, xatol=1e-5)


# ----------------------------------------------------------------------
# The package's own solves, on a grid over the PV model
# ----------------------------------------------------------------------
GRID_G = (30.0, 200.0, 550.0, 1000.0)
GRID_T = (-5.0, 25.0, 60.0)


@pytest.mark.parametrize("temperature_c", GRID_T)
@pytest.mark.parametrize("irradiance", GRID_G)
def test_pv_model_solves_match_scipy(irradiance, temperature_c):
    array = PVArray()
    voc = array.open_circuit_voltage(irradiance, temperature_c)

    # pv.mpp.find_mpp
    def neg_power(v):
        return -v * array.current(v, irradiance, temperature_c)

    assert_same_minimizer(neg_power, 0.0, voc, xatol=1e-6)
    v_mpp = minimize_bounded(neg_power, 0.0, voc, xatol=1e-6)
    p_mpp = -neg_power(v_mpp)

    # power.operating_point and the surface self-check: the load line.
    converter = DCDCConverter()
    for ratio in (0.05, 0.3, 1.0, 3.0, 20.0):
        reflected = converter.reflected_resistance(ratio * v_mpp * v_mpp / p_mpp)

        def mismatch(v, reflected=reflected):
            return array.current(v, irradiance, temperature_c) - v / reflected

        assert_same_root(mismatch, 1e-9, voc, "operating_point")
        assert_same_root(mismatch, 1e-9, voc, "fig01_defaults")

    # core.controller's right branch: a power target right of the MPP.
    for fraction in (0.1, 0.6, 0.98):
        def surplus(v, target=fraction * p_mpp):
            return v * array.current(v, irradiance, temperature_c) - target

        assert_same_root(surplus, v_mpp, voc, "right_branch")


def test_shaded_string_solves_match_scipy():
    string = ShadedSeriesString((1.0, 0.45, 0.8))
    g, t = 850.0, 35.0
    i_max = string.max_string_current(g, t)
    v_open = string.string_voltage(0.0, g, t)
    for fraction in (0.05, 0.3, 0.55, 0.8, 0.97):
        voltage = fraction * v_open

        def mismatch(i, voltage=voltage):
            return string.string_voltage(i, g, t) - voltage

        assert_same_root(mismatch, 0.0, i_max, "shaded_string")

    def neg_power(v):
        return -string.power(v, g, t)

    assert_same_minimizer(neg_power, 0.2 * v_open, 0.6 * v_open, xatol=1e-5)
