"""Precomputed operating-point / MPP lookup surfaces (ROADMAP item 1).

The exact solvers (:func:`repro.pv.mpp.find_mpp`,
:func:`repro.power.operating_point.solve_operating_point`) are Brent /
golden-section searches over the Lambert-W diode model — hundreds of
microseconds per call, ~830 calls per simulated day.  This module
tabulates their answers once over the whole physically reachable domain
and serves every later query as an O(1) multilinear interpolation:

* **MPP surface** — ``Pmpp``, ``Vmpp``, ``Voc`` on a (ln G, T) grid.
  ``ln Pmpp`` is nearly affine in ``ln G`` and ``T``, so bilinear
  interpolation in those coordinates is accurate to ~1e-5 relative.
* **Operating-point surface** — the coupled PV-converter-load
  equilibrium depends on (G, T, k, R_load) only through the *reflected
  resistance* ``rho = k^2 * eta * R`` (the load line ``I = V/rho``), so
  one 3-D table covers every converter setting and load.  The third
  axis is ``ln(rho / rho_mpp(G, T))`` with ``rho_mpp = Vmpp^2/Pmpp``:
  normalizing by the MPP resistance pins the I-V knee to a fixed grid
  location for every (G, T), and the stored value is the logit
  ``ln(V / (Voc - V))``, which is asymptotically *linear* in the axis
  coordinate on both the current-source and diode wings.  Together
  these buy an order of magnitude of interpolation accuracy over a
  raw ``ln rho`` axis storing ``V/Voc``.  The query returns
  ``I = V/rho`` exactly on the load line.
* **Right-branch surface** — the controller's rail-alignment root
  ``P(V) = p_frac * Pmpp`` on the diode-side branch ``[Vmpp, Voc]``,
  tabulated over (ln G, T, p_frac).

The MPP table is a golden-section maximization of ``P(V)``.  The
operating-point table is the load line's closed form, one Lambert-W per
node (:meth:`_CellTerms.load_line_voltage`), and the right branch is a
bisection in current space, where ``V(I)`` is explicit.

Every surface carries a *measured* error report: after construction the
tables are compared against the exact solvers on a seeded random sample
and the maximum observed relative errors — times a safety factor —
become the surface's **declared error bound**, asserted by the
Hypothesis property suite on fresh draws.  Queries outside the
tabulated domain (or on dark panels, or for devices the closed form
cannot represent) fall back to the exact solvers and count
``surface.fallbacks``; the tables never extrapolate.

:func:`get_surfaces` builds each surface set once per process and keeps
it in memory.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from repro.power.operating_point import OperatingPoint, solve_operating_point
from repro.pv.mpp import MaxPowerPoint, find_mpp
from repro.pv.vector import VectorizedDevice, device_scaling, lambertw_of_exp_array
from repro.telemetry import hub as telemetry_hub

__all__ = ["SurfaceSpec", "OperatingSurfaces", "get_surfaces"]

log = logging.getLogger(__name__)

#: Safety factor between the measured max error and the declared bound.
_BOUND_SAFETY = 3.0

#: Floor under declared bounds (a measured zero still declares a bound).
_BOUND_FLOOR = 1e-7

#: Seed for the build-time error measurement sample.
_ERROR_SAMPLE_SEED = 20260808


@dataclass(frozen=True)
class SurfaceSpec:
    """Grid geometry of one surface set.

    The G and rho axes are log-uniform (the physics is closer to affine
    in log coordinates), T and p_frac are uniform.  The defaults cover
    every value the weather traces, chip load range, and converter
    clamp can produce; queries outside fall back to the exact solvers.

    Attributes:
        g_min: Lowest tabulated irradiance [W/m^2] (> 0; darker panels
            short-circuit to the exact zero-power answers).
        g_max: Highest tabulated irradiance [W/m^2].
        t_min: Lowest tabulated cell temperature [C].
        t_max: Highest tabulated cell temperature [C].
        ln_rho_norm_min: Lowest tabulated ``ln(rho / rho_mpp)``.
        ln_rho_norm_max: Highest tabulated ``ln(rho / rho_mpp)``.
        pfrac_max: Highest tabulated right-branch power fraction.
        n_g: Irradiance nodes.
        n_t: Temperature nodes.
        n_rho: Reflected-resistance nodes.
        n_pfrac: Power-fraction nodes.
        error_samples: Random draws per table in the build-time error
            measurement.
    """

    g_min: float = 1.0
    g_max: float = 1500.0
    t_min: float = -30.0
    t_max: float = 90.0
    ln_rho_norm_min: float = -12.0
    ln_rho_norm_max: float = 12.0
    pfrac_max: float = 0.985
    n_g: int = 44
    n_t: int = 30
    n_rho: int = 192
    n_pfrac: int = 28
    error_samples: int = 512

    def __post_init__(self) -> None:
        if not 0.0 < self.g_min < self.g_max:
            raise ValueError(f"need 0 < g_min < g_max, got [{self.g_min}, {self.g_max}]")
        if not self.t_min < self.t_max:
            raise ValueError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if not self.ln_rho_norm_min < self.ln_rho_norm_max:
            raise ValueError(
                "need ln_rho_norm_min < ln_rho_norm_max, got "
                f"[{self.ln_rho_norm_min}, {self.ln_rho_norm_max}]"
            )
        if not 0.0 < self.pfrac_max < 1.0:
            raise ValueError(f"pfrac_max must be in (0, 1), got {self.pfrac_max}")
        for name in ("n_g", "n_t", "n_rho", "n_pfrac"):
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be >= 4, got {getattr(self, name)}")


def _bisect_current_root(
    lo: np.ndarray,
    hi: np.ndarray,
    target: "callable",
    iterations: int = 50,
) -> np.ndarray:
    """Vectorized bisection of ``f(i) = target(i)`` with f(lo)>0>f(hi).

    ``target`` maps a current array to the signed mismatch; the bracket
    arrays are consumed (copied internally).
    """
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        pos = target(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


class _CellTerms:
    """Hoisted per-(G, T) diode terms for repeated evaluations.

    The MPP golden section evaluates the device power 145 times on the
    same (G, T) mesh, and the right-branch bisection the device voltage
    50 times; everything except the Lambert-W (or log) term is
    independent of the operating point, so compute it once.
    """

    def __init__(self, vd: VectorizedDevice, g: np.ndarray, t: np.ndarray) -> None:
        self.vd = vd
        self.vt = vd.thermal_voltage(t)
        self.iph = vd.photocurrent(g, t)
        self.i0 = vd.saturation_current(t)
        # With a = Iph + I0 the diode inverts explicitly:
        # V_cell(i) = Vt * ln((a - i) / I0) - i * Rs.
        self.a = self.iph + self.i0
        self.ln_a_i0 = np.log(self.a / self.i0)
        p = vd.cell
        self.rs = p.series_resistance
        if self.rs > 0.0:
            self.log_base = np.log(self.i0 * self.rs / self.vt)
            self.rs_term = self.a * self.rs
        self.inv_vt = 1.0 / self.vt

    def voltage(self, current: np.ndarray) -> np.ndarray:
        """Device voltage [V] at device current: the explicit inverse of
        :meth:`current`, one log per element."""
        i_cell = current / self.vd.np_total
        v_cell = self.vt * (self.ln_a_i0 + np.log1p(-i_cell / self.a)) - i_cell * self.rs
        return v_cell * self.vd.ns_total

    def load_line_voltage(self, rho: np.ndarray) -> np.ndarray:
        """Device voltage [V] where the I-V curve meets ``I = V/rho``.

        One cell sees ``rho_c = rho * np/ns``, and a resistive load behind
        ``Rs`` is a short through ``R' = Rs + rho_c``, so the cell current
        has the closed form ``a - (Vt/R') W((I0 R'/Vt) exp(a R'/Vt))``.
        That form cancels in ``a - W Vt/R'`` where the current is small,
        so two Newton steps on the explicit
        ``Vt ln((a - I)/I0) - I R' = 0`` restore full precision there.
        """
        a, vt = self.a, self.vt
        rho_c = rho * (self.vd.np_total / self.vd.ns_total)
        r_tot = self.rs + rho_c
        i_cell = a - (vt / r_tot) * lambertw_of_exp_array(
            np.log(self.i0 * r_tot / vt) + a * r_tot / vt
        )
        for _ in range(2):
            h = vt * (self.ln_a_i0 + np.log1p(-i_cell / a)) - i_cell * r_tot
            i_cell = i_cell + h / (vt / (a - i_cell) + r_tot)
        return rho_c * i_cell * self.vd.ns_total

    def current(self, voltage: np.ndarray) -> np.ndarray:
        """Device current [A] at device voltage, reusing hoisted terms."""
        v_cell = voltage / self.vd.ns_total
        if self.rs == 0.0:
            i_cell = self.iph - self.i0 * np.expm1(v_cell * self.inv_vt)
        else:
            log_arg = self.log_base + (v_cell + self.rs_term) * self.inv_vt
            i_cell = self.iph + self.i0 - (self.vt / self.rs) * lambertw_of_exp_array(
                log_arg
            )
        return i_cell * self.vd.np_total

    def power(self, voltage: np.ndarray) -> np.ndarray:
        return voltage * self.current(voltage)


class OperatingSurfaces:
    """Interpolated MPP / operating-point / right-branch tables.

    Build with :meth:`build` (or get the process's shared set through
    :func:`get_surfaces`); query with :meth:`mpp`, :meth:`operating_point`,
    :meth:`right_branch_voltage`, and the vectorized :meth:`mpp_arrays`.
    Every query that cannot be answered from the tables is delegated to
    the exact solvers on ``self.device`` and counted in
    :attr:`fallbacks` (plus the ``surface.fallbacks`` telemetry counter),
    so fast mode degrades to slow-but-right, never to wrong.
    """

    def __init__(
        self,
        device,
        vectorized: VectorizedDevice,
        spec: SurfaceSpec,
        *,
        vmpp: np.ndarray,
        ln_pmpp: np.ndarray,
        voc: np.ndarray,
        vnorm: np.ndarray,
        vright: np.ndarray,
    ) -> None:
        self.device = device
        self.vectorized = vectorized
        self.spec = spec
        #: What the tables depend on: the device's electrical identity and
        #: the grid (the :func:`get_surfaces` registry key).
        self.key = (vectorized.describe(), spec)
        #: The build's measured errors and declared bounds (see
        #: :meth:`_measure_error`).
        self.error_report: dict = {}
        self.lookups = 0
        self.fallbacks = 0
        # One-entry environment memo: within one tracking event the
        # controller issues a dozen queries at the same (G, T), and the
        # axis lookups + MPP/Voc bilinears are identical across them.
        self._env_memo: tuple = (None, None, None)

        # The MPP tables stay arrays for the vectorized mpp_arrays.
        self._vmpp = vmpp
        self._ln_pmpp = ln_pmpp
        # Pure-python nested lists for the scalar hot path: element access
        # is ~5x cheaper than going through numpy scalar boxing.
        self._vmpp_l = vmpp.tolist()
        self._ln_pmpp_l = ln_pmpp.tolist()
        self._voc_l = voc.tolist()
        self._vnorm_l = vnorm.tolist()
        self._vright_l = vright.tolist()

        s = spec
        self._ln_g0 = math.log(s.g_min)
        self._dln_g = (math.log(s.g_max) - self._ln_g0) / (s.n_g - 1)
        self._t0 = s.t_min
        self._dt = (s.t_max - s.t_min) / (s.n_t - 1)
        self._x0 = s.ln_rho_norm_min
        self._dx = (s.ln_rho_norm_max - s.ln_rho_norm_min) / (s.n_rho - 1)
        self._dp = s.pfrac_max / (s.n_pfrac - 1)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, device, spec: SurfaceSpec | None = None) -> "OperatingSurfaces":
        """Tabulate ``device`` over ``spec``'s grid and measure the error.

        Raises:
            TypeError: ``device`` has no closed-form vectorization (use
                :func:`device_scaling` / :func:`get_surfaces` to probe
                support without raising).
        """
        vd = device_scaling(device)
        if vd is None:
            raise TypeError(
                f"{type(device).__name__} cannot be tabulated: no closed-form "
                "vectorization (fault injectors and shaded strings must use "
                "the exact solvers)"
            )
        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("surface.builds")
        spec = spec or SurfaceSpec()

        g_nodes = np.exp(
            np.linspace(math.log(spec.g_min), math.log(spec.g_max), spec.n_g)
        )
        t_nodes = np.linspace(spec.t_min, spec.t_max, spec.n_t)
        g2 = g_nodes[:, None]
        t2 = t_nodes[None, :]
        terms2 = _CellTerms(vd, g2, t2)
        voc = vd.open_circuit_voltage(g2, t2)  # (n_g, n_t)

        # -- MPP via golden-section maximization of P(V) on [0, Voc] ----
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        lo = np.zeros_like(voc)
        hi = voc.copy()
        for _ in range(72):  # 0.618^72 ~ 8e-16: exhausts float64
            c = hi - (hi - lo) * inv_phi
            d = lo + (hi - lo) * inv_phi
            keep_low = terms2.power(c) > terms2.power(d)
            hi = np.where(keep_low, d, hi)
            lo = np.where(keep_low, lo, c)
        vmpp = 0.5 * (lo + hi)
        pmpp = terms2.power(vmpp)

        # -- operating point: I(V) = V/rho on (0, Voc), per rho node ----
        # The rho axis is normalized by each node's MPP resistance
        # Vmpp^2/Pmpp, pinning the I-V knee to a fixed grid location.
        x_nodes = np.linspace(
            spec.ln_rho_norm_min, spec.ln_rho_norm_max, spec.n_rho
        )
        g3 = g_nodes[:, None, None]
        t3 = t_nodes[None, :, None]
        terms3 = _CellTerms(vd, g3, t3)
        rho_mpp = vmpp * vmpp / pmpp  # (n_g, n_t)
        rho3 = np.exp(x_nodes)[None, None, :] * rho_mpp[:, :, None]
        voc3 = voc[:, :, None]
        v_op = terms3.load_line_voltage(rho3)
        # Logit of V/Voc: linear in the axis coordinate on both wings.
        vnorm = np.log(v_op / (voc3 - v_op))

        # -- right branch: P = pfrac * Pmpp on [Vmpp, Voc] --------------
        # Bisected in current space: power rises with current on
        # [0, Impp], and V(I) is explicit (one log, no Lambert-W).
        pfrac_nodes = np.linspace(0.0, spec.pfrac_max, spec.n_pfrac)
        target3 = pmpp[:, :, None] * pfrac_nodes[None, None, :]
        impp3 = np.broadcast_to((pmpp / vmpp)[:, :, None], target3.shape)
        i_right = _bisect_current_root(
            np.zeros(target3.shape),
            impp3,
            lambda i: target3 - i * terms3.voltage(i),
        )
        vright = terms3.voltage(i_right) / voc3

        surfaces = cls(
            device,
            vd,
            spec,
            vmpp=vmpp,
            ln_pmpp=np.log(pmpp),
            voc=voc,
            vnorm=vnorm,
            vright=vright,
        )
        surfaces.error_report = surfaces._measure_error()
        return surfaces

    def _measure_error(self) -> dict:
        """Compare the tables to the exact solvers on a seeded sample.

        The tables are read through the helpers the queries use, so the
        declared bounds certify the code that serves queries.  Returns
        the report dict stored on the surface: the measured maxima plus
        the declared bounds (measured x safety factor).
        """
        s = self.spec
        n = s.error_samples
        rng = np.random.default_rng(_ERROR_SAMPLE_SEED)
        g = np.exp(rng.uniform(math.log(s.g_min), math.log(s.g_max), n))
        t = rng.uniform(s.t_min, s.t_max, n)
        x = rng.uniform(s.ln_rho_norm_min, s.ln_rho_norm_max, n)
        pfrac = rng.uniform(0.0, s.pfrac_max, n)

        mpp_power_rel = 0.0
        mpp_voltage_rel = 0.0
        op_power_rel = 0.0
        right_power_rel = 0.0
        device = self.device
        for i in range(n):
            gi, ti = float(g[i]), float(t[i])
            exact = find_mpp(device, gi, ti)
            env = self._env(gi, ti)
            p_t, v_t = env[4], env[5]
            mpp_power_rel = max(mpp_power_rel, abs(p_t - exact.power) / exact.power)
            mpp_voltage_rel = max(
                mpp_voltage_rel, abs(v_t - exact.voltage) / exact.voltage
            )

            # Exact coupled solve directly on the load line I = V/rho.
            voc = device.open_circuit_voltage(gi, ti)
            r = math.exp(float(x[i])) * v_t * v_t / p_t
            v_exact = brentq(
                lambda v: device.current(v, gi, ti) - v / r,
                1e-9,
                voc,
                xtol=1e-9,
                rtol=1e-12,
            )
            p_exact = v_exact * v_exact / r
            v_tab = self._load_line_voltage(env, r)
            p_tab = v_tab * v_tab / r
            op_power_rel = max(op_power_rel, abs(p_tab - p_exact) / max(p_exact, 1e-12))

            # Right branch: the controller cares about delivered power
            # at the interpolated voltage, relative to the panel's max.
            target = float(pfrac[i]) * p_t
            v_r = self._right_branch_at(env, target / p_t)
            p_at = device.power(v_r, gi, ti)
            right_power_rel = max(right_power_rel, abs(p_at - target) / exact.power)

        measured = {
            "mpp_power_rel": mpp_power_rel,
            "mpp_voltage_rel": mpp_voltage_rel,
            "op_power_rel": op_power_rel,
            "right_branch_power_rel": right_power_rel,
        }
        declared = {
            name: max(value * _BOUND_SAFETY, _BOUND_FLOOR)
            for name, value in measured.items()
        }
        return {"samples": n, "measured": measured, "declared": declared}

    # ------------------------------------------------------------------
    # Interpolation primitives (scalar, pure python on nested lists)
    # ------------------------------------------------------------------
    def _g_axis(self, irradiance: float) -> tuple[int, float] | None:
        x = (math.log(irradiance) - self._ln_g0) / self._dln_g
        if x < 0.0 or x > self.spec.n_g - 1:
            return None
        i = int(x)
        if i >= self.spec.n_g - 1:
            i = self.spec.n_g - 2
        return i, x - i

    def _t_axis(self, temperature_c: float) -> tuple[int, float] | None:
        x = (temperature_c - self._t0) / self._dt
        if x < 0.0 or x > self.spec.n_t - 1:
            return None
        i = int(x)
        if i >= self.spec.n_t - 1:
            i = self.spec.n_t - 2
        return i, x - i

    def _r_axis(self, ln_rho_norm: float) -> tuple[int, float] | None:
        x = (ln_rho_norm - self._x0) / self._dx
        if x < 0.0 or x > self.spec.n_rho - 1:
            return None
        i = int(x)
        if i >= self.spec.n_rho - 1:
            i = self.spec.n_rho - 2
        return i, x - i

    def _p_axis(self, pfrac: float) -> tuple[int, float] | None:
        x = pfrac / self._dp
        if x < 0.0 or x > self.spec.n_pfrac - 1:
            return None
        i = int(x)
        if i >= self.spec.n_pfrac - 1:
            i = self.spec.n_pfrac - 2
        return i, x - i

    @staticmethod
    def _bilinear(table: list, ig: int, fg: float, it: int, ft: float) -> float:
        row0 = table[ig]
        row1 = table[ig + 1]
        c0 = row0[it] * (1.0 - ft) + row0[it + 1] * ft
        c1 = row1[it] * (1.0 - ft) + row1[it + 1] * ft
        return c0 * (1.0 - fg) + c1 * fg

    @staticmethod
    def _trilinear(
        table: list, ig: int, fg: float, it: int, ft: float, ik: int, fk: float
    ) -> float:
        fk1 = 1.0 - fk
        p00 = table[ig][it]
        p01 = table[ig][it + 1]
        p10 = table[ig + 1][it]
        p11 = table[ig + 1][it + 1]
        c00 = p00[ik] * fk1 + p00[ik + 1] * fk
        c01 = p01[ik] * fk1 + p01[ik + 1] * fk
        c10 = p10[ik] * fk1 + p10[ik + 1] * fk
        c11 = p11[ik] * fk1 + p11[ik + 1] * fk
        ft1 = 1.0 - ft
        return (c00 * ft1 + c01 * ft) * (1.0 - fg) + (c10 * ft1 + c11 * ft) * fg

    def _bicubic_x(
        self, table: list, ig: int, fg: float, it: int, ft: float, ik: int, fk: float
    ) -> float:
        """Bilinear over (G, T), Catmull-Rom cubic along the last axis.

        The rho axis carries all the hard curvature (the I-V knee);
        cubic interpolation there is O(h^4) where trilinear is O(h^2).
        Boundary cells degrade to linear — the wings are affine anyway.
        """
        n = len(table[0][0])
        if ik < 1 or ik > n - 3:
            return self._trilinear(table, ig, fg, it, ft, ik, fk)
        f2 = fk * fk
        f3 = f2 * fk
        wm = -0.5 * f3 + f2 - 0.5 * fk
        w0 = 1.5 * f3 - 2.5 * f2 + 1.0
        w1 = -1.5 * f3 + 2.0 * f2 + 0.5 * fk
        w2 = 0.5 * f3 - 0.5 * f2
        km = ik - 1
        k1 = ik + 1
        k2 = ik + 2
        p00 = table[ig][it]
        p01 = table[ig][it + 1]
        p10 = table[ig + 1][it]
        p11 = table[ig + 1][it + 1]
        c00 = wm * p00[km] + w0 * p00[ik] + w1 * p00[k1] + w2 * p00[k2]
        c01 = wm * p01[km] + w0 * p01[ik] + w1 * p01[k1] + w2 * p01[k2]
        c10 = wm * p10[km] + w0 * p10[ik] + w1 * p10[k1] + w2 * p10[k2]
        c11 = wm * p11[km] + w0 * p11[ik] + w1 * p11[k1] + w2 * p11[k2]
        ft1 = 1.0 - ft
        return (c00 * ft1 + c01 * ft) * (1.0 - fg) + (c10 * ft1 + c11 * ft) * fg

    def _env(
        self, irradiance: float, cell_temp_c: float
    ) -> tuple[int, float, int, float, float, float, float] | None:
        """Frozen-environment bundle ``(ig, fg, it, ft, Pmpp, Vmpp, Voc)``.

        ``None`` means (G, T) left the tabulated domain.  Memoized one
        entry deep; every cached value is produced by the same expression
        as the inline lookups it replaces, so reuse is bit-identical.
        """
        memo = self._env_memo
        if memo[0] == irradiance and memo[1] == cell_temp_c:
            return memo[2]
        ax_g = self._g_axis(irradiance)
        ax_t = self._t_axis(cell_temp_c)
        if ax_g is None or ax_t is None:
            env = None
        else:
            ig, fg = ax_g
            it, ft = ax_t
            pmpp = math.exp(self._bilinear(self._ln_pmpp_l, ig, fg, it, ft))
            vmpp = self._bilinear(self._vmpp_l, ig, fg, it, ft)
            voc = self._bilinear(self._voc_l, ig, fg, it, ft)
            env = (ig, fg, it, ft, pmpp, vmpp, voc)
        self._env_memo = (irradiance, cell_temp_c, env)
        return env

    def _load_line_voltage(self, env: tuple, rho: float) -> float | None:
        """PV voltage where the load line ``I = V/rho`` meets the I-V curve.

        ``None`` means ``rho`` left the tabulated axis.
        """
        ig, fg, it, ft, pmpp, vmpp, voc = env
        ax_r = self._r_axis(math.log(rho * pmpp / (vmpp * vmpp)))
        if ax_r is None:
            return None
        ir, fr = ax_r
        logit = self._bicubic_x(self._vnorm_l, ig, fg, it, ft, ir, fr)
        return voc / (1.0 + math.exp(-logit))

    def _right_branch_at(self, env: tuple, pfrac: float) -> float | None:
        """The V > Vmpp where ``P(V) = pfrac * Pmpp``; ``None`` off the axis."""
        ax_p = self._p_axis(pfrac)
        if ax_p is None:
            return None
        ig, fg, it, ft, _, _, voc = env
        ip, fp = ax_p
        return self._trilinear(self._vright_l, ig, fg, it, ft, ip, fp) * voc

    def _note_fallback(self) -> None:
        self.fallbacks += 1
        tel = telemetry_hub.current()
        if tel.enabled:
            tel.count("surface.fallbacks")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def mpp(self, irradiance: float, temperature_c: float) -> MaxPowerPoint:
        """The MPP at (G, T): interpolated in domain, exact outside.

        Dark panels (``G <= 0``) return the same zero-power point as
        :func:`find_mpp`, bit for bit.
        """
        if irradiance <= 0.0:
            return MaxPowerPoint(0.0, 0.0, 0.0, irradiance, temperature_c)
        self.lookups += 1
        env = self._env(irradiance, temperature_c)
        if env is None:
            self._note_fallback()
            return find_mpp(self.device, irradiance, temperature_c)
        power = env[4]
        voltage = env[5]
        return MaxPowerPoint(
            voltage=voltage,
            current=power / voltage,
            power=power,
            irradiance=irradiance,
            temperature_c=temperature_c,
        )

    def operating_point(
        self,
        converter,
        load_resistance: float,
        irradiance: float,
        cell_temp_c: float,
    ) -> OperatingPoint:
        """The coupled equilibrium: interpolated in domain, exact outside.

        The returned current sits exactly on the load line
        (``I = V / rho``), so interpolated power is consistent with the
        chip-side resistance the caller supplied.
        """
        if irradiance <= 0.0:
            return OperatingPoint(0.0, 0.0, 0.0, 0.0)
        if (
            load_resistance <= 0.0
            or math.isnan(load_resistance)
            or math.isnan(irradiance)
            or math.isnan(cell_temp_c)
        ):
            # Exact path owns the error contract for degenerate inputs.
            return solve_operating_point(
                self.device, converter, load_resistance, irradiance, cell_temp_c
            )
        self.lookups += 1
        env = self._env(irradiance, cell_temp_c)
        if env is None:
            self._note_fallback()
            return solve_operating_point(
                self.device, converter, load_resistance, irradiance, cell_temp_c
            )
        if load_resistance == float("inf"):
            voc = env[6]
            return OperatingPoint(voc, 0.0, converter.output_voltage(voc), 0.0)
        rho = converter.reflected_resistance(load_resistance)
        v_pv = self._load_line_voltage(env, rho)
        if v_pv is None:
            self._note_fallback()
            return solve_operating_point(
                self.device, converter, load_resistance, irradiance, cell_temp_c
            )
        i_pv = v_pv / rho
        return OperatingPoint(
            pv_voltage=v_pv,
            pv_current=i_pv,
            output_voltage=converter.output_voltage(v_pv),
            output_current=converter.output_current(i_pv),
        )

    def right_branch_voltage(
        self,
        irradiance: float,
        cell_temp_c: float,
        mpp_power: float,
        target_power: float,
    ) -> float | None:
        """The V > Vmpp solving ``P(V) = target_power``, or None.

        ``None`` means the query left the tabulated domain (the caller
        should run its exact root-find); it is *not* an error.
        """
        if irradiance <= 0.0 or mpp_power <= 0.0:
            return None
        self.lookups += 1
        env = self._env(irradiance, cell_temp_c)
        voltage = (
            None if env is None
            else self._right_branch_at(env, target_power / mpp_power)
        )
        if voltage is None:
            self._note_fallback()
        return voltage

    def mpp_arrays(
        self, irradiance: np.ndarray, temperature_c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized MPP over whole day arrays: ``(Pmpp, Vmpp)``.

        Dark minutes are exactly zero; out-of-domain minutes are solved
        exactly one by one (counted as fallbacks).
        """
        g = np.asarray(irradiance, dtype=np.float64)
        t = np.asarray(temperature_c, dtype=np.float64)
        self.lookups += int(g.size)
        lit = g > 0.0
        safe_g = np.where(lit, g, 1.0)
        gx = (np.log(safe_g) - self._ln_g0) / self._dln_g
        tx = (t - self._t0) / self._dt
        in_dom = (
            lit
            & (gx >= 0.0)
            & (gx <= self.spec.n_g - 1)
            & (tx >= 0.0)
            & (tx <= self.spec.n_t - 1)
        )
        ig = np.clip(gx.astype(np.int64), 0, self.spec.n_g - 2)
        it = np.clip(tx.astype(np.int64), 0, self.spec.n_t - 2)
        fg = np.clip(gx - ig, 0.0, None)
        ft = np.clip(tx - it, 0.0, None)

        def bilin(table: np.ndarray) -> np.ndarray:
            c0 = table[ig, it] * (1.0 - ft) + table[ig, it + 1] * ft
            c1 = table[ig + 1, it] * (1.0 - ft) + table[ig + 1, it + 1] * ft
            return c0 * (1.0 - fg) + c1 * fg

        pmpp = np.where(in_dom, np.exp(bilin(self._ln_pmpp)), 0.0)
        vmpp = np.where(in_dom, bilin(self._vmpp), 0.0)
        outside = lit & ~in_dom
        if outside.any():
            for idx in np.flatnonzero(outside):
                self._note_fallback()
                exact = find_mpp(self.device, float(g.flat[idx]), float(t.flat[idx]))
                pmpp.flat[idx] = exact.power
                vmpp.flat[idx] = exact.voltage
        return pmpp, vmpp

    def report(self) -> str:
        """The error contract as human-readable lines (CI artifact body)."""
        rep = self.error_report
        lines = [
            "surface grid "
            f"{self.spec.n_g}x{self.spec.n_t} (MPP), "
            f"{self.spec.n_g}x{self.spec.n_t}x{self.spec.n_rho} (operating point), "
            f"{self.spec.n_g}x{self.spec.n_t}x{self.spec.n_pfrac} (right branch)",
            f"device {self.vectorized.describe()}",
            f"error sample: {rep.get('samples', 0)} seeded random draws per table",
        ]
        for name in sorted(rep.get("measured", {})):
            lines.append(
                f"  {name:24s} measured {rep['measured'][name]:.3e}  "
                f"declared {rep['declared'][name]:.3e}"
            )
        lines.append(f"lookups {self.lookups}  exact fallbacks {self.fallbacks}")
        return "\n".join(lines)


#: In-process registry: one surface set per (device identity, spec).
_REGISTRY: dict[tuple, OperatingSurfaces] = {}

#: Serializes registry misses, so concurrent first uses build once.
_REGISTRY_LOCK = threading.Lock()

#: Device types already warned about having no surface (warned once each).
_UNSUPPORTED_WARNED: set[str] = set()


def get_surfaces(device, spec: SurfaceSpec | None = None) -> OperatingSurfaces | None:
    """The surface set for ``device``, built on first use in this process.

    Returns None — and logs why, once per device type and process — when
    the device has no closed-form vectorization; callers then stay on the
    exact solvers.
    """
    vd = device_scaling(device)
    if vd is None:
        kind = type(device).__name__
        with _REGISTRY_LOCK:
            first = kind not in _UNSUPPORTED_WARNED
            _UNSUPPORTED_WARNED.add(kind)
        if first:
            log.warning(
                "no operating surface for %s: device has no closed-form "
                "vectorization; using exact solvers",
                kind,
            )
        return None
    spec = spec or SurfaceSpec()
    key = (vd.describe(), spec)
    cached = _REGISTRY.get(key)
    if cached is None:
        with _REGISTRY_LOCK:
            cached = _REGISTRY.get(key)
            if cached is None:
                cached = _REGISTRY[key] = OperatingSurfaces.build(device, spec)
    # Reuse the tables but serve fallbacks from the caller's device.
    if cached.device is not device:
        cached.device = device
    return cached
