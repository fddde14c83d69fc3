"""Osgood-type comparison bound and the perturbation experiment.

The uniqueness argument controls the squared difference energy y(t) by

    y' <= a + C mu(y),      mu(x) = x (1 + |log x|),

whose explicit supersolution is  e (y0 + t a)^{exp(-C t)}:  it degrades
continuously to the log-free Gronwall bound and collapses to zero exactly
when y0 = a = 0.  The stability experiment calibrates C on perturbed twin
runs and checks every rung against that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, UsageError

# the twin energy below which a ladder rung carries no signal: a twin of a
# run with itself differs by exact zeros, so no measured floor can exceed it
NOISE_FLOOR = 1e-28


def mu(x, C: float = 1.0):
    """Osgood modulus C x (1 + |log x|), continuously extended by 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    out[pos] = C * xp * (1.0 + np.abs(np.log(xp)))
    return out if out.ndim else float(out)


def osgood_bound(y0: float, a: float, C: float, t):
    """Supersolution e (y0 + t a)^(exp(-C t)) of y' = a + C mu(y).

    Exactly zero when y0 + t a vanishes: the uniqueness statement.  The
    domination holds in the small regime (values <= 1, where the modulus
    reads x (1 - log x)); past 1 the true solution grows faster than any
    fixed power and the closed form is no longer an upper bound.
    """
    if y0 < 0 or a < 0 or C < 0:
        raise UsageError("osgood_bound needs nonnegative y0, a, C")
    t = np.asarray(t, dtype=np.float64)
    base = y0 + t * a
    out = np.zeros_like(base)
    pos = base > 0
    out[pos] = math.e * base[pos] ** np.exp(-C * t[pos])
    return out if out.ndim else float(out)


# -- perturbation experiment --------------------------------------------


@dataclass
class StabilityRung:
    delta: float
    y0: float
    y_final: float
    C_hat: float
    a: float
    bound_margin: float     # min over snapshots of bound - y (>= 0 ok)
    bound_ok: bool
    failed: str | None = None   # solver error text; rung excluded from fits
    times: np.ndarray | None = field(default=None, repr=False)
    y_series: np.ndarray | None = field(default=None, repr=False)
    bound_series: np.ndarray | None = field(default=None, repr=False)


@dataclass
class StabilityReport:
    rungs: list[StabilityRung]
    beta: float             # amplitude response exponent
    beta_ok: bool
    C_spread: float         # max/min of the nonzero calibrated constants
    C_dev: float            # max relative deviation of C_hat from median
    monotone: bool          # final amplitudes ordered with delta


def interval_trapezoid(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Trapezoid dt (v_k + v_{k+1}) / 2 of each snapshot interval: the
    terms that ``np.trapezoid`` sums, with its bits."""
    return np.diff(times) * (vals[1:] + vals[:-1]) / 2.0


def smallest_constant(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Smallest C >= 0 with lhs <= C rhs wherever rhs > 0 (``lhs``
    broadcast against ``rhs``): the largest max(lhs, 0) / rhs there."""
    ratio = np.maximum(lhs, 0.0) / np.where(rhs > 0, rhs, 1.0)
    return float(np.where(rhs > 0, ratio, 0.0).max(initial=0.0))


def calibrate_constant(times: np.ndarray, y: np.ndarray, dy: np.ndarray,
                       data2) -> float:
    """Smallest C with  [y]_k <= C ( int_k y (1 + |log y|) + data2 dt )
    on every snapshot interval (trapezoid quadrature), where ``dy`` holds
    the jumps [y]_k and ``data2`` the squared data size, one number or
    one per interval (a twin's ``data2``)."""
    rhs = interval_trapezoid(times, mu(y)) + data2 * np.diff(times)
    return smallest_constant(dy, rhs)


def stability_experiment(base_scenario, deltas, comp: list | None = None
                         ) -> StabilityReport:
    """Perturb the initial circulation of each inner component of the
    non-empty list ``comp`` (None: the first inner component) by each
    delta, rerun, and measure the Osgood-type response of the twin energy
    y(t) = running max of z = |u|_2^2 + |v|_2^2, formed as z(0) plus the
    running max of the summed jumps of z (the twin's ``dz_u + dz_v``).
    Each rung's constant is calibrated against the twin's data term
    ``data2`` and its forcing is a = C_hat max(data2), so the ladder and
    the growth ledger read one data term:

      * every rung obeys its own calibrated closed-form bound,
      * the final amplitudes are ordered with delta,
      * the final amplitude scales at most linearly (beta in (0, 1.05]).
    The CLI gates on these three and on failed rungs; how far the
    calibrated constants agree (``C_spread``, ``C_dev``) is only reported.
    """
    from . import transport
    from .certificates import TwinRun
    from .hodge import HarmonicBasis

    deltas = sorted(float(d) for d in deltas)
    if not deltas or not all(math.isfinite(d) and d >= 0 for d in deltas):
        raise UsageError(f"deltas must be finite and nonnegative, got "
                         f"{deltas}")
    # a repeated delta adds no point to the fit of beta: two equal
    # deltas alone leave its slope undetermined
    if len(set(deltas)) != len(deltas):
        raise UsageError(f"deltas must be distinct, got {deltas}")
    mesh = base_scenario.mesh
    if comp is None:
        comp = [c.comp for c in mesh.components[1:2]]
    comps = sorted(int(c) for c in comp)
    if not comps:
        raise UsageError("stability experiment needs an inner component")
    # a component named twice is a malformed request, not a larger shift
    if len(set(comps)) != len(comps):
        raise UsageError(f"components must be distinct, got {comps}")

    # every rung's scenario before the basis and the base run, so that a
    # component that cannot be perturbed fails first
    perturbed = [base_scenario.perturbed(C0={c: delta for c in comps})
                 for delta in deltas]
    basis = HarmonicBasis(mesh)
    base_traj = transport.run(base_scenario, basis)

    def one_rung(delta: float, pert) -> StabilityRung:
        try:
            traj2 = transport.run(pert, basis)
            tw = TwinRun(base_traj, traj2)
        except SolverError as exc:
            return StabilityRung(delta=delta, y0=math.nan,
                                 y_final=math.nan, C_hat=math.nan,
                                 a=math.nan, bound_margin=math.nan,
                                 bound_ok=False, failed=str(exc))
        times = tw.times
        rise = np.maximum.accumulate(
            np.concatenate(([0.0], np.cumsum(tw.dz_u + tw.dz_v))))
        y = (tw.z_u[0] + tw.z_v[0]) + rise
        c_hat = calibrate_constant(times, y, np.diff(rise), tw.data2)
        a = c_hat * float(tw.data2.max())
        bound = osgood_bound(float(y[0]), a, c_hat, times)
        margin = float(np.min(bound - y))
        ok = bool(np.all(y <= bound * (1 + 1e-9) + 1e-300))
        return StabilityRung(delta=delta, y0=float(y[0]),
                             y_final=float(y[-1]), C_hat=c_hat, a=a,
                             bound_margin=margin, bound_ok=ok,
                             times=times, y_series=y, bound_series=bound)

    rungs = [one_rung(d, pert) for d, pert in zip(deltas, perturbed)]
    live = [r for r in rungs if r.failed is None]

    usable = [r for r in live if r.y_final > 1e3 * NOISE_FLOOR]
    if len(usable) >= 2:
        ld = np.log([r.delta for r in usable])
        la = np.log([math.sqrt(r.y_final) for r in usable])
        beta = float(np.polyfit(ld, la, 1)[0])
    else:
        beta = float("nan")
    beta_ok = bool(0.0 < beta <= 1.0 + 5e-2)     # False for a nan beta

    cs = [r.C_hat for r in usable if r.C_hat > 0]
    spread = max(cs) / min(cs) if cs else 1.0
    med = float(np.median(cs)) if cs else 1.0
    dev = max((abs(c - med) / med for c in cs), default=0.0)
    finals = [r.y_final for r in live]
    monotone = bool(finals) and \
        bool(np.all(np.diff(finals) >= -1e-12 * max(finals)))
    return StabilityReport(rungs=rungs, beta=beta, beta_ok=beta_ok,
                           C_spread=spread, C_dev=dev, monotone=monotone)
