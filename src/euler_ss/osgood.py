"""Osgood-type comparison machinery and the perturbation experiment.

The uniqueness argument controls the squared difference energy y(t) by

    y' <= a + C mu(y),      mu(x) = x (1 + |log x|),

whose explicit supersolution is  e (y0 + t a)^{exp(-C t)}:  it degrades
continuously to the log-free Gronwall bound and collapses to zero exactly
when y0 = a = 0.  The slightly convex envelope F(p, x) = x + p x^{1-1/p}
enters through the p-dependent interpolation step; minimizing over p at
p = |log x| recovers mu up to the factor e on (0, e^{-2}], with constant 3
on the remaining unit interval.  Both facts, the telescoping Riemann
defect of the chained inequality, and the final stability experiment on
perturbed twin runs are realized here as checks with explicit tolerances.

ODE references are integrated with an adaptive Runge-Kutta method at
tolerance 1e-10; the closed forms must dominate them everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, SolverError, UsageError

P_SWITCH = math.exp(-2.0)    # below this, p = |log x| beats p = 2
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


def growth_F(p, x):
    """Envelope F(p, x) = x + p x^(1 - 1/p) (zero at x = 0)."""
    p = np.asarray(p, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(np.broadcast(p, x).shape)
    pos = np.broadcast_to(x > 0, out.shape)
    xb = np.broadcast_to(x, out.shape)[pos]
    pb = np.broadcast_to(p, out.shape)[pos]
    out[pos] = xb + pb * xb ** (1.0 - 1.0 / pb)
    return out if out.ndim else float(out)


def choose_p(x):
    """The minimizing exponent |log x| for small x, capped below by 2.

    dF/dp vanishes at p = |log x|; on (exp(-2), 1] the cap p = 2 applies
    and the map stays continuous at the switch point.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, 2.0)
    small = (x > 0) & (x <= P_SWITCH)
    out[small] = np.abs(np.log(x[small]))
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


def exact_comparison(z0: float, C: float, t):
    """Closed-form solution of z' = C z (1 - log z), z(0) = z0 <= 1:
    z(t) = e^(1 - exp(-C t)) z0^(exp(-C t)), valid while z <= 1."""
    if not 0 < z0 <= 1:
        raise UsageError("exact_comparison needs z0 in (0, 1]")
    t = np.asarray(t, dtype=np.float64)
    decay = np.exp(-C * t)
    out = np.exp(1.0 - decay) * z0 ** decay
    return out if out.ndim else float(out)


def ode_oracle(y0: float, a: float, C: float, t_eval) -> np.ndarray:
    """Reference integration of y' = a + C mu(y).

    A positive start is integrated as z = log y (the substitution keeps
    hundreds of decades of growth smooth and the tolerance relative); a
    zero start falls back to linear space with a data-scaled absolute
    tolerance, since the log chart has no origin.
    """
    from scipy.integrate import solve_ivp

    t_eval = np.asarray(t_eval, dtype=np.float64)
    span = (t_eval[0], t_eval[-1])
    if y0 > 0.0:
        log_a = math.log(a) if a > 0.0 else None

        def rhs(t, z):
            grow = C * (1.0 + abs(z[0]))
            if log_a is not None:
                # a/y through logs, capped so deep starts cannot overflow
                grow += math.exp(min(log_a - z[0], 700.0))
            return grow

        sol = solve_ivp(rhs, span, [math.log(y0)], t_eval=t_eval,
                        rtol=1e-11, atol=1e-11, method="DOP853")
        if not sol.success:
            raise PreconditionError(f"reference ODE failed: {sol.message}")
        return np.exp(sol.y[0])
    scale = max(y0, a * max(float(t_eval[-1] - t_eval[0]), 1.0))
    atol = max(scale * 1e-13, 1e-300)
    sol = solve_ivp(lambda t, y: a + mu(max(y[0], 0.0), C),
                    span, [y0], t_eval=t_eval,
                    rtol=1e-10, atol=atol, method="RK45")
    if not sol.success:
        raise PreconditionError(f"reference ODE failed: {sol.message}")
    return sol.y[0]


# -- technical-lemma checks ---------------------------------------------


def lemma_envelope_check(x_grid=None) -> dict:
    """Two facts about the minimized envelope:

      * identity: F(|log x|, x) = x + e x |log x| on (0, exp(-2)]
        (the minimizer turns the power into the constant e),
      * domination: F(choose_p(x), x) <= kappa(x) x (1 + |log x|) with
        kappa = e below the switch point and kappa = 3 on the rest of
        (0, 1] (the cap p = 2 costs at most the value 3 at x = 1).
    """
    if x_grid is None:
        x_grid = np.concatenate([
            np.geomspace(1e-300, P_SWITCH, 4000),
            np.linspace(P_SWITCH, 1.0, 2000)[1:]])
    x = np.asarray(x_grid, dtype=np.float64)
    if np.any(x <= 0) or np.any(x > 1):
        raise UsageError("envelope check runs on (0, 1]")

    small = x <= P_SWITCH
    xs = x[small]
    ident = growth_F(np.abs(np.log(xs)), xs) \
        - (xs + math.e * xs * np.abs(np.log(xs)))
    scale = np.maximum(xs + math.e * xs * np.abs(np.log(xs)), 1e-300)
    ident_defect = float(np.abs(ident / scale).max(initial=0.0))

    kappa = np.where(small, math.e, 3.0)
    envelope = kappa * x * (1.0 + np.abs(np.log(x)))
    margin = envelope - growth_F(choose_p(x), x)
    return {"identity_defect": ident_defect,
            "identity_ok": ident_defect <= 1e-12,
            "envelope_min_margin": float(margin.min()),
            "envelope_ok": bool(np.all(margin >= -1e-12 * envelope)),
            "kappa_large": 3.0}


def riemann_telescoping_check(y0: float = 1e-3, a: float = 5e-4,
                              t_final: float = 1.0,
                              partitions=(4, 16, 64)) -> dict:
    """Partition defect of the chained envelope inequality.

    With y solving y' = a + F(choose_p(y), y), the piecewise bound that
    freezes p at the right endpoint of each subinterval satisfies

        y(t) - y(0) <= a t + sum_k int_k F(p_{y(t_{k+1})}, y(s)) ds,

    because p -> F(p, x) is minimized at p = choose_p(x).  The defect
    (rhs - lhs) is nonnegative and shrinks as the partition refines.
    """
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: a + growth_F(choose_p(max(y[0], 0.0)),
                                  max(y[0], 0.0)),
        (0.0, t_final), [y0], rtol=1e-10, atol=1e-12,
        dense_output=True, method="RK45")
    if not sol.success:
        raise PreconditionError(f"envelope ODE failed: {sol.message}")
    lhs = float(sol.sol(t_final)[0] - y0)

    defects = []
    for n in partitions:
        edges = np.linspace(0.0, t_final, n + 1)
        total = a * t_final
        for k in range(n):
            p_right = choose_p(float(sol.sol(edges[k + 1])[0]))
            s = np.linspace(edges[k], edges[k + 1], 33)
            ys = np.maximum(sol.sol(s)[0], 0.0)
            total += float(np.trapezoid(growth_F(p_right, ys), s))
        defects.append(total - lhs)
    defects = np.array(defects)
    return {"partitions": list(partitions), "defects": defects,
            "nonnegative": bool(np.all(defects >= -1e-10 * max(lhs, a))),
            "decreasing": bool(np.all(np.diff(defects) <= 1e-12))}


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


def calibrate_constant(times: np.ndarray, y: np.ndarray,
                       data2: float) -> float:
    """Smallest C with  [y]_k <= C ( int_k y (1 + |log y|) + data2 dt )
    on every snapshot interval (trapezoid quadrature)."""
    c = 0.0
    for k in range(len(times) - 1):
        inc = y[k + 1] - y[k]
        if inc <= 0:
            continue
        dt = times[k + 1] - times[k]
        den = 0.5 * dt * float(mu(y[k]) + mu(y[k + 1])) + data2 * dt
        if den > 0:
            c = max(c, inc / den)
    return c


def stability_experiment(base_scenario, deltas, comp: int | list | None = None
                         ) -> StabilityReport:
    """Perturb the initial circulation of inner component ``comp`` (the
    first by default, each of a non-empty list) by each delta, rerun, and
    certify the Osgood-type response of the twin energy
    y(t) = running max of |u|_2^2 + |v|_2^2:

      * every rung obeys its own calibrated closed-form bound,
      * the calibrated constants agree across rungs (factor <= 1.5),
      * the final amplitude scales linearly in delta (beta in (0, 1]).
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
    comps = [int(comp)] if np.isscalar(comp) else sorted(int(c) for c in comp)
    if not comps:
        raise UsageError("stability experiment needs an inner component")

    basis = HarmonicBasis(mesh)
    base_traj = transport.run(base_scenario, basis)

    def one_rung(delta: float) -> StabilityRung:
        try:
            pert = base_scenario.perturbed(C0={c: delta for c in comps})
            traj2 = transport.run(pert, basis)
            tw = TwinRun(base_traj, traj2)
        except SolverError as exc:
            return StabilityRung(delta=delta, y0=math.nan,
                                 y_final=math.nan, C_hat=math.nan,
                                 a=math.nan, bound_margin=math.nan,
                                 bound_ok=False, failed=str(exc))
        times = tw.times
        y = np.maximum.accumulate(tw.z_u + tw.z_v)
        data2 = len(comps) * delta * delta
        c_hat = calibrate_constant(times, y, data2)
        a = c_hat * data2
        bound = osgood_bound(float(y[0]), a, c_hat, times)
        margin = float(np.min(bound - y))
        ok = bool(np.all(y <= bound * (1 + 1e-9) + 1e-300))
        return StabilityRung(delta=delta, y0=float(y[0]),
                             y_final=float(y[-1]), C_hat=c_hat, a=a,
                             bound_margin=margin, bound_ok=ok,
                             times=times, y_series=y, bound_series=bound)

    rungs = [one_rung(d) for d in deltas]
    live = [r for r in rungs if r.failed is None]

    usable = [r for r in live if r.y_final > 1e3 * NOISE_FLOOR]
    if len(usable) >= 2:
        ld = np.log([r.delta for r in usable])
        la = np.log([math.sqrt(r.y_final) for r in usable])
        beta = float(np.polyfit(ld, la, 1)[0])
    else:
        beta = float("nan")
    beta_ok = bool(0.0 < beta <= 1.0 + 5e-2) if math.isfinite(beta) \
        else False

    cs = [r.C_hat for r in usable if r.C_hat > 0]
    spread = max(cs) / min(cs) if cs else 1.0
    if cs:
        med = float(np.median(cs))
        dev = max(abs(c - med) / med for c in cs)
    else:
        dev = 0.0
    finals = [r.y_final for r in live]
    monotone = bool(finals) and \
        bool(np.all(np.diff(finals) >= -1e-12 * max(finals)))
    return StabilityReport(rungs=rungs, beta=beta, beta_ok=beta_ok,
                           C_spread=spread, C_dev=dev, monotone=monotone)
