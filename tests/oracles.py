"""Reference checks of the estimates behind the uniqueness argument.

No ``simulate``, ``certify`` or ``stability`` path runs these; the
acceptance criteria and the unit tests do.  They are:

* the Osgood comparison lemma: the envelope F(p, x) = x + p x^{1-1/p}
  with its minimizing exponent, the closed-form and ODE solutions of the
  comparison equation, and the envelope and telescoping checks;
* the boundary trace inequality for discrete-harmonic fields, read from
  the nodal consistent flux density, and the P0 interpolation
  inequality, with the L^p and W^{1,p} norms of P0 fields they use;
* the weak form of vorticity transport with entering vorticity, and the
  first-order one-sided circulation quadrature of a velocity;
* the p-growth of the elliptic W^{1,p} estimate of a reconstruction.

ODE references are integrated with an adaptive Runge-Kutta method at
tolerance 1e-10; the closed forms must dominate them everywhere.
"""

import math

import numpy as np

from euler_ss import fem
from euler_ss.certificates import P_GRID
from euler_ss.errors import PreconditionError, UsageError
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import Mesh
from euler_ss.osgood import mu
from euler_ss.transport import Trajectory

P_SWITCH = math.exp(-2.0)    # below this, p = |log x| beats p = 2


# -- comparison lemma ---------------------------------------------------


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


# -- norms of P0 fields -------------------------------------------------


def lp_norm_p0(mesh: Mesh, values: np.ndarray, p: float) -> float:
    """L^p norm of a P0 field; (T, 2) arrays use the Euclidean cell norm.

    Powers are taken of magnitudes scaled by the max, so large exponents
    cannot overflow; the scaled sum is at least one cell's area.
    """
    values = np.asarray(values, dtype=np.float64)
    mag = np.abs(values) if values.ndim == 1 else \
        np.linalg.norm(values, axis=1)
    top = float(mag.max(initial=0.0))
    if np.isinf(p) or top == 0.0:
        return top
    return top * float((mesh.tri_area @ (mag / top) ** p) ** (1.0 / p))


def w1p_seminorms_p0(mesh: Mesh, u: np.ndarray, ps) -> list[float]:
    """L^p norms of the recovered Jacobian (Frobenius per cell) of a
    (T, 2) velocity, one for every exponent of ``ps``, all read from one
    Jacobian."""
    jac = fem.velocity_gradient(mesh, u)
    mag = np.linalg.norm(jac.reshape(len(jac), 4), axis=1)
    return [float(mag.max(initial=0.0)) if np.isinf(p) else
            float((mesh.tri_area @ mag ** p) ** (1.0 / p)) for p in ps]


def interpolation_inequality(mesh: Mesh, values: np.ndarray, p: float
                             ) -> dict:
    """|w|_{2p/(p-1)} <= |w|_inf^{1/p} |w|_2^{(p-1)/p} for P0 fields
    (exact for the piecewise-constant quadrature; p > 1)."""
    if not p > 1:
        raise UsageError("interpolation inequality needs p > 1")
    q = 2.0 * p / (p - 1.0)
    lhs = lp_norm_p0(mesh, values, q)
    rhs = lp_norm_p0(mesh, values, np.inf) ** (1.0 / p) \
        * lp_norm_p0(mesh, values, 2.0) ** ((p - 1.0) / p)
    return {"lhs": lhs, "rhs": rhs,
            "satisfied": lhs <= rhs * (1 + 1e-12) + 1e-300}


# -- boundary trace inequality ------------------------------------------


def lumped_length(comp) -> np.ndarray:
    """Boundary length owned by each loop vertex of a component
    (``BoundaryComponent.nodes`` order): half of each of its two adjacent
    edges."""
    return 0.5 * (comp.length + np.roll(comp.length, 1))


def nodal_flux_density(op: fem.StiffnessOperator, field: np.ndarray,
                       load: np.ndarray, comp: int) -> np.ndarray:
    """Normal derivative of a field at the loop vertices of a component,
    in ``BoundaryComponent.nodes`` order: the nodal residual divided by
    the vertex's lumped length."""
    mesh = op.mesh
    residual = fem.boundary_residual(op, field, load[mesh.boundary_nodes])
    c = mesh.component(comp)
    return residual[np.searchsorted(mesh.boundary_nodes, c.nodes)] \
        / lumped_length(c)


def trace_inequality(op: fem.StiffnessOperator, field: np.ndarray,
                     load: np.ndarray, comp_id: int) -> dict:
    """Sharpest constant C in the normal-trace inequality

        |dfield/dn|_{-1/2,lumped}^2 <= |d_tau field|^2 + C |grad field|^2

    on one boundary component, for a discrete-harmonic field.  The left
    side ``lhs`` is the lumped dual norm sum(r_a^2 / l_a) of the nodal
    consistent flux density; ``tangential`` is the squared seminorm of
    the tangential derivative, ``energy`` the Dirichlet energy of the
    field and ``c_required`` the smallest C for which the inequality
    holds.  Harmonicity away from the boundary is a precondition: the
    relative Galerkin residual on interior nodes must be within
    10 * ``fem.DEFAULT_RTOL``.
    """
    mesh = op.mesh
    a_field = op.matrix @ field
    interior = np.setdiff1d(np.arange(mesh.num_vertices),
                            mesh.boundary_nodes)
    resid_norm = 0.0
    if interior.size:
        r = (a_field - load)[interior]
        scale = max(float(np.abs(a_field).max()),
                    float(np.abs(load).max()), 1e-300)
        resid_norm = float(np.abs(r).max()) / scale
    if resid_norm > 10.0 * fem.DEFAULT_RTOL:
        raise PreconditionError(
            f"trace inequality needs a discrete-harmonic field: interior "
            f"residual {resid_norm:.3e} exceeds 10*rtol")
    comp = mesh.component(comp_id)
    dn = nodal_flux_density(op, field, load, comp_id)
    lhs = float(np.sum(dn ** 2 * lumped_length(comp)))
    dtau = (field[comp.edges[:, 1]] - field[comp.edges[:, 0]]) / comp.length
    tangential = float(np.sum(dtau ** 2 * comp.length))
    energy = float(field @ a_field)
    return {"lhs": lhs, "tangential": tangential, "energy": energy,
            "c_required": max(0.0, lhs - tangential) / max(energy, 1e-300)}


# -- transport and reconstruction ---------------------------------------


def weak_residual(traj: Trajectory, phi: np.ndarray,
                  k0: int = 0, k1: int | None = None) -> dict:
    """Residual of the weak transport identity over [t_k0, t_k1]:

        int_t int_Omega omega u . grad(phi)
        = [int_Omega omega phi]_{t_k0}^{t_k1} + int_t int_Gamma omega phi g

    for a (V,) P1 test function ``phi``.  When it is constant on every
    boundary component the boundary integral is taken from the exact
    per-step accumulators; otherwise it is a trapezoid over the snapshots.
    """
    n = len(traj.times)
    k1 = n - 1 if k1 is None else k1
    if not 0 <= k0 <= k1 < n:
        raise UsageError(f"snapshot window ({k0}, {k1}) needs "
                         f"0 <= k0 <= k1 < {n}")
    mesh = traj.mesh
    window = range(k0, k1 + 1)
    times = traj.times[k0:k1 + 1]
    gphi = fem.gradient(mesh, phi)

    vol = np.array([float(np.einsum("t,td,td,t->", traj.omega[k],
                                    traj.velocity(k), gphi,
                                    mesh.tri_area))
                    for k in window])
    vol_int = float(np.trapezoid(vol, times))

    phi_bar = phi[mesh.triangles].mean(axis=1)

    def mass(k):
        return float((traj.omega[k] * phi_bar) @ mesh.tri_area)

    jump = mass(k1) - mass(k0)

    comp_const = []
    is_const = True
    for c in mesh.components:
        tv = phi[c.edges[:, 0]]
        if np.ptp(phi[np.unique(c.edges)]) > 1e-12 * max(
                1.0, float(np.abs(phi).max())):
            is_const = False
            break
        comp_const.append(float(tv[0]))

    if is_const:
        bdry = sum(cv * (traj.B[k1, c.comp] - traj.B[k0, c.comp])
                   for cv, c in zip(comp_const, mesh.components))
    else:
        # the prescribed boundary fluxes mult * g * length; interior
        # entries are zero, so only boundary edges carry vorticity
        bd = ~mesh.interior_edge
        pot_bd = np.where(bd, traj.flux.pot, 0.0)
        phim = 0.5 * phi[mesh.edges].sum(axis=1)
        rows = []
        for k in window:
            cf = traj.flux.vorticity_flux(
                traj.omega[k], traj.multiplier[k] * pot_bd,
                traj.scenario.inflow_trace(traj.times[k]))
            rows.append(float(cf @ phim))
        bdry = float(np.trapezoid(np.array(rows), times))

    return {"volume": vol_int, "jump": jump, "boundary": bdry,
            "residual": vol_int - jump - bdry,
            "exact_boundary": is_const}


def circulation_trace(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Per-component circulation of a (T, 2) velocity by the one-sided
    quadrature of the tangential velocity (first order)."""
    out = np.empty(len(mesh.components))
    for comp in mesh.components:
        ut = np.einsum("ed,ed->e", u[mesh.edge_left[comp.edge_ids]],
                       fem.rot90(mesh.edge_normal[comp.edge_ids]))
        out[comp.comp] = float(ut @ comp.length)
    return out


def consistent_circulations(basis: HarmonicBasis, omega: np.ndarray,
                            psi: np.ndarray) -> np.ndarray:
    """(ncomp,) consistent circulations of the stream function ``psi``
    that ``hodge.reconstruct_velocity`` returns for the (T,) vorticity
    ``omega``: its consistent fluxes paired with the stream load."""
    return fem.consistent_fluxes(basis.op, psi,
                                 -fem.p0_load_vector(basis.mesh, omega))


def edge_array(mesh: Mesh, comp_values: dict) -> np.ndarray:
    """The (E,) edge array of boundary data that holds the loop-order
    values of each named component at its ``edge_ids``, zero elsewhere."""
    out = np.zeros(len(mesh.edges))
    for cid, values in comp_values.items():
        out[mesh.component(cid).edge_ids] = values
    return out


def check_elliptic_growth(basis: HarmonicBasis, u: np.ndarray,
                          multiplier: float, omega: np.ndarray,
                          g_edges: np.ndarray | None,
                          circulations: np.ndarray) -> dict:
    """Report the p-growth of the W^{1,p} proxy of a reconstructed (T, 2)
    velocity u against p * (|omega|_p + |g|_inf * |multiplier| +
    sum|C_i|) for every p of ``P_GRID``; the flag asserts the whole
    sequence stays within twice its p = 2 value."""
    mesh = basis.mesh
    g_inf = 0.0
    if g_edges is not None:
        g_inf = float(np.abs(g_edges).max(initial=0.0)) * abs(multiplier)
    c_sum = float(np.abs(np.asarray(circulations)).sum())
    rows = []
    semis = w1p_seminorms_p0(mesh, u, P_GRID)
    for p, semi in zip(P_GRID, semis):
        up = lp_norm_p0(mesh, u, p)
        proxy = (up ** p + semi ** p) ** (1.0 / p)
        data = lp_norm_p0(mesh, omega, p) + g_inf + c_sum
        rows.append({"p": p, "proxy": proxy,
                     "ratio": proxy / (p * data) if data > 0 else np.inf})
    base = rows[0]["ratio"]
    flag = all(r["ratio"] <= 2.0 * base + 1e-300 for r in rows)
    return {"rows": rows, "bounded": flag}
