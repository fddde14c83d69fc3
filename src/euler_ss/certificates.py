"""Numerical certificates for the difference of two transported flows.

The estimates of the uniqueness argument for bounded-vorticity flow are
realized here as computable identities and inequalities, all but the Lamb
identity on a pair of runs sharing one mesh and one boundary through-flow,
compared row by row (snapshot k of one trajectory against snapshot k of
the other):

  * the kinetic-energy identity of the difference velocity,
  * the auxiliary-potential identity (its reversed-flow twin),
  * the Lamb-type integration-by-parts identity for velocity triples,
    given with their curls and Jacobian (``lamb_identity``), and the
    canonical triple that ``certify`` checks it on (``lamb_check``),
  * the interval ledger of the growth inequalities behind the Osgood loop,
  * the time-regularity bound for the stream coefficients.

Identity residuals are quadrature errors and must shrink under space-time
refinement; inequality rows must hold with a single empirical constant per
family, fitted by the interval rule of the Osgood ladder
(``osgood.smallest_constant`` over ``osgood.interval_trapezoid``).  The
inflow-data integrand and the twin's data term, which the ledger and the
ladder both read, read one (N, ncomp) difference of
``Scenario.inflow_trace``.  Boundary integrands of a
difference state use the tangentially projected one-sided trace: the twins
share g, so the normal trace of the difference vanishes identically and
the tangential sample is the whole trace.  Every boundary sum, of the
twin's integrands and of the Lamb identity, runs over the boundary edges
of the edge table at once (``Mesh.edge_comp`` gives each edge its
component and, through it, its role), never one component at a time.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import fem, hodge, zaremba
from .errors import PreconditionError, UsageError
from .mesh import Mesh
from .osgood import interval_trapezoid, smallest_constant
from .transport import Trajectory

# exponents of the growth ledger's rows
P_GRID = (2, 4, 8, 16, 32)


def _volume_terms(area: np.ndarray, ud: np.ndarray, v: np.ndarray,
                  jac: np.ndarray, omega_hat: np.ndarray
                  ) -> tuple[float, float, float]:
    """Volume integrands of one snapshot: the convective energy term, the
    auxiliary convective term and the vortical term, for the (T, 2)
    difference velocity ``ud``, auxiliary field ``v`` and reference
    Jacobian ``jac[t, i, d] = d_d(uhat_i)``.

    Each is a sum of BLAS dots of Jacobian entries against area-weighted
    products of velocity components: the quadratic forms are expanded by
    hand, so no convective field is formed."""
    ux, uy, vx, vy = ud[:, 0], ud[:, 1], v[:, 0], v[:, 1]
    jxx, jyy = jac[:, 0, 0], jac[:, 1, 1]
    jsym = jac[:, 0, 1] + jac[:, 1, 0]
    wx, wy = area * ux, area * uy
    mxy, myx = wx * vy, wy * vx
    # u . ((u . grad) uhat) = sum_id J_id u_i u_d
    convective = jxx @ (wx * ux) + jsym @ (wx * uy) + jyy @ (wy * uy)
    # -(u . ((v . grad) uhat) + v . ((u . grad) uhat))
    #   = -sum_id J_id (u_i v_d + v_i u_d)
    aux_convective = -(2.0 * (jxx @ (wx * vx) + jyy @ (wy * vy))
                       + jsym @ (mxy + myx))
    # omegahat u . rot90(v), rot90(v) = (-v_y, v_x)
    vortical = omega_hat @ (myx - mxy)
    return convective, aux_convective, vortical


class TwinRun:
    """Snapshot-aligned difference state of two runs on one mesh.

    Run 1 is the reference flow (the 'hat' fields of the convective
    terms); the difference is run 1 minus run 2.  Per snapshot a twin
    keeps only what defines the difference beyond the two trajectories: a
    column of the (V, N) auxiliary potentials ``phi`` and of their
    (ncomp, N) consistent fluxes ``D``, a row of the (N, m) differences
    of the stream coefficients (``coeff_d``) and of the circulations
    (``C_d``), and the squared L2 norms ``z_u`` of the difference
    velocity and ``z_v`` of the auxiliary field, with their (N - 1,)
    jumps ``dz_u`` and ``dz_v`` between consecutive snapshots, each
    formed directly by ``fem.sq_norm_jump_p0``: every balance and growth
    row reads those jumps, never a difference of two norms.  The norms
    are formed at construction, in the pass that solves the auxiliary
    potentials, as is the (N - 1,) squared data size ``data2`` of each
    interval that the growth ledger and the Osgood ladder both read.  The
    difference fields are formed from the rows of the two trajectories
    when they are needed (``traj.psi[k]``, ``traj.omega[k]``,
    ``traj.velocity(k)``, ``traj.boundary_load(k)``), one snapshot at a
    time, so a twin holds O(V) floats per snapshot and no cell array.
    The pair must share one mesh, one basis and what
    ``Scenario.twin_mismatch`` compares.
    """

    def __init__(self, traj1: Trajectory, traj2: Trajectory):
        if traj1.mesh is not traj2.mesh:
            raise UsageError("twin runs must share one mesh object")
        if traj1.basis is not traj2.basis:
            raise UsageError("twin runs must share one harmonic basis")
        mismatch = traj1.scenario.twin_mismatch(traj2.scenario)
        if mismatch is not None:
            raise UsageError(f"twin runs have different {mismatch}")

        self.traj1 = traj1
        self.traj2 = traj2
        self.mesh: Mesh = traj1.mesh
        self.basis = traj1.basis
        self.times = traj1.times

        self.coeff_d = traj1.psi_coeffs - traj2.psi_coeffs
        # (N, ncomp) difference of the inflow traces at the snapshots
        self.trace_d = traj1.scenario.inflow_trace(self.times) \
            - traj2.scenario.inflow_trace(self.times)
        self.C_d = traj1.C - traj2.C
        self.mult = traj1.multiplier

        mesh, n = self.mesh, len(self.times)
        # column-major: each snapshot's potential is one contiguous column
        self.phi = np.empty((mesh.num_vertices, n), order="F")
        self.D = np.empty((len(mesh.components), n))
        self.z_u, self.dz_u = np.empty(n), np.empty(n - 1)
        self.z_v, self.dz_v = np.empty(n), np.empty(n - 1)
        u = v = None
        for k in range(n):
            phi, self.D[:, k] = zaremba.solve_auxiliary(
                self.basis, traj1.psi[k] - traj2.psi[k],
                traj1.omega[k] - traj2.omega[k])
            self.phi[:, k] = phi
            u, prev_u = self._velocities(k)[1], u
            _store_norm(mesh, self.z_u, self.dz_u, k, u, prev_u)
            v, prev_v = hodge.stream_velocity(mesh, phi, None, None), v
            _store_norm(mesh, self.z_v, self.dz_v, k, v, prev_v)

        # the boundary edges of the components that carry any non-zero g,
        # and the role of each edge's component
        comp = mesh.edge_comp
        roles = np.array([c.role for c in mesh.components])
        flowing = np.zeros(len(roles), dtype=bool)
        flowing[comp[(comp >= 0) & (traj1.flux.g_edges != 0.0)]] = True
        self._flow = np.flatnonzero((comp >= 0) & flowing[comp])
        self._flow_role = roles[comp[self._flow]]

        # squared data size per interval: the larger end value of |C_d|^2
        # plus, per flowing inflow component, that of its trace difference
        c2 = (self.C_d ** 2).sum(axis=1)
        o2 = self.trace_d[:, flowing & (roles == "inflow")] ** 2
        self.data2 = np.maximum(c2[:-1], c2[1:]) \
            + np.maximum(o2[:-1], o2[1:]).sum(axis=1)

    # -- fields of snapshot k, formed on read ---------------------------

    def _velocities(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(T, 2) reference and difference velocities at snapshot k, from
        each run's ``velocity(k)``: the bits its step read."""
        u_hat = self.traj1.velocity(k)
        return u_hat, u_hat - self.traj2.velocity(k)

    # -- identities -----------------------------------------------------

    @cached_property
    def _integrands(self) -> dict[str, dict[str, np.ndarray]]:
        """Per-snapshot integrands of the energy and auxiliary identities,
        keyed like the pieces those identities return.  Built on first use
        in one pass over the snapshots; a twin whose identities are never
        read (a ladder rung) takes no velocity gradient.

        Volume terms read the velocities, the reference velocity gradient
        and the auxiliary field of one snapshot (``_volume_terms``).
        Boundary terms read only the boundary rows of three residuals: of
        the difference and reference stream functions, paired with the
        boundary rows of their loads (each run's ``boundary_load(k)``),
        and of the potential, paired with none.  Those rows are
        stacked as (B, N) arrays, one column per snapshot, and summed for
        every snapshot at once (``_boundary_terms``).
        """
        mesh, op = self.mesh, self.basis.op
        n = len(self.times)
        cols = np.empty((8, n))
        res = np.empty((3, len(mesh.boundary_nodes), n))
        for k in range(n):
            psi1, phi = self.traj1.psi[k], self.phi[:, k]
            load1 = self.traj1.boundary_load(k)
            res[0, :, k] = fem.boundary_residual(
                op, psi1 - self.traj2.psi[k],
                load1 - self.traj2.boundary_load(k))
            res[1, :, k] = fem.boundary_residual(op, psi1, load1)
            res[2, :, k] = op.boundary_rows @ phi
            u_hat, u_d = self._velocities(k)
            cols[[1, 5, 6], k] = _volume_terms(
                mesh.tri_area, u_d,
                hodge.stream_velocity(mesh, phi, None, None),
                fem.velocity_gradient(mesh, u_hat), self.traj1.omega[k])
        cols[[0, 2, 3, 4, 7]] = self._boundary_terms(*res)
        return {"energy": dict(zip(("boundary", "convective"), cols[:2])),
                "aux": dict(zip(("inflow_energy", "outflow_cross",
                                 "inflow_cross", "convective", "vortical",
                                 "inflow_data"), cols[2:]))}

    def _boundary_terms(self, res_d: np.ndarray, res_hat: np.ndarray,
                        res_phi: np.ndarray) -> np.ndarray:
        """(5, N) boundary integrands, in the order of ``_integrands``: the
        energy term, then the inflow-energy, outflow-cross, inflow-cross
        and inflow-data terms, from the (B, N) boundary residual rows of
        the difference and reference stream functions and of the
        potentials.  Each is one sum over the edges of the flowing
        components, or over those of the inflow or outflow ones."""
        mesh, phi, mult = self.mesh, self.phi, self.mult
        ids, inflow = self._flow, self._flow_role == "inflow"
        outflow = self._flow_role == "outflow"
        w = self.traj1.flux.g_edges[ids] * mesh.edge_length[ids]
        # tangential trace of the difference: its stream flux density
        ut = fem.edge_flux_density(mesh, res_d, ids)
        uu = ut * ut
        eb = 0.5 * (w @ uu) * mult
        bl = -(w[inflow] @ uu[inflow]) * mult

        ids_in = ids[inflow]
        a, b = mesh.edges[ids_in].T
        length = mesh.edge_length[ids_in]
        # tangential trace of the reference velocity: stream flux density
        # plus the exact tangential derivative of the through-flow
        # potential
        hat_t = fem.edge_flux_density(mesh, res_hat, ids_in)
        through = self.traj1.flux.phi
        if through is not None:
            hat_t += np.multiply.outer(through[b] - through[a], mult) \
                / length[:, None]
        # v . n, the exact P1 trace of the potential
        vn = -(phi[b] - phi[a]) / length[:, None]
        bi = length @ (ut[inflow] * hat_t * vn)
        trace = self.trace_d.T[mesh.edge_comp[ids_in]]
        bp = (w[inflow] @ (0.5 * (phi[a] + phi[b]) * trace)) * mult

        # v . tau is the flux density of the potential
        vt = fem.edge_flux_density(mesh, res_phi, ids[outflow])
        bo = -(w[outflow] @ (ut[outflow] * vt)) * mult
        return np.array([eb, bl, bo, bi, bp])

    def _integrals(self, family: str) -> dict[str, float]:
        """Trapezoid sums of one identity's integrands over the run."""
        return {key: float(interval_trapezoid(self.times, col).sum())
                for key, col in self._integrands[family].items()}

    def energy_identity(self) -> dict:
        """Kinetic-energy balance of the difference velocity:

            [ 1/2 |u|_2^2 ]  +  1/2 int_t int_Gamma |u|^2 g
                             +  int_t int_Omega u . ((u . grad) uhat) = 0.

        Returns the three terms over the whole run and their defect; the
        residual is pure quadrature error and must vanish under
        refinement.
        """
        ints = self._integrals("energy")
        jump = 0.5 * float(self.dz_u.sum())
        b_int, c_int = ints["boundary"], ints["convective"]
        residual = jump + b_int + c_int
        scale = max(abs(jump), abs(b_int), abs(c_int),
                    0.5 * self.z_u[0], 0.5 * self.z_u[-1], 1e-300)
        return {"kinetic_jump": jump, "boundary": b_int,
                "convective": c_int, "residual": residual,
                "relative": abs(residual) / scale}

    def aux_identity(self) -> dict:
        """Balance law of the auxiliary (reversed-flow) potential:

            [ 1/2 |v|_2^2 ]  +  int_t int_{Gamma_in} |u|^2 (-g)
              = int_t [ int_{Gamma_out} (u . v)(-g)
                        + int_{Gamma_in} (u . uhat)(v . n)
                        - int_Omega ( u . ((v . grad) uhat)
                                      + v . ((u . grad) uhat) )
                        + int_Omega omegahat (u . v_perp)
                        + int_{Gamma_in} phi omega_in g ]
                - int_t sum_i psi_i' D_i.

        Here u is the difference velocity, v the auxiliary field, phi its
        potential, uhat / omegahat the reference flow, psi_i the stream
        coefficients of the difference, and D_i the consistent fluxes of
        phi.  Every term is taken over the whole run.  All boundary
        quadratures use the tangentially projected one-sided traces;
        v . n on the inflow components is the exact P1 edge trace of the
        potential.
        """
        times = self.times
        jump = 0.5 * float(self.dz_v.sum())

        dpsi = _dt_series(self.coeff_d, times)           # (N, m)
        D_in = self.D[self.basis.inner]                  # (m, N)
        coupling = -float(interval_trapezoid(
            times, np.einsum("km,mk->k", dpsi, D_in)).sum())

        pieces = {"jump": jump, **self._integrals("aux"),
                  "coupling": coupling}
        lhs = jump + pieces["inflow_energy"]
        rhs = (pieces["outflow_cross"] + pieces["inflow_cross"]
               + pieces["convective"] + pieces["vortical"]
               + pieces["inflow_data"] + coupling)
        residual = lhs - rhs
        scale = max(*(abs(v) for v in pieces.values()),
                    0.5 * self.z_v[0], 0.5 * self.z_v[-1], 1e-300)
        pieces.update({"residual": residual,
                       "relative": abs(residual) / scale})
        return pieces

    # -- stream-coefficient regularity ----------------------------------

    def psi_prime_diagnostic(self) -> dict:
        """Certify the time-regularity bound of the stream coefficients:
        |psi'|_inf <= |M^{-1}|_inf (|C'|_1 + |flux(G[omega])'|_1) holds at
        every snapshot with the same difference quotients on both sides.
        """
        times, coeffs, C = self.times, self.coeff_d, self.C_d
        g0 = C - coeffs @ self.basis.M.T        # flux of the Green part
        dpsi = _dt_series(coeffs, times)
        dC = _dt_series(C, times)
        dg0 = _dt_series(g0, times)
        minv = np.linalg.inv(self.basis.M) if self.basis.num_inner \
            else np.zeros((0, 0))
        mnorm = float(np.abs(minv).sum(axis=1).max(initial=0.0))
        lhs = np.abs(dpsi).max(axis=1, initial=0.0)
        rhs = mnorm * (np.abs(dC).sum(axis=1)
                       + np.abs(dg0).sum(axis=1))
        # deadband: the quotients of a time-constant difference are pure
        # round-off and must not trip the comparison
        dt_min = float(np.diff(times).min(initial=1.0))
        size = max(float(np.abs(arr).max(initial=0.0))
                   for arr in (coeffs, C, g0))
        noise = 64 * np.finfo(np.float64).eps * (1 + mnorm) \
            * size / max(dt_min, 1e-300)
        ratio = lhs / np.maximum(rhs + noise, 1e-300)
        return {"lhs_max": float(lhs.max(initial=0.0)),
                "rhs_max": float(rhs.max(initial=0.0)),
                "noise": float(noise),
                "max_ratio": float(ratio.max(initial=0.0)),
                "satisfied": bool(np.all(lhs <= rhs * (1 + 1e-12)
                                         + noise + 1e-300))}

    # -- inequality ledger ----------------------------------------------

    def inequality_ledger(self) -> dict:
        """Per-interval, per-exponent rows of the two growth inequalities
        behind the uniqueness loop, with one empirical constant per family
        and one row per exponent p of ``P_GRID``.

        energy row:   [1/2 z_u]  + 1/2 int int_Gamma |u|^2 g
                          <= C p int z_u^{1-1/p}
        aux row:      [1/2 z_v] + int int_{Gin} |u|^2 (-g)
                          <= C ( int (z + p z^{1-1/p}) + data^2 dt )

        z = z_u + z_v; the jumps [.] read ``dz_u`` and ``dz_v``; data^2 is
        the twin's ``data2``: the squared circulation-difference size plus
        the squared inflow-trace difference, each the larger of its two
        end values on the interval.  Flags
        list rows exceeding 1.01 * C * rhs (empty by construction of C).
        """
        ints = self._integrands
        times, zu = self.times, self.z_u
        z = zu + self.z_v
        dt = np.diff(times)

        lhs = np.column_stack([
            0.5 * self.dz_u
            + interval_trapezoid(times, ints["energy"]["boundary"]),
            0.5 * self.dz_v
            + interval_trapezoid(times, ints["aux"]["inflow_energy"])])
        # one exponent at a time: a scalar power (a square root at p = 2)
        rhs_e = np.column_stack([
            p * interval_trapezoid(times, zu ** (1.0 - 1.0 / p))
            for p in P_GRID])
        rhs_a = np.column_stack([
            interval_trapezoid(times, z + p * z ** (1.0 - 1.0 / p))
            + self.data2 * dt for p in P_GRID])

        c_energy = smallest_constant(lhs[:, :1], rhs_e)
        c_aux = smallest_constant(lhs[:, 1:], rhs_a)
        flagged = (np.maximum(lhs[:, :1], 0.0) > 1.01 * c_energy * rhs_e) \
            | (np.maximum(lhs[:, 1:], 0.0) > 1.01 * c_aux * rhs_a)
        rows = [{"interval": k, "p": pk,
                 "lhs_energy": le, "rhs_energy": re_k[j],
                 "lhs_aux": la, "rhs_aux": ra_k[j]}
                for k, ((le, la), re_k, ra_k) in enumerate(
                    zip(lhs.tolist(), rhs_e.tolist(), rhs_a.tolist()))
                for j, pk in enumerate(P_GRID)]
        flags = [rows[i] for i in np.flatnonzero(flagged.ravel())]
        return {"rows": rows, "C_hat": {"energy": c_energy, "aux": c_aux},
                "flags": flags}


def _store_norm(mesh: Mesh, z: np.ndarray, dz: np.ndarray, k: int,
                field: np.ndarray, prev: np.ndarray | None) -> None:
    """Store the squared norm of snapshot k's (T, 2) ``field`` in z[k]
    and, past the first snapshot, its jump from the previous snapshot's
    ``prev`` in dz[k - 1]."""
    z[k] = fem.sq_norm_p0(mesh, field)
    if k:
        dz[k - 1] = fem.sq_norm_jump_p0(mesh, prev, field)


def _dt_series(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Centered time differences on a snapshot series (one-sided ends)."""
    out = np.empty_like(series)
    out[0] = (series[1] - series[0]) / (times[1] - times[0])
    out[-1] = (series[-1] - series[-2]) / (times[-1] - times[-2])
    span = (times[2:] - times[:-2]).reshape((-1,) + (1,) * (series.ndim - 1))
    out[1:-1] = (series[2:] - series[:-2]) / span
    return out


# -- Lamb-type identity -------------------------------------------------


def lamb_identity(mesh: Mesh, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                  curl_u: np.ndarray, curl_v: np.ndarray,
                  jac_w: np.ndarray) -> dict:
    """Integration-by-parts identity for a triple of (T, 2) velocities:

        oint (u.v)(w.n) - oint (u.w)(v.n) - oint (v.w)(u.n)
          = int (u.v) div w
            - int (curl u) (v_perp . w) - int (curl v) (u_perp . w)
            - int u.((v.grad) w) - int v.((u.grad) w).

    The (T,) curls of u and v and the (T, 2, 2) Jacobian
    ``jac_w[t, i, d] = d_d(w_i)`` are given, analytic, so the residual
    certifies the quadratures alone.  All boundary integrands are full
    one-sided cell samples.
    """
    area = mesh.tri_area
    bd = np.flatnonzero(~mesh.interior_edge)
    cells, normal = mesh.edge_left[bd], mesh.edge_normal[bd]
    length = mesh.edge_length[bd]

    def pair_normal(a_vals, b_vals, c_vals):
        """oint (a . b)(c . n), over every boundary edge at once."""
        ab = np.einsum("ed,ed->e", a_vals[cells], b_vals[cells])
        cn = np.einsum("ed,ed->e", c_vals[cells], normal)
        return float(np.sum(ab * cn * length))

    lhs = pair_normal(u, v, w) - pair_normal(u, w, v) - pair_normal(v, w, u)

    div_w = jac_w[:, 0, 0] + jac_w[:, 1, 1]
    t_div = float(np.einsum("td,td,t,t->", u, v, div_w, area))
    t_cu = -float(np.einsum("t,td,td,t->", curl_u, fem.rot90(v), w, area))
    t_cv = -float(np.einsum("t,td,td,t->", curl_v, fem.rot90(u), w, area))
    adv_v = fem.convective_term(v, jac_w)
    adv_u = fem.convective_term(u, jac_w)
    t_au = -float(np.einsum("td,td,t->", u, adv_v, area))
    t_av = -float(np.einsum("td,td,t->", v, adv_u, area))

    rhs = t_div + t_cu + t_cv + t_au + t_av
    residual = lhs - rhs
    scale = max(abs(lhs), abs(t_div), abs(t_cu), abs(t_cv), abs(t_au),
                abs(t_av), 1e-300)
    return {"lhs": lhs, "div": t_div, "curl_u": t_cu, "curl_v": t_cv,
            "conv_u": t_au, "conv_v": t_av, "rhs": rhs,
            "residual": residual, "relative": abs(residual) / scale}


def lamb_check(mesh: Mesh) -> dict:
    """``lamb_identity`` for the canonical triple on this geometry: the
    rigid rotation (curl 2), the point vortex (curl 0) and the point
    source, each sampled at the cell centroids, with the source's analytic
    Jacobian.  The triple is singular at the origin, which must lie in no
    closed triangle (``PreconditionError`` otherwise): a triangle holds it
    when the orientations cross(a, b) of the origin against its edges
    a -> b share a sign (to round-off of the vertex size)."""
    vx, vy = mesh.vertices[mesh.triangles].T        # (3, T) each
    cross = vx * np.roll(vy, -1, axis=0) - vy * np.roll(vx, -1, axis=0)
    tol = 1e-12 * float(np.abs(mesh.vertices).max()) ** 2
    if np.any((cross >= -tol).all(axis=0) | (cross <= tol).all(axis=0)):
        raise PreconditionError("lamb check needs the origin outside "
                                "the fluid")
    x, y = mesh.centroid[:, 0], mesh.centroid[:, 1]
    r2 = x * x + y * y
    u = np.column_stack([-y, x])                    # rotation, curl 2
    v = np.column_stack([-y, x]) / r2[:, None]      # vortex, curl 0
    w = np.column_stack([x, y]) / r2[:, None]       # source, div 0
    jac = np.empty((mesh.num_triangles, 2, 2))
    jac[:, 0, 0] = (y * y - x * x) / r2 ** 2
    jac[:, 0, 1] = -2 * x * y / r2 ** 2
    jac[:, 1, 0] = -2 * x * y / r2 ** 2
    jac[:, 1, 1] = (x * x - y * y) / r2 ** 2
    return lamb_identity(mesh, u, v, w, curl_u=np.full(len(x), 2.0),
                         curl_v=np.zeros(len(x)), jac_w=jac)
