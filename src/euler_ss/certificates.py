"""Numerical certificates for the difference of two transported flows.

Every estimate used by the uniqueness argument for bounded-vorticity flow
is realized here as a computable identity or inequality on a pair of runs
sharing one mesh and one boundary through-flow:

  * the kinetic-energy identity of the difference velocity,
  * the auxiliary-potential identity (its reversed-flow twin),
  * the Lamb-type integration-by-parts identity for velocity triples,
  * the boundary trace inequality for discrete-harmonic fields,
  * the interval ledger of the growth inequalities behind the Osgood loop,
  * the time-regularity bound for the stream coefficients.

Identity residuals are quadrature errors and must shrink under space-time
refinement; inequality rows must hold with a single empirical constant per
family.  Boundary integrands of a difference state use the tangentially
projected one-sided trace: the twins share g, so the normal trace of the
difference vanishes identically and the tangential sample is the whole
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem, hodge, zaremba
from .errors import PreconditionError, UsageError
from .mesh import Mesh
from .hodge import P_GRID
from .transport import Trajectory, snapshot_window


def _trapz(vals, times):
    return float(np.trapezoid(np.asarray(vals), np.asarray(times)))


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


def _edge_means(dn: np.ndarray) -> np.ndarray:
    """Per-edge means of loop-vertex values (edge i joins loop vertices i
    and i + 1, cyclically), for every snapshot's column."""
    out = np.empty_like(dn)
    np.add(dn[:-1], dn[1:], out=out[:-1])
    np.add(dn[-1], dn[0], out=out[-1])
    return 0.5 * out


class TwinRun:
    """Snapshot-aligned difference state of two runs on one mesh.

    Run 1 is the reference flow (the 'hat' fields of the convective
    terms); the difference is run 1 minus run 2.  Per snapshot a twin
    keeps only what defines the difference beyond the two trajectories: a
    column of the (V, N) auxiliary potentials ``phi`` and of their
    (ncomp, N) consistent fluxes ``D``, a row of the (N, m) differences
    of the stream coefficients (``coeff_d``) and of the circulations
    (``C_d``), and the squared L2 norms ``z_u`` of the difference
    velocity and ``z_v`` of the auxiliary field.  The difference fields
    are formed from the two trajectories when they are needed, one
    snapshot at a time, so a twin holds O(V) floats per snapshot and no
    cell array.
    """

    def __init__(self, traj1: Trajectory, traj2: Trajectory):
        if traj1.mesh is not traj2.mesh:
            raise UsageError("twin runs must share one mesh object")
        if traj1.basis is not traj2.basis:
            raise UsageError("twin runs must share one harmonic basis")
        if len(traj1.states) != len(traj2.states):
            raise UsageError("twin runs have different snapshot counts")
        t1 = traj1.times
        if np.abs(t1 - traj2.times).max(initial=0.0) \
                > 1e-13 * traj1.scenario.T:
            raise UsageError("twin runs have different snapshot times")
        for cid, g in traj1.flux.g_edges.items():
            if not np.array_equal(g, traj2.flux.g_edges.get(cid)):
                raise UsageError("twin runs must share the boundary data g")
        for s1, s2 in zip(traj1.states, traj2.states):
            if s1.assembly.multiplier != s2.assembly.multiplier:
                raise UsageError("twin runs must share the g multiplier")

        self.traj1 = traj1
        self.traj2 = traj2
        self.mesh: Mesh = traj1.mesh
        self.basis = traj1.basis
        self.times = t1

        s1s, s2s = traj1.states, traj2.states
        self.coeff_d = np.array([s.assembly.psi_coeffs for s in s1s]) \
            - np.array([s.assembly.psi_coeffs for s in s2s])
        self.C_d = np.array([s.C for s in s1s]) - np.array([s.C for s in s2s])
        self._z_u: np.ndarray | None = None     # built on first read
        self.mult = np.array([s.assembly.multiplier for s in s1s])

        mesh, n = self.mesh, len(t1)
        # column-major: each snapshot's potential is one contiguous column
        self.phi = np.empty((mesh.num_vertices, n), order="F")
        self.D = np.empty((len(mesh.components), n))
        self.z_v = np.empty(n)
        for k, (s1, s2) in enumerate(zip(s1s, s2s)):
            phi, self.D[:, k] = zaremba.solve_auxiliary(
                self.basis, s1.assembly.psi_total - s2.assembly.psi_total,
                s1.omega - s2.omega)
            self.phi[:, k] = phi
            self.z_v[k] = fem.sq_norm_p0(
                mesh, hodge.stream_velocity(mesh, phi, None, None))

    @property
    def z_u(self) -> np.ndarray:
        """Squared L2 norms of the difference velocity, per snapshot, built
        on first read: by the integrands pass when that comes first (the
        identities and the ledger run it before they read the norms), else
        by a velocity pass of their own."""
        if self._z_u is None:
            self._z_u = np.array([
                fem.sq_norm_p0(self.mesh, self._velocities(k)[1])
                for k in range(len(self.times))])
        return self._z_u

    # -- fields of snapshot k, formed on read ---------------------------

    def _velocities(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(T, 2) reference and difference velocities at snapshot k, from
        each run's ``assembly.u``: the bits its step read."""
        u_hat = self.traj1.states[k].assembly.u
        return u_hat, u_hat - self.traj2.states[k].assembly.u

    def _stream_loads(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows at ``Mesh.boundary_nodes`` of run 1's stream load
        -p0_load_vector(mesh, omega) at snapshot k and of the load
        difference: the bits the reconstructions solved with."""
        mesh = self.mesh
        load1, load2 = (-(mesh.boundary_vertex_cells
                          @ (traj.states[k].omega * mesh.tri_area / 3.0))
                        for traj in (self.traj1, self.traj2))
        return load1, load1 - load2

    # -- boundary data --------------------------------------------------

    def omega_in_diff(self, cid: int, t: float) -> float:
        return self.traj1.scenario.omega_in_value(cid, t) \
            - self.traj2.scenario.omega_in_value(cid, t)

    def _flow_components(self):
        for comp in self.mesh.components:
            g = self.traj1.flux.g_edges.get(comp.comp)
            if g is not None and np.any(g != 0.0):
                yield comp, g

    # -- identities -----------------------------------------------------

    @cached_property
    def _integrands(self) -> dict[str, dict[str, np.ndarray]]:
        """Per-snapshot integrands of the energy and auxiliary identities,
        keyed like the pieces those identities return.  Built on first use
        in one pass over the snapshots, with the norms ``z_u`` of the same
        velocities when those are not built yet.

        Volume terms read the velocities, the reference velocity gradient
        and the auxiliary field of one snapshot (``_volume_terms``).
        Boundary terms read only the boundary rows of three residuals: of
        the difference and reference stream functions, paired with their
        loads, and of the potential, paired with none.  Those rows are
        stacked as (B, N) arrays, one column per snapshot, and summed for
        every snapshot at once (``_boundary_terms``).
        """
        mesh, op = self.mesh, self.basis.op
        n = len(self.times)
        cols, z_u = np.empty((8, n)), np.empty(n)
        res = np.empty((3, len(mesh.boundary_nodes), n))
        for k, s1 in enumerate(self.traj1.states):
            psi1, phi = s1.assembly.psi_total, self.phi[:, k]
            load1, load_d = self._stream_loads(k)
            res[0, :, k] = fem.boundary_residual(
                op, psi1 - self.traj2.states[k].assembly.psi_total, load_d)
            res[1, :, k] = fem.boundary_residual(op, psi1, load1)
            res[2, :, k] = op.boundary_rows @ phi
            u_hat, u_d = self._velocities(k)
            z_u[k] = fem.sq_norm_p0(mesh, u_d)
            cols[[1, 5, 6], k] = _volume_terms(
                mesh.tri_area, u_d,
                hodge.stream_velocity(mesh, phi, None, None),
                fem.velocity_gradient(mesh, u_hat), s1.omega)
        cols[[0, 2, 3, 4, 7]] = self._boundary_terms(*res)
        if self._z_u is None:
            self._z_u = z_u
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
        potentials."""
        mesh, phi, mult = self.mesh, self.phi, self.mult
        eb, bl, bo, bi, bp = out = np.zeros((5, len(self.times)))
        through = self.traj1.flux.phi
        for comp, g in self._flow_components():
            cid = comp.comp
            a, b = comp.edges[:, 0], comp.edges[:, 1]
            w = g * comp.length
            # tangential trace of the difference: its stream flux density
            ut = _edge_means(fem.loop_flux_density(mesh, res_d, cid))
            e = (w @ (ut * ut)) * mult
            eb += e
            if comp.role == "inflow":
                bl -= e
                # tangential trace of the reference velocity: stream flux
                # density plus the exact tangential derivative of the
                # through-flow potential
                hat_t = _edge_means(fem.loop_flux_density(mesh, res_hat,
                                                          cid))
                if through is not None:
                    dphi = through[b] - through[a]
                    hat_t += np.multiply.outer(dphi, mult) \
                        / comp.length[:, None]
                # v . n, the exact P1 trace of the potential
                vn = -(phi[b] - phi[a]) / comp.length[:, None]
                bi += comp.length @ (ut * hat_t * vn)
                om_in = np.array([self.omega_in_diff(cid, t)
                                  for t in self.times])
                bp += (w @ (0.5 * (phi[a] + phi[b]))) * om_in * mult
            elif comp.role == "outflow":
                # v . tau is the flux density of the potential
                vt = _edge_means(fem.loop_flux_density(mesh, res_phi, cid))
                bo -= (w @ (ut * vt)) * mult
        eb *= 0.5
        return out

    def _integrals(self, family: str, k0: int, k1: int) -> dict[str, float]:
        """Trapezoid sums of one identity's integrands over [k0, k1]."""
        times = self.times[k0:k1 + 1]
        return {key: _trapz(col[k0:k1 + 1], times)
                for key, col in self._integrands[family].items()}

    def energy_identity(self, k0: int = 0, k1: int | None = None) -> dict:
        """Kinetic-energy balance of the difference velocity:

            [ 1/2 |u|_2^2 ]  +  1/2 int_t int_Gamma |u|^2 g
                             +  int_t int_Omega u . ((u . grad) uhat) = 0.

        Returns the three terms and their defect; the residual is pure
        quadrature error and must vanish under refinement.
        """
        k0, k1 = snapshot_window(len(self.times), k0, k1)
        ints = self._integrals("energy", k0, k1)
        jump = 0.5 * (self.z_u[k1] - self.z_u[k0])
        b_int, c_int = ints["boundary"], ints["convective"]
        residual = jump + b_int + c_int
        scale = max(abs(jump), abs(b_int), abs(c_int),
                    0.5 * self.z_u[k0], 0.5 * self.z_u[k1], 1e-300)
        return {"kinetic_jump": jump, "boundary": b_int,
                "convective": c_int, "residual": residual,
                "relative": abs(residual) / scale}

    def aux_identity(self, k0: int = 0, k1: int | None = None) -> dict:
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
        phi.  All boundary quadratures use the tangentially projected
        one-sided traces; v . n on the inflow components is the exact
        P1 edge trace of the potential.
        """
        k0, k1 = snapshot_window(len(self.times), k0, k1)
        times = self.times[k0:k1 + 1]
        jump = 0.5 * (self.z_v[k1] - self.z_v[k0])

        coeffs = self.coeff_d[k0:k1 + 1]                 # (K, m)
        dpsi = _dt_series(coeffs, times)
        D_in = self.D[self.basis.inner, k0:k1 + 1]       # (m, K)
        coupling = -_trapz(np.einsum("km,mk->k", dpsi, D_in), times)

        pieces = {"jump": jump, **self._integrals("aux", k0, k1),
                  "coupling": coupling}
        lhs = jump + pieces["inflow_energy"]
        rhs = (pieces["outflow_cross"] + pieces["inflow_cross"]
               + pieces["convective"] + pieces["vortical"]
               + pieces["inflow_data"] + coupling)
        residual = lhs - rhs
        scale = max(*(abs(v) for v in pieces.values()),
                    0.5 * self.z_v[k0], 0.5 * self.z_v[k1], 1e-300)
        pieces.update({"residual": residual,
                       "relative": abs(residual) / scale})
        return pieces

    # -- stream-coefficient regularity ----------------------------------

    def psi_prime_diagnostic(self, k0: int = 0, k1: int | None = None
                             ) -> dict:
        """Certify the time-regularity bound of the stream coefficients:
        |psi'|_inf <= |M^{-1}|_inf (|C'|_1 + |flux(G[omega])'|_1) holds at
        every snapshot with the same difference quotients on both sides.
        """
        k0, k1 = snapshot_window(len(self.times), k0, k1)
        times = self.times[k0:k1 + 1]
        coeffs = self.coeff_d[k0:k1 + 1]
        C = self.C_d[k0:k1 + 1]
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
        and one row per exponent p of ``hodge.P_GRID``.

        energy row:   [E]  + 1/2 int int_Gamma |u|^2 g
                          <= C p int z_u^{1-1/p}
        aux row:      [1/2 z_v] + int int_{Gin} |u|^2 (-g)
                          <= C ( int (z + p z^{1-1/p}) + data^2 dt )

        z = z_u + z_v; data^2 is the squared circulation-difference size
        plus the squared inflow-trace difference, taken as a sup over the
        interval.  Flags list rows exceeding 1.01 * C * rhs (empty by
        construction of C).
        """
        ints = self._integrands
        times, zu = self.times, self.z_u
        z = zu + self.z_v
        dt = np.diff(times)

        def trap(vals):
            """Trapezoid of each interval, with the bits of ``_trapz``."""
            return dt * (vals[1:] + vals[:-1]) / 2.0

        c2 = (self.C_d ** 2).sum(axis=1)
        data2 = np.maximum(c2[:-1], c2[1:])
        om_in2 = np.zeros(len(dt))
        for comp, _ in self._flow_components():
            if comp.role == "inflow":
                o2 = np.array([self.omega_in_diff(comp.comp, t) ** 2
                               for t in times])
                om_in2 += np.maximum(o2[:-1], o2[1:])
        data2 = data2 + om_in2

        lhs = np.column_stack([
            0.5 * np.diff(zu) + trap(ints["energy"]["boundary"]),
            0.5 * np.diff(self.z_v) + trap(ints["aux"]["inflow_energy"])])
        # one exponent at a time: a scalar power (a square root at p = 2)
        rhs_e = np.column_stack([p * trap(zu ** (1.0 - 1.0 / p))
                                 for p in P_GRID])
        rhs_a = np.column_stack([trap(z + p * z ** (1.0 - 1.0 / p))
                                 + data2 * dt for p in P_GRID])

        def family(lhs_col, rhs):
            ratio = np.maximum(lhs_col, 0.0)[:, None] / np.where(
                rhs > 0, rhs, 1.0)
            return float(np.where(rhs > 0, ratio, 0.0).max(initial=0.0))

        c_energy = family(lhs[:, 0], rhs_e)
        c_aux = family(lhs[:, 1], rhs_a)
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


def _dt_series(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Centered time differences on a snapshot series (one-sided ends)."""
    out = np.empty_like(series)
    if len(times) < 2:
        return np.zeros_like(series)
    out[0] = (series[1] - series[0]) / (times[1] - times[0])
    out[-1] = (series[-1] - series[-2]) / (times[-1] - times[-2])
    if len(times) > 2:
        span = (times[2:] - times[:-2]).reshape((-1,) + (1,)
                                                * (series.ndim - 1))
        out[1:-1] = (series[2:] - series[:-2]) / span
    return out


# -- Lamb-type identity -------------------------------------------------


def lamb_identity(mesh: Mesh, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                  curl_u: np.ndarray | None = None,
                  curl_v: np.ndarray | None = None,
                  jac_w: np.ndarray | None = None) -> dict:
    """Integration-by-parts identity for a triple of (T, 2) velocities:

        oint (u.v)(w.n) - oint (u.w)(v.n) - oint (v.w)(u.n)
          = int (u.v) div w
            - int (curl u) (v_perp . w) - int (curl v) (u_perp . w)
            - int u.((v.grad) w) - int v.((u.grad) w).

    Curls and the Jacobian of w default to the recovered discrete values;
    analytic arrays may be passed to certify the quadratures alone.  All
    boundary integrands are full one-sided cell samples.
    """
    if jac_w is None:
        jac_w = fem.velocity_gradient(mesh, w)
    if curl_u is None:
        ju = fem.velocity_gradient(mesh, u)
        curl_u = ju[:, 1, 0] - ju[:, 0, 1]
    if curl_v is None:
        jv = fem.velocity_gradient(mesh, v)
        curl_v = jv[:, 1, 0] - jv[:, 0, 1]

    area = mesh.tri_area

    def pair_normal(a_vals, b_vals, c_vals):
        """oint (a . b)(c . n)."""
        tot = 0.0
        for comp in mesh.components:
            ab = np.einsum("ed,ed->e", a_vals[comp.tri], b_vals[comp.tri])
            cn = np.einsum("ed,ed->e", c_vals[comp.tri], comp.normal)
            tot += float(np.sum(ab * cn * comp.length))
        return tot

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


# -- boundary trace inequality ------------------------------------------


@dataclass
class TraceReport:
    lhs: float            # sum of squared nodal flux density over the loop
    tangential: float     # squared tangential-derivative seminorm
    energy: float         # Dirichlet energy of the field
    c_required: float     # smallest constant making the inequality hold


def trace_inequality(op: fem.StiffnessOperator, field: np.ndarray,
                     load: np.ndarray, comp_id: int) -> TraceReport:
    """Sharpest constant C in the normal-trace inequality

        |dfield/dn|_{-1/2,lumped}^2 <= |d_tau field|^2 + C |grad field|^2

    on one boundary component, for a discrete-harmonic field.  The left
    side is the lumped dual norm sum(r_a^2 / l_a) of the nodal consistent
    flux density; harmonicity away from the boundary is a precondition.
    """
    mesh = op.mesh
    resid_norm = fem.interior_residual_norm(op, field, load)
    if resid_norm > 10.0 * fem.DEFAULT_RTOL:
        raise PreconditionError(
            f"trace inequality needs a discrete-harmonic field: interior "
            f"residual {resid_norm:.3e} exceeds 10*rtol")
    comp = mesh.component(comp_id)
    dn = fem.nodal_flux_density(op, field, load, comp_id)
    lhs = float(np.sum(dn ** 2 * comp.lumped_length))
    dtau = (field[comp.edges[:, 1]] - field[comp.edges[:, 0]]) / comp.length
    tangential = float(np.sum(dtau ** 2 * comp.length))
    energy = float(field @ (op.matrix @ field))
    c_required = max(0.0, lhs - tangential) / max(energy, 1e-300)
    return TraceReport(lhs=lhs, tangential=tangential, energy=energy,
                       c_required=c_required)


# -- interpolation inequality -------------------------------------------


def interpolation_inequality(mesh: Mesh, values: np.ndarray, p: float
                             ) -> dict:
    """|w|_{2p/(p-1)} <= |w|_inf^{1/p} |w|_2^{(p-1)/p} for P0 fields
    (exact for the piecewise-constant quadrature; p > 1)."""
    if not p > 1:
        raise UsageError("interpolation inequality needs p > 1")
    q = 2.0 * p / (p - 1.0)
    lhs = fem.lp_norm_p0(mesh, values, q)
    rhs = fem.lp_norm_p0(mesh, values, np.inf) ** (1.0 / p) \
        * fem.lp_norm_p0(mesh, values, 2.0) ** ((p - 1.0) / p)
    return {"lhs": lhs, "rhs": rhs,
            "satisfied": lhs <= rhs * (1 + 1e-12) + 1e-300}
