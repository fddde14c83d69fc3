"""The einsum twin, kept as a reference for ``TwinRun``'s kernels.

``EinsumTwin`` solves each snapshot's auxiliary problem on its own, as
``TwinRun`` does, sums every integrand with ``np.einsum``, one snapshot
and one boundary component at a time, takes the difference velocity as
the perp-gradient of the difference stream function, forms each squared
norm as the einsum of its P0 field over the cells, and each interval's
norm jumps as the einsum of (u_{k+1} - u_k) . (u_{k+1} + u_k);
``loop_ledger`` builds the inequality ledger one row at a time from
those jumps: the formulas below are the textbook forms of
``certificates.TwinRun``'s BLAS dots, (B, N) boundary pass and array
ledger.  Tests compare those kernels against them.
"""

from functools import cached_property

import numpy as np

from euler_ss import fem, zaremba
from euler_ss.certificates import P_GRID, TwinRun
from euler_ss.hodge import stream_velocity

from oracles import nodal_flux_density


def _trapz(vals, times):
    return float(np.trapezoid(np.asarray(vals), np.asarray(times)))


def trace_diff(twin: TwinRun, cid: int, t: float) -> float:
    """The inflow-trace difference of component ``cid`` at one time."""
    return float(twin.traj1.scenario.inflow_trace(t)[cid]
                 - twin.traj2.scenario.inflow_trace(t)[cid])


def flow_components(twin: TwinRun):
    """Each boundary component that carries any non-zero g, with its g in
    loop order."""
    for comp in twin.mesh.components:
        g = twin.traj1.flux.g_edges[comp.edge_ids]
        if np.any(g != 0.0):
            yield comp, g


class EinsumTwin(TwinRun):
    """Per-snapshot auxiliary solves and einsum integrands."""

    def __init__(self, traj1, traj2):
        self.traj1 = traj1
        self.traj2 = traj2
        self.mesh = traj1.mesh
        self.basis = traj1.basis
        self.times = t1 = traj1.times
        mesh = self.mesh
        area = mesh.tri_area

        coeff_d, C_d = [], []
        self.phi = np.empty((mesh.num_vertices, len(t1)))
        self.D = np.empty((len(mesh.components), len(t1)))
        z_u, self.z_v = np.empty(len(t1)), np.empty(len(t1))
        self.mult = traj1.multiplier

        for k in range(len(t1)):
            coeff_d.append(traj1.psi_coeffs[k] - traj2.psi_coeffs[k])
            C_d.append(traj1.C[k] - traj2.C[k])
            self.phi[:, k], self.D[:, k] = zaremba.solve_auxiliary(
                self.basis, self._psi_field(k),
                traj1.omega[k] - traj2.omega[k])
            ud = self._u_d(k)
            vv = self._v(k)
            z_u[k] = float(np.einsum("td,td,t->", ud, ud, area))
            self.z_v[k] = float(np.einsum("td,td,t->", vv, vv, area))
        self.coeff_d, self.C_d = np.array(coeff_d), np.array(C_d)
        self.z_u, self.dz_u = z_u, self._jumps(self._u_d)
        self.dz_v = self._jumps(self._v)

    def _jumps(self, field) -> np.ndarray:
        """Jumps of the squared norm of ``field(k)`` over each snapshot
        interval: int (f_{k+1} - f_k) . (f_{k+1} + f_k)."""
        out = []
        for k in range(len(self.times) - 1):
            a, b = field(k), field(k + 1)
            out.append(float(np.einsum("td,td,t->", b - a, b + a,
                                       self.mesh.tri_area)))
        return np.array(out)

    def _u_d(self, k: int) -> np.ndarray:
        """Difference velocity grad_perp(psi_1 - psi_2) at snapshot k."""
        return stream_velocity(self.mesh, self._psi_field(k), None, None)

    def _v(self, k: int) -> np.ndarray:
        """Auxiliary field grad_perp(phi) at snapshot k."""
        return stream_velocity(self.mesh, self.phi[:, k], None, None)

    def _psi_field(self, k: int) -> np.ndarray:
        """Difference stream function at snapshot k."""
        return self.traj1.psi[k] - self.traj2.psi[k]

    def _edge_density(self, field: np.ndarray, load: np.ndarray, comp
                      ) -> np.ndarray:
        dn = nodal_flux_density(self.basis.op, field, load, comp.comp)
        return 0.5 * (dn + np.roll(dn, -1))

    def _hat_tau_edges(self, k: int, load: np.ndarray, comp) -> np.ndarray:
        dens = self._edge_density(self.traj1.psi[k], load, comp)
        phi = self.traj1.flux.phi
        if phi is not None:
            a, b = comp.edges[:, 0], comp.edges[:, 1]
            dens = dens + self.traj1.multiplier[k] \
                * (phi[b] - phi[a]) / comp.length
        return dens

    @cached_property
    def _integrands(self):
        mesh = self.mesh
        area = mesh.tri_area
        rows = []
        for k in range(len(self.times)):
            om_hat = self.traj1.omega[k]
            ud = self._u_d(k)
            psi_d = self._psi_field(k)
            load1 = -fem.p0_load_vector(mesh, om_hat)
            load_d = load1 + fem.p0_load_vector(mesh, self.traj2.omega[k])
            phi = self.phi[:, k]
            vv = self._v(k)
            mult = self.mult[k]
            t = self.times[k]

            eb = bl = bo = bi = bp = 0.0
            for comp, g in flow_components(self):
                ut = self._edge_density(psi_d, load_d, comp)
                eb += float(np.sum(ut * ut * g * comp.length)) * mult
                if mesh.roles()[comp.comp] == "inflow":
                    bl += float(np.sum(ut * ut * (-g) * comp.length)) * mult
                    hat_t = self._hat_tau_edges(k, load1, comp)
                    a, b = comp.edges[:, 0], comp.edges[:, 1]
                    vn = -(phi[b] - phi[a]) / comp.length
                    bi += float(np.sum(ut * hat_t * vn * comp.length))
                    phim = 0.5 * (phi[a] + phi[b])
                    om_in = trace_diff(self, comp.comp, t)
                    bp += float(np.sum(phim * om_in * g * comp.length)) \
                        * mult
                elif mesh.roles()[comp.comp] == "outflow":
                    vt = self._edge_density(phi,
                                            np.zeros(mesh.num_vertices),
                                            comp)
                    bo += float(np.sum(ut * vt * (-g) * comp.length)) * mult

            jac_hat = fem.velocity_gradient(mesh, self.traj1.velocity(k))
            adv_u = fem.convective_term(ud, jac_hat)
            adv_v = fem.convective_term(vv, jac_hat)
            rows.append((
                0.5 * eb, np.einsum("td,td,t->", ud, adv_u, area),
                bl, bo, bi,
                -float(np.einsum("td,td,t->", ud, adv_v, area)
                       + np.einsum("td,td,t->", vv, adv_u, area)),
                np.einsum("t,td,td,t->", om_hat, ud, fem.rot90(vv), area),
                bp))
        cols = np.array(rows).T
        return {"energy": dict(zip(("boundary", "convective"), cols[:2])),
                "aux": dict(zip(("inflow_energy", "outflow_cross",
                                 "inflow_cross", "convective", "vortical",
                                 "inflow_data"), cols[2:]))}


def loop_ledger(twin: TwinRun) -> dict:
    """``TwinRun.inequality_ledger`` built one row at a time."""
    rows = []
    n = len(twin.times)
    e_bdry = twin._integrands["energy"]["boundary"]
    a_bdry = twin._integrands["aux"]["inflow_energy"]
    for k in range(n - 1):
        dt = twin.times[k + 1] - twin.times[k]
        z = twin.z_u[k:k + 2] + twin.z_v[k:k + 2]
        t_pair = twin.times[k:k + 2]

        data2 = max(float(np.sum(np.asarray(twin.C_d[j]) ** 2))
                    for j in (k, k + 1))
        om_in2 = 0.0
        for comp, _ in flow_components(twin):
            if twin.mesh.roles()[comp.comp] == "inflow":
                om_in2 += max(trace_diff(twin, comp.comp, t) ** 2
                              for t in t_pair)
        data2 += om_in2

        lhs_e = 0.5 * twin.dz_u[k] + _trapz(e_bdry[k:k + 2], t_pair)
        lhs_a = 0.5 * twin.dz_v[k] + _trapz(a_bdry[k:k + 2], t_pair)
        for p in P_GRID:
            zu_pow = twin.z_u[k:k + 2] ** (1.0 - 1.0 / p)
            rhs_e = p * _trapz(zu_pow, t_pair)
            z_pow = z + p * z ** (1.0 - 1.0 / p)
            rhs_a = _trapz(z_pow, t_pair) + data2 * dt
            rows.append({"interval": k, "p": p,
                         "lhs_energy": lhs_e, "rhs_energy": rhs_e,
                         "lhs_aux": lhs_a, "rhs_aux": rhs_a})

    def family(lkey, rkey):
        ratios = [max(r[lkey], 0.0) / r[rkey] for r in rows
                  if r[rkey] > 0]
        return max(ratios, default=0.0)

    c_energy = family("lhs_energy", "rhs_energy")
    c_aux = family("lhs_aux", "rhs_aux")
    flags = [r for r in rows
             if max(r["lhs_energy"], 0.0) > 1.01 * c_energy
             * r["rhs_energy"]
             or max(r["lhs_aux"], 0.0) > 1.01 * c_aux * r["rhs_aux"]]
    return {"rows": rows, "C_hat": {"energy": c_energy, "aux": c_aux},
            "flags": flags}


def assert_matches_reference(twin: TwinRun, ref: EinsumTwin,
                             rtol: float = 1e-12) -> None:
    """``TwinRun``'s kernels agree with the einsum formulas: the auxiliary
    potentials and their fluxes to the bit (one solve in both); both
    norms and their jumps, stiffness energies of P1 fields against cell
    sums of their P0 perp-gradients, to 1e-13 of the largest norm;
    integrands and the pieces of both identities to ``rtol`` of each
    quantity's scale (BLAS dots round differently from ``np.einsum``);
    and the ledger exactly as the row-at-a-time ledger builds it from the
    same norms and integrands."""

    def close(got, want, tol=rtol, scale=None):
        scale = np.abs(want).max() if scale is None else scale
        return np.abs(np.asarray(got) - want).max() <= tol * scale

    for z, dz in (("z_u", "dz_u"), ("z_v", "dz_v")):
        norm = np.abs(getattr(ref, z)).max()
        assert close(getattr(twin, z), getattr(ref, z), 1e-13), z
        assert close(getattr(twin, dz), getattr(ref, dz), 1e-13, norm), dz
    assert np.array_equal(twin.phi, ref.phi)
    assert np.array_equal(twin.D, ref.D)
    for family, cols in ref._integrands.items():
        for key, col in cols.items():
            assert close(twin._integrands[family][key], col), (family, key)
    for ident in ("energy_identity", "aux_identity"):
        got = getattr(twin, ident)()
        want = getattr(ref, ident)()
        scale = max(abs(v) for k, v in want.items() if k != "relative")
        for key, val in want.items():
            if key != "relative":
                assert abs(got[key] - val) <= rtol * scale, (ident, key)
    assert twin.inequality_ledger() == loop_ledger(twin)
