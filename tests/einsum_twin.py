"""The einsum twin, kept as a reference for ``TwinRun``'s kernels.

``EinsumTwin`` solves each snapshot's auxiliary problem on its own, as
``TwinRun`` does, and sums every integrand with ``np.einsum``, one
snapshot and one boundary component at a time, and ``loop_ledger``
builds the inequality ledger one row at a time: the formulas below are
the textbook forms of ``certificates.TwinRun``'s BLAS dots, (B, N)
boundary pass and array ledger.  Tests compare those kernels against
them.
"""

from functools import cached_property

import numpy as np

from euler_ss import fem, zaremba
from euler_ss.certificates import TwinRun, _trapz
from euler_ss.hodge import P_GRID, stream_velocity


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
        self._z_u = np.empty(len(t1))
        self.z_v = np.empty(len(t1))
        self.mult = np.array([s.assembly.multiplier for s in traj1.states])

        for k, (s1, s2) in enumerate(zip(traj1.states, traj2.states)):
            coeff_d.append(s1.assembly.psi_coeffs - s2.assembly.psi_coeffs)
            C_d.append(s1.C - s2.C)
            self.phi[:, k], self.D[:, k] = zaremba.solve_auxiliary(
                self.basis, self._psi_field(k), s1.omega - s2.omega)
            ud = self._u_d(k)
            vv = self._v(k)
            self._z_u[k] = float(np.einsum("td,td,t->", ud, ud, area))
            self.z_v[k] = float(np.einsum("td,td,t->", vv, vv, area))
        self.coeff_d, self.C_d = np.array(coeff_d), np.array(C_d)

    def _pair(self, k: int):
        return self.traj1.states[k], self.traj2.states[k]

    def _u_d(self, k: int) -> np.ndarray:
        """Difference velocity at snapshot k, one snapshot's products."""
        s1, s2 = self._pair(k)
        return s1.assembly.u - s2.assembly.u

    def _v(self, k: int) -> np.ndarray:
        """Auxiliary field grad_perp(phi) at snapshot k."""
        return stream_velocity(self.mesh, self.phi[:, k], None, None)

    def _psi_field(self, k: int) -> np.ndarray:
        """Difference stream function at snapshot k."""
        s1, s2 = self._pair(k)
        return s1.assembly.psi_total - s2.assembly.psi_total

    def _edge_density(self, field: np.ndarray, load: np.ndarray, comp
                      ) -> np.ndarray:
        dn = fem.nodal_flux_density(self.basis.op, field, load, comp.comp)
        return 0.5 * (dn + np.roll(dn, -1))

    def _hat_tau_edges(self, k: int, load: np.ndarray, comp) -> np.ndarray:
        asm = self.traj1.states[k].assembly
        dens = self._edge_density(asm.psi_total, load, comp)
        phi = self.traj1.flux.phi
        if phi is not None:
            a, b = comp.edges[:, 0], comp.edges[:, 1]
            dens = dens + asm.multiplier \
                * (phi[b] - phi[a]) / comp.length
        return dens

    @cached_property
    def _integrands(self):
        mesh = self.mesh
        area = mesh.tri_area
        rows = []
        for k in range(len(self.times)):
            s1, s2 = self._pair(k)
            ud = self._u_d(k)
            psi_d = self._psi_field(k)
            load1 = -fem.p0_load_vector(mesh, s1.omega)
            load_d = load1 + fem.p0_load_vector(mesh, s2.omega)
            phi = self.phi[:, k]
            vv = self._v(k)
            mult = self.mult[k]
            t = self.times[k]

            eb = bl = bo = bi = bp = 0.0
            for comp, g in self._flow_components():
                ut = self._edge_density(psi_d, load_d, comp)
                eb += float(np.sum(ut * ut * g * comp.length)) * mult
                if comp.role == "inflow":
                    bl += float(np.sum(ut * ut * (-g) * comp.length)) * mult
                    hat_t = self._hat_tau_edges(k, load1, comp)
                    a, b = comp.edges[:, 0], comp.edges[:, 1]
                    vn = -(phi[b] - phi[a]) / comp.length
                    bi += float(np.sum(ut * hat_t * vn * comp.length))
                    phim = 0.5 * (phi[a] + phi[b])
                    om_in = self.omega_in_diff(comp.comp, t)
                    bp += float(np.sum(phim * om_in * g * comp.length)) \
                        * mult
                elif comp.role == "outflow":
                    vt = self._edge_density(phi,
                                            np.zeros(mesh.num_vertices),
                                            comp)
                    bo += float(np.sum(ut * vt * (-g) * comp.length)) * mult

            jac_hat = fem.velocity_gradient(mesh, s1.assembly.u)
            adv_u = fem.convective_term(ud, jac_hat)
            adv_v = fem.convective_term(vv, jac_hat)
            om_hat = s1.omega
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
        for comp, _ in twin._flow_components():
            if comp.role == "inflow":
                om_in2 += max(twin.omega_in_diff(comp.comp, t) ** 2
                              for t in t_pair)
        data2 += om_in2

        lhs_e = 0.5 * (twin.z_u[k + 1] - twin.z_u[k]) \
            + _trapz(e_bdry[k:k + 2], t_pair)
        lhs_a = 0.5 * (twin.z_v[k + 1] - twin.z_v[k]) \
            + _trapz(a_bdry[k:k + 2], t_pair)
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


def snapshot_blocks(n: int, block: int | None) -> list[tuple[int, int]]:
    """Windows [k0, k1] of ``block`` snapshot intervals that tile n
    snapshots, the last one possibly shorter; one window when ``block``
    is None."""
    step = n - 1 if block is None else block
    return [(k0, min(n - 1, k0 + step)) for k0 in range(0, n - 1, step)]


def assert_matches_reference(twin: TwinRun, ref: EinsumTwin,
                             rtol: float = 1e-12,
                             block: int | None = None) -> None:
    """``TwinRun``'s kernels agree with the einsum formulas: the auxiliary
    potentials, their fluxes and both norms to the bit (each is one
    solve and one summation in both); integrands, and identity pieces
    over every window of ``snapshot_blocks(n, block)``, to ``rtol`` of
    each quantity's scale (BLAS dots round differently from
    ``np.einsum``); and the ledger exactly as the row-at-a-time ledger
    builds it from the same norms and integrands."""

    def close(got, want):
        return np.abs(np.asarray(got) - want).max() \
            <= rtol * np.abs(want).max()

    assert np.array_equal(twin.z_u, ref.z_u)
    assert np.array_equal(twin.z_v, ref.z_v)
    assert np.array_equal(twin.phi, ref.phi)
    assert np.array_equal(twin.D, ref.D)
    for family, cols in ref._integrands.items():
        for key, col in cols.items():
            assert close(twin._integrands[family][key], col), (family, key)
    for k0, k1 in snapshot_blocks(len(ref.times), block):
        for ident in ("energy_identity", "aux_identity"):
            got = getattr(twin, ident)(k0, k1)
            want = getattr(ref, ident)(k0, k1)
            scale = max(abs(v) for k, v in want.items() if k != "relative")
            for key, val in want.items():
                if key != "relative":
                    assert abs(got[key] - val) <= rtol * scale, \
                        (ident, k0, k1, key)
    assert twin.inequality_ledger() == loop_ledger(twin)
