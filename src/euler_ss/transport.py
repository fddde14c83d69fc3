"""Finite-volume vorticity transport by the reconstructed flow.

The scheme is donor-cell upwinding on the triangle mesh with edge fluxes
split into a rotational and a through-flow part:

  * the rotational part is the stream-function jump across the edge,
    F = psi_a - psi_b for the edge directed a -> b with the flux counted out
    of the left cell.  Summed around any cell the jumps telescope, so this
    part is exactly divergence free and exactly conservative; on boundary
    edges it vanishes identically because the stream trace is constant per
    component.
  * the through-flow part starts from averaged-gradient fluxes of the
    potential and is then projected onto the divergence-free constraint by
    a correction supported on interior edges (a cell-graph Laplacian solve).
    Boundary through-flow fluxes are prescribed exactly as g * length *
    multiplier, never approximated, so boundary budgets are exact.

Both parts live in one edge-indexed flux array f (counted out of the left
cell of each directed edge), and every cell sum goes through the mesh's
signed cell x edge incidence D (``Mesh.incidence``): the cell divergence of
the upwind vorticity flux is D @ (f * upwind), the positive outflux of each
cell is (|D| @ |f| + D @ f) / 2, and the projection's cell-graph Laplacian
is D D^T restricted to the interior edges.  That Laplacian and its sparse
LU factor serve one solve per g, so the equilibration builds them, solves
and lets them go; so does the Neumann solve of the potential.
The rotational part is the edge-jump product that
``hodge.reconstruct_velocity`` returns with the stream function and the
velocity, and the cell and component sums of the upwind flux are one
product with D stacked over the component x edge indicator.

The through-flow of a g, one (E,) array over ``Mesh.edges`` (the sign
check, the Neumann potential, its gradient and the equilibrated fluxes)
has one owner, ``FluxAssembler``.  ``flow_setup`` caches one per g on the
harmonic basis, so the twin and ladder runs on one basis pay for it once.

The entering vorticity is one array over the boundary components,
``Scenario.inflow_trace``: the upwind kernels read it as one ghost cell
per boundary edge, and the max-principle bounds read the inflow ones.

Time stepping is forward Euler (optionally a two-stage strong-stability
update) under a CFL cap combining the incircle-diameter travel time with a
positivity cap on the total outflux of each cell (one maximum of cell
rates, |u|^2 / d^2 and outflux / area); steps land exactly on the
snapshot times (``Scenario.snapshot_times``).  Circulations on the inner
components evolve by the boundary vorticity flux, summed per component
from the same upwind edge array that serves the vorticity budget, so the
two stay consistent to round-off.  A ``Trajectory`` holds one row per
snapshot (``traj.omega[k]``, ``traj.psi[k]``, ...); ``traj.velocity(k)``
derives the velocity that snapshot's step read and
``traj.boundary_load(k)`` the boundary rows of its stream load, from
which ``run`` forms the row's consistent circulations as it saves it.

Scenario files are strict JSON: unknown keys anywhere are errors.
``parse_scenario`` checks a document and parses each value once into a
frozen ``Scenario``: every profile is a sample table that ``np.interp``
evaluates, and a file omega0 is read and checked against the mesh then.
``perturbed`` and ``refined`` return ``dataclasses.replace`` copies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import fem, hodge
from .errors import PreconditionError, SolverError, UsageError
from .hodge import HarmonicBasis
from .mesh import INFLOW, Mesh, generate_annulus, load_mesh, uniform_refine

MAX_STEPS_PER_INTERVAL = 2_000_000


def _check_keys(d: dict, where: str, required=(), optional=()) -> None:
    if not isinstance(d, dict):
        raise UsageError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise UsageError(f"{where}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise UsageError(f"{where}: missing key(s) {missing}")


def _number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise UsageError(f"{where}: expected a number, got {x!r}")
    v = float(x)
    if not math.isfinite(v):
        raise UsageError(f"{where}: non-finite value {x!r}")
    return v


def _table(spec: dict, where: str, xkey: str):
    """Validated (x, y) sample arrays for a tabulated profile."""
    xs = spec[xkey]
    ys = spec["values"]
    if not isinstance(xs, list) or not isinstance(ys, list) \
            or len(xs) != len(ys) or len(xs) < 2:
        raise UsageError(f"{where}: '{xkey}' and 'values' must be equal-length "
                         "lists with at least two samples")
    x = np.array([_number(v, where) for v in xs])
    y = np.array([_number(v, where) for v in ys])
    if np.any(np.diff(x) <= 0):
        raise UsageError(f"{where}: '{xkey}' samples must be increasing")
    return x, y


@dataclass(frozen=True, eq=False)
class Profile:
    """A scalar profile as a sample table, linearly interpolated by
    ``np.interp``.  A constant is a one-sample table; a periodic table
    (arclength fractions, evaluated mod 1) ends with its wrap sample."""

    x: np.ndarray
    y: np.ndarray
    periodic: bool = False

    def __call__(self, x):
        return np.interp(np.mod(x, 1.0) if self.periodic else x,
                         self.x, self.y)


def _profile(spec: dict, where: str, xkey: str,
             periodic: bool = False) -> Profile:
    """The table of a constant or tabulated profile spec."""
    _check_keys(spec, where, required=("type",),
                optional=("value", xkey, "values"))
    kind = spec["type"]
    if kind == "constant":
        _check_keys(spec, where, required=("type", "value"))
        return Profile(np.zeros(1), np.array([_number(spec["value"], where)]))
    if kind != "tabulated":
        raise UsageError(f"{where}: unknown profile type {kind!r}")
    _check_keys(spec, where, required=("type", xkey, "values"))
    x, y = _table(spec, where, xkey)
    if periodic:
        if not (x[0] >= 0.0 and x[-1] <= 1.0):
            raise UsageError(f"{where}: arclength fractions must lie "
                             "in [0, 1]")
        x, y = np.append(x, x[0] + 1.0), np.append(y, y[0])
    return Profile(x, y, periodic)


def _comp_key(key, where: str) -> int:
    if isinstance(key, (int, str)) and not isinstance(key, bool):
        try:
            return int(key)
        except ValueError:
            pass
    raise UsageError(f"{where}: component keys must be integers, "
                     f"got {key!r}")


def _unique(pairs, where: str, comp: bool = False) -> dict:
    """The dict of (key, value) pairs, each key read as a component id
    if ``comp``; two keys that name one entry ("T" twice, or components
    "1" and "01") are a usage error, not a silent overwrite."""
    out = {}
    for key, val in pairs:
        key = _comp_key(key, where) if comp else key
        if key in out:
            kind = "component" if comp else "key"
            raise UsageError(f"{where}: {kind} {key!r} given twice")
        out[key] = val
    return out


def _container(doc: dict, key: str, lists: bool = False):
    """``doc[key]`` (default {}): an object, or a list if ``lists``."""
    raw = doc.get(key, {})
    if isinstance(raw, dict) or (lists and isinstance(raw, list)):
        return raw
    kinds = "an object or a list" if lists else "an object"
    raise UsageError(f"{key}: expected {kinds}, got {type(raw).__name__}")


def _path(spec: dict, where: str) -> str:
    path = spec["path"]
    if not isinstance(path, str) or not path:
        raise UsageError(f"{where}: 'path' must be a non-empty string")
    return path


def _mesh(spec, base_dir: Path) -> tuple[Mesh, tuple | None]:
    """The mesh of a spec and, for an annulus, its ``generate_annulus``
    arguments (None for a mesh file)."""
    if isinstance(spec, str):
        return load_mesh(base_dir / spec), None
    _check_keys(spec, "mesh", optional=("annulus", "path"))
    if ("annulus" in spec) == ("path" in spec):
        raise UsageError("mesh: give exactly one of 'annulus' or 'path'")
    if "path" in spec:
        return load_mesh(base_dir / _path(spec, "mesh")), None
    ann = spec["annulus"]
    _check_keys(ann, "mesh.annulus", required=("r0", "r1", "nr", "ntheta"),
                optional=("roles",))
    args = (_number(ann["r0"], "mesh.annulus.r0"),
            _number(ann["r1"], "mesh.annulus.r1"), ann["nr"], ann["ntheta"],
            ann.get("roles", ("wall", "wall")))
    return generate_annulus(*args), args


@dataclass(frozen=True, eq=False)
class Omega0:
    """Parsed initial vorticity: ``cells`` read from a file (read-only,
    one value per cell), or ``background`` with ``value`` on the band
    r0 <= |x| <= r1 of ``band`` = (r0, r1, value), None for a constant."""

    background: float = 0.0
    band: tuple[float, float, float] | None = None
    cells: np.ndarray | None = None


def _omega0(spec: dict, base_dir: Path, num_cells: int) -> Omega0:
    """The parsed omega0 spec.  A band needs r0 <= r1, and a file one
    value per cell of the mesh, each finite."""
    _check_keys(spec, "omega0", required=("type",),
                optional=("value", "r0", "r1", "background", "path"))
    kind = spec["type"]
    if kind == "constant":
        _check_keys(spec, "omega0", required=("type", "value"))
        return Omega0(_number(spec["value"], "omega0.value"))
    if kind == "annular_band":
        _check_keys(spec, "omega0", required=("type", "r0", "r1", "value"),
                    optional=("background",))
        band = tuple(_number(spec[k], f"omega0.{k}")
                     for k in ("r0", "r1", "value"))
        if band[0] > band[1]:
            raise UsageError(f"omega0: band needs r0 <= r1, got "
                             f"r0={band[0]}, r1={band[1]}")
        return Omega0(_number(spec.get("background", 0.0),
                              "omega0.background"), band)
    if kind != "file":
        raise UsageError(f"omega0: unknown type {kind!r}")
    _check_keys(spec, "omega0", required=("type", "path"))
    path = base_dir / _path(spec, "omega0")
    try:
        cells = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read omega0 file {path}: {exc}") from None
    if cells.shape != (num_cells,):
        raise UsageError(f"omega0 file: expected {num_cells} cell values, "
                         f"got {cells.shape}")
    if not np.isfinite(cells).all():
        raise UsageError(f"omega0 file: non-finite value in cell "
                         f"{int(np.flatnonzero(~np.isfinite(cells))[0])}")
    cells.setflags(write=False)
    return Omega0(cells=cells)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed simulation setup (``parse_scenario``).  It is immutable:
    ``perturbed`` and ``refined`` return ``dataclasses.replace`` copies,
    which share every value they do not change.  A perturbed copy holds
    its shifted values, so whatever reads its omega0 or omega_in reads
    the perturbation."""

    mesh: Mesh
    annulus: tuple | None          # generate_annulus arguments, or None
    T: float
    cfl: float
    snapshots: int
    scheme: str
    g: dict[int, Profile]          # per flow component, in arclength s
    g_multiplier: Profile          # in time; the constant 1 when absent
    omega0: Omega0
    omega_in: dict[int, Profile]   # per inflow component, in time
    C0: dict[int, float]

    def refined(self, factor: int = 2) -> "Scenario":
        """The same scenario on a mesh refined by ``factor`` (a power of 2).

        The CFL cap scales the time step with the mesh, so this refines
        space and time together.  An annulus is regenerated, a mesh file
        refined by midpoints; a per-cell omega0 file fits one mesh only.
        """
        if factor < 1 or factor & (factor - 1):
            raise UsageError("refinement factor must be a power of two")
        if self.omega0.cells is not None:
            raise UsageError("omega0: a per-cell file cannot be refined")
        if self.annulus is not None:
            r0, r1, nr, ntheta, roles = self.annulus
            ann = (r0, r1, nr * factor, ntheta * factor, roles)
            return replace(self, mesh=generate_annulus(*ann), annulus=ann)
        mesh = self.mesh
        for _ in range(factor.bit_length() - 1):
            mesh = uniform_refine(mesh)
        return replace(self, mesh=mesh)

    @property
    def snapshot_times(self) -> np.ndarray:
        """The times k * T / snapshots, k = 0..snapshots, at which a run
        saves its snapshots (and which a twin pair must share)."""
        return np.array([k * self.T / self.snapshots
                         for k in range(self.snapshots + 1)])

    def twin_mismatch(self, other: "Scenario") -> str | None:
        """What a twin of runs of this scenario and ``other`` (on one mesh)
        finds different first, in words ("T (0.5 and 0.6)"), or None: T
        to 1e-13 T, snapshot count, g, g multiplier on [0, T] (exactly: at
        the snapshots and at each sample time of either table)."""
        if abs(self.T - other.T) > 1e-13 * self.T:
            return f"T ({self.T!r} and {other.T!r})"
        if self.snapshots != other.snapshots:
            return (f"snapshot counts ({self.snapshots} and "
                    f"{other.snapshots})")
        if not np.array_equal(self.g_edges(), other.g_edges()):
            return "boundary data g"
        knots = np.concatenate([self.g_multiplier.x, other.g_multiplier.x])
        times = np.union1d(self.snapshot_times, np.clip(knots, 0.0, self.T))
        if not np.array_equal(self.g_multiplier(times),
                              other.g_multiplier(times)):
            return "g multipliers on [0, T]"
        return None

    # -- data on a mesh -------------------------------------------------

    def g_edges(self) -> np.ndarray:
        """The (E,) boundary data over ``Mesh.edges`` at unit multiplier:
        each flow component's profile at its edge midpoints, in loop order
        at its ``edge_ids``, and zero on interior and wall edges."""
        out = np.zeros(len(self.mesh.edges))
        for cid, prof in self.g.items():
            comp = self.mesh.component(cid)
            s = (np.cumsum(comp.length) - 0.5 * comp.length) \
                / comp.total_length
            out[comp.edge_ids] = prof(s)
        return out

    def multiplier(self, t: float) -> float:
        return float(self.g_multiplier(t))

    def inflow_trace(self, t) -> np.ndarray:
        """The entering vorticity of every boundary component, zero off the
        inflow ones: (ncomp,) at one time t, (N, ncomp) at an array of N."""
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros(t.shape + (len(self.mesh.components),))
        for cid, prof in self.omega_in.items():
            out[..., cid] = prof(t)
        return out

    def initial_omega(self) -> np.ndarray:
        mesh, w = self.mesh, self.omega0
        if w.cells is not None:
            return w.cells.copy()
        vals = np.full(mesh.num_triangles, w.background)
        if w.band is not None:
            r0, r1, value = w.band
            r = np.linalg.norm(mesh.centroid, axis=1)
            vals[(r >= r0) & (r <= r1)] = value
        return vals

    def initial_C(self) -> np.ndarray:
        return np.array([self.C0.get(c.comp, 0.0)
                         for c in self.mesh.components[1:]])

    def perturbed(self, **delta) -> "Scenario":
        """Copy with additive perturbations: C0={comp: dC}, omega0=dw
        (constant shift), omega_in={comp: dw}.  The copy holds the
        shifted values: dw is added to omega0's background, band value
        and cells, and to the samples of each shifted omega_in table.  A
        C0 shift names an inner component, an omega_in shift an inflow
        component; any other id, and any shift that is not a finite
        number, is a usage error."""
        C0 = dict(self.C0)
        inner = {c.comp for c in self.mesh.components[1:]}
        for cid, dv in delta.get("C0", {}).items():
            if cid not in inner:
                raise UsageError(f"C0: component {cid} is not an inner "
                                 "component")
            C0[cid] = C0.get(cid, 0.0) + _number(dv, f"C0[{cid}] shift")
        w = self.omega0
        if "omega0" in delta:
            dw = _number(delta["omega0"], "omega0 shift")
            band, cells = w.band, w.cells
            if band is not None:
                band = (band[0], band[1], band[2] + dw)
            if cells is not None:
                with np.errstate(over="ignore"):    # inf: run rejects it
                    cells = cells + dw
                cells.setflags(write=False)
            w = Omega0(w.background + dw, band, cells)
        omega_in = dict(self.omega_in)
        for cid, dv in delta.get("omega_in", {}).items():
            if cid not in self.omega_in:
                raise UsageError(f"omega_in: component {cid} is not an "
                                 "inflow component")
            prof, dv = omega_in[cid], _number(dv, f"omega_in[{cid}] shift")
            with np.errstate(over="ignore"):    # inf: run rejects it
                omega_in[cid] = Profile(prof.x, prof.y + dv, prof.periodic)
        return replace(self, C0=C0, omega0=w, omega_in=omega_in)


def parse_scenario(doc: dict, base_dir: Path | str = ".") -> Scenario:
    """Check a scenario document and parse each of its values once; the
    mesh and omega0 files it names are read relative to ``base_dir``."""
    base_dir = Path(base_dir)
    _check_keys(doc, "scenario",
                required=("mesh", "omega0", "T", "cfl", "snapshots"),
                optional=("g", "g_multiplier", "omega_in", "C0", "scheme"))
    mesh, annulus = _mesh(doc["mesh"], base_dir)

    T = _number(doc["T"], "T")
    if T <= 0:
        raise UsageError("T must be positive")
    cfl = _number(doc["cfl"], "cfl")
    if not 0 < cfl <= 1:
        raise UsageError("cfl must lie in (0, 1]")
    snapshots = doc["snapshots"]
    if isinstance(snapshots, bool) or not isinstance(snapshots, int) \
            or snapshots < 1:
        raise UsageError("snapshots must be a positive integer")
    scheme = doc.get("scheme", "euler")
    if scheme not in ("euler", "rk2"):
        raise UsageError(f"unknown scheme {scheme!r} "
                         "(expected 'euler' or 'rk2')")

    roles = mesh.roles()
    raw_g = _container(doc, "g", lists=True)
    if isinstance(raw_g, list):
        pairs = []
        for item in raw_g:
            if not isinstance(item, dict) or "comp" not in item:
                raise UsageError("g: list entries need a 'comp' key")
            item = {**item}
            pairs.append((item.pop("comp"), item))
    else:
        pairs = raw_g.items()
    g: dict[int, Profile] = {}
    for cid, spec in _unique(pairs, "g", comp=True).items():
        if cid not in roles:
            raise UsageError(f"g: no boundary component {cid}")
        if roles[cid] == "wall":
            raise UsageError(f"g: component {cid} is a wall; boundary "
                             "data belongs on inflow/outflow components")
        g[cid] = _profile(spec, f"g[{cid}]", "s", periodic=True)
    for cid, role in roles.items():
        if role != "wall" and cid not in g:
            raise UsageError(f"g: component {cid} has role "
                             f"{role!r} but no boundary data")

    g_multiplier = Profile(np.zeros(1), np.ones(1))
    if "g_multiplier" in doc:
        g_multiplier = _profile(doc["g_multiplier"], "g_multiplier",
                                "times")
        if g_multiplier.y.min() < 0:
            raise UsageError("g_multiplier must be nonnegative "
                             "(a sign change would swap the roles)")

    omega0 = _omega0(doc["omega0"], base_dir, mesh.num_triangles)

    omega_in: dict[int, Profile] = {}
    for cid, spec in _unique(_container(doc, "omega_in").items(),
                             "omega_in", comp=True).items():
        if cid not in roles:
            raise UsageError(f"omega_in: no boundary component {cid}")
        if roles[cid] != "inflow":
            raise UsageError(f"omega_in: component {cid} is not an "
                             "inflow component")
        omega_in[cid] = _profile(spec, f"omega_in[{cid}]", "times")
    for cid, role in roles.items():
        if role == "inflow" and cid not in omega_in:
            raise UsageError(f"omega_in: inflow component {cid} "
                             "needs trace data")

    C0: dict[int, float] = {}
    for cid, val in _unique(_container(doc, "C0").items(), "C0",
                            comp=True).items():
        if cid not in roles or cid == 0:
            raise UsageError(f"C0: component {cid} is not an inner "
                             "component")
        C0[cid] = _number(val, f"C0[{cid}]")

    sc = Scenario(mesh=mesh, annulus=annulus, T=T, cfl=cfl,
                  snapshots=snapshots, scheme=scheme, g=g,
                  g_multiplier=g_multiplier, omega0=omega0,
                  omega_in=omega_in, C0=C0)
    if np.any(np.diff(sc.snapshot_times) <= 0):
        raise UsageError(f"T = {T!r} is too small for {snapshots} "
                         "snapshots: the times k*T/snapshots must increase")
    return sc


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        # a key given twice in any object is an error, not the last value
        doc = json.loads(path.read_text(), object_pairs_hook=lambda pairs:
                         _unique(pairs, f"scenario {path}"))
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read scenario {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario {path} is not valid JSON: {exc}") \
            from None
    return parse_scenario(doc, base_dir=path.parent)


# -- edge fluxes --------------------------------------------------------


class FluxAssembler:
    """The through-flow of one (E,) g on one basis and the edge fluxes of
    its runs: g checked against the sign condition, its unit-multiplier
    Neumann potential ``phi`` and ``phi_grad`` (None when nothing flows),
    and the equilibrated fluxes ``pot``.  Every cell and component sum is
    an incidence product; the Neumann and cell-graph factors are released
    after their one solve."""

    def __init__(self, basis: HarmonicBasis, g_edges: np.ndarray):
        mesh = basis.mesh
        self.mesh = mesh
        self.g_edges = g_edges
        self.phi: np.ndarray | None = None
        self.phi_grad: np.ndarray | None = None
        if np.any(g_edges != 0.0):
            hodge.validate_sign_condition(mesh, g_edges)
            self.phi = fem.solve_neumann(basis.op, g_edges)
            self.phi_grad = fem.gradient(mesh, self.phi)
        self.D = mesh.incidence
        self.abs_D = abs(self.D)
        # squared inverse incircle diameters and halved inverse areas: the
        # CFL rates of each cell are products with these (the half is a
        # power of two, so it moves no bit of the rate)
        self.inv_d2 = mesh.incircle_diameter ** -2
        self.half_inv_area = 0.5 / mesh.tri_area
        # the cell across each edge; boundary edge bd[i] faces ghost cell
        # T + i, which holds the inflow trace of its component comp_of[i]
        bd = np.flatnonzero(mesh.edge_comp >= 0)
        self.ghost_comp = comp_of = mesh.edge_comp[bd]
        self.far = mesh.edge_right.copy()
        self.far[bd] = mesh.num_triangles + np.arange(len(bd))
        # cell sums (D) stacked over per-component boundary sums: one
        # product gives both rows of ``upwind_rates``
        comp_edges = sp.csr_matrix(
            (np.ones(len(bd)), (comp_of, bd)),
            shape=(len(mesh.components), len(mesh.edges)))
        self.rate_rows = sp.vstack([self.D, comp_edges], format="csr")
        # through-flow fluxes at unit multiplier: exactly g * length on the
        # boundary; inside, g's zeros until the equilibration replaces them
        self.pot = g_edges * mesh.edge_length
        self.div_defect = 0.0
        if self.phi_grad is not None:
            self._equilibrate_potential_fluxes()
        # shared by every run of this g on the basis
        self.pot.setflags(write=False)

    def _equilibrate_potential_fluxes(self) -> None:
        """Averaged-gradient interior fluxes corrected to make every cell
        exactly divergence free against the prescribed boundary fluxes."""
        mesh = self.mesh
        gv = self.phi_grad
        ids = np.flatnonzero(mesh.interior_edge)
        n = mesh.edge_normal[ids]
        ln = mesh.edge_length[ids]
        self.pot[ids] = 0.5 * np.einsum(
            "ed,ed->e", gv[mesh.edge_left[ids]] + gv[mesh.edge_right[ids]],
            n) * ln
        # the cell-graph Laplacian D_int D_int^T of the interior edges
        D_int = mesh.incidence[:, ids].tocsr()
        y = fem.solve_mean_zero((D_int @ D_int.T).tocsr(),
                                -(self.D @ self.pot))
        self.pot[ids] += D_int.T @ y
        self.div_defect = float(np.abs(self.D @ self.pot).max())

    def fluxes(self, jumps: np.ndarray, multiplier: float) -> np.ndarray:
        """Edge fluxes out of the left cell of a reconstructed flow: its
        stream jumps psi_a - psi_b plus multiplier * pot, which is exactly
        multiplier * g * length on boundary edges (their jump is zero)."""
        return jumps + multiplier * self.pot

    def stable_dt(self, u: np.ndarray, f: np.ndarray, cfl: float) -> float:
        """cfl times the shortest of two times over all cells: the travel
        time d / |u| across the incircle diameter d, and the time
        area / outflux in which the positive outflux empties the cell.
        Infinite when nothing moves; a SolverError when a rate overflows
        float64 or is NaN."""
        with np.errstate(over="ignore"):
            sq = u * u
            adv2 = float(np.max((sq[:, 0] + sq[:, 1]) * self.inv_d2))
            outflux2 = self.abs_D @ np.abs(f) + self.D @ f
            rates = (math.sqrt(adv2),
                     float(np.max(outflux2 * self.half_inv_area)))
        if not all(r < math.inf for r in rates):    # inf or NaN
            raise SolverError("velocity overflow: the CFL rate of the flow "
                              "exceeds the float64 range")
        rate = max(rates)
        return cfl / rate if rate > 0 else math.inf

    def vorticity_flux(self, omega: np.ndarray, f: np.ndarray,
                       trace: np.ndarray) -> np.ndarray:
        """Upwind edge fluxes of vorticity: f times the cell value upwind
        of each edge, the ghost value ``trace[c]`` of the (ncomp,) inflow
        trace (``Scenario.inflow_trace``) on boundary edges of component c
        that carry flow into the fluid."""
        upwind = np.where(f >= 0, self.mesh.edge_left, self.far)
        return f * np.concatenate([omega, trace[self.ghost_comp]])[upwind]

    def upwind_rates(self, omega: np.ndarray, f: np.ndarray,
                     trace: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cell divergence of the upwind vorticity flux, boundary outflux
        rate per component).  d(omega)/dt = -div/area; dC_i/dt = -rate_i."""
        sums = self.rate_rows @ self.vorticity_flux(omega, f, trace)
        nt = self.mesh.num_triangles
        return sums[:nt], sums[nt:]


def flow_setup(basis: HarmonicBasis, g_edges: np.ndarray) -> FluxAssembler:
    """The ``FluxAssembler`` of the (E,) ``g_edges``, cached on the basis
    by its bytes: the runs of a ladder or a twin pair share it."""
    g_edges = fem.edge_data(basis.mesh, g_edges)
    key = g_edges.tobytes()
    if key not in basis.flows:
        basis.flows[key] = FluxAssembler(basis, g_edges)
    return basis.flows[key]


# -- time integration ---------------------------------------------------


class Trajectory:
    """The snapshots of one run as arrays, one row per snapshot, which
    ``run`` fills as it saves each one.  The velocity of a snapshot and
    the boundary rows of its stream load are derived on read
    (``velocity``, ``boundary_load``); no load is kept."""

    def __init__(self, scenario: Scenario, basis: HarmonicBasis,
                 flux: FluxAssembler):
        self.scenario = scenario
        self.mesh = mesh = basis.mesh
        self.basis = basis
        self.flux = flux               # the through-flow: g, phi, fluxes
        n, m = scenario.snapshots + 1, basis.num_inner
        ncomp = len(mesh.components)
        self.times = np.empty(n)
        self.omega = np.empty((n, mesh.num_triangles))  # cell vorticity
        self.C = np.empty((n, m))                # inner circulations
        self.B = np.empty((n, ncomp))   # cumulative boundary vorticity flux
        self.psi = np.empty((n, mesh.num_vertices))     # stream function
        self.psi_coeffs = np.empty((n, m))       # its harmonic constants
        self.multiplier = np.empty(n)            # of the through-flow
        # consistent-flux circulation of every component (column 0 is the
        # diagnosed outer one)
        self.circulations = np.empty((n, ncomp))
        self.energy = np.empty(n)                # kinetic
        self.dt = np.empty(n)           # of the step landing on it, 0 first
        self.max_principle_defect = 0.0
        self.budget_defect = 0.0
        self.total_steps = 0

    def velocity(self, k: int) -> np.ndarray:
        """The (T, 2) velocity of snapshot k, to the bit the one its step
        read."""
        return hodge.stream_velocity(self.mesh, self.psi[k],
                                     self.multiplier[k], self.flux.phi_grad)

    def boundary_load(self, k: int) -> np.ndarray:
        """Rows at ``Mesh.boundary_nodes`` of snapshot k's stream load
        -p0_load_vector(mesh, omega[k]), to the bit the rows of the load
        its reconstruction solved with."""
        mesh = self.mesh
        return -(mesh.boundary_vertex_cells
                 @ (self.omega[k] * mesh.tri_area / 3.0))


def run(scenario: Scenario, basis: HarmonicBasis | None = None) -> Trajectory:
    """Integrate a scenario and return its snapshot trajectory."""
    mesh = scenario.mesh
    basis = basis if basis is not None else HarmonicBasis(mesh)
    if basis.mesh is not mesh:
        raise UsageError("basis was assembled on a different mesh")

    flux = flow_setup(basis, scenario.g_edges())

    omega = scenario.initial_omega()
    if np.any(~np.isfinite(omega)):
        raise PreconditionError("initial vorticity contains non-finite "
                                "values")
    if not all(np.isfinite(p.y).all() for p in scenario.omega_in.values()):
        raise PreconditionError("entering vorticity contains non-finite "
                                "values")
    # a finite field whose mass overflows would make every row NaN
    with np.errstate(over="ignore"):
        mass = float(np.abs(omega) @ mesh.tri_area)
    if not math.isfinite(mass):
        raise SolverError("vorticity overflow: the vorticity mass of "
                          "omega0 exceeds the float64 range")
    C = scenario.initial_C()
    B = np.zeros(len(mesh.components))
    inflow = flux.ghost_comp[mesh.edge_role[mesh.edge_comp >= 0] == INFLOW]

    bound_lo = float(omega.min(initial=np.inf))
    bound_hi = float(omega.max(initial=-np.inf))

    def assemble(om, circ, t):
        """The multiplier at t, then the stream function, its harmonic
        coefficients, the velocity and the edge jumps of (om, circ)."""
        mult = scenario.multiplier(t)
        return (mult, *hodge.reconstruct_velocity(
            basis, om, circ, multiplier=mult, phi_grad=flux.phi_grad))

    traj = Trajectory(scenario, basis, flux)

    def save(k, t, dt_last):
        traj.times[k] = t
        traj.omega[k] = omega
        traj.C[k] = C
        traj.B[k] = B
        traj.psi[k] = psi
        traj.psi_coeffs[k] = coeffs
        traj.multiplier[k] = mult
        # the potential part contributes exactly zero circulation
        # (telescoping tangential P1 trace), so the stream flux is the
        # whole consistent circulation
        traj.circulations[k] = basis.op.boundary_indicator @ \
            fem.boundary_residual(basis.op, psi, traj.boundary_load(k))
        traj.energy[k] = 0.5 * fem.sq_norm_p0(mesh, u)
        traj.dt[k] = dt_last

    mult, psi, coeffs, u, jumps = assemble(omega, C, 0.0)
    save(0, 0.0, 0.0)
    t = 0.0
    rk2 = scenario.scheme == "rk2"

    for k, t_next in enumerate(scenario.snapshot_times[1:].tolist(), 1):
        steps_left = MAX_STEPS_PER_INTERVAL
        while t < t_next:
            f = flux.fluxes(jumps, mult)
            dt = flux.stable_dt(u, f, scenario.cfl)
            landed = t_next - t <= dt
            dt = min(dt, t_next - t)
            if not (dt > 0 and math.isfinite(dt)):
                raise SolverError(f"non-positive time step {dt!r} at "
                                  f"t = {t:.6g}")
            # at this dt the steps left miss t_next (the last one must land)
            if t_next - t > dt * steps_left:
                raise SolverError(
                    f"time step collapsed: dt = {dt:.3e} at t = {t:.6g} "
                    f"needs more than {MAX_STEPS_PER_INTERVAL} steps")
            steps_left -= 1

            t1 = t_next if landed else t + dt
            if t1 == t:
                raise SolverError(f"time step collapsed: dt = {dt:.3e} "
                                  f"leaves t = {t:.6g} where it is")
            traces = scenario.inflow_trace([t, t1] if rk2 else [t])
            # a vorticity flux that overflows float64 turns into inf or NaN
            # in this block, not a numpy warning, and the check stops it
            with np.errstate(over="ignore", invalid="ignore"):
                div, rates = flux.upwind_rates(omega, f, traces[0])
                mass_before = float(omega @ mesh.tri_area)
                if rk2:
                    om1 = omega - dt * div / mesh.tri_area
                    C1 = C - dt * rates[1:]
                    mult1, _, _, _, jumps1 = assemble(om1, C1, t1)
                    f2 = flux.fluxes(jumps1, mult1)
                    div2, rates2 = flux.upwind_rates(om1, f2, traces[1])
                    omega = 0.5 * (omega + om1 - dt * div2 / mesh.tri_area)
                    rate_eff = 0.5 * (rates + rates2)
                else:
                    omega = omega - dt * div / mesh.tri_area
                    rate_eff = rates
                C = C - dt * rate_eff[1:]
                B = B + dt * rate_eff
                mass_after = float(omega @ mesh.tri_area)
                bd = abs(mass_after - mass_before + dt * rate_eff.sum())
                scale = max(1.0, abs(mass_before), abs(dt * rate_eff).sum())
            if not (math.isfinite(bd) and np.isfinite(B).all()):
                raise SolverError(f"vorticity overflow at t = {t:.6g}: the "
                                  "vorticity flux exceeds the float64 range")

            bound_lo = float(traces[:, inflow].min(initial=bound_lo))
            bound_hi = float(traces[:, inflow].max(initial=bound_hi))
            traj.max_principle_defect = max(
                traj.max_principle_defect,
                float(omega.max(initial=-np.inf)) - bound_hi,
                bound_lo - float(omega.min(initial=np.inf)))
            traj.budget_defect = max(traj.budget_defect, bd / scale)

            t = t1
            traj.total_steps += 1
            mult, psi, coeffs, u, jumps = assemble(omega, C, t)

        save(k, t, dt)

    return traj


# -- diagnostics --------------------------------------------------------


def kelvin_consistency(traj: Trajectory) -> float:
    """Max discrepancy between the transported circulations and the
    boundary-flux accumulators (identical code path; round-off only)."""
    drift = traj.C - (traj.C[0] - traj.B[:, 1:])
    scale = np.maximum(1.0, np.abs(traj.C).max(axis=1, initial=0.0))
    return float((np.abs(drift).max(axis=1, initial=0.0) / scale)
                 .max(initial=0.0))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Snapshot table: time, per-component circulations (component 0 is
    the diagnosed outer value), vorticity mass and range, kinetic energy,
    last step size.  Full 17-digit precision."""
    ncomp = len(traj.mesh.components)
    cols = ["t"] + [f"C_{c}" for c in range(ncomp)] \
        + ["vort_mass", "vort_min", "vort_max", "energy", "dt"]
    lines = [",".join(cols)]
    area = traj.mesh.tri_area
    for k, w in enumerate(traj.omega):
        row = [traj.times[k], *traj.circulations[k], float(w @ area),
               w.min(), w.max(), traj.energy[k], traj.dt[k]]
        lines.append(",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
