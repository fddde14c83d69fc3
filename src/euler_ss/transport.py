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
is D D^T restricted to the interior edges.  That Laplacian, its interior
columns and its sparse LU factor belong to the mesh (``Mesh.cell_graph``).
The rotational part is the reconstruction's own edge-jump product
(``VelocityAssembly.edge_jumps``), and the cell and component sums of the
upwind flux are one product with D stacked over the component x edge
indicator.

The through-flow of a g (the sign check, the Neumann potential, its
gradient and the equilibrated fluxes) has one owner, ``FluxAssembler``.
``flow_setup`` caches one per g on the harmonic basis, so the twin and
ladder runs on one basis pay for it once.

Time stepping is forward Euler (optionally a two-stage strong-stability
update) under a CFL cap combining the incircle-diameter travel time with a
positivity cap on the total outflux of each cell (one maximum of cell
rates, |u|^2 / d^2 and outflux / area); steps land exactly on the
requested snapshot times.  Circulations on the inner components evolve by
the boundary vorticity flux, summed per component from the same upwind
edge array that serves the vorticity budget, so the two stay consistent to
round-off.

Scenario files are strict JSON: unknown keys anywhere are errors.
``parse_scenario`` checks a document and parses each value once into a
frozen ``Scenario``: every profile is a sample table that ``np.interp``
evaluates, and a file omega0 is read then.  ``perturbed`` and ``refined``
return ``dataclasses.replace`` copies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import fem, hodge
from .errors import PreconditionError, SolverError, UsageError
from .fem import ScalarFieldP1, VelocityP0, VorticityP0
from .hodge import HarmonicBasis, VelocityAssembly
from .mesh import Mesh, generate_annulus, load_mesh, uniform_refine

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
    if isinstance(spec, dict) and "profile" in spec and "type" not in spec:
        spec = {**spec}
        spec["type"] = spec.pop("profile")
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


def _omega0(spec: dict, base_dir: Path) -> Omega0:
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
    cells.setflags(write=False)
    return Omega0(cells=cells)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed simulation setup (``parse_scenario``).  It is immutable:
    ``perturbed`` and ``refined`` return ``dataclasses.replace`` copies,
    which share every value they do not change."""

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
    # additive shifts of a perturbed copy (see ``perturbed``)
    omega0_shift: float = 0.0
    omega_in_shift: dict[int, float] = field(default_factory=dict)

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

    # -- data on a mesh -------------------------------------------------

    def g_edges(self) -> dict[int, np.ndarray]:
        """Per-edge boundary data at unit multiplier."""
        out = {}
        for cid, prof in self.g.items():
            comp = self.mesh.component(cid)
            s = (np.cumsum(comp.length) - 0.5 * comp.length) \
                / comp.total_length
            out[cid] = np.asarray(prof(s), dtype=np.float64)
        return out

    def multiplier(self, t: float) -> float:
        return float(self.g_multiplier(t))

    def omega_in_value(self, cid: int, t: float) -> float:
        return float(self.omega_in[cid](t)) \
            + self.omega_in_shift.get(cid, 0.0)

    def initial_omega(self) -> np.ndarray:
        mesh, w = self.mesh, self.omega0
        if w.cells is not None:
            if w.cells.shape != (mesh.num_triangles,):
                raise UsageError(
                    f"omega0 file: expected {mesh.num_triangles} cell "
                    f"values, got {w.cells.shape}")
            return w.cells + self.omega0_shift
        vals = np.full(mesh.num_triangles, w.background)
        if w.band is not None:
            r0, r1, value = w.band
            r = np.linalg.norm(mesh.centroid, axis=1)
            vals[(r >= r0) & (r <= r1)] = value
        return vals + self.omega0_shift

    def initial_C(self) -> np.ndarray:
        return np.array([self.C0.get(c.comp, 0.0)
                         for c in self.mesh.components[1:]])

    def perturbed(self, **delta) -> "Scenario":
        """Copy with additive perturbations: C0={comp: dC}, omega0=dw
        (constant shift), omega_in={comp: dw}.  The shifts are stored as
        numbers, which ``initial_omega`` and ``omega_in_value`` add.  A
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
        omega0_shift = self.omega0_shift
        if "omega0" in delta:
            omega0_shift += _number(delta["omega0"], "omega0 shift")
        omega_in_shift = dict(self.omega_in_shift)
        for cid, dv in delta.get("omega_in", {}).items():
            if cid not in self.omega_in:
                raise UsageError(f"omega_in: component {cid} is not an "
                                 "inflow component")
            omega_in_shift[cid] = omega_in_shift.get(cid, 0.0) \
                + _number(dv, f"omega_in[{cid}] shift")
        return replace(self, C0=C0, omega0_shift=omega0_shift,
                       omega_in_shift=omega_in_shift)


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

    comp_ids = {c.comp for c in mesh.components}
    raw_g = _container(doc, "g", lists=True)
    if isinstance(raw_g, list):
        flat = {}
        for item in raw_g:
            if not isinstance(item, dict) or "comp" not in item:
                raise UsageError("g: list entries need a 'comp' key")
            item = {**item}
            cid = _comp_key(item.pop("comp"), "g")
            if cid in flat:
                raise UsageError(f"g: component {cid} given twice")
            flat[cid] = item
        raw_g = flat
    g: dict[int, Profile] = {}
    for key, spec in raw_g.items():
        cid = _comp_key(key, "g")
        if cid not in comp_ids:
            raise UsageError(f"g: no boundary component {cid}")
        if mesh.component(cid).role == "wall":
            raise UsageError(f"g: component {cid} is a wall; boundary "
                             "data belongs on inflow/outflow components")
        g[cid] = _profile(spec, f"g[{cid}]", "s", periodic=True)
    for c in mesh.components:
        if c.role != "wall" and c.comp not in g:
            raise UsageError(f"g: component {c.comp} has role "
                             f"{c.role!r} but no boundary data")

    g_multiplier = Profile(np.zeros(1), np.ones(1))
    if "g_multiplier" in doc:
        g_multiplier = _profile(doc["g_multiplier"], "g_multiplier",
                                "times")
        if g_multiplier.y.min() < 0:
            raise UsageError("g_multiplier must be nonnegative "
                             "(a sign change would swap the roles)")

    omega0 = _omega0(doc["omega0"], base_dir)

    omega_in: dict[int, Profile] = {}
    for key, spec in _container(doc, "omega_in").items():
        cid = _comp_key(key, "omega_in")
        if cid not in comp_ids:
            raise UsageError(f"omega_in: no boundary component {cid}")
        if mesh.component(cid).role != "inflow":
            raise UsageError(f"omega_in: component {cid} is not an "
                             "inflow component")
        omega_in[cid] = _profile(spec, f"omega_in[{cid}]", "times")
    for c in mesh.components:
        if c.role == "inflow" and c.comp not in omega_in:
            raise UsageError(f"omega_in: inflow component {c.comp} "
                             "needs trace data")

    C0: dict[int, float] = {}
    for key, val in _container(doc, "C0").items():
        cid = _comp_key(key, "C0")
        if cid not in comp_ids or cid == 0:
            raise UsageError(f"C0: component {cid} is not an inner "
                             "component")
        C0[cid] = _number(val, f"C0[{cid}]")

    return Scenario(mesh=mesh, annulus=annulus, T=T, cfl=cfl,
                    snapshots=snapshots, scheme=scheme, g=g,
                    g_multiplier=g_multiplier, omega0=omega0,
                    omega_in=omega_in, C0=C0)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read scenario {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario {path} is not valid JSON: {exc}") \
            from None
    return parse_scenario(doc, base_dir=path.parent)


# -- edge fluxes --------------------------------------------------------


class FluxAssembler:
    """The through-flow of one g on one basis and the edge fluxes of its
    runs: g checked against the sign condition, its unit-multiplier
    Neumann potential ``phi`` and ``phi_grad`` (None when nothing flows),
    and the equilibrated fluxes ``pot``.  Every cell and component sum is
    an incidence product; the cell-graph factor belongs to the mesh."""

    def __init__(self, basis: HarmonicBasis, g_edges: dict[int, np.ndarray]):
        mesh = basis.mesh
        self.mesh = mesh
        self.g_edges = g_edges
        self.phi: ScalarFieldP1 | None = None
        self.phi_grad: VelocityP0 | None = None
        if any(np.any(g != 0.0) for g in g_edges.values()):
            hodge.validate_sign_condition(mesh, g_edges)
            self.phi = fem.solve_neumann(basis.op, g_edges)
            self.phi_grad = fem.gradient(mesh, self.phi)
        self.D = mesh.incidence
        self.abs_D = abs(self.D)
        # squared inverse incircle diameters and inverse areas: the CFL
        # rates of each cell are products with these
        self.inv_d2 = mesh.incircle_diameter ** -2
        self.inv_area = 1.0 / mesh.tri_area
        # the cell across each edge; boundary edges of component c face a
        # ghost cell T + c that holds the component's inflow trace
        bd = np.concatenate([c.edge_ids for c in mesh.components])
        comp_of = np.concatenate([np.full(len(c.edge_ids), c.comp)
                                  for c in mesh.components])
        self.far = mesh.edge_right.copy()
        self.far[bd] = mesh.num_triangles + comp_of
        # cell sums (D) stacked over per-component boundary sums: one
        # product gives both rows of ``upwind_rates``
        comp_edges = sp.csr_matrix(
            (np.ones(len(bd)), (comp_of, bd)),
            shape=(len(mesh.components), len(mesh.edges)))
        self.rate_rows = sp.vstack([self.D, comp_edges], format="csr")
        # through-flow fluxes at unit multiplier: exactly g * length on the
        # boundary, equilibrated potential fluxes inside
        self.pot = np.zeros(len(mesh.edges))
        for c in mesh.components:
            if c.comp in g_edges:
                self.pot[c.edge_ids] = np.asarray(g_edges[c.comp]) * c.length
        self.div_defect = 0.0
        if self.phi_grad is not None:
            self._equilibrate_potential_fluxes()
        # shared by every run of this g on the basis
        self.pot.setflags(write=False)

    def _equilibrate_potential_fluxes(self) -> None:
        """Averaged-gradient interior fluxes corrected to make every cell
        exactly divergence free against the prescribed boundary fluxes."""
        mesh = self.mesh
        graph = mesh.cell_graph
        gv = self.phi_grad.values
        ids = graph.interior
        n = mesh.edge_normal[ids]
        ln = mesh.edge_length[ids]
        self.pot[ids] = 0.5 * np.einsum(
            "ed,ed->e", gv[mesh.edge_left[ids]] + gv[mesh.edge_right[ids]],
            n) * ln
        y = fem.solve_mean_zero(graph.laplacian, -(self.D @ self.pot),
                                graph.factors)
        self.pot[ids] += graph.incidence.T @ y
        self.div_defect = float(np.abs(self.D @ self.pot).max())

    def fluxes(self, asm: VelocityAssembly) -> np.ndarray:
        """Edge fluxes out of the left cell of a reconstructed flow: its
        stream jumps psi_a - psi_b plus multiplier * pot, which is exactly
        multiplier * g * length on boundary edges (their jump is zero)."""
        return asm.edge_jumps + asm.multiplier * self.pot

    def stable_dt(self, u: VelocityP0, f: np.ndarray, cfl: float) -> float:
        """cfl times the shortest of two times over all cells: the travel
        time d / |u| across the incircle diameter d, and the time
        area / outflux in which the positive outflux empties the cell.
        Infinite when nothing moves."""
        ux, uy = u.values[:, 0], u.values[:, 1]
        adv2 = float(np.max((ux * ux + uy * uy) * self.inv_d2))
        outflux = 0.5 * (self.abs_D @ np.abs(f) + self.D @ f)
        rate = max(math.sqrt(adv2), float(np.max(outflux * self.inv_area)))
        return cfl / rate if rate > 0 else math.inf

    def vorticity_flux(self, omega: np.ndarray, f: np.ndarray,
                       omega_in_vals: dict[int, float]) -> np.ndarray:
        """Upwind edge fluxes of vorticity: f times the cell value upwind
        of each edge, the inflow trace ``omega_in_vals[c]`` on boundary
        edges of component c that carry flow into the fluid."""
        ghost = [omega_in_vals.get(c.comp, 0.0)
                 for c in self.mesh.components]
        outside = np.concatenate([omega, ghost])[self.far]
        return f * np.where(f >= 0, omega[self.mesh.edge_left], outside)

    def upwind_rates(self, omega: np.ndarray, f: np.ndarray,
                     omega_in_vals: dict[int, float]
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(cell divergence of the upwind vorticity flux, boundary outflux
        rate per component).  d(omega)/dt = -div/area; dC_i/dt = -rate_i."""
        sums = self.rate_rows @ self.vorticity_flux(omega, f, omega_in_vals)
        nt = self.mesh.num_triangles
        return sums[:nt], sums[nt:]


def flow_setup(basis: HarmonicBasis, g_edges: dict[int, np.ndarray]
               ) -> FluxAssembler:
    """The ``FluxAssembler`` of ``g_edges``, cached on the basis by the
    bytes of the g arrays: the runs of a ladder or a twin pair share it."""
    key = tuple((cid, np.asarray(g, dtype=np.float64).tobytes())
                for cid, g in sorted(g_edges.items()))
    if key not in basis.flows:
        basis.flows[key] = FluxAssembler(basis, g_edges)
    return basis.flows[key]


# -- time integration ---------------------------------------------------


@dataclass
class SimState:
    """One saved snapshot."""

    t: float
    omega: np.ndarray              # (T,) cell vorticity
    C: np.ndarray                  # (m,) inner-component circulations
    B: np.ndarray                  # (ncomp,) cumulative boundary vorticity flux
    assembly: VelocityAssembly
    energy: float
    dt_last: float

    @property
    def circulations(self) -> np.ndarray:
        """Consistent-flux circulation of every component (row 0 is the
        diagnosed outer circulation)."""
        return self.assembly.circulation_consistent


@dataclass
class Trajectory:
    scenario: Scenario
    mesh: Mesh
    basis: HarmonicBasis
    states: list[SimState]
    flux: FluxAssembler            # the through-flow: g, phi and its fluxes
    max_principle_defect: float
    budget_defect: float
    total_steps: int

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])


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
    C = scenario.initial_C()
    ncomp = len(mesh.components)
    B = np.zeros(ncomp)
    inflow_ids = [c.comp for c in mesh.components if c.role == "inflow"]

    bound_lo = float(omega.min(initial=np.inf))
    bound_hi = float(omega.max(initial=-np.inf))
    mp_defect = 0.0
    budget_defect = 0.0

    def assemble(om, circ, t):
        return hodge.reconstruct_velocity(
            basis, VorticityP0(mesh, om), circ,
            multiplier=scenario.multiplier(t), phi_grad=flux.phi_grad)

    def energy(asm):
        return 0.5 * float(np.einsum("td,td,t->", asm.u.values,
                                     asm.u.values, mesh.tri_area))

    asm = assemble(omega, C, 0.0)
    states = [SimState(t=0.0, omega=omega.copy(), C=C.copy(), B=B.copy(),
                       assembly=asm.without_step_jumps(),
                       energy=energy(asm), dt_last=0.0)]
    t = 0.0
    total_steps = 0
    rk2 = scenario.scheme == "rk2"

    for k in range(1, scenario.snapshots + 1):
        t_next = k * scenario.T / scenario.snapshots
        interval_steps = 0
        while t < t_next:
            interval_steps += 1
            if interval_steps > MAX_STEPS_PER_INTERVAL:
                raise SolverError(
                    f"time step collapsed: more than "
                    f"{MAX_STEPS_PER_INTERVAL} steps in one snapshot "
                    f"interval (t = {t:.6g}, dt = {dt:.3e})")
            f = flux.fluxes(asm)
            dt = flux.stable_dt(asm.u, f, scenario.cfl)
            landed = t_next - t <= dt
            dt = min(dt, t_next - t)
            if not (dt > 0 and math.isfinite(dt)):
                raise SolverError(f"non-positive time step {dt!r} at "
                                  f"t = {t:.6g}")

            in_vals = {cid: scenario.omega_in_value(cid, t)
                       for cid in inflow_ids}
            div, rates = flux.upwind_rates(omega, f, in_vals)
            mass_before = float(omega @ mesh.tri_area)

            if rk2:
                om1 = omega - dt * div / mesh.tri_area
                C1 = C - dt * rates[1:]
                t1 = t_next if landed else t + dt
                asm1 = assemble(om1, C1, t1)
                f2 = flux.fluxes(asm1)
                in2 = {cid: scenario.omega_in_value(cid, t1)
                       for cid in inflow_ids}
                div2, rates2 = flux.upwind_rates(om1, f2, in2)
                omega = 0.5 * (omega + om1 - dt * div2 / mesh.tri_area)
                rate_eff = 0.5 * (rates + rates2)
                for v in in2.values():
                    bound_lo = min(bound_lo, v)
                    bound_hi = max(bound_hi, v)
            else:
                omega = omega - dt * div / mesh.tri_area
                rate_eff = rates
            C = C - dt * rate_eff[1:]
            B = B + dt * rate_eff

            for v in in_vals.values():
                bound_lo = min(bound_lo, v)
                bound_hi = max(bound_hi, v)
            mp_defect = max(mp_defect,
                            float(omega.max(initial=-np.inf)) - bound_hi,
                            bound_lo - float(omega.min(initial=np.inf)))
            mass_after = float(omega @ mesh.tri_area)
            bd = abs(mass_after - mass_before + dt * rate_eff.sum())
            scale = max(1.0, abs(mass_before), abs(dt * rate_eff).sum())
            budget_defect = max(budget_defect, bd / scale)

            t = t_next if landed else t + dt
            total_steps += 1
            asm = assemble(omega, C, t)

        states.append(SimState(t=t, omega=omega.copy(), C=C.copy(),
                               B=B.copy(),
                               assembly=asm.without_step_jumps(),
                               energy=energy(asm), dt_last=dt))

    return Trajectory(scenario=scenario, mesh=mesh, basis=basis,
                      states=states, flux=flux,
                      max_principle_defect=mp_defect,
                      budget_defect=budget_defect, total_steps=total_steps)


# -- diagnostics --------------------------------------------------------


def kelvin_consistency(traj: Trajectory) -> float:
    """Max discrepancy between the transported circulations and the
    boundary-flux accumulators (identical code path; round-off only)."""
    worst = 0.0
    C0 = traj.states[0].C
    for s in traj.states:
        drift = s.C - (C0 - s.B[1:])
        scale = max(1.0, float(np.abs(s.C).max(initial=0.0)))
        worst = max(worst, float(np.abs(drift).max(initial=0.0)) / scale)
    return worst


def weak_residual(traj: Trajectory, phi: ScalarFieldP1,
                  k0: int = 0, k1: int | None = None) -> dict:
    """Residual of the weak transport identity over [t_k0, t_k1]:

        int_t int_Omega omega u . grad(phi)
        = [int_Omega omega phi]_{t_k0}^{t_k1} + int_t int_Gamma omega phi g.

    When the test function is constant on every boundary component the
    boundary integral is taken from the exact per-step accumulators;
    otherwise it is a trapezoid over the snapshots.
    """
    if k1 is None:
        k1 = len(traj.states) - 1
    mesh = traj.mesh
    states = traj.states[k0:k1 + 1]
    times = np.array([s.t for s in states])
    gphi = fem.gradient(mesh, phi).values

    vol = np.array([float(np.einsum("t,td,td,t->", s.omega,
                                    s.assembly.u.values, gphi,
                                    mesh.tri_area))
                    for s in states])
    vol_int = float(np.trapezoid(vol, times))

    phi_bar = phi.values[mesh.triangles].mean(axis=1)

    def mass(s):
        return float((s.omega * phi_bar) @ mesh.tri_area)

    jump = mass(states[-1]) - mass(states[0])

    comp_const = []
    is_const = True
    for c in mesh.components:
        tv = phi.values[c.edges[:, 0]]
        if np.ptp(phi.values[np.unique(c.edges)]) > 1e-12 * max(
                1.0, float(np.abs(phi.values).max())):
            is_const = False
            break
        comp_const.append(float(tv[0]))

    if is_const:
        bdry = sum(cv * (states[-1].B[c.comp] - states[0].B[c.comp])
                   for cv, c in zip(comp_const, mesh.components))
    else:
        # the prescribed boundary fluxes mult * g * length; interior
        # entries are zero, so only boundary edges carry vorticity
        bd = ~mesh.interior_edge
        pot_bd = np.where(bd, traj.flux.pot, 0.0)
        phim = 0.5 * phi.values[mesh.edges].sum(axis=1)
        rows = []
        for s in states:
            in_vals = {c.comp: traj.scenario.omega_in_value(c.comp, s.t)
                       for c in mesh.components if c.role == "inflow"}
            cf = traj.flux.vorticity_flux(
                s.omega, s.assembly.multiplier * pot_bd, in_vals)
            rows.append(float(cf @ phim))
        bdry = float(np.trapezoid(np.array(rows), times))

    return {"volume": vol_int, "jump": jump, "boundary": bdry,
            "residual": vol_int - jump - bdry,
            "exact_boundary": is_const}


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Snapshot table: time, per-component circulations (component 0 is
    the diagnosed outer value), vorticity mass and range, kinetic energy,
    last step size.  Full 17-digit precision."""
    ncomp = len(traj.mesh.components)
    cols = ["t"] + [f"C_{c}" for c in range(ncomp)] \
        + ["vort_mass", "vort_min", "vort_max", "energy", "dt"]
    lines = [",".join(cols)]
    area = traj.mesh.tri_area
    for s in traj.states:
        circ = s.circulations
        row = [s.t] + [circ[c] for c in range(ncomp)] \
            + [float(s.omega @ area), float(s.omega.min()),
               float(s.omega.max()), s.energy, s.dt_last]
        lines.append(",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
