"""Shared meshes, scenarios, and twin runs (session scoped: everything
downstream treats them as read-only)."""

import numpy as np
import pytest

from euler_ss import transport
from euler_ss.hodge import HarmonicBasis
from euler_ss.mesh import generate_annulus


@pytest.fixture(scope="session")
def annulus_mid():
    return generate_annulus(1.0, 2.0, 8, 32)


@pytest.fixture(scope="session")
def basis_mid(annulus_mid):
    return HarmonicBasis(annulus_mid)


def modulated_band_scenario(tmpdir, nr=6, ntheta=24, flow=True, **extra):
    """Flow-through annulus with an azimuthally modulated vorticity band.

    The modulation matters: a rotation-invariant band makes every
    circulation-perturbed twin difference identically zero.
    """
    m = generate_annulus(1.0, 2.0, nr, ntheta)
    cen = m.centroid
    r = np.hypot(cen[:, 0], cen[:, 1])
    th = np.arctan2(cen[:, 1], cen[:, 0])
    band = np.where((r > 1.25) & (r < 1.75), 1.0, 0.0)
    np.savetxt(tmpdir / "omega0.txt", band * (1.0 + 0.3 * np.cos(th)))
    doc = {
        "mesh": {"annulus": {"r0": 1.0, "r1": 2.0, "nr": nr,
                             "ntheta": ntheta,
                             "roles": ["outflow", "inflow"]}},
        "omega0": {"type": "file", "path": "omega0.txt"},
        "T": 0.5, "cfl": 0.4, "snapshots": 6,
        "C0": {1: 0.3},
        "g": {0: {"type": "constant", "value": 0.25},
              1: {"type": "constant", "value": -0.5}},
        "omega_in": {1: {"type": "constant", "value": 0.8}},
    }
    doc.update(extra)
    if not flow:
        doc["mesh"]["annulus"]["roles"] = ["wall", "wall"]
        del doc["g"], doc["omega_in"]
    return transport.parse_scenario(doc, base_dir=tmpdir)


@pytest.fixture(scope="session")
def flow_scenario(tmp_path_factory):
    return modulated_band_scenario(tmp_path_factory.mktemp("flow"))


@pytest.fixture(scope="session")
def flow_pair(flow_scenario):
    """Base and circulation-perturbed trajectories on one basis."""
    basis = HarmonicBasis(flow_scenario.mesh)
    base = transport.run(flow_scenario, basis)
    pert = transport.run(flow_scenario.perturbed(C0={1: 0.1}), basis)
    return base, pert


@pytest.fixture(scope="session")
def flow_twin(flow_pair):
    from euler_ss.certificates import TwinRun
    return TwinRun(*flow_pair)
