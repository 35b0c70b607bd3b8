import multiprocessing

import numpy as np
import pytest

from acouz import acoustic as ac
from acouz import boundary as bd
from acouz import shapes
from acouz.multipliers import TripleProductTensor


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process running, e.g. a pool that
    was not joined; the children are ended so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(scope="session")
def unit_circle_geom():
    # polyline of exact length 2*pi ("unit circle" for spectral purposes)
    return shapes.scaled_circle_by_perimeter(2 * np.pi)


@pytest.fixture(scope="session")
def circle_spec(unit_circle_geom):
    return bd.build_curve_spectrum(unit_circle_geom, 65)


@pytest.fixture(scope="session")
def circle_spec_400(unit_circle_geom):
    return bd.build_curve_spectrum(unit_circle_geom, 400)


@pytest.fixture(scope="session")
def circle_tensor(circle_spec):
    return TripleProductTensor(circle_spec)


@pytest.fixture(scope="session")
def sphere_spec():
    return bd.build_surface_spectrum(shapes.icosphere(4), 16)


@pytest.fixture(scope="session")
def disk_setup():
    mesh = ac.disk_mesh(0.12)
    spec = bd.build_curve_spectrum(mesh.boundary_geometry(), 140)
    return mesh, spec
