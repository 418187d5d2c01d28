"""Pure/compiled kernel agreement.

The kernels are one source file; when the extension is built it shadows the
.py on import.  These tests load the .py explicitly and require bit-for-bit
identical behavior from both, so a seed always denotes the same starter
regardless of the backend.
"""

import importlib.util
from pathlib import Path

import pytest

from tristarter import _kernels

KERNELS_PY = Path(_kernels.__file__).parent / "_kernels.py"
if not KERNELS_PY.exists():  # installed without sources next to the ext
    KERNELS_PY = None


def _load_pure():
    spec = importlib.util.spec_from_file_location("tristarter._kernels_pure", KERNELS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pure():
    if KERNELS_PY is None:
        pytest.skip("kernel source not available")
    return _load_pure()


def test_backend_flag_consistency(pure):
    assert pure.BACKEND == "pure"
    assert _kernels.BACKEND in ("pure", "compiled")


def test_hill_climb_identical_across_backends(pure):
    if _kernels.COMPILED is pure.COMPILED:
        pytest.skip("compiled kernels not built; nothing to compare")
    for n in (7, 21, 39):
        for seed in (0, 1, 12345):
            assert _kernels.hill_climb_pairs(n, seed, 10 ** 6) == \
                   pure.hill_climb_pairs(n, seed, 10 ** 6)


def test_enumeration_identical_across_backends(pure):
    if _kernels.COMPILED is pure.COMPILED:
        pytest.skip("compiled kernels not built; nothing to compare")
    assert _kernels.count_strong_starters(15, 40) == pure.count_strong_starters(15, 40)


def test_fd_search_identical_across_backends(pure):
    if _kernels.COMPILED is pure.COMPILED:
        pytest.skip("compiled kernels not built; nothing to compare")
    from tristarter import build_table, encode
    from tristarter.solver import _branch_order, SolverConfig
    from fixtures import T7

    inst = encode(build_table(T7, 1))
    flat = inst.search_arrays()
    order = _branch_order(inst, SolverConfig())
    for dynamic in (0, 1):
        got = _kernels.fd_search(inst.num_variables, *flat, order, dynamic, 0, 0)
        want = pure.fd_search(inst.num_variables, *flat, order, dynamic, 0, 0)
        assert got == want


def test_splitmix_reference_values(pure):
    # frozen expected values so both backends are anchored to one stream
    assert pure.splitmix64(0) == _kernels.splitmix64(0)
    assert pure.splitmix64(0) == 16294208416658607535
    assert pure.splitmix64(1) == 10451216379200822465
