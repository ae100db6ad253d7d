"""Integer kernel tests: backend agreement, the crossing order and the int64
safety gate."""

import os
import subprocess
import sys

import numpy as np
import pytest

from triarea import _kernels
from triarea.arrangement import Arrangement, Line
from triarea.census import (
    _crossing_ranks_exact,
    census,
    facial_triangles,
    integer_coefficients,
    select_backend,
)
from triarea.constructions import hexgrid, random_arrangement


def _coeffs(arr):
    coeffs = integer_coefficients(arr)
    assert coeffs is not None
    return coeffs


def test_census_kernels_agree():
    for seed in (0, 3, 11):
        arr = random_arrangement(14, seed=seed)
        coeffs = _coeffs(arr)
        num_np, den_np, status_np = _kernels.census_int64(coeffs, backend="numpy")
        assert np.all(np.gcd(num_np, den_np) == 1)
        if _kernels.HAVE_NUMBA:
            num_nb, den_nb, status_nb = _kernels.census_int64(coeffs, backend="numba")
            assert np.array_equal(status_np, status_nb)
            assert np.array_equal(num_np, num_nb)
            assert np.array_equal(den_np, den_nb)


def test_crossing_order_repairs_float_ties():
    # inside the int64 gate distinct crossings always get distinct float
    # keys; these coefficients are outside it, so that on y = 0 the crossings
    # x = 2^53 and x = 2^53 + 1 share a float key and the stable sort leaves
    # them in index order, which the exact check must repair
    big = 2**53
    arr = Arrangement(
        [Line(0, 1, 0), Line(1, 0, -big), Line(1, 0, -big - 1), Line(1, 1, 0), Line(1, -1, 3)]
    )
    coeffs = _coeffs(arr)
    assert not _kernels.int64_safe(coeffs)
    ranks = _kernels.crossing_ranks_int64(coeffs)
    assert np.array_equal(ranks, _crossing_ranks_exact(arr))
    faces = _kernels.faces_from_ranks(ranks).tolist()
    assert [tuple(f) for f in faces] == facial_triangles(arr, backend="exact")


def test_status_codes_match_exact():
    arr = hexgrid(8)  # three parallel families
    coeffs = _coeffs(arr)
    _, _, status = _kernels.census_int64(coeffs, backend="numpy")
    cen = census(arr, backend="exact")
    assert int((status == _kernels.STATUS_CONCURRENT).sum()) == cen.concurrent_count
    assert int((status == _kernels.STATUS_PARALLEL).sum()) == cen.parallel_count


def test_int64_gate_rejects_huge_coefficients():
    huge = np.array(
        [[2**22, 1, 1], [1, 2**22, 3], [5, 7, 2**40]], dtype=np.int64
    )
    assert not _kernels.int64_safe(huge)
    small = np.array([[3, 2, 1], [1, -4, 2], [0, 1, 5]], dtype=np.int64)
    assert _kernels.int64_safe(small)


def test_gate_forces_exact_backend():
    arr = random_arrangement(8, seed=2, coeff_bound=40, offset_bound=400)
    assert select_backend(arr, "auto") in ("numba", "numpy")
    from triarea.constructions import scale

    blown = scale(arr, 2**45)
    assert select_backend(blown, "auto") == "exact"
    assert census(arr).area_counts != {}


def test_numba_env_flag_disables_jit():
    code = (
        "import triarea._kernels as k; "
        "print(k.HAVE_NUMBA)"
    )
    env = dict(os.environ, TRIAREA_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")
def test_numba_backend_used_by_default():
    arr = random_arrangement(10, seed=0)
    assert select_backend(arr, "auto") == "numba"
    assert census(arr).backend == "numba"
