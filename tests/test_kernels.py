"""Integer kernel tests: agreement with the exact census, triple ranks, the
crossing order and the int64 safety gate."""

from itertools import permutations

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
        num, den, _ = _kernels.census_int64(coeffs)
        assert np.all(np.gcd(num, den) == 1)
        fast, exact = census(arr, backend="numpy"), census(arr, backend="exact")
        assert np.array_equal(fast.class_ids, exact.class_ids)
        assert fast.areas == exact.areas


@pytest.mark.parametrize("n", range(13))
def test_combo_rank_inverts_combo_index_arrays(n):
    cols = _kernels.combo_index_arrays(n)
    every = np.arange(len(cols[0]))
    for perm in permutations(cols):
        assert np.array_equal(_kernels.combo_rank(n, *perm), every)
    if n >= 3:
        # scalar columns give the rank of one triple
        assert int(_kernels.combo_rank(n, n - 1, 0, 1)) == n - 3
        assert int(_kernels.combo_rank(n, n - 1, n - 2, n - 3)) == len(every) - 1


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
    _, _, status = _kernels.census_int64(coeffs)
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
    assert select_backend(arr, "auto") == "numpy"
    from triarea.constructions import scale

    blown = scale(arr, 2**45)
    assert select_backend(blown, "auto") == "exact"
    assert census(arr).area_counts != {}


def test_select_backend_rejects_unknown_names():
    arr = random_arrangement(6, seed=1)
    for name in ("numba", "fast"):
        with pytest.raises(ValueError, match="unknown backend"):
            select_backend(arr, name)
