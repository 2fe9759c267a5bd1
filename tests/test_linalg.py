import random
from itertools import product as iter_product

from hypothesis import given, settings, strategies as st

from dwkit.linalg import SparseElimination


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0),
)
def test_solve_linear_matches_brute_force(modulus, rows, cols, seed):
    rng = random.Random(seed)
    a = [[rng.randrange(modulus) for _ in range(cols)] for _ in range(rows)]
    b = [rng.randrange(modulus) for _ in range(rows)]
    row_dicts = [{c: v for c, v in enumerate(row) if v} for row in a]
    got = SparseElimination(row_dicts, cols, modulus=modulus).solve(b)
    brute = None
    for x in iter_product(range(modulus), repeat=cols):
        if all(
            sum(a[r][c] * x[c] for c in range(cols)) % modulus == b[r] % modulus
            for r in range(rows)
        ):
            brute = x
            break
    if brute is None:
        assert got is None
    else:
        assert got is not None
        x = got
        assert all(
            sum(a[r][c] * x[c] for c in range(cols)) % modulus == b[r] % modulus
            for r in range(rows)
        )


def test_solve_linear_examples():
    eye = SparseElimination([{0: 1}, {1: 1}], 2, modulus=6)
    assert eye.solve([4, 5]) == [4, 5]
    two = SparseElimination([{0: 2}], 1, modulus=4)
    assert two.solve([2]) in ([1], [3])
    assert sorted(k[0] % 4 for k in two.kernel()) == [2]
    assert two.solve([1]) is None


def test_sparse_elimination_kernel():
    # kernel of [1 1 0; 0 1 1] over Z/2 is spanned by (1,1,1)
    elim = SparseElimination([{0: 1, 1: 1}, {1: 1, 2: 1}], 3, modulus=2)
    kernel = elim.kernel()
    assert [v % 2 for v in kernel[0]] == [1, 1, 1]
