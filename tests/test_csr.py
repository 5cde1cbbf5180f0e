"""hexframe's CSR matrices and products carry scipy.sparse's bits: the
same index arrays, entries, entry order and sums on every fixture."""

import os

import numpy as np
import pytest
import scipy.sparse as sp

import hexframe._csr as csr
import hexframe.solver as solver
import solver_oracle
from hexframe.correction import _boundary_graph
from hexframe.meshio import read_medit

FIXTURES = ["notch", "groove_box", "arc_box", "curved_arc_box", "halfsphere_box"]


def fixture(name):
    return read_medit(os.path.join(os.path.dirname(__file__), "..",
                                   "fixtures", name + ".mesh"))


def coo_calls(monkeypatch):
    """The arguments of each ``CSR.from_coo`` call after this one."""
    calls = []
    from_coo = csr.CSR.from_coo.__func__

    def spy(cls, *args):
        calls.append(args)
        return from_coo(cls, *args)

    monkeypatch.setattr(csr.CSR, "from_coo", classmethod(spy))
    return calls


def scipy_from_coo(data, rows, cols, shape):
    """What hexframe's CSR assembly did before, in scipy.sparse."""
    A = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    A.sum_duplicates()
    return A


def assert_same(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.shape == want.shape


@pytest.fixture(scope="module", params=FIXTURES)
def stiffness(request):
    """A fixture, its stiffness matrix and scipy's matrix of the same
    entries."""
    mesh = fixture(request.param)
    with pytest.MonkeyPatch.context() as mp:
        calls = coo_calls(mp)
        K = solver.assemble_stiffness(mesh)
    (args,) = calls
    return mesh, K, scipy_from_coo(*args)


class TestStiffness:
    def test_arrays_match_scipy(self, stiffness):
        _, K, want = stiffness
        assert_same(K, want)

    def test_arrays_own_their_entries(self, stiffness):
        # no view keeps the COO-sized buffers of the assembly alive
        _, K, _ = stiffness
        for a in (K.indices, K.data):
            assert a.base is None and a.flags.owndata
            assert len(a) == K.indptr[-1]

    def test_products_match_scipy(self, stiffness):
        _, K, want = stiffness
        rng = np.random.default_rng(11)
        X = rng.normal(size=(K.shape[1], 9))
        assert (K @ X).tobytes() == (want @ X).tobytes()
        assert (K @ X[:, 0]).tobytes() == (want @ X[:, 0]).tobytes()
        # a column view is copied, as scipy copies it
        assert (K @ X[:, ::2]).tobytes() == (want @ X[:, ::2]).tobytes()

    def test_diagonal_matches_scipy(self, stiffness):
        _, K, want = stiffness
        assert K.diagonal().tobytes() == want.diagonal().tobytes()


class TestSmoothingRows:
    def test_rows_match_scipy(self, stiffness):
        # the row scales 1 / wsum, the kept entries and their (descending)
        # column order are those of scipy's diags(1 / wsum) @ W[move]
        mesh, K, want = stiffness
        bcs = solver.build_boundary_conditions(mesh)
        W, move = solver._smoothing_rows(K, bcs.kind)
        W_want, move_want = solver_oracle.moving_rows(want, bcs)
        assert np.array_equal(move, move_want)
        assert_same(W, W_want)
        for a, b in zip(W.indptr[:-1], W.indptr[1:]):
            assert np.all(np.diff(W.indices[a:b]) < 0)

    def test_row_sums_match_scipy(self, stiffness):
        # with every vertex free, each moving row is scaled by 1 / wsum of
        # scipy's row sum of W = diag(K) - K
        mesh, K, want = stiffness
        kind = np.zeros(K.shape[0], dtype=np.int8)
        W, move = solver._smoothing_rows(K, kind)
        W_want = (sp.diags(want.diagonal()) - want).tocsr()
        wsum = np.asarray(W_want.sum(axis=1)).ravel()
        assert np.array_equal(move, np.flatnonzero(wsum > 0))
        # each row's first entry is at its largest column
        first = W_want.data[W_want.indptr[move + 1] - 1]
        assert W.data[W.indptr[:-1]].tobytes() == (
            (1.0 / wsum[move]) * first).tobytes()

    def test_row_blocks_match_scipy(self, stiffness):
        mesh, K, want = stiffness
        bcs = solver.build_boundary_conditions(mesh)
        W, _ = solver._smoothing_rows(K, bcs.kind)
        W_want, _ = solver_oracle.moving_rows(want, bcs)
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=(K.shape[0], 9))
        for r in (rng.permutation(W.shape[0])[:40], np.arange(0),
                  np.array([3, 3, 0])):
            assert_same(W.rows(r), W_want[r])
            assert (W.rows(r) @ coeffs).tobytes() == (W_want[r] @ coeffs).tobytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_boundary_graph_matches_scipy(name, monkeypatch):
    mesh = fixture(name)
    calls = coo_calls(monkeypatch)
    graph = _boundary_graph(mesh)
    (args,) = calls
    want = sp.csr_matrix((args[0], (args[1], args[2])), shape=args[3])
    assert_same(graph, want)


def test_duplicates_are_summed_in_sorted_order():
    A = csr.CSR.from_coo([1.0, 2.0, 3.0, 1e-17, 4.0], [1, 0, 1, 1, 1],
                         [2, 0, 0, 2, 2], (2, 3))
    assert_same(A, scipy_from_coo([1.0, 2.0, 3.0, 1e-17, 4.0], [1, 0, 1, 1, 1],
                                  [2, 0, 0, 2, 2], (2, 3)))
    assert A.indptr.tolist() == [0, 1, 3]
    assert A.indices.tolist() == [0, 0, 2]


def test_missing_kernel_names_scipy_version(monkeypatch):
    from importlib.metadata import version

    monkeypatch.setattr(csr, "KERNELS", csr.KERNELS + ("csr_no_such_kernel",))
    with pytest.raises(ImportError, match="scipy %s has no csr_no_such_kernel"
                       % version("scipy").replace(".", r"\.")):
        csr._load_kernels()

