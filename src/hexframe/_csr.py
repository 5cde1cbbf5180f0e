"""scipy's compiled CSR kernels, without the ``scipy.sparse`` package.

``import scipy.sparse`` adds about 22 MB of resident memory; its C kernels
are one extension file, ``scipy/sparse/_sparsetools``, which adds about
0.15 MB.  ``find_spec`` locates scipy without importing it, and the file is
loaded on its own and kept out of ``sys.modules``.  ``CSR`` calls the
kernels in the order ``scipy.sparse`` calls them, so its results are
scipy's bit for bit.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

KERNELS = ("coo_tocsr", "csr_has_sorted_indices", "csr_sort_indices",
           "csr_sum_duplicates", "csr_matvec", "csr_matvecs", "csr_diagonal",
           "csr_row_index")


def _load_kernels():
    spec = importlib.util.find_spec("scipy")
    where = spec.submodule_search_locations if spec else []
    paths = [os.path.join(d, "sparse", "_sparsetools" + suffix)
             for d in where for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    paths = [p for p in paths if os.path.isfile(p)]
    missing = ["scipy/sparse/_sparsetools"]
    if paths:
        name = "hexframe._sparsetools"
        loader = importlib.machinery.ExtensionFileLoader(name, paths[0])
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        sys.modules.pop(name, None)
        missing = [k for k in KERNELS if not hasattr(module, k)]
        if not missing:
            return module
    from importlib.metadata import PackageNotFoundError, version
    try:
        found = "scipy " + version("scipy")
    except PackageNotFoundError:
        found = "no installed scipy"
    raise ImportError("hexframe needs scipy's compiled sparse kernels; "
                      "%s has no %s" % (found, ", ".join(missing)))


_k = _load_kernels()


def _index_dtype(size):
    """scipy's index type: int32 unless ``size`` needs more."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def row_offsets(counts, dtype=np.int64):
    """CSR row offsets of rows holding ``counts`` entries."""
    out = np.zeros(len(counts) + 1, dtype=dtype)
    np.cumsum(counts, out=out[1:])
    return out


class CSR:
    """Compressed sparse row matrix of float64 entries: row i holds
    ``data[indptr[i]:indptr[i + 1]]`` at columns ``indices[...]``."""

    def __init__(self, indptr, indices, data, shape):
        idx = _index_dtype(max(len(data), *shape))
        self.indptr = np.asarray(indptr, dtype=idx)
        self.indices = np.asarray(indices, dtype=idx)
        self.data = np.asarray(data, dtype=float)
        self.shape = tuple(shape)

    @classmethod
    def from_coo(cls, data, rows, cols, shape):
        """The entries ``data`` at (``rows``, ``cols``), columns sorted
        within each row and duplicates summed, as ``coo_matrix.tocsr()``.
        ``indices`` and ``data`` own their nnz entries, so no COO-sized
        buffer outlives the call."""
        data = np.asarray(data, dtype=float)
        m, n = shape
        nnz = len(data)
        idx = _index_dtype(max(nnz, m, n))
        indptr = np.empty(m + 1, dtype=idx)
        indices = np.empty(nnz, dtype=idx)
        values = np.empty(nnz)
        _k.coo_tocsr(m, n, nnz, np.asarray(rows, dtype=idx),
                     np.asarray(cols, dtype=idx), data, indptr, indices, values)
        if not _k.csr_has_sorted_indices(m, indptr, indices):
            _k.csr_sort_indices(m, indptr, indices, values)
        _k.csr_sum_duplicates(m, n, indptr, indices, values)
        nnz = indptr[-1]
        return cls(indptr, indices[:nnz].copy(), values[:nnz].copy(), shape)

    def __matmul__(self, x):
        """The product with a vector or an (n, k) block."""
        m, n = self.shape
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim == 1:
            y = np.zeros(m)
            _k.csr_matvec(m, n, self.indptr, self.indices, self.data, x, y)
        else:
            y = np.zeros((m, x.shape[1]))
            _k.csr_matvecs(m, n, x.shape[1], self.indptr, self.indices,
                           self.data, x.ravel(), y.ravel())
        return y

    def diagonal(self):
        """The main diagonal, duplicates summed."""
        y = np.empty(min(self.shape))
        _k.csr_diagonal(0, *self.shape, self.indptr, self.indices, self.data, y)
        return y

    def rows(self, r):
        """The submatrix of rows ``r``, in that order."""
        r = np.asarray(r, dtype=self.indptr.dtype)
        indptr = row_offsets(self.indptr[r + 1] - self.indptr[r], r.dtype)
        indices = np.empty(indptr[-1], dtype=self.indptr.dtype)
        data = np.empty(indptr[-1])
        _k.csr_row_index(len(r), r, self.indptr, self.indices, self.data,
                         indices, data)
        return CSR(indptr, indices, data, (len(r), self.shape[1]))
