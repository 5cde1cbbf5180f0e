"""Independent oracle for the degree-4 rotation representation.

Represents each basis function as a homogeneous degree-4 polynomial, rotates
it by substituting the rotated variables via its symmetric 4th-order tensor,
and re-expands in the basis using exact sphere-integral Gram projections.
Shares nothing with the production Euler-block construction except the basis
convention itself.  Also holds ``cofactors``, the 81-term reference of the
projection's 3x3 cofactors.
"""

import numpy as np
from itertools import product
from math import factorial

from hexframe.mesh import row_dots

# monomial exponents (a, b, c) with a+b+c = 4
EXPS = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]
EXP_INDEX = {e: i for i, e in enumerate(EXPS)}


def _df(n):
    # double factorial with (-1)!! = 1
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


def sphere_integral(exp):
    a, b, c = exp
    if a % 2 or b % 2 or c % 2:
        return 0.0
    return 4 * np.pi * _df(a - 1) * _df(b - 1) * _df(c - 1) / _df(a + b + c + 1)


# Gram matrix of the 15 degree-4 monomials under sphere integration
GRAM = np.array([[sphere_integral(tuple(np.add(e1, e2))) for e2 in EXPS] for e1 in EXPS])


def _seed_polys():
    # coefficient vectors over EXPS for the m = -4..4 seed harmonics
    def poly(d):
        v = np.zeros(len(EXPS))
        for e, c in d.items():
            v[EXP_INDEX[e]] += c
        return v

    r2 = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}

    def mul(d1, d2):
        out = {}
        for e1, c1 in d1.items():
            for e2, c2 in d2.items():
                e = tuple(np.add(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    x = {(1, 0, 0): 1}
    y = {(0, 1, 0): 1}
    z = {(0, 0, 1): 1}

    def lin(*terms):
        out = {}
        for c, d in terms:
            for e, v in d.items():
                out[e] = out.get(e, 0) + c * v
        return out

    x2, y2, z2 = mul(x, x), mul(y, y), mul(z, z)
    xy, xz, yz = mul(x, y), mul(x, z), mul(y, z)
    seeds = [
        lin((1, mul(mul(x2, x), y)), (-1, mul(x, mul(y2, y)))),          # m=-4
        lin((3, mul(x2, yz)), (-1, mul(mul(y2, y), z))),                 # m=-3
        lin((7, mul(xy, z2)), (-1, mul(xy, r2))),                        # m=-2
        lin((7, mul(yz, z2)), (-3, mul(yz, r2))),                        # m=-1
        lin((35, mul(z2, z2)), (-30, mul(z2, r2)), (3, mul(r2, r2))),    # m=0
        lin((7, mul(xz, z2)), (-3, mul(xz, r2))),                        # m=+1
        lin((7, mul(x2, z2)), (-7, mul(y2, z2)), (-1, mul(x2, r2)), (1, mul(y2, r2))),  # m=+2
        lin((1, mul(mul(x2, x), z)), (-3, mul(x, yz_y := mul(y, z)))),   # placeholder
        lin((1, mul(x2, x2)), (-6, mul(x2, y2)), (1, mul(y2, y2))),      # m=+4
    ]
    # m=+3 done properly: z (x^3 - 3 x y^2)
    seeds[7] = lin((1, mul(mul(x2, x), z)), (-3, mul(x, mul(y2, z))))
    return [poly(s) for s in seeds]


def _basis():
    B = []
    for p in _seed_polys():
        n = np.sqrt(p @ GRAM @ p)
        B.append(p / n)
    return np.array(B).T  # 15 x 9


BASIS = _basis()


def _poly_to_tensor(p):
    T = np.zeros((3, 3, 3, 3))
    for idx in product(range(3), repeat=4):
        e = tuple(np.bincount(idx, minlength=3))
        mult = factorial(4) // (factorial(e[0]) * factorial(e[1]) * factorial(e[2]))
        T[idx] = p[EXP_INDEX[e]] / mult
    return T


def _tensor_to_poly(T):
    p = np.zeros(len(EXPS))
    for idx in product(range(3), repeat=4):
        e = tuple(np.bincount(idx, minlength=3))
        p[EXP_INDEX[e]] += T[idx]
    return p


_BASIS_TENSORS = [_poly_to_tensor(BASIS[:, j]) for j in range(9)]


def wigner4_oracle(R):
    """Degree-4 band matrix of rotation ``R`` via polynomial rotation."""
    R = np.asarray(R, dtype=float)
    D = np.zeros((9, 9))
    for i in range(9):
        Trot = np.einsum("ai,bj,ck,dl,ijkl->abcd", R, R, R, R, _BASIS_TENSORS[i])
        prot = _tensor_to_poly(Trot)
        D[:, i] = BASIS.T @ GRAM @ prot
    return D


H_REF = np.zeros(9)
H_REF[4] = np.sqrt(7.0 / 12.0)
H_REF[8] = np.sqrt(5.0 / 12.0)


def coeffs_oracle(R):
    return wigner4_oracle(R) @ H_REF


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _cofactor_map():
    """(81, 9) map from the products of the entries of a 3x3 matrix M to its
    cofactors M[i+1, j+1] M[i+2, j+2] - M[i+1, j+2] M[i+2, j+1]."""
    P = np.zeros((3, 3, 3, 3, 3, 3))
    for i, j in product(range(3), repeat=2):
        a, b, c, d = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        P[a, c, b, d, i, j], P[a, d, b, c, i, j] = 1.0, -1.0
    return P.reshape(81, 9)


COFACTOR_MAP = _cofactor_map()


def cofactors(M):
    """``frames._cofactors`` of 3x3 matrices (n, 3, 3) as one stacked
    product of each matrix's 81 entry products with ``COFACTOR_MAP``."""
    m = M.reshape(-1, 1, 9)
    cof = (m.swapaxes(1, 2) * m).reshape(-1, 1, 81) @ COFACTOR_MAP
    cof = cof.reshape(-1, 3, 3)
    return cof, row_dots(M[:, 0], cof[:, 0])
