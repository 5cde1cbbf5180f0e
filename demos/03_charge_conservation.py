"""Singular charge bookkeeping on the boundary surface.

The restriction of a frame field to the boundary behaves like a surface
cross field: every boundary vertex carries a quarter-integer index, and on
a ball-like solid the indices must add up to exactly 2.  The sum is taken
in exact rational arithmetic, so the identity holds to the last bit, not
just to a tolerance.  Singular curves hitting the surface show up as the
fractional charges.
"""

import os
from fractions import Fraction

from hexframe.boxgen import generate_box
from hexframe.meshio import read_medit
from hexframe.singularities import surface_cross_indices
from hexframe.solver import compute_field

HERE = os.path.dirname(__file__)


def load(name):
    if name == "cube":
        return generate_box(6, 6, 6)
    return read_medit(os.path.join(HERE, "..", "fixtures", name + ".mesh"))


for name in ("cube", "notch"):
    mesh = load(name)
    field = compute_field(mesh)
    _, per_vertex, total = surface_cross_indices(field)
    print("%s: %d charged boundary vertices, total charge = %s"
          % (name, len(per_vertex), total))
    by_value = {}
    for q in per_vertex.values():
        by_value[q] = by_value.get(q, 0) + 1
    for q in sorted(by_value):
        print("   charge %s/4: %d vertices" % (q, by_value[q]))
    assert total == Fraction(2)
