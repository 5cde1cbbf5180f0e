"""Repair 3-5 singular curves by snapping them to the boundary.

The notch model produces one singular curve with valence 3 at one end and
5 at the other.  Snapping relocates that curve onto the boundary surface:
each endpoint is matched to a nearby feature vertex, a shortest boundary
path connects them, and the frames along the path are re-imposed rotated
45 degrees about the path tangent.  Re-solving under these constraints
removes the 3-5 curve.  Run time is a few seconds (several full solves).
"""

import os

import numpy as np

from hexframe.correction import snap_35_curves, snap_until_clean
from hexframe.meshio import read_medit
from hexframe.singularities import detect_35, extract_graph
from hexframe.solver import compute_field

HERE = os.path.dirname(__file__)

mesh = read_medit(os.path.join(HERE, "..", "fixtures", "notch.mesh"))
field = compute_field(mesh)
graph = extract_graph(field)
print("before: %d chains, %d flagged 3-5" % (
    len(graph.chains), len(detect_35(graph))))

for snap in snap_35_curves(mesh, graph):
    print("  %r" % snap)
    for end, (kind, v) in sorted(snap.targets.items()):
        print("    %s endpoint -> %s vertex %d at %s"
              % (end, kind, v, np.round(mesh.vertices[v], 3)))

plan, corrected = snap_until_clean(mesh, field, graph)
final = extract_graph(corrected)
print("after: %d chains, %d flagged 3-5" % (
    len(final.chains), len(detect_35(final))))
