"""Trace streamlines of a frame field through a tet mesh.

A streamline follows, at every point, the frame axis closest to its
current heading (classic RK4, with the axis re-selected at each stage).
On a cube the field is constant, so streamlines are straight; near a
boundary the integrator clips the final step to land on the surface.
"""

import os

import numpy as np

from hexframe.boxgen import generate_box
from hexframe.meshio import read_medit, write_vtk_graph
from hexframe.solver import compute_field
from hexframe.tracing import TracerConfig, trace

HERE = os.path.dirname(__file__)

mesh = generate_box(6, 6, 6)
field = compute_field(mesh)

config = TracerConfig(step_size=0.02)
line = trace(field, np.array([0.1, 0.37, 0.44]), np.array([1.0, 0.0, 0.0]),
             config)
pts = np.asarray(line.points)
print("cube streamline: %d points, stop reason %r" % (len(pts), line.termination))
print("  start %s end %s" % (np.round(pts[0], 4), np.round(pts[-1], 4)))
drift = np.abs(pts[:, 1:] - pts[0, 1:]).max()
print("  lateral drift: %.2e (field is constant, line is straight)" % drift)

# seed a fan of streamlines inside the notch model and export them
mesh = read_medit(os.path.join(HERE, "..", "fixtures", "notch.mesh"))
field = compute_field(mesh)
lines = []
for y in np.linspace(0.2, 0.8, 7):
    lines.append(trace(field, np.array([0.05, y, 0.5]),
                       np.array([1.0, 0.0, 0.0]), config))
for ln in lines:
    p = np.asarray(ln.points)
    print("notch streamline y=%.2f: %3d points, exits at %s (%s)"
          % (p[0, 1], len(p), np.round(p[-1], 3), ln.termination))

out = os.path.join(HERE, "notch_streamlines.vtk")
write_vtk_graph(lines, out)
print("wrote", out)
