"""Octahedral frames as 9-coefficient vectors.

A frame (three unordered orthogonal axes) is encoded as the coefficient
vector of a degree-4 spherical harmonic polynomial.  This script shows the
reference frame, equivariance under rotation, invariance under the 24
octahedral symmetries, and projection of a noisy vector back onto the
frame manifold.
"""

import numpy as np

import hexframe.frames as fr


def rot(axis, angle):
    axis = np.asarray(axis, float) / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


print("reference coefficients:")
print(np.round(fr.REFERENCE_COEFFS, 6))
print("norm:", np.linalg.norm(fr.REFERENCE_COEFFS))

# equivariance: rotating the frame rotates the coefficients
R = rot([1, 2, 3], 0.7)
c = fr.coeffs_from_rotation(R)
print("\nrotated frame coefficients (axis [1,2,3], angle 0.7):")
print(np.round(c, 6))

# octahedral invariance: all 24 symmetries give the same vector
spread = max(
    np.linalg.norm(fr.coeffs_from_rotation(R @ g) - c) for g in fr.OCTA_GROUP
)
print("max deviation over the 24 symmetries: %.2e" % spread)

# projection: recover the frame from a perturbed vector
rng = np.random.default_rng(0)
noisy = c + 0.2 * rng.standard_normal(9)
R_proj, c_proj = fr.project_to_octahedral(noisy)
print("\nprojection of a noisy vector:")
print("recovered alignment |c_proj . c| = %.9f" % abs(c_proj @ c))

# the closest frame axis to an arbitrary direction
d = np.array([0.9, 0.1, 0.2])
a = fr.closest_direction(d, R_proj)
print("closest frame axis to %s: %s" % (d, np.round(a, 4)))
