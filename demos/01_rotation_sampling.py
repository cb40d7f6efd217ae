# Sampling uniform 3D rotations
#
# The encoder's whole premise is averaging over rotations drawn from the
# rotation group's invariant measure. This script samples rotations, checks
# the group invariants, and shows the Monte-Carlo mean of the matrix
# entries collapsing toward zero (the exact group average) as the sample
# grows.

import numpy as np

from rotenc.geometry import rotation_defect, sample_rotations

# one seeded draw: every matrix is orthogonal with det +1
rots = sample_rotations(5, 0)
print("first sampled rotation:\n", np.round(rots[0], 4))
for i, rot in enumerate(rots):
    ortho, det = rotation_defect(rot)
    print(f"rotation {i}: max|RR^T - I| = {ortho:.2e}, |det - 1| = {det:.2e}")

# the group average of R is the zero matrix; the sample mean shrinks
# like 1/sqrt(N)
print("\nmax |mean entry| vs sample size")
for n in (16, 64, 256, 1024, 4096):
    rots = sample_rotations(n, 42)
    print(f"  N = {n:5d}: {np.max(np.abs(np.mean(rots, axis=0))):.4f}")

# determinism: the same (k, seed) reproduces bit-identical samples
print("\nbit-identical resample:", np.array_equal(rots, sample_rotations(4096, 42)))
