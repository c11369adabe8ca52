"""Hot inner loops of the tied-level samplers, vectorized with numpy.

The kernels take pre-drawn uniforms or already placed children, never a
generator, so how a kernel is written cannot change which draws a sampler
makes or the networks it returns.
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
    keep = uniforms.reshape(-1, b, b) < theta_flat.reshape(b, b)
    parent_idx, dr, dc = np.nonzero(keep)
    return rows[parent_idx] * b + dr, cols[parent_idx] * b + dc


def block_children(rows, cols, parent_idx, block_pos, b):
    """Row/column indices of child ``block_pos`` of parent ``parent_idx``.

    ``block_pos`` numbers the b*b children of a parent row-major, so child
    (dr, dc) of parent p is cell (rows[p]*b + dr, cols[p]*b + dc).  The
    children come back in the order of the given pairs.
    """
    dr, dc = np.divmod(block_pos, b)
    return rows[parent_idx] * b + dr, cols[parent_idx] * b + dc

