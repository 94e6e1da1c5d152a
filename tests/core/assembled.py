"""Apply single-axis stencil bands through an assembled operator.

The operator tests check each fixed stencil as the sweeps use it: its
bands assembled into a :class:`~repro.core.operators.KroneckerSum`,
the other axis' bands zero.
"""

import numpy as np

from repro.core.operators import KroneckerSum


def apply(op, fields, q_scale):
    """``op`` applied to every lane of ``fields``, as a new array."""
    return op.add_to(np.zeros(fields.shape), fields, np.asarray(q_scale, dtype=float))


def along_h(bands, fields):
    """Apply fading-axis bands, shared by every lane."""
    b, _, n_q = fields.shape
    return apply(KroneckerSum(bands, np.zeros((3, n_q))), fields, np.zeros(b))


def along_q(bands, fields, q_scale):
    """Apply unit-spacing cache-axis bands, scaled per lane by ``q_scale``."""
    n_h = fields.shape[1]
    return apply(KroneckerSum(np.zeros((3, n_h)), bands), fields, q_scale)
