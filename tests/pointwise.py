"""Brute-force references.  For product-form integrands each factor is
read at every point of the full grid through ``np.meshgrid`` of the node
indices, with no contraction; the Airy kernel is summed from its
half-line integral."""

import numpy as np

from airykpz.specfun import airy_both


def factor_grid(axis, pairs):
    """The product of the per-axis factors and pair tables at every grid
    point, as an array of shape (n_0, ..., n_{l-1})."""
    axis = [np.atleast_1d(a) for a in axis]
    idx = np.meshgrid(*(np.arange(a.size) for a in axis), indexing="ij")
    vals = np.ones(idx[0].shape, dtype=complex)
    for i, a in enumerate(axis):
        vals = vals * a[idx[i]]
    for (i, j), t in pairs.items():
        vals = vals * t[idx[i], idx[j]]
    return vals


def pointwise_sum(f, rules):
    """sum over the full grid of prod(weights) * f, f in the factor form
    ``tensor_integrate`` takes; complex, so a test sees the imaginary part."""
    axis, pairs = f(*(r.nodes for r in rules))
    idx = np.meshgrid(*(np.arange(len(r)) for r in rules), indexing="ij")
    w = np.ones(idx[0].shape)
    for i, r in enumerate(rules):
        w = w * r.weights[idx[i]]
    return complex(np.sum(w * factor_grid(axis, pairs)))


def half_line_kernel(xs, ys, rule):
    """K(x, y) = int_0^inf Ai(x + a) Ai(y + a) da on the nodes of ``rule``
    for every x in xs and y in ys, an array of shape (len(xs), len(ys)).
    Summed as w * (Ai(x+a) * Ai(y+a)), so it is bit-symmetric in x and y."""
    ax, _ = airy_both(np.add.outer(np.atleast_1d(xs), rule.nodes))
    ay, _ = airy_both(np.add.outer(np.atleast_1d(ys), rule.nodes))
    return np.sum(rule.weights * (ax[:, None, :] * ay[None, :, :]), axis=-1)
