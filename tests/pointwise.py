"""Brute-force references for product-form integrands: each factor is
read at every point of the full grid through ``np.meshgrid`` of the node
indices, with no contraction."""

import numpy as np


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
