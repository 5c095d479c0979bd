"""Central-difference gradient probing for the autodiff tests.

``finite_difference`` perturbs one element at a time and reruns the
forward pass under ``no_grad``; ``max_relative_error`` is the metric the
gradient checks compare the tape's gradients with it by.
"""

import numpy as np

import sparsegt.numerics as nm


def finite_difference(loss_fn, tensor: nm.Tensor, h: float = 1e-5) -> np.ndarray:
    """Central-difference d(loss)/d(tensor), elementwise.

    ``loss_fn`` must rebuild the forward pass from current tensor values;
    it is called under no_grad, twice per element.
    """
    flat = tensor.data.reshape(-1)
    out = np.zeros_like(flat, dtype=np.float64)
    with nm.no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = float(nm.as_tensor(loss_fn()).data)
            flat[i] = keep - h
            lo = float(nm.as_tensor(loss_fn()).data)
            flat[i] = keep
            out[i] = (hi - lo) / (2 * h)
    return out.reshape(tensor.data.shape)


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """max |a-b| / max(|a|, |b|, floor) — the gradient-check metric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())
