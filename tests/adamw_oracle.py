"""The per-parameter AdamW update: the reference for ``numerics.AdamW.step``.

``adamw_loop_step`` walks the parameter list and updates one parameter
at a time, with its own finiteness check, as a loop over the same float
operations in the same order.  It is the reference the arena's whole-run
ufuncs are checked against; it has the signature of ``AdamW.step``, so a
test can monkeypatch it in and train a whole network through it.
"""

import numpy as np

from sparsegt.errors import DivergenceError


def adamw_loop_step(opt, epoch: int) -> float:
    """One update of ``opt`` at the scheduled rate for ``epoch``, parameter by
    parameter; returns the lr used.  Each parameter's moments are its slice
    of ``opt.m`` and ``opt.v``, which lay the parameters end to end in list
    order.  Every parameter must have a gradient; a non-finite one raises
    after the parameters before it have been updated."""
    lr = opt.schedule.lr_at(epoch)
    opt.step_count += 1
    t = opt.step_count
    b1, b2 = opt.beta1, opt.beta2
    hi = 0
    for name, p in opt.named_params:
        lo, hi = hi, hi + p.data.size
        g = p.grad
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient in {name!r}")
        m = opt.m[lo:hi].reshape(p.data.shape)
        v = opt.v[lo:hi].reshape(p.data.shape)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p.data -= (lr * (mhat / (np.sqrt(vhat) + opt.eps)
                         + opt.weight_decay * p.data)).astype(p.data.dtype)
    return lr
