"""Central-difference check of hand-derived gradients, shared by the tests."""

import numpy as np


def finite_diff_check(loss, params, analytic_grad, h: float = 1e-4) -> float:
    """Max relative error between central differences and an analytic gradient.

    `loss` maps a flat parameter vector to a scalar. The relative error at
    coordinate i is |cd_i - g_i| / max(1e-8, |g_i|); the maximum over all
    coordinates is returned.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if params.shape != analytic_grad.shape:
        raise ValueError("params and analytic_grad must have the same shape")
    worst = 0.0
    for i in range(params.size):
        bump = np.zeros_like(params)
        bump[i] = h
        up = float(loss(params + bump))
        down = float(loss(params - bump))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError(f"loss is non-finite near coordinate {i}")
        cd = (up - down) / (2.0 * h)
        err = abs(cd - analytic_grad[i]) / max(1e-8, abs(analytic_grad[i]))
        worst = max(worst, err)
    return worst
