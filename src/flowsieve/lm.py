"""Damped Gauss-Newton least-squares minimizer.

Minimizes cost(theta) = (1/2)||r(theta)||^2 by solving
(J^T J + mu I) delta = -J^T r each iteration, shrinking mu after an
accepted step and growing it after a rejected one. The caller supplies
J^T J and J^T r, never J itself, so it may build them without holding J;
normal_fn and the callback see only the point residual_fn saw last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class LmResult:
    theta: np.ndarray
    reason: str = ""
    iterations: int = 0


def minimize_least_squares(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    normal_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    theta0: np.ndarray,
    *,
    mu_init: float = 1e-3,
    mu_up: float = 10.0,
    mu_down: float = 0.1,
    mu_max: float = 1e10,
    max_iterations: int = 100,
    gradient_tol: float = 1e-7,
    callback: Callable[[np.ndarray, float], bool] | None = None,
) -> LmResult:
    """Run damped Gauss-Newton from theta0.

    residual_fn(theta) gives r, and normal_fn(theta) gives (J^T J, J^T r)
    at theta, as new arrays: J^T J is damped in place. A step is accepted
    only if it strictly decreases the cost; the optional callback sees
    (theta, cost) after each accepted step and may stop the run by
    returning False. Stop reasons: "gradient", "mu_max", "max_iterations",
    "callback". The mu defaults are the trainlm schedule of Hagan and Menhaj (1994).
    """
    theta = np.array(theta0, dtype=np.float64, copy=True)
    r = residual_fn(theta)
    cost = 0.5 * float(r @ r)
    result = LmResult(theta=theta)
    mu = float(mu_init)

    for iteration in range(max_iterations):
        hessian_approx, gradient = normal_fn(theta)
        if np.linalg.norm(gradient) < gradient_tol:
            result.reason = "gradient"
            break
        diagonal = hessian_approx.diagonal().copy()  # damped in place for each trial
        accepted = False
        while not accepted:
            np.fill_diagonal(hessian_approx, diagonal + mu)
            try:
                delta = np.linalg.solve(hessian_approx, -gradient)
            except np.linalg.LinAlgError:  # unreachable for mu > 0
                raise RuntimeError("singular normal equations despite damping")
            candidate = theta + delta
            r_new = residual_fn(candidate)
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new < cost:
                theta, cost = candidate, cost_new
                mu = max(mu * mu_down, 1e-300)
                accepted = True
            else:
                mu *= mu_up
                if mu > mu_max:
                    result.reason = "mu_max"
                    break
        if not accepted:
            break
        del hessian_approx  # so normal_fn builds the next one beside no other
        result.iterations = iteration + 1
        if callback is not None and not callback(theta, cost):
            result.reason = "callback"
            break
    else:
        result.reason = "max_iterations"

    result.theta = theta
    return result
