"""Independent reference solution: `python reference.py REQUEST_JSON OUT_NPZ`.

Runs in its own process, never in the one that is timed, so its scipy
import cannot mask a change in the program's import time or memory. It
shares no code with the program: its own u-form right-hand side

    u'' + (beta/sqrt(omega)) u' + sqrt(2u + epsilon) = 1,

its own power-series start for a dry pipe (alpha = 0, epsilon = 0),
where sqrt(2u) has a corner at u = 0, and an 8th-order Dormand-Prince
solve (scipy DOP853) at rtol 1e-13, atol 1e-15 with 7th-order dense
output. It samples (u, v) at the times the program reported.

The request is a JSON list of {"id", "omega", "beta", "alpha",
"epsilon", "times"}, where "times" names an array in the npz file next
to the request. Nothing is stored between runs: the reference is
recomputed from the request every time.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

RTOL, ATOL = 1e-13, 1e-15
SERIES_ORDER = 14


def series_coefficients(gamma: float, order: int = SERIES_ORDER) -> np.ndarray:
    """Taylor coefficients a_k of u(s) = sum a_k s^k for the dry start.

    With u = s^2/2 (1 + c_1 s + c_2 s^2 + ...), sqrt(2u) = s g(s) where
    g = sqrt(1 + c_1 s + ...), whose coefficients follow from g^2 = 1 + ...
    Matching s^k in u'' + gamma u' + s g(s) = 1 gives a_{k+2}.
    """
    a = np.zeros(order + 1)
    a[2] = 0.5
    c = np.zeros(order + 1)   # c_j = 2 a_{j+2}
    g = np.zeros(order + 1)   # sqrt(1 + sum c_j s^j)
    g[0] = 1.0
    for k in range(1, order - 1):
        # s^k: (k+2)(k+1) a_{k+2} + gamma (k+1) a_{k+1} + g_{k-1} = 0 for k >= 1
        a[k + 2] = -(gamma * (k + 1) * a[k + 1] + g[k - 1]) / ((k + 2) * (k + 1))
        c[k] = 2.0 * a[k + 2]
        g[k] = 0.5 * (c[k] - sum(g[j] * g[k - j] for j in range(1, k)))
    return a


def solve(omega: float, beta: float, alpha: float, epsilon: float,
          times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gamma = beta / math.sqrt(omega)

    def rhs(s, y):
        u, v = y
        return (v, 1.0 - gamma * v - math.sqrt(2.0 * max(u, 0.0) + epsilon))

    times = np.asarray(times, dtype=float)
    u = np.empty_like(times)
    v = np.empty_like(times)
    s0, y0 = 0.0, (0.5 * alpha * alpha, 0.0)
    early = np.zeros(times.shape, dtype=bool)
    if alpha == 0.0 and epsilon == 0.0:
        a = series_coefficients(gamma)
        s0 = 0.02 / (1.0 + gamma)
        k = np.arange(a.size)
        y0 = (float(np.sum(a * s0 ** k)), float(np.sum(k[1:] * a[1:] * s0 ** (k[1:] - 1))))
        early = times < s0
        te = times[early]
        u[early] = (a[None, :] * te[:, None] ** k[None, :]).sum(axis=1)
        v[early] = (k[None, 1:] * a[None, 1:] * te[:, None] ** (k[None, 1:] - 1)).sum(axis=1)
    end = float(np.max(times))
    if end > s0:
        sol = solve_ivp(rhs, (s0, end), y0, method="DOP853", rtol=RTOL, atol=ATOL,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference solve failed: {sol.message}")
        late = ~early
        u[late], v[late] = sol.sol(times[late])
    else:
        u[~early], v[~early] = y0
    return u, v


def main():
    request = json.loads(Path(sys.argv[1]).read_text())
    arrays = np.load(Path(sys.argv[1]).with_suffix(".npz"))
    out = {}
    for item in request:
        u, v = solve(item["omega"], item["beta"], item["alpha"], item.get("epsilon", 0.0),
                     arrays[item["times"]])
        out[f"{item['id']}/u"] = u
        out[f"{item['id']}/v"] = v
    np.savez(sys.argv[2], **out)


if __name__ == "__main__":
    main()
