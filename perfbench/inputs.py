"""Seeded inputs for each workload.

Every draw is stratified: a category with n points splits each of its
ranges into n equal slices and draws one value near the centre of each
slice. Two seeds then give different points with nearly the same mix of
cheap and expensive work (the cost of a trajectory follows its horizon,
which the slice fixes to within JITTER), so the seed moves the inputs
without moving the figures.
"""
from __future__ import annotations

import math

import numpy as np

JITTER = 0.3

# (omega/omega*) ranges stay clear of omega* = beta^2/4, where the
# monotone/oscillatory verdict is ill-posed by design.
NODE_RATIO = (0.3, 0.8)
SPIRAL_RATIO = (1.5, 6.0)
# Lightly damped spirals: damping beta/sqrt(omega) in this range gives a
# default horizon of 150-300 and dozens of equilibrium crossings.
LIGHT_DAMPING = (0.1, 0.2)
BETA = (0.5, 1.0)

PICARD_NODES = (256, 512, 1024, 2048, 4096)
PICARD_HORIZON = (6.0, 10.0)

CLI_BIG_HORIZON = 40.0
CLI_BIG_STEP = 0.001


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _strata(rng, lo: float, hi: float, n: int) -> list[float]:
    """n values, one near the centre of each of n equal slices of [lo, hi]
    (within JITTER of a slice width), in random order."""
    offsets = 0.5 + JITTER * (rng.uniform(0.0, 1.0, n) - 0.5)
    values = lo + (hi - lo) * (np.arange(n) + offsets) / n
    return [float(x) for x in rng.permutation(values)]


def _omega(beta: float, ratio: float) -> float:
    return ratio * beta * beta / 4.0


def trajectory_points(seed: int) -> list[dict]:
    """14 (omega, beta, alpha) points: nodes and spirals, dry and wet
    starts, and two lightly damped spirals."""
    rng = _rng(seed, 1)
    points = []
    for kind, ratio, wet in (("node-dry", NODE_RATIO, False),
                             ("node-wet", NODE_RATIO, True),
                             ("spiral-dry", SPIRAL_RATIO, False),
                             ("spiral-wet", SPIRAL_RATIO, True)):
        betas = _strata(rng, *BETA, 3)
        ratios = _strata(rng, *ratio, 3)
        alphas = _strata(rng, 0.1, 1.5, 3) if wet else [0.0] * 3
        for beta, r, alpha in zip(betas, ratios, alphas):
            points.append({"kind": kind, "omega": _omega(beta, r),
                           "beta": beta, "alpha": alpha})
    betas = _strata(rng, 0.4, 1.0, 2)
    # One dry start, always on the lighter damping (the longer horizon), and
    # one start above the equilibrium height, away from alpha = 1. A dry
    # start costs more per crossing, so a seeded pairing would swing the
    # round's cost by half.
    dampings = sorted(_strata(rng, *LIGHT_DAMPING, 2))
    alphas = [0.0, _strata(rng, 1.1, 1.5, 1)[0]]
    for beta, gamma, alpha in zip(betas, dampings, alphas):
        points.append({"kind": "light-spiral", "omega": (beta / gamma) ** 2,
                       "beta": beta, "alpha": alpha})
    return points


def picard_ops(seed: int) -> list[dict]:
    """Two points, each solved on every grid in PICARD_NODES."""
    rng = _rng(seed, 2)
    betas = _strata(rng, *BETA, 2)
    omegas = _strata(rng, 0.1, 1.0, 2)
    horizons = _strata(rng, *PICARD_HORIZON, 2)
    # One dry start; the other keeps clear of alpha = 1, the equilibrium,
    # where the error vanishes and the order ratio is undefined.
    alphas = [0.0, _strata(rng, 0.2, 0.8, 1)[0]]
    ops = []
    for point, (beta, omega, horizon, alpha) in enumerate(
            zip(betas, omegas, horizons, alphas)):
        for nodes in PICARD_NODES:
            ops.append({"point": point, "omega": omega, "beta": beta,
                        "alpha": alpha, "horizon": horizon, "nodes": nodes})
    return ops


def _fmt(x: float) -> str:
    return repr(float(x))


def cli_script(seed: int, nondim_json: str) -> list[dict]:
    """One round of CLI commands. Output prefixes are relative to the
    directory the commands run in."""
    rng = _rng(seed, 3)

    def spiral():
        beta = _strata(rng, *BETA, 1)[0]
        return _omega(beta, _strata(rng, *SPIRAL_RATIO, 1)[0]), beta

    def model(omega, beta, alpha):
        return ["--omega", _fmt(omega), "--beta", _fmt(beta), "--alpha", _fmt(alpha)]

    ops = []

    def add(name, argv, expect="ok", known_fault=None, **facts):
        ops.append({"name": name, "argv": argv, "expect": expect,
                    "known_fault": known_fault, "facts": facts})

    omega, beta = spiral()
    alpha = _strata(rng, 0.0, 1.5, 1)[0]
    sim = ["simulate", *model(omega, beta, alpha), "--classify"]
    add("simulate-classify", sim + ["-o", "sim"],
        omega=omega, beta=beta, alpha=alpha, prefix="sim")
    # Same argv, other prefix: the two runs must write identical bytes.
    add("simulate-repeat", sim + ["-o", "sim_again"],
        omega=omega, beta=beta, alpha=alpha, prefix="sim_again")

    omega, beta = spiral()
    epsilon = 10.0 ** _strata(rng, -6.0, -3.0, 1)[0]
    add("simulate-epsilon",
        ["simulate", *model(omega, beta, 0.0), "--epsilon", _fmt(epsilon), "-o", "eps"],
        omega=omega, beta=beta, alpha=0.0, epsilon=epsilon, prefix="eps")

    omega, beta = spiral()
    alpha = _strata(rng, 0.0, 1.5, 1)[0]
    add("simulate-large-csv",
        ["simulate", *model(omega, beta, alpha), "--horizon", _fmt(CLI_BIG_HORIZON),
         "--sample-step", _fmt(CLI_BIG_STEP), "-o", "big"],
        omega=omega, beta=beta, alpha=alpha, horizon=CLI_BIG_HORIZON,
        sample_step=CLI_BIG_STEP, prefix="big")

    beta = _strata(rng, *BETA, 1)[0]
    omega = _strata(rng, 0.1, 1.0, 1)[0]
    alpha = _strata(rng, 0.0, 0.8, 1)[0]
    add("picard", ["picard", *model(omega, beta, alpha), "--horizon", "8", "-o", "pic"],
        omega=omega, beta=beta, alpha=alpha, horizon=8.0, prefix="pic")

    # Case 2 keeps a short horizon: its log(1 - h) oracle overflows once h
    # rounds to 1 (see the known fault below).
    for case, horizon in ((1, 10.0), (2, 4.0), (3, 10.0), (4, 20.0)):
        beta = _strata(rng, *BETA, 1)[0]
        alpha = _strata(rng, 0.0, 0.5, 1)[0]
        add(f"regime-case{case}",
            ["regime", "--case", str(case), "--beta", _fmt(beta), "--alpha", _fmt(alpha),
             "--horizon", _fmt(horizon), "-o", f"reg{case}"],
            case=case, beta=beta, alpha=alpha, horizon=horizon, prefix=f"reg{case}")

    omega, beta = spiral()
    add("classify", ["classify", *model(omega, beta, 0.0), "--output", "cls.json"],
        omega=omega, beta=beta, alpha=0.0, file="cls.json")

    alpha = _strata(rng, 0.0, 1.5, 1)[0]
    add("basin", ["basin", "--alpha", _fmt(alpha), "--output", "basin.json"],
        alpha=alpha, file="basin.json")

    add("nondim", ["nondim", "--input", nondim_json, "--output", "nondim.json"],
        file="nondim.json")

    # Out-of-range argvs, independent of the seed. The first is handled
    # today; the other two are known faults and count as failed until the
    # input boundary is closed.
    add("reject-alpha", ["simulate", "--omega", "1", "--beta", "1", "--alpha", "2",
                         "-o", "bad"], expect="config")
    add("reject-case2-alpha", ["regime", "--case", "2", "--beta", "1", "--alpha", "2",
                               "-o", "bad2"], expect="config",
        known_fault="NaN log1p(-h) oracle for h >= 1 ends in a ValueError traceback, exit 1")
    add("reject-beta-inf", ["regime", "--case", "1", "--beta", "inf", "-o", "bad3"],
        expect="config", known_fault="beta = inf passes validation and exits 3, not 2")
    return ops


def verify_order(seed: int, names: list[str]) -> list[str]:
    """The check names in a seeded order."""
    order = _rng(seed, 4).permutation(len(names))
    return [names[i] for i in order]


def default_horizon(omega: float, beta: float) -> float:
    """The program's documented default: 30 damping e-folds."""
    return min(30.0 * math.sqrt(omega) / beta, 1e6)
