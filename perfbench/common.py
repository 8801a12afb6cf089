"""Helpers shared by the benchmark's processes.

Nothing here imports washburn or scipy: run.py and the timed worker both
load this module.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("trajectory-sweep", "picard-sweep", "cli-session", "verify-suite")

# A tail percentile with ten samples beyond it needs at least this many
# samples to be a tail at all.
TAIL_MIN_OPS = 40


def program_env() -> dict:
    """Environment for a child that runs the program from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("PYTHONWARNINGS", None)
    return env


def fingerprint(*parts) -> str:
    """Digest of arrays, bytes and plain values, used to show that every
    repetition of an operation produced the output that was checked."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def output_digest(out: dict) -> str:
    """Fingerprint of one operation's output dict: the digest the CLI
    runner already took of the files, or of the values themselves. Plain
    values go through JSON first, so the digest survives the saved file."""
    if "digest" in out:
        return out["digest"]
    return fingerprint(*(x for key in sorted(out) for x in (
        key, out[key] if isinstance(out[key], np.ndarray)
        else json.dumps(out[key], default=_jsonable, sort_keys=True))))


def tail_ms(latencies_ms: list[float]) -> float | None:
    """Highest percentile with at least ten samples beyond it, or None
    when the run has fewer than TAIL_MIN_OPS samples."""
    if len(latencies_ms) < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies_ms)
    return ordered[len(ordered) - 11]


class SpeedGauge:
    """How slowly this machine runs at the moment, from fixed kernels that
    never call the program.

    The shared host runs the same code up to 1.8 times slower for seconds
    to minutes at a time, and CPU time grows with wall time, so no clock
    hides it. Timings are divided by `factor()` taken just before and
    just after them: the result is the time at the speed at which the
    kernels take their REFERENCE_S. The slowdowns do not reach every kind
    of work alike, so each workload names the kernels made of the work
    its time is made of (see README), and the factor is the geometric
    mean of their slowdowns.
    """

    REFERENCE_S = {"rk_steps": 0.005, "objects": 0.002, "stream": 0.005,
                   "fresh_8mb": 0.004, "fresh_64mb": 0.02, "child_imports": 0.1}
    # Dormand-Prince tableau (the RK5(4) pair the program integrates with).
    A = np.array([[0, 0, 0, 0, 0],
                  [1 / 5, 0, 0, 0, 0],
                  [3 / 40, 9 / 40, 0, 0, 0],
                  [44 / 45, -56 / 15, 32 / 9, 0, 0],
                  [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
                  [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]])
    B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
    E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
                  -1 / 40])

    def __init__(self, kernels: tuple[str, ...]):
        self._big = np.linspace(0.0, 1.0, 1 << 18)
        self._tmp = np.empty_like(self._big)
        self._kernels = [(getattr(self, "_" + name), self.REFERENCE_S[name])
                         for name in kernels]

    @staticmethod
    def _rhs(y):
        return np.array([y[1], 1.0 - 0.3 * y[1] - math.sqrt(2.0 * abs(y[0]) + 1e-12)])

    def _rk_steps(self):
        y, h, k = np.array([0.5, 0.0]), 0.05, np.empty((7, 2))
        for _ in range(150):
            k[0] = self._rhs(y)
            for stage in range(1, 6):
                k[stage] = self._rhs(y + h * (self.A[stage, :stage] @ k[:stage]))
            y_new = y + h * (self.B @ k[:6])
            k[6] = self._rhs(y_new)
            np.linalg.norm(h * (self.E @ k) / (1e-6 + 1e-3 * np.abs(y_new)))
            y = y_new

    def _objects(self):
        table = {}
        for i in range(3000):
            key = i % 97
            table[key] = table.get(key, 0.0) + _Pair(i, 0.5 * i).mix()
        rows = sorted(table.items(), key=lambda kv: kv[1])
        json.loads(json.dumps(rows))

    def _stream(self):
        for _ in range(8):
            np.multiply(self._big, 2.0, out=self._tmp)
            np.add(self._tmp, 1.0, out=self._tmp)
            np.sqrt(self._tmp, out=self._tmp)

    @staticmethod
    def _fresh_8mb():
        for _ in range(3):
            pages = np.ones(1 << 20)
            pages[::512] += 1.0

    @staticmethod
    def _fresh_64mb():
        pages = np.ones(1 << 23)
        pages[::512] += 1.0

    @staticmethod
    def _child_imports():
        """A fresh interpreter that imports pure-Python standard modules:
        start-up and import, what the program's child processes mostly do,
        without the program (-I keeps PYTHONPATH out)."""
        subprocess.run([sys.executable, "-I", "-c",
                        "import argparse, csv, decimal, email.parser, json"],
                       check=True, capture_output=True, timeout=60)

    def factor(self) -> float:
        """The slowdown against REFERENCE_S; 1.0 for a gauge of no kernels."""
        product = 1.0
        for kernel, reference in self._kernels:
            t0 = time.perf_counter()
            kernel()
            product *= (time.perf_counter() - t0) / reference
        return product ** (1.0 / max(len(self._kernels), 1))


class _Pair:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def mix(self):
        return self.a * self.b + len(str(self.a))


def median(values) -> float:
    return float(statistics.median(values))


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1, default=_jsonable))


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def fail(message: str, code: int = 2):
    """Stop without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)
