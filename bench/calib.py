"""Host-speed calibration: timings scaled to a reference machine.

The benchmark runs on cores shared with other tenants, whose speed drifts
by up to a factor of 1.7 within seconds and from one minute to the next;
steal time stays near zero, so the drift is in the core itself, not in
scheduling, and CPU time drifts with wall time.  Every timing of the
end-to-end metrics is therefore scaled by the speed of the machine during
the pass.  A fixed probe that does not touch germindex or sympy is timed
before every request and once at the end, on the same core (see
pin_to_one_cpu), and every time t measured in the pass reads

    t * ref_s / (mean probe time of the pass)

that is, the seconds it would have taken on a machine that runs the probe
in ref_s.  There are two probes, one for each kind of timed work:

kernel   for requests that run in the measuring process: a small exact
         polynomial product in pure Python (interpreter, hashing,
         allocation), run with the garbage collector off so that the
         program's heap does not change its time.
child    for requests that start a fresh Python process: a fresh
         interpreter that imports a fixed set of standard-library modules
         (process start, unmarshalling and module execution).

The probes are interleaved with the requests, so their mean follows the
machine's speed over the same stretch of time as the requests' total.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time

CHILD_IMPORTS = ("argparse, ast, csv, dataclasses, decimal, email.message, "
                 "fractions, http.client, inspect, json, logging, pathlib, "
                 "typing, unittest, xml.dom.minidom")


def kernel() -> int:
    """A product of two dict-of-monomials polynomials with small integer
    coefficients: interpreter dispatch, hashing and allocation, as in the
    program's own exact arithmetic."""
    a = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(12) for j in range(12 - i)}
    out: dict[tuple, int] = {}
    for (i, j), c in a.items():
        for (k, m), d in a.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + c * d
    return len(out)


def kernel_probe() -> None:
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
    finally:
        if enabled:
            gc.enable()


def child_probe() -> None:
    subprocess.run([sys.executable, "-c", f"import {CHILD_IMPORTS}"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)


# probe -> (function, its time on the reference machine)
PROBES = {"kernel": (kernel_probe, 0.002), "child": (child_probe, 0.17)}


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one core, so that
    the probes are timed on the core the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Calibration:
    """The probe times of one pass."""

    def __init__(self, probe: str, clock=time.perf_counter):
        self.probe, self.ref_s = PROBES[probe]
        self.clock = clock
        self.took: list[float] = []

    def sample(self) -> None:
        t = self.clock()
        self.probe()
        self.took.append(self.clock() - t)

    def mean_s(self) -> float:
        return sum(self.took) / len(self.took)

    def scale(self) -> float:
        """Factor from this machine's seconds to the reference machine's."""
        return self.ref_s / self.mean_s()
