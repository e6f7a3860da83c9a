"""Helpers shared by the benchmark's harness and program-side runner.

Everything here uses the standard library and ``/proc`` only: the
benchmark's clocks must not move when the program's own timing or
observability code changes.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Where runs keep their scratch files and their span dumps.
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Percentiles the benchmark may report, highest first.
_PERCENTILES = (99, 95, 90, 50)


#: What one calibration loop takes on the reference machine, by definition.
CALIBRATION_NOMINAL_S = 0.03


def _calibration_loop() -> int:
    """Fixed stdlib work shaped like parsing a tree collection: many small
    linked objects, all kept alive until the end, so that caches and the
    allocator see a growing heap as they do in the program."""
    rng = random.Random(1)
    forest = []
    for _ in range(1500):
        nodes = [[i, None, []] for i in range(40)]
        for i in range(1, 40):
            parent = nodes[rng.randrange(i)]
            nodes[i][1] = parent
            parent[2].append(nodes[i])
        forest.append(nodes)
    return sum(len(node[2]) for nodes in forest for node in nodes)


def calibrate(samples: int = 5) -> float:
    """Median seconds of the calibration loop right now.

    On a shared host the CPU speed a process gets can drift by 2x over
    minutes as other tenants come and go, and the program's time drifts
    with it.  Timings are reported scaled by
    ``CALIBRATION_NOMINAL_S / calibrate()`` measured right before and
    after them, which cancels the drift the program and the loop share.
    """
    gc.collect()
    # The collector is off so that the loop's cost does not depend on how
    # many objects the calling process happens to hold.
    gc.disable()
    try:
        times = []
        for _ in range(samples):
            t0 = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor turning a time measured between two calibrations into
    reference-machine time."""
    return CALIBRATION_NOMINAL_S / ((before + after) / 2)


def program_env() -> dict[str, str]:
    """Environment for a child process that imports the program from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n_samples: int) -> int | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    for pct in _PERCENTILES:
        if n_samples * (100 - pct) / 100 >= 10:
            return pct
    return None


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[11], fields[12] are utime and stime (stat fields 14 and 15).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def write_json(path: Path, obj) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj), encoding="utf-8")
    tmp.replace(path)


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))
