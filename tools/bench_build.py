"""Cold build_F(N) timings, one fresh process per level, in BENCH_<label>.json.

    python tools/bench_build.py LABEL [--src DIR]

Each level is built cold, in a new Python process. Per level the file
records the wall time of build_F, the peak RSS of the process (ru_maxrss)
and the sha256 of F's JSON; it also records the machine, the Python version
and whether gmpy2 is importable. --src points at another checkout's src/
to measure it with the same script.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEVELS = (5, 7, 8, 9)

CHILD = """
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from genlambda.minpoly import build_F
start = time.perf_counter()
F = build_F(int(sys.argv[2]))
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": round(wall, 2),
    "ru_maxrss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "sha256": hashlib.sha256(F.to_json().encode()).hexdigest(),
}))
"""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args()
    builds = {}
    for n in LEVELS:
        out = subprocess.run(
            [sys.executable, "-c", CHILD, os.path.abspath(args.src), str(n)],
            capture_output=True, text=True, check=True,
        ).stdout
        builds[str(n)] = json.loads(out)
        print(f"N = {n}: {builds[str(n)]}", flush=True)
    record = {
        "label": args.label,
        "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(), "system": platform.system()},
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "builds": builds,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
