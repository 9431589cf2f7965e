"""Recount the basis sizes that reference.py copies from the program.

    python3 perfbench/recount.py

Runs ``natops basis`` for every slice the cochain workload covers and
compares the counts with ``reference.DEGREE0_SIZES`` / ``DEGREE1_SIZES``
and with the closed forms.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import reference
from workloads import COCHAIN_SLICES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count(family, d, degree):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-m", "natops", "basis", "--family", family,
         "--d", str(d), "--degree", str(degree)],
        env=env, check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    return len(json.loads(out)["graphs"])


def main():
    bad = 0
    for family, d in COCHAIN_SLICES:
        n0, n1 = count(family, d, 0), count(family, d, 1)
        want0 = reference.degree0_size(family, d)
        want1 = reference.DEGREE1_SIZES[(family, d)]
        ok = (n0, n1) == (want0, want1)
        bad += not ok
        print("%-20s d=%d  degree0 %5d (reference %5d)  degree1 %5d "
              "(reference %5d)  %s" % (family, d, n0, want0, n1, want1,
                                       "ok" if ok else "DIFFERS"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
