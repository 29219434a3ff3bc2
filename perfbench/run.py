"""Benchmark launcher: fixes the BLAS thread count, then runs one workload.

    python3 perfbench/run.py --workload surface|evolve|crosscheck \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory, so nothing needs to be installed. The workload runs in a
fresh process because BLAS reads its thread count only when NumPy loads.
That process's standard output is passed through; its last line is the
result object. On SIGTERM, or when the workload runs past TIMEOUT_S, the
launcher terminates it; the workload then stops its own set-up probes and
removes its working files before it exits.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread, so that a run occupies one core and no BLAS worker
# threads run outside the spans that the per-layer times are taken from.
BLAS_THREADS = 1

# Every run must end within 180 s; leave room for start-up and teardown.
TIMEOUT_S = 170


class Terminated(BaseException):
    """SIGTERM arrived; unwinds past handlers of Exception and SystemExit."""


def _terminate(signum, frame):
    raise Terminated


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "kerrcat" / "cli.py").is_file():
        print(f"no kerrcat source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    signal.signal(signal.SIGTERM, _terminate)
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        # the workload stops its own probes and removes its files on SIGTERM
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
