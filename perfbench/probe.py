"""Set-up probe: a fresh interpreter imports csop and runs the warm-up jobs.

    python3 perfbench/probe.py WORKDIR

Prints ``ready`` once `csop` and `csop.cli` are imported and one small call
per layer has returned; `run.py` times the interval from starting this
interpreter to that line.  Exits 1 if a warm-up job fails its check.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(workdir: str) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import csop  # noqa: F401
    import csop.cli  # noqa: F401
    import workloads
    from run import Tally

    tally = Tally()
    tally.run(workloads.warmup_jobs(workdir))
    print("ready", flush=True)
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
