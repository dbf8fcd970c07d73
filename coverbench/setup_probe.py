"""Set-up a CLI user pays on every run: import, validate, build the density.

Run in a fresh interpreter as ``python3 setup_probe.py CONFIG``. It prints
``time.monotonic()`` at the moment the density is ready; the parent reads
the clock before starting the interpreter, and the difference is set-up time.
"""
import sys
import time
from pathlib import Path

import yaml

from coverkit import ConvexPolygon, runner


def main(config: str) -> int:
    path = Path(config)
    report = runner.validate(path)
    if not report.ok:
        print(report.to_json(), file=sys.stderr)
        return 2
    cfg = yaml.safe_load(path.read_text())
    # the constructor call runner.run makes, with the same arguments
    runner._build_density(cfg["density"],
                          ConvexPolygon(cfg.get("workspace", runner.UNIT_SQUARE)),
                          path.parent)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
