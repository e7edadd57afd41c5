"""Record the reference outputs the benchmark checks against.

    python3 bench/record_golden.py

Runs against ``src/`` and writes ``golden.json`` with one mapping per
workload:

* ``certify-search``: each call of ``CertifySearch.fixed_calls``, argv
  (as a JSON list) -> exit code and stdout.  A call that raises instead
  of returning an exit code is stored as null; the benchmark then checks
  only that it ends with a documented exit code.
* ``subgroup-ladder``: each operation of the seed-independent reference
  cycle, its inputs as words -> the canonical words of H, K and the
  meet, the membership answer and the exact rank (null if inexact).

Run it only at a commit whose outputs are the reference.
"""

from __future__ import annotations

import json

from run import import_fixlab
from workloads import GOLDEN_PATH, CertifySearch, SubgroupLadder, Tally, golden_key, run_cli


class UnrecordedLadder(SubgroupLadder):
    """subgroup-ladder before its reference outputs exist."""

    def __init__(self):
        self.golden = {}


def main() -> None:
    fx = import_fixlab()
    cli = {}
    for _, argv in CertifySearch.fixed_calls:
        try:
            res = run_cli(fx, argv)
        except Exception:  # noqa: BLE001 - recorded as "no reference output"
            cli[golden_key(argv)] = None
            continue
        cli[golden_key(argv)] = {"code": res.code, "stdout": res.stdout}
    ladder, wl = {}, UnrecordedLadder()
    for op in wl.cycle(fx, None, -1):
        ladder[wl.golden_key(fx, op)] = wl.golden_value(fx, wl.run(fx, op, Tally()))
    golden = {CertifySearch.name: cli, SubgroupLadder.name: ladder}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
