"""Record reference.json: the checked output values of every workload.

    python3 bench/record.py

run.py compares each run against these values: the sweep rates to three
significant digits, the scan counts and worst margins for seeds 0-9, the
optimizer's cost, convergence and iteration count, and, for the PSOR
workload, the PDAS state of the same problem. Re-record only for a change
that is meant to alter these outputs, and say so in the change.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import run

SCAN_SEEDS = range(10)


def record(name: str, seed: int, overrides: dict) -> dict:
    out = run.OUT_ROOT / "record" / f"{name}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config, cfg = run.write_config(name, seed, out, overrides)
    args = [str(config), run.WORKLOADS[name].command, str(seed)]
    result, problem = run.spawn("run", args, time.monotonic() + run.RUN_LIMIT_S)
    if result is None or result["exit_code"] != 0:
        sys.exit(f"{name} seed {seed} failed: {problem or result}")
    return run.FACTS[name](Path(cfg["out"]), cfg)


def main() -> None:
    scan = {}
    for seed in SCAN_SEEDS:
        scan.update(record("scan-16", seed, {}))
    reference = {
        "sweep-512": record("sweep-512", 0, {}),
        "scan-16": scan,
        "optimize-128": record("optimize-128", 0, {}),
        "psor-32": {"pdas_u": record("psor-32", 0, {"solver": "pdas"})["u"].tolist()},
    }
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
