"""One measured process: import vicontrol, then run one CLI command.

    python3 worker.py SPAWNED setup
    python3 worker.py SPAWNED run|trace CONFIG COMMAND SEED

SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers process start, the interpreter and the imports
of vicontrol, numpy, scipy and yaml. `run` times `vicontrol.cli.main`;
`trace` does the same with every layer wrapped (see layers.py) and adds the
per-layer metrics. The result is one JSON object on the last stdout line.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    spawned, mode = float(argv[1]), argv[2]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import vicontrol.cli

    result = {"setup_s": time.monotonic() - spawned}
    if src not in Path(vicontrol.__file__).resolve().parents:
        print(f"imported vicontrol from {vicontrol.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode != "setup":
        config, command, seed = argv[3:6]
        tracer = None
        if mode == "trace":
            import layers

            tracer = layers.Tracer()
            layers.install(tracer)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        result["exit_code"] = vicontrol.cli.main(
            ["--config", config, "--seed", seed, "--quiet", command]
        )
        result["wall_s"] = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result["peak_rss_mb"] = after.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if tracer is not None:
            result["layers"] = layers.layer_metrics(tracer)
            result["observations"] = layers.observations(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
