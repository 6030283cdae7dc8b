"""Set-up probe: a fresh interpreter does a workload's set-up once, then says so.

    python3 perfbench/probe.py SPEC.json

SPEC lists the workload's procedure configs.  The probe imports
``fwerstream``, parses every config and builds every scheduler (or, with
``"runners": true``, every whole-stream runner), which certifies each
weight series.  It then prints ``ready`` and the system-wide monotonic
clock; the benchmark times a probe from its launch to that reading, which
is the set-up a user of the command line pays before the first p-value is
decided.
"""

import json
import sys
import time


def main(spec_path: str) -> int:
    import fwerstream.cli  # the command line's own imports are part of its set-up

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    configs = [fwerstream.ProcedureConfig.from_dict(d) for d in spec["procedures"]]
    for cfg in configs:
        if spec["runners"]:
            fwerstream.make_runner(cfg)
        else:
            cfg.build(batch_ids=[])
    print("ready", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
