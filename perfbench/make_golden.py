"""Record the output digest of every pool request of the CLI workloads.

    python3 perfbench/make_golden.py

Run from the root of a checkout, at the commit whose output is the contract.
Every request must exit 0 and pass the oracle before its digest is written;
the benchmark then requires each op's output to match these digests byte
for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from djcalc import cli  # noqa: E402


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in ("count_stream", "grid_sweep"):
        pool = workloads.build_pool(workload)
        digests = []
        for cls, members in enumerate(pool):
            start = perf_counter()
            for req in members:
                result = cli.run(list(req.argv))
                outcome = workloads.check_cli(req, result, None)
                if not outcome.ok:
                    print(f"{workload}: {' '.join(req.argv)}: {outcome.reason}", file=sys.stderr)
                    return 1
                digests.append(workloads.output_digest(*result))
            mean_ms = (perf_counter() - start) * 1e3 / len(members)
            print(f"{workload} class {cls}: {len(members)} requests, mean {mean_ms:.1f} ms")
        data = {"pool_sha256": workloads.pool_sha256(pool), "digests": digests}
        workloads.golden_path(workload).write_text(json.dumps(data, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
