"""Record the reference outputs that the benchmark checks against.

Run once from the root of a checkout of the commit whose outputs are the
reference (the references in this directory come from the commit that
added the benchmark):

    python3 perfbench/record_references.py

It runs every workload's operations once (``general`` with seed 0) and
writes ``perfbench/references.json``.  Besides the per-operation
fingerprints it keeps each grid group's component sizes and spectrum, which
the benchmark's tests cross-check against sympy and networkx.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

from run import REFERENCES, ROOT, WORKDIR, load_cli
import workloads


def main() -> int:
    cli = load_cli(ROOT)
    if cli is None:
        print(f"error: no commspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references: dict = {}
    suite_text = ""
    for workload in workloads.WORKLOADS:
        references[workload] = {}
        for op in workloads.build_ops(workload, 0, WORKDIR):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(list(op.argv))
            references[workload][op.name] = workloads.fingerprint(
                op.mode, code, out.getvalue()
            )
            if op.name == "suite":
                suite_text = out.getvalue()
    references["grid_groups"] = {
        entry["group"]: {
            "component_sizes": entry["component_sizes"],
            "spectrum": [[e["value"], e["multiplicity"]] for e in entry["spectrum"]],
        }
        for entry in json.loads(suite_text)["results"]
    }
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
