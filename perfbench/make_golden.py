"""Record the current code's answers as the golden answers of the workloads.

    python3 perfbench/make_golden.py [workload ...]

The golden files pin the answers of the commit that defined the benchmark.
Re-record them only when a workload's operation list changes, never to make
a changed verdict pass.
"""

from __future__ import annotations

import json
import re
import sys

from run import GOLDEN, OUT, SRC, _import_fresh, run_pass
from workloads import WORKLOADS


def main(names) -> int:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        ops = workload.ops(_import_fresh(), OUT)
        _, answers = run_pass(ops, None)
        if any(answer is None for answer in answers.values()):
            sys.stderr.write(f"{name}: an operation raised; nothing written\n")
            return 1
        doc = {"workload": name, "inputs": workload.inputs(), "answers": answers}
        path = GOLDEN / f"{name}.json"
        text = json.dumps(doc, indent=1)
        # one line per innermost list of scalars keeps the files short and diffable
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"{name}: {len(answers)} answers -> {path.relative_to(GOLDEN.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
