"""In-process reference evaluations for the service workload's checks.

``python reference.py IN.json OUT.json``: IN holds a list of
``{"spec", "method", "result"}`` items, where ``result`` is a cell's
``ExperimentResult`` encoding as the service returned it.  OUT gets, per
item, ``{"served": metrics, "direct": metrics}``: the served result
decoded the way the service's own client API decodes it, and a direct
``repro.evaluate`` of the same spec.  The harness compares the two with
``float.hex``.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    from repro import evaluate
    from repro.api.evaluation import Evaluation
    from repro.experiments.common import ExperimentResult

    with open(argv[1], "r", encoding="utf-8") as handle:
        items = json.load(handle)
    out = []
    for item in items:
        served = Evaluation.from_experiment_result(
            ExperimentResult.from_dict(item["result"]))
        direct = evaluate(item["spec"], method=item["method"])
        out.append({"served": served.metrics, "direct": direct.metrics})
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
