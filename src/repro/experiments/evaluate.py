"""The facade's internal ``evaluate`` scenario, registered on demand."""

from __future__ import annotations

from typing import Dict, Optional

from repro.api.evaluators import get_evaluator
from repro.api.spec import EVALUATE_SCENARIO_NAME, StudySpec
from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario

__all__ = ["evaluate_scenario"]


@scenario(EVALUATE_SCENARIO_NAME,
          description="Evaluate a declarative StudySpec through one engine",
          paper_reference="Section 2.3 (the interval distribution, via the "
                          "unified facade)",
          internal=True)
def evaluate_scenario(ctx: ExecutionContext, *,
                      spec: Optional[Dict[str, object]] = None,
                      method: str = "analytic") -> ExperimentResult:
    """One study cell through one engine, run by the ``ExperimentRunner``.

    ``spec`` is a :meth:`StudySpec.cell_params` payload and ``method`` a
    resolved engine name, so the runner keys the cell exactly as the
    facade's executor does.  Marked *internal* so generic enumeration
    (``list``, ``report --all``) never runs it parameterless.
    """
    if spec is None:
        raise ValueError(
            "the 'evaluate' scenario needs a StudySpec: call "
            "repro.evaluate(spec), use `python -m repro eval SPEC.json`, or "
            "pass --params with a {'spec': {...}, 'method': ...} payload")
    carried = sorted({"seed", "reps", "sweep"} & set(spec))
    if carried:
        # The runner's seed/reps slots are authoritative here (that is how
        # the cell is keyed), and a sweep would silently collapse to its
        # base cell.
        raise ValueError(
            f"the 'evaluate' scenario payload must not embed {carried}; "
            "seed/reps are runner-level, and sweeps are expanded by "
            "repro.evaluate / `python -m repro eval` before dispatch")
    study = StudySpec.from_dict(spec)
    evaluation = get_evaluator(method).evaluate(study, ctx)
    return evaluation.to_experiment_result()
