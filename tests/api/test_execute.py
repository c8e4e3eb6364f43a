"""The cell executor behind the facade: resume granularity of a sweep."""

import pytest

from repro.api import StudySpec, SystemSpec, evaluate_record
from repro.report import ResultStore
from repro.runner.backends import SerialBackend


class FailsOnMap(SerialBackend):
    """Serial backend whose *fail_at*-th ``map`` raises."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.maps = 0

    def map(self, func, tasks):
        self.maps += 1
        if self.maps == self.fail_at:
            raise RuntimeError("worker lost")
        return super().map(func, tasks)


def test_interrupted_stochastic_sweep_resumes_from_finished_cells(tmp_path):
    sweep = StudySpec(system=SystemSpec.symmetric(3, 1.0, 0.5),
                      metrics=("mean",), reps=200, seed=11,
                      sweep={"lam": (0.25, 0.5, 0.75, 1.0)})
    cells = list(sweep.cells())
    store = ResultStore(str(tmp_path / "store"))
    with pytest.raises(RuntimeError, match="worker lost"):
        evaluate_record(sweep, "mc", backend=FailsOnMap(3), store=store)
    # Each of the two cells that finished was written before the next ran.
    assert len(store) == 2
    for cell in cells[:2]:
        assert store.get(cell.canonical_key("mc")) is not None

    resumed = evaluate_record(sweep, "mc", store=store)
    assert [c.cached for c in resumed.cells] == [True, True, False, False]
    assert [c.key for c in resumed.cells] == \
        [cell.canonical_key("mc") for cell in cells]
    assert len(store) == 4


def test_results_are_encoded_only_for_the_store(tmp_path, monkeypatch):
    """A cell's result rows are built for a ``put`` (or a service cache
    entry), never for a caller that reads the evaluation itself."""
    from repro.api.evaluation import Evaluation

    encoded = []
    encode = Evaluation.to_experiment_result

    def counting(self):
        encoded.append(self)
        return encode(self)

    monkeypatch.setattr(Evaluation, "to_experiment_result", counting)
    sweep = StudySpec(system=SystemSpec.symmetric(3, 1.0, 0.5),
                      metrics=("mean",), sweep={"lam": (0.25, 0.5)})
    evaluate_record(sweep, "analytic")
    assert encoded == []
    evaluate_record(sweep, "analytic",
                    store=ResultStore(str(tmp_path / "store")))
    assert len(encoded) == 2
