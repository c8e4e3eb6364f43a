"""StudySpec/SystemSpec: canonical serialisation, keys, sweeps, validation."""

import json

import numpy as np
import pytest

from repro.api import StudySpec, SystemSpec
from repro.api.spec import EVALUATE_SCENARIO_NAME
from repro.report.store import ResultStore, store_key


def symmetric_spec(**overrides):
    fields = dict(system=SystemSpec.symmetric(4, 1.0, 0.5),
                  metrics=("mean", "std"), reps=2000, seed=11)
    fields.update(overrides)
    return StudySpec(**fields)


class TestSystemSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown system kind"):
            SystemSpec("pentagonal", {"n": 5})

    def test_missing_and_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            SystemSpec("symmetric", {"n": 3, "mu": 1.0})
        with pytest.raises(ValueError, match="does not take"):
            SystemSpec("symmetric", {"n": 3, "mu": 1.0, "lam": 1.0, "rho": 2})

    def test_builders_match_direct_parameters(self):
        from repro.core.parameters import SystemParameters
        built = SystemSpec.symmetric(3, 1.0, 2.0).build()
        direct = SystemParameters.symmetric(3, 1.0, 2.0)
        np.testing.assert_array_equal(built.mu, direct.mu)
        np.testing.assert_array_equal(built.lam, direct.lam)

    def test_table1_case_builds_paper_case(self):
        from repro.workloads.generators import paper_table1_case
        built = SystemSpec.table1_case(2).build()
        direct = paper_table1_case(2)
        np.testing.assert_array_equal(built.mu, direct.mu)
        np.testing.assert_array_equal(built.lam, direct.lam)

    def test_explicit_round_trips_arbitrary_parameters(self):
        from repro.core.parameters import SystemParameters
        params = SystemParameters.heterogeneous(4, mu_gradient=2.0)
        rebuilt = SystemSpec.explicit(params).build()
        np.testing.assert_array_equal(rebuilt.mu, params.mu)
        np.testing.assert_array_equal(rebuilt.lam, params.lam)

    def test_numeric_normalisation(self):
        a = SystemSpec("symmetric", {"n": 3, "mu": 1, "lam": 2})
        b = SystemSpec("symmetric", {"n": np.int64(3), "mu": np.float64(1.0),
                                     "lam": 2.0})
        assert a.to_dict() == b.to_dict()


class TestCanonicalKey:
    def test_dict_ordering_invariance(self):
        a = StudySpec.from_dict({"system": {"kind": "symmetric", "n": 4,
                                            "mu": 1.0, "lam": 0.5},
                                 "metrics": ["mean", "std"],
                                 "reps": 2000, "seed": 11})
        b = StudySpec.from_dict(json.loads(json.dumps(
            {"seed": 11, "reps": 2000, "metrics": ["mean", "std"],
             "system": {"lam": 0.5, "mu": 1.0, "n": 4,
                        "kind": "symmetric"}})))
        assert a.canonical_key("mc") == b.canonical_key("mc")

    def test_float_formatting_invariance(self):
        a = symmetric_spec(system=SystemSpec.symmetric(4, 1.0, 5e-1))
        b = symmetric_spec(system=SystemSpec.symmetric(4, 1, 0.50))
        c = symmetric_spec(system=SystemSpec.symmetric(4, np.float64(1.0),
                                                       np.float64(0.5)))
        assert a.canonical_key() == b.canonical_key() == c.canonical_key()

    def test_tuple_list_invariance(self):
        a = StudySpec(system=SystemSpec("three_process",
                                        {"mu": (1.0, 1.0, 1.0),
                                         "lam_12_23_31": (1.0, 1.0, 1.0)}))
        b = StudySpec(system=SystemSpec("three_process",
                                        {"mu": [1, 1, 1],
                                         "lam_12_23_31": [1, 1, 1]}))
        assert a.canonical_key() == b.canonical_key()

    def test_survives_json_round_trip(self):
        spec = symmetric_spec(times=(0.5, 1.0), metrics=("mean", "cdf"))
        rebuilt = StudySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.canonical_key("mc") == spec.canonical_key("mc")
        assert rebuilt.to_dict() == spec.to_dict()

    def test_equals_result_store_key(self, tmp_path):
        """The spec's own key is the store's cell key (cache hits survive)."""
        spec = symmetric_spec()
        store = ResultStore(str(tmp_path / "store"))
        assert spec.canonical_key("mc") == store.identity(
            EVALUATE_SCENARIO_NAME, spec.cell_params("mc"), spec.seed,
            spec.effective_reps()).key
        assert spec.canonical_key("analytic") == store.identity(
            EVALUATE_SCENARIO_NAME, spec.cell_params("analytic"), spec.seed,
            None).key
        # ... and direct store_key agreement, version included.
        assert spec.canonical_key("mc") == store_key(
            EVALUATE_SCENARIO_NAME, spec.cell_params("mc"), 11, 2000)

    def test_auto_resolves_to_same_cell_as_explicit_engine(self):
        spec = symmetric_spec()      # n=4 → auto resolves analytic
        assert spec.canonical_key("auto") == spec.canonical_key("analytic")

    def test_identity_components_change_the_key(self):
        base = symmetric_spec()
        assert symmetric_spec(seed=12).canonical_key() != base.canonical_key()
        assert symmetric_spec(metrics=("mean",)).canonical_key() \
            != base.canonical_key()
        assert symmetric_spec(
            system=SystemSpec.symmetric(5, 1.0, 0.5)).canonical_key() \
            != base.canonical_key()
        # reps only matters for stochastic engines
        assert symmetric_spec(reps=4000).canonical_key("mc") \
            != base.canonical_key("mc")
        assert symmetric_spec(reps=4000).canonical_key("analytic") \
            == base.canonical_key("analytic")


class TestStudySpecValidation:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            symmetric_spec(metrics=("mean", "kurtosis"))

    def test_distribution_metrics_need_times(self):
        with pytest.raises(ValueError, match="times"):
            symmetric_spec(metrics=("pdf",))

    def test_bad_counting_rejected(self):
        with pytest.raises(ValueError, match="counting"):
            symmetric_spec(counting="every-other")

    def test_unknown_option_rejected(self):
        # Options route the engines AND enter the store identity, so a
        # typo'd key must fail loudly instead of being silently ignored.
        with pytest.raises(ValueError, match="unknown options"):
            symmetric_spec(options={"prefer_simplifed": False})

    def test_rel_tol_not_part_of_the_identity(self):
        a = symmetric_spec(rel_tol=0.05)
        b = symmetric_spec(rel_tol=0.01)
        assert a.canonical_key("mc") == b.canonical_key("mc")

    def test_specs_are_hashable_and_equal_hashes(self):
        a = symmetric_spec(sweep={"lam": (0.5, 1.0)})
        b = symmetric_spec(sweep={"lam": (0.5, 1.0)})
        assert hash(a) == hash(b) and a == b
        assert len({a, b}) == 1
        assert hash(a.system) == hash(b.system)

    def test_direct_evaluator_use_honours_the_spec_seed(self):
        from repro.api import get_evaluator
        spec = symmetric_spec(reps=400, seed=21)
        first = get_evaluator("mc").evaluate(spec)
        second = get_evaluator("mc").evaluate(spec)
        assert first.to_dict() == second.to_dict()
        assert hash(first) == hash(second)

    def test_rel_tol_reaches_the_evaluation(self):
        from repro.api import evaluate
        spec = symmetric_spec(reps=200, rel_tol=0.2)
        assert evaluate(spec, method="mc").rel_tol == 0.2
        assert evaluate(spec, method="analytic").rel_tol == 0.2

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValueError, match="unknown StudySpec fields"):
            StudySpec.from_dict({"system": {"kind": "symmetric", "n": 3,
                                            "mu": 1.0, "lam": 1.0},
                                 "replications": 10})

    def test_sweep_spec_has_no_single_cell_identity(self):
        spec = symmetric_spec(sweep={"lam": (0.5, 1.0)})
        with pytest.raises(ValueError, match="sweep"):
            spec.cell_params("analytic")


class TestSweepCells:
    def test_cross_product_order_is_deterministic(self):
        spec = symmetric_spec(sweep={"lam": (0.5, 1.0), "n": (3, 4)})
        cells = list(spec.cells())
        assert len(cells) == spec.cell_count() == 4
        combos = [(c.system.args["lam"], c.system.args["n"]) for c in cells]
        assert combos == [(0.5, 3), (0.5, 4), (1.0, 3), (1.0, 4)]
        assert all(not c.is_sweep for c in cells)

    def test_cell_order_survives_json_round_trip(self):
        # Axis order is canonical (name-sorted), so a spec written with
        # axes in any insertion order enumerates like its JSON round trip.
        spec = symmetric_spec(sweep={"n": (3, 4), "lam": (0.5, 1.0)})
        rebuilt = StudySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        order = [(c.system.args["lam"], c.system.args["n"])
                 for c in spec.cells()]
        assert order == [(c.system.args["lam"], c.system.args["n"])
                         for c in rebuilt.cells()]

    def test_reps_and_seed_axes(self):
        spec = symmetric_spec(sweep={"reps": (100, 200), "seed": (1, 2)})
        cells = list(spec.cells())
        assert [(c.reps, c.seed) for c in cells] == \
            [(100, 1), (100, 2), (200, 1), (200, 2)]

    def test_unknown_axis_rejected(self):
        spec = symmetric_spec(sweep={"rho": (1.0,)})
        with pytest.raises(ValueError, match="sweep axis"):
            list(spec.cells())
