"""Declarative experiment configs, the simulate-estimate-compare runner,
and suite aggregation with per-row error capture."""

import csv
import dataclasses
import json
import math
import os

import pytest

from packdim import (
    ConfigError,
    DriftSpec,
    InvalidArgumentError,
    NotPositiveSemidefiniteError,
    ResolutionError,
    ScaleGrid,
    ScaleUnrepresentableError,
    Seed,
    __version__,
    experiment,
    fields,
)
from packdim.experiment import ExperimentConfig, _stage, run_experiment, run_suite

MINIMAL = {"name": "t", "alpha": 0.5, "d": 1, "seed": 1}

GRAPH_LINE = {
    "name": "graph-line",
    "alpha": 0.5,
    "d": 1,
    "seed": 7,
    "set": {"kind": "interval"},
    "resolution": 2048,
    "grid": {"j_min": 3, "j_max": 7},
    "replicas": 2,
    "mode": "graph",
    "method": "regression",
    "tolerance": 0.35,
}

# the benchmark's drifted line-graph experiment
GRAPH_LINE_POWER = {
    **GRAPH_LINE,
    "name": "graph-line-power",
    "drift": {"kind": "power", "direction": [1.0], "exponent": 1.5},
}

UNDERSAMPLED = {
    **MINIMAL,
    "name": "undersampled",
    "resolution": 64,
    "grid": {"j_min": 2, "j_max": 9},
}

THIRDS_IMAGE = {
    "name": "thirds-image",
    "alpha": 0.3,
    "d": 1,
    "seed": 3,
    "set": {"kind": "cantor", "branches": 2, "ratio": 1.0 / 3.0, "level": 7},
    "grid": {"j_min": 2, "j_max": 5},
    "replicas": 2,
    "mode": "image",
    "tolerance": 0.3,
}


class TestConfigParsing:
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict(MINIMAL)
        assert cfg.n == 1
        assert cfg.set_spec == {"kind": "interval"}
        assert cfg.drift is None
        assert cfg.resolution == 4096
        assert cfg.grid == {"j_min": 4, "j_max": 9, "base": 2.0}
        assert cfg.replicas == 1
        assert cfg.mode == "image"
        assert cfg.method == "regression"
        assert cfg.box_method == "regression"
        assert cfg.tolerance == 0.25

    def test_direct_construction_is_validated(self):
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig(
                name="t", alpha=1.5, d=1, n=1, set_spec={"kind": "interval"}, drift=None,
                resolution=4096, grid={"j_min": 4, "j_max": 9, "base": 2.0}, replicas=1,
                seed=1, mode="image", method="regression", box_method="regression",
                tolerance=0.25,
            )
        with pytest.raises(ConfigError, match="mode"):
            dataclasses.replace(ExperimentConfig.from_dict(MINIMAL), mode="shadow")

    def test_box_method_follows_method(self):
        cfg = ExperimentConfig.from_dict({**MINIMAL, "method": "tail-max"})
        assert cfg.box_method == "tail-max"
        cfg2 = ExperimentConfig.from_dict(
            {**MINIMAL, "method": "tail-max", "box_method": "regression"}
        )
        assert cfg2.box_method == "regression"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({**MINIMAL, "alfa": 0.5})

    def test_keys_are_the_fields_with_set_for_set_spec(self):
        cfg = ExperimentConfig.from_dict(GRAPH_LINE)
        assert list(cfg.to_dict()) == [
            "name", "alpha", "d", "n", "set", "drift", "resolution",
            "grid", "replicas", "seed", "mode", "method", "box_method", "tolerance",
        ]
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError, match=r"unknown config keys: \['set_spec'\]"):
            ExperimentConfig.from_dict({**MINIMAL, "set_spec": {"kind": "interval"}})

    def test_missing_required_key(self):
        for key in ("name", "alpha", "d", "seed"):
            raw = {k: v for k, v in MINIMAL.items() if k != key}
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_dict(raw)

    def test_rejects_bad_values(self):
        bad = [
            {"alpha": 1.5},
            {"replicas": 0},
            {"mode": "shadow"},
            {"method": "chord"},
            {"box_method": "chord"},
            {"tolerance": 0.0},
            {"resolution": 2**15},
            {"name": "a,b"},
            {"grid": {"j_min": 4, "j_max": 9, "octaves": 3}},
            {"grid": {"j_min": 4, "j_max": 5}},
            {"set": {"kind": "carpet"}},
            {"drift": {"kind": "constant"}},
            {"drift": {"kind": "spiral"}},
        ]
        for patch in bad:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({**MINIMAL, **patch})

    def test_graph_mode_needs_line_domain(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**MINIMAL, "mode": "graph", "n": 2})

    def test_cantor_lives_on_the_line(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {
                    **MINIMAL,
                    "n": 2,
                    "set": {"kind": "cantor", "branches": 2, "ratio": 0.3, "level": 4},
                }
            )

    @pytest.mark.parametrize(
        "patch, key",
        [
            ({"alpha": "abc"}, "alpha"),
            ({"d": [1]}, "'d'"),
            ({"seed": None}, "seed"),
            ({"tolerance": "wide"}, "tolerance"),
            ({"grid": {"j_min": "low", "j_max": 9}}, "j_min"),
            ({"grid": {"j_min": 4, "j_max": 9, "base": "two"}}, "base"),
            ({"grid": [4, 9]}, "grid"),
            ({"set": "interval"}, "set"),
            ({"drift": "zero"}, "drift"),
            ({"drift": {"kind": "constant", "values": ["up"]}}, "drift"),
            # int() would read 1.7 and True as 1, giving two configs one
            # hash, and str() would read null as the name "None"
            ({"d": 1.7}, "'d'"),
            ({"n": True}, "'n'"),
            ({"resolution": 2048.5}, "resolution"),
            ({"replicas": True}, "replicas"),
            ({"seed": 2.9}, "seed"),
            ({"seed": "3"}, "seed"),
            ({"grid": {"j_min": 3.9, "j_max": 9}}, "j_min"),
            ({"grid": {"j_min": 4, "j_max": False}}, "j_max"),
            ({"grid": {"j_min": 4, "j_max": 9, "base": True}}, "base"),
            ({"alpha": True}, "alpha"),
            ({"tolerance": True}, "tolerance"),
            ({"name": None}, "name"),
            ({"name": 7}, "name"),
            # a key the drift kind does not read is refused, not dropped
            ({"drift": {"kind": "zero", "values": [3.0]}}, r"zero drift keys: \['values'\]"),
            (
                {"drift": {"kind": "constant", "values": [1.0], "exponent": 2}},
                r"constant drift keys: \['exponent'\]",
            ),
            (
                {"drift": {"kind": "power", "direction": [1.0], "exponent": 0.5, "rows": []}},
                r"power drift keys: \['rows'\]",
            ),
            (
                {"drift": {"kind": "polynomial", "rows": [[1.0]], "values": [1.0]}},
                r"polynomial drift keys: \['values'\]",
            ),
            ({"drift": {"kind": ["zero"]}}, "drift kind"),
            ({"set": {"kind": ["interval"]}}, "set kind"),
        ],
    )
    def test_malformed_value_names_its_key(self, patch, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({**MINIMAL, **patch})

    @pytest.mark.parametrize(
        "text, key",
        [
            ('"tolerance": NaN', "tolerance"),
            ('"tolerance": Infinity', "tolerance"),
            ('"grid": {"j_min": 1, "j_max": 4, "base": Infinity}', "base"),
        ],
    )
    def test_non_finite_values_are_refused_at_load(self, tmp_path, text, key):
        # Python's json reads NaN and Infinity; a NaN tolerance would fail
        # every run, and an infinite base would make every radius 0.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(MINIMAL)[:-1] + ", " + text + "}")
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json(str(path))

    @pytest.mark.parametrize("content", [b"{not json", b"[1, 2]", b"", b"\xff{}"])
    def test_file_that_is_not_one_json_object(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="bad.json"):
            ExperimentConfig.from_json(str(path))

    @pytest.mark.parametrize(
        "set_spec, key",
        [
            ({"kind": "cantor", "branches": "two", "ratio": 0.3, "level": 4}, "branches"),
            ({"kind": "cantor", "branches": 2.5, "ratio": 0.3, "level": 4}, "branches"),
            ({"kind": "cantor", "branches": 2, "ratio": 0.3, "level": True}, "level"),
            ({"kind": "cantor", "branches": 2, "ratio": True, "level": 4}, "ratio"),
            ({"kind": "txset", "beta": 0.5, "level": 2.5}, "level"),
            ({"kind": "cantor", "branches": 2, "ratio": 0.3, "level": "x"}, "level"),
            ({"kind": "cantor", "branches": 2, "ratio": 0.3, "level": 4, "bogus": 1}, "bogus"),
            ({"kind": "interval", "level": 4}, "level"),
        ],
    )
    def test_malformed_set_parameter_names_its_key(self, set_spec, key):
        # set parameters are converted, and unknown ones refused, at load
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({**MINIMAL, "set": set_spec})

    @pytest.mark.parametrize(
        "set_spec, key",
        [
            ({"kind": "cantor", "branches": 2, "ratio": 0.3}, "level"),
            ({"kind": "cantor", "ratio": 0.3, "level": 4}, "branches"),
            ({"kind": "cantor", "branches": 2, "level": 4}, "ratio"),
            ({"kind": "txset", "level": 2}, "beta"),
            ({"kind": "txset", "beta": 0.5, "delta0": 0.25}, "level"),
        ],
    )
    def test_missing_set_parameter_is_refused_at_load(self, set_spec, key):
        with pytest.raises(ConfigError, match=f"{set_spec['kind']} needs key '{key}'"):
            ExperimentConfig.from_dict({**MINIMAL, "set": set_spec})

    def test_txset_delta0_has_a_default(self):
        # level 1 has 8 points; level 2 has 65536, over the Cholesky budget
        txset = {"kind": "txset", "beta": 0.5, "level": 1}
        cfg = ExperimentConfig.from_dict({**MINIMAL, "set": txset})
        assert cfg.set_params() == {"beta": 0.5, "level": 1, "delta0": 0.25}
        assert "delta0" not in cfg.set_spec

    def test_oversize_mesh_is_refused_at_load(self, monkeypatch):
        # 128 x 128 mesh points, 16383 of them off the origin: 48 * 16383^2
        # bytes against the 4 GiB budget; no k x k table is allocated
        def no_table(*args, **kwargs):
            raise AssertionError("k x k table allocated")

        monkeypatch.setattr(fields.np, "zeros", no_table)
        monkeypatch.setattr(fields.np, "empty", no_table)
        mesh = {**MINIMAL, "n": 2, "d": 3, "resolution": 2**14}
        need = r"needs about 12883329072 bytes, over the budget of 4294967296"
        with pytest.raises(ConfigError, match=need):
            ExperimentConfig.from_dict(mesh)
        # 95 x 95 points: 48 * 9024^2 bytes fit
        ExperimentConfig.from_dict({**mesh, "resolution": 9000})

    def test_mesh_check_reads_the_sampler_budget(self, monkeypatch):
        # a 4 x 4 mesh takes 15 Cholesky points; the line takes fft
        monkeypatch.setattr(fields, "_CHOLESKY_BUDGET", 48 * 15**2)
        square = {**MINIMAL, "n": 2, "d": 3, "resolution": 16}
        ExperimentConfig.from_dict(square)
        with pytest.raises(ConfigError, match="cholesky on 24 points"):
            ExperimentConfig.from_dict({**square, "resolution": 25})
        ExperimentConfig.from_dict({**MINIMAL, "resolution": 4096})

    def test_oversize_fractal_sets_are_refused_at_load(self, monkeypatch):
        def no_set(*args, **kwargs):
            raise AssertionError("set built at load")

        monkeypatch.setattr(experiment, "build_uniform_cantor", no_set)
        monkeypatch.setattr(experiment, "realize_explicit", no_set)
        # 2^14 Cantor atoms, 16383 of them off the origin: the mesh's bytes
        cantor = {"kind": "cantor", "branches": 2, "ratio": 1.0 / 3.0, "level": 14}
        need = r"needs about 12883329072 bytes, over the budget of 4294967296"
        with pytest.raises(ConfigError, match=rf"cantor set of 16384 points: .*{need}"):
            ExperimentConfig.from_dict({**MINIMAL, "set": cantor})
        with pytest.raises(ConfigError, match="cantor set of 2097152 points"):
            ExperimentConfig.from_dict({**MINIMAL, "set": {**cantor, "level": 21}})
        with pytest.raises(ConfigError, match=r"cantor set of 18446744073709551616 points"):
            ExperimentConfig.from_dict({**MINIMAL, "set": {**cantor, "level": 10**9}})
        # 8 x 8192 txset points; level 3 branches past 2^53
        txset = {"kind": "txset", "beta": 0.5, "level": 2}
        with pytest.raises(ConfigError, match=r"txset set of 65536 points: cholesky on 65535"):
            ExperimentConfig.from_dict({**MINIMAL, "set": txset})
        with pytest.raises(ConfigError, match=r"txset set: level 3 has more than 2\^53"):
            ExperimentConfig.from_dict({**MINIMAL, "set": {**txset, "level": 3}})
        # a set within the budget is built at load, so that one that cannot
        # be built is refused there
        monkeypatch.undo()
        ExperimentConfig.from_dict({**MINIMAL, "set": {**cantor, "level": 13}})
        ExperimentConfig.from_dict({**MINIMAL, "set": {**txset, "beta": 0.45, "delta0": 0.45}})

    @pytest.mark.parametrize(
        "txset, message",
        [
            ({"beta": 0.5, "level": 61}, "levels must lie in"),
            ({"beta": 1.5, "level": 1}, "beta must lie in"),
            ({"beta": 0.5, "level": 1, "delta0": 0.5}, "delta0 must lie in"),
        ],
    )
    def test_txset_scale_errors_are_config_errors(self, txset, message):
        with pytest.raises(ConfigError, match=f"txset set: {message}"):
            ExperimentConfig.from_dict({**MINIMAL, "set": {"kind": "txset", **txset}})

    @pytest.mark.parametrize(
        "set_spec, message",
        [
            (
                {"kind": "txset", "beta": 0.1, "delta0": 0.1, "level": 5},
                "level 5 sibling gap 9.95e-29 is below the rounding",
            ),
            ({"kind": "cantor", "branches": 2, "ratio": 0.9, "level": 3}, "ratio must lie in"),
            ({"kind": "cantor", "branches": 2, "ratio": 0.5, "level": 3}, "ratio must lie in"),
            ({"kind": "cantor", "branches": 3, "ratio": 0.5, "level": 3}, "ratio must lie in"),
            ({"kind": "cantor", "branches": 1, "ratio": 0.3, "level": 3}, "at least two branches"),
            (
                {"kind": "cantor", "branches": 2, "ratio": 1e-200, "level": 3},
                "level 2 length must shrink strictly",
            ),
        ],
    )
    def test_unbuildable_sets_are_refused_at_load(self, set_spec, message):
        # each is within the budget, and building it fails
        with pytest.raises(ConfigError, match=rf"^{set_spec['kind']} set: .*{message}"):
            ExperimentConfig.from_dict({**MINIMAL, "set": set_spec})

    @pytest.mark.parametrize(
        "patch",
        [
            {"resolution": 1},
            {"set": {"kind": "cantor", "branches": 2, "ratio": 0.3, "level": 0}},
            {"set": {"kind": "txset", "beta": 0.5, "level": 0}},
        ],
    )
    def test_sets_of_fewer_than_two_points_are_refused_at_load(self, patch):
        # one point resolves no scale, and both estimates would read 0
        kind = patch.get("set", {"kind": "interval"})["kind"]
        with pytest.raises(ConfigError, match=rf"^{kind} set of 1 points: need at least 2$"):
            ExperimentConfig.from_dict({**MINIMAL, **patch})

    @pytest.mark.parametrize(
        "d, drift, dim",
        [
            (1, {"kind": "constant", "values": [1.0, 2.0]}, 2),
            (1, {"kind": "power", "direction": [1.0, 0.0, 1.0], "exponent": 0.5}, 3),
            (1, {"kind": "polynomial", "rows": [[1.0, 0.5], [0.0, 1.0]]}, 2),
            (2, {"kind": "constant", "values": [1.0]}, 1),
        ],
    )
    def test_drift_of_another_dimension_is_refused_at_load(self, d, drift, dim):
        message = rf"^drift has range dimension {dim}, not d = {d}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({**MINIMAL, "d": d, "drift": drift})

    def test_polynomial_drift_on_a_cube_is_refused_at_load(self):
        # it loaded, and the run failed at the simulation stage
        drift = {"kind": "polynomial", "rows": [[1.0, 2.0]]}
        message = "^polynomial drift is defined on 1-D domains, not n = 2$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({**MINIMAL, "n": 2, "drift": drift})

    @pytest.mark.parametrize("rows", [[[]], []])
    def test_an_empty_polynomial_row_is_refused_at_load(self, rows):
        # it loaded as a zero drift that the kernels walked as a drifted one
        drift = {"kind": "polynomial", "rows": rows}
        message = "^bad drift spec: drift coordinate rows must be nonempty$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({**MINIMAL, "drift": drift})

    def test_a_grid_whose_finest_radius_underflows_is_refused_at_load(self):
        # it loaded with finest 0.0 and failed only at the box-count stage
        grid = {"j_min": 2, "j_max": 1100}
        with pytest.raises(ConfigError, match="^bad scale grid: j_max = 1100 puts the finest"):
            ExperimentConfig.from_dict({**MINIMAL, "grid": grid})

    def test_seed_is_a_64_bit_unsigned_integer(self):
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="^seed: master seed must be a 64-bit"):
                ExperimentConfig.from_dict({**MINIMAL, "seed": seed})
        for seed in (0, 2**64 - 1):
            assert ExperimentConfig.from_dict({**MINIMAL, "seed": seed}).seed == seed

    def test_fractal_check_reads_the_sampler_budget(self, monkeypatch):
        # 128 Cantor atoms take 127 Cholesky points
        monkeypatch.setattr(fields, "_CHOLESKY_BUDGET", 48 * 127**2)
        ExperimentConfig.from_dict(THIRDS_IMAGE)
        cantor = {**THIRDS_IMAGE["set"], "level": 8}
        with pytest.raises(ConfigError, match="cantor set of 256 points: cholesky on 255"):
            ExperimentConfig.from_dict({**THIRDS_IMAGE, "set": cantor})


class TestConfigHash:
    def test_stable_across_instances(self):
        a = ExperimentConfig.from_dict(GRAPH_LINE)
        b = ExperimentConfig.from_dict(GRAPH_LINE)
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 12

    def test_any_field_changes_the_hash(self):
        base = ExperimentConfig.from_dict(GRAPH_LINE).config_hash()
        for patch in ({"seed": 8}, {"tolerance": 0.36}, {"name": "other"}):
            other = ExperimentConfig.from_dict({**GRAPH_LINE, **patch})
            assert other.config_hash() != base

    def test_integral_floats_load_as_integers(self):
        as_int = ExperimentConfig.from_dict({**MINIMAL, "d": 1, "replicas": 2})
        as_float = ExperimentConfig.from_dict({**MINIMAL, "d": 1.0, "replicas": 2.0})
        assert as_float == as_int
        assert as_float.config_hash() == as_int.config_hash()

    def test_pinned_hashes(self):
        # the hashes these configs had before grid values were converted
        # at load: configs written with canonical values keep theirs
        hashes = [
            ExperimentConfig.from_dict(raw).config_hash()
            for raw in (GRAPH_LINE, MINIMAL, THIRDS_IMAGE)
        ]
        assert hashes == ["01138849c43c", "472d1ae966de", "a0dab1077b16"]

    def test_integral_float_grid_loads_as_integers(self):
        as_int = ExperimentConfig.from_dict({**MINIMAL, "grid": {"j_min": 4, "j_max": 7}})
        as_float = ExperimentConfig.from_dict({**MINIMAL, "grid": {"j_min": 4.0, "j_max": 7}})
        assert as_float == as_int
        assert as_float.config_hash() == as_int.config_hash()

    def test_integral_float_set_level_loads_as_integer(self):
        cantor = THIRDS_IMAGE["set"]
        as_int = ExperimentConfig.from_dict({**THIRDS_IMAGE, "set": {**cantor, "level": 3}})
        as_float = ExperimentConfig.from_dict({**THIRDS_IMAGE, "set": {**cantor, "level": 3.0}})
        assert as_float == as_int
        assert as_float.set_spec["level"] == 3 and isinstance(as_float.set_spec["level"], int)
        assert as_float.config_hash() == as_int.config_hash()

    def test_round_trip_preserves_hash(self, tmp_path):
        cfg = ExperimentConfig.from_dict(GRAPH_LINE)
        path = tmp_path / "cfg.json"
        cfg.to_json(str(path))
        again = ExperimentConfig.from_json(str(path))
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()


class TestRunExperiment:
    def test_graph_line(self):
        rep = run_experiment(ExperimentConfig.from_dict(GRAPH_LINE))
        assert rep.predicted["dimension"] == pytest.approx(1.5, rel=1e-15)
        assert rep.estimated["box"]["value"] == pytest.approx(
            1.3652323300505382, rel=1e-12
        )
        assert rep.estimated["kernel"]["value"] == pytest.approx(
            1.4178713340471425, rel=1e-12
        )
        assert rep.passed

    def test_a_run_builds_its_set_once(self, monkeypatch):
        # the config builds its Cantor system when it is made, and the run
        # reads that system in place of building it again
        build = experiment.build_uniform_cantor
        built = []

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(experiment, "build_uniform_cantor", counting)
        run_experiment(ExperimentConfig.from_dict(THIRDS_IMAGE))
        assert built == [(2, 1.0 / 3.0, 7)]

    def test_a_txset_run_builds_its_system_once(self, monkeypatch):
        # one symbolic system is counted, budget-checked and realized at
        # load; the run builds nothing
        calls = []
        for name in ("build_tx_system", "realize_explicit"):

            def counting(*args, _name=name, _build=getattr(experiment, name), **kwargs):
                calls.append((_name, args, kwargs))
                return _build(*args, **kwargs)

            monkeypatch.setattr(experiment, name, counting)
        txset = {"kind": "txset", "beta": 0.5, "delta0": 0.45, "level": 2}
        grid = {"j_min": 2, "j_max": 6}
        run_experiment(
            ExperimentConfig.from_dict({**MINIMAL, "set": txset, "grid": grid, "mode": "graph"})
        )
        assert [(name, args[1:], kwargs) for name, args, kwargs in calls] == [
            ("build_tx_system", (0.45,), {"levels": 2}),
            ("realize_explicit", (2,), {}),
        ]

    def test_the_load_builds_the_set_grid_and_drift_once_and_the_run_reads_them(
        self, monkeypatch
    ):
        built = []

        def counting(name, build):
            def count(*args, **kwargs):
                built.append(name)
                return build(*args, **kwargs)

            return count

        for cls in (ScaleGrid, DriftSpec):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
        for name in ("_mesh_points", "_uniform", "natural_measure"):
            monkeypatch.setattr(experiment, name, counting(name, getattr(experiment, name)))
        cfg = ExperimentConfig.from_dict(GRAPH_LINE_POWER)
        assert sorted(built) == ["DriftSpec", "ScaleGrid", "_mesh_points", "_uniform"]
        built.clear()
        run_experiment(cfg)
        assert built == []
        # the builders stay, and give what the load holds
        assert cfg.scale_grid() == cfg._grid
        assert cfg.drift_spec() == cfg._drift

    def test_graph_floor_reported(self):
        cfg = ExperimentConfig.from_dict(
            {**THIRDS_IMAGE, "name": "thirds-graph", "mode": "graph", "tolerance": 2.0}
        )
        rep = run_experiment(cfg)
        assert "graph_floor" in rep.predicted
        assert rep.predicted["graph_floor"] <= rep.predicted["dimension"] + 1e-12

    def test_critical_regime(self):
        # alpha d = 1: the box count carries a log-correction, so the
        # limsup readers sit visibly below 2 at any workable resolution and
        # the config declares the wider tolerance that honesty costs
        cfg = ExperimentConfig.from_dict(
            {
                "name": "image-critical",
                "alpha": 0.5,
                "d": 2,
                "seed": 6,
                "set": {"kind": "interval"},
                "resolution": 4096,
                "grid": {"j_min": 3, "j_max": 8},
                "replicas": 2,
                "mode": "image",
                "method": "tail-max",
                "box_method": "tail-max",
                "tolerance": 0.6,
            }
        )
        rep = run_experiment(cfg)
        assert rep.predicted["dimension"] == 2.0
        assert rep.estimated["box"]["value"] == pytest.approx(
            1.7933857655926708, rel=1e-12
        )
        assert rep.estimated["kernel"]["value"] == pytest.approx(
            1.4547682833196813, rel=1e-12
        )
        assert rep.passed

    def test_output_files_are_byte_deterministic(self, tmp_path):
        cfg = ExperimentConfig.from_dict(THIRDS_IMAGE)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=str(d1))
        run_experiment(cfg, out_dir=str(d2))
        for ext in ("csv", "json"):
            f1 = (d1 / f"thirds-image.{ext}").read_bytes()
            f2 = (d2 / f"thirds-image.{ext}").read_bytes()
            assert f1 == f2
            assert cfg.config_hash().encode() in f1

    def test_json_report_is_auditable(self, tmp_path):
        cfg = ExperimentConfig.from_dict(THIRDS_IMAGE)
        run_experiment(cfg, out_dir=str(tmp_path))
        payload = json.loads((tmp_path / "thirds-image.json").read_text())
        assert payload["config_hash"] == cfg.config_hash()
        assert payload["estimated"]["box"]["seed"] == cfg.seed
        assert payload["estimated"]["box"]["method"] == "regression"
        assert payload["pass"] is True

    def test_unrepresentable_txset_is_refused_at_load(self):
        # level 3 of this txset branches past 2^53: its scales are not
        # representable, and its points are over any Cholesky budget
        raw = {
            **MINIMAL,
            "name": "too-deep",
            "set": {"kind": "txset", "beta": 0.5, "level": 3},
            "grid": {"j_min": 2, "j_max": 5},
        }
        with pytest.raises(ConfigError, match="txset set: level 3"):
            ExperimentConfig.from_dict(raw)
        symbolic = experiment.build_tx_system(0.5, 0.25, levels=3)
        with pytest.raises(ScaleUnrepresentableError):
            experiment.realize_explicit(symbolic, 3)

    def test_stage_error_keeps_class_and_attributes(self):
        # 64 points support scales down to 4/63; 2^-9 lies below that
        cfg = ExperimentConfig.from_dict(UNDERSAMPLED)
        with pytest.raises(ResolutionError) as info:
            run_experiment(cfg)
        assert info.value.limit == pytest.approx(4.0 / 63.0)
        assert info.value.scale == 2.0**-9
        assert str(info.value).startswith("kernel stage: finest scale")

    def test_cholesky_budget_refuses_before_sampling(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(THIRDS_IMAGE)
        monkeypatch.setattr(fields, "_CHOLESKY_BUDGET", 1024)
        # refused when the config is made, before any run can sample it
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(THIRDS_IMAGE)
        # 128 Cantor atoms; the one at 0 stays out of the factor
        assert str(info.value).startswith("cantor set of 128 points: cholesky on 127 points")
        assert "budget of 1024 bytes" in str(info.value)
        # the sampler refuses the same points itself
        with pytest.raises(InvalidArgumentError, match="cholesky on 127 points"):
            fields.sample(cfg.field_spec(), cfg._set[0], Seed(3))

    def test_stage_label_keeps_extra_constructor_arguments(self):
        with pytest.raises(NotPositiveSemidefiniteError) as info:
            with _stage("simulation"):
                raise NotPositiveSemidefiniteError(3)
        assert info.value.pivot == 3
        assert str(info.value) == "simulation stage: matrix is not positive semidefinite (pivot 3)"


class TestRunSuite:
    def write_config(self, directory, payload):
        path = os.path.join(str(directory), f"{payload['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return path

    def test_suite_with_error_row(self, tmp_path):
        self.write_config(tmp_path, THIRDS_IMAGE)
        self.write_config(
            tmp_path,
            {
                **MINIMAL,
                "name": "unbuildable",
                "set": {"kind": "txset", "beta": 0.5, "level": 3},
                "grid": {"j_min": 2, "j_max": 5},
            },
        )
        rows = run_suite(str(tmp_path))
        assert len(rows) == 2
        by_name = {r["name"]: r for r in rows}
        assert by_name["thirds-image"]["pass"] is True
        # refused at load: level 3 branches past 2^53
        assert by_name["unbuildable"]["pass"] == "error:ConfigError"
        assert math.isnan(by_name["unbuildable"]["gap"])
        summary = (tmp_path / "summary.csv").read_text()
        assert "name,predicted,estimate_box,estimate_kernel,gap,pass" in summary
        assert "unbuildable,nan,nan,nan,nan,error:ConfigError" in summary

    def test_malformed_configs_are_error_rows(self, tmp_path):
        tiny = {**MINIMAL, "name": "tiny", "resolution": 256, "grid": {"j_min": 2, "j_max": 5}}
        self.write_config(tmp_path, tiny)
        (tmp_path / "bad.json").write_text('{"name": "x", "alpha": "abc", "d": 1, "seed": 1}')
        (tmp_path / "broken.json").write_text("{")
        rows = run_suite(str(tmp_path))
        assert [r["name"] for r in rows] == ["bad", "broken", "tiny"]
        assert [r["pass"] for r in rows[:2]] == ["error:ConfigError"] * 2
        assert isinstance(rows[2]["pass"], bool)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[2].startswith("bad,nan,") and lines[2].endswith(",error:ConfigError")
        assert lines[4].startswith("tiny,")
        # the bytes the summary had when its rows were written by hand
        assert (tmp_path / "summary.csv").read_bytes() == (
            f"# config_hash=d760d4e7691c version={__version__}\n"
            "name,predicted,estimate_box,estimate_kernel,gap,pass\n"
            "bad,nan,nan,nan,nan,error:ConfigError\n"
            "broken,nan,nan,nan,nan,error:ConfigError\n"
            "tiny,1.0,0.9334601924922472,0.8984501294130384,0.10154987058696163,true\n"
        ).encode()

    def test_a_comma_in_a_file_name_is_quoted(self, tmp_path):
        (tmp_path / "bad,name.json").write_text("{")
        (tmp_path / "plain.json").write_text("{")
        rows = run_suite(str(tmp_path))
        assert [r["name"] for r in rows] == ["bad,name", "plain"]
        text = (tmp_path / "summary.csv").read_text()
        assert '\n"bad,name",nan,nan,nan,nan,error:ConfigError\nplain,nan,' in text
        with open(tmp_path / "summary.csv", newline="") as fh:
            records = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert [len(record) for record in records] == [6, 6, 6]
        assert [record[0] for record in records] == ["name", "bad,name", "plain"]

    def test_configs_refused_at_load_are_not_sampled(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a refused config")

        monkeypatch.setattr(experiment, "sample_many", no_sampling)
        no_level = {"kind": "cantor", "branches": 2, "ratio": 0.3}
        self.write_config(tmp_path, {**MINIMAL, "name": "no-level", "set": no_level})
        big_mesh = {**MINIMAL, "name": "big-mesh", "n": 2, "d": 3, "resolution": 2**14}
        self.write_config(tmp_path, big_mesh)
        self.write_config(tmp_path, {**MINIMAL, "name": "one-point", "resolution": 1})
        wide = {"kind": "constant", "values": [1.0, 2.0]}
        self.write_config(tmp_path, {**MINIMAL, "name": "wide-drift", "drift": wide})
        # its row read error:InvalidArgumentError, from the simulation stage
        cube = {"kind": "polynomial", "rows": [[1.0, 2.0]]}
        self.write_config(tmp_path, {**MINIMAL, "name": "cube-polynomial", "n": 2, "drift": cube})
        rows = run_suite(str(tmp_path))
        assert [(r["name"], r["pass"]) for r in rows] == [
            ("big-mesh", "error:ConfigError"), ("cube-polynomial", "error:ConfigError"),
            ("no-level", "error:ConfigError"),
            ("one-point", "error:ConfigError"), ("wide-drift", "error:ConfigError"),
        ]

    def test_oversize_fractal_sets_are_error_rows(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a refused config")

        monkeypatch.setattr(experiment, "sample_many", no_sampling)
        cantor = {"kind": "cantor", "branches": 2, "ratio": 1.0 / 3.0, "level": 14}
        self.write_config(tmp_path, {**MINIMAL, "name": "big-cantor", "set": cantor})
        txset = {"kind": "txset", "beta": 0.5, "level": 2}
        self.write_config(tmp_path, {**MINIMAL, "name": "big-txset", "set": txset})
        rows = run_suite(str(tmp_path))
        assert [(r["name"], r["pass"]) for r in rows] == [
            ("big-cantor", "error:ConfigError"), ("big-txset", "error:ConfigError"),
        ]

    def test_unbuildable_sets_are_error_rows(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a refused config")

        monkeypatch.setattr(experiment, "sample_many", no_sampling)
        txset = {"kind": "txset", "beta": 0.1, "delta0": 0.1, "level": 5}
        self.write_config(tmp_path, {**MINIMAL, "name": "narrow-txset", "set": txset})
        cantor = {"kind": "cantor", "branches": 2, "ratio": 0.5, "level": 3}
        self.write_config(tmp_path, {**MINIMAL, "name": "wide-cantor", "set": cantor})
        self.write_config(tmp_path, {**MINIMAL, "name": "negative-seed", "seed": -1})
        rows = run_suite(str(tmp_path))
        assert [(r["name"], r["pass"]) for r in rows] == [
            ("narrow-txset", "error:ConfigError"),
            ("negative-seed", "error:ConfigError"),
            ("wide-cantor", "error:ConfigError"),
        ]

    def test_unreadable_entry_is_an_error_row(self, tmp_path):
        tiny = {**MINIMAL, "name": "tiny", "resolution": 256, "grid": {"j_min": 2, "j_max": 5}}
        self.write_config(tmp_path, tiny)
        (tmp_path / "d.json").mkdir()
        rows = run_suite(str(tmp_path))
        assert [r["name"] for r in rows] == ["d", "tiny"]
        assert rows[0]["pass"] == "error:IsADirectoryError"
        assert isinstance(rows[1]["pass"], bool)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[2] == "d,nan,nan,nan,nan,error:IsADirectoryError"
        assert lines[3].startswith("tiny,1.0,")

    def test_suite_records_stage_errors(self, tmp_path):
        self.write_config(tmp_path, UNDERSAMPLED)
        (row,) = run_suite(str(tmp_path))
        assert row["pass"] == "error:ResolutionError"
        assert "error:ResolutionError" in (tmp_path / "summary.csv").read_text()

    def test_summary_is_byte_deterministic(self, tmp_path):
        self.write_config(tmp_path, THIRDS_IMAGE)
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        run_suite(str(tmp_path), out_path=str(out1))
        run_suite(str(tmp_path), out_path=str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite(str(tmp_path))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_suite(str(tmp_path / "nowhere"))
