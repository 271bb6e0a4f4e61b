import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trunclab import cli, experiment, fem, lattice, plotting, theory
from trunclab.experiment import (
    ExperimentConfig,
    PdeTruncationModel,
    config_from_json,
    config_to_json,
    distance_for,
    oracle_check_report,
    oracle_spec_from_json,
    paper_scale,
    predict_report,
    run_experiment,
)
from trunclab.field import PERIODIC, DiffusionFieldSpec, truncate

MICRO = ExperimentConfig(
    theta_list=(2.0,),
    s_list=(2, 4, 8),
    s_ref=16,
    mesh_m=4,
    n_nodes=2 ** 5,
    seed=3,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _polylines(svg_path, cls):
    root = ET.parse(svg_path).getroot()
    return [e for e in root.iter(SVG_NS + "polyline") if e.get("class") == cls]


def _texts(svg_path):
    root = ET.parse(svg_path).getroot()
    return [e.text for e in root.iter(SVG_NS + "text")]


def test_config_defaults_are_valid():
    config = ExperimentConfig()
    assert config.theta_list == (1.5, 2.0, 3.0)
    assert config.s_list[-1] <= config.s_ref
    assert config.n_nodes == 2 ** 13


def test_config_validation_errors():
    with pytest.raises(ValueError, match="summable"):
        ExperimentConfig(theta_list=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(s_list=(4, 4, 8))
    with pytest.raises(ValueError):
        ExperimentConfig(s_list=(8, 4))
    with pytest.raises(ValueError):
        ExperimentConfig(s_list=(2, 4, 1024), s_ref=512)
    with pytest.raises(ValueError):
        ExperimentConfig(n_nodes=100)
    with pytest.raises(ValueError):
        ExperimentConfig(transform="fourier")
    with pytest.raises(ValueError):
        ExperimentConfig(quantity="gradient")
    with pytest.raises(ValueError):
        ExperimentConfig(norm="L1")
    with pytest.raises(ValueError, match="theta_list"):
        ExperimentConfig(theta_list=2.0)
    with pytest.raises(ValueError, match="theta_list"):
        ExperimentConfig(theta_list=(2.0, math.nan))
    with pytest.raises(ValueError, match="s_list"):
        ExperimentConfig(s_list=(2, 4.5))
    with pytest.raises(ValueError, match="interior vertex"):
        ExperimentConfig(mesh_m=1)


def test_config_json_round_trip():
    config = replace(MICRO, quantity="qoi_nl", norm="H10", seed=17)
    assert config_from_json(config_to_json(config)) == config


def test_config_json_rejects_unknown_keys():
    data = json.loads(config_to_json(MICRO))
    data["mesh"] = 12
    with pytest.raises(ValueError, match="mesh"):
        config_from_json(json.dumps(data))


def test_paper_scale_geometry():
    big = paper_scale(ExperimentConfig())
    assert big.mesh_m == 32
    assert big.n_nodes == 2 ** 20
    assert big.s_ref == 2 ** 11
    assert big.s_list == tuple(2 ** k for k in range(1, 10))
    assert big.seed == ExperimentConfig().seed


def test_model_coefficient_matches_field_eval(rng):
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=16)
    model = PdeTruncationModel(spec, mesh_m=4)
    y = rng.uniform(-0.5, 0.5, size=8)
    got = model.coefficient_at_quad(y).ravel()
    x1, x2 = model.assembler.quad_points.reshape(-1, 2).T
    want = np.full(x1.shape, spec.a0)
    for j, yj in enumerate(y, start=1):
        xi = math.sin(2.0 * math.pi * yj) / math.sqrt(6.0)
        want += xi * j ** -spec.decay * np.sin(j * np.pi * x1) * np.sin(j * np.pi * x2)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_model_zero_parameter_gives_constant_coefficient():
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=16)
    model = PdeTruncationModel(spec, mesh_m=4)
    coeff = model.coefficient_at_quad(np.zeros(16))
    assert np.allclose(coeff, 1.5, atol=1e-15)


def test_model_truncates_full_length_node(rng):
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=16)
    model = PdeTruncationModel(spec, mesh_m=4)
    y = rng.uniform(-0.5, 0.5, size=16)
    for s in (0, 1, 5, 15, 16):
        assert np.array_equal(model(s, y).values, model(s, truncate(y, s)).values)


def test_model_qoi_quantity_returns_scalar():
    spec = DiffusionFieldSpec(decay=2.0, transform=PERIODIC, max_modes=8)
    model = PdeTruncationModel(spec, mesh_m=4, quantity="qoi_nl")
    value = model(4, np.full(8, 0.2))
    assert isinstance(value, float)
    assert value > 0


def test_distance_for_qoi_is_absolute_difference():
    dist = distance_for("qoi_nl", "L2")
    assert dist(3.0, 1.25) == 1.75


def test_distance_for_full_solution_uses_norm():
    dist = distance_for("full_solution", "H10")
    mesh = fem.build_unit_square_mesh(3)
    u = fem.FemSolution(mesh, mesh.vertices[:, 0])
    zero = fem.FemSolution(mesh, np.zeros(len(mesh.vertices)))
    assert dist(u, zero) == pytest.approx(1.0, rel=1e-14)


def test_run_single_row_at_reference_dimension(tmp_path):
    config = replace(MICRO, s_list=(16,))
    (path, table), = run_experiment(config, tmp_path)
    assert table.rows == ((16, 0.0),)
    assert os.path.exists(path)


def test_run_is_deterministic_across_calls_and_workers(tmp_path):
    config = replace(MICRO, n_nodes=128)  # two sweep blocks, so workers=2 uses the pool
    (p1, _), = run_experiment(config, tmp_path / "a", workers=1)
    (p2, _), = run_experiment(config, tmp_path / "b", workers=2)
    (p3, _), = run_experiment(config, tmp_path / "c", workers=1)
    blob = Path(p1).read_bytes()
    assert blob == Path(p2).read_bytes()
    assert blob == Path(p3).read_bytes()


def test_run_seed_changes_output(tmp_path):
    (p1, _), = run_experiment(MICRO, tmp_path / "a")
    (p2, _), = run_experiment(replace(MICRO, seed=4), tmp_path / "b")
    assert Path(p1).read_bytes() != Path(p2).read_bytes()


def test_run_sweep_caching_matches_single_runs(tmp_path):
    (_, combined), = run_experiment(MICRO, tmp_path / "ab")
    rows = {}
    for s in MICRO.s_list:
        (_, single), = run_experiment(replace(MICRO, s_list=(s,)), tmp_path / f"s{s}")
        rows[s] = single.rows[0][1]
    for s, err in combined.rows:
        assert err == rows[s]


def test_run_metadata_records_the_experiment(tmp_path):
    (_, table), = run_experiment(MICRO, tmp_path)
    meta = table.metadata
    assert meta["theta"] == "2.0"
    assert meta["transform"] == "periodic"
    assert meta["n"] == str(MICRO.n_nodes)
    assert meta["s_ref"] == "16"
    assert meta["h"] == repr(1.0 / MICRO.mesh_m)
    assert meta["seed"] == "3"
    assert meta["quantity"] == "full_solution"
    assert meta["norm"] == "L2"


def test_run_rejects_oversized_reference_dimension(tmp_path):
    config = replace(MICRO, s_ref=4000, s_list=(2,))
    with pytest.raises(ValueError, match="generating vector"):
        run_experiment(config, tmp_path)


def test_predict_reports_caption_rates():
    lines, tables = predict_report(ExperimentConfig())
    text = "\n".join(lines)
    assert "expected rate -1," in text or "expected rate -1 " in text.replace("\n", " ")
    assert "-1.5" in text
    assert "-2.5" in text
    assert "k=3" in text
    assert "p=0.501" in text


def test_predict_emits_bound_tables_when_representable():
    # a miniature field keeps ||b||_p small enough for the closed form
    config = ExperimentConfig(
        theta_list=(3.0,), s_list=(1, 2, 4), s_ref=4, mesh_m=2, n_nodes=4
    )
    lines, tables = predict_report(config)
    if tables:
        rows = tables[0].rows
        assert all(err > 0 for _, err in rows)
        assert rows[0][1] >= rows[-1][1]
    else:
        assert any("not representable" in line for line in lines)


def test_oracle_check_default_passes():
    ok, lines = oracle_check_report(n_used=2 ** 12)
    assert ok
    assert any("pass" in line for line in lines)


def test_oracle_check_zero_model():
    from trunclab.oracle import ScalarModelSpec

    spec = ScalarModelSpec(a0=1.5, b=(0.0, 0.0, 0.0))
    ok, lines = oracle_check_report(spec=spec, n_used=2 ** 8)
    assert ok
    assert any("exact zero" in line for line in lines)


def test_oracle_spec_json_round_trip():
    text = json.dumps({"a0": 2.0, "b": [0.2, 0.1], "transform": "periodic"})
    spec = oracle_spec_from_json(text)
    assert spec.a0 == 2.0
    assert spec.b == (0.2, 0.1)
    assert spec.transform.kind == "periodic"
    with pytest.raises(ValueError, match="decay"):
        oracle_spec_from_json(json.dumps({"decay": 2.0}))
    with pytest.raises(ValueError, match="a0"):
        oracle_spec_from_json(json.dumps({"a0": [1.5]}))


def test_fit_report_synthetic_power_law(tmp_path):
    rows = tuple((s, 3.0 * s ** -2.5) for s in (2, 4, 8, 16, 32, 64))
    table = theory.ErrorTable(rows, {"s_ref": "128", "theta": "3.0"})
    path = tmp_path / "synt.csv"
    table.write(path)
    lines = experiment.fit_report(path, s_min=2)
    assert any("slope -2.5000" in line for line in lines)
    assert any("gap 0.0000" in line for line in lines)


# ---------------------------------------------------------------- plotting


def _power_table(slope=-1.5, theta=None, n_rows=6):
    meta = {"s_ref": "4096"}
    if theta is not None:
        meta["theta"] = theta
    rows = tuple((2 ** k, 0.3 * (2 ** k) ** slope) for k in range(1, n_rows + 1))
    return theory.ErrorTable(rows, meta)


def test_plot_single_table_structure(tmp_path):
    out = tmp_path / "one.svg"
    plotting.render_convergence_svg([_power_table(theta="2.0")], out)
    assert len(_polylines(out, "data")) == 1
    ref = _polylines(out, "ref")
    assert len(ref) == 1
    assert all(e.get("stroke-dasharray") for e in ref)


def test_plot_three_tables_with_legend(tmp_path):
    tables = [
        _power_table(-1.0, theta="1.5"),
        _power_table(-1.5, theta="2.0"),
        _power_table(-2.5, theta="3.0"),
    ]
    out = tmp_path / "three.svg"
    plotting.render_convergence_svg(tables, out)
    assert len(_polylines(out, "data")) == 3
    texts = " ".join(t for t in _texts(out) if t)
    for value in ("1.5", "2.0", "3.0"):
        assert f"theta={value}" in texts


def test_plot_is_valid_xml(tmp_path):
    out = tmp_path / "x.svg"
    plotting.render_convergence_svg([_power_table(theta="2.0")], out)
    ET.parse(out)  # raises on malformed output


def test_plot_rejects_tables_without_positive_rows(tmp_path):
    table = theory.ErrorTable(((4096, 0.0),), {"s_ref": "4096"})
    with pytest.raises(ValueError):
        plotting.render_convergence_svg([table], tmp_path / "no.svg")
    with pytest.raises(ValueError):
        plotting.render_convergence_svg([], tmp_path / "no.svg")


def test_plot_reference_slope_without_theta(tmp_path):
    out = tmp_path / "braw.svg"
    plotting.render_convergence_svg([_power_table(-2.0)], out)
    assert len(_polylines(out, "ref")) == 1


# ---------------------------------------------------------------- CLI


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(config_to_json(config), encoding="utf-8")
    return str(path)


def test_cli_run_fit_plot_pipeline(tmp_path, capsys):
    config_path = _write_config(tmp_path, MICRO)
    out_dir = str(tmp_path / "results")
    assert cli.main(["run", "--config", config_path, "--out", out_dir]) == 0
    table_path = os.path.join(
        out_dir, "trunc_full_solution_periodic_theta2.0.csv"
    )
    assert os.path.exists(table_path)
    assert cli.main(["fit", table_path, "--s-min", "2"]) == 0
    assert cli.main(["plot", table_path, "--out", str(tmp_path)]) == 0
    assert os.path.exists(tmp_path / "convergence.svg")
    capsys.readouterr()


def test_cli_run_seed_override_changes_bytes(tmp_path):
    config_path = _write_config(tmp_path, MICRO)
    assert cli.main(["run", "--config", config_path, "--out", str(tmp_path / "a")]) == 0
    assert (
        cli.main(
            ["run", "--config", config_path, "--seed", "9", "--out", str(tmp_path / "b")]
        )
        == 0
    )
    name = "trunc_full_solution_periodic_theta2.0.csv"
    a = (tmp_path / "a" / name).read_bytes()
    b = (tmp_path / "b" / name).read_bytes()
    assert a != b


def test_cli_predict_runs_on_default_config(capsys):
    assert cli.main(["predict"]) == 0
    out = capsys.readouterr().out
    assert "expected rate" in out


def test_cli_exit_code_for_bad_usage(capsys):
    assert cli.main(["bogus"]) == 2
    assert cli.main([]) == 2
    capsys.readouterr()


def test_cli_exit_code_for_missing_file(capsys):
    assert cli.main(["run", "--config", "/nonexistent/config.json"]) == 2
    assert cli.main(["fit", "/nonexistent/table.csv"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize(
    "changes, extra",
    [({"mesh_m": 1}, []), ({}, ["--workers", "0"]), ({}, ["--workers", "-3"])],
)
def test_cli_run_rejects_bad_mesh_and_workers_before_solving(
    changes, extra, tmp_path, monkeypatch, capsys
):
    def no_solve(*args):
        raise AssertionError("solved before rejecting the input")

    monkeypatch.setattr(fem, "solve", no_solve)
    path = tmp_path / "config.json"
    data = dict(json.loads(config_to_json(MICRO)), **changes)
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv + extra) == 2
    assert "error" in capsys.readouterr().err


def test_cli_exit_code_for_underdetermined_fit(tmp_path, capsys):
    table = theory.ErrorTable(((4, 0.25),), {"s_ref": "64"})
    path = tmp_path / "one.csv"
    table.write(path)
    assert cli.main(["fit", str(path)]) == 2
    capsys.readouterr()


def test_cli_oracle_check_gap_failure_maps_to_4(monkeypatch, capsys):
    monkeypatch.setattr(
        experiment, "oracle_check_report", lambda **kw: (False, ["forced gap"])
    )
    assert cli.main(["oracle-check"]) == 4
    capsys.readouterr()


def test_cli_oracle_check_reads_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"a0": 1.5, "b": [0.0, 0.0]}), encoding="utf-8")
    assert cli.main(["oracle-check", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "exact zero" in out


@pytest.mark.parametrize(
    "command, data",
    [
        (["predict", "--config"], {"theta_list": 2.0}),
        (["predict", "--config"], {"mesh_m": "16"}),
        (["predict", "--config"], {"seed": "x"}),
        (["predict", "--config"], {"n_nodes": 8.5}),
        (["oracle-check"], {"b": 0.1}),
    ],
)
def test_cli_exit_code_for_malformed_json(command, data, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(command + [str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
