import json
import re
from pathlib import Path

import numpy as np
import pytest

import finitegap as fg
from finitegap import cli
from finitegap.cli import main

import oracles


def run(tmp_path, command, config=None, extra=()):
    argv = [command, "--out", str(tmp_path), "--quiet", *extra]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    return main(argv)


def test_eqm_single_band(tmp_path):
    rc = run(tmp_path, "eqm", {"bands": [[-2, 2]]})
    assert rc == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["tool"] == "finitegap"
    assert doc["capacity"] == pytest.approx(1.0, abs=1e-8)
    assert doc["rational_period"] == 1
    header = (tmp_path / "eqm_grid.csv").read_text().splitlines()
    assert header[1] == "x,w,phi,green"


def test_eqm_symmetric_harmonic_measures(tmp_path):
    run(tmp_path, "eqm", {"bands": [[-2, -1], [1, 2]]})
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["harmonic_measures"] == pytest.approx([0.5, 0.5], abs=1e-10)


def test_malformed_json_exit_2_no_partial_files(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    rc = main(["eqm", "--out", str(tmp_path), "--config", str(cfg), "--quiet"])
    assert rc == 2
    assert not (tmp_path / "equilibrium.json").exists()
    assert not (tmp_path / "eqm_grid.csv").exists()


def test_invalid_bands_exit_2(tmp_path):
    rc = run(tmp_path, "eqm", {"bands": [[-2, -1], [-1, 2]]})
    assert rc == 2


def test_unknown_keys_rejected(tmp_path):
    rc = run(tmp_path, "eqm", {"bands": [[-2, 2]], "bogus": 1})
    assert rc == 2


def test_measure_spec_rejects_dead_band(tmp_path, capsys):
    # a dead band cut out of a normalized base leaves mass below 1, so no
    # measure spec can carry one
    rc, files = run_fresh(tmp_path, "sumrule", {
        "experiment": "three_condition", "bands": [[-2, 2]], "which_two": ["a", "c"],
        "measure": {"base": "semicircle", "dead_band": [0.2, 0.8]},
        "n_strip": 64, "n_trunc": 256})
    assert rc == 2 and files == []
    assert "unknown config keys ['dead_band'] in measure spec" in capsys.readouterr().err


def test_missing_config_exit_3(tmp_path):
    rc = main(["eqm", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path), "--quiet"])
    assert rc == 3


def test_torus_period2_csv(tmp_path):
    s5 = float(np.sqrt(5))
    rc = run(tmp_path, "torus",
             {"bands": [[-s5, -1], [1, s5]],
              "dirichlet": [{"gamma": 0.0, "sheet": -1}], "n": 24})
    assert rc == 0
    rows = (tmp_path / "torus_coeffs.csv").read_text().splitlines()[2:]
    a = np.array([float(r.split(",")[1]) for r in rows])
    hi, lo = (s5 + 1) / 2, (s5 - 1) / 2
    for n in range(5, 20):
        expect = hi if n % 2 == 1 else lo
        assert a[n - 1] == pytest.approx(expect, abs=1e-6)


def test_oprl_output(tmp_path):
    rc = run(tmp_path, "oprl", {"jacobi": "free", "z": [2.0, [0.0, 1.0]], "n": 2})
    assert rc == 0
    rows = (tmp_path / "oprl.csv").read_text().splitlines()[2:]
    assert float(rows[2].split(",")[3]) == pytest.approx(3.0)  # p_2(2) = z^2-1
    # p_2(i) = i^2 - 1 = -2
    assert float(rows[5].split(",")[3]) == pytest.approx(-2.0)


def test_perturb_and_distance_pipeline(tmp_path):
    rc = run(tmp_path, "perturb",
             {"base": "free",
              "perturbation": {"kind": "single_site", "index": 1, "value": 3.0,
                               "target": "b"},
              "n": 16})
    assert rc == 0
    doc = json.loads((tmp_path / "perturb.json").read_text())
    assert doc["abs_delta_b_partial"] == pytest.approx(3.0)
    rc = run(tmp_path, "distance",
             {"bands": [[-2, 2]], "jacobi": {"head_a": [1.0], "head_b": [3.0],
                                             "tail": {"kind": "free"}},
              "m": 2})
    assert rc == 0
    doc = json.loads((tmp_path / "distance.json").read_text())
    assert doc["value"] == pytest.approx(0.0, abs=1e-12)  # free beyond index 1


def test_perturb_oscillatory_phase_is_read(tmp_path):
    # the perturbation spec passes phase through to Oscillatory
    spec = {"kind": "oscillatory", "theta": 0.3, "amplitude": 0.1,
            "decay": 1.0, "phase": 0.2, "target": "b"}
    assert run(tmp_path, "perturb", {"base": "free", "perturbation": spec,
                                     "n": 16}) == 0
    doc = json.loads((tmp_path / "perturb.json").read_text())
    assert doc["perturbation"]["phase"] == 0.2
    rows = np.loadtxt(tmp_path / "perturb_coeffs.csv", delimiter=",",
                      skiprows=2)
    n = np.arange(1, 17)
    assert np.allclose(rows[:, 4], 0.1 * np.cos(2 * np.pi * 0.3 * n + 0.2) / n,
                       rtol=0, atol=1e-15)


def test_distance_torus_self(tmp_path):
    s5 = float(np.sqrt(5))
    bands = [[-s5, -1], [1, s5]]
    rc = run(tmp_path, "distance",
             {"bands": bands,
              "jacobi": {"torus": {"bands": bands,
                                   "dirichlet": [{"gamma": 0.0, "sheet": -1}],
                                   "n": 48}},
              "m": 2, "grid_per_gap": 8})
    assert rc == 0
    doc = json.loads((tmp_path / "distance.json").read_text())
    assert doc["value"] < 1e-4
    assert "grid_per_gap" not in doc


def test_distance_grid_per_gap_is_checked_and_not_read(tmp_path):
    # the search has no grid: grid_per_gap 4 or 8 gives the same distance
    # as no key at all, and distance.json does not carry it
    bands = [[-2, -1], [1, 2]]
    docs = []
    for i, extra in enumerate(({}, {"grid_per_gap": 4}, {"grid_per_gap": 8})):
        (tmp_path / str(i)).mkdir()
        rc, files = run_fresh(tmp_path / str(i), "distance",
                              {"bands": bands, "m": 3, **extra})
        assert rc == 0 and files == ["distance.json"]
        doc = json.loads((tmp_path / str(i) / "out" / "distance.json").read_text())
        assert "grid_per_gap" not in doc
        docs.append((doc["value"], doc["dirichlet"], doc["nfev"]))
    assert docs[0] == docs[1] == docs[2]


def test_distance_without_a_site_start_exit_1_no_file(tmp_path, capsys):
    rc, files = run_fresh(tmp_path, "distance", {
        "bands": [[-2, -1], [-0.3, 0.4], [1.1, 2]], "m": 1,
        "jacobi": {"head_a": [1.7, 1.0, 1.2, 0.7], "head_b": [-0.4, -2.2, 2.95, 0.3],
                   "tail": {"kind": "free"}}})
    assert rc == 1 and files == []
    assert "no site start" in capsys.readouterr().err


def test_sumrule_lt_free_verdict(tmp_path):
    rc = run(tmp_path, "sumrule",
             {"experiment": "lt_free",
              "perturbation": {"kind": "single_site", "index": 1, "value": 3.0,
                               "target": "b"},
              "n_trunc": 1200})
    assert rc == 0
    doc = json.loads((tmp_path / "sumrule_lt_free.json").read_text())
    assert doc["verdict"] is True
    assert doc["result"]["lhs"] == pytest.approx(8 / 3, abs=1e-6)


def test_sumrule_cesaro_table(tmp_path):
    rc = run(tmp_path, "sumrule",
             {"experiment": "cesaro", "bands": [[-2, 2]],
              "jacobi": {"head_a": [1.0, 1.0], "head_b": [0.5, -0.25],
                         "tail": {"kind": "free"}},
              "M": 8})
    assert rc == 0
    rows = (tmp_path / "cesaro_dm.csv").read_text().splitlines()
    assert rows[1] == "m,d_m"
    assert len(rows) == 10


def test_report_aggregates(tmp_path):
    run(tmp_path, "sumrule",
        {"experiment": "lt_free",
         "perturbation": {"kind": "single_site", "index": 1, "value": 3.0,
                          "target": "b"},
         "n_trunc": 800})
    rc = run(tmp_path, "report")
    assert rc == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert any("sumrule_lt_free.json" in r and "True" in r for r in rows[2:])


def test_report_empty_dir(tmp_path):
    rc = run(tmp_path, "report")
    assert rc == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[1] == "file,verdict,value"
    assert len(rows) == 2


def test_determinism_byte_identical(tmp_path):
    cfg = {"bands": [[-2, -0.5], [0.5, 2]], "grid_points": 16}
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    out1.mkdir(), out2.mkdir()
    for out in (out1, out2):
        argv = ["eqm", "--out", str(out), "--seed", "7", "--quiet"]
        cfgp = out / "c.json"
        cfgp.write_text(json.dumps(cfg))
        assert main(argv + ["--config", str(cfgp)]) == 0
    assert (out1 / "eqm_grid.csv").read_bytes() == (out2 / "eqm_grid.csv").read_bytes()
    assert (out1 / "equilibrium.json").read_bytes() == \
        (out2 / "equilibrium.json").read_bytes()


def test_version_and_hash_embedded(tmp_path):
    run(tmp_path, "eqm", {"bands": [[-2, 2]]})
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["version"] == "0.1.0"
    assert len(doc["config_sha256"]) == 64
    first = (tmp_path / "eqm_grid.csv").read_text().splitlines()[0]
    assert doc["config_sha256"] in first


def test_readme_configs_run(tmp_path):
    # every config of the README's "Config shapes" block, under the command
    # its comment names, exits 0, so the documented keys cannot drift from
    # the keys the CLI accepts
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    configs = []
    for chunk in block.strip().split("\n\n"):
        lines = chunk.splitlines()
        command = re.match(r"// (\w+)", lines[0]).group(1)
        configs.append((command, json.loads("\n".join(
            ln for ln in lines if not ln.startswith("//")))))
    assert [c for c, _ in configs] == ["eqm", "torus", "oprl", "perturb",
                                       "sumrule", "distance"]
    for command, config in configs:
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--out", str(tmp_path / "out"), "--quiet",
                     "--config", str(cfg)]) == 0, command


def test_documented_global_flags_match_parser():
    # the "Global flags" lines of the module docstring and the README list
    # exactly the parser's options, so a removed flag cannot linger in docs
    flags = set(re.findall(r"--[a-z-]+", cli.build_parser().format_usage()))
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for doc in (cli.__doc__, readme):
        line = next(ln for ln in doc.splitlines() if ln.startswith("Global flags:"))
        assert set(re.findall(r"--[a-z-]+", line)) == flags


# ---------------------------------------------------------------------------
# bulk output path: row templates, array densities, one parser per process

S5 = float(np.sqrt(5))
P2 = [[-S5, -1.0], [1.0, S5]]
TORUS = {"bands": P2, "dirichlet": [{"gamma": 0.0, "sheet": -1}], "n": 24}
RAND = {"kind": "random", "seed": 43, "rate": 1.5, "amplitude": 0.5}
# every command once, in an order where report sees the others' JSON
ALL_COMMANDS = [
    ("eqm", {"bands": [[-2, -1], [1, 2]], "grid_points": 32}),
    ("torus", TORUS),
    ("oprl", {"jacobi": {"torus": TORUS}, "z": [3.0, [0.0, 1.0], [-2.5, 0.5]],
              "n": 64}),
    ("perturb", {"base": "free", "perturbation": {**RAND, "target": "both"},
                 "n": 256}),
    ("sumrule", {"experiment": "lt_free", "perturbation": {**RAND, "target": "b"},
                 "n_trunc": 400}),
    ("sumrule", {"experiment": "cesaro", "bands": [[-2, 2]],
                 "jacobi": {"head_a": [1.0, 1.0], "head_b": [0.5, -0.25],
                            "tail": {"kind": "free"}}, "M": 8}),
    ("distance", {"bands": P2, "jacobi": {"torus": TORUS}, "m": 2}),
    ("report", None),
]


def _run_all(out, extra=()):
    out.mkdir()
    for i, (command, config) in enumerate(ALL_COMMANDS):
        argv = [command, "--out", str(out), *extra]
        if config is not None:
            cfg = out.parent / f"{out.name}-{i}.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0, command
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_row_templates_match_per_cell_writer(tmp_path, monkeypatch):
    got = _run_all(tmp_path / "templates", ["--quiet"])
    monkeypatch.setattr(cli, "_write_csv", oracles.write_csv_plain)
    want = _run_all(tmp_path / "per_cell", ["--quiet"])
    assert sorted(n for n in got if n.endswith(".csv")) == [
        "cesaro_dm.csv", "eqm_grid.csv", "oprl.csv", "perturb_coeffs.csv",
        "summary.csv", "torus_coeffs.csv"]
    assert got == want


def test_row_template_edge_cells(tmp_path):
    rows = [("s", 1, -0.0, 1e-310, np.inf, -np.inf),
            ("t,u", np.int64(-7), np.nan, np.float64(0.1), np.float64(-0.0),
             np.float64(1e-310)),
            ("", 0, 5e-324, 1.7976931348623157e308, 1 / 3, np.float64(np.nan))]
    template = "%s,%d,%.17g,%.17g,%.17g,%.17g"
    cli._write_csv(tmp_path, "lib.csv", list("abcdef"), template, rows, {})
    oracles.write_csv_plain(tmp_path, "plain.csv", list("abcdef"), template, rows, {})
    text = (tmp_path / "lib.csv").read_text()
    assert text == (tmp_path / "plain.csv").read_text()
    assert text.splitlines()[2:] == [
        "s,1,-0,9.9999999999999694e-311,inf,-inf",
        "t,u,-7,nan,0.10000000000000001,-0,9.9999999999999694e-311",
        ",0,4.9406564584124654e-324,1.7976931348623157e+308,0.33333333333333331,nan"]


def test_eqm_density_column_matches_scalar_route(tmp_path):
    run(tmp_path, "eqm", {"bands": [[-2, -1], [0.5, 2]], "grid_points": 16})
    eq = fg.solve_equilibrium(fg.make_band_set([-2, -1, 0.5, 2]))
    rows = (tmp_path / "eqm_grid.csv").read_text().splitlines()[2:]
    assert len(rows) == 32
    for row in rows:
        x, w = (float(v) for v in row.split(",")[:2])
        assert w == oracles.equilibrium_density_plain(eq, x)


def test_main_reuses_parser_between_calls(tmp_path, capsys):
    cfg = tmp_path / "eqm.json"
    cfg.write_text(json.dumps({"bands": [[-2, -1], [1, 2]], "grid_points": 8}))
    outs = [tmp_path / "quiet", tmp_path / "loud"]
    assert main(["eqm", "--out", str(outs[0]), "--config", str(cfg), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["eqm", "--out", str(outs[1]), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("capacity ")
    files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]
    assert files[0] == files[1] and len(files[0]) == 2


# ---------------------------------------------------------------------------
# malformed input exits 2 with an error line and writes nothing


def run_fresh(tmp_path, command, config):
    """Run with the config beside a fresh output directory; (rc, files made)."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main([command, "--out", str(out), "--quiet", "--config", str(cfg)])
    return rc, sorted(p.name for p in out.iterdir())


BAD_JACOBI = {"no_head_b": {"head_a": [1.0]},
              "periodic_tail_without_b": {
                  "head_a": [1.0], "head_b": [0.0],
                  "tail": {"kind": "periodic", "a": [1.0, 0.5]}}}


@pytest.mark.parametrize("route", ["inline", "path"])
@pytest.mark.parametrize("name", sorted(BAD_JACOBI))
def test_malformed_jacobi_spec_exit_2(tmp_path, capsys, route, name):
    spec = BAD_JACOBI[name]
    if route == "path":
        path = tmp_path / "jacobi.json"
        path.write_text(json.dumps(spec))
        spec = {"path": str(path)}
    rc, files = run_fresh(tmp_path, "oprl", {"jacobi": spec})
    assert rc == 2 and files == []
    assert capsys.readouterr().err.startswith("error: bad jacobi spec")


@pytest.mark.parametrize("command,config", [
    ("oprl", {"n": -1}),
    ("sumrule", {"experiment": "oscillatory", "bands": [[-2, -1], [1, 2]],
                 "n": 0}),
    ("torus", {"bands": [[-2, 2]], "n": -1}),
    ("sumrule", {"experiment": "cesaro", "bands": [[-2, 2]], "M": 0}),
    ("eqm", {"bands": [[-2, 2]], "grid_points": 8.5}),
    ("sumrule", {"experiment": "three_condition", "bands": [[-2, 2]],
                 "n_strip": 1}),
    ("sumrule", {"experiment": "three_condition", "bands": [[-2, 2]],
                 "n_trunc": 3}),
    ("sumrule", {"experiment": "oscillatory", "bands": [[-2, -1], [1, 2]],
                 "n": 1}),
    ("distance", {"bands": [[-2, -1], [1, 2]], "grid_per_gap": 0}),
], ids=["oprl_n", "oscillatory_n", "torus_n", "cesaro_M", "eqm_float",
        "three_condition_n_strip", "three_condition_n_trunc", "oscillatory_n_one",
        "distance_grid_per_gap"])
def test_size_out_of_range_exit_2_no_files(tmp_path, capsys, command, config):
    rc, files = run_fresh(tmp_path, command, config)
    assert rc == 2 and files == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be an integer >=" in err


@pytest.mark.parametrize("command,config", [
    ("sumrule", {"experiment": "oscillatory", "bands": [[-2, -1], [1, 2]],
                 "amplitude": None}),
    ("sumrule", {"experiment": "three_condition", "bands": [[-2, 2]],
                 "which_two": 5}),
    ("sumrule", {"experiment": "cesaro", "bands": [[-2, 2]],
                 "jacobi": {"torus": 5}}),
    ("sumrule", {"experiment": "three_condition", "bands": [[-2, 2]],
                 "measure": {"atoms": [[None, 0.1]]}}),
    ("sumrule", {"experiment": "oscillatory", "bands": [[-2, -1], [1, 2]],
                 "k_vector": None}),
    ("sumrule", {"experiment": "oscillatory", "bands": [[-2, -1], [1, 2]],
                 "k_list": 5}),
    ("oprl", {"z": [None]}),
    ("oprl", {"z": 5}),
    ("distance", {"bands": [[-2, -1], [1, 2]], "grid_per_gap": "x"}),
], ids=["amplitude_null", "which_two_int", "torus_spec_int", "atoms_null",
        "k_vector_null", "k_list_int", "z_item_null", "z_int",
        "grid_per_gap_str"])
def test_wrong_json_type_exit_2_no_files(tmp_path, capsys, command, config):
    rc, files = run_fresh(tmp_path, command, config)
    assert rc == 2 and files == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and " must be " in err and ", got " in err


def test_oprl_n_zero_is_valid(tmp_path):
    rc, files = run_fresh(tmp_path, "oprl", {"n": 0, "z": [3.0]})
    assert rc == 0 and files == ["oprl.csv"]
    rows = (tmp_path / "out" / "oprl.csv").read_text().splitlines()[2:]
    assert rows == ["3,0,0,1,0"]


@pytest.mark.parametrize("config", [
    {"experiment": "lt_free", "M": 5},
    {"experiment": "three_condition", "bands": [[-2, 2]], "k_list": [[1]]},
    {"experiment": "cesaro", "bands": [[-2, 2]], "measure": {}},
    {"experiment": "oscillatory", "bands": [[-2, -1], [1, 2]], "n_trunc": 64},
], ids=["lt_free", "three_condition", "cesaro", "oscillatory"])
def test_sumrule_rejects_another_experiments_key(tmp_path, capsys, config):
    rc, files = run_fresh(tmp_path, "sumrule", config)
    assert rc == 2 and files == []
    assert "unknown config keys" in capsys.readouterr().err


def test_sumrule_oscillatory_defaults_fit_two_gaps(tmp_path):
    rc, files = run_fresh(tmp_path, "sumrule", {
        "experiment": "oscillatory", "bands": [[-2, -1], [-0.3, 0.4], [1.1, 2]],
        "n": 1024})
    assert rc == 0 and files == ["sumrule_oscillatory.json"]
    doc = json.loads((tmp_path / "out" / "sumrule_oscillatory.json").read_text())
    assert sorted(doc["per_k"]) == ["(0, 0)", "(1, 1)", "(2, 2)"]


@pytest.mark.parametrize("config,message", [
    ({"bands": [[-2, 2]]}, "needs a set with a gap"),
    ({"bands": [[-2, -1], [-0.3, 0.4], [1.1, 2]], "k_vector": [1]},
     "k_vector must be a list of 2 numbers"),
    ({"bands": [[-2, -1], [1, 2]], "k_list": [[0], [1, 1]]},
     "k_list must be a list of lists of 1 numbers"),
], ids=["single_band", "k_vector_length", "k_list_length"])
def test_sumrule_oscillatory_needs_gaps_and_lengths(tmp_path, capsys, config,
                                                     message):
    rc, files = run_fresh(tmp_path, "sumrule", {"experiment": "oscillatory",
                                                **config})
    assert rc == 2 and files == []
    assert message in capsys.readouterr().err
