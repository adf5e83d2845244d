"""The command-line interface, driven through ``main`` with captured output."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import subid
from subid.cli import identify_cmd, main

from conftest import GOLDEN_CLI, GOLDEN_DIR, GOLDEN_VERIFY, GRAPH_DIR, ROOT, read_golden

MEDICATION = str(GRAPH_DIR / "medication.g")
HEDGES = str(GRAPH_DIR / "hedges.g")
LATENT = str(GRAPH_DIR / "latent_selection.g")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(capsys, monkeypatch, path):
    """Run the golden file's command from the repository root; stdout must match byte for byte."""
    argv, _, _ = read_golden(path)
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *argv)
    assert f"$ subid {' '.join(argv)}\n# exit {code}\n{out}".encode() == path.read_bytes()


@pytest.mark.parametrize("path", GOLDEN_CLI, ids=lambda path: path.stem)
def test_identify_matches_golden(capsys, monkeypatch, path):
    assert_golden(capsys, monkeypatch, path)


@pytest.mark.parametrize("path", GOLDEN_VERIFY, ids=lambda path: path.stem)
def test_verify_matches_golden(capsys, monkeypatch, path):
    assert_golden(capsys, monkeypatch, path)


def test_readme_identify_examples_are_golden():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(\$ subid identify .*?)^```$", readme, re.M | re.S)
    pinned = {f"$ subid {' '.join(argv)}\n{out}" for argv, _, out in map(read_golden, GOLDEN_CLI)}
    assert blocks
    for block in blocks:
        assert block in pinned


def test_benchmark_pins_agree_with_the_goldens():
    # read perfbench/corpus.py's CLI_QUERIES as data, without importing the benchmark
    tree = ast.parse((ROOT / "perfbench" / "corpus.py").read_text(encoding="utf-8"))
    queries = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CLI_QUERIES"
    )

    def call(args):  # the parsed options, in any order, with the graph file's name
        params = identify_cmd.make_context("identify", list(args)).params
        return tuple(sorted({**params, "graph_path": Path(params["graph_path"]).name}.items()))

    golden = {call(argv[1:]): (status, out) for argv, status, out in map(read_golden, GOLDEN_CLI)}
    for name, pins in queries.items():
        for args, status, text in pins:
            key = call(["--graph", name, *args])
            assert key in golden, f"no golden file for {name} {' '.join(args)}"
            assert golden[key][0] == status
            assert text is None or golden[key][1] == text + "\n"


def test_identify_json_is_canonical(capsys):
    code, out, _ = run(
        capsys, "identify", "--graph", MEDICATION, "--treatment", "X",
        "--outcome", "Y", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "identifiable"
    assert payload["mode"] == "sid"
    assert payload["query"] == {"treatment": ["X"], "outcome": ["Y"]}
    assert payload["witness"] is None
    assert payload["estimand"]["kind"] == "sum"
    # byte-identical re-dump: the output is already in canonical form
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_identify_json_failure_carries_witness(capsys):
    code, out, _ = run(
        capsys, "identify", "--graph", LATENT, "--treatment", "X",
        "--outcome", "Y", "--format", "json",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["witness"] == {
        "kind": "s-hedge",
        "component": ["Y"],
        "hedge": ["X", "Y"],
    }
    assert payload["estimand"] is None


def test_unknown_vertex_is_usage_error(capsys):
    code, _, err = run(
        capsys, "identify", "--graph", MEDICATION, "--treatment", "Q",
        "--outcome", "Y",
    )
    assert code == 1
    assert "--treatment: unknown vertices Q" in err
    assert "graph vertices are S, X, Y, Z" in err


def test_missing_graph_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "identify", "--graph", str(tmp_path / "nope.g"),
        "--treatment", "X", "--outcome", "Y",
    )
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["identify", "verify"])
def test_graph_file_not_utf8_is_usage_error(capsys, tmp_path, command):
    latin1 = tmp_path / "latin1.g"
    latin1.write_bytes(b"X -> Y\n# caf\xe9\nY -> S\n")
    code, _, err = run(
        capsys, command, "--graph", str(latin1), "--treatment", "X", "--outcome", "Y",
    )
    assert code == 1
    assert f"cannot read {latin1}: 'utf-8' codec can't decode byte 0xe9" in err
    assert "Traceback" not in err


def test_parse_error_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("A -- B\n")
    code, _, err = run(
        capsys, "identify", "--graph", str(bad), "--treatment", "A",
        "--outcome", "B",
    )
    assert code == 1
    assert "line 1, column 1" in err


def test_query_error_is_usage_error(capsys):
    code, _, err = run(
        capsys, "identify", "--graph", MEDICATION, "--treatment", "Y",
        "--outcome", "Y",
    )
    assert code == 1
    assert "overlap on Y" in err


def test_verify_small_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--graph", MEDICATION, "--treatment", "X",
        "--outcome", "Y", "--trials", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "identifiable"
    assert report["trials"] == 3
    assert report["max_abs_error"] < 1e-6


def test_verify_failure_exit_2(capsys):
    code, out, _ = run(
        capsys, "verify", "--graph", LATENT, "--treatment", "X",
        "--outcome", "Y", "--trials", "2",
    )
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["witness"]["kind"] == "s-hedge"


def test_verify_zero_trials_is_usage_error(capsys):
    code, out, err = run(
        capsys, "verify", "--graph", HEDGES, "--treatment", "X2",
        "--outcome", "Y2", "--trials", "0",
    )
    assert code == 1
    assert out == ""
    assert "trials must be at least 1, got 0" in err


@pytest.mark.parametrize(
    "graph, min_prob",
    [(LATENT, "5"), (MEDICATION, "nan"), (MEDICATION, "0")],
    ids=["failing-query", "nan", "zero"],
)
def test_verify_bad_min_prob_is_usage_error(capsys, graph, min_prob):
    code, out, err = run(
        capsys, "verify", "--graph", graph, "--treatment", "X", "--outcome", "Y",
        "--min-prob", min_prob,
    )
    assert code == 1
    assert out == ""
    assert "min_prob must lie in (0, 1/domain_size]" in err


def test_verify_requires_graph_or_demo(capsys):
    code, _, err = run(capsys, "verify", "--outcome", "Y")
    assert code == 1
    assert "--graph is required" in err
    code, _, err = run(capsys, "verify", "--graph", MEDICATION)
    assert code == 1
    assert "--outcome is required" in err


@pytest.mark.parametrize(
    "query",
    [["--graph", MEDICATION, "--treatment", "X", "--outcome", "Y"], ["--graph", MEDICATION],
     ["--treatment", "X"], ["--outcome", "Y"]],
    ids=["query", "graph", "treatment", "outcome"],
)
def test_verify_demo_takes_no_query(capsys, query):
    code, out, err = run(capsys, "verify", "--demo", *query)
    assert (code, out) == (1, "")
    assert "--demo takes no --graph, --treatment or --outcome" in err


@pytest.mark.parametrize(
    "option", [["--trials", "0"], ["--min-prob", "nan"], ["--domain-size", "1"], ["--seed", "-1"]],
    ids=lambda option: option[0],
)
def test_verify_demo_takes_no_other_option(capsys, option):
    code, out, err = run(capsys, "verify", "--demo", *option)
    assert (code, out) == (1, "")
    assert "--demo takes no --graph, --treatment or --outcome, nor any other option" in err
    assert err.rstrip().endswith(f"got {option[0]}")


def test_verify_demo(capsys):
    code, out, _ = run(capsys, "verify", "--demo")
    assert code == 0
    payload = json.loads(out)
    assert payload["estimand_value"] == payload["true_effect"] or (
        abs(payload["estimand_value"] - payload["true_effect"]) < 1e-9
    )
    assert payload["naive_gap"] > 0.05
    assert "Sum_" in payload["estimand"]


def test_usage_error_without_arguments(capsys):
    code, _, err = run(capsys, "identify")
    assert code == 1
    assert "Missing option" in err


def test_identification_leaves_numpy_unloaded():
    # numpy is only needed to build tables; a fresh process identifies without it
    src = os.path.dirname(os.path.dirname(subid.__file__))
    code = f"""
import contextlib, io, sys
import subid, subid.cli
g = subid.parse_graph(open({MEDICATION!r}).read()).graph
subid.render(subid.s_id(g, ["X"], ["Y"]).estimand)
with contextlib.redirect_stdout(io.StringIO()):
    assert subid.cli.main(["identify", "--graph", {MEDICATION!r}, "--treatment", "X", "--outcome", "Y"]) == 0
sys.exit("numpy" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs_the_cli():
    # ``python -m subid.cli`` from a source tree, without the console script
    src = os.path.dirname(os.path.dirname(subid.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "subid.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )

    argv, status, out = read_golden(GOLDEN_DIR / "medication-X-Y.txt")
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, "")
    proc = run_module("identify", "--graph", MEDICATION, "--treatment", "Q", "--outcome", "Y")
    assert proc.returncode == 1
    assert "unknown vertices Q" in proc.stderr


def test_oracle_names_are_served_by_the_package():
    assert subid.verify is subid.oracle.verify
    namespace = {}
    exec("from subid import *", namespace)
    assert all(namespace[name] is getattr(subid, name) for name in subid.__all__)


def test_numeric_names_come_from_the_oracle():
    import subid.oracle

    for name in ("evaluate", "PositivityError", "ProbabilityTable"):
        assert getattr(subid, name) is getattr(subid.oracle, name)
        assert getattr(subid, name).__module__ == "subid.oracle"
        assert not hasattr(subid.estimand, name)


def test_package_names_are_the_layers_lists():
    import subid.oracle

    assert set(subid._ORACLE) == set(subid.oracle.__all__)
    layers = [subid.components, subid.estimand, subid.graph, subid.identify, subid.parser,
              subid.separation, subid.oracle]
    names = [name for layer in layers for name in layer.__all__]
    # a later star import would silently shadow an earlier layer's name
    assert len(names) == len(set(names))
    assert subid.__all__ == sorted(names)
