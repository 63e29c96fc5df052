"""Checks of the evidence scripts under scripts/: they import against the
current package, and bench_pairs.py keeps one working tree's pairs per
file."""

import importlib.util
import json
import os
import shutil
import subprocess

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")


def test_the_evidence_scripts_import_and_name_each_run_once():
    # compare_outputs reads names from src/ and from run_acceptance_studies
    # at import, so a rename there fails here
    compare_outputs = _load("compare_outputs")
    names = [name for name, _ in compare_outputs.RUNS]
    assert names and len(set(names)) == len(names)
    assert compare_outputs.ONE_CPU_RUNS <= set(names)


def _commits(tree):
    return {"base": {"ref": "HEAD~1", "commit": "b" * 40},
            "head": {"commit": "h" * 40, "dirty": True, "tree": tree}}


def test_a_kept_file_takes_pairs_of_its_own_working_tree_only(tmp_path):
    path = str(tmp_path / "BENCH.json")
    assert bench_pairs._kept(path, _commits("t1"))["workloads"] == {}
    doc = {"machine": {}, **_commits("t1"), "workloads": {"deploy": {}}}
    (tmp_path / "BENCH.json").write_text(json.dumps(doc))
    assert bench_pairs._kept(path, _commits("t1")) == doc
    assert bench_pairs._kept(path, _commits("t2")) is None
    # a file written before trees were recorded names none
    del doc["head"]["tree"]
    (tmp_path / "BENCH.json").write_text(json.dumps(doc))
    assert bench_pairs._kept(path, _commits("t1")) is None


def test_bench_pairs_refuses_a_file_of_another_working_tree(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"machine": {}, **_commits("t1"),
                                "workloads": {}}))
    monkeypatch.setattr(bench_pairs, "_working_tree", lambda out=None: "t2")
    monkeypatch.setattr(bench_pairs, "_commits",
                        lambda base, tree: _commits(tree))
    assert bench_pairs.main(["--base", "HEAD~1", "--workload", "deploy",
                             "--out", str(path)]) == 2
    assert "another working tree" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_working_tree_id_leaves_the_out_file_out(tmp_path, monkeypatch):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    (tmp_path / "a.py").write_text("x = 1\n")
    tree = bench_pairs._working_tree()
    (tmp_path / "BENCH.json").write_text("{}\n")
    assert bench_pairs._working_tree(str(tmp_path / "BENCH.json")) == tree
    assert bench_pairs._working_tree() != tree
    assert bench_pairs._working_tree(str(tmp_path.parent / "x.json")) \
        != tree
