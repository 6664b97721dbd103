import dataclasses
import gc
import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent import futures
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import pytest
from stream_trees import stream_leaf_sets

from ramapoly import cli, forests, harness, qpolys, treecore
from ramapoly.polyring import Poly, parse
from ramapoly.qpolys import QK_VARS


def test_registry_resolution():
    assert harness.resolve("lemma-6-1").name == "lemma-6-1"
    assert harness.resolve("eq-rec2").name == "lemma-6-1"
    assert harness.resolve("remark-6/operator").name == "remark-6"
    with pytest.raises(KeyError):
        harness.resolve("no-such-identity")


def test_run_identity_with_override():
    report = harness.run_identity("thm-2-2", {"max_n": 3})
    assert report.status == "pass"
    assert report.params == {"max_n": 3}
    assert all(r.status == "pass" for r in report.instances)
    with pytest.raises(KeyError):
        harness.run_identity("thm-2-2", {"bogus": 1})


def test_run_suite_subset_and_jobs():
    names = ["eq-general", "lemma-6-2"]
    serial = harness.run_suite(names, {"eq-general": {"max_n": 4},
                                       "lemma-6-2": {"max_n": 4}})
    parallel = harness.run_suite(names, {"eq-general": {"max_n": 4},
                                         "lemma-6-2": {"max_n": 4}}, jobs=2)
    assert [r.identity for r in serial] == names
    assert [(r.identity, r.status, len(r.instances)) for r in serial] == \
           [(r.identity, r.status, len(r.instances)) for r in parallel]
    assert harness.suite_status(serial) == 0


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the pool in this process as its one worker: the initializer runs as
    the pool opens, each task at submit, and the worker's memo goes as the
    pool closes.  Yields the sizes of the pools asked for.  ``run_suite``
    imports the pool class from ``concurrent.futures`` as it opens a pool, so
    that is the name patched."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)
            if initializer is not None:
                initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            harness._memo = None
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(futures, "ProcessPoolExecutor", InlinePool)
    yield sizes


def test_run_suite_clamps_pool_to_selection(monkeypatch, inline_pool):
    sizes = inline_pool
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    names = ["eq-general", "lemma-6-2"]
    small = {name: {"max_n": 3} for name in names + ["lemma-6-1", "eq-special2"]}
    reports = harness.run_suite(names, small, jobs=64)
    assert sizes == [2]
    assert [r.identity for r in reports] == names
    # the pool is also clamped to the CPU count; unknown counts as one CPU
    four = list(small)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    reports = harness.run_suite(four, small, jobs=64)
    assert sizes == [2, 3]
    assert [r.identity for r in reports] == four
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    reports = harness.run_suite(four, small, jobs=64)
    assert sizes == [2, 3]
    assert [r.identity for r in reports] == four
    with pytest.raises(ValueError):
        harness.run_suite(names, jobs=0)
    assert harness._memo is None


def test_run_suite_reads_an_override_keyed_by_an_alias():
    # lemma-6-1 checks two recurrences per n from 2, so 4 instances at max_n 3
    report, = harness.run_suite(["eq-rec2"], {"eq-rec2": {"max_n": 3}})
    assert (report.identity, report.params, len(report.instances)) \
        == ("lemma-6-1", {"max_n": 3}, 4)
    # an alias's entry and its identity's merge in the order given, as
    # verify --config merges them
    both = [("lemma-6-1", {"max_n": 5}), ("eq-rec2", {"max_n": 3})]
    for entries, max_n in ((both, 3), (both[::-1], 5)):
        report, = harness.run_suite(["lemma-6-1"], dict(entries))
        assert report.params == {"max_n": max_n}
    assert harness.check_suite(["eq-rec2"], dict(both), 1) \
        == (["lemma-6-1"], {"lemma-6-1": {"max_n": 3}})


# the identities that re-read an enumeration another one made, at n <= 5;
# the census readers meet on the fold of the forests on [4], thm-2-2 and
# eq-equiv through the root-1 census on [5], thm-2-3, prop-2-5 and
# cor-catalan through the free one
SHARED = {"thm-2-2": {"max_n": 4}, "thm-2-3": {"max_n": 5},
          "prop-2-5": {"enum_max_n": 5, "count_max_n": 5}, "eq-equiv": {"max_n": 4},
          "eq-gs": {"max_n": 4, "enum_max_n": 4}, "thm-4-3": {"max_n": 5},
          "thm-4-gen-on": {"max_n": 5}, "cor-roots": {"max_n": 5},
          "cor-planted": {"enum_max_n": 5, "cayley_max_n": 5}, "cor-plane": {"max_n": 5},
          "cor-catalan": {"max_vertices": 5},
          "cor-narayana": {"max_vertices": 5, "leafset_max_vertices": 5}}


def _records(reports):
    return [(r.identity, i.instance, i.status, i.witness, i.info)
            for r in reports for i in r.instances]


def _counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(first, *args, **kwargs):
        # keyed by the first argument, n, and the root, not by the runner's
        # own enumerator
        calls[name, first, *args[:1]] += 1
        return fn(first, *args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_serial_run_enumerates_each_shared_result_once(monkeypatch):
    calls = Counter()
    for module, name in ((treecore, "forest_folds"), (treecore, "rooted_generating_poly"),
                         (forests, "degree_census")):
        _counting(monkeypatch, module, name, calls)
    serial = harness.run_suite(list(SHARED), SHARED)
    assert calls and max(calls.values()) == 1
    # cor-narayana reads the degree census on [m - 1] for m up to 5, and
    # cor-planted and cor-plane on [n] for n from 2 to 5: one census each
    assert {key[1] for key in calls if key[0] == "degree_census"} == set(range(1, 6))
    calls.clear()
    alone = [harness.run_identity(name, params) for name, params in SHARED.items()]
    repeated = {key[0] for key, count in calls.items() if count > 1}
    assert repeated == {"forest_folds", "rooted_generating_poly", "degree_census"}
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    pooled = harness.run_suite(list(SHARED), SHARED, jobs=2)
    assert _records(serial) == _records(alone) == _records(pooled)
    assert {i.status for r in serial for i in r.instances} == {harness.PASS}


def test_run_memo_is_dropped_however_the_run_ends(monkeypatch):
    harness.run_suite(["thm-2-2", "eq-equiv"], SHARED)
    assert harness._memo is None
    seen = []

    def broken(max_n):
        seen.append(dict(harness._memo))
        raise RuntimeError("runner broke")
        yield
    entry = dataclasses.replace(harness.REGISTRY["eq-equiv"], runner=broken)
    monkeypatch.setitem(harness.REGISTRY, "eq-equiv", entry)
    with pytest.raises(RuntimeError):
        harness.run_suite(["thm-2-2", "eq-equiv"], SHARED)
    assert seen and seen[0]   # the memo was open, holding thm-2-2's folds
    assert harness._memo is None
    # outside a suite run nothing is kept
    harness.run_identity("thm-2-2", SHARED["thm-2-2"])
    assert harness._memo is None


def test_serial_run_skips_where_each_identity_alone_does(monkeypatch):
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "4")
    serial = harness.run_suite(list(SHARED), SHARED)
    alone = [harness.run_identity(name, params) for name, params in SHARED.items()]
    assert _records(serial) == _records(alone)
    skipped = [r.identity for r in serial if r.status == harness.SKIP]
    assert {"thm-2-2", "thm-2-3", "eq-equiv", "thm-4-3", "cor-planted"} <= set(skipped)


@pytest.fixture(scope="module")
def per_root_streams():
    """By n <= 7, the streamed multivariate sum of the trees on [n] per root."""
    return {n: {r: treecore.generating_poly(n, r) for r in range(1, n + 1)}
            for n in range(1, 8)}


@pytest.mark.parametrize("memo", [None, {}], ids=["alone", "serial-run-memo"])
def test_rooted_polys_are_the_per_root_streams(monkeypatch, memo, per_root_streams):
    # the DP's root-n sum renamed per root against a stream per root, keys in
    # root order; read twice, so under the memo the second read is the kept one
    monkeypatch.setattr(harness, "_memo", memo)
    for n, want in per_root_streams.items():
        for _ in range(2):
            got = harness._rooted_polys(n)
            assert list(got) == list(want) and got == want, n


def test_leaf_statistics_are_the_streams(enum):
    # the degree census's leaf profile against leaf_profile's stream, and its
    # exact leaf sets against the stream over the forests on [m - 1]
    for m in range(1, 8):
        profile, exact = harness._leaf_statistics(m)
        assert list(profile.items()) == list(treecore.leaf_profile(m).items()), m
        assert exact == stream_leaf_sets(m, enum), m


@pytest.mark.parametrize("memo", [None, {}], ids=["alone", "serial-run-memo"])
def test_tree_dps_past_the_cap_run_nothing(monkeypatch, memo):
    # [5] on a cap of 4 is refused as the streams refused it, the message
    # included, and nothing is kept
    monkeypatch.setattr(harness, "_memo", memo)
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "4")
    message = "^label set of size 5 exceeds cap 4 "
    for read in (lambda: harness._rooted_polys(5), lambda: harness._leaf_statistics(5)):
        with pytest.raises(treecore.BoundExceeded, match=message):
            read()
    assert not memo
    assert len(harness._rooted_polys(4)) == 4 and harness._leaf_statistics(4)[0]


@pytest.mark.parametrize("memo", [None, {}], ids=["alone", "serial-run-memo"])
def test_free_census_is_the_weight_census_of_every_root(monkeypatch, memo):
    # the harness's free census against one weight_census pass over every
    # root, item for item and in the same key order at both levels; in the
    # memo the fold is already there, as the root-1 read leaves it, and the
    # free census must expand it over every root
    monkeypatch.setattr(harness, "_memo", memo)
    for n in range(1, 7):
        harness._census(n, 1)
        free = harness._census(n, None)
        direct = treecore.weight_census(n)
        assert list(free) == list(direct)
        for k, cells in direct.items():
            assert list(free[k].items()) == list(cells.items())


def _snapshot(value):
    """An independent deep copy of a memoized value (a Poly cannot be deep-copied)."""
    if isinstance(value, Poly):
        return value.universe, _snapshot(value.terms)
    if isinstance(value, dict):
        return {key: _snapshot(item) for key, item in value.items()}
    return value


def test_no_runner_mutates_a_shared_result(monkeypatch):
    entered = []
    once = harness._once

    def snapshotting(key, compute):
        def first():
            value = compute()
            entered.append((key, value, _snapshot(value)))
            return value
        return once(key, first)
    monkeypatch.setattr(harness, "_once", snapshotting)
    harness.run_suite(list(SHARED), SHARED)
    assert {key[0] for key, _, _ in entered} == {"folds", "rooted-polys", "degseq"}
    for key, value, snapshot in entered:
        assert _snapshot(value) == snapshot, key


# every reader of the forest folds; cor-2-4 folds the really-variant
FOLD_READERS = {"thm-2-2": {"max_n": 4}, "thm-2-3": {"max_n": 5}, "cor-2-4": {"max_n": 4},
                "prop-2-5": {"enum_max_n": 5, "count_max_n": 5}, "cor-catalan": {"max_vertices": 5},
                "eq-equiv": {"max_n": 4}}


def _counting_folds(monkeypatch, fake=False):
    """Count forest_folds calls by (m, really); a fake returns one forest whose
    single young top component has beta 1, so every census stays well formed."""
    calls = Counter()
    fold = treecore.forest_folds

    def counted(m, *, really=False, max_labels=None):
        calls[m, really] += 1
        if fake:
            return Counter({(0, 1, 0, 1 << 1): 1})
        return fold(m, really=really, max_labels=max_labels)
    monkeypatch.setattr(treecore, "forest_folds", counted)
    return calls


def test_serial_run_folds_each_forest_set_once(monkeypatch):
    # the root-1 census on [m + 1] and the free census on [m + 1] expand one
    # fold of the forests on [m], per variant
    calls = _counting_folds(monkeypatch)
    serial = harness.run_suite(list(FOLD_READERS), FOLD_READERS)
    assert calls == {(m, really): 1 for m in range(5) for really in (False, True)}
    calls.clear()
    alone = [harness.run_identity(name, params) for name, params in FOLD_READERS.items()]
    assert max(calls.values()) > 1
    assert _records(serial) == _records(alone)
    assert {i.status for r in serial for i in r.instances} == {harness.PASS}


def test_pool_worker_folds_each_forest_set_once(monkeypatch, inline_pool):
    # a worker keeps its memo for the pool's life, so the one inline worker
    # folds as the serial run does
    calls = _counting_folds(monkeypatch)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    pooled = harness.run_suite(list(FOLD_READERS), FOLD_READERS, jobs=2)
    assert inline_pool == [2] and harness._memo is None
    assert calls == {(m, really): 1 for m in range(5) for really in (False, True)}
    assert {i.status for r in pooled for i in r.instances} == {harness.PASS}


@pytest.mark.parametrize("really", [False, True], ids=["plain", "really"])
@pytest.mark.parametrize("memo", [None, {}], ids=["alone", "serial-run-memo"])
def test_censuses_from_the_shared_fold_are_fresh_censuses(monkeypatch, memo, really):
    # the root-1 and then the free census on [n], which read one fold under
    # the memo, read the way the runners read them, against fresh
    # weight_census calls, in key order at both levels
    monkeypatch.setattr(harness, "_memo", memo)
    for n in range(1, 7):
        for root in (1, None):
            got = harness._census(n, root, really=really)
            want = treecore.weight_census(n, root, really=really)
            assert [(k, list(cells.items())) for k, cells in got.items()] \
                == [(k, list(cells.items())) for k, cells in want.items()], (n, root)


@pytest.mark.parametrize("cap", [4, None], ids=["cap-4", "default-cap"])
def test_census_past_the_cap_folds_nothing(monkeypatch, cap):
    # the fold read for [n] is of [n - 1], which fits the cap when [n] does
    # not; the runners' folds are faked, so only the call pattern is checked
    if cap is not None:
        monkeypatch.setenv("RAMAPOLY_MAX_LABELS", str(cap))
    cap = treecore.label_cap()
    calls = _counting_folds(monkeypatch, fake=True)
    # each runner's largest census is on [cap + 1]
    past = {"thm-2-2": {"max_n": cap}, "thm-2-3": {"max_n": cap + 1},
            "eq-equiv": {"max_n": cap}, "cor-2-4": {"max_n": cap}}
    for run in (lambda: harness.run_suite(list(past), past),
                lambda: [harness.run_identity(name, params) for name, params in past.items()]):
        reports = run()
        assert [r.instances[-1].status for r in reports] == [harness.SKIP] * len(past)
        assert calls and max(m for m, _ in calls) == cap - 1
        calls.clear()
    for read in (lambda: harness._census(cap + 1, 1),
                 lambda: harness._census(cap + 1, None),
                 lambda: harness._census(cap + 1, None, really=True),
                 lambda: treecore.weight_census(cap + 1, really=True)):
        with pytest.raises(treecore.BoundExceeded):
            read()
    assert not calls


# every runner at small bounds: each tree and forest check reads a DP, a
# count or an unranked tree, and the symbolic ones read no tree at all
DP_READERS = {"thm-1-1": {"max_n": 5}, "eq-expansion": {"max_n": 5},
              "eq-special2": {"max_n": 5}, "eq-factor": {"max_n": 5},
              "eq-qnxt": {"max_n": 5, "ones_max_n": 5}, "eq-lambert": {"max_n": 5},
              "eq-gs": {"max_n": 3, "enum_max_n": 4}, "eq-general": {"max_n": 5},
              "eq-equiv": {"max_n": 4}, "thm-2-2": {"max_n": 4}, "thm-2-3": {"max_n": 5},
              "cor-2-4": {"max_n": 4}, "prop-2-5": {"enum_max_n": 5, "count_max_n": 6},
              "thm-3-4": {"max_n": 5}, "lemma-4-1": {"max_n": 5},
              "lemma-4-2": {"instances": 20, "max_n": 6}, "cor-catalan": {"max_vertices": 5},
              "thm-4-3": {"max_n": 5}, "thm-4-gen-on": {"max_n": 5}, "cor-roots": {"max_n": 5},
              "cor-narayana": {"max_vertices": 5, "leafset_max_vertices": 5},
              "cor-planted": {"enum_max_n": 5, "cayley_max_n": 5},
              "cor-type-planted": {"max_n": 5}, "cor-plane": {"max_n": 5},
              "thm-5-1": {"max_n": 5, "max_r": 3}, "lemma-6-1": {"max_n": 5},
              "lemma-6-2": {"max_n": 5}, "remark-6": {"max_n": 5}}


def test_no_identity_builds_an_enumerator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a TreeEnumerator was built")
    monkeypatch.setattr(treecore.TreeEnumerator, "__init__", refuse)
    assert set(DP_READERS) == set(harness.REGISTRY)
    for name, params in DP_READERS.items():
        report = harness.run_identity(name, params)
        assert report.instances and {i.status for i in report.instances} == {harness.PASS}, name


def test_same_records_ignores_only_seconds(tmp_path, capsys):
    script = Path(__file__).resolve().parent / "same_records.py"
    serial = tmp_path / "serial.jsonl"
    assert cli.main(["verify", "--identity", "thm-2-2,eq-equiv", "--max-n", "3",
                     "--report", str(serial)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in serial.read_text().splitlines()]
    retimed = tmp_path / "retimed.jsonl"
    retimed.write_text("".join(json.dumps({**r, "seconds": 9.0} if "seconds" in r else r) + "\n"
                               for r in records))
    changed = tmp_path / "changed.jsonl"
    changed.write_text("".join(json.dumps({**r, "status": "fail"} if i == 2 else r) + "\n"
                               for i, r in enumerate(records)))
    run = partial(subprocess.run, capture_output=True, text=True)
    assert run([sys.executable, str(script), str(serial), str(retimed)]).returncode == 0
    result = run([sys.executable, str(script), str(serial), str(changed)])
    assert result.returncode == 1 and result.stdout.startswith("record 3 differs")
    assert run([sys.executable, str(script), str(serial), str(serial)[:-1] + "x"]).returncode != 0


def test_suite_status_semantics():
    ok = harness.VerificationReport("x", {}, [
        harness.InstanceResult("x", {}, "pass", None, None, 0.0)])
    skipped = harness.VerificationReport("y", {}, [
        harness.InstanceResult("y", {}, "bound-exceeded", None, {"reason": "cap"}, 0.0)])
    failed = harness.VerificationReport("z", {}, [
        harness.InstanceResult("z", {}, "fail", {"lhs": "0", "rhs": "1"}, None, 0.0)])
    assert harness.suite_status([ok]) == 0
    assert harness.suite_status([ok, skipped]) == 1
    assert harness.suite_status([ok, skipped], allow_skip=True) == 0
    assert harness.suite_status([ok, failed], allow_skip=True) == 1
    assert skipped.status == "bound-exceeded" and failed.status == "fail"


def test_defaults_config_file_matches_registry():
    path = Path(__file__).resolve().parents[1] / "verify_defaults.cfg"
    parsed = cli.parse_config(str(path))
    assert set(parsed) == set(harness.REGISTRY)
    for name, params in parsed.items():
        assert params == harness.REGISTRY[name].defaults


def test_parse_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("thm-1-1.max_n\n")
    with pytest.raises(ValueError):
        cli.parse_config(str(bad))
    bad.write_text("max_n=3\n")
    with pytest.raises(ValueError):
        cli.parse_config(str(bad))
    bad.write_text("thm-1-1.max_n=three\n")
    with pytest.raises(ValueError):
        cli.parse_config(str(bad))


def test_cli_polynomials(capsys):
    assert cli.main(["qn", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "x + y + z + t"
    assert cli.main(["qnk", "--n", "3", "--k", "1", "--shifted"]) == 0
    assert capsys.readouterr().out.strip() == "3,1: 3*x + 2*t + 1"
    assert cli.main(["qn", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_table_reproduces_displayed_cells(capsys):
    assert cli.main(["table", "--which", "q1", "--max-n", "4"]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["3,1"] == parse("3x+4+5t", QK_VARS).render()
    assert lines["4,2"] == parse("15x+25+35t", QK_VARS).render()
    assert lines["4,sum"] == parse("(x+4+t)(x+4+2t)(x+4+3t)", QK_VARS).render()


def test_cli_enumerate(capsys):
    assert cli.main(["enumerate", "--n", "4", "--root", "1",
                     "--improper", "1", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "12"
    assert cli.main(["enumerate", "--n", "2", "--format", "json"]) == 0
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(out) == 2 and all("label" in obj for obj in out)


def test_cli_enumerate_deterministic(capsys):
    cli.main(["enumerate", "--n", "4"])
    first = capsys.readouterr().out
    cli.main(["enumerate", "--n", "4"])
    assert capsys.readouterr().out == first


def test_cli_bound_exceeded_exit(capsys, monkeypatch):
    assert cli.main(["enumerate", "--n", "9", "--count-only"]) == 1
    assert "bound exceeded" in capsys.readouterr().err
    assert cli.main(["enumerate", "--n", "9", "--count-only",
                     "--max-labels", "4"]) == 1


def test_cli_max_labels_reaches_the_census(capsys, monkeypatch):
    # the improper-count census folds the forests on [8] under a cap of 9;
    # the increasing plane trees on [9] number 15!!
    monkeypatch.delenv(treecore.ENV_MAX_LABELS, raising=False)
    argv = ["enumerate", "--n", "9", "--count-only", "--improper", "0"]
    assert cli.main(argv + ["--max-labels", "9"]) == 0
    assert capsys.readouterr().out == "2027025\n"
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ("bound exceeded: label set of size 9 exceeds cap 8 "
                                       "(override via RAMAPOLY_MAX_LABELS or max_labels)\n")


def test_cli_stats_and_bijections(tmp_path, capsys):
    tree_obj = {"label": 1, "children": [{"label": 3, "children": []},
                                         {"label": 2, "children": []}]}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree_obj))
    assert cli.main(["stats", "--input", str(path)]) == 0
    st = json.loads(capsys.readouterr().out)
    assert st["eld"] == 1 and st["elder_vertices"] == [3]

    assert cli.main(["bijection", "--map", "theta", "--input", str(path)]) == 0
    forest = json.loads(capsys.readouterr().out)
    back = tmp_path / "forest.json"
    back.write_text(json.dumps(forest))
    assert cli.main(["bijection", "--map", "theta-inv", "--input", str(back)]) == 0
    assert json.loads(capsys.readouterr().out) == tree_obj

    perm = tmp_path / "perm.json"
    perm.write_text("[2, 4, 7, 1, 5, 8, 3, 6]")
    assert cli.main(["bijection", "--map", "psi", "--input", str(perm)]) == 0
    assert json.loads(capsys.readouterr().out) == [2, 4, 1, 7, 3, 5, 8, 6]

    assert cli.main(["bijection", "--map", "root-swap", "--input", str(path)]) == 0
    swapped = json.loads(capsys.readouterr().out)
    assert swapped["label"] == 2


def test_cli_stats_on_reference_fixture(capsys):
    from ramapoly import fixtures
    path = Path(fixtures.__file__).parent / "tree14.json"
    assert cli.main(["stats", "--input", str(path)]) == 0
    st = json.loads(capsys.readouterr().out)
    assert st["elder_vertices"] == [3, 8, 9, 11, 12, 13]
    assert len(st["improper_edges"]) == 6
    assert st["beta"]["14"] == 2


def test_cli_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["stats", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    missing = tmp_path / "missing.json"
    assert cli.main(["stats", "--input", str(missing)]) == 2


def test_cli_verify_unknown_identity_exits_2(capsys):
    assert cli.main(["verify", "--identity", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown identity 'nonexistent'") and err.count("\n") == 1
    assert "(see `verify --list` for the registry)" in err


def test_cli_bad_jobs_creates_no_report(tmp_path, capsys):
    report = tmp_path / "r.jsonl"
    argv = ["verify", "--identity", "eq-general", "--jobs", "0", "--report", str(report)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"
    assert not report.exists()


def test_cli_bad_max_n_creates_no_report(tmp_path, capsys):
    # --max-n is applied after check_suite merges the config, and checked again
    # before the report file is opened
    report = tmp_path / "r.jsonl"
    argv = ["verify", "--identity", "eq-general", "--max-n", "0", "--report", str(report)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: eq-general.max_n must be >= 1, got 0\n"
    assert not report.exists()


@pytest.mark.parametrize("seed,digest", [
    (20260811, "512d91788bbfb1d11fb15847e64b695b7e757dfe966cda34fb375af17c2c5b32"),
    (7, "e591a3f9d9dd8de825603b50cdd94acf95334c05bbe3c90ec1820b6a40c70f10"),
])
def test_lemma_4_2_draws_are_pinned(seed, digest):
    # digests of the (instance, status) records drawn from a list of every
    # tree on [n], n <= 6; unranking the trees must draw the same instances
    records = [[instance, status]
               for instance, status, _ in harness.run_lemma_4_2(max_n=6, seed=seed)]
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == digest


def test_lemma_4_2_draws_are_pinned_at_default():
    # the records at the registry defaults (max_n = 8), the same as drawing
    # from the stream of every tree on [n] gave
    entry = harness.REGISTRY["lemma-4-2"]
    records = [[instance, status] for instance, status, _ in entry.runner(**entry.defaults)]
    assert len(records) == 200 and {status for _, status in records} == {harness.PASS}
    assert (hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
            == "e3e3662d17ac45853c9476bd9d63c28420bc88d01f9533cfb4d7f0380d8e12b1")


def _forest_records(name, **params):
    """The count and digest of an identity's (instance, status) records at
    the registry defaults with params over them."""
    entry = harness.REGISTRY[name]
    records = [[instance, status]
               for instance, status, _ in entry.runner(**{**entry.defaults, **params})]
    return len(records), hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


# the default bounds of the forest identities while they read the forest streams
STREAM_BOUNDS = {"cor-planted": {"enum_max_n": 6}, "cor-type-planted": {"max_n": 6},
                 "cor-plane": {"max_n": 6}, "thm-5-1": {"max_n": 7}}


@pytest.mark.parametrize("name,count,digest", [
    ("cor-planted", 12, "a493598665c91488ad7b22e130591a726121ba548721ba5b5e6fac8ecd4d589e"),
    ("cor-type-planted", 45, "bb90cbbd702f41ac742b78b6fb0a3a73cf12afbc66317d1054432f712cad24e0"),
    ("cor-plane", 10, "5ff7a07a9e6aee8185398ee3e95229340d01ee0566bd40f896f30ae273e4cbc7"),
    ("thm-5-1", 46, "dc1c638a9330b99ee0c0d9563c60dafd1c43b79c9dce8bd9096b4699122e003c"),
])
def test_forest_records_are_pinned(name, count, digest):
    # the records the streams gave at their default bounds; the type records
    # follow the order in which the types first occur
    assert _forest_records(name, **STREAM_BOUNDS[name]) == (count, digest)


@pytest.mark.parametrize("name,count,digest", [
    ("cor-planted", 14, "dc2a4f9b23f7a95a44e13b6f5cb656419fd399bdc2ac523ac99fad41e8f9ede2"),
    ("cor-plane", 14, "05fdf922af655daeaaa28397105785206cb5c8bb7da0d340fd4c88618fc8aeef"),
    ("thm-5-1", 64, "6c26eae1dad458cd14efe5669e9592c1816c088f2bcdb0af8f12a4f4e0ab46ff"),
])
def test_forest_records_are_pinned_at_default(name, count, digest):
    # the records at the registry defaults, n = 8, which the streams gave too
    assert _forest_records(name) == (count, digest)


@pytest.mark.parametrize("max_n,count,digest", [
    (6, 27, "e9f278a95a27fce8c3f38355ecf5bf907afdc84ba43958687a4bb6594d01ad01"),
    (7, 35, "aa373a19784beeaaf904785154bd1828d30ee0d5d71a468832610452e797536c"),
])
def test_thm_3_4_records_are_pinned(max_n, count, digest):
    # the whole records that the census of theta images gave, n = 7 taking
    # 15 s streamed; the DP gives them in milliseconds
    report = harness.run_identity("thm-3-4", {"max_n": max_n})
    records = [[r.instance, r.status, r.witness, r.info] for r in report.instances]
    assert len(records) == count
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("name,max_n,count,digest", [
    ("thm-1-1", 8, 16, "7c66f35567eea763069fcc0539c4ce91ce12e5e651eed09fdd7945e5116be4bb"),
    ("lemma-6-1", 8, 14, "f05cfdab62c2693dce942c8347aba1f4f03d716ca3d2037f69a94d528b63c1cd"),
    ("lemma-6-2", 8, 7, "2fd2619e09902ba2a07585628676b3dd371c0b173edaa2021fff9993d4e4a0b4"),
    ("thm-2-2", 5, 15, "97c3c3def56f7da9132237ecf305cb84395d571277cd211f794d3babc6f4bdb2"),
    ("thm-2-3", 6, 21, "55ec0acc27d9374a218fbfd7c5503c0784a97069e44aa025acda26f06a28633b"),
    ("cor-2-4", 5, 40, "b842d36f41481c4929b90c449fe91f21bee7b7cd5d12b884db0332cf45009104"),
])
def test_shared_runner_records_are_pinned(name, max_n, count, digest):
    # digests of the whole records (instance, status, witness, info) of the
    # identities that share a runner shape; cor-2-4 at n = 4, 5 reports each
    # refined difference polynomial
    report = harness.run_identity(name, {"max_n": max_n})
    records = [[r.instance, r.status, r.witness, r.info] for r in report.instances]
    assert len(records) == count
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == digest


def test_thm_5_1_stops_at_the_largest_root_count():
    # a forest on [n] has fewer than n roots, so a max_r past max_n - 1 adds
    # no record and no work
    start = time.perf_counter()
    records = list(harness.run_thm_5_1(max_n=4, max_r=10**7))
    assert time.perf_counter() - start < 1.0
    assert records == list(harness.run_thm_5_1(max_n=4, max_r=3))
    assert len(records) == 10 and {instance["r"] for instance, _, _ in records} == {1, 2, 3}


def test_lemma_4_2_holds_only_drawn_trees():
    # holding every tree on [7] peaked at 168 MB under tracemalloc; the
    # streamed draw peaks at 14 MB
    tracemalloc.start()
    try:
        for _, status, _ in harness.run_lemma_4_2(max_n=7):
            assert status == harness.PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_cli_verify_report_reproducible(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    argv = ["verify", "--identity", "eq-general,lemma-6-2", "--max-n", "4",
            "--report", str(report)]
    assert cli.main(argv) == 0
    out1 = capsys.readouterr().out
    assert "overall: pass" in out1
    first = [json.loads(line) for line in report.read_text().splitlines()]
    assert cli.main(argv) == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 2 * len(first)  # append-only
    second = [json.loads(line) for line in lines[len(first):]]

    def structure(records):
        return [{k: v for k, v in r.items() if k != "seconds"} for r in records]

    assert structure(first) == structure(second)


def test_cli_verify_bound_exceeded_and_allow_skip(capsys, monkeypatch):
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "5")
    argv = ["verify", "--identity", "eq-equiv", "--max-n", "5"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "BOUND-EXCEEDED" in out
    assert cli.main(argv + ["--allow-skip"]) == 0


def test_cli_verify_bound_exceeded_keeps_running(capsys, monkeypatch):
    # an enumeration identity past the label cap ends with one skipped
    # instance; the other identities still run and the summary is printed
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "4")
    argv = ["verify", "--identity", "cor-catalan,thm-2-3"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    summaries = [line.split()[:2] for line in out if "skipped" in line]
    assert summaries == [["BOUND-EXCEEDED", "cor-catalan"], ["BOUND-EXCEEDED", "thm-2-3"]]
    for name in ("cor-catalan", "thm-2-3"):
        assert sum(line.startswith(f"BOUND-EXCEEDED {name} {{}}") for line in out) == 1
    assert out[-1] == "overall: FAIL (2 identities)"
    assert cli.main(argv + ["--allow-skip"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: pass (2 identities)"


def test_cli_verify_increasing_counts_past_the_cap(tmp_path, capsys, monkeypatch):
    # the increasing-tree generators read the label cap, so prop-2-5's
    # count_max_n above it ends in one skipped instance
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "4")
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("prop-2-5.enum_max_n=1\nprop-2-5.count_max_n=5\n")
    argv = ["verify", "--identity", "prop-2-5", "--config", str(cfg), "--verbose"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("BOUND-EXCEEDED prop-2-5 {}") for line in out) == 1
    # three records for each n <= 4, the enumeration at n = 1 and the table
    # product at n = 5, which is checked before the increasing trees
    assert sum(line.startswith("pass prop-2-5") for line in out) == 3 * 4 + 1 + 1
    assert cli.main(argv + ["--allow-skip"]) == 0


def test_lemma_4_2_past_the_cap_is_skipped(monkeypatch):
    # unranking needs no cap, but lemma-4-2.max_n is checked against it first
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "5")
    report = harness.run_identity("lemma-4-2", {"max_n": 6})
    assert [r.status for r in report.instances] == [harness.SKIP]


def test_thm_3_4_past_the_cap_is_skipped(monkeypatch, capsys):
    # the DP builds no forest, but thm-3-4's forests on [n] are the theta
    # images of the trees on [n + 1], which the label cap bounds: with the cap
    # at 4 the records are those the theta stream gave, n <= 3 passing and one
    # skipped instance at n = 4
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "4")
    for max_n in (4, 5):
        report = harness.run_identity("thm-3-4", {"max_n": max_n})
        records = [[r.instance, r.status, r.witness, r.info] for r in report.instances]
        assert records[-1] == [{}, harness.SKIP, None, {"reason": (
            "label set of size 5 exceeds cap 4 (override via RAMAPOLY_MAX_LABELS or max_labels)")}]
        assert len(records) == 10
        assert (hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
                == "82dcf82ccead18feecf7a1a645055fb80c660b25fca46957390bba06a6828b9a")
    assert cli.main(["verify", "--identity", "thm-3-4", "--max-n", "5"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("BOUND-EXCEEDED thm-3-4 {}") for line in out) == 1


@pytest.mark.parametrize("name,overrides,cap,reason", [
    ("eq-general", {"max_n": 6}, 4, "label set of size 5 exceeds cap 4"),
    ("cor-type-planted", {"max_n": 6}, 4, "label set of size 5 exceeds cap 4"),
    ("cor-planted", {"enum_max_n": 1, "cayley_max_n": 6}, 4, "label set of size 5 exceeds cap 4"),
    ("eq-lambert", {"max_n": 5}, 3, "n > 3"),
    ("eq-qnxt", {"max_n": 1, "ones_max_n": 5}, 3, "n > 3"),
])
def test_bounds_past_their_cap_are_skipped(monkeypatch, name, overrides, cap, reason):
    # with the label cap at 4 and the symbolic cap at 3, each bound passes
    # every n up to its cap and ends in one skipped instance at the next n
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "4")
    monkeypatch.setattr(qpolys, "MAX_SYMBOLIC_N", 3)
    *passed, last = harness.run_identity(name, overrides).instances
    assert {r.status for r in passed} == {harness.PASS}
    assert max(r.instance["n"] for r in passed) == cap
    assert (last.status, last.instance) == (harness.SKIP, {})
    assert last.info["reason"].startswith(reason)


TREE_TRUE_LABEL = '{"label": true, "children": []}'
DEEP_TREE = '{"label": 1, "children": [' * 900 + '{"label": 2}' + ']}' * 900


@pytest.mark.parametrize("argv,content", [
    (["stats"], TREE_TRUE_LABEL),
    (["stats"], DEEP_TREE),
    (["bijection", "--map", "theta"], DEEP_TREE),
    (["bijection", "--map", "theta-inv"],
     '{"components": [{"kind": "white", "label": true, "children": []}]}'),
    (["bijection", "--map", "psi-inv"], "[true, 2]"),
    (["bijection", "--map", "psi"], "[2, true]"),
    (["bijection", "--map", "psi"], "5"),
    (["qnk", "--n", "3", "--k", "-1"], None),
    (["qnk", "--n", "3", "--k", "3"], None),
    (["verify", "--identity", "eq-general", "--jobs", "0"], None),
    (["stats"], '{"label": 1, "children": 5}'),
    (["bijection", "--map", "theta-inv"], '{"components": [5]}'),
    (["bijection", "--map", "theta-inv"], '{"components": {}}'),
    (["bijection", "--map", "theta-inv"],
     '{"components": [{"kind": "black", "children": 3}]}'),
    (["qn", "--n", "0"], None),
    (["qn", "--n", "65"], None),
    (["qnk", "--n", "0"], None),
    (["qnk", "--n", "65"], None),
    (["table", "--which", "q1", "--max-n", "0"], None),
    (["table", "--which", "q2", "--max-n", "65"], None),
    (["enumerate", "--n", "0"], None),
    (["enumerate", "--n", "3", "--root", "7"], None),
    (["enumerate", "--n", "10", "--root", "11"], None),
    (["enumerate", "--n", "3", "--improper", "1", "--really-improper", "0"], None),
    (["bijection", "--map", "theta"],
     '{"label": 1, "children": [{"label": 2, "children": [{"label": 4}]}]}'),
    (["bijection", "--map", "theta"], '{"label": 1, "children": [{"label": 1000000000}]}'),
    (["verify", "--identity", "eq-general,nonexistent"], None),
    (["bijection", "--map", "contract"], '{"label": 1, "children": [{"label": 2}]}'),
    (["bijection", "--map", "contract", "--i", "1"], '{"label": 1, "children": [{"label": 2}]}'),
], ids=["tree-bool-label", "tree-deep-stats", "tree-deep-theta", "hm-bool-label",
        "word-bool", "perm-bool", "perm-not-array", "k-negative", "k-at-n", "jobs-zero",
        "tree-children-not-list", "hm-component-not-mapping", "hm-components-not-list",
        "hm-children-not-list", "qn-zero", "qn-above-cap", "qnk-zero", "qnk-above-cap",
        "table-zero", "table-above-cap", "enum-n-zero", "enum-root-outside",
        "enum-root-outside-above-cap", "enum-both-improper-filters",
        "theta-label-above-size", "theta-label-huge", "verify-unknown-identity-in-list",
        "contract-without-i-j", "contract-without-j"])
def test_cli_rejects_bad_input(tmp_path, capsys, argv, content):
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(content)
        argv = argv + ["--input", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,config,env,named", [
    (["verify", "--max-n", "3"], None, None, "lemma-4-2.max_n"),
    (["verify", "--max-n", "0"], None, None, "thm-1-1.max_n"),
    (["verify", "--max-n", "-3"], None, None, "thm-1-1.max_n"),
    (["verify"], "lemma-4-2.instances=-1", None, "lemma-4-2.instances"),
    (["verify"], "thm-2-3.bogus=1", None, "error: unknown parameter thm-2-3.bogus\n"),
    (["verify"], "nonexistent.max_n=3", None, ":1: unknown identity 'nonexistent'"),
    (["verify", "--identity", "thm-2-2", "--max-n", "2"], "thm-2-3.bogus=1", None,
     "error: unknown parameter thm-2-3.bogus\n"),
    (["verify", "--identity", "thm-2-2", "--max-n", "2"], "thm-2-3.max_n=0", None,
     "thm-2-3.max_n"),
    (["verify"], None, "0", "RAMAPOLY_MAX_LABELS"),
    (["verify"], None, "abc", "RAMAPOLY_MAX_LABELS"),
    (["verify", "--report", "{tmp}/missing/r.jsonl"], None, None, "r.jsonl"),
    (["enumerate", "--n", "3"], None, "0", "RAMAPOLY_MAX_LABELS"),
    (["enumerate", "--n", "3"], None, "abc", "RAMAPOLY_MAX_LABELS"),
    (["enumerate", "--n", "3", "--max-labels", "0"], None, None, "--max-labels"),
    (["enumerate", "--n", "3", "--max-labels", "-5"], None, None, "--max-labels"),
], ids=["max-n-below-lemma-4-2-pools", "max-n-zero", "max-n-negative",
        "config-negative", "config-unknown-param", "config-unknown-identity",
        "config-unselected-unknown-param", "config-unselected-zero", "env-cap-zero", "env-cap-not-int",
        "report-dir-missing", "enum-env-cap-zero", "enum-env-cap-not-int",
        "enum-max-labels-zero", "enum-max-labels-negative"])
def test_cli_rejects_bad_bounds_before_running(tmp_path, capsys, monkeypatch,
                                               argv, config, env, named):
    def refuse(*args, **kwargs):
        raise AssertionError("an identity ran before the bounds were checked")

    monkeypatch.setattr(harness, "run_identity", refuse)
    if env is not None:
        monkeypatch.setenv("RAMAPOLY_MAX_LABELS", env)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if config is not None:
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(config + "\n")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_run_suite_checks_every_bound_first(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "run_identity", lambda name, *args: ran.append(name))
    with pytest.raises(ValueError, match="lemma-4-2.max_n"):
        harness.run_suite(["eq-general", "lemma-4-2"], {"lemma-4-2": {"max_n": 3}})
    with pytest.raises(KeyError, match="thm-2-3.bogus"):
        harness.run_suite(["eq-general", "thm-2-3"], {"thm-2-3": {"bogus": 1}})
    # an override is checked whether or not its identity is selected
    with pytest.raises(KeyError, match="thm-2-3.bogus"):
        harness.check_suite(["thm-2-2"], {"thm-2-3": {"bogus": 1}}, 1)
    with pytest.raises(KeyError, match="thm-2-3.bogus"):
        harness.run_suite(["thm-2-2"], {"thm-2-3": {"bogus": 1}})
    with pytest.raises(ValueError, match="thm-2-3.max_n"):
        harness.run_suite(["thm-2-2"], {"thm-2-3": {"max_n": 0}})
    # a value must be an int, and a bool is not one
    for value in (2.5, "3", None, True):
        with pytest.raises(ValueError, match="thm-2-2.max_n"):
            harness.run_suite(["thm-2-2"], {"thm-2-2": {"max_n": value}})
    # a bad label cap stops the run before its first identity, serial or pool
    monkeypatch.setenv("RAMAPOLY_MAX_LABELS", "abc")
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="RAMAPOLY_MAX_LABELS"):
            harness.run_suite(["thm-1-1", "thm-2-2"], jobs=jobs)
    assert ran == []
    # seed is the one parameter that may be below 1
    assert harness.identity_params("lemma-4-2", {"seed": -1, "max_n": 4})["seed"] == -1


def test_cli_verify_config_override(tmp_path, capsys):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("eq-general.max_n=3\n")
    assert cli.main(["verify", "--identity", "eq-general",
                     "--config", str(cfg), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass eq-general") == 3


@pytest.mark.parametrize("config", ["eq-rec2.max_n=3\nlemma-6-1.max_n=5\n",
                                    "lemma-6-1.max_n=5\neq-rec2.max_n=3\n"],
                         ids=["alias-first", "canonical-first"])
def test_cli_max_n_beats_every_config_spelling(tmp_path, capsys, config):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(config)
    assert cli.main(["verify", "--identity", "eq-rec2", "--max-n", "4",
                     "--config", str(cfg), "--verbose"]) == 0
    assert capsys.readouterr().out.count("pass lemma-6-1") == 6


LAST_LINE_WINS = [("eq-rec2.max_n=3\nlemma-6-1.max_n=5\neq-rec2.max_n=7\n", 7),
                  ("lemma-6-1.max_n=3\neq-rec2.max_n=5\nlemma-6-1.max_n=4\n", 4)]


@pytest.mark.parametrize("config,max_n", LAST_LINE_WINS, ids=["alias-last", "canonical-last"])
def test_cli_last_config_line_wins_whatever_the_spelling(tmp_path, capsys, config, max_n):
    # lemma-6-1 checks two recurrences per n from 2
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(config)
    assert cli.main(["verify", "--identity", "lemma-6-1", "--config", str(cfg),
                     "--verbose"]) == 0
    assert capsys.readouterr().out.count("pass lemma-6-1") == 2 * (max_n - 1)


@pytest.mark.parametrize("config,max_n", LAST_LINE_WINS, ids=["alias-last", "canonical-last"])
def test_check_suite_reads_the_last_config_line_whatever_the_spelling(tmp_path, config, max_n):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(config)
    assert harness.check_suite(["eq-rec2"], cli.parse_config(str(cfg)), 1) \
        == (["lemma-6-1"], {"lemma-6-1": {"max_n": max_n}})


def test_cli_verify_list(capsys):
    assert cli.main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    for name in harness.REGISTRY:
        assert name in out
    # the names, descriptions and default bounds in registry order, byte for
    # byte: the registry reads each identity's bounds from its runner
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "dadbcec6f49cd5ff28d02e37dbad75686b06fc0b319424598ac4a66a809f3140")


@pytest.fixture
def gc_probe(monkeypatch):
    """A stub identity whose runner records whether the cyclic collector is
    on while it runs, and raises when asked to."""
    seen = []

    def runner(fail: int = 0):
        seen.append(gc.isenabled())
        yield {"n": 1}, harness.PASS, None
        if fail:
            raise RuntimeError("runner failed")

    entry = harness.IdentityEntry("gc-probe", "stub", {"fail": 0}, runner)
    monkeypatch.setitem(harness.REGISTRY, "gc-probe", entry)
    was_enabled = gc.isenabled()
    yield seen
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_run_identity_pauses_and_restores_collector(gc_probe):
    gc.enable()
    report = harness.run_identity("gc-probe")
    assert report.status == "pass" and gc.isenabled()
    with pytest.raises(RuntimeError):
        harness.run_identity("gc-probe", {"fail": 1})
    assert gc.isenabled()
    gc.disable()
    harness.run_identity("gc-probe")
    assert not gc.isenabled()
    assert gc_probe == [False, False, False]
