"""CLI surface: fixtures, subcommands, formats, exit codes, determinism."""

import contextlib
import copy
import gc
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germindex.cli import main
from germindex.parsing import parse_expression
from germindex.scenario import FIXTURE_NAMES, fixture_document, load_fixture
from refusals import LIMIT_S, REFUSALS, argv_of, check, edited, torus


def run_cli(capsys, *argv):
    code = main(list(argv))
    caught = capsys.readouterr()
    return code, caught.out, caught.err


def _too_slow(signum, frame):
    raise TimeoutError(f"the refusal took over {LIMIT_S} seconds")


def _in_process(rows):
    """A test that runs rows of the refusal table through main, each within
    the table's time limit: one row bare, more rows by their ids."""
    def run(row, tmp_path, capsys):
        argv = argv_of(row, tmp_path)
        previous = signal.signal(signal.SIGALRM, _too_slow)
        try:
            signal.alarm(LIMIT_S)
            code = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        check(row, code, *capsys.readouterr())

    if len(rows) == 1:
        return lambda tmp_path, capsys: run(rows[0], tmp_path, capsys)
    return pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])(run)


# each rule of the refusal table is one test, named after the rule
for _rule, _rows in REFUSALS.items():
    globals()[f"test_{_rule}"] = _in_process(_rows)


def test_index_remark42_f2(capsys):
    code, out, _ = run_cli(capsys, "index", "--fixture", "remark42",
                           "--germ", "origin", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["nu_A"] == 3
    assert data["delta"] == 3
    assert data["branches"] == []


def test_classify_remark43(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fixture", "remark43",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    origin_rows = [r for r in data["branches"] if r["germ"] == "origin"]
    assert origin_rows == [
        {"germ": "origin", "factor": "z1", "nu_p": 1, "type": "I", "mu_p": 1}
    ]
    assert data["curves"] == [
        {"curve": "C", "prime_period": 1, "type": "I", "nu_C": 1, "tau": 1}
    ]


def test_classify_cubic_curve_table(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fixture", "cubic-d4")
    assert code == 0
    # table mode shows the curve inventory rows E0..E3 with nu, tau, type
    for label in ("E0", "E1", "E2", "E3"):
        assert label in out
    assert "nu_C" in out and "tau" in out


def test_count_cubic_range(capsys):
    code, out, _ = run_cli(capsys, "count", "--fixture", "cubic-d4",
                           "--n-range", "1..3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["isolated_periodic"] for r in rows] == [16, 320, 5776]
    assert all(r["algebraically_stable"] for r in rows)
    assert all(r["growth_ok"] for r in rows)


def test_lefschetz_cubic(capsys):
    code, out, _ = run_cli(capsys, "lefschetz", "--fixture", "cubic-d4",
                           "--n-range", "1..2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"lefschetz": 24, "n": 1}, {"lefschetz": 328, "n": 2}]


def test_cubic_lefschetz_and_count_run_to_any_n(capsys):
    # closed form L(f^n) = a_n + 6, a_0 = 2, a_1 = 18, a_{k+1} = 18 a_k - a_{k-1}
    a = [2, 18]
    while len(a) <= 40:
        a.append(18 * a[-1] - a[-2])
    expected = [(n, a[n] + 6) for n in range(1, 41)]
    for sub in ("lefschetz", "count"):
        code, out, _ = run_cli(capsys, sub, "--fixture", "cubic-d4",
                               "--n-range", "1..40", "--format", "json")
        assert code == 0, sub
        rows = json.loads(out)
        assert [(r["n"], r["lefschetz"]) for r in rows] == expected
    assert all(r["growth_ok"] is True for r in rows)


def test_validate_cubic_clean(capsys):
    code, out, _ = run_cli(capsys, "validate", "--fixture", "cubic-d4",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == [] and data["witness_issues"] == []
    assert data["algebraically_stable"] is True


def test_verify_remark42(capsys):
    code, out, _ = run_cli(capsys, "verify", "--fixture", "remark42",
                           "--n-max", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_agree"]
    by = {(c["germ"], c["n"]): c for c in data["checks"]}
    assert by[("origin", 1)]["oracle"] == 1
    assert by[("origin", 2)]["oracle"] == 3


def test_verify_remark43_positivity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--fixture", "remark43",
                           "--n-max", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_agree"]
    kinds = {c["check"] for c in data["checks"]}
    assert kinds == {"index_positivity"}


def test_singular_curve_factor_is_named_in_readable_text(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"germs": {"cusp": {"images": [
        "z1 + (z2^2 - z1^3)*z2", "z2 + (z2^2 - z1^3)*z1"]}}}))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "UnsupportedSingularBranch"
    named = error["message"].removeprefix("factor ").removesuffix(
        " is singular at the origin")
    assert parse_expression(named).normalized() == \
        parse_expression("z2^2 - z1^3").normalized()


def _places(node, path=()):
    """The path of every value inside a JSON document."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from _places(value, path + (key,))


_PLACES = [(name, path) for name in FIXTURE_NAMES
           for path in _places(fixture_document(name))]
_DELETE = object()
_POOL = [0, -1, 2.5, True, None, "1/0", "1e100000000", "z1", [], {}, {"a": 1}]
_SUBCOMMANDS = [("classify",), ("index",), ("lefschetz", "--n-range", "1..2"),
                ("count", "--n-range", "1..2"), ("validate",), ("verify", "--n-max", "1")]


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "scn.json"


@settings(max_examples=300, deadline=None)
@given(place=st.sampled_from(_PLACES), value=st.sampled_from([_DELETE, *_POOL]),
       argv=st.sampled_from(_SUBCOMMANDS))
# a zero denominator in a rational literal is a scenario error too
@example(place=("remark42", ("germs", "origin", "base_point", 1)), value="1/0",
         argv=("classify",))
def test_a_mutated_fixture_ends_in_a_result_or_an_error_object(document_path, place,
                                                               value, argv):
    # one mutation of a bundled document: a key deleted, a list entry
    # popped, or a value replaced from a fixed pool
    name, path = place
    doc = fixture_document(name)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    document_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(document_path), *argv[1:]])
    assert code in (0, 1, 2)
    if code:
        [line] = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error"}


def test_comments_and_the_unread_precision_load(tmp_path, capsys):
    # description and note are free text at any level, and meta.precision,
    # the truncation degree of older documents, still loads unread
    doc = fixture_document("remark43")
    doc["meta"]["precision"] = 16
    doc["description"] = "remark 4.3"
    doc["forms"]["omega"]["note"] = "the invariant form"
    doc["action"]["note"] = "no H^1"
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "lefschetz", str(path), "--n-range", "1..2")[0] == 0


@pytest.mark.parametrize("action", [{}, {"mode": "k3", "hodge_scalar": -1}],
                         ids=["h1trivial", "k3"])
def test_count_without_a_growth_envelope_reports_null(tmp_path, capsys,
                                                     monkeypatch, action):
    # lambda = 3 > 1, but only a torus or a declared growth_constant gives
    # an envelope to check the count against, so lambda is not computed
    from germindex import surface

    def no_radius(matrix):
        raise AssertionError("count computed a dynamical degree")

    monkeypatch.setattr(surface, "spectral_radius", no_radius)
    doc = fixture_document("remark43")
    del doc["curves"], doc["points"]
    doc["action"].update(action)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "count", str(path), "--n-range", "1..2",
                           "--format", "json")
    assert code == 0
    assert [r["growth_ok"] for r in json.loads(out)] == [None, None]


def test_count_without_a_dynamical_degree_reports_null(tmp_path, capsys):
    # a trace recurrence does not determine lambda, so with cubic-d4's
    # declared degree taken out the growth envelope has no verdict
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(edited("cubic-d4", lambda d: d["action"].pop(
        "dynamical_degree") and None)))
    code, out, _ = run_cli(capsys, "count", str(path), "--n-range", "1..2",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["isolated_periodic"] for r in rows] == [16, 320]
    assert [r["growth_ok"] for r in rows] == [None, None]


def test_validate_without_type_two_curves_skips_the_dynamical_degree(capsys,
                                                                    monkeypatch):
    # remark43 has no type II curve, so no period count can exceed the
    # bound and lambda = 3 is never needed
    from germindex import surface

    def no_radius(matrix):
        raise AssertionError("validate computed a dynamical degree")

    monkeypatch.setattr(surface, "spectral_radius", no_radius)
    code, out, _ = run_cli(capsys, "validate", "--fixture", "remark43",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == [] and data["witness_issues"] == []


def test_the_unedited_cubic_document_counts(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(fixture_document("cubic-d4")))
    assert run_cli(capsys, "count", str(path), "--n-range", "1..2")[0] == 0


def test_torus_lefschetz_prints_an_irrational_value(tmp_path, capsys):
    # L(f) need not be an integer on torus data, and is printed as it is
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(torus({"a": 1, "b": 1, "d": 2})))
    code, out, _ = run_cli(capsys, "lefschetz", str(path), "--n-range", "1..1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"n": 1, "lefschetz": {"a": "12", "b": "-8", "d": 2}}]


def test_a_value_no_report_holds_is_refused():
    from germindex.reports import jsonable

    with pytest.raises(TypeError):
        jsonable(object())


def _inconsistent_witnesses(d):
    d["curves"][0]["witnesses"][0]["curve_equation"] = "z1 + z2"
    d["curves"][1]["type"] = "I"
    d["points"][3].update(germ="u1", declared_index={"1": 5})


def test_validate_reports_witnesses_that_disagree(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(edited("cubic-d4", _inconsistent_witnesses)))
    issues = [
        "curve E0: witness at u1 has no branch with equation z2 + z1",
        "curve E1: witness at u1 gives type II, record says I",
        "point v1: germ gives nu = 4, declared 5",
    ]
    code, out, _ = run_cli(capsys, "validate", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["witness_issues"] == issues
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out.splitlines()[1:] == [f"witness: {issue}" for issue in issues]


def test_empty_count_range(capsys):
    code, out, _ = run_cli(capsys, "count", "--fixture", "cubic-d4",
                           "--n-range", "3..2", "--format", "json")
    assert code == 0
    assert json.loads(out) == []
    code, out, _ = run_cli(capsys, "count", "--fixture", "cubic-d4",
                           "--n-range", "3..2")
    assert code == 0
    assert out == "(empty)\n"


def test_json_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "count", "--fixture", "cubic-d4",
                         "--n-range", "1..4", "--format", "json")
    _, out2, _ = run_cli(capsys, "count", "--fixture", "cubic-d4",
                         "--n-range", "1..4", "--format", "json")
    assert out1 == out2


def test_table_output_runs(capsys):
    code, out, _ = run_cli(capsys, "index", "--fixture", "cubic-d4",
                           "--germ", "u1")
    assert code == 0
    assert "nu_A" in out and "z1" in out


def test_scenario_from_file(tmp_path, capsys):
    doc = {
        "meta": {"description": "inline test"},
        "germs": {"shear": {"images": ["z1 + z2", "z2"]}},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["branches"] == [{"germ": "shear", "factor": "z2", "nu_p": 1,
                                 "type": "II", "mu_p": 0}]
    assert data["curves"] == []


def test_verify_checks_germs_given_by_images(tmp_path, capsys):
    # an isolated Henon-like point and the crossing of two fixed curves
    doc = {"germs": {"henon": {"images": ["-2*z1 - z1^2 - z2", "z1"]},
                     "corner": {"images": ["z1 + z1^3*z2", "z2 + z1^2*z2^2"]}}}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path), "--n-max", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [(c["germ"], c["n"], c["check"], c["agree"]) for c in data["checks"]] == [
        ("corner", 1, "index_positivity", True),
        ("corner", 2, "index_positivity", True),
        ("henon", 1, "multiplicity", True),
        ("henon", 2, "multiplicity", True),
    ]
    assert data["all_agree"] is True


def test_verify_remark42_agrees_at_n_7(capsys):
    code, out, _ = run_cli(capsys, "verify", "--fixture", "remark42",
                           "--n-max", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["all_agree"] is True


def test_declared_isolation_parses(tmp_path, capsys):
    doc = {
        "germs": {"g": {"images": ["z1", "z2 + z1^2"]}},
        "action": {"mode": "h1trivial", "matrix": [[1]],
                   "picard_number": 1, "algebraically_stable": True},
        "curves": [{"label": "C", "prime_period": 2, "type": "II",
                    "nu_C": 1, "self_intersection": -1}],
        "points": [{"label": "p", "prime_period": 1, "on_curves": ["C"],
                    "declared_index": {"1": 1}}],
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    from germindex.scenario import load_scenario_file

    model = load_scenario_file(str(path)).require_model()
    # p is on the period-2 curve only
    assert [pt.label for pt in model.points_on_period(2)] == ["p"]
    assert model.points_on_period(1) == []


def test_precision_is_not_an_option(capsys):
    # no reported number depends on a truncation degree
    code, out, _ = run_cli(capsys, "index", "--fixture", "remark42",
                           "--germ", "origin", "--precision", "10",
                           "--format", "json")
    assert code == 2 and out == ""


def test_fixture_loader_values():
    scn = load_fixture("cubic-d4")
    assert set(scn.germs) == {"u1", "u2", "u3"}
    assert scn.model is not None
    assert scn.model.action.picard_number == 7
    scn2 = load_fixture("remark42")
    assert scn2.model is None
    assert set(scn2.maps) == {"f"}


def test_second_fixed_point_localization():
    scn = load_fixture("remark42")
    germ = scn.germs["second_fixed_point"]
    from germindex import local_index

    assert local_index(germ).nu_A == 1


def test_validate_prints_an_inventory_violation(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(edited(
        "cubic-d4", lambda d: d["curves"][1].update(prime_period=2))))
    message = "intersecting type II curves E0, E1 have periods 1 != 2"
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out == ("algebraic stability asserted: True\n"
                   f"type_II_period_mismatch: {message}\n")
    code, out, _ = run_cli(capsys, "validate", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == [
        {"kind": "type_II_period_mismatch", "curves": ["E0", "E1"],
         "message": message}]


def test_index_reports_the_only_germ_without_germ(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"germs": {"g": {"images": ["z1 + z2^2",
                                                           "z2 + z1^2"]}}}))
    code, out, _ = run_cli(capsys, "index", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["germ"], data["n"], data["delta"], data["nu_A"]) == ("g", 1, 4, 4)


def test_verify_reports_an_oracle_that_finds_no_isolated_point(monkeypatch, capsys):
    from germindex.errors import NonIsolated

    def non_isolated(*_):
        raise NonIsolated("a fixed curve through the point")

    monkeypatch.setattr("germindex.cli.fixed_multiplicity", non_isolated)
    code, out, _ = run_cli(capsys, "verify", "--fixture", "remark42",
                           "--n-max", "1")
    assert code == 1
    assert [line.split() for line in out.splitlines()[2:]] == [
        [germ, "1", "multiplicity", "1", "non-isolated", "False"]
        for germ in ("origin", "second_fixed_point")]
    code, out, _ = run_cli(capsys, "verify", "--fixture", "remark42",
                           "--n-max", "1", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert [(c["oracle"], c["agree"]) for c in data["checks"]] == \
        [("non-isolated", False)] * 2
    assert data["all_agree"] is False


# the command as a process: `python -m germindex.cli` goes through run(),
# the entry of the console script too

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def run_process(*argv, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "germindex.cli", *argv],
                          cwd=ROOT, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_the_process_prints_the_golden_index():
    done = run_process("index", "--fixture", "remark42", "--germ", "origin",
                       "--n", "2", "--format", "json")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "remark42.index_n2.json.txt").read_text(
        encoding="utf-8")


def test_the_process_exits_1_on_a_domain_error():
    done = run_process("index", "--fixture", "remark42", "--n", "1001")
    assert done.returncode == 1
    assert done.stdout == ""
    assert json.loads(done.stderr)["error"]["kind"] == "PrecisionExhausted"


def test_the_process_exits_with_the_golden_code_on_a_scenario_error():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    done = run_process("count", "--fixture", "remark42", "--n-range", "1..3",
                       "--format", "json")
    assert done.returncode == codes["remark42.count.json"] == 2
    assert json.loads(done.stderr)["error"]["kind"] == "ScenarioError"


@pytest.mark.parametrize("content", [
    b"\xff\xfe{",                        # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,      # nested past the recursion limit
], ids=["not-utf8", "nested-too-deeply"])
def test_unreadable_scenario_bytes_are_scenario_errors(tmp_path, content):
    path = tmp_path / "scn.json"
    path.write_bytes(content)
    done = run_process("index", str(path))
    assert done.returncode == 2
    assert json.loads(done.stderr)["error"]["kind"] == "ScenarioError"


def test_a_closed_stdout_exits_2_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_process("index", "--fixture", "remark42", "--format", "json",
                           stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr


def test_main_leaves_the_collector_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    assert main(["index", "--fixture", "remark42", "--n", "1"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_the_console_script_enters_through_run():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["germindex"] == "germindex.cli:run"
