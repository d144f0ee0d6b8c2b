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


def run_cli(capsys, *argv):
    code = main(list(argv))
    caught = capsys.readouterr()
    return code, caught.out, caught.err


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


def test_a_trace_table_beside_the_recurrence_is_refused(tmp_path, capsys):
    # neither may win silently: the table would make L(f) = 1001, not 24
    doc = _cubic(lambda d: d["action"].update(
        traces={"1": {"0,0": 1, "1,1": 999, "2,2": 1}}))
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "lefschetz", str(path), "--n-range", "1..1")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ScenarioError"
    assert "'traces'" in error["message"]
    assert "'h11_trace_recurrence'" in error["message"]


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


def test_count_rejects_type_one_fixture(capsys):
    code, out, err = run_cli(capsys, "count", "--fixture", "remark43",
                             "--n-range", "1..2")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "TypeICurvePresent"


def test_missing_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "index")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "ScenarioError"


@pytest.mark.parametrize("argv", [
    ("index", "--fixture", "remark42", "--germ", "origin", "--n", "0"),
    ("index", "--fixture", "remark42", "--germ", "origin", "--n", "-3"),
    ("verify", "--fixture", "remark42", "--n-max", "0", "--format", "json"),
    ("verify", "--fixture", "remark42", "--n-max", "-1"),
])
def test_iterate_below_one_is_a_usage_error(capsys, argv):
    # refused like a bad --n-range: no traceback, and no verdict over zero
    # checks on stdout
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ScenarioError"
    assert "must be 1 or more" in error["message"]


def test_bad_scenario_path(capsys):
    code, _, err = run_cli(capsys, "classify", "/nonexistent/file.json")
    assert code == 2


def test_non_squarefree_dynamical_degree_is_a_scenario_error(tmp_path, capsys):
    doc = {
        "action": {"mode": "explicit_traces", "picard_number": 1,
                   "algebraically_stable": True,
                   "traces": {"1": {"0,0": 1, "1,1": 3, "2,2": 1}},
                   "dynamical_degree": {"a": 9, "b": 2, "d": 20}},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "lefschetz", str(path), "--n-range", "1..1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ScenarioError"


def _edited(name, edit):
    """A fixture document with one edit; an edit may return a replacement
    for the whole document."""
    doc = fixture_document(name)
    return edit(doc) or doc


def _cubic(edit):
    return _edited("cubic-d4", edit)


def _traces_instead(table):
    """cubic-d4 with a trace table in place of its recurrence."""
    def edit(d):
        del d["action"]["h11_trace_recurrence"]
        d["action"]["traces"] = table
    return _cubic(edit)


def _degree(**parts):
    return _cubic(lambda d: d["action"]["dynamical_degree"].update(parts))


def _torus(delta):
    """A torus action alone, with epsilon = 1."""
    return {"action": {"mode": "torus", "delta": delta, "epsilon": 1,
                       "picard_number": 4, "algebraically_stable": True}}


def _declared_degree(value):
    return _cubic(lambda d: d["action"].update(dynamical_degree=value))


# an expression that is not a string, with the map or germ its refusal names
NOT_STRINGS = [
    (_edited("remark42", lambda d: d["maps"].update(f=[{"a": 1}, "z2"])), "map 'f'"),
    (_edited("remark42", lambda d: d["maps"].update(f=[["z1"], "z2"])), "map 'f'"),
    (_cubic(lambda d: d["germs"].update(u1={"images": [["z1"], "z2"]})), "germ 'u1'"),
]
NOT_STRING_IDS = ["map_image_object", "map_image_list", "germ_image_list"]
# an expression outside the grammar
UNPARSED = _edited("remark42", lambda d: d["maps"].update(f=["z1 +", "z2"]))


@pytest.mark.parametrize("doc", [
    _cubic(lambda d: d["curves"][0].update(type="III")),
    _cubic(lambda d: d["curves"][0].pop("label") and None),
    _cubic(lambda d: d["forms"]["holomorphic_near_E"].update(z1_valuation="abc")),
    _cubic(lambda d: [d]),
    _cubic(lambda d: d["points"][0].update(on_curves=["E9"])),
    _cubic(lambda d: d["germs"].update(u1={"images": ["z1+1", "z2"]})),
    _cubic(lambda d: d["action"].update(growth_constant=2.5)),
    _cubic(lambda d: d["curves"][0].update(nu_C=2.5)),
    _cubic(lambda d: d["action"].update(picard_number=7.9)),
    _cubic(lambda d: d["action"].update(algebraically_stable="false")),
    _degree(d=5.7),
    _degree(a=0.1),
    _degree(a=True),
    _edited("remark43", lambda d: d["action"].update(matrix=[[2.5]])),
    _edited("remark43", lambda d: d["action"].update(matrix=[[1, 2], [3]])),
    _edited("remark43", lambda d: d["action"].update(matrix=[])),
    _cubic(lambda d: d["germs"]["u1"].update(base_point=[0])),
    _cubic(lambda d: d["germs"].update(u1={"images": ["z1"]})),
    _cubic(lambda d: d["action"]["h11_trace_recurrence"].update(initial=[])),
    _cubic(lambda d: d["action"]["h11_trace_recurrence"].update(initial=[2])),
    _cubic(lambda d: d.update(intersections=[["E0", "nope"]])),
    _cubic(lambda d: d.update(intersections=[["E0"]])),
    _traces_instead({"1": {"0": 1, "1,1": 4}}),
    _edited("remark43", lambda d: d["points"][0].update(on_curves="C")),
    _cubic(lambda d: d["germs"].update(
        u1={"images": ["z1 + z2^2", "z2 + z1^2", "z1"]})),
    _cubic(lambda d: d["germs"]["u1"].update(base_point=[0, 0, 7])),
    _cubic(lambda d: d["action"].update(picard_number=0)),
    _cubic(lambda d: d["action"].update(picard_number=-3)),
    _cubic(lambda d: d["action"].update(growth_constant=-1)),
    # count's L(f^n) - sum xi_k, a sum of positive indices, is 1/4,
    # 12 - 8*sqrt(2) and -2 (xi_1 = 26 > L(f) = 24) at n = 1
    _torus(2),
    _torus({"a": 1, "b": 1, "d": 2}),
    _cubic(lambda d: d["points"][3].update(declared_index={"1": 20})),
    # v1 is a point of prime period 1 on E1 with no germ
    _cubic(lambda d: d["points"][3].update(declared_index={"1": -7})),
    _cubic(lambda d: d["points"][3].update(declared_index={"0": 5, "1": 2})),
    _cubic(lambda d: d["points"][3].update(prime_period=2,
                                           declared_index={"1": 2, "2": 2})),
    # a germ is built from 'map' (with its base_point) or from 'images'
    _cubic(lambda d: d["germs"]["u1"].update(
        images=["z1 + z1^3*z2", "z2 + z1^2*z2^2"])),
    _cubic(lambda d: d["germs"].update(u1={
        "images": ["z1 + z1^3*z2", "z2 + z1^2*z2^2"], "base_point": [0, 0]})),
    # a zero denominator in a rational literal
    _cubic(lambda d: d["germs"]["u1"].update(base_point=[0, "1/0"])),
    _degree(b="1/0"),
    # a surd's d is an integer even where b = e = 0 leaves it unused
    _edited("remark43", lambda d: d["action"].update(
        mode="k3", hodge_scalar={"c": 1, "d": "garbage"})),
    _edited("remark43", lambda d: d["action"].update(
        mode="k3", hodge_scalar={"c": 1, "d": 2.5})),
    # a witness names a point on its curve
    _cubic(lambda d: d["curves"][0]["witnesses"][0].update(point="no_such_point")),
    _cubic(lambda d: d["curves"][0]["witnesses"][0].update(point="v1")),
    # labels are strings, and point labels are unique: a second u1 would
    # make the count at n = 1 12, not 16
    _cubic(lambda d: d["points"][0].update(label={"a": 1})),
    _cubic(lambda d: d["points"].append(dict(d["points"][0]))),
    _cubic(lambda d: d["curves"].append(dict(d["curves"][1]))),
    _cubic(lambda d: d["curves"][0].update(prime_period=0)),
    _cubic(lambda d: d["points"][0].update(prime_period=0)),
    _cubic(lambda d: d["curves"][0].update(nu_C=0)),
    {"action": dict(_torus(2)["action"], epsilon=2)},
    _torus("1/2"),
    _edited("remark43", lambda d: d["action"].update(mode="k3", hodge_scalar=2)),
    # a table of maps, germs or forms is an object, not a falsy stand-in
    _cubic(lambda d: d.update(forms=0)),
    # a declared dynamical degree is real and at least 1
    _declared_degree({"c": 1}),
    _declared_degree(0),
    _declared_degree(-1),
    _declared_degree("1/2"),
    _declared_degree({"a": "1/2"}),
    UNPARSED,
    *(doc for doc, _ in NOT_STRINGS),
], ids=["curve_type_III", "curve_without_label", "z1_valuation_abc", "top_level_list",
        "point_on_unknown_curve", "germ_not_fixing_the_origin", "growth_constant_2.5",
        "nu_C_2.5", "picard_number_7.9", "algebraically_stable_string",
        "degree_d_5.7", "degree_a_0.1", "degree_a_true",
        "matrix_entry_2.5", "ragged_matrix", "empty_matrix", "base_point_of_one",
        "one_image", "empty_recurrence", "short_recurrence",
        "intersection_with_unknown_curve", "intersection_of_one",
        "trace_key_of_one_index", "on_curves_string", "three_images",
        "base_point_of_three", "picard_number_0", "picard_number_negative",
        "growth_constant_negative", "count_one_quarter", "count_12_minus_8sqrt2",
        "count_negative", "declared_index_negative", "declared_index_at_0",
        "declared_index_off_the_period", "germ_map_and_images",
        "base_point_without_map", "base_point_zero_denominator",
        "surd_zero_denominator", "surd_d_string", "surd_d_2.5",
        "witness_at_no_point", "witness_off_its_curve",
        "point_label_object", "duplicate_point_labels", "duplicate_curve_labels",
        "curve_prime_period_0", "point_prime_period_0", "nu_C_0",
        "torus_epsilon_2", "torus_delta_one_half", "k3_hodge_scalar_2",
        "forms_0", "degree_i", "degree_0", "degree_negative", "degree_one_half",
        "degree_surd_one_half", "map_image_unparsed", *NOT_STRING_IDS])
def test_malformed_scenario_documents_are_scenario_errors(tmp_path, capsys, doc):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "count", str(path), "--n-range", "1..2")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ScenarioError"


@pytest.mark.parametrize("doc, where", NOT_STRINGS, ids=NOT_STRING_IDS)
def test_an_expression_that_is_not_a_string_names_its_map_or_germ(tmp_path, capsys,
                                                                  doc, where):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert where in message and "must be a string" in message, message


def test_an_expression_that_does_not_parse_names_its_map(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(UNPARSED))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ScenarioError"
    # the field, then the parser's own text with its position
    assert error["message"] == ("an image of map 'f' does not parse: "
                                "unexpected 'end' (at position 4)")


def test_a_non_ascii_character_in_an_expression_names_its_map(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_edited("remark42", lambda d: d["maps"].update(
        f=["z1^²", "z2"]))))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == (
        "an image of map 'f' does not parse: unexpected character '²' (at position 3)")


@pytest.mark.parametrize("literal", ["1e100000000", "0.5", "1_000", "١٢"],
                         ids=["exponent", "decimal", "underscore", "arabic_indic"])
def test_a_rational_literal_is_an_ascii_integer_or_quotient(tmp_path, capsys, literal):
    # Fraction alone reads each of these, and would spend minutes building
    # 10^100000000 before the base point is found not to be fixed
    def too_slow(signum, frame):
        raise TimeoutError("loading took over two seconds")

    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_edited("remark42", lambda d: d["germs"]["origin"].update(
        base_point=[0, literal]))))
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.alarm(2)
        code, out, err = run_cli(capsys, "classify", str(path))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "ScenarioError"
    assert f"cannot interpret {literal!r} as an exact rational" in error["message"]


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("action") and d.update(curves="junk"),
    lambda d: d.pop("action") and None,
    lambda d: d.update(action=None),
    lambda d: d.update(action={}),
], ids=["curves_junk_without_action", "curves_without_action", "action_null",
        "action_empty"])
def test_a_present_action_is_read_and_curves_need_one(tmp_path, capsys, edit):
    # classify reads no model, so without these refusals a malformed action
    # or unread curves and points would pass it; count refuses any document
    # without a model
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_edited("remark43", edit)))
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "ScenarioError"


def test_count_refusal_writes_each_surd_component_with_its_sign(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_torus({"a": 1, "b": 1, "d": 2})))
    code, _, err = run_cli(capsys, "count", str(path), "--n-range", "1..2")
    assert code == 2
    assert "L(f^n) - sum of xi_k = 12 - 8*sqrt(2) is not" in \
        json.loads(err)["error"]["message"]


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


@pytest.mark.parametrize("doc, key", [
    (_edited("remark43", lambda d: d["forms"].update(omega={"z1_valuaton": -1})),
     "z1_valuaton"),
    (_edited("remark43", lambda d: d.update(point=[])), "point"),
    (_edited("remark43", lambda d: d["meta"].update(algebraically_stabel=True)),
     "algebraically_stabel"),
    (_edited("remark43", lambda d: d["germs"]["origin"].update(basepoint=[0, 0])),
     "basepoint"),
    (_edited("remark43", lambda d: d["action"].update(picard=1)), "picard"),
    (_edited("remark43", lambda d: d["action"].update(delta=1)), "delta"),
    (_edited("remark43", lambda d: d["curves"][0].update(prime_periode=2)),
     "prime_periode"),
    (_edited("remark43", lambda d: d["curves"][0]["witnesses"][0].update(equation="z1")),
     "equation"),
    (_edited("remark43", lambda d: d["points"][0].update(declared={"1": 1})),
     "declared"),
    (_edited("cubic-d4", lambda d: d["action"]["h11_trace_recurrence"].update(ofset=4)),
     "ofset"),
    (_edited("cubic-d4", lambda d: d["action"]["dynamical_degree"].update(f=1)), "f"),
    (_edited("cubic-d4", lambda d: d["points"][0].update(
        isolation={"kind": "conditionally_isolated", "period": 2})), "isolation"),
    (_edited("remark43", lambda d: d["meta"].update(algebraically_stable=True)),
     "algebraically_stable"),
    (_edited("cubic-d4", lambda d: d["points"][0].update(
        isolation={"kind": "conditionally_isolated", "secondary_period": 2})),
     "isolation"),
    # the recurrence is extended to whatever n is asked for
    (_edited("cubic-d4", lambda d: d["action"].update(max_n=12)), "max_n"),
], ids=["form_z1_valuaton", "document_point", "meta_algebraically_stabel",
        "germ_basepoint", "action_picard", "h1trivial_action_delta",
        "curve_prime_periode", "witness_equation", "point_declared",
        "recurrence_ofset", "surd_f", "isolation_period",
        "meta_algebraically_stable", "point_isolation", "explicit_traces_max_n"])
def test_unknown_keys_are_scenario_errors(tmp_path, capsys, doc, key):
    # a misspelled field would otherwise silently take its default: the
    # first case loads omega as the holomorphic form
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "count", str(path), "--n-range", "1..2")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ScenarioError"
    assert error["message"].endswith(f"has unknown keys: {key}")


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


def test_index_on_a_scenario_without_germs(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"maps": {}}))
    code, out, err = run_cli(capsys, "index", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"kind": "ScenarioError",
                                        "message": "scenario has no germs"}


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
    path.write_text(json.dumps(_cubic(lambda d: d["action"].pop("dynamical_degree")
                                      and None)))
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
    path.write_text(json.dumps(_torus({"a": 1, "b": 1, "d": 2})))
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
    path.write_text(json.dumps(_cubic(_inconsistent_witnesses)))
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


def test_iterate_above_the_degree_bound_exits_1(tmp_path, capsys):
    # f^3 of (z2 + z1^16, z1) could reach degree 4096, above the bound 256
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"germs": {"g": {"images": ["z2 + z1^16", "z1"]}}}))
    code, out, err = run_cli(capsys, "index", str(path), "--germ", "g", "--n", "3")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "PrecisionExhausted"


@pytest.mark.parametrize("argv", [("index", "--n", "1001"), ("verify", "--n-max", "1001")])
def test_n_above_the_iterate_bound_exits_1(tmp_path, capsys, argv):
    # (z1 + z2^2, z2) keeps degree 2 for every n, so only the bound on n
    # keeps a deep iterate from holding the whole chain in memory
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"maps": {"f": ["z1 + z2^2", "z2"]},
                                "germs": {"origin": {"map": "f", "base_point": [0, 0]}}}))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "PrecisionExhausted"


def test_n_above_the_iterate_bound_is_refused_before_loading(capsys):
    code, out, err = run_cli(capsys, "index", "--fixture", "remark42",
                             "--n", "1001")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "PrecisionExhausted"
    assert "--n 1001" in error["message"]


@pytest.mark.parametrize("command", ["lefschetz", "count"])
def test_a_range_above_the_iterate_bound_exits_1(capsys, command):
    # refused before any number is computed, like verify --n-max 1001
    code, out, err = run_cli(capsys, command, "--fixture", "remark43",
                             "--n-range", "1..10000", "--format", "json")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "PrecisionExhausted"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_value_too_long_to_print_exits_1(tmp_path, capsys, fmt):
    # L(f^1000) = 2 + 100000^1000 has 5001 digits, above Python's 4300-digit
    # limit for writing an integer as text
    path = tmp_path / "scn.json"
    doc = fixture_document("remark43")
    doc["action"]["matrix"] = [[100000]]
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "lefschetz", str(path),
                             "--n-range", "1000..1000", "--format", fmt)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "PrecisionExhausted"


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


def test_classify_an_unknown_germ_names_the_available_ones(capsys):
    code, out, err = run_cli(capsys, "classify", "--fixture", "remark43",
                             "--germ", "nope")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "kind": "ScenarioError",
        "message": "unknown germ 'nope'; available: minus_two, origin"}


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
    path.write_text(json.dumps(_cubic(
        lambda d: d["curves"][1].update(prime_period=2))))
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


@pytest.mark.parametrize("argv, message", [
    (("lefschetz", "--fixture", "cubic-d4", "--n-range", "1-3"),
     "bad range '1-3', expected a..b"),
    (("count", "SCENARIO", "--fixture", "cubic-d4", "--n-range", "1..2"),
     "give either a scenario path or --fixture, not both"),
    (("count", "SCENARIO", "--n-range", "1..2"), "unknown action mode 'bogus'"),
], ids=["range_without_dots", "path_and_fixture", "unknown_action_mode"])
def test_usage_refusals_name_their_cause(tmp_path, capsys, argv, message):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_cubic(lambda d: d["action"].update(mode="bogus"))))
    argv = [str(path) if a == "SCENARIO" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"kind": "ScenarioError", "message": message}


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
