"""The refusal table: inputs the CLI refuses, and the one error each ends in.

A row is an id, a document (a bundled fixture with one edit, an inline
document, or None), the argv, in which SCENARIO stands for the document's
path, the exit code, the error kind and a pattern that `re.search` finds in
the error message, anchored where the whole message or its end is fixed.
Rows are grouped by the rule they exercise; `tests/test_cli.py` runs each
rule as one test through `germindex.cli.main`, and CI runs every row
through the installed `germindex` command.
"""

import json
import re
from collections import namedtuple
from pathlib import Path

from germindex.scenario import fixture_document

Row = namedtuple("Row", "id doc argv code kind pattern")

# a rational literal that Fraction alone would read, as 10^100000000, takes
# minutes; every refusal here takes milliseconds in process, and under a
# second through the installed command, most of it the import
LIMIT_S = 5

CUBIC, R42, R43 = "cubic-d4", "remark42", "remark43"
COUNT = ("count", "SCENARIO", "--n-range", "1..2")
CLASSIFY = ("classify", "SCENARIO")
LEFSCHETZ_1 = ("lefschetz", "SCENARIO", "--n-range", "1..1")


def _scenario_errors(argv, *rows):
    """Rows (id, document, pattern) that argv refuses with a ScenarioError."""
    return [Row(id, doc, argv, 2, "ScenarioError", pattern) for id, doc, pattern in rows]


def _precision(id, doc, argv, pattern):
    return Row(id, doc, argv, 1, "PrecisionExhausted", pattern)


def edited(name, edit):
    """A fixture document with one edit; an edit may return a replacement
    for the whole document."""
    doc = fixture_document(name)
    return edit(doc) or doc


def _set(name, *path, **fields):
    """A fixture document with the object at path updated by fields."""
    doc = fixture_document(name)
    node = doc
    for key in path:
        node = node[key]
    node.update(fields)
    return doc


def _traces_instead(table):
    """cubic-d4 with a trace table in place of its recurrence."""
    def edit(d):
        del d["action"]["h11_trace_recurrence"]
        d["action"]["traces"] = table
    return edited(CUBIC, edit)


def torus(delta):
    """A torus action alone, with epsilon = 1."""
    return {"action": {"mode": "torus", "delta": delta, "epsilon": 1,
                       "picard_number": 4, "algebraically_stable": True}}


def _exact(message):
    return f"^{re.escape(message)}$"


def _literal(id, literal):
    return (id, _set(R42, "germs", "origin", base_point=[0, literal]),
            re.escape(f"cannot interpret {literal!r} as an exact rational"))


_MAP_OBJECT = _set(R42, "maps", f=[{"a": 1}, "z2"])
_MAP_LIST = _set(R42, "maps", f=[["z1"], "z2"])
_GERM_LIST = _set(CUBIC, "germs", u1={"images": [["z1"], "z2"]})
_UNPARSED = _set(R42, "maps", f=["z1 +", "z2"])
_NOT_STRING = "^an image of {} must be a string"
_UNPARSED_MESSAGE = _exact("an image of map 'f' does not parse: "
                           "unexpected 'end' (at position 4)")
_DEGREE_BELOW_ONE = "a dynamical degree is real and at least 1, not "
_TWO_ENTRIES = "base_point of germ 'u1' must have two entries"
_MAP_AND_IMAGES = "germ 'u1' has 'images' beside 'map' or 'base_point'"
_SQUARE = "the action matrix must be square and not empty"
_NO_INITIAL = "a recurrence needs an initial trace per coefficient"
_BOGUS_MODE = _set(CUBIC, "action", mode="bogus")
_CORNER = ["z1 + z1^3*z2", "z2 + z1^2*z2^2"]
# (z1 + z2^2, z2) keeps degree 2 for every n, so only the bound on n keeps a
# deep iterate from holding the whole chain in memory
_DEGREE_TWO_FOR_EVERY_N = {"maps": {"f": ["z1 + z2^2", "z2"]},
                           "germs": {"origin": {"map": "f", "base_point": [0, 0]}}}

REFUSALS = {
    "malformed_scenario_documents_are_scenario_errors": _scenario_errors(
        COUNT,
        ("curve_type_III", _set(CUBIC, "curves", 0, type="III"),
         "curve type must be 'I' or 'II'"),
        ("curve_without_label", edited(CUBIC, lambda d: d["curves"][0].pop("label") and None),
         "KeyError: 'label'"),
        ("z1_valuation_abc", _set(CUBIC, "forms", "holomorphic_near_E", z1_valuation="abc"),
         "z1_valuation must be an integer"),
        ("top_level_list", edited(CUBIC, lambda d: [d]), "the document must be an object"),
        ("point_on_unknown_curve", edited(CUBIC, lambda d: d["points"][0]["on_curves"]
                                          .append("E9")),
         "point u1 references unknown curve E9"),
        ("germ_not_fixing_the_origin", _set(CUBIC, "germs", u1={"images": ["z1+1", "z2"]}),
         "germ must fix the origin"),
        ("growth_constant_2.5", _set(CUBIC, "action", growth_constant=2.5),
         "growth_constant must be an integer"),
        ("nu_C_2.5", _set(CUBIC, "curves", 0, nu_C=2.5), "nu_C must be an integer"),
        ("picard_number_7.9", _set(CUBIC, "action", picard_number=7.9),
         "picard_number must be an integer"),
        ("algebraically_stable_string", _set(CUBIC, "action", algebraically_stable="false"),
         "algebraically_stable must be true or false"),
        ("degree_d_5.7", _set(CUBIC, "action", "dynamical_degree", d=5.7),
         "d must be an integer, got 5.7"),
        ("degree_a_0.1", _set(CUBIC, "action", "dynamical_degree", a=0.1),
         "cannot interpret 0.1 as an exact rational"),
        ("degree_a_true", _set(CUBIC, "action", "dynamical_degree", a=True),
         "cannot interpret True as an exact rational"),
        ("matrix_entry_2.5", _set(R43, "action", matrix=[[2.5]]),
         "a matrix entry must be an integer"),
        ("ragged_matrix", _set(R43, "action", matrix=[[1, 2], [3]]), _SQUARE),
        ("empty_matrix", _set(R43, "action", matrix=[]), _SQUARE),
        ("base_point_of_one", _set(CUBIC, "germs", "u1", base_point=[0]), _TWO_ENTRIES),
        ("one_image", _set(CUBIC, "germs", u1={"images": ["z1"]}),
         "images of germ 'u1' must have two entries"),
        ("empty_recurrence", _set(CUBIC, "action", "h11_trace_recurrence", initial=[]),
         _NO_INITIAL),
        ("short_recurrence", _set(CUBIC, "action", "h11_trace_recurrence", initial=[2]),
         _NO_INITIAL),
        ("intersection_with_unknown_curve", _set(CUBIC, intersections=[["E0", "nope"]]),
         "an intersection names a curve the model lacks"),
        ("intersection_of_one", _set(CUBIC, intersections=[["E0"]]), "two entries"),
        ("trace_key_of_one_index", _traces_instead({"1": {"0": 1, "1,1": 4}}),
         "a trace key must name two indices i,j"),
        ("on_curves_string", _set(R43, "points", 0, on_curves="C"),
         "on_curves must be a list"),
        ("three_images",
         _set(CUBIC, "germs", u1={"images": ["z1 + z2^2", "z2 + z1^2", "z1"]}),
         "images of germ 'u1' must have two entries"),
        ("base_point_of_three", _set(CUBIC, "germs", "u1", base_point=[0, 0, 7]),
         _TWO_ENTRIES),
        ("picard_number_0", _set(CUBIC, "action", picard_number=0),
         "picard_number must be 1 or more"),
        ("picard_number_negative", _set(CUBIC, "action", picard_number=-3),
         "picard_number must be 1 or more"),
        ("growth_constant_negative", _set(CUBIC, "action", growth_constant=-1),
         "growth_constant must not be negative"),
        # count's L(f^n) - sum xi_k, a sum of positive indices, is 1/4,
        # 12 - 8*sqrt(2) and -2 (xi_1 = 26 > L(f) = 24) at n = 1
        ("count_one_quarter", torus(2), re.escape("= 1/4 is not")),
        ("count_12_minus_8sqrt2", torus({"a": 1, "b": 1, "d": 2}),
         re.escape("L(f^n) - sum of xi_k = 12 - 8*sqrt(2) is not")),
        ("count_negative", _set(CUBIC, "points", 3, declared_index={"1": 20}),
         re.escape("= -2 is not")),
        # v1 is a point of prime period 1 on E1 with no germ
        ("declared_index_negative", _set(CUBIC, "points", 3, declared_index={"1": -7}),
         "point v1: declared index -7 at n = 1;"),
        ("declared_index_at_0", _set(CUBIC, "points", 3, declared_index={"0": 5, "1": 2}),
         "point v1: declared index 5 at n = 0;"),
        ("declared_index_off_the_period",
         _set(CUBIC, "points", 3, prime_period=2, declared_index={"1": 2, "2": 2}),
         "point v1: declared index 2 at n = 1; n must be a positive multiple of 2"),
        # a germ is built from 'map' (with its base_point) or from 'images'
        ("germ_map_and_images", _set(CUBIC, "germs", "u1", images=_CORNER), _MAP_AND_IMAGES),
        ("base_point_without_map",
         _set(CUBIC, "germs", u1={"images": _CORNER, "base_point": [0, 0]}), _MAP_AND_IMAGES),
        # a zero denominator in a rational literal
        ("base_point_zero_denominator", _set(CUBIC, "germs", "u1", base_point=[0, "1/0"]),
         "ZeroDivisionError"),
        ("surd_zero_denominator", _set(CUBIC, "action", "dynamical_degree", b="1/0"),
         "ZeroDivisionError"),
        # a surd's d is an integer even where b = e = 0 leaves it unused
        ("surd_d_string",
         _set(R43, "action", mode="k3", hodge_scalar={"c": 1, "d": "garbage"}),
         "d must be an integer"),
        ("surd_d_2.5", _set(R43, "action", mode="k3", hodge_scalar={"c": 1, "d": 2.5}),
         "d must be an integer"),
        # a witness names a point on its curve
        ("witness_at_no_point",
         _set(CUBIC, "curves", 0, "witnesses", 0, point="no_such_point"),
         "unknown point 'no_such_point'"),
        ("witness_off_its_curve", _set(CUBIC, "curves", 0, "witnesses", 0, point="v1"),
         "is at 'v1', not on the curve"),
        # labels are strings, and point labels are unique: a second u1 would
        # make the count at n = 1 12, not 16
        ("point_label_object", _set(CUBIC, "points", 0, label={"a": 1}),
         "label must be a string"),
        ("duplicate_point_labels", edited(CUBIC, lambda d: d["points"].append(
            dict(d["points"][0]))), "duplicate point labels"),
        ("duplicate_curve_labels", edited(CUBIC, lambda d: d["curves"].append(
            dict(d["curves"][1]))), "duplicate curve labels"),
        ("curve_prime_period_0", _set(CUBIC, "curves", 0, prime_period=0),
         "prime period and nu_C must be positive"),
        ("point_prime_period_0", _set(CUBIC, "points", 0, prime_period=0),
         "prime period must be positive"),
        ("nu_C_0", _set(CUBIC, "curves", 0, nu_C=0), "prime period and nu_C must be positive"),
        ("torus_epsilon_2", {"action": dict(torus(2)["action"], epsilon=2)},
         "epsilon must have modulus one"),
        ("torus_delta_one_half", torus("1/2"), "delta must have modulus at least one"),
        ("k3_hodge_scalar_2", _set(R43, "action", mode="k3", hodge_scalar=2),
         "Hodge scalar must have modulus one"),
        # a table of maps, germs or forms is an object, not a falsy stand-in
        ("forms_0", _set(CUBIC, forms=0), "forms must be an object"),
        # a declared dynamical degree is real and at least 1
        ("degree_i", _set(CUBIC, "action", dynamical_degree={"c": 1}), _DEGREE_BELOW_ONE),
        ("degree_0", _set(CUBIC, "action", dynamical_degree=0), _DEGREE_BELOW_ONE),
        ("degree_negative", _set(CUBIC, "action", dynamical_degree=-1), _DEGREE_BELOW_ONE),
        ("degree_one_half", _set(CUBIC, "action", dynamical_degree="1/2"), _DEGREE_BELOW_ONE),
        ("degree_surd_one_half", _set(CUBIC, "action", dynamical_degree={"a": "1/2"}),
         _DEGREE_BELOW_ONE),
        ("map_image_unparsed", _UNPARSED, _UNPARSED_MESSAGE),
        ("map_image_object", _MAP_OBJECT, _NOT_STRING.format("map 'f'")),
        ("map_image_list", _MAP_LIST, _NOT_STRING.format("map 'f'")),
        ("germ_image_list", _GERM_LIST, _NOT_STRING.format("germ 'u1'")))
    # a zero denominator in remark42, under classify
    + _scenario_errors(CLASSIFY, ("remark42_base_point_zero_denominator",
                                  _set(R42, "germs", "origin", base_point=[0, "1/0"]),
                                  "ZeroDivisionError")),
    # a misspelled field would otherwise silently take its default: the
    # first row loads omega as the holomorphic form
    "unknown_keys_are_scenario_errors": _scenario_errors(COUNT, *(
        (id, doc, f"has unknown keys: {key}$") for id, doc, key in [
            ("form_z1_valuaton", _set(R43, "forms", omega={"z1_valuaton": -1}), "z1_valuaton"),
            ("document_point", _set(R43, point=[]), "point"),
            ("meta_algebraically_stabel", _set(R43, "meta", algebraically_stabel=True),
             "algebraically_stabel"),
            ("germ_basepoint", _set(R43, "germs", "origin", basepoint=[0, 0]), "basepoint"),
            ("action_picard", _set(R43, "action", picard=1), "picard"),
            ("h1trivial_action_delta", _set(R43, "action", delta=1), "delta"),
            ("curve_prime_periode", _set(R43, "curves", 0, prime_periode=2), "prime_periode"),
            ("witness_equation", _set(R43, "curves", 0, "witnesses", 0, equation="z1"),
             "equation"),
            ("point_declared", _set(R43, "points", 0, declared={"1": 1}), "declared"),
            ("recurrence_ofset", _set(CUBIC, "action", "h11_trace_recurrence", ofset=4),
             "ofset"),
            ("surd_f", _set(CUBIC, "action", "dynamical_degree", f=1), "f"),
            ("isolation_period", _set(CUBIC, "points", 0, isolation={
                "kind": "conditionally_isolated", "period": 2}), "isolation"),
            ("meta_algebraically_stable", _set(R43, "meta", algebraically_stable=True),
             "algebraically_stable"),
            ("point_isolation", _set(CUBIC, "points", 0, isolation={
                "kind": "conditionally_isolated", "secondary_period": 2}), "isolation"),
            # the recurrence is extended to whatever n is asked for
            ("explicit_traces_max_n", _set(CUBIC, "action", max_n=12), "max_n")])),
    "an_expression_that_is_not_a_string_names_its_map_or_germ": _scenario_errors(
        CLASSIFY,
        ("map_image_object", _MAP_OBJECT, _NOT_STRING.format("map 'f'")),
        ("map_image_list", _MAP_LIST, _NOT_STRING.format("map 'f'")),
        ("germ_image_list", _GERM_LIST, _NOT_STRING.format("germ 'u1'"))),
    # the field, then the parser's own text with its position
    "an_expression_that_does_not_parse_names_its_map": _scenario_errors(
        CLASSIFY, ("map_image_unparsed", _UNPARSED, _UNPARSED_MESSAGE)),
    "a_non_ascii_character_in_an_expression_names_its_map": _scenario_errors(
        CLASSIFY, ("map_image_superscript", _set(R42, "maps", f=["z1^²", "z2"]),
                   _exact("an image of map 'f' does not parse: "
                          "unexpected character '²' (at position 3)"))),
    # Fraction alone reads each of these, and would spend minutes building
    # 10^100000000 before the base point is found not to be fixed
    "a_rational_literal_is_an_ascii_integer_or_quotient": _scenario_errors(
        CLASSIFY, _literal("exponent", "1e100000000"), _literal("decimal", "0.5"),
        _literal("underscore", "1_000"), _literal("arabic_indic", "١٢")),
    # a key that writes n or i,j is an ASCII integer, as a rational literal
    # is: read by int() alone, "١" and "0_1" load as 1
    "a_numeric_key_is_an_ascii_integer": _scenario_errors(
        COUNT,
        *((id, _set(CUBIC, "points", 3, declared_index={key: 2}),
           "^a declared_index key of point 'v1' is not an integer: "
           + re.escape(repr(key)[:40]))
          for id, key in (("declared_index_arabic_indic", "١"),
                          ("declared_index_underscore", "0_1"),
                          ("declared_index_decimal", "1.0"),
                          ("declared_index_5000_digits", "1" * 5000))),
        ("trace_level_arabic_indic", _traces_instead({"١": {"0,0": 1, "1,1": 22, "2,2": 1}}),
         _exact("a level of the trace table is not an integer: '١'")),
        ("trace_index_arabic_indic", _traces_instead({"1": {"١,0": 1, "1,1": 22, "2,2": 1}}),
         _exact("an index of the trace table key '١,0' is not an integer: '١'"))),
    # classify reads no model, so without these refusals a malformed action
    # or unread curves and points would pass it; count refuses any document
    # without a model
    "a_present_action_is_read_and_curves_need_one": _scenario_errors(
        CLASSIFY,
        ("curves_junk_without_action",
         edited(R43, lambda d: d.pop("action") and d.update(curves="junk")),
         _exact("curves and points need an action")),
        ("curves_without_action", edited(R43, lambda d: d.pop("action") and None),
         _exact("curves and points need an action")),
        ("action_null", _set(R43, action=None),
         _exact("the action must be an object, not NoneType")),
        ("action_empty", _set(R43, action={}), _exact("unknown action mode None"))),
    # refused like a bad --n-range: no traceback, and no verdict over zero
    # checks on stdout
    "iterate_below_one_is_a_usage_error": [
        Row(f"argv{k}", None, argv, 2, "ScenarioError", "must be 1 or more")
        for k, argv in enumerate([
            ("index", "--fixture", R42, "--germ", "origin", "--n", "0"),
            ("index", "--fixture", R42, "--germ", "origin", "--n", "-3"),
            ("verify", "--fixture", R42, "--n-max", "0", "--format", "json"),
            ("verify", "--fixture", R42, "--n-max", "-1")])],
    "missing_input_is_usage_error": _scenario_errors(
        ("index",), ("index_without_input", None,
                     _exact("no input: give a scenario path or --fixture"))),
    "bad_scenario_path": _scenario_errors(
        ("classify", "/nonexistent/file.json"),
        ("classify_missing_file", None, "^cannot read scenario file: .*'/nonexistent/file.json'$")),
    "usage_refusals_name_their_cause": [
        *_scenario_errors(("lefschetz", "--fixture", CUBIC, "--n-range", "1-3"),
                          ("range_without_dots", None,
                           _exact("bad range '1-3', expected a..b"))),
        *_scenario_errors(("count", "SCENARIO", "--fixture", CUBIC, "--n-range", "1..2"),
                          ("path_and_fixture", _BOGUS_MODE,
                           _exact("give either a scenario path or --fixture, not both"))),
        *_scenario_errors(COUNT, ("unknown_action_mode", _BOGUS_MODE,
                                  _exact("unknown action mode 'bogus'")))],
    # neither may win silently: the table would make L(f) = 1001, not 24
    "a_trace_table_beside_the_recurrence_is_refused": _scenario_errors(
        LEFSCHETZ_1, ("traces_and_recurrence",
                      _set(CUBIC, "action", traces={"1": {"0,0": 1, "1,1": 999, "2,2": 1}}),
                      "'traces' and 'h11_trace_recurrence'")),
    "non_squarefree_dynamical_degree_is_a_scenario_error": _scenario_errors(
        LEFSCHETZ_1, ("d_20", {"action": {
            "mode": "explicit_traces", "picard_number": 1, "algebraically_stable": True,
            "traces": {"1": {"0,0": 1, "1,1": 3, "2,2": 1}},
            "dynamical_degree": {"a": 9, "b": 2, "d": 20}}},
            "discriminant must be a squarefree integer > 1")),
    # delta = 3 + sqrt(2) gives L(f) = 172/49 + 120/49*sqrt(2): a positive
    # surd component is written with its sign, as count_12_minus_8sqrt2's
    # negative one is
    "count_refusal_writes_each_surd_component_with_its_sign": _scenario_errors(
        COUNT, ("count_172_49_plus_120_49_sqrt2", torus({"a": 3, "b": 1, "d": 2}),
                re.escape("L(f^n) - sum of xi_k = 172/49 + 120/49*sqrt(2) is not"))),
    "count_rejects_type_one_fixture": [
        Row("remark43", None, ("count", "--fixture", R43, "--n-range", "1..2"), 1,
            "TypeICurvePresent",
            _exact("curve C is of type I; the counting identity does not apply"))],
    "index_on_a_scenario_without_germs": _scenario_errors(
        ("index", "SCENARIO"), ("maps_only", {"maps": {}}, _exact("scenario has no germs"))),
    "classify_an_unknown_germ_names_the_available_ones": _scenario_errors(
        ("classify", "--fixture", R43, "--germ", "nope"),
        ("nope", None, _exact("unknown germ 'nope'; available: minus_two, origin"))),
    # f^3 of (z2 + z1^16, z1) could reach degree 4096, above the bound 256
    "iterate_above_the_degree_bound_exits_1": [
        _precision("degree_4096", {"germs": {"g": {"images": ["z2 + z1^16", "z1"]}}},
                   ("index", "SCENARIO", "--germ", "g", "--n", "3"),
                   _exact("f^3 is out of reach: "
                          "f^3 may reach degree 4096, above the bound 256"))],
    # a refusal comes before the work: f^9 of remark42 and f^5 of cubic-d4's
    # u1 are refused from degrees alone
    "a_deep_iterate_is_refused_from_its_degree_alone": [
        _precision("remark42_origin_n9", None,
                   ("index", "--fixture", R42, "--germ", "origin", "--n", "9"),
                   re.escape("f^9 may reach degree 512, above the bound 256") + "$"),
        _precision("cubic_d4_u1_n5", None,
                   ("index", "--fixture", CUBIC, "--germ", "u1", "--n", "5"),
                   re.escape("f^5 may reach degree 1024, above the bound 256") + "$")],
    "n_above_the_iterate_bound_exits_1": [
        _precision("argv0", _DEGREE_TWO_FOR_EVERY_N, ("index", "SCENARIO", "--n", "1001"),
                   "^--n 1001 is out of reach"),
        _precision("argv1", _DEGREE_TWO_FOR_EVERY_N, ("verify", "SCENARIO", "--n-max", "1001"),
                   "^--n-max 1001 is out of reach")],
    "n_above_the_iterate_bound_is_refused_before_loading": [
        _precision("remark42_n_1001", None, ("index", "--fixture", R42, "--n", "1001"),
                   re.escape("--n 1001"))],
    # refused before any number is computed, like verify --n-max 1001
    "a_range_above_the_iterate_bound_exits_1": [
        _precision(command, None,
                   (command, "--fixture", R43, "--n-range", "1..10000", "--format", "json"),
                   _exact("range '1..10000' is out of reach: n runs up to 1000"))
        for command in ("lefschetz", "count")],
    # L(f^1000) = 2 + 100000^1000 has 5001 digits, above Python's 4300-digit
    # limit for writing an integer as text
    "a_value_too_long_to_print_exits_1": [
        _precision(fmt, _set(R43, "action", matrix=[[100000]]),
                   ("lefschetz", "SCENARIO", "--n-range", "1000..1000", "--format", fmt),
                   "^a value is too large to print: ")
        for fmt in ("json", "table")],
}


def argv_of(row: Row, directory) -> list[str]:
    """The row's argv, its document written to a file in directory."""
    path = Path(directory) / "scn.json"
    if row.doc is not None:
        path.write_text(json.dumps(row.doc), encoding="utf-8")
    return [str(path) if arg == "SCENARIO" else arg for arg in row.argv]


def check(row: Row, code: int, out: str, err: str) -> None:
    """Assert that a run of the row ended in its one error: the exit code,
    an empty stdout, and one stderr line, a JSON object whose only key is
    "error", with the row's kind and a message the pattern matches."""
    assert code == row.code, f"exit {code}, not {row.code}: {err}"
    assert out == "", f"stdout: {out}"
    lines = err.splitlines()
    assert len(lines) == 1, f"stderr is not one line: {err}"
    written = json.loads(lines[0])
    assert list(written) == ["error"], f"not an error object: {lines[0]}"
    error = written["error"]
    assert sorted(error) == ["kind", "message"], f"not a kind and a message: {error}"
    assert error["kind"] == row.kind, f"{error['kind']}, not {row.kind}: {error['message']}"
    assert re.search(row.pattern, error["message"]), \
        f"{row.pattern!r} not found in {error['message']!r}"
