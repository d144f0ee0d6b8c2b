"""Span nesting, self-time arithmetic and wrapper restoration."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import spans  # noqa: E402


def ticking_clock(step=1.0):
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]
    return clock


def test_self_time_is_duration_minus_children():
    # root [0, 10] with children [1, 3] and [4, 9]; the second has [5, 6]
    recorded = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 3.0, 0, 0],
                ["b", 4.0, 9.0, 0, 0], ["c", 5.0, 6.0, 2, 0]]
    assert spans.self_times(recorded) == [3.0, 2.0, 4.0, 1.0]
    assert sum(spans.self_times(recorded)) == 10.0


def test_tracer_records_parents_and_requests():
    tracer = spans.Tracer(clock=ticking_clock())
    tracer.request = 7
    outer = tracer.open("outer")
    tracer.close(tracer.open("first"))
    inner = tracer.open("second")
    tracer.close(tracer.open("deep"))
    tracer.close(inner)
    tracer.close(outer)
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("first", 0, 7), ("second", 0, 7),
                     ("deep", 2, 7)]
    selfs = spans.self_times(tracer.spans)
    assert sum(selfs) == tracer.spans[0][2] - tracer.spans[0][1]
    assert all(s > 0 for s in selfs)


def test_close_ends_spans_left_open_inside():
    tracer = spans.Tracer(clock=ticking_clock())
    outer = tracer.open("outer")
    tracer.open("interrupted")
    tracer.close(outer)
    assert all(s[2] is not None for s in tracer.spans)
    tracer.open("left")
    tracer.unwind()
    assert all(s[2] is not None for s in tracer.spans)
    assert tracer.open("next") == 3 and tracer.spans[3][3] == -1


def test_merge_keeps_parent_links():
    a = [["x", 0, 2, -1, 0], ["y", 0.5, 1, 0, 0]]
    b = [["x", 5, 6, -1, 1], ["z", 5.1, 5.2, 0, 1]]
    merged = spans.merge([a, b])
    assert [s[3] for s in merged] == [-1, 0, -1, 2]


def test_layer_metrics_add_up_to_wall_time():
    recorded = [["germs.local_index", 1.0, 4.0, -1, 0],
                ["germs.decompose", 1.5, 3.0, 0, 0],
                ["polys.factor_list2", 2.0, 2.5, 1, 0],
                ["polys.factor_list2", 5.0, 5.5, -1, 1]]
    m = spans.layer_metrics(recorded, requests=2, wall_s=6.0)
    selfs = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    assert selfs + m["bench.unattributed_s"][0] == pytest.approx(6.0)
    assert m["germs.decompose_per_query"][0] == 0.5
    # only the factorization made inside the engine counts
    assert m["polys.factor_list2_per_decompose"][0] == 1.0
    assert m["polys.factor_list2.calls"][0] == 2
    assert m["oracle.shears_per_elimination"][0] == 0.0


def _bindings():
    """Every (owner, name) -> object for the wrapped names in germindex."""
    import germindex
    import germindex.cli  # noqa: F401

    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "germindex" or name.startswith("germindex.")):
            for key, value in vars(module).items():
                out[(name, key)] = value
    out[("Poly2", "compose")] = germindex.Poly2.__dict__["compose"]
    out[("Poly2", "shear_z2")] = germindex.Poly2.__dict__["shear_z2"]
    out[("Poly2", "exact_div")] = germindex.Poly2.__dict__["exact_div"]
    return out


def test_install_wraps_every_importer_and_restore_undoes_it():
    import germindex.cli
    import germindex.germs
    import germindex.oracle
    from germindex import MapGerm, Poly2

    before = _bindings()
    original_gcd = germindex.polys.gcd2
    tracer = spans.Tracer()
    bindings = spans.install(tracer)
    try:
        for module in (germindex, germindex.polys, germindex.germs, germindex.oracle):
            assert module.gcd2 is not original_gcd
        assert germindex.cli.local_index is not before[("germindex.germs", "local_index")]
        x, y = Poly2.variable(1), Poly2.variable(2)
        germ = MapGerm.from_polynomials(x * -2 - x * x - y, x)
        tracer.request = 0
        report = germindex.cli.local_index(germindex.cli.iterate(germ, 2))
        assert report.nu_A == 3
    finally:
        spans.restore(bindings)
    assert _bindings() == before
    by_index = tracer.spans
    names = {s[0] for s in by_index}
    assert {"germs.iterate", "polys.Poly2.compose", "germs.local_index",
            "germs.decompose", "polys.gcd2", "germs.delta"} <= names
    for name, _start, _end, parent, request in by_index:
        assert request == 0
        if name in ("germs.iterate", "germs.local_index"):
            assert parent == -1
        if name == "germs.decompose":
            assert by_index[parent][0] == "germs.local_index"
