import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurhopf
from schurhopf import hopf, schur, shapes, verifier, wow
from schurhopf.cli import _write_json, main
from schurhopf.shapes import connected_shapes, format_shape


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, name, module=schur):
    """The first arguments passed to module.<name>, recorded while the test runs."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda x, *args, **kw: calls.append(x) or fn(x, *args, **kw))
    return calls


class TestExpand:
    def test_skew(self, capsys):
        code, out, _ = run(capsys, "expand", "2,2/1")
        assert code == 0
        assert out.strip() == "s[2,1]"

    def test_two_boxes(self, capsys):
        code, out, _ = run(capsys, "expand", "2,1/1")
        assert code == 0
        assert out.strip() == "s[2] + s[1,1]"

    def test_single(self, capsys):
        code, out, _ = run(capsys, "expand", "1")
        assert code == 0
        assert out.strip() == "s[1]"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "expand", "2,2/1", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["schema"] == 1
        assert data["expansion"] == [{"coefficient": 1, "partition": [2, 1]}]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", "4,5")
        assert code == 2
        assert "error" in err

    def test_vars_oracle(self, capsys):
        code, out, _ = run(capsys, "expand", "1,1", "--vars", "2", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["monomials"] == [{"coefficient": 1, "exponents": [1, 1]}]

    @pytest.mark.parametrize("shape, k", [("0", "2"), ("2,2/2,2", "3")])
    def test_vars_empty_shape_is_one(self, capsys, shape, k):
        # s of the empty shape is the constant 1: a monomial with no variables
        code, out, _ = run(capsys, "expand", shape, "--vars", k)
        assert code == 0
        assert out.strip() == "1"


class TestVerify:
    def test_positive_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1")
        assert code == 0
        assert "equal: True" in out

    def test_counterexample_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--beta", "2,1", "--gamma", "8,7,2/3,1")
        assert code == 1
        assert "looseEnds=True" in out

    def test_single_box_beta(self, capsys):
        code, _, _ = run(capsys, "verify", "--beta", "1", "--gamma", "4,4,2,2/2,1")
        assert code == 0

    def test_strict_loose_ends_exit_3(self, capsys):
        code, _, err = run(
            capsys, "verify", "--beta", "2,1", "--gamma", "8,7,2/3,1", "--strict"
        )
        assert code == 3

    def test_no_structure_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--beta", "2,1", "--gamma", "2,2")
        assert code == 2

    def test_w_selector(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--beta", "2,1", "--gamma", "8,7,2/3,1", "--w", "1", "--json"
        )
        data = json.loads(out)
        assert code == 0  # the W=(1) structure has no loose ends and verifies
        assert data["structure"]["w"] == "1"
        assert data["equal"] is True

    def test_w_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "verify", "--beta", "2,1", "--gamma", "8,7,2/3,1", "--w", "9"
        )
        assert code == 2

    def test_corollary_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--corollary"
        )
        assert code == 0
        assert "equal: True" in out

    def test_trace_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--trace", "--json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["trace"]["balance"] is True
        assert data["trace"]["keySize"] == 5

    @pytest.mark.parametrize(
        "extra, reports", [((), 1), (("--corollary",), 2)], ids=["theorem", "corollary"]
    )
    def test_trace_builds_one_report(self, capsys, monkeypatch, extra, reports):
        # the trace holds the theorem's report, and verify prints that one;
        # only the corollary builds a report of its own beside it
        built = count_calls(monkeypatch, "_build_report", verifier)
        composed = count_calls(monkeypatch, "compose", wow)
        code, out, _ = run(
            capsys, "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--trace", "--json", *extra
        )
        assert code == 0 and json.loads(out)["trace"]["balance"] is True
        assert (len(built), len(composed)) == (reports, 2 * reports)

    def test_equal_h_report_expands_one_side(self, capsys, monkeypatch):
        # an equal report writes one h-image for both sides: schur_equal expands
        # the two transposed sides, to_json only the lhs
        calls = count_calls(monkeypatch, "h_expansion")
        code, out, _ = run(
            capsys, "verify", "--beta", "2,2,1", "--gamma", "4,3,3,2,2,2/2,2,1,1,1", "--json"
        )
        data = json.loads(out)
        assert code == 0 and data["equal"] is True
        assert len(calls) == 3
        assert data["lhs"]["basis"] == "h" and data["lhs"]["terms"]
        assert data["rhs"]["terms"] == data["lhs"]["terms"]

    @pytest.mark.parametrize("mode", [("--json",), ()], ids=["json", "text"])
    def test_equal_report_expands_one_side(self, capsys, monkeypatch, mode):
        # a side is expanded when first read, and an equal report's rhs is its lhs
        calls = count_calls(monkeypatch, "schur_expand")
        code, _, _ = run(capsys, "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", *mode)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("mode, renders", [((), 0), (("--json",), 1)], ids=["text", "json"])
    def test_json_rendered_only_under_json(self, capsys, monkeypatch, mode, renders):
        # text mode prints the verdict lines and builds no JSON payload
        calls = count_calls(monkeypatch, "to_json", verifier.Report)
        code, _, _ = run(capsys, "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", *mode)
        assert code == 0
        assert len(calls) == renders

    def test_trace_holds_nothing_after_return(self, capsys):
        # no h-image or LR expansion outlives the call that made it.  The
        # warm-up is another instance on the same code path, so that one-time
        # allocations are made before tracing and a cache would miss.
        run(capsys, "verify", "--beta", "1,1", "--gamma", "4,4,2,2/2,1", "--trace", "--json")
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            code, _, _ = run(
                capsys, "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--trace", "--json"
            )
            gc.collect()
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - start > 1 << 20  # the run itself allocates megabytes
        assert end - start < 64 << 10

    @pytest.mark.parametrize(
        "argv, bound_mb",
        [
            (("--beta", "2,2,1", "--gamma", "4,3,3,2,2,2/2,2,1,1,1", "--json"), 6.2),
            (("--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--trace", "--json"), 1.9),
        ],
        ids=["h-basis-report", "landmark-trace"],
    )
    def test_output_does_not_set_the_peak(self, monkeypatch, argv, bound_mb):
        # neither the h-kernel nor the JSON output may set a run's peak: the
        # tracemalloc peak of one run, stdout to devnull, measured 4.97 MB for
        # the 14,045-term h-basis report and 1.53 MB for the landmark trace,
        # and each bound is about 1.25 times that.  A kernel that keeps every
        # minor with output built as term dicts and one JSON string peaks at
        # 12.95 and 6.33 MB.  The warm-up makes the one-time allocations first
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            main(["verify", *argv])
            gc.collect()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                code = main(["verify", *argv])
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < bound_mb * (1 << 20)

    def test_json_bit_stable(self, capsys):
        _, out1, _ = run(capsys, "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--json")
        _, out2, _ = run(capsys, "verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--json")
        assert out1 == out2


class _TermList:
    """(partition, coefficient) pairs that stand for one JSON term list in a generated payload."""

    def __init__(self, pairs):
        self.pairs = pairs


def _with_terms(value, render):
    """value with each _TermList replaced by render(its pairs)."""
    if isinstance(value, _TermList):
        return render(value.pairs)
    if isinstance(value, dict):
        return {k: _with_terms(v, render) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_terms(v, render) for v in value]
    return value


def _term_dicts(pairs):
    return [{"partition": list(p), "coefficient": c} for p, c in pairs]


_json_text = st.text() | st.sampled_from(['"', "\\", "\n\t", "\x00\x1f", "é", "€", "\U0001f600", "a\u2028b"])
_term_lists = st.builds(_TermList, st.lists(st.tuples(
    st.lists(st.integers(1, 255), max_size=6).map(lambda p: tuple(sorted(p, reverse=True))),
    st.integers(-(10 ** 40), 10 ** 40)
    | st.builds(lambda x, d: f"{x}/{d}", st.integers(-999, 999), st.integers(2, 999)),
), max_size=5))
_payloads = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 80), 2 ** 80) | _json_text | _term_lists,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_json_text, children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_payloads)
def test_writer_is_json_dumps(payload):
    # the streamed text is json.dumps(..., sort_keys=True) of the same payload
    # with each term list as its dicts, byte for byte
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_json(_with_terms(payload, schur.terms_json))
    assert out.getvalue() == json.dumps(_with_terms(payload, _term_dicts), sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--trace", "--json"),
        ("search", "--max-size", "7", "--json"),
    ],
    ids=["landmark-trace", "search-7"],
)
def test_no_cell_route_to_classes(capsys, monkeypatch, argv):
    # classes and components come from lambda/eta/mu; the cell routes are
    # test references only, so no run may reach them
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    libs = [m for key, m in sys.modules.items() if key.startswith("schurhopf")]
    for module, name in ((hopf, "class_of_cells"), (shapes, "components_of_cells")):
        fn = getattr(module, name)
        for lib in libs:  # every module that bound the function by name
            if getattr(lib, name, None) is fn:
                monkeypatch.setattr(lib, name, counting(name, fn))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert calls == []


class TestSearch:
    def test_small_catalog(self, capsys):
        code, out, _ = run(capsys, "search", "--max-size", "4", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["schema"] == 1
        rows = data["instances"]
        assert len(rows) == 6  # four gammas of size 4, two of size 3
        assert all(r["equal"] for r in rows if r["hypothesesHold"])

    def test_line_structures_present_at_3(self, capsys):
        # the structure axioms hold literally for a row or column of three
        code, out, _ = run(capsys, "search", "--max-size", "3", "--json")
        data = json.loads(out)
        assert code == 0
        gammas = {r["gamma"] for r in data["instances"]}
        assert gammas == {"3", "1,1,1"}

    def test_every_theorem_instance_equal_size_7(self, capsys):
        code, out, _ = run(capsys, "search", "--max-size", "7", "--json")
        data = json.loads(out)
        assert code == 0
        assert all(r["equal"] for r in data["instances"] if r["hypothesesHold"])

    def test_size_9_includes_figure_instance(self, capsys):
        code, out, _ = run(capsys, "search", "--max-size", "9", "--json")
        data = json.loads(out)
        assert code == 0
        rows = data["instances"]
        landmark = [r for r in rows if r["gamma"] == "4,4,2,2/2,1"]
        assert landmark and all(r["equal"] and r["hypothesesHold"] for r in landmark)
        assert all(r["equal"] for r in rows if r["hypothesesHold"])

    def test_search_expands_nothing(self, capsys, monkeypatch):
        # search reads only verdicts, so no report expands a side
        calls = count_calls(monkeypatch, "schur_expand")
        code, _, _ = run(capsys, "search", "--max-size", "7", "--json")
        assert code == 0
        assert len(calls) == 0

    def test_bad_bounds_exit_2(self, capsys):
        code, _, err = run(capsys, "search", "--max-size", "0")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--beta", "0", "--gamma", "4,4,2,2/2,1"),
        ("expand", "2", "--vars", "-1"),
        ("search", "--max-size", "3", "--beta", "0"),
        # 3,3/1,1 is a translate of the partition 2,2, but beta must be given as one
        ("verify", "--beta", "3,3/1,1", "--gamma", "4,4,2,2/2,1"),
        ("search", "--max-size", "3", "--beta", "3,3/1,1"),
        # an empty beta is bad input before any hypothesis is weighed
        ("verify", "--beta", "0", "--gamma", "4,4,2,2/2,1", "--strict"),
        # zero variables is refused, not read as "no --vars"
        ("expand", "2", "--vars", "0"),
        ("verify", "--beta", "2,1", "--gamma", "2,1/1"),
    ],
)
def test_library_error_exit_2(capsys, argv):
    # a library error is bad input (2), never a traceback that reads as "differ" (1)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "gamma, code",
    [("4,4,2,2/2,1", 0), ("8,7,2/3,1", 1)],
    ids=["landmark", "counterexample"],
)
def test_trace_outside_theorem_reports_without_trace(capsys, gamma, code):
    # beta=3,1 is not a rectangle minus its corner: the report stands, the trace is skipped
    argv = ("verify", "--beta", "3,1", "--gamma", gamma)
    plain_code, plain_out, _ = run(capsys, *argv)
    traced_code, traced_out, err = run(capsys, *argv, "--trace")
    assert traced_out == plain_out
    assert traced_code == plain_code == code
    assert err.startswith("note: no proof trace: ") and err.count("\n") == 1
    strict_code, _, _ = run(capsys, *argv, "--trace", "--strict")
    assert strict_code == 3


@pytest.mark.parametrize(
    "extra, code, digest",
    [
        (
            ("--beta", "2,1", "--gamma", "4,4,2,2/2,1"),
            0,
            "8991f16b0c2e4804313ed9d3e396b22713a9435f3087e2105daf466faefee304",
        ),
        (
            ("--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--w", "1"),
            0,
            "dab7cea5cdf8fb1c7712dadd22d8e152a5ac83e482b15137803a4a4a1bdd2a4e",
        ),
        (
            ("--beta", "1", "--gamma", "4,4,2,2/2,1"),
            0,
            "2e2d04e21ef2bf7b5fac8485e66d910ab16d60a9804990de9e590560e612f92f",
        ),
        (
            ("--beta", "2,1", "--gamma", "8,7,2/3,1"),
            1,
            "931c46d86628062235ef07c335a1617a44aca1a08e90feddca71d3d8c1d3a405",
        ),
        (
            ("--beta", "2,1", "--gamma", "3,2/1"),
            0,
            "81ae78c45303a15c4d4ff85bcf589ef1ae8a98f3f81eea69b32e861bea762082",
        ),
        (
            ("--beta", "2,1", "--gamma", "3"),
            0,
            "3b9cbb3dedc9c4123bc0386ded5902b0c623699954c344c2f54c435a97543e86",
        ),
        (
            # 35 cells, beta 3,2: rows with many partner classes
            ("--beta", "3,2", "--gamma", "4,4,2,2/2,1"),
            0,
            "402761e57949936eb4ddb1cd629b93754195efe22ae88e22b0cce7ae00eca10b",
        ),
    ],
    ids=[
        "landmark-rr",
        "landmark-uu",
        "degenerate",
        "counterexample",
        "dependent-seeds",
        "equal-keys",
        "beta-3-2",
    ],
)
def test_trace_json_golden_digest(capsys, extra, code, digest):
    # the trace JSON is part of the output contract: pinned byte for byte
    got_code, out, _ = run(capsys, "verify", *extra, "--trace", "--json")
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (
            ("search", "--max-size", "8", "--json"),
            0,
            "b2c99760f1e78642c5d2fe92c6c0b8aac4db7e7db84fb49c878f20afd5bd29cc",
        ),
        (
            ("verify", "--beta", "2,2,1", "--gamma", "4,3,3,2,2,2/2,2,1,1,1", "--json"),
            0,
            "e78c27b0acbf75e8f66e3447218416470f563537371e06871bd59c6e44666a92",
        ),
        (
            ("search", "--max-size", "9", "--beta", "2,1", "--beta", "2,2", "--beta", "1",
             "--beta", "3,1", "--json"),
            0,
            "91c5dff9781f2ce5ad2cfb707a6facd3a5c054c0985264cb8f39340bb23b8702",
        ),
        (
            ("verify", "--beta", "3,2", "--gamma", "3,3,3,2/1,1,1", "--json"),
            1,
            "4a23b90078737398636cc93757a4b74a1072d2d4497575775c44390debe941f4",
        ),
        (
            ("verify", "--beta", "2,1", "--gamma", "8,7,2/3,1", "--json"),
            1,
            "bf0bc68e7fe5e6d9b9415e9c95bb3f3218056a1f827c7aef38ce3b17b3516649",
        ),
        (
            ("search", "--max-size", "10", "--json"),
            0,
            "e188f26304f8d1bab13c8440a28b11a7924b09c616a74b871a3e10e02fc63bb5",
        ),
    ],
    ids=[
        "search-8",
        "h-basis-report",
        "search-9-four-betas",
        "h-basis-differ",
        "h-basis-counterexample",
        "search-10",
    ],
)
def test_json_golden_digest(capsys, argv, code, digest):
    # search sweeps, an equal h-basis report and two differing ones (each side
    # rendered from its own image), pinned byte for byte
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@functools.cache
def _reference_rows(size, betas):
    """Rows of every gamma of this size, one gamma at a time, with no half-turn sharing."""
    rows = []
    for gamma in connected_shapes(size):
        for structure in wow.detect_wow(gamma):
            for beta in betas:
                report = verifier.verify_main_theorem(beta, structure)
                rows.append(
                    {
                        "gamma": format_shape(gamma),
                        "structure": structure.describe(),
                        "orientation": structure.orientation,
                        "keySize": structure.keys.size,
                        "looseEnds": structure.loose_ends.found,
                        "beta": list(beta),
                        "hypothesesHold": report.mode == "theorem",
                        "equal": report.equal,
                    }
                )
    return rows


_BETA_LISTS = [  # id, betas, largest size searched
    ("default", ("2,1",), 9),
    ("four-betas", ("2,1", "2,2", "1", "3,1"), 9),
    ("conjugate-pair", ("3,2", "2,2,1"), 8),
    ("conjugate-absent", ("3,2",), 8),
]


@pytest.mark.parametrize(
    "betas, max_size",
    [
        pytest.param(betas, n, id=f"{name}-{n}")
        for name, betas, largest in _BETA_LISTS
        for n in range(1, largest + 1)
    ],
)
@pytest.mark.usefixtures("memo_expansions")  # the loop expands each half-turn pair's image twice
def test_search_matches_per_gamma_loop(capsys, max_size, betas):
    # search derives the rows of a gamma's half-turn and transpose from its
    # own, the transpose's through the conjugate beta, listed or not; the
    # JSON must be the per-gamma loop's, byte for byte
    argv = ["search", "--max-size", str(max_size), "--json"]
    if betas != ("2,1",):
        argv += [arg for beta in betas for arg in ("--beta", beta)]
    code, out, _ = run(capsys, *argv)
    parsed = tuple(tuple(map(int, beta.split(","))) for beta in betas)
    rows = [row for n in range(1, max_size + 1) for row in _reference_rows(n, parsed)]
    rows.sort(key=lambda r: (r["gamma"], r["structure"], r["beta"]))
    payload = {"schema": 1, "maxSize": max_size, "instances": rows}
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_h_degree_bound_exit_2(capsys):
    # a 511-cell composition exceeds the h-basis degree bound: refused, not "differ"
    code, out, err = run(capsys, "verify", "--beta", "255", "--gamma", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: h-basis image of degree 511") and err.count("\n") == 1


def test_out_of_memory_exit_2(capsys, monkeypatch):
    # running out of memory is a refusal (2), never a traceback that reads as "differ" (1)
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(verifier, "proof_trace", exhausted)
    code, out, err = run(capsys, "verify", "--beta", "1", "--gamma", "4,4,2,2/2,1", "--trace")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "1000", "--vars", "1"),
        ("expand", "99999999999999999999"),
        ("expand", "3,1", "--vars", "99999999999999999999"),
    ],
    ids=["monomials", "row-past-index-range", "vars-past-index-range"],
)
def test_recursion_limit_exit_2(capsys, argv):
    # the monomial oracle recurses once per box, so a 1000-box row passes the
    # interpreter's limit, and a row length or variable count past the index
    # range cannot size a list: each is refused, not "differ"
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too large: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "3,,1"),
        ("expand", "-1"),
        ("expand", "1,2"),
        ("expand", "3/4"),
        ("expand", "1e3"),
        ("expand", "2", "--vars", "0"),
        ("verify", "--beta", "2,1", "--gamma", "1"),
        ("verify", "--beta", "0", "--gamma", "4,4,2,2/2,1"),
        ("verify", "--beta", "2,1", "--gamma", "4,4,2,2/2,1", "--w", "-1"),
        ("verify", "--beta", "200", "--gamma", "3"),
        ("search", "--max-size", "0"),
        ("search", "--max-size", "3", "--beta", "2/1"),
        ("expand", "99999999999999999999"),
        ("expand", "3,1", "--vars", "99999999999999999999"),
        ("verify", "--beta", "200", "--gamma", "3", "--json"),
    ],
)
def test_bad_input_process_contract(argv):
    # the whole process, as a shell sees it: exit 2, one error: line, no traceback
    src = os.path.dirname(os.path.dirname(schurhopf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "schurhopf.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert sum("error:" in line for line in proc.stderr.splitlines()) == 1


def test_long_row_expands(capsys):
    # the LR row transfer loops over rows and never recurses, so a 1000-box
    # row, once refused at the recursion limit, now expands
    code, out, err = run(capsys, "expand", "1000")
    assert (code, out, err) == (0, "s[1000]\n", "")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader goes away after `accept` characters; fileno() is a scratch file."""

    failure = BrokenPipeError(32, "Broken pipe")

    def __init__(self, fd, accept=0):
        super().__init__()
        self.fd = fd
        self.accept = accept

    def write(self, text):
        if len(text) > self.accept:
            raise self.failure
        self.accept -= len(text)
        return super().write(text)

    def fileno(self):
        return self.fd


class _ExhaustedPipe(_ClosedPipe):
    """A stdout that runs out of memory after `accept` characters."""

    failure = MemoryError()


# about 1.9 MB of JSON, so a stdout that fails after 1 MB fails mid-write
_LONG_OUTPUT = ["verify", "--beta", "2,2,1", "--gamma", "4,3,3,2,2,2/2,2,1,1,1", "--json"]


def test_closed_stdout_mid_write_exit_141(capsys, monkeypatch, tmp_path):
    # a partial stdout is no result: the exit code says so, and stderr stays quiet
    with open(tmp_path / "stdout", "w") as scratch:
        pipe = _ClosedPipe(scratch.fileno(), accept=1 << 20)
        monkeypatch.setattr(sys, "stdout", pipe)
        code = main(_LONG_OUTPUT)
    assert code == 141
    assert capsys.readouterr().err == ""
    assert 0 < len(pipe.getvalue()) <= 1 << 20


def test_out_of_memory_mid_write_exit_2(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as scratch:
        pipe = _ExhaustedPipe(scratch.fileno(), accept=1 << 20)
        monkeypatch.setattr(sys, "stdout", pipe)
        code = main(_LONG_OUTPUT)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert 0 < len(pipe.getvalue()) <= 1 << 20


def test_closed_stdout_exit_141(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as scratch:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(scratch.fileno()))
        code = main(["expand", "2,1"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_subprocess_exit_141():
    # the reader closes the pipe before the CLI writes: no traceback, exit 128 + SIGPIPE
    src = os.path.dirname(os.path.dirname(schurhopf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "schurhopf.cli", "search", "--max-size", "4", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def _pool_replays():
    """The benchmark's cheaper half of each verify list, and its landmarks.

    perfbench/pool.json pins each call's exit code and stdout SHA-256; the
    calls whose pinned cost is at most their list's median replay quickly.
    """
    pool = json.loads((Path(__file__).parents[1] / "perfbench" / "pool.json").read_text())
    entries = []
    for name in ("verify-cold", "trace"):
        median = statistics.median(e["cost_s"] for e in pool[name])
        entries += [e for e in pool[name] if e["cost_s"] <= median]
        entries += pool["landmarks"][name]
    return [pytest.param(e["args"], e["exit"], e["sha256"], id=" ".join(e["args"])) for e in entries]


@pytest.mark.parametrize("argv, code, digest", _pool_replays())
def test_benchmark_pool_replays(capsys, argv, code, digest):
    # the benchmark rejects any change of a pinned exit code or digest
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
