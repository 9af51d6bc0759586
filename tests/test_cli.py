"""Workspace loading and the command-line front end.

Uses the two shipped fixture workspaces; malformed inputs are written to
tmp_path on the fly.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import fin2cat
from fin2cat import cli, laxalg
from fin2cat.cli import load, main, run
from fin2cat.errors import AxiomViolation, MalformedWord, ParseError, UnknownCommand
from fin2cat.fincat import make_fincat
from helpers import fresh_cli_parser, run_python

FIXTURES = os.path.join(os.path.dirname(fin2cat.__file__), "fixtures")
MONAD_FX = os.path.join(FIXTURES, "monad_on_2.json")
Z2_FX = os.path.join(FIXTURES, "z2_action.json")


def write(tmp_path, payload):
    p = tmp_path / "ws.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_load_monad_fixture():
    ws = load(MONAD_FX)
    assert set(ws.categories) == {"C2", "1"}
    assert set(ws.algebras) == {"idalg", "const1"}
    assert ws.algebras["idalg"].Z == ws.categories["C2"]
    assert "collapse" in ws.morphisms
    assert "Did" in ws.diagrams


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "ws.json"
    p.write_text("{not json")
    with pytest.raises(ParseError) as err:
        load(str(p))
    assert "line" in str(err.value)


def test_load_reports_section_and_name(tmp_path):
    path = write(
        tmp_path,
        {
            "categories": {
                "C": {
                    "objects": ["x"],
                    "morphisms": {},
                    "identities": {},
                    "compose": [],
                }
            }
        },
    )
    with pytest.raises(ParseError) as err:
        load(path)
    assert "categories.C" in str(err.value)


def test_load_rejects_unknown_section(tmp_path):
    path = write(tmp_path, {"widgets": {}})
    with pytest.raises(ParseError) as err:
        load(path)
    assert "widgets" in str(err.value)


def test_load_missing_reference_is_reference_error(tmp_path):
    path = write(
        tmp_path,
        {
            "universes": {"U": {"monoid": "nope", "seeds": [], "depth": 1}},
        },
    )
    with pytest.raises(ReferenceError) as err:
        load(path)
    assert "nope" in str(err.value)


def test_unknown_command_raises():
    ws = load(MONAD_FX)
    with pytest.raises(UnknownCommand):
        run(ws, "frobnicate", [])


def test_command_arg_reference_error():
    ws = load(MONAD_FX)
    with pytest.raises(ReferenceError):
        run(ws, "hom", ["ghost", "idalg"])


def test_validate_command_counts():
    ws = load(MONAD_FX)
    report = run(ws, "validate", [])
    assert set(report) == {"command", "status", "witnesses", "data", "trace"}
    assert report["status"] == "pass"
    assert report["data"]["categories"] == 2
    assert report["data"]["algebras"] == 2


def test_check_pseudomonad_command():
    ws = load(MONAD_FX)
    report = run(ws, "check-pseudomonad", ["U"])
    assert report["status"] == "pass" and report["witnesses"] == []


def test_hom_command_frozen_counts():
    ws = load(MONAD_FX)
    report = run(ws, "hom", ["idalg", "idalg", "lax"])
    assert report["data"]["object_count"] == 3
    assert report["data"]["morphism_count"] == 6
    assert report["data"]["objects"] == sorted(report["data"]["objects"])


def test_check_morphism_command():
    ws = load(MONAD_FX)
    report = run(ws, "check-morphism", ["collapse"])
    assert report["status"] == "pass"
    assert report["data"]["class"] == "strict"


def test_check_algebra_failure_reported():
    ws = load(Z2_FX)
    report = run(ws, "check-algebra", ["skew"])
    assert report["status"] == "fail"
    assert any("unit" in w for w in report["witnesses"])


def test_descent_commands_on_diagram(tmp_path):
    ws = load(MONAD_FX)
    lax = run(ws, "lax-descent", ["Did"])
    strict = run(ws, "descent", ["Did"])
    assert lax["data"]["object_count"] == 3
    assert lax["data"]["morphism_count"] == 6
    assert strict["data"]["object_count"] == 3
    # T_zy runs from source to target: const1 -> idalg has 3 lax morphisms
    # (2 pseudo), idalg -> const1 only 1
    with open(MONAD_FX) as fh:
        payload = json.load(fh)
    payload["diagrams"]["Dc"] = {"kind": "tzy", "source": "const1", "target": "idalg"}
    ws = load(write(tmp_path, payload))
    for command, counts in (("lax-descent", (3, 6)), ("descent", (2, 3))):
        data = run(ws, command, ["Dc"])["data"]
        assert (data["object_count"], data["morphism_count"]) == counts


def test_verify_prop_descent_command():
    ws = load(MONAD_FX)
    report = run(ws, "verify-prop-descent", ["idalg", "idalg"])
    assert report["status"] == "pass"
    assert report["data"]["lax"]["match"] is True
    assert report["data"]["pseudo"]["match"] is True


def test_build_tzy_command():
    ws = load(MONAD_FX)
    report = run(ws, "build-tzy", ["idalg", "const1"])
    assert report["status"] == "pass"
    assert report["data"]["D1_objects"] == 3
    assert report["data"]["D1_morphisms"] == 6


def test_normalize_2cell_command():
    ws = load(MONAD_FX)
    report = run(
        ws, "normalize-2cell", ["DeltaDotLax", "1", "d0,p0", "0:sig00"]
    )
    assert report["status"] == "pass"
    assert report["data"]["steps"] == [[0, "sig00"]]
    assert report["data"]["target"] == ["d0", "p1"]


def test_preorder_command_answers():
    ws = load(MONAD_FX)
    yes = run(ws, "preorder-leq", ["DeltaDotLax", "1", "", "d0,s0"])
    assert yes["status"] == "pass" and yes["data"]["answer"] == "Yes"
    no = run(ws, "preorder-leq", ["DeltaDotLax", "1", "d0,s0", ""])
    assert no["status"] == "undecided"
    assert no["data"]["answer"] == "NoWithinBudget"


def test_kleisli_command():
    ws = load(MONAD_FX)
    report = run(ws, "kleisli", ["const1"])
    assert report["data"]["object_count"] == 2
    assert report["data"]["morphism_count"] == 4


def test_strictify_command_and_budget():
    ws = load(MONAD_FX)
    report = run(ws, "strictify", ["const1"])
    assert report["status"] == "pass"
    assert report["data"]["object_count"] == 2
    assert report["data"]["morphism_count"] == 4
    assert report["trace"]
    starved = run(ws, "strictify", ["const1"], budget=0)
    assert starved["status"] == "undecided"


def test_verify_codescent_command():
    ws = load(MONAD_FX)
    report = run(ws, "verify-codescent", ["const1"], probes=["1", "C2"])
    assert report["status"] == "pass"
    assert report["data"]["probes"]["1"]["iso"] is True
    assert report["data"]["probes"]["C2"]["iso"] is True
    with pytest.raises(ReferenceError):
        run(ws, "verify-codescent", ["const1"], probes=["ghost"])
    with pytest.raises(ValueError):
        run(ws, "verify-codescent", ["const1"])


def test_a_repeated_probe_name_is_an_error(capsys):
    # the report is keyed by probe name, so "1,1" would run probe 1 twice
    # and report it once
    code = main(["verify-codescent", "--input", MONAD_FX, "const1", "--probes", "1,C2,1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["status"] == "error"
    assert report["data"] == {"error": "ValueError", "message": "probe '1' is named twice"}


def test_main_report_is_byte_stable(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["hom", "--input", MONAD_FX, "idalg", "idalg", "lax", "--out", str(out)]
    )
    first = capsys.readouterr().out
    assert code == 0
    assert first.endswith("\n")
    assert out.read_text() == first
    assert json.loads(first)["command"] == "hom"
    main(["hom", "--input", MONAD_FX, "idalg", "idalg", "lax"])
    assert capsys.readouterr().out == first
    # keys arrive sorted
    assert first == json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n"


def test_an_unwritable_out_file_is_an_error_report(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["validate", "--input", MONAD_FX, "--out", str(out)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["command", "data", "status", "trace", "witnesses"]
    assert report["status"] == "error"
    assert report["data"] == {
        "error": "FileNotFoundError",
        "message": "[Errno 2] No such file or directory: %r" % str(out),
    }
    assert not out.parent.exists()


def test_declared_diagrams_are_built_by_the_commands_that_read_them(
    monkeypatch, capsys
):
    # validate, kleisli and hom never read the diagram Did, so no command
    # but descent and lax-descent builds its levels; only the bottom one,
    # [C2, C2], is enumerated, as [T C2, C2] and [T^2 C2, C2] are views
    # over it
    built = []
    hom_cat = laxalg.hom_cat
    monkeypatch.setattr(
        laxalg, "hom_cat", lambda C, D: built.append(len(C.objects)) or hom_cat(C, D)
    )
    assert main(["validate", "--input", MONAD_FX]) == 0
    assert main(["kleisli", "--input", MONAD_FX, "const1"]) == 0
    assert built == []
    assert main(["hom", "--input", MONAD_FX, "idalg", "const1"]) == 0
    assert built == [2]  # [C2, C2]
    for command in ("descent", "lax-descent"):
        del built[:]
        assert main([command, "--input", MONAD_FX, "Did"]) == 0
        assert built == [2]
    capsys.readouterr()


def test_main_exit_codes(capsys):
    assert main(["validate", "--input", MONAD_FX]) == 0
    assert main(["check-algebra", "--input", Z2_FX, "skew"]) == 1
    assert (
        main(
            ["preorder-leq", "--input", MONAD_FX, "DeltaDotLax", "1", "d0,s0", ""]
        )
        == 2
    )
    capsys.readouterr()


def test_module_entry_point_reports_and_exits():
    # python -m fin2cat.cli runs main() and hands its exit code back
    src = os.path.dirname(os.path.dirname(fin2cat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "fin2cat.cli", "check-algebra", "--input", Z2_FX, "skew"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 1
    report = json.loads(done.stdout)
    assert report["command"] == "check-algebra"
    assert report["status"] == "fail"
    assert report["data"] == {"algebra": "skew"}
    assert any("unit" in w for w in report["witnesses"])
    assert done.stdout == json.dumps(
        run(load(Z2_FX), "check-algebra", ["skew"]), sort_keys=True, indent=2
    ) + "\n"


def test_z2_fixture_round_trip():
    ws = load(Z2_FX)
    assert run(ws, "check-pseudomonad", ["U2"])["status"] == "pass"
    assert run(ws, "check-algebra", ["swap"])["status"] == "pass"
    report = run(ws, "check-morphism", ["ident"])
    assert report["data"]["class"] == "strict"
    hom = run(ws, "hom", ["swap", "swap", "pseudo"])
    assert hom["data"]["object_count"] == 2
    assert hom["data"]["morphism_count"] == 2


def _run_cli(*args):
    return run_python("-m", "fin2cat.cli", *args)


def test_malformed_workspace_is_an_error_report(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    done = _run_cli("validate", "--input", str(p))
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert sorted(report) == ["command", "data", "status", "trace", "witnesses"]
    assert report["command"] == "validate"
    assert report["status"] == "error"
    assert report["data"]["error"] == "ParseError"
    assert "line 1" in report["data"]["message"]

    # a section that is no JSON object
    p.write_text('{"categories": []}')
    done = _run_cli("validate", "--input", str(p))
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert report["status"] == "error"
    assert report["data"] == {
        "error": "ParseError",
        "message": "section 'categories' must be a JSON object",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command, names"),
        (["--budget", "x", "validate"], "argument --budget: invalid int value: 'x'"),
        (["validate", "--bogus"], "unrecognized arguments: --bogus"),
        # a step that starts with a dash reads as an option
        (
            ["normalize-2cell", "DeltaDotLax", "1", "d0", "-1:sig00"],
            "unrecognized arguments: -1:sig00",
        ),
    ],
)
def test_usage_error_is_an_error_report(argv, message):
    done = _run_cli(*argv)
    assert done.returncode == 3
    assert done.stderr == ""
    assert json.loads(done.stdout) == {
        "command": None,
        "status": "error",
        "witnesses": [],
        "data": {"error": "ParseError", "message": message},
        "trace": [],
    }


def _main(argv):
    # main in-process: its exit code and its report
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize(
    "argv, value",
    [
        (["strictify", "--input", MONAD_FX, "const1", "--budget", "-1"], "-1"),
        (["preorder-leq", "DeltaDotLax", "1", "d0,p0", "d0,p1", "--budget", "-5"], "-5"),
        (["--budget=-1", "validate"], "-1"),
    ],
)
def test_a_negative_budget_is_a_usage_error(argv, value):
    # a negative budget once ran: strictify exited 2 undecided and
    # preorder-leq 0 Yes
    assert _main(argv) == (
        3,
        {
            "command": None,
            "status": "error",
            "witnesses": [],
            "data": {
                "error": "ParseError",
                "message": "argument --budget: must not be negative, got %r" % value,
            },
            "trace": [],
        },
    )
    # a budget of 0 is a budget
    code, report = _main(["validate", "--budget", "0"])
    assert (code, report["status"]) == (0, "pass")


@pytest.mark.parametrize("step", ["0sig00", "x:sig00", "0", "-1:sig00", ":sig00"])
def test_a_malformed_normalize_step_names_the_step_and_its_form(step):
    # "0sig00" once reported int()'s "invalid literal for int() with base
    # 10"; "-1:sig00" is reached after "--"
    argv = ["normalize-2cell", "DeltaDotLax", "1", "d0,p0", "--", step]
    code, report = _main(argv)
    assert code == 3
    assert report["command"] == "normalize-2cell"
    assert report["data"] == {
        "error": "MalformedWord",
        "message": "step %r is not of the form <position>:<cell>" % (step,),
    }
    with pytest.raises(MalformedWord):
        run(cli.Workspace(), "normalize-2cell", argv[1:4] + [step])


def _parsed(parser, argv):
    """The namespace a parser gives for argv, or its usage error."""
    try:
        return "namespace", vars(parser.parse_intermixed_args(argv))
    except ParseError as e:
        return "ParseError", str(e)


# argv pieces: a word is a command or a name, dash-led words included; an
# option comes with its value, joined by "=", or with none
_WORDS = st.sampled_from(
    ["validate", "normalize-2cell", "preorder-leq", "frobnicate", "DeltaDotLax",
     "1", "d0,p0", "0:sig00", "-1:sig00", "-5", "-x", "--", "", "a b"]
)
_VALUES = st.sampled_from(["0", "7", "-1", "x", "1.5", "", "ws.json", "1,C2", "-1:sig00"])
_OPTIONS = st.sampled_from(["--input", "--budget", "--probes", "--out", "--bud", "--bogus"])
_PIECES = st.one_of(
    _WORDS.map(lambda w: [w]),
    st.tuples(_OPTIONS, _VALUES).map(list),
    st.tuples(_OPTIONS, _VALUES).map(lambda ov: ["=".join(ov)]),
    _OPTIONS.map(lambda o: [o]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=8).map(lambda ps: [w for p in ps for w in p]))
@example([])  # a missing command
@example(["--budget", "3", "--input", "ws.json"])  # options only
@example(["--budget", "1", "preorder-leq", "--budget", "2", "a", "--out", "o", "b"])
@example(["normalize-2cell", "DeltaDotLax", "1", "d0", "-1:sig00"])
@example(["normalize-2cell", "DeltaDotLax", "--", "-1:sig00", "--budget", "2"])
def test_the_parser_parses_as_a_fresh_parser_does(argv):
    # cli._PARSER formats its usage line once, at import; a fresh parser
    # formats it on every parse: same namespaces, same usage errors, and
    # the parser is left as it was
    want = _parsed(fresh_cli_parser(), argv)
    assert _parsed(cli._PARSER, argv) == want
    assert _parsed(cli._PARSER, argv) == want
    if want[0] == "ParseError":
        # main reports it with no command; a parsed argv would run
        data = {"error": "ParseError", "message": want[1]}
        report = {"command": None, "status": "error", "witnesses": [], "data": data,
                  "trace": []}
        assert _main(argv) == (3, report)


def test_the_help_is_argparse_own():
    oracle = fresh_cli_parser()
    assert cli._PARSER.format_help() == oracle.format_help()
    assert cli._PARSER.format_usage() == oracle.format_usage()


def test_help_exits_zero_with_usage():
    done = _run_cli("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: fin2cat [-h] [--input INPUT]")
    assert done.stderr == ""


def test_unknown_command_is_an_error_report():
    done = _run_cli("frobnicate", "--input", MONAD_FX)
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert report["status"] == "error"
    assert report["data"] == {
        "error": "UnknownCommand",
        "message": "unknown command 'frobnicate'",
    }


def test_main_parses_every_call_alike(capsys):
    # the parser is built once; a usage error or --help leaves it as it was
    def usage(argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        out = capsys.readouterr()
        return err.value.code, out.out, out.err

    def misuse(argv):
        # a usage error is an error report, exit 3, not argparse's exit 2
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    first = usage(["--help"])
    assert first[0] == 0
    assert first[1].startswith("usage: fin2cat [-h] [--input INPUT]")
    assert "one of: build-tzy, check-algebra," in first[1]
    missing = misuse([])
    assert missing[0] == 3
    message = json.loads(missing[1])["data"]["message"]
    assert "the following arguments are required: command" in message
    assert main(["validate"]) == 0
    report = capsys.readouterr().out
    assert misuse(["--budget", "x", "validate"])[0] == 3
    assert usage(["--help"]) == first
    assert misuse([]) == missing
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == report


def test_main_reports_input_errors_with_exit_code_three(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["validate", "--input", missing]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["error"] == "FileNotFoundError"
    assert main(["check-algebra", "--input", MONAD_FX, "ghost"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["error"] == "ReferenceError"


# ---------------------------------------------------------------------------
# the trust boundary: every law that comes in from a workspace is proved


def _z2_action(images):
    """A functor spec T(Z2cat) -> Z2cat from the images of the pairs
    (g, f) of the monoid element g and the morphism f."""
    return {
        "on_objects": {"(e,*)": "*", "(s,*)": "*"},
        "on_morphisms": {"(%s,%s)" % gf: v for gf, v in images.items()},
    }


# e the unit, a.a = b, a.b = a, b.a = b, b.b = a: (a.a).a = b but a.(a.a) = a
_NONASSOC = [
    ["e", "e", "e"], ["e", "a", "a"], ["e", "b", "b"],
    ["a", "e", "a"], ["a", "a", "b"], ["a", "b", "a"],
    ["b", "e", "b"], ["b", "a", "b"], ["b", "b", "a"],
]
# functorial on each copy of Z2cat, but a(s, a(s, s)) = e while a(e, s) = s
_NOT_ASSOCIATIVE = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "e", ("s", "s"): "e"}
_BROKEN_INPUTS = {
    "category table": (
        "categories",
        "bad",
        {
            "objects": ["*"],
            "morphisms": {m: ["*", "*"] for m in "eab"},
            "identities": {"*": "e"},
            "compose": _NONASSOC,
        },
        "categories.bad: associativity fails on ('a', 'a', 'a')",
    ),
    "monoid": (
        "monoids",
        "bad",
        {"elements": ["e", "a", "b"], "unit": "e", "table": _NONASSOC},
        "monoids.bad: associativity fails on ('a', 'a', 'a')",
    ),
    "strict action, not functorial": (
        "algebras",
        "bad",
        {
            "universe": "U2",
            "carrier": "Z2cat",
            "kind": "strict",
            "action": _z2_action(
                {("e", "e"): "s", ("e", "s"): "s", ("s", "e"): "e", ("s", "s"): "s"}
            ),
        },
        "algebras.bad: identity of '(e,*)' not preserved",
    ),
    "strict action, not associative": (
        "algebras",
        "bad",
        {
            "universe": "U2",
            "carrier": "Z2cat",
            "kind": "strict",
            "action": _z2_action(_NOT_ASSOCIATIVE),
        },
        "algebras.bad: naturality square fails at '(s,(s,s))'",
    ),
    "lax algebra, zbar not natural": (
        "algebras",
        "bad",
        {
            "universe": "U2",
            "carrier": "Z2cat",
            "kind": "lax",
            "a": _z2_action(_NOT_ASSOCIATIVE),
            "zbar": {"(%s,(%s,*))" % (g, h): "e" for g in "es" for h in "es"},
            "zbar0": {"*": "e"},
        },
        "algebras.bad: naturality square fails at '(s,(s,s))'",
    ),
    "morphism, wrong fbar component": (
        "morphisms",
        "ident",
        {
            "source": "swap",
            "target": "swap",
            "f": {
                "on_objects": {"p": "p", "q": "q"},
                "on_morphisms": {"idp": "idp", "idq": "idq"},
            },
            "fbar": {"(e,p)": "idq", "(e,q)": "idq", "(s,p)": "idq", "(s,q)": "idp"},
        },
        "morphisms.ident: component at '(e,p)' must be a morphism 'p' -> 'p',"
        " got 'idq'",
    ),
    "diagram, target outside the source's universe": (
        "diagrams",
        "D",
        {"kind": "tzy", "source": "swap", "target": "one"},
        "diagrams.D: category is not a universe member",
    ),
    "category, one-element morphism boundary": (
        "categories",
        "bad",
        {
            "objects": ["x"],
            "morphisms": {"i": ["x"]},
            "identities": {"x": "i"},
            "compose": [["i", "i", "i"]],
        },
        "categories.bad: boundary of 'i' must be a list of 2 names, got ['x']",
    ),
    "category, morphisms given as a list": (
        "categories",
        "bad",
        {
            "objects": ["x"],
            "morphisms": [["i", "x", "x"]],
            "identities": {"x": "i"},
            "compose": [["i", "i", "i"]],
        },
        "categories.bad: morphisms must be a JSON object, got [['i', 'x', 'x']]",
    ),
    "diagram, unknown kind": (
        "diagrams",
        "D",
        {"kind": "tyz", "source": "swap", "target": "swap"},
        "diagrams.D: unknown diagram kind 'tyz'",
    ),
    "diagram, target carrier too shallow in the source's universe": (
        "diagrams",
        "D",
        {"kind": "tzy", "source": "one", "target": "tt"},
        "diagrams.D: T is undefined beyond the universe depth",
    ),
    "diagram, target algebra over another monoid": (
        "diagrams",
        "D",
        {"kind": "tzy", "source": "swap", "target": "pt"},
        "diagrams.D: functors not composable",
    ),
    "category, objects given as a string": (
        "categories",
        "bad",
        {
            "objects": "xy",
            "morphisms": {"i": ["x", "x"], "j": ["y", "y"]},
            "identities": {"x": "i", "y": "j"},
            "compose": [["i", "i", "i"], ["j", "j", "j"]],
        },
        "categories.bad: objects must be a list, got 'xy'",
    ),
    "category, morphism boundary given as a string": (
        "categories",
        "bad",
        {
            "objects": ["x"],
            "morphisms": {"i": "xx"},
            "identities": {"x": "i"},
            "compose": [["i", "i", "i"]],
        },
        "categories.bad: boundary of 'i' must be a list, got 'xx'",
    ),
    "category, compose row given as a string": (
        "categories",
        "bad",
        {
            "objects": ["x"],
            "morphisms": {"i": ["x", "x"]},
            "identities": {"x": "i"},
            "compose": ["iii"],
        },
        "categories.bad: compose row must be a list, got 'iii'",
    ),
    "monoid, duplicate elements": (
        "monoids",
        "bad",
        {"elements": ["e", "e"], "unit": "e", "table": [["e", "e", "e"]]},
        "monoids.bad: duplicate morphism identifiers",
    ),
    "monoid, elements given as a string": (
        "monoids",
        "bad",
        {
            "elements": "ea",
            "unit": "e",
            "table": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["a", "a", "a"]],
        },
        "monoids.bad: elements must be a list, got 'ea'",
    ),
    "monoid, table row given as a string": (
        "monoids",
        "bad",
        {
            "elements": ["e", "a"],
            "unit": "e",
            "table": [["e", "e", "e"], "eaa", ["a", "e", "a"], ["a", "a", "a"]],
        },
        "monoids.bad: table row must be a list, got 'eaa'",
    ),
    "universe, seeds given as a string": (
        "universes",
        "bad",
        {"monoid": "z2", "seeds": "C", "depth": 3},
        "universes.bad: seeds must be a list, got 'C'",
    ),
    "universe, fractional depth": (
        "universes",
        "bad",
        {"monoid": "z2", "seeds": ["P2"], "depth": 2.9},
        "universes.bad: depth must be an integer, got 2.9",
    ),
    "universe, depth given as true": (
        "universes",
        "bad",
        {"monoid": "z2", "seeds": ["P2"], "depth": True},
        "universes.bad: depth must be an integer, got True",
    ),
    "category, an object given as a number": (
        "categories",
        "bad",
        {
            "objects": ["x", 1],
            "morphisms": {"i": ["x", "x"]},
            "identities": {"x": "i"},
            "compose": [["i", "i", "i"]],
        },
        "categories.bad: objects must be a list of names, got ['x', 1]",
    ),
    "category, no composition table": (
        "categories",
        "bad",
        {"objects": ["x"], "morphisms": {"i": ["x", "x"]}, "identities": {"x": "i"}},
        "categories.bad: missing field compose",
    ),
    "strict action without its morphism part": (
        "algebras",
        "bad",
        {
            "universe": "U2",
            "carrier": "P2",
            "kind": "strict",
            "action": {"on_objects": {"(e,p)": "p"}},
        },
        "algebras.bad: missing field action.on_morphisms",
    ),
    "algebra, unknown kind": (
        "algebras",
        "bad",
        {"universe": "U2", "carrier": "P2", "kind": "weak"},
        "algebras.bad: unknown algebra kind 'weak'",
    ),
}
_ONE = {
    "objects": ["*"],
    "morphisms": {"id": ["*", "*"]},
    "identities": {"*": "id"},
    "compose": [["id", "id", "id"]],
}


def _discrete_iterate(k):
    """T^k(One) over z2, a discrete category, named and ordered as the
    universe names and orders it."""
    obj, mor = ["*"], ["id"]
    for _ in range(k):
        obj = ["(%s,%s)" % (g, o) for g in "es" for o in obj]
        mor = ["(%s,%s)" % (g, m) for g in "es" for m in mor]
    return obj, mor


def _discrete_spec(k):
    obj, mor = _discrete_iterate(k)
    return {
        "objects": obj,
        "morphisms": {m: [o, o] for o, m in zip(obj, mor)},
        "identities": dict(zip(obj, mor)),
        "compose": [[m, m, m] for m in mor],
    }


def _trivial_action(k):
    """z2 acting trivially on T^k(One): (g, x) goes to x."""
    obj, mor = _discrete_iterate(k)
    return {
        "on_objects": {"(%s,%s)" % (g, o): o for g in "es" for o in obj},
        "on_morphisms": {"(%s,%s)" % (g, m): m for g in "es" for m in mor},
    }


# entries a case adds to the workspace besides the broken one: a strict
# algebra on the terminal category One, in a universe of its own; the
# terminal category under the one-letter name a string of seeds spells;
# an algebra on a copy TT1 of T^2(One), a member of One's universe with
# no room for T^3(One); and the trivial action on P2 of the trivial monoid
_ALONGSIDE = {
    "diagram, target algebra over another monoid": {
        "monoids": {"triv": {"elements": ["e"], "unit": "e", "table": [["e", "e", "e"]]}},
        "universes": {"W": {"monoid": "triv", "seeds": ["P2"], "depth": 3}},
        "algebras": {
            "pt": {
                "universe": "W",
                "carrier": "P2",
                "kind": "strict",
                "action": {
                    "on_objects": {"(e,p)": "p", "(e,q)": "q"},
                    "on_morphisms": {"(e,idp)": "idp", "(e,idq)": "idq"},
                },
            }
        },
    },
    "universe, seeds given as a string": {"categories": {"C": _ONE}},
    "diagram, target carrier too shallow in the source's universe": {
        "categories": {"One": _ONE, "TT1": _discrete_spec(2)},
        "universes": {
            "U1": {"monoid": "z2", "seeds": ["One"], "depth": 3},
            "V": {"monoid": "z2", "seeds": ["TT1"], "depth": 2},
        },
        "algebras": {
            "one": {
                "universe": "U1",
                "carrier": "One",
                "kind": "strict",
                "action": _trivial_action(0),
            },
            "tt": {
                "universe": "V",
                "carrier": "TT1",
                "kind": "strict",
                "action": _trivial_action(2),
            },
        },
    },
    "diagram, target outside the source's universe": {
        "categories": {"One": _ONE},
        "universes": {"U1": {"monoid": "z2", "seeds": ["One"], "depth": 3}},
        "algebras": {
            "one": {
                "universe": "U1",
                "carrier": "One",
                "kind": "strict",
                "action": {
                    "on_objects": {"(e,*)": "*", "(s,*)": "*"},
                    "on_morphisms": {"(e,id)": "id", "(s,id)": "id"},
                },
            }
        },
    },
}


@pytest.mark.parametrize("case", sorted(_BROKEN_INPUTS))
def test_a_broken_law_from_the_workspace_is_an_error_report(case, tmp_path, capsys):
    section, name, spec, message = _BROKEN_INPUTS[case]
    with open(Z2_FX) as fh:
        payload = json.load(fh)
    for sec, entries in _ALONGSIDE.get(case, {}).items():
        payload[sec].update(entries)
    payload.setdefault(section, {})[name] = spec
    assert main(["validate", "--input", write(tmp_path, payload)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["data"] == {"error": "ParseError", "message": message}


def test_colliding_product_names_are_an_error_report(tmp_path, capsys):
    # T(S) = M x S names both (e, ",x") and ("e,", x) "(e,,x)"
    payload = {
        "categories": {
            "S": {
                "objects": ["x", ",x"],
                "morphisms": {"idx": ["x", "x"], "id,x": [",x", ",x"]},
                "identities": {"x": "idx", ",x": "id,x"},
                "compose": [["idx", "idx", "idx"], ["id,x", "id,x", "id,x"]],
            }
        },
        "monoids": {
            "M": {
                "elements": ["e", "e,"],
                "unit": "e",
                "table": [
                    ["e", "e", "e"], ["e", "e,", "e,"],
                    ["e,", "e", "e,"], ["e,", "e,", "e,"],
                ],
            }
        },
        "universes": {"U": {"monoid": "M", "seeds": ["S"], "depth": 1}},
    }
    assert main(["validate", "--input", write(tmp_path, payload)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["data"] == {
        "error": "ParseError",
        "message": "universes.U: product name '(e,,x)' names two pairs",
    }


def test_a_clash_past_the_first_iterate_is_an_error_report_at_load(tmp_path, capsys):
    # over M = {e, "e,(e"} the iterate T(P) of the one-point P prints its
    # pairs apart, and T^2(P) names both (e, "(e,(e,x)") and ("e,(e",
    # "(e,x)") "(e,(e,(e,x))".  validate reads no iterate: a monoid with
    # a comma has every member built at load, so the clash is still found
    g = "e,(e"
    payload = {
        "categories": {
            "P": {
                "objects": ["x"],
                "morphisms": {"idx": ["x", "x"]},
                "identities": {"x": "idx"},
                "compose": [["idx", "idx", "idx"]],
            }
        },
        "monoids": {
            "M": {
                "elements": ["e", g],
                "unit": "e",
                "table": [["e", "e", "e"], ["e", g, g], [g, "e", g], [g, g, g]],
            }
        },
        "universes": {"U": {"monoid": "M", "seeds": ["P"], "depth": 3}},
    }
    assert main(["validate", "--input", write(tmp_path, payload)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["data"] == {
        "error": "ParseError",
        "message": "universes.U: product name '(e,(e,(e,x))' names two pairs",
    }



# ---------------------------------------------------------------------------
# the workspace's shape is checked once, against cli._SCHEMA, before any
# constructor runs; a fault inside fin2cat is not a ParseError


def _json_type(v):
    return {
        type(None): "null",
        bool: "bool",
        int: "int",
        float: "float",
        str: "string",
        list: "list",
        dict: "object",
    }[type(v)]


_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3))
_OF_TYPE = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=4),
    "list": st.lists(_LEAF, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), _LEAF, max_size=3),
}
_FUNCTOR_FIELDS = ("t", "action", "a", "f")


def _spec_nodes(value, path):
    """(path, value) for every JSON node inside the spec at path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for k, v in items:
        yield path + (k,), v
        yield from _spec_nodes(v, path + (k,))


def _fixture_nodes():
    out = []
    for fixture in (MONAD_FX, Z2_FX):
        with open(fixture) as fh:
            raw = json.load(fh)
        for section, entries in raw.items():
            for name, spec in entries.items():
                out += [(raw, p, v) for p, v in _spec_nodes(spec, (section, name))]
    return out


_NODES = _fixture_nodes()


def _is_fixed_field(path):
    # a field of a spec, or on_objects/on_morphisms of a functor spec
    return len(path) == 3 or (len(path) == 4 and path[2] in _FUNCTOR_FIELDS)


@st.composite
def _mutations(draw):
    raw, path, value = draw(st.sampled_from(_NODES))
    ops = sorted(set(_OF_TYPE) - {_json_type(value)})
    if _is_fixed_field(path):
        ops.append("drop")
    op = draw(st.sampled_from(ops))
    new = None if op == "drop" else draw(_OF_TYPE[op])
    return raw, path, op, new


@settings(max_examples=400, deadline=None)
@given(case=_mutations())
def test_any_spec_node_of_another_json_type_or_dropped_is_a_parse_error(
    case, tmp_path_factory
):
    raw, path, op, new = case
    payload = copy.deepcopy(raw)
    parent = payload
    for k in path[:-1]:
        parent = parent[k]
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "--input", _write_scratch(tmp_path_factory, payload)])
    report = json.loads(out.getvalue())
    assert code == 3
    assert sorted(report) == ["command", "data", "status", "trace", "witnesses"]
    assert report["status"] == "error"
    assert report["data"]["error"] == "ParseError", report
    assert report["data"]["message"].startswith("%s.%s: " % path[:2]), report


def _write_scratch(tmp_path_factory, payload):
    # one file, rewritten for every example of the Hypothesis test above
    path = tmp_path_factory.getbasetemp() / "schema-fuzz.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_a_fault_inside_fin2cat_keeps_its_own_type(monkeypatch, capsys):
    def broken(**kw):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "make_fincat", broken)
    assert main(["validate", "--input", MONAD_FX]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["data"] == {"error": "KeyError", "message": "'boom'"}


def _category(**fields):
    spec = {
        "objects": ["x"],
        "morphisms": {"i": ["x", "x"]},
        "identities": {"x": "i"},
        "compose": [["i", "i", "i"]],
    }
    spec.update(fields)
    return {"categories": {"X": spec}}


def _fbar_as_pairs():
    with open(Z2_FX) as fh:
        payload = json.load(fh)
    fbar = payload["morphisms"]["ident"]["fbar"]
    payload["morphisms"]["ident"]["fbar"] = [list(kv) for kv in fbar.items()]
    return payload


# each loaded without complaint, and validate exited 0, before the shape
# of the workspace was checked
_SHAPE_FAULTS = [
    (
        _category(identities=[["x", "i"]]),
        "categories.X: identities must be a JSON object, got [['x', 'i']]",
    ),
    (
        _category(identities=["xi"]),
        "categories.X: identities must be a JSON object, got ['xi']",
    ),
    (
        _category(morphisms={"i": ["x", "x", "x"]}),
        "categories.X: boundary of 'i' must be a list of 2 names, got ['x', 'x', 'x']",
    ),
    (
        _fbar_as_pairs(),
        "morphisms.ident: fbar must be a JSON object, got [['(e,p)', 'idp'],"
        " ['(e,q)', 'idq'], ['(s,p)', 'idq'], ['(s,q)', 'idp']]",
    ),
]


@pytest.mark.parametrize("payload, message", _SHAPE_FAULTS)
def test_a_shape_fault_is_an_error_report_in_a_real_process(payload, message, tmp_path):
    done = _run_cli("validate", "--input", write(tmp_path, payload))
    assert done.returncode == 3
    assert done.stderr == ""
    report = json.loads(done.stdout)
    assert sorted(report) == ["command", "data", "status", "trace", "witnesses"]
    assert report["status"] == "error"
    assert report["data"] == {"error": "ParseError", "message": message}


_LIMIT_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from fin2cat.cli import main
t0 = time.perf_counter()
code = main(["validate", "--input", sys.argv[1]])
sys.stderr.write("%f" % (time.perf_counter() - t0))
sys.exit(code)
"""


def test_a_universe_past_the_limit_is_refused_before_it_is_built(tmp_path):
    # Z/2 on a one-morphism seed: 2^65 - 1 morphisms at depth 64; run in a
    # process of at most 512 MiB, so that a build fails the test instead
    # of exhausting the machine
    with open(Z2_FX) as fh:
        z2 = json.load(fh)["monoids"]["z2"]
    payload = {
        "categories": {"One": _ONE},
        "monoids": {"z2": z2},
        "universes": {"U": {"monoid": "z2", "seeds": ["One"], "depth": 64}},
    }
    done = run_python("-c", _LIMIT_CHILD, write(tmp_path, payload))
    assert done.returncode == 3
    assert json.loads(done.stdout)["data"] == {
        "error": "ParseError",
        "message": "universes.U: depth 64 makes a universe of more than 100000"
        " morphisms",
    }
    assert float(done.stderr) < 1.0


def test_an_empty_seed_still_counts_against_the_limit():
    empty = make_fincat(objects=[], morphisms=[], dom={}, cod={}, identity={}, compose={})
    M = laxalg.Monoid(["e"], "e", {("e", "e"): "e"})
    assert laxalg.universe_size(M, [("E", empty)], 3) == 4
    with pytest.raises(AxiomViolation) as err:
        laxalg.monoid_two_monad(M, [("E", empty)], 10**9)
    assert str(err.value) == (
        "depth 1000000000 makes a universe of more than 100000 morphisms"
    )


@pytest.mark.parametrize("fixture", [MONAD_FX, Z2_FX])
def test_universe_size_is_the_morphism_count_of_the_members_built(fixture):
    # no seed of either fixture is an iterate of another, so the count is
    # exact
    ws = load(fixture)
    with open(fixture) as fh:
        specs = json.load(fh)["universes"]
    for name, spec in specs.items():
        seeds = [(n, ws.categories[n]) for n in spec["seeds"]]
        M = ws.monoids[spec["monoid"]]
        built = sum(len(C.morphisms) for C in ws.universes[name].members)
        assert laxalg.universe_size(M, seeds, spec["depth"]) == built


def _z2_with(**sections):
    """The z2_action.json workspace with the given entries added to its
    sections."""
    with open(Z2_FX) as fh:
        payload = json.load(fh)
    for sec, entries in sections.items():
        payload[sec].update(entries)
    return payload


_EMPTY_CARRIER = {
    "categories": {"E": {"objects": [], "morphisms": {}, "identities": {}, "compose": []}},
    "universes": {"UE": {"monoid": "z2", "seeds": ["E", "P2"], "depth": 3}},
    "algebras": {
        "ea": {
            "universe": "UE",
            "carrier": "E",
            "kind": "strict",
            "action": {"on_objects": {}, "on_morphisms": {}},
        }
    },
    "diagrams": {"dE": {"kind": "tzy", "source": "ea", "target": "ea"}},
}


def test_an_empty_carrier_has_one_lax_morphism(tmp_path, capsys):
    # [E, E] for an empty E holds the empty functor and its identity, and
    # the empty functor with its empty fbar is the one lax morphism
    path = write(tmp_path, _z2_with(**_EMPTY_CARRIER))
    for argv in (["hom", "ea", "ea"], ["lax-descent", "dE"]):
        assert main([argv[0], "--input", path] + argv[1:]) == 0, argv
        data = json.loads(capsys.readouterr().out)["data"]
        assert (data["object_count"], data["morphism_count"]) == (1, 1), argv
    assert main(["verify-prop-descent", "--input", path, "ea", "ea"]) == 0
    one = {"hom_objects": 1, "hom_morphisms": 1, "descent_objects": 1, "descent_morphisms": 1, "match": True}
    assert json.loads(capsys.readouterr().out)["data"] == {"lax": one, "pseudo": one}


def test_algebras_over_different_monads_are_an_error_report(tmp_path, capsys):
    # swap is over Z/2 and pt over the trivial monoid, both on P2: T of P2
    # differs between their universes, so neither direction has a
    # diagram, and each command refuses the pair as the loader refuses
    # such a diagram
    path = write(tmp_path, _z2_with(**_ALONGSIDE["diagram, target algebra over another monoid"]))
    for command in ("hom", "verify-prop-descent", "build-tzy"):
        for pair in (["swap", "pt"], ["pt", "swap"]):
            assert main([command, "--input", path] + pair) == 3, (command, pair)
            report = json.loads(capsys.readouterr().out)
            assert report["status"] == "error"
            assert report["data"] == {
                "error": "BoundaryMismatch",
                "message": "functors not composable",
            }
