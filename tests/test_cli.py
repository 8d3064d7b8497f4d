import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ellab import catalog
from ellab.cli import _COMMANDS, main
from ellab.correspondence import certificate_to_json, certify
from ellab.isogeny import closure, graph_to_json
from ellab.configs import parse_config
from ellab.product import parse_diagram

WORKED = "4,4,2,1,1 / 6,2,_,3,1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_tsv_golden(capsys):
    code, out, _ = run(capsys, "class", "3333")
    assert code == 0
    assert out == "3333\n9111\n1911\n1191\n1119\n"


def test_class_modes(capsys):
    code, out, _ = run(capsys, "class", "44211", "--mode", "catalog")
    assert code == 0
    assert out == "44211\n22422\n11811\n11244\n"
    code, out, _ = run(capsys, "class", "44211", "--mode", "combinatorial")
    assert len(out.splitlines()) == 8


def test_class_json_parity(capsys):
    code, out, _ = run(capsys, "class", "4422", "--json")
    assert code == 0
    assert out == graph_to_json(closure(parse_config("4422")))


def test_torsion_golden(capsys):
    code, out, _ = run(capsys, "torsion", "53211", "-p", "2")
    assert code == 0
    assert out == "No (MoveNonexistence)\n"


def test_torsion_json(capsys):
    code, out, _ = run(capsys, "torsion", "11811", "-p", "2", "--json")
    assert json.loads(out) == {"schema": 1, "answer": "Yes",
                               "provenances": ["CatalogTable"]}


def test_torsion_bad_input_exit_2(capsys):
    code, _, err = run(capsys, "torsion", "3332", "-p", "2")
    assert code == 2
    assert "error:" in err
    # an inadmissible partition on which two verdicts clash names them
    code, _, err = run(capsys, "torsion", "1137", "-p", "2")
    assert code == 2
    assert err == "error: 1137 p=2: both SufficientCriterion and MoveNonexistence fired\n"


def test_torsion_unsupported_prime_exit_2(capsys):
    code, _, err = run(capsys, "torsion", "3333", "-p", "7")
    assert code == 2


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert len(out.splitlines()) == len(catalog.EMBEDDED_ENTRIES)
    assert any("Gamma_1(6)" in line for line in out.splitlines())


def test_catalog_query(capsys):
    code, out, _ = run(capsys, "catalog", "6321")
    assert code == 0
    assert "(x-z)(x-t+2z)(x^2+t^2-z^2)" in out


def test_catalog_query_accepts_positioned_text(capsys):
    code, out, _ = run(capsys, "catalog", "6231")
    assert code == 0 and "Gamma_1(6)" in out


def test_catalog_miss_exit_1(capsys):
    code, _, err = run(capsys, "catalog", "7311")
    assert code == 1
    assert "no catalog entry" in err


@pytest.mark.parametrize("argv", [("catalog", ""), ("catalog", " "), ("catalog", "", "--json")])
def test_catalog_empty_partition_exit_2(capsys, argv):
    """An empty partition is malformed input, not a request for the whole
    catalog."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: empty configuration text\n")


def test_catalog_json_matches_export(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert out == catalog.export_catalog()


def test_product_golden(capsys):
    code, out, _ = run(capsys, "product", "44211", "6231", "--align", "1,2,4,5")
    assert code == 0
    assert out == WORKED + "\n"


def test_product_new_point(capsys):
    code, out, _ = run(capsys, "product", "3333", "4422", "--align", "1,2,3,_")
    assert code == 0
    assert out == "3,3,3,3,_ / 4,4,2,_,2\n"


def test_product_warns_on_shared_class(capsys):
    code, out, err = run(capsys, "product", "3333", "9111")
    assert code == 0
    assert "warning" in err


def test_product_json(capsys):
    code, out, _ = run(capsys, "product", "44211", "6231", "--align", "1,2,4,5", "--json")
    payload = json.loads(out)
    assert payload["pairs"] == [[4, 6], [4, 2], [2, 0], [1, 3], [1, 1]]


def test_kummer_golden(capsys):
    code, out, _ = run(capsys, "kummer", WORKED, "--delta", "2")
    assert code == 0
    assert out == (
        "points: P1 P2 P3 P4 P5\n"
        "fixed: 16 16 16 9 9\n"
        "nodes: 2\n"
        "euler: 20\n"
        "components: 9..10\n"
        "rationality: Forced\n"
        "equisingular_zero: true\n"
        "transversal_zero: true\n"
        "rigid: true\n")


def test_kummer_default_delta(capsys):
    code, out, _ = run(capsys, "kummer", "3,3,2,3,1 / 8,2,_,1,1", "--json")
    payload = json.loads(out)
    assert payload["node_count"] == 2
    assert payload["euler"] == 12


def test_kummer_default_delta_matches_certify(capsys):
    diagram = "3,3,3,3,_ / 4,4,1,1,2"
    code, out, _ = run(capsys, "kummer", diagram)
    assert code == 0
    assert "euler: 12\n" in out and "rigid: true\n" in out
    code, out, _ = run(capsys, "certify", diagram)
    assert code == 0
    assert "kind: RigidKummer\n" in out and "euler: 12\n" in out


def test_negative_delta_exit_2(capsys):
    for argv in (("kummer", WORKED, "--delta", "-40"), ("certify", WORKED, "--delta", "-5")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "node count must be non-negative" in err


def test_certify_worked_example(capsys):
    code, out, _ = run(capsys, "certify", WORKED)
    assert code == 0
    assert "kind: RigidKummer" in out
    assert "euler: 20" in out


def test_certify_json_parity(capsys):
    code, out, _ = run(capsys, "certify", WORKED, "--json")
    assert code == 0
    assert out == certificate_to_json(certify(parse_diagram(WORKED)))


def test_certify_not_certified_exit_1(capsys):
    code, out, _ = run(capsys, "certify", "3,3,3,2,1 / 3,3,3,_,3")
    assert code == 1
    assert "kind: NotCertified" in out


def test_certify_hypotheses_not_met_exit_2(capsys):
    code, _, err = run(capsys, "certify", "3,3,3,3 / 9,1,1,1")
    assert code == 2


def test_certify_too_few_fibers_exit_2(capsys):
    code, out, err = run(capsys, "certify", "6,6,_,_ / 3,3,3,3")
    assert code == 2
    assert out == ""
    assert err == "error: need at least 4 singular fibers, got 2\n"


def test_certify_text_shows_move_and_shared_class_warning(capsys):
    code, out, _ = run(capsys, "certify", "3,3,3,3,_ / 9,1,_,1,1")
    assert code == 0
    assert "move: left p=3 3333 -> 9111\n" in out
    assert ("warning: factors share an isogeny class; "
            "the constructions assume non-isogenous factors\n") in out


def test_certify_zero_delta_not_rigid_exit_1(capsys):
    code, out, _ = run(capsys, "certify", WORKED, "--delta", "0")
    assert code == 1
    reasons = [line for line in out.splitlines() if line.startswith("reason: kummer route")]
    assert reasons[0] == ("reason: kummer route 44211 x 6231: not rigid (euler 18, "
                          "components 9..10, Undetermined, equisingular_zero=True)")


def test_kummer_missing_node_flag_exit_2(capsys):
    code, out, err = run(capsys, "kummer", "8,2,1,1,_ / 3,_,3,3,3")
    assert code == 2
    assert out == ""
    assert err == "error: catalog records no node flag for point P2\n"


def test_product_bad_align_exit_2(capsys):
    for align, message in (("1,2", "--align needs one entry per right-factor position, got 2"),
                           ("1,x,3,_", "bad --align entry 'x'"),
                           ("1,9,3,_", "--align position 9 out of range")):
        code, out, err = run(capsys, "product", "4422", "6231", "--align", align)
        assert code == 2, align
        assert out == ""
        assert err == f"error: {message}\n"


def test_non_decimal_digits_exit_2(capsys):
    code, out, err = run(capsys, "torsion", "²²²²²²", "-p", "2")
    assert code == 2
    assert out == ""
    assert err == "error: not a digit string: '²²²²²²'\n"


@pytest.mark.parametrize("argv,message", [
    (("class", "٩,1,1,1"), "not a comma separated list of integers: '٩,1,1,1'"),
    (("class", "９111"), "not a digit string: '９111'"),
    (("product", "4422", "6231", "--align", "١,2,3,4"), "bad --align entry '١'"),
    (("certify", "+4,4,2,1,1 / 6,2,_,3,1"), "bad diagram cell '+4'"),
    (("certify", "4,4,2,1,1 / 6,2,_,3,0_1"), "bad diagram cell '0_1'"),
    (("kummer", "1_0,1,1,_ / 3,3,3,3"), "bad diagram cell '1_0'"),
])
def test_integers_take_ascii_digits_only(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2, argv
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("torsion", "3333", "-p", "٣"),
    ("torsion", "3333", "-p", "+3"),
    ("certify", WORKED, "--delta", "２"),
    ("kummer", WORKED, "--delta", "0_2"),
])
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n"


# Each accepted spelling of a command gives the stdout of its plain form.
@pytest.mark.parametrize("argv, plain", [
    (("class", "--mode", "catalog", "44211"), ("class", "44211", "--mode", "catalog")),
    (("class", "44211", "--mode=catalog"), ("class", "44211", "--mode", "catalog")),
    (("class", "44211", "--mo", "catalog"), ("class", "44211", "--mode", "catalog")),
    (("torsion", "-p2", "53211"), ("torsion", "53211", "-p", "2")),
    (("torsion", "53211", "-p=2", "--js"), ("torsion", "53211", "-p", "2", "--json")),
    (("torsion", "53211", "-p", "3", "-p", "2"), ("torsion", "53211", "-p", "2")),
    (("catalog", "--json", "4422"), ("catalog", "4422", "--json")),
    (("catalog", "--js"), ("catalog", "--json")),
    (("catalog", "--", "4422"), ("catalog", "4422")),
    (("product", "44211", "--align=1,2,4,5", "6231"),
     ("product", "44211", "6231", "--align", "1,2,4,5")),
    (("kummer", "--del", "2", WORKED), ("kummer", WORKED, "--delta", "2")),
    (("certify", WORKED, "--delta=2", "--j"), ("certify", WORKED, "--delta", "2", "--json")),
], ids=lambda value: " ".join(value))
def test_accepted_spellings_give_the_plain_forms_stdout(capsys, argv, plain):
    expected = run(capsys, *plain)
    assert expected[0] == 0 and expected[1]
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("argv, message", [
    (("frobnicate",), "argument command: invalid choice: 'frobnicate' (choose from 'catalog', "
                      "'torsion', 'class', 'product', 'kummer', 'certify')"),
    ((), "the following arguments are required: command"),
    (("torsion", "3333"), "the following arguments are required: -p"),
    (("torsion",), "the following arguments are required: config, -p"),
    (("class", "3333", "9111"), "unrecognized arguments: 9111"),
    (("class", "3333", "--bogus"), "unrecognized arguments: --bogus"),
    (("--json", "class", "3333"), "unrecognized arguments: --json"),
    (("class", "3333", "--mode", "gated"),
     "argument --mode: invalid choice: 'gated' (choose from 'combinatorial', 'catalog')"),
    (("torsion", "3333", "-p"), "argument -p: expected one argument"),
    (("torsion", "3333", "-p", "--json"), "argument -p: expected one argument"),
    (("product", "4422", "6231", "--align"), "argument --align: expected one argument"),
    (("class", "3333", "--json=yes"), "argument --json: ignored explicit argument 'yes'"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, first_line, helps", [
    (("--help",), "usage: ellab [-h] {catalog,torsion,class,product,kummer,certify} ...",
     ["Classify semi-stable elliptic fiber configurations", "list or query catalog entries",
      "certify a diagram against a rigid partner"]),
    (("-h",), "usage: ellab [-h] {catalog,torsion,class,product,kummer,certify} ...", []),
    (("certify", "-h"), "usage: ellab certify [-h] [--delta DELTA] [--json] diagram",
     ["node count for the Kummer route"]),
    (("torsion", "3333", "--he"), "usage: ellab torsion [-h] -p P [--json] config",
     ["-p P        prime, one of 2 3 5"]),
])
def test_help_goes_to_stdout_and_exits_0(capsys, argv, first_line, helps):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first_line
    assert "show this help message and exit" in out
    for text in helps:
        assert text in out


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_help_names_every_positional_and_option_of_its_row(capsys, name):
    """The help text is written out beside the table; it must name what
    the table's row reads."""
    _, positionals, options = _COMMANDS[name]
    code, out, _ = run(capsys, name, "--help")
    usage = out.splitlines()[0] + " "
    assert code == 0 and usage.startswith(f"usage: ellab {name} [-h] ")
    for positional in positionals:
        optional = positional.endswith("?")
        assert (f" [{positional[:-1]}] " if optional else f" {positional} ") in usage
    for flag, _, default in options:
        assert (f" {flag} " if default is ... else f" [{flag}") in usage
        assert f"\n  {flag}" in out
    assert f"\n    {name} " in run(capsys, "--help")[1]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ellab", "class", "3333"])
    assert main() == 0
    assert capsys.readouterr().out == "3333\n9111\n1911\n1191\n1119\n"


def test_module_entry_point():
    import os
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "ellab", "class", "5511"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "5511\n1155\n"


# What each command loads, as README's "What a command loads" lists it.
_BASE = {"ellab", "ellab.cli", "ellab.cmdline", "ellab.configs", "ellab.errors"}
_CATALOG = _BASE | {"ellab.catalog"}
_CLASS = _CATALOG | {"ellab.isogeny"}
_PRODUCT = _CLASS | {"ellab.product"}
_LOADS = [
    ("catalog", ["catalog", "4422"], 0, _CATALOG),
    ("class", ["class", "44211", "--mode", "catalog"], 0, _CLASS),
    ("torsion", ["torsion", "53211", "-p", "2"], 0, _CLASS | {"ellab.torsion"}),
    ("product", ["product", "44211", "6231", "--align", "1,2,4,5"], 0, _PRODUCT),
    ("kummer", ["kummer", WORKED], 0, _PRODUCT | {"ellab.kummer"}),
    ("certify", ["certify", WORKED, "--json"], 0,
     _PRODUCT | {"ellab.kummer", "ellab.correspondence"}),
    ("help", ["--help"], 0, _BASE),
    ("command help", ["certify", "-h"], 0, _BASE),
    ("malformed", ["torsion", "53211"], 2, _BASE),
    ("unknown command", ["frobnicate"], 2, _BASE),
    ("bad choice", ["class", "3333", "--mode", "x"], 2, _BASE),
]

# Run in a child under -S, so site's own imports stay out of the check.
_LOAD_PROBE = """\
import io, sys
import ellab.cli
bare = sorted({"argparse", "json", "dataclasses", "inspect", "ellab.cmdline"} & set(sys.modules))
sys.stdout = sys.stderr = io.StringIO()
code = ellab.cli.main()  # reads sys.argv; returns its exit code, help and usage errors too
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(code)
print(" ".join(bare))
print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "ellab")))
print(" ".join(sorted({"dataclasses", "inspect", "argparse", "gettext", "locale"}
                      & set(sys.modules))))
"""


@pytest.mark.parametrize("argv, code, modules", [case[1:] for case in _LOADS],
                         ids=[case[0] for case in _LOADS])
def test_cli_loads_only_what_the_command_runs(argv, code, modules):
    """A bare ``import ellab.cli`` loads neither argparse nor json (nor
    dataclasses, inspect and the command line reader); each command, help and usage errors included,
    then loads exactly its own modules, and never dataclasses, inspect,
    argparse, gettext or locale."""
    import os
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    result = subprocess.run([sys.executable, "-S", "-c", _LOAD_PROBE, *argv],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    exit_code, bare, loaded, heavy = result.stdout.split("\n")[:4]
    assert int(exit_code) == code
    assert bare == ""
    assert set(loaded.split()) == modules
    assert heavy == ""


def class_torsion_digest() -> str:
    """sha256 over argv, exit code, stdout and stderr of in-process
    ``main`` runs: ``class`` on all 1,981 compositions of 12 into at least
    four parts, in both modes, as text and ``--json``, and ``torsion`` on
    every composition at p = 2, 3 and 5, as text and ``--json``: 19,810
    commands."""
    import contextlib
    import io
    import itertools
    digest = hashlib.sha256()
    compositions = [",".join(str(b - a) for a, b in zip((0,) + cuts, cuts + (12,)))
                    for n in range(4, 13) for cuts in itertools.combinations(range(1, 12), n - 1)]
    assert len(compositions) == 1981
    commands = [["class", c, "--mode", mode, *json_flag] for c in compositions
                for mode in ("catalog", "combinatorial") for json_flag in ([], ["--json"])]
    commands += [["torsion", c, "-p", p, *json_flag] for c in compositions
                 for p in ("2", "3", "5") for json_flag in ([], ["--json"])]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(f"{' '.join(argv)}\0{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    assert len(commands) == 19810
    return digest.hexdigest()


# class_torsion_digest of the output of every class and torsion command
CLASS_TORSION_SHA256 = "049f4530dbb975fe7a9c26835dcc0eb1ed43468dfc2e9b0558ba23d02646d63c"


def test_class_and_torsion_outputs_are_pinned():
    assert class_torsion_digest() == CLASS_TORSION_SHA256


# p of the wrong type, each of which once left an entry behind in a prime-keyed cache
_POISON_PROBE = """\
from ellab.configs import parse_config
from ellab.errors import MalformedInput
from ellab.isogeny import candidate_moves, halved_sum
from ellab.torsion import sufficient_torsion_criterion, torsion_status
from test_cli import class_torsion_digest
for call, args in [(candidate_moves, (parse_config("9111"), 3.0)),
                   (torsion_status, (parse_config("3333"), 3.0)),
                   (sufficient_torsion_criterion, (parse_config("3333"), 3.0)),
                   (halved_sum, (2.0,)), (halved_sum, (True,))]:
    try:
        call(*args)
    except MalformedInput:
        continue
    raise SystemExit(f"{call.__name__}{args} did not raise MalformedInput")
print(class_torsion_digest())
"""


def test_a_wrong_type_prime_leaves_the_outputs_as_they_were():
    """In a fresh process, each call with a float or bool p raises
    MalformedInput, and the class and torsion outputs after them still give
    the pinned digest: no cache kept an entry from those calls."""
    import os
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(repo / "src"), str(repo / "tests")]))
    result = subprocess.run([sys.executable, "-c", _POISON_PROBE],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == CLASS_TORSION_SHA256 + "\n"
