"""Exit codes and output contracts of the command-line front end."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordramsey.cli import EXIT_FAILED, EXIT_OK, EXIT_PARSE, EXIT_RESOURCE, main
from ordramsey.degrees import MAX_ANSWER_BITS, ResourceCapError, _pipeline
from ordramsey.ordinal import MAX_NESTING, parse
from ordramsey.typecalc import (
    enum_additive,
    enum_mult,
    enum_power,
    enum_product_types,
    enum_strict,
)


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "w*2 + 3", "--n", "2")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "T(2, w*2 + 3) [upper-bound] = 13"
        assert lines[1].startswith("  omega-times-m-table:")
        assert lines[2].startswith("  bound-add:")

    def test_exact_route(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "w*3", "--n", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "T(2, w*3) [exact] = 9"

    def test_infinite_and_unbounded(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "w^w", "--n", "2")
        assert "[infinite] = infinity" in out
        _, out, _ = run_cli(capsys, "classify", "w^w", "--n", "1")
        assert "[finite-unbounded] = finite (no value computed)" in out

    def test_json_model(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "w^2 + 1", "--n", "2", "--json")
        assert code == EXIT_OK
        model = json.loads(out)
        assert model["input"] == "w^2 + 1"
        assert model["n"] == 2
        assert model["result"]["kind"] == "upper-bound"
        rules = [s["rule"] for s in model["result"]["trace"]]
        assert rules[0] == "omega-times-m-table"
        assert rules[-1] == "bound-add"

    def test_json_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "classify", "w^2*2 + 3", "--n", "2", "--json")
        _, second, _ = run_cli(capsys, "classify", "w^2*2 + 3", "--n", "2", "--json")
        assert first == second

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "w^", "--n", "1")
        assert code == EXIT_PARSE
        assert err.startswith("parse error:")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("w*²", "expected a number (at position 2)"),
            ("²", "expected 'w' or a number (at position 0)"),
            ("w^²", "expected an exponent (at position 2)"),
        ],
    )
    def test_non_ascii_digits_are_parse_errors(self, capsys, text, message):
        # str.isdigit() takes '²', int() does not: the grammar reads ASCII digits only
        assert run_cli(capsys, "classify", text, "--n", "2") == (
            EXIT_PARSE,
            "",
            f"parse error: {message}\n",
        )

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    @pytest.mark.parametrize(
        "depth,code",
        [(MAX_NESTING, EXIT_OK), (MAX_NESTING + 1, EXIT_PARSE), (1200, EXIT_PARSE)],
    )
    def test_nesting_limit(self, capsys, depth, code, json_flag):
        nested = "w^(" * depth + "w" + ")" * depth
        got, _, err = run_cli(capsys, "classify", nested, "--n", "2", *json_flag)
        assert got == code
        assert "Traceback" not in err
        if code == EXIT_PARSE:
            assert err.startswith("parse error:")

    def test_resource_cap(self, capsys):
        code, _, err = run_cli(capsys, "classify", "w^2", "--n", "9")
        assert code == EXIT_RESOURCE
        assert err.startswith("resource cap:")


NINES = "9" * 1200

TOO_LARGE = [
    ("classify", f"w^2*{NINES}", "--n", "5"),
    ("classify", f"w*{NINES} + 3", "--n", "5", "--json"),
    ("classify", NINES, "--n", "5"),
    ("classify", "w^400", "--n", "5"),
    ("bound", "w^400", "--n", "5"),
    ("exact", "omega*m", "--n", "5000", "--m", "9"),
    ("exact", "omega*m", "--n", "1000000000", "--m", "9"),
    ("exact", "omega+m", "--n", "1000000000", "--m", "1000000000"),
    ("exact", "Z", "--n", "7001"),
    ("exact", "signed", "--n", "1000000000", "--signs", "+-"),
]


class TestAnswerCap:
    @pytest.mark.parametrize("argv", TOO_LARGE, ids=lambda argv: " ".join(argv)[:40])
    def test_too_large_answer_is_a_resource_cap(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource cap:")

    @pytest.mark.parametrize(
        "argv,value",
        [
            # 15^3500 is predicted at exactly the cap and has 4117 digits
            (("exact", "omega*m", "--n", "3500", "--m", "15"), 15**3500),
            (("classify", "w*15", "--n", "3500", "--cap", "3500"), 15**3500),
            # predicted at 14000 bits, while n = 7001 is refused
            (("exact", "Z", "--n", "7000"), 2**7000),
            # the largest answer the cap admits: 2^13999, 4215 digits
            (("exact", "omega+m", "--n", "13999", "--m", "13999"), 2 ** (MAX_ANSWER_BITS - 1)),
        ],
    )
    def test_answer_under_the_cap_prints(self, capsys, argv, value):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out.splitlines()[0].endswith(f"= {value}")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK
        model = json.loads(out)
        assert model.get("value", model.get("result", {}).get("value")) == value


class TestBound:
    def test_runs_pipeline_even_for_exact_family(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "w*3", "--n", "2")
        assert code == EXIT_OK
        assert "[upper-bound]" in out
        assert "subsum:" in out

    def test_out_of_scope(self, capsys):
        # finite ordinals have no pipeline route
        code, _, err = run_cli(capsys, "bound", "5", "--n", "2")
        assert code == EXIT_PARSE
        assert err.startswith("usage error:")


class TestExact:
    @pytest.mark.parametrize(
        "argv,line",
        [
            (("exact", "omega", "--n", "3"), "T(3, w) = 1"),
            (("exact", "omega+m", "--n", "2", "--m", "3"), "T(2, w + 3) = 7"),
            (("exact", "omega*m", "--n", "2", "--m", "3"), "T(2, w*3) = 9"),
            (("exact", "Z", "--n", "2"), "T(2, Z) = 4"),
        ],
    )
    def test_families(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out.strip() == line

    def test_signed(self, capsys):
        _, out, _ = run_cli(capsys, "exact", "signed", "--n", "2", "--signs", "+-")
        assert out.strip() == "T(2, w^(+) + w^(-)) = 4"

    def test_signed_all_negative(self, capsys):
        # argparse strips a lone "--" from option values
        code, out, _ = run_cli(capsys, "exact", "signed", "--n", "2", "--signs=--")
        assert code == EXIT_OK
        assert out.strip() == "T(2, w^(-) + w^(-)) = 4"
        argv = ("exact", "signed", "--n", "2", "--signs=--", "--json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 4

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "exact", "omega*m", "--n", "3", "--m", "2", "--json")
        assert json.loads(out) == {"family": "omega*m", "n": 3, "value": 8}


TOO_MUCH_WORK = [
    # about 8.4e7 power-rule subtractions; this took 44 s before the cap
    ("classify", "w^2", "--n", "500", "--cap", "1000"),
    ("bound", "w^2", "--n", "200", "--cap", "200"),
    # C(72, 6), about 1.6e8 embeddings
    ("witness", "strict", "--n", "6", "--m", "6", "--sizes", "12"),
    ("witness", "strict", "--n", "12", "--m", "6", "--sizes", "1"),
    ("witness", "additive", "--n", "1000000", "--m", "0", "--sizes", "2000000"),
    ("witness", "additive", "--n", "2", "--m", "1000000000", "--sizes", "1"),
    ("witness", "product", "--parts", "2,2", "--sizes", "1,100"),
    ("witness", "product", "--parts", "1000000000", "--sizes", "1"),
    ("types", "mult", "--n", "5000", "--m", "3", "--count-only"),
    # 1200 * 1200 binomials and 1200^2 / 2 subtractions, about 2.16e6 steps
    ("types", "product", "--parts", ",".join(["1"] * 1200), "--count-only"),
    ("types", "power", "--n", "100000", "--m", "7", "--count-only"),
    # 6^12 records to list
    ("types", "strict", "--n", "12", "--m", "6"),
    # one type or coloring each, but listing it recurses past the stack
    ("types", "mult", "--n", "1100", "--m", "1"),
    ("types", "product", "--parts", "1100"),
    ("witness", "product", "--parts", "1100", "--sizes", "1100"),
]


class TestWorkCap:
    @pytest.mark.parametrize("argv", TOO_MUCH_WORK, ids=lambda argv: " ".join(argv)[:40])
    def test_too_much_work_is_a_resource_cap(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("resource cap:")

    def test_power_rule_budget_admits_the_answer_cap(self):
        # w^214 at n = 5 sits at the answer cap, about 1.26e6 subtractions
        _pipeline(parse("w^214"), 5)
        _pipeline(parse("w^2"), 140)
        with pytest.raises(ResourceCapError):
            _pipeline(parse("w^2"), 200)

    def test_benchmark_witness_inputs_are_admitted(self, capsys):
        for family, top in (("additive", 4), ("strict", 3)):
            for n in range(1, 4):
                for m in range(1, top + 1):
                    argv = ["witness", family, "--n", str(n), "--m", str(m)]
                    code, _, _ = run_cli(capsys, *argv, "--sizes", f"{n},{n + 1}")
                    assert code == EXIT_OK
        for parts in ((1, 1), (2,), (1, 1, 1), (2, 1), (1, 2), (2, 2)):
            low = sum(parts)
            argv = ["witness", "product", "--parts", ",".join(map(str, parts))]
            assert run_cli(capsys, *argv, "--sizes", f"{low},{low + 1}")[0] == EXIT_OK


ENUMERATORS = {
    "additive": enum_additive,
    "mult": enum_mult,
    "strict": enum_strict,
    "power": enum_power,
}


class TestTypes:
    @pytest.mark.parametrize("family", sorted(ENUMERATORS))
    def test_count_only_matches_enumeration(self, capsys, family):
        for n, m in itertools.product(range(-1, 6), repeat=2):
            argv = ("types", family, "--n", str(n), "--m", str(m), "--count-only")
            try:
                expected = len(ENUMERATORS[family](n, m))
            except ValueError as exc:
                assert run_cli(capsys, *argv) == (EXIT_PARSE, "", f"usage error: {exc}\n")
            else:
                assert run_cli(capsys, *argv) == (EXIT_OK, f"{expected}\n", "")

    def test_product_count_only_matches_enumeration(self, capsys):
        for size in range(1, 4):
            for parts in itertools.product(range(4), repeat=size):
                if sum(parts) > 6:
                    continue
                argv = ("types", "product", "--parts", ",".join(map(str, parts)), "--count-only")
                try:
                    expected = len(enum_product_types(parts))
                except ValueError as exc:
                    assert run_cli(capsys, *argv) == (EXIT_PARSE, "", f"usage error: {exc}\n")
                else:
                    assert run_cli(capsys, *argv) == (EXIT_OK, f"{expected}\n", "")

    @pytest.mark.parametrize("n", ["0", "2"])
    def test_strict_count_only_needs_digit_words(self, capsys, n):
        # the listing's records carry words, so counting them refuses m > 10 alike
        for count_only in ((), ("--count-only",)):
            argv = ("types", "strict", "--n", n, "--m", "11", *count_only)
            assert run_cli(capsys, *argv) == (
                EXIT_PARSE,
                "",
                "usage error: digit words need at most 10 levels\n",
            )
        _, out, _ = run_cli(capsys, "types", "strict", "--n", n, "--m", "10", "--count-only")
        assert out == f"{10 ** int(n)}\n"

    def test_mult_listing_builds_only_the_levels_it_uses(self):
        # one point on one of 40 levels: the listing builds only the level set
        # a composition uses, never all 2^40 - 1; with 512 MB of address space
        # the child fails fast if it tries
        proc = subprocess.run(
            [sys.executable, "-m", "ordramsey", "types", "mult", "--n", "1", "--m", "40"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20,) * 2),
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        levels = [[int(l == k) for l in range(40)] for k in reversed(range(40))]
        assert records == [{"p": p, "blocks": [[0]]} for p in levels]

    def test_one_level_power_lists_one_tree(self, capsys):
        code, out, err = run_cli(capsys, "types", "power", "--n", "1200", "--m", "1")
        assert (code, err) == (EXIT_OK, "")
        assert [json.loads(line) for line in out.splitlines()] == [[[]] * 1200]

    def test_count_only_lists_nothing(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "types", "power", "--n", "12", "--m", "6", "--count-only")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_OK, f"{6 ** 11}\n")

    @pytest.mark.parametrize(
        "family,n,m,count",
        [("additive", 2, 3, 7), ("mult", 2, 2, 5), ("strict", 2, 2, 4), ("power", 3, 2, 4)],
    )
    def test_count_only(self, capsys, family, n, m, count):
        code, out, _ = run_cli(
            capsys, "types", family, "--n", str(n), "--m", str(m), "--count-only"
        )
        assert code == EXIT_OK
        assert out.strip() == str(count)

    @pytest.mark.parametrize("parts", [(400, 400, 400), (1,) * 300])
    def test_product_count_cap_predicts_the_work_done(self, capsys, parts):
        # N * len(parts) binomials plus N^2 / 2 subtractions: 723 600 and
        # 135 000 steps, both under the cap
        argv = ("types", "product", "--parts", ",".join(map(str, parts)), "--count-only")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert int(out) > 0

    def test_product_count(self, capsys):
        _, out, _ = run_cli(capsys, "types", "product", "--parts", "1,1", "--count-only")
        assert out.strip() == "3"

    def test_strict_records_carry_words(self, capsys):
        _, out, _ = run_cli(capsys, "types", "strict", "--n", "2", "--m", "2", "--json")
        records = json.loads(out)
        assert [r["word"] for r in records] == ["00", "01", "10", "11"]

    def test_jsonl_default(self, capsys):
        _, out, _ = run_cli(capsys, "types", "mult", "--n", "1", "--m", "2")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"p": [0, 1], "blocks": [[0]]},
            {"p": [1, 0], "blocks": [[0]]},
        ]

    def test_missing_flags(self, capsys):
        assert run_cli(capsys, "types", "product")[0] == EXIT_PARSE
        assert run_cli(capsys, "types", "additive", "--m", "2")[0] == EXIT_PARSE


class TestWitness:
    def test_strict_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "strict", "--n", "2", "--m", "2", "--sizes", "1,2"
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["sizes,palette,realized", "1,4,1", "2,4,4"]

    def test_additive_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "witness", "additive", "--n", "1", "--m", "1", "--sizes", "1"
        )
        assert out.splitlines() == ["sizes,palette,realized", "1,2,2"]

    def test_product_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "witness", "product", "--parts", "1,1", "--sizes", "4", "--json"
        )
        model = json.loads(out)
        assert model["family"] == "product"
        (row,) = model["rows"]
        assert row["palette"] == 3
        assert row["realized"] == 3
        assert row["colors"] == [0, 1, 2]

    def test_product_needs_parts(self, capsys):
        code, _, err = run_cli(capsys, "witness", "product", "--sizes", "3")
        assert code == EXIT_PARSE
        assert "parts" in err

    def test_bad_sizes(self, capsys):
        code, _, err = run_cli(
            capsys, "witness", "strict", "--n", "1", "--m", "1", "--sizes", "one"
        )
        assert code == EXIT_PARSE
        assert "sizes" in err

    @pytest.mark.parametrize("family", ["additive", "strict", "product"])
    def test_lone_dashes_sizes(self, capsys, family):
        # argparse strips a lone "--" option value unless the CLI keeps it
        code, out, err = run_cli(capsys, "witness", family, "--parts", "1", "--sizes=--")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "usage error: --sizes expects comma-separated integers\n"

    @pytest.mark.parametrize("family", ["additive", "strict", "product"])
    def test_negative_sizes(self, capsys, family):
        code, out, err = run_cli(capsys, "witness", family, "--parts", "1", "--sizes", "2,-1")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("usage error:")


class TestVerify:
    def test_small_sweep_green(self, verify_sweep):
        assert verify_sweep.code == EXIT_OK
        assert "mismatched" in verify_sweep.stdout.splitlines()[-1]
        assert " 0 mismatched" in verify_sweep.stdout.splitlines()[-1]

    def test_output_passes_the_benchmark_check(self, verify_sweep):
        # the benchmark's verify requests fail unless this check accepts them
        spec = importlib.util.spec_from_file_location(
            "bench_reference", ROOT / "bench" / "reference.py"
        )
        reference = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reference)
        assert verify_sweep.code == EXIT_OK
        assert reference._check_verify(verify_sweep.stdout)

    def test_fixed_sweep_takes_no_size_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "2"])
        assert exc.value.code == EXIT_PARSE

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_FAILED, EXIT_PARSE, EXIT_RESOURCE}) == 4


ODD_FLAGS = [
    *(
        ("witness", family, "--parts", "1", *sizes)
        for family in ("additive", "strict", "product")
        for sizes in (("--sizes=--",), ("--sizes", ","), ("--sizes", "0"), ("--sizes", "-1"))
    ),
    ("witness", "product", "--parts=--", "--sizes", "2"),
    ("witness", "product", "--parts", "0", "--sizes", "2"),
    ("witness", "strict", "--m", "0", "--sizes", "1"),
    ("witness", "additive", "--n", "-1", "--sizes", "1"),
    ("witness", "strict", "--n=--", "--sizes", "2"),
    ("types", "product", "--parts=--"),
    ("types", "product", "--parts", "0"),
    ("types", "product", "--parts", ""),
    ("types", "strict", "--m", "11"),
    ("types", "strict", "--n", "2", "--m", "11"),
    ("types", "strict", "--n", "2", "--m", "0"),
    ("types", "power", "--n", "0", "--m", "1"),
    ("types", "additive", "--n=--", "--m", "2"),
    ("exact", "omega*m", "--n", "2", "--m", "0"),
    ("exact", "omega+m", "--n", "2", "--m=--"),
    ("exact", "omega", "--n", "-1"),
    ("exact", "signed", "--n", "2", "--signs", ""),
    ("exact", "signed", "--n", "2", "--signs", "x"),
    ("classify", "w", "--n=--"),
    ("classify", "w^2", "--n", "2", "--cap=--"),
    ("bound", "w^2", "--n", "-1"),
    ("bound", "w^2", "--n", "2", "--cap", "0"),
    ("verify", "--n-max", "2"),
]


@pytest.mark.parametrize("argv", ODD_FLAGS, ids=" ".join)
def test_odd_flags_exit_without_traceback(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_RESOURCE)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ordramsey", "exact", "Z", "--n", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "T(1, Z) = 2"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_deep_nesting_exits_without_traceback(self, json_flag):
        nested = "w^(" * 1200 + "w" + ")" * 1200
        proc = subprocess.run(
            [sys.executable, "-m", "ordramsey", "classify", nested, "--n", "2", *json_flag],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("parse error:")


@st.composite
def types_and_witness_argv(draw):
    command = draw(st.sampled_from(["types", "witness"]))
    families = ["additive", "strict", "product"] + (["mult", "power"] if command == "types" else [])
    family = draw(st.sampled_from(families))
    n, m = draw(st.integers(-1, 3000)), draw(st.integers(-1, 4))
    parts = draw(st.lists(st.integers(0, 3000), max_size=3))
    # "--flag=value", so that argparse reads "-1" as a value, not an option
    argv = [command, family, f"--n={n}", f"--m={m}", f"--parts={','.join(map(str, parts))}"]
    if command == "witness":
        sizes = draw(st.lists(st.integers(-1, 3000), min_size=1, max_size=3))
        return argv + [f"--sizes={','.join(map(str, sizes))}"]
    return argv + draw(st.sampled_from([[], ["--count-only"], ["--json"]]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(types_and_witness_argv())
def test_types_and_witness_end_in_an_exit_code(argv):
    # no exception may escape; the output itself is checked elsewhere
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_RESOURCE)


# grammar atoms: whole monomials, the pieces of one, whitespace, and
# characters outside the grammar ("²" is a digit to str.isdigit, not to int)
MONOMIALS = ["w", "0", "1", "7", "w*3", "w^2", "w^4*2", "w^w", "w^(w + 1)", "w^(0)"]
ORDINAL_ATOMS = MONOMIALS + ["^", "*", "+", " + ", "(", ")", " ", "\t", "x", "-", "²"]


@st.composite
def degree_and_exact_argv(draw):
    command = draw(st.sampled_from(["classify", "bound", "exact"]))
    n = draw(st.integers(-2, 8))
    if command == "exact":
        family = draw(st.sampled_from(["omega", "omega+m", "omega*m", "Z", "signed"]))
        signs = draw(st.one_of(st.just("--"), st.text("+-", max_size=4), st.text("+-x ", max_size=3)))
        # "--flag=value", so that argparse reads "-1" and "--" as values
        argv = ["exact", family, f"--n={n}", f"--m={draw(st.integers(-2, 8))}", f"--signs={signs}"]
    else:
        text = draw(
            st.one_of(
                st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=4).map(" + ".join),
                st.lists(st.sampled_from(ORDINAL_ATOMS), max_size=10).map("".join),
            )
        )
        argv = [command, text, f"--n={n}"]
        if draw(st.booleans()):
            argv.append(f"--cap={draw(st.integers(-2, 8))}")
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(degree_and_exact_argv())
def test_classify_bound_and_exact_end_in_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_RESOURCE)
