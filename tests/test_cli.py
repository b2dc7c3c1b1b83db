"""End-to-end CLI behavior: JSON output and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import qobdd
from qobdd import cli, compiler, goodsets, polynomials, programs, verification
from qobdd.errors import _json_ints, _json_list
from qobdd.goodsets import sample
from qobdd.polynomials import mod_polynomial


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_goodset_command(capsys):
    code, payload = run_cli(
        capsys, ["goodset", "--epsilon", "0.25", "--modulus", "64", "--seed", "3"]
    )
    assert code == 0
    assert payload["t"] == 64
    assert len(payload["params"]) == 64
    assert all(0 <= int(k) < 64 for k in payload["params"])
    assert payload["verified"] is True


def test_goodset_verification_skipped_beyond_limit(capsys):
    code, payload = run_cli(
        capsys,
        [
            "goodset",
            "--epsilon",
            "0.5",
            "--modulus",
            str(2**21),
            "--seed",
            "0",
        ],
    )
    assert code == 0
    assert payload["verified"] == "skipped"


def test_goodset_determinism(capsys):
    argv = ["goodset", "--epsilon", "0.25", "--modulus", "64", "--seed", "5"]
    code_a, first = run_cli(capsys, argv)
    code_b, second = run_cli(capsys, argv)
    assert (code_a, code_b) == (0, 0)
    assert first == second


def test_build_and_eval_round_trip(capsys, tmp_path):
    out = tmp_path / "mod.json"
    code, _ = run_cli(
        capsys,
        [
            "build", "--function", "mod", "--n", "6", "--m", "3",
            "--epsilon", "0.2", "--seed", "0", "--out", str(out),
        ],
    )
    assert code == 0
    code, payload = run_cli(
        capsys, ["eval", "--program", str(out), "--input", "111000"]
    )
    assert code == 0
    assert payload["accept_probability"] == pytest.approx(1.0, abs=1e-9)
    assert payload["closed_form"] == pytest.approx(1.0, abs=1e-12)
    code, payload = run_cli(
        capsys, ["eval", "--program", str(out), "--input", "100000"]
    )
    assert code == 0
    assert payload["accept_probability"] < 0.2
    assert payload["closed_form"] == pytest.approx(
        payload["accept_probability"], abs=1e-6
    )


def test_eval_wrong_input_length_usage_error(capsys, tmp_path):
    out = tmp_path / "mod.json"
    run_cli(
        capsys,
        [
            "build", "--function", "mod", "--n", "5", "--m", "3",
            "--epsilon", "0.2", "--seed", "0", "--out", str(out),
        ],
    )
    code = cli.main(["eval", "--program", str(out), "--input", "10110110"])
    assert code == 2


def test_eval_rejects_non_binary_input(capsys, tmp_path):
    out = tmp_path / "mod.json"
    run_cli(
        capsys,
        [
            "build", "--function", "mod", "--n", "3", "--m", "3",
            "--epsilon", "0.2", "--seed", "0", "--out", str(out),
        ],
    )
    assert cli.main(["eval", "--program", str(out), "--input", "2x1"]) == 2


def test_build_sop_file(capsys, tmp_path):
    sop_path = tmp_path / "negation.json"
    sop_path.write_text(json.dumps({"n": 1, "products": [[1]]}))
    out = tmp_path / "program.json"
    code, _ = run_cli(
        capsys,
        [
            "build", "--function", "sop-file", "--file", str(sop_path),
            "--epsilon", "0.5", "--seed", "0", "--out", str(out),
        ],
    )
    assert code == 0
    # f = NOT x_1: sigma = 0 is accepted with certainty
    code, payload = run_cli(capsys, ["eval", "--program", str(out), "--input", "0"])
    assert payload["accept_probability"] == pytest.approx(1.0, abs=1e-9)


def test_build_sop_file_rejects_nonlinear(capsys, tmp_path):
    sop_path = tmp_path / "and.json"
    sop_path.write_text(json.dumps({"n": 2, "products": [[1, 2]]}))
    out = tmp_path / "program.json"
    code = cli.main(
        [
            "build", "--function", "sop-file", "--file", str(sop_path),
            "--epsilon", "0.5", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 2


def test_build_char_file(capsys, tmp_path):
    char_path = tmp_path / "characteristic.json"
    char_path.write_text(
        json.dumps(
            [
                {"m": "3", "n": 4, "coeffs": ["0", "1", "1", "1", "1"]},
                {"m": "3", "n": 4, "coeffs": ["0", "1", "1", "1", "1"]},
            ]
        )
    )
    out = tmp_path / "program.json"
    code, _ = run_cli(
        capsys,
        [
            "build", "--function", "char-file", "--file", str(char_path),
            "--epsilon", "0.25", "--seed", "0", "--out", str(out),
        ],
    )
    assert code == 0
    code, payload = run_cli(capsys, ["eval", "--program", str(out), "--input", "1110"])
    assert payload["accept_probability"] == pytest.approx(1.0, abs=1e-9)
    assert payload["closed_form"] == pytest.approx(1.0, abs=1e-12)
    # A zero (popcount 1, both residues 1) takes the generalized closed form.
    code, payload = run_cli(capsys, ["eval", "--program", str(out), "--input", "1000"])
    assert code == 0
    assert payload["accept_probability"] < 1.0
    assert payload["accept_probability"] == pytest.approx(payload["closed_form"], abs=1e-12)


def test_verify_command_passes(capsys):
    code, payload = run_cli(
        capsys,
        [
            "verify", "--function", "mod", "--m", "3", "--n", "10",
            "--epsilon", "0.2", "--seed", "1",
        ],
    )
    assert code == 0
    assert payload["pass"] is True
    assert payload["counts"] == {"ones": 341, "zeros": 683, "filtered": 0}
    assert payload["goodness"] == "exhaustive"


def test_verify_failing_report_exits_nonzero(capsys, monkeypatch):
    def failing_certify(*args, **kwargs):
        report, compilation = real_certify(*args, **kwargs)
        return (
            type(report)(**{**report.__dict__, "passed": False}),
            compilation,
        )

    real_certify = verification.certify_single
    monkeypatch.setattr(cli.verification, "certify_single", failing_certify)
    code = cli.main(
        ["verify", "--function", "mod", "--m", "3", "--n", "4", "--epsilon", "0.2"]
    )
    assert code == 1


def test_hsf_summary_and_sweep(capsys):
    code, payload = run_cli(
        capsys,
        ["hsf", "--cyclic", "4", "--subgroup-generator", "2", "--epsilon", "0.25"],
    )
    assert code == 0
    assert payload["cosets"] == [[0, 2], [1, 3]]
    assert payload["metrics"]["qubits"] == 7
    code, payload = run_cli(
        capsys,
        [
            "hsf", "--cyclic", "4", "--subgroup-generator", "2",
            "--epsilon", "0.25", "--seed", "0", "--sweep",
        ],
    )
    assert code == 0
    assert payload["pass"] is True


def test_hsf_cayley_file(capsys, tmp_path):
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"order": 4, "table": table, "subgroup": [0, 2]}))
    code, payload = run_cli(
        capsys, ["hsf", "--cayley-file", str(path), "--epsilon", "0.25"]
    )
    assert code == 0
    assert payload["index"] == 2


def test_hsf_requires_group_source():
    assert cli.main(["hsf", "--epsilon", "0.25"]) == 2


def test_report_command(capsys):
    code, payload = run_cli(capsys, ["report", "--epsilon", "0.25", "--seed", "0"])
    assert code == 0
    names = [row["function"] for row in payload]
    assert names == ["MOD_64", "EQ_4", "Palindrome_11", "PERM_3"]
    mod_row = payload[0]
    assert mod_row["quantum_width"] == 128
    assert mod_row["qubits"] == 7
    assert mod_row["length"] == 64
    assert mod_row["deterministic_obdd_width"] == "Omega(m)"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["build", "--function", "nonsense", "--epsilon", "0.2", "--out", "x"])
    assert excinfo.value.code == 2


def test_missing_required_n(capsys):
    code = cli.main(
        ["build", "--function", "mod", "--epsilon", "0.2", "--seed", "0", "--out", "/tmp/x.json"]
    )
    assert code == 2


def test_build_writes_only_the_recipe(capsys, tmp_path):
    out = tmp_path / "perm3.json"
    code, payload = run_cli(
        capsys,
        [
            "build", "--function", "perm", "--n", "3",
            "--epsilon", "0.2", "--seed", "3", "--out", str(out),
        ],
    )
    assert code == 0
    assert (payload["width"], payload["arity"]) == (256, 9)
    assert out.stat().st_size < 10_000
    data = json.loads(out.read_text())
    assert list(data) == ["fingerprint"]
    assert set(data["fingerprint"]) == {"kind", "polynomials", "goodset"}


def _dense_file() -> dict:
    """A program file as build wrote it before program files were recipes."""
    polynomial = mod_polynomial(4, 3)
    good_set = sample(0.2, 3, seed=2)
    return programs.program_to_json_dict(compiler.compile_single(polynomial, good_set).program)


def test_eval_reads_files_with_and_without_a_recipe(capsys, tmp_path):
    polynomial = mod_polynomial(4, 3)
    good_set = sample(0.2, 3, seed=2)
    recipe = compiler.recipe_to_json_dict(polynomial, good_set)
    files = {
        "recipe": {"fingerprint": recipe},
        "dense_and_recipe": {**_dense_file(), "fingerprint": recipe},
        "dense": _dense_file(),
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    for bits in ("0000", "1110", "1000", "1011"):
        outputs = {}
        for name in ("recipe", "dense_and_recipe"):
            code = cli.main(["eval", "--program", str(tmp_path / f"{name}.json"), "--input", bits])
            assert code == 0
            outputs[name] = capsys.readouterr().out
        assert outputs["dense_and_recipe"] == outputs["recipe"]
        assert json.loads(outputs["recipe"])["closed_form"] is not None
        # A file without a recipe is refused: the dense layout is no longer read.
        assert cli.main(["eval", "--program", str(tmp_path / "dense.json"), "--input", bits]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qobdd build" in captured.err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_needs_at_least_one_sample(capsys, samples):
    argv = ["verify", "--function", "mod", "--n", "4", "--m", "3", "--epsilon", "0.2",
            "--mode", "sampled", "--samples", samples]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1 sample" in captured.err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"dimension": 4}, "malformed program file"),
        ([1, 2], "JSON object"),
        (
            {
                "fingerprint": {
                    "kind": "bogus",
                    "polynomials": [{"m": "3", "n": 1, "coeffs": ["0", "1"]}],
                    "goodset": {"m": "3", "epsilon": 0.2, "params": ["1", "2"]},
                }
            },
            "bogus",
        ),
        ({"fingerprint": {"kind": "single"}}, "malformed program recipe"),
        (_dense_file(), "qobdd build"),
        ({"fingerprint": None}, "qobdd build"),
        (
            {
                "fingerprint": {
                    "kind": "single",
                    "polynomials": [{"m": "3", "n": 1, "coeffs": ["0", "1"]}],
                    "goodset": {"m": "3", "epsilon": 0.2, "params": "12"},
                }
            },
            "malformed program recipe",
        ),
    ],
)
def test_eval_malformed_program_file_is_a_usage_error(capsys, tmp_path, data, message):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(data))
    assert cli.main(["eval", "--program", str(path), "--input", "1"]) == 2
    assert message in capsys.readouterr().err


def test_eval_rejects_a_recipe_smaller_than_its_epsilon_needs(capsys, tmp_path):
    # One parameter where epsilon 0.01 over Z_3 needs 512: the zero 10 of
    # x_1 + x_2 = 0 (mod 3) would be accepted with probability 0.25.
    recipe = {
        "kind": "single",
        "polynomials": [{"m": "3", "n": 2, "coeffs": ["0", "1", "1"]}],
        "goodset": {"m": "3", "epsilon": 0.01, "params": ["1"]},
    }
    path = tmp_path / "program.json"
    path.write_text(json.dumps({"fingerprint": recipe}))
    assert cli.main(["eval", "--program", str(path), "--input", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1 parameters" in captured.err and "512" in captured.err


def test_build_sop_file_rejects_repeated_products(capsys, tmp_path):
    sop_path = tmp_path / "twice.json"
    sop_path.write_text(json.dumps({"n": 1, "products": [[1], [1]]}))
    out = tmp_path / "program.json"
    code = cli.main(
        [
            "build", "--function", "sop-file", "--file", str(sop_path),
            "--epsilon", "0.5", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 2
    assert "repeats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "verify"])
def test_size_budget_is_checked_before_sampling(capsys, tmp_path, command):
    # t = 4,194,304 parameters: over the sampling budget (build) and, with
    # 512 MiB of stacks alone, over the size budget (verify).
    argv = [command, "--function", "mod", "--n", "4", "--m", "3", "--epsilon", "1e-6"]
    out = tmp_path / "program.json"
    if command == "build":
        argv += ["--out", str(out)]
    start = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--function", "eq", "--n", "15000", "--epsilon", "0.2"],
        ["hsf", "--cyclic", "1500", "--subgroup-generator", "750"],
    ],
    ids=["eq-15000", "hsf-z1500"],
)
def test_a_modulus_past_the_digit_limit_is_refused_by_the_sampling_budget(capsys, tmp_path, argv):
    # Both moduli are 2^15000 (1500 blocks of 10 bits for the HSF), so t =
    # 131,072 parameters.  The message names the modulus by its bit length:
    # its 4,516 digits are past the int-to-str conversion limit.
    out = tmp_path / "program.json"
    code = cli.main(argv + (["--out", str(out)] if argv[0] == "build" else []))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "15001-bit modulus" in captured.err and "sampling budget" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["goodset", "--modulus", "5"],
        ["verify", "--function", "mod", "--m", "3", "--n", "8"],
        ["build", "--function", "perm", "--n", "3", "--out", "program.json"],
        ["hsf", "--cyclic", "4", "--subgroup-generator", "2"],
        ["report"],
    ],
    ids=["goodset", "verify", "build", "hsf", "report"],
)
def test_a_subnormal_error_rate_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # (2/eps) ln 2m is infinite past eps of about 1e-308, so no set size fits.
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--epsilon", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "float" in captured.err
    assert not (tmp_path / "program.json").exists()


def test_eval_refuses_a_recipe_with_a_subnormal_error_rate(capsys, tmp_path):
    def edit(recipe):
        recipe["goodset"]["epsilon"] = 5e-324

    assert cli.main(["eval", "--program", _recipe_file(tmp_path, edit), "--input", "1110"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "float" in captured.err


@pytest.mark.parametrize("command", ["sop-file", "goodset"])
def test_expansion_and_sampling_budgets_are_usage_errors(capsys, tmp_path, command):
    # 2^30 signed monomials from one SOP product, and t = 2^32 parameters.
    if command == "sop-file":
        path = tmp_path / "sop.json"
        path.write_text(json.dumps({"n": 30, "products": [list(range(-1, -31, -1))]}))
        argv = ["build", "--function", "sop-file", "--file", str(path), "--epsilon", "0.2",
                "--out", str(tmp_path / "program.json")]
    else:
        argv = ["goodset", "--epsilon", "1e-9", "--modulus", "3"]
    start = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err
    assert not (tmp_path / "program.json").exists()


def test_huge_sop_arity_is_refused_before_the_modulus_is_formed(capsys, tmp_path, monkeypatch):
    # sop_to_polynomial forms 2^n: at n = 4e9 that alone runs out of memory.
    def entered(sop):
        raise AssertionError("sop_to_polynomial was called")

    monkeypatch.setattr(polynomials, "sop_to_polynomial", entered)
    path = tmp_path / "sop.json"
    path.write_text(json.dumps({"n": 4_000_000_000, "products": [[1]]}))
    out = tmp_path / "program.json"
    argv = ["build", "--function", "sop-file", "--file", str(path), "--epsilon", "0.2",
            "--out", str(out)]
    start = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sampling budget" in captured.err
    assert not out.exists()


_Z4_TABLE = [[(a + b) % 4 for b in range(4)] for a in range(4)]


@pytest.mark.parametrize(
    "command, data",
    [
        ("sop-file", {"products": [[1]]}),
        ("sop-file", {"n": 1, "products": [1]}),
        ("char-file", [{"m": "3"}]),
        ("char-file", []),
        ("cayley-file", {"table": [[0]]}),
        # Strings where lists belong, which iteration would read one
        # character at a time.
        ("sop-file", {"n": 2, "products": ["12"]}),
        ("char-file", [{"m": "3", "n": 2, "coeffs": "011"}]),
        ("cayley-file", {"table": [[0, 1], [1, 0]], "subgroup": "0"}),
        # An order key, when present, is an integer equal to the row count.
        ("cayley-file", {"order": 5, "table": _Z4_TABLE, "subgroup": [0, 2]}),
        ("cayley-file", {"order": "four", "table": _Z4_TABLE, "subgroup": [0, 2]}),
    ],
    ids=[
        "sop-missing-n",
        "sop-flat-products",
        "char-missing-keys",
        "char-empty",
        "cayley-no-subgroup",
        "sop-string-product",
        "char-string-coeffs",
        "cayley-string-subgroup",
        "cayley-wrong-order",
        "cayley-string-order",
    ],
)
def test_malformed_input_files_are_usage_errors(capsys, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if command == "cayley-file":
        argv = ["hsf", "--cayley-file", str(path)]
    else:
        argv = ["build", "--function", command, "--file", str(path), "--epsilon", "0.5",
                "--out", str(tmp_path / "program.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed ")
    assert str(path) in captured.err


@pytest.mark.parametrize("command", ["eval", "sop-file", "char-file", "cayley-file"])
def test_input_files_nested_too_deeply_are_usage_errors(capsys, tmp_path, command):
    # Deeper than the JSON decoder recurses: malformed input, not a failed
    # verification.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    if command == "eval":
        argv = ["eval", "--program", str(path), "--input", "1"]
    elif command == "cayley-file":
        argv = ["hsf", "--cayley-file", str(path)]
    else:
        argv = ["build", "--function", command, "--file", str(path), "--epsilon", "0.5",
                "--out", str(tmp_path / "program.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed JSON")
    assert "nested too deeply" in captured.err


def test_a_negative_sampled_seed_is_refused_before_goodness_work(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a good set before refusing the seed")

    monkeypatch.setattr(goodsets, "sample", no_sampling)
    argv = ["verify", "--function", "perm", "--n", "4", "--epsilon", "0.2",
            "--mode", "sampled", "--samples", "16", "--seed", "-1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed -1" in captured.err
    # Exhaustive mode draws no pool, so a negative seed is still a seed there.
    monkeypatch.undo()
    code, payload = run_cli(capsys, ["verify", "--function", "mod", "--n", "4", "--m", "3",
                                     "--epsilon", "0.2", "--seed", "-1"])
    assert code == 0 and payload["pass"] is True


def _recipe_file(tmp_path, edit) -> str:
    """A program file holding the recipe of MOD_3 over four bits, edited."""
    recipe = compiler.recipe_to_json_dict(mod_polynomial(4, 3), sample(0.2, 3, seed=2))
    edit(recipe)
    path = tmp_path / "program.json"
    path.write_text(json.dumps({"fingerprint": recipe}))
    return str(path)


def _set_params(recipe):
    recipe["goodset"]["params"] = [int(k) + 0.5 for k in recipe["goodset"]["params"]]


@pytest.mark.parametrize(
    "edit",
    [
        _set_params,
        lambda recipe: recipe["polynomials"][0]["coeffs"].__setitem__(1, 1.9),
        lambda recipe: recipe["polynomials"][0].__setitem__("n", 4.7),
        lambda recipe: recipe["polynomials"][0].__setitem__("m", 3.5),
        lambda recipe: recipe["goodset"].__setitem__("m", 3.5),
        lambda recipe: recipe["polynomials"][0].__setitem__("n", True),
        lambda recipe: recipe["polynomials"][0]["coeffs"].__setitem__(1, "1.0"),
    ],
    ids=["params", "coeffs", "n", "polynomial-m", "goodset-m", "bool-n", "string-coeff"],
)
def test_eval_refuses_recipe_integer_fields_that_are_not_integers(capsys, tmp_path, edit):
    assert cli.main(["eval", "--program", _recipe_file(tmp_path, lambda r: None), "--input", "1110"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--program", _recipe_file(tmp_path, edit), "--input", "1110"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed program recipe" in captured.err and "JSON integer" in captured.err


@pytest.mark.parametrize("entry", ["1_0", " 5", "+5", "\u0663", 5.0, True, "", "-", "--5"])
def test_eval_refuses_a_parameter_a_json_integer_would_refuse(capsys, tmp_path, entry):
    def edit(recipe):
        recipe["goodset"]["params"][3] = entry

    assert cli.main(["eval", "--program", _recipe_file(tmp_path, edit), "--input", "1110"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed program recipe" in captured.err and "JSON integer" in captured.err


@pytest.mark.parametrize(
    "edit",
    [
        lambda recipe: recipe["goodset"]["params"].__setitem__(0, "-0"),
        lambda recipe: recipe["goodset"].__setitem__("params", [int(k) for k in recipe["goodset"]["params"]]),
        lambda recipe: recipe["goodset"]["params"].__setitem__(0, int(recipe["goodset"]["params"][0])),
    ],
    ids=["minus-zero", "ints", "int-among-strings"],
)
def test_eval_loads_parameters_as_json_integers(capsys, tmp_path, edit):
    assert cli.main(["eval", "--program", _recipe_file(tmp_path, edit), "--input", "1110"]) == 0
    assert json.loads(capsys.readouterr().out)["accept_probability"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "value, kind", [("12", "str"), ({"0": 1}, "dict"), (12, "int"), (1.5, "float")]
)
def test_json_list_and_ints_refuse_a_non_list_naming_its_type(value, kind):
    for parse in (_json_list, _json_ints):
        with pytest.raises(TypeError, match=f"expected a JSON list, got {kind}$"):
            parse(value)


def test_eval_refuses_a_recipe_whose_params_is_a_string(capsys, tmp_path):
    def edit(recipe):
        recipe["goodset"]["params"] = "".join(recipe["goodset"]["params"])

    assert cli.main(["eval", "--program", _recipe_file(tmp_path, edit), "--input", "1110"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed program recipe" in captured.err and "got str" in captured.err


@pytest.mark.parametrize(
    "command, data",
    [
        ("sop-file", {"n": 2, "products": [[1, 1.5]]}),
        ("sop-file", {"n": 3.9, "products": [[1, 2]]}),
        ("char-file", [{"m": "3", "n": 2, "coeffs": ["0", 1.5, "1"]}]),
        ("cayley-file", {"table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
                         "subgroup": [0, 2.5]}),
        ("cayley-file", {"table": [[float((a + b) % 66) for b in range(66)] for a in range(66)],
                         "subgroup": [0, 33]}),
    ],
    ids=["sop-literal", "sop-n", "char-coefficient", "cayley-subgroup", "cayley-float-table"],
)
def test_input_file_integer_fields_are_checked_not_truncated(capsys, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if command == "cayley-file":
        argv = ["hsf", "--cayley-file", str(path)]
    else:
        argv = ["build", "--function", command, "--file", str(path), "--epsilon", "0.5",
                "--out", str(tmp_path / "program.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed ") and "JSON integer" in captured.err
    assert not (tmp_path / "program.json").exists()


def _loop_times_z13() -> list[list[int]]:
    """The order-5 non-associative loop times Z_13: 65 elements, a Latin
    square with identity 0, not associative."""
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    return [
        [13 * loop[a // 13][b // 13] + (a + b) % 13 for b in range(65)] for a in range(65)
    ]


@pytest.mark.parametrize("case", ["non-associative-65", "cyclic-257"])
def test_cayley_tables_are_checked_or_refused_at_every_size(capsys, tmp_path, case):
    if case == "non-associative-65":
        data, message = {"table": _loop_times_z13(), "subgroup": [0]}, "associativity fails"
    else:
        table = [[(a + b) % 257 for b in range(257)] for a in range(257)]
        data, message = {"table": table, "subgroup": [0]}, "over the limit of 256"
    path = tmp_path / "cayley.json"
    path.write_text(json.dumps(data))
    assert cli.main(["hsf", "--cayley-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_the_reused_parser_gives_every_call_its_own_defaults(capsys, tmp_path):
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build_parser:
        hsf = ["hsf", "--cyclic", "4", "--subgroup-generator", "2"]
        code, report = run_cli(capsys, hsf + ["--sweep"])
        assert code == 0 and report["pass"] is True
        # Without --sweep the same command prints the instance summary.
        code, summary = run_cli(capsys, hsf)
        assert code == 0 and summary["group_order"] == 4 and "pass" not in summary
        build = ["build", "--function", "mod", "--n", "4", "--epsilon", "0.2"]
        code, _ = run_cli(capsys, build + ["--m", "5", "--out", str(tmp_path / "mod5.json")])
        assert code == 0
        recipe = json.loads((tmp_path / "mod5.json").read_text())["fingerprint"]
        assert recipe["goodset"]["m"] == "5"
        # Without --m, mod has no modulus: the earlier --m 5 must not carry over.
        assert cli.main(build + ["--out", str(tmp_path / "mod.json")]) == 2
        assert "mod requires a modulus" in capsys.readouterr().err
        assert not (tmp_path / "mod.json").exists()
    assert build_parser.call_count == 1
    # build_parser itself still returns a fresh parser on every call.
    assert cli.build_parser() is not cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import qobdd.cli\n"
        "assert built == [], built\n"
        "assert qobdd.cli._parser.cache_info().currsize == 0\n"
    )
    source = str(Path(qobdd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
