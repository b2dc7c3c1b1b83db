"""End-to-end CLI behavior: JSON output and exit codes."""

from __future__ import annotations

import json
import time

import pytest

from qobdd import cli, compiler, programs, verification
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
    # t = 4,194,304 parameters: width 8.4M, far beyond the dense budget.
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
