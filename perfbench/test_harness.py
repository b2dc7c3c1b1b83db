"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench

MOD_3 n=8, PERM_2 and HSF Z_4/<2> stand in for the benchmark's workloads.
The gate must pass on the unmodified library and fail on a flipped oracle
label and on a corrupted program file.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from qobdd import verification  # noqa: E402


def tiny_workloads(tmp_path):
    return [
        workloads.CertifyMod3(3, n=8),
        workloads.CertifyPerm(3, n=2, samples=256),
        workloads.CertifyHsf(3, order=4, generator=2),
        workloads.ProgramRoundtrip(3, tmp_path, n=2, others=2, builds=1),
    ]


def one_pass(workload) -> list:
    try:
        return [workload.step(index) for index in range(workload.pass_length)]
    finally:
        workload.close()


def test_gate_passes_on_every_tiny_workload(tmp_path):
    for workload in tiny_workloads(tmp_path):
        ops = one_pass(workload)
        assert [op.errors for op in ops] == [[] for _ in ops], type(workload).__name__


def test_reference_counts_match_known_values():
    assert workloads.hsf_counts(8, 4) == (24, 65536 - 24712 - 24, 24712)
    assert workloads.hsf_counts(4, 2) == (2, 12, 2)
    assert workloads.CertifyMod3(0, n=8).expected(0) == (85, 171, 0)


def test_gate_fails_on_flipped_oracle_label():
    workload = workloads.CertifyMod3(5, n=8)
    honest = workload.plain_oracle
    workload.plain_oracle = lambda bits: 1 - honest(bits) if not any(bits) else honest(bits)
    (op,) = one_pass(workload)
    assert "report did not pass" in op.errors
    assert any(error.startswith("(ones, zeros, filtered)") for error in op.errors)


def test_gate_fails_on_corrupted_program_file(tmp_path):
    workload = workloads.ProgramRoundtrip(5, tmp_path, n=2, others=2, builds=1)
    try:
        assert workload.step(0).errors == []
        program = json.loads(workload.path.read_text())
        re, im = program["post_transform"][0][0]
        program["post_transform"][0][0] = [0.5 * re, im]
        workload.path.write_text(json.dumps(program))
        evals = [workload.step(index) for index in range(1, workload.pass_length)]
    finally:
        workload.close()
    assert all(op.errors for op in evals)
    assert not workload.path.exists()


def test_traced_pass_self_times_add_up_and_wrappers_are_restored(tmp_path):
    original = verification.sweep_accept_probabilities
    for workload in tiny_workloads(tmp_path):
        try:
            ops, metrics, details, spans = run.traced(workload, 0.0)
        finally:
            workload.close()
        assert all(not op.errors for op in ops)
        assert details["passes"] == 1
        times = {name: value for name, (value, unit) in metrics.items() if unit == "s"}
        layers = sum(value for name, value in times.items() if not name.startswith("trace."))
        assert layers == pytest.approx(times["trace.root_s"], rel=1e-9)
        assert {span["run"] for span in spans} == set(range(workload.pass_length, 2 * workload.pass_length))
    assert verification.sweep_accept_probabilities is original


def test_traced_layers_reach_the_named_modules(tmp_path):
    mod3, perm, hsf, roundtrip = tiny_workloads(tmp_path)
    expected = {
        mod3: ("programs.sweep_s", "verification.oracle_s", "compiler.closed_form_s", "goodsets.attempts"),
        perm: ("goodsets.sample_good_s", "goodsets.residues_checked", "programs.sweep_rows"),
        hsf: ("hsf.promise_s", "hsf.characteristic_s", "hsf.promise_kept_ratio", "verification.oracle_calls"),
        roundtrip: ("programs.to_json_s", "programs.from_json_s", "programs.run_s", "cli.self_s", "programs.file_bytes"),
    }
    for workload, names in expected.items():
        try:
            _, metrics, _, _ = run.traced(workload, 0.0)
        finally:
            workload.close()
        assert all(metrics[name][0] > 0 for name in names), names


def test_tail_uses_ten_samples_beyond_or_the_slowest():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, percentile = run.tail([float(i) for i in range(101)])
    assert (value, percentile) == (90.0, 90.0)


def test_exits_nonzero_without_the_library(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(HERE / name, copy / name)
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "certify-mod3", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
