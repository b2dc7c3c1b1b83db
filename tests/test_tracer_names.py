"""The benchmark's tracer wraps library functions by module attribute name.

perfbench/tracing.py is not part of the package, so nothing else in these
tests would notice a change that renames or deletes a name it patches: every
traced benchmark run would then fail at install.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from qobdd import compiler, goodsets, programs, verification

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    modules = (compiler, goodsets, programs, verification)
    before = [dict(vars(module)) for module in modules]
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original
    for module, attributes in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in attributes.items())


def test_traced_calls_reach_every_patched_name_on_their_path(capsys, tmp_path):
    # A refactor that moves a call off a patched name leaves the name in
    # place, so installing still works; only the recorded spans show it.
    from qobdd import cli, hsf

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        polynomial, oracle, name = verification.named_function("mod", 8, 3)
        verification.certify_single(polynomial, oracle, 0.2, 0, function=name)
        # Only a sampled certification walks its inputs for realized residues.
        verification.certify_single(polynomial, oracle, 0.2, 0, mode="sampled", samples=64)
        instance = hsf.HSFInstance.create(hsf.FiniteGroup.cyclic(4), hsf.cyclic_subgroup(4, 2))
        verification.certify_hsf(instance, 0.25, 0)
        program = str(tmp_path / "mod3.prog")
        build = ["build", "--function", "mod", "--n", "6", "--m", "3", "--epsilon", "0.2"]
        assert cli.main(build + ["--out", program]) == 0
        assert cli.main(["eval", "--program", program, "--input", "111000"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    names = {span["name"] for span in tracer.spans}
    certify = {
        f"verification.{attr}"
        for attr in (
            "sample_good",
            "realized_residues",
            "compile_single",
            "compile_general",
            "hsf_characteristic",
            "verify",
            "sweep_accept_probabilities",
            "closed_form_single_batch",
            "closed_form_general_batch",
        )
    }
    command = {
        "goodsets.sample",
        "compiler.compile_single",
        "compiler.closed_form_single",
        "programs.accept_probability",
    }
    assert certify | command <= names
    # goodsets.is_good_for is counted, not spanned.
    assert tracer.counts["goodsets.residues_checked"] > 0
