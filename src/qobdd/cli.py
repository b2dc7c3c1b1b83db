"""Command-line entry point: build, eval, verify, goodset, hsf, report.

All output is JSON on stdout; all randomness flows from an explicit --seed
flag.  Exit codes: 0 success, 1 failed verification, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import compiler, goodsets, hsf, polynomials, programs, verification
from .errors import _json_int, _json_list, _load_json, _malformed


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _parse_bits(text: str) -> tuple[int, ...]:
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"input must be a nonempty 0/1 string, got {text!r}")
    return tuple(int(c) for c in text)


def _cmd_goodset(args: argparse.Namespace) -> int:
    good_set = goodsets.sample(args.epsilon, args.modulus, args.seed)
    if good_set.modulus <= args.verify_limit:
        verified: bool | str = goodsets.verify_exhaustive(
            good_set, limit=args.verify_limit
        )
    else:
        verified = "skipped"
    _emit(
        {
            "t": good_set.size,
            "params": [str(k) for k in good_set.parameters],
            "verified": verified,
        }
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    if args.function in ("mod", "eq", "palindrome", "perm"):
        if args.n is None:
            raise ValueError(f"--function {args.function} requires --n")
        source, _, _ = verification.named_function(args.function, args.n, args.m)
    elif args.function == "sop-file":
        if args.file is None:
            raise ValueError("--function sop-file requires --file")
        multilinear = polynomials.sop_to_polynomial(polynomials.load_sop(args.file))
        if not multilinear.is_linear():
            raise ValueError(
                "SOP expands to a nonlinear polynomial; the linear-polynomial "
                "circuit cannot compile it"
            )
        source = multilinear.to_linear()
    elif args.function == "char-file":
        if args.file is None:
            raise ValueError("--function char-file requires --file")
        source = polynomials.load_characteristic(args.file)
    else:
        raise ValueError(f"unknown function {args.function!r}")
    good_set = goodsets.sample(args.epsilon, source.modulus, args.seed)
    recipe = compiler.recipe_to_json_dict(source, good_set)
    program = compiler.recipe_from_json_dict(recipe).program
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"fingerprint": recipe}, handle)
    _emit({"written": args.out, "width": program.dimension, "arity": program.arity})
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    bundle = _load_json(args.program)
    if not isinstance(bundle, dict):
        raise ValueError("a program file must hold a JSON object")
    if bundle.get("fingerprint") is None:
        raise ValueError(
            "malformed program file: no fingerprint recipe; rebuild it with qobdd build"
        )
    bits = _parse_bits(args.input)
    # A file with a recipe is rebuilt from it, whatever else it holds.
    compilation = compiler.recipe_from_json_dict(bundle["fingerprint"])
    probability = programs.accept_probability(compilation.program, bits)
    single = isinstance(compilation.source, polynomials.LinearPolynomial)
    closed_form = (compiler.closed_form_single if single else compiler.closed_form_general)(
        compilation.source, compilation.good_set, bits
    )
    _emit({"accept_probability": probability, "closed_form": closed_form})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    polynomial, oracle, name = verification.named_function(args.function, args.n, args.m)
    goodness = args.goodness
    if goodness == "auto":
        goodness = (
            "exhaustive"
            if polynomial.modulus <= goodsets.DEFAULT_VERIFY_LIMIT
            else "realized"
        )
    report, _ = verification.certify_single(
        polynomial,
        oracle,
        args.epsilon,
        args.seed,
        function=name,
        goodness=goodness,
        mode=args.mode,
        samples=args.samples,
    )
    _emit(report.to_json_dict())
    return 0 if report.passed else 1


def _load_hsf_instance(args: argparse.Namespace) -> hsf.HSFInstance:
    if args.cayley_file is not None:
        data = _load_json(args.cayley_file)
        with _malformed(f"Cayley file {args.cayley_file}"):
            rows = _json_list(data["table"])
            if _json_int(data.get("order", len(rows))) != len(rows):
                raise ValueError(
                    f"malformed Cayley file {args.cayley_file}: order {data['order']} "
                    f"but {len(rows)} table rows"
                )
            table = [[_json_int(g) for g in _json_list(row)] for row in rows]
            group = hsf.FiniteGroup.from_table(table)
            subgroup = tuple(_json_int(s) for s in _json_list(data["subgroup"]))
    elif args.cyclic is not None:
        if args.subgroup_generator is None:
            raise ValueError("--cyclic requires --subgroup-generator")
        group = hsf.FiniteGroup.cyclic(args.cyclic)
        subgroup = hsf.cyclic_subgroup(args.cyclic, args.subgroup_generator)
    else:
        raise ValueError("provide --cyclic N or --cayley-file PATH")
    return hsf.HSFInstance.create(group, subgroup)


def _cmd_hsf(args: argparse.Namespace) -> int:
    instance = _load_hsf_instance(args)
    if args.sweep:
        report, _ = verification.certify_hsf(instance, args.epsilon, args.seed)
        _emit(report.to_json_dict())
        return 0 if report.passed else 1
    compilation = hsf.compile_hsf(instance, args.epsilon, args.seed)
    _emit(
        {
            "group_order": instance.group.order,
            "subgroup": list(instance.subgroup),
            "cosets": [list(c) for c in instance.cosets],
            "index": instance.index,
            "bits_per_value": instance.bits_per_value,
            "arity": instance.arity,
            "characteristic": compilation.source.to_json_list(),
            "metrics": asdict(programs.metrics(compilation.program)),
        }
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    entries = []
    for function, n, m in (("mod", 64, 64), ("eq", 4, None), ("palindrome", 11, None), ("perm", 3, None)):
        polynomial, _, name = verification.named_function(function, n, m)
        good_set = goodsets.sample(args.epsilon, polynomial.modulus, args.seed)
        compilation = compiler.compile_single(polynomial, good_set)
        entries.append(
            (name, compilation.program, verification.DETERMINISTIC_WIDTH_BOUNDS[function])
        )
    _emit(verification.width_table(entries))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qobdd",
        description="Compile, simulate, and verify quantum OBDDs built from "
        "characteristic polynomials over Z_m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_goodset = sub.add_parser("goodset", help="sample a rotation-parameter set")
    p_goodset.add_argument("--epsilon", type=float, required=True)
    p_goodset.add_argument("--modulus", type=int, required=True)
    p_goodset.add_argument("--seed", type=int, default=0)
    p_goodset.add_argument("--verify-limit", type=int, default=goodsets.DEFAULT_VERIFY_LIMIT)
    p_goodset.set_defaults(handler=_cmd_goodset)

    p_build = sub.add_parser("build", help="compile a function to a program file")
    p_build.add_argument(
        "--function",
        required=True,
        choices=["mod", "eq", "palindrome", "perm", "sop-file", "char-file"],
    )
    p_build.add_argument("--n", type=int)
    p_build.add_argument("--m", type=int)
    p_build.add_argument("--file", help="input path for sop-file / char-file")
    p_build.add_argument("--epsilon", type=float, required=True)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(handler=_cmd_build)

    p_eval = sub.add_parser("eval", help="run a program file on one input")
    p_eval.add_argument("--program", required=True)
    p_eval.add_argument("--input", required=True)
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = sub.add_parser("verify", help="sweep a compiled function against its oracle")
    p_verify.add_argument(
        "--function", required=True, choices=["mod", "eq", "palindrome", "perm"]
    )
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--epsilon", type=float, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p_verify.add_argument("--samples", type=int, default=verification.DEFAULT_SAMPLES)
    p_verify.add_argument(
        "--goodness", choices=["auto", "exhaustive", "realized"], default="auto"
    )
    p_verify.set_defaults(handler=_cmd_verify)

    p_hsf = sub.add_parser("hsf", help="hidden-subgroup instances and sweeps")
    p_hsf.add_argument("--cyclic", type=int, help="order of a cyclic group")
    p_hsf.add_argument("--subgroup-generator", type=int)
    p_hsf.add_argument(
        "--cayley-file",
        help="JSON with table and subgroup, and optionally order (checked against the table)",
    )
    p_hsf.add_argument("--epsilon", type=float, default=0.25)
    p_hsf.add_argument("--seed", type=int, default=0)
    p_hsf.add_argument("--sweep", action="store_true")
    p_hsf.set_defaults(handler=_cmd_hsf)

    p_report = sub.add_parser("report", help="width table for the shipped functions")
    p_report.add_argument("--epsilon", type=float, default=0.25)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.set_defaults(handler=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call and reused after: every
    parse_args call starts from a fresh namespace, so nothing carries over."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
