"""Fuzzed input files through the commands that read them.

One strategy per input-file kind, each shaped after what that kind's loader
reads: characteristic files (polynomials.load_characteristic, a list of
{"m", "n", "coeffs"} objects), SOP files (polynomials.load_sop, {"n",
"products"}), Cayley files (the hsf command's loader, {"table", "subgroup"}
and an optional "order") and program files (compiler.recipe_from_json_dict
behind {"fingerprint": {"kind", "polynomials", "goodset"}}).  Each field is
drawn valid or as another JSON value, and any key may be left out.  Program
files are also drawn fully valid but for an error rate at the extremes, so
that eval reaches required_size, the compile and both closed forms past its
loader checks.  Whatever a file holds, `build`, `eval` and `hsf` without --sweep exit 0 or 2, raise
nothing and print no traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobdd import cli, compiler
from qobdd.errors import TooLargeError
from qobdd.goodsets import required_size, sample
from qobdd.polynomials import mod_polynomial

# JSON values a loader may meet where it expects something else: a float
# past any int, an int past any float, the smallest subnormal, strings
# float() and int() read.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(2**70), 1.5, 1e308, 5e-324, float("nan"), float("inf")]),
    st.sampled_from(["", "x", "-", "7", "-1", "0.5", "nan", "inf", "1e400", "9" * 5000]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.just({}),
)

MODULI = [2, 3, 5, 16, 97, 2**20, 2**64 + 13]


def one_in(k: int):
    """True one time in k."""
    return st.sampled_from([False] * (k - 1) + [True])


def field(valid):
    """Mostly a valid value, one time in sixteen another JSON value."""
    return one_in(16).flatmap(lambda junk: JUNK if junk else valid)


def as_json_int(value: int):
    """An integer as a JSON int or as the decimal string build writes."""
    return st.sampled_from([value, str(value)])


def record(fields: dict):
    """A JSON object of the fields, one time in eight with a key left out."""
    drop = st.sampled_from([None] * 7 + list(fields))
    return st.tuples(st.fixed_dictionaries(fields), drop).map(
        lambda pair: {k: v for k, v in pair[0].items() if k != pair[1]}
    )


@st.composite
def polynomials(draw, modulus: int, count: int):
    """count polynomial objects over Z_modulus, of one arity."""
    arity = draw(st.integers(1, 4))
    size = draw(st.sampled_from([arity + 1] * 6 + [arity, arity + 2]))
    coefficient = st.integers(-modulus, 2 * modulus).flatmap(as_json_int)
    one = record(
        {
            "m": field(as_json_int(modulus)),
            "n": field(as_json_int(arity)),
            "coeffs": field(st.lists(field(coefficient), min_size=size, max_size=size)),
        }
    )
    return draw(st.lists(one, min_size=count, max_size=count)), arity


@st.composite
def characteristics(draw):
    modulus = draw(st.sampled_from(MODULI))
    entries, _ = draw(polynomials(modulus, draw(st.sampled_from([1, 1, 2, 3, 0]))))
    return draw(field(st.just(entries)))


@st.composite
def sops(draw):
    arity = draw(st.integers(1, 5))
    literal = st.integers(-arity - 1, arity + 1).filter(bool)
    product = st.lists(field(literal), min_size=1, max_size=arity, unique_by=repr)
    return draw(
        record(
            {
                "n": field(st.sampled_from([arity] * 7 + [10**10]).flatmap(as_json_int)),
                "products": field(st.lists(field(product), max_size=4)),
            }
        )
    )


def cyclic_table(order: int) -> list[list[int]]:
    return [[(a + b) % order for b in range(order)] for a in range(order)]


# Each table with its proper subgroups, and for the Klein group a subset
# that is not closed.
GROUPS = [
    (cyclic_table(k), [list(range(0, k, d)) for d in range(2, k + 1) if k % d == 0])
    for k in range(2, 7)
]
GROUPS.append(([[a ^ b for b in range(4)] for a in range(4)], [[0], [0, 1], [0, 3], [0, 2, 1]]))


@st.composite
def cayley_files(draw):
    table, subgroups = draw(st.sampled_from(GROUPS))
    order = len(table)
    element = st.integers(-1, order)
    # One row in eight redrawn from any elements, one table in eight cut short.
    redrawn = st.lists(field(element), min_size=order, max_size=order)
    rows = [draw(redrawn) if draw(one_in(8)) else row for row in table]
    if draw(one_in(8)):
        rows = rows[: draw(st.integers(0, order))]
    any_subset = st.lists(field(element), max_size=order)
    subgroup = one_in(4).flatmap(lambda any: any_subset if any else st.sampled_from(subgroups))
    fields = {"table": field(st.just(rows)), "subgroup": field(subgroup)}
    if draw(one_in(2)):
        fields["order"] = field(st.sampled_from([order] * 3 + [order + 1]).flatmap(as_json_int))
    return draw(record(fields))


@st.composite
def program_files(draw):
    modulus = draw(st.sampled_from(MODULI))
    kind = draw(st.sampled_from(["single", "general"]))
    count = 1 if kind == "single" else draw(st.integers(1, 2))
    epsilon = draw(st.sampled_from([0.5, 0.9, 0.9, 0.05, 1.0, 0, "0.5", 5e-324]))
    size = required_size(epsilon, modulus) if epsilon in (0.5, 0.9) else 8
    size = draw(st.sampled_from([size] * 6 + [size // 2, 0]))
    params = st.lists(
        field(st.integers(-1, modulus).flatmap(as_json_int)), min_size=size, max_size=size
    )
    goodset = record(
        {"m": field(as_json_int(modulus)), "epsilon": field(st.just(epsilon)), "params": field(params)}
    )
    entries, arity = draw(polynomials(modulus, count))
    recipe = record(
        {"kind": field(st.just(kind)), "polynomials": field(st.just(entries)), "goodset": field(goodset)}
    )
    return draw(record({"fingerprint": field(recipe)})), arity


# Error rates at the extremes: the smallest subnormal, one whose set size is
# finite but past any program, the largest below 1, and an ordinary one.
EXTREME_EPSILONS = [5e-324, 1e-300, 1 - 2**-53, 0.5]


@st.composite
def valid_program_files(draw):
    """A recipe valid in every field but the error rate, drawn from
    EXTREME_EPSILONS: one or two polynomials with coefficients in [0, m)
    and required_size(epsilon, m) parameters in [0, m), or eight where
    that size is past every float or past 2^12."""
    modulus = draw(st.sampled_from(MODULI))
    kind = draw(st.sampled_from(["single", "general"]))
    count = 1 if kind == "single" else draw(st.integers(1, 2))
    arity = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**16)))
    entries = [
        {"m": str(modulus), "n": arity, "coeffs": [str(rng.randrange(modulus)) for _ in range(arity + 1)]}
        for _ in range(count)
    ]
    epsilon = draw(st.sampled_from(EXTREME_EPSILONS))
    try:
        size = required_size(epsilon, modulus)
    except TooLargeError:
        size = 8
    params = [str(rng.randrange(modulus)) for _ in range(size if size <= 2**12 else 8)]
    recipe = {
        "kind": kind,
        "polynomials": entries,
        "goodset": {"m": str(modulus), "epsilon": epsilon, "params": params},
    }
    return {"fingerprint": recipe}, arity


def run(argv: list[str]) -> dict | None:
    """The command's JSON output, or None when it exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()
    return json.loads(out.getvalue()) if code == 0 else None


# An input of the program's arity, one time in eight a bit longer.
BITS = st.tuples(st.text(alphabet="01", min_size=5, max_size=5), one_in(8))


def input_of(arity: int, bits: tuple[str, bool]) -> str:
    text, longer = bits
    return (text * arity)[: arity + longer]


@given(characteristics(), sops(), cayley_files(), st.one_of(program_files(), valid_program_files()), BITS)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_fuzzed_input_files_exit_0_or_2(characteristic, sop, cayley, program, bits):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory)
        program, arity = program
        for name, payload in (("char-file", characteristic), ("sop-file", sop),
                              ("cayley", cayley), ("program", program)):
            (path / name).write_text(json.dumps(payload))
        run(["hsf", "--cayley-file", str(path / "cayley"), "--epsilon", "0.5"])
        run(["eval", "--program", str(path / "program"), "--input", input_of(arity, bits)])
        for function in ("char-file", "sop-file"):
            built = str(path / f"{function}.prog")
            build = ["build", "--function", function, "--file", str(path / function)]
            written = run(build + ["--epsilon", "0.5", "--out", built])
            if written is not None:
                run(["eval", "--program", built, "--input", input_of(written["arity"], bits)])


def built_recipe() -> dict:
    polynomial = mod_polynomial(3, 3)
    return compiler.recipe_to_json_dict(polynomial, sample(0.5, 3, 0))


def no_parameters(recipe):
    recipe["goodset"]["params"] = []


def an_error_rate_past_any_float(recipe):
    recipe["goodset"]["epsilon"] = 10**400


# Cases the fuzz test found: each raised out of eval before its loader fix.
@pytest.mark.parametrize(
    "edit, message",
    [
        (no_parameters, "needs at least one parameter, got 0"),
        (an_error_rate_past_any_float, "OverflowError int too large to convert to float"),
    ],
)
def test_recipes_the_fuzz_test_found_exit_2(tmp_path, edit, message):
    recipe = built_recipe()
    edit(recipe)
    path = tmp_path / "program.json"
    path.write_text(json.dumps({"fingerprint": recipe}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["eval", "--program", str(path), "--input", "101"]) == 2
    assert message in err.getvalue()
