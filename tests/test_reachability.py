"""Every product function is reached by a command, or named on a list that
may only shrink.

One fixed matrix of ``cli.main`` calls runs in this process under a global
``sys.settrace`` hook that records each Python function entered and returns
None, so no line is traced.  Every function and method defined in
``src/defectk``, outside ``oracles.py`` (the tests' references), must be
entered by some call of the matrix, or be on ``UNREACHED`` with the reason
it is kept.  An entry that the matrix does reach fails the test too, so the
list only shrinks.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys

import defectk
from defectk import cli
from defectk.polynomials import GradedPoly

CHAIN = "item 14: the Gorenstein chain, which no command reaches until `chain` does"
BENCH = "item 1: perfbench/ reads it, so it moves or goes with the benchmark"
ITEM_20 = "item 20: a monomial-side check with no command, bound for a suite or oracles"
API = "library API: a JSON writer or a dunder, with tests of its own"

# Functions that no call of the matrix enters, each with the reason it is
# kept; the names are module.qualname below ``defectk``.
UNREACHED = {
    "defect.tangent_codim": BENCH,
    "ideals.Functional.__init__": CHAIN,
    "ideals.Functional.nvars": CHAIN,
    "ideals.Functional.points": CHAIN,
    "ideals.HilbertProfile.__iter__": API,
    "ideals.IdealPiece.__eq__": ITEM_20,
    "ideals.IdealPiece.contains": ITEM_20,
    "ideals.PointSet.__eq__": API,
    "ideals.PointSet.int_reps": BENCH,
    "ideals.PointSet.to_json_list": API,
    "ideals.RestrictedPiece.__init__": CHAIN,
    "ideals.RestrictedPiece.codim": CHAIN,
    "ideals._ColumnBases.__init__": CHAIN,
    "ideals._ColumnBases.degree": CHAIN,
    "ideals._ColumnBases.packed": CHAIN,
    "ideals._Restriction.__init__": CHAIN,
    "ideals._catalecticant_rank": CHAIN,
    "ideals._dot": CHAIN,
    "ideals._packed_columns": CHAIN,
    "ideals._packed_products": CHAIN,
    "ideals._products": CHAIN,
    "ideals._solved_variable": CHAIN,
    "ideals.ancestor_profile": CHAIN,
    "ideals.functional_kills_products": CHAIN,
    "ideals.lemdims_check": ITEM_20,
    "ideals.macaulay_growth_audit": CHAIN,
    "ideals.restricted_point_pieces": CHAIN,
    "ideals.socle_functional": CHAIN,
    "linalg.Echelon.contains": ITEM_20,
    "linalg.Echelon.kernel_of_rows": ITEM_20,
    "linalg.IntForwardEchelon.copy": CHAIN,
    "linalg.IntForwardEchelon.kernel": CHAIN,
    "linalg._bareiss": BENCH,
    "linalg._integer_rows": BENCH,
    "linalg._rank_mod_p": BENCH,
    "linalg.det": BENCH,
    "linalg.rank": BENCH,
    "macaulay.ci_hilbert": "item 14: the chain's verify suite will check its profiles with it",
    "polynomials.GradedPoly.__eq__": API,
    "polynomials.GradedPoly.__hash__": API,
    "polynomials.GradedPoly.__repr__": API,
    "polynomials.GradedPoly.evaluate": BENCH,
    "polynomials.GradedPoly.terms": API,
    "polynomials.GradedPoly.to_json_dict": API,
}


def _matrix(tmp_path):
    """The argument lists of the matrix: every verify suite; ``family`` for
    each name, with a probe prime, a prime field and CSV and markdown
    output; ``defect`` on points and on random points, exact and mod p;
    ``base-locus``, ``expand``, ``bounds`` with and without ``--k``; and two
    usage errors."""
    points = tmp_path / "points.json"
    # the plane d=4 nodes written as (0:0:a:b:7), defective at degree 3, so
    # the exact pass runs and rescales its chart
    points.write_text(json.dumps([[[0, 1], [0, 1], [a, 1], [b, 1], [7, 1]]
                                  for a in range(1, 4) for b in range(1, 4)]))
    colliding = tmp_path / "colliding.json"  # (1:1:1:1:1) and (1:1:1:1:8) mod 7
    colliding.write_text(json.dumps([[[1, 1]] * 4 + [[c, 1]] for c in (1, 8)]))
    x = [GradedPoly.variable(4, i) for i in range(4)]
    generators = tmp_path / "generators.json"
    generators.write_text(json.dumps([(x[0] * x[1] - x[2] * x[3]).to_json_dict(),
                                      (x[0] * x[0] + x[3] * x[3]).to_json_dict()]))
    runs = [["verify", "--suite", suite] for suite in sorted(cli.SUITES)]
    runs += [
        ["family", "--name", "plane", "--d", "4", "--probe-prime", "7"],
        ["family", "--name", "plane", "--d", "5", "--field", "fp=101", "--format", "csv"],
        ["family", "--name", "double-solid", "--d", "3", "--probe-prime", "5",
         "--format", "markdown"],
        ["family", "--name", "double-solid", "--d", "3", "--field", "fp=101"],
        ["family", "--name", "ci-highdim", "--n", "2", "--d", "3", "--probe-prime", "3",
         "--format", "csv"],
        ["family", "--name", "ci-highdim", "--n", "2", "--d", "3", "--field", "fp=101",
         "--format", "markdown"],
        ["defect", "--points", str(points), "--degree", "3"],
        ["defect", "--points", str(points), "--degree", "3", "--field", "fp=101"],
        ["defect", "--random", "12", "--nvars", "4", "--degree", "3", "--seed", "2"],
        ["defect", "--random", "12", "--degree", "2", "--field", "fp=101", "--format", "csv"],
        ["base-locus", "--generators", str(generators)],
        ["expand", "--c", "10", "--d", "7"],
        ["bounds", "--c", "9", "--d", "4"],
        ["bounds", "--c", "7", "--d", "4", "--k", "2"],
    ]
    usage_errors = [
        ["defect", "--random", "5", "--degree", "2", "--field", "qq"],
        ["defect", "--points", str(colliding), "--degree", "1", "--field", "fp=7"],
    ]
    return runs, usage_errors


def _modules():
    """Every module of ``defectk`` but ``oracles``, by short name."""
    names = [m.name for m in pkgutil.iter_modules(defectk.__path__) if m.name != "oracles"]
    return {name: importlib.import_module(f"defectk.{name}") for name in names}


def _product_functions():
    """{"module.qualname": code} for every function and method whose source
    is in a module of ``_modules``; properties and cached functions by the
    functions they wrap."""
    out = {}
    for short, module in _modules().items():
        for obj in vars(module).values():
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                for func in (getattr(member, "fget", None), getattr(member, "__func__", None),
                             inspect.unwrap(member) if callable(member) else None):
                    code = getattr(func, "__code__", None)
                    if code is not None and code.co_filename == module.__file__:
                        out[f"{short}.{func.__qualname__}"] = code
    return out


def _entered(calls):
    """The code objects entered while ``calls`` runs, under a global trace
    hook that traces no line."""
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        calls()
    finally:
        sys.settrace(previous)
    return entered


def test_every_product_function_is_reached_or_listed(tmp_path):
    runs, usage_errors = _matrix(tmp_path)
    # a cached function's body runs only on its first call in a process
    for module in _modules().values():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()

    def calls():
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                 contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0, argv
        for argv in usage_errors:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main(argv) == cli.USAGE_EXIT, argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    entered = _entered(calls)
    functions = _product_functions()
    unreached = {name for name, code in functions.items() if code not in entered}
    assert sorted(unreached - set(UNREACHED)) == [], "reached by no command and not listed"
    assert sorted(set(UNREACHED) - unreached) == [], "listed, but reached: drop the entry"

