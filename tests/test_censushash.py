import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "censushash.py")
_spec = importlib.util.spec_from_file_location("censushash", _PATH)
censushash = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(censushash)


def test_census_3_2_hashes(capsys):
    """The report hash and the algebra, combinatorics and oracle digests of
    census(3,2) over Q at ``max_degree`` 3, as the tool prints them.  A
    changed algebra digest is a changed basis, pivot row, verdict or
    projective row of some census algebra; a changed combinatorics digest is
    a changed relation, Koszul report, resolution, certificate, walk, syzygy
    trace, period or obstruction of some census graph; a changed oracle
    digest is a changed summand, syzygy degree, syzygy action row or
    differential image of some oracle walk."""
    assert censushash.main(["--k", "3", "--m", "2", "--degree", "3", "--field", "q"]) == 0
    assert capsys.readouterr().out.splitlines() == ["report 7d3850109d9ae6a5",
                                                    "algebra d185bb12ba4a8be5",
                                                    "combinatorics 71e4b67810562455",
                                                    "oracle 74e18f601c2f3251"]


def test_census_3_2_hashes_over_f2(capsys):
    """The same digests over F2, where summed entries cancel as 1 + 1 = 0 in
    the sparse products and the forward step: the report and the
    combinatorics do not depend on the field, and the algebra and oracle
    digests are those of F2."""
    assert censushash.main(["--k", "3", "--m", "2", "--degree", "3", "--field", "fp:2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["report 7d3850109d9ae6a5",
                                                    "algebra 5abbda6126019a26",
                                                    "combinatorics 71e4b67810562455",
                                                    "oracle 3f928a73b1fed074"]


@pytest.mark.parametrize("argv", [
    ["--k", "0"], ["--k", "6"], ["--m", "0"], ["--degree", "-1"], ["--field", "fp:4"],
], ids=["k0", "k6", "m0", "degree-1", "fp4"])
def test_bad_values_exit_with_usage(capsys, argv):
    """An edge count outside 1..MAX_EDGES, a multiplicity below 1, a
    negative degree or a field that is not one exits 2 with the usage line,
    before any census is read: no digest is printed, and no traceback."""
    with pytest.raises(SystemExit) as exc:
        censushash.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and "Traceback" not in err
    assert len(err.splitlines()) == 2
    assert f": error: argument {argv[0]}: " in err.splitlines()[-1]
