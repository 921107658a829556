import importlib.util
import os

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
