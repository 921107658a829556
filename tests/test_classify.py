import pytest

from brauergraph.graph import (
    HypothesisError,
    cycle_graph,
    loop_graph,
    path_graph,
    star_graph,
    triangle_graph,
)
from brauergraph.classify import (
    d_homog_star_check,
    koszul_report,
    quadratic_family_check,
    two_d_conditions,
)
from brauergraph.presentation import Homogeneity, homogeneity
from brauergraph.resolution import obstruction_element
from conftest import desk_graphs, pendant_triangle


def test_koszul_report_triangle(triangle):
    rep = koszul_report(triangle)
    assert rep.is_quadratic and rep.is_koszul
    assert rep.ext_generated_012 and rep.is_k2
    assert rep.d_koszul is None
    doc = rep.to_json()
    assert doc["koszul"] and doc["quadratic"]


def test_koszul_report_a4(a4):
    rep = koszul_report(a4)
    assert rep.is_quadratic and not rep.is_koszul
    assert not rep.ext_generated_012 and rep.is_k2 is False
    assert "truncated" in str(rep.witnesses["ext_generated_in_degrees_012"])


def test_koszul_report_triangle_m2(triangle_m2):
    rep = koszul_report(triangle_m2)
    assert rep.is_2d_homogeneous == 4
    assert rep.is_2d_determined and rep.is_2d_koszul
    assert rep.ext_generated_012 and rep.is_k2


def test_koszul_report_star(star3_m2, a3):
    rep = koszul_report(star3_m2)
    assert rep.d_koszul == 7 and not rep.is_quadratic
    assert rep.ext_generated_012  # Nakayama: no nontruncated edges
    rep3 = koszul_report(a3)
    assert rep3.d_koszul == 3


def test_koszul_a2(a2):
    rep = koszul_report(a2)
    assert rep.is_quadratic and rep.is_koszul and rep.ext_generated_012


def test_quadratic_families():
    assert quadratic_family_check(path_graph(2))
    assert quadratic_family_check(path_graph(2, [2, 2]))
    assert quadratic_family_check(path_graph(3, [1, 1, 2]))
    assert quadratic_family_check(path_graph(3, [2, 1, 1]))
    assert quadratic_family_check(path_graph(5))
    assert quadratic_family_check(path_graph(5, [2, 1, 1, 1, 2]))
    assert quadratic_family_check(triangle_graph())
    assert quadratic_family_check(cycle_graph(2))
    assert quadratic_family_check(loop_graph())
    assert not quadratic_family_check(path_graph(3))
    assert not quadratic_family_check(star_graph(3))
    assert not quadratic_family_check(loop_graph(2))
    assert not quadratic_family_check(triangle_graph(2))
    assert not quadratic_family_check(path_graph(4, [2, 2, 1, 2]))


def test_d_homog_star():
    assert d_homog_star_check(star_graph(3, 2), 7)
    assert not d_homog_star_check(star_graph(3, 2), 6)
    assert d_homog_star_check(path_graph(3), 3)  # the two-edge star
    assert d_homog_star_check(path_graph(2, [1, 3]), 4)  # the one-edge star
    assert not d_homog_star_check(star_graph(3, 2, [1, 1, 2]), 7)


def test_two_d_conditions(triangle_m2):
    assert two_d_conditions(triangle_m2, 4) == "Cond1"
    assert two_d_conditions(triangle_m2, 5) == "Neither"
    g = path_graph(3, [1, 2, 4])
    assert two_d_conditions(g, 4) == "Cond2"
    assert two_d_conditions(path_graph(3, [1, 2, 1]), 4) == "Neither"
    with pytest.raises(HypothesisError):
        two_d_conditions(triangle_m2, 2)
    # stars and paths: a shape condition holds exactly when the graph is
    # 2-d-homogeneous of degree d
    for g, d, condition in [
        (star_graph(2, 2, [1, 4]), 4, "Cond2"),
        (star_graph(2, 2, [1, 1]), 4, "Neither"),
        (path_graph(3, [4, 2, 1]), 4, "Cond2"),
        (path_graph(3, [1, 2, 1]), 4, "Neither"),
        (path_graph(5, [1, 2, 2, 2, 4]), 4, "Cond2"),
        (path_graph(5, [1, 2, 3, 2, 4]), 4, "Neither"),
        (path_graph(4), 3, "Neither"),
    ]:
        assert two_d_conditions(g, d) == condition, g.edge_ends
        assert (homogeneity(g) == Homogeneity("TwoDHomogeneous", d)) == (
            condition != "Neither"), g.edge_ends


def test_report_consistency_on_desk():
    for name, g in desk_graphs():
        rep = koszul_report(g)
        if rep.is_2d_koszul:
            assert rep.is_2d_determined
        if rep.is_2d_determined:
            assert rep.is_2d_homogeneous
        if rep.is_koszul:
            assert rep.is_quadratic


def test_k2_iff_no_obstruction():
    for name, g in desk_graphs():
        rep = koszul_report(g)
        assert rep.ext_generated_012 == (obstruction_element(g) is None), name


def test_conditional_flag():
    from brauergraph.graph import from_dict, to_dict

    doc = to_dict(pendant_triangle())
    doc["quantizer"] = [{"edge": "e1", "vertex": "alpha", "value": "2"}]
    g = from_dict(doc)
    rep = koszul_report(g)
    assert rep.conditional
    doc2 = to_dict(triangle_graph())
    doc2["quantizer"] = [{"edge": "e1", "vertex": "alpha", "value": "3"}]
    g2 = from_dict(doc2)
    assert not koszul_report(g2).conditional  # valencies at most two


def test_census_consistency(small_census):
    """The shape theorems in both directions over census(4,2): the graph is
    a star of degree d exactly when its algebra is d-homogeneous, and a
    two-degree shape condition holds exactly when it is 2-d-homogeneous."""
    for g in small_census:
        h = homogeneity(g)
        for d in range(3, 13):
            assert d_homog_star_check(g, d) == (h == Homogeneity("DHomogeneous", d)), (
                g.edge_ends, d)
            assert (two_d_conditions(g, d) != "Neither") == (
                h == Homogeneity("TwoDHomogeneous", d)), (g.edge_ends, d)
