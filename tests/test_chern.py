from fractions import Fraction

import pytest
from hypothesis import given, settings

from dtzero import (
    ChernNumbers,
    ThreefoldSpec,
    catalog,
    chern_of_hypersurface,
    chern_of_projective_space_product,
    chern_scale,
    twist_class_monomials,
    twist_exponent,
)

from conftest import chern_triples

P3 = ChernNumbers(64, 24, 4)
P2xP1 = ChernNumbers(54, 24, 6)
P1CUBED = ChernNumbers(48, 24, 8)


class TestSplittingEngine:
    def test_symbolic_expansion(self):
        # c3(T (x) K) = c3 - c1c2, as an identity of elementary-symmetric
        # monomials: exponent tuples of (c1, c2, c3).
        assert dict(twist_class_monomials()) == {(0, 0, 1): 1, (1, 1, 0): -1}

    def test_p3(self):
        assert twist_exponent(P3) == -20

    def test_calabi_yau_keeps_c3(self):
        assert twist_exponent(ChernNumbers(0, 0, -200)) == -200

    def test_p1_cubed(self):
        assert twist_exponent(P1CUBED) == -16

    @given(chern_triples(), chern_triples())
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, a, b):
        assert twist_exponent(a + b) == twist_exponent(a) + twist_exponent(b)


class TestProjectiveProducts:
    def test_p3(self):
        assert chern_of_projective_space_product([3]) == P3

    def test_p2_x_p1(self):
        assert chern_of_projective_space_product([2, 1]) == P2xP1

    def test_p1_cubed(self):
        assert chern_of_projective_space_product([1, 1, 1]) == P1CUBED

    def test_factor_order_irrelevant(self):
        assert chern_of_projective_space_product([1, 2]) == P2xP1

    def test_c3_is_product_of_euler_characteristics(self):
        for dims in ((3,), (2, 1), (1, 1, 1), (1, 2)):
            expected = 1
            for d in dims:
                expected *= d + 1
            assert chern_of_projective_space_product(dims).c3 == expected

    def test_dimension_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 3"):
            chern_of_projective_space_product([2, 2])
        with pytest.raises(ValueError):
            chern_of_projective_space_product([3, -1, 1])


class TestHypersurfaces:
    def test_quintic(self):
        assert chern_of_hypersurface(5) == ChernNumbers(0, 0, -200)

    def test_hyperplane_is_p3(self):
        assert chern_of_hypersurface(1) == chern_of_projective_space_product([3])

    def test_quadric(self):
        # (1+h)^5/(1+2h) = 1 + 3h + 4h^2 + 2h^3 mod h^4, integrated against
        # int h^3 = 2.
        assert chern_of_hypersurface(2) == ChernNumbers(54, 24, 4)

    def test_degree_positive(self):
        with pytest.raises(ValueError):
            chern_of_hypersurface(0)

    def test_closed_form_for_every_accepted_degree(self):
        # c(X) = (1+h)^5/(1+dh) mod h^4 has c1 = (5-d)h, c2 = (10-5d+d^2)h^2 and
        # c3 = (10-10d+5d^2-d^3)h^3, with int h^3 = d; the CLI accepts degrees up
        # to 1001.
        for d in range(1, 1002):
            expected = ChernNumbers(
                d * (5 - d) ** 3,
                d * (5 - d) * (10 - 5 * d + d * d),
                d * (10 - 10 * d + 5 * d * d - d ** 3),
            )
            assert chern_of_hypersurface(d) == expected, d


class TestChernNumbers:
    def test_disjoint_union_adds(self):
        assert P3 + P2xP1 == ChernNumbers(118, 48, 10)

    def test_empty_union_is_identity(self):
        assert P3 + ChernNumbers(0, 0, 0) == P3

    def test_twist_additive_over_union(self):
        union = P3 + P1CUBED
        assert twist_exponent(union) == twist_exponent(P3) + twist_exponent(P1CUBED)

    def test_scaling(self):
        half = chern_scale(Fraction(1, 2), P3)
        assert half == ChernNumbers(32, 12, 2)
        assert chern_scale(Fraction(1, 3), P3) == ChernNumbers(
            Fraction(64, 3), 8, Fraction(4, 3)
        )

    def test_integrality_predicate(self):
        assert P3.is_integral()
        assert P3.as_integers() == (64, 24, 4)
        third = chern_scale(Fraction(1, 3), P3)
        assert not third.is_integral()
        with pytest.raises(ValueError):
            third.as_integers()

    def test_riemann_roch_warning(self):
        assert P3.validation_warnings() == ()
        notes = ChernNumbers(64, 23, 4).validation_warnings()
        assert len(notes) == 1 and "24" in notes[0]

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ChernNumbers(1.5, 0, 0)

    def test_catalog_is_divisible_by_24(self):
        for spec in catalog():
            assert spec.resolve().c12 % 24 == 0


@pytest.mark.parametrize("make, value", [
    (ThreefoldSpec.hypersurface, 5.7),
    (ThreefoldSpec.hypersurface, 5.0),
    (ThreefoldSpec.hypersurface, True),
    (ThreefoldSpec.hypersurface, Fraction(5)),
    (ThreefoldSpec.hypersurface, "5"),
    (chern_of_hypersurface, 5.0),
    (chern_of_hypersurface, True),
    (ThreefoldSpec.product, (2.9, 1)),
    (ThreefoldSpec.product, (2, 1.0)),
    (ThreefoldSpec.product, (True, True, True)),
    (chern_of_projective_space_product, (3.0,)),
    (chern_of_projective_space_product, (1, True, 1)),
])
def test_spec_constructors_refuse_non_integers(make, value):
    # int() would have truncated 5.7 to the quintic and (2.9, 1) to P2xP1
    with pytest.raises(ValueError, match="must be a positive integer"):
        make(value)


class TestThreefoldSpec:
    def test_builtins(self):
        labels = {spec.label(): spec.resolve() for spec in catalog()}
        assert labels == {
            "P3": P3,
            "P2xP1": P2xP1,
            "P1xP1xP1": P1CUBED,
            "quintic": ChernNumbers(0, 0, -200),
        }

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            ThreefoldSpec.builtin("P5")

    def test_explicit(self):
        spec = ThreefoldSpec.explicit(ChernNumbers(1, 2, 3))
        assert spec.resolve() == ChernNumbers(1, 2, 3)

    def test_disjoint_union(self):
        spec = ThreefoldSpec.disjoint_union(
            [ThreefoldSpec.builtin("P3"), ThreefoldSpec.builtin("P2xP1")]
        )
        assert spec.resolve() == ChernNumbers(118, 48, 10)
        assert ThreefoldSpec.disjoint_union([]).resolve() == ChernNumbers(0, 0, 0)

    def test_scaled(self):
        spec = ThreefoldSpec.scaled(Fraction(1, 2), ThreefoldSpec.builtin("P3"))
        assert spec.resolve() == ChernNumbers(32, 12, 2)
        assert spec.resolve().is_integral()
        third = ThreefoldSpec.scaled(Fraction(1, 3), ThreefoldSpec.builtin("P3"))
        assert not third.resolve().is_integral()

    @pytest.mark.parametrize("make, who", [
        (lambda: ThreefoldSpec.explicit((1, 2, 3)), "ThreefoldSpec.explicit needs a ChernNumbers"),
        (lambda: ThreefoldSpec.scaled(2, "P3"), "ThreefoldSpec.scaled needs a ThreefoldSpec"),
        (lambda: ThreefoldSpec.scaled(2, ("builtin", "P3")), "ThreefoldSpec.scaled needs a ThreefoldSpec"),
        (lambda: ThreefoldSpec.disjoint_union([ThreefoldSpec.builtin("P3"), 5]),
         "ThreefoldSpec.disjoint_union needs a ThreefoldSpec, got 5"),
    ])
    def test_constructors_refuse_other_types(self, make, who):
        # each would fail later, in resolve() or label(), with an AttributeError
        with pytest.raises(TypeError, match=who):
            make()

    def test_each_family_is_expanded_once_per_argument(self, monkeypatch):
        # a spec document may hold hundreds of thousands of parts of one family
        from dtzero import chern

        expansions = []
        expand = chern._chern_numbers
        monkeypatch.setattr(chern, "_chern_numbers", lambda *args: expansions.append(args) or expand(*args))
        parts = [ThreefoldSpec.builtin("P3"), ThreefoldSpec.hypersurface(5), ThreefoldSpec.product([1, 2])] * 500
        assert ThreefoldSpec.disjoint_union(parts).resolve() == ChernNumbers(59000, 24000, -95000)
        assert len(expansions) <= 3

    def test_builtin_cache_answers_only_its_names(self):
        assert ThreefoldSpec.builtin("P3").resolve() == P3
        for name in (True, 1, "P9"):
            with pytest.raises(KeyError):
                ThreefoldSpec("builtin", name).resolve()

    def test_constructors_refuse_what_their_documents_refuse(self):
        with pytest.raises(ValueError, match="degree must be a positive integer, got 0"):
            ThreefoldSpec.hypersurface(0)
        with pytest.raises(ValueError, match=r"dims\[1\] must be a positive integer, got 0"):
            ThreefoldSpec.product([3, 0])
        with pytest.raises(ValueError, match=r"dims must sum to 3, got \[2, 2\]"):
            ThreefoldSpec.product([2, 2])

    def test_document_round_trip(self):
        from dtzero.cli import parse_spec_document

        specs = [
            ThreefoldSpec.builtin("quintic"),
            ThreefoldSpec.explicit(ChernNumbers(0, 24, -4)),
            ThreefoldSpec.product([2, 1]),
            ThreefoldSpec.hypersurface(7),
            ThreefoldSpec.disjoint_union(
                [ThreefoldSpec.builtin("P3"),
                 ThreefoldSpec.scaled(Fraction(-3, 2), ThreefoldSpec.builtin("P1xP1xP1"))]
            ),
        ]
        for spec in specs:
            assert parse_spec_document(spec.to_document()).resolve() == spec.resolve()
