import doctest

import pytest

import bht.abelian
from bht.abelian import (
    AbelianGroup,
    CharacterFamily,
    abelianization,
    homology,
    is_perfect,
    proper_characters,
)
from bht.errors import DomainError, NotDeterminedError
from bht.space import SpaceSpec


def S(n, k, r=1):
    kbar = (k,) * n if isinstance(k, int) else tuple(k)
    return SpaceSpec(n, kbar, r)


def test_doctests():
    failures, _ = doctest.testmod(bht.abelian)
    assert failures == 0


def test_abelian_group_normalization():
    assert AbelianGroup([6]) == AbelianGroup([2, 3])
    assert AbelianGroup([8]) != AbelianGroup([2, 4])
    assert AbelianGroup([]) == AbelianGroup.trivial()
    assert AbelianGroup([1, 1]).is_trivial()
    assert AbelianGroup([4, 6]).order() == 24
    assert AbelianGroup([0, 2]).order() is None
    assert str(AbelianGroup([0, 4])) == "Z x Z_4"
    assert AbelianGroup([2, 4, 4, 3]).invariant_factors() == [2, 4, 12]
    assert str(AbelianGroup([12])) == "Z_12"
    assert str(AbelianGroup([2, 4, 4])) == "Z_2 x Z_4 x Z_4"


def test_homology_examples():
    # n=2, k=3, r=5: Z_2, Z_2, 0
    sp = S(2, 3, 5)
    assert homology(sp, 0) == AbelianGroup.cyclic(2)
    assert homology(sp, 1) == AbelianGroup.cyclic(2)
    assert homology(sp, 2).is_trivial()
    # k=2 kills everything
    for i in range(4):
        assert homology(S(1, 2), i).is_trivial()
        assert homology(S(3, 2), i).is_trivial()
    # mixed alphabets through the gcd
    sp = S(3, (3, 5, 3))
    assert homology(sp, 0) == AbelianGroup.cyclic(2)
    assert homology(sp, 1) == AbelianGroup.power(2, 2)
    assert homology(sp, 2) == AbelianGroup.cyclic(2)
    assert homology(sp, 3).is_trivial()
    with pytest.raises(DomainError):
        homology(S(1, 3), -1)


def test_homology_independent_of_roots():
    for n in (1, 2, 3):
        for k in (2, 3, 4, 5):
            values = [
                tuple(homology(S(n, k, r), i) for i in range(n + 1))
                for r in range(1, 11)
            ]
            assert all(v == values[0] for v in values)


def test_homology_rank_sum_binomial():
    for n in range(1, 5):
        sp = S(n, 3)
        total = sum(len(homology(sp, i).primary) for i in range(n))
        assert total == 2 ** (n - 1)


def test_abelianization_table_spots():
    assert abelianization(S(1, 3)) == AbelianGroup.cyclic(2)
    assert abelianization(S(2, 7)) == AbelianGroup.cyclic(12)
    assert abelianization(S(3, 5)) == AbelianGroup([2, 4, 4])
    assert abelianization(S(2, 2)).is_trivial()
    assert abelianization(S(1, 4)).is_trivial()
    assert abelianization(S(2, 4)) == AbelianGroup.cyclic(3)
    assert abelianization(S(3, 7)) == AbelianGroup.power(6, 2)
    assert abelianization(S(4, 9)) == AbelianGroup.cyclic(2).direct_sum(
        AbelianGroup.power(8, 3)
    )


def test_abelianization_parity_for_lines():
    for k in range(2, 16):
        ab = abelianization(S(1, k))
        if k % 2 == 0:
            assert ab.is_trivial()
        else:
            assert ab == AbelianGroup.cyclic(2)


def test_abelianization_mixed():
    assert abelianization(S(2, (2, 3))).is_trivial()
    with pytest.raises(NotDeterminedError):
        abelianization(S(2, (3, 5)))


def test_characters_examples():
    assert proper_characters(S(1, 2)).families == ()
    assert proper_characters(S(3, 2)).families == ()
    assert proper_characters(S(1, 6)).families == ()
    assert proper_characters(S(1, 3)).families == (CharacterFamily(1, 2),)
    assert proper_characters(S(2, 7)).families == (CharacterFamily(1, 12),)
    assert proper_characters(S(2, 4)).families == (CharacterFamily(1, 3),)
    assert proper_characters(S(3, 7)).families == (CharacterFamily(2, 6),)
    assert proper_characters(S(3, 5)).families == (
        CharacterFamily(1, 2),
        CharacterFamily(2, 4),
    )
    assert proper_characters(S(3, 5)).total == 3
    assert proper_characters(S(2, 3)).families == (CharacterFamily(1, 4),)


def test_characters_dual_group_is_abelianization():
    for n in range(1, 5):
        for k in range(2, 10):
            table = proper_characters(S(n, k))
            assert table.dual_group == abelianization(S(n, k))
            assert (table.total == 0) == table.dual_group.is_trivial()
            # every family order divides the exponent of the dual group
            for fam in table.families:
                assert fam.order > 1
                assert table.dual_group.order() % fam.order == 0


def test_is_perfect():
    assert is_perfect(S(2, (2, 3)))
    assert is_perfect(S(2, 2))
    assert is_perfect(S(1, 4))
    assert not is_perfect(S(1, 3))
    assert not is_perfect(S(2, (3, 5)))
    assert not is_perfect(S(3, 3))


def test_h0_modulus_matches_homology_order():
    for n in (1, 2, 3):
        for k in (3, 5, 7):
            sp = S(n, k)
            h0 = homology(sp, 0)
            assert h0.order() == sp.g


def test_groups_are_frozen_and_direct_sum_keeps_both_parts():
    a, b = AbelianGroup([0, 12]), AbelianGroup([0, 0, 2, 4])
    for field in ("rank", "primary"):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    s = a.direct_sum(b)
    assert (s.rank, s.primary) == (3, (2, 3, 4, 4))
    assert s == AbelianGroup([0, 0, 0, 2, 3, 4, 4]) and hash(s) == hash(AbelianGroup([0, 0, 0, 4, 12, 2]))
    assert a.direct_sum(AbelianGroup.trivial()) == a
