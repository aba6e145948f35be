import doctest
import math
import random

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
from bht.element import TableElement, canonicalize, compose, equals
from bht.errors import DomainError, NotDeterminedError
from bht.sampling import random_element
from bht.space import SpaceSpec
from util import B, assert_frozen_value, cell_parity


def S(n, k, r=1):
    kbar = (k,) * n if isinstance(k, int) else tuple(k)
    return SpaceSpec(n, kbar, r)


def test_doctests():
    failures, _ = doctest.testmod(bht.abelian)
    assert failures == 0


def test_abelian_group_normalization():
    assert AbelianGroup([6]) == AbelianGroup([2, 3])
    assert AbelianGroup([8]) != AbelianGroup([2, 4])
    assert AbelianGroup([]).is_trivial() and str(AbelianGroup([])) == "0"
    assert AbelianGroup([1, 1]).is_trivial()
    assert math.prod(AbelianGroup([4, 6]).factors) == 24
    assert 0 in AbelianGroup([0, 2]).factors
    assert str(AbelianGroup([0, 4])) == "Z x Z_4"
    assert AbelianGroup([2, 4, 4, 3]).factors == (2, 4, 12)
    assert str(AbelianGroup([12])) == "Z_12"
    assert str(AbelianGroup([2, 4, 4])) == "Z_2 x Z_4 x Z_4"


def test_homology_examples():
    # n=2, k=3, r=5: Z_2, Z_2, 0
    sp = S(2, 3, 5)
    assert homology(sp, 0) == AbelianGroup([2])
    assert homology(sp, 1) == AbelianGroup([2])
    assert homology(sp, 2).is_trivial()
    # k=2 kills everything
    for i in range(4):
        assert homology(S(1, 2), i).is_trivial()
        assert homology(S(3, 2), i).is_trivial()
    # mixed alphabets through the gcd
    sp = S(3, (3, 5, 3))
    assert homology(sp, 0) == AbelianGroup([2])
    assert homology(sp, 1) == AbelianGroup([2, 2])
    assert homology(sp, 2) == AbelianGroup([2])
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
        total = sum(len(homology(sp, i).factors) for i in range(n))
        assert total == 2 ** (n - 1)


def test_abelianization_table_spots():
    assert abelianization(S(1, 3)) == AbelianGroup([2])
    assert abelianization(S(2, 7)) == AbelianGroup([12])
    assert abelianization(S(3, 5)) == AbelianGroup([2, 4, 4])
    assert abelianization(S(2, 2)).is_trivial()
    assert abelianization(S(1, 4)).is_trivial()
    assert abelianization(S(2, 4)) == AbelianGroup([3])
    assert abelianization(S(3, 7)) == AbelianGroup([6, 6])
    assert abelianization(S(4, 9)) == AbelianGroup([2, 8, 8, 8])


def test_abelianization_parity_for_lines():
    for k in range(2, 16):
        ab = abelianization(S(1, k))
        if k % 2 == 0:
            assert ab.is_trivial()
        else:
            assert ab == AbelianGroup([2])


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
            # every family order divides the order of the dual group
            for fam in table.families:
                assert fam.order > 1
                assert math.prod(table.dual_group.factors) % fam.order == 0


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
            assert math.prod(h0.factors) == sp.g


def test_groups_are_frozen_and_direct_sum_keeps_both_parts():
    a, b = AbelianGroup([0, 12]), AbelianGroup([0, 0, 2, 4])
    table = proper_characters(SpaceSpec(2, (7, 7), 1))
    for obj in (a, b, table, *table.families):
        assert_frozen_value(obj)

    def direct_sum(x, y):
        return AbelianGroup(x.factors + y.factors)

    s = direct_sum(a, b)
    assert s.factors == (0, 0, 0, 2, 4, 12)
    assert s == AbelianGroup([0, 0, 0, 2, 3, 4, 4]) and hash(s) == hash(AbelianGroup([0, 0, 0, 4, 12, 2]))
    assert direct_sum(a, AbelianGroup([])) == a


def _split(g: TableElement, i: int) -> TableElement:
    """The same element with its i-th cell split into its children on both sides."""
    cells = list(g.cells)
    d, r = cells.pop(i)
    return TableElement(g.space, cells + [(d.child(0, a), r.child(0, a)) for a in range(g.space.kbar[0])])


@pytest.mark.parametrize("k", range(2, 8))
def test_cell_parity_is_a_character_exactly_where_the_abelianization_is_z2(k):
    # For n = 1 the group is V_{k,r}, whose abelianization is Z_2 for odd k
    # (the parity of the cell permutation) and trivial for even k (Higman,
    # Finitely presented infinite simple groups, 1974).
    for r in (1, 2, 3):
        space = S(1, k, r)
        rng = random.Random(100 * k + r)
        # the swap of the bricks 0 and 1 of root 0, the identity elsewhere
        swap = TableElement(space, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))]
                            + [(B(0, str(a)),) * 2 for a in range(2, k)]
                            + [(space.root_brick(i),) * 2 for i in range(1, r)])
        assert cell_parity(swap) == 1
        if abelianization(space) == AbelianGroup([2]):
            for _ in range(40):
                f = random_element(space, rng, factors=2, splits=2)
                g = random_element(space, rng, factors=2, splits=2)
                assert cell_parity(compose(f, g)) == cell_parity(f) ^ cell_parity(g)
                assert cell_parity(canonicalize(f)) == cell_parity(f)
                assert cell_parity(_split(f, rng.randrange(len(f.cells)))) == cell_parity(f)
        else:
            assert abelianization(space).is_trivial()
            # the moved cell 0 -> 1 has one inversion, and k - 1 is odd
            moved = swap.cells.index((B(0, "0"), B(0, "1")))
            fine = _split(swap, moved)
            assert equals(fine, swap) and cell_parity(fine) == 0
