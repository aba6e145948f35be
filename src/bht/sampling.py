"""Seeded random generators for partitions, clopens, points and elements.

Everything takes an explicit ``random.Random`` so callers control
reproducibility; the test suite and the benchmark rely on that.
"""

import random

from .element import TableElement, compose, identity
from .space import Brick, Clopen, RationalPoint, SpaceSpec, subdivide
from .witness import multisection


def random_partition(space: SpaceSpec, rng: random.Random, splits: int = 3) -> list[Brick]:
    parts = [space.root_brick(i) for i in range(space.r)]
    for _ in range(splits):
        i = rng.randrange(len(parts))
        dim = rng.randrange(space.n)
        parts[i:i + 1] = subdivide(space, parts[i], dim)
    return parts


def random_clopen(
    space: SpaceSpec,
    rng: random.Random,
    splits: int = 3,
    nonempty: bool = False,
    proper: bool = False,
) -> Clopen:
    for _ in range(1000):
        parts = random_partition(space, rng, splits)
        c = Clopen(space, [b for b in parts if rng.random() < 0.5])
        if nonempty and c.is_empty():
            continue
        if proper and c.is_full():
            continue
        return c
    raise AssertionError("could not sample a clopen with the requested shape")


def random_point(space: SpaceSpec, rng: random.Random, max_pre: int = 3, max_per: int = 2) -> RationalPoint:
    coords = []
    for j in range(space.n):
        k = space.kbar[j]
        pre = tuple(rng.randrange(k) for _ in range(rng.randrange(max_pre + 1)))
        per = tuple(rng.randrange(k) for _ in range(rng.randint(1, max_per)))
        coords.append((pre, per))
    return RationalPoint(space, rng.randrange(space.r), coords)


def random_permutation_element(space: SpaceSpec, rng: random.Random, splits: int = 3) -> TableElement:
    """Random permutation of a random brick partition of the space."""
    parts = random_partition(space, rng, splits)
    shuffled = parts[:]
    rng.shuffle(shuffled)
    return TableElement(space, zip(parts, shuffled))


def random_multisection_element(space: SpaceSpec, rng: random.Random, splits: int = 4) -> TableElement:
    """Random order-3 element cycling three disjoint partition bricks."""
    while True:
        parts = random_partition(space, rng, max(splits, 2))
        if len(parts) >= 3:
            break
    picks = rng.sample(parts, 3)
    triple = multisection(*(Clopen(space, [b]) for b in picks))
    return triple.element


def random_element(
    space: SpaceSpec,
    rng: random.Random,
    factors: int = 2,
    splits: int = 3,
) -> TableElement:
    """Random product of multisection elements and brick permutations."""
    g = identity(space)
    for _ in range(factors):
        if rng.random() < 0.5:
            h = random_permutation_element(space, rng, splits)
        else:
            h = random_multisection_element(space, rng, splits)
        g = compose(g, h)
    return g
