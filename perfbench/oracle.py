"""Independent point-action oracle for prefix-exchange tables.

A table acts on a word tuple that is longer than every cell word by finding
the cell whose source prefixes it and swapping that prefix for the target.
Two tables are the same element exactly when they agree on every word tuple
one letter longer than all their cell words, so enumerating those tuples
decides equality without any of the library's composition or normal-form
code.  Only the tables' ``space`` and ``cells`` attributes are read.
"""

import itertools
import random


def image(table, root, words):
    """(root, words) under ``table``; words must be longer than the cell words."""
    for d, r in table.cells:
        if d.root == root and all(w[: len(dw)] == dw for w, dw in zip(words, d.words)):
            return r.root, tuple(rw + w[len(dw):] for w, dw, rw in zip(words, d.words, r.words))
    raise ValueError("word tuple not covered by the table")


def _profile(space, *tables):
    return [
        1 + max(len(d.words[j]) for t in tables for d, _ in t.cells)
        for j in range(space.n)
    ]


def agree(f, g) -> bool:
    """Whether f and g act identically, by enumerating every deep word tuple."""
    space = f.space
    pools = [
        list(itertools.product(range(space.kbar[j]), repeat=depth))
        for j, depth in enumerate(_profile(space, f, g))
    ]
    for root in range(space.r):
        for words in itertools.product(*pools):
            if image(f, root, words) != image(g, root, words):
                return False
    return True


def compose_agrees(f, g, fg, samples: int, rng: random.Random) -> bool:
    """Whether ``fg`` acts as f after g on ``samples`` random deep word tuples.

    The tuples are longer than every source word of f, g and fg by the
    longest source word of g, so g's image is still deep enough for f.
    """
    space = f.space
    depths = [
        p + max(len(d.words[j]) for d, _ in g.cells)
        for j, p in enumerate(_profile(space, f, g, fg))
    ]
    for _ in range(samples):
        root = rng.randrange(space.r)
        words = tuple(
            tuple(rng.randrange(space.kbar[j]) for _ in range(depths[j]))
            for j in range(space.n)
        )
        if image(fg, root, words) != image(f, *image(g, root, words)):
            return False
    return True
