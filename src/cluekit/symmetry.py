"""Coordinate permutation groups, given by generating sets: invariance and
transitivity checks, and the averaging operator that symmetrizes a function.

A permutation gamma maps coordinate v to gamma[v].  It acts on configurations
by relocating values, (gamma.w)_{gamma(v)} = w_v, and on functions by
(gamma.f)(w) = f(gamma^{-1}.w); a function is invariant when every group
element fixes it.  Invariance under a generating set implies invariance
under the whole group, and the orbits of the generated group are those of
its generators, so both hypotheses of a transitive-function bound are
checked on generators and no group element is ever listed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FunctionTable, permute
from .errors import ParseError

INVARIANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GroupAction:
    """The permutation group on [n] generated by ``generators``, each checked
    to be a permutation.  A group with no generators is the trivial group."""

    n: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for perm in self.generators:
            _check_perm(perm, self.n)


def _check_perm(perm: tuple[int, ...], n: int):
    integers = all(isinstance(v, (int, np.integer)) for v in perm)
    if not integers or len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of range({n})")


def from_generators(gens, n: int) -> GroupAction:
    return GroupAction(n, tuple(tuple(g) for g in gens))


def _swap_and_cycle(coords: list[int], n: int) -> list[tuple[int, ...]]:
    """Permutations of [n] generating every shuffle of ``coords``: the swap of
    its first two and the cycle coords[i] -> coords[i + 1] through all of
    them; none when fewer than two coordinates move."""
    if len(coords) < 2:
        return []
    swap = list(range(n))
    swap[coords[0]], swap[coords[1]] = coords[1], coords[0]
    cycle = list(range(n))
    for i, v in enumerate(coords):
        cycle[v] = coords[(i + 1) % len(coords)]
    return [tuple(swap), tuple(cycle)]


# -- stock groups ------------------------------------------------------------
def cyclic_group(n: int) -> GroupAction:
    shift = tuple((v + 1) % n for v in range(n))
    return from_generators([shift], n)


def symmetric_group_action(n: int) -> GroupAction:
    """Full symmetric group via its two standard generators."""
    return from_generators(_swap_and_cycle(list(range(n)), n), n)


def stabilizer_of(coord: int, n: int) -> GroupAction:
    """All permutations fixing one coordinate, via generators on the rest."""
    return from_generators(_swap_and_cycle([v for v in range(n) if v != coord], n), n)


def tribes_group(tribe_size: int, tribe_count: int) -> GroupAction:
    """Permutations preserving the tribe partition: within-tribe shuffles plus
    tribe swaps (transitive on the l*k coordinates)."""
    n = tribe_size * tribe_count
    gens = _swap_and_cycle(list(range(tribe_size)), n)
    if tribe_count >= 2:
        block = list(range(n))
        for i in range(tribe_size):
            block[i], block[tribe_size + i] = block[tribe_size + i], block[i]
        gens.append(tuple(block))
        rotate = [(v + tribe_size) % n for v in range(n)]
        gens.append(tuple(rotate))
    return from_generators(gens, n)


# -- applying permutations to tables -----------------------------------------
def is_invariant(f: FunctionTable, action: GroupAction) -> bool:
    if action.n != f.n:
        raise ValueError(f"group acts on {action.n} coordinates but the function has {f.n}")
    for perm in action.generators:
        moved = permute(f.values, f.space, perm)
        if np.max(np.abs(moved - f.values)) > INVARIANCE_TOL:
            return False
    return True


def orbits(action: GroupAction) -> list[list[int]]:
    """Coordinate orbits under the generated group (generators suffice)."""
    parent = list(range(action.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in action.generators:
        for v in range(action.n):
            a, b = find(v), find(perm[v])
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for v in range(action.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def is_transitive(action: GroupAction) -> bool:
    return len(orbits(action)) == 1


def average(f: FunctionTable, elements) -> FunctionTable:
    """Mean of the translates of f over a list of permutations.  When the
    list is a subgroup this is the orthogonal projection onto its invariant
    functions (idempotent, variance contracting)."""
    acc = np.zeros_like(f.values)
    for perm in elements:
        acc += permute(f.values, f.space, perm)
    return FunctionTable(f.space, acc / len(elements))


def group_from_spec(text: str) -> GroupAction:
    """Group mini-language used by the CLI: ``cyclic:n``, ``symmetric:n``,
    ``tribes:l,k``, ``torus:n`` (translations acting on the 2n^2 edges), or
    ``@file.json`` holding a non-empty list of permutations, read as
    generators: the group they generate need not be listed whole."""
    text = text.strip()
    if text.startswith("@"):
        try:
            perms = json.loads(Path(text[1:]).read_text())
            if not isinstance(perms, list) or not perms:
                raise ValueError("expected a non-empty list of permutations")
            return from_generators(perms, len(perms[0]))
        except (OSError, ValueError, TypeError) as exc:
            raise ParseError(f"bad permutation list file '{text[1:]}': {exc}") from exc
    head, _, tail = text.partition(":")
    try:
        if head in ("cyclic", "symmetric", "tribes", "torus"):
            sizes = [int(tok) for tok in tail.split(",")]
            if min(sizes) < 1:
                raise ValueError("group sizes must be at least 1")
        if head == "cyclic":
            return cyclic_group(*sizes)
        if head == "symmetric":
            return symmetric_group_action(*sizes)
        if head == "tribes":
            return tribes_group(*sizes)
        if head == "torus":
            from .perco import TorusSpec  # perco imports this module

            return TorusSpec(*sizes).translation_group()
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad group spec '{text}'") from exc
    raise ParseError(f"unknown group spec '{text}' (cyclic:n, symmetric:n, tribes:l,k, torus:n, @file)")
