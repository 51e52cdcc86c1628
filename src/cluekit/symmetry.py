"""Coordinate permutation groups: invariance and transitivity checks, and
the averaging operator that symmetrizes a function.

A permutation gamma maps coordinate v to gamma[v].  It acts on configurations
by relocating values, (gamma.w)_{gamma(v)} = w_v, and on functions by
(gamma.f)(w) = f(gamma^{-1}.w); a function is invariant when every group
element fixes it.  Invariance under a generating set implies invariance
under the whole group, so checks run over generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FunctionTable, per_object, permute
from .errors import GuardError

CLOSURE_CAP = 10**6
INVARIANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Permutation group on [n], stored as explicit element tuples.

    ``generators`` is the defining set (== elements when given explicitly);
    ``elements`` is the full closure, computed once and capped at 10^6.
    """

    n: int
    generators: tuple[tuple[int, ...], ...]
    _explicit: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        for perm in self.generators:
            _check_perm(perm, self.n)
        object.__setattr__(self, "_cache", {})

    @per_object
    def elements(self) -> tuple[tuple[int, ...], ...]:
        if self._explicit is not None:
            return self._explicit
        return _closure(self.generators, self.n)

    def __len__(self):
        return len(self.elements())


def _check_perm(perm: tuple[int, ...], n: int):
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of range({n})")


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a after b): v -> a[b[v]]."""
    return tuple(a[b[v]] for v in range(len(a)))


def _closure(generators, n) -> tuple[tuple[int, ...], ...]:
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for gen in generators:
                composed = _compose(gen, elem)
                if composed not in seen:
                    seen.add(composed)
                    nxt.append(composed)
                    if len(seen) > CLOSURE_CAP:
                        raise GuardError("group closure exceeds the 10^6 element cap")
        frontier = nxt
    return tuple(sorted(seen))


def from_elements(perms, n: int) -> GroupAction:
    """Build from an explicit element list; verifies identity and closure."""
    elems = tuple(tuple(p) for p in perms)
    for p in elems:
        _check_perm(p, n)
    elem_set = set(elems)
    if tuple(range(n)) not in elem_set:
        raise ValueError("element list must contain the identity")
    for a in elems:
        for b in elems:
            if _compose(a, b) not in elem_set:
                raise ValueError("element list is not closed under composition")
    return GroupAction(n, elems, _explicit=elems)


def from_generators(gens, n: int) -> GroupAction:
    return GroupAction(n, tuple(tuple(g) for g in gens))


# -- stock groups ------------------------------------------------------------
def cyclic_group(n: int) -> GroupAction:
    shift = tuple((v + 1) % n for v in range(n))
    return from_generators([shift], n)


def symmetric_group_action(n: int) -> GroupAction:
    """Full symmetric group via its two standard generators (closure gated)."""
    gens = []
    if n >= 2:
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        gens.append(tuple(swap))
        gens.append(tuple((v + 1) % n for v in range(n)))
    else:
        gens.append((0,))
    return from_generators(gens, n)


def stabilizer_of(coord: int, n: int) -> GroupAction:
    """All permutations fixing one coordinate, via generators on the rest."""
    others = [v for v in range(n) if v != coord]
    gens = []
    if len(others) >= 2:
        swap = list(range(n))
        swap[others[0]], swap[others[1]] = swap[others[1]], swap[others[0]]
        gens.append(tuple(swap))
        cycle = list(range(n))
        for i, v in enumerate(others):
            cycle[v] = others[(i + 1) % len(others)]
        gens.append(tuple(cycle))
    else:
        gens.append(tuple(range(n)))
    return from_generators(gens, n)


def tribes_group(tribe_size: int, tribe_count: int) -> GroupAction:
    """Permutations preserving the tribe partition: within-tribe shuffles plus
    tribe swaps (transitive on the l*k coordinates)."""
    n = tribe_size * tribe_count
    gens = []
    if tribe_size >= 2:
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        gens.append(tuple(swap))
        cycle = list(range(n))
        for i in range(tribe_size):
            cycle[i] = (i + 1) % tribe_size
        gens.append(tuple(cycle))
    if tribe_count >= 2:
        block = list(range(n))
        for i in range(tribe_size):
            block[i], block[tribe_size + i] = block[tribe_size + i], block[i]
        gens.append(tuple(block))
        rotate = [(v + tribe_size) % n for v in range(n)]
        gens.append(tuple(rotate))
    if not gens:
        gens.append(tuple(range(n)))
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
    ``@file.json`` holding an explicit list of permutations."""
    from .errors import ParseError

    text = text.strip()
    if text.startswith("@"):
        import json
        from pathlib import Path

        try:
            perms = json.loads(Path(text[1:]).read_text())
            return from_elements([tuple(p) for p in perms], len(perms[0]))
        except (OSError, ValueError, IndexError, TypeError) as exc:
            raise ParseError(f"bad permutation list file '{text[1:]}': {exc}") from exc
    head, _, tail = text.partition(":")
    try:
        if head == "cyclic":
            return cyclic_group(int(tail))
        if head == "symmetric":
            return symmetric_group_action(int(tail))
        if head == "tribes":
            l, k = (int(tok) for tok in tail.split(","))
            return tribes_group(l, k)
        if head == "torus":
            from .perco import TorusSpec

            return TorusSpec(int(tail)).translation_group()
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad group spec '{text}'") from exc
    raise ParseError(f"unknown group spec '{text}' (cyclic:n, symmetric:n, tribes:l,k, torus:n, @file)")
