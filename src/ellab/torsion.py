"""Three-valued oracle for p-torsion sections on a configuration.

Three independent arguments feed the verdict:

* a sufficient divisibility criterion on the fiber indices (Yes);
* for p=2, a necessary parity bound, more than four odd indices rule a
  two-torsion section out (No);
* move existence: a p-torsion section forces a quotient surface with a
  valid configuration, so an empty move set rules the section out (No),
  while membership of the partition in a class table with a p-move proves
  existence (Yes).

The criteria are not jointly complete, so a genuine Unknown region remains.

Every argument reads only the multiset of fiber indices: moves keep
positions, so permuting the indices permutes the moves, and the other
arguments count or multiply indices.  The verdict is therefore decided once
per (partition, p) and cached with its one status, which every ordering of
the partition gets.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import prod

from . import catalog
from .configs import FiberConfig, _Record, descending, render_config
from .errors import MalformedInput, NotPrime, TorsionContradiction, UnsupportedPrime
from .isogeny import _is_prime, _move_primes, _move_specs

SUPPORTED_PRIMES = (2, 3, 5)


class TorsionAnswer(Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"

    def __str__(self):
        return self.value


class Provenance(Enum):
    SUFFICIENT_CRITERION = "SufficientCriterion"
    NECESSARY_CRITERION = "NecessaryCriterion"
    MOVE_NONEXISTENCE = "MoveNonexistence"
    CATALOG_TABLE = "CatalogTable"

    def __str__(self):
        return self.value


class TorsionStatus(_Record):
    __slots__ = ("answer", "provenances")

    def __init__(self, answer: TorsionAnswer, provenances: tuple[Provenance, ...] = ()):
        object.__setattr__(self, "answer", answer)
        object.__setattr__(self, "provenances", provenances)
        if (answer is TorsionAnswer.UNKNOWN) != (not provenances):
            raise MalformedInput("Yes/No must carry a provenance, Unknown none")

    def __str__(self):
        if not self.provenances:
            return str(self.answer)
        return f"{self.answer} ({', '.join(str(p) for p in self.provenances)})"


def _nondivisible(indices, p) -> list[int]:
    """The positions whose index p does not divide: the one divisibility
    scan of a query, read by both sufficient conditions and, for p=2, by
    the parity bound."""
    return [i for i, k in enumerate(indices) if k % p]


def _subset_criterion(indices, p, nondivisible) -> bool:
    """Second sufficient condition, quantified over all four-position subsets E
    containing every index not divisible by p.

    With k1..k4 the E-indices, n the fiber count and the rest running over
    the complement: for p=2 every remaining index must be divisible by 4 and
    (-1)^n k1k2k3k4 must differ from prod(k_i - 1) mod 8; for odd p the
    product k1k2k3k4 must be a quadratic non-residue mod p.  It is read only
    when the first condition fails, with at least four such indices, so E is
    exactly their positions when there are four, and there is none beyond.
    """
    if len(nondivisible) != 4:
        return False
    head = prod(indices[i] for i in nondivisible)
    rest = [k for i, k in enumerate(indices) if i not in nondivisible]
    if p == 2:
        return not any(k % 4 for k in rest) and \
            ((-1) ** len(indices) * head) % 8 != prod(k - 1 for k in rest) % 8
    return pow(head % p, (p - 1) // 2, p) == p - 1


def _sufficient(indices, p, nondivisible) -> bool:
    """The sufficient criterion: either condition holds, the first being at
    most three indices not divisible by p."""
    return len(nondivisible) <= 3 or _subset_criterion(indices, p, nondivisible)


def sufficient_torsion_criterion(config: FiberConfig, p: int) -> bool:
    """True guarantees a p-torsion section exists; False is inconclusive."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _sufficient(config.indices, p, _nondivisible(config.indices, p))


def excludes_two_torsion(config: FiberConfig) -> bool:
    """More than four odd indices: no two-torsion section can exist."""
    return len(_nondivisible(config.indices, 2)) > 4


@lru_cache(maxsize=1)
def _table_move_partitions() -> frozenset[tuple[tuple[int, ...], int]]:
    """(partition, p) pairs for which the class tables attest a p-move."""
    attested = set()
    for cls in catalog.ALL_CLASSES:
        rows = set(cls)
        for row in cls:
            partition = descending(row)
            for p in _move_primes(partition):
                if any(spec.target in rows for spec in _move_specs(row, p)):
                    attested.add((partition, p))
    return frozenset(attested)


@lru_cache(maxsize=None)  # keys: the 58 partitions of 12 into at least four parts x SUPPORTED_PRIMES
def _verdict(partition: tuple[int, ...], p: int):
    """The Yes provenances, the No provenances and the status of
    ``partition`` at p, built once through the validating constructor, or
    None when both fire (a contradiction).  Every argument reads only the
    multiset of indices (see the module docstring), so one verdict serves
    every ordering of the partition."""
    nondivisible = _nondivisible(partition, p)
    yes = ()
    if _sufficient(partition, p, nondivisible):
        yes = (Provenance.SUFFICIENT_CRITERION,)
    elif (partition, p) in _table_move_partitions():
        yes = (Provenance.CATALOG_TABLE,)
    no = ()
    if p == 2 and len(nondivisible) > 4:  # the parity bound: more than four odd indices
        no = (Provenance.NECESSARY_CRITERION,)
    if p not in _move_primes(partition) or not _move_specs(partition, p):
        no += (Provenance.MOVE_NONEXISTENCE,)
    if yes and no:
        return yes, no, None
    return yes, no, TorsionStatus(TorsionAnswer.YES if yes else TorsionAnswer.NO if no
                                  else TorsionAnswer.UNKNOWN, yes or no)


def torsion_status(config: FiberConfig, p: int) -> TorsionStatus:
    """Combine all arguments into Yes/No/Unknown with provenances.

    Yes via the sufficient criterion, or via a class table containing a
    p-move from this partition.  No via the parity bound (p=2) or because
    no candidate move exists.  Both No provenances are reported when both
    arguments fire.  The status is decided once per (partition, p) and
    cached (see :func:`_verdict`), so every ordering of a partition gets
    the same immutable object; a contradiction names the configuration as
    given.
    """
    if type(p) is not int:  # before the cache, whose keys compare 3.0 equal to 3
        raise MalformedInput(f"prime argument must be an int, got {p!r}")
    if p not in SUPPORTED_PRIMES:
        raise UnsupportedPrime(f"p must be one of {SUPPORTED_PRIMES}, got {p}")
    yes, no, status = _verdict(descending(config.indices), p)
    if status is None:
        raise TorsionContradiction(f"{render_config(config)} p={p}: both {yes[0]} "
                                   f"and {', '.join(map(str, no))} fired")
    return status
