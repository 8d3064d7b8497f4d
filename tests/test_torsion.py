import itertools
import random
from collections import Counter
from math import prod

import pytest

from ellab.catalog import ADMISSIBLE_PARTITIONS, ALL_CLASSES
from ellab.configs import FiberConfig, default_points, parse_config, render_config
from ellab.errors import MalformedInput, NotPrime, TorsionContradiction, UnsupportedPrime
from ellab.isogeny import candidate_moves
from ellab.torsion import (Provenance, TorsionAnswer, TorsionStatus,
                           _nondivisible, _verdict, excludes_two_torsion,
                           sufficient_torsion_criterion, torsion_status)


def cfg(indices):
    return FiberConfig(default_points(len(indices)), tuple(indices))


@pytest.mark.parametrize("indices,p,expected", [
    ((4, 4, 2, 2), 2, True),        # no odd index at all
    ((3, 3, 3, 2, 1), 3, True),     # only 2 and 1 escape divisibility by 3
    ((1, 1, 8, 1, 1), 2, False),    # (-1)^5 * 1 = 7 = 8 - 1 mod 8, so the subset test fails
    ((5, 3, 2, 1, 1), 2, False),    # four odd indices and the leftover 2 is not divisible by 4
    ((3, 3, 3, 3), 3, True),
    ((5, 5, 1, 1), 5, True),
    ((5, 4, 1, 1, 1), 2, False),    # (-1)^5 * 5 = 3 = 4 - 1 mod 8
    ((5, 4, 1, 1, 1), 5, False),    # 4 is a square mod 5
    ((1, 1, 1, 1, 4, 4), 2, False),  # 1 = 3 * 3 mod 8
])
def test_sufficient_criterion(indices, p, expected):
    assert sufficient_torsion_criterion(cfg(indices), p) is expected


def test_sufficient_criterion_rejects_composite():
    with pytest.raises(NotPrime):
        sufficient_torsion_criterion(cfg((4, 4, 2, 2)), 4)


@pytest.mark.parametrize("indices,expected", [
    ((3, 3, 1, 1, 1, 1, 1, 1), True),
    ((1, 1, 8, 1, 1), False),
    ((4, 4, 2, 2), False),
])
def test_excludes_two_torsion(indices, expected):
    assert excludes_two_torsion(cfg(indices)) is expected


def test_status_catalog_table_provenance():
    status = torsion_status(parse_config("11811"), 2)
    assert status.answer is TorsionAnswer.YES
    assert status.provenances == (Provenance.CATALOG_TABLE,)


def test_status_move_nonexistence():
    status = torsion_status(parse_config("72111"), 2)
    assert status.answer is TorsionAnswer.NO
    assert status.provenances == (Provenance.MOVE_NONEXISTENCE,)


def test_status_sufficient():
    status = torsion_status(parse_config("3333"), 3)
    assert status.answer is TorsionAnswer.YES
    assert Provenance.SUFFICIENT_CRITERION in status.provenances


def test_status_reports_both_no_provenances():
    status = torsion_status(cfg((3, 3, 1, 1, 1, 1, 1, 1)), 2)
    assert status.answer is TorsionAnswer.NO
    assert status.provenances == (Provenance.NECESSARY_CRITERION,
                                  Provenance.MOVE_NONEXISTENCE)


def test_status_unknown():
    status = torsion_status(cfg((1, 1, 1, 1, 4, 4)), 2)
    assert status.answer is TorsionAnswer.UNKNOWN
    assert status.provenances == ()
    assert str(status) == "Unknown"


def test_status_rejects_unsupported_prime():
    with pytest.raises(UnsupportedPrime):
        torsion_status(parse_config("3333"), 7)


def test_status_str():
    assert str(torsion_status(parse_config("53211"), 2)) == "No (MoveNonexistence)"


def test_exclusion_kills_all_two_moves():
    # necessary criterion and move generation agree: with more than four odd
    # indices no even subset can reach the required sum
    rng = random.Random(7)
    samples = 0
    while samples < 200:
        n = rng.randint(6, 12)
        indices = [1] * n
        budget = 12 - n
        while budget:
            i = rng.randrange(n)
            indices[i] += 1
            budget -= 1
        config = cfg(indices)
        if not excludes_two_torsion(config):
            continue
        samples += 1
        assert candidate_moves(config, 2) == ()


def test_condition_one_monotone_under_divisible_append():
    rng = random.Random(11)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        indices = tuple(rng.randint(1, 9) for _ in range(rng.randint(4, 9)))
        if len(_nondivisible(indices, p)) <= 3:
            longer = indices + (p * rng.randint(1, 4),)
            assert len(_nondivisible(longer, p)) <= 3


def test_soundness_sweep_over_catalog_rows():
    for cls in ALL_CLASSES:
        for row in cls:
            config = cfg(row)
            for p in (2, 3, 5):
                status = torsion_status(config, p)  # raises on contradiction
                yes = sufficient_torsion_criterion(config, p)
                no = p == 2 and excludes_two_torsion(config)
                assert not (yes and no)
                assert not (yes and not candidate_moves(config, p))


COMPOSITIONS = [tuple(b - a for a, b in zip((0,) + cuts, cuts + (12,)))
                for n_cuts in range(3, 12)
                for cuts in itertools.combinations(range(1, 12), n_cuts)]


def reference_moves(indices, p):
    """Every p-move out of ``indices`` as (divided positions, target): the
    divided indices are divisible by p and sum to 12p/(p+1), and a target of
    at most five fibers has an admissible partition."""
    if 12 * p % (p + 1):
        return []
    divisible = [i for i, k in enumerate(indices) if k % p == 0]
    moves = []
    for size in range(1, len(divisible) + 1):
        for divided in itertools.combinations(divisible, size):
            if sum(indices[i] for i in divided) != 12 * p // (p + 1):
                continue
            target = tuple(k // p if i in divided else p * k for i, k in enumerate(indices))
            if len(target) > 5 or tuple(sorted(target, reverse=True)) in ADMISSIBLE_PARTITIONS:
                moves.append((divided, target))
    return moves


def reference_sufficient(indices, p):
    """The divisibility criterion as the module docstring states it: at most
    three indices not divisible by p, or a four-position subset E holding all
    of them whose indices pass the residue test."""
    n = len(indices)
    nondivisible = {i for i, k in enumerate(indices) if k % p}
    if len(nondivisible) <= 3:
        return True
    for subset in itertools.combinations(range(n), 4):
        if not nondivisible <= set(subset):
            continue
        head = prod(indices[i] for i in subset)
        rest = [k for i, k in enumerate(indices) if i not in subset]
        if p == 2:
            if all(k % 4 == 0 for k in rest) and (-1) ** n * head % 8 != prod(k - 1 for k in rest) % 8:
                return True
        elif pow(head, (p - 1) // 2, p) == p - 1:
            return True
    return False


def test_status_equals_the_three_arguments_on_every_composition():
    """torsion_status over all 1,981 compositions and p in {2, 3, 5} equals a
    reference built from the sufficient criterion, the parity bound and move
    existence (with the class tables attesting moves), message for message."""
    attested = {(tuple(sorted(row, reverse=True)), p)
                for cls in ALL_CLASSES for row in cls for p in (2, 3, 5)
                for _, target in reference_moves(row, p) if target in cls}
    failing = Counter()
    for composition in COMPOSITIONS:
        config = cfg(composition)
        for p in (2, 3, 5):
            yes = ["SufficientCriterion"] if reference_sufficient(composition, p) else \
                ["CatalogTable"] if (tuple(sorted(composition, reverse=True)), p) in attested else []
            no = ["NecessaryCriterion"] if p == 2 and sum(k % 2 for k in composition) > 4 else []
            if not reference_moves(composition, p):
                no.append("MoveNonexistence")
            if yes and no:
                failing[p] += 1
                expected = (f"{render_config(config)} p={p}: both {yes[0]} "
                            f"and {', '.join(no)} fired")
                with pytest.raises(TorsionContradiction) as raised:
                    torsion_status(config, p)
                assert str(raised.value) == expected
                continue
            answer, provenances = ("Yes", yes) if yes else ("No", no) if no else ("Unknown", [])
            expected = f"{answer} ({', '.join(provenances)})" if provenances else answer
            assert str(torsion_status(config, p)) == expected, (composition, p)
    assert failing == {2: 172, 3: 116, 5: 108}
    with pytest.raises(NotPrime):
        sufficient_torsion_criterion(cfg(COMPOSITIONS[0]), 4)
    with pytest.raises(UnsupportedPrime):
        torsion_status(cfg(COMPOSITIONS[0]), 7)


def test_every_argument_reads_only_the_multiset():
    """The premise of deciding the verdict once per (partition, p), checked
    with the references above rather than the program: over every
    composition and p in {2, 3, 5}, the sufficient criterion, the parity
    count, the move targets up to order (so move existence) and the table
    attestation answer the same for a composition as for its descending
    partition."""
    rows = {}
    for cls in ALL_CLASSES:
        for row in cls:
            rows.setdefault(tuple(sorted(row)), []).append((row, cls))

    def attested(indices, p):
        """A class table holds a p-move out of a row with the multiset of ``indices``."""
        return any(target in cls for row, cls in rows.get(tuple(sorted(indices)), ())
                   for _, target in reference_moves(row, p))

    def targets(indices, p):
        return sorted(sorted(target) for _, target in reference_moves(indices, p))

    for composition in COMPOSITIONS:
        partition = tuple(sorted(composition, reverse=True))
        assert sum(k % 2 for k in composition) == sum(k % 2 for k in partition)
        for p in (2, 3, 5):
            assert reference_sufficient(composition, p) == reference_sufficient(partition, p)
            assert targets(composition, p) == targets(partition, p), (composition, p)
            assert attested(composition, p) == attested(partition, p), (composition, p)


def test_cold_pass_decides_one_verdict_per_partition_and_prime():
    """A cold pass of torsion_status over every composition and p in
    {2, 3, 5} computes 174 verdicts: 58 partitions times three primes."""
    _verdict.cache_clear()
    for composition in COMPOSITIONS:
        for p in (2, 3, 5):
            try:
                torsion_status(cfg(composition), p)
            except TorsionContradiction:
                pass
    info = _verdict.cache_info()
    assert info.misses == info.currsize == 174
    assert info.hits == 3 * len(COMPOSITIONS) - 174 == 5769


def test_orderings_of_one_partition_get_equal_distinct_statuses():
    first, second = torsion_status(parse_config("9111"), 3), torsion_status(parse_config("1119"), 3)
    assert first == second and first is not second
    assert str(first) == "Yes (SufficientCriterion)"


def test_contradiction_names_each_ordering_as_given():
    _verdict.cache_clear()
    for text in ("1137", "7311"):
        with pytest.raises(TorsionContradiction) as raised:
            torsion_status(parse_config(text), 2)
        assert str(raised.value) == f"{text} p=2: both SufficientCriterion and MoveNonexistence fired"
    assert _verdict.cache_info().misses == 1


@pytest.mark.parametrize("answer,provenances", [
    (TorsionAnswer.YES, ()),
    (TorsionAnswer.NO, ()),
    (TorsionAnswer.UNKNOWN, (Provenance.SUFFICIENT_CRITERION,)),
])
def test_status_constructor_rejects_bad_arguments_as_input_errors(answer, provenances):
    with pytest.raises(MalformedInput, match="Yes/No must carry a provenance, Unknown none"):
        TorsionStatus(answer, provenances)
