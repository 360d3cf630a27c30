"""find_proper_submodule reads its line off one kernel per e1 eigenvalue.

A nonzero vector killed by s12 and s21 with e1 v in {0, v} spans an
invariant line by construction, so the search takes the first vector of
the first nonempty kernel and re-proves nothing.  The answers are held
byte for byte to the search that built both kernels and checked each
candidate by rank, by the digest (conftest.digest) of its answers, and
the work is counted in forward passes of the elimination kernel with the
quiver form already warm.
"""

import random

import weyldeform.linalg
import weyldeform.reps
from weyldeform import find_proper_submodule, quiver_form

from conftest import _eigen_kernels, digest, rand_unimodular
from test_reps import ALL_LABELS_3, SAMPLES, block_rep, random_blocks, rep_for


def _inputs():
    """The listed representatives of dimension at most 3 at every sample,
    then the seeded conjugates of the every-non-simple-rep test."""
    reps = [rep_for(label, value) for label in ALL_LABELS_3 for value in SAMPLES]
    rng = random.Random(828)
    for _ in range(500):
        n = rng.randint(1, 3)
        reps.append(block_rep(*random_blocks(rng, n)).conjugate(rand_unimodular(rng, n)))
    return reps


INPUTS = _inputs()


def _counting(monkeypatch) -> list:
    # every exit of the elimination kernel runs its forward pass once
    real = weyldeform.linalg._echelon
    calls = []

    def counted(rows):
        calls.append(None)
        return real(rows)

    monkeypatch.setattr("weyldeform.linalg._echelon", counted)
    return calls


# the digest of the reprs of the rank-checked search's answers on INPUTS
RANK_CHECKED_SHA256 = "d793b9caf3c30734585b41b6474d30008fbcd5858352e3da34454aaa9475bfdd"


def test_answers_equal_the_rank_checked_search_byte_for_byte():
    assert len(INPUTS) == 580
    answers = [find_proper_submodule(rep) for rep in INPUTS]
    assert digest([repr(got) for got in answers]) == RANK_CHECKED_SHA256
    lines = sum(got is not None for got in answers)
    assert 0 < lines < len(INPUTS)


def test_one_elimination_per_kernel_tried(monkeypatch):
    # 1 when e1's 0-eigenspace holds a line, else 2; none in dimension 1
    wants = [0 if rep.n == 1 else 1 if _eigen_kernels(*rep.triple())[0] else 2
             for rep in INPUTS]
    for rep in INPUTS:
        quiver_form(rep)
    calls = _counting(monkeypatch)
    for rep, want in zip(INPUTS, wants):
        del calls[:]
        find_proper_submodule(rep)
        assert len(calls) == want, rep.triple()
    # the rank-checked search made 2,218 on the same inputs
    assert sum(wants) == 574
