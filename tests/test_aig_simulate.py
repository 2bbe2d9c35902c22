"""Tests for bit-parallel AIG simulation."""

import pytest

from repro.aig.aig import Aig, lit_not
from repro.aig.simulate import (
    po_tables,
    po_words,
    simulate_complete,
    simulate_words,
)
from repro.errors import AigError


def test_simulate_words_basic_gates():
    aig = Aig()
    a, b = aig.add_pis(2)
    f_and = aig.add_and(a, b)
    f_or = aig.add_or(a, b)
    f_xor = aig.add_xor(a, b)
    aig.add_po(f_and)
    aig.add_po(f_or)
    aig.add_po(f_xor)
    wa, wb = 0b1100, 0b1010
    outs = po_words(aig, simulate_words(aig, [wa, wb]))
    assert outs[0] & 0xF == wa & wb
    assert outs[1] & 0xF == wa | wb
    assert outs[2] & 0xF == wa ^ wb


def test_simulate_words_wrong_arity():
    aig = Aig()
    aig.add_pis(3)
    with pytest.raises(AigError):
        simulate_words(aig, [1, 2])


def test_complemented_po_word():
    aig = Aig()
    a = aig.add_pi()
    aig.add_po(lit_not(a))
    out = po_words(aig, simulate_words(aig, [0b0110]))[0]
    assert out & 0xF == 0b1001


def test_simulate_complete_matches_word_simulation():
    from tests.conftest import make_random_aig
    aig = make_random_aig(5, 40, seed=9)
    tables = po_tables(aig)
    # Check every row against single-pattern word simulation
    for row in range(32):
        words = [(0xFFFFFFFFFFFFFFFF if (row >> i) & 1 else 0)
                 for i in range(5)]
        outs = po_words(aig, simulate_words(aig, words))
        for table, word in zip(tables, outs):
            assert ((table >> row) & 1) == (word & 1)


def test_simulate_complete_too_many_inputs():
    aig = Aig()
    aig.add_pis(25)
    with pytest.raises(AigError):
        simulate_complete(aig)


def test_dangling_nodes_also_simulated():
    aig = Aig()
    a, b = aig.add_pis(2)
    used = aig.add_and(a, b)
    dangling = aig.add_and(a, lit_not(b))
    aig.add_po(used)
    values = simulate_words(aig, [0b1100, 0b1010])
    assert (dangling >> 1) in values
