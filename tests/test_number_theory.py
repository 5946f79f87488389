"""Primality and factorization in exact_reals, with sympy as the oracle.

sympy is a test dependency only: the package itself must not import it.
"""

import os
import subprocess
import sys
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import heightlab
from heightlab.bounds_reduction import CertificationError as BoundsCertificationError
from heightlab.cli import cmd_dispatch
from heightlab.exact_reals import _MR_BASES, BITS_CAP, PSI_13, CertificationError, factorint, is_prime

SETTINGS = settings(max_examples=300, deadline=None)

# psi_k: the least strong pseudoprime to the first k prime bases (Jaeschke 1993;
# Sorenson and Webster 2017): composite, yet a strong probable prime to each of those bases.
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    9: 3825123056546413051,
    12: 318665857834031151167461,
}


def _oracle(n):
    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def test_factorint_matches_sympy_up_to_1e5():
    for n in range(1, 10**5 + 1):
        assert factorint(n) == _oracle(n), n


@SETTINGS
@given(st.integers(1, 2**64 - 1))
def test_below_2_64_factorint_and_is_prime_match_sympy(n):
    assert factorint(n) == _oracle(n)
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2**31, 2**32), st.integers(2**31, 2**32))
def test_products_of_two_32_bit_primes_factor(a, b):
    p, q = sympy.prevprime(a), sympy.prevprime(b)
    assert factorint(p * q) == _oracle(p * q)


@SETTINGS
@given(st.integers(2, PSI_13 - 1))
def test_is_prime_below_psi_13_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_primes_near_psi_13_are_proved():
    below = sympy.prevprime(PSI_13)
    assert is_prime(below)
    assert is_prime(sympy.nextprime(PSI[12]))
    assert factorint(2 * below) == {2: 1, below: 1}


def test_bases_are_the_first_13_primes():
    # the proof below PSI_13 holds for exactly these bases
    assert _MR_BASES == tuple(sympy.primerange(2, 42))


@pytest.mark.parametrize("k", sorted(PSI))
def test_strong_pseudoprimes_are_composite(k):
    assert not is_prime(PSI[k])
    assert factorint(PSI[k]) == _oracle(PSI[k])


def test_psi_13_cannot_be_certified():
    with pytest.raises(CertificationError):
        is_prime(PSI_13)
    assert BoundsCertificationError is CertificationError


def test_rho_splits_a_product_above_psi_13():
    n = (2**31 - 1) * (2**61 - 1)
    assert n > PSI_13
    assert factorint(n) == {2**31 - 1: 1, 2**61 - 1: 1}


def test_two_largest_primes_below_2_32():
    p = sympy.prevprime(2**32)
    q = sympy.prevprime(p)
    assert factorint(p * q) == {q: 1, p: 1}


def test_rho_budget_refuses_a_hard_semiprime_quickly():
    n = sympy.prevprime(2**48) * sympy.prevprime(2**47)
    start = time.perf_counter()
    with pytest.raises(CertificationError):
        factorint(n)
    assert time.perf_counter() - start < 1


def test_large_cofactor_refused_without_work():
    p = sympy.nextprime(2**BITS_CAP)
    with pytest.raises(CertificationError):
        is_prime(p)
    with pytest.raises(CertificationError):
        factorint(4 * p)
    assert factorint(2**500 * 3**7) == {2: 500, 3: 7}
    assert not is_prime(2**500 * 3)


def test_uncertifiable_bounds_input_exits_5_quickly(capsys):
    n = (2**61 - 1) * (2**89 - 1)
    start = time.perf_counter()
    assert cmd_dispatch(["bounds", "--thm", "1.1", "--n", str(n), "--delta", "1"]) == 5
    assert time.perf_counter() - start < 1
    assert "could not certify" in capsys.readouterr().err


def test_cli_import_leaves_sympy_out():
    code = "import heightlab.cli, sys; assert 'sympy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(heightlab.__file__)))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
