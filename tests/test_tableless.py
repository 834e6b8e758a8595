"""Arithmetic above the log-table cap (2**18 elements).

These fields multiply by polynomial products modulo the modulus (at q = 2
a shift-xor product on ints, elsewhere on base-q digits), invert with
extended Euclid, raise to powers by square-and-multiply and apply the
Frobenius through one linear map per exponent, built on first use.  Every
check compares two independent routes through that code.
"""

import pytest

from conftest import make_rng, rand_elem, rand_nonzero

from rankdec import decode_general, encode, field_create
from rankdec.channel import random_code, random_error_vector, random_message

TABLELESS = [(2, 19), (3, 12), (4, 10)]


@pytest.mark.parametrize("q,m", TABLELESS)
def test_tableless_field_axioms(q, m):
    ctx = field_create(q, m)
    assert ctx.order > 1 << 18
    rng = make_rng(q * 100 + m)
    for _ in range(10):
        x, y, z = (rand_elem(ctx, rng) for _ in range(3))
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        nz = rand_nonzero(ctx, rng)
        assert ctx.mul(nz, ctx.inv(nz)) == 1
        assert ctx.div(x, nz) == ctx.mul(x, ctx.inv(nz))


@pytest.mark.parametrize("q,m", TABLELESS)
def test_tableless_frobenius_trace_and_scalars(q, m):
    ctx = field_create(q, m)
    rng = make_rng(q * 1000 + m)
    for _ in range(10):
        x = rand_elem(ctx, rng)
        assert ctx.frob(x, 1) == ctx.pow(x, q)
        i, j = rng.below(m), rng.below(m)
        assert ctx.frob(ctx.frob(x, i), j) == ctx.frob(x, i + j)
        assert ctx.frob(x, m) == x
        assert 0 <= ctx.trace(x) < q
        c = rng.below(q)
        assert ctx.smul(c, x) == ctx.mul(c, x)


def test_tableless_lifted_decode_round_trip():
    ctx = field_create(3, 12)
    n, k, t = 4, 2, 1
    code = random_code(ctx, n, k, seed=31)
    msg = random_message(ctx, k, seed=32)
    err = random_error_vector(ctx, n, t, seed=33)
    word = tuple(ctx.add(a, b) for a, b in zip(encode(code, msg), err))
    out = decode_general(code, word, t)
    assert out.ok
    assert out.message == msg
    assert out.error == err
