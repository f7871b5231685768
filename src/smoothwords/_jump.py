"""Fiduccia's jump: x^e mod a monic chi, the one home of that step.

A sequence that obeys the order-d linear recurrence whose characteristic
polynomial is chi = x^d + sum_j low[j] x^j has its term e + t equal to
sum_i r_i (term t + i) for r = x^e mod chi (C. M. Fiduccia, SIAM J.
Comput. 14 (1985)), so d consecutive terms and r give any later one.  r
comes from repeated squaring.  Each square packs r into one integer in
fixed-width signed slots (Kronecker substitution; D. Harvey, J. Symb.
Comput. 44 (2009)), so CPython's Karatsuba multiplies it, and each
reduction mod chi, after a square or a step by x, is one row of d
big-by-small products per degree past d - 1: about d^2 log e products in
all.

It imports no engine: `transfer` jumps through the characteristic
polynomial of the transfer matrix and `genfunc` through the reversed
denominator of a generating function, each with heads of its own.
"""
from __future__ import annotations

import operator


def _x_power_mod(e: int, low: list[int]) -> list[int]:
    """Coefficients of x^e mod chi, chi = x^d + sum_j low[j] x^j (d >= 1),
    by left-to-right binary powering from the longest prefix of e below d."""
    d = len(low)
    top = 0
    while e >> top >= d:
        top += 1
    r = [0] * d
    r[e >> top] = 1
    for bit in range(top - 1, -1, -1):
        r = _reduced(_square(r), low)
        if e >> bit & 1:
            r = _reduced([0, *r], low)
    return r


def _reduced(s: list[int], low: list[int]) -> list[int]:
    """``s`` (ascending coefficients) mod chi, in place, one row per
    degree i >= d: x^i = -sum_j low[j] x^(i-d+j), d big-by-small products."""
    d = len(low)
    for i in range(len(s) - 1, d - 1, -1):
        c = s.pop()
        if c:
            s[i - d:] = map(operator.sub, s[i - d:], map(c.__mul__, low))
    return s


def _square(r: list[int]) -> list[int]:
    """Coefficients of r(x)^2 from one integer square: the slots are wide
    enough for |coefficient| <= d * max|r_i|^2 with a sign bit to spare."""
    bits = 2 * max(map(int.bit_length, r)) + len(r).bit_length() + 1
    width = -(-bits // 8)
    packed = _pack(r, width)
    packed *= packed  # frees the factor before the slots are read
    return _unpack(packed, 2 * len(r) - 1, width)


def _pack(coeffs: list[int], width: int) -> int:
    """sum_i coeffs[i] * 256^(width*i); needs |coeffs[i]| < 2^(8*width-1).

    Each slot holds coeffs[i] plus the bias 2^(8*width-1), so every slot
    is a nonnegative byte string; subtracting the biases afterwards takes
    one big subtraction instead of a borrow per slot."""
    bias = 1 << (8 * width - 1)
    raw = b"".join((c + bias).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _biases(len(coeffs), width)


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The ``count`` signed slots of ``value``, the inverse of `_pack`."""
    raw = (value + _biases(count, width)).to_bytes(count * width, "little")
    bias = 1 << (8 * width - 1)
    return [int.from_bytes(raw[i:i + width], "little") - bias
            for i in range(0, count * width, width)]


def _biases(count: int, width: int) -> int:
    """The bias 2^(8*width-1) in each of ``count`` slots."""
    return int.from_bytes(
        (1 << (8 * width - 1)).to_bytes(width, "little") * count, "little")
