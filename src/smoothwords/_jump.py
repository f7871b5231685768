"""Fiduccia's jump: term e of a linear recurrence, the one home of that step.

A sequence t that obeys the order-d linear recurrence whose characteristic
polynomial is chi = x^d + sum_j low[j] x^j has t_e = L(x^e) for the linear
form L(x^i) = t_i, which vanishes on the multiples of chi (C. M. Fiduccia,
SIAM J. Comput. 14 (1985)), so d terms and x^e mod chi give any later one.
`_term` stops the powering one step short: with s = x^(e//2) mod chi
and s' = s, or x s mod chi for odd e, t_e = L(s s') = sum_{a,b} s_a s'_b
t_(a+b) from the first 2d - 1 terms, so the last square, twice as wide as
any before it, and its reduction are never formed (the transposition
principle; Bostan, Lecerf and Schost, ISSAC 2003).  s comes from repeated
squaring.  Each square packs s into one integer in fixed-width signed
slots (Kronecker substitution; D. Harvey, J. Symb. Comput. 44 (2009)), so
CPython's Karatsuba multiplies it, and each reduction mod chi, after a
square or a step by x, is one row of d big-by-small products per degree
past d - 1: about d^2 log e products in all, and d^2 more for the form.

It imports no engine: `transfer` jumps through the characteristic
polynomial of the transfer matrix and `genfunc` through the reversed
denominator of a generating function, each with heads of its own.
"""
from __future__ import annotations

import operator


def _term(e: int, low: list[int], terms: list[int]) -> int:
    """Term e of the sequence whose first d = len(low) terms are ``terms``
    and which obeys chi = x^d + sum_j low[j] x^j: L(s s2) for the s and
    s2 = s' above, with the terms extended to 2d - 1 by the recurrence
    t_(m+d) = -sum_j low[j] t_(m+j)."""
    d = len(low)
    t = list(terms)
    for m in range(d - 1):
        t.append(-sum(map(operator.mul, low, t[m:m + d])))
    s = _x_power_mod(e >> 1, low)
    s2 = _reduced([0, *s], low) if e & 1 else s
    return sum(a * sum(map(operator.mul, s2, t[i:i + d]))
               for i, a in enumerate(s))


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
