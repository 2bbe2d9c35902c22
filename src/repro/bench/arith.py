"""Arithmetic benchmark generators (adder, mult, div, sqrt, log2, sin, ...).

Wraps the word-level builders of :mod:`repro.aig.compose` into the EPFL
arithmetic benchmark profiles, plus digit-recurrence implementations of the
transcendental ones:

* ``log2`` — binary logarithm by the repeated-squaring digit recurrence
  (normalize, then one mantissa squaring per fraction bit), the same
  multiplier-dominated character as the EPFL ``log2``.
* ``sin`` — CORDIC rotation mode: shift-and-add iterations with baked-in
  arctangent constants.
"""

from __future__ import annotations

import math
from typing import List

from repro.aig.aig import CONST0, Aig, lit_not
from repro.aig.compose import (
    barrel_shifter,
    constant_word,
    divider,
    hypotenuse,
    isqrt,
    multiplier,
    mux_word,
    ripple_adder,
    square,
    subtractor,
)


def adder(width: int = 128) -> Aig:
    """EPFL ``adder``: two *width*-bit operands → sum and carry."""
    aig = Aig(f"adder{width}")
    a = aig.add_pis(width, "a")
    b = aig.add_pis(width, "b")
    total, carry = ripple_adder(aig, a, b)
    for i, s in enumerate(total):
        aig.add_po(s, f"s{i}")
    aig.add_po(carry, "cout")
    return aig


def bar(data_width: int = 128) -> Aig:
    """EPFL ``bar``: barrel shifter (128-bit data, log2 shift amount)."""
    aig = Aig(f"bar{data_width}")
    data = aig.add_pis(data_width, "d")
    shift = aig.add_pis(max(1, (data_width - 1).bit_length()), "s")
    out = barrel_shifter(aig, data, shift)
    for i, o in enumerate(out):
        aig.add_po(o, f"q{i}")
    return aig


def mult(width: int = 128) -> Aig:
    """EPFL ``mult``: *width* × *width* unsigned array multiplier."""
    aig = Aig(f"mult{width}")
    a = aig.add_pis(width, "a")
    b = aig.add_pis(width, "b")
    for i, p in enumerate(multiplier(aig, a, b)):
        aig.add_po(p, f"p{i}")
    return aig


def div(width: int = 128) -> Aig:
    """EPFL ``div``: restoring divider, quotient and remainder outputs."""
    aig = Aig(f"div{width}")
    num = aig.add_pis(width, "n")
    den = aig.add_pis(width, "d")
    quotient, remainder = divider(aig, num, den)
    for i, q in enumerate(quotient):
        aig.add_po(q, f"q{i}")
    for i, r in enumerate(remainder):
        aig.add_po(r, f"r{i}")
    return aig


def sqrt(width: int = 128) -> Aig:
    """EPFL ``sqrt``: integer square root of a *width*-bit operand."""
    aig = Aig(f"sqrt{width}")
    x = aig.add_pis(width, "x")
    for i, r in enumerate(isqrt(aig, x)):
        aig.add_po(r, f"r{i}")
    return aig


def square_unit(width: int = 64) -> Aig:
    """EPFL ``square``: squarer with ``2*width`` outputs."""
    aig = Aig(f"square{width}")
    x = aig.add_pis(width, "x")
    for i, s in enumerate(square(aig, x)):
        aig.add_po(s, f"s{i}")
    return aig


def hypotenuse_unit(width: int = 128) -> Aig:
    """EPFL ``hypotenuse``: ``isqrt(a² + b²)`` of two *width*-bit operands."""
    aig = Aig(f"hyp{width}")
    a = aig.add_pis(width, "a")
    b = aig.add_pis(width, "b")
    for i, h in enumerate(hypotenuse(aig, a, b)):
        aig.add_po(h, f"h{i}")
    return aig


def log2_unit(width: int = 32, fraction_bits: int = None) -> Aig:
    """EPFL ``log2``: fixed-point binary logarithm of a *width*-bit input.

    Digit recurrence: the integer part is the index of the leading one
    (priority encoded); the mantissa is normalized with a one-hot-controlled
    shifter, and each fraction bit comes from squaring the mantissa and
    testing for overflow past 2.0.
    """
    if fraction_bits is None:
        fraction_bits = width - (width - 1).bit_length()
    aig = Aig(f"log2_{width}")
    x = aig.add_pis(width, "x")
    int_bits = max(1, (width - 1).bit_length())
    # Leading-one detection (from the MSB down).
    found = CONST0
    leading: List[int] = []
    for i in range(width - 1, -1, -1):
        sel = aig.add_and(x[i], lit_not(found))
        found = aig.add_or(found, x[i])
        leading.append(sel)  # leading[j] corresponds to bit width-1-j
    leading.reverse()  # leading[i] = 1 iff bit i is the leading one
    # Integer part of the log.
    for b in range(int_bits):
        aig.add_po(aig.add_or_multi(
            [leading[i] for i in range(width) if (i >> b) & 1]), f"int{b}")
    # Normalized mantissa m in [1, 2): m = x >> leading_index, fixed point
    # with `frac_precision` bits after the binary point.
    precision = fraction_bits + 2
    mantissa = [CONST0] * precision + [found]  # 1.000... when x != 0
    for p in range(1, precision + 1):
        # bit at fractional position p = x[leading_index - p]
        sources = [aig.add_and(leading[i], x[i - p])
                   for i in range(p, width)]
        mantissa[precision - p] = aig.add_or_multi(sources)
    # Fraction bits by repeated squaring.
    for fb in range(fraction_bits):
        squared = multiplier(aig, mantissa, mantissa)
        # mantissa has `precision` fraction bits; squared has 2*precision.
        # Value >= 2.0 iff bit (2*precision + 1) of squared is set.
        overflow_bit = squared[2 * precision + 1]
        aig.add_po(overflow_bit, f"frac{fb}")
        # If overflowed, shift right one (divide by 2).
        shifted = squared[1:2 * precision + 2]
        kept = squared[0:2 * precision + 1]
        selected = mux_word(aig, overflow_bit, shifted, kept)
        # Re-truncate to `precision` fraction bits (keep the top bits).
        mantissa = selected[precision:]
    return aig


def sin_unit(width: int = 24, iterations: int = None) -> Aig:
    """EPFL ``sin``: fixed-point sine of a *width*-bit angle via CORDIC.

    Rotation-mode CORDIC with *width*-bit datapath and baked arctangent
    constants; outputs the sine with ``width + 1`` bits (matching the
    24-in/25-out EPFL profile).
    """
    if iterations is None:
        iterations = width
    aig = Aig(f"sin{width}")
    angle = aig.add_pis(width, "a")  # angle in [0, pi/2), fixed point
    guard = 2
    w = width + guard
    # Initial vector: (K, 0) where K is the CORDIC gain correction.
    gain = 1.0
    for i in range(iterations):
        gain *= math.cos(math.atan(2.0 ** -i))
    x = constant_word(int(gain * (1 << (w - 2))), w)
    y = constant_word(0, w)
    z = list(angle) + [CONST0] * guard  # remaining angle
    for i in range(iterations):
        atan_c = constant_word(int(math.atan(2.0 ** -i) / (math.pi / 2)
                                   * (1 << width)), w)
        sign = z[-1]  # z negative (two's complement) => rotate clockwise
        x_shift = _arith_shift_right(aig, x, i)
        y_shift = _arith_shift_right(aig, y, i)
        x_plus, _ = subtractor(aig, x, y_shift)
        x_minus, _ = ripple_adder(aig, x, y_shift)
        y_plus, _ = ripple_adder(aig, y, x_shift)
        y_minus, _ = subtractor(aig, y, x_shift)
        z_plus, _ = subtractor(aig, z, atan_c)
        z_minus, _ = ripple_adder(aig, z, atan_c)
        x = mux_word(aig, sign, x_minus, x_plus)
        y = mux_word(aig, sign, y_minus, y_plus)
        z = mux_word(aig, sign, z_minus, z_plus)
    for i, b in enumerate(y[:width + 1]):
        aig.add_po(b, f"sin{i}")
    return aig


def _arith_shift_right(aig: Aig, word: List[int], amount: int) -> List[int]:
    if amount == 0:
        return list(word)
    sign = word[-1]
    return list(word[amount:]) + [sign] * min(amount, len(word))
