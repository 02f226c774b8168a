"""Bounds and covers for the multiplicative variant.

The multiplicative set replaces the per-coordinate distance condition with a
condition on the product of distances.  Its dimension is bracketed by the
closed forms

    d - 1 + (1 - tau*alpha)/(tau + 1)  <=  dim  <=  d - 1 + 1/(tau + 1),

and the cover side of the story reduces to covering the hyperbolic region
{x in [0,1]^2 : x1*x2 <= gamma} by dyadic squares.  The cover here stacks,
for each dyadic column [2^-k-1, 2^-k], a row of squares whose side equals
the region's height bound in that column, stops where squares would outgrow
their column, and closes the remainder with one corner square; its s-cost
scales like gamma^(s-1) for s in (1, 2], the exponent the cover-cost
argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .dimension import theoretical_dimension
from .numerics import Enclosure, _resolve_prec, _split_pow2, check_root_size, dir_pow


def mult_bounds(
    tau: Fraction,
    alpha: Union[Fraction, Enclosure],
    d: int,
    prec: Optional[int] = None,
) -> tuple[Union[Fraction, Enclosure], Fraction]:
    """(lower, upper) dimension bounds for the multiplicative set.

    lower = d - 1 + the d = 1 dimension formula (1 - tau*alpha)/(tau+1),
    clamped at d - 1; upper = d - 1 + 1/(tau+1), the critical exponent.
    Exact rationals when alpha is a Fraction.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    lower = theoretical_dimension(tau, alpha, 1, prec).value
    upper = d - 1 + Fraction(1, Fraction(tau) + 1)
    if isinstance(lower, Enclosure):
        return lower.add_int(d - 1), upper
    return lower + d - 1, upper


def mult_cost_exponent(d: int, tau: Fraction, s: Fraction) -> Fraction:
    """Exponent of q in the s-cost of the lattice of shifted covers.

    d - s - tau*(s - d + 1): zero exactly at s = d - 1 + 1/(tau+1) and
    negative above it, which is what drives the upper bound.
    """
    tau, s = Fraction(tau), Fraction(s)
    return d - s - tau * (s - d + 1)


@dataclass(frozen=True)
class SquareCover:
    """Dyadic squares covering {x in [0,1]^2 : x1*x2 <= 2**-big_k}, held by column.

    Scaled by 2**big_k, every square is an integer triple (x, y, side): the
    closed square [x, x+side] x [y, y+side].  Column k = 0..ceil(K/2)-1 is
    the descriptor (k, side, count, x0): the squares (x, 0, side) for
    x = x0, x0 + side, ..., x0 + (count-1)*side, each followed by its
    transpose (0, x, side).  The corner square (0, 0, corner) comes last.
    """

    big_k: int
    columns: tuple[tuple[int, int, int, int], ...]
    corner: int

    @property
    def squares(self) -> tuple[tuple[int, int, int], ...]:
        """Every square as a triple, column by column, then the corner."""
        out: list[tuple[int, int, int]] = []
        for _, side, count, x0 in self.columns:
            for x in range(x0, x0 + count * side, side):
                out.append((x, 0, side))
                out.append((0, x, side))
        out.append((0, 0, self.corner))
        return tuple(out)

    def total_squares(self) -> int:
        return 1 + 2 * sum(count for _, _, count, _ in self.columns)


def check_cover(gamma: Fraction, s: Fraction, prec: int) -> int:
    """K with gamma = 2**-K, once gamma is a dyadic power in (0, 1], the
    cost exponent s lies in (1, 2] and the roots of the powers 2**-(s * j)
    at prec bits stay under the cap (their radicands are powers of two of
    about s.denominator * prec bits); raises ValueError otherwise."""
    gamma = Fraction(gamma)
    if not Fraction(1) >= gamma > 0:
        raise ValueError("gamma must lie in (0, 1]")
    odd_num, _ = _split_pow2(gamma.numerator)
    odd_den, k_den = _split_pow2(gamma.denominator)
    if odd_num != 1 or odd_den != 1:
        raise ValueError("gamma must be a dyadic power 2**-K")
    if not 1 < Fraction(s) <= 2:
        raise ValueError("the cost exponent is meaningful for s in (1, 2] only")
    check_root_size(Fraction(s).denominator, prec, 0)
    return k_den - (gamma.numerator.bit_length() - 1)


def _column_counts(big_k: int) -> list[int]:
    """Squares in each column k = 0..ceil(K/2)-1 of the cover of gamma = 2**-K."""
    return [max(1, 1 << max(0, big_k - 2 * k - 2)) for k in range(-(-big_k // 2))]


def cover_size(big_k: int) -> int:
    """Squares in hyperbolic_cover's cover of gamma = 2**-big_k, without building it.

    For K = 2m + r the columns hold (1 + r) * 4**j squares, j = m-1, ..., 0,
    and one more column a single square when r = 1; each square but the
    corner has a transpose.  The closed form costs O(K) bits, where summing
    the columns would cost O(K**2)."""
    m, r = divmod(big_k, 2)
    return 1 + 2 * ((4 ** m - 1) // 3 * (1 + r) + r)


def hyperbolic_cover(
    gamma: Fraction,
    s: Fraction,
    prec: Optional[int] = None,
) -> tuple[SquareCover, Enclosure]:
    """Column-by-column square cover of the hyperbolic region, with s-cost.

    gamma must be a dyadic power 2**-K.  Columns k = 0..ceil(K/2)-1 get
    max(1, 2**(K-2k-2)) squares of side 2**(k+1-K) (the height bound
    gamma * 2**(k+1)); the transposed copies cover the other axis and a
    single corner square of side 2**-ceil(K/2) holds the rest.  The s-cost
    stays within a constant multiple of gamma**(s-1) for s in (1, 2].
    """
    s = Fraction(s)
    p = _resolve_prec(prec)
    big_k = check_cover(gamma, s, p)
    one = 1 << big_k

    columns: list[tuple[int, int, int, int]] = []
    cost = Enclosure.exact_int(0)
    counts = _column_counts(big_k)
    half_cols = len(counts)  # ceil(K/2)
    for k, count in enumerate(counts):
        side = 1 << (k + 1)  # 2**(k+1-K) on the grid 2**-K
        x0 = min(one >> (k + 1), one - side)  # keep the lone wide square inside the unit box
        columns.append((k, side, count, x0))
        cost = cost + dir_pow(2, -s * (big_k - k - 1), p).scale_int(2 * count)
    cost = cost + dir_pow(2, -s * half_cols, p)
    return SquareCover(big_k, tuple(columns), one >> half_cols), cost
