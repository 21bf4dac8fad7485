"""Small shared helpers: exact rational formatting in full, integer
partitions, compositions, vertex slots, cycle types, fraction-free row
reduction, and linear extension counts of small posets.
"""

import contextlib
import math
import sys
from fractions import Fraction

from .errors import ArgumentError


@contextlib.contextmanager
def exact_digits():
    """Lift CPython's limit on int to decimal text (4,300 digits) for the
    block, so that exact counts print in full.  Outside the block the
    limit stays, and it keeps parsing a huge number in the input fast.
    The limit is one per interpreter, so threads must not overlap blocks."""
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if before is None:  # a Python without the limit
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def frac_str(value) -> str:
    """Render an exact rational as 'p' or 'p/q' in lowest terms, in full."""
    f = Fraction(value)
    with exact_digits():
        if f.denominator == 1:
            return str(f.numerator)
        return f"{f.numerator}/{f.denominator}"


def as_partition(parts):
    """The parts of a partition as a weakly decreasing tuple of positive
    integers; raises ArgumentError on anything else."""
    try:
        t = tuple(sorted((int(p) for p in parts), reverse=True))
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"not a partition: {parts!r}") from exc
    if not t:
        raise ArgumentError("a partition needs at least one part")
    if t[-1] < 1:
        raise ArgumentError(f"partition parts must be positive: {parts!r}")
    return t


def partitions_of(n: int, max_part: int | None = None):
    """Yield the partitions of n as weakly decreasing tuples.

    partitions_of(0) yields the empty partition once.
    """
    if n < 0:
        raise ArgumentError("cannot partition a negative integer")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def compositions_of(n: int, length: int):
    """Yield all tuples of `length` nonnegative integers summing to n."""
    if length < 0 or n < 0:
        raise ArgumentError("compositions need nonnegative n and length")
    if length == 0:
        if n == 0:
            yield ()
        return
    if length == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions_of(n - first, length - 1):
            yield (first,) + rest


def slot_of(order):
    """Invert a vertex order: slot_of(order)[vertex] is its position."""
    slots = [0] * len(order)
    for slot, vertex in enumerate(order):
        slots[vertex] = slot
    return slots


def cycle_type(perm):
    """Cycle lengths of a permutation of 0..n-1, weakly decreasing."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        cursor = start
        while not seen[cursor]:
            seen[cursor] = True
            cursor = perm[cursor]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def reduce_row(pivots, row):
    """Reduce an integer row against echelon rows without fractions.

    pivots lists (lead, pivot_row) pairs; each pivot row is zero before
    its lead column and at the leads of the pairs listed before it.  Each
    step takes the integer combination a*row - b*pivot_row that clears
    the row at the pivot's lead, and the result's content is divided out
    to keep the entries small.  Returns (lead, row), with lead None when
    the row reduces to zero; appending a nonzero pair keeps pivots
    echelon, and the number of pairs is the rank over Q.
    """
    for col, pivot in pivots:
        b = row[col]
        if b:
            a = pivot[col]
            shared = math.gcd(a, b)
            a, b = a // shared, b // shared
            row = [a * x - b * y for x, y in zip(row, pivot)]
    content = math.gcd(*row)
    if content > 1:
        row = [x // content for x in row]
    return next((k for k, x in enumerate(row) if x), None), row


def linear_extension_count(n: int, relations) -> int:
    """Count linear extensions of a partial order on elements 0..n-1.

    relations is an iterable of pairs (a, b) meaning a must come before b.
    Uses a bitmask dynamic program, so n should stay small (n <= 20).
    """
    if n < 0:
        raise ArgumentError("element count must be nonnegative")
    if n == 0:
        return 1
    preds = [0] * n
    for a, b in relations:
        if not (0 <= a < n and 0 <= b < n):
            raise ArgumentError("relation endpoint out of range")
        preds[b] |= 1 << a
    counts = [0] * (1 << n)
    counts[0] = 1
    for mask in range(1 << n):
        c = counts[mask]
        if c == 0:
            continue
        for v in range(n):
            bit = 1 << v
            if mask & bit:
                continue
            # v may be appended once all its predecessors are placed
            if preds[v] & ~mask:
                continue
            counts[mask | bit] += c
    return counts[(1 << n) - 1]
