"""Literal oracle for the semi-open family, independent of semitop.

A subset A of an n-point space is semi-open when A is inside
Cl(Int(A)).  Interior and closure are read off the opens family
itself: Int(B) is the union of the opens inside B, and Cl(B) is the
complement of the interior of the complement of B.
"""


def interior_table(n: int, opens) -> list:
    """Int(B) for every mask B, as the union of the opens inside B."""
    table = []
    for b in range(1 << n):
        acc = 0
        for o in opens:
            if o & b == o:
                acc |= o
        table.append(acc)
    return table


def semi_open_bits(n: int, opens) -> int:
    """Bitset over masks: bit A is set iff A is semi-open."""
    full = (1 << n) - 1
    interior = interior_table(n, opens)
    bits = 0
    for a in range(1 << n):
        cl_int = full ^ interior[full ^ interior[a]]
        if a & ~cl_int == 0:
            bits |= 1 << a
    return bits
