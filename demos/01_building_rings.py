"""
Building finite rings
=====================

Rings are plain Cayley tables over element indices 0..n-1. This demo
builds the stock constructors, validates them, and inspects a few
element-level facts.
"""

from nilary import (
    characteristic,
    element_is_nilpotent,
    element_powers,
    make_direct_sum,
    make_matrix_ring,
    make_quotient,
    make_upper_triangular,
    make_zero_mul,
    make_zn,
    matrix_entry_index,
    principal_ideal,
    validate_ring,
)

# modular integers: the workhorse
z12 = make_zn(12)
print(z12, "valid:", validate_ring(z12).ok)
print("characteristic:", characteristic(z12))

# 2 is nilpotent mod 4 but not mod 6
print("2 nilpotent in Z_4:", element_is_nilpotent(make_zn(4), 2))
print("2 nilpotent in Z_6:", element_is_nilpotent(make_zn(6), 2))
print("powers of 2 in Z_12:", element_powers(z12, 2))

# a ring with zero multiplication: every element squares to 0
zm = make_zero_mul(6)
print(zm, "all products zero, unital:", zm.is_unital)

# direct sums pack pairs (a, b) as a + |R|*b, left summand fastest
d = make_direct_sum(make_zn(2), make_zn(3))
print(d, "is isomorphic to Z_6 (same order, both cyclic of coprime parts)")

# full and upper-triangular matrix rings over Z_2
m = make_matrix_ring(make_zn(2), 2)
t = make_upper_triangular(make_zn(2), 2)
print(m, t)
e11 = matrix_entry_index(make_zn(2), 2, [[1, 0], [0, 0]])
e22 = matrix_entry_index(make_zn(2), 2, [[0, 0], [0, 1]])
print("e11 * e22 =", m.mul[e11][e22], "(the classic zero product of idempotents)")

# quotients come with their canonical surjection, as a coset map: a -> the index of a + I
q, q_of = make_quotient(z12, principal_ideal(z12, 4))
print(q, "kernel:", [a for a in z12.elements if q_of[a] == 0], "map:", q_of)
