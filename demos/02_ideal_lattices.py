"""
Ideal arithmetic and lattice enumeration
========================================

Ideals are bitmask subsets closed under addition and the appropriate
side multiplications. The lattice enumerator closes the principal
ideals under pairwise joins; a 2^n subset scan doubles as an
independent oracle for small rings.
"""

from nilary import (
    enumerate_ideals,
    enumerate_ideals_bruteforce,
    ideal_product,
    ideal_sum,
    make_matrix_ring,
    make_zn,
    power_chain,
    principal_ideal,
    some_power_contained,
    zero_ideal,
)

z12 = make_zn(12)

# generation and arithmetic
four = principal_ideal(z12, 4)
six = principal_ideal(z12, 6)
print("<4> =", four.elements, " <6> =", six.elements)
print("<4> + <6> =", ideal_sum(four, six).elements)
print("<4> * <6> =", ideal_product(four, six).elements)

# power chains decide "some power of J lands in I" queries: J, J^2, ... up to the stable power
two = principal_ideal(z12, 2)
chain = power_chain(two)
print("<2> chain:", [p.elements for p in chain], "stable at", len(chain))
print("least m with <2>^m inside <4>:", some_power_contained(two, four))
print("least m with <2>^m inside {0}:", some_power_contained(two, zero_ideal(z12)))

# the full two-sided lattice, smallest first
print("\nideals of Z_12:")
for ideal in enumerate_ideals(z12):
    print("  ", ideal.elements)

# one-sided lattices differ on non-commutative rings
m2 = make_matrix_ring(make_zn(2), 2)
print("\nM_2(Z_2): two-sided", len(enumerate_ideals(m2)), "ideals;",
      "right", len(enumerate_ideals(m2, "right")),
      "; left", len(enumerate_ideals(m2, "left")))

# the subset-scan oracle agrees wherever it is allowed to run
fast = enumerate_ideals(m2, "right").masks()
slow = enumerate_ideals_bruteforce(m2, "right").masks()
print("join closure == subset scan:", fast == slow)
