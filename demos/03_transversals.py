"""Young diagrams with required ascents/descents and their transversals.

A transversal marks one square per row and column; the triple's required
sets constrain which transversals are valid, which is how alternating
permutations become transversals of staircase-free shapes.

Run:  python demos/03_transversals.py
"""
from altperm.diagrams import (
    class_square,
    count_avoiding_transversals,
    j2_canonical_transversal,
    parse_ad,
    transversal_contains,
    valid_transversals,
)
from altperm.enumeration import AvoidanceQuery, count_avoiders
from altperm.perms import ALTERNATING, parse_perm

ady = parse_ad("4,4,2,2;A=;D=3")
print(f"triple {ady}: valid transversals:")
for T in valid_transversals(ady):
    print("  ", T)
print("avoiding 12:", count_avoiding_transversals(ady, (1, 2)),
      "| avoiding 21:", count_avoiding_transversals(ady, (2, 1)))
print("the unique 21-avoider via the right-to-left placement rule:",
      j2_canonical_transversal(parse_ad("4,4,2,2;A=;D=")))

print("\ncontainment respects the corner rule:")
Y = parse_ad("6,6,6,6,5,4;A=;D=").diagram
T = (3, 4, 6, 5, 2, 1)
print(f"  transversal {T} of {Y} contains 231: {transversal_contains(Y, T, (2, 3, 1))}")
print(f"  ... but not 4321 (a corner square falls outside): "
      f"{transversal_contains(Y, T, (4, 3, 2, 1))}")

enc = class_square(ALTERNATING, 7)
print(f"\nthe square {enc} encodes the alternating class exactly:")
bridge = count_avoiding_transversals(enc, parse_perm("123"))
direct = count_avoiders(AvoidanceQuery(parse_perm("123"), ALTERNATING, 7)).count
print(f"  |S_Y(M(123))| = {bridge} = |A_7(123)| = {direct}")
