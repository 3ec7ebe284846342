"""Exact avoidance counting over classes, with the class sizes as a sanity
anchor (alternating permutations are counted by the Euler numbers).

Run:  python demos/02_counting_avoiders.py
"""
from altperm.enumeration import AvoidanceQuery, count_avoiders, count_class, sequence
from altperm.perms import ALTERNATING, DescentType, parse_perm

print("class sizes |A_n| (Euler numbers):",
      [count_class(ALTERNATING, n) for n in range(1, 11)])

q = parse_perm("634521")
res = count_avoiders(AvoidanceQuery(q, ALTERNATING, 8))
print(f"\n|A_8({q})| = {res.count}  ({res.elapsed * 1000:.1f} ms, {res.states} memo states)")

print("\nDescent-type-3 avoider sequences (n = 1..9):")
for pat in ("1342", "1243", "1423", "3124", "2134", "4123"):
    seq = sequence(parse_perm(pat), DescentType(3), range(1, 10))
    print(f"  {pat}: {seq}")
print("note the flat pairs at n = 5,6 and 8,9 for 3124 and 2134/4123 —")
print("those plateaus are realized by an explicit bijection (see demo 06)")
