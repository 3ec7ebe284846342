"""Permutations, pattern containment, and the permutation classes.

Run:  python demos/01_patterns_and_classes.py
"""
from altperm.perms import (
    ALTERNATING,
    REVERSE_ALTERNATING,
    DescentType,
    complement,
    contains,
    doubling,
    parse_perm,
    reverse,
    shortest_alternating_container,
)

w = parse_perm("214536")
print(f"{w} contains 123?  {contains(w, (1, 2, 3))}   (witness subsequence: 2 4 6)")
print(f"identity avoids 21 at every length: {not contains((1, 2, 3, 4, 5), (2, 1))}")

p = parse_perm("24537816")
print(f"\n{p} read as rows of three ascending values: 245 | 378 | 16")
print(f"  descent type 3? {DescentType(3).member(p)}")

a = parse_perm("35241")
print(f"\n{a} is alternating: {ALTERNATING.member(a)}")
print(f"its complement {complement(a)} is reverse alternating: "
      f"{REVERSE_ALTERNATING.member(complement(a))}")
print(f"reversal is an involution: {reverse(reverse(a)) == a}")

print("\nDoubling sets measure distance from alternating:")
for q in ((3, 2, 1), (1, 2, 3), (2, 1, 4, 3), (1, 3, 2)):
    prof = doubling(q)
    w = shortest_alternating_container(q)
    print(f"  {q}: doubles at {sorted(prof.doubling_set) or '{}'}, "
          f"shortest alternating container {w} (length {len(q)} + {prof.doubling_number})")
