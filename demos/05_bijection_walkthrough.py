"""Walk the replacement bijection between 213-avoiding and 321-avoiding
transversals on a 1-alternating triple, step by step.

Run:  python demos/05_bijection_walkthrough.py
"""
from altperm.bijection import (
    F3,
    J3,
    classify_j,
    phi_to_fixpoint,
    psi_to_fixpoint,
    selected_copies,
)
from altperm.diagrams import parse_ad, transversal_contains, valid_transversals

ady = parse_ad("5,5,5,5,5;A=1,3;D=2,4")
Y = ady.diagram
SF = [T for T in valid_transversals(ady) if not transversal_contains(Y, T, F3)]
SJ = {T for T in valid_transversals(ady) if not transversal_contains(Y, T, J3)}
print(f"triple {ady}: {len(SF)} transversals avoid M(213), {len(SJ)} avoid M(321)")

T = next(T for T in SF if transversal_contains(Y, T, J3))
steps = {}  # the walk's steps, transversal to image, in order
image = phi_to_fixpoint(ady, T, steps=steps)
print(f"\nforward run from {T}:")
for index, (before, after) in enumerate(steps.items()):
    a, _ = selected_copies(ady, before)
    print(f"  step {index}: remove copy at rows {a} (type {classify_j(ady, before, a)}): "
          f"{before} -> {after}")
print(f"image {image} avoids M(321): {not transversal_contains(Y, image, J3)}")

back = {}
recovered = psi_to_fixpoint(ady, image, steps=back)
print(f"\nreverse run restores the original: {recovered == T} "
      f"({len(back)} steps, column words strictly increasing)")

images = {phi_to_fixpoint(ady, T) for T in SF}
print(f"\nthe full map is a bijection onto the M(321)-avoiders: {images == SJ}")
