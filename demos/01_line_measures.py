"""Translation-invariant line measures and how bodies get hit.

A line measure factorizes into a uniform offset component and a finite
directional measure. The mass of lines hitting a convex body is the
directional integral of the body's width; for the isotropic measure it
collapses to mass * perimeter / pi.
"""
import math

from crofton import (
    Direction,
    centered_square,
    discrete_xy,
    isotropic,
    master_stream,
    regular_polygon,
    width,
)

square = centered_square(1.0)
hexagon = regular_polygon(6, 0.7)

# The default axis measure puts weight 1/2 on vertical and horizontal lines.
xy = discrete_xy()
print("hitting mass of the unit square under the axis measure:", xy.lambda_of(square))
print("  (width 1 in each of the two directions, each weighted 1/2)")

iso = isotropic(1.0)
print("\nisotropic hitting mass of the unit square:", iso.lambda_of(square))
print("  perimeter / pi =", square.perimeter / math.pi)

print("\nhexagon widths at a few angles:")
for phi in (0.0, math.pi / 6, math.pi / 3):
    print(f"  phi = {phi:.3f}: width = {width(hexagon, Direction(phi)):.6f}")

# Sampling lines that hit a body: draw lines hitting a disc around it
# (direction from the directional measure, offset uniform across the disc)
# and keep those that hit the body. The kept lines have direction density
# weight * width and offsets uniform over the body's projection.
rng = master_stream(2024)
print("\nfive sampled hexagon-hitting lines (isotropic):")
for _ in range(5):
    line = iso.sample_hitting(hexagon, rng)
    print(f"  normal angle {line.direction.phi:.4f}, signed offset {line.offset:+.4f}")

# A Poisson population at time t has Poisson(t * Lambda([body])) many lines.
counts = [len(iso.sample_poisson_hitting(hexagon, 2.0, rng)) for _ in range(20000)]
mean = sum(counts) / len(counts)
print(f"\nPoisson population at t=2: mean count {mean:.3f}",
      f"(expected {2.0 * iso.lambda_of(hexagon):.3f})")
