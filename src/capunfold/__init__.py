"""capunfold: edge-unfolding of nearly flat, acutely triangulated convex caps.

Pipeline: project the cap to the plane, grow a theta-monotone boundary-rooted
spanning forest of the interior vertices, cut the forest edges, develop
everything into a planar net, build the ordered waterfall paths in each
quadrant, and certify that the net does not overlap.
"""

from .geom import delta_perp, omega_bound, phi_budget

__version__ = "0.1.0"

__all__ = ["delta_perp", "omega_bound", "phi_budget", "__version__"]
