"""Exception types shared across the package."""


class HexFrameError(Exception):
    """Base class for all package errors."""


class NonManifold(HexFrameError):
    """A triangle face has more than two incident tetrahedra."""


class OpenBoundary(HexFrameError):
    """The boundary triangle set is not a closed surface."""


class DegenerateDihedral(HexFrameError):
    """Feature-curve dihedral angle below 45 degrees (sliver wedge)."""


class DegenerateTangent(HexFrameError):
    """Feature-curve tangent with near-zero length."""


class DegenerateTet(HexFrameError):
    """Tetrahedron with volume below 1e-14 of the mesh mean."""


class CGDiverged(HexFrameError):
    """Conjugate gradient failed to reach the requested tolerance."""


class Unconstrained(HexFrameError):
    """No vertex is Dirichlet or tangency, so the field would be zero."""


class AmbiguousAxis(HexFrameError):
    """Composed matching is not a single-axis 90 degree rotation."""


class OutsideMesh(HexFrameError):
    """Point location failed: the query point is outside the mesh."""


class SeedOutside(OutsideMesh):
    """Streamline seed point lies outside the mesh."""


class WalkFailed(HexFrameError):
    """A straight walk crossed more faces than the mesh has tets."""


class NoBoundaryPath(HexFrameError):
    """Snap endpoints lie on disconnected boundary components."""


class WedgeMismatch(HexFrameError):
    """Extrusion direction count disagrees with the curve valence."""


class NonApplicable(HexFrameError):
    """A correction plan cannot be applied; diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ParseError(HexFrameError):
    """Malformed input file; message carries the line number."""


class IndexOutOfRange(HexFrameError):
    """Vertex/element index outside the valid range in an input file."""


class CountMismatch(HexFrameError):
    """Field file vertex count disagrees with the mesh."""


class IoError(HexFrameError):
    """Failed to read an input file or write an output artifact."""
