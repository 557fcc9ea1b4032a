import numpy as np
import pytest

import symprod as sp
from symprod.errors import (
    BoundaryProximityError,
    InvalidGeometryError,
    NonconvergentWindingError,
    NonFiniteDataError,
    SamplingError,
)
from symprod.suites import _separated_tuples


def test_disc_structure(unit_disc):
    assert unit_disc.kappa == 2
    assert len(unit_disc.contours) == 1
    assert unit_disc.contours[0].orientation == 1


def test_annulus_structure(annulus_domain):
    assert annulus_domain.kappa == 3
    assert [c.orientation for c in annulus_domain.contours] == [1, -1]


def test_build_domain_descriptors():
    d = sp.build_domain("disc 0 0 1")
    assert d.kappa == 2
    a = sp.build_domain("annulus 0 0 0.3 1")
    assert a.kappa == 3
    e = sp.build_domain("ellipse 0 0 1.1 0.9")
    assert e.kappa == 2
    comp = sp.build_domain("disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4")
    assert comp.kappa == 4


# Descriptors that the one descriptor grammar refuses.
REFUSED_DESCRIPTORS = [
    "annulus a b c d",
    "ellipse 0 0 1 nan",
    "star 1 0.25 2.5",                          # the arm count is an integer
    "disc 0 0 1 + hole annulus 0 0 0.1 0.2",    # an annulus is no hole
    "annulus 0 0 0.3 1 + hole disc 0 0 0.1",    # and takes no holes
    "disc 0 0",
    "disc 0 0 inf",
    "square 0 0 1",
    "disc 0 0 1 + hole",
]


@pytest.mark.parametrize("descriptor", REFUSED_DESCRIPTORS)
def test_malformed_descriptor_rejected(descriptor):
    with pytest.raises(InvalidGeometryError):
        sp.build_domain(descriptor)


def test_star_regularity_rejected():
    # Refusals are never cached: each build runs the check again.
    for build in [lambda: sp.star(1, 0.8, 2), lambda: sp.build_domain("star 1 0.8 2")] * 2:
        with pytest.raises(InvalidGeometryError,
                           match=r"^star\(R=1.0, ripple=0.8, arms=2\) fails the regularity check$"):
            build()


def test_star_small_ripple_accepted():
    d = sp.star(1, 0.25, 2)
    assert d.kappa == 2


@pytest.mark.parametrize("descriptor, message", [
    # a hole sticking out of the outer disc, and one wholly outside it
    ("disc 0 0 1 + hole disc 0.9 0 0.5", "hole contour 'hole0' is not inside the outer contour"),
    ("disc 0 0 1 + hole disc 2 0 0.3", "hole contour 'hole0' is not inside the outer contour"),
    # nested holes, and overlapping ones; each descriptor hole has its own
    # label, so the message names both
    ("disc 0 0 2 + hole disc 0 0 0.8 + hole disc 0 0 0.3",
     "hole contours 'hole1' and 'hole0' are nested"),
    ("disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc 1.5 0 0.45",
     "hole contours 'hole0' and 'hole1' are nested"),
    # a hole whose first validation sample lies on the outer circle
    ("disc 0 0 1 + hole disc 0.5 0 0.5", "contours touch at validation resolution"),
    # two holes that cross in a lens about 0.09 rad wide, between every
    # 64th validation sample of the first
    ("disc 0 0 3 + hole disc 0 0 1 + hole disc 1.9884132802571408 0.1954907335324023 1",
     "hole contours 'hole0' and 'hole1' are nested"),
])
def test_invalid_nesting_rejected(descriptor, message):
    # Repeated builds share their contours but check the nesting again, and
    # refuse alike.
    messages = set()
    for _ in range(3):
        with pytest.raises(InvalidGeometryError, match=message) as refused:
            sp.build_domain(descriptor)
        messages.add(str(refused.value))
    assert len(messages) == 1


def _regions(contours, w):
    """Labels of the boundary oracle at the classification floor, without
    the validation of a built domain."""
    domain = sp.geometry.DomainBoundary(tuple(contours))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    return sp.geometry._regions(domain, w, sp.geometry.boundary_tolerance(domain))


def test_winding_number_basic(unit_disc):
    assert _regions(unit_disc.contours, [0.0, 2.0]).tolist() == [0, 1]


def test_winding_number_annulus_hole(annulus_domain):
    # +1 from the outer circle and -1 from the hole put 0.1 in the hole.
    assert _regions(annulus_domain.contours, 0.1).tolist() == [2]


def test_winding_orientation_flip():
    plus = sp.geometry.circle_contour(0, 1)
    minus = sp.geometry._oriented(plus, -1, "")
    # Winding -1 about the second copy puts the point in its "hole"; winding
    # -1 about a negatively oriented outer contour is refused.
    assert _regions([plus, minus], 0.2 + 0.1j).tolist() == [2]
    with pytest.raises(NonconvergentWindingError, match="outer contour"):
        _regions([minus, plus], 0.2 + 0.1j)


def test_winding_boundary_proximity(unit_disc):
    assert _regions(unit_disc.contours, [1.0 + 1e-9j, 0.5]).tolist() == [-1, 0]
    with pytest.raises(BoundaryProximityError):
        sp.classify_points(unit_disc, 1.0 + 1e-9j)


def test_classify_point(unit_disc, annulus_domain):
    assert sp.classify_points(unit_disc, [0.5, 3.0]).tolist() == [0, 1]
    assert sp.classify_points(annulus_domain, [0.1, 0.6, 1.7]).tolist() == [2, 0, 1]
    assert sp.classify_points(unit_disc, 0.5).shape == (1,)


def test_classify_constant_on_components(annulus_domain, rng):
    # points connected by a path avoiding the boundary share a label
    theta = rng.uniform(0, 2 * np.pi, 40)
    radial = 0.4 + 0.5 * rng.random(40)
    ring = radial * np.exp(1j * theta)
    assert (sp.classify_points(annulus_domain, ring) == 0).all()
    hole = 0.2 * rng.random(20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    assert (sp.classify_points(annulus_domain, hole) == 2).all()


def test_sample_boundary_disc_nodes():
    d = sp.disc(0, 1)
    with pytest.raises(ValueError):
        sp.sample_boundary(d, 15)
    with pytest.raises(ValueError):
        sp.sample_boundary(d, 18 + 1)
    grid = sp.sample_boundary(d, 16)
    assert len(grid.nodes) == 16
    # nodes include the 4th roots of unity at indices 0, 4, 8, 12
    assert np.allclose(grid.nodes[[0, 4, 8, 12]], [1, 1j, -1, -1j])
    assert np.allclose(grid.weights, (2 * np.pi / 16) * 1j * grid.nodes)


def test_closed_contour_integrals_vanish(unit_disc):
    grid = sp.sample_boundary(unit_disc, 64)
    assert abs(grid.weights.sum()) < 1e-13
    assert abs((grid.weights / grid.nodes).sum() - 2j * np.pi) < 1e-12


@pytest.mark.parametrize("descriptor", [
    "disc 0 0 1",
    "ellipse 0 0 1.1 0.9",
    "annulus 0 0 0.3 1",
    "star 1 0.25 2",
])
@pytest.mark.parametrize("nodes", [64, 128, 256, 512])
def test_entire_monomials_integrate_to_zero(descriptor, nodes):
    domain = sp.build_domain(descriptor)
    grid = sp.sample_boundary(domain, nodes)
    for m in range(9):
        assert abs((grid.nodes**m * grid.weights).sum()) <= 1e-10


def test_nonconvergent_for_wild_point(unit_disc):
    # below the distance floor the proximity guard fires, never a winding error
    with pytest.raises(BoundaryProximityError):
        sp.classify_points(unit_disc, 1.0 + 5e-7j)


def test_figure_eight_rejected(simple_verdict):
    crossing = sp.geometry.Contour(
        point=lambda t: np.sin(t) + 0.5j * np.sin(2 * t),
        tangent=lambda t: np.cos(t) + 1j * np.cos(2 * t),
    )
    with pytest.raises(InvalidGeometryError, match="self-intersects"):
        sp.geometry.composite(crossing)
    assert "self-intersects" in simple_verdict(crossing)


@pytest.mark.parametrize("descriptor, build", [
    ("disc 0 0 1", lambda: sp.disc(0, 1)),
    ("ellipse 0 0 1.1 0.9", lambda: sp.ellipse(0, 1.1, 0.9)),
    ("star 1 0.25 2", lambda: sp.star(1, 0.25, 2)),
    ("annulus 0 0 0.3 1", lambda: sp.annulus(0, 0.3, 1)),
    ("disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4",
     lambda: sp.geometry.composite(sp.geometry.circle_contour(0, 2),
                                   [sp.geometry.circle_contour(0.8, 0.4),
                                    sp.geometry.circle_contour(-0.8, 0.4)])),
])
def test_descriptor_and_constructor_build_the_same_contours(descriptor, build):
    # composite alone orients and labels, so a descriptor and its
    # constructor give the same nodes, orientations and labels.
    parsed, built = sp.build_domain(descriptor), build()
    holes = len(parsed.contours) - 1
    assert [(c.label, c.orientation) for c in parsed.contours] == (
        [("outer", 1)] + [(f"hole{k}", -1) for k in range(holes)])
    theta = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    for a, b in zip(parsed.contours, built.contours, strict=True):
        assert (a.label, a.orientation) == (b.label, b.orientation)
        assert a.point(theta).tobytes() == b.point(theta).tobytes()
        assert a.tangent(theta).tobytes() == b.tangent(theta).tobytes()


@pytest.mark.parametrize("b", [0.2, 0.25])
def test_thin_ellipse_builds(b):
    # The band is measured in arc length, so the slow tips are no crossing.
    assert sp.build_domain(f"ellipse 0 0 1 {b}").kappa == 2


README_DESCRIPTORS = [
    "disc 0 0 1",
    "ellipse 0 0 1.1 0.9",
    "star 1 0.25 2",
    "annulus 0 0 0.3 1",
    "disc 0 0 2 + hole disc 0.8 0 0.4 + hole disc -0.8 0 0.4",
]


def _off_curve(domain, k, factor):
    """Points factor * diameter to the left and to the right of contour k."""
    contour = domain.contours[k]
    theta = np.linspace(0.0, 2 * np.pi, 13, endpoint=False) + 0.1
    tangent = contour.tangent(theta)
    step = factor * sp.domain_diameter(domain) * 1j * tangent / np.abs(tangent)
    return contour.point(theta) + step, contour.point(theta) - step


@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_points_near_the_boundary_get_labels(descriptor):
    # Every README contour runs counterclockwise, so its left side is its
    # inside: the domain for the outer contour, the hole for a hole contour.
    domain = sp.build_domain(descriptor)
    for k in range(len(domain.contours)):
        left, right = _off_curve(domain, k, 1e-5)
        inside, outside = (0, 1) if k == 0 else (k + 1, 0)
        assert (sp.classify_points(domain, left) == inside).all()
        assert (sp.classify_points(domain, right) == outside).all()


@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_points_below_the_floor_are_refused(descriptor):
    domain = sp.build_domain(descriptor)
    for k in range(len(domain.contours)):
        for point in np.concatenate(_off_curve(domain, k, 5e-7)):
            with pytest.raises(BoundaryProximityError):
                sp.classify_points(domain, point)


@pytest.mark.parametrize("radii", [(1.0,), (1.0, 0.3)])
def test_distance_matches_closed_form(radii, rng):
    domain = sp.disc(0.2, radii[0]) if len(radii) == 1 else sp.annulus(0.2, radii[1], radii[0])
    r = 3.0 * radii[0] * np.sqrt(rng.random(4000))
    w = 0.2 + r * np.exp(2j * np.pi * rng.random(4000))
    w = np.concatenate([w, 0.2 + np.exp(2j * np.pi * rng.random(50)) * radii[-1]])
    exact = np.min([np.abs(np.abs(w - 0.2) - rho) for rho in radii], axis=0)
    err = np.abs(sp.distance_to_boundary(domain, w) - exact)
    assert err.max() <= 1e-10 * sp.domain_diameter(domain)


@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_sample_interior(descriptor):
    domain = sp.build_domain(descriptor)
    margin = 0.05 * sp.domain_diameter(domain)
    pts = sp.sample_interior(domain, 500, np.random.default_rng(3), margin)
    assert pts.shape == (500,)
    assert (sp.classify_points(domain, pts) == 0).all()
    assert (sp.distance_to_boundary(domain, pts) > margin).all()
    assert sp.interior_mask(domain, pts.reshape(20, 25), margin).all()
    assert not sp.interior_mask(domain, [10.0], margin).any()
    assert sp.interior_mask(domain, 0.0, margin).shape == ()
    assert np.array_equal(pts, sp.sample_interior(domain, 500, np.random.default_rng(3), margin))

    tuples = _separated_tuples(domain, 3, 50, np.random.default_rng(4), margin, separation=margin)
    assert tuples.shape == (50, 3)
    gaps = np.abs(tuples[:, :, None] - tuples[:, None, :])[:, [0, 0, 1], [1, 2, 2]]
    assert (gaps >= margin).all()
    assert (sp.classify_points(domain, tuples) == 0).all()


def test_sample_interior_gives_up(unit_disc):
    # No point of the unit disc is farther than 1 from its boundary.
    with pytest.raises(SamplingError):
        sp.sample_interior(unit_disc, 10, np.random.default_rng(0), 1.0)


def test_sample_interior_does_not_give_up_where_there_is_room(unit_disc):
    # About one draw in 19 lands 0.74 deep; with this seed five rounds placed
    # 17 of the 18 points, and the sampler goes on once it has accepted one.
    points = sp.sample_interior(unit_disc, 18, np.random.default_rng(457), 0.74)
    assert len(points) == 18 and (np.abs(points) < 0.26).all()


@pytest.mark.parametrize("descriptor", ["disc 0 0 1", "annulus 0 0 0.3 1"])
@pytest.mark.parametrize("point", [np.inf, -np.inf, np.nan, complex(0.5, np.inf),
                                   complex(np.nan, 0.5)])
def test_non_finite_query_points(descriptor, point):
    # Refused before any arithmetic, so no RuntimeWarning is raised as an
    # error first; the mask answers False instead.
    domain = sp.build_domain(descriptor)
    w = np.array([0.5 + 0.1j, point])
    for query in (sp.distance_to_boundary, sp.classify_points):
        with pytest.raises(NonFiniteDataError):
            query(domain, w)
    assert sp.interior_mask(domain, w, 0.0).tolist() == [True, False]


def test_interior_mask_below_the_floor(unit_disc):
    # A point under the classification floor is masked out, not refused.
    w = np.array([0.0, 1.0 - 1e-8, 2.0])
    assert sp.interior_mask(unit_disc, w, 0.0).tolist() == [True, False, False]


def _probes(domain, threshold, rng):
    """Points to test the oracle's screen and prunes with: uniform points
    about the domain; points on both sides of every contour, in the screen's
    band (threshold, threshold + spacing], below it and beyond it; points
    half the classification floor outside every contour's extreme validation
    samples; points halfway from every contour's mid-node points to every
    other contour's nearest nodes; points just inside and just outside every
    contour's ring, and every hole's box, padded by the classification floor
    and by the threshold."""
    diam = sp.domain_diameter(domain)
    tol = sp.geometry.boundary_tolerance(domain)
    floor = max(threshold, tol)
    x0, x1, y0, y1 = sp.bounding_box(domain)
    margin = 0.1 * diam
    pts = [rng.uniform(x0 - margin, x1 + margin, 1500)
           + 1j * rng.uniform(y0 - margin, y1 + margin, 1500)]
    for k, c in enumerate(domain.contours):
        grid = sp.geometry._winding_grid(c)
        theta = rng.uniform(0.0, 2 * np.pi, 400)
        tangent = c.tangent(theta)
        normal = rng.choice([-1.0, 1.0], 400) * 1j * tangent / np.abs(tangent)
        depth = np.concatenate([
            floor + grid.spacing * rng.uniform(0.0, 1.0, 250),
            floor * rng.uniform(0.5, 1.0, 50),
            floor + grid.spacing * rng.uniform(1.0, 3.0, 100),
        ])
        pts.append(c.point(theta) + depth * normal)
        dense = sp.geometry._dense_points(c)
        pts.append(dense[[dense.real.argmin(), dense.real.argmax(),
                          dense.imag.argmin(), dense.imag.argmax()]]
                   + 0.5 * tol * np.array([-1, 1, -1j, 1j]))
        mid = c.point((np.arange(256) + 0.5) * 2 * np.pi / 256)
        for other in domain.contours:
            if other is not c:
                other_grid = sp.geometry._winding_grid(other)
                j, _ = sp.geometry._nearest_nodes(other_grid, mid)
                pts.append((mid + other_grid.nodes[j]) / 2)
        phase = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 25))
        for pad in (tol, threshold):
            for eps in (-1e-9 * diam, 1e-9 * diam):
                radii = (grid.r_in - pad + eps, grid.r_out + pad + eps)
                pts += [grid.center + r * phase for r in radii if r > 0]
        if k == 0:
            continue
        bx0, bx1, by0, by1 = grid.box
        s = rng.uniform(0.0, 1.0, 25)
        for pad in (tol, threshold):
            for eps in (-1e-9 * diam, 1e-9 * diam):
                out = pad + eps
                pts += [bx0 - out + 1j * (by0 + s * (by1 - by0)),
                        bx1 + out + 1j * (by0 + s * (by1 - by0)),
                        bx0 + s * (bx1 - bx0) + 1j * (by0 - out),
                        bx0 + s * (bx1 - bx0) + 1j * (by1 + out)]
    return np.concatenate(pts)


def _count_oracle_work(monkeypatch):
    """Record the points of each ``distance_to_boundary`` call in a list,
    the rows that the ``_node_blocks`` passes of each winding grid scan in a
    dict keyed by the grid's id, and the points that ``_regions`` projects
    itself, outside ``distance_to_boundary``, as (grid id, points) pairs in
    a list."""
    measured, scanned, projected, busy = [], {}, [], []
    exact, blocks, project = (sp.geometry.distance_to_boundary, sp.geometry._node_blocks,
                              sp.geometry._project)

    def distance(domain, pts):
        measured.append(np.ravel(pts))
        busy.append(True)
        try:
            return exact(domain, pts)
        finally:
            busy.pop()

    def node_blocks(grid, pts):
        scanned[id(grid)] = scanned.get(id(grid), 0) + len(pts)
        return blocks(grid, pts)

    def projection(contour, grid, pts, j):
        if not busy:
            projected.append((id(grid), pts))
        return project(contour, grid, pts, j)

    monkeypatch.setattr(sp.geometry, "distance_to_boundary", distance)
    monkeypatch.setattr(sp.geometry, "_node_blocks", node_blocks)
    monkeypatch.setattr(sp.geometry, "_project", projection)
    return measured, scanned, projected


def _size(parts):
    return sum(len(p) for p in parts)


def _oracle_domain(name):
    if name != "turned hole":
        return sp.build_domain(name)
    # A hole whose nodes miss its extremes by half a node step.
    turn = np.pi / 256
    hole = sp.geometry.Contour(lambda t: 0.4 * np.exp(1j * (t + turn)),
                               lambda t: 0.4j * np.exp(1j * (t + turn)))
    return sp.geometry.composite(sp.geometry.circle_contour(0, 1), [hole])


@pytest.mark.parametrize("factor", [0.0, 5e-3, 0.02, 0.05])
# "disc 0 0 1 + hole disc 0.55 0 0.4" leaves a gap of two outer node
# spacings at x = 0.95, where both contours are within a spacing of each
# other's nearest nodes.
# "ellipse 0 0 1 0.05" has an empty inner disc, and "disc 5 5 1" is off the
# origin.
@pytest.mark.parametrize("name", README_DESCRIPTORS + ["disc 0 0 1 + hole disc 0.55 0 0.4",
                                                       "turned hole", "ellipse 0 0 1 0.05",
                                                       "disc 5 5 1"])
def test_oracle_matches_the_unscreened_reference(name, factor, oracle_reference, monkeypatch):
    domain = _oracle_domain(name)
    threshold = factor * sp.domain_diameter(domain)
    w = _probes(domain, threshold, np.random.default_rng(7))

    tol = sp.geometry.boundary_tolerance(domain)
    clear = w[oracle_reference.distance(domain, w) > tol]
    measured, scanned, projected = _count_oracle_work(monkeypatch)
    sp.interior_mask(domain, w, threshold)
    # The nearest nodes decide most points, and a band of them is projected
    # or measured exactly.
    assert 0 < _size(measured) + _size(p for _, p in projected) < len(w) / 2
    measured.clear(), scanned.clear()
    sp.classify_points(domain, clear)
    for hole in domain.contours[1:]:
        # Hole winding sums run only inside the holes' boxes and rings.
        grid = sp.geometry._winding_grid(hole)
        shell = np.arange(len(clear))[sp.geometry._screen(grid, clear, tol)[0]]
        assert scanned.get(id(grid), 0) <= len(shell) + _size(measured) < len(clear)
    monkeypatch.undo()
    floor = max(threshold, tol)

    dist = oracle_reference.check(domain, w, threshold)
    assert (dist <= floor).any() and (dist > floor).any()


# The claim matrix's rows: the README's and a moved, a scaled-up, a
# scaled-down and a wide domain.
CLAIM_ROWS = README_DESCRIPTORS + ["disc 5 5 1", "disc 0 0 3", "disc 0 0 0.3",
                                   "ellipse 0 0 3.3 2.7"]


@pytest.mark.parametrize("descriptor", CLAIM_ROWS)
def test_screen_holds_every_validation_sample(descriptor, screen_holds):
    # Every curve point lies within one node spacing of a node, so the box
    # and the ring padded by one spacing hold the whole curve.
    for contour in sp.build_domain(descriptor).contours:
        screen_holds(contour)


def _hole_band(domain, threshold, rng):
    """Points on both sides of the annulus's hole, in the band (floor,
    floor + spacing] that the screen leaves to distance_to_boundary."""
    hole = domain.contours[1]
    grid = sp.geometry._winding_grid(hole)
    floor = max(threshold, sp.geometry.boundary_tolerance(domain))
    theta = rng.uniform(0.0, 2 * np.pi, 300)
    tangent = hole.tangent(theta)
    normal = rng.choice([-1.0, 1.0], 300) * 1j * tangent / np.abs(tangent)
    return hole.point(theta) + (floor + grid.spacing * rng.uniform(0.0, 1.0, 300)) * normal


@pytest.mark.parametrize("factor", [0.0, 5e-3])
def test_distance_projects_only_onto_contours_that_can_be_nearest(annulus_domain, factor,
                                                                  oracle_reference, monkeypatch):
    # A point's distance to a contour is at least its nearest node's less one
    # spacing, so the outer circle, 0.7 away, cannot hold the nearest foot of
    # a point in the hole's band.
    threshold = factor * sp.domain_diameter(annulus_domain)
    rng = np.random.default_rng(11)
    band = _hole_band(annulus_domain, threshold, rng)
    hole = sp.geometry._winding_grid(annulus_domain.contours[1])
    projected, project = [], sp.geometry._project
    monkeypatch.setattr(sp.geometry, "_project",
                        lambda c, grid, pts, j: projected.append((id(grid), len(pts)))
                        or project(c, grid, pts, j))
    dist = sp.distance_to_boundary(annulus_domain, band)
    monkeypatch.undo()
    assert projected == [(id(hole), len(band))]
    # Bit for bit the distances of the reference, which projects every
    # point onto every contour, also where both contours are in reach.
    w = np.concatenate([_probes(annulus_domain, threshold, rng), band])
    got = sp.distance_to_boundary(annulus_domain, w)
    assert np.array_equal(got, oracle_reference.distance(annulus_domain, w))
    assert np.array_equal(got[-len(band):], dist)
    for part in (slice(None, None, 5), slice(2, None, 13)):
        assert np.array_equal(sp.distance_to_boundary(annulus_domain, w[part]), got[part])


def test_interior_mask_scans_each_contour_once(annulus_domain, monkeypatch):
    # One nearest-node pass per contour serves the distance test and the
    # winding sums: a contour scans the points of its shell, in its box and
    # its ring, once, plus the points that distance_to_boundary measures on
    # every contour, the part of the band that lies beyond two node spacings
    # of the contour that bands it.
    threshold = 5e-3 * sp.domain_diameter(annulus_domain)
    rng = np.random.default_rng(5)
    # Uniform draws from the annulus's bounding box.
    w = rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000)
    measured, scanned, _ = _count_oracle_work(monkeypatch)
    mask = sp.interior_mask(annulus_domain, w, threshold)
    monkeypatch.undo()
    assert mask.any() and _size(measured) > 0
    shells = []
    for c in annulus_domain.contours:
        grid = sp.geometry._winding_grid(c)
        shells.append(np.arange(len(w))[sp.geometry._screen(grid, w, threshold)[0]])
        assert scanned.get(id(grid), 0) <= len(shells[-1]) + _size(measured)
    # The outer circle's shell is its ring padded by one node spacing
    # h = 2 sin(pi/256) = 0.0245 and the floor 0.01: 0.9655 <= |w| <= 1.0345,
    # of area pi * (1.0345^2 - 0.9655^2) = 0.434, of which 0.385 lies in the
    # square of area 4.  So it holds about 9.6% of the draws (408 with this
    # seed); the rest of its box is its inner disc or beyond its ring.
    assert 0.08 * len(w) < len(shells[0]) < 0.12 * len(w)


# The second domain's gap of two outer node spacings at x = 0.95 puts points
# within two spacings of both contours.
@pytest.mark.parametrize("name", ["annulus 0 0 0.3 1", "disc 0 0 1 + hole disc 0.55 0 0.4"])
def test_oracle_projects_a_point_once_per_contour(name, monkeypatch):
    # A point within two node spacings of a contour is projected onto it
    # once, and that foot settles its distance to the contour as well as its
    # side: distance_to_boundary measures only points that some contour bands
    # from beyond two spacings.
    domain = sp.build_domain(name)
    threshold = 5e-3 * sp.domain_diameter(domain)
    x0, x1, y0, y1 = sp.bounding_box(domain)
    rng = np.random.default_rng(3)
    w = rng.uniform(x0, x1, 20000) + 1j * rng.uniform(y0, y1, 20000)
    measured, _, projected = _count_oracle_work(monkeypatch)
    sp.interior_mask(domain, w, threshold)
    monkeypatch.undo()
    floor = max(threshold, sp.geometry.boundary_tolerance(domain))
    banded = []
    for c in domain.contours:
        grid = sp.geometry._winding_grid(c)
        pts = np.concatenate([p for g, p in projected if g == id(grid)])
        assert len(np.unique(pts)) == len(pts) > 0
        _, d = sp.geometry._nearest_nodes(grid, w)
        banded.append((d >= grid.near) & (d - grid.spacing <= floor))
    assert measured and np.isin(np.concatenate(measured), w[np.any(banded, axis=0)]).all()


def test_nesting_scans_no_row_of_the_outer_grid(monkeypatch):
    # Every validation sample of the hole lies in the outer circle's inner
    # disc, so the nesting check labels all 2048 of them with no node pass.
    measured, scanned, _ = _count_oracle_work(monkeypatch)
    screened, screen = [], sp.geometry._screen
    monkeypatch.setattr(sp.geometry, "_screen",
                        lambda grid, w, pad: screened.append(len(w)) or screen(grid, w, pad))
    domain = sp.build_domain("annulus 0 0 0.3 1")
    monkeypatch.undo()
    assert screened == [sp.geometry.VALIDATION_GRID] and not measured
    assert scanned.get(id(sp.geometry._winding_grid(domain.contours[0])), 0) == 0


@pytest.mark.parametrize("descriptor", README_DESCRIPTORS + ["ellipse 0 0 1 0.2"])
def test_diameter_matches_the_full_matrix(descriptor):
    # The diameter scans the upper triangle of the sample distances only.
    domain = sp.build_domain(descriptor)
    pts = np.concatenate([sp.geometry._dense_points(c) for c in domain.contours])
    sub = pts[:: max(1, len(pts) // 512)]
    assert sp.domain_diameter(domain) == float(np.abs(sub[:, None] - sub[None, :]).max())


@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_distance_does_not_depend_on_the_batch(descriptor):
    # The screen measures a subset of the points it is given, and its verdict
    # must be that of the distance over the whole array.
    domain = sp.build_domain(descriptor)
    w = _probes(domain, 0.0, np.random.default_rng(3))
    dist = sp.distance_to_boundary(domain, w)
    for part in (slice(None, None, 7), slice(3, None, 11)):
        assert np.array_equal(sp.distance_to_boundary(domain, w[part]), dist[part])
    for k in range(0, len(w), 97):
        assert sp.distance_to_boundary(domain, w[k]) == dist[k]


@pytest.mark.parametrize("descriptor", ["disc 0 0 1", "annulus 0 0 0.3 1"])
def test_distance_to_far_points(descriptor, oracle_reference):
    # So far out that a node spacing is below half an ulp of the distance.
    domain = sp.build_domain(descriptor)
    w = np.array([1e15, 1e15 + 1e15j, -3e17j])
    dist = sp.distance_to_boundary(domain, w)
    assert np.array_equal(dist, oracle_reference.distance(domain, w))
    assert np.allclose(dist, np.abs(w) - 1.0, rtol=1e-15)
    assert not sp.interior_mask(domain, w, 0.0).any()


@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_check_simple_matches_reference_on_readme_contours(descriptor, simple_verdict):
    for contour in sp.build_domain(descriptor).contours:
        assert simple_verdict(contour) is None


def _radial(c, arms):
    """r(theta) = 1 + c * cos(arms * theta), with no regularity check."""
    def point(th):
        return (1.0 + c * np.cos(arms * th)) * np.exp(1j * th)

    def tangent(th):
        return (-c * arms * np.sin(arms * th) + 1j * (1.0 + c * np.cos(arms * th))) * np.exp(1j * th)

    return sp.geometry.Contour(point, tangent)


def _neck(delta):
    """Peanut x = cos t, y = sin t * (delta + (1 - delta) cos^2 t): its neck
    is 2 * delta wide while the parametrization speed stays near 1."""
    def point(t):
        return np.cos(t) + 1j * np.sin(t) * (delta + (1 - delta) * np.cos(t) ** 2)

    def tangent(t):
        c, s = np.cos(t), np.sin(t)
        return -s + 1j * (c * (delta + (1 - delta) * c**2) - 2 * (1 - delta) * s**2 * c)

    return sp.geometry.Contour(point, tangent)


_CONTOUR_FAMILIES = {
    # Ellipses thinner than about b/a = 0.02 bring the two arms within twice
    # the largest sample step of each other, and are refused.
    "ellipse": [sp.geometry.ellipse_contour(0, 1, b) for b in np.geomspace(1e-3, 0.5, 25)],
    "star": [sp.geometry.star_contour(1, 0.999 / (m * m - 1), m) for m in (2, 3, 5, 8)],
    # Simple while r > 0 (c < 1); looped beyond.
    "radial": [_radial(c, 2) for c in np.linspace(0.1, 1.5, 15)],
    "neck": [_neck(d) for d in np.geomspace(1e-4, 0.1, 16)],
}


@pytest.mark.parametrize("family", sorted(_CONTOUR_FAMILIES))
def test_check_simple_matches_reference_on_families(family, simple_verdict):
    accepted = {simple_verdict(c) is None for c in _CONTOUR_FAMILIES[family]}
    # Every family but the stars crosses from rejected to accepted.
    assert accepted == ({True} if family == "star" else {True, False})


def _lattice_walk(moves: str):
    """Closed polygon with one validation sample per lattice point of a walk
    of unit steps (R, L, U, D) of length 2**-9, so every sample spacing and
    every axis-aligned distance is exact."""
    assert len(moves) == sp.geometry.VALIDATION_GRID
    step = {"R": 1, "L": -1, "U": 1j, "D": -1j}
    walk = np.array([step[c] for c in moves])
    assert walk.sum() == 0
    table = np.concatenate([[0], np.cumsum(walk[:-1])]) * 2.0**-9
    forward = walk * 2.0**-9 * len(moves) / (2 * np.pi)

    def at(theta):
        return np.rint(np.asarray(theta) * len(moves) / (2 * np.pi)).astype(int) % len(moves)

    return sp.geometry.Contour(lambda th: table[at(th)], lambda th: forward[at(th)])


def test_check_simple_threshold_and_band_edges(simple_verdict):
    # floor = 2 * step exactly.  An L shape whose lower arm is two steps
    # thick puts many far pairs exactly at the floor: not closer than it.
    ell = _lattice_walk("R" * 600 + "U" * 2 + "L" * 300 + "U" * 422 + "L" * 300 + "D" * 424)
    assert simple_verdict(ell) is None
    # A one-step tab at a corner puts one pair 8 samples apart (the first
    # index gap outside the band) sqrt(2) steps apart.
    tab = _lattice_walk("R" * 600 + "U" + "L" * 3 + "U" * 423 + "L" * 597 + "D" * 424)
    assert "self-intersects" in simple_verdict(tab)


# ---------------------------------------------------------------------------
# Shared contours: one per parameter set, with every check still made
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("descriptor", README_DESCRIPTORS)
def test_repeated_builds_share_their_contours(descriptor):
    first, again = sp.build_domain(descriptor), sp.build_domain(descriptor)
    assert first is not again
    assert all(a is b for a, b in zip(first.contours, again.contours, strict=True))


def test_failures_are_never_cached():
    # lru_cache stores only returned values: each refused call runs its
    # check again and leaves no entry behind.
    crossing = sp.geometry.Contour(
        point=lambda t: np.sin(t) + 0.5j * np.sin(2 * t),
        tangent=lambda t: np.cos(t) + 1j * np.cos(2 * t),
    )
    for cached, call in [(sp.geometry.star_contour, lambda: sp.geometry.star_contour(1, 0.8, 2)),
                         (sp.geometry._check_simple, lambda: sp.geometry._check_simple(crossing))]:
        before = cached.cache_info()
        for _ in range(3):
            with pytest.raises(InvalidGeometryError):
                call()
        after = cached.cache_info()
        assert after.misses - before.misses == 3 and after.hits == before.hits
        assert after.currsize == before.currsize


@pytest.mark.parametrize("descriptor, holes", [(README_DESCRIPTORS[3], 1),
                                               (README_DESCRIPTORS[4], 2)])
def test_nesting_is_checked_on_every_build(descriptor, holes, monkeypatch):
    # Only the contour work is shared: each build classifies every hole's
    # validation samples against the other contours again.
    calls, classify = [], sp.geometry.classify_points
    monkeypatch.setattr(sp.geometry, "classify_points",
                        lambda domain, w: calls.append(len(w)) or classify(domain, w))
    for _ in range(3):
        sp.build_domain(descriptor)
    assert calls == [sp.geometry.VALIDATION_GRID] * (3 * holes)


@pytest.mark.parametrize("family, negative, positive", [
    ("circle_contour", (complex(-0.0, -0.0), 1.0), (0j, 1.0)),
    ("circle_contour", (complex(-0.0, 0.8), 0.4), (complex(0.0, 0.8), 0.4)),
    ("ellipse_contour", (complex(-0.0, -0.0), 1.1, 0.9), (0j, 1.1, 0.9)),
    ("star_contour", (1.0, -0.0, 2), (1.0, 0.0, 2)),
])
def test_signed_zeros_share_a_contour_with_the_same_nodes(family, negative, positive):
    # -0.0 == 0.0, so both parameter sets key one cache entry; whichever
    # comes first, the contour has bitwise the same points and tangents on
    # every equispaced grid and at generic angles.
    cached = getattr(sp.geometry, family)
    assert cached(*negative) is cached(*positive)
    a, b = cached.__wrapped__(*negative), cached.__wrapped__(*positive)
    thetas = [np.linspace(0.0, 2 * np.pi, n, endpoint=False) for n in (16, 256, 2048, 8192)]
    thetas.append(np.random.default_rng(3).uniform(0.0, 2 * np.pi, 1000))
    for theta in thetas:
        assert a.point(theta).tobytes() == b.point(theta).tobytes()
        assert a.tangent(theta).tobytes() == b.tangent(theta).tobytes()
