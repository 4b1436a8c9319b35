"""Projection, triangulation, reconstruction uncertainty, ellipse priors."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from stereopatch import stereo, synth
from stereopatch.distributions import WeibullParams, gamma_mle
from stereopatch.growing import _image_prior
from stereopatch.stereo import (
    EllipsePrior,
    PointCloud,
    StereoRig,
    attach_penalty,
    attach_uncertainty,
    calibrate_noise_model,
    noise_penalty,
    project_many,
    triangulate_many,
)

import oracles


def triangulate_one(pixel_left, pixel_right, rig):
    """One correspondence as a one-row ``triangulate_many`` batch: (point, ok)."""
    pts, ok = triangulate_many(pixel_left, pixel_right, rig)
    return pts[0], bool(ok[0])


def plain_rig(baseline=0.5, focal=800.0, width=800, height=600, noise=0.001):
    """Two forward-looking pinhole cameras separated along X."""
    intrinsics = np.array(
        [[focal, 0.0, width / 2.0], [0.0, focal, height / 2.0], [0.0, 0.0, 1.0]]
    )
    left = intrinsics @ np.column_stack([np.eye(3), np.zeros(3)])
    right = intrinsics @ np.column_stack([np.eye(3), [-baseline, 0.0, 0.0]])
    return StereoRig(left, right, noise, noise, (width, height))


# -- projection ---------------------------------------------------------------


def test_optical_axis_point_lands_at_principal_point():
    rig = plain_rig()
    px = project_many(rig.camera_left, np.array([0.0, 0.0, 5.0]))[0][0]
    assert px == pytest.approx([400.0, 300.0], abs=1e-12)


def test_point_at_camera_plane_is_rejected():
    rig = plain_rig()
    _, valid = project_many(rig.camera_left, np.array([0.1, 0.1, 0.0]))
    assert not valid[0]


def test_projection_round_trip_in_pixels():
    rig = plain_rig()
    rng = np.random.default_rng(40)
    for trial in range(50):
        p = np.array([rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(2, 12)])
        xl = project_many(rig.camera_left, p)[0][0]
        xr = project_many(rig.camera_right, p)[0][0]
        back, ok = triangulate_one(xl, xr, rig)
        assert ok
        assert np.max(np.abs(project_many(rig.camera_left, back)[0][0] - xl)) <= 1e-8
        assert np.max(np.abs(project_many(rig.camera_right, back)[0][0] - xr)) <= 1e-8


def test_many_point_round_trip_in_world_units():
    rig = plain_rig()
    rng = np.random.default_rng(41)
    pts = np.column_stack(
        [rng.uniform(-1, 1, 100), rng.uniform(-0.7, 0.7, 100), rng.uniform(2, 12, 100)]
    )
    pl, ok_l = project_many(rig.camera_left, pts)
    pr, ok_r = project_many(rig.camera_right, pts)
    assert ok_l.all() and ok_r.all()
    back, ok = triangulate_many(pl, pr, rig)
    assert ok.all()
    assert np.max(np.linalg.norm(back - pts, axis=1)) <= 1e-8


def test_batch_projection_is_independent_of_the_batch():
    rng = np.random.default_rng(42)
    camera = rng.normal(size=(3, 4))
    pts = rng.normal(size=(300, 3))
    pixels, valid = project_many(camera, pts)
    for i in range(len(pts)):
        row_pixels, row_valid = project_many(camera, pts[i])
        assert np.array_equal(row_pixels[0], pixels[i])
        assert row_valid[0] == valid[i]


# -- triangulation ------------------------------------------------------------


def test_noiseless_consistency():
    rig = plain_rig()
    p = np.array([1.0, 2.0, 10.0])
    xl = project_many(rig.camera_left, p)[0][0]
    xr = project_many(rig.camera_right, p)[0][0]
    got, ok = triangulate_one(xl, xr, rig)
    assert ok
    assert np.max(np.abs(got - p)) <= 1e-8


def symmetric_rig(baseline=0.5, focal=800.0, width=800, height=600):
    """Camera centers at -baseline/2 and +baseline/2 on the X axis."""
    intrinsics = np.array(
        [[focal, 0.0, width / 2.0], [0.0, focal, height / 2.0], [0.0, 0.0, 1.0]]
    )
    left = intrinsics @ np.column_stack([np.eye(3), [baseline / 2.0, 0.0, 0.0]])
    right = intrinsics @ np.column_stack([np.eye(3), [-baseline / 2.0, 0.0, 0.0]])
    return StereoRig(left, right, 0.001, 0.001, (width, height))


def test_mirror_symmetry_about_the_baseline_bisector():
    # Mirroring the scene through the bisector plane swaps the two views and
    # flips the pixels horizontally, so swapped-and-flipped pixels must
    # reconstruct to the mirrored point.
    rig = symmetric_rig()
    cx = rig.image_size[0] / 2.0
    flip = lambda px: np.array([2.0 * cx - px[0], px[1]])
    rng = np.random.default_rng(48)
    for trial in range(20):
        p = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5), rng.uniform(2, 9)])
        xl = project_many(rig.camera_left, p)[0][0]
        xr = project_many(rig.camera_right, p)[0][0]
        forward, ok_forward = triangulate_one(xl, xr, rig)
        mirrored, ok_mirrored = triangulate_one(flip(xr), flip(xl), rig)
        assert ok_forward and ok_mirrored
        assert mirrored[0] == pytest.approx(-forward[0], abs=1e-9)
        assert mirrored[1:] == pytest.approx(forward[1:], abs=1e-9)


def test_agrees_with_midpoint_method():
    rig = plain_rig()
    rng = np.random.default_rng(42)
    for trial in range(100):
        p = np.array([rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(2, 12)])
        xl = project_many(rig.camera_left, p)[0][0]
        xr = project_many(rig.camera_right, p)[0][0]
        got, ok = triangulate_one(xl, xr, rig)
        assert ok
        expect = oracles.midpoint_triangulate(xl, xr, rig.camera_left, rig.camera_right)
        assert np.max(np.abs(got - expect)) <= 1e-8


def test_parallel_rays_are_degenerate():
    rig = plain_rig()
    # Identical pixels in both views cannot triangulate on a forward rig
    # whose cameras are displaced along X: rays from distinct centers through
    # matching pixels are parallel.
    pts, ok = triangulate_many(np.array([400.0, 300.0]), np.array([400.0, 300.0]), rig)
    assert not ok[0]
    assert np.array_equal(pts[0], np.zeros(3))


# -- reconstruction uncertainty -----------------------------------------------


def test_zero_noise_means_zero_uncertainty():
    rig = plain_rig(noise=0.0)
    p = np.array([0.2, 0.1, 5.0])
    cloud = one_point_cloud(rig, p)
    assert attach_uncertainty(cloud, rig)[0] == 0.0


def one_point_cloud(rig, p):
    # Positions always come from triangulation, matching how the pipeline
    # builds points.
    xl = project_many(rig.camera_left, p)[0][0]
    xr = project_many(rig.camera_right, p)[0][0]
    return PointCloud(triangulate_one(xl, xr, rig)[0], xl, xr)


def test_far_points_are_less_certain():
    rig = plain_rig()
    near_cloud = one_point_cloud(rig, np.array([0.0, 0.0, 2.0]))
    far_cloud = one_point_cloud(rig, np.array([0.0, 0.0, 10.0]))
    near = attach_uncertainty(near_cloud, rig)[0]
    far = attach_uncertainty(far_cloud, rig)[0]
    assert far > near > 0.0


def test_doubling_noise_does_not_shrink_uncertainty():
    p = np.array([0.1, -0.2, 6.0])
    lo_rig = plain_rig(noise=0.001)
    hi_rig = plain_rig(noise=0.002)
    lo = attach_uncertainty(one_point_cloud(lo_rig, p), lo_rig)[0]
    hi = attach_uncertainty(one_point_cloud(hi_rig, p), hi_rig)[0]
    # The pixel noise enters the first-order variance only as sigma^2.
    assert hi == pytest.approx(4.0 * lo, rel=1e-12, abs=0)


def test_uncertainty_golden_value():
    # Depth of ten baselines on the canonical synthetic rig, where the
    # first-order value is known in closed form.  Z = f*b/(u_l - u_r) gives
    # dZ/du_l = -dZ/du_r = -Z^2/(f*b) = -1/16; X = (u_l - c_x)*Z/f gives
    # dX/du_l = Z/f = 1/160; the DLT splits Y between the views, so
    # dY/dv_l = dY/dv_r = Z/(2f) = 1/320.  With sigma = 1e-3 px that sums to
    # 1e-6 * (2/256 + 1/25600 + 2/102400) = 7.87109375e-9.
    rig = plain_rig(baseline=0.5, noise=0.001)
    cloud = one_point_cloud(rig, np.array([0.0, 0.0, 5.0]))
    value = attach_uncertainty(cloud, rig)[0]
    assert value == pytest.approx(7.87109375e-09, rel=1e-12, abs=0)


@pytest.mark.parametrize("sigma", [0.001, 0.5])
def test_uncertainty_matches_central_differences(sigma):
    rig = synth.default_rig(sigma)
    scene, _, _ = synth.generate(synth.SceneSpec("two-plane", 1000, sigma, 0), rig)
    rows = np.arange(0, len(scene), 50)
    cloud = PointCloud(
        scene.positions[rows], scene.pixels_left[rows], scene.pixels_right[rows]
    )
    closed_form = attach_uncertainty(cloud, rig)
    reference = oracles.central_difference_uncertainty(
        cloud.pixels_left,
        cloud.pixels_right,
        rig.camera_left,
        rig.camera_right,
        (rig.pixel_noise_left, rig.pixel_noise_right),
    )
    assert len(rows) >= 20 and np.all(reference > 0)
    np.testing.assert_allclose(closed_form, reference, rtol=1e-6, atol=0)


def test_uncertainty_matches_a_montecarlo_reference(two_plane_scene):
    scene = two_plane_scene
    rows = np.arange(0, len(scene.cloud), 50)
    cloud = PointCloud(
        scene.cloud.positions[rows], scene.cloud.pixels_left[rows], scene.cloud.pixels_right[rows]
    )
    rig = scene.rig
    first_order = attach_uncertainty(cloud, rig)
    reference = oracles.montecarlo_uncertainty(
        cloud.positions,
        cloud.pixels_left,
        cloud.pixels_right,
        rig.camera_left,
        rig.camera_right,
        (rig.pixel_noise_left, rig.pixel_noise_right),
        trials=4000,
        seed=0,
    )
    assert len(rows) >= 20
    assert np.all(np.isfinite(first_order)) and np.all(first_order > 0)
    assert np.median(np.abs(first_order / reference - 1.0)) <= 0.05


def test_a_point_gets_the_same_uncertainty_alone_and_inside_the_cloud(two_plane_scene):
    full = two_plane_scene.cloud
    rig = two_plane_scene.rig
    whole = attach_uncertainty(PointCloud(full.positions, full.pixels_left, full.pixels_right), rig)
    for i in range(0, len(full), 97):
        alone = PointCloud(full.positions[i], full.pixels_left[i], full.pixels_right[i])
        assert attach_uncertainty(alone, rig)[0] == whole[i]


def test_a_point_outside_either_image_gets_infinite_uncertainty():
    rig = plain_rig()
    # (2, 0, 5) lands at u = 720 in the left image and u = 640 in the right;
    # (-2.5, 0, 5) lands at u = 0 in the left image and u = -80 in the right.
    for p, inside in (((2.0, 0.0, 5.0), True), ((-2.5, 0.0, 5.0), False)):
        cloud = one_point_cloud(rig, np.array(p))
        value = attach_uncertainty(cloud, rig)[0]
        assert np.isfinite(value) == inside


def test_a_point_at_the_horizon_is_unstable(caplog):
    # At a depth of 2e15 baselines the disparity is 4e-13 px: the rays are
    # parallel to working precision, and the solution's homogeneous scale
    # falls below _W_EPS of its norm, so the triangulation is at infinity.
    rig = plain_rig(noise=0.0)
    p = np.array([0.3, 0.2, 1e15])
    cloud = PointCloud(p, project_many(rig.camera_left, p)[0], project_many(rig.camera_right, p)[0])
    with caplog.at_level("WARNING", logger="stereopatch.stereo"):
        value = attach_uncertainty(cloud, rig)[0]
    assert value == np.inf
    assert "1 unstable points marked with infinite uncertainty" in caplog.text


def test_an_ill_conditioned_triangulation_is_unstable(caplog, monkeypatch):
    # The DLT design matrices of plain_rig have a condition number of about
    # 4.3 at every depth, so lowering the limit below that is the way to make
    # the condition test, and only it, reject a well-placed point.
    rig = plain_rig()
    cloud = one_point_cloud(rig, np.array([0.3, 0.2, 5.0]))
    assert np.isfinite(attach_uncertainty(cloud, rig)[0])
    monkeypatch.setattr(stereo, "_COND_MAX", 1.0)
    with caplog.at_level("WARNING", logger="stereopatch.stereo"):
        value = attach_uncertainty(cloud, rig)[0]
    assert value == np.inf
    assert "1 unstable points marked with infinite uncertainty" in caplog.text


def test_coincident_camera_centres_are_unstable(caplog):
    # With no baseline both rays pass through the one centre, so the design
    # matrix has rank 2 and no point can be triangulated.
    rig = plain_rig(baseline=0.0)
    p = np.array([[0.3, 0.2, 5.0], [0.1, -0.2, 3.0]])
    cloud = PointCloud(p, project_many(rig.camera_left, p)[0], project_many(rig.camera_right, p)[0])
    with caplog.at_level("WARNING", logger="stereopatch.stereo"):
        values = attach_uncertainty(cloud, rig)
    assert np.all(values == np.inf)
    assert "2 unstable points marked with infinite uncertainty" in caplog.text


# -- noise-model calibration ----------------------------------------------------


def test_calibration_recovers_weibull_parameters():
    rng = np.random.default_rng(43)
    rig = plain_rig()
    samples = 0.02 * rng.weibull(1.3, size=100_000)
    cloud = PointCloud(
        positions=np.zeros((len(samples), 3)),
        pixels_left=np.zeros((len(samples), 2)),
        pixels_right=np.zeros((len(samples), 2)),
        uncertainty=samples,
    )
    model = calibrate_noise_model(cloud, rig)
    assert model.shape == pytest.approx(1.3, rel=0.05)
    assert model.scale == pytest.approx(0.02, rel=0.05)
    assert rig.noise_model is model


def test_penalty_finite_after_calibration(two_plane_scene):
    cloud, rig = two_plane_scene.cloud, two_plane_scene.rig
    if cloud.uncertainty is None:
        attach_uncertainty(cloud, rig)
    if rig.noise_model is None:
        calibrate_noise_model(cloud, rig)
    if cloud.penalty is None:
        attach_penalty(cloud, rig.noise_model)
    inside = np.isfinite(cloud.uncertainty)
    assert np.all(np.isfinite(cloud.penalty[inside]))


def test_weibull_fits_uncertainty_at_least_as_well_as_gamma(two_plane_scene):
    cloud, rig = two_plane_scene.cloud, two_plane_scene.rig
    if cloud.uncertainty is None:
        attach_uncertainty(cloud, rig)
    samples = cloud.uncertainty[np.isfinite(cloud.uncertainty)]
    samples = samples[samples > 0]
    wfit = (
        rig.noise_model
        if rig.noise_model is not None
        else calibrate_noise_model(cloud, rig)
    )
    gfit = gamma_mle(samples)
    w_ll = float(np.sum(oracles.ref_weibull_logpdf(samples, wfit.shape, wfit.scale)))
    g_ll = float(np.sum(oracles.ref_gamma_logpdf(samples, gfit.shape, gfit.scale)))
    assert w_ll >= g_ll - 1e-3 * len(samples)


def test_penalty_matches_its_own_transform():
    model = WeibullParams(1.4, 0.03)
    d = 0.012
    expect = (d / model.scale) ** model.shape - (model.shape - 1.0) * math.log(d)
    assert noise_penalty(np.array([d]), model)[0] == pytest.approx(expect, rel=1e-12)


# -- ellipse priors -----------------------------------------------------------


def coincident_rig():
    """Both views the camera [I|0]: the point (u, v, 1) lands on pixel (u, v) in each."""
    camera = np.column_stack([np.eye(3), np.zeros(3)])
    return StereoRig(camera, camera, 0.0, 0.0, (800, 600))


def ellipse_log_prior(e, pixel):
    """One view's Gaussian log density of ``pixel`` under ellipse ``e``.

    Read off ``growing._image_prior`` on a rig whose two views coincide and
    a pair whose two ellipses are both ``e``: its term plus the half log
    moment product plus 2*log(2*pi) is then twice minus the one-view density.
    """
    pair = SimpleNamespace(ellipse_left=e, ellipse_right=e)
    patch = SimpleNamespace(pair=pair, intensity_weight=1.0)
    point = np.append(np.asarray(pixel, float), 1.0)
    prior, half_log_moments, visible = _image_prior([patch], point[None, :], coincident_rig())
    assert visible[0]
    return -0.5 * (prior[0, 0] + half_log_moments[0] + 2.0 * math.log(2.0 * math.pi))


def test_prior_peaks_at_centroid():
    e = EllipsePrior(np.array([10.0, 20.0]), np.array([4.0, 1.0, 3.0]), 0.5)
    at_centroid = ellipse_log_prior(e, np.array([10.0, 20.0]))
    omega = 1.0 - e.correlation**2
    expect = -math.log(2.0 * math.pi * math.sqrt(omega * 4.0 * 3.0))
    assert at_centroid == pytest.approx(expect, rel=1e-12)
    rng = np.random.default_rng(44)
    for trial in range(20):
        px = e.centroid + rng.normal(0, 3, 2)
        assert ellipse_log_prior(e, px) <= at_centroid


def test_unit_mahalanobis_on_a_circle():
    e = EllipsePrior(np.array([0.0, 0.0]), np.array([1.0, 0.0, 1.0]), 0.5)
    assert e.mahalanobis(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert e.mahalanobis(np.array([0.0, -1.0])) == pytest.approx(1.0, abs=1e-12)


def test_equal_quadratic_form_means_equal_prior():
    e = EllipsePrior(np.array([5.0, -2.0]), np.array([6.0, 1.5, 2.0]), 0.5)
    # Points on one Mahalanobis level set share the prior exactly.
    k1, k2, k3 = e.inertia
    cov = np.array([[k1, k2], [k2, k3]])
    chol = np.linalg.cholesky(cov)
    a = e.centroid + chol @ np.array([math.cos(0.3), math.sin(0.3)])
    b = e.centroid + chol @ np.array([math.cos(2.1), math.sin(2.1)])
    assert e.mahalanobis(a) == pytest.approx(e.mahalanobis(b), rel=1e-12)
    assert ellipse_log_prior(e, a) == pytest.approx(ellipse_log_prior(e, b), rel=1e-12)


def test_prior_normalizes_over_the_plane():
    from scipy import integrate

    e = EllipsePrior(np.array([3.0, 1.0]), np.array([2.0, 0.7, 1.5]), 0.5)
    mass, _ = integrate.dblquad(
        lambda y, x: math.exp(ellipse_log_prior(e, np.array([x, y]))),
        3.0 - 12.0,
        3.0 + 12.0,
        lambda x: 1.0 - 12.0,
        lambda x: 1.0 + 12.0,
    )
    assert mass == pytest.approx(1.0, abs=1e-4)

def test_image_prior_matches_the_bivariate_normal_logpdf():
    # growing._image_prior holds the one ellipse-prior formula: its term plus
    # the half log moment product plus 2*log(2*pi) must be minus the summed
    # Gaussian log densities of the point's pixels in both views.
    from scipy.stats import multivariate_normal

    spec = synth.SceneSpec("house", 60, 0.001, 0)
    rig = synth.default_rig(spec.pixel_noise)
    cloud, _, segments = synth.generate(spec, rig)
    pairs = [SimpleNamespace(ellipse_left=el, ellipse_right=er) for el, er in segments]
    patches = [SimpleNamespace(pair=pair, intensity_weight=1.0) for pair in pairs]
    # every scene point, plus the seed of each pair, which projects onto both centroids
    centroids_left = np.array([el.centroid for el, _ in segments])
    centroids_right = np.array([er.centroid for _, er in segments])
    seeds = triangulate_many(centroids_left, centroids_right, rig)[0]
    points = np.vstack([cloud.positions, seeds])
    prior, half_log_moments, visible = _image_prior(patches, points, rig)
    assert visible.all()
    pl = project_many(rig.camera_left, points)[0]
    pr = project_many(rig.camera_right, points)[0]
    for j, (el, er) in enumerate(segments):
        expect = 0.0
        for pixels, e in ((pl, el), (pr, er)):
            xx, xy, yy = e.inertia
            expect = expect + multivariate_normal(e.centroid, [[xx, xy], [xy, yy]]).logpdf(pixels)
        got = prior[:, j] + half_log_moments[j] + 2.0 * math.log(2.0 * math.pi)
        assert got == pytest.approx(-expect, rel=1e-12)
