"""Projection, triangulation, reconstruction uncertainty, ellipse priors."""

import math

import numpy as np
import pytest

from stereopatch import synth
from stereopatch.distributions import (
    WeibullParams,
    gamma_log_likelihood,
    gamma_mle,
    weibull_log_likelihood,
)
from stereopatch.stereo import (
    EllipsePrior,
    PointCloud,
    StereoRig,
    attach_penalty,
    attach_uncertainty,
    calibrate_noise_model,
    ellipse_log_prior,
    noise_penalty,
    project,
    project_many,
    reconstruction_uncertainty,
    triangulate,
    triangulate_many,
)

import oracles


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
    px = project(rig.camera_left, np.array([0.0, 0.0, 5.0]))
    assert px == pytest.approx([400.0, 300.0], abs=1e-12)


def test_point_at_camera_plane_is_rejected():
    rig = plain_rig()
    with pytest.raises(ValueError, match="at infinity in image"):
        project(rig.camera_left, np.array([0.1, 0.1, 0.0]))


def test_projection_round_trip_in_pixels():
    rig = plain_rig()
    rng = np.random.default_rng(40)
    for trial in range(50):
        p = np.array([rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(2, 12)])
        xl = project(rig.camera_left, p)
        xr = project(rig.camera_right, p)
        back = triangulate(xl, xr, rig)
        assert np.max(np.abs(project(rig.camera_left, back) - xl)) <= 1e-8
        assert np.max(np.abs(project(rig.camera_right, back) - xr)) <= 1e-8


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
    xl = project(rig.camera_left, p)
    xr = project(rig.camera_right, p)
    assert np.max(np.abs(triangulate(xl, xr, rig) - p)) <= 1e-8


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
        xl = project(rig.camera_left, p)
        xr = project(rig.camera_right, p)
        forward = triangulate(xl, xr, rig)
        mirrored = triangulate(flip(xr), flip(xl), rig)
        assert mirrored[0] == pytest.approx(-forward[0], abs=1e-9)
        assert mirrored[1:] == pytest.approx(forward[1:], abs=1e-9)


def test_agrees_with_midpoint_method():
    rig = plain_rig()
    rng = np.random.default_rng(42)
    for trial in range(100):
        p = np.array([rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(2, 12)])
        xl = project(rig.camera_left, p)
        xr = project(rig.camera_right, p)
        got = triangulate(xl, xr, rig)
        expect = oracles.midpoint_triangulate(xl, xr, rig.camera_left, rig.camera_right)
        assert np.max(np.abs(got - expect)) <= 1e-8


def test_parallel_rays_are_degenerate():
    rig = plain_rig()
    # Identical pixels in both views cannot triangulate on a forward rig
    # whose cameras are displaced along X: rays from distinct centers through
    # matching pixels are parallel.
    with pytest.raises(ValueError, match="degenerate triangulation"):
        triangulate(np.array([400.0, 300.0]), np.array([400.0, 300.0]), rig)


# -- reconstruction uncertainty -----------------------------------------------


def test_zero_noise_means_zero_uncertainty():
    rig = plain_rig(noise=0.0)
    p = np.array([0.2, 0.1, 5.0])
    sp = scene_point(rig, p)
    assert reconstruction_uncertainty(sp, rig, trials=8, seed=3) == 0.0


def scene_point(rig, p, index=0):
    # Positions always come from triangulation, matching how the pipeline
    # builds points; zero-noise redraws are then bitwise reproductions.
    from stereopatch.stereo import ScenePoint

    xl = project(rig.camera_left, p)
    xr = project(rig.camera_right, p)
    return ScenePoint(index, triangulate(xl, xr, rig), xl, xr, None, None)


def test_far_points_are_less_certain():
    rig = plain_rig()
    near = reconstruction_uncertainty(scene_point(rig, np.array([0.0, 0.0, 2.0])), rig, trials=50, seed=7)
    far = reconstruction_uncertainty(scene_point(rig, np.array([0.0, 0.0, 10.0])), rig, trials=50, seed=7)
    assert far > near > 0.0


def test_doubling_noise_does_not_shrink_uncertainty():
    p = np.array([0.1, -0.2, 6.0])
    lo_rig = plain_rig(noise=0.001)
    hi_rig = plain_rig(noise=0.002)
    lo = reconstruction_uncertainty(scene_point(lo_rig, p), lo_rig, trials=10_000, seed=11)
    hi = reconstruction_uncertainty(scene_point(hi_rig, p), hi_rig, trials=10_000, seed=11)
    # Quadrupling is the exact scaling in the linear regime; demand at least
    # a comfortable statistical margin over equality.
    assert hi > lo * 1.5


def test_uncertainty_golden_value():
    # Depth of ten baselines on the canonical synthetic rig; pinned from a
    # reference run so regressions in the noise model surface loudly.
    rig = plain_rig(baseline=0.5, noise=0.001)
    sp = scene_point(rig, np.array([0.0, 0.0, 5.0]))
    value = reconstruction_uncertainty(sp, rig, trials=20, seed=0)
    assert value == pytest.approx(6.614311140430172e-09, rel=1e-9)


def test_uncertainty_is_seed_deterministic():
    rig = plain_rig()
    sp = scene_point(rig, np.array([0.3, 0.0, 4.0]))
    a = reconstruction_uncertainty(sp, rig, trials=25, seed=5)
    b = reconstruction_uncertainty(sp, rig, trials=25, seed=5)
    c = reconstruction_uncertainty(sp, rig, trials=25, seed=6)
    assert a == b
    assert a != c


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
        attach_uncertainty(cloud, rig, seed=0)
    if rig.noise_model is None:
        calibrate_noise_model(cloud, rig)
    if cloud.penalty is None:
        attach_penalty(cloud, rig.noise_model)
    inside = np.isfinite(cloud.uncertainty)
    assert np.all(np.isfinite(cloud.penalty[inside]))


def test_weibull_fits_uncertainty_at_least_as_well_as_gamma(two_plane_scene):
    cloud, rig = two_plane_scene.cloud, two_plane_scene.rig
    if cloud.uncertainty is None:
        attach_uncertainty(cloud, rig, seed=0)
    samples = cloud.uncertainty[np.isfinite(cloud.uncertainty)]
    samples = samples[samples > 0]
    wfit = (
        rig.noise_model
        if rig.noise_model is not None
        else calibrate_noise_model(cloud, rig)
    )
    gfit = gamma_mle(samples)
    w_ll = weibull_log_likelihood(samples, wfit)
    g_ll = gamma_log_likelihood(samples, gfit)
    assert w_ll >= g_ll - 1e-3 * len(samples)


def test_penalty_matches_its_own_transform():
    model = WeibullParams(1.4, 0.03)
    d = 0.012
    expect = (d / model.scale) ** model.shape - (model.shape - 1.0) * math.log(d)
    assert noise_penalty(np.array([d]), model)[0] == pytest.approx(expect, rel=1e-12)


# -- ellipse priors -----------------------------------------------------------


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
